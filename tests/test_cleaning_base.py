"""CleaningContext and strategy composition semantics."""

import numpy as np
import pytest

from repro.cleaning.base import (
    CleaningContext,
    CleaningStrategy,
    CompositeStrategy,
    IdentityStrategy,
    MissingInconsistentTreatment,
)
from repro.cleaning.mean_imputation import MeanImputation
from repro.cleaning.winsorize import WinsorizeOutliers
from repro.errors import CleaningError
from repro.glitches.detectors import ScaleTransform


class TestContext:
    def test_limits_computed_from_ideal(self, tiny_pair, raw_context):
        lo, hi = raw_context.limits.bounds("attr1")
        col = tiny_pair.ideal.pooled_column("attr1")
        assert lo == pytest.approx(col.mean() - 3 * col.std(ddof=1))
        assert hi == pytest.approx(col.mean() + 3 * col.std(ddof=1))

    def test_limits_on_analysis_scale_with_transform(self, tiny_pair, log_context):
        lo, hi = log_context.limits.bounds("attr1")
        col = np.log(tiny_pair.ideal.pooled_column("attr1"))
        col = col[np.isfinite(col)]
        assert hi == pytest.approx(col.mean() + 3 * col.std(ddof=1), rel=1e-6)

    def test_ideal_means_raw(self, tiny_pair, raw_context):
        assert raw_context.ideal_means["attr3"] == pytest.approx(
            tiny_pair.ideal.pooled_column("attr3").mean()
        )

    def test_analysis_means_log(self, tiny_pair, log_context):
        col = np.log(tiny_pair.ideal.pooled_column("attr1"))
        col = col[np.isfinite(col)]
        assert log_context.analysis_means["attr1"] == pytest.approx(col.mean())

    def test_analysis_means_equal_raw_without_transform(self, raw_context):
        assert raw_context.analysis_means == raw_context.ideal_means

    def test_treatable_mask_is_missing_or_inconsistent(self, raw_context, tiny_pair):
        series = tiny_pair.dirty[0]
        mask = raw_context.treatable_mask(series)
        missing = np.isnan(series.values)
        inconsistent = raw_context.constraints.evaluate(series)
        assert np.array_equal(mask, missing | inconsistent)

    def test_roundtrip_analysis_scale(self, raw_context, log_context, tiny_pair):
        values = tiny_pair.dirty[0].values
        attrs = tiny_pair.dirty[0].attributes
        raw_rt = raw_context.from_analysis(
            raw_context.to_analysis(values, attrs), attrs
        )
        assert np.array_equal(raw_rt, values, equal_nan=True)
        pos = values.copy()
        pos[~(pos[:, 0] > 0), 0] = np.nan  # drop negatives for log roundtrip
        log_rt = log_context.from_analysis(
            log_context.to_analysis(pos, attrs), attrs
        )
        assert np.allclose(log_rt, pos, equal_nan=True)


class TestComposite:
    def test_requires_a_treatment(self):
        with pytest.raises(CleaningError):
            CompositeStrategy("empty")

    def test_mi_then_outlier_order(self, tiny_pair, log_context):
        """Winsorization runs last: treated data has zero outliers."""
        from repro.glitches.detectors import DetectorSuite
        from repro.glitches.outliers import SigmaOutlierDetector
        from repro.glitches.types import GlitchType

        strategy = CompositeStrategy(
            "s5", mi_treatment=MeanImputation(), outlier_treatment=WinsorizeOutliers()
        )
        treated = strategy.clean(tiny_pair.dirty, log_context)
        suite = DetectorSuite(
            outlier_detector=SigmaOutlierDetector(log_context.limits),
            transform=log_context.transform,
        )
        glitches = suite.annotate_dataset(treated)
        assert glitches.record_fraction(GlitchType.OUTLIER) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_input_never_mutated(self, tiny_pair, raw_context):
        before = [s.values.copy() for s in tiny_pair.dirty]
        strategy = CompositeStrategy("s4", mi_treatment=MeanImputation())
        strategy.clean(tiny_pair.dirty, raw_context)
        for s, b in zip(tiny_pair.dirty, before):
            assert np.array_equal(s.values, b, equal_nan=True)

    def test_describe(self):
        s = CompositeStrategy("x", mi_treatment=MeanImputation())
        assert "mean" in s.describe()
        assert "ignore" in s.describe()

    def test_single_component_passthrough(self, tiny_pair, raw_context):
        only_mean = CompositeStrategy("m", mi_treatment=MeanImputation())
        treated = only_mean.clean(tiny_pair.dirty, raw_context)
        assert treated.missing_fraction == 0.0


class TestIdentity:
    def test_identity_copies(self, tiny_pair, raw_context):
        out = IdentityStrategy().clean(tiny_pair.dirty, raw_context)
        assert out is not tiny_pair.dirty
        for a, b in zip(out, tiny_pair.dirty):
            assert np.array_equal(a.values, b.values, equal_nan=True)


class TestCustomStrategy:
    class Clamp(CleaningStrategy):
        """A user strategy written the documented way: only ``clean_block``."""

        name = "clamp"

        def clean_block(self, block, context):
            values = block.values.copy()
            j = block.attributes.index("attr3")
            with np.errstate(invalid="ignore"):
                values[..., j] = np.clip(values[..., j], 0.0, 1.0)
            return block.with_values(values)

    def test_clean_is_derived_from_clean_block(self, tiny_pair, raw_context):
        out = self.Clamp().clean(tiny_pair.dirty, raw_context)
        assert len(out) == len(tiny_pair.dirty)
        for before, after in zip(tiny_pair.dirty, out):
            expected = before.values.copy()
            j = before.attribute_index("attr3")
            with np.errstate(invalid="ignore"):
                expected[:, j] = np.clip(expected[:, j], 0.0, 1.0)
            assert np.array_equal(after.values, expected, equal_nan=True)
