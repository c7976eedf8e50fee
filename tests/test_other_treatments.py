"""Mean imputation, interpolation, regression imputation, re-measurement,
partial cleaning and the strategy registry."""

import numpy as np
import pytest

from repro.cleaning.base import CleaningContext
from repro.cleaning.interpolation import InterpolationImputation, _interpolate_column
from repro.cleaning.mean_imputation import MeanImputation
from repro.cleaning.partial import PartialCleaner
from repro.cleaning.registry import (
    STRATEGY_LABELS,
    paper_strategies,
    strategy_by_name,
)
from repro.cleaning.regression_imputation import RegressionImputation
from repro.cleaning.remeasure import RemeasureStrategy
from repro.errors import CleaningError
from repro.glitches.detectors import ScaleTransform

from helpers import apply_treatment, make_series


class TestMeanImputation:
    def test_fills_everything(self, tiny_pair, raw_context):
        treated = apply_treatment(MeanImputation(), tiny_pair.dirty, raw_context)
        assert treated.missing_fraction == 0.0

    def test_fills_with_raw_ideal_mean(self, tiny_pair, raw_context):
        treated = apply_treatment(MeanImputation(), tiny_pair.dirty, raw_context)
        mean3 = raw_context.ideal_means["attr3"]
        for before, after in zip(tiny_pair.dirty, treated):
            mask = raw_context.treatable_mask(before)[:, 2]
            if mask.any():
                assert np.allclose(after.values[mask, 2], mean3)

    def test_log_config_uses_geometric_mean(self, tiny_pair, log_context):
        treated = apply_treatment(MeanImputation(), tiny_pair.dirty, log_context)
        expected = np.exp(log_context.analysis_means["attr1"])
        for before, after in zip(tiny_pair.dirty, treated):
            mask = log_context.treatable_mask(before)[:, 0]
            if mask.any():
                assert np.allclose(after.values[mask, 0], expected)
                return

    def test_never_creates_inconsistencies(self, tiny_pair, raw_context):
        """Table 1: Strategies 4/5 have exactly zero treated inconsistent."""
        treated = apply_treatment(MeanImputation(), tiny_pair.dirty, raw_context)
        for series in treated:
            assert not raw_context.constraints.evaluate(series).any()


class TestInterpolation:
    def test_interpolate_column_linear(self):
        col = np.array([0.0, np.nan, 2.0])
        gaps = np.isnan(col)
        out = _interpolate_column(col, gaps)
        assert out[1] == pytest.approx(1.0)

    def test_leading_gap_takes_first_valid(self):
        col = np.array([np.nan, 5.0, 6.0])
        out = _interpolate_column(col, np.isnan(col))
        assert out[0] == 5.0

    def test_all_invalid_returns_unchanged(self):
        col = np.array([np.nan, np.nan])
        out = _interpolate_column(col, np.isnan(col))
        assert np.isnan(out).all()

    def test_treatment_fills_everything(self, tiny_pair, raw_context):
        treated = apply_treatment(InterpolationImputation(), tiny_pair.dirty, raw_context)
        assert treated.missing_fraction == 0.0

    def test_interpolated_attr3_stays_in_range(self, tiny_pair, raw_context):
        """Convex combinations of in-range endpoints cannot violate
        constraint 2 — interpolation never plants range violations on the
        ratio attribute (unlike the Gaussian imputer)."""
        treated = apply_treatment(InterpolationImputation(), tiny_pair.dirty, raw_context)
        for before, after in zip(tiny_pair.dirty, treated):
            gaps = raw_context.treatable_mask(before)[:, 2]
            filled = after.values[gaps, 2]
            assert (filled >= 0.0).all() and (filled <= 1.0 + 1e-9).all()


class TestRegressionImputation:
    def test_fills_everything(self, tiny_pair, raw_context):
        treated = apply_treatment(RegressionImputation(), tiny_pair.dirty, raw_context)
        assert treated.missing_fraction == 0.0

    def test_deterministic(self, tiny_pair):
        ctx = CleaningContext(ideal=tiny_pair.ideal, seed=0)
        a = apply_treatment(RegressionImputation(), tiny_pair.dirty, ctx)
        b = apply_treatment(RegressionImputation(), tiny_pair.dirty, ctx)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.values, sb.values)

    def test_rejects_negative_ridge(self):
        with pytest.raises(CleaningError):
            RegressionImputation(ridge=-1)


class TestRemeasure:
    def test_full_coverage_restores_truth_on_treatable(self, tiny_pair, raw_context):
        treated = RemeasureStrategy(coverage=1.0).clean(tiny_pair.dirty, raw_context)
        for before, after in zip(tiny_pair.dirty, treated):
            mask = raw_context.treatable_mask(before)
            assert np.array_equal(after.values[mask], before.truth[mask])

    def test_zero_coverage_is_identity(self, tiny_pair, raw_context):
        treated = RemeasureStrategy(coverage=0.0).clean(tiny_pair.dirty, raw_context)
        for before, after in zip(tiny_pair.dirty, treated):
            assert np.array_equal(before.values, after.values, equal_nan=True)

    def test_partial_coverage_between(self, tiny_pair, raw_context):
        treated = RemeasureStrategy(coverage=0.5).clean(tiny_pair.dirty, raw_context)
        remaining = treated.missing_fraction
        assert 0.0 < remaining < tiny_pair.dirty.missing_fraction

    def test_zero_distortion_at_full_coverage_of_everything(self, tiny_pair, raw_context):
        """Re-measurement is the gold standard: it can only move values
        toward the truth, never into impossible regions."""
        treated = RemeasureStrategy(coverage=1.0, include_outliers=True).clean(
            tiny_pair.dirty, raw_context
        )
        for series in treated:
            assert not raw_context.constraints.evaluate(series).any()

    def test_requires_truth(self, raw_context, tiny_pair):
        from repro.data.dataset import StreamDataset

        no_truth = StreamDataset(
            s.with_values(s.values) for s in tiny_pair.dirty
        )  # with_values keeps truth; strip it manually
        from repro.data.stream import TimeSeries

        stripped = StreamDataset(
            TimeSeries(s.node, s.values.copy(), s.attributes, truth=None)
            for s in tiny_pair.dirty
        )
        with pytest.raises(CleaningError):
            RemeasureStrategy().clean(stripped, raw_context)


class TestPartialCleaner:
    def test_zero_fraction_identity(self, tiny_pair, raw_context):
        from repro.cleaning.registry import strategy_by_name

        cleaner = PartialCleaner(strategy_by_name("strategy4"), fraction=0.0)
        treated = cleaner.clean(tiny_pair.dirty, raw_context)
        for a, b in zip(treated, tiny_pair.dirty):
            assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_full_fraction_equals_plain_strategy(self, tiny_pair):
        ctx1 = CleaningContext(ideal=tiny_pair.ideal, seed=1)
        ctx2 = CleaningContext(ideal=tiny_pair.ideal, seed=1)
        base = strategy_by_name("strategy4")
        full = PartialCleaner(base, fraction=1.0).clean(tiny_pair.dirty, ctx1)
        plain = base.clean(tiny_pair.dirty, ctx2)
        for a, b in zip(full, plain):
            assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_half_fraction_cleans_dirtiest(self, tiny_pair, raw_context):
        cleaner = PartialCleaner(strategy_by_name("strategy4"), fraction=0.5)
        treated = cleaner.clean(tiny_pair.dirty, raw_context)
        changed = [
            not np.array_equal(a.values, b.values, equal_nan=True)
            for a, b in zip(treated, tiny_pair.dirty)
        ]
        n = len(tiny_pair.dirty)
        assert sum(changed) <= round(0.5 * n) + 1

    def test_name_encodes_percentage(self):
        cleaner = PartialCleaner(strategy_by_name("strategy1"), fraction=0.2)
        assert cleaner.name == "strategy1@20%"


class TestRegistry:
    def test_five_paper_strategies(self):
        strategies = paper_strategies()
        assert [s.name for s in strategies] == [
            f"strategy{i}" for i in range(1, 6)
        ]

    def test_labels_cover_all(self):
        assert set(STRATEGY_LABELS) == {f"strategy{i}" for i in range(1, 6)}

    def test_aliases(self):
        assert strategy_by_name("Impute only").name == "strategy2"
        assert strategy_by_name("s3").name == "strategy3"
        assert strategy_by_name("winsorize and replace with mean").name == "strategy5"

    def test_extension_strategies(self):
        assert strategy_by_name("interpolate").name == "interpolate"
        assert strategy_by_name("regression").name == "regression"

    def test_unknown_raises(self):
        with pytest.raises(CleaningError):
            strategy_by_name("strategy9")

    def test_compositions_match_paper_table(self):
        s1, s2, s3, s4, s5 = paper_strategies()
        assert s1.mi_treatment is not None and s1.outlier_treatment is not None
        assert s2.mi_treatment is not None and s2.outlier_treatment is None
        assert s3.mi_treatment is None and s3.outlier_treatment is not None
        assert s4.mi_treatment is not None and s4.outlier_treatment is None
        assert s5.mi_treatment is not None and s5.outlier_treatment is not None
        assert type(s1.mi_treatment).__name__ == "MvnImputation"
        assert type(s4.mi_treatment).__name__ == "MeanImputation"
