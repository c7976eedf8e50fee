"""Winsorization on raw and analysis scales."""

import numpy as np
import pytest

from repro.cleaning.base import CleaningContext
from repro.cleaning.winsorize import WinsorizeOutliers
from repro.glitches.detectors import ScaleTransform

from helpers import apply_treatment


@pytest.fixture()
def treatment():
    return WinsorizeOutliers()


class TestRawScale:
    def test_clips_to_limits(self, tiny_pair, raw_context, treatment):
        treated = apply_treatment(treatment, tiny_pair.dirty, raw_context)
        for attr in tiny_pair.dirty.attributes:
            lo, hi = raw_context.limits.bounds(attr)
            col = treated.pooled_column(attr, dropna=True)
            assert col.max() <= hi + 1e-9
            assert col.min() >= lo - 1e-9

    def test_missing_untouched(self, tiny_pair, raw_context, treatment):
        treated = apply_treatment(treatment, tiny_pair.dirty, raw_context)
        for before, after in zip(tiny_pair.dirty, treated):
            assert np.array_equal(np.isnan(before.values), np.isnan(after.values))

    def test_in_limit_values_untouched(self, tiny_pair, raw_context, treatment):
        treated = apply_treatment(treatment, tiny_pair.dirty, raw_context)
        for before, after in zip(tiny_pair.dirty, treated):
            for j, attr in enumerate(before.attributes):
                lo, hi = raw_context.limits.bounds(attr)
                col = before.values[:, j]
                inside = np.isfinite(col) & (col >= lo) & (col <= hi)
                assert np.array_equal(
                    before.values[inside, j], after.values[inside, j]
                )


class TestLogScale:
    def test_clips_on_analysis_scale(self, tiny_pair, log_context, treatment):
        treated = apply_treatment(treatment, tiny_pair.dirty, log_context)
        lo, hi = log_context.limits.bounds("attr1")
        col = treated.pooled_column("attr1", dropna=True)
        logs = np.log(col[col > 0])
        assert logs.max() <= hi + 1e-9
        assert logs.min() >= lo - 1e-9

    def test_negative_values_pass_through(self, tiny_pair, log_context, treatment):
        """Negative attr1 values are inconsistencies, not outliers: the log
        scale cannot even see them, so Winsorization leaves them alone."""
        treated = apply_treatment(treatment, tiny_pair.dirty, log_context)
        for before, after in zip(tiny_pair.dirty, treated):
            neg = np.nan_to_num(before.values[:, 0]) < 0
            assert np.array_equal(before.values[neg, 0], after.values[neg, 0])

    def test_repaired_values_back_on_raw_scale(self, tiny_pair, log_context, treatment):
        """Clipped cells hold exp(limit), not the log-scale limit itself."""
        treated = apply_treatment(treatment, tiny_pair.dirty, log_context)
        lo, hi = log_context.limits.bounds("attr1")
        for before, after in zip(tiny_pair.dirty, treated):
            col_b = before.values[:, 0]
            col_a = after.values[:, 0]
            with np.errstate(invalid="ignore"):
                clipped_low = np.isfinite(col_b) & (col_b > 0) & (np.log(np.abs(col_b) + 1e-300) < lo)
            if clipped_low.any():
                assert np.allclose(col_a[clipped_low], np.exp(lo))
                return
        pytest.skip("no low-side outliers in this pair")


class TestTailFlip:
    def test_raw_clips_upper_log_clips_lower(self, small_bundle):
        """Section 5.3: the log transform flips the Winsorized tail."""
        from repro.sampling.replication import generate_test_pairs

        pair = next(
            generate_test_pairs(small_bundle.dirty, small_bundle.ideal, 1, 30, seed=3)
        )
        treatment = WinsorizeOutliers()

        def tail_counts(context):
            treated = apply_treatment(treatment, pair.dirty, context)
            up = down = 0
            for b, a in zip(pair.dirty, treated):
                col_b, col_a = b.values[:, 0], a.values[:, 0]
                both = np.isfinite(col_b) & np.isfinite(col_a)
                up += int((col_a[both] < col_b[both]).sum())
                down += int((col_a[both] > col_b[both]).sum())
            return up, down

        raw_up, raw_down = tail_counts(CleaningContext(ideal=pair.ideal))
        log_up, log_down = tail_counts(
            CleaningContext(ideal=pair.ideal, transform=ScaleTransform.log_attr1())
        )
        assert raw_up > raw_down          # raw scale: upper tail clipped
        assert log_down > log_up          # log scale: lower tail lifted
