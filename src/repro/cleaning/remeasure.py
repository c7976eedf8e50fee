"""Oracle re-measurement — the expensive strategy of Figure 2.

The paper's budget discussion (Section 2.1) contrasts cheap imputation with
"re-tak[ing] the measurements on the missing data and obtain[ing] exact
values. This is even more expensive and can clean only 30% of the glitches,
but the statistical distortion is lower." Synthetic data give us the oracle:
every dirty series carries its pre-glitch truth, so re-measurement replaces a
treatable cell with the true value. ``coverage`` models the budget — only
that fraction of treatable cells gets re-measured.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.base import CleaningContext, CleaningStrategy
from repro.data.block import SampleBlock
from repro.errors import CleaningError
from repro.utils.validation import check_fraction

__all__ = ["RemeasureStrategy"]


class RemeasureStrategy(CleaningStrategy):
    """Replace treatable cells with ground truth, up to a coverage budget.

    Parameters
    ----------
    coverage:
        Fraction of treatable cells re-measured (1.0 = everything).
    include_outliers:
        When True, cells flagged by the context's sigma limits are also
        re-measured (a truly anomalous-but-real value is put back as-is,
        so genuine extreme behaviour survives — that is the point of
        re-measurement).
    """

    name = "remeasure"

    def __init__(self, coverage: float = 1.0, include_outliers: bool = False):
        self.coverage = check_fraction(coverage, "coverage")
        self.include_outliers = bool(include_outliers)

    def clean_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Mask evaluation and truth scatter run whole-block; only the
        coverage-budget draw runs per series (in series order, over each
        series' own ``[:lengths[i]]`` cells)."""
        if block.truth is None:
            raise CleaningError(
                "sample block has no ground truth; re-measurement is only "
                "possible on generated data"
            )
        attributes = block.attributes
        mask = context.treatable_mask_block(block)
        if self.include_outliers:
            analysis = context.to_analysis(block.values, attributes)
            for j, attr in enumerate(attributes):
                if attr not in context.limits:
                    continue
                lo, hi = context.limits.bounds(attr)
                col = analysis[..., j]
                with np.errstate(invalid="ignore"):
                    mask[..., j] |= np.isfinite(col) & ((col < lo) | (col > hi))
        if self.coverage < 1.0:
            for i, length in enumerate(block.lengths.tolist()):
                series_mask = mask[i, :length]
                if not series_mask.any():
                    continue
                flat = np.flatnonzero(series_mask.ravel())
                keep = context.rng.choice(
                    flat,
                    size=int(round(self.coverage * flat.size)),
                    replace=False,
                )
                chosen = np.zeros(series_mask.size, dtype=bool)
                chosen[keep] = True
                mask[i, :length] = chosen.reshape(series_mask.shape)
        values = block.values.copy()
        values[mask] = block.truth[mask]
        return block.with_values(values)
