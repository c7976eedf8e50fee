"""Time-series interpolation imputation (extension strategy).

Not one of the paper's five strategies, but the natural structure-aware
middle ground its future-work section gestures at ("cleaning algorithms that
make use of the correlated data cost less and perform better"): fill missing
and inconsistent cells by linear interpolation along each series' own time
axis, exploiting exactly the temporal structure the whole-series sampling
scheme preserves.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.base import CleaningContext, MissingInconsistentTreatment
from repro.data.block import SampleBlock

__all__ = ["InterpolationImputation"]


def _interpolate_column(col: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Linearly interpolate *gaps* from the non-gap entries of *col*.

    Leading/trailing gaps take the nearest valid value; a column with no
    valid entries is returned unchanged (left for a fallback treatment).
    """
    out = col.copy()
    valid = ~gaps & np.isfinite(col)
    if not valid.any():
        return out
    t = np.arange(col.size)
    out[gaps] = np.interp(t[gaps], t[valid], col[valid])
    return out


class InterpolationImputation(MissingInconsistentTreatment):
    """Fill treatable cells by per-attribute linear interpolation in time."""

    name = "interpolation"

    @staticmethod
    def _treat_values(
        values: np.ndarray,
        mask: np.ndarray,
        attributes: tuple[str, ...],
        means: dict[str, float],
    ) -> None:
        """Interpolate one series' ``(T, v)`` values in place."""
        for j, attr in enumerate(attributes):
            gaps = mask[:, j]
            if not gaps.any():
                continue
            col = _interpolate_column(values[:, j], gaps)
            still_bad = gaps & ~np.isfinite(col)
            col[still_bad] = means[attr]
            values[:, j] = col

    def apply_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """The masks come from one vectorised pass; the 1-D interpolation
        itself runs per series (``np.interp`` along each series' own time
        axis ``[:lengths[i]]`` is inherently sequential), on block rows
        without any object churn."""
        means = context.ideal_means
        attributes = block.attributes
        mask = context.treatable_mask_block(block)
        values = block.values.copy()
        for i, length in enumerate(block.lengths.tolist()):
            if mask[i].any():
                self._treat_values(
                    values[i, :length], mask[i, :length], attributes, means
                )
        return block.with_values(values)
