"""Winsorization — the paper's outlier repair.

Section 1.1: "repair the outliers by setting them to the closest acceptable
value, a process known as Winsorization in statistics." Detection and repair
use the same 3-sigma limits computed from the ideal replication sample on the
analysis scale (Section 4.1 / Figure 4); repaired values are mapped back to
the raw scale through the transform's inverse.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.base import CleaningContext, OutlierTreatment
from repro.data.block import SampleBlock
from repro.errors import ValidationError

__all__ = ["WinsorizeOutliers"]


class WinsorizeOutliers(OutlierTreatment):
    """Clip cells outside the per-attribute sigma limits to the nearest limit.

    NaN (missing) cells pass through untouched — they belong to the
    missing/inconsistent treatment. Cells that are NaN *on the analysis
    scale only* (e.g. the log of a negative value) also pass through: they
    are inconsistencies, not outliers.
    """

    name = "winsorize"

    def apply_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Clip every attribute across the whole ``(n, T, v)`` tensor at once,
        mapping only the clipped cells back through the transform's inverse
        (elementwise, so untouched cells keep their raw bits). Padding is
        NaN and therefore never outlying."""
        limits = context.limits
        attributes = block.attributes
        transform = context.transform
        analysis = context.to_analysis(block.values, attributes)
        raw = block.values.copy()
        for j, attr in enumerate(attributes):
            if attr not in limits:
                continue
            lo, hi = limits.bounds(attr)
            col = analysis[..., j]
            with np.errstate(invalid="ignore"):
                outlying = np.isfinite(col) & ((col < lo) | (col > hi))
            if not outlying.any():
                continue
            clipped = np.clip(col[outlying], lo, hi)
            if transform is None:
                repaired = clipped
            elif transform.inverse is None:
                # Repair needs the raw scale back: refuse, as
                # ``from_analysis`` does.
                raise ValidationError(f"transform {transform.name!r} has no inverse")
            elif attr == transform.attribute:
                with np.errstate(invalid="ignore", over="ignore"):
                    repaired = transform.inverse(clipped)
            else:
                repaired = clipped
            raw[..., j][outlying] = repaired
        return block.with_values(raw)
