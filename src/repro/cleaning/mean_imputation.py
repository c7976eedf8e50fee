"""Ideal-mean replacement — the cheap imputation of Strategies 4 and 5.

Section 5.1: "Strategy 4 ... treats missing and inconsistent values by
replacing them with the mean of the attribute computed from the ideal data
set." The replacement constant is the *analysis-scale* mean of the ideal
replication sample ``DiI`` (the mean of ``log(attr1)`` under the log factor),
mapped back to the raw scale — so it is always a legitimate central value.
That is exactly why this simple strategy wins on new-glitch counts (Table 1
shows zero treated missing/inconsistent for Strategies 4/5) while still
distorting the distribution with a density spike (Figure 2's discussion).
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.base import CleaningContext, MissingInconsistentTreatment
from repro.data.block import SampleBlock

__all__ = ["MeanImputation"]


class MeanImputation(MissingInconsistentTreatment):
    """Replace missing and inconsistent cells with the ideal-sample mean."""

    name = "mean"

    @staticmethod
    def _raw_constants(context: CleaningContext, attributes: tuple[str, ...]) -> np.ndarray:
        """The analysis-scale means materialised back on the raw scale."""
        means = context.analysis_means
        template = np.array([[means[attr] for attr in attributes]])
        return context.from_analysis(template, attributes)[0]

    def apply_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """One mask evaluation and one fill per attribute, padding excluded."""
        attributes = block.attributes
        raw_constants = self._raw_constants(context, attributes)
        mask = context.treatable_mask_block(block)
        values = block.values.copy()
        for j in range(len(attributes)):
            col = values[..., j]
            col[mask[..., j]] = raw_constants[j]
        return block.with_values(values)
