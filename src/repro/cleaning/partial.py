"""Cost-limited cleaning: treat only the top-x% dirtiest series.

Section 5.2: "we computed the normalized glitch score, and ranked all the
series in the dirty data set by glitch score. We applied the cleaning
strategy to the top x% of the time series." The proportion cleaned is the
paper's cost proxy; sweeping it produces Figure 7.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.base import CleaningContext, CleaningStrategy
from repro.core.glitch_index import GlitchWeights, series_glitch_scores_block
from repro.data.block import SampleBlock
from repro.glitches.detectors import DetectorSuite
from repro.glitches.outliers import SigmaOutlierDetector
from repro.utils.validation import check_fraction

__all__ = ["PartialCleaner"]


class PartialCleaner(CleaningStrategy):
    """Wrap a strategy so it cleans only the dirtiest *fraction* of series.

    Series are ranked by their length-normalised weighted glitch score under
    the context-derived detector suite; ties at the cut-off are broken by
    original position (stable sort), mirroring the paper's note that ties can
    make the 0%-cleaned point not exactly identical to the dirty data
    (Figure 7's caption).

    Parameters
    ----------
    strategy:
        The underlying cleaning strategy.
    fraction:
        Share of series to clean (0.0 = nothing, 1.0 = everything).
    weights:
        Glitch-type weights used for ranking; defaults to the paper's.
    """

    def __init__(
        self,
        strategy: CleaningStrategy,
        fraction: float,
        weights: GlitchWeights | None = None,
    ):
        self.strategy = strategy
        self.fraction = check_fraction(fraction, "fraction")
        self.weights = weights or GlitchWeights()
        self.name = f"{strategy.name}@{int(round(self.fraction * 100))}%"

    @property
    def cost_fraction(self) -> float:
        """The cost proxy of Section 5.2: the configured cleaned fraction.

        This overrides :attr:`CleaningStrategy.cost_fraction` (1.0 for full
        strategies), so ``StrategyOutcome.cost_fraction`` lands on the sweep
        coordinate Figure 7 plots.
        """
        return self.fraction

    def _ranking_suite(self, context: CleaningContext) -> DetectorSuite:
        """The full detector suite (outlier limits from the ideal sample)."""
        return DetectorSuite(
            constraints=context.constraints,
            outlier_detector=SigmaOutlierDetector(context.limits),
            transform=context.transform,
        )

    def clean_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Whole-block ranking, then the wrapped strategy on the chosen
        sub-block; the merge is one row scatter."""
        if self.fraction == 0.0:
            return block.copy()
        if self.fraction == 1.0:
            return self.strategy.clean_block(block, context)
        glitches = self._ranking_suite(context).annotate_block(block)
        scores = series_glitch_scores_block(glitches, self.weights)
        n_clean = int(round(self.fraction * block.n_series))
        order = np.argsort(-scores, kind="stable")
        chosen = np.sort(order[:n_clean])
        if not chosen.size:
            return block.copy()
        cleaned_subset = self.strategy.clean_block(block.take(chosen), context)
        values = block.values.copy()
        values[chosen] = cleaned_subset.values
        return block.with_values(values)
