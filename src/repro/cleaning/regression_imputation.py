"""Regression imputation (extension strategy).

Deterministic counterpart of the MVN conditional draw: each attribute is
ridge-regressed on the others over the complete rows of the pooled sample,
and treatable cells are filled with the regression prediction (falling back
to the ideal mean when no predictor is observed). Sits between mean
replacement (no conditioning) and MVN draws (conditioning + noise) in the
distortion spectrum — the ablation benches use it to decompose *where* the
MI distortion comes from.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.base import CleaningContext, MissingInconsistentTreatment
from repro.data.block import SampleBlock
from repro.errors import CleaningError

__all__ = ["RegressionImputation"]


class RegressionImputation(MissingInconsistentTreatment):
    """Fill treatable cells with ridge-regression predictions.

    Parameters
    ----------
    ridge:
        L2 penalty (relative to predictor scale) keeping the normal equations
        well posed even when attributes are collinear.
    """

    name = "regression"

    def __init__(self, ridge: float = 1e-6):
        if ridge < 0:
            raise CleaningError("ridge must be >= 0")
        self.ridge = float(ridge)

    def _fit(self, pooled: np.ndarray) -> list[tuple[np.ndarray, float]]:
        """Per-target ``(coef, intercept)`` fitted on complete rows."""
        complete = pooled[~np.isnan(pooled).any(axis=1)]
        d = pooled.shape[1]
        if complete.shape[0] < d + 1:
            raise CleaningError(
                f"regression imputation needs > {d} complete rows, "
                f"got {complete.shape[0]}"
            )
        models: list[tuple[np.ndarray, float]] = []
        for target in range(d):
            predictors = [j for j in range(d) if j != target]
            x = complete[:, predictors]
            y = complete[:, target]
            x_mean = x.mean(axis=0)
            y_mean = y.mean()
            xc = x - x_mean
            yc = y - y_mean
            gram = xc.T @ xc
            penalty = self.ridge * max(float(np.trace(gram)) / max(d - 1, 1), 1e-12)
            coef = np.linalg.solve(gram + penalty * np.eye(d - 1), xc.T @ yc)
            intercept = float(y_mean - x_mean @ coef)
            models.append((coef, intercept))
        return models

    @staticmethod
    def _predict_series(
        analysis: np.ndarray, models: "list[tuple[np.ndarray, float]]"
    ) -> np.ndarray:
        """One series' ``(T, v)`` analysis-scale values with regression-filled
        gaps."""
        d = analysis.shape[1]
        filled = analysis.copy()
        for target in range(d):
            gaps = np.isnan(analysis[:, target])
            if not gaps.any():
                continue
            predictors = [j for j in range(d) if j != target]
            coef, intercept = models[target]
            x = analysis[np.ix_(np.flatnonzero(gaps), predictors)]
            usable = ~np.isnan(x).any(axis=1)
            pred = np.full(int(gaps.sum()), np.nan)
            pred[usable] = x[usable] @ coef + intercept
            filled[gaps, target] = pred
        return filled

    def apply_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Vectorised blanking/transform/pooling and one model fit over the
        valid rows; the gap predictions then run per series on its own
        ``[:lengths[i]]`` rows."""
        attributes = block.attributes
        mask = context.treatable_mask_block(block)
        blanked = block.values.copy()
        blanked[mask] = np.nan
        analysis = context.to_analysis(blanked, attributes)
        models = self._fit(block.pool_rows(analysis))
        means = context.ideal_means

        filled = np.full_like(analysis, np.nan)
        for i, length in enumerate(block.lengths.tolist()):
            filled[i, :length] = self._predict_series(analysis[i, :length], models)
        raw_filled = context.from_analysis(filled, attributes)
        values = block.values.copy()
        values[mask] = raw_filled[mask]
        # Cells with no observed predictors fall back to the ideal mean.
        for j, attr in enumerate(attributes):
            col = values[..., j]
            hole = mask[..., j] & np.isnan(col)
            col[hole] = means[attr]
        return block.with_values(values)
