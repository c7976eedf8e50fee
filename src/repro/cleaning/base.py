"""Strategy protocol, cleaning context, and composition.

The paper's strategies (Section 5.1) pair a treatment for missing and
inconsistent values with a treatment for outliers:

========  ==============================  =========================
Strategy  missing + inconsistent          outliers
========  ==============================  =========================
S1        MVN multiple imputation (MI)    Winsorization
S2        MVN multiple imputation (MI)    ignored
S3        ignored                         Winsorization
S4        ideal-mean replacement          ignored
S5        ideal-mean replacement          Winsorization
========  ==============================  =========================

:class:`CompositeStrategy` realises that table. Outlier repair runs *first*
on the dirty values (the paper's Figure 4 shows imputed values that escaped
Winsorization, so imputation cannot precede it), then the
missing/inconsistent treatment fills the gaps.

Strategies and treatments run on one sample layout, the columnar
:class:`~repro.data.block.SampleBlock` (NaN-padded where series lengths
differ); :meth:`CleaningStrategy.clean` is the data-set convenience over
:meth:`CleaningStrategy.clean_block`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, TypeVar, Union

import numpy as np

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.errors import CleaningError
from repro.glitches.constraints import ConstraintSet, paper_constraints
from repro.glitches.detectors import ScaleTransform
from repro.glitches.outliers import SigmaLimits
from repro.utils.rng import Seed, as_generator

_T = TypeVar("_T")

__all__ = [
    "CleaningContext",
    "CleaningStrategy",
    "MissingInconsistentTreatment",
    "OutlierTreatment",
    "CompositeStrategy",
    "IdentityStrategy",
]


@dataclass
class CleaningContext:
    """Everything a strategy may consult while cleaning one sample.

    Parameters
    ----------
    ideal:
        The ideal replication sample ``DiI`` (raw scale), in either layout;
        a :class:`~repro.data.dataset.StreamDataset` is converted to its
        :class:`~repro.data.block.SampleBlock` on construction. Supplies the
        3-sigma limits (on the analysis scale) and the replacement means.
    transform:
        Optional analysis-scale transform (the log-attr1 factor). ``None``
        means the raw scale is the analysis scale.
    constraints:
        Inconsistency rules; defaults to the paper's three.
    sigma_k:
        Width of the sigma limits (3.0 in the paper).
    seed:
        Seed/generator for stochastic treatments (MVN imputation draws).
    """

    ideal: Union[StreamDataset, SampleBlock]
    transform: Optional[ScaleTransform] = None
    constraints: ConstraintSet = field(default_factory=paper_constraints)
    sigma_k: float = 3.0
    seed: Seed = None

    def __post_init__(self) -> None:
        if isinstance(self.ideal, StreamDataset):
            self.ideal = self.ideal.to_block()
        self.rng = as_generator(self.seed)
        # Per-replication memo for deterministic derived products (e.g. the
        # MVN EM fit, which Strategies 1 and 2 would otherwise each recompute
        # from the identical pooled sample). Caching a pure function of its
        # key cannot change any number — it only skips a bitwise-identical
        # recomputation.
        self._memo: dict = {}

    # -- derived, lazily computed ----------------------------------------------

    def _ideal_columns(self, analysis_scale: bool) -> dict[str, np.ndarray]:
        """NaN-free pooled columns of the ideal sample, per attribute.

        Series-major, time-minor pooling order over the valid rows.
        """
        block = self.ideal
        values = block.values
        if analysis_scale and self.transform is not None:
            values = self.transform.forward_values(values, block.attributes)
        rows = block.pool_rows(values)
        out = {}
        for j, attr in enumerate(block.attributes):
            col = rows[:, j]
            out[attr] = col[~np.isnan(col)]
        return out

    @cached_property
    def limits(self) -> SigmaLimits:
        """Per-attribute sigma limits on the analysis scale, from the ideal sample.

        The sampling variability of these limits across replications is real
        and intended — the paper points to it in Figure 4.
        """
        from repro.stats.descriptive import sigma_limits

        return SigmaLimits(
            {
                attr: sigma_limits(col, k=self.sigma_k)
                for attr, col in self._ideal_columns(analysis_scale=True).items()
            }
        )

    @cached_property
    def ideal_means(self) -> dict[str, float]:
        """Raw-scale attribute means of the ideal sample."""
        return {
            attr: float(np.mean(col))
            for attr, col in self._ideal_columns(analysis_scale=False).items()
        }

    @cached_property
    def analysis_means(self) -> dict[str, float]:
        """Analysis-scale attribute means of the ideal sample (Strategy 4/5).

        "The mean of the attribute computed from the ideal data set"
        (Section 5.1) is taken on the scale the experiment analyses: under
        the log factor, the replacement constant for Attribute 1 is the mean
        of ``log(attr1)`` (i.e. the geometric mean on the raw scale), which
        keeps the replacement spike at the centre of the analysed bulk.
        """
        return {
            attr: float(np.mean(col))
            for attr, col in self._ideal_columns(analysis_scale=True).items()
        }

    # -- masks -------------------------------------------------------------------

    def treatable_mask(self, series: TimeSeries) -> np.ndarray:
        """``(T, v)`` cells that a missing/inconsistent treatment must fill.

        Missing cells plus constraint-violating cells: the paper's strategies
        "impute values to missing and inconsistent data" as one family.
        """
        return self.treatable_mask_values(series.values, series.attributes)

    def treatable_mask_values(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        """Treatable-cell mask for a ``(..., v)`` value array."""
        return np.isnan(values) | self.constraints.evaluate_values(values, attributes)

    def treatable_mask_block(self, block: SampleBlock) -> np.ndarray:
        """``(n, T, v)`` treatable cells of a block; padding is never treatable."""
        mask = self.treatable_mask_values(block.values, block.attributes)
        if block.padded:
            mask &= block.valid[..., None]
        return mask

    def to_analysis(self, values: np.ndarray, attributes: tuple[str, ...]) -> np.ndarray:
        """Raw ``(..., v)`` values -> analysis scale (identity without transform)."""
        if self.transform is None:
            return np.asarray(values, dtype=float).copy()
        return self.transform.forward_values(values, attributes)

    def from_analysis(self, values: np.ndarray, attributes: tuple[str, ...]) -> np.ndarray:
        """Analysis-scale ``(..., v)`` values -> raw scale."""
        if self.transform is None:
            return np.asarray(values, dtype=float).copy()
        return self.transform.inverse_values(values, attributes)

    def memo(self, key, compute: Callable[[], _T]) -> _T:
        """Cache *compute()* under *key* for the lifetime of this context.

        For deterministic derived products only: the cached value must be a
        pure function of the key, so a hit returns exactly what recomputation
        would.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = compute()
            self._memo[key] = value
            return value


class CleaningStrategy(ABC):
    """A cleaning strategy ``C`` mapping ``Di`` to ``DiC`` (Definition 1).

    Subclasses implement :meth:`clean_block`, which treats the whole sample
    as one :class:`~repro.data.block.SampleBlock`; :meth:`clean` is derived
    from it.
    """

    #: Identifier used in results and reports.
    name: str = "strategy"

    @property
    def cost_fraction(self) -> float:
        """Fraction of the sample this strategy's cost model treats.

        The cost proxy of Section 5.2 (proportion of series cleaned):
        ``1.0`` for a full-sample strategy; cost-limited wrappers such as
        :class:`~repro.cleaning.partial.PartialCleaner` override it with
        their configured fraction. The experiment framework reads this
        property — not an ad-hoc duck-typed attribute — when stamping
        ``StrategyOutcome.cost_fraction``.
        """
        return 1.0

    def clean(self, sample: StreamDataset, context: CleaningContext) -> StreamDataset:
        """Return the treated copy of *sample*. The input is never mutated.

        The data-set form of :meth:`clean_block`: the sample is laid out as
        a block, treated, and handed back as series views of the result.
        """
        return StreamDataset.from_block(self.clean_block(sample.to_block(), context))

    @abstractmethod
    def clean_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Return the treated copy of *block*. The input is never mutated.

        Padding cells stay padding: they are never treated, never pooled
        into a model fit, and never consume a random draw.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class MissingInconsistentTreatment(ABC):
    """Treatment filling missing/inconsistent cells of a whole sample.

    Sample-level (not per-series) because model-based imputation pools all
    series of the replication to fit its joint model.
    """

    name: str = "mi_treatment"

    @abstractmethod
    def apply_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Return a copy of *block* with treatable cells filled."""


class OutlierTreatment(ABC):
    """Treatment repairing outlying cells of a whole sample."""

    name: str = "outlier_treatment"

    @abstractmethod
    def apply_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Return a copy of *block* with outlier cells repaired."""


class CompositeStrategy(CleaningStrategy):
    """Missing/inconsistent treatment followed by outlier repair.

    Either component may be ``None`` (the paper's "ignores outliers" /
    "ignores missing and inconsistent values" strategies).

    The order is dictated by the paper's Table 1: strategies that Winsorize
    leave *exactly zero* treated outliers, so outlier repair must run last,
    over imputed values too. Negative raw-scale imputations still survive
    (Figure 4a) because the raw lower 3-sigma limit of a heavy-right-tailed
    attribute is itself far below zero, and Attribute 3 imputations slightly
    above 1 survive as new inconsistencies (Figure 5) because the upper limit
    sits above 1 — Winsorization only knows about sigma limits, not about
    semantic constraints.
    """

    def __init__(
        self,
        name: str,
        mi_treatment: Optional[MissingInconsistentTreatment] = None,
        outlier_treatment: Optional[OutlierTreatment] = None,
    ):
        if mi_treatment is None and outlier_treatment is None:
            raise CleaningError(
                "CompositeStrategy needs at least one treatment; "
                "use IdentityStrategy for a no-op"
            )
        self.name = name
        self.mi_treatment = mi_treatment
        self.outlier_treatment = outlier_treatment

    # Bound in this class too, so per-class instrumentation
    # (``perfbench/tracing.py``) finds both entry points.
    clean = CleaningStrategy.clean

    def clean_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        treated = block
        if self.mi_treatment is not None:
            treated = self.mi_treatment.apply_block(treated, context)
        if self.outlier_treatment is not None:
            treated = self.outlier_treatment.apply_block(treated, context)
        return treated

    def describe(self) -> str:
        """Human-readable composition summary."""
        mi = self.mi_treatment.name if self.mi_treatment else "ignore"
        out = self.outlier_treatment.name if self.outlier_treatment else "ignore"
        return f"missing/inconsistent: {mi}; outliers: {out}"


class IdentityStrategy(CleaningStrategy):
    """The do-nothing strategy — the 0%-cleaned anchor of Figure 7."""

    name = "identity"

    def clean_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        return block.copy()
