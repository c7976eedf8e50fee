"""Statistical distortion — Definition 1 of the paper.

``S(C, D) = d(D, DC)``: the distributional distance between a data set and
its cleaned counterpart. Distortion is measured **against the dirty data**
("we measure distortion against the original, but calibrate cleanliness with
respect to the ideal", Section 1.1), pooling every time instant as one
``v``-tuple (Section 6.1) on the analysis scale of the experiment.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.distance.base import Distance
from repro.distance.emd import EarthMoverDistance
from repro.errors import DistanceError
from repro.glitches.detectors import ScaleTransform

__all__ = [
    "statistical_distortion",
    "statistical_distortion_batch",
    "StreamingDistortion",
    "statistical_distortion_stream",
    "slab_streams",
]

#: Either layout of one replication sample.
Sample = Union[StreamDataset, SampleBlock]


def _pooled_analysis(
    sample: Sample,
    transform: Optional[ScaleTransform],
    keep_partial: bool = False,
) -> np.ndarray:
    """Analysis-scale rows of a sample block (a data set is laid out as one).

    The whole ``(n, T, v)`` tensor is transformed at once and its valid rows
    pooled series-major, time-minor — the ``StreamDataset.pooled`` order.
    Rows with a NaN are dropped by default (the complete-case semantics
    multivariate binning needs); ``keep_partial`` keeps them for consumers
    with per-attribute NaN handling (the ECDF-sketch distances). Padding
    rows are never returned.
    """
    block = sample.to_block() if isinstance(sample, StreamDataset) else sample
    values = (
        transform.forward_values(block.values, block.attributes)
        if transform is not None
        else block.values
    )
    rows = block.pool_rows(values)
    if keep_partial:
        return rows
    return rows[~np.isnan(rows).any(axis=1)]


def statistical_distortion(
    dirty: Sample,
    treated: Sample,
    distance: Optional[Distance] = None,
    transform: Optional[ScaleTransform] = None,
) -> float:
    """Distance between the pooled empirical distributions of two data sets.

    Parameters
    ----------
    dirty:
        The untreated data set ``D`` (the reference distribution).
    treated:
        The cleaned data set ``DC``.
    distance:
        Any :class:`~repro.distance.base.Distance`; defaults to the paper's
        EMD.
    transform:
        Optional analysis-scale transform applied to both sides first (the
        log-attr1 experimental factor). Rows with missing values carry no
        mass and are dropped by the distance.
    """
    return statistical_distortion_batch(
        dirty, [treated], distance=distance, transform=transform
    )[0]


def statistical_distortion_batch(
    dirty: Sample,
    treated_seq: Sequence[Sample],
    distance: Optional[Distance] = None,
    transform: Optional[ScaleTransform] = None,
    pooled_reference: Optional[np.ndarray] = None,
) -> list[float]:
    """Distortion of many treated data sets against one dirty reference.

    The batched form of :func:`statistical_distortion` used by the
    experiment framework to score a whole strategy panel per replication:
    the dirty side is transformed and pooled exactly once, and distances
    that implement a cached ``pairwise`` path (the default EMD does) bin
    the reference once on a grid shared by all candidates instead of
    re-binning it per strategy. Returns one distortion per treated data
    set, in order. Either side may be a data set or a
    :class:`~repro.data.block.SampleBlock`; pooled rows are read straight
    off the block columns.

    **Shared-support semantics** (multivariate EMD): the grid spans the
    pooled union of the dirty sample and *every* treated candidate — the
    paper's "bins covering this support". All values within one panel are
    therefore computed on identical bins and are directly comparable to
    each other, but a candidate with an extreme range stretches the grid
    for the whole panel, so an individual value can shift slightly (within
    EMD's binning-insensitivity envelope) when the panel composition
    changes. For a panel-independent per-pair value, call
    :func:`statistical_distortion`, which covers only that pair's support.
    The exact univariate path bins nothing and is panel-independent either
    way.

    **NaN semantics** follow the distance's ``complete_case`` declaration:
    complete-case distances (the default — multivariate binning needs whole
    rows) see NaN-bearing rows dropped here; distances with per-attribute
    NaN handling (KS) receive the rows whole, so a cleaner that blanks one
    column still gets scored on the remaining attributes exactly as the
    distance's own documentation promises.

    *pooled_reference* short-circuits the dirty side: pass the array a prior
    call to ``_pooled_analysis(dirty, transform, keep_partial=...)`` (with
    the **same** transform and the distance's own ``complete_case``
    semantics) produced, and the reference is not re-pooled. The sweep
    planner's shared-frame evaluation uses this to pool each replication's
    dirty sample once across a whole group of strategy panels — the arrays
    are identical, so the distances are too.
    """
    distance = distance or EarthMoverDistance()
    keep_partial = not getattr(distance, "complete_case", True)
    p = (
        pooled_reference
        if pooled_reference is not None
        else _pooled_analysis(dirty, transform, keep_partial=keep_partial)
    )
    qs = [
        _pooled_analysis(t, transform, keep_partial=keep_partial)
        for t in treated_seq
    ]
    if p.shape[0] == 0 or any(q.shape[0] == 0 for q in qs):
        raise DistanceError("no complete records to compare")
    return [float(d) for d in distance.pairwise(p, qs)]


def slab_streams(
    reference: np.ndarray,
    candidates: Sequence[np.ndarray],
    reference_width: int,
    candidate_width: Optional[int] = None,
) -> tuple[list[np.ndarray], "list[tuple[np.ndarray, list[np.ndarray]]]"]:
    """Cut pooled arrays into the two aligned streams
    :func:`statistical_distortion_stream` consumes.

    Convenience for call sites that hold in-memory rows (benches, tests,
    small jobs): the reference is sliced at ``reference_width``, every
    candidate at ``candidate_width`` (defaulting to the reference width),
    and shorter streams are padded with **empty** slabs — empty slabs are
    accumulation no-ops, so nothing is silently truncated when the slab
    counts differ. Returns ``(reference_slabs, paired_slabs)``.
    """
    reference = np.asarray(reference, dtype=float)
    candidates = [np.asarray(q, dtype=float) for q in candidates]
    if reference_width < 1 or (candidate_width is not None and candidate_width < 1):
        raise DistanceError("slab widths must be positive")
    cand_width = candidate_width or reference_width
    ref_slabs = [
        reference[a : a + reference_width]
        for a in range(0, len(reference), reference_width)
    ] or [reference[:0]]
    cand_slabs = [
        [q[a : a + cand_width] for a in range(0, len(q), cand_width)] or [q[:0]]
        for q in candidates
    ]
    n = max(len(ref_slabs), *(len(s) for s in cand_slabs)) if cand_slabs else len(ref_slabs)
    ref_slabs = ref_slabs + [reference[:0]] * (n - len(ref_slabs))
    cand_slabs = [
        s + [q[:0]] * (n - len(s)) for q, s in zip(candidates, cand_slabs)
    ]
    paired = [
        (ref_slabs[i], [s[i] for s in cand_slabs]) for i in range(n)
    ]
    return ref_slabs, paired


class StreamingDistortion:
    """One-pass, out-of-core distortion of many candidates against one
    reference.

    The pooled-sample form above materialises every side as an ``(N, v)``
    array; at population scale that is exactly the "store all the data" the
    paper's stream setting rules out. This driver never pools anything — it
    extracts analysis-scale rows from whatever sample layout the caller
    holds (data sets, sample blocks, raw arrays) and hands them to the
    engine-agnostic :class:`~repro.core.incremental.DistortionFold`, which
    owns the accumulation:

    1. ``observe_reference`` folds reference slabs into a tiny *sketch* —
       running sum/sum-of-squares for the standardisation frame, exact
       running min/max for the support bounds, and (for quantile-binning
       distances) one exact per-dimension
       :class:`~repro.stats.ecdf.EcdfSketch` for the edge order statistics;
    2. ``freeze_grid`` fixes the accumulation mode the distance asked for
       (:meth:`~repro.distance.base.Distance.stream_mode`): **histogram**
       distances (multivariate EMD, KL, JS — uniform *or* quantile edges)
       get a shared :class:`~repro.distance.histogram.HistogramGrid`;
       **ECDF** distances (KS, exact 1-D EMD) get per-attribute
       :class:`~repro.stats.ecdf.EcdfSketch` panels and need no grid;
    3. ``observe`` folds ``(reference_slab, candidate_slabs)`` pairs into
       the mergeable summaries — the single pass over the candidate data;
    4. ``finalize`` hands the accumulated summaries to the distance —
       one residual-transport solve batched across the panel for EMD,
       smoothed bin-mass divergences for KL/JS, sketch CDF gaps for KS.

    Count folding on a frozen grid and exact-mode sketch merging are both
    bitwise-exact (the property tests pin this down). What separates a
    streamed value from its pooled counterpart, per mode:

    * **histogram**: the frame is a streamed moment estimate (ulp-level
      accumulation error), and the grid spans the *reference* support only —
      the pooled path's grid spans the union of reference and candidates,
      so candidate mass outside the reference range clips into the boundary
      bins here. Quantile edges are placed by a bitwise replay of the
      pooled ``np.quantile`` edge arithmetic over the streamed reference
      (exact edge sketches by default; ``sketch_size`` trades exactness for
      bounded memory), so they carry no extra streaming error — only the
      same reference-support semantics. When candidates can move mass
      beyond the reference range (imputation past the observed maximum,
      say), pass ``support_margin`` to :meth:`freeze_grid` to buy headroom
      (uniform edges only — quantile edges follow the reference mass);
      within-support streams agree with the pooled path exactly up to the
      frame ulps — bitwise with ``standardize=False``.
    * **ecdf**: exact-mode sketches (``sketch_size=None``) reproduce the
      pooled statistic bitwise for scale-free distances (KS) and for
      unstandardised 1-D EMD; a standardising 1-D EMD divides by the
      streamed frame scale (ulp-level); setting ``sketch_size`` bounds
      memory at the sketch's documented rank-error tolerance. NaN handling
      is per attribute (rows are *not* complete-case filtered; each
      sketch drops its own column's non-finite values), matching the
      sketch distances' own pooled ``pairwise`` semantics.

    Parameters
    ----------
    n_candidates:
        Number of treated candidates scored against the reference.
    distance:
        Any streaming-capable :class:`~repro.distance.base.Distance` —
        one whose :meth:`~repro.distance.base.Distance.stream_mode` is not
        ``None``: the paper's EMD (default), quantile- or uniform-binning
        :class:`~repro.distance.kl.KLDivergence` /
        :class:`~repro.distance.kl.JensenShannonDistance`, or
        :class:`~repro.distance.ks.KolmogorovSmirnovDistance`.
    transform:
        Optional analysis-scale transform applied slab-wise (elementwise, so
        slab application matches whole-population application exactly).
    sketch_size:
        Sketch memory bound, for both ECDF-mode panels and quantile edge
        sketches: ``None`` (default) keeps exact sketches — O(distinct
        values) per attribute; an integer compacts each sketch to that many
        weighted order statistics.
    """

    def __init__(
        self,
        n_candidates: int,
        distance: Optional[Distance] = None,
        transform: Optional[ScaleTransform] = None,
        sketch_size: Optional[int] = None,
    ):
        from repro.core.incremental import DistortionFold

        self.transform = transform
        self._fold = DistortionFold(
            n_candidates, distance=distance, sketch_size=sketch_size
        )

    @property
    def distance(self) -> Distance:
        """The distance the fold accumulates for."""
        return self._fold.distance

    @property
    def n_candidates(self) -> int:
        """Number of treated candidates scored against the reference."""
        return self._fold.n_candidates

    @property
    def sketch_size(self) -> Optional[int]:
        """The sketch memory bound (``None`` = exact)."""
        return self._fold.sketch_size

    # -- pass 1: the reference sketch ------------------------------------------

    def _rows(self, sample, keep_partial: bool = False) -> np.ndarray:
        # ``keep_partial`` preserves NaN-bearing rows for ECDF mode: sketch
        # folding drops non-finite values per attribute, which replays the
        # sketch distances' own pooled per-column NaN semantics (a blanked
        # column must not erase the other attributes' marginals).
        if isinstance(sample, np.ndarray):
            # Raw pooled rows: apply the transform columnwise only if the
            # caller didn't — arrays are taken as already analysis-scale.
            rows = np.asarray(sample, dtype=float)
            if rows.ndim != 2:
                raise DistanceError(f"slab rows must be (N, d), got {rows.shape}")
            if keep_partial:
                return rows
            return rows[~np.isnan(rows).any(axis=1)]
        return _pooled_analysis(sample, self.transform, keep_partial=keep_partial)

    def observe_reference(self, sample: Sample) -> None:
        """Fold one reference slab into the frame/support sketch."""
        if self._fold.mode is not None:
            raise DistanceError("grid already frozen; no more reference slabs")
        self._fold.observe_reference(self._rows(sample))

    def freeze_grid(self, support_margin: float = 0.0) -> None:
        """Fix the accumulation mode from the reference sketch.

        Histogram mode freezes the shared grid; ``support_margin`` widens a
        *uniform* grid's standardised support symmetrically by the given
        fraction of its width — headroom for candidates whose mass moves
        outside the reference range (out-of-range rows otherwise clip into
        the boundary bins, the usual sketch trade). Quantile edges follow
        the reference mass instead and ignore the margin. ECDF mode needs
        no grid; a pure-ECDF distance (no binner, e.g. KS) may even skip
        the reference pre-pass entirely, and ``support_margin`` is
        irrelevant to it.
        """
        self._fold.freeze(support_margin=support_margin)

    @property
    def grid(self):
        """The frozen shared grid (``None`` before :meth:`freeze_grid`,
        and always ``None`` in ECDF mode)."""
        return self._fold.grid

    # -- pass 2: the one pass over candidate slabs ------------------------------

    def observe(self, reference_slab: Sample, candidate_slabs: Sequence[Sample]) -> None:
        """Fold one aligned slab of the reference and every candidate."""
        if self._fold.mode is None:
            self._fold.freeze()
        if len(candidate_slabs) != self.n_candidates:
            raise DistanceError(
                f"expected {self.n_candidates} candidate slabs, "
                f"got {len(candidate_slabs)}"
            )
        keep_partial = self._fold.mode != "histogram"
        self._fold.observe(
            self._rows(reference_slab, keep_partial=keep_partial),
            [self._rows(slab, keep_partial=keep_partial) for slab in candidate_slabs],
        )

    def finalize(self) -> list[float]:
        """Panel distortions from the accumulated summaries.

        Histogram mode hands the frozen-grid histograms to the distance in
        one batched call (for EMD: the residual transport problem solved
        once across the panel); ECDF mode hands the per-attribute sketch
        panels over, with the streamed frame scale for distances that
        standardise.
        """
        return self._fold.finalize()


def statistical_distortion_stream(
    reference_slabs: Iterable[Sample],
    paired_slabs: Iterable[tuple[Sample, Sequence[Sample]]],
    n_candidates: int,
    distance: Optional[Distance] = None,
    transform: Optional[ScaleTransform] = None,
    support_margin: float = 0.0,
    sketch_size: Optional[int] = None,
) -> list[float]:
    """Distortion of ``n_candidates`` treated streams against a reference
    stream, without pooling either side.

    ``reference_slabs`` drives the cheap frame/support sketch pre-pass;
    ``paired_slabs`` yields ``(reference_slab, [candidate_slab, ...])``
    tuples and is consumed exactly once — the single pass over the treated
    data. *distance* is any streaming-capable distance — EMD (default),
    KL/JS (quantile or uniform binning), or KS. ``support_margin`` is
    forwarded to :meth:`StreamingDistortion.freeze_grid` — headroom for
    candidate mass outside the reference support in uniform-grid histogram
    mode; ``sketch_size`` bounds sketch memory. See :class:`StreamingDistortion` for the
    accumulation contract and the per-mode tolerance against the pooled
    path.
    """
    stream = StreamingDistortion(
        n_candidates, distance=distance, transform=transform,
        sketch_size=sketch_size,
    )
    for slab in reference_slabs:
        stream.observe_reference(slab)
    stream.freeze_grid(support_margin=support_margin)
    for reference_slab, candidates in paired_slabs:
        stream.observe(reference_slab, candidates)
    return stream.finalize()
