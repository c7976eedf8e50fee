"""Columnar sample blocks — the one sample layout of the evaluation layer.

A replication sample is ``B`` whole series drawn with replacement from one
population (Section 2.1.1), and the experiment evaluates R x B x
|strategies| of them. :class:`SampleBlock` stores such a sample as **one**
``(n_series, T, v)`` float tensor plus shared attribute metadata, a
series-index vector and a per-series length vector, so cleaning, annotation
and scoring run as whole-block array programs (cf. the columnar
scan-sharing lessons the database literature draws for exactly this
repeated-small-matrix workload).

Series lengths differ when node uptime does (``T_ijk`` in the paper), so a
ragged sample is NaN-padded to the block width ``T`` and ``lengths[i]``
records how many leading rows of series ``i`` are real. Padding is never
data: every consumer masks with :attr:`SampleBlock.valid` (treatable
cells, glitch bits), pools only valid rows (:meth:`SampleBlock.pool_rows`,
series-major and time-minor), and slices per-series arithmetic to
``[:lengths[i]]``, so no outcome depends on the pad width.

``StreamDataset.to_block()`` / ``StreamDataset.from_block()`` round-trip
losslessly, and ``from_block`` hands out zero-copy ``TimeSeries`` views of
each series' valid rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.data.topology import NodeId
from repro.errors import DataShapeError, ValidationError

__all__ = ["SampleBlock"]


class SampleBlock:
    """A sample as one contiguous ``(n, T, v)`` tensor, padded where ragged.

    Parameters
    ----------
    values:
        ``(n_series, T, v)`` float array; NaN marks missing entries (and the
        padding past each series' length).
    attributes:
        Names of the ``v`` attributes, shared by every series.
    nodes:
        The :class:`~repro.data.topology.NodeId` of each series, in order.
    truth:
        Optional ``(n_series, T, v)`` pre-glitch ground truth (present only
        when every member series carries one).
    indices:
        ``(n_series,)`` series-index vector: which parent-population series
        each row was drawn from (repeats allowed — sampling is with
        replacement). Defaults to ``arange(n_series)``.
    lengths:
        ``(n_series,)`` number of real time steps of each series, each in
        ``[0, T]``. Defaults to ``T`` for every series (no padding).
    """

    __slots__ = ("values", "attributes", "nodes", "truth", "indices", "lengths")

    def __init__(
        self,
        values: np.ndarray,
        attributes: Sequence[str],
        nodes: Sequence[NodeId],
        truth: Optional[np.ndarray] = None,
        indices: Optional[np.ndarray] = None,
        lengths: Optional[np.ndarray] = None,
    ):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3:
            raise DataShapeError(
                f"values must be (n, T, v), got shape {values.shape}"
            )
        n, width = values.shape[:2]
        attributes = tuple(attributes)
        if len(attributes) != values.shape[2]:
            raise DataShapeError(
                f"got {len(attributes)} attribute names for {values.shape[2]} columns"
            )
        nodes = tuple(nodes)
        if len(nodes) != n:
            raise DataShapeError(f"got {len(nodes)} nodes for {n} series")
        if truth is not None:
            truth = np.asarray(truth, dtype=float)
            if truth.shape != values.shape:
                raise DataShapeError(
                    f"truth shape {truth.shape} does not match values shape {values.shape}"
                )
        if indices is None:
            indices = np.arange(n, dtype=np.intp)
        else:
            indices = np.asarray(indices, dtype=np.intp)
            if indices.shape != (n,):
                raise DataShapeError(f"indices must be ({n},), got {indices.shape}")
        if lengths is None:
            lengths = np.full(n, width, dtype=np.intp)
        else:
            lengths = np.asarray(lengths, dtype=np.intp)
            if lengths.shape != (n,):
                raise DataShapeError(f"lengths must be ({n},), got {lengths.shape}")
            if n and (int(lengths.min()) < 0 or int(lengths.max()) > width):
                raise DataShapeError(f"lengths must lie in [0, {width}]")
        self.values = values
        self.attributes = attributes
        self.nodes = nodes
        self.truth = truth
        self.indices = indices
        self.lengths = lengths

    # -- shape -----------------------------------------------------------------

    @property
    def n_series(self) -> int:
        """Number of member series ``n`` (``B`` for a replication sample)."""
        return int(self.values.shape[0])

    @property
    def length(self) -> int:
        """Block width ``T``: the longest series length the tensor holds."""
        return int(self.values.shape[1])

    @property
    def n_attributes(self) -> int:
        """Number of attributes ``v``."""
        return int(self.values.shape[2])

    def __len__(self) -> int:
        return self.n_series

    def attribute_index(self, name: str) -> int:
        """Column index of attribute *name* (raises ``KeyError`` if absent)."""
        try:
            return self.attributes.index(name)
        except ValueError:
            raise KeyError(
                f"unknown attribute {name!r}; have {self.attributes}"
            ) from None

    # -- masks -----------------------------------------------------------------

    @property
    def padded(self) -> bool:
        """Whether any series is shorter than the block width."""
        return bool((self.lengths < self.length).any())

    @property
    def valid(self) -> np.ndarray:
        """Boolean ``(n, T)`` mask of real (non-padding) time steps."""
        return np.arange(self.length) < self.lengths[:, None]

    @property
    def missing_mask(self) -> np.ndarray:
        """Boolean ``(n, T, v)`` mask of not-populated cells (never padding)."""
        return np.isnan(self.values) & self.valid[..., None]

    # -- pooling ---------------------------------------------------------------

    def pool_rows(self, array: np.ndarray) -> np.ndarray:
        """The valid rows of an ``(n, T, ...)`` array aligned with this block.

        Series-major, time-minor — the order ``StreamDataset.pooled`` stacks
        series in — with padding rows left out. A view when nothing is
        padded.
        """
        if self.padded:
            return array[self.valid]
        return array.reshape((-1,) + array.shape[2:])

    def unpool_rows(self, rows: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pool_rows`: scatter rows back, NaN in the padding."""
        shape = self.values.shape[:2] + rows.shape[1:]
        if not self.padded:
            return rows.reshape(shape)
        out = np.full(shape, np.nan)
        out[self.valid] = rows
        return out

    def pooled(self, dropna: str = "none") -> np.ndarray:
        """Stack every real time instant of every series into an ``(N, v)`` array.

        Row order matches ``StreamDataset.pooled`` exactly (series-major,
        time-minor) and padding rows are never returned, whatever *dropna*
        says, so distances computed from block columns equal those of the
        per-series pooling.
        """
        if dropna not in ("none", "any", "all"):
            raise ValidationError(f"dropna must be none/any/all, got {dropna!r}")
        stacked = self.pool_rows(self.values)
        if dropna == "any":
            return stacked[~np.isnan(stacked).any(axis=1)]
        if dropna == "all":
            return stacked[~np.isnan(stacked).all(axis=1)]
        return stacked

    # -- derivation ------------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "SampleBlock":
        """A new block of the series at *indices* (repeats allowed).

        This is the block analogue of ``StreamDataset.subset``: one C-level
        gather into a fresh contiguous tensor instead of per-series object
        work — the shape replication sampling uses to draw ``Di`` from ``D``.
        The block width is kept; lengths travel with their series.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValidationError("take needs at least one index")
        n = self.n_series
        if int(idx.min()) < -n or int(idx.max()) >= n:
            raise ValidationError(f"index out of range for {n} series")
        return SampleBlock(
            values=self.values[idx],
            attributes=self.attributes,
            nodes=tuple(self.nodes[int(i)] for i in idx),
            truth=None if self.truth is None else self.truth[idx],
            indices=self.indices[idx],
            lengths=self.lengths[idx],
        )

    def copy(self) -> "SampleBlock":
        """Deep copy of the value tensor (truth/metadata shared: never mutated)."""
        return self.with_values(self.values.copy())

    def with_values(self, values: np.ndarray) -> "SampleBlock":
        """A new block with replaced values and shared metadata."""
        return SampleBlock(
            values=values,
            attributes=self.attributes,
            nodes=self.nodes,
            truth=self.truth,
            indices=self.indices,
            lengths=self.lengths,
        )

    # -- pickling (``__slots__`` has no instance dict) ---------------------------

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampleBlock(n={self.n_series}, T={self.length}, "
            f"v={self.n_attributes}, padded={'yes' if self.padded else 'no'}, "
            f"truth={'yes' if self.truth is not None else 'no'})"
        )
