"""Test-pair generation — the replications of Section 2.1.1.

"We generate pairs of dirty and clean data sets by sampling with replacement
from the dirty data set D and the ideal data set DI, to create the test pair
{Di, DiI}, i = 1..R. Each pair is called a replication, with B records in
each of the data sets in the test pair."

Each replication is drawn as a **columnar sample block**
(:class:`~repro.data.block.SampleBlock`): one C-level index gather into the
parent block instead of ``B`` per-series object selections, and — when work
units ship to process-pool workers — one array pickle instead of ``B``
``TimeSeries`` pickles. Ragged populations travel the same way, NaN-padded
with a per-series length vector. The per-series ``dirty`` / ``ideal`` data
sets are materialised lazily as zero-copy views of each series' valid rows.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.errors import ValidationError
from repro.sampling.simple import sample_indices
from repro.utils.rng import Seed, spawn_generators
from repro.utils.validation import check_positive_int

__all__ = [
    "TestPair",
    "generate_test_pairs",
    "replication_index_streams",
    "ParentGather",
]


class TestPair:
    """One replication: a dirty sample ``Di`` and an ideal sample ``DiI``.

    Both sides are :class:`SampleBlock` s; ``dirty``/``ideal`` materialise
    zero-copy per-series views on first access, and pickling ships only
    the blocks, so process workers receive one contiguous array per side.
    """

    __slots__ = ("index", "dirty_block", "ideal_block", "_dirty", "_ideal")

    def __init__(self, index: int, dirty_block: SampleBlock, ideal_block: SampleBlock):
        self.index = int(index)
        self.dirty_block = dirty_block
        self.ideal_block = ideal_block
        self._dirty: Optional[StreamDataset] = None
        self._ideal: Optional[StreamDataset] = None

    @property
    def dirty(self) -> StreamDataset:
        """The dirty sample ``Di`` as series views of the block."""
        if self._dirty is None:
            self._dirty = StreamDataset.from_block(self.dirty_block)
        return self._dirty

    @property
    def ideal(self) -> StreamDataset:
        """The ideal sample ``DiI`` as series views of the block."""
        if self._ideal is None:
            self._ideal = StreamDataset.from_block(self.ideal_block)
        return self._ideal

    def __getstate__(self):
        return (self.index, self.dirty_block, self.ideal_block)

    def __setstate__(self, state) -> None:
        self.index, self.dirty_block, self.ideal_block = state
        self._dirty = self._ideal = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TestPair(index={self.index}, B={self.dirty_block.n_series})"


def replication_index_streams(
    n_dirty: int,
    n_ideal: int,
    n_pairs: int,
    sample_size: int,
    seed: Seed = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the ``(dirty_indices, ideal_indices)`` draws of every replication.

    This is the *entire* randomness of replication sampling, factored out so
    every consumer draws it identically: :func:`generate_test_pairs` feeds
    the indices to whole-population parents, while the streaming slab engine
    uses the same draws to decide which few series to gather at all — the
    two paths select bitwise-identical samples by construction. Each
    replication consumes its own spawned stream (dirty draw first, then
    ideal), so replication ``i`` is a function of ``(seed, i)`` alone.
    """
    n_pairs = check_positive_int(n_pairs, "n_pairs")
    sample_size = check_positive_int(sample_size, "sample_size")
    for rng in spawn_generators(seed, n_pairs):
        d_idx = sample_indices(n_dirty, sample_size, rng)
        i_idx = sample_indices(n_ideal, sample_size, rng)
        yield d_idx, i_idx


class ParentGather:
    """A bounded stand-in for one side's parent population.

    The in-memory path materialises the *whole* population as one parent
    block and replications gather into it. At out-of-core scale the
    streaming engine instead gathers only the few series any replication
    actually touches — at most ``R x B`` distinct of them, independent of
    the population size — and this class replays the parent-block semantics
    on that bounded subset: ``sample(idx)`` returns exactly the values,
    lengths and series-index vector the full parent would have produced for
    the same index draw. The gathered block is padded to the longest
    *gathered* series; outcomes never depend on the pad width.

    Parameters
    ----------
    n_total:
        Size of the (un-materialised) parent population this gather stands
        in for; indices are validated against it.
    entries:
        ``parent index -> TimeSeries`` for every gathered series.
    """

    def __init__(self, n_total: int, entries: Mapping[int, TimeSeries]):
        self.n_total = check_positive_int(n_total, "n_total")
        self._entries = dict(entries)
        for idx in self._entries:
            if not 0 <= idx < self.n_total:
                raise ValidationError(
                    f"gathered index {idx} out of range for {self.n_total} series"
                )
        order = sorted(self._entries)
        self._rows = {idx: row for row, idx in enumerate(order)}
        self._block: Optional[SampleBlock] = None
        if order:
            self._block = StreamDataset(self._entries[i] for i in order).to_block()
            self._block.indices = np.array(order, dtype=np.intp)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def gathered_indices(self) -> list[int]:
        """Parent indices present in the gather, ascending."""
        return sorted(self._entries)

    def sample(self, indices: Sequence[int]) -> SampleBlock:
        """The sample block the full parent would yield for *indices*."""
        idx = np.asarray(indices, dtype=np.intp)
        missing = [int(i) for i in idx if int(i) not in self._entries]
        if missing:
            raise ValidationError(
                f"indices {missing[:5]} were not gathered; the gather only "
                f"holds {len(self._entries)} of {self.n_total} series"
            )
        return self._block.take([self._rows[int(i)] for i in idx])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParentGather(n_total={self.n_total}, gathered={len(self)})"


def generate_test_pairs(
    dirty: StreamDataset,
    ideal: StreamDataset,
    n_pairs: int,
    sample_size: int,
    seed: Seed = None,
) -> Iterator[TestPair]:
    """Yield ``n_pairs`` replications of ``sample_size`` series each.

    Each replication draws from its own spawned random stream, so replication
    ``i`` is identical no matter how many replications are consumed — the
    property that makes sweeps over R reproducible. The paper notes "any
    value of R more than 30 is sufficient" and uses R = 50.

    Both populations are converted to parent blocks once (NaN-padded when
    ragged), and every replication is then an index gather
    (``SampleBlock.take``) into them; the index streams come from
    :func:`replication_index_streams`, shared with the streaming slab
    engine, so both select the same series.
    """
    n_pairs = check_positive_int(n_pairs, "n_pairs")
    sample_size = check_positive_int(sample_size, "sample_size")
    dirty_block = dirty.to_block()
    ideal_block = ideal.to_block()
    draws = replication_index_streams(
        len(dirty), len(ideal), n_pairs, sample_size, seed=seed
    )
    for i, (d_idx, i_idx) in enumerate(draws):
        yield TestPair(
            index=i,
            dirty_block=dirty_block.take(d_idx),
            ideal_block=ideal_block.take(i_idx),
        )
