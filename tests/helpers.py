"""Importable test helpers.

These live outside ``conftest.py`` on purpose: test modules import them by
name (``from helpers import make_series``), and ``conftest`` is not a safe
import target — with both ``tests/`` and ``benchmarks/`` on ``sys.path``
during a whole-repo pytest run, the module name ``conftest`` is ambiguous
and resolves to whichever directory was collected first.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId

__all__ = ["make_series", "make_dataset", "apply_treatment"]


def make_series(values, node=NodeId(0, 0, 0), truth=None) -> TimeSeries:
    """Build a TimeSeries from a plain nested list."""
    return TimeSeries(node, np.asarray(values, dtype=float), truth=truth)


def make_dataset(*value_blocks) -> StreamDataset:
    """Build a StreamDataset of series from nested lists."""
    return StreamDataset(
        make_series(block, NodeId(0, 0, k)) for k, block in enumerate(value_blocks)
    )


def apply_treatment(treatment, dataset: StreamDataset, context) -> StreamDataset:
    """Run a block-level treatment on a data set, handed back as series."""
    return StreamDataset.from_block(treatment.apply_block(dataset.to_block(), context))
