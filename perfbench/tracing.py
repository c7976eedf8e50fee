"""Span tracing of the library's layers, applied from outside the program.

The benchmark's traced run wraps the public functions and methods listed in
:data:`LAYERS` at their call sites: the wrapper replaces the attribute on
its class, or every ``repro.*`` module attribute bound to the original
function (``from x import f`` copies the binding). Each call records a span
``(name, start, end, parent)`` in memory; counters are kept beside them.

A layer's **self time** is the time of its spans minus the part covered by
child spans. Work units run by an executor map are transparent: the map's
own share (map span minus the unit spans visible in this process) is
``core.executor.dispatch``, and the units' time goes to the layer that
called the map. Worker processes are out of reach, so on a process backend
the whole of a map's remote work shows up as dispatch.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

ROOT = "bench.op"
MAP = "core.executor.map"
UNIT = "core.executor.unit"
DISPATCH = "core.executor.dispatch"

#: The tracer collecting spans in this process, or ``None``.
_ACTIVE = None


def active() -> bool:
    """Whether a traced pass is running in this process."""
    return _ACTIVE is not None


def rebind(original, replacement) -> list:
    """Point every ``repro.*`` module attribute bound to *original* at
    *replacement*; returns the ``(module, name)`` pairs changed."""
    changed = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                changed.append((mod, key))
    return changed


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def on(self) -> bool:
        """Spans are kept only for the thread and process that installed
        the tracer (forked pool workers inherit the wrappers, not the
        recording)."""
        return (
            _ACTIVE is self
            and os.getpid() == self._pid
            and threading.get_ident() == self._thread
        )

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, args, kwargs):
        if not self.on():
            return fn(*args, **kwargs)
        index = self.open(name if isinstance(name, str) else name(args))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """*fn* recording one span per call (one per ``next`` for a generator
        function); ``after(args, result)`` then updates counters."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.span(name, next, (it,), {})
                    except StopIteration:
                        return
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, args, kwargs)
            if after is not None and tracer.on():
                after(args, result)
            return result

        return traced

    def patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, after))
        self._undo.append((cls, attr, original))

    def patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        for mod, key in rebind(original, self.wrap(name, original, after)):
            self._undo.append((mod, key, original))

    def patch_map(self, cls):
        """Executor ``map``: one span per map, one transparent span per
        unit run in this process, and a count of the units mapped."""
        original = cls.__dict__["map"]
        tracer = self

        def counted(items):
            for item in items:
                tracer.counts["core.executor.units"] += 1
                yield item

        @functools.wraps(original)
        def traced_map(backend, fn, items):
            if not tracer.on():
                return original(backend, fn, items)
            return tracer.span(
                MAP, original, (backend, TracedUnit(fn), counted(items)), {}
            )

        setattr(cls, "map", traced_map)
        self._undo.append((cls, "map", original))

    def install(self) -> "Tracer":
        global _ACTIVE
        _ACTIVE = self
        for module_name, target, name, after in LAYERS:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            owner, _, attr = target.rpartition(".")
            if owner:
                self.patch_method(getattr(module, owner), attr, name, after)
            else:
                self.patch_function(module, attr, name, after)
        from repro.core import executor

        for cls in (executor.SerialBackend, executor.ProcessBackend):
            self.patch_map(cls)
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        _ACTIVE = None

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per layer name; they sum to the root span."""
        spans = self.spans
        exclusive = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                exclusive[parent] -= end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            if name == MAP:
                out[DISPATCH] += exclusive[i]
                continue
            owner = i
            while spans[owner][0] in (UNIT, MAP) and spans[owner][3] >= 0:
                owner = spans[owner][3]
            out[spans[owner][0] if spans[owner][0] != UNIT else ROOT] += exclusive[i]
        return dict(out)

    def map_seconds(self) -> float:
        """Inclusive time of the outermost executor maps."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name == MAP and not self._inside(parent, MAP):
                total += end - start
        return total

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


class TracedUnit:
    """A work-unit function recording a transparent span when it runs in
    the tracing process; picklable, so process pools accept it."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        tracer = _ACTIVE
        if tracer is None:
            return self.fn(item)
        return tracer.span(UNIT, self.fn, (item,), {})


def _count(name):
    def after(args, result):
        _ACTIVE.counts[name] += 1

    return after


def _catalog_get(args, result):
    _ACTIVE.counts["store.catalog.gets"] += 1
    _ACTIVE.counts["store.catalog.hits"] += result is not None


def _fold(args, result):
    _ACTIVE.counts["core.incremental.folds"] += 1
    _ACTIVE.counts["core.incremental.accepted"] += bool(result.accepted)


def _strategy_name(args):
    return f"cleaning.{args[0].name}.clean"


#: ``(module, function or Class.method, layer name, counter hook)``.
LAYERS = [
    ("repro.data.generator", "NetworkDataGenerator.generate",
     "data.generator.generate", None),
    ("repro.data.glitch_injection", "GlitchInjector.inject",
     "data.glitch_injection.inject", None),
    ("repro.glitches.detectors", "identify_ideal",
     "glitches.detectors.identify_ideal", None),
    ("repro.glitches.detectors", "DetectorSuite.annotate",
     "glitches.detectors.annotate", _count("glitches.detectors.annotate_calls")),
    ("repro.glitches.detectors", "DetectorSuite.annotate_block",
     "glitches.detectors.annotate", _count("glitches.detectors.annotate_calls")),
    ("repro.cleaning.base", "CompositeStrategy.clean", _strategy_name, None),
    ("repro.cleaning.base", "CompositeStrategy.clean_block", _strategy_name, None),
    ("repro.core.glitch_index", "series_glitch_scores", "core.glitch_index.score", None),
    ("repro.core.glitch_index", "series_glitch_scores_block",
     "core.glitch_index.score", None),
    ("repro.core.glitch_index", "glitch_index", "core.glitch_index.score", None),
    ("repro.sampling.replication", "generate_test_pairs",
     "sampling.replication.pairs", None),
    ("repro.sampling.replication", "ParentGather.sample",
     "sampling.replication.pairs", None),
    ("repro.core.incremental", "iter_test_pairs", "sampling.replication.pairs", None),
    ("repro.core.distortion", "statistical_distortion_batch",
     "core.distortion.batch", None),
    ("repro.distance.transport", "solve_transport", "distance.transport.solve",
     _count("distance.transport.lp_solves")),
    ("repro.distance.transport", "solve_transport_batch", "distance.transport.solve",
     _count("distance.transport.lp_solves")),
    ("repro.distance.transport", "transport_cost_1d", "distance.transport.solve", None),
    ("repro.experiments.config", "PopulationBundle.content_key",
     "experiments.config.content_key", _count("experiments.config.content_key_calls")),
    ("repro.store.catalog", "Catalog.get_outcome", "store.catalog.get", _catalog_get),
    ("repro.store.catalog", "Catalog.put_outcome", "store.catalog.put", None),
    ("repro.experiments.sweep", "plan_sweep", "experiments.sweep.plan", None),
    ("repro.core.incremental", "IncrementalScorer.fold", "core.incremental.fold", _fold),
    ("repro.core.incremental", "identify_fixed_point",
     "core.incremental.identify_fixed_point", None),
    ("repro.service.session", "MonitoringSession.identify",
     "service.session.identify", None),
]
