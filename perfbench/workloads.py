"""The benchmark's workloads, one per fresh process (started by ``run.py``).

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --scratch DIR --spawned-at MONOTONIC [--setup-only]

Prints one JSON object: the set-up time (process start to inputs ready),
the timed stages, the output checks, and with ``--trace 1`` the per-layer
self times of a traced pass. Every input is generated from ``--seed``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import tracing

#: Open-loop ladder of the service workload, in windows per second.
LADDER = (10_000, 20_000, 30_000, 40_000)
#: The ladder rate at which ingest latency is reported.
REFERENCE_RATE = 10_000
#: p99 latency limit (seconds) a ladder rate must meet to count as sustained.
LATENCY_LIMIT = 1e-3

_degraded = [0]


def _count_degradations():
    """Count every backend ladder step in this process (clean runs: none)."""
    from repro.core import resilience

    original = resilience.record_degradation

    def counted(event):
        _degraded[0] += 1
        return original(event)

    tracing.rebind(original, counted)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        elif isinstance(part, (list, tuple)):
            h.update(_digest(*part).encode())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def bundle_digest(bundle) -> str:
    fp = bundle.fingerprint()
    return _digest(*[(name, fp[name]) for name in sorted(fp)])


def outcome_digest(result) -> str:
    return _digest(*[
        (o.strategy, o.replication, o.improvement, o.distortion,
         o.glitch_index_dirty, o.glitch_index_treated, o.cost_fraction,
         sorted((g.name, v) for g, v in o.dirty_fractions.items()),
         sorted((g.name, v) for g, v in o.treated_fractions.items()))
        for o in result.outcomes
    ])


def _rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


class Workload:
    """One workload: ``setup`` makes the inputs, ``op`` is the timed
    operation returning ``(stage seconds, outputs)``, ``digest`` reduces
    outputs to what must repeat, ``verify`` checks them untimed."""

    stage_names = ("stage1_s", "stage2_s")
    #: Small populations differ in work by up to ~40% from seed to seed, so
    #: a run cycles its repeats through several drawn from its seed.
    populations = 1

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.checks: list[tuple[str, bool]] = []
        self.attempted = 0
        self.repeats = 0
        self.case = 0
        #: Seconds of the last repeat spent waiting on a fixed schedule,
        #: left out of ``wall_s``.
        self.paced_s = 0.0

    def case_seeds(self) -> list[int]:
        if self.populations == 1:
            return [self.seed]
        state = np.random.SeedSequence(self.seed).generate_state(self.populations)
        return [int(s) for s in state]

    def next_case(self):
        if not tracing.active():  # a traced pass re-runs the untraced input
            self.case = self.repeats % len(self.cases)
            self.repeats += 1
        return self.cases[self.case]

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def verify(self, digests, last) -> None:
        """Repeats on the same input must give the same outputs."""
        first = {}
        for case, digest in digests:
            first.setdefault(case, digest)
        self.check("repeats agree", all(first[case] == d for case, d in digests))

    def extra(self) -> dict:
        return {}


class Figure6(Workload):
    """``build_population``, then ``run_figure6`` panel (a) on the bundle.

    At the paper preset one repeat takes ~20 s (two Figure 6 runs, whose
    median is ``fig6_s``); at the small preset ~0.9 s, cycled through
    several seed-drawn populations."""

    stage_names = ("build_s", "fig6_s")

    def __init__(self, seed, scratch, scale="paper", backend="serial"):
        super().__init__(seed, scratch)
        self.scale = scale
        self.backend = backend
        self.figures = 2 if scale == "paper" else 1
        self.populations = 1 if scale == "paper" else 10

    def setup(self):
        from repro.experiments.config import build_population, experiment_config
        from repro.experiments.paper import run_figure6

        self.build_population = build_population
        self.run_figure6 = run_figure6
        self.cases = [
            (seed, experiment_config(self.scale, seed=seed, backend=self.backend))
            for seed in self.case_seeds()
        ]

    def op(self, backend=None, figures=None):
        backend = backend or self.backend
        seed, config = self.next_case()
        t0 = time.perf_counter()
        bundle = self.build_population(self.scale, seed=seed, backend=backend)
        build_s = time.perf_counter() - t0
        results, fig6_s = [], []
        for _ in range(figures or self.figures):
            t1 = time.perf_counter()
            results.append(self.run_figure6(bundle, config, backend=backend))
            fig6_s.append(time.perf_counter() - t1)
        self.attempted += 1 + len(results)
        return (build_s, statistics.median(fig6_s)), {"bundle": bundle, "results": results}

    def digest(self, out):
        results = out["results"]
        self.check("figure 6 ran without degradation", all(r.n_degraded == 0 for r in results))
        outcomes = {outcome_digest(r) for r in results}
        self.check("figure 6 repeats are identical", len(outcomes) == 1)
        return bundle_digest(out["bundle"]), outcomes.pop()

    def verify(self, digests, last):
        last.clear()
        super().verify(digests, last)
        if self.backend == "serial":
            return
        attempted, repeats = self.attempted, self.repeats
        self.repeats = 0
        _, out = self.op(backend="serial", figures=1)
        self.attempted, self.repeats = attempted, repeats
        bundle, outcomes = digests[0][1]
        self.check("process:2 bundle equals serial", bundle == bundle_digest(out["bundle"]))
        self.check("process:2 outcomes equal serial",
                   outcomes == outcome_digest(out["results"][0]))


class SmallTable1(Workload):
    """Small preset Table 1, cold against a fresh catalog, then warm."""

    stage_names = ("table1_cold_s", "table1_warm_s")
    populations = 3
    LABELS = 3

    def setup(self):
        from repro.experiments.config import build_population, experiment_config
        from repro.experiments.paper import run_table1
        from repro.store.catalog import Catalog

        self.run_table1 = run_table1
        self.Catalog = Catalog
        self.cases = [
            (build_population("small", seed=seed, backend="serial"),
             experiment_config("small", seed=seed, backend="serial"))
            for seed in self.case_seeds()
        ]
        self.payload_bytes = []
        self.recomputed = []

    def op(self):
        bundle, base = self.next_case()
        path = os.path.join(self.scratch, f"catalog-{self.repeats}.db")
        catalog = self.Catalog(path)
        try:
            t0 = time.perf_counter()
            cold = self.run_table1(bundle, base_config=base, catalog=catalog, backend="serial")
            t1 = time.perf_counter()
            warm = self.run_table1(bundle, base_config=base, catalog=catalog, backend="serial")
            t2 = time.perf_counter()
            self.payload_bytes.append(catalog.stats()["payload_bytes"])
        finally:
            catalog.close()
            for leftover in glob.glob(path + "*"):
                os.remove(leftover)
        self.attempted += 2 * len(cold)
        return (t1 - t0, t2 - t1), {"cold": cold, "warm": warm}

    def digest(self, out):
        cold, warm = out["cold"], out["warm"]
        self.recomputed.append(cold.n_recomputed + warm.n_recomputed)
        digest = {label: outcome_digest(cold[label]) for label in cold}
        self.check("warm equals cold bit for bit",
                   {label: outcome_digest(warm[label]) for label in warm} == digest)
        self.check("cold recomputes every cell", cold.n_recomputed == self.LABELS)
        self.check("warm serves 3 hits, 0 recomputes",
                   (warm.n_hits, warm.n_recomputed) == (self.LABELS, 0))
        self.check("no failed or degraded cells",
                   cold.n_failed + warm.n_failed + cold.n_degraded + warm.n_degraded == 0)
        self.check("table 1 shape", self._shape_ok(cold))
        return digest

    @staticmethod
    def _shape_ok(table) -> bool:
        """S4/S5 zero out the families they treat; Winsorising strategies
        (S1, S3, S5) end at zero outliers."""
        from repro.glitches.types import GlitchType as G

        zero = {
            "strategy1": (G.OUTLIER,),
            "strategy3": (G.OUTLIER,),
            "strategy4": (G.MISSING, G.INCONSISTENT),
            "strategy5": (G.MISSING, G.INCONSISTENT, G.OUTLIER),
        }
        return all(
            o.treated_fractions.get(g, 0.0) == 0.0
            for result in table.values()
            for o in result.outcomes
            for g in zero.get(o.strategy, ())
        )

    def extra(self):
        return {
            "store.catalog.payload_bytes": float(statistics.median(self.payload_bytes)),
            "experiments.sweep.recomputed": float(statistics.median(self.recomputed)),
        }


class OpenLoop:
    """Single-threaded open-loop generator: window ``i`` is due at
    ``start + i / rate``; each delivery's due time, send time, fold start
    and fold end are stamped."""

    def __init__(self, plan, rate):
        n = len(plan)
        self.plan, self.rate = plan, rate
        self.due, self.sent = np.zeros(n), np.zeros(n)
        self.began, self.done = np.zeros(n), np.zeros(n)
        self.folded = 0

    async def feed(self):
        start = time.perf_counter() + 1e-3
        for i, window in enumerate(self.plan):
            due = start + i / self.rate
            now = time.perf_counter()
            while now < due:
                # The loop's timer resolution is ~1 ms: sleep coarse, then
                # yield-spin so sub-millisecond due times are honoured.
                await asyncio.sleep(due - now - 1e-3 if due - now > 2e-3 else 0)
                now = time.perf_counter()
            self.due[i], self.sent[i] = due, now
            yield window

    def timed(self, ingest):
        def stamped(window):
            i = self.folded
            self.began[i] = time.perf_counter()
            delta = ingest(window)
            self.done[i] = time.perf_counter()
            self.folded += 1
            return delta

        return stamped


class ServicePush(Workload):
    """Small-preset windows pushed through ``IngestionService``: three
    closed-loop passes (``ingest_s`` is the fastest; one pass is too short
    to ride out the host's load alone), the open-loop ladder, then
    ``finalize`` on the last closed-loop session."""

    stage_names = ("ingest_s", "finalize_s")
    populations = 3

    def setup(self):
        from repro.cleaning.registry import strategy_by_name
        from repro.data.slab import SlabFeed
        from repro.experiments.config import SCALES, experiment_config
        from repro.service import IngestionService, MonitoringSession, arrival_schedule

        self.IngestionService = IngestionService
        self.MonitoringSession = MonitoringSession
        self.cases = []
        for seed in self.case_seeds():
            feed = SlabFeed(
                SCALES["small"].generator, None, seed=seed,
                spill_dir=os.path.join(self.scratch, f"spill-{seed}"),
            )
            try:
                windows = list(feed.iter_stream_windows(width=16))
            finally:
                feed.cleanup()
            plan = arrival_schedule(windows, seed=seed, reorder=1.0, duplicate=0.3, burst=3)
            config = experiment_config("small", seed=seed, backend="serial")
            self.cases.append((seed, plan, len(plan) - len(windows), config))
        self.strategies = [strategy_by_name("strategy1"), strategy_by_name("strategy4")]
        self.ladder = {rate: [] for rate in LADDER}

    def _serve(self, session, feed, plan, planted):
        service = self.IngestionService(session)
        asyncio.run(service.run([feed]))
        refused = session.scorer.n_duplicates
        self.check("refused duplicates equal planted duplicates", refused == planted)
        self.attempted += len(plan)

    def op(self):
        _, plan, planted, config = self.next_case()

        async def closed_loop():
            for window in plan:
                yield window

        ingest_s = []
        for _ in range(3):
            session = self.MonitoringSession(config=config)
            t0 = time.perf_counter()
            self._serve(session, closed_loop(), plan, planted)
            ingest_s.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        for rate in LADDER:
            rung = self.MonitoringSession(config=config)
            loop = OpenLoop(plan, rate)
            rung.ingest = loop.timed(rung.ingest)
            self._serve(rung, loop.feed(), plan, planted)
            self.check(f"every delivery folded at {rate}/s", loop.folded == len(plan))
            if not tracing.active():  # latency figures come from untraced passes
                self.ladder[rate].append(loop)
        t2 = time.perf_counter()
        result = session.finalize(self.strategies)
        t3 = time.perf_counter()
        self.attempted += 1
        self.paced_s = t2 - t1
        return (min(ingest_s), t3 - t2), {"result": result}

    def digest(self, out):
        return outcome_digest(out["result"])

    def verify(self, digests, last):
        from repro.core.streaming import StreamingExperiment

        super().verify(digests, last)
        for case, digest in dict(digests).items():
            seed, _, _, config = self.cases[case]
            batch = StreamingExperiment.from_scale(
                "small", seed=seed, config=config,
                spill_dir=os.path.join(self.scratch, f"spill-batch-{seed}"),
            ).run(self.strategies)
            self.check("finalize equals StreamingExperiment",
                       outcome_digest(batch.result) == digest)

    def rate_stats(self, rate) -> dict:
        loops = self.ladder[rate]
        latency = np.concatenate([lp.done - lp.due for lp in loops])
        lag = np.concatenate([lp.sent - lp.due for lp in loops])
        wait = np.concatenate([lp.began - lp.sent for lp in loops])
        tail = max(float(np.median((lp.done - lp.due)[-len(lp.plan) // 20:])) for lp in loops)
        return {
            "p50": float(np.quantile(latency, 0.5)),
            "p99": float(np.quantile(latency, 0.99)),
            "lag_p99": float(np.quantile(lag, 0.99)),
            "wait_p50": float(np.quantile(wait, 0.5)),
            "backlog": tail,
        }

    def extra(self):
        stats = {rate: self.rate_stats(rate) for rate in LADDER}
        sustained = [
            rate for rate, s in stats.items()
            if s["p99"] < LATENCY_LIMIT and s["backlog"] < LATENCY_LIMIT
        ]
        ref = stats[REFERENCE_RATE]
        return {
            "service.session.ingest_p50_us": ref["p50"] * 1e6,
            "service.session.ingest_p99_us": ref["p99"] * 1e6,
            "service.session.ingest_max_rate": float(max(sustained, default=0)),
            "service.session.queue_wait_us": stats[LADDER[-1]]["wait_p50"] * 1e6,
            "bench.loadgen_lag_p99_us": ref["lag_p99"] * 1e6,
            "ladder": {
                str(rate): {k: round(v * 1e6, 1) for k, v in s.items()} for rate, s in stats.items()
            },
            "loadgen_late": ref["lag_p99"] > LATENCY_LIMIT,
        }


WORKLOADS = {
    "small-fig6": lambda seed, scratch: Figure6(seed, scratch, "small"),
    "paper-fig6": lambda seed, scratch: Figure6(seed, scratch, "paper"),
    "paper-fig6-process2": lambda seed, scratch: Figure6(seed, scratch, "paper", "process:2"),
    "small-table1": SmallTable1,
    "service-push": ServicePush,
}


def _timed(wl, tracer=None):
    if tracer is not None:
        tracer.install()
        root = tracer.open(tracing.ROOT)
    t0 = time.perf_counter()
    try:
        stages, out = wl.op()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    return wall, stages, out


def best_of(samples) -> float:
    """Each case's fastest repeat, averaged over the cases (so every
    input weighs the same): load from other tenants of the host can only
    slow a repeat, never speed it up."""
    best = {}
    for case, value in samples:
        best[case] = min(value, best.get(case, value))
    return statistics.fmean(best.values())


#: Seconds of one :func:`calibrate` job on a quiet 2-core x86 host
#: (Python 3.11, numpy 2.4); reported times are scaled to that speed.
CAL_REF_S = 2.6e-3
_CAL_SORT = np.random.default_rng(0).random(200_000)


def calibrate() -> float:
    """Median seconds of eight runs of a fixed job that uses none of the
    program: an interpreter loop and an in-cache numpy sort.

    The shared host's speed drifts by up to 2x over seconds to minutes as
    other tenants load it; on short repeats a timing divided by this job's
    time, taken right after it, drifts far less (see ``run.py``)."""
    times = []
    for _ in range(8):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        np.sort(_CAL_SORT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(wl, seconds: float, trace: bool) -> dict:
    """Repeat the timed operation while another repeat fits in *seconds*,
    and at least once per case (with *trace*, alternate untraced and
    traced passes); calibrate after every untraced repeat."""
    samples, digests, untraced, traced = [], [], [], []
    tracers = []
    out = None
    start = time.perf_counter()
    while True:
        for tracer in ((None, tracing.Tracer()) if trace else (None,)):
            out = None
            wall, st, out = _timed(wl, tracer)
            digests.append((wl.case, wl.digest(out)))
            if tracer is None:
                untraced.append(wall)
                samples.append((wl.case, wall - wl.paced_s, *st, calibrate()))
            else:
                traced.append(wall)
                tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if len(samples) >= len(wl.cases) and elapsed * (1 + 1 / len(samples)) > seconds:
            break
    record = {
        name: best_of((s[0], s[i] * CAL_REF_S / s[4]) for s in samples)
        for i, name in enumerate(("wall_s", "stage1_s", "stage2_s"), 1)
    }
    record.update(
        raw_wall_s=best_of((s[0], s[1]) for s in samples),
        host_slowdown=statistics.median(s[4] for s in samples) / CAL_REF_S,
        peak_rss_mb=_rss_mb(),
        repeats=len(samples),
        samples=samples,
    )
    if trace:
        record["per_layer"] = per_layer(
            tracers, statistics.median(untraced), statistics.median(traced)
        )
    return record, digests, out


def per_layer(tracers, untraced_wall, traced_wall) -> dict:
    """Per-op means of every layer's self time and counters."""
    n = len(tracers)
    layers, counts = {}, {}
    for tracer in tracers:
        for name, value in tracer.self_times().items():
            layers[name] = layers.get(name, 0.0) + value / n
        for name, value in tracer.counts.items():
            counts[name] = counts.get(name, 0.0) + value / n
        counts["core.executor.map_s"] = counts.get("core.executor.map_s", 0.0) + (
            tracer.map_seconds() / n
        )
    gets = counts.pop("store.catalog.gets", 0.0)
    hits = counts.pop("store.catalog.hits", 0.0)
    folds = counts.get("core.incremental.folds", 0.0)
    accepted = counts.pop("core.incremental.accepted", 0.0)
    counts["store.catalog.hit_ratio"] = hits / gets if gets else 0.0
    counts["core.incremental.accept_ratio"] = accepted / folds if folds else 0.0
    counts["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {"self_s": layers, "counts": counts, "untraced_wall_s": untraced_wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.scratch)
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    setup = {"setup_raw_s": setup_s, "setup_s": setup_s * CAL_REF_S / calibrate()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    _count_degradations()
    # Freeze the imports and inputs out of the cyclic collector, so the
    # collections timed are those of the objects the operation creates.
    gc.collect()
    gc.freeze()
    record, digests, last = measure(wl, args.seconds, bool(args.trace))
    wl.verify(digests, last)
    record.update(
        **setup,
        stage_names=list(wl.stage_names),
        extra=wl.extra(),
        degraded=_degraded[0],
        checks=wl.checks,
        attempted=wl.attempted,
        failed=sum(not ok for _, ok in wl.checks) + _degraded[0],
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
