"""Repository benchmark: population build + Figure 6, Table 1 cold/warm,
and open-loop service ingest.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in fresh subprocesses
(``perfbench/workloads.py``) with every ``REPRO_*`` variable cleared and
only the workload's own set, one thread per numeric library, and fresh
catalog/spill directories under ``.perfbench/`` that are removed afterwards.
Set-up runs three times (twice alone, once before the timed run) and
``setup_s`` is their median, each scaled to the reference host speed as
below; what set-up created is then frozen out of the cyclic garbage
collector (``gc.freeze``) before timing starts.

Workloads (the ``why`` of each is in ``BENCHMARK.json``, which lists the
gated ones). paper-fig6 and paper-fig6-process2 run the same job as
small-fig6 on the paper preset (20,000 series, R=50, B=100); they run by
name but are not gated. One paper repeat takes ~20 s, so a run holds one
or two of them, and on a shared 2-core machine whose speed drifts by
20-35% over minutes their spread across seeds reached 20-35%.

=====================  =================================  ======================
workload               stage1_s                           stage2_s
=====================  =================================  ======================
small-fig6             build_s  (small build, serial)     fig6_s (R=10, B=40)
paper-fig6             build_s  (paper build, serial)     fig6_s (R=50, B=100, x2)
paper-fig6-process2    build_s  (``process:2``)           fig6_s (``process:2``, x2)
small-table1           table1_cold_s (fresh catalog)      table1_warm_s (all hits)
service-push           ingest_s (closed loop, best of 3)  finalize_s (S1, S4)
=====================  =================================  ======================

The small workloads cycle their repeats through several small populations
drawn from the seed (ten for small-fig6, three for the others): their work
differs by up to ~40% from one population to the next (EMD transport
solves, mostly), which a single population per run would turn into
run-to-run spread.

The gated metrics are the same five on every workload: ``setup_s``,
``wall_s``, ``stage1_s``, ``stage2_s`` and ``peak_rss_mb``. The report also
prints each stage under its workload's own name, ``error_rate``, and for
service-push the ingest latencies at 10k windows/s, the highest sustained
ladder rate and the generator lag; these last are per-layer metrics
(``error_rate`` is 0 on a correct run and the rate moves in ladder steps,
so neither suits a relative bound).

``wall_s`` is the whole timed operation (for service-push less the
open-loop ladder, whose length is set by its rates). ``peak_rss_mb`` is the
peak RSS of the workload process plus that of its largest child, read at
the end of the timed region.

How times are taken. The timed operation repeats while another repeat fits
in ``--seconds``, and at least once per population. After each repeat a
fixed calibration job that uses none of the program (an interpreter loop
and an in-cache numpy sort, ``workloads.calibrate``) is timed, and the
repeat's times are scaled by ``CAL_REF_S`` / that job's time: they read as
seconds on the host at its quiet speed. Each reported time is then the
fastest scaled repeat of each population, averaged over the populations.
The reason is the host: a
shared 2-core VM whose speed drifts by up to 2x over seconds to minutes as
other tenants load it. In ten seeds per workload taken in a busy spell
(calibration job ~1.5x its quiet time), the interquartile range of
``wall_s`` over its median was 5.3/14.5/4.0% (small-fig6/small-table1/
service-push) scaled, against 14.9/9.7/16.4% for the raw fastest repeats
and 17.5/4.2/19.4% for raw medians of repeats; every scaled time stayed
within 15%. Scaling does not fully undo heavy load: small-fig6 read ~1.0 s
there against ~0.76 s quiet. The calibration job cannot absorb a change
to the program, which it does not run. The report prints the raw times
(minimum, median and maximum over the repeats) and the host slowdown
(calibration median / ``CAL_REF_S``); the traced run reports both as
``bench.raw_wall_s`` and ``bench.host_slowdown``.

Outputs are checked outside the timed region (``failed`` counts failed
checks and backend degradations; ``error_rate = failed / attempted``):
Figure 6 repeats on the same population give identical bundle and outcome
fingerprints; paper-fig6-process2 equals a serial build and run of the same
seed; small-table1's warm result equals cold bit for bit with 3 hits and 0
recomputes, in the documented Table 1 shape; service-push refuses exactly
the planted duplicates and its ``finalize`` equals ``StreamingExperiment``.

``--trace 1`` alternates untraced and traced passes of the timed operation
and reports per-layer self times (``perfbench/tracing.py``) as per-op means,
ranked in a table, with ``bench.trace_overhead_frac`` = traced / untraced
median wall - 1. The service workload's open-loop figures (ingest p50/p99
at 10k windows/s, the highest ladder rate meeting a 1 ms p99, queue wait,
generator lag) come from its untraced passes.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
TIMEOUT_S = 170.0

WORKLOADS = {
    "small-fig6": {"REPRO_SCALE": "small", "REPRO_BACKEND": "serial"},
    "paper-fig6": {"REPRO_SCALE": "paper", "REPRO_BACKEND": "serial"},
    "paper-fig6-process2": {"REPRO_SCALE": "paper", "REPRO_BACKEND": "process:2"},
    "small-table1": {"REPRO_SCALE": "small", "REPRO_BACKEND": "serial"},
    "service-push": {"REPRO_SCALE": "small", "REPRO_BACKEND": "serial"},
}


def _metric_units(kind: str) -> dict:
    """Metric name -> unit, as declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    pass


def environment() -> dict:
    """Cores, commit and library versions recorded with every run."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.exists():
                ref = ref_path.read_text().strip()
            elif packed.exists():
                ref = next(
                    (line.split()[0] for line in packed.read_text().splitlines()
                     if line.endswith(" " + ref[5:])),
                    "unknown",
                )
        commit = ref
    except OSError:
        pass
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = __import__(name).__version__
        except ImportError:
            versions[name] = "missing"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "commit": commit,
        "python": platform.python_version(),
        **versions,
    }


def child_env(workload: str, scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(WORKLOADS[workload])
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        TMPDIR=str(scratch),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args, scratch: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch), "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(args.workload, scratch),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workload and its pool workers
        proc.communicate()
        raise BenchError("workload timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def layer_metrics(record: dict) -> dict:
    trace = record["per_layer"]
    values = {name: 0.0 for name in _metric_units("per_layer")}
    for name, seconds in trace["self_s"].items():
        key = "bench.other_s" if name == "bench.op" else name + "_s"
        if key in values:
            values[key] += seconds
    for name, value in {**trace["counts"], **record["extra"]}.items():
        if name in values:
            values[name] = value
    values["core.executor.degraded"] = float(record["degraded"])
    values["bench.raw_wall_s"] = record["raw_wall_s"]
    values["bench.host_slowdown"] = record["host_slowdown"]
    return values


def print_report(args, env, record, setups) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    stage1, stage2 = record["stage_names"]
    named = [
        ("setup_s", statistics.median(s["setup_s"] for s in setups), "s"),
        ("wall_s", record["wall_s"], "s"),
        (stage1, record["stage1_s"], "s"),
        (stage2, record["stage2_s"], "s"),
        ("peak_rss_mb", record["peak_rss_mb"], "MB"),
        ("error_rate", record["failed"] / max(1, record["attempted"]), "ratio"),
    ]
    units = _metric_units("per_layer")
    for key in ("service.session.ingest_p50_us", "service.session.ingest_p99_us",
                "service.session.ingest_max_rate", "bench.loadgen_lag_p99_us"):
        if key in record["extra"]:
            named.append((key.split(".")[-1], record["extra"][key], units[key]))
    print(f"repeats={record['repeats']} host slowdown {record['host_slowdown']:.3f} "
          f"raw wall_s {record['raw_wall_s']:.4f} raw setup samples "
          + ", ".join(f"{s['setup_raw_s']:.3f}" for s in setups))
    for i, name in enumerate(("wall_s", stage1, stage2)):
        column = [sample[i + 1] for sample in record["samples"]]
        print(f"  {name} per repeat: min {min(column):.4f} median "
              f"{statistics.median(column):.4f} max {max(column):.4f}")
    for name, value, unit in named:
        print(f"  {name:<24} {value:14.6g} {unit}")
    if "ladder" in record["extra"]:
        print("  open-loop ladder (us): rate p50 p99 lag_p99 wait_p50 tail")
        for rate, s in record["extra"]["ladder"].items():
            print(f"    {rate:>6}/s {s['p50']:9.1f} {s['p99']:9.1f} {s['lag_p99']:9.1f} "
                  f"{s['wait_p50']:9.1f} {s['backlog']:9.1f}")
        if record["extra"]["loadgen_late"]:
            print("  FLAG: load generator p99 lag exceeds the latency limit at the "
                  "reference rate; latencies there are not trustworthy")
    for name, ok in record["checks"]:
        if not ok:
            print(f"  CHECK FAILED: {name}")
    print(f"  checks passed {sum(ok for _, ok in record['checks'])}/{len(record['checks'])}")
    if args.trace:
        self_s = record["per_layer"]["self_s"]
        total = sum(self_s.values())
        print(f"  self time per layer (per op; traced total {total:.3f}s, "
              f"untraced median wall {record['per_layer']['untraced_wall_s']:.3f}s):")
        for rank, (name, seconds) in enumerate(
            sorted(self_s.items(), key=lambda kv: -kv[1]), 1
        ):
            print(f"    {rank:2d}. {name:<40} {seconds:9.4f}s {100 * seconds / total:5.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setups = [
            run_child(args, scratch, deadline, setup_only=True)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        record = run_child(args, scratch, deadline, setup_only=False)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    setups.append(record)
    env = environment()
    print_report(args, env, record, setups)

    if args.trace:
        units = _metric_units("per_layer")
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in layer_metrics(record).items()
        }
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": record["wall_s"],
            "stage1_s": record["stage1_s"],
            "stage2_s": record["stage2_s"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in _metric_units("end_to_end").items()
        }
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
