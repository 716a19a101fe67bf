"""Benchmark for treefree: exact verdicts per second on four workloads.

    python3 bench/run.py --workload verify|scan|diam|chi --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop: one caller, one process, no threads.  A run
repeats passes over the seeded inputs until ``--seconds`` have gone and the
tail percentile has at least ten samples beyond it.  Every pass starts from
a fresh import of treefree, so no state carries over from one pass to the
next, and the import time is a set-up sample.  Times are scaled to a
nominal machine speed by kernel samples taken around them (``speed.py``);
the raw figures go on the meta line.  The verdicts are checked against an
independent reference after the timed passes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, which alternates untraced and traced passes so
that the tracing overhead is measured too.  The last stdout line is the
JSON result; the lines before it give each metric by name with its unit,
and a ``# meta`` line with the environment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MODULES = ("core", "graphio", "patterns", "families", "embed", "witness", "chromatic", "cli")
SETUP_REPEATS = 15
HARD_STOP_S = 120.0  # keeps a badly slowed program inside the run's time limit

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
from workloads import WORKLOADS  # noqa: E402


def missing_dependency() -> str | None:
    """Why the benchmark cannot run here, or None."""
    spec = importlib.util.find_spec("treefree")
    if spec is None or not Path(spec.origin).resolve().is_relative_to(ROOT / "src"):
        return f"treefree is not importable from {ROOT / 'src'}"
    if importlib.util.find_spec("networkx") is None:
        return "networkx is needed for the reference verdicts"
    return None


def fresh_import() -> tuple[float, SimpleNamespace]:
    """Drop every treefree module, then time importing the package afresh."""
    for name in [m for m in sys.modules if m == "treefree" or m.startswith("treefree.")]:
        del sys.modules[name]
    gc.collect()
    start = perf_counter()
    mods = {name: importlib.import_module(f"treefree.{name}") for name in MODULES}
    return perf_counter() - start, SimpleNamespace(**mods)


def percentile(sorted_values: list, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scaled_import() -> tuple[float, float, SimpleNamespace]:
    """A fresh import timed raw and scaled by kernel samples taken just before and after it."""
    from speed import NOMINAL_S, sample

    before = sample()
    seconds, tf = fresh_import()
    return seconds, seconds * 2 * NOMINAL_S / (before + sample()), tf


def run(workload, seconds: float, trace: bool) -> dict:
    """Timed passes, then the verdict check; returns everything the report needs."""
    from spans import Tracer
    from speed import SpeedProbe

    setups = [scaled_import()[:2] for _ in range(SETUP_REPEATS)]  # (raw, scaled)
    passes: list = []  # (traced, raw item seconds, scaled item seconds, summarized outcomes)
    tracer = Tracer() if trace else None
    begin = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        *setup, tf = scaled_import()
        setups.append(setup)
        probe = SpeedProbe()
        if traced:
            tracer.install(vars(tf))
        item_times, raw = workload.run_pass(tf, tracer.mark if traced else probe.between_items)
        scaled = [t * f for t, f in zip(item_times, probe.scales(len(item_times)))] if probe.samples else []
        passes.append((traced, item_times, scaled, workload.summarize(raw)))
        del raw, tf
        elapsed = perf_counter() - begin
        if trace:
            done = len(passes) % 2 == 0 and elapsed >= seconds
        else:
            done = elapsed >= seconds and percentile(
                sorted(t for p in passes for t in p[1]), workload.tail_pct)[1] >= 10
        if done or (elapsed > HARD_STOP_S and not (trace and len(passes) % 2)):
            break
    whole = workload.whole_file(fresh_import()[1]) if hasattr(workload, "whole_file") else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = workload.expected()
    failed = sum(workload.errors(p[3], expected) for p in passes)
    attempted = len(expected) * len(passes)
    gate = sum(workload.gate_rejects(p[3]) for p in passes) / attempted
    if whole is not None:  # the whole-file scan counts as one more verdict
        attempted += 1
        failed += whole != workload.whole_file_expected(expected)
    return {"setups": setups, "passes": passes, "tracer": tracer,
            "peak_rss_mb": peak_rss_mb, "attempted": attempted, "failed": failed, "gate": gate}


def end_to_end(workload, r: dict) -> tuple[dict, dict]:
    """Speed-scaled metrics (see speed.py), plus raw figures and sample counts for the meta line."""
    raw = sorted(t for p in r["passes"] for t in p[1])
    scaled = sorted(t for p in r["passes"] for t in p[2])
    tail, beyond = percentile(scaled, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(s for _, s in r["setups"]), "s"),
        "items_per_s": (statistics.median(len(p[2]) / sum(p[2]) for p in r["passes"] if p[2]), "1/s"),
        "item_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "item_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    details = {"setup_samples": len(r["setups"]), "item_samples": len(scaled),
               "tail_percentile": workload.tail_pct, "samples_beyond_tail": beyond,
               "raw_setup_s": statistics.median(s for s, _ in r["setups"]),
               "raw_items_per_s": statistics.median(len(p[1]) / sum(p[1]) for p in r["passes"] if p[1]),
               "raw_item_p50_ms": statistics.median(raw) * 1000,
               "raw_item_tail_ms": percentile(raw, workload.tail_pct)[0] * 1000}
    return metrics, details


def per_layer(r: dict) -> dict:
    from spans import layer_metrics

    walls = {flag: [sum(p[1]) for p in r["passes"] if p[0] == flag] for flag in (False, True)}
    return layer_metrics(r["tracer"], len(walls[True]), statistics.mean(walls[True]),
                         statistics.mean(walls[False]), r["gate"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = missing_dependency()
    if problem:
        print(problem, file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    workload.prepare(WORK)
    r = run(workload, args.seconds, bool(args.trace))
    if not any(p[1] for p in r["passes"]):
        print("no item completed: the corpus stream failed at its first record", file=sys.stderr)
        return 1
    metrics, details = (per_layer(r), {}) if args.trace else end_to_end(workload, r)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    # error_rate travels in the result as failed / attempted; a metric that is 0 has no spread
    print(f"error_rate: {r['failed'] / r['attempted']:.6g} ({r['failed']} of {r['attempted']} verdicts)")
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "passes": len(r["passes"]), "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), **details}
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
