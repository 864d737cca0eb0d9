#!/usr/bin/env python
"""Core-model throughput baseline: columnar engine vs object engine.

Times the simulator's hot path (``Processor.run``) on the smoke-suite
workloads under both engines (``dispatch="columnar"``, the default, and
the reference ``dispatch="object"``) and writes the measurements to
``BENCH_core.json`` at the repository root.  Run it from a checkout::

    PYTHONPATH=src python benchmarks/bench_core.py [--repeat 3]

The grid covers every smoke-suite (bench, scheme) point on the Table 2
clustered machine — the representative regime, where windows stay
shallow — plus the *issue-bound* points on the ``deep-window-512``
machine (512-entry windows, 1024-deep ROB), where the object engine's
O(window x operands) per-cycle issue scan dominates.

Each point records instructions/sec for both engines (best over
``--repeat`` timed runs, with mean/std for noise visibility) and the
``speedup_vs_scan`` ratio; the rows keep the names ``"event"`` (the
columnar engine) and ``"scan"`` (the object engine) so the ledger's
labels stay stable.  The ratio is the machine-portable signal the CI
perf gate leans on; the absolute numbers chart the trajectory on
comparable hardware.

A second family of points times the same two engines on a longer
window with interleaved repeats, with ``speedup_vs_object`` as the
portable ratio.  These points carry ``"columnar"``/``"object"`` rows
and are tagged ``"kind": "dispatch"``.

Each point keeps the raw per-repeat ``seconds`` vectors alongside the
summary stats, so the perf ledger (``repro-sim perf record`` reads this
document as a legacy v0 profile) can run real statistical tests instead
of single-ratio comparisons.

Not a pytest module on purpose: perf numbers belong in a recorded
artifact the next PR can diff, not in a pass/fail gate (the gate is
``repro-sim perf check`` against ``BENCH_history/``, driven by CI).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from repro.core.steering import make_steering
from repro.pipeline.processor import Processor
from repro.spec import machine_config
from repro.workloads import workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Measured window per timed run (committed instructions).
N_INSTRUCTIONS = 8000
WARMUP = 1000

#: Dispatch points time a longer window and take at least 9 repeats:
#: the columnar-vs-object ratio is a steady-state hot-loop property —
#: at 8k instructions fixed per-run setup (processor construction,
#: first-touch of the pinned columns) dilutes it, and best-of-few is
#: noise-sensitive on shared runners.  The point records its own
#: ``n_instructions``.
DISPATCH_N_INSTRUCTIONS = 30000
DISPATCH_MIN_REPEAT = 9

#: The issue-bound machine: per-cluster window / ROB scaled until the
#: issue stage dominates runtime (see the deep-window registry family).
ISSUE_BOUND_MACHINE = "deep-window-512"

#: (bench, scheme, machine, issue_bound?) measurement grid.  Benches and
#: schemes are the smoke suite's; pchase-extreme joins the issue-bound
#: points because its dependence chains actually fill a deep window
#: (pointer-chase stress family, scenario corpus).
def build_grid():
    from repro.scenarios import get_suite

    smoke = get_suite("smoke")
    grid = []
    for bench in smoke.benches:
        for scheme in smoke.schemes:
            grid.append((bench, scheme, "clustered", False))
    for bench in list(smoke.benches) + ["pchase-extreme"]:
        grid.append((bench, "general-balance", ISSUE_BOUND_MACHINE, True))
    return grid


#: (bench, scheme, machine) grid for the columnar-vs-object dispatch
#: points: the Table 2 clustered machine across the smoke suite's
#: benches (dispatch dominates there — shallow windows keep issue
#: cheap), one issue-bound point to show the fused loop holds up when
#: dispatch is *not* the bottleneck, and the §3.9 FIFO-window machine,
#: whose windows admit and place through the same fused loop.
def build_dispatch_grid():
    from repro.scenarios import get_suite

    smoke = get_suite("smoke")
    grid = [
        (bench, "general-balance", "clustered") for bench in smoke.benches
    ]
    grid.append(("gcc", "general-balance", ISSUE_BOUND_MACHINE))
    grid.append(("gcc", "fifo", "clustered-fifo"))
    grid.append(("pchase-heavy", "fifo", "clustered-fifo"))
    return grid


def time_point(bench, scheme, machine, dispatch, repeat,
               n_instructions=N_INSTRUCTIONS):
    """Best/mean/std wall-clock seconds over *repeat* timed runs."""
    wl = workload(bench, seed=0)  # cached: charges generation once
    times = []
    for _ in range(repeat):
        config = machine_config(machine)
        steering = make_steering(scheme)
        if getattr(steering, "requires_fifo_issue", False):
            config = config.with_fifo_issue()
        processor = Processor(wl, config, steering, dispatch=dispatch)
        start = time.perf_counter()
        processor.run(n_instructions, warmup=WARMUP)
        times.append(time.perf_counter() - start)
    # Raw per-repeat "seconds" samples ride along: the perf ledger's
    # statistical tests (repro.perf.detect) run on these, not on the
    # summary stats.
    return _summary_rows(times, n_instructions, repeat)


def _summary_rows(times, n_instructions, repeat):
    return {
        "runs": repeat,
        "seconds": [round(t, 6) for t in times],
        "seconds_best": round(min(times), 4),
        "seconds_mean": round(statistics.fmean(times), 4),
        "seconds_std": round(
            statistics.stdev(times) if len(times) > 1 else 0.0, 4
        ),
        "instr_per_sec": round(n_instructions / min(times), 1),
    }


def time_dispatch_point(bench, scheme, machine, repeat, n_instructions):
    """Interleaved columnar/object timing for one dispatch point.

    The repeats alternate between the two engines so slow host
    drift (thermal, co-tenant load) cancels out of the ratio instead of
    biasing whichever block ran second; one untimed run first
    materialises the trace window, so no timed repeat pays the workload
    generator.
    """
    wl = workload(bench, seed=0)
    modes = ("columnar", "object")
    times = {mode: [] for mode in modes}

    def one_run(dispatch, timed):
        config = machine_config(machine)
        steering = make_steering(scheme)
        if getattr(steering, "requires_fifo_issue", False):
            config = config.with_fifo_issue()
        processor = Processor(wl, config, steering, dispatch=dispatch)
        start = time.perf_counter()
        processor.run(n_instructions, warmup=WARMUP)
        if timed:
            times[dispatch].append(time.perf_counter() - start)

    one_run("columnar", timed=False)  # materialise the trace window
    for _ in range(repeat):
        for mode in modes:
            one_run(mode, timed=True)
    return tuple(
        _summary_rows(times[mode], n_instructions, repeat) for mode in modes
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_core.json"),
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    points = []
    for bench, scheme, machine, issue_bound in build_grid():
        columnar = time_point(bench, scheme, machine, "columnar", args.repeat)
        obj = time_point(bench, scheme, machine, "object", args.repeat)
        speedup = columnar["instr_per_sec"] / obj["instr_per_sec"]
        points.append(
            {
                "bench": bench,
                "scheme": scheme,
                "machine": machine,
                "issue_bound": issue_bound,
                "event": columnar,
                "scan": obj,
                "speedup_vs_scan": round(speedup, 3),
            }
        )
        tag = "issue-bound" if issue_bound else "baseline   "
        print(
            f"{tag} {bench:>14s} {scheme:<16s} {machine:<15s} "
            f"columnar={columnar['instr_per_sec']:>8.0f} i/s  "
            f"object={obj['instr_per_sec']:>8.0f} i/s  "
            f"speedup={speedup:4.2f}x"
        )

    dispatch_repeat = max(args.repeat, DISPATCH_MIN_REPEAT)
    for bench, scheme, machine in build_dispatch_grid():
        columnar, obj = time_dispatch_point(
            bench, scheme, machine, dispatch_repeat,
            DISPATCH_N_INSTRUCTIONS,
        )
        speedup = columnar["instr_per_sec"] / obj["instr_per_sec"]
        points.append(
            {
                "bench": bench,
                "scheme": scheme,
                "machine": machine,
                "kind": "dispatch",
                "n_instructions": DISPATCH_N_INSTRUCTIONS,
                "columnar": columnar,
                "object": obj,
                "speedup_vs_object": round(speedup, 3),
            }
        )
        print(
            f"dispatch    {bench:>14s} {scheme:<16s} {machine:<15s} "
            f"columnar={columnar['instr_per_sec']:>8.0f} i/s  "
            f"object={obj['instr_per_sec']:>8.0f} i/s  "
            f"speedup={speedup:4.2f}x"
        )

    issue_bound_speedups = [
        p["speedup_vs_scan"] for p in points if p.get("issue_bound")
    ]
    dispatch_speedups = [
        p["speedup_vs_object"] for p in points if "speedup_vs_object" in p
    ]
    document = {
        "benchmark": "core-scheduler",
        "suite": "smoke",
        "n_instructions": N_INSTRUCTIONS,
        "warmup": WARMUP,
        "python": platform.python_version(),
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "points": points,
        "summary": {
            "max_issue_bound_speedup": max(issue_bound_speedups),
            "min_speedup": min(
                p["speedup_vs_scan"] for p in points
                if "speedup_vs_scan" in p
            ),
            "max_dispatch_speedup": max(dispatch_speedups),
            "min_dispatch_speedup": min(dispatch_speedups),
        },
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
