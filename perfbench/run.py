#!/usr/bin/env python3
"""Benchmark of ``simulate()`` and campaign throughput (see README.md).

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-table2 --seed 0 --seconds 35

``--trace 0`` (the default) prints the end-to-end metrics, measured
with tracing off.  ``--trace 1`` interleaves untraced and traced work and
prints the per-layer metrics plus ``trace.overhead``.  Every
simulated result is checked (golden fingerprints, determinism, a
reference-engine re-simulation, or a serial re-simulation of campaign
points).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Raw per-point samples,
provenance and (traced) spans go to ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_run")

#: Set-up is repeated this many times per run, the import (cheaper, and
#: noisier) IMPORT_REPEATS times; ``setup_s`` is the median import time
#: plus the median of the rest of set-up.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
#: Trace records materialised beyond warm-up + window in set-up: fetch
#: runs ahead of commit by up to the ROB plus the decode buffer.
TRACE_SLACK = 4096
#: ``sim_ipc`` of campaign-table1 is taken over this many passes (always
#: run), so it is exact for a seed and does not depend on host speed.
IPC_PASSES = 3

END_TO_END = {
    "instr_per_s": "instr/s",
    "points_per_s": "points/s",
    "point_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_ipc": "instr/cycle",
}
PER_LAYER = {
    "frontend.fetch_s": "s/point",
    "pipeline.dispatch_s": "s/point",
    "pipeline.issue_s": "s/point",
    "pipeline.commit_s": "s/point",
    "pipeline.cycle_s": "s/point",
    "pipeline.construct_s": "s/point",
    "pipeline.cycles": "cycles/point",
    "pipeline.host_us_per_cycle": "us/cycle",
    "memory.lsq_s": "s/point",
    "core.steering.memo_hits": "count/point",
    "core.steering.memo_misses": "count/point",
    "core.steering.memo_hit_ratio": "ratio",
    "workloads.generate_s": "s/pair",
    "workloads.trace_s": "s/pair",
    "workloads.trace_records": "records/pair",
    "spec.resolve_s": "s/point",
    "analysis.campaign_s": "s/pass",
    "analysis.store_save_s": "s/pass",
    "analysis.point_elapsed_s": "s/pass",
    "dist.worker_busy_frac": "ratio",
    "dist.overhead_s": "s/pass",
    "dist.serial_fallbacks": "count",
    "sim.comms_per_instr": "comms/instr",
    "sim.stalls.rob": "cycles/point",
    "sim.stalls.regs": "cycles/point",
    "sim.stalls.iq": "cycles/point",
    "trace.overhead": "ratio",
}

_clock = time.perf_counter


#: The simulator modules a benchmark run imports.
MODULES = ("repro", "repro.analysis.campaign", "repro.pipeline.processor",
           "repro.scenarios")


def import_repro() -> None:
    """Import the simulator from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no simulator source under {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    for name in MODULES:
        importlib.import_module(name)
    repro = sys.modules["repro"]
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def import_seconds() -> float:
    """Median import time of the simulator over fresh interpreters.

    An import can happen only once per process, so set-up's import share
    is measured in IMPORT_REPEATS child interpreters, one after another.
    """
    code = (
        "import importlib, sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t0 = time.perf_counter()\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class Checker:
    """Counts attempted/failed points and collects every problem found."""

    def __init__(self, workload: str, seed: int) -> None:
        import golden

        self.golden = golden.table(golden.load(), workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}  # key -> first fingerprint seen

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def point(self, key, result, error, n_instructions, golden_key=None):
        """Check one simulated point (``error`` if the call raised)."""
        from golden import fingerprint

        self.attempted += 1
        if error is not None:
            return self._fail(f"{key}: raised {error}")
        fp = fingerprint(result)
        # Commit retires whole groups, so the window may overshoot by
        # less than one retire group.
        if not (n_instructions <= result.instructions < n_instructions + 64
                and result.cycles > 0):
            return self._fail(f"{key}: window {result.instructions} instrs "
                              f"in {result.cycles} cycles")
        if abs(result.ipc * result.cycles - result.instructions) > 1e-6:
            return self._fail(f"{key}: ipc {result.ipc} != instrs/cycles")
        if self.golden is not None and golden_key is not None:
            expect = self.golden.get(golden_key)
            if expect != fp:
                return self._fail(f"{key}: {fp} != golden {expect}")
        seen = self.first.setdefault(key, fp)
        if seen != fp:
            self._fail(f"{key}: {fp} != earlier run {seen}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problem(message)


def reference_check(checker: Checker, grid, seed: int, n: int) -> None:
    """Re-simulate one point on the reference engine and compare.

    ``REPRO_DISPATCH=object`` with ``REPRO_SCHEDULER=scan`` selects the
    oracle paths the equivalence suite pins; the point rotates with the
    seed so different seeds cover different points.
    """
    import grids
    from repro import simulate

    bench, scheme = grid[seed % len(grid)]
    label = grids.point_label(bench, scheme)
    knobs = {"REPRO_DISPATCH": "object", "REPRO_SCHEDULER": "scan"}
    saved = {k: os.environ.get(k) for k in knobs}
    os.environ.update(knobs)
    result = error = None
    try:
        result = simulate(bench, scheme, seed=seed)
    except Exception as exc:  # noqa: BLE001 — counted as failed
        error = f"{type(exc).__name__}: {exc}"
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    checker.point(label, result, error, n, golden_key=label)


# ----------------------------------------------------------------------
# sim-* workloads
# ----------------------------------------------------------------------
def set_up_sims(seed: int, n_records: int, span=None) -> float:
    """Build every workload SETUP_REPEATS times; return the median s."""
    import grids
    from repro.workloads import clear_workload_cache

    times = []
    for _ in range(SETUP_REPEATS):
        clear_workload_cache()
        t0 = _clock()
        grids.build([(b, seed) for b in grids.benches()], n_records, span)
        times.append(_clock() - t0)
    return statistics.median(times)


def check_sims(checker: Checker, samples, n: int):
    for s in samples:
        checker.point(s.label, s.result, s.error, n, golden_key=s.label)


def sim_end_to_end(samples, wall_s: float):
    """instr/s over per-point medians; p50 over calls; points/s over wall.

    Empty when no call returned a result.
    """
    per_point = defaultdict(list)
    first = {}
    for s in samples:
        if s.result is not None:
            per_point[s.label].append(s.host_s)
            first.setdefault(s.label, s.result)
    if not first:
        return {}
    med = {label: statistics.median(v) for label, v in per_point.items()}
    calls = [t for v in per_point.values() for t in v]
    return {
        "instr_per_s": sum(r.instructions for r in first.values())
        / sum(med.values()),
        "points_per_s": len(calls) / wall_s,
        "point_s_p50": statistics.median(calls),
        "sim_ipc": geomean(r.ipc for r in first.values()),
    }


def run_sim_workload(args, report):
    import grids
    import spans

    n, warmup = grids.sim_window()
    grid = grids.sim_grid(args.workload)
    checker = Checker(args.workload, args.seed)
    if args.trace:
        spans.open_sink(report.spans_path)
    setup_s = set_up_sims(
        args.seed, n + warmup + TRACE_SLACK,
        span=spans.span if args.trace else None,
    )
    built = trace_lengths(args.seed)
    samples, wall = grids.run_sim(grid, args.seed, args.seconds,
                                  traced=bool(args.trace))
    # More trace records than set-up built would mean trace building
    # happened inside the timed calls.
    grown = {bench: (built[bench], records)
             for bench, records in trace_lengths(args.seed).items()
             if records != built[bench]}
    if grown:
        checker.problem(f"traces grew in the timed calls: {grown}")
    check_sims(checker, samples, n)
    report.samples = [
        [s.label, s.host_s, _instrs(s), s.resolve_s, s.traced]
        for s in samples
    ]
    e2e = sim_end_to_end([s for s in samples if not s.traced], wall)
    if not args.trace:
        report.metrics = dict(e2e, setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    else:
        recorded = load_spans(report.spans_path)
        report.metrics = sim_layers(recorded, checker, samples, wall,
                                    len(grid))
        traced = sim_end_to_end([s for s in samples if s.traced], wall)
        if traced and e2e:
            report.metrics["trace.overhead"] = (
                traced["instr_per_s"] / e2e["instr_per_s"] - 1.0
            )
    reference_check(checker, grid, args.seed, n)
    return checker


def _instrs(sample):
    return sample.result.instructions if sample.result is not None else 0


def trace_lengths(seed: int):
    """Records materialised so far in each bench's cached trace."""
    import grids
    from repro.workloads import workload

    return {bench: len(workload(bench, seed=seed).shared_trace())
            for bench in grids.benches()}


def load_spans(path: str):
    """Every span the traced run wrote to its sink file."""
    import spans
    from repro.telemetry import tracing

    spans.close_sink()
    return tracing.load_spans(path)


def sim_layers(recorded, checker, samples, wall_s, grid_size):
    """Per-layer metrics of a traced sim run (one process, one job)."""
    traced = [s for s in samples if s.traced]
    elapsed = sum(s.host_s for s in samples)
    layers = pipeline_layers(recorded, checker, [s.result for s in traced
                                                 if s.result is not None])
    layers.update(workload_layers(recorded))
    # The caller's clock around simulate() must cover construction and
    # run(); what is left is the facade (resolve, result building).
    account(checker, recorded, [(s.point, s.host_s, 0.0) for s in traced
                                if s.result is not None])
    layers.update({
        "spec.resolve_s": mean(s.resolve_s for s in traced),
        "analysis.campaign_s": 0.0,
        "analysis.store_save_s": 0.0,
        "analysis.point_elapsed_s": grid_size * mean(s.host_s for s in traced),
        "dist.worker_busy_frac": elapsed / wall_s,
        "dist.overhead_s": grid_size * (wall_s - elapsed) / len(samples),
        "dist.serial_fallbacks": 0,
    })
    return layers


# ----------------------------------------------------------------------
# Shared per-layer aggregation
# ----------------------------------------------------------------------
#: A point's time outside construction and run(), as measured by an
#: independent clock around it, may not exceed this share of that time
#: (plus the point's allowance) ...
ACCOUNT_SHARE = 0.05
#: ... nor fall below -ACCOUNT_ROUND_S: span durations are rounded to
#: the microsecond.
ACCOUNT_ROUND_S = 5e-6


def account(checker, recorded, measured):
    """Check that the pipeline spans account for independently timed points.

    *measured* holds ``(point, seconds, allowance)``: a point's spans
    and the seconds a clock outside every span wrapper gave it.  The
    construction and ``run()`` spans must fit inside those seconds and
    leave no more than ACCOUNT_SHARE of them (plus *allowance*, time the
    clock covers beyond the facade) uncovered.  Stage self times plus
    ``pipeline.cycle_s`` make up ``run()`` by construction, so this is
    what ties them to time measured without the wrappers.
    """
    covered = defaultdict(float)
    for s in recorded:
        if s["name"] in ("pipeline.construct", "pipeline.run"):
            covered[s["attrs"]["point"]] += s["duration"]
    for point, seconds, allowance in measured:
        gap = seconds - covered.get(point, 0.0)
        if not -ACCOUNT_ROUND_S <= gap <= ACCOUNT_SHARE * seconds + allowance:
            checker.problem(
                f"{point}: pipeline spans cover {covered.get(point, 0.0):.6f}"
                f" s of {seconds:.6f} s measured"
            )


def pipeline_layers(recorded, checker, results):
    """Stage, construction and steering metrics from ``pipeline.*`` spans.

    Also checks that every stage wrapper ran once per simulated cycle.
    """
    import spans

    selfs = spans.self_times(recorded)
    runs = [s for s in recorded
            if s["name"] == "pipeline.run" and s["status"] == "ok"]
    constructs = [s["duration"] for s in recorded
                  if s["name"] == "pipeline.construct"]
    n_runs = len(runs) or 1
    totals = {name: 0.0 for name in spans.STAGES}
    cycles = hits = misses = 0
    run_s = cycle_s = 0.0
    for s in runs:
        attrs = s["attrs"]
        if any(calls != attrs["cycles"] for calls, _ in
               attrs["stages"].values()):
            checker.problem(
                f"{attrs['point']}: a stage ran other than once per cycle"
            )
        for name, (_, seconds) in attrs["stages"].items():
            totals[name] += seconds
        cycles += attrs["cycles"]
        hits += attrs["memo_hits"]
        misses += attrs["memo_misses"]
        run_s += s["duration"]
        cycle_s += selfs[s["span_id"]]
    out = {
        f"{name}_s": seconds / n_runs for name, seconds in totals.items()
    }
    out.update({
        "pipeline.cycle_s": cycle_s / n_runs,
        "pipeline.construct_s": mean(constructs),
        "pipeline.cycles": cycles / n_runs,
        "pipeline.host_us_per_cycle": 1e6 * run_s / cycles if cycles else 0.0,
        "core.steering.memo_hits": hits / n_runs,
        "core.steering.memo_misses": misses / n_runs,
        "core.steering.memo_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "sim.comms_per_instr": mean(r.comms_per_instr for r in results),
        "sim.stalls.rob": mean(r.stalls.get("rob", 0) for r in results),
        "sim.stalls.regs": mean(r.stalls.get("regs", 0) for r in results),
        "sim.stalls.iq": mean(r.stalls.get("iq", 0) for r in results),
    })
    return out


def workload_layers(recorded):
    gen = [s for s in recorded if s["name"] == "workloads.generate"]
    trace = [s for s in recorded if s["name"] == "workloads.trace"]
    return {
        "workloads.generate_s": mean(s["duration"] for s in gen),
        "workloads.trace_s": mean(s["duration"] for s in trace),
        "workloads.trace_records": mean(s["attrs"]["records"] for s in trace),
    }


# ----------------------------------------------------------------------
# campaign-table1
# ----------------------------------------------------------------------
def check_passes(checker: Checker, passes, seed: int):
    """Check every campaign result; return points needing a serial re-run."""
    import golden

    unchecked = []
    for p in passes:
        has_golden = checker.golden is not None and any(
            k.startswith(f"{p.index}:") for k in checker.golden
        )
        for run in p.runs:
            pt = run.point
            key = golden.campaign_key(p.index, pt.bench, pt.scheme)
            checker.point(key, run.result, None, pt.n_instructions,
                          golden_key=key if has_golden else None)
        if not has_golden:
            unchecked.append((p, p.runs[(7 * p.index + seed) % len(p.runs)]))
    return unchecked


def serial_recheck(checker: Checker, unchecked) -> None:
    """Re-simulate one point per pass without golden values, serially."""
    import golden
    from repro.analysis.campaign import run_point

    for p, run in unchecked:
        pt = run.point
        key = golden.campaign_key(p.index, pt.bench, pt.scheme)
        result = error = None
        try:
            result = run_point(pt)
        except Exception as exc:  # noqa: BLE001 — counted as failed
            error = f"{type(exc).__name__}: {exc}"
        checker.point(key, result, error, pt.n_instructions)


def campaign_end_to_end(passes):
    """End-to-end metrics over completed passes; empty without any."""
    if not passes:
        return {}
    elapsed = [r.elapsed_seconds for p in passes for r in p.runs]
    instrs = sum(r.result.instructions for p in passes for r in p.runs)
    return {
        "instr_per_s": instrs / sum(elapsed),
        "points_per_s": statistics.median(len(p.runs) / p.wall_s
                                          for p in passes),
        "point_s_p50": statistics.median(elapsed),
        "sim_ipc": geomean(r.result.ipc for p in passes[:IPC_PASSES]
                           for r in p.runs),
    }


def campaign_samples(passes):
    return [
        [p.index, f"{r.point.bench}/{r.point.scheme}", r.elapsed_seconds,
         r.result.instructions, (r.timing or {}).get("resolve_seconds"),
         (r.timing or {}).get("simulate_seconds"), p.traced]
        for p in passes for r in p.runs
    ]


def run_campaign_workload(args, report):
    import golden
    import grids
    import spans

    checker = Checker(args.workload, args.seed)
    workdir = os.path.join(report.run_dir, "stores")
    os.makedirs(workdir, exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        grids.campaign_points(grids.pass_seed(args.seed, 0))
        times.append(_clock() - t0)
    setup_s = statistics.median(times)
    if args.trace:
        spans.open_sink(report.spans_path)

    def after_traced(p):
        # Beside the workers, outside the timed pass: the same pairs'
        # generation and trace build, uncached so no later pass can
        # inherit them.
        pt = p.runs[0].point
        grids.build(
            sorted({r.point.trace_key for r in p.runs}),
            pt.n_instructions + pt.warmup + TRACE_SLACK,
            spans.span, fresh=True,
        )

    passes, failures = grids.run_campaigns(
        args.seed, args.seconds, workdir,
        min_passes=2 if args.trace else IPC_PASSES,
        traced=bool(args.trace), after_traced=after_traced,
    )
    for f in failures:
        checker.point(
            golden.campaign_key(f.index, f.point.bench, f.point.scheme),
            None, f.error.strip().splitlines()[-1], f.point.n_instructions,
        )
    report.samples = campaign_samples(passes)
    e2e = campaign_end_to_end([p for p in passes if not p.traced])
    if not args.trace:
        report.metrics = dict(e2e, setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    else:
        traced = [p for p in passes if p.traced]
        recorded = load_spans(report.spans_path)
        if traced:
            report.metrics = campaign_layers(recorded, checker, traced)
        if traced and e2e:
            report.metrics["trace.overhead"] = (
                campaign_end_to_end(traced)["instr_per_s"]
                / e2e["instr_per_s"] - 1.0
            )
    report.extra["passes"] = [
        {"index": p.index, "seed": p.seed, "wall_s": p.wall_s,
         "backend": p.backend, "serial_fallbacks": p.serial_fallbacks,
         "traced": p.traced}
        for p in passes
    ]
    fallbacks = sum(p.serial_fallbacks for p in passes)
    if fallbacks:
        report.warnings.append(
            f"{fallbacks} pass(es) fell back to serial execution: "
            "those passes measured serial, not -j "
            f"{grids.CAMPAIGN_JOBS}, throughput"
        )
    serial_recheck(checker, check_passes(checker, passes, args.seed))
    return checker


def campaign_layers(recorded, checker, passes):
    import grids

    runs = [r for p in passes for r in p.runs]
    n_runs = len([s for s in recorded if s["name"] == "pipeline.run"])
    if n_runs != len(runs):
        checker.problem(
            f"worker spans cover {n_runs} of {len(runs)} campaign points"
        )
    layers = pipeline_layers(recorded, checker, [r.result for r in runs])
    layers.update(workload_layers(recorded))
    # The worker's own clock around each point (resolve, workload
    # generation and trace build included) must cover construction and
    # run().  Generation and trace build are allowed for on each point:
    # the first point of a (bench, seed) pair in a worker pays them.
    build_s = layers["workloads.generate_s"] + layers["workloads.trace_s"]
    account(checker, recorded, [
        (f"{r.point.bench}/{r.point.scheme}@{r.point.seed}",
         r.elapsed_seconds, 2 * build_s)
        for r in runs
    ])
    jobs = grids.CAMPAIGN_JOBS
    walls = [p.wall_s for p in passes]
    elapsed = [sum(r.elapsed_seconds for r in p.runs) for p in passes]
    saves = [s["duration"] for s in recorded
             if s["name"] == "analysis.store_save"]
    layers.update({
        "spec.resolve_s": mean(
            (r.timing or {}).get("resolve_seconds", 0.0) for r in runs
        ),
        "analysis.campaign_s": mean(walls),
        "analysis.store_save_s": sum(saves) / len(passes),
        "analysis.point_elapsed_s": mean(elapsed),
        "dist.worker_busy_frac": sum(elapsed) / (jobs * sum(walls)),
        "dist.overhead_s": mean(w - e / jobs for w, e in zip(walls, elapsed)),
        "dist.serial_fallbacks": sum(p.serial_fallbacks for p in passes),
    })
    return layers


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
class Report:
    def __init__(self, args) -> None:
        self.args = args
        self.run_dir = os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
        )
        os.makedirs(self.run_dir, exist_ok=True)
        self.metrics = {}
        self.samples = []
        self.extra = {}
        self.warnings = []
        #: The traced run's telemetry sink: every span it recorded.
        self.spans_path = os.path.join(self.run_dir, "spans.jsonl")

    def provenance(self):
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }

    def finish(self, checker: Checker) -> int:
        units = PER_LAYER if self.args.trace else END_TO_END
        missing = set(units) - set(self.metrics)
        if missing:
            checker.problem(f"metrics not measured: {sorted(missing)}")
        metrics = {
            name: {"value": self.metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        }
        correct = not checker.problems and checker.failed == 0
        doc = {
            "provenance": self.provenance(),
            "metrics": metrics,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "problems": checker.problems,
            "warnings": self.warnings,
            "samples": self.samples,
            **self.extra,
        }
        with open(os.path.join(self.run_dir, "result.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
        prov = doc["provenance"]
        print(f"perfbench {prov['workload']} seed={prov['seed']} "
              f"trace={prov['trace']} nproc={prov['nproc']} "
              f"loadavg={prov['loadavg'][0]:.2f} python={prov['python']}")
        for name, m in metrics.items():
            print(f"  {name:<30s} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'failed_frac':<30s} {checker.failed}/{checker.attempted}")
        for line in self.warnings:
            print(f"WARNING: {line}")
        for line in checker.problems:
            print(f"PROBLEM: {line}")
        print(f"raw samples: {os.path.relpath(self.run_dir, ROOT)}/")
        print(json.dumps({
            "correct": correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": metrics,
        }))
        return 0


def main(argv=None) -> int:
    import grids

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=grids.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_repro()
    report = Report(args)
    try:
        if args.workload in grids.SIM_WORKLOADS:
            checker = run_sim_workload(args, report)
        else:
            checker = run_campaign_workload(args, report)
    except grids.BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    if not args.trace:
        # After peak_rss_mb was read: the probe interpreters are children.
        report.metrics["setup_s"] += import_seconds()
    return report.finish(checker)


if __name__ == "__main__":
    sys.exit(main())
