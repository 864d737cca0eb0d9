#!/usr/bin/env python
"""Campaign-backend perf baseline: serial vs process vs worker vs service.

Times full runs of the ``smoke`` suite under each execution backend and
writes the measurements to ``BENCH_campaign.json`` at the repository
root — the campaign-throughput trajectory.  Run it from a checkout::

    PYTHONPATH=src python benchmarks/bench_campaign.py [--jobs 2] [--repeat 3]

Each backend is timed ``--repeat`` times and recorded with mean/std so
backend comparisons are not single-sample noise.  The worker backend is
measured three ways: ``worker-cold`` spawns a fresh pool per campaign
(interpreter start-up + trace preload in the timed region — the old
spawn-per-execute behaviour, kept on the trajectory so its cost stays
visible), while ``worker-warm-j1`` / ``worker-warm`` dispatch through
the process-lifetime shared pool after one untimed priming run, so they
measure steady-state dispatch (JSON round trips against pinned traces).
``worker-warm-j1`` isolates protocol overhead from parallel speedup.
``service`` submits through an in-process ``dist serve`` daemon, adding
the TCP service round trip and fair-share admission on top of warm
dispatch.  ``worker-warm-telemetry`` repeats the warm measurement on the
*same* shared pool with ``REPRO_LOG_FILE`` enabled — the guard that
keeps span recording and structured logging under 2% of the silent warm
path (the async sink makes this hold: the dispatch thread only enqueues
records; a poll-based writer thread serialises and writes them).  The
computed ``overhead_vs_warm`` ratio is recorded alongside its stats.

Each backend row keeps the raw per-repeat ``seconds`` vector alongside
the summary stats, so the perf ledger (``repro-sim perf record`` reads
this document as a legacy v0 profile) can run real statistical tests
instead of single-ratio comparisons.

Not a pytest module on purpose: perf numbers belong in a recorded
artifact the next PR can diff, not in a pass/fail gate (the gate is
``repro-sim perf check`` against ``BENCH_history/``, driven by CI).
The cold subprocess backends pay interpreter start-up and workload
regeneration, so on a grid this small serial beats them — the warm pool is the configuration expected
to beat serial once jobs > 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

from repro.analysis.campaign import Campaign
from repro.scenarios import get_suite

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)


#: The bench-lifetime serve daemon behind the ``service`` datapoint
#: (started lazily by the first measurement, stopped by ``main``).
_DAEMON = None


def _service_backend(jobs: int):
    global _DAEMON
    from repro import dist

    if _DAEMON is None:
        _DAEMON = dist.ServeDaemon(
            address="127.0.0.1:0", jobs=jobs
        ).start()
    return dist.backend(
        "service", address=_DAEMON.address, tenant="bench"
    )


def _telemetry_backend(jobs: int):
    """The ``worker-warm`` backend with ``REPRO_LOG_FILE`` switched on.

    Dispatching through the *same* shared pool as ``worker-warm`` is the
    point: creating a second pool in one process measures a pool-count
    artifact several times larger than telemetry itself.  The shared
    workers were spawned before the env toggle, so they stay silent on
    disk — their spans still reach the dispatcher's log via the protocol
    replies, which is the recorded-on-both-ends path the guard cares
    about.  Measured last so the toggle cannot leak into the other
    datapoints; ``_teardown_telemetry`` undoes it.
    """
    global _DAEMON
    from repro.telemetry import log as telemetry_log

    if _DAEMON is not None:
        # The serve daemon's threads and workers add scheduling noise
        # well above the 2% the guard is trying to resolve; it has
        # already been measured by now (telemetry runs last), so take
        # it out of the process before timing.
        _DAEMON.stop()
        _DAEMON = None
    if os.environ.get(telemetry_log.FILE_ENV) is None:
        sink = os.path.join(
            tempfile.mkdtemp(prefix="repro-bench-telemetry-"),
            "telemetry.jsonl",
        )
        os.environ[telemetry_log.FILE_ENV] = sink
        telemetry_log.reset()
    return "worker"


def _teardown_telemetry() -> None:
    from repro.telemetry import log as telemetry_log

    os.environ.pop(telemetry_log.FILE_ENV, None)
    telemetry_log.reset()


def measurements(jobs: int):
    """The (label, make_backend, jobs, warm) datapoints on the trajectory.

    dirqueue is excluded: its packaging step writes traces to disk,
    which measures the filesystem more than the dispatcher.
    ``make_backend`` is a factory so each cold measurement gets a fresh
    backend (and therefore a fresh pool) instead of accidentally reusing
    warmed workers.  ``warm`` datapoints get one untimed priming run, so
    they record steady-state dispatch rather than first-spawn cost.
    ``service`` dispatches through a bench-lifetime ``dist serve``
    daemon, so it measures the TCP submit/collect round trip on top of
    ``worker-warm``'s dispatch cost.
    """
    from repro import dist

    return (
        ("serial", lambda: "serial", 1, False),
        ("process", lambda: "process", jobs, False),
        ("worker-cold", lambda: dist.backend("worker", warm=False),
         jobs, False),
        ("worker-warm-j1", lambda: "worker", 1, True),
        ("worker-warm", lambda: "worker", jobs, True),
        ("service", lambda: _service_backend(jobs), jobs, True),
        # Last on purpose: flips REPRO_LOG_FILE on, then dispatches
        # through the same shared pool as worker-warm.  Compared
        # against worker-warm, this is the telemetry guard — spans +
        # structured logging must stay within noise (<2%) of the
        # silent warm path.
        ("worker-warm-telemetry", lambda: _telemetry_backend(jobs),
         jobs, True),
    )


def time_backend(
    points, make_backend, jobs: int, repeat: int, warm: bool = False
) -> dict:
    """Wall-clock stats for *repeat* campaign runs on the backend.

    Warm measurements amortise each sample over several campaign runs:
    a steady-state dispatch is a couple of milliseconds, which a single
    sample cannot time reliably on a noisy CI host.
    """
    inner = 20 if warm else 1
    if warm:
        # Priming run outside the timed region: spawn the shared pool's
        # workers and preload the traces once.
        Campaign(points, workers=jobs, backend=make_backend()).run()
    times = []
    for _ in range(repeat):
        backend = make_backend()
        start = time.perf_counter()
        for _ in range(inner):
            results = Campaign(points, workers=jobs, backend=backend).run()
            assert len(results) == len(points)
        times.append((time.perf_counter() - start) / inner)
    mean = statistics.fmean(times)
    return {
        "jobs": jobs,
        "warm": warm,
        "repeats": repeat,
        # Raw per-repeat samples (already amortised over the inner
        # runs for warm backends): the perf ledger's statistical tests
        # (repro.perf.detect) run on these, not on the summary stats.
        "seconds": [round(t, 6) for t in times],
        "seconds_mean": round(mean, 3),
        "seconds_std": round(
            statistics.stdev(times) if len(times) > 1 else 0.0, 3
        ),
        "seconds_best": round(min(times), 3),
        "points_per_second": round(len(points) / mean, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="smoke")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_campaign.json"),
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    suite = get_suite(args.suite)
    points = suite.points()
    # Warm the in-process caches once so the serial numbers measure the
    # engine, not first-touch program generation (the subprocess
    # backends regenerate in their own processes either way).
    Campaign(points, backend="serial").run()

    timings = {}
    try:
        for label, make_backend, jobs, warm in measurements(args.jobs):
            stats = time_backend(
                points, make_backend, jobs, args.repeat, warm
            )
            timings[label] = stats
            print(
                f"{label:>15s} (jobs={jobs}): "
                f"{stats['seconds_mean']:6.2f}s "
                f"+/- {stats['seconds_std']:.2f}  "
                f"({stats['points_per_second']:5.2f} points/s)"
            )
    finally:
        if _DAEMON is not None:
            _DAEMON.stop()
        _teardown_telemetry()

    if "worker-warm" in timings and "worker-warm-telemetry" in timings:
        # Medians of the raw (unrounded) samples: at ~2 ms/campaign the
        # 3-decimal summary stats cannot resolve a 2% delta, and the
        # first sample after a toggle is routinely an outlier.
        silent = statistics.median(timings["worker-warm"]["seconds"])
        traced = statistics.median(
            timings["worker-warm-telemetry"]["seconds"]
        )
        overhead = (traced - silent) / silent if silent else 0.0
        timings["worker-warm-telemetry"]["overhead_vs_warm"] = round(
            overhead, 4
        )
        print(
            f"telemetry overhead on the warm path: {overhead:+.1%} "
            f"(target: <2%)"
        )

    document = {
        "benchmark": "campaign-backends",
        "suite": suite.name,
        "n_points": len(points),
        "n_instructions": suite.n_instructions,
        "warmup": suite.warmup,
        "python": platform.python_version(),
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "backends": timings,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
