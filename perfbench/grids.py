"""The benchmark's three workloads and the closed loops that run them.

Every workload is a closed loop from one process: the next ``simulate()``
call (or campaign pass) starts only after the previous one returned.

* ``sim-table2`` — the 8 SpecInt95 stand-ins x {modulo, ldst-slice,
  br-slice, general-balance} on the Table 2 ``clustered`` machine at
  ``simulate()``'s default window.  Workloads and traces are built in
  set-up, so the timed calls exercise the columnar dispatch, the
  steering memo and event issue, and the workloads layer is idle.
* ``sim-fifo`` — the same 8 benches under ``fifo``, which switches the
  machine to FIFO windows: object dispatch and ``FifoIssueQueue``, no
  steering memo.  A columnar-path change should not move it.
* ``campaign-table1`` — the ``paper-table1`` suite at its own window
  through ``run_campaign(..., workers=2, store=...)`` on the default
  backend.  Every pass uses fresh ``(bench, seed)`` pairs, so workload
  generation, trace build, process dispatch and the store write are paid
  on every pass and nothing is served from a cache.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

SIM_WORKLOADS = ("sim-table2", "sim-fifo")
CAMPAIGN_WORKLOAD = "campaign-table1"
WORKLOADS = SIM_WORKLOADS + (CAMPAIGN_WORKLOAD,)

TABLE2_SCHEMES = ("modulo", "ldst-slice", "br-slice", "general-balance")
CAMPAIGN_SUITE = "paper-table1"
#: Campaign workers: ``repro-sim campaign -j 2`` on a 2-CPU host.
CAMPAIGN_JOBS = 2

_clock = time.perf_counter


@contextmanager
def no_span(name, point=None):
    """Stand-in for :func:`spans.span` when not tracing."""
    yield {}


class BenchError(Exception):
    """A benchmark guard failed: the numbers would not be honest."""


def benches() -> Tuple[str, ...]:
    from repro.workloads import SPECINT95

    return tuple(SPECINT95)


def sim_grid(workload: str) -> List[Tuple[str, str]]:
    """``(bench, scheme)`` points of a sim workload, bench-major."""
    schemes = TABLE2_SCHEMES if workload == "sim-table2" else ("fifo",)
    return [(b, s) for b in benches() for s in schemes]


def sim_window() -> Tuple[int, int]:
    """``simulate()``'s default measured window and warm-up."""
    from repro.pipeline.simulator import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP

    return DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP


def pass_seed(seed: int, k: int) -> int:
    """Workload seed of campaign pass *k* of a run with ``--seed`` *seed*.

    Distinct for every pass of one run, so no pass replays another's
    ``(bench, seed)`` pairs.
    """
    return 1000 * seed + 100 + k


def campaign_points(pseed: int):
    from repro.scenarios import get_suite

    return get_suite(CAMPAIGN_SUITE).points(seeds=[pseed])


def point_label(bench: str, scheme: str) -> str:
    return f"{bench}/{scheme}"


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def build(pairs: Sequence[Tuple[str, int]], n_records: int, span=None,
          fresh: bool = False) -> None:
    """Generate each ``(bench, seed)`` program and materialise its trace.

    By default the workloads land in the process-wide workload cache,
    where the timed ``simulate()`` calls find them; *fresh* builds them
    outside it.  *span* (:func:`spans.span`) records each call when
    tracing.
    """
    from repro.workloads import workload

    span = span or no_span
    for bench, seed in pairs:
        with span("workloads.generate", point=f"{bench}@{seed}"):
            wl = workload(bench, seed=seed, fresh=fresh)
        with span("workloads.trace", point=f"{bench}@{seed}") as attrs:
            shared = wl.shared_trace()
            shared.ensure(n_records)
            shared.columns()
            attrs["records"] = len(shared)


# ----------------------------------------------------------------------
# sim-* loop
# ----------------------------------------------------------------------
class Sample(NamedTuple):
    label: str
    point: str  # the ``point`` attr of its spans when traced
    host_s: float
    resolve_s: float
    result: object  # SimResult, or None when the call raised
    error: Optional[str]
    traced: bool


@contextmanager
def tracing():
    """Route the enclosed calls through :func:`spans.install`."""
    import spans

    uninstall = spans.install()
    try:
        yield spans.span
    finally:
        uninstall()


@contextmanager
def untraced():
    yield no_span


def run_sim(
    grid: Sequence[Tuple[str, str]],
    seed: int,
    budget_s: float,
    traced: bool = False,
) -> Tuple[List[Sample], float]:
    """Call ``simulate()`` over *grid* in order until *budget_s* is spent.

    At least one full pass always runs, so every point has a sample.
    With *traced*, each point runs twice in a row, untraced and then
    traced, so both see the same host state and their ratio is the
    tracing overhead.  Returns the samples and the loop's wall seconds.
    """
    from repro import simulate
    from repro.spec.facade import last_timing

    modes = (untraced, tracing) if traced else (untraced,)
    samples: List[Sample] = []
    start = _clock()
    i = 0
    while i < len(grid) or _clock() - start < budget_s:
        bench, scheme = grid[i % len(grid)]
        label = point_label(bench, scheme)
        point = f"{label}#{i}"
        for mode in modes:
            result = error = None
            with mode() as span, span("point", point=point):
                t0 = _clock()
                try:
                    result = simulate(bench, scheme, seed=seed)
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    error = f"{type(exc).__name__}: {exc}"
                host_s = _clock() - t0
            timing = last_timing() or {}
            samples.append(
                Sample(label, point, host_s,
                       timing.get("resolve_seconds", 0.0),
                       result, error, span is not no_span)
            )
        i += 1
    return samples, _clock() - start


# ----------------------------------------------------------------------
# campaign-table1 loop
# ----------------------------------------------------------------------
class FreshPairs:
    """Guard: every pass's ``(bench, seed)`` pairs are new to this process.

    A pair this process already generated would sit in its workload
    cache, and the default backend forks its workers from here, so they
    would inherit the trace instead of building it.
    """

    def __init__(self) -> None:
        self.seen = set()

    def check(self, points) -> None:
        from repro.workloads import _WORKLOAD_CACHE, trace_build_counts

        pairs = {p.trace_key for p in points}
        cached = {(name, seed) for name, seed, _ in _WORKLOAD_CACHE}
        stale = pairs & (self.seen | cached | set(trace_build_counts()))
        if stale:
            raise BenchError(
                f"campaign pass reuses (bench, seed) pairs {sorted(stale)}"
            )
        self.seen |= pairs


class Pass(NamedTuple):
    index: int
    seed: int
    wall_s: float
    runs: list  # CampaignRun, submission order
    backend: str
    serial_fallbacks: int
    traced: bool


class FailedPoint(NamedTuple):
    index: int  # the pass
    point: object  # CampaignPoint
    error: str


def run_campaigns(
    seed: int,
    budget_s: float,
    workdir: str,
    min_passes: int,
    traced: bool = False,
    after_traced: Optional[Callable[[Pass], None]] = None,
) -> Tuple[List[Pass], List[FailedPoint]]:
    """Run campaign passes until the next one would overrun *budget_s*.

    At least *min_passes* passes run, unless a pass fails: a
    ``CampaignError`` ends the loop, and the points it names are
    returned beside the passes that completed.  With *traced*, passes
    alternate untraced and traced, so both see the same host state;
    *after_traced* runs after each traced pass, outside the timed region.
    """
    from repro.analysis.campaign import Campaign, CampaignError, run_campaign
    from repro.telemetry import metrics

    guard = FreshPairs()
    fallbacks = metrics.counter("process.serial_fallbacks_total")
    passes: List[Pass] = []
    spent = 0.0
    k = 0
    while len(passes) < min_passes or spent + passes[-1].wall_s <= budget_s:
        is_traced = traced and k % 2 == 1
        mode = tracing() if is_traced else untraced()
        pseed = pass_seed(seed, k)
        points = campaign_points(pseed)
        guard.check(points)
        backend = Campaign(points, workers=CAMPAIGN_JOBS).resolve_backend()
        if backend.name != "process":
            # Only the process backend is known to keep no result memo.
            raise BenchError(
                f"default campaign backend is {backend.name!r}, not 'process'"
            )
        store = os.path.join(workdir, f"store-{pseed}.json")
        f0 = fallbacks.value
        try:
            with mode as span, span("analysis.campaign", point=f"pass{k}"):
                t0 = _clock()
                out = run_campaign(points, workers=CAMPAIGN_JOBS, store=store)
                wall = _clock() - t0
        except CampaignError as err:
            return passes, [FailedPoint(k, p, e) for p, e in err.failures]
        finally:
            if os.path.exists(store):
                os.remove(store)
        if out.n_cached or out.n_simulated != len(points):
            raise BenchError(
                f"campaign pass {k} reused {out.n_cached} stored result(s)"
            )
        done = Pass(k, pseed, wall, list(out.results), backend.name,
                    fallbacks.value - f0, is_traced)
        passes.append(done)
        spent += wall
        if is_traced and after_traced is not None:
            after_traced(done)
        k += 1
    return passes, []
