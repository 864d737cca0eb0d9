"""Per-layer spans recorded from the benchmark's side of each layer boundary.

Nothing here edits the simulator's source.  A traced run swaps
``repro.pipeline.processor.Processor`` for a subclass that times its own
construction and ``run()``, and wraps the five stage callables that
``Processor.step()`` looks up on the instance every cycle
(``_commit_stage``, ``lsq.step``, ``_issue_stage``, ``_dispatch_stage``,
``_fetch``).  ``simulate()`` and campaign workers resolve ``Processor``
from that module at call time, so both pick the subclass up; forked
campaign workers inherit it.

Spans are the simulator's own :mod:`repro.telemetry.tracing` spans:
name, trace id, span id, parent, start and duration.  They go through
its JSON-lines log sink to one file per traced run (:func:`open_sink`),
which forked campaign workers append to as well, and are read back with
:func:`repro.telemetry.tracing.load_spans`.  Every span carries a
``point`` attr shared by all spans of one simulated point.  Stage spans
happen once per simulated cycle, about ten thousand per point, so each
stage keeps only its call count and summed duration, as the ``stages``
attr of the ``run()`` span that encloses them.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Stage callables on a Processor instance -> the layer metric they feed.
#: ``lsq.step`` lives on the disambiguation queue and is handled apart.
STAGE_ATTRS = (
    ("_commit_stage", "pipeline.commit"),
    ("_issue_stage", "pipeline.issue"),
    ("_dispatch_stage", "pipeline.dispatch"),
    ("_fetch", "frontend.fetch"),
)
LSQ_STAGE = "memory.lsq"
STAGES = tuple(name for _, name in STAGE_ATTRS) + (LSQ_STAGE,)

_clock = time.perf_counter


def _timed(fn, acc):
    """Wrap a one-argument stage callable; add its calls/seconds to *acc*."""

    def stage(cycle):
        t0 = _clock()
        out = fn(cycle)
        acc[1] += _clock() - t0
        acc[0] += 1
        return out

    return stage


def open_sink(path: str) -> None:
    """Send the simulator's telemetry, spans included, to *path* (emptied).

    The sink's session line is written here, before any worker forks:
    workers inherit a sink that has it and so never run its provenance
    probe inside a timed point.
    """
    from repro.telemetry import log

    if os.path.exists(path):
        os.remove(path)
    log.configure(level="info", file=path)
    log.get_logger("perfbench").info("perfbench.trace")
    log.flush()


def close_sink() -> None:
    from repro.telemetry import log

    log.flush()
    log.configure(level="off", file="")


@contextmanager
def span(name: str, point: Optional[str] = None, **attrs):
    """Record the enclosed block as a child of the current span.

    Yields the span's attrs, which may be filled in until the block
    ends.  Without *point* the span takes its parent's.
    """
    from repro.telemetry import tracing

    parent = tracing.current_span()
    if point is None and parent is not None:
        point = parent.attrs.get("point")
    sp = tracing.start_span(name, parent=parent, point=point, **attrs)
    try:
        with tracing.activate(sp):
            yield sp.attrs
    except BaseException as exc:
        sp.end(status="error", error=f"{type(exc).__name__}: {exc}")
        raise
    sp.end()


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Span id -> duration minus the part of it its children cover.

    Children are the spans whose parent is the span, plus the
    aggregated ``stages`` a ``run()`` span carries (stage calls are
    sequential inside one cycle, so their summed time is their
    coverage).
    """
    children: Dict[str, list] = {}
    for s in spans:
        if s.get("parent_id"):
            children.setdefault(s["parent_id"], []).append(
                (s["start"], s["start"] + s["duration"])
            )
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c0, c1 in sorted(children.get(s["span_id"], ())):
            c0 = max(c0, cursor)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        stages = (s.get("attrs") or {}).get("stages") or {}
        covered += sum(t for _, t in stages.values())
        out[s["span_id"]] = s["duration"] - covered
    return out


def install():
    """Route every new Processor through the traced subclass and time
    campaign store writes.

    Returns a callable that restores both.
    """
    from repro.analysis.campaign import CampaignResults
    from repro.pipeline import processor as module
    from repro.telemetry import log, metrics

    base = module.Processor
    owner = os.getpid()
    hits = metrics.counter("steering.memo.hits")
    misses = metrics.counter("steering.memo.misses")

    class TracedProcessor(base):
        def __init__(self, workload, config, steering, *args, **kwargs):
            # In a campaign worker the open span is the whole campaign,
            # so name the point here; in-process the caller's span does.
            self._perfbench_point = (
                f"{workload.name}/{getattr(steering, 'name', '?')}"
                f"@{workload.seed}" if os.getpid() != owner else None
            )
            with span("pipeline.construct", point=self._perfbench_point):
                super().__init__(workload, config, steering, *args, **kwargs)
            self._perfbench_stages = stages = {n: [0, 0.0] for n in STAGES}
            for attr, name in STAGE_ATTRS:
                setattr(self, attr, _timed(getattr(self, attr), stages[name]))
            self.lsq.step = _timed(self.lsq.step, stages[LSQ_STAGE])

        def run(self, n_instructions, warmup=0):
            h0, m0 = hits.value, misses.value
            with span("pipeline.run", point=self._perfbench_point) as attrs:
                result = super().run(n_instructions, warmup=warmup)
                attrs["stages"] = self._perfbench_stages
                attrs["cycles"] = self.cycle
                attrs["memo_hits"] = hits.value - h0
                attrs["memo_misses"] = misses.value - m0
            if os.getpid() != owner:
                # The worker may exit without running atexit handlers.
                log.flush()
            return result

    save = CampaignResults.save

    def traced_save(self, path):
        with span("analysis.store_save"):
            return save(self, path)

    module.Processor = TracedProcessor
    CampaignResults.save = traced_save

    def uninstall():
        module.Processor = base
        CampaignResults.save = save

    return uninstall
