"""Completion calendar: the event wheel behind event-driven wakeup.

The naive issue stage re-scans every window entry and re-polls every
provider's ``complete_cycle`` each cycle — O(window x operands) per
cycle, the software analogue of the broadcast wakeup the paper's
clustered hardware is designed to avoid.  Event-driven issue (the
columnar engine) inverts the dependence: each window entry carries a pending-operand
counter (:attr:`~repro.isa.DynInst.pending_ops`), each in-flight
producer a consumer list (:attr:`~repro.isa.DynInst.waiters`), and this
calendar maps completion cycles to the producers completing then.  When
the issue stage fires a cycle, every producer bucketed there walks its
waiters, decrements their counters, and hands the newly ready ones to
the issue queues — total work proportional to the number of dependence
edges, not to window size x cycles.

Exactness invariants (these make the event path cycle-for-cycle
identical to the reference scan):

* a producer's event is registered exactly once, when its
  ``complete_cycle`` is assigned; consumers registering *after* that
  see the assigned value and never enroll for a completion in the past
  (simulated time is monotonic, so a fired event is never re-awaited);
* a completion assigned at or before the current cycle (zero-latency
  bypasses, jumps completing at dispatch) wakes its waiters
  immediately — mirroring how the reference scan observes
  ``complete_cycle <= cycle`` the moment it is written;
* waiter lists may hold duplicates (an instruction reading the same
  register twice registers twice) so the counter decrements once per
  operand, exactly like the per-operand poll it replaces.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..isa import DynInst


class WakeupCalendar:
    """Cycle-indexed event wheel keyed by ``complete_cycle``."""

    __slots__ = ("_events", "_on_ready")

    def __init__(self, on_ready: Callable[[DynInst], None]) -> None:
        #: cycle -> producers whose completion becomes visible then.
        self._events: Dict[int, List[DynInst]] = {}
        self._on_ready = on_ready

    def __len__(self) -> int:
        """Producers still scheduled to complete (diagnostics only)."""
        return sum(len(bucket) for bucket in self._events.values())

    # ------------------------------------------------------------------
    def complete(self, dyn: DynInst, complete_cycle: int, now: int) -> None:
        """Record that *dyn* completes at *complete_cycle* (assigned at
        cycle *now*).

        Future completions are bucketed for :meth:`fire`; completions at
        or before *now* (zero-latency paths) wake their waiters on the
        spot.
        """
        dyn.complete_cycle = complete_cycle
        if complete_cycle > now:
            bucket = self._events.get(complete_cycle)
            if bucket is None:
                self._events[complete_cycle] = [dyn]
            else:
                bucket.append(dyn)
        else:
            self.wake(dyn)

    def fire(self, cycle: int) -> None:
        """Deliver every completion scheduled for *cycle*.

        The issue stage calls this once per cycle before selecting, so a
        bucket is only ever popped for the cycle being simulated — events
        are always registered strictly before their cycle fires.
        """
        producers = self._events.pop(cycle, None)
        if producers is not None:
            wake = self.wake
            for producer in producers:
                wake(producer)

    def wake(self, producer: DynInst) -> None:
        """Decrement every waiter of *producer*; report the newly ready."""
        waiters = producer.waiters
        if waiters is None:
            return
        producer.waiters = None
        on_ready = self._on_ready
        for waiter in waiters:
            waiter.pending_ops -= 1
            if not waiter.pending_ops:
                on_ready(waiter)
