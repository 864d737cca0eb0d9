"""FIFO-collection issue queue (Palacharla, Jouppi & Smith [15]).

Section 3.9 of the paper compares its steering schemes against the
complexity-effective design where each cluster's window is a collection of
FIFOs (8 FIFOs, each 8 deep, per cluster) and only FIFO *heads* are
candidates for issue.  The steering invariant is that a FIFO holds a chain
of dependent instructions: an instruction is appended to a FIFO whose tail
produces one of its operands; otherwise it must start an empty FIFO.

Placement (:meth:`FifoIssueQueue.insert`) follows the original paper:

1. if some source operand's producer sits at the *tail* of a non-full
   FIFO, append there (the dependence chain continues; the lowest such
   FIFO index wins);
2. otherwise take the lowest-numbered empty FIFO.

Admission (:meth:`FifoIssueQueue.can_accept`) is a separate, stricter
rule: dispatch reserves window space *before* renaming, when an
instruction's operand providers are not yet known, so ``can_accept(n)``
asks for *n empty FIFOs* — one per instruction or copy the queue must
take.  A tail that could chain the instruction does not admit it; once
admitted, :meth:`~FifoIssueQueue.insert` places it by the heuristic
above with its real providers, so it may still chain.

Placement is O(providers): the queue keeps a tail index (tail seq ->
FIFO index) and a min-heap of empty FIFO indices, both updated as
entries are placed and popped, so neither placement nor the steering
probe :meth:`~FifoIssueQueue.tails_producing` scans the FIFOs.

Like :class:`~repro.cluster.iq.IssueQueue`, the collection keeps an
explicit ready list for the event-driven issue stage — here restricted
to FIFO *heads* with no pending operands, since only heads are select
candidates.  Candidate order among heads is sequence order, matching the
age-ordered select, and the list is maintained incrementally (binary
insertion) rather than rebuilt per cycle.  A head exposed by an issuing
predecessor is *deferred* until the next cycle's view: the select logic
snapshots its candidates at the start of the cluster's turn, so a head
surfacing mid-selection must not compete until the following cycle.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import SimulationError
from ..isa import DynInst

_BY_SEQ = attrgetter("seq")


class FifoIssueQueue:
    """A cluster window organised as FIFOs of dependent instructions."""

    def __init__(self, n_fifos: int = 8, depth: int = 8, name: str = "fifo-iq") -> None:
        if n_fifos <= 0 or depth <= 0:
            raise SimulationError(f"{name}: FIFO geometry must be positive")
        self.depth = depth
        self.name = name
        self.capacity = n_fifos * depth
        self._fifos: List[List[DynInst]] = [[] for _ in range(n_fifos)]
        #: seq -> index of the FIFO holding the entry (O(1) remove).
        self._where: Dict[int, int] = {}
        #: tail seq -> index of the (non-empty) FIFO it ends.
        self._tails: Dict[int, int] = {}
        #: Indices of the empty FIFOs, a min-heap (sorted is a heap).
        self._empty: List[int] = list(range(n_fifos))
        #: Ready heads as (seq, head), kept sorted by seq.
        self._ready: List[Tuple[int, DynInst]] = []
        #: Heads exposed by an issue this cycle; enrolled at next view.
        self._deferred: List[DynInst] = []
        self._size = 0

    # ------------------------------------------------------------------
    # Capacity / placement
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[DynInst]:
        for fifo in self._fifos:
            yield from fifo

    def can_accept(self, n: int = 1) -> bool:
        """True when *n* FIFOs are empty (the admission rule; see the
        module docstring)."""
        return len(self._empty) >= n

    def placement_for(self, dyn: DynInst) -> Optional[int]:
        """FIFO index the heuristic would place *dyn* in, or ``None``."""
        fifos = self._fifos
        tails = self._tails
        chosen = None
        for p in dyn.providers:
            index = tails.get(p.seq)
            if index is not None and (chosen is None or index < chosen):
                fifo = fifos[index]
                if fifo[-1] is p and len(fifo) < self.depth:
                    chosen = index
        if chosen is None and self._empty:
            chosen = self._empty[0]
        return chosen

    def insert(self, dyn: DynInst) -> bool:
        """Place *dyn* by the heuristic; ``False`` when no FIFO can take it."""
        index = self.placement_for(dyn)
        if index is None:
            return False
        fifo = self._fifos[index]
        if fifo:
            del self._tails[fifo[-1].seq]
        else:
            heappop(self._empty)  # placement takes the lowest empty FIFO
        fifo.append(dyn)
        self._tails[dyn.seq] = index
        self._where[dyn.seq] = index
        self._size += 1
        if len(fifo) == 1 and not dyn.pending_ops:
            insort(self._ready, (dyn.seq, dyn))
        return True

    def remove(self, dyn: DynInst) -> None:
        """Remove an issued instruction; it must be a FIFO head."""
        index = self._where.get(dyn.seq)
        if index is None or self._fifos[index][0] is not dyn:
            raise SimulationError(
                f"{self.name}: removing instruction that is not a FIFO head"
            )
        self._pop_head(index, dyn)
        if self._ready:
            try:
                self._ready.remove((dyn.seq, dyn))
            except ValueError:
                pass
        if self._deferred:
            try:
                self._deferred.remove(dyn)
            except ValueError:
                pass

    def _pop_head(self, index: int, dyn: DynInst) -> None:
        """Drop the head of FIFO *index*, deferring the successor head."""
        fifo = self._fifos[index]
        fifo.pop(0)
        del self._where[dyn.seq]
        self._size -= 1
        if fifo:
            head = fifo[0]
            if not head.pending_ops:
                self._deferred.append(head)
        else:
            del self._tails[dyn.seq]
            heappush(self._empty, index)

    # ------------------------------------------------------------------
    # Ready-list view (event-driven issue)
    # ------------------------------------------------------------------
    def mark_ready(self, dyn: DynInst) -> None:
        """Wakeup callback: ready only if *dyn* currently heads its FIFO."""
        index = self._where.get(dyn.seq)
        if index is not None and self._fifos[index][0] is dyn:
            insort(self._ready, (dyn.seq, dyn))

    def ready_view(self) -> List[Tuple[int, DynInst]]:
        """The live ``(seq, head)`` candidate list, oldest first.

        Heads deferred by earlier issues are enrolled here — i.e. at the
        start of the cluster's next selection turn.  The issue stage
        iterates the view by index and removes issued entries via
        :meth:`issue_ready`; other callers must treat it as read-only.
        """
        deferred = self._deferred
        if deferred:
            ready = self._ready
            for head in deferred:
                insort(ready, (head.seq, head))
            deferred.clear()
        return self._ready

    def issue_ready(self, index: int) -> None:
        """Remove ready candidate *index* (it issued) from its FIFO."""
        _, dyn = self._ready.pop(index)
        self._pop_head(self._where[dyn.seq], dyn)

    @property
    def ready_count(self) -> int:
        """FIFO heads whose operands are all complete (deferred included)."""
        return len(self._ready) + len(self._deferred)

    def ready_oldest_first(self) -> List[DynInst]:
        """Ready FIFO heads, oldest first — the issue candidates."""
        return [dyn for _, dyn in self.ready_view()]

    # ------------------------------------------------------------------
    # Issue-side view
    # ------------------------------------------------------------------
    def entries_oldest_first(self) -> List[DynInst]:
        """Issue candidates: the FIFO heads, oldest first."""
        heads = [fifo[0] for fifo in self._fifos if fifo]
        heads.sort(key=_BY_SEQ)
        return heads

    def tails_producing(self, provider: DynInst) -> bool:
        """True when *provider* is currently some FIFO's tail (used by the
        cross-cluster steering heuristic to prefer this cluster)."""
        index = self._tails.get(provider.seq)
        return index is not None and self._fifos[index][-1] is provider

    def occupancy(self) -> int:
        """Total instructions queued (load-balance signal)."""
        return self._size
