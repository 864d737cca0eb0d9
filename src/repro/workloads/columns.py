"""Structure-of-arrays form of a committed trace: the one trace buffer.

:class:`TraceColumns` holds one workload's committed path as parallel
arrays — static :class:`~repro.isa.Instruction` references, program
counters, packed per-record flags and memory addresses — instead of a
list of per-record tuples.  It is the only in-memory form of a
committed trace.  The fetch and dispatch hot paths index these arrays
directly; the reference engine reads
:class:`~repro.workloads.trace.TraceRecord` tuples that
:meth:`SharedTrace.record <repro.workloads.trace.SharedTrace.record>`
builds from them on demand.

A column set is filled one of two ways:

* a live :class:`~repro.workloads.trace.SharedTrace` owns one and
  appends executor output to it through :meth:`TraceColumns.extend`,
  growing on demand as consumers run past the decoded prefix;
* :meth:`TraceColumns.from_arrays` decodes an ``.rtrace`` document's
  ``pc``/``taken``/``addr`` columns straight into a fixed-length set,
  which an imported :class:`~repro.scenarios.rtrace.FrozenTrace` pins.

The numpy kernel (bulk line-id computation for the I-cache line checks)
is optional: it engages only when numpy is importable, only for the
initial bulk build, and produces exactly the integers the pure-Python
fallback does.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..errors import ScenarioError

try:  # Optional bulk-build kernel; the container may lack numpy.
    import numpy as _np
except ImportError:  # pragma: no cover - environment-dependent
    _np = None

#: Packed per-record flag bits (``TraceColumns.flags``).
TAKEN = 1
CONTROL = 2
CONDITIONAL = 4
MEMORY = 8


def _base_flags(inst) -> int:
    """The static (taken-independent) flag bits of one instruction."""
    base = 0
    if inst.is_control:
        base |= CONTROL
    if inst.is_conditional:
        base |= CONDITIONAL
    if inst.is_memory:
        base |= MEMORY
    return base


class TraceColumns:
    """Parallel per-record arrays over one committed instruction stream.

    Attributes (all lists of equal length, one entry per record):

    ``insts``
        The static :class:`~repro.isa.Instruction` at each record.
    ``pcs``
        Program counter of each record.
    ``flags``
        Packed ``TAKEN | CONTROL | CONDITIONAL | MEMORY`` bits.
    ``mem_addrs``
        Effective address for memory records (0 otherwise).

    Plain Python lists are deliberate: the hot loops index one element
    at a time, where list indexing beats numpy scalar access.  numpy is
    used only for the bulk :meth:`line_ids` build.
    """

    __slots__ = (
        "program",
        "insts",
        "pcs",
        "flags",
        "mem_addrs",
        "_per_pc",
        "_line_cache",
        "_trace",
    )

    def __init__(self, program, trace=None) -> None:
        self.program = program
        self.insts: List[object] = []
        self.pcs: List[int] = []
        self.flags: List[int] = []
        self.mem_addrs: List[int] = []
        #: pc -> (instruction, base flags) build cache.
        self._per_pc: Dict[int, tuple] = {}
        #: line_bytes -> per-record I-cache line ids (extended in step
        #: with the record columns, so cached lists stay valid).
        self._line_cache: Dict[int, List[int]] = {}
        #: Owning trace, asked to extend the columns on demand
        #: (None = fixed length).
        self._trace = trace

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        program,
        pcs: Sequence[int],
        taken: Sequence[int],
        addrs: Sequence[int],
    ) -> "TraceColumns":
        """Decode ``.rtrace`` record columns directly (no TraceRecords).

        The arrays are the wire format of the ``records`` section of an
        ``.rtrace`` document; the result is a fixed-length column set
        (reading past the end raises :class:`ScenarioError`).
        """
        self = cls(program)
        info = self._pc_info
        self.extend(
            (info(pc)[0], t, addr) for pc, t, addr in zip(pcs, taken, addrs)
        )
        return self

    def _pc_info(self, pc: int) -> tuple:
        """(instruction, base flags) of *pc*, cached."""
        tup = self._per_pc.get(pc)
        if tup is None:
            inst = self.program.instruction_at(pc)
            tup = self._per_pc[pc] = (inst, _base_flags(inst))
        return tup

    # ------------------------------------------------------------------
    # Extension protocol
    # ------------------------------------------------------------------
    def extend(self, records: Iterable) -> None:
        """Append ``(inst, taken, mem_addr)`` records to the columns.

        Cached :meth:`line_ids` lists are extended in place, so hot
        loops may hold a reference across extensions.
        """
        info = self._pc_info
        out_insts = self.insts
        out_pcs = self.pcs
        out_flags = self.flags
        out_addrs = self.mem_addrs
        start = len(out_pcs)
        for inst, taken, mem_addr in records:
            pc = inst.pc
            base = info(pc)[1]
            out_insts.append(inst)
            out_pcs.append(pc)
            out_flags.append(base | TAKEN if taken else base)
            out_addrs.append(mem_addr)
        if self._line_cache:
            new_pcs = out_pcs[start:]
            for line_bytes, ids in self._line_cache.items():
                ids.extend(pc // line_bytes for pc in new_pcs)

    def require(self, n: int) -> None:
        """Make at least *n* records available, or raise.

        Mirrors the timing of the reference engine's record fetch: the
        owning trace extends (in the chunks
        :meth:`~repro.workloads.trace.SharedTrace.record` uses) or, when
        frozen, raises :class:`~repro.errors.ScenarioError`.
        """
        if n <= len(self.pcs):
            return
        if self._trace is None:
            raise ScenarioError(
                f"trace columns hold {len(self.pcs)} records but {n} "
                f"were requested"
            )
        self._trace.record(n - 1)  # extends (chunked) or raises

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    def line_ids(self, line_bytes: int) -> List[int]:
        """Per-record I-cache line ids (``pc // line_bytes``), cached.

        The cached list is extended in place by :meth:`extend`, so hot
        loops may hold a reference across extensions.  The initial bulk
        build vectorises through numpy when available.
        """
        ids = self._line_cache.get(line_bytes)
        if ids is None:
            if _np is not None and len(self.pcs) > 512:
                ids = (
                    _np.asarray(self.pcs, dtype=_np.int64) // line_bytes
                ).tolist()
            else:
                ids = [pc // line_bytes for pc in self.pcs]
            self._line_cache[line_bytes] = ids
        return ids

    def __len__(self) -> int:
        return len(self.pcs)

    def __repr__(self) -> str:
        name = getattr(self.program, "name", "?")
        return f"<TraceColumns {name!r} n={len(self.pcs)}>"
