"""Unit tests for the columnar trace buffer and steering memo.

``TraceColumns`` is the one in-memory form of a committed trace; these
tests pin the record view rebuilt from it against a fresh executor,
the ``.rtrace`` array decode path, in-place extension across the
shared trace's growth chunks, the frozen-length contract, engine
equivalence on an imported trace, and the slice-steering memoisation
counters it enabled (surfaced through ``repro.telemetry.metrics``).
"""

import pytest

from repro.core.slices import SliceFlagTable
from repro.core.steering import make_steering
from repro.errors import ScenarioError
from repro.pipeline import Processor, ProcessorConfig
from repro.scenarios import export_trace, import_trace
from repro.workloads import TraceColumns, workload
from repro.workloads.columns import CONDITIONAL, CONTROL, MEMORY, TAKEN
from repro.workloads.trace import _EXTEND_CHUNK, SharedTrace, TraceExecutor

N_RECORDS = 600


@pytest.fixture(scope="module")
def shared():
    trace = workload("gcc", seed=0).shared_trace()
    trace.record(N_RECORDS - 1)  # materialise at least N_RECORDS
    return trace


class TestRoundTrip:
    def test_record_view_matches_executor(self, shared):
        cols = shared.columns()
        n = len(cols)
        assert n >= N_RECORDS
        fresh = TraceExecutor(shared.program, shared.seed).take(n)
        assert [shared.record(i) for i in range(n)] == fresh

    def test_from_arrays_rebuilds_identical_columns(self, shared):
        cols = shared.columns()
        n = min(len(cols), N_RECORDS)
        taken = [(f & TAKEN) != 0 for f in cols.flags[:n]]
        rebuilt = TraceColumns.from_arrays(
            shared.program, cols.pcs[:n], taken, cols.mem_addrs[:n]
        )
        assert rebuilt.pcs == cols.pcs[:n]
        assert rebuilt.flags == cols.flags[:n]
        assert rebuilt.mem_addrs == cols.mem_addrs[:n]
        assert rebuilt.insts == cols.insts[:n]

    def test_flags_encode_instruction_kind(self, shared):
        cols = shared.columns()
        for inst, flags in zip(cols.insts, cols.flags):
            assert bool(flags & CONTROL) == inst.is_control
            assert bool(flags & CONDITIONAL) == inst.is_conditional
            assert bool(flags & MEMORY) == inst.is_memory

    def test_line_ids_match_pcs(self, shared):
        cols = shared.columns()
        line_bytes = 32
        assert cols.line_ids(line_bytes) == [
            pc // line_bytes for pc in cols.pcs
        ]

    def test_fixed_length_columns_refuse_extension(self, shared):
        cols = shared.columns()
        n = len(cols)
        taken = [(f & TAKEN) != 0 for f in cols.flags]
        fixed = TraceColumns.from_arrays(
            shared.program, cols.pcs, taken, cols.mem_addrs
        )
        fixed.require(n)  # exactly what is there: fine
        with pytest.raises(ScenarioError):
            fixed.require(n + 1)


class TestOneBuffer:
    """The shared trace's column set is its only record store."""

    def test_live_trace_extends_across_chunk_boundary(self):
        wl = workload("li", seed=3)
        trace = SharedTrace(wl.program, wl.seed)  # private, unshared
        cols = trace.columns()
        trace.record(0)  # first chunk
        assert len(cols) == _EXTEND_CHUNK
        lines = cols.line_ids(32)
        assert len(lines) == _EXTEND_CHUNK
        cols.require(_EXTEND_CHUNK + 1)  # crosses into the second chunk
        n = len(cols)
        assert n == 2 * _EXTEND_CHUNK
        assert trace.columns() is cols  # pinned, not rebuilt
        assert cols.line_ids(32) is lines  # extended in place...
        assert lines == [pc // 32 for pc in cols.pcs]  # ...and correct
        fresh = TraceExecutor(wl.program, wl.seed).take(n)
        assert [trace.record(i) for i in range(n)] == fresh

    def test_engines_agree_on_imported_trace(self, tmp_path):
        path = str(tmp_path / "gcc.rtrace")
        export_trace(workload("gcc", seed=0), path, 1200, cushion=400)
        imported = import_trace(path)

        def run(engine, n):
            processor = Processor(
                imported,
                ProcessorConfig.default(),
                make_steering("general-balance"),
                dispatch=engine,
            )
            return processor.run(n, warmup=300)

        assert run("columnar", 1000) == run("object", 1000)
        errors = []
        for engine in ("columnar", "object"):
            with pytest.raises(ScenarioError, match="re-export") as info:
                run(engine, 5000)  # window outruns the frozen trace
            errors.append(str(info.value))
        assert errors[0] == errors[1]


class TestSteeringMemo:
    def test_flag_table_version_counts_new_flags_only(self):
        flags = SliceFlagTable("ldst")
        assert flags.version == 0

        class _Dyn:
            def __init__(self, pc, cls):
                self.pc = pc
                self.cls = cls
                self.inst = self

        from repro.isa import InstrClass

        class _Parents:
            def parents_of(self, dyn):
                return ()

        load = _Dyn(0x100, InstrClass.LOAD)
        flags.observe(load, _Parents())
        assert flags.version == 1
        # Re-observing the same pc adds no flag: version must not move
        # (a moving version would needlessly flush the steering memos).
        flags.observe(load, _Parents())
        assert flags.version == 1

    def test_memo_counters_surface_in_metrics(self):
        from repro.telemetry import metrics

        hits0 = metrics.counter("steering.memo.hits").value
        misses0 = metrics.counter("steering.memo.misses").value
        processor = Processor(
            workload("gcc", seed=0),
            ProcessorConfig.default(),
            make_steering("ldst-slice"),
            dispatch="columnar",
        )
        processor.run(2000, warmup=200)
        hits = metrics.counter("steering.memo.hits").value - hits0
        misses = metrics.counter("steering.memo.misses").value - misses0
        assert misses > 0  # first sight of each pc misses
        assert hits > 0  # loops revisit pcs and hit the memo
        # Every steerable instruction consulted the memo exactly once.
        assert hits + misses > 0

    def test_memo_not_consulted_by_unmemoised_scheme(self):
        from repro.telemetry import metrics

        hits0 = metrics.counter("steering.memo.hits").value
        misses0 = metrics.counter("steering.memo.misses").value
        processor = Processor(
            workload("gcc", seed=0),
            ProcessorConfig.default(),
            make_steering("general-balance"),
            dispatch="columnar",
        )
        processor.run(1000, warmup=100)
        assert metrics.counter("steering.memo.hits").value == hits0
        assert metrics.counter("steering.memo.misses").value == misses0
