"""Cycle-exactness of the columnar engine against the object engine.

``Processor`` runs one of two engines, chosen by ``dispatch=`` or
``REPRO_DISPATCH``: the columnar engine (the default — columnar fetch,
fused dispatch over the flat presence masks, event-driven wakeup/select,
flattened commit) and the frozen object engine (record fetch, the
per-instruction plan/feasible/reserve/rename dispatch, a full window
re-scan every cycle, the reference commit).  The columnar engine is a
pure performance rework: it must produce *bit-identical* results to the
object engine, cycle for cycle, on every scheme and machine.  These
tests pin that on the smoke-suite workloads across the full scheme
registry, every Table 2 machine, FIFO windows on every ablation machine,
and the ablation families — including the zero-latency bypass edge case,
where a copy completes in the very cycle it issues and its remote
consumer must become selectable within the same cycle.

``SimResult`` equality covers every statistic the model reports: IPC
and cycle counts, copies created/issued/critical, the ready-count
balance histogram, replication, ROB/IQ occupancy averages, stall
tallies and per-class commit counts — so any scheduling divergence,
even one that leaves IPC unchanged, fails here.
"""

import pytest

from repro.core.steering import available_schemes, make_steering
from repro.errors import ConfigError
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import DISPATCH_MODES, Processor
from repro.spec import apply_overrides, machine_config
from repro.workloads import workload

#: Smoke-suite measurement window (kept small: this file runs the full
#: scheme x machine grid on both engines).
N_INSTRUCTIONS = 800
WARMUP = 200

BENCHES = ["gcc", "pchase-heavy"]


def run_with(engine, bench, scheme_name, machine_name, fifo=False):
    wl = workload(bench, seed=0)
    config = machine_config(machine_name)
    scheme = make_steering(scheme_name)
    if (fifo or scheme.requires_fifo_issue) and not config.fifo_issue:
        config = config.with_fifo_issue()
    processor = Processor(wl, config, scheme, dispatch=engine)
    return processor.run(N_INSTRUCTIONS, warmup=WARMUP)


def assert_equivalent(bench, scheme_name, machine_name, fifo=False):
    columnar = run_with("columnar", bench, scheme_name, machine_name, fifo)
    obj = run_with("object", bench, scheme_name, machine_name, fifo)
    assert columnar == obj, (
        f"columnar engine diverged from the object engine for "
        f"({bench}, {scheme_name}, {machine_name}, fifo={fifo}): "
        f"ipc {columnar.ipc} vs {obj.ipc}, cycles {columnar.cycles} vs "
        f"{obj.cycles}"
    )


def _processor(config=None, scheme="naive", **kwargs):
    return Processor(
        workload("gcc", seed=0),
        config or ProcessorConfig.default(),
        make_steering(scheme),
        **kwargs,
    )


class TestEverySchemeOnClustered:
    """All registered schemes on the Table 2 clustered machine."""

    @pytest.mark.parametrize("scheme_name", available_schemes())
    @pytest.mark.parametrize("bench", BENCHES)
    def test_scheme_equivalent(self, bench, scheme_name):
        assert_equivalent(bench, scheme_name, "clustered")


class TestEverySchemeOnFifoWindows:
    """All registered schemes on the §3.9 FIFO-window machine."""

    @pytest.mark.parametrize("scheme_name", available_schemes())
    def test_scheme_equivalent(self, scheme_name):
        assert_equivalent("gcc", scheme_name, "clustered-fifo")


class TestEveryMachine:
    """Each registered machine under a compatible scheme."""

    @pytest.mark.parametrize(
        "scheme_name,machine_name",
        [
            ("naive", "baseline"),
            ("naive", "upper-bound"),
            ("fifo", "clustered-fifo"),
            ("general-balance", "clustered"),
        ],
    )
    @pytest.mark.parametrize("bench", BENCHES)
    def test_machine_equivalent(self, bench, scheme_name, machine_name):
        assert_equivalent(bench, scheme_name, machine_name)


class TestAblationFamilies:
    """Parametric families, including the wakeup-sensitive corners, with
    out-of-order windows and with FIFO windows."""

    @pytest.mark.parametrize(
        "machine_name",
        [
            # Zero-latency bypass: a copy completes the cycle it issues;
            # its remote consumer must wake within the same cycle.
            "bypass-latency-0",
            "bypass-latency-3",
            # One bypass port: copies stay ready-but-unissuable across
            # cycles, exercising ready-list retention.
            "bypass-ports-1",
            # Tiny windows: dispatch stalls on full queues, for
            # consumers *and* their copies.
            "iq-8",
            "iq-2",
            # Deep windows: the issue-bound regime event-driven issue
            # is built for.
            "deep-window-256",
        ],
    )
    @pytest.mark.parametrize(
        "scheme_name,fifo",
        [("general-balance", False), ("general-balance", True),
         ("fifo", True)],
    )
    @pytest.mark.parametrize("bench", BENCHES)
    def test_family_equivalent(self, bench, scheme_name, fifo, machine_name):
        assert_equivalent(bench, scheme_name, machine_name, fifo=fifo)


class TestTightFifoGeometry:
    """FIFO collections down to the smallest valid geometry: admission
    (empty-FIFO counting) stalls dispatch often, on consumers and on
    their copies, and both engines must stall identically."""

    @pytest.mark.parametrize(
        "n_fifos,fifo_depth", [(2, 1), (2, 2), (2, 8), (8, 1)]
    )
    @pytest.mark.parametrize(
        "scheme_name", ["fifo", "general-balance", "modulo"]
    )
    @pytest.mark.parametrize("bench", ["gcc", "pchase-heavy", "li"])
    def test_geometry_equivalent(self, bench, scheme_name, n_fifos,
                                 fifo_depth):
        config = apply_overrides(
            machine_config("clustered-fifo"),
            [("n_fifos", n_fifos), ("fifo_depth", fifo_depth)],
        )
        results = []
        for engine in DISPATCH_MODES:
            processor = Processor(
                workload(bench, seed=0), config, make_steering(scheme_name),
                dispatch=engine,
            )
            results.append(processor.run(N_INSTRUCTIONS, warmup=WARMUP))
        columnar, obj = results
        assert columnar.instructions >= N_INSTRUCTIONS
        assert columnar == obj


class TestEngineSelection:
    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ConfigError, match="REPRO_DISPATCH") as info:
            _processor(dispatch="vectorised")
        assert "'columnar'" in str(info.value)
        assert "'object'" in str(info.value)

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "vectorised")
        with pytest.raises(ConfigError, match="REPRO_DISPATCH"):
            _processor()

    def test_env_override_selects_object(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "object")
        assert _processor().dispatch_mode == "object"

    def test_dispatch_modes_registry(self):
        assert DISPATCH_MODES == ("columnar", "object")

    def test_columnar_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        assert _processor().dispatch_mode == "columnar"

    @pytest.mark.parametrize("scheduler_env", [None, "scan", "event"])
    def test_object_engine_is_the_reference(self, monkeypatch,
                                            scheduler_env):
        """The benchmark's reference check re-simulates with
        ``REPRO_DISPATCH=object REPRO_SCHEDULER=scan``; that must run
        object dispatch, scan issue, object commit and a scan-mode LSQ,
        whatever the (now ignored) scheduler variable says."""
        monkeypatch.setenv("REPRO_DISPATCH", "object")
        if scheduler_env is None:
            monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        else:
            monkeypatch.setenv("REPRO_SCHEDULER", scheduler_env)
        processor = _processor()
        assert processor._dispatch_stage.__func__ is Processor._dispatch
        assert processor._issue_stage.__func__ is Processor._issue_scan
        assert processor._commit_stage.__func__ is Processor._commit
        assert processor.lsq.event_driven is False

    def test_fifo_machine_runs_the_columnar_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        processor = _processor(
            config=machine_config("clustered-fifo"), scheme="fifo"
        )
        assert (
            processor._dispatch_stage.__func__
            is Processor._dispatch_columnar
        )
        assert processor._issue_stage.__func__ is Processor._issue_event
        assert (
            processor._commit_stage.__func__ is Processor._commit_columnar
        )
        assert processor.lsq.event_driven is True


class TestFullWindowEdge:
    """Dispatch must stall cleanly, not raise, when a window fills."""

    def test_tiny_window_stalls_and_completes(self):
        result = run_with("columnar", "gcc", "general-balance", "iq-2")
        # Commit retires up to retire_width per cycle, so the measured
        # window may overshoot the target by a cycle's worth.
        assert result.instructions >= N_INSTRUCTIONS
        assert result.stalls["iq"] > 0
