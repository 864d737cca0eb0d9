"""Unit tests for machine configurations (Table 2)."""

import pytest

from repro.errors import ConfigError
from repro.pipeline import ClusterConfig, ProcessorConfig


class TestDefault:
    def test_table2_values(self):
        config = ProcessorConfig.default()
        assert config.fetch_width == 8
        assert config.decode_width == 8
        assert config.retire_width == 8
        assert config.max_in_flight == 64
        c0, c1 = config.clusters
        assert c0.iq_size == c1.iq_size == 64
        assert c0.issue_width == c1.issue_width == 4
        assert c0.n_simple_alu == c1.n_simple_alu == 3
        assert c0.has_complex_int and not c1.has_complex_int
        assert c1.n_fp_alu == 3 and c1.has_fp_complex
        assert c0.phys_regs == c1.phys_regs == 96
        assert config.bypass_ports == 3
        assert config.bypass_latency == 1
        assert config.dcache_ports == 3

    def test_imbalance_parameters_match_paper(self):
        config = ProcessorConfig.default()
        assert config.imbalance_window == 16
        assert config.imbalance_threshold == 8

    def test_cache_geometry(self):
        config = ProcessorConfig.default()
        assert (config.l1d.size_kb, config.l1d.assoc, config.l1d.line_bytes) == (64, 2, 32)
        assert (config.l2.size_kb, config.l2.assoc, config.l2.line_bytes) == (256, 4, 64)


class TestBaseline:
    def test_no_simple_int_in_fp_cluster(self):
        config = ProcessorConfig.baseline()
        assert config.clusters[1].n_simple_alu == 0

    def test_no_bypasses(self):
        config = ProcessorConfig.baseline()
        assert not config.allow_copies
        assert config.bypass_ports == 0


class TestUpperBound:
    def test_doubled_integer_throughput(self):
        config = ProcessorConfig.upper_bound()
        assert config.clusters[0].issue_width == 8
        assert config.clusters[0].n_simple_alu == 6
        assert not config.allow_copies  # no communication penalty needed


class TestFifoVariant:
    def test_with_fifo_issue(self):
        config = ProcessorConfig.default().with_fifo_issue()
        assert config.fifo_issue
        assert config.n_fifos == 8
        assert config.fifo_depth == 8
        assert "fifo" in config.name


class TestValidation:
    def test_two_clusters_required(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(clusters=(ClusterConfig(has_complex_int=True),))

    def test_cluster0_needs_complex_unit(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(
                clusters=(
                    ClusterConfig(),
                    ClusterConfig(n_fp_alu=3),
                )
            )

    def test_cluster1_needs_fp_units(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(
                clusters=(
                    ClusterConfig(has_complex_int=True),
                    ClusterConfig(),
                )
            )

    def test_cluster_needs_arch_registers(self):
        with pytest.raises(ConfigError):
            ClusterConfig(phys_regs=16)

    def test_positive_widths(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(fetch_width=0)
        with pytest.raises(ConfigError):
            ClusterConfig(issue_width=0)


class TestFifoGeometry:
    """FIFO windows that can never dispatch are rejected up front."""

    def _fifo_machine(self, **overrides):
        from repro.spec import apply_overrides, machine_config

        return apply_overrides(
            machine_config("clustered-fifo"), list(overrides.items())
        )

    @pytest.mark.parametrize("n_fifos", [1, 0, -3])
    def test_too_few_fifos_rejected(self, n_fifos):
        # An instruction with two remote operands needs two copies, each
        # in an empty FIFO of the other cluster: one FIFO wedges dispatch.
        with pytest.raises(ConfigError, match="n_fifos") as info:
            self._fifo_machine(n_fifos=n_fifos)
        assert "copies" in str(info.value)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_empty_fifos_rejected(self, depth):
        with pytest.raises(ConfigError, match="fifo_depth"):
            self._fifo_machine(fifo_depth=depth)

    def test_smallest_valid_geometry(self):
        config = self._fifo_machine(n_fifos=2, fifo_depth=1)
        assert (config.n_fifos, config.fifo_depth) == (2, 1)

    def test_cli_reports_config_error(self, capsys):
        from repro.cli import main

        assert main(["run", "-b", "gcc", "-s", "fifo", "-O", "n_fifos=1",
                     "-n", "200", "-w", "50"]) == 2
        captured = capsys.readouterr()
        assert "n_fifos" in captured.err
        assert captured.out == ""
        # Every subcommand reports a ConfigError the same way.
        assert main(["campaign", "-b", "gcc", "-s", "fifo", "-O",
                     "n_fifos=1", "-n", "200", "-w", "50"]) == 2
        assert "n_fifos" in capsys.readouterr().err

    def test_cli_exits_without_traceback(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "-b", "gcc", "-s",
             "fifo", "-O", "fifo_depth=0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "fifo_depth" in proc.stderr
        assert "Traceback" not in proc.stderr
