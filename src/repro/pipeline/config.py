"""Processor configurations (Table 2 of the paper).

Three machines appear in the evaluation:

* :meth:`ProcessorConfig.default` — the clustered machine: two 4-issue
  clusters, each with 3 simple integer ALUs; cluster 0 adds the complex
  integer unit, cluster 1 the FP units; 64-entry queues, 96 physical
  registers per cluster, 3 inter-cluster bypasses per direction at
  1-cycle latency.
* :meth:`ProcessorConfig.baseline` — the conventional reference: the same
  resources but *no* simple integer capability in the FP cluster and *no*
  inter-cluster bypasses (communication only through memory).
* :meth:`ProcessorConfig.upper_bound` — the 16-way machine (8 integer +
  8 FP issue) used in Figure 14; same integer throughput as the clustered
  machine but without any communication penalty.

These three (plus parametric ablation variants) are registered by name
in :mod:`repro.spec.machines`; experiment-facing code resolves machine
strings through that registry and varies fields via the dotted-path
overrides of :mod:`repro.spec.overrides` rather than constructing
configs by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from ..errors import ConfigError


@dataclass(frozen=True)
class ClusterConfig:
    """Execution resources of one cluster."""

    iq_size: int = 64
    issue_width: int = 4
    n_simple_alu: int = 3
    has_complex_int: bool = False
    n_fp_alu: int = 0
    has_fp_complex: bool = False
    phys_regs: int = 96

    def __post_init__(self) -> None:
        if self.iq_size <= 0 or self.issue_width <= 0:
            raise ConfigError("cluster window/width must be positive")
        if self.phys_regs < 32:
            raise ConfigError(
                "each cluster needs at least 32 physical registers to hold "
                "architectural state"
            )


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_kb: int
    assoc: int
    line_bytes: int

    def __post_init__(self) -> None:
        if self.size_kb <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError(
                "cache size/associativity/line size must be positive"
            )
        if self.size_kb * 1024 < self.assoc * self.line_bytes:
            raise ConfigError(
                "cache must hold at least one set "
                f"({self.size_kb}KB < {self.assoc} ways x "
                f"{self.line_bytes}B lines)"
            )


@dataclass(frozen=True)
class ProcessorConfig:
    """Full machine description."""

    name: str = "clustered"
    fetch_width: int = 8
    decode_width: int = 8
    retire_width: int = 8
    max_in_flight: int = 64
    decode_buffer: int = 16
    clusters: Tuple[ClusterConfig, ClusterConfig] = (
        ClusterConfig(has_complex_int=True),
        ClusterConfig(n_fp_alu=3, has_fp_complex=True),
    )
    # Inter-cluster communication.
    allow_copies: bool = True
    bypass_ports: int = 3
    bypass_latency: int = 1
    # Window organisation (Palacharla-style FIFO comparison).
    fifo_issue: bool = False
    n_fifos: int = 8
    fifo_depth: int = 8
    # Front end.
    redirect_penalty: int = 2
    # Memory system.
    dcache_ports: int = 3
    max_outstanding_misses: int = 8
    l1i: CacheConfig = CacheConfig(64, 2, 32)
    l1d: CacheConfig = CacheConfig(64, 2, 32)
    l2: CacheConfig = CacheConfig(256, 4, 64)
    l1_miss_penalty: int = 6
    memory_first_chunk: int = 16
    memory_interchunk: int = 2
    bus_bytes: int = 16
    # Steering support parameters (paper §3.5: N = 16, threshold = 8).
    imbalance_window: int = 16
    imbalance_threshold: int = 8

    def __post_init__(self) -> None:
        if len(self.clusters) != 2:
            raise ConfigError("the simulated machine has exactly two clusters")
        if self.fetch_width <= 0 or self.decode_width <= 0:
            raise ConfigError("front-end widths must be positive")
        if self.max_in_flight <= 0:
            raise ConfigError("max_in_flight must be positive")
        if self.bypass_ports < 0 or self.bypass_latency < 0:
            raise ConfigError("bypass parameters must be non-negative")
        if not self.clusters[0].has_complex_int:
            raise ConfigError("cluster 0 must host the complex integer unit")
        if self.clusters[1].n_fp_alu <= 0:
            raise ConfigError("cluster 1 must host the FP units")
        if self.n_fifos < 2:
            raise ConfigError(
                f"n_fifos must be at least 2, got {self.n_fifos}: an "
                "instruction with two remote source operands needs two "
                "copies, and each copy needs an empty FIFO in the other "
                "cluster, so fewer FIFOs can wedge dispatch"
            )
        if self.fifo_depth < 1:
            raise ConfigError(
                f"fifo_depth must be at least 1, got {self.fifo_depth}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "ProcessorConfig":
        """The clustered machine of Table 2."""
        return cls()

    @classmethod
    def baseline(cls) -> "ProcessorConfig":
        """Conventional machine: no int units in the FP cluster, no
        bypasses.  Speed-ups in the paper are relative to this machine."""
        return cls(
            name="baseline",
            clusters=(
                ClusterConfig(has_complex_int=True),
                ClusterConfig(
                    n_simple_alu=0, n_fp_alu=3, has_fp_complex=True
                ),
            ),
            allow_copies=False,
            bypass_ports=0,
        )

    @classmethod
    def upper_bound(cls) -> "ProcessorConfig":
        """16-way machine (8 int + 8 FP issue), no communication penalty.

        Integer work runs in a single 8-issue cluster with doubled simple
        ALUs and windows, so no copies are ever needed — the IPC bound of
        Figure 14.
        """
        return cls(
            name="upper-bound",
            clusters=(
                ClusterConfig(
                    iq_size=128,
                    issue_width=8,
                    n_simple_alu=6,
                    has_complex_int=True,
                    phys_regs=192,
                ),
                ClusterConfig(
                    iq_size=128,
                    issue_width=8,
                    n_simple_alu=0,
                    n_fp_alu=6,
                    has_fp_complex=True,
                    phys_regs=192,
                ),
            ),
            allow_copies=False,
            bypass_ports=0,
        )

    def with_fifo_issue(self) -> "ProcessorConfig":
        """The same machine with FIFO-organised windows (§3.9)."""
        return replace(self, name=self.name + "+fifo", fifo_issue=True)
