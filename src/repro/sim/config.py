"""Simulated-architecture configuration (paper Table II) and defense modes."""

import enum
from dataclasses import dataclass


class DefenseMode(enum.Enum):
    """Mitigation state of the core.

    ``NONE``            — full performance, vulnerable.
    ``FENCE_SPECTRE``   — fence after every conditional branch: younger ops
                          wait until the branch resolves (Spectre model).
    ``FENCE_FUTURISTIC``— fence before every load: loads issue only when
                          non-speculative (Futuristic model, covers LVI).
    ``INVISISPEC_SPECTRE`` — speculative loads (shadowed by an unresolved
                          control-flow instruction) are serviced into a
                          speculative buffer without perturbing cache state
                          and exposed when safe.
    ``INVISISPEC_FUTURISTIC`` — every load is invisible until it is about to
                          commit.
    """

    NONE = "none"
    FENCE_SPECTRE = "fence-spectre"
    FENCE_FUTURISTIC = "fence-futuristic"
    INVISISPEC_SPECTRE = "invisispec-spectre"
    INVISISPEC_FUTURISTIC = "invisispec-futuristic"


#: Defense modes that fence (serialize) rather than buffer.
FENCE_MODES = frozenset({DefenseMode.FENCE_SPECTRE, DefenseMode.FENCE_FUTURISTIC})
#: Defense modes that use the InvisiSpec speculative buffer.
INVISISPEC_MODES = frozenset({DefenseMode.INVISISPEC_SPECTRE,
                              DefenseMode.INVISISPEC_FUTURISTIC})


@dataclass
class SimConfig:
    """Parameters of the simulated core (defaults follow paper Table II)."""

    # Pipeline (Table II: 8-wide, ROB 192, LQ/SQ 32)
    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_entries: int = 192
    lq_entries: int = 32
    sq_entries: int = 32
    iq_entries: int = 64

    # Branch prediction (tournament, 4096 BTB, 16 RAS)
    btb_entries: int = 4096
    ras_entries: int = 16
    local_predictor_size: int = 2048
    global_predictor_size: int = 8192
    choice_predictor_size: int = 8192

    # Functional units / execution latencies
    int_alu_units: int = 6
    mul_div_units: int = 2
    mem_ports: int = 2
    mul_latency: int = 4
    div_latency: int = 16

    # L1 instruction cache: 32KB, 64B line, 4-way
    l1i_size: int = 32 * 1024
    l1i_assoc: int = 4
    l1i_latency: int = 1
    # L1 data cache: 64KB, 64B line, 8-way
    l1d_size: int = 64 * 1024
    l1d_assoc: int = 8
    l1d_latency: int = 2
    l1d_mshrs: int = 20
    l1d_write_buffers: int = 8
    # L2: 2MB, 8-way, 20-cycle tag+data
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 8
    l2_latency: int = 20
    l2_mshrs: int = 20
    l2_write_buffers: int = 8
    line_bytes: int = 64

    # TLBs
    dtlb_entries: int = 64
    itlb_entries: int = 48
    page_bytes: int = 4096
    tlb_miss_latency: int = 30

    # DRAM (Ramulator-like single channel)
    dram_banks: int = 16
    dram_row_bytes: int = 8192
    dram_row_hit_latency: int = 30
    dram_row_miss_latency: int = 70
    dram_refresh_interval: int = 50_000       # cycles between refresh sweeps
    rowhammer_threshold: int = 300            # activations per refresh window
    rowhammer_enabled: bool = True

    # Hardware RNG unit (RDRAND): shared entropy buffer
    rng_buffer_entries: int = 8
    rng_refill_cycles: int = 40
    rng_fast_latency: int = 16
    rng_slow_latency: int = 180

    # Vulnerability toggles
    meltdown_vulnerable: bool = True          # deferred-priv-check loads
    stl_speculation: bool = True              # memory-dependence speculation

    # Optional hardware stride prefetcher (off in the paper's Table II)
    prefetcher_enabled: bool = False
    prefetcher_degree: int = 1

    # Defense
    defense: DefenseMode = DefenseMode.NONE
    invisispec_expose_latency: int = 8        # extra cycles per exposed load

    # Trap handling cost (pipeline flush + microcode)
    trap_latency: int = 40

    # SMT hardware contexts (1 = the paper's single-thread core;
    # 2 = cycle-interleaved co-tenancy via repro.sim.multiprog.SMTMachine)
    smt_contexts: int = 1

    def pretty(self):
        """Human-readable parameter dump (Table II reproduction)."""
        rows = [
            ("Architecture",
             "OoO core, single thread" if self.smt_contexts == 1
             else f"OoO core, {self.smt_contexts}-way SMT"),
            ("Pipeline width (fetch/issue/commit)",
             f"{self.fetch_width}/{self.issue_width}/{self.commit_width}"),
            ("ROB entries", self.rob_entries),
            ("LQ/SQ entries", f"{self.lq_entries}/{self.sq_entries}"),
            ("Branch predictor", "Tournament"),
            ("BTB entries", self.btb_entries),
            ("RAS entries", self.ras_entries),
            ("L1 I-cache", f"{self.l1i_size // 1024}KB, {self.line_bytes}B line, "
                           f"{self.l1i_assoc}-way"),
            ("L1 D-cache", f"{self.l1d_size // 1024}KB, {self.line_bytes}B line, "
                           f"{self.l1d_assoc}-way, mshrs={self.l1d_mshrs}, "
                           f"writeBuffers={self.l1d_write_buffers}"),
            ("L2 cache", f"{self.l2_size // (1024 * 1024)}MB, {self.l2_assoc}-way, "
                         f"latency={self.l2_latency}, mshrs={self.l2_mshrs}"),
            ("DRAM", f"{self.dram_banks} banks, {self.dram_row_bytes}B rows, "
                     f"rowhammer threshold={self.rowhammer_threshold}"),
            ("Defense mode", self.defense.value),
        ]
        width = max(len(str(k)) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
