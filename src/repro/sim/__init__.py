"""Cycle-level out-of-order CPU simulator (gem5-O3-style substrate).

The paper evaluates on gem5's O3CPU with Ramulator.  This package rebuilds
the relevant microarchitecture in Python: a fetch/decode/rename/issue/
execute/commit pipeline with a reorder buffer, load/store queues with
store-to-load forwarding and memory-dependence speculation, a tournament
branch predictor with BTB and return address stack, a two-level cache
hierarchy with MSHRs and write buffers, TLBs, a bank/row DRAM model with
Rowhammer corruption, and a large bank of hardware performance counters
sampled every N committed instructions.

Attacks in :mod:`repro.attacks` are programs in this simulator's micro-op
ISA that genuinely exploit these mechanisms (transient loads that perturb
cache state, deferred faults, stale store forwarding, DRAM row hammering).
"""

from repro.sim.isa import Op, Instruction, KERNEL_BASE, ASSIST_BIT
from repro.sim.program import Program, ProgramBuilder
from repro.sim.config import SimConfig, DefenseMode
from repro.sim.cpu import O3Core
from repro.sim.hpc import CounterBank
from repro.sim.machine import Machine, RunResult
from repro.sim.multiprog import SMTMachine, SMTRunResult, TimeSharedMachine
from repro.sim.reference import ReferenceO3Core
from repro.sim.sampler import Sampler, Sample

__all__ = [
    "Op",
    "Instruction",
    "KERNEL_BASE",
    "ASSIST_BIT",
    "Program",
    "ProgramBuilder",
    "SimConfig",
    "DefenseMode",
    "CounterBank",
    "O3Core",
    "ReferenceO3Core",
    "Machine",
    "RunResult",
    "TimeSharedMachine",
    "SMTMachine",
    "SMTRunResult",
    "Sampler",
    "Sample",
]
