"""The full simulated machine: core + memory system + sampler + actors."""

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import metrics, obs_event
from repro.sim.branch import BTB, RAS, TournamentPredictor
from repro.sim.cache import CacheHierarchy
from repro.sim.config import SimConfig
from repro.sim.cpu import O3Core
from repro.sim.dram import DRAM
from repro.sim.hpc import CounterBank
from repro.sim.memory import MainMemory
from repro.sim.sampler import Sampler
from repro.sim.tlb import TLB
from repro.sim.units import RngUnit


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    program_name: str
    cycles: int
    committed: int
    halt_reason: Optional[str]
    samples: list
    phase_marks: list
    counters: dict
    regs: List[int]
    detections: list = field(default_factory=list)

    @property
    def ipc(self):
        return self.committed / self.cycles if self.cycles else 0.0


class Machine:
    """A single-core system running one program, with optional background
    actors sharing its microarchitectural state.

    Typical use::

        machine = Machine(program, SimConfig())
        result = machine.run(max_cycles=100_000)
    """

    def __init__(self, program, config=None, sample_period=1000, actors=None,
                 detector_hook=None, core_cls=None):
        self.program = program
        self.config = config if config is not None else SimConfig()
        self.counters = CounterBank()
        self.memory = MainMemory(program.initial_memory)
        self.dram = DRAM(self.config, self.counters, self.memory)
        self.hierarchy = CacheHierarchy(self.config, self.counters, self.dram)
        self.dtlb = TLB(self.config.dtlb_entries, self.config.page_bytes,
                        self.config.tlb_miss_latency, self.counters, "dtlb")
        self.itlb = TLB(self.config.itlb_entries, self.config.page_bytes,
                        self.config.tlb_miss_latency, self.counters, "itlb")
        self.rng = RngUnit(self.config, self.counters)
        self.branch_predictor = TournamentPredictor(
            self.config.local_predictor_size,
            self.config.global_predictor_size,
            self.config.choice_predictor_size,
            counters=self.counters)
        self.btb = BTB(self.config.btb_entries, counters=self.counters)
        self.ras = RAS(self.config.ras_entries, counters=self.counters)
        self.user_mode = True
        if self.config.prefetcher_enabled:
            from repro.sim.prefetcher import StridePrefetcher
            self.prefetcher = StridePrefetcher(
                self.hierarchy, degree=self.config.prefetcher_degree)
        else:
            self.prefetcher = None
        self.sampler = Sampler(self.counters, period=sample_period)
        self.actors = list(actors or [])
        #: optional callable(machine, sample) -> bool invoked per window;
        #: True means "attack detected" (the adaptive controller wires the
        #: trained detector in here).
        self.detector_hook = detector_hook
        self.detections = []
        #: when True, co-resident background actors are descheduled (the
        #: quarantine / migration response to a detected contention attack)
        self.actors_suspended = False
        self.cycle = 0
        #: ``core_cls`` lets callers swap the scheduler implementation —
        #: the equivalence tests run ReferenceO3Core against the default.
        self.cpu = (core_cls or O3Core)(self)
        for reg, value in program.initial_regs.items():
            self.cpu.arch_regs[reg] = value
        self._warm_instruction_path()

    def _warm_instruction_path(self):
        """Pre-fill the I-cache and I-TLB with the program's footprint.

        Attack and workload code is resident (attackers loop; benchmarks
        run long), so modeling a cold instruction path would only add a
        one-time startup artifact that destroys short transient windows.
        """
        for pc in range(0, len(self.program), 8):
            self.hierarchy.access_inst(pc, 0)
            self.itlb.access(pc * 4)
        # reset the counters the warm-up touched (in place: fast-path code
        # holds preresolved references into the bank — see CounterBank)
        self.counters.reset()

    # -- hooks called by the core ------------------------------------------------

    def record_phase(self, phase, commit_index):
        self.sampler.record_phase(phase, commit_index)

    def on_commit(self, committed):
        before = len(self.sampler.samples)
        self.sampler.on_commit(committed, self.cycle)
        if self.detector_hook is not None and len(self.sampler.samples) > before:
            sample = self.sampler.samples[-1]
            if self.detector_hook(self, sample):
                self.detections.append(sample)

    # -- execution ------------------------------------------------------------------

    def run(self, max_cycles=1_000_000):
        """Run to completion (HALT, unhandled fault, or end of program) or
        until ``max_cycles``; returns a :class:`RunResult`."""
        cpu = self.cpu
        actors = self.actors
        wall_start = time.perf_counter()
        while not cpu.halted and self.cycle < max_cycles:
            cpu.step(self.cycle)
            if actors and not self.actors_suspended:
                for actor in actors:
                    if self.cycle % actor.period == 0:
                        actor.tick(self, self.cycle)
            self.cycle += 1
        self.sampler.flush(cpu.committed, self.cycle)
        self._record_run_observations(time.perf_counter() - wall_start)
        return self._result()

    def _result(self):
        cpu = self.cpu
        return RunResult(
            program_name=self.program.name,
            cycles=self.cycle,
            committed=cpu.committed,
            halt_reason=cpu.halt_reason if cpu.halted else "max-cycles",
            samples=list(self.sampler.samples),
            phase_marks=list(self.sampler.phase_marks),
            counters=self.counters.as_dict(),
            regs=list(cpu.arch_regs),
            detections=list(self.detections),
        )

    def _record_run_observations(self, elapsed):
        """Aggregate this run into the global metrics/log.

        The commit loop itself stays untouched — per-cycle timers would
        distort the very IPC numbers this system measures — so the whole
        run is accounted for in one batch of updates here.
        """
        reg = metrics()
        reg.inc("sim.runs")
        reg.inc("sim.cycles", self.cycle)
        reg.inc("sim.committed", self.cpu.committed)
        reg.inc("sim.detections", len(self.detections))
        reg.observe("sim.run.seconds", elapsed)
        obs_event("sim.run", level="debug",
                  program=self.program.name,
                  cycles=self.cycle,
                  committed=self.cpu.committed,
                  ipc=round(self.cpu.committed / self.cycle, 4)
                  if self.cycle else 0.0,
                  halt=self.cpu.halt_reason if self.cpu.halted
                  else "max-cycles",
                  windows=len(self.sampler.samples),
                  elapsed_s=round(elapsed, 6))

    def set_defense(self, mode):
        """Switch the mitigation mode mid-run (the adaptive architecture)."""
        self.config.defense = mode

    def format_stats(self, nonzero_only=True):
        """gem5-style stats dump: one ``name value`` line per counter."""
        lines = []
        for name, value in sorted(self.counters.as_dict().items()):
            if nonzero_only and value == 0:
                continue
            lines.append(f"{name:<44s} {value}")
        return "\n".join(lines)
