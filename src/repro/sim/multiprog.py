"""Co-tenant execution of two programs on one machine.

Two scheduling models live here, both sharing every microarchitectural
structure (caches, TLBs, branch predictor, BTB, RAS, DRAM, RNG, ports)
— and that shared state is precisely the attack surface: a victim's
secret-dependent cache/predictor footprint survives into the attacker's
next slice (time-sharing) or very next cycle (SMT).

:class:`TimeSharedMachine` — the OS-scheduler view of a cross-process
attack.  A context switch drains the pipeline (no new fetch; in-flight
work commits), saves the architectural context (registers, PC, trap
handler, sampler phase), and resumes the other program.  Switch cost is
the drain plus a fixed kernel overhead.

:class:`SMTMachine` — true simultaneous multithreading co-tenancy.  Two
hardware contexts (each a full :class:`~repro.sim.cpu.O3Core` frontend +
ROB) interleave cycle-by-cycle on the shared machine with *no* drain and
no kernel overhead; interference shows up as cache/TLB/predictor
contention in every window rather than only at slice boundaries.  This
is the contended-noise regime real HPC detectors face.

Accounting contract (pinned by tests/sim/test_multiprog_accounting.py):

- ``cpu.committed`` is the **global** monotonic commit count across both
  contexts, so sampler windows close exactly on the global commit
  lattice; :attr:`Context.committed` holds the per-context share.
- Pipeline-drain cycles at a context switch are stepped (and therefore
  counted in ``cpu.numCycles``) exactly once, and instructions fetched
  but discarded by the drain are charged to
  ``squash.squashedFetchedInsts`` instead of vanishing.
- ``switch_overhead`` kernel cycles advance ``cpu.numCycles`` along with
  ``machine.cycle`` (the invariant ``numCycles == machine.cycle`` holds
  throughout), and a switch forced by the running context halting is
  charged and counted like any other switch.
- A MARK retiring in one context never bleeds its phase into windows
  attributed to the other: the active phase is saved/restored with the
  context via :attr:`~repro.sim.sampler.Sampler.current_phase`.
"""

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import metrics, obs_event
from repro.sim.config import SimConfig
from repro.sim.hpc import CounterBank
from repro.sim.machine import Machine, RunResult

_C_NUMCYCLES = CounterBank.index_of("cpu.numCycles")
_C_SQUASH_FETCHED = CounterBank.index_of("squash.squashedFetchedInsts")


@dataclass
class Context:
    """Saved architectural state of one time-shared program."""

    program: object
    regs: List[int] = field(default_factory=lambda: [0] * 16)
    fetch_pc: int = 0
    trap_handler: Optional[int] = None
    halted: bool = False
    halt_reason: Optional[str] = None
    #: instructions committed *by this context* (the global count lives
    #: on ``cpu.committed`` so the sampler lattice spans both contexts)
    committed: int = 0
    #: sampler phase active when this context was last descheduled
    phase: int = 0


class TimeSharedMachine:
    """Two programs round-robin on one shared core.

    Parameters
    ----------
    program_a, program_b:
        The two programs (by convention, attacker and victim).
    slice_cycles:
        Nominal cycles per time slice (the drain may add a few).
    switch_overhead:
        Fixed extra cycles charged per context switch (kernel work).
    core_cls:
        Passed to the :class:`~repro.sim.machine.Machine` (the
        equivalence tests run the reference core through it).
    """

    def __init__(self, program_a, program_b, config=None, slice_cycles=3000,
                 switch_overhead=50, sample_period=1000, actors=None,
                 detector_hook=None, core_cls=None):
        self.machine = Machine(program_a,
                               config if config is not None else SimConfig(),
                               sample_period=sample_period, actors=actors,
                               detector_hook=detector_hook,
                               core_cls=core_cls)
        self.slice_cycles = slice_cycles
        self.switch_overhead = switch_overhead
        self.contexts = [Context(program=program_a),
                         Context(program=program_b)]
        for reg, value in program_a.initial_regs.items():
            self.contexts[0].regs[reg] = value
        for reg, value in program_b.initial_regs.items():
            self.contexts[1].regs[reg] = value
        for addr, value in program_b.initial_memory.items():
            self.machine.memory.store(addr, value)
        # warm program B's instruction path too (A's was warmed by Machine)
        for pc in range(0, len(program_b), 8):
            self.machine.hierarchy.access_inst(pc, 0)
        # in-place reset: fast-path code holds preresolved references into
        # the bank, so ``values`` must keep its identity (see CounterBank)
        self.machine.counters.reset()
        self.current = 0
        #: ``cpu.committed`` at the moment the current context was loaded
        #: — the delta since is the running context's share
        self._commit_base = 0
        self._load_context(0)
        self.switches = 0

    # -- context plumbing ---------------------------------------------------------

    def _save_context(self, index):
        cpu = self.machine.cpu
        ctx = self.contexts[index]
        ctx.regs = list(cpu.arch_regs)
        ctx.fetch_pc = cpu.fetch_pc
        ctx.trap_handler = cpu.trap_handler
        ctx.halted = cpu.halted
        ctx.halt_reason = cpu.halt_reason
        # cpu.committed is global; bank this slice's commits to the context
        ctx.committed += cpu.committed - self._commit_base
        self._commit_base = cpu.committed
        ctx.phase = self.machine.sampler.current_phase

    def _load_context(self, index):
        cpu = self.machine.cpu
        ctx = self.contexts[index]
        self.machine.program = ctx.program
        cpu.arch_regs = list(ctx.regs)
        cpu.fetch_pc = ctx.fetch_pc
        cpu.trap_handler = ctx.trap_handler
        cpu.halted = ctx.halted
        cpu.halt_reason = ctx.halt_reason
        # NOTE: cpu.committed is deliberately NOT restored — it is the
        # global commit count, and rewinding it would pull the sampler's
        # next_boundary gate off the global lattice (windows would then
        # close late or never while the lower-committed context runs).
        self._commit_base = cpu.committed
        self.machine.sampler.current_phase = ctx.phase
        cpu.fetch_buffer.clear()
        cpu._halt_fetched = False
        cpu.fetch_stall_until = self.machine.cycle + 1
        self.current = index

    def _discard_fetched(self):
        """Charge and drop fetched-but-never-decoded instructions.

        Without the counter charge, instructions fetched into the buffer
        and then thrown away by a context-switch drain would be counted
        as fetched but neither committed nor squashed — the fetch/commit
        ledger would leak.
        """
        cpu = self.machine.cpu
        if cpu.fetch_buffer:
            self.machine.counters.values[_C_SQUASH_FETCHED] += \
                len(cpu.fetch_buffer)
            cpu.fetch_buffer.clear()

    def _drain(self, max_cycles):
        """Stop fetching and let in-flight work retire."""
        cpu = self.machine.cpu
        cpu._halt_fetched = True    # inhibit further fetch
        self._discard_fetched()
        while cpu.rob and not cpu.halted and self.machine.cycle < max_cycles:
            cpu.step(self.machine.cycle)
            self.machine.cycle += 1
            if cpu.fetch_buffer:
                # a retiring mispredict/trap redirect re-enabled fetch
                # mid-drain; discard the refill and re-inhibit
                self._discard_fetched()
                cpu._halt_fetched = True

    def _charge_switch(self):
        """Advance time past the kernel's context-switch work.

        The overhead advances ``cpu.numCycles`` in lockstep with
        ``machine.cycle`` so per-window cycle deltas account for every
        cycle of wall time exactly once.
        """
        self.machine.cycle += self.switch_overhead
        self.machine.counters.values[_C_NUMCYCLES] += self.switch_overhead
        self.switches += 1

    def _switch(self, max_cycles):
        self._drain(max_cycles)
        self._save_context(self.current)
        nxt = 1 - self.current
        if self.contexts[nxt].halted:
            # other side done: keep running this context
            self.machine.cpu._halt_fetched = False
            return False
        self._load_context(nxt)
        self._charge_switch()
        return True

    # -- execution -------------------------------------------------------------------

    def run(self, max_cycles=1_000_000):
        """Run both programs to completion (or ``max_cycles``)."""
        machine = self.machine
        cpu = machine.cpu
        slice_end = machine.cycle + self.slice_cycles
        while machine.cycle < max_cycles:
            if cpu.halted:
                self._save_context(self.current)
                other = 1 - self.current
                if self.contexts[other].halted:
                    break
                self._load_context(other)
                # the kernel reaping a finished process and dispatching
                # the other is a real switch: same overhead, same count
                self._charge_switch()
                slice_end = machine.cycle + self.slice_cycles
                continue
            if machine.cycle >= slice_end:
                self._switch(max_cycles)
                slice_end = machine.cycle + self.slice_cycles
                continue
            cpu.step(machine.cycle)
            if not machine.actors_suspended:
                for actor in machine.actors:
                    if machine.cycle % actor.period == 0:
                        actor.tick(machine, machine.cycle)
            machine.cycle += 1
        self._save_context(self.current)
        machine.sampler.flush(cpu.committed, machine.cycle)
        return self.contexts

    @property
    def memory(self):
        return self.machine.memory

    @property
    def hierarchy(self):
        return self.machine.hierarchy

    @property
    def counters(self):
        return self.machine.counters


# -- SMT co-tenancy ---------------------------------------------------------------


class _SmtSamplerGate:
    """Per-thread view of the shared sampler's commit-boundary gate.

    The core's inline fast path compares its *own* committed count
    against ``sampler.next_boundary``; under SMT the lattice is global,
    so this gate rebases the boundary by the sibling thread's commits:
    ``own >= (global_boundary - sibling)`` is exactly
    ``own + sibling >= global_boundary``.  Commits are one per stepped
    cycle at most, so the global count crosses each boundary exactly
    once and windows close on the lattice precisely.
    """

    __slots__ = ("_sampler", "sibling")

    def __init__(self, sampler):
        self._sampler = sampler
        self.sibling = None      # the other thread's core (set by SMTMachine)

    @property
    def next_boundary(self):
        return self._sampler.next_boundary - self.sibling.committed


class _SmtThreadView:
    """What one SMT hardware context sees as "the machine".

    Shared structures are plain attribute aliases onto the real
    :class:`~repro.sim.machine.Machine` (same objects, so contention is
    physical); per-thread state is just the program and the rebased
    sampler gate.  Commit-count hooks translate the core's thread-local
    ``committed`` into the global count before they reach the shared
    sampler, so windows and phase marks land on the global lattice.
    """

    def __init__(self, machine, program):
        self._machine = machine
        self.program = program
        self.config = machine.config
        self.counters = machine.counters
        self.memory = machine.memory
        self.dram = machine.dram
        self.hierarchy = machine.hierarchy
        self.dtlb = machine.dtlb
        self.itlb = machine.itlb
        self.rng = machine.rng
        self.branch_predictor = machine.branch_predictor
        self.btb = machine.btb
        self.ras = machine.ras
        self.prefetcher = machine.prefetcher
        self.sampler = _SmtSamplerGate(machine.sampler)

    @property
    def cycle(self):
        return self._machine.cycle

    @property
    def user_mode(self):
        return self._machine.user_mode

    @property
    def actors_suspended(self):
        return self._machine.actors_suspended

    # -- commit hooks: rebase thread-local counts to the global lattice --

    def record_phase(self, phase, commit_index):
        self._machine.sampler.record_phase(
            phase, commit_index + self.sampler.sibling.committed)

    def on_commit(self, committed):
        self._machine.on_commit(committed + self.sampler.sibling.committed)


@dataclass
class ThreadResult:
    """Per-hardware-context outcome of an SMT run."""

    program_name: str
    committed: int
    halted: bool
    halt_reason: Optional[str]
    regs: List[int]


@dataclass
class SMTRunResult(RunResult):
    """A :class:`RunResult` whose base fields describe the whole machine
    (global commit count, shared counters/samples) plus per-thread
    outcomes.  ``program_name``/``regs`` describe thread 0 so existing
    consumers (attack ``recover``, campaign validation) keep working."""

    threads: List[ThreadResult] = field(default_factory=list)


class SMTMachine:
    """Two programs running simultaneously on one core, cycle-interleaved.

    Each thread owns a full frontend + ROB (a private :class:`O3Core`
    instance) but every cache, TLB, predictor table, DRAM bank and
    execution-port pool is the *same object*, so co-tenant interference
    is physical, not modeled: thread A's miss evicts thread B's line on
    the very cycle it happens.  Scheduling is fine-grained round-robin —
    thread ``cycle & 1`` steps each cycle, the sibling steps if it has
    halted — so exactly one core steps per machine cycle and the
    invariant ``cpu.numCycles == machine.cycle`` carries over from the
    single-threaded machine.
    """

    def __init__(self, program_a, program_b, config=None, sample_period=1000,
                 actors=None, detector_hook=None, core_cls=None):
        self.machine = Machine(program_a,
                               config if config is not None else SimConfig(),
                               sample_period=sample_period, actors=actors,
                               detector_hook=detector_hook,
                               core_cls=core_cls)
        machine = self.machine
        core_cls = core_cls or type(machine.cpu)
        for addr, value in program_b.initial_memory.items():
            machine.memory.store(addr, value)
        # warm program B's instruction path too (A's was warmed by Machine)
        for pc in range(0, len(program_b), 8):
            machine.hierarchy.access_inst(pc, 0)
            machine.itlb.access(pc * 4)
        self.programs = [program_a, program_b]
        self.views = [_SmtThreadView(machine, program_a),
                      _SmtThreadView(machine, program_b)]
        self.cores = [core_cls(self.views[0]), core_cls(self.views[1])]
        # one physical issue-port pool, shared like the caches
        self.cores[1].ports = self.cores[0].ports
        self.views[0].sampler.sibling = self.cores[1]
        self.views[1].sampler.sibling = self.cores[0]
        for thread, program in enumerate(self.programs):
            for reg, value in program.initial_regs.items():
                self.cores[thread].arch_regs[reg] = value
        # expose thread 0 as "the" cpu for detector hooks / attack
        # recovery code that reads machine.cpu (the throwaway core the
        # Machine constructor built is dropped here, never stepped)
        machine.cpu = self.cores[0]
        # in-place reset: the warm-up above dirtied shared counters
        machine.counters.reset()

    def run(self, max_cycles=1_000_000):
        """Run both threads to completion (or ``max_cycles``); returns an
        :class:`SMTRunResult`."""
        machine = self.machine
        cores = self.cores
        actors = machine.actors
        wall_start = time.perf_counter()
        cycle = machine.cycle          # stored back once per cycle
        while cycle < max_cycles:
            core = cores[cycle & 1]
            if core.halted:
                core = cores[1 - (cycle & 1)]
                if core.halted:
                    break
            core.step(cycle)
            if actors and not machine.actors_suspended:
                for actor in actors:
                    if cycle % actor.period == 0:
                        actor.tick(machine, cycle)
            cycle += 1
            machine.cycle = cycle
        committed = cores[0].committed + cores[1].committed
        machine.sampler.flush(committed, machine.cycle)
        both_halted = cores[0].halted and cores[1].halted
        self._record_run_observations(time.perf_counter() - wall_start,
                                      committed, both_halted)
        return SMTRunResult(
            program_name=self.programs[0].name,
            cycles=machine.cycle,
            committed=committed,
            halt_reason=cores[0].halt_reason if both_halted else "max-cycles",
            samples=list(machine.sampler.samples),
            phase_marks=list(machine.sampler.phase_marks),
            counters=machine.counters.as_dict(),
            regs=list(cores[0].arch_regs),
            detections=list(machine.detections),
            threads=[ThreadResult(
                program_name=self.programs[t].name,
                committed=cores[t].committed,
                halted=cores[t].halted,
                halt_reason=cores[t].halt_reason,
                regs=list(cores[t].arch_regs),
            ) for t in (0, 1)],
        )

    def _record_run_observations(self, elapsed, committed, both_halted):
        machine = self.machine
        reg = metrics()
        reg.inc("sim.runs")
        reg.inc("sim.smt.runs")
        reg.inc("sim.cycles", machine.cycle)
        reg.inc("sim.committed", committed)
        reg.inc("sim.detections", len(machine.detections))
        reg.observe("sim.run.seconds", elapsed)
        obs_event("sim.run", level="debug",
                  program=f"{self.programs[0].name}+{self.programs[1].name}",
                  cycles=machine.cycle,
                  committed=committed,
                  ipc=round(committed / machine.cycle, 4)
                  if machine.cycle else 0.0,
                  halt=self.cores[0].halt_reason if both_halted
                  else "max-cycles",
                  windows=len(machine.sampler.samples),
                  elapsed_s=round(elapsed, 6))

    @property
    def memory(self):
        return self.machine.memory

    @property
    def hierarchy(self):
        return self.machine.hierarchy

    @property
    def counters(self):
        return self.machine.counters
