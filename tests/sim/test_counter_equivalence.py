"""Bit-exactness of the optimized scheduler against the reference spec.

The counters ARE the dataset: every detector feature is a
:class:`~repro.sim.hpc.CounterBank` delta, so the hot-loop overhaul
(preresolved counter slots, eager operand capture, wakeup lists, the
completion heap) must not move a single event by a single window.  These
tests run the optimized :class:`~repro.sim.cpu.O3Core` and the seed
:class:`~repro.sim.reference.ReferenceO3Core` over identical programs and
require identical sampler delta streams, final counter snapshots, cycle
counts, committed counts and halt reasons.  The full matrix (all defense
modes on both benign and attack programs) lives in
``scripts/bench_sim.py``; this suite keeps the fast representative slice
in tier-1.
"""

import pytest

from repro.attacks import ATTACKS_BY_NAME
from repro.sim import Machine, ProgramBuilder, SimConfig
from repro.sim.config import DefenseMode
from repro.sim.cpu import O3Core
from repro.sim.reference import ReferenceO3Core
from repro.workloads import WORKLOAD_BUILDERS


def _counter_stream(core_cls, program, config, sample_period=500,
                    max_cycles=60_000):
    machine = Machine(program, config, sample_period=sample_period,
                      core_cls=core_cls)
    machine.run(max_cycles=max_cycles)
    return _stream_of(machine)


def _stream_of(machine):
    return {
        "sampler_deltas": tuple(tuple(s.deltas)
                                for s in machine.sampler.samples),
        "window_commits": tuple(s.commit_index
                                for s in machine.sampler.samples),
        "snapshot": tuple(machine.counters.values),
        "cycle": machine.cpu.cycle,
        "committed": machine.cpu.committed,
        "halt_reason": machine.cpu.halt_reason,
    }


def _assert_bit_identical(program, config, **kwargs):
    reference = _counter_stream(ReferenceO3Core, program, config, **kwargs)
    optimized = _counter_stream(O3Core, program, config, **kwargs)
    # compare field by field so a failure names what diverged
    for key, expected in reference.items():
        assert optimized[key] == expected, f"{key} diverged from reference"


@pytest.mark.parametrize("workload", ["astar", "stream", "pointer-chase"])
def test_seeded_workloads_bit_identical(workload):
    program = WORKLOAD_BUILDERS[workload](scale=2, seed=1)
    _assert_bit_identical(program, SimConfig())


@pytest.mark.parametrize("attack", ["spectre-pht", "meltdown"])
def test_attacks_bit_identical(attack):
    program, _ = ATTACKS_BY_NAME[attack]().build()
    _assert_bit_identical(program, SimConfig())


@pytest.mark.parametrize("mode", [DefenseMode.FENCE_SPECTRE,
                                  DefenseMode.FENCE_FUTURISTIC,
                                  DefenseMode.INVISISPEC_SPECTRE,
                                  DefenseMode.INVISISPEC_FUTURISTIC])
def test_defense_modes_bit_identical(mode):
    program, _ = ATTACKS_BY_NAME["spectre-pht"]().build()
    _assert_bit_identical(program, SimConfig(defense=mode))


def test_no_stl_speculation_bit_identical():
    # stl_speculation=False takes the blockedLoads path in _load_may_issue
    program = WORKLOAD_BUILDERS["astar"](scale=2, seed=1)
    _assert_bit_identical(program, SimConfig(stl_speculation=False))


def test_sampler_windows_close_on_period_lattice():
    """Regression for the window-boundary overshoot: with commit_width > 1
    a window used to close several instructions past the period.  Every
    regular window must now end exactly on the 100-instruction lattice
    (only the final partial window may sit off it)."""
    program = WORKLOAD_BUILDERS["astar"](scale=2, seed=1)
    config = SimConfig()
    assert config.commit_width > 1  # the overshoot needs superscalar commit
    machine = Machine(program, config, sample_period=100)
    machine.run(max_cycles=60_000)
    samples = machine.sampler.samples
    assert len(samples) > 3
    for sample in samples[:-1]:
        assert sample.commit_index % 100 == 0, (
            f"window {sample.window_index} closed at "
            f"commit {sample.commit_index}, off the 100-inst lattice")


def test_icache_eviction_does_not_crash():
    """Regression: the first L1I eviction used to raise KeyError because
    the instruction cache has no ``cleanEvicts``/``writebacks`` counters
    in its namespace.  A straight-line program larger than L1I forces
    evictions on both cores."""
    builder = ProgramBuilder()
    builder.movi(1, 0)
    for _ in range(9000):  # > 32KB of code: overflows the L1I
        builder.addi(1, 1, 1)
    builder.halt()
    program = builder.build()
    for core_cls in (O3Core, ReferenceO3Core):
        machine = Machine(program, SimConfig(), core_cls=core_cls)
        machine.run(max_cycles=200_000)
        assert machine.cpu.halt_reason == "halt"
        assert machine.counters.get("icache.replacements") > 0


# -- the issue walk stops at the first held candidate -------------------------

class _CountingReady(list):
    """A ready list that counts the entries the issue walk visits."""

    visits = 0

    def __iter__(self):
        for entry in list.__iter__(self):
            self.visits += 1
            yield entry


def _fence_held_program():
    """A cold load, a FENCE, then 24 operand-ready movis that the FENCE
    holds until the load commits."""
    b = ProgramBuilder("fence-held")
    b.movi(1, 0x600000)
    b.load(2, 1, 0)            # cold line: DRAM latency
    b.fence()
    for i in range(24):
        b.movi(3 + i % 12, i)
    b.halt()
    return b.build()


def _branch_held_program():
    """24 operand-ready movis behind a branch on a chain of eight DIVs:
    under FENCE_SPECTRE the unresolved branch holds them."""
    b = ProgramBuilder("branch-held")
    b.movi(1, 1 << 40)
    b.movi(2, 3)
    b.div(3, 1, 2)
    for _ in range(7):
        b.div(3, 3, 2)
    b.beq(3, 0, "end")
    for i in range(24):
        b.movi(4 + i % 11, i)
    b.label("end")
    b.halt()
    return b.build()


@pytest.mark.parametrize("build, mode", [
    (_fence_held_program, DefenseMode.NONE),
    (_branch_held_program, DefenseMode.FENCE_SPECTRE),
], ids=["fence", "fence-spectre-branch"])
def test_issue_walk_stops_at_the_first_held_candidate(build, mode):
    """A candidate younger than the oldest FENCE (or, under FENCE_SPECTRE,
    the oldest unresolved branch) ends the walk: everything after it in
    the seq-sorted ready list is younger and held too.  Walking on would
    visit every held movi each cycle; stopping visits about one."""
    machine = Machine(build(), SimConfig(defense=mode), sample_period=10)
    cpu = machine.cpu
    ready = cpu._ready = _CountingReady()
    issue = cpu._issue
    walks = 0

    def counted_issue(cycle):
        nonlocal walks
        if ready:
            walks += 1
        issue(cycle)

    cpu._issue = counted_issue
    machine.run(max_cycles=20_000)
    assert walks > 100          # the hold lasts long enough to measure
    assert ready.visits <= 2 * walks
    assert _stream_of(machine) == _counter_stream(
        ReferenceO3Core, build(), SimConfig(defense=mode),
        sample_period=10, max_cycles=20_000)


def test_issue_walk_goes_past_an_lfence_held_load():
    """LFENCE holds only loads, so a held load must not end the walk: the
    RDTSC behind it issues at once instead of after the cold load."""
    b = ProgramBuilder("lfence-held")
    b.movi(1, 0x600000)
    b.rdtsc(3)
    b.load(4, 1, 0)            # cold line: DRAM latency
    b.lfence()
    b.load(5, 0, 0x9000)       # operand-ready, held by the LFENCE
    b.rdtsc(6)
    b.sub(7, 6, 3)
    b.halt()
    program = b.build()
    result = Machine(program, SimConfig(), sample_period=10).run()
    assert result.regs[7] < 30
    _assert_bit_identical(program, SimConfig(), sample_period=10)
