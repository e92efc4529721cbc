"""SMT co-tenancy: correctness, global lattice, determinism, oracle."""

import pytest

from repro.attacks import ATTACKS_BY_NAME
from repro.sim import CounterBank, ProgramBuilder, SimConfig, SMTMachine
from repro.sim.config import DefenseMode
from repro.sim.reference import ReferenceO3Core
from repro.workloads import WORKLOAD_BUILDERS


def _counter_prog(n, result_addr, name="count"):
    b = ProgramBuilder(name)
    b.movi(1, 0)
    b.movi(2, n)
    b.label("top")
    b.addi(1, 1, 1)
    b.blt(1, 2, "top")
    b.movi(3, result_addr)
    b.store(3, 1, 0)
    b.halt()
    return b.build()


def _pointer_prog(n, result_addr, name="chase"):
    """A memory-touching loop so the threads contend on the caches."""
    b = ProgramBuilder(name)
    for i in range(32):
        b.data(0x4000 + i * 64, i)
    b.movi(1, 0)
    b.movi(2, n)
    b.movi(5, 0x4000)
    b.label("top")
    b.load(4, 5, 0)
    b.addi(1, 1, 1)
    b.blt(1, 2, "top")
    b.movi(3, result_addr)
    b.store(3, 1, 0)
    b.halt()
    return b.build()


def _smt(n_a=1500, n_b=900, period=500, core_cls=None, config=None):
    return SMTMachine(_counter_prog(n_a, 0x9000, name="a"),
                      _pointer_prog(n_b, 0xA000, name="b"),
                      config=config, sample_period=period,
                      core_cls=core_cls)


def _stream(result):
    return ([(s.window_index, s.commit_index, s.cycle, tuple(s.deltas),
              s.phase) for s in result.samples],
            result.counters, result.cycles, result.committed,
            result.halt_reason)


class TestCorrectness:
    def test_both_threads_complete_with_correct_results(self):
        smt = _smt()
        result = smt.run(max_cycles=300_000)
        assert result.halt_reason == "halt"
        assert smt.memory.load(0x9000) == 1500
        assert smt.memory.load(0xA000) == 900
        t0, t1 = result.threads
        assert t0.program_name == "a" and t1.program_name == "b"
        assert t0.halted and t1.halted
        assert t0.committed + t1.committed == result.committed
        assert t0.committed > 0 and t1.committed > 0

    def test_register_files_are_private(self):
        smt = _smt(n_a=1500, n_b=900)
        result = smt.run(max_cycles=300_000)
        t0, t1 = result.threads
        assert t0.regs[1] == 1500
        assert t1.regs[1] == 900

    def test_shared_structures_are_the_same_objects(self):
        smt = _smt()
        a, b = smt.views
        assert a.hierarchy is b.hierarchy is smt.machine.hierarchy
        assert a.dtlb is b.dtlb
        assert a.btb is b.btb
        assert a.counters is b.counters
        assert smt.cores[0].ports is smt.cores[1].ports
        assert smt.cores[0] is not smt.cores[1]

    def test_one_core_steps_per_cycle(self):
        """Exactly one hardware context steps each machine cycle, so the
        single-thread invariant cpu.numCycles == machine.cycle holds."""
        ix = CounterBank.index_of("cpu.numCycles")
        smt = _smt()
        result = smt.run(max_cycles=300_000)
        assert smt.machine.counters.values[ix] == result.cycles

    def test_survivor_runs_alone_after_sibling_halts(self):
        smt = _smt(n_a=50, n_b=3000)
        result = smt.run(max_cycles=300_000)
        assert result.threads[0].halted and result.threads[1].halted
        assert smt.memory.load(0xA000) == 3000


class TestGlobalLattice:
    def test_windows_close_on_the_global_commit_lattice(self):
        smt = _smt(period=400)
        result = smt.run(max_cycles=300_000)
        assert len(result.samples) > 3
        for sample in result.samples[:-1]:
            assert sample.commit_index % 400 == 0, sample
        indices = [s.commit_index for s in result.samples]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        assert [s.window_index for s in result.samples] == \
            list(range(len(result.samples)))

    def test_window_deltas_cover_all_commits(self):
        result = _smt(period=400).run(max_cycles=300_000)
        assert result.samples[-1].commit_index == result.committed


class TestDeterminismAndOracle:
    def test_runs_are_deterministic(self):
        r1 = _smt().run(max_cycles=300_000)
        r2 = _smt().run(max_cycles=300_000)
        assert _stream(r1) == _stream(r2)
        assert [t.regs for t in r1.threads] == [t.regs for t in r2.threads]

    def test_bit_identical_to_reference_core(self):
        """The optimized core under SMT produces the exact stream the
        reference oracle does — the bit-exactness contract extends to
        co-tenancy."""
        fast = _smt().run(max_cycles=300_000)
        ref = _smt(core_cls=ReferenceO3Core).run(max_cycles=300_000)
        assert _stream(fast) == _stream(ref)
        assert [t.regs for t in fast.threads] == \
            [t.regs for t in ref.threads]

    def test_bit_identical_under_defense(self):
        cfg = SimConfig(defense=DefenseMode.FENCE_SPECTRE)
        fast = _smt(config=cfg).run(max_cycles=300_000)
        cfg2 = SimConfig(defense=DefenseMode.FENCE_SPECTRE)
        ref = _smt(core_cls=ReferenceO3Core,
                   config=cfg2).run(max_cycles=300_000)
        assert _stream(fast) == _stream(ref)

    @pytest.mark.parametrize("mode", list(DefenseMode),
                             ids=lambda mode: mode.value)
    @pytest.mark.parametrize("attack", ["meltdown", "spectre-pht"])
    def test_campaign_smt_cell_matches_reference(self, attack, mode):
        """A campaign SMT cell: a FENCE-carrying attack on thread 0
        beside the campaign's pointer-chase co-tenant, under every
        defense.  The programs above carry no FENCE, so this is what
        holds the issue walk's fence and branch stops to the oracle
        under SMT."""
        def run(core_cls):
            program, actors = ATTACKS_BY_NAME[attack]().build()
            co_tenant = WORKLOAD_BUILDERS["pointer-chase"](scale=2, seed=97)
            config = SimConfig(defense=mode, smt_contexts=2)
            return SMTMachine(program, co_tenant, config, sample_period=100,
                              actors=actors, core_cls=core_cls
                              ).run(max_cycles=40_000)
        assert _stream(run(None)) == _stream(run(ReferenceO3Core))

