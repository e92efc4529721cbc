"""Machine.run: one simulation loop whose result is a pure function of
the program, its initial state, the config, the sampling period and the
cycle budget; actors and detector hooks observe it without changing it."""

import pytest

from repro.sim import Machine, ProgramBuilder

RESULT_ADDR = 0x9000


def _prog(n=800, name="loop", metadata=None):
    b = ProgramBuilder(name)
    b.movi(1, 0)
    b.movi(2, n)
    b.label("top")
    b.addi(1, 1, 1)
    b.load(4, 1, 0)          # touch memory so caches/DRAM matter
    b.blt(1, 2, "top")
    b.movi(3, RESULT_ADDR)
    b.store(3, 1, 0)
    b.halt()
    b.metadata.update(metadata or {})
    return b.build()


def _run(prog=None, sample_period=200, max_cycles=50_000, **kwargs):
    machine = Machine(prog if prog is not None else _prog(),
                      sample_period=sample_period, **kwargs)
    return machine, machine.run(max_cycles=max_cycles)


def _windows(result):
    return [(s.window_index, s.commit_index, s.cycle, tuple(s.deltas),
             s.phase)
            for s in result.samples]


def _stream(result):
    """Everything a run reports except the program's name."""
    return (_windows(result),
            [(p.commit_index, p.phase) for p in result.phase_marks],
            result.counters, result.cycles, result.committed,
            result.halt_reason, result.regs)


class _Recorder:
    """Background actor that only notes the cycles it is ticked on."""

    period = 64

    def __init__(self):
        self.ticks = []

    def tick(self, machine, cycle):
        self.ticks.append(cycle)


class TestPureFunctionOfInputs:
    def test_rerun_is_bit_identical(self):
        m1, r1 = _run()
        m2, r2 = _run()
        assert _stream(r2) == _stream(r1)
        assert r2.ipc == r1.ipc
        assert m2.memory.load(RESULT_ADDR) == m1.memory.load(RESULT_ADDR)
        assert m2.cpu.halted and m1.cpu.halted

    def test_program_name_and_metadata_do_not_change_the_run(self):
        _, a = _run(_prog(name="a"))
        _, b = _run(_prog(name="b", metadata={"secret": 7}))
        assert (a.program_name, b.program_name) == ("a", "b")
        assert _stream(a) == _stream(b)

    def test_store_result_visible_in_memory(self):
        machine, result = _run()
        assert result.halt_reason == "halt"
        assert result.regs[1] == 800
        assert machine.memory.load(RESULT_ADDR) == 800

    def test_initial_regs_reach_the_core(self):
        def bounded_by_r9(bound):
            b = ProgramBuilder()
            b.reg(9, bound)
            b.movi(1, 0)
            b.label("top")
            b.addi(1, 1, 1)
            b.blt(1, 9, "top")
            b.halt()
            return _run(b.build())[1]

        short, long_ = bounded_by_r9(10), bounded_by_r9(20)
        assert (short.regs[1], long_.regs[1]) == (10, 20)
        assert (short.regs[9], long_.regs[9]) == (10, 20)
        assert long_.committed - short.committed == 2 * 10


class TestCycleBudget:
    def test_budget_truncates_the_run(self):
        _, full = _run()
        cut_at = full.cycles // 2
        machine, cut = _run(max_cycles=cut_at)
        assert cut.halt_reason == "max-cycles"
        assert cut.cycles == cut_at
        assert 0 < cut.committed < full.committed
        assert machine.memory.load(RESULT_ADDR) == 0

    def test_budget_beyond_the_halt_changes_nothing(self):
        _, r1 = _run(max_cycles=10_000)
        _, r2 = _run(max_cycles=20_000)
        assert r1.halt_reason == "halt"
        assert _stream(r1) == _stream(r2)

    @pytest.mark.parametrize("pause", [137, 400])
    def test_resume_after_budget_reaches_the_same_end_state(self, pause):
        """A run stopped by its budget continues where it stopped: the
        end state and counter totals match an uninterrupted run, and the
        only extra window is the partial one the pause closed."""
        clean_machine, clean = _run()
        machine = Machine(_prog(), sample_period=200)
        paused = machine.run(max_cycles=pause)
        assert paused.halt_reason == "max-cycles"
        resumed = machine.run(max_cycles=50_000)
        assert resumed.halt_reason == clean.halt_reason
        assert (resumed.cycles, resumed.committed) == \
            (clean.cycles, clean.committed)
        assert resumed.regs == clean.regs
        assert resumed.counters == clean.counters
        assert machine.memory.load(RESULT_ADDR) == \
            clean_machine.memory.load(RESULT_ADDR)
        assert paused.committed % 200
        assert [s.commit_index for s in resumed.samples] == sorted(
            [s.commit_index for s in clean.samples] + [paused.committed])

    def test_finished_machine_reruns_to_the_same_result(self):
        machine, first = _run()
        again = machine.run(max_cycles=50_000)
        assert _stream(again) == _stream(first)


class TestSamplingPeriod:
    @pytest.mark.parametrize("period", [100, 200, 250])
    def test_period_sets_windows_without_perturbing_the_run(self, period):
        _, base = _run(sample_period=200)
        _, result = _run(sample_period=period)
        assert result.counters == base.counters
        assert (result.cycles, result.committed) == \
            (base.cycles, base.committed)
        closes = [s.commit_index for s in result.samples]
        assert closes[:-1] == list(range(period, result.committed, period))
        assert closes[-1] == result.committed
        assert [s.window_index for s in result.samples] == \
            list(range(len(closes)))


class TestActorsAndHooks:
    def test_actor_ticks_on_its_period(self):
        _, clean = _run()
        recorder = _Recorder()
        _, result = _run(actors=[recorder])
        assert recorder.ticks == list(range(0, result.cycles,
                                            _Recorder.period))
        assert _stream(result) == _stream(clean)

    def test_suspended_actors_do_not_tick(self):
        recorder = _Recorder()
        machine = Machine(_prog(), sample_period=200, actors=[recorder])
        machine.actors_suspended = True
        result = machine.run(max_cycles=50_000)
        assert result.halt_reason == "halt"
        assert recorder.ticks == []

    def test_detector_hook_sees_every_closed_window(self):
        seen = []

        def flag_odd_windows(machine, sample):
            seen.append(sample)
            return sample.window_index % 2 == 1

        machine, result = _run(detector_hook=flag_odd_windows)
        # every window the core closes; the partial one flushed at the
        # end of the run is not shown to the hook
        assert seen == result.samples[:-1]
        assert result.detections == [s for s in seen
                                     if s.window_index % 2 == 1]
        assert machine.detections == result.detections

    def test_detector_hook_does_not_change_the_run(self):
        _, clean = _run()
        _, hooked = _run(detector_hook=lambda machine, sample: True)
        assert _stream(hooked) == _stream(clean)
        assert hooked.detections and not clean.detections
