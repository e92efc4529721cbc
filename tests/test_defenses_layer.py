"""Defense policies and the secure-mode controller."""

import pytest

from repro.defenses import (
    DEFENSE_CONFIGS, DefensePolicy, SecureModeController, measure_overhead,
    run_workload,
)
from repro.defenses.fanout import TenantSlot, VirtualCore
from repro.obs import metrics
from repro.sim.config import DefenseMode
from repro.sim.sampler import Sample
from repro.workloads import all_workloads


class FakeMachine:
    def __init__(self):
        self.defense = DefenseMode.NONE

    def set_defense(self, mode):
        self.defense = mode


def window(commit_index):
    return Sample(window_index=0, commit_index=commit_index, cycle=0,
                  deltas=[], phase=0)


class TestController:
    def test_flag_enables_secure_mode(self):
        m = FakeMachine()
        ctrl = SecureModeController(lambda s: True,
                                    DefenseMode.FENCE_SPECTRE,
                                    secure_window=1000)
        assert ctrl(m, window(100)) is True
        assert m.defense is DefenseMode.FENCE_SPECTRE
        assert ctrl.active

    def test_no_flag_stays_off(self):
        m = FakeMachine()
        ctrl = SecureModeController(lambda s: False,
                                    DefenseMode.FENCE_SPECTRE)
        assert ctrl(m, window(100)) is False
        assert m.defense is DefenseMode.NONE

    def test_secure_mode_expires_after_window(self):
        m = FakeMachine()
        flags = iter([True, False, False])
        ctrl = SecureModeController(lambda s: next(flags),
                                    DefenseMode.FENCE_SPECTRE,
                                    secure_window=500)
        ctrl(m, window(100))           # flag -> secure until 600
        ctrl(m, window(400))           # still secure
        assert m.defense is DefenseMode.FENCE_SPECTRE
        ctrl(m, window(700))           # past the window -> back off
        assert m.defense is DefenseMode.NONE
        assert not ctrl.active

    def test_repeated_flags_rearm(self):
        m = FakeMachine()
        ctrl = SecureModeController(lambda s: True,
                                    DefenseMode.FENCE_SPECTRE,
                                    secure_window=500)
        ctrl(m, window(100))
        ctrl(m, window(550))           # re-armed before expiry
        assert ctrl.secure_until == 1050
        assert m.defense is DefenseMode.FENCE_SPECTRE

    def test_secure_fraction(self):
        m = FakeMachine()
        flags = iter([True, False, False, False])
        ctrl = SecureModeController(lambda s: next(flags),
                                    DefenseMode.FENCE_SPECTRE,
                                    secure_window=250)
        for commit in (100, 200, 300, 10_000):
            ctrl(m, window(commit))
        assert 0 < ctrl.secure_fraction < 1


class TestFailSecure:
    """The controller's health watchdog: a degraded detector latches the
    core into always-secure mode instead of silently disabling defense."""

    def test_raising_detector_latches_always_secure(self):
        m = FakeMachine()
        calls = []

        def broken(sample):
            calls.append(sample)
            raise RuntimeError("detector wedged")

        ctrl = SecureModeController(broken, DefenseMode.FENCE_SPECTRE,
                                    secure_window=100)
        assert ctrl(m, window(100)) is False
        assert ctrl.latched
        assert "RuntimeError" in ctrl.latch_reason
        assert m.defense is DefenseMode.FENCE_SPECTRE
        # every later window runs secure; the dead detector is never
        # consulted again and the mitigation never expires
        for commit in (10_000, 10_000_000):
            ctrl(m, window(commit))
        assert len(calls) == 1
        assert m.defense is DefenseMode.FENCE_SPECTRE
        assert ctrl.secure_fraction == 1.0

    def test_nan_score_latches(self):
        m = FakeMachine()
        ctrl = SecureModeController(lambda s: float("nan"),
                                    DefenseMode.FENCE_SPECTRE)
        ctrl(m, window(100))
        assert ctrl.latched
        assert ctrl.secure_fraction == 1.0

    def test_nonfinite_feature_vector_latches(self):
        m = FakeMachine()
        ctrl = SecureModeController(lambda s: False,
                                    DefenseMode.FENCE_SPECTRE)
        sample = Sample(window_index=0, commit_index=100, cycle=0,
                        deltas=[1.0, float("nan"), 3.0], phase=0)
        ctrl(m, sample)
        assert ctrl.latched
        assert ctrl.detector_errors == 1

    def test_feature_width_change_latches(self):
        m = FakeMachine()
        ctrl = SecureModeController(lambda s: False,
                                    DefenseMode.FENCE_SPECTRE)
        ctrl(m, Sample(window_index=0, commit_index=100, cycle=0,
                       deltas=[1, 2, 3], phase=0))
        assert not ctrl.latched
        ctrl(m, Sample(window_index=1, commit_index=200, cycle=0,
                       deltas=[1, 2], phase=0))
        assert ctrl.latched

    def test_fail_secure_off_propagates_fault(self):
        import pytest
        m = FakeMachine()
        ctrl = SecureModeController(lambda s: float("nan"),
                                    DefenseMode.FENCE_SPECTRE,
                                    fail_secure=False)
        with pytest.raises(RuntimeError):
            ctrl(m, window(100))

    def test_latch_mid_run_counts_remaining_windows_secure(self):
        m = FakeMachine()
        verdicts = iter([False, False])

        def flaky(sample):
            return next(verdicts)        # third call raises StopIteration

        ctrl = SecureModeController(flaky, DefenseMode.FENCE_SPECTRE)
        ctrl(m, window(100))
        ctrl(m, window(200))
        assert ctrl.secure_fraction == 0.0
        for commit in (300, 400, 500):
            ctrl(m, window(commit))
        assert ctrl.latched
        assert ctrl.windows_total == 5
        assert ctrl.windows_secure == 3  # the faulted window + both after


class TestEntryPointEquivalence:
    """``__call__`` (the inline detector hook) and ``TenantSlot.apply``
    (a precomputed verdict, as the serving path delivers it) drive one
    state machine: the same script must decide the same way, window by
    window."""

    STATE = ("flags", "windows_secure", "windows_total", "active",
             "secure_until", "latched", "latch_reason", "detector_errors")

    @staticmethod
    def _script(fault, while_secure):
        """``(commit_index, outcome)`` pairs for a 500-instruction
        secure window; ``outcome`` is a verdict or a fault kind."""
        other = "raise" if fault == "nan" else "nan"
        script = [
            (100, False),
            (200, True),        # flag: secure until 700
            (400, True),        # re-arm: secure until 900
            (600, False),       # still secure
            (900, False),       # expiry exactly at secure_until
            (1000, False),
        ]
        if while_secure:
            script.append((1100, True))
        script += [
            (1200, fault),      # latches
            (1300, True),       # after the latch: runs secure, unflagged
            (1400, other),
            (50_000, False),
        ]
        return script

    @staticmethod
    def _adaptive_counters():
        counters = metrics().snapshot()["counters"]
        return {k: v for k, v in counters.items()
                if k.startswith("adaptive.")}

    def _drive(self, script, step, controller, core):
        before = self._adaptive_counters()
        trace = []
        for commit_index, outcome in script:
            returned = step(commit_index, outcome)
            trace.append((returned, core.defense,
                          tuple(getattr(controller, k) for k in self.STATE)))
        after = self._adaptive_counters()
        return trace, {k: after[k] - before.get(k, 0) for k in after}

    @pytest.mark.parametrize("while_secure", [False, True])
    @pytest.mark.parametrize("fault", ["nan", "raise"])
    def test_call_and_apply_decide_identically(self, fault, while_secure):
        script = self._script(fault, while_secure)
        outcomes = dict(script)

        def scripted(sample):
            outcome = outcomes[sample.commit_index]
            if outcome == "raise":
                raise RuntimeError("detector wedged")
            if outcome == "nan":
                return float("nan")
            return outcome

        inline = SecureModeController(scripted, DefenseMode.FENCE_SPECTRE,
                                      secure_window=500)
        machine = VirtualCore()
        inline_trace, inline_deltas = self._drive(
            script, lambda c, _: inline(machine, window(c)),
            inline, machine)

        def precomputed(commit_index, outcome):
            if outcome == "raise":
                return slot.apply(commit_index, False,
                                  RuntimeError("detector wedged"))
            if outcome == "nan":
                return slot.apply(commit_index, False, ValueError(
                    f"non-finite detector score {float('nan')!r}"))
            return slot.apply(commit_index, outcome)

        slot = TenantSlot("t0", DefenseMode.FENCE_SPECTRE, 500)
        slot_trace, slot_deltas = self._drive(
            script, precomputed, slot.controller, slot.core)

        assert slot_trace == inline_trace
        assert slot_deltas == inline_deltas
        # the script really exercised every transition
        defense_at = {commit: defense for (commit, _), (_, defense, _)
                      in zip(script, inline_trace)}
        assert defense_at[600] is DefenseMode.FENCE_SPECTRE
        assert defense_at[900] is DefenseMode.NONE    # expiry is inclusive
        returned = [r for r, _, _ in inline_trace]
        assert returned.count(True) == (3 if while_secure else 2)
        assert inline_deltas["adaptive.secure.exits"] == 1
        assert inline_deltas["adaptive.fail_secure.latches"] == 1
        assert inline_deltas["adaptive.detector.errors"] == 1
        assert inline.latched and inline.detector_errors == 1
        assert machine.defense is DefenseMode.FENCE_SPECTRE


class TestPolicies:
    def test_catalogue_covers_figure16(self):
        names = {p.name for p in DEFENSE_CONFIGS}
        assert "baseline" in names
        assert "fence-spectre" in names and "fence-futuristic" in names
        assert "invisispec-spectre" in names
        assert any(p.adaptive for p in DEFENSE_CONFIGS)

    def test_policy_is_frozen(self):
        import dataclasses
        import pytest
        p = DEFENSE_CONFIGS[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.name = "x"

    def test_measure_overhead_positive_for_fencing(self):
        ws = all_workloads(scale=2)[:4]
        overheads, baseline = measure_overhead(ws, DefenseMode.FENCE_SPECTRE)
        assert set(overheads) == {w.name for w in ws}
        assert sum(overheads.values()) > 0
        # baseline is reusable
        overheads2, _ = measure_overhead(ws, DefenseMode.NONE,
                                         baseline_cycles=baseline)
        assert all(abs(v) < 1e-9 for v in overheads2.values())

    def test_run_workload_returns_result(self):
        w = all_workloads(scale=1)[0]
        r = run_workload(w)
        assert r.halt_reason == "halt"
