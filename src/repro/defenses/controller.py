"""The secure-mode controller: detector-gated adaptive mitigation.

This is the paper's end-to-end mechanism ("we turn on mitigation at every
true flag by our detector and we execute [N] instructions in secure mode"):
the detector classifies every HPC sampling window; on a positive flag the
core switches to the configured mitigation for ``secure_window`` committed
instructions, re-armed by further flags, then drops back to full
performance.

The controller is also the system's last line of defense against a
*degraded detector* — an HMD whose inference path fails silently is worse
than no detector at all (an attacker who can crash or NaN the model would
otherwise disable the defense).  A built-in health watchdog therefore
validates every window end to end: feature vectors must be finite and
dimension-stable, the detector must not raise, and its scores must be
finite.  Any violation **latches the core into always-secure mode**
(policy-configurable via ``fail_secure``), records the event, and keeps
the mitigation on for the remainder of the run — the defense fails
*secure*, never silent.

Every detector call on that path goes through :func:`contain`, the
fail-secure boundary's only ``except``: it returns the fault as a
value, and :meth:`SecureModeController.decide` latches on it.
"""

import math

from repro.obs import metrics, obs_event
from repro.sim.config import DefenseMode

# cached instrument handles: the controller decides once per sampling
# window, and a served tenant pays this per window too, so each event
# is one attribute increment instead of a registry name lookup
_REG = metrics()
_WINDOWS_TOTAL = _REG.counter("adaptive.windows.total")
_WINDOWS_SECURE = _REG.counter("adaptive.windows.secure")
_FLAGS = _REG.counter("adaptive.flags")
_SECURE_ENTRIES = _REG.counter("adaptive.secure.entries")
_SECURE_EXITS = _REG.counter("adaptive.secure.exits")
_DETECTOR_ERRORS = _REG.counter("adaptive.detector.errors")
_LATCHES = _REG.counter("adaptive.fail_secure.latches")


def contain(fn, *args):
    """``(fn(*args), None)``, or ``(None, fault)`` when the call raises.

    The one ``except`` in the fail-secure boundary (the
    ``fail-secure-handler`` check flags any other there): callers hand
    ``fault`` to :meth:`SecureModeController.decide`, which latches the
    controller into always-secure mode on it.
    """
    try:
        return fn(*args), None
    # ANY detector fault, not a foreseen subset, must reach the latch
    # (docs/training_resilience.md, "Fail-secure inference")
    # repro-lint: disable=broad-except,fail-secure-handler -- the one handler
    except Exception as exc:
        return None, exc


class SecureModeController:
    """Wire into :class:`repro.sim.Machine` as its ``detector_hook``.

    One window state machine, two entry points: :meth:`__call__` runs
    the detector inline (the simulated core's hook), and :meth:`decide`
    takes a verdict scored elsewhere (the serving layer's batched
    path).  Both advance the same state through the same code.

    Parameters
    ----------
    detector_fn:
        Callable ``(sample) -> bool`` deciding whether a sampling window
        looks malicious (the trained EVAX detector's predict).
    secure_mode:
        The :class:`DefenseMode` to enable on a flag.
    secure_window:
        Committed instructions to stay in secure mode after the last flag
        (paper evaluates 10k / 100k / 1M).
    fail_secure:
        When ``True`` (default), a detector fault — an exception, a
        non-finite score, or a malformed feature vector — latches the
        controller into always-secure mode for the rest of the run.
        When ``False`` the fault propagates to the caller instead;
        there is no mode in which faults are silently ignored.
    """

    def __init__(self, detector_fn, secure_mode, secure_window=10_000,
                 fail_secure=True):
        self.detector_fn = detector_fn
        self.secure_mode = secure_mode
        self.secure_window = secure_window
        self.fail_secure = fail_secure
        self.active = False
        self.secure_until = 0
        self.flags = 0
        self.windows_secure = 0
        self.windows_total = 0
        self.latched = False
        self.latch_reason = None
        self.detector_errors = 0
        self._expected_dim = None

    # -- health watchdog ----------------------------------------------------

    def _validate_sample(self, sample):
        """Feature-vector sanity: finite deltas, stable width."""
        deltas = getattr(sample, "deltas", None)
        if not deltas:
            return
        for value in deltas:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"non-finite counter delta {value!r} in sampling window")
        if self._expected_dim is None:
            self._expected_dim = len(deltas)
        elif len(deltas) != self._expected_dim:
            raise ValueError(
                f"feature vector width changed mid-run "
                f"({len(deltas)} vs {self._expected_dim})")

    def _latch(self, machine, reason, detail):
        """Detector health violation: fail secure, permanently."""
        self.detector_errors += 1
        _DETECTOR_ERRORS.inc()
        if not self.fail_secure:
            raise RuntimeError(
                f"detector health violation ({reason}): {detail}")
        if not self.latched:
            self.latched = True
            self.latch_reason = f"{reason}: {detail}"
            _LATCHES.inc()
            obs_event("adaptive.fail_secure", level="error",
                      reason=reason, detail=str(detail))
        self.active = True
        self.secure_until = float("inf")
        machine.set_defense(self.secure_mode)

    # -- the window state machine -------------------------------------------

    def _verdict(self, sample):
        """Validate the window, consult ``detector_fn`` and check its
        score: every health violation raises."""
        self._validate_sample(sample)
        verdict = self.detector_fn(sample)
        if isinstance(verdict, float) and not math.isfinite(verdict):
            raise ValueError(f"non-finite detector score {verdict!r}")
        return verdict

    def __call__(self, machine, sample):
        """``detector_hook`` entry: the window's verdict through
        :func:`contain`, then :meth:`decide`, which latches on a fault.
        A latched controller never consults the detector again."""
        if self.latched:
            return self.decide(machine, sample.commit_index, False)
        verdict, fault = contain(self._verdict, sample)
        return self.decide(machine, sample.commit_index, bool(verdict),
                           fault)

    def decide(self, machine, commit_index, flagged, fault=None):
        """Advance one window on a verdict already computed elsewhere.

        ``flagged`` is the window's verdict; ``fault`` (an exception
        instance) is a detector health violation attributed to this
        window: it overrides the verdict and latches the controller
        exactly as a fault raised inside :meth:`__call__` does.
        Returns ``True`` when the window flagged.

        The batched serving path calls this directly, one window at a
        time, so its verdicts, counters and events match the inline hook.
        """
        self.windows_total += 1
        _WINDOWS_TOTAL.inc()
        if self.latched:
            # fail-secure latch: every remaining window runs mitigated
            self.windows_secure += 1
            _WINDOWS_SECURE.inc()
            return False
        counted_secure = self.active
        if counted_secure:
            self.windows_secure += 1
            _WINDOWS_SECURE.inc()
            if commit_index >= self.secure_until:
                self.active = False
                machine.set_defense(DefenseMode.NONE)
                _SECURE_EXITS.inc()
                obs_event("adaptive.secure_exit", level="debug",
                          commit_index=commit_index)
        if fault is not None:
            self._latch(machine, type(fault).__name__, fault)
            if not counted_secure:   # the faulted window itself runs secure
                self.windows_secure += 1
                _WINDOWS_SECURE.inc()
            return False
        if flagged:
            self.flags += 1
            _FLAGS.inc()
            self.secure_until = commit_index + self.secure_window
            if not self.active:
                self.active = True
                machine.set_defense(self.secure_mode)
                _SECURE_ENTRIES.inc()
                obs_event("adaptive.secure_enter",
                          commit_index=commit_index,
                          mode=getattr(self.secure_mode, "value",
                                       str(self.secure_mode)))
        return flagged

    @property
    def secure_fraction(self):
        """Fraction of sampling windows spent in secure mode."""
        if not self.windows_total:
            return 0.0
        return self.windows_secure / self.windows_total
