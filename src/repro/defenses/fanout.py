"""Per-tenant fan-out of the fail-secure secure-mode controller.

The serving layer (:mod:`repro.serve`) scores windows from many tenants
in one matrix-matrix batch, but the *decision* — flag, secure-window
re-arm, fail-secure latch — is per tenant and must keep exactly the
semantics of :class:`repro.defenses.controller.SecureModeController`
that the adaptive architecture runs on a real core.  This module
provides that bridge: one genuine ``SecureModeController`` per tenant,
driven through :meth:`SecureModeController.decide` by precomputed batch
verdicts instead of an inline detector call.

Isolation is the point.  Each tenant owns its controller and its
virtual core; a poisoned window, a non-finite score, or a detector
exception attributed to tenant *t* latches **only** tenant *t* into
always-secure mode.  Sibling tenants keep their verdict streams
bit-identical to a run where the faulty tenant never existed (scoring
is batch-size-invariant per row, and controller state is per tenant) —
pinned by ``tests/serve/test_tenant_isolation.py``.
"""

from repro.defenses.controller import SecureModeController
from repro.sim.config import DefenseMode


class VirtualCore:
    """The machine stub a tenant's controller steers.

    A serving tenant has no simulated core behind it — just the defense
    mode its real core *would* be told to run.  The controller calls
    ``set_defense``; the slot records it.
    """

    def __init__(self):
        self.defense = DefenseMode.NONE

    def set_defense(self, mode):
        self.defense = mode


class TenantSlot:
    """One tenant's controller + virtual core + serving bookkeeping."""

    def __init__(self, tenant, secure_mode, secure_window):
        self.tenant = tenant
        self.core = VirtualCore()
        self.controller = SecureModeController(
            detector_fn=None, secure_mode=secure_mode,
            secure_window=secure_window, fail_secure=True)
        self.windows = 0
        self.shed = 0

    def apply(self, commit_index, verdict, fault=None):
        """Feed one precomputed window outcome through the controller.

        Returns ``True`` when the controller flagged the window.  A
        ``fault`` (an exception instance) takes the controller's
        fail-secure path and latches this tenant permanently.  The
        batch path has already validated the raw window vectorized
        (finiteness, width), so no per-element re-validation runs here.
        """
        self.windows += 1
        return self.controller.decide(self.core, commit_index, verdict,
                                      fault)

    def shed_window(self, commit_index):
        """Conservative fallback for an unscored (shed) window.

        Backpressure must fail *secure*, never open: a window dropped
        under overload is treated as a positive flag, so the tenant
        runs mitigated through the overload instead of unmonitored.
        """
        self.shed += 1
        return self.apply(commit_index, True)

    @property
    def latched(self):
        return self.controller.latched

    def summary(self):
        c = self.controller
        return {
            "windows": self.windows,
            "flags": c.flags,
            "shed": self.shed,
            "secure_fraction": round(c.secure_fraction, 6),
            "latched": c.latched,
            "latch_reason": c.latch_reason,
            "defense": getattr(self.core.defense, "value",
                               str(self.core.defense)),
        }


class ControllerFanout:
    """Lazily-created :class:`TenantSlot` per tenant id."""

    def __init__(self, secure_mode=DefenseMode.FENCE_FUTURISTIC,
                 secure_window=10_000):
        self.secure_mode = secure_mode
        self.secure_window = secure_window
        self.slots = {}

    def slot(self, tenant):
        slot = self.slots.get(tenant)
        if slot is None:
            slot = self.slots[tenant] = TenantSlot(
                tenant, self.secure_mode, self.secure_window)
        return slot

    def latched_tenants(self):
        return sorted(t for t, s in self.slots.items() if s.latched)

    def summary(self):
        """Deterministically-ordered per-tenant summary dict."""
        return {t: self.slots[t].summary() for t in sorted(self.slots)}
