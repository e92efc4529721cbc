"""Reorder-buffer entry and in-flight instruction state."""

import enum


class EntryState(enum.Enum):
    """Lifecycle of an in-flight ROB entry."""

    DISPATCHED = "dispatched"   # in the ROB/IQ, waiting for operands/port
    EXECUTING = "executing"     # issued; result arrives at done_cycle
    DONE = "done"               # result available, awaiting commit
    SQUASHED = "squashed"       # removed from the ROB (terminal); lets the
    #                             core's lazy lists detect dead entries with
    #                             one identity check instead of a dict probe


class FaultKind(enum.Enum):
    """Deferred-fault kinds resolved when the entry reaches the head."""

    NONE = "none"
    PRIV = "priv"       # user-mode access to a kernel address (Meltdown)
    ASSIST = "assist"   # microcode-assist page (LVI / MDS forwarding path)


class RobEntry:
    """One in-flight micro-op.

    Operand values live in the ``v1``/``v2`` slots (for rs1/rs2).  The
    optimized core captures them eagerly: at dispatch when the value is
    already architectural or the producer is DONE (results are write-once,
    and any younger writer of the same register commits after this entry
    executes, so early capture reads the same value the execute stage
    would), otherwise at the producer's completion via the producer's
    ``waiters`` list of ``(consumer, slot)`` pairs.
    The reference scheduler instead keeps the seed's ``sources`` dict —
    register -> ``("val", value)`` | ``("rob", seq)`` — resolved lazily at
    execute; the slot is left unset here and created by its dispatch.
    Classification flags (``is_load``, ``is_branch``, ...) are read from
    ``inst``, which precomputes them.
    """

    __slots__ = (
        "seq", "pc", "inst", "state", "sources", "v1", "v2", "waiters",
        "result", "done_cycle", "fault", "addr", "store_value",
        "predicted_taken", "predicted_target", "actual_taken", "actual_target",
        "forwarded_from", "read_memory", "invisible", "needs_expose",
        "under_shadow", "pending_sources",
    )

    def __init__(self, seq, pc, inst, predicted_taken=None,
                 predicted_target=None):
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.state = EntryState.DISPATCHED
        self.waiters = None   # lazily created [(consumer, slot), ...]
        self.result = None
        self.fault = FaultKind.NONE
        self.needs_expose = False
        self.predicted_taken = predicted_taken
        self.predicted_target = predicted_target
        # Kind-specific fields are only initialized where some reader can
        # reach them before the execute stage assigns them:
        #   loads  — addr/forwarded_from/read_memory/invisible are read by
        #            the memory-order check and squash accounting,
        #   stores — addr/store_value are scanned by the forwarding and
        #            dependence logic while the store is still DISPATCHED.
        # done_cycle / under_shadow (reference core only) / actual_taken /
        # actual_target are assigned at issue/execute before any read;
        # v1/v2/pending_sources are assigned at dispatch.
        if inst.is_load:
            self.addr = None
            self.forwarded_from = None
            self.read_memory = False
            self.invisible = False
        elif inst.is_store:
            self.addr = None
            self.store_value = None

    @property
    def resolved(self):
        return self.state is EntryState.DONE

    def __repr__(self):
        return (f"<RobEntry #{self.seq} pc={self.pc} {self.inst.op.value} "
                f"{self.state.value}>")
