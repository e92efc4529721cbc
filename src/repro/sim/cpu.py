"""The out-of-order pipeline: fetch, dispatch, issue, complete, commit.

The model is Tomasulo-with-ROB: entries carry their operand links
(architectural value or producing ROB entry), results are computed at issue
and become architecturally visible at ``done_cycle``, and commit retires
in program order from the ROB head.  The security-relevant behaviours are
faithful:

* **Deferred faults** — a user-mode load of a kernel address executes
  (returning the real data when the core is Meltdown-vulnerable) and only
  traps when it reaches the ROB head; younger dependent ops execute
  transiently in the meantime, bounded by the ROB size.
* **Wrong-path execution** — conditional/indirect/return mispredictions are
  discovered when the branch resolves; until then wrong-path loads issue
  and perturb real cache state.
* **Store-to-load forwarding & memory-dependence speculation** — loads may
  bypass older unresolved stores (Spectre-STL), and assist-page loads
  transiently receive stale store-queue data (LVI / MDS) before faulting.
* **Defenses** — fencing modes delay issue; InvisiSpec modes service
  shadowed loads invisibly and expose them at commit.

Hot-loop structure (see docs/simulator.md "Fast counter path & wakeup
scheduling"): counters are bumped through preresolved integer slots, not
name lookups; issue readiness is a maintained ``pending_sources`` count
driven by per-producer wakeup lists instead of a per-cycle operand scan;
completion is a (done_cycle, seq) heap instead of a scan over in-flight
entries; and the oldest unresolved branch / fence / lfence is O(1) because
those lists are kept in program order.  ``repro.sim.reference`` keeps the
original scan-based scheduler as an executable specification; the two must
stay counter-stream bit-identical (tests/sim/test_counter_equivalence.py).
"""

import heapq
from bisect import insort
from collections import deque
from operator import attrgetter

from repro.sim.config import DefenseMode
from repro.sim.hpc import CounterBank
from repro.sim.isa import (
    Op, PORT_INT, PORT_MULDIV, PORT_MEM, WORD_BYTES,
    is_assist_address, is_kernel_address,
)
from repro.sim.rob import EntryState, FaultKind, RobEntry
from repro.sim.units import ExecPorts

_SQUASH_REDIRECT_PENALTY = 3

_SEQ_OF = attrgetter("seq")

_DONE = EntryState.DONE
_DISPATCHED = EntryState.DISPATCHED
_EXECUTING = EntryState.EXECUTING
_SQUASHED = EntryState.SQUASHED
_FAULT_NONE = FaultKind.NONE

# -- preresolved counter slots (typo fails at import, not first event) --------
_IX = CounterBank.index_of

_C_CPU_NUMCYCLES = _IX("cpu.numCycles")
_C_CPU_IDLECYCLES = _IX("cpu.idleCycles")
_C_CPU_COMMITTEDOPS = _IX("cpu.committedOps")
_C_CPU_RDTSCREADS = _IX("cpu.rdtscReads")

_C_COMMIT_STORES = _IX("commit.stores")
_C_COMMIT_LOADS = _IX("commit.loads")
_C_COMMIT_MEMREFS = _IX("commit.memRefs")
_C_COMMIT_BRANCHES = _IX("commit.branches")
_C_COMMIT_FENCES = _IX("commit.fences")
_C_COMMIT_MEMBARS = _IX("commit.membars")
_C_COMMIT_COMMITTEDINSTS = _IX("commit.committedInsts")
_C_COMMIT_TRAPS = _IX("commit.traps")
_C_COMMIT_SQUASHEDINSTS = _IX("commit.squashedInsts")
_C_COMMIT_COMMITSQUASHED = _IX("commit.commitSquashedInsts")
_C_COMMIT_BRANCHMISPRED = _IX("commit.branchMispredicts")

_C_ROB_READS = _IX("rob.reads")
_C_ROB_WRITES = _IX("rob.writes")
_C_ROB_FULLEVENTS = _IX("rob.fullEvents")

_C_SPECBUF_EXPOSES = _IX("specbuf.exposes")
_C_SPECBUF_VALIDATIONSTALLS = _IX("specbuf.validationStalls")
_C_SPECBUF_SQUASHES = _IX("specbuf.squashes")

_C_SQUASH_FAULT = _IX("squash.faultSquashes")
_C_SQUASH_BRANCH = _IX("squash.branchSquashes")
_C_SQUASH_MEMORDER = _IX("squash.memOrderSquashes")
_C_SQUASH_FETCHED = _IX("squash.squashedFetchedInsts")

_C_IEW_PORTCONTENTION = _IX("iew.portContentionCycles")
_C_IEW_INTALU = _IX("iew.intAluAccesses")
_C_IEW_MULDIV = _IX("iew.mulDivAccesses")
_C_IEW_EXECBRANCHES = _IX("iew.execBranches")
_C_IEW_BRANCHMISPRED = _IX("iew.branchMispredicts")
_C_IEW_PREDTAKENINCORRECT = _IX("iew.predictedTakenIncorrect")
_C_IEW_EXECSQUASHED = _IX("iew.execSquashedInsts")
_C_IEW_EXECLOADS = _IX("iew.execLoadInsts")
_C_IEW_EXECSTORES = _IX("iew.execStoreInsts")
_C_IEW_MEMORDERVIOL = _IX("iew.memOrderViolationEvents")

_C_BP_CONDINCORRECT = _IX("branchPred.condIncorrect")
_C_BP_INDIRECTMISPRED = _IX("branchPred.indirectMispredicted")
_C_BP_INDIRECTLOOKUPS = _IX("branchPred.indirectLookups")
_C_BP_INDIRECTHITS = _IX("branchPred.indirectHits")
_C_BP_RASINCORRECT = _IX("branchPred.RASIncorrect")

_C_IQ_SQUASHEDEXAMINED = _IX("iq.squashedInstsExamined")
_C_IQ_SQUASHEDISSUED = _IX("iq.squashedInstsIssued")
_C_IQ_SQUASHEDNONSPECLD = _IX("iq.squashedNonSpecLD")
_C_IQ_CONFLICTS = _IX("iq.conflicts")
_C_IQ_INSTSISSUED = _IX("iq.instsIssued")
_C_IQ_INTQUEUEREADS = _IX("iq.intInstQueueReads")
_C_IQ_FULLEVENTS = _IX("iq.fullEvents")
_C_IQ_INSTSADDED = _IX("iq.instsAdded")
_C_IQ_SPECINSTSADDED = _IX("iq.specInstsAdded")

_C_LSQ_SQUASHEDLOADS = _IX("lsq.squashedLoads")
_C_LSQ_SQUASHEDSTORES = _IX("lsq.squashedStores")
_C_LSQ_CACHEBLOCKED = _IX("lsq.cacheBlocked")
_C_LSQ_BLOCKEDLOADS = _IX("lsq.blockedLoads")
_C_LSQ_MEMORDERVIOL = _IX("lsq.memOrderViolation")
_C_LSQ_RESCHEDULED = _IX("lsq.rescheduledLoads")
_C_LSQ_UNALIGNEDSTORES = _IX("lsq.unalignedStores")
_C_LSQ_IGNOREDRESP = _IX("lsq.ignoredResponses")
_C_LSQ_ASSISTFORWARDS = _IX("lsq.assistForwards")
_C_LSQ_SPECLOADSHITWQ = _IX("lsq.specLoadsHitWriteQueue")
_C_LSQ_FORWLOADS = _IX("lsq.forwLoads")

_C_WRQUEUE_BYTESREAD = _IX("wrqueue.bytesRead")

_C_RENAME_UNDONEMAPS = _IX("rename.undoneMaps")
_C_RENAME_SQUASHED = _IX("rename.squashedInsts")
_C_RENAME_COMMITTEDMAPS = _IX("rename.committedMaps")
_C_RENAME_SERIALIZING = _IX("rename.serializingInsts")
_C_RENAME_RENAMED = _IX("rename.renamedInsts")
_C_RENAME_BLOCKCYCLES = _IX("rename.blockCycles")

_C_DECODE_INSTS = _IX("decode.insts")
_C_DECODE_SQUASHED = _IX("decode.squashedInsts")

_C_FETCH_SQUASHCYCLES = _IX("fetch.squashCycles")
_C_FETCH_PENDINGQUIESCE = _IX("fetch.pendingQuiesceStallCycles")
_C_FETCH_BLOCKEDCYCLES = _IX("fetch.blockedCycles")
_C_FETCH_CYCLES = _IX("fetch.cycles")
_C_FETCH_ICACHESTALL = _IX("fetch.icacheStallCycles")
_C_FETCH_INSTS = _IX("fetch.insts")
_C_FETCH_BRANCHES = _IX("fetch.branches")
_C_FETCH_PREDICTEDTAKEN = _IX("fetch.predictedTaken")

# for the inlined L1I same-line fast path in _fetch (the machine shares one
# CounterBank across core, caches and TLBs)
_C_ICACHE_ACCESSES = _IX("icache.accesses")
_C_ICACHE_HITS = _IX("icache.hits")


class O3Core:
    """The out-of-order core, advanced one cycle at a time by the Machine."""

    def __init__(self, machine):
        self.m = machine
        self.config = machine.config
        self.counters = machine.counters
        self.ports = ExecPorts(self.config, self.counters)
        self.branch_predictor = machine.branch_predictor
        self.btb = machine.btb
        self.ras = machine.ras

        self.arch_regs = [0] * 16
        self.rename_map = [None] * 16  # arch reg -> producing RobEntry (or None)
        self._sampler = machine.sampler
        self.rob = deque()             # program order, left = oldest
        self.entries_by_seq = {}
        self.waiting = []              # DISPATCHED (reference scheduler only)
        self._iq_len = 0               # DISPATCHED count (fast IQ occupancy)
        self._ready = []               # DISPATCHED + operands ready, seq order
        self.executing = []            # EXECUTING (reference scheduler only)
        self.store_entries = []        # in-flight stores, program order
        self.load_entries = []         # in-flight loads, program order
        self.unresolved_branches = []  # mispredictable branches not DONE
        self.fences = []               # in-flight FENCE entries
        self.lfences = []              # in-flight LFENCE entries

        # -- wakeup/event scheduling state (fast scheduler) ---------------
        #: min-heap of (done_cycle, seq, entry) for in-flight executions
        #: (wakeup links live on the producer entries themselves:
        #: RobEntry.waiters is a lazy [(consumer, slot), ...] list)
        self._completion = []
        #: bumped on every squash; invalidates the oldest-incomplete cache
        self._squash_epoch = 0
        self._oldest_incomplete_key = None
        self._oldest_incomplete = None

        self.fetch_buffer = deque()
        self.fetch_pc = 0
        self.fetch_stall_until = 0
        self.commit_stall_until = 0
        self.trap_handler = None
        self.halted = False
        self.halt_reason = None

        self.next_seq = 0
        self.committed = 0
        self.cycle = 0
        self._halt_fetched = False

    # ------------------------------------------------------------------ helpers

    def _operand(self, entry, reg):
        """Operand value from the entry's capture slots.  ``reg`` is always
        the instruction's rs1 or rs2 (CALL/RET pass 15, which *is* their
        rs1); the reference scheduler overrides this with the seed's lazy
        ``sources``-dict resolution."""
        return entry.v1 if reg == entry.inst.rs1 else entry.v2

    def _has_older_unresolved_branch(self, seq):
        # unresolved_branches is kept in program order, so the oldest
        # unresolved branch is always the first element
        ub = self.unresolved_branches
        return bool(ub) and ub[0].seq < seq

    def _has_older_incomplete(self, entry):
        """Is any older ROB entry not DONE?  Cached per (cycle, squash
        epoch): within one issue scan the set of non-DONE entries only
        loses members to squashes (which bump the epoch), so the oldest
        incomplete seq is stable between recomputes."""
        key = (self.cycle, self._squash_epoch)
        if self._oldest_incomplete_key != key:
            self._oldest_incomplete_key = key
            self._oldest_incomplete = next(
                (e.seq for e in self.rob if e.state is not _DONE), None)
        oldest = self._oldest_incomplete
        return oldest is not None and oldest < entry.seq

    def _mark_done(self, entry):
        """Transition to DONE and wake every consumer waiting on it,
        forwarding the (write-once) result into their operand slots."""
        entry.state = _DONE
        waiters = entry.waiters
        if waiters:
            result = entry.result
            for consumer, slot in waiters:
                if slot == 1:
                    consumer.v1 = result
                else:
                    consumer.v2 = result
                consumer.pending_sources -= 1
                if consumer.pending_sources == 0 \
                        and consumer.state is _DISPATCHED:
                    self._note_ready(consumer)

    def _note_ready(self, entry):
        """Register an operand-ready DISPATCHED entry as an issue candidate.

        The candidate list stays seq-sorted (dispatch appends in seq order;
        wakeups insort); entries that issue or get squashed are pruned
        lazily by :meth:`_issue`.  The reference scheduler overrides this
        to a no-op — it rescans ``waiting`` every cycle instead.
        """
        ready = self._ready
        if not ready or ready[-1].seq < entry.seq:
            ready.append(entry)
        else:
            insort(ready, entry, key=_SEQ_OF)

    def _note_executing(self, entry):
        """Register a newly issued entry with the completion scheduler."""
        heapq.heappush(self._completion, (entry.done_cycle, entry.seq, entry))

    # ------------------------------------------------------------------ cycle

    def step(self, cycle):
        """Advance the core one cycle."""
        self.cycle = cycle
        # inline of ExecPorts.new_cycle: stolen ports apply to this cycle
        # (the tables are lists indexed PORT_INT/PORT_MULDIV/PORT_MEM = 0/1/2)
        used, stolen = self.ports._used, self.ports._stolen
        used[0] = stolen[0]
        used[1] = stolen[1]
        used[2] = stolen[2]
        stolen[0] = stolen[1] = stolen[2] = 0
        v = self.counters.values
        v[_C_CPU_NUMCYCLES] += 1
        committed_before = self.committed
        self._commit(cycle)
        if self.committed == committed_before:
            # no instruction retired this cycle (head not ready, commit
            # stalled, or an expose occupied the commit port)
            v[_C_CPU_IDLECYCLES] += 1
        if self.halted:
            return
        self._complete(cycle)
        self._issue(cycle)
        self._dispatch(cycle)
        self._fetch(cycle)
        if not self.rob and not self.fetch_buffer:
            insts = self.m.program.instructions
            if not 0 <= self.fetch_pc < len(insts):
                self.halted = True
                self.halt_reason = "end-of-program"

    # ------------------------------------------------------------------ commit

    def _commit(self, cycle):
        if self.commit_stall_until > cycle:
            return
        rob = self.rob
        if not rob or rob[0].state is not _DONE:
            return  # head not ready: skip the locals below on idle cycles
        retired = 0
        width = self.config.commit_width
        v = self.counters.values
        by_seq = self.entries_by_seq
        while retired < width and rob:
            head = rob[0]
            if head.state is not _DONE:
                break
            if head.fault is not _FAULT_NONE:
                self._trap(head, cycle)
                return
            if head.needs_expose:
                self._expose(head, cycle)
                return
            # ---- inline retire (was _retire; only ever called here) ----
            inst = head.inst
            seq = head.seq
            rd = inst.rd
            if rd is not None and head.result is not None:
                self.arch_regs[rd] = head.result
            if head.is_branch:
                v[_C_COMMIT_BRANCHES] += 1
            flags = inst.disp_flags   # 0 for plain ALU ops
            if flags:
                if flags & 1:        # store: drain to memory at commit
                    if head.addr is not None:
                        self.m.memory.store(head.addr, head.store_value)
                        self.m.hierarchy.access_data(
                            head.addr, is_write=True, cycle=cycle)
                        v[_C_COMMIT_STORES] += 1
                        v[_C_COMMIT_MEMREFS] += 1
                    # the retiring head is the oldest in-flight store
                    stores = self.store_entries
                    if stores and stores[0] is head:
                        del stores[0]
                    else:
                        stores.remove(head)
                elif flags & 2:      # load
                    v[_C_COMMIT_LOADS] += 1
                    v[_C_COMMIT_MEMREFS] += 1
                    loads = self.load_entries
                    if loads and loads[0] is head:
                        del loads[0]
                    else:
                        loads.remove(head)
            rk = inst.retire_kind
            if rk:
                if rk == 1:    # MARK
                    self.m.record_phase(inst.imm, self.committed)
                elif rk == 2:  # TRY
                    self.trap_handler = inst.target
                elif rk == 3:  # FENCE / LFENCE
                    v[_C_COMMIT_FENCES] += 1
                    v[_C_COMMIT_MEMBARS] += 1
                    gate = self.fences if inst.op is Op.FENCE else self.lfences
                    try:
                        gate.remove(head)
                    except ValueError:
                        pass
                else:          # HALT
                    self.halted = True
                    self.halt_reason = "halt"
            del by_seq[seq]
            if rd is not None and self.rename_map[rd] is head:
                self.rename_map[rd] = None
            rob.popleft()
            self.committed += 1
            v[_C_COMMIT_COMMITTEDINSTS] += 1
            v[_C_CPU_COMMITTEDOPS] += 1
            v[_C_ROB_WRITES] += 1
            # cheap inline gate: the sampler only acts at a window
            # boundary, so skip the call chain for most commits
            if self.committed >= self._sampler.next_boundary:
                self.m.on_commit(self.committed)
            retired += 1
            if self.halted:
                return

    def _expose(self, head, cycle):
        """InvisiSpec exposure: make the load architecturally visible.

        The expose occupies the commit port for
        ``invisispec_expose_latency`` cycles.  Accounting contract (pinned
        by tests/sim/test_invisispec_accounting.py): ``specbuf.exposes``
        counts expose *events*, ``specbuf.validationStalls`` counts the
        commit cycles stalled by validation, so ``validationStalls ==
        exposes * invisispec_expose_latency`` always holds — the expose
        event is recorded exactly once per load no matter how many cycles
        the stalled commit port re-polls the head, and the stalled cycles
        themselves are also visible as ``cpu.idleCycles`` via the
        no-retirement path in :meth:`step`.
        """
        head.needs_expose = False
        stall = self.config.invisispec_expose_latency
        v = self.counters.values
        v[_C_SPECBUF_EXPOSES] += 1
        v[_C_SPECBUF_VALIDATIONSTALLS] += stall
        self.m.hierarchy.access_data(head.addr, is_write=False, cycle=cycle)
        self.commit_stall_until = cycle + stall

    def _trap(self, entry, cycle):
        v = self.counters.values
        v[_C_COMMIT_TRAPS] += 1
        v[_C_SQUASH_FAULT] += 1
        squashed = self._squash_younger(entry.seq - 1, cycle)
        v[_C_COMMIT_COMMITSQUASHED] += squashed
        self.commit_stall_until = cycle + self.config.trap_latency
        if self.trap_handler is not None:
            self._redirect(self.trap_handler, cycle + self.config.trap_latency)
        else:
            self.halted = True
            self.halt_reason = f"fault:{entry.fault.value}"
        self.committed += 1  # the trap consumes the faulting op
        m = self.m
        if self.committed >= m.sampler.next_boundary:
            m.on_commit(self.committed)

    # ------------------------------------------------------------------ complete

    def _complete(self, cycle):
        """Wake entries whose results arrive this cycle.

        Heap order (done_cycle, seq) matches the reference scheduler's
        sort-by-seq because the core is stepped every cycle while work is
        in flight, so everything due has ``done_cycle == cycle``.
        """
        heap = self._completion
        if not heap or heap[0][0] > cycle:
            return
        ready = self._ready
        pop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            _, seq, entry = pop(heap)
            if entry.state is not _EXECUTING:
                continue  # squashed after issue (state is _SQUASHED)
            # inline of _mark_done (value forwarding) and _note_ready
            entry.state = _DONE
            waiters = entry.waiters
            if waiters:
                result = entry.result
                for consumer, slot in waiters:
                    if slot == 1:
                        consumer.v1 = result
                    else:
                        consumer.v2 = result
                    consumer.pending_sources -= 1
                    if consumer.pending_sources == 0 \
                            and consumer.state is _DISPATCHED:
                        if not ready or ready[-1].seq < consumer.seq:
                            ready.append(consumer)
                        else:
                            insort(ready, consumer, key=_SEQ_OF)
            if entry.is_branch:
                self._resolve_branch(entry, cycle)

    def _resolve_branch(self, entry, cycle):
        v = self.counters.values
        op = entry.inst.op
        try:
            self.unresolved_branches.remove(entry)
        except ValueError:
            pass
        v[_C_IEW_EXECBRANCHES] += 1
        if entry.is_cond_branch:
            self.branch_predictor.update(entry.pc, entry.actual_taken)
        if op is Op.JMPI:
            self.btb.update(entry.pc, entry.actual_target)
        mispredicted = entry.predicted_target != entry.actual_target
        if not mispredicted:
            return
        v[_C_IEW_BRANCHMISPRED] += 1
        v[_C_COMMIT_BRANCHMISPRED] += 1
        if entry.is_cond_branch:
            v[_C_BP_CONDINCORRECT] += 1
            if entry.predicted_taken:
                v[_C_IEW_PREDTAKENINCORRECT] += 1
        elif op is Op.JMPI:
            v[_C_BP_INDIRECTMISPRED] += 1
        elif op is Op.RET:
            v[_C_BP_RASINCORRECT] += 1
        v[_C_SQUASH_BRANCH] += 1
        self._squash_younger(entry.seq, cycle)
        self._redirect(entry.actual_target, cycle)

    # ------------------------------------------------------------------ squash

    def _squash_younger(self, than_seq, cycle):
        """Remove every ROB entry with seq > than_seq; returns the count."""
        v = self.counters.values
        rob = self.rob
        squashed = 0
        while rob and rob[-1].seq > than_seq:
            entry = rob.pop()
            squashed += 1
            v[_C_IQ_SQUASHEDEXAMINED] += 1
            if entry.state is not _DISPATCHED:
                v[_C_IEW_EXECSQUASHED] += 1
                v[_C_IQ_SQUASHEDISSUED] += 1
                if entry.is_load:
                    v[_C_LSQ_SQUASHEDLOADS] += 1
                    if entry.fault is not FaultKind.NONE:
                        v[_C_IQ_SQUASHEDNONSPECLD] += 1
                    if entry.invisible:
                        v[_C_SPECBUF_SQUASHES] += 1
                if entry.is_store:
                    v[_C_LSQ_SQUASHEDSTORES] += 1
            if entry.inst.rd is not None:
                v[_C_RENAME_UNDONEMAPS] += 1
            self._remove_entry(entry)
        v[_C_DECODE_SQUASHED] += squashed
        v[_C_RENAME_SQUASHED] += squashed
        v[_C_COMMIT_SQUASHEDINSTS] += squashed
        v[_C_SQUASH_FETCHED] += len(self.fetch_buffer)
        self.fetch_buffer.clear()
        self._rebuild_rename_map()
        self._squash_epoch += 1
        return squashed

    def _remove_entry(self, entry):
        # Callers squash youngest-first, so in every ordered list the
        # victim is almost always the *last* element — try a tail pop
        # before falling back to a linear remove.
        self.entries_by_seq.pop(entry.seq, None)
        state = entry.state
        if state is _DISPATCHED:
            self._iq_len -= 1
            waiting = self.waiting     # reference scheduler's IQ list;
            if waiting:                # always empty under the fast core
                if waiting[-1] is entry:
                    waiting.pop()
                else:
                    try:
                        waiting.remove(entry)
                    except ValueError:
                        pass
        elif state is _EXECUTING and self.executing:
            try:
                self.executing.remove(entry)
            except ValueError:
                pass
        if entry.is_store:
            stores = self.store_entries
            if stores and stores[-1] is entry:
                stores.pop()
            else:
                try:
                    stores.remove(entry)
                except ValueError:
                    pass
        if entry.is_load:
            loads = self.load_entries
            if loads and loads[-1] is entry:
                loads.pop()
            else:
                try:
                    loads.remove(entry)
                except ValueError:
                    pass
        inst = entry.inst
        if inst.is_shadowing and state is not _DONE:
            ub = self.unresolved_branches
            if ub and ub[-1] is entry:
                ub.pop()
            else:
                try:
                    ub.remove(entry)
                except ValueError:
                    pass
        elif inst.retire_kind == 3:
            gate = self.fences if inst.op is Op.FENCE else self.lfences
            if gate and gate[-1] is entry:
                gate.pop()
            else:
                try:
                    gate.remove(entry)
                except ValueError:
                    pass
        rd = entry.inst.rd
        if rd is not None and self.rename_map[rd] is entry:
            self.rename_map[rd] = None
        # terminal state: lets the lazy ready/completion lists recognize a
        # dead entry from one identity check (seqs are never reused)
        entry.state = _SQUASHED

    def _rebuild_rename_map(self):
        rename_map = self.rename_map = [None] * 16
        for entry in self.rob:
            rd = entry.inst.rd
            if rd is not None:
                rename_map[rd] = entry

    def _redirect(self, target_pc, effective_cycle):
        self.fetch_pc = target_pc
        self.fetch_buffer.clear()
        self._halt_fetched = False
        self.fetch_stall_until = max(self.fetch_stall_until,
                                     effective_cycle + _SQUASH_REDIRECT_PENALTY)

    # ------------------------------------------------------------------ issue

    def _issue(self, cycle):
        """Issue up to issue_width operand-ready entries in program order.

        Walks the seq-sorted ready list — exactly the subset of ``waiting``
        the reference scheduler's scan would find operand-ready, in the
        same order — so every per-attempt counter (iq.conflicts,
        lsq.cacheBlocked, lsq.blockedLoads) fires identically.  Entries
        that issued or were squashed are pruned lazily here; a mid-walk
        squash (memory-order violation inside ``_execute``) cannot mutate
        the list, only flip the squashed entries' ``state``, which the
        walk checks before anything else.

        The walk stops at the first candidate younger than the oldest
        in-flight FENCE (or, under FENCE_SPECTRE, the oldest unresolved
        branch).  That is exact: nothing issues after it, so the gate's
        head cannot change, and every later candidate is younger still
        (the list is seq-sorted) and would be skipped without bumping a
        counter.  LFENCE and FENCE_FUTURISTIC hold only loads, so a held
        candidate there does not end the walk.
        """
        ready = self._ready
        if not ready:
            return
        issued = 0
        config = self.config
        width = config.issue_width
        defense = config.defense
        spectre_fence = defense is DefenseMode.FENCE_SPECTRE
        futuristic_fence = defense is DefenseMode.FENCE_FUTURISTIC
        stl_speculation = config.stl_speculation
        fences = self.fences
        lfences = self.lfences
        unresolved = self.unresolved_branches
        v = self.counters.values
        ports = self.ports
        port_used = ports._used
        port_cap = ports.capacity
        stale = None
        for i, entry in enumerate(ready):
            if entry.state is not _DISPATCHED:
                if stale is None:
                    stale = []
                stale.append(i)        # issued earlier or squashed
                continue
            seq = entry.seq
            if issued >= width:
                break
            # inline of _issue_allowed (kept as the readable/reference
            # form), in its exact check order — _load_may_issue bumps
            # lsq.blockedLoads, so it must stay behind the defense gates
            if fences and fences[0].seq < seq:
                break                  # held, and so is every younger one
            is_load = entry.is_load
            if is_load and lfences and lfences[0].seq < seq:
                continue
            if spectre_fence:
                if unresolved and unresolved[0].seq < seq:
                    break
            elif futuristic_fence and is_load \
                    and self._has_older_incomplete(entry):
                continue
            if is_load and not stl_speculation \
                    and not self._load_may_issue(entry):
                continue
            # inline of ExecPorts.try_issue_port
            port = entry.inst.port
            if port_used[port] >= port_cap[port]:
                v[_C_IEW_PORTCONTENTION] += 1
                v[_C_IQ_CONFLICTS] += 1
                if is_load:
                    v[_C_LSQ_CACHEBLOCKED] += 1
                continue
            port_used[port] += 1
            if port == PORT_INT:
                v[_C_IEW_INTALU] += 1
            elif port == PORT_MULDIV:
                v[_C_IEW_MULDIV] += 1
            self._execute(entry, cycle)
            if stale is None:
                stale = []
            stale.append(i)
            issued += 1
        if stale is not None:
            for i in reversed(stale):
                del ready[i]
        if issued:
            v[_C_IQ_INSTSISSUED] += issued
            v[_C_IQ_INTQUEUEREADS] += issued

    def _issue_allowed(self, entry, defense):
        seq = entry.seq
        # FENCE serializes everything younger until it commits.  The fence
        # lists are kept in program order, so only the head matters.
        fences = self.fences
        if fences and fences[0].seq < seq:
            return False
        is_load = entry.is_load
        if is_load:
            # LFENCE holds younger loads.
            lfences = self.lfences
            if lfences and lfences[0].seq < seq:
                return False
        if defense is DefenseMode.FENCE_SPECTRE:
            if self._has_older_unresolved_branch(seq):
                return False
        elif defense is DefenseMode.FENCE_FUTURISTIC:
            if is_load and self._has_older_incomplete(entry):
                return False
        if is_load:
            return self._load_may_issue(entry)
        return True

    def _load_may_issue(self, entry):
        """Memory-dependence check for loads against older stores."""
        if self.config.stl_speculation:
            return True  # speculate no-alias (Spectre-STL window)
        seq = entry.seq
        for store in self.store_entries:
            if store.seq >= seq:
                break
            if store.state is _DISPATCHED:
                # older store with unknown address
                self.counters.values[_C_LSQ_BLOCKEDLOADS] += 1
                return False
        return True

    # ------------------------------------------------------------------ execute

    def _execute(self, entry, cycle):
        entry.state = _EXECUTING
        entry.issue_cycle = cycle
        ub = self.unresolved_branches
        entry.under_shadow = bool(ub) and ub[0].seq < entry.seq
        self._iq_len -= 1
        inst = entry.inst
        kind = inst.exec_kind
        if kind == 0:
            # inline ALU: operands were captured into the slots at
            # dispatch/wakeup (v1=0 / v2=imm defaults filled at dispatch);
            # the reference core overrides _execute with the seed's lazy
            # sources-dict resolution
            code = inst.alu_code
            v1 = entry.v1
            v2 = entry.v2
            if code == 0:
                entry.result = v1 + v2
            elif code == 1:
                entry.result = v1 - v2
            elif code == 2:
                entry.result = v1 & v2
            elif code == 3:
                entry.result = v1 | v2
            elif code == 4:
                entry.result = v1 ^ v2
            elif code == 5:
                entry.result = v1 << (inst.imm & 63)
            elif code == 6:
                entry.result = v1 >> (inst.imm & 63)
            elif code == 7:
                entry.result = v1 * v2
            elif code == 8:
                entry.result = v1 // v2 if v2 else 0
            elif code == 9:
                entry.result = inst.imm
            elif code == 10:
                entry.result = v1
            latency = inst.exec_latency
        elif kind == 1:
            latency = self._execute_load(entry, cycle)
        elif kind == 3:
            latency = self._execute_branch(entry, cycle)
        elif kind == 2:
            latency = self._execute_store(entry, cycle)
        elif kind == 4:
            entry.addr = entry.v1 + inst.imm
            latency = self.m.hierarchy.flush_line(entry.addr, cycle)
        elif kind == 5:
            self.m.hierarchy.prefetch(entry.v1 + inst.imm, cycle)
            latency = 1
        elif kind == 6:
            value, latency = self.m.rng.read(cycle)
            entry.result = value
        else:  # kind == 7: RDTSC
            entry.result = cycle
            self.counters.values[_C_CPU_RDTSCREADS] += 1
            latency = 1
        done = entry.done_cycle = cycle + (latency if latency > 1 else 1)
        # inline of _note_executing
        heapq.heappush(self._completion, (done, entry.seq, entry))

    def _execute_branch(self, entry, cycle):
        inst = entry.inst
        op = inst.op
        if entry.is_cond_branch:
            v1 = self._operand(entry, inst.rs1)
            v2 = self._operand(entry, inst.rs2) if inst.rs2 is not None else inst.imm
            if op is Op.BEQ:
                taken = v1 == v2
            elif op is Op.BNE:
                taken = v1 != v2
            else:
                taken = v1 < v2
            entry.actual_taken = taken
            entry.actual_target = inst.target if taken else entry.pc + 1
        elif op is Op.JMP:
            entry.actual_taken = True
            entry.actual_target = inst.target
        elif op is Op.JMPI:
            entry.actual_taken = True
            entry.actual_target = self._operand(entry, inst.rs1)
            self.counters.values[_C_BP_INDIRECTLOOKUPS] += 1
        elif op is Op.CALL:
            # handled as a store in _execute_store; not reached
            entry.actual_target = inst.target
        return 1

    def _execute_store(self, entry, cycle):
        inst = entry.inst
        v = self.counters.values
        if inst.op is Op.CALL:
            sp = self._operand(entry, 15)
            new_sp = sp - WORD_BYTES
            entry.result = new_sp
            entry.addr = new_sp
            entry.store_value = entry.pc + 1
            entry.actual_taken = True
            entry.actual_target = inst.target
            latency = 1
        else:
            base = self._operand(entry, inst.rs1)
            entry.addr = base + inst.imm
            entry.store_value = self._operand(entry, inst.rs2)
            latency = 1
            if inst.op is Op.STOREU:
                v[_C_LSQ_UNALIGNEDSTORES] += 1
                latency = 2
        v[_C_IEW_EXECSTORES] += 1
        self.m.dtlb.access(entry.addr, is_write=True)
        self._check_order_violation(entry, cycle)
        return latency

    def _check_order_violation(self, store, cycle):
        """A store whose address just resolved may expose a younger load
        that speculatively read stale memory (Spectre-STL discovery).

        Scans the in-flight load list (program order, same order the
        reference scheduler sees walking the ROB) instead of the full ROB.
        """
        word = store.addr - (store.addr % WORD_BYTES)
        store_seq = store.seq
        for entry in self.load_entries:
            if entry.seq <= store_seq:
                continue
            if entry.state is _DISPATCHED or entry.addr is None:
                continue
            if entry.forwarded_from is not None and entry.forwarded_from >= store_seq:
                continue  # load already saw this store (or a younger one)
            got_stale = entry.read_memory or entry.forwarded_from is not None
            if entry.addr - (entry.addr % WORD_BYTES) == word and got_stale:
                v = self.counters.values
                v[_C_IEW_MEMORDERVIOL] += 1
                v[_C_LSQ_MEMORDERVIOL] += 1
                v[_C_SQUASH_MEMORDER] += 1
                v[_C_LSQ_RESCHEDULED] += 1
                self._squash_younger(entry.seq - 1, cycle)
                self._redirect(entry.pc, cycle)
                return

    def _execute_load(self, entry, cycle):
        inst = entry.inst
        self.counters.values[_C_IEW_EXECLOADS] += 1
        if inst.op is Op.RET:
            sp = self._operand(entry, 15)
            entry.addr = sp
            entry.result = sp + WORD_BYTES
        else:
            base = self._operand(entry, inst.rs1)
            entry.addr = base + inst.imm
        latency = self.m.dtlb.access(entry.addr, is_write=False)
        value, mem_latency = self._load_value(entry, cycle)
        latency += mem_latency
        if inst.op is Op.RET:
            entry.actual_taken = True
            entry.actual_target = value
        else:
            entry.result = value
        return latency

    def _load_value(self, entry, cycle):
        """Resolve a load's value and memory latency, including the
        transient fault paths."""
        v = self.counters.values
        addr = entry.addr
        # Privileged access: defer the check, return real data transiently.
        if is_kernel_address(addr) and self.m.user_mode:
            entry.fault = FaultKind.PRIV
            value = self.m.memory.load(addr) if self.config.meltdown_vulnerable else 0
            latency = self.m.hierarchy.access_data(
                addr, is_write=False, cycle=cycle,
                invisible=self._invisible(entry))
            return value, latency
        # Assist page: transiently forward stale buffered data (LVI/MDS).
        if is_assist_address(addr):
            entry.fault = FaultKind.ASSIST
            v[_C_LSQ_IGNOREDRESP] += 1
            value = 0
            if self.store_entries:
                youngest = None
                for store in self.store_entries:
                    if store.seq < entry.seq and store.store_value is not None:
                        youngest = store
                if youngest is not None:
                    value = youngest.store_value
                    v[_C_LSQ_ASSISTFORWARDS] += 1
                    v[_C_LSQ_SPECLOADSHITWQ] += 1
                    v[_C_WRQUEUE_BYTESREAD] += WORD_BYTES
            return value, self.config.l1d_latency
        # Store-to-load forwarding from the youngest older matching store.
        word = addr - (addr % WORD_BYTES)
        match = None
        entry_seq = entry.seq
        for store in self.store_entries:
            if store.seq >= entry_seq:
                break
            store_addr = store.addr
            if store_addr is not None and \
                    store_addr - (store_addr % WORD_BYTES) == word:
                match = store
        if match is not None:
            entry.forwarded_from = match.seq
            v[_C_LSQ_FORWLOADS] += 1
            return match.store_value, 1
        entry.read_memory = True
        value = self.m.memory.load(addr)
        latency = self.m.hierarchy.access_data(
            addr, is_write=False, cycle=cycle,
            invisible=self._invisible(entry))
        if self.m.prefetcher is not None and not entry.invisible:
            self.m.prefetcher.observe(entry.pc, addr, cycle)
        return value, latency

    def _invisible(self, entry):
        """Should this load use the InvisiSpec invisible path?"""
        defense = self.config.defense
        if defense is DefenseMode.INVISISPEC_FUTURISTIC:
            entry.invisible = True
        elif defense is DefenseMode.INVISISPEC_SPECTRE and entry.under_shadow:
            entry.invisible = True
        else:
            return False
        entry.needs_expose = True
        return True

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self, cycle):
        fetch_buffer = self.fetch_buffer
        if not fetch_buffer:
            return
        config = self.config
        v = self.counters.values
        by_seq = self.entries_by_seq
        rename_map = self.rename_map
        arch_regs = self.arch_regs
        rob = self.rob
        ready = self._ready
        unresolved = self.unresolved_branches
        width = config.fetch_width
        rob_cap = config.rob_entries
        iq_cap = config.iq_entries
        rob_len = len(rob)          # maintained locally: len() is per-burst
        waiting_len = self._iq_len  # hoisted; written back after the loop
        new_entry = RobEntry.__new__
        dispatched = 0
        seq = self.next_seq         # hoisted; written back after the loop
        while fetch_buffer and dispatched < width:
            if rob_len >= rob_cap:
                v[_C_ROB_FULLEVENTS] += 1
                v[_C_RENAME_BLOCKCYCLES] += 1
                break
            if waiting_len >= iq_cap:
                v[_C_IQ_FULLEVENTS] += 1
                v[_C_RENAME_BLOCKCYCLES] += 1
                break
            pc, inst, ptaken, ptarget = fetch_buffer.popleft()
            # inline of RobEntry.__init__ (the constructor stays canonical
            # for the reference core; the equivalence suite pins the two)
            entry = new_entry(RobEntry)
            entry.seq = seq
            entry.pc = pc
            entry.inst = inst
            entry.state = _DISPATCHED
            entry.waiters = None
            entry.result = None
            entry.fault = _FAULT_NONE
            entry.needs_expose = False
            entry.predicted_taken = ptaken
            entry.predicted_target = ptarget
            is_load = inst.is_load
            is_store = inst.is_store
            entry.is_load = is_load
            entry.is_store = is_store
            entry.is_branch = inst.is_branch
            entry.is_cond_branch = inst.is_cond_branch
            if is_load:
                entry.addr = None
                entry.forwarded_from = None
                entry.read_memory = False
                entry.invisible = False
            elif is_store:
                entry.addr = None
                entry.store_value = None
            # Eager operand capture (see RobEntry): a value is final as
            # soon as its producer is DONE — results are write-once and
            # any younger same-register writer commits after this entry
            # executes — so only not-yet-DONE producers leave a wakeup
            # link ((consumer, slot) pairs on the producer's ``waiters``
            # list).  The rename map holds producer *entries* (retire/
            # squash clear dead ones), so no by_seq probe is needed here.
            pending = 0
            rs1 = inst.rs1
            if rs1 is None:
                entry.v1 = 0                       # ALU default operand
            else:
                producer = rename_map[rs1]
                if producer is None:
                    entry.v1 = arch_regs[rs1]      # architectural value
                elif producer.state is _DONE:
                    entry.v1 = producer.result
                else:
                    pending += 1
                    waiters = producer.waiters
                    if waiters is None:
                        producer.waiters = [(entry, 1)]
                    else:
                        waiters.append((entry, 1))
            rs2 = inst.rs2
            if rs2 is None:
                entry.v2 = inst.imm                # ALU/branch imm default
            else:
                producer = rename_map[rs2]
                if producer is None:
                    entry.v2 = arch_regs[rs2]
                elif producer.state is _DONE:
                    entry.v2 = producer.result
                else:
                    pending += 1
                    waiters = producer.waiters
                    if waiters is None:
                        producer.waiters = [(entry, 2)]
                    else:
                        waiters.append((entry, 2))
            entry.pending_sources = pending
            rd = inst.rd
            if rd is not None:
                rename_map[rd] = entry
                v[_C_RENAME_COMMITTEDMAPS] += 1
            rob.append(entry)
            rob_len += 1
            by_seq[seq] = entry
            waiting_len += 1
            if pending == 0:
                # inline of _note_ready: dispatch appends in seq order
                ready.append(entry)
            flags = inst.disp_flags   # 0 for plain ALU ops: skip it all
            if flags:
                if flags & 1:
                    self.store_entries.append(entry)
                elif flags & 2:
                    self.load_entries.append(entry)
                if flags & 4:
                    unresolved.append(entry)
                if flags & 8 and unresolved and unresolved[0].seq < seq:
                    v[_C_IQ_SPECINSTSADDED] += 1
                if flags & 16:
                    if inst.op is Op.FENCE:
                        self.fences.append(entry)
                    else:
                        self.lfences.append(entry)
                    v[_C_RENAME_SERIALIZING] += 1
            dispatched += 1
            seq += 1
        self.next_seq = seq
        self._iq_len = waiting_len
        if dispatched:
            # batched: no sampler snapshot can occur between dispatches
            # (the sampler only reads counters inside _commit), so bumping
            # once per burst is observationally identical
            v[_C_DECODE_INSTS] += dispatched
            v[_C_RENAME_RENAMED] += dispatched
            v[_C_IQ_INSTSADDED] += dispatched
            v[_C_ROB_READS] += dispatched

    # ------------------------------------------------------------------ fetch

    def _fetch(self, cycle):
        if self._halt_fetched:
            return
        v = self.counters.values
        if self.fetch_stall_until > cycle:
            v[_C_FETCH_SQUASHCYCLES] += 1
            v[_C_FETCH_PENDINGQUIESCE] += 1
            return
        fetch_buffer = self.fetch_buffer
        width = self.config.fetch_width
        if len(fetch_buffer) >= 2 * width:
            v[_C_FETCH_BLOCKEDCYCLES] += 1
            v[_C_FETCH_PENDINGQUIESCE] += 1
            return
        v[_C_FETCH_CYCLES] += 1
        m = self.m
        # the program can be swapped under us by a context switch, so the
        # decoded-instruction list is re-read per fetch burst, not cached
        # on the core
        insts = m.program.instructions
        n_insts = len(insts)
        itlb = m.itlb
        hierarchy = m.hierarchy
        ipage_bytes = itlb.page_bytes
        ix_itlb_acc = itlb._ix_accesses[0]
        last_page = itlb._last_page       # refreshed after each slow call
        last_iline = hierarchy._last_iline
        predictor = self.branch_predictor
        ras = self.ras
        btb = self.btb
        fetched = 0
        while fetched < width:
            pc = self.fetch_pc
            if not 0 <= pc < n_insts:
                break
            inst = insts[pc]
            # inline iTLB/L1I same-page/same-line fast paths (the shared
            # CounterBank makes their bumps visible through `v` too)
            addr = pc * 4
            if addr // ipage_bytes == last_page:
                v[ix_itlb_acc] += 1            # guaranteed MRU hit
                itlb_latency = 0
            else:
                itlb_latency = itlb.access(addr)
                last_page = itlb._last_page
            if pc >> 3 == last_iline:
                v[_C_ICACHE_ACCESSES] += 1     # still present and MRU
                v[_C_ICACHE_HITS] += 1
                icache_latency = 0
            else:
                icache_latency = hierarchy.access_inst(pc, cycle)
                last_iline = hierarchy._last_iline
            stall = itlb_latency + icache_latency
            if stall:
                self.fetch_stall_until = cycle + stall
                v[_C_FETCH_ICACHESTALL] += icache_latency
                break
            # inline fetch-time prediction (see Instruction.pred_kind)
            pk = inst.pred_kind
            if pk == 0:          # not a branch
                ptaken = None
                ptarget = pc + 1
            elif pk == 1:        # conditional: tournament predictor
                v[_C_FETCH_BRANCHES] += 1
                if predictor.predict(pc):
                    v[_C_FETCH_PREDICTEDTAKEN] += 1
                    ptaken = True
                    ptarget = inst.target
                else:
                    ptaken = False
                    ptarget = pc + 1
            elif pk == 2:        # direct JMP
                ptaken = True
                ptarget = inst.target
            elif pk == 3:        # CALL: push the return address
                ras.push(pc + 1)
                ptaken = True
                ptarget = inst.target
            elif pk == 4:        # indirect JMPI: BTB
                ptarget = btb.lookup(pc)
                if ptarget is not None:
                    v[_C_BP_INDIRECTHITS] += 1
                    ptaken = True
                else:
                    ptaken = False
                    ptarget = pc + 1
            else:                # RET: RAS
                ptarget = ras.pop()
                if ptarget is None:
                    ptaken = False
                    ptarget = pc + 1
                else:
                    ptaken = True
            fetch_buffer.append((pc, inst, ptaken, ptarget))
            fetched += 1
            if inst.is_halt:
                self._halt_fetched = True
                break
            self.fetch_pc = ptarget if ptarget is not None else pc + 1
            if ptarget is not None and ptarget != pc + 1:
                break  # taken branch ends the fetch group
        if fetched:
            v[_C_FETCH_INSTS] += fetched
