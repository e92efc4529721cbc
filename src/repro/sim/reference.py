"""The reference (pre-optimization) scheduler, kept as an executable spec.

:class:`ReferenceO3Core` preserves the original scan-based scheduling of
the seed simulator verbatim: per-cycle operand scans in ``_sources_ready``,
``any()`` sweeps over the fence/branch lists, a sort over all in-flight
executions in ``_complete``, and full-ROB walks for memory-order checks.
The optimized :class:`~repro.sim.cpu.O3Core` replaces those with wakeup
lists, a completion heap and ordered-head checks — and must stay
**counter-stream bit-identical** to this class.

The bookkeeping only this scheduler reads lives here, not on the fast
core: the ``entries_by_seq`` index behind the lazy operand links, the
``waiting`` IQ list, the ``executing`` list, and the ``under_shadow``
flag stored at issue.  A fast-path read of any of them fails with an
``AttributeError``.  :meth:`ReferenceO3Core.step` calls every stage every
cycle, where the fast core calls a stage only when its first test
passes.

The contract is enforced by ``tests/sim/test_counter_equivalence.py`` and
the bit-exactness harness in ``scripts/bench_sim.py``; select this core
with::

    Machine(program, config, core_cls=ReferenceO3Core)

When changing scheduling behaviour intentionally, change BOTH cores (and
expect the equivalence suite to tell you when they drift apart).

This class also keeps the string-keyed ``counters.bump("...")`` calls of
the seed in the methods it overrides, so the equivalence run doubles as a
check that the preresolved index constants in ``cpu.py`` hit the same
slots as the names they replaced.
"""

from repro.sim.config import DefenseMode
from repro.sim.cpu import O3Core
from repro.sim.isa import Op, WORD_BYTES
from repro.sim.rob import EntryState, RobEntry


class ReferenceO3Core(O3Core):
    """Seed scheduler: correct, simple, O(in-flight) scans per cycle."""

    def __init__(self, machine):
        super().__init__(machine)
        self.entries_by_seq = {}   # seq -> in-flight entry (operand links)
        self.waiting = []          # DISPATCHED, in dispatch order (the IQ)
        self.executing = []        # EXECUTING, scanned by _complete

    def step(self, cycle):
        """Seed cycle loop: every stage, every cycle."""
        self.cycle = cycle
        self.ports.new_cycle()
        self.counters.bump("cpu.numCycles")
        committed_before = self.committed
        self._commit(cycle)
        if self.committed == committed_before:
            self.counters.bump("cpu.idleCycles")
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

    def _commit(self, cycle):
        """Commit, then drop the retired entries from the seq index.

        Nothing reads the index inside a commit burst, so dropping them
        after it is exact.  Retired entries left from the ROB head, so
        their seqs lie below the new head's (squashed seqs in between
        are already gone).
        """
        rob = self.rob
        first = rob[0].seq if rob else None
        super()._commit(cycle)
        if first is not None:
            by_seq = self.entries_by_seq
            for seq in range(first, rob[0].seq if rob else self.next_seq):
                by_seq.pop(seq, None)

    def _remove_entry(self, entry):
        self.entries_by_seq.pop(entry.seq, None)
        if entry.state is EntryState.DISPATCHED:
            self.waiting.remove(entry)
        elif entry.state is EntryState.EXECUTING:
            try:
                self.executing.remove(entry)
            except ValueError:
                pass
        super()._remove_entry(entry)

    # -- rename: operand links in a dict, resolved lazily at execute --------

    def _dispatch(self, cycle):
        """Seed rename/dispatch: each source register maps to ``("rob",
        seq)`` or ``("val", value)`` in ``entry.sources``; the value is
        looked up when the op executes.  The optimized core instead
        captures operand *values* eagerly (RobEntry.v1/v2) and forwards
        the rest through wakeup lists — this scan-free spec is what that
        capture must stay equivalent to."""
        fetch_buffer = self.fetch_buffer
        if not fetch_buffer:
            return
        config = self.config
        c = self.counters
        by_seq = self.entries_by_seq
        rename_map = self.rename_map
        dispatched = 0
        while fetch_buffer and dispatched < config.fetch_width:
            if len(self.rob) >= config.rob_entries:
                c.bump("rob.fullEvents")
                c.bump("rename.blockCycles")
                break
            if len(self.waiting) >= config.iq_entries:
                c.bump("iq.fullEvents")
                c.bump("rename.blockCycles")
                break
            pc, inst, ptaken, ptarget = fetch_buffer.popleft()
            seq = self.next_seq
            entry = RobEntry(seq, pc, inst, ptaken, ptarget)
            self.next_seq = seq + 1
            entry.sources = sources = {}
            for reg in inst.srcs:
                # the rename map holds producer *entries* (see the optimized
                # dispatch); the seed's sources dict still links by seq
                producer = rename_map[reg]
                if producer is not None and producer.seq in by_seq:
                    sources[reg] = ("rob", producer.seq)
                else:
                    sources[reg] = ("val", self.arch_regs[reg])
            rd = inst.rd
            if rd is not None:
                rename_map[rd] = entry
                c.bump("rename.committedMaps")
            self.rob.append(entry)
            by_seq[seq] = entry
            self.waiting.append(entry)
            if inst.is_store:
                self.store_entries.append(entry)
            if inst.is_load:
                self.load_entries.append(entry)
            if inst.is_shadowing:
                self.unresolved_branches.append(entry)
            op = inst.op
            if op is Op.FENCE:
                self.fences.append(entry)
                c.bump("rename.serializingInsts")
            elif op is Op.LFENCE:
                self.lfences.append(entry)
                c.bump("rename.serializingInsts")
            if inst.is_memop and any(b.seq < seq
                                     for b in self.unresolved_branches):
                c.bump("iq.specInstsAdded")
            dispatched += 1
        if dispatched:
            c.bump("decode.insts", dispatched)
            c.bump("rename.renamedInsts", dispatched)
            c.bump("iq.instsAdded", dispatched)
            c.bump("rob.reads", dispatched)

    def _sources_ready(self, entry):
        """Per-entry operand scan (the fast issue path uses the wakeup
        lists' ``entry.pending_sources == 0`` instead)."""
        for source in entry.sources.values():
            if source[0] == "rob":
                producer = self.entries_by_seq.get(source[1])
                # a committed producer's value is in the architectural file
                if producer is not None and producer.state is not EntryState.DONE:
                    return False
        return True

    def _operand(self, entry, reg):
        kind, payload = entry.sources[reg]
        if kind == "val":
            return payload
        producer = self.entries_by_seq.get(payload)
        if producer is None:
            return self.arch_regs[reg]
        return producer.result

    def _execute(self, entry, cycle):
        """Seed execute stage: operands resolved through ``_operand`` at
        this point (the optimized core reads the captured v1/v2 slots and
        pushes straight onto its completion heap)."""
        entry.state = EntryState.EXECUTING
        entry.under_shadow = any(b.seq < entry.seq
                                 for b in self.unresolved_branches)
        self.waiting.remove(entry)
        inst = entry.inst
        kind = inst.exec_kind
        if kind == 0:
            latency = self._execute_alu(entry)
        elif kind == 1:
            latency = self._execute_load(entry, cycle)
        elif kind == 3:
            latency = self._execute_branch(entry, cycle)
        elif kind == 2:
            latency = self._execute_store(entry, cycle)
        elif kind == 4:
            entry.addr = self._operand(entry, inst.rs1) + inst.imm
            latency = self.m.hierarchy.flush_line(entry.addr, cycle)
        elif kind == 5:
            self.m.hierarchy.prefetch(
                self._operand(entry, inst.rs1) + inst.imm, cycle)
            latency = 1
        elif kind == 6:
            value, latency = self.m.rng.read(cycle)
            entry.result = value
        else:  # RDTSC
            entry.result = cycle
            self.counters.bump("cpu.rdtscReads")
            latency = 1
        entry.done_cycle = cycle + (latency if latency > 1 else 1)
        self.executing.append(entry)

    def _execute_alu(self, entry):
        inst = entry.inst
        op = inst.op
        if inst.rs1 is not None:
            v1 = self._operand(entry, inst.rs1)
        else:
            v1 = 0
        if inst.rs2 is not None:
            v2 = self._operand(entry, inst.rs2)
        else:
            v2 = inst.imm
        if op is Op.ADD:
            entry.result = v1 + v2
        elif op is Op.SUB:
            entry.result = v1 - v2
        elif op is Op.AND:
            entry.result = v1 & v2
        elif op is Op.OR:
            entry.result = v1 | v2
        elif op is Op.XOR:
            entry.result = v1 ^ v2
        elif op is Op.SHL:
            entry.result = v1 << (inst.imm & 63)
        elif op is Op.SHR:
            entry.result = v1 >> (inst.imm & 63)
        elif op is Op.MUL:
            entry.result = v1 * v2
        elif op is Op.DIV:
            entry.result = v1 // v2 if v2 else 0
        elif op is Op.MOVI:
            entry.result = inst.imm
        elif op is Op.MOV:
            entry.result = v1
        return inst.exec_latency

    def _invisible(self, entry):
        """Seed form: reads the shadow flag stored at issue."""
        defense = self.config.defense
        if defense is DefenseMode.INVISISPEC_FUTURISTIC:
            entry.invisible = True
        elif defense is DefenseMode.INVISISPEC_SPECTRE and entry.under_shadow:
            entry.invisible = True
        else:
            return False
        entry.needs_expose = True
        return True

    # -- completion: a sort over the flat executing list --------------------

    def _complete(self, cycle):
        finished = sorted((e for e in self.executing if e.done_cycle <= cycle),
                          key=lambda e: e.seq)
        for entry in finished:
            if entry.seq not in self.entries_by_seq:
                continue  # squashed earlier this cycle
            entry.state = EntryState.DONE
            try:
                self.executing.remove(entry)
            except ValueError:
                pass
            if entry.inst.is_branch:
                self._resolve_branch(entry, cycle)

    # -- readiness: per-entry operand scans ---------------------------------

    def _has_older_unresolved_branch(self, seq):
        return any(b.seq < seq for b in self.unresolved_branches)

    def _has_older_incomplete(self, entry):
        for other in self.rob:
            if other.seq >= entry.seq:
                return False
            if other.state is not EntryState.DONE:
                return True
        return False

    def _issue(self, cycle):
        issued = 0
        defense = self.config.defense
        for entry in list(self.waiting):
            if issued >= self.config.issue_width:
                break
            if entry.seq not in self.entries_by_seq:
                continue  # squashed by a violation earlier in this scan
            if not self._sources_ready(entry):
                continue
            if not self._issue_allowed(entry, defense):
                continue
            if not self.ports.try_issue(entry.inst.op):
                self.counters.bump("iq.conflicts")
                if entry.inst.is_load:
                    self.counters.bump("lsq.cacheBlocked")
                continue
            self._execute(entry, cycle)
            issued += 1
        if issued:
            self.counters.bump("iq.instsIssued", issued)
            self.counters.bump("iq.intInstQueueReads", issued)

    def _issue_allowed(self, entry, defense):
        seq = entry.seq
        # FENCE serializes everything younger until it commits.
        if any(f.seq < seq for f in self.fences):
            return False
        # LFENCE holds younger loads.
        is_load = entry.inst.is_load
        if is_load and any(f.seq < seq for f in self.lfences):
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
        for store in self.store_entries:
            if store.seq >= entry.seq:
                break
            if store.state is EntryState.DISPATCHED:
                # older store with unknown address
                if self.config.stl_speculation:
                    continue  # speculate no-alias (Spectre-STL window)
                self.counters.bump("lsq.blockedLoads")
                return False
        return True

    # -- memory-order discovery: full-ROB walk ------------------------------

    def _check_order_violation(self, store, cycle):
        """A store whose address just resolved may expose a younger load
        that speculatively read stale memory (Spectre-STL discovery)."""
        word = store.addr - (store.addr % WORD_BYTES)
        for entry in self.rob:
            if entry.seq <= store.seq or not entry.inst.is_load:
                continue
            if entry.state is EntryState.DISPATCHED or entry.addr is None:
                continue
            if entry.forwarded_from is not None and entry.forwarded_from >= store.seq:
                continue  # load already saw this store (or a younger one)
            got_stale = entry.read_memory or entry.forwarded_from is not None
            if entry.addr - (entry.addr % WORD_BYTES) == word and got_stale:
                c = self.counters
                c.bump("iew.memOrderViolationEvents")
                c.bump("lsq.memOrderViolation")
                c.bump("squash.memOrderSquashes")
                c.bump("lsq.rescheduledLoads")
                self._squash_younger(entry.seq - 1, cycle)
                self._redirect(entry.pc, cycle)
                return
