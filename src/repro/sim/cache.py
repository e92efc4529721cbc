"""Set-associative caches with LRU replacement, MSHR and write-buffer
accounting, plus the two-level hierarchy glue.

Cache *state* (which lines are present) is first-class here because the
attacks measure it: Flush+Reload times a reload after a flush, Prime+Probe
observes evictions from a primed set, and InvisiSpec's security property is
exactly that speculative loads do not change this state.

Counter increments on the demand path use slot indices preresolved at
construction/import time (see :class:`repro.sim.hpc.CounterBank`) instead
of per-event name lookups; a name typo therefore fails when the hierarchy
is built, not when the event first fires.
"""

from repro.sim.hpc import CounterBank
from repro.sim.isa import LINE_BYTES

_IX = CounterBank.index_of

_C_DC_ACCESSES = _IX("dcache.accesses")
_C_DC_HITS = _IX("dcache.hits")
_C_DC_MISSES = _IX("dcache.misses")
_C_DC_MSHRMISSES = _IX("dcache.mshrMisses")
_C_DC_MSHRFULL = _IX("dcache.mshrFullEvents")
_C_DC_FLUSHES = _IX("dcache.flushes")
_C_DC_FLUSHHITS = _IX("dcache.flushHits")
_C_DC_PREFETCHES = _IX("dcache.prefetches")
_C_DC_RD_MSHR_LAT = _IX("dcache.ReadReq_mshr_miss_latency")
_C_DC_AVGMISSLAT = _IX("dcache.demandAvgMissLatency")
#: (read, write) pairs so the request kind selects a slot, not a name
_C_DC_KIND_HITS = (_IX("dcache.ReadReq_hits"), _IX("dcache.WriteReq_hits"))
_C_DC_KIND_MISSES = (_IX("dcache.ReadReq_misses"), _IX("dcache.WriteReq_misses"))

_C_L2_ACCESSES = _IX("l2.accesses")
_C_L2_HITS = _IX("l2.hits")
_C_L2_MISSES = _IX("l2.misses")
_C_L2_MSHRMISSES = _IX("l2.mshrMisses")
_C_L2_RDSHARED_HITS = _IX("l2.ReadSharedReq_hits")
_C_L2_RDSHARED_MISSES = _IX("l2.ReadSharedReq_misses")
_C_L2_FLUSHES = _IX("l2.flushes")

_C_IC_ACCESSES = _IX("icache.accesses")
_C_IC_HITS = _IX("icache.hits")
_C_IC_MISSES = _IX("icache.misses")

_C_MEMBUS_RDSHARED = _IX("membus.transDist_ReadSharedReq")
_C_MEMBUS_FLUSHREQ = _IX("membus.transDist_FlushReq")
_C_MEMBUS_PKTCOUNT = _IX("membus.pktCount")
_C_MEMBUS_DATA = _IX("membus.dataThroughBus")

_C_SPECBUF_FILLS = _IX("specbuf.fills")

#: the way list of a set no line has been filled into; shared by every
#: such set, so ``in``/``len`` read it as empty without allocating
_UNFILLED = ()


class Cache:
    """One level of set-associative cache with true LRU.

    ``prefix`` is the counter namespace, e.g. ``"dcache"``.
    """

    def __init__(self, size, assoc, line_bytes, latency, counters, prefix,
                 mshrs=20, write_buffers=8):
        self.num_sets = size // (assoc * line_bytes)
        if self.num_sets < 1:
            raise ValueError("cache too small for its associativity")
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.latency = latency
        self.counters = counters
        self.prefix = prefix
        self.mshrs = mshrs
        self.write_buffers = write_buffers
        # Eviction stats, resolved once per prefix.  The instruction cache
        # has no writeback path (it is read-only), so only ``replacements``
        # exists in its namespace; the old name-per-event code would have
        # raised KeyError on the first L1I eviction in a large program.
        self._ix_replacements = _IX(f"{prefix}.replacements")
        self._ix_writebacks = (_IX(f"{prefix}.writebacks")
                               if CounterBank.has(f"{prefix}.writebacks")
                               else None)
        self._ix_clean_evicts = (_IX(f"{prefix}.cleanEvicts")
                                 if CounterBank.has(f"{prefix}.cleanEvicts")
                                 else None)
        # per-set: list of line addrs in LRU order (last = most recent),
        # created by the set's first fill: 4,096 empty L2 lists built up
        # front would be most of a Machine's construction cost
        self._sets = [_UNFILLED] * self.num_sets
        self._dirty = set()
        self._inflight_misses = 0

    def _set_index(self, line_addr):
        return line_addr % self.num_sets

    def bump(self, stat, amount=1):
        self.counters.bump(f"{self.prefix}.{stat}", amount)

    def contains(self, line_addr):
        """Presence check with no LRU side effect (used by flush timing and
        InvisiSpec invisible accesses)."""
        return line_addr in self._sets[self._set_index(line_addr)]

    def lookup(self, line_addr, update_lru=True):
        """Tag lookup; moves the line to MRU position on hit (a set not
        yet filled is the empty tuple, which holds no line)."""
        ways = self._sets[self._set_index(line_addr)]
        if line_addr in ways:
            if update_lru and ways[-1] != line_addr:
                ways.remove(line_addr)
                ways.append(line_addr)
            return True
        return False

    def fill(self, line_addr, dirty=False):
        """Insert a line; returns ``(evicted_line, was_dirty)`` or None."""
        index = self._set_index(line_addr)
        ways = self._sets[index]
        if ways is _UNFILLED:
            ways = self._sets[index] = []
        elif line_addr in ways:
            ways.remove(line_addr)
            ways.append(line_addr)
            if dirty:
                self._dirty.add(line_addr)
            return None
        evicted = None
        if len(ways) >= self.assoc:
            victim = ways.pop(0)
            was_dirty = victim in self._dirty
            self._dirty.discard(victim)
            v = self.counters.values
            v[self._ix_replacements] += 1
            breakdown = self._ix_writebacks if was_dirty else self._ix_clean_evicts
            if breakdown is not None:
                v[breakdown] += 1
            evicted = (victim, was_dirty)
        ways.append(line_addr)
        if dirty:
            self._dirty.add(line_addr)
        return evicted

    def invalidate(self, line_addr):
        """Remove a line; returns ``(was_present, was_dirty)``."""
        ways = self._sets[self._set_index(line_addr)]
        if line_addr in ways:
            ways.remove(line_addr)
            was_dirty = line_addr in self._dirty
            self._dirty.discard(line_addr)
            return True, was_dirty
        return False, False

    def mark_dirty(self, line_addr):
        if self.contains(line_addr):
            self._dirty.add(line_addr)

    def set_occupancy(self, set_index):
        """Number of valid ways in a set (Prime+Probe observable)."""
        return len(self._sets[set_index % self.num_sets])


class CacheHierarchy:
    """L1I + L1D + shared L2 in front of DRAM.

    ``access_data`` is the single entry point for demand data accesses and
    returns the latency in cycles.  With ``invisible=True`` (InvisiSpec
    speculative access) the walk observes presence without updating LRU or
    filling any level.
    """

    def __init__(self, config, counters, dram):
        self.config = config
        self.counters = counters
        self.dram = dram
        self.l1i = Cache(config.l1i_size, config.l1i_assoc, config.line_bytes,
                         config.l1i_latency, counters, "icache")
        self.l1d = Cache(config.l1d_size, config.l1d_assoc, config.line_bytes,
                         config.l1d_latency, counters, "dcache",
                         mshrs=config.l1d_mshrs,
                         write_buffers=config.l1d_write_buffers)
        self.l2 = Cache(config.l2_size, config.l2_assoc, config.line_bytes,
                        config.l2_latency, counters, "l2",
                        mshrs=config.l2_mshrs,
                        write_buffers=config.l2_write_buffers)
        #: completion times of outstanding L1D misses (the MSHR occupancy)
        self._l1_miss_completions = []
        #: last instruction line fetched — it is in L1I and at MRU, so a
        #: refetch from the same line (the common case: 8 insts/line) can
        #: skip the tag lookup entirely.  Only access_inst touches L1I, so
        #: tracking it here is exact; flush_line never targets L1I.
        self._last_iline = None

    @staticmethod
    def line_of(addr):
        return addr // LINE_BYTES

    # -- demand path -----------------------------------------------------------

    def access_data(self, addr, is_write, cycle, invisible=False):
        """Access the data hierarchy; returns latency in cycles."""
        line = addr // LINE_BYTES
        v = self.counters.values
        v[_C_DC_ACCESSES] += 1
        if invisible:
            return self._invisible_access(line, cycle)
        if self.l1d.lookup(line):
            v[_C_DC_HITS] += 1
            v[_C_DC_KIND_HITS[is_write]] += 1
            if is_write:
                self.l1d.mark_dirty(line)
            return self.config.l1d_latency
        # L1 miss
        v[_C_DC_MISSES] += 1
        v[_C_DC_KIND_MISSES[is_write]] += 1
        v[_C_DC_MSHRMISSES] += 1
        latency = self.config.l1d_latency
        # MSHR occupancy: a full miss-handling file delays the new miss
        self._l1_miss_completions = [t for t in self._l1_miss_completions
                                     if t > cycle]
        if len(self._l1_miss_completions) >= self.l1d.mshrs:
            v[_C_DC_MSHRFULL] += 1
            latency += 4
        v[_C_L2_ACCESSES] += 1
        if self.l2.lookup(line):
            v[_C_L2_HITS] += 1
            v[_C_L2_RDSHARED_HITS] += 1
            latency += self.config.l2_latency
        else:
            v[_C_L2_MISSES] += 1
            v[_C_L2_RDSHARED_MISSES] += 1
            v[_C_L2_MSHRMISSES] += 1
            v[_C_MEMBUS_RDSHARED] += 1
            v[_C_MEMBUS_PKTCOUNT] += 1
            v[_C_MEMBUS_DATA] += self.config.line_bytes
            latency += self.config.l2_latency
            latency += self.dram.access(addr, is_write=False, cycle=cycle)
            self._fill(self.l2, line)
        self._fill(self.l1d, line, dirty=is_write)
        self._l1_miss_completions.append(cycle + latency)
        if not is_write:
            v[_C_DC_RD_MSHR_LAT] += latency
            v[_C_DC_AVGMISSLAT] += latency
        return latency

    def _fill(self, cache, line, dirty=False):
        evicted = cache.fill(line, dirty=dirty)
        if evicted is not None and evicted[1] and cache is self.l1d:
            # dirty L1 victim goes down to L2
            self.l2.fill(evicted[0], dirty=True)

    def _invisible_access(self, line, cycle):
        """InvisiSpec speculative access: observe latency, change nothing."""
        self.counters.values[_C_SPECBUF_FILLS] += 1
        if self.l1d.contains(line):
            return self.config.l1d_latency
        if self.l2.contains(line):
            return self.config.l1d_latency + self.config.l2_latency
        dram_latency = self.dram.peek_latency(line * self.config.line_bytes)
        return self.config.l1d_latency + self.config.l2_latency + dram_latency

    # -- instruction path --------------------------------------------------------

    def access_inst(self, pc, cycle):
        """Instruction fetch for the line containing ``pc``; returns latency
        (0 extra on an L1I hit)."""
        line = pc >> 3  # 8 instructions per I-cache "line"
        v = self.counters.values
        v[_C_IC_ACCESSES] += 1
        if line == self._last_iline:
            v[_C_IC_HITS] += 1     # still present and MRU: guaranteed hit
            return 0
        if self.l1i.lookup(line):
            v[_C_IC_HITS] += 1
            self._last_iline = line
            return 0
        v[_C_IC_MISSES] += 1
        latency = self.config.l2_latency
        if not self.l2.lookup(line + (1 << 40)):   # disjoint tag space from data
            latency += self.dram.peek_latency(pc)
            self.l2.fill(line + (1 << 40))
        self.l1i.fill(line)
        self._last_iline = line
        return latency

    # -- maintenance ops -----------------------------------------------------------

    def flush_line(self, addr, cycle):
        """CLFLUSH: evict from L1D and L2, write back if dirty.

        Returns latency — measurably higher when the line was present
        (the Flush+Flush signal) and higher still when dirty.
        """
        line = self.line_of(addr)
        v = self.counters.values
        v[_C_DC_FLUSHES] += 1
        v[_C_MEMBUS_FLUSHREQ] += 1
        present1, dirty1 = self.l1d.invalidate(line)
        v[_C_L2_FLUSHES] += 1
        present2, dirty2 = self.l2.invalidate(line)
        latency = 4
        if present1 or present2:
            v[_C_DC_FLUSHHITS] += 1
            latency += 14
        if dirty1 or dirty2:
            latency += self.dram.access(addr, is_write=True, cycle=cycle)
        return latency

    def prefetch(self, addr, cycle):
        """Software prefetch into L1D (normal fill path, no result)."""
        self.counters.values[_C_DC_PREFETCHES] += 1
        return self.access_data(addr, is_write=False, cycle=cycle)

    def data_line_present(self, addr):
        """Presence anywhere in the data hierarchy (no side effects)."""
        line = self.line_of(addr)
        return self.l1d.contains(line) or self.l2.contains(line)
