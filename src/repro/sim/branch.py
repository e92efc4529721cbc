"""Branch prediction: tournament predictor, BTB and return address stack.

The tournament predictor combines a local 2-bit-counter table indexed by PC
with a gshare global-history table, arbitrated by a choice table — the
structure Spectre-PHT mistrains.  The BTB caches indirect/taken targets
(Spectre-BTB mistrains it) and the RAS predicts returns (Spectre-RSB
desynchronizes it from the in-memory return address).
"""

from repro.sim.hpc import CounterBank

_IX = CounterBank.index_of

_C_LOOKUPS = _IX("branchPred.lookups")
_C_CONDPREDICTED = _IX("branchPred.condPredicted")
_C_BTBLOOKUPS = _IX("branchPred.BTBLookups")
_C_BTBHITS = _IX("branchPred.BTBHits")
_C_BTBMISSES = _IX("branchPred.BTBMisses")
_C_RASUSED = _IX("branchPred.RASUsed")


class TournamentPredictor:
    """Local + gshare tournament direction predictor."""

    def __init__(self, local_size=2048, global_size=8192, choice_size=8192,
                 counters=None):
        self.local_size = local_size
        self.global_size = global_size
        self.choice_size = choice_size
        self.local_table = [1] * local_size          # weakly not-taken
        self.global_table = [1] * global_size
        # weakly prefer the local (PC-indexed) component: histories seen at
        # prediction time may not match training-time histories, and the
        # chooser only migrates to gshare where gshare earns it
        self.choice_table = [1] * choice_size
        self.history = 0
        self.counters = counters

    # predict/update run once per conditional branch, so both index the
    # tables and saturate the 2-bit counters inline

    def predict(self, pc):
        """Predicted direction for the conditional branch at ``pc``."""
        if self.counters is not None:
            v = self.counters.values
            v[_C_LOOKUPS] += 1
            v[_C_CONDPREDICTED] += 1
        if self.choice_table[pc % self.choice_size] >= 2:
            return self.global_table[
                (pc ^ self.history) % self.global_size] >= 2
        return self.local_table[pc % self.local_size] >= 2

    def update(self, pc, taken):
        """Train both component tables and the chooser on the outcome."""
        local_table = self.local_table
        global_table = self.global_table
        li = pc % self.local_size
        gi = (pc ^ self.history) % self.global_size
        local = local_table[li]
        glob = global_table[gi]
        global_correct = (glob >= 2) == taken
        if ((local >= 2) == taken) != global_correct:
            choice_table = self.choice_table
            ci = pc % self.choice_size
            choice = choice_table[ci]
            if global_correct:
                if choice < 3:
                    choice_table[ci] = choice + 1
            elif choice > 0:
                choice_table[ci] = choice - 1
        if taken:
            if local < 3:
                local_table[li] = local + 1
            if glob < 3:
                global_table[gi] = glob + 1
            self.history = ((self.history << 1) | 1) & 0xFFF
        else:
            if local > 0:
                local_table[li] = local - 1
            if glob > 0:
                global_table[gi] = glob - 1
            self.history = (self.history << 1) & 0xFFF


class BTB:
    """Direct-mapped branch target buffer with tags."""

    def __init__(self, entries=4096, counters=None):
        self.entries = entries
        self.targets = [None] * entries
        self.tags = [None] * entries
        self.counters = counters

    def lookup(self, pc):
        """Predicted target for ``pc`` or None on a BTB miss."""
        idx = pc % self.entries
        counters = self.counters
        if counters is not None:
            counters.values[_C_BTBLOOKUPS] += 1
        if self.tags[idx] == pc:
            if counters is not None:
                counters.values[_C_BTBHITS] += 1
            return self.targets[idx]
        if counters is not None:
            counters.values[_C_BTBMISSES] += 1
        return None

    def update(self, pc, target):
        idx = pc % self.entries
        self.tags[idx] = pc
        self.targets[idx] = target


class RAS:
    """Circular return address stack."""

    def __init__(self, entries=16, counters=None):
        self.entries = entries
        self.stack = [0] * entries
        self.top = 0
        self.count = 0
        self.counters = counters

    def push(self, return_pc):
        self.stack[self.top] = return_pc
        self.top = (self.top + 1) % self.entries
        self.count = min(self.count + 1, self.entries)

    def pop(self):
        """Predicted return target (None when empty)."""
        if self.counters is not None:
            self.counters.values[_C_RASUSED] += 1
        if self.count == 0:
            return None
        self.top = (self.top - 1) % self.entries
        self.count -= 1
        return self.stack[self.top]

    def state(self):
        """Checkpointable state (for squash recovery, not modeled by
        default — real RSB attacks rely on the stale state we keep)."""
        return (self.top, self.count, tuple(self.stack))
