"""Backing store: word-granular main memory contents."""

from repro.sim.isa import WORD_BYTES


class MainMemory:
    """Sparse word-addressed memory.

    Values are Python ints; uninitialized words read as 0.  Addresses are
    byte addresses rounded down to the containing word, so unaligned
    accesses alias the same word as their aligned neighbour (sufficient for
    the unaligned-store-forwarding attack path).
    """

    def __init__(self, initial=None):
        self._words = {}
        if initial:
            for addr, value in initial.items():
                self.store(addr, value)

    @staticmethod
    def _word_addr(addr):
        return addr - (addr % WORD_BYTES)

    def load(self, addr):
        return self._words.get(self._word_addr(addr), 0)

    def store(self, addr, value):
        self._words[self._word_addr(addr)] = int(value)

    def flip_bit(self, addr, bit=0):
        """Flip one bit in the word at ``addr`` (Rowhammer corruption)."""
        wa = self._word_addr(addr)
        self._words[wa] = self._words.get(wa, 0) ^ (1 << bit)

    def __contains__(self, addr):
        return self._word_addr(addr) in self._words
