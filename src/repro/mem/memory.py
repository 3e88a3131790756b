"""Word-granular memory storage with packed sub-word access.

The simulated address space is byte-addressed but stores one Python
value per aligned 64-bit word: a ``float`` for FP data or an ``int`` for
(possibly packed) integer data. Sub-word integer accesses (the 16/32-bit
index loads of the BASE kernels and the ISSR index serializer) unpack
bit fields from the containing word — exactly the arithmetic the
hardware performs on its 64-bit memory interface.

Mixing types is detected: an integer operation on a float word (or vice
versa) raises :class:`MemoryAccessError`, which catches kernel addressing
bugs immediately instead of producing garbage numbers.

Storage grows on touch: ``words`` holds the prefix of the region that
has been allocated or stored to, and a word past it reads as int 0.
The declared size stays the bound every access is checked against, so
a 64 MiB main memory costs only what a run actually touches.
"""

from repro.errors import MemoryAccessError
from repro.utils.bits import sign_extend

WORD_BYTES = 8


class WordMemory:
    """Backing store for a memory region (TCDM, main memory, ideal)."""

    __slots__ = ("size", "words", "name", "_alloc_ptr", "segments")

    def __init__(self, size_bytes, name="mem"):
        if size_bytes % WORD_BYTES:
            raise MemoryAccessError(f"{name}: size must be a multiple of {WORD_BYTES}")
        self.size = size_bytes
        self.words = []  # the touched prefix; grown by alloc and stores
        self.name = name
        self._alloc_ptr = 0
        self.segments = {}

    # -- access ---------------------------------------------------------

    def _word_index(self, addr, size):
        if addr < 0 or addr + size > self.size:
            raise MemoryAccessError(
                f"{self.name}: access at 0x{addr:x} size {size} out of range (size 0x{self.size:x})"
            )
        if addr % size:
            raise MemoryAccessError(f"{self.name}: misaligned {size}-byte access at 0x{addr:x}")
        return addr >> 3

    def _span(self, addr, count):
        """Word index of ``count`` words at ``addr``, checking the whole
        range ``[addr, addr + 8 * count)`` once."""
        base = self._word_index(addr, WORD_BYTES)  # alignment, first word
        if addr + WORD_BYTES * count > self.size:
            raise MemoryAccessError(
                f"{self.name}: access at 0x{addr:x} size {WORD_BYTES * count} "
                f"out of range (size 0x{self.size:x})"
            )
        return base

    def _grow(self, end):
        """Extend the touched prefix to ``end`` words (new words read 0)."""
        words = self.words
        if end > len(words):
            words.extend([0] * (end - len(words)))

    def load(self, addr, size, signed=False):
        """Read ``size`` bytes; 8-byte reads return the stored object."""
        idx = self._word_index(addr, size)
        try:
            word = self.words[idx]
        except IndexError:
            word = 0  # never touched
        if size == WORD_BYTES:
            return word
        if not isinstance(word, int):
            raise MemoryAccessError(
                f"{self.name}: sub-word load at 0x{addr:x} from non-integer word ({word!r})"
            )
        bits = size * 8
        shift = (addr & (WORD_BYTES - 1)) * 8
        value = (word >> shift) & ((1 << bits) - 1)
        return sign_extend(value, bits) if signed else value

    def store(self, addr, size, value):
        """Write ``size`` bytes; 8-byte writes store the object directly."""
        idx = self._word_index(addr, size)
        if idx >= len(self.words):
            self._grow(idx + 1)
        if size == WORD_BYTES:
            self.words[idx] = value
            return
        if not isinstance(value, int):
            raise MemoryAccessError(f"{self.name}: sub-word store of non-integer {value!r}")
        old = self.words[idx]
        if not isinstance(old, int):
            old = 0  # overwrite a float word's fields starting from zero
        bits = size * 8
        shift = (addr & (WORD_BYTES - 1)) * 8
        mask = ((1 << bits) - 1) << shift
        self.words[idx] = (old & ~mask) | ((value << (shift)) & mask)

    # -- allocation (harness-side, not simulated) ------------------------

    def alloc(self, n_bytes, name=None, align=WORD_BYTES):
        """Reserve ``n_bytes`` (rounded up to words); returns base address."""
        if align % WORD_BYTES:
            raise MemoryAccessError(f"alignment {align} must be a multiple of {WORD_BYTES}")
        base = (self._alloc_ptr + align - 1) // align * align
        n_words = (n_bytes + WORD_BYTES - 1) // WORD_BYTES
        end = base + n_words * WORD_BYTES
        if end > self.size:
            raise MemoryAccessError(
                f"{self.name}: out of memory allocating {n_bytes} bytes "
                f"(used 0x{self._alloc_ptr:x} of 0x{self.size:x})"
            )
        self._alloc_ptr = end
        self._grow(end // WORD_BYTES)
        if name:
            self.segments[name] = (base, n_bytes)
        return base

    def reset_allocator(self):
        self._alloc_ptr = 0
        self.segments.clear()

    def write_floats(self, addr, values):
        """Bulk-write a float sequence starting at ``addr``."""
        self.write_words(addr, [float(v) for v in values])

    def read_floats(self, addr, count):
        """Bulk-read ``count`` float words starting at ``addr``."""
        out = self.read_words(addr, count)
        for i, word in enumerate(out):
            if not isinstance(word, float):
                raise MemoryAccessError(
                    f"{self.name}: read_floats hit non-float word at 0x{addr + i * 8:x}: {word!r}"
                )
        return out

    def write_words(self, addr, words):
        """Bulk-write raw 64-bit words (ints or floats) starting at ``addr``."""
        words = list(words)
        base = self._span(addr, len(words))
        self._grow(base + len(words))
        self.words[base:base + len(words)] = words

    def window(self, addr, count):
        """``(words, base)`` for a word-by-word mover of ``count`` words
        at ``addr``: the range is checked once, the backing list grown
        to cover it, and word ``k`` is then ``words[base + k]``."""
        base = self._span(addr, count)
        self._grow(base + count)
        return self.words, base

    def read_words(self, addr, count):
        """Bulk-read ``count`` raw words starting at ``addr``."""
        base = self._span(addr, count)
        out = self.words[base:base + count]
        out.extend([0] * (count - len(out)))  # the untouched tail
        return out
