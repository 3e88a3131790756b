"""Shared kernel infrastructure: variants, accumulators, reductions.

Kernel register conventions (all kernels):

========  =========================================================
register  meaning
========  =========================================================
``a0``    sparse value array base (``A_vals``)
``a1``    sparse index array base (``A_idcs``)
``a2``    SpVV: nonzero count; CsrMV/MM: row pointer array base
``a3``    dense operand base (``x`` / ``B``)
``a4``    result base (``y`` / ``C``)
``a5``    CsrMV/MM: number of rows
``a6``    CsrMM: dense column count ``k`` (power of two)
========  =========================================================

Accumulator counts follow the paper's observation that the 16-bit
kernel "needs more accumulators to sustain peak utilization" (§IV-A):
at the 4/5 issue rate the FMA latency needs more in-flight partial
sums than at 2/3.
"""

import os
from collections import OrderedDict

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.isa.isa import CSR_SSR  # noqa: F401  (re-exported for kernel modules)

#: Kernel variants evaluated in the paper (§III-B).
BASE = "base"
SSR = "ssr"
ISSR = "issr"
VARIANTS = (BASE, SSR, ISSR)

#: Staggered accumulator count per index width (ISSR kernels).
N_ACCUMULATORS = {16: 8, 32: 4}

#: First accumulator register (ft2, as in Listing 1).
ACC_BASE = 2

#: FREP stagger mask for `fmadd.d acc, ft0, ft1, acc`: rd and rs3.
STAGGER_RD_RS3 = 0b1001


class ProgramCache:
    """A bounded, per-process LRU cache for built kernel programs.

    Built :class:`~repro.isa.program.Program` objects are cheap to
    rebuild but must never cross process boundaries (the multiprocessing
    experiment runner forks/spawns workers, and a program carries no
    useful state worth shipping). The cache therefore:

    - bounds its size with least-recently-used eviction, and
    - tags entries with the owning process id, transparently starting
      empty in any process other than the one that filled it (a forked
      child re-builds on first use instead of sharing parent objects).

    Pickling the cache never pickles its entries — only the bound.
    """

    def __init__(self, maxsize=64):
        if maxsize <= 0:
            raise ConfigError(f"ProgramCache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries = OrderedDict()
        self._pid = os.getpid()
        #: Hit/miss counters (per process; the metrics registry
        #: tracks them as ``repro_program_cache_*``).
        self.hits = 0
        self.misses = 0

    def _check_process(self):
        pid = os.getpid()
        if pid != self._pid:
            self._entries.clear()
            self._pid = pid

    def get_or_build(self, key, build):
        """Return the cached value for ``key``, building it if absent."""
        self._check_process()
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        value = build()
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def clear(self):
        self._entries.clear()

    def __len__(self):
        self._check_process()
        return len(self._entries)

    def __contains__(self, key):
        self._check_process()
        return key in self._entries

    def __getstate__(self):
        return {"maxsize": self.maxsize}

    def __setstate__(self, state):
        self.maxsize = state["maxsize"]
        self._entries = OrderedDict()
        self._pid = os.getpid()
        self.hits = 0
        self.misses = 0


#: The shared program cache for all kernel modules; keys are
#: (kernel name, variant, index_bits) tuples.
#:
#: Key contract: a key must include *every* parameter that changes the
#: assembled program. The multi-cluster layer (``repro.multicluster``)
#: deliberately runs the unchanged single-cluster kernels on every
#: shard, so cluster count, partitioner, and HBM configuration never
#: influence a built program and stay out of these keys — they live in
#: the experiment point-cache keys instead
#: (:func:`repro.eval.parallel.point_key`), which *must* carry them.
PROGRAM_CACHE = ProgramCache(maxsize=64)


def check_variant(variant):
    if variant not in VARIANTS:
        raise ConfigError(f"unknown kernel variant {variant!r}; expected {VARIANTS}")


def check_index_bits(index_bits):
    if index_bits not in (16, 32):
        raise ConfigError(f"index_bits must be 16 or 32, got {index_bits!r}")


def check_reference(got, expect, what):
    """Raise :class:`SimulationError` unless ``got`` matches ``expect``.

    The oracle comparison of every simulated kernel against its NumPy
    reference: elementwise ``rtol = atol = 1e-9``, except that a NaN
    matches only a NaN at the same position, so NaN/±Inf operands
    check like any others.
    """
    got = np.asarray(got, dtype=np.float64)
    expect = np.asarray(expect, dtype=np.float64)
    close = np.isclose(got, expect, rtol=1e-9, atol=1e-9, equal_nan=True)
    if not close.all():
        first = int(np.argmin(close.ravel()))
        raise SimulationError(
            f"{what} mismatch: {close.size - int(close.sum())} of "
            f"{close.size} element(s) differ; element {first} is "
            f"{float(got.ravel()[first])!r}, reference "
            f"{float(expect.ravel()[first])!r}")


def emit_tree_reduction(builder, base, count):
    """Reduce FP registers f[base..base+count) into f[base].

    Emits a balanced fadd tree (log2(count) levels); independent adds
    within a level pipeline through the FPU.
    """
    stride = 1
    while stride < count:
        for i in range(0, count, 2 * stride):
            j = i + stride
            if j < count:
                builder.fadd_d(base + i, base + i, base + j)
        stride *= 2


def emit_zero_accumulators(builder, base, count):
    """Zero-initialize f[base..base+count) (fcvt.d.w from x0)."""
    for i in range(count):
        builder.fcvt_d_w(base + i, "zero")


class KernelMeta:
    """Descriptive metadata attached to a built kernel program."""

    __slots__ = ("name", "variant", "index_bits", "n_accumulators")

    def __init__(self, name, variant, index_bits, n_accumulators=1):
        self.name = name
        self.variant = variant
        self.index_bits = index_bits
        self.n_accumulators = n_accumulators

    def __repr__(self):
        return (f"KernelMeta({self.name}, {self.variant}, idx{self.index_bits}, "
                f"acc={self.n_accumulators})")
