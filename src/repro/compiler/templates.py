"""Lowering: an exact match against the canonical op templates (§III).

The template set is the kernel builders themselves: every program the
backends can hand the engine comes from one of the canonical builders
in :mod:`repro.kernels` (the §III kernels, Listing 1's staggered ISSR
CsrMV among them), each a pure function of ``(variant, index_bits)``.
:func:`lower` normalizes a program once
(:func:`repro.isa.introspect.normalize_program`), then walks every
``(family, variant, index_bits)`` the set offers, the hinted family
first, building each candidate through the kernels' own program cache.
The first candidate whose normalized stream equals the program's is
the program's identity: equality is the *only* way a program gets
executed. The canonical streams are pairwise distinct, so the walk's
order cannot change which identity a program gets.

A match yields a :class:`CompiledKernel` that names the program's
family/variant/width and replays its rows with the vectorized
primitives of :mod:`repro.compiler.vectorize`. No match raises
:class:`~repro.errors.LoweringError`.
"""

import numpy as np

from repro.compiler.vectorize import (
    accumulate_rows,
    cleared_rows,
    lane_rows,
    pin_nan_products,
)
from repro.errors import LoweringError
from repro.isa.introspect import normalize_program
from repro.kernels.common import (
    ISSR,
    N_ACCUMULATORS,
    PROGRAM_CACHE,
    VARIANTS,
)


def _template_families():
    """Name -> canonical builder for every lowerable program family.

    Resolved lazily (not at import) so the compiler package can be
    imported without pulling in every kernel module and the simulator
    harness behind them.
    """
    from repro.kernels.csrmm import build_csrmm
    from repro.kernels.csrmv import build_csrmv
    from repro.kernels.masked import build_masked_csrmv, build_masked_spvv
    from repro.kernels.spgemm import build_spgemm
    from repro.kernels.spvv import build_spvv

    return {
        "spvv": build_spvv,
        "csrmv": build_csrmv,
        "csrmm": build_csrmm,
        "masked_spvv": build_masked_spvv,
        "masked_csrmv": build_masked_csrmv,
        "spgemm": build_spgemm,
    }


#: ISSR rows replay by :func:`~repro.compiler.vectorize.lane_rows` when
#: ``nnz * k < LANE_ROWS_PER_POSITION * longest_row`` for products in
#: ``k`` columns, that is, when fewer than this many (row, column)
#: chains are live at an average position of the length-sorted stepper
#: (:func:`~repro.compiler.vectorize.accumulate_rows`), which pays one
#: NumPy call pair per position. Fitted on the offline workload's
#: matrices, constant-length shapes and a streamed tile
#: (docs/performance.md, *ISSR rows: lanes or the stepper*).
LANE_ROWS_PER_POSITION = 1024


class CompiledKernel:
    """A lowered program: its template identity and its row replay.

    ``family``/``variant``/``index_bits`` name the template the
    program equals, never a caller's request — the compiled backend
    derives its timing parameters from them.
    """

    __slots__ = ("family", "variant", "index_bits", "n_acc", "_reducer")

    def __init__(self, family, variant, index_bits):
        self.family = family
        self.variant = variant
        self.index_bits = index_bits
        self.n_acc = (N_ACCUMULATORS[index_bits] if variant == ISSR else 0)
        self._reducer = self.reduce_rows

    def row_reducer(self, shape_class):
        """The row reduction for CSR rows of ``shape_class``.

        Every class replays through :meth:`reduce_rows`, which reads
        the row lengths itself; the bound method is kept, so each call
        returns the same object.
        """
        return self._reducer

    def reduce_rows(self, products, ptr, nrows):
        """Row results of ``products`` in this program's exact order.

        ``products`` is (nnz,) or (nnz, k); the result is (nrows,) or
        (nrows, k). Cleared accumulators (BASE/SSR) take one bincount
        per column. ISSR rows take the (row, lane) bincount where few
        (row, column) chains share a stepper position
        (:data:`LANE_ROWS_PER_POSITION`), the stepper otherwise.
        """
        k = products.shape[1] if products.ndim == 2 else 1
        return self._reduce(products, ptr, nrows,
                            self._lanes(ptr, len(products), k))

    def _lanes(self, ptr, nnz, k):
        """True when ISSR rows of ``nnz`` products in ``k`` columns
        replay by :func:`~repro.compiler.vectorize.lane_rows`."""
        if self.n_acc == 0:
            return False
        longest = int((ptr[1:] - ptr[:-1]).max(initial=0))
        return nnz * k < LANE_ROWS_PER_POSITION * longest

    def _reduce(self, products, ptr, nrows, lanes):
        """``products`` through the primitive :meth:`_lanes` picked."""
        if self.n_acc == 0:
            return cleared_rows(products, ptr, nrows)
        if lanes:
            return lane_rows(products, ptr, self.index_bits)
        return accumulate_rows(products, ptr, self.variant, self.index_bits)

    def gather_rows(self, vals, idcs, ptr, x):
        """``vals * x[idcs]`` summed per CSR row in this program's order.

        ``x`` is a vector (CsrMV) or an (ncols, k) block (CsrMM, whose
        k columns each replay the CsrMV order); the result is a
        C-contiguous (nrows,) or (nrows, k). A block's products are
        built in the layout their primitive reads: column-major for
        the bincounts, one contiguous column each, and row-major for
        the stepper, whose every vector update covers a position's k
        columns. A product of two NaNs keeps the value's payload, as
        ``fmul.d`` does (:func:`~repro.compiler.vectorize.pin_nan_products`);
        only a NaN result pays for that rule.
        """
        nrows = len(ptr) - 1
        k = x.shape[1] if x.ndim == 2 else 1
        lanes = self._lanes(ptr, len(idcs), k)
        left = vals if x.ndim == 1 else vals[:, None]
        if x.ndim == 1:
            products = vals * x[idcs]
        elif self.n_acc and not lanes:  # the stepper reads rows
            products = np.take(x, idcs, axis=0)
            np.multiply(left, products, out=products)
        else:  # each bincount reads one row of the (k, nnz) transpose
            products = np.take(x.T, idcs, axis=1)
            np.multiply(vals, products, out=products)
            products = products.T
        out = self._reduce(products, ptr, nrows, lanes)
        if np.isnan(out).any() and pin_nan_products(products, left, x[idcs]):
            out = self._reduce(products, ptr, nrows, lanes)
        return np.ascontiguousarray(out)

    def __repr__(self):
        return (f"CompiledKernel({self.family}, {self.variant}, "
                f"idx{self.index_bits})")


def csr_shape_class(ptr):
    """The shape class of a CSR row partition.

    ``("uniform", L)`` when every row holds exactly ``L`` nonzeros,
    ``("general",)`` otherwise. Replay does not depend on it (see
    :meth:`CompiledKernel.reduce_rows`); the benchmark's traced run
    still times it (``compiler.shape_class_us``).
    """
    lengths = np.diff(ptr)
    if len(lengths) and lengths.min() == lengths.max():
        return ("uniform", int(lengths[0]))
    return ("general",)


#: id(program) -> (program, CompiledKernel). Programs come from the
#: kernel builders' own cache, so the set is small and the object
#: reference kept here pins the id against reuse. Skips the per-call
#: normalization and cache-key hashing on the serve hot path. Held to
#: the program cache's size: a program that cache evicted or cleared
#: must not stay alive here.
_LOWERED_BY_ID = {}


def lower(program, family_hint=None):
    """Lower ``program`` to a :class:`CompiledKernel` (cached).

    Normalizes the stream once and returns the first template whose
    normalized stream equals it. The result is cached in the shared
    program cache keyed by the normalized stream, so each distinct
    program lowers once per process, and each match's identity is
    spilled to the persistent :mod:`~repro.compiler.diskcache`, so a
    freshly forked process verifies one hinted candidate instead of
    walking the set. ``family_hint`` only orders the walk. Raises
    :class:`~repro.errors.LoweringError` when no template matches.
    """
    memo = _LOWERED_BY_ID.get(id(program))
    if memo is not None and memo[0] is program:
        return memo[1]
    normalized = normalize_program(program)

    def build():
        return _match(program, normalized, family_hint)

    kernel = PROGRAM_CACHE.get_or_build(("compiled", normalized), build)
    if len(_LOWERED_BY_ID) >= PROGRAM_CACHE.maxsize:
        _LOWERED_BY_ID.clear()
    _LOWERED_BY_ID[id(program)] = (program, kernel)
    return kernel


def _match(program, normalized, family_hint):
    from repro.compiler import diskcache

    families = _template_families()

    def equals(family, variant, index_bits):
        candidate, _meta = families[family](variant, index_bits)
        return (len(candidate.instrs) == len(normalized)
                and normalize_program(candidate) == normalized)

    # The persistent cross-process cache turns a previous process's
    # match into one candidate build and compare: the hint passes the
    # same equality as a walked candidate, so a stale entry can
    # mislead nothing.
    hint = diskcache.load(normalized)
    if (hint is not None and hint[0] in families and hint[1] in VARIANTS
            and hint[2] in (16, 32) and equals(*hint)):
        return CompiledKernel(*hint)

    order = list(families)
    if family_hint in families:
        order.remove(family_hint)
        order.insert(0, family_hint)
    for family in order:
        for variant in VARIANTS:
            for index_bits in (16, 32):
                if equals(family, variant, index_bits):
                    diskcache.store(normalized, family, variant, index_bits)
                    return CompiledKernel(family, variant, index_bits)
    raise LoweringError(
        f"program {program.name!r} ({len(normalized)} instructions) "
        f"matches no op template; candidates tried: every variant "
        f"({', '.join(VARIANTS)}) at index widths 16 and 32 of "
        f"{', '.join(order)}")
