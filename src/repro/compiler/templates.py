"""Pass 3: match recovered structure against canonical op templates.

The template set is the kernel builders themselves: every program the
backends can hand the engine comes from one of the canonical builders
in :mod:`repro.kernels`, each a pure function of ``(variant,
index_bits)``. Matching is therefore *exact and total*:

1. the recovered :class:`~repro.compiler.structure.ProgramStructure`
   prunes the candidate set (wrong variant class, index width,
   accumulator count, or intersection use can never match);
2. each surviving candidate is built canonically (hitting the kernels'
   own program cache) and compared by normalized instruction stream
   (:func:`repro.isa.introspect.normalize_program`) — equality is the
   *only* way a program gets executed, so decode imprecision cannot
   cause wrong execution.

A match yields a :class:`CompiledKernel` that identifies the program's
family/variant/width and replays its rows with the vectorized
primitives of :mod:`repro.compiler.vectorize`. No match raises
:class:`~repro.errors.LoweringError`.
"""

import numpy as np

from repro.compiler.decode import decode_program
from repro.compiler.structure import recover_structure
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


#: Families whose ISSR variants use the staggered-accumulator FREP
#: (the others' FREPs are unstaggered drains/reductions).
_STAGGERED_FAMILIES = frozenset({"spvv", "csrmv", "csrmm"})

#: Families whose ISSR variants run on the intersection unit.
_INTERSECT_FAMILIES = frozenset({"masked_spvv", "masked_csrmv"})


def _prune(family, variant, index_bits, structure):
    """True when (family, variant, index_bits) could match ``structure``."""
    if variant != structure.variant_class:
        return False
    if structure.index_bits is not None and index_bits != structure.index_bits:
        return False
    if variant == ISSR:
        if structure.uses_intersection != (family in _INTERSECT_FAMILIES):
            return False
        expected_acc = (N_ACCUMULATORS[index_bits]
                        if family in _STAGGERED_FAMILIES else 0)
        if structure.n_acc != expected_acc:
            return False
    return True


#: ISSR rows replay by :func:`~repro.compiler.vectorize.lane_rows` when
#: ``nnz < LANE_ROWS_PER_POSITION * longest_row``, that is, when fewer
#: than this many rows are live at an average position of the
#: length-sorted stepper (:func:`~repro.compiler.vectorize.accumulate_rows`),
#: which pays one NumPy call pair per position. Fitted on the offline
#: workload's matrices, constant-length shapes and a streamed tile
#: (docs/performance.md, *ISSR rows: lanes or the stepper*).
LANE_ROWS_PER_POSITION = 1024


class CompiledKernel:
    """A lowered program: identity, structure, and its row replay.

    ``family``/``variant``/``index_bits`` are *recovered* from the
    program (template identity), never taken from a caller — the
    compiled backend derives its timing parameters from them.
    """

    __slots__ = ("family", "variant", "index_bits", "n_acc", "structure",
                 "meta", "_reducer")

    def __init__(self, family, variant, index_bits, structure, meta):
        self.family = family
        self.variant = variant
        self.index_bits = index_bits
        self.n_acc = (N_ACCUMULATORS[index_bits] if variant == ISSR else 0)
        self.structure = structure
        self.meta = meta
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
        per column. ISSR rows with one column take the (row, lane)
        bincount where few rows share a stepper position
        (:data:`LANE_ROWS_PER_POSITION`), the stepper otherwise; CsrMM's
        k > 1 columns ride the stepper's vector updates.
        """
        if self.n_acc == 0:
            return cleared_rows(products, ptr, nrows)
        if products.ndim == 1 or products.shape[1] == 1:
            longest = int((ptr[1:] - ptr[:-1]).max(initial=0))
            if len(products) < LANE_ROWS_PER_POSITION * longest:
                return lane_rows(products, ptr, self.index_bits)
        return accumulate_rows(products, ptr, self.variant, self.index_bits)

    def gather_rows(self, vals, idcs, ptr, x):
        """``vals * x[idcs]`` summed per CSR row in this program's order.

        A product of two NaNs keeps the value's payload, as ``fmul.d``
        does (:func:`~repro.compiler.vectorize.pin_nan_products`); only
        a NaN result pays for that rule.
        """
        nrows = len(ptr) - 1
        products = vals * x[idcs]
        out = self.reduce_rows(products, ptr, nrows)
        if np.isnan(out).any() and pin_nan_products(products, vals, x[idcs]):
            out = self.reduce_rows(products, ptr, nrows)
        return out

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
#: reference kept here pins the id against reuse. Skips the
#: per-call decode (fingerprinting) on the serve hot path.
_LOWERED_BY_ID = {}


def lower(program, family_hint=None):
    """Lower ``program`` to a :class:`CompiledKernel` (cached).

    Decodes the stream, recovers its structure, prunes the candidate
    templates, and matches by exact normalized-stream comparison. The
    result is cached in the shared program cache keyed by the
    program's structural fingerprint, so each distinct program lowers
    once per process — and successful matches are spilled to the
    persistent :mod:`~repro.compiler.diskcache`, so a freshly forked
    process verifies one hinted candidate instead of scanning.
    ``family_hint`` only reorders the candidate scan. Raises
    :class:`~repro.errors.LoweringError` when no template matches.
    """
    memo = _LOWERED_BY_ID.get(id(program))
    if memo is not None and memo[0] is program:
        return memo[1]
    decoded = decode_program(program)

    def build():
        return _match(program, decoded, family_hint)

    kernel = PROGRAM_CACHE.get_or_build(("compiled", decoded.fingerprint),
                                        build)
    _LOWERED_BY_ID[id(program)] = (program, kernel)
    return kernel


def _match(program, decoded, family_hint):
    from repro.compiler import diskcache

    structure = recover_structure(decoded)
    families = _template_families()
    normalized = decoded.fingerprint

    # The persistent cross-process cache turns a previous process's
    # successful match into a single candidate build + compare: the
    # hint is verified by the same exact normalized-stream equality as
    # a scanned candidate, so a stale entry can mislead nothing.
    hint = diskcache.load(decoded.fingerprint)
    if hint is not None:
        family, variant, index_bits = hint
        build = families.get(family)
        if (build is not None and variant in VARIANTS
                and index_bits in (16, 32)):
            candidate, meta = build(variant, index_bits)
            if normalize_program(candidate) == normalized:
                return CompiledKernel(family, variant, index_bits,
                                      structure, meta)

    order = list(families)
    if family_hint in families:
        order.remove(family_hint)
        order.insert(0, family_hint)
    tried = []
    for family in order:
        build = families[family]
        for variant in VARIANTS:
            for index_bits in (16, 32):
                if not _prune(family, variant, index_bits, structure):
                    continue
                tried.append((family, variant, index_bits))
                candidate, meta = build(variant, index_bits)
                if normalize_program(candidate) == normalized:
                    diskcache.store(decoded.fingerprint, family, variant,
                                    index_bits)
                    return CompiledKernel(family, variant, index_bits,
                                          structure, meta)
    raise LoweringError(
        f"program {program.name!r} ({structure!r}) matches no op "
        f"template; candidates tried: {tried or 'none'}")
