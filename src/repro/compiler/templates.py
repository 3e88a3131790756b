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
family/variant/width and emits fused vectorized closures
(:mod:`repro.compiler.vectorize`), memoized per shape class. No match
raises :class:`~repro.errors.LoweringError`.
"""

import numpy as np

from repro.compiler.decode import decode_program
from repro.compiler.structure import recover_structure
from repro.compiler.vectorize import (
    accumulate_rows,
    chain_rows,
    cleared_rows,
    pin_nan_products,
    settle_nan_rows,
    staggered_rows,
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


class CompiledKernel:
    """A lowered program: identity, structure, and fused closures.

    ``family``/``variant``/``index_bits`` are *recovered* from the
    program (template identity), never taken from a caller — the
    compiled backend derives its timing parameters from them. Closures
    are memoized per shape class (see :func:`csr_shape_class`).
    """

    __slots__ = ("family", "variant", "index_bits", "n_acc", "structure",
                 "meta", "_closures")

    def __init__(self, family, variant, index_bits, structure, meta):
        self.family = family
        self.variant = variant
        self.index_bits = index_bits
        self.n_acc = (N_ACCUMULATORS[index_bits] if variant == ISSR else 0)
        self.structure = structure
        self.meta = meta
        self._closures = {}

    def row_reducer(self, shape_class):
        """Fused per-row reduction closure for one CSR shape class.

        ``closure(products, ptr, nrows)`` reduces the per-element
        products into row results in this program's exact FP order;
        a trailing column axis on ``products`` (CsrMM's k columns)
        carries through to the result.
        """
        fn = self._closures.get(shape_class)
        if fn is None:
            fn = _emit_row_reducer(self, shape_class)
            self._closures[shape_class] = fn
        return fn

    def reduce_rows(self, products, ptr, nrows):
        """Row results of ``products`` in this program's exact order.

        Cleared accumulators (BASE/SSR) reduce the same way in every
        shape class, so only ISSR rows pay for :func:`csr_shape_class`.
        """
        if self.n_acc == 0:
            return cleared_rows(products, ptr, nrows)
        return self.row_reducer(csr_shape_class(ptr))(products, ptr, nrows)

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

    ``("uniform", L)`` when every row holds exactly ``L`` nonzeros —
    the ISSR row loop specializes to straight vector passes with no
    length sort; ``("general",)`` otherwise (the length-sorted
    stepper). Cleared-accumulator (BASE/SSR) rows replay the same way
    in every class.
    """
    lengths = np.diff(ptr)
    if len(lengths) and lengths.min() == lengths.max():
        return ("uniform", int(lengths[0]))
    return ("general",)


def _emit_row_reducer(kernel, shape_class):
    """Emit the fused row-reduction closure for ``shape_class``."""
    variant, index_bits = kernel.variant, kernel.index_bits
    n_acc = kernel.n_acc
    if n_acc == 0:  # BASE/SSR clear their accumulator: one bincount
        return cleared_rows
    if shape_class[0] != "uniform":
        def general(products, ptr, nrows):
            return accumulate_rows(products, ptr, variant, index_bits)

        return general

    length = shape_class[1]
    if length == 0:
        def empty(products, ptr, nrows):
            return np.zeros((nrows,) + products.shape[1:], dtype=np.float64)

        return empty
    if length < n_acc:
        def uniform_short(products, ptr, nrows):
            starts = np.asarray(ptr[:-1], dtype=np.int64)
            out = chain_rows(products, starts, length)
            return settle_nan_rows(out, products, ptr, variant, index_bits)

        return uniform_short

    def uniform_staggered(products, ptr, nrows):
        starts = np.asarray(ptr[:-1], dtype=np.int64)
        out = staggered_rows(products, starts, length, n_acc)
        return settle_nan_rows(out, products, ptr, variant, index_bits)

    return uniform_staggered


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
