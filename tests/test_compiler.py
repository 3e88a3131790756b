"""The lowering pipeline: decode, structure recovery, template match.

The compiler's soundness argument (docs/ARCHITECTURE.md): decode and
structure recovery only *prune* the template search; the gate to
execution is exact equality of the normalized instruction stream
against a canonical builder's output. These tests pin each pass —
every assembled kernel program must lower back to its own identity,
foreign programs must fail loudly, and every row-reduction closure must
replay the kernel's exact FP order, byte for byte against a scalar
Python-float reference.
"""

import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

import repro
from repro.compiler import (
    CompiledKernel,
    LoweringError,
    decode_program,
    lower,
    recover_structure,
)
from repro.compiler import vectorize
from repro.compiler.templates import csr_shape_class
from repro.compiler.vectorize import accumulate_rows, spvv_value
from repro.isa.introspect import fingerprint, normalize_program
from repro.isa.program import ProgramBuilder
from repro.kernels.common import PROGRAM_CACHE
from repro.kernels.csrmv import build_csrmv
from repro.kernels.csrmm import build_csrmm
from repro.kernels.masked import build_masked_csrmv, build_masked_spvv
from repro.kernels.spgemm import build_spgemm
from repro.kernels.spvv import build_spvv
from repro.stream import stream_spvv

ALL_VARIANTS = [("base", 32), ("base", 16), ("ssr", 32), ("ssr", 16),
                ("issr", 32), ("issr", 16)]

BUILDERS = {
    "spvv": build_spvv,
    "csrmv": build_csrmv,
    "csrmm": build_csrmm,
    "masked_spvv": build_masked_spvv,
    "masked_csrmv": build_masked_csrmv,
    "spgemm": build_spgemm,
}


def fadd(x, y):
    """``x + y`` with the replay's explicit NaN rule.

    When both operands are NaN the left one's payload survives: what
    this CPython build's specialized float add does, and what the
    compiled replay pins. IEEE-754 leaves the choice open; CPython's
    generic float add and NumPy's scalar loops keep the right one's.
    """
    return x + x if x != x else x + y


def reference_row(products, variant, bits):
    """One row's kernel-order reduction, one Python float at a time."""
    if not products:
        return 0.0
    if variant != "issr":  # BASE/SSR: cleared accumulator, then MACs
        acc = 0.0
        for p in products:
            acc = fadd(p, acc)
        return acc
    n_acc = {16: 8, 32: 4}[bits]
    if len(products) < n_acc:  # short row: fmul, then a chain
        acc = products[0]
        for p in products[1:]:
            acc = fadd(p, acc)
        return acc
    accs = list(products[:n_acc])  # unrolled init, staggered FREP
    for i, p in enumerate(products[n_acc:]):
        accs[i % n_acc] = fadd(p, accs[i % n_acc])
    stride = 1  # emit_tree_reduction's pairing
    while stride < n_acc:
        for i in range(0, n_acc, 2 * stride):
            if i + stride < n_acc:
                accs[i] = fadd(accs[i], accs[i + stride])
        stride *= 2
    return accs[0]


def reference_rows(products, ptr, variant, bits):
    """:func:`reference_row` over every row and trailing column."""
    cols = products[:, None] if products.ndim == 1 else products
    nrows = len(ptr) - 1
    out = np.zeros((nrows, cols.shape[1]))
    for r in range(nrows):
        for c in range(cols.shape[1]):
            out[r, c] = reference_row(
                cols[ptr[r]:ptr[r + 1], c].tolist(), variant, bits)
    return out.reshape((nrows,) + products.shape[1:])


def stable_rng(*params):
    """A generator seeded from ``params`` identically in every process."""
    return np.random.default_rng(zlib.crc32(repr(params).encode()))


#: The paper's four series; ISSR runs 4 (32-bit) or 8 (16-bit)
#: staggered accumulators.
SERIES = [("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16)]

with np.errstate(invalid="ignore"):
    #: ``inf - inf``: the sign-set default NaN, which wins ``p + a``
    #: over ``np.nan`` but loses ``a + p``.
    DEFAULT_NAN = np.float64(np.inf) - np.float64(np.inf)

#: Two NaN payloads, then the other IEEE specials.
SPECIALS = (np.nan, DEFAULT_NAN, np.inf, -np.inf, -0.0, 5e-324)


def salted_products(rng, nnz, k=None, rate=0.04):
    """Standard-normal products, (nnz,) or (nnz, k), salted with
    :data:`SPECIALS` at a ``rate`` share of the positions."""
    products = rng.standard_normal((nnz,) if k is None else (nnz, k))
    salt = rng.random(products.shape) < rate
    products[salt] = rng.choice(np.array(SPECIALS), int(salt.sum()))
    return products


class TestDecode:
    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    def test_issr_programs_recover_their_index_width(self, variant, bits):
        program, _ = build_csrmv(variant, bits)
        decoded = decode_program(program)
        structure = recover_structure(decoded)
        assert structure.variant_class == variant
        if variant == "issr":
            assert structure.index_bits == bits
            assert structure.uses_indirection
        if variant == "base":
            assert not decoded.lanes

    def test_intersection_evidence(self):
        program, _ = build_masked_spvv("issr", 32)
        structure = recover_structure(decode_program(program))
        assert structure.uses_intersection
        assert structure.variant_class == "issr"

    def test_fingerprint_is_deterministic(self):
        program, _ = build_spvv("issr", 16)
        assert fingerprint(program) == fingerprint(program)
        assert fingerprint(program) == tuple(normalize_program(program))


class TestLowering:
    @pytest.mark.parametrize("family", sorted(BUILDERS))
    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    def test_every_program_lowers_to_its_own_identity(self, family,
                                                      variant, bits):
        """The exhaustive round trip: 6 families x 3 variants x 2 widths."""
        program, _ = BUILDERS[family](variant, bits)
        kernel = lower(program)
        assert isinstance(kernel, CompiledKernel)
        assert kernel.family == family
        assert kernel.variant == variant
        assert kernel.index_bits == bits

    def test_family_hint_is_only_a_priority(self):
        program, _ = build_spvv("ssr", 32)
        kernel = lower(program, family_hint="csrmv")  # wrong hint
        assert kernel.family == "spvv"

    def test_lowered_kernels_are_cached(self):
        PROGRAM_CACHE.clear()
        program, _ = build_csrmv("issr", 16)
        assert lower(program) is lower(program)

    def test_foreign_program_fails_loudly(self):
        b = ProgramBuilder()
        b.li(10, 0)
        b.fadd_d(2, 0, 1)
        b.halt()
        with pytest.raises(LoweringError, match="matches no op template"):
            lower(b.build())

    def test_tampered_kernel_program_fails_loudly(self):
        """One extra instruction must break the exact-match gate."""
        program, _ = build_spvv("base", 32)
        b = ProgramBuilder()
        b.li(10, 0)  # harmless-looking prelude the template lacks
        for ins in program.instrs:
            b.emit(ins.op, ins.rd, ins.rs1, ins.rs2, ins.rs3, ins.imm,
                   ins.aux)
        with pytest.raises(LoweringError):
            lower(b.build())


class TestShapeClasses:
    def test_uniform_vs_general(self):
        uniform = np.array([0, 4, 8, 12], dtype=np.int64)
        ragged = np.array([0, 3, 8, 12], dtype=np.int64)
        empty = np.array([0, 0, 0], dtype=np.int64)
        assert csr_shape_class(uniform) == ("uniform", 4)
        assert csr_shape_class(ragged) == ("general",)
        assert csr_shape_class(empty) == ("uniform", 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    @pytest.mark.parametrize("shape", ["uniform_short", "uniform_long",
                                       "ragged", "empty"])
    def test_closures_replay_the_exact_fp_order(self, variant, bits, shape):
        """Every shape-class closure == the scalar reference, for 1-D
        and (nnz, 4) products salted with both NaN payloads."""
        rng = stable_rng(variant, bits, shape)
        # 13 rows: NumPy runs the last 13 % 8 in its scalar loop, where
        # NaN + NaN keeps the right operand's payload
        if shape == "uniform_short":
            ptr = np.arange(0, 14 * 3, 3, dtype=np.int64)
        elif shape == "uniform_long":
            ptr = np.arange(0, 14 * 24, 24, dtype=np.int64)
        elif shape == "ragged":
            lengths = rng.integers(0, 30, size=6)
            ptr = np.concatenate(([0], np.cumsum(lengths)))
        else:
            ptr = np.zeros(5, dtype=np.int64)

        program, _ = build_csrmv(variant, bits)
        kernel = lower(program)
        reducer = kernel.row_reducer(csr_shape_class(ptr))
        for k in (None, 4):
            products = salted_products(rng, int(ptr[-1]), k, rate=0.2)
            got = reducer(products, ptr, len(ptr) - 1)
            want = reference_rows(products, ptr, variant, bits)
            assert got.shape == want.shape \
                == (len(ptr) - 1,) + products.shape[1:]
            assert got.tobytes() == want.tobytes(), f"k={k}"

    def test_closures_are_memoized_per_shape_class(self):
        program, _ = build_csrmv("issr", 16)
        kernel = lower(program)
        assert kernel.row_reducer(("general",)) \
            is kernel.row_reducer(("general",))


#: The position where :data:`FINISHER_SHAPES`' ``off_stride`` rows
#: finish: past ISSR's init, and a multiple of neither 4 nor 8.
OFF_STRIDE = 11

#: Shapes whose rows reach the finisher (``vectorize.finish_rows``).
FINISHER_SHAPES = ["geometric_tail", "narrow_equal", "off_stride"]


def battery_lengths(shape, rng, per_row=1):
    """Row lengths for one named shape of the exact-order battery.

    ``per_row`` is the accumulate chains a finished row costs (its
    accumulators times its columns); only ``off_stride`` depends on it.
    """
    if shape == "no_rows":
        return np.zeros(0, dtype=np.int64)
    if shape == "all_empty":
        return np.zeros(7, dtype=np.int64)
    if shape == "giant_row":  # one 600-nnz row among empty/1-nnz rows
        lengths = rng.integers(0, 2, size=40)
        lengths[17] = 600
        return lengths
    if shape == "power_law":
        return np.minimum(rng.zipf(1.6, size=300), 400)
    if shape == "straddle_n_acc":  # both sides of 4 and of 8
        return rng.integers(0, 13, size=150)
    if shape == "geometric_tail":  # >= 64 short rows, long rows to 3000
        tail = (3000 * 0.6 ** np.arange(10)).astype(np.int64)
        return np.concatenate((rng.integers(0, 12, size=80), tail))
    if shape == "narrow_equal":  # finished rows that share a length
        return np.concatenate((rng.integers(0, 7, size=70), np.full(5, 500),
                               np.full(4, 97), [1200], np.full(3, 31)))
    if shape == "off_stride":
        # Blockers hold enough chains to keep the stepper going up to
        # OFF_STRIDE. From there, 25 rows finish, their remaining lengths
        # straddling multiples of 4 and 8, two rows each; one long row
        # leaves enough positions for their chains.
        rest = np.repeat([3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33], 2)
        longest = max(33, (len(rest) + 1) * per_row)
        blockers = max(0, (OFF_STRIDE + longest) // per_row - len(rest))
        lengths = np.concatenate((OFF_STRIDE + rest, [OFF_STRIDE + longest],
                                  np.full(blockers, OFF_STRIDE),
                                  rng.integers(0, OFF_STRIDE, size=20)))
        return rng.permutation(lengths)
    # python_tail: >64 live rows (wide), then 34 (narrow), then the four
    # longest from position 41, which is off the accumulator stride
    return np.concatenate(([200, 150, 131, 90], np.full(30, 41),
                           np.full(66, 10)))


def reference_fiber(products, variant, bits):
    """SpVV's order in Python floats: ``n_acc`` lanes (one for BASE/SSR)
    cleared, product ``i`` chained onto lane ``i % n_acc``, then the
    fadd tree."""
    n_acc = {16: 8, 32: 4}[bits] if variant == "issr" else 1
    lanes = [0.0] * n_acc
    for i, p in enumerate(products):
        lanes[i % n_acc] = fadd(p, lanes[i % n_acc])
    stride = 1
    while stride < n_acc:
        for i in range(0, n_acc - stride, 2 * stride):
            lanes[i] = fadd(lanes[i], lanes[i + stride])
        stride *= 2
    return lanes[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN/inf arithmetic
class TestExactOrderBattery:
    """``accumulate_rows`` == the scalar reference, byte for byte.

    Products are salted with both NaN payloads, ±Inf, -0.0 and the
    smallest subnormal, for 1-D products and a trailing column axis.
    """

    @pytest.mark.parametrize("k", [None, 1, 2, 4, 8])
    @pytest.mark.parametrize("shape", ["no_rows", "all_empty", "giant_row",
                                       "power_law", "straddle_n_acc",
                                       "python_tail"])
    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_stepper_matches_the_scalar_reference(self, variant, bits,
                                                  shape, k):
        rng = stable_rng(variant, bits, shape, k)
        lengths = battery_lengths(shape, rng)
        ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        nnz = int(ptr[-1])
        products = salted_products(rng, nnz, k)
        got = accumulate_rows(products, ptr, variant, bits)
        want = reference_rows(products, ptr, variant, bits)
        assert got.shape == want.shape == (len(lengths),) + products.shape[1:]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [None, 1, 2, 4, 8])
    @pytest.mark.parametrize("shape", FINISHER_SHAPES)
    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_finisher_matches_the_scalar_reference(self, monkeypatch,
                                                   variant, bits, shape, k):
        """Shapes whose long rows the finisher completes, off the
        accumulator stride for ``off_stride``."""
        positions = []
        finish = vectorize.finish_rows

        def finish_rows(products, starts, lengths, lanes, position):
            positions.append(position)
            return finish(products, starts, lengths, lanes, position)

        monkeypatch.setattr(vectorize, "finish_rows", finish_rows)
        rng = stable_rng(variant, bits, shape, k)
        per_row = ({16: 8, 32: 4}[bits] if variant == "issr" else 1) * (k or 1)
        lengths = battery_lengths(shape, rng, per_row)
        ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        products = salted_products(rng, int(ptr[-1]), k)
        got = accumulate_rows(products, ptr, variant, bits)
        want = reference_rows(products, ptr, variant, bits)
        assert positions and (shape != "off_stride"
                              or positions == [OFF_STRIDE])
        assert got.shape == want.shape == (len(lengths),) + products.shape[1:]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_zero_columns_give_zero_columns(self, variant, bits):
        """CsrMM with a zero-column dense operand: ragged rows that
        reach the finisher return (nrows, 0)."""
        ptr = np.array([0, 3, 10, 11, 40])
        got = accumulate_rows(np.zeros((40, 0)), ptr, variant, bits)
        assert got.shape == (4, 0)

    @pytest.mark.parametrize("nnz", [0, 1, 3, 4, 5, 7, 8, 9, 33, 3001])
    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_one_row_fibers_match_the_scalar_reference(self, variant, bits,
                                                       nnz):
        """``spvv_value`` and ``stream_spvv`` (in chunks of 16) are the
        finisher's one-row case. Salted without NaN operands: SpVV pins
        no NaN payload rule, and ``inf - inf`` makes only one NaN."""
        rng = stable_rng(variant, bits, nnz)
        products = rng.standard_normal(nnz)
        salt = rng.random(nnz) < 0.04
        products[salt] = rng.choice(np.array(SPECIALS[2:]), int(salt.sum()))
        want = np.float64(reference_fiber(products.tolist(), variant, bits))
        got = np.float64(spvv_value(products, variant, bits))
        _stats, streamed = stream_spvv(np.arange(nnz), products, np.ones(nnz),
                                       chunk_nnz=16, variant=variant,
                                       index_bits=bits)
        assert got.tobytes() == want.tobytes()
        assert np.float64(streamed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_nan_payload_follows_the_product(self, variant, bits):
        """The later NaN product's payload wins, wherever the row falls.

        Each row holds both payloads, at its first and last position (the
        last lands on the first one's accumulator in every variant), so
        its result must carry the last one's payload.
        """
        lengths = np.array([2] * 19 + [9] * 21)
        ptr = np.concatenate(([0], np.cumsum(lengths)))
        products = np.ones(int(ptr[-1]))
        payloads = np.array([np.nan, DEFAULT_NAN])
        last = np.arange(len(lengths)) % 2
        products[ptr[:-1]] = payloads[1 - last]
        products[ptr[1:] - 1] = payloads[last]
        got = accumulate_rows(products, ptr, variant, bits)
        assert got.tobytes() == payloads[last].tobytes()
        assert got.tobytes() == \
            reference_rows(products, ptr, variant, bits).tobytes()

    @pytest.mark.parametrize("variant,bits,row", [
        ("base", 32, [DEFAULT_NAN, np.nan, 1.0]),  # the chain meets both
        ("issr", 32, [np.nan, DEFAULT_NAN, 1.0, 1.0]),  # the tree does
    ])
    def test_nan_rule_holds_on_a_cold_interpreter(self, variant, bits, row):
        """The rule does not lean on the interpreter's own float add.

        A fresh process runs its first adds unspecialized, and
        CPython's generic float add keeps the right operand's NaN.
        """
        products = np.array(row)
        ptr = np.array([0, len(row)])
        code = (
            "import numpy as np\n"
            "from repro.compiler.vectorize import accumulate_rows\n"
            "products = np.frombuffer(bytes.fromhex("
            f"{products.tobytes().hex()!r}))\n"
            f"out = accumulate_rows(products, np.array({ptr.tolist()}), "
            f"{variant!r}, {bits})\n"
            "print(out.tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        got = subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True,
                             timeout=120)
        want = reference_rows(products, ptr, variant, bits)
        assert np.isnan(want).all()
        assert got.stdout.strip() == want.tobytes().hex()
