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
from repro import api
from repro.compiler import templates, vectorize
from repro.compiler.templates import csr_shape_class
from repro.compiler.vectorize import accumulate_rows, lane_rows, spvv_value
from repro.formats import CsfTensor, CsrMatrix, SparseFiber, spgemm_pattern
from repro.isa.introspect import fingerprint, normalize_program
from repro.isa.program import ProgramBuilder
from repro.kernels.common import PROGRAM_CACHE
from repro.kernels.csrmv import build_csrmv
from repro.kernels.csrmm import build_csrmm
from repro.kernels.masked import build_masked_csrmv, build_masked_spvv
from repro.kernels.spgemm import build_spgemm
from repro.kernels.spvv import build_spvv
from repro.stream import stream_spvv
from repro.workloads import random_csr

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

#: The exact-order battery's other row-length shapes.
BATTERY_SHAPES = ["no_rows", "all_empty", "giant_row", "power_law",
                  "straddle_n_acc", "python_tail", "around_n_acc"]


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
    if shape == "around_n_acc":  # n_acc - 1, n_acc and n_acc + 1 rows
        return rng.permutation(np.repeat([0, 3, 4, 5, 7, 8, 9], 9))
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


def api_battery_lengths(bits, shape, k):
    """``(rng, lengths)`` of one ISSR ``api.run`` battery case; ``rng``
    then salts its values."""
    rng = stable_rng("api", bits, shape, k)
    return rng, battery_lengths(shape, rng, {16: 8, 32: 4}[bits] * (k or 1))


def rule_primitive(lengths, k):
    """The ISSR primitive ``reduce_rows`` should pick for rows of
    ``lengths`` with ``k`` columns: the (row, lane) bincount when fewer
    than ``LANE_ROWS_PER_POSITION`` (row, column) chains share an
    average stepper position."""
    longest = int(np.max(lengths, initial=0))
    lanes = (int(np.sum(lengths)) * k
             < templates.LANE_ROWS_PER_POSITION * longest)
    return "lane_rows" if lanes else "accumulate_rows"


def spy_on_primitives(monkeypatch):
    """Record ``(name, layout)`` of every row-replay primitive call.

    ``layout`` is ``"columns"`` when each column of the products is
    contiguous, ``"rows"`` when the products are C-contiguous, and
    ``"both"`` for one column.
    """
    calls = []
    for name in ("cleared_rows", "lane_rows", "accumulate_rows"):
        real = getattr(templates, name)

        def spy(products, *args, _real=real, _name=name):
            rows = products.flags.c_contiguous
            columns = products.T.flags.c_contiguous
            calls.append((_name, "both" if rows and columns
                          else "rows" if rows
                          else "columns" if columns else "strided"))
            return _real(products, *args)

        monkeypatch.setattr(templates, name, spy)
    return calls


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


def reference_merge(fiber_a, fiber_b):
    """Masked SpVV in Python floats: a two-pointer merge, each matched
    pair's product chained onto a cleared accumulator."""
    a, b = fiber_a.indices.tolist(), fiber_b.indices.tolist()
    acc, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            acc = fadd(float(fiber_a.values[i]) * float(fiber_b.values[j]),
                       acc)
        i, j = i + (a[i] <= b[j]), j + (b[j] <= a[i])
    return acc


def reference_gustavson(a, b):
    """``C = A @ B`` in Python floats: per row, each A element's B row
    is MAC'd into cleared output slots. Returns ``(ptr, idcs, vals,
    counters)``, ``counters`` the loop trips the kernel makes: it
    skips a row whose pattern is empty, and an empty B row."""
    ptr, idcs, vals = [0], [], []
    counters = dict.fromkeys(("n_pattern", "n_skip", "n_a", "n_k",
                              "flops"), 0)
    for r in range(a.nrows):
        slots = {}
        for e in range(a.ptr[r], a.ptr[r + 1]):
            k = a.idcs[e]
            for f in range(b.ptr[k], b.ptr[k + 1]):
                col = int(b.idcs[f])
                p = float(a.vals[e]) * float(b.vals[f])
                slots[col] = fadd(p, slots.get(col, 0.0))
        if not slots:
            counters["n_skip"] += 1
        else:
            counters["n_pattern"] += 1
            counters["n_a"] += int(a.ptr[r + 1] - a.ptr[r])
            visits = np.diff(b.ptr)[a.idcs[a.ptr[r]:a.ptr[r + 1]]]
            counters["n_k"] += int(np.count_nonzero(visits))
            counters["flops"] += int(visits.sum())
        idcs += sorted(slots)
        vals += [slots[col] for col in sorted(slots)]
        ptr.append(len(idcs))
    return ptr, idcs, vals, counters


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN/inf arithmetic
class TestExactOrderBattery:
    """``accumulate_rows`` == the scalar reference, byte for byte.

    Products are salted with both NaN payloads, ±Inf, -0.0 and the
    smallest subnormal, for 1-D products and a trailing column axis.
    """

    @pytest.mark.parametrize("k", [None, 1, 2, 4, 8])
    @pytest.mark.parametrize("shape", BATTERY_SHAPES)
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

    @pytest.mark.parametrize("k", [None, 1, 2, 4, 8])
    @pytest.mark.parametrize("shape", BATTERY_SHAPES + FINISHER_SHAPES)
    @pytest.mark.parametrize("bits", [32, 16])
    def test_lanes_match_the_scalar_reference(self, bits, shape, k):
        """Every shape forced through the (row, lane) bincount; BASE/SSR
        rows have one primitive, checked by
        ``test_cleared_rows_match_the_scalar_reference``."""
        rng = stable_rng("lanes", bits, shape, k)
        lengths = battery_lengths(shape, rng, {16: 8, 32: 4}[bits] * (k or 1))
        ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        products = salted_products(rng, int(ptr[-1]), k)
        got = lane_rows(products, ptr, bits)
        want = reference_rows(products, ptr, "issr", bits)
        assert got.shape == want.shape == (len(lengths),) + products.shape[1:]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [None, 1, 2, 4, 8])
    @pytest.mark.parametrize("shape", BATTERY_SHAPES + FINISHER_SHAPES)
    @pytest.mark.parametrize("bits", [32, 16])
    def test_issr_api_run_matches_the_scalar_reference(self, monkeypatch,
                                                       bits, shape, k):
        """ISSR CsrMV (``k`` None) and CsrMM on the compiled backend,
        where the rule picks the primitive (checked by a spy)."""
        calls = spy_on_primitives(monkeypatch)
        rng, lengths = api_battery_lengths(bits, shape, k)
        ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        ncols = int(lengths.max(initial=1))
        idcs = np.concatenate([np.arange(n) for n in lengths] + [[]])
        matrix = CsrMatrix(ptr, idcs, salted_products(rng, int(ptr[-1])),
                           (len(lengths), ncols))
        kw = {"backend": "compiled", "variant": "issr", "index_bits": bits,
              "matrix": matrix}
        if k is None:
            x = rng.standard_normal(ncols)
            _stats, got = api.run("csrmv", x=x, **kw)
            products = matrix.vals * x[matrix.idcs]
        else:
            dense = rng.standard_normal((ncols, k))
            _stats, got = api.run("csrmm", dense=dense, **kw)
            products = matrix.vals[:, None] * dense[matrix.idcs]
        want = reference_rows(products, ptr, "issr", bits)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert [name for name, _layout in calls] \
            == [rule_primitive(lengths, k or 1)]

    @pytest.mark.parametrize("bits", [32, 16])
    def test_issr_api_battery_reaches_both_primitives(self, bits):
        """With k = 2, 4 and 8 columns the rule sends some battery shapes
        to the (row, lane) bincount and others to the stepper, so
        ``test_issr_api_run_matches_the_scalar_reference`` checks both
        CsrMM paths byte for byte."""
        for k in (2, 4, 8):
            picks = {rule_primitive(api_battery_lengths(bits, shape, k)[1],
                                    k)
                     for shape in BATTERY_SHAPES + FINISHER_SHAPES}
            assert picks == {"lane_rows", "accumulate_rows"}, k

    @pytest.mark.parametrize("k", [None, 1, 4])
    @pytest.mark.parametrize("bits", [32, 16])
    def test_signed_zero_rows_and_lanes(self, bits, k):
        """Rows whose products are all -0.0 end at -0.0; rows where
        some lanes hold only -0.0 and the others cancel end at +0.0.
        A cleared bin starts at +0.0 where the kernel's ``fmul`` init
        keeps -0.0, so the lane path must fix these rows up."""
        n_acc = {16: 8, 32: 4}[bits]
        rng = stable_rng("zeros", bits, k)
        lengths = rng.permutation(np.tile(
            [1, n_acc - 1, n_acc, n_acc + 1, 2 * n_acc, 3 * n_acc + 1], 6))
        ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        shape = (int(ptr[-1]),) + (() if k is None else (k,))
        products = np.full(shape, -0.0)
        for r, n in enumerate(lengths):
            row = products[ptr[r]:ptr[r + 1]]
            mode = r % 4
            if mode == 1:  # one lane holds ±0 only, the rest cancel
                lane = int(rng.integers(n_acc))
                for t in range(n_acc):
                    sel = row[t::n_acc]
                    if t != lane and len(sel) >= 2:
                        sel[0], sel[1] = 1.5, -1.5
            elif mode == 2:  # both signed zeros at random
                row[...] = rng.choice(np.array([-0.0, 0.0]), row.shape)
            elif mode == 3:  # a nonzero sum
                row[...] = rng.standard_normal(row.shape)
        want = reference_rows(products, ptr, "issr", bits)
        assert np.signbit(want[::4]).all()  # the all-(-0.0) rows
        for got in (lane_rows(products, ptr, bits),
                    accumulate_rows(products, ptr, "issr", bits)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape,k,primitive", [
        ("e2", None, "lane_rows"), ("e2", 1, "lane_rows"),
        ("e2", 4, "lane_rows"),
        ("uniform300", None, "lane_rows"), ("uniform300", 1, "lane_rows"),
        ("uniform300", 4, "accumulate_rows"),
        ("psmigr_1", None, "accumulate_rows"),
        ("psmigr_1", 1, "accumulate_rows"),
    ])
    def test_rule_picks_the_primitive(self, monkeypatch, shape, k,
                                      primitive):
        """The rule counts (row, column) chains per stepper position.
        E2 (96 rows of ~128) keeps few even with k = 4 columns and takes
        the lane bincount; 300 rows of 16 (300 per position) take it
        with one column, but 1,200 chains per position with k = 4 keep
        the stepper, as psmigr_1 (~2,500 per position) always does."""
        calls = spy_on_primitives(monkeypatch)
        if shape == "e2":
            matrix = random_csr(96, 2048, 96 * 128, seed=5)
        elif shape == "uniform300":
            matrix = random_csr(300, 512, 300 * 16, seed=8,
                                distribution="constant")
        else:
            matrix = random_csr(3000, 512, 3000 * 160, seed=6)
        assert rule_primitive(matrix.row_lengths(), k or 1) == primitive
        rng = stable_rng("rule", shape, k)
        for bits in (32, 16):
            if k is None:
                api.run("csrmv", backend="compiled", variant="issr",
                        index_bits=bits, matrix=matrix,
                        x=rng.standard_normal(matrix.ncols))
            else:
                api.run("csrmm", backend="compiled", variant="issr",
                        index_bits=bits, matrix=matrix,
                        dense=rng.standard_normal((matrix.ncols, k)))
        assert [name for name, _layout in calls] == [primitive, primitive]

    @pytest.mark.parametrize("variant,bits", SERIES)
    @pytest.mark.parametrize("shape", ["e10", "uniform300"])
    def test_products_reach_each_primitive_in_its_layout(
            self, monkeypatch, variant, bits, shape):
        """CsrMM builds its (nnz, k) products in the layout the chosen
        primitive reads: column-major (each column contiguous) for the
        bincounts, ``cleared_rows`` and ``lane_rows``, and C-contiguous
        rows for the stepper's vector updates."""
        calls = spy_on_primitives(monkeypatch)
        if shape == "e10":
            matrix = random_csr(96, 1024, 96 * 24, seed=9)
        else:
            matrix = random_csr(300, 512, 300 * 16, seed=8,
                                distribution="constant")
        dense = stable_rng("layout", shape).standard_normal((matrix.ncols, 4))
        api.run("csrmm", backend="compiled", variant=variant,
                index_bits=bits, matrix=matrix, dense=dense)
        want = ("cleared_rows" if variant != "issr"
                else rule_primitive(matrix.row_lengths(), 4))
        assert calls == [(want, "rows" if want == "accumulate_rows"
                          else "columns")]

    @pytest.mark.parametrize("bits", [32, 16])
    def test_cycle_engine_matches_on_a_skewed_shape(self, bits):
        """ISSR ``csrmv``, ``csrmm`` (k = 4), ``cluster_csrmv`` and
        ``ttv`` return the cycle engine's bytes on power-law rows, which
        take the lane path."""
        rng = stable_rng("cycle", bits)
        m = random_csr(40, 128, 40 * 6, distribution="powerlaw", seed=7)
        matrix = CsrMatrix(m.ptr, m.idcs, salted_products(rng, m.nnz, rate=0.1),
                           m.shape)
        assert rule_primitive(matrix.row_lengths(), 4) == "lane_rows"
        x = rng.standard_normal(matrix.ncols)
        dense = rng.standard_normal((matrix.ncols, 4))
        coords = np.stack(np.divmod(np.repeat(np.arange(40), m.row_lengths()),
                                    5) + (m.idcs,), axis=1)
        tensor = CsfTensor.from_coo(coords, matrix.vals, (8, 5, 128))
        cases = [("csrmv", {"variant": "issr", "matrix": matrix, "x": x}),
                 ("csrmm", {"variant": "issr", "matrix": matrix,
                            "dense": dense}),
                 ("cluster_csrmv", {"variant": "issr", "matrix": matrix,
                                    "x": x}),
                 ("ttv", {"tensor": tensor, "vector": x})]
        for kernel, operands in cases:
            results = [api.run(kernel, backend=backend, index_bits=bits,
                               **operands)[1].tobytes()
                       for backend in ("cycle", "compiled")]
            assert results[0] == results[1], kernel

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
        """``spvv_value`` and ``stream_spvv`` (in chunks of 16, lanes
        carried across chunks) sum cleared lanes, then run the fadd
        tree; salted with both NaN payloads."""
        rng = stable_rng(variant, bits, nnz)
        products = rng.standard_normal(nnz)
        salt = rng.random(nnz) < 0.04
        products[salt] = rng.choice(np.array(SPECIALS), int(salt.sum()))
        want = np.float64(reference_fiber(products.tolist(), variant, bits))
        got = np.float64(spvv_value(products, variant, bits))
        _stats, streamed = stream_spvv(np.arange(nnz), products, np.ones(nnz),
                                       chunk_nnz=16, variant=variant,
                                       index_bits=bits)
        assert got.tobytes() == want.tobytes()
        assert np.float64(streamed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [None, 1, 2, 4, 8])
    @pytest.mark.parametrize("shape", ["no_rows", "all_empty", "giant_row",
                                       "power_law", "straddle_n_acc",
                                       "python_tail"] + FINISHER_SHAPES)
    @pytest.mark.parametrize("variant", ["base", "ssr"])
    def test_cleared_rows_match_the_scalar_reference(self, variant, shape,
                                                     k):
        """BASE/SSR CsrMV (``k`` None) and CsrMM on the compiled
        backend, whose CsrMM builds its products column-major."""
        rng = stable_rng("cleared", variant, shape, k)
        lengths = battery_lengths(shape, rng)
        ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        ncols = int(lengths.max(initial=1))
        idcs = np.concatenate([np.arange(n) for n in lengths] + [[]])
        vals = salted_products(rng, int(ptr[-1]))
        matrix = CsrMatrix(ptr, idcs, vals, (len(lengths), ncols))
        if k is None:
            x = rng.standard_normal(ncols)
            _stats, got = api.run("csrmv", backend="compiled",
                                  variant=variant, matrix=matrix, x=x)
            products = matrix.vals * x[matrix.idcs]
        else:
            dense = rng.standard_normal((ncols, k))
            _stats, got = api.run("csrmm", backend="compiled",
                                  variant=variant, matrix=matrix, dense=dense)
            products = matrix.vals[:, None] * dense[matrix.idcs]
        want = reference_rows(products, ptr, variant, 32)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", ["no_rows", "all_empty", "giant_row",
                                       "power_law", "straddle_n_acc"])
    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_masked_merges_match_the_scalar_reference(self, variant, bits,
                                                      shape):
        """Masked CsrMV, and masked SpVV on each of its rows: a cleared
        accumulator takes the matched products in merge order. Only
        the sparse matrix is salted, so no product multiplies two
        NaNs."""
        rng = stable_rng("masked", variant, bits, shape)
        lengths = battery_lengths(shape, rng)
        ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        ncols = 1024
        idcs = np.concatenate([np.sort(rng.choice(ncols, n, replace=False))
                               for n in lengths] + [[]])
        matrix = CsrMatrix(ptr, idcs, salted_products(rng, len(idcs), rate=0.1),
                           (len(lengths), ncols))
        x_fiber = SparseFiber(np.sort(rng.choice(ncols, 300, replace=False)),
                              rng.standard_normal(300), dim=ncols)
        _stats, got = api.run("masked_csrmv", backend="compiled",
                              variant=variant, index_bits=bits,
                              matrix=matrix, x_fiber=x_fiber)
        want = np.array([reference_merge(matrix.row(r), x_fiber)
                         for r in range(matrix.nrows)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        for r in range(matrix.nrows):
            _stats, value = api.run("masked_spvv", backend="compiled",
                                    variant=variant, index_bits=bits,
                                    fiber_a=matrix.row(r), fiber_b=x_fiber)
            assert np.float64(value).tobytes() == want[r].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_spgemm_matches_the_scalar_reference(self, variant, bits, seed):
        """Gustavson's output slots, cleared, take their products in
        k-major order; A is salted, B finite. The precomputed-pattern
        path returns the same bytes."""
        rng = stable_rng("spgemm", variant, bits, seed)
        a = random_csr(16, 12, 64, seed=int(rng.integers(1 << 30)))
        a = CsrMatrix(a.ptr, a.idcs, salted_products(rng, a.nnz, rate=0.15),
                      a.shape)
        b = random_csr(12, 16, 72, seed=int(rng.integers(1 << 30)))
        want_ptr, want_idcs, want_vals, _ = reference_gustavson(a, b)
        for pattern in (None, spgemm_pattern(a, b)):
            _stats, c = api.run("spgemm", backend="compiled", variant=variant,
                                index_bits=bits, a=a, b=b, pattern=pattern)
            assert c.ptr.tolist() == want_ptr
            assert c.idcs.tolist() == want_idcs
            assert c.vals.tobytes() == np.array(want_vals).tobytes()
        assert np.isnan(want_vals).any()

    def test_spgemm_counters_match_the_kernel_loop(self):
        """The loop trips the model charges: row 0 of A selects only
        empty B rows, so its pattern is empty and its A elements are
        not walked; rows 1 and 3 are empty."""
        a = CsrMatrix([0, 2, 2, 5, 5, 7], [1, 3, 0, 1, 2, 2, 3],
                      np.arange(1.0, 8.0), (5, 4))
        b = CsrMatrix([0, 2, 2, 5, 5], [0, 4, 1, 2, 4],
                      np.arange(1.0, 6.0), (4, 5))
        want = reference_gustavson(a, b)
        got = vectorize.spgemm_numeric(a, b)
        assert want[3] == {"n_pattern": 2, "n_skip": 3, "n_a": 5, "n_k": 3,
                           "flops": 8}
        assert got[3] == want[3]
        assert got[0].tolist() == want[0] and got[1].tolist() == want[1]
        assert got[2].tobytes() == np.array(want[2]).tobytes()

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
