"""The lowering pipeline: decode, structure recovery, template match.

The compiler's soundness argument (docs/ARCHITECTURE.md): decode and
structure recovery only *prune* the template search; the gate to
execution is exact equality of the normalized instruction stream
against a canonical builder's output. These tests pin each pass —
every assembled kernel program must lower back to its own identity,
foreign programs must fail loudly, and the shape-class closures must
replay the general padded reducer's exact FP order.
"""

import numpy as np
import pytest

from repro.compiler import (
    CompiledKernel,
    LoweringError,
    decode_program,
    lower,
    recover_structure,
)
from repro.compiler.templates import csr_shape_class
from repro.isa.introspect import fingerprint, normalize_program
from repro.isa.program import ProgramBuilder
from repro.kernels.common import PROGRAM_CACHE
from repro.kernels.csrmv import build_csrmv
from repro.kernels.csrmm import build_csrmm
from repro.kernels.masked import build_masked_csrmv, build_masked_spvv
from repro.kernels.spgemm import build_spgemm
from repro.kernels.spvv import build_spvv

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

    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    @pytest.mark.parametrize("shape", ["uniform_short", "uniform_long",
                                       "ragged", "empty"])
    def test_closures_replay_the_exact_fp_order(self, variant, bits, shape):
        """Every shape-class closure == the general padded reducer."""
        from repro.compiler.vectorize import accumulate_rows

        rng = np.random.default_rng(hash((variant, bits, shape)) % 2**32)
        if shape == "uniform_short":
            ptr = np.arange(0, 5 * 3, 3, dtype=np.int64)
        elif shape == "uniform_long":
            ptr = np.arange(0, 5 * 24, 24, dtype=np.int64)
        elif shape == "ragged":
            lengths = rng.integers(0, 30, size=6)
            ptr = np.concatenate(([0], np.cumsum(lengths)))
        else:
            ptr = np.zeros(5, dtype=np.int64)
        products = rng.standard_normal(int(ptr[-1]))

        program, _ = build_csrmv(variant, bits)
        kernel = lower(program)
        reducer = kernel.row_reducer(csr_shape_class(ptr))
        got = reducer(products, ptr, len(ptr) - 1)
        want = accumulate_rows(products, ptr, variant, bits)
        assert got.tobytes() == want.tobytes()

    def test_closures_are_memoized_per_shape_class(self):
        program, _ = build_csrmv("issr", 16)
        kernel = lower(program)
        assert kernel.row_reducer(("general",)) \
            is kernel.row_reducer(("general",))
