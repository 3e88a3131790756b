"""Masked (sparse-sparse) kernels: variants, backends, and tolerances."""

import numpy as np
import pytest

from repro.backends import (
    cycles_within_tolerance,
    CompiledBackend,
    CycleBackend,
)
from repro.formats.fiber import SparseFiber
from repro.kernels.masked import run_masked_csrmv, run_masked_spvv
from repro.workloads import random_csr, random_fiber_pair

VARIANTS = ("base", "ssr", "issr")


def rand_fiber(dim, nnz, seed):
    rng = np.random.default_rng(seed)
    idcs = np.sort(rng.choice(dim, nnz, replace=False))
    return SparseFiber(idcs, rng.standard_normal(nnz), dim=dim)


class TestMaskedSpvv:
    @pytest.mark.parametrize("index_bits", [32, 16])
    def test_variants_bit_identical(self, index_bits):
        fa, fb = random_fiber_pair(256, 48, 40, 0.3, seed=5)
        results = {v: run_masked_spvv(fa, fb, v, index_bits)[1]
                   for v in VARIANTS}
        assert len(set(results.values())) == 1

    @pytest.mark.parametrize("case", [
        (0, 5), (5, 0), (0, 0), (1, 1),
    ])
    def test_empty_and_tiny_operands(self, case):
        na, nb = case
        fa = rand_fiber(16, na, 1)
        fb = rand_fiber(16, nb, 2)
        for v in VARIANTS:
            stats, r = run_masked_spvv(fa, fb, v, 32)
            assert stats.cycles > 0

    def test_no_matches_returns_zero(self):
        fa = SparseFiber([0, 2, 4], [1.0, 2.0, 3.0])
        fb = SparseFiber([1, 3, 5], [4.0, 5.0, 6.0])
        for v in VARIANTS:
            _, r = run_masked_spvv(fa, fb, v, 32)
            assert r == 0.0

    def test_fast_matches_cycle_bitwise_and_in_cycles(self):
        cycle, comp = CycleBackend(), CompiledBackend()
        for density in (0.0, 0.05, 0.5, 1.0):
            fa, fb = random_fiber_pair(512, 96, 96, density, seed=11)
            for v in VARIANTS:
                for bits in (32, 16):
                    sc, rc = cycle.run("masked_spvv", variant=v,
                                       index_bits=bits, fiber_a=fa,
                                       fiber_b=fb)
                    sf, rf = comp.run("masked_spvv", variant=v,
                                      index_bits=bits, fiber_a=fa,
                                      fiber_b=fb)
                    assert rc == rf
                    assert cycles_within_tolerance(sf.cycles, sc.cycles, "masked")


class TestMaskedCsrmv:
    @pytest.mark.parametrize("index_bits", [32, 16])
    def test_variants_bit_identical(self, index_bits):
        matrix = random_csr(12, 96, 150, seed=3)
        x = rand_fiber(96, 24, 4)
        outs = [run_masked_csrmv(matrix, x, v, index_bits)[1]
                for v in VARIANTS]
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0], other)

    def test_empty_x_yields_zero_vector(self):
        matrix = random_csr(6, 32, 40, seed=5)
        x = SparseFiber([], [], dim=32)
        for v in VARIANTS:
            _, y = run_masked_csrmv(matrix, x, v, 32)
            np.testing.assert_array_equal(y, np.zeros(6))

    def test_empty_matrix_rows(self):
        # uniform placement leaves some rows empty at low density
        matrix = random_csr(24, 64, 20, seed=6)
        assert (matrix.row_lengths() == 0).any()
        x = rand_fiber(64, 16, 7)
        for v in VARIANTS:
            run_masked_csrmv(matrix, x, v, 32)  # internal check asserts

    def test_fast_matches_cycle_bitwise_and_in_cycles(self):
        cycle, comp = CycleBackend(), CompiledBackend()
        matrix = random_csr(20, 128, 320, seed=8)
        x = rand_fiber(128, 40, 9)
        for v in VARIANTS:
            for bits in (32, 16):
                sc, yc = cycle.run("masked_csrmv", variant=v,
                                   index_bits=bits, matrix=matrix,
                                   x_fiber=x)
                sf, yf = comp.run("masked_csrmv", variant=v,
                                  index_bits=bits, matrix=matrix,
                                  x_fiber=x)
                np.testing.assert_array_equal(yc, yf)
                assert cycles_within_tolerance(sf.cycles, sc.cycles, "masked")

    def test_issr_beats_base(self):
        matrix = random_csr(16, 256, 512, seed=10)
        x = rand_fiber(256, 64, 11)
        sb, _ = run_masked_csrmv(matrix, x, "base", 32)
        si, _ = run_masked_csrmv(matrix, x, "issr", 32)
        assert sb.cycles / si.cycles >= 2.0
