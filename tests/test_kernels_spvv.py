"""Integration tests for the SpVV kernels: correctness and timing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.model import spvv_stats
from repro.kernels.spvv import build_spvv, run_spvv
from repro.workloads import random_dense_vector, random_sparse_vector

ALL_KERNELS = [("base", 32), ("base", 16), ("ssr", 32), ("ssr", 16),
               ("issr", 32), ("issr", 16)]


@pytest.mark.parametrize("variant,bits", ALL_KERNELS)
def test_correct_medium(variant, bits):
    x = random_dense_vector(512, seed=1)
    fiber = random_sparse_vector(512, 100, seed=2)
    stats, result = run_spvv(fiber, x, variant, bits)  # checks internally
    assert stats.cycles > 0
    assert stats.fpu_mac_ops == 100


@pytest.mark.parametrize("variant,bits", ALL_KERNELS)
@pytest.mark.parametrize("nnz", [0, 1, 2, 3, 5])
def test_tiny_nnz(variant, bits, nnz):
    x = random_dense_vector(64, seed=3)
    fiber = random_sparse_vector(64, nnz, seed=4 + nnz)
    run_spvv(fiber, x, variant, bits)


@pytest.mark.parametrize("variant,bits", ALL_KERNELS)
def test_full_density(variant, bits):
    x = random_dense_vector(64, seed=5)
    fiber = random_sparse_vector(64, 64, seed=6)
    run_spvv(fiber, x, variant, bits)


class TestTiming:
    def test_base_nine_cycles_per_nnz(self):
        """The paper's §I claim: 9 cycles per iteration on BASE."""
        x = random_dense_vector(2048, seed=7)
        f1 = random_sparse_vector(2048, 500, seed=8)
        f2 = random_sparse_vector(2048, 1000, seed=9)
        s1, _ = run_spvv(f1, x, "base", 32)
        s2, _ = run_spvv(f2, x, "base", 32)
        assert (s2.cycles - s1.cycles) / 500 == pytest.approx(9.0, abs=0.05)

    def test_ssr_seven_cycles_per_nnz(self):
        x = random_dense_vector(2048, seed=7)
        f1 = random_sparse_vector(2048, 500, seed=8)
        f2 = random_sparse_vector(2048, 1000, seed=9)
        s1, _ = run_spvv(f1, x, "ssr", 32)
        s2, _ = run_spvv(f2, x, "ssr", 32)
        assert (s2.cycles - s1.cycles) / 500 == pytest.approx(7.0, abs=0.05)

    @pytest.mark.parametrize("bits,limit", [(32, 2 / 3), (16, 0.8)])
    def test_issr_utilization_limit(self, bits, limit):
        """Utilization approaches but never exceeds the mux bound."""
        x = random_dense_vector(4096, seed=10)
        fiber = random_sparse_vector(4096, 4096, seed=11)
        stats, _ = run_spvv(fiber, x, "issr", bits)
        assert stats.fpu_utilization <= limit + 1e-9
        assert stats.fpu_utilization >= limit - 0.02

    def test_base16_equals_base32(self):
        """§IV-A: non-ISSR kernels perform identically for 16/32-bit."""
        x = random_dense_vector(1024, seed=12)
        fiber = random_sparse_vector(1024, 300, seed=13)
        s32, _ = run_spvv(fiber, x, "base", 32)
        s16, _ = run_spvv(fiber, x, "base", 16)
        assert abs(s32.cycles - s16.cycles) <= 2

    def test_small_nnz_issr_slower_than_base(self):
        """Fig. 4a: ISSR overhead dominates below nnz ~ 5."""
        x = random_dense_vector(64, seed=14)
        fiber = random_sparse_vector(64, 2, seed=15)
        sb, _ = run_spvv(fiber, x, "base", 32)
        si, _ = run_spvv(fiber, x, "issr", 16)
        assert si.fpu_utilization_nored < sb.fpu_utilization_nored

    def test_matches_analytical_model(self):
        x = random_dense_vector(4096, seed=16)
        fiber = random_sparse_vector(4096, 2000, seed=17)
        for variant, bits in ALL_KERNELS:
            stats, _ = run_spvv(fiber, x, variant, bits)
            predicted = spvv_stats(2000, variant, bits)
            assert stats.cycles == pytest.approx(predicted.cycles, rel=0.05), \
                (variant, bits)

    def test_runtime_independent_of_dense_size(self):
        """§IV-A: runtime is independent of the dense vector's size."""
        fiber = random_sparse_vector(1024, 200, seed=18)
        s1, _ = run_spvv(fiber, random_dense_vector(1024, seed=1), "issr", 16)
        s2, _ = run_spvv(fiber, random_dense_vector(8192, seed=1), "issr", 16)
        assert abs(s1.cycles - s2.cycles) <= 2


def test_programs_cached():
    p1, _ = build_spvv("issr", 16)
    p2, _ = build_spvv("issr", 16)
    assert p1 is p2


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 200), st.integers(0, 2 ** 31),
       st.sampled_from(ALL_KERNELS))
def test_spvv_correct_property(nnz, seed, kernel):
    variant, bits = kernel
    dim = max(nnz, 16)
    x = random_dense_vector(dim, seed=seed)
    fiber = random_sparse_vector(dim, nnz, seed=seed + 1)
    run_spvv(fiber, x, variant, bits)  # internal check raises on mismatch
