"""SpGEMM kernels: variants, backends, tolerance, and multicluster."""

import numpy as np
import pytest

from repro.backends import (
    cycles_within_tolerance,
    CompiledBackend,
    CycleBackend,
)
from repro.errors import ConfigError, FormatError
from repro.formats.csr import CsrMatrix
from repro.kernels.spgemm import run_spgemm
from repro.multicluster import run_multicluster
from repro.workloads import random_csr

VARIANTS = ("base", "ssr", "issr")


class TestSpgemmSingleCC:
    @pytest.mark.parametrize("index_bits", [32, 16])
    def test_variants_bit_identical_and_correct(self, index_bits):
        a = random_csr(8, 12, 40, seed=1)
        b = random_csr(12, 10, 50, seed=2)
        outs = [run_spgemm(a, b, v, index_bits)[1] for v in VARIANTS]
        for other in outs[1:]:
            assert outs[0] == other
        np.testing.assert_allclose(outs[0].to_dense(),
                                   a.to_dense() @ b.to_dense())

    def test_empty_operands(self):
        a = random_csr(4, 6, 0, seed=1)
        b = random_csr(6, 5, 10, seed=2)
        for v in VARIANTS:
            _, c = run_spgemm(a, b, v, 32)
            assert c.nnz == 0
        a2 = random_csr(4, 6, 8, seed=3)
        b2 = random_csr(6, 5, 0, seed=4)
        _, c2 = run_spgemm(a2, b2, "issr", 32)
        assert c2.nnz == 0

    def test_shape_mismatch_rejected(self):
        a = random_csr(4, 6, 8, seed=1)
        b = random_csr(5, 4, 8, seed=2)
        with pytest.raises(FormatError):
            run_spgemm(a, b, "base", 32)

    def test_fast_matches_cycle_bitwise_and_in_cycles(self):
        cycle, comp = CycleBackend(), CompiledBackend()
        a = random_csr(10, 16, 60, seed=5)
        b = random_csr(16, 14, 70, seed=6)
        for v in VARIANTS:
            for bits in (32, 16):
                sc, cc = cycle.run("spgemm", variant=v, index_bits=bits,
                                   a=a, b=b)
                sf, cf = comp.run("spgemm", variant=v, index_bits=bits,
                                  a=a, b=b)
                assert cc == cf
                assert cycles_within_tolerance(sf.cycles, sc.cycles, "spgemm")

    def test_issr_beats_base_on_dense_enough_inputs(self):
        a = random_csr(12, 24, 120, seed=7)
        b = random_csr(24, 20, 160, seed=8)
        sb, _ = run_spgemm(a, b, "base", 32)
        si, _ = run_spgemm(a, b, "issr", 32)
        assert sb.cycles / si.cycles >= 2.0


class TestSpgemmMulticluster:
    def test_sharded_matches_single_cluster_bitwise(self):
        a = random_csr(48, 32, 300, seed=9)
        b = random_csr(32, 28, 200, seed=10)
        comp = CompiledBackend()
        _, c_ref = comp.run("spgemm", variant="issr", index_bits=16, a=a, b=b)
        for partitioner in ("row_block", "nnz_balanced", "cyclic"):
            stats, c = run_multicluster(
                a, b, kernel="spgemm", n_clusters=4,
                partitioner=partitioner, variant="issr", index_bits=16,
                backend="compiled")
            assert c == c_ref
            assert stats.n_clusters == 4
            assert stats.combine_cycles > 0

    def test_single_cluster_degenerates(self):
        a = random_csr(16, 16, 80, seed=11)
        b = random_csr(16, 16, 90, seed=12)
        stats, c = run_multicluster(a, b, kernel="spgemm", n_clusters=1,
                                    backend="compiled")
        assert stats.combine_cycles == 0
        sf, cf = CompiledBackend().run("spgemm", variant="issr", index_bits=16,
                                   a=a, b=b)
        assert c == cf

    def test_cycle_backend_rejected(self):
        a = random_csr(8, 8, 20, seed=13)
        b = random_csr(8, 8, 20, seed=14)
        with pytest.raises(ConfigError):
            run_multicluster(a, b, kernel="spgemm", backend="cycle")

    def test_scaling_reduces_cycles(self):
        a = random_csr(96, 48, 900, seed=15)
        b = random_csr(48, 40, 400, seed=16)
        s1, _ = run_multicluster(a, b, kernel="spgemm", n_clusters=1,
                                 backend="compiled")
        s8, _ = run_multicluster(a, b, kernel="spgemm", n_clusters=8,
                                 backend="compiled")
        assert s8.cycles < s1.cycles


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
class TestNonFiniteOracle:
    """The oracle sums only the products of stored entries, as the
    kernel does, so ±Inf and NaN values check on the cycle backend and
    on multicluster and come back as the compiled backend's bytes."""

    @staticmethod
    def operand_pairs():
        diag = CsrMatrix([0, 1, 2], [0, 1], [2.0, 3.0], (2, 2))
        for special in (np.inf, -np.inf, np.nan):
            # ``0 * inf`` of a dense product is a NaN the kernel never
            # computes
            yield CsrMatrix([0, 1, 2], [0, 1], [special, 1.0], (2, 2)), diag
        a = random_csr(8, 8, 28, seed=40)
        vals = a.vals.copy()
        vals[::4] = np.resize([np.inf, -np.inf, np.nan], len(vals[::4]))
        yield CsrMatrix(a.ptr, a.idcs, vals, a.shape), \
            random_csr(8, 8, 30, seed=42)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_checked_runs_match_compiled(self, variant):
        for a, b in self.operand_pairs():
            expect = CompiledBackend().run("spgemm", variant=variant,
                                           a=a, b=b)[1]
            runs = [
                CycleBackend().run("spgemm", variant=variant, check=True,
                                   a=a, b=b)[1],
                run_multicluster(a, b, kernel="spgemm", n_clusters=2,
                                 variant=variant, index_bits=32,
                                 backend="compiled", check=True)[1],
            ]
            for c in runs:
                assert c.ptr.tobytes() == expect.ptr.tobytes()
                assert c.idcs.tobytes() == expect.idcs.tobytes()
                assert c.vals.tobytes() == expect.vals.tobytes()
