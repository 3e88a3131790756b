"""Differential property tests: compiled backend ≡ cycle.

The compiled backend's contract (modeled on ``test_engine_equiv.py``):
lowering the assembled programs through :mod:`repro.compiler` must
produce *bit-identical results* versus the cycle-stepped simulator and
predicted cycles within its documented ``CYCLE_TOLERANCE`` — across
kernels (CsrMV, SpVV, CsrMM, TTV, masked SpVV/CsrMV, SpGEMM, CG),
variants (BASE/SSR/ISSR), index widths, and cluster counts.
"""

import numpy as np
import pytest

from repro.backends import (
    CompiledBackend,
    CycleBackend,
    cycles_within_tolerance,
)
from repro.formats.csf import CsfTensor
from repro.multicluster import run_multicluster
from repro.pipeline import run_pipeline
from repro.solvers.cg import build_cg_pipeline, solve_cg
from repro.workloads import (
    random_csr,
    random_dense_matrix,
    random_dense_vector,
    random_fiber_pair,
    random_sparse_vector,
    random_spd_csr,
)

ALL_VARIANTS = [("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16)]


@pytest.fixture(scope="module")
def compiled():
    return CompiledBackend()


@pytest.fixture(scope="module")
def cycle():
    return CycleBackend()


def assert_matches_cycle(comp_out, cycle_out, kind, label=""):
    """Compiled vs cycle: bit-identical results, cycles in tolerance."""
    s_comp, r_comp = comp_out
    s_cyc, r_cyc = cycle_out
    assert np.asarray(r_comp).tobytes() == np.asarray(r_cyc).tobytes(), \
        f"{label}: results not bit-identical vs simulator"
    assert cycles_within_tolerance(s_comp.cycles, s_cyc.cycles, kind), \
        f"{label}: {s_comp.cycles} vs simulated {s_cyc.cycles}"


class TestSingleCC:
    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_csrmv(self, compiled, cycle, variant, bits, seed):
        rng = np.random.default_rng(seed)
        nrows = int(rng.integers(3, 24))
        nnz = int(rng.integers(nrows, nrows * 12))
        m = random_csr(nrows, 64, nnz, seed=seed + 17)
        x = random_dense_vector(64, seed=seed)
        kw = dict(variant=variant, index_bits=bits, matrix=m, x=x)
        label = f"csrmv/{variant}{bits}/s{seed}"
        assert_matches_cycle(compiled.run("csrmv", **kw),
                             cycle.run("csrmv", **kw), "single", label)

    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    @pytest.mark.parametrize("nnz", [0, 1, 7, 64])
    def test_spvv(self, compiled, cycle, variant, bits, nnz):
        dim = max(nnz, 8)
        fiber = random_sparse_vector(dim, nnz, seed=3 + nnz)
        x = random_dense_vector(dim, seed=4)
        kw = dict(variant=variant, index_bits=bits, fiber=fiber, x=x)
        label = f"spvv/{variant}{bits}/nnz{nnz}"
        assert_matches_cycle(compiled.run("spvv", **kw),
                             cycle.run("spvv", **kw), "single", label)

    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    def test_csrmm(self, compiled, cycle, variant, bits):
        m = random_csr(10, 64, 60, seed=7)
        dense = random_dense_matrix(64, 4, seed=8)
        kw = dict(variant=variant, index_bits=bits, matrix=m, dense=dense)
        assert_matches_cycle(compiled.run("csrmm", **kw),
                             cycle.run("csrmm", **kw), "single",
                             f"csrmm/{variant}{bits}")

    @pytest.mark.parametrize("bits", [16, 32])
    def test_ttv(self, compiled, cycle, bits):
        rng = np.random.default_rng(5)
        dense = np.zeros((3, 4, 12))
        mask = rng.random(dense.shape) < 0.4
        dense[mask] = rng.standard_normal(int(mask.sum()))
        tensor = CsfTensor.from_dense(dense)
        v = random_dense_vector(12, seed=6)
        kw = dict(index_bits=bits, tensor=tensor, vector=v)
        assert_matches_cycle(compiled.run("ttv", **kw),
                             cycle.run("ttv", **kw), "single", f"ttv/{bits}")


class TestSparseSparse:
    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    @pytest.mark.parametrize("density", [0.05, 0.4])
    def test_masked_spvv(self, compiled, cycle, variant, bits, density):
        a, b = random_fiber_pair(256, 31, 27, density, seed=9)
        kw = dict(variant=variant, index_bits=bits, fiber_a=a, fiber_b=b)
        label = f"masked_spvv/{variant}{bits}/d{density}"
        assert_matches_cycle(compiled.run("masked_spvv", **kw),
                             cycle.run("masked_spvv", **kw), "masked", label)

    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    def test_masked_csrmv(self, compiled, cycle, variant, bits):
        m = random_csr(8, 96, 56, seed=10)
        xf = random_sparse_vector(96, 30, seed=11)
        kw = dict(variant=variant, index_bits=bits, matrix=m, x_fiber=xf)
        assert_matches_cycle(compiled.run("masked_csrmv", **kw),
                             cycle.run("masked_csrmv", **kw), "masked",
                             f"masked_csrmv/{variant}{bits}")

    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    def test_spgemm(self, compiled, cycle, variant, bits):
        a = random_csr(10, 24, 50, seed=11)
        b = random_csr(24, 16, 60, seed=12)
        kw = dict(variant=variant, index_bits=bits, a=a, b=b)
        label = f"spgemm/{variant}{bits}"
        s_comp, c_comp = compiled.run("spgemm", **kw)
        s_cyc, c_cyc = cycle.run("spgemm", **kw)
        assert c_comp.to_dense().tobytes() == c_cyc.to_dense().tobytes()
        assert cycles_within_tolerance(s_comp.cycles, s_cyc.cycles,
                                       "spgemm"), label


class TestCluster:
    @pytest.mark.parametrize("variant,bits", [("base", 32), ("issr", 16)])
    def test_single_cluster(self, compiled, cycle, variant, bits):
        m = random_csr(48, 256, 48 * 8, seed=21)
        x = random_dense_vector(256, seed=22)
        kw = dict(variant=variant, index_bits=bits, matrix=m, x=x)
        label = f"cluster/{variant}{bits}"
        s_comp, y_comp = compiled.run("cluster_csrmv", **kw)
        s_cyc, y_cyc = cycle.run("cluster_csrmv", **kw)
        assert len(s_comp.per_core) == len(s_cyc.per_core)
        assert_matches_cycle((s_comp, y_comp), (s_cyc, y_cyc), "cluster",
                             label)

    @pytest.mark.parametrize("n_clusters", [1, 4])
    @pytest.mark.parametrize("partitioner", ["row_block", "nnz_balanced"])
    def test_multicluster_csrmv(self, n_clusters, partitioner):
        m = random_csr(96, 256, 96 * 6, distribution="powerlaw", seed=25)
        x = random_dense_vector(256, seed=26)

        def go(backend):
            return run_multicluster(m, x, n_clusters=n_clusters,
                                    partitioner=partitioner,
                                    backend=backend)

        assert_matches_cycle(go("compiled"), go("cycle"), "cluster",
                             f"multicluster/{partitioner}/{n_clusters}")


class TestSolvers:
    @pytest.mark.parametrize("n_clusters", [1, 4])
    def test_cg_history_is_bit_identical(self, n_clusters):
        m = random_spd_csr(48, offdiag_per_row=4, seed=31)
        b = random_dense_vector(48, seed=32)

        def go(backend):
            return solve_cg(m, b, n_iters=6, backend=backend,
                            n_clusters=n_clusters)

        r_comp, r_cyc = go("compiled"), go("cycle")
        assert r_comp.history == r_cyc.history
        assert_matches_cycle((r_comp.stats, r_comp.x),
                             (r_cyc.stats, r_cyc.x), "pipeline",
                             f"cg/{n_clusters}")
        assert r_comp.stats.backend == "compiled"

    @pytest.mark.parametrize("variant,bits", [("base", 32), ("issr", 16)])
    def test_cg_pipeline_across_variants(self, variant, bits):
        m = random_spd_csr(32, offdiag_per_row=4, seed=33)
        b = random_dense_vector(32, seed=34)

        def go(backend):
            pipe = build_cg_pipeline(m, b, variant=variant,
                                     index_bits=bits)
            return run_pipeline(pipe, 5, backend=backend)

        (s_comp, out_comp), (s_cyc, out_cyc) = go("compiled"), go("cycle")
        for name in out_cyc:
            assert_matches_cycle((s_comp, out_comp[name]),
                                 (s_cyc, out_cyc[name]), "pipeline",
                                 f"cg-pipeline/{variant}{bits}/{name}")
        assert s_comp.history == s_cyc.history
