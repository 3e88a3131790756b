"""Solver scenarios: convergence, bit-identity matrix, scale-out.

The acceptance contract (ISSUE 4): CG, Jacobi, and power iteration
converge to the SciPy-free NumPy oracles with bit-identical iterates
across BASE/SSR/ISSR (bounded-row-degree workloads, 16-bit) and
across the cycle/compiled backends, on 1 and 4 clusters.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, FormatError
from repro.solvers import (
    cg_oracle,
    jacobi_oracle,
    power_oracle,
    reference_solution,
    solve_cg,
    solve_jacobi,
    solve_power,
    split_jacobi,
)
from repro.workloads import (
    random_dense_vector,
    random_spd_csr,
    random_stochastic_csr,
)

N = 40
ITERS = 6


@pytest.fixture(scope="module")
def spd():
    return (random_spd_csr(N, offdiag_per_row=4, seed=3, dominance=2.0),
            random_dense_vector(N, seed=5))


@pytest.fixture(scope="module")
def stochastic():
    return random_stochastic_csr(N, 4, seed=7)


def _run(solver, spd, stochastic, **kwargs):
    matrix, b = spd
    if solver == "cg":
        return solve_cg(matrix, b, index_bits=16, n_iters=ITERS, tol=0.0,
                        **kwargs)
    if solver == "jacobi":
        return solve_jacobi(matrix, b, index_bits=16, n_iters=ITERS,
                            tol=0.0, **kwargs)
    return solve_power(stochastic, index_bits=16, n_iters=ITERS, tol=0.0,
                       **kwargs)


class TestConvergence:
    def test_cg_reaches_direct_solution(self, spd):
        matrix, b = spd
        res = solve_cg(matrix, b, n_iters=100, tol=1e-10, backend="compiled")
        assert res.converged
        np.testing.assert_allclose(res.x, reference_solution(matrix, b),
                                   rtol=0, atol=1e-8)
        # trajectory shape tracks the oracle's
        _xo, hist = cg_oracle(matrix, b, res.iterations)
        assert np.allclose(res.history["rr"], hist, rtol=1e-3)

    def test_jacobi_reaches_direct_solution(self, spd):
        matrix, b = spd
        res = solve_jacobi(matrix, b, n_iters=200, tol=1e-10,
                           backend="compiled")
        assert res.converged
        np.testing.assert_allclose(res.x, reference_solution(matrix, b),
                                   rtol=0, atol=1e-7)
        _xo, hist = jacobi_oracle(matrix, b, res.iterations)
        assert np.allclose(res.history["dd"], hist, rtol=1e-3)

    def test_power_matches_oracle_eigenvalue(self, stochastic):
        res = solve_power(stochastic, n_iters=300, tol=1e-10,
                          backend="compiled")
        assert res.converged
        _xo, lams = power_oracle(stochastic, 300, tol=1e-20)
        assert res.history["lam"][-1] == pytest.approx(lams[-1], abs=1e-8)


class TestBitIdentity:
    """The acceptance matrix: variants x backends x {1, 4} clusters."""

    @pytest.mark.parametrize("solver", ["cg", "jacobi", "power"])
    @pytest.mark.parametrize("n_clusters", [1, 4])
    def test_variants_identical_on_fast(self, solver, spd, stochastic,
                                        n_clusters):
        outs = set()
        for variant in ("base", "ssr", "issr"):
            res = _run(solver, spd, stochastic, variant=variant,
                       backend="compiled", n_clusters=n_clusters)
            key = next(iter(res.history))
            outs.add((res.x.tobytes(), tuple(res.history[key])))
        assert len(outs) == 1

    @pytest.mark.parametrize("solver", ["cg", "jacobi", "power"])
    @pytest.mark.parametrize("n_clusters", [1, 4])
    def test_cycle_matches_fast(self, solver, spd, stochastic, n_clusters):
        comp = _run(solver, spd, stochastic, variant="issr",
                    backend="compiled", n_clusters=n_clusters)
        cyc = _run(solver, spd, stochastic, variant="issr",
                   backend="cycle", n_clusters=n_clusters)
        assert cyc.x.tobytes() == comp.x.tobytes()
        for key in comp.history:
            assert cyc.history[key] == comp.history[key]

    @pytest.mark.parametrize("variant", ["base", "ssr"])
    def test_cycle_variants_match_fast_variants(self, spd, variant):
        """Scalar-variant kernels agree across backends too."""
        comp = _run("cg", spd, None, variant=variant, backend="compiled")
        cyc = _run("cg", spd, None, variant=variant, backend="cycle")
        assert cyc.x.tobytes() == comp.x.tobytes()

    def test_cluster_counts_agree_numerically(self, spd):
        """1-cluster vs 4-cluster runs differ only in dot partial
        order — same convergence, near-identical iterates."""
        one = _run("cg", spd, None, backend="compiled", n_clusters=1)
        four = _run("cg", spd, None, backend="compiled", n_clusters=4,
                    partitioner="nnz_balanced")
        np.testing.assert_allclose(one.x, four.x, rtol=0, atol=1e-9)


class TestJacobiSplit:
    def test_split_reconstructs(self, spd):
        matrix, _b = spd
        r_mat, dinv = split_jacobi(matrix)
        dense = matrix.to_dense()
        diag = np.diag(dense).copy()
        np.testing.assert_array_equal(r_mat.to_dense(),
                                      dense - np.diag(diag))
        np.testing.assert_array_equal(dinv, 1.0 / diag)
        assert (r_mat.row_lengths() == matrix.row_lengths() - 1).all()

    def test_missing_diagonal_rejected(self):
        from repro.formats.csr import CsrMatrix

        m = CsrMatrix([0, 1], [1], [2.0], (1, 2))
        with pytest.raises(FormatError):
            split_jacobi(m)
        square = CsrMatrix([0, 1, 2], [1, 0], [2.0, 3.0], (2, 2))
        with pytest.raises(FormatError, match="diagonal"):
            split_jacobi(square)


class TestScaleOut:
    def test_solution_correct_on_four_clusters(self, spd):
        matrix, b = spd
        res = solve_cg(matrix, b, n_iters=100, tol=1e-10, backend="compiled",
                       n_clusters=4, partitioner="nnz_balanced")
        assert res.converged
        np.testing.assert_allclose(res.x, reference_solution(matrix, b),
                                   rtol=0, atol=1e-8)

    def test_cyclic_partitioner_rejected(self, spd):
        matrix, b = spd
        with pytest.raises(ConfigError):
            solve_cg(matrix, b, n_iters=4, backend="compiled", n_clusters=4,
                     partitioner="cyclic")

    def test_exchange_traffic_is_steady(self, spd):
        matrix, b = spd
        res = solve_cg(matrix, b, index_bits=16, n_iters=5, tol=0.0,
                       backend="cycle", n_clusters=4)
        words = res.stats.dma_words_by_iteration
        assert len(set(words)) == 1 and words[0] > 0
        assert words[0] < res.stats.matrix_dma_words

    def test_empty_shards_agree_across_backends(self):
        """More clusters than rows: empty shards still exchange the
        replicated buffer identically on both backends."""
        matrix = random_spd_csr(3, offdiag_per_row=1, seed=1,
                                dominance=2.0)
        b = random_dense_vector(3, seed=2)
        comp = solve_cg(matrix, b, index_bits=16, n_iters=3, tol=0.0,
                        backend="compiled", n_clusters=4,
                        partitioner="nnz_balanced")
        cyc = solve_cg(matrix, b, index_bits=16, n_iters=3, tol=0.0,
                       backend="cycle", n_clusters=4,
                       partitioner="nnz_balanced")
        assert comp.x.tobytes() == cyc.x.tobytes()
        assert comp.stats.dma_words_by_iteration == \
            cyc.stats.dma_words_by_iteration
