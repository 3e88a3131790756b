"""Solve an SPD system with TCDM-resident conjugate gradient.

Demonstrates the pipeline subsystem end to end: build a bounded-degree
SPD problem, run CG on both backends (bit-identical residual
histories, the matrix DMA'd into the TCDM exactly once), then shard
the same solve across 4 clusters.

Run:  python examples/cg_solver_pipeline.py
"""

import numpy as np

from repro.solvers import reference_solution, solve_cg
from repro.workloads import random_dense_vector, random_spd_csr


def main():
    matrix = random_spd_csr(96, offdiag_per_row=5, seed=11, dominance=2.0)
    b = random_dense_vector(96, seed=12)
    print(f"A: {matrix.shape}, nnz={matrix.nnz} "
          f"(max row {int(matrix.row_lengths().max())} — bounded, so "
          "BASE/SSR/ISSR iterate bit-identically)")

    comp = solve_cg(matrix, b, variant="issr", index_bits=16,
                    n_iters=60, tol=1e-8, backend="compiled")
    cyc = solve_cg(matrix, b, variant="issr", index_bits=16,
                   n_iters=60, tol=1e-8, backend="cycle")
    assert comp.history["rr"] == cyc.history["rr"]  # bit-identical
    err = float(np.abs(comp.x - reference_solution(matrix, b)).max())
    print(f"converged in {comp.iterations} iterations "
          f"(max err vs direct solve: {err:.2e})")
    print(f"cycle backend: {cyc.stats.cycles} cycles "
          f"({cyc.stats.cycles_per_iteration:.0f}/iteration), "
          f"matrix DMA {cyc.stats.matrix_dma_words} words at setup, "
          f"{sum(cyc.stats.dma_words_by_iteration)} words afterwards")
    print(f"compiled backend model: {comp.stats.cycles} cycles "
          f"({100 * abs(comp.stats.cycles - cyc.stats.cycles) / cyc.stats.cycles:.1f}% off)")

    sharded = solve_cg(matrix, b, variant="issr", index_bits=16,
                       n_iters=60, tol=1e-8, backend="compiled",
                       n_clusters=4, partitioner="nnz_balanced")
    assert sharded.iterations == comp.iterations
    print(f"4 clusters: {sharded.stats.cycles_per_iteration:.0f} "
          f"cycles/iteration "
          f"({comp.stats.cycles_per_iteration / sharded.stats.cycles_per_iteration:.2f}x"
          " vs 1 cluster; dots allreduce, search direction exchanges)")


if __name__ == "__main__":
    main()
