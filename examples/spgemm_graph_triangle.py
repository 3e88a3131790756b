"""Triangle counting: A·A masked by A, via the sparse-sparse kernels.

The canonical SpGEMM application (and SparseZipper's motivating
workload): for an undirected graph with 0/1 adjacency matrix A, the
entry ``(A @ A)[i, j]`` counts the common neighbors of i and j, so

    triangles = sum((A @ A) * A) / 6.

Two routes through the new kernel family compute it:

1. **SpGEMM route** — ``C = A @ A`` through the Gustavson numeric
   kernel (compiled backend), then the mask-and-sum over A's pattern;
2. **masked-SpVV route** — ``(A @ A)[i, j]`` for an edge (i, j) *is*
   the sparse-sparse dot of rows i and j, so summing masked SpVV over
   every edge counts triangles without materializing C — each dot
   running on the intersection unit.

A cycle-backend spot check on one edge confirms the compiled backend's
replay is bit-identical; the final counts are validated against the
dense NumPy reference.

Run:  python examples/spgemm_graph_triangle.py
"""

import numpy as np

from repro.backends import get_backend
from repro.eval.report import render_table
from repro.formats import CsrMatrix
from repro.workloads import random_csr

NODES = 96
EDGES_TARGET = NODES * 6


def build_graph(seed=11):
    """A random undirected 0/1 adjacency matrix with empty diagonal."""
    g = random_csr(NODES, NODES, EDGES_TARGET, distribution="powerlaw",
                   seed=seed)
    dense = g.to_dense()
    dense = ((dense + dense.T) != 0).astype(np.float64)
    np.fill_diagonal(dense, 0.0)
    return CsrMatrix.from_dense(dense)


def main():
    adj = build_graph()
    compiled = get_backend("compiled")
    cycle = get_backend("cycle")
    dense = adj.to_dense()
    expect = int(round(((dense @ dense) * dense).sum() / 6))

    # Route 1: one SpGEMM, then mask by A's pattern and sum.
    stats_mm, c = compiled.run("spgemm", variant="issr", index_bits=16,
                               a=adj, b=adj)
    total = 0.0
    for r in range(adj.nrows):
        row_c = c.row(r)
        row_a = adj.row(r)
        # mask: keep C's entries where A has an edge
        shared = np.intersect1d(row_c.indices, row_a.indices,
                                assume_unique=True)
        pos = np.searchsorted(row_c.indices, shared)
        total += row_c.values[pos].sum()
    spgemm_triangles = int(round(total / 6))

    # Route 2: masked SpVV per edge — common-neighbor counts directly.
    edge_dots = 0.0
    spvv_cycles = 0
    n_edges = 0
    for i in range(adj.nrows):
        row_i = adj.row(i)
        for j in row_i.indices[row_i.indices > i]:  # each edge once
            stats, dot = compiled.run("masked_spvv", variant="issr",
                                      fiber_a=row_i,
                                      fiber_b=adj.row(int(j)))
            edge_dots += dot
            spvv_cycles += stats.cycles
            n_edges += 1
    spvv_triangles = int(round(edge_dots / 3))  # each triangle: 3 edges

    # Cycle-backend spot check: one edge, bit-identical dot.
    i = int(np.argmax(adj.row_lengths()))
    j = int(adj.row(i).indices[0])
    _, dot_comp = compiled.run("masked_spvv", variant="issr",
                               fiber_a=adj.row(i), fiber_b=adj.row(j))
    _, dot_cycle = cycle.run("masked_spvv", variant="issr",
                             fiber_a=adj.row(i), fiber_b=adj.row(j))
    assert dot_comp == dot_cycle, \
        "compiled backend diverged from the simulator"

    assert spgemm_triangles == expect, (spgemm_triangles, expect)
    assert spvv_triangles == expect, (spvv_triangles, expect)

    print(render_table(
        f"Triangle counting on a {NODES}-node graph "
        f"({adj.nnz // 2} edges)",
        ["route", "kernel", "triangles", "modeled cycles"],
        [["SpGEMM  (C = A@A, masked sum)", "spgemm/issr16",
          spgemm_triangles, stats_mm.cycles],
         [f"masked SpVV ({n_edges} edge dots)", "masked_spvv/issr32",
          spvv_triangles, spvv_cycles]],
    ))
    print(f"dense reference: {expect} triangles — both routes agree; "
          "cycle-backend spot check bit-identical")


if __name__ == "__main__":
    main()
