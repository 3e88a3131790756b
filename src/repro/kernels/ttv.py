"""CSF tensor-times-vector (TTV) through the ISSR.

§III-A: fiber-based formats generalize to tensors via CSF [10], and
"ISSRs therefore accelerate sparse-dense linear algebra with vectors,
matrices, and general tensors in fiber-based formats; many format
variations [...] can be supported through high-level iterators on the
Snitch core."

This kernel contracts the leaf mode of an order-N CSF tensor with a
dense vector. The leaf level of a CSF tensor is exactly a concatenated
fiber (values + leaf indices + a pointer array delimiting leaf fibers)
— structurally identical to CSR — so the whole leaf level streams
through single SSR/ISSR jobs and the per-fiber loop reuses the CsrMV
row loop. The upper tensor axes are walked by the host ("high-level
iterators on the Snitch core"), which also scatters the per-fiber
results into the dense output tensor.
"""

import numpy as np

from repro.kernels.common import check_reference
from repro.kernels.csrmv import build_csrmv
from repro.sim.harness import SingleCC


def run_ttv(tensor, vector, index_bits=32, sim=None, check=True):
    """Contract ``tensor``'s leaf mode with ``vector``; returns
    (stats, dense result of shape ``tensor.shape[:-1]``).

    The leaf level runs as one CsrMV-style kernel invocation over the
    concatenated leaf fibers; nonzero output slots are then placed at
    their upper-axis coordinates.
    """
    vector = np.asarray(vector, dtype=np.float64)

    # The leaf level as a CSR-shaped triple: one "row" per leaf fiber.
    leaf_ptr = tensor.ptrs[-1]
    leaf_idcs = tensor.idcs[-1]
    leaf_vals = tensor.vals
    n_fibers = len(leaf_ptr) - 1

    program, _meta = build_csrmv("issr", index_bits)
    if sim is None:
        sim = SingleCC()
    vals = sim.alloc_floats(leaf_vals, name="leaf_vals")
    idcs = sim.alloc_indices(leaf_idcs, index_bits, name="leaf_idcs")
    ptr = sim.alloc_indices(leaf_ptr, 32, name="leaf_ptr")
    xbase = sim.alloc_floats(vector, name="x")
    ybase = sim.alloc_zeros(max(n_fibers, 1), name="y")
    stats, _ = sim.run(program, args={
        "a0": vals, "a1": idcs, "a2": ptr, "a3": xbase, "a4": ybase,
        "a5": n_fibers, "a7": tensor.nnz,
    })
    fiber_results = sim.read_floats(ybase, n_fibers) if n_fibers else []

    # Host-side upper-axis iteration: place fiber results at their
    # upper coordinates (order matches the CSF level traversal).
    out = np.zeros(tensor.shape[:-1], dtype=np.float64)
    out[leaf_fiber_coords(tensor)] = fiber_results
    if check:
        expect = tensor.ttv(vector)
        check_reference(out, expect, "TTV")
    return stats, out


def leaf_fiber_coords(tensor):
    """Upper-axis coordinates of every leaf fiber, in leaf-pointer order.

    A tuple of ``order - 1`` index arrays, one per upper axis, ready to
    index ``tensor.shape[:-1]``. Node ``j`` of level ``l + 1`` is a
    child of node ``i`` of level ``l`` when ``ptrs[l][i] <= j <
    ptrs[l][i + 1]``, so repeating level ``l``'s coordinates by its
    child counts lines them up with level ``l + 1``'s nodes.
    """
    coords = (tensor.idcs[0],)
    for level in range(1, tensor.order - 1):
        counts = np.diff(tensor.ptrs[level - 1])
        coords = tuple(np.repeat(c, counts) for c in coords)
        coords += (tensor.idcs[level],)
    return coords
