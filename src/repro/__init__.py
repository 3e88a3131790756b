"""repro: an architectural reproduction of the ISSR paper.

"Indirection Stream Semantic Register Architecture for Efficient
Sparse-Dense Linear Algebra" (Scheffler, Zaruba, Schuiki, Hoefler,
Benini — DATE 2021, arXiv:2011.08070), rebuilt as a cycle-level Python
simulator of the Snitch core complex and cluster, with the SSR/ISSR
streamers, the paper's kernels, its full evaluation harness, and an
Occamy-style multi-cluster scale-out layer.

Quick start::

    from repro.workloads import random_csr, random_dense_vector
    from repro import api

    A = random_csr(128, 1024, 128 * 32, seed=1)
    x = random_dense_vector(1024, seed=2)
    stats, y = api.run("csrmv", backend="compiled", variant="issr",
                       index_bits=16, matrix=A, x=x)
    print(stats.cycles, stats.fpu_utilization)

Scale-out::

    from repro.multicluster import run_multicluster

    stats, y = run_multicluster(A, x, n_clusters=8,
                                partitioner="nnz_balanced",
                                backend="compiled")

Iterative solvers on the pipeline subsystem::

    from repro.workloads import random_spd_csr, random_dense_vector
    from repro.solvers import solve_cg

    A = random_spd_csr(256, offdiag_per_row=6, seed=1)
    res = solve_cg(A, random_dense_vector(256, seed=2),
                   backend="compiled", n_clusters=4)
    print(res.converged, res.stats.cycles_per_iteration)

See docs/ARCHITECTURE.md for the layer map and the contracts between
layers (tick order, backend bit-identity, partitioner semantics).

Public API surface (``__all__``):

- sparse formats — :class:`SparseFiber`, :class:`CsrMatrix`,
  :class:`CscMatrix`, :class:`CsfTensor`, :class:`CsrBuilder`
  (sparse-output construction);
- execution backends — :func:`get_backend`, :data:`BACKENDS`,
  :class:`Backend`, :data:`CYCLE_TOLERANCE`;
- scale-out — :func:`run_multicluster`, :class:`HbmConfig`,
  :data:`PARTITIONERS`;
- pipelines and solvers — :class:`Pipeline`, :func:`run_pipeline`,
  :func:`solve_cg`, :func:`solve_jacobi`, :func:`solve_power`;
- error taxonomy — :mod:`repro.errors`.

Everything else (kernels, cluster runtime, eval drivers, workloads)
is stable at module level: import it from its submodule, e.g.
``from repro.workloads import random_csr``.
"""

__version__ = "0.4.0"

from repro import errors
from repro.backends import BACKENDS, CYCLE_TOLERANCE, Backend, get_backend
from repro.formats import (
    CscMatrix,
    CsfTensor,
    CsrBuilder,
    CsrMatrix,
    SparseFiber,
)
from repro.multicluster import PARTITIONERS, HbmConfig, run_multicluster
from repro.pipeline import Pipeline, run_pipeline
from repro.solvers import solve_cg, solve_jacobi, solve_power

__all__ = [
    "BACKENDS",
    "Backend",
    "CYCLE_TOLERANCE",
    "CscMatrix",
    "CsfTensor",
    "CsrBuilder",
    "CsrMatrix",
    "HbmConfig",
    "PARTITIONERS",
    "Pipeline",
    "SparseFiber",
    "__version__",
    "errors",
    "get_backend",
    "run_multicluster",
    "run_pipeline",
    "solve_cg",
    "solve_jacobi",
    "solve_power",
]
