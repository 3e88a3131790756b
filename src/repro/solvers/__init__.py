"""Iterative solvers on the pipeline subsystem.

Three first-class workload scenarios built on :mod:`repro.pipeline` —
the canonical consumers of the paper's sparse-dense kernels, calling
CsrMV hundreds of times on a TCDM-resident matrix:

- :func:`solve_cg` — conjugate gradient (SPD systems);
- :func:`solve_jacobi` — Jacobi iteration (diagonally dominant);
- :func:`solve_power` — power iteration (PageRank-style dominant
  eigenpair).

Each runs BASE/SSR/ISSR on either backend and on N clusters, with
bit-identical iterates across backends (and across variants under the
bounded-row-degree condition documented in ``docs/solvers.md``).
:mod:`~repro.solvers.oracle` holds the SciPy-free NumPy references.

>>> from repro.solvers import solve_cg                       # doctest: +SKIP
>>> res = solve_cg(A, b, variant="issr", backend="compiled") # doctest: +SKIP
>>> res.converged, res.stats.cycles_per_iteration            # doctest: +SKIP
"""

from repro.solvers.cg import build_cg_pipeline, solve_cg
from repro.solvers.common import SolverResult, split_jacobi
from repro.solvers.jacobi import build_jacobi_pipeline, solve_jacobi
from repro.solvers.oracle import (
    cg_oracle,
    jacobi_oracle,
    power_oracle,
    reference_solution,
)
from repro.solvers.power import build_power_pipeline, solve_power

#: Solver names mapped to their entry points (used by eval/solvers).
SOLVERS = {
    "cg": solve_cg,
    "jacobi": solve_jacobi,
    "power": solve_power,
}

__all__ = [
    "SOLVERS",
    "SolverResult",
    "build_cg_pipeline",
    "build_jacobi_pipeline",
    "build_power_pipeline",
    "cg_oracle",
    "jacobi_oracle",
    "power_oracle",
    "reference_solution",
    "solve_cg",
    "solve_jacobi",
    "solve_power",
    "split_jacobi",
]
