"""E13 — TCDM-resident iterative solvers: the pipeline subsystem sweep.

The paper's kernels are evaluated one invocation at a time (E1-E4);
their canonical consumers are *iterative* algorithms that call CsrMV
hundreds of times on the same matrix. This experiment measures the
three solver scenarios (:mod:`repro.solvers`: CG, Jacobi, power
iteration) running on :mod:`repro.pipeline`:

- a **speedup sweep** over matrix density: cycles-per-iteration for
  BASE / SSR / ISSR-32 / ISSR-16 per solver (compiled backend), with the
  ISSR-over-BASE ratio per point;
- a **cluster sweep**: CG cycles-per-iteration on 1..8 clusters
  (matrix partitioned once, per-iteration dot allreduce + replicated
  search-direction exchange);
- **cross-checks** that always run both backends on small problems:
  recorded residual histories must match bit for bit, compiled-predicted
  cycles must stay within ``CYCLE_TOLERANCE["pipeline"]``, and the
  real ``Dma`` counters must show **zero matrix re-DMA after setup**
  (one cluster moves no words at all per iteration; N clusters move
  only the steady vector-exchange traffic);
- **variant identity**: on the bounded-row-degree solver workloads
  (16-bit), BASE/SSR/ISSR iterates are bit-identical;
- **convergence**: every solver reaches its SciPy-free NumPy oracle's
  answer (:mod:`repro.solvers.oracle`).

Every tuple is one experiment *point* fanned out through
:class:`~repro.eval.parallel.ParallelRunner` (point-cache key schema
v4 covers the solver/pipeline parameters).
"""

import json
import os

import numpy as np

from repro.backends.model import (
    CYCLE_TOLERANCE,
    cycle_error,
    cycles_within_tolerance,
)
from repro.eval.parallel import map_points
from repro.eval.report import ExperimentResult, ascii_plot
from repro.solvers import SOLVERS, power_oracle, reference_solution
from repro.workloads import (
    random_dense_vector,
    random_spd_csr,
    random_stochastic_csr,
)

#: Matrix densities swept (nnz fraction; rows get density * n nonzeros).
#: The top of the range is set by TCDM residency: at n = 2048 a 1%
#: matrix already needs the 4-cluster sharding of SWEEP_CLUSTERS.
DEFAULT_DENSITIES = (0.002, 0.005, 0.01)
#: Documented density threshold of the >= 2x headline claim.
DENSITY_THRESHOLD = 0.01
#: Claimed minimum ISSR-over-BASE cycles-per-iteration ratio.
SPEEDUP_CLAIM = 2.0
#: Kernel variants measured per sweep point.
SWEEP_KERNELS = (("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16))
#: Solvers swept.
DEFAULT_SOLVERS = ("cg", "jacobi", "power")
#: Problem size of the sweep (compiled backend).
DEFAULT_N = 2048
#: Clusters the density sweep shards over (the sweep matrices exceed
#: one cluster's TCDM — the pipeline partitions the matrix once and
#: keeps every shard resident).
SWEEP_CLUSTERS = 4
#: Density of the cluster-count sweep (low enough that the matrix is
#: TCDM-resident even on a single cluster).
CLUSTER_DENSITY = 0.003
#: Iterations per sweep point (fixed; convergence is checked separately).
DEFAULT_ITERS = 10
#: Cluster counts of the CG scale-out sweep.
DEFAULT_CLUSTERS = (1, 2, 4, 8)
#: Claimed minimum 4-cluster speedup over 1 cluster (CG, ISSR-16).
CLUSTER_SPEEDUP_CLAIM = 2.0
#: Cross-check problem size (cycle-steps every stage; small on purpose).
CROSSCHECK_N = 96
CROSSCHECK_ITERS = 8
#: Default JSON artifact path.
DEFAULT_JSON = "solvers.json"


def _workload(solver, n, density, seed):
    """(matrix, rhs-or-None) for one solver at one density."""
    npr = max(int(round(density * n)), 1)
    if solver == "power":
        return random_stochastic_csr(n, npr, seed=seed), None
    matrix = random_spd_csr(n, offdiag_per_row=npr, seed=seed,
                            dominance=2.0)
    return matrix, random_dense_vector(n, seed=seed + 1)


def _solve(solver, matrix, rhs, **kwargs):
    if solver == "power":
        return SOLVERS[solver](matrix, **kwargs)
    return SOLVERS[solver](matrix, rhs, **kwargs)


def sweep_point(params):
    """Cycles-per-iteration of every variant at one (solver, density)."""
    solver = params["solver"]
    matrix, rhs = _workload(solver, params["n"], params["density"],
                            params["seed"])
    row = {"kind": "sweep", "solver": solver, "density": params["density"],
           "n": params["n"], "nnz": int(matrix.nnz)}
    for variant, bits in SWEEP_KERNELS:
        res = _solve(solver, matrix, rhs, variant=variant, index_bits=bits,
                     n_iters=params["n_iters"], tol=0.0,
                     backend=params["backend"],
                     n_clusters=SWEEP_CLUSTERS,
                     partitioner="nnz_balanced")
        row[f"{variant}{bits}_cpi"] = round(
            res.stats.cycles_per_iteration, 1)
    row["speedup"] = row["base32_cpi"] / row["issr32_cpi"]
    return row


def cluster_point(params):
    """CG cycles-per-iteration at one cluster count (ISSR-16)."""
    matrix, rhs = _workload("cg", params["n"], params["density"],
                            params["seed"])
    res = _solve("cg", matrix, rhs, variant="issr", index_bits=16,
                 n_iters=params["n_iters"], tol=0.0,
                 backend=params["backend"],
                 n_clusters=params["n_clusters"],
                 partitioner="nnz_balanced")
    return {"kind": "clusters", "solver": "cg",
            "n_clusters": params["n_clusters"],
            "cpi": round(res.stats.cycles_per_iteration, 1),
            "cycles": int(res.stats.cycles),
            "dma_words_per_iteration":
                int(res.stats.dma_words_by_iteration[-1])
                if res.stats.dma_words_by_iteration else 0}


def crosscheck_point(params):
    """One small solver on BOTH backends (+ the Dma re-DMA counters)."""
    solver = params["solver"]
    n_clusters = params["n_clusters"]
    matrix, rhs = _workload(solver, CROSSCHECK_N, 0.05, params["seed"])
    kwargs = dict(variant="issr", index_bits=16, n_iters=CROSSCHECK_ITERS,
                  tol=0.0, n_clusters=n_clusters)
    cyc = _solve(solver, matrix, rhs, backend="cycle", **kwargs)
    comp = _solve(solver, matrix, rhs, backend="compiled", **kwargs)
    key = solver_history_key(solver)
    per_iter = list(cyc.stats.dma_words_by_iteration)
    if n_clusters == 1:
        no_redma = all(w == 0 for w in per_iter)
    else:
        # steady state: every iteration moves the same vector-exchange
        # words, and never as much as re-fetching the matrix would
        no_redma = (len(set(per_iter)) == 1
                    and per_iter[0] < cyc.stats.matrix_dma_words)
    return {
        "kind": "crosscheck", "solver": solver, "n_clusters": n_clusters,
        "bit_identical": cyc.x.tobytes() == comp.x.tobytes()
        and cyc.history[key] == comp.history[key],
        "cycle_cycles": int(cyc.stats.cycles),
        "compiled_cycles": int(comp.stats.cycles),
        "rel_err": round(cycle_error(comp.stats.cycles, cyc.stats.cycles,
                                     "pipeline"), 4),
        "within_tolerance": cycles_within_tolerance(
            comp.stats.cycles, cyc.stats.cycles, "pipeline"),
        "matrix_dma_words": int(cyc.stats.matrix_dma_words),
        "dma_words_by_iteration": per_iter,
        "no_matrix_redma": no_redma,
    }


def variant_point(params):
    """Cross-variant bit-identity on the bounded-degree workloads."""
    solver = params["solver"]
    matrix, rhs = _workload(solver, CROSSCHECK_N, 0.05, params["seed"])
    outs = []
    for variant in ("base", "ssr", "issr"):
        res = _solve(solver, matrix, rhs, variant=variant, index_bits=16,
                     n_iters=CROSSCHECK_ITERS, tol=0.0, backend="compiled")
        outs.append(res.x.tobytes())
    return {"kind": "variants", "solver": solver,
            "bit_identical": len(set(outs)) == 1}


def convergence_point(params):
    """One solver to convergence vs its NumPy oracle."""
    solver = params["solver"]
    matrix, rhs = _workload(solver, CROSSCHECK_N, 0.05, params["seed"])
    if solver == "power":
        res = _solve(solver, matrix, None, n_iters=300, tol=1e-10,
                     backend="compiled")
        _x, lams = power_oracle(matrix, 300, tol=1e-20)
        err = abs(res.history["lam"][-1] - lams[-1])
    else:
        res = _solve(solver, matrix, rhs, n_iters=300, tol=1e-10,
                     backend="compiled")
        err = float(np.abs(res.x - reference_solution(matrix, rhs)).max())
    return {"kind": "convergence", "solver": solver,
            "converged": bool(res.converged),
            "iterations": int(res.iterations), "error": err,
            "ok": bool(res.converged) and err < 1e-6}


def solver_history_key(solver):
    """The recorded scalar that tracks a solver's convergence."""
    return {"cg": "rr", "jacobi": "dd", "power": "lam"}[solver]


def _claims(sweep_rows, cluster_rows, check_rows, variant_rows, conv_rows):
    """Derive the claim section checked by tests and CI."""
    gains = {}
    for r in sweep_rows:
        if r["density"] >= DENSITY_THRESHOLD:
            gains[f"{r['solver']}@{r['density']}"] = round(r["speedup"], 3)
    by_n = {r["n_clusters"]: r["cpi"] for r in cluster_rows}
    cluster_gain = by_n[1] / by_n[4] if 1 in by_n and 4 in by_n else None
    claims = {
        "issr_speedup_above_threshold": {
            "threshold_density": DENSITY_THRESHOLD,
            "min_speedup": SPEEDUP_CLAIM,
            "speedup_by_point": gains,
            "holds": all(g >= SPEEDUP_CLAIM for g in gains.values())
            if gains else None,
        },
        "multicluster_speedup": {
            "min_speedup": CLUSTER_SPEEDUP_CLAIM,
            "cpi_by_clusters": {str(r["n_clusters"]): r["cpi"]
                                for r in cluster_rows},
            "speedup_at_4": round(cluster_gain, 3)
            if cluster_gain is not None else None,
            "holds": cluster_gain >= CLUSTER_SPEEDUP_CLAIM
            if cluster_gain is not None else None,
        },
        "backend_bit_identical": {
            "points": len(check_rows),
            "holds": all(r["bit_identical"] for r in check_rows)
            if check_rows else None,
        },
        "cycle_within_tolerance": {
            "tolerance": CYCLE_TOLERANCE["pipeline"],
            "max_rel_err": round(max((r["rel_err"] for r in check_rows),
                                     default=0.0), 4),
            "holds": all(r["within_tolerance"] for r in check_rows)
            if check_rows else None,
        },
        "no_matrix_redma": {
            "holds": all(r["no_matrix_redma"] for r in check_rows)
            if check_rows else None,
        },
        "variant_bit_identical": {
            "condition": "bounded row degree < ISSR accumulator count",
            "holds": all(r["bit_identical"] for r in variant_rows)
            if variant_rows else None,
        },
        "solvers_converge": {
            "max_error": max((r["error"] for r in conv_rows), default=0.0),
            "holds": all(r["ok"] for r in conv_rows)
            if conv_rows else None,
        },
    }
    return claims


def run(densities=DEFAULT_DENSITIES, solvers=DEFAULT_SOLVERS, n=DEFAULT_N,
        n_iters=DEFAULT_ITERS, clusters=DEFAULT_CLUSTERS, seed=1,
        backend=None, runner=None, crosscheck=True,
        out_json=DEFAULT_JSON):
    """Run the solver sweep; returns an :class:`ExperimentResult`.

    Writes the full dataset (speedup + cluster sweeps, cross-checks,
    derived claims, ASCII plot) to ``out_json`` unless None. The
    sweeps execute on ``backend`` (default compiled — analytic models);
    cross-check points always cycle-step regardless.
    """
    from repro.backends import get_backend

    backend_name = get_backend(backend).name if backend is not None \
        else "compiled"
    densities = tuple(float(d) for d in densities)
    solvers = tuple(solvers)

    sweep_params = [
        {"solver": s, "density": d, "n": n, "n_iters": n_iters,
         "seed": seed, "backend": backend_name}
        for s in solvers for d in densities
    ]
    cluster_params = [
        {"n_clusters": nc, "density": CLUSTER_DENSITY, "n": n,
         "n_iters": n_iters, "seed": seed, "backend": backend_name}
        for nc in clusters
    ]
    check_params = [
        {"solver": s, "n_clusters": nc, "seed": seed}
        for s in solvers for nc in (1, 2)
    ] if crosscheck else []
    variant_params = [{"solver": s, "seed": seed} for s in solvers]
    conv_params = [{"solver": s, "seed": seed} for s in solvers]

    sweep_rows = map_points(sweep_point, sweep_params, runner)
    cluster_rows = map_points(cluster_point, cluster_params, runner)
    check_rows = map_points(crosscheck_point, check_params, runner)
    variant_rows = map_points(variant_point, variant_params, runner)
    conv_rows = map_points(convergence_point, conv_params, runner)

    result = ExperimentResult(
        "E13", "TCDM-resident solvers: cycles/iteration vs density",
        ["solver", "density", "base32", "ssr32", "issr32", "issr16",
         "speedup"],
    )
    series = {}
    for r in sweep_rows:
        result.add_row(r["solver"], r["density"], r["base32_cpi"],
                       r["ssr32_cpi"], r["issr32_cpi"], r["issr16_cpi"],
                       round(r["speedup"], 2))
        series.setdefault(r["solver"], []).append(
            (r["density"], r["speedup"]))

    claims = _claims(sweep_rows, cluster_rows, check_rows, variant_rows,
                     conv_rows)
    speed = claims["issr_speedup_above_threshold"]
    result.paper = {
        f"ISSR/BASE cycles-per-iteration @ density >= {DENSITY_THRESHOLD}":
            SPEEDUP_CLAIM,
        "matrix re-DMA words after setup": 0,
    }
    result.measured = {
        f"ISSR/BASE cycles-per-iteration @ density >= {DENSITY_THRESHOLD}":
            min(speed["speedup_by_point"].values())
            if speed["speedup_by_point"] else None,
        "matrix re-DMA words after setup":
            0 if claims["no_matrix_redma"]["holds"] else None,
    }
    result.notes.append(
        "model-level claims (the paper evaluates single kernel "
        "invocations); 'paper' column holds the claim thresholds")
    result.notes.append(
        f"sweeps executed on the {backend_name!r} backend; cross-check "
        "points always run both backends")
    for name, claim in claims.items():
        if claim["holds"] is False:
            result.notes.append(f"CLAIM FAILED: {name} ({claim})")
    if not crosscheck:
        result.notes.append("backend cross-check skipped (crosscheck=False)")

    if out_json:
        plot = ascii_plot(series, x_label="matrix density",
                          y_label="ISSR speedup over BASE (per iteration)",
                          logx=True)
        payload = {
            "experiment": "solvers",
            "backend": backend_name,
            "config": {"densities": list(densities),
                       "solvers": list(solvers), "n": n,
                       "n_iters": n_iters, "clusters": list(clusters),
                       "seed": seed,
                       "kernels": [list(k) for k in SWEEP_KERNELS],
                       "crosscheck_n": CROSSCHECK_N},
            "sweep": sweep_rows,
            "clusters": cluster_rows,
            "crosscheck": check_rows,
            "variants": variant_rows,
            "convergence": conv_rows,
            "claims": claims,
            "ascii_plot": plot,
        }
        out_json = os.path.expanduser(out_json)
        with open(out_json, "w") as fh:
            json.dump(payload, fh, indent=1)
        result.notes.append(f"full dataset written to {out_json}")
        result.notes.append("speedup-vs-density plot:\n" + plot)
    return result
