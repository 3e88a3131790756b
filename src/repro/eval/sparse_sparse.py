"""E12 — sparse-sparse kernels: speedup vs match density (beyond Fig. 4).

The sparse-dense experiments (E1-E4) sweep nonzero count; the
sparse-sparse kernel family (:mod:`repro.kernels.masked`,
:mod:`repro.kernels.spgemm`) instead lives or dies by the **match
density** — the fraction of one operand's indices also present in the
other, which sets the matched-pair yield of every merge step. This
experiment sweeps it from 0.1% to 50% on uniform and power-law index
distributions and reports, per density:

- masked-SpVV cycles for BASE / SSR / ISSR-32 / ISSR-16 and the
  ISSR-over-BASE speedup (the intersection unit's merge runs at one
  comparison per cycle against the scalar loop's ~7);
- a companion SpGEMM sweep over matrix density (same backends), since
  Gustavson's flop count scales with the *square* of density.

Claims derived into the JSON ``claims`` section:

- ``issr_speedup_above_threshold`` — ISSR >= 2x BASE at every swept
  match density >= :data:`DENSITY_THRESHOLD` (the documented
  threshold; below it, fixed two-pass setup can dominate tiny merges);
- ``compiled_cycle_bit_identical`` / ``compiled_cycle_within_tolerance``
  — a small cross-check set runs on *both* backends regardless of
  ``backend=``: results must match to the last bit and compiled-predicted
  cycles must stay within ``CYCLE_TOLERANCE["masked"]`` /
  ``["spgemm"]`` (plus ``CYCLE_SLACK``).

Every (kind, workload, density) tuple is one experiment *point*, so
the sweep fans out through :class:`~repro.eval.parallel.ParallelRunner`
(point-cache key schema v3 covers the new parameters).
"""

import json
import os

from repro.backends import (
    CYCLE_TOLERANCE,
    cycle_error,
    cycle_tolerance,
    get_backend,
)
from repro.eval.parallel import map_points
from repro.eval.report import ExperimentResult, ascii_plot
from repro.workloads import random_csr, random_fiber_pair

#: Match densities swept (fraction of the smaller operand matched).
DEFAULT_DENSITIES = (0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)
#: Index distributions compared.
DEFAULT_WORKLOADS = ("uniform", "powerlaw")
#: Documented density threshold of the >= 2x headline claim.
DENSITY_THRESHOLD = 0.01
#: Claimed minimum ISSR-over-BASE speedup above the threshold.
SPEEDUP_CLAIM = 2.0
#: Kernel variants measured per point: (variant, index_bits).
SPVV_KERNELS = (("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16))
#: Default operand nonzero count (full fidelity) / quick mode.
DEFAULT_NNZ = 2048
#: Oversampling of the index space vs the nonzero count.
DIM_FACTOR = 8
#: SpGEMM companion sweep: matrix densities and size.
SPGEMM_DENSITIES = (0.01, 0.05, 0.1, 0.2)
DEFAULT_SPGEMM_N = 96
#: Cross-check points (run on BOTH backends, small on purpose).
CROSSCHECK_NNZ = 96
CROSSCHECK_DENSITIES = (0.02, 0.35)
#: Default JSON artifact path.
DEFAULT_JSON = "sparse_sparse.json"


def spvv_point(params):
    """Measure every masked-SpVV kernel at one (workload, density)."""
    backend = get_backend(params["backend"])
    nnz = params["nnz"]
    fiber_a, fiber_b = random_fiber_pair(
        nnz * DIM_FACTOR, nnz, nnz, params["density"],
        seed=params["seed"], distribution=params["workload"])
    row = {"kind": "masked_spvv", "workload": params["workload"],
           "density": params["density"], "nnz": nnz}
    for variant, bits in SPVV_KERNELS:
        stats, _ = backend.run("masked_spvv", variant=variant,
                               index_bits=bits,
                               fiber_a=fiber_a, fiber_b=fiber_b)
        row[f"{variant}{bits}_cycles"] = int(stats.cycles)
    row["speedup"] = row["base32_cycles"] / row["issr32_cycles"]
    return row


def spgemm_point(params):
    """Measure every SpGEMM variant at one matrix density."""
    backend = get_backend(params["backend"])
    n = params["n"]
    nnz = max(int(round(params["density"] * n * n)), n)
    a = random_csr(n, n, nnz, seed=params["seed"])
    b = random_csr(n, n, nnz, seed=params["seed"] + 1)
    row = {"kind": "spgemm", "workload": "uniform",
           "density": params["density"], "n": n, "nnz": nnz}
    for variant, bits in SPVV_KERNELS:
        stats, c = backend.run("spgemm", variant=variant,
                               index_bits=bits, a=a, b=b)
        row[f"{variant}{bits}_cycles"] = int(stats.cycles)
    row["out_nnz"] = int(c.nnz)
    row["speedup"] = row["base32_cycles"] / row["issr32_cycles"]
    return row


def crosscheck_point(params):
    """Run one small point on BOTH backends; compare results/cycles."""
    from repro.backends import CompiledBackend, CycleBackend

    cycle, compiled = CycleBackend(), CompiledBackend()
    nnz = params["nnz"]
    out = {"kind": params["check_kind"], "density": params["density"],
           "bit_identical": True, "max_rel_err": 0.0}
    if params["check_kind"] == "masked_spvv":
        fa, fb = random_fiber_pair(nnz * DIM_FACTOR, nnz, nnz,
                                   params["density"], seed=params["seed"])
        tol_kind = "masked"
        for variant, bits in SPVV_KERNELS:
            sc, rc = cycle.run("masked_spvv", variant=variant,
                               index_bits=bits, fiber_a=fa, fiber_b=fb)
            sf, rf = compiled.run("masked_spvv", variant=variant,
                                  index_bits=bits, fiber_a=fa, fiber_b=fb)
            out["bit_identical"] &= (rc == rf)
            out["max_rel_err"] = max(
                out["max_rel_err"],
                cycle_error(sf.cycles, sc.cycles, tol_kind))
    else:
        n = max(nnz // 4, 8)
        nnz_m = max(int(round(params["density"] * n * n)), n)
        a = random_csr(n, n, nnz_m, seed=params["seed"])
        b = random_csr(n, n, nnz_m, seed=params["seed"] + 1)
        tol_kind = "spgemm"
        for variant, bits in SPVV_KERNELS:
            sc, cc = cycle.run("spgemm", variant=variant,
                               index_bits=bits, a=a, b=b)
            sf, cf = compiled.run("spgemm", variant=variant,
                                  index_bits=bits, a=a, b=b)
            out["bit_identical"] &= (cc == cf)
            out["max_rel_err"] = max(
                out["max_rel_err"],
                cycle_error(sf.cycles, sc.cycles, tol_kind))
    out["tolerance"] = cycle_tolerance(tol_kind)[0]
    out["within_tolerance"] = out["max_rel_err"] <= out["tolerance"]
    return out


def _claims(spvv_rows, check_rows):
    """Derive the claim section checked by tests and CI."""
    gains = {}
    for r in spvv_rows:
        if r["density"] >= DENSITY_THRESHOLD:
            key = f"{r['workload']}@{r['density']}"
            gains[key] = round(r["speedup"], 3)
    claims = {
        "issr_speedup_above_threshold": {
            "threshold_density": DENSITY_THRESHOLD,
            "min_speedup": SPEEDUP_CLAIM,
            "speedup_by_point": gains,
            "holds": all(g >= SPEEDUP_CLAIM for g in gains.values())
            if gains else None,
        },
        "compiled_cycle_bit_identical": {
            "points": len(check_rows),
            "holds": all(r["bit_identical"] for r in check_rows)
            if check_rows else None,
        },
        "compiled_cycle_within_tolerance": {
            "tolerances": {"masked": CYCLE_TOLERANCE["masked"],
                           "spgemm": CYCLE_TOLERANCE["spgemm"]},
            "max_rel_err": round(max((r["max_rel_err"] for r in check_rows),
                                     default=0.0), 4),
            "holds": all(r["within_tolerance"] for r in check_rows)
            if check_rows else None,
        },
    }
    return claims


def run(densities=DEFAULT_DENSITIES, workloads=DEFAULT_WORKLOADS,
        nnz=DEFAULT_NNZ, spgemm_n=DEFAULT_SPGEMM_N, seed=1, backend=None,
        runner=None, crosscheck=True, out_json=DEFAULT_JSON):
    """Run the sparse-sparse sweep; returns an :class:`ExperimentResult`.

    Writes the full dataset (masked-SpVV + SpGEMM sweeps, the derived
    claims, and an ASCII speedup plot) to ``out_json`` unless None.
    ``crosscheck=False`` skips the two-backend validation points (they
    always cycle-step, so disable them only when a cycle backend run
    is too slow to afford).
    """
    backend_name = get_backend(backend).name if backend is not None \
        else "cycle"
    densities = tuple(float(d) for d in densities)
    workloads = tuple(workloads)

    spvv_params = [
        {"workload": w, "density": d, "nnz": nnz, "seed": seed,
         "backend": backend_name}
        for w in workloads for d in densities
    ]
    spgemm_params = [
        {"density": d, "n": spgemm_n, "seed": seed, "backend": backend_name}
        for d in SPGEMM_DENSITIES
    ]
    check_params = [
        {"check_kind": kind, "density": d, "nnz": CROSSCHECK_NNZ,
         "seed": seed}
        for kind in ("masked_spvv", "spgemm")
        for d in CROSSCHECK_DENSITIES
    ] if crosscheck else []

    spvv_rows = map_points(spvv_point, spvv_params, runner)
    spgemm_rows = map_points(spgemm_point, spgemm_params, runner)
    check_rows = map_points(crosscheck_point, check_params, runner)

    result = ExperimentResult(
        "E12", "Sparse-sparse kernels: speedup vs match density",
        ["kind", "workload", "density", "base", "ssr", "issr32", "issr16",
         "speedup"],
    )
    series = {}
    for r in spvv_rows + spgemm_rows:
        result.add_row(r["kind"], r["workload"], r["density"],
                       r["base32_cycles"], r["ssr32_cycles"],
                       r["issr32_cycles"], r["issr16_cycles"],
                       round(r["speedup"], 2))
        if r["kind"] == "masked_spvv":
            series.setdefault(r["workload"], []).append(
                (r["density"], r["speedup"]))

    claims = _claims(spvv_rows, check_rows)
    speed_claim = claims["issr_speedup_above_threshold"]
    result.paper = {
        f"ISSR/BASE speedup @ density >= {DENSITY_THRESHOLD}":
            SPEEDUP_CLAIM,
        "compiled-vs-cycle max relative cycle error":
            CYCLE_TOLERANCE["masked"],
    }
    result.measured = {
        f"ISSR/BASE speedup @ density >= {DENSITY_THRESHOLD}":
            min(speed_claim["speedup_by_point"].values())
            if speed_claim["speedup_by_point"] else None,
        "compiled-vs-cycle max relative cycle error":
            claims["compiled_cycle_within_tolerance"]["max_rel_err"],
    }
    result.notes.append(
        "model-level claims (the paper covers sparse-dense only); "
        "'paper' column holds the claim thresholds, not published numbers"
    )
    result.notes.append(f"sweep executed on the {backend_name!r} backend; "
                        "cross-check points always run both backends")
    for name, claim in claims.items():
        if claim["holds"] is False:
            result.notes.append(f"CLAIM FAILED: {name} ({claim})")
    if not crosscheck:
        result.notes.append("backend cross-check skipped (crosscheck=False)")

    if out_json:
        plot = ascii_plot(series, x_label="match density",
                          y_label="ISSR speedup over BASE", logx=True)
        payload = {
            "experiment": "sparse_sparse",
            "backend": backend_name,
            "config": {"densities": list(densities),
                       "workloads": list(workloads), "nnz": nnz,
                       "spgemm_n": spgemm_n,
                       "spgemm_densities": list(SPGEMM_DENSITIES),
                       "seed": seed, "dim_factor": DIM_FACTOR,
                       "kernels": [list(k) for k in SPVV_KERNELS]},
            "masked_spvv": spvv_rows,
            "spgemm": spgemm_rows,
            "crosscheck": check_rows,
            "claims": claims,
            "ascii_plot": plot,
        }
        out_json = os.path.expanduser(out_json)
        with open(out_json, "w") as fh:
            json.dump(payload, fh, indent=1)
        result.notes.append(f"full dataset written to {out_json}")
        result.notes.append("speedup-vs-density plot:\n" + plot)
    return result
