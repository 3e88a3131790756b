"""Experiment registry: every paper artifact mapped to a driver.

``EXPERIMENTS`` maps experiment ids (see docs/experiments.md) to callables
returning :class:`~repro.eval.report.ExperimentResult`. ``run_all``
executes the whole reproduction at a chosen fidelity.

Kernel-running experiments accept a ``backend=`` selector ("cycle" or
"compiled", see :mod:`repro.backends`) and sweep-shaped ones additionally a
``runner=`` (:class:`~repro.eval.parallel.ParallelRunner`) to fan
their points out over worker processes with on-disk caching.
"""

from repro.eval import (
    claims,
    fig4a,
    fig4b,
    fig4c,
    fig4d,
    outofcore,
    scaling,
    solvers,
    sparse_sparse,
    static_models,
)

#: Quick-mode knobs keep the full suite runnable in minutes.
QUICK = {
    "E1": dict(nnz_points=(2, 8, 32, 128, 512, 2048)),
    "E2": dict(nnz_per_row=(1, 4, 16, 32, 64, 128), nrows=96),
    "E3": dict(scale=0.02),
    "E4": dict(scale=0.02),
    "E8": dict(nnz=2048, npr=128),
    "E10": dict(),
    "scaling": dict(),
    "sparse_sparse": dict(nnz=256, spgemm_n=48),
    "solvers": dict(densities=(0.002, 0.01), n_iters=5,
                    clusters=(1, 2, 4)),
    "outofcore": dict(nrows=6000, n_iters=2, window_rows=512),
}
#: E9 runs E3 underneath, at E3's scale in either mode.
QUICK["E9"] = QUICK["E3"]

#: Experiments that execute kernels and honor ``backend=``.
BACKEND_AWARE = frozenset({"E1", "E2", "E3", "E4", "E8", "E9", "E10",
                           "scaling", "sparse_sparse", "solvers",
                           "outofcore"})
#: Experiments that honor the ``--mainmem-budget`` byte override.
BUDGET_AWARE = frozenset({"outofcore"})
#: Sweep-shaped experiments that honor ``runner=`` point fan-out.
PARALLEL_AWARE = frozenset({"E1", "E2", "E3", "E4", "E9", "scaling",
                            "sparse_sparse", "solvers"})
#: Experiments whose drivers accept a ``variant=`` kernel selector
#: (the others fix their variants — they *compare* kernels).
VARIANT_AWARE = frozenset({"scaling"})
#: Experiments whose drivers accept a ``clusters=`` sweep tuple.
CLUSTER_AWARE = frozenset({"scaling", "solvers"})

#: One-line summaries rendered into the CLI ``--help`` epilog (keep in
#: sync with :data:`EXPERIMENTS`; enforced by
#: ``tests/test_sparse_sparse.py::test_descriptions_cover_the_whole_registry``).
DESCRIPTIONS = {
    "E1": "Fig. 4a — single-CC SpVV FPU utilization vs nonzero count",
    "E2": "Fig. 4b — single-CC CsrMV utilization vs row density",
    "E3": "Fig. 4c — 8-core cluster CsrMV utilization (double-buffered)",
    "E4": "Fig. 4d — cluster CsrMV power, energy per MAC and energy "
          "gain, BASE vs ISSR-16",
    "E5": "Table I — ISSR lane area breakdown (static model)",
    "E6": "timing/frequency static model",
    "E8": "paper headline claims (speedup/utilization) on one CC",
    "E9": "related-work comparison derived from E3's utilization",
    "E10": "CsrMM column-loop claim",
    "scaling": "E11 — multi-cluster strong/weak scaling per partitioner",
    "sparse_sparse": "E12 — sparse-sparse (masked SpVV / SpGEMM) "
                     "speedup vs match density",
    "solvers": "E13 — TCDM-resident iterative solvers (CG/Jacobi/power) "
               "on the pipeline subsystem",
    "outofcore": "E14 — out-of-core streaming-tiled execution on "
                 "million-row mmap-backed matrices",
}

#: Structured registry metadata: the JSON artifact each experiment
#: writes (None when it only renders a table) and the names of its
#: derived claims. ``python -m repro.eval --list-experiments --json``
#: emits this (with :data:`DESCRIPTIONS`), and ``docs/build_site.py``
#: generates the experiments-catalog table from the same emitter — no
#: hand-maintained table to go stale.
EXPERIMENT_INFO = {
    "E1": {"output": None, "claims": ()},
    "E2": {"output": None, "claims": ()},
    "E3": {"output": None, "claims": ()},
    "E4": {"output": None, "claims": ()},
    "E5": {"output": None, "claims": ()},
    "E6": {"output": None, "claims": ()},
    "E8": {"output": None, "claims": ()},
    "E9": {"output": None, "claims": ()},
    "E10": {"output": None, "claims": ()},
    "scaling": {"output": "scaling.json",
                "claims": ("nnz_balanced_beats_row_block",
                           "weak_scaling_efficiency_le_1")},
    "sparse_sparse": {"output": "sparse_sparse.json",
                      "claims": ("issr_speedup_above_threshold",
                                 "compiled_cycle_bit_identical",
                                 "compiled_cycle_within_tolerance")},
    "solvers": {"output": "solvers.json",
                "claims": ("issr_speedup_above_threshold",
                           "multicluster_speedup",
                           "backend_bit_identical",
                           "cycle_within_tolerance",
                           "no_matrix_redma",
                           "variant_bit_identical",
                           "solvers_converge")},
    "outofcore": {"output": "outofcore.json",
                  "claims": ("peak_resident_under_quarter",
                             "window_bit_identical_resident",
                             "cycle_prefix_bit_identical",
                             "tiles_streamed_once_per_pass")},
}


def experiment_registry():
    """The machine-readable experiment catalog (id, name, output,
    claim count) — the single source behind the CLI's
    ``--list-experiments --json`` and the generated docs table."""
    entries = []
    for eid in EXPERIMENTS:
        info = EXPERIMENT_INFO.get(eid, {"output": None, "claims": ()})
        entries.append({
            "id": eid,
            "name": DESCRIPTIONS.get(eid, ""),
            "output": info["output"],
            "claim_count": len(info["claims"]),
            "claims": list(info["claims"]),
            "backend_aware": eid in BACKEND_AWARE,
            "parallel_aware": eid in PARALLEL_AWARE,
            "variant_aware": eid in VARIANT_AWARE,
            "cluster_aware": eid in CLUSTER_AWARE,
        })
    return entries


def _run_related_from_e3(e3_result=None, **kwargs):
    """E9 needs the whole-run cluster utilization measured by E3.

    Without ``e3_result``, runs E3 with ``kwargs``; through
    :func:`run_experiment` those carry the mode's E3 scale and the
    backend.
    """
    if e3_result is None:
        e3_result = fig4c.run(**kwargs)
    return static_models.run_related(
        e3_result.measured["whole-run utilization"]
    )


EXPERIMENTS = {
    "E1": fig4a.run,
    "E2": fig4b.run,
    "E3": fig4c.run,
    "E4": fig4d.run,
    "E5": static_models.run_area,
    "E6": static_models.run_timing,
    "E8": claims.run_claims,
    "E9": _run_related_from_e3,
    "E10": claims.run_csrmm_claim,
    # E11: multi-cluster strong/weak scaling (defaults to the compiled
    # backend — an analytic-model sweep; "scaling" is its CLI name).
    "scaling": scaling.run,
    # E12: sparse-sparse kernel family (masked SpVV / SpGEMM) swept
    # over match density; "sparse_sparse" is its CLI name.
    "sparse_sparse": sparse_sparse.run,
    # E13: TCDM-resident iterative solvers on the pipeline subsystem
    # (defaults to the compiled backend); "solvers" is its CLI name.
    "solvers": solvers.run,
    # E14: out-of-core streaming-tiled execution over mmap-backed CSR
    # caches (defaults to compiled); "outofcore" is its CLI name.
    "outofcore": outofcore.run,
}


def run_experiment(exp_id, quick=True, backend=None, runner=None,
                   variant=None, clusters=None, mainmem_budget=None,
                   **overrides):
    """Run one experiment by id; quick mode shrinks the workloads.

    ``backend``/``variant``/``clusters``/``mainmem_budget`` thread
    through only to the experiments whose drivers accept them (the
    ``*_AWARE`` sets) — passing them alongside ids that fix those
    knobs is not an error, the flags simply don't apply there.
    Telemetry is the caller's: wrap the call in a
    :func:`repro.telemetry.session` to record it.
    """
    fn = EXPERIMENTS[exp_id]
    kwargs = dict(QUICK.get(exp_id, {})) if quick else {}
    kwargs.update(overrides)
    if backend is not None and exp_id in BACKEND_AWARE:
        kwargs["backend"] = backend
    if runner is not None and exp_id in PARALLEL_AWARE:
        kwargs["runner"] = runner
    if variant is not None and exp_id in VARIANT_AWARE:
        kwargs["variant"] = variant
    if clusters is not None and exp_id in CLUSTER_AWARE:
        kwargs["clusters"] = tuple(clusters)
    if mainmem_budget is not None and exp_id in BUDGET_AWARE:
        kwargs["mainmem_budget"] = int(mainmem_budget)
    return fn(**kwargs)


def run_all(quick=True, backend=None, runner=None, variant=None,
            clusters=None, mainmem_budget=None):
    """Run every experiment; returns {exp_id: ExperimentResult}."""
    results = {}
    for exp_id in EXPERIMENTS:
        if exp_id == "E9":
            results[exp_id] = _run_related_from_e3(results.get("E3"))
        else:
            results[exp_id] = run_experiment(
                exp_id, quick=quick, backend=backend, runner=runner,
                variant=variant, clusters=clusters,
                mainmem_budget=mainmem_budget)
    return results
