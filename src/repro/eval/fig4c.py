"""E3 — Fig. 4c: cluster CsrMV speedup (ISSR-16 over BASE) per matrix.

Runs the double-buffered multicore CsrMV on the stand-in matrix
collection and reports the end-to-end speedup of the 16-bit ISSR
kernel over the BASE kernel, plus the peak per-core FPU utilization
(the paper: speedups of 1.9x at nnz/row = 1 up to 5.8x, sustaining
over 5x for nnz/row > 50; bank conflicts lower peak utilization from
0.8 to ~0.71).

Cycle-simulating the full-size matrices is slow in Python, so the
default run scales each matrix down while preserving nnz/row (the
figure's x-axis); pass ``scale=1.0`` to reproduce at full size — or
``backend="compiled"`` to sweep any size on the analytic model.

Each matrix is one experiment *point* (see :func:`point`).
"""

from repro.backends import get_backend
from repro.eval.parallel import map_points
from repro.eval.report import ExperimentResult
from repro.workloads import paper_set, random_dense_vector

DEFAULT_SCALE = 0.05


def point(params):
    """Run one catalog matrix on both kernels; returns a row dict."""
    backend = get_backend(params["backend"])
    spec, scale, seed = params["spec"], params["scale"], params["seed"]
    index_bits = params["index_bits"]
    matrix = spec.generate(seed=seed, scale=scale)
    x = random_dense_vector(matrix.ncols, seed=seed)
    issr, _ = backend.run("cluster_csrmv", variant="issr",
                          index_bits=index_bits, matrix=matrix, x=x)
    base, _ = backend.run("cluster_csrmv", variant="base", index_bits=32,
                          matrix=matrix, x=x)
    speed = base.cycles / issr.cycles
    peak = max(c.fpu_utilization for c in issr.per_core)
    run_util = matrix.nnz / (issr.cycles * len(issr.per_core))
    return {
        "row": [spec.name, matrix.nnz_per_row, base.cycles, issr.cycles,
                speed, peak, run_util],
        "speed": speed, "peak": peak, "run_util": run_util,
    }


def run(specs=None, scale=DEFAULT_SCALE, seed=1, index_bits=16,
        backend=None, runner=None):
    """Run the Fig. 4c sweep; returns an :class:`ExperimentResult`."""
    specs = list(specs) if specs is not None else paper_set()
    backend_name = get_backend(backend).name
    params = [{"spec": spec, "scale": scale, "seed": seed,
               "index_bits": index_bits, "backend": backend_name}
              for spec in specs]
    outs = map_points(point, params, runner)

    result = ExperimentResult(
        "E3", "Fig. 4c: cluster CsrMV speedup, ISSR-16 over BASE",
        ["matrix", "nnz/row", "base cyc", "issr cyc", "speedup",
         "peak util", "run util"],
    )
    best_speed = best_util = best_run_util = 0.0
    for out in outs:
        result.add_row(*out["row"])
        best_speed = max(best_speed, out["speed"])
        best_util = max(best_util, out["peak"])
        best_run_util = max(best_run_util, out["run_util"])
    result.paper = {"peak speedup": 5.8, "peak core utilization": 0.71,
                    "whole-run utilization": 0.49}
    result.measured = {"peak speedup": best_speed,
                       "peak core utilization": best_util,
                       "whole-run utilization": best_run_util}
    if scale != 1.0:
        result.notes.append(
            f"matrices scaled by {scale} preserving nnz/row "
            "(see docs/experiments.md)"
        )
    if backend_name != "cycle":
        result.notes.append(f"executed on the {backend_name!r} backend")
    return result
