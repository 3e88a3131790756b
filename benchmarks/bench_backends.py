"""Backend smoke benchmarks: compiled-vs-cycle speed and schema parity.

The CI benchmark job runs this file and uploads the pytest-benchmark
JSON: ``e2_speedup`` in ``extra_info`` tracks how much faster the
compiled backend sweeps quick-mode E2 than the cycle-stepped
simulator (required: >= 10x).
"""

import time

from repro.backends import get_backend
from repro.eval.experiments import QUICK, run_experiment
from repro.workloads import get_spec, random_dense_vector


def test_e2_compiled_vs_cycle(benchmark):
    """Quick-mode E2 on the compiled backend: >= 10x faster, same schema."""
    t0 = time.perf_counter()
    cycle_result = run_experiment("E2", backend="cycle")
    cycle_s = time.perf_counter() - t0

    comp_result = benchmark.pedantic(
        lambda: run_experiment("E2", backend="compiled"), rounds=1, iterations=1)
    t1 = time.perf_counter()
    run_experiment("E2", backend="compiled")
    comp_s = time.perf_counter() - t1

    # identical table schema: columns, row count, swept x values
    assert comp_result.columns == cycle_result.columns
    assert len(comp_result.rows) == len(cycle_result.rows)
    assert [r[0] for r in comp_result.rows] == [r[0] for r in cycle_result.rows]
    assert set(comp_result.measured) == set(cycle_result.measured)
    assert len(comp_result.rows) == len(QUICK["E2"]["nnz_per_row"])

    speedup = cycle_s / max(comp_s, 1e-9)
    benchmark.extra_info["e2_cycle_seconds"] = cycle_s
    benchmark.extra_info["e2_compiled_seconds"] = comp_s
    benchmark.extra_info["e2_speedup"] = speedup
    print(f"\nE2 quick sweep: cycle {cycle_s:.2f}s, compiled {comp_s:.3f}s "
          f"({speedup:.0f}x)")
    assert speedup >= 10.0

    # the compiled backend tracks the simulator's headline numbers
    for key in ("ssr speedup", "issr32 speedup", "issr16 speedup"):
        rel = abs(comp_result.measured[key] - cycle_result.measured[key]) \
            / cycle_result.measured[key]
        assert rel < 0.15, f"{key}: {comp_result.measured[key]} vs " \
                           f"{cycle_result.measured[key]}"


def test_compiled_backend_large_matrix(benchmark):
    """A matrix far beyond cycle-stepping reach runs in seconds.

    Uses the single-CC model (the cluster runtime requires the dense
    vector to fit in the 256 KiB TCDM, which a 64k-column matrix
    cannot).
    """
    spec = get_spec("webgraph64k")
    matrix = spec.generate(seed=1)
    x = random_dense_vector(matrix.ncols, seed=1)
    backend = get_backend("compiled")

    def run():
        issr, _ = backend.run("csrmv", variant="issr", index_bits=16,
                              matrix=matrix, x=x)
        base, _ = backend.run("csrmv", variant="base", index_bits=32,
                              matrix=matrix, x=x)
        return base.cycles / issr.cycles

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["large_matrix_nnz"] = matrix.nnz
    benchmark.extra_info["large_issr_speedup"] = speedup
    print(f"\n{spec.name}: {matrix.nnz} nnz, predicted ISSR-16 speedup "
          f"{speedup:.2f}x")
    assert speedup > 1.5
