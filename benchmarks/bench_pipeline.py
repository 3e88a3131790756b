"""Pipeline smoke benchmark: compiled-vs-cycle speed on a 20-iteration CG.

The CI benchmark job runs this file alongside ``bench_backends.py``
and ``bench_spgemm.py``: ``pipeline_speedup`` in ``extra_info`` tracks
how much faster the compiled executor runs a quick TCDM-resident CG than
the cycle-stepped one (required: >= 10x), with the per-iteration
residual history **bit-identical** between backends and the modeled
cycle count inside the documented "pipeline" tolerance.
"""

import time

from repro.backends.model import cycles_within_tolerance
from repro.solvers import solve_cg
from repro.workloads import random_dense_vector, random_spd_csr

#: The quick problem: 20 CG iterations, TCDM-resident on one cluster.
N = 64
OFFDIAG = 4
ITERS = 20


def _run(backend):
    matrix = random_spd_csr(N, offdiag_per_row=OFFDIAG, seed=3,
                            dominance=2.0)
    b = random_dense_vector(N, seed=5)
    return solve_cg(matrix, b, variant="issr", index_bits=16,
                    n_iters=ITERS, tol=0.0, backend=backend)


def test_pipeline_compiled_vs_cycle(benchmark):
    """Quick CG: compiled >= 10x faster, bit-identical residual history."""
    t0 = time.perf_counter()
    cyc = _run("cycle")
    cycle_s = time.perf_counter() - t0

    comp = benchmark.pedantic(lambda: _run("compiled"), rounds=1,
                              iterations=1)
    t1 = time.perf_counter()
    _run("compiled")
    comp_s = time.perf_counter() - t1

    assert comp.iterations == cyc.iterations == ITERS
    assert comp.history["rr"] == cyc.history["rr"]  # bit-identical
    assert comp.x.tobytes() == cyc.x.tobytes()

    speedup = cycle_s / max(comp_s, 1e-9)
    benchmark.extra_info["pipeline_cycle_seconds"] = cycle_s
    benchmark.extra_info["pipeline_compiled_seconds"] = comp_s
    benchmark.extra_info["pipeline_speedup"] = speedup
    benchmark.extra_info["pipeline_modeled_cycles"] = comp.stats.cycles
    print(f"\nPipeline CG ({ITERS} iterations): cycle {cycle_s:.2f}s, "
          f"compiled {comp_s:.3f}s ({speedup:.0f}x)")
    assert speedup >= 10.0
    assert cycles_within_tolerance(comp.stats.cycles, cyc.stats.cycles,
                                   "pipeline")
