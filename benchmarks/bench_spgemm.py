"""SpGEMM smoke benchmarks: compiled-vs-cycle speed and model parity.

The CI benchmark job runs this file alongside ``bench_backends.py``
and uploads the same pytest-benchmark JSON shape:
``spgemm_speedup`` in ``extra_info`` tracks how much faster the
compiled backend sweeps the quick SpGEMM grid than the cycle-stepped simulator
(required: >= 10x), with results byte-equal point for point.
"""

import time

from repro.backends import get_backend
from repro.workloads import random_csr

#: The quick sweep: (nrows, inner, ncols, nnz_a, nnz_b) per point.
SWEEP = [(16, 24, 16, 96, 140), (24, 24, 24, 200, 200),
         (32, 48, 32, 380, 500)]
VARIANTS = (("issr", 16), ("issr", 32), ("base", 32))


def _sweep(backend):
    results = []
    total_cycles = 0
    for seed, (m, k, n, nnza, nnzb) in enumerate(SWEEP):
        a = random_csr(m, k, nnza, seed=seed)
        b = random_csr(k, n, nnzb, seed=seed + 50)
        for variant, bits in VARIANTS:
            stats, c = backend.run("spgemm", variant=variant,
                                   index_bits=bits, a=a, b=b)
            results.append(c)
            total_cycles += stats.cycles
    return results, total_cycles


def test_spgemm_compiled_vs_cycle(benchmark):
    """Quick SpGEMM grid: compiled >= 10x faster, byte-equal results."""
    cycle = get_backend("cycle")
    compiled = get_backend("compiled")

    t0 = time.perf_counter()
    cycle_results, cycle_cycles = _sweep(cycle)
    cycle_s = time.perf_counter() - t0

    comp_results, comp_cycles = benchmark.pedantic(
        lambda: _sweep(compiled), rounds=1, iterations=1)
    t1 = time.perf_counter()
    _sweep(compiled)
    comp_s = time.perf_counter() - t1

    assert len(comp_results) == len(cycle_results)
    for got, want in zip(comp_results, cycle_results):
        assert got == want  # bit-identical CSR output

    speedup = cycle_s / max(comp_s, 1e-9)
    benchmark.extra_info["spgemm_cycle_seconds"] = cycle_s
    benchmark.extra_info["spgemm_compiled_seconds"] = comp_s
    benchmark.extra_info["spgemm_speedup"] = speedup
    benchmark.extra_info["spgemm_modeled_cycles"] = comp_cycles
    print(f"\nSpGEMM quick sweep: cycle {cycle_s:.2f}s, compiled {comp_s:.3f}s "
          f"({speedup:.0f}x)")
    assert speedup >= 10.0

    # the analytic model tracks the simulator's aggregate cycle count
    rel = abs(comp_cycles - cycle_cycles) / cycle_cycles
    assert rel < 0.10, f"aggregate modeled cycles off by {rel:.1%}"
