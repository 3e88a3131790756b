"""Dual-run compiled-backend benchmark: lowered closures vs the engine.

Every measurement first proves the tentpole invariant — the compiled
backend's lowered op templates return *bit-identical results* versus
the cycle-stepped engine, with predicted cycles inside the documented
``CYCLE_TOLERANCE`` — then times both paths on the same workload:

- the quick E2 CsrMV point (fig4b's 96x2048 single-CC sweep point,
  all four kernel series) on a busy single cluster-core: the headline
  requirement is the compiled backend >= 10x faster wall-clock than
  ``Engine(mode="event")`` cycle-stepping the same programs;
- a masked-SpVV + SpGEMM sparse-sparse point, same contracts.

The run writes ``BENCH_compiled.json`` (wall-clock per benchmark,
speedup vs the event engine, git describe) for the CI artifact trail,
and the final check fails if any speedup regresses more than 20%
against the committed ``benchmarks/BENCH_compiled_baseline.json``.
"""

import json
import os
import time

import numpy as np

from repro.backends import (
    CompiledBackend,
    CycleBackend,
    cycles_within_tolerance,
)
from repro.eval.parallel import code_version
from repro.sim.engine import engine_mode

#: Quick-mode E2 workload shape (see repro.eval.experiments.QUICK).
E2_NROWS, E2_NCOLS, E2_NPR, E2_SEED = 96, 2048, 128, 1

#: Committed regression baseline (speedups measured at merge time).
BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_compiled_baseline.json")
#: Artifact written for the CI perf trajectory.
OUTPUT_PATH = "BENCH_compiled.json"

#: Collected measurements, written by the final check.
RESULTS = {}


def _time_best(fn, rounds):
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def dual_run(name, points, tolerance_key, rounds=3):
    """Time one workload on the compiled backend vs the event engine.

    ``points(backend)`` must return ``(cycles, result_bytes)`` after
    running the workload through ``backend``. Asserts bit-identical
    results and compiled cycles within
    ``CYCLE_TOLERANCE[tolerance_key]`` of the simulated count. Records
    the measurement and returns the compiled-vs-cycle wall-clock
    speedup.
    """
    compiled, cycle = CompiledBackend(), CycleBackend()
    points(compiled)  # warm the program + lowering caches untimed
    compiled_s, (comp_cycles, comp_bytes) = _time_best(
        lambda: points(compiled), rounds)
    with engine_mode("event"):
        cycle_s, (sim_cycles, sim_bytes) = _time_best(
            lambda: points(cycle), 1)

    assert comp_bytes == sim_bytes, \
        f"{name}: results not bit-identical across backends"
    assert cycles_within_tolerance(comp_cycles, sim_cycles, tolerance_key), \
        f"{name}: predicted {comp_cycles} vs simulated {sim_cycles}"

    speedup = cycle_s / compiled_s
    RESULTS[name] = {
        "compiled_s": round(compiled_s, 5),
        "cycle_s": round(cycle_s, 4),
        "cycles": comp_cycles,
        "simulated_cycles": sim_cycles,
        "speedup": round(speedup, 2),
    }
    print(f"{name}: {comp_cycles} cycles — compiled {compiled_s:.4f}s, "
          f"event engine {cycle_s:.3f}s, speedup {speedup:.0f}x")
    return speedup


def test_e2_point_csrmv():
    """The busy E2 single-CC point: compiled must beat the engine 10x."""
    from repro.workloads import random_csr, random_dense_vector

    matrix = random_csr(E2_NROWS, E2_NCOLS, E2_NROWS * E2_NPR,
                        seed=E2_SEED + E2_NPR)
    x = random_dense_vector(E2_NCOLS, seed=E2_SEED)

    def points(backend):
        cycles = 0
        digest = b""
        for variant, bits in (("base", 32), ("ssr", 32),
                              ("issr", 32), ("issr", 16)):
            stats, y = backend.run("csrmv", variant=variant,
                                   index_bits=bits, matrix=matrix, x=x)
            cycles += stats.cycles
            digest += np.asarray(y).tobytes()
        return cycles, digest

    speedup = dual_run("e2_point_csrmv", points, "single")
    assert speedup >= 10.0, \
        f"compiled backend only {speedup:.1f}x faster than the engine"


def test_sparse_sparse_point():
    """Masked SpVV + SpGEMM through the lowered intersection templates."""
    from repro.workloads import random_csr, random_fiber_pair

    fa, fb = random_fiber_pair(4096, 512, 512, 0.2, seed=2)
    a = random_csr(48, 64, 480, seed=3)
    b = random_csr(64, 48, 512, seed=4)

    def points(backend):
        cycles = 0
        digest = b""
        for variant, bits in (("base", 32), ("issr", 16)):
            stats, r = backend.run("masked_spvv", variant=variant,
                                   index_bits=bits, fiber_a=fa, fiber_b=fb)
            cycles += stats.cycles
            digest += np.float64(r).tobytes()
        stats, c = backend.run("spgemm", variant="issr", index_bits=32,
                               a=a, b=b)
        cycles += stats.cycles
        digest += c.to_dense().tobytes()
        return cycles, digest

    # masked/spgemm share the masked tolerance family's looser bound;
    # use the spgemm key (the wider of the two measured here).
    speedup = dual_run("sparse_sparse_point", points, "spgemm")
    assert speedup >= 5.0


def test_write_json_and_check_regression():
    """Persist BENCH_compiled.json; fail on >20% regression vs baseline."""
    assert RESULTS, "benchmarks did not run"
    payload = {
        "git_describe": code_version(),
        "benchmarks": RESULTS,
    }
    with open(OUTPUT_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {OUTPUT_PATH}")

    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)["benchmarks"]
    failures = []
    for name, entry in baseline.items():
        if name not in RESULTS:
            continue
        measured = RESULTS[name]["speedup"]
        floor = 0.8 * entry["speedup"]
        if measured < floor:
            failures.append(
                f"{name}: speedup {measured:.1f}x < 80% of baseline "
                f"{entry['speedup']:.1f}x")
    assert not failures, "; ".join(failures)
