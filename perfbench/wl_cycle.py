"""``cycle`` workload: the event engine in its busy and its idle regime.

Each round runs every simulation below on the ``cycle`` backend (the
event engine), timed one by one; rounds repeat until the time is up,
and each simulation's host time is its best round, the one least
disturbed by whatever else the machine runs:

- ``cc``: a third of the quick-E2 point (32x2048, 128 nonzeros per
  row) for the base/ssr/issr32/issr16 CsrMV kernels on one core
  complex, where nearly every component works on nearly every cycle;
- ``cluster``: the same matrix through ``cluster_csrmv`` on the 8-core
  cluster, then the E11 32-cluster row-block CsrMV on
  ``powerlaw-sorted-2k`` at scale 0.25, where most components sleep.

Both inputs are smaller than the eval experiments' so a round takes
about three seconds: the best of six or more rounds is far steadier on
a shared host than the best of the three that the full sizes allow.

An engine change moves the two regimes in opposite directions, so the
workload reports both. Every simulation must return the ``compiled``
backend's result bytes and the same cycle count in every round; the
registered kernels' cycles must also fall within ``CYCLE_TOLERANCE``
of the compiled prediction. The multi-cluster run has no tolerance
contract, so its model-to-simulation cycle ratio is reported instead.
"""

import functools
import gc
import os
import time

import numpy as np

from harness import SERIES, paper_error_pct, percentile, sub_seed

NROWS, NCOLS, NPR = 32, 2048, 128
E11_MATRIX, E11_SCALE, E11_CLUSTERS = "powerlaw-sorted-2k", 0.25, 32
#: Rounds measured at least: the first pays lazy set-up (closure
#: emission, first page touches), so a best round needs a second.
MIN_ROUNDS = 2


class Sim:
    """One timed simulation and the compiled backend's answer to it."""

    def __init__(self, name, layer, kernel, nnz, run, ref_cycles, ref_bytes):
        self.name = name
        self.layer = layer
        #: Registered kernel whose cycle tolerance applies (None: none).
        self.kernel = kernel
        self.nnz = nnz
        self.run = run
        self.ref_cycles = ref_cycles
        self.ref_bytes = ref_bytes
        #: Simulated cycles of the first run (every later run must match).
        self.cycles = None


class State:
    """Operands plus the compiled reference of every simulation."""

    def __init__(self, ctx, rep):
        from repro import api
        from repro.kernels.common import PROGRAM_CACHE
        from repro.multicluster import run_multicluster
        from repro.workloads import get_spec, random_csr, random_dense_vector

        spans = ctx.spans
        # every set-up lowers from cold: no in-process or on-disk hints
        os.environ["REPRO_KERNEL_CACHE_DIR"] = os.path.join(
            ctx.workdir, f"kernels-{rep}")
        PROGRAM_CACHE.clear()
        nrows = max(8, round(NROWS * ctx.scale))
        t0 = time.perf_counter()
        with spans.span("workloads", "operands"):
            matrix = random_csr(nrows, NCOLS, nrows * NPR,
                                seed=sub_seed(ctx.seed, 1))
            x = random_dense_vector(NCOLS, seed=sub_seed(ctx.seed, 2))
            e11 = get_spec(E11_MATRIX).generate(seed=sub_seed(ctx.seed, 3),
                                                scale=E11_SCALE * ctx.scale)
            x11 = random_dense_vector(e11.ncols, seed=sub_seed(ctx.seed, 4))
        self.operand_gen_s = time.perf_counter() - t0
        runs = [(f"cc {v}{b}", "sim", "csrmv", matrix.nnz,
                 functools.partial(api.run, "csrmv", variant=v, index_bits=b,
                                   matrix=matrix, x=x))
                for v, b in SERIES]
        runs.append(("cluster issr16", "multicluster", "cluster_csrmv",
                     matrix.nnz,
                     functools.partial(api.run, "cluster_csrmv",
                                       variant="issr", index_bits=16,
                                       matrix=matrix, x=x)))
        runs.append((f"e11 {E11_CLUSTERS} clusters", "multicluster", None,
                     e11.nnz,
                     functools.partial(run_multicluster, e11, x11,
                                       n_clusters=E11_CLUSTERS,
                                       partitioner="row_block")))
        self.sims = []
        for name, layer, kernel, nnz, run in runs:
            # the compiled oracle also builds and lowers every program
            # the simulations execute
            with spans.span("backends", f"compiled {name}"):
                stats, y = run(backend="compiled")
            self.sims.append(Sim(name, layer, kernel, nnz,
                                 functools.partial(run, backend="cycle"),
                                 stats.cycles, np.asarray(y).tobytes()))

    def close(self):
        pass


def _verify(ctx, out, sim, stats, y):
    """Count one simulation: oracle bytes, tolerance, determinism."""
    from repro.backends import cycles_within_tolerance

    got = np.asarray(y).tobytes()
    if ctx.take_corruption():
        got = b"corrupted" + got
    problems = []
    if got != sim.ref_bytes:
        problems.append("result differs from the compiled backend")
    if sim.kernel is not None and not cycles_within_tolerance(
            sim.ref_cycles, stats.cycles, sim.kernel):
        problems.append(f"{stats.cycles} simulated cycles outside the "
                        f"tolerance of {sim.ref_cycles} predicted")
    if sim.cycles is None:
        sim.cycles = stats.cycles
    elif stats.cycles != sim.cycles:
        problems.append(f"cycles changed between runs: {sim.cycles} -> "
                        f"{stats.cycles}")
    out.op(not problems, f"{sim.name}: {'; '.join(problems)}")


def measure(ctx, state, out):
    """Whole rounds of every simulation until ``ctx.seconds`` passed.

    Returns simulated cycles per host second.
    """
    host = {sim.name: [] for sim in state.sims}
    first = {}
    rounds = 0
    start = time.perf_counter()
    while True:
        for sim in state.sims:
            with ctx.spans.span(sim.layer, f"cycle {sim.name}"):
                t0 = time.perf_counter()
                stats, y = sim.run()
                host[sim.name].append(time.perf_counter() - t0)
            first.setdefault(sim.name, stats)
            _verify(ctx, out, sim, stats, y)
            del stats, y
            # the engine's component graphs are cyclic: collect them
            # here, outside the timed region, so neither peak RSS nor
            # collector pauses depend on how many rounds fit
            gc.collect()
        rounds += 1
        if (rounds >= MIN_ROUNDS
                and time.perf_counter() - start >= ctx.seconds):
            break

    best = {name: min(times) for name, times in host.items()}
    total_s = sum(best.values())
    total_cycles = sum(sim.cycles for sim in state.sims)
    latencies = list(best.values())
    cc = [sim for sim in state.sims if sim.layer == "sim"]
    cluster, e11 = [sim for sim in state.sims if sim.layer == "multicluster"]
    cc_s = sum(best[sim.name] for sim in cc)
    cc_cycles = sum(sim.cycles for sim in cc)
    cluster_s, e11_s = best[cluster.name], best[e11.name]
    e11_stats = first[e11.name]

    out.set("mnnz_per_s", sum(sim.nnz for sim in state.sims) / total_s / 1e6)
    out.set("p50_ms", percentile(latencies, 50) * 1e3)
    out.set("p90_ms", percentile(latencies, 90) * 1e3)
    out.set("paper_err_pct", paper_error_pct([sim.cycles for sim in cc]))
    out.set("sim.cc_sim_cycles_per_s", cc_cycles / cc_s)
    out.set("sim.cc_host_s", cc_s)
    out.set("sim.cc_sim_cycles", cc_cycles)
    out.set("sim.fpu_util_issr16", first[cc[-1].name].fpu_utilization)
    out.set("sim.fpu_stall_stream",
            sum(first[sim.name].fpu_stall_stream for sim in cc))
    out.set("sim.core_stall_cycles",
            sum(first[sim.name].core_stall_cycles for sim in cc))
    out.set("multicluster.cluster_sim_cycles_per_s",
            (cluster.cycles + e11.cycles) / (cluster_s + e11_s))
    out.set("multicluster.cluster_host_s", cluster_s)
    out.set("multicluster.host_s", e11_s)
    out.set("multicluster.sim_cycles", e11.cycles)
    out.set("multicluster.dma_words", e11_stats.dma_words)
    out.set("multicluster.tcdm_conflicts", e11_stats.tcdm_conflicts)
    out.set("multicluster.model_vs_sim", e11.ref_cycles / e11.cycles)
    out.set("workloads.operand_gen_s", state.operand_gen_s)
    out.note(f"cycle: {rounds} rounds of {len(state.sims)} simulations; "
             f"cc {cc_cycles} cycles in {cc_s:.3f} s "
             f"({cc_cycles / cc_s:.0f} cycles/s); cluster+e11 "
             f"{cluster.cycles + e11.cycles} cycles in "
             f"{cluster_s + e11_s:.3f} s; e11 model/simulated cycles "
             f"{e11.ref_cycles}/{e11.cycles}")
    return total_cycles / total_s


def layers(ctx, state, out):
    """Every per-layer metric of this workload comes from :func:`measure`."""


def check(ctx, state, out):
    """Each simulation was checked as it completed (see :func:`_verify`)."""
