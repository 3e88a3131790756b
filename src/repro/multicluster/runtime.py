"""Cycle-accurate scale-out: N Snitch clusters stepped by one engine.

The scale-up of the paper's §IV-B cluster runtime: each shard of a
partitioned problem (:mod:`repro.multicluster.partition`) runs the
*unchanged* double-buffered :class:`~repro.cluster.runtime.ClusterCsrmv`
job on its own :class:`~repro.cluster.cluster.SnitchCluster`, but all
clusters share one :class:`~repro.sim.engine.Engine` (lockstep cycles),
one :class:`~repro.mem.mainmem.MainMemory` (the HBM-like backing
store), and one :class:`~repro.multicluster.hbm.HbmFabric` (aggregate
bandwidth arbitration). Tile planning and intra-cluster row
distribution are exactly the single-cluster ``plan_tiles`` /
``worker_shares`` paths, so a one-cluster run degenerates to the
existing single-cluster simulation.
"""

import numpy as np

from repro.cluster.runtime import ClusterCsrmv, ClusterStats, run_cluster_csrmv
from repro.kernels.common import check_reference
from repro.mem.dma import BEAT_WORDS
from repro.sim.counters import collect_cc_stats
from repro.sim.engine import Engine
from repro.multicluster.hbm import HbmConfig, HbmFabric


class MultiClusterStats(ClusterStats):
    """Aggregate counters plus per-cluster breakdown for one run."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.per_cluster = []
        self.scheme = None
        self.n_clusters = 0
        self.shard_nnz = []
        self.combine_cycles = 0
        self.hbm_words_denied = 0


def run_multicluster_cycle(partition, x, variant="issr", index_bits=16,
                           hbm=None, n_workers=8, tcdm_bytes=256 * 1024,
                           check=True, max_cycles=100_000_000,
                           watchdog=200000):
    """Simulate one partitioned CsrMV on N clusters, cycle by cycle.

    Returns ``(MultiClusterStats, y)`` where ``y`` is the combined
    global result. With a single shard — and an HBM config that could
    never throttle a lone cluster — this takes the existing
    single-cluster :func:`~repro.cluster.runtime.run_cluster_csrmv`
    path unchanged (no fabric, private engine); a narrowed HBM runs
    one cluster behind the fabric instead so bandwidth sweeps behave
    identically on both backends.
    """
    hbm = hbm if hbm is not None else HbmConfig()

    # A single cluster degenerates to the plain single-cluster path —
    # but only when the HBM config cannot throttle a lone cluster
    # (narrowed links/budgets must go through the fabric so the cycle
    # backend feels them just like the analytic model does).
    throttling = (hbm.cluster_words_per_cycle < BEAT_WORDS
                  or hbm.words_per_cycle < 2 * BEAT_WORDS)
    if partition.n_clusters == 1 and not throttling:
        from repro.cluster.cluster import SnitchCluster

        cluster = SnitchCluster(n_workers=n_workers, tcdm_bytes=tcdm_bytes,
                                watchdog=watchdog)
        cstats, part = run_cluster_csrmv(
            partition.shards[0].matrix, x, variant, index_bits,
            cluster=cluster, check=False, max_cycles=max_cycles)
        stats = _single_shard_stats(cstats, partition)
        y = partition.combine([part])
        if check:
            _check_result(partition, x, y, variant, index_bits)
        return stats, y

    from repro.cluster.cluster import SnitchCluster

    engine = Engine(watchdog=watchdog)
    fabric = HbmFabric(engine, hbm)
    engine.add(fabric)

    from repro.mem.mainmem import MainMemory

    mainmem = MainMemory()
    clusters = []
    jobs = []
    for shard in partition.shards:
        cl = SnitchCluster(n_workers=n_workers, tcdm_bytes=tcdm_bytes,
                           engine=engine, mainmem=mainmem,
                           name=f"cl{shard.cluster_id}")
        fabric.attach(cl.dma)
        clusters.append(cl)
        job = ClusterCsrmv(cl, shard.matrix, x, variant=variant,
                           index_bits=index_bits)
        jobs.append(job)
    # Control jobs tick before every hardware component (same contract
    # as the single-cluster runtime).
    for job in reversed(jobs):
        engine.add_front(job)
    for cl in clusters:
        cl.reset_stats()

    start = engine.cycle
    cycles = engine.run(lambda: all(j.done for j in jobs),
                        max_cycles=max_cycles)
    for job in jobs:
        engine.remove(job)

    stats = MultiClusterStats()
    stats.scheme = partition.scheme
    stats.n_clusters = partition.n_clusters
    stats.shard_nnz = partition.shard_nnz()
    stats.combine_cycles = partition.combine_cycles(hbm)
    stats.cycles = cycles + stats.combine_cycles
    stats.hbm_words_denied = fabric.words_denied
    for cl in clusters:
        cs = ClusterStats(cycles=cycles)
        for cc in cl.ccs:
            core = collect_cc_stats(cc, cycles, start_cycle=start)
            cs.per_core.append(core)
            for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                         "fpu_issued_ops", "mem_reads", "mem_writes",
                         "icache_misses"):
                setattr(cs, attr, getattr(cs, attr) + getattr(core, attr))
        cs.tcdm_conflicts = cl.tcdm.conflict_cycles
        cs.dma_words = cl.dma.words_moved
        cs.dma_busy_cycles = cl.dma.busy_cycles
        stats.per_cluster.append(cs)
        for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                     "fpu_issued_ops", "mem_reads", "mem_writes",
                     "icache_misses", "tcdm_conflicts", "dma_words",
                     "dma_busy_cycles"):
            setattr(stats, attr, getattr(stats, attr) + getattr(cs, attr))

    y = partition.combine([job.result() for job in jobs])
    if check:
        _check_result(partition, x, y, variant, index_bits)
    return stats, y


def _single_shard_stats(cstats, partition):
    """Wrap a single-cluster run's stats in the multi-cluster shape."""
    stats = MultiClusterStats()
    for attr in ("cycles", "retired", "fpu_compute_ops", "fpu_mac_ops",
                 "fpu_issued_ops", "mem_reads", "mem_writes",
                 "icache_misses", "tcdm_conflicts", "dma_words",
                 "dma_busy_cycles"):
        setattr(stats, attr, getattr(cstats, attr))
    stats.per_core = cstats.per_core
    stats.per_cluster = [cstats]
    stats.scheme = partition.scheme
    stats.n_clusters = 1
    stats.shard_nnz = partition.shard_nnz()
    stats.combine_cycles = 0
    return stats


def _check_result(partition, x, y, variant, index_bits):
    """Validate the combined result against the reference SpMV."""
    expect = np.zeros(partition.nrows, dtype=np.float64)
    for shard in partition.shards:
        if shard.nrows:
            expect[shard.rows] = shard.matrix.spmv(x)
    check_reference(y, expect, f"multicluster CsrMV {variant}/{index_bits}")
