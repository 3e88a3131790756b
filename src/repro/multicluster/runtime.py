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

from repro.cluster.runtime import (
    ClusterCsrmv,
    ClusterStats,
    add_counters,
    collect_cluster_stats,
    run_cluster_csrmv,
)
from repro.kernels.common import check_reference
from repro.mem.dma import BEAT_WORDS
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
    from repro.cluster.cluster import SnitchCluster
    from repro.mem.mainmem import MainMemory

    hbm = hbm if hbm is not None else HbmConfig()

    # A single cluster degenerates to the plain single-cluster path —
    # but only when the HBM config cannot throttle a lone cluster
    # (narrowed links/budgets must go through the fabric so the cycle
    # backend feels them just like the analytic model does).
    throttling = (hbm.cluster_words_per_cycle < BEAT_WORDS
                  or hbm.words_per_cycle < 2 * BEAT_WORDS)
    if partition.n_clusters == 1 and not throttling:
        cluster = SnitchCluster(n_workers=n_workers, tcdm_bytes=tcdm_bytes,
                                watchdog=watchdog)
        cstats, part = run_cluster_csrmv(
            partition.shards[0].matrix, x, variant, index_bits,
            cluster=cluster, check=False, max_cycles=max_cycles)
        cycles, per_cluster, parts = cstats.cycles, [cstats], [part]
        per_core, denied = cstats.per_core, 0
    else:
        engine = Engine(watchdog=watchdog)
        fabric = HbmFabric(engine, hbm)
        engine.add(fabric)
        mainmem = MainMemory()
        clusters = []
        jobs = []
        for shard in partition.shards:
            cl = SnitchCluster(n_workers=n_workers, tcdm_bytes=tcdm_bytes,
                               engine=engine, mainmem=mainmem,
                               name=f"cl{shard.cluster_id}")
            fabric.attach(cl.dma)
            clusters.append(cl)
            jobs.append(ClusterCsrmv(cl, shard.matrix, x, variant=variant,
                                     index_bits=index_bits))
        # Control jobs tick before every hardware component (same
        # contract as the single-cluster runtime).
        for job in reversed(jobs):
            engine.add_front(job)
        for cl in clusters:
            cl.reset_stats()

        start = engine.cycle
        cycles = engine.run(lambda: all(j.done for j in jobs),
                            max_cycles=max_cycles)
        for job in jobs:
            engine.remove(job)
        per_cluster = [collect_cluster_stats(cl, cycles, start)
                       for cl in clusters]
        parts = [job.result() for job in jobs]
        per_core, denied = [], fabric.words_denied

    stats = add_counters(MultiClusterStats(per_core=per_core), per_cluster)
    stats.per_cluster = per_cluster
    stats.scheme = partition.scheme
    stats.n_clusters = partition.n_clusters
    stats.shard_nnz = partition.shard_nnz()
    stats.combine_cycles = partition.combine_cycles(hbm)
    stats.cycles = cycles + stats.combine_cycles
    stats.hbm_words_denied = denied
    y = partition.combine(parts)
    if check:
        _check_result(partition, x, y, variant, index_bits)
    return stats, y


def _check_result(partition, x, y, variant, index_bits):
    """Validate the combined result against the reference SpMV."""
    expect = np.zeros(partition.nrows, dtype=np.float64)
    for shard in partition.shards:
        if shard.nrows:
            expect[shard.rows] = shard.matrix.spmv(x)
    check_reference(y, expect, f"multicluster CsrMV {variant}/{index_bits}")
