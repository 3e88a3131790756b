"""Analytic scale-out model: per-cluster prediction, max over clusters.

The compiled-backend counterpart of :mod:`repro.multicluster.runtime`.
Each shard's cost is a single-cluster model on §IV-B's double-buffered
schedule (:func:`repro.backends.model.cluster_schedule`, validated
against the cycle-stepped simulator through its CsrMV model), evaluated
at the *contended* DMA bandwidth from
:meth:`HbmConfig.cluster_bandwidth`; :func:`scale_out_stats` charges
that bandwidth share in one place for every kernel, prices every shard
in one pass of the schedule, and totals the run as the slowest cluster
plus the partition's combine / synchronization cost. CsrMM and SpGEMM
have no cycle-level cluster runtime to calibrate against, so their
cluster models below are the same schedule with the kernel's single-CC
share pricing.
"""

import numpy as np

from repro.backends.model import (
    cluster_schedule,
    csrmm_share_costs,
    csrmv_row_terms,
    spgemm_row_terms,
    spgemm_share_costs,
)
from repro.cluster.runtime import add_counters
from repro.multicluster.runtime import MultiClusterStats


def scale_out_stats(partition, shards_model, hbm, result_words):
    """Predicted :class:`MultiClusterStats` for a partitioned run.

    ``shards_model`` prices every shard of ``partition`` in one call,
    ``shards_model(dma_words_per_cycle=...)``, and returns one
    single-cluster :class:`ClusterStats` per shard. Every shard is
    charged the fair share of ``hbm`` among the *active* shards
    (nonzeros > 0) for its whole run; the run completes when the
    slowest cluster does, plus the combine cost of ``result_words``
    (None: one per result row). A single-shard partition reduces
    exactly to the single-cluster model (full bandwidth, zero combine
    cost).
    """
    wpc = hbm.cluster_bandwidth(max(partition.n_active, 1))
    stats = MultiClusterStats()
    stats.scheme = partition.scheme
    stats.n_clusters = partition.n_clusters
    stats.shard_nnz = partition.shard_nnz()
    stats.combine_cycles = partition.combine_cycles(
        hbm, result_words=result_words)
    stats.per_cluster = shards_model(dma_words_per_cycle=wpc)
    add_counters(stats, stats.per_cluster)
    for cs in stats.per_cluster:
        stats.per_core.extend(cs.per_core)
    stats.cycles = max((cs.cycles for cs in stats.per_cluster), default=0) \
        + stats.combine_cycles
    for cs in stats.per_cluster:
        cs.cycles = stats.cycles
        for core in cs.per_core:
            core.cycles = stats.cycles
    return stats


def cluster_csrmm_shards(ptr, bounds, ncols, k, variant, index_bits,
                         n_workers=8, tcdm_words=256 * 1024 // 8,
                         dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` of CsrMM shards, one per shard.

    :func:`~repro.backends.model.cluster_schedule` over the row pointer
    ``ptr`` and shard ``bounds``, with the dense operand ``B``
    (``ncols * k`` words) resident like ``x`` and ``k`` result words
    per row written back; each worker's share costs the single-CC
    CsrMM model (the §III-B kernel: the CsrMV row loop repeated per
    dense column).
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    stats, _, _ = cluster_schedule(
        ptr, bounds, csrmv_row_terms(ptr[1:] - ptr[:-1], variant,
                                     index_bits),
        lambda sums, _shard: csrmm_share_costs(sums, k, variant,
                                               index_bits),
        lambda sums: sums[1] * k, index_bits // 8, ncols * k, n_workers,
        tcdm_words, dma_words_per_cycle)
    return stats


def cluster_csrmm_stats(matrix, k, variant, index_bits, n_workers=8,
                        tcdm_words=256 * 1024 // 8,
                        dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` for one cluster's CsrMM shard.

    The one-shard case of :func:`cluster_csrmm_shards`.
    """
    return cluster_csrmm_shards(
        matrix.ptr, (0, matrix.nrows), matrix.ncols, k, variant,
        index_bits, n_workers, tcdm_words, dma_words_per_cycle)[0]


def cluster_spgemm_shards(ptr, terms, bounds, b, variant, index_bits,
                          n_workers=8, tcdm_words=256 * 1024 // 8,
                          dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` of SpGEMM shards, one per shard.

    :func:`~repro.backends.model.cluster_schedule` over A's row
    pointer ``ptr`` and shard ``bounds``, with B's full CSR plus the dense
    accumulator resident (the broadcast operand) and A-row tiles
    streaming through the double buffer. ``terms`` holds A's
    :func:`~repro.backends.model.spgemm_row_terms` in the same row
    order; a tile writes back its output pattern (values + indices).
    """
    idx_bytes = index_bits // 8
    resident = (b.nnz + (b.nnz * idx_bytes + 7) // 8
                + ((b.nrows + 1) * 4 + 7) // 8 + b.ncols)
    stats, _, _ = cluster_schedule(
        ptr, bounds, terms,
        lambda sums, _shard: spgemm_share_costs(sums, variant, index_bits),
        lambda sums: sums[2] + (sums[2] * idx_bytes + 7) // 8, idx_bytes,
        resident, n_workers, tcdm_words, dma_words_per_cycle)
    return stats


def cluster_spgemm_stats(a, b, pattern_ptr, variant, index_bits,
                         n_workers=8, tcdm_words=256 * 1024 // 8,
                         dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` for one cluster's SpGEMM shard.

    The one-shard case of :func:`cluster_spgemm_shards`; its terms
    read the output pattern from the symbolic phase's row pointer
    ``pattern_ptr``.
    """
    return cluster_spgemm_shards(
        a.ptr, spgemm_row_terms(a, b, pattern_ptr),
        (0, a.nrows), b, variant, index_bits, n_workers, tcdm_words,
        dma_words_per_cycle)[0]
