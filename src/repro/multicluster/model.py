"""Analytic scale-out model: per-cluster prediction, max over clusters.

The compiled-backend counterpart of :mod:`repro.multicluster.runtime`.
Each shard's cost is a single-cluster model on §IV-B's double-buffered
schedule (:func:`repro.backends.model.cluster_schedule`, validated
against the cycle-stepped simulator through its CsrMV model), evaluated
at the *contended* DMA bandwidth from
:meth:`HbmConfig.cluster_bandwidth`; :func:`scale_out_stats` charges
that bandwidth share in one place for every kernel, and totals the run
as the slowest cluster plus the partition's combine /
synchronization cost. CsrMM and SpGEMM have no cycle-level cluster
runtime to calibrate against, so their cluster models below are the
same schedule with the kernel's single-CC model per worker share.
"""

import numpy as np

from repro.backends.model import (
    CORE_COUNTERS,
    cluster_schedule,
    csrmm_stats,
    spgemm_stats,
)
from repro.multicluster.runtime import MultiClusterStats

#: Counters a cluster prediction adds to the scale-out total.
CLUSTER_COUNTERS = CORE_COUNTERS + ("icache_misses", "tcdm_conflicts",
                                    "dma_words", "dma_busy_cycles")


def scale_out_stats(partition, shard_models, hbm, result_words):
    """Predicted :class:`MultiClusterStats` for a partitioned run.

    ``shard_models`` holds one single-cluster model per shard of
    ``partition``, called with the DMA bandwidth as
    ``model(dma_words_per_cycle=...)``. Every shard is charged the
    fair share of ``hbm`` among the *active* shards (nonzeros > 0)
    for its whole run; the run completes when the slowest cluster
    does, plus the combine cost of ``result_words`` (None: one per
    result row). A single-shard partition reduces exactly to the
    single-cluster model (full bandwidth, zero combine cost).
    """
    wpc = hbm.cluster_bandwidth(max(partition.n_active, 1))
    stats = MultiClusterStats()
    stats.scheme = partition.scheme
    stats.n_clusters = partition.n_clusters
    stats.shard_nnz = partition.shard_nnz()
    stats.combine_cycles = partition.combine_cycles(
        hbm, result_words=result_words)
    for model in shard_models:
        cs = model(dma_words_per_cycle=wpc)
        stats.per_cluster.append(cs)
        for attr in CLUSTER_COUNTERS:
            setattr(stats, attr, getattr(stats, attr) + getattr(cs, attr))
        stats.per_core.extend(cs.per_core)
    stats.cycles = max((cs.cycles for cs in stats.per_cluster), default=0) \
        + stats.combine_cycles
    for cs in stats.per_cluster:
        cs.cycles = stats.cycles
        for core in cs.per_core:
            core.cycles = stats.cycles
    return stats


def cluster_csrmm_stats(matrix, k, variant, index_bits, n_workers=8,
                        tcdm_words=256 * 1024 // 8,
                        dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` for one cluster's CsrMM shard.

    :func:`~repro.backends.model.cluster_schedule` with the dense
    operand ``B`` resident like ``x`` and ``k`` result words per row
    written back; each worker's share costs the single-CC CsrMM model
    (the §III-B kernel: the CsrMV row loop repeated per dense column).
    """
    lengths = matrix.row_lengths()
    stats, _ = cluster_schedule(
        matrix.ptr, index_bits // 8, matrix.ncols * k,
        lambda r0, r1: (r1 - r0) * k,
        lambda w0, w1: csrmm_stats(lengths[w0:w1], k, variant, index_bits),
        n_workers, tcdm_words, dma_words_per_cycle)
    return stats


def _spgemm_row_features(a, b, pattern_ptr):
    """Per-row SpGEMM work features of shard ``a`` against resident ``b``.

    Returns (pattern_nnz, a_len, b_visits, flops) int arrays, one entry
    per row of ``a`` — the inputs the per-worker share costs need.
    """
    out_nnz = np.diff(pattern_ptr)
    a_len = a.row_lengths()
    b_lens = b.row_lengths()
    b_visits = np.zeros(a.nrows, dtype=np.int64)
    flops = np.zeros(a.nrows, dtype=np.int64)
    if a.nnz:
        rows = np.repeat(np.arange(a.nrows), a_len)
        per_nnz = b_lens[a.idcs]
        np.add.at(flops, rows, per_nnz)
        np.add.at(b_visits, rows, (per_nnz > 0).astype(np.int64))
    return out_nnz, a_len, b_visits, flops


def _share_spgemm_stats(feats, w0, w1, variant, index_bits):
    """Single-CC SpGEMM model stats for rows [w0, w1) of a shard."""
    out_nnz, a_len, b_visits, flops = feats
    z = out_nnz[w0:w1]
    mask = z > 0
    n_pattern = int(np.count_nonzero(mask))
    return spgemm_stats(n_pattern, (w1 - w0) - n_pattern, int(z.sum()),
                        int(a_len[w0:w1][mask].sum()),
                        int(b_visits[w0:w1][mask].sum()),
                        int(flops[w0:w1][mask].sum()),
                        variant, index_bits)


def cluster_spgemm_stats(a, b, pattern_ptr, variant, index_bits,
                         n_workers=8, tcdm_words=256 * 1024 // 8,
                         dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` for one cluster's SpGEMM shard.

    :func:`~repro.backends.model.cluster_schedule` with B's full CSR
    plus the dense accumulator resident (the broadcast operand) and
    A-row tiles streaming through the double buffer; a tile writes
    back its output pattern (values + indices), read from the shard's
    symbolic-phase row pointer ``pattern_ptr``.
    """
    idx_bytes = index_bits // 8
    resident = (b.nnz + (b.nnz * idx_bytes + 7) // 8
                + ((b.nrows + 1) * 4 + 7) // 8 + b.ncols)
    feats = _spgemm_row_features(a, b, pattern_ptr)

    def writeback_words(r0, r1):
        out = int(feats[0][r0:r1].sum())
        return out + (out * idx_bytes + 7) // 8

    stats, _ = cluster_schedule(
        a.ptr, idx_bytes, resident, writeback_words,
        lambda w0, w1: _share_spgemm_stats(feats, w0, w1, variant,
                                           index_bits),
        n_workers, tcdm_words, dma_words_per_cycle)
    return stats
