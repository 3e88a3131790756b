"""Analytic scale-out model: per-cluster prediction, max over clusters.

The compiled-backend counterpart of :mod:`repro.multicluster.runtime`.
Each shard's cost is the single-cluster analytic model
(:func:`repro.backends.model.cluster_csrmv_stats` — itself validated
against the cycle-stepped simulator, §IV-B schedule) evaluated at the
*contended* DMA bandwidth from :meth:`HbmConfig.cluster_bandwidth`;
total time is the slowest cluster plus the partition's combine /
synchronization cost. Functional results reuse the compiled backend's
bit-identical per-row accumulation replay, scattered through the
partition's combine plan, so compiled and cycle multi-cluster runs
return byte-equal results.
"""

import math

import numpy as np

from repro.backends.model import (
    _dma_cycles,
    cluster_csrmv_stats,
    csrmm_stats,
    overlap_schedule_cycles,
    spgemm_stats,
)
from repro.cluster.runtime import (
    WORKER_START_STAGGER,
    ClusterStats,
    plan_tiles,
    tile_words,
    worker_shares,
)
from repro.multicluster.hbm import HbmConfig
from repro.multicluster.runtime import MultiClusterStats
from repro.sim.counters import LaneStats, RunStats


def _functional_backend(spec):
    """Resolve the functional-replay backend for the ``*_fast`` paths.

    Accepts ``None`` (→ compiled), a name, or a Backend instance; the
    cycle backend is rejected — these paths replay functionally and
    compose analytic shard models, they never step the simulator.
    """
    from repro.backends import get_backend
    from repro.errors import ConfigError

    backend = get_backend("compiled" if spec is None else spec)
    if backend.name == "cycle":
        raise ConfigError(
            "the multicluster fast paths replay functionally; use "
            "backend='compiled' (or run_multicluster with "
            "backend='cycle' for the stepped simulation)")
    return backend


def multicluster_csrmv_stats(partition, variant, index_bits, hbm=None,
                             n_workers=8, tcdm_words=256 * 1024 // 8):
    """Predicted :class:`MultiClusterStats` for a partitioned CsrMV.

    Every *active* shard (nonzeros > 0) is charged the single-cluster
    model at the fair-share HBM bandwidth; the run completes when the
    slowest cluster does, plus the combine cost. A single-shard
    partition reduces exactly to the single-cluster model (full
    bandwidth, zero combine cost).
    """
    hbm = hbm if hbm is not None else HbmConfig()
    n_active = max(partition.n_active, 1)
    wpc = hbm.cluster_bandwidth(n_active)

    stats = MultiClusterStats()
    stats.scheme = partition.scheme
    stats.n_clusters = partition.n_clusters
    stats.shard_nnz = partition.shard_nnz()
    stats.combine_cycles = partition.combine_cycles(hbm)

    worst = 0
    for shard in partition.shards:
        cs = cluster_csrmv_stats(shard.matrix, variant, index_bits,
                                 n_workers=n_workers,
                                 tcdm_words=tcdm_words,
                                 dma_words_per_cycle=wpc)
        stats.per_cluster.append(cs)
        worst = max(worst, cs.cycles)
        for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                     "fpu_issued_ops", "mem_reads", "mem_writes",
                     "icache_misses", "tcdm_conflicts", "dma_words",
                     "dma_busy_cycles"):
            setattr(stats, attr, getattr(stats, attr) + getattr(cs, attr))
        for core in cs.per_core:
            stats.per_core.append(core)
        for name, lane in getattr(cs, "lanes", {}).items():
            agg = stats.lanes.setdefault(name, LaneStats())
            agg.elements_read += lane.elements_read
            agg.mem_reads += lane.mem_reads
            agg.idx_reads += lane.idx_reads

    stats.cycles = worst + stats.combine_cycles
    for cs in stats.per_cluster:
        cs.cycles = stats.cycles
        for core in cs.per_core:
            core.cycles = stats.cycles
    return stats


def cluster_csrmm_stats(matrix, k, variant, index_bits, n_workers=8,
                        tcdm_words=256 * 1024 // 8,
                        dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` for one cluster's CsrMM shard.

    The CsrMM analogue of
    :func:`repro.backends.model.cluster_csrmv_stats`: the same
    double-buffered tile schedule (``plan_tiles`` over the matrix, the
    dense operand ``B`` resident like ``x``), with each worker's tile
    share costed by the single-CC CsrMM model (the §III-B kernel:
    the CsrMV row loop repeated per dense column) and the result
    writeback carrying ``k`` words per row. Coarser than the CsrMV
    model — there is no cycle-level cluster CsrMM runtime to calibrate
    against — but structurally consistent with it.
    """
    idx_bytes = index_bits // 8
    lengths = matrix.row_lengths()
    ptr = matrix.ptr
    tiles = plan_tiles(ptr, matrix.nrows, idx_bytes, tcdm_words,
                       matrix.ncols * k)
    per_core = [RunStats() for _ in range(n_workers)]
    compute_cycles = []
    prefetch_cycles = []
    dma_words = max(matrix.ncols * k, 1)  # the resident B transfer
    for (r0, r1) in tiles:
        words = tile_words(ptr, r0, r1, idx_bytes) - (r1 - r0)
        dma_words += words + (r1 - r0) * k
        prefetch_cycles.append(
            _dma_cycles(words, n_transfers=3,
                        words_per_cycle=dma_words_per_cycle))
        worst = 0
        for w, (w0, w1) in enumerate(worker_shares(r0, r1, n_workers)):
            if w1 == w0:
                continue
            share = csrmm_stats(lengths[w0:w1], k, variant, index_bits)
            for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                         "fpu_issued_ops", "mem_reads", "mem_writes"):
                setattr(per_core[w], attr,
                        getattr(per_core[w], attr) + getattr(share, attr))
            worst = max(worst, share.cycles + WORKER_START_STAGGER * w)
        compute_cycles.append(worst)

    total = overlap_schedule_cycles(
        prefetch_cycles, compute_cycles,
        _dma_cycles(max(matrix.ncols * k, 1),
                    words_per_cycle=dma_words_per_cycle),
        _dma_cycles((tiles[-1][1] - tiles[-1][0]) * k,
                    words_per_cycle=dma_words_per_cycle) if tiles else 0)

    stats = ClusterStats(cycles=total)
    for core in per_core:
        core.cycles = total
        stats.per_core.append(core)
        for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                     "fpu_issued_ops", "mem_reads", "mem_writes"):
            setattr(stats, attr, getattr(stats, attr) + getattr(core, attr))
    stats.dma_words = dma_words
    stats.dma_busy_cycles = min(
        total, math.ceil(dma_words / dma_words_per_cycle))
    return stats


def multicluster_csrmm_stats(partition, k, variant, index_bits, hbm=None,
                             n_workers=8, tcdm_words=256 * 1024 // 8):
    """Predicted :class:`MultiClusterStats` for a partitioned CsrMM."""
    hbm = hbm if hbm is not None else HbmConfig()
    n_active = max(partition.n_active, 1)
    wpc = hbm.cluster_bandwidth(n_active)

    stats = MultiClusterStats()
    stats.scheme = partition.scheme
    stats.n_clusters = partition.n_clusters
    stats.shard_nnz = partition.shard_nnz()
    stats.combine_cycles = partition.combine_cycles(
        hbm, result_words=partition.nrows * k)

    worst = 0
    for shard in partition.shards:
        cs = cluster_csrmm_stats(shard.matrix, k, variant, index_bits,
                                 n_workers=n_workers,
                                 tcdm_words=tcdm_words,
                                 dma_words_per_cycle=wpc)
        stats.per_cluster.append(cs)
        worst = max(worst, cs.cycles)
        for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                     "fpu_issued_ops", "mem_reads", "mem_writes",
                     "dma_words", "dma_busy_cycles"):
            setattr(stats, attr, getattr(stats, attr) + getattr(cs, attr))
        stats.per_core.extend(cs.per_core)
    stats.cycles = worst + stats.combine_cycles
    for cs in stats.per_cluster:
        cs.cycles = stats.cycles
        for core in cs.per_core:
            core.cycles = stats.cycles
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

    The same double-buffered skeleton as the CsrMV/CsrMM models: B's
    full CSR plus the dense accumulator stay resident (the broadcast
    operand), A-row tiles stream through the double buffer, and the
    writeback carries the tile's output pattern (values + indices).
    Coarser than the CsrMV model — like CsrMM, there is no cycle-level
    cluster SpGEMM runtime to calibrate against — but structurally
    consistent with it.
    """
    idx_bytes = index_bits // 8
    resident = (b.nnz + (b.nnz * idx_bytes + 7) // 8
                + ((b.nrows + 1) * 4 + 7) // 8 + b.ncols)
    tiles = plan_tiles(a.ptr, a.nrows, idx_bytes, tcdm_words, resident)
    feats = _spgemm_row_features(a, b, pattern_ptr)
    out_nnz = feats[0]

    per_core = [RunStats() for _ in range(n_workers)]
    compute_cycles = []
    prefetch_cycles = []
    dma_words = max(resident, 1)  # the initial B broadcast
    for (r0, r1) in tiles:
        words = tile_words(a.ptr, r0, r1, idx_bytes) - (r1 - r0)
        tile_out = int(out_nnz[r0:r1].sum())
        out_words = tile_out + (tile_out * idx_bytes + 7) // 8
        dma_words += words + out_words
        prefetch_cycles.append(
            _dma_cycles(words, n_transfers=3,
                        words_per_cycle=dma_words_per_cycle))
        worst = 0
        for w, (w0, w1) in enumerate(worker_shares(r0, r1, n_workers)):
            if w1 == w0:
                continue
            share = _share_spgemm_stats(feats, w0, w1, variant, index_bits)
            for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                         "fpu_issued_ops", "mem_reads", "mem_writes"):
                setattr(per_core[w], attr,
                        getattr(per_core[w], attr) + getattr(share, attr))
            worst = max(worst, share.cycles + WORKER_START_STAGGER * w)
        compute_cycles.append(worst)

    final_out = int(out_nnz[tiles[-1][0]:tiles[-1][1]].sum()) if tiles else 0
    total = overlap_schedule_cycles(
        prefetch_cycles, compute_cycles,
        _dma_cycles(max(resident, 1), words_per_cycle=dma_words_per_cycle),
        _dma_cycles(final_out + (final_out * idx_bytes + 7) // 8,
                    words_per_cycle=dma_words_per_cycle) if tiles else 0)

    stats = ClusterStats(cycles=total)
    for core in per_core:
        core.cycles = total
        stats.per_core.append(core)
        for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                     "fpu_issued_ops", "mem_reads", "mem_writes"):
            setattr(stats, attr, getattr(stats, attr) + getattr(core, attr))
    stats.dma_words = dma_words
    stats.dma_busy_cycles = min(
        total, math.ceil(dma_words / dma_words_per_cycle))
    return stats


def multicluster_spgemm_stats(partition, b, pattern_ptrs, variant,
                              index_bits, hbm=None, n_workers=8,
                              tcdm_words=256 * 1024 // 8):
    """Predicted :class:`MultiClusterStats` for a partitioned SpGEMM.

    ``pattern_ptrs`` holds each shard's symbolic-phase row pointer
    (computed once by the fast path and shared with the per-shard
    functional replay). B is broadcast to every cluster through the
    shared HBM; the combine is the pure row scatter of
    :meth:`~repro.multicluster.partition.Partition.combine_sparse`.
    """
    hbm = hbm if hbm is not None else HbmConfig()
    n_active = max(partition.n_active, 1)
    wpc = hbm.cluster_bandwidth(n_active)

    stats = MultiClusterStats()
    stats.scheme = partition.scheme
    stats.n_clusters = partition.n_clusters
    stats.shard_nnz = partition.shard_nnz()
    out_words = sum(int(p[-1]) for p in pattern_ptrs)
    stats.combine_cycles = partition.combine_cycles(
        hbm, result_words=out_words)

    worst = 0
    for shard, pptr in zip(partition.shards, pattern_ptrs):
        cs = cluster_spgemm_stats(shard.matrix, b, pptr, variant,
                                  index_bits, n_workers=n_workers,
                                  tcdm_words=tcdm_words,
                                  dma_words_per_cycle=wpc)
        stats.per_cluster.append(cs)
        worst = max(worst, cs.cycles)
        for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                     "fpu_issued_ops", "mem_reads", "mem_writes",
                     "dma_words", "dma_busy_cycles"):
            setattr(stats, attr, getattr(stats, attr) + getattr(cs, attr))
        stats.per_core.extend(cs.per_core)
    stats.cycles = worst + stats.combine_cycles
    for cs in stats.per_cluster:
        cs.cycles = stats.cycles
        for core in cs.per_core:
            core.cycles = stats.cycles
    return stats


def multicluster_spgemm_fast(partition, b, variant, index_bits, hbm=None,
                             n_workers=8, tcdm_words=256 * 1024 // 8,
                             backend=None):
    """Functional + analytic fast SpGEMM path; returns ``(stats, C)``.

    Each shard replays the single-CC Gustavson order through the
    compiled backend and the rows scatter back losslessly, so the combined
    CSR equals a single-cluster run bit for bit.
    """
    from repro.formats.builder import spgemm_pattern

    backend = _functional_backend(backend)
    parts = []
    pattern_ptrs = []
    for shard in partition.shards:
        pattern = spgemm_pattern(shard.matrix, b)
        pattern_ptrs.append(pattern[0])
        if shard.nrows:
            _stats, part = backend.run(
                "spgemm", variant=variant, index_bits=index_bits,
                a=shard.matrix, b=b, pattern=pattern)
        else:
            from repro.formats.csr import CsrMatrix

            part = CsrMatrix(np.zeros(1, np.int64), [], [], (0, b.ncols))
        parts.append(part)
    c = partition.combine_sparse(parts, b.ncols)
    stats = multicluster_spgemm_stats(partition, b, pattern_ptrs, variant,
                                      index_bits, hbm=hbm,
                                      n_workers=n_workers,
                                      tcdm_words=tcdm_words)
    return stats, c


def multicluster_csrmv_fast(partition, x, variant, index_bits, hbm=None,
                            n_workers=8, tcdm_words=256 * 1024 // 8,
                            backend=None):
    """Functional + analytic fast path; returns ``(stats, y)``.

    The numerical result replays each shard through the compiled
    backend's exact accumulation-order model and scatters
    rows via the combine plan — bit-identical to the cycle-stepped
    multi-cluster run.
    """
    backend = _functional_backend(backend)
    parts = []
    for shard in partition.shards:
        if shard.nrows:
            _stats, part = backend.run("csrmv", variant=variant,
                                       index_bits=index_bits,
                                       matrix=shard.matrix, x=x)
        else:
            part = np.zeros(0, dtype=np.float64)
        parts.append(part)
    y = partition.combine(parts)
    stats = multicluster_csrmv_stats(partition, variant, index_bits,
                                     hbm=hbm, n_workers=n_workers,
                                     tcdm_words=tcdm_words)
    return stats, y


def multicluster_csrmm_fast(partition, dense, variant, index_bits, hbm=None,
                            n_workers=8, tcdm_words=256 * 1024 // 8,
                            backend=None):
    """Functional + analytic fast CsrMM path; returns ``(stats, C)``."""
    backend = _functional_backend(backend)
    k = dense.shape[1]
    parts = []
    for shard in partition.shards:
        if shard.nrows:
            _stats, part = backend.run("csrmm", variant=variant,
                                       index_bits=index_bits,
                                       matrix=shard.matrix, dense=dense)
        else:
            part = np.zeros((0, k), dtype=np.float64)
        parts.append(part)
    out = partition.combine(parts)
    stats = multicluster_csrmm_stats(partition, k, variant, index_bits,
                                     hbm=hbm, n_workers=n_workers,
                                     tcdm_words=tcdm_words)
    return stats, out
