"""One-pass cluster pricing, held exactly to the per-share loop (§IV-B).

``repro.backends.model.cluster_schedule`` prices every (tile, worker)
share of every shard in one vectorized pass. The reference below keeps
the loop that pass replaced: one single-CC model call per share, its
counters and lanes merged into its core, each tile's slowest share plus
its start stagger, and one cluster model per shard at the contended HBM
bandwidth. Every ``RunStats`` field of the prediction, of each
``per_cluster`` entry and of each ``per_core`` entry (lanes included)
must be equal, on fixed cases and on derandomized hypothesis draws:

- CsrMV, CsrMM (k = 1 and 4) and SpGEMM in the paper's four series;
- 1, 3 and 8 workers; TCDMs from one tile to dozens;
- 8, 2.5 and 0.37 DMA words per cycle;
- ``run_multicluster`` at 1, 7 and 32 clusters under every
  partitioner.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.model import (
    _conflict_factor,
    cluster_csrmv_stats,
    csrmm_stats,
    csrmv_stats,
    spgemm_stats,
)
from repro.cluster.runtime import (
    BARRIER_CYCLES,
    WORKER_START_STAGGER,
    ClusterStats,
    plan_tiles,
)
from repro.formats.builder import spgemm_pattern
from repro.formats.csr import CsrMatrix
from repro.multicluster import (
    PARTITIONER_NAMES,
    HbmConfig,
    fibers_to_csr,
    get_partitioner,
    run_multicluster,
)
from repro.multicluster.model import cluster_csrmm_stats, cluster_spgemm_stats
from repro.multicluster.runtime import MultiClusterStats
from repro.sim.counters import LaneStats, RunStats
from repro.workloads import (
    random_csr,
    random_dense_matrix,
    random_dense_vector,
    random_sparse_vector,
)

SERIES = (("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16))
WORKERS = (1, 3, 8)
BANDWIDTHS = (8.0, 2.5, 0.37)
#: The counters a share adds to its core, and a core to its cluster.
CORE = ("retired", "fpu_compute_ops", "fpu_mac_ops", "fpu_issued_ops",
        "mem_reads", "mem_writes")
#: Every scalar ``RunStats`` field.
FIELDS = tuple(f.name for f in dataclasses.fields(RunStats)
               if f.type is int)


# -- the reference: one single-CC model per share ---------------------------

def _worker_shares(r0, r1, n_workers):
    """Block row distribution, one worker at a time."""
    base, rem = divmod(r1 - r0, n_workers)
    shares, lo = [], r0
    for w in range(n_workers):
        cnt = base + (1 if w < rem else 0)
        shares.append((lo, lo + cnt))
        lo += cnt
    return shares


def _tile_words(ptr, r0, r1, idx_bytes):
    nnz = int(ptr[r1] - ptr[r0])
    return (nnz + (nnz * idx_bytes + 15) // 8
            + ((r1 - r0 + 1) * 4 + 15) // 8 + (r1 - r0))


def _dma(words, n_transfers, wpc):
    return math.ceil(words / wpc) + 2 * n_transfers


def reference_schedule(ptr, idx_bytes, resident, writeback, share_stats,
                       n_workers, tcdm_words, wpc):
    """The per-share loop: ``(ClusterStats, compute cycles per tile)``."""
    tiles = plan_tiles(ptr, len(ptr) - 1, idx_bytes, tcdm_words, resident)
    cores = [RunStats() for _ in range(n_workers)]
    compute, prefetch = [], []
    dma_words = max(resident, 1)
    for r0, r1 in tiles:
        words = _tile_words(ptr, r0, r1, idx_bytes) - (r1 - r0)
        dma_words += words + writeback(r0, r1)
        prefetch.append(_dma(words, 3, wpc))
        worst = 0
        for w, (w0, w1) in enumerate(_worker_shares(r0, r1, n_workers)):
            if w1 == w0:
                continue
            share = share_stats(w0, w1)
            for attr in CORE:
                setattr(cores[w], attr,
                        getattr(cores[w], attr) + getattr(share, attr))
            for name, lane in share.lanes.items():
                agg = cores[w].lanes.setdefault(name, LaneStats())
                for f in ("elements_read", "elements_written", "mem_reads",
                          "mem_writes", "idx_reads"):
                    setattr(agg, f, getattr(agg, f) + getattr(lane, f))
            worst = max(worst, share.cycles + WORKER_START_STAGGER * w)
        compute.append(worst)
    total = _dma(max(resident, 1), 1, wpc)
    if tiles:
        following = prefetch[1:] + [0]
        total += (prefetch[0]
                  + sum(max(c, p) for c, p in zip(compute, following))
                  + BARRIER_CYCLES * len(tiles)
                  + _dma(writeback(*tiles[-1]), 1, wpc))
    stats = ClusterStats(cycles=total)
    for core in cores:
        core.cycles = total
        stats.per_core.append(core)
        for attr in CORE:
            setattr(stats, attr, getattr(stats, attr) + getattr(core, attr))
    stats.dma_words = dma_words
    stats.dma_busy_cycles = min(total, math.ceil(dma_words / wpc))
    return stats, compute


def reference_csrmv(matrix, variant, bits, n_workers=8,
                    tcdm_words=256 * 1024 // 8, wpc=8.0):
    lengths = matrix.row_lengths()
    conflict = _conflict_factor(variant, matrix.nnz, matrix.nrows)

    def share_stats(w0, w1):
        share = csrmv_stats(lengths[w0:w1], variant, bits)
        share.cycles = int(share.cycles * conflict)
        return share

    stats, compute = reference_schedule(
        matrix.ptr, bits // 8, matrix.ncols, lambda r0, r1: r1 - r0,
        share_stats, n_workers, tcdm_words, wpc)
    stats.tcdm_conflicts = int((conflict - 1.0) * sum(compute)
                               * max(n_workers, 1))
    stats.icache_misses = 8 * n_workers + 2 * max(len(compute) - 1, 0)
    return stats


def reference_csrmm(matrix, k, variant, bits, n_workers=8,
                    tcdm_words=256 * 1024 // 8, wpc=8.0):
    lengths = matrix.row_lengths()
    return reference_schedule(
        matrix.ptr, bits // 8, matrix.ncols * k, lambda r0, r1: (r1 - r0) * k,
        lambda w0, w1: csrmm_stats(lengths[w0:w1], k, variant, bits),
        n_workers, tcdm_words, wpc)[0]


def reference_spgemm(a, b, pattern_ptr, variant, bits, n_workers=8,
                     tcdm_words=256 * 1024 // 8, wpc=8.0):
    idx_bytes = bits // 8
    resident = (b.nnz + (b.nnz * idx_bytes + 7) // 8
                + ((b.nrows + 1) * 4 + 7) // 8 + b.ncols)
    out_nnz = np.diff(pattern_ptr)
    a_len = a.row_lengths()
    per_nnz = b.row_lengths()[a.idcs]
    rows = np.repeat(np.arange(a.nrows), a_len)
    flops = np.zeros(a.nrows, dtype=np.int64)
    visits = np.zeros(a.nrows, dtype=np.int64)
    np.add.at(flops, rows, per_nnz)
    np.add.at(visits, rows, (per_nnz > 0).astype(np.int64))

    def share_stats(w0, w1):
        z = out_nnz[w0:w1]
        mask = z > 0
        n_pattern = int(np.count_nonzero(mask))
        return spgemm_stats(n_pattern, (w1 - w0) - n_pattern, int(z.sum()),
                            int(a_len[w0:w1][mask].sum()),
                            int(visits[w0:w1][mask].sum()),
                            int(flops[w0:w1][mask].sum()), variant, bits)

    def writeback(r0, r1):
        out = int(out_nnz[r0:r1].sum())
        return out + (out * idx_bytes + 7) // 8

    return reference_schedule(a.ptr, idx_bytes, resident, writeback,
                              share_stats, n_workers, tcdm_words, wpc)[0]


def reference_multicluster(matrix, dense, kernel, n_clusters, partitioner,
                           variant, bits, hbm, n_workers, tcdm_words):
    """One reference cluster model per shard at the fair HBM share."""
    partition = get_partitioner(partitioner)(matrix, n_clusters)
    wpc = hbm.cluster_bandwidth(max(partition.n_active, 1))
    kw = {"n_workers": n_workers, "tcdm_words": tcdm_words, "wpc": wpc}
    result_words = None
    if kernel == "spgemm":
        pptrs = [spgemm_pattern(s.matrix, dense)[0] for s in partition.shards]
        clusters = [reference_spgemm(s.matrix, dense, pptr, variant, bits,
                                     **kw)
                    for s, pptr in zip(partition.shards, pptrs)]
        result_words = sum(int(p[-1]) for p in pptrs)
    elif kernel == "csrmm":
        clusters = [reference_csrmm(s.matrix, dense.shape[1], variant, bits,
                                    **kw) for s in partition.shards]
        result_words = partition.nrows * dense.shape[1]
    else:
        clusters = [reference_csrmv(s.matrix, variant, bits, **kw)
                    for s in partition.shards]
    stats = MultiClusterStats()
    stats.combine_cycles = partition.combine_cycles(
        hbm, result_words=result_words)
    for cs in clusters:
        for attr in CORE + ("icache_misses", "tcdm_conflicts", "dma_words",
                            "dma_busy_cycles"):
            setattr(stats, attr, getattr(stats, attr) + getattr(cs, attr))
        stats.per_core.extend(cs.per_core)
    stats.cycles = max(cs.cycles for cs in clusters) + stats.combine_cycles
    for cs in clusters:
        cs.cycles = stats.cycles
        for core in cs.per_core:
            core.cycles = stats.cycles
    stats.per_cluster = clusters
    return stats


# -- comparison --------------------------------------------------------------

def _record(stats):
    """Every scalar field, of each cluster and core too, with lanes."""
    def one(s):
        return ([getattr(s, f) for f in FIELDS],
                sorted((name, dataclasses.astuple(lane))
                       for name, lane in s.lanes.items()))
    return (one(stats), [one(core) for core in stats.per_core],
            [(one(cs), [one(core) for core in cs.per_core])
             for cs in getattr(stats, "per_cluster", [])])


def assert_same(got, want):
    assert _record(got) == _record(want)
    for s in [got] + got.per_core + getattr(got, "per_cluster", []):
        assert all(type(getattr(s, f)) is int for f in FIELDS)


def tcdm_sizes(matrix, bits, resident):
    """TCDM words giving one tile, a few, and as many as fit the
    longest row's buffer (dozens on the operands below)."""
    idx_bytes = bits // 8
    longest = max((_tile_words(matrix.ptr, r, r + 1, idx_bytes)
                   for r in range(matrix.nrows)), default=1)
    whole = _tile_words(matrix.ptr, 0, matrix.nrows, idx_bytes)
    return [resident + 64 + 2 * max(words, 1)
            for words in (whole, max(whole // 5, longest), longest)]


def _csrmm_operands(k):
    matrix = random_csr(90, 64, 900, distribution="powerlaw", seed=31)
    return matrix, random_dense_matrix(64, k, seed=32)


def _spgemm_operands():
    a = random_csr(70, 40, 420, distribution="powerlaw", seed=33)
    b = random_csr(40, 36, 200, seed=34)
    return a, b


# -- fixed cases --------------------------------------------------------------

@pytest.mark.parametrize("n_workers", WORKERS)
@pytest.mark.parametrize("variant,bits", SERIES)
def test_cluster_csrmv(variant, bits, n_workers):
    matrix = random_csr(120, 96, 1800, distribution="powerlaw", seed=30)
    for tcdm in tcdm_sizes(matrix, bits, matrix.ncols):
        for wpc in BANDWIDTHS:
            kw = {"n_workers": n_workers, "tcdm_words": tcdm}
            assert_same(
                cluster_csrmv_stats(matrix, variant, bits,
                                    dma_words_per_cycle=wpc, **kw),
                reference_csrmv(matrix, variant, bits, wpc=wpc, **kw))


@pytest.mark.parametrize("k", (1, 4))
@pytest.mark.parametrize("n_workers", WORKERS)
@pytest.mark.parametrize("variant,bits", SERIES)
def test_cluster_csrmm(variant, bits, n_workers, k):
    matrix, _ = _csrmm_operands(k)
    for tcdm in tcdm_sizes(matrix, bits, matrix.ncols * k):
        for wpc in BANDWIDTHS:
            kw = {"n_workers": n_workers, "tcdm_words": tcdm}
            assert_same(
                cluster_csrmm_stats(matrix, k, variant, bits,
                                    dma_words_per_cycle=wpc, **kw),
                reference_csrmm(matrix, k, variant, bits, wpc=wpc, **kw))


@pytest.mark.parametrize("n_workers", WORKERS)
@pytest.mark.parametrize("variant,bits", SERIES)
def test_cluster_spgemm(variant, bits, n_workers):
    a, b = _spgemm_operands()
    pptr = spgemm_pattern(a, b)[0]
    resident = (b.nnz + (b.nnz * bits // 8 + 7) // 8
                + ((b.nrows + 1) * 4 + 7) // 8 + b.ncols)
    for tcdm in tcdm_sizes(a, bits, resident):
        for wpc in BANDWIDTHS:
            kw = {"n_workers": n_workers, "tcdm_words": tcdm}
            assert_same(
                cluster_spgemm_stats(a, b, pptr, variant, bits,
                                     dma_words_per_cycle=wpc, **kw),
                reference_spgemm(a, b, pptr, variant, bits, wpc=wpc, **kw))


def test_the_tcdm_sizes_reach_dozens_of_tiles():
    matrix = random_csr(120, 96, 1800, distribution="powerlaw", seed=30)
    counts = [len(plan_tiles(matrix.ptr, matrix.nrows, 2, tcdm, matrix.ncols))
              for tcdm in tcdm_sizes(matrix, 16, matrix.ncols)]
    assert counts[0] == 1 and counts[-1] >= 24


#: HBM configurations giving each active cluster 8, 2.5 and 0.37 words
#: per cycle at 2 and 32 active clusters.
HBMS = {2: (HbmConfig(), HbmConfig(words_per_cycle=5)),
        32: (HbmConfig(), HbmConfig(words_per_cycle=12))}


def _multicluster_operands(kernel):
    if kernel == "spgemm":
        return _spgemm_operands()
    matrix = random_csr(150, 80, 1500, distribution="powerlaw", seed=35)
    if kernel == "csrmm":
        return matrix, random_dense_matrix(80, 4, seed=36)
    return matrix, random_dense_vector(80, seed=37)


@pytest.mark.parametrize("partitioner", PARTITIONER_NAMES)
@pytest.mark.parametrize("n_clusters", (1, 7, 32))
@pytest.mark.parametrize("kernel", ("csrmv", "csrmm", "spgemm"))
@pytest.mark.parametrize("variant,bits", (("base", 32), ("issr", 16)))
def test_run_multicluster(kernel, n_clusters, partitioner, variant, bits):
    matrix, dense = _multicluster_operands(kernel)
    hbms = HBMS.get(n_clusters, (HbmConfig(),))
    for hbm in hbms:
        for tcdm_words, n_workers in ((256 * 1024 // 8, 8), (4096, 3)):
            stats, _ = run_multicluster(
                matrix, dense, kernel=kernel, n_clusters=n_clusters,
                partitioner=partitioner, variant=variant, index_bits=bits,
                backend="compiled", hbm=hbm, n_workers=n_workers,
                tcdm_bytes=tcdm_words * 8)
            assert_same(stats, reference_multicluster(
                matrix, dense, kernel, n_clusters, partitioner, variant,
                bits, hbm, n_workers, tcdm_words))


def test_the_hbm_configurations_reach_each_bandwidth():
    got = {HbmConfig(words_per_cycle=5).cluster_bandwidth(2),
           HbmConfig(words_per_cycle=12).cluster_bandwidth(32),
           HbmConfig().cluster_bandwidth(32)}
    assert got == {2.5, 0.375, 2.0}
    assert HbmConfig().cluster_bandwidth(2) == 8.0


def test_run_multicluster_spvv_batch():
    fibers = [random_sparse_vector(96, 3 * i % 40, seed=40 + i)
              for i in range(45)]
    x = random_dense_vector(96, seed=39)
    for n_clusters in (1, 7, 32):
        for partitioner in PARTITIONER_NAMES:
            stats, _ = run_multicluster(
                fibers, x, kernel="spvv_batch", n_clusters=n_clusters,
                partitioner=partitioner, backend="compiled")
            assert_same(stats, reference_multicluster(
                fibers_to_csr(fibers, dim=96), x, "csrmv", n_clusters,
                partitioner, "issr", 16, HbmConfig(), 8, 256 * 1024 // 8))


# -- hypothesis draws --------------------------------------------------------

@st.composite
def csr_matrices(draw):
    """Small CSR operands with empty rows, short rows and long rows."""
    nrows = draw(st.integers(0, 48))
    ncols = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(0, ncols), min_size=nrows,
                            max_size=nrows))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    idcs = [np.sort(rng.choice(ncols, size=n, replace=False))
            for n in lengths]
    ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    flat = np.concatenate(idcs) if nrows else np.zeros(0, np.int64)
    return CsrMatrix(ptr, flat, rng.standard_normal(len(flat)),
                     (nrows, ncols))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(matrix=csr_matrices(), series=st.sampled_from(SERIES),
       n_workers=st.sampled_from(WORKERS),
       wpc=st.sampled_from(BANDWIDTHS), size=st.integers(0, 2),
       k=st.sampled_from((1, 4)))
def test_drawn_cluster_models(matrix, series, n_workers, wpc, size, k):
    variant, bits = series
    csrmv_tcdm = tcdm_sizes(matrix, bits, matrix.ncols)[size]
    kw = {"n_workers": n_workers, "tcdm_words": csrmv_tcdm}
    assert_same(cluster_csrmv_stats(matrix, variant, bits,
                                    dma_words_per_cycle=wpc, **kw),
                reference_csrmv(matrix, variant, bits, wpc=wpc, **kw))
    kw["tcdm_words"] = tcdm_sizes(matrix, bits, matrix.ncols * k)[size]
    assert_same(cluster_csrmm_stats(matrix, k, variant, bits,
                                    dma_words_per_cycle=wpc, **kw),
                reference_csrmm(matrix, k, variant, bits, wpc=wpc, **kw))
    b = random_csr(matrix.ncols, 24, 3 * matrix.ncols, seed=41)
    pptr = spgemm_pattern(matrix, b)[0]
    resident = (b.nnz + (b.nnz * bits // 8 + 7) // 8
                + ((b.nrows + 1) * 4 + 7) // 8 + b.ncols)
    kw["tcdm_words"] = tcdm_sizes(matrix, bits, resident)[size]
    assert_same(cluster_spgemm_stats(matrix, b, pptr, variant, bits,
                                     dma_words_per_cycle=wpc, **kw),
                reference_spgemm(matrix, b, pptr, variant, bits, wpc=wpc,
                                 **kw))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(matrix=csr_matrices(), series=st.sampled_from(SERIES),
       n_clusters=st.sampled_from((1, 7, 32)),
       partitioner=st.sampled_from(PARTITIONER_NAMES),
       words_per_cycle=st.sampled_from((64, 5, 12)),
       kernel=st.sampled_from(("csrmv", "csrmm", "spgemm")))
def test_drawn_multicluster(matrix, series, n_clusters, partitioner,
                            words_per_cycle, kernel):
    variant, bits = series
    hbm = HbmConfig(words_per_cycle=words_per_cycle)
    if kernel == "spgemm":
        dense = random_csr(matrix.ncols, 24, 3 * matrix.ncols, seed=42)
    elif kernel == "csrmm":
        dense = random_dense_matrix(matrix.ncols, 4, seed=43)
    else:
        dense = random_dense_vector(matrix.ncols, seed=44)
    stats, _ = run_multicluster(
        matrix, dense, kernel=kernel, n_clusters=n_clusters,
        partitioner=partitioner, variant=variant, index_bits=bits,
        backend="compiled", hbm=hbm)
    assert_same(stats, reference_multicluster(
        matrix, dense, kernel, n_clusters, partitioner, variant, bits, hbm,
        8, 256 * 1024 // 8))
