"""Integration tests for the cluster: TCDM sharing, DMA runtime, CsrMV."""

import numpy as np
import pytest

from repro import api
from repro.backends import cycles_within_tolerance
from repro.cluster import SnitchCluster, run_cluster_csrmv
from repro.multicluster import run_multicluster
from repro.multicluster.hbm import HbmConfig
from repro.workloads import get_spec, random_csr, random_dense_vector


class TestClusterCsrmv:
    @pytest.mark.parametrize("variant,bits", [("base", 32), ("ssr", 32),
                                              ("issr", 16), ("issr", 32)])
    def test_correct(self, variant, bits):
        m = random_csr(64, 256, 64 * 6, seed=1)
        x = random_dense_vector(256, seed=2)
        stats, y = run_cluster_csrmv(m, x, variant, bits)  # checks internally
        assert stats.cycles > 0

    def test_empty_rows(self):
        m = random_csr(40, 128, 30, seed=3)  # many empty rows
        x = random_dense_vector(128, seed=4)
        run_cluster_csrmv(m, x, "issr", 16)

    def test_fewer_rows_than_cores(self):
        m = random_csr(3, 64, 24, seed=5)
        x = random_dense_vector(64, seed=6)
        run_cluster_csrmv(m, x, "issr", 16)

    def test_imbalanced_rows(self):
        m = random_csr(64, 512, 64 * 10, distribution="powerlaw", seed=7)
        x = random_dense_vector(512, seed=8)
        run_cluster_csrmv(m, x, "issr", 16)

    def test_multiple_tiles(self):
        """Force several tiles to exercise double buffering."""
        m = random_csr(256, 512, 256 * 8, seed=9)
        x = random_dense_vector(512, seed=10)
        from repro.cluster.runtime import ClusterCsrmv
        cl = SnitchCluster()
        job = ClusterCsrmv(cl, m, x, tile_rows=64)
        assert len(job.tiles) == 4
        cl.engine.add_front(job)
        cl.engine.run(lambda: job.done)
        assert np.allclose(job.result(), m.spmv(x))

    def test_speedup_over_base(self):
        m = random_csr(128, 512, 128 * 32, seed=11)
        x = random_dense_vector(512, seed=12)
        issr, _ = run_cluster_csrmv(m, x, "issr", 16)
        base, _ = run_cluster_csrmv(m, x, "base", 32)
        assert base.cycles / issr.cycles > 2.0

    def test_bank_conflicts_counted(self):
        m = random_csr(64, 512, 64 * 16, seed=13)
        x = random_dense_vector(512, seed=14)
        stats, _ = run_cluster_csrmv(m, x, "issr", 16)
        assert stats.tcdm_conflicts > 0

    def test_dma_words_accounted(self):
        m = random_csr(32, 128, 160, seed=15)
        x = random_dense_vector(128, seed=16)
        stats, _ = run_cluster_csrmv(m, x, "issr", 16)
        # x in + vals + idcs + ptr in + y out, at least
        assert stats.dma_words >= 128 + 160 + 160 // 4 + 32

    def test_cluster_reuse(self):
        """Two jobs on one cluster instance (allocator reset between)."""
        cl = SnitchCluster()
        m = random_csr(24, 64, 120, seed=17)
        x = random_dense_vector(64, seed=18)
        run_cluster_csrmv(m, x, "issr", 16, cluster=cl)
        cl.mainmem.storage.reset_allocator()
        run_cluster_csrmv(m, x, "base", 32, cluster=cl)

    def test_icache_misses_visible(self):
        m = random_csr(64, 256, 64 * 4, seed=19)
        x = random_dense_vector(256, seed=20)
        stats, _ = run_cluster_csrmv(m, x, "issr", 16)
        assert stats.icache_misses > 0

    def test_utilization_below_mux_limit(self):
        m = random_csr(96, 512, 96 * 64, seed=21)
        x = random_dense_vector(512, seed=22)
        stats, _ = run_cluster_csrmv(m, x, "issr", 16)
        for core in stats.per_core:
            assert core.fpu_utilization <= 0.8


class TestClusterConstruction:
    def test_default_topology(self):
        cl = SnitchCluster()
        assert len(cl.ccs) == 8
        assert len(cl.l1is) == 2
        assert cl.tcdm.n_banks == 32
        assert cl.tcdm.storage.size == 256 * 1024

    def test_workers_idle_initially(self):
        assert SnitchCluster().workers_idle

    def test_vector_too_large(self):
        from repro.cluster.runtime import ClusterCsrmv
        from repro.errors import ConfigError
        cl = SnitchCluster()
        m = random_csr(4, 40000, 16, seed=23)
        x = np.zeros(40000)
        with pytest.raises(ConfigError):
            ClusterCsrmv(cl, m, x)


def _both_backends(matrix, x, index_bits=16, **kwargs):
    """``cluster_csrmv`` on both backends: compiled and cycle stats, and
    whether their results are equal bytes."""
    runs = {backend: api.run("cluster_csrmv", backend=backend,
                             variant="issr", index_bits=index_bits,
                             matrix=matrix, x=x, **kwargs)
            for backend in ("compiled", "cycle")}
    (predicted, y_model), (simulated, y_engine) = runs.values()
    return predicted, simulated, \
        np.asarray(y_model).tobytes() == np.asarray(y_engine).tobytes()


class TestPlannedLayout:
    """The TCDM layout comes from the tile plan, so both backends run
    every input the planner accepts."""

    def test_power_law_tiles_fit_a_small_tcdm(self):
        """Its largest-nnz tile and its largest-row tile differ, so
        buffers sized at their own maxima overran the half budget."""
        m = random_csr(64, 256, 512, distribution="powerlaw", seed=3)
        x = random_dense_vector(256, seed=4)
        predicted, simulated, equal = _both_backends(
            m, x, cluster=SnitchCluster(tcdm_bytes=8192))
        assert equal
        assert cycles_within_tolerance(predicted.cycles, simulated.cycles,
                                       "cluster")

    def test_prefetch_waits_for_the_writeback_it_reaches(self):
        """Under a narrowed HBM fabric a cluster's IN channel outruns its
        OUT channel: a tile whose prefetch reaches the y array of the
        tile two before it must wait for that array's writeback."""
        m = random_csr(256, 256, 2048, distribution="powerlaw", seed=0)
        x = random_dense_vector(256, seed=100)
        kwargs = dict(n_clusters=2, hbm=HbmConfig(words_per_cycle=8),
                      tcdm_bytes=8192)
        _, y = run_multicluster(m, x, backend="cycle", **kwargs)
        _, expect = run_multicluster(m, x, backend="compiled", **kwargs)
        assert y.tobytes() == expect.tobytes()


#: Catalog runs (matrix, scale, index bits) whose per-buffer maxima
#: overran the TCDM half budget before the layout came from the plan.
OVERRAN_THE_HALF_BUDGET = [
    ("psmigr_2", 0.5, 16), ("psmigr_2", 0.5, 32),
    ("psmigr_2", 1.0, 16), ("psmigr_2", 1.0, 32),
    ("memplus", 1.0, 32),
    ("wm1", 1.0, 16), ("wm1", 1.0, 32), ("wm1", 0.5, 32),
    ("powerlaw-sorted-2k", 0.2, 32), ("powerlaw-sorted-2k", 0.5, 16),
    ("powerlaw-sorted-2k", 0.5, 32), ("powerlaw-sorted-2k", 1.0, 16),
    ("powerlaw-sorted-2k", 1.0, 32),
    ("powerlaw-2k", 1.0, 16), ("powerlaw-2k", 1.0, 32),
    ("powerlaw-2k", 0.5, 32),
]


@pytest.mark.stress
@pytest.mark.parametrize("name,scale,bits", OVERRAN_THE_HALF_BUDGET)
def test_catalog_runs_on_both_backends(name, scale, bits):
    """ISSR, x from N(0, 1), the default 256 KiB TCDM, stable seed."""
    m = get_spec(name).generate(scale=scale)
    x = np.random.default_rng(0).standard_normal(m.ncols)
    predicted, simulated, equal = _both_backends(m, x, index_bits=bits)
    assert equal
    assert cycles_within_tolerance(predicted.cycles, simulated.cycles,
                                   "cluster"), \
        f"predicted {predicted.cycles} vs simulated {simulated.cycles}"
