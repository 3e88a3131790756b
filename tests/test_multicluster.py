"""Multi-cluster scale-out: partitioners, memory model, bit-identity.

The contracts under test (see ISSUE 2 and docs/ARCHITECTURE.md):

- partitioners assign every nonzero to exactly one cluster and
  nnz-balanced respects its max-share bound;
- multicluster compiled and cycle backends return bit-identical results
  on small matrices, and both match the single-cluster kernels;
- N=1 degenerates to the existing single-cluster path;
- the HBM model makes contention visible at both fidelities;
- weak scaling efficiency never exceeds 1.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.multicluster import (
    HbmConfig,
    HbmFabric,
    fibers_to_csr,
    get_partitioner,
    partition_cyclic,
    partition_nnz_balanced,
    partition_row_block,
    run_multicluster,
    take_rows,
)
from repro.sim.engine import Engine
from repro.workloads import (
    random_csr,
    random_dense_matrix,
    random_dense_vector,
    random_sparse_vector,
)

PARTITIONERS = [partition_row_block, partition_nnz_balanced, partition_cyclic]


def skewed_matrix(nrows=48, ncols=128, npr=8, seed=11):
    return random_csr(nrows, ncols, nrows * npr, distribution="powerlaw",
                      seed=seed, alpha=1.2, sort_rows=True)


class TestPartitionInvariants:
    @pytest.mark.parametrize("partition", PARTITIONERS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_every_nnz_assigned_exactly_once(self, partition, n):
        matrix = skewed_matrix()
        part = partition(matrix, n)
        assert part.n_clusters == n
        # rows: disjoint and complete
        all_rows = np.concatenate([s.rows for s in part.shards])
        assert sorted(all_rows.tolist()) == list(range(matrix.nrows))
        # nonzeros: each shard's rows carry exactly the global rows' data
        assert sum(s.nnz for s in part.shards) == matrix.nnz
        for shard in part.shards:
            for i, r in enumerate(shard.rows):
                lo, hi = int(matrix.ptr[r]), int(matrix.ptr[r + 1])
                slo, shi = int(shard.matrix.ptr[i]), int(shard.matrix.ptr[i + 1])
                assert np.array_equal(shard.matrix.idcs[slo:shi],
                                      matrix.idcs[lo:hi])
                assert np.array_equal(shard.matrix.vals[slo:shi],
                                      matrix.vals[lo:hi])

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_nnz_balanced_share_bound(self, n, seed):
        matrix = skewed_matrix(nrows=96, npr=12, seed=seed)
        part = partition_nnz_balanced(matrix, n)
        mean = matrix.nnz / n
        max_row = int(matrix.row_lengths().max())
        assert max(part.shard_nnz()) <= mean + max_row
        # and it is no worse balanced than row_block on the skewed matrix
        rb = partition_row_block(matrix, n)
        assert part.imbalance() <= rb.imbalance() + 1e-9

    def test_combine_is_exact_scatter(self):
        matrix = skewed_matrix()
        part = partition_cyclic(matrix, 3)
        parts = [np.arange(s.nrows, dtype=np.float64) + 100.0 * s.cluster_id
                 for s in part.shards]
        y = part.combine(parts)
        for shard, p in zip(part.shards, parts):
            assert np.array_equal(y[shard.rows], p)

    def test_take_rows_preserves_order(self):
        matrix = skewed_matrix()
        rows = np.array([5, 0, 17])
        sub = take_rows(matrix, rows)
        assert sub.nrows == 3
        assert np.array_equal(sub.row(0).values, matrix.row(5).values)
        assert np.array_equal(sub.row(1).indices, matrix.row(0).indices)

    def test_get_partitioner(self):
        assert get_partitioner("nnz_balanced") is partition_nnz_balanced
        assert get_partitioner(partition_cyclic) is partition_cyclic
        with pytest.raises(ConfigError):
            get_partitioner("hash")
        with pytest.raises(ConfigError):
            partition_row_block(skewed_matrix(), 0)

    def test_more_clusters_than_rows(self):
        matrix = random_csr(3, 16, 9, seed=1)
        for partition in PARTITIONERS:
            part = partition(matrix, 8)
            assert part.n_clusters == 8
            assert sum(s.nnz for s in part.shards) == matrix.nnz


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", ["row_block", "nnz_balanced", "cyclic"])
    def test_fast_vs_cycle(self, scheme):
        matrix = skewed_matrix(nrows=32, npr=6)
        x = random_dense_vector(matrix.ncols, seed=2)
        s_comp, y_comp = run_multicluster(matrix, x, n_clusters=3,
                                          partitioner=scheme, backend="compiled")
        s_cyc, y_cyc = run_multicluster(matrix, x, n_clusters=3,
                                        partitioner=scheme, backend="cycle")
        assert y_comp.tobytes() == y_cyc.tobytes()
        assert s_comp.n_clusters == s_cyc.n_clusters == 3
        assert s_comp.shard_nnz == s_cyc.shard_nnz

    def test_matches_single_cluster_kernel(self):
        from repro.backends import CompiledBackend

        matrix = skewed_matrix(nrows=24, npr=5)
        x = random_dense_vector(matrix.ncols, seed=3)
        _, y_single = CompiledBackend().run("cluster_csrmv", variant="issr",
                                        index_bits=16, matrix=matrix, x=x)
        for scheme in ("row_block", "nnz_balanced", "cyclic"):
            _, y_multi = run_multicluster(matrix, x, n_clusters=4,
                                          partitioner=scheme, backend="compiled")
            assert y_multi.tobytes() == y_single.tobytes()

    def test_spvv_batch_bit_identity(self):
        fibers = [random_sparse_vector(96, n, seed=10 + n)
                  for n in (0, 2, 9, 33)]
        x = random_dense_vector(96, seed=4)
        s_comp, y_comp = run_multicluster(fibers, x, kernel="spvv_batch",
                                          n_clusters=2, backend="compiled")
        s_cyc, y_cyc = run_multicluster(fibers, x, kernel="spvv_batch",
                                        n_clusters=2, backend="cycle")
        assert y_comp.tobytes() == y_cyc.tobytes()
        assert len(y_comp) == len(fibers)

    def test_csrmm_fast_only(self):
        matrix = random_csr(16, 32, 64, seed=5)
        dense = random_dense_matrix(32, 4, seed=6)
        stats, c = run_multicluster(matrix, dense, kernel="csrmm",
                                    n_clusters=2, backend="compiled")
        assert np.allclose(c, matrix.spmm(dense))
        with pytest.raises(ConfigError):
            run_multicluster(matrix, dense, kernel="csrmm", n_clusters=2,
                             backend="cycle")

    def test_unknown_kernel_rejected(self):
        matrix = random_csr(4, 8, 8, seed=1)
        with pytest.raises(ConfigError):
            run_multicluster(matrix, np.ones(8), kernel="spgemm")

    def test_cycle_bounds_accepted_by_both_backends(self):
        """max_cycles/watchdog must not crash backend-switching callers."""
        matrix = random_csr(8, 16, 24, seed=1)
        x = random_dense_vector(16, seed=1)
        for backend in ("compiled", "cycle"):
            stats, _ = run_multicluster(matrix, x, n_clusters=2,
                                        backend=backend,
                                        max_cycles=10_000_000,
                                        watchdog=100_000)
            assert stats.cycles > 0


class TestDegenerateSingleCluster:
    def test_n1_equals_single_cluster_fast(self):
        from repro.backends import CompiledBackend

        matrix = skewed_matrix(nrows=24, npr=5)
        x = random_dense_vector(matrix.ncols, seed=3)
        s_single, y_single = CompiledBackend().run(
            "cluster_csrmv", variant="issr", index_bits=16, matrix=matrix,
            x=x)
        s_multi, y_multi = run_multicluster(matrix, x, n_clusters=1,
                                            backend="compiled")
        assert y_multi.tobytes() == y_single.tobytes()
        assert s_multi.cycles == s_single.cycles  # no combine/sync charged
        assert s_multi.combine_cycles == 0

    def test_n1_equals_single_cluster_cycle(self):
        from repro.backends import CycleBackend

        matrix = random_csr(16, 64, 96, seed=8)
        x = random_dense_vector(64, seed=9)
        s_single, y_single = CycleBackend().run(
            "cluster_csrmv", variant="issr", index_bits=16, matrix=matrix,
            x=x)
        s_multi, y_multi = run_multicluster(matrix, x, n_clusters=1,
                                            backend="cycle")
        assert y_multi.tobytes() == y_single.tobytes()
        assert s_multi.cycles == s_single.cycles

    def test_n1_csrmm_equals_single_cluster_model(self):
        from repro.backends import CompiledBackend
        from repro.multicluster.model import cluster_csrmm_stats

        matrix = skewed_matrix(nrows=40, npr=6)
        dense = random_dense_matrix(matrix.ncols, 4, seed=12)
        single = cluster_csrmm_stats(matrix, 4, "issr", 16)
        s_multi, c_multi = run_multicluster(matrix, dense, kernel="csrmm",
                                            n_clusters=1, backend="compiled")
        _, c_single = CompiledBackend().run(
            "csrmm", variant="issr", index_bits=16, matrix=matrix,
            dense=dense)
        assert c_multi.tobytes() == c_single.tobytes()
        assert s_multi.cycles == single.cycles  # full bandwidth, no combine
        assert s_multi.dma_words == single.dma_words
        assert s_multi.combine_cycles == 0

    def test_n1_spgemm_equals_single_cluster_model(self):
        from repro.backends import CompiledBackend
        from repro.formats.builder import spgemm_pattern
        from repro.multicluster.model import cluster_spgemm_stats

        a = skewed_matrix(nrows=40, ncols=48, npr=4, seed=13)
        b = random_csr(48, 40, 48 * 3, seed=14)
        single = cluster_spgemm_stats(a, b, spgemm_pattern(a, b)[0],
                                      "issr", 16)
        s_multi, c_multi = run_multicluster(a, b, kernel="spgemm",
                                            n_clusters=1, backend="compiled")
        _, c_single = CompiledBackend().run("spgemm", variant="issr",
                                            index_bits=16, a=a, b=b)
        assert c_multi.vals.tobytes() == c_single.vals.tobytes()
        assert np.array_equal(c_multi.idcs, c_single.idcs)
        assert s_multi.cycles == single.cycles
        assert s_multi.dma_words == single.dma_words
        assert s_multi.combine_cycles == 0

    def test_n1_spvv_batch_equals_cluster_csrmv(self):
        from repro.backends import CompiledBackend

        fibers = [random_sparse_vector(96, n, seed=20 + n)
                  for n in (0, 3, 8, 17, 40)]
        x = random_dense_vector(96, seed=15)
        s_single, y_single = CompiledBackend().run(
            "cluster_csrmv", variant="issr", index_bits=16,
            matrix=fibers_to_csr(fibers, dim=96), x=x)
        s_multi, y_multi = run_multicluster(fibers, x, kernel="spvv_batch",
                                            n_clusters=1, backend="compiled")
        assert y_multi.tobytes() == y_single.tobytes()
        assert s_multi.cycles == s_single.cycles
        assert s_multi.dma_words == s_single.dma_words
        assert s_multi.combine_cycles == 0


class TestHbmModel:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HbmConfig(words_per_cycle=0)
        with pytest.raises(ConfigError):
            HbmConfig(sync_cycles=-1)

    def test_cluster_bandwidth(self):
        hbm = HbmConfig(words_per_cycle=64, cluster_words_per_cycle=8)
        assert hbm.cluster_bandwidth(1) == 8.0
        assert hbm.cluster_bandwidth(8) == 8.0
        assert hbm.cluster_bandwidth(16) == 4.0
        assert hbm.contention_factor(32) == 4.0

    def test_fabric_budget_resets_each_cycle(self):
        engine = Engine()
        fabric = HbmFabric(engine, HbmConfig(words_per_cycle=10))
        assert fabric.claim(None, 8) == 8
        assert fabric.claim(None, 8) == 2  # budget exhausted this cycle
        engine.step()  # next cycle: the budget renews lazily in claim()
        assert fabric.claim(None, 8) == 8
        assert fabric.words_denied == 6

    def test_narrow_hbm_throttles_single_cluster_on_both_backends(self):
        """N=1 must not bypass the fabric when the HBM is narrowed."""
        matrix = random_csr(32, 128, 32 * 8, seed=7)
        x = random_dense_vector(128, seed=7)
        narrow = HbmConfig(words_per_cycle=2)
        for backend in ("compiled", "cycle"):
            default, yd = run_multicluster(matrix, x, n_clusters=1,
                                           backend=backend)
            slow, ys = run_multicluster(matrix, x, n_clusters=1,
                                        backend=backend, hbm=narrow)
            assert slow.cycles > default.cycles, backend
            assert yd.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("link", [2, 4])
    def test_narrow_cluster_link_throttles_cycle_backend(self, link):
        # link=4 is the half-width case: a prefetch-only phase issues a
        # lone IN beat (8 words), which a per-direction cap must halve.
        matrix = random_csr(48, 128, 48 * 12, seed=4)
        x = random_dense_vector(128, seed=4)
        wide, yw = run_multicluster(matrix, x, n_clusters=2, backend="cycle")
        narrow, yn = run_multicluster(
            matrix, x, n_clusters=2, backend="cycle",
            hbm=HbmConfig(cluster_words_per_cycle=link))
        assert narrow.cycles > wide.cycles
        assert yw.tobytes() == yn.tobytes()

    def test_contention_raises_cycles_both_backends(self):
        matrix = random_csr(48, 128, 48 * 12, seed=4)
        x = random_dense_vector(128, seed=4)
        for backend in ("compiled", "cycle"):
            wide, yw = run_multicluster(
                matrix, x, n_clusters=4, backend=backend,
                hbm=HbmConfig(words_per_cycle=256))
            narrow, yn = run_multicluster(
                matrix, x, n_clusters=4, backend=backend,
                hbm=HbmConfig(words_per_cycle=4))
            assert narrow.cycles > wide.cycles
            assert yw.tobytes() == yn.tobytes()  # timing never alters data


class TestScalingSanity:
    def test_weak_scaling_efficiency_le_1(self):
        from repro.eval.scaling import weak_point

        base = {"partitioner": "nnz_balanced", "seed": 1,
                "rows_per_cluster": 64, "nnz_per_row": 8, "ncols": 256,
                "variant": "issr", "index_bits": 16, "backend": "compiled",
                "hbm_words": 64}
        cycles = {}
        for n in (1, 2, 4, 8):
            cycles[n] = weak_point({**base, "n_clusters": n})["cycles"]
        for n in (2, 4, 8):
            eff = cycles[1] / cycles[n]
            assert eff <= 1.0 + 1e-9, f"weak efficiency {eff} > 1 at N={n}"

    def test_nnz_balanced_beats_row_block_on_skew(self):
        matrix = skewed_matrix(nrows=512, ncols=1024, npr=24, seed=2)
        x = random_dense_vector(matrix.ncols, seed=2)
        rb, _ = run_multicluster(matrix, x, n_clusters=8,
                                 partitioner="row_block", backend="compiled")
        nb, _ = run_multicluster(matrix, x, n_clusters=8,
                                 partitioner="nnz_balanced", backend="compiled")
        assert nb.cycles <= 0.8 * rb.cycles  # >= 20% fewer cycles

    def test_strong_scaling_monotone_cluster_handling(self):
        matrix = random_csr(256, 512, 256 * 16, seed=6)
        x = random_dense_vector(512, seed=6)
        prev = None
        for n in (1, 2, 4, 8):
            stats, _ = run_multicluster(matrix, x, n_clusters=n,
                                        partitioner="nnz_balanced",
                                        backend="compiled")
            assert stats.n_clusters == n
            if prev is not None:
                # balanced workload with ample HBM: more clusters never
                # slower than half as many by more than the sync cost
                assert stats.cycles <= prev + 2 * stats.combine_cycles
            prev = stats.cycles


class TestFibersToCsr:
    def test_roundtrip(self):
        fibers = [random_sparse_vector(32, n, seed=n) for n in (3, 0, 7)]
        m = fibers_to_csr(fibers)
        assert m.nrows == 3
        assert m.nnz == 10
        x = random_dense_vector(32, seed=1)
        expect = [float(np.dot(f.values, x[f.indices])) for f in fibers]
        assert np.allclose(m.spmv(x), expect)
