"""Unit tests for cluster-runtime internals and counters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SnitchCluster
from repro.cluster.runtime import ClusterCsrmv, plan_tiles, tile_words
from repro.errors import ConfigError
from repro.sim.counters import RunStats
from repro.workloads import get_spec, random_csr, random_dense_vector


def make_job(nrows=64, ncols=256, npr=4, tile_rows=None, seed=1):
    cl = SnitchCluster()
    m = random_csr(nrows, ncols, nrows * npr, seed=seed)
    x = random_dense_vector(ncols, seed=seed + 1)
    return cl, ClusterCsrmv(cl, m, x, tile_rows=tile_rows), m, x


class TestTilePlanning:
    def test_tiles_cover_all_rows(self):
        _, job, m, _ = make_job(nrows=100, tile_rows=17)
        covered = []
        for r0, r1 in job.tiles:
            covered.extend(range(r0, r1))
        assert covered == list(range(m.nrows))

    def test_auto_tiles_fit_budget(self):
        cl, job, m, x = make_job(nrows=512, npr=32)
        half = (cl.tcdm.storage.size // 8 - len(x) - 64) // 2
        for r0, r1 in job.tiles:
            assert tile_words(m.ptr, r0, r1, job.idx_bytes) <= half

    @pytest.mark.parametrize("distribution,nrows,npr,tile_rows", [
        ("uniform", 1024, 32, None),   # budget-planned
        ("powerlaw", 100, 4, 2),       # fixed height, some tiles empty
    ])
    def test_tile_arrays_lie_inside_their_region(self, distribution, nrows,
                                                 npr, tile_rows):
        """Each tile's four arrays (one word at least each) are disjoint
        and inside its region; the two regions overlap neither x nor
        each other; everything ends inside the TCDM."""
        cl = SnitchCluster()
        m = random_csr(nrows, 256, nrows * npr, distribution=distribution,
                       seed=1)
        job = ClusterCsrmv(cl, m, random_dense_vector(256, seed=2),
                           tile_rows=tile_rows)
        assert len(job.tiles) > 2
        if tile_rows:
            assert any(m.ptr[r0] == m.ptr[r1] for r0, r1 in job.tiles)
        st = cl.tcdm.storage
        spans = {name: (base, base + max(n_bytes, 8))
                 for name, (base, n_bytes) in st.segments.items()}
        regions = [spans["tiles0"], spans["tiles1"]]
        for t, ((r0, r1), arrays) in enumerate(zip(job.tiles, job.arrays)):
            nnz = int(m.ptr[r1] - m.ptr[r0])
            words = (max(nnz, 1), (nnz * job.idx_bytes + 15) // 8,
                     ((r1 - r0 + 1) * 4 + 15) // 8, max(r1 - r0, 1))
            tile = sorted((a, a + 8 * w) for a, w in zip(arrays, words))
            assert tile[0][0] == regions[t % 2][0]
            assert all(a[1] <= b[0] for a, b in zip(tile, tile[1:]))
            assert tile[-1][1] <= regions[t % 2][1]
        ordered = sorted([spans["x"], *regions])
        assert spans["x"][0] == 0
        assert all(a[1] <= b[0] for a, b in zip(ordered, ordered[1:]))
        assert ordered[-1][1] <= st.size

    def test_single_tile_when_small(self):
        _, job, _, _ = make_job(nrows=16, npr=2)
        assert len(job.tiles) == 1


def plan_tiles_by_row(ptr, nrows, idx_bytes, tcdm_words, x_words):
    """The reference plan: grow each tile one row at a time."""
    half = (tcdm_words - x_words - 64) // 2
    tiles = []
    r0 = 0
    while r0 < nrows:
        r1 = r0
        while r1 < nrows:
            words = tile_words(ptr, r0, r1 + 1, idx_bytes)
            if words > half and r1 > r0:
                break
            if words > half:
                raise ConfigError(f"row {r0} alone exceeds the tile buffer "
                                  f"({words} > {half} words)")
            r1 += 1
        tiles.append((r0, r1))
        r0 = r1
    return tiles


def _plan_or_error(plan, *args):
    try:
        return plan(*args)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


class TestPlanTilesMatchesTheRowLoop:
    """``plan_tiles`` searches per tile; the row loop is its reference."""

    # short rows put a tile's end within a few words of the budget often;
    # an optional long row exercises the single-row error
    @given(lengths=st.lists(st.integers(0, 12), min_size=20, max_size=400),
           giant=st.one_of(st.none(), st.tuples(st.integers(0, 400),
                                                st.integers(13, 3000))),
           idx_bytes=st.sampled_from((2, 4)),
           tcdm_words=st.integers(64, 2048),
           x_words=st.integers(0, 256))
    @settings(max_examples=300, deadline=None)
    def test_random_rows(self, lengths, giant, idx_bytes, tcdm_words,
                         x_words):
        if giant is not None:
            lengths.insert(giant[0], giant[1])
        ptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        args = (ptr, len(lengths), idx_bytes, tcdm_words, x_words)
        if tcdm_words - x_words - 64 <= 0:
            with pytest.raises(ConfigError, match="does not fit"):
                plan_tiles(*args)
            return
        assert _plan_or_error(plan_tiles, *args) == \
            _plan_or_error(plan_tiles_by_row, *args)

    def test_seeded_short_rows(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lengths = rng.integers(0, rng.integers(1, 40), rng.integers(1, 400))
            ptr = np.concatenate(([0], np.cumsum(lengths)))
            args = (ptr, len(lengths), int(rng.choice([2, 4])),
                    int(rng.integers(200, 3000)), int(rng.integers(0, 100)))
            assert _plan_or_error(plan_tiles, *args) == \
                _plan_or_error(plan_tiles_by_row, *args)

    @pytest.mark.parametrize("name", ["psmigr_1", "psmigr_2", "dense3k",
                                      "powerlaw-sorted-2k"])
    @pytest.mark.parametrize("tcdm_words", [4096, 32768])
    def test_catalog_matrices(self, name, tcdm_words):
        m = get_spec(name).generate(seed=1, scale=0.25)
        for idx_bytes in (2, 4):
            args = (m.ptr, m.nrows, idx_bytes, tcdm_words,
                    min(m.ncols, tcdm_words // 4))
            assert _plan_or_error(plan_tiles, *args) == \
                _plan_or_error(plan_tiles_by_row, *args)

    def test_single_row_error_names_the_row(self):
        ptr = np.array([0, 3, 4000, 4001])
        with pytest.raises(ConfigError,
                           match=r"row 1 alone exceeds the tile buffer"):
            plan_tiles(ptr, 3, 2, 4096, 0)


class TestRowDistribution:
    def test_shares_partition_tile(self):
        cl, job, m, _ = make_job(nrows=64)
        job._start_tile(0)
        shares = job._assigned
        assert shares[0][0] == job.tiles[0][0]
        assert shares[-1][1] == job.tiles[0][1]
        for (a0, a1), (b0, b1) in zip(shares, shares[1:]):
            assert a1 == b0

    def test_rows_less_than_workers(self):
        cl, job, _, _ = make_job(nrows=3)
        job._start_tile(0)
        nonempty = [s for s in job._assigned if s[1] > s[0]]
        assert len(nonempty) == 3


class TestRunStats:
    def test_utilization_zero_cycles(self):
        assert RunStats().fpu_utilization == 0.0
        assert RunStats().macs_per_cycle == 0.0

    def test_nored_utilization(self):
        s = RunStats(cycles=100)
        s.fpu_mac_ops = 40
        s.last_mac_cycle = 49
        s.first_mac_cycle = 10
        assert s.fpu_utilization_nored == pytest.approx(40 / 50)
        assert s.fpu_utilization_stream == pytest.approx(1.0)

    def test_nored_no_macs(self):
        assert RunStats(cycles=10).fpu_utilization_nored == 0.0
