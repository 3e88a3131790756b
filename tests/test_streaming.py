"""Golden-file differential battery for the streaming tiled executor.

The contract under test: a streamed out-of-core pass over an
mmap-backed matrix is **bit-identical** to the resident backends for
every tile size — including the degenerate 1-row and whole-matrix
tiles — on the compiled backend (under both of its spellings,
``compiled`` and the ``fast`` alias), and the DMA transfer
ledger shows every tile crossing the link exactly once per pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.compiler.vectorize import spvv_value
from repro.errors import ConfigError, FormatError, RequestError
from repro.formats import open_csr_cache, write_csr_cache
from repro.mem.dma import BEAT_WORDS, IN, OUT, TransferLedger, transfer_cycles
from repro.serve.protocol import build_operands, validate_request
from repro.stream import (
    plan_row_tiles,
    stream_csrmv,
    stream_power_iteration,
    stream_spvv,
    tile_bytes,
)
from repro.stream.plan import NNZ_BYTES, ROW_BYTES
from repro.workloads import random_csr, random_dense_vector

NROWS, NCOLS, NNZ = 120, 90, 900


@pytest.fixture(scope="module")
def cached(tmp_path_factory):
    matrix = random_csr(NROWS, NCOLS, NNZ, seed=21)
    path = str(tmp_path_factory.mktemp("stream") / "m.csrbin")
    write_csr_cache(matrix, path)
    return matrix, open_csr_cache(path)


@pytest.fixture(scope="module")
def x():
    return random_dense_vector(NCOLS, seed=22)


def resident(matrix, x, backend="compiled", variant="issr", index_bits=32):
    _, y = get_backend(backend).run("csrmv", matrix=matrix, x=x,
                                    variant=variant, index_bits=index_bits)
    return y


class TestGoldenDifferential:
    """Streamed == resident, bit for bit, across the tile-size axis."""

    # "fast" is the accepted alias of compiled; both spellings stream
    @pytest.mark.parametrize("backend", ["fast", "compiled"])
    @pytest.mark.parametrize("tile_rows", [1, 2, 7, 64, NROWS, 10 * NROWS])
    def test_tile_sizes(self, cached, x, backend, tile_rows):
        matrix, mm = cached
        ref = resident(matrix, x, backend)
        stats, y = stream_csrmv(mm, x, tile_rows=tile_rows, backend=backend)
        assert y.tobytes() == ref.tobytes()
        assert stats.tiles == -(-NROWS // min(tile_rows, NROWS))

    @pytest.mark.parametrize("backend", ["fast", "compiled"])  # alias too
    @pytest.mark.parametrize("budget", [1024, 4096, 1 << 20])
    def test_budget_planned(self, cached, x, backend, budget):
        matrix, mm = cached
        ref = resident(matrix, x, backend)
        stats, y = stream_csrmv(mm, x, budget_bytes=budget, backend=backend)
        assert y.tobytes() == ref.tobytes()
        assert stats.peak_resident_bytes <= budget

    @pytest.mark.parametrize("variant,index_bits",
                             [("base", 32), ("ssr", 32),
                              ("issr", 32), ("issr", 16)])
    def test_variants(self, cached, x, variant, index_bits):
        matrix, mm = cached
        ref = resident(matrix, x, "compiled", variant, index_bits)
        _, y = stream_csrmv(mm, x, tile_rows=13, variant=variant,
                            index_bits=index_bits)
        assert y.tobytes() == ref.tobytes()

    def test_cycle_engine_prefix(self, cached, x):
        """The cycle backend agrees on a truncated prefix."""
        matrix, mm = cached
        prefix = matrix.row_block(0, 24)
        ref = resident(prefix, x, "cycle")
        _, y = stream_csrmv(mm, x, tile_rows=5)
        assert y[:24].tobytes() == ref.tobytes()

    def test_streamed_matches_spmv_semantics(self, cached, x):
        matrix, mm = cached
        _, y = stream_csrmv(mm, x, tile_rows=11)
        assert np.allclose(y, matrix.spmv(x))


class TestTransferLedger:
    def test_each_tile_exactly_once(self, cached, x):
        _, mm = cached
        ledger = TransferLedger()
        stats, _ = stream_csrmv(mm, x, tile_rows=9, ledger=ledger)
        counts = ledger.counts(0)
        assert len(counts) == stats.tiles
        assert all(n == 1 for n in counts.values())

    def test_words_match_tile_bytes(self, cached, x):
        _, mm = cached
        ledger = TransferLedger()
        stats, _ = stream_csrmv(mm, x, tile_rows=9, ledger=ledger)
        assert ledger.words(direction=IN) * 8 == stats.bytes_in
        assert ledger.words(direction=OUT) * 8 == stats.bytes_out
        assert ledger.words(direction=OUT) == mm.nrows

    def test_multi_pass_isolation(self, cached, x):
        _, mm = cached
        ledger = TransferLedger()
        for pass_id in range(3):
            stream_csrmv(mm, x, tile_rows=30, ledger=ledger,
                         pass_id=pass_id)
        assert ledger.passes() == [0, 1, 2]
        for pid in range(3):
            assert all(n == 1 for n in ledger.counts(pid).values())

    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigError, match="direction"):
            TransferLedger().record(0, "t", 8, direction="sideways")


class TestPlanProperties:
    @given(nrows=st.integers(1, 60), nnz=st.integers(0, 400),
           seed=st.integers(0, 2**31 - 1),
           budget=st.integers(2 * (NNZ_BYTES + 2 * ROW_BYTES), 4096))
    @settings(max_examples=60, deadline=None)
    def test_tiles_partition_rows_within_budget(self, nrows, nnz, seed,
                                                budget):
        matrix = random_csr(nrows, 32, min(nnz, nrows * 32), seed=seed)
        try:
            tiles = plan_row_tiles(matrix.ptr, nrows, budget)
        except ConfigError:
            # legal only when one row alone overflows the half-budget
            row_bytes = np.diff(matrix.ptr) * NNZ_BYTES + 2 * ROW_BYTES
            assert row_bytes.max() > budget // 2
            return
        assert tiles[0][0] == 0 and tiles[-1][1] == nrows
        for (a0, a1), (b0, b1) in zip(tiles, tiles[1:]):
            assert a1 == b0
        for r0, r1 in tiles:
            assert r0 < r1
            assert tile_bytes(matrix.ptr, r0, r1) <= budget // 2

    @given(nrows=st.integers(1, 50), tile_rows=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_fixed_height_tiles(self, nrows, tile_rows):
        tiles = plan_row_tiles(np.zeros(nrows + 1, dtype=np.int64),
                               nrows, None, tile_rows=tile_rows)
        assert tiles[0][0] == 0 and tiles[-1][1] == nrows
        assert all(r1 - r0 == tile_rows for r0, r1 in tiles[:-1])
        assert tiles[-1][1] - tiles[-1][0] <= tile_rows

    def test_budget_too_small(self):
        with pytest.raises(ConfigError, match="budget"):
            plan_row_tiles(np.array([0, 1]), 1, 8)

    def test_oversized_row_rejected(self):
        ptr = np.array([0, 100])
        with pytest.raises(ConfigError, match="cannot be split"):
            plan_row_tiles(ptr, 1, 256)

    def test_transfer_cycles_rounds_up(self):
        assert transfer_cycles(0) == 0
        assert transfer_cycles(1) == 1
        assert transfer_cycles(BEAT_WORDS) == 1
        assert transfer_cycles(BEAT_WORDS + 1) == 2


class TestStreamStats:
    def test_overlap_bounds(self, cached, x):
        _, mm = cached
        stats, _ = stream_csrmv(mm, x, tile_rows=10)
        assert stats.cycles <= stats.compute_cycles + stats.dma_cycles
        assert stats.cycles >= max(stats.compute_cycles, stats.dma_cycles)
        assert 0.0 <= stats.overlap_efficiency < 1.0
        assert stats.bytes_per_cycle > 0

    def test_peak_is_two_consecutive_tiles(self, cached, x):
        matrix, mm = cached
        stats, _ = stream_csrmv(mm, x, tile_rows=40)
        sizes = [tile_bytes(matrix.ptr, r0, r1)
                 for r0, r1 in stats.tile_bounds]
        assert stats.peak_resident_bytes == max(
            a + b for a, b in zip(sizes, sizes[1:]))
        assert stats.matrix_bytes == sum(sizes) - ROW_BYTES * (len(sizes) - 1)

    def test_single_tile_peak(self, cached, x):
        _, mm = cached
        stats, _ = stream_csrmv(mm, x, tile_rows=10 * NROWS)
        assert stats.tiles == 1
        assert stats.peak_resident_bytes == stats.matrix_bytes

    def test_on_tile_callback_sees_every_tile(self, cached, x):
        _, mm = cached
        seen = []
        stats, _ = stream_csrmv(mm, x, tile_rows=25,
                                on_tile=lambda i, r0, r1: seen.append(
                                    (i, r0, r1)))
        assert [(r0, r1) for _i, r0, r1 in seen] == stats.tile_bounds
        assert [i for i, _r0, _r1 in seen] == list(range(stats.tiles))


class TestStreamErrors:
    def test_exactly_one_plan_axis(self, cached, x):
        _, mm = cached
        with pytest.raises(ConfigError, match="exactly one"):
            stream_csrmv(mm, x, budget_bytes=4096, tile_rows=4)
        with pytest.raises(ConfigError, match="exactly one"):
            stream_csrmv(mm, x)

    def test_short_vector(self, cached):
        _, mm = cached
        with pytest.raises(FormatError, match="shorter"):
            stream_csrmv(mm, np.zeros(3), tile_rows=4)

    def test_bad_variant(self, cached, x):
        _, mm = cached
        with pytest.raises(ConfigError):
            stream_csrmv(mm, x, tile_rows=4, variant="simd")


class TestStreamSpvv:
    @pytest.mark.parametrize("variant,index_bits",
                             [("base", 32), ("ssr", 32),
                              ("issr", 32), ("issr", 16)])
    @pytest.mark.parametrize("chunk_nnz", [1, 3, 64, 10 ** 6])
    def test_bit_identical_to_resident(self, variant, index_bits,
                                       chunk_nnz):
        rng = np.random.default_rng(23)
        idcs = np.sort(rng.choice(4000, size=501, replace=False))
        vals = rng.standard_normal(501)
        x = rng.standard_normal(4000)
        ref = spvv_value(vals * x[idcs], variant, index_bits)
        stats, value = stream_spvv(idcs, vals, x, chunk_nnz=chunk_nnz,
                                   variant=variant, index_bits=index_bits)
        assert value == ref
        assert stats.bytes_in == 16 * 501

    def test_empty_fiber(self):
        stats, value = stream_spvv(np.array([], dtype=np.int64),
                                   np.array([]), np.zeros(4))
        assert value == 0.0 and stats.tiles == 0

    def test_ledger_chunks_once(self):
        rng = np.random.default_rng(24)
        idcs = np.sort(rng.choice(100, size=40, replace=False))
        ledger = TransferLedger()
        stream_spvv(idcs, rng.standard_normal(40), rng.standard_normal(100),
                    chunk_nnz=8, ledger=ledger)
        assert all(n == 1 for n in ledger.counts(0).values())

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="mismatch"):
            stream_spvv(np.array([0, 1]), np.array([1.0]), np.zeros(4))

    def test_bad_chunk(self):
        with pytest.raises(ConfigError, match="chunk_nnz"):
            stream_spvv(np.array([0]), np.array([1.0]), np.zeros(4),
                        chunk_nnz=0)


class TestStreamPowerIteration:
    @pytest.fixture(scope="class")
    def square(self, tmp_path_factory):
        matrix = random_csr(80, 80, 640, seed=25)
        path = str(tmp_path_factory.mktemp("pow") / "s.csrbin")
        write_csr_cache(matrix, path)
        return matrix, open_csr_cache(path)

    def test_matches_resident_loop(self, square):
        matrix, mm = square
        total, xs, history = stream_power_iteration(mm, 5,
                                                    budget_bytes=4096)
        xr = np.full(80, 1.0 / 80)
        for k in range(5):
            yr = resident(matrix, xr)
            lam = float(np.sqrt(np.dot(yr, yr)))
            xr = yr / lam
            assert history[k] == lam
        assert xs.tobytes() == xr.tobytes()
        assert total.passes == 5

    def test_ledger_once_per_pass(self, square):
        _, mm = square
        ledger = TransferLedger()
        stream_power_iteration(mm, 3, tile_rows=17, ledger=ledger)
        assert ledger.passes() == [0, 1, 2]
        per_pass = [ledger.counts(pid) for pid in range(3)]
        assert all(len(c) == per_pass[0].keys().__len__() for c in per_pass)
        for counts in per_pass:
            assert all(n == 1 for n in counts.values())

    def test_rectangular_rejected(self, cached):
        _, mm = cached
        with pytest.raises(FormatError, match="square"):
            stream_power_iteration(mm, 2, tile_rows=16)

    def test_zero_iters_rejected(self, square):
        _, mm = square
        with pytest.raises(ConfigError, match="n_iters"):
            stream_power_iteration(mm, 0, tile_rows=16)


class TestServeMatrixRef:
    """The request schema's out-of-core operand spec."""

    def _request(self, mm, rows=None, x_dim=NCOLS):
        spec = {"matrix_ref": mm.path}
        if rows is not None:
            spec["rows"] = rows
        return {"kernel": "csrmv", "workload": {
            "matrix": spec,
            "x": {"gen": "random_dense_vector", "dim": x_dim, "seed": 22}}}

    def test_build_whole_matrix(self, cached, x):
        matrix, mm = cached
        req = validate_request(self._request(mm))
        ops = build_operands(req)
        assert ops["matrix"].shape == matrix.shape
        assert resident(ops["matrix"], x).tobytes() == \
            resident(matrix, x).tobytes()

    def test_build_row_window(self, cached, x):
        matrix, mm = cached
        req = validate_request(self._request(mm, rows=[10, 30]))
        ops = build_operands(req)
        assert ops["matrix"].shape == (20, NCOLS)
        assert resident(ops["matrix"], x).tobytes() == \
            resident(matrix, x)[10:30].tobytes()

    @pytest.mark.parametrize("bad", [
        {"matrix_ref": "m.mtx"},
        {"matrix_ref": 7},
        {"matrix_ref": "m.csrbin", "rows": [3]},
        {"matrix_ref": "m.csrbin", "rows": [5, 2]},
        {"matrix_ref": "m.csrbin", "rows": [-1, 2]},
        {"matrix_ref": "m.csrbin", "rows": [True, 2]},
        {"matrix_ref": "m.csrbin", "window": [0, 2]},
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(RequestError):
            validate_request({"kernel": "csrmv", "workload": {
                "matrix": bad,
                "x": {"gen": "random_dense_vector", "dim": 4, "seed": 0}}})

    def test_missing_cache_fails_at_build(self, tmp_path):
        req = validate_request({"kernel": "csrmv", "workload": {
            "matrix": {"matrix_ref": str(tmp_path / "gone.csrbin")},
            "x": {"gen": "random_dense_vector", "dim": 4, "seed": 0}}})
        with pytest.raises(RequestError, match="unusable"):
            build_operands(req)

    def test_request_key_is_stable(self, cached):
        from repro.serve.protocol import request_key
        _, mm = cached
        k1 = request_key(validate_request(self._request(mm, rows=[0, 5])))
        k2 = request_key(validate_request(self._request(mm, rows=[0, 5])))
        k3 = request_key(validate_request(self._request(mm, rows=[0, 6])))
        assert k1 == k2 != k3
