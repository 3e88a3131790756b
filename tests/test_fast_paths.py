"""The fast paths' failure modes, caught by counting work, not by timing.

Each class names the failures that would make one fast path slow
while leaving its results right, and checks that the work behind
them never happens:

- compiled: a kernel, sharded run or solver that cycle-steps the
  event engine, a lowering cache that stops hitting (every call
  decodes its program again) or that keeps every program it ever
  lowered alive, a cluster model that calls the
  single-CC model once per (tile, worker) share instead of pricing
  every share in one pass, or a sharded run that replays each shard
  instead of the whole operand once;
- serve: a point-cache hit that still creates a ticket, or a worker
  pool that respawns its workers under plain traffic (operand arrays
  back on the pipes are ``test_serve_shm.py::TestZeroCopyContract``);
- out-of-core: a tile whose payload is copied out of the cache's map,
  a tile or an opened cache that runs ``CsrMatrix``'s validation, and
  an ingest that builds the matrix instead of streaming its blocks.

The speed these paths reach is a benchmark metric
(``perfbench/run.py``), recorded per change in ``BENCH_<n>.json``.
"""

import numpy as np
import pytest

from repro import api
from repro.backends import CompiledBackend
from repro.backends import compiled as compiled_backend
from repro.backends import model
from repro.compiler import templates
from repro.formats import external
from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix
from repro.multicluster import model as multicluster_model
from repro.multicluster import run_multicluster
from repro.serve import ServeConfig, ServiceThread
from repro.serve.protocol import result_digest
from repro.sim.engine import Engine
from repro.solvers import solve_cg
from repro.stream import stream_csrmv
from repro.workloads import (
    generate_cache,
    random_csr,
    random_dense_matrix,
    random_dense_vector,
    random_fiber_pair,
    random_sparse_vector,
    random_spd_csr,
)

SERIES = [("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16)]


def _spy(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call's arguments land in the list
    returned; the call itself goes through unchanged."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _operands(kernel):
    """Small legal operands for every registered kernel."""
    if kernel == "spvv":
        return {"fiber": random_sparse_vector(256, 40, seed=1),
                "x": random_dense_vector(256, seed=2)}
    if kernel in ("csrmv", "cluster_csrmv"):
        return {"matrix": random_csr(24, 128, 200, seed=3),
                "x": random_dense_vector(128, seed=4)}
    if kernel == "csrmm":
        return {"matrix": random_csr(24, 128, 200, seed=3),
                "dense": random_dense_matrix(128, 4, seed=5)}
    if kernel == "ttv":
        rng = np.random.default_rng(6)
        cube = rng.standard_normal((4, 6, 32)) * (rng.random((4, 6, 32)) < 0.2)
        return {"tensor": CsfTensor.from_dense(cube),
                "vector": rng.standard_normal(32)}
    if kernel == "masked_spvv":
        a, b = random_fiber_pair(256, 40, 30, 0.4, seed=7)
        return {"fiber_a": a, "fiber_b": b}
    if kernel == "masked_csrmv":
        return {"matrix": random_csr(24, 128, 200, seed=3),
                "x_fiber": random_sparse_vector(128, 30, seed=8)}
    if kernel == "spgemm":
        return {"a": random_csr(12, 20, 50, seed=9),
                "b": random_csr(20, 16, 60, seed=10)}
    raise AssertionError(f"no operands for kernel {kernel!r}")


def _series(kernel):
    if api.get_kernel(kernel).has_variant:
        return SERIES
    return [(None, 32), (None, 16)]


#: The single-CC models a cluster model could call once per share.
SINGLE_CC_MODELS = ("csrmv_stats", "csrmm_stats", "spgemm_stats")


def _multicluster_operands(kernel):
    matrix = random_csr(64, 128, 640, seed=11)
    dense = {"csrmv": random_dense_vector(128, seed=12),
             "spvv_batch": random_dense_vector(128, seed=12),
             "csrmm": random_dense_matrix(128, 4, seed=13),
             "spgemm": random_csr(128, 32, 400, seed=14)}[kernel]
    if kernel == "spvv_batch":
        return [random_sparse_vector(128, 20, seed=s) for s in range(8)], \
            dense
    return matrix, dense


class TestCompiledPath:
    @pytest.fixture
    def engines(self, monkeypatch):
        return _spy(monkeypatch, Engine, "__init__")

    @pytest.mark.parametrize("kernel", api.list_kernels())
    def test_api_run_steps_no_engine(self, kernel, engines):
        ops = _operands(kernel)
        for variant, bits in _series(kernel):
            api.run(kernel, backend="compiled", variant=variant,
                    index_bits=bits, **ops)
        assert engines == []

    def test_the_spy_sees_a_cycle_run(self, engines):
        api.run("csrmv", backend="cycle", variant="issr", index_bits=16,
                **_operands("csrmv"))
        assert engines

    @pytest.mark.parametrize("kernel", ["csrmv", "csrmm", "spvv_batch",
                                        "spgemm"])
    def test_run_multicluster_steps_no_engine(self, kernel, engines):
        operand, dense = _multicluster_operands(kernel)
        run_multicluster(operand, dense, kernel=kernel, n_clusters=4,
                         backend="compiled")
        assert engines == []

    @pytest.mark.parametrize("n_clusters", [1, 4])
    def test_solve_cg_steps_no_engine(self, n_clusters, engines):
        m = random_spd_csr(48, offdiag_per_row=4, seed=15)
        b = random_dense_vector(48, seed=16)
        solve_cg(m, b, n_iters=4, backend="compiled", n_clusters=n_clusters)
        assert engines == []

    @pytest.mark.parametrize("kernel", api.list_kernels())
    def test_second_call_normalizes_no_program(self, kernel, monkeypatch):
        ops = _operands(kernel)
        for variant, bits in _series(kernel):
            api.run(kernel, backend="compiled", variant=variant,
                    index_bits=bits, **ops)
        normalized = _spy(monkeypatch, templates, "normalize_program")
        for variant, bits in _series(kernel):
            api.run(kernel, backend="compiled", variant=variant,
                    index_bits=bits, **ops)
        assert normalized == []

    def test_lowered_programs_do_not_outlive_the_program_cache(
            self, monkeypatch):
        """Rebuilding every program after each clear of the program
        cache (as each benchmark set-up does) keeps the lowering memo
        within the cache's size."""
        from repro.kernels.common import PROGRAM_CACHE

        monkeypatch.setattr(templates, "_LOWERED_BY_ID", {})
        ops = _operands("csrmv")
        for _ in range(PROGRAM_CACHE.maxsize):
            PROGRAM_CACHE.clear()
            for variant, bits in SERIES:
                api.run("csrmv", backend="compiled", variant=variant,
                        index_bits=bits, **ops)
        assert 0 < len(templates._LOWERED_BY_ID) <= PROGRAM_CACHE.maxsize

    def test_the_spy_sees_a_cold_lowering(self, monkeypatch):
        monkeypatch.setattr(templates, "_LOWERED_BY_ID", {})
        normalized = _spy(monkeypatch, templates, "normalize_program")
        api.run("csrmv", backend="compiled", variant="issr", index_bits=16,
                **_operands("csrmv"))
        assert normalized


class TestOnePassPricing:
    """Cluster and sharded models price every share in one pass, and a
    compiled sharded run replays the whole operand once."""

    @pytest.fixture
    def single_cc(self, monkeypatch):
        """Every call of a single-CC model, wherever a caller binds it."""
        calls = []
        for module in (model, compiled_backend, multicluster_model):
            for name in SINGLE_CC_MODELS:
                if hasattr(module, name):
                    original = getattr(module, name)

                    def spy(*args, _original=original, _name=name,
                            **kwargs):
                        calls.append(_name)
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_cluster_csrmv_calls_no_single_cc_model(self, variant, bits,
                                                    single_cc):
        ops = _operands("cluster_csrmv")
        api.run("cluster_csrmv", backend="compiled", variant=variant,
                index_bits=bits, **ops)
        assert single_cc == []

    @pytest.mark.parametrize("kernel", ["csrmv", "csrmm", "spvv_batch",
                                        "spgemm"])
    def test_run_multicluster_prices_no_share_alone(self, kernel,
                                                    single_cc):
        """Only the one replay's own single-CC stats: no call per share."""
        operand, dense = _multicluster_operands(kernel)
        run_multicluster(operand, dense, kernel=kernel, n_clusters=4,
                         backend="compiled")
        assert len(single_cc) == 1

    def test_the_model_spy_sees_a_single_cc_call(self, single_cc):
        ops = _operands("csrmv")
        model.csrmv_stats(ops["matrix"].row_lengths(), "issr", 16)
        api.run("csrmv", backend="compiled", variant="issr", index_bits=16,
                **ops)
        assert single_cc == ["csrmv_stats", "csrmv_stats"]

    @pytest.mark.parametrize("kernel", ["csrmv", "csrmm", "spvv_batch",
                                        "spgemm"])
    def test_run_multicluster_replays_once(self, kernel, monkeypatch):
        runs = _spy(monkeypatch, CompiledBackend, "run")
        operand, dense = _multicluster_operands(kernel)
        run_multicluster(operand, dense, kernel=kernel, n_clusters=4,
                         backend="compiled")
        assert len(runs) == 1

    def test_the_replay_spy_sees_a_single_cc_call(self, monkeypatch):
        runs = _spy(monkeypatch, CompiledBackend, "run")
        api.run("csrmv", backend="compiled", variant="issr", index_bits=16,
                **_operands("csrmv"))
        assert len(runs) == 1


class TestServeFastPath:
    """One cold phase on a fresh two-worker service, then its replay:
    the E2 CsrMV point family with a distinct x per request."""

    COLD_REQUESTS = 240
    REPLAYS = 2

    @pytest.fixture(scope="class")
    def phases(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fast-serve")
        matrix = random_csr(96, 2048, 96 * 128, seed=0)
        payloads = [{"kernel": "csrmv", "backend": "compiled",
                     "operands": {"matrix": matrix,
                                  "x": random_dense_vector(2048, seed=i)}}
                    for i in range(self.COLD_REQUESTS)]
        serve = ServiceThread(ServeConfig(
            workers=2, backends=("compiled",), cache_dir=str(tmp),
            kernel_cache_dir=str(tmp / "kernels"))).start()
        try:
            cold = serve.submit_many(payloads)
            after_cold = serve.stats()
            replayed = serve.submit_many(payloads * self.REPLAYS)
            after_replay = serve.stats()
        finally:
            serve.stop()
        return payloads, cold, after_cold, replayed, after_replay

    def test_startup_workers_serve_the_cold_phase(self, phases):
        payloads, cold, stats, _, _ = phases
        assert all(isinstance(r, dict) and r["ok"] and not r["cached"]
                   for r in cold)
        for index in (0, 7, self.COLD_REQUESTS - 1):
            ops = payloads[index]["operands"]
            _stats, y = api.run("csrmv", backend="compiled", variant="issr",
                                matrix=ops["matrix"], x=ops["x"])
            assert cold[index]["digest"] == result_digest(
                "vector", np.asarray(y))
        assert stats["scheduler"]["submitted"] == self.COLD_REQUESTS
        assert stats["pool"]["respawns"] == 0
        assert stats["pool"]["retried_batches"] == 0
        assert (stats["pool"]["pipe_bytes"]["out"]
                / stats["scheduler"]["submitted"]) < 4096
        assert stats["shm"]["live"] == 0

    def test_replays_create_no_ticket(self, phases):
        _, cold, before, replayed, after = phases
        assert all(r["cached"] for r in replayed)
        assert after["scheduler"]["submitted"] == \
            before["scheduler"]["submitted"]
        assert (after["cache"]["fastpath_hits"]
                - before["cache"]["fastpath_hits"]) == len(replayed)
        digests = [r["digest"] for r in cold] * self.REPLAYS
        assert [r["digest"] for r in replayed] == digests
        assert len(set(digests)) == self.COLD_REQUESTS


class TestOutOfCorePath:
    NROWS = 20_000
    BUDGET = 256 << 10

    @pytest.fixture(scope="class")
    def cache_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fast-ooc") / "web.csrbin"
        return generate_cache("webgraph", str(path), self.NROWS, seed=5,
                              avg_degree=8)

    def test_tiles_are_views_of_the_map(self, cache_path, monkeypatch):
        matrix = external.open_csr_cache(cache_path)
        runs = _spy(monkeypatch, CompiledBackend, "run")
        validations = _spy(monkeypatch, CsrMatrix, "__init__")
        x = np.random.default_rng(0).random(matrix.ncols)
        stats, y = stream_csrmv(matrix, x, budget_bytes=self.BUDGET)
        tiles = [kwargs["matrix"] for _args, kwargs in runs]
        assert len(tiles) == stats.tiles > 1
        for tile in tiles:
            assert np.shares_memory(tile.idcs, matrix.idcs)
            assert np.shares_memory(tile.vals, matrix.vals)
        assert validations == []
        assert np.isfinite(y).all()
        assert stats.peak_resident_bytes <= self.BUDGET

    def test_open_reads_no_payload(self, cache_path, monkeypatch):
        checksums = _spy(monkeypatch, external, "_sha256_arrays")
        validations = _spy(monkeypatch, CsrMatrix, "__init__")
        matrix = external.open_csr_cache(cache_path)
        assert checksums == [] and validations == []
        for arr in (matrix.ptr, matrix.idcs, matrix.vals):
            assert np.shares_memory(arr, matrix._raw)
        matrix.materialize()
        assert validations  # the spy sees a validated construction

    def test_ingest_streams_blocks(self, tmp_path, monkeypatch):
        blocks = _spy(monkeypatch, external.CsrCacheWriter, "append_rows")
        validations = _spy(monkeypatch, CsrMatrix, "__init__")
        generate_cache("webgraph", str(tmp_path / "w.csrbin"), 3 * 1000 + 1,
                       seed=5, avg_degree=8, block_rows=1000)
        assert [len(args[1]) for args, _ in blocks] == [1000, 1000, 1000, 1]
        assert validations == []
