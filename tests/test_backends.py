"""Backend parity, the parallel runner, and their support fixes.

The contract under test: ``CompiledBackend`` results are
**bit-identical** to ``CycleBackend`` for every kernel variant and
index width, and its predicted cycles fall within the documented
tolerance (``repro.backends.CYCLE_TOLERANCE`` relative +
``CYCLE_SLACK`` absolute).
"""

import os

import numpy as np
import pytest

from repro.backends import (
    BACKENDS,
    CompiledBackend,
    CycleBackend,
    cycle_tolerance,
    cycles_within_tolerance,
    get_backend,
)
from repro.errors import ConfigError, DeadlockError
from repro.formats.csf import CsfTensor
from repro.kernels.common import PROGRAM_CACHE, ProgramCache
from repro.sim.engine import Engine
from repro.workloads import (
    get_spec,
    random_csr,
    random_dense_matrix,
    random_dense_vector,
    random_sparse_vector,
)

ALL_KERNELS = [("base", 32), ("base", 16), ("ssr", 32), ("ssr", 16),
               ("issr", 32), ("issr", 16)]


def assert_cycles_close(predicted, cycle, kind="single"):
    rel, _slack = cycle_tolerance(kind)
    assert cycles_within_tolerance(predicted, cycle, kind), \
        f"predicted {predicted} vs simulated {cycle} cycles (tol {rel:.0%})"


@pytest.fixture(scope="module")
def backends():
    return CycleBackend(), CompiledBackend()


class TestRegistry:
    def test_names(self):
        assert list(BACKENDS) == ["cycle", "compiled"]

    def test_get_backend(self):
        assert get_backend("compiled").name == "compiled"
        assert get_backend("fast").name == "compiled"  # accepted alias
        assert get_backend(None).name == "cycle"
        inst = CompiledBackend()
        assert get_backend(inst) is inst

    def test_unknown(self):
        with pytest.raises(ConfigError):
            get_backend("rtl")


class TestSpvvParity:
    @pytest.mark.parametrize("variant,bits", ALL_KERNELS)
    @pytest.mark.parametrize("nnz", [0, 1, 5, 64])
    def test_parity(self, backends, variant, bits, nnz):
        cycle, comp = backends
        dim = max(nnz, 8)
        x = random_dense_vector(dim, seed=1)
        fiber = random_sparse_vector(dim, nnz, seed=2 + nnz)
        s_cyc, r_cyc = cycle.run("spvv", variant=variant, index_bits=bits,
                                 fiber=fiber, x=x)
        s_comp, r_comp = comp.run("spvv", variant=variant, index_bits=bits,
                                  fiber=fiber, x=x)
        assert np.float64(r_comp).tobytes() == np.float64(r_cyc).tobytes()
        assert_cycles_close(s_comp.cycles, s_cyc.cycles)
        assert s_comp.fpu_mac_ops == s_cyc.fpu_mac_ops
        assert s_comp.fpu_compute_ops == s_cyc.fpu_compute_ops


class TestCsrmvParity:
    @pytest.mark.parametrize("variant,bits", ALL_KERNELS)
    @pytest.mark.parametrize("nrows,npr,dist", [
        (8, 2, "uniform"),        # mostly short rows + empties
        (16, 12, "powerlaw"),     # mixed short/long rows
        (12, 24, "constant"),     # all-FREP rows
        (6, 0, "uniform"),        # all-empty matrix
    ])
    def test_parity(self, backends, variant, bits, nrows, npr, dist):
        cycle, comp = backends
        matrix = random_csr(nrows, 128, nrows * npr, distribution=dist, seed=5)
        x = random_dense_vector(128, seed=1)
        s_cyc, y_cyc = cycle.run("csrmv", variant=variant, index_bits=bits,
                                 matrix=matrix, x=x)
        s_comp, y_comp = comp.run("csrmv", variant=variant, index_bits=bits,
                                  matrix=matrix, x=x)
        assert y_comp.tobytes() == y_cyc.tobytes()  # bit-identical
        assert_cycles_close(s_comp.cycles, s_cyc.cycles)
        assert s_comp.fpu_mac_ops == s_cyc.fpu_mac_ops
        assert s_comp.fpu_compute_ops == s_cyc.fpu_compute_ops
        assert s_comp.mem_writes == s_cyc.mem_writes


class TestCsrmmParity:
    @pytest.mark.parametrize("variant,bits", ALL_KERNELS)
    def test_parity(self, backends, variant, bits):
        cycle, comp = backends
        matrix = random_csr(10, 64, 60, seed=7)
        dense = random_dense_matrix(64, 4, seed=8)
        s_cyc, c_cyc = cycle.run("csrmm", variant=variant, index_bits=bits,
                                 matrix=matrix, dense=dense)
        s_comp, c_comp = comp.run("csrmm", variant=variant, index_bits=bits,
                                  matrix=matrix, dense=dense)
        assert c_comp.tobytes() == c_cyc.tobytes()
        assert_cycles_close(s_comp.cycles, s_cyc.cycles)
        assert s_comp.fpu_mac_ops == s_cyc.fpu_mac_ops

    def test_non_power_of_two_rejected(self, backends):
        _, comp = backends
        matrix = random_csr(4, 16, 8, seed=1)
        with pytest.raises(ValueError):
            comp.run("csrmm", variant="issr", index_bits=16, matrix=matrix,
                     dense=random_dense_matrix(16, 3, seed=1))


class TestTtvParity:
    @pytest.mark.parametrize("bits", [16, 32])
    def test_parity(self, backends, bits):
        cycle, comp = backends
        rng = np.random.default_rng(3)
        dense = np.zeros((3, 4, 12))
        mask = rng.random(dense.shape) < 0.4
        dense[mask] = rng.standard_normal(int(mask.sum()))
        tensor = CsfTensor.from_dense(dense)
        v = random_dense_vector(12, seed=4)
        s_cyc, r_cyc = cycle.run("ttv", index_bits=bits, tensor=tensor,
                                 vector=v)
        s_comp, r_comp = comp.run("ttv", index_bits=bits, tensor=tensor,
                                  vector=v)
        assert r_comp.tobytes() == r_cyc.tobytes()
        assert_cycles_close(s_comp.cycles, s_cyc.cycles)


class TestClusterParity:
    @pytest.mark.parametrize("variant,bits", [("base", 32), ("issr", 16)])
    def test_parity(self, backends, variant, bits):
        cycle, comp = backends
        matrix = get_spec("G11").generate(seed=1, scale=0.25)
        x = random_dense_vector(matrix.ncols, seed=1)
        s_cyc, y_cyc = cycle.run("cluster_csrmv", variant=variant,
                                 index_bits=bits, matrix=matrix, x=x)
        s_comp, y_comp = comp.run("cluster_csrmv", variant=variant,
                                  index_bits=bits, matrix=matrix, x=x)
        assert y_comp.tobytes() == y_cyc.tobytes()
        assert_cycles_close(s_comp.cycles, s_cyc.cycles, kind="cluster")
        assert len(s_comp.per_core) == len(s_cyc.per_core)
        # per-core utilization tracks the simulator
        peak_cyc = max(c.fpu_utilization for c in s_cyc.per_core)
        peak_comp = max(c.fpu_utilization for c in s_comp.per_core)
        assert peak_comp == pytest.approx(peak_cyc, rel=0.25, abs=0.02)

    def test_custom_cluster_config_honored(self, backends):
        from repro.cluster import SnitchCluster
        cycle, comp = backends
        matrix = get_spec("Ragusa18").generate(seed=1)
        x = random_dense_vector(matrix.ncols, seed=1)
        s_cyc, y_cyc = cycle.run(
            "cluster_csrmv", variant="issr", index_bits=16, matrix=matrix,
            x=x, cluster=SnitchCluster(n_workers=4))
        s_comp, y_comp = comp.run(
            "cluster_csrmv", variant="issr", index_bits=16, matrix=matrix,
            x=x, cluster=SnitchCluster(n_workers=4))
        assert len(s_cyc.per_core) == len(s_comp.per_core) == 4
        assert y_comp.tobytes() == y_cyc.tobytes()
        assert_cycles_close(s_comp.cycles, s_cyc.cycles, kind="cluster")

    def test_unmodeled_kwargs_rejected(self, backends):
        _, comp = backends
        matrix = get_spec("Ragusa18").generate(seed=1)
        x = random_dense_vector(matrix.ncols, seed=1)
        with pytest.raises(ConfigError):
            comp.run("cluster_csrmv", variant="issr", index_bits=16,
                     matrix=matrix, x=x, tile_rows=4)


class TestFastExperiments:
    def test_e2_schema_matches_cycle(self):
        from repro.eval.experiments import run_experiment
        kw = dict(nnz_per_row=(2, 16), nrows=24, ncols=128)
        comp = run_experiment("E2", backend="fast", **kw)
        cyc = run_experiment("E2", backend="cycle", **kw)
        assert comp.columns == cyc.columns
        assert [r[0] for r in comp.rows] == [r[0] for r in cyc.rows]
        assert set(comp.measured) == set(cyc.measured)

    def test_e4_power_runs_on_fast(self):
        from repro.eval.experiments import run_experiment
        r = run_experiment("E4", backend="fast",
                           specs=[get_spec("bcsstk13")], scale=0.02)
        assert r.rows[0][6] > 1.3  # energy gain


class TestParallelRunner:
    def test_map_matches_serial(self, tmp_path):
        from repro.eval import fig4b
        from repro.eval.parallel import ParallelRunner
        params = [{"npr": npr, "nrows": 12, "ncols": 64, "seed": 1,
                   "backend": "compiled"} for npr in (1, 3, 5)]
        runner = ParallelRunner(processes=2, cache_dir=str(tmp_path))
        outs = runner.map(fig4b.point, params)
        serial = [fig4b.point(p) for p in params]
        assert outs == serial

    def test_results_cached_on_disk(self, tmp_path):
        from repro.eval.parallel import ParallelRunner
        calls = tmp_path / "calls"
        calls.mkdir()
        runner = ParallelRunner(processes=1, cache_dir=str(tmp_path / "c"))

        def fn(params):
            (calls / f"{params['v']}-{os.getpid()}").touch()
            return params["v"] * 2

        assert runner.map(fn, [{"v": 1}, {"v": 2}]) == [2, 4]
        n_first = len(list(calls.iterdir()))
        assert runner.map(fn, [{"v": 1}, {"v": 2}]) == [2, 4]
        assert len(list(calls.iterdir())) == n_first  # pure cache hits

    def test_cache_keyed_by_params(self, tmp_path):
        from repro.eval.parallel import point_key

        def fn(params):
            return None

        k1 = point_key(fn, {"npr": 1, "backend": "compiled"})
        k2 = point_key(fn, {"npr": 2, "backend": "compiled"})
        k3 = point_key(fn, {"npr": 1, "backend": "cycle"})
        assert len({k1, k2, k3}) == 3

    def test_no_cache_mode(self, tmp_path):
        from repro.eval.parallel import ParallelRunner
        runner = ParallelRunner(processes=1, cache_dir=str(tmp_path),
                                use_cache=False)
        assert runner.map(lambda p: p["v"], [{"v": 9}]) == [9]
        assert not any(p.suffix == ".pkl" for p in tmp_path.rglob("*"))


class TestProgramCache:
    def test_lru_eviction(self):
        cache = ProgramCache(maxsize=2)
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda k=key: k.upper())
        assert len(cache) == 2
        assert "a" not in cache and "c" in cache
        # touching "b" protects it from the next eviction
        cache.get_or_build("b", lambda: pytest.fail("should be cached"))
        cache.get_or_build("d", lambda: "D")
        assert "b" in cache and "c" not in cache

    def test_per_process_reset(self):
        cache = ProgramCache(maxsize=4)
        cache.get_or_build("k", lambda: "V")
        cache._pid = -1  # simulate crossing a fork boundary
        built = []
        assert cache.get_or_build("k", lambda: built.append(1) or "V2") == "V2"
        assert built  # rebuilt, not inherited

    def test_pickling_drops_entries(self):
        import pickle
        cache = ProgramCache(maxsize=4)
        cache.get_or_build("k", lambda: object())  # unpicklable entry
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 4
        assert len(clone) == 0

    def test_shared_cache_bounds_kernel_programs(self):
        from repro.kernels.csrmv import build_csrmv
        p1, _ = build_csrmv("issr", 16)
        p2, _ = build_csrmv("issr", 16)
        assert p1 is p2  # cached
        assert PROGRAM_CACHE.maxsize >= 16

    def test_invalid_maxsize(self):
        with pytest.raises(ConfigError):
            ProgramCache(maxsize=0)


class TestDeadlockDiagnostics:
    def test_report_names_silent_components(self):
        class Stuck:
            name = "stuck0"

            def tick(self):
                pass

        engine = Engine(watchdog=10)
        engine.add(Stuck())
        engine.at(10_000, lambda: None)
        with pytest.raises(DeadlockError) as err:
            engine.run(lambda: False, max_cycles=1000)
        msg = str(err.value)
        assert "stuck0" in msg
        assert "pending event-wheel cycles: 10000" in msg

    def test_report_tracks_progressing_component(self):
        class Worker:
            name = "worker0"

            def __init__(self, engine, until):
                self.engine = engine
                self.until = until

            def tick(self):
                if self.engine.cycle < self.until:
                    self.engine.note_progress()

        engine = Engine(watchdog=5)
        engine.add(Worker(engine, until=7))
        with pytest.raises(DeadlockError) as err:
            engine.run(lambda: False, max_cycles=1000)
        assert "worker0@6" in str(err.value)

    def test_max_cycles_report(self):
        engine = Engine(watchdog=10_000)
        engine.add(type("T", (), {"tick": lambda self: None})())
        with pytest.raises(DeadlockError) as err:
            engine.run(lambda: False, max_cycles=20)
        assert "max_cycles" in str(err.value)
        assert "event wheel empty" in str(err.value)
