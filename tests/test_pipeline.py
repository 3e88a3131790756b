"""Pipeline subsystem: IR, buffer manager, glue kernels, executors.

The contracts under test (see ISSUE 4):

- every glue kernel's cycle-stepped run matches its analytic model
  *exactly* on the single-CC harness and its NumPy replay bit for bit;
- the tolerance registry has one entry per registered kernel;
- buffer planning reuses disjoint temps, spills deterministically,
  and refuses un-shardable matrices;
- whole pipelines are bit-identical across backends (results,
  recorded histories, early-stop), with cycles inside
  ``CYCLE_TOLERANCE["pipeline"]`` and zero matrix re-DMA.
"""

import numpy as np
import pytest

from repro.backends import BACKENDS
from repro.backends.model import (
    CYCLE_TOLERANCE,
    KERNEL_TOLERANCE,
    cycle_tolerance,
    cycles_within_tolerance,
    glue_cycles,
    glue_stats,
)
from repro.errors import ConfigError
from repro.kernels.blas1 import GLUE_KINDS, apply_glue, run_glue
from repro.pipeline import Pipeline, plan_buffers, run_pipeline
from repro.pipeline.buffers import temp_liveness
from repro.pipeline.executor import partition_pipeline
from repro.solvers import build_cg_pipeline, solve_cg
from repro.workloads import random_dense_vector, random_spd_csr


class TestToleranceRegistry:
    def test_every_kernel_has_a_tolerance(self):
        """Satellite: one registry, complete over the kernel surface."""
        for kernel, family in KERNEL_TOLERANCE.items():
            assert family in CYCLE_TOLERANCE, (kernel, family)
            rel, slack = cycle_tolerance(kernel)
            assert 0.0 < rel < 1.0 and slack >= 0

    def test_every_backend_kernel_is_registered(self):
        """Every dispatchable kernel maps to a tolerance."""
        from repro.api import KERNELS
        missing = [k for k in KERNELS if k not in KERNEL_TOLERANCE]
        assert not missing, f"no tolerance family for {missing}"
        # both backends implement the whole registry
        for cls in BACKENDS.values():
            assert cls().kernels() == list(KERNELS), cls.name

    def test_pipeline_family_registered(self):
        assert KERNEL_TOLERANCE["pipeline"] == "pipeline"
        assert "pipeline" in CYCLE_TOLERANCE

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            cycle_tolerance("warp-drive")

    def test_within_tolerance_helper(self):
        rel, slack = cycle_tolerance("single")
        assert cycles_within_tolerance(1000 + slack, 1000, "single")
        assert not cycles_within_tolerance(
            int(1000 * (1 + rel) + slack + 10), 1000, "single")


class TestGlueKernels:
    @pytest.mark.parametrize("kind", GLUE_KINDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 33])
    def test_cycle_matches_model_and_replay(self, kind, n):
        rng = np.random.default_rng(7 + n)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        dinv = 1.0 / (1.0 + np.abs(rng.standard_normal(n)))
        stats, result = run_glue(kind, x, y=y, alpha=0.375, dinv=dinv)
        # the scalar glue loops are exactly linear on ideal memory
        assert stats.cycles == glue_cycles(kind, n)
        model = glue_stats(kind, n)
        assert model.cycles == stats.cycles
        assert model.fpu_mac_ops == stats.fpu_mac_ops
        assert model.fpu_compute_ops == stats.fpu_compute_ops
        expect = apply_glue(kind, x, y=y, alpha=0.375, dinv=dinv)
        got = np.asarray(result, dtype=np.float64)
        assert got.tobytes() == np.asarray(expect,
                                           dtype=np.float64).tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            run_glue("fma9", [1.0])


def _toy_pipeline(matrix, b, **vector_kwargs):
    pipe = Pipeline("toy", variant="issr", index_bits=16)
    pipe.add_matrix("A", matrix)
    pipe.add_vector("x", init=b, replicated=True)
    pipe.add_vector("y", length=matrix.nrows, **vector_kwargs)
    pipe.add_scalar("nn")
    pipe.add_stage("csrmv", matrix="A", x="x", y="y")
    pipe.add_stage("dot", x="y", y="y", out="nn")
    pipe.record = ["nn"]
    pipe.outputs = ["y"]
    return pipe


class TestPipelineIr:
    def test_unknown_buffer_rejected(self):
        pipe = Pipeline("p")
        with pytest.raises(ConfigError):
            pipe.add_stage("copy", x="nope", y="nada")

    def test_csrmv_needs_replicated_input(self):
        m = random_spd_csr(8, 2, seed=1)
        pipe = Pipeline("p")
        pipe.add_matrix("A", m)
        pipe.add_vector("x", length=8)  # not replicated
        pipe.add_vector("y", length=8)
        with pytest.raises(ConfigError):
            pipe.add_stage("csrmv", matrix="A", x="x", y="y")

    def test_duplicate_names_rejected(self):
        pipe = Pipeline("p")
        pipe.add_scalar("a")
        with pytest.raises(ConfigError):
            pipe.add_vector("a", length=4)

    def test_temp_cannot_have_init(self):
        pipe = Pipeline("p")
        with pytest.raises(ConfigError):
            pipe.add_vector("t", init=[1.0], temp=True)

    def test_temp_read_before_write_rejected(self):
        pipe = Pipeline("p")
        pipe.add_vector("t", length=4, temp=True)
        pipe.add_vector("o", length=4)
        pipe.add_stage("copy", x="t", y="o")
        with pytest.raises(ConfigError):
            temp_liveness(pipe)

    def test_host_stage_needs_callable(self):
        pipe = Pipeline("p")
        with pytest.raises(ConfigError):
            pipe.add_stage("host", fn=None)

    def test_validate_checks_outputs_and_shapes(self):
        m = random_spd_csr(8, 2, seed=1)
        pipe = _toy_pipeline(m, np.ones(8))
        pipe.outputs = ["missing"]
        with pytest.raises(ConfigError):
            pipe.validate()

    def test_cyclic_partition_rejected(self):
        m = random_spd_csr(16, 2, seed=1)
        pipe = _toy_pipeline(m, np.ones(16))
        with pytest.raises(ConfigError):
            partition_pipeline(pipe, 4, "cyclic")


class TestBufferPlanning:
    def test_disjoint_temps_share_words(self):
        m = random_spd_csr(16, 2, seed=1)
        pipe = Pipeline("p", index_bits=16)
        pipe.add_matrix("A", m)
        pipe.add_vector("x", init=np.ones(16), replicated=True)
        pipe.add_vector("t1", length=16, temp=True)
        pipe.add_vector("t2", length=16, temp=True)
        pipe.add_vector("out", length=16)
        pipe.add_scalar("a", 1.0)
        pipe.add_stage("csrmv", matrix="A", x="x", y="t1")
        pipe.add_stage("copy", x="t1", y="out")     # t1 dies here
        pipe.add_stage("scale", x="out", y="t2", alpha="a")
        pipe.add_stage("copy", x="t2", y="out")
        plan = plan_buffers(pipe, {"A": m}, 16, tcdm_words=4096)
        assert plan.offsets["t1"] == plan.offsets["t2"]  # reused
        assert not plan.spilled

    def test_overlapping_temps_do_not_share(self):
        m = random_spd_csr(16, 2, seed=1)
        pipe = Pipeline("p", index_bits=16)
        pipe.add_matrix("A", m)
        pipe.add_vector("x", init=np.ones(16), replicated=True)
        pipe.add_vector("t1", length=16, temp=True)
        pipe.add_vector("t2", length=16, temp=True)
        pipe.add_vector("out", length=16)
        pipe.add_scalar("a", 1.0)
        pipe.add_stage("csrmv", matrix="A", x="x", y="t1")
        pipe.add_stage("scale", x="t1", y="t2", alpha="a")
        pipe.add_stage("axpy", x="t1", y="t2", alpha="a")  # both live
        pipe.add_stage("copy", x="t2", y="out")
        plan = plan_buffers(pipe, {"A": m}, 16, tcdm_words=4096)
        assert plan.offsets["t1"] != plan.offsets["t2"]

    def test_spill_plan_is_deterministic(self):
        m = random_spd_csr(64, 4, seed=2)
        pipe = build_cg_pipeline(m, np.ones(64), index_bits=16)
        big = plan_buffers(pipe, {"A": m}, 64, tcdm_words=32768)
        assert not big.spilled
        small = plan_buffers(pipe, {"A": m}, 64, tcdm_words=640)
        assert small.spilled
        again = plan_buffers(pipe, {"A": m}, 64, tcdm_words=640)
        assert small.spilled == again.spilled
        assert small.staging_offsets  # spills stage through TCDM slots
        assert small.total_words <= 640 - 64

    def test_matrix_too_big_errors(self):
        m = random_spd_csr(64, 4, seed=2)
        pipe = build_cg_pipeline(m, np.ones(64), index_bits=16)
        with pytest.raises(ConfigError, match="shard it across"):
            plan_buffers(pipe, {"A": m}, 64, tcdm_words=128)


class TestPipelineExecution:
    def test_backends_bit_identical_and_no_redma(self):
        m = random_spd_csr(48, 4, seed=3, dominance=2.0)
        b = random_dense_vector(48, seed=5)
        pipe_k = _toy_pipeline(m, b)
        stats_k, out_k = run_pipeline(pipe_k, 4, backend="compiled")
        pipe_c = _toy_pipeline(m, b)
        stats_c, out_c = run_pipeline(pipe_c, 4, backend="cycle")
        assert out_k["y"].tobytes() == out_c["y"].tobytes()
        assert stats_k.history["nn"] == stats_c.history["nn"]
        assert cycles_within_tolerance(stats_k.cycles, stats_c.cycles,
                                       "pipeline")
        # the matrix moved once, at setup; iterations move nothing
        assert stats_c.matrix_dma_words > 0
        assert stats_c.dma_words_by_iteration == [0, 0, 0, 0]
        assert stats_k.dma_words_by_iteration == [0, 0, 0, 0]

    def test_spilled_run_matches_resident_run(self):
        m = random_spd_csr(64, 4, seed=3, dominance=2.0)
        b = random_dense_vector(64, seed=5)
        resident = solve_cg(m, b, index_bits=16, n_iters=6, tol=0.0,
                            backend="cycle")
        assert resident.stats.spilled == []
        spilled_c = solve_cg(m, b, index_bits=16, n_iters=6, tol=0.0,
                             backend="cycle", tcdm_bytes=5120)
        spilled_k = solve_cg(m, b, index_bits=16, n_iters=6, tol=0.0,
                             backend="compiled", tcdm_bytes=5120)
        assert spilled_c.stats.spilled  # the tiny TCDM forced evictions
        assert spilled_c.x.tobytes() == resident.x.tobytes()
        assert spilled_k.x.tobytes() == resident.x.tobytes()
        assert spilled_c.stats.dma_words_by_iteration == \
            spilled_k.stats.dma_words_by_iteration
        assert all(w > 0 for w in spilled_c.stats.dma_words_by_iteration)

    def test_early_stop_matches_across_backends(self):
        m = random_spd_csr(32, 3, seed=9, dominance=2.0)
        b = random_dense_vector(32, seed=2)
        f = solve_cg(m, b, index_bits=16, n_iters=50, tol=1e-6,
                     backend="compiled")
        c = solve_cg(m, b, index_bits=16, n_iters=50, tol=1e-6,
                     backend="cycle")
        assert f.converged and c.converged
        assert f.iterations == c.iterations < 50

    def test_bad_backend_and_iters(self):
        m = random_spd_csr(8, 2, seed=1)
        pipe = _toy_pipeline(m, np.ones(8))
        with pytest.raises(ConfigError):
            run_pipeline(pipe, 0)
        with pytest.raises(ConfigError):
            run_pipeline(pipe, 1, backend="rtl")

    def test_per_stage_cycles_cover_total(self):
        m = random_spd_csr(24, 3, seed=4, dominance=2.0)
        pipe = _toy_pipeline(m, random_dense_vector(24, seed=1))
        stats, _ = run_pipeline(pipe, 3, backend="compiled")
        assert stats.iterations == 3
        assert set(stats.per_stage) == {"csrmv", "dot"}
        assert sum(stats.per_stage.values()) <= stats.cycles
        assert stats.cycles_per_iteration > 0
