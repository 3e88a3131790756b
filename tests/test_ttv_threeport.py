"""Tests for the CSF TTV kernel and the three-port ISSR configuration."""

import numpy as np
import pytest

from repro import api
from repro.errors import FormatError
from repro.formats import CsfTensor
from repro.kernels.spvv import run_spvv
from repro.kernels.ttv import run_ttv
from repro.sim import SingleCC
from repro.workloads import random_dense_vector, random_sparse_vector


def random_tensor(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(shape)
    dense[rng.random(shape) > density] = 0.0
    return CsfTensor.from_dense(dense), dense


class TestTtv:
    def test_order2(self):
        t, dense = random_tensor((12, 48), 0.3, 1)
        v = random_dense_vector(48, seed=2)
        stats, out = run_ttv(t, v)
        assert np.allclose(out, dense @ v)

    def test_order3(self):
        t, dense = random_tensor((5, 7, 32), 0.25, 3)
        v = random_dense_vector(32, seed=4)
        stats, out = run_ttv(t, v)
        assert np.allclose(out, dense @ v)
        assert out.shape == (5, 7)

    def test_order4(self):
        t, dense = random_tensor((3, 4, 5, 16), 0.3, 5)
        v = random_dense_vector(16, seed=6)
        _, out = run_ttv(t, v, index_bits=16)
        assert np.allclose(out, dense @ v)

    def test_empty_tensor(self):
        t = CsfTensor.from_coo(np.zeros((0, 3), dtype=int), [], (2, 3, 8))
        stats, out = run_ttv(t, np.ones(8))
        assert np.all(out == 0)

    @pytest.mark.parametrize("shape", [(12, 48), (6, 7, 32), (4, 5, 6, 16),
                                       (2, 3, 8)])
    def test_leaf_scatter_matches_the_reference(self, shape):
        """Every leaf fiber's result lands at its upper coordinates on
        both backends, byte for byte against ``tensor.ttv``. Small
        nonzero integers sum exactly in any order, so the kernel's
        staggered order and ``np.dot`` agree. Each level drops random
        subtrees, so upper-level nodes hold different numbers of
        children; ``(2, 3, 8)`` is empty."""
        rng = np.random.default_rng(0)
        density = np.full(shape[:-1] + (1,), 0.0 if shape == (2, 3, 8)
                          else 0.5)
        for level in range(len(shape) - 1):
            keep = rng.random(shape[:level + 1]) < 0.75
            density *= keep.reshape(keep.shape + (1,) * (len(shape) - 1
                                                         - level))
        values = rng.integers(1, 5, shape) * rng.choice([-1.0, 1.0], shape)
        values[rng.random(shape) >= density] = 0.0
        tensor = CsfTensor.from_dense(values)
        assert tensor.nnz or shape == (2, 3, 8)
        for ptr in tensor.ptrs[:-1] if tensor.nnz else ():
            assert len(set(np.diff(ptr))) > 1  # uneven child counts
        vector = rng.integers(1, 9, shape[-1]) * 1.0
        want = tensor.ttv(vector).tobytes()
        for backend in ("cycle", "compiled"):
            for bits in (32, 16):
                _stats, out = api.run("ttv", backend=backend, index_bits=bits,
                                      tensor=tensor, vector=vector)
                assert out.tobytes() == want, (backend, bits)

    def test_short_vector_rejected(self):
        t, _ = random_tensor((4, 16), 0.5, 7)
        with pytest.raises(FormatError):
            run_ttv(t, np.ones(4))

    def test_type_check(self):
        with pytest.raises(FormatError):
            api.run("ttv", backend="cycle", tensor="nope", vector=np.ones(4))

    def test_utilization_scales_with_fiber_length(self):
        dense = np.zeros((8, 256))
        dense[:, ::2] = 1.0  # long leaf fibers (128 nnz each)
        t = CsfTensor.from_dense(dense)
        stats, _ = run_ttv(t, np.ones(256), index_bits=16)
        assert stats.fpu_utilization > 0.55


class TestThreePort:
    def test_spvv_reaches_full_utilization(self):
        """§II-B: three ports remove the 4/5 / 2/3 mux cap."""
        x = random_dense_vector(4096, seed=8)
        fiber = random_sparse_vector(4096, 4096, seed=9)
        two_port, _ = run_spvv(fiber, x, "issr", 16, sim=SingleCC())
        three_port, _ = run_spvv(fiber, x, "issr", 16,
                                 sim=SingleCC(three_port=True))
        assert two_port.fpu_utilization <= 0.8 + 1e-9
        assert three_port.fpu_utilization > 0.95

    def test_three_port_32bit(self):
        x = random_dense_vector(2048, seed=10)
        fiber = random_sparse_vector(2048, 2048, seed=11)
        stats, _ = run_spvv(fiber, x, "issr", 32,
                            sim=SingleCC(three_port=True))
        assert stats.fpu_utilization > 0.95

    def test_results_identical(self):
        x = random_dense_vector(512, seed=12)
        fiber = random_sparse_vector(512, 200, seed=13)
        _, r2 = run_spvv(fiber, x, "issr", 16, sim=SingleCC())
        _, r3 = run_spvv(fiber, x, "issr", 16, sim=SingleCC(three_port=True))
        assert r2 == r3


class TestCli:
    def test_static_experiments(self, capsys):
        from repro.eval.__main__ import main
        assert main(["E5", "E6"]) == 0
        out = capsys.readouterr().out
        assert "Area" in out and "Timing" in out

    def test_unknown_id(self):
        from repro.eval.__main__ import main
        with pytest.raises(SystemExit):
            main(["E99"])
