"""The dispatch surface: registry and facade.

The contract under test: every kernel a backend executes is declared
once in :data:`repro.api.KERNELS`; :func:`repro.api.run` and
:meth:`Backend.run` dispatch through that declaration (validating
operands and index widths, filling the documented defaults); backends
without an implementation raise :class:`UnsupportedKernelError`.
"""

import numpy as np
import pytest

from repro import api
from repro.api.registry import RESULT_KINDS, KernelSpec, get_kernel
from repro.backends import (
    BACKENDS,
    CYCLE_TOLERANCE,
    KERNEL_TOLERANCE,
    Backend,
    get_backend,
)
from repro.errors import ConfigError, FormatError, UnsupportedKernelError
from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix
from repro.formats.fiber import SparseFiber
from repro.workloads import (
    random_csr,
    random_dense_matrix,
    random_dense_vector,
    random_fiber_pair,
    random_sparse_vector,
)


def small_operands(kernel):
    """Minimal valid operands for every registered kernel."""
    if kernel == "spvv":
        return {"fiber": random_sparse_vector(32, 9, seed=1),
                "x": random_dense_vector(32, seed=2)}
    if kernel in ("csrmv", "cluster_csrmv"):
        return {"matrix": random_csr(8, 32, 40, seed=3),
                "x": random_dense_vector(32, seed=4)}
    if kernel == "csrmm":
        return {"matrix": random_csr(6, 32, 30, seed=5),
                "dense": random_dense_matrix(32, 2, seed=6)}
    if kernel == "ttv":
        rng = np.random.default_rng(7)
        dense = np.zeros((2, 3, 8))
        mask = rng.random(dense.shape) < 0.5
        dense[mask] = rng.standard_normal(int(mask.sum()))
        return {"tensor": CsfTensor.from_dense(dense),
                "vector": random_dense_vector(8, seed=8)}
    if kernel == "masked_spvv":
        a, b = random_fiber_pair(128, 17, 15, 0.3, seed=9)
        return {"fiber_a": a, "fiber_b": b}
    if kernel == "masked_csrmv":
        return {"matrix": random_csr(6, 64, 30, seed=10),
                "x_fiber": random_sparse_vector(64, 20, seed=11)}
    if kernel == "spgemm":
        return {"a": random_csr(6, 12, 20, seed=12),
                "b": random_csr(12, 8, 24, seed=13)}
    raise AssertionError(f"no fixture for kernel {kernel!r}")


class TestRegistry:
    def test_every_spec_is_well_formed(self):
        for name, spec in api.KERNELS.items():
            assert spec.name == name
            assert spec.operands, name
            assert spec.result in RESULT_KINDS, name
            assert spec.doc, name

    def test_tolerance_keys_stay_in_sync(self):
        """Registry tolerance keys == the backends' tolerance contract."""
        for name, spec in api.KERNELS.items():
            assert spec.tolerance_key in CYCLE_TOLERANCE, name
            assert KERNEL_TOLERANCE[name] == spec.tolerance_key, name

    def test_get_kernel(self):
        assert get_kernel("csrmv").name == "csrmv"
        with pytest.raises(ConfigError, match="unknown kernel"):
            get_kernel("dense_gemm")

    def test_list_kernels(self):
        assert api.list_kernels() == list(api.KERNELS)
        assert api.list_backends() == list(BACKENDS) == ["cycle", "compiled"]
        assert get_backend("fast").name == "compiled"

    def test_validate_operands(self):
        spec = get_kernel("csrmv")
        with pytest.raises(ConfigError, match="missing"):
            spec.validate_operands({"matrix": None})
        with pytest.raises(ConfigError, match="unknown"):
            spec.validate_operands({"matrix": None, "x": None, "y": None})


class TestDispatch:
    @pytest.mark.parametrize("kernel", sorted(api.KERNELS))
    # "fast" is the accepted alias of compiled; every kernel must
    # dispatch under both spellings
    @pytest.mark.parametrize("backend", ["fast", "compiled"])
    def test_every_kernel_dispatches_on_every_backend(self, kernel, backend):
        """The full registry round-trip: run or raise, never AttributeError."""
        inst = get_backend(backend)
        if not inst.supports(kernel):
            with pytest.raises(UnsupportedKernelError):
                inst.run(kernel, **small_operands(kernel))
            return
        stats, result = inst.run(kernel, **small_operands(kernel))
        assert stats.cycles > 0
        assert result is not None

    def test_api_run_facade(self):
        ops = small_operands("csrmv")
        s_api, y_api = api.run("csrmv", backend="compiled", variant="issr",
                               index_bits=16, **ops)
        s_dir, y_dir = get_backend("compiled").run(
            "csrmv", variant="issr", index_bits=16, **ops)
        assert y_api.tobytes() == y_dir.tobytes()
        assert s_api.cycles == s_dir.cycles

    def test_defaults_match_the_documented_conventions(self):
        """No variant or width given -> issr/32 (cluster_csrmv too)."""
        for kernel in ("csrmv", "cluster_csrmv"):
            ops = small_operands(kernel)
            s_dflt, y_dflt = api.run(kernel, backend="compiled", **ops)
            s_issr, y_issr = api.run(kernel, backend="compiled",
                                     variant="issr", index_bits=32, **ops)
            assert y_dflt.tobytes() == y_issr.tobytes()
            assert s_dflt.cycles == s_issr.cycles

    def test_unsupported_kernel_error_carries_context(self):
        class NullBackend(Backend):
            name = "null"

        err = pytest.raises(UnsupportedKernelError, NullBackend().run,
                            "csrmv", **small_operands("csrmv")).value
        assert err.backend == "null"
        assert err.kernel == "csrmv"
        assert list(err.supported) == []
        assert isinstance(err, ConfigError)

    def test_unknown_operand_rejected_before_execution(self):
        with pytest.raises(ConfigError, match="unknown"):
            api.run("spvv", backend="compiled", bogus=1,
                    **small_operands("spvv"))

    def test_extra_kwargs_flow_through(self):
        """spgemm's symbolic-phase reuse knob rides the registry path."""
        from repro.formats.builder import spgemm_pattern

        ops = small_operands("spgemm")
        pattern = spgemm_pattern(ops["a"], ops["b"])
        s1, c1 = api.run("spgemm", backend="compiled", **ops)
        s2, c2 = api.run("spgemm", backend="compiled", pattern=pattern,
                         **ops)
        assert c1 == c2
        assert s1.cycles == s2.cycles


def wide_operands(kernel):
    """Operands holding one index (70000) that overflows 16 bits."""
    wide = CsrMatrix([0, 1], [70000], [3.0], (1, 70001))
    fiber = SparseFiber([70000], [3.0], dim=70001)
    if kernel in ("csrmv", "cluster_csrmv"):
        return {"matrix": wide, "x": np.ones(70001)}
    if kernel == "spvv":
        return {"fiber": fiber, "x": np.ones(70001)}
    if kernel == "ttv":
        tensor = CsfTensor((1, 70001), [[0, 1]], [[0], [70000]], [3.0])
        return {"tensor": tensor, "vector": np.ones(70001)}
    if kernel == "masked_spvv":
        return {"fiber_a": fiber, "fiber_b": fiber}
    if kernel == "masked_csrmv":
        return {"matrix": wide, "x_fiber": fiber}
    if kernel == "spgemm":
        return {"a": CsrMatrix([0, 1], [0], [2.0], (1, 1)), "b": wide}
    raise AssertionError(f"no wide operands for kernel {kernel!r}")


class TestIndexWidth:
    @pytest.mark.parametrize("kernel", ["csrmv", "spvv", "ttv",
                                        "masked_spvv", "masked_csrmv",
                                        "spgemm", "cluster_csrmv"])
    @pytest.mark.parametrize("backend", ["cycle", "compiled"])
    def test_index_overflowing_the_width_raises(self, backend, kernel):
        """Every backend rejects a 16-bit run whose index needs 17 bits."""
        with pytest.raises(FormatError,
                           match="index 70000 does not fit in 16 bits"):
            api.run(kernel, backend=backend, variant="issr", index_bits=16,
                    **wide_operands(kernel))


class TestSpecImmutability:
    def test_slots_reject_ad_hoc_attributes(self):
        spec = KernelSpec("toy", operands=("x",), result="scalar",
                          tolerance_key="single", doc="toy kernel")
        with pytest.raises(AttributeError):
            spec.extra_field = 1
