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
from repro.api.registry import (
    RESULT_KINDS,
    KernelSpec,
    check_index_width,
    get_kernel,
)
from repro.backends import (
    BACKENDS,
    CYCLE_TOLERANCE,
    KERNEL_TOLERANCE,
    Backend,
    get_backend,
)
from repro.errors import (
    ConfigError,
    FormatError,
    RequestError,
    UnsupportedKernelError,
)
from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix
from repro.formats.fiber import SparseFiber
from repro.multicluster import run_multicluster
from repro.serve.protocol import validate_request
from repro.stream import stream_csrmv, stream_spvv
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
    if kernel == "csrmm":
        return {"matrix": wide, "dense": np.ones((70001, 2))}
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


    @pytest.mark.parametrize("backend", ["cycle", "compiled"])
    def test_first_index_past_the_width_raises(self, backend):
        """``ncols = 2**16 + 1`` admits index 2**16, which still raises
        at 16 bits."""
        matrix = CsrMatrix([0, 2], [5, 1 << 16], [1.0, 2.0], (1, (1 << 16) + 1))
        with pytest.raises(FormatError,
                           match="index 65536 does not fit in 16 bits"):
            api.run("csrmv", backend=backend, variant="issr", index_bits=16,
                    matrix=matrix, x=np.ones((1 << 16) + 1))

    @pytest.mark.parametrize("ncols,scans", [(1 << 16, 0), ((1 << 16) + 1, 1)])
    def test_no_scan_when_the_bound_fits(self, ncols, scans):
        """A format's index bound within the width skips the scan."""
        calls = []

        class SpyIndices(np.ndarray):
            def max(self, *args, **kwargs):
                calls.append(1)
                return np.asarray(self).max(*args, **kwargs)

        matrix = CsrMatrix([0, 2], [5, ncols - 1], [1.0, 2.0], (1, ncols))
        matrix.idcs = matrix.idcs.view(SpyIndices)
        fiber = SparseFiber([3, ncols - 1], [1.0, 2.0], dim=ncols)
        fiber.indices = fiber.indices.view(SpyIndices)
        operands = {"matrix": matrix, "x_fiber": fiber}
        if scans:
            with pytest.raises(FormatError):
                check_index_width(get_kernel("masked_csrmv"), operands, 16)
        else:
            check_index_width(get_kernel("masked_csrmv"), operands, 16)
        assert len(calls) == scans


def wrong_format(value):
    """A legal operand of another sparse format than ``value``'s."""
    if isinstance(value, SparseFiber):
        return CsrMatrix.from_dense(value.to_dense()[None, :])
    if isinstance(value, CsrMatrix):
        return value.row(0)
    return CsrMatrix.from_dense(np.ones((2, 2)))


def broken_cases():
    """Each registered kernel's :func:`small_operands` with one operand
    broken at a time: ``(kernel, operands, variant, index_bits,
    error)`` params."""
    cases = []

    def case(kernel, label, error, variant=None, index_bits=32, **broken):
        operands = {**small_operands(kernel), **broken}
        cases.append(pytest.param(kernel, operands, variant, index_bits,
                                  error, id=f"{kernel}-{label}"))

    for kernel, spec in api.KERNELS.items():
        ops = small_operands(kernel)
        for name in spec.operands:
            value = ops[name]
            if name in ("x", "vector"):
                case(kernel, f"short-{name}", FormatError, **{name: value[:2]})
                case(kernel, f"2d-{name}", FormatError,
                     **{name: value[:, None]})
            elif name == "dense":
                case(kernel, "1d-dense", FormatError, dense=value[:, 0])
                case(kernel, "short-dense", FormatError, dense=value[:2])
                case(kernel, "3-column-dense", FormatError,
                     dense=np.ones((len(value), 3)))
            else:
                case(kernel, f"ndarray-{name}", FormatError,
                     **{name: value.to_dense()})
                case(kernel, f"wrong-format-{name}", FormatError,
                     **{name: wrong_format(value)})
        if spec.has_variant:
            case(kernel, "bogus-variant", ConfigError, variant="bogus")
        case(kernel, "17-bit-index", FormatError, index_bits=16,
             **wide_operands(kernel))
    case("spgemm", "inner-dims-off-by-one", FormatError,
         b=random_csr(13, 8, 24, seed=13))
    return cases


def every_path(kernel, operands, variant, index_bits):
    """Every path that runs ``kernel`` on ``operands``: name -> thunk.

    Both backends through ``api.run`` (cycle with ``check`` on and
    off), ``repro.stream`` for CsrMV and SpVV, and
    ``run_multicluster`` for CsrMV and SpVV (as a one-fiber
    ``spvv_batch``) on both backends, CsrMM and SpGEMM (compiled, their
    one multicluster backend), check on and off.
    """
    kw = {"variant": variant, "index_bits": index_bits}
    paths = {
        "cycle": lambda: api.run(kernel, backend="cycle", **kw, **operands),
        "cycle-nocheck": lambda: api.run(kernel, backend="cycle",
                                         check=False, **kw, **operands),
        "compiled": lambda: api.run(kernel, backend="compiled", **kw,
                                    **operands),
    }
    # the paths outside api.run take the variant's default explicitly
    kw_issr = {**kw, "variant": "issr" if variant is None else variant}
    if kernel == "csrmv":
        paths["stream_csrmv"] = lambda: stream_csrmv(
            operands["matrix"], operands["x"], tile_rows=3, **kw_issr)
    if kernel == "spvv" and isinstance(operands["fiber"], SparseFiber):
        paths["stream_spvv"] = lambda: stream_spvv(
            operands["fiber"].indices, operands["fiber"].values,
            operands["x"], chunk_nnz=4, **kw_issr)
    if kernel in ("csrmv", "spvv", "csrmm", "spgemm"):
        sparse, dense = get_kernel(kernel).operands
        backends = ("cycle", "compiled") if kernel in ("csrmv", "spvv") \
            else ("compiled",)
        batch = kernel == "spvv"  # a batch of one fiber
        for backend in backends:
            for check in (True, False):
                paths[f"multicluster-{backend}-{check}"] = (
                    lambda backend=backend, check=check: run_multicluster(
                        [operands[sparse]] if batch else operands[sparse],
                        operands[dense],
                        kernel="spvv_batch" if batch else kernel,
                        n_clusters=2, backend=backend, check=check,
                        **kw_issr))
    return paths


def admit(kernel, operands, variant, index_bits):
    """Serve admission of an in-process request."""
    return validate_request({"kernel": kernel, "variant": variant,
                             "index_bits": index_bits,
                             "operands": operands})


class TestLegalityBattery:
    """One legality check: every path raises the same typed error with
    the same message, and returns the same bytes on a legal input."""

    @pytest.mark.parametrize("kernel,operands,variant,index_bits,error",
                             broken_cases())
    def test_every_path_raises_the_same_error(self, kernel, operands,
                                              variant, index_bits, error):
        seen = {}
        for name, run in every_path(kernel, operands, variant,
                                    index_bits).items():
            with pytest.raises(error) as info:
                run()
            seen[name] = (type(info.value), str(info.value))
        assert len(set(seen.values())) == 1, seen
        message = seen["compiled"][1]
        with pytest.raises(RequestError) as info:
            admit(kernel, operands, variant, index_bits)
        assert str(info.value) == message

    @pytest.mark.parametrize("kernel", ["spvv", "csrmv", "csrmm", "ttv",
                                        "cluster_csrmv"])
    def test_integer_dense_operand_returns_equal_bytes(self, kernel):
        """An integer dense operand is legal and computes as its float64
        copy does, on every path."""
        operands = small_operands(kernel)
        name = get_kernel(kernel).operands[1]
        ints = np.rint(4 * operands[name]).astype(np.int64)
        expect = api.run(kernel, backend="compiled",
                         **{**operands, name: ints.astype(np.float64)})[1]
        operands[name] = ints
        for path, run in every_path(kernel, operands, None, 32).items():
            got = run()[1]
            assert np.asarray(got).tobytes() == \
                np.asarray(expect).tobytes(), path
        admitted = admit(kernel, operands, None, 32)["operands"][name]
        assert admitted.dtype == np.float64
        assert admitted.tobytes() == ints.astype(np.float64).tobytes()


class TestSpecImmutability:
    def test_slots_reject_ad_hoc_attributes(self):
        spec = KernelSpec("toy", operands=("x",), result="scalar",
                          tolerance_key="single", doc="toy kernel")
        with pytest.raises(AttributeError):
            spec.extra_field = 1
