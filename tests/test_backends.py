"""Backend parity, the parallel runner, and their support fixes.

The contract under test: ``CompiledBackend`` results are
**bit-identical** to ``CycleBackend`` for every kernel variant and
index width, and its predicted cycles fall within the documented
tolerance (``repro.backends.CYCLE_TOLERANCE`` relative +
``CYCLE_SLACK`` absolute).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.backends import (
    BACKENDS,
    CompiledBackend,
    CycleBackend,
    cycle_tolerance,
    cycles_within_tolerance,
    get_backend,
)
from repro.errors import ConfigError, DeadlockError, FormatError
from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix
from repro.formats.fiber import SparseFiber
from repro.kernels.common import PROGRAM_CACHE, ProgramCache
from repro.sim.engine import Engine
from repro.stream import stream_spvv
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

    @pytest.mark.parametrize("variant,bits", ALL_KERNELS)
    def test_uniform_rows(self, backends, variant, bits):
        """The uniform closures' (nrows, k) result comes back contiguous."""
        rng = np.random.default_rng(9)
        idcs = np.concatenate([np.sort(rng.choice(64, 12, replace=False))
                               for _ in range(16)])
        matrix = CsrMatrix(np.arange(0, 17 * 12, 12), idcs,
                           rng.standard_normal(len(idcs)), (16, 64))
        dense = random_dense_matrix(64, 4, seed=10)
        results = [b.run("csrmm", variant=variant, index_bits=bits,
                         matrix=matrix, dense=dense)[1] for b in backends]
        assert results[1].flags.c_contiguous
        assert results[0].tobytes() == results[1].tobytes()

    def test_non_power_of_two_rejected(self, backends):
        _, comp = backends
        matrix = random_csr(4, 16, 8, seed=1)
        with pytest.raises(FormatError, match="power of two"):
            comp.run("csrmm", variant="issr", index_bits=16, matrix=matrix,
                     dense=random_dense_matrix(16, 3, seed=1))


#: IEEE-754 values the oracle check must accept on every backend.
SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 5e-324)


def salted(values, seed):
    """A copy of ``values`` with :data:`SPECIALS` at seeded positions."""
    out = np.array(values, dtype=np.float64)
    where = np.random.default_rng(seed).choice(
        out.size, size=len(SPECIALS), replace=False)
    out.flat[where] = SPECIALS
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf etc.
class TestNonFiniteOperands:
    """``check=True`` cycle runs return compiled's bytes on IEEE specials.

    NaN results must match the reference's NaN at the same position;
    every other element keeps the usual ``1e-9`` tolerance.
    """

    @pytest.mark.parametrize("variant,bits", ALL_KERNELS)
    def test_csrmv(self, backends, variant, bits):
        base = random_csr(16, 64, 48, seed=11)
        matrix = CsrMatrix(base.ptr, base.idcs, salted(base.vals, 12),
                           base.shape)
        x = salted(random_dense_vector(64, seed=13), 14)
        results = [b.run("csrmv", variant=variant, index_bits=bits,
                         matrix=matrix, x=x)[1] for b in backends]
        assert np.isnan(results[0]).any() and np.isfinite(results[0]).any()
        assert results[0].tobytes() == results[1].tobytes()

    @pytest.mark.parametrize("variant,bits", ALL_KERNELS)
    def test_csrmm(self, backends, variant, bits):
        base = random_csr(10, 64, 40, seed=15)
        matrix = CsrMatrix(base.ptr, base.idcs, salted(base.vals, 16),
                           base.shape)
        dense = salted(random_dense_matrix(64, 4, seed=17), 18)
        results = [b.run("csrmm", variant=variant, index_bits=bits,
                         matrix=matrix, dense=dense)[1] for b in backends]
        assert np.isnan(results[0]).any() and np.isfinite(results[0]).any()
        assert results[0].tobytes() == results[1].tobytes()

    @pytest.mark.parametrize("variant", ["base", "ssr", "issr"])
    @pytest.mark.parametrize("special", SPECIALS)
    def test_spvv(self, backends, variant, special):
        fiber = random_sparse_vector(64, 12, seed=19)
        fiber.values[3] = special
        x = random_dense_vector(64, seed=20)
        results = [b.run("spvv", variant=variant, fiber=fiber, x=x)[1]
                   for b in backends]
        assert (np.float64(results[0]).tobytes()
                == np.float64(results[1]).tobytes())


with np.errstate(invalid="ignore"):
    #: ``inf - inf``: a NaN whose payload differs from ``np.nan``'s.
    DEFAULT_NAN = np.float64(np.inf) - np.float64(np.inf)

#: Specials that can meet in one row without two NaN payloads: NaN
#: with the finite specials, or the infinities (whose ``inf - inf``
#: makes :data:`DEFAULT_NAN`) with :data:`DEFAULT_NAN` itself.
ONE_PAYLOAD_GROUPS = ((np.nan, -0.0, 5e-324),
                      (DEFAULT_NAN, np.inf, -np.inf, -0.0))


def skewed_salted_matrix(seed):
    """One 200-nnz row among short ones; every row past 0 is salted.

    Each row draws its specials from one of
    :data:`ONE_PAYLOAD_GROUPS` and the dense operand stays finite, so
    no row meets two different NaN payloads. Which payload
    ``NaN + NaN`` keeps is not pinned by IEEE-754, and the cycle
    engine's FPU inherits whatever its interpreter's float add does
    (see ROADMAP), so the test measures the reduction order alone.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 7, size=24)
    lengths[5] = 200
    ncols = 256
    idcs = np.concatenate([np.sort(rng.choice(ncols, n, replace=False))
                           for n in lengths])
    ptr = np.concatenate(([0], np.cumsum(lengths)))
    vals = rng.standard_normal(len(idcs))
    for row, length in enumerate(lengths[1:].tolist(), start=1):
        group = np.array(ONE_PAYLOAD_GROUPS[rng.integers(2)])
        count = min(length, 12 if length > 8 else 2)
        where = ptr[row] + rng.choice(length, size=count, replace=False)
        vals[where] = rng.choice(group, size=count)
    return CsrMatrix(ptr, idcs, vals, (len(lengths), ncols))


#: Rows on which two NaN payloads meet: in a chain (the first row, and
#: products 1 and 9 of the last, which share an accumulator), and in
#: the ISSR kernels' fadd tree (the middle row's two leading products
#: land on different accumulators).
TWO_PAYLOAD_ROWS = (
    (np.nan, DEFAULT_NAN, 1.0),
    (DEFAULT_NAN, np.nan, 1.0, 1.0, 2.0, 3.0, 1.0, 1.0, 1.0),
    (1.0, np.nan, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, DEFAULT_NAN),
)


class TestTwoNanPayloads:
    """Cycle and compiled agree byte for byte where two NaN payloads meet.

    Both pin one rule: the left operand's NaN wins an ``fadd.d`` and the
    product's wins an ``fmadd.d``. Each run starts a fresh interpreter,
    whose first float adds run unspecialized and keep the *right*
    operand's NaN, so a rule left to the interpreter shows up here.
    """

    @pytest.mark.parametrize("variant,bits", [("base", 32), ("ssr", 32),
                                              ("issr", 32), ("issr", 16)])
    def test_csrmv_on_a_cold_interpreter(self, variant, bits):
        vals = np.concatenate([np.array(r) for r in TWO_PAYLOAD_ROWS])
        ptr = np.cumsum([0] + [len(r) for r in TWO_PAYLOAD_ROWS])
        code = (
            "import numpy as np\n"
            "from repro import api\n"
            "from repro.formats.csr import CsrMatrix\n"
            "vals = np.frombuffer(bytes.fromhex("
            f"{vals.tobytes().hex()!r}))\n"
            f"ptr = np.array({ptr.tolist()})\n"
            "idcs = np.concatenate([np.arange(n) for n in np.diff(ptr)])\n"
            "matrix = CsrMatrix(ptr, idcs, vals, (len(ptr) - 1, 16))\n"
            "for backend in ('cycle', 'compiled'):\n"
            f"    _s, y = api.run('csrmv', backend=backend, variant={variant!r},"
            f" index_bits={bits}, matrix=matrix, x=np.ones(16))\n"
            "    print(y.tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        got = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True,
                             timeout=120)
        cycle, compiled = got.stdout.split()
        assert np.isnan(np.frombuffer(bytes.fromhex(compiled))).all()
        assert cycle == compiled



#: Two quiet NaNs with different payloads: the sparse values carry the
#: first, the dense operand the second.
VALUE_NAN, DENSE_NAN = np.frombuffer(
    bytes.fromhex("3412000000f8ff7f2143000000f8ff7f"), dtype=np.float64)


def two_nan_factor_operands(kernel):
    """Operands whose every NaN product multiplies two NaN payloads.

    The dense operand is NaN at columns 3 and 7 (every column of those
    CsrMM rows) and the sparse values are NaN exactly there, over
    ragged rows that reach the ISSR kernels' short rows, staggered
    lanes and fadd tree.
    """
    lengths = (3, 9, 13, 1, 16, 0, 5, 8)
    rng = np.random.default_rng(5)
    idcs = np.concatenate([np.sort(rng.choice(16, n, replace=False))
                           for n in lengths])
    vals = rng.standard_normal(len(idcs))
    vals[np.isin(idcs, (3, 7))] = VALUE_NAN
    ptr = np.concatenate(([0], np.cumsum(lengths)))
    matrix = CsrMatrix(ptr, idcs, vals, (len(lengths), 16))
    dense = rng.standard_normal((16, 4))
    dense[[3, 7]] = DENSE_NAN
    if kernel == "csrmm":
        return {"matrix": matrix, "dense": dense}
    if kernel == "spvv":
        return {"fiber": matrix.row(2), "x": dense[:, 0]}
    if kernel == "masked_csrmv":
        return {"matrix": matrix,
                "x_fiber": SparseFiber(np.arange(16), dense[:, 0])}
    if kernel == "spgemm":
        return {"a": matrix, "b": CsrMatrix(np.arange(0, 65, 4),
                                            np.tile(np.arange(4), 16),
                                            dense.ravel(), (16, 4))}
    return {"matrix": matrix, "x": dense[:, 0]}


#: Every variant and index width.
ALL_SERIES = [("base", 16), ("base", 32), ("ssr", 16), ("ssr", 32),
              ("issr", 16), ("issr", 32)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestTwoNanFactors:
    """A product of two NaNs keeps the sparse value's payload, quieted,
    on both backends, whatever state the interpreter is in.

    CPython's float multiply keeps the right factor's payload before it
    specializes a multiply site and the left one's after, and NumPy's
    differs between its vector lanes and its remainder loop.
    """

    @staticmethod
    def _check(results):
        cycle, compiled = (np.asarray(r).tobytes() for r in results)
        assert cycle == compiled
        got = np.frombuffer(compiled, dtype=np.float64)
        assert np.isnan(got).any()
        assert got[np.isnan(got)].tobytes() == \
            VALUE_NAN.tobytes() * int(np.isnan(got).sum())

    @pytest.mark.parametrize("variant,bits", ALL_SERIES)
    @pytest.mark.parametrize("kernel", ["csrmv", "csrmm", "spvv",
                                        "masked_csrmv", "spgemm"])
    def test_on_a_warm_interpreter(self, backends, kernel, variant, bits):
        operands = two_nan_factor_operands(kernel)
        results = [b.run(kernel, variant=variant, index_bits=bits,
                         check=False, **operands)[1] for b in backends]
        self._check([getattr(r, "vals", r) for r in results])

    @pytest.mark.parametrize("variant,bits", ALL_SERIES)
    @pytest.mark.parametrize("kernel", ["csrmv", "csrmm", "spvv"])
    def test_on_a_cold_interpreter(self, kernel, variant, bits):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_backends import two_nan_factor_operands\n"
            "from repro import api\n"
            f"operands = two_nan_factor_operands({kernel!r})\n"
            "for backend in ('cycle', 'compiled'):\n"
            f"    _s, y = api.run({kernel!r}, backend=backend, "
            f"variant={variant!r}, index_bits={bits}, check=False, "
            "**operands)\n"
            "    print(np.asarray(y).tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        tests = os.path.dirname(os.path.abspath(__file__))
        got = subprocess.run([sys.executable, "-W", "ignore", "-c", code,
                              tests],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True,
                             timeout=120)
        self._check([bytes.fromhex(h) for h in got.stdout.split()])

#: The paper's four series.
NAN_SERIES = [("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16)]


def two_payload_salted(values, seed):
    """A copy of ``values`` with both NaN payloads and the other IEEE
    specials at a quarter of the positions, so accumulators meet two
    NaNs."""
    out = np.array(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    salt = rng.random(out.shape) < 0.25
    specials = np.array((np.nan, DEFAULT_NAN, np.inf, -np.inf, -0.0, 5e-324))
    out[salt] = rng.choice(specials, int(salt.sum()))
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf etc.
class TestClearedAccumulatorParity:
    """Cycle and compiled agree byte for byte on every kernel whose
    compiled replay sums cleared accumulators in one ``np.bincount``.

    The sparse values carry both NaN payloads; the other operand stays
    finite, so no product multiplies two NaNs.
    """

    @pytest.mark.parametrize("variant", ["base", "ssr"])
    @pytest.mark.parametrize("kernel", ["csrmv", "csrmm", "cluster_csrmv"])
    def test_cleared_rows(self, backends, kernel, variant):
        base = random_csr(12, 32, 60, seed=31)
        matrix = CsrMatrix(base.ptr, base.idcs,
                           two_payload_salted(base.vals, 32), base.shape)
        if kernel == "csrmm":
            operands = {"dense": random_dense_matrix(32, 4, seed=33)}
        else:
            operands = {"x": random_dense_vector(32, seed=33)}
        results = [b.run(kernel, variant=variant, index_bits=32, check=False,
                         matrix=matrix, **operands)[1] for b in backends]
        assert np.isnan(results[0]).any()
        assert results[0].tobytes() == results[1].tobytes()

    @pytest.mark.parametrize("variant,bits", NAN_SERIES)
    def test_spvv(self, backends, variant, bits):
        fiber = random_sparse_vector(96, 40, seed=34)
        fiber = SparseFiber(fiber.indices, two_payload_salted(fiber.values, 35),
                            dim=96)
        x = random_dense_vector(96, seed=36)
        results = [b.run("spvv", variant=variant, index_bits=bits,
                         check=False, fiber=fiber, x=x)[1] for b in backends]
        _stats, streamed = stream_spvv(fiber.indices, fiber.values, x,
                                       chunk_nnz=16, variant=variant,
                                       index_bits=bits)
        assert np.isnan(results[0])
        assert (np.float64(results[0]).tobytes()
                == np.float64(results[1]).tobytes()
                == np.float64(streamed).tobytes())

    @pytest.mark.parametrize("variant,bits", NAN_SERIES)
    def test_masked(self, backends, variant, bits):
        base = random_csr(10, 64, 120, seed=37)
        matrix = CsrMatrix(base.ptr, base.idcs,
                           two_payload_salted(base.vals, 38), base.shape)
        x_fiber = random_sparse_vector(64, 40, seed=39)
        rows = [b.run("masked_csrmv", variant=variant, index_bits=bits,
                      check=False, matrix=matrix, x_fiber=x_fiber)[1]
                for b in backends]
        assert np.isnan(rows[0]).any()
        assert rows[0].tobytes() == rows[1].tobytes()
        fiber_a = matrix.row(int(np.argmax(matrix.row_lengths())))
        dots = [b.run("masked_spvv", variant=variant, index_bits=bits,
                      check=False, fiber_a=fiber_a, fiber_b=x_fiber)[1]
                for b in backends]
        assert np.float64(dots[0]).tobytes() == np.float64(dots[1]).tobytes()

    @pytest.mark.parametrize("variant,bits", NAN_SERIES)
    def test_spgemm(self, backends, variant, bits):
        a = random_csr(8, 8, 28, seed=40)
        a = CsrMatrix(a.ptr, a.idcs, two_payload_salted(a.vals, 41), a.shape)
        b = random_csr(8, 8, 30, seed=42)
        results = [be.run("spgemm", variant=variant, index_bits=bits,
                          check=False, a=a, b=b)[1] for be in backends]
        assert np.isnan(results[0].vals).any()
        assert results[0].ptr.tobytes() == results[1].ptr.tobytes()
        assert results[0].idcs.tobytes() == results[1].idcs.tobytes()
        assert results[0].vals.tobytes() == results[1].vals.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf etc.
class TestSkewedReplayParity:
    """Cycle and compiled agree byte for byte on a skewed, salted matrix."""

    SERIES = [("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16)]

    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_csrmv(self, backends, variant, bits):
        matrix = skewed_salted_matrix(21)
        x = random_dense_vector(matrix.ncols, seed=22)
        results = [b.run("csrmv", variant=variant, index_bits=bits,
                         matrix=matrix, x=x)[1] for b in backends]
        assert np.isnan(results[0]).any()
        assert results[0].tobytes() == results[1].tobytes()

    @pytest.mark.parametrize("variant,bits", SERIES)
    def test_csrmm(self, backends, variant, bits):
        matrix = skewed_salted_matrix(23)
        dense = random_dense_matrix(matrix.ncols, 4, seed=24)
        results = [b.run("csrmm", variant=variant, index_bits=bits,
                         matrix=matrix, dense=dense)[1] for b in backends]
        assert results[1].shape == (matrix.nrows, 4)
        assert np.isnan(results[0]).any()
        assert results[0].tobytes() == results[1].tobytes()

    def test_all_empty_csrmm_returns_k_columns(self, backends):
        matrix = CsrMatrix(np.zeros(6, dtype=np.int64), [], [], (5, 16))
        dense = random_dense_matrix(16, 4, seed=25)
        _stats, out = backends[1].run("csrmm", variant="issr",
                                      index_bits=16, matrix=matrix,
                                      dense=dense)
        assert out.shape == (5, 4)
        assert out.tobytes() == np.zeros((5, 4)).tobytes()


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

    def test_large_matrix_on_compiled(self):
        """A 65536-row, 1M-nonzero matrix, far beyond cycle-stepping
        reach, still gets its predicted ISSR-16 gain on one CC."""
        matrix = get_spec("webgraph64k").generate(seed=1)
        x = random_dense_vector(matrix.ncols, seed=1)
        comp = get_backend("compiled")
        issr, _ = comp.run("csrmv", variant="issr", index_bits=16,
                           matrix=matrix, x=x)
        base, _ = comp.run("csrmv", variant="base", index_bits=32,
                           matrix=matrix, x=x)
        assert base.cycles / issr.cycles > 1.5


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
