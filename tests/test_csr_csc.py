"""Unit tests for CSR/CSC matrices and conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import CscMatrix, CsfTensor, CsrMatrix, SparseFiber, convert
from repro.kernels.common import check_reference
from repro.workloads import random_csr


def small_dense():
    return np.array([
        [1.0, 0.0, 2.0],
        [0.0, 0.0, 0.0],
        [0.0, 3.0, 0.0],
        [4.0, 0.0, 5.0],
    ])


class TestCsrConstruction:
    def test_from_dense_roundtrip(self):
        d = small_dense()
        m = CsrMatrix.from_dense(d)
        assert m.shape == (4, 3)
        assert m.nnz == 5
        assert np.array_equal(m.to_dense(), d)

    def test_row_lengths(self):
        m = CsrMatrix.from_dense(small_dense())
        assert list(m.row_lengths()) == [2, 0, 1, 2]

    def test_row_fiber(self):
        m = CsrMatrix.from_dense(small_dense())
        row = m.row(0)
        assert list(row.indices) == [0, 2]
        assert list(row.values) == [1.0, 2.0]
        assert row.dim == 3

    def test_row_out_of_range(self):
        m = CsrMatrix.from_dense(small_dense())
        with pytest.raises(FormatError):
            m.row(4)

    def test_bad_ptr_length(self):
        with pytest.raises(FormatError):
            CsrMatrix([0, 1], [0], [1.0], (2, 2))

    def test_ptr_not_ending_at_nnz(self):
        with pytest.raises(FormatError):
            CsrMatrix([0, 0, 2], [0], [1.0], (2, 2))

    def test_decreasing_ptr(self):
        with pytest.raises(FormatError):
            CsrMatrix([0, 1, 0, 1], [0], [1.0], (3, 2))

    def test_column_out_of_range(self):
        with pytest.raises(FormatError):
            CsrMatrix([0, 1], [5], [1.0], (1, 2))

    def test_unsorted_row(self):
        with pytest.raises(FormatError):
            CsrMatrix([0, 2], [1, 0], [1.0, 2.0], (1, 3))

    @pytest.mark.parametrize("ptr,idcs,row", [
        ([0, 2, 5], [0, 3, 1, 1, 4], 1),  # a repeated column
        ([0, 3, 5], [0, 2, 1, 0, 1], 0),  # a decreasing pair
        ([0, 0, 2, 2, 4, 4], [1, 5, 3, 2], 3),  # empty rows around it
        ([0, 3], [0, 2, 2], 0),  # one row
    ])
    def test_column_order_names_the_first_bad_row(self, ptr, idcs, row):
        with pytest.raises(FormatError,
                           match=f"CSR row {row} columns not strictly"):
            CsrMatrix(ptr, idcs, np.ones(len(idcs)), (len(ptr) - 1, 6))

    @pytest.mark.parametrize("ptr,idcs", [
        ([0, 3, 5], [1, 4, 5, 0, 2]),  # columns drop across a row start
        ([0, 0, 2, 2, 3, 3], [3, 5, 0]),  # ... and across empty rows
        ([0, 0, 0], []),  # no nonzeros
        ([0, 1], [4]),  # one row, one nonzero
    ])
    def test_column_order_accepts_legal_rows(self, ptr, idcs):
        m = CsrMatrix(ptr, idcs, np.ones(len(idcs)), (len(ptr) - 1, 6))
        assert m.nnz == len(idcs)

    def test_from_coo_sums_duplicates(self):
        m = CsrMatrix.from_coo([0, 0], [1, 1], [2.0, 3.0], (1, 3))
        assert m.nnz == 1
        assert m.vals[0] == 5.0

    def test_nnz_per_row(self):
        m = CsrMatrix.from_dense(small_dense())
        assert m.nnz_per_row == pytest.approx(5 / 4)


#: A quiet NaN with a payload of its own, and each format's dense rank.
PAYLOAD_NAN = np.array([0x7FF8_0000_0000_1234], dtype=np.uint64).view(
    np.float64)[0]
FROM_DENSE = {CsrMatrix: 2, SparseFiber: 1, CsfTensor: 3}


class TestFromDense:
    """``from_dense`` keeps every entry but ``|v| <= tol``: NaN too."""

    @pytest.mark.parametrize("fmt", list(FROM_DENSE), ids=lambda f: f.__name__)
    def test_nan_entries_round_trip_with_their_payload(self, fmt):
        dense = np.array([PAYLOAD_NAN, 1.0, 0.0, np.inf, np.nan, -0.0, 2.0,
                          -np.inf]).reshape((2,) * (FROM_DENSE[fmt] - 1)
                                            + (-1,))
        got = fmt.from_dense(dense).to_dense()
        assert got.tobytes() == np.where(dense == 0, 0.0, dense).tobytes()

    @pytest.mark.parametrize("fmt", list(FROM_DENSE), ids=lambda f: f.__name__)
    def test_tol_drops_small_finite_values(self, fmt):
        dense = np.array([1e-9, -1e-7, np.nan, 0.5, -2e-6, 3.0, 0.0, -1e-6]
                         ).reshape((2,) * (FROM_DENSE[fmt] - 1) + (-1,))
        got = fmt.from_dense(dense, tol=1e-6).to_dense()
        want = np.where(np.abs(dense) <= 1e-6, 0.0, dense)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got).sum() == 1


class TestCsrOps:
    def test_spmv_matches_dense(self):
        m = CsrMatrix.from_dense(small_dense())
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(m.spmv(x), small_dense() @ x)

    def test_spmv_short_vector(self):
        m = CsrMatrix.from_dense(small_dense())
        with pytest.raises(FormatError):
            m.spmv([1.0])

    def test_spmm_matches_dense(self):
        m = CsrMatrix.from_dense(small_dense())
        b = np.arange(6, dtype=float).reshape(3, 2)
        assert np.allclose(m.spmm(b), small_dense() @ b)

    def test_transpose(self):
        m = CsrMatrix.from_dense(small_dense())
        assert np.array_equal(m.transpose().to_dense(), small_dense().T)

    def test_transpose_twice_identity(self):
        m = random_csr(20, 30, 100, seed=5)
        assert m.transpose().transpose() == m


def salted_rows(lengths, ncols, seed, rate=0.05):
    """A CSR matrix with the given row lengths whose values are salted
    with NaN, +-Inf and -0.0 at a ``rate`` share of the nonzeros."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths, dtype=np.int64)
    ptr = np.concatenate(([0], np.cumsum(lengths)))
    idcs = [np.sort(rng.choice(ncols, n, replace=False)) for n in lengths]
    vals = rng.standard_normal(int(ptr[-1]))
    salt = rng.random(len(vals)) < rate
    vals[salt] = rng.choice([np.nan, np.inf, -np.inf, -0.0], int(salt.sum()))
    return CsrMatrix(ptr, np.concatenate([np.zeros(0, np.int64)] + idcs),
                     vals, (len(lengths), ncols))


#: Row lengths: empty rows among short ones, an all-empty matrix, no
#: rows at all, and one giant row among tiny ones.
ROW_SHAPES = {
    "empty_rows": [0, 3, 0, 0, 7, 1, 0, 12, 0],
    "all_empty": [0] * 6,
    "no_rows": [],
    "giant_row": [1, 0, 3000, 2, 0],
}


class TestReferenceShapes:
    """The reference CsrMV/CsrMM the simulated kernels are checked
    against, on the shapes a vectorized reduction gets wrong first."""

    @pytest.mark.parametrize("shape", sorted(ROW_SHAPES))
    def test_to_dense_is_exact(self, shape):
        m = salted_rows(ROW_SHAPES[shape], 4096, seed=len(shape))
        want = np.zeros(m.shape)
        for r in range(m.nrows):
            lo, hi = m.ptr[r], m.ptr[r + 1]
            want[r, m.idcs[lo:hi]] = m.vals[lo:hi]
        assert m.to_dense().tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("rate", [0.0, 0.05])  # 0.0: no row is NaN
    @pytest.mark.parametrize("shape", sorted(ROW_SHAPES))
    def test_spmv_and_spmm_match_dense(self, shape, rate):
        m = salted_rows(ROW_SHAPES[shape], 4096, seed=len(shape), rate=rate)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(m.ncols)
        x[rng.random(m.ncols) < 0.05] = -0.0
        b = rng.standard_normal((m.ncols, 4))
        b[rng.random(b.shape) < 0.05] = -0.0
        dense = m.to_dense()
        assert m.spmv(x).shape == (m.nrows,)
        assert m.spmm(b).shape == (m.nrows, 4)
        check_reference(m.spmv(x), dense @ x, "spmv")
        check_reference(m.spmm(b), dense @ b, "spmm")


class TestCsc:
    def test_csr_csc_roundtrip(self):
        m = random_csr(15, 25, 120, seed=2)
        c = convert.csr_to_csc(m)
        assert isinstance(c, CscMatrix)
        assert np.array_equal(c.to_dense(), m.to_dense())
        back = convert.csc_to_csr(c)
        assert back == m

    def test_col_fiber(self):
        c = CscMatrix.from_csr(CsrMatrix.from_dense(small_dense()))
        col = c.col(0)
        assert list(col.indices) == [0, 3]
        assert list(col.values) == [1.0, 4.0]

    def test_spmv_t(self):
        m = CsrMatrix.from_dense(small_dense())
        c = CscMatrix.from_csr(m)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(c.spmv_t(x), small_dense().T @ x)


class TestFiberConversions:
    def test_fibers_roundtrip(self):
        m = random_csr(10, 16, 50, seed=3)
        fibers = convert.csr_to_fibers(m)
        assert len(fibers) == 10
        back = convert.fibers_to_csr(fibers, ncols=16)
        assert back == m

    def test_matrix_fiber(self):
        m = random_csr(8, 16, 40, seed=4)
        idcs, vals = convert.matrix_fiber(m)
        assert len(idcs) == len(vals) == 40

    def test_matrix_fiber_type_check(self):
        with pytest.raises(FormatError):
            convert.matrix_fiber("not a matrix")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30), st.integers(1, 40), st.integers(0, 2 ** 31),
       st.sampled_from(["uniform", "powerlaw", "banded", "block", "constant"]))
def test_random_csr_spmv_property(nrows, ncols, seed, dist):
    nnz = min(nrows * ncols // 2, nrows * 5)
    m = random_csr(nrows, ncols, nnz, distribution=dist, seed=seed)
    assert m.nnz == nnz
    x = np.random.default_rng(seed).standard_normal(ncols)
    assert np.allclose(m.spmv(x), m.to_dense() @ x)
