"""Compressed sparse columns (CSC): column fibers + column pointers.

CSC is the transpose-dual of CSR (paper refs [9]), one of the
fiber-based formats the ISSR accelerates (§III-A); we implement it as a
thin structure of its own rather than "CSR of the transpose" so kernels
that multiply from the right can address it naturally.
"""

import numpy as np

from repro.errors import FormatError
from repro.formats.csr import CsrMatrix
from repro.formats.fiber import SparseFiber


class CscMatrix:
    """A CSC matrix over float64 values with int64 bookkeeping arrays."""

    __slots__ = ("ptr", "idcs", "vals", "nrows", "ncols")

    def __init__(self, ptr, idcs, vals, shape):
        ptr = np.asarray(ptr, dtype=np.int64)
        idcs = np.asarray(idcs, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        nrows, ncols = int(shape[0]), int(shape[1])
        if ptr.ndim != 1 or len(ptr) != ncols + 1:
            raise FormatError(f"CSC ptr must have ncols+1={ncols + 1} entries, got {len(ptr)}")
        if ptr[0] != 0 or ptr[-1] != len(vals):
            raise FormatError("CSC ptr must start at 0 and end at nnz")
        if np.any(np.diff(ptr) < 0):
            raise FormatError("CSC ptr must be nondecreasing")
        if len(idcs) != len(vals):
            raise FormatError("CSC idcs/vals length mismatch")
        if len(idcs) and (idcs.min() < 0 or idcs.max() >= nrows):
            raise FormatError("CSC row index out of range")
        for c in range(ncols):
            col = idcs[ptr[c]:ptr[c + 1]]
            if len(col) > 1 and not np.all(np.diff(col) > 0):
                raise FormatError(f"CSC column {c} rows not strictly increasing")
        self.ptr = ptr
        self.idcs = idcs
        self.vals = vals
        self.nrows = nrows
        self.ncols = ncols

    @property
    def shape(self):
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        """Stored nonzeros."""
        return len(self.vals)

    def col(self, c):
        """Return column ``c`` as a :class:`SparseFiber` over the rows."""
        if not 0 <= c < self.ncols:
            raise FormatError(f"column {c} out of range for {self.ncols}-column matrix")
        lo, hi = int(self.ptr[c]), int(self.ptr[c + 1])
        return SparseFiber(self.idcs[lo:hi], self.vals[lo:hi], dim=self.nrows)

    @classmethod
    def from_csr(cls, csr):
        """Convert a :class:`CsrMatrix` to CSC (O(nnz log nnz))."""
        t = csr.transpose()  # CSR of A^T == CSC arrays of A
        return cls(t.ptr, t.idcs, t.vals, csr.shape)

    def to_csr(self):
        """Convert back to :class:`CsrMatrix`."""
        rows = self.idcs
        cols = np.repeat(np.arange(self.ncols, dtype=np.int64), np.diff(self.ptr))
        return CsrMatrix.from_coo(rows, cols, self.vals, self.shape)

    def to_dense(self):
        """The matrix as a dense float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        for c in range(self.ncols):
            lo, hi = self.ptr[c], self.ptr[c + 1]
            out[self.idcs[lo:hi], c] = self.vals[lo:hi]
        return out

    def spmv_t(self, x):
        """Reference y = A^T @ x computed column-wise (dot per column)."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) < self.nrows:
            raise FormatError(f"vector of length {len(x)} shorter than nrows {self.nrows}")
        y = np.zeros(self.ncols, dtype=np.float64)
        for c in range(self.ncols):
            lo, hi = self.ptr[c], self.ptr[c + 1]
            y[c] = np.dot(self.vals[lo:hi], x[self.idcs[lo:hi]])
        return y

    def __repr__(self):
        return f"CscMatrix(shape={self.shape}, nnz={self.nnz})"
