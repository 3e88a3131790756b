"""Compressed sparse rows (CSR): concatenated row fibers + row pointers.

Mirrors the paper's description (§III-A): ``vals`` stores nonzeros
row-by-row, ``idcs`` their column positions, and ``ptr`` (length
nrows+1) delimits rows, exactly as in the Yale sparse matrix package
[8]. Each row is one sparse fiber, and CsrMV streams them back to back
(§III-B).
"""

import numpy as np

from repro.errors import FormatError
from repro.formats.fiber import SparseFiber


def first_of_runs(sorted_keys):
    """Boolean mask of each run's first entry in the sorted ``sorted_keys``.

    ``sorted_keys[mask]`` is ``np.unique(sorted_keys)`` and
    ``mask.nonzero()[0]`` its ``return_index``, from one
    adjacent-difference pass instead of NumPy's own sort or hash pass.
    """
    mask = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=mask[1:])
    return mask


class CsrMatrix:
    """A CSR matrix over float64 values with int64 bookkeeping arrays."""

    __slots__ = ("ptr", "idcs", "vals", "nrows", "ncols")

    def __init__(self, ptr, idcs, vals, shape):
        ptr = np.asarray(ptr, dtype=np.int64)
        idcs = np.asarray(idcs, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        nrows, ncols = int(shape[0]), int(shape[1])
        if nrows < 0 or ncols < 0:
            raise FormatError(f"negative matrix shape {shape}")
        if ptr.ndim != 1 or len(ptr) != nrows + 1:
            raise FormatError(f"CSR ptr must have nrows+1={nrows + 1} entries, got {len(ptr)}")
        if ptr[0] != 0 or ptr[-1] != len(vals):
            raise FormatError("CSR ptr must start at 0 and end at nnz")
        if np.any(np.diff(ptr) < 0):
            raise FormatError("CSR ptr must be nondecreasing")
        if len(idcs) != len(vals):
            raise FormatError(f"CSR idcs/vals length mismatch: {len(idcs)} vs {len(vals)}")
        if len(idcs) and (idcs.min() < 0 or idcs.max() >= ncols):
            raise FormatError("CSR column index out of range")
        # a column pair that does not increase is legal only across a
        # row start
        bad = np.diff(idcs) <= 0
        bad[ptr[(ptr > 0) & (ptr < len(idcs))] - 1] = False
        if bad.any():
            r = int(np.searchsorted(ptr, np.argmax(bad), side="right")) - 1
            raise FormatError(f"CSR row {r} columns not strictly increasing")
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

    @property
    def nnz_per_row(self):
        """Average nonzeros per row — the x-axis of the paper's Fig. 4b/c."""
        return self.nnz / self.nrows if self.nrows else 0.0

    @property
    def density(self):
        """Stored nonzeros over ``nrows * ncols`` (0.0 when empty)."""
        total = self.nrows * self.ncols
        return self.nnz / total if total else 0.0

    def row(self, r):
        """Return row ``r`` as a :class:`SparseFiber` over the columns."""
        if not 0 <= r < self.nrows:
            raise FormatError(f"row {r} out of range for {self.nrows}-row matrix")
        lo, hi = int(self.ptr[r]), int(self.ptr[r + 1])
        return SparseFiber(self.idcs[lo:hi], self.vals[lo:hi], dim=self.ncols)

    def row_lengths(self):
        """Array of per-row nonzero counts."""
        return np.diff(self.ptr)

    @classmethod
    def _wrap(cls, ptr, idcs, vals, shape):
        """Adopt pre-validated arrays without re-running the checks.

        Trusted constructor for callers that already guarantee the CSR
        invariants (the mmap cache header carries a checksum; row-block
        tile slices inherit validity from their parent). Skipping the
        per-row validation loop is what keeps tile materialization
        O(rows-in-tile) and zero-copy: ``idcs``/``vals`` may be
        ``np.memmap`` slices and are adopted as-is.
        """
        matrix = object.__new__(CsrMatrix)
        matrix.ptr = ptr
        matrix.idcs = idcs
        matrix.vals = vals
        matrix.nrows = int(shape[0])
        matrix.ncols = int(shape[1])
        return matrix

    def row_block(self, r0, r1):
        """Rows ``[r0, r1)`` as a CSR view sharing idcs/vals storage.

        The returned matrix keeps the parent's column space; only the
        row-pointer slice is materialized (rebased to 0), so on an
        mmap-backed matrix this is the lazy tile constructor — the
        nonzero payload is paged in on first touch, not on slicing.
        """
        if not (0 <= r0 <= r1 <= self.nrows):
            raise FormatError(
                f"row block [{r0}, {r1}) out of range for "
                f"{self.nrows}-row matrix")
        lo, hi = int(self.ptr[r0]), int(self.ptr[r1])
        ptr = np.asarray(self.ptr[r0:r1 + 1], dtype=np.int64) - lo
        return CsrMatrix._wrap(ptr, self.idcs[lo:hi], self.vals[lo:hi],
                               (r1 - r0, self.ncols))

    @classmethod
    def from_dense(cls, dense, tol=0.0):
        """Build from a dense 2-D array, dropping ``|v| <= tol`` (NaN
        entries are kept)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        keep = ~(np.abs(dense) <= tol)
        ptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=ptr[1:])
        rows, cols = np.nonzero(keep)
        return cls(ptr, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Build from coordinate triples; duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise FormatError("COO triple arrays must have equal length")
        nrows, ncols = int(shape[0]), int(shape[1])
        if len(rows):
            if rows.min() < 0 or rows.max() >= nrows:
                raise FormatError("COO row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise FormatError("COO column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            key = rows * ncols + cols
            start = first_of_runs(key).nonzero()[0]
            uniq = key[start]
            summed = np.add.reduceat(vals, start) if len(start) else vals
            rows, cols, vals = uniq // ncols, uniq % ncols, summed
        ptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(ptr, rows + 1, 1)
        np.cumsum(ptr, out=ptr)
        return cls(ptr, cols, vals, shape)

    def to_dense(self):
        """The matrix as a dense float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        for r in range(self.nrows):
            lo, hi = self.ptr[r], self.ptr[r + 1]
            out[r, self.idcs[lo:hi]] = self.vals[lo:hi]
        return out

    def spmv(self, x):
        """Reference CsrMV: y = A @ x via the paper's §I triple loop."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) < self.ncols:
            raise FormatError(f"vector of length {len(x)} shorter than ncols {self.ncols}")
        y = np.zeros(self.nrows, dtype=np.float64)
        for r in range(self.nrows):
            lo, hi = self.ptr[r], self.ptr[r + 1]
            y[r] = np.dot(self.vals[lo:hi], x[self.idcs[lo:hi]])
        return y

    def spmm(self, b):
        """Reference CsrMM: C = A @ B with dense row-major B."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] < self.ncols:
            raise FormatError(f"dense operand shape {b.shape} incompatible with ncols {self.ncols}")
        out = np.zeros((self.nrows, b.shape[1]), dtype=np.float64)
        for r in range(self.nrows):
            lo, hi = self.ptr[r], self.ptr[r + 1]
            out[r] = self.vals[lo:hi] @ b[self.idcs[lo:hi]]
        return out

    def transpose(self):
        """Return the transpose, still in CSR (i.e. CSC of the original)."""
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_lengths())
        return CsrMatrix.from_coo(self.idcs, rows, self.vals, (self.ncols, self.nrows))

    def __eq__(self, other):
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.ptr, other.ptr)
            and np.array_equal(self.idcs, other.idcs)
            and np.array_equal(self.vals, other.vals)
        )

    def __repr__(self):
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"
