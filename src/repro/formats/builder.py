"""Sparse-output construction: row-capacity CSR building + compaction.

Sparse-*output* kernels (SpGEMM, sparse convolutions) do not know the
result's nonzero count up front. The standard two-phase recipe — used
by Gustavson-style SpGEMM since [Gustavson 1978] and by the SparseZipper
line (arXiv:2502.11353) — is:

1. allocate each output row an *upper-bound capacity* (for
   ``C = A @ B``: row i of C has at most ``sum(len(B.row(k)) for k in
   A.row(i).indices)`` nonzeros, and never more than ``ncols``);
2. fill rows independently into their capacity slots (possibly
   shorter than the bound);
3. **compact**: squeeze the per-row gaps out into a dense CSR.

:class:`CsrBuilder` implements that memory layout so kernel results
round-trip through the :mod:`repro.formats` API, and
:func:`spgemm_pattern` is the host-side *symbolic* phase computing the
exact output pattern the numeric kernels (see
:mod:`repro.kernels.spgemm`) fill in.
"""

import numpy as np

from repro.errors import FormatError
from repro.formats.csr import CsrMatrix


class CsrBuilder:
    """An under-construction CSR matrix with per-row capacity slots.

    ``row_capacity`` is a scalar or per-row array of upper bounds; rows
    are laid out back to back at their *capacity* offsets (the
    sparse-output memory layout kernels write into), and
    :meth:`build` compacts the used prefixes into a valid
    :class:`~repro.formats.csr.CsrMatrix`.
    """

    def __init__(self, nrows, ncols, row_capacity):
        nrows, ncols = int(nrows), int(ncols)
        if nrows < 0 or ncols < 0:
            raise FormatError(f"negative builder shape ({nrows}, {ncols})")
        cap = np.broadcast_to(np.asarray(row_capacity, dtype=np.int64),
                              (nrows,)).copy()
        if len(cap) != nrows:
            raise FormatError(
                f"row_capacity has {len(cap)} entries for {nrows} rows")
        if nrows and cap.min() < 0:
            raise FormatError("row capacities must be nonnegative")
        # No row can hold more distinct columns than the matrix has.
        np.minimum(cap, ncols, out=cap)
        self.nrows = nrows
        self.ncols = ncols
        self.cap = cap
        self.cap_ptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(cap, out=self.cap_ptr[1:])
        total = int(self.cap_ptr[-1])
        self.idcs = np.zeros(total, dtype=np.int64)
        self.vals = np.zeros(total, dtype=np.float64)
        self.row_nnz = np.zeros(nrows, dtype=np.int64)

    @property
    def capacity(self):
        """Total allocated nonzero slots (the upper bound)."""
        return int(self.cap_ptr[-1])

    @property
    def nnz(self):
        """Nonzero slots filled so far."""
        return int(self.row_nnz.sum())

    def row_capacity(self, r):
        """Capacity of row ``r``."""
        return int(self.cap[r])

    def _check_row(self, r):
        if not 0 <= r < self.nrows:
            raise FormatError(
                f"row {r} out of range for {self.nrows}-row builder")

    def set_row(self, r, idcs, vals):
        """Fill row ``r`` with sorted column indices and values."""
        self._check_row(r)
        idcs = np.asarray(idcs, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(idcs) != len(vals):
            raise FormatError(
                f"row {r}: {len(idcs)} indices vs {len(vals)} values")
        if len(idcs) > self.cap[r]:
            raise FormatError(
                f"row {r}: {len(idcs)} nonzeros exceed capacity "
                f"{self.cap[r]}")
        if len(idcs):
            if idcs.min() < 0 or idcs.max() >= self.ncols:
                raise FormatError(f"row {r}: column index out of range")
            if len(idcs) > 1 and not np.all(np.diff(idcs) > 0):
                raise FormatError(
                    f"row {r}: columns must be strictly increasing")
        lo = int(self.cap_ptr[r])
        self.idcs[lo:lo + len(idcs)] = idcs
        self.vals[lo:lo + len(vals)] = vals
        self.row_nnz[r] = len(idcs)

    def append(self, r, col, val):
        """Append one nonzero to row ``r`` (columns must stay sorted)."""
        self._check_row(r)
        used = int(self.row_nnz[r])
        if used >= self.cap[r]:
            raise FormatError(
                f"row {r}: capacity {self.cap[r]} exhausted")
        if not 0 <= col < self.ncols:
            raise FormatError(f"row {r}: column {col} out of range")
        lo = int(self.cap_ptr[r])
        if used and col <= self.idcs[lo + used - 1]:
            raise FormatError(
                f"row {r}: column {col} not greater than the last "
                f"appended column {self.idcs[lo + used - 1]}")
        self.idcs[lo + used] = col
        self.vals[lo + used] = val
        self.row_nnz[r] = used + 1

    def build(self):
        """Compact the used row prefixes into a :class:`CsrMatrix`."""
        ptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(self.row_nnz, out=ptr[1:])
        idcs = np.empty(int(ptr[-1]), dtype=np.int64)
        vals = np.empty(int(ptr[-1]), dtype=np.float64)
        for r in range(self.nrows):
            lo, n = int(self.cap_ptr[r]), int(self.row_nnz[r])
            idcs[ptr[r]:ptr[r + 1]] = self.idcs[lo:lo + n]
            vals[ptr[r]:ptr[r + 1]] = self.vals[lo:lo + n]
        return CsrMatrix(ptr, idcs, vals, (self.nrows, self.ncols))

    def __repr__(self):
        return (f"CsrBuilder(shape=({self.nrows}, {self.ncols}), "
                f"nnz={self.nnz}/{self.capacity})")


def spgemm_row_upper_bound(a, b):
    """Per-row nonzero upper bound of ``C = A @ B`` (flops per row).

    Row i of C can have at most one nonzero per multiply, i.e.
    ``sum(len(B.row(k)) for k in A.row(i).indices)`` — the classic
    capacity used for Gustavson allocation before compaction.
    """
    if a.ncols != b.nrows:
        raise FormatError(
            f"spgemm shape mismatch: {a.shape} @ {b.shape}")
    b_lens = b.row_lengths()
    bound = np.zeros(a.nrows, dtype=np.int64)
    lens_per_nnz = b_lens[a.idcs] if a.nnz else np.zeros(0, np.int64)
    np.add.at(bound, np.repeat(np.arange(a.nrows), a.row_lengths()),
              lens_per_nnz)
    return bound


def spgemm_pairs(a, b):
    """Every multiply of Gustavson's ``C = A @ B``, in the kernel's order.

    Returns ``(a_pos, b_pos, keys)``: multiply ``t`` takes A's element
    ``a_pos[t]`` times B's element ``b_pos[t]`` into C's entry ``keys[t]
    = row * b.ncols + col``. Multiplies run over A's elements in CSR
    order and, for each, over its B row: the k-major order in which
    the numeric kernel's accumulators take them.
    """
    if a.ncols != b.nrows:
        raise FormatError(
            f"spgemm shape mismatch: {a.shape} @ {b.shape}")
    counts = b.row_lengths()[a.idcs]  # B elements per A element
    a_pos = np.repeat(np.arange(a.nnz), counts)
    heads = np.cumsum(counts) - counts
    b_pos = np.repeat(b.ptr[a.idcs] - heads, counts) + np.arange(len(a_pos))
    rows = np.repeat(np.arange(a.nrows), a.row_lengths())
    keys = rows[a_pos] * b.ncols + b.idcs[b_pos]
    return a_pos, b_pos, keys


def pattern_of_keys(keys, nrows, ncols):
    """The CSR pattern ``(ptr, idcs)`` of entries ``row * ncols + col``."""
    keys = np.unique(keys)
    rows, idcs = np.divmod(keys, max(ncols, 1))
    ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=ptr[1:])
    return ptr, idcs


def spgemm_pattern(a, b):
    """Symbolic SpGEMM: the exact output pattern of ``C = A @ B``.

    Returns ``(ptr, idcs)`` with each row's column set the sorted
    union of the B rows selected by A's row — the host-side first
    phase of the two-phase SpGEMM; the numeric kernels scatter into a
    dense accumulator and gather back through exactly this pattern.
    """
    return pattern_of_keys(spgemm_pairs(a, b)[2], a.nrows, b.ncols)
