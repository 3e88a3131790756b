"""Sparse fibers: the (values, indices) pair at the heart of the paper.

The paper (§III-A) defines a *sparse fiber* as "an array pair [...]: a
value array storing nonzeros, and an index array storing their positions
on the axis". Fibers directly represent sparse vectors and are the
building block of CSR, CSC, and CSF.
"""

import numpy as np

from repro.errors import FormatError
from repro.utils.bits import INDEX_WIDTHS, field_mask


class SparseFiber:
    """A sorted sparse fiber: nonzero values and their axis positions.

    Parameters
    ----------
    indices:
        Strictly increasing nonnegative integer positions of nonzeros.
    values:
        Nonzero values, same length as ``indices``.
    dim:
        The dense dimension of the axis. Defaults to ``max(index)+1``.
    """

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim=None):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1:
            raise FormatError("fiber indices and values must be 1-D")
        if len(indices) != len(values):
            raise FormatError(
                f"fiber length mismatch: {len(indices)} indices vs {len(values)} values"
            )
        if len(indices) and indices.min() < 0:
            raise FormatError("fiber indices must be nonnegative")
        if len(indices) > 1 and not np.all(np.diff(indices) > 0):
            raise FormatError("fiber indices must be strictly increasing")
        if dim is None:
            dim = int(indices[-1]) + 1 if len(indices) else 0
        elif len(indices) and int(indices[-1]) >= dim:
            raise FormatError(f"fiber index {int(indices[-1])} out of range for dim {dim}")
        self.indices = indices
        self.values = values
        self.dim = int(dim)

    @property
    def nnz(self):
        """Number of stored nonzeros."""
        return len(self.values)

    @property
    def density(self):
        """Fraction of positions that hold a nonzero (0 for empty axis)."""
        return self.nnz / self.dim if self.dim else 0.0

    @classmethod
    def from_dense(cls, dense, tol=0.0):
        """Build a fiber from a dense 1-D array, dropping ``|v| <= tol``
        (NaN entries are kept)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise FormatError("from_dense expects a 1-D array")
        keep = ~(np.abs(dense) <= tol)
        idcs = np.nonzero(keep)[0]
        return cls(idcs, dense[idcs], dim=len(dense))

    def to_dense(self):
        """Expand to a dense 1-D float64 array of length ``dim``."""
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    def dot_dense(self, dense):
        """Reference sparse-dense dot product (the paper's SpVV)."""
        dense = np.asarray(dense, dtype=np.float64)
        if len(dense) < self.dim:
            raise FormatError(f"dense operand of length {len(dense)} shorter than fiber dim {self.dim}")
        return float(np.dot(self.values, dense[self.indices]))

    def index_bits_required(self):
        """Smallest supported hardware index width covering this fiber."""
        top = int(self.indices.max()) if self.nnz else 0
        for bits in INDEX_WIDTHS:
            if top <= field_mask(bits):
                return bits
        raise FormatError(f"index {top} exceeds the widest supported index width")

    def __eq__(self, other):
        if not isinstance(other, SparseFiber):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"SparseFiber(nnz={self.nnz}, dim={self.dim})"
