"""Compressed sparse fiber (CSF) tensors.

CSF (paper ref [10], Smith & Karypis) generalizes CSR to arbitrary-order
tensors: each level stores a pointer array delimiting the fibers of the
level below, and the leaf level is a plain sparse fiber (indices+values).
The ISSR accelerates the leaf level of any CSF tensor, which is why the
paper lists CSF among the supported formats (§III-A).

We implement an N-level CSF with mode order fixed to (0, 1, ..., N-1);
reordering can be done by permuting coordinates before construction.
"""

import numpy as np

from repro.errors import FormatError
from repro.formats.fiber import SparseFiber


class CsfTensor:
    """A CSF tensor of order >= 2 over float64 values.

    Attributes
    ----------
    shape:
        Dense tensor shape, one entry per mode.
    ptrs:
        List of ``order - 1`` pointer arrays; ``ptrs[l][k]`` delimits the
        children of node ``k`` at level ``l``.
    idcs:
        List of ``order`` index arrays; ``idcs[l]`` holds the coordinates
        at level ``l`` for every fiber node on that level.
    vals:
        Leaf values, aligned with ``idcs[-1]``.
    """

    __slots__ = ("shape", "ptrs", "idcs", "vals")

    def __init__(self, shape, ptrs, idcs, vals):
        shape = tuple(int(s) for s in shape)
        order = len(shape)
        if order < 2:
            raise FormatError("CSF tensors must have order >= 2")
        if len(ptrs) != order - 1:
            raise FormatError(f"CSF needs {order - 1} pointer levels, got {len(ptrs)}")
        if len(idcs) != order:
            raise FormatError(f"CSF needs {order} index levels, got {len(idcs)}")
        self.shape = shape
        self.ptrs = [np.asarray(p, dtype=np.int64) for p in ptrs]
        self.idcs = [np.asarray(i, dtype=np.int64) for i in idcs]
        self.vals = np.asarray(vals, dtype=np.float64)
        self._validate()

    def _validate(self):
        order = self.order
        if len(self.vals) != len(self.idcs[-1]):
            raise FormatError("CSF leaf values/indices length mismatch")
        for level in range(order):
            arr = self.idcs[level]
            if len(arr) and (arr.min() < 0 or arr.max() >= self.shape[level]):
                raise FormatError(f"CSF level-{level} coordinate out of range")
        for level, ptr in enumerate(self.ptrs):
            n_parents = len(self.idcs[level])
            if len(ptr) != n_parents + 1:
                raise FormatError(
                    f"CSF level-{level} ptr length {len(ptr)} != parents+1 ({n_parents + 1})"
                )
            if len(ptr) and (ptr[0] != 0 or ptr[-1] != len(self.idcs[level + 1])):
                raise FormatError(f"CSF level-{level} ptr must span the child level")
            if np.any(np.diff(ptr) < 0):
                raise FormatError(f"CSF level-{level} ptr must be nondecreasing")

    @property
    def order(self):
        return len(self.shape)

    @property
    def nnz(self):
        return len(self.vals)

    @classmethod
    def from_coo(cls, coords, vals, shape):
        """Build from coordinate lists (``coords`` is nnz x order)."""
        coords = np.asarray(coords, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != len(shape):
            raise FormatError("coords must be (nnz, order)")
        if len(coords) != len(vals):
            raise FormatError("coords/vals length mismatch")
        order = len(shape)
        for m in range(order):
            if len(coords) and (coords[:, m].min() < 0 or coords[:, m].max() >= shape[m]):
                raise FormatError(f"mode-{m} coordinate out of range")
        key = np.lexsort(tuple(coords[:, m] for m in reversed(range(order))))
        coords, vals = coords[key], vals[key]
        if len(coords) > 1:
            dup = np.all(coords[1:] == coords[:-1], axis=1)
            if np.any(dup):
                raise FormatError("duplicate coordinates in CSF construction")

        ptrs, idcs = [], []
        # Group level by level: at each level, a "node" is a distinct prefix.
        prefix_ids = np.zeros(len(coords), dtype=np.int64)  # all in one root
        for level in range(order - 1):
            keys = np.stack([prefix_ids, coords[:, level]], axis=1) if len(coords) else np.zeros((0, 2), np.int64)
            if len(keys):
                new_node = np.ones(len(keys), dtype=bool)
                new_node[1:] = np.any(keys[1:] != keys[:-1], axis=1)
                node_of = np.cumsum(new_node) - 1
                idcs.append(coords[new_node, level])
                n_nodes = node_of[-1] + 1
            else:
                node_of = prefix_ids
                idcs.append(np.zeros(0, dtype=np.int64))
                n_nodes = 0
            # pointer array for this level gets built on the next pass
            prefix_ids = node_of
            ptrs.append((idcs[-1], node_of, n_nodes))
        idcs.append(coords[:, order - 1] if len(coords) else np.zeros(0, dtype=np.int64))

        # Second pass: turn (per-level node ids) into pointer arrays.
        final_ptrs = []
        child_counts = None
        for level in range(order - 1):
            level_idcs, node_of, n_nodes = ptrs[level]
            if level == order - 2:
                child_parent = node_of  # leaves' parents
            else:
                # children of this level are the nodes of the next level;
                # each next-level node's parent is node_of at its first row
                nxt_idcs, nxt_node_of, nxt_n = ptrs[level + 1]
                first_rows = np.searchsorted(nxt_node_of, np.arange(nxt_n))
                child_parent = node_of[first_rows]
            ptr = np.zeros(n_nodes + 1, dtype=np.int64)
            np.add.at(ptr, child_parent + 1, 1)
            np.cumsum(ptr, out=ptr)
            final_ptrs.append(ptr)
            idcs[level] = level_idcs
            child_counts = ptr
        del child_counts
        return cls(shape, final_ptrs, idcs, vals)

    @classmethod
    def from_dense(cls, dense, tol=0.0):
        """Build from a dense array, dropping ``|v| <= tol`` (NaN entries
        are kept)."""
        dense = np.asarray(dense, dtype=np.float64)
        coords = np.argwhere(~(np.abs(dense) <= tol))
        vals = dense[tuple(coords.T)] if len(coords) else np.zeros(0)
        return cls.from_coo(coords, vals, dense.shape)

    def to_dense(self):
        out = np.zeros(self.shape, dtype=np.float64)
        for coord, v in zip(self.iter_coords(), self.vals):
            out[coord] = v
        return out

    def iter_coords(self):
        """Yield the full coordinate tuple of every stored nonzero."""
        order = self.order
        if order == 2:
            for i, idx0 in enumerate(self.idcs[0]):
                for k in range(self.ptrs[0][i], self.ptrs[0][i + 1]):
                    yield (int(idx0), int(self.idcs[1][k]))
            return

        def walk(level, node, prefix):
            if level == order - 1:
                yield prefix + (int(self.idcs[level][node]),)
                return
            coord = prefix + (int(self.idcs[level][node]),)
            for child in range(self.ptrs[level][node], self.ptrs[level][node + 1]):
                yield from walk(level + 1, child, coord)

        roots = len(self.idcs[0])
        for root in range(roots):
            yield from walk(0, root, ())

    def leaf_fiber(self, *prefix):
        """Return the leaf :class:`SparseFiber` under a coordinate prefix.

        ``prefix`` must address one node per level above the leaves.
        """
        if len(prefix) != self.order - 1:
            raise FormatError(f"prefix must have {self.order - 1} coordinates")
        node = None
        lo, hi = 0, len(self.idcs[0])
        for level, coord in enumerate(prefix):
            seg = self.idcs[level][lo:hi]
            pos = np.searchsorted(seg, coord)
            if pos == len(seg) or seg[pos] != coord:
                return SparseFiber([], [], dim=self.shape[-1])
            node = lo + int(pos)
            lo, hi = int(self.ptrs[level][node]), int(self.ptrs[level][node + 1])
        return SparseFiber(self.idcs[-1][lo:hi], self.vals[lo:hi], dim=self.shape[-1])

    def ttv(self, vector):
        """Tensor-times-vector along the last mode (per paper ref [10]).

        Contracts the leaf mode with ``vector``; returns an order-1-lower
        dense tensor. Every leaf fiber contraction is exactly the SpVV the
        ISSR accelerates.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if len(vector) < self.shape[-1]:
            raise FormatError("vector shorter than the leaf mode")
        out = np.zeros(self.shape[:-1], dtype=np.float64)
        for coord in self._nonleaf_coords():
            out[coord] = self.leaf_fiber(*coord).dot_dense(vector)
        return out

    def _nonleaf_coords(self):
        seen = []
        last = None
        for coord in self.iter_coords():
            head = coord[:-1]
            if head != last:
                seen.append(head)
                last = head
        return seen

    def __repr__(self):
        return f"CsfTensor(shape={self.shape}, nnz={self.nnz})"
