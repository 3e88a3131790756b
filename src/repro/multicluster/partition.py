"""Sparse partitioners: shard one CSR problem across N clusters.

The paper evaluates on a single 8-core cluster (§IV-B); its successor
systems (Occamy, see PAPERS.md) tile dozens of identical clusters
behind HBM. This module splits one CsrMV/CsrMM/SpVV-batch invocation
into per-cluster sub-problems plus a combine plan, mirroring how the
paper's intra-cluster row distribution ("distributing rows among
cores", §IV-B) generalizes to inter-cluster row distribution — and how
its caveat ("block row distribution cannot fully prevent computation
imbalance") motivates nnz-aware schemes.

Three schemes are provided:

- ``row_block``: contiguous equal-*row* blocks, the direct scale-up of
  the paper's intra-cluster scheme (it reuses the same block split as
  :func:`repro.cluster.runtime.worker_shares`). Cheap, DMA-friendly,
  but load-imbalanced on skewed row-degree distributions.
- ``nnz_balanced``: contiguous blocks with boundaries placed on the
  nonzero prefix sum, so every cluster receives ~nnz/N nonzeros. The
  imbalance is bounded: ``max_shard_nnz <= nnz/N + max_row_nnz``.
- ``cyclic``: row ``r`` goes to cluster ``r % N`` — the classic
  round-robin that statistically balances skew at the cost of
  scattered (non-contiguous) DMA traffic and result rows.

All three are *row-wise*: no nonzero is split, every nonzero is
assigned to exactly one cluster, and the combine step is a pure
scatter of result rows (no cross-cluster floating-point reduction), so
multi-cluster results stay **bit-identical** to the single-cluster
kernels.
"""

import numpy as np

from repro.errors import ConfigError, FormatError
from repro.formats.csr import CsrMatrix

#: Scheme names accepted by :func:`get_partitioner`.
PARTITIONER_NAMES = ("row_block", "nnz_balanced", "cyclic")


def take_rows(matrix, rows):
    """Extract ``rows`` (global row ids) of ``matrix`` as a new CSR.

    Preserves the exact per-row nonzero order, so any kernel run on
    the sub-matrix reproduces the corresponding rows of the full-matrix
    result to the last bit. One gather copies every row; a row subset
    of a valid CSR matrix is valid, so the copy is adopted unchecked.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = matrix.ptr[rows]
    lengths = matrix.ptr[rows + 1] - starts
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    # nonzero p of output row i is nonzero starts[i] + (p - ptr[i])
    src = np.repeat(starts - ptr[:-1], lengths) + np.arange(ptr[-1])
    return CsrMatrix._wrap(ptr, matrix.idcs[src], matrix.vals[src],
                           (len(rows), matrix.ncols))


class Shard:
    """One cluster's sub-problem: a row subset of the global matrix."""

    __slots__ = ("cluster_id", "rows", "matrix")

    def __init__(self, cluster_id, rows, matrix):
        self.cluster_id = cluster_id
        self.rows = np.asarray(rows, dtype=np.int64)
        self.matrix = matrix

    @property
    def nnz(self):
        """Nonzeros assigned to this cluster."""
        return self.matrix.nnz

    @property
    def nrows(self):
        """Rows assigned to this cluster."""
        return self.matrix.nrows

    def __repr__(self):
        return (f"Shard(cluster={self.cluster_id}, rows={self.nrows}, "
                f"nnz={self.nnz})")


class Partition:
    """A full sharding of one sparse problem plus its combine plan.

    ``shards`` hold per-cluster sub-matrices; :meth:`combine` scatters
    the per-cluster results back into the global result (rows for
    CsrMV/SpVV-batch, row blocks for CsrMM). :meth:`combine_cycles`
    models the cost of that merge pass against the shared memory
    (see :mod:`repro.multicluster.hbm`); it is zero for the degenerate
    single-cluster partition, which is the identity.
    """

    def __init__(self, scheme, shards, nrows):
        self.scheme = scheme
        self.shards = shards
        self.nrows = nrows

    @property
    def n_clusters(self):
        """Number of shards (clusters), including empty ones."""
        return len(self.shards)

    @property
    def n_active(self):
        """Shards that actually hold nonzeros."""
        return sum(1 for s in self.shards if s.nnz > 0)

    def shard_nnz(self):
        """Per-shard nonzero counts (the load-balance profile)."""
        return [s.nnz for s in self.shards]

    def imbalance(self):
        """max/mean shard nnz — 1.0 is perfectly balanced."""
        nnz = self.shard_nnz()
        total = sum(nnz)
        if total == 0 or not nnz:
            return 1.0
        return max(nnz) / (total / len(nnz))

    def combine(self, parts):
        """Scatter per-cluster results into the global result array.

        ``parts`` is one array per shard (1-D for CsrMV/SpVV-batch,
        2-D for CsrMM). Pure data movement — no arithmetic — so the
        combined result is bit-identical to a single-cluster run.
        """
        if len(parts) != len(self.shards):
            raise ConfigError(
                f"combine expects {len(self.shards)} parts, got {len(parts)}"
            )
        first = next((p for p in parts if p is not None and np.ndim(p) > 1), None)
        if first is not None:
            out = np.zeros((self.nrows, first.shape[1]), dtype=np.float64)
        else:
            out = np.zeros(self.nrows, dtype=np.float64)
        for shard, part in zip(self.shards, parts):
            if shard.nrows:
                out[shard.rows] = part
        return out

    def row_order(self):
        """Every shard's global row ids, shard after shard.

        Returns ``(rows, bounds)``: shard ``s`` holds rows
        ``rows[bounds[s]:bounds[s + 1]]``, the row order the analytic
        cluster models price in one pass.
        """
        bounds = np.zeros(len(self.shards) + 1, dtype=np.int64)
        np.cumsum([shard.nrows for shard in self.shards], out=bounds[1:])
        return np.concatenate([shard.rows for shard in self.shards]), bounds

    def combine_cycles(self, hbm, result_words=None):
        """Modeled merge cost: gather every shard's result region.

        The per-cluster writebacks are already charged inside each
        cluster's run; the combine pass re-reads and re-scatters the
        ``result_words`` (default: one word per result row) through the
        shared memory at its aggregate bandwidth, plus one
        synchronization per cluster. Identity partitions (one cluster)
        cost nothing.
        """
        if self.n_clusters <= 1:
            return 0
        if result_words is None:
            result_words = self.nrows
        move = int(np.ceil(2 * result_words / hbm.words_per_cycle))
        return move + hbm.sync_cycles * self.n_clusters

    def __repr__(self):
        return (f"Partition({self.scheme!r}, n_clusters={self.n_clusters}, "
                f"nrows={self.nrows}, imbalance={self.imbalance():.2f})")


def _contiguous(matrix, bounds, scheme):
    """Build a :class:`Partition` from contiguous row boundaries.

    Each shard is a :meth:`CsrMatrix.row_block` view: a row range of a
    valid matrix is valid, so it is not checked again.
    """
    shards = []
    for c in range(len(bounds) - 1):
        r0, r1 = int(bounds[c]), int(bounds[c + 1])
        shards.append(Shard(c, np.arange(r0, r1, dtype=np.int64),
                            matrix.row_block(r0, r1)))
    return Partition(scheme, shards, matrix.nrows)


def partition_row_block(matrix, n_clusters):
    """Contiguous equal-row blocks (the paper's §IV-B scheme, scaled up).

    Reuses :func:`repro.cluster.runtime.worker_shares` so inter-cluster
    blocks split exactly like intra-cluster worker shares.
    """
    from repro.cluster.runtime import worker_shares

    _check_n(matrix, n_clusters)
    bounds = [0] + [hi for (_lo, hi) in
                    worker_shares(0, matrix.nrows, n_clusters)]
    return _contiguous(matrix, bounds, "row_block")


def partition_nnz_balanced(matrix, n_clusters):
    """Contiguous blocks with ~nnz/N nonzeros per cluster.

    Boundaries are placed on the nonzero prefix sum (``matrix.ptr``):
    cluster ``i`` ends at the first row where the running nonzero count
    reaches ``(i+1) * nnz / N``. Because rows are never split, the
    heaviest shard exceeds the mean by at most one row:
    ``max_shard_nnz <= nnz/N + max_row_nnz``.
    """
    _check_n(matrix, n_clusters)
    targets = matrix.nnz * np.arange(1, n_clusters, dtype=np.float64) \
        / n_clusters
    # first row index whose cumulative nnz (ptr[r+1]) reaches the target
    cuts = np.searchsorted(matrix.ptr[1:], targets, side="left") + 1
    cuts = np.minimum(np.maximum.accumulate(cuts), matrix.nrows)
    bounds = np.concatenate(([0], cuts, [matrix.nrows]))
    return _contiguous(matrix, bounds, "nnz_balanced")


def partition_cyclic(matrix, n_clusters):
    """Round-robin rows: row ``r`` goes to cluster ``r % N``."""
    _check_n(matrix, n_clusters)
    shards = []
    for c in range(n_clusters):
        rows = np.arange(c, matrix.nrows, n_clusters, dtype=np.int64)
        shards.append(Shard(c, rows, take_rows(matrix, rows)))
    return Partition("cyclic", shards, matrix.nrows)


PARTITIONERS = {
    "row_block": partition_row_block,
    "nnz_balanced": partition_nnz_balanced,
    "cyclic": partition_cyclic,
}


def get_partitioner(spec):
    """Resolve a scheme name (or a callable) into a partitioner."""
    if callable(spec):
        return spec
    try:
        return PARTITIONERS[spec]
    except KeyError:
        raise ConfigError(
            f"unknown partitioner {spec!r}; expected one of "
            f"{sorted(PARTITIONERS)}"
        ) from None


def _check_n(matrix, n_clusters):
    if n_clusters < 1:
        raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
    if matrix.nrows < 0:
        raise FormatError("matrix has negative row count")


def fibers_to_csr(fibers, dim=None):
    """Lower a batch of SpVV fibers into one CSR matrix (fiber = row).

    A batch of sparse-dense dot products against a shared dense vector
    *is* a CsrMV (§III-B builds CsrMV from the SpVV building block), so
    the multi-cluster layer shards fiber batches through the same
    row-wise partitioners and cluster runtime.
    """
    if not fibers:
        raise FormatError("fibers_to_csr needs at least one fiber")
    if dim is None:
        dim = max(f.dim for f in fibers)
    lengths = np.array([f.nnz for f in fibers], dtype=np.int64)
    ptr = np.zeros(len(fibers) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    idcs = np.concatenate([np.asarray(f.indices, dtype=np.int64)
                           for f in fibers]) if ptr[-1] else np.zeros(0, np.int64)
    vals = np.concatenate([np.asarray(f.values, dtype=np.float64)
                           for f in fibers]) if ptr[-1] else np.zeros(0)
    return CsrMatrix(ptr, idcs, vals, (len(fibers), dim))
