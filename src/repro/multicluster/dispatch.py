"""The multi-cluster entry point: partition, execute, combine.

``run_multicluster`` is the scale-out analogue of
``Backend.cluster_csrmv`` (§IV-B): it shards one sparse kernel
invocation across N simulated clusters with a chosen partitioner,
executes every shard on the selected backend — ``cycle`` steps N
:class:`~repro.cluster.cluster.SnitchCluster` instances in one engine
behind a shared HBM fabric and scatters the per-cluster results back
into the global result; ``compiled`` replays the whole operand's
lowered program once (rows replay independently, so that is every
shard's replay, bit for bit) and prices every shard in one pass of
:func:`~repro.multicluster.model.scale_out_stats`. Supported kernels:

- ``csrmv`` — both backends, bit-identical results;
- ``spvv_batch`` — a batch of SpVV fibers against one dense vector,
  lowered to CsrMV (one fiber per row, §III-B) and sharded the same
  way, both backends;
- ``csrmm`` — compiled only (there is no cycle-level cluster
  CsrMM runtime to validate against yet);
- ``spgemm`` — sparse-sparse CSR x CSR (compiled only): A's rows
  shard through the same partitioners, B broadcasts whole through the
  HBM model, and each shard's model reads its rows' output pattern
  from the one replay's result.
"""

import functools

import numpy as np

from repro.api.registry import get_kernel
from repro.backends import get_backend
from repro.backends.model import cluster_csrmv_shards, spgemm_row_terms
from repro.errors import ConfigError
from repro.kernels.common import check_reference
from repro.kernels.spgemm import spgemm_reference
from repro.multicluster.hbm import HbmConfig
from repro.multicluster.model import (
    cluster_csrmm_shards,
    cluster_spgemm_shards,
    scale_out_stats,
)
from repro.multicluster.partition import fibers_to_csr, get_partitioner
from repro.multicluster.runtime import run_multicluster_cycle

#: Kernels the multi-cluster layer can shard.
MULTICLUSTER_KERNELS = ("csrmv", "csrmm", "spvv_batch", "spgemm")


def run_multicluster(operand, dense, kernel="csrmv", n_clusters=8,
                     partitioner="nnz_balanced", variant="issr",
                     index_bits=16, backend=None, hbm=None, n_workers=8,
                     tcdm_bytes=256 * 1024, check=True,
                     max_cycles=100_000_000, watchdog=200000):
    """Shard one sparse kernel invocation across N simulated clusters.

    ``operand`` is the sparse operand (a :class:`CsrMatrix`, or a list
    of :class:`SparseFiber` for ``spvv_batch``); ``dense`` the dense
    one (vector for ``csrmv``/``spvv_batch``, matrix for ``csrmm``).
    ``max_cycles`` and ``watchdog`` bound the cycle-stepped backend
    (the compiled backend computes analytically and ignores them, like
    its ``cluster_csrmv`` ignores ``max_cycles``). Returns
    ``(MultiClusterStats, result)``. The partition's combine step is a
    pure row scatter, so results are bit-identical across backends and
    to a single-cluster run of the same kernel.
    """
    if kernel not in MULTICLUSTER_KERNELS:
        raise ConfigError(
            f"unknown multicluster kernel {kernel!r}; expected one of "
            f"{MULTICLUSTER_KERNELS}"
        )
    hbm = hbm if hbm is not None else HbmConfig()
    backend = get_backend(backend)
    backend_name = backend.name
    if backend_name not in ("cycle", "compiled"):
        raise ConfigError(
            f"multicluster supports the 'cycle' and 'compiled' backends, "
            f"not {backend_name!r}"
        )
    if backend_name == "cycle" and kernel in ("csrmm", "spgemm"):
        raise ConfigError(
            f"multicluster {kernel} is modeled analytically; "
            "run it with backend='compiled'"
        )

    if kernel == "spvv_batch":
        # each fiber is checked as the SpVV it is, then the batch runs
        # as the CsrMV it lowers to
        fibers = list(operand)
        spvv = get_kernel("spvv")
        for fiber in fibers:
            dense = spvv.validate_operands({"fiber": fiber, "x": dense},
                                           variant, index_bits)["x"]
        matrix = fibers_to_csr(fibers, dim=len(dense))
    else:
        matrix = operand
    spec = get_kernel("csrmv" if kernel == "spvv_batch" else kernel)
    sparse, other = spec.operands
    dense = spec.validate_operands({sparse: matrix, other: dense}, variant,
                                   index_bits)[other]
    partition = get_partitioner(partitioner)(matrix, n_clusters)
    if backend_name == "cycle":  # csrmv and spvv_batch (refused above)
        return run_multicluster_cycle(
            partition, dense, variant=variant, index_bits=index_bits,
            hbm=hbm, n_workers=n_workers, tcdm_bytes=tcdm_bytes,
            check=check, max_cycles=max_cycles, watchdog=watchdog)

    # rows replay independently, so one replay of the whole operand is
    # each shard's replay, bit for bit
    result = backend.run(spec.name, variant=variant, index_bits=index_bits,
                         **{sparse: matrix, other: dense})[1]
    rows, bounds = partition.row_order()
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(matrix.row_lengths()[rows], out=ptr[1:])
    model_kwargs = {"variant": variant, "index_bits": index_bits,
                    "n_workers": n_workers, "tcdm_words": tcdm_bytes // 8}
    result_words = None  # one per result row
    if kernel == "spgemm":
        # A's rows shard; B broadcasts whole (like CsrMM's dense B)
        terms = spgemm_row_terms(matrix, dense, result.ptr)[:, rows]
        model = functools.partial(cluster_spgemm_shards, ptr, terms,
                                  bounds, dense, **model_kwargs)
        result_words = result.nnz
    elif kernel == "csrmm":
        model = functools.partial(cluster_csrmm_shards, ptr, bounds,
                                  matrix.ncols, dense.shape[1],
                                  **model_kwargs)
        result_words = partition.nrows * dense.shape[1]
    else:
        model = functools.partial(cluster_csrmv_shards, ptr, bounds,
                                  matrix.ncols, **model_kwargs)
    stats = scale_out_stats(partition, model, hbm, result_words)
    if check:
        label = f"multicluster {kernel} {variant}/{index_bits}"
        if kernel == "spgemm":
            check_reference(result.to_dense(),
                            spgemm_reference(matrix, dense), label)
        else:
            check_reference(result, matrix.spmm(dense) if kernel == "csrmm"
                            else matrix.spmv(dense), label)
    return stats, result
