"""The multi-cluster entry point: partition, execute, combine.

``run_multicluster`` is the scale-out analogue of
``Backend.cluster_csrmv`` (§IV-B): it shards one sparse kernel
invocation across N simulated clusters with a chosen partitioner,
executes every shard on the selected backend — ``cycle`` steps N
:class:`~repro.cluster.cluster.SnitchCluster` instances in one engine
behind a shared HBM fabric; ``compiled`` replays each shard's lowered
program and predicts each cluster analytically at the contended
bandwidth — and scatters the per-cluster
results back into the global result. Supported kernels:

- ``csrmv`` — both backends, bit-identical results;
- ``spvv_batch`` — a batch of SpVV fibers against one dense vector,
  lowered to CsrMV (one fiber per row, §III-B) and sharded the same
  way, both backends;
- ``csrmm`` — compiled only (there is no cycle-level cluster
  CsrMM runtime to validate against yet);
- ``spgemm`` — sparse-sparse CSR x CSR (compiled only): A's rows
  shard through the same partitioners, B broadcasts whole through the
  HBM model, and the combine stays a pure row scatter
  (:meth:`~repro.multicluster.partition.Partition.combine_sparse`).
"""

import numpy as np

from repro.backends import get_backend
from repro.errors import ConfigError
from repro.kernels.common import check_index_bits, check_variant
from repro.multicluster.hbm import HbmConfig
from repro.multicluster.model import (
    multicluster_csrmm_fast,
    multicluster_csrmv_fast,
    multicluster_spgemm_fast,
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
    check_variant(variant)
    check_index_bits(index_bits)
    hbm = hbm if hbm is not None else HbmConfig()
    backend = get_backend(backend)
    backend_name = backend.name
    if backend_name not in ("cycle", "compiled"):
        raise ConfigError(
            f"multicluster supports the 'cycle' and 'compiled' backends, "
            f"not {backend_name!r}"
        )

    if kernel == "spvv_batch":
        dim = len(np.asarray(dense))
        matrix = fibers_to_csr(list(operand), dim=dim)
    else:
        matrix = operand
    partition = get_partitioner(partitioner)(matrix, n_clusters)

    tcdm_words = tcdm_bytes // 8
    if kernel == "spgemm":
        # A's rows shard; B broadcasts whole (like CsrMM's dense B) —
        # modeled analytically, like csrmm (no cycle-level cluster
        # SpGEMM runtime to validate against yet).
        if backend_name == "cycle":
            raise ConfigError(
                "multicluster spgemm is modeled analytically; "
                "run it with backend='compiled'"
            )
        stats, c = multicluster_spgemm_fast(
            partition, dense, variant, index_bits, hbm=hbm,
            n_workers=n_workers, tcdm_words=tcdm_words, backend=backend)
        if check:
            expect = matrix.to_dense() @ dense.to_dense()
            _check(c.to_dense(), expect, kernel, variant, index_bits)
        return stats, c

    if kernel == "csrmm":
        if backend_name == "cycle":
            raise ConfigError(
                "multicluster csrmm is modeled analytically; "
                "run it with backend='compiled'"
            )
        stats, out = multicluster_csrmm_fast(
            partition, dense, variant, index_bits, hbm=hbm,
            n_workers=n_workers, tcdm_words=tcdm_words, backend=backend)
        if check:
            expect = matrix.spmm(dense)
            _check(out, expect, kernel, variant, index_bits)
        return stats, out

    if backend_name == "cycle":
        return run_multicluster_cycle(
            partition, dense, variant=variant, index_bits=index_bits,
            hbm=hbm, n_workers=n_workers, tcdm_bytes=tcdm_bytes,
            check=check, max_cycles=max_cycles, watchdog=watchdog)
    stats, y = multicluster_csrmv_fast(
        partition, dense, variant, index_bits, hbm=hbm,
        n_workers=n_workers, tcdm_words=tcdm_words, backend=backend)
    if check:
        expect = matrix.spmv(dense)
        _check(y, expect, kernel, variant, index_bits)
    return stats, y


def _check(got, expect, kernel, variant, index_bits):
    """Validate a combined result against the NumPy reference."""
    from repro.errors import SimulationError

    if not np.allclose(got, expect, rtol=1e-9, atol=1e-9):
        raise SimulationError(
            f"multicluster {kernel} {variant}/{index_bits} mismatch "
            f"(max err {np.abs(got - expect).max()})"
        )
