"""Multi-cluster scale-out: shard sparse kernels across N clusters.

The paper evaluates ISSR on one 8-core Snitch cluster (§IV); this
package models its successor systems' scale-out shape (Occamy-style
multi-cluster accelerators behind HBM, see PAPERS.md):

- :mod:`~repro.multicluster.partition` — row-wise sparse partitioners
  (``row_block`` / ``nnz_balanced`` / ``cyclic``) emitting per-cluster
  sub-problems plus a combine plan;
- :mod:`~repro.multicluster.hbm` — the hierarchical memory model:
  shared HBM bandwidth, per-cluster DMA links, contention;
- :mod:`~repro.multicluster.runtime` — N cycle-accurate clusters
  stepped by one engine behind an :class:`HbmFabric`;
- :mod:`~repro.multicluster.model` — the compiled backend's analytic
  scale-out, :func:`~repro.multicluster.model.scale_out_stats`: each
  shard's §IV-B cluster model at its share of the HBM bandwidth, max
  over clusters plus the combine cost;
- :mod:`~repro.multicluster.dispatch` — :func:`run_multicluster`, the
  single entry point used by the scaling experiments
  (:mod:`repro.eval.scaling`).

>>> from repro.multicluster import run_multicluster
>>> stats, y = run_multicluster(matrix, x, n_clusters=8,
...                             partitioner="nnz_balanced",
...                             backend="compiled")   # doctest: +SKIP
"""

from repro.multicluster.dispatch import MULTICLUSTER_KERNELS, run_multicluster
from repro.multicluster.hbm import (
    HBM_WORDS_PER_CYCLE,
    SYNC_CYCLES,
    HbmConfig,
    HbmFabric,
)
from repro.multicluster.partition import (
    PARTITIONER_NAMES,
    PARTITIONERS,
    Partition,
    Shard,
    fibers_to_csr,
    get_partitioner,
    partition_cyclic,
    partition_nnz_balanced,
    partition_row_block,
    take_rows,
)
from repro.multicluster.runtime import MultiClusterStats, run_multicluster_cycle

__all__ = [
    "HBM_WORDS_PER_CYCLE",
    "MULTICLUSTER_KERNELS",
    "PARTITIONERS",
    "PARTITIONER_NAMES",
    "SYNC_CYCLES",
    "HbmConfig",
    "HbmFabric",
    "MultiClusterStats",
    "Partition",
    "Shard",
    "fibers_to_csr",
    "get_partitioner",
    "partition_cyclic",
    "partition_nnz_balanced",
    "partition_row_block",
    "run_multicluster",
    "run_multicluster_cycle",
    "take_rows",
]
