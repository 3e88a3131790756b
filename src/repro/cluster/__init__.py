"""Multi-core Snitch cluster and its CsrMV runtime (§II-C, §IV-B, Fig. 3).

:mod:`~repro.cluster.cluster` builds the eight-worker cluster with its
banked TCDM and DMA; :mod:`~repro.cluster.runtime` runs §IV-B's
double-buffered CsrMV on it and holds the tile plan (``plan_tiles``)
that the compiled backend's cluster model shares.
"""

from repro.cluster.cluster import SnitchCluster
from repro.cluster.runtime import ClusterCsrmv, ClusterStats, run_cluster_csrmv

__all__ = ["SnitchCluster", "ClusterCsrmv", "ClusterStats", "run_cluster_csrmv"]
