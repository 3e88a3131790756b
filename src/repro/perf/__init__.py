"""Area, timing, power, and related-work models."""

from repro.perf.area import (
    AreaReport,
    cc_area,
    cluster_area,
    issr_lane_area,
    issr_vs_ssr_overhead,
    streamer_area,
)
from repro.perf.power import PowerReport, energy_gain, estimate_cluster_power
from repro.perf.related import (
    ALL_POINTS,
    PAPER_CLUSTER_UTILIZATION,
    comparison_table,
    headline_ratios,
)
from repro.perf.timing import issr_critical_path, ssr_critical_path

__all__ = [
    "AreaReport",
    "issr_lane_area",
    "streamer_area",
    "cc_area",
    "cluster_area",
    "issr_vs_ssr_overhead",
    "ssr_critical_path",
    "issr_critical_path",
    "PowerReport",
    "estimate_cluster_power",
    "energy_gain",
    "comparison_table",
    "headline_ratios",
    "ALL_POINTS",
    "PAPER_CLUSTER_UTILIZATION",
]
