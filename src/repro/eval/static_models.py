"""E5/E6/E9 — the static model experiments: area, timing, related work.

These reproduce the paper's synthesized/measured constants from our
calibrated component models (docs/experiments.md, *E5 / E6*).
"""

from repro.eval.report import ExperimentResult
from repro.perf.area import (
    cluster_area,
    issr_lane_area,
    issr_vs_ssr_overhead,
    streamer_area,
)
from repro.perf.related import ALL_POINTS, comparison_table
from repro.perf.timing import CLOCK_PS, issr_critical_path, ssr_critical_path


def run_area():
    """E5 — Fig. 2 annotations + §IV-C area results."""
    result = ExperimentResult(
        "E5", "Area: streamer/lane breakdown and overheads (kGE)",
        ["block", "kGE", "% of parent"],
    )
    streamer = streamer_area()
    for name, kge, pct in streamer.rows():
        result.add_row(f"streamer/{name}", kge, pct)
    lane = issr_lane_area()
    for name, kge, pct in lane.rows():
        result.add_row(f"issr_lane/{name}", kge, pct)
    cluster = cluster_area()
    for name, kge, pct in cluster.rows():
        result.add_row(f"cluster/{name}", kge, pct)
    lane_over, cluster_over = issr_vs_ssr_overhead()
    result.paper = {"ISSR vs SSR overhead %": 43.0,
                    "cluster area overhead %": 0.8,
                    "ISSR extra kGE": 4.4}
    result.measured = {"ISSR vs SSR overhead %": lane_over * 100,
                       "cluster area overhead %": cluster_over * 100,
                       "ISSR extra kGE": lane.blocks["indirection"]}
    return result


def run_timing():
    """E6 — §IV-C critical paths."""
    result = ExperimentResult(
        "E6", "Timing: address generator critical paths (GF22FDX SSG)",
        ["design", "path", "delay ps", "slack ps", "meets 1 GHz"],
    )
    for report in (ssr_critical_path(), issr_critical_path()):
        result.add_row(report.name, " -> ".join(report.stages),
                       report.delay_ps, report.slack_ps,
                       "yes" if report.meets_timing else "NO")
    result.paper = {"ssr path ps": 301, "issr path ps": 425,
                    "clock ps": CLOCK_PS}
    result.measured = {"ssr path ps": ssr_critical_path().delay_ps,
                       "issr path ps": issr_critical_path().delay_ps,
                       "clock ps": CLOCK_PS}
    return result


def run_related(our_utilization):
    """E9 — §V comparison against published CPU/GPU datapoints.

    ``our_utilization`` should be the measured whole-run cluster FP
    utilization from an E3-style run (products/cycle/FPU).
    """
    result = ExperimentResult(
        "E9", "Related work: peak FP utilization comparison",
        ["platform", "kernel", "precision", "their util", "ours / theirs"],
    )
    for row in comparison_table(our_utilization):
        result.add_row(*row)
    ratio_phi = our_utilization / ALL_POINTS[0].peak_fp_utilization
    ratio_gpu = our_utilization / 0.17
    result.paper = {"vs Xeon Phi CVR": 70.0, "vs GTX 1080 Ti FP64": 2.8}
    result.measured = {"vs Xeon Phi CVR": ratio_phi,
                       "vs GTX 1080 Ti FP64": ratio_gpu}
    result.notes.append(
        "platform datapoints are the paper's published measurements "
        "(no GPU/Phi hardware available); our utilization is simulated"
    )
    return result
