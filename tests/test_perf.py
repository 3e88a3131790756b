"""Tests for the area, timing, power, and analytical models."""

import numpy as np
import pytest

from repro.backends.model import (
    _FIXED,
    _LAUNCH,
    csrmv_cycles,
    csrmv_stats,
    row_cycles,
    spvv_stats,
)
from repro.perf import (
    PAPER_CLUSTER_UTILIZATION,
    cc_area,
    cluster_area,
    comparison_table,
    energy_gain,
    estimate_cluster_power,
    headline_ratios,
    issr_critical_path,
    issr_lane_area,
    issr_vs_ssr_overhead,
    ssr_critical_path,
    streamer_area,
)
from repro.perf.area import ISSR_EXTRA_KGE, ISSR_LANE_KGE, SSR_LANE_KGE
from repro.sim.counters import LaneStats, RunStats
from repro.workloads import PAPER_SET


class TestArea:
    def test_issr_lane_breakdown_consistent(self):
        assert issr_lane_area().total == pytest.approx(ISSR_LANE_KGE)

    def test_issr_overhead_43_percent(self):
        lane, _ = issr_vs_ssr_overhead()
        assert abs(lane - 0.43) < 0.01

    def test_cluster_overhead_under_one_percent(self):
        _, cluster = issr_vs_ssr_overhead()
        assert 0.005 < cluster < 0.01  # paper: 0.8%

    def test_extra_kge(self):
        assert ISSR_LANE_KGE - SSR_LANE_KGE == pytest.approx(ISSR_EXTRA_KGE)

    def test_streamer_composition(self):
        s = streamer_area()
        assert s.blocks["issr_lanes"] == pytest.approx(ISSR_LANE_KGE)
        assert s.total > ISSR_LANE_KGE + SSR_LANE_KGE

    def test_ssr_only_streamer(self):
        s = streamer_area(n_ssr=2, n_issr=0)
        assert "issr_lanes" not in s.blocks

    def test_cc_dominated_by_fpu(self):
        cc = cc_area()
        assert cc.fraction("fpu") > 0.5

    def test_report_rows_sorted(self):
        rows = cluster_area().rows()
        kges = [r[1] for r in rows]
        assert kges == sorted(kges, reverse=True)
        assert sum(r[2] for r in rows) == pytest.approx(100.0)


class TestTiming:
    def test_paper_values(self):
        assert ssr_critical_path().delay_ps == 301
        assert issr_critical_path().delay_ps == 425

    def test_both_meet_1ghz(self):
        assert ssr_critical_path().meets_timing
        assert issr_critical_path().meets_timing

    def test_issr_slower_than_ssr(self):
        assert issr_critical_path().delay_ps > ssr_critical_path().delay_ps


def _fake_stats(cycles, macs, per_core_instr=0, mem=0, dma=0):
    stats = RunStats(cycles=cycles)
    stats.fpu_mac_ops = macs
    stats.fpu_compute_ops = macs
    stats.fpu_issued_ops = macs
    stats.retired = per_core_instr
    stats.mem_reads = mem
    stats.dma_words = dma
    core = RunStats(cycles=cycles)
    core.lanes["l"] = LaneStats(elements_read=macs, mem_reads=macs)
    stats.per_core.append(core)
    return stats


class TestPower:
    def test_more_macs_more_power(self):
        low = estimate_cluster_power(_fake_stats(1000, 100))
        high = estimate_cluster_power(_fake_stats(1000, 800))
        assert high.total_mw > low.total_mw

    def test_energy_per_mac(self):
        report = estimate_cluster_power(_fake_stats(1000, 500))
        assert report.energy_per_mac_pj > 0
        assert report.macs == 500

    def test_product_override(self):
        report = estimate_cluster_power(_fake_stats(1000, 500), n_products=1000)
        assert report.macs == 1000

    def test_static_floor(self):
        report = estimate_cluster_power(_fake_stats(1000, 0))
        assert report.total_mw >= 21.0

    def test_energy_gain(self):
        base = estimate_cluster_power(_fake_stats(9000, 1000))
        issr = estimate_cluster_power(_fake_stats(1500, 1000))
        assert energy_gain(base, issr) > 1.5

    def test_rows_sorted(self):
        rows = estimate_cluster_power(_fake_stats(1000, 100)).rows()
        assert [v for _k, v in rows] == sorted(
            [v for _k, v in rows], reverse=True)


def predict_speedup(nrows, nnz, variant, index_bits=32):
    """CsrMV speedup over BASE (Fig. 4b's y-axis) on uniform rows."""
    lengths = [nnz // nrows] * nrows
    return (csrmv_cycles(lengths, "base", 32)
            / csrmv_cycles(lengths, variant, index_bits))


class TestAnalyticalModel:
    """The compiled backend's closed forms at the paper's limits."""

    def test_spvv_base_rate(self):
        p = spvv_stats(1000, "base", 32)
        assert p.cycles == pytest.approx(9000, rel=0.01)

    def test_spvv_issr_limits(self):
        assert spvv_stats(10000, "issr", 16).fpu_utilization == \
            pytest.approx(0.8, abs=0.02)
        assert spvv_stats(10000, "issr", 32).fpu_utilization == \
            pytest.approx(2 / 3, abs=0.02)

    def test_csrmv_speedup_limits(self):
        s = predict_speedup(64, 64 * 512, "issr", 16)
        assert 6.5 < s <= 7.25  # approaches the 7.2x limit from below/near

    def test_csrmv_speedup_monotone(self):
        speeds = [predict_speedup(64, 64 * npr, "issr", 16)
                  for npr in (2, 8, 32, 128)]
        assert speeds == sorted(speeds)

    def test_short_row_regime(self):
        p = csrmv_stats([1] * 100, "issr", 16)  # 1 nnz/row
        assert p.fpu_utilization < 0.2


@pytest.fixture(scope="module")
def paper_lengths():
    """Row lengths of the paper set, plus all-empty rows and rows on
    both sides of 4 and 8 accumulators."""
    sets = {spec.name: spec.generate(seed=1, scale=0.5).row_lengths()
            for spec in PAPER_SET}
    sets["empty"] = np.zeros(9, dtype=np.int64)
    sets["none"] = np.zeros(0, dtype=np.int64)
    sets["straddle"] = np.random.default_rng(2).integers(0, 13, size=300)
    return sets


class TestCsrmvCycleModel:
    @pytest.mark.parametrize("variant,bits", [("base", 32), ("base", 16),
                                              ("ssr", 32), ("ssr", 16),
                                              ("issr", 32), ("issr", 16)])
    def test_length_histogram_prices_every_row(self, paper_lengths,
                                               variant, bits):
        """Pricing each distinct length once equals pricing every row."""
        for name, lengths in paper_lengths.items():
            launch = _LAUNCH[variant] if lengths.sum() else 0
            want = _FIXED[variant] + launch + int(
                row_cycles(lengths, variant, bits).sum())
            assert csrmv_cycles(lengths, variant, bits) == want, name
            assert csrmv_stats(lengths, variant, bits).cycles == want, name


class TestRelated:
    def test_headline_ratios_at_paper_utilization(self):
        phi, gpu = headline_ratios(PAPER_CLUSTER_UTILIZATION)
        assert phi == pytest.approx(70, abs=1)
        assert gpu == pytest.approx(2.88, abs=0.1)

    def test_comparison_table_rows(self):
        rows = comparison_table(0.5)
        assert len(rows) == 4
        for _name, _k, _p, theirs, ratio in rows:
            assert ratio == pytest.approx(0.5 / theirs)
