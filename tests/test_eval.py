"""Tests for the experiment drivers and report rendering."""

from types import SimpleNamespace

import pytest

from repro.eval import EXPERIMENTS, run_experiment
from repro.eval.report import ExperimentResult, ascii_plot, render_table


class TestReport:
    def test_render_table(self):
        r = ExperimentResult("EX", "demo", ["a", "b"])
        r.add_row(1, 2.5)
        r.add_row("x", 0.123)
        r.paper = {"metric": 1.0}
        r.measured = {"metric": 0.9}
        text = r.render()
        assert "demo" in text
        assert "0.123" in text
        assert "paper 1.00 / measured 0.900" in text

    def test_ascii_plot(self):
        text = ascii_plot({"s": [(1, 1.0), (10, 2.0)]}, logx=True)
        assert "o=s" in text

    def test_ascii_plot_empty(self):
        assert ascii_plot({}) == "(no data)"

    def test_render_notes(self):
        text = render_table("t", ["c"], [[1]], notes=["hello"])
        assert "note: hello" in text


class TestDrivers:
    def test_registry_complete(self):
        # every docs/experiments.md entry except E7 (folded into E4) is here
        for eid in ("E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9", "E10"):
            assert eid in EXPERIMENTS

    def test_e1_shapes(self):
        r = run_experiment("E1", nnz_points=(4, 64, 512))
        assert len(r.rows) == 3
        by_nnz = {row[0]: row for row in r.rows}
        # utilization grows with nnz for ISSR kernels
        assert by_nnz[512][6] > by_nnz[4][6]
        # BASE utilization stays near 1/9 at scale
        assert by_nnz[512][1] == pytest.approx(1 / 9, abs=0.02)

    def test_e2_shapes(self):
        r = run_experiment("E2", nnz_per_row=(2, 32, 96), nrows=48)
        speed16 = [row[3] for row in r.rows]
        assert speed16 == sorted(speed16)
        assert speed16[-1] > 4.5

    def test_e3_and_e9(self, tmp_path):
        from repro.workloads import get_spec
        r = run_experiment("E3", specs=[get_spec("orani678")], scale=0.02)
        assert r.measured["peak speedup"] > 1.5
        from repro.eval.experiments import _run_related_from_e3
        rr = _run_related_from_e3(r)
        assert rr.measured["vs Xeon Phi CVR"] > 10

    @pytest.mark.parametrize("quick", [True, False])
    def test_e9_runs_e3_in_the_requested_mode(self, monkeypatch, quick):
        """E9's underlying E3 run gets the mode's scale and the backend."""
        from repro.eval import experiments, fig4c

        seen = []

        def fake_e3(**kwargs):
            seen.append(kwargs)
            return SimpleNamespace(measured={"whole-run utilization": 0.49})

        monkeypatch.setattr(fig4c, "run", fake_e3)
        run_experiment("E9", quick=quick, backend="compiled")
        scale = experiments.QUICK["E3"] if quick else {}
        assert seen == [{**scale, "backend": "compiled"}]

    def test_e4_energy(self):
        from repro.workloads import get_spec
        r = run_experiment("E4", specs=[get_spec("bcsstk13")], scale=0.02)
        gain = r.rows[0][6]
        assert gain > 1.3

    def test_e4_description_names_energy(self):
        """E4 reports power and energy, and its one-line summary (the
        CLI epilog and the docs registry table) says so."""
        from repro.eval.experiments import DESCRIPTIONS
        assert "energy" in DESCRIPTIONS["E4"]
        assert "speedup" not in DESCRIPTIONS["E4"]

    def test_e5_e6_static(self):
        area = run_experiment("E5")
        assert area.measured["ISSR vs SSR overhead %"] == pytest.approx(43, abs=1)
        timing = run_experiment("E6")
        assert timing.measured["issr path ps"] == 425

    def test_e10(self):
        r = run_experiment("E10")
        assert r.measured["Ragusa18 utilization delta %"] < 0.5
