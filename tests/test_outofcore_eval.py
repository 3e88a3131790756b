"""E14 registry coverage and a quick end-to-end out-of-core run."""

import argparse
import json

import pytest

from repro.eval import outofcore
from repro.eval.__main__ import _budget_bytes
from repro.eval.experiments import (
    BACKEND_AWARE,
    BUDGET_AWARE,
    DESCRIPTIONS,
    EXPERIMENT_INFO,
    EXPERIMENTS,
    QUICK,
    experiment_registry,
    run_experiment,
)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e14")
    out_json = str(tmp / "outofcore.json")
    result = outofcore.run(nrows=3000, n_iters=2, window_rows=256,
                           cache_dir=str(tmp / "cache"), out_json=out_json)
    with open(out_json) as fh:
        payload = json.load(fh)
    return result, payload


class TestRegistry:
    def test_outofcore_registered(self):
        assert "outofcore" in EXPERIMENTS
        assert "outofcore" in DESCRIPTIONS
        assert "outofcore" in QUICK
        assert "outofcore" in BACKEND_AWARE
        assert BUDGET_AWARE == {"outofcore"}

    def test_registry_entry(self):
        entry = {e["id"]: e for e in experiment_registry()}["outofcore"]
        assert entry["output"] == "outofcore.json"
        assert entry["claim_count"] == 4
        assert entry["backend_aware"] is True

    def test_info_claims_match_driver(self, quick_run):
        _, payload = quick_run
        assert set(payload["claims"]) == \
            set(EXPERIMENT_INFO["outofcore"]["claims"])


class TestQuickRun:
    def test_all_claims_hold(self, quick_run):
        _, payload = quick_run
        failing = {name: c for name, c in payload["claims"].items()
                   if not c["holds"]}
        assert not failing

    def test_result_table(self, quick_run):
        result, _ = quick_run
        assert result.exp_id == "E14"
        backends = [row[0] for row in result.rows]
        assert backends == ["compiled"]
        assert not any(note.startswith("CLAIM FAILED")
                       for note in result.notes)

    def test_residency_headline(self, quick_run):
        _, payload = quick_run
        for row in payload["sweep"]:
            assert row["resident_fraction"] < outofcore.RESIDENT_CLAIM
            assert row["peak_resident_bytes"] <= \
                payload["config"]["budget_bytes"]

    def test_power_iteration_passes(self, quick_run):
        _, payload = quick_run
        assert payload["power_iteration"]["passes"] == 2
        assert len(payload["power_iteration"]["history"]) == 2

    def test_config_records_cache(self, quick_run):
        _, payload = quick_run
        cfg = payload["config"]
        assert cfg["nrows"] == 3000
        assert cfg["cache_path"].endswith(".csrbin")
        assert cfg["budget_bytes"] < cfg["matrix_bytes"]


class TestBudgetThreading:
    def test_mainmem_budget_override(self, tmp_path):
        result = outofcore.run(nrows=2000, n_iters=1, window_rows=128,
                               mainmem_budget=32768, backend="compiled",
                               cache_dir=str(tmp_path),
                               out_json=str(tmp_path / "o.json"))
        assert "budget 0.0312 MiB" in result.title

    def test_run_experiment_threads_budget(self, tmp_path):
        result = run_experiment(
            "outofcore", quick=True, backend="compiled",
            mainmem_budget=65536, nrows=2000,
            cache_dir=str(tmp_path), out_json=str(tmp_path / "o.json"))
        assert "budget 0.0625 MiB" in result.title

    def test_budget_ignored_for_unaware(self, tmp_path):
        # threading the flag to a budget-unaware experiment is a no-op
        result = run_experiment("E5", quick=True, mainmem_budget=1)
        assert result is not None

    @pytest.mark.parametrize("text,expect", [
        ("1024", 1024), ("64k", 64 << 10), ("16M", 16 << 20),
        ("2g", 2 << 30), ("8m", 8 << 20),
    ])
    def test_budget_parse(self, text, expect):
        assert _budget_bytes(text) == expect

    @pytest.mark.parametrize("text", ["", "fast", "-5", "0", "1.5M"])
    def test_budget_parse_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _budget_bytes(text)
