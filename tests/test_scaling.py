"""The E11 scaling experiment: points, JSON artifact, derived claims."""

import json

import pytest

from repro.eval import scaling
from repro.eval.experiments import (
    BACKEND_AWARE,
    EXPERIMENTS,
    PARALLEL_AWARE,
    run_experiment,
)

QUICK_KW = dict(
    clusters=(1, 2, 8),
    workloads=("powerlaw-sorted-2k",),
    partitioners=("row_block", "nnz_balanced"),
    scale=0.25,
)


class TestPoints:
    def test_strong_point_schema(self):
        out = scaling.strong_point({
            "workload": "powerlaw-sorted-2k", "partitioner": "nnz_balanced",
            "n_clusters": 4, "seed": 1, "scale": 0.1, "variant": "issr",
            "index_bits": 16, "backend": "compiled", "hbm_words": 64,
        })
        assert out["mode"] == "strong"
        assert out["cycles"] > 0
        assert out["imbalance"] >= 1.0
        assert out["n_clusters"] == 4

    def test_point_params_key_cluster_count(self):
        """Multicluster point params always carry the sharding config."""
        from repro.eval.parallel import point_key

        base = {"workload": "uniform-2k", "partitioner": "row_block",
                "n_clusters": 1, "seed": 1, "scale": 0.1, "variant": "issr",
                "index_bits": 16, "backend": "compiled", "hbm_words": 64}
        keys = {point_key(scaling.strong_point, {**base, **delta})
                for delta in ({}, {"n_clusters": 8},
                              {"partitioner": "cyclic"},
                              {"hbm_words": 8})}
        assert len(keys) == 4

    def test_large_array_params_do_not_collide(self):
        """repr() truncation of big arrays must not alias cache keys."""
        import numpy as np

        from repro.eval.parallel import canonical_params

        a = np.arange(5000.0)
        b = a.copy()
        b[2500] = -1.0
        assert canonical_params({"x": a}) != canonical_params({"x": b})
        assert canonical_params({"x": a}) == canonical_params({"x": a.copy()})


class TestRun:
    @pytest.fixture(scope="class")
    def result_and_json(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("scaling") / "scaling.json"
        result = scaling.run(out_json=str(out), **QUICK_KW)
        return result, json.loads(out.read_text())

    def test_registered_experiment(self):
        assert "scaling" in EXPERIMENTS
        assert "scaling" in BACKEND_AWARE
        assert "scaling" in PARALLEL_AWARE

    def test_json_artifact(self, result_and_json):
        _result, data = result_and_json
        assert data["experiment"] == "scaling"
        assert data["backend"] == "compiled"
        assert len(data["strong"]) == 2 * 3  # partitioners x clusters
        assert len(data["weak"]) == 2 * 3
        assert "ascii_plot" in data
        assert data["config"]["clusters"] == [1, 2, 8]

    def test_claim_nnz_balanced_beats_row_block(self, result_and_json):
        _result, data = result_and_json
        claim = data["claims"]["nnz_balanced_beats_row_block"]
        assert claim["holds"], claim
        assert all(float(g) >= 0.20
                   for g in claim["gain_by_clusters"].values())

    def test_claim_weak_efficiency(self, result_and_json):
        _result, data = result_and_json
        claim = data["claims"]["weak_scaling_efficiency_le_1"]
        assert claim["holds"], claim
        for per in claim["efficiency"].values():
            assert per["1"] == 1.0

    def test_result_table(self, result_and_json):
        result, _data = result_and_json
        assert result.exp_id == "E11"
        modes = {row[0] for row in result.rows}
        assert modes == {"strong", "weak"}
        rendered = result.render()
        assert "nnz_balanced" in rendered

    def test_runs_via_experiment_registry(self, tmp_path):
        result = run_experiment("scaling", backend="compiled",
                                out_json=str(tmp_path / "s.json"),
                                **QUICK_KW)
        assert (tmp_path / "s.json").exists()
        assert result.measured["weak-scaling efficiency bound"] <= 1.0

    def test_unmeasured_claims_are_none_not_vacuous(self):
        from repro.eval.scaling import _claims

        claims = _claims([], [{"mode": "weak", "partitioner": "row_block",
                               "n_clusters": 2, "cycles": 100,
                               "workload": "w", "combine_cycles": 0,
                               "nnz": 1}], (2,))
        assert claims["weak_scaling_efficiency_le_1"]["holds"] is None
        assert claims["nnz_balanced_beats_row_block"]["holds"] is None

    def test_weak_sweep_honors_partitioners(self, tmp_path):
        out = tmp_path / "w.json"
        scaling.run(clusters=(1, 2), workloads=("uniform-2k",),
                    partitioners=("cyclic",), scale=0.25,
                    out_json=str(out))
        data = json.loads(out.read_text())
        assert {r["partitioner"] for r in data["weak"]} == {"cyclic"}
        assert data["config"]["partitioners"] == ["cyclic"]

    def test_baseline_without_row_block(self, tmp_path):
        """Speedups must not self-normalize when row_block is absent."""
        result = scaling.run(clusters=(1, 8),
                             workloads=("powerlaw-sorted-2k",),
                             partitioners=("nnz_balanced",),
                             scale=0.25,
                             out_json=str(tmp_path / "b.json"))
        speedups = {row[3]: row[5] for row in result.rows
                    if row[0] == "strong"}
        assert speedups[1] == 1.0
        assert speedups[8] > 1.5  # real speedup, not a flat 1.0

    def test_cycle_backend_shrinks_sweep(self, tmp_path):
        result = scaling.run(backend="cycle",
                             workloads=("powerlaw-sorted-2k",),
                             partitioners=("nnz_balanced",),
                             out_json=str(tmp_path / "c.json"))
        data = json.loads((tmp_path / "c.json").read_text())
        assert data["backend"] == "cycle"
        assert max(data["config"]["clusters"]) <= 4
        assert data["config"]["scale"] <= 0.1
        # no >= 8-cluster point: the gain claim is unmeasured, not failed
        assert data["claims"]["nnz_balanced_beats_row_block"]["holds"] is None


class TestCli:
    def test_parallel_flag_without_count(self, tmp_path, monkeypatch):
        """`--parallel` with no N must parse (uses every CPU)."""
        from repro.eval.__main__ import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(SystemExit):
            main(["scaling", "--parallel", "0"])  # explicit 0 rejected
        with pytest.raises(SystemExit):
            main(["scaling", "--parallel", "-2"])  # negative rejected
        # the CLI accepts the "fast" alias and records the canonical name
        rc = main(["scaling", "--backend", "fast", "--parallel"])
        assert rc == 0
        data = json.loads((tmp_path / "scaling.json").read_text())
        assert data["backend"] == "compiled"
        assert data["claims"]["nnz_balanced_beats_row_block"]["holds"]
        assert data["claims"]["weak_scaling_efficiency_le_1"]["holds"]
