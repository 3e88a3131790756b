"""E13 driver, registry wiring, and the machine-readable catalog CLI."""

import json

import pytest

from repro.eval.experiments import (
    BACKEND_AWARE,
    DESCRIPTIONS,
    EXPERIMENT_INFO,
    EXPERIMENTS,
    PARALLEL_AWARE,
    experiment_registry,
    run_experiment,
)


class TestRegistryWiring:
    def test_solvers_registered_everywhere(self):
        assert "solvers" in EXPERIMENTS
        assert "solvers" in DESCRIPTIONS
        assert "solvers" in BACKEND_AWARE
        assert "solvers" in PARALLEL_AWARE
        assert EXPERIMENT_INFO["solvers"]["output"] == "solvers.json"

    def test_info_covers_the_whole_registry(self):
        missing = [eid for eid in EXPERIMENTS if eid not in EXPERIMENT_INFO]
        assert not missing, f"EXPERIMENT_INFO misses {missing}"
        stale = [eid for eid in EXPERIMENT_INFO if eid not in EXPERIMENTS]
        assert not stale, f"EXPERIMENT_INFO has stale entries {stale}"

    def test_registry_entries_are_complete(self):
        for entry in experiment_registry():
            assert set(entry) == {"id", "name", "output", "claim_count",
                                  "claims", "backend_aware",
                                  "parallel_aware", "variant_aware",
                                  "cluster_aware"}
            assert entry["claim_count"] == len(entry["claims"])
            assert entry["name"]


class TestListExperimentsCli:
    def test_json_output(self, capsys):
        from repro.eval.__main__ import main

        assert main(["--list-experiments", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_id = {e["id"]: e for e in payload}
        assert set(by_id) == set(EXPERIMENTS)
        assert by_id["solvers"]["output"] == "solvers.json"
        assert by_id["solvers"]["claim_count"] == 7
        assert by_id["E1"]["output"] is None

    def test_human_output(self, capsys):
        from repro.eval.__main__ import main

        assert main(["--list-experiments"]) == 0
        out = capsys.readouterr().out
        for eid in EXPERIMENTS:
            assert eid in out


@pytest.mark.slow
class TestE13:
    def test_quick_run_claims_hold(self, tmp_path):
        """Acceptance: speedup >= 2x at >= 1% density, bit-identical
        iterates across backends/variants on 1 and 4 clusters, zero
        matrix re-DMA — all derived into solvers.json claims."""
        out = tmp_path / "solvers.json"
        result = run_experiment("solvers", quick=True, out_json=str(out))
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "solvers"
        assert set(payload) >= {"config", "sweep", "clusters",
                                "crosscheck", "variants", "convergence",
                                "claims", "ascii_plot"}
        claims = payload["claims"]
        for name, claim in claims.items():
            assert claim["holds"] is not False, (name, claim)
        # the acceptance-critical ones must be measured, not skipped
        for name in ("issr_speedup_above_threshold",
                     "multicluster_speedup",
                     "backend_bit_identical", "cycle_within_tolerance",
                     "no_matrix_redma", "variant_bit_identical",
                     "solvers_converge"):
            assert claims[name]["holds"] is True, name
        assert not any(n.startswith("CLAIM FAILED") for n in result.notes)
        # every sweep row carries all four variant measurements
        for row in payload["sweep"]:
            for variant in ("base32", "ssr32", "issr32", "issr16"):
                assert f"{variant}_cpi" in row

    def test_cluster_sweep_speeds_up(self, tmp_path):
        from repro.eval.solvers import cluster_point

        p1 = cluster_point({"n_clusters": 1, "density": 0.003, "n": 512,
                            "n_iters": 4, "seed": 1, "backend": "compiled"})
        p4 = cluster_point({"n_clusters": 4, "density": 0.003, "n": 512,
                            "n_iters": 4, "seed": 1, "backend": "compiled"})
        assert p1["dma_words_per_iteration"] == 0
        assert p4["dma_words_per_iteration"] > 0
        assert p1["cpi"] / p4["cpi"] > 1.5
