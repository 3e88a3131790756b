"""E12 (sparse_sparse) experiment: registry wiring, claims, CLI epilog."""

import json

import pytest

from repro.eval import sparse_sparse
from repro.eval.__main__ import main as eval_main
from repro.eval.experiments import (
    BACKEND_AWARE,
    DESCRIPTIONS,
    EXPERIMENTS,
    PARALLEL_AWARE,
    QUICK,
)
from repro.workloads import random_fiber_pair


def test_registered_like_the_other_experiments():
    assert "sparse_sparse" in EXPERIMENTS
    assert "sparse_sparse" in BACKEND_AWARE
    assert "sparse_sparse" in PARALLEL_AWARE
    assert "sparse_sparse" in QUICK


def test_descriptions_cover_the_whole_registry():
    """Every experiment must carry a CLI --help description."""
    assert set(DESCRIPTIONS) == set(EXPERIMENTS)


def test_help_epilog_generated_from_registry(capsys):
    with pytest.raises(SystemExit):
        eval_main(["--help"])
    out = capsys.readouterr().out
    for exp_id in EXPERIMENTS:
        assert exp_id in out
    assert "E12" in out and "scaling" in out


def test_random_fiber_pair_controls_density():
    for density in (0.0, 0.25, 1.0):
        fa, fb = random_fiber_pair(1024, 64, 64, density, seed=3)
        shared = set(fa.indices.tolist()) & set(fb.indices.tolist())
        assert len(shared) == round(density * 64)
    fa, fb = random_fiber_pair(512, 32, 32, 0.5, seed=4,
                               distribution="powerlaw")
    assert fa.nnz == fb.nnz == 32


def test_quick_fast_sweep_writes_claims(tmp_path):
    out = tmp_path / "sparse_sparse.json"
    result = sparse_sparse.run(
        densities=(0.02, 0.35), workloads=("uniform",), nnz=96,
        spgemm_n=24, backend="compiled", crosscheck=False, out_json=str(out))
    assert result.exp_id == "E12"
    payload = json.loads(out.read_text())
    claim = payload["claims"]["issr_speedup_above_threshold"]
    assert claim["threshold_density"] == sparse_sparse.DENSITY_THRESHOLD
    assert claim["holds"] is True
    # crosscheck skipped -> the backend claims are explicitly unknown
    assert payload["claims"]["compiled_cycle_bit_identical"]["holds"] is None
    assert len(payload["masked_spvv"]) == 2
    assert payload["spgemm"]


@pytest.mark.slow
def test_quick_crosscheck_bit_identical(tmp_path):
    """The two-backend validation points: results equal, cycles close."""
    out = tmp_path / "sparse_sparse.json"
    sparse_sparse.run(densities=(0.1,), workloads=("uniform",), nnz=96,
                      spgemm_n=24, backend="compiled", crosscheck=True,
                      out_json=str(out))
    payload = json.loads(out.read_text())
    assert payload["claims"]["compiled_cycle_bit_identical"]["holds"] is True
    assert payload["claims"]["compiled_cycle_within_tolerance"]["holds"] is True
