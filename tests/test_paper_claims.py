"""The paper's simulated claims (E1-E4, E8-E10), each at its own bound.

One test per figure or claim, with the sweep and scale that figure is
reproduced at (the static E5/E6 area and timing models are pinned in
``test_perf.py``). The kernel-running claims are parameterized over the
backend: on ``compiled`` they run in tier-1 (milliseconds each, the
analytic model); on ``cycle`` they carry the ``stress`` marker and run
in tier-2 (``python -m pytest -m stress``), where the event engine
simulates every point. E9 reuses E3's result, as
:func:`repro.eval.experiments.run_all` does, so each backend runs the
Fig. 4c sweep once.
"""

import pytest

from repro.eval import claims, fig4a, fig4b, fig4c, fig4d, static_models
from repro.eval.experiments import QUICK, run_experiment

BACKENDS = [pytest.param("compiled"),
            pytest.param("cycle", marks=pytest.mark.stress)]

#: Fig. 4c/4d matrices are scaled down preserving nnz/row.
CLUSTER_SCALE = 0.05


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(scope="module")
def e3(backend):
    return fig4c.run(scale=CLUSTER_SCALE, backend=backend)


def test_e1_fig4a_spvv_utilization(backend):
    measured = fig4a.run(
        nnz_points=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048),
        backend=backend).measured
    assert measured["issr16 util"] > 0.75
    assert measured["issr32 util"] > 0.62
    assert abs(measured["base util"] - 0.111) < 0.01
    assert abs(measured["ssr util"] - 0.143) < 0.01


def test_e2_fig4b_csrmv_speedups(backend):
    measured = fig4b.run(nnz_per_row=(1, 2, 4, 8, 16, 24, 32, 48, 64, 128, 256),
                         nrows=96, backend=backend).measured
    assert measured["issr16 speedup"] > 6.3   # paper limit: 7.2x
    assert measured["issr32 speedup"] > 5.5   # paper limit: 6.0x
    assert 1.2 < measured["ssr speedup"] <= 1.3
    # 16-bit overtakes 32-bit in the paper's ballpark (~20 nnz/row)
    assert 8 <= measured["16/32 crossover nnz/row"] <= 48


def test_e3_fig4c_cluster_speedup(e3):
    assert e3.measured["peak speedup"] > 4.5   # paper: up to 5.8x
    # paper: 0.71 peak; at scale 0.05 the x-transfer/barrier overheads
    # amortize over fewer nonzeros, capping the end-to-end peak ~0.45
    # (the compute-phase peak is 0.63-0.67)
    assert e3.measured["peak core utilization"] > 0.4


def test_e4_fig4d_cluster_energy(backend):
    measured = fig4d.run(scale=CLUSTER_SCALE, backend=backend).measured
    assert measured["peak energy gain"] > 2.0   # paper: up to 2.7x
    assert measured["issr pJ/mac"] < 70         # paper: 53 pJ


def test_e8_inline_claims(backend):
    measured = claims.run_claims(nnz=4096, npr=256, nrows=64,
                                 backend=backend).measured
    assert abs(measured["SpVV util ISSR-16"] - 0.8) < 0.02
    assert measured["CsrMV speedup ISSR-16"] > 6.3


def test_e9_related_work(e3):
    measured = static_models.run_related(
        e3.measured["whole-run utilization"]).measured
    assert measured["vs Xeon Phi CVR"] > 30       # paper: 70x
    assert measured["vs GTX 1080 Ti FP64"] > 1.5  # paper: 2.8x


def test_e10_csrmm_ragusa18(backend):
    measured = claims.run_csrmm_claim(backend=backend).measured
    assert measured["Ragusa18 utilization delta %"] < 0.5


@pytest.mark.stress
def test_e2_quick_sweep_compiled_tracks_cycle():
    """Quick-mode E2: one table schema and headline speedups within 15%."""
    cycle = run_experiment("E2", backend="cycle")
    compiled = run_experiment("E2", backend="compiled")
    assert compiled.columns == cycle.columns
    assert len(compiled.rows) == len(cycle.rows)
    assert [r[0] for r in compiled.rows] == [r[0] for r in cycle.rows]
    assert set(compiled.measured) == set(cycle.measured)
    assert len(compiled.rows) == len(QUICK["E2"]["nnz_per_row"])
    for key in ("ssr speedup", "issr32 speedup", "issr16 speedup"):
        rel = abs(compiled.measured[key] - cycle.measured[key]) \
            / cycle.measured[key]
        assert rel < 0.15, \
            f"{key}: {compiled.measured[key]} vs {cycle.measured[key]}"
