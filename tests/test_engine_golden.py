"""Golden cycle/stat fixtures: the engine's numbers pinned across versions.

``tests/test_engine_equiv.py`` compares the event engine against the
dense loop inside one checkout; both modes run the same component
code, so a component change that shifts a statistic in both passes
it. These fixtures pin, for a handful of small fixed-seed runs, the
simulated cycles, every ``STAT_FIELDS`` counter, the per-lane stream
statistics (per core and per cluster where the run has them) and the
sha256 of the result bytes, as committed in
``tests/golden/engine_stats.json``. Between them the runs reach every
memory-side component: the ideal two-port memory (CsrMV on one CC),
the banked TCDM and its DMA (one cluster), the shared HBM fabric
(four clusters), the intersect lane (masked SpVV), dual ISSRs with
indirect writes (SpGEMM), and DMA write-back with barriers (CG on two
clusters). Each run is checked under both engine modes.

Regenerate after an intentional change to simulated timing with::

    PYTHONPATH=src python tests/test_engine_golden.py --regenerate
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.cluster.runtime import run_cluster_csrmv
from repro.kernels.csrmv import run_csrmv
from repro.kernels.masked import run_masked_spvv
from repro.kernels.spgemm import run_spgemm
from repro.multicluster import run_multicluster
from repro.sim.engine import MODES, engine_mode
from repro.solvers.cg import solve_cg
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_fiber_pair,
    random_spd_csr,
)
from test_engine_equiv import STAT_FIELDS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "engine_stats.json")


def _csrmv(variant, bits):
    m = random_csr(12, 64, 96, seed=41)
    x = random_dense_vector(64, seed=42)
    return run_csrmv(m, x, variant, bits)


def _cluster_csrmv():
    m = random_csr(48, 256, 48 * 8, seed=43)
    x = random_dense_vector(256, seed=44)
    return run_cluster_csrmv(m, x, "issr", 16)


def _multicluster():
    m = random_csr(96, 256, 96 * 6, distribution="powerlaw", seed=45)
    x = random_dense_vector(256, seed=46)
    return run_multicluster(m, x, n_clusters=4, partitioner="row_block",
                            backend="cycle")


def _masked_spvv():
    a, b = random_fiber_pair(256, 31, 27, 0.3, seed=47)
    return run_masked_spvv(a, b, "issr", 32)


def _spgemm():
    a = random_csr(10, 24, 50, seed=48)
    b = random_csr(24, 16, 60, seed=49)
    stats, c = run_spgemm(a, b, "issr", 32)
    return stats, c.to_dense()


def _cg():
    m = random_spd_csr(48, offdiag_per_row=4, seed=50)
    b = random_dense_vector(48, seed=51)
    res = solve_cg(m, b, n_iters=3, backend="cycle", n_clusters=2)
    return res.stats, res.x


#: Fixture name -> zero-argument run returning ``(stats, result)``.
RUNS = {
    "csrmv_base32": lambda: _csrmv("base", 32),
    "csrmv_ssr32": lambda: _csrmv("ssr", 32),
    "csrmv_issr32": lambda: _csrmv("issr", 32),
    "csrmv_issr16": lambda: _csrmv("issr", 16),
    "cluster_csrmv_issr16": _cluster_csrmv,
    "multicluster_row_block_4": _multicluster,
    "masked_spvv_issr32": _masked_spvv,
    "spgemm_issr32": _spgemm,
    "cg_2_clusters": _cg,
}


def _stats_record(stats):
    """``STAT_FIELDS``, per-lane stats, and any per-core/cluster breakdown."""
    out = {field: getattr(stats, field) for field in STAT_FIELDS}
    out["lanes"] = {lane: dataclasses.asdict(ls)
                    for lane, ls in sorted(stats.lanes.items())}
    for part in ("per_core", "per_cluster"):
        if getattr(stats, part, None):
            out[part] = [_stats_record(s) for s in getattr(stats, part)]
    return out


def record(name):
    """Run one fixture and reduce it to its JSON-able golden record."""
    stats, result = RUNS[name]()
    out = _stats_record(stats)
    out["result_sha256"] = hashlib.sha256(
        np.ascontiguousarray(result, dtype=np.float64).tobytes()).hexdigest()
    return out


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_fixture_file_covers_every_run():
    assert sorted(_golden()) == sorted(RUNS)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name, mode):
    with engine_mode(mode):
        got = record(name)
    want = _golden()[name]
    diff = {k: (want.get(k), got.get(k)) for k in set(want) | set(got)
            if want.get(k) != got.get(k)}
    assert not diff, (
        f"{name} ({mode}) drifted from tests/golden/engine_stats.json "
        f"(golden, now): {diff}; if the timing change is intentional, "
        "regenerate with PYTHONPATH=src python "
        "tests/test_engine_golden.py --regenerate")


def _regenerate():
    golden = {name: record(name) for name in sorted(RUNS)}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} runs)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
