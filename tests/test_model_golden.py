"""Golden model fixtures: the compiled backend's cluster predictions pinned.

``tests/test_replay_golden.py`` pins the result bytes and the cycles of
every compiled kernel call; these fixtures pin every counter of the
§IV-B cluster schedule model and of its multi-cluster scale-out, as
committed in ``tests/golden/model_stats.json``. For each case they
record the sha256 of the result bytes and every scalar ``RunStats``
field of the prediction, of each ``per_cluster`` entry and of each
``per_core`` entry, plus ``combine_cycles`` and ``shard_nnz``, and the
per-core stream lanes of the CsrMV cases. The cases cover:

- compiled ``cluster_csrmv`` in the paper's four series on an E2-like
  96x2048 operand (two tiles), power-law skewed rows and a many-tile
  matrix (dense3k at scale 0.2);
- compiled ``run_multicluster`` CsrMV at 1, 4 and 32 clusters with
  every partitioner, on the default ``HbmConfig`` and on a narrowed
  one, plus a small-TCDM run;
- CsrMM (k=4) and SpGEMM at 1 and 4 clusters, and on one cluster with
  a TCDM small enough for several tiles; ``spvv_batch`` at 2 clusters.

Regenerate only after an intentional change to a cluster model with::

    PYTHONPATH=src python tests/test_model_golden.py --regenerate
"""

import dataclasses
import functools
import hashlib
import json
import os

import numpy as np
import pytest

from repro import api
from repro.formats import CsrMatrix
from repro.multicluster import PARTITIONER_NAMES, HbmConfig, run_multicluster
from repro.sim.counters import LaneStats, RunStats
from repro.workloads import (
    get_spec,
    random_csr,
    random_dense_matrix,
    random_dense_vector,
    random_sparse_vector,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "model_stats.json")

#: The paper's four series.
SERIES = (("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16))

#: Every scalar ``RunStats`` field, in declaration order.
FIELDS = tuple(f.name for f in dataclasses.fields(RunStats)
               if f.type is int)
#: Every ``LaneStats`` field, in declaration order.
LANE_FIELDS = tuple(f.name for f in dataclasses.fields(LaneStats))


@functools.lru_cache(maxsize=None)
def _matrix(shape):
    """One seeded CSR operand per named row shape."""
    if shape == "e2":  # 96x2048, 128 per row: two tiles at both widths
        return random_csr(96, 2048, 96 * 128, seed=81)
    if shape == "powerlaw":
        return random_csr(512, 1024, 512 * 12, distribution="powerlaw",
                          seed=82)
    if shape == "dense3k":  # many tiles
        return get_spec("dense3k").generate(seed=83, scale=0.2)
    # the E11 scale-out operand: degree-sorted power-law rows
    return get_spec("powerlaw-sorted-2k").generate(seed=84, scale=0.25)


def _x(shape):
    return random_dense_vector(_matrix(shape).ncols, seed=85)


def _cluster_csrmv(shape, variant, bits):
    return api.run("cluster_csrmv", backend="compiled", variant=variant,
                   index_bits=bits, matrix=_matrix(shape), x=_x(shape))


def _multicluster(n, partitioner, hbm=None, tcdm_bytes=256 * 1024):
    return run_multicluster(_matrix("scaling"), _x("scaling"), n_clusters=n,
                            partitioner=partitioner, backend="compiled",
                            hbm=hbm, tcdm_bytes=tcdm_bytes)


def _csrmm(n, tcdm_bytes=256 * 1024):
    m = _matrix("powerlaw")
    dense = random_dense_matrix(m.ncols, 4, seed=86)
    return run_multicluster(m, dense, kernel="csrmm", n_clusters=n,
                            backend="compiled", tcdm_bytes=tcdm_bytes)


def _spgemm(n, tcdm_bytes=256 * 1024):
    a = random_csr(160, 120, 160 * 6, distribution="powerlaw", seed=87)
    b = random_csr(120, 96, 120 * 5, seed=88)
    return run_multicluster(a, b, kernel="spgemm", n_clusters=n,
                            backend="compiled", tcdm_bytes=tcdm_bytes)


def _spvv_batch(n):
    fibers = [random_sparse_vector(1024, 20 + 7 * i, seed=89 + i)
              for i in range(24)]
    x = random_dense_vector(1024, seed=120)
    return run_multicluster(fibers, x, kernel="spvv_batch", n_clusters=n,
                            backend="compiled")


def _cases():
    """Fixture name -> (zero-argument run, whether to record lanes)."""
    cases = {}
    for variant, bits in SERIES:
        for shape in ("e2", "powerlaw", "dense3k"):
            cases[f"cluster_csrmv {shape} {variant}{bits}"] = (
                functools.partial(_cluster_csrmv, shape, variant, bits), True)
    for n in (1, 4, 32):
        for partitioner in PARTITIONER_NAMES:
            for label, hbm in (("default", None),
                               ("hbm16", HbmConfig(words_per_cycle=16))):
                cases[f"multicluster csrmv {n} {partitioner} {label}"] = (
                    functools.partial(_multicluster, n, partitioner, hbm),
                    True)
    cases["multicluster csrmv 4 row_block tcdm64k"] = (
        functools.partial(_multicluster, 4, "row_block",
                          tcdm_bytes=64 * 1024), True)
    for n in (1, 4):
        cases[f"multicluster csrmm k4 {n}"] = (
            functools.partial(_csrmm, n), False)
        cases[f"multicluster spgemm {n}"] = (
            functools.partial(_spgemm, n), False)
    # several tiles per cluster
    cases["multicluster csrmm k4 1 tcdm64k"] = (
        functools.partial(_csrmm, 1, 64 * 1024), False)
    cases["multicluster spgemm 1 tcdm16k"] = (
        functools.partial(_spgemm, 1, 16 * 1024), False)
    cases["multicluster spvv_batch 2"] = (
        functools.partial(_spvv_batch, 2), True)
    return cases


#: Fixture name -> (zero-argument run returning ``(stats, result)``,
#: whether the per-core lanes are pinned).
CASES = _cases()


def _digest(result):
    if isinstance(result, CsrMatrix):
        parts = (np.asarray(result.ptr, dtype=np.int64),
                 np.asarray(result.idcs, dtype=np.int64), result.vals)
    else:
        parts = (np.asarray(result, dtype=np.float64),)
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _fields(stats):
    return [int(getattr(stats, f)) for f in FIELDS]


def _cores(stats, lanes):
    """One ``[fields]`` row per core, with ``{lane: [fields]}`` if ``lanes``."""
    rows = []
    for core in stats.per_core:
        row = _fields(core)
        if lanes:
            row.append({name: [getattr(ls, f) for f in LANE_FIELDS]
                        for name, ls in sorted(core.lanes.items())})
        rows.append(row)
    return rows


def record(name):
    """Run one case and reduce it to its JSON-able golden record."""
    run, lanes = CASES[name]
    stats, result = run()
    out = {"sha256": _digest(result), "stats": _fields(stats)}
    clusters = getattr(stats, "per_cluster", None)
    if clusters is None:
        out["per_core"] = _cores(stats, lanes)
        return out
    # a multi-cluster prediction lists the same cores per cluster and flat
    assert _cores(stats, lanes) == [row for cs in clusters
                                    for row in _cores(cs, lanes)]
    out["combine_cycles"] = int(stats.combine_cycles)
    out["shard_nnz"] = [int(n) for n in stats.shard_nnz]
    out["per_cluster"] = [{"stats": _fields(cs), "per_core": _cores(cs, lanes)}
                          for cs in clusters]
    return out


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_fixture_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_matches_golden(name):
    got, want = record(name), _golden()[name]
    diff = {k: (want.get(k), got.get(k)) for k in set(want) | set(got)
            if want.get(k) != got.get(k)}
    assert not diff, (
        f"{name} drifted from tests/golden/model_stats.json (fields "
        f"{FIELDS}; golden, now): {diff}; if the model change is "
        "intentional, regenerate with PYTHONPATH=src python "
        "tests/test_model_golden.py --regenerate")


def _regenerate():
    golden = {name: record(name) for name in sorted(CASES)}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    # one case per line keeps the file small and its diffs readable
    lines = [f" {json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
             for name, rec in golden.items()]
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
