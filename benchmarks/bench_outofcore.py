"""Wall-clock benchmark for the out-of-core streaming path.

Three phases over a ~200k-row webgraph cache (generated once per run
into a temp dir, so cold-cache ingest cost is measured too):

- **ingest**: disk-generator -> binary cache write throughput (MB/s);
- **open**: cache open + tile planning latency (header + ptr pages
  only — must stay in single-digit milliseconds regardless of nnz);
- **stream**: a full streaming CsrMV pass on the compiled backend, wall
  tiles/s and effective streamed MB/s.

Writes ``BENCH_outofcore.json`` and fails when tiles/s or streamed
MB/s regress more than 20% against the committed
``benchmarks/BENCH_outofcore_baseline.json`` (same gate as
bench_engine / bench_serve).
"""

import json
import os
import tempfile
import time

import numpy as np

from repro.eval.parallel import code_version
from repro.formats import open_csr_cache
from repro.stream import plan_row_tiles, stream_csrmv
from repro.workloads import generate_cache

NROWS = 200_000
DEGREE = 8
BUDGET = 4 << 20

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_outofcore_baseline.json")
OUTPUT_PATH = "BENCH_outofcore.json"

RESULTS = {}

_tmpdir = None
_cache_path = None


def _cache():
    global _tmpdir, _cache_path
    if _cache_path is None:
        _tmpdir = tempfile.TemporaryDirectory(prefix="bench-outofcore-")
        path = os.path.join(_tmpdir.name, "web.csrbin")
        t0 = time.perf_counter()
        generate_cache("webgraph", path, NROWS, seed=5, avg_degree=DEGREE)
        wall = time.perf_counter() - t0
        size = os.path.getsize(path)
        RESULTS["ingest"] = {
            "wall_s": round(wall, 4),
            "cache_mb": round(size / 2**20, 1),
            "mb_per_s": round(size / 2**20 / wall, 1),
        }
        _cache_path = path
    return _cache_path


def test_ingest_throughput():
    _cache()
    measured = RESULTS["ingest"]
    print(f"ingest: {measured['cache_mb']} MB cache in "
          f"{measured['wall_s']}s ({measured['mb_per_s']} MB/s)")
    assert measured["mb_per_s"] > 1.0


def test_open_and_plan_latency():
    path = _cache()
    t0 = time.perf_counter()
    matrix = open_csr_cache(path)
    tiles = plan_row_tiles(matrix.ptr, matrix.nrows, BUDGET)
    wall = time.perf_counter() - t0
    RESULTS["open"] = {"wall_ms": round(wall * 1e3, 3),
                       "tiles": len(tiles)}
    print(f"open+plan: {RESULTS['open']['wall_ms']}ms, "
          f"{len(tiles)} tiles")
    assert wall < 1.0, "cache open must not scale with the payload"


def test_streaming_pass():
    matrix = open_csr_cache(_cache())
    x = np.random.default_rng(0).random(matrix.ncols)
    stream_csrmv(matrix, x, budget_bytes=BUDGET)  # warm the page cache
    t0 = time.perf_counter()
    stats, y = stream_csrmv(matrix, x, budget_bytes=BUDGET)
    wall = time.perf_counter() - t0
    RESULTS["stream"] = {
        "wall_s": round(wall, 4),
        "tiles": stats.tiles,
        "tiles_per_s": round(stats.tiles / wall, 1),
        "streamed_mb_per_s": round(stats.bytes_in / 2**20 / wall, 1),
        "peak_resident_mb": round(stats.peak_resident_bytes / 2**20, 2),
        "model_bytes_per_cycle": round(stats.bytes_per_cycle, 2),
    }
    measured = RESULTS["stream"]
    print(f"stream: {stats.tiles} tiles in {measured['wall_s']}s "
          f"({measured['tiles_per_s']} tiles/s, "
          f"{measured['streamed_mb_per_s']} MB/s)")
    assert np.isfinite(y).all()
    assert stats.peak_resident_bytes <= BUDGET


def test_write_json_and_check_regression():
    global _tmpdir
    assert RESULTS, "benchmarks did not run"
    if _tmpdir is not None:
        _tmpdir.cleanup()

    payload = {"git_describe": code_version(), "benchmarks": RESULTS}
    with open(OUTPUT_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {OUTPUT_PATH}")

    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)["benchmarks"]
    failures = []
    for name, metric in (("stream", "tiles_per_s"),
                         ("stream", "streamed_mb_per_s"),
                         ("ingest", "mb_per_s")):
        if name not in baseline or metric not in baseline[name]:
            continue
        measured = RESULTS[name][metric]
        floor = 0.8 * baseline[name][metric]
        if measured < floor:
            failures.append(f"{name}.{metric}: {measured} < 80% of "
                            f"baseline {baseline[name][metric]}")
    assert not failures, "; ".join(failures)
