"""E14 — out-of-core streaming-tiled execution on million-row matrices.

The paper's evaluation stops at TCDM-resident workloads; this
experiment takes the same kernels **past the main-memory budget**. A
synthetic million-row matrix (web-graph or FEM-banded, written
straight to disk by :mod:`repro.workloads.disk` — no resident copy
ever exists) is opened as an mmap-backed cache
(:mod:`repro.formats.external`) and driven through the streaming tiled
executor (:mod:`repro.stream`):

- **residency**: the double-buffered tile plan keeps the modeled
  matrix working set under 25% of the matrix bytes (default budget:
  1/8 of the matrix);
- **exactness**: the streamed result is bit-identical to a resident
  run on a subsampled row window, and bit-identical to the cycle
  engine on a truncated, column-remapped prefix;
- **single-pass streaming**: the transfer ledger shows every tile
  crossing the link exactly once per CsrMV pass, including across the
  multi-pass power iteration;
- **bandwidth**: effective streamed bytes/cycle over the overlapped
  critical path (GB/s at the paper's 1 GHz clock).

Quick mode shrinks the matrix to a few thousand rows; ``--full`` runs
the headline 1M-row configuration (~140 MB cache, generated once into
the cache directory and reused).
"""

import hashlib
import json
import os

import numpy as np

from repro.eval.report import ExperimentResult
from repro.formats import open_csr_cache
from repro.formats.csr import CsrMatrix
from repro.mem.dma import TransferLedger
from repro.stream import stream_csrmv, stream_power_iteration
from repro.workloads import generate_cache

#: Headline matrix height (full mode): one million rows.
DEFAULT_NROWS = 1_000_000
#: Web-graph mean out-degree / FEM half-bandwidth of the default runs.
DEFAULT_DEGREE = 8
#: Main-memory budget as a fraction of the matrix bytes (two tiles of
#: half the budget live in steady state -> ~12.5% modeled residency).
BUDGET_FRACTION = 0.125
#: The residency claim: peak modeled working set under this fraction.
RESIDENT_CLAIM = 0.25
#: Rows of the resident differential window (subsampled mid-matrix).
DEFAULT_WINDOW = 4096
#: Rows of the cycle-engine truncated-prefix differential.
CYCLE_ROWS = 96
#: Power-iteration passes of the ledger exactly-once check.
DEFAULT_ITERS = 3
#: Backends the full matrix streams on (cycle runs the prefix only).
STREAM_BACKENDS = ("compiled",)
#: Default JSON artifact path.
DEFAULT_JSON = "outofcore.json"


def _digest(arr):
    """Order-sensitive bit-exact digest of a float64 vector."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _cache_path(cache_dir, workload, nrows, degree, seed):
    name = f"{workload}_n{nrows}_d{degree}_s{seed}.csrbin"
    return os.path.join(cache_dir, name)


def _prefix_remapped(matrix, rows):
    """First ``rows`` rows with columns compacted for a resident run.

    Gathering ``x`` through the remap leaves every product (and its
    accumulation order) untouched, so the resident result on the
    remapped block is bit-identical to the streamed rows — while the
    cycle engine only ever sees a few-hundred-word dense vector.
    """
    block = matrix.row_block(0, rows)
    cols, inverse = np.unique(np.asarray(block.idcs), return_inverse=True)
    small = CsrMatrix(np.asarray(block.ptr), inverse.astype(np.int64),
                      np.asarray(block.vals), (rows, len(cols)))
    return small, cols


def run(nrows=DEFAULT_NROWS, workload="webgraph", degree=DEFAULT_DEGREE,
        budget_fraction=BUDGET_FRACTION, mainmem_budget=None,
        n_iters=DEFAULT_ITERS, window_rows=DEFAULT_WINDOW,
        cycle_rows=CYCLE_ROWS, seed=0, backend=None, cache_dir=None,
        out_json=DEFAULT_JSON):
    """Run the out-of-core experiment; returns an ExperimentResult.

    ``backend`` overrides the backend of the streamed sweep;
    ``mainmem_budget`` (bytes) overrides the fractional budget —
    the CLI's ``--mainmem-budget`` lands here. The matrix cache is
    generated once into ``cache_dir`` (default ``$REPRO_CACHE_DIR`` or
    ``.repro-cache``) and reused across runs.
    """
    from repro.backends import get_backend

    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
    cache_dir = os.path.expanduser(cache_dir)
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, workload, nrows, degree, seed)
    kwargs = ({"avg_degree": degree} if workload == "webgraph"
              else {"band": degree})
    generate_cache(workload, path, nrows, seed=seed, **kwargs)
    matrix = open_csr_cache(path)

    matrix_bytes = int(matrix.ptr[-1]) * 16 + (matrix.nrows + 1) * 8
    budget = (int(mainmem_budget) if mainmem_budget
              else max(int(matrix_bytes * budget_fraction), 4096))
    backends = ((get_backend(backend).name,) if backend is not None
                else STREAM_BACKENDS)
    x = np.random.default_rng(seed).random(matrix.ncols)

    result = ExperimentResult(
        "E14", "out-of-core streaming-tiled CsrMV "
        f"({workload}, {nrows} rows, budget "
        f"{budget / (1 << 20):.3g} MiB)",
        ["backend", "tiles", "matrix MiB", "peak MiB", "resident %",
         "Mcycles", "B/cycle", "GB/s @1GHz"])

    sweep = []
    ref = None
    for name in backends:
        ledger = TransferLedger()
        stats, y = stream_csrmv(matrix, x, budget_bytes=budget,
                                backend=name, ledger=ledger)
        counts = ledger.counts(0)
        if ref is None:
            ref = y
        row = {
            "backend": name,
            "tiles": stats.tiles,
            "matrix_bytes": stats.matrix_bytes,
            "peak_resident_bytes": stats.peak_resident_bytes,
            "resident_fraction": stats.peak_resident_bytes
            / stats.matrix_bytes,
            "cycles": stats.cycles,
            "compute_cycles": stats.compute_cycles,
            "dma_cycles": stats.dma_cycles,
            "bytes_per_cycle": stats.bytes_per_cycle,
            "overlap_efficiency": stats.overlap_efficiency,
            "digest": _digest(y),
            "tiles_streamed_once": all(v == 1 for v in counts.values())
            and len(counts) == stats.tiles,
        }
        sweep.append(row)
        result.add_row(name, stats.tiles,
                       round(stats.matrix_bytes / (1 << 20), 1),
                       round(stats.peak_resident_bytes / (1 << 20), 2),
                       round(100 * row["resident_fraction"], 2),
                       round(stats.cycles / 1e6, 2),
                       round(stats.bytes_per_cycle, 2),
                       round(stats.bytes_per_cycle, 2))

    # resident differential on a mid-matrix row window
    w0 = min(max((matrix.nrows - window_rows) // 2, 0), matrix.nrows)
    w1 = min(w0 + window_rows, matrix.nrows)
    block = matrix.row_block(w0, w1)
    # fully resident copy — no mmap views behind the reference run
    window = CsrMatrix(np.array(block.ptr), np.array(block.idcs),
                       np.array(block.vals), block.shape)
    _, y_window = get_backend("compiled").run(
        "csrmv", matrix=window, x=x, variant="issr", index_bits=32)
    window_identical = bool(np.array_equal(ref[w0:w1], y_window))

    # cycle-engine differential on a truncated, column-remapped prefix
    rows = min(cycle_rows, matrix.nrows)
    small, cols = _prefix_remapped(matrix, rows)
    _, y_cycle = get_backend("cycle").run(
        "csrmv", matrix=small, x=x[cols], variant="issr", index_bits=32)
    cycle_identical = bool(np.array_equal(ref[:rows], y_cycle))

    # multi-pass power iteration: each tile exactly once per pass
    ledger = TransferLedger()
    pstats, _, history = stream_power_iteration(
        matrix, n_iters, budget_bytes=budget, backend=backends[0],
        ledger=ledger)
    per_pass_once = all(
        all(v == 1 for v in ledger.counts(pid).values())
        for pid in ledger.passes())

    claims = {
        "peak_resident_under_quarter": {
            "threshold": RESIDENT_CLAIM,
            "resident_fraction_by_backend": {
                r["backend"]: r["resident_fraction"] for r in sweep},
            "holds": all(r["resident_fraction"] < RESIDENT_CLAIM
                         for r in sweep),
        },
        "window_bit_identical_resident": {
            "window": [w0, w1],
            "holds": window_identical,
        },
        "cycle_prefix_bit_identical": {
            "rows": rows,
            "holds": cycle_identical,
        },
        "tiles_streamed_once_per_pass": {
            "passes": len(ledger.passes()),
            "holds": per_pass_once
            and all(r["tiles_streamed_once"] for r in sweep)
            and len(ledger.passes()) == n_iters,
        },
    }

    result.paper = {
        f"peak resident fraction (< {RESIDENT_CLAIM})": RESIDENT_CLAIM,
        "tile transfers per pass": 1,
    }
    result.measured = {
        f"peak resident fraction (< {RESIDENT_CLAIM})":
            round(max(r["resident_fraction"] for r in sweep), 4),
        "tile transfers per pass":
            1 if claims["tiles_streamed_once_per_pass"]["holds"] else None,
    }
    result.notes.append(
        "streamed results are bit-identical to the resident backends by "
        "construction (row-block tiling preserves per-row accumulation "
        "order); the claims verify it empirically")
    result.notes.append(
        f"power iteration: {n_iters} passes, eigenvalue estimate "
        f"{history[-1]:.6g}, aggregate {pstats.tiles} tile transfers")
    for name, claim in claims.items():
        if claim["holds"] is False:
            result.notes.append(f"CLAIM FAILED: {name} ({claim})")

    if out_json:
        payload = {
            "experiment": "outofcore",
            "config": {"nrows": matrix.nrows, "ncols": matrix.ncols,
                       "nnz": int(matrix.ptr[-1]), "workload": workload,
                       "degree": degree, "seed": seed,
                       "budget_bytes": budget,
                       "matrix_bytes": matrix_bytes,
                       "cache_path": path, "n_iters": n_iters,
                       "window_rows": window_rows,
                       "cycle_rows": rows,
                       "backends": list(backends)},
            "sweep": sweep,
            "power_iteration": {
                "history": history,
                "passes": len(ledger.passes()),
                "total_tiles": pstats.tiles,
                "words_in": ledger.words(direction="in"),
            },
            "claims": claims,
        }
        out_json = os.path.expanduser(out_json)
        with open(out_json, "w") as fh:
            json.dump(payload, fh, indent=1)
        result.notes.append(f"full dataset written to {out_json}")
    return result
