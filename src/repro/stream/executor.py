"""The streaming tiled executor: out-of-core kernels, resident results.

Each entry point plans row tiles (:mod:`repro.stream.plan`), runs the
selected backend on one tile at a time, and composes the full result:

- :func:`stream_csrmv` — tiles are independent row blocks, so the
  composed ``y`` is **bit-identical** to the resident backend;
- :func:`stream_spvv` — the fiber streams in accumulator-aligned
  chunks and each chunk folds onto the resident accumulator lanes
  (one lane for BASE/SSR, the ``n_acc`` round-robin lanes + final
  tree for ISSR), so the dot is bit-identical too;
- :func:`stream_power_iteration` — repeated streaming CsrMV passes;
  the :class:`~repro.mem.dma.TransferLedger` shows every tile crossing
  the link exactly once per pass.

Timing follows the double-buffered DMA schedule of the §IV-B cluster
runtime, lifted one level (disk/HBM -> main-memory tiles), through the
same :func:`repro.mem.dma.overlap`: the first tile's prefetch is
exposed, every later prefetch overlaps the current tile's compute, so

    cycles = dma[0] + sum(max(compute[i], dma[i+1])) + compute[last]

with per-tile DMA cycles priced by
:func:`repro.mem.dma.transfer_cycles` (8 words/cycle per direction;
result write-back rides the independent OUT channel of the duplex
link and is accounted in bytes, not in the critical path).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import get_kernel
from repro.errors import ConfigError, FormatError
from repro.formats.fiber import SparseFiber
from repro.kernels.common import ISSR, N_ACCUMULATORS
from repro.mem.dma import IN, OUT, overlap, transfer_cycles
from repro.stream.plan import plan_row_tiles, tile_bytes
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

__all__ = ["StreamStats", "stream_csrmv", "stream_spvv",
           "stream_power_iteration"]


@dataclass
class StreamStats:
    """Counters for one streaming pass (or an aggregate of passes)."""

    tiles: int = 0
    passes: int = 1
    bytes_in: int = 0
    bytes_out: int = 0
    compute_cycles: int = 0
    dma_cycles: int = 0
    #: Overlapped critical-path cycles (see the module docstring).
    cycles: int = 0
    #: Modeled matrix working set: the largest two consecutive tiles
    #: (compute + prefetch buffers) of any pass.
    peak_resident_bytes: int = 0
    #: Total matrix bytes behind the pass (for the residency claim).
    matrix_bytes: int = 0
    tile_bounds: list = field(default_factory=list)

    @property
    def bytes_per_cycle(self):
        """Effective streamed bandwidth over the critical path."""
        return self.bytes_in / self.cycles if self.cycles else 0.0

    @property
    def overlap_efficiency(self):
        """How much of the unoverlapped work the schedule hides."""
        serial = self.compute_cycles + self.dma_cycles
        return 1.0 - self.cycles / serial if serial else 0.0

    def merge_pass(self, other):
        """Fold another pass's counters into this aggregate."""
        self.tiles += other.tiles
        self.passes += other.passes
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        self.compute_cycles += other.compute_cycles
        self.dma_cycles += other.dma_cycles
        self.cycles += other.cycles
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       other.peak_resident_bytes)
        self.matrix_bytes = max(self.matrix_bytes, other.matrix_bytes)
        return self


def _finish_pass(stats, kernel, pass_id, tiles, compute, dma, sizes):
    """Fill ``stats`` from a pass's per-tile cycles and buffer bytes.

    ``compute``/``dma`` are each tile's compute and prefetch cycles,
    ``sizes`` its bytes; the critical path is their
    :func:`~repro.mem.dma.overlap`, which the trace renders too.
    """
    stats.tiles = len(tiles)
    stats.tile_bounds = list(tiles)
    stats.compute_cycles = sum(compute)
    stats.dma_cycles = sum(dma)
    critical = overlap(compute, dma)
    stats.cycles = int(critical.sum())
    # two consecutive tiles are resident at once: the computing one and
    # the prefetching one
    pairs = [a + b for a, b in zip(sizes, sizes[1:])] or sizes
    stats.peak_resident_bytes = max(pairs, default=0)
    if _metrics.ENABLED:
        _metrics.absorb_stream_pass(stats, kernel)
    if _trace.active():
        _trace.stream_pass(kernel, pass_id, tiles, compute, dma,
                           critical.tolist())


def stream_csrmv(matrix, x, *, budget_bytes=None, tile_rows=None,
                 backend="compiled", variant="issr", index_bits=32,
                 ledger=None, pass_id=0, release=True, on_tile=None):
    """``y = A @ x`` streamed tile-by-tile; returns ``(stats, y)``.

    ``matrix`` is any :class:`~repro.formats.csr.CsrMatrix` — usually
    an :class:`~repro.formats.external.MmapCsrMatrix` opened from a
    cache. Exactly one of ``budget_bytes`` (greedy double-buffered
    packing) or ``tile_rows`` (fixed-height tiles, degenerate values
    legal) chooses the plan. ``ledger`` records one ``("tile", i)``
    transfer per tile; ``on_tile(i, r0, r1)`` is called after each
    tile's compute (the peak-RSS guard samples residency there);
    ``release=True`` returns finished tile pages to the OS on
    mmap-backed matrices.
    """
    from repro.backends import get_backend

    # no index scan here: each tile's Backend.run scans that tile's
    spec = get_kernel("csrmv")
    spec.check_call(("matrix", "x"), variant, index_bits)
    x = spec.check_values({"matrix": matrix, "x": x})["x"]
    if (budget_bytes is None) == (tile_rows is None):
        raise ConfigError("stream_csrmv needs exactly one of budget_bytes "
                          "or tile_rows")
    impl = get_backend(backend)
    tiles = plan_row_tiles(matrix.ptr, matrix.nrows, budget_bytes,
                           tile_rows=tile_rows)
    y = np.zeros(matrix.nrows, dtype=np.float64)
    stats = StreamStats()
    stats.matrix_bytes = int(matrix.ptr[-1]) * 16 + len(matrix.ptr) * 8
    compute, dma, sizes = [], [], []
    can_release = release and hasattr(matrix, "release_rows")
    for i, (r0, r1) in enumerate(tiles):
        tile = matrix.row_block(r0, r1)
        sizes.append(tile_bytes(matrix.ptr, r0, r1))
        words = sizes[-1] // 8
        if ledger is not None:
            ledger.record(pass_id, ("tile", i), words, IN)
            ledger.record(pass_id, ("y", i), r1 - r0, OUT)
        kstats, ytile = impl.run("csrmv", matrix=tile, x=x,
                                 variant=variant, index_bits=index_bits)
        y[r0:r1] = ytile
        compute.append(int(kstats.cycles))
        dma.append(transfer_cycles(words))
        stats.bytes_in += words * 8
        stats.bytes_out += (r1 - r0) * 8
        if on_tile is not None:
            on_tile(i, r0, r1)
        if can_release:
            matrix.release_rows(r0, r1)
    _finish_pass(stats, "csrmv", pass_id, tiles, compute, dma, sizes)
    return stats, y


def _spvv_chunks(nnz, chunk_nnz, n_acc):
    """Chunk bounds aligned to the accumulator count (exact replay)."""
    step = max(chunk_nnz // n_acc, 1) * n_acc
    bounds = list(range(0, nnz, step)) + [nnz]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def stream_spvv(indices, values, x, *, chunk_nnz=1 << 16, variant="issr",
                index_bits=32, ledger=None, pass_id=0):
    """Sparse-dense dot streamed over nnz chunks; ``(stats, value)``.

    ``indices``/``values`` may be mmap slices (e.g. one giant row of a
    cached matrix). The fold is bit-identical to the resident
    :func:`repro.compiler.vectorize.spvv_value`: chunk bounds are
    multiples of the ISSR accumulator count, and each chunk's
    :func:`~repro.compiler.vectorize.cleared_sums` takes the lanes the
    last one left as its first weights. Adding a carried lane to a
    cleared one changes no bit, because a lane that starts at +0.0
    never holds -0.0.
    """
    from repro.backends.model import spvv_stats
    from repro.compiler.vectorize import (cleared_sums, lane_tree,
                                          pin_nan_products)

    if chunk_nnz < 1:
        raise ConfigError(f"chunk_nnz must be >= 1, got {chunk_nnz}")
    # the fiber spans its largest index, the one bound the arrays carry
    x = get_kernel("spvv").validate_operands(
        {"fiber": SparseFiber(indices, values), "x": x}, variant,
        index_bits)["x"]
    nnz = len(values)
    chunks = _spvv_chunks(nnz, chunk_nnz, N_ACCUMULATORS[index_bits]) \
        if nnz else []
    n_acc = N_ACCUMULATORS[index_bits] if variant == ISSR else 1
    lanes = np.zeros(n_acc, dtype=np.float64)
    compute, dma = [], []
    stats = StreamStats()
    for i, (c0, c1) in enumerate(chunks):
        idx = np.asarray(indices[c0:c1], dtype=np.int64)
        vals = np.asarray(values[c0:c1], dtype=np.float64)
        weights = np.empty(n_acc + c1 - c0, dtype=np.float64)
        weights[:n_acc] = lanes
        np.multiply(vals, x[idx], out=weights[n_acc:])
        lane_ids = np.arange(len(weights)) & (n_acc - 1)
        lanes = cleared_sums(lane_ids, weights, n_acc)
        if np.isnan(lanes).any() and pin_nan_products(weights[n_acc:],
                                                      vals, x[idx]):
            lanes = cleared_sums(lane_ids, weights, n_acc)
        words = 2 * (c1 - c0)  # value + index words
        if ledger is not None:
            ledger.record(pass_id, ("chunk", i), words, IN)
        kstats = spvv_stats(c1 - c0, variant, index_bits)
        compute.append(int(kstats.cycles))
        dma.append(transfer_cycles(words))
        stats.bytes_in += words * 8
    stats.matrix_bytes = nnz * 16
    _finish_pass(stats, "spvv", pass_id, chunks, compute, dma,
                 [16 * (c1 - c0) for c0, c1 in chunks])
    return stats, lane_tree(lanes)


def stream_power_iteration(matrix, n_iters, *, budget_bytes=None,
                           tile_rows=None, backend="compiled", variant="issr",
                           index_bits=32, ledger=None, x0=None,
                           release=True):
    """Power iteration with one streaming CsrMV pass per iteration.

    Returns ``(stats, x, history)`` where ``history`` is the per-pass
    2-norm eigenvalue estimate. Pass ``k`` records its tile transfers
    under ``pass_id=k`` — the differential tests assert each tile
    moves exactly once per pass. The iterate updates use plain NumPy
    on the (row-partitioned, resident) vectors, so a resident loop
    with the same backend reproduces the history bit for bit.
    """
    if matrix.nrows != matrix.ncols:
        raise FormatError(f"power iteration needs a square matrix, "
                          f"got {matrix.shape}")
    if n_iters < 1:
        raise ConfigError(f"n_iters must be >= 1, got {n_iters}")
    n = matrix.nrows
    x = (np.full(n, 1.0 / n) if x0 is None
         else np.asarray(x0, dtype=np.float64).copy())
    total = None
    history = []
    for k in range(n_iters):
        stats, y = stream_csrmv(matrix, x, budget_bytes=budget_bytes,
                                tile_rows=tile_rows, backend=backend,
                                variant=variant, index_bits=index_bits,
                                ledger=ledger, pass_id=k, release=release)
        lam = float(np.sqrt(np.dot(y, y)))
        if lam == 0.0:
            raise ConfigError("power iteration hit the zero vector — "
                              "the matrix annihilated the iterate")
        x = y / lam
        history.append(lam)
        total = stats if total is None else total.merge_pass(stats)
    return total, x, history
