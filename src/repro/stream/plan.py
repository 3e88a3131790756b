"""Row-tile planning for the out-of-core streaming executor (§IV-B).

The cluster runtime's TCDM tiling lifted one level, through the same
planner (:func:`repro.mem.dma.plan_double_buffer`, one buffer per
tile). Planning reads only the row-pointer array, so it never touches
the nonzero payload of an mmap-backed matrix.

Budget semantics (the **double-buffering contract**): a tile must fit
half the main-memory budget, because steady state holds two tiles —
the one being computed and the one being prefetched. A single row
whose payload exceeds the half-budget cannot be split (row-block
tiling preserves per-row accumulation order) and raises
:class:`~repro.errors.ConfigError`.
"""

from repro.errors import ConfigError
from repro.mem.dma import TileCosts, plan_double_buffer

#: Bytes per nonzero in a streamed tile: 8 (value) + 8 (column index).
NNZ_BYTES = 16
#: Bytes per row of streamed row-pointer bookkeeping.
ROW_BYTES = 8
#: The :class:`~repro.mem.dma.TileCosts` of a streamed tile, one buffer:
#: its payload plus its rebased row pointers, one more than its rows.
TILE_COSTS = TileCosts((NNZ_BYTES, ROW_BYTES, ROW_BYTES))


def tile_bytes(ptr, r0, r1):
    """Streamed bytes of rows ``[r0, r1)``: payload + rebased pointers."""
    nnz = int(ptr[r1]) - int(ptr[r0])
    return nnz * NNZ_BYTES + (r1 - r0 + 1) * ROW_BYTES


def plan_row_tiles(ptr, nrows, budget_bytes, tile_rows=None):
    """Split ``nrows`` rows into ``(r0, r1)`` tiles for streaming.

    With ``tile_rows`` the split is fixed-height (degenerate values are
    legal: ``1`` streams row-at-a-time, ``>= nrows`` is the
    whole-matrix "tile" of the resident differential tests). Otherwise
    rows are packed greedily so each tile's :func:`tile_bytes` fits
    half of ``budget_bytes`` (see the module docstring). The tiles
    partition ``[0, nrows)`` exactly, in order.
    """
    if nrows < 0:
        raise ConfigError(f"negative row count {nrows}")
    if tile_rows is None and (
            budget_bytes is None
            or budget_bytes < 2 * (NNZ_BYTES + 2 * ROW_BYTES)):
        raise ConfigError(
            f"main-memory budget {budget_bytes!r} bytes cannot hold two "
            "single-nonzero tiles — raise the budget")
    half = (budget_bytes or 0) // 2
    # a tile's bytes are whole words: it fits half bytes iff half // 8 words
    return plan_double_buffer(
        ptr[:nrows + 1], TILE_COSTS, half // 8, tile_rows,
        overflow=lambda row, words: (
            f"row {row} alone needs {8 * words} bytes but the "
            f"double-buffered half-budget is {half} — raise the budget; "
            "a row cannot be split"))[0]
