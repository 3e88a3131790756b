"""Out-of-core streaming execution: tiled kernels over mmap-backed CSR.

The paper-sized workloads are mainmem-resident; this subsystem runs
CsrMV / SpVV / solver iterations on matrices **larger than the
configured main-memory budget** by streaming double-buffered row-block
tiles (prefetch tile ``i+1`` while computing tile ``i``), §IV-B's
cluster DMA scheme one level up, under the same analytic DMA contract
the cycle engine enforces (:mod:`repro.mem.dma`). Results are
bit-identical to the resident backends by construction: row-block
tiling preserves each row's exact accumulation order, and the SpVV
fold carries the ISSR accumulator state across chunks.

See ``docs/outofcore.md`` for the tiling contract and the
memory-budget semantics.
"""

from repro.stream.plan import plan_row_tiles, tile_bytes
from repro.stream.executor import (
    StreamStats,
    stream_csrmv,
    stream_power_iteration,
    stream_spvv,
)

__all__ = [
    "plan_row_tiles",
    "tile_bytes",
    "StreamStats",
    "stream_csrmv",
    "stream_spvv",
    "stream_power_iteration",
]
