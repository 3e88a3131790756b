"""Cluster DMA engine: 512-bit transfers between TCDM and main memory.

Models the Snitch cluster's DMA (§II-C, ref [7]): a wide engine moving
8 words (64 bytes) per cycle per direction, programmable with 1D and 2D
transfer descriptors. The data-mover core (DMCC) uses it to double-buffer
matrix tiles during cluster CsrMV (§IV-B); 2D transfers support the
tiling of dense matrices mentioned for CsrMM (§III-B).

Two independent channels model the duplex link: ``IN`` (main -> TCDM)
and ``OUT`` (TCDM -> main). TCDM-side beats claim banks, so worker-core
accesses colliding with DMA traffic stall for a cycle — one ingredient
of the paper's "initial vector transfer cannot be fully overlapped"
observation.

It also holds §IV-B's double-buffering plan, once for both levels it
runs at (TCDM tiles and the out-of-core stream's main-memory tiles):
:func:`plan_double_buffer`, :func:`transfer_cycles` and :func:`overlap`.
"""

import math
from collections import deque

import numpy as np

from repro.errors import ConfigError
from repro.sim.engine import IDLE
from repro.telemetry import metrics as _metrics

#: Words moved per cycle per direction (512 bits / 64-bit words).
BEAT_WORDS = 8

IN = "in"    # main memory -> TCDM
OUT = "out"  # TCDM -> main memory


#: TCDM words a double-buffered plan keeps free for alignment slop.
RESERVE_WORDS = 64
#: Cycles the analytic DMA model charges each programmed transfer.
TRANSFER_SETUP_CYCLES = 2


def transfer_cycles(words, n_transfers=0, words_per_cycle=BEAT_WORDS):
    """Cycles of ``n_transfers`` DMA transfers moving ``words`` words.

    ``ceil(words / words_per_cycle)`` beats (8 words for a lone cluster,
    fractional under shared HBM, :mod:`repro.multicluster.hbm`) plus
    :data:`TRANSFER_SETUP_CYCLES` per transfer. Element-wise on arrays.
    """
    beats = words / words_per_cycle
    beats = (np.ceil(beats).astype(np.int64)
             if isinstance(beats, np.ndarray) else math.ceil(beats))
    return beats + TRANSFER_SETUP_CYCLES * n_transfers


class TileCosts:
    """A tile's buffers, in layout order: one ``(bytes per nonzero, bytes
    per row, fixed bytes)`` triple each, rounded up to whole words."""

    __slots__ = ("rounded", "per_nnz", "per_row", "fixed")

    def __init__(self, *costs):
        self.rounded = tuple((a, b, c + 7) for a, b, c in costs)
        self.per_nnz, self.per_row, self.fixed = map(sum, zip(*costs))

    def words(self, nnz, rows):
        """Each buffer's words for ``nnz`` nonzeros in ``rows`` rows."""
        return [(a * nnz + b * rows + c) // 8 for a, b, c in self.rounded]


def plan_double_buffer(ptr, costs, half, tile_rows=None, *, overflow):
    """Split the rows of ``ptr`` into tiles of at most ``half`` words.

    Steady state holds two tiles, the one computing and the one
    prefetching, so each gets half the budget: each tile is the longest
    run of rows from its first whose buffers (``costs``, a
    :class:`TileCosts`) fit. A row that does not fit alone raises
    :class:`ConfigError` with message ``overflow(row, words)``;
    ``tile_rows`` fixes the tiles' height instead, unchecked. Returns
    each tile's ``(r0, r1)`` and one list per tile of its buffers' words.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    nrows = len(ptr) - 1
    if tile_rows is not None:
        if tile_rows < 1:
            raise ConfigError(f"tile_rows must be >= 1, got {tile_rows}")
        bounds = np.append(np.arange(0, nrows, int(tile_rows)), nrows)
        words = costs.words(np.diff(ptr[bounds]), np.diff(bounds))
        return (list(zip(bounds[:-1].tolist(), bounds[1:].tolist())),
                np.array(words).T.tolist())
    # a tile's bytes are a lower bound on 8x its words, so one search
    # per tile lands on the last row that fits or a few rows past it
    cost = ptr * costs.per_nnz
    if costs.per_row:
        cost += np.arange(0, costs.per_row * len(ptr), costs.per_row)
    reach = 8 * half - costs.fixed
    tiles, words = [], []
    r0, p0 = 0, int(ptr[0])
    while r0 < nrows:
        r1 = int(cost.searchsorted(cost[r0] + reach, side="right")) - 1
        while r1 > r0:
            nnz, rows, fit = int(ptr[r1]) - p0, r1 - r0, []
            for a, b, c in costs.rounded:  # cheaper than a comprehension
                fit.append((a * nnz + b * rows + c) // 8)
            if sum(fit) <= half:
                break
            r1 -= 1
        else:
            alone = costs.words(int(ptr[r0 + 1]) - p0, 1)
            raise ConfigError(overflow(r0, sum(alone)))
        tiles.append((r0, r1))
        words.append(fit)
        r0, p0 = r1, p0 + nnz
    return tiles, words


def overlap(compute, prefetch, writeback=0, first=None, last=None,
            barrier=0):
    """Each tile's critical-path cycles in double-buffered runs.

    Tile ``i`` computes while tile ``i + 1`` prefetches, so it costs
    ``max(compute[i], prefetch[i + 1])`` plus ``barrier``; a run's first
    prefetch and last writeback are exposed. ``first``/``last`` mark
    each run's first and last tile when the arrays hold several runs
    (shards) one after the other. Element-wise; returns int64 cycles.
    """
    compute = np.asarray(compute, dtype=np.int64)
    prefetch = np.asarray(prefetch, dtype=np.int64)
    if first is None:  # one run
        first = np.arange(len(compute)) == 0
        last = np.arange(len(compute)) == len(compute) - 1
    following = np.zeros_like(prefetch)
    following[:-1] = prefetch[1:]
    return (np.maximum(compute, np.where(last, 0, following)) + barrier
            + first * prefetch + last * writeback)


class TransferLedger:
    """Tile-granular DMA bookkeeping for out-of-core streaming passes.

    Each :meth:`record` notes one modeled transfer ``(pass_id, tag,
    direction, words)`` — e.g. tag ``("tile", 3)`` for row-tile 3 of a
    streaming CsrMV. The golden-file differential tests use
    :meth:`counts` to prove every tile crosses the link **exactly
    once per pass** (no silent re-fetch, no skipped tile), the same
    role the ``Dma`` word counters play for the solver pipeline's
    zero-re-DMA claim.
    """

    def __init__(self):
        self.records = []

    def record(self, pass_id, tag, words, direction=IN):
        """Note one modeled transfer of ``words`` 64-bit words."""
        if direction not in (IN, OUT):
            raise ConfigError(f"bad ledger direction {direction!r}")
        self.records.append((pass_id, tag, direction, int(words)))

    def counts(self, pass_id=None, direction=IN):
        """{tag: number of transfers} for one pass (or all passes)."""
        out = {}
        for pid, tag, dirn, _words in self.records:
            if dirn != direction:
                continue
            if pass_id is not None and pid != pass_id:
                continue
            out[tag] = out.get(tag, 0) + 1
        return out

    def words(self, pass_id=None, direction=None):
        """Total words moved (optionally one pass / one direction)."""
        return sum(w for pid, _tag, dirn, w in self.records
                   if (pass_id is None or pid == pass_id)
                   and (direction is None or dirn == direction))

    def passes(self):
        """Sorted pass ids seen so far."""
        return sorted({pid for pid, _t, _d, _w in self.records})


class DmaTransfer:
    """One programmed transfer (1D, or 2D as `rows` strided segments)."""

    __slots__ = ("direction", "src", "dst", "row_words", "rows",
                 "src_stride", "dst_stride", "on_done", "done",
                 "_row", "_word", "_t_start")

    def __init__(self, direction, src, dst, row_words, rows=1,
                 src_stride=None, dst_stride=None, on_done=None):
        if direction not in (IN, OUT):
            raise ConfigError(f"bad DMA direction {direction!r}")
        if row_words <= 0 or rows <= 0:
            raise ConfigError("DMA transfer must move at least one word")
        if src % 8 or dst % 8:
            raise ConfigError("DMA addresses must be 8-byte aligned")
        self.direction = direction
        self.src = src
        self.dst = dst
        self.row_words = row_words
        self.rows = rows
        self.src_stride = row_words * 8 if src_stride is None else src_stride
        self.dst_stride = row_words * 8 if dst_stride is None else dst_stride
        self.on_done = on_done
        self.done = False
        self._row = 0
        self._word = 0
        self._t_start = None  # submit cycle, recorded only when tracing

    @property
    def total_words(self):
        return self.row_words * self.rows


class Dma:
    """The DMA engine component (tick it alongside the requesters).

    Beats are decomposed into word-level TCDM operations that compete
    in per-bank arbitration with the core ports (see
    :meth:`repro.mem.tcdm.Tcdm.dma_submit`); words that lose retry on
    following cycles, so a congested beat completes partially.

    A beat word is the list ``[bank, src_words, src, dst_words, dst,
    done]``: its TCDM bank, the source and destination storage windows
    (:meth:`~repro.mem.memory.WordMemory.window`, range-checked once
    per beat) with the word's index in each, and whether it has moved.
    Only this class reads or writes one: the TCDM sees a word only as
    the value it hands back to :meth:`_grant`.
    """

    _q_state = 0
    _q_gen = 0

    def __init__(self, engine, tcdm, mainmem, name="dma"):
        self.engine = engine
        self.tcdm = tcdm
        self.mainmem = mainmem
        self.name = name
        #: Optional shared main-memory fabric (see
        #: :class:`repro.multicluster.hbm.HbmFabric`). When set, each
        #: cycle's word-level ops are granted against the fabric's
        #: aggregate bandwidth budget before touching the TCDM; words
        #: denied this cycle stay in the beat and retry next cycle.
        self.fabric = None
        self._queues = {IN: deque(), OUT: deque()}
        self._beat = {IN: None, OUT: None}
        self.words_moved = 0
        self.busy_cycles = 0
        self.fabric_stall_words = 0

    @property
    def busy(self):
        return bool(self._queues[IN] or self._queues[OUT])

    def submit(self, transfer):
        """Queue a :class:`DmaTransfer`; returns it for completion polling."""
        if self.engine._tracer is not None:
            transfer._t_start = self.engine.cycle
        self._queues[transfer.direction].append(transfer)
        self.engine.wake(self)
        return transfer

    def copy_in(self, main_addr, tcdm_addr, n_words, on_done=None):
        """Convenience 1D main->TCDM transfer."""
        return self.submit(DmaTransfer(IN, main_addr, tcdm_addr, n_words,
                                       on_done=on_done))

    def copy_out(self, tcdm_addr, main_addr, n_words, on_done=None):
        """Convenience 1D TCDM->main transfer."""
        return self.submit(DmaTransfer(OUT, tcdm_addr, main_addr, n_words,
                                       on_done=on_done))

    def copy_in_2d(self, main_addr, tcdm_addr, row_words, rows,
                   src_stride, dst_stride, on_done=None):
        """2D main->TCDM transfer (`rows` segments of `row_words`)."""
        return self.submit(DmaTransfer(IN, main_addr, tcdm_addr, row_words,
                                       rows, src_stride, dst_stride, on_done))

    def tick(self):
        words = {}  # bank -> word; OUT's word wins a bank both want
        progressed = False
        for direction in (IN, OUT):
            queue = self._queues[direction]
            beat = self._beat[direction]
            if beat is not None:
                # Harvest last cycle's grants; advance the transfer once
                # the whole beat has moved.
                ops = [word for word in beat if not word[5]]
                if not ops:
                    self._advance(direction)
                    beat = None
            if beat is None and queue:
                ops = beat = self._build_beat(queue[0], direction)
                self._beat[direction] = beat
            if beat is not None:
                progressed = True
                if ops and self.fabric is not None:
                    # claim each direction separately so a narrowed
                    # per-cluster link throttles per direction, matching
                    # the analytic model
                    granted = self.fabric.claim(self, len(ops), direction)
                    self.fabric_stall_words += len(ops) - granted
                    ops = ops[:granted]
                for word in ops:
                    words[word[0]] = word
        if words:
            self.tcdm.dma_submit(words, self._grant)
        if not progressed:
            return IDLE  # both channels drained; submit() wakes us
        self.busy_cycles += 1
        self.engine.note_progress()
        return None

    def _build_beat(self, xfer, direction):
        """Decompose one cycle's worth of ``xfer`` into beat words."""
        count = min(BEAT_WORDS, xfer.row_words - xfer._word)
        src = xfer.src + xfer._row * xfer.src_stride + xfer._word * 8
        dst = xfer.dst + xfer._row * xfer.dst_stride + xfer._word * 8
        tcdm, main = self.tcdm.storage, self.mainmem.storage
        if direction == IN:
            src_mem, dst_mem, tcdm_addr = main, tcdm, dst
        else:
            src_mem, dst_mem, tcdm_addr = tcdm, main, src
        src_words, s = src_mem.window(src, count)
        dst_words, d = dst_mem.window(dst, count)
        bank_of = self.tcdm.bank_of
        return [[bank_of(tcdm_addr + 8 * k), src_words, s + k, dst_words,
                 d + k, False] for k in range(count)]

    def _grant(self, word):
        """The TCDM granted ``word``'s bank: move it."""
        _bank, src_words, s, dst_words, d, _done = word
        dst_words[d] = src_words[s]
        word[5] = True
        self.words_moved += 1

    def _advance(self, direction):
        """The current beat completed: step the transfer descriptor."""
        xfer = self._queues[direction][0]
        count = min(BEAT_WORDS, xfer.row_words - xfer._word)
        xfer._word += count
        if xfer._word == xfer.row_words:
            xfer._word = 0
            xfer._row += 1
            if xfer._row == xfer.rows:
                xfer.done = True
        self._beat[direction] = None
        if xfer.done:
            self._queues[direction].popleft()
            tracer = self.engine._tracer
            if tracer is not None and xfer._t_start is not None:
                tracer.dma_transfer(self, xfer, xfer._t_start)
            if _metrics.ENABLED:
                _metrics.absorb_dma_transfer(self, xfer)
            if xfer.on_done is not None:
                xfer.on_done(xfer)
