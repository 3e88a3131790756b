"""Cluster CsrMV runtime: row distribution + double-buffered DMA tiling.

Implements §IV-B's scheme: "reusing our single-core kernels,
distributing rows among cores, and employing a double-buffered data
movement scheme for the matrices using the cluster DMA. [...] All data
initially resides in main memory and results are written back to it."

Phases:

1. the dense vector ``x`` is transferred into the TCDM (this initial
   transfer "cannot be fully overlapped with computation");
2. the matrix (vals/idcs/ptr) is streamed in row tiles into one of two
   TCDM buffers while the workers compute on the other;
3. result tiles are written back by the DMA, overlapping compute;
4. a barrier (modelling DMCC coordination) separates tiles.

Workers receive contiguous row blocks of each tile; block row
distribution "cannot fully prevent computation imbalance" — exactly the
paper's caveat.

Addressing trick: row pointers stay *global*. Each worker gets virtual
array bases (buffer base minus the tile's global byte offset), so
``vbase + ptr[j] * elem_size`` lands inside the TCDM buffer. Index
tiles start at arbitrary sub-word offsets — exercising the ISSR's
"arbitrary index array alignment" support.
"""

import functools
import itertools

import numpy as np

from repro.errors import ConfigError
from repro.kernels.common import check_reference
from repro.kernels.csrmv import build_csrmv
from repro.mem.dma import RESERVE_WORDS, TileCosts, plan_double_buffer
from repro.sim.engine import IDLE
from repro.sim.counters import RunStats, collect_cc_stats
from repro.utils.bits import pack_indices

#: Cycles charged for a DMCC-coordinated barrier between tiles.
BARRIER_CYCLES = 20
#: Per-worker start stagger (DMCC wake-up writes), cycles.
WORKER_START_STAGGER = 2


@functools.lru_cache(maxsize=None)
def tile_costs(idx_bytes):
    """A TCDM tile's :class:`~repro.mem.dma.TileCosts`: values, packed
    indices and 32-bit row pointers (each with a word of alignment
    slop; one pointer more than the rows), and results."""
    return TileCosts((8, 0, 0), (idx_bytes, 0, 8), (0, 4, 12), (0, 8, 0))


def tile_words(ptr, r0, r1, idx_bytes):
    """TCDM words needed to hold rows [r0, r1) of a CSR matrix.

    Element-wise when ``r0`` and ``r1`` are arrays of tile bounds.
    """
    return sum(tile_costs(idx_bytes).words(ptr[r1] - ptr[r0], r1 - r0))


def plan_tcdm(ptr, nrows, idx_bytes, tcdm_words, x_words, tile_rows=None):
    """:func:`plan_tiles`' tiles and each one's words per buffer of
    :func:`tile_costs` (:func:`~repro.mem.dma.plan_double_buffer`)."""
    budget = tcdm_words - x_words - RESERVE_WORDS
    if budget <= 0:
        raise ConfigError("dense vector does not fit in the TCDM")
    half = budget // 2
    return plan_double_buffer(
        ptr[:nrows + 1], tile_costs(idx_bytes), half, tile_rows,
        overflow=lambda row, words: (
            f"row {row} alone exceeds the tile buffer "
            f"({words} > {half} words)"))


def plan_tiles(ptr, nrows, idx_bytes, tcdm_words, x_words, tile_rows=None):
    """Split rows into (r0, r1) tiles fitting half the buffer budget.

    This is the pure planning core of the double-buffered runtime; the
    compiled backend reuses it so both backends agree on the tile schedule.
    Each tile is the longest run of rows from its first whose
    :func:`tile_words` fits; a row that does not fit alone raises
    :class:`ConfigError`.
    """
    return plan_tcdm(ptr, nrows, idx_bytes, tcdm_words, x_words,
                     tile_rows)[0]


def share_bounds(r0, r1, n_workers):
    """Contiguous block row distribution of many tiles' rows at once.

    ``r0`` and ``r1`` are arrays of tile bounds; returns ``(starts,
    ends)``, one row per tile and one column per worker. Each worker
    gets ``rows // n_workers`` rows, and the first ``rows % n_workers``
    workers one more.
    """
    r0 = np.asarray(r0, dtype=np.int64)
    base, rem = np.divmod(np.asarray(r1, dtype=np.int64) - r0, n_workers)
    counts = base[:, None] + (np.arange(n_workers) < rem[:, None])
    ends = r0[:, None] + counts.cumsum(axis=1)
    return ends - counts, ends


def worker_shares(r0, r1, n_workers):
    """Contiguous block row distribution of tile rows among workers."""
    starts, ends = share_bounds([r0], [r1], n_workers)
    return list(zip(starts[0].tolist(), ends[0].tolist()))


#: Counters a core adds to its cluster and a cluster to a partitioned
#: run; the last three are the cluster's own (its cores' are zero).
CLUSTER_COUNTERS = ("retired", "fpu_compute_ops", "fpu_mac_ops",
                    "fpu_issued_ops", "mem_reads", "mem_writes",
                    "icache_misses", "tcdm_conflicts", "dma_words",
                    "dma_busy_cycles")


class ClusterStats(RunStats):
    """Aggregate run statistics plus per-core breakdown."""


def add_counters(stats, parts):
    """Add every part's :data:`CLUSTER_COUNTERS` into ``stats``."""
    for name in CLUSTER_COUNTERS:
        setattr(stats, name, getattr(stats, name)
                + sum(getattr(part, name) for part in parts))
    return stats


def collect_cluster_stats(cluster, cycles, start_cycle=0):
    """One cluster's :class:`ClusterStats`: its cores' stats (in
    ``per_core``) summed, plus its TCDM's and DMA's counters."""
    stats = ClusterStats(cycles=cycles,
                         tcdm_conflicts=cluster.tcdm.conflict_cycles,
                         dma_words=cluster.dma.words_moved,
                         dma_busy_cycles=cluster.dma.busy_cycles)
    stats.per_core = [collect_cc_stats(cc, cycles, start_cycle=start_cycle)
                      for cc in cluster.ccs]
    return add_counters(stats, stats.per_core)


class ClusterCsrmv:
    """One CsrMV job on the cluster; register as an engine component."""

    _q_state = 0
    _q_gen = 0

    def __init__(self, cluster, matrix, x, variant="issr", index_bits=16,
                 tile_rows=None):
        self.cluster = cluster
        self.engine = cluster.engine
        self.matrix = matrix
        self.x = np.asarray(x, dtype=np.float64)
        self.variant = variant
        self.index_bits = index_bits
        self.program, self.meta = build_csrmv(variant, index_bits)
        self.idx_bytes = index_bits // 8
        self.done = False
        self._state = "init"
        self._barrier_until = 0
        self._computing = None
        self._next_compute = 0
        self._next_prefetch = 0
        self._x_done = False
        self._prefetch_done = {}
        self._compute_done = {}
        self._writeback_done = {}
        self._started = set()
        self._launched = set()
        self._assigned = []
        self._place_main_memory()
        self._layout_tcdm(tile_rows)

    # -- setup ---------------------------------------------------------------

    def _place_main_memory(self):
        mm = self.cluster.mainmem.storage
        m = self.matrix
        self.mm_vals = mm.alloc(8 * max(m.nnz, 1), name="A_vals")
        mm.write_floats(self.mm_vals, m.vals)
        idx_words = pack_indices(m.idcs, self.index_bits)
        self.mm_idcs = mm.alloc(8 * max(len(idx_words), 1), name="A_idcs")
        mm.write_words(self.mm_idcs, idx_words)
        ptr_words = pack_indices(m.ptr, 32)
        self.mm_ptr = mm.alloc(8 * len(ptr_words), name="A_ptr")
        mm.write_words(self.mm_ptr, ptr_words)
        self.mm_x = mm.alloc(8 * max(len(self.x), 1), name="x")
        mm.write_floats(self.mm_x, self.x)
        self.mm_y = mm.alloc(8 * max(m.nrows, 1), name="y")
        mm.write_floats(self.mm_y, [0.0] * m.nrows)

    def _layout_tcdm(self, tile_rows):
        """Plan the tiles; lay out ``x``, then two regions the size of
        the largest tile. Tile ``t`` packs its vals, idcs, ptr and y
        arrays (one word at least each) from region ``t % 2``'s base,
        so every tile the plan accepts fits."""
        m = self.matrix
        st = self.cluster.tcdm.storage
        self.tiles, words = plan_tcdm(m.ptr, m.nrows, self.idx_bytes,
                                      st.size // 8, len(self.x), tile_rows)
        offsets = [[0, *itertools.accumulate(max(w, 1) for w in tile)]
                   for tile in words]
        st.reset_allocator()
        self.tc_x = st.alloc(8 * max(len(self.x), 1), name="x")
        region = max((ends[-1] for ends in offsets), default=0)
        bases = [st.alloc(8 * region, name=f"tiles{p}") for p in range(2)]
        #: Per tile: the TCDM addresses of its vals, idcs, ptr and y arrays.
        self.arrays = [tuple(bases[t % 2] + 8 * o for o in ends[:4])
                       for t, ends in enumerate(offsets)]
        # tile t's prefetch may reach tile t - 2's y while it writes back
        self._prefetch_waits = [t >= 2 and ends[3] > offsets[t - 2][3]
                                for t, ends in enumerate(offsets)]

    # -- DMA helpers -----------------------------------------------------------

    def _queue_prefetch(self, t):
        r0, r1 = self.tiles[t]
        m = self.matrix
        vals, idcs, ptr, _y = self.arrays[t]
        nnz0, nnz1 = int(m.ptr[r0]), int(m.ptr[r1])
        nnz = nnz1 - nnz0
        transfers = []
        if nnz:
            transfers.append((self.mm_vals + 8 * nnz0, vals, nnz))
            gb0 = (self.mm_idcs + nnz0 * self.idx_bytes) & ~7
            gb1 = self.mm_idcs + nnz1 * self.idx_bytes
            transfers.append((gb0, idcs, (gb1 - gb0 + 7) // 8))
        pb0 = (self.mm_ptr + 4 * r0) & ~7
        pb1 = self.mm_ptr + 4 * (r1 + 1)
        transfers.append((pb0, ptr, (pb1 - pb0 + 7) // 8))
        last = len(transfers) - 1
        for i, (src, dst, words) in enumerate(transfers):
            on_done = (lambda _x, t=t: self._mark(self._prefetch_done, t)) \
                if i == last else None
            self.cluster.dma.copy_in(src, dst, words, on_done=on_done)

    def _queue_writeback(self, t):
        r0, r1 = self.tiles[t]
        if r1 == r0:
            self._writeback_done[t] = True
            return
        self.cluster.dma.copy_out(
            self.arrays[t][3], self.mm_y + 8 * r0, r1 - r0,
            on_done=lambda _x, t=t: self._mark(self._writeback_done, t),
        )

    def _mark(self, flags, t):
        """Record a DMA completion; the runtime may be napping on it."""
        flags[t] = True
        self.engine.wake(self)

    def _mark_x_done(self, _xfer):
        self._x_done = True
        self.engine.wake(self)

    # -- worker control -----------------------------------------------------------

    def _start_tile(self, t):
        r0, r1 = self.tiles[t]
        m = self.matrix
        vals, idcs, ptr, y = self.arrays[t]
        nnz0 = int(m.ptr[r0])
        # Virtual bases: vbase + global_offset == TCDM buffer address.
        vbase_vals = vals - 8 * nnz0
        # worker index addresses resolve as vbase_idcs + ptr[j]*idx_bytes
        gb0_idcs = (self.mm_idcs + nnz0 * self.idx_bytes) & ~7
        vbase_idcs = idcs - (gb0_idcs - self.mm_idcs)
        pb0 = (self.mm_ptr + 4 * r0) & ~7
        vbase_ptr = ptr - (pb0 - self.mm_ptr)

        shares = worker_shares(r0, r1, self.cluster.n_workers)
        self._assigned = shares
        self._started = set()
        self._launched = set()
        for w, (w0, w1) in enumerate(shares):
            if w1 == w0:
                continue
            self._started.add(w)
            if w == 0:
                # the runtime ticks before the cores, so a same-cycle
                # launch takes effect this cycle (events for the current
                # cycle have already been delivered)
                self._launch_worker(w, w0, w1, vbase_vals, vbase_idcs,
                                    vbase_ptr, y, r0)
            else:
                self.engine.at(
                    self.engine.cycle + WORKER_START_STAGGER * w,
                    self._launch_worker, w, w0, w1, vbase_vals, vbase_idcs,
                    vbase_ptr, y, r0,
                )
        self._computing = t
        if not self._started:  # tile with only empty shares
            self._compute_done[t] = True
            self._queue_writeback(t)
            self._computing = None

    def _launch_worker(self, w, w0, w1, vbase_vals, vbase_idcs, vbase_ptr,
                       y_buf, tile_r0):
        m = self.matrix
        cc = self.cluster.ccs[w]
        self._launched.add(w)
        share_nnz = int(m.ptr[w1] - m.ptr[w0])
        cc.core.observer = self  # its halt ends our wait for the tile
        cc.core.load_program(self.program)
        args = {
            10: vbase_vals + 8 * int(m.ptr[w0]),          # a0
            11: vbase_idcs + self.idx_bytes * int(m.ptr[w0]),  # a1
            12: vbase_ptr + 4 * w0,                        # a2
            13: self.tc_x,                                 # a3
            14: y_buf + 8 * (w0 - tile_r0),                # a4
            15: w1 - w0,                                   # a5
            17: share_nnz,                                 # a7
        }
        for reg, value in args.items():
            cc.core.set_reg(reg, value)

    # -- main state machine -----------------------------------------------------------

    def tick(self):
        """Advance the DMCC schedule one cycle: DMA, tile starts, barriers."""
        if self.done:
            return IDLE  # nothing restarts a finished job
        cycle = self.engine.cycle
        if self._state == "init":
            self.cluster.dma.copy_in(
                self.mm_x, self.tc_x, max(len(self.x), 1),
                on_done=self._mark_x_done,
            )
            if self.tiles:
                self._queue_prefetch(0)
                self._next_prefetch = 1
            self._state = "run"
            self.engine.note_progress()
            return None

        acted = False

        # Completion of the running tile?
        t = self._computing
        if t is not None and self._workers_done():
            self._compute_done[t] = True
            self._queue_writeback(t)
            self._computing = None
            self._barrier_until = cycle + BARRIER_CYCLES
            self.engine.note_progress()
            acted = True

        # Start the next tile?
        if (self._computing is None and self._next_compute < len(self.tiles)
                and cycle >= self._barrier_until):
            nxt = self._next_compute
            if (self._x_done and self._prefetch_done.get(nxt)
                    and self._writeback_done.get(nxt - 2, True)):
                self._start_tile(nxt)
                self._next_compute += 1
                self.engine.note_progress()
                acted = True

        # Prefetch ahead (region free once tile np-2 has been computed,
        # and written back where the prefetch reaches its y array).
        np_ = self._next_prefetch
        if (np_ < len(self.tiles) and self._compute_done.get(np_ - 2, np_ < 2)
                and (not self._prefetch_waits[np_]
                     or self._writeback_done.get(np_ - 2))):
            self._queue_prefetch(np_)
            self._next_prefetch += 1
            self.engine.note_progress()
            acted = True

        if (self._next_compute == len(self.tiles) and self._computing is None
                and not self.cluster.dma.busy):
            self.done = True
            acted = True

        if acted:
            return None  # follow-up transitions may fire next cycle
        # Quiescent: every pending condition has a wake edge — worker
        # halts (core.observer), staggered-launch events (event owner),
        # DMA completion marks — or is purely time (the tile barrier).
        if self._computing is None and self._next_compute < len(self.tiles) \
                and cycle < self._barrier_until:
            return self._barrier_until
        return IDLE

    def _workers_done(self):
        if self._launched != self._started:
            return False  # some wake-ups are still in flight
        for w in self._started:
            if not self.cluster.ccs[w].idle:
                return False
        return True

    # -- results -----------------------------------------------------------

    def result(self):
        """The result vector ``y``, read back from main memory."""
        return np.array(
            self.cluster.mainmem.storage.read_floats(self.mm_y, self.matrix.nrows)
        )


def run_cluster_csrmv(matrix, x, variant="issr", index_bits=16,
                      cluster=None, check=True, max_cycles=100_000_000):
    """Run one cluster CsrMV end to end; returns (ClusterStats, y).

    Builds a fresh :class:`SnitchCluster` unless one is supplied.
    """
    from repro.cluster.cluster import SnitchCluster

    if cluster is None:
        cluster = SnitchCluster()
    job = ClusterCsrmv(cluster, matrix, x, variant=variant,
                       index_bits=index_bits)
    # Control must tick before the cores: insert at the front.
    cluster.engine.add_front(job)
    cluster.reset_stats()
    start = cluster.engine.cycle
    cycles = cluster.engine.run(lambda: job.done, max_cycles=max_cycles)
    cluster.engine.remove(job)

    stats = collect_cluster_stats(cluster, cycles, start)
    y = job.result()
    if check:
        expect = matrix.spmv(x)
        check_reference(y, expect, f"cluster CsrMV {variant}/{index_bits}")
    return stats, y
