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

import numpy as np

from repro.errors import ConfigError
from repro.kernels.common import check_reference
from repro.kernels.csrmv import build_csrmv
from repro.sim.engine import IDLE
from repro.sim.counters import RunStats, collect_cc_stats
from repro.utils.bits import pack_indices

#: Cycles charged for a DMCC-coordinated barrier between tiles.
BARRIER_CYCLES = 20
#: Per-worker start stagger (DMCC wake-up writes), cycles.
WORKER_START_STAGGER = 2


def tile_words(ptr, r0, r1, idx_bytes):
    """TCDM words needed to hold rows [r0, r1) of a CSR matrix."""
    nnz = int(ptr[r1] - ptr[r0])
    vals_w = nnz
    idcs_w = (nnz * idx_bytes + 15) // 8  # +1 word alignment slop
    ptr_w = ((r1 - r0 + 1) * 4 + 15) // 8
    y_w = r1 - r0
    return vals_w + idcs_w + ptr_w + y_w


def plan_tiles(ptr, nrows, idx_bytes, tcdm_words, x_words, tile_rows=None):
    """Split rows into (r0, r1) tiles fitting half the buffer budget.

    This is the pure planning core of the double-buffered runtime; the
    compiled backend reuses it so both backends agree on the tile schedule.
    """
    budget = tcdm_words - x_words - 64  # spare words for alignment
    if budget <= 0:
        raise ConfigError("dense vector does not fit in the TCDM")
    half = budget // 2
    if tile_rows is not None:
        bounds = list(range(0, nrows, tile_rows)) + [nrows]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    tiles = []
    r0 = 0
    while r0 < nrows:
        r1 = r0
        while r1 < nrows:
            words = tile_words(ptr, r0, r1 + 1, idx_bytes)
            if words > half and r1 > r0:
                break
            if words > half:
                raise ConfigError(
                    f"row {r0} alone exceeds the tile buffer "
                    f"({words} > {half} words)"
                )
            r1 += 1
        tiles.append((r0, r1))
        r0 = r1
    return tiles


def worker_shares(r0, r1, n_workers):
    """Contiguous block row distribution of tile rows among workers."""
    rows = r1 - r0
    shares = []
    base, rem = divmod(rows, n_workers)
    lo = r0
    for w in range(n_workers):
        cnt = base + (1 if w < rem else 0)
        shares.append((lo, lo + cnt))
        lo += cnt
    return shares


class ClusterStats(RunStats):
    """Aggregate run statistics plus per-core breakdown."""


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
        self._plan_tiles(tile_rows)
        self._alloc_tcdm()

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

    def _plan_tiles(self, tile_rows):
        """Split rows into tiles fitting half the matrix buffer budget."""
        m = self.matrix
        tcdm_words = self.cluster.tcdm.storage.size // 8
        self.tiles = plan_tiles(m.ptr, m.nrows, self.idx_bytes, tcdm_words,
                                len(self.x), tile_rows=tile_rows)
        self.tile_row_cap = max((b - a for a, b in self.tiles), default=1)
        max_nnz = max(
            (int(m.ptr[b] - m.ptr[a]) for a, b in self.tiles), default=1
        )
        self.vals_cap = max(max_nnz, 1)
        self.idcs_cap = max((max_nnz * self.idx_bytes + 15) // 8, 1)
        self.ptr_cap = ((self.tile_row_cap + 1) * 4 + 15) // 8

    def _alloc_tcdm(self):
        st = self.cluster.tcdm.storage
        st.reset_allocator()
        self.tc_x = st.alloc(8 * max(len(self.x), 1), name="x")
        self.buf = []
        for p in range(2):
            self.buf.append({
                "vals": st.alloc(8 * self.vals_cap, name=f"vals{p}"),
                "idcs": st.alloc(8 * self.idcs_cap, name=f"idcs{p}"),
                "ptr": st.alloc(8 * self.ptr_cap, name=f"ptr{p}"),
                "y": st.alloc(8 * self.tile_row_cap, name=f"y{p}"),
            })

    # -- DMA helpers -----------------------------------------------------------

    def _queue_prefetch(self, t):
        r0, r1 = self.tiles[t]
        m = self.matrix
        p = t % 2
        buf = self.buf[p]
        nnz0, nnz1 = int(m.ptr[r0]), int(m.ptr[r1])
        nnz = nnz1 - nnz0
        transfers = []
        if nnz:
            transfers.append((self.mm_vals + 8 * nnz0, buf["vals"], nnz))
            gb0 = (self.mm_idcs + nnz0 * self.idx_bytes) & ~7
            gb1 = self.mm_idcs + nnz1 * self.idx_bytes
            transfers.append((gb0, buf["idcs"], (gb1 - gb0 + 7) // 8))
        pb0 = (self.mm_ptr + 4 * r0) & ~7
        pb1 = self.mm_ptr + 4 * (r1 + 1)
        transfers.append((pb0, buf["ptr"], (pb1 - pb0 + 7) // 8))
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
            self.buf[t % 2]["y"], self.mm_y + 8 * r0, r1 - r0,
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
        p = t % 2
        buf = self.buf[p]
        nnz0 = int(m.ptr[r0])
        # Virtual bases: vbase + global_offset == TCDM buffer address.
        vbase_vals = buf["vals"] - 8 * nnz0
        # worker index addresses resolve as vbase_idcs + ptr[j]*idx_bytes
        gb0_idcs = (self.mm_idcs + nnz0 * self.idx_bytes) & ~7
        vbase_idcs = buf["idcs"] - (gb0_idcs - self.mm_idcs)
        pb0 = (self.mm_ptr + 4 * r0) & ~7
        vbase_ptr = buf["ptr"] - (pb0 - self.mm_ptr)

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
                                    vbase_ptr, buf["y"], r0)
            else:
                self.engine.at(
                    self.engine.cycle + WORKER_START_STAGGER * w,
                    self._launch_worker, w, w0, w1, vbase_vals, vbase_idcs,
                    vbase_ptr, buf["y"], r0,
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

        # Prefetch ahead (buffer free once tile np-2 has been computed).
        np_ = self._next_prefetch
        if np_ < len(self.tiles) and self._compute_done.get(np_ - 2, np_ < 2):
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

    stats = ClusterStats(cycles=cycles)
    for cc in cluster.ccs:
        cs = collect_cc_stats(cc, cycles, start_cycle=start)
        stats.per_core.append(cs)
        stats.retired += cs.retired
        stats.fpu_compute_ops += cs.fpu_compute_ops
        stats.fpu_mac_ops += cs.fpu_mac_ops
        stats.fpu_issued_ops += cs.fpu_issued_ops
        stats.mem_reads += cs.mem_reads
        stats.mem_writes += cs.mem_writes
        stats.icache_misses += cs.icache_misses
    stats.tcdm_conflicts = cluster.tcdm.conflict_cycles
    stats.dma_words = cluster.dma.words_moved
    stats.dma_busy_cycles = cluster.dma.busy_cycles
    y = job.result()
    if check:
        expect = matrix.spmv(x)
        check_reference(y, expect, f"cluster CsrMV {variant}/{index_bits}")
    return stats, y
