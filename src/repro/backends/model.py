"""Analytic cycle and counter models for the compiled backend.

Every constant below is derived from the *structure* of the assembled
kernels (see :mod:`repro.kernels`) and validated against the
cycle-stepped simulator:

- the BASE CsrMV/SpVV inner loop is nine instructions, single-issue,
  stall-free -> 9 cycles per nonzero; the SSR variant drops the value
  load and its pointer increment -> 7 cycles per nonzero;
- the ISSR variants issue one FREP'd ``fmadd.d`` per nonzero through
  the shared-port round-robin at the paper's 2/3 (32-bit) and 4/5
  (16-bit) rates (§IV-A, Fig. 4a) -> 1.5 and 1.25 cycles per
  streamed element;
- the per-row CsrMV cost splits into the kernel's three cases (see
  ``emit_issr_row_loop``): empty row (store only), short reduction
  (chained MAC, 3 cycles per element behind the row overhead), and the
  FREP case (unrolled ``fmul`` initialization, staggered FREP body,
  tree reduction) whose latency floor dominates rows barely longer
  than the accumulator count.

Model error versus the cycle backend is bounded by the documented
tolerances (:data:`CYCLE_TOLERANCE`): single-CC kernels track the
simulator to a few cycles per row; the cluster model additionally
approximates TCDM bank conflicts and DMA overlap.
"""

import math
from collections import namedtuple

import numpy as np

from repro.cluster.runtime import (
    BARRIER_CYCLES,
    WORKER_START_STAGGER,
    ClusterStats,
    plan_tcdm,
    share_bounds,
)
from repro.kernels.common import BASE, ISSR, N_ACCUMULATORS, SSR
from repro.mem.dma import overlap, transfer_cycles
from repro.sim.counters import LaneStats, RunStats

#: Documented cycle-prediction tolerances of the compiled backend, as a
#: relative fraction of the cycle backend's count (plus a small
#: absolute slack for setup-dominated runs, :data:`CYCLE_SLACK`).
#: "masked" covers the sparse-sparse intersection kernels (masked
#: SpVV/CsrMV), "spgemm" the Gustavson numeric phase — both fitted to
#: well under half their budget on the calibration sweeps. "pipeline"
#: covers whole multi-stage pipeline runs (:mod:`repro.pipeline`):
#: stage models are exact on ideal memory, so the budget absorbs the
#: TCDM/L0-icache effects of the resident execution plus the modeled
#: coordination costs.
CYCLE_TOLERANCE = {"single": 0.10, "cluster": 0.20,
                   "masked": 0.10, "spgemm": 0.10,
                   "pipeline": 0.12}

#: Absolute slack (cycles) allowed on top of the relative tolerance.
CYCLE_SLACK = 32

#: Tolerance family of every kernel the backends execute — the single
#: home of the tolerance lookup previously duplicated across the
#: parity tests and the experiment cross-checks. Every entry maps to a
#: key of :data:`CYCLE_TOLERANCE` (asserted by
#: ``tests/test_pipeline.py::test_every_kernel_has_a_tolerance``).
KERNEL_TOLERANCE = {
    "spvv": "single",
    "csrmv": "single",
    "csrmm": "single",
    "ttv": "single",
    "masked_spvv": "masked",
    "masked_csrmv": "masked",
    "spgemm": "spgemm",
    "cluster_csrmv": "cluster",
    "pipeline": "pipeline",
}


def cycle_tolerance(kind):
    """(relative tolerance, absolute slack) for a kernel or family.

    ``kind`` is a :data:`CYCLE_TOLERANCE` family ("single", "masked",
    "pipeline", ...) or a kernel name registered in
    :data:`KERNEL_TOLERANCE` ("csrmv", "spgemm", ...).
    """
    family = KERNEL_TOLERANCE.get(kind, kind)
    try:
        return CYCLE_TOLERANCE[family], CYCLE_SLACK
    except KeyError:
        raise KeyError(
            f"no cycle tolerance registered for {kind!r}; known kernels "
            f"{sorted(KERNEL_TOLERANCE)}, families {sorted(CYCLE_TOLERANCE)}"
        ) from None


def cycle_error(predicted, simulated, kind):
    """Relative cycle error beyond the absolute slack (0.0 = within).

    The normalized quantity every cross-check compares against the
    family tolerance: ``max(|predicted - simulated| - slack, 0)``
    relative to the simulated count.
    """
    _rel, slack = cycle_tolerance(kind)
    excess = max(abs(predicted - simulated) - slack, 0)
    return excess / max(simulated, 1)


def cycles_within_tolerance(predicted, simulated, kind):
    """Whether a compiled-backend cycle prediction meets its contract."""
    rel, _slack = cycle_tolerance(kind)
    return cycle_error(predicted, simulated, kind) <= rel

#: Steady-state issue cost per streamed element (cycles / element).
ISSUE_RATE = {("base", 32): 9.0, ("base", 16): 9.0,
              ("ssr", 32): 7.0, ("ssr", 16): 7.0,
              ("issr", 32): 1.5, ("issr", 16): 1.25}

#: Program setup/teardown cycles outside the row loop.
_FIXED = {BASE: 7, SSR: 13, ISSR: 16}
#: Extra cycles when stream jobs are actually launched (nnz > 0).
_LAUNCH = {BASE: 0, SSR: 1, ISSR: 6}
#: Cycles between the last MAC writeback and program completion.
_MAC_TAIL = {("base", 32): 8, ("base", 16): 8,
             ("ssr", 32): 8, ("ssr", 16): 8,
             ("issr", 32): 15, ("issr", 16): 21}
#: SpVV-specific constants (single fiber, no row loop).
_SPVV_FIXED = {("base", 32): 8, ("base", 16): 8,
               ("ssr", 32): 14, ("ssr", 16): 14,
               ("issr", 32): 29, ("issr", 16): 37}
#: Empty-fiber cost: setup + accumulator zeroing + reduction + store.
_SPVV_EMPTY = {("base", 32): 4, ("base", 16): 4,
               ("ssr", 32): 7, ("ssr", 16): 7,
               ("issr", 32): 23, ("issr", 16): 33}
_SPVV_TAIL = {("base", 32): 6, ("base", 16): 6,
              ("ssr", 32): 6, ("ssr", 16): 6,
              ("issr", 32): 14, ("issr", 16): 18}
#: CsrMM column-loop constants: (program fixed, per-column overhead).
_MM_OVERHEAD = {("base", 32): (9, 10), ("base", 16): (9, 10),
                ("ssr", 32): (14, 12), ("ssr", 16): (14, 12),
                ("issr", 32): (37, 6), ("issr", 16): (29, 10)}

#: Fraction of ISSR element traffic lost to TCDM bank conflicts in the
#: cluster, ramping with row density (§IV-B / Fig. 4c: peak
#: utilization drops from 0.8 to ~0.71 under bank conflicts).
_CONFLICT_MAX = 0.06
_CONFLICT_RAMP_NPR = 32.0


def row_cycles(lengths, variant, index_bits):
    """Per-row cycle cost of the CsrMV row loop (vectorized).

    ``lengths`` is an int array of per-row nonzero counts; returns an
    int64 array of the same shape.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if variant == BASE:
        return np.where(lengths == 0, 10, 12 + 9 * lengths)
    if variant == SSR:
        return np.where(lengths == 0, 10, 12 + 7 * lengths)
    n_acc = N_ACCUMULATORS[index_bits]
    if index_bits == 32:
        # floor 21: fmul unroll + FREP drain + tree reduction latency
        long_cost = np.maximum(
            21, 12 + np.ceil(1.5 * (lengths - n_acc)).astype(np.int64))
    else:
        long_cost = np.maximum(
            29, 21 + np.ceil(1.25 * (lengths - n_acc)).astype(np.int64))
    short_cost = 11 + 3 * lengths
    return np.where(lengths == 0, 9,
                    np.where(lengths < n_acc, short_cost, long_cost))


def csrmv_row_terms(lengths, variant, index_bits):
    """Per-row terms a CsrMV share's cost sums: an int64 ``(5, nrows)``.

    In order: the row loop's cycles (:func:`row_cycles`), one per row,
    the row's nonzeros, and for ISSR (zero otherwise) one per empty row
    and one per row long enough for the FREP case (at least
    ``N_ACCUMULATORS`` nonzeros).
    """
    terms = np.zeros((5, len(lengths)), dtype=np.int64)
    terms[0] = row_cycles(lengths, variant, index_bits)
    terms[1] = 1
    terms[2] = lengths
    if variant == ISSR:
        terms[3] = lengths == 0
        terms[4] = lengths >= N_ACCUMULATORS[index_bits]
    return terms


def _csrmv_sums(lengths, variant, index_bits):
    """:func:`csrmv_row_terms` summed over all rows, as Python ints.

    Rows of one length cost the same, so each distinct length's terms
    are computed once and weighted by its row count.
    """
    counts = np.bincount(lengths)
    present = (counts > 0).nonzero()[0]
    return (csrmv_row_terms(present, variant, index_bits)
            @ counts[present]).tolist()


def _ceil(value):
    """``math.ceil``, element-wise (as int64) on an array."""
    if isinstance(value, np.ndarray):
        return np.ceil(value).astype(np.int64)
    return math.ceil(value)


def _minimum(a, b):
    """``min``, element-wise when ``a`` is an array."""
    return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)


#: Counters a worker share adds to its core, and a core to its cluster.
CORE_COUNTERS = ("retired", "fpu_compute_ops", "fpu_mac_ops",
                 "fpu_issued_ops", "mem_reads", "mem_writes")
#: Counters a worker share adds to each of its core's stream lanes.
LANE_COUNTERS = ("elements_read", "elements_written", "mem_reads",
                 "mem_writes", "idx_reads")

#: The single-CC costs of row blocks (worker shares): ``cycles``;
#: ``counters``, one value per :data:`CORE_COUNTERS` entry; ``lanes``,
#: ``{lane: one value per LANE_COUNTERS entry}``. Each value is a
#: scalar for one share, or an array with one entry per share.
ShareCosts = namedtuple("ShareCosts", "cycles counters lanes")


def _one_share(costs):
    """The :class:`RunStats` of one share's :class:`ShareCosts` in ints."""
    stats = RunStats(cycles=costs.cycles)
    vars(stats).update(zip(CORE_COUNTERS, costs.counters))
    for name, fields in costs.lanes.items():
        stats.lanes[name] = LaneStats(*fields)
    return stats


def csrmv_share_costs(sums, variant, index_bits):
    """Single-CC CsrMV :class:`ShareCosts` of row blocks.

    ``sums`` holds the blocks' :func:`csrmv_row_terms`, summed over
    each block's rows.
    """
    loop, rows, nnz, n_empty, n_long = sums
    cycles = _FIXED[variant] + _LAUNCH[variant] * (nnz > 0) + loop
    if variant in (BASE, SSR):
        per_elem = 3 if variant == BASE else 2
        counters = (cycles, nnz, nnz, per_elem * nnz + 2 * rows + 1,
                    3 * nnz + rows + 1, rows)
        lanes = {"ssr": (nnz, 0, nnz, 0, 0)} if variant == SSR else {}
        return ShareCosts(cycles, counters, lanes)
    n_acc = N_ACCUMULATORS[index_bits]
    n_short = rows - n_empty - n_long
    # short rows: 1 fmul + (l-1) fmadd; long: n_acc fmul +
    # (l - n_acc) FREP'd fmadd + (n_acc - 1) tree fadd
    compute = nnz + (n_acc - 1) * n_long
    per_row_ret = 21 if index_bits == 32 else 29
    retired = _minimum(
        cycles, 23 + per_row_ret * (n_short + n_long) + 9 * n_empty)
    idx_reads = (nnz * (index_bits // 8) + 7) // 8
    counters = (retired, compute, nnz - n_short - n_acc * n_long,
                compute + rows + 1, 2 * nnz + idx_reads + rows + 1, rows)
    lanes = {"ssr": (nnz, 0, nnz, 0, 0),
             "issr": (nnz, 0, nnz, 0, idx_reads)}
    return ShareCosts(cycles, counters, lanes)


def csrmv_cycles(lengths, variant, index_bits):
    """Predicted single-CC CsrMV cycles for the given row structure."""
    return csrmv_stats(lengths, variant, index_bits).cycles


def csrmv_stats(lengths, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC CsrMV run.

    The one-share case of :func:`csrmv_share_costs`.
    """
    stats = _one_share(csrmv_share_costs(
        _csrmv_sums(lengths, variant, index_bits), variant, index_bits))
    stats.first_mac_cycle = _FIXED[variant] + 10
    stats.last_mac_cycle = max(stats.cycles - _MAC_TAIL[(variant, index_bits)], 0)
    return stats


def spvv_stats(nnz, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC SpVV run."""
    nnz = int(nnz)
    idx_bytes = index_bits // 8
    stats = RunStats()
    if nnz == 0:
        stats.cycles = _SPVV_EMPTY[(variant, index_bits)]
        if variant == ISSR:  # the tree reduction runs even when empty
            n_acc = N_ACCUMULATORS[index_bits]
            stats.fpu_compute_ops = n_acc - 1
            stats.fpu_issued_ops = 2 * n_acc
            stats.retired = 17 if index_bits == 32 else 25
        stats.mem_writes = 1
        return stats
    rate = ISSUE_RATE[(variant, index_bits)]
    stats.cycles = _SPVV_FIXED[(variant, index_bits)] \
        + int(np.ceil(rate * nnz))
    stats.fpu_mac_ops = nnz
    if variant in (BASE, SSR):
        stats.fpu_compute_ops = nnz
        per_elem = 3 if variant == BASE else 2
        stats.fpu_issued_ops = per_elem * nnz + 2
        stats.retired = stats.cycles - 2
        stats.mem_reads = 3 * nnz
        if variant == SSR:
            stats.lanes["ssr"] = LaneStats(elements_read=nnz, mem_reads=nnz)
    else:
        n_acc = N_ACCUMULATORS[index_bits]
        stats.fpu_compute_ops = nnz + n_acc - 1
        stats.fpu_issued_ops = nnz + 2 * n_acc
        stats.retired = 23 if index_bits == 32 else 31
        idx_reads = (nnz * idx_bytes + 7) // 8
        stats.mem_reads = 2 * nnz + idx_reads
        stats.lanes["ssr"] = LaneStats(elements_read=nnz, mem_reads=nnz)
        stats.lanes["issr"] = LaneStats(elements_read=nnz, mem_reads=nnz,
                                        idx_reads=idx_reads)
    stats.mem_writes = 1
    stats.first_mac_cycle = {BASE: 11, SSR: 15}.get(
        variant, 18 if index_bits == 32 else 22)
    stats.last_mac_cycle = stats.cycles - _SPVV_TAIL[(variant, index_bits)]
    return stats


def csrmm_share_costs(sums, k, variant, index_bits):
    """Single-CC CsrMM :class:`ShareCosts` of row blocks.

    The kernel iterates the CsrMV row loop once per dense column, so
    every per-column counter is the CsrMV counter of the same ``sums``
    (:func:`csrmv_share_costs`) scaled by ``k``, plus the column-loop
    overhead.
    """
    per_col = csrmv_share_costs(sums, variant, index_bits)
    fixed, col_ovh = _MM_OVERHEAD[(variant, index_bits)]
    cycles = fixed + k * (col_ovh + sums[0])
    retired, *rest = per_col.counters
    counters = (_minimum(cycles, k * retired), *(k * c for c in rest))
    lanes = {name: tuple(k * f for f in fields)
             for name, fields in per_col.lanes.items()}
    return ShareCosts(cycles, counters, lanes)


def csrmm_stats(lengths, k, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC CsrMM run.

    The one-share case of :func:`csrmm_share_costs`.
    """
    stats = _one_share(csrmm_share_costs(
        _csrmv_sums(lengths, variant, index_bits), k, variant, index_bits))
    stats.first_mac_cycle = _FIXED[variant] + 10
    stats.last_mac_cycle = max(
        stats.cycles - _MAC_TAIL[(variant, index_bits)], 0)
    return stats


# -- sparse-sparse (intersection / SpGEMM) models ---------------------------
#
# Constants below are least-squares fits of the assembled kernels'
# structure against the cycle-stepped simulator (the same methodology
# as the sparse-dense constants above):
#
# - the scalar merge loop costs 7 cycles per advancing step and 13
#   (BASE) / 11 (SSR: no value load) per matching step;
# - the intersection unit merges at ONE comparison per cycle; the ISSR
#   kernels run it twice (count pass + stream pass), and the stream
#   pass is bounded below by the FMA dependency chain (FPU_LATENCY = 4
#   cycles per matched pair, single-accumulator chain);
# - the SSR variants drain unconsumed A-value stream elements at one
#   pop per cycle (exposed when the b side exhausts early);
# - SpGEMM per-row costs split into the zero / accumulate / gather
#   phases; the ISSR variant's streamed phases run at the shared-port
#   rates (~1.5 cycles per flop at 32-bit, ~1.2 at 16-bit).

#: Per-merge-step costs of the scalar merge loop: (advance, match).
_MERGE_STEP = {BASE: (7.0, 13.0), SSR: (7.0, 11.0)}
#: Fixed setup of the masked SpVV program.
_MASKED_SPVV_FIXED = {BASE: 8, SSR: 19, ISSR: 24}
#: Empty-operand masked SpVV cost (guard branches + store).
_MASKED_SPVV_EMPTY = 5
#: Masked CsrMV: (program fixed, per-nonempty-row, per-empty-row).
_MASKED_MV_ROW = {BASE: (8, 19.0, 10.0), SSR: (8, 21.0, 10.0),
                  ISSR: (34, 23.0, 10.0)}
#: Masked CsrMV fast path when x has no nonzeros: fixed + per-row.
_MASKED_MV_XEMPTY = {BASE: (16, 10.0), SSR: (21, 10.0), ISSR: (19, 10.0)}
#: ISSR masked rows with matches overlap the row scalars with the
#: queued next count pass; fitted correction per streaming row.
_MASKED_MV_STREAM_OVERLAP = 13.0
#: FMA dependency-chain latency bounding the ISSR stream pass.
_CHAIN_LATENCY = 4.0

#: SpGEMM cost vectors: {(variant, bits): (fixed, per pattern row,
#: per empty-pattern row, per output nonzero, per A element, per
#: nonempty B-row visit, per flop)}. 16-bit scalar variants match the
#: 32-bit ones (identical instruction counts).
_SPGEMM_COST = {
    (BASE, 32): (7, 19.0, 18.0, 16.0, 12.0, 6.0, 10.0),
    (BASE, 16): (7, 19.0, 18.0, 16.0, 12.0, 6.0, 10.0),
    (SSR, 32): (11, 19.0, 18.0, 16.0, 12.0, 8.0, 9.0),
    (SSR, 16): (11, 19.0, 18.0, 16.0, 12.0, 8.0, 9.0),
    (ISSR, 32): (31, 24.0, 17.0, 3.0, 20.0, 3.75, 1.5),
    (ISSR, 16): (38, 23.0, 17.0, 2.5, 21.5, 2.9, 1.22),
}


def masked_spvv_cycles(profile, na, nb, variant, index_bits):
    """Predicted masked-SpVV cycles for one merge profile."""
    if na == 0 or nb == 0:
        return _MASKED_SPVV_EMPTY
    steps, matches = profile.steps, profile.matches
    fixed = _MASKED_SPVV_FIXED[variant]
    if variant == ISSR:
        stream = max(steps, _CHAIN_LATENCY * matches) if matches else 0
        return int(fixed + steps + stream)
    adv, match = _MERGE_STEP[variant]
    cycles = fixed + adv * (steps - matches) + match * matches
    if variant == SSR:
        cycles += na - profile.consumed_a  # exposed stream drain
    return int(math.ceil(cycles))


def masked_spvv_stats(profile, na, nb, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC masked SpVV run."""
    stats = RunStats(cycles=masked_spvv_cycles(profile, na, nb, variant,
                                               index_bits))
    m = profile.matches
    stats.fpu_mac_ops = m
    stats.fpu_compute_ops = m
    stats.fpu_issued_ops = m + 2
    stats.retired = stats.cycles
    idx_bytes = index_bits // 8
    stats.mem_reads = profile.consumed_a + profile.consumed_b + 2 * m
    stats.mem_writes = 1
    if m:
        stats.first_mac_cycle = _MASKED_SPVV_FIXED[variant] + 5
        stats.last_mac_cycle = max(stats.cycles - 6, 0)
    if variant == ISSR:
        idx_words = ((profile.consumed_a * idx_bytes + 7) // 8
                     + (profile.consumed_b * idx_bytes + 7) // 8)
        stats.lanes["isect"] = LaneStats(elements_read=m, mem_reads=m,
                                         idx_reads=2 * idx_words)
    elif variant == SSR:
        stats.lanes["ssr"] = LaneStats(elements_read=na, mem_reads=na)
    return stats


def masked_csrmv_cycles(profiles, row_lengths, nnz_x, variant, index_bits):
    """Predicted masked-CsrMV cycles.

    ``profiles`` is a :class:`~repro.core.intersect.MergeProfile` of
    per-row arrays (:func:`~repro.core.intersect.merge_rows`; an empty
    row's entries are zero); ``row_lengths`` the per-row nonzero
    counts of the matrix.
    """
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    nrows = len(row_lengths)
    if nrows == 0:
        return 4
    if nnz_x == 0:
        fixed, per_row = _MASKED_MV_XEMPTY[variant]
        return int(fixed + per_row * nrows)
    n_empty = int(np.count_nonzero(row_lengths == 0))
    fixed, per_row, per_empty = _MASKED_MV_ROW[variant]
    cycles = fixed + per_empty * n_empty + per_row * (nrows - n_empty)
    steps, matches = profiles.steps, profiles.matches
    # every term is a whole number of cycles, so the sums are exact
    if variant == ISSR:
        streamed = matches > 0
        cycles += int(steps.sum()) + int(np.maximum(
            steps[streamed], _CHAIN_LATENCY * matches[streamed]).sum()) \
            - _MASKED_MV_STREAM_OVERLAP * int(np.count_nonzero(streamed))
    else:
        adv, match = _MERGE_STEP[variant]
        cycles += adv * int((steps - matches).sum()) \
            + match * int(matches.sum())
    if variant == SSR:
        # exposed stream drains: A values never consumed by the merge
        cycles += int(row_lengths.sum()) - int(profiles.consumed_a.sum())
    return int(math.ceil(cycles))


def masked_csrmv_stats(profiles, row_lengths, nnz_x, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC masked CsrMV run."""
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    stats = RunStats(cycles=masked_csrmv_cycles(profiles, row_lengths,
                                                nnz_x, variant, index_bits))
    m = int(profiles.matches.sum())
    ca = int(profiles.consumed_a.sum())
    cb = int(profiles.consumed_b.sum())
    stats.fpu_mac_ops = m
    stats.fpu_compute_ops = m
    stats.fpu_issued_ops = m + 2 * len(row_lengths)
    stats.retired = stats.cycles
    stats.mem_reads = ca + cb + 2 * m + len(row_lengths) + 1
    stats.mem_writes = max(len(row_lengths), 1)
    if m:
        stats.first_mac_cycle = _MASKED_MV_ROW[variant][0] + 15
        stats.last_mac_cycle = max(stats.cycles - 8, 0)
    if variant == ISSR:
        stats.lanes["isect"] = LaneStats(elements_read=m, mem_reads=m,
                                         idx_reads=(ca + cb) // 2)
    elif variant == SSR:
        nnz = int(row_lengths.sum())
        stats.lanes["ssr"] = LaneStats(elements_read=nnz, mem_reads=nnz)
    return stats


def spgemm_row_terms(a, b, pattern_ptr):
    """Per-row terms a SpGEMM share's cost sums: an int64 ``(6, a.nrows)``.

    For each row of ``a`` against ``b``, in :func:`spgemm_share_costs`'
    order: one if its output pattern (row pointer ``pattern_ptr``) is
    nonempty, one if it is empty, its output nonzeros, and — in
    pattern rows only, the rows the kernel walks — its A nonzeros, the
    nonempty B rows they select and its flops.
    """
    out_nnz = np.diff(pattern_ptr)
    b_lengths = b.row_lengths()[a.idcs]
    visits = _running(np.stack((b_lengths > 0, b_lengths)))
    visits = visits[:, a.ptr[1:]] - visits[:, a.ptr[:-1]]
    pattern = out_nnz > 0
    return np.stack((pattern, ~pattern, out_nnz,
                     a.row_lengths() * pattern, *(visits * pattern)))


def spgemm_share_costs(sums, variant, index_bits):
    """Single-CC SpGEMM numeric-phase :class:`ShareCosts` of row blocks.

    ``sums`` holds each block's row structure: rows with a nonempty
    and an empty output pattern, output nonzeros, the A nonzeros in
    pattern rows, the nonempty B rows they select, and the total
    multiply-accumulates (flops).
    """
    n_pattern, n_skip, out_nnz, n_a, n_b, flops = sums
    fixed, row, skip, per_z, per_a, per_k, per_f = \
        _SPGEMM_COST[(variant, index_bits)]
    cycles = _ceil(fixed + row * n_pattern + skip * n_skip
                   + per_z * out_nnz + per_a * n_a + per_k * n_b
                   + per_f * flops)
    idx_reads = ((flops + n_a + 2 * out_nnz) * (index_bits // 8) + 7) // 8
    counters = (cycles, flops, flops, flops + 2 * out_nnz + n_a,
                2 * flops + n_a * 2 + out_nnz + idx_reads,
                2 * out_nnz + flops)
    lanes = {}
    if variant == ISSR:
        lanes = {"ssr": (flops + out_nnz, out_nnz, flops, out_nnz, 0),
                 "issr": (flops + out_nnz, 0, flops + out_nnz, 0, 0),
                 "issr2": (0, flops + out_nnz, 0, flops + out_nnz, 0)}
    return ShareCosts(cycles, counters, lanes)


def spgemm_stats(n_pattern_rows, n_skip_rows, out_nnz, n_a_elems,
                 n_b_visits, flops, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC SpGEMM run.

    The one-share case of :func:`spgemm_share_costs`.
    """
    stats = _one_share(spgemm_share_costs(
        (n_pattern_rows, n_skip_rows, out_nnz, n_a_elems, n_b_visits,
         flops), variant, index_bits))
    if flops:
        stats.first_mac_cycle = _SPGEMM_COST[(variant, index_bits)][0] + 20
        stats.last_mac_cycle = max(stats.cycles - 2 * out_nnz // 3 - 8, 0)
    return stats


# -- pipeline glue-stage models ---------------------------------------------
#
# The dense level-1 glue kernels (:mod:`repro.kernels.blas1`) are
# branch-predictable scalar loops, so their cost on the ideal single-CC
# harness is *exactly* linear: ``empty`` cycles for n = 0, otherwise
# ``fixed + per_elem * n``. The constants below are the measured
# values (see the calibration points in ``tests/test_pipeline.py``);
# TCDM-resident execution inside a pipeline adds bank/icache effects
# covered by the "pipeline" tolerance.

#: {kind: (empty, fixed, per_elem)} measured on the single-CC harness.
GLUE_COST = {
    "dot": (4, 8, 6.0),
    "axpy": (2, 5, 8.0),
    "axpy_sub": (2, 5, 8.0),
    "aypx": (2, 5, 8.0),
    "scale": (2, 5, 7.0),
    "copy": (2, 4, 5.0),
    "diff2": (4, 9, 8.0),
    "jacobi": (2, 4, 12.0),
}

#: (mac ops, compute ops, mem reads, mem writes) per element, plus the
#: scalar-result write for the reduction kinds.
_GLUE_OPS = {
    "dot": (1, 1, 2, 0),
    "axpy": (1, 1, 2, 1),
    "axpy_sub": (1, 1, 2, 1),
    "aypx": (1, 1, 2, 1),
    "scale": (0, 1, 1, 1),
    "copy": (0, 0, 1, 1),
    "diff2": (1, 2, 2, 0),
    "jacobi": (0, 2, 3, 1),
}


def glue_cycles(kind, n):
    """Predicted single-CC cycles of one glue kernel over ``n`` elements."""
    empty, fixed, per_elem = GLUE_COST[kind]
    if n == 0:
        return empty
    return int(fixed + per_elem * n)


def glue_stats(kind, n):
    """Predicted :class:`RunStats` for one glue kernel invocation."""
    mac, compute, reads, writes = _GLUE_OPS[kind]
    stats = RunStats(cycles=glue_cycles(kind, n))
    stats.fpu_mac_ops = mac * n
    stats.fpu_compute_ops = compute * n
    stats.fpu_issued_ops = compute * n + 1
    stats.retired = stats.cycles
    stats.mem_reads = reads * n + (1 if kind not in ("dot", "diff2", "copy",
                                                     "jacobi") and n else 0)
    stats.mem_writes = writes * n + (1 if kind in ("dot", "diff2") else 0)
    return stats


def _conflict_factor(variant, nnz, nrows):
    """Cycle inflation from TCDM bank conflicts in the cluster."""
    if variant != ISSR or nrows == 0:
        return 1.0
    npr = nnz / nrows
    return 1.0 + _CONFLICT_MAX * min(1.0, npr / _CONFLICT_RAMP_NPR)


def _running(values):
    """Running sums of ``values`` along its last axis, from a zero."""
    cum = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,),
                   dtype=np.int64)
    values.cumsum(axis=-1, out=cum[..., 1:])
    return cum


def cluster_schedule(ptr, bounds, terms, price, writeback_words,
                     idx_bytes, resident_words, n_workers, tcdm_words,
                     dma_words_per_cycle):
    """Predicted :class:`ClusterStats` of §IV-B's double-buffered schedule.

    Follows :class:`repro.cluster.runtime.ClusterCsrmv`, for every
    kernel the cluster models run, on every shard of a partitioned run
    in one pass. ``ptr`` is the CSR row pointer of every shard's rows,
    shard after shard; shard ``s`` owns rows ``bounds[s]:bounds[s +
    1]``. ``resident_words`` stay in each shard's TCDM for the whole
    run (CsrMV's ``x``, CsrMM's ``B``, SpGEMM's B and accumulator);
    :func:`~repro.cluster.runtime.plan_tcdm` splits a shard's rows into
    tiles around them and :func:`share_bounds` each tile's rows among
    the workers. The resident transfer is exposed, then the tiles take
    :func:`repro.mem.dma.overlap`'s critical path, a barrier each.

    ``terms`` holds the kernel's int64 cost terms, one column per row;
    their running sums give every share's and every tile's summed terms
    at once. ``price(sums, shard)`` maps the shares' sums (one column
    per share; ``shard`` holds each share's shard index) to the
    kernel's single-CC :class:`ShareCosts`, and ``writeback_words(sums)``
    the tiles' sums to the words each tile writes back. A tile's
    compute is its slowest worker's share plus the DMCC start stagger;
    a core's counters and lanes are the sums of its shares.

    ``dma_words_per_cycle`` scales every DMA transfer (8 is a lone
    cluster's full 512-bit beat); the scale-out model passes the
    contended HBM share here (:mod:`repro.multicluster.model`). Returns
    ``(stats, compute, tiles)``: one :class:`ClusterStats` per shard,
    and each shard's summed compute cycles and tile count.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    bounds = [int(b) for b in bounds]
    tiles, words, n_tiles = [], [], []
    for b0, b1 in zip(bounds, bounds[1:]):
        planned, sizes = plan_tcdm(ptr[b0:b1 + 1], b1 - b0, idx_bytes,
                                   tcdm_words, resident_words)
        n_tiles.append(len(planned))
        tiles += [(b0 + r0, b0 + r1, r0 == 0, r1 == b1 - b0)
                  for r0, r1 in planned]
        words += sizes
    t0, t1, first, last = np.array(tiles, dtype=np.int64).reshape(-1, 4).T
    n_tiles = np.array(n_tiles, dtype=np.int64)
    tile_bounds = _running(n_tiles)

    # every share, tile-major: its summed terms and its costs; a tile's
    # compute is its slowest share plus the share's start stagger
    starts, ends = share_bounds(t0, t1, n_workers)
    served = ends > starts
    cum = _running(terms)
    costs = price(cum[:, ends.ravel()] - cum[:, starts.ravel()],
                  np.repeat(np.arange(len(n_tiles)), n_workers * n_tiles))
    compute = ((np.reshape(costs.cycles, served.shape)
                + WORKER_START_STAGGER * np.arange(n_workers))
               * served).max(axis=1)

    # each core's counters and lanes, summed over its shard's tiles, and
    # how many shares it ran
    lanes = list(costs.lanes)
    values = (*costs.counters,
              *(value for name in lanes for value in costs.lanes[name]))
    fields = np.zeros((len(values) + 1, served.size), dtype=np.int64)
    for row, value in enumerate(values):
        if isinstance(value, np.ndarray):  # a literal 0 stays 0
            fields[row] = value
    fields[-1] = 1
    fields *= served.ravel()
    cores = _running(fields.reshape(len(fields), -1, n_workers)
                     .transpose(0, 2, 1))
    cores = cores[..., tile_bounds[1:]] - cores[..., tile_bounds[:-1]]

    # a tile prefetches its vals, idcs and ptr (three transfers) and
    # writes its results back
    words = np.array(words, dtype=np.int64).reshape(-1, 4)[:, :3].sum(axis=1)
    writeback = writeback_words(cum[:, t1] - cum[:, t0])
    critical = overlap(
        compute, transfer_cycles(words, 3, dma_words_per_cycle),
        transfer_cycles(writeback, 1, dma_words_per_cycle), first, last,
        BARRIER_CYCLES)
    per_tile = np.array((compute, critical, words + writeback),
                        dtype=np.int64)
    per_shard = _running(per_tile)
    per_shard = per_shard[:, tile_bounds[1:]] - per_shard[:, tile_bounds[:-1]]

    # the resident transfer cannot be overlapped with computation
    resident = max(resident_words, 1)
    total = per_shard[1] + transfer_cycles(resident, 1, dma_words_per_cycle)
    dma_words = per_shard[2] + resident
    busy = np.minimum(total, transfer_cycles(dma_words, 0, dma_words_per_cycle))

    at = len(CORE_COUNTERS)
    width = len(LANE_COUNTERS)
    spans = [(name, slice(at + width * i, at + width * (i + 1)))
             for i, name in enumerate(lanes)]
    stats = []
    for cycles, shard_cores, shard_sums, words_s, busy_s in zip(
            total.tolist(), cores.transpose(2, 1, 0).tolist(),
            cores[:at].sum(axis=1).T.tolist(), dma_words.tolist(),
            busy.tolist()):
        cluster = ClusterStats(cycles=cycles, dma_words=words_s,
                               dma_busy_cycles=busy_s)
        vars(cluster).update(zip(CORE_COUNTERS, shard_sums))
        for row in shard_cores:
            core = RunStats(cycles=cycles)
            vars(core).update(zip(CORE_COUNTERS, row))
            if row[-1]:  # the core ran at least one share
                core.lanes = {name: LaneStats(*row[span])
                              for name, span in spans}
            cluster.per_core.append(core)
        stats.append(cluster)
    return stats, per_shard[0], n_tiles


def cluster_csrmv_shards(ptr, bounds, ncols, variant, index_bits,
                         n_workers=8, tcdm_words=256 * 1024 // 8,
                         dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` of CsrMV shards, one per shard.

    :func:`cluster_schedule` over the row pointer ``ptr`` and shard
    ``bounds``, with the ``ncols`` words of ``x`` resident and one
    ``y`` word per row written back. A worker's share costs the
    single-CC model (:func:`csrmv_share_costs`) inflated by its shard's
    bank-conflict factor; that factor and the I-cache misses are this
    model's calibration against the cycle-stepped cluster.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    conflict = np.array([
        _conflict_factor(variant, int(ptr[b1] - ptr[b0]), int(b1 - b0))
        for b0, b1 in zip(bounds[:-1], bounds[1:])])

    def price(sums, shard):
        costs = csrmv_share_costs(sums, variant, index_bits)
        # int(cycles * conflict), share by share
        return costs._replace(
            cycles=(costs.cycles * conflict[shard]).astype(np.int64))

    stats, compute, n_tiles = cluster_schedule(
        ptr, bounds, csrmv_row_terms(ptr[1:] - ptr[:-1], variant,
                                     index_bits),
        price, lambda sums: sums[1], index_bits // 8, ncols, n_workers,
        tcdm_words, dma_words_per_cycle)
    conflicts = ((conflict - 1.0) * compute * max(n_workers, 1)).astype(
        np.int64)
    for cluster, tcdm, tiles in zip(stats, conflicts.tolist(),
                                    n_tiles.tolist()):
        cluster.tcdm_conflicts = tcdm
        cluster.icache_misses = 8 * n_workers + 2 * max(tiles - 1, 0)
    return stats


def cluster_csrmv_stats(matrix, variant, index_bits, n_workers=8,
                        tcdm_words=256 * 1024 // 8, dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` for a cluster CsrMV run.

    The one-shard case of :func:`cluster_csrmv_shards`.
    ``dma_words_per_cycle`` is the DMA bandwidth (default 8, a lone
    cluster's full 512-bit beat).
    """
    return cluster_csrmv_shards(
        matrix.ptr, (0, matrix.nrows), matrix.ncols, variant, index_bits,
        n_workers, tcdm_words, dma_words_per_cycle)[0]
