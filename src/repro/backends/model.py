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

import numpy as np

from repro.cluster.runtime import (
    BARRIER_CYCLES,
    WORKER_START_STAGGER,
    ClusterStats,
    plan_tiles,
    tile_words,
    worker_shares,
)
from repro.kernels.common import BASE, ISSR, N_ACCUMULATORS, SSR
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


def _issr_row_classes(lengths, n_acc):
    """(n_empty, n_short, n_long) row counts for the ISSR row loop."""
    lengths = np.asarray(lengths, dtype=np.int64)
    n_empty = int(np.count_nonzero(lengths == 0))
    n_long = int(np.count_nonzero(lengths >= n_acc))
    n_short = len(lengths) - n_empty - n_long
    return n_empty, n_short, n_long


def csrmv_cycles(lengths, variant, index_bits):
    """Predicted single-CC CsrMV cycles for the given row structure.

    Rows of one length cost the same, so each distinct length is priced
    once (:func:`row_cycles`) and weighted by its row count.
    """
    counts = np.bincount(np.asarray(lengths, dtype=np.int64))
    present = np.nonzero(counts > 0)[0]
    fixed = _FIXED[variant] + (_LAUNCH[variant] if len(counts) > 1 else 0)
    return fixed + int(counts[present]
                       @ row_cycles(present, variant, index_bits))


def csrmv_stats(lengths, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC CsrMV run."""
    lengths = np.asarray(lengths, dtype=np.int64)
    nrows = len(lengths)
    nnz = int(lengths.sum())
    idx_bytes = index_bits // 8
    stats = RunStats(cycles=csrmv_cycles(lengths, variant, index_bits))

    if variant in (BASE, SSR):
        stats.fpu_mac_ops = nnz
        stats.fpu_compute_ops = nnz
        per_elem = 3 if variant == BASE else 2
        stats.fpu_issued_ops = per_elem * nnz + 2 * nrows + 1
        stats.retired = stats.cycles
        stats.mem_reads = 3 * nnz + nrows + 1
    else:
        n_acc = N_ACCUMULATORS[index_bits]
        n_empty, n_short, n_long = _issr_row_classes(lengths, n_acc)
        # short rows: 1 fmul + (l-1) fmadd; long: n_acc fmul +
        # (l - n_acc) FREP'd fmadd + (n_acc - 1) tree fadd
        stats.fpu_mac_ops = nnz - n_short - n_acc * n_long
        stats.fpu_compute_ops = nnz + (n_acc - 1) * n_long
        stats.fpu_issued_ops = stats.fpu_compute_ops + nrows + 1
        per_row_ret = 21 if index_bits == 32 else 29
        stats.retired = min(
            stats.cycles,
            23 + per_row_ret * (n_short + n_long) + 9 * n_empty)
        idx_reads = (nnz * idx_bytes + 7) // 8
        stats.mem_reads = 2 * nnz + idx_reads + nrows + 1
        stats.lanes["ssr"] = LaneStats(elements_read=nnz, mem_reads=nnz)
        stats.lanes["issr"] = LaneStats(elements_read=nnz, mem_reads=nnz,
                                        idx_reads=idx_reads)
    if variant == SSR:
        stats.lanes["ssr"] = LaneStats(elements_read=nnz, mem_reads=nnz)
    stats.mem_writes = nrows
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


def csrmm_stats(lengths, k, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC CsrMM run.

    The kernel iterates the CsrMV row loop once per dense column, so
    every per-column counter is the CsrMV counter scaled by ``k`` plus
    the column-loop overhead.
    """
    per_col = csrmv_stats(lengths, variant, index_bits)
    fixed, col_ovh = _MM_OVERHEAD[(variant, index_bits)]
    col_body = per_col.cycles - _FIXED[variant] \
        - (_LAUNCH[variant] if per_col.fpu_compute_ops else 0)
    stats = RunStats(cycles=fixed + k * (col_ovh + col_body))
    for attr in ("fpu_mac_ops", "fpu_compute_ops", "fpu_issued_ops",
                 "mem_reads", "mem_writes"):
        setattr(stats, attr, k * getattr(per_col, attr))
    stats.retired = min(stats.cycles, k * per_col.retired)
    for name, lane in per_col.lanes.items():
        stats.lanes[name] = LaneStats(
            elements_read=k * lane.elements_read,
            mem_reads=k * lane.mem_reads,
            idx_reads=k * lane.idx_reads,
        )
    stats.first_mac_cycle = per_col.first_mac_cycle
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


def spgemm_cycles(n_pattern_rows, n_skip_rows, out_nnz, n_a_elems,
                  n_b_visits, flops, variant, index_bits):
    """Predicted SpGEMM numeric-phase cycles from the row structure.

    ``n_pattern_rows``/``n_skip_rows`` split the output rows by
    empty/nonempty pattern; ``n_a_elems`` counts A nonzeros in pattern
    rows, ``n_b_visits`` the nonempty B rows they select, and
    ``flops`` the total multiply-accumulates.
    """
    fixed, row, skip, per_z, per_a, per_k, per_f = \
        _SPGEMM_COST[(variant, index_bits)]
    return int(math.ceil(fixed + row * n_pattern_rows + skip * n_skip_rows
                         + per_z * out_nnz + per_a * n_a_elems
                         + per_k * n_b_visits + per_f * flops))


def spgemm_stats(n_pattern_rows, n_skip_rows, out_nnz, n_a_elems,
                 n_b_visits, flops, variant, index_bits):
    """Predicted :class:`RunStats` for a single-CC SpGEMM run."""
    stats = RunStats(cycles=spgemm_cycles(
        n_pattern_rows, n_skip_rows, out_nnz, n_a_elems, n_b_visits,
        flops, variant, index_bits))
    stats.fpu_mac_ops = flops
    stats.fpu_compute_ops = flops
    stats.fpu_issued_ops = flops + 2 * out_nnz + n_a_elems
    stats.retired = stats.cycles
    idx_bytes = index_bits // 8
    idx_reads = ((flops + n_a_elems + 2 * out_nnz) * idx_bytes + 7) // 8
    stats.mem_reads = 2 * flops + n_a_elems * 2 + out_nnz + idx_reads
    stats.mem_writes = 2 * out_nnz + flops
    if flops:
        stats.first_mac_cycle = _SPGEMM_COST[(variant, index_bits)][0] + 20
        stats.last_mac_cycle = max(stats.cycles - 2 * out_nnz // 3 - 8, 0)
    if variant == ISSR:
        stats.lanes["ssr"] = LaneStats(elements_read=flops + out_nnz,
                                       mem_reads=flops,
                                       elements_written=out_nnz,
                                       mem_writes=out_nnz)
        stats.lanes["issr"] = LaneStats(elements_read=flops + out_nnz,
                                        mem_reads=flops + out_nnz)
        stats.lanes["issr2"] = LaneStats(elements_written=flops + out_nnz,
                                         mem_writes=flops + out_nnz)
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


def _dma_cycles(words, n_transfers=1, words_per_cycle=8.0):
    """Cycles for DMA transfers totalling ``words`` 64-bit words.

    ``words_per_cycle`` is the effective DMA bandwidth — 8 (one
    512-bit beat) for a lone cluster, possibly fractional under shared
    HBM contention (see :mod:`repro.multicluster.hbm`).
    """
    return math.ceil(words / words_per_cycle) + 2 * n_transfers


def overlap_schedule_cycles(prefetch_cycles, compute_cycles,
                            initial_cycles, final_cycles):
    """Total cycles of the §IV-B double-buffered schedule skeleton.

    The exposed initial transfer, then per tile
    ``max(compute, next prefetch)`` plus a barrier, with the final
    writeback exposed at the end. Shared by the cluster CsrMV model
    below and the CsrMM model in :mod:`repro.multicluster.model`, so a
    schedule change propagates to both.
    """
    total = initial_cycles
    if prefetch_cycles:
        total += prefetch_cycles[0]
    for t in range(len(prefetch_cycles)):
        nxt = prefetch_cycles[t + 1] if t + 1 < len(prefetch_cycles) else 0
        total += max(compute_cycles[t], nxt) + BARRIER_CYCLES
    if prefetch_cycles:
        total += final_cycles
    return total


def cluster_csrmv_stats(matrix, variant, index_bits, n_workers=8,
                        tcdm_words=256 * 1024 // 8, tile_rows=None,
                        dma_words_per_cycle=8.0):
    """Predicted :class:`ClusterStats` for a cluster CsrMV run.

    Follows the double-buffered schedule of
    :class:`repro.cluster.runtime.ClusterCsrmv`: the initial ``x``
    transfer and the first tile prefetch are exposed; afterwards each
    tile costs ``max(compute, next prefetch)`` plus a barrier, with the
    final writeback exposed at the end. Worker compute is the
    single-CC model on the worker's row share, inflated by the bank-
    conflict factor and the DMCC start stagger.

    ``dma_words_per_cycle`` scales every DMA transfer (default 8 — a
    lone cluster's full 512-bit beat); the multi-cluster model passes
    the contended HBM share here (:mod:`repro.multicluster.hbm`).
    """
    idx_bytes = index_bits // 8
    lengths = matrix.row_lengths()
    ptr = matrix.ptr
    tiles = plan_tiles(ptr, matrix.nrows, idx_bytes, tcdm_words,
                       matrix.ncols, tile_rows=tile_rows)
    conflict = _conflict_factor(variant, matrix.nnz, matrix.nrows)

    per_core = [RunStats() for _ in range(n_workers)]
    compute_cycles = []
    prefetch_cycles = []
    dma_words = max(matrix.ncols, 1)  # the initial x transfer
    for (r0, r1) in tiles:
        # prefetched words = the tile's buffer footprint minus the
        # y slots (which travel back as the writeback instead)
        words = tile_words(ptr, r0, r1, idx_bytes) - (r1 - r0)
        dma_words += words + (r1 - r0)  # prefetch + y writeback
        prefetch_cycles.append(
            _dma_cycles(words, n_transfers=3,
                        words_per_cycle=dma_words_per_cycle))
        worst = 0
        for w, (w0, w1) in enumerate(worker_shares(r0, r1, n_workers)):
            if w1 == w0:
                continue
            share = csrmv_stats(lengths[w0:w1], variant, index_bits)
            for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                         "fpu_issued_ops", "mem_reads", "mem_writes"):
                setattr(per_core[w], attr,
                        getattr(per_core[w], attr) + getattr(share, attr))
            for name, lane in share.lanes.items():
                agg = per_core[w].lanes.setdefault(name, LaneStats())
                agg.elements_read += lane.elements_read
                agg.mem_reads += lane.mem_reads
                agg.idx_reads += lane.idx_reads
            worst = max(worst, int(share.cycles * conflict)
                        + WORKER_START_STAGGER * w)
        compute_cycles.append(worst)

    # the initial x transfer cannot be overlapped with computation
    total = overlap_schedule_cycles(
        prefetch_cycles, compute_cycles,
        _dma_cycles(max(matrix.ncols, 1),
                    words_per_cycle=dma_words_per_cycle),
        _dma_cycles(tiles[-1][1] - tiles[-1][0],
                    words_per_cycle=dma_words_per_cycle) if tiles else 0)

    stats = ClusterStats(cycles=total)
    for core in per_core:
        core.cycles = total
        stats.per_core.append(core)
        for attr in ("retired", "fpu_compute_ops", "fpu_mac_ops",
                     "fpu_issued_ops", "mem_reads", "mem_writes"):
            setattr(stats, attr, getattr(stats, attr) + getattr(core, attr))
    stats.dma_words = dma_words
    stats.dma_busy_cycles = min(total, math.ceil(dma_words / dma_words_per_cycle))
    stats.tcdm_conflicts = int((conflict - 1.0) * sum(compute_cycles)
                               * max(n_workers, 1))
    stats.icache_misses = 8 * n_workers + 2 * max(len(tiles) - 1, 0)
    return stats
