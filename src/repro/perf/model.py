"""Closed-form performance model, cross-validated against the simulator.

The paper's §I/§IV arithmetic in executable form: steady-state rates
per kernel variant plus per-row/area overheads. Used (a) as a test
oracle for the cycle simulator — the two must agree within a small
tolerance on large inputs — and (b) for fast parameter sweeps where
cycle simulation would be wasteful.

The steady-state rates are *not* free parameters of this module: they
are the one timing contract shared with the analytic backend —
:data:`repro.backends.model.ISSUE_RATE` — and the FPU dependency
latency comes from the simulated FPU itself
(:data:`repro.isa.isa.FPU_LATENCY`), so the closed forms here, the
compiled backend's cycle predictions, and the cycle-stepped simulator can
never drift apart silently.
"""

from dataclasses import dataclass

from repro.backends.model import ISSUE_RATE
from repro.isa.isa import FPU_LATENCY
from repro.kernels.common import BASE, ISSR, N_ACCUMULATORS, SSR, check_variant

#: Inner-loop cycles per nonzero (paper §I / §III-B) — the shared
#: steady-state issue rates of the scalar variants.
CYCLES_PER_NNZ = {BASE: ISSUE_RATE[(BASE, 32)], SSR: ISSUE_RATE[(SSR, 32)]}

#: ISSR steady-state data rate: port cycles per element.
ISSR_CYCLES_PER_NNZ = {bits: ISSUE_RATE[(ISSR, bits)]
                       for bits in (16, 32)}

#: Fixed overheads measured from the simulator (setup + halt).
SPVV_SETUP = {BASE: 8, SSR: 14, ISSR: 22}


def reduction_cycles(n_acc):
    """Balanced-tree reduction latency over ``n_acc`` accumulators."""
    levels = max((n_acc - 1).bit_length(), 0)
    return levels * FPU_LATENCY + n_acc // 2


@dataclass
class Prediction:
    cycles: float
    utilization: float


def predict_spvv(nnz, variant, index_bits=32):
    """Predicted single-CC SpVV cycles and FPU utilization."""
    check_variant(variant)
    if variant in (BASE, SSR):
        cycles = CYCLES_PER_NNZ[variant] * nnz + SPVV_SETUP[variant]
        return Prediction(cycles, nnz / cycles if cycles else 0.0)
    n_acc = N_ACCUMULATORS[index_bits]
    cycles = (ISSR_CYCLES_PER_NNZ[index_bits] * nnz + SPVV_SETUP[ISSR]
              + reduction_cycles(n_acc))
    ops = nnz + (n_acc - 1)  # MACs plus reduction adds
    return Prediction(cycles, ops / cycles if cycles else 0.0)


#: Per-row overheads for CsrMV (outer loop work not hidden by FP work).
CSRMV_ROW_OVERHEAD = {BASE: 11.0, SSR: 11.0, ISSR: 3.0}
#: ISSR per-row FP tail: reduction + store not overlapped with streaming.
ISSR_ROW_TAIL = {16: 14.0, 32: 10.0}


def predict_csrmv(nrows, nnz, variant, index_bits=32):
    """Predicted single-CC CsrMV cycles (large-row regime)."""
    check_variant(variant)
    if variant in (BASE, SSR):
        cycles = (CYCLES_PER_NNZ[variant] * nnz
                  + CSRMV_ROW_OVERHEAD[variant] * nrows + 20)
        return Prediction(cycles, nnz / cycles if cycles else 0.0)
    n_acc = N_ACCUMULATORS[index_bits]
    nnz_per_row = nnz / nrows if nrows else 0.0
    if nnz_per_row >= n_acc:
        # streaming hides the integer row overhead, but the reduction
        # tail is serial in the FPU and is paid every row
        per_row = max(ISSR_CYCLES_PER_NNZ[index_bits] * nnz_per_row,
                      CSRMV_ROW_OVERHEAD[ISSR]) + ISSR_ROW_TAIL[index_bits]
    else:
        # short rows: chained MACs at FPU latency
        per_row = CSRMV_ROW_OVERHEAD[ISSR] + FPU_LATENCY * max(nnz_per_row, 1)
    cycles = per_row * nrows + 30
    return Prediction(cycles, nnz / cycles if cycles else 0.0)


def predict_speedup(nrows, nnz, variant, index_bits=32):
    """Predicted CsrMV speedup over BASE (the paper's Fig. 4b y-axis)."""
    base = predict_csrmv(nrows, nnz, BASE)
    other = predict_csrmv(nrows, nnz, variant, index_bits)
    return base.cycles / other.cycles


#: Cluster modelling: DMA streams 8 words/cycle; 16-bit matrices need
#: 1.25 words per nonzero; bank conflicts cap the per-core data rate.
CLUSTER_CONFLICT_UTILIZATION = {16: 0.66, 32: 0.58}
N_CLUSTER_CORES = 8


def predict_cluster_csrmv(nrows, nnz, ncols, variant, index_bits=16):
    """Predicted cluster CsrMV cycles (steady-state, balanced rows)."""
    check_variant(variant)
    x_transfer = ncols / 8.0
    words = nnz * (1 + index_bits / 64.0) + nrows / 2.0
    dma = words / 8.0
    if variant in (BASE, SSR):
        compute = (CYCLES_PER_NNZ[variant] * nnz
                   + CSRMV_ROW_OVERHEAD[variant] * nrows) / N_CLUSTER_CORES
    else:
        util = CLUSTER_CONFLICT_UTILIZATION[index_bits]
        compute = nnz / (util * N_CLUSTER_CORES) \
            + CSRMV_ROW_OVERHEAD[ISSR] * nrows / N_CLUSTER_CORES
    cycles = x_transfer + max(compute, dma) + 100
    return Prediction(cycles, nnz / (cycles * N_CLUSTER_CORES))
