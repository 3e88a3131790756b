"""Sparse-sparse masked kernels: SpVV and CsrMV over index intersection.

The sparse-sparse scenario class of the *Sparse Stream Semantic
Registers* follow-on (arXiv:2305.05559): both operands are sparse, so
the kernel's work is *index matching* — a two-pointer merge of two
sorted index lists — with one multiply-accumulate per matched pair.

- **masked SpVV** — the sparse-sparse dot product ``sum(a[i] * b[i]
  for i in idcs(a) & idcs(b))``;
- **masked CsrMV** — a CSR matrix times a *sparse* vector with dense
  output: ``y[r] = A.row(r) . x`` via one masked SpVV per row (SpMSpV
  with dense result).

Variants:

- BASE: the merge loop in scalar code — compare, branch three ways
  (advance a / advance b / match), with value loads only on a match;
- SSR: ``A_vals`` streamed affine through ft0 (every merge step that
  advances the a side consumes exactly one value, so the stream stays
  aligned; mismatched values are discarded with an ``fmv.d`` and any
  row remainder is drained by a zero-overhead FREP);
- ISSR: the :class:`~repro.core.intersect.IntersectLane` runs the
  merge in hardware, **twice**: a count pass latches the match count
  (the FREP bound — unknown until the merge finishes), then a stream
  pass feeds exactly the matched value pairs to ft0/ft1 while a single
  FREP'd ``fmadd.d`` accumulates them.

All three variants accumulate the matched products in the same order
(left to right from +0.0), so their results — and the compiled backend's
replay — are bit-identical.

Argument registers (see :mod:`repro.kernels.common` for the shared
conventions): a0=A_vals, a1=A_idcs, a2=SpVV nnz_a / CsrMV A_ptr,
a3=x_vals, a4=&result / y, a5=x_idcs, a6=nnz_x, a7=CsrMV nrows.
"""

import numpy as np

from repro.core import config as cfg
from repro.core.intersect import intersect_indices
from repro.isa.isa import CSR_SSR
from repro.isa.program import ProgramBuilder
from repro.kernels.common import (
    BASE,
    ISSR,
    PROGRAM_CACHE,
    SSR,
    KernelMeta,
    check_index_bits,
    check_variant,
)
from repro.sim.harness import SingleCC

#: Streamer lane configuration each variant's program needs.
LANE_CONFIG = {BASE: "default", SSR: "default", ISSR: "intersect"}


def build_masked_spvv(variant, index_bits=32):
    """Build (and cache) the masked SpVV program for a variant/width."""
    check_variant(variant)
    check_index_bits(index_bits)

    def build():
        builders = {BASE: _build_spvv_base, SSR: _build_spvv_ssr,
                    ISSR: _build_spvv_issr}
        return (builders[variant](index_bits),
                KernelMeta("masked_spvv", variant, index_bits))

    return PROGRAM_CACHE.get_or_build(("masked_spvv", variant, index_bits),
                                      build)


def build_masked_csrmv(variant, index_bits=32):
    """Build (and cache) the masked CsrMV program for a variant/width."""
    check_variant(variant)
    check_index_bits(index_bits)

    def build():
        builders = {BASE: _build_csrmv_base, SSR: _build_csrmv_ssr,
                    ISSR: _build_csrmv_issr}
        return (builders[variant](index_bits),
                KernelMeta("masked_csrmv", variant, index_bits))

    return PROGRAM_CACHE.get_or_build(("masked_csrmv", variant, index_bits),
                                      build)


def _idx_load(b, rd, base, index_bits):
    if index_bits == 16:
        b.lhu(rd, base, 0)
    else:
        b.lw(rd, base, 0)


def _emit_merge_loop(b, index_bits, prefix, ssr_values, out_label):
    """Emit the two-pointer merge loop over one (sub-)fiber pair.

    Expects: a1/a5 = a/b index walk pointers, t5/t6 = their end
    pointers, a3 = b value walk pointer, fa0 = accumulator; for the
    BASE flavor additionally a0 = a value walk pointer. The a-side
    values come from the SSR stream (ft0) when ``ssr_values`` is set.
    Exits to ``out_label`` when either side is exhausted; clobbers
    t0/t1. Callers guarantee both sides are nonempty on entry.
    """
    p = prefix
    ib = index_bits // 8
    _idx_load(b, "t0", "a1", index_bits)
    _idx_load(b, "t1", "a5", index_bits)
    b.label(f"{p}merge")
    b.beq("t0", "t1", f"{p}match")
    b.blt("t0", "t1", f"{p}adv_a")
    b.addi("a5", "a5", ib)          # advance b (head b < head a)
    b.addi("a3", "a3", 8)
    b.beq("a5", "t6", out_label)
    _idx_load(b, "t1", "a5", index_bits)
    b.j(f"{p}merge")
    b.label(f"{p}adv_a")            # advance a, discarding its value
    b.addi("a1", "a1", ib)
    if ssr_values:
        b.fmv_d("ft3", "ft0")       # pop the stream to stay aligned
    else:
        b.addi("a0", "a0", 8)
    b.beq("a1", "t5", out_label)
    _idx_load(b, "t0", "a1", index_bits)
    b.j(f"{p}merge")
    b.label(f"{p}match")
    if ssr_values:
        b.fld("ft4", "a3", 0)
        b.fmadd_d("fa0", "ft0", "ft4", "fa0")
    else:
        b.fld("ft3", "a0", 0)
        b.fld("ft4", "a3", 0)
        b.fmadd_d("fa0", "ft3", "ft4", "fa0")
        b.addi("a0", "a0", 8)
    b.addi("a1", "a1", ib)
    b.addi("a5", "a5", ib)
    b.addi("a3", "a3", 8)
    b.beq("a1", "t5", out_label)
    b.beq("a5", "t6", out_label)
    _idx_load(b, "t0", "a1", index_bits)
    _idx_load(b, "t1", "a5", index_bits)
    b.j(f"{p}merge")


def _build_spvv_base(index_bits):
    ib = index_bits // 8
    shift = ib.bit_length() - 1
    b = ProgramBuilder(f"masked_spvv_base_{index_bits}")
    b.fcvt_d_w("fa0", "zero")
    b.beqz("a2", "store")
    b.beqz("a6", "store")
    b.slli("t5", "a2", shift)
    b.add("t5", "t5", "a1")         # a-side end pointer
    b.slli("t6", "a6", shift)
    b.add("t6", "t6", "a5")         # b-side end pointer
    _emit_merge_loop(b, index_bits, "", ssr_values=False, out_label="store")
    b.label("store")
    b.fsd("fa0", "a4", 0)
    b.halt()
    return b.build()


def _build_spvv_ssr(index_bits):
    ib = index_bits // 8
    shift = ib.bit_length() - 1
    b = ProgramBuilder(f"masked_spvv_ssr_{index_bits}")
    b.fcvt_d_w("fa0", "zero")
    b.beqz("a2", "store")
    b.beqz("a6", "store")
    # SSR lane 0: affine read of the whole A_vals fiber
    b.scfgw("a2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    b.slli("t5", "a2", shift)
    b.add("t5", "t5", "a1")
    b.slli("t6", "a6", shift)
    b.add("t6", "t6", "a5")
    b.csrsi(CSR_SSR, 1)
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))
    _emit_merge_loop(b, index_bits, "", ssr_values=True, out_label="drain")
    b.label("drain")                # consume the unread stream remainder
    b.sub("t3", "t5", "a1")
    b.srli("t3", "t3", shift)
    b.frep("t3", 1)
    b.fmv_d("ft3", "ft0")
    b.csrci(CSR_SSR, 1)
    b.label("store")
    b.fsd("fa0", "a4", 0)
    b.halt()
    return b.build()


def _emit_isect_config(b, index_bits):
    """Program the intersection unit's static (per-call) configuration."""
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_IDX_CFG))
    b.scfgw("a6", cfg.cfg_addr(0, cfg.REG_BOUND_1))      # b element count
    b.scfgw("a5", cfg.cfg_addr(0, cfg.REG_IDX_BASE_B))   # b index base
    b.scfgw("a3", cfg.cfg_addr(0, cfg.REG_DATA_BASE_B))  # b value base


def _emit_isect_row(b, prefix, launch_reg="a1"):
    """Count pass, poll, count read, then a chained stream-pass FREP.

    Expects the unit's bounds/bases already configured and fa0 zeroed;
    leaves the masked dot product in fa0 and the match count in t2.
    """
    p = prefix
    b.scfgw(launch_reg, cfg.cfg_addr(0, cfg.REG_ISECT_CNT))
    b.label(f"{p}poll")
    b.scfgr("t0", cfg.cfg_addr(0, cfg.REG_STATUS))
    b.bnez("t0", f"{p}poll")
    b.scfgr("t2", cfg.cfg_addr(0, cfg.REG_MATCH_COUNT))
    b.beqz("t2", f"{p}done")
    b.scfgw(launch_reg, cfg.cfg_addr(0, cfg.REG_ISECT_STR))
    b.frep("t2", 1)
    b.fmadd_d("fa0", 0, 1, "fa0")   # ft0 * ft1 + fa0, matched pairs
    b.label(f"{p}done")


def _build_spvv_issr(index_bits):
    b = ProgramBuilder(f"masked_spvv_issr_{index_bits}")
    b.fcvt_d_w("fa0", "zero")
    b.beqz("a2", "store")
    b.beqz("a6", "store")
    _emit_isect_config(b, index_bits)
    b.scfgw("a2", cfg.cfg_addr(0, cfg.REG_BOUND_0))      # a element count
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_DATA_BASE))    # a value base
    b.csrsi(CSR_SSR, 1)
    _emit_isect_row(b, "")
    b.csrci(CSR_SSR, 1)
    b.label("store")
    b.fsd("fa0", "a4", 0)
    b.halt()
    return b.build()


def _emit_zero_rows(b, prefix):
    """Store 0.0 (ft11) to every row of y — the empty-x fast path."""
    p = prefix
    b.li("s3", 0)
    b.label(f"{p}zloop")
    b.fsd("ft11", "a4", 0)
    b.addi("a4", "a4", 8)
    b.addi("s3", "s3", 1)
    b.bne("s3", "a7", f"{p}zloop")


def _build_csrmv_base(index_bits):
    ib = index_bits // 8
    shift = ib.bit_length() - 1
    b = ProgramBuilder(f"masked_csrmv_base_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.beqz("a7", "end")
    b.beqz("a6", "zrows")
    b.lw("s7", "a2", 0)             # ptr[first row]
    # virtual bases: s1 + ptr[j]*ib addresses A_idcs[j], s4 + ptr[j]*8
    # addresses A_vals[j] (robust to early merge exits mid-row); the
    # ptr walk lives in s7/s8 because the merge loop clobbers t0/t1
    b.slli("s1", "s7", shift)
    b.sub("s1", "a1", "s1")
    b.slli("s4", "s7", 3)
    b.sub("s4", "a0", "s4")
    b.slli("t6", "a6", shift)
    b.add("t6", "t6", "a5")         # x index end pointer
    b.mv("s5", "a5")                # x index base (rewound per row)
    b.mv("s6", "a3")                # x value base
    b.li("s3", 0)
    b.label("outer")
    b.lw("s8", "a2", 4)             # ptr[i+1]
    b.addi("a2", "a2", 4)
    b.fmv_d("fa0", "ft11")
    b.sub("t2", "s8", "s7")
    b.beqz("t2", "next")
    b.slli("t5", "s8", shift)       # row-end index pointer
    b.add("t5", "t5", "s1")
    b.slli("a1", "s7", shift)       # rewind row walk pointers
    b.add("a1", "a1", "s1")
    b.slli("a0", "s7", 3)
    b.add("a0", "a0", "s4")
    b.mv("a5", "s5")
    b.mv("a3", "s6")
    _emit_merge_loop(b, index_bits, "r", ssr_values=False, out_label="next")
    b.label("next")
    b.fsd("fa0", "a4", 0)
    b.addi("a4", "a4", 8)
    b.mv("s7", "s8")
    b.addi("s3", "s3", 1)
    b.bne("s3", "a7", "outer")
    b.j("end")
    b.label("zrows")
    _emit_zero_rows(b, "")
    b.label("end")
    b.halt()
    return b.build()


def _build_csrmv_ssr(index_bits):
    ib = index_bits // 8
    shift = ib.bit_length() - 1
    b = ProgramBuilder(f"masked_csrmv_ssr_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.beqz("a7", "end")
    b.beqz("a6", "zrows")
    # SSR lane 0: the whole A_vals fiber in one stream job (s2 = nnz,
    # derived from the ptr ends; every a-side merge step consumes one)
    b.lw("s7", "a2", 0)             # ptr[first row]
    b.slli("t3", "a7", 2)
    b.add("t3", "t3", "a2")
    b.lw("t3", "t3", 0)             # ptr[nrows]
    b.sub("s2", "t3", "s7")         # total nnz in the tile
    b.slli("s1", "s7", shift)
    b.sub("s1", "a1", "s1")
    b.slli("t6", "a6", shift)
    b.add("t6", "t6", "a5")
    b.mv("s5", "a5")
    b.mv("s6", "a3")
    b.li("s3", 0)
    b.csrsi(CSR_SSR, 1)
    b.beqz("s2", "rows")
    b.scfgw("s2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))
    b.label("rows")
    b.label("outer")
    b.lw("s8", "a2", 4)
    b.addi("a2", "a2", 4)
    b.fmv_d("fa0", "ft11")
    b.sub("t2", "s8", "s7")
    b.beqz("t2", "next")
    b.slli("t5", "s8", shift)
    b.add("t5", "t5", "s1")
    b.slli("a1", "s7", shift)
    b.add("a1", "a1", "s1")
    b.mv("a5", "s5")
    b.mv("a3", "s6")
    _emit_merge_loop(b, index_bits, "r", ssr_values=True, out_label="drain")
    b.label("drain")                # drain this row's stream remainder
    b.sub("t3", "t5", "a1")
    b.srli("t3", "t3", shift)
    b.frep("t3", 1)
    b.fmv_d("ft3", "ft0")
    b.label("next")
    b.fsd("fa0", "a4", 0)
    b.addi("a4", "a4", 8)
    b.mv("s7", "s8")
    b.addi("s3", "s3", 1)
    b.bne("s3", "a7", "outer")
    b.csrci(CSR_SSR, 1)
    b.j("end")
    b.label("zrows")
    _emit_zero_rows(b, "")
    b.label("end")
    b.halt()
    return b.build()


def _build_csrmv_issr(index_bits):
    ib = index_bits // 8
    shift = ib.bit_length() - 1
    b = ProgramBuilder(f"masked_csrmv_issr_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.beqz("a7", "end")
    b.beqz("a6", "zrows")
    _emit_isect_config(b, index_bits)
    b.lw("s7", "a2", 0)             # ptr walk (t0/t2 are clobbered below)
    b.slli("s1", "s7", shift)       # virtual index base (see BASE)
    b.sub("s1", "a1", "s1")
    b.slli("s4", "s7", 3)           # virtual value base
    b.sub("s4", "a0", "s4")
    b.li("s3", 0)
    b.csrsi(CSR_SSR, 1)
    b.label("outer")
    b.lw("s8", "a2", 4)
    b.addi("a2", "a2", 4)
    b.fmv_d("fa0", "ft11")
    b.sub("t2", "s8", "s7")
    b.beqz("t2", "next")
    b.scfgw("t2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.slli("t3", "s7", 3)           # row value base
    b.add("t3", "t3", "s4")
    b.scfgw("t3", cfg.cfg_addr(0, cfg.REG_DATA_BASE))
    b.slli("s2", "s7", shift)       # row index base (the launch value)
    b.add("s2", "s2", "s1")
    _emit_isect_row(b, "r", launch_reg="s2")
    b.label("next")
    b.fsd("fa0", "a4", 0)
    b.addi("a4", "a4", 8)
    b.mv("s7", "s8")
    b.addi("s3", "s3", 1)
    b.bne("s3", "a7", "outer")
    b.csrci(CSR_SSR, 1)
    b.j("end")
    b.label("zrows")
    _emit_zero_rows(b, "")
    b.label("end")
    b.halt()
    return b.build()


def masked_spvv_reference(fiber_a, fiber_b):
    """NumPy reference for the masked dot (merge order, fused dot)."""
    pa, pb = intersect_indices(np.asarray(fiber_a.indices),
                               np.asarray(fiber_b.indices))
    return float(np.dot(fiber_a.values[pa], fiber_b.values[pb]))


def run_masked_spvv(fiber_a, fiber_b, variant, index_bits=32, sim=None,
                    check=True):
    """Execute a masked SpVV kernel on one CC; returns (stats, result).

    Both operands are :class:`~repro.formats.fiber.SparseFiber`; the
    ISSR variant needs a ``lane_config="intersect"`` harness (built
    automatically when ``sim`` is None).
    """
    program, meta = build_masked_spvv(variant, index_bits)
    if sim is None:
        sim = SingleCC(lane_config=LANE_CONFIG[variant])
    a_vals = sim.alloc_floats(fiber_a.values, name="A_vals")
    a_idcs = sim.alloc_indices(fiber_a.indices, index_bits, name="A_idcs")
    b_vals = sim.alloc_floats(fiber_b.values, name="x_vals")
    b_idcs = sim.alloc_indices(fiber_b.indices, index_bits, name="x_idcs")
    res = sim.alloc_zeros(1, name="result")
    stats, _ = sim.run(program, args={
        "a0": a_vals, "a1": a_idcs, "a2": fiber_a.nnz,
        "a3": b_vals, "a4": res, "a5": b_idcs, "a6": fiber_b.nnz,
    })
    result = sim.read_floats(res, 1)[0]
    if check:
        expect = masked_spvv_reference(fiber_a, fiber_b)
        if not np.isclose(result, expect, rtol=1e-9, atol=1e-9):
            raise AssertionError(
                f"masked SpVV {variant}/{index_bits} mismatch: "
                f"got {result}, want {expect}")
    return stats, result


def run_masked_csrmv(matrix, x_fiber, variant, index_bits=32, sim=None,
                     check=True):
    """Execute a masked CsrMV kernel on one CC; returns (stats, y).

    ``matrix`` is a :class:`~repro.formats.csr.CsrMatrix`, ``x_fiber``
    a :class:`~repro.formats.fiber.SparseFiber` over the columns; the
    result is the dense ``y = A @ densify(x)`` of length ``nrows``.
    """
    program, meta = build_masked_csrmv(variant, index_bits)
    if sim is None:
        sim = SingleCC(lane_config=LANE_CONFIG[variant])
    a_vals = sim.alloc_floats(matrix.vals, name="A_vals")
    a_idcs = sim.alloc_indices(matrix.idcs, index_bits, name="A_idcs")
    ptr = sim.alloc_indices(matrix.ptr, 32, name="A_ptr")
    x_vals = sim.alloc_floats(x_fiber.values, name="x_vals")
    x_idcs = sim.alloc_indices(x_fiber.indices, index_bits, name="x_idcs")
    y = sim.alloc_zeros(max(matrix.nrows, 1), name="y")
    stats, _ = sim.run(program, args={
        "a0": a_vals, "a1": a_idcs, "a2": ptr, "a3": x_vals, "a4": y,
        "a5": x_idcs, "a6": x_fiber.nnz, "a7": matrix.nrows,
    })
    out = np.array(sim.read_floats(y, matrix.nrows))
    if check:
        dense_x = np.zeros(matrix.ncols, dtype=np.float64)
        dense_x[np.asarray(x_fiber.indices, dtype=np.int64)] = x_fiber.values
        expect = matrix.spmv(dense_x)
        if not np.allclose(out, expect, rtol=1e-9, atol=1e-9):
            raise AssertionError(
                f"masked CsrMV {variant}/{index_bits} mismatch (max err "
                f"{np.abs(out - expect).max()})")
    return stats, out
