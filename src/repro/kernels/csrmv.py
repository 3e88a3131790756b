"""CSR matrix-vector product (CsrMV) kernels: BASE / SSR / ISSR.

§III-B: the ISSR kernel streams "the entire matrix fiber in single SSR
and ISSR jobs, significantly reducing setup overhead" and unrolls "the
first few fmadd in each row with branches to shorter reductions for
rows with few elements, issuing an FREP loop and a full reduction only
when necessary".

Row-loop structure of the ISSR variant, per row:

- empty row       -> store 0.0;
- nnz < N_ACC     -> chained multiply-accumulate (short reduction);
- nnz >= N_ACC    -> N_ACC unrolled ``fmul.d`` initialize the
  accumulators with the first products (no zeroing needed), an FREP'd
  staggered ``fmadd.d`` covers the remainder, then a tree reduction.

Arguments: a0=A_vals, a1=A_idcs, a2=A_ptr (32-bit), a3=x, a4=y,
a5=nrows, a7=total nnz (stream job bound).
"""

import numpy as np

from repro.core import config as cfg
from repro.isa.isa import CSR_SSR
from repro.isa.program import ProgramBuilder
from repro.kernels.common import (
    ACC_BASE,
    BASE,
    ISSR,
    N_ACCUMULATORS,
    PROGRAM_CACHE,
    SSR,
    STAGGER_RD_RS3,
    KernelMeta,
    check_index_bits,
    check_reference,
    check_variant,
    emit_tree_reduction,
)
from repro.sim.harness import SingleCC


def build_csrmv(variant, index_bits=32):
    """Build (and cache) the CsrMV program for a variant/index width."""
    check_variant(variant)
    check_index_bits(index_bits)

    def build():
        if variant == BASE:
            return _build_base(index_bits), KernelMeta("csrmv", BASE, index_bits)
        if variant == SSR:
            return _build_ssr(index_bits), KernelMeta("csrmv", SSR, index_bits)
        n_acc = N_ACCUMULATORS[index_bits]
        return (_build_issr(index_bits, n_acc),
                KernelMeta("csrmv", ISSR, index_bits, n_acc))

    return PROGRAM_CACHE.get_or_build(("csrmv", variant, index_bits), build)


def _idx_load(builder, rd, base, index_bits):
    if index_bits == 16:
        builder.lhu(rd, base, 0)
    else:
        builder.lw(rd, base, 0)


def _emit_base_inner(b, index_bits, acc="fa0", x_base="a3"):
    """The nine-instruction BASE indirection loop over one row.

    Expects a1 = current index pointer, a0 = current value pointer,
    t6 = row-end index pointer. Clobbers t0.
    """
    idx_bytes = index_bits // 8
    b.label("inner")
    _idx_load(b, "t0", "a1", index_bits)
    b.fld("ft0", "a0", 0)
    b.addi("a1", "a1", idx_bytes)
    b.slli("t0", "t0", 3)
    b.add("t0", "t0", x_base)
    b.fld("ft1", "t0", 0)
    b.addi("a0", "a0", 8)
    b.fmadd_d(acc, "ft0", "ft1", acc)
    b.bne("a1", "t6", "inner")


def _build_base(index_bits):
    idx_bytes = index_bits // 8
    shift = idx_bytes.bit_length() - 1
    b = ProgramBuilder(f"csrmv_base_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.beqz("a5", "end")         # zero-row matrix: nothing to do
    b.lw("t0", "a2", 0)         # ptr[first row] (not 0 for tile shares)
    b.li("s3", 0)               # row counter
    # virtual index base: s1 + ptr[j]*idx_bytes addresses A_idcs[j]
    b.slli("s1", "t0", shift)
    b.sub("s1", "a1", "s1")
    b.label("outer")
    b.lw("t1", "a2", 4)         # ptr[i+1]
    b.addi("a2", "a2", 4)
    b.fmv_d("fa0", "ft11")       # zero the row accumulator
    b.sub("t2", "t1", "t0")
    b.beqz("t2", "store")
    b.slli("t6", "t1", shift)   # row-end index pointer
    b.add("t6", "t6", "s1")
    _emit_base_inner(b, index_bits)
    b.label("store")
    b.fsd("fa0", "a4", 0)
    b.addi("a4", "a4", 8)
    b.mv("t0", "t1")
    b.addi("s3", "s3", 1)
    b.bne("s3", "a5", "outer")
    b.label("end")
    b.halt()
    return b.build()


def _build_ssr(index_bits):
    """SSR variant: A_vals streamed whole-fiber through ft0."""
    idx_bytes = index_bits // 8
    shift = idx_bytes.bit_length() - 1
    b = ProgramBuilder(f"csrmv_ssr_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.scfgw("a7", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    b.beqz("a5", "end")         # zero-row matrix: nothing to do
    b.lw("t0", "a2", 0)         # ptr[first row] (not 0 for tile shares)
    b.li("s3", 0)
    b.slli("s1", "t0", shift)   # virtual index base (see BASE variant)
    b.sub("s1", "a1", "s1")
    b.csrsi(CSR_SSR, 1)
    b.beqz("a7", "rows")        # empty matrix: no stream job
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))
    b.label("rows")
    b.label("outer")
    b.lw("t1", "a2", 4)
    b.addi("a2", "a2", 4)
    b.fmv_d("fa0", "ft11")
    b.sub("t2", "t1", "t0")
    b.beqz("t2", "store")
    b.slli("t6", "t1", shift)
    b.add("t6", "t6", "s1")
    b.label("inner")
    _idx_load(b, "t0", "a1", index_bits)
    b.addi("a1", "a1", idx_bytes)
    b.slli("t0", "t0", 3)
    b.add("t0", "t0", "a3")
    b.fld("ft3", "t0", 0)
    b.fmadd_d("fa0", "ft0", "ft3", "fa0")
    b.bne("a1", "t6", "inner")
    b.label("store")
    b.fsd("fa0", "a4", 0)
    b.addi("a4", "a4", 8)
    b.mv("t0", "t1")
    b.addi("s3", "s3", 1)
    b.bne("s3", "a5", "outer")
    b.csrci(CSR_SSR, 1)
    b.label("end")
    b.halt()
    return b.build()


def emit_issr_row_loop(b, n_acc, prefix="", y_advance=None):
    """Emit the ISSR per-row loop (shared with the CsrMM kernel).

    Expects: a2 = ptr walk pointer, a4 = y pointer, a5 = nrows,
    s2 = n_acc, ft11 = 0.0, t0 = ptr[first row], s3 = 0; streams
    already launched and redirection enabled. ``y_advance`` emits the
    result pointer increment (defaults to ``addi a4, a4, 8``).
    """
    p = prefix
    b.label(f"{p}outer")
    b.lw("t1", "a2", 4)
    b.addi("a2", "a2", 4)
    b.sub("t2", "t1", "t0")
    b.mv("t0", "t1")
    b.beqz("t2", f"{p}zero")
    b.blt("t2", "s2", f"{p}short")
    # long row: unrolled products initialize the accumulators
    for k in range(n_acc):
        b.fmul_d(ACC_BASE + k, 0, 1)
    b.addi("t3", "t2", -n_acc)
    b.frep("t3", 1, n_acc, STAGGER_RD_RS3)
    b.fmadd_d(ACC_BASE, 0, 1, ACC_BASE)
    emit_tree_reduction(b, ACC_BASE, n_acc)
    b.fsd(ACC_BASE, "a4", 0)
    b.j(f"{p}next")
    b.label(f"{p}short")          # 1 <= nnz < n_acc: chained MAC
    b.fmul_d("fa0", 0, 1)
    b.addi("t2", "t2", -1)
    b.beqz("t2", f"{p}sstore")
    b.label(f"{p}sloop")
    b.fmadd_d("fa0", 0, 1, "fa0")
    b.addi("t2", "t2", -1)
    b.bnez("t2", f"{p}sloop")
    b.label(f"{p}sstore")
    b.fsd("fa0", "a4", 0)
    b.j(f"{p}next")
    b.label(f"{p}zero")
    b.fsd("ft11", "a4", 0)
    b.label(f"{p}next")
    if y_advance is None:
        b.addi("a4", "a4", 8)
    else:
        y_advance(b)
    b.addi("s3", "s3", 1)
    b.bne("s3", "a5", f"{p}outer")


def _build_issr(index_bits, n_acc):
    b = ProgramBuilder(f"csrmv_issr_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    # lane 0 (SSR) whole-fiber job over A_vals
    b.scfgw("a7", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    # lane 1 (ISSR) whole-fiber indirection into x
    b.scfgw("a7", cfg.cfg_addr(1, cfg.REG_BOUND_0))
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.scfgw("t1", cfg.cfg_addr(1, cfg.REG_IDX_CFG))
    b.scfgw("a3", cfg.cfg_addr(1, cfg.REG_DATA_BASE))
    b.li("s2", n_acc)
    b.beqz("a5", "end")         # zero-row matrix: nothing to do
    b.lw("t0", "a2", 0)
    b.li("s3", 0)
    b.csrsi(CSR_SSR, 1)
    b.beqz("a7", "rows")        # empty matrix: no stream jobs
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))
    b.scfgw("a1", cfg.cfg_addr(1, cfg.REG_IRPTR))
    b.label("rows")
    emit_issr_row_loop(b, n_acc)
    b.csrci(CSR_SSR, 1)
    b.label("end")
    b.halt()
    return b.build()


def place_csr(sim, matrix, index_bits, x=None):
    """Allocate a CSR matrix (+ optional dense vector) in sim memory.

    Returns a dict of base addresses: vals, idcs, ptr, x (or None), y.
    """
    vals = sim.alloc_floats(matrix.vals, name="A_vals")
    idcs = sim.alloc_indices(matrix.idcs, index_bits, name="A_idcs")
    ptr = sim.alloc_indices(matrix.ptr, 32, name="A_ptr")
    xbase = None if x is None else sim.alloc_floats(x, name="x")
    y = sim.alloc_zeros(max(matrix.nrows, 1), name="y")
    return {"vals": vals, "idcs": idcs, "ptr": ptr, "x": xbase, "y": y}


def run_csrmv(matrix, x, variant, index_bits=32, sim=None, check=True):
    """Execute a CsrMV kernel on a single CC; returns (stats, y)."""
    program, meta = build_csrmv(variant, index_bits)
    if sim is None:
        sim = SingleCC()
    mem = place_csr(sim, matrix, index_bits, x=x)
    stats, _ = sim.run(program, args={
        "a0": mem["vals"], "a1": mem["idcs"], "a2": mem["ptr"],
        "a3": mem["x"], "a4": mem["y"], "a5": matrix.nrows,
        "a7": matrix.nnz,
    })
    y = np.array(sim.read_floats(mem["y"], matrix.nrows))
    if check:
        expect = matrix.spmv(np.asarray(x, dtype=np.float64))
        check_reference(y, expect, f"CsrMV {variant}/{index_bits}")
    return stats, y
