"""Sparse-dense dot product (SpVV) kernels: BASE / SSR / ISSR.

The paper's §I example and §III-B Listing 1. The BASE variant is the
nine-instruction hand-optimized indirection loop; SSR streams the
sparse values (seven instructions); ISSR streams both operands and
reduces the loop body to a single FREP'd ``fmadd.d``.

Programs are parameter-free (all operands in argument registers), so
each (variant, index width) pair is built once and cached.

Arguments: a0=A_vals, a1=A_idcs, a2=nnz, a3=x, a4=&result.
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
    emit_zero_accumulators,
)
from repro.sim.harness import SingleCC


def build_spvv(variant, index_bits=32):
    """Build (and cache) the SpVV program for a variant/index width."""
    check_variant(variant)
    check_index_bits(index_bits)

    def build():
        if variant == BASE:
            return _build_base(index_bits), KernelMeta("spvv", BASE, index_bits)
        if variant == SSR:
            return _build_ssr(index_bits), KernelMeta("spvv", SSR, index_bits)
        n_acc = N_ACCUMULATORS[index_bits]
        return (_build_issr(index_bits, n_acc),
                KernelMeta("spvv", ISSR, index_bits, n_acc))

    return PROGRAM_CACHE.get_or_build(("spvv", variant, index_bits), build)


def _idx_load(builder, rd, base, index_bits):
    if index_bits == 16:
        builder.lhu(rd, base, 0)
    else:
        builder.lw(rd, base, 0)


def _build_base(index_bits):
    """The paper's §I nine-instruction loop, scheduled stall-free."""
    idx_bytes = index_bits // 8
    b = ProgramBuilder(f"spvv_base_{index_bits}")
    b.fcvt_d_w("fa0", "zero")                 # accumulator
    b.beqz("a2", "done")
    # idcs end pointer: t6 = a1 + nnz * idx_bytes
    b.slli("t6", "a2", idx_bytes.bit_length() - 1)
    b.add("t6", "t6", "a1")
    b.label("loop")
    _idx_load(b, "t0", "a1", index_bits)      # index           (c+0)
    b.fld("ft0", "a0", 0)                     # A_vals[j]       (c+1)
    b.addi("a1", "a1", idx_bytes)             #                 (c+2)
    b.slli("t0", "t0", 3)                     # t0 ready at c+2 (c+3)
    b.add("t0", "t0", "a3")                   #                 (c+4)
    b.fld("ft1", "t0", 0)                     # x[A_idcs[j]]    (c+5)
    b.addi("a0", "a0", 8)                     #                 (c+6)
    b.fmadd_d("fa0", "ft0", "ft1", "fa0")     #                 (c+7)
    b.bne("a1", "t6", "loop")                 #                 (c+8)
    b.label("done")
    b.fsd("fa0", "a4", 0)
    b.halt()
    return b.build()


def _build_ssr(index_bits):
    """SSR variant: values streamed through ft0 (seven instructions)."""
    idx_bytes = index_bits // 8
    b = ProgramBuilder(f"spvv_ssr_{index_bits}")
    b.fcvt_d_w("fa0", "zero")
    # SSR lane 0: 1-D read of A_vals, bound = nnz, stride = 8
    b.scfgw("a2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    b.beqz("a2", "done")
    b.slli("t6", "a2", idx_bytes.bit_length() - 1)
    b.add("t6", "t6", "a1")
    b.csrsi(CSR_SSR, 1)
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))  # launch value stream
    b.label("loop")
    _idx_load(b, "t0", "a1", index_bits)      # (c+0)
    b.addi("a1", "a1", idx_bytes)             # (c+1)
    b.slli("t0", "t0", 3)                     # (c+2)
    b.add("t0", "t0", "a3")                   # (c+3)
    b.fld("ft3", "t0", 0)                     # (c+4) ft1 is stream-mapped
    b.fmadd_d("fa0", "ft0", "ft3", "fa0")     # (c+5) ft0 = SSR stream
    b.bne("a1", "t6", "loop")                 # (c+6)
    b.csrci(CSR_SSR, 1)
    b.label("done")
    b.fsd("fa0", "a4", 0)
    b.halt()
    return b.build()


def _build_issr(index_bits, n_acc):
    """ISSR variant (Listing 1): single FREP'd fmadd, staggered."""
    b = ProgramBuilder(f"spvv_issr_{index_bits}")
    # SSR lane 0 over A_vals
    b.scfgw("a2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    # ISSR lane 1 over x at A_idcs
    b.scfgw("a2", cfg.cfg_addr(1, cfg.REG_BOUND_0))
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.scfgw("t1", cfg.cfg_addr(1, cfg.REG_IDX_CFG))
    b.scfgw("a3", cfg.cfg_addr(1, cfg.REG_DATA_BASE))
    emit_zero_accumulators(b, ACC_BASE, n_acc)
    b.beqz("a2", "empty")
    b.csrsi(CSR_SSR, 1)                      # redirect ft0, ft1 to SSRs
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))   # launch value stream
    b.scfgw("a1", cfg.cfg_addr(1, cfg.REG_IRPTR))    # launch indirection
    b.frep("a2", 1, n_acc, STAGGER_RD_RS3)   # stagger accumulator n-fold
    b.fmadd_d(ACC_BASE, 0, 1, ACC_BASE)      # ft_acc += ft0 * ft1
    b.csrci(CSR_SSR, 1)
    b.label("empty")
    emit_tree_reduction(b, ACC_BASE, n_acc)
    b.fsd(ACC_BASE, "a4", 0)
    b.halt()
    return b.build()


def run_spvv(fiber, x, variant, index_bits=32, sim=None, check=True):
    """Execute an SpVV kernel on a single CC; returns (stats, result).

    ``fiber`` is a :class:`~repro.formats.fiber.SparseFiber`; ``x`` the
    dense operand (len >= fiber.dim). The result is validated against
    the NumPy reference when ``check`` is set.
    """
    program, meta = build_spvv(variant, index_bits)
    if sim is None:
        sim = SingleCC()
    vals = sim.alloc_floats(fiber.values, name="A_vals")
    idcs = sim.alloc_indices(fiber.indices, index_bits, name="A_idcs")
    xbase = sim.alloc_floats(x, name="x")
    res = sim.alloc_zeros(1, name="result")
    stats, _ = sim.run(program, args={
        "a0": vals, "a1": idcs, "a2": fiber.nnz, "a3": xbase, "a4": res,
    })
    result = sim.read_floats(res, 1)[0]
    if check:
        expect = fiber.dot_dense(np.asarray(x, dtype=np.float64))
        check_reference(result, expect, f"SpVV {variant}/{index_bits}")
    return stats, result
