"""Row-wise CSR x CSR SpGEMM: Gustavson with a dense TCDM accumulator.

The sparse-sparse matrix product ``C = A @ B`` (SparseZipper's headline
workload, arXiv:2502.11353) in the classic two-phase form:

- the **symbolic** phase runs host-side
  (:func:`repro.formats.builder.spgemm_pattern`): C's exact column
  pattern per row, plus the row-capacity allocation of the output (the
  sparse-output memory layout of :class:`~repro.formats.CsrBuilder`);
- the **numeric** phase is the accelerated kernel built here. Per
  output row i (Gustavson's ordering):

  1. *zero* the dense accumulator at the row's pattern positions
     (touched positions only — never the full ``ncols``);
  2. *accumulate*: for each ``a_ik`` in A's row, walk B's row k and
     ``acc[j] += a_ik * b_kj``;
  3. *gather* the accumulator back through the pattern into C's
     value array.

Variants:

- BASE: all three steps in scalar code (the nine-ish instruction
  indirection idiom of §I applied to a read-modify-write);
- SSR: B's row values streamed affine through ft0 in the accumulate
  loop (one stream job per (i, k) pair);
- ISSR: runs on the ``dual_issr`` core complex — the SSR lane streams
  ``b_vals`` (ft0) while one ISSR lane gathers ``acc[j]`` (ft1) and a
  second ISSR lane scatters the updated values back (ft2), so the
  whole accumulate body is a single FREP'd ``fmadd.d ft2, fa0, ft0,
  ft1``. ``fence_fpu`` separates dependent phases (the scatter of B
  row k must land before the gather of row k+1 may alias it).

All variants apply products in the same (k-major, then B-row) order,
so results are bit-identical across variants and to the compiled backend's
replay.

Argument registers: a0=A_vals, a1=A_idcs, a2=A_ptr, a3=B_vals,
a4=B_idcs, a5=B_ptr, a6=C_idcs (pattern), a7=C_ptr, s0=C_vals,
s1=accumulator base (>= B.ncols doubles), s2=nrows.
"""

import numpy as np

from repro.core import config as cfg
from repro.formats.builder import spgemm_pairs, spgemm_pattern
from repro.formats.csr import CsrMatrix
from repro.isa.isa import CSR_SSR
from repro.isa.program import ProgramBuilder
from repro.kernels.common import (
    BASE,
    ISSR,
    PROGRAM_CACHE,
    SSR,
    KernelMeta,
    check_index_bits,
    check_reference,
    check_variant,
)
from repro.sim.harness import SingleCC

#: Streamer lane configuration each variant's program needs.
LANE_CONFIG = {BASE: "default", SSR: "default", ISSR: "dual_issr"}


def build_spgemm(variant, index_bits=32):
    """Build (and cache) the SpGEMM numeric program for a variant."""
    check_variant(variant)
    check_index_bits(index_bits)

    def build():
        builders = {BASE: _build_base, SSR: _build_ssr, ISSR: _build_issr}
        return (builders[variant](index_bits),
                KernelMeta("spgemm", variant, index_bits))

    return PROGRAM_CACHE.get_or_build(("spgemm", variant, index_bits), build)


def _idx_load(b, rd, base, index_bits, offset=0):
    if index_bits == 16:
        b.lhu(rd, base, offset)
    else:
        b.lw(rd, base, offset)


def _emit_row_prologue(b, index_bits):
    """Walk A_ptr/C_ptr one row: row lengths and end pointers.

    Leaves: t2 = pattern length, s6 = a-row end byte pointer (on
    A_idcs), s5 = A_ptr[i+1]; branches to ``skip`` when the pattern is
    empty (then every selected B row is empty too, so the row only
    needs its A-walk pointers advanced).
    """
    shift = (index_bits // 8).bit_length() - 1
    b.lw("s8", "a7", 4)             # C_ptr[i+1]
    b.addi("a7", "a7", 4)
    b.sub("t2", "s8", "s7")         # pattern length
    b.lw("t0", "a2", 4)             # A_ptr[i+1]
    b.addi("a2", "a2", 4)
    b.sub("t3", "t0", "s5")         # A-row length
    b.mv("s5", "t0")
    b.slli("s6", "t3", shift)       # a-row end (index byte pointer)
    b.add("s6", "s6", "a1")
    b.beqz("t2", "skip")


def _emit_row_epilogue(b, index_bits):
    """Advance the C walk state and loop; includes the skip path."""
    shift = (index_bits // 8).bit_length() - 1
    b.label("next")
    b.mv("s7", "s8")
    b.addi("s3", "s3", 1)
    b.bne("s3", "s2", "outer")
    b.j("end")
    b.label("skip")                 # empty pattern: step over the A row
    b.sub("t3", "s6", "a1")
    if shift < 3:                   # value walk advances 8 bytes/elem
        b.slli("t3", "t3", 3 - shift)
    b.add("a0", "a0", "t3")
    b.mv("a1", "s6")
    b.j("next")


def _build_base(index_bits):
    ib = index_bits // 8
    shift = ib.bit_length() - 1
    b = ProgramBuilder(f"spgemm_base_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.beqz("s2", "end")
    b.lw("s5", "a2", 0)             # A_ptr[0]
    b.lw("s7", "a7", 0)             # C_ptr[0]
    b.li("s3", 0)                   # row counter
    b.label("outer")
    _emit_row_prologue(b, index_bits)
    # -- zero phase: acc[pattern] = 0 ------------------------------------
    b.slli("t5", "t2", shift)
    b.add("t5", "t5", "s9")         # pattern end (C_idcs byte pointer)
    b.mv("t4", "s9")
    b.label("zloop")
    _idx_load(b, "t0", "t4", index_bits)
    b.slli("t0", "t0", 3)
    b.add("t0", "t0", "s1")
    b.fsd("ft11", "t0", 0)
    b.addi("t4", "t4", ib)
    b.bne("t4", "t5", "zloop")
    # -- accumulate phase: for each a_ik, walk B row k -------------------
    b.beq("a1", "s6", "gather")     # empty A row
    b.label("aloop")
    _idx_load(b, "t0", "a1", index_bits)
    b.fld("fa0", "a0", 0)           # a_ik
    b.addi("a1", "a1", ib)
    b.addi("a0", "a0", 8)
    b.slli("t1", "t0", 2)
    b.add("t1", "t1", "a5")
    b.lw("t4", "t1", 0)             # B_ptr[k]
    b.lw("t5", "t1", 4)             # B_ptr[k+1]
    b.sub("t6", "t5", "t4")
    b.beqz("t6", "anext")           # empty B row
    b.slli("t1", "t4", shift)
    b.add("t1", "t1", "a4")         # B_idcs walk
    b.slli("t3", "t4", 3)
    b.add("t3", "t3", "a3")         # B_vals walk
    b.slli("t5", "t5", shift)
    b.add("t5", "t5", "a4")         # B_idcs row end
    b.label("bloop")
    _idx_load(b, "t0", "t1", index_bits)
    b.fld("ft3", "t3", 0)           # b_kj
    b.slli("t0", "t0", 3)
    b.add("t0", "t0", "s1")
    b.fld("ft4", "t0", 0)           # acc[j]
    b.fmadd_d("ft5", "fa0", "ft3", "ft4")
    b.fsd("ft5", "t0", 0)
    b.addi("t1", "t1", ib)
    b.addi("t3", "t3", 8)
    b.bne("t1", "t5", "bloop")
    b.label("anext")
    b.bne("a1", "s6", "aloop")
    # -- gather phase: C_vals[row] = acc[pattern] ------------------------
    b.label("gather")
    b.slli("t5", "t2", shift)
    b.add("t5", "t5", "s9")
    b.label("gloop")
    _idx_load(b, "t0", "s9", index_bits)
    b.slli("t0", "t0", 3)
    b.add("t0", "t0", "s1")
    b.fld("ft4", "t0", 0)
    b.fsd("ft4", "s10", 0)
    b.addi("s9", "s9", ib)
    b.addi("s10", "s10", 8)
    b.bne("s9", "t5", "gloop")
    _emit_row_epilogue(b, index_bits)
    b.label("end")
    b.halt()
    return b.build()


def _build_ssr(index_bits):
    ib = index_bits // 8
    shift = ib.bit_length() - 1
    b = ProgramBuilder(f"spgemm_ssr_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.beqz("s2", "end")
    # SSR lane 0: one affine read job per (i, k) over B row k's values
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    b.lw("s5", "a2", 0)
    b.lw("s7", "a7", 0)
    b.li("s3", 0)
    b.csrsi(CSR_SSR, 1)
    b.label("outer")
    _emit_row_prologue(b, index_bits)
    b.slli("t5", "t2", shift)
    b.add("t5", "t5", "s9")
    b.mv("t4", "s9")
    b.label("zloop")
    _idx_load(b, "t0", "t4", index_bits)
    b.slli("t0", "t0", 3)
    b.add("t0", "t0", "s1")
    b.fsd("ft11", "t0", 0)
    b.addi("t4", "t4", ib)
    b.bne("t4", "t5", "zloop")
    b.beq("a1", "s6", "gather")
    b.label("aloop")
    _idx_load(b, "t0", "a1", index_bits)
    b.fld("fa0", "a0", 0)
    b.addi("a1", "a1", ib)
    b.addi("a0", "a0", 8)
    b.slli("t1", "t0", 2)
    b.add("t1", "t1", "a5")
    b.lw("t4", "t1", 0)
    b.lw("t5", "t1", 4)
    b.sub("t6", "t5", "t4")
    b.beqz("t6", "anext")
    b.scfgw("t6", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.slli("t3", "t4", 3)
    b.add("t3", "t3", "a3")
    b.scfgw("t3", cfg.cfg_addr(0, cfg.REG_RPTR_0))  # launch b_vals stream
    b.slli("t1", "t4", shift)
    b.add("t1", "t1", "a4")
    b.slli("t5", "t5", shift)
    b.add("t5", "t5", "a4")
    b.label("bloop")
    _idx_load(b, "t0", "t1", index_bits)
    b.slli("t0", "t0", 3)
    b.add("t0", "t0", "s1")
    b.fld("ft4", "t0", 0)           # acc[j]
    b.fmadd_d("ft5", "fa0", "ft0", "ft4")   # ft0 = streamed b_kj
    b.fsd("ft5", "t0", 0)
    b.addi("t1", "t1", ib)
    b.bne("t1", "t5", "bloop")
    b.label("anext")
    b.bne("a1", "s6", "aloop")
    b.label("gather")
    b.slli("t5", "t2", shift)
    b.add("t5", "t5", "s9")
    b.label("gloop")
    _idx_load(b, "t0", "s9", index_bits)
    b.slli("t0", "t0", 3)
    b.add("t0", "t0", "s1")
    b.fld("ft4", "t0", 0)
    b.fsd("ft4", "s10", 0)
    b.addi("s9", "s9", ib)
    b.addi("s10", "s10", 8)
    b.bne("s9", "t5", "gloop")
    _emit_row_epilogue(b, index_bits)
    b.label("end")
    b.csrci(CSR_SSR, 1)
    b.halt()
    return b.build()


def _build_issr(index_bits):
    ib = index_bits // 8
    shift = ib.bit_length() - 1
    b = ProgramBuilder(f"spgemm_issr_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.beqz("s2", "end")
    # static lane configuration: lane 0 = SSR over b_vals / C_vals,
    # lane 1 = ISSR gather of acc, lane 2 = ISSR scatter into acc
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.scfgw("t1", cfg.cfg_addr(1, cfg.REG_IDX_CFG))
    b.scfgw("t1", cfg.cfg_addr(2, cfg.REG_IDX_CFG))
    b.scfgw("s1", cfg.cfg_addr(1, cfg.REG_DATA_BASE))
    b.scfgw("s1", cfg.cfg_addr(2, cfg.REG_DATA_BASE))
    b.lw("s5", "a2", 0)
    b.lw("s7", "a7", 0)
    b.li("s3", 0)
    b.csrsi(CSR_SSR, 1)
    b.label("outer")
    _emit_row_prologue(b, index_bits)
    # -- zero phase: FREP'd zero scatter through lane 2 ------------------
    b.scfgw("t2", cfg.cfg_addr(2, cfg.REG_BOUND_0))
    b.scfgw("s9", cfg.cfg_addr(2, cfg.REG_IWPTR))
    b.frep("t2", 1)
    b.fmv_d("ft2", "ft11")          # push zeros into the scatter lane
    b.fence_fpu()                   # zeros must land before gathers
    b.beq("a1", "s6", "gather")
    b.label("aloop")
    _idx_load(b, "t0", "a1", index_bits)
    b.fld("fa0", "a0", 0)
    b.addi("a1", "a1", ib)
    b.addi("a0", "a0", 8)
    b.slli("t1", "t0", 2)
    b.add("t1", "t1", "a5")
    b.lw("t4", "t1", 0)
    b.lw("t5", "t1", 4)
    b.sub("t6", "t5", "t4")
    b.beqz("t6", "anext")
    # one job triple per (i, k): SSR b_vals, ISSR gather, ISSR scatter
    b.scfgw("t6", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.scfgw("t6", cfg.cfg_addr(1, cfg.REG_BOUND_0))
    b.scfgw("t6", cfg.cfg_addr(2, cfg.REG_BOUND_0))
    b.slli("t3", "t4", 3)
    b.add("t3", "t3", "a3")
    b.scfgw("t3", cfg.cfg_addr(0, cfg.REG_RPTR_0))
    b.slli("t1", "t4", shift)
    b.add("t1", "t1", "a4")         # B_idcs row base drives both ISSRs
    b.scfgw("t1", cfg.cfg_addr(1, cfg.REG_IRPTR))
    b.scfgw("t1", cfg.cfg_addr(2, cfg.REG_IWPTR))
    b.frep("t6", 1)
    b.fmadd_d("ft2", "fa0", "ft0", "ft1")   # acc'[j] = a*b + acc[j]
    b.fence_fpu()                   # B rows may alias: drain the scatter
    b.label("anext")
    b.bne("a1", "s6", "aloop")
    # -- gather phase: stream acc[pattern] out to C_vals -----------------
    b.label("gather")
    b.scfgw("t2", cfg.cfg_addr(1, cfg.REG_BOUND_0))
    b.scfgw("t2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.scfgw("s9", cfg.cfg_addr(1, cfg.REG_IRPTR))
    b.scfgw("s10", cfg.cfg_addr(0, cfg.REG_WPTR_0))
    b.frep("t2", 1)
    b.fmv_d("ft0", "ft1")           # acc gather -> C_vals write stream
    b.fence_fpu()                   # row writeback before the next zero
    b.slli("t5", "t2", shift)       # advance the C walk pointers
    b.add("s9", "s9", "t5")
    b.slli("t5", "t2", 3)
    b.add("s10", "s10", "t5")
    _emit_row_epilogue(b, index_bits)
    b.label("end")
    b.csrci(CSR_SSR, 1)
    b.halt()
    return b.build()


def spgemm_reference(a, b):
    """Dense NumPy reference for ``C = A @ B`` from stored entries only.

    Sums the products of stored entries, as the kernel does: a dense
    ``a.to_dense() @ b.to_dense()`` also multiplies the zeros CSR does
    not store, and ``0 * inf`` puts NaNs in slots the kernel never
    computes.
    """
    a_pos, b_pos, keys = spgemm_pairs(a, b)
    out = np.bincount(keys, weights=a.vals[a_pos] * b.vals[b_pos],
                      minlength=a.nrows * b.ncols)
    return out.reshape(a.nrows, b.ncols)


def run_spgemm(a, b, variant, index_bits=32, sim=None, check=True):
    """Execute the two-phase SpGEMM; returns (stats, CsrMatrix).

    The symbolic phase (:func:`~repro.formats.builder.spgemm_pattern`)
    runs host-side; the returned stats measure the numeric kernel on
    one CC. The ISSR variant needs a ``lane_config="dual_issr"``
    harness (built automatically when ``sim`` is None).
    """
    program, meta = build_spgemm(variant, index_bits)
    ptr, idcs = spgemm_pattern(a, b)
    if sim is None:
        sim = SingleCC(lane_config=LANE_CONFIG[variant])
    mem = {
        "a0": sim.alloc_floats(a.vals, name="A_vals"),
        "a1": sim.alloc_indices(a.idcs, index_bits, name="A_idcs"),
        "a2": sim.alloc_indices(a.ptr, 32, name="A_ptr"),
        "a3": sim.alloc_floats(b.vals, name="B_vals"),
        "a4": sim.alloc_indices(b.idcs, index_bits, name="B_idcs"),
        "a5": sim.alloc_indices(b.ptr, 32, name="B_ptr"),
        "a6": sim.alloc_indices(idcs, index_bits, name="C_idcs"),
        "a7": sim.alloc_indices(ptr, 32, name="C_ptr"),
        "s0": sim.alloc_zeros(max(int(ptr[-1]), 1), name="C_vals"),
        "s1": sim.alloc_zeros(max(b.ncols, 1), name="acc"),
        "s2": a.nrows,
    }
    # the streamed register walks (s9/s10) start at the C arrays
    args = dict(mem)
    args["s9"] = mem["a6"]
    args["s10"] = mem["s0"]
    stats, _ = sim.run(program, args=args)
    c_vals = np.array(sim.read_floats(mem["s0"], max(int(ptr[-1]), 1)))
    c = CsrMatrix(ptr, idcs, c_vals[:int(ptr[-1])], (a.nrows, b.ncols))
    if check:
        expect = spgemm_reference(a, b)
        check_reference(c.to_dense(), expect,
                        f"SpGEMM {variant}/{index_bits}")
    return stats, c
