"""Instruction definitions for the simulated RISC-V subset.

We model the instructions Snitch kernels actually use: RV32I integer
ops (64-bit registers, RV64-style, to keep pointer arithmetic simple),
M-extension multiply/divide, the D-extension FP ops, CSR accesses, and
the custom extensions from the Snitch ecosystem:

- ``frep``   — the FREP hardware loop with register staggering [6],
- ``scfgw``/``scfgr`` — streamer configuration register access [5],
- ``csrsi``/``csrci`` on :data:`CSR_SSR` — SSR register redirection,
- ``fence_fpu`` — drain the FPU subsystem (models the "dummy register
  move" synchronization idiom from §III-B),
- ``halt``   — end of program (models the return to the runtime).

Each instruction is a compact :class:`Instr` record; assembly programs
are lists of these, produced by :mod:`repro.isa.program`.
"""


class Instr:
    """One decoded instruction.

    Fields are pre-resolved integers (register indices, immediates,
    branch target PCs) so the simulator's dispatch loop does no string
    processing. ``aux`` carries per-op extras (FREP stagger config).
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "rs3", "imm", "aux")

    def __init__(self, op, rd=0, rs1=0, rs2=0, rs3=0, imm=0, aux=None):
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.rs3 = rs3
        self.imm = imm
        self.aux = aux

    def __repr__(self):
        parts = [self.op, f"rd={self.rd}", f"rs1={self.rs1}", f"rs2={self.rs2}"]
        if self.rs3:
            parts.append(f"rs3={self.rs3}")
        if self.imm:
            parts.append(f"imm={self.imm}")
        if self.aux is not None:
            parts.append(f"aux={self.aux}")
        return f"Instr({' '.join(parts)})"


# --- Instruction classification sets (used by the core's dispatcher) ---

#: Integer ALU ops: rd <- f(rs1, rs2)
ALU_OPS = frozenset({
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra",
    "slt", "sltu", "min", "max",
})

#: Integer ALU ops with immediate: rd <- f(rs1, imm)
ALU_IMM_OPS = frozenset({
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltiu",
})

#: Multiply/divide (shared unit in the cluster).
MULDIV_OPS = frozenset({"mul", "mulh", "div", "divu", "rem", "remu"})

#: Integer loads, mapping op -> access size in bytes (u = zero-extended).
LOAD_OPS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}
LOAD_UNSIGNED = frozenset({"lbu", "lhu", "lwu"})

#: Integer stores, mapping op -> access size in bytes.
STORE_OPS = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

#: Conditional branches (imm = resolved target PC).
BRANCH_OPS = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})

#: Unconditional jumps.
JUMP_OPS = frozenset({"jal", "jalr"})

#: CSR accesses (imm = CSR number; csrsi/csrci use rs1 as uimm).
CSR_OPS = frozenset({"csrrw", "csrrs", "csrrc", "csrsi", "csrci", "csrr"})

#: FPU arithmetic with 4-cycle pipelined latency.
FP_FMA_OPS = frozenset({
    "fmadd.d", "fmsub.d", "fnmadd.d", "fnmsub.d",
    "fadd.d", "fsub.d", "fmul.d",
})

#: FPU ops with 1-cycle latency (moves / sign injection).
FP_MOVE_OPS = frozenset({"fsgnj.d", "fsgnjn.d", "fsgnjx.d", "fmv.d"})

#: FPU min/max/compare-style 2-cycle ops that stay in the FP domain.
FP_SHORT_OPS = frozenset({"fmin.d", "fmax.d"})

#: Long-latency unpipelined FPU ops.
FP_LONG_OPS = frozenset({"fdiv.d", "fsqrt.d"})

#: Conversions/moves from the integer domain into FP (read an int reg).
FP_FROM_INT_OPS = frozenset({"fcvt.d.w", "fcvt.d.wu", "fmv.d.x"})

#: Conversions/compares from FP into the integer domain (write int reg).
FP_TO_INT_OPS = frozenset({"fcvt.w.d", "fcvt.wu.d", "fmv.x.d",
                           "feq.d", "flt.d", "fle.d"})

#: FP memory ops (executed by the FPU subsystem's LSU).
FP_LOAD_OPS = frozenset({"fld"})
FP_STORE_OPS = frozenset({"fsd"})

#: Everything that is offloaded to the FPU subsystem.
FP_OPS = (FP_FMA_OPS | FP_MOVE_OPS | FP_SHORT_OPS | FP_LONG_OPS
          | FP_FROM_INT_OPS | FP_TO_INT_OPS | FP_LOAD_OPS | FP_STORE_OPS)

#: FPU ops that count as useful datapath work for the paper's FPU
#: utilization metric ("excluding load-store operations idling the
#: datapath", §IV-A). Moves and converts keep the datapath busy but we
#: follow the paper and count arithmetic only.
FP_COMPUTE_OPS = FP_FMA_OPS | FP_SHORT_OPS | FP_LONG_OPS

#: The multiply-accumulate ops counted for "pJ per fmadd" style metrics.
FP_MAC_OPS = frozenset({"fmadd.d", "fmsub.d", "fnmadd.d", "fnmsub.d"})

#: Misc ops.
MISC_OPS = frozenset({"nop", "lui", "li", "frep", "scfgw", "scfgr",
                      "fence_fpu", "halt", "mv"})

ALL_OPS = (ALU_OPS | ALU_IMM_OPS | MULDIV_OPS | frozenset(LOAD_OPS)
           | frozenset(STORE_OPS) | BRANCH_OPS | JUMP_OPS | CSR_OPS
           | FP_OPS | MISC_OPS)


# --- CSR numbers ---

#: SSR register redirection enable (csrsi CSR_SSR, 1 / csrci CSR_SSR, 1).
CSR_SSR = 0x7C0
#: Read-only cycle counter.
CSR_CYCLE = 0xC00


# --- Timing constants (see docs/ARCHITECTURE.md, *Core timing*) ---

#: Cycles from load request to data availability (TCDM-class memory).
LOAD_LATENCY = 2
#: Pipelined FMA/add/mul latency.
FPU_LATENCY = 4
#: Latency of FP moves / sign injection.
FPU_MOVE_LATENCY = 1
#: Latency of converts, compares, min/max.
FPU_SHORT_LATENCY = 2
#: Unpipelined divide/sqrt latency.
FPU_LONG_LATENCY = 12
#: Multiply latency on the shared cluster unit.
MUL_LATENCY = 3
#: Divide latency on the shared cluster unit.
DIV_LATENCY = 20
#: Depth of the core -> FPU-subsystem offload queue (pseudo-dual issue).
FPU_QUEUE_DEPTH = 16
#: Maximum number of FP instructions in an FREP loop body.
FREP_MAX_BODY = 16
