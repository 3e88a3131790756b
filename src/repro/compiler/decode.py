"""Pass 1: abstract interpretation of an assembled instruction stream.

Walks the program linearly with a three-level value lattice over the
integer register file — ``int`` (a known constant), ``"aN"`` (the
unmodified initial value of an argument register), or ``None``
(unknown) — and collects the events the later passes need:

- streamer configuration writes (``scfgw``), resolved to
  (lane, register, abstract value) through
  :func:`~repro.core.config.decode_cfg_addr` and recorded in per-lane
  :class:`~repro.core.descriptors.StreamDescriptor` objects;
- streamer configuration reads (``scfgr`` — the intersection kernels'
  poll/count idiom);
- FREP hardware-loop records (bound value, body, stagger config);
- SSR-redirection CSR events and an opcode histogram.

The walk is *linear*: values after a backward branch may be
path-dependent, so anything written inside a loop decays to unknown on
re-definition from a non-constant source, and the pass makes no
soundness claim beyond the straight-line prologue where kernels place
their stream setup. That is exactly enough for structure recovery and
candidate pruning; executing a lowered program is gated separately on
an *exact* normalized-stream match (:mod:`repro.compiler.templates`),
so decode imprecision can never cause wrong execution.
"""

from repro.core.config import decode_cfg_addr
from repro.core.descriptors import StreamDescriptor
from repro.isa.isa import CSR_SSR, FP_OPS, FP_TO_INT_OPS, LOAD_OPS
from repro.isa.introspect import fingerprint, op_histogram
from repro.isa.registers import INT_REG_NAMES

#: Argument registers whose initial values the ABI defines (a0..a7).
ARG_REGS = {i: name for i, name in enumerate(INT_REG_NAMES)
            if name.startswith("a") and name != "a"}


class FrepRecord:
    """One FREP hardware loop: bound, body, stagger configuration."""

    __slots__ = ("pc", "bound", "n_insn", "stagger_count", "stagger_mask",
                 "body")

    def __init__(self, pc, bound, n_insn, stagger_count, stagger_mask,
                 body):
        self.pc = pc
        #: Abstract value of the repetition-count register.
        self.bound = bound
        self.n_insn = n_insn
        self.stagger_count = stagger_count
        self.stagger_mask = stagger_mask
        #: Normalized body instructions (the ``n_insn`` FP ops).
        self.body = tuple(body)

    def __repr__(self):
        return (f"FrepRecord(pc={self.pc}, n_insn={self.n_insn}, "
                f"stagger={self.stagger_count}/{self.stagger_mask:#b})")


class DecodedProgram:
    """Everything pass 2/3 need to know about one program."""

    __slots__ = ("program", "lanes", "config_reads", "freps", "csr_events",
                 "op_counts", "fingerprint")

    def __init__(self, program):
        self.program = program
        #: lane index -> :class:`StreamDescriptor`.
        self.lanes = {}
        #: (pc, lane, reg) tuples for every ``scfgr``.
        self.config_reads = []
        self.freps = []
        #: (pc, op) for csrsi/csrci on the SSR-redirection CSR.
        self.csr_events = []
        self.op_counts = op_histogram(program)
        self.fingerprint = fingerprint(program)

    def lane(self, index):
        """The descriptor for ``index``, created on first use."""
        if index not in self.lanes:
            self.lanes[index] = StreamDescriptor(index)
        return self.lanes[index]

    @property
    def uses_redirection(self):
        """True when the program toggles SSR register redirection."""
        return bool(self.csr_events)


def _eval_alu_imm(op, value, imm):
    """Constant-fold an ALU-immediate op (None on unknown input)."""
    if op == "addi" and imm == 0:
        return value                  # mv preserves args and constants
    if not isinstance(value, int):
        return None
    if op == "addi":
        return value + imm
    if op in ("slli", "srli") and imm < 0:
        return None                   # no encodable shift: not a constant
    if op == "slli":
        return value << imm
    if op == "srli":
        return value >> imm
    if op == "andi":
        return value & imm
    if op == "ori":
        return value | imm
    if op == "xori":
        return value ^ imm
    return None


def _eval_alu(op, lhs, rhs):
    """Constant-fold a register-register ALU op (None on unknown)."""
    if not isinstance(lhs, int) or not isinstance(rhs, int):
        return None
    if op in ("sll", "srl") and rhs < 0:
        return None
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "sll":
        return lhs << rhs
    if op == "srl":
        return lhs >> rhs
    return None


def decode_program(program):
    """Run the abstract interpretation; returns a :class:`DecodedProgram`."""
    decoded = DecodedProgram(program)
    # x0 is hardwired to 0; a0..a7 start as symbolic argument values.
    regs = {0: 0}
    regs.update({idx: name for idx, name in ARG_REGS.items()})

    instrs = program.instrs
    pc = 0
    while pc < len(instrs):
        ins = instrs[pc]
        op = ins.op
        if op == "li":
            regs[ins.rd] = ins.imm
        elif op == "addi":
            regs[ins.rd] = _eval_alu_imm(op, regs.get(ins.rs1), ins.imm)
        elif op in ("slli", "srli", "andi", "ori", "xori"):
            regs[ins.rd] = _eval_alu_imm(op, regs.get(ins.rs1), ins.imm)
        elif op in ("add", "sub", "sll", "srl"):
            regs[ins.rd] = _eval_alu(op, regs.get(ins.rs1),
                                     regs.get(ins.rs2))
        elif op in LOAD_OPS or op == "scfgr" or op == "csrr":
            regs[ins.rd] = None       # memory/CSR contents are dynamic
            if op == "scfgr":
                lane, reg = decode_cfg_addr(ins.imm)
                decoded.config_reads.append((pc, lane, reg))
        elif op == "scfgw":
            lane, reg = decode_cfg_addr(ins.imm)
            decoded.lane(lane).record(reg, regs.get(ins.rs1))
        elif op in ("csrsi", "csrci") and ins.imm == CSR_SSR:
            decoded.csr_events.append((pc, op))
        elif op == "frep":
            body = [instrs[i] for i in
                    range(pc + 1, min(pc + 1 + ins.imm, len(instrs)))]
            count, mask = ins.aux if ins.aux else (0, 0)
            decoded.freps.append(FrepRecord(
                pc, regs.get(ins.rs1), ins.imm, count, mask,
                (b.op for b in body)))
        elif op in FP_TO_INT_OPS or op in ("jal", "jalr"):
            if ins.rd:
                regs[ins.rd] = None   # link/compare results are dynamic
        elif op not in FP_OPS and ins.rd and op not in (
                "nop", "halt", "fence_fpu"):
            # any other int-register writer we don't model: unknown
            regs[ins.rd] = None
        if op not in FP_OPS:
            regs[0] = 0               # x0 writes are discarded
        pc += 1
    return decoded
