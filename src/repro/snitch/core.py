"""The Snitch integer core: tiny, single-issue, in-order.

Executes at most one instruction per cycle. Loads are scoreboarded
(the core only stalls when a consumer reads a pending register), FP
instructions are offloaded to the FPU subsystem with pre-resolved
memory addresses and integer operands (pseudo-dual issue), and the
streamer is configured through ``scfgw``/``scfgr`` and enabled through
the SSR CSR — matching the programming model of §III.

Timing notes (DESIGN.md §3): single-cycle ALU; 2-cycle load-use
latency; branches resolve in one cycle (the paper's §I cycle counting
assumes no taken-branch bubble); ``mul``/``div`` write back after
``MUL_LATENCY``/``DIV_LATENCY``.
"""

import operator

from repro.errors import SimulationError
from repro.sim.engine import IDLE
from repro.isa.isa import (
    ALU_IMM_OPS,
    ALU_OPS,
    BRANCH_OPS,
    CSR_CYCLE,
    CSR_SSR,
    DIV_LATENCY,
    FP_FROM_INT_OPS,
    FP_LOAD_OPS,
    FP_OPS,
    FP_STORE_OPS,
    FP_TO_INT_OPS,
    LOAD_OPS,
    LOAD_UNSIGNED,
    MUL_LATENCY,
    MULDIV_OPS,
    STORE_OPS,
)

#: Extra cycles after a taken branch (0 reproduces the paper's §I count).
BRANCH_TAKEN_PENALTY = 0

_WAIT_MEM = -1
#: Stall-cause marker: waiting for the FPU subsystem to drain.
_DRAIN = "drain"


class SnitchCore:
    """One integer core executing an assembled :class:`Program`."""

    def __init__(self, engine, lsu_slot, fpu, streamer=None, icache=None,
                 name="core", branch_penalty=BRANCH_TAKEN_PENALTY):
        self.engine = engine
        self.lsu_slot = lsu_slot
        self.fpu = fpu
        self.streamer = streamer
        self.icache = icache
        self.name = name
        self.branch_penalty = branch_penalty
        self.regs = [0] * 32
        self._ready = {}          # int reg -> ready cycle / _WAIT_MEM
        self.pc = 0
        self.program = None
        self.halted = True
        self._fetch_stall_until = 0
        self._outstanding_loads = 0
        # quiescence state
        self._q_state = 0
        self._q_gen = 0
        self._block = None            # why the last op handler stalled
        self._stall_backfill = None   # (sleep cycle, raw?) of current nap
        self.observer = None          # component woken when we halt
        # statistics
        self.retired = 0
        self.stall_cycles = 0
        self.stall_raw = 0
        self.stall_fpu_queue = 0
        self.stall_lsu = 0
        self.stall_fetch = 0
        self.stall_cfg = 0
        fpu.core = self

    # -- harness interface -------------------------------------------------

    def load_program(self, program, start_pc=0):
        self.program = program
        self.pc = start_pc
        self.halted = False
        self._ready.clear()
        self._fetch_stall_until = 0
        self._block = None
        self._stall_backfill = None
        self.engine.wake(self)  # a halted core sleeps until relaunched

    def set_reg(self, idx, value):
        if idx:
            self.regs[idx] = value

    def get_reg(self, idx):
        return self.regs[idx]

    # -- FPU cross-domain interface -----------------------------------------

    def int_result_pending(self, rd):
        """FPU will deliver an integer result to ``rd`` later."""
        if rd:
            self._ready[rd] = _WAIT_MEM

    def int_result_deliver(self, rd, value):
        if rd:
            self.regs[rd] = value
            self._ready[rd] = self.engine.cycle
        self.engine.wake(self)  # we may be napping on this register

    # -- helpers -------------------------------------------------------------

    def _src_ready(self, reg):
        ready = self._ready.get(reg, 0)
        if ready == _WAIT_MEM:
            self.stall_raw += 1
            self._block = _WAIT_MEM  # load response wakes us
            return False
        if ready > self.engine.cycle:
            self.stall_raw += 1
            self._block = ready      # deterministic: nap until ready
            return False
        return True

    def _retire(self, next_pc=None):
        self.retired += 1
        self.pc = self.pc + 1 if next_pc is None else next_pc
        self.engine.note_progress()

    # -- main loop -------------------------------------------------------------

    def tick(self):
        if self.halted:
            return IDLE  # woken by load_program
        backfill = self._stall_backfill
        if backfill is not None:
            # We napped through `slept` cycles that would each have been
            # an identical failing poll: replay their counter effects so
            # statistics stay bit-equal with the dense engine.
            self._stall_backfill = None
            slept = self.engine.cycle - backfill[0] - 1
            if slept > 0:
                self.stall_cycles += slept
                if backfill[1]:
                    self.stall_raw += slept
                if self.icache is not None:
                    self.icache.backfill_hits(slept)
        cycle = self.engine.cycle
        if cycle < self._fetch_stall_until:
            self.stall_fetch += 1
            self.stall_cycles += 1
            return None
        instrs = self.program.instrs
        if self.pc >= len(instrs):
            raise SimulationError(f"{self.name}: PC {self.pc} fell off the program")
        if self.icache is not None and not self.icache.fetch(self.pc):
            self.stall_fetch += 1
            self.stall_cycles += 1
            return None
        ins = instrs[self.pc]
        self._block = None
        handler = _HANDLERS.get(ins.op)
        if handler is None:
            raise SimulationError(f"{self.name}: cannot execute op {ins.op!r}")
        if not handler(self, ins):
            self.stall_cycles += 1
            return self._sleep_on_block(cycle)
        return None

    def _sleep_on_block(self, cycle):
        """Turn a deterministic stall into a nap (event mode).

        Only stalls whose every future poll is an identical no-op until
        a wake edge fires are eligible (RAW waits, FPU-drain waits);
        the op handlers leave ``_block`` None for the others (LSU/queue/
        config back-pressure), which keep polling. Short waits — a
        load's two-cycle latency, a near writeback — keep polling too:
        below ~4 cycles the sleep/wake round-trip costs more than the
        polls it saves.
        """
        block = self._block
        if block is None:
            return None
        if block == _DRAIN:
            fpu = self.fpu
            if (not fpu.queue and fpu._loop is None and fpu._outstanding == 0
                    and fpu._busy_until > cycle):
                # drained except for writeback time: wake exactly then
                self._stall_backfill = (cycle, False)
                return fpu._busy_until
            self._stall_backfill = (cycle, False)
            return IDLE  # the FPU wakes us when it drains
        if block == _WAIT_MEM:
            return None  # load latency is short: keep polling
        if block - cycle < 4:
            return None
        # long timed RAW (e.g. div writeback): wake exactly at readiness
        self._stall_backfill = (cycle, True)
        return block

    # -- one handler per op class (dispatched through _HANDLERS) -----------
    #
    # A handler executes ``ins`` and returns True, or returns False to
    # stall and retry it next cycle.

    def _exec_alu_imm(self, ins):
        if not self._src_ready(ins.rs1):
            return False
        value = _ALU[ins.op](self.regs[ins.rs1], ins.imm)
        if ins.rd:
            self.regs[ins.rd] = value
        self._retire()
        return True

    def _exec_alu(self, ins):
        if not self._src_ready(ins.rs1) or not self._src_ready(ins.rs2):
            return False
        value = _ALU[ins.op](self.regs[ins.rs1], self.regs[ins.rs2])
        if ins.rd:
            self.regs[ins.rd] = value
        self._retire()
        return True

    def _exec_load(self, ins):
        if not self._src_ready(ins.rs1):
            return False
        if not self.lsu_slot.idle:
            self.stall_lsu += 1
            return False
        addr = self.regs[ins.rs1] + ins.imm
        size = LOAD_OPS[ins.op]
        signed = size < 8 and ins.op not in LOAD_UNSIGNED
        if ins.rd:
            self._ready[ins.rd] = _WAIT_MEM
        self._outstanding_loads += 1
        self.lsu_slot.request(addr, size, False, sink=self._on_load,
                              tag=ins.rd, signed=signed)
        self._retire()
        return True

    def _exec_store(self, ins):
        if not self._src_ready(ins.rs1) or not self._src_ready(ins.rs2):
            return False
        if not self.lsu_slot.idle:
            self.stall_lsu += 1
            return False
        addr = self.regs[ins.rs1] + ins.imm
        self.lsu_slot.request(addr, STORE_OPS[ins.op], True,
                              value=self.regs[ins.rs2])
        self._retire()
        return True

    def _exec_branch(self, ins):
        if not self._src_ready(ins.rs1) or not self._src_ready(ins.rs2):
            return False
        taken = _BRANCH[ins.op](self.regs[ins.rs1], self.regs[ins.rs2])
        if taken and self.branch_penalty:
            self._fetch_stall_until = self.engine.cycle + 1 + self.branch_penalty
        self._retire(ins.imm if taken else self.pc + 1)
        return True

    def _exec_muldiv(self, ins):
        if not self._src_ready(ins.rs1) or not self._src_ready(ins.rs2):
            return False
        fn, latency = _MULDIV[ins.op]
        value = fn(self.regs[ins.rs1], self.regs[ins.rs2])
        if ins.rd:
            self.regs[ins.rd] = value
            self._ready[ins.rd] = self.engine.cycle + latency
        self._retire()
        return True

    def _fpu_full(self):
        """Offload back-pressure: the FPU queue has no free slot."""
        if self.fpu.can_accept:
            return False
        self.stall_fpu_queue += 1
        return True

    def _exec_fp(self, ins):
        """Offload an FP-domain op: nothing to resolve core-side."""
        if self._fpu_full():
            return False
        self.fpu.offload(ins)
        self._retire()
        return True

    def _exec_fp_mem(self, ins):
        """Offload ``fld``/``fsd`` with its address resolved."""
        if self._fpu_full() or not self._src_ready(ins.rs1):
            return False
        self.fpu.offload(ins, addr=self.regs[ins.rs1] + ins.imm)
        self._retire()
        return True

    def _exec_fp_from_int(self, ins):
        """Offload an int -> FP move/convert with its operand captured."""
        if self._fpu_full() or not self._src_ready(ins.rs1):
            return False
        self.fpu.offload(ins, int_value=self.regs[ins.rs1])
        self._retire()
        return True

    def _exec_fp_to_int(self, ins):
        """Offload an FP -> int op; its integer destination goes busy."""
        if self._fpu_full():
            return False
        if ins.rd:
            # the FPU writes this integer register later; mark it busy
            # now so younger core instructions cannot read a stale value
            self._ready[ins.rd] = _WAIT_MEM
        self.fpu.offload(ins)
        self._retire()
        return True

    def _exec_frep(self, ins):
        if not self._src_ready(ins.rs1):
            return False
        if self._fpu_full():
            return False
        st_count, st_mask = ins.aux
        self.fpu.offload_frep(self.regs[ins.rs1], ins.imm, st_count, st_mask)
        self._retire()
        return True

    def _exec_li(self, ins):
        if ins.rd:
            self.regs[ins.rd] = ins.imm
        self._retire()
        return True

    def _exec_nop(self, ins):
        self._retire()
        return True

    def _exec_scfgw(self, ins):
        if not self._src_ready(ins.rs1):
            return False
        if not self.streamer.cfg_write(ins.imm, self.regs[ins.rs1]):
            self.stall_cfg += 1
            return False
        self._retire()
        return True

    def _exec_scfgr(self, ins):
        if ins.rd:
            self.regs[ins.rd] = self.streamer.cfg_read(ins.imm)
        self._retire()
        return True

    def _exec_csr_set_clear(self, ins):
        if ins.imm == CSR_SSR and self.streamer is not None:
            if ins.rs1 & 1:
                self.streamer.enabled = ins.op == "csrsi"
        self._retire()
        return True

    def _exec_csrr(self, ins):
        if ins.imm == CSR_CYCLE:
            value = self.engine.cycle
        elif ins.imm == CSR_SSR:
            value = 1 if (self.streamer and self.streamer.enabled) else 0
        else:
            raise SimulationError(f"{self.name}: read of unknown CSR 0x{ins.imm:x}")
        if ins.rd:
            self.regs[ins.rd] = value
        self._retire()
        return True

    def _exec_jal(self, ins):
        if ins.rd:
            self.regs[ins.rd] = self.pc + 1
        if self.branch_penalty:
            self._fetch_stall_until = self.engine.cycle + 1 + self.branch_penalty
        self._retire(ins.imm)
        return True

    def _exec_jalr(self, ins):
        if not self._src_ready(ins.rs1):
            return False
        target = self.regs[ins.rs1] + ins.imm
        if ins.rd:
            self.regs[ins.rd] = self.pc + 1
        if self.branch_penalty:
            self._fetch_stall_until = self.engine.cycle + 1 + self.branch_penalty
        self._retire(target)
        return True

    def _exec_fence_fpu(self, ins):
        if not self._fpu_drained():
            self._mark_drain_block()
            return False
        self._retire()
        return True

    def _exec_halt(self, ins):
        if not self._fpu_drained() or self._outstanding_loads:
            self._mark_drain_block()
            return False
        self.halted = True
        if self.observer is not None:
            self.engine.wake(self.observer)  # e.g. the cluster runtime
        self._retire(self.pc)
        return True

    def _fpu_drained(self):
        if not self.fpu.drained:
            return False
        return self.streamer is None or self.streamer.writes_drained

    def _mark_drain_block(self):
        """Flag a fence/halt stall as nappable when only the FPU blocks.

        A pending stream *write* drain has no wake edge to the core, so
        we keep polling in that (short-lived) state.
        """
        if self.streamer is None or self.streamer.writes_drained:
            self._block = _DRAIN

    def _on_load(self, rd, value):
        self._outstanding_loads -= 1
        if self._outstanding_loads < 0:
            raise SimulationError(f"{self.name}: negative outstanding load count")
        if rd:
            self.regs[rd] = value
            self._ready[rd] = self.engine.cycle

    def reset_stats(self):
        self.retired = 0
        self.stall_cycles = 0
        self.stall_raw = 0
        self.stall_fpu_queue = 0
        self.stall_lsu = 0
        self.stall_fetch = 0
        self.stall_cfg = 0


_U64 = 1 << 64


def _srl(a, b):
    return (a % _U64) >> b


def _slt(a, b):
    return 1 if a < b else 0


def _sltu(a, b):
    return 1 if (a % _U64) < (b % _U64) else 0


def _div(a, b):
    return -1 if b == 0 else int(a / b)


def _divu(a, b):
    return -1 if b == 0 else (a % _U64) // (b % _U64)


def _rem(a, b):
    return a if b == 0 else a - b * int(a / b)


def _remu(a, b):
    return a if b == 0 else (a % _U64) % (b % _U64)


#: ALU op (register and immediate forms) -> operation.
_ALU = {
    "add": operator.add, "addi": operator.add,
    "sub": operator.sub,
    "and": operator.and_, "andi": operator.and_,
    "or": operator.or_, "ori": operator.or_,
    "xor": operator.xor, "xori": operator.xor,
    "sll": operator.lshift, "slli": operator.lshift,
    "srl": _srl, "srli": _srl,
    "sra": operator.rshift, "srai": operator.rshift,
    "slt": _slt, "slti": _slt,
    "sltu": _sltu, "sltiu": _sltu,
    "min": min, "max": max,
}

#: Branch op -> taken predicate.
_BRANCH = {
    "beq": operator.eq, "bne": operator.ne,
    "blt": operator.lt, "bge": operator.ge,
    "bltu": lambda a, b: (a % _U64) < (b % _U64),
    "bgeu": lambda a, b: (a % _U64) >= (b % _U64),
}

#: Multiply/divide op -> (operation, writeback latency).
_MULDIV = {
    "mul": (operator.mul, MUL_LATENCY),
    "mulh": (lambda a, b: (a * b) >> 64, MUL_LATENCY),
    "div": (_div, DIV_LATENCY), "divu": (_divu, DIV_LATENCY),
    "rem": (_rem, DIV_LATENCY), "remu": (_remu, DIV_LATENCY),
}


def _by_class(*groups):
    """``{op: handler}`` from ``(ops, handler)`` groups; a later group
    overrides an earlier one (``FP_OPS`` holds the FP subclasses)."""
    table = {}
    for ops, handler in groups:
        for op in ops:
            table[op] = handler
    return table


#: op -> handler of its class, built once at import: the core
#: dispatches through one lookup instead of testing the op against
#: each class in turn.
_HANDLERS = _by_class(
    (ALU_IMM_OPS, SnitchCore._exec_alu_imm),
    (ALU_OPS, SnitchCore._exec_alu),
    (LOAD_OPS, SnitchCore._exec_load),
    (STORE_OPS, SnitchCore._exec_store),
    (BRANCH_OPS, SnitchCore._exec_branch),
    (MULDIV_OPS, SnitchCore._exec_muldiv),
    (FP_OPS, SnitchCore._exec_fp),
    (FP_LOAD_OPS | FP_STORE_OPS, SnitchCore._exec_fp_mem),
    (FP_FROM_INT_OPS, SnitchCore._exec_fp_from_int),
    (FP_TO_INT_OPS, SnitchCore._exec_fp_to_int),
    (("frep",), SnitchCore._exec_frep),
    (("li",), SnitchCore._exec_li),
    (("nop",), SnitchCore._exec_nop),
    (("scfgw",), SnitchCore._exec_scfgw),
    (("scfgr",), SnitchCore._exec_scfgr),
    (("csrsi", "csrci"), SnitchCore._exec_csr_set_clear),
    (("csrr",), SnitchCore._exec_csrr),
    (("jal",), SnitchCore._exec_jal),
    (("jalr",), SnitchCore._exec_jalr),
    (("fence_fpu",), SnitchCore._exec_fence_fpu),
    (("halt",), SnitchCore._exec_halt),
)
