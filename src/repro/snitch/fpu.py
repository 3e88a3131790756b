"""The Snitch FPU subsystem: offload queue, FREP sequencer, FPU, FP LSU.

Snitch [6] achieves *pseudo-dual issue*: the integer core pushes FP
instructions into an offload queue and keeps running; the FPU subsystem
executes them in order at up to one per cycle. The FREP sequencer
buffers a loop body and replays it from its ring buffer with *register
staggering* — incrementing selected operand register fields each
iteration so several partial sums hide the FMA latency (§III-B of the
ISSR paper, Listing 1).

Stream semantic registers plug in at operand read/write: when the
streamer is enabled and an operand register is switch-mapped to a lane,
reading it pops the lane's data FIFO and writing it pushes the lane's
write FIFO; an empty/full FIFO stalls issue, which is how memory
back-pressure reaches the FPU.
"""

import math
import operator

from repro.errors import SimulationError
from repro.sim.engine import IDLE
from repro.isa.isa import (
    FP_COMPUTE_OPS,
    FP_MAC_OPS,
    FPU_LATENCY,
    FPU_LONG_LATENCY,
    FPU_MOVE_LATENCY,
    FPU_QUEUE_DEPTH,
    FPU_SHORT_LATENCY,
)
from repro.utils.fifo import Fifo

#: Sentinel for "register waiting on a memory response".
_WAIT_MEM = -1
#: Stall-cause markers for the quiescence protocol.
_STREAM = "stream"
_LSU = "lsu"
#: The lane map of an instruction offloaded with the streamer off.
_NO_LANES = {}


def fadd(x, y):
    """``x + y`` where, if the sum is NaN, the left operand's NaN wins.

    IEEE-754 leaves open which payload ``NaN + NaN`` keeps, and CPython
    answers differently before and after it specializes an add site.
    Pinning the left operand's (for ``fmadd.d``, the product's) makes a
    cycle result independent of the interpreter, and matches the
    compiled backend's replay (:mod:`repro.compiler.vectorize`).
    """
    return x + x if x != x else x + y


def fmul(x, y):
    """``x * y`` where, if both factors are NaN, the left one's wins.

    The left factor's NaN comes back quieted, as :func:`fadd` returns
    it. CPython's float multiply keeps the right factor's payload
    before it specializes a multiply site and the left one's after, so
    ``fmul.d`` and the fused ops pin it here, and the compiled
    backend's replay pins the same rule
    (:func:`repro.compiler.vectorize.pin_nan_products`).
    """
    return x + x if x != x else x * y


def _compare_int(cmp):
    return lambda a, b: int(cmp(a, b))


#: Decode kinds (the first field of an :data:`FP_TABLE` entry).
LOAD, STORE, FROM_INT, TO_INT, ARITH = range(5)

#: op -> (kind, source count, operation, latency); ``operation`` maps
#: the source values (the integer operand for ``FROM_INT``) to the
#: result.
_DECODE = {
    "fld": (LOAD, 0, None, 0),
    "fsd": (STORE, 1, None, 0),
    "fcvt.d.w": (FROM_INT, 0, float, FPU_SHORT_LATENCY),
    "fcvt.d.wu": (FROM_INT, 0, float, FPU_SHORT_LATENCY),
    "fmv.d.x": (FROM_INT, 0, float, FPU_SHORT_LATENCY),
    "fcvt.w.d": (TO_INT, 1, int, FPU_SHORT_LATENCY),
    "fcvt.wu.d": (TO_INT, 1, int, FPU_SHORT_LATENCY),
    "fmv.x.d": (TO_INT, 1, lambda a: a, FPU_SHORT_LATENCY),  # value-preserving
    "feq.d": (TO_INT, 2, _compare_int(operator.eq), FPU_SHORT_LATENCY),
    "flt.d": (TO_INT, 2, _compare_int(operator.lt), FPU_SHORT_LATENCY),
    "fle.d": (TO_INT, 2, _compare_int(operator.le), FPU_SHORT_LATENCY),
    "fmadd.d": (ARITH, 3, lambda a, b, c: fadd(fmul(a, b), c), FPU_LATENCY),
    "fmsub.d": (ARITH, 3, lambda a, b, c: fmul(a, b) - c, FPU_LATENCY),
    "fnmadd.d": (ARITH, 3, lambda a, b, c: -fmul(a, b) - c, FPU_LATENCY),
    "fnmsub.d": (ARITH, 3, lambda a, b, c: -fmul(a, b) + c, FPU_LATENCY),
    "fadd.d": (ARITH, 2, fadd, FPU_LATENCY),
    "fsub.d": (ARITH, 2, operator.sub, FPU_LATENCY),
    "fmul.d": (ARITH, 2, fmul, FPU_LATENCY),
    "fdiv.d": (ARITH, 2, operator.truediv, FPU_LONG_LATENCY),
    "fsqrt.d": (ARITH, 1, math.sqrt, FPU_LONG_LATENCY),
    "fmin.d": (ARITH, 2, min, FPU_SHORT_LATENCY),
    "fmax.d": (ARITH, 2, max, FPU_SHORT_LATENCY),
    "fsgnj.d": (ARITH, 2, lambda a, b: math.copysign(abs(a), b),
                FPU_MOVE_LATENCY),
    "fsgnjn.d": (ARITH, 2, lambda a, b: math.copysign(abs(a), -b),
                 FPU_MOVE_LATENCY),
    "fsgnjx.d": (ARITH, 2,
                 lambda a, b: abs(a) * (-1.0 if (a < 0) != (b < 0) else 1.0),
                 FPU_MOVE_LATENCY),
    "fmv.d": (ARITH, 1, lambda a: a, FPU_MOVE_LATENCY),
}
#: op -> (kind, source count, operation, latency, compute?, mac?),
#: built once at import: the FPU issues through one lookup instead of
#: testing the op against each class. ``compute`` ops count toward the
#: FPU utilization, ``mac`` ops toward the multiply-accumulate count.
FP_TABLE = {op: entry + (op in FP_COMPUTE_OPS, op in FP_MAC_OPS)
            for op, entry in _DECODE.items()}



class _Loop:
    """FREP sequencer state: a captured body replayed with staggering."""

    __slots__ = ("reps", "n_insn", "body", "pos", "iter", "st_count", "st_mask")

    def __init__(self, reps, n_insn, st_count, st_mask):
        self.reps = reps
        self.n_insn = n_insn
        self.body = []
        self.pos = 0
        self.iter = 0
        self.st_count = st_count
        self.st_mask = st_mask


class FpuSubsystem:
    """In-order FP execution engine attached to one Snitch core."""

    def __init__(self, engine, lsu_slot, streamer=None, name="fpu",
                 queue_depth=FPU_QUEUE_DEPTH):
        self.engine = engine
        self.lsu_slot = lsu_slot
        self.streamer = streamer
        self.name = name
        self.queue = Fifo(queue_depth, name=f"{name}.queue")
        # The stream-register switch, resolved once: FP reg -> lane.
        self._lanes = {} if streamer is None else {
            reg: streamer.lanes[lane] for reg, lane in streamer.reg_map.items()}
        self.fregs = [0.0] * 32
        self._ready = {}          # fp reg -> ready cycle or _WAIT_MEM
        self._loop = None
        self._outstanding = 0     # issued but not completed (incl. loads)
        self._busy_until = 0      # last arithmetic writeback cycle
        self.core = None          # set by the CC for cross-domain writes
        # quiescence state
        self._q_state = 0
        self._q_gen = 0
        self._block = None            # why the last _issue failed
        self._stall_backfill = None   # (sleep cycle, cause) of current nap
        # statistics
        self.compute_ops = 0
        self.mac_ops = 0
        self.issued_ops = 0
        self.stall_stream = 0
        self.stall_raw = 0
        self.stall_lsu = 0
        self.busy_cycles = 0
        self.first_mac_cycle = None
        self.last_mac_cycle = None

    # -- core-side interface ---------------------------------------------

    @property
    def can_accept(self):
        return self.queue.can_push()

    def offload(self, instr, addr=None, int_value=None):
        """Queue an FP instruction (address/int operand pre-resolved).

        Stream-register redirection is sampled here, at decode/offload
        time — toggling the SSR CSR affects only later instructions,
        exactly as in the RTL where the switch sits in the decoder.
        """
        streamed = self.streamer is not None and self.streamer.enabled
        self.queue.push(("op", instr, addr, int_value, streamed))
        if self._q_state:
            self.engine.wake(self)

    def offload_frep(self, reps, n_insn, st_count, st_mask):
        self.queue.push(("frep", reps, n_insn, st_count, st_mask))
        if self._q_state:
            self.engine.wake(self)

    @property
    def drained(self):
        """No queued, looping, or in-flight work (fence condition)."""
        return (not self.queue and self._loop is None
                and self._outstanding == 0
                and self.engine.cycle >= self._busy_until)

    def read_reg(self, idx):
        """Architectural read for the harness (not timing-accurate)."""
        return self.fregs[idx]

    def write_reg(self, idx, value):
        self.fregs[idx] = float(value)

    # -- execution ---------------------------------------------------------

    def tick(self):
        backfill = self._stall_backfill
        if backfill is not None:
            # Replay the counter effects of the napped (identical)
            # failing polls so statistics stay bit-equal with the
            # dense engine. Only long timed RAW stalls nap (stream/LSU
            # stalls keep polling), so the replayed counter is always
            # stall_raw.
            self._stall_backfill = None
            slept = self.engine.cycle - backfill[0] - 1
            if slept > 0:
                self.stall_raw += slept
        micro = self._select()
        if micro is None:
            # No micro-op selectable: sleep. New offloads and memory
            # responses wake us; if arithmetic is still draining, wake
            # at the writeback time so ``drained`` flips at a cycle the
            # engine can fast-forward to.
            if self._busy_until > self.engine.cycle:
                return self._busy_until
            if self._outstanding == 0 and self.core is not None:
                # fully drained: a core napping on fence/halt proceeds
                self.engine.wake(self.core)
            return IDLE
        instr, addr, int_value, streamed, stagger = micro
        self._block = None
        if self._issue(instr, addr, int_value, streamed, stagger):
            self._advance()
            self.engine.note_progress()
            if self._loop is None and not self.queue and self.core is not None:
                # queue drained by this issue: a core napping on a
                # fence/halt must re-evaluate (and re-nap until
                # _busy_until if only writeback time remains)
                self.engine.wake(self.core)
            return None
        block = self._block
        if block is None:
            return None
        if block is _STREAM or block is _LSU or block == _WAIT_MEM:
            # stream back-pressure / LSU grants / load responses resolve
            # within a cycle or two in steady state: polling is cheaper
            # than a sleep/wake round-trip per stall
            return None
        cycle = self.engine.cycle
        if block - cycle < 4:
            return None
        # long timed RAW (writeback latency): wake exactly at readiness
        self._stall_backfill = (cycle, block)  # cause is the ready cycle
        return block

    def _select(self):
        """Pick this cycle's micro-op; manages FREP capture/replay."""
        loop = self._loop
        if loop is not None:
            while len(loop.body) < loop.n_insn and self.queue:
                kind = self.queue.peek()[0]
                if kind != "op":
                    raise SimulationError(f"{self.name}: nested frep is unsupported")
                loop.body.append(self.queue.pop())
            if loop.reps == 0:
                # zero-trip loop: swallow the body, execute nothing
                if len(loop.body) == loop.n_insn:
                    self._loop = None
                return self._select() if self._loop is None else None
            if loop.pos >= len(loop.body):
                return None  # body instruction not yet offloaded
            _, instr, addr, int_value, streamed = loop.body[loop.pos]
            stagger = (loop.iter % loop.st_count) if loop.st_mask else 0
            return instr, addr, int_value, streamed, stagger
        if not self.queue:
            return None
        entry = self.queue.peek()
        if entry[0] == "frep":
            self.queue.pop()
            self._loop = _Loop(entry[1], entry[2], entry[3], entry[4])
            return self._select()
        return entry[1], entry[2], entry[3], entry[4], 0

    def _advance(self):
        """Consume the micro-op slot after a successful issue."""
        loop = self._loop
        if loop is not None:
            loop.pos += 1
            if loop.pos == loop.n_insn:
                loop.pos = 0
                loop.iter += 1
                if loop.iter >= loop.reps:
                    self._loop = None
        else:
            self.queue.pop()

    # -- issue logic ---------------------------------------------------------

    def _sources_ready(self, regs, lanes):
        """True if every source can be read this cycle; else counts the
        first blocking source's stall and returns False."""
        for reg in regs:
            lane = lanes.get(reg)
            if lane is not None:
                if not lane.can_pop:
                    self.stall_stream += 1
                    self._block = _STREAM
                    return False
                continue
            ready = self._ready.get(reg, 0)
            if ready == _WAIT_MEM:
                self.stall_raw += 1
                self._block = _WAIT_MEM
                return False
            if ready > self.engine.cycle:
                self.stall_raw += 1
                self._block = ready
                return False
        return True

    def _read_sources(self, regs, lanes):
        """Source values, in order; a stream register pops its lane."""
        fregs = self.fregs
        return [fregs[reg] if (lane := lanes.get(reg)) is None else lane.pop()
                for reg in regs]

    def _write_dst(self, reg, value, latency, lane):
        if lane is not None:
            lane.push(value)
            return
        self.fregs[reg] = value
        current = self._ready.get(reg, 0)
        ready = self.engine.cycle + latency
        if current != _WAIT_MEM and current > ready:
            ready = current
        self._ready[reg] = ready
        if ready > self._busy_until:
            self._busy_until = ready

    def _issue(self, instr, addr, int_value, streamed, stagger):
        """Try to issue one micro-op; returns False to retry next cycle."""
        kind, n_src, operation, latency, compute, mac = FP_TABLE[instr.op]
        rd, rs1, rs2, rs3 = instr.rd, instr.rs1, instr.rs2, instr.rs3
        if stagger:
            # FREP register staggering: mask bit i offsets operand
            # field i (rd, rs1, rs2, rs3)
            mask = self._loop.st_mask
            if mask & 1:
                rd += stagger
            if mask & 2:
                rs1 += stagger
            if mask & 4:
                rs2 += stagger
            if mask & 8:
                rs3 += stagger
        lanes = self._lanes if streamed else _NO_LANES

        if kind == LOAD or kind == STORE:
            if not self.lsu_slot.idle:
                self.stall_lsu += 1
                self._block = _LSU
                return False
            if kind == LOAD:
                self._ready[rd] = _WAIT_MEM
                self._outstanding += 1
                self.lsu_slot.request(addr, 8, False, sink=self._on_load, tag=rd)
            else:
                if not self._sources_ready((rs2,), lanes):
                    return False
                self.lsu_slot.request(addr, 8, True,
                                      value=self._read_sources((rs2,), lanes)[0])
            self.issued_ops += 1
            return True

        srcs = (rs1, rs2, rs3)[:n_src]
        if not self._sources_ready(srcs, lanes):
            return False
        if kind == TO_INT:
            result = operation(*self._read_sources(srcs, lanes))
            self._outstanding += 1
            self.engine.at(self.engine.cycle + latency, self._complete_to_int,
                           instr.rd, result)
            self.core.int_result_pending(instr.rd)
            self.issued_ops += 1
            return True

        dst_lane = lanes.get(rd)
        if dst_lane is not None and not dst_lane.can_push:
            self.stall_stream += 1
            self._block = _STREAM
            return False
        if kind == FROM_INT:  # int operand captured at offload time
            result = operation(int_value)
        else:
            result = operation(*self._read_sources(srcs, lanes))
        self._write_dst(rd, result, latency, dst_lane)
        self.issued_ops += 1
        if compute:
            self.compute_ops += 1
            self.busy_cycles += 1
        if mac:
            self.mac_ops += 1
            if self.first_mac_cycle is None:
                self.first_mac_cycle = self.engine.cycle
            self.last_mac_cycle = self.engine.cycle
        return True

    def _on_load(self, rd, value):
        if not isinstance(value, float):
            raise SimulationError(
                f"{self.name}: fld got non-float {value!r} (f{rd}); check addresses"
            )
        self.fregs[rd] = value
        self._ready[rd] = self.engine.cycle
        self._outstanding -= 1
        if self.core is not None:
            # delivered at the event phase: a core napping on halt's
            # drain condition sees it this very cycle, as in dense mode
            self.engine.wake(self.core)

    def _complete_to_int(self, rd, value):
        self.core.int_result_deliver(rd, value)
        self._outstanding -= 1

    def reset_stats(self):
        self.compute_ops = 0
        self.mac_ops = 0
        self.issued_ops = 0
        self.stall_stream = 0
        self.stall_raw = 0
        self.stall_lsu = 0
        self.busy_cycles = 0
        self.first_mac_cycle = None
        self.last_mac_cycle = None
