"""Unit tests for the FPU subsystem: latency, FREP, staggering."""

import pytest

from repro.isa import ProgramBuilder
from repro.isa.isa import CSR_CYCLE, FP_OPS
from repro.sim import SingleCC
from repro.snitch.fpu import FP_TABLE


def run(build, fargs=None, args=None):
    sim = SingleCC()
    b = ProgramBuilder()
    build(b, sim)
    stats, _ = sim.run(b.build(), args=args or {}, fargs=fargs or {})
    return sim, stats


def test_decode_table_covers_every_offloaded_op():
    """Every op the core offloads to the FPU has a decode entry."""
    assert set(FP_TABLE) == FP_OPS


class TestArithmetic:
    @pytest.mark.parametrize("op,expect", [
        ("fadd_d", 5.5), ("fsub_d", 0.5), ("fmul_d", 7.5), ("fdiv_d", 1.2),
        ("fmin_d", 2.5), ("fmax_d", 3.0),
    ])
    def test_two_operand(self, op, expect):
        def body(b, sim):
            getattr(b, op)("ft4", "ft2", "ft3")
            b.fsd("ft4", "a0", 0)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 3.0, "ft3": 2.5}, args={"a0": 0})
        assert sim.storage.load(0, 8) == pytest.approx(expect)

    @pytest.mark.parametrize("op,expect", [
        ("fmadd_d", 3.0 * 2.5 + 1.0),
        ("fmsub_d", 3.0 * 2.5 - 1.0),
        ("fnmadd_d", -(3.0 * 2.5) - 1.0),
        ("fnmsub_d", -(3.0 * 2.5) + 1.0),
    ])
    def test_fma_family(self, op, expect):
        def body(b, sim):
            getattr(b, op)("ft5", "ft2", "ft3", "ft4")
            b.fsd("ft5", "a0", 0)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 3.0, "ft3": 2.5, "ft4": 1.0},
                     args={"a0": 0})
        assert sim.storage.load(0, 8) == pytest.approx(expect)

    def test_sign_injection(self):
        def body(b, sim):
            b.fsgnj_d("ft4", "ft2", "ft3")   # |ft2| with sign of ft3
            b.fsd("ft4", "a0", 0)
            b.fmv_d("ft5", "ft2")
            b.fsd("ft5", "a0", 8)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 3.0, "ft3": -1.0}, args={"a0": 0})
        assert sim.storage.load(0, 8) == -3.0
        assert sim.storage.load(8, 8) == 3.0

    def test_sqrt(self):
        def body(b, sim):
            b.fdiv_d("ft3", "ft2", "ft2")
            b.emit("fsqrt.d", rd=4, rs1=2)
            b.fsd("ft4", "a0", 0)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 9.0}, args={"a0": 0})
        assert sim.storage.load(0, 8) == 3.0

    def test_cross_domain_compare(self):
        def body(b, sim):
            b.flt_d("t0", "ft2", "ft3")
            b.feq_d("t1", "ft2", "ft2")
            b.sd("t0", "a0", 0)
            b.sd("t1", "a0", 8)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 1.0, "ft3": 2.0}, args={"a0": 0})
        assert sim.storage.load(0, 8) == 1
        assert sim.storage.load(8, 8) == 1

    def test_fcvt_chain(self):
        def body(b, sim):
            b.li("t0", 7)
            b.fcvt_d_w("ft2", "t0")
            b.fcvt_w_d("t1", "ft2")
            b.sd("t1", "a0", 0)
            b.halt()
        sim, _ = run(body, args={"a0": 0})
        assert sim.storage.load(0, 8) == 7


class TestPipelining:
    def _chain_cycles(self, dependent):
        def body(b, sim):
            # warm up, then time 8 fadds
            b.csrr("s0", CSR_CYCLE)
            for i in range(8):
                if dependent:
                    b.fadd_d("ft2", "ft2", "ft3")
                else:
                    b.fadd_d(4 + i, 2, 3)
            b.fence_fpu()
            b.csrr("s1", CSR_CYCLE)
            b.sub("s2", "s1", "s0")
            b.sd("s2", "a0", 0)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 1.0, "ft3": 1.0}, args={"a0": 0})
        return sim.storage.load(0, 8)

    def test_independent_ops_pipeline(self):
        dep = self._chain_cycles(True)
        indep = self._chain_cycles(False)
        # dependent chain pays ~FPU_LATENCY per op; independent ~1
        assert dep >= indep + 3 * 4

    def test_raw_hazard_correctness(self):
        def body(b, sim):
            b.fadd_d("ft2", "ft2", "ft3")   # 1+1 = 2
            b.fmul_d("ft4", "ft2", "ft2")   # must see 2 -> 4
            b.fsd("ft4", "a0", 0)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 1.0, "ft3": 1.0}, args={"a0": 0})
        assert sim.storage.load(0, 8) == 4.0


class TestFrep:
    def test_simple_repeat(self):
        def body(b, sim):
            b.li("t0", 5)
            b.frep("t0", 1)
            b.fadd_d("ft2", "ft2", "ft3")
            b.fsd("ft2", "a0", 0)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 0.0, "ft3": 2.0}, args={"a0": 0})
        assert sim.storage.load(0, 8) == 10.0

    def test_zero_trip(self):
        def body(b, sim):
            b.li("t0", 0)
            b.frep("t0", 1)
            b.fadd_d("ft2", "ft2", "ft3")   # must be skipped
            b.fsd("ft2", "a0", 0)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 1.5, "ft3": 100.0}, args={"a0": 0})
        assert sim.storage.load(0, 8) == 1.5

    def test_multi_instruction_body(self):
        def body(b, sim):
            b.li("t0", 3)
            b.frep("t0", 2)
            b.fadd_d("ft2", "ft2", "ft4")
            b.fadd_d("ft3", "ft3", "ft5")
            b.fsd("ft2", "a0", 0)
            b.fsd("ft3", "a0", 8)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 0.0, "ft3": 0.0, "ft4": 1.0,
                                  "ft5": 10.0}, args={"a0": 0})
        assert sim.storage.load(0, 8) == 3.0
        assert sim.storage.load(8, 8) == 30.0

    def test_stagger_partial_sums(self):
        """Stagger rd+rs2 across 4 accumulators: sums split round-robin."""
        def body(b, sim):
            for i in range(4):
                b.fcvt_d_w(2 + i, "zero")
            b.li("t0", 8)
            b.frep("t0", 1, stagger_count=4, stagger_mask=0b0101)
            b.fadd_d("ft2", "ft6", "ft2")
            for i in range(4):
                b.fsd(2 + i, "a0", 8 * i)
            b.halt()
        sim, _ = run(body, fargs={"ft6": 1.0}, args={"a0": 0})
        for i in range(4):
            assert sim.storage.load(8 * i, 8) == 2.0  # 8 adds over 4 accs

    def test_stagger_hides_latency(self):
        def time_kernel(n_acc):
            def body(b, sim):
                for i in range(n_acc):
                    b.fcvt_d_w(2 + i, "zero")
                b.fence_fpu()
                b.csrr("s0", CSR_CYCLE)
                b.li("t0", 64)
                b.frep("t0", 1, stagger_count=n_acc, stagger_mask=0b0101)
                b.fadd_d("ft2", "ft10", "ft2")
                b.fence_fpu()
                b.csrr("s1", CSR_CYCLE)
                b.sub("s2", "s1", "s0")
                b.sd("s2", "a0", 0)
                b.halt()
            sim, _ = run(body, fargs={"ft10": 1.0}, args={"a0": 0})
            return sim.storage.load(0, 8)

        assert time_kernel(4) < time_kernel(1) - 100

    def test_frep_after_frep(self):
        def body(b, sim):
            b.li("t0", 4)
            b.frep("t0", 1)
            b.fadd_d("ft2", "ft2", "ft3")
            b.frep("t0", 1)
            b.fadd_d("ft4", "ft4", "ft3")
            b.fsd("ft2", "a0", 0)
            b.fsd("ft4", "a0", 8)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 0.0, "ft3": 1.0, "ft4": 10.0},
                     args={"a0": 0})
        assert sim.storage.load(0, 8) == 4.0
        assert sim.storage.load(8, 8) == 14.0


class TestPseudoDualIssue:
    def test_core_runs_ahead_of_fpu(self):
        """Integer work proceeds while a long FP chain executes."""
        def body(b, sim):
            b.csrr("s0", CSR_CYCLE)
            for _ in range(6):
                b.fdiv_d("ft2", "ft2", "ft3")  # long-latency chain
            b.csrr("s1", CSR_CYCLE)   # core continues immediately
            b.sub("s2", "s1", "s0")
            b.sd("s2", "a0", 0)
            b.fence_fpu()
            b.csrr("s3", CSR_CYCLE)
            b.sub("s3", "s3", "s0")
            b.sd("s3", "a0", 8)
            b.halt()
        sim, _ = run(body, fargs={"ft2": 1e12, "ft3": 2.0}, args={"a0": 0})
        ahead = sim.storage.load(0, 8)
        drained = sim.storage.load(8, 8)
        assert ahead <= 12          # core raced ahead of the divides
        assert drained >= 6 * 12    # fence waited for the chain
