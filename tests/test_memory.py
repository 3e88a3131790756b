"""Unit tests for the memory subsystem: storage, ports, TCDM, DMA."""

import tracemalloc

import pytest

from repro.cluster.cluster import SnitchCluster
from repro.errors import ConfigError, MemoryAccessError, SimulationError
from repro.mem import Dma, IdealMemory, MainMemory, Port, SharedPort, Tcdm, WordMemory
from repro.sim.engine import Engine
from repro.sim.harness import SingleCC


class TestWordMemory:
    def test_word_roundtrip(self):
        m = WordMemory(64)
        m.store(8, 8, 3.25)
        assert m.load(8, 8) == 3.25

    def test_subword_pack(self):
        m = WordMemory(64)
        m.store(0, 4, 0x11223344)
        m.store(4, 4, 0x55667788)
        assert m.load(0, 8) == 0x5566778811223344
        assert m.load(0, 4) == 0x11223344
        assert m.load(4, 4) == 0x55667788
        assert m.load(4, 2) == 0x7788
        assert m.load(6, 2) == 0x5566

    def test_signed_load(self):
        m = WordMemory(16)
        m.store(0, 2, 0xFFFF)
        assert m.load(0, 2, signed=True) == -1
        assert m.load(0, 2, signed=False) == 0xFFFF

    def test_misaligned(self):
        m = WordMemory(64)
        with pytest.raises(MemoryAccessError):
            m.load(3, 4)

    def test_out_of_range(self):
        m = WordMemory(16)
        with pytest.raises(MemoryAccessError):
            m.load(16, 8)
        with pytest.raises(MemoryAccessError):
            m.load(-8, 8)

    def test_subword_load_from_float_rejected(self):
        m = WordMemory(16)
        m.store(0, 8, 1.5)
        with pytest.raises(MemoryAccessError):
            m.load(0, 4)

    def test_subword_store_of_float_rejected(self):
        m = WordMemory(16)
        with pytest.raises(MemoryAccessError):
            m.store(0, 4, 1.5)

    def test_alloc_sequential(self):
        m = WordMemory(64)
        a = m.alloc(8, name="a")
        b = m.alloc(9)
        assert a == 0
        assert b == 8
        assert m.alloc(8) == 24  # 9 bytes rounded to 2 words

    def test_alloc_exhaustion(self):
        m = WordMemory(16)
        m.alloc(16)
        with pytest.raises(MemoryAccessError):
            m.alloc(8)

    def test_reset_allocator(self):
        m = WordMemory(16)
        m.alloc(16, name="x")
        m.reset_allocator()
        assert m.alloc(8) == 0
        assert m.segments == {}

    def test_bulk_floats(self):
        m = WordMemory(64)
        m.write_floats(0, [1.0, 2.0, 3.0])
        assert m.read_floats(0, 3) == [1.0, 2.0, 3.0]

    def test_read_floats_type_check(self):
        m = WordMemory(64)
        with pytest.raises(MemoryAccessError):
            m.read_floats(0, 1)

    def test_odd_size_rejected(self):
        with pytest.raises(MemoryAccessError):
            WordMemory(12)

    @pytest.mark.parametrize("access", [
        lambda m: m.read_words(48, 4),
        lambda m: m.read_floats(48, 4),
        lambda m: m.write_words(48, [5, 6, 7, 8]),
        lambda m: m.write_floats(48, [5.0, 6.0, 7.0, 8.0]),
    ], ids=["read_words", "read_floats", "write_words", "write_floats"])
    def test_bulk_access_past_the_end(self, access):
        """The whole range is checked up front: no short read, no
        partial write, the same error as a single-word access."""
        m = WordMemory(64)
        m.write_floats(48, [1.0, 2.0])
        with pytest.raises(MemoryAccessError, match="out of range"):
            access(m)
        assert m.read_floats(48, 2) == [1.0, 2.0]

    def test_bulk_access_checks_alignment(self):
        m = WordMemory(64)
        with pytest.raises(MemoryAccessError, match="misaligned"):
            m.read_words(4, 1)

    def test_untouched_words_read_as_zero(self):
        """Words grow on touch; the declared size stays the bound."""
        size = 1 << 20
        m = WordMemory(size)
        assert m.load(8 * 1000, 8) == 0
        assert m.load(8 * 1000 + 2, 2) == 0
        assert m.read_words(8 * 2000, 3) == [0, 0, 0]
        m.store(size - 8, 8, 2.5)
        assert m.load(size - 8, 8) == 2.5
        assert m.load(size - 16, 8) == 0
        with pytest.raises(MemoryAccessError):
            m.load(size, 8)
        with pytest.raises(MemoryAccessError):
            m.store(size, 4, 1)


class TestConstructionFootprint:
    """Declared memory costs nothing until a word is touched."""

    @staticmethod
    def _peak_bytes(build):
        tracemalloc.start()
        try:
            built = build()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del built
        return peak

    def test_single_cc(self):
        assert self._peak_bytes(SingleCC) < 1 << 20

    def test_cluster_with_its_own_main_memory(self):
        assert self._peak_bytes(SnitchCluster) < 1 << 20


class TestIdealMemory:
    def test_read_latency(self):
        eng = Engine()
        mem = IdealMemory(eng, 64, latency=2)
        port = mem.new_port("p")
        mem.storage.store(0, 8, 42.0)
        got = []
        port.request(0, 8, False, sink=lambda tag, v: got.append((eng.cycle, v)))
        eng.add(mem)
        for _ in range(4):
            eng.step()
        assert got == [(2, 42.0)]

    def test_write_applied_at_grant(self):
        eng = Engine()
        mem = IdealMemory(eng, 64)
        port = mem.new_port("p")
        port.request(8, 8, True, value=7.0)
        eng.add(mem)
        eng.step()
        assert mem.storage.load(8, 8) == 7.0

    def test_all_ports_granted_same_cycle(self):
        eng = Engine()
        mem = IdealMemory(eng, 64)
        ports = [mem.new_port(f"p{i}") for i in range(4)]
        for i, p in enumerate(ports):
            p.request(8 * i, 8, True, value=float(i))
        eng.add(mem)
        eng.step()
        assert all(p.idle for p in ports)


class TestPort:
    def test_double_request_rejected(self):
        p = Port("p")
        p.request(0, 8, False)
        with pytest.raises(SimulationError):
            p.request(8, 8, False)

    def test_stats(self):
        p = Port("p")
        p.request(0, 8, False)
        p.take()
        p.request(0, 8, True, value=1.0)
        p.take()
        assert p.reads == 1 and p.writes == 1


class TestSharedPort:
    def test_round_robin(self):
        eng = Engine()
        mem = IdealMemory(eng, 128)
        phys = mem.new_port("phys")
        shared = SharedPort("mux", phys, 3)

        for i in range(3):
            shared.slot(i).request(8 * i, 8, True, value=float(i))
        eng.add(shared)
        eng.add(mem)
        for _ in range(5):
            eng.step()
        # all three forwarded over three cycles, round-robin
        assert all(s.idle for s in shared.slots)
        assert mem.storage.load(0, 8) == 0.0
        assert mem.storage.load(16, 8) == 2.0

    def test_wait_accounting(self):
        eng = Engine()
        mem = IdealMemory(eng, 128)
        phys = mem.new_port("phys")
        shared = SharedPort("mux", phys, 2)
        shared.slot(0).request(0, 8, True, value=1.0)
        shared.slot(1).request(8, 8, True, value=2.0)
        eng.add(shared)
        eng.add(mem)
        eng.step()
        assert shared.slot(1).wait_cycles >= 1


class TestTcdm:
    def test_bank_mapping(self):
        eng = Engine()
        t = Tcdm(eng, 1024, 4)
        assert t.bank_of(0) == 0
        assert t.bank_of(8) == 1
        assert t.bank_of(32) == 0

    def test_bank_count_validation(self):
        with pytest.raises(ConfigError):
            Tcdm(Engine(), 1024, 3)

    def test_conflict_serializes(self):
        eng = Engine()
        t = Tcdm(eng, 1024, 4)
        p0, p1 = t.new_port("a"), t.new_port("b")
        t.storage.store(0, 8, 5.0)
        got = []
        p0.request(0, 8, False, sink=lambda tag, v: got.append(("a", eng.cycle)))
        p1.request(0, 8, False, sink=lambda tag, v: got.append(("b", eng.cycle)))
        eng.add(t)
        for _ in range(6):
            eng.step()
        assert len(got) == 2
        assert got[0][1] + 1 == got[1][1]  # second response one cycle later
        assert t.conflict_cycles >= 1

    def test_different_banks_parallel(self):
        eng = Engine()
        t = Tcdm(eng, 1024, 4)
        p0, p1 = t.new_port("a"), t.new_port("b")
        t.storage.write_floats(0, [1.0, 2.0])
        got = []
        p0.request(0, 8, False, sink=lambda tag, v: got.append(v))
        p1.request(8, 8, False, sink=lambda tag, v: got.append(v))
        eng.add(t)
        for _ in range(4):
            eng.step()
        assert sorted(got) == [1.0, 2.0]
        assert t.conflict_cycles == 0

    def test_round_robin_fairness(self):
        eng = Engine()
        t = Tcdm(eng, 1024, 4)
        p0, p1 = t.new_port("a"), t.new_port("b")
        t.storage.store(0, 8, 5.0)
        grants = {"a": 0, "b": 0}

        def make(name, port):
            def sink(tag, v):
                grants[name] += 1
                port.request(0, 8, False, sink=sink)
            return sink

        p0.request(0, 8, False, sink=make("a", p0))
        p1.request(0, 8, False, sink=make("b", p1))
        eng.add(t)
        for _ in range(40):
            eng.step()
        assert abs(grants["a"] - grants["b"]) <= 2


class TestDma:
    def _setup(self):
        eng = Engine()
        t = Tcdm(eng, 4096, 8)
        mm = MainMemory(4096)
        dma = Dma(eng, t, mm)
        eng.add(dma)
        eng.add(t)
        return eng, t, mm, dma

    @pytest.mark.parametrize("copy", [
        lambda dma: dma.copy_in(4096 - 16, 0, 4),
        lambda dma: dma.copy_out(0, 4096 - 16, 4),
        lambda dma: dma.copy_in(0, 4096 - 16, 4),
    ], ids=["main-source", "main-destination", "tcdm-destination"])
    def test_transfer_past_the_end_rejected(self, copy):
        eng, t, mm, dma = self._setup()
        copy(dma)
        with pytest.raises(MemoryAccessError, match="out of range"):
            for _ in range(4):
                eng.step()

    def test_copy_in(self):
        eng, t, mm, dma = self._setup()
        mm.storage.write_floats(0, [float(i) for i in range(20)])
        done = []
        dma.copy_in(0, 64, 20, on_done=lambda x: done.append(eng.cycle))
        while not done:
            eng.step()
        assert t.storage.read_floats(64, 20) == [float(i) for i in range(20)]
        # 20 words at 8/cycle -> 3 beats + harvest
        assert done[0] <= 8

    def test_copy_out(self):
        eng, t, mm, dma = self._setup()
        t.storage.write_floats(0, [1.0, 2.0, 3.0])
        done = []
        dma.copy_out(0, 256, 3, on_done=lambda x: done.append(True))
        while not done:
            eng.step()
        assert mm.storage.read_floats(256, 3) == [1.0, 2.0, 3.0]

    def test_2d_transfer(self):
        eng, t, mm, dma = self._setup()
        for r in range(3):
            mm.storage.write_floats(r * 80, [float(r * 10 + c) for c in range(4)])
        done = []
        dma.copy_in_2d(0, 0, row_words=4, rows=3, src_stride=80,
                       dst_stride=32, on_done=lambda x: done.append(True))
        while not done:
            eng.step()
        for r in range(3):
            assert t.storage.read_floats(32 * r, 4) == \
                [float(r * 10 + c) for c in range(4)]

    def test_duplex_channels(self):
        eng, t, mm, dma = self._setup()
        mm.storage.write_floats(0, [1.0] * 8)
        t.storage.write_floats(1024, [2.0] * 8)
        done = []
        dma.copy_in(0, 0, 8, on_done=lambda x: done.append("in"))
        dma.copy_out(1024, 512, 8, on_done=lambda x: done.append("out"))
        for _ in range(10):
            eng.step()
        assert set(done) == {"in", "out"}

    def test_misaligned_rejected(self):
        eng, t, mm, dma = self._setup()
        with pytest.raises(ConfigError):
            dma.copy_in(4, 0, 2)

    def test_zero_words_rejected(self):
        eng, t, mm, dma = self._setup()
        with pytest.raises(ConfigError):
            dma.copy_in(0, 0, 0)

    def test_dma_core_fair_share(self):
        """A core hammering one bank still progresses during DMA."""
        eng, t, mm, dma = self._setup()
        port = t.new_port("core")
        mm.storage.write_floats(0, [0.0] * 256)
        t.storage.store(0, 8, 9.0)
        grants = []

        def sink(tag, v):
            grants.append(eng.cycle)
            if len(grants) < 20:
                port.request(0, 8, False, sink=sink)

        port.request(0, 8, False, sink=sink)
        dma.copy_in(0, 0, 256)
        for _ in range(120):
            eng.step()
        assert len(grants) >= 20  # not starved by the DMA
