"""Banked tightly-coupled data memory (TCDM) with conflict arbitration.

The Snitch cluster's TCDM has 32 banks totalling 256 KiB (§II-C); 64-bit
words interleave across banks (bank = word mod 32). Each bank serves one
request per cycle; simultaneous requests to the same bank arbitrate
round-robin and losers retry, which is the mechanism behind the paper's
observed utilization drop from 0.8 to 0.71 in the cluster (§IV-B: "TCDM
bank conflicts, accented by the random bank access patterns of
indirection").

The cluster DMA accesses the TCDM through a 512-bit wide port claiming
8 consecutive banks per beat; core requests colliding with the DMA beat
lose arbitration that cycle.
"""

from repro.errors import ConfigError
from repro.isa.isa import LOAD_LATENCY
from repro.mem.memory import WordMemory
from repro.mem.ports import Port
from repro.sim.engine import IDLE

#: Paper's cluster configuration.
DEFAULT_BANKS = 32
DEFAULT_SIZE = 256 * 1024


class Tcdm:
    """Word-interleaved multi-bank memory with per-bank arbitration."""

    _q_state = 0
    _q_gen = 0

    def __init__(self, engine, size_bytes=DEFAULT_SIZE, n_banks=DEFAULT_BANKS,
                 name="tcdm", latency=LOAD_LATENCY):
        if n_banks < 1 or n_banks & (n_banks - 1):
            raise ConfigError(f"TCDM bank count must be a power of two, got {n_banks}")
        self.engine = engine
        self.storage = WordMemory(size_bytes, name=name)
        self.n_banks = n_banks
        self.latency = latency
        self.name = name
        self.ports = []
        self._rr = {}
        self.conflict_cycles = 0
        self.dma_beats = 0
        self._dma_words = None    # bank -> DMA word submitted this cycle
        self._dma_grant = None    # the DMA's callback moving a won word
        self._dma_last_won = {}   # bank -> DMA won last contested cycle

    def new_port(self, name):
        port = Port(f"{self.name}.{name}")
        port.engine = self.engine
        port.server = self
        self.ports.append(port)
        self._rr = {}  # reset arbitration state on topology change
        return port

    def bank_of(self, addr):
        return (addr >> 3) & (self.n_banks - 1)

    # -- DMA wide access ------------------------------------------------

    def dma_submit(self, words, grant):
        """Submit this cycle's DMA words for per-bank arbitration.

        ``words`` maps a bank to the DMA's word for it (opaque here);
        a word whose bank wins is handed to ``grant(word)``, which
        moves it. DMA and core ports alternate on contested banks — the
        DMA is a peer in round-robin arbitration, not a preemptor.
        """
        self._dma_words = words
        self._dma_grant = grant
        self.dma_beats += 1
        self.engine.wake(self)

    # -- arbitration ----------------------------------------------------

    def tick(self):
        mask = self.n_banks - 1
        pending = {}  # bank -> [(port index, port)], in port order
        for i, port in enumerate(self.ports):
            req = port.req
            if req is not None:
                bank = (req.addr >> 3) & mask
                group = pending.get(bank)
                if group is None:
                    pending[bank] = [(i, port)]
                else:
                    group.append((i, port))
        dma_words = self._dma_words
        if dma_words is None:
            if not pending:
                return IDLE
            banks = set(pending)
        else:
            self._dma_words = None
            banks = set(pending) | set(dma_words)

        engine = self.engine
        storage = self.storage
        due = engine.cycle + self.latency
        # Banks are granted in the iteration order of this set (as
        # built above): it fixes the event-wheel order of same-cycle
        # responses, and which of a DMA word's main-memory read and
        # write comes first when a cycle's IN and OUT words alias.
        for bank in banks:
            group = pending.get(bank)
            if dma_words is not None:
                word = dma_words.get(bank)
                if word is not None:
                    if not group:
                        self._dma_grant(word)
                        continue
                    if self._dma_last_won.get(bank):
                        self._dma_last_won[bank] = False
                        self.conflict_cycles += 1  # the DMA word waits
                    else:
                        self._dma_last_won[bank] = True
                        self.conflict_cycles += len(group)
                        self._dma_grant(word)
                        continue
            if len(group) == 1:
                winner = group[0][1]
            else:
                winner = self._arbitrate(bank, group)
                self.conflict_cycles += len(group) - 1
            req = winner.take()
            if req.is_write:
                storage.store(req.addr, req.size, req.value)
                if req.sink is not None:
                    engine.at(due, req.sink, req.tag, None)
            else:
                engine.at(due, req.sink, req.tag,
                          storage.load(req.addr, req.size, req.signed))

    def _arbitrate(self, bank, group):
        """Round-robin pick among ``(port index, port)`` pairs contending
        for ``bank``, listed in port order."""
        last = self._rr.get(bank, -1)
        index, winner = group[0]
        for i, port in group:
            if i > last:
                index, winner = i, port
                break
        self._rr[bank] = index
        return winner
