"""Hierarchical memory model: shared HBM behind N cluster DMAs.

The paper's single cluster is served by an *ideal* 512-bit duplex main
memory (§IV-B); a scaled-out system (Occamy-style, PAPERS.md) instead
places many clusters behind a shared HBM whose aggregate bandwidth is
finite. This module models that hierarchy at two fidelities:

- :class:`HbmFabric` — a cycle-level engine component. Every cluster
  DMA (bounded to 8 words/cycle/direction by its own 512-bit beat,
  :data:`repro.mem.dma.BEAT_WORDS`) must *claim* each direction's
  word-level operations against a per-cycle aggregate budget — and
  against its own per-direction link width
  (``cluster_words_per_cycle``) — before they reach the TCDM; denied
  words retry next cycle. Grants are first-come first-served in tick order — a
  deliberately simple contention model (no reordering, no per-bank
  HBM state).
- :meth:`HbmConfig.cluster_bandwidth` — the analytic counterpart used
  by the compiled backend: with ``n`` clusters actively moving data, each
  sees ``min(per-cluster link, aggregate / n)`` words per cycle.

Both fidelities share one :class:`HbmConfig`, so the cycle-accurate
and compiled multi-cluster paths agree on the memory system by
construction (the same way both backends share ``plan_tiles``).
"""

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.mem.dma import BEAT_WORDS
from repro.sim.engine import IDLE

#: Default aggregate HBM bandwidth (64-bit words per cycle). Eight
#: 512-bit pseudo-channel equivalents: enough that one cluster is never
#: throttled, while 8+ duplex-saturating clusters start to contend.
HBM_WORDS_PER_CYCLE = 64

#: Cycles per cluster for the scale-out synchronization step (the
#: inter-cluster analogue of the intra-cluster BARRIER_CYCLES).
SYNC_CYCLES = 32


@dataclass(frozen=True)
class HbmConfig:
    """Bandwidth contract of the shared main memory.

    ``words_per_cycle`` is the aggregate HBM budget across all clusters
    and both directions; ``cluster_words_per_cycle`` the per-cluster
    DMA link width (per direction); ``sync_cycles`` the per-cluster
    scale-out synchronization cost charged by the combine step.
    """

    words_per_cycle: int = HBM_WORDS_PER_CYCLE
    cluster_words_per_cycle: int = BEAT_WORDS
    sync_cycles: int = SYNC_CYCLES

    def __post_init__(self):
        if self.words_per_cycle < 1 or self.cluster_words_per_cycle < 1:
            raise ConfigError("HBM bandwidths must be >= 1 word/cycle")
        if self.sync_cycles < 0:
            raise ConfigError("sync_cycles must be >= 0")

    def cluster_bandwidth(self, n_active):
        """Analytic per-cluster words/cycle with ``n_active`` movers.

        The duplex per-cluster link is ``cluster_words_per_cycle`` per
        direction; contention divides the aggregate budget fairly.
        Returns a float (fractional bandwidth models time-sliced
        grants).
        """
        if n_active <= 0:
            return float(self.cluster_words_per_cycle)
        return min(float(self.cluster_words_per_cycle),
                   self.words_per_cycle / n_active)

    def contention_factor(self, n_active):
        """Slowdown of one cluster's DMA under ``n_active`` movers."""
        return self.cluster_words_per_cycle / self.cluster_bandwidth(n_active)


class HbmFabric:
    """Cycle-level aggregate-bandwidth arbiter shared by cluster DMAs.

    Register it on the shared engine, then point each cluster's
    :class:`~repro.mem.dma.Dma` at it via ``dma.fabric``. The
    per-cycle budget resets lazily on the first ``claim()`` of each
    cycle, so the fabric itself never needs ticking and sleeps through
    the whole run — claims arrive in DMA tick order either way.
    """

    name = "hbm"
    _q_state = 0
    _q_gen = 0

    def __init__(self, engine, config=None):
        self.engine = engine
        self.config = config if config is not None else HbmConfig()
        self._budget = self.config.words_per_cycle
        self._budget_cycle = None  # lazily reset on first claim per cycle
        self.words_granted = 0
        self.words_denied = 0
        self.denied_claims = 0

    def attach(self, dma):
        """Wire one cluster DMA to this fabric."""
        dma.fabric = self
        return dma

    def claim(self, dma, n_words, direction=None):
        """Grant up to ``n_words`` of this cycle's budget (FCFS).

        A DMA claims each direction's beat separately, and every claim
        is additionally capped at the claimant's per-direction link
        width (``cluster_words_per_cycle``), so a narrowed per-cluster
        link throttles the cycle-level simulation the same way it
        throttles the analytic model. ``denied_claims`` counts claims
        that were cut short (a DMA can be denied at most once per
        direction per cycle; several DMAs may be in the same cycle).
        """
        cycle = self.engine.cycle
        if cycle != self._budget_cycle:
            # lazy per-cycle budget reset: lets the fabric stay asleep
            # while its clusters' DMAs are idle (no per-cycle tick)
            self._budget = self.config.words_per_cycle
            self._budget_cycle = cycle
        link = self.config.cluster_words_per_cycle
        granted = min(n_words, self._budget, link)
        self._budget -= granted
        self.words_granted += granted
        denied = n_words - granted
        self.words_denied += denied
        if denied:
            self.denied_claims += 1
        return granted

    def tick(self):
        """No per-cycle work: the budget resets lazily inside claim()."""
        return IDLE
