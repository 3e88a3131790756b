"""The Snitch cluster: 8 worker CCs, banked TCDM, DMA, shared I-caches.

Topology per §II-C / Fig. 3: "The cluster contains eight worker CCs
organized into two hives, sharing an L1 instruction cache [...]. Our
TCDM has 32 banks totaling 256 KiB. A 512-bit DMA engine efficiently
moves data blocks between the TCDM and main memory. It is controlled
by a lightweight data movement CC (DMCC)".

The DMCC's control program (tile scheduling, barriers) is modelled as
a Python runtime component (:mod:`repro.cluster.runtime`) rather than
assembled code; the worker cores execute real assembled kernels.
"""

from repro.mem.dma import Dma
from repro.mem.mainmem import MainMemory
from repro.mem.tcdm import Tcdm
from repro.sim.engine import Engine
from repro.snitch.cc import CoreComplex
from repro.snitch.icache import L0ICache, SharedL1

#: Paper configuration.
N_WORKERS = 8
CORES_PER_HIVE = 4


class SnitchCluster:
    """The simulated cluster; construct, then hand to a runtime.

    By default each cluster owns a private :class:`Engine` and
    :class:`MainMemory`. For multi-cluster scale-out
    (:mod:`repro.multicluster`) pass a shared ``engine`` so N clusters
    are stepped in lockstep, and a shared ``mainmem`` so they contend
    for one HBM-like backing store; ``name`` prefixes component labels
    so deadlock progress reports stay unambiguous across clusters.
    """

    def __init__(self, n_workers=N_WORKERS, tcdm_bytes=256 * 1024,
                 n_banks=32, watchdog=200000, ideal_icache=False,
                 engine=None, mainmem=None, name=""):
        self.engine = engine if engine is not None else Engine(watchdog=watchdog)
        self.name = name
        pfx = f"{name}." if name else ""
        self.tcdm = Tcdm(self.engine, tcdm_bytes, n_banks, name=f"{pfx}tcdm")
        self.mainmem = mainmem if mainmem is not None else MainMemory()
        self.dma = Dma(self.engine, self.tcdm, self.mainmem,
                       name=f"{pfx}dma")
        self.n_workers = n_workers

        n_hives = max(1, (n_workers + CORES_PER_HIVE - 1) // CORES_PER_HIVE)
        self.l1is = [SharedL1(self.engine, name=f"{pfx}l1i{h}") for h in range(n_hives)]
        self.ccs = []
        for w in range(n_workers):
            if ideal_icache:
                icache = None
            else:
                icache = L0ICache(self.l1is[w // CORES_PER_HIVE], name=f"{pfx}l0i{w}")
            cc = CoreComplex(self.engine, self.tcdm, icache=icache, name=f"{pfx}cc{w}")
            self.ccs.append(cc)

        # Tick order: control first (runtime registers itself at index 0
        # via register_runtime), then cores/FPUs/lanes, then arbiters,
        # then the DMA (claims banks), then the TCDM, then I-caches.
        for cc in self.ccs:
            self.engine.add(cc.core)
            self.engine.add(cc.fpu)
        for cc in self.ccs:
            self.engine.add(cc.streamer)
        for cc in self.ccs:
            self.engine.add(cc.shared)
        self.engine.add(self.dma)
        self.engine.add(self.tcdm)
        for l1 in self.l1is:
            self.engine.add(l1)

    def reset_stats(self):
        """Zero every core, TCDM-conflict and DMA counter before a run."""
        for cc in self.ccs:
            cc.reset_stats()
        self.tcdm.conflict_cycles = 0
        self.dma.words_moved = 0
        self.dma.busy_cycles = 0

    @property
    def workers_idle(self):
        """Whether every worker core has halted."""
        return all(cc.idle for cc in self.ccs)
