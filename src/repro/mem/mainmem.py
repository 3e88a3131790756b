"""Main memory: the cluster's backing store behind the DMA.

The paper models it as an ideal 512-bit duplex channel (§IV-B: "Our
cluster is served by a 512-bit duplex main memory modeled as ideal"), so
there is no arbitration here — only storage plus a bandwidth contract
that the DMA engine enforces (8 words per cycle per direction).
"""

from repro.mem.memory import WordMemory

#: Default main memory capacity for experiments. Storage grows as words
#: are allocated or stored (see :mod:`repro.mem.memory`), so the
#: declared size is only the bound: it costs nothing until touched.
DEFAULT_SIZE = 64 * 1024 * 1024


class MainMemory:
    """Ideal wide memory accessed exclusively by the DMA engine."""

    def __init__(self, size_bytes=DEFAULT_SIZE, name="main"):
        self.storage = WordMemory(size_bytes, name=name)
        self.name = name

    def alloc(self, n_bytes, name=None):
        return self.storage.alloc(n_bytes, name=name)
