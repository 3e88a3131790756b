"""Memory ports and request arbitration.

A :class:`Port` is a single request/response channel between a
requester (core LSU, FPU LSU, SSR/ISSR data mover, DMA) and a memory
endpoint. One request may be outstanding *at the port* per cycle; the
memory decides when to grant it (the same cycle for an ideal memory, or
after winning bank arbitration in the TCDM).

:class:`SharedPort` models the paper's core-complex topology (§II-C):
"providing an exclusive port to the ISSR while combining the core, FPU,
and SSR requests into another" — several requesters round-robin onto one
physical port.

Quiescence wake edges (see :mod:`repro.sim.engine`): placing a request
wakes the port's ``server`` (the memory or arbiter that grants it), and
a grant (:meth:`Port.take`) wakes the port's ``owner`` (the requesting
component), so both sides may sleep while nothing is in flight.
"""

from repro.errors import SimulationError
from repro.sim.engine import IDLE


class MemRequest:
    """A single in-flight memory request."""

    __slots__ = ("addr", "size", "is_write", "value", "sink", "tag", "signed")

    def __init__(self, addr, size, is_write, value, sink, tag, signed=False):
        self.addr = addr
        self.size = size
        self.is_write = is_write
        self.value = value
        self.sink = sink
        self.tag = tag
        self.signed = signed


class Port:
    """One physical request channel into a memory.

    ``engine``/``server``/``owner`` are the quiescence wiring: the
    serving memory (or :class:`SharedPort`) sets ``server`` so a new
    request wakes it; the core complex sets ``owner`` so a grant wakes
    the requester. All three default to None, in which case the port
    behaves exactly as before (standalone ports in unit tests).
    """

    __slots__ = ("name", "req", "reads", "writes", "wait_cycles",
                 "engine", "server", "owner")

    def __init__(self, name):
        self.name = name
        self.req = None
        self.reads = 0
        self.writes = 0
        self.wait_cycles = 0
        self.engine = None
        self.server = None
        self.owner = None

    @property
    def idle(self):
        """True if the port can accept a new request this cycle."""
        return self.req is None

    def request(self, addr, size, is_write, value=None, sink=None, tag=None, signed=False):
        """Place a request; the port must be idle. Wakes the server."""
        self.forward(MemRequest(addr, size, is_write, value, sink, tag, signed))

    def forward(self, req):
        """Place an existing :class:`MemRequest` (an arbiter passing a
        slot's request downstream); the port must be idle. Wakes the
        server."""
        if self.req is not None:
            raise SimulationError(f"port {self.name}: request while busy")
        self.req = req
        server = self.server
        if server is not None and server._q_state:
            self.engine.wake(server)

    def take(self):
        """Memory side: consume the pending request (on grant).

        Wakes the port's owner — the requester may have gone idle
        waiting for this channel to free up.
        """
        req = self.req
        self.req = None
        if req.is_write:
            self.writes += 1
        else:
            self.reads += 1
        owner = self.owner
        if owner is not None and owner._q_state:
            self.engine.wake(owner)
        return req


class SharedPort:
    """Round-robin multiplexer of several requesters onto one port.

    Each requester gets a :class:`Port`-compatible *slot*; every cycle
    (:meth:`tick`, run after the requesters and before the memory) one
    pending slot request is forwarded to the downstream physical port.
    """

    __slots__ = ("name", "port", "slots", "_rr",            # arbiter state
                 "_q_state", "_q_gen", "_q_wake", "_q_lazy",  # quiescence
                 "_q_index", "_q_listed")

    def __init__(self, name, port, n_slots):
        self.name = name
        self.port = port
        self.slots = [Port(f"{name}.slot{i}") for i in range(n_slots)]
        self._rr = 0
        self._q_state = 0
        self._q_gen = 0
        # Quiescence wiring: a slot request wakes this arbiter, and the
        # downstream grant (port.take by the memory) wakes it to
        # forward the next winner. Slot owners are set by the CC.
        if port.engine is not None:
            port.owner = self
            for slot in self.slots:
                slot.engine = port.engine
                slot.server = self

    def slot(self, index):
        return self.slots[index]

    def tick(self):
        if self.port.idle:
            n = len(self.slots)
            for k in range(n):
                i = (self._rr + k) % n
                slot = self.slots[i]
                if slot.req is not None:
                    self.port.forward(slot.take())
                    self._rr = (i + 1) % n
                    break
        pending = False
        for slot in self.slots:
            if slot.req is not None:
                slot.wait_cycles += 1
                pending = True
        return None if pending else IDLE
