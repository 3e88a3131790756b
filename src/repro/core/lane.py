"""The SSR data-mover lane: address generation + decoupling FIFO.

One lane binds an architectural FP register to a memory stream. Reads
pop from a 5-stage data FIFO refilled by the data mover; writes push
into a write FIFO drained to memory. Back-pressure (full FIFO, busy
port) throttles address generation; an outstanding-request credit
counter prevents FIFO overflow, as in the paper's Fig. 1 (label 4).

The lane holds the running job plus one queued job, fed by the
shadowed configuration interface.
"""

from collections import deque

from repro.core.affine import AffineIterator
from repro.errors import ConfigError, SimulationError
from repro.utils.fifo import Fifo

#: Data FIFO stages, as synthesized in the paper (§IV-C).
DATA_FIFO_DEPTH = 5
#: Queued jobs besides the running one (the shadow config allows 1).
JOB_QUEUE_DEPTH = 1


class SsrLane:
    """An affine-only stream semantic register lane.

    ``tick()`` returns True when the lane did any work this cycle
    (started a job, issued a request); the owning
    :class:`~repro.core.streamer.Streamer` sleeps when every lane
    reports a no-op cycle. FPU-side pops/pushes wake the streamer
    (``_streamer``, set by the streamer) because they unblock a
    back-pressured data mover.
    """

    #: Set by the owning Streamer; standalone lanes have no waker.
    _streamer = None
    #: Set by the CC: the FPU popping/pushing this lane's stream
    #: register — woken when data arrives or write space frees up.
    _consumer = None

    def __init__(self, engine, port, lane_id=0, name="ssr",
                 fifo_depth=DATA_FIFO_DEPTH):
        self.engine = engine
        self.port = port
        self.lane_id = lane_id
        self.name = name
        self.fifo = Fifo(fifo_depth, name=f"{name}.data")
        self.wfifo = Fifo(fifo_depth, name=f"{name}.wdata")
        self.inflight = 0
        self._jobs = deque()
        self._iter = None
        self._job = None
        # statistics
        self.elements_read = 0
        self.elements_written = 0
        self.mem_reads = 0
        self.mem_writes = 0
        self.active_cycles = 0

    # -- job control ----------------------------------------------------

    def enqueue(self, job):
        """Queue a job; returns False (caller must retry) when full."""
        if job.is_indirect or job.is_intersect:
            raise ConfigError(f"{self.name}: plain SSR lane cannot run {job.mode} jobs")
        running = 1 if (self._iter is not None and not self._iter.done) else 0
        if len(self._jobs) + running > JOB_QUEUE_DEPTH:
            return False
        self._jobs.append(job)
        return True

    @property
    def busy(self):
        """Job in progress or queued (the STATUS register view)."""
        return (self._jobs or self.inflight
                or (self._iter is not None and not self._iter.done)
                or bool(self.wfifo))

    @property
    def writes_drained(self):
        """All write-job data has reached memory."""
        if self.wfifo:
            return False
        if self._job is not None and self._job.is_write and not self._iter.done:
            return False
        return not any(j.is_write for j in self._jobs)

    def _start_next_job(self):
        self._job = self._jobs.popleft()
        self._iter = AffineIterator(
            self._job.start, self._job.bounds, self._job.strides,
            self._job.dims, self._job.repeat,
        )

    # -- FPU-side register interface -------------------------------------

    @property
    def can_pop(self):
        """Data available for an FPU read of the stream register."""
        return bool(self.fifo)

    def pop(self):
        self.elements_read += 1
        if self._streamer is not None:
            self.engine.wake(self._streamer)  # FIFO space unblocks the mover
        return self.fifo.pop()

    @property
    def can_push(self):
        """Room for an FPU write to the stream register."""
        return self.wfifo.can_push()

    def push(self, value):
        self.elements_written += 1
        if self._streamer is not None:
            self.engine.wake(self._streamer)  # write data unblocks the drain
        self.wfifo.push(value)

    # -- data mover -------------------------------------------------------

    def tick(self):
        started = False
        if self._iter is None or self._iter.done:
            if self._jobs and self.inflight == 0:
                # keep response ordering simple: start the next job once
                # outstanding responses of the previous one have landed
                self._start_next_job()
                started = True
        it = self._iter
        if it is None or it.done or not self.port.idle:
            return started
        job = self._job
        if job.is_write:
            if self.wfifo:
                addr = it.next_addr()
                value = self.wfifo.pop()
                consumer = self._consumer
                if consumer is not None and consumer._q_state:
                    self.engine.wake(consumer)  # write space freed
                self.port.request(addr, 8, True, value=value)
                self.mem_writes += 1
                self.active_cycles += 1
                self.engine.note_progress()
                return True
        else:
            if len(self.fifo) + self.inflight < self.fifo.depth:
                addr = it.next_addr()
                self.inflight += 1
                self.port.request(addr, 8, False, sink=self._on_data)
                self.mem_reads += 1
                self.active_cycles += 1
                self.engine.note_progress()
                return True
        return started

    def _on_data(self, tag, value):
        self.inflight -= 1
        if self.inflight < 0:
            raise SimulationError(f"{self.name}: negative inflight count")
        consumer = self._consumer
        if consumer is not None and consumer._q_state:
            self.engine.wake(consumer)  # stream data available
        self.fifo.push(value)

    # -- bookkeeping -------------------------------------------------------

    def reset_stats(self):
        self.elements_read = 0
        self.elements_written = 0
        self.mem_reads = 0
        self.mem_writes = 0
        self.active_cycles = 0

