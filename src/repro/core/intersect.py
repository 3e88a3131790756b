"""The intersection lane: merge-based index matching for sparse-sparse.

Models the sparse fiber intersector of the *Sparse Stream Semantic
Registers* follow-on (arXiv:2305.05559, §V of PAPERS.md): two sorted
index streams are walked by a two-pointer merge comparator at one
comparison per cycle, and matched index pairs drive *positional*
fetches into both value arrays, turning a sparse-sparse dot product's
index matching into background data movement.

Structure (the ISSR analogue of Fig. 1/2 of the base paper):

- each *side* (a, b) re-uses the ISSR front end: the affine iterator
  walks its index array as 64-bit words into a decoupling FIFO, and an
  index serializer (in raw mode) extracts 16/32-bit indices;
- the **comparator** pops the smaller head index (both on a match) —
  one merge step per cycle — and, on a match, emits the pair of
  element *positions* into per-side match FIFOs;
- per side, a data fetcher turns matched positions into value fetches
  at ``data_base + 8 * position``, filling the data FIFO the FPU pops
  through the mapped stream register (ft0 = a values, ft1 = b values
  via the :class:`MatchStream` companion lane);
- index fetches and data fetches share one memory port per side
  through a round-robin mux, exactly like the ISSR's shared port — so
  the streamed peak rate is again index-width-bound (2/3 at 32-bit,
  4/5 at 16-bit).

Two job modes support data-dependent loop bounds without unbounded
buffering (the count is unknown until the merge finishes):

- :data:`~repro.core.config.INTERSECT_COUNT` runs the merge over the
  index streams only and latches the match count, readable through
  ``REG_MATCH_COUNT`` once the lane goes idle — the *symbolic* pass;
- :data:`~repro.core.config.INTERSECT_STREAM` re-runs the merge with
  data fetches enabled, streaming exactly the matched value pairs —
  the *numeric* pass, bounded by the now-known count.

A job terminates as soon as either side is exhausted (no further
matches are possible).
"""

from collections import deque
from typing import NamedTuple

import numpy as np

from repro.core.config import INTERSECT_STREAM
from repro.core.lane import DATA_FIFO_DEPTH, JOB_QUEUE_DEPTH
from repro.core.serializer import IndexSerializer
from repro.errors import ConfigError, SimulationError
from repro.utils.fifo import Fifo

#: 64-bit index words buffered ahead of each side's serializer.
INDEX_FIFO_DEPTH = 4
#: Matched positions buffered between the comparator and data fetch.
MATCH_FIFO_DEPTH = 4


class _Side:
    """One operand side: index stream front end + positional data fetch."""

    def __init__(self, unit, port, label):
        self.unit = unit
        self.port = port
        self.label = label
        self.idx_fifo = Fifo(INDEX_FIFO_DEPTH, name=f"{unit.name}.{label}.idx")
        self.pos_fifo = Fifo(MATCH_FIFO_DEPTH, name=f"{unit.name}.{label}.pos")
        self.data_fifo = Fifo(DATA_FIFO_DEPTH, name=f"{unit.name}.{label}.data")
        self.serializer = None
        self.data_base = 0
        self.idx_addr = 0
        self.idx_words_requested = 0
        self.idx_inflight = 0
        self.data_inflight = 0
        self.position = 0          # ordinal of the next head element
        self._last_pick_idx = False
        # statistics
        self.idx_reads = 0
        self.mem_reads = 0
        self.elements_read = 0

    def start(self, idx_base, count, index_bits, data_base):
        """Arm the side for a new job."""
        self.serializer = IndexSerializer(idx_base, count, index_bits,
                                          data_base=0, raw=True)
        self.data_base = data_base
        self.idx_addr = self.serializer.first_word_addr
        self.idx_words_requested = 0
        self.position = 0
        self.idx_fifo.clear()
        self.pos_fifo.clear()
        self._last_pick_idx = False

    # -- comparator interface ------------------------------------------------

    @property
    def head_ready(self):
        """An index is buffered and comparable."""
        ser = self.serializer
        return ser is not None and ser.can_emit

    @property
    def exhausted(self):
        """All indices of this side consumed."""
        ser = self.serializer
        return ser is None or ser.done

    @property
    def head(self):
        return self.serializer.head_index

    def consume(self):
        """Pop the head index; returns its element position."""
        self.serializer.next_address()
        pos = self.position
        self.position += 1
        return pos

    # -- per-cycle data movement ---------------------------------------------

    def refill(self):
        """Feed the serializer from the index-word FIFO; True if fed."""
        ser = self.serializer
        if ser is not None and ser.needs_word and self.idx_fifo:
            ser.feed(self.idx_fifo.pop())
            return True
        return False

    def tick_port(self, stream_data):
        """Issue at most one memory request (RR between index and data).

        Returns True when a request was issued (quiescence activity).
        """
        if not self.port.idle:
            return False
        ser = self.serializer
        want_idx = (ser is not None
                    and self.idx_words_requested < ser.words_needed
                    and len(self.idx_fifo) + self.idx_inflight
                    < self.idx_fifo.depth)
        want_data = (stream_data and self.pos_fifo
                     and len(self.data_fifo) + self.data_inflight
                     < self.data_fifo.depth)
        if want_idx and (not want_data or not self._last_pick_idx):
            self.port.request(self.idx_addr, 8, False, sink=self._on_idx_word)
            self.idx_addr += 8
            self.idx_words_requested += 1
            self.idx_inflight += 1
            self.idx_reads += 1
            self._last_pick_idx = True
            self.unit.engine.note_progress()
            return True
        elif want_data:
            pos = self.pos_fifo.pop()
            self.data_inflight += 1
            self.port.request(self.data_base + 8 * pos, 8, False,
                              sink=self._on_data)
            self.mem_reads += 1
            self._last_pick_idx = False
            self.unit.engine.note_progress()
            return True
        return False

    def _on_idx_word(self, tag, word):
        self.idx_inflight -= 1
        if self.idx_inflight < 0:
            raise SimulationError(
                f"{self.unit.name}.{self.label}: negative index inflight")
        self.idx_fifo.push(word)

    def _on_data(self, tag, value):
        self.data_inflight -= 1
        if self.data_inflight < 0:
            raise SimulationError(
                f"{self.unit.name}.{self.label}: negative data inflight")
        unit = self.unit
        consumer = unit._consumer
        if consumer is not None and consumer._q_state:
            unit.engine.wake(consumer)  # matched value available
        self.data_fifo.push(value)

    @property
    def drained(self):
        """No buffered or in-flight work besides unpopped data."""
        return (self.idx_inflight == 0 and self.data_inflight == 0
                and not self.pos_fifo)

    def reset_stats(self):
        self.idx_reads = 0
        self.mem_reads = 0
        self.elements_read = 0


class MatchStream:
    """The b-side companion lane: exposes matched b values as a stream.

    Registered as the streamer's lane 1 so the FPU reads matched
    b-side values through ft1; all configuration and simulation state
    lives in the owning :class:`IntersectLane` (lane 0 / ft0).
    """

    def __init__(self, unit):
        self.unit = unit
        self.lane_id = 1
        self.name = f"{unit.name}.b"

    @property
    def can_pop(self):
        """Matched b value available for the FPU."""
        return bool(self.unit.side_b.data_fifo)

    def pop(self):
        """Pop the next matched b value (wakes the sleeping streamer)."""
        unit = self.unit
        unit.side_b.elements_read += 1
        if unit._streamer is not None:
            unit.engine.wake(unit._streamer)
        return unit.side_b.data_fifo.pop()

    @property
    def can_push(self):
        """The intersection unit has no write path."""
        return False

    def push(self, value):
        """Reject FPU writes (no write path)."""
        raise ConfigError(f"{self.name}: intersection streams are read-only")

    def enqueue(self, job):
        """Reject jobs; the unit is configured through lane window 0."""
        raise ConfigError(
            f"{self.name}: configure the intersection unit via lane 0")

    def tick(self):
        """No-op: the owning unit ticks both sides."""

    @property
    def busy(self):
        """Tracked by the owning unit (lane 0)."""
        return False

    @property
    def writes_drained(self):
        """Always true: the unit has no write path."""
        return True

    # -- statistics (collected per lane by the harness) ---------------------

    @property
    def elements_read(self):
        """Matched b values popped by the FPU."""
        return self.unit.side_b.elements_read

    elements_written = 0
    mem_writes = 0
    active_cycles = 0

    @property
    def mem_reads(self):
        """B-side value fetches."""
        return self.unit.side_b.mem_reads

    @property
    def idx_reads(self):
        """B-side index word fetches."""
        return self.unit.side_b.idx_reads

    def reset_stats(self):
        """Side stats are reset by the owning unit."""


class IntersectLane:
    """The merge-based intersection unit, exposed as stream lane 0.

    The FPU pops matched a-side values through the mapped register
    (ft0); :attr:`partner` (a :class:`MatchStream`) exposes the matched
    b-side values (ft1). Configuration uses lane window 0:
    ``REG_BOUND_0``/``REG_BOUND_1`` hold the a/b element counts,
    ``REG_DATA_BASE``/``REG_DATA_BASE_B`` the value array bases,
    ``REG_IDX_BASE_B`` the b index base, and a write to
    ``REG_ISECT_CNT``/``REG_ISECT_STR`` (value = a index base) launches
    a count/stream job. ``REG_MATCH_COUNT`` returns the latched match
    count of the last finished job.
    """

    #: Set by the owning Streamer; standalone units have no waker.
    _streamer = None
    #: Set by the CC: the FPU popping the matched-value streams.
    _consumer = None

    def __init__(self, engine, port_a, port_b, lane_id=0, name="isect"):
        self.engine = engine
        self.name = name
        self.lane_id = lane_id
        self.side_a = _Side(self, port_a, "a")
        self.side_b = _Side(self, port_b, "b")
        #: Sub-objects receiving event callbacks on this lane's behalf
        #: (the streamer maps them to itself via Engine.own).
        self.event_receivers = (self.side_a, self.side_b)
        self.partner = MatchStream(self)
        self._jobs = deque()
        self._job = None
        self._merge_done = True
        self.match_count = 0
        # statistics
        self.merge_steps = 0
        self.active_cycles = 0
        self.elements_written = 0
        self.mem_writes = 0

    # -- job control ---------------------------------------------------------

    def enqueue(self, job):
        """Queue an intersection job; False (retry) when the queue is full."""
        if not job.is_intersect:
            raise ConfigError(
                f"{self.name}: intersection lane only runs intersect jobs, "
                f"got {job.mode!r}")
        if job.bounds[1] < 1:
            raise ConfigError(
                f"{self.name}: b-side element count must be >= 1 "
                f"(REG_BOUND_1), got {job.bounds[1]}")
        running = 1 if self._job_active() else 0
        if len(self._jobs) + running > JOB_QUEUE_DEPTH:
            return False
        self._jobs.append(job)
        return True

    def _job_active(self):
        if self._job is None:
            return False
        return not (self._merge_done and self.side_a.drained
                    and self.side_b.drained)

    @property
    def busy(self):
        """Job queued or in flight (the STATUS register view)."""
        return bool(self._jobs) or self._job_active()

    @property
    def writes_drained(self):
        """Always true: the intersection unit never writes memory."""
        return True

    def _start_next_job(self):
        job = self._job = self._jobs.popleft()
        self.side_a.start(job.start, job.bounds[0], job.index_bits,
                          job.data_base)
        self.side_b.start(job.idx_base_b, job.bounds[1], job.index_bits,
                          job.data_base_b)
        self.match_count = 0
        self._merge_done = False

    # -- FPU-side register interface (a values on ft0) -----------------------

    @property
    def can_pop(self):
        """Matched a value available for the FPU."""
        return bool(self.side_a.data_fifo)

    def pop(self):
        """Pop the next matched a value (wakes the sleeping streamer)."""
        self.side_a.elements_read += 1
        if self._streamer is not None:
            self.engine.wake(self._streamer)
        return self.side_a.data_fifo.pop()

    @property
    def can_push(self):
        """The intersection unit has no write path."""
        return False

    def push(self, value):
        """Reject FPU writes (no write path)."""
        raise ConfigError(f"{self.name}: intersection streams are read-only")

    # -- simulation ----------------------------------------------------------

    def tick(self):
        """One cycle: refill serializers, merge one step, move data.

        Tick order within the unit (see docs/ARCHITECTURE.md): serializer
        refill from the index-word FIFOs, then at most ONE comparator
        step, then one memory request per side (RR index/data mux).
        """
        started = False
        if not self._job_active():
            if self._jobs:
                self._start_next_job()
                started = True
            else:
                return False
        stream = self._job.mode == INTERSECT_STREAM
        a, b = self.side_a, self.side_b
        fed_a = a.refill()
        fed_b = b.refill()
        merged = self._merge_step(stream)
        issued_a = a.tick_port(stream)
        issued_b = b.tick_port(stream)
        return (started or fed_a or fed_b or merged
                or issued_a or issued_b)

    def _merge_step(self, stream):
        """At most one two-pointer merge step per cycle; True if stepped."""
        if self._merge_done:
            return False
        a, b = self.side_a, self.side_b
        # Termination: a fully consumed side ends the job (no further
        # matches possible); the other side's remaining indices are not
        # fetched beyond what is already in flight.
        if (a.exhausted and not a.head_ready) or \
                (b.exhausted and not b.head_ready):
            self._merge_done = True
            return True  # state change: the job may now complete
        if not a.head_ready or not b.head_ready:
            return False
        ha, hb = a.head, b.head
        if ha == hb:
            if stream and not (a.pos_fifo.can_push()
                               and b.pos_fifo.can_push()):
                return False  # match FIFO backpressure throttles the merge
            pa = a.consume()
            pb = b.consume()
            if stream:
                a.pos_fifo.push(pa)
                b.pos_fifo.push(pb)
            self.match_count += 1
        elif ha < hb:
            a.consume()
        else:
            b.consume()
        self.merge_steps += 1
        self.active_cycles += 1
        self.engine.note_progress()
        return True

    # -- statistics ----------------------------------------------------------

    @property
    def elements_read(self):
        """Matched a values popped by the FPU."""
        return self.side_a.elements_read

    @property
    def mem_reads(self):
        """A-side value fetches."""
        return self.side_a.mem_reads

    @property
    def idx_reads(self):
        """Index word fetches, both sides."""
        return self.side_a.idx_reads + self.side_b.idx_reads

    def reset_stats(self):
        """Zero the merge and per-side traffic counters."""
        self.merge_steps = 0
        self.active_cycles = 0
        self.side_a.reset_stats()
        self.side_b.reset_stats()


def intersect_indices(a_idcs, b_idcs):
    """Reference two-pointer merge; returns (positions_a, positions_b).

    The functional contract of :class:`IntersectLane`: walk both sorted
    index lists, emit the element positions of every matched index pair
    in order, and stop as soon as either list is exhausted. Used by the
    compiled backend's replay and as the unit-test oracle.
    """
    pos_a, pos_b = [], []
    i = j = 0
    na, nb = len(a_idcs), len(b_idcs)
    while i < na and j < nb:
        ai, bj = a_idcs[i], b_idcs[j]
        if ai == bj:
            pos_a.append(i)
            pos_b.append(j)
            i += 1
            j += 1
        elif ai < bj:
            i += 1
        else:
            j += 1
    return pos_a, pos_b


class MergeProfile(NamedTuple):
    """Work profile of a two-pointer merge: ints for one merge
    (:func:`merge_profile`), per-row arrays for :func:`merge_rows`."""

    steps: int
    matches: int
    consumed_a: int
    consumed_b: int


def merge_rows(ptr, a_idcs, b_idcs):
    """Every CSR row's two-pointer merge with one fiber, vectorized.

    Row ``r`` is ``a_idcs[ptr[r]:ptr[r + 1]]``; its indices and
    ``b_idcs`` are sorted and unique. Returns ``(rows, pos_a, pos_b,
    profile)``: the matched pairs, row by row in merge (index) order
    (pair ``t`` of row ``rows[t]`` matches A's element ``pos_a[t]``
    with ``b_idcs[pos_b[t]]``), and a :class:`MergeProfile` whose fields
    are per-row arrays, zero for an empty row.

    ``steps`` counts comparator cycles: every step consumes one index
    (or two on a match), and the merge stops when either side is
    exhausted — so ``steps = consumed_a + consumed_b - matches`` where
    a side's consumption is capped at its last element ``<= min(max_a,
    max_b)``. The analytic models price intersections from it without
    replaying them element by element.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    a = np.asarray(a_idcs, dtype=np.int64)
    b = np.asarray(b_idcs, dtype=np.int64)
    nrows = len(ptr) - 1
    if len(a) == 0 or len(b) == 0:
        empty, zeros = np.zeros(0, np.int64), np.zeros(nrows, np.int64)
        return empty, empty, empty, MergeProfile(zeros, zeros, zeros, zeros)
    row_of = np.repeat(np.arange(nrows), np.diff(ptr))
    pos = np.searchsorted(b, a)  # b's indices below each of a's
    hit = b.take(pos, mode="clip") == a
    pos_a = np.flatnonzero(hit)
    rows = row_of[pos_a]
    matches = np.bincount(rows, minlength=nrows)
    # A row consumes its indices up to min(its last, b's last), those
    # with a b index at or above them, and b's up to its last index.
    consumed_a = np.bincount(row_of[pos < len(b)], minlength=nrows)
    last = ptr[1:] - 1
    consumed_b = np.where(ptr[1:] > ptr[:-1], pos[last] + hit[last], 0)
    return rows, pos_a, pos[pos_a], MergeProfile(
        consumed_a + consumed_b - matches, matches, consumed_a, consumed_b)


def merge_profile(a_idcs, b_idcs):
    """The :class:`MergeProfile` of one merge: :func:`merge_rows`'s
    one-row case, as ints."""
    profile = merge_rows([0, len(a_idcs)], a_idcs, b_idcs)[3]
    return MergeProfile(*(int(field[0]) for field in profile))
