"""Cycle-stepped simulation engine with a quiescence protocol.

Components register in tick order; each simulated cycle the engine
first delivers events scheduled for that cycle (memory responses,
wakeups), then ticks components once. Tick order encodes the
intra-cycle dataflow:

1. cores issue instructions and place LSU requests,
2. FPU sequencers issue FP micro-ops and place FPU-LSU requests,
3. stream lanes generate their memory requests,
4. the DMA engine issues its beat,
5. shared-port arbiters forward one winner each,
6. memories grant requests and schedule responses.

The engine runs in one of two modes (``Engine(mode=...)``):

``"dense"``
    The legacy reference loop: every registered component is ticked
    every cycle. Kept verbatim for differential testing — the
    event-driven mode must produce bit-identical results, identical
    cycle counts, and identical statistics (see
    ``tests/test_engine_equiv.py``).

``"event"`` (the default)
    The quiescence-aware loop. A component's ``tick()`` may return a
    *sleep state*:

    - ``None`` — ACTIVE: tick again next cycle (the legacy contract;
      components that have not been converted simply stay active);
    - :data:`IDLE` — nothing to do until an explicit wake-up: the
      component is removed from the active set and re-ticked only
      after ``Engine.wake()`` (a *wake edge*) or an event delivered to
      an object it owns (see :meth:`Engine.own`);
    - an ``int`` cycle ``c`` — SLEEP_UNTIL: deterministically waiting
      (e.g. an FPU pipeline draining) until cycle ``c``; the engine
      re-activates the component at ``c`` via its wake wheel.

    ``step()`` ticks only active components. When the active set is
    empty, :meth:`run` *fast-forwards* the clock straight to the next
    event-wheel or wake-wheel cycle instead of spinning through empty
    cycles.

    The soundness contract (enforced by the differential tests, spelled
    out in docs/ARCHITECTURE.md): a component may return a sleep state
    only from a tick that had **no side effects** — no counters
    incremented, no requests issued, no state advanced — and every
    channel through which its next tick could become a non-no-op must
    wake it: ``Port.request`` wakes the serving memory/arbiter,
    ``Port.take`` (the grant) wakes the requester, FIFO pushes/pops
    wake the decoupled consumer/producer, and event callbacks wake the
    component owning the callback receiver.

A watchdog raises :class:`DeadlockError` when no component reports
progress for a configurable number of *executed steps* — misconfigured
streams fail loudly instead of spinning forever, and fast-forwarded
idle windows (which execute no steps) never trip it.
"""

import heapq

from repro.errors import ConfigError, DeadlockError
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

#: Engine modes.
EVENT = "event"
DENSE = "dense"
MODES = (EVENT, DENSE)

#: Internal quiescence states (``component._q_state``).
_ACTIVE = 0
_SLEEP_IDLE = 1
_SLEEP_TIMED = 2


class _IdleSentinel:
    """Singleton sleep-state marker returned by quiescent ``tick()``s."""

    __slots__ = ()

    def __repr__(self):
        return "IDLE"


#: Sleep-state: nothing to do until an explicit wake edge.
IDLE = _IdleSentinel()

#: Quiet ticks a component must accumulate before an IDLE return
#: actually removes it from the active set. Oscillating components
#: (an arbiter fed one request per cycle, an FPU touched every few
#: cycles) otherwise pay a sleep/wake round-trip per event, which
#: costs more than the no-op ticks it saves.
SLEEP_HYSTERESIS = 4

#: Default engine mode; scoped per block by :class:`engine_mode`.
DEFAULT_MODE = EVENT


class engine_mode:
    """Context manager scoping :data:`DEFAULT_MODE` (for benchmarks/tests).

    ``with engine_mode("dense"): ...`` makes every engine constructed
    in the block use the legacy dense loop, restoring the previous
    default on exit.
    """

    def __init__(self, mode):
        if mode not in MODES:
            raise ConfigError(f"unknown engine mode {mode!r}; expected {MODES}")
        self.mode = mode
        self._saved = None

    def __enter__(self):
        global DEFAULT_MODE
        self._saved = DEFAULT_MODE
        DEFAULT_MODE = self.mode
        return self

    def __exit__(self, *exc):
        global DEFAULT_MODE
        DEFAULT_MODE = self._saved
        return False


class Engine:
    """The simulation clock, event wheel, component list, and wake wheel."""

    def __init__(self, watchdog=10000, mode=None):
        mode = DEFAULT_MODE if mode is None else mode
        if mode not in MODES:
            raise ConfigError(f"unknown engine mode {mode!r}; expected {MODES}")
        self.mode = mode
        self.cycle = 0
        self.watchdog = watchdog
        self._wheel = {}
        self._components = []
        self._progress_cycle = 0
        self._no_progress_steps = 0
        self._ticking = None          # component currently inside tick()
        self._component_progress = {}  # component label -> last progress cycle
        self._owner = {}              # id(object) -> owning component
        self._wake_heap = []          # (cycle, gen, seq, component)
        self._wake_seq = 0
        self._n_active = 0
        # The active list is maintained incrementally: sleepers are
        # lazily deleted (compacted on the next rebuild), wakers queue
        # in _woken_pending and merge in by registration index.
        self._active_list = []
        self._active_stale = 0
        self._woken_pending = []
        self._step_wakes = []         # mid-step wakes still due this cycle
        self._in_step = False
        self._step_pos = float("-inf")
        self._next_index = 0
        self._front_index = 0
        self._tracer = _trace.attach_engine(self)
        # Bind the mode's step loop once; step() stays the public name.
        self.step = self._step_event if mode == EVENT else self._step_dense

    # -- component registry ----------------------------------------------

    def _register(self, component):
        component._q_state = _ACTIVE
        component._q_gen = getattr(component, "_q_gen", 0) + 1
        component._q_lazy = 0
        component._q_listed = False
        self._n_active += 1
        self._woken_pending.append(component)
        self._owner[id(component)] = component
        if self._tracer is not None:
            self._tracer.on_add(component)

    def add(self, component):
        """Register a component (ticked in registration order)."""
        self._register(component)
        self._next_index += 1
        component._q_index = self._next_index
        self._components.append(component)
        return component

    def add_front(self, component):
        """Register a component ticked *before* all current ones.

        Control runtimes (e.g. the cluster's DMCC model) use this so
        launches they perform take effect the same cycle.
        """
        self._register(component)
        self._front_index -= 1
        component._q_index = self._front_index
        self._components.insert(0, component)
        return component

    def remove(self, component):
        """Unregister a component (e.g. a finished control runtime)."""
        self._components.remove(component)
        if component._q_state == _ACTIVE:
            self._n_active -= 1
        component._q_state = _ACTIVE
        component._q_gen += 1  # invalidate any pending wake-wheel entry
        if component._q_listed:
            try:
                self._active_list.remove(component)
            except ValueError:
                pass
            component._q_listed = False
        if component in self._woken_pending:
            self._woken_pending = [c for c in self._woken_pending
                                   if c is not component]
        self._owner.pop(id(component), None)
        if self._tracer is not None:
            self._tracer.on_remove(component)

    def own(self, obj, component):
        """Declare that events delivered to ``obj`` wake ``component``.

        Used for sub-objects that receive event callbacks on behalf of
        a registered component — e.g. a stream lane's ``_on_data``
        belongs to its :class:`~repro.core.streamer.Streamer`.
        """
        self._owner[id(obj)] = component

    # -- event wheel -------------------------------------------------------

    def at(self, cycle, fn, *args):
        """Schedule ``fn(*args)`` to run at the start of ``cycle``."""
        self._wheel.setdefault(cycle, []).append((fn, args))

    def after(self, delay, fn, *args):
        """Schedule ``fn(*args)`` ``delay`` cycles from now."""
        self.at(self.cycle + delay, fn, *args)

    # -- quiescence protocol ----------------------------------------------

    def wake(self, component):
        """Wake edge: return a sleeping component to the active set.

        Cheap no-op when the target is active (or not a registered
        component), so producers call it unconditionally on request /
        grant / push / pop edges.
        """
        try:
            state = component._q_state
        except AttributeError:
            return
        if state:
            component._q_state = _ACTIVE
            component._q_gen += 1
            component._q_lazy = 0
            self._n_active += 1
            if component._q_listed:
                self._active_stale -= 1  # back alive in place, no surgery
            else:
                # compacted out of the active list: queue for re-insert,
                # and — mid-sweep with its slot still ahead — merge it
                # into the current tick sweep so same-cycle wake edges
                # preserve the dense engine's intra-cycle dataflow
                # order. (A still-listed sleeper needs neither: the
                # sweep picks it up at its own slot.)
                self._woken_pending.append(component)
                if self._in_step and component._q_index > self._step_pos:
                    heapq.heappush(self._step_wakes,
                                   (component._q_index, component))
            if self._tracer is not None:
                self._tracer.on_wake(component)

    def _rebuild_active(self):
        """Fold pending wakes into the active list, dropping sleepers.

        Cost is proportional to the *active* population plus the wake
        burst — never to the total component count — so a mostly-idle
        32-cluster system sweeps only its working set.
        """
        fresh = []
        for comp in self._woken_pending:
            if not comp._q_state and not comp._q_listed:
                comp._q_listed = True
                fresh.append(comp)
        self._woken_pending.clear()
        kept = []
        for comp in self._active_list:
            if comp._q_state:
                comp._q_listed = False  # lazily deleted sleeper
            else:
                kept.append(comp)
        self._active_stale = 0
        if not fresh:
            self._active_list = kept
            return
        fresh.sort(key=lambda c: c._q_index)
        merged = []
        i = j = 0
        n_kept, n_fresh = len(kept), len(fresh)
        while i < n_kept and j < n_fresh:
            if kept[i]._q_index <= fresh[j]._q_index:
                merged.append(kept[i])
                i += 1
            else:
                merged.append(fresh[j])
                j += 1
        merged.extend(kept[i:])
        merged.extend(fresh[j:])
        self._active_list = merged

    def _next_wake(self):
        """The earliest pending event/wake cycle, or None if none exist."""
        heap = self._wake_heap
        while heap:
            _cycle, gen, _seq, comp = heap[0]
            if comp._q_state == _SLEEP_TIMED and comp._q_gen == gen:
                break
            heapq.heappop(heap)  # stale: component was woken meanwhile
        best = heap[0][0] if heap else None
        if self._wheel:
            soonest = min(self._wheel)
            if best is None or soonest < best:
                best = soonest
        return best

    # -- progress tracking -------------------------------------------------

    def note_progress(self):
        """Components call this when they do useful work (watchdog feed)."""
        self._progress_cycle = self.cycle
        self._no_progress_steps = 0
        self._component_progress[self._label(self._ticking)] = self.cycle

    @staticmethod
    def _label(component):
        if component is None:
            return "event-wheel"
        name = getattr(component, "name", None)
        return name if name else type(component).__name__

    # -- step loops --------------------------------------------------------

    def _step_dense(self):
        """Advance one cycle, ticking every component (legacy loop)."""
        events = self._wheel.pop(self.cycle, None)
        self._no_progress_steps += 1
        if events:
            self._progress_cycle = self.cycle
            self._no_progress_steps = 0
            self._component_progress["event-wheel"] = self.cycle
            for fn, args in events:
                fn(*args)
        for comp in self._components:
            self._ticking = comp
            comp.tick()
        self._ticking = None
        self.cycle += 1

    def _step_event(self):
        """Advance one cycle, ticking only active components."""
        cycle = self.cycle
        heap = self._wake_heap
        tracer = self._tracer
        while heap and heap[0][0] <= cycle:
            _c, gen, _seq, comp = heapq.heappop(heap)
            if comp._q_state == _SLEEP_TIMED and comp._q_gen == gen:
                comp._q_state = _ACTIVE
                comp._q_gen += 1
                comp._q_lazy = 0
                self._n_active += 1
                if comp._q_listed:
                    self._active_stale -= 1
                else:
                    self._woken_pending.append(comp)
                if tracer is not None:
                    tracer.on_wake(comp)
        events = self._wheel.pop(cycle, None)
        self._no_progress_steps += 1
        if events:
            self._progress_cycle = cycle
            self._no_progress_steps = 0
            self._component_progress["event-wheel"] = cycle
            for fn, args in events:
                # an event mutating a sleeping component's state wakes it
                receiver = getattr(fn, "__self__", None)
                if receiver is not None:
                    owner = self._owner.get(id(receiver))
                    if owner is not None and owner._q_state:
                        self.wake(owner)
                fn(*args)
        # Compact only when sleepers dominate a *large* list (or new
        # components must merge in): a lazily-deleted sleeper costs one
        # flag check per cycle, so wake/sleep ping-pong never pays list
        # surgery, and small systems simply never compact.
        if self._woken_pending or (
                self._active_stale > 8
                and self._active_stale * 2 > len(self._active_list)):
            self._rebuild_active()
        active = self._active_list
        step_wakes = self._step_wakes
        self._in_step = True
        self._step_pos = float("-inf")
        for comp in active:
            if step_wakes:
                self._drain_step_wakes(comp._q_index, cycle)
            if comp._q_state:
                continue  # lazily-deleted sleeper
            self._step_pos = comp._q_index
            self._ticking = comp
            ret = comp.tick()
            if ret is not None:
                if ret is IDLE:
                    # sleep hysteresis (see SLEEP_HYSTERESIS)
                    lazy = comp._q_lazy + 1
                    comp._q_lazy = lazy
                    if lazy < SLEEP_HYSTERESIS:
                        continue
                    comp._q_state = _SLEEP_IDLE
                    self._n_active -= 1
                    self._active_stale += 1
                    if tracer is not None:
                        tracer.on_sleep(comp, timed=False)
                elif ret > cycle:
                    comp._q_state = _SLEEP_TIMED
                    comp._q_wake = ret
                    self._wake_seq += 1
                    heapq.heappush(heap, (ret, comp._q_gen,
                                          self._wake_seq, comp))
                    self._n_active -= 1
                    self._active_stale += 1
                    if tracer is not None:
                        tracer.on_sleep(comp, timed=True)
                # ret <= cycle: treated as ACTIVE (defensive)
        if step_wakes:
            self._drain_step_wakes(None, cycle)
        self._in_step = False
        self._ticking = None
        self.cycle = cycle + 1

    def _drain_step_wakes(self, up_to_index, cycle):
        """Tick mid-sweep woken (unlisted) components in index order.

        Rare path: only components compacted out of the active list and
        woken while the sweep is running land here; ``up_to_index``
        bounds the drain so they interleave correctly with the sweep
        (None drains everything at the end of the cycle).
        """
        step_wakes = self._step_wakes
        tracer = self._tracer
        while step_wakes and (up_to_index is None
                              or step_wakes[0][0] < up_to_index):
            comp = heapq.heappop(step_wakes)[1]
            if comp._q_state:
                continue
            self._step_pos = comp._q_index
            self._ticking = comp
            ret = comp.tick()
            if ret is not None:
                # same sleep handling as the main sweep, except these
                # components are unlisted, so they never count as stale
                # list entries
                if ret is IDLE:
                    lazy = comp._q_lazy + 1
                    comp._q_lazy = lazy
                    if lazy < SLEEP_HYSTERESIS:
                        continue
                    comp._q_state = _SLEEP_IDLE
                    self._n_active -= 1
                    if tracer is not None:
                        tracer.on_sleep(comp, timed=False)
                elif ret > cycle:
                    comp._q_state = _SLEEP_TIMED
                    comp._q_wake = ret
                    self._wake_seq += 1
                    heapq.heappush(self._wake_heap,
                                   (ret, comp._q_gen, self._wake_seq, comp))
                    self._n_active -= 1
                    if tracer is not None:
                        tracer.on_sleep(comp, timed=True)

    # -- diagnostics -------------------------------------------------------

    def progress_report(self):
        """Diagnostic summary: who last made progress, what is pending.

        Used by the deadlock watchdog so that CI failures from
        misconfigured streams are diagnosable from the log alone. In
        event mode, sleeping components are listed with their sleep
        state (``@idle`` or ``@wake=<cycle>``).
        """
        lines = []
        if self._component_progress:
            latest = sorted(self._component_progress.items(),
                            key=lambda kv: -kv[1])
            parts = [f"{name}@{cyc}" for name, cyc in latest[:8]]
            lines.append("last progress by component: " + ", ".join(parts))
        else:
            lines.append("no component ever reported progress")
        silent = [self._label(c) for c in self._components
                  if self._label(c) not in self._component_progress]
        if silent:
            lines.append("components that never progressed: "
                         + ", ".join(sorted(set(silent))[:8]))
        sleeping = []
        for comp in self._components:
            state = getattr(comp, "_q_state", _ACTIVE)
            if state == _SLEEP_IDLE:
                sleeping.append(f"{self._label(comp)}@idle")
            elif state == _SLEEP_TIMED:
                wake = getattr(comp, "_q_wake", "?")
                sleeping.append(f"{self._label(comp)}@wake={wake}")
        if sleeping:
            shown = ", ".join(sleeping[:8])
            more = f" (+{len(sleeping) - 8} more)" if len(sleeping) > 8 else ""
            lines.append(f"sleeping components: {shown}{more}")
        if self._wheel:
            pending = sorted(self._wheel)
            shown = ", ".join(str(c) for c in pending[:8])
            more = f" (+{len(pending) - 8} more)" if len(pending) > 8 else ""
            lines.append(f"pending event-wheel cycles: {shown}{more}")
        else:
            lines.append("event wheel empty")
        return "; ".join(lines)

    # -- main loop ---------------------------------------------------------

    def run(self, done, max_cycles=50_000_000):
        """Step until ``done()`` returns True; returns elapsed cycles.

        ``done`` is checked at cycle boundaries. Raises
        :class:`DeadlockError` if the watchdog expires first.

        In event mode, whenever the active set is empty the clock
        fast-forwards to the next event-wheel/wake-wheel cycle; a fully
        quiescent system with nothing pending is a deadlock and raises
        immediately. ``done()`` conditions must therefore be functions
        of simulation state or of time points registered as wake-ups
        (every converted component guarantees this; see
        docs/ARCHITECTURE.md).

        With the metrics registry on, each completed call adds one run,
        its executed steps, and its fast-forwarded cycles to the
        ``repro_engine_*`` counters.
        """
        start = self.cycle
        fast_forward = self.mode == EVENT
        skipped = 0
        while not done():
            if self.cycle - start >= max_cycles:
                raise DeadlockError(
                    f"simulation exceeded max_cycles={max_cycles}; "
                    + self.progress_report()
                )
            if self._no_progress_steps > self.watchdog:
                raise DeadlockError(
                    f"no progress for {self.watchdog} cycles (cycle {self.cycle}); "
                    "likely a stalled stream or unsatisfiable dependency; "
                    + self.progress_report()
                )
            if fast_forward and self._n_active == 0:
                target = self._next_wake()
                if target is None:
                    raise DeadlockError(
                        f"all components quiescent at cycle {self.cycle} with "
                        "no pending events or wake-ups; "
                        + self.progress_report()
                    )
                if target > self.cycle:
                    skipped += target - self.cycle
                    if self._tracer is not None:
                        self._tracer.fast_forward(self.cycle, target)
                    self.cycle = target
                    continue  # done() may hold at the jumped-to boundary
            self.step()
        elapsed = self.cycle - start
        if _metrics.ENABLED:
            _metrics.absorb_engine_run(self.mode, elapsed - skipped, skipped)
        return elapsed
