"""Span/trace timeline export in Chrome-trace (Perfetto) JSON.

One :class:`TraceRecorder` collects *trace events* — the
``chrome://tracing`` / Perfetto JSON array format — from three layers:

- the **event engine**: per-component run/sleep intervals (opened on
  wake edges, closed on sleep edges — exactly the quiescence-protocol
  transitions, so tracing adds nothing to the per-tick path), DMA
  transfer spans, and quiescence fast-forward windows. Timestamps are
  *simulated cycles* (1 cycle rendered as 1 µs), which makes the
  export bit-stable for a fixed-seed run — the golden-file test
  ``tests/test_telemetry_trace.py`` pins that;
- the **streaming tiled executor**: each pass renders its modeled
  double-buffered schedule as two lanes (``dma`` and ``compute``), so
  the prefetch/compute overlap — and the exposed first prefetch — is
  visible tile by tile;
- the **serve layer**: request lifecycle spans
  (submit→queue→batch→worker→respond) as async events correlated by a
  per-request ``trace id`` that crosses the fork boundary into the
  worker process and back (worker-side execute spans are shipped home
  in the result payload and merged under the same id).

Recording is process-global and off by default: :func:`start` installs
a recorder, :func:`active` is the one-load hot-path check, and
:func:`stop` detaches it (finalizing open intervals). Serialization is
canonical (sorted keys, fixed separators) so identical runs produce
byte-identical files.
"""

import itertools
import json

#: Module-global recorder (None = tracing off). Kept a single module
#: attribute so hot paths pay one LOAD to discover tracing is off.
_RECORDER = None


def active():
    """True when a recorder is installed (the hot-path check)."""
    return _RECORDER is not None


def recorder():
    """The installed :class:`TraceRecorder`, or None."""
    return _RECORDER


def start(recorder_instance=None):
    """Install (and return) the process-global trace recorder."""
    global _RECORDER
    _RECORDER = recorder_instance or TraceRecorder()
    return _RECORDER


def stop():
    """Detach the recorder (finalizing open spans); returns it."""
    global _RECORDER
    rec = _RECORDER
    _RECORDER = None
    if rec is not None:
        rec.finalize()
    return rec


class TraceRecorder:
    """An append-only Chrome-trace event list with stable pid/tid maps.

    Process and thread ids are allocated in first-use order, so a
    deterministic workload produces a deterministic file. ``write``
    emits canonical JSON (sorted keys, no whitespace) — the bit-
    stability contract of the golden-file test.
    """

    def __init__(self):
        self.events = []
        self._procs = {}
        self._threads = {}
        self._trace_ids = itertools.count(1)
        self._tracers = []
        self._stream_clock = 0

    # -- identity ----------------------------------------------------------

    def process(self, name):
        """The pid for a process lane named ``name`` (created once)."""
        pid = self._procs.get(name)
        if pid is None:
            pid = self._procs[name] = len(self._procs) + 1
            self.events.append({"name": "process_name", "ph": "M",
                                "pid": pid, "tid": 0,
                                "args": {"name": name}})
        return pid

    def thread(self, pid, name):
        """The tid for thread ``name`` under ``pid`` (created once)."""
        tid = self._threads.get((pid, name))
        if tid is None:
            tid = self._threads[(pid, name)] = sum(
                1 for key in self._threads if key[0] == pid) + 1
            self.events.append({"name": "thread_name", "ph": "M",
                                "pid": pid, "tid": tid,
                                "args": {"name": name}})
        return tid

    def new_trace_id(self, prefix="req"):
        """A fresh correlation id (deterministic per recorder)."""
        return f"{prefix}-{next(self._trace_ids)}"

    # -- event emitters ----------------------------------------------------

    def complete(self, pid, tid, cat, name, ts, dur, args=None):
        """One ``ph: X`` complete event (ts/dur in µs or cycles)."""
        event = {"ph": "X", "pid": pid, "tid": tid, "cat": cat,
                 "name": name, "ts": ts, "dur": dur}
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(self, pid, tid, cat, name, ts, args=None):
        """One ``ph: i`` thread-scoped instant event."""
        event = {"ph": "i", "s": "t", "pid": pid, "tid": tid, "cat": cat,
                 "name": name, "ts": ts}
        if args:
            event["args"] = args
        self.events.append(event)

    def async_begin(self, pid, tid, cat, name, trace_id, ts, args=None):
        """Open one async span correlated by ``trace_id``."""
        event = {"ph": "b", "pid": pid, "tid": tid, "cat": cat,
                 "name": name, "id": trace_id, "ts": ts}
        if args:
            event["args"] = args
        self.events.append(event)

    def async_end(self, pid, tid, cat, name, trace_id, ts, args=None):
        """Close the async span opened under ``trace_id``."""
        event = {"ph": "e", "pid": pid, "tid": tid, "cat": cat,
                 "name": name, "id": trace_id, "ts": ts}
        if args:
            event["args"] = args
        self.events.append(event)

    def add_events(self, raw_events, pid, tid):
        """Merge foreign events (e.g. worker-side spans) under pid/tid.

        The events keep their own ts/name/args/id; only the process
        and thread assignment is rewritten — how worker execute spans
        land in the service's timeline with their trace ids intact.
        """
        for event in raw_events:
            merged = dict(event)
            merged["pid"] = pid
            merged["tid"] = tid
            self.events.append(merged)

    # -- export ------------------------------------------------------------

    def finalize(self):
        """Flush every attached tracer's open intervals."""
        for tracer in self._tracers:
            tracer.finalize()
        self._tracers.clear()

    def to_chrome(self):
        """The Chrome-trace JSON object (finalizes open spans)."""
        self.finalize()
        return {"traceEvents": list(self.events),
                "displayTimeUnit": "ms",
                "otherData": {"generator": "repro.telemetry"}}

    def dumps(self):
        """Canonical serialization — byte-stable for identical runs."""
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":"))

    def write(self, path):
        """Write the canonical Chrome-trace JSON to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.dumps())
        return path


# -- engine integration ------------------------------------------------------

def attach_engine(engine):
    """Engine hook: an :class:`EngineTracer`, or None when tracing is off."""
    if _RECORDER is None:
        return None
    return EngineTracer(_RECORDER, engine)


class EngineTracer:
    """Run/sleep intervals + DMA spans + fast-forwards for one engine.

    Intervals follow the quiescence protocol: a component is "running"
    from registration (or a wake edge) until it sleeps; the interval
    closes as a ``ph: X`` event on the component's own thread lane.
    Components never converted to the protocol simply show one long
    interval — exactly what they cost the engine.
    """

    def __init__(self, rec, engine):
        self.recorder = rec
        self.engine = engine
        seq = len([t for t in rec._procs if t.startswith("engine")]) + 1
        self.pid = rec.process(f"engine{seq} ({engine.mode})")
        self.engine_tid = rec.thread(self.pid, "engine")
        self._open = {}   # id(component) -> (component, start cycle)
        self._tids = {}
        rec._tracers.append(self)

    def _tid(self, component):
        tid = self._tids.get(id(component))
        if tid is None:
            tid = self.recorder.thread(self.pid,
                                       self.engine._label(component))
            self._tids[id(component)] = tid
        return tid

    def on_add(self, component):
        """Registration: the component's run interval opens now."""
        self._open[id(component)] = (component, self.engine.cycle)

    def on_wake(self, component):
        """Wake edge: a new run interval opens (idempotent)."""
        if id(component) not in self._open:
            self._open[id(component)] = (component, self.engine.cycle)

    def on_sleep(self, component, timed):
        """Sleep edge: close the run interval (zero-length ones dropped)."""
        entry = self._open.pop(id(component), None)
        if entry is None:
            return
        start = entry[1]
        now = self.engine.cycle
        if now > start:
            self.recorder.complete(
                self.pid, self._tid(component), "engine", "run",
                start, now - start,
                args={"sleep": "timed" if timed else "idle"})

    def on_remove(self, component):
        """Unregistration closes the interval like a sleep edge."""
        self.on_sleep(component, timed=False)

    def fast_forward(self, start, target):
        """One quiescence fast-forward window on the engine lane."""
        self.recorder.complete(self.pid, self.engine_tid, "engine",
                               "fast-forward", start, target - start,
                               args={"cycles": target - start})

    def dma_transfer(self, dma, transfer, start):
        """One completed DMA transfer span on the DMA's channel lane."""
        now = self.engine.cycle
        tid = self.recorder.thread(self.pid,
                                   f"{dma.name}.{transfer.direction}")
        self.recorder.complete(
            self.pid, tid, "dma", "transfer", start,
            max(now - start, 1),
            args={"words": transfer.total_words,
                  "direction": transfer.direction})

    def finalize(self):
        """Close every still-open interval at the engine's final cycle."""
        now = self.engine.cycle
        for component, start in list(self._open.values()):
            if now > start:
                self.recorder.complete(
                    self.pid, self._tid(component), "engine", "run",
                    start, now - start, args={"sleep": "open"})
        self._open.clear()


# -- streaming executor integration ------------------------------------------

def stream_pass(kernel, pass_id, tiles, compute, dma, critical):
    """Render one streaming pass's modeled schedule as dma/compute lanes.

    ``compute``/``dma`` are the per-tile cycles the executor priced,
    ``critical`` their :func:`repro.mem.dma.overlap`: tile ``i``'s
    compute starts where the tiles before it end (tile 0's after its
    exposed prefetch) and prefetch ``i+1`` with it, so Perfetto shows
    which tiles hide their DMA and which stall. Passes append
    sequentially on the recorder's stream clock.
    """
    rec = _RECORDER
    if rec is None or not compute:
        return
    pid = rec.process("stream")
    tid_dma = rec.thread(pid, "dma")
    tid_cmp = rec.thread(pid, "compute")
    base = rec._stream_clock
    rec.complete(pid, tid_dma, "stream", f"prefetch t0 p{pass_id}",
                 base, dma[0], args={"tile": list(tiles[0]),
                                     "pass": pass_id})
    # where each tile's critical path starts, then where the pass ends
    clock = list(itertools.accumulate(critical, initial=base))
    for i in range(len(compute)):
        start = clock[i] + (dma[0] if i == 0 else 0)
        rec.complete(pid, tid_cmp, "stream", f"compute t{i} p{pass_id}",
                     start, compute[i],
                     args={"tile": list(tiles[i]), "pass": pass_id})
        if i + 1 < len(compute):
            rec.complete(pid, tid_dma, "stream",
                         f"prefetch t{i + 1} p{pass_id}",
                         start, dma[i + 1],
                         args={"tile": list(tiles[i + 1]),
                               "pass": pass_id})
    rec._stream_clock = clock[-1]
