"""Shared plumbing for the repository benchmark.

- :class:`Spans` records benchmark-side spans (name, start, end,
  parent, request id) around the calls the benchmark makes into each
  layer of ``repro``. Spans stay in memory; :meth:`Spans.write` hands
  them to :class:`repro.telemetry.trace.TraceRecorder` once, at the
  end, and :meth:`Spans.self_time` attributes self time per layer: a
  span's duration minus the part of it that its child spans cover.
- :class:`Outcome` counts operations attempted and failed, and keeps
  metric values and report lines for one run.
- Small helpers: seed derivation, percentiles, peak RSS, the paper
  error of Fig. 4b speedups.
"""

import itertools
import resource
import threading
import time

import numpy as np

#: The program's layers, named after the ``repro`` modules they cover.
LAYERS = ("serve", "compiler", "backends", "sim", "multicluster", "stream",
          "formats", "workloads", "telemetry")

#: CsrMV speedups over BASE the paper reports in Fig. 4b, as
#: ``repro.eval.fig4b`` records them: SSR, ISSR-32, ISSR-16.
PAPER_SPEEDUP = (1.29, 6.0, 7.2)

#: The four CsrMV variant/width series of Fig. 4b, BASE first.
SERIES = (("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16))


def sub_seed(seed, *labels):
    """A deterministic 31-bit seed derived from ``seed`` and ``labels``."""
    rng = np.random.default_rng([int(seed)] + [int(x) for x in labels])
    return int(rng.integers(0, 2**31 - 1))


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0..100); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb():
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss counts KiB on Linux


def paper_error_pct(cycles):
    """Mean relative error (%) of measured against paper speedups.

    ``cycles`` holds one matrix's CsrMV cycle counts for :data:`SERIES`
    in order; the speedups are BASE cycles over each other series'.
    """
    base = cycles[0]
    errors = [abs(base / c - paper) / paper
              for c, paper in zip(cycles[1:], PAPER_SPEEDUP)]
    return 100.0 * sum(errors) / len(errors)


class Spans:
    """In-memory span recorder for benchmark-side layer boundaries.

    A disabled recorder costs one attribute check per span. Spans
    opened with :meth:`span` nest per thread. :meth:`begin` and
    :meth:`end` record a span that starts on one thread and ends on
    another (a serve request, from submit to resolution); it is
    parented to the span open on the thread that began it.
    """

    def __init__(self):
        self.enabled = False
        #: (id, parent id, layer, name, start ns, request id, end ns)
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer, name, req=None):
        """Context manager around one call into ``layer``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, layer, name, req)

    def begin(self, layer, name, req=None):
        """Open a cross-thread span; returns its handle (None when off)."""
        if not self.enabled:
            return None
        stack = self._stack()
        sid = next(self._ids)
        record = (sid, stack[-1] if stack else None, layer, name,
                  time.perf_counter_ns(), req)
        with self._lock:
            self._open[sid] = record
        return sid

    def end(self, sid):
        """Close a span opened by :meth:`begin`."""
        if sid is None:
            return
        t1 = time.perf_counter_ns()
        with self._lock:
            self.spans.append(self._open.pop(sid) + (t1,))

    def _push(self):
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _pop(self, record):
        t1 = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans.append(record + (t1,))

    def self_time(self):
        """{layer: self time in seconds} over every recorded span."""
        children = {}
        for span in self.spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append(span)
        totals = {}
        for sid, _parent, layer, _name, t0, _req, t1 in self.spans:
            covered = _covered(t0, t1, children.get(sid, ()))
            totals[layer] = totals.get(layer, 0.0) + (t1 - t0 - covered) / 1e9
        return totals

    def write(self, path):
        """Write every span as Chrome-trace JSON through ``TraceRecorder``."""
        from repro.telemetry.trace import TraceRecorder

        rec = TraceRecorder()
        pid = rec.process("perfbench")
        origin = min((span[4] for span in self.spans), default=0)
        for sid, parent, layer, name, t0, req, t1 in sorted(
                self.spans, key=lambda span: span[4]):
            args = {"span": sid, "parent": parent}
            if req is not None:
                args["req"] = req
            rec.complete(pid, rec.thread(pid, layer), layer, name,
                         (t0 - origin) / 1e3, (t1 - t0) / 1e3, args=args)
        return rec.write(path)


def _covered(t0, t1, kids):
    """Nanoseconds of ``[t0, t1)`` covered by the union of ``kids``."""
    covered = 0
    reach = t0
    for lo, hi in sorted((max(k[4], t0), min(k[6], t1)) for k in kids):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class _Span:
    __slots__ = ("spans", "layer", "name", "req", "state")

    def __init__(self, spans, layer, name, req):
        self.spans = spans
        self.layer = layer
        self.name = name
        self.req = req

    def __enter__(self):
        self.state = self.spans._push()
        return self

    def __exit__(self, *exc_info):
        sid, parent, t0 = self.state
        self.spans._pop((sid, parent, self.layer, self.name, t0, self.req))
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class Outcome:
    """Operations attempted and failed, metrics and report lines of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.failures = []
        self.lines = []

    def op(self, ok, what):
        """Count one checked operation; keep ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def note(self, line):
        self.lines.append(line)

    def set(self, name, value):
        self.metrics[name] = float(value)


class Context:
    """What one workload run needs: its arguments and its span recorder."""

    def __init__(self, seed, seconds, workdir, corrupt=False, scale=1.0):
        self.seed = seed
        #: Measured time of one pass over the workload.
        self.seconds = seconds
        #: Scratch directory inside the checkout, removed after the run.
        self.workdir = workdir
        #: Corrupt the first checked result (the checks' self-test).
        self.corrupt = corrupt
        #: Input-size multiplier (the self-tests run tiny inputs).
        self.scale = scale
        self.spans = Spans()

    def take_corruption(self):
        """True exactly once when the run must corrupt a result."""
        corrupt, self.corrupt = self.corrupt, False
        return corrupt
