"""The process-wide metrics registry: counters, gauges, histograms.

One labelled metrics surface for the whole system, covering the
event engine (runs, executed steps, fast-forwarded cycles),
:class:`repro.kernels.common.ProgramCache`,
the :class:`repro.eval.parallel.PointCache`, :class:`repro.mem.dma.Dma`
/ :class:`repro.multicluster.hbm.HbmFabric` (words moved, stall
cycles, fabric contention), :mod:`repro.stream` (tiles, bytes, overlap
efficiency) and :mod:`repro.serve` (queue depth, batch sizes,
dedupe/coalesce rates, per-tenant quota rejections). Those component
counters still exist — they are cheap attribute increments on hot
paths — but they are *absorbed* into the registry (via absorb hooks on
completion edges, weakly-tracked live objects, and snapshot-time
collectors) so one :meth:`MetricsRegistry.snapshot` / Prometheus
exposition sees everything.

Overhead contract (policed by ``benchmarks/bench_telemetry.py``):

- **disabled** (the default): hot paths pay at most one module-flag
  check per *completed unit of work* (a DMA transfer, a kernel run, a
  streaming pass — never per cycle or per word), ≤ 3% on the busy E2
  compiled point and on the serve cached path;
- **enabled**: instruments are dict updates keyed by sorted label
  tuples; histograms additionally retain raw samples (up to
  ``sample_cap``) so p50/p99 are *exact*, not bucket-interpolated.

The snapshot is a wire contract (the serve ``metrics`` op streams it
to clients) validated by :func:`validate_snapshot` and pinned by
``tests/test_telemetry_metrics.py`` — extend it deliberately.
"""

import bisect
import math
import threading
import weakref

from repro.errors import ConfigError

#: Snapshot wire-format version (bump on shape changes).
SNAPSHOT_VERSION = 1

#: Default latency-histogram bucket upper bounds, in seconds.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, math.inf)

#: Raw-sample retention cap per histogram series; beyond it the exact
#: percentiles degrade to bucket upper bounds and ``samples_dropped``
#: counts what was not retained.
SAMPLE_CAP = 65536

#: Module-wide switch consulted by the hot-path absorb hooks — kept a
#: plain module attribute so the disabled path is one LOAD + jump.
ENABLED = False


def _label_key(labels):
    """Canonical hashable identity of one label set."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Metric:
    """Base class: one named family of labelled series."""

    kind = "abstract"

    def __init__(self, registry, name, help, unit=None):
        self.registry = registry
        self.name = name
        self.help = help
        self.unit = unit
        self._series = {}

    def _labels_dict(self, key):
        return dict(key)

    def series(self):
        """{label-key tuple: series state} (internal representation)."""
        return self._series


class Counter(Metric):
    """A monotonically increasing labelled counter."""

    kind = "counter"

    def inc(self, amount=1, **labels):
        """Add ``amount`` (default 1) to the series for ``labels``."""
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def set_total(self, value, **labels):
        """Overwrite the running total (collector/absorb use only)."""
        if not self.registry.enabled:
            return
        self._series[_label_key(labels)] = value

    def value(self, **labels):
        """The current total for ``labels`` (0 when never incremented)."""
        return self._series.get(_label_key(labels), 0)


class Gauge(Metric):
    """A labelled point-in-time value (set, not accumulated)."""

    kind = "gauge"

    def set(self, value, **labels):
        """Set the series for ``labels`` to ``value``."""
        if not self.registry.enabled:
            return
        self._series[_label_key(labels)] = value

    def value(self, **labels):
        """The last set value (None when never set)."""
        return self._series.get(_label_key(labels))


class _HistogramSeries:
    """One label set's state: bucket counts + retained raw samples."""

    __slots__ = ("bucket_counts", "count", "sum", "samples",
                 "samples_dropped", "vmax")

    def __init__(self, n_buckets):
        self.bucket_counts = [0] * n_buckets
        self.count = 0
        self.sum = 0.0
        self.samples = []
        self.samples_dropped = 0
        self.vmax = None


class Histogram(Metric):
    """Fixed-bucket histogram with exact p50/p99 from retained samples.

    Buckets are cumulative-upper-bound style (Prometheus ``le``
    semantics); the final bound must be ``inf`` (appended when
    missing). Percentiles are computed from the raw samples — exact as
    long as the series stays under ``sample_cap`` observations — and
    fall back to bucket upper bounds beyond the cap.
    """

    kind = "histogram"

    def __init__(self, registry, name, help, unit=None, buckets=None,
                 sample_cap=SAMPLE_CAP):
        super().__init__(registry, name, help, unit)
        bounds = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ConfigError(f"histogram {name!r} buckets must be sorted, "
                              f"got {bounds}")
        if not bounds or bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds
        self.sample_cap = sample_cap

    def observe(self, value, **labels):
        """Record one observation into the series for ``labels``."""
        if not self.registry.enabled:
            return
        self._observe(_label_key(labels), float(value))

    def _observe(self, key, value):
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        # buckets are sorted with a trailing inf: the first bound
        # >= value is the (inclusive) le-bucket the value lands in
        series.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        series.count += 1
        series.sum += value
        if series.vmax is None or value > series.vmax:
            series.vmax = value
        if len(series.samples) < self.sample_cap:
            series.samples.append(value)
        else:
            series.samples_dropped += 1

    def bind(self, **labels):
        """A :class:`BoundHistogram` with the label key precomputed.

        For hot paths that observe into one fixed series (e.g. the
        serve request path): skips the per-observation label
        canonicalization.
        """
        return BoundHistogram(self, _label_key(labels))

    def percentile(self, q, **labels):
        """The exact q-th percentile (0..100) for ``labels``.

        Nearest-rank over the retained samples; None when the series
        is empty. Past the sample cap the result is exact only for the
        retained prefix (``samples_dropped`` says how much is missing).
        """
        series = self._series.get(_label_key(labels))
        if series is None or not series.samples:
            return None
        ranked = sorted(series.samples)
        rank = max(0, math.ceil(q / 100.0 * len(ranked)) - 1)
        return ranked[rank]

    def summary(self, **labels):
        """{count, sum, p50, p99, max} for one series (JSON-able)."""
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return {"count": 0, "sum": 0.0, "p50": None, "p99": None,
                    "max": None}
        return {"count": series.count, "sum": series.sum,
                "p50": self.percentile(50, **labels),
                "p99": self.percentile(99, **labels),
                "max": series.vmax}


class BoundHistogram:
    """One histogram series with its label key resolved up front."""

    __slots__ = ("histogram", "key")

    def __init__(self, histogram, key):
        self.histogram = histogram
        self.key = key

    def observe(self, value):
        """Record one observation (one flag check when disabled)."""
        histogram = self.histogram
        if histogram.registry.enabled:
            histogram._observe(self.key, float(value))


#: Attribute -> (metric suffix, help) tables for weakly-tracked
#: objects (see :meth:`MetricsRegistry.track`). Live objects are swept
#: at snapshot time; each series is labelled by the track call.
TRACK_SPECS = {
    "program_cache": (
        ("hits", "repro_program_cache_hits_total",
         "Assembled-program cache hits"),
        ("misses", "repro_program_cache_misses_total",
         "Assembled-program cache misses"),
        ("__len__", "repro_program_cache_entries",
         "Assembled-program cache resident entries"),
    ),
    "point_cache": (
        ("hits", "repro_point_cache_hits_total",
         "On-disk point-result cache hits"),
        ("misses", "repro_point_cache_misses_total",
         "On-disk point-result cache misses"),
    ),
    "hbm_fabric": (
        ("words_granted", "repro_hbm_words_granted_total",
         "HBM fabric words granted"),
        ("words_denied", "repro_hbm_words_denied_total",
         "HBM fabric words denied (contention)"),
        ("denied_claims", "repro_hbm_denied_claims_total",
         "HBM fabric claims cut short by contention"),
    ),
}


class MetricsRegistry:
    """Create-or-get instrument factory plus exposition.

    ``enabled=False`` registries accept instrument creation but drop
    every ``inc``/``set``/``observe`` after one flag check — the
    zero-overhead contract. The process-wide default registry starts
    disabled and is flipped by :func:`enable` / :func:`disable`; the
    serve layer runs its own always-enabled instance so service
    latencies exist regardless of the global switch.
    """

    def __init__(self, enabled=False):
        self.enabled = enabled
        self._metrics = {}
        self._collectors = []
        self._tracked = []   # (spec_name, weakref, labels dict)
        self._lock = threading.Lock()

    # -- instrument factory ------------------------------------------------

    def _get(self, cls, name, help, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(self, name, help,
                                                   **kwargs)
            elif not isinstance(metric, cls):
                raise ConfigError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}")
            return metric

    def counter(self, name, help="", unit=None):
        """Get or create the :class:`Counter` named ``name``."""
        return self._get(Counter, name, help, unit=unit)

    def gauge(self, name, help="", unit=None):
        """Get or create the :class:`Gauge` named ``name``."""
        return self._get(Gauge, name, help, unit=unit)

    def histogram(self, name, help="", unit=None, buckets=None,
                  sample_cap=SAMPLE_CAP):
        """Get or create the :class:`Histogram` named ``name``."""
        return self._get(Histogram, name, help, unit=unit,
                         buckets=buckets, sample_cap=sample_cap)

    def get(self, name):
        """The registered metric named ``name`` (None when absent)."""
        return self._metrics.get(name)

    # -- collection --------------------------------------------------------

    def collect(self, fn):
        """Register ``fn(registry)`` to run at every snapshot."""
        self._collectors.append(fn)
        return fn

    def track(self, spec_name, obj, **labels):
        """Weakly track a live object's counters (see TRACK_SPECS).

        At snapshot time every still-alive tracked object's attributes
        are summed per label set and published via ``set_total`` — no
        hot-path cost at all, at the price of losing objects garbage
        collected before the snapshot (transient engines absorb their
        counters on completion edges instead).
        """
        if spec_name not in TRACK_SPECS:
            raise ConfigError(f"unknown track spec {spec_name!r}; "
                              f"expected one of {sorted(TRACK_SPECS)}")
        self._tracked.append((spec_name, weakref.ref(obj), dict(labels)))

    def _sweep_tracked(self):
        alive = []
        totals = {}  # (metric name, label key) -> (help, labels, value)
        for spec_name, ref, labels in self._tracked:
            obj = ref()
            if obj is None:
                continue
            alive.append((spec_name, ref, labels))
            for attr, metric_name, help in TRACK_SPECS[spec_name]:
                value = (len(obj) if attr == "__len__"
                         else getattr(obj, attr, 0))
                key = (metric_name, _label_key(labels))
                prev = totals.get(key)
                totals[key] = (help, labels,
                               value + (prev[2] if prev else 0))
        self._tracked = alive
        for (metric_name, _lk), (help, labels, value) in totals.items():
            self.counter(metric_name, help).set_total(value, **labels)

    # -- exposition --------------------------------------------------------

    def snapshot(self):
        """JSON-able state of every metric (runs collectors first).

        Shape (validated by :func:`validate_snapshot`)::

            {"version": 1,
             "metrics": {name: {"type", "help", "unit", "series": [
                 {"labels": {...}, "value": x}                # counter/gauge
                 {"labels": {...}, "count", "sum", "p50",
                  "p99", "max", "buckets": [[le, n], ...],
                  "samples_dropped"}                          # histogram
             ]}}}
        """
        if self.enabled:
            self._sweep_tracked()
            for fn in list(self._collectors):
                fn(self)
        metrics = {}
        for name, metric in sorted(self._metrics.items()):
            series = []
            for key in sorted(metric.series()):
                labels = dict(key)
                if metric.kind == "histogram":
                    entry = metric.summary(**labels)
                    state = metric.series()[key]
                    # inf is not JSON-compliant on the socket wire;
                    # the Prometheus idiom "+Inf" stands in for it.
                    entry["buckets"] = [
                        ["+Inf" if bound == math.inf else bound, count]
                        for bound, count
                        in zip(metric.buckets, state.bucket_counts)]
                    entry["samples_dropped"] = state.samples_dropped
                    entry["labels"] = labels
                else:
                    entry = {"labels": labels,
                             "value": metric.series()[key]}
                series.append(entry)
            metrics[name] = {"type": metric.kind, "help": metric.help,
                             "unit": metric.unit, "series": series}
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def to_prometheus(self):
        """Prometheus text exposition format (0.0.4) of this registry."""
        return prometheus_text(self.snapshot())

    def reset(self):
        """Drop every metric, collector, and tracked object."""
        self._metrics.clear()
        self._collectors.clear()
        self._tracked.clear()


def _prom_labels(labels, extra=None):
    items = list(labels.items()) + (list(extra.items()) if extra else [])
    if not items:
        return ""
    body = ",".join(f'{k}="{_prom_escape(str(v))}"' for k, v in items)
    return "{" + body + "}"


def _prom_escape(text):
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_number(value):
    if value == "+Inf" or value == math.inf:
        return "+Inf"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def prometheus_text(snapshot):
    """Render one (or a merged) snapshot dict as Prometheus text."""
    lines = []
    for name, metric in snapshot["metrics"].items():
        help = metric.get("help") or ""
        lines.append(f"# HELP {name} {_prom_escape(help)}")
        lines.append(f"# TYPE {name} {metric['type']}")
        for entry in metric["series"]:
            labels = entry["labels"]
            if metric["type"] == "histogram":
                acc = 0
                for bound, count in entry["buckets"]:
                    acc += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_prom_labels(labels, {'le': _prom_number(bound)})}"
                        f" {acc}")
                lines.append(f"{name}_sum{_prom_labels(labels)} "
                             f"{_prom_number(entry['sum'])}")
                lines.append(f"{name}_count{_prom_labels(labels)} "
                             f"{entry['count']}")
            else:
                value = entry["value"]
                if value is None:
                    continue
                lines.append(f"{name}{_prom_labels(labels)} "
                             f"{_prom_number(value)}")
    return "\n".join(lines) + "\n"


def merged_snapshot(*registries):
    """One snapshot over several registries (later names win)."""
    metrics = {}
    for registry in registries:
        metrics.update(registry.snapshot()["metrics"])
    return {"version": SNAPSHOT_VERSION,
            "metrics": dict(sorted(metrics.items()))}


def validate_snapshot(payload, path="snapshot"):
    """Check a snapshot dict against the wire contract; returns it.

    Raises :class:`TypeError` naming the first offending field;
    matching is exact-key, so missing and unexpected keys both fail
    and producers and consumers cannot drift silently.
    """
    if not isinstance(payload, dict):
        raise TypeError(f"{path}: expected dict, got "
                        f"{type(payload).__name__}")
    if set(payload) != {"version", "metrics"}:
        raise TypeError(f"{path}: expected keys ['metrics', 'version'], "
                        f"got {sorted(payload)}")
    if payload["version"] != SNAPSHOT_VERSION:
        raise TypeError(f"{path}.version: expected {SNAPSHOT_VERSION}, "
                        f"got {payload['version']!r}")
    for name, metric in payload["metrics"].items():
        mpath = f"{path}.metrics[{name!r}]"
        if not isinstance(metric, dict) or set(metric) != {
                "type", "help", "unit", "series"}:
            raise TypeError(f"{mpath}: expected keys "
                            "['help', 'series', 'type', 'unit']")
        if metric["type"] not in ("counter", "gauge", "histogram"):
            raise TypeError(f"{mpath}.type: unknown {metric['type']!r}")
        for i, entry in enumerate(metric["series"]):
            epath = f"{mpath}.series[{i}]"
            if not isinstance(entry, dict) or not isinstance(
                    entry.get("labels"), dict):
                raise TypeError(f"{epath}: needs a 'labels' dict")
            if metric["type"] == "histogram":
                want = {"labels", "count", "sum", "p50", "p99", "max",
                        "buckets", "samples_dropped"}
                if set(entry) != want:
                    raise TypeError(f"{epath}: expected keys "
                                    f"{sorted(want)}, got {sorted(entry)}")
                if not isinstance(entry["buckets"], list):
                    raise TypeError(f"{epath}.buckets: expected list")
            elif set(entry) != {"labels", "value"}:
                raise TypeError(f"{epath}: expected keys "
                                f"['labels', 'value'], got {sorted(entry)}")
    return payload


#: The process-wide default registry (disabled until :func:`enable`).
DEFAULT = MetricsRegistry(enabled=False)


def enable(reset=True):
    """Turn the process-wide registry (and absorb hooks) on.

    A reset also re-tracks :data:`repro.kernels.common.PROGRAM_CACHE`,
    so snapshots carry its hit counters.
    """
    global ENABLED
    ENABLED = True
    DEFAULT.enabled = True
    if reset:
        from repro.kernels.common import PROGRAM_CACHE

        DEFAULT.reset()
        DEFAULT.track("program_cache", PROGRAM_CACHE)


def disable():
    """Turn the process-wide registry off (state kept for snapshots)."""
    global ENABLED
    ENABLED = False
    DEFAULT.enabled = False


# -- hot-path absorb hooks ---------------------------------------------------
#
# Components with per-cycle counters call these on *completion edges*
# only, behind a single `metrics.ENABLED` check at the call site, so
# the disabled path costs one module-attribute load.

def absorb_engine_run(mode, steps, skipped):
    """Fold one completed :meth:`repro.sim.engine.Engine.run` call.

    ``steps`` counts executed cycles (each ticks the active set) and
    ``skipped`` the cycles quiescence fast-forward jumped over; their
    sum is the call's elapsed simulated time.
    """
    counter = DEFAULT.counter
    counter("repro_engine_runs_total",
            "Engine.run calls completed").inc(1, mode=mode)
    counter("repro_engine_steps_total",
            "Engine cycles executed (stepped)").inc(steps, mode=mode)
    counter("repro_engine_fast_forwarded_cycles_total",
            "Engine cycles skipped by quiescence fast-forward").inc(
                skipped, mode=mode)


def absorb_dma_transfer(dma, transfer):
    """Fold one completed DMA transfer into the registry.

    Called by :meth:`repro.mem.dma.Dma._advance` when a transfer
    retires; also absorbs the deltas of the per-cycle stall/busy
    counters (and the shared HBM fabric's contention counters) since
    the previous absorption, keeping registry totals monotonic without
    any per-cycle instrumentation.
    """
    counter = DEFAULT.counter
    counter("repro_dma_words_moved_total",
            "Words moved by cluster DMAs").inc(
                transfer.total_words, dma=dma.name,
                direction=transfer.direction)
    counter("repro_dma_transfers_total",
            "Completed DMA transfers").inc(
                1, dma=dma.name, direction=transfer.direction)
    busy = dma.busy_cycles - getattr(dma, "_tm_busy_absorbed", 0)
    stall = dma.fabric_stall_words - getattr(dma, "_tm_stall_absorbed", 0)
    dma._tm_busy_absorbed = dma.busy_cycles
    dma._tm_stall_absorbed = dma.fabric_stall_words
    if busy:
        counter("repro_dma_busy_cycles_total",
                "Cycles any DMA channel was busy").inc(busy, dma=dma.name)
    if stall:
        counter("repro_dma_fabric_stall_words_total",
                "DMA words stalled by HBM fabric contention").inc(
                    stall, dma=dma.name)
    fabric = dma.fabric
    if fabric is not None:
        granted = fabric.words_granted - getattr(
            fabric, "_tm_granted_absorbed", 0)
        denied = fabric.words_denied - getattr(
            fabric, "_tm_denied_absorbed", 0)
        claims = fabric.denied_claims - getattr(
            fabric, "_tm_claims_absorbed", 0)
        fabric._tm_granted_absorbed = fabric.words_granted
        fabric._tm_denied_absorbed = fabric.words_denied
        fabric._tm_claims_absorbed = fabric.denied_claims
        if granted:
            counter("repro_hbm_words_granted_total",
                    "HBM fabric words granted").inc(granted)
        if denied:
            counter("repro_hbm_words_denied_total",
                    "HBM fabric words denied (contention)").inc(denied)
        if claims:
            counter("repro_hbm_denied_claims_total",
                    "HBM fabric claims cut short by contention").inc(claims)


def absorb_stream_pass(stats, kernel):
    """Fold one streaming pass's :class:`StreamStats` into the registry."""
    counter = DEFAULT.counter
    counter("repro_stream_tiles_total",
            "Row tiles / fiber chunks streamed").inc(stats.tiles,
                                                     kernel=kernel)
    counter("repro_stream_bytes_in_total",
            "Bytes streamed toward compute").inc(stats.bytes_in,
                                                 kernel=kernel)
    counter("repro_stream_bytes_out_total",
            "Result bytes written back").inc(stats.bytes_out,
                                             kernel=kernel)
    counter("repro_stream_cycles_total",
            "Overlapped critical-path cycles").inc(stats.cycles,
                                                   kernel=kernel)
    DEFAULT.gauge("repro_stream_overlap_efficiency",
                  "Fraction of serial DMA+compute hidden by "
                  "double-buffering (last pass)").set(
                      stats.overlap_efficiency, kernel=kernel)


def record_kernel_run(kernel, backend, stats):
    """Per-dispatch utilization gauges derived from existing RunStats.

    Called by :meth:`repro.backends.base.Backend.run` behind one
    ``ENABLED`` check. ``repro_fpu_utilization`` is the paper's metric
    (arithmetic ops per cycle); ``repro_bandwidth_utilization`` is the
    DMA word rate against the 512-bit duplex link peak — the two
    gauges Occamy-style experiment claims are phrased in.
    """
    from repro.mem.dma import BEAT_WORDS

    cycles = getattr(stats, "cycles", 0)
    counter = DEFAULT.counter
    counter("repro_kernel_runs_total",
            "Kernel dispatches through Backend.run").inc(
                1, kernel=kernel, backend=backend)
    counter("repro_kernel_cycles_total",
            "Simulated cycles across kernel dispatches").inc(
                int(cycles), kernel=kernel, backend=backend)
    gauge = DEFAULT.gauge
    util = getattr(stats, "fpu_utilization", None)
    if util is not None:
        gauge("repro_fpu_utilization",
              "FPU utilization of the last dispatch (compute ops "
              "per cycle)").set(float(util), kernel=kernel,
                                backend=backend)
    dma_words = getattr(stats, "dma_words", 0)
    if cycles and dma_words:
        gauge("repro_bandwidth_utilization",
              "DMA words per cycle of the last dispatch against the "
              "512-bit link peak").set(
                  dma_words / (cycles * BEAT_WORDS),
                  kernel=kernel, backend=backend)
