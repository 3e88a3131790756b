"""Unified telemetry: metrics registry + Chrome-trace span export.

The two halves are independent but share one switchboard:

- :mod:`repro.telemetry.metrics` — the process-wide labelled metrics
  registry (counters, gauges, histograms with exact p50/p99) that
  absorbs the scattered component counters and the event engine's
  run/step/fast-forward totals, snapshots to a schema-validated dict,
  and renders Prometheus text format;
- :mod:`repro.telemetry.trace` — the span recorder emitting
  Perfetto-loadable Chrome-trace JSON from the event engine (one run
  lane per component: the per-component answer to "where do the
  cycles go"), the streaming executor, and the serve request path.

Both are **off by default** and cost at most one module-flag check per
completed unit of work while off (the ≤ 3% contract policed by
``benchmarks/bench_telemetry.py``). Turn them on either explicitly
(:func:`enable` / :func:`disable`) or scoped via :func:`session`,
which also writes the export files the eval CLI's ``--metrics-out`` /
``--trace-out`` flags ask for. Enabling telemetry never changes
results, cycles, or digests — the differential tests in
``tests/test_telemetry_trace.py`` pin that.
"""

import contextlib
import json

from repro.telemetry import metrics, trace
from repro.telemetry.metrics import (DEFAULT, MetricsRegistry,
                                     merged_snapshot, prometheus_text,
                                     validate_snapshot)
from repro.telemetry.trace import TraceRecorder

__all__ = [
    "DEFAULT", "MetricsRegistry", "TraceRecorder", "disable", "enable",
    "enabled", "merged_snapshot", "metrics", "prometheus_text", "session",
    "trace", "validate_snapshot",
]


def enabled():
    """True when either telemetry half is currently on."""
    return metrics.ENABLED or trace.active()


def enable(tracing=True, reset=True):
    """Turn on the metrics registry (and, by default, tracing).

    Returns the active :class:`TraceRecorder` (or None when
    ``tracing=False``).
    """
    metrics.enable(reset=reset)
    if tracing:
        return trace.recorder() or trace.start()
    return None


def disable():
    """Turn both halves off; returns the detached recorder (or None)."""
    metrics.disable()
    return trace.stop()


@contextlib.contextmanager
def session(metrics_out=None, trace_out=None, tracing=None):
    """Scope telemetry to a block, writing exports on exit.

    ``metrics_out`` gets the canonical JSON snapshot of the default
    registry; ``trace_out`` gets the Chrome-trace JSON. Tracing is
    enabled iff ``trace_out`` is given (override with ``tracing=``).
    Nested sessions compose: an inner session reuses the outer
    recorder/registry and leaves them running on exit.
    """
    want_trace = (trace_out is not None) if tracing is None else tracing
    had_metrics = metrics.ENABLED
    had_recorder = trace.active()
    metrics.enable(reset=not had_metrics)
    rec = None
    if want_trace or had_recorder:
        rec = trace.recorder() or trace.start()
    try:
        yield rec
    finally:
        if metrics_out is not None:
            snapshot = metrics.DEFAULT.snapshot()
            with open(metrics_out, "w") as fh:
                json.dump(snapshot, fh, sort_keys=True, indent=2)
                fh.write("\n")
        if trace_out is not None and rec is not None:
            rec.write(trace_out)
        if not had_metrics:
            metrics.disable()
        if not had_recorder and rec is not None:
            trace.stop()
