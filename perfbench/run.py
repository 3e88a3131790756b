"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload cycle --seed 1 --seconds 10 --trace 0

The workloads (``perfbench/workloads.json`` records each one's inputs
and the layers it stresses and bypasses):

- ``cycle``: the event engine on a busy core complex, then on mostly
  idle 8-core and 32-cluster systems;
- ``offline``: every kernel on the compiled backend, power-law
  matrices, and an out-of-core streaming pass; its traced run ends
  with a short ``serve`` pass;
- ``serve``: closed- and open-loop CsrMV traffic into ``repro.serve``.
  ``BENCHMARK.json`` lists only the first two: this one's figures
  spread too widely between runs on a two-CPU machine to gate changes.

``--trace 0`` measures with tracing off and reports every end-to-end
metric. Set-up (a fresh service, fresh caches, a fresh ``.csrbin``)
runs at least three times and until two seconds have passed; ``setup_s``
is the median, and the last set-up is the one measured. ``--trace 1``
sets up once, measures untraced, then measures again
with benchmark-side spans around every call into a layer; it reports
every per-layer metric (zero for a layer the workload bypasses) beside
a per-layer self-time table, and writes the spans as a Chrome trace
under ``.perfbench/``. The last line of standard output is the JSON
result; the exit code is 1 when a checked operation failed.
"""

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("serve", "cycle", "offline")
#: An untraced run sets up at least SETUP_MIN times and until
#: SETUP_BUDGET_S has passed; ``setup_s`` is the median set-up time.
SETUP_MIN = 3
SETUP_BUDGET_S = 2.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py): shrink the inputs, and
    # corrupt the first checked result to prove the checks catch it.
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _untraced(module, ctx, out):
    """Repeated set-ups, then one untraced measurement and the checks."""
    times = []
    state = None
    start = time.perf_counter()
    while (len(times) < SETUP_MIN
           or time.perf_counter() - start < SETUP_BUDGET_S):
        if state is not None:
            state.close()
        t0 = time.perf_counter()
        state = module.State(ctx, len(times))
        times.append(time.perf_counter() - t0)
    out.set("setup_s", statistics.median(times))
    try:
        module.measure(ctx, state, out)
        module.check(ctx, state, out)
    finally:
        state.close()


def _traced(module, ctx, out):
    """One set-up; an untraced then a traced pass; layers; checks."""
    ctx.spans.enabled = True
    state = module.State(ctx, "traced")
    try:
        ctx.spans.enabled = False
        untraced = module.measure(ctx, state, out)
        ctx.spans.enabled = True
        traced = module.measure(ctx, state, out)
        out.set("telemetry.trace_overhead_pct",
                (untraced / traced - 1.0) * 100.0)
        module.layers(ctx, state, out)
        module.check(ctx, state, out)
    finally:
        state.close()


def run(args):
    """Run one workload; returns its :class:`harness.Outcome`."""
    from harness import Context, Outcome, peak_rss_mb

    module = importlib.import_module(f"wl_{args.workload}")
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(args.seed, args.seconds, workdir, corrupt=args.corrupt,
                  scale=args.scale)
    out = Outcome()
    try:
        if args.trace:
            _traced(module, ctx, out)
        else:
            _untraced(module, ctx, out)
        out.set("peak_rss_mb", peak_rss_mb())
        if args.trace:
            _write_trace(ctx, out, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    return out


def _stop_resource_tracker():
    """Stop the shared-memory resource tracker process and wait for it.

    The serve worker pool starts it; it would otherwise outlive this
    run by the moment it takes to notice that its parent exited.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _write_trace(ctx, out, args):
    """Write the Chrome trace; record per-layer self time."""
    from harness import LAYERS

    path = os.path.join(OUT_DIR,
                        f"trace-{args.workload}-seed{args.seed}.json")
    with ctx.spans.span("telemetry", "TraceRecorder.write"):
        ctx.spans.write(path)
    out.note(f"chrome trace: {os.path.relpath(path, ROOT)}")
    totals = ctx.spans.self_time()
    for layer in LAYERS:
        out.set(f"{layer}.self_ms", totals.get(layer, 0.0) * 1e3)
    out.set("bench.self_ms", totals.get("bench", 0.0) * 1e3)


def _report(args, out, specs):
    """Print every wanted metric by layer; returns the JSON metrics."""
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name in out.metrics:
            value = out.metrics[name]
        elif args.trace:
            value = 0.0  # a layer this workload bypasses
        else:
            raise KeyError(f"workload {args.workload!r} measured no "
                           f"{name!r}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    for line in out.lines:
        print(line)
    if args.trace:
        # concurrent spans (serve requests in flight together) each
        # count their own self time, so a layer may exceed wall time
        print("per-layer self time and metrics (set-up, traced pass and "
              f"checks; benchmark harness "
              f"{out.metrics['bench.self_ms']:.1f} ms):")
        layer = None
        for name, entry in metrics.items():
            if name.split(".")[0] != layer:
                layer = name.split(".")[0]
                print(f"  [{layer}] self "
                      f"{out.metrics.get(f'{layer}.self_ms', 0.0):.1f} ms")
            print(f"    {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    else:
        print("end-to-end metrics:")
        for name, entry in metrics.items():
            print(f"  {name:<20} {entry['value']:>14.6g} {entry['unit']}")
    print(f"operations: {out.attempted} attempted, {out.failed} failed")
    for line in out.failures:
        print(f"FAILED: {line}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: {os.path.join(src, 'repro')} is missing; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = run(args)
    metrics = _report(args, out,
                      spec["per_layer"] if args.trace else spec["end_to_end"])
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": metrics}))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
