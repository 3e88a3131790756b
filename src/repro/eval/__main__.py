"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.eval                      # run everything (quick mode)
    python -m repro.eval run E1 E5            # run selected experiments
    python -m repro.eval run E2 --backend compiled --parallel 8
    python -m repro.eval scaling --backend compiled --parallel
    python -m repro.eval --full               # full-fidelity workloads (slow)

The leading ``run`` token is optional. ``--backend compiled`` executes
on the lowered-program replay with analytic timing (see
:mod:`repro.backends`; ``fast`` is an accepted alias); ``--parallel N`` fans experiment points out
over N worker processes with on-disk result caching (bare
``--parallel`` uses every CPU). The ``scaling`` experiment
additionally writes its strong+weak dataset to ``scaling.json``
(see :mod:`repro.eval.scaling`).
"""

import argparse
import contextlib
import json
import sys
import time

from repro.backends import ALIASES, BACKENDS
from repro.eval.experiments import (
    BUDGET_AWARE,
    CLUSTER_AWARE,
    DESCRIPTIONS,
    EXPERIMENTS,
    VARIANT_AWARE,
    experiment_registry,
    run_all,
    run_experiment,
)
from repro.eval.parallel import ParallelRunner
from repro.kernels.common import VARIANTS


def _epilog():
    """The experiment catalog, generated from the registry.

    Every registered experiment shows up in ``--help`` automatically —
    no hand-maintained list to go stale when one is added.
    """
    width = max(len(eid) for eid in EXPERIMENTS)
    lines = ["experiments:"]
    for eid in EXPERIMENTS:
        desc = DESCRIPTIONS.get(eid, "(no description registered)")
        lines.append(f"  {eid.ljust(width)}  {desc}")
    return "\n".join(lines)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"process count must be >= 1, got {value} "
            "(omit --parallel to run inline)")
    return value


def _budget_bytes(text):
    """Parse ``--mainmem-budget`` — bytes with optional k/M/G suffix."""
    scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    raw = text.strip()
    mult = scale.get(raw[-1:].lower(), 1)
    digits = raw[:-1] if mult != 1 else raw
    try:
        value = int(digits) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte count (optionally k/M/G-suffixed), got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"budget must be positive, got {text!r}")
    return value


def _cluster_list(text):
    """Parse ``--clusters`` — comma-separated positive cluster counts."""
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        values = ()
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated cluster counts >= 1, got {text!r}")
    return values


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "run":  # optional subcommand form
        argv = argv[1:]

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the ISSR paper's figures and claims.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiments", nargs="*", metavar="EXP",
                        help="experiment ids (see the catalog below); "
                             "default: all")
    parser.add_argument("--full", action="store_true",
                        help="full-fidelity workloads (slow; default quick)")
    parser.add_argument("--backend", choices=[*BACKENDS, *ALIASES],
                        default=None,
                        help="execution backend (default: cycle; fast is "
                             "an alias of compiled)")
    parser.add_argument("--variant", choices=sorted(VARIANTS), default=None,
                        help="kernel variant for the variant-aware "
                             f"experiments ({', '.join(sorted(VARIANT_AWARE))})")
    parser.add_argument("--clusters", type=_cluster_list, default=None,
                        metavar="N[,N...]",
                        help="cluster-count sweep for the cluster-aware "
                             f"experiments ({', '.join(sorted(CLUSTER_AWARE))})")
    parser.add_argument("--mainmem-budget", type=_budget_bytes, default=None,
                        metavar="BYTES",
                        help="main-memory byte budget for the out-of-core "
                             "experiments "
                             f"({', '.join(sorted(BUDGET_AWARE))}); "
                             "accepts k/M/G suffixes (e.g. 64M)")
    # const=0 marks the bare flag; it can never clash with user input
    # because _positive_int rejects an explicit "--parallel 0".
    parser.add_argument("--parallel", type=_positive_int, default=None,
                        metavar="N", nargs="?", const=0,
                        help="fan experiment points over N processes "
                             "(bare --parallel uses every CPU)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk point-result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="point-result cache directory "
                             "(default: .repro-cache or $REPRO_CACHE_DIR)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the cycle engine (per-component "
                             "tick/wake counts, fast-forward stats, "
                             "program/point cache hit rates); writes "
                             "profile.json. Profiling is per-process: "
                             "combine with --parallel and only the "
                             "parent's engines are counted")
    parser.add_argument("--profile-out", default="profile.json",
                        metavar="FILE",
                        help="where --profile writes its JSON breakdown")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="enable telemetry and write the metrics "
                             "registry snapshot (engine/DMA/stream/kernel "
                             "counters, utilization gauges) as JSON. "
                             "Like --profile this is per-process: with "
                             "--parallel only parent-side work (caches) "
                             "is counted")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="enable telemetry and write a Chrome-trace "
                             "JSON timeline (load in Perfetto / "
                             "chrome://tracing): engine run/sleep spans, "
                             "DMA transfers, streaming-pass lanes. "
                             "Per-process, as with --metrics-out")
    parser.add_argument("--list-experiments", action="store_true",
                        help="print the experiment registry and exit "
                             "(with --json: machine-readable — id, name, "
                             "output file, claim count)")
    parser.add_argument("--json", action="store_true",
                        help="with --list-experiments: emit JSON")
    args = parser.parse_args(argv)

    if args.list_experiments:
        registry = experiment_registry()
        if args.json:
            print(json.dumps(registry, indent=1))
        else:
            for entry in registry:
                out = entry["output"] or "-"
                print(f"{entry['id']:14s} {out:20s} "
                      f"claims={entry['claim_count']}  {entry['name']}")
        return 0

    quick = not args.full
    ids = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}")

    if args.profile:
        from repro.sim import profile
        profile.enable()

    runner = None
    if args.parallel is not None or args.no_cache or args.cache_dir:
        # bare --parallel (const 0) means "use every CPU";
        # caching flags alone keep execution inline (one process).
        if args.parallel is None:
            processes = 1
        else:
            processes = args.parallel or None
        runner = ParallelRunner(processes=processes,
                                cache_dir=args.cache_dir,
                                use_cache=not args.no_cache)

    t0 = time.time()
    if set(ids) == set(EXPERIMENTS):
        results = run_all(quick=quick, backend=args.backend, runner=runner,
                          variant=args.variant, clusters=args.clusters,
                          mainmem_budget=args.mainmem_budget,
                          metrics_out=args.metrics_out,
                          trace_out=args.trace_out)
        times = {}
    else:
        results = {}
        times = {}
        from repro import telemetry

        with telemetry.session(metrics_out=args.metrics_out,
                               trace_out=args.trace_out,
                               tracing=args.trace_out is not None) \
                if (args.metrics_out or args.trace_out) \
                else contextlib.nullcontext():
            for eid in ids:
                te = time.time()
                results[eid] = run_experiment(
                    eid, quick=quick, backend=args.backend, runner=runner,
                    variant=args.variant, clusters=args.clusters,
                    mainmem_budget=args.mainmem_budget)
                times[eid] = time.time() - te
    for eid in ids:
        print(results[eid].render())
        if eid in times:
            print(f"  [{eid} in {times[eid]:.2f}s]")
        print()
    print(f"[{len(ids)} experiment(s) in {time.time() - t0:.1f}s]")

    if args.profile:
        from repro.sim import profile
        breakdown = profile.report()
        if runner is not None:
            breakdown["point_cache"] = {"hits": runner.cache_hits,
                                        "misses": runner.cache_misses}
        with open(args.profile_out, "w") as fh:
            json.dump(breakdown, fh, indent=1)
        top = list(breakdown["ticks_by_component"].items())[:5]
        summary = ", ".join(f"{name}:{count}" for name, count in top)
        print(f"[profile] {breakdown['engines']} engine(s), "
              f"{breakdown['total_ticks']} ticks, "
              f"{breakdown['fast_forwarded_cycles']} cycles fast-forwarded; "
              f"top ticks: {summary}; written to {args.profile_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
