"""Self-tests for the repository benchmark.

From the repository root::

    python3 perfbench/selftest.py

- A tiny-size run of every workload, untraced and traced, must exit 0,
  report no failed operation, and print every metric ``BENCHMARK.json``
  names for that mode, each with its unit (end-to-end values nonzero).
- A run whose first checked result is deliberately corrupted must
  count it as a failed operation (``correct`` false, ``failed`` >= 1)
  and exit non-zero, for every workload.

Prints one line per check and exits 1 when any check failed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "cycle", "offline")
TINY = ("--seed", "7", "--seconds", "0.6", "--scale", "0.05")
TIMEOUT_S = 300


def _run(workload, *extra):
    """(exit code, parsed last stdout line or None, stdout) of one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, *TINY, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def _metric_problems(result, specs, nonzero):
    if result is None:
        return ["no JSON result on the last line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{result['failed']} failed operations")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    metrics = result["metrics"]
    names = [spec["name"] for spec in specs]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(names) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(names))}")
    for spec in specs:
        entry = metrics.get(spec["name"])
        if entry is None:
            continue
        if entry.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {entry.get('unit')!r}, "
                            f"expected {spec['unit']!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)):
            problems.append(f"{spec['name']}: value {value!r}")
        elif nonzero and value == 0:
            problems.append(f"{spec['name']}: zero")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = 0
    for workload in WORKLOADS:
        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, output = _run(workload, "--trace", str(trace))
            problems = _metric_problems(result, specs, nonzero=not trace)
            if code != 0:
                problems.insert(0, f"exit code {code}")
            label = f"{workload} --trace {trace}: every metric with its unit"
            failures += _report(label, problems, output)
        code, result, output = _run(workload, "--trace", "0", "--corrupt")
        problems = []
        if code == 0:
            problems.append("exit code 0")
        if result is None or result.get("correct") is not False \
                or result.get("failed", 0) < 1:
            problems.append(f"corruption not counted: {result!r}"[:300])
        label = f"{workload}: a corrupted result counts as a failure"
        failures += _report(label, problems, output)
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


def _report(label, problems, output):
    if not problems:
        print(f"ok    {label}")
        return 0
    print(f"FAIL  {label}: {'; '.join(problems)}")
    print("\n".join("      " + line for line in output.splitlines()[-15:]))
    return 1


if __name__ == "__main__":
    sys.exit(main())
