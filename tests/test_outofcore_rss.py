"""Peak-RSS guard: a streaming pass must not page in the whole matrix.

The matrix here is ~8x the configured main-memory budget; the guard
samples the process RSS *during* the pass (via the executor's
``on_tile`` hook) and asserts the growth over the pre-pass baseline
stays far below the matrix size. ``release_rows`` (``madvise
DONTNEED``) is what keeps the mmap pages from accumulating.

Marked ``slow`` + ``stress``: the matrix generation and full pass take
tens of seconds, and RSS is a process-wide measurement that the rest
of tier-1 would pollute — CI runs this in the tier-2 job.
"""

import os

import numpy as np
import pytest

from repro.formats import open_csr_cache
from repro.stream import stream_csrmv
from repro.workloads import generate_cache

pytestmark = [pytest.mark.slow, pytest.mark.stress]

#: Matrix configuration: ~600k rows x 12-wide webgraph ~ 120 MiB cache.
NROWS = 600_000
DEGREE = 12
#: Streaming budget: the matrix is ~8x this.
BUDGET = 16 << 20
#: Allowed RSS growth during the pass. Generous (3x budget) to absorb
#: allocator slack, the dense x/y vectors (~9.6 MiB), and page-size
#: rounding — but far below the ~120 MiB a full page-in would show.
RSS_SLACK = 48 << 20


def _vm_rss_bytes():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) << 10
    raise RuntimeError("VmRSS not found in /proc/self/status")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc (Linux) to sample RSS")
def test_streaming_pass_stays_within_budget(tmp_path):
    path = str(tmp_path / "big.csrbin")
    generate_cache("webgraph", path, NROWS, seed=42, avg_degree=DEGREE)
    matrix = open_csr_cache(path)
    matrix_bytes = int(matrix.ptr[-1]) * 16 + (NROWS + 1) * 8
    assert matrix_bytes >= 4 * BUDGET, \
        "matrix must dwarf the budget for the guard to mean anything"

    x = np.random.default_rng(0).random(NROWS)
    baseline = _vm_rss_bytes()
    peak = 0

    def sample(_i, _r0, _r1):
        nonlocal peak
        peak = max(peak, _vm_rss_bytes())

    stats, y = stream_csrmv(matrix, x, budget_bytes=BUDGET,
                            on_tile=sample, release=True)
    growth = peak - baseline
    assert stats.peak_resident_bytes <= BUDGET
    assert growth < BUDGET + RSS_SLACK, (
        f"RSS grew {growth / 2**20:.1f} MiB during the pass "
        f"(budget {BUDGET / 2**20:.0f} MiB + slack "
        f"{RSS_SLACK / 2**20:.0f} MiB); matrix is "
        f"{matrix_bytes / 2**20:.1f} MiB — pages are not being released")
    # sanity: the pass actually computed something
    assert np.isfinite(y).all() and np.any(y != 0.0)
