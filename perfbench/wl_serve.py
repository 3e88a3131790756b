"""``serve`` workload: closed- and open-loop CsrMV traffic into repro.serve.

``BENCHMARK.json`` does not list this workload: on a two-CPU virtual
machine its figures spread 18-40% between runs of the same code, past
the largest bound a metric may take, where the single-process
workloads spread 2-15%. It still runs by hand (``--workload serve``),
and :func:`layer_pass` gives the serve layer its per-layer metrics
inside the ``offline`` workload's traced run.

An in-process :class:`repro.serve.ServiceThread` (one worker, so the
worker and the service's loop thread fit the two CPUs of the reference
machine; ``compiled`` backend) receives operand-carrying E2-shape
CsrMV requests (96x2048, 128 nonzeros per row) spread over the four
variant/width series, so four batch classes are live. About a quarter
of the requests repeat an earlier one exactly, which puts the
point-cache fast path beside the cold path.

An untimed two-second closed-loop warm-up comes first. The measured
time then alternates slices of two loops, so both see the same share
of whatever else the machine runs; the closed loop gets two-second
slices and two thirds of the time, the open loop one-second slices:

- closed loop: a fixed window of 64 outstanding requests, kept by 64
  lanes on the service's own loop, each sending a request as soon as
  its last one returned;
- open loop: one generator thread on a fixed 125 req/s schedule, well
  below the closed-loop capacity. Each latency is timed from the
  request's due time; the generator's lateness and the scheduler's
  queued depth at the end of each slice are reported, so a late
  generator or a growing backlog shows.

The closed-loop rate and the open-loop p50 and p90 are taken per slice
and reported as their median over the slices.

Every response digest must equal ``result_digest`` of a direct
``repro.api.run`` on the same operands.
"""

import asyncio
import copy
import os
import statistics
import time

import numpy as np

from harness import (SERIES, Outcome, paper_error_pct, percentile,
                     sub_seed)

NROWS, NCOLS, NPR = 96, 2048, 128
WORKERS = 1
WINDOW = 64
OPEN_RATE = 125.0
REPEAT_SHARE = 0.25
#: Distinct queries are (matrix, x, series) triples in a seeded order.
#: One matrix only: the point cache keys an in-process CsrMatrix by its
#: repr (shape and nnz), so two same-shape matrices would share cached
#: results and every such hit would count as a failed operation.
N_MATRICES, N_VECTORS = 1, 2048
#: Distinct queries sent at set-up, so every worker has lowered every
#: batch class before the clock starts.
WARM_QUERIES = 32
DRAIN_TIMEOUT_S = 60.0
#: Length of one closed-loop and of one open-loop slice: the closed
#: loop gets two thirds of the measured time, as its rate is the
#: noisier figure; an open slice holds 125 requests, so 12 lie beyond
#: its p90.
CLOSED_SLICE_S, OPEN_SLICE_S = 2.0, 1.0
#: Untimed closed-loop time before the measured slices.
WARMUP_S = 2.0
#: Timed repeats of the shm-plane and copy speed-of-light probes.
SOL_REPEATS = 200
#: Measured seconds of the short pass :func:`layer_pass` makes.
LAYER_PASS_S = 6.0

#: Service histograms the per-layer latencies are read from.
HISTOGRAMS = {
    "queued": ("repro_serve_queued_seconds", {}),
    "computed": ("repro_serve_request_seconds", {"path": "computed"}),
    "cached": ("repro_serve_request_seconds", {"path": "cached"}),
    "batch": ("repro_serve_batch_size", {}),
}


class Request:
    """One request sent: its query, timestamps and response."""

    __slots__ = ("seq", "query", "due", "sent", "done", "span", "digest",
                 "cycles", "error")

    def ok(self):
        return self.error is None


class State:
    """Operands, the running service and every request sent to it."""

    def __init__(self, ctx, rep):
        from repro.serve import ServeConfig, ServiceThread
        from repro.workloads import random_csr, random_dense_vector

        spans = ctx.spans
        nrows = max(8, round(NROWS * ctx.scale))
        n_vectors = max(16, round(N_VECTORS * ctx.scale))
        t0 = time.perf_counter()
        with spans.span("workloads", "operands"):
            self.matrices = [random_csr(nrows, NCOLS, nrows * NPR,
                                        seed=sub_seed(ctx.seed, 1, m))
                             for m in range(N_MATRICES)]
            self.vectors = [random_dense_vector(NCOLS,
                                                seed=sub_seed(ctx.seed, 2, j))
                            for j in range(n_vectors)]
        self.operand_gen_s = time.perf_counter() - t0
        self.nnz = nrows * NPR
        self.rng = np.random.default_rng(sub_seed(ctx.seed, 3))
        # queries 0-3 are the four series on one (matrix, x) pair: the
        # paper-error point; the rest follow in a seeded order
        combos = N_MATRICES * n_vectors * len(SERIES)
        self.order = np.concatenate([np.arange(len(SERIES)),
                                     len(SERIES) + self.rng.permutation(
                                         combos - len(SERIES))])
        self.n_vectors = n_vectors
        self.distinct = 0
        self.requests = []
        base = os.path.join(ctx.workdir, f"serve-{rep}")
        config = ServeConfig(workers=WORKERS, backends=("compiled",),
                             cache_dir=os.path.join(base, "points"),
                             kernel_cache_dir=os.path.join(base, "kernels"))
        with spans.span("serve", "ServiceThread.start"):
            self.service = ServiceThread(config).start()
        # submitting without blocking needs the service's own loop
        self.loop = self.service._loop
        warm = _drain([self.submit(ctx, self.next_query(repeat=False))
                       for _ in range(WARM_QUERIES)])
        self.paper_cycles = [r.cycles for r in warm[:len(SERIES)]]

    def payload(self, query):
        lap, index = divmod(query, len(self.order))
        combo = int(self.order[index])
        series, rest = combo % len(SERIES), combo // len(SERIES)
        variant, bits = SERIES[series]
        x = self.vectors[rest % self.n_vectors]
        if lap:
            # past the end of the seeded order: shift x, so a distinct
            # query never meets the point cache
            x = x + lap
        return {"kernel": "csrmv", "backend": "compiled", "variant": variant,
                "index_bits": bits,
                "operands": {"matrix": self.matrices[rest // self.n_vectors],
                             "x": x}}

    def next_query(self, repeat=True):
        """A new distinct query, or (a quarter of the time) an earlier one."""
        if repeat and self.rng.random() < REPEAT_SHARE:
            return int(self.rng.integers(self.distinct))
        self.distinct += 1
        return self.distinct - 1

    async def call(self, ctx, query, due=None):
        """Send one request and await it, on the service's loop.

        Keeps the response's digest and cycles, or the error, and drops
        the response itself, so the benchmark's own heap stays small and
        its garbage collections short.
        """
        request = Request()
        request.seq = len(self.requests)
        request.query = query
        request.done = request.digest = request.cycles = request.error = None
        request.span = ctx.spans.begin("serve", "request",
                                       req=f"req-{request.seq}")
        request.sent = time.perf_counter()
        request.due = request.sent if due is None else due
        self.requests.append(request)
        try:
            response = await asyncio.wait_for(
                self.service.service.submit(self.payload(query)),
                DRAIN_TIMEOUT_S)
            request.digest = response["digest"]
            request.cycles = response["stats"]["cycles"]
        except Exception as exc:  # noqa: BLE001 - every failure counts
            request.error = f"{type(exc).__name__}: {exc}"
        request.done = time.perf_counter()
        ctx.spans.end(request.span)
        return request

    def submit(self, ctx, query, due=None):
        """Send one request from another thread; returns its future."""
        return asyncio.run_coroutine_threadsafe(self.call(ctx, query, due),
                                                self.loop)

    def on_loop(self, fn):
        """Run ``fn()`` on the service's loop thread; returns its value."""
        async def call():
            return fn()

        return asyncio.run_coroutine_threadsafe(call(), self.loop).result(10)

    def snapshot(self):
        """Service stats plus every latency/batch sample so far."""
        service = self.service.service

        def grab():
            samples = {}
            for key, (name, labels) in HISTOGRAMS.items():
                series = service.telemetry.get(name).series()
                samples[key] = next((list(s.samples)
                                     for label_key, s in series.items()
                                     if dict(label_key) == labels), [])
            return service.stats(), samples

        return self.on_loop(grab)

    def close(self):
        self.service.stop()


def _drain(futures):
    """Wait for every request sent from this thread; returns them."""
    return [f.result(DRAIN_TIMEOUT_S + 10) for f in futures]


def _closed_slice(ctx, state, seconds):
    """Keep WINDOW requests outstanding; returns (requests, req/s, queued).

    WINDOW lanes on the service's loop each send a request as soon as
    their last one returns. The rate counts the requests completed
    within the slice; the requests still outstanding when it ends are
    awaited before the next slice starts.
    """
    sent = []
    queued = []
    end = time.perf_counter() + seconds

    async def lane():
        while time.perf_counter() < end:
            sent.append(await state.call(ctx, state.next_query()))
        if not queued:
            queued.append(state.service.service.scheduler.depth()[0])

    async def run():
        await asyncio.gather(*(lane() for _ in range(WINDOW)))

    asyncio.run_coroutine_threadsafe(run(), state.loop).result(
        seconds + DRAIN_TIMEOUT_S + 10)
    done = sum(1 for r in sent if r.ok() and r.done < end)
    return sent, done / seconds, queued[0]


def _open_slice(ctx, state, seconds):
    """Send at OPEN_RATE on a fixed schedule; returns (requests, queued)."""
    futures = []
    start = time.perf_counter() + 0.005
    for i in range(max(1, int(OPEN_RATE * seconds))):
        due = start + i / OPEN_RATE
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        futures.append(state.submit(ctx, state.next_query(), due=due))
    queued = state.service.stats()["scheduler"]["queued"]
    return _drain(futures), queued


def _ms(values, q):
    return percentile(values, q) * 1e3


def _extend(phase, before, after):
    """Append each histogram's samples taken between two snapshots."""
    for key, values in phase.items():
        values += after[key][len(before[key]):]


def measure(ctx, state, out):
    """A closed-loop warm-up, then alternating slices over ``ctx.seconds``.

    Returns the closed-loop requests per second.
    """
    pairs = max(2, round(ctx.seconds / (CLOSED_SLICE_S + OPEN_SLICE_S)))
    with ctx.spans.span("bench", "warm-up"):
        closed = _closed_slice(ctx, state, WARMUP_S * ctx.scale)[0]
    opened = []
    rates, p50s, p90s = [], [], []
    closed_queued, open_queued = [], []
    phases = {name: {key: [] for key in HISTOGRAMS}
              for name in ("closed", "open")}
    stats0, samples = state.snapshot()
    for _pair in range(pairs):
        with ctx.spans.span("bench", "closed slice"):
            sent, rate, queued = _closed_slice(ctx, state, CLOSED_SLICE_S)
        stats2, after = state.snapshot()
        closed += sent
        closed_queued.append(queued)
        rates.append(rate)
        _extend(phases["closed"], samples, after)
        samples = after
        with ctx.spans.span("bench", "open slice"):
            sent, queued = _open_slice(ctx, state, OPEN_SLICE_S)
        stats2, after = state.snapshot()
        opened += sent
        open_queued.append(queued)
        latency = [r.done - r.due for r in sent if r.ok()]
        p50s.append(_ms(latency, 50))
        p90s.append(_ms(latency, 90))
        _extend(phases["open"], samples, after)
        samples = after

    req_per_s = statistics.median(rates)
    lateness = [r.sent - r.due for r in opened]
    latency = [r.done - r.due for r in opened if r.ok()]
    out.set("mnnz_per_s", req_per_s * state.nnz / 1e6)
    out.set("p50_ms", statistics.median(p50s))
    out.set("p90_ms", statistics.median(p90s))
    out.set("paper_err_pct", paper_error_pct(state.paper_cycles))
    out.set("serve.req_per_s", req_per_s)
    for name, requests in (("closed", closed), ("open", opened)):
        failed = sum(1 for r in requests if not r.ok())
        out.set(f"serve.{name}_sent", len(requests))
        out.set(f"serve.{name}_failed", failed)
        out.note(f"serve {name} loop: {len(requests)} sent, "
                 f"{len(requests) - failed} succeeded, {failed} failed")
    out.set("serve.open_lateness_p99_ms", _ms(lateness, 99))
    out.set("serve.open_lateness_max_ms", max(lateness) * 1e3)
    out.set("serve.open_queued_at_end", max(open_queued))
    out.note(f"serve closed loop: window {WINDOW}, {req_per_s:.1f} req/s, "
             f"at most {max(closed_queued)} queued at the end of a slice")
    out.note(f"serve open loop: {OPEN_RATE:.0f} req/s, latency from due "
             f"time p50 {_ms(latency, 50):.2f} ms p99 {_ms(latency, 99):.2f} "
             f"ms over {len(latency)} requests; generator lateness p99 "
             f"{_ms(lateness, 99):.3f} ms max {max(lateness) * 1e3:.3f} ms; "
             f"at most {max(open_queued)} queued at the end of a slice")

    closed_samples, open_samples = phases["closed"], phases["open"]
    queued = closed_samples["queued"]
    batches = closed_samples["batch"]
    out.set("serve.closed_queued_p50_ms", _ms(queued, 50))
    out.set("serve.closed_queued_p99_ms", _ms(queued, 99))
    out.set("serve.batch_size_mean", np.mean(batches) if batches else 0.0)
    for key in ("queued", "computed"):
        values = open_samples[key]
        out.set(f"serve.{key}_p50_ms", _ms(values, 50))
        out.set(f"serve.{key}_p99_ms", _ms(values, 99))
    out.set("serve.cached_p50_ms", _ms(open_samples["cached"], 50))

    def delta(*path):
        a, b = stats0, stats2
        for key in path:
            a, b = a[key], b[key]
        return b - a

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    tickets = delta("scheduler", "submitted")
    out.set("serve.cache_hit_ratio", hits / (hits + misses))
    out.set("serve.coalesced", delta("scheduler", "coalesced"))
    out.set("serve.pipe_bytes_per_req",
            delta("pool", "pipe_bytes", "out") / tickets if tickets else 0.0)
    out.set("serve.shm_bytes_per_req",
            delta("shm", "bytes") / tickets if tickets else 0.0)
    out.set("serve.respawns", delta("pool", "respawns"))
    out.set("serve.retried_batches", delta("pool", "retried_batches"))
    out.set("serve.rejected", delta("scheduler", "rejected"))
    out.set("serve.timed_out", delta("scheduler", "timed_out"))
    out.set("workloads.operand_gen_s", state.operand_gen_s)
    return req_per_s


def layers(ctx, state, out):
    """The shm plane against a raw copy of one request's operand bytes."""
    from repro.serve import shm

    operands = state.payload(0)["operands"]
    matrix = operands["matrix"]
    arrays = [matrix.ptr, matrix.idcs, matrix.vals, operands["x"]]
    flat = [np.ascontiguousarray(a).reshape(-1).view(np.uint8)
            for a in arrays]
    target = np.empty(sum(a.size for a in flat), dtype=np.uint8)
    arena = shm.ShmArena(tag=f"pb{os.getpid():x}")
    shm_s, copy_s = [], []
    try:
        for _ in range(SOL_REPEATS):
            with ctx.spans.span("serve", "shm pack+write"):
                t0 = time.perf_counter()
                total, writes, _descriptors = shm.pack_operands([operands])
                lease = arena.create(total)
                shm.write_arrays(lease.segment, writes)
                arena.release(lease)
                shm_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            offset = 0
            for part in flat:
                np.copyto(target[offset:offset + part.size], part)
                offset += part.size
            copy_s.append(time.perf_counter() - t0)
    finally:
        arena.shutdown()
    shm_us = float(np.median(shm_s)) * 1e6
    copy_us = float(np.median(copy_s)) * 1e6
    out.set("serve.shm_us_per_req", shm_us)
    out.set("serve.copyto_us_per_req", copy_us)
    out.set("serve.shm_vs_copyto", shm_us / copy_us)
    out.note(f"shm plane {shm_us:.1f} us/request vs np.copyto of its "
             f"{target.size} operand bytes {copy_us:.1f} us: "
             f"{shm_us / copy_us:.1f}x")


def check(ctx, state, out):
    """Every response digest against a direct ``repro.api.run``."""
    from repro import api
    from repro.serve.protocol import result_digest

    expected = {}
    for r in state.requests:
        if not r.ok():
            out.op(False, f"request {r.seq} failed: {r.error}")
            continue
        want = expected.get(r.query)
        if want is None:
            payload = state.payload(r.query)
            with ctx.spans.span("backends", "api.run csrmv",
                                req=f"req-{r.seq}"):
                _stats, y = api.run("csrmv", backend="compiled",
                                    variant=payload["variant"],
                                    index_bits=payload["index_bits"],
                                    **payload["operands"])
            want = expected[r.query] = result_digest("vector", y)
        got = "corrupted" if ctx.take_corruption() else r.digest
        out.op(got == want, f"request {r.seq} (query {r.query}): digest "
               "differs from a direct repro.api.run")


def layer_pass(ctx, out):
    """A short serve run inside another workload's traced run.

    Sets up, measures for LAYER_PASS_S, probes the shm plane and checks
    every response into ``out``; keeps only the ``serve.*`` metrics, so
    the calling workload's own metrics stand.
    """
    serve_ctx = copy.copy(ctx)
    serve_ctx.seconds = LAYER_PASS_S
    own = Outcome()
    state = State(serve_ctx, "layer")
    try:
        measure(serve_ctx, state, own)
        layers(serve_ctx, state, own)
        check(serve_ctx, state, out)
    finally:
        state.close()
    for name, value in own.metrics.items():
        if name.startswith("serve."):
            out.set(name, value)
    out.lines += own.lines
