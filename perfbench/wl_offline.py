"""``offline`` workload: compiled replay, analytic model and streaming.

In-process ``repro.api.run`` on the ``compiled`` backend plus
``repro.stream``, with neither the serve tier nor the event engine in
the way. Each round runs three phases, every call timed on its own; rounds
repeat until the time is up, and each call's host time is its best
round:

- ``uniform``: every registered kernel across its variant/width
  series on the paper-shape operands the eval experiments use (E2
  CsrMV, E10 CsrMM with k=4, E12 fiber pair and SpGEMM, masked CsrMV,
  TTV, ``cluster_csrmv``), plus CsrMV and CsrMM on the banded and
  uniform paper-set matrices;
- ``skewed``: CsrMV and CsrMM on the power-law paper-set and scaling
  matrices, whose replay costs 20-40x more per nonzero than uniform
  rows do;
- ``stream``: one ``stream_csrmv`` pass over a generated 400k-row
  webgraph ``.csrbin`` (~52 MB) at a 4 MiB budget (~26 tiles). The
  page cache is warm: set-up has just written the file.

Every kernel result must be bit-identical to the ``fast`` backend's,
the same in every round, and the streamed ``y`` bit-identical to a
resident compiled ``api.run``.

The traced run ends with a short pass of the ``serve`` workload
(:func:`wl_serve.layer_pass`), which ``BENCHMARK.json`` does not list,
so the serve layer's per-layer metrics are measured too.
"""

import gc
import hashlib
import os
import time

import numpy as np

import wl_serve
from harness import SERIES, paper_error_pct, percentile, sub_seed

E2_NROWS, E2_NCOLS, E2_NPR = 96, 2048, 128
CSRMM_K = 4
UNIFORM_SET = ("bwm2000", "rdb2048", "lshp3025", "sherman5", "orani678",
               "psmigr_1")
SKEWED_SET = ("west2021", "add20", "memplus", "wm1", "psmigr_2",
              "powerlaw-sorted-2k")
#: psmigr_2 at full size (540k nonzeros) replays in ~2 s per CsrMM, which
#: would leave room for one round a run; a tenth keeps its row-length
#: law and nnz/row.
MATRIX_SCALE = {"psmigr_2": 0.1}
STREAM_ROWS, STREAM_DEGREE, STREAM_BUDGET = 400_000, 8, 4 << 20
#: Rounds measured at least: the first pays lazy set-up (closure
#: emission, first page touches), so a best round needs a second.
MIN_ROUNDS = 2
#: Timed repeats per operand set in the traced decomposition.
DECOMPOSE_REPEATS = 3


class Call:
    """One kernel invocation of a round."""

    __slots__ = ("kernel", "variant", "bits", "operands", "nnz", "phase",
                 "label")

    def __init__(self, kernel, variant, bits, operands, nnz, phase, label):
        self.kernel = kernel
        self.variant = variant
        self.bits = bits
        self.operands = operands
        #: Sparse-operand nonzeros the call processes.
        self.nnz = nnz
        self.phase = phase
        self.label = label

    @property
    def name(self):
        return f"{self.kernel} {self.label} {self.variant or ''}{self.bits}"


def _every_series(calls, phase, kernel, label, nnz, **operands):
    for variant, bits in SERIES:
        calls.append(Call(kernel, variant, bits, operands, nnz, phase, label))


def _calls(ctx):
    """Every kernel call of one round, uniform phase first."""
    from repro.formats.csf import CsfTensor
    from repro.workloads import (get_spec, random_csr, random_dense_matrix,
                                 random_dense_vector, random_fiber_pair,
                                 random_sparse_vector)

    seed = ctx.seed
    nrows = max(8, round(E2_NROWS * ctx.scale))
    calls = []
    e2 = random_csr(nrows, E2_NCOLS, nrows * E2_NPR, seed=sub_seed(seed, 1))
    x = random_dense_vector(E2_NCOLS, seed=sub_seed(seed, 2))
    _every_series(calls, "uniform", "csrmv", "e2", e2.nnz, matrix=e2, x=x)
    _every_series(calls, "uniform", "cluster_csrmv", "e2", e2.nnz,
                  matrix=e2, x=x)
    fiber = random_sparse_vector(E2_NCOLS, 512, seed=sub_seed(seed, 3))
    _every_series(calls, "uniform", "spvv", "fig4a", fiber.nnz, fiber=fiber,
                  x=x)
    mid = random_csr(nrows, 1024, nrows * 24, seed=sub_seed(seed, 4))
    dense = random_dense_matrix(1024, CSRMM_K, seed=sub_seed(seed, 5))
    _every_series(calls, "uniform", "csrmm", "e10", mid.nnz, matrix=mid,
                  dense=dense)
    fa, fb = random_fiber_pair(2048, 256, 256, 0.2, seed=sub_seed(seed, 6))
    _every_series(calls, "uniform", "masked_spvv", "e12", fa.nnz + fb.nnz,
                  fiber_a=fa, fiber_b=fb)
    a = random_csr(48, 48, 230, seed=sub_seed(seed, 7))
    b = random_csr(48, 48, 230, seed=sub_seed(seed, 8))
    _every_series(calls, "uniform", "spgemm", "e12", a.nnz + b.nnz, a=a, b=b)
    masked = random_csr(nrows, E2_NCOLS, nrows * 16, seed=sub_seed(seed, 9))
    x_fiber = random_sparse_vector(E2_NCOLS, 256, seed=sub_seed(seed, 10))
    _every_series(calls, "uniform", "masked_csrmv", "e12",
                  masked.nnz + x_fiber.nnz, matrix=masked, x_fiber=x_fiber)
    rng = np.random.default_rng(sub_seed(seed, 11))
    shape = (16, 32, 256)
    cube = rng.standard_normal(shape) * (rng.random(shape) < 0.1)
    tensor = CsfTensor.from_dense(cube)
    vector = random_dense_vector(shape[-1], seed=sub_seed(seed, 12))
    for bits in (32, 16):
        calls.append(Call("ttv", None, bits,
                          {"tensor": tensor, "vector": vector}, tensor.nnz,
                          "uniform", "csf"))
    for i, name in enumerate(UNIFORM_SET + SKEWED_SET):
        phase = "uniform" if name in UNIFORM_SET else "skewed"
        m = get_spec(name).generate(
            seed=sub_seed(seed, 20, i),
            scale=MATRIX_SCALE.get(name, 1.0) * ctx.scale)
        xm = random_dense_vector(m.ncols, seed=sub_seed(seed, 21, i))
        dm = random_dense_matrix(m.ncols, CSRMM_K, seed=sub_seed(seed, 22, i))
        _every_series(calls, phase, "csrmv", name, m.nnz, matrix=m, x=xm)
        _every_series(calls, phase, "csrmm", name, m.nnz, matrix=m, dense=dm)
    return calls


def _digest(result):
    """SHA-256 over a kernel result's bytes (array, scalar or CSR)."""
    h = hashlib.sha256()
    if hasattr(result, "ptr"):
        parts = (np.asarray(result.ptr, dtype=np.int64),
                 np.asarray(result.idcs, dtype=np.int64),
                 np.asarray(result.vals, dtype=np.float64))
    else:
        parts = (np.asarray(result, dtype=np.float64),)
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _lower_cold(spans):
    """Mean ms of the first ``lower()`` of every canonical program."""
    from repro.compiler import lower
    from repro.kernels.csrmm import build_csrmm
    from repro.kernels.csrmv import build_csrmv
    from repro.kernels.masked import build_masked_csrmv, build_masked_spvv
    from repro.kernels.spgemm import build_spgemm
    from repro.kernels.spvv import build_spvv

    builders = {"spvv": build_spvv, "csrmv": build_csrmv,
                "csrmm": build_csrmm, "masked_spvv": build_masked_spvv,
                "masked_csrmv": build_masked_csrmv, "spgemm": build_spgemm}
    times = []
    for family, build in builders.items():
        for variant, bits in SERIES:
            program, _meta = build(variant, bits)
            with spans.span("compiler", f"lower {family} {variant}{bits}"):
                t0 = time.perf_counter()
                lower(program, family_hint=family)
                times.append(time.perf_counter() - t0)
    return float(np.mean(times)) * 1e3


class State:
    """Every round's operands, the ``.csrbin`` file and first results."""

    def __init__(self, ctx, rep):
        from repro.formats import open_csr_cache
        from repro.kernels.common import PROGRAM_CACHE
        from repro.workloads import generate_cache, random_dense_vector

        spans = ctx.spans
        # every set-up lowers from cold: no in-process or on-disk hints
        os.environ["REPRO_KERNEL_CACHE_DIR"] = os.path.join(
            ctx.workdir, f"kernels-{rep}")
        PROGRAM_CACHE.clear()
        t0 = time.perf_counter()
        with spans.span("workloads", "operands"):
            self.calls = _calls(ctx)
        self.operand_gen_s = time.perf_counter() - t0
        self.path = os.path.join(ctx.workdir, f"webgraph-{rep}.csrbin")
        t0 = time.perf_counter()
        with spans.span("workloads", "generate_cache"):
            generate_cache("webgraph", self.path,
                           max(1000, round(STREAM_ROWS * ctx.scale)),
                           seed=sub_seed(ctx.seed, 30),
                           avg_degree=STREAM_DEGREE)
        self.ingest_mb_per_s = (os.path.getsize(self.path) / 2**20
                                / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        with spans.span("formats", "open_csr_cache"):
            self.matrix = open_csr_cache(self.path)
        self.open_ms = (time.perf_counter() - t0) * 1e3
        self.x = random_dense_vector(self.matrix.ncols,
                                     seed=sub_seed(ctx.seed, 31))
        self.lower_cold_ms = _lower_cold(spans)
        #: First-round result digest per call index (and "stream").
        self.digests = {}

    def record(self, out, key, result):
        """Keep the first digest of ``key``; later rounds must match it."""
        digest = _digest(result)
        first = self.digests.setdefault(key, digest)
        if first is not digest:
            out.op(digest == first, f"{key}: result changed between rounds")

    def close(self):
        self.matrix = None
        os.remove(self.path)


def measure(ctx, state, out):
    """Whole rounds of every call plus one streaming pass each.

    Each call's host time is its best round, the one least disturbed by
    whatever else the machine runs. Returns sparse nonzeros processed
    per host second.
    """
    from repro import api
    from repro.kernels.common import PROGRAM_CACHE
    from repro.stream import stream_csrmv

    spans = ctx.spans
    hits, misses = PROGRAM_CACHE.hits, PROGRAM_CACHE.misses
    host = [[] for _ in state.calls]
    passes = []
    first = {}
    rounds = 0
    start = time.perf_counter()
    while True:
        for index, call in enumerate(state.calls):
            with spans.span("backends", call.name):
                t0 = time.perf_counter()
                stats, result = api.run(call.kernel, backend="compiled",
                                        variant=call.variant,
                                        index_bits=call.bits, **call.operands)
                host[index].append(time.perf_counter() - t0)
            first.setdefault(index, stats)
            state.record(out, index, result)
        with spans.span("stream", "stream_csrmv"):
            t0 = time.perf_counter()
            stats, y = stream_csrmv(state.matrix, state.x,
                                    budget_bytes=STREAM_BUDGET,
                                    backend="compiled")
            passes.append((time.perf_counter() - t0, stats))
        state.record(out, "stream", y)
        del stats, result, y
        gc.collect()
        rounds += 1
        if (rounds >= MIN_ROUNDS
                and time.perf_counter() - start >= ctx.seconds):
            break

    best = [min(times) for times in host]
    busy = {"uniform": 0.0, "skewed": 0.0}
    nnz = {"uniform": 0, "skewed": 0}
    per_kernel = {}
    for call, dt in zip(state.calls, best):
        busy[call.phase] += dt
        nnz[call.phase] += call.nnz
        per_kernel.setdefault(call.kernel, []).append(dt)
    pass_s, stream = min(passes, key=lambda p: p[0])
    total = ((sum(nnz.values()) + state.matrix.nnz)
             / (sum(busy.values()) + pass_s))
    latencies = best + [pass_s]
    e2 = [first[i].cycles for i, call in enumerate(state.calls)
          if call.kernel == "csrmv" and call.label == "e2"]
    lookups = (PROGRAM_CACHE.hits - hits) + (PROGRAM_CACHE.misses - misses)
    out.set("mnnz_per_s", total / 1e6)
    out.set("p50_ms", percentile(latencies, 50) * 1e3)
    out.set("p90_ms", percentile(latencies, 90) * 1e3)
    out.set("paper_err_pct", paper_error_pct(e2))
    for phase in ("uniform", "skewed"):
        out.set(f"backends.{phase}_mnnz_per_s",
                nnz[phase] / busy[phase] / 1e6)
    for kernel, times in per_kernel.items():
        out.set(f"backends.run_us.{kernel}", np.mean(times) * 1e6)
    out.set("compiler.program_cache_hit_ratio",
            (PROGRAM_CACHE.hits - hits) / lookups if lookups else 0.0)
    out.set("compiler.lower_cold_ms", state.lower_cold_ms)
    out.set("stream.mb_per_s", stream.bytes_in / 2**20 / pass_s)
    out.set("stream.pass_ms", pass_s * 1e3)
    out.set("stream.tiles", stream.tiles)
    out.set("stream.peak_resident_mb", stream.peak_resident_bytes / 2**20)
    out.set("formats.open_ms", state.open_ms)
    out.set("workloads.ingest_mb_per_s", state.ingest_mb_per_s)
    out.set("workloads.operand_gen_s", state.operand_gen_s)
    out.note(f"offline: {len(passes)} rounds; uniform "
             f"{nnz['uniform'] / busy['uniform'] / 1e6:.2f} Mnnz/s, skewed "
             f"{nnz['skewed'] / busy['skewed'] / 1e6:.2f} Mnnz/s, stream "
             f"{stream.bytes_in / 2**20 / pass_s:.1f} MB/s over "
             f"{stream.tiles} tiles (page cache warm)")
    return total


def layers(ctx, state, out):
    """Replay vs model vs ``np.add.reduceat``; plan and raw-read timing."""
    from repro.backends.model import csrmv_stats
    from repro.compiler import lower
    from repro.compiler.templates import csr_shape_class
    from repro.kernels.csrmv import build_csrmv
    from repro.stream import plan_row_tiles

    spans = ctx.spans
    sums = {phase: {"replay": 0.0, "reduceat": 0.0, "nnz": 0}
            for phase in ("uniform", "skewed")}
    shape_s, model_s = [], []
    for call in state.calls:
        if call.kernel != "csrmv":
            continue
        m, x = call.operands["matrix"], call.operands["x"]
        kernel = lower(build_csrmv(call.variant, call.bits)[0],
                       family_hint="csrmv")
        products = m.vals * x[m.idcs]
        starts = m.ptr[:-1][np.diff(m.ptr) > 0]
        lengths = m.row_lengths()
        acc = sums[call.phase]
        for _ in range(DECOMPOSE_REPEATS):
            with spans.span("compiler", "csr_shape_class"):
                t0 = time.perf_counter()
                shape = csr_shape_class(m.ptr)
                shape_s.append(time.perf_counter() - t0)
            reducer = kernel.row_reducer(shape)
            with spans.span("compiler", f"row_reducer {call.label}"):
                t0 = time.perf_counter()
                reducer(products, m.ptr, m.nrows)
                acc["replay"] += time.perf_counter() - t0
            with spans.span("backends", "csrmv_stats"):
                t0 = time.perf_counter()
                csrmv_stats(lengths, call.variant, call.bits)
                model_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            np.add.reduceat(products, starts)
            acc["reduceat"] += time.perf_counter() - t0
            acc["nnz"] += m.nnz
    for phase, acc in sums.items():
        replay = acc["replay"] / acc["nnz"] * 1e9
        sol = acc["reduceat"] / acc["nnz"] * 1e9
        out.set(f"compiler.replay_ns_per_nnz_{phase}", replay)
        out.set(f"compiler.reduceat_ns_per_nnz_{phase}", sol)
        out.set(f"compiler.replay_vs_reduceat_{phase}", replay / sol)
        out.note(f"{phase} CsrMV replay {replay:.1f} ns/nnz vs "
                 f"np.add.reduceat {sol:.1f} ns/nnz: {replay / sol:.1f}x")
    out.set("compiler.shape_class_us", np.mean(shape_s) * 1e6)
    out.set("backends.model_us", np.mean(model_s) * 1e6)

    with spans.span("stream", "plan_row_tiles"):
        t0 = time.perf_counter()
        plan_row_tiles(state.matrix.ptr, state.matrix.nrows, STREAM_BUDGET)
        out.set("stream.plan_ms", (time.perf_counter() - t0) * 1e3)
    read_mb, read_s = _sequential_read(state.path)
    stream_mb_per_s = out.metrics["stream.mb_per_s"]
    out.set("stream.read_mb_per_s", read_mb / read_s)
    out.set("stream.pass_vs_read", read_mb / read_s / stream_mb_per_s)
    out.note(f"stream pass {stream_mb_per_s:.1f} MB/s vs sequential read "
             f"{read_mb / read_s:.1f} MB/s: "
             f"{read_mb / read_s / stream_mb_per_s:.1f}x")

    with spans.span("bench", "serve layer pass"):
        wl_serve.layer_pass(ctx, out)


def _sequential_read(path, chunk=4 << 20):
    """(MB, seconds) of one plain sequential read of ``path``."""
    buffer = bytearray(chunk)
    view = memoryview(buffer)
    total = 0
    t0 = time.perf_counter()
    with open(path, "rb", buffering=0) as fh:
        while True:
            n = fh.readinto(view)
            if not n:
                break
            total += n
    return total / 2**20, time.perf_counter() - t0


def check(ctx, state, out):
    """Compiled results vs ``fast``; the streamed ``y`` vs a resident run."""
    from repro import api

    for index, call in enumerate(state.calls):
        with ctx.spans.span("backends", f"fast {call.name}"):
            _stats, ref = api.run(call.kernel, backend="fast",
                                  variant=call.variant, index_bits=call.bits,
                                  **call.operands)
        got = state.digests[index]
        if ctx.take_corruption():
            got = "corrupted"
        out.op(got == _digest(ref),
               f"{call.name}: compiled result differs from fast")
    with ctx.spans.span("backends", "compiled csrmv resident"):
        _stats, ref = api.run("csrmv", backend="compiled",
                              matrix=state.matrix.materialize(), x=state.x)
    out.op(state.digests["stream"] == _digest(ref),
           "streamed y differs from a resident compiled run")
