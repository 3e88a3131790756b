"""Warm worker processes holding pre-constructed backend instances.

Each :class:`Worker` is a long-lived process that constructs its
backend instances once at startup (pre-lowering the hot CsrMV
templates *and* every kernel identity recorded in the persistent
:mod:`repro.compiler.diskcache`, so respawned workers warm-start
without re-lowering), then loops on a duplex pipe executing *batches*
of jobs.

The pipe is a **control plane only**: frames are explicitly pickled
and framed with ``send_bytes`` so the service can meter exactly how
many bytes cross the fork boundary, and operand/result ndarrays do
not ride in them — they cross through shared-memory segments
(:mod:`repro.serve.shm`) as ``(segment, dtype, shape, offset)``
descriptors. A worker may hold several batches in its pipe at once
(the service's pipelined dispatch keeps up to ``pipeline_depth``
batches in flight per worker); replies come back in dispatch order.

Worker death is a first-class event, not an exception path: the
service detects it as a broken pipe (or a dead ``Process``), calls
:meth:`WorkerPool.respawn`, reclaims the dead worker's shared-memory
segments, and re-dispatches or cleanly fails the affected tickets
(see :meth:`~repro.serve.scheduler.Scheduler.requeue`). Respawn
storms (more than :data:`STORM_RESPAWNS` respawns inside
:data:`STORM_WINDOW_S` seconds) raise a warn-once ``RuntimeWarning``
so a crash-looping deployment is loud in logs, not just in counters.
Fault-injection jobs let the test battery kill a worker
deterministically — before executing (``die``) or after a partial
result write into its shared-memory segment (``die_mid_result``);
they are only honored when the pool was built with
``allow_fault_injection=True``.
"""

import collections
import multiprocessing
import os
import pickle
import time
import warnings

from repro.serve import protocol, shm
from repro.telemetry import metrics

#: Fault-injection markers a job may carry (test battery only).
INJECT_DIE = "die"
INJECT_DIE_MID_RESULT = "die_mid_result"

#: Respawn-storm detection window and threshold.
STORM_WINDOW_S = 10.0
STORM_RESPAWNS = 3


def _send(conn, obj):
    """Pickle + frame one message; returns the bytes on the wire."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(blob)
    return len(blob)


def _recv(conn):
    """Receive one framed message; returns ``(object, nbytes)``."""
    blob = conn.recv_bytes()
    return pickle.loads(blob), len(blob)


def _warm_backends(backend_names, kernel_cache_dir=None):
    """Construct (and pre-lower for) every backend this worker serves.

    Returns ``(backends, warmed)`` where ``warmed`` counts the kernels
    pre-lowered from the persistent disk cache on top of the built-in
    hot CsrMV set.
    """
    from repro.backends import get_backend

    backends = {b.name: b for b in map(get_backend, backend_names)}
    warmed = 0
    if "compiled" in backends:
        # Pre-lower the hottest templates so the first compiled
        # request pays no lowering cost...
        from repro.compiler import diskcache, lower
        from repro.kernels.csrmv import build_csrmv

        for variant, bits in (("issr", 32), ("issr", 16), ("ssr", 32),
                              ("base", 32)):
            program, _meta = build_csrmv(variant, bits)
            lower(program, family_hint="csrmv")
        # ...and every kernel identity a previous process recorded, so
        # a respawned worker is warm for everything the service has
        # ever served, not just CsrMV.
        try:
            warmed = diskcache.warm(kernel_cache_dir)
        except Exception:  # noqa: BLE001 - warm-start is best-effort
            warmed = 0
    return backends, warmed


def execute_job(backends, request, trace=False, trace_id=None):
    """Run one materialized request on a warm backend.

    Returns ``(stats_dict, result, digest, profile_or_None,
    spans_or_None)``. ``result`` is the live kernel result object; the
    worker loop decides whether it leaves the process through a
    shared-memory segment (descriptors on the pipe) or inline. A
    ``profile`` request runs in a fresh metrics-registry session, and
    ``profile`` is that session's snapshot: this one job's kernel run,
    engine totals and utilization gauges.
    """
    trace_t0 = time.time() if trace else None
    operands = protocol.build_operands(request)
    backend = backends.get(request["backend"])
    if backend is None:
        from repro.backends import get_backend

        backend = backends[request["backend"]] = get_backend(
            request["backend"])

    profiling = bool(request.get("profile"))
    was_enabled = metrics.ENABLED
    if profiling:
        metrics.enable(reset=True)
    try:
        stats, result = backend.run(
            request["kernel"], variant=request["variant"],
            index_bits=request["index_bits"], check=request["check"],
            **operands)
        profile = metrics.DEFAULT.snapshot() if profiling else None
    finally:
        if profiling and not was_enabled:
            metrics.disable()
    kind = protocol.result_kind(request["kernel"])
    digest = protocol.result_digest(kind, result)
    spans = None
    if trace_t0 is not None:
        spans = [{
            "ph": "X", "cat": "serve.worker",
            "name": f"execute {request['kernel']}",
            "ts": int(trace_t0 * 1e6),
            "dur": max(int((time.time() - trace_t0) * 1e6), 1),
            "args": {"trace_id": trace_id,
                     "backend": request["backend"],
                     "worker_pid": os.getpid()},
        }]
    return (protocol.stats_dict(stats), result, digest, profile, spans)


def _pack_batch_results(message, outcomes, zombies):
    """Ship a batch's results out through shm (or inline fallback).

    ``outcomes`` is one ``("ok", (stats, result, digest, profile,
    spans))`` or ``("error", text)`` per job. Result objects are
    decomposed into their canonical arrays and written in place into
    the service-named result segment; the reply carries descriptors.
    Jobs whose results the codec cannot place (or when the segment
    name is absent — shm disabled) fall back to inline pickling.
    """
    segment_name = message.get("result_segment")
    results = []
    pending = []  # (result_index, kind, result) awaiting shm layout
    for job, (status, payload) in zip(message["jobs"], outcomes):
        if status != "ok":
            results.append((status, payload))
            continue
        stats, result, digest, profile, spans = payload
        kind = protocol.result_kind(job["request"]["kernel"])
        results.append((status, [stats, None, digest, profile, spans]))
        pending.append((len(results) - 1, kind, result))

    offset = 0
    writes = []
    for index, kind, result in pending:
        if segment_name is None or not shm.available():
            results[index][1][1] = {"inline": result}
            continue
        try:
            arrays, meta = shm.pack_result(kind, result)
        except Exception:  # noqa: BLE001 - inline is always correct
            results[index][1][1] = {"inline": result}
            continue
        layout = []
        for arr in arrays:
            offset = shm._align(offset)
            writes.append((offset, arr))
            layout.append({"dtype": arr.dtype.str,
                           "shape": list(arr.shape),
                           "offset": offset})
            offset += arr.nbytes
        results[index][1][1] = {"shm": {"meta": meta, "arrays": layout}}

    meta = {"segment": None, "nbytes": 0}
    if writes:
        segment = shm.create(segment_name, offset)
        shm.write_arrays(segment, writes)
        if not shm.close_quietly(segment):
            zombies.append(segment)
        meta = {"segment": segment_name, "nbytes": offset}
    # tuples are what the service expects; listed only for in-place fill
    results = [(status, tuple(payload) if isinstance(payload, list)
                else payload) for status, payload in results]
    return results, meta


def _worker_main(conn, backend_names, allow_fault_injection,
                 kernel_cache_dir):
    """The worker process loop: recv a batch, execute, send results."""
    if kernel_cache_dir:
        # Pin the persistent kernel cache to the configured directory
        # for this worker's whole lifetime, so the stores made inside
        # lower() land where the next respawn's warm() will look.
        from repro.compiler import diskcache

        os.environ[diskcache.DIR_ENV] = kernel_cache_dir
    backends, warmed = _warm_backends(backend_names, kernel_cache_dir)
    _send(conn, ("ready", os.getpid(), warmed))
    zombies = []  # segments whose close was pinned by a live view
    while True:
        try:
            message, _nbytes = _recv(conn)
        except (EOFError, OSError):
            break
        if message is None:  # orderly shutdown
            break
        attached = None
        operand_segment = message.get("operand_segment")
        if operand_segment is not None:
            try:
                attached = shm.attach(operand_segment)
            except Exception as exc:  # noqa: BLE001 - fail the batch cleanly
                outcomes = [("error", f"ShmError: {exc}")
                            for _job in message["jobs"]]
                _reply_or_break(conn, (outcomes, {"segment": None,
                                                 "nbytes": 0}))
                continue
        outcomes = []
        for job in message["jobs"]:
            inject = job.get("inject")
            if allow_fault_injection and inject == INJECT_DIE:
                os._exit(17)  # simulate a hard crash mid-batch
            request = dict(job["request"])
            try:
                if job.get("shm") is not None:
                    request["operands"] = shm.unpack_operands(
                        job["shm"], attached.buf)
                outcomes.append(("ok", execute_job(
                    backends, request,
                    trace=job.get("trace", False),
                    trace_id=job.get("trace_id"))))
            except BaseException as exc:  # noqa: BLE001 - worker survives
                outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
            finally:
                request = None  # drop shm views before segment close
        if allow_fault_injection and any(
                job.get("inject") == INJECT_DIE_MID_RESULT
                for job in message["jobs"]):
            # Crash *mid-transfer*: the result segment exists and holds
            # a torn write when the service notices the death.
            if message.get("result_segment"):
                segment = shm.create(message["result_segment"], 4096)
                segment.buf[:2048] = b"\xde" * 2048
            os._exit(23)
        try:
            reply = _pack_batch_results(message, outcomes, zombies)
        except Exception as exc:  # noqa: BLE001 - never die silently
            reply = ([("error", f"{type(exc).__name__}: {exc}")
                      for _job in message["jobs"]],
                     {"segment": None, "nbytes": 0})
        outcomes = None
        if not _reply_or_break(conn, reply):
            break
        if attached is not None and not shm.close_quietly(attached):
            zombies.append(attached)
        zombies = [z for z in zombies if not shm.close_quietly(z)]
    conn.close()


def _reply_or_break(conn, reply):
    try:
        _send(conn, reply)
    except (BrokenPipeError, OSError):
        return False
    return True


class Worker:
    """One warm worker process and its service-side pipe end."""

    __slots__ = ("index", "process", "conn", "inflight", "generation",
                 "last_class", "warmed")

    def __init__(self, index, process, conn, generation=0):
        self.index = index
        self.process = process
        self.conn = conn
        #: Batches dispatched but not yet answered (pipelined depth).
        self.inflight = 0
        self.generation = generation
        #: Batch class this worker last executed (dispatch affinity).
        self.last_class = None
        #: Kernels pre-lowered from the persistent disk cache.
        self.warmed = 0

    def alive(self):
        """True while the process runs and the pipe is open."""
        return self.process.is_alive() and not self.conn.closed

    @property
    def busy(self):
        """True while at least one batch is in flight (legacy name)."""
        return self.inflight > 0

    def __repr__(self):
        return (f"Worker({self.index}, pid={self.process.pid}, "
                f"inflight={self.inflight}, gen{self.generation})")


class WorkerPool:
    """A fixed-size pool of warm workers with respawn-on-death.

    ``backends`` names the backend instances each worker constructs at
    startup; ``mp_context`` picks the start method (the default
    ``fork`` keeps warm-up cheap on Linux; ``spawn`` works everywhere
    pickling does). ``kernel_cache_dir`` overrides the persistent
    compiled-kernel cache location workers warm-start from.
    """

    def __init__(self, n_workers=2, backends=("compiled",),
                 mp_context="fork", allow_fault_injection=False,
                 kernel_cache_dir=None):
        if n_workers < 1:
            from repro.errors import ConfigError

            raise ConfigError(f"WorkerPool needs >= 1 worker, got "
                              f"{n_workers}")
        self.n_workers = n_workers
        self.backends = tuple(backends)
        self.allow_fault_injection = allow_fault_injection
        self.kernel_cache_dir = kernel_cache_dir
        self._ctx = multiprocessing.get_context(mp_context)
        self.workers = []
        #: Monotonic counters (exposed via stats + telemetry).
        self.respawns = 0
        self.retried_batches = 0
        #: Pipe traffic in bytes, by direction (the data plane rides
        #: shm, so these stay descriptor-sized per request).
        self.pipe_bytes = {"out": 0, "in": 0}
        self._respawn_times = collections.deque(maxlen=STORM_RESPAWNS + 1)
        self._storm_warned = False
        self.storms = 0

    # -- lifecycle ---------------------------------------------------------

    @staticmethod
    def _ensure_resource_tracker():
        """Start the mp resource tracker in the parent before forking.

        Fork children inherit the parent's tracker fd. Without this, a
        worker whose first SharedMemory op happens after the fork
        lazily spawns its *own* tracker — one the service's unlink
        calls never reach — and every worker exit then warns about
        "leaked" segments the service already reclaimed.
        """
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # noqa: BLE001 - tracking is best-effort
            pass

    def _spawn(self, index, generation):
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, self.backends, self.allow_fault_injection,
                  self.kernel_cache_dir),
            daemon=True,
            name=f"repro-serve-worker-{index}",
        )
        process.start()
        child.close()
        worker = Worker(index, process, parent, generation)
        return worker

    def _handshake(self, worker):
        ready, _nbytes = _recv(worker.conn)  # blocks until warm-up done
        if isinstance(ready, tuple) and len(ready) >= 3:
            worker.warmed = int(ready[2])
        return worker

    def start(self):
        """Spawn every worker and wait for their warm-up handshakes."""
        self._ensure_resource_tracker()
        self.workers = [self._spawn(i, 0) for i in range(self.n_workers)]
        for worker in self.workers:
            self._handshake(worker)
        return self

    def stop(self):
        """Shut every worker down (orderly, then forcefully)."""
        for worker in self.workers:
            try:
                _send(worker.conn, None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
            worker.conn.close()
        self.workers = []

    def respawn(self, worker):
        """Replace a dead worker in place; returns the replacement."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2)
        replacement = self._spawn(worker.index, worker.generation + 1)
        self._handshake(replacement)
        self.workers[worker.index] = replacement
        self.respawns += 1
        self._note_respawn()
        return replacement

    def _note_respawn(self):
        """Respawn-storm detection: warn once on >3 respawns in 10 s."""
        now = time.monotonic()
        self._respawn_times.append(now)
        recent = [t for t in self._respawn_times
                  if now - t <= STORM_WINDOW_S]
        if len(recent) > STORM_RESPAWNS:
            self.storms += 1
            if not self._storm_warned:
                self._storm_warned = True
                warnings.warn(
                    f"repro.serve worker respawn storm: {len(recent)} "
                    f"respawns inside {STORM_WINDOW_S:.0f}s — workers "
                    "are crash-looping (poison request, OOM, or a "
                    "broken backend build); see "
                    "repro_serve_worker_respawns_total",
                    RuntimeWarning, stacklevel=3)

    # -- execution ---------------------------------------------------------

    def send_batch(self, worker, message):
        """Dispatch one batch message to a worker (bumps its depth)."""
        worker.inflight += 1
        try:
            self.pipe_bytes["out"] += _send(worker.conn, message)
        except Exception:
            worker.inflight -= 1
            raise

    def recv_batch(self, worker):
        """Block for a worker's next batch reply; raises on death.

        Replies arrive in dispatch order (the pipe is FIFO). The
        caller (the service's per-worker receiver) treats
        ``EOFError``/``OSError`` as worker death and triggers
        :meth:`respawn` — and owns the ``inflight`` decrement, so the
        depth accounting is only ever touched from the event loop.
        """
        reply, nbytes = _recv(worker.conn)
        self.pipe_bytes["in"] += nbytes
        return reply

    def inflight_batches(self):
        """Total batches currently in flight across the pool."""
        return sum(w.inflight for w in self.workers)

    def snapshot(self):
        """JSON-able pool state for the stats endpoint."""
        return {"workers": self.n_workers,
                "busy": sum(1 for w in self.workers if w.busy),
                "inflight_batches": self.inflight_batches(),
                "respawns": self.respawns,
                "retried_batches": self.retried_batches,
                "respawn_storms": self.storms,
                "pipe_bytes": dict(self.pipe_bytes),
                "warm_kernels": max((w.warmed for w in self.workers),
                                    default=0),
                "backends": list(self.backends)}
