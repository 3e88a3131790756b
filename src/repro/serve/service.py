"""The asyncio service: cache fast path, dispatch, sockets, clients.

A :class:`Service` wires the deterministic
:class:`~repro.serve.scheduler.Scheduler` to a
:class:`~repro.serve.pool.WorkerPool` inside one event loop:

- :meth:`Service.submit` validates a request, answers **cache hits
  immediately** from the shared :class:`~repro.eval.parallel.PointCache`
  (no queueing, no worker), coalesces duplicates of in-flight work,
  and otherwise queues a ticket and awaits its future;
- a dispatch task keeps up to ``pipeline_depth`` batches **in flight
  per worker** (pipe buffering overlaps service-side dispatch with
  worker-side execution), preferring to feed each worker the batch
  class it last executed so warm compiled templates are reused; one
  receiver task per worker drains replies in dispatch order, so
  worker death surfaces as a broken pipe on that worker's receiver
  and turns into respawn + segment reclamation + retry (bounded by
  the scheduler's ``max_attempts``) or a clean
  :class:`~repro.errors.WorkerCrashError` — never a hung client;
- operand and result arrays cross the worker boundary through the
  shared-memory data plane (:mod:`repro.serve.shm`): the dispatch
  path packs in-process operands into a per-batch segment and ships
  descriptors, workers write result arrays into a service-named
  result segment, and the receiver digests them without a pipe copy
  (one small materializing copy out of the segment so responses and
  cache entries outlive the unlink);
- a sweep task expires deadlines through
  :meth:`~repro.serve.scheduler.Scheduler.expire`;
- an optional UNIX-socket endpoint speaks newline-delimited JSON
  (:mod:`repro.serve.protocol` frames) for out-of-process clients.

:class:`ServiceThread` hosts a service on a dedicated loop thread for
synchronous callers (benchmarks, tests); :class:`SocketClient` is the
blocking JSON-over-socket client.
"""

import asyncio
import collections
import concurrent.futures
import dataclasses
import socket
import threading
import time

import numpy as np

from repro.errors import (
    ReproError,
    RequestCancelledError,
    RequestError,
    RequestTimeoutError,
    ServeError,
    WorkerCrashError,
)
from repro.eval.parallel import PointCache
from repro.serve import protocol, shm
from repro.serve.pool import WorkerPool
from repro.serve.scheduler import Scheduler, TenantQuota
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import trace as telemetry_trace


def _wall_us():
    """Wall-clock epoch microseconds (serve-span timestamp base)."""
    return int(time.time() * 1e6)


def _ms(value):
    """Seconds -> milliseconds, passing None through."""
    return None if value is None else value * 1000.0


def _ms_summary(summary):
    """A histogram summary (seconds) rendered in milliseconds."""
    return {"count": summary["count"], "p50_ms": _ms(summary["p50"]),
            "p99_ms": _ms(summary["p99"]), "max_ms": _ms(summary["max"])}


@dataclasses.dataclass
class ServeConfig:
    """Everything a :class:`Service` needs, as data.

    ``quota`` applies to every tenant (override per tenant through
    ``Scheduler.tenant_quotas``); ``sweep_interval`` bounds how stale
    a deadline can go undetected; ``default_timeout`` is applied to
    requests that carry none (None = wait forever).

    ``pipeline_depth`` is the number of batches the dispatcher keeps
    in flight *per worker* (>= 2 overlaps dispatch with execution);
    ``max_queued`` is the global queued-ticket backpressure cap
    feeding :class:`~repro.serve.scheduler.Scheduler`
    (``max_queued_total``); ``use_shm`` turns the shared-memory data
    plane off (operands/results fall back to pickled pipe frames);
    ``kernel_cache_dir`` overrides the persistent compiled-kernel
    cache directory workers warm-start from. ``backends`` names the
    backends every worker warms, canonicalized (aliases resolved,
    duplicates dropped) like request backends at admission.
    """

    workers: int = 2
    backends: tuple = ("compiled",)
    batch_max: int = 8
    max_attempts: int = 2
    quota: TenantQuota = None
    cache_dir: str = None
    use_cache: bool = True
    default_timeout: float = None
    sweep_interval: float = 0.05
    socket_path: str = None
    mp_context: str = "fork"
    allow_fault_injection: bool = False
    pipeline_depth: int = 2
    max_queued: int = None
    use_shm: bool = True
    kernel_cache_dir: str = None

    def __post_init__(self):
        from repro.backends import canonical_backend

        self.backends = tuple(dict.fromkeys(
            canonical_backend(name) for name in self.backends))


class Service:
    """The long-running simulation service (one per event loop)."""

    def __init__(self, config=None, clock=time.monotonic):
        self.config = config or ServeConfig()
        self.clock = clock
        quota = self.config.quota or TenantQuota()
        self.scheduler = Scheduler(clock=clock, quota=quota,
                                   batch_max=self.config.batch_max,
                                   max_attempts=self.config.max_attempts,
                                   max_queued_total=self.config.max_queued)
        self.cache = PointCache(cache_dir=self.config.cache_dir,
                                use_cache=self.config.use_cache)
        self.pool = WorkerPool(
            n_workers=self.config.workers,
            backends=self.config.backends,
            mp_context=self.config.mp_context,
            allow_fault_injection=self.config.allow_fault_injection,
            kernel_cache_dir=self.config.kernel_cache_dir)
        #: The shared-memory data plane (segment ledger + reclamation).
        self.arena = shm.ShmArena()
        self._use_shm = bool(self.config.use_shm) and shm.available()
        #: Per-worker FIFO of in-flight batch records (reply order).
        self._pending = [collections.deque()
                         for _ in range(self.config.workers)]
        self._dispatched = []  # per-worker events, created on start()
        #: Result-segment accounting (operand side lives in the arena).
        self.shm_result_segments = 0
        self.shm_result_bytes = 0
        self._futures = {}
        self._keyparams = {}
        self._loop = None
        self._work_event = None
        self._tasks = []
        self._server = None
        self._running = False
        self._started_at = None
        #: Dedicated threads for blocking pipe recvs — one per worker
        #: receiver plus slack for pool lifecycle calls, so blocked
        #: recvs can never starve the loop's default executor.
        self._recv_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers + 2,
            thread_name_prefix="repro-serve-recv")
        #: Responses served straight from the point cache (no ticket).
        self.cache_fastpath_hits = 0
        #: Service-scoped, always-enabled registry: request-latency
        #: histograms and serve gauges exist regardless of the global
        #: telemetry switch (they feed :meth:`stats` and bench_serve).
        self.telemetry = telemetry_metrics.MetricsRegistry(enabled=True)
        self._h_queued = self.telemetry.histogram(
            "repro_serve_queued_seconds",
            "Ticket wait from admission to worker dispatch",
            unit="seconds")
        self._h_request = self.telemetry.histogram(
            "repro_serve_request_seconds",
            "End-to-end request latency, submit to resolve "
            "(path=cached|computed|error)", unit="seconds")
        self._h_batch = self.telemetry.histogram(
            "repro_serve_batch_size", "Tickets per dispatched batch",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        self._h_depth = self.telemetry.histogram(
            "repro_serve_inflight_batches",
            "Batches in flight across the pool, observed at dispatch",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0))
        # bound series for the hot paths: label keys resolved once
        self._ob_queued = self._h_queued.bind()
        self._ob_batch = self._h_batch.bind()
        self._ob_depth = self._h_depth.bind()
        self._ob_request = {path: self._h_request.bind(path=path)
                            for path in ("cached", "computed", "error")}
        self.telemetry.collect(self._collect_serve)
        self._trace_ids = {}  # ticket id -> trace id (tracing only)

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Warm the pool, start the dispatch/sweep tasks (and socket)."""
        self._loop = asyncio.get_running_loop()
        self._work_event = asyncio.Event()
        self._running = True
        self._started_at = self.clock()
        await self._loop.run_in_executor(self._recv_executor,
                                         self.pool.start)
        self._dispatched = [asyncio.Event()
                            for _ in range(self.config.workers)]
        self._tasks = [
            self._loop.create_task(self._dispatch_loop()),
            self._loop.create_task(self._sweep_loop()),
        ]
        self._tasks.extend(
            self._loop.create_task(self._receiver_loop(index))
            for index in range(self.config.workers))
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path)
        return self

    async def stop(self):
        """Stop accepting work, cancel internal tasks, stop the pool."""
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        for future in list(self._futures.values()):
            if not future.done():
                future.set_exception(ServeError("service stopped"))
        self._futures.clear()
        self._trace_ids.clear()
        await self._loop.run_in_executor(self._recv_executor,
                                         self.pool.stop)
        for pending in self._pending:
            for record in pending:
                self.arena.reclaim_crashed(record["lease"],
                                           record["result_name"])
            pending.clear()
        self.arena.shutdown()
        self._recv_executor.shutdown(wait=False)

    # -- request path ------------------------------------------------------

    def _response(self, ticket_id, stats, result, digest, *, cached,
                  coalesced, attempts, kernel, profile=None):
        return {
            "id": ticket_id,
            "ok": True,
            "kernel": kernel,
            "result_kind": protocol.result_kind(kernel),
            "stats": stats,
            "result": result,
            "digest": digest,
            "cached": cached,
            "coalesced": coalesced,
            "attempts": attempts,
            "profile": profile,
        }

    def submit_nowait(self, payload):
        """Validate + admit one request without awaiting its result.

        Returns ``(ticket_id_or_None, future)`` — the future is already
        resolved for cache fast-path hits (ticket id None: nothing was
        queued). Raises :class:`RequestError`/:class:`QuotaError`
        synchronously for malformed or quota-rejected requests.
        """
        t0 = self.clock()
        request = protocol.validate_request(payload)
        if request["inject"] and not self.config.allow_fault_injection:
            raise RequestError(
                "fault-injection requests need a service started with "
                "allow_fault_injection=True")
        if request["timeout"] is None:
            request["timeout"] = self.config.default_timeout
        key = protocol.request_key(request)
        rec = telemetry_trace.recorder()
        trace_id = None
        if rec is not None:
            trace_id = rec.new_trace_id()
            pid = rec.process("serve")
            tid = rec.thread(pid, "requests")
            rec.async_begin(pid, tid, "serve", "request", trace_id,
                            _wall_us(),
                            args={"kernel": request["kernel"],
                                  "tenant": request["tenant"],
                                  "backend": request["backend"]})

        future = self._loop.create_future()
        if not request["profile"]:
            entry = self.cache.load(key)
            if entry is not None:
                self.cache.hits += 1
                self.cache_fastpath_hits += 1
                stats, result, digest = entry["result"]
                future.set_result(self._response(
                    None, stats, result, digest, cached=True,
                    coalesced=False, attempts=0,
                    kernel=request["kernel"]))
                self._ob_request["cached"].observe(self.clock() - t0)
                if rec is not None:
                    rec.async_end(pid, tid, "serve", "request", trace_id,
                                  _wall_us(), args={"path": "cached"})
                return None, future
            self.cache.misses += 1

        try:
            ticket = self.scheduler.submit(request, key)  # may raise
        except ReproError:
            if rec is not None:
                rec.async_end(pid, tid, "serve", "request", trace_id,
                              _wall_us(), args={"path": "rejected"})
            raise
        if trace_id is not None:
            self._trace_ids[ticket.id] = trace_id
        self._futures[ticket.id] = future
        if ticket.primary is None:
            self._keyparams[ticket.id] = protocol.cache_params(request)
        self._work_event.set()
        return ticket.id, future

    async def submit(self, payload):
        """Full round trip: admit, await, return the response dict.

        Raises the well-typed :class:`~repro.errors.ServeError`
        subclasses on timeout, cancellation, quota, or worker crash.
        """
        _ticket_id, future = self.submit_nowait(payload)
        return await future

    def cancel(self, ticket_id):
        """Cancel a queued/coalesced/running ticket; returns True if so."""
        settled = self.scheduler.cancel(ticket_id)
        for ticket in settled:
            self._resolve_error(ticket, RequestCancelledError(
                f"request {ticket.id} cancelled"))
        return bool(settled)

    # -- internal loops ----------------------------------------------------

    def _finish_ticket(self, ticket, path):
        """Latency observation + trace-span close for one settled ticket."""
        self._ob_request[path].observe(self.clock() - ticket.submitted_at)
        trace_id = self._trace_ids.pop(ticket.id, None)
        rec = telemetry_trace.recorder()
        if rec is not None and trace_id is not None:
            pid = rec.process("serve")
            tid = rec.thread(pid, "requests")
            rec.async_end(pid, tid, "serve", "request", trace_id,
                          _wall_us(), args={"path": path})

    def _resolve_error(self, ticket, exc):
        self._keyparams.pop(ticket.id, None)
        self._finish_ticket(ticket, "error")
        future = self._futures.pop(ticket.id, None)
        if future is not None and not future.done():
            future.set_exception(exc)

    def _resolve_ok(self, ticket, response):
        self._keyparams.pop(ticket.id, None)
        self._finish_ticket(ticket, "computed")
        future = self._futures.pop(ticket.id, None)
        if future is not None and not future.done():
            future.set_result(response)

    async def _dispatch_loop(self):
        """Keep up to ``pipeline_depth`` batches in flight per worker.

        Each round picks the least-loaded worker with headroom —
        preferring one whose last executed batch class is queued again
        (template-affinity: the worker's compiled closures are warm
        for that class) — and hands the scheduler that class as its
        batching hint. Death handling lives entirely in the per-worker
        receiver: a failed send leaves the record pending, the
        receiver's recv fails on the same dead pipe, and one path
        reclaims/respawns/requeues. So a worker that died while idle
        stays eligible: the batch it gets is how its death is found.
        Only a worker whose pipe the death handler has closed is
        skipped: while its respawn is awaited, a batch sent to it would
        land in ``_pending`` after the handler's snapshot and wait on
        the replacement forever; the respawn sets ``_work_event`` again.
        """
        depth = max(1, self.config.pipeline_depth)
        while self._running:
            await self._work_event.wait()
            self._work_event.clear()
            while self._running and self.scheduler.has_work():
                eligible = [w for w in self.pool.workers
                            if w.inflight < depth and not w.conn.closed]
                if not eligible:
                    break
                eligible.sort(key=lambda w: (w.inflight, w.index))
                queued = set(self.scheduler.queued_classes())
                worker = next((w for w in eligible
                               if w.last_class in queued), eligible[0])
                batch = self.scheduler.next_batch(
                    prefer_class=worker.last_class)
                if not batch:
                    break  # every queued tenant is at its inflight cap
                self._dispatch_batch(worker, batch)

    def _dispatch_batch(self, worker, batch):
        """Pack one batch's data plane and send it to ``worker``."""
        now = self.clock()
        self._ob_batch.observe(len(batch))
        for t in batch:
            self._ob_queued.observe(now - t.submitted_at)

        lease = None
        result_name = None
        descriptors = [None] * len(batch)
        if self._use_shm:
            operand_sets = [t.request["operands"] for t in batch]
            total, writes, descriptors = shm.pack_operands(operand_sets)
            self.arena.stats["inline_fallbacks"] += sum(
                1 for described in descriptors if described
                for spec in described.values()
                if spec["kind"] == "inline")
            if writes:
                lease = self.arena.create(total)
                shm.write_arrays(lease.segment, writes)
            result_name = self.arena.result_name()

        rec = telemetry_trace.recorder()
        jobs = []
        for t, described in zip(batch, descriptors):
            request = t.request
            if described is not None:
                # operands ride the segment; the pipe gets descriptors
                request = {**request, "operands": None}
            jobs.append({"request": request, "shm": described,
                         "inject": t.request["inject"],
                         "trace": rec is not None,
                         "trace_id": self._trace_ids.get(t.id)})
        if rec is not None:
            pid = rec.process("serve")
            tid = rec.thread(pid, "requests")
            for t in batch:
                rec.instant(pid, tid, "serve", "dispatch", _wall_us(),
                            args={"trace_id": self._trace_ids.get(t.id),
                                  "worker": worker.index,
                                  "batch": len(batch)})
        message = {"jobs": jobs,
                   "operand_segment": lease.name if lease else None,
                   "result_segment": result_name}
        record = {"batch": batch, "lease": lease,
                  "result_name": result_name}
        worker.last_class = batch[0].batch_class
        try:
            self.pool.send_batch(worker, message)
        except (BrokenPipeError, OSError):
            # Worker is dead; the receiver's recv on the same pipe
            # fails next, reclaiming this record with the rest.
            worker.inflight += 1  # record is pending despite the fail
        self._pending[worker.index].append(record)
        self._dispatched[worker.index].set()
        self._ob_depth.observe(self.pool.inflight_batches())

    async def _receiver_loop(self, index):
        """Drain one worker's replies in dispatch order (FIFO pipe).

        The single owner of worker ``index``'s death handling: a recv
        error means every pending batch on that worker is lost, so the
        receiver reclaims their shared-memory segments, respawns the
        worker, and requeues (or cleanly fails) their tickets.
        """
        while self._running:
            if not self._pending[index]:
                self._dispatched[index].clear()
                await self._dispatched[index].wait()
                continue
            worker = self.pool.workers[index]
            try:
                reply = await self._loop.run_in_executor(
                    self._recv_executor, self.pool.recv_batch, worker)
            except (EOFError, OSError):
                if self._running:
                    await self._handle_worker_death(index)
                continue
            record = self._pending[index].popleft()
            worker.inflight = max(worker.inflight - 1, 0)
            try:
                self._settle_batch(worker, record, reply)
            finally:
                if record["lease"] is not None:
                    self.arena.release(record["lease"])
            self._work_event.set()

    def _settle_batch(self, worker, record, reply):
        """Resolve one batch's tickets from a worker reply."""
        results, meta = reply
        batch = record["batch"]
        segment = None
        if meta.get("segment"):
            try:
                segment = shm.attach(meta["segment"])
            except ServeError:
                segment = None  # results fall through to errors below
            self.shm_result_segments += 1
            self.shm_result_bytes += int(meta.get("nbytes", 0))
        try:
            for ticket, (status, payload) in zip(batch, results):
                if status != "ok":
                    for settled in self.scheduler.fail(ticket):
                        self._resolve_error(settled, ServeError(payload))
                    continue
                stats, result_ref, digest, profile, spans = payload
                try:
                    result = self._materialize_result(result_ref, segment)
                except (ServeError, ValueError, KeyError) as exc:
                    for settled in self.scheduler.fail(ticket):
                        self._resolve_error(settled, ServeError(
                            f"result transfer failed: {exc}"))
                    continue
                if spans:
                    rec = telemetry_trace.recorder()
                    if rec is not None:
                        pid = rec.process("serve")
                        tid = rec.thread(pid, f"worker{worker.index}")
                        rec.add_events(spans, pid, tid)
                params = self._keyparams.get(ticket.id)
                if not ticket.request["profile"]:
                    self.cache.store(ticket.key, params,
                                     (stats, result, digest))
                for settled in self.scheduler.complete(ticket):
                    self._resolve_ok(settled, self._response(
                        settled.id, stats, result, digest, cached=False,
                        coalesced=settled is not ticket,
                        attempts=ticket.attempts,
                        kernel=ticket.request["kernel"], profile=profile))
            for ticket in batch[len(results):]:
                # the worker answered fewer jobs than dispatched
                if not self.scheduler.requeue(ticket):
                    for settled in self.scheduler.fail(ticket):
                        self._resolve_error(settled, WorkerCrashError(
                            f"worker returned no result for request "
                            f"{ticket.id}"))
        finally:
            if segment is not None:
                try:
                    segment.unlink()
                except (FileNotFoundError, OSError):
                    pass
                shm.close_quietly(segment)

    def _materialize_result(self, result_ref, segment):
        """A self-owned result object from a worker's result reference.

        Shared-memory references are copied out of the segment
        (``np.array``) so responses and cache entries survive the
        segment's unlink; inline references pass through. The copy is
        the *only* one on the result path — the pipe never carried the
        arrays.
        """
        if result_ref is None:
            raise ServeError("worker returned no result payload")
        if "inline" in result_ref:
            return result_ref["inline"]
        ref = result_ref["shm"]
        if segment is None:
            raise ServeError("result segment vanished before digestion")
        arrays = [np.array(shm.view_array(segment.buf, part))
                  for part in ref["arrays"]]
        return shm.unpack_result(ref["meta"], arrays)

    async def _handle_worker_death(self, index):
        """Reclaim, respawn, and retry after worker ``index`` died."""
        worker = self.pool.workers[index]
        # Close the pipe before the first await: the dispatch loop skips
        # closed pipes, so no batch can reach this worker and miss the
        # snapshot below while the respawn is awaited.
        worker.conn.close()
        records = list(self._pending[index])
        self._pending[index].clear()
        for record in records:
            self.arena.reclaim_crashed(record["lease"],
                                       record["result_name"])
            self.pool.retried_batches += 1
        await self._loop.run_in_executor(self._recv_executor,
                                         self.pool.respawn, worker)
        for record in records:
            for ticket in record["batch"]:
                if self.scheduler.requeue(ticket):
                    continue
                for settled in self.scheduler.fail(ticket):
                    self._resolve_error(settled, WorkerCrashError(
                        f"worker died executing request {ticket.id} "
                        f"(attempt {ticket.attempts}/"
                        f"{self.scheduler.max_attempts})"))
        self._work_event.set()

    async def _sweep_loop(self):
        while self._running:
            await asyncio.sleep(self.config.sweep_interval)
            for ticket in self.scheduler.expire():
                self._resolve_error(ticket, RequestTimeoutError(
                    f"request {ticket.id} missed its "
                    f"{ticket.request['timeout']}s deadline"))
            self.scheduler.forget_terminal()

    # -- stats + metrics ---------------------------------------------------

    def _collect_serve(self, registry):
        """Snapshot-time collector: serve counters into the registry."""
        queued, running = self.scheduler.depth()
        gauge = registry.gauge
        gauge("repro_serve_queue_depth",
              "Tickets currently queued").set(queued)
        gauge("repro_serve_running",
              "Tickets currently dispatched to workers").set(running)
        counter = registry.counter
        for name, value in self.scheduler.stats.items():
            counter(f"repro_serve_{name}_total",
                    f"Scheduler tickets {name}").set_total(value)
        counter("repro_serve_cache_hits_total",
                "Point-cache hits (all paths)").set_total(self.cache.hits)
        counter("repro_serve_cache_misses_total",
                "Point-cache misses").set_total(self.cache.misses)
        counter("repro_serve_cache_fastpath_hits_total",
                "Responses served straight from the cache").set_total(
                    self.cache_fastpath_hits)
        counter("repro_serve_worker_respawns_total",
                "Workers respawned after death").set_total(
                    self.pool.respawns)
        counter("repro_serve_worker_respawn_storms_total",
                "Respawn-storm detections (>3 respawns in 10s)"
                ).set_total(self.pool.storms)
        counter("repro_serve_batches_retried_total",
                "Batches re-dispatched after a worker died holding "
                "them").set_total(self.pool.retried_batches)
        pipe = registry.counter(
            "repro_serve_pipe_bytes_total",
            "Bytes crossing the worker pipes (control plane only "
            "under shm)")
        pipe.set_total(self.pool.pipe_bytes["out"], direction="out")
        pipe.set_total(self.pool.pipe_bytes["in"], direction="in")
        gauge("repro_serve_inflight_batches_now",
              "Batches currently in flight across the pool").set(
                  self.pool.inflight_batches())
        astats = self.arena.stats
        counter("repro_serve_shm_segments_total",
                "Operand segments created").set_total(astats["segments"])
        counter("repro_serve_shm_bytes_total",
                "Operand bytes written to shared memory").set_total(
                    astats["bytes"])
        counter("repro_serve_shm_released_total",
                "Segments released (refcount reached zero)").set_total(
                    astats["released"])
        counter("repro_serve_shm_crash_reclaimed_total",
                "Segments reclaimed from dead workers").set_total(
                    astats["crash_reclaimed"])
        counter("repro_serve_shm_inline_fallbacks_total",
                "Operands the shm codec fell back to pickling"
                ).set_total(astats["inline_fallbacks"])
        counter("repro_serve_shm_result_segments_total",
                "Result segments digested").set_total(
                    self.shm_result_segments)
        counter("repro_serve_shm_result_bytes_total",
                "Result bytes received through shared memory"
                ).set_total(self.shm_result_bytes)
        gauge("repro_serve_shm_live_segments",
              "Operand segments currently leased").set(
                  len(self.arena.live_segments()))

    def stats(self):
        """JSON-able service statistics (scheduler, pool, cache, latency)."""
        return {
            "uptime_s": (self.clock() - self._started_at
                         if self._started_at is not None else 0.0),
            "scheduler": self.scheduler.snapshot(),
            "pool": self.pool.snapshot(),
            "cache": {"hits": self.cache.hits,
                      "misses": self.cache.misses,
                      "fastpath_hits": self.cache_fastpath_hits,
                      "dir": self.cache.cache_dir,
                      "enabled": self.cache.use_cache},
            "shm": {"enabled": self._use_shm,
                    **self.arena.stats,
                    "live": len(self.arena.live_segments()),
                    "result_segments": self.shm_result_segments,
                    "result_bytes": self.shm_result_bytes},
            "latency": {
                "queued": _ms_summary(self._h_queued.summary()),
                "request_cached": _ms_summary(
                    self._h_request.summary(path="cached")),
                "request_computed": _ms_summary(
                    self._h_request.summary(path="computed")),
            },
        }

    def metrics(self):
        """The merged telemetry exposition for the ``metrics`` op.

        Merges the process-global registry (engine/DMA/stream/kernel
        series, live when the global switch is on) with the service's
        always-on registry, validates the snapshot against the wire
        schema, and renders the Prometheus text format alongside it.
        """
        snapshot = telemetry_metrics.merged_snapshot(
            telemetry_metrics.DEFAULT, self.telemetry)
        telemetry_metrics.validate_snapshot(snapshot)
        return {"snapshot": snapshot,
                "prometheus": telemetry_metrics.prometheus_text(snapshot)}

    # -- socket endpoint ---------------------------------------------------

    async def _handle_connection(self, reader, writer):
        lock = asyncio.Lock()
        client_tickets = {}

        async def send(message):
            async with lock:
                writer.write(protocol.encode_message(message))
                await writer.drain()

        async def handle_submit(client_id, request_payload):
            try:
                ticket_id, future = self.submit_nowait(request_payload or {})
                if ticket_id is not None:
                    client_tickets[client_id] = ticket_id
                response = await future
            except ReproError as exc:
                await send({"op": "error", "id": client_id,
                            "error": str(exc),
                            "kind": type(exc).__name__})
                return
            finally:
                client_tickets.pop(client_id, None)
            kind = response["result_kind"]
            await send({
                "op": "result", "id": client_id, "ok": True,
                "kernel": response["kernel"], "result_kind": kind,
                "stats": response["stats"],
                "result": protocol.encode_result(kind, response["result"]),
                "digest": response["digest"],
                "cached": response["cached"],
                "coalesced": response["coalesced"],
                "attempts": response["attempts"],
                "profile": response["profile"],
            })

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = protocol.decode_message(line)
                except RequestError as exc:
                    await send({"op": "error", "id": None,
                                "error": str(exc), "kind": "RequestError"})
                    continue
                op = message.get("op", "submit")
                if op == "submit":
                    self._loop.create_task(handle_submit(
                        message.get("id"), message.get("request")))
                elif op == "cancel":
                    ticket_id = client_tickets.get(message.get("id"))
                    cancelled = (self.cancel(ticket_id)
                                 if ticket_id is not None else False)
                    await send({"op": "cancelled", "id": message.get("id"),
                                "ok": cancelled})
                elif op == "stats":
                    await send({"op": "stats", **self.stats()})
                elif op == "metrics":
                    await send({"op": "metrics", **self.metrics()})
                elif op == "ping":
                    await send({"op": "pong"})
                else:
                    await send({"op": "error", "id": message.get("id"),
                                "error": f"unknown op {op!r}",
                                "kind": "RequestError"})
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()


class ServiceThread:
    """A service hosted on a dedicated event-loop thread.

    Synchronous callers (benchmarks, stress tests, notebooks) start
    one, fire :meth:`request` from any thread, and :meth:`stop` it.
    Every blocking wait takes a ``wait_timeout`` so a client can never
    hang on a lost request — the acceptance contract of the
    fault-injection battery.
    """

    def __init__(self, config=None):
        self.config = config or ServeConfig()
        self.service = None
        self._loop = None
        self._thread = None

    def start(self, timeout=60):
        """Start the loop thread and the service; returns self."""
        started = threading.Event()

        def runner():
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=runner,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        started.wait(timeout)
        self.service = Service(self.config)
        asyncio.run_coroutine_threadsafe(
            self.service.start(), self._loop).result(timeout)
        return self

    def request(self, payload, wait_timeout=60):
        """Round-trip one request from this thread (raises ServeError)."""
        future = asyncio.run_coroutine_threadsafe(
            self.service.submit(payload), self._loop)
        return future.result(wait_timeout)

    def submit_many(self, payloads, wait_timeout=120):
        """Submit a list concurrently; returns responses/exceptions.

        The returned list is input-ordered; failed requests appear as
        the raised exception instance instead of a response dict.
        """
        async def gather():
            coros = [self.service.submit(p) for p in payloads]
            return await asyncio.gather(*coros, return_exceptions=True)

        future = asyncio.run_coroutine_threadsafe(gather(), self._loop)
        return future.result(wait_timeout)

    def stats(self, wait_timeout=10):
        """The service's stats dict, fetched on the loop thread."""
        async def get():
            return self.service.stats()

        return asyncio.run_coroutine_threadsafe(
            get(), self._loop).result(wait_timeout)

    def metrics(self, wait_timeout=10):
        """The service's merged telemetry exposition (see Service.metrics)."""
        async def get():
            return self.service.metrics()

        return asyncio.run_coroutine_threadsafe(
            get(), self._loop).result(wait_timeout)

    def stop(self, timeout=30):
        """Stop the service and tear the loop thread down."""
        if self.service is not None:
            asyncio.run_coroutine_threadsafe(
                self.service.stop(), self._loop).result(timeout)
            self.service = None
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
            self._loop.close()
            self._loop = None
            self._thread = None


class SocketClient:
    """Blocking newline-JSON client for the UNIX-socket endpoint.

    Responses are matched to requests by client-assigned id, so many
    requests may be in flight on one connection and results stream
    back in completion order.
    """

    def __init__(self, path, timeout=60):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self._file = self.sock.makefile("rb")
        self._pending = {}
        self._next_id = 0

    def _send(self, message):
        self.sock.sendall(protocol.encode_message(message))

    def _read_until(self, want_id=None, want_op=None):
        while True:
            line = self._file.readline()
            if not line:
                raise ServeError("server closed the connection")
            message = protocol.decode_message(line)
            op = message.get("op")
            if want_op is not None and op == want_op:
                return message
            if want_id is not None and message.get("id") == want_id:
                return message
            if "id" in message and message["id"] is not None:
                self._pending[message["id"]] = message

    def submit(self, request):
        """Fire one request; returns its client id (non-blocking)."""
        client_id = f"c{self._next_id}"
        self._next_id += 1
        self._send({"op": "submit", "id": client_id, "request": request})
        return client_id

    def wait(self, client_id):
        """Block for one submitted request's response message.

        Raises :class:`ServeError` for error responses, with the
        server-side exception class name in the message.
        """
        message = self._pending.pop(client_id, None)
        if message is None:
            message = self._read_until(want_id=client_id)
        if message.get("op") == "error":
            raise ServeError(
                f"{message.get('kind')}: {message.get('error')}")
        return message

    def request(self, request):
        """Submit + wait in one call; returns the response message."""
        return self.wait(self.submit(request))

    def request_many(self, requests):
        """Pipeline many requests on this one connection.

        All requests are written before any response is read (the
        correlation ids pair them back up), so the server's dispatch
        pipeline fills from a single client. Returns input-ordered
        results; a failed request appears as its :class:`ServeError`
        instance instead of a response message.
        """
        ids = [self.submit(request) for request in requests]
        results = []
        for client_id in ids:
            try:
                results.append(self.wait(client_id))
            except ServeError as exc:
                results.append(exc)
        return results

    def cancel(self, client_id):
        """Ask the server to cancel a submitted request."""
        self._send({"op": "cancel", "id": client_id})
        return self._read_until(want_op="cancelled")

    def stats(self):
        """The server's stats dict."""
        self._send({"op": "stats"})
        return self._read_until(want_op="stats")

    def metrics(self):
        """The server's telemetry snapshot + Prometheus exposition."""
        self._send({"op": "metrics"})
        return self._read_until(want_op="metrics")

    def ping(self):
        """Liveness probe."""
        self._send({"op": "ping"})
        return self._read_until(want_op="pong")

    def close(self):
        """Close the connection."""
        try:
            self._file.close()
        finally:
            self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
