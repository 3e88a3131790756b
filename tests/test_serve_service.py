"""End-to-end tests of the in-process serve stack (tier-1 speed).

One module-scoped :class:`~repro.serve.ServiceThread` (warm compiled +
cycle backends, fault injection enabled, isolated cache dir)
amortizes pool warm-up across the module. Every assertion that matters
— bit-identity, caching, coalescing, timeouts, crash recovery — runs
against the real scheduler/pool/cache wiring; the heavier many-client
sweeps live in ``test_serve_stress.py`` behind the ``stress`` marker.
"""

import numpy as np
import pytest

from repro import api
from repro.errors import (
    QuotaError,
    RequestError,
    RequestTimeoutError,
    ServeError,
    WorkerCrashError,
)
from repro.serve import ServeConfig, ServiceThread, TenantQuota
from repro.serve.protocol import result_digest
from repro.sim.engine import DEFAULT_MODE
from repro.telemetry import validate_snapshot
from repro.workloads import random_csr, random_dense_vector


@pytest.fixture(scope="module")
def serve(tmp_path_factory):
    config = ServeConfig(
        workers=2,
        backends=("compiled", "cycle"),
        cache_dir=str(tmp_path_factory.mktemp("serve-cache")),
        allow_fault_injection=True,
    )
    thread = ServiceThread(config).start()
    yield thread
    thread.stop()


def csrmv_payload(seed=1, **overrides):
    payload = {
        "kernel": "csrmv",
        "backend": "compiled",
        "workload": {
            "matrix": {"gen": "random_csr", "nrows": 16, "ncols": 64,
                       "nnz": 128, "seed": seed},
            "x": {"gen": "random_dense_vector", "dim": 64,
                  "seed": seed + 1000},
        },
    }
    payload.update(overrides)
    return payload


def direct_csrmv(seed, backend):
    matrix = random_csr(16, 64, 128, seed=seed)
    x = random_dense_vector(64, seed=seed + 1000)
    return api.run("csrmv", backend=backend, variant="issr",
                   matrix=matrix, x=x)


class TestBitIdentity:
    # "fast" is the accepted alias of compiled; a distinct seed keeps
    # its request from hitting the compiled entry in the shared cache
    @pytest.mark.parametrize("backend", ["compiled", "fast"])
    def test_served_csrmv_matches_direct_api_run(self, serve, backend):
        seed = {"compiled": 20, "fast": 22}[backend]
        response = serve.request(csrmv_payload(seed=seed, backend=backend))
        stats, y = direct_csrmv(seed, backend)
        assert response["digest"] == result_digest("vector", np.asarray(y))
        assert response["stats"]["cycles"] == stats.cycles
        assert response["cached"] is False

    def test_in_process_operands_of_one_shape_keep_their_results(
            self, serve):
        """Two matrices of equal shape and nnz are two questions: the
        second is not answered from the first one's cache entry."""
        x = random_dense_vector(32, seed=9)
        for seed in (1, 2):
            matrix = random_csr(8, 32, 64, seed=seed)
            response = serve.request({
                "kernel": "csrmv", "backend": "compiled",
                "operands": {"matrix": matrix, "x": x}})
            _stats, y = api.run("csrmv", backend="compiled",
                                variant="issr", matrix=matrix, x=x)
            assert response["cached"] is False
            assert response["digest"] == result_digest("vector",
                                                       np.asarray(y))

    def test_served_result_array_is_bit_exact(self, serve):
        response = serve.request(csrmv_payload(seed=21))
        _stats, y = direct_csrmv(21, "compiled")
        served = np.asarray(response["result"], dtype=np.float64)
        assert served.tobytes() == np.asarray(y, np.float64).tobytes()

    def test_scalar_kernel_round_trip(self, serve):
        response = serve.request({
            "kernel": "spvv", "backend": "compiled",
            "workload": {
                "fiber": {"gen": "random_fiber_pair", "dim": 128,
                          "nnz_a": 16, "nnz_b": 16, "match_density": 0.5,
                          "seed": 5, "select": 0},
                "x": {"gen": "random_dense_vector", "dim": 128,
                      "seed": 6},
            }})
        assert response["result_kind"] == "scalar"
        assert isinstance(response["result"], float)


class TestCacheFastPath:
    def test_resubmit_is_served_from_cache(self, serve):
        first = serve.request(csrmv_payload(seed=30))
        again = serve.request(csrmv_payload(seed=30))
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["digest"] == first["digest"]
        assert again["stats"] == first["stats"]

    def test_tenants_share_cache_entries(self, serve):
        first = serve.request(csrmv_payload(seed=31, tenant="alice"))
        again = serve.request(csrmv_payload(seed=31, tenant="bob",
                                            priority=0))
        assert first["cached"] is False and again["cached"] is True

    def test_fast_alias_shares_compiled_class_and_cache(self, serve):
        """``fast`` resolves to ``compiled`` at admission: one batch
        class, one cache entry, one digest for both spellings."""
        from repro.serve.protocol import validate_request
        from repro.serve.scheduler import Ticket

        alias, canon = (validate_request(csrmv_payload(seed=33, backend=b))
                        for b in ("fast", "compiled"))
        assert (Ticket(1, alias, "k", 0.0).batch_class
                == Ticket(2, canon, "k", 0.0).batch_class)
        first = serve.request(csrmv_payload(seed=33, backend="fast"))
        again = serve.request(csrmv_payload(seed=33, backend="compiled"))
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["digest"] == first["digest"]

    def test_profile_requests_bypass_the_cache(self, serve):
        serve.request(csrmv_payload(seed=32))  # populates the cache
        profiled = serve.request(csrmv_payload(seed=32, profile=True))
        assert profiled["cached"] is False
        assert profiled["profile"] is not None


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_execution(self, serve):
        payloads = [csrmv_payload(seed=40) for _ in range(3)]
        responses = serve.submit_many(payloads)
        assert all(isinstance(r, dict) and r["ok"] for r in responses)
        digests = {r["digest"] for r in responses}
        assert len(digests) == 1
        flags = sorted(r["coalesced"] for r in responses)
        assert flags == [False, True, True]


class TestQuotasEndToEnd:
    def test_queued_cap_rejects_with_quota_error(self, serve):
        serve.service.scheduler.tenant_quotas["capped"] = TenantQuota(
            max_queued=1)
        try:
            payloads = [csrmv_payload(seed=50 + i, tenant="capped",
                                      backend="cycle")
                        for i in range(4)]
            results = serve.submit_many(payloads)
        finally:
            serve.service.scheduler.tenant_quotas.pop("capped", None)
        ok = [r for r in results if isinstance(r, dict)]
        rejected = [r for r in results if isinstance(r, QuotaError)]
        assert ok, "the first request should have been admitted"
        assert rejected, "the queued cap should have rejected overflow"
        assert len(ok) + len(rejected) == 4


class TestTimeouts:
    def test_slow_request_times_out_cleanly(self, serve):
        payload = {
            "kernel": "csrmv", "backend": "cycle", "timeout": 0.05,
            "workload": {
                "matrix": {"gen": "random_csr", "nrows": 64,
                           "ncols": 256, "nnz": 8192, "seed": 60},
                "x": {"gen": "random_dense_vector", "dim": 256,
                      "seed": 61},
            }}
        with pytest.raises(RequestTimeoutError, match="deadline"):
            serve.request(payload, wait_timeout=30)

    def test_service_still_healthy_after_timeout(self, serve):
        response = serve.request(csrmv_payload(seed=62))
        assert response["ok"]


class TestFaultInjection:
    def test_worker_death_fails_cleanly_and_pool_heals(self, serve):
        respawns_before = serve.stats()["pool"]["respawns"]
        with pytest.raises(WorkerCrashError, match="attempt 2/2"):
            serve.request(csrmv_payload(seed=70, inject="die"),
                          wait_timeout=60)
        assert serve.stats()["pool"]["respawns"] >= respawns_before + 2
        # the pool healed: normal traffic flows again
        response = serve.request(csrmv_payload(seed=71))
        assert response["ok"]

    def test_injection_rejected_when_not_enabled(self):
        from repro.serve.service import Service

        service = Service(ServeConfig(allow_fault_injection=False))
        with pytest.raises(RequestError, match="fault-injection"):
            service.submit_nowait(csrmv_payload(seed=72, inject="die"))


class _StubPipe:
    """A pipe end that is only open or closed."""

    def __init__(self, closed=False):
        self.closed = closed

    def close(self):
        self.closed = True


class _StubProcess:
    """A worker process that has either exited or keeps running."""

    pid = 0

    def __init__(self, running):
        self.running = running

    def is_alive(self):
        return self.running


class _StubScheduler:
    """Hands out prepared batches, one per ``next_batch`` call."""

    def __init__(self, batches):
        self.batches = list(batches)

    def has_work(self):
        return bool(self.batches)

    def queued_classes(self):
        return []

    def next_batch(self, prefer_class=None):
        return self.batches.pop(0) if self.batches else []


def stub_worker(index, inflight=0, running=True, pipe_closed=False):
    """A pool slot with a fixed load, process state and pipe state."""
    from repro.serve.pool import Worker

    worker = Worker(index, _StubProcess(running), _StubPipe(pipe_closed))
    worker.inflight = inflight
    return worker


def dispatch_once(tmp_path, workers, batches):
    """Run one round of ``Service._dispatch_loop``; returns the sends."""
    import asyncio

    from repro.serve.service import Service

    service = Service(ServeConfig(workers=len(workers),
                                  cache_dir=str(tmp_path), use_cache=False))
    service.pool.workers = workers
    service.scheduler = _StubScheduler(batches)
    sent = []

    def record(worker, batch):
        sent.append((worker.index, batch))
        worker.inflight += 1

    service._dispatch_batch = record

    async def one_round():
        service._work_event = asyncio.Event()
        service._running = True
        task = asyncio.get_running_loop().create_task(
            service._dispatch_loop())
        service._work_event.set()
        for _ in range(5):
            await asyncio.sleep(0)
        service._running = False
        service._work_event.set()
        await task

    try:
        asyncio.run(one_round())
    finally:
        service._recv_executor.shutdown(wait=False)
    return sent, service.scheduler


class TestDispatchEligibility:
    """Only a worker whose pipe the death handler closed gets no batch.

    During its respawn a batch sent to it would be appended to its
    pending queue after the handler's snapshot and then wait on the
    replacement forever. A worker that died while idle keeps its open
    pipe and stays eligible: the batch it gets is how the service
    finds the death and respawns it.
    """

    def test_worker_with_a_closed_pipe_is_skipped(self, tmp_path):
        workers = [stub_worker(0, pipe_closed=True),
                   stub_worker(1, inflight=1)]
        sent, _ = dispatch_once(tmp_path, workers, [["batch"]])
        assert sent == [(1, ["batch"])]

    def test_no_batch_leaves_while_the_only_pipe_is_closed(self, tmp_path):
        workers = [stub_worker(0, pipe_closed=True)]
        sent, scheduler = dispatch_once(tmp_path, workers, [["batch"]])
        assert sent == []
        assert scheduler.has_work()

    def test_exited_worker_with_an_open_pipe_gets_the_batch(self, tmp_path):
        workers = [stub_worker(0, running=False),
                   stub_worker(1, inflight=1)]
        sent, _ = dispatch_once(tmp_path, workers, [["batch"]])
        assert sent == [(0, ["batch"])]

    def test_pipe_stays_closed_for_the_whole_respawn(self, tmp_path):
        """Its process may still poll alive; its pipe is closed first."""
        import asyncio

        from repro.serve.service import Service

        service = Service(ServeConfig(workers=1, cache_dir=str(tmp_path),
                                      use_cache=False))
        service.pool.workers = [stub_worker(0)]
        seen = []
        service.pool.respawn = lambda worker: seen.append(worker.conn.closed)

        async def die():
            service._loop = asyncio.get_running_loop()
            service._work_event = asyncio.Event()
            await service._handle_worker_death(0)

        try:
            asyncio.run(die())
        finally:
            service._recv_executor.shutdown(wait=False)
        assert seen == [True]

    def test_idle_worker_killed_from_outside_is_respawned(self, tmp_path):
        """The lone worker dies idle and is reaped; a request still runs."""
        import os
        import signal

        config = ServeConfig(workers=1, backends=("compiled",),
                             cache_dir=str(tmp_path), use_cache=False)
        thread = ServiceThread(config).start()
        try:
            process = thread.service.pool.workers[0].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            assert not process.is_alive()
            response = thread.request(csrmv_payload(seed=73),
                                      wait_timeout=30)
            assert response["ok"]
            assert response["attempts"] == 2
            assert thread.stats()["pool"]["respawns"] == 1
        finally:
            thread.stop()


def series_value(snapshot, name, **labels):
    """The value of one counter/gauge series in a snapshot (None: absent)."""
    for entry in snapshot["metrics"].get(name, {}).get("series", ()):
        if entry["labels"] == labels:
            return entry["value"]
    return None


class TestProfilePayload:
    def test_cycle_profile_validates_and_counts_ticks(self, serve):
        response = serve.request(csrmv_payload(seed=80, backend="cycle",
                                               profile=True))
        snapshot = validate_snapshot(response["profile"])
        # a fresh worker-side session: exactly this one kernel run
        assert series_value(snapshot, "repro_kernel_runs_total",
                            kernel="csrmv", backend="cycle") == 1
        assert series_value(snapshot, "repro_engine_runs_total",
                            mode=DEFAULT_MODE) >= 1
        assert series_value(snapshot, "repro_engine_steps_total",
                            mode=DEFAULT_MODE) > 0

    def test_profile_none_when_not_requested(self, serve):
        response = serve.request(csrmv_payload(seed=81))
        assert response["profile"] is None

    @pytest.mark.parametrize("profiled_first", [False, True])
    def test_profile_and_plain_twins_never_coalesce(self, serve,
                                                    profiled_first):
        """Identical requests differing only in ``profile`` each get
        the payload they asked for, whichever is admitted first."""
        seed = 82 + profiled_first
        pair = [csrmv_payload(seed=seed),
                csrmv_payload(seed=seed, profile=True)]
        if profiled_first:
            pair.reverse()
        responses = serve.submit_many(pair)
        if profiled_first:
            responses.reverse()
        plain, profiled = responses
        assert plain["profile"] is None
        validate_snapshot(profiled["profile"])
        assert not plain["coalesced"] and not profiled["coalesced"]
        assert plain["digest"] == profiled["digest"]


class TestValidationAtTheDoor:
    def test_malformed_request_raises_before_queueing(self, serve):
        submitted_before = serve.stats()["scheduler"]["submitted"]
        with pytest.raises(RequestError):
            serve.request({"kernel": "csrmv"})
        assert serve.stats()["scheduler"]["submitted"] == submitted_before

    def test_unknown_kernel_raises_request_error(self, serve):
        with pytest.raises(RequestError, match="unknown kernel"):
            serve.request(csrmv_payload(seed=90, kernel="nope"))


class TestStats:
    def test_stats_shape(self, serve):
        serve.request(csrmv_payload(seed=95))
        stats = serve.stats()
        assert stats["uptime_s"] >= 0
        assert stats["pool"]["workers"] == 2
        assert set(stats["cache"]) == {"hits", "misses", "fastpath_hits",
                                       "dir", "enabled"}
        assert stats["scheduler"]["submitted"] >= 1

    def test_stats_json_serializable(self, serve):
        import json

        json.dumps(serve.stats())


class TestSocketEndpoint:
    @pytest.fixture(scope="class")
    def socket_serve(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("sock") / "serve.sock")
        config = ServeConfig(
            workers=1, backends=("compiled",),
            cache_dir=str(tmp_path_factory.mktemp("sock-cache")),
            socket_path=path)
        thread = ServiceThread(config).start()
        yield thread
        thread.stop()

    def test_socket_round_trip_matches_direct_run(self, socket_serve):
        from repro.serve import SocketClient

        with SocketClient(socket_serve.config.socket_path) as client:
            assert client.ping()["op"] == "pong"
            reply = client.request(csrmv_payload(seed=100))
            _stats, y = direct_csrmv(100, "compiled")
            assert reply["ok"] is True
            assert reply["digest"] == result_digest("vector", np.asarray(y))
            again = client.request(csrmv_payload(seed=100))
            assert again["cached"] is True
            stats = client.stats()
            assert stats["scheduler"]["submitted"] >= 1

    def test_socket_metrics_op(self, socket_serve):
        from repro.serve import SocketClient
        from repro.telemetry import validate_snapshot

        with SocketClient(socket_serve.config.socket_path) as client:
            client.request(csrmv_payload(seed=105))
            exported = client.metrics()
            validate_snapshot(exported["snapshot"])
            assert "repro_serve_request_seconds" in \
                exported["snapshot"]["metrics"]
            assert "repro_serve_request_seconds_bucket" in \
                exported["prometheus"]

    def test_socket_errors_carry_exception_kind(self, socket_serve):
        from repro.serve import SocketClient

        with SocketClient(socket_serve.config.socket_path) as client:
            with pytest.raises(ServeError, match="RequestError"):
                client.request({"kernel": "nope", "workload": {}})

    def test_many_inflight_requests_on_one_connection(self, socket_serve):
        from repro.serve import SocketClient

        with SocketClient(socket_serve.config.socket_path) as client:
            ids = [client.submit(csrmv_payload(seed=110 + i))
                   for i in range(4)]
            replies = [client.wait(cid) for cid in ids]
            assert all(r["ok"] for r in replies)
            assert len({r["digest"] for r in replies}) == 4
