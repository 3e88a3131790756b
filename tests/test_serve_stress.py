"""Concurrency stress + fault-injection battery for the serve stack.

Marked ``stress`` (excluded from tier-1; CI's serve job runs it with
an explicit ``-m stress`` override). The contract under test is the
acceptance criterion of the serving layer: under many concurrent
clients, mixed request kinds, deliberate worker kills, timeout storms,
and cache corruption, every request either returns a bit-identical
result or raises a well-typed ServeError — **never** a hung client
(every wait in here carries a hard timeout) and never a silently
wrong result (sha256 digests against direct ``repro.api.run``).
"""

import concurrent.futures
import pathlib
import pickle

import numpy as np
import pytest

from repro import api
from repro.errors import (
    RequestTimeoutError,
    ServeError,
    WorkerCrashError,
)
from repro.serve import ServeConfig, ServiceThread
from repro.serve.protocol import result_digest, request_key, validate_request
from repro.workloads import (
    random_csr,
    random_dense_matrix,
    random_dense_vector,
)

pytestmark = pytest.mark.stress


@pytest.fixture(scope="module")
def serve(tmp_path_factory):
    config = ServeConfig(
        workers=3,
        backends=("compiled", "cycle"),
        cache_dir=str(tmp_path_factory.mktemp("stress-cache")),
        allow_fault_injection=True,
    )
    thread = ServiceThread(config).start()
    yield thread
    thread.stop()


def csrmv_payload(seed, backend="compiled", **overrides):
    payload = {
        "kernel": "csrmv", "backend": backend,
        "workload": {
            "matrix": {"gen": "random_csr", "nrows": 24, "ncols": 96,
                       "nnz": 256, "seed": seed},
            "x": {"gen": "random_dense_vector", "dim": 96,
                  "seed": seed + 5000},
        }}
    payload.update(overrides)
    return payload


def csrmm_payload(seed, backend="compiled"):
    return {
        "kernel": "csrmm", "backend": backend,
        "workload": {
            "matrix": {"gen": "random_csr", "nrows": 16, "ncols": 48,
                       "nnz": 128, "seed": seed},
            "dense": {"gen": "random_dense_matrix", "nrows": 48,
                      "ncols": 4, "seed": seed + 5000},
        }}


def direct_digest(payload):
    """The oracle: run the same request through repro.api.run."""
    wl = payload["workload"]
    if payload["kernel"] == "csrmv":
        matrix = random_csr(wl["matrix"]["nrows"], wl["matrix"]["ncols"],
                            wl["matrix"]["nnz"], seed=wl["matrix"]["seed"])
        x = random_dense_vector(wl["x"]["dim"], seed=wl["x"]["seed"])
        _stats, y = api.run("csrmv", backend=payload["backend"],
                            variant="issr", matrix=matrix, x=x)
        return result_digest("vector", np.asarray(y))
    matrix = random_csr(wl["matrix"]["nrows"], wl["matrix"]["ncols"],
                        wl["matrix"]["nnz"], seed=wl["matrix"]["seed"])
    dense = random_dense_matrix(wl["dense"]["nrows"], wl["dense"]["ncols"],
                                seed=wl["dense"]["seed"])
    _stats, y = api.run("csrmm", backend=payload["backend"],
                        variant="issr", matrix=matrix, dense=dense)
    return result_digest("dense", np.asarray(y))


class TestConcurrencyStress:
    def test_many_clients_many_kinds_bit_identical(self, serve):
        """24 concurrent requests x 4 kinds: every digest matches a
        direct repro.api.run of the same request."""
        kinds = [
            lambda s: csrmv_payload(s, backend="compiled"),
            lambda s: csrmv_payload(s, backend="cycle"),
            lambda s: csrmm_payload(s, backend="compiled"),
            lambda s: csrmm_payload(s, backend="cycle"),
        ]
        payloads = [kinds[i % len(kinds)](1000 + i // len(kinds))
                    for i in range(24)]
        responses = serve.submit_many(payloads, wait_timeout=180)
        assert all(isinstance(r, dict) and r["ok"] for r in responses)
        for payload, response in zip(payloads, responses):
            assert response["digest"] == direct_digest(payload), payload

    def test_threaded_clients_share_one_service(self, serve):
        """16 OS threads hammering request() concurrently; results are
        deterministic per payload and every wait is bounded."""
        def one(i):
            payload = csrmv_payload(2000 + i % 4, backend="compiled",
                                    tenant=f"t{i % 3}")
            return i, serve.request(payload, wait_timeout=120)

        with concurrent.futures.ThreadPoolExecutor(16) as pool:
            results = [f.result(timeout=150)
                       for f in [pool.submit(one, i) for i in range(32)]]
        by_seed = {}
        for i, response in results:
            assert response["ok"]
            by_seed.setdefault(2000 + i % 4, set()).add(response["digest"])
        # identical requests (4 distinct seeds) -> 4 distinct digests,
        # each bit-identical across all threads that asked for it
        assert all(len(digests) == 1 for digests in by_seed.values())
        assert len(by_seed) == 4

    def test_repeat_traffic_is_absorbed_by_the_cache(self, serve):
        payloads = [csrmv_payload(3000, backend="compiled")] * 10
        serve.request(payloads[0], wait_timeout=60)  # populate
        responses = serve.submit_many(payloads, wait_timeout=60)
        assert all(r["cached"] for r in responses
                   if isinstance(r, dict))


class TestWorkerKillStorm:
    def test_kills_interleaved_with_real_traffic(self, serve):
        """Poison requests kill workers mid-stream; every request
        either completes bit-identically or fails with
        WorkerCrashError — and the pool ends healthy."""
        payloads = []
        for i in range(12):
            if i % 4 == 3:
                payloads.append(csrmv_payload(4000 + i, backend="compiled",
                                              inject="die"))
            else:
                payloads.append(csrmv_payload(4000 + i, backend="compiled"))
        results = serve.submit_many(payloads, wait_timeout=240)
        hung = [r for r in results
                if not isinstance(r, (dict, ServeError))]
        assert not hung, f"requests neither settled nor failed: {hung}"
        for payload, outcome in zip(payloads, results):
            if payload.get("inject"):
                assert isinstance(outcome, WorkerCrashError), outcome
            elif isinstance(outcome, dict):
                assert outcome["digest"] == direct_digest(payload)
            else:
                # collateral damage: a batch-mate of a poison request
                # may exhaust its retries on the second kill
                assert isinstance(outcome, (WorkerCrashError, ServeError))
        # pool healed: full worker complement, fresh traffic flows
        after = serve.request(csrmv_payload(4999, backend="compiled"),
                              wait_timeout=60)
        assert after["ok"]
        assert serve.stats()["pool"]["busy"] == 0

    def test_retry_salvages_batchmates_of_a_poison_request(self, serve):
        """A victim batched with one poison request survives via retry
        (attempt 2 on a respawned worker)."""
        retries_before = serve.stats()["scheduler"]["retries"]
        payloads = [csrmv_payload(5000, backend="compiled", inject="die"),
                    csrmv_payload(5001, backend="compiled")]
        results = serve.submit_many(payloads, wait_timeout=240)
        assert isinstance(results[0], WorkerCrashError)
        if isinstance(results[1], dict):  # salvaged on retry
            assert results[1]["digest"] == direct_digest(payloads[1])
            assert serve.stats()["scheduler"]["retries"] > retries_before


class TestTimeoutStorm:
    def test_storm_of_tight_deadlines_settles_everything(self, serve):
        slow = {
            "matrix": {"gen": "random_csr", "nrows": 64, "ncols": 256,
                       "nnz": 8192, "seed": 6000},
            "x": {"gen": "random_dense_vector", "dim": 256, "seed": 6001},
        }
        payloads = [dict(csrmv_payload(0), workload=dict(
            slow, x=dict(slow["x"], seed=6001 + i)),
            backend="cycle", timeout=0.05) for i in range(8)]
        results = serve.submit_many(payloads, wait_timeout=240)
        assert all(isinstance(r, (dict, RequestTimeoutError))
                   for r in results)
        assert any(isinstance(r, RequestTimeoutError) for r in results)
        # the storm left no debris: queue drains, new traffic flows
        after = serve.request(csrmv_payload(6999, backend="compiled"),
                              wait_timeout=120)
        assert after["ok"]

    def test_mixed_deadlines_do_not_poison_patient_requests(self, serve):
        hasty = csrmv_payload(7000, backend="cycle", timeout=0.001)
        hasty["workload"]["matrix"]["nnz"] = 2048
        hasty["workload"]["matrix"]["ncols"] = 256
        hasty["workload"]["x"]["dim"] = 256
        patient = csrmv_payload(7001, backend="compiled")
        results = serve.submit_many([hasty, patient], wait_timeout=120)
        assert isinstance(results[1], dict) and results[1]["ok"]


class TestCacheCorruption:
    def test_corrupt_cache_entry_is_recomputed_not_crashed(self, serve):
        payload = csrmv_payload(8000, backend="compiled")
        first = serve.request(payload, wait_timeout=60)
        assert first["cached"] is False

        key = request_key(validate_request(payload))
        path = pathlib.Path(serve.service.cache.path(key))
        assert path.exists(), "the first response should have been cached"
        path.write_bytes(b"\x00garbage, not a pickle\xff")

        again = serve.request(payload, wait_timeout=60)
        assert again["cached"] is False  # corrupt entry treated as miss
        assert again["digest"] == first["digest"]
        healed = serve.request(payload, wait_timeout=60)
        assert healed["cached"] is True  # fresh entry re-stored

    def test_wrong_shape_pickle_is_treated_as_miss(self, serve):
        payload = csrmv_payload(8100, backend="compiled")
        first = serve.request(payload, wait_timeout=60)
        key = request_key(validate_request(payload))
        path = pathlib.Path(serve.service.cache.path(key))
        path.write_bytes(pickle.dumps(["not", "an", "entry", "dict"]))
        again = serve.request(payload, wait_timeout=60)
        assert again["cached"] is False
        assert again["digest"] == first["digest"]


class TestDataPlaneGuards:
    """CI guards on the shared-memory data plane under load."""

    def test_no_shm_leak_after_mixed_traffic(self, serve):
        """After a burst of mixed operand-carrying and workload
        requests, the arena holds zero live segments and /dev/shm
        holds nothing under this service's name tag."""
        from repro.serve import shm

        operands = {"matrix": random_csr(24, 96, 256, seed=9000),
                    "x": random_dense_vector(96, seed=9050)}
        payloads = [csrmv_payload(9000 + i, backend="compiled")
                    for i in range(8)]
        payloads += [{"kernel": "csrmv", "backend": "compiled",
                      "operands": operands} for _ in range(8)]
        responses = serve.submit_many(payloads, wait_timeout=180)
        assert all(isinstance(r, dict) and r["ok"] for r in responses)

        stats = serve.stats()
        assert stats["shm"]["live"] == 0, "leaked operand segments"
        tag = serve.service.arena.tag
        leaked = [n for n in shm.list_segments()
                  if n.startswith(f"{shm.SEGMENT_PREFIX}{tag}")]
        assert leaked == [], f"segments left in /dev/shm: {leaked}"

    def test_dispatch_keeps_at_least_two_batches_in_flight(self, serve):
        """The pipelining guard: under concurrent load, the dispatch
        loop must overlap batches across workers — the in-flight
        histogram's high-water mark proves >= 2 were in flight at
        once (a serializing regression would flatline it at 1)."""
        payloads = [csrmv_payload(9200 + i,
                                  backend=("cycle", "compiled")[i % 2])
                    for i in range(24)]
        responses = serve.submit_many(payloads, wait_timeout=180)
        assert all(isinstance(r, dict) and r["ok"] for r in responses)

        snapshot = serve.metrics()["snapshot"]
        metric = snapshot["metrics"]["repro_serve_inflight_batches"]
        [series] = metric["series"]
        assert series["count"] > 0
        assert series["max"] >= 2, \
            (f"in-flight high-water mark {series['max']} — dispatch "
             f"is serializing batches instead of pipelining them")
