"""Unit + integration tests for the shared-memory data plane.

The codec/arena units run without workers. The integration half
starts small services and checks the two contracts the data plane was
built for: **zero array bytes on the pipes** (bytes-transferred per
request is descriptor-sized while the operands are hundreds of KiB)
and **crash-safe reclamation** (a worker dying while holding an
operand segment — or after a partial result write — leaks nothing
into ``/dev/shm`` and never hangs a client).
"""

import numpy as np
import pytest

from repro import api
from repro.errors import ServeError, WorkerCrashError
from repro.formats.csr import CsrMatrix
from repro.formats.fiber import SparseFiber
from repro.serve import ServeConfig, ServiceThread, shm
from repro.serve.protocol import result_digest
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_fiber_pair,
)

pytestmark = pytest.mark.skipif(not shm.available(),
                                reason="POSIX shared memory unavailable")


def roundtrip(operand_sets):
    """pack -> segment write -> attach -> unpack, like a dispatch."""
    total, writes, descriptors = shm.pack_operands(operand_sets)
    segment = shm.create("rsvtest-roundtrip", max(total, 1))
    try:
        shm.write_arrays(segment, writes)
        return [None if d is None else shm.unpack_operands(d, segment.buf)
                for d in descriptors], segment
    except BaseException:
        segment.unlink()
        raise


def release(segment, *operand_sets):
    """Drop views (they pin the mmap), then close + unlink."""
    del operand_sets
    segment.unlink()
    shm.close_quietly(segment)


class TestOperandCodec:
    def test_ndarray_csr_fiber_round_trip_bit_exact(self):
        matrix = random_csr(16, 64, 256, seed=1)
        x = random_dense_vector(64, seed=2)
        fiber, _ = random_fiber_pair(128, 32, 32, 0.5, seed=3)
        [out], segment = roundtrip([{"matrix": matrix, "x": x,
                                     "f": fiber}])
        assert isinstance(out["matrix"], CsrMatrix)
        assert isinstance(out["f"], SparseFiber)
        assert np.array_equal(out["x"], x)
        assert np.array_equal(out["matrix"].ptr, matrix.ptr)
        assert np.array_equal(out["matrix"].idcs, matrix.idcs)
        assert np.array_equal(out["matrix"].vals, matrix.vals)
        assert out["matrix"].shape == matrix.shape
        assert np.array_equal(out["f"].indices, fiber.indices)
        assert np.array_equal(out["f"].values, fiber.values)
        assert out["f"].dim == fiber.dim
        out = None
        release(segment)

    def test_unpacked_arrays_are_views_not_copies(self):
        x = random_dense_vector(64, seed=2)
        [out], segment = roundtrip([{"x": x}])
        # zero-copy: the unpacked array addresses the segment mmap
        iface = out["x"].__array_interface__
        assert not iface["data"][0] == x.__array_interface__["data"][0]
        assert out["x"].base is not None
        out = None
        release(segment)

    def test_unrecognized_value_falls_back_inline(self):
        total, writes, [described] = shm.pack_operands(
            [{"rows": [0, 4], "x": np.arange(4.0)}])
        assert described["rows"]["kind"] == "inline"
        assert described["rows"]["value"] == [0, 4]
        assert described["x"]["kind"] == "ndarray"
        assert total > 0 and len(writes) == 1

    def test_shared_array_objects_are_written_once(self):
        matrix = random_csr(16, 64, 256, seed=1)
        jobs = [{"matrix": matrix, "x": random_dense_vector(64, seed=i)}
                for i in range(4)]
        total, writes, descriptors = shm.pack_operands(jobs)
        # 3 matrix parts written once + 4 distinct vectors
        assert len(writes) == 3 + 4
        first = descriptors[0]["matrix"]["arrays"]["vals"]["offset"]
        assert all(d["matrix"]["arrays"]["vals"]["offset"] == first
                   for d in descriptors)
        dense = (matrix.ptr.nbytes + matrix.idcs.nbytes
                 + matrix.vals.nbytes) * len(jobs)
        assert total < dense  # dedupe actually saved segment bytes

    def test_descriptor_nbytes_counts_array_payload(self):
        x = np.arange(32, dtype=np.float64)
        _total, _writes, descriptors = shm.pack_operands([{"x": x}])
        assert shm.descriptor_nbytes(descriptors) == x.nbytes

    def test_alignment(self):
        a = np.arange(3, dtype=np.float64)   # 24 bytes
        b = np.arange(5, dtype=np.float64)
        _total, writes, _d = shm.pack_operands([{"a": a, "b": b}])
        for offset, _arr in writes:
            assert offset % shm.ALIGNMENT == 0


class TestResultCodec:
    @pytest.mark.parametrize("kind,value", [
        ("scalar", np.float64(3.25)),
        ("vector", np.arange(9, dtype=np.float64)),
        ("dense", np.arange(12, dtype=np.float64).reshape(3, 4)),
    ])
    def test_dense_kinds_round_trip(self, kind, value):
        arrays, meta = shm.pack_result(kind, value)
        out = shm.unpack_result(meta, [np.array(a) for a in arrays])
        assert np.array_equal(np.asarray(out), np.asarray(value))

    def test_csr_round_trip(self):
        matrix = random_csr(8, 32, 64, seed=5)
        arrays, meta = shm.pack_result("csr", matrix)
        out = shm.unpack_result(meta, [np.array(a) for a in arrays])
        assert isinstance(out, CsrMatrix)
        assert np.array_equal(out.vals, matrix.vals)
        assert out.shape == matrix.shape

    def test_unknown_kind_raises(self):
        with pytest.raises(ServeError, match="unknown result kind"):
            shm.unpack_result({"kind": "nope"}, [])


class TestArena:
    def test_refcounted_release_unlinks_at_zero(self):
        arena = shm.ShmArena(tag="t1")
        lease = arena.create(1024)
        assert lease.name in shm.list_segments()
        arena.acquire(lease)
        assert not arena.release(lease)      # one consumer left
        assert lease.name in shm.list_segments()
        assert arena.release(lease)          # refcount hit zero
        assert lease.name not in shm.list_segments()
        assert arena.stats["released"] == 1

    def test_result_names_are_unique_and_prefixed(self):
        arena = shm.ShmArena(tag="t2")
        names = {arena.result_name() for _ in range(10)}
        assert len(names) == 10
        assert all(n.startswith(shm.SEGMENT_PREFIX) for n in names)

    def test_reclaim_crashed_covers_both_segments(self):
        arena = shm.ShmArena(tag="t3")
        lease = arena.create(512)
        arena.acquire(lease)  # a "worker" also holds it
        result_name = arena.result_name()
        orphan = shm.create(result_name, 256)  # worker died mid-write
        shm.close_quietly(orphan)
        assert arena.reclaim_crashed(lease, result_name) == 2
        assert arena.stats["crash_reclaimed"] == 2
        assert lease.name not in shm.list_segments()
        assert result_name not in shm.list_segments()

    def test_reclaim_tolerates_never_created_result_segment(self):
        arena = shm.ShmArena(tag="t4")
        assert arena.reclaim_crashed(None, arena.result_name()) == 0

    def test_shutdown_unlinks_everything(self):
        arena = shm.ShmArena(tag="t5")
        leases = [arena.create(128) for _ in range(3)]
        for lease in leases[1:]:
            arena.acquire(lease)
        arena.shutdown()
        assert arena.live_segments() == []
        assert all(lease.name not in shm.list_segments()
                   for lease in leases)


@pytest.fixture(scope="module")
def fault_serve(tmp_path_factory):
    config = ServeConfig(
        workers=2, backends=("compiled",),
        cache_dir=str(tmp_path_factory.mktemp("shm-cache")),
        allow_fault_injection=True,
    )
    thread = ServiceThread(config).start()
    yield thread
    thread.stop()


def _operand_payload(seed, **overrides):
    payload = {"kernel": "csrmv", "backend": "compiled",
               "operands": {"matrix": random_csr(64, 512, 4096, seed=seed),
                            "x": random_dense_vector(512, seed=seed + 50)}}
    payload.update(overrides)
    return payload


class TestZeroCopyContract:
    def test_pipe_carries_descriptors_not_arrays(self, fault_serve):
        """The differential zero-copy proof: operand arrays total
        hundreds of KiB per request, yet outbound pipe bytes per
        request stay descriptor-sized — nothing re-pickled them."""
        stats0 = fault_serve.stats()
        payloads = [_operand_payload(100 + i) for i in range(8)]
        responses = fault_serve.submit_many(payloads, wait_timeout=120)
        assert all(isinstance(r, dict) and r["ok"] for r in responses)
        for payload, response in zip(payloads, responses):
            ops = payload["operands"]
            _stats, y = api.run("csrmv", backend="compiled", variant="issr",
                                matrix=ops["matrix"], x=ops["x"])
            assert response["digest"] == result_digest(
                "vector", np.asarray(y))

        stats1 = fault_serve.stats()
        sent = (stats1["pool"]["pipe_bytes"]["out"]
                - stats0["pool"]["pipe_bytes"]["out"])
        requests = (stats1["scheduler"]["submitted"]
                    - stats0["scheduler"]["submitted"])
        operand_bytes = sum(
            p["operands"]["matrix"].ptr.nbytes
            + p["operands"]["matrix"].idcs.nbytes
            + p["operands"]["matrix"].vals.nbytes
            + p["operands"]["x"].nbytes for p in payloads)
        assert operand_bytes > 8 * len(payloads) * 1024  # arrays are big
        assert sent / requests < 4096, \
            f"{sent / requests:.0f} pipe bytes/request — arrays on pipe?"
        assert stats1["shm"]["bytes"] > 0  # they rode shared memory
        assert stats1["shm"]["live"] == 0  # and every segment released

    def test_results_cross_through_segments(self, fault_serve):
        stats0 = fault_serve.stats()
        response = fault_serve.request(_operand_payload(200),
                                       wait_timeout=60)
        assert response["ok"]
        stats1 = fault_serve.stats()
        assert (stats1["shm"]["result_segments"]
                > stats0["shm"]["result_segments"])
        assert (stats1["shm"]["result_bytes"]
                - stats0["shm"]["result_bytes"]) >= 64 * 8


class TestCrashMidTransfer:
    def test_worker_dies_holding_operand_segment(self, fault_serve):
        """The worker is killed after the operand segment exists but
        before it answers: the segment is reclaimed, the client gets
        WorkerCrashError, and /dev/shm holds no debris."""
        reclaimed0 = fault_serve.stats()["shm"]["crash_reclaimed"]
        with pytest.raises(WorkerCrashError):
            fault_serve.request(_operand_payload(300, inject="die"),
                                wait_timeout=120)
        stats = fault_serve.stats()
        assert stats["shm"]["crash_reclaimed"] > reclaimed0
        assert stats["shm"]["live"] == 0
        assert stats["pool"]["retried_batches"] >= 1

    def test_worker_dies_after_partial_result_write(self, fault_serve):
        """The torn-write case: the result segment exists and holds
        garbage when the service notices the death — it must be
        unlinked, never digested."""
        reclaimed0 = fault_serve.stats()["shm"]["crash_reclaimed"]
        with pytest.raises(WorkerCrashError):
            fault_serve.request(
                _operand_payload(301, inject="die_mid_result"),
                wait_timeout=120)
        stats = fault_serve.stats()
        assert stats["shm"]["crash_reclaimed"] > reclaimed0
        assert stats["shm"]["live"] == 0

    def test_batchmate_of_crash_is_retried_on_respawn(self, fault_serve):
        """A victim ticket sharing the dead worker's batch is
        re-dispatched (segments repacked) and can still succeed."""
        retries0 = fault_serve.stats()["scheduler"]["retries"]
        poison = _operand_payload(302, inject="die")
        victim = _operand_payload(303)
        results = fault_serve.submit_many([poison, victim],
                                          wait_timeout=240)
        assert isinstance(results[0], WorkerCrashError)
        if isinstance(results[1], dict):  # salvaged on attempt 2
            ops = victim["operands"]
            _stats, y = api.run("csrmv", backend="compiled", variant="issr",
                                matrix=ops["matrix"], x=ops["x"])
            assert results[1]["digest"] == result_digest(
                "vector", np.asarray(y))
            assert (fault_serve.stats()["scheduler"]["retries"]
                    > retries0)

    def test_service_is_healthy_and_shm_clean_after_the_storm(
            self, fault_serve):
        response = fault_serve.request(_operand_payload(304),
                                       wait_timeout=60)
        assert response["ok"]
        stats = fault_serve.stats()
        assert stats["shm"]["live"] == 0
        assert stats["pool"]["busy"] == 0
        # arena-tagged names are gone from /dev/shm (other services in
        # this pytest process use their own pid-derived tags)
        live = fault_serve.service.arena.live_segments()
        assert live == []
