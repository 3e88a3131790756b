"""Deterministic fake-clock unit tests for the serve scheduler core.

No asyncio, no processes, no wall clock: every test drives
:class:`repro.serve.Scheduler` with a :class:`FakeClock` and asserts
exact state transitions — the documented semantics of priorities,
FIFO order, coalescing (incl. promotion), batching compatibility,
per-tenant quotas, timeout expiry, retry accounting, and cancellation.
"""

import pytest

from repro.errors import QuotaError
from repro.serve.scheduler import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMED_OUT,
    Scheduler,
    TenantQuota,
)


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt
        return self.now


def request(kernel="csrmv", backend="compiled", variant="issr",
            index_bits=32, tenant="anon", priority=1, timeout=None,
            seed=0):
    """A minimal validated-request stand-in (seed varies the key)."""
    return {"kernel": kernel, "backend": backend, "variant": variant,
            "index_bits": index_bits, "tenant": tenant,
            "priority": priority, "timeout": timeout, "profile": False,
            "check": True, "workload": {"seed": seed}, "operands": None,
            "inject": None}


def key_of(req):
    """A stand-in cache key: the semantic fields, stringified."""
    return (f"{req['kernel']}/{req['backend']}/{req['variant']}/"
            f"{req['index_bits']}/{req['workload']['seed']}")


def submit(sched, **kwargs):
    req = request(**kwargs)
    return sched.submit(req, key_of(req))


class TestPriorityAndOrder:
    def test_fifo_within_one_priority(self):
        sched = Scheduler(clock=FakeClock(), batch_max=10)
        tickets = [submit(sched, seed=i) for i in range(4)]
        batch = sched.next_batch()
        assert batch == tickets  # submission order preserved

    def test_lower_priority_number_dispatches_first(self):
        sched = Scheduler(clock=FakeClock(), batch_max=10)
        late_urgent = None
        bulk = submit(sched, seed=1, priority=5)
        urgent = submit(sched, seed=2, priority=0)
        late_urgent = submit(sched, seed=3, priority=0)
        batch = sched.next_batch()
        assert batch == [urgent, late_urgent, bulk]

    def test_batch_max_bounds_one_dispatch(self):
        sched = Scheduler(clock=FakeClock(), batch_max=2)
        tickets = [submit(sched, seed=i) for i in range(5)]
        assert sched.next_batch() == tickets[:2]
        assert sched.next_batch() == tickets[2:4]
        assert sched.next_batch() == tickets[4:]
        assert sched.next_batch() == []

    def test_batches_are_compatibility_pure(self):
        """One batch never mixes (kernel, backend, variant, bits)."""
        sched = Scheduler(clock=FakeClock(), batch_max=10)
        a1 = submit(sched, seed=1, kernel="csrmv")
        b1 = submit(sched, seed=2, kernel="spvv")
        a2 = submit(sched, seed=3, kernel="csrmv")
        first = sched.next_batch()
        assert first == [a1, a2]  # skips the incompatible spvv
        assert sched.next_batch() == [b1]

    def test_urgent_incompatible_ticket_heads_its_own_batch(self):
        sched = Scheduler(clock=FakeClock(), batch_max=10)
        submit(sched, seed=1, kernel="csrmv", priority=5)
        urgent = submit(sched, seed=2, kernel="spvv", priority=0)
        batch = sched.next_batch()
        assert batch[0] is urgent
        assert all(t.batch_class == urgent.batch_class for t in batch)


class TestCoalescing:
    def test_identical_key_coalesces_onto_inflight(self):
        sched = Scheduler(clock=FakeClock())
        primary = submit(sched, seed=7)
        dup = submit(sched, seed=7)
        assert dup.primary is primary
        assert primary.waiters == [dup]
        assert sched.stats["coalesced"] == 1
        # only the primary dispatches
        assert sched.next_batch() == [primary]
        settled = sched.complete(primary)
        assert settled == [primary, dup]
        assert primary.state == DONE and dup.state == DONE

    def test_distinct_keys_do_not_coalesce(self):
        sched = Scheduler(clock=FakeClock())
        a = submit(sched, seed=1)
        b = submit(sched, seed=2)
        assert b.primary is None
        assert a.waiters == []

    def test_coalescing_onto_running_primary(self):
        sched = Scheduler(clock=FakeClock())
        primary = submit(sched, seed=7)
        assert sched.next_batch() == [primary]
        assert primary.state == RUNNING
        dup = submit(sched, seed=7)
        assert dup.primary is primary
        settled = sched.complete(primary)
        assert set(settled) == {primary, dup}

    def test_completed_key_starts_a_fresh_execution(self):
        sched = Scheduler(clock=FakeClock())
        first = submit(sched, seed=7)
        sched.next_batch()
        sched.complete(first)
        again = submit(sched, seed=7)
        assert again.primary is None  # nothing in flight to join

    def test_cancelling_queued_primary_promotes_first_waiter(self):
        sched = Scheduler(clock=FakeClock())
        primary = submit(sched, seed=7)
        w1 = submit(sched, seed=7)
        w2 = submit(sched, seed=7)
        settled = sched.cancel(primary.id)
        assert settled == [primary]
        assert primary.state == CANCELLED
        assert w1.primary is None and w1.state == QUEUED
        assert w2.primary is w1
        assert sched.next_batch() == [w1]
        assert set(sched.complete(w1)) == {w1, w2}

    def test_promotion_keeps_the_original_queue_slot(self):
        sched = Scheduler(clock=FakeClock(), batch_max=1)
        primary = submit(sched, seed=7)
        later = submit(sched, seed=8)
        waiter = submit(sched, seed=7)
        sched.cancel(primary.id)
        # the promoted waiter inherits the primary's position, ahead
        # of the later-submitted distinct request
        assert sched.next_batch() == [waiter]
        assert sched.next_batch() == [later]

    def test_cancelling_a_waiter_detaches_only_it(self):
        sched = Scheduler(clock=FakeClock())
        primary = submit(sched, seed=7)
        dup = submit(sched, seed=7)
        assert sched.cancel(dup.id) == [dup]
        assert dup.state == CANCELLED
        assert primary.waiters == []
        sched.next_batch()
        assert sched.complete(primary) == [primary]


class TestQuotas:
    def test_queued_cap_rejects(self):
        sched = Scheduler(clock=FakeClock(),
                          quota=TenantQuota(max_queued=2))
        submit(sched, seed=1)
        submit(sched, seed=2)
        with pytest.raises(QuotaError, match="cap 2"):
            submit(sched, seed=3)
        assert sched.stats["rejected"] == 1
        # another tenant is unaffected
        submit(sched, seed=4, tenant="other")

    def test_completion_frees_queued_quota(self):
        sched = Scheduler(clock=FakeClock(),
                          quota=TenantQuota(max_queued=1))
        t = submit(sched, seed=1)
        sched.next_batch()
        sched.complete(t)
        submit(sched, seed=2)  # admitted again

    def test_inflight_cap_defers_dispatch(self):
        sched = Scheduler(clock=FakeClock(),
                          quota=TenantQuota(max_inflight=1),
                          batch_max=10)
        a = submit(sched, seed=1)
        b = submit(sched, seed=2)
        assert sched.next_batch() == [a]
        assert sched.next_batch() == []  # b deferred by the cap
        assert b.state == QUEUED
        sched.complete(a)
        assert sched.next_batch() == [b]

    def test_inflight_cap_does_not_starve_other_tenants(self):
        sched = Scheduler(clock=FakeClock(),
                          quota=TenantQuota(max_inflight=1),
                          batch_max=10)
        submit(sched, seed=1, tenant="hog")
        hog2 = submit(sched, seed=2, tenant="hog")
        other = submit(sched, seed=3, tenant="other")
        first = sched.next_batch()
        assert hog2 not in first and other in first

    def test_per_tenant_override_beats_default(self):
        sched = Scheduler(clock=FakeClock(),
                          quota=TenantQuota(max_queued=1))
        sched.tenant_quotas["vip"] = TenantQuota(max_queued=10)
        submit(sched, seed=1, tenant="vip")
        submit(sched, seed=2, tenant="vip")  # beyond the default cap
        with pytest.raises(QuotaError):
            submit(sched, seed=3, tenant="anon", priority=1)
            submit(sched, seed=4, tenant="anon", priority=1)

    def test_coalesced_tickets_count_against_queued_quota(self):
        sched = Scheduler(clock=FakeClock(),
                          quota=TenantQuota(max_queued=2))
        submit(sched, seed=7)
        submit(sched, seed=7)  # coalesced, still holds client state
        with pytest.raises(QuotaError):
            submit(sched, seed=7)


class TestTimeouts:
    def test_queued_ticket_expires_past_deadline(self):
        clock = FakeClock()
        sched = Scheduler(clock=clock)
        t = submit(sched, seed=1, timeout=5.0)
        assert sched.expire() == []
        clock.advance(4.9)
        assert sched.expire() == []
        clock.advance(0.2)
        assert sched.expire() == [t]
        assert t.state == TIMED_OUT
        assert sched.next_batch() == []

    def test_no_timeout_never_expires(self):
        clock = FakeClock()
        sched = Scheduler(clock=clock)
        submit(sched, seed=1, timeout=None)
        clock.advance(1e9)
        assert sched.expire() == []

    def test_running_ticket_expires_and_result_is_discarded(self):
        clock = FakeClock()
        sched = Scheduler(clock=clock)
        t = submit(sched, seed=1, timeout=1.0)
        sched.next_batch()
        clock.advance(2.0)
        assert sched.expire() == [t]
        assert t.state == TIMED_OUT
        # the worker result arriving later settles nothing
        assert sched.complete(t) == []
        assert sched.stats["timed_out"] == 1
        assert sched.stats["completed"] == 0

    def test_expired_queued_primary_promotes_patient_waiter(self):
        clock = FakeClock()
        sched = Scheduler(clock=clock)
        hasty = submit(sched, seed=7, timeout=1.0)
        patient = submit(sched, seed=7, timeout=None)
        clock.advance(2.0)
        assert sched.expire() == [hasty]
        assert patient.primary is None and patient.state == QUEUED
        assert sched.next_batch() == [patient]

    def test_timeout_storm_expires_exactly_the_due_tickets(self):
        clock = FakeClock()
        sched = Scheduler(clock=clock)
        short = [submit(sched, seed=i, timeout=1.0) for i in range(5)]
        long = [submit(sched, seed=10 + i, timeout=50.0) for i in range(5)]
        clock.advance(1.5)
        expired = sched.expire()
        assert set(expired) == set(short)
        assert all(t.state == QUEUED for t in long)
        assert sched.stats["timed_out"] == 5


class TestRetryAccounting:
    def test_requeue_preserves_order_and_counts_attempts(self):
        sched = Scheduler(clock=FakeClock(), max_attempts=2, batch_max=1)
        t = submit(sched, seed=1)
        assert sched.next_batch() == [t]
        assert t.attempts == 1
        assert sched.requeue(t) is True
        assert t.state == QUEUED
        assert sched.next_batch() == [t]
        assert t.attempts == 2

    def test_max_attempts_exhausted_refuses_requeue(self):
        sched = Scheduler(clock=FakeClock(), max_attempts=2)
        t = submit(sched, seed=1)
        sched.next_batch()
        sched.requeue(t)
        sched.next_batch()
        assert sched.requeue(t) is False
        settled = sched.fail(t)
        assert settled == [t]
        assert t.state == FAILED

    def test_requeue_rejects_non_running_tickets(self):
        sched = Scheduler(clock=FakeClock())
        t = submit(sched, seed=1)
        assert sched.requeue(t) is False  # still queued


class TestIntrospection:
    def test_depth_and_snapshot(self):
        sched = Scheduler(clock=FakeClock(), batch_max=1)
        submit(sched, seed=1)
        submit(sched, seed=2, tenant="t2")
        sched.next_batch()
        assert sched.depth() == (1, 1)
        snap = sched.snapshot()
        assert snap["queued"] == 1 and snap["running"] == 1
        assert snap["submitted"] == 2
        assert snap["tenants"]["t2"]["queued"] == 1

    def test_forget_terminal_bounds_memory(self):
        sched = Scheduler(clock=FakeClock())
        t = submit(sched, seed=1)
        sched.next_batch()
        sched.complete(t)
        assert sched.get(t.id) is t
        assert sched.forget_terminal() == 1
        assert sched.get(t.id) is None
        assert sched.cancel(t.id) == []  # unknown ids settle nothing

    def test_snapshot_is_json_serializable(self):
        import json

        sched = Scheduler(clock=FakeClock())
        submit(sched, seed=1)
        json.dumps(sched.snapshot())


class TestGlobalBackpressure:
    def test_total_queue_cap_rejects_any_tenant(self):
        sched = Scheduler(clock=FakeClock(), max_queued_total=2)
        submit(sched, seed=1, tenant="a")
        submit(sched, seed=2, tenant="b")
        # the global cap bites even for a tenant with private headroom
        with pytest.raises(QuotaError, match="global backpressure"):
            submit(sched, seed=3, tenant="c")
        assert sched.stats["rejected"] == 1

    def test_settlement_reopens_the_gate(self):
        sched = Scheduler(clock=FakeClock(), max_queued_total=1)
        t = submit(sched, seed=1)
        sched.next_batch()
        sched.complete(t)
        submit(sched, seed=2)  # admitted again

    def test_cancel_reopens_the_gate(self):
        sched = Scheduler(clock=FakeClock(), max_queued_total=1)
        t = submit(sched, seed=1)
        sched.cancel(t.id)
        submit(sched, seed=2)

    def test_coalesced_waiters_count_toward_the_cap(self):
        sched = Scheduler(clock=FakeClock(), max_queued_total=2)
        submit(sched, seed=1)
        submit(sched, seed=1)  # coalesces, but still occupies a slot
        with pytest.raises(QuotaError, match="queue is full"):
            submit(sched, seed=1)


class TestBatchClassAffinity:
    def test_queued_classes_dedupes_in_urgency_order(self):
        sched = Scheduler(clock=FakeClock())
        submit(sched, seed=1, backend="compiled")
        submit(sched, seed=2, backend="cycle")
        submit(sched, seed=3, backend="compiled")
        submit(sched, seed=4, backend="cycle", priority=0)
        classes = sched.queued_classes()
        assert [c[1] for c in classes] == ["cycle", "compiled"]

    def test_prefer_class_seeds_the_batch(self):
        sched = Scheduler(clock=FakeClock())
        submit(sched, seed=1, backend="compiled")  # globally most urgent
        t_cycle = submit(sched, seed=2, backend="cycle")
        batch = sched.next_batch(prefer_class=t_cycle.batch_class)
        assert [t.request["backend"] for t in batch] == ["cycle"]
        # the passed-over compiled ticket heads the next round
        assert [t.request["backend"]
                for t in sched.next_batch()] == ["compiled"]

    def test_prefer_class_with_no_queued_match_falls_back(self):
        sched = Scheduler(clock=FakeClock())
        submit(sched, seed=1, backend="compiled")
        ghost = ("csrmv", "cycle", "issr", 32)
        batch = sched.next_batch(prefer_class=ghost)
        assert [t.request["backend"] for t in batch] == ["compiled"]

    def test_affinity_does_not_override_priority_within_class(self):
        sched = Scheduler(clock=FakeClock())
        submit(sched, seed=1, backend="cycle", priority=5)
        urgent = submit(sched, seed=2, backend="cycle", priority=0)
        batch = sched.next_batch(prefer_class=urgent.batch_class)
        assert batch[0] is urgent
