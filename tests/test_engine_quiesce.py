"""Unit tests for the quiescence protocol, fast-forward, and run metrics."""

import pytest

from repro.errors import ConfigError, DeadlockError
from repro.sim.engine import (
    DENSE,
    EVENT,
    IDLE,
    SLEEP_HYSTERESIS,
    Engine,
    engine_mode,
)


class Recorder:
    """A scriptable component: returns the next queued sleep state."""

    def __init__(self, engine, name="rec"):
        self.engine = engine
        self.name = name
        self.ticks = []
        self.plan = []

    def tick(self):
        self.ticks.append(self.engine.cycle)
        self.engine.note_progress()
        return self.plan.pop(0) if self.plan else None


class TestModes:
    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            Engine(mode="bogus")
        with pytest.raises(ConfigError):
            engine_mode("bogus")

    def test_engine_mode_scopes_default(self):
        with engine_mode(DENSE):
            assert Engine().mode == DENSE
            with engine_mode(EVENT):
                assert Engine().mode == EVENT
            assert Engine().mode == DENSE

    def test_dense_ignores_sleep_states(self):
        eng = Engine(mode=DENSE)
        rec = Recorder(eng)
        rec.plan = [IDLE, IDLE, IDLE]
        eng.add(rec)
        for _ in range(5):
            eng.step()
        assert rec.ticks == [0, 1, 2, 3, 4]


class TestSleepWake:
    def test_idle_sleep_waits_out_the_hysteresis(self):
        """A component sleeps only after SLEEP_HYSTERESIS quiet ticks."""
        eng = Engine(mode=EVENT)
        rec = Recorder(eng)
        rec.plan = [IDLE] * (2 * SLEEP_HYSTERESIS)
        eng.add(rec)
        for _ in range(2 * SLEEP_HYSTERESIS):
            eng.step()
        assert rec.ticks == list(range(SLEEP_HYSTERESIS))

    def test_wake_returns_component_to_active_set(self):
        eng = Engine(mode=EVENT)
        rec = Recorder(eng)
        rec.plan = [IDLE] * SLEEP_HYSTERESIS
        eng.add(rec)
        for _ in range(SLEEP_HYSTERESIS + 2):
            eng.step()       # asleep after the hysteresis window
        assert rec.ticks == list(range(SLEEP_HYSTERESIS))
        woke_at = eng.cycle
        eng.wake(rec)
        eng.step()
        assert rec.ticks[-1] == woke_at

    def test_wake_unknown_object_is_noop(self):
        Engine(mode=EVENT).wake(object())

    def test_timed_sleep_wakes_exactly(self):
        eng = Engine(mode=EVENT)
        rec = Recorder(eng)
        rec.plan = [7]  # sleep until cycle 7
        eng.add(rec)
        for _ in range(10):
            eng.step()
        assert rec.ticks[:2] == [0, 7]

    def test_event_delivery_wakes_owner(self):
        eng = Engine(mode=EVENT)
        rec = Recorder(eng)
        rec.plan = [IDLE] * 20
        eng.add(rec)

        class Receiver:
            def on_data(self):
                pass

        recv = Receiver()
        eng.own(recv, rec)
        wake_cycle = SLEEP_HYSTERESIS + 3
        eng.at(wake_cycle, recv.on_data)
        for _ in range(wake_cycle + 2):
            eng.step()
        # asleep once the hysteresis ran out; the event wakes it exactly
        # at its scheduled cycle
        assert rec.ticks[:SLEEP_HYSTERESIS + 1] == \
            list(range(SLEEP_HYSTERESIS)) + [wake_cycle]

    def test_add_front_ticks_first_and_remove(self):
        eng = Engine(mode=EVENT)
        order = []

        class Tagger:
            def __init__(self, tag):
                self.tag = tag

            def tick(self):
                order.append(self.tag)

        a = eng.add(Tagger("a"))
        b = eng.add_front(Tagger("b"))
        eng.step()
        assert order == ["b", "a"]
        eng.remove(b)
        eng.step()
        assert order == ["b", "a", "a"]
        assert a is not b


class TestFastForward:
    def test_run_fast_forwards_to_next_event(self):
        eng = Engine(mode=EVENT)
        flag = []
        eng.at(1000, flag.append, True)
        cycles = eng.run(lambda: bool(flag))
        assert cycles == 1001  # identical to the dense engine's count

    def test_fast_forward_lands_on_timed_wake(self):
        eng = Engine(mode=EVENT)
        rec = Recorder(eng)
        rec.plan = [500]
        eng.add(rec)
        eng.run(lambda: len(rec.ticks) >= 2)
        assert rec.ticks == [0, 500]
        assert eng.cycle == 501

    def test_fast_forward_does_not_trip_watchdog(self):
        """An idle window far longer than the watchdog is fine."""
        eng = Engine(mode=EVENT, watchdog=10)
        rec = Recorder(eng)
        rec.plan = [5000]  # sleeps 5000 cycles >> watchdog
        eng.add(rec)
        eng.run(lambda: len(rec.ticks) >= 2)
        assert rec.ticks == [0, 5000]

    def test_dense_equivalent_cycle_count_with_advance_pattern(self):
        """The pipeline executor's timed-wait idiom matches dense."""
        counts = {}
        for mode in (DENSE, EVENT):
            eng = Engine(mode=mode)
            target = eng.cycle + 300
            eng.at(target, lambda: None)
            eng.run(lambda: eng.cycle >= target)
            counts[mode] = eng.cycle
        assert counts[DENSE] == counts[EVENT] == 300

    def test_fully_quiescent_with_nothing_pending_raises(self):
        eng = Engine(mode=EVENT)
        rec = Recorder(eng)
        rec.plan = [IDLE] * (2 * SLEEP_HYSTERESIS)
        eng.add(rec)
        with pytest.raises(DeadlockError) as err:
            eng.run(lambda: False, max_cycles=100)
        assert "quiescent" in str(err.value)

    def test_progress_report_shows_sleepers(self):
        eng = Engine(mode=EVENT)
        idle = Recorder(eng, name="idler")
        idle.plan = [IDLE] * (2 * SLEEP_HYSTERESIS)
        timed = Recorder(eng, name="timer")
        timed.plan = [400]
        eng.add(idle)
        eng.add(timed)
        for _ in range(SLEEP_HYSTERESIS + 1):
            eng.step()
        report = eng.progress_report()
        assert "idler@idle" in report
        assert "timer@wake=400" in report


class TestWatchdogSteps:
    def test_watchdog_counts_executed_steps(self):
        eng = Engine(mode=EVENT, watchdog=10)

        class Spinner:
            def tick(self):
                pass  # active but never makes progress

        eng.add(Spinner())
        with pytest.raises(DeadlockError) as err:
            eng.run(lambda: False)
        assert "no progress" in str(err.value)

    def test_max_cycles_still_enforced(self):
        eng = Engine(mode=EVENT, watchdog=10 ** 9)

        class Busy:
            def __init__(self, engine):
                self.engine = engine

            def tick(self):
                self.engine.note_progress()

        eng.add(Busy(eng))
        with pytest.raises(DeadlockError):
            eng.run(lambda: False, max_cycles=50)


class TestEngineMetrics:
    @staticmethod
    def _sleepy_run(mode):
        """Tick at 0, ask to sleep until 300, and run to the next tick."""
        eng = Engine(mode=mode)
        rec = Recorder(eng, name="rec")
        rec.plan = [300]
        eng.add(rec)
        return eng.run(lambda: len(rec.ticks) >= 2)

    def test_run_records_runs_steps_and_fast_forwards(self):
        from repro.telemetry import metrics, trace

        metrics.enable()
        trace.start()
        assert self._sleepy_run(EVENT) == 301
        assert self._sleepy_run(DENSE) == 2  # dense never sleeps
        events = trace.stop().to_chrome()["traceEvents"]
        counter = metrics.DEFAULT.get
        runs = counter("repro_engine_runs_total")
        steps = counter("repro_engine_steps_total")
        skipped = counter("repro_engine_fast_forwarded_cycles_total")
        assert runs.value(mode=EVENT) == runs.value(mode=DENSE) == 1
        # event mode steps the two ticking cycles and jumps the rest
        assert steps.value(mode=EVENT) == 2
        assert skipped.value(mode=EVENT) == 299
        assert steps.value(mode=DENSE) == 2
        assert skipped.value(mode=DENSE) == 0
        # the trace shows the same jump as one fast-forward window
        windows = [e for e in events if e.get("name") == "fast-forward"]
        assert [w["args"]["cycles"] for w in windows] == [299]

    def test_run_records_once_per_call_and_only_when_enabled(
            self, monkeypatch):
        from repro.telemetry import metrics

        calls = []
        monkeypatch.setattr(metrics, "absorb_engine_run",
                            lambda *args: calls.append(args))
        self._sleepy_run(EVENT)
        assert calls == []
        metrics.enable()
        self._sleepy_run(EVENT)
        assert calls == [(EVENT, 2, 299)]


class TestCacheCounters:
    def test_program_cache_hit_counters(self):
        from repro.kernels.common import ProgramCache

        cache = ProgramCache(maxsize=4)
        cache.get_or_build("k", lambda: "v")
        cache.get_or_build("k", lambda: "v")
        cache.get_or_build("k2", lambda: "v2")
        assert cache.misses == 2
        assert cache.hits == 1

    def test_repeated_experiment_point_is_a_point_cache_hit(self, tmp_path):
        from repro.eval.parallel import ParallelRunner

        runner = ParallelRunner(processes=1, cache_dir=str(tmp_path))
        params = [{"v": 3}, {"v": 4}]
        first = runner.map(_square, params)
        assert runner.cache_hits == 0 and runner.cache_misses == 2
        second = runner.map(_square, params)
        assert second == first == [9, 16]
        assert runner.cache_hits == 2


def _square(params):
    """Module-level point function (picklable) for the cache test."""
    return params["v"] ** 2
