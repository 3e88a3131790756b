"""Chrome-trace export tests: golden-file stability + no-perturbation.

Two contracts pinned here:

- the exported trace for a fixed-seed cycle-backend CsrMV run is
  **byte-identical** to the committed golden file
  (``tests/golden/trace_csrmv.json``) — engine timestamps are
  simulated cycles, pid/tid maps are first-use-ordered, and the
  serialization is canonical, so nothing about the file may drift
  without an intentional regeneration;
- enabling telemetry (metrics + tracing) **never changes** results,
  cycles, or digests, on any backend.

Regenerate the golden after an intentional engine/trace change with::

    PYTHONPATH=src python tests/test_telemetry_trace.py --regenerate
"""

import json
import os

import numpy as np
import pytest

from repro import api, telemetry
from repro.serve.protocol import result_digest
from repro.stream import stream_csrmv, stream_spvv
from repro.telemetry import trace
from repro.workloads import (random_csr, random_dense_vector,
                             random_sparse_vector)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "trace_csrmv.json")


def traced_csrmv():
    """The fixed-seed CsrMV run behind the golden file."""
    rec = trace.start()
    try:
        matrix = random_csr(16, 64, 128, seed=7)
        x = random_dense_vector(64, seed=8)
        stats, y = api.run("csrmv", backend="cycle", variant="issr",
                           matrix=matrix, x=x)
    finally:
        trace.stop()
    return rec, stats, y


class TestGoldenFile:
    def test_trace_matches_committed_golden_byte_for_byte(self):
        rec, _stats, _y = traced_csrmv()
        with open(GOLDEN_PATH, "rb") as fh:
            golden = fh.read()
        assert rec.dumps().encode() == golden, (
            "Chrome-trace export drifted from tests/golden/"
            "trace_csrmv.json; if the engine/trace change is "
            "intentional, regenerate with PYTHONPATH=src python "
            "tests/test_telemetry_trace.py --regenerate")

    def test_export_is_bit_stable_across_runs(self):
        first, _s, _y = traced_csrmv()
        second, _s, _y = traced_csrmv()
        assert first.dumps() == second.dumps()

    def test_trace_is_schema_valid_chrome_json(self):
        rec, stats, _y = traced_csrmv()
        doc = json.loads(rec.dumps())
        assert set(doc) == {"traceEvents", "displayTimeUnit",
                            "otherData"}
        events = doc["traceEvents"]
        assert events, "fixed-seed CsrMV produced no trace events"
        for ev in events:
            assert ev["ph"] in {"X", "M", "i", "b", "e"}
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert ev["dur"] >= 1
                assert 0 <= ev["ts"] <= stats.cycles
        names = {ev["name"] for ev in events if ev["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names
        cats = {ev.get("cat") for ev in events if ev["ph"] == "X"}
        assert "engine" in cats
        run_spans = [ev for ev in events
                     if ev["ph"] == "X" and ev["name"] == "run"]
        assert run_spans, "no component run/sleep intervals recorded"


class TestEngineSpans:
    def test_cluster_run_emits_dma_spans_and_metrics(self):
        rec = telemetry.enable(tracing=True)
        try:
            matrix = random_csr(32, 128, 512, seed=3)
            x = random_dense_vector(128, seed=4)
            api.run("cluster_csrmv", backend="cycle", matrix=matrix, x=x)
            snapshot = telemetry.DEFAULT.snapshot()["metrics"]
        finally:
            telemetry.disable()
        dma = [ev for ev in rec.events
               if ev.get("cat") == "dma" and ev["ph"] == "X"]
        assert dma, "cluster CsrMV recorded no DMA transfer spans"
        for ev in dma:
            assert ev["args"]["words"] > 0
            assert ev["args"]["direction"] in {"in", "out"}
        # the absorb hook folded the same transfers into the registry
        moved = snapshot["repro_dma_words_moved_total"]["series"]
        assert sum(entry["value"] for entry in moved) == \
            sum(ev["args"]["words"] for ev in dma)
        assert snapshot["repro_dma_transfers_total"]["series"]
        assert snapshot["repro_dma_busy_cycles_total"]["series"]

    def test_fast_forward_windows_recorded(self):
        rec, _stats, _y = traced_csrmv()
        ffs = [ev for ev in rec.events if ev["name"] == "fast-forward"]
        for ev in ffs:
            assert ev["dur"] == ev["args"]["cycles"] > 0


class TestNoPerturbation:
    """Telemetry fully on vs fully off: bit-identical behavior."""

    # "fast" is the accepted alias of compiled
    @pytest.mark.parametrize("backend", ["cycle", "fast", "compiled"])
    def test_results_cycles_digests_unchanged(self, backend):
        matrix = random_csr(24, 96, 256, seed=11)
        x = random_dense_vector(96, seed=12)

        def run():
            stats, y = api.run("csrmv", backend=backend, variant="issr",
                               matrix=matrix, x=x)
            return (stats.cycles,
                    np.asarray(y, np.float64).tobytes(),
                    result_digest("vector", np.asarray(y)))

        baseline = run()
        telemetry.enable(tracing=True)
        try:
            instrumented = run()
        finally:
            telemetry.disable()
        after = run()
        assert instrumented == baseline
        assert after == baseline

    def test_streaming_executor_unperturbed(self):
        from repro.stream import stream_csrmv

        matrix = random_csr(64, 128, 1024, seed=5)
        x = random_dense_vector(128, seed=6)
        stats0, y0 = stream_csrmv(matrix, x, tile_rows=16)
        telemetry.enable(tracing=True)
        try:
            stats1, y1 = stream_csrmv(matrix, x, tile_rows=16)
        finally:
            telemetry.disable()
        assert np.asarray(y1).tobytes() == np.asarray(y0).tobytes()
        assert stats1.cycles == stats0.cycles


class TestStreamLanes:
    @staticmethod
    def _passes():
        matrix = random_csr(64, 128, 1024, seed=5)
        x = random_dense_vector(128, seed=6)
        fiber = random_sparse_vector(128, 100, seed=7)
        return [lambda: stream_csrmv(matrix, x, tile_rows=16),
                lambda: stream_csrmv(matrix, x, budget_bytes=4096),
                lambda: stream_spvv(fiber.indices, fiber.values, x,
                                    chunk_nnz=16)]

    def test_last_compute_ends_at_the_pass_cycles(self):
        """The trace and the stats read one schedule: each pass's last
        compute event ends where its ``stats.cycles`` say, with the
        passes appended one after the other."""
        rec = trace.start()
        try:
            stats = [run()[0] for run in self._passes()]
        finally:
            trace.stop()
        computes = [e for e in rec.events if e.get("cat") == "stream"
                    and e["name"].startswith("compute")]
        assert len(computes) == sum(s.tiles for s in stats)
        first = end = 0
        for s in stats:
            assert s.tiles > 1
            last = computes[first + s.tiles - 1]
            first += s.tiles
            end += s.cycles
            assert last["ts"] + last["dur"] == end


class TestSession:
    def test_session_writes_both_exports(self, tmp_path):
        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.json"
        with telemetry.session(metrics_out=str(metrics_out),
                               trace_out=str(trace_out)):
            matrix = random_csr(16, 64, 128, seed=7)
            x = random_dense_vector(64, seed=8)
            api.run("csrmv", backend="cycle", variant="issr",
                    matrix=matrix, x=x)
        assert not telemetry.enabled()
        snapshot = json.loads(metrics_out.read_text())
        telemetry.validate_snapshot(snapshot)
        assert "repro_kernel_runs_total" in snapshot["metrics"]
        doc = json.loads(trace_out.read_text())
        assert doc["traceEvents"]

    def test_eval_cli_writes_both_exports(self, tmp_path):
        from repro.eval.__main__ import main

        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.json"
        assert main(["E2", "--backend", "compiled",
                     "--metrics-out", str(metrics_out),
                     "--trace-out", str(trace_out)]) == 0
        assert not telemetry.enabled()
        snapshot = telemetry.validate_snapshot(
            json.loads(metrics_out.read_text()))
        (runs,) = snapshot["metrics"]["repro_kernel_runs_total"]["series"]
        assert runs["labels"] == {"kernel": "csrmv", "backend": "compiled"}
        assert runs["value"] > 0
        assert "traceEvents" in json.loads(trace_out.read_text())

    def test_nested_sessions_share_one_recorder(self, tmp_path):
        with telemetry.session(tracing=True) as outer:
            with telemetry.session(tracing=True) as inner:
                assert inner is outer
            assert trace.recorder() is outer
        assert trace.recorder() is None


def _regenerate():
    rec, stats, _y = traced_csrmv()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(rec.dumps())
    print(f"wrote {GOLDEN_PATH} ({len(rec.events)} events, "
          f"{stats.cycles} cycles)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
