"""Shared fixtures: per-test isolation of process-global registries."""

import pytest


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Leave no telemetry switched on between tests.

    Tests that enable the metrics registry or install a trace recorder
    must not leak that state (the hooks are process-global); everything
    is switched off and the default registry cleared afterwards.
    """
    yield
    from repro.telemetry import metrics, trace

    if metrics.ENABLED or trace.active():
        trace.stop()
        metrics.disable()
        metrics.DEFAULT.reset()
