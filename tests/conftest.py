"""Shared fixtures and the hypothesis profiles of the test tiers.

Tier-1 loads the derandomized ``tier1`` profile: every ``@given`` test
draws the same examples on every run, so a failure reproduces in any
checkout. ``--hypothesis-profile=fuzz`` draws fresh random examples
(CI's coverage job runs tier-1 that way).
"""

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")


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
