"""The shared monotone-degradation gate at its slack boundary, and the
substrate suite's near/far ladder built on it."""

import numpy as np
import pytest

from repro.gates import GATE_RELATIVE_SLACK, MonotoneGateError, require_monotone
from repro.substrates import suite


@pytest.mark.parametrize(
    "field, base, direction, message",
    [
        ("goodput_kbps", 250.0, np.inf, "goodput rose"),
        ("ber", 0.01, -np.inf, "BER fell"),
    ],
)
def test_gate_allows_exactly_its_slack(field, base, direction, message):
    slack = GATE_RELATIVE_SLACK * max(abs(base), 1.0)
    edge = base + slack if direction > 0 else base - slack

    def curve(value):
        first = {"step": 0, "goodput_kbps": 250.0, "ber": 0.01}
        return [first, {**first, "step": 1, field: value}]

    assert len(require_monotone(curve(edge), "step", "gate")) == 2
    with pytest.raises(MonotoneGateError, match=message):
        require_monotone(curve(np.nextafter(edge, direction)), "step", "gate")


@pytest.mark.parametrize(
    "near_ber, far_ber, passed",
    [
        (0.001, 0.01, True),
        (0.01, 0.001, False),
        (np.nan, 0.01, False),
        (0.001, np.nan, False),
    ],
)
def test_ladder_fails_a_rung_without_bits(monkeypatch, near_ber, far_ber, passed):
    """A NaN BER (no bits on that rung) fails the substrate suite's
    near/far ladder instead of slipping past the monotone comparison."""
    rungs = iter(
        [{"goodput_kbps": 100.0, "ber": near_ber}, {"goodput_kbps": 50.0, "ber": far_ber}]
    )
    monkeypatch.setattr(suite, "_run", lambda config, seed: None)
    monkeypatch.setattr(suite, "_report_fields", lambda report: next(rungs))
    assert suite._check_ladder("chip", seed=0)["passed"] is passed
