"""Degradation sweeps and the two gates every sweep is held to.

The chaos suite (:mod:`repro.faults.chaos`), the stress suite
(:mod:`repro.stress.suite`), the ``netgrid``/``stressgrid``/``subgrid``
campaigns and the substrate comparison suite all check one of two
contracts:

* **no-op** — a fault or stress plan at severity/intensity 0 must leave
  the pipeline bit-identical to running with no plan at all: same
  received IQ, same link metrics;
* **monotone degradation** — turning an impairment up must never improve
  the link: goodput non-increasing and, where gated, BER non-decreasing
  from point to point, within :data:`GATE_RELATIVE_SLACK`.

Both live here, with the sweep runner the chaos and stress suites share:
the two differ only in the name of their sweep axis (``severity`` vs
``intensity``), the plan each point builds, and whether the per-window
SNR gate is on.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from repro.core.config import SystemConfig
from repro.core.system import LScatterSystem

#: Relative slack of the monotone gates: a point may beat the one before
#: it by this fraction of the earlier value (or of 1, if that is larger)
#: before the gate trips — floats, not physics, get the benefit of the
#: doubt.
GATE_RELATIVE_SLACK = 1e-6

#: Preamble mis-slice fraction above which a packet's windows are erased.
SWEEP_ERASURE_THRESHOLD = 0.35


class MonotoneGateError(AssertionError):
    """A degradation curve improved as its impairment grew."""


class NoopGateError(AssertionError):
    """A zero-severity plan was not a bit-identical no-op."""


def json_float(value):
    """``value`` as a JSON-safe float (NaN becomes ``None``)."""
    value = float(value)
    return None if math.isnan(value) else value


def write_report(output, report, sort_keys=False):
    """Write ``report`` as indented JSON, creating the directory first."""
    parent = os.path.dirname(output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


# -- monotone degradation -------------------------------------------------------


def monotone_violation(rows, axis, goodput="goodput_kbps", ber="ber"):
    """Where ``rows`` (mildest first) stop degrading, or ``None``.

    Goodput may not rise and, unless ``ber`` is ``None``, BER may not
    fall by more than :data:`GATE_RELATIVE_SLACK` between neighbours.
    A missing goodput (``None``) counts as zero.
    """
    for prev, nxt in zip(rows, rows[1:]):
        was, now = prev[goodput] or 0.0, nxt[goodput] or 0.0
        if now > was + GATE_RELATIVE_SLACK * max(abs(was), 1.0):
            return (
                f"goodput rose from {was:.6f} at {axis}={prev[axis]} "
                f"to {now:.6f} at {axis}={nxt[axis]}"
            )
        if ber is None:
            continue
        slack = GATE_RELATIVE_SLACK * max(abs(prev[ber]), 1.0)
        if nxt[ber] < prev[ber] - slack:
            return (
                f"BER fell from {prev[ber]:.3e} at {axis}={prev[axis]} "
                f"to {nxt[ber]:.3e} at {axis}={nxt[axis]}"
            )
    return None


def require_monotone(rows, axis, label, goodput="goodput_kbps", ber="ber"):
    """Return ``rows``, or raise :class:`MonotoneGateError` naming ``label``."""
    violation = monotone_violation(rows, axis, goodput, ber)
    if violation is not None:
        raise MonotoneGateError(
            f"{label}: {violation}; a harsher point must not improve the link"
        )
    return rows


# -- the shared sweep harness ---------------------------------------------------


def sweep_config(smoke, plan=None, erasures=True, snr_gate_db=None, **overrides):
    """The 1.4 MHz genie link every sweep point runs.

    With ``erasures`` the receiver marks sync-lost packets as erasures,
    and data windows below ``snr_gate_db`` too when that is given.
    """
    kwargs = dict(
        bandwidth_mhz=1.4,
        n_frames=2 if smoke else 4,
        reference_mode="genie",
        sync_mode="model",
        faults=plan,
        erasure_threshold=SWEEP_ERASURE_THRESHOLD if erasures else None,
        window_snr_gate_db=snr_gate_db if erasures else None,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def run_point(config, seed, payload_length, artifacts=False):
    return LScatterSystem(config, rng=seed).run(
        payload_length=payload_length, artifacts=artifacts
    )


def _point_record(axis, value, report):
    """One sweep point's JSON record, keyed by its ``axis`` value."""
    return {
        axis: float(value),
        "n_bits": int(report.n_bits),
        "n_errors": int(report.n_errors),
        "ber": json_float(report.ber),
        "goodput_bps": json_float(report.throughput_bps),
        "n_windows": int(report.n_windows),
        "n_lost_windows": int(report.n_lost_windows),
        "n_erased_windows": int(report.n_erased_windows),
        "sync_failed": bool(report.sync_failed),
    }


def noop_contract(zero_plan, smoke, seed, payload_length):
    """A run under ``zero_plan`` vs a run with no plan: IQ and metrics."""
    clean = run_point(
        sweep_config(smoke, erasures=False), seed, payload_length, artifacts=True
    )
    zeroed = run_point(
        sweep_config(smoke, plan=zero_plan, erasures=False),
        seed,
        payload_length,
        artifacts=True,
    )
    a = clean.extras["artifacts"]
    b = zeroed.extras["artifacts"]
    iq_identical = bool(
        np.array_equal(a.shifted_rx, b.shifted_rx)
        and np.array_equal(a.direct_rx, b.direct_rx)
    )
    metrics_identical = (
        clean.n_bits == zeroed.n_bits
        and clean.n_errors == zeroed.n_errors
        and clean.n_windows == zeroed.n_windows
        and clean.n_lost_windows == zeroed.n_lost_windows
    )
    return {
        "iq_identical": iq_identical,
        "metrics_identical": bool(metrics_identical),
        "passed": bool(iq_identical and metrics_identical),
        "n_bits": int(clean.n_bits),
        "n_errors": int(clean.n_errors),
    }


def sweep(axis, values, plan_for, smoke, seed, payload_length, snr_gate_db=None):
    """One degradation curve with erasure marking on.

    ``plan_for(value)`` builds the plan of each non-zero point; the zero
    point runs with no plan.  Returns the points and whether their
    goodput is monotone non-increasing.
    """
    points = []
    for value in values:
        plan = plan_for(value) if value > 0 else None
        config = sweep_config(smoke, plan=plan, snr_gate_db=snr_gate_db)
        report = run_point(config, seed, payload_length)
        points.append(_point_record(axis, value, report))
    violation = monotone_violation(points, axis, goodput="goodput_bps", ber=None)
    return {"points": points, "monotone_goodput": violation is None}
