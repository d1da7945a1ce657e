"""Benchmark workloads: one operation per workload, and its output check.

Every operation drives the program through its public entry points only
(``LScatterSystem.run``, ``FleetRunner.run/plan``, ``FleetService``) and
returns an :class:`OpRecord` holding its wall time, the LTE air time it
covered, the backscatter bits it measured and the reasons, if any, why
its output is wrong.  An operation with a non-empty ``problems`` list is
counted as failed.
"""

from __future__ import annotations

import queue
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SystemConfig
from repro.core.system import LScatterSystem
from repro.fleet.deployment import Deployment
from repro.fleet.runner import FleetRunner
from repro.lte.params import FRAME_SECONDS
from repro.service import (
    BackpressureShed,
    FleetService,
    ServiceError,
    SessionFailure,
)

#: Tag payload handed to every link, fleet tag and service session.
PAYLOAD_LENGTH = 20000
#: An operation whose measured BER exceeds this fails its check.  The
#: default smart-home geometry runs at BER ~1e-5 (links) to ~1e-3 (one
#: 4176-bit fleet tag), so a breach means the receiver is broken.
BER_CEILING = 0.01

LINK_BANDWIDTH_MHZ = 20.0
LINK_FRAMES = 2
FLEET_TAGS = 16
FLEET_BANDWIDTH_MHZ = 1.4
FLEET_FRAMES = 8
#: LTE air time one service session covers: its plan's whole capture.
SESSION_AIR_S = FLEET_FRAMES * FRAME_SECONDS
#: Worker threads of the ``service-open`` FleetService.
SERVICE_WORKERS = 2
#: Offered session rate of ``service-open`` (sessions per second): 58% of
#: the closed-loop capacity that ``probe.py`` measured at two workers
#: (see ``capacity.json``), so sessions rarely queue behind each other.
SERVICE_RATE = 2.0


@dataclass
class OpRecord:
    """What one checked operation did and how long it took."""

    wall_s: float
    air_s: float
    bits: int
    problems: list = field(default_factory=list)
    #: Layer figures the operation's result exposes (fleet ambient use).
    extras: dict = field(default_factory=dict)


def op_seed(seed, index):
    """The seed of operation ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def _scheduled_bits(report):
    schedule = report.extras["artifacts"].schedule
    return sum(len(w.bits) for w in schedule.windows if w.kind == "data")


def check_link_report(report, decoded=False):
    """Reasons why one ``LinkReport`` is wrong (empty when it is right)."""
    problems = []
    if report.sync_failed:
        problems.append("sync_failed")
    scheduled = _scheduled_bits(report)
    if report.n_bits != scheduled:
        problems.append(f"n_bits {report.n_bits} != scheduled {scheduled}")
    if report.n_bits and report.ber > BER_CEILING:
        problems.append(f"BER {report.ber:.3g} above ceiling {BER_CEILING}")
    if decoded and not report.lte_block_error_rate == 0.0:
        problems.append(
            f"LTE CRC failures (block error rate {report.lte_block_error_rate})"
        )
    return problems


def run_link(reference_mode, seed):
    """One 20 MHz two-frame link; returns ``(LinkReport, wall seconds)``."""
    config = SystemConfig(
        bandwidth_mhz=LINK_BANDWIDTH_MHZ,
        n_frames=LINK_FRAMES,
        reference_mode=reference_mode,
    )
    start = time.perf_counter()
    report = LScatterSystem(config, rng=seed).run(
        payload_length=PAYLOAD_LENGTH, artifacts=True
    )
    wall = time.perf_counter() - start
    return report, wall


def capture_bits(report):
    """Data bits the link's tag schedules when it keeps every half-frame.

    A positive sync error makes the tag skip the capture's last
    half-frame (about every other link), so the bits a link measures are
    either all of these or three quarters of them.
    """
    schedule = report.extras["artifacts"].schedule
    if not schedule.n_half_frames:
        return 0
    per_half_frame = schedule.data_bit_count / schedule.n_half_frames
    return int(round(per_half_frame * 2 * LINK_FRAMES))


def decoded_link(seed):
    """One checked decoded-reference link; returns ``(OpRecord, LinkReport)``."""
    report, wall = run_link("decoded", seed)
    record = OpRecord(
        wall_s=wall,
        air_s=LINK_FRAMES * FRAME_SECONDS,
        bits=int(report.n_bits),
        problems=check_link_report(report, decoded=True),
        extras={"capture_bits": capture_bits(report)},
    )
    return record, report


def decoded_link_op(seed):
    """The ``link-decoded`` op."""
    return decoded_link(seed)[0]


def reference_equivalence(seed, decoded):
    """Reasons why a genie link at ``seed`` measures other bits than ``decoded``.

    With every LTE CRC passing, the decoded reference is the transmitted
    waveform rebuilt from the decoded transport blocks, so the backscatter
    demodulator sees the same reference as with the genie one and must
    report the same bits and errors.
    """
    genie, _ = run_link("genie", seed)
    problems = []
    if not decoded.lte_block_error_rate == 0.0:
        problems.append(
            "decoded link had LTE CRC failures, so its reference is the "
            "received waveform, not the rebuilt one"
        )
    if (decoded.n_bits, decoded.n_errors) != (genie.n_bits, genie.n_errors):
        problems.append(
            f"decoded (bits, errors) {(decoded.n_bits, decoded.n_errors)} != "
            f"genie {(genie.n_bits, genie.n_errors)}"
        )
    return problems


def fleet_runner(seed, batch_tags):
    deployment = Deployment.ring(
        FLEET_TAGS, bandwidth_mhz=FLEET_BANDWIDTH_MHZ, n_frames=FLEET_FRAMES
    )
    return FleetRunner(
        deployment, scheme="tdma", batch_tags=batch_tags, workers=1, seed=seed
    )


def check_fleet_report(report, last_owner):
    """Reasons why one batched ``FleetReport`` is wrong.

    ``last_owner`` is the tag the schedule gives the capture's last
    half-frame.
    """
    problems = []
    if report.transmit_invocations != 1:
        problems.append(
            f"fleet.transmit_calls {report.transmit_invocations} != 1"
        )
    if report.failed_tags:
        problems.append(f"{report.failed_tags} failed fleet tag(s)")
    short = []
    for tag in report.tags:
        if tag.failed:
            continue
        # With no erased windows, measure_link counts every scheduled data
        # bit in n_bits, so n_bits is the tag's scheduled count.
        if tag.n_erased_windows or tag.n_lost_windows:
            problems.append(
                f"{tag.name}: {tag.n_erased_windows} erased / "
                f"{tag.n_lost_windows} lost windows"
            )
        if tag.owned_half_frames and tag.n_windows == 0:
            short.append(tag.name)
        elif tag.owned_half_frames and np.isnan(tag.sync_error_us):
            problems.append(f"{tag.name}: sync_failed")
        if tag.n_bits and tag.n_errors / tag.n_bits > BER_CEILING:
            problems.append(
                f"{tag.name}: BER {tag.n_errors / tag.n_bits:.3g} above "
                f"ceiling {BER_CEILING}"
            )
    # Only the owner of the capture's last half-frame may come up empty: a
    # positive sync error pushes that half-frame past the capture's end.
    if short and short != [last_owner]:
        problems.append(f"tags with no windows: {short} (last owner {last_owner})")
    return problems


def fleet_plan_seconds(seed):
    """Wall time of ``FleetRunner.plan`` for the fleet of ``fleet_op(seed)``."""
    with fleet_runner(seed, batch_tags=True) as runner:
        start = time.perf_counter()
        runner.plan(payload_length=PAYLOAD_LENGTH)
        return time.perf_counter() - start


def fleet_op(seed):
    start = time.perf_counter()
    with fleet_runner(seed, batch_tags=True) as runner:
        report = runner.run(payload_length=PAYLOAD_LENGTH)
        wall = time.perf_counter() - start
        # Untimed: the plan is deterministic and its ambient is cached now.
        schedule = runner.plan(payload_length=PAYLOAD_LENGTH, parallel=False).schedule
    return OpRecord(
        wall_s=wall,
        air_s=report.duration_seconds,
        bits=sum(int(t.n_bits) for t in report.tags),
        problems=check_fleet_report(report, schedule.slots[-1].winner),
        extras={
            "transmit_calls": report.transmit_invocations,
            "tags": report.n_tags,
        },
    )


# -- service-open ---------------------------------------------------------------


def run_session(task):
    """One tag session, in the shape FleetService workers expect."""
    start = time.perf_counter()
    report = LScatterSystem(task.config, rng=task.seed).run(
        payload_length=task.payload_length,
        ambient=task.ambient,
        owned_half_frames=task.owned,
        artifacts=True,
    )
    return time.perf_counter() - start, report


@dataclass
class SessionPlan:
    """Tag sessions to offer, and what planning them cost the fleet layer."""

    tasks: list
    #: Wall time of each ``FleetRunner.plan`` call.
    plan_seconds: list
    #: Ambient transmits the plans made, and tag sessions they planned.
    transmit_calls: int
    planned: int


def plan_sessions(seed, n_sessions, first_index=1):
    """The first ``n_sessions`` sessions of 16-tag TDMA genie plans.

    Plan ``k`` is seeded with ``op_seed(seed, first_index + k)``; its
    sessions come in tag order.
    """
    tasks, plan_seconds = [], []
    transmit_calls = 0
    index = first_index
    while len(tasks) < n_sessions:
        with fleet_runner(op_seed(seed, index), batch_tags=False) as runner:
            start = time.perf_counter()
            plan = runner.plan(payload_length=PAYLOAD_LENGTH, parallel=False)
            plan_seconds.append(time.perf_counter() - start)
            transmit_calls += runner.cache.transmit_calls
        tasks.extend(plan.tasks)
        index += 1
    return SessionPlan(tasks[:n_sessions], plan_seconds, transmit_calls, len(tasks))


@dataclass
class OpenLoopResult:
    """Per-session outcome of one open-loop window."""

    records: list
    latencies: list
    lateness: list
    depths: list
    summary: dict


def open_loop(tasks, rate):
    """Offer ``tasks`` to a fresh FleetService at a fixed rate.

    Session ``i`` is due ``i / rate`` seconds after the start; its latency
    runs from that due time until ``FleetService.result`` hands it over,
    so a stall also charges the wait it imposes on later sessions.  A
    collector thread takes results in submission order while the
    generator keeps to its schedule.
    """
    n = len(tasks)
    records = [None] * n
    latencies = [None] * n
    lateness, depths = [], []
    pending = queue.Queue()

    with FleetService(workers=SERVICE_WORKERS) as service:

        def collect():
            while True:
                item = pending.get()
                if item is None:
                    return
                index, ticket, due = item
                try:
                    result = service.result(ticket, timeout=120.0)
                except ServiceError as exc:
                    result = SessionFailure(job_id=ticket.job_id, error=str(exc))
                latencies[index] = time.perf_counter() - due
                if isinstance(result, SessionFailure):
                    records[index] = OpRecord(
                        0.0, SESSION_AIR_S, 0, [f"session failed: {result.error}"]
                    )
                    continue
                records[index] = OpRecord(
                    wall_s=latencies[index],
                    air_s=SESSION_AIR_S,
                    bits=int(result.n_bits),
                    problems=check_link_report(result),
                )

        collector = threading.Thread(target=collect, name="perfbench-collector")
        collector.start()
        t0 = time.perf_counter() + 0.01
        try:
            for index, task in enumerate(tasks):
                due = t0 + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                submitted = time.perf_counter()
                try:
                    ticket = service.submit(run_session, task)
                except BackpressureShed:
                    records[index] = OpRecord(0.0, SESSION_AIR_S, 0, ["shed"])
                    continue
                lateness.append(submitted - due)
                depths.append(service.summary()["queue"]["depth"])
                pending.put((index, ticket, due))
        finally:
            pending.put(None)
            collector.join()
        summary = service.summary()
    return OpenLoopResult(
        records=records,
        latencies=[x for x in latencies if x is not None],
        lateness=lateness,
        depths=depths,
        summary=summary,
    )


def warmup_session(seed):
    """The service workload's set-up op: plan, start a service, one session."""
    tasks = plan_sessions(seed, 1, first_index=0).tasks
    result = open_loop(tasks, SERVICE_RATE)
    return result.records[0]


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0
