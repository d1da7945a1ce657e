#!/usr/bin/env python3
"""Measure FleetService capacity, the basis of the service-open offered rate.

Run from the repository root::

    python3 perfbench/probe.py --seconds 30 --output perfbench/capacity.json

For one and for two worker threads it keeps as many sessions in flight as
there are workers (a closed loop) and counts completed sessions per
second.  The sessions are the ones ``service-open`` offers: per-tag
sessions of 16-tag 1.4 MHz eight-frame TDMA genie plans.  The file it
writes records the machine's core count, both capacities and the offered
rate ``workloads.SERVICE_RATE`` that the benchmark uses.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import sys
import time

import run


def closed_loop_capacity(wl, workers, seconds, seed):
    """Completed sessions per second with ``workers`` sessions in flight."""
    tasks = collections.deque(wl.plan_sessions(seed, 16 * 8).tasks)
    done = 0
    with wl.FleetService(workers=workers) as service:
        in_flight = collections.deque(
            service.submit(wl.run_session, tasks.popleft()) for _ in range(workers)
        )
        start = time.perf_counter()
        while time.perf_counter() - start < seconds and tasks:
            service.result(in_flight.popleft(), timeout=120.0)
            done += 1
            in_flight.append(service.submit(wl.run_session, tasks.popleft()))
        elapsed = time.perf_counter() - start
        for ticket in in_flight:
            service.result(ticket, timeout=120.0)
        execute = service.summary()["latency"]["execute"]
    return {
        "sessions": done,
        "seconds": elapsed,
        "sessions_per_s": done / elapsed,
        "execute_p50_s": execute["p50_seconds"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    run.load_program()
    import workloads as wl

    # One session first, so neither measurement pays the first-call costs.
    wl.warmup_session(args.seed)
    capacity = {
        str(workers): closed_loop_capacity(wl, workers, args.seconds, args.seed)
        for workers in (1, 2)
    }
    out = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "session": "one tag of a 16-tag 1.4 MHz 8-frame TDMA genie plan",
        "closed_loop_by_workers": capacity,
        "service_workers": wl.SERVICE_WORKERS,
        "offered_sessions_per_s": wl.SERVICE_RATE,
        "offered_share_of_capacity": (
            wl.SERVICE_RATE
            / capacity[str(wl.SERVICE_WORKERS)]["sessions_per_s"]
        ),
    }
    text = json.dumps(out, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
