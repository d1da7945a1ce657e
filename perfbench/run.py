#!/usr/bin/env python3
"""The repository benchmark: LScatter links, a batched fleet and the service.

Run from the repository root::

    python3 perfbench/run.py --workload link-decoded --seed 1 --seconds 22 --trace 0

Workloads (see ``BENCHMARK.json`` for why each one exists):

* ``link-decoded``: closed loop, one client; each op is one 20 MHz
  two-frame link with the decoded reference;
* ``fleet-batched``: closed loop, one client; each op is a 16-tag
  1.4 MHz eight-frame TDMA fleet run through the batched demodulator;
* ``service-open``: open loop at a fixed session rate into a two-worker
  ``FleetService``.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced operations and prints the
per-layer metrics plus the span table (wall, self time, entries per op).
Every operation's output is checked; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Failed operations whose reasons are printed before the result line.
MAX_PROBLEMS_SHOWN = 10
#: Set-ups behind the reported ``setup_s`` median: this process plus fresh
#: ones, each importing the program and running the warm-up op.
SETUP_RUNS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import the workloads (and with them the program); returns seconds.

    The program is always the one under this checkout's ``src``, never an
    installed copy.
    """
    src = str(ROOT / "src")
    if not (ROOT / "src" / "repro").is_dir():
        raise ImportError(f"no program source at {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    importlib.import_module("workloads")
    importlib.import_module("layers")
    return time.perf_counter() - start


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Checked operations of one benchmark run."""

    def __init__(self, wl, args):
        self.wl = wl
        self.args = args
        self.attempted = 0
        self.problems = []

    def count(self, label, problems):
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self):
        return len(self.problems)

    def attempt(self, op, op_seed):
        """Run one closed-loop op; one that raises is a failed op."""
        try:
            return op(op_seed)
        except Exception as exc:  # counted and reported, not a crashed run
            return self.wl.OpRecord(0.0, 0.0, 0, [f"{type(exc).__name__}: {exc}"])

    # -- set-up ------------------------------------------------------------------

    def setup_op(self):
        """The untimed warm-up op; returns its wall seconds."""
        wl, seed = self.wl, self.args.seed
        name = self.args.workload
        if name == "service-open":
            start = time.perf_counter()
            record = wl.warmup_session(seed)
            wall = time.perf_counter() - start
        elif name == "link-decoded":
            record, report = wl.decoded_link(wl.op_seed(seed, 0))
            wall = record.wall_s
            if not self.args.setup_probe:
                self.count(
                    "decoded-vs-genie check",
                    wl.reference_equivalence(wl.op_seed(seed, 0), report),
                )
        else:
            record = self.attempt(closed_loop_op(wl, name), wl.op_seed(seed, 0))
            wall = record.wall_s
        self.count("warm-up op", record.problems)
        return wall

    def setup_probes(self, n):
        """Set-up seconds of ``n`` fresh processes running this workload."""
        out = []
        for _ in range(n):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                self.args.workload,
                "--seed",
                str(self.args.seed),
                "--seconds",
                "0",
            ]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=150, cwd=ROOT
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}"
                )
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            self.count("set-up probe op", probe["problems"])
            out.append(probe["setup_s"])
        return out

    # -- timed window ------------------------------------------------------------

    def closed_loop(self, seconds, tracer=None):
        """Ops back to back for ``seconds``; alternate traced ops if ``tracer``.

        Returns ``(plain, traced)`` lists of OpRecords.
        """
        wl, seed = self.wl, self.args.seed
        op = closed_loop_op(wl, self.args.workload)
        plain, traced = [], []
        index = 1
        start = time.perf_counter()
        while (
            time.perf_counter() - start < seconds
            or not plain
            or (tracer is not None and not traced)
        ):
            op_seed = wl.op_seed(seed, index)
            if tracer is not None and index % 2 == 0:
                with tracer.op():
                    record = self.attempt(op, op_seed)
                if self.args.workload == "fleet-batched":
                    record.extras["plan_s"] = wl.fleet_plan_seconds(op_seed)
                traced.append(record)
            else:
                record = self.attempt(op, op_seed)
                plain.append(record)
            self.count(f"op {index}", record.problems)
            index += 1
        return plain, traced

    def open_loop(self, seconds, first_index, tracer=None):
        """Offer ``SERVICE_RATE * seconds`` sessions; returns (plan, result)."""
        wl = self.wl
        n = max(1, int(round(wl.SERVICE_RATE * seconds)))
        plan = wl.plan_sessions(self.args.seed, n, first_index=first_index)
        if tracer is None:
            result = wl.open_loop(plan.tasks, wl.SERVICE_RATE)
        else:
            with tracer.op(n_ops=n):
                result = wl.open_loop(plan.tasks, wl.SERVICE_RATE)
        for i, record in enumerate(result.records):
            self.count(f"session {first_index}:{i}", record.problems)
        return plan, result


def closed_loop_op(wl, name):
    return {"link-decoded": wl.decoded_link_op, "fleet-batched": wl.fleet_op}[name]


def end_to_end(run, wl, setup_s):
    """The end-to-end metrics of one untraced run, with sample counts."""
    args = run.args
    if args.workload == "service-open":
        _, result = run.open_loop(args.seconds, first_index=1)
        latencies = result.latencies
        rtf = [x / wl.SESSION_AIR_S for x in latencies]
        # Per worker second, not per elapsed second: the elapsed time of an
        # open loop is set by the offered rate, not by the program.
        bits = sum(r.bits for r in result.records) / len(result.records)
        wall = result.summary["latency"]["execute"]["p50_seconds"] or 0.0
    else:
        records, _ = run.closed_loop(args.seconds)
        records = [r for r in records if r.air_s]  # ops that raised have no timing
        latencies = [r.wall_s for r in records]
        rtf = [r.wall_s / r.air_s for r in records]
        # Mean bits per op over the median op time: the bits follow the
        # inputs, the median keeps one slow op from moving the rate.  A
        # link counts the bits of its whole capture: whether its tag skips
        # the last half-frame is a coin flip per seed, which over the few
        # links of a run would move the mean by ~10% from seed to seed.
        bits = (
            sum(r.extras.get("capture_bits", r.bits) for r in records) / len(records)
            if records
            else 0.0
        )
        wall = wl.median(latencies)
        if records:
            measured = sum(r.bits for r in records) / len(records)
            print(f"measured tag bits per op: {measured:.6g} over {len(records)} ops")
    n = len(latencies)
    values = {
        "setup_s": (wl.median(setup_s), len(setup_s)),
        "rtf_p50": (wl.median(rtf), n),
        "tag_bits_per_s": (bits / wall if wall else 0.0, n),
        "latency_p50_s": (wl.median(latencies), n),
        "latency_p90_s": (wl.percentile(latencies, 90), n),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, run.attempted),
    }
    return values


def per_layer(run, wl, layers_mod):
    """The per-layer metrics of one traced run."""
    args = run.args
    tracer = layers_mod.LayerTrace()
    values = dict.fromkeys(
        (
            "fleet.plan_s",
            "fleet.transmit_calls",
            "fleet.ambient_hit_ratio",
            "service.queue_wait_p50_s",
            "service.execute_p50_s",
            "service.queue_depth_max",
            "service.late_p90_s",
        ),
        0.0,
    )
    if args.workload == "service-open":
        half = args.seconds / 2.0
        _, plain = run.open_loop(half, first_index=1)
        plan, traced = run.open_loop(half, first_index=1001, tracer=tracer)
        plain_wall = wl.median(plain.latencies)
        traced_wall = wl.median(traced.latencies)
        latency = traced.summary["latency"]
        values.update(
            {
                "fleet.plan_s": wl.median(plan.plan_seconds),
                "fleet.transmit_calls": plan.transmit_calls / len(plan.plan_seconds),
                "fleet.ambient_hit_ratio": 1.0 - plan.transmit_calls / plan.planned,
                "service.queue_wait_p50_s": latency["queue_wait"]["p50_seconds"] or 0.0,
                "service.execute_p50_s": latency["execute"]["p50_seconds"] or 0.0,
                "service.queue_depth_max": max(traced.depths, default=0),
                "service.late_p90_s": wl.percentile(traced.lateness, 90),
            }
        )
        n_plain = len(plain.latencies)
        op_wall = traced_wall
    else:
        plain, traced = run.closed_loop(args.seconds, tracer=tracer)
        n_plain = len(plain)
        plain_wall = wl.median([r.wall_s for r in plain])
        traced_wall = wl.median([r.wall_s for r in traced])
        op_wall = sum(r.wall_s for r in traced) / len(traced)
        if args.workload == "fleet-batched":
            transmits = sum(r.extras.get("transmit_calls", 0) for r in traced)
            tags = sum(r.extras.get("tags", 0) for r in traced)
            values.update(
                {
                    "fleet.plan_s": wl.median([r.extras["plan_s"] for r in traced]),
                    "fleet.transmit_calls": transmits / len(traced),
                    "fleet.ambient_hit_ratio": 1.0 - transmits / tags if tags else 0.0,
                }
            )
    values.update(tracer.metrics(op_wall))
    values["obs.trace_overhead"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    values["cache.hit_ratio"] = layers_mod.cache_hit_ratio()
    print(f"traced ops: {tracer.ops}  untraced ops: {n_plain}")
    print(f"{'span':<24}{'wall_s/op':>12}{'self_s/op':>12}{'count/op':>10}")
    for name, wall, self_s, count in tracer.rows():
        print(f"{name:<24}{wall:>12.6f}{self_s:>12.6f}{count:>10.2f}")
    return {name: (value, tracer.ops) for name, value in values.items()}


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC_PATH.read_text())
        import_s = load_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of {names}",
            file=sys.stderr,
        )
        return 2
    import layers as layers_mod
    import workloads as wl

    run = Run(wl, args)
    setup_s = [import_s + run.setup_op()]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s[0], "problems": run.problems}))
        return 0
    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(run, wl, layers_mod)
    else:
        declared = spec["end_to_end"]
        setup_s += run.setup_probes(SETUP_RUNS - 1)
        values = end_to_end(run, wl, setup_s)
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(mismatch)}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}")
    for metric in declared:
        value, n = values[metric["name"]]
        print(f"{metric['name']:<28}{value:>16.6g} {metric['unit']:<8} n={n}")
    for line in run.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {line}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]][0]), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
