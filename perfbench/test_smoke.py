"""Smoke test of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

A tiny run of every workload, traced and untraced, must emit exactly the
metrics ``BENCHMARK.json`` declares, each with its unit, and pass its
output checks; a deliberately wrong output must be counted as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _result(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    """One set-up per run, in this process: no fresh set-up processes."""
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def _main(workload, trace):
    return run.main(
        [
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.01",
            "--trace", str(trace),
        ]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(capsys, workload, trace):
    assert _main(workload, trace) == 0
    result = _result(capsys)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)


def test_ber_ceiling_breach_counts_as_failed(capsys, monkeypatch):
    run.load_program()
    import workloads

    monkeypatch.setattr(workloads, "BER_CEILING", -1.0)
    assert _main("fleet-batched", 0) == 0
    result = _result(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_fleet_check_flags_a_second_transmit():
    run.load_program()
    import workloads

    def problems(transmits, empty=None):
        tags = [
            SimpleNamespace(
                name=name, failed=False, n_erased_windows=0, n_lost_windows=0,
                owned_half_frames=1, n_windows=0 if name == empty else 58,
                sync_error_us=0.5, n_bits=0 if name == empty else 4176,
                n_errors=0,
            )
            for name in ("tag00", "tag15")
        ]
        report = SimpleNamespace(
            transmit_invocations=transmits, failed_tags=0, tags=tags
        )
        return workloads.check_fleet_report(report, last_owner="tag15")

    assert problems(2) == ["fleet.transmit_calls 2 != 1"]
    assert problems(1, empty="tag15") == []
    assert problems(1, empty="tag00") == [
        "tags with no windows: ['tag00'] (last owner tag15)"
    ]


def test_capture_bits_restores_a_skipped_half_frame():
    run.load_program()
    import workloads

    def report(bits, half_frames):
        schedule = SimpleNamespace(data_bit_count=bits, n_half_frames=half_frames)
        return SimpleNamespace(extras={"artifacts": SimpleNamespace(schedule=schedule)})

    assert workloads.capture_bits(report(278400, 4)) == 278400
    assert workloads.capture_bits(report(208800, 3)) == 278400
    assert workloads.capture_bits(report(0, 0)) == 0


def test_op_that_raises_counts_as_failed():
    run.load_program()
    import workloads

    args = run.parse_args(
        ["--workload", "fleet-batched", "--seed", "0", "--seconds", "0"]
    )
    bench = run.Run(workloads, args)

    def broken(seed):
        raise ValueError("bad capture")

    record = bench.attempt(broken, 0)
    bench.count("op 1", record.problems)
    assert record.problems == ["ValueError: bad capture"]
    assert (bench.attempted, bench.failed) == (1, 1)


def test_setup_probe_subprocess(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 2)
    assert _main("fleet-batched", 0) == 0
    result = _result(capsys)
    assert result["correct"] is True and result["attempted"] >= 3


def test_layer_map_covers_every_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text())["layers"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    for entry in layer_map.values():
        for target in entry["moves"]:
            metric, workload = target.split("@")
            assert metric in end_to_end and workload in WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-batched",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
