"""``repro serve`` CLI tests: validation, --force guard, both modes."""

import json

import pytest

from repro.cli import main


def test_serve_validation_errors(capsys):
    cases = [
        (["serve", "--workers", "0"], "--workers must be >= 1, got 0"),
        (["serve", "--queue-depth", "0"], "--queue-depth must be >= 1, got 0"),
        (["serve", "--soak", "--sessions", "0"], "--sessions must be >= 1, got 0"),
        (["serve", "--cohort-tags", "0"], "--cohort-tags must be >= 1, got 0"),
        (
            ["serve", "--snapshot-every", "0"],
            "--snapshot-every must be >= 1, got 0",
        ),
        (["serve", "--frames", "0"], "--frames must be >= 1, got 0"),
        (["serve", "--payload", "0"], "--payload must be >= 1, got 0"),
        (["serve", "--resume"], "--resume only applies to --soak runs"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err
        assert message in err, (argv, err)


def test_serve_soak_refuses_existing_output_without_force(tmp_path, capsys):
    output = tmp_path / "SOAK.json"
    output.write_text("{}")
    code = main(
        [
            "serve", "--soak", "--smoke", "--sessions", "2",
            "--cohort-tags", "2", "--payload", "1000",
            "--output", str(output),
            "--run-dir", str(tmp_path / "run"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "exists" in err and "--force" in err
    # The guarded file was not clobbered.
    assert output.read_text() == "{}"


def test_serve_soak_force_overwrites(tmp_path, capsys):
    output = tmp_path / "SOAK.json"
    output.write_text("{}")
    code = main(
        [
            "serve", "--soak", "--smoke", "--sessions", "2",
            "--cohort-tags", "2", "--payload", "1000",
            "--output", str(output),
            "--run-dir", str(tmp_path / "run"),
            "--force",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "soak: service-vs-batch equivalence OK" in out
    assert f"wrote {output}" in out
    report = json.loads(output.read_text())
    assert report["passed"] is True
    assert report["aggregates"]["sessions"] == 2


def test_serve_snapshot_honours_force_guard(tmp_path, capsys):
    snapshot = tmp_path / "snap.json"
    snapshot.write_text("{}")
    code = main(["serve", "--snapshot", str(snapshot)])
    assert code == 2
    assert "--force" in capsys.readouterr().err
    assert snapshot.read_text() == "{}"


def test_serve_resume_does_not_trip_output_guard(tmp_path, capsys):
    """A resumed soak rewrites its own report by design; the guard only
    protects fresh runs from clobbering a previous report."""
    output = tmp_path / "SOAK.json"
    argv = [
        "serve", "--soak", "--smoke", "--sessions", "2",
        "--cohort-tags", "2", "--payload", "1000",
        "--output", str(output),
        "--run-dir", str(tmp_path / "run"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "completed 0, resumed 1" in out


def test_serve_demo_mode(tmp_path, capsys):
    snapshot = tmp_path / "snap.json"
    code = main(
        [
            "serve", "--workers", "2", "--queue-depth", "4",
            "--cohort-tags", "2", "--payload", "1000",
            "--snapshot", str(snapshot),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "FleetService demo: 2 session(s)" in out
    assert "queue submitted 2" in out
    data = json.loads(snapshot.read_text())
    assert data["service"]["sessions"]["completed"] == 2


@pytest.mark.parametrize("flag", ["--soak"])
def test_serve_soak_smoke_writes_default_artifact_path(
    flag, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "serve", flag, "--smoke", "--sessions", "2",
            "--cohort-tags", "2", "--payload", "1000",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote artifacts/soak_smoke.json" in out
    assert (tmp_path / "artifacts" / "soak_smoke.json").exists()
    assert (tmp_path / "artifacts" / "soak-smoke").is_dir()
