"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXPERIMENT_RUNNERS, main


class TestCLI:
    def test_experiments_lists_all_ids(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENT_RUNNERS:
            assert experiment_id in out

    def test_run_fig4(self, capsys):
        assert main(["run", "FIG4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FIG4" in out
        assert "distance_cm" in out

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "fig5"]) == 0
        assert "FIG5" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "fig4.csv"
        assert main(["run", "FIG4", "--csv", str(path)]) == 0
        assert path.exists()
        assert path.read_text().startswith("distance_cm")

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "specimen curve" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "cm ->" in out
        assert "top display" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_users_on_non_study_is_hard_error(self, capsys):
        """Regression: ignored-flag combos must exit non-zero, not
        print a warning and run the wrong experiment."""
        assert main(["run", "FIG4", "--users", "5"]) == 2
        err = capsys.readouterr().err
        assert "--users is only meaningful for STUDY1" in err
        assert "distance_cm" not in capsys.readouterr().out

    def test_personas_without_users_is_hard_error(self, capsys):
        assert main(["run", "FIG4", "--personas", "full"]) == 2
        assert "add --users N" in capsys.readouterr().err

    def test_battery_without_users_is_hard_error(self, capsys):
        assert main(["run", "FIG5", "--battery", "scrolltest"]) == 2
        assert "add --users N" in capsys.readouterr().err

    def test_run_fleet_registry_entry(self, capsys):
        assert main(["run", "FLEET"]) == 0
        out = capsys.readouterr().out
        assert "FLEET" in out
        assert "surface" in out

    def test_every_registered_runner_is_callable(self):
        """The registry must not contain stale ids (import-time check)."""
        for experiment_id, runner in EXPERIMENT_RUNNERS.items():
            assert callable(runner), experiment_id


class TestInputValidation:
    """Bad ``run``/``run-all`` input fails at the boundary: exit 2 and a
    one-line message, never a traceback and never a silently accepted
    value."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["run", "STUDY1", "--users", "0"], "--users"),
            (["run", "STUDY1", "--users", "-3"], "--users"),
            (["run", "STUDY1", "--users", "many"], "--users"),
            (["run", "STUDY1", "--users", "8", "--seed", "-1"], "--seed"),
            (["run", "FIG4", "--seed", "-1"], "--seed"),
            (["run", "STUDY1", "--users", "8", "--jobs", "0"], "--jobs"),
            (["run", "FIG4", "--jobs", "-2"], "--jobs"),
            (["run-all", "--jobs", "0"], "--jobs"),
            (["run-all", "--seed", "-1"], "--seed"),
        ],
    )
    def test_out_of_range_integers_are_usage_errors(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["run", "STUDY1", "--users", "8", "--battery", "nope"],
                "--battery: unknown battery 'nope'; available: ",
            ),
            (
                ["run", "ARENA", "--battery", "nope"],
                "--battery: unknown battery 'nope'; available: ",
            ),
            (
                ["run", "STUDY1", "--users", "8", "--personas", "bogus"],
                "--personas: bad persona clause 'bogus'",
            ),
            (
                ["run", "STUDY1", "--users", "8", "--personas", "glove=oven"],
                "--personas: unknown gloves value(s) oven",
            ),
        ],
    )
    def test_bad_population_inputs_fail_in_one_line(
        self, argv, message, capsys
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_bad_battery_exits_2_from_a_fresh_process(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "STUDY1", "--users", "8",
             "--battery", "nope"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "MAP-ISL"],
            ["run-all", "--only", "MAP-ISL", "--bench", "bench.json"],
        ],
    )
    def test_resume_against_another_runs_manifest_exits_2(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        resume = argv + ["--resume", "--manifest", "m.json"]
        assert main(resume + ["--seed", "0"]) == 0
        capsys.readouterr()
        assert main(resume + ["--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot resume from m.json: ")
        assert "different run" in err
        assert err.count("\n") == 1

    def test_resume_with_trace_out_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["run", "MAP-ISL", "--resume", "--trace-out", "t.json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("--resume cannot be combined with")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "t.json").exists()
        assert not (tmp_path / "cache").exists()

    def test_smallest_valid_values_still_run(self, capsys):
        assert main(
            ["run", "STUDY1", "--users", "1", "--seed", "0", "--jobs", "1",
             "--battery", "smoke", "--personas", "bare"]
        ) == 0
        assert "short-mixed" in capsys.readouterr().out
