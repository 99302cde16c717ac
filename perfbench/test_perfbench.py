"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

#: Small enough to finish in seconds, large enough to use two shards
#: where the workload is sharded across workers.
TINY = {"study-population": 4097, "arena-fullstack": 8, "fleet-batch": 64}


def declared() -> dict[str, dict[str, str]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_completes_with_declared_metrics(name, trace):
    result, report = run.measure(name, 5, 0.0, trace, TINY[name])
    assert not report["failures"], report["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    expected = declared()["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    assert len(report["csv_sha256"]) == 1
    if trace:
        # The traced pass runs inline (--jobs 1) and the untraced one with
        # the workload's own job count; both wrote the same bytes above.
        kinds = {rep["traced"] for rep in report["repetitions"]}
        assert kinds == {True, False}
        assert result["metrics"]["runner.shards"]["value"] >= (
            2 if name != "fleet-batch" else 1
        )
        assert result["metrics"]["error_rate"]["value"] == 0


def test_corrupted_csv_fails_the_repetition(tmp_path):
    workload = run.WORKLOADS["study-population"]
    good = workload["header"] + "\n" + "".join(
        f"s{i},10,0.1,0.9,1.5,1.4,1.8,1.1\n" for i in range(workload["rows"])
    )
    path = tmp_path / "STUDY1.csv"
    path.write_text(good)
    run.check_csv("study-population", 10, path)
    corruptions = [
        good.replace("scenario", "scenari0", 1),  # header
        good.rsplit("\n", 2)[0] + "\n",  # a row missing
        good.replace(",10,", ",9,", 1),  # a row not covering every user
        good.replace("0.9", "0.9,extra", 1),  # a field too many
        good.replace(",10,", ",ten,", 1),  # not a number
        "",  # empty
    ]
    for text in corruptions:
        path.write_text(text)
        with pytest.raises(run.RepFailed):
            run.check_csv("study-population", 10, path)
    path.unlink()
    with pytest.raises(run.RepFailed):
        run.check_csv("study-population", 10, path)


def test_differing_bytes_and_drifting_counts_fail_the_run(monkeypatch):
    digests = iter(["a", "a", "b"])

    def fake_rep(name, seed, units, out_dir, traced, probe):
        return {
            "csv_sha256": next(digests),
            "traced": traced,
            **{metric: 1.0 for metric in run.END_TO_END_UNITS},
            "speed_factor": 1.0,
            "measured": {},
            "import_s": 1.0,
        }

    monkeypatch.setattr(run, "run_rep", fake_rep)
    result, report = run.measure("arena-fullstack", 0, 0.0, 0, 4)
    assert not result["correct"]
    assert result["attempted"] == 3 and result["failed"] == 1
    assert report["error_rate"] == pytest.approx(1 / 3)

    # Two repetitions that disagree have no majority: both fail.
    digests = iter(["a", "b"])
    monkeypatch.setattr(run, "MIN_REPS", 2)
    result, report = run.measure("arena-fullstack", 0, 0.0, 0, 4)
    assert not result["correct"]
    assert result["attempted"] == 2 and result["failed"] == 2
    assert report["error_rate"] == 1

    failures: list[str] = []
    run.exact_counts(failures, {"sim.events": [10, 10]}, {})
    assert not failures
    run.exact_counts(failures, {"sim.events": [10, 11]}, {})
    assert failures and "drifted" in failures[0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", "arena-fullstack",
            "--seed", "5",
            "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_speed_factor_weights_each_cpu_by_how_busy_it_was():
    probe = speed.SpeedProbe()
    probe.cpus = [0, 1]
    reference_s = speed.PROBE_ITERATIONS / speed.REFERENCE_RATE
    probe._samples = {
        0: [(1.0, reference_s), (2.0, reference_s), (9.0, 1.0)],
        1: [(1.5, 2 * reference_s)],
    }
    start, end = (0.5, {0: 0, 1: 0}), (3.0, {0: 300, 1: 100})
    # (300 * 1 + 100 * 2) / 400 = 1.25 reference loop times; the sample
    # at t=9 lies outside the window.
    assert probe.factor(start, end) == pytest.approx(
        (1 / 1.25) ** speed.SENSITIVITY
    )
    with pytest.raises(ValueError):
        probe.factor(start, (3.0, {0: 0, 1: 0}))


def test_speed_probe_samples_every_cpu_while_running():
    with speed.SpeedProbe() as probe:
        start = probe.mark()
        speed._loop(2_000_000)
        factor = probe.factor(start, probe.mark())
    assert 0.1 < factor < 10
    assert not any(thread.is_alive() for thread in probe._threads)
