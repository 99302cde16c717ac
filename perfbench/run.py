"""End-to-end benchmark of ``repro run STUDY1|ARENA|FLEET``, with a traced layer split.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each repetition is a fresh
interpreter (``perfbench/child.py``) that imports the program, builds
the workload's spec, runs it through ``repro.runner.run_experiments``
and writes the CSV, so every repetition pays what a user of
``python -m repro run`` pays.  Repetitions follow one another while a
typical one still fits in ``--seconds`` (at least :data:`MIN_REPS`),
and each metric is the median over them.  Every time is scaled to a
reference CPU speed by the per-CPU probe in ``perfbench/speed.py``,
sampled while the repetition runs, because the host's speed shifts by
up to ~1.8x within seconds; the times as measured are in the report.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced repetitions (for the runner's own report) with traced ones
(single process, inline backend, wrappers from ``perfbench/tracer.py``)
and prints the per-layer metrics.  Every repetition's CSV is checked
(header, row count, content) and must be byte-identical to the others
of the same seed, traced ones included; every work count must repeat
exactly across traced repetitions.  A repetition that fails any check
counts in ``failed``; a count that drifts, or too few repetitions left to
measure, makes the run incorrect without counting as a failed
repetition.

The last stdout line is the result object; the line before it is a
report with the seeds, the machine fingerprint, per-repetition values
and each workload's CSV sha256.  ``--workload all`` runs every workload
untraced and traced and prints one combined table.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The seed a claim is developed on, and one held out to re-check it on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

#: Fewest repetitions a run makes, however short ``--seconds`` is.  A
#: ``--trace 1`` run makes at least MIN_TRACED_REPS traced ones and as
#: many untraced ones.
MIN_REPS = 3
MIN_TRACED_REPS = 2

#: A repetition still running after this many seconds is killed and
#: counts as failed.
REP_TIMEOUT_S = 120.0

OUT = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "units_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer count metrics: ``(name, how to read it from a traced record)``.
#: A name here is the sum of ``entries`` over the listed span names, or a
#: kernel counter the child read directly.
COUNTS = {
    "experiments.users": ("experiments.fast_model",),
    "interaction.personas": ("interaction.persona",),
    "interaction.user_trials": ("interaction.select_entry",),
    "analysis.adds": ("analysis.add",),
    "analysis.merges": ("analysis.merge",),
    "baselines.trials": (
        "baselines.distscroll.select",
        "baselines.others.select",
    ),
    "core.island_maps": ("core.device.island_map",),
    "core.batch.device_ticks": "device_ticks",
    "sim.events": "sim_events",
    "hardware.adc_samples": ("hardware.adc.sample",),
    "sensors.scalar_reads": ("sensors.scalar",),
    "sensors.vector_reads": ("sensors.vector",),
    "signal.filter_updates": ("signal.filter",),
    "trace.spans": "span_count",
}

#: Per-layer span self-times: metric name -> span name.
SPAN_SELF_TIMES = {
    "experiments.fast_model_s": "experiments.fast_model",
    "experiments.block_s": "experiments.block",
    "experiments.finalize_s": "experiments.finalize",
    "interaction.persona_s": "interaction.persona",
    "baselines.distscroll.select_s": "baselines.distscroll.select",
    "baselines.others.select_s": "baselines.others.select",
    "core.device.run_for_s": "core.device.run_for",
    "core.batch.step_s": "core.batch.step",
    "core.batch.build_s": "core.batch.build",
}

#: Layers whose summed span self-time is reported as ``<layer>.self_s``.
LAYERS = (
    "runner",
    "experiments",
    "interaction",
    "analysis",
    "baselines",
    "core.device",
    "core.batch",
    "sim",
    "hardware",
    "sensors",
    "signal",
)

RUNNER_METRICS = {
    "runner.compute_s": "compute_s",
    "runner.merge_s": "merge_s",
    "runner.queue_wait_s": "queue_wait_s",
    "runner.worker_utilisation": "worker_utilisation",
}

#: Runner metrics that are ratios, so not scaled to the reference speed.
RATIOS = {"runner.worker_utilisation"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "cli.import_s": "s",
        "cli.modules_loaded": "count",
        "cli.scipy_loaded": "flag",
        "runner.shards": "count",
    }
    units.update({name: "s" for name in RUNNER_METRICS})
    units["runner.worker_utilisation"] = "ratio"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "s" for name in SPAN_SELF_TIMES})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_ratio"] = "ratio"
    units["error_rate"] = "ratio"
    return units


class RepFailed(Exception):
    """A repetition that did not produce a correct CSV."""


def fingerprint() -> dict:
    """The machine and toolchain a result was measured on."""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    return env


def _reap_group(pgid: int) -> None:
    """Kill and wait out anything left in a repetition's process group."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def check_csv(name: str, units: int, path: Path) -> str:
    """Validate one workload CSV; returns its sha256."""
    if not path.is_file():
        raise RepFailed(f"missing CSV {path.name}")
    data = path.read_bytes()
    workload = WORKLOADS[name]
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as error:
        raise RepFailed(f"CSV is not UTF-8: {error}") from None
    if not lines or lines[0] != workload["header"]:
        raise RepFailed(f"unexpected CSV header {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    width = len(workload["header"].split(","))
    if any(len(row) != width for row in rows):
        raise RepFailed("CSV row with the wrong number of fields")
    expected_rows = workload["rows"]
    if expected_rows is not None and len(rows) != expected_rows:
        raise RepFailed(f"{len(rows)} CSV rows, expected {expected_rows}")
    try:
        if workload["experiment"] == "STUDY1":
            if any(int(row[1]) != units for row in rows):
                raise RepFailed("a scenario row does not cover every user")
        elif workload["experiment"] == "ARENA":
            if sorted(int(row[0]) for row in rows) != list(
                range(1, len(rows) + 1)
            ) or len({row[1] for row in rows}) != len(rows):
                raise RepFailed("arena ranks or techniques are not distinct")
        else:
            if not rows or sum(int(row[1]) for row in rows) != units:
                raise RepFailed("fleet surface rows do not sum to the fleet")
    except ValueError as error:
        raise RepFailed(f"malformed CSV field: {error}") from None
    return hashlib.sha256(data).hexdigest()


def run_rep(
    name: str,
    seed: int,
    units: int,
    out_dir: Path,
    traced: bool,
    probe: SpeedProbe,
) -> dict:
    """One fresh-process repetition; raises :class:`RepFailed`.

    Its times are scaled to the reference speed by the ``probe``'s
    factor for the repetition; the times as measured are kept under
    ``measured``.
    """
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True)
    argv = [
        sys.executable,
        str(HERE / "child.py"),
        name,
        str(seed),
        str(units),
        str(out_dir),
    ] + (["traced"] if traced else [])
    with open(out_dir / "child.log", "wb") as log:
        start_mark = probe.mark()
        started = time.time()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        deadline = time.monotonic() + REP_TIMEOUT_S
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    timed_out = True
                    os.killpg(proc.pid, signal.SIGKILL)
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            # The benchmark itself is stopping: take the repetition with it.
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            _reap_group(proc.pid)
            raise
        end_mark = probe.mark()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
    if timed_out:
        raise RepFailed(f"timed out after {REP_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        tail = (out_dir / "child.log").read_text(errors="replace")[-400:]
        raise RepFailed(f"exit {proc.returncode}: {tail.strip()}")
    try:
        record = json.loads((out_dir / "record.json").read_text())
    except (OSError, ValueError) as error:
        raise RepFailed(f"no readable record: {error}") from None
    digest = check_csv(name, units, out_dir / f"{workload['experiment']}.csv")
    try:
        speed_factor = probe.factor(start_mark, end_mark)
    except ValueError as error:
        raise RepFailed(str(error)) from None
    measured = {
        "wall_s": record["done"] - started,
        "setup_s": record["setup_done"] - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    scaled = {key: value * speed_factor for key, value in measured.items()}
    work = units * workload.get("duration_s", 1.0)
    record.update(
        csv_sha256=digest,
        traced=traced,
        speed_factor=speed_factor,
        measured=measured,
        **scaled,
        units_per_s=work / (scaled["wall_s"] - scaled["setup_s"]),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


class Run:
    """The repetitions of one workload at one seed, and their checks."""

    def __init__(
        self, name: str, seed: int, units: int, probe: SpeedProbe
    ) -> None:
        self.name = name
        self.seed = seed
        self.units = units
        self.probe = probe
        self.reps: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.started = time.monotonic()
        self._dir = OUT / name / f"seed{seed}"
        shutil.rmtree(self._dir, ignore_errors=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def rep(self, traced: bool) -> None:
        index = self.attempted
        self.attempted += 1
        try:
            record = run_rep(
                self.name, self.seed, self.units, self._dir / f"rep{index}",
                traced, self.probe,
            )
        except RepFailed as error:
            kind = "traced" if traced else "untraced"
            self.failures.append(f"rep {index} ({kind}): {error}")
            return
        self.reps.append(record)

    def fits(self, seconds: float, traced: bool) -> bool:
        """Whether a typical repetition of this kind ends within ``seconds``."""
        alike = [r["wall_s"] for r in self.select(traced)] or [
            r["wall_s"] for r in self.reps
        ]
        typical = statistics.median(alike) if alike else 0.0
        return self.elapsed() + typical + 0.2 <= seconds

    def check_identical_bytes(self) -> None:
        """Every repetition of one seed must write the same CSV bytes.

        The bytes most repetitions wrote are the reference, and the
        others fail.  Without a strict majority every repetition fails.
        """
        digests = collections.Counter(r["csv_sha256"] for r in self.reps)
        if len(digests) <= 1:
            return
        reference, count = digests.most_common(1)[0]
        if 2 * count <= len(self.reps):
            self.failures.append(
                f"CSV bytes differ with no majority across the runs of seed "
                f"{self.seed}: {dict(digests)}"
            )
            self.reps = []
            return
        kept = []
        for record in self.reps:
            if record["csv_sha256"] == reference:
                kept.append(record)
            else:
                self.failures.append(
                    f"CSV bytes differ from the other runs of seed "
                    f"{self.seed}: {record['csv_sha256']} != {reference}"
                )
        self.reps = kept

    def failed(self) -> int:
        """Repetitions attempted whose CSV was not kept."""
        return self.attempted - len(self.reps)

    def select(self, traced: bool) -> list[dict]:
        return [r for r in self.reps if r["traced"] == traced]


def measure_end_to_end(run: Run, seconds: float) -> dict:
    while run.attempted < MIN_REPS or run.fits(seconds, traced=False):
        run.rep(traced=False)
    run.check_identical_bytes()
    if not run.reps:
        return {}
    return {
        name: statistics.median(r[name] for r in run.reps)
        for name in END_TO_END_UNITS
    }


def exact_counts(
    failures: list[str], values: dict[str, list], metrics: dict
) -> None:
    """Record each count, or a failure if it drifted between repetitions."""
    for name, seen in values.items():
        if len(set(seen)) != 1:
            failures.append(f"count {name} drifted: {seen}")
        metrics[name] = seen[0]


def measure_per_layer(run: Run, seconds: float) -> dict:
    for traced in itertools.cycle((False, True)):
        if not (
            run.attempted < 2 * MIN_TRACED_REPS or run.fits(seconds, traced)
        ):
            break
        run.rep(traced)
    run.check_identical_bytes()
    untraced, traced = run.select(False), run.select(True)
    metrics: dict[str, float] = {}
    if not untraced or len(traced) < MIN_TRACED_REPS:
        run.failures.append("too few successful untraced/traced repetitions")
        return metrics

    # Every time below is scaled to the reference speed, like wall_s.
    metrics["cli.import_s"] = statistics.median(
        r["import_s"] * r["speed_factor"] for r in run.reps
    )
    counts: dict[str, list] = {
        "cli.modules_loaded": [r["modules_loaded"] for r in run.reps],
        "cli.scipy_loaded": [r["scipy_loaded"] for r in run.reps],
        "runner.shards": [r["runner"]["shards"] for r in run.reps],
    }
    for name, key in RUNNER_METRICS.items():
        metrics[name] = statistics.median(
            r["runner"][key] * (1.0 if name in RATIOS else r["speed_factor"])
            for r in untraced
        )

    for name, source in COUNTS.items():
        if isinstance(source, str):
            counts[name] = [r[source] for r in traced]
        else:
            counts[name] = [
                sum(r["spans"][span]["entries"] for span in source)
                for r in traced
            ]
    exact_counts(run.failures, counts, metrics)
    for name, span in SPAN_SELF_TIMES.items():
        metrics[name] = statistics.median(
            r["spans"][span]["self_s"] * r["speed_factor"] for r in traced
        )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            r["speed_factor"] * sum(
                entry["self_s"]
                for entry in r["spans"].values()
                if entry["layer"] == layer
            )
            for r in traced
        )
    metrics["trace.overhead_ratio"] = statistics.median(
        r["wall_s"] for r in traced
    ) / statistics.median(r["wall_s"] for r in untraced)
    return {name: metrics[name] for name in per_layer_units() if name in metrics}


def measure(name: str, seed: int, seconds: float, trace: int, units: int):
    """Run one workload; returns ``(result, report)``."""
    load_before = os.getloadavg()
    with SpeedProbe() as probe:
        run = Run(name, seed, units, probe)
        if trace:
            values = measure_per_layer(run, seconds)
            declared = per_layer_units()
        else:
            values = measure_end_to_end(run, seconds)
            declared = END_TO_END_UNITS
    error_rate = run.failed() / max(run.attempted, 1)
    if trace and values:
        values["error_rate"] = error_rate
    correct = not run.failures and set(values) == set(declared)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed(),
        "metrics": {
            metric: {"value": values[metric], "unit": declared[metric]}
            for metric in declared
            if metric in values
        },
    }
    report = {
        "workload": name,
        "seed": seed,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "units": units,
        "unit": WORKLOADS[name]["unit"],
        "trace": trace,
        "samples": len(run.reps),
        "error_rate": error_rate,
        "failures": run.failures,
        "csv_sha256": sorted({r["csv_sha256"] for r in run.reps}),
        "machine": {
            **fingerprint(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "repetitions": [
            {
                key: r[key]
                for key in (
                    "traced", *END_TO_END_UNITS, "speed_factor", "measured",
                    "import_s",
                )
            }
            for r in run.reps
        ],
    }
    if not trace:
        report["quartiles"] = {
            metric: quartiles([r[metric] for r in run.reps])
            for metric in END_TO_END_UNITS
            if run.reps
        }
    else:
        report["top_layers"] = sorted(
            (
                (values[f"{layer}.self_s"], layer)
                for layer in LAYERS
                if f"{layer}.self_s" in values
            ),
            reverse=True,
        )[:4]
    return result, report


def print_table(name: str, result: dict, report: dict) -> None:
    print(
        f"# {name}  seed={report['seed']}  trace={report['trace']}  "
        f"samples={report['samples']}  attempted={result['attempted']}  "
        f"failed={result['failed']}  error_rate={report['error_rate']:g}"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def save(report: dict, result: dict) -> None:
    path = OUT / "results" / (
        f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"report": report, "result": result}, indent=1))


def warm_up() -> None:
    """Import the program once untimed, so byte-compiled files exist."""
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        timeout=REP_TIMEOUT_S,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(
            f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    warm_up()

    if args.workload != "all":
        result, report = measure(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            WORKLOADS[args.workload]["units"],
        )
        save(report, result)
        print_table(args.workload, result, report)
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            result, report = measure(
                name, args.seed, args.seconds, trace, workload["units"]
            )
            save(report, result)
            print_table(name, result, report)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}/{k}": v for k, v in result["metrics"].items()}
            )
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
