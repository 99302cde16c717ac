"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED UNITS OUT_DIR [traced]

Imports the program the way ``python -m repro`` does, builds the
workload's spec, runs it through ``repro.runner.run_experiments`` (the
entry point ``repro run`` calls) and writes ``OUT_DIR/<ID>.csv``.  It
then writes ``OUT_DIR/record.json`` with wall-clock timestamps, import
facts and the runner's own report.  With ``traced`` it runs on the
inline backend with the wrappers from :mod:`tracer` installed, saves
every span to ``OUT_DIR/spans.npz`` and adds the per-span summary and
the kernel's exact work counts to the record.

``perfbench/run.py`` starts it with ``PYTHONPATH`` pointing at ``src``.
"""

import sys
import time

from workloads import WORKLOADS


def _spec(workload: dict, units: int):
    from repro.runner import REGISTRY
    from repro.runner.registry import arena_spec, scaled_user_study_spec

    experiment = workload["experiment"]
    if experiment == "STUDY1":
        return scaled_user_study_spec(units, personas="full", battery="scrolltest")
    if experiment == "ARENA":
        return arena_spec(units, personas="full", battery="scrolltest")
    import dataclasses

    return dataclasses.replace(
        REGISTRY["FLEET"],
        params=(
            ("n_devices", units),
            ("duration_s", workload["duration_s"]),
            ("personas", "full"),
            ("fault_every", workload["fault_every"]),
        ),
    )


def main(argv: list[str]) -> int:
    name, seed, units, out_dir = argv[1], int(argv[2]), int(argv[3]), argv[4]
    traced = argv[5:] == ["traced"]
    workload = WORKLOADS[name]

    modules_before = len(sys.modules)
    import_started = time.perf_counter()
    import repro.cli  # noqa: F401  (what every `python -m repro` run pays)

    import_s = time.perf_counter() - import_started
    modules_loaded = len(sys.modules) - modules_before
    scipy_loaded = int("scipy" in sys.modules)
    spec = _spec(workload, units)
    setup_done = time.time()

    import json
    from pathlib import Path

    from repro.runner import run_experiments
    from repro.sim.kernel import (
        global_batch_units_processed,
        global_events_processed,
    )

    experiment = workload["experiment"]
    out = Path(out_dir)
    run = run_experiments
    jobs = workload["jobs"]
    backend = None
    recorder = None
    if traced:
        import tracer

        recorder = tracer.SpanRecorder(run_id=f"{name}-seed{seed}-{out.name}")
        tracer.install(recorder)
        run = recorder.wrap(*tracer.ROOT, run_experiments)
        jobs, backend = 1, "inline"
    events_before = global_events_processed()
    ticks_before = global_batch_units_processed()
    results, bench = run(
        [experiment],
        seed=seed,
        jobs=jobs,
        cache=None,
        overrides={experiment: spec},
        backend=backend,
    )
    results[experiment].to_csv(out / f"{experiment}.csv")
    done = time.time()

    per_experiment = bench["experiments"][experiment]
    record = {
        "setup_done": setup_done,
        "done": done,
        "import_s": import_s,
        "modules_loaded": modules_loaded,
        "scipy_loaded": scipy_loaded,
        "runner": {
            "shards": per_experiment["shards"],
            "compute_s": bench["computed_wall_s"],
            "merge_s": per_experiment["merge_s"],
            "queue_wait_s": per_experiment["queue_wait_s"],
            "worker_utilisation": bench["worker_utilisation"],
        },
    }
    if recorder is not None:
        record["sim_events"] = global_events_processed() - events_before
        record["device_ticks"] = global_batch_units_processed() - ticks_before
        record["spans"] = recorder.summary()
        record["span_count"] = len(recorder)
        recorder.save(out / "spans.npz")
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
