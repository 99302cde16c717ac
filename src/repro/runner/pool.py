"""The parallel experiment driver behind ``python -m repro run-all``.

A backend-agnostic scheduler over the executors in
:mod:`repro.runner.executors` (inline, work queue), in three steps:

* **plan** — derive every experiment's shard list, serve the shards
  the content-addressed cache already holds, and order the remaining
  work longest-processing-time-first (cost-aware LPT, so stragglers
  start early);
* **collect** — submit it all up front, then fold completions in
  strictly as they land: each experiment merges the moment its own
  last shard arrives — no submission-order waits, no cross-experiment
  barrier — and the first shard failure cancels all outstanding work
  and re-raises;
* **report** — the ``BENCH_runner.json`` timing report.

Resilience features, all proven byte-identical to the inline path:

* **Shard cache + manifest resume** — every computed shard is written
  to the content-addressed cache as it completes and recorded in a
  :class:`~repro.runner.manifest.RunManifest`; a re-invoked run
  recomputes only the missing shards (the manifest's per-session
  ``shard_cache_hits`` counter asserts it), and a fully cached
  experiment is a merge of its shard entries with no kernel work.
* **Crash retry** (work-queue backend) — a worker that dies mid-shard
  is detected by liveness, its shard requeued exactly once per loss,
  and a replacement worker spawned.
* **Speculative re-execution** — with ``speculate=True``, once the
  submit queue drains, idle workers are given duplicates of the
  costliest still-running shards.  First result wins; when both
  attempts finish their digests must match
  (:func:`~repro.runner.sharding.shard_result_digest`), turning the
  determinism contract into a runtime assertion.

Determinism: work units are fixed by ``(experiment id, seed, shard
index)`` alone and merging sorts by shard index, so the merged rows —
and therefore the CSV bytes — are identical for any backend, any jobs
count, any completion order, any crash/retry interleaving, and
speculation on or off.

This module is the runner's one wall-clock site (REP001-exempt): all
queue-wait/execute/merge spans and the worker-utilisation figure in
``BENCH_runner.json`` are measured here, around — never inside — the
deterministic simulation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.experiments.harness import ExperimentResult
from repro.runner.cache import ResultCache
from repro.runner.executors import (
    Completion,
    Executor,
    ShardExecutionError,
    ShardTask,
    TaskKey,
    make_executor,
)
from repro.runner.manifest import RunManifest, run_key
from repro.runner.registry import REGISTRY, ExperimentSpec
from repro.runner.sharding import (
    ShardResult,
    estimate_shard_cost,
    make_shards,
    merge_shard_results,
    shard_result_digest,
)

__all__ = ["run_experiments"]

#: Poll interval for the as-completed collection loop (seconds).
_POLL_S = 0.05

#: Consecutive completely-idle polls (nothing running, nothing queued,
#: work still missing) tolerated before declaring the run stalled.
_STALL_POLLS = 100

#: Attempt numbers at/above this mark speculative twins.
_SPECULATIVE_ATTEMPT = 1000


def _default_backend(jobs: int) -> str:
    return "inline" if jobs <= 1 else "workqueue"


def run_experiments(
    experiment_ids: Sequence[str],
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    csv_dir: Optional[Path | str] = None,
    bench_path: Optional[Path | str] = None,
    echo: Optional[Callable[[str], None]] = None,
    observe: bool = False,
    overrides: Optional[dict[str, ExperimentSpec]] = None,
    *,
    backend: Optional[str] = None,
    resume: bool = False,
    speculate: bool = False,
    manifest_path: Optional[Path | str] = None,
    crash_plan: Optional[dict[TaskKey, int]] = None,
) -> tuple[dict[str, ExperimentResult], dict]:
    """Run experiments across a pluggable executor backend.

    Parameters
    ----------
    experiment_ids:
        Registry ids, reported in the given order (executed
        as-completed).
    seed:
        Experiment seed (same meaning as ``repro run --seed``).
    jobs:
        Worker processes; ``1`` defaults to the inline backend.
    cache:
        Shard cache, or ``None`` to bypass caching entirely.  When set,
        every shard it holds is served from it and every computed
        shard is written to it — which is what makes interrupted runs
        resumable and a repeated run free of kernel work.
    csv_dir:
        When set, each merged result is written to ``<csv_dir>/<ID>.csv``
        the moment that experiment merges.
    bench_path:
        When set, the timing report is written there as JSON.
    echo:
        Progress-line sink (e.g. ``print``); ``None`` for silence.
    observe:
        Run every shard under a :class:`repro.obs.Recorder` and attach
        the merged observability payload to each result's ``obs``
        attribute.  Caching is bypassed (cached shards carry no
        payload), and the payload is deterministic across backends and
        job counts.
    overrides:
        Specs that replace (or extend) the registry per experiment id —
        how the CLI injects a dynamic ``--users N`` population spec.
    backend:
        ``"inline"`` or ``"workqueue"``; default inline for
        ``jobs <= 1``, workqueue otherwise.
    resume:
        Reuse an existing manifest at ``manifest_path`` (must carry the
        same run key) instead of superseding it.  Shard-cache reads do
        the actual resuming; this flag makes the continuation explicit
        and refuses mismatched manifests.
    speculate:
        Enable straggler speculation (parallel backends only; the
        inline backend reports no idle capacity, so it never
        speculates).
    manifest_path:
        Where to persist the :class:`RunManifest`; ``None`` disables
        manifest bookkeeping.
    crash_plan:
        ``{(experiment_id, shard_index): n_crashes}`` fault injection
        for the work-queue backend — each counted execution of that
        shard is killed mid-flight.  Test/CI machinery.

    Returns
    -------
    ``(results, bench)`` — merged results keyed by id, and the timing
    report that ``bench_path`` receives.
    """
    if observe:
        cache = None  # cached shards carry no observability payload
    backend_name = backend or _default_backend(jobs)
    specs = {**REGISTRY, **(overrides or {})}
    unknown = [i for i in experiment_ids if i not in specs]
    if unknown:
        raise KeyError(f"unknown experiment ids: {', '.join(unknown)}")

    started = time.perf_counter()
    manifest: Optional[RunManifest] = None
    if manifest_path is not None:
        key = run_key([specs[i] for i in experiment_ids], seed, observe)
        manifest = RunManifest.open(
            manifest_path, key, seed, resume=resume
        )
        manifest.begin_session(backend_name, jobs, speculate)

    run = _Run(
        specs,
        seed,
        cache,
        manifest,
        csv_root=Path(csv_dir) if csv_dir is not None else None,
        say=echo or (lambda _line: None),
    )
    tasks = run.plan(experiment_ids, observe)
    fanout_wall_s = 0.0
    if tasks:
        fanout_wall_s = run.collect(
            tasks, make_executor(backend_name, jobs, crash_plan), speculate
        )
    if manifest is not None:
        manifest.finish_session()

    bench = run.report(
        experiment_ids,
        backend_name,
        jobs,
        speculate,
        total_wall_s=time.perf_counter() - started,
        fanout_wall_s=fanout_wall_s,
    )
    if bench_path is not None:
        bench_path = Path(bench_path)
        bench_path.parent.mkdir(parents=True, exist_ok=True)
        bench_path.write_text(json.dumps(bench, indent=2) + "\n")
    return run.results, bench


class _Run:
    """The bookkeeping of one :func:`run_experiments` call.

    Holds the per-shard state every step reads or writes — collected
    results, which of them were computed this run, queue waits, submit
    times, speculation digests — and the merged results and
    per-experiment report entries.
    """

    def __init__(
        self,
        specs: dict[str, ExperimentSpec],
        seed: int,
        cache: Optional[ResultCache],
        manifest: Optional[RunManifest],
        csv_root: Optional[Path],
        say: Callable[[str], None],
    ) -> None:
        self.specs = specs
        self.seed = seed
        self.cache = cache
        self.manifest = manifest
        self.csv_root = csv_root
        self.say = say
        self.shard_counts: dict[str, int] = {}
        self.remaining: dict[str, int] = {}
        self.collected: dict[TaskKey, ShardResult] = {}
        #: Keys whose result was computed this run (not a cache hit).
        self.computed: set[TaskKey] = set()
        self.queue_waits: dict[TaskKey, float] = {}
        self.submit_times: dict[TaskKey, float] = {}
        self.digests: dict[TaskKey, str] = {}
        self.speculated: set[TaskKey] = set()
        self.speculation = {"launched": 0, "wins": 0, "checked": 0}
        self.results: dict[str, ExperimentResult] = {}
        self.per_experiment: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # plan
    # ------------------------------------------------------------------
    def plan(
        self, experiment_ids: Sequence[str], observe: bool
    ) -> list[ShardTask]:
        """Shard every experiment, serve cache hits, order the rest.

        Experiments whose every shard is cached merge right here; the
        returned tasks are the shards still to compute, LPT-ordered.
        """
        tasks: list[ShardTask] = []
        for experiment_id in experiment_ids:
            spec = self.specs[experiment_id]
            shards = make_shards(spec, self.seed)
            self.shard_counts[experiment_id] = len(shards)
            self.remaining[experiment_id] = len(shards)
            if self.manifest is not None:
                self.manifest.register_experiment(experiment_id, len(shards))
            for shard in shards:
                task_key: TaskKey = (experiment_id, shard.index)
                hit: Optional[ShardResult] = None
                if self.cache is not None:
                    hit = self.cache.get_shard(spec, self.seed, shard.index)
                if hit is None:
                    tasks.append(
                        ShardTask(
                            key=task_key,
                            spec=spec,
                            seed=self.seed,
                            observe=observe,
                            cost=estimate_shard_cost(spec, shard),
                        )
                    )
                    continue
                self.collected[task_key] = hit
                self.queue_waits[task_key] = 0.0
                self.remaining[experiment_id] -= 1
                if self.manifest is not None:
                    self.manifest.mark_shard_done(
                        experiment_id,
                        shard.index,
                        "shard-cache",
                        execute_s=hit.wall_s,
                        queue_wait_s=0.0,
                    )
        for experiment_id, count in self.remaining.items():
            if count == 0:
                self.merge(experiment_id)
        # Longest-processing-time first: expensive shards start earliest
        # so the tail of the schedule is short shards, not stragglers.
        # The sort is stable (equal costs keep submission order), so it
        # is deterministic and cannot affect merged bytes — only the
        # makespan.
        return sorted(tasks, key=lambda task: -task.cost)

    # ------------------------------------------------------------------
    # collect
    # ------------------------------------------------------------------
    def collect(
        self, tasks: list[ShardTask], executor: Executor, speculate: bool
    ) -> float:
        """Run ``tasks`` on ``executor`` until every experiment merged.

        Closes ``executor`` on the way out, error or not, and returns
        the fan-out wall time (first submit to executor closed).
        """
        tasks_by_key = {task.key: task for task in tasks}
        started = time.perf_counter()
        try:
            for task in tasks:
                executor.submit(task)
                self.submit_times[task.key] = time.perf_counter()
            idle_polls = 0
            while any(count > 0 for count in self.remaining.values()):
                completions = executor.poll(_POLL_S)
                now = time.perf_counter()
                for completion in completions:
                    self.handle_completion(completion, now, executor)
                if speculate and executor.queued() == 0:
                    self.launch_speculation(executor, tasks_by_key)
                if completions or executor.running() or executor.queued():
                    idle_polls = 0
                    continue
                idle_polls += 1
                if idle_polls >= _STALL_POLLS:
                    missing = [
                        key for key in tasks_by_key if key not in self.collected
                    ]
                    raise RuntimeError(
                        "runner stalled: no workers busy and shards"
                        f" missing: {missing[:8]}"
                    )
        finally:
            executor.close()
        return time.perf_counter() - started

    def handle_completion(
        self, completion: Completion, now: float, executor: Executor
    ) -> None:
        """Fold one finished attempt into the run state.

        Duplicate attempts (speculation) are digest-checked against the
        winner; the first error cancels all outstanding work and
        re-raises.
        """
        task_key = completion.key
        experiment_id, index = task_key
        if task_key in self.collected:
            # The losing attempt of a speculated shard.  Errors here are
            # moot (the result is already secured); successes must match
            # the winner bit-for-bit — the determinism contract, asserted.
            if completion.result is not None:
                expected = self.digests.get(task_key) or shard_result_digest(
                    self.collected[task_key]
                )
                actual = shard_result_digest(completion.result)
                self.speculation["checked"] += 1
                if actual != expected:
                    raise RuntimeError(
                        f"speculative re-execution of {experiment_id}"
                        f"[{index}] diverged from the original result"
                        " — shard execution is nondeterministic"
                    )
            return
        if completion.result is None:
            executor.cancel_pending()
            if completion.error is not None:
                raise completion.error
            raise ShardExecutionError(
                task_key, completion.error_detail or "unknown worker failure"
            )
        result = completion.result
        self.collected[task_key] = result
        self.computed.add(task_key)
        queue_wait = max(
            0.0, now - self.submit_times.get(task_key, now) - result.wall_s
        )
        self.queue_waits[task_key] = queue_wait
        if completion.attempt >= _SPECULATIVE_ATTEMPT:
            self.speculation["wins"] += 1
            if self.manifest is not None:
                self.manifest.record_speculation_win()
        if task_key in self.speculated:
            self.digests[task_key] = shard_result_digest(result)
        retry_counts: dict[TaskKey, int] = getattr(executor, "retries", {})
        retries = retry_counts.get(task_key, 0)
        if retries:
            self.say(
                f"{experiment_id:18s} shard {index} retried after"
                f" {retries} worker loss(es)"
            )
        if self.manifest is not None:
            self.manifest.mark_shard_done(
                experiment_id,
                index,
                "computed",
                execute_s=result.wall_s,
                queue_wait_s=queue_wait,
                retries=retries,
                speculated=task_key in self.speculated,
            )
        if self.cache is not None:
            self.cache.put_shard(
                self.specs[experiment_id], self.seed, index, result
            )
        self.remaining[experiment_id] -= 1
        if self.remaining[experiment_id] == 0:
            self.merge(experiment_id)

    def launch_speculation(
        self, executor: Executor, tasks_by_key: dict[TaskKey, ShardTask]
    ) -> None:
        """Duplicate the costliest still-running shards onto idle workers."""
        idle = executor.idle_capacity()
        if idle <= 0:
            return
        candidates = sorted(
            (
                key
                for key in executor.running()
                if key not in self.speculated and key not in self.collected
            ),
            key=lambda key: (-tasks_by_key[key].cost, key),
        )
        for key in candidates[:idle]:
            attempt = _SPECULATIVE_ATTEMPT + self.speculation["launched"]
            executor.submit(tasks_by_key[key], attempt)
            self.speculated.add(key)
            self.speculation["launched"] += 1
            # Leave the original submit time in place: queue-wait
            # telemetry tracks the shard, not the attempt.
            self.submit_times.setdefault(key, 0.0)

    def merge(self, experiment_id: str) -> None:
        """Merge an experiment whose last shard just landed."""
        parts = [
            self.collected[(experiment_id, index)]
            for index in range(self.shard_counts[experiment_id])
        ]
        merge_started = time.perf_counter()
        merged = merge_shard_results(self.specs[experiment_id], parts)
        merge_s = time.perf_counter() - merge_started
        self.results[experiment_id] = merged
        wall_s = sum(part.wall_s for part in parts)
        events = sum(part.events for part in parts)
        computed_parts = [
            part
            for part in parts
            if (experiment_id, part.index) in self.computed
        ]
        from_cache = len(parts) - len(computed_parts)
        self.per_experiment[experiment_id] = {
            "wall_s": sum(part.wall_s for part in computed_parts),
            "compute_wall_s": wall_s,
            "shards_from_cache": from_cache,
            "merge_s": merge_s,
            "queue_wait_s": sum(
                self.queue_waits[(experiment_id, part.index)]
                for part in parts
            ),
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "shards": len(parts),
        }
        if self.csv_root is not None:
            merged.to_csv(self.csv_root / f"{experiment_id}.csv")
        self.say(
            f"{experiment_id:18s} {wall_s:6.2f}s  "
            f"{len(parts)} shard(s)  {events} events"
            + (f"  ({from_cache} cached)" if from_cache else "")
        )

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def report(
        self,
        experiment_ids: Sequence[str],
        backend_name: str,
        jobs: int,
        speculate: bool,
        total_wall_s: float,
        fanout_wall_s: float,
    ) -> dict:
        """The ``BENCH_runner.json`` timing report."""
        computed_wall_s = sum(
            entry["wall_s"] for entry in self.per_experiment.values()
        )
        workers = 1 if backend_name == "inline" else max(1, jobs)
        return {
            "generated_by": "python -m repro run-all",
            "jobs": jobs,
            "backend": backend_name,
            "seed": self.seed,
            "experiment_count": len(experiment_ids),
            "total_wall_s": total_wall_s,
            "computed_wall_s": computed_wall_s,
            "serial_equivalent_s": sum(
                entry["compute_wall_s"]
                for entry in self.per_experiment.values()
            ),
            # Only shards computed this run enter the numerator, so a
            # fully cached run reports ~0 rather than a parallel speedup
            # it never achieved.
            "speedup_vs_serial_computed_only": (
                computed_wall_s / total_wall_s if total_wall_s > 0 else 0.0
            ),
            "fanout_wall_s": fanout_wall_s,
            "worker_utilisation": (
                computed_wall_s / (workers * fanout_wall_s)
                if fanout_wall_s > 0
                else None
            ),
            "speculation": dict(self.speculation) if speculate else None,
            "manifest": (
                str(self.manifest.path) if self.manifest is not None else None
            ),
            "experiments": {
                experiment_id: self.per_experiment[experiment_id]
                for experiment_id in experiment_ids
            },
        }
