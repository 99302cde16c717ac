"""Parallel experiment execution: executors, sharding, cache, manifests.

The experiment suite is embarrassingly parallel — every (experiment,
seed) pair, and within several experiments every sweep point or
participant, is an independent work unit.  This package turns the flat
registry of experiment runners into:

* :mod:`repro.runner.registry` — declarative :class:`ExperimentSpec`
  entries (import path + parameters + sharding strategy) replacing the
  old closure-based registry;
* :mod:`repro.runner.sharding` — deterministic decomposition of a spec
  into :class:`Shard` work units and order-stable merging of the partial
  results; any single shard is derivable in O(1) via
  :func:`make_shard`, so workers never materialize a million-entry
  shard list to run one unit;
* :mod:`repro.runner.executors` — two backends behind one submit/poll
  contract: ``inline`` (reference path) and ``workqueue`` (long-lived
  mortal workers over shared queues — the single-machine stand-in for
  a distributed fleet, with crash detection and per-shard retry);
* :mod:`repro.runner.cache` — a content-addressed on-disk cache of
  executed shards keyed by experiment spec, seed, shard index and a
  digest of the package sources;
* :mod:`repro.runner.manifest` — the durable per-run progress ledger
  that makes interrupted population-scale runs resumable and resume
  behaviour assertable;
* :mod:`repro.runner.pool` — the backend-agnostic scheduler: plan
  (shard lists, shard-cache hits, cost-aware LPT ordering), collect
  (as-completed with per-experiment incremental merge, first-error
  cancellation, straggler speculation) and report (the
  ``BENCH_runner.json`` timing report).

The contract throughout: any backend, any job count, any crash/retry or
speculation interleaving produces byte-identical merged CSVs, and a
fully cached run recomputes nothing.
"""

from repro.runner.cache import ResultCache, source_digest
from repro.runner.executors import (
    BACKENDS,
    ShardExecutionError,
    ShardTask,
    make_executor,
)
from repro.runner.manifest import RunManifest, run_key
from repro.runner.pool import run_experiments
from repro.runner.registry import REGISTRY, ExperimentSpec, build_runner
from repro.runner.sharding import (
    Shard,
    estimate_shard_cost,
    execute_shard,
    make_shard,
    make_shards,
    merge_shard_results,
    n_shards,
    shard_result_digest,
    spawn_shard_seeds,
)

__all__ = [
    "REGISTRY",
    "ExperimentSpec",
    "build_runner",
    "ResultCache",
    "source_digest",
    "run_experiments",
    "BACKENDS",
    "ShardExecutionError",
    "ShardTask",
    "make_executor",
    "RunManifest",
    "run_key",
    "Shard",
    "make_shard",
    "make_shards",
    "n_shards",
    "estimate_shard_cost",
    "shard_result_digest",
    "execute_shard",
    "merge_shard_results",
    "spawn_shard_seeds",
]
