"""Runner v2: executors, shard cache, manifests, retry and speculation.

The contract under test throughout: the merged CSV bytes are identical
for any backend, any job count, any crash/retry interleaving, any
cache/resume split, and speculation on or off.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf.fanout import fanout_spec
from repro.runner import (
    BACKENDS,
    REGISTRY,
    ResultCache,
    RunManifest,
    ShardExecutionError,
    estimate_shard_cost,
    execute_shard,
    make_executor,
    make_shard,
    make_shards,
    n_shards,
    run_experiments,
    run_key,
    shard_result_digest,
)
from repro.runner.executors import Completion, InlineExecutor
from repro.runner.pool import _Run
from repro.runner.sharding import ShardResult

#: A fast skewed workload: one straggler, a tail of cheap shards.
FAST_SPEC = fanout_spec(costs=(6, 1, 1, 1), scale=5)

#: Same shape, but the straggler runs long enough (hundreds of ms) to
#: guarantee the tail drains while it is still in flight — the setup
#: the speculation policy needs to trigger deterministically.
SLOW_STRAGGLER_SPEC = fanout_spec(costs=(400, 1, 1, 1), scale=20)


def _run_csv(tmp_path, name, spec=FAST_SPEC, **kwargs):
    """Run FANOUT into ``tmp_path/name`` and return the CSV bytes."""
    csv_dir = tmp_path / name
    _results, bench = run_experiments(
        ["FANOUT"],
        overrides={"FANOUT": spec},
        csv_dir=csv_dir,
        **kwargs,
    )
    return (csv_dir / "FANOUT.csv").read_bytes(), bench


class TestShardDerivation:
    def test_make_shard_matches_make_shards_for_every_registry_spec(self):
        for spec in REGISTRY.values():
            shards = make_shards(spec, seed=3)
            assert len(shards) == n_shards(spec, seed=3)
            for shard in shards:
                assert make_shard(spec, 3, shard.index) == shard

    def test_make_shard_rejects_out_of_range(self):
        spec = REGISTRY["MAP-ISL"]
        with pytest.raises(IndexError):
            make_shard(spec, 0, n_shards(spec, 0))
        with pytest.raises(IndexError):
            make_shard(spec, 0, -1)

    def test_block_cost_scales_with_block_size(self):
        spec = REGISTRY["STUDY1"]
        shards = make_shards(spec, 0)
        costs = [estimate_shard_cost(spec, shard) for shard in shards]
        assert all(cost > 0 for cost in costs)

    def test_param_numeric_payload_is_the_cost_proxy(self):
        shards = make_shards(FAST_SPEC, 0)
        costs = [estimate_shard_cost(FAST_SPEC, shard) for shard in shards]
        # The straggler (cost 6) must order strictly first under LPT.
        assert costs[0] == max(costs)
        assert costs[0] > costs[1]

    def test_shard_result_digest_ignores_host_timing(self):
        spec = FAST_SPEC
        shard = make_shard(spec, 0, 0)
        first = execute_shard(spec, 0, shard)
        second = execute_shard(spec, 0, shard)
        assert first.wall_s != second.wall_s or first.wall_s >= 0
        assert shard_result_digest(first) == shard_result_digest(second)
        tampered = ShardResult(
            first.experiment_id, first.index, ("x",), first.events, 0.0
        )
        assert shard_result_digest(tampered) != shard_result_digest(first)


class TestBackendParity:
    def test_all_backends_produce_identical_csv_bytes(self, tmp_path):
        reference, _bench = _run_csv(tmp_path, "inline", jobs=1)
        for backend in BACKENDS:
            data, bench = _run_csv(
                tmp_path, f"b-{backend}", jobs=2, backend=backend
            )
            assert data == reference, backend
            assert bench["backend"] == backend

    def test_default_backend_selection(self, tmp_path):
        _data, bench = _run_csv(tmp_path, "dflt1", jobs=1)
        assert bench["backend"] == "inline"
        _data, bench = _run_csv(tmp_path, "dflt2", jobs=2)
        assert bench["backend"] == "workqueue"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_executor("carrier-pigeon", 2)

    def test_crash_plan_rejected_off_workqueue(self):
        with pytest.raises(ValueError, match="workqueue"):
            make_executor("inline", 2, crash_plan={("FANOUT", 0): 1})


class TestErrorPropagation:
    BAD = fanout_spec(costs=(1, -1, 1), scale=1)

    def test_inline_raises_original_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_experiments(["FANOUT"], overrides={"FANOUT": self.BAD})

    def test_workqueue_raises_with_remote_traceback(self):
        with pytest.raises(ShardExecutionError, match="non-negative"):
            run_experiments(
                ["FANOUT"],
                jobs=2,
                backend="workqueue",
                overrides={"FANOUT": self.BAD},
            )


class TestCrashRetry:
    def test_killed_worker_retries_once_and_bytes_match(self, tmp_path):
        reference, _bench = _run_csv(tmp_path, "ref", jobs=1)
        manifest_path = tmp_path / "crash.json"
        crashed, _bench = _run_csv(
            tmp_path,
            "crash",
            jobs=2,
            backend="workqueue",
            crash_plan={("FANOUT", 0): 1},
            manifest_path=manifest_path,
        )
        assert crashed == reference
        manifest = json.loads(manifest_path.read_text())
        session = manifest["sessions"][-1]
        assert session["retried"] == 1
        assert session["completed_run"] is True
        entry = manifest["experiments"]["FANOUT"]["done"]["0"]
        assert entry["retries"] == 1
        assert entry["source"] == "computed"

    def test_double_crash_still_converges(self, tmp_path):
        reference, _bench = _run_csv(tmp_path, "ref2", jobs=1)
        crashed, _bench = _run_csv(
            tmp_path,
            "crash2",
            jobs=2,
            backend="workqueue",
            crash_plan={("FANOUT", 0): 2, ("FANOUT", 2): 1},
        )
        assert crashed == reference


class TestSpeculation:
    def test_straggler_speculation_keeps_bytes_identical(self, tmp_path):
        reference, _bench = _run_csv(
            tmp_path, "ref", spec=SLOW_STRAGGLER_SPEC, jobs=1
        )
        manifest_path = tmp_path / "spec.json"
        speculated, bench = _run_csv(
            tmp_path,
            "spec",
            spec=SLOW_STRAGGLER_SPEC,
            jobs=2,
            backend="workqueue",
            speculate=True,
            manifest_path=manifest_path,
        )
        assert speculated == reference
        assert bench["speculation"] is not None
        # The tail drains while the cost-6 straggler still runs, so a
        # twin must have been launched on the idle worker.
        assert bench["speculation"]["launched"] >= 1
        session = json.loads(manifest_path.read_text())["sessions"][-1]
        assert session["speculate"] is True
        assert session["speculated"] >= 1

    def test_diverging_duplicate_is_a_hard_error(self):
        key = ("FANOUT", 0)
        original = ShardResult("FANOUT", 0, ("real",), 0, 0.01)
        tampered = ShardResult("FANOUT", 0, ("fake",), 0, 0.01)
        run = _Run(
            {"FANOUT": FAST_SPEC},
            seed=0,
            cache=None,
            manifest=None,
            csv_root=None,
            say=lambda _line: None,
        )
        run.collected[key] = original
        run.computed.add(key)
        run.speculated.add(key)
        executor = InlineExecutor()
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run.handle_completion(
                Completion(key, attempt=1000, result=tampered), 1.0, executor
            )
        # A bit-identical duplicate is counted, not fatal.
        duplicate = ShardResult("FANOUT", 0, ("real",), 0, 0.02)
        run.handle_completion(
            Completion(key, attempt=1001, result=duplicate), 1.0, executor
        )
        assert run.speculation["checked"] == 2
        assert run.collected[key] is original


class TestShardCacheAndResume:
    def test_interrupted_run_resumes_from_shard_cache(self, tmp_path):
        spec = FAST_SPEC
        cache = ResultCache(tmp_path / "cache")
        # Simulate an interrupted run: three of four shards are durable.
        for index in (0, 1, 3):
            cache.put_shard(
                spec, 0, index, execute_shard(spec, 0, make_shard(spec, 0, index))
            )
        manifest_path = tmp_path / "resume.json"
        reference, _bench = _run_csv(tmp_path, "ref", jobs=1)
        resumed, _bench = _run_csv(
            tmp_path,
            "resumed",
            jobs=1,
            cache=ResultCache(tmp_path / "cache"),
            manifest_path=manifest_path,
            resume=True,
        )
        assert resumed == reference
        session = json.loads(manifest_path.read_text())["sessions"][-1]
        assert session["shard_cache_hits"] == 3
        assert session["computed"] == 1

    def test_second_resume_session_appends_counters(self, tmp_path):
        manifest_path = tmp_path / "two.json"
        cache_dir = tmp_path / "cache"
        _run_csv(
            tmp_path,
            "first",
            jobs=1,
            cache=ResultCache(cache_dir),
            manifest_path=manifest_path,
        )
        _run_csv(
            tmp_path,
            "second",
            jobs=1,
            cache=ResultCache(cache_dir),
            manifest_path=manifest_path,
            resume=True,
        )
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["sessions"]) == 2
        first, second = manifest["sessions"]
        assert first["computed"] == 4
        # Every shard was cached as it completed, so the second session
        # merges the experiment from its four shard entries.
        assert second["shard_cache_hits"] == 4
        assert second["computed"] == 0

    def test_resume_refuses_a_different_runs_manifest(self, tmp_path):
        manifest_path = tmp_path / "other.json"
        _run_csv(tmp_path, "seed0", jobs=1, manifest_path=manifest_path)
        with pytest.raises(ValueError, match="different run"):
            _run_csv(
                tmp_path,
                "seed9",
                jobs=1,
                seed=9,
                manifest_path=manifest_path,
                resume=True,
            )

    def test_fresh_run_supersedes_a_stale_manifest(self, tmp_path):
        manifest_path = tmp_path / "stale.json"
        manifest_path.write_text('{"version": 999}')
        _data, _bench = _run_csv(
            tmp_path, "fresh", jobs=1, manifest_path=manifest_path
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == 1
        assert manifest["sessions"][-1]["completed_run"] is True

    def test_run_key_tracks_specs_and_seed(self):
        spec = REGISTRY["FIG4"]
        assert run_key([spec], 0, False) != run_key([spec], 1, False)
        assert run_key([spec], 0, False) != run_key([spec], 0, True)
        assert run_key([spec], 0, False) == run_key([spec], 0, False)


class TestBenchReport:
    def test_speedup_vs_serial_computed_only_drops_on_cache_hits(
        self, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        _data, warm = _run_csv(
            tmp_path, "warm", jobs=1, cache=ResultCache(cache_dir)
        )
        assert warm["speedup_vs_serial_computed_only"] > 0
        _data, cached = _run_csv(
            tmp_path, "hot", jobs=1, cache=ResultCache(cache_dir)
        )
        # Everything served from cache: nothing computed, no speedup.
        assert cached["serial_equivalent_s"] > 0
        assert cached["speedup_vs_serial_computed_only"] == 0.0

    def test_bench_carries_scheduler_telemetry(self, tmp_path):
        _data, bench = _run_csv(
            tmp_path, "tele", jobs=2, backend="workqueue"
        )
        assert bench["worker_utilisation"] is not None
        assert 0.0 < bench["worker_utilisation"] <= 1.0
        assert bench["fanout_wall_s"] > 0
        entry = bench["experiments"]["FANOUT"]
        assert entry["merge_s"] >= 0
        assert entry["queue_wait_s"] >= 0
        assert entry["shards_from_cache"] == 0


class TestManifestUnit:
    def test_mark_shard_done_updates_counters_and_persists(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = RunManifest.open(path, "k", 0)
        manifest.begin_session("inline", 1, False)
        manifest.register_experiment("X", 2)
        manifest.mark_shard_done("X", 0, "computed", 0.5, 0.1)
        manifest.mark_shard_done("X", 1, "shard-cache", 0.0, 0.0)
        on_disk = json.loads(path.read_text())
        session = on_disk["sessions"][-1]
        assert session["computed"] == 1
        assert session["shard_cache_hits"] == 1
        assert manifest.done_count("X") == 2
        assert manifest.shard_entry("X", 0)["source"] == "computed"
        assert manifest.shard_entry("X", 9) is None


class TestCLIRunnerV2:
    def test_inject_crash_requires_workqueue(self, capsys):
        code = main(
            ["run", "MAP-ISL", "--jobs", "2", "--inject-crash", "MAP-ISL:0"]
        )
        assert code == 2
        assert "workqueue" in capsys.readouterr().err

    def test_inject_crash_rejects_malformed_tokens(self, capsys):
        assert main(["run", "MAP-ISL", "--backend", "workqueue",
                     "--inject-crash", "MAP-ISL"]) == 2
        assert "EXPID:SHARD" in capsys.readouterr().err
        assert main(["run", "MAP-ISL", "--backend", "workqueue",
                     "--inject-crash", "MAP-ISL:x"]) == 2
        assert "integers" in capsys.readouterr().err

    def test_unknown_backend_is_a_usage_error(self, capsys):
        # "pool" names the process-pool backend that no longer exists.
        for backend in ("sneakernet", "pool"):
            assert main(["run", "MAP-ISL", "--backend", backend]) == 2
            err = capsys.readouterr().err
            assert "unknown backend" in err
            assert len(err.strip().splitlines()) == 1

    def test_run_all_resume_conflicts_with_no_cache(self, capsys):
        code = main(["run-all", "--only", "FIG4", "--resume", "--no-cache"])
        assert code == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_run_all_workqueue_crash_matches_serial(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        serial = [
            "run-all", "--only", "MAP-ISL", "--no-cache",
            "--csv-dir", "serial", "--bench", "serial.json",
        ]
        assert main(serial) == 0
        fleet = [
            "run-all", "--only", "MAP-ISL", "--no-cache", "--jobs", "2",
            "--backend", "workqueue", "--speculate",
            "--inject-crash", "MAP-ISL:1",
            "--manifest", "manifest.json",
            "--csv-dir", "fleet", "--bench", "fleet.json",
        ]
        assert main(fleet) == 0
        capsys.readouterr()
        serial_csv = (tmp_path / "serial" / "MAP-ISL.csv").read_bytes()
        fleet_csv = (tmp_path / "fleet" / "MAP-ISL.csv").read_bytes()
        assert fleet_csv == serial_csv
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["sessions"][-1]["retried"] == 1
        bench = json.loads((tmp_path / "fleet.json").read_text())
        assert bench["backend"] == "workqueue"
        assert bench["manifest"] == "manifest.json"

    def test_run_resume_defaults_manifest_under_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["run", "MAP-ISL", "--resume"]) == 0
        capsys.readouterr()
        manifest_path = (
            tmp_path / "cache" / "manifests" / "MAP-ISL-seed0.json"
        )
        assert manifest_path.is_file()
        first = json.loads(manifest_path.read_text())["sessions"][-1]
        assert first["computed"] == 4
        # Second invocation resumes: nothing recomputed.
        assert main(["run", "MAP-ISL", "--resume"]) == 0
        capsys.readouterr()
        sessions = json.loads(manifest_path.read_text())["sessions"]
        assert len(sessions) == 2
        assert sessions[-1]["computed"] == 0


class TestLPTOrdering:
    def test_inline_executor_runs_lpt_order_without_changing_bytes(
        self, tmp_path
    ):
        # Sanity anchor for the scheduler: shard execution order is a
        # pure makespan concern.  Force wildly different cost hints and
        # the bytes must not move.
        cheap_first = fanout_spec(costs=(6, 1, 1, 1), scale=5)
        reference, _bench = _run_csv(tmp_path, "lpt-ref", jobs=1)
        csv_dir = tmp_path / "lpt"
        run_experiments(
            ["FANOUT"],
            overrides={"FANOUT": cheap_first},
            csv_dir=csv_dir,
            jobs=2,
            backend="workqueue",
        )
        assert (csv_dir / "FANOUT.csv").read_bytes() == reference
