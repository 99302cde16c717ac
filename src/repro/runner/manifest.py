"""Resumable run manifests for the parallel runner.

A manifest is the durable progress record of one logical run: which
experiments it covers, how many shards each decomposes into, which
shards have completed (and how — computed, shard-cache hit, retried
after a worker crash, won by a speculative twin), and per-session
counters that make resume behaviour *assertable*: after an interrupted
``repro run STUDY1 --users 1_000_000 --resume``, the second session's
``shard_cache_hits`` must equal the first session's completions and its
``computed`` count must cover exactly the remainder.

The manifest is advisory metadata, never an input: results come from
the content-addressed cache (stale-proof by construction) or from
recomputation, so a deleted or corrupted manifest costs bookkeeping,
not correctness.  Identity is a ``run_key`` digesting the experiment
specs, seed, observe flag and package sources; ``--resume`` against a
manifest whose key differs is refused rather than silently mixed.

The file is JSON, written atomically after every state change — cheap
at shard granularity (hundreds of entries, not millions: population
studies shard in blocks) and exactly what a fleet coordinator would
persist per run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.runner.cache import source_digest
from repro.runner.registry import ExperimentSpec

__all__ = ["ResumeRefused", "RunManifest", "run_key"]

#: Bump when the on-disk manifest layout changes.
MANIFEST_VERSION = 1


class ResumeRefused(ValueError):
    """``resume=True`` named a manifest this run cannot continue."""


def run_key(
    specs: Sequence[ExperimentSpec], seed: int, observe: bool
) -> str:
    """Identity of a logical run: specs + seed + observe + sources."""
    material = json.dumps(
        {
            "specs": sorted(spec.cache_token() for spec in specs),
            "seed": seed,
            "observe": observe,
            "sources": source_digest(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()


class RunManifest:
    """Durable per-run progress ledger (see module docstring)."""

    def __init__(self, path: Path | str, key: str, seed: int) -> None:
        self.path = Path(path)
        self.data: dict[str, Any] = {
            "version": MANIFEST_VERSION,
            "run_key": key,
            "seed": seed,
            "experiments": {},
            "sessions": [],
        }

    # ------------------------------------------------------------------
    # construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: Path | str,
        key: str,
        seed: int,
        resume: bool = False,
    ) -> "RunManifest":
        """Load-or-create the manifest at ``path`` for run ``key``.

        With ``resume=True`` an existing file must carry the same
        ``run_key`` (same specs, seed and sources) or a
        :class:`ResumeRefused` explains the mismatch; without it, any
        existing file is superseded by a fresh manifest.
        """
        path = Path(path)
        manifest = cls(path, key, seed)
        if not path.is_file():
            return manifest
        try:
            on_disk = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            on_disk = None
        if on_disk is None or on_disk.get("version") != MANIFEST_VERSION:
            if resume:
                raise ResumeRefused(
                    f"cannot resume from {path}: unreadable or"
                    " incompatible manifest version"
                )
            return manifest
        if on_disk.get("run_key") != key:
            if resume:
                raise ResumeRefused(
                    f"cannot resume from {path}: manifest belongs to a"
                    " different run (specs, seed or package sources"
                    " changed since it was written)"
                )
            return manifest
        if resume:
            manifest.data = on_disk
        return manifest

    def save(self) -> None:
        """Write atomically (tmp + rename), creating parents as needed."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=2) + "\n")
        tmp.replace(self.path)

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def begin_session(self, backend: str, jobs: int, speculate: bool) -> None:
        """Append a fresh counter block for this invocation."""
        self.data["sessions"].append(
            {
                "backend": backend,
                "jobs": jobs,
                "speculate": speculate,
                "computed": 0,
                "shard_cache_hits": 0,
                "retried": 0,
                "speculated": 0,
                "speculation_wins": 0,
                "completed_run": False,
            }
        )

    @property
    def session(self) -> dict[str, Any]:
        """The current (last) session's counter block."""
        sessions: list[dict[str, Any]] = self.data["sessions"]
        return sessions[-1]

    def register_experiment(self, experiment_id: str, shards: int) -> None:
        self.data["experiments"].setdefault(
            experiment_id, {"shards": shards, "done": {}}
        )

    def mark_shard_done(
        self,
        experiment_id: str,
        index: int,
        source: str,
        execute_s: float,
        queue_wait_s: float,
        retries: int = 0,
        speculated: bool = False,
    ) -> None:
        """Record one completed shard.

        ``source`` is ``"computed"`` or ``"shard-cache"``; ``retries``
        counts crash-requeues of this shard in this session and
        ``speculated`` marks that a speculative twin was launched for
        it (whichever attempt won).
        """
        entry = self.data["experiments"][experiment_id]
        entry["done"][str(index)] = {
            "source": source,
            "execute_s": execute_s,
            "queue_wait_s": queue_wait_s,
            "retries": retries,
            "speculated": speculated,
        }
        counters = self.session
        if source == "shard-cache":
            counters["shard_cache_hits"] += 1
        else:
            counters["computed"] += 1
        counters["retried"] += retries
        if speculated:
            counters["speculated"] += 1
        self.save()

    def record_speculation_win(self) -> None:
        """A speculative twin finished before the original attempt."""
        self.session["speculation_wins"] += 1

    def finish_session(self) -> None:
        self.session["completed_run"] = True
        self.save()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def shard_entry(
        self, experiment_id: str, index: int
    ) -> Optional[dict[str, Any]]:
        entry = self.data["experiments"].get(experiment_id)
        if entry is None:
            return None
        record: Optional[dict[str, Any]] = entry["done"].get(str(index))
        return record

    def done_count(self, experiment_id: str) -> int:
        entry = self.data["experiments"].get(experiment_id)
        if entry is None:
            return 0
        return len(entry["done"])
