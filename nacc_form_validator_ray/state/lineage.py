"""Per-partition lineage manifests and rule-hit metrics.

Resumability contract (SURVEY.md §4): the output layout is
partition-deterministic — one ``part=<i>/`` parquet directory per input
fragment group, plus ``_lineage/part-<i>.json`` recording the input
fragments, row counts, keep counts and per-(field, code) rule-hit
counters. A rerun skips every partition whose manifest exists and removes
half-written partition directories before reprocessing, so a killed job
resumes mid-dataset without duplicating or dropping rows. Partitioning is
derived from INPUT fragments, not from runtime block boundaries, so it is
stable under Ray's dynamic scheduling.

Compositions whose stages are global (a dedup decision needs the whole
corpus) checkpoint per STAGE instead: ``stage_checkpoint`` writes each
stage once, through the same counting sink, under a ``_DONE`` marker
keyed by the stage's inputs.
"""

from __future__ import annotations

import json
import os
import shutil
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, List, Optional

import pyarrow.parquet as pq
from ray.data.block import BlockAccessor
from ray.data.datasource import BlockBasedFileDatasink


def lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(lineage_dir(out_dir), f"part-{part}.json")


def partition_dir(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, f"part={part}")


def completed_parts(out_dir: str) -> List[int]:
    ldir = lineage_dir(out_dir)
    if not os.path.isdir(ldir):
        return []
    parts = []
    for name in os.listdir(ldir):
        if name.startswith("part-") and name.endswith(".json"):
            parts.append(int(name[len("part-"):-len(".json")]))
    return sorted(parts)


def clean_incomplete(out_dir: str, all_parts: List[int]) -> List[int]:
    """Remove partition dirs without a manifest; return parts still to do."""
    done = set(completed_parts(out_dir))
    todo = []
    for part in all_parts:
        if part in done:
            continue
        pdir = partition_dir(out_dir, part)
        if os.path.isdir(pdir):
            shutil.rmtree(pdir)
        todo.append(part)
    return todo


def write_manifest(out_dir: str,
                   part: int,
                   input_fragments: List[str],
                   n_rows: int,
                   n_kept: int,
                   rule_hits: Dict[str, int],
                   extra: Optional[Dict[str, Any]] = None) -> str:
    """Atomically write the partition manifest (write + rename)."""
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    payload = {
        "part": part,
        "input_fragments": sorted(input_fragments),
        "n_rows": int(n_rows),
        "n_kept": int(n_kept),
        "rule_hits": {k: int(v) for k, v in sorted(rule_hits.items())},
        "completed_at": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        payload.update(extra)
    path = manifest_path(out_dir, part)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return path


def read_manifests(out_dir: str) -> List[Dict[str, Any]]:
    return [json.load(open(manifest_path(out_dir, p)))
            for p in completed_parts(out_dir)]


def aggregate_metrics(out_dir: str) -> Dict[str, Any]:
    """Roll the per-partition manifests up into run-level metrics."""
    totals: Dict[str, Any] = {"n_rows": 0, "n_kept": 0, "rule_hits": {},
                              "n_parts": 0}
    for m in read_manifests(out_dir):
        totals["n_parts"] += 1
        totals["n_rows"] += m["n_rows"]
        totals["n_kept"] += m["n_kept"]
        for key, cnt in m.get("rule_hits", {}).items():
            totals["rule_hits"][key] = \
                totals["rule_hits"].get(key, 0) + cnt
    return totals


class StageSink(BlockBasedFileDatasink):
    """Parquet directory sink that counts what it writes.

    Each write task concatenates its blocks into one file, as
    ``write_parquet`` does. ``partial`` runs on a task's blocks before
    the optional projection to ``columns``; the driver gets the
    per-task results in ``partials`` and the written row count in
    ``num_rows``, from Ray's ``WriteResult``. A zero-row write keeps
    its directory (Ray's sinks delete it) and leaves one empty file
    with the schema, so the output reads back as an empty dataset.
    """

    def __init__(self, path: str, columns: Optional[List[str]] = None):
        super().__init__(path, file_format="parquet")
        self.columns = columns
        self.num_rows = 0
        self.partials: List[Any] = []

    def partial(self, tables: List["pa.Table"]) -> Any:
        return None

    def write(self, blocks: Iterable, ctx) -> Dict[str, Any]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        partial = self.partial(tables)
        if self.columns is not None:
            tables = [t.select([c for c in self.columns
                                if c in t.column_names]) for t in tables]
        super().write(tables, ctx)
        return {"partial": partial,
                "schema": tables[0].schema if tables else None}

    def write_block_to_file(self, block, file) -> None:
        pq.write_table(block.to_arrow(), file)

    def on_write_complete(self, write_result) -> None:
        returns = write_result.write_returns
        self.num_rows = int(write_result.num_rows)
        self.partials = [r["partial"] for r in returns]
        schema = next((r["schema"] for r in returns
                       if r["schema"] is not None), None)
        if not self.num_rows and schema is not None:
            with self.open_output_stream(
                    os.path.join(self.path, "empty.parquet")) as f:
                pq.write_table(schema.empty_table(), f)


def _read_marker(stage_dir: str) -> Optional[Dict[str, Any]]:
    try:
        with open(os.path.join(stage_dir, "_DONE")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def stage_rows(ckpt_dir: str, name: str) -> int:
    """Rows written by the completed checkpoint ``ckpt_dir/name``."""
    return _read_marker(os.path.join(ckpt_dir, name))["n_rows"]


def stage_checkpoint(build, ckpt_dir: Optional[str], name: str, key: str):
    """Stage-level checkpoint: the one writer of ``_DONE`` markers.

    ``build`` is a zero-arg callable returning a ray.data Dataset.
    With ``ckpt_dir=None`` it is called through unchanged (no IO — the
    default registry/driver path). With a directory, the stage's output
    is written once to ``ckpt_dir/name/`` parquet through a
    :class:`StageSink`, and the ``_DONE`` marker records ``key``, the
    package version and the written row count. A rerun whose marker
    holds the same key and version streams the stage back from disk
    instead of recomputing the upstream, so a killed multi-stage job
    resumes from its last completed stage. Any other stage dir — half
    written, from an older version, or built from a different ``key``
    (the caller's identity of the stage's inputs) — is wiped and
    rebuilt. A zero-row stage still gets its directory and marker.
    """
    if ckpt_dir is None:
        return build()
    import ray.data as rd
    from nacc_form_validator_ray import __version__

    d = os.path.join(ckpt_dir, name)
    want = {"key": key, "version": __version__}
    marker = _read_marker(d)
    if marker is None or {k: marker.get(k) for k in want} != want:
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        sink = StageSink(d)
        build().write_datasink(sink)
        # a torn marker does not parse, so it reads as "not done"
        with open(os.path.join(d, "_DONE"), "w") as f:
            json.dump({**want, "n_rows": sink.num_rows}, f)
    return rd.read_parquet(d)
