"""Resume state: input keys, partition manifests, stage checkpoints.

Resumability contract (SURVEY.md §4): resume is keyed on input files
(:func:`input_key`). A partitioned run writes one ``part=<i>/`` parquet
directory per input-file group plus ``_lineage/part-<i>.json`` recording
the input fragments, row counts, keep counts, per-(field, code)
rule-hit counters and the partition's key. Compositions whose stages are
global (a dedup decision needs the whole corpus) checkpoint per STAGE
instead, under a ``_DONE`` marker (:func:`stage_checkpoint`). One rule
decides both: a manifest or marker counts only if it parses and holds
the caller's key and this package's version. Everything else — half
written, from other input or an older version, a partition the input no
longer has — is wiped and rebuilt, so a killed or re-pointed run
resumes without duplicating, dropping or keeping stale rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
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


def _indexes(path: str, pattern: str) -> List[int]:
    names = os.listdir(path) if os.path.isdir(path) else []
    return sorted(int(m[1]) for m in map(re.compile(pattern).fullmatch,
                                         names) if m)


def completed_parts(out_dir: str) -> List[int]:
    return _indexes(lineage_dir(out_dir), r"part-(\d+)\.json")


def input_key(files_or_dir, *parts: Any) -> str:
    """Identity of a run's inputs: each input file's path relative to
    the input root, size and ``mtime_ns``, plus the JSON of ``parts``.
    ``files_or_dir`` is a list of files (root: their common directory)
    or a directory (every file under it)."""
    if isinstance(files_or_dir, str):
        root = files_or_dir
        files = [os.path.join(d, n)
                 for d, _, names in os.walk(root) for n in names]
    else:
        files = [os.path.abspath(f) for f in files_or_dir]
        root = os.path.commonpath([os.path.dirname(f) for f in files])
    stats = [(os.path.relpath(f, root), os.stat(f).st_size,
              os.stat(f).st_mtime_ns) for f in sorted(files)]
    ident = json.dumps([stats, parts], sort_keys=True, default=str)
    return hashlib.sha256(ident.encode()).hexdigest()


def stamp(key: str) -> Dict[str, str]:
    """What a manifest or marker must hold to count as current."""
    from nacc_form_validator_ray import __version__
    return {"key": key, "version": __version__}


def _current(path: str, key: str) -> bool:
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        return False
    return isinstance(record, dict) and \
        all(record.get(k) == v for k, v in stamp(key).items())


def clean_incomplete(out_dir: str, keys: List[str],
                     resume: bool) -> List[int]:
    """Partition ``i`` of the current input has key ``keys[i]``. Keep
    each partition whose manifest is current (none when ``resume`` is
    false), remove every other ``part=<i>/`` directory and manifest —
    also those past the input's partitions — and return the parts
    still to do."""
    todo = [i for i, key in enumerate(keys)
            if not (resume and _current(manifest_path(out_dir, i), key))]
    on_disk = completed_parts(out_dir) + _indexes(out_dir, r"part=(\d+)")
    for part in set(todo) | {p for p in on_disk if p >= len(keys)}:
        # manifest first: a kill in between leaves a part to redo,
        # never a manifest without its data
        if os.path.exists(manifest_path(out_dir, part)):
            os.remove(manifest_path(out_dir, part))
        shutil.rmtree(partition_dir(out_dir, part), ignore_errors=True)
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


def stage_rows(ckpt_dir: str, name: str) -> int:
    """Rows written by the completed checkpoint ``ckpt_dir/name``."""
    with open(os.path.join(ckpt_dir, name, "_DONE")) as f:
        return json.load(f)["n_rows"]


def stage_checkpoint(build, ckpt_dir: Optional[str], name: str, key: str):
    """Stage-level checkpoint: the one writer of ``_DONE`` markers.

    ``build`` is a zero-arg callable returning a ray.data Dataset.
    With ``ckpt_dir=None`` it is called through unchanged (no IO — the
    default registry/driver path). With a directory, the stage's output
    is written once to ``ckpt_dir/name/`` parquet through a
    :class:`StageSink`, and the ``_DONE`` marker records ``key`` (the
    caller's :func:`input_key` of the stage's inputs), the package
    version and the written row count. A rerun whose marker is current
    streams the stage back from disk instead of recomputing the
    upstream, so a killed multi-stage job resumes from its last
    completed stage. Any other stage dir — half written, from an older
    version, or built from a different key — is wiped and rebuilt. A
    zero-row stage still gets its directory and marker.
    """
    if ckpt_dir is None:
        return build()
    import ray.data as rd

    d = os.path.join(ckpt_dir, name)
    marker = os.path.join(d, "_DONE")
    if not _current(marker, key):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        sink = StageSink(d)
        build().write_datasink(sink)
        # a torn marker does not parse, so it reads as "not done"
        with open(marker, "w") as f:
            json.dump({**stamp(key), "n_rows": sink.num_rows}, f)
    return rd.read_parquet(d)
