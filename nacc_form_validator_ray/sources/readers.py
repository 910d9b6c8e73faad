"""The one input layer: every entry point that takes an input path lists
it (:func:`data_files`, one suffix table), reads it (:func:`read_files`)
and probes its columns (:func:`probe_columns`) here. Parquet (preferred:
column pruning + row-group pushdown), CSV and JSONL read into the same
Dataset shape, as the reference's CSV dict-rows do
(docs/validate_csv_records.py:90-100).
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Dict, List, Mapping, Optional, Tuple

#: file suffix → format; Ray infers gzip from the path
SUFFIXES: Dict[str, str] = {
    ".parquet": "parquet", ".pq": "parquet", ".csv": "csv",
    ".jsonl": "json", ".ndjson": "json", ".jsonl.gz": "json",
    ".ndjson.gz": "json", ".json": "json"}

#: the page runs' input; a bare ``.json`` file is not a page dump
PAGE_SUFFIXES: Dict[str, str] = {
    s: f for s, f in SUFFIXES.items() if f != "csv" and s != ".json"}

#: non-blank JSONL lines read to find the input's columns
PROBE_LINES = 16


def data_files(path: str, suffixes: Mapping[str, str] = SUFFIXES
               ) -> Tuple[List[str], str]:
    """The sorted data files of a file or a directory (walked; names
    starting with ``_`` or ``.`` skipped, as Ray does) and their one
    format. Raises ``ValueError`` unless exactly one format is found."""
    files = [path]
    if os.path.isdir(path):
        files = []
        for root, dirs, names in os.walk(path):
            dirs[:] = [d for d in dirs if not d.startswith(("_", "."))]
            files += [os.path.join(root, n) for n in names
                      if not n.startswith(("_", "."))]
    by_fmt: Dict[str, List[str]] = {}
    for f in sorted(files):
        fmt = next((fmt for s, fmt in suffixes.items()
                    if f.lower().endswith(s)), None)
        if fmt:
            by_fmt.setdefault(fmt, []).append(f)
    if len(by_fmt) != 1:
        raise ValueError(f"{path}: found {sorted(by_fmt) or 'no'} data "
                         f"files; expected one of {sorted(suffixes)}")
    (fmt, found), = by_fmt.items()
    return found, fmt


def read_files(files: List[str], fmt: str,
               columns: Optional[List[str]] = None, **kwargs):
    """Read ``files`` of format ``fmt`` (from :func:`data_files`) into
    one Dataset. The files are already chosen, so Ray's own extension
    filter is off (its JSON list has no ``.ndjson``)."""
    import ray.data as rd

    kwargs = {"file_extensions": None, **kwargs}
    if fmt == "parquet":
        return rd.read_parquet(files, columns=columns, **kwargs)
    read = rd.read_csv if fmt == "csv" else rd.read_json
    ds = read(files, **kwargs)
    return ds.select_columns(columns) if columns else ds


def read_any(path: str, columns: Optional[List[str]] = None,
             **kwargs):
    """Read a file or directory of Parquet, CSV or JSON(L) into a
    Dataset, with the format taken from the file suffixes."""
    return read_files(*data_files(path), columns, **kwargs)


def probe_columns(files: List[str], fmt: str) -> Tuple[set, List[str]]:
    """The columns of Parquet or JSONL ``files`` and the files opened to
    find them: the first file's schema, or the keys of the first
    :data:`PROBE_LINES` non-blank records, read across files in order."""
    import pyarrow.parquet as pq

    if fmt == "parquet":
        return set(pq.read_schema(files[0]).names), files[:1]
    keys: set = set()
    seen = 0
    for i, path in enumerate(files):
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rt") as f:
            for line in f:
                if not line.strip():
                    continue
                keys.update(json.loads(line))
                seen += 1
                if seen == PROBE_LINES:
                    return keys, files[:i + 1]
    return keys, files
