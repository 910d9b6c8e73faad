"""Hash-partitioned grouped execution.

``groupby(key).map_groups(fn)`` pays a Python-function call and pandas
slice per GROUP — ruinous when keys are fine-grained (LSH buckets,
(user, window) pairs, content hashes). The scalable pattern used across
this engine instead shuffles once on ``hash(key) % P`` and runs ONE
vectorized callable per partition, which performs the per-key logic with
pandas/numpy group-bys internally. All rows of a key land in the same
partition, so results are exact; P bounds Python overhead and maps
directly onto multi-node hash exchanges. The reduce tasks that run
those calls are sized from the input's bytes, each covering a
contiguous range of partitions.

Skew note: a pathologically hot key cannot be split below one partition —
salt upstream (pre-aggregate per batch) before this exchange when a key
can exceed a worker's memory.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np
import pandas as pd

PART_COL = "__part"

#: splitmix64 constants for the numeric-key mix
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
#: positional byte-hash powers cycle length (power of two)
_POW_CYCLE = 4096
_POW_TABLE: np.ndarray | None = None


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (uint64 wraparound is the point)."""
    x = x + _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def _hash_cols(batch: pd.DataFrame, key_cols: Sequence[str]) -> np.ndarray:
    h = np.zeros(len(batch), dtype=np.uint64)
    for k in key_cols:
        col = batch[k].to_numpy()
        if col.dtype == object:
            hk = pd.util.hash_array(col, categorize=False)
        else:
            hk = pd.util.hash_array(col)
        h = h * np.uint64(1_000_003) + hk.astype(np.uint64)
    return h


def _hash_string_arrow(arr) -> np.ndarray:
    """Vectorized uint64 hash of an Arrow (Large)StringArray straight off
    its utf-8 buffers — no pandas object boxing, no per-row Python. The
    hash is a positional byte polynomial (powers cycle every 4 KiB)
    mixed with the length; only within-run consistency matters (it
    drives partition routing)."""
    global _POW_TABLE
    n = len(arr)
    import pyarrow as pa
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(arr.buffers()[1], dtype=odt)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = arr.buffers()[2]
    buf = np.frombuffer(data, dtype=np.uint8)[off[0]:off[-1]] \
        if data is not None else np.empty(0, dtype=np.uint8)
    starts = off[:-1] - off[0]
    lens = np.diff(off)
    out = np.zeros(n, dtype=np.uint64)
    total = int(lens.sum())
    if total:
        if _POW_TABLE is None:
            t = np.empty(_POW_CYCLE, dtype=np.uint64)
            t[0] = 1
            with np.errstate(over="ignore"):  # wraparound is the point
                for m in range(1, _POW_CYCLE):
                    t[m] = t[m - 1] * np.uint64(0x100000001B3)  # FNV
            _POW_TABLE = t
        owner_end = np.repeat(starts + lens, lens)
        pos = (owner_end - 1 - np.arange(total, dtype=np.int64)) \
            & (_POW_CYCLE - 1)
        terms = buf.astype(np.uint64) * _POW_TABLE[pos]
        nonempty = lens > 0
        out[nonempty] = np.add.reduceat(terms, starts[nonempty])
    return _mix64(out ^ lens.astype(np.uint64))


def _hash_table(batch, key_cols: Sequence[str]) -> np.ndarray:
    """uint64 key hash of a pyarrow Table, zero-copy where the physical
    layout allows. Dispersal-quality only — correctness needs exactly
    'same key -> same value within this run'."""
    import pyarrow as pa
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for k in key_cols:
        col = batch[k]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        if pa.types.is_dictionary(arr.type):
            arr = arr.cast(arr.type.value_type)
        if pa.types.is_string(arr.type) or \
                pa.types.is_large_string(arr.type):
            hk = _hash_string_arrow(arr)
        else:
            np_arr = arr.to_numpy(zero_copy_only=False)
            kind = np_arr.dtype.kind
            if kind in "mM":
                x = np_arr.view("i8").astype(np.uint64)
            elif kind == "f":
                x = np.ascontiguousarray(np_arr).view(np.uint64)
            elif kind == "O":
                x = pd.util.hash_array(np_arr, categorize=False) \
                    .astype(np.uint64)
            else:
                x = np_arr.astype(np.uint64, copy=False)
            hk = _mix64(x)
        h = h * np.uint64(1_000_003) + hk
    return h


#: default exchange mechanism for grouped_apply: "tasks" is the direct
#: two-phase hash shuffle (no sort), "sort" rides Ray's sort-based
#: groupby. Flip-able globally for A/B benchmarking.
DEFAULT_VIA = "tasks"

#: input bytes per reduce task: an exchange runs
#: clamp(ceil(input bytes / this), 1, P) reduce tasks, each over a
#: contiguous range of the P routing partitions (Spark AQE's minimum
#: partition size under "parallelism first")
TARGET_TASK_BYTES = 1 << 20

_SPLIT_TASK = None
_REDUCE_TASK = None


def _route_rows(table, route, num_partitions: int) -> np.ndarray:
    """Per-row partition ids for a routing spec.

    * ``("hash", [key_cols])`` — hash(keys) % P (co-locates equal keys).
    * ``("range", col, boundaries)`` — ``searchsorted(boundaries, col,
      side="right")``: ascending range partitioning where every row with
      the SAME routing value lands in the same partition (ties can never
      straddle a boundary), the property global ranking relies on.
    """
    if route[0] == "hash":
        return (_hash_table(table, route[1])
                % np.uint64(num_partitions)).astype(np.int64)
    if route[0] == "hash_iso":
        # skew isolation: heavy keys get DEDICATED trailing partitions
        # (a hot key cannot be split below one partition — lags need
        # the whole subject history — but it must not ALSO receive a
        # 1/P share of every other key; SURVEY §7.3 / round-3 VERDICT
        # #9). heavy is a SORTED uint64 array of heavy key hashes.
        _, key_cols, heavy = route
        base = num_partitions - len(heavy)
        h = _hash_table(table, key_cols)
        part = (h % np.uint64(base)).astype(np.int64)
        if len(heavy):
            idx = np.searchsorted(heavy, h)
            idx = np.clip(idx, 0, len(heavy) - 1)
            hit = heavy[idx] == h
            part[hit] = base + idx[hit]
        return part
    _, col, boundaries = route
    vals = table[col].to_numpy(zero_copy_only=False)
    return np.searchsorted(boundaries, vals, side="right") \
        .astype(np.int64)


def _split_arrow_block(route, num_partitions: int, edges,
                       agg_cols: Sequence[str], *tables):
    """One map-side shuffle task: tag rows with their partition id,
    stable argsort by the tag (ONE take), then return one zero-copy
    slice per reduce task — task ``g`` owns partitions
    ``edges[g]:edges[g+1]``, whose rows sit contiguously, in partition
    order, in the sorted table — plus the per-PARTITION stats: row
    counts, and (when ``agg_cols`` int64 columns are named) their
    per-partition sums alongside, as an int64 ``(P, 1+len(agg_cols))``
    matrix. Those sums are what let a range exchange hand each reducer
    the EXACT aggregate of all lower partitions (global prefix sums)
    with no extra pass; the counts are what let a reduce task cut its
    slice back into partitions. Slices serialize lean (Ray's Arrow
    serializer truncates buffers to the slice).

    Accepts SEVERAL input blocks (upstream coalescing, round-3 VERDICT
    #3): when the input dataset arrives as many tiny blocks, the driver
    groups adjacent blocks into one split task so the M×G slice-object
    metadata count stays bounded by the coalesced task count, not the
    raw block count."""
    import pyarrow as pa
    tabs = []
    for t in tables:
        if isinstance(t, pd.DataFrame):
            # Ray hands pandas-backed blocks through unconverted
            t = pa.Table.from_pandas(t, preserve_index=False)
        tabs.append(t)
    live = [t for t in tabs if t.num_rows]
    if not live:
        table = tabs[0]
    elif len(live) == 1:
        table = live[0]
    else:
        table = pa.concat_tables(live)
    width = 1 + len(agg_cols)
    stats = np.zeros((num_partitions, width), dtype=np.int64)
    if table.num_rows == 0:
        # fully-filtered blocks may even lack the key columns; their
        # zero-row slices are dropped on the reduce side regardless
        empty = table.slice(0, 0)
        return (*([empty] * (len(edges) - 1)),
                stats if agg_cols else stats[:, 0])
    part = _route_rows(table, route, num_partitions)
    order = np.argsort(part, kind="stable")
    tbl = table.combine_chunks().take(pa.array(order))
    sp = part[order]
    bounds = np.searchsorted(sp, np.arange(num_partitions + 1))
    cut = bounds[np.asarray(edges)]
    outs = [tbl.slice(int(cut[g]), int(cut[g + 1] - cut[g]))
            for g in range(len(cut) - 1)]
    stats[:, 0] = bounds[1:] - bounds[:-1]
    nonempty = stats[:, 0] > 0
    for j, c in enumerate(agg_cols):
        vals = tbl[c].to_numpy(zero_copy_only=False).astype(np.int64)
        stats[nonempty, 1 + j] = np.add.reduceat(
            vals, bounds[:-1][nonempty])
    return (*outs, stats if agg_cols else stats[:, 0])


def _to_pandas(part):
    """``part.to_pandas()`` that leaves extension-typed columns to their
    Arrow type: the pandas metadata's ``numpy_type`` for such a column
    (Ray's tensor column records ``numpy.ndarray(shape=(16,),
    dtype=float64)``) only parses in a process that has already
    registered that pandas dtype, while the Arrow extension type
    converts itself."""
    import json
    import pyarrow as pa
    meta = part.schema.pandas_metadata
    ext = {f.name for f in part.schema
           if isinstance(f.type, pa.BaseExtensionType)}
    if meta and ext:
        meta["columns"] = [c for c in meta["columns"]
                           if c.get("field_name", c["name"]) not in ext]
        part = part.replace_schema_metadata(
            {**part.schema.metadata, b"pandas": json.dumps(meta)})
    return part.to_pandas()


def _run_reduce_fn(fn, fn_format: str, extra, part):
    import pyarrow as pa
    kwargs = extra or {}
    if fn_format == "pandas":
        out = fn(_to_pandas(part), **kwargs)
    else:
        out = fn(part, **kwargs)
    if isinstance(out, pa.Table):
        return out
    if isinstance(out, dict):  # dict-of-arrays, as map_groups allows
        return pa.table(out)
    return pa.Table.from_pandas(out, preserve_index=False)


def _concat_outputs(outs):
    """One block from a reduce task's per-partition outputs. Promotion
    is permissive because a pandas ``fn``'s output types can depend on
    its rows (a partition holding a null turns int64 into double, an
    all-null column is Arrow ``null``)."""
    import pyarrow as pa
    if len(outs) == 1:
        return outs[0]
    try:
        return pa.concat_tables(outs, promote_options="permissive")
    except (pa.ArrowInvalid, pa.ArrowTypeError) as e:
        # Arrow's message names the column and both types
        raise ValueError(f"partition outputs do not merge: {e}") from e


def _reduce_group(fn, fn_format: str, extras, counts, *chunks):
    """One reduce-side shuffle task over a contiguous range of k
    partitions: ``counts`` is the ``(len(chunks), k)`` row-count block
    of the chunks it was handed (one per split task, in split order),
    so each chunk is cut zero-copy into its partitions. ``fn`` runs once
    per non-empty partition on that partition's concatenated rows (with
    ``**extras[j]`` when the exchange provides per-partition context,
    e.g. global rank offsets); the outputs become ONE pyarrow.Table
    block."""
    import pyarrow as pa
    if not counts.any():
        # the all-empty-exchange call: one typed zero-row partition so
        # fn's output block carries a schema; prefer the widest slice
        # (fully-filtered upstream blocks may lack the input columns).
        # If NO slice carries columns (Ray skips the UDF on empty
        # input blocks and emits 0-column blocks, so a zero-row corpus
        # arrives schemaless), still TRY fn — partition fns that guard
        # the missing-column case (the repo's ``col not in columns``
        # pattern) recover their output schema here; for the rest,
        # fall back to the untouched schemaless empty rather than
        # crash.
        part = max(chunks, key=lambda c: c.num_columns).slice(0, 0)
        try:
            return _run_reduce_fn(fn, fn_format, None, part)
        except Exception:
            if part.num_columns:
                raise
            return part
    offs = np.cumsum(counts, axis=1) - counts
    outs = []
    for j in range(counts.shape[1]):
        live = [c.slice(int(offs[i, j]), int(counts[i, j]))
                for i, c in enumerate(chunks) if counts[i, j]]
        if live:
            part = live[0] if len(live) == 1 else pa.concat_tables(live)
            outs.append(_run_reduce_fn(fn, fn_format,
                                       extras[j] if extras else None,
                                       part))
    return _concat_outputs(outs)


def hash_exchange(ds, key_cols: Sequence[str], fn: Callable,
                  num_partitions: int = 64, fn_format: str = "pandas"):
    """Direct two-phase hash shuffle: no sort, no ``groupby`` barrier.

    Ray Data's ``groupby(tag).map_groups`` implements the exchange as a
    distributed SORT on the tag — correct, but every exchange pays the
    sort's fixed barrier cost even though partition routing only needs
    hashing. This is the textbook map/reduce shuffle instead, built on
    raw Ray tasks (the one place the Dataset API can't express the
    semantics). P is the ROUTING count: rows go to ``hash(keys) % P``.
    The number of reduce TASKS, G, is sized from the input's bytes —
    ``clamp(ceil(bytes / TARGET_TASK_BYTES), 1, P)`` — and each task
    owns a contiguous range of partitions. A map task sorts its block
    by partition and returns G slices (``num_returns=G+1``; the +1 is
    the per-partition row counts); a reduce task cuts its slices back
    into partitions by those counts and runs ``fn`` once per NON-EMPTY
    partition, on the same rows in the same order as one task per
    partition would, returning one block. Results come back as a
    Dataset via ``from_arrow_refs`` — all data movement is object-store
    refs, nothing routes through the driver.

    Scale notes (100 TB): this is exactly Ray's production shuffle shape
    (map tasks × reduce tasks); at scale G reaches P. The M×G
    slice-object count is the known metadata cost — size P to the
    cluster's reduce parallelism and coalesce tiny input blocks
    upstream. The driver blocks on the (tiny) count vectors before
    launching reduces — the same barrier the sort path has, minus the
    sort.
    """
    return _task_exchange(ds, ("hash", list(key_cols)), fn,
                          num_partitions, fn_format)


def ranged_exchange(ds, routing_col: str, boundaries, fn: Callable,
                    fn_format: str = "pandas", extra_fn=None,
                    agg_cols: Sequence[str] = ()):
    """Range-partitioned exchange: rows route by
    ``searchsorted(boundaries, routing_col)`` so partition p holds a
    contiguous ascending value range, and equal values never straddle a
    boundary. ``boundaries`` (len P-1, ascending) come from a sampled
    quantile sketch — they affect only load balance, never results.

    ``extra_fn(part_index, totals)`` may return per-partition kwargs for
    ``fn`` (e.g. the global offset = rows in lower partitions), computed
    from the exchange's own per-partition stats — this is what turns a
    local sort into a GLOBAL rank without a second pass. ``totals`` is
    the per-partition row-count vector, or, when ``agg_cols`` names
    int64 columns (caller guarantees no overflow — use fixed-point),
    a ``(P, 1+len(agg_cols))`` matrix of counts and column sums, which
    upgrades ranks to exact global PREFIX SUMS (running totals).
    """
    boundaries = np.asarray(boundaries)
    return _task_exchange(ds, ("range", routing_col, boundaries),
                          fn, len(boundaries) + 1, fn_format,
                          extra_fn=extra_fn, agg_cols=agg_cols)


def _coalesce_refs(refs, num_partitions: int, cpus: int):
    """Group adjacent input-block refs so one split task handles
    several tiny blocks. The exchange's metadata cost is
    ``n_split_tasks × G`` slice objects (G reduce tasks, at most P);
    with unbounded tiny input blocks (a filter-heavy upstream, a
    high-parallelism read) that product is the first thing to fall
    over at 100-TB block counts.
    Target split-task count = ``max(P, 2·CPU)`` — enough for full map
    parallelism, independent of the raw block count; grouping only
    kicks in once the input exceeds twice that (so normal-sized inputs
    keep their 1:1 block-to-task mapping and zero extra concat cost)."""
    import math
    target = max(num_partitions, 2 * cpus)
    if len(refs) <= 2 * target:
        return [[r] for r in refs]
    gsize = math.ceil(len(refs) / target)
    return [refs[i:i + gsize] for i in range(0, len(refs), gsize)]


def _task_groups(route, num_partitions: int, nbytes: int):
    """Partition-index edges of the reduce tasks: G = clamp(ceil(nbytes
    / TARGET_TASK_BYTES), 1, P) contiguous ranges of the P routing
    partitions, except that each heavy-key partition of a ``hash_iso``
    route stays a task of its own (skew isolation survives grouping)."""
    heavy = len(route[2]) if route[0] == "hash_iso" else 0
    base = num_partitions - heavy
    g = min(max(-(-nbytes // TARGET_TASK_BYTES), 1), base)
    return [base * i // g for i in range(g)] + \
        list(range(base, num_partitions + 1))


def _task_exchange(ds, route, fn: Callable, num_partitions: int,
                   fn_format: str, extra_fn=None,
                   agg_cols: Sequence[str] = ()):
    global _SPLIT_TASK, _REDUCE_TASK
    import ray
    import ray.data as rd

    # ONE pass over the upstream: block refs plus their sizes (the
    # Arrow-refs export runs the plan a second time for its schema)
    refs, nbytes = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
        nbytes += bundle.size_bytes()
    if not refs:
        if route[0] != "hash":
            raise ValueError("ranged_exchange over an empty dataset")
        return _grouped_apply_sort(ds, route[1], fn, num_partitions,
                                   fn_format)
    if _SPLIT_TASK is None:
        _SPLIT_TASK = ray.remote(_split_arrow_block)
        _REDUCE_TASK = ray.remote(_reduce_group)
    P = num_partitions
    edges = _task_groups(route, P, nbytes)
    G = len(edges) - 1
    split = _SPLIT_TASK.options(num_returns=G + 1)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    groups = _coalesce_refs(refs, P, cpus)
    slice_refs = []
    count_refs = []
    for g in groups:
        out = split.remote(route, P, edges, list(agg_cols), *g)
        slice_refs.append(out[:G])
        count_refs.append(out[G])
    del refs, groups  # release input blocks once splits consume them
    stats = np.stack(ray.get(count_refs))  # (splits, P[, 1+aggs])
    totals = stats.sum(axis=0)
    counts = stats[..., 0] if stats.ndim == 3 else stats
    rows = counts.sum(axis=0)
    out_refs = []
    for g in range(G):
        lo, hi = edges[g], edges[g + 1]
        block = counts[:, lo:hi]
        live = np.flatnonzero(block.sum(axis=1))
        if not len(live):
            continue
        extras = [extra_fn(p, totals) if rows[p] else None
                  for p in range(lo, hi)] if extra_fn else None
        out_refs.append(_REDUCE_TASK.remote(
            fn, fn_format, extras, block[live],
            *[slice_refs[m][g] for m in live]))
    if not out_refs:
        if route[0] != "hash":
            return rd.from_items([])
        # every partition is empty: run fn ONCE on an empty TYPED
        # partition so the result keeps a schema — the sort-path
        # fallback used here before produced a schemaless empty
        # dataset, which downstream joins crash on (the repo-wide
        # schemaless-empty trap). Every split's first slice ships so
        # the reduce can pick one that still carries the input columns
        # (fully-filtered upstream blocks may lack them)
        out_refs = [_REDUCE_TASK.remote(fn, fn_format, None,
                                        counts[:, :1],
                                        *[blk[0] for blk in slice_refs])]
    return rd.from_arrow_refs(out_refs)


def detect_heavy_key_hashes(ds, key_cols: Sequence[str],
                            threshold_frac: float = 0.02) -> np.ndarray:
    """SORTED uint64 hashes of keys holding more than ``threshold_frac``
    of the dataset's rows — the input to skew-isolated routing.

    Scale shape: per-batch combiner emits only LOCAL candidates (keys
    at ≥ half the threshold within their batch — a globally heavy key
    is locally heavy in all but adversarially ordered inputs) plus one
    batch-total row, so the decision exchange is bounded by the
    candidate count, never the key cardinality. Heuristic by design:
    the heavy set only affects routing/load balance, never results."""
    import pyarrow as pa

    sentinel = np.uint64(0xFFFFFFFFFFFFFFFF)

    def partial(batch: "pa.Table") -> "pa.Table":
        n = batch.num_rows
        if n == 0:
            return pa.table({"h": pa.array([], pa.uint64()),
                             "c": pa.array([], pa.int64())})
        h = _hash_table(batch, list(key_cols))
        uniq, cnt = np.unique(h, return_counts=True)
        keep = cnt >= max(1, int(n * threshold_frac / 2))
        return pa.table({
            "h": np.append(uniq[keep], sentinel),
            "c": np.append(cnt[keep].astype(np.int64), np.int64(n)),
        })

    counts: dict = {}
    total = 0
    lean = ds.map_batches(partial, batch_format="pyarrow")
    for b in lean.iter_batches(batch_format="pyarrow",
                               batch_size=None):
        hs = b["h"].to_numpy(zero_copy_only=False)
        cs = b["c"].to_numpy(zero_copy_only=False)
        for h, c in zip(hs, cs):
            if h == sentinel:
                total += int(c)
            else:
                counts[int(h)] = counts.get(int(h), 0) + int(c)
    cut = max(1, int(total * threshold_frac))
    heavy = np.array(sorted(h for h, c in counts.items() if c >= cut),
                     dtype=np.uint64)
    return heavy


def grouped_apply(ds, key_cols: Sequence[str],
                  fn: Callable, num_partitions: int = 64,
                  fn_format: str = "pandas", via: str | None = None,
                  isolate_heavy_frac: float | None = None):
    """One shuffle on hash(keys) % P, then ``fn`` once per partition.
    The reduce tasks that run those calls are sized from the input's
    bytes (see ``hash_exchange``): P fixes the partitions ``fn`` sees,
    not the task count.

    ``fn`` receives every row of each key it sees (exactness) and must do
    its own per-key grouping vectorized (pandas groupby / lexsort runs).

    ``fn_format="pyarrow"`` runs the ENTIRE exchange Arrow-native: the
    partition tag is computed zero-copy off Arrow buffers and ``fn``
    receives a ``pyarrow.Table`` — string-heavy exchanges skip the
    Arrow→pandas→Arrow object boxing on every hop (round-2 VERDICT: the
    pandas fabric pays DRAM for the conversions on an engine whose
    measured wall is memory bandwidth).

    ``via`` picks the exchange mechanism: ``"tasks"`` (default, see
    ``hash_exchange``) or ``"sort"`` (Ray's sort-based groupby).

    ``isolate_heavy_frac``: when set (e.g. 0.02), a lean pre-pass
    detects keys holding more than that fraction of rows and routes
    each to its own DEDICATED partition, so a hot key's partition
    holds that key alone instead of the key plus a 1/P share of
    everything else (host-level skew is a north-rule requirement; the
    input must be re-readable/materialized since the pre-pass consumes
    it once). Results are identical either way — this only moves
    partition boundaries."""
    if isolate_heavy_frac is not None and (via or DEFAULT_VIA) == "tasks":
        heavy = detect_heavy_key_hashes(ds, key_cols,
                                        isolate_heavy_frac)
        if len(heavy):
            return _task_exchange(
                ds, ("hash_iso", list(key_cols), heavy), fn,
                num_partitions + len(heavy), fn_format)
    if (via or DEFAULT_VIA) == "tasks":
        return hash_exchange(ds, key_cols, fn,
                             num_partitions=num_partitions,
                             fn_format=fn_format)
    return _grouped_apply_sort(ds, key_cols, fn, num_partitions,
                               fn_format)


def _grouped_apply_sort(ds, key_cols: Sequence[str],
                        fn: Callable, num_partitions: int,
                        fn_format: str):
    """Sort-based exchange: tag + ``groupby(tag).map_groups``."""
    keys = list(key_cols)

    if fn_format == "pyarrow":
        import pyarrow as pa

        def add_part_arrow(batch: "pa.Table") -> "pa.Table":
            part = (_hash_table(batch, keys)
                    % np.uint64(num_partitions)).astype(np.int64)
            return batch.append_column(PART_COL, pa.array(part))

        def run_arrow(group: "pa.Table") -> "pa.Table":
            return fn(group.drop_columns([PART_COL]))

        return ds.map_batches(add_part_arrow, batch_format="pyarrow",
                              zero_copy_batch=True) \
            .groupby(PART_COL).map_groups(run_arrow,
                                          batch_format="pyarrow")

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch[PART_COL] = (_hash_cols(batch, keys)
                           % np.uint64(num_partitions)).astype(np.int64)
        return batch

    def run(group: pd.DataFrame) -> pd.DataFrame:
        return fn(group.drop(columns=[PART_COL]))

    return ds.map_batches(add_part, batch_format="pandas") \
        .groupby(PART_COL).map_groups(run, batch_format="pandas")


def pa_grouped_agg(table, keys: Sequence[str], aggs, out_names):
    """``pyarrow.TableGroupBy(...).aggregate(aggs)`` with VERSION-SAFE
    output naming: key columns and aggregates are selected by the
    names pyarrow generates (``{col}_{fn}`` / ``{fn}`` for nullary),
    never by position — older pyarrow emitted key columns last, which
    a positional ``rename_columns`` would silently swap."""
    import pyarrow as pa

    keys = list(keys)
    out = pa.TableGroupBy(table, keys).aggregate(aggs)
    cols = {k: out[k] for k in keys}
    for name, (target, fname) in zip(out_names, aggs):
        gen = fname if target == [] else f"{target}_{fname}"
        cols[name] = out[gen]
    return pa.table(cols)


def grouped_agg_sum(ds, key_cols: Sequence[str],
                    sum_cols: Sequence[str],
                    num_partitions: int = 64):
    """Exact grouped sums, Arrow-native end-to-end: the exchange rides
    Arrow blocks and each partition aggregates with
    ``pyarrow.TableGroupBy`` C kernels."""
    import pyarrow as pa

    keys = list(key_cols)
    sums = list(sum_cols)

    def agg(part: "pa.Table") -> "pa.Table":
        return pa_grouped_agg(part.select(keys + sums), keys,
                              [(c, "sum") for c in sums], sums)

    return grouped_apply(ds, keys, agg, num_partitions=num_partitions,
                         fn_format="pyarrow")


def run_boundaries(sort_keys: List[np.ndarray]):
    """lexsort rows by the given key arrays; return (order, run_starts)
    where runs are maximal equal-key spans in sorted order."""
    order = np.lexsort(tuple(reversed(sort_keys)))
    n = len(order)
    if n == 0:
        return order, np.empty(0, dtype=np.int64)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in sort_keys:
        s = k[order]
        change[1:] |= s[1:] != s[:-1]
    starts = np.flatnonzero(change)
    return order, starts


def write_bucketed(ds, key_cols: Sequence[str], path: str,
                   num_buckets: int = 64) -> None:
    """Write parquet partitioned by ``bucket = hash(keys) % B``.

    This persists CO-LOCATION: every row of a key lives under one
    ``__bucket=<i>/`` directory, so later stages that need per-key logic
    on the same key read bucket-by-bucket and pay NO further exchange —
    the "pick one partitioning key and reuse it across stages" pattern.
    One bucket directory per hash slice also makes reruns resumable at
    bucket granularity."""
    keys = list(key_cols)

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__bucket"] = (_hash_cols(batch, keys)
                             % np.uint64(num_buckets)).astype(np.int64)
        return batch

    ds.map_batches(add_bucket, batch_format="pandas") \
        .write_parquet(path, partition_cols=["__bucket"])


#: bucketed_grouped_apply refuses to coalesce a bucket larger than
#: this (bytes on disk; parquet decompresses several-fold in memory) —
#: a single bucket must fit one worker's heap, and silently
#: repartition(1)-ing an oversized one would OOM the worker instead of
#: telling the caller to raise num_buckets / salt the bucket key
BUCKET_BYTES_LIMIT = 2 << 30


def _dir_bytes(path: str) -> int:
    import os
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def bucketed_grouped_apply(path: str,
                           fn: Callable[[pd.DataFrame], pd.DataFrame],
                           num_buckets: int = 64,
                           max_bucket_bytes: int = BUCKET_BYTES_LIMIT):
    """``grouped_apply`` over a ``write_bucketed`` directory WITHOUT a
    shuffle: each bucket is read as one partition (its rows are already
    co-located on disk) and ``fn`` runs once per bucket. Returns the
    union Dataset of all bucket results.

    Each bucket is coalesced to ONE block, so a bucket must fit a
    worker's heap; a bucket whose on-disk size exceeds
    ``max_bucket_bytes`` raises ``ValueError`` up front (round-3
    VERDICT #8 — fail loudly, never silently repartition(1) an
    unbounded bucket). Fixes: raise ``num_buckets`` when writing, or
    salt the bucket key for hot keys."""
    import os
    import ray.data as rd

    datasets = []
    for i in range(num_buckets):
        bdir = os.path.join(path, f"__bucket={i}")
        if not os.path.isdir(bdir):
            continue
        nbytes = _dir_bytes(bdir)
        if nbytes > max_bucket_bytes:
            raise ValueError(
                f"bucket {i} under {path} is {nbytes} bytes on disk "
                f"(> max_bucket_bytes={max_bucket_bytes}); it cannot "
                f"be coalesced into one worker block — rewrite with "
                f"more buckets or salt the bucket key")
        # a bucket spans several files (one per writer task): coalesce
        # to ONE block so fn sees the whole bucket — this concat is
        # bucket-local, not an all-to-all exchange
        bds = rd.read_parquet(bdir).repartition(1)
        datasets.append(bds.map_batches(
            lambda part: fn(part.drop(columns=["__bucket"],
                                      errors="ignore")),
            batch_format="pandas", batch_size=None))
    if not datasets:
        raise FileNotFoundError(f"no bucket directories under {path}")
    out = datasets[0]
    for d in datasets[1:]:
        out = out.union(d)
    return out
