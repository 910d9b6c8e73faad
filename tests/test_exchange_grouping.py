"""Reduce-task grouping in the task exchange.

An exchange routes rows to P partitions but runs only as many reduce
tasks as its input bytes call for (``TARGET_TASK_BYTES`` each); a task
owns a contiguous range of partitions and calls ``fn`` once per
non-empty partition. These tests pin that grouping changes nothing a
caller can see, that the exchange reads its upstream once, and that a
reduce task's pandas conversion does not depend on dtypes registered
in the worker process.
"""

import os
import subprocess
import sys
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

import nacc_form_validator_ray
from nacc_form_validator_ray.stages import partition
from nacc_form_validator_ray.stages.partition import (grouped_apply,
                                                      ranged_exchange)
from nacc_form_validator_ray.stages.ranking import (global_rank,
                                                    running_total)

PACKAGE = Path(nacc_form_validator_ray.__file__).parent


def _frame(n: int = 3000, heavy: bool = False) -> pd.DataFrame:
    rng = np.random.default_rng(13)
    k = rng.integers(0, 200, n).astype(np.int64)
    if heavy:
        k[rng.random(n) < 0.3] = 7
    return pd.DataFrame({"k": k,
                         "v": rng.integers(0, 1000, n).astype(np.int64),
                         "id": np.arange(n, dtype=np.int64)})


def _make_fn(fn_format: str):
    """Per-partition aggregate whose output TYPES depend on the rows, as
    the temporal stage's do: an all-null column in some partitions
    (string in the others) and double-with-NaN in some (int64 in the
    others). ``rows`` records the size of the partition fn was given.
    Extra kwargs (a range exchange's offsets) become columns."""
    def agg(part: pd.DataFrame, **extra) -> pd.DataFrame:
        g = part.groupby("k", as_index=False, sort=True) \
            .agg(n=("v", "size"), total=("v", "sum"))
        first = int(g["k"].iloc[0])
        g["maybe"] = None if first % 2 == 0 else g["k"].astype(str)
        if first % 3 == 0:
            mixed = g["total"].astype(float)
            mixed.iloc[0] = np.nan
            g["mixed"] = mixed
        else:
            g["mixed"] = g["total"]
        g["rows"] = len(part)
        for name, val in extra.items():
            g[name] = val
        return g

    if fn_format == "pandas":
        return agg

    def agg_arrow(part: pa.Table, **extra) -> pa.Table:
        return pa.Table.from_pandas(agg(part.to_pandas(), **extra),
                                    preserve_index=False)
    return agg_arrow


def _blocks_frame(ds) -> pd.DataFrame:
    """Rows of every output block, in block order (the blocks of the
    one-task-per-partition shape may disagree on a column's type)."""
    frames = [ray.get(r).to_pandas()
              for b in ds.iter_internal_ref_bundles()
              for r in b.block_refs]
    return pd.concat(frames, ignore_index=True)


def _both_shapes(monkeypatch, run):
    """``run()`` with one reduce task per partition (1-byte target, the
    shape before grouping) and with the default target (one task for
    these inputs)."""
    with monkeypatch.context() as m:
        m.setattr(partition, "TARGET_TASK_BYTES", 1)
        per_partition = _blocks_frame(run())
    return per_partition, _blocks_frame(run())


def _assert_same(a: pd.DataFrame, b: pd.DataFrame):
    assert len(a) and a.columns.tolist() == b.columns.tolist()
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


@pytest.mark.parametrize("fn_format", ["pandas", "pyarrow"])
@pytest.mark.parametrize("routing", ["hash", "hash_iso", "range"])
def test_grouping_does_not_change_results(monkeypatch, routing,
                                          fn_format):
    df = _frame(heavy=routing == "hash_iso")
    ds = rd.from_pandas(df).repartition(4).materialize()
    fn = _make_fn(fn_format)

    if routing == "range":
        def extra(p, totals):
            return {"rows_below": int(totals[:p, 0].sum()),
                    "v_below": int(totals[:p, 1].sum())}

        def run():
            return ranged_exchange(ds, "k", [21, 50, 95, 140], fn,
                                   fn_format=fn_format, extra_fn=extra,
                                   agg_cols=["v"])
    else:
        iso = 0.05 if routing == "hash_iso" else None

        def run():
            return grouped_apply(ds, ["k"], fn, num_partitions=16,
                                 fn_format=fn_format,
                                 isolate_heavy_frac=iso)

    per_partition, grouped = _both_shapes(monkeypatch, run)
    _assert_same(per_partition, grouped)
    truth = df.groupby("k")["v"].agg(["size", "sum"])
    got = grouped.set_index("k").sort_index()
    assert (got["n"] == truth["size"]).all()
    assert (got["total"] == truth["sum"]).all()
    assert got["maybe"].isna().any() and got["maybe"].notna().any()
    assert got["mixed"].isna().any()
    if routing == "hash_iso":
        # the heavy key still has a partition to itself
        assert got.loc[7, "rows"] == got.loc[7, "n"]
    if routing == "range":
        # offsets are per partition: rows/sums of all lower ranges
        lo = grouped.groupby("rows_below")["k"].min()
        assert (lo.index == [int((df["k"] < k).sum())
                             for k in lo.values]).all()


def test_grouping_keeps_global_rank_and_running_total(monkeypatch):
    df = _frame()
    ds = rd.from_pandas(df).repartition(4).materialize()
    rank_pp, rank = _both_shapes(
        monkeypatch, lambda: global_rank(ds, "k", tie_cols=["id"],
                                         num_partitions=6, ntile=7))
    _assert_same(rank_pp, rank)
    total_pp, total = _both_shapes(
        monkeypatch, lambda: running_total(ds, "k", "v", tie_cols=["id"],
                                           num_partitions=6))
    _assert_same(total_pp, total)
    order = df.sort_values(["k", "id"]).reset_index(drop=True)
    assert (rank["id"] == order["id"]).all()
    assert (rank["rank"] == np.arange(1, len(df) + 1)).all()
    assert (total["id"] == order["id"]).all()
    assert (total["running"] == order["v"].cumsum()).all()


def test_unmergeable_partition_outputs_name_the_column():
    ds = rd.from_pandas(_frame()).repartition(4).materialize()

    def fn(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("k", as_index=False)["v"].sum()
        g["c"] = g["k"].astype(str) if int(g["k"].iloc[0]) % 2 \
            else g["k"]
        return g

    with pytest.raises(ValueError, match=r"Field c has incompatible "
                       r"types: (string vs int64|int64 vs string)"):
        grouped_apply(ds, ["k"], fn, num_partitions=16).materialize()


def test_exchange_runs_its_upstream_once(tmp_path):
    calls = tmp_path / "calls"
    calls.mkdir()

    def record(batch: pd.DataFrame) -> pd.DataFrame:
        (calls / uuid.uuid4().hex).touch()
        return batch.assign(k=batch["id"] % 11)

    ds = rd.range(400, override_num_blocks=4) \
        .map_batches(record, batch_format="pandas", batch_size=None)
    out = grouped_apply(ds, ["k"],
                        lambda p: p.groupby("k", as_index=False)
                        .agg(n=("id", "size")),
                        num_partitions=8).to_pandas()
    assert out["n"].sum() == 400
    assert len(list(calls.iterdir())) == 4


def test_package_reads_blocks_without_to_arrow_refs():
    # to_arrow_refs re-executes its upstream for a schema probe
    hits = [str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")
            if "to_arrow_refs" in p.read_text()]
    assert hits == []


def test_reduce_converts_tensor_columns_in_a_fresh_process(tmp_path):
    """A reduce task deserializes Ray's Arrow tensor type but may never
    have imported Ray's pandas tensor dtype, which the block's pandas
    metadata names; the conversion must not need it. A fresh
    interpreter stands in for a fresh worker."""
    rng = np.random.RandomState(1)
    df = pd.DataFrame({"vec_id": np.arange(6),
                       "embedding": list(rng.normal(size=(6, 4)))})
    blocks = [ray.get(r)
              for b in rd.from_pandas(df).iter_internal_ref_bundles()
              for r in b.block_refs]
    table = pa.concat_tables([
        b if isinstance(b, pa.Table)
        else pa.Table.from_pandas(b, preserve_index=False)
        for b in blocks])
    assert b"numpy.ndarray" in table.schema.metadata[b"pandas"]
    path = tmp_path / "part.arrow"
    with pa.OSFile(str(path), "wb") as f, \
            pa.ipc.new_file(f, table.schema) as w:
        w.write_table(table)
    code = (
        "import sys, numpy as np, pyarrow as pa\n"
        "import ray.air.util.tensor_extensions.arrow\n"
        "from nacc_form_validator_ray.stages.partition import "
        "_run_reduce_fn\n"
        "assert 'ray.air.util.tensor_extensions.pandas' not in "
        "sys.modules\n"
        f"t = pa.ipc.open_file({str(path)!r}).read_all()\n"
        "out = _run_reduce_fn(lambda p: p.assign(s=[float(np.sum(x)) "
        "for x in p['embedding']])[['vec_id', 's']], 'pandas', None, "
        "t)\n"
        "print(out['s'].to_pylist())\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    got = [float(x) for x in
           res.stdout.strip().splitlines()[-1].strip("[]").split(",")]
    np.testing.assert_allclose(got, np.vstack(df["embedding"]).sum(1))
