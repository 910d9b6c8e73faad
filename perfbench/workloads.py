"""The three workloads: input, timed body, warm-up slice and oracle.

Each workload is one batch job run as a closed loop (one job at a time
from the driver process). ``body`` is exactly what a user of the package
calls; ``check`` compares one run's output with an oracle that shares no
code path with the body and returns the number of disagreeing rows.
"""

from __future__ import annotations

import collections
import csv
import glob
import os
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import gen

#: one frozen "now" for every rule that reads the clock
NOW = datetime(2026, 1, 1)


def _clock():
    from nacc_form_validator_ray.utils import Clock
    return Clock(NOW)


def _parquet_files(path):
    return sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                            recursive=True))


def _read_parquet_dir(path, columns=None) -> pa.Table:
    return pa.concat_tables(
        [pq.read_table(f, columns=columns) for f in _parquet_files(path)])


class Workload:
    name = ""
    kind = ""          # gen.ensure kind
    size = 0           # pages or subjects per run
    files = 1
    slice_rows = 0     # rows in the warm-up slice
    #: check the warm-up run's output on the slice instead of a timed
    #: run's output (for oracles too slow for the full input)
    check_on_slice = False

    def ensure_input(self, seed):
        return gen.ensure(self.kind, seed, self.size, self.files)

    def write_slice(self, in_dir, dst):
        """The warm-up input: the first ``slice_rows`` rows of the
        workload's own input, in the same format."""
        os.makedirs(dst, exist_ok=True)
        first = sorted(os.listdir(in_dir))[0]
        src = os.path.join(in_dir, first)
        if first.endswith(".parquet"):
            pq.write_table(pq.read_table(src).slice(0, self.slice_rows),
                           os.path.join(dst, first))
        else:
            with open(src) as f, open(os.path.join(dst, first), "w") as o:
                for i, line in enumerate(f):
                    if i > self.slice_rows:
                        break
                    o.write(line)

    def input_rows(self, in_dir) -> int:
        return sum(pq.ParquetFile(f).metadata.num_rows
                   for f in _parquet_files(in_dir))

    def body(self, in_dir, out_dir):
        raise NotImplementedError

    def check(self, in_dir, out_dir, seed, work) -> int:
        raise NotImplementedError


class QualityFilterPages(Workload):
    """``run_quality_filter`` over CC-style pages, one partition per
    input file."""

    name = "qf_pages"
    kind = "pages"
    size = 4000
    files = 2
    slice_rows = 300
    sample = 800

    def body(self, in_dir, out_dir):
        from nacc_form_validator_ray.pipelines.quality_filter import \
            run_quality_filter
        return run_quality_filter(in_dir, out_dir, clock=_clock())

    def check(self, in_dir, out_dir, seed, work):
        """DuckDB twin ``sql_quality_filter_pages`` over a seeded sample
        of the input's ``text``; every input row must also appear."""
        import duckdb
        from nacc_form_validator_ray.pipelines.queries import \
            sql_quality_filter_pages
        cols = ["url", "lang_pred", "passed", "n_errors", "n_redactions"]
        got = _read_parquet_dir(out_dir, cols).to_pandas()
        pages = _read_parquet_dir(in_dir, ["url", "text"])
        missing = abs(pages.num_rows - len(got)) + \
            int((~pages["url"].to_pandas().isin(got["url"])).sum())
        rng = np.random.default_rng([seed % 2**63, 1])
        pick = np.sort(rng.choice(pages.num_rows,
                                  min(self.sample, pages.num_rows),
                                  replace=False))
        path = os.path.join(work, "oracle_pages.parquet")
        pq.write_table(pages.take(pa.array(pick)), path)
        con = duckdb.connect()
        want = con.sql(sql_quality_filter_pages(path)).df()
        return missing + _frame_mismatch(got, want, ["url"], cols,
                                         sample=True)


class VisitsTemporal(Workload):
    """The reference's own job: ``read_any`` → ``validate_dataset``
    with temporal rules → ``write_parquet``, then the passed/failed
    summary the ``validate`` command prints."""

    name = "visits_temporal"
    kind = "visits"
    size = 2000
    slice_rows = 400
    sample_subjects = 300

    def input_rows(self, in_dir):
        with open(os.path.join(in_dir, "visits.csv")) as f:
            return sum(1 for _ in f) - 1

    def body(self, in_dir, out_dir):
        self.validate_job(in_dir, out_dir)
        return self.summary(out_dir)

    def validate_job(self, in_dir, out_dir):
        from nacc_form_validator_ray.sources import read_any
        from nacc_form_validator_ray.stages.validate import validate_dataset
        ds = read_any(in_dir)
        ds = validate_dataset(ds, gen.VISIT_RULES, pk_field="patient_id",
                              orderby="visit_num", collect="codes",
                              clock=_clock())
        ds.write_parquet(out_dir)

    def summary(self, out_dir):
        """Record and failure counts, read back from the output."""
        import ray.data as rd
        n_total = n_failed = 0
        for b in rd.read_parquet(out_dir, columns=["passed"]).iter_batches(
                batch_format="pyarrow", batch_size=None):
            n_total += b.num_rows
            n_failed += b.num_rows - pc.sum(b["passed"]).as_py()
        return {"n_total": n_total, "n_failed": n_failed}

    def check(self, in_dir, out_dir, seed, work):
        """Row oracle ``RecordValidator`` + ``InMemoryDatastore`` on a
        seeded sample of subjects: ``passed`` and the multiset of
        (field, code) must agree row for row."""
        with open(os.path.join(in_dir, "visits.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        got = _read_parquet_dir(
            out_dir, ["patient_id", "visit_num", "passed", "errors"])
        missing = abs(len(rows) - got.num_rows)
        subjects = collections.defaultdict(list)
        for r in rows:
            subjects[r["patient_id"]].append(r)
        rng = np.random.default_rng([seed % 2**63, 2])
        names = sorted(subjects)
        pick = set(rng.choice(names, min(self.sample_subjects, len(names)),
                              replace=False).tolist())
        want = {}
        for pid in pick:
            want.update(oracle_subject(subjects[pid]))
        seen = 0
        bad = 0
        for r in got.filter(pc.is_in(got["patient_id"],
                                     pa.array(sorted(pick)))).to_pylist():
            key = (r["patient_id"], r["visit_num"])
            codes = sorted((e["field"], e["code"]) for e in r["errors"])
            bad += want.get(key) != (r["passed"], codes)
            seen += 1
        return missing + bad + abs(len(want) - seen)


def oracle_subject(records):
    """Validate one subject's visits in ``visit_num`` order with the row
    validator. The datastore holds the subject's earlier visits; as in
    the engine's group semantics, a subject's first visit is its own
    initial record."""
    from nacc_form_validator_ray.datastore import InMemoryDatastore
    from nacc_form_validator_ray.rowval import RecordValidator

    class History(InMemoryDatastore):
        def get_initial_record(self, current_record):
            return super().get_initial_record(current_record) or \
                dict(current_record)

    store = History("patient_id", "visit_num")
    rv = RecordValidator(gen.VISIT_RULES, primary_key="patient_id",
                         datastore=store, clock=_clock())
    out = {}
    for raw in sorted(records, key=lambda r: int(r["visit_num"])):
        rec = rv.cast_record(dict(raw))
        rv.reset_record_cache()
        ok = rv.validate(rec)
        out[(rec["patient_id"], rec["visit_num"])] = (
            ok, sorted((e.field, e.code) for e in rv.error_entries))
        store.add_record(rec)
    return out


class PretrainDedup(Workload):
    """``run_pretrain``: quality filter, exact + MinHash near-dedup,
    three checkpointed stages."""

    name = "pretrain_dedup"
    kind = "pages"
    size = 2000
    files = 1
    #: two 1024-row batches of the quality stages
    slice_rows = 1100
    check_on_slice = True

    def body(self, in_dir, out_dir):
        from nacc_form_validator_ray.pipelines.pretrain import run_pretrain
        return run_pretrain(in_dir, out_dir, clock=_clock())

    def check(self, in_dir, out_dir, seed, work):
        """DuckDB twin ``sql_pretrain_pages``: the kept documents must be
        the same set. Dedup is global, so the twin runs over the whole
        input it checks; at ~12 ms per page it checks the warm-up slice
        (``check_on_slice``, 1100 pages, so more than one batch), not a
        timed run's output."""
        import duckdb
        from nacc_form_validator_ray.pipelines.queries import \
            sql_pretrain_pages
        cols = ["doc_id", "url", "lang_pred", "n_words"]
        got = _read_parquet_dir(os.path.join(out_dir, "03_docs"),
                                cols).to_pandas()
        con = duckdb.connect()
        want = con.sql(sql_pretrain_pages(
            os.path.join(in_dir, "*.parquet"))).df()
        return _frame_mismatch(got, want, ["doc_id"], cols, sample=False)


def _frame_mismatch(got, want, key, cols, sample) -> int:
    """Rows of ``want`` that ``got`` lacks or disagrees on; unless
    ``want`` is only a sample, also rows of ``got`` that ``want`` lacks."""
    got, want = got[cols].copy(), want[cols].copy()
    for df in (got, want):
        for c in cols:
            if df[c].dtype.kind in "iub":
                df[c] = df[c].astype(np.int64)
            elif df[c].dtype == object:
                df[c] = df[c].astype(str)
    merged = want.merge(got, on=key, how="left", suffixes=("", "_got"),
                        indicator=True)
    bad = merged["_merge"] != "both"
    for c in cols:
        if c not in key:
            bad |= merged[c] != merged[c + "_got"]
    extra = 0 if sample else int(
        (~got[key[0]].isin(want[key[0]])).sum())
    return int(bad.sum()) + extra


WORKLOADS = {w.name: w for w in (QualityFilterPages(), VisitsTemporal(),
                                 PretrainDedup())}
