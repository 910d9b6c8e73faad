"""Traced pass: split one run of a workload into the package's layers.

Two kinds of span, all kept in memory and written as JSON lines when the
pass ends (one trace id per pass):

* **phase** spans time the public calls a run makes through Ray,
  replaying the workload's body (``run_quality_filter`` is replayed per
  partition as pipeline + sink, metrics read-back, manifest);
* **layer** spans time each stage callable called directly, in
  pipeline order, on the same Arrow batches the run streams. Their
  durations are in-process self times. A layer span's ``parent`` is the
  phase it replays; it runs after that phase, not inside it.

Exchanges cannot run in-process, so ``exchange.s`` is measured by an
``isolate.exchange`` span: ``grouped_apply`` with the run's keys,
partition count and batch format over the rows the run exchanges, with a
partition function that only counts rows. Each phase is attributed the
self time of the layers it replays (exchange isolates included); what is
left of its wall time is ``ray.residual_s``. ``check_spans`` recomputes
each phase's self times from the span file and fails the pass if they
disagree with the phase's totals, or if a phase's residual is negative
beyond ``RESIDUAL_TOL`` (its replays outran the phase they replay).

Layer spans time calls into the package's own functions. Work that
exists in the package only as a closure inside a Ray call (the
``errors`` flattening in ``rule_hit_metrics``, the band fold in
``minhash_candidate_pairs``) is redone with package code or plain Arrow
outside any span, so its time stays in ``ray.residual_s``.
"""

from __future__ import annotations

import collections
import contextlib
import glob
import json
import os
import re
import shutil
import sys
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_DIR = os.path.join(HERE, ".traces")

#: every per-layer metric and its unit; 0 where a workload does not run
#: the layer
LAYER_METRICS = {
    "read.s": "s", "read.rows": "count", "read.bytes": "bytes",
    "extract.self_s": "s", "extract.bytes_out": "bytes",
    "signals.self_s": "s", "signals.batch_p50_ms": "ms",
    "signals.batch_p99_ms": "ms",
    "scrub.self_s": "s", "scrub.batch_p99_ms": "ms",
    "scrub.redactions": "count",
    "validate.self_s": "s", "validate.batch_p99_ms": "ms",
    "validate.errors_out": "count",
    "temporal.self_s": "s", "temporal.subjects": "count",
    "exchange.s": "s", "exchange.rows_moved": "count",
    "exchange.bytes_moved": "bytes", "exchange.partitions": "count",
    "exchange.skew": "ratio",
    "dedup.self_s": "s", "dedup.candidate_pairs": "count",
    "dedup.confirmed_frac": "ratio", "dedup.banned": "count",
    "lineage.readback_s": "s", "lineage.readback_wall_s": "s",
    "lineage.manifest_s": "s",
    "sink.write_s": "s", "sink.bytes_written": "bytes",
    "sink.files": "count",
    "ray.residual_s": "s", "trace.overhead_frac": "ratio",
}

#: a phase's residual may be this share of its wall time below zero
#: before the pass fails (timer jitter between replay and phase)
RESIDUAL_TOL = 0.02
#: self times recomputed from a span file must match the phase's
#: totals to this many seconds (JSON round-trip of float sums)
SUM_TOL = 1e-6

#: layer span name -> the metric its self time adds to
SELF_METRIC = {"read": "read.s", "extract": "extract.self_s",
               "signals": "signals.self_s", "scrub": "scrub.self_s",
               "validate": "validate.self_s",
               "temporal": "temporal.self_s", "exchange": "exchange.s",
               "dedup": "dedup.self_s",
               "lineage.readback": "lineage.readback_s",
               "lineage.manifest": "lineage.manifest_s",
               "sink": "sink.write_s"}


class Tracer:
    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, parent=None, **attrs):
        rec = {"trace": self.trace_id, "span": len(self.spans),
               "parent": parent if parent is not None else (
                   self._stack[-1] if self._stack else None),
               "name": name, "start": time.perf_counter(), "end": None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["span"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def dur(span):
    return span["end"] - span["start"]


class Pass:
    """Bookkeeping of one traced pass: spans, per-layer self times and
    per-batch latencies, counters."""

    def __init__(self):
        self.tr = Tracer()
        self.root = None
        self.batch_ms = collections.defaultdict(list)
        self.counts = collections.Counter()
        self.phases = []

    @contextlib.contextmanager
    def phase(self, name, **attrs):
        with self.tr.span("phase." + name, parent=self.root["span"],
                          **attrs) as rec:
            rec["attrs"]["self"] = collections.Counter()
            yield rec
        self.phases.append(rec)

    def layer(self, phase, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` as one span of layer ``name``
        replaying ``phase``; returns its result."""
        with self.tr.span(name, parent=phase["span"]) as rec:
            out = fn(*args, **kwargs)
        phase["attrs"]["self"][name] += dur(rec)
        self.batch_ms[name].append(dur(rec) * 1e3)
        return out

    def isolate(self, phase, name, fn, *args, **attrs):
        """Run ``fn(*args)`` as a separate Ray call whose wall time is
        the self time of layer ``name`` inside ``phase``."""
        with self.tr.span("isolate." + name, parent=self.root["span"],
                          attributed_to=phase["span"], **attrs) as rec:
            out = fn(*args)
        phase["attrs"]["self"][name] += dur(rec)
        return out

    def stages(self, phase, stages, table, batch_size):
        """Run ``stages`` in order on ``batch_size``-row slices of
        ``table`` (as ``map_batches`` does); returns the output tables."""
        out = []
        for i in range(0, max(table.num_rows, 1), batch_size):
            batch = table.slice(i, batch_size)
            for name, fn in stages:
                batch = self.layer(phase, name, fn, batch)
                self.on_batch(name, batch)
            out.append(batch)
        return out

    def on_batch(self, name, batch):
        if name == "extract":
            self.counts["extract.bytes_out"] += pc.sum(
                pc.binary_length(batch["text"])).as_py() or 0
        elif name == "scrub":
            self.counts["scrub.redactions"] += pc.sum(
                batch["n_redactions"]).as_py() or 0
        elif name == "validate":
            self.counts["validate.errors_out"] += pc.sum(
                batch["n_errors"]).as_py() or 0

    def sink(self, phase, tables, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        table = pa.concat_tables(tables) if tables else None
        if table is not None:
            self.layer(phase, "sink", pq.write_table, table, path)

    def read(self, phase, fn, path_or_paths, nbytes):
        table = self.layer(phase, "read", fn, path_or_paths)
        self.counts["read.rows"] += table.num_rows
        self.counts["read.bytes"] += nbytes
        return table


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


def _count_rows(part):
    return {"rows": [part.num_rows if hasattr(part, "num_rows")
                     else len(part)]}


def exchange(p, phase, tables, keys, num_partitions, fn_format):
    """Isolated ``grouped_apply`` over ``tables``; records rows and bytes
    moved, non-empty partitions and skew (max / mean rows over the
    requested partitions)."""
    import ray.data as rd
    from nacc_form_validator_ray.stages.partition import grouped_apply
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return
    ds = rd.from_arrow(tables)

    def run():
        return grouped_apply(ds, keys, _count_rows,
                             num_partitions=num_partitions,
                             fn_format=fn_format).take_all()

    rows = [r["rows"] for r in p.isolate(phase, "exchange", run,
                                         keys=keys,
                                         partitions=num_partitions)]
    total = sum(t.num_rows for t in tables)
    p.counts["exchange.rows_moved"] += total
    p.counts["exchange.bytes_moved"] += sum(t.nbytes for t in tables)
    p.counts["exchange.partitions"] += len(rows)
    skew = max(rows) / (total / num_partitions)
    p.counts["exchange.skew"] = max(p.counts["exchange.skew"], skew)


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


# ------------------------------------------------------------ qf_pages


def trace_qf_pages(p, wl, in_dir, work):
    """Replay ``run_quality_filter`` partition by partition."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum
    from nacc_form_validator_ray.engine import CompiledSchema
    from nacc_form_validator_ray.pipelines.quality_filter import (
        OUTPUT_COLUMNS, WEB_QUALITY_RULES, ExtractText,
        build_quality_pipeline, rule_hit_metrics)
    from nacc_form_validator_ray.stages.scrub import Scrubber
    from nacc_form_validator_ray.stages.text_signals import TextStats
    from nacc_form_validator_ray.stages.validate import ValidateStage
    from nacc_form_validator_ray.state import lineage

    clock = workloads._clock()
    out = os.path.join(work, "trace_out")
    columns = ["url", "warc_ts", "html", "lang"]
    stages = [
        ("extract", ExtractText()),
        ("signals", TextStats(langid=True)),
        ("scrub", Scrubber()),
        ("validate", ValidateStage(
            CompiledSchema(WEB_QUALITY_RULES, strict=False, clock=clock),
            collect="codes")),
    ]
    for part, f in enumerate(workloads._parquet_files(in_dir)):
        pdir = lineage.partition_dir(out, part)
        with p.phase("pipeline", part=part) as ph:
            ds = rd.read_parquet([f], columns=columns)
            ds = build_quality_pipeline(ds, clock=clock, extract=True)
            ds = ds.select_columns([c for c in OUTPUT_COLUMNS
                                    if c in ds.schema().names])
            ds.write_parquet(pdir)
        table = p.read(ph, lambda x: pq.read_table(x, columns=columns), f,
                       _file_bytes([f]))
        done = p.stages(ph, stages, table, 1024)
        keep = [c for c in OUTPUT_COLUMNS if c in done[0].column_names]
        p.sink(ph, [t.select(keep) for t in done],
               os.path.join(work, "trace_sink", f"part-{part}.parquet"))

        with p.phase("readback", part=part) as rb:
            meta = rd.read_parquet(pdir, columns=["passed", "errors"])
            counts = meta.map_batches(
                lambda b: pd.DataFrame(
                    {"n_rows": [len(b)],
                     "n_kept": [int(b["passed"].sum())]}),
                batch_format="pandas").aggregate(
                    Sum("n_rows", alias_name="n_rows"),
                    Sum("n_kept", alias_name="n_kept"))
            hits = {f"{r.field}:{int(r.code):#x}": int(r.n_hits)
                    for r in rule_hit_metrics(meta).to_pandas()
                    .itertuples()}
        n_rows, n_kept, partials = _readback(
            p, rb, workloads._parquet_files(pdir))
        if (n_rows, n_kept) != (counts["n_rows"], counts["n_kept"]):
            raise RuntimeError("read-back replay disagrees with the run")
        exchange(p, rb, partials, ["field", "code"], 8, "pyarrow")
        p.counts["lineage.readback_wall_s"] += dur(rb)

        # no Ray here: the manifest write is its own layer span
        with p.phase("manifest", part=part) as mf:
            p.layer(mf, "lineage.manifest", lineage.write_manifest, out,
                    part, [f], int(counts["n_rows"] or 0),
                    int(counts["n_kept"] or 0), hits)
    return out


def _readback(p, rb, files):
    """In-process metrics read-back: each output file's ``passed`` and
    ``errors`` read again, and its (field, code) rule-hit partial summed
    by the package's ``pa_grouped_agg``. Only those two calls are layer
    spans; the flattening of ``errors`` is a closure inside
    ``rule_hit_metrics`` and runs here outside any span."""
    from nacc_form_validator_ray.stages.partition import pa_grouped_agg
    n_rows = n_kept = 0
    partials = []
    for f in files:
        t = p.layer(rb, "lineage.readback", pq.read_table, f,
                    columns=["passed", "errors"])
        n_rows += t.num_rows
        n_kept += pc.sum(t["passed"]).as_py() or 0
        flat = pc.list_flatten(t["errors"].combine_chunks())
        hits = pa.table({"field": flat.field("field"),
                         "code": pc.cast(flat.field("code"), pa.int64()),
                         "n_hits": np.ones(len(flat), dtype=np.int64)})
        partials.append(p.layer(rb, "lineage.readback", pa_grouped_agg,
                                hits, ["field", "code"],
                                [("n_hits", "sum")], ["n_hits"]))
    return n_rows, n_kept, partials


# ----------------------------------------------------- visits_temporal


def trace_visits_temporal(p, wl, in_dir, work):
    """Replay the validate job: read → local rules → pk exchange →
    vectorized temporal rules → parquet, then the summary read-back."""
    import pyarrow.csv as pacsv
    from nacc_form_validator_ray.engine import CompiledSchema
    from nacc_form_validator_ray.stages.validate import (
        ValidateStage, VectorTemporalPartition, temporal_fast_specs)
    import gen

    out = os.path.join(work, "trace_out")
    with p.phase("validate_job") as ph:
        wl.validate_job(in_dir, out)
    csv_path = os.path.join(in_dir, "visits.csv")
    table = p.read(ph, pacsv.read_csv, csv_path, _file_bytes([csv_path]))
    compiled = CompiledSchema(gen.VISIT_RULES, pk_field="patient_id",
                              orderby="visit_num", strict=False,
                              clock=workloads._clock())
    local = p.stages(ph, [("validate", ValidateStage(
        compiled, collect="codes"))], table, 4096)
    exchange(p, ph, local, ["patient_id"], 64, "pandas")

    specs = temporal_fast_specs(compiled)
    if not specs:
        raise RuntimeError("visit schema left the vectorized temporal path")
    temporal = VectorTemporalPartition(compiled, specs)
    frame = pa.concat_tables(local).to_pandas()
    p.counts["temporal.subjects"] = frame["patient_id"].nunique()
    route = pd_hash(frame["patient_id"]) % 64
    outs = [p.layer(ph, "temporal", temporal,
                    frame[route == k].reset_index(drop=True))
            for k in range(64) if (route == k).any()]
    p.sink(ph, [pa.Table.from_pandas(o, preserve_index=False)
                for o in outs],
           os.path.join(work, "trace_sink", "visits.parquet"))

    with p.phase("summary") as sm:
        wl.summary(out)
    p.layer(sm, "lineage.readback",
            lambda fs: [pc.sum(pq.read_table(x, columns=["passed"])
                               ["passed"]) for x in fs],
            workloads._parquet_files(out))
    return out


def pd_hash(series):
    import pandas as pd
    return pd.util.hash_array(series.to_numpy(dtype=object),
                              categorize=False)


# ------------------------------------------------------ pretrain_dedup


def trace_pretrain_dedup(p, wl, in_dir, work):
    """``run_pretrain`` as one phase; its clean, dedup and drop stages
    replayed in-process."""
    import pandas as pd
    from nacc_form_validator_ray.engine import CompiledSchema
    from nacc_form_validator_ray.pipelines.pretrain import _keep_and_project
    from nacc_form_validator_ray.pipelines.quality_filter import (
        WEB_QUALITY_RULES, ExtractText)
    from nacc_form_validator_ray.stages.dedup import (
        BandEmitter, MinHasher, md5_int64_pairs, normalize_ws_arrow)
    from nacc_form_validator_ray.stages.partition import run_boundaries
    from nacc_form_validator_ray.stages.scrub import Scrubber
    from nacc_form_validator_ray.stages.text_signals import TextStats
    from nacc_form_validator_ray.stages.validate import ValidateStage

    out = os.path.join(work, "trace_out")
    with p.phase("pretrain") as ph:
        wl.body(in_dir, out)
    files = workloads._parquet_files(in_dir)
    table = p.read(
        ph, lambda fs: pa.concat_tables([pq.read_table(x) for x in fs]),
        files, _file_bytes(files))
    stages = [
        ("extract", ExtractText()),
        ("signals", TextStats(langid=True)),
        ("scrub", Scrubber()),
        ("validate", ValidateStage(
            CompiledSchema(WEB_QUALITY_RULES, strict=False,
                           clock=workloads._clock()), collect="none")),
    ]
    cleaned = p.stages(ph, stages, table, 1024)
    docs = pa.concat_tables([p.layer(ph, "dedup", _keep_and_project, b)
                             for b in cleaned])
    run_docs = workloads._read_parquet_dir(os.path.join(out, "01_clean"),
                                           ["doc_id"])["doc_id"]
    if not np.array_equal(np.sort(run_docs.to_numpy()),
                          np.sort(docs["doc_id"].to_numpy())):
        raise RuntimeError("replayed clean stage disagrees with the run")
    sink = os.path.join(work, "trace_sink")
    p.sink(ph, [docs], os.path.join(sink, "01_clean.parquet"))

    # exact-dup keys and their run detection (the partition function of
    # the md5 exchange, here over all rows at once)
    ids = docs["doc_id"].to_numpy()
    text = docs["text"].combine_chunks()
    h = p.layer(ph, "dedup", md5_int64_pairs,
                p.layer(ph, "dedup", normalize_ws_arrow, text))
    h1, h2 = np.ascontiguousarray(h[:, 0]), np.ascontiguousarray(h[:, 1])
    exchange(p, ph, [pa.table({"doc_id": ids, "__h1": h1, "__h2": h2})],
             ["__h1", "__h2"], 32, "pyarrow")
    p.layer(ph, "dedup", run_boundaries, [h1, h2])

    # MinHash signatures; the run folds them into band keys inside a
    # closure, so the package's BandEmitter makes the same keys here,
    # outside any span
    k, bands, threshold, shingle_n = _lsh_params()
    sig = p.layer(ph, "dedup", MinHasher(text_column="text", k=k)
                  .signatures, text)
    band_rows = BandEmitter(bands=bands, rows_per_band=k // bands)(
        pd.DataFrame({"doc_id": ids, "minhash": list(sig)}))
    exchange(p, ph, [pa.Table.from_pandas(band_rows, preserve_index=False)],
             ["band_id", "k1", "k2"], 32, "pyarrow")

    pairs = _candidate_pairs(p, docs)
    p.counts["dedup.candidate_pairs"] = len(pairs)
    p.counts["dedup.confirmed_frac"] = _confirmed_frac(
        docs, pairs, threshold, shingle_n)
    # the ban list is the run's own (its 02_banned checkpoint)
    banned = np.unique(workloads._read_parquet_dir(
        os.path.join(out, "02_banned"), ["doc_id"])["doc_id"].to_numpy())
    p.counts["dedup.banned"] = len(banned)
    p.sink(ph, [pa.table({"doc_id": banned})],
           os.path.join(sink, "02_banned.parquet"))
    keep = ~np.isin(ids, banned)
    p.sink(ph, [docs.filter(pa.array(keep))],
           os.path.join(sink, "03_docs.parquet"))
    return out


def _lsh_params():
    """``k``, ``bands`` and ``threshold`` of the package's
    ``minhash_candidate_pairs`` (as ``run_pretrain`` calls it) and the
    shingle size of its ``MinHasher``."""
    import inspect
    from nacc_form_validator_ray.stages.dedup import (
        MinHasher, minhash_candidate_pairs)
    lsh = inspect.signature(minhash_candidate_pairs).parameters
    shingle = inspect.signature(MinHasher).parameters["shingle_n"]
    return (lsh["k"].default, lsh["bands"].default,
            lsh["threshold"].default, shingle.default)


def _candidate_pairs(p, docs):
    """The near-dup candidates, from the package's own LSH call (a
    counting span: its time is part of the pretrain phase already)."""
    import ray.data as rd
    from nacc_form_validator_ray.stages.dedup import minhash_candidate_pairs
    with p.tr.span("count.dedup_candidates", parent=p.root["span"]):
        ds = rd.from_arrow(docs.select(["doc_id", "text"]))
        return minhash_candidate_pairs(ds, id_column="doc_id",
                                       text_column="text").to_pandas()


_TOKEN = re.compile(r"[a-z0-9]+")


def _shingles(text, n):
    toks = _TOKEN.findall(text.lower())
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def _confirmed_frac(docs, pairs, threshold, n):
    """Candidate pairs whose exact word-``n``-gram Jaccard reaches
    ``threshold``, as a share of all candidates (1.0 with none)."""
    if not len(pairs):
        return 1.0
    text = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    ok = 0
    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        sa, sb = _shingles(text[int(a)], n), _shingles(text[int(b)], n)
        union = len(sa | sb)
        ok += union > 0 and len(sa & sb) / union >= threshold
    return ok / len(pairs)


# ----------------------------------------------------------------- pass


TRACERS = {"qf_pages": trace_qf_pages,
           "visits_temporal": trace_visits_temporal,
           "pretrain_dedup": trace_pretrain_dedup}


class SpanError(ValueError):
    """A span file that fails ``check_spans``."""


def check_spans(spans):
    """Span-file self-check; raises ``SpanError`` on a violation.

    * one trace id, every span closed, every parent resolves;
    * per phase, the self time of each layer recomputed from the spans
      (layer spans whose parent is the phase, isolate spans attributed
      to it) equals the phase's stored ``self`` totals;
    * per phase, ``residual_s`` is the phase's wall time minus that
      recomputed self time, and is not below ``-RESIDUAL_TOL * wall``.
    """
    ids = {s["span"] for s in spans}
    if len({s["trace"] for s in spans}) != 1:
        raise SpanError("spans of more than one trace")
    found = collections.defaultdict(collections.Counter)
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            raise SpanError(f"span {s['name']} is not closed")
        if s["parent"] is not None and s["parent"] not in ids:
            raise SpanError(f"span {s['name']} has no parent")
        if s["name"] in SELF_METRIC:
            found[s["parent"]][s["name"]] += dur(s)
        elif s["name"].startswith("isolate."):
            found[s["attrs"]["attributed_to"]][s["name"][8:]] += dur(s)
    for s in spans:
        if not s["name"].startswith("phase."):
            continue
        a, got = s["attrs"], found.pop(s["span"], {})
        if set(a["self"]) != set(got) or any(
                abs(a["self"][k] - got[k]) > SUM_TOL for k in got):
            raise SpanError(f"{s['name']}: stored self times {a['self']} "
                            f"!= spans {dict(got)}")
        residual = dur(s) - sum(got.values())
        if abs(residual - a["residual_s"]) > SUM_TOL:
            raise SpanError(f"{s['name']}: residual {a['residual_s']} != "
                            f"wall - spans {residual}")
        if residual < -RESIDUAL_TOL * dur(s):
            raise SpanError(f"{s['name']}: replays took {-residual:.3f} s "
                            f"longer than the phase ({dur(s):.3f} s)")
    if found:
        raise SpanError(f"layer spans outside any phase: {dict(found)}")


def traced_pass(wl, in_dir, work, untraced_wall, seed):
    """Run the traced pass for ``wl``; returns the per-layer metrics and
    writes the spans to ``.traces/<workload>-seed<seed>.jsonl``."""
    p = Pass()
    with p.tr.span("run", workload=wl.name, seed=seed) as root:
        p.root = root
        out = TRACERS[wl.name](p, wl, in_dir, work)

    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    residual = 0.0
    for ph in p.phases:
        self_s = ph["attrs"]["self"]
        for name, s in self_s.items():
            metrics[SELF_METRIC[name]] += s
        ph["attrs"]["residual_s"] = dur(ph) - sum(self_s.values())
        residual += ph["attrs"]["residual_s"]
    metrics["ray.residual_s"] = residual
    for name in ("signals", "scrub", "validate"):
        ms = p.batch_ms[name]
        if name == "signals":
            metrics["signals.batch_p50_ms"] = _pct(ms, 50)
        metrics[f"{name}.batch_p99_ms"] = _pct(ms, 99)
    for k, v in p.counts.items():
        metrics[k] = float(v)
    nbytes, nfiles = _sink_files(out)
    metrics["sink.bytes_written"] = float(nbytes)
    metrics["sink.files"] = float(nfiles)
    replay = sum(dur(ph) for ph in p.phases)
    metrics["trace.overhead_frac"] = replay / untraced_wall - 1.0

    path = os.path.join(TRACE_DIR, f"{wl.name}-seed{seed}.jsonl")
    p.tr.write(path)
    with open(path) as f:
        check_spans([json.loads(line) for line in f])
    residuals = " ".join(f"{ph['name'][6:]}={ph['attrs']['residual_s']:.3f}"
                         for ph in p.phases)
    print(f"perfbench: {len(p.tr.spans)} spans in {path}; residual per "
          f"phase {residuals}", file=sys.stderr)
    shutil.rmtree(os.path.join(work, "trace_sink"), ignore_errors=True)
    return metrics


def _sink_files(path):
    files = [f for f in glob.glob(os.path.join(path, "**", "*"),
                                  recursive=True)
             if os.path.isfile(f) and "_lineage" not in f
             and not f.endswith("_DONE")]
    return sum(os.path.getsize(f) for f in files), len(files)
