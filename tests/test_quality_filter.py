"""End-to-end tests for the flagship web-text quality filter: synthetic
page generation, signals, keep/drop rules, scrubbing, lineage/resume."""

import json
import os
import re

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from nacc_form_validator_ray.pipelines.quality_filter import (
    WEB_QUALITY_RULES, build_quality_pipeline, run_quality_filter)
from nacc_form_validator_ray.pipelines.webgen import (PageGenerator,
                                                      extract_text,
                                                      generate_pages)
from nacc_form_validator_ray.stages.scrub import Scrubber
from nacc_form_validator_ray.stages.text_signals import (Fingerprint,
                                                         LangId, TextStats)
from nacc_form_validator_ray.state import lineage
from nacc_form_validator_ray.utils import Clock


def test_webgen_deterministic():
    gen = PageGenerator(seed=42)
    a = gen._doc(123)
    b = PageGenerator(seed=42)._doc(123)
    assert a == b
    assert extract_text(a["html"]) == a["text"]
    c = PageGenerator(seed=43)._doc(123)
    assert c["text"] != a["text"]


def test_webgen_dataset_and_extraction_identity():
    df = generate_pages(300, seed=7).to_pandas()
    assert len(df) == 300
    assert set(df.columns) == {"url", "warc_ts", "html", "text", "lang"}
    assert df["url"].is_unique
    for h, t in zip(df["html"], df["text"]):
        assert extract_text(h) == t


def test_text_stats_signals():
    df = pd.DataFrame({"text": [
        "the cat sat on the mat",
        "a b " * 100,
        "@#$% @#$% @#$%",
        "",
        "one two three one two three one two three one two three",
    ]})
    out = TextStats()(df)
    assert out["n_words"].tolist()[0] == 6
    assert out["symbol_ratio"].iloc[2] > 0.5
    assert out["n_chars_sig"].iloc[3] == 0
    # the repeated "one two three" doc has high 3-gram repetition
    assert out["rep_3gram_ratio"].iloc[4] > 0.5
    assert out["rep_3gram_ratio"].iloc[0] == 0.0


def test_rep_3gram_exact_value():
    # 5 tokens a b c a b -> 3-grams: (a,b,c) (b,c,a) (c,a,b) all distinct
    out = TextStats()(pd.DataFrame({"text": ["a b c a b"]}))
    assert out["rep_3gram_ratio"].iloc[0] == 0.0
    # "x y z x y z x y z" -> 7 total, distinct = 3 -> 1 - 3/7
    out = TextStats()(pd.DataFrame({"text": ["x y z x y z x y z"]}))
    assert out["rep_3gram_ratio"].iloc[0] == pytest.approx(1 - 3 / 7)


def test_repetition_signals_exact_values():
    from nacc_form_validator_ray.stages.text_signals import \
        RepetitionSignals
    df = pd.DataFrame({"text": [
        # 4 nonempty lines, "spam ham" twice -> 2 distinct of 4... no:
        # lines are {"spam ham" x3, "eggs"}: distinct 2, dup occurrences
        # 2 of 4; chars: total 3*8+4=28, extra 2*8=16
        "spam ham\nspam ham\n  spam ham \n\neggs",
        "aaa bbb ccc ddd eee fff ggg hhh iii jjj kkk lll\n"
        "mmm nnn ooo ppp qqq rrr sss ttt uuu vvv www xxx",
        "",
        None,
        # bigram "data data" dominates: tokens d d d d x -> bigrams
        # (d,d)x3 (d,x)x1 -> max_cov 3*8=24, tok_chars 17
        "data data data data x",
    ]})
    out = RepetitionSignals()(df)
    assert out["n_lines"].tolist() == [4, 2, 0, 0, 1]
    assert out["dup_line_frac"].iloc[0] == 1 - 2 / 4
    assert out["dup_line_char_frac"].iloc[0] == 16 / 28
    assert out["dup_line_frac"].iloc[1] == 0.0
    assert out["dup_line_frac"].iloc[2] == 0.0
    assert out["top_2gram_char_frac"].iloc[4] == 24 / 17
    assert bool(out["repetitive"].iloc[0]) is True
    assert bool(out["repetitive"].iloc[1]) is False


def test_repetition_signals_duckdb_parity_structured():
    """Engine vs the SQL twin on docs WITH real line structure (the
    synthetic corpus has no newlines, so the driver's gate never
    exercises the line path — this locks it)."""
    import duckdb
    from nacc_form_validator_ray.pipelines.queries import \
        SQL_REPETITION_DOCS
    from nacc_form_validator_ray.stages.text_signals import \
        RepetitionSignals
    rng = np.random.RandomState(11)
    words = ["alpha", "beta", "gamma", "delta", "data", "x"]
    docs = []
    for i in range(40):
        lines = []
        for _ in range(rng.randint(1, 8)):
            lines.append(" ".join(rng.choice(words,
                                             size=rng.randint(0, 6))))
        if i % 3 == 0 and lines:
            lines.append(lines[0])  # engineered duplicate line
        docs.append("\n".join(lines))
    df = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64),
                       "text": docs})
    eng = RepetitionSignals()(df.copy())[
        ["doc_id", "n_lines", "dup_line_frac", "dup_line_char_frac",
         "top_2gram_char_frac", "repetitive"]] \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("documents", df)
    sql = con.sql(SQL_REPETITION_DOCS).df() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(eng, sql, check_dtype=False)


def test_langid():
    df = pd.DataFrame({"text": [
        "the cat and the dog of the house was in the garden",
        "la casa de la madre y el perro en el jardin",
        "der hund und die katze in dem haus von der stadt",
        "xyzzy plugh qwerty",
    ]})
    out = LangId()(TextStats()(df))
    assert out["lang_pred"].tolist() == ["en", "es", "de", "und"]
    assert out["stop_ratio"].iloc[0] > 0.3


def test_scrubber_deterministic_and_counts():
    df = pd.DataFrame({"text": [
        "contact me at john.doe@example.com or 555-123-4567 now",
        "ssn is 123-45-6789 ip is 10.0.0.1",
        "clean text with no pii at all",
        "badword in here",
    ]})
    out = Scrubber()(df)
    assert out["scrubbed_text"].iloc[0] == \
        "contact me at <EMAIL> or <PHONE> now"
    assert out["scrubbed_text"].iloc[1] == "ssn is <SSN> ip is <IP>"
    assert out["n_email"].tolist() == [1, 0, 0, 0]
    assert out["n_ssn"].tolist() == [0, 1, 0, 0]
    assert out["n_phone"].tolist() == [1, 0, 0, 0]
    assert out["n_ipv4"].tolist() == [0, 1, 0, 0]
    assert out["n_toxic"].tolist() == [0, 0, 0, 1]
    assert out["n_redactions"].tolist() == [2, 2, 0, 1]
    again = Scrubber()(df)
    assert (again["scrubbed_text"] == out["scrubbed_text"]).all()


def test_quality_pipeline_end_to_end():
    ds = generate_pages(500, seed=42)
    out = build_quality_pipeline(ds, clock=Clock.frozen_now()).to_pandas()
    assert len(out) == 500
    # both keeps and drops must occur
    kept = out["passed"].sum()
    assert 0 < kept < 500
    # every dropped doc carries at least one coded error
    dropped = out[~out["passed"]]
    assert (dropped["n_errors"] > 0).all()
    codes = {e["code"] for errs in dropped["errors"] for e in errs}
    assert codes  # non-empty
    # scrubbed text exists and emails are gone
    assert not out["scrubbed_text"].str.contains("@example.com").any()


def test_quality_pipeline_parallelism_invariance():
    """Byte-identical results at different parallelism levels."""
    clock = Clock.frozen_now()
    a = build_quality_pipeline(generate_pages(300, seed=1,
                                              parallelism=2),
                               clock=clock).to_pandas()
    b = build_quality_pipeline(generate_pages(300, seed=1,
                                              parallelism=8),
                               clock=clock).to_pandas()
    a = a.sort_values("url").reset_index(drop=True)
    b = b.sort_values("url").reset_index(drop=True)
    assert a["scrubbed_text"].tolist() == b["scrubbed_text"].tolist()
    assert a["passed"].tolist() == b["passed"].tolist()
    assert a["n_errors"].tolist() == b["n_errors"].tolist()


def test_run_quality_filter_resume(tmp_path):
    src = tmp_path / "pages"
    out = tmp_path / "out"
    src.mkdir()
    df = generate_pages(200, seed=9).to_pandas()
    # two input fragments -> two partitions
    import pyarrow as pa
    import pyarrow.parquet as pq
    pq.write_table(pa.Table.from_pandas(df.iloc[:100]),
                   src / "frag0.parquet")
    pq.write_table(pa.Table.from_pandas(df.iloc[100:]),
                   src / "frag1.parquet")

    metrics = run_quality_filter(str(src), str(out),
                                 clock=Clock.frozen_now())
    assert metrics["n_parts"] == 2
    assert metrics["n_rows"] == 200
    assert 0 < metrics["n_kept"] < 200
    assert metrics["rule_hits"]

    # manifests exist and record fragments
    manifests = lineage.read_manifests(str(out))
    assert len(manifests) == 2
    assert manifests[0]["input_fragments"] == [str(src / "frag0.parquet")]

    # resume: delete one manifest -> only that partition reruns
    os.remove(lineage.manifest_path(str(out), 1))
    metrics2 = run_quality_filter(str(src), str(out),
                                  clock=Clock.frozen_now())
    assert metrics2["n_rows"] == 200
    assert metrics2["n_parts"] == 2
    # partition 0 untouched (manifest timestamp preserved)
    assert lineage.read_manifests(str(out))[0]["completed_at"] == \
        manifests[0]["completed_at"]


def test_host_metrics_salted_preagg():
    from nacc_form_validator_ray.pipelines.quality_filter import \
        host_metrics
    ds = generate_pages(400, seed=3)
    ds = build_quality_pipeline(ds, clock=Clock.frozen_now())
    hm = host_metrics(ds).to_pandas()
    assert {"host", "n_docs", "n_kept"} <= set(hm.columns)
    assert hm["n_docs"].sum() == 400
    assert (hm["n_kept"] <= hm["n_docs"]).all()
    # Zipf skew: the hottest host dominates
    assert hm["n_docs"].max() > hm["n_docs"].median() * 5


def test_pipeline_with_perplexity_stage():
    from nacc_form_validator_ray.stages.perplexity import train_ngram_model
    ds = generate_pages(200, seed=5)
    model = train_ngram_model(ds.map_batches(
        lambda b: b[["text"]], batch_format="pandas"))
    out = build_quality_pipeline(generate_pages(200, seed=5),
                                 clock=Clock.frozen_now(),
                                 ppl_model=model).to_pandas()
    assert "log_ppl" in out.columns
    assert (out["log_ppl"] > 0).all()


def test_quality_check_record_api_with_datastore():
    from nacc_form_validator_ray import InMemoryDatastore, QualityCheck
    ds = InMemoryDatastore(
        "pid", "visit",
        records={"P1": [{"visit": 1, "score": 0}]})
    schema = {
        "pid": {"type": "string"},
        "visit": {"type": "integer"},
        "score": {"type": "integer",
                  "temporalrules": [{
                      "previous": {"score": {"allowed": [0]}},
                      "current": {"score": {"forbidden": [9]}}}]},
    }
    qc = QualityCheck("pid", schema, datastore=ds)
    passed, sysf, errors, entries = qc.validate_record(
        {"pid": "P1", "visit": "2", "score": "9"})
    assert not passed and not sysf
    assert entries[0].code == 0x2000
    passed, _, _, _ = qc.validate_record(
        {"pid": "P1", "visit": "2", "score": "5"})
    assert passed


def test_pretrain_pipeline_end_to_end(tmp_path):
    from nacc_form_validator_ray.pipelines.pretrain import (
        build_pretrain_pipeline, run_pretrain)
    ds = generate_pages(600, seed=21, dup_fraction=0.25)
    out = build_pretrain_pipeline(ds, clock=Clock.frozen_now()).to_pandas()
    # quality filter dropped some, dedup dropped more
    assert 0 < len(out) < 600
    assert out["doc_id"].is_unique
    # no exact duplicate texts survive
    norm = out["text"].str.replace(r"\s+", " ", regex=True) \
        .str.strip().str.lower()
    assert norm.is_unique
    # near-duplicates (same text + " extra") are gone too
    texts = set(norm)
    n_near = sum(1 for t in texts if t + " extra" in texts)
    assert n_near == 0

    # file-based runner
    src = tmp_path / "pages"
    generate_pages(300, seed=22).write_parquet(str(src))
    metrics = run_pretrain(str(src), str(tmp_path / "clean"),
                           clock=Clock.frozen_now())
    assert metrics["n_input"] == 300
    assert 0 < metrics["n_output"] < 300


def test_anti_join():
    from nacc_form_validator_ray.stages.joins import anti_join
    left = pd.DataFrame({"k": [1, 2, 3, 4, 5], "v": list("abcde")})
    keys = pd.DataFrame({"k": [2, 4, 9]})
    out = anti_join(rd.from_pandas(left).repartition(2),
                    rd.from_pandas(keys), on="k").to_pandas()
    assert sorted(out["k"]) == [1, 3, 5]
    assert set(out.columns) == {"k", "v"}


def test_run_quality_filter_files_per_partition(tmp_path):
    src = tmp_path / "pages"
    src.mkdir()
    df = generate_pages(300, seed=31).to_pandas()
    import pyarrow as pa
    import pyarrow.parquet as pq
    for i in range(3):
        pq.write_table(pa.Table.from_pandas(df.iloc[i * 100:(i + 1) * 100]),
                       src / f"frag{i}.parquet")
    metrics = run_quality_filter(str(src), str(tmp_path / "out"),
                                 files_per_partition=2,
                                 clock=Clock.frozen_now())
    assert metrics["n_parts"] == 2   # ceil(3 files / 2 per part)
    assert metrics["n_rows"] == 300


def test_pretrain_stage_checkpoints_resume(tmp_path):
    import os
    from nacc_form_validator_ray.pipelines.pretrain import run_pretrain
    src = tmp_path / "pages"
    generate_pages(200, seed=33).write_parquet(str(src))
    out = tmp_path / "out"
    m1 = run_pretrain(str(src), str(out), clock=Clock.frozen_now())
    clean_marker = out / "01_clean" / "_DONE"
    banned_marker = out / "02_banned" / "_DONE"
    assert clean_marker.exists() and banned_marker.exists()
    t_clean = os.path.getmtime(clean_marker)
    # rerun: stage checkpoints are reused, results identical
    m2 = run_pretrain(str(src), str(out), clock=Clock.frozen_now())
    assert os.path.getmtime(clean_marker) == t_clean
    assert m2["n_output"] == m1["n_output"]


def test_rule_hit_metrics():
    from nacc_form_validator_ray.pipelines.quality_filter import \
        rule_hit_metrics
    ds = build_quality_pipeline(generate_pages(400, seed=41),
                                clock=Clock.frozen_now())
    hits = rule_hit_metrics(ds).to_pandas()
    assert {"field", "code", "n_hits"} == set(hits.columns)
    assert hits["n_hits"].sum() > 0
    # totals agree with a driver-side recount
    df = build_quality_pipeline(generate_pages(400, seed=41),
                                clock=Clock.frozen_now()).to_pandas()
    expected = sum(len(e) for e in df["errors"])
    assert hits["n_hits"].sum() == expected


def test_quality_check_error_tree_shape():
    """validate_record's 4th element mirrors cerberus's
    DocumentErrorTree (tree[field].errors) while staying iterable as
    the flat coded vector."""
    from nacc_form_validator_ray import QualityCheck
    schema = {
        "pid": {"type": "string"},
        "score": {"type": "integer", "min": 0, "max": 10},
        "grade": {"type": "string", "allowed": ["A", "B"]},
    }
    qc = QualityCheck("pid", schema, strict=False)
    passed, sysf, errors, tree = qc.validate_record(
        {"pid": "P1", "score": "99", "grade": "Z"})
    assert not passed and not sysf
    assert set(tree.keys()) == {"score", "grade"}
    assert tree["score"].errors[0].code == 0x43
    assert tree["grade"].errors[0].code == 0x44
    assert tree["pid"] is None
    assert len(tree) == 2 and {e.field for e in tree} == {"score",
                                                          "grade"}
    assert "score" in errors and errors["score"]


def test_run_quality_filter_jsonl_input(tmp_path):
    """JSONL page dumps (pre-extracted text, no html column) run through
    the same resumable partitioned path: extraction auto-skips, rules +
    scrub apply, per-file partitions resume on manifests."""
    import json as _json

    from nacc_form_validator_ray.pipelines.quality_filter import \
        run_quality_filter

    good = ("the quick brown fox jumps over the lazy dog and then "
            "walks through the quiet forest looking for food water "
            "shelter and friends while the sun sets slowly over the "
            "green hills beyond the river where many small animals "
            "gather every evening to drink before night falls and "
            "the owls begin their patient watch from the old trees "
            "near the stone bridge that farmers built long ago")
    src = tmp_path / "in"
    src.mkdir()
    for i in range(2):
        with open(src / f"pages-{i}.jsonl", "w") as f:
            f.write(_json.dumps(
                {"url": f"http://a.example/{i}", "text": good}) + "\n")
            f.write(_json.dumps(
                {"url": f"http://b.example/{i}",
                 "text": "too short"}) + "\n")
    out = tmp_path / "out"
    m = run_quality_filter(str(src), str(out))
    assert m["n_parts"] == 2
    assert m["n_rows"] == 4
    assert m["n_kept"] == 2  # one good + one too-short page per file

    # resume: drop one manifest -> only that partition reruns
    os.remove(lineage.manifest_path(str(out), 1))
    first_kept = lineage.read_manifests(str(out))[0]["completed_at"]
    m2 = run_quality_filter(str(src), str(out))
    assert m2["n_rows"] == 4
    assert lineage.read_manifests(str(out))[0]["completed_at"] \
        == first_kept


def _write_fragments(src, df, n_files):
    """Split ``df`` into ``n_files`` parquet fragments under ``src``."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    src.mkdir()
    step = -(-len(df) // n_files)
    for i in range(n_files):
        pq.write_table(
            pa.Table.from_pandas(df.iloc[i * step:(i + 1) * step],
                                 preserve_index=False),
            src / f"frag{i}.parquet")


def _recount(pdir):
    """n_rows, n_kept and rule_hits of a written partition, recounted
    with pyarrow from its parquet files."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    files = sorted(glob.glob(os.path.join(pdir, "*.parquet")))
    t = pa.concat_tables(pq.read_table(f, columns=["passed", "errors"])
                         for f in files)
    flat = pc.list_flatten(t["errors"]).to_pylist()
    hits = {}
    for e in flat:
        key = f"{e['field']}:{e['code']:#x}"
        hits[key] = hits.get(key, 0) + 1
    return t.num_rows, pc.sum(t["passed"]).as_py() or 0, hits


@pytest.mark.parametrize("files_per_partition", [1, 2])
def test_run_quality_filter_manifests_match_output(tmp_path,
                                                   files_per_partition):
    """Each manifest's counts equal a recount of its partition's files."""
    src = tmp_path / "pages"
    _write_fragments(src, generate_pages(300, seed=17).to_pandas(), 3)
    out = str(tmp_path / "out")
    run_quality_filter(str(src), out,
                       files_per_partition=files_per_partition,
                       clock=Clock.frozen_now())
    manifests = lineage.read_manifests(out)
    assert len(manifests) == -(-3 // files_per_partition)
    assert sum(m["n_rows"] for m in manifests) == 300
    for m in manifests:
        n_rows, n_kept, hits = _recount(
            lineage.partition_dir(out, m["part"]))
        assert (m["n_rows"], m["n_kept"], m["rule_hits"]) == \
            (n_rows, n_kept, hits)


def test_run_quality_filter_manifests_pinned(tmp_path):
    """The resume test's 200-page fixture gives these manifests (counts
    recorded from the read-back implementation the write-pass counts
    replaced)."""
    src = tmp_path / "pages"
    _write_fragments(src, generate_pages(200, seed=9).to_pandas(), 2)
    out = str(tmp_path / "out")
    run_quality_filter(str(src), out, clock=Clock.frozen_now())
    got = [{k: v for k, v in m.items() if k != "completed_at"}
           for m in lineage.read_manifests(out)]
    assert got == [
        {"part": 0, "input_fragments": [str(src / "frag0.parquet")],
         "n_rows": 100, "n_kept": 72,
         "rule_hits": {"lang_pred:0x44": 1, "n_words:0x42": 12,
                       "n_words:0x43": 6, "rep_3gram_ratio:0x43": 2,
                       "stop_ratio:0x42": 1, "symbol_ratio:0x43": 8}},
        {"part": 1, "input_fragments": [str(src / "frag1.parquet")],
         "n_rows": 100, "n_kept": 68,
         "rule_hits": {"lang_pred:0x44": 2, "n_words:0x42": 7,
                       "n_words:0x43": 6, "rep_3gram_ratio:0x43": 8,
                       "stop_ratio:0x42": 2, "symbol_ratio:0x43": 11}},
    ]


def test_run_quality_filter_projection_without_result_columns(tmp_path):
    """Output columns that leave out ``passed``/``errors`` still give
    full manifest counts: they are taken before the projection."""
    import pyarrow.parquet as pq
    src = tmp_path / "pages"
    _write_fragments(src, generate_pages(200, seed=9).to_pandas(), 2)
    full = str(tmp_path / "full")
    slim = str(tmp_path / "slim")
    run_quality_filter(str(src), full, clock=Clock.frozen_now())
    m = run_quality_filter(str(src), slim, clock=Clock.frozen_now(),
                           output_columns=["url", "scrubbed_text"])
    assert m["n_rows"] == 200 and m["n_kept"] == 140
    strip = [{k: v for k, v in x.items() if k != "completed_at"}
             for x in lineage.read_manifests(slim)]
    assert strip == [{k: v for k, v in x.items() if k != "completed_at"}
                     for x in lineage.read_manifests(full)]
    t = pq.read_table(lineage.partition_dir(slim, 0))
    assert t.column_names == ["url", "scrubbed_text"]
    assert t.num_rows == 100


def test_run_quality_filter_zero_row_input(tmp_path):
    """A zero-row input file completes with an ``n_rows == 0``
    manifest; the other partition is unaffected."""
    src = tmp_path / "pages"
    df = generate_pages(100, seed=9).to_pandas()
    _write_fragments(src, df, 1)
    import pyarrow as pa
    import pyarrow.parquet as pq
    pq.write_table(pa.Table.from_pandas(df.iloc[:0], preserve_index=False),
                   src / "frag1.parquet")
    out = str(tmp_path / "out")
    m = run_quality_filter(str(src), out, clock=Clock.frozen_now())
    assert m["n_parts"] == 2 and m["n_rows"] == 100
    empty = lineage.read_manifests(out)[1]
    assert (empty["n_rows"], empty["n_kept"], empty["rule_hits"]) == \
        (0, 0, {})


def test_run_quality_filter_single_pass(tmp_path, monkeypatch):
    """Each partition is one execution: no schema probe, and nothing
    under the output directory is ever read back."""
    import ray.data

    src = tmp_path / "pages"
    _write_fragments(src, generate_pages(200, seed=9).to_pandas(), 2)
    out = tmp_path / "out"

    def no_schema(self, *a, **k):
        raise AssertionError("Dataset.schema() called")

    read = ray.data.read_parquet
    paths = []

    def recording_read(p, *a, **k):
        paths.extend([p] if isinstance(p, str) else list(p))
        return read(p, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "schema", no_schema)
    monkeypatch.setattr(ray.data, "read_parquet", recording_read)
    m = run_quality_filter(str(src), str(out), clock=Clock.frozen_now())
    assert m["n_rows"] == 200 and m["n_parts"] == 2
    assert paths
    assert not [p for p in paths
                if os.path.abspath(p).startswith(str(out))]


_GOOD_TEXT = ("the quick brown fox jumps over the lazy dog and then "
              "walks through the quiet forest looking for food water "
              "shelter and friends while the sun sets slowly over the "
              "green hills beyond the river where many small animals "
              "gather every evening to drink before night falls and "
              "the owls begin their patient watch from the old trees "
              "near the stone bridge that farmers built long ago")


def _jsonl_lines(i):
    return [json.dumps({"url": f"http://a.example/{i}",
                        "text": _GOOD_TEXT}),
            json.dumps({"url": f"http://b.example/{i}",
                        "text": "too short"})]


def test_run_quality_filter_jsonl_blank_first_line(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "pages-0.jsonl").write_text(
        "\n  \n" + "\n".join(_jsonl_lines(0)) + "\n")
    m = run_quality_filter(str(src), str(tmp_path / "out"))
    assert (m["n_rows"], m["n_kept"]) == (2, 1)


def test_run_quality_filter_jsonl_gzip_kill_and_resume(tmp_path,
                                                       monkeypatch):
    """Gzipped dumps (.jsonl.gz / .ndjson.gz) run and resume: a run
    killed after writing partition 1's data but before its manifest
    reruns only that partition."""
    import gzip

    src = tmp_path / "in"
    src.mkdir()
    for i, suffix in enumerate([".jsonl.gz", ".ndjson.gz"]):
        with gzip.open(src / f"pages-{i}{suffix}", "wt") as f:
            f.write("\n".join(_jsonl_lines(i)) + "\n")
    out = str(tmp_path / "out")

    write_manifest = lineage.write_manifest

    def killed_at_part_1(out_dir, part, *a, **k):
        if part == 1:
            raise KeyboardInterrupt("killed")
        return write_manifest(out_dir, part, *a, **k)

    monkeypatch.setattr(lineage, "write_manifest", killed_at_part_1)
    with pytest.raises(KeyboardInterrupt):
        run_quality_filter(str(src), out)
    assert lineage.completed_parts(out) == [0]
    assert os.path.isdir(lineage.partition_dir(out, 1))
    first = lineage.read_manifests(out)[0]["completed_at"]

    monkeypatch.setattr(lineage, "write_manifest", write_manifest)
    m = run_quality_filter(str(src), out)
    assert (m["n_parts"], m["n_rows"], m["n_kept"]) == (2, 4, 2)
    assert lineage.read_manifests(out)[0]["completed_at"] == first
    for part in (0, 1):
        assert _recount(lineage.partition_dir(out, part))[:2] == (2, 1)


def test_run_quality_filter_jsonl_without_text_columns(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "pages-0.jsonl").write_text(
        json.dumps({"url": "http://a.example/0", "body": "x"}) + "\n")
    with pytest.raises(ValueError, match="pages-0.jsonl"):
        run_quality_filter(str(src), str(tmp_path / "out"))
