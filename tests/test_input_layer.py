"""The input layer of the page runs: resume keyed on the input files
(replaced, deleted and rebuilt partitions; registry checkpoints), page
runs over text-only and JSONL dumps, and a structural guard that input
listing, input identity and resume records each live in one module."""

import ast
import os
import pathlib
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pandas as pd

import ray.data as rd

from nacc_form_validator_ray.pipelines.pretrain import run_pretrain
from nacc_form_validator_ray.pipelines.quality_filter import \
    run_quality_filter
from nacc_form_validator_ray.pipelines.webgen import generate_pages
from nacc_form_validator_ray.state import lineage
from nacc_form_validator_ray.utils import Clock

CLOCK = Clock(datetime(2026, 1, 1))
PACKAGE = pathlib.Path(__file__).resolve().parents[1] / \
    "nacc_form_validator_ray"


def _write(path, n, seed):
    pq.write_table(pa.Table.from_pandas(
        generate_pages(n, seed=seed).to_pandas(), preserve_index=False),
        path)


def _two_fragments(src):
    """80 pages (seed 1) as two 40-page fragments."""
    src.mkdir()
    df = generate_pages(80, seed=1).to_pandas()
    for i in range(2):
        pq.write_table(pa.Table.from_pandas(df.iloc[i * 40:(i + 1) * 40],
                                            preserve_index=False),
                       src / f"frag{i}.parquet")


def _rows_on_disk(out, part):
    return pq.read_table(lineage.partition_dir(out, part)).num_rows


def _counts(m):
    return m["n_parts"], m["n_rows"], m["n_kept"], m["rule_hits"]


def test_quality_filter_replaced_fragment_rebuilds(tmp_path):
    src = tmp_path / "pages"
    src.mkdir()
    out = str(tmp_path / "out")
    _write(src / "frag0.parquet", 50, seed=1)
    assert run_quality_filter(str(src), out, clock=CLOCK)["n_rows"] == 50
    _write(src / "frag0.parquet", 80, seed=2)
    m = run_quality_filter(str(src), out, clock=CLOCK)
    fresh = run_quality_filter(str(src), str(tmp_path / "fresh"),
                               clock=CLOCK)
    assert _counts(m) == _counts(fresh)
    assert m["n_rows"] == _rows_on_disk(out, 0) == 80


def test_quality_filter_deleted_fragment_drops_its_partition(tmp_path):
    src = tmp_path / "pages"
    out = str(tmp_path / "out")
    _two_fragments(src)
    assert run_quality_filter(str(src), out, clock=CLOCK)["n_rows"] == 80
    os.remove(src / "frag1.parquet")
    m = run_quality_filter(str(src), out, clock=CLOCK)
    assert (m["n_parts"], m["n_rows"]) == (1, 40)
    assert not os.path.exists(lineage.partition_dir(out, 1))
    assert not os.path.exists(lineage.manifest_path(out, 1))


def test_quality_filter_no_resume_twice_rebuilds(tmp_path):
    src = tmp_path / "pages"
    out = str(tmp_path / "out")
    _two_fragments(src)
    run_quality_filter(str(src), out, resume=False, clock=CLOCK)
    m = run_quality_filter(str(src), out, resume=False, clock=CLOCK)
    assert m["n_rows"] == 80
    for part, manifest in enumerate(lineage.read_manifests(out)):
        assert manifest["n_rows"] == _rows_on_disk(out, part) == 40


def test_semdedup_corpus_checkpoint_follows_changed_tables(tmp_path):
    """A table rewritten under the same ``sf_dir`` path rebuilds the
    stage checkpoint instead of reusing it."""
    from nacc_form_validator_ray.pipelines.queries import \
        q_semdedup_corpus
    sf = tmp_path / "sf"
    sf.mkdir()
    n = 64
    rng = np.random.default_rng(3)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": [f"doc {i} words here" for i in range(n)],
        "source": [("web", "books")[i % 2] for i in range(n)]}),
        sf / "documents.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(rng.normal(size=(n, 8)).astype(
            np.float32)), pa.list_(pa.float32()))}),
        sf / "embeddings.parquet")
    ck = str(tmp_path / "ck")
    q_semdedup_corpus(str(sf), ckpt_dir=ck)
    emb = pq.read_table(sf / "embeddings.parquet")
    pq.write_table(emb.slice(0, emb.num_rows // 2),
                   sf / "embeddings.parquet")

    def frame(df):
        return df.to_pandas().sort_values("source").reset_index(drop=True)

    resumed = frame(q_semdedup_corpus(str(sf), ckpt_dir=ck))
    fresh = frame(q_semdedup_corpus(str(sf)))
    pd.testing.assert_frame_equal(resumed, fresh)
    assert int(fresh[["docs_kept", "docs_dropped"]].to_numpy().sum()) \
        == emb.num_rows // 2


def _doc_ids(out):
    return set(rd.read_parquet(os.path.join(out, "03_docs"),
                               columns=["doc_id"]).to_pandas()["doc_id"])


def test_pretrain_text_only_and_jsonl_dumps(tmp_path):
    """The same pages as html parquet, as text-only parquet, as a JSONL
    text dump, as a JSONL html dump (html as a string) and as JSONL text
    dumps whose ``warc_ts`` are fractional-second ISO strings, zoned
    ISO strings or pandas' default epoch milliseconds give the same
    documents; the quality filter gives the same counts and the same
    ``warc_ts`` instants on the JSONL dumps, typed as the page schema's
    ``timestamp[us]``."""
    df = generate_pages(120, seed=33).to_pandas()
    html = tmp_path / "html"
    html.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   html / "pages.parquet")
    text = tmp_path / "text"
    text.mkdir()
    pq.write_table(pa.Table.from_pandas(df.drop(columns=["html"]),
                                        preserve_index=False),
                   text / "pages.parquet")
    jsonl = tmp_path / "jsonl"
    jsonl.mkdir()
    # whole-second timestamps, as Arrow's JSON reader infers them
    df.drop(columns=["html"]).assign(warc_ts=df["warc_ts"].astype(str)) \
        .to_json(jsonl / "pages.jsonl", orient="records", lines=True)
    jsonl_html = tmp_path / "jsonl_html"
    jsonl_html.mkdir()
    df.drop(columns=["text"]).assign(
        html=df["html"].map(bytes.decode),
        warc_ts=df["warc_ts"].astype(str)) \
        .to_json(jsonl_html / "pages.jsonl", orient="records", lines=True)
    jsonl_ms = tmp_path / "jsonl_ms"
    jsonl_ms.mkdir()
    # pandas' ISO dates carry milliseconds: 2025-01-01T00:00:00.000
    df.drop(columns=["html"]).to_json(jsonl_ms / "pages.jsonl",
                                      orient="records", lines=True,
                                      date_format="iso")
    jsonl_zoned = tmp_path / "jsonl_zoned"
    jsonl_zoned.mkdir()
    # WARC/1.1 dates may carry a fraction and a zone: ...00.000000Z
    df.drop(columns=["html"]).assign(
        warc_ts=df["warc_ts"].dt.strftime("%Y-%m-%dT%H:%M:%S.%fZ")) \
        .to_json(jsonl_zoned / "pages.jsonl", orient="records", lines=True)
    jsonl_epoch = tmp_path / "jsonl_epoch"
    jsonl_epoch.mkdir()
    # pandas' default date_format="epoch" writes int64 milliseconds
    df.drop(columns=["html"]).to_json(jsonl_epoch / "pages.jsonl",
                                      orient="records", lines=True)
    dumps = (jsonl_html, jsonl_ms, jsonl_zoned, jsonl_epoch)
    want = run_pretrain(str(html), str(tmp_path / "o_html"), clock=CLOCK)
    assert want["n_output"] > 0
    for src in (text, jsonl) + dumps:
        out = str(tmp_path / f"o_{src.name}")
        got = run_pretrain(str(src), out, clock=CLOCK)
        assert (got["n_input"], got["n_output"]) == \
            (want["n_input"], want["n_output"])
        assert _doc_ids(out) == _doc_ids(str(tmp_path / "o_html"))
    counts = ("n_rows", "n_kept", "rule_hits")
    want = run_quality_filter(str(html), str(tmp_path / "q_html"),
                              clock=CLOCK)
    want_ts = _url_ts(tmp_path / "q_html")
    for src in dumps:
        out = tmp_path / f"q_{src.name}"
        got = run_quality_filter(str(src), str(out), clock=CLOCK)
        assert {k: got[k] for k in counts} == {k: want[k] for k in counts}
        part = next(out.rglob("*.parquet"))
        assert pq.read_schema(part).field("warc_ts").type == \
            pa.timestamp("us")
        assert _url_ts(out) == want_ts, src.name


def _url_ts(out):
    return sorted(
        (u, t) for p in out.rglob("*.parquet")
        for u, t in zip(*pq.read_table(p, columns=["url", "warc_ts"])
                        .to_pydict().values()))


def _code(path):
    """(string constants outside docstrings, called names, defined
    names) of one module."""
    tree = ast.parse(path.read_text())
    docs = {id(n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
    strings = [n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)
               and id(n) not in docs]
    calls = {getattr(n.func, "attr", getattr(n.func, "id", None))
             for n in ast.walk(tree) if isinstance(n, ast.Call)}
    names = {n.name for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.ClassDef))} | \
        {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return strings, calls, names


def test_one_input_layer():
    """Input listing and JSON reading live only in sources/readers.py;
    ``_DONE`` markers and manifests are written only by state/lineage.py;
    the per-module copies are gone."""
    readers = PACKAGE / "sources" / "readers.py"
    lineage_py = PACKAGE / "state" / "lineage.py"
    for path in sorted(PACKAGE.rglob("*.py")):
        strings, calls, names = _code(path)
        where = path.relative_to(PACKAGE)
        if path != readers:
            assert not [s for s in strings
                        if ".jsonl" in s or ".ndjson" in s], where
            assert "read_json" not in calls, where
        if path != lineage_py:
            assert not {"_DONE", "_lineage"} & set(strings), where
        assert not {"_input_key", "_jsonl_keys"} & names, where
