"""The text stages' one batch adapter: every per-document text stage
returns the same columns, types and values as before on both an Arrow
and a pandas batch, ``LangId`` standing alone agrees with the fused
``TextStats(langid=True)`` counter, and a structural guard that the
container switch, the stopword counter and the md5 loop each exist once.

The pins (``PINS``) were captured from the stages' previous per-stage
Arrow and pandas branches on :func:`_fixture`. ``LangId`` and
``Fingerprint`` had no Arrow branch then; their Arrow pin is their
pandas output as an Arrow table (``pa.Table.from_pandas``).
"""

import ast
import hashlib
import json
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from nacc_form_validator_ray.pipelines.quality_filter import ExtractText
from nacc_form_validator_ray.pipelines.webgen import (HTML_PREFIX,
                                                      HTML_SUFFIX,
                                                      extract_text,
                                                      generate_pages)
from nacc_form_validator_ray.stages import importance, perplexity
from nacc_form_validator_ray.stages.scrub import Scrubber
from nacc_form_validator_ray.stages.text_signals import (
    Fingerprint, LangId, RepetitionSignals, TextStats)

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / \
    "nacc_form_validator_ray"

#: null, empty, short (< 5 normalized chars), non-ASCII, and U+00A0 /
#: U+3000 whitespace — which Python's ``\s`` counts and RE2's does not
EDGE_TEXTS = [
    None,
    "",
    "ab",
    "Straße café naïve 日本語 the and of die und la de KELVIN K",
    "the\xa0cat and　the dog of\xa0the house   was in",
    "mail john.doe@example.com or 555-123-4567, badword the end",
]


def _fixture() -> pa.Table:
    """24 generated pages plus the edge rows: ``doc_id``, ``text`` and
    the ``html`` envelope of each text (null for the null text, plus
    one html shorter than the envelope)."""
    pages = generate_pages(24, seed=5).to_pandas().sort_values("url")
    texts = pages["text"].tolist() + EDGE_TEXTS
    html = [None if t is None else HTML_PREFIX + t.encode() + HTML_SUFFIX
            for t in texts]
    html[len(pages) + 2] = b"<p>ab"
    return pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "html": pa.array(html, pa.binary()),
    })


def _models(fix: pa.Table):
    df = fix.select(["doc_id", "text"]).to_pandas()
    ds = rd.from_pandas(df.assign(source=df["doc_id"] % 2))
    return {
        "ngram": perplexity.train_ngram_model(ds),
        "bigram": perplexity.train_bigram_model(ds),
        "kn": perplexity.train_kn_model(ds),
        "backoff": perplexity.train_backoff_model(ds),
        "importance": importance.train_importance_model(
            ds, select_value=0),
    }


def _stages(models, bank_path):
    """(name, input columns, callable) for every pinned stage."""
    text = ["doc_id", "text"]
    return [
        ("extract", ["doc_id", "html"], ExtractText()),
        ("stats", text, TextStats()),
        ("stats_langid", text, TextStats(langid=True)),
        ("stats_ppl", text,
         TextStats(langid=True, ppl_model=models["ngram"])),
        ("repetition", text, RepetitionSignals()),
        ("langid", text, LangId()),
        ("langid_after_stats", text,
         lambda b: LangId()(TextStats()(b))),
        ("langid_bank", text, LangId(bank_path=bank_path)),
        ("fingerprint", text, Fingerprint()),
        ("scrub", text, Scrubber()),
        ("ppl", text, perplexity.PerplexityScorer(model=models["ngram"])),
        ("bigram", text, perplexity.BigramScorer(model=models["bigram"])),
        ("kn", text, perplexity.KNScorer(model=models["kn"])),
        ("backoff", text,
         perplexity.BackoffScorer(model=models["backoff"])),
        ("importance", text,
         importance.ImportanceScorer(model=models["importance"])),
    ]


def _values_digest(df: pd.DataFrame) -> str:
    """sha256 of every column's values in order (floats by repr, so
    bit-exact)."""
    blob = json.dumps({c: df[c].tolist() for c in df.columns},
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _bank(tmp_path) -> str:
    path = tmp_path / "banks.txt"
    path.write_text("__label__xx the cat house\n__label__yy und die la\n"
                    "__label__xx garden\n")
    return str(path)


#: stage -> (values digest, "column:arrow_type ..."); a pandas batch
#: carries each Arrow type as the dtype ``PANDAS_DTYPE`` maps it to
PINS = {
    "extract": ("4eeb3ed0d96298dd",
        "doc_id:int64 text:string"),
    "stats": ("0f62cdfea8768b84",
        "doc_id:int64 text:string n_chars_sig:int64 n_words:int64 "
        "mean_word_len:double alpha_ratio:double digit_ratio:double "
        "symbol_ratio:double bpe_token_count:int64 "
        "rep_3gram_total:int64 rep_3gram_distinct:int64 "
        "rep_3gram_ratio:double"),
    "stats_langid": ("ea410d2b5e6473c1",
        "doc_id:int64 text:string n_chars_sig:int64 n_words:int64 "
        "mean_word_len:double alpha_ratio:double digit_ratio:double "
        "symbol_ratio:double bpe_token_count:int64 "
        "rep_3gram_total:int64 rep_3gram_distinct:int64 "
        "rep_3gram_ratio:double sw_en:int64 sw_es:int64 sw_de:int64 "
        "sw_fr:int64 sw_zh:int64 lang_pred:string stop_ratio:double"),
    "stats_ppl": ("09b3a214a5274bb7",
        "doc_id:int64 text:string n_chars_sig:int64 n_words:int64 "
        "mean_word_len:double alpha_ratio:double digit_ratio:double "
        "symbol_ratio:double bpe_token_count:int64 "
        "rep_3gram_total:int64 rep_3gram_distinct:int64 "
        "rep_3gram_ratio:double sw_en:int64 sw_es:int64 sw_de:int64 "
        "sw_fr:int64 sw_zh:int64 lang_pred:string stop_ratio:double "
        "log_ppl:double ppl_tokens:int64 oov_count:int64"),
    "repetition": ("d1415df76f8858e7",
        "doc_id:int64 text:string n_lines:int64 dup_line_frac:double "
        "dup_line_char_frac:double top_2gram_char_frac:double "
        "repetitive:bool"),
    "langid": ("c6a96365ff51fc58",
        "doc_id:int64 text:string sw_en:int64 sw_es:int64 sw_de:int64 "
        "sw_fr:int64 sw_zh:int64 lang_pred:string stop_ratio:double"),
    "langid_after_stats": ("ea410d2b5e6473c1",
        "doc_id:int64 text:string n_chars_sig:int64 n_words:int64 "
        "mean_word_len:double alpha_ratio:double digit_ratio:double "
        "symbol_ratio:double bpe_token_count:int64 "
        "rep_3gram_total:int64 rep_3gram_distinct:int64 "
        "rep_3gram_ratio:double sw_en:int64 sw_es:int64 sw_de:int64 "
        "sw_fr:int64 sw_zh:int64 lang_pred:string stop_ratio:double"),
    "langid_bank": ("6d40eb552309fefb",
        "doc_id:int64 text:string sw_xx:int64 sw_yy:int64 "
        "lang_pred:string stop_ratio:double"),
    "fingerprint": ("0f065755a0740382",
        "doc_id:int64 text:string fingerprint_md5:string "
        "fingerprint_winnow:uint64"),
    "scrub": ("06322ed252323888",
        "doc_id:int64 text:string n_email:int64 n_ssn:int64 "
        "n_phone:int64 n_ipv4:int64 n_toxic:int64 scrubbed_text:string "
        "n_redactions:int64"),
    "ppl": ("b8696d2910af0c74",
        "doc_id:int64 text:string log_ppl:double ppl_tokens:int64 "
        "oov_count:int64"),
    "bigram": ("f149d3827fc4a3fa",
        "doc_id:int64 text:string log_ppl:double ppl_tokens:int64 "
        "unseen_bigrams:int64"),
    "kn": ("b0e93b06115b49c3",
        "doc_id:int64 text:string log_ppl:double ppl_tokens:int64 "
        "unseen_bigrams:int64"),
    "backoff": ("401e2dec970fe5a6",
        "doc_id:int64 text:string log_ppl:double ppl_tokens:int64 "
        "unseen_trigrams:int64"),
    "importance": ("c0f5aa0f81778054",
        "doc_id:int64 text:string dsir_weight:double dsir_tokens:int64"),
}

PANDAS_DTYPE = {"string": "object", "double": "float64"}


@pytest.fixture(scope="module")
def fixture_and_models():
    fix = _fixture()
    return fix, _models(fix)


def test_stage_outputs_pinned(fixture_and_models, tmp_path):
    """Each stage returns its batch's container type with the pinned
    column names, order, types and values, on Arrow and on pandas."""
    fix, models = fixture_and_models
    for name, cols, stage in _stages(models, _bank(tmp_path)):
        digest, schema = PINS[name]
        names, types = zip(*(f.split(":") for f in schema.split()))
        table = fix.select(cols)
        out = stage(table)
        assert isinstance(out, pa.Table), name
        assert (out.column_names, [str(t) for t in out.schema.types],
                _values_digest(out.to_pandas())) == \
            (list(names), list(types), digest), name
        out = stage(table.to_pandas())
        assert isinstance(out, pd.DataFrame), name
        assert (list(out.columns), [str(t) for t in out.dtypes],
                _values_digest(out)) == \
            (list(names), [PANDAS_DTYPE.get(t, t) for t in types],
             digest), name


def test_langid_alone_matches_fused_langid(fixture_and_models):
    """``LangId`` after ``TextStats`` gives the fused pass's language
    columns; on its own it counts the same stopwords."""
    fix, _ = fixture_and_models
    table = fix.select(["doc_id", "text"])
    fused = TextStats(langid=True)(table)
    lang = ["sw_en", "sw_es", "sw_de", "sw_fr", "sw_zh", "lang_pred",
            "stop_ratio"]
    assert LangId()(TextStats()(table)).select(lang).equals(
        fused.select(lang))
    assert LangId()(table).select(lang[:-1]).equals(fused.select(lang[:-1]))


def test_extract_text_string_html_matches_reference(fixture_and_models):
    """JSON carries html as a string: the one extractor reads it as it
    reads binary html, and both equal ``webgen.extract_text``."""
    fix, _ = fixture_and_models
    html = fix["html"].to_pylist()
    want = ["" if h is None else extract_text(h) for h in html]
    as_str = fix.select(["doc_id"]).append_column(
        "html", pa.array([None if h is None else h.decode() for h in html],
                         pa.string()))
    for batch in (fix.select(["doc_id", "html"]), as_str,
                  as_str.to_pandas()):
        out = ExtractText()(batch)
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False)
        assert out.column_names == ["doc_id", "text"]
        assert out["text"].to_pylist() == want


def test_md5_outputs_are_views_of_one_digest():
    """``md5_hex``, ``md5_int64_pairs`` and ``md5_prefix60`` equal
    hashlib on ASCII, empty, null and non-ASCII rows."""
    from nacc_form_validator_ray.stages.dedup import (md5_hex,
                                                      md5_int64_pairs,
                                                      md5_prefix60)
    rows = ["abc", "", None, "Straße 日本語", "x" * 1000]
    digests = [hashlib.md5((r or "").encode()) for r in rows]
    arr = pa.chunked_array([pa.array(rows[:2]), pa.array(rows[2:])])
    assert list(md5_hex(arr)) == [d.hexdigest() for d in digests]
    assert md5_int64_pairs(arr).tobytes() == \
        b"".join(d.digest() for d in digests)
    assert list(md5_prefix60(arr)) == \
        [int(d.hexdigest()[:15], 16) for d in digests]


#: the text stages whose ``__call__`` may not tell containers apart
STAGES = {
    "stages/text_signals.py": ["TextStats", "RepetitionSignals", "LangId",
                               "Fingerprint"],
    "stages/perplexity.py": ["PerplexityScorer", "BigramScorer",
                             "KNScorer", "BackoffScorer"],
    "stages/importance.py": ["ImportanceScorer"],
    "stages/scrub.py": ["Scrubber"],
    "pipelines/quality_filter.py": ["ExtractText"],
}


def test_one_batch_adapter_one_counter_one_md5_loop():
    """No listed stage's ``__call__`` tells a ``pa.Table`` from a
    ``pd.DataFrame`` (``text_signals.batch_text`` / ``with_columns``
    do); the pandas token handoff is gone; ``hashlib.md5`` runs under
    ``stages/`` only in ``dedup.md5_digests``."""
    for rel, classes in STAGES.items():
        tree = ast.parse((PACKAGE / rel).read_text())
        calls = {c.name: ast.unparse(f) for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) and c.name in classes
                 for f in c.body
                 if isinstance(f, ast.FunctionDef) and f.name == "__call__"}
        assert sorted(calls) == sorted(classes), rel
        for name, src in calls.items():
            assert "isinstance(batch, pa.Table)" not in src, name
            assert "pd.DataFrame" not in src, name
    for path in sorted(PACKAGE.rglob("*.py")):
        src = path.read_text()
        assert "emit_tokens" not in src and "_flatten_tokens" not in src, \
            path
    md5 = {}
    for path in sorted((PACKAGE / "stages").rglob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef) and \
                    "hashlib.md5" in ast.unparse(f):
                md5.setdefault(path.name, []).append(f.name)
    assert md5 == {"dedup.py": ["md5_digests"]}
