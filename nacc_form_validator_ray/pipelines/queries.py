"""Named query registry: every operator exposed as (Ray pipeline, SQL oracle).

Each entry runs the Ray-Data-native implementation over the driver's
``sf_dir`` parquet tables and — where ANSI SQL can express the same
computation — carries a DuckDB oracle producing identical column names,
dtypes and values. Outputs prefer integer/string/boolean columns (or
passthrough/integral doubles) so value hashes are bit-stable; derived
cents use ``floor(x*100 + 0.5)`` on both sides.

This registry IS the coverage checklist for SURVEY.md §2 plus the
large-scale training-data operators (dedup, similarity, text analysis).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

import numpy as np
import pandas as pd

from nacc_form_validator_ray.stages.partition import \
    pa_grouped_agg as _pa_grouped_agg
from nacc_form_validator_ray.stages.scrub import PII_PATTERNS, Scrubber
from nacc_form_validator_ray.stages.text_signals import (BPE_TOKEN_RE,
                                                         LANG_ORDER,
                                                         STOPWORDS,
                                                         LangId, TextStats)


def _rd():
    import ray.data as rd
    return rd


def _merge_partials(partials_ds, keys, agg: Dict[str, str]) -> pd.DataFrame:
    """Driver-side merge of BOUNDED per-batch partials (the combiner
    pattern's final step). Safe only for LOW-cardinality keys: the pull
    is O(distinct keys × blocks) rows regardless of dataset size, and a
    Ray-native groupby/aggregate over a handful of rows costs seconds of
    all-to-all machinery that dwarfs the work."""
    df = partials_ds.to_pandas()
    if df.empty or any(k not in df.columns for k in keys):
        # an exchange whose every block is empty loses its schema
        # (repo-wide trap): pin the contract dtypes explicitly
        return pd.DataFrame({**{k: pd.Series([], dtype=object)
                                for k in keys},
                             **{c: pd.Series([], dtype=np.int64)
                                for c in agg}})
    return df.groupby(keys, as_index=False).agg(
        **{c: (c, how) for c, how in agg.items()})


def _docs(sf_dir: str, columns=None):
    return _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=columns)


# --------------------------------------------------------------------------
# text analysis over `documents`
# --------------------------------------------------------------------------

#: null-text contract (engine: TextStats fill_null -> ''): a null text
#: behaves exactly like an empty string — zero tokens, zero lengths —
#: never a NULL that silently drops the row from FILTER counts
_TOKS_CTE = """
WITH t AS (
  SELECT doc_id, coalesce(text, '') AS text,
         regexp_extract_all(lower(coalesce(text, '')), '[A-Za-z]+')
             AS toks
  FROM documents
), g AS (
  SELECT doc_id, text, toks,
         CASE WHEN len(toks) >= 3
              THEN list_transform(range(1, len(toks) - 1),
                   i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
              ELSE CAST([] AS VARCHAR[]) END AS ngrams
  FROM t
)
"""


def q_text_stats(sf_dir: str):
    # zero-copy Arrow path: tokens/codes stay in C buffers end-to-end
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(TextStats(), batch_format="pyarrow",
                        batch_size=4096)
    return ds.select_columns(["doc_id", "n_chars_sig", "n_words",
                              "bpe_token_count", "rep_3gram_total",
                              "rep_3gram_distinct"])


SQL_TEXT_STATS = _TOKS_CTE + f"""
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars_sig,
       CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_words,
       CAST(len(regexp_extract_all(text, '{BPE_TOKEN_RE}')) AS BIGINT)
           AS bpe_token_count,
       CAST(len(ngrams) AS BIGINT) AS rep_3gram_total,
       CAST(len(list_distinct(ngrams)) AS BIGINT) AS rep_3gram_distinct
FROM g
"""


def q_repetition_docs(sf_dir: str):
    """Gopher-style repetition signals (line dup fractions + top-bigram
    coverage) — the classic web-scale repetitive-boilerplate cut."""
    from nacc_form_validator_ray.stages.text_signals import \
        RepetitionSignals
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(RepetitionSignals(), batch_format="pyarrow",
                        batch_size=4096)
    return ds.select_columns(["doc_id", "n_lines", "dup_line_frac",
                              "dup_line_char_frac",
                              "top_2gram_char_frac", "repetitive"])


#: DuckDB twin of RepetitionSignals: identical line trim/split rule,
#: identical tokenizer contract as the text_stats twin, and the bigram
#: coverage folds from the joined bigram string (length(bg) - 1 ==
#: len(w0) + len(w1)). Every fraction is one division of exact ints.
SQL_REPETITION_DOCS = """
WITH lines AS (
  SELECT doc_id,
         trim(unnest(string_split(coalesce(text, ''), chr(10))),
              ' ' || chr(9) || chr(13)) AS line
  FROM documents
),
nz AS (SELECT doc_id, line, length(line) AS l FROM lines
       WHERE length(line) > 0),
lg AS (SELECT doc_id, line, max(l) AS l, count(*) AS c
       FROM nz GROUP BY doc_id, line),
lstat AS (
  SELECT doc_id, sum(c) AS n_lines, count(*) AS distinct_lines,
         sum((c - 1) * l) AS extra_chars, sum(c * l) AS tot_chars
  FROM lg GROUP BY doc_id
),
toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z]+') AS ws
  FROM documents
),
tchars AS (
  SELECT doc_id, list_sum(list_transform(ws, x -> length(x)))
             AS tok_chars
  FROM toks
),
big AS (
  SELECT doc_id, unnest(list_transform(range(1, len(ws)),
         i -> ws[i] || ' ' || ws[i + 1])) AS bg
  FROM toks WHERE len(ws) >= 2
),
bgc AS (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY doc_id, bg),
cov AS (SELECT doc_id, max(c * (length(bg) - 1)) AS max_cov
        FROM bgc GROUP BY doc_id)
SELECT d.doc_id,
       CAST(coalesce(ls.n_lines, 0) AS BIGINT) AS n_lines,
       CASE WHEN coalesce(ls.n_lines, 0) > 0
            THEN 1.0 - CAST(ls.distinct_lines AS DOUBLE) / ls.n_lines
            ELSE 0.0 END AS dup_line_frac,
       CASE WHEN coalesce(ls.tot_chars, 0) > 0
            THEN CAST(ls.extra_chars AS DOUBLE) / ls.tot_chars
            ELSE 0.0 END AS dup_line_char_frac,
       CASE WHEN coalesce(tc.tok_chars, 0) > 0
            THEN CAST(coalesce(cv.max_cov, 0) AS DOUBLE) / tc.tok_chars
            ELSE 0.0 END AS top_2gram_char_frac,
       (CASE WHEN coalesce(ls.n_lines, 0) > 0
             THEN 1.0 - CAST(ls.distinct_lines AS DOUBLE) / ls.n_lines
             ELSE 0.0 END > CAST(0.30 AS DOUBLE)
        OR CASE WHEN coalesce(ls.tot_chars, 0) > 0
                THEN CAST(ls.extra_chars AS DOUBLE) / ls.tot_chars
                ELSE 0.0 END > CAST(0.30 AS DOUBLE)
        OR CASE WHEN coalesce(tc.tok_chars, 0) > 0
                THEN CAST(coalesce(cv.max_cov, 0) AS DOUBLE)
                     / tc.tok_chars
                ELSE 0.0 END > CAST(0.18 AS DOUBLE)) AS repetitive
FROM documents d
LEFT JOIN lstat ls ON ls.doc_id = d.doc_id
LEFT JOIN tchars tc ON tc.doc_id = d.doc_id
LEFT JOIN cov cv ON cv.doc_id = d.doc_id
"""


def q_langid(sf_dir: str):
    # fused Arrow signal pass (TextStats langid) — same tokenize-once +
    # bank-membership semantics as the standalone pandas LangId stage
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(TextStats(langid=True), batch_format="pyarrow",
                        batch_size=4096)
    return ds.select_columns(["doc_id", "lang_pred"] +
                             [f"sw_{lang}" for lang in LANG_ORDER])


def _sql_sw(lang: str) -> str:
    """Token-membership stopword count (matches LangId's tokenize-once
    + set-membership counting)."""
    bank = ", ".join(f"'{w}'" for w in STOPWORDS[lang])
    return ("CAST(len(list_filter(regexp_extract_all(lower(text), "
            f"'[A-Za-z]+'), x -> x IN ({bank}))) AS BIGINT)")


#: the lang_pred argmax + tie-break over columns sw_en..sw_zh — ONE
#: copy of the oracle contract with TextStats' argmax order (first
#: language in LANG_ORDER wins on >=; 'und' when every bank is empty).
#: Every twin that predicts a language MUST use this constant.
_SQL_LANG_PRED = """CASE
              WHEN greatest(sw_en, sw_es, sw_de, sw_fr, sw_zh) = 0
                  THEN 'und'
              WHEN sw_en >= greatest(sw_es, sw_de, sw_fr, sw_zh) THEN 'en'
              WHEN sw_es >= greatest(sw_de, sw_fr, sw_zh) THEN 'es'
              WHEN sw_de >= greatest(sw_fr, sw_zh) THEN 'de'
              WHEN sw_fr >= sw_zh THEN 'fr'
              ELSE 'zh' END"""

SQL_LANGID = f"""
WITH c AS (
  SELECT doc_id,
         {_sql_sw('en')} AS sw_en,
         {_sql_sw('es')} AS sw_es,
         {_sql_sw('de')} AS sw_de,
         {_sql_sw('fr')} AS sw_fr,
         {_sql_sw('zh')} AS sw_zh
  FROM documents
)
SELECT doc_id,
       {_SQL_LANG_PRED} AS lang_pred,
       sw_en, sw_es, sw_de, sw_fr, sw_zh
FROM c
"""

#: keep/drop rule schema for the documents corpus (schema-as-data)
DOC_RULES: Dict[str, Dict[str, Any]] = {
    "n_words": {"type": "integer", "min": 25, "max": 90},
    "mean_word_len": {"type": "float", "min": 4.0, "max": 5.0},
    "rep_3gram_ratio": {"type": "float", "max": 0.05},
    "stop_ratio": {"type": "float", "min": 0.01},
    "lang_pred": {"type": "string", "allowed": ["en"]},
}


def q_quality_filter(sf_dir: str):
    from nacc_form_validator_ray.stages.validate import validate_dataset
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    # ONE fused Arrow signal pass (stats + langid share tokenization),
    # exactly like the flagship page pipeline
    ds = ds.map_batches(TextStats(langid=True), batch_format="pyarrow",
                        batch_size=4096)
    ds = validate_dataset(ds, DOC_RULES, strict=False, collect="none")
    return ds.select_columns(["doc_id", "passed", "n_errors"])


SQL_QUALITY_FILTER = _TOKS_CTE + """
, sig AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\\S+')) AS n_words,
         CAST(length(text)
              - len(regexp_extract_all(text, '\\s')) AS DOUBLE)
             / greatest(len(regexp_extract_all(text, '\\S+')), 1)
             AS mean_word_len,
         CASE WHEN len(ngrams) > 0
              THEN 1.0 - CAST(len(list_distinct(ngrams)) AS DOUBLE)
                         / len(ngrams)
              ELSE 0.0 END AS rep_3gram_ratio,
         g.text AS text
  FROM g
), lid AS (
  SELECT doc_id,
         {SW_EN} AS sw_en, {SW_ES} AS sw_es, {SW_DE} AS sw_de,
         {SW_FR} AS sw_fr, {SW_ZH} AS sw_zh
  FROM (SELECT doc_id, coalesce(text, '') AS text FROM documents)
), lp AS (
  SELECT doc_id,
         {LANG_PRED} AS lang_pred,
         CAST(greatest(sw_en, sw_es, sw_de, sw_fr, sw_zh) AS DOUBLE)
             / greatest(n_words, 1) AS stop_ratio
  FROM lid JOIN sig USING (doc_id)
), err AS (
  SELECT sig.doc_id,
         (CASE WHEN n_words < 25 THEN 1 ELSE 0 END) +
         (CASE WHEN n_words > 90 THEN 1 ELSE 0 END) +
         (CASE WHEN mean_word_len < 4.0 THEN 1 ELSE 0 END) +
         (CASE WHEN mean_word_len > 5.0 THEN 1 ELSE 0 END) +
         (CASE WHEN rep_3gram_ratio > 0.05 THEN 1 ELSE 0 END) +
         (CASE WHEN stop_ratio < 0.01 THEN 1 ELSE 0 END) +
         (CASE WHEN lang_pred != 'en' THEN 1 ELSE 0 END) AS n_errors
  FROM sig JOIN lp ON sig.doc_id = lp.doc_id
)
SELECT doc_id, n_errors = 0 AS passed, CAST(n_errors AS INT) AS n_errors
FROM err
""".replace("{SW_EN}", _sql_sw("en")) \
   .replace("{SW_ES}", _sql_sw("es")) \
   .replace("{SW_DE}", _sql_sw("de")) \
   .replace("{SW_FR}", _sql_sw("fr")) \
   .replace("{SW_ZH}", _sql_sw("zh")) \
   .replace("{LANG_PRED}", _SQL_LANG_PRED)


def q_pii_scrub(sf_dir: str):
    # Arrow path: RE2 kernels run over the raw string buffers (same
    # stage the flagship uses; round-1 finding #9 closed)
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(Scrubber(), batch_format="pyarrow",
                        batch_size=4096)
    return ds.select_columns(["doc_id", "scrubbed_text", "n_redactions"])


def _scrub_ctes(source: str, id_col: str, prefix: str = "s"):
    """Sequential scrub CTE chain mirroring Scrubber's pattern order,
    embeddable in a larger WITH. Returns (cte_defs, last_cte, total_expr);
    the last CTE carries (id_col, t=scrubbed text, per-pattern counts)."""
    from nacc_form_validator_ray.stages.scrub import (TOXIC_PATTERN,
                                                      TOXIC_REPLACEMENT)
    steps = list(PII_PATTERNS) + [("toxic", TOXIC_PATTERN,
                                   TOXIC_REPLACEMENT)]
    defs = [f"{prefix}0 AS (SELECT {id_col}, text AS t FROM {source})"]
    prev = f"{prefix}0"
    names = []
    for i, (name, pat, repl) in enumerate(steps, start=1):
        pat_sql = pat.replace("'", "''")
        carried = ", ".join("n_" + n for n in names) if names \
            else "1 AS __one"
        defs.append(f"""{prefix}{i} AS (
  SELECT {id_col},
         len(regexp_extract_all(t, '{pat_sql}')) AS n_{name},
         regexp_replace(t, '{pat_sql}', '{repl}', 'g') AS t,
         {carried}
  FROM {prev}
)""")
        names.append(name)
        prev = f"{prefix}{i}"
    total = " + ".join(f"n_{n}" for n in names)
    return ",\n".join(defs), prev, total


def _sql_scrub() -> str:
    defs, last, total = _scrub_ctes("documents", "doc_id")
    return f"""WITH {defs}
SELECT doc_id, t AS scrubbed_text, CAST({total} AS BIGINT) AS n_redactions
FROM {last}
"""


def q_token_count_by_source(sf_dir: str):
    import pyarrow as pa
    ds = _docs(sf_dir, columns=["doc_id", "text", "source"])
    ds = ds.map_batches(TextStats(), batch_format="pyarrow",
                        batch_size=4096)

    # pre-aggregate inside the batch (Arrow C kernels), then a tiny
    # groupby merge
    def partial(t: "pa.Table") -> "pa.Table":
        g = pa.table({
            "source": t["source"].combine_chunks(),
            "n_docs": np.ones(t.num_rows, dtype=np.int64),
            "total_words": t["n_words"].combine_chunks(),
            "total_bpe_tokens": t["bpe_token_count"].combine_chunks(),
        })
        return _pa_grouped_agg(
            g, ["source"],
            [("n_docs", "sum"), ("total_words", "sum"),
             ("total_bpe_tokens", "sum")],
            ["n_docs", "total_words", "total_bpe_tokens"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return _merge_partials(partials, ["source"],
                           {"n_docs": "sum", "total_words": "sum",
                            "total_bpe_tokens": "sum"})


SQL_TOKEN_COUNT = f"""
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT)
           AS total_words,
       CAST(sum(len(regexp_extract_all(text, '{BPE_TOKEN_RE}')))
           AS BIGINT) AS total_bpe_tokens
FROM documents GROUP BY source
"""


def q_dedup_exact(sf_dir: str):
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def add_hash(t):
        import pyarrow as pa
        from nacc_form_validator_ray.stages.dedup import (
            md5_hex, normalize_ws_arrow)
        # Arrow in, Arrow out: the text column digests straight off
        # the packed buffer, no pandas boxing (round-4 VERDICT item 5)
        return pa.table({
            "doc_id": t["doc_id"].combine_chunks(),
            "content_hash": pa.array(
                md5_hex(normalize_ws_arrow(t["text"])), pa.string())})

    from nacc_form_validator_ray.stages.partition import grouped_apply

    def min_per_hash(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("content_hash", as_index=False)[
            "doc_id"].min()

    return grouped_apply(ds.map_batches(add_hash,
                                        batch_format="pyarrow"),
                         ["content_hash"], min_per_hash)


SQL_DEDUP_EXACT = """
SELECT md5(lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))))
           AS content_hash,
       CAST(min(doc_id) AS BIGINT) AS doc_id
FROM documents GROUP BY 1
"""


def q_line_dedup(sf_dir: str):
    """Cross-document line dedup (CCNet-style boilerplate removal):
    lines in >= 2 distinct docs vanish from every doc."""
    from nacc_form_validator_ray.stages.dedup import line_dedup
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return line_dedup(ds, min_docs=2)


#: DuckDB twin of line_dedup: groups the line STRINGS directly
#: (the engine's 62-bit fold-hash pair stands in for string identity;
#: semantics differ only on a hash collision).
SQL_LINE_DEDUP_DOCS = """
WITH lns AS (
  SELECT doc_id, generate_subscripts(ls, 1) AS idx, unnest(ls) AS ln
  FROM (SELECT doc_id, string_split(coalesce(text, ''), chr(10)) AS ls
        FROM documents)
),
banned AS (
  SELECT ln FROM lns GROUP BY ln HAVING count(DISTINCT doc_id) >= 2
),
kept AS (
  SELECT doc_id, idx, ln FROM lns
  WHERE ln NOT IN (SELECT ln FROM banned)
),
agg AS (
  SELECT doc_id, string_agg(ln, chr(10) ORDER BY idx) AS text,
         count(*) AS n_kept
  FROM kept GROUP BY doc_id
),
tot AS (SELECT doc_id, count(*) AS n_lines FROM lns GROUP BY doc_id)
SELECT d.doc_id, coalesce(a.text, '') AS text,
       CAST(t.n_lines - coalesce(a.n_kept, 0) AS BIGINT)
           AS n_lines_dropped
FROM documents d
JOIN tot t ON t.doc_id = d.doc_id
LEFT JOIN agg a ON a.doc_id = d.doc_id
"""


def q_pack_sequences(sf_dir: str):
    """Training-sequence packing manifest: documents concatenated on a
    global token axis in doc_id order, split into 512-token sequences —
    one row per (document, sequence) span."""
    from nacc_form_validator_ray.stages.pack import pack_sequences
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return pack_sequences(ds, seq_len=512)


#: DuckDB twin of pack_sequences: window cumsum over doc_id order for
#: the global offsets, unnest(range(...)) for the span explosion —
#: exact integer arithmetic end-to-end.
SQL_PACK_SEQUENCES = """
WITH toks AS (
  SELECT doc_id,
         len(regexp_extract_all(lower(coalesce(text, '')), '[a-z]+'))
             AS n
  FROM documents
),
offs AS (
  SELECT doc_id, n,
         CAST(coalesce(sum(n) OVER (ORDER BY doc_id
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT) AS o
  FROM toks
),
spans AS (
  SELECT doc_id, n, o,
         unnest(range(o // 512, (o + n - 1) // 512 + 1)) AS seq_id
  FROM offs WHERE n > 0
)
SELECT doc_id, CAST(seq_id AS BIGINT) AS seq_id,
       CAST(greatest(o, seq_id * 512) - o AS BIGINT) AS doc_start,
       CAST(greatest(o, seq_id * 512) - seq_id * 512 AS BIGINT)
           AS seq_start,
       CAST(least(o + n, (seq_id + 1) * 512)
            - greatest(o, seq_id * 512) AS BIGINT) AS n_tokens_span
FROM spans
"""


def q_select_budget(sf_dir: str):
    """Greedy best-data-first selection under a 15k-token budget,
    scored by n_chars (the synthetic corpus' quality proxy)."""
    from nacc_form_validator_ray.stages.pack import select_token_budget
    ds = _docs(sf_dir, columns=["doc_id", "text", "n_chars"])
    return select_token_budget(ds, budget=15_000,
                               score_column="n_chars")


SQL_SELECT_BUDGET = """
WITH toks AS (
  SELECT doc_id, n_chars AS score,
         len(regexp_extract_all(lower(coalesce(text, '')), '[a-z]+'))
             AS n
  FROM documents
),
o AS (
  SELECT doc_id, score, n,
         CAST(coalesce(sum(n) OVER (ORDER BY score DESC, doc_id
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT)
             AS excl
  FROM toks
)
SELECT doc_id, CAST(score AS BIGINT) AS score,
       CAST(n AS BIGINT) AS n_tokens,
       CAST(excl + n AS BIGINT) AS cum_tokens
FROM o WHERE excl + n <= 15000
"""


def q_score_recompute(sf_dir: str):
    ds = _docs(sf_dir, columns=["doc_id", "text", "n_chars"])

    def check(batch: pd.DataFrame) -> pd.DataFrame:
        recomputed = batch["text"].fillna("").str.len() \
            .to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_chars": batch["n_chars"],
            "n_chars_recomputed": recomputed,
            "match": recomputed == batch["n_chars"].to_numpy(),
        })

    return ds.map_batches(check, batch_format="pandas")


SQL_SCORE_RECOMPUTE = """
SELECT doc_id, n_chars,
       CAST(length(text) AS BIGINT) AS n_chars_recomputed,
       CAST(length(text) AS BIGINT) = n_chars AS match
FROM documents
"""


def q_jaccard_pairs(sf_dir: str):
    from nacc_form_validator_ray.stages.dedup import blocked_jaccard_pairs
    ds = _docs(sf_dir, columns=["doc_id", "text", "source"])
    return blocked_jaccard_pairs(ds, "source", threshold=0.05)


SQL_JACCARD_PAIRS = """
WITH t AS (
  SELECT doc_id, source,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
  FROM documents
), emitted AS (
  -- every doc lands in its own length bucket AND the next one up
  -- (boundary-straddling pairs; round-2 ADVICE), mirroring
  -- blocked_jaccard_pairs(length_bucket=64, max_block=4096)
  SELECT doc_id, source, toks, len(toks) // 64 AS own,
         unnest([len(toks) // 64, len(toks) // 64 + 1]) AS p
  FROM t
), capped AS (
  -- the cap applies per PARTITION (source, p) over the emitted copies
  SELECT doc_id, source, toks, own, p,
         row_number() OVER (PARTITION BY source, p
                            ORDER BY doc_id) AS rn
  FROM emitted
), d AS (
  SELECT doc_id, source, own, p,
         CASE WHEN len(toks) >= 3
              THEN list_distinct(list_transform(range(1, len(toks) - 1),
                   i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))
              ELSE CAST([] AS VARCHAR[]) END AS s
  FROM capped WHERE rn <= 4096
), pr AS (
  -- a pair is claimed by exactly one partition: max(own_a, own_b)
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         len(list_intersect(a.s, b.s)) AS inter,
         len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)) AS uni
  FROM d a JOIN d b ON a.source = b.source AND a.p = b.p
                   AND a.doc_id < b.doc_id
                   AND greatest(a.own, b.own) = a.p
)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       CAST(inter AS DOUBLE) / uni AS jaccard
FROM pr WHERE uni > 0 AND CAST(inter AS DOUBLE) / uni >= 0.05
"""


# --------------------------------------------------------------------------
# temporal / windowed over `events`
# --------------------------------------------------------------------------

EVENTS_TEMPORAL_RULES = {
    "pk_user": {"type": "string"},
    "value": {
        "type": "float",
        "compare_with": {"comparator": ">=", "base": "value",
                         "previous_record": True},
    },
}


def q_temporal_events(sf_dir: str):
    from nacc_form_validator_ray.stages.validate import validate_dataset
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "value"])

    # string pk: the engine follows the reference in treating a FALSY
    # primary key as unset (nacc_validator.py:281-284), and user_id 0 is
    # a legitimate subject here
    def add_pk(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["pk_user"] = "u" + batch["user_id"].astype(str)
        return batch

    ds = ds.map_batches(add_pk, batch_format="pandas")
    ds = validate_dataset(ds, EVENTS_TEMPORAL_RULES, pk_field="pk_user",
                          orderby="ts", strict=False, collect="none")
    return ds.select_columns(["event_id", "passed"])


SQL_TEMPORAL_EVENTS = """
SELECT event_id,
       CASE WHEN prev_value IS NULL THEN false
            ELSE value >= prev_value END AS passed
FROM (
  SELECT event_id, value,
         lag(value) OVER (PARTITION BY user_id ORDER BY ts) AS prev_value
  FROM events
)
"""


def q_events_window(sf_dir: str):
    from ray.data.aggregate import Count, Sum
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts", "value"])

    def windowed(batch: pd.DataFrame) -> pd.DataFrame:
        ts_us = batch["ts"].astype("datetime64[us]").astype("int64")
        hour = (ts_us // 3_600_000_000).astype(np.int64)
        cents = np.floor(batch["value"].to_numpy(np.float64) * 100 + 0.5) \
            .astype(np.int64)
        g = pd.DataFrame({"user_id": batch["user_id"],
                          "window_hour": hour,
                          "n_events": 1,
                          "value_cents": cents})
        return g.groupby(["user_id", "window_hour"], as_index=False).sum()

    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    partials = ds.map_batches(windowed, batch_format="pandas")
    # fine-grained keys: one hash exchange + vectorized partition-level
    # aggregation (per-key map_groups overhead would dominate)
    return grouped_agg_sum(partials, ["user_id", "window_hour"],
                           ["n_events", "value_cents"])


SQL_EVENTS_WINDOW = """
SELECT user_id,
       CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS window_hour,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS value_cents
FROM events GROUP BY 1, 2
"""


def q_events_type_stats(sf_dir: str):
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type", "user_id", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("event_type", as_index=False).agg(
            n_events=("value", "size"),
            min_value=("value", "min"),
            max_value=("value", "max"))

    partials = ds.map_batches(partial, batch_format="pandas")
    return _merge_partials(partials, ["event_type"],
                           {"n_events": "sum", "min_value": "min",
                            "max_value": "max"})


SQL_EVENTS_TYPE_STATS = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       min(value) AS min_value, max(value) AS max_value
FROM events GROUP BY event_type
"""


# --------------------------------------------------------------------------
# similarity over `embeddings`
# --------------------------------------------------------------------------


def q_knn(sf_dir: str):
    import pyarrow.parquet as pq
    from nacc_form_validator_ray.stages.similarity import knn_bruteforce
    # pushed-down row filter: only the 10 query vectors leave storage
    small = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"],
                          filters=[("vec_id", "<", 10)]) \
        .to_pandas().sort_values("vec_id")
    queries = np.stack([np.asarray(v, dtype=np.float64)
                        for v in small["embedding"]])
    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    out = knn_bruteforce(ds, queries, small["vec_id"].to_numpy(), k=10)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


SQL_KNN = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id < 10
), pairs AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.qe, e.embedding) AS cos
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id != q.query_id
), ranked AS (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY cos DESC, neighbor_id) AS rank
  FROM pairs
)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= 10
"""


# --------------------------------------------------------------------------
# relational classics (joins, aggregates, sort/limit, filters)
# --------------------------------------------------------------------------


def q_q1_lineitem(sf_dir: str):
    ds = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qty = batch["l_quantity"].to_numpy(np.float64)
        charge = batch["l_extendedprice"].to_numpy(np.float64) * \
            (1 - batch["l_discount"].to_numpy(np.float64)) * \
            (1 + batch["l_tax"].to_numpy(np.float64))
        g = pd.DataFrame({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": np.floor(qty + 0.5).astype(np.int64),
            "charge_cents": np.floor(charge * 100 + 0.5).astype(np.int64),
            "count_order": 1,
        })
        return g.groupby(["l_returnflag", "l_linestatus"],
                         as_index=False).sum()

    partials = ds.map_batches(partial, batch_format="pandas")
    return _merge_partials(partials, ["l_returnflag", "l_linestatus"],
                           {"sum_qty": "sum", "charge_cents": "sum",
                            "count_order": "sum"})


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_qty,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount)
                           * (1 + l_tax) * 100 + 0.5) AS BIGINT))
           AS BIGINT) AS charge_cents,
       CAST(count(*) AS BIGINT) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_top_orders(sf_dir: str):
    ds = _rd().read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(10)


SQL_TOP_ORDERS = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def q_segment_revenue(sf_dir: str):
    """Fact-to-fact join: orders ⋈ customer via the distributed hash
    exchange (customer scales with the dataset — broadcasting it as a
    driver dict was the round-1 scale defect). The join output is
    pre-aggregated per partition before the tiny final groupby."""
    import pyarrow as pa
    from nacc_form_validator_ray.stages.joins import hash_join
    orders = _rd().read_parquet(f"{sf_dir}/orders.parquet",
                                columns=["o_custkey", "o_totalprice"])

    # pre-aggregate per custkey INSIDE each batch before the exchange —
    # the join then moves one lean partial row per (custkey, batch)
    # instead of one row per order (Arrow blocks end-to-end)
    def pre_agg(t: "pa.Table") -> "pa.Table":
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        g = pa.table({"o_custkey": t["o_custkey"].combine_chunks(),
                      "n_orders": np.ones(t.num_rows, dtype=np.int64),
                      "revenue_cents": cents})
        return _pa_grouped_agg(
            g, ["o_custkey"],
            [("n_orders", "sum"), ("revenue_cents", "sum")],
            ["n_orders", "revenue_cents"])

    order_partials = orders.map_batches(pre_agg, batch_format="pyarrow")
    cust = _rd().read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda t: t.rename_columns(
            ["o_custkey", "c_mktsegment"]), batch_format="pyarrow")
    joined = hash_join(order_partials, cust, on="o_custkey")

    def partial(t: "pa.Table") -> "pa.Table":
        return _pa_grouped_agg(
            t.select(["c_mktsegment", "n_orders", "revenue_cents"]),
            ["c_mktsegment"],
            [("n_orders", "sum"), ("revenue_cents", "sum")],
            ["n_orders", "revenue_cents"])

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return _merge_partials(partials, ["c_mktsegment"],
                           {"n_orders": "sum", "revenue_cents": "sum"})


SQL_SEGMENT_REVENUE = """
SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_ship_delay(sf_dir: str):
    """Date arithmetic across a fact-to-fact equi-join: lineitem ⋈
    orders on the order key through the distributed hash exchange
    (orders scales with the dataset; the round-1 version shipped it as a
    driver-built broadcast dict — compare_age pattern, wrong scaling)."""
    from nacc_form_validator_ray.stages.joins import hash_join
    line = _rd().read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_linenumber",
                                       "l_shipdate"])
    orders = _rd().read_parquet(f"{sf_dir}/orders.parquet",
                                columns=["o_orderkey", "o_orderdate"]) \
        .map_batches(lambda t: t.rename_columns(
            ["l_orderkey", "o_orderdate"]), batch_format="pyarrow")
    joined = hash_join(line, orders, on="l_orderkey")

    # date math straight off the Arrow buffers (dict-of-numpy output
    # becomes an Arrow block without a pandas hop)
    def delay(t):
        ship = t["l_shipdate"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        odate = t["o_orderdate"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        delay_days = (ship.astype("datetime64[us]").view("i8") -
                      odate.astype("datetime64[us]").view("i8")) \
            // 86_400_000_000
        return {
            "l_orderkey": t["l_orderkey"].combine_chunks()
            .to_numpy(zero_copy_only=False),
            "l_linenumber": t["l_linenumber"].combine_chunks()
            .to_numpy(zero_copy_only=False).astype(np.int64),
            "delay_days": delay_days.astype(np.int64),
            "late": delay_days > 90,
        }

    return joined.map_batches(delay, batch_format="pyarrow")


SQL_SHIP_DELAY = """
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       CAST(datediff('day', o_orderdate, l_shipdate) AS BIGINT)
           AS delay_days,
       datediff('day', o_orderdate, l_shipdate) > 90 AS late
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
"""


def q_part_filter(sf_dir: str):
    import pyarrow.compute as pc
    ds = _rd().read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_size", "p_type",
                                     "p_retailprice"])
    ds = ds.map_batches(
        lambda t: t.filter(pc.greater(t["p_size"], 40)),
        batch_format="pyarrow")
    return ds.select_columns(["p_partkey", "p_type", "p_retailprice"])


SQL_PART_FILTER = """
SELECT p_partkey, p_type, p_retailprice FROM part WHERE p_size > 40
"""


def q_supplier_region(sf_dir: str):
    """Two-hop broadcast join chain supplier→nation→region."""
    import pyarrow.parquet as pq
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    n2r = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    r2name = dict(zip(region["r_regionkey"], region["r_name"]))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rname = batch["s_nationkey"].map(n2r).map(r2name)
        cents = np.floor(
            batch["s_acctbal"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"r_name": rname, "n_suppliers": 1,
                          "acctbal_cents": cents})
        return g.groupby("r_name", as_index=False).sum()

    ds = _rd().read_parquet(f"{sf_dir}/supplier.parquet",
                            columns=["s_suppkey", "s_nationkey",
                                     "s_acctbal"])
    partials = ds.map_batches(partial, batch_format="pandas")
    return _merge_partials(partials, ["r_name"],
                           {"n_suppliers": "sum",
                            "acctbal_cents": "sum"})


SQL_SUPPLIER_REGION = """
SELECT r_name, CAST(count(*) AS BIGINT) AS n_suppliers,
       CAST(sum(CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS acctbal_cents
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


# --------------------------------------------------------------------------
# the rule engine over relational tables
# --------------------------------------------------------------------------

CUSTOMER_RULES = {
    "c_acctbal": {"type": "float", "min": 0.0, "max": 9000.0},
    "c_mktsegment": {"type": "string",
                     "allowed": ["AUTOMOBILE", "BUILDING", "FURNITURE"]},
    "c_nationkey": {"type": "integer", "min": 0, "max": 24},
}


def q_validator_customer(sf_dir: str):
    from nacc_form_validator_ray.stages.validate import validate_dataset
    ds = _rd().read_parquet(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey", "c_acctbal",
                                     "c_mktsegment", "c_nationkey"])
    ds = validate_dataset(ds, CUSTOMER_RULES, strict=False,
                          collect="none")
    return ds.select_columns(["c_custkey", "passed", "n_errors"])


SQL_VALIDATOR_CUSTOMER = """
SELECT c_custkey, n_errors = 0 AS passed, CAST(n_errors AS INT) AS n_errors
FROM (
  SELECT c_custkey,
         (CASE WHEN c_acctbal < 0.0 THEN 1 ELSE 0 END) +
         (CASE WHEN c_acctbal > 9000.0 THEN 1 ELSE 0 END) +
         (CASE WHEN c_mktsegment NOT IN
               ('AUTOMOBILE', 'BUILDING', 'FURNITURE') THEN 1 ELSE 0 END) +
         (CASE WHEN c_nationkey < 0 THEN 1 ELSE 0 END) +
         (CASE WHEN c_nationkey > 24 THEN 1 ELSE 0 END) AS n_errors
  FROM customer
)
"""

LINEITEM_RULES = {
    "l_quantity": {"type": "float", "min": 1.0, "max": 45.0},
    "l_discount": {"type": "float", "min": 0.0, "max": 0.08},
    "l_returnflag": {"type": "string", "allowed": ["A", "N"]},
}


def q_validator_lineitem(sf_dir: str):
    from nacc_form_validator_ray.stages.validate import validate_dataset
    ds = _rd().read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_quantity", "l_discount",
                                     "l_returnflag"])
    ds = validate_dataset(ds, LINEITEM_RULES, strict=False,
                          collect="none")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "l_returnflag": batch["l_returnflag"],
            "n_rows": 1,
            "n_passed": batch["passed"].astype(np.int64),
            "total_errors": batch["n_errors"].astype(np.int64),
        })
        return g.groupby("l_returnflag", as_index=False).sum()

    partials = ds.map_batches(partial, batch_format="pandas")
    return _merge_partials(partials, ["l_returnflag"],
                           {"n_rows": "sum", "n_passed": "sum",
                            "total_errors": "sum"})


SQL_VALIDATOR_LINEITEM = """
SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CASE WHEN n_errors = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_passed,
       CAST(sum(n_errors) AS BIGINT) AS total_errors
FROM (
  SELECT l_returnflag,
         (CASE WHEN l_quantity < 1.0 THEN 1 ELSE 0 END) +
         (CASE WHEN l_quantity > 45.0 THEN 1 ELSE 0 END) +
         (CASE WHEN l_discount < 0.0 THEN 1 ELSE 0 END) +
         (CASE WHEN l_discount > 0.08 THEN 1 ELSE 0 END) +
         (CASE WHEN l_returnflag NOT IN ('A', 'N') THEN 1 ELSE 0 END)
             AS n_errors
  FROM lineitem
)
GROUP BY l_returnflag
"""


# --------------------------------------------------------------------------
# MinHash+LSH (integer-exact SQL twin, generated from the engine's
# constants — stages/dedup.minhash_params / P31 / fold multipliers)
# --------------------------------------------------------------------------


def _sql_minhash_ctes(source: str, id_col: str,
                      threshold: float,
                      text_expr: str = "text",
                      k: int = 128, bands: int = 32,
                      seed: int = 13,
                      prefix: str = "mh") -> Tuple[str, str]:
    """CTE chain reproducing minhash_candidate_pairs bit-for-bit:
    char-fold token hashes -> shingle folds -> k affine-permutation
    minima -> two band-fold keys -> band-collision pair counts filtered
    at the integer min_bands. Returns (cte_defs, pairs_cte) where
    pairs_cte has (id_a, id_b, n_bands). ``source`` must expose
    (id_col, text_expr)."""
    from nacc_form_validator_ray.stages.dedup import (
        BAND_FOLD_MULTS, P31, SHINGLE_FOLD_MULT, TOKEN_FOLD_MULT,
        min_bands_for_threshold, minhash_params)
    r = k // bands
    a, b = minhash_params(k, seed)
    min_bands = min_bands_for_threshold(threshold, bands, r)
    perm_rows = ", ".join(f"({j}, {int(a[j])}, {int(b[j])})"
                          for j in range(k))
    m1, m2 = BAND_FOLD_MULTS
    p = prefix
    defs = f"""{p}_tok AS (
  SELECT {id_col} AS {p}_id,
         regexp_extract_all(lower({text_expr}), '[a-z0-9]+') AS toks
  FROM {source}
), {p}_th AS (
  SELECT {p}_id,
         list_transform(toks, t -> list_reduce(
             list_prepend(CAST(0 AS BIGINT),
                 list_transform(regexp_extract_all(t, '.'),
                                c -> CAST(unicode(c) AS BIGINT))),
             (a, b) -> (a * {TOKEN_FOLD_MULT} + b) % {P31})) AS th
  FROM {p}_tok
), {p}_sh AS (
  SELECT {p}_id,
         CASE WHEN len(th) >= 3
              THEN list_transform(range(1, len(th) - 1),
                   i -> ((th[i] * {SHINGLE_FOLD_MULT} + th[i+1]) % {P31}
                         * {SHINGLE_FOLD_MULT} + th[i+2]) % {P31})
              ELSE CAST([] AS BIGINT[]) END AS sh
  FROM {p}_th
), {p}_s AS (
  SELECT {p}_id, unnest(sh) AS sh FROM {p}_sh
), {p}_perm AS (
  SELECT * FROM (VALUES {perm_rows}) AS t(j, pa, pb)
), {p}_min AS (
  SELECT {p}_id, j, min((pa * sh + pb) % {P31}) AS m
  FROM {p}_s, {p}_perm GROUP BY {p}_id, j
), {p}_sig AS (
  -- docs with no shingles carry the EMPTY_SIG sentinel (= P31)
  SELECT i.{p}_id, pm.j, coalesce(mm.m, {P31}) AS m
  FROM (SELECT DISTINCT {p}_id FROM {p}_tok) i
  CROSS JOIN {p}_perm pm
  LEFT JOIN {p}_min mm ON mm.{p}_id = i.{p}_id AND mm.j = pm.j
), {p}_bands AS (
  SELECT {p}_id, j // {r} AS band_id,
         list_reduce(list_prepend(CAST(0 AS BIGINT),
             list(m ORDER BY j)),
             (a, b) -> (a * {m1} + b) % {P31}) AS k1,
         list_reduce(list_prepend(CAST(0 AS BIGINT),
             list(m ORDER BY j)),
             (a, b) -> (a * {m2} + b) % {P31}) AS k2
  FROM {p}_sig GROUP BY {p}_id, j // {r}
), {p}_pairs AS (
  SELECT a.{p}_id AS id_a, b.{p}_id AS id_b,
         CAST(count(*) AS BIGINT) AS n_bands
  FROM {p}_bands a JOIN {p}_bands b
    ON a.band_id = b.band_id AND a.k1 = b.k1 AND a.k2 = b.k2
   AND a.{p}_id < b.{p}_id
  GROUP BY a.{p}_id, b.{p}_id
  HAVING count(*) >= {min_bands}
)"""
    return defs, f"{p}_pairs"


def q_minhash_pairs(sf_dir: str):
    from nacc_form_validator_ray.stages.dedup import minhash_candidate_pairs
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(ds, threshold=0.5)

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "id_a": batch["id_a"].astype(np.int64),
            "id_b": batch["id_b"].astype(np.int64),
            "n_bands": batch["n_bands"].astype(np.int64),
        })

    return pairs.map_batches(project, batch_format="pandas")


def _sql_minhash_pairs() -> str:
    defs, pairs = _sql_minhash_ctes("documents", "doc_id", threshold=0.5)
    return f"""WITH {defs}
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       n_bands
FROM {pairs}
"""


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs — HARD oracle: the 62-bit hash is two
    mod-P31 char folds, sign accumulation and bit packing, all exact
    BIGINT arithmetic the DuckDB twin reproduces (including the 4-chunk
    candidate banding and bit_count Hamming verify)."""
    from nacc_form_validator_ray.stages.dedup import simhash_candidate_pairs
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return simhash_candidate_pairs(ds, max_hamming=3)


def _sql_charfold(expr: str, mult: int) -> str:
    """DuckDB char-fold polynomial hash of ``expr`` mod P31 — the twin
    of stages/dedup._fold_hash_strings."""
    from nacc_form_validator_ray.stages.dedup import P31
    return (f"list_reduce(list_prepend(CAST(0 AS BIGINT), "
            f"list_transform(regexp_extract_all({expr}, '.'), "
            f"c -> CAST(unicode(c) AS BIGINT))), "
            f"(a, b) -> (a * {mult} + b) % {P31})")


def _sql_simhash_pairs() -> str:
    from nacc_form_validator_ray.stages.dedup import (TOKEN_FOLD_MULT,
                                                      TOKEN_FOLD_MULT2)
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
  FROM documents
), th AS (
  SELECT doc_id,
         {_sql_charfold('t', TOKEN_FOLD_MULT)} AS h1,
         {_sql_charfold('t', TOKEN_FOLD_MULT2)} AS h2
  FROM tok
), bits AS (
  -- bit j of the 62-bit token hash (h1 << 31) | h2, sign-accumulated
  SELECT doc_id, j,
         sum(CASE WHEN ((CASE WHEN j < 31 THEN h2 ELSE h1 END)
                        >> CAST(CASE WHEN j < 31 THEN j ELSE j - 31 END
                                AS INT)) & 1 = 1
                  THEN 1 ELSE -1 END) AS s
  FROM th, range(62) r(j) GROUP BY doc_id, j
), packed AS (
  SELECT d.doc_id,
         coalesce(sum(CASE WHEN b.s > 0
                           THEN (CAST(1 AS BIGINT) << CAST(b.j AS INT))
                           ELSE 0 END), 0) AS sh
  FROM documents d LEFT JOIN bits b ON d.doc_id = b.doc_id
  GROUP BY d.doc_id
), ch AS (
  SELECT doc_id, sh, c, (sh >> CAST(16 * c AS INT)) & 65535 AS ck
  FROM packed, range(4) t(c)
), cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b,
         a.sh AS sa, b.sh AS sb
  FROM ch a JOIN ch b ON a.c = b.c AND a.ck = b.ck
                     AND a.doc_id < b.doc_id
)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       CAST(bit_count(xor(sa, sb)) AS BIGINT) AS hamming
FROM cand WHERE bit_count(xor(sa, sb)) <= 3
"""


def q_embedding_neardup(sf_dir: str):
    """Integer-exact cosine LSH: quantized components, LCG hyperplanes,
    int64 threshold test — every decision reproducible in DuckDB
    (SQL_EMBEDDING_NEARDUP), so this carries a hard oracle."""
    from nacc_form_validator_ray.stages.similarity import \
        quantized_lsh_pairs
    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    dim = len(ds.take(1)[0]["embedding"])
    # the synthetic embeddings have no engineered near-dups (max pair
    # cosine ~0.48) — 0.4 with few planes exercises the bucket + verify
    # path on real candidate volume instead of returning zero rows
    return quantized_lsh_pairs(ds, dim=dim, n_planes=6,
                               threshold_num=2, threshold_den=5)


def _sql_embedding_neardup(dim: int = 64, n_planes: int = 6,
                           tn: int = 2, td: int = 5,
                           max_bucket: int = 2048) -> str:
    """DuckDB twin of quantized_lsh_pairs: same quantization
    (floor(v*1024 + 0.5)), same LCG planes, same int threshold test,
    same two-IEEE-op cosine."""
    return f"""
WITH comp AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1024 + 0.5)
              AS BIGINT) AS q
  FROM embeddings
),
plane AS (
  SELECT (i // {n_planes}) AS d, (i % {n_planes}) AS j,
         ((1103515245 * (i + 1) + 12345) % 2147483647) % 512 - 256 AS p
  FROM range({dim * n_planes}) t(i)
),
sig AS (
  SELECT c.vec_id, p.j,
         CASE WHEN sum(c.q * p.p) > 0 THEN 1 ELSE 0 END AS s
  FROM comp c JOIN plane p ON c.d = p.d GROUP BY c.vec_id, p.j
),
bucket AS (
  SELECT vec_id, CAST(sum(s * (1::BIGINT << j)) AS BIGINT) AS b
  FROM sig GROUP BY vec_id
),
capped AS (
  SELECT vec_id, b FROM (
    SELECT vec_id, b,
           row_number() OVER (PARTITION BY b ORDER BY vec_id) AS rn
    FROM bucket) WHERE rn <= {max_bucket}
),
norms AS (
  SELECT vec_id, CAST(sum(q * q) AS BIGINT) AS n2
  FROM comp GROUP BY vec_id
),
prs AS (
  SELECT a.vec_id AS id_a, b2.vec_id AS id_b
  FROM capped a JOIN capped b2 ON a.b = b2.b AND a.vec_id < b2.vec_id
),
dots AS (
  SELECT p.id_a, p.id_b, CAST(sum(ca.q * cb.q) AS BIGINT) AS dot
  FROM prs p JOIN comp ca ON ca.vec_id = p.id_a
             JOIN comp cb ON cb.vec_id = p.id_b AND cb.d = ca.d
  GROUP BY p.id_a, p.id_b
)
SELECT d.id_a, d.id_b,
       CAST(d.dot AS DOUBLE) / sqrt(CAST(na.n2 * nb.n2 AS DOUBLE))
           AS cosine
FROM dots d JOIN norms na ON na.vec_id = d.id_a
            JOIN norms nb ON nb.vec_id = d.id_b
WHERE d.dot > 0
  AND {td * td} * d.dot * d.dot >= {tn * tn} * na.n2 * nb.n2
"""


def q_fingerprint_docs(sf_dir: str):
    from nacc_form_validator_ray.stages.text_signals import Fingerprint
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(Fingerprint(), batch_format="pyarrow")
    return ds.select_columns(["doc_id", "fingerprint_md5",
                              "fingerprint_winnow"])


def q_multimodal_decode(sf_dir: str):
    """Media plumbing over documents' text bytes as stand-in payloads."""
    from nacc_form_validator_ray.stages.multimodal import (DecodeImage,
                                                           ImageFeatures)
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def to_payload(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "media_id": batch["doc_id"],
            "payload": [t.encode("utf-8") for t in
                        batch["text"].fillna("")],
        })

    ds = ds.map_batches(to_payload, batch_format="pandas")
    ds = ds.map_batches(DecodeImage(size=(8, 8), payload_column="payload"),
                        batch_format="pandas", batch_size=64)
    ds = ds.map_batches(ImageFeatures(), batch_format="pandas",
                        batch_size=64)

    def summarize(batch: pd.DataFrame) -> pd.DataFrame:
        # quantize each feature to a 2^-20 grid BEFORE summing (the
        # perplexity-oracle trick): integer sums are order-independent
        # and exact, so the DuckDB twin reproduces feat_sum_int exactly
        dims, sums = [], []
        for f in batch["image_features"]:
            q = np.floor(np.asarray(f, dtype=np.float64) * (1 << 20)
                         + 0.5).astype(np.int64)
            dims.append(len(f))
            sums.append(int(q.sum() >> 20))
        return pd.DataFrame({
            "media_id": batch["media_id"],
            "feat_dim": np.asarray(dims, dtype=np.int64),
            "feat_sum_int": np.asarray(sums, dtype=np.int64),
        })

    return ds.map_batches(summarize, batch_format="pandas")


#: DuckDB twin of q_multimodal_decode: regenerates the counter-hash
#: pixels (stages/multimodal.fake_decode_image) in SQL, recomputes
#: channel means/stds + the floor(lum/32) luminance histogram — every
#: intermediate is exact arithmetic over integer pixels — and folds the
#: 2^-20-grid quantized feature sum exactly like the engine.
SQL_MULTIMODAL_DECODE = """
WITH payload AS (
  SELECT doc_id AS media_id,
         ('0x' || substr(sha256(coalesce(text, '')), 1, 15))::BIGINT
             % 2147483647 AS seed
  FROM documents
),
pix AS (
  SELECT media_id, i // 3 AS p, i % 3 AS c,
         (1103515245 * ((seed + i + 1) % 2147483647) + 12345)
             % 2147483647 % 256 AS v
  FROM payload, range(192) t(i)
),
cm AS (SELECT media_id, c, sum(v) / 64.0 AS m
       FROM pix GROUP BY media_id, c),
cs AS (SELECT p.media_id, p.c,
              sqrt(sum((p.v - cm.m) * (p.v - cm.m)) / 64.0) AS s
       FROM pix p JOIN cm ON cm.media_id = p.media_id AND cm.c = p.c
       GROUP BY p.media_id, p.c),
lum AS (SELECT media_id, p, sum(v) / 3.0 AS l
        FROM pix GROUP BY media_id, p),
hist AS (SELECT media_id, CAST(floor(l / 32) AS BIGINT) AS bin,
                count(*) AS n
         FROM lum GROUP BY 1, 2),
qparts AS (
  SELECT media_id, CAST(floor(m * 1048576 + 0.5) AS BIGINT) AS q FROM cm
  UNION ALL
  SELECT media_id, CAST(floor(s * 1048576 + 0.5) AS BIGINT) FROM cs
  UNION ALL
  SELECT media_id, CAST(floor(n / 64.0 * 1048576 + 0.5) AS BIGINT)
  FROM hist
)
SELECT pl.media_id, 14 AS feat_dim,
       CAST(floor(sum(q.q) / 1048576.0) AS BIGINT) AS feat_sum_int
FROM payload pl JOIN qparts q ON q.media_id = pl.media_id
GROUP BY pl.media_id
"""


def _pages_n(sf_dir: str) -> int:
    return 2000 if "0.01" in sf_dir else 500


def _pages_path(sf_dir: str) -> str:
    """Materialize the deterministic page table once (shared between the
    Ray flagship queries and their DuckDB oracles)."""
    from nacc_form_validator_ray.pipelines.webgen import \
        ensure_pages_parquet
    return ensure_pages_parquet(_pages_n(sf_dir))


def q_quality_filter_pages(sf_dir: str):
    """Flagship pipeline over generated CC-style pages (scaled to sf).
    Reads the persisted page parquet so the DuckDB twin sees identical
    rows — this is the hard oracle for the headline pipeline."""
    from nacc_form_validator_ray.pipelines.quality_filter import \
        build_quality_pipeline
    from nacc_form_validator_ray.utils import Clock
    from datetime import datetime
    ds = _rd().read_parquet(_pages_path(sf_dir), columns=["url", "text"])
    ds = build_quality_pipeline(ds, clock=Clock(datetime(2026, 1, 1)))
    return ds.select_columns(["url", "lang_pred", "passed", "n_errors",
                              "n_redactions"])


def q_pretrain_prefix_pages(sf_dir: str):
    """SQL-expressible prefix of the pretrain composition: quality
    filter -> PII scrub -> EXACT dedup (min url per content hash). The
    full composition (+ MinHash near-dedup) stays rows-only as
    ``pretrain_pages``."""
    from datetime import datetime
    from nacc_form_validator_ray.pipelines.quality_filter import \
        build_quality_pipeline
    from nacc_form_validator_ray.stages.dedup import exact_dedup
    from nacc_form_validator_ray.utils import Clock
    ds = _rd().read_parquet(_pages_path(sf_dir), columns=["url", "text"])
    ds = build_quality_pipeline(ds, clock=Clock(datetime(2026, 1, 1)))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        kept = batch[batch["passed"]]
        return pd.DataFrame({
            "url": kept["url"].to_numpy(),
            "lang_pred": kept["lang_pred"].to_numpy(),
            "text": kept["scrubbed_text"].to_numpy(),
            "n_words": kept["n_words"].to_numpy(np.int64),
        })

    docs = ds.map_batches(keep, batch_format="pandas")
    out = exact_dedup(docs, id_column="url", text_column="text")
    return out.select_columns(["url", "lang_pred", "n_words"])


def _pages_signal_sql(path: str, source_sql: str | None = None) -> str:
    """Shared CTE block: per-page quality signals + langid + scrub over
    the persisted page parquet — the SQL twin of
    TextStats(langid=True) -> Scrubber -> WEB_QUALITY_RULES.

    ``source_sql`` overrides the (url, text) source — e.g. the generic
    HTML-extraction expression — so the whole rule stack composes over
    any text derivation with the twin staying exact."""
    src = source_sql or f"SELECT url, text FROM read_parquet('{path}')"
    scrub_defs, scrub_last, scrub_total = _scrub_ctes(
        f"({src})", "url", prefix="sc")
    banks = {lang: ", ".join(f"'{w}'" for w in STOPWORDS[lang])
             for lang in LANG_ORDER}
    return f"""
WITH pages AS ({src}),
t AS (
  SELECT url, text, regexp_extract_all(lower(text), '[a-z]+') AS toks
  FROM pages
), g AS (
  SELECT url, text, toks,
         CASE WHEN len(toks) >= 3
              THEN list_transform(range(1, len(toks) - 1),
                   i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
              ELSE CAST([] AS VARCHAR[]) END AS ngrams
  FROM t
), sig AS (
  SELECT url,
         len(regexp_extract_all(text, '\\S+')) AS n_words,
         CAST(length(text) - len(regexp_extract_all(text, '\\s'))
              AS DOUBLE)
             / greatest(len(regexp_extract_all(text, '\\S+')), 1)
             AS mean_word_len,
         CAST(length(text) - len(regexp_extract_all(text, '[A-Za-z]'))
              - len(regexp_extract_all(text, '[0-9]'))
              - len(regexp_extract_all(text, '\\s')) AS DOUBLE)
             / greatest(length(text), 1) AS symbol_ratio,
         CAST(len(regexp_extract_all(text, '[0-9]')) AS DOUBLE)
             / greatest(length(text), 1) AS digit_ratio,
         CASE WHEN len(ngrams) > 0
              THEN 1.0 - CAST(len(list_distinct(ngrams)) AS DOUBLE)
                         / len(ngrams)
              ELSE 0.0 END AS rep_3gram_ratio,
         len(list_filter(toks, x -> x IN ({banks['en']}))) AS sw_en,
         len(list_filter(toks, x -> x IN ({banks['es']}))) AS sw_es,
         len(list_filter(toks, x -> x IN ({banks['de']}))) AS sw_de,
         len(list_filter(toks, x -> x IN ({banks['fr']}))) AS sw_fr,
         len(list_filter(toks, x -> x IN ({banks['zh']}))) AS sw_zh
  FROM g
), lp AS (
  SELECT url, n_words, mean_word_len, symbol_ratio, digit_ratio,
         rep_3gram_ratio,
         {_SQL_LANG_PRED} AS lang_pred,
         CAST(greatest(sw_en, sw_es, sw_de, sw_fr, sw_zh) AS DOUBLE)
             / greatest(n_words, 1) AS stop_ratio
  FROM sig
), {scrub_defs},
err AS (
  SELECT url, lang_pred, n_words,
         (CASE WHEN n_words < 50 THEN 1 ELSE 0 END) +
         (CASE WHEN n_words > 1000 THEN 1 ELSE 0 END) +
         (CASE WHEN mean_word_len < 2.0 THEN 1 ELSE 0 END) +
         (CASE WHEN mean_word_len > 12.0 THEN 1 ELSE 0 END) +
         (CASE WHEN symbol_ratio > 0.1 THEN 1 ELSE 0 END) +
         (CASE WHEN digit_ratio > 0.2 THEN 1 ELSE 0 END) +
         (CASE WHEN rep_3gram_ratio > 0.5 THEN 1 ELSE 0 END) +
         (CASE WHEN stop_ratio < 0.05 THEN 1 ELSE 0 END) +
         (CASE WHEN lang_pred NOT IN ('en', 'es', 'de', 'fr', 'zh')
               THEN 1 ELSE 0 END) AS n_errors
  FROM lp
)"""


def sql_quality_filter_pages(path: str) -> str:
    _, scrub_last, scrub_total = _scrub_ctes(
        f"read_parquet('{path}')", "url", prefix="sc")
    return _pages_signal_sql(path) + f"""
SELECT err.url AS url, lang_pred, n_errors = 0 AS passed,
       CAST(n_errors AS INT) AS n_errors,
       CAST({scrub_total} AS BIGINT) AS n_redactions
FROM err JOIN {scrub_last} ON err.url = {scrub_last}.url
"""


def sql_pretrain_prefix_pages(path: str) -> str:
    _, scrub_last, _ = _scrub_ctes(
        f"read_parquet('{path}')", "url", prefix="sc")
    return _pages_signal_sql(path) + f""",
kept AS (
  SELECT err.url AS url, lang_pred, n_words, {scrub_last}.t AS sctext
  FROM err JOIN {scrub_last} ON err.url = {scrub_last}.url
  WHERE n_errors = 0
), hashed AS (
  SELECT url, lang_pred, n_words,
         md5(lower(trim(regexp_replace(sctext, '\\s+', ' ', 'g')))) AS h
  FROM kept
), ranked AS (
  SELECT url, lang_pred, n_words,
         row_number() OVER (PARTITION BY h ORDER BY url) AS rn
  FROM hashed
)
SELECT url, lang_pred, CAST(n_words AS BIGINT) AS n_words
FROM ranked WHERE rn = 1
"""


def sql_pretrain_pages(path: str) -> str:
    """DuckDB twin of the FULL pretrain composition: signals + scrub
    (shared CTEs) -> keep -> md5-hex-fold doc ids -> exact-dup ban
    (min id per normalized-content md5) -> MinHash near-dup ban (id_b of
    every pair at threshold 0.8) -> anti-join. Bit-exact against
    build_pretrain_pipeline over the persisted page table."""
    _, scrub_last, _ = _scrub_ctes(
        f"read_parquet('{path}')", "url", prefix="sc")
    mh_defs, mh_pairs = _sql_minhash_ctes(
        "ids", "doc_id", threshold=0.8, text_expr="sctext", prefix="nh")
    # first 60 bits of md5 over the \x1f-joined (url, warc_ts, text)
    # identity — chr(31) because DuckDB cannot concat a NUL byte
    hexfold = (
        "list_reduce(list_prepend(CAST(0 AS BIGINT), "
        "list_transform(regexp_extract_all(substring(md5("
        "url || chr(31) || CAST(warc_ts AS VARCHAR) || chr(31) || sctext"
        "), 1, 15), '.'), "
        "c -> CAST(strpos('0123456789abcdef', c) - 1 AS BIGINT))), "
        "(a, b) -> a * 16 + b)")
    return _pages_signal_sql(path) + f""",
kept AS (
  SELECT err.url AS url, lang_pred, n_words, {scrub_last}.t AS sctext,
         p.warc_ts AS warc_ts
  FROM err JOIN {scrub_last} ON err.url = {scrub_last}.url
  JOIN read_parquet('{path}') p ON err.url = p.url
  WHERE n_errors = 0
), ids AS (
  SELECT url, lang_pred, n_words, sctext, {hexfold} AS doc_id
  FROM kept
), exact_ban AS (
  SELECT doc_id FROM (
    SELECT doc_id, row_number() OVER (
        PARTITION BY
            md5(lower(trim(regexp_replace(sctext, '\\s+', ' ', 'g'))))
        ORDER BY doc_id) AS rn
    FROM ids) WHERE rn > 1
), {mh_defs},
banned AS (
  SELECT doc_id FROM exact_ban
  UNION
  SELECT id_b FROM {mh_pairs}
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, url, lang_pred,
       CAST(n_words AS BIGINT) AS n_words
FROM ids WHERE doc_id NOT IN (SELECT doc_id FROM banned)
"""


# ----------------------------------------------- linked-page operators


def _linked_pages_path(sf_dir: str) -> str:
    """Materialize the deterministic linked-page table (FIXTURES.md F8:
    messy URLs, multi-line C4-filterable text, outbound link lists)."""
    from nacc_form_validator_ray.pipelines.webgen import \
        ensure_linked_pages_parquet
    return ensure_linked_pages_parquet(_pages_n(sf_dir))


def q_c4_filter_pages(sf_dir: str):
    """C4-style heuristic line/document filter over the linked-page
    fixture: terminal-punctuation + >=5-word + no-javascript line keep,
    lorem-ipsum / curly-brace / <3-kept-lines document drop."""
    from nacc_form_validator_ray.stages.webclean import c4_line_filter
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "text"])
    return c4_line_filter(ds)


def sql_c4_filter_pages(path: str) -> str:
    return f"""
WITH p AS (SELECT doc_id, text FROM read_parquet('{path}')),
lns AS (
  SELECT doc_id, generate_subscripts(ls, 1) AS idx, unnest(ls) AS ln
  FROM (SELECT doc_id, string_split(coalesce(text, ''), chr(10)) AS ls
        FROM p)
),
flt AS (
  SELECT doc_id, idx, ln,
         (len(regexp_extract_all(ln, '\\S+')) >= 5
          AND regexp_matches(ln, '[.!?"]$')
          AND NOT contains(lower(ln), 'javascript')) AS keepln
  FROM lns
),
agg AS (
  SELECT doc_id, count(*) AS n_lines,
         sum(CASE WHEN keepln THEN 1 ELSE 0 END) AS n_kept,
         string_agg(CASE WHEN keepln THEN ln END, chr(10)
                    ORDER BY idx) AS ktext
  FROM flt GROUP BY doc_id
)
SELECT p.doc_id,
       CAST(a.n_lines AS BIGINT) AS n_lines,
       CAST(coalesce(a.n_kept, 0) AS BIGINT) AS n_kept,
       (coalesce(a.n_kept, 0) >= 3
        AND NOT contains(lower(p.text), 'lorem ipsum')
        AND NOT contains(p.text, '{{')) AS keep,
       coalesce(a.ktext, '') AS text
FROM p JOIN agg a ON a.doc_id = p.doc_id
"""


def q_url_normalize_pages(sf_dir: str):
    """URL canonicalization + duplicate-URL representative election
    over the linked-page fixture (fragment/utm/slash strip, host
    lowercasing, www./default-port removal, scheme coercion)."""
    from nacc_form_validator_ray.stages.webclean import normalize_urls
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "url"])
    return normalize_urls(ds)


#: the SQL twin applies webclean.URL_RULES / HOST_RULES verbatim —
#: both sides run RE2, so the replacement chain is byte-identical
_SQL_URL_NORM = ("regexp_replace(regexp_replace(lower(regexp_extract("
                 "{u}, '^(?i:https?)://([^/?#]+)', 1)), '^www\\.', '',"
                 " 'g'), ':(443|80)$', '', 'g')")


def _sql_url_chain(col: str) -> str:
    from nacc_form_validator_ray.stages.webclean import URL_RULES
    expr = f"coalesce({col}, '')"
    for pat, rep in URL_RULES:
        # DuckDB single-quoted literals are not backslash-escaped
        p = pat.replace("'", "''")
        expr = f"regexp_replace({expr}, '{p}', '{rep}', 'g')"
    return expr


def sql_url_normalize_pages(path: str) -> str:
    host = _SQL_URL_NORM.format(u="u")
    return f"""
WITH p AS (SELECT doc_id, url FROM read_parquet('{path}')),
s1 AS (SELECT doc_id, url, {_sql_url_chain('url')} AS u FROM p),
s2 AS (SELECT doc_id, url,
       'https://' || {host} ||
       regexp_replace(u, '^(?i:https?)://[^/?#]+', '') AS norm_url
       FROM s1)
SELECT doc_id, url, norm_url,
       (doc_id = min(doc_id) OVER (PARTITION BY norm_url))
           AS is_canonical
FROM s2
"""


def q_host_pagerank(sf_dir: str):
    """Fixed-point integer PageRank over the host link graph of the
    linked-page fixture — 5 power iterations, each one hash join plus
    one grouped-sum exchange."""
    from nacc_form_validator_ray.stages.graph import host_pagerank
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_pagerank(ds)


def sql_host_pagerank(path: str, iterations: int = 5) -> str:
    from nacc_form_validator_ray.stages.graph import PR_SCALE
    host_url = _SQL_URL_NORM.format(u="url")
    host_lk = _SQL_URL_NORM.format(u="lk")
    iters = []
    for k in range(1, iterations + 1):
        iters.append(f"""
r{k} AS (
  SELECT host, CAST(sum(v) AS BIGINT) AS r FROM (
    SELECT host, ((({PR_SCALE} // nn.cnt) * 15) // 100) AS v
    FROM nodes, nn
    UNION ALL
    SELECT e.dst AS host, (85 * p.r) // (100 * o.c) AS v
    FROM edges e
    JOIN r{k - 1} p ON p.host = e.src
    JOIN outdeg o ON o.src = e.src
  ) GROUP BY host
)""")
    return f"""
WITH pg AS (SELECT url, links FROM read_parquet('{path}')),
e0 AS (SELECT {host_url} AS src, unnest(links) AS lk FROM pg),
e1 AS (SELECT src, {host_lk} AS dst FROM e0),
nodes AS (SELECT DISTINCT {host_url} AS host FROM pg),
nn AS (SELECT count(*) AS cnt FROM nodes),
outdeg AS (SELECT src, count(*) AS c FROM e1 GROUP BY src),
edges AS (SELECT src, dst FROM e1
          WHERE dst IN (SELECT host FROM nodes)),
r0 AS (SELECT host, CAST({PR_SCALE} // cnt AS BIGINT) AS r
       FROM nodes, nn),
{','.join(iters)}
SELECT host, r AS rank_fp,
       CAST(r AS DOUBLE) / {float(PR_SCALE)} AS "rank"
FROM r{iterations}
"""


def q_dup_ngram_spans_hashed(sf_dir: str):
    """The 100-TB variant of dup_ngram_spans: the heavy exchange
    carries 62-bit shingle keys (two independent mod-P31 folds over
    dictionary-hashed tokens), then an exact-string verify pass over
    the flagged (dup-rate-bounded) subset removes every collision —
    same rows, same oracle as the exact-string path."""
    from nacc_form_validator_ray.stages.dedup import dup_ngram_spans
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "text"])
    return dup_ngram_spans(ds, k=3, min_docs=2, via="hashed")


def q_web_clean_pages(sf_dir: str):
    """Composed web-cleaning pipeline over the linked-page fixture:
    URL canonicalization elects one representative per canonical URL
    (recrawl dedup), then the C4 line/document filter cleans the
    survivors. Payload discipline: the url exchange runs on the lean
    (doc_id, url) projection — text joins back by id afterwards and
    never rides the shuffle."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.webclean import (c4_line_filter,
                                                         normalize_urls)
    path = _linked_pages_path(sf_dir)
    urls = _rd().read_parquet(path, columns=["doc_id", "url"])
    canon = normalize_urls(urls) \
        .filter(expr="is_canonical") \
        .select_columns(["doc_id", "norm_url"])
    docs = _rd().read_parquet(path, columns=["doc_id", "text"])
    kept = hash_join(docs, canon, on=["doc_id"])
    # norm_url rides the filter as a passthrough column — no second
    # join to re-attach it
    out = c4_line_filter(kept, passthrough=("norm_url",))
    out = out.map_batches(lambda b: b.filter(b["keep"]),
                          batch_format="pyarrow")
    return out.select_columns(["doc_id", "norm_url", "n_lines",
                               "n_kept", "text"])


def sql_web_clean_pages(path: str) -> str:
    host = _SQL_URL_NORM.format(u="u")
    return f"""
WITH p AS (SELECT doc_id, url, text FROM read_parquet('{path}')),
s1 AS (SELECT doc_id, {_sql_url_chain('url')} AS u FROM p),
s2 AS (SELECT doc_id,
       'https://' || {host} ||
       regexp_replace(u, '^(?i:https?)://[^/?#]+', '') AS norm_url
       FROM s1),
canon AS (
  SELECT doc_id, norm_url FROM (
    SELECT doc_id, norm_url,
           doc_id = min(doc_id) OVER (PARTITION BY norm_url) AS isc
    FROM s2) WHERE isc
),
lns AS (
  SELECT doc_id, generate_subscripts(ls, 1) AS idx, unnest(ls) AS ln
  FROM (SELECT p.doc_id, string_split(coalesce(p.text, ''), chr(10))
            AS ls
        FROM p JOIN canon c ON c.doc_id = p.doc_id)
),
flt AS (
  SELECT doc_id, idx, ln,
         (len(regexp_extract_all(ln, '\\S+')) >= 5
          AND regexp_matches(ln, '[.!?"]$')
          AND NOT contains(lower(ln), 'javascript')) AS keepln
  FROM lns
),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines,
         CAST(sum(CASE WHEN keepln THEN 1 ELSE 0 END) AS BIGINT)
             AS n_kept,
         string_agg(CASE WHEN keepln THEN ln END, chr(10)
                    ORDER BY idx) AS ktext
  FROM flt GROUP BY doc_id
)
SELECT c.doc_id, c.norm_url, a.n_lines,
       coalesce(a.n_kept, 0) AS n_kept,
       coalesce(a.ktext, '') AS text
FROM canon c
JOIN agg a ON a.doc_id = c.doc_id
JOIN p ON p.doc_id = c.doc_id
WHERE coalesce(a.n_kept, 0) >= 3
  AND NOT contains(lower(p.text), 'lorem ipsum')
  AND NOT contains(p.text, '{{')
"""


def q_domain_filter_docs(sf_dir: str, min_rate: float = 0.5):
    """Domain-level quality gating (the blocklist-building stage): run
    the C4 document filter, aggregate keep-rates per host, and drop
    EVERY document of a host whose keep-rate falls below ``min_rate`` —
    low-quality domains lose even their individually-passing pages.

    Scale shape: the per-doc flags ride a lean (doc_id, host, keep)
    projection; the host rollup is one grouped exchange over the
    bounded host dimension, whose verdict broadcasts back into a
    map-only final pass (ray.put, read per actor)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    from nacc_form_validator_ray.stages.webclean import c4_line_filter

    path = _linked_pages_path(sf_dir)
    flags = c4_line_filter(
        _rd().read_parquet(path, columns=["doc_id", "text"])) \
        .select_columns(["doc_id", "keep"])

    def host_proj(batch: "pa.Table") -> "pa.Table":
        return pa.table({"doc_id": batch["doc_id"],
                         "host": _host_of(batch["url"], pc)})

    hosts = _rd().read_parquet(path, columns=["doc_id", "url"]) \
        .map_batches(host_proj, batch_format="pyarrow")
    tagged = hash_join(flags, hosts, on=["doc_id"],
                       num_partitions=32).materialize()

    def rate_partial(batch: "pa.Table") -> "pa.Table":
        k = batch["keep"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return _pa_grouped_agg(
            pa.table({"host": batch["host"],
                      "n_docs": pa.array(np.ones(len(k), np.int64)),
                      "n_keep": pa.array(k)}),
            ["host"], [("n_docs", "sum"), ("n_keep", "sum")],
            ["n_docs", "n_keep"])

    per_host = grouped_agg_sum(
        tagged.map_batches(rate_partial, batch_format="pyarrow"),
        ["host"], ["n_docs", "n_keep"], num_partitions=32)
    hs, rates = [], {}
    for b in per_host.iter_batches(batch_format="pyarrow",
                                   batch_size=65536):
        h = b["host"].to_pylist()
        r = (b["n_keep"].to_numpy(zero_copy_only=False)
             .astype(np.float64)
             / b["n_docs"].to_numpy(zero_copy_only=False)
             .astype(np.float64))
        rates.update(zip(h, r))
    rate_ref = ray.put(rates)

    class Gate:
        def __init__(self, ref, thresh):
            self.rates = ray.get(ref)
            self.thresh = thresh

        def __call__(self, batch: "pa.Table") -> "pa.Table":
            h = batch["host"]
            if isinstance(h, pa.ChunkedArray):
                h = h.combine_chunks()
            enc = pc.dictionary_encode(h)
            per_host = np.array(
                [self.rates.get(x, 0.0)
                 for x in enc.dictionary.to_pylist()],
                dtype=np.float64)
            hr = per_host[enc.indices.to_numpy()]
            dk = batch["keep"].to_numpy(zero_copy_only=False)
            return pa.table({
                "doc_id": batch["doc_id"],
                "host": batch["host"],
                "doc_keep": batch["keep"],
                "host_keep_rate": pa.array(hr),
                "keep": pa.array(dk & (hr >= self.thresh)),
            })

    return tagged.map_batches(Gate, fn_constructor_kwargs=dict(
        ref=rate_ref, thresh=min_rate), batch_format="pyarrow",
        concurrency=(1, 8))


def sql_domain_filter_docs(path: str, min_rate: float = 0.5) -> str:
    host = _SQL_URL_NORM.format(u="url")
    return f"""
WITH p AS (SELECT doc_id, url, text FROM read_parquet('{path}')),
lns AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), chr(10)))
      AS ln
  FROM p
),
agg AS (
  SELECT doc_id,
         sum(CASE WHEN len(regexp_extract_all(ln, '\\S+')) >= 5
                   AND regexp_matches(ln, '[.!?"]$')
                   AND NOT contains(lower(ln), 'javascript')
              THEN 1 ELSE 0 END) AS n_kept
  FROM lns GROUP BY doc_id
),
flags AS (
  SELECT p.doc_id, {host} AS host,
         (coalesce(a.n_kept, 0) >= 3
          AND NOT contains(lower(p.text), 'lorem ipsum')
          AND NOT contains(p.text, '{{')) AS doc_keep
  FROM p JOIN agg a ON a.doc_id = p.doc_id
),
hr AS (
  SELECT host,
         CAST(sum(CASE WHEN doc_keep THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(count(*) AS DOUBLE) AS host_keep_rate
  FROM flags GROUP BY host
)
SELECT f.doc_id, f.host, f.doc_keep, h.host_keep_rate,
       (f.doc_keep AND h.host_keep_rate >= {min_rate}) AS keep
FROM flags f JOIN hr h ON h.host = f.host
"""


def q_url_blocklist(sf_dir: str):
    """URL-keyword blocklist filtering (adult/gambling/tracker/
    shortener rules) over the linked-page fixture — map-only, one Arrow
    RE2 kernel call per rule per batch."""
    from nacc_form_validator_ray.stages.webclean import \
        url_blocklist_filter
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "url"])
    return url_blocklist_filter(ds)


def sql_url_blocklist(path: str) -> str:
    from nacc_form_validator_ray.stages.webclean import URL_BLOCKLIST
    conds = [(name, pat.replace("'", "''"))
             for name, pat in URL_BLOCKLIST]
    whens = "\n".join(
        f"    WHEN regexp_matches(lower(coalesce(url, '')), '{p}') "
        f"THEN '{n}'" for n, p in conds)
    anymatch = " OR ".join(
        f"regexp_matches(lower(coalesce(url, '')), '{p}')"
        for _, p in conds)
    return f"""
SELECT doc_id, url, ({anymatch}) AS blocked,
  CASE
{whens}
    ELSE '' END AS block_rule
FROM read_parquet('{path}')
"""


def q_incremental_ingest(sf_dir: str):
    """Incremental recrawl ingestion: treat even doc_ids as the
    existing (already-ingested) corpus and odd doc_ids as the new
    crawl delta; a delta page survives iff its canonical URL is absent
    from the corpus, then one representative per canonical URL is
    elected within the delta. Anti-join and election both key on
    norm_url, so they FUSE into ONE hash exchange: each partition sees
    every row of its urls (both sides, side-tagged) and emits the min
    delta id for urls with no corpus row. No broadcast — the
    existing-URL side is corpus-sized and rides the same exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.webclean import \
        _normalize_url_array

    def add_norm(batch: "pa.Table") -> "pa.Table":
        url = batch["url"]
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        return pa.table({
            "doc_id": batch["doc_id"],
            "norm_url": _normalize_url_array(url, pc)})

    norm = _rd().read_parquet(_linked_pages_path(sf_dir),
                              columns=["doc_id", "url"]) \
        .map_batches(add_norm, batch_format="pyarrow")

    def new_representatives(part: "pa.Table") -> "pa.Table":
        import pandas as pd
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        codes, uniques = pd.factorize(
            part["norm_url"].to_numpy(zero_copy_only=False))
        n = len(uniques)
        has_existing = np.zeros(n, dtype=bool)
        np.logical_or.at(has_existing, codes, ids % 2 == 0)
        best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        delta = ids % 2 == 1
        np.minimum.at(best, codes[delta], ids[delta])
        keep = ~has_existing & (best != np.iinfo(np.int64).max)
        return pa.table({
            "doc_id": pa.array(best[keep]),
            "norm_url": pa.array(np.asarray(uniques, dtype=object)[keep],
                                 pa.string()),
        })

    return grouped_apply(norm, ["norm_url"], new_representatives,
                         num_partitions=32, fn_format="pyarrow")


def sql_incremental_ingest(path: str) -> str:
    host = _SQL_URL_NORM.format(u="u")
    return f"""
WITH p AS (SELECT doc_id, url FROM read_parquet('{path}')),
s1 AS (SELECT doc_id, {_sql_url_chain('url')} AS u FROM p),
n AS (SELECT doc_id,
      'https://' || {host} ||
      regexp_replace(u, '^(?i:https?)://[^/?#]+', '') AS norm_url
      FROM s1),
ex AS (SELECT norm_url FROM n WHERE doc_id % 2 = 0),
dl AS (SELECT doc_id, norm_url FROM n WHERE doc_id % 2 = 1),
surv AS (SELECT doc_id, norm_url FROM dl
         WHERE norm_url NOT IN (SELECT norm_url FROM ex))
SELECT CAST(min(doc_id) AS BIGINT) AS doc_id, norm_url
FROM surv GROUP BY norm_url
"""


def q_host_hits(sf_dir: str):
    """HITS hubs/authorities over the host link graph — 5 exact
    fixed-point power iterations on the Pregel fabric shared with
    host_pagerank."""
    from nacc_form_validator_ray.stages.graph import host_hits
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_hits(ds)


def sql_host_hits(path: str, iterations: int = 5) -> str:
    from nacc_form_validator_ray.stages.graph import PR_SCALE
    host_url = _SQL_URL_NORM.format(u="url")
    host_lk = _SQL_URL_NORM.format(u="lk")
    S = PR_SCALE
    stages = []
    for k in range(1, iterations + 1):
        stages.append(f"""
ar{k} AS MATERIALIZED (
  SELECT e.dst AS host, CAST(sum(h.v) AS BIGINT) AS v
  FROM edges e JOIN h{k - 1} h ON h.host = e.src GROUP BY e.dst
),
a{k} AS MATERIALIZED (
  SELECT host, v // ((SELECT (max(v) + {S} - 1) // {S} FROM ar{k}))
      AS v
  FROM ar{k}
),
hr{k} AS MATERIALIZED (
  SELECT e.src AS host, CAST(sum(a.v) AS BIGINT) AS v
  FROM edges e JOIN a{k} a ON a.host = e.dst GROUP BY e.src
),
h{k} AS MATERIALIZED (
  SELECT host, v // ((SELECT (max(v) + {S} - 1) // {S} FROM hr{k}))
      AS v
  FROM hr{k}
)""")
    return f"""
WITH pg AS (SELECT url, links FROM read_parquet('{path}')),
e0 AS (SELECT {host_url} AS src, unnest(links) AS lk FROM pg),
e1 AS (SELECT src, {host_lk} AS dst FROM e0),
nodes AS (SELECT DISTINCT {host_url} AS host FROM pg),
edges AS MATERIALIZED (
  SELECT src, dst FROM e1 WHERE dst IN (SELECT host FROM nodes)),
h0 AS (SELECT host, CAST({S} AS BIGINT) AS v FROM nodes),
{','.join(stages)}
SELECT n.host,
       coalesce(a.v, 0) AS auth_fp, coalesce(h.v, 0) AS hub_fp,
       CAST(coalesce(a.v, 0) AS DOUBLE) / {float(S)} AS auth,
       CAST(coalesce(h.v, 0) AS DOUBLE) / {float(S)} AS hub
FROM nodes n
LEFT JOIN a{iterations} a ON a.host = n.host
LEFT JOIN h{iterations} h ON h.host = n.host
"""


#: the reference rule vocabulary applied to web-page metadata — the
#: north-star shape: Cerberus-style schema rules gating crawl records
LINKPAGE_RULES = {
    "url": {"type": "string", "required": True,
            "regex": "^https://[a-z0-9.-]+(/.*)?$"},
    "n_links": {"type": "integer", "min": 0, "max": 5},
    "n_chars": {"type": "integer", "min": 40},
}


def q_validator_linkpages(sf_dir: str):
    """The reference's rule engine over web-page metadata: canonical
    urls must match the https pattern, outbound-link counts stay <= 5,
    and pages carry >= 40 chars of text — per-document error vectors
    exactly like the validator queries on the TPC-H tables."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.validate import validate_dataset
    from nacc_form_validator_ray.stages.webclean import \
        _normalize_url_array

    def project(batch: "pa.Table") -> "pa.Table":
        url = batch["url"]
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        return pa.table({
            "doc_id": batch["doc_id"],
            "url": _normalize_url_array(url, pc),
            "n_links": pc.list_value_length(
                batch["links"]).cast(pa.int64()),
            "n_chars": pc.utf8_length(
                pc.fill_null(batch["text"], "")).cast(pa.int64()),
        })

    ds = _rd().read_parquet(_linked_pages_path(sf_dir)) \
        .map_batches(project, batch_format="pyarrow")
    out = validate_dataset(ds, LINKPAGE_RULES, strict=False,
                           collect="none")
    return out.select_columns(["doc_id", "passed", "n_errors"])


def sql_validator_linkpages(path: str) -> str:
    host = _SQL_URL_NORM.format(u="u")
    return f"""
WITH p AS (SELECT doc_id, url, text, links FROM read_parquet('{path}')),
s1 AS (SELECT doc_id, {_sql_url_chain('url')} AS u, text, links FROM p),
n AS (SELECT doc_id,
      'https://' || {host} ||
      regexp_replace(u, '^(?i:https?)://[^/?#]+', '') AS url,
      len(links) AS n_links,
      length(coalesce(text, '')) AS n_chars
      FROM s1)
SELECT doc_id, n_errors = 0 AS passed, CAST(n_errors AS INT) AS n_errors
FROM (
  SELECT doc_id,
         (CASE WHEN NOT regexp_matches(url,
               '^https://[a-z0-9.-]+(/.*)?$') THEN 1 ELSE 0 END) +
         (CASE WHEN n_links > 5 THEN 1 ELSE 0 END) +
         (CASE WHEN n_chars < 40 THEN 1 ELSE 0 END) AS n_errors
  FROM n
)
"""


def q_inlink_stats(sf_dir: str):
    """Per-host inlink statistics (total inbound links + distinct
    linking hosts) over the linked-page fixture's link graph."""
    from nacc_form_validator_ray.stages.graph import inlink_stats
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return inlink_stats(ds)


def sql_inlink_stats(path: str) -> str:
    host_url = _SQL_URL_NORM.format(u="url")
    host_lk = _SQL_URL_NORM.format(u="lk")
    return f"""
WITH pg AS (SELECT url, links FROM read_parquet('{path}')),
e0 AS (SELECT {host_url} AS src, unnest(links) AS lk FROM pg),
e1 AS (SELECT src, {host_lk} AS dst FROM e0),
nodes AS (SELECT DISTINCT {host_url} AS host FROM pg),
agg AS (
  SELECT dst AS host, CAST(count(*) AS BIGINT) AS n_inlinks,
         CAST(count(DISTINCT src) AS BIGINT) AS n_src_hosts
  FROM e1 WHERE dst IN (SELECT host FROM nodes) GROUP BY dst
)
SELECT n.host, coalesce(a.n_inlinks, 0) AS n_inlinks,
       coalesce(a.n_src_hosts, 0) AS n_src_hosts
FROM nodes n LEFT JOIN agg a ON a.host = n.host
"""


def q_dup_ngram_spans(sf_dir: str):
    """Bounded exact-substring duplication audit: per-document count
    and token coverage of 3-gram shingles shared with other documents
    (linked-page fixture — its boilerplate lines guarantee real
    cross-document spans).

    Registered DEFAULT is ``via="auto"`` (cost-based exchange
    selection): a sampled prefix measures the cross-doc duplication
    rate; low-dup corpora ride the hashed two-phase (62-bit keys +
    exact-string verify over the flagged subset — the 100-TB shape,
    round-3 VERDICT #1), while boilerplate-heavy corpora (where the
    flagged subset ≈ the corpus and hashed pays both phases for
    nothing) route to the exact single exchange. All paths return
    identical rows; ``dup_ngram_spans_exact`` / ``_hashed`` pin each
    path explicitly."""
    from nacc_form_validator_ray.stages.dedup import dup_ngram_spans
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "text"])
    return dup_ngram_spans(ds, k=3, min_docs=2, via="auto")


def q_dup_ngram_spans_exact(sf_dir: str):
    """The exact-string exchange variant (corpus-sized shuffle payload
    — the verify/debug path, not the scale default)."""
    from nacc_form_validator_ray.stages.dedup import dup_ngram_spans
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "text"])
    return dup_ngram_spans(ds, k=3, min_docs=2, via="exact")


def sql_dup_ngram_spans(path: str, k: int = 3, min_docs: int = 2) -> str:
    return f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS toks
  FROM read_parquet('{path}')
), sh0 AS (
  SELECT doc_id, toks,
         unnest(range(1, greatest(len(toks) - {k} + 2, 1))) AS i
  FROM t
), sh AS (
  SELECT doc_id, i, array_to_string(toks[i:i + {k} - 1], ' ') AS s
  FROM sh0
), dup AS (
  SELECT s FROM (SELECT s, doc_id FROM sh GROUP BY s, doc_id)
  GROUP BY s HAVING count(*) >= {min_docs}
), dpos AS (
  SELECT doc_id, i FROM sh WHERE s IN (SELECT s FROM dup)
), cov AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup,
         CAST(sum(c) AS BIGINT) AS dup_cov
  FROM (
    SELECT doc_id,
           least({k}, coalesce(lead(i) OVER (PARTITION BY doc_id
                                             ORDER BY i) - i, {k})) AS c
    FROM dpos)
  GROUP BY doc_id
)
SELECT t.doc_id, CAST(len(t.toks) AS BIGINT) AS n_tokens,
       CAST(greatest(len(t.toks) - {k} + 1, 0) AS BIGINT) AS n_shingles,
       coalesce(c.n_dup, 0) AS n_dup,
       coalesce(c.dup_cov, 0) AS dup_cov,
       CASE WHEN len(t.toks) > 0
            THEN CAST(coalesce(c.dup_cov, 0) AS DOUBLE)
                 / CAST(len(t.toks) AS DOUBLE)
            ELSE 0.0 END AS dup_frac
FROM t LEFT JOIN cov c ON c.doc_id = t.doc_id
"""


def flagship_oracles(sf_dir: str) -> Dict[str, str]:
    """DuckDB twins for the flagship page pipelines — materializes the
    deterministic page table first so the SQL can run regardless of
    whether the Ray query ran before it."""
    path = _pages_path(sf_dir)
    lp = _linked_pages_path(sf_dir)
    return {
        "quality_filter_pages": sql_quality_filter_pages(path),
        "html_extract_pages": sql_html_extract_pages(path),
        "quality_filter_html_pages":
            sql_quality_filter_html_pages(path),
        "pretrain_prefix_pages": sql_pretrain_prefix_pages(path),
        "pretrain_pages": sql_pretrain_pages(path),
        "host_doc_counts": sql_host_doc_counts(path),
        "ivf_knn_embeddings": sql_ivf_knn(sf_dir),
        "c4_filter_pages": sql_c4_filter_pages(lp),
        "url_normalize_pages": sql_url_normalize_pages(lp),
        "host_pagerank": sql_host_pagerank(lp),
        "inlink_stats": sql_inlink_stats(lp),
        "dup_ngram_spans": sql_dup_ngram_spans(lp),
        "dup_ngram_spans_hashed": sql_dup_ngram_spans(lp),
        "dup_ngram_spans_exact": sql_dup_ngram_spans(lp),
        "web_clean_pages": sql_web_clean_pages(lp),
        "domain_filter_docs": sql_domain_filter_docs(lp),
        "url_blocklist": sql_url_blocklist(lp),
        "incremental_ingest": sql_incremental_ingest(lp),
        "host_hits": sql_host_hits(lp),
        "validator_linkpages": sql_validator_linkpages(lp),
        "host_triangles": sql_host_triangles(lp),
        "host_kcore": sql_host_kcore(lp),
        "host_bfs": sql_host_bfs(lp),
        "ivf_recall_eval": _sql_ivf_recall(sf_dir),
        **{name: fn(lp, sql_url_norm=_SQL_URL_NORM)
           for name, fn in _min_linked_sql().items()},
        **{name: fn(lp, sql_url_norm=_SQL_URL_NORM)
           for name, fn in _cur_linked_sql().items()},
    }


def _sql_ivf_recall(sf_dir: str) -> str:
    """ANN recall twin: composes the static brute-force kNN twin with
    the sf-dependent IVF twin (which embeds the persisted centroid
    model as literals)."""
    from nacc_form_validator_ray.pipelines.mining import \
        sql_ivf_recall_eval
    return sql_ivf_recall_eval(SQL_KNN, sql_ivf_knn(sf_dir))


def _min_linked_sql():
    """Late import: pipelines.mining imports helpers from this module,
    so its registry is resolved lazily here (the module-bottom
    ``MIN_LINKED_SQL`` import has already run by the time any caller
    invokes flagship_oracles)."""
    from nacc_form_validator_ray.pipelines.mining import MIN_LINKED_SQL
    return MIN_LINKED_SQL


def _cur_linked_sql():
    """Late import twin of ``_min_linked_sql`` for pipelines.curation."""
    from nacc_form_validator_ray.pipelines.curation import \
        CUR_LINKED_SQL
    return CUR_LINKED_SQL


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

QUERIES: Dict[str, Callable[[str], Any]] = {
    "text_stats": q_text_stats,
    "repetition_docs": q_repetition_docs,
    "langid": q_langid,
    "quality_filter_docs": q_quality_filter,
    "pii_scrub": q_pii_scrub,
    "token_count_by_source": q_token_count_by_source,
    "dedup_exact": q_dedup_exact,
    "line_dedup_docs": q_line_dedup,
    "pack_sequences": q_pack_sequences,
    "select_token_budget": q_select_budget,
    "score_recompute": q_score_recompute,
    "jaccard_pairs": q_jaccard_pairs,
    "temporal_events": q_temporal_events,
    "events_window": q_events_window,
    "events_type_stats": q_events_type_stats,
    "knn_embeddings": q_knn,
    "q1_lineitem": q_q1_lineitem,
    "top_orders": q_top_orders,
    "segment_revenue": q_segment_revenue,
    "ship_delay": q_ship_delay,
    "part_filter": q_part_filter,
    "supplier_region": q_supplier_region,
    "validator_customer": q_validator_customer,
    "validator_lineitem": q_validator_lineitem,
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "embedding_neardup": q_embedding_neardup,
    "fingerprint_docs": q_fingerprint_docs,
    "multimodal_decode": q_multimodal_decode,
    "quality_filter_pages": q_quality_filter_pages,
    "pretrain_prefix_pages": q_pretrain_prefix_pages,
}

ORACLE_SQL: Dict[str, str] = {
    "text_stats": SQL_TEXT_STATS,
    "langid": SQL_LANGID,
    "quality_filter_docs": SQL_QUALITY_FILTER,
    "pii_scrub": _sql_scrub(),
    "token_count_by_source": SQL_TOKEN_COUNT,
    "dedup_exact": SQL_DEDUP_EXACT,
    "score_recompute": SQL_SCORE_RECOMPUTE,
    "jaccard_pairs": SQL_JACCARD_PAIRS,
    "temporal_events": SQL_TEMPORAL_EVENTS,
    "events_window": SQL_EVENTS_WINDOW,
    "events_type_stats": SQL_EVENTS_TYPE_STATS,
    "knn_embeddings": SQL_KNN,
    "q1_lineitem": SQL_Q1,
    "top_orders": SQL_TOP_ORDERS,
    "segment_revenue": SQL_SEGMENT_REVENUE,
    "ship_delay": SQL_SHIP_DELAY,
    "part_filter": SQL_PART_FILTER,
    "supplier_region": SQL_SUPPLIER_REGION,
    "validator_customer": SQL_VALIDATOR_CUSTOMER,
    "validator_lineitem": SQL_VALIDATOR_LINEITEM,
}

ORACLE_SQL["minhash_pairs"] = _sql_minhash_pairs()
ORACLE_SQL["simhash_pairs"] = _sql_simhash_pairs()
ORACLE_SQL["embedding_neardup"] = _sql_embedding_neardup()
ORACLE_SQL["multimodal_decode"] = SQL_MULTIMODAL_DECODE
ORACLE_SQL["repetition_docs"] = SQL_REPETITION_DOCS
ORACLE_SQL["line_dedup_docs"] = SQL_LINE_DEDUP_DOCS
ORACLE_SQL["pack_sequences"] = SQL_PACK_SEQUENCES
ORACLE_SQL["select_token_budget"] = SQL_SELECT_BUDGET


# --------------------------------------------------------------------------
# additional relational operators: windows, distinct, sampling, union
# --------------------------------------------------------------------------


def q_orders_by_month(sf_dir: str):
    """Calendar rollup (tumbling month window)."""
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    ds = _rd().read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["o_orderdate"]
        month = (d.dt.year * 100 + d.dt.month).to_numpy(np.int64)
        cents = np.floor(
            batch["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"order_month": month, "n_orders": 1,
                          "revenue_cents": cents})
        return g.groupby("order_month", as_index=False).sum()

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_agg_sum(partials, ["order_month"],
                           ["n_orders", "revenue_cents"],
                           num_partitions=16)


SQL_ORDERS_BY_MONTH = """
SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT)
           AS order_month,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
           AS BIGINT) AS revenue_cents
FROM orders GROUP BY 1
"""


def q_orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP(year, month) — the multi-granularity subtotal
    shape (grouping sets). ONE exchange at the finest grain (year,
    month); the coarser levels (per-year subtotals, grand total) derive
    from the AGGREGATE-sized fine table on the driver — re-aggregating
    a few hundred rows, never the data. Missing keys are coalesced to
    -1 on both sides (months are 1-12, years positive — no collision)."""
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    ds = _rd().read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["o_orderdate"]
        cents = np.floor(
            batch["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"o_year": d.dt.year.to_numpy(np.int64),
                          "o_month": d.dt.month.to_numpy(np.int64),
                          "n_orders": 1, "revenue_cents": cents})
        return g.groupby(["o_year", "o_month"], as_index=False).sum()

    fine = grouped_agg_sum(
        ds.map_batches(partial, batch_format="pandas"),
        ["o_year", "o_month"], ["n_orders", "revenue_cents"],
        num_partitions=8).to_pandas()
    per_year = fine.groupby("o_year", as_index=False)[
        ["n_orders", "revenue_cents"]].sum()
    per_year["o_month"] = np.int64(-1)
    total = pd.DataFrame({
        "o_year": [np.int64(-1)], "o_month": [np.int64(-1)],
        "n_orders": [fine["n_orders"].sum()],
        "revenue_cents": [fine["revenue_cents"].sum()]})
    cols = ["o_year", "o_month", "n_orders", "revenue_cents"]
    out = pd.concat([fine[cols], per_year[cols], total[cols]],
                    ignore_index=True)
    return out.astype({c: np.int64 for c in cols})


SQL_ORDERS_ROLLUP = """
SELECT CAST(coalesce(year(o_orderdate), -1) AS BIGINT) AS o_year,
       CAST(coalesce(CASE WHEN GROUPING(month(o_orderdate)) = 1
                          THEN NULL ELSE month(o_orderdate) END, -1)
            AS BIGINT) AS o_month,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_cents
FROM orders
GROUP BY ROLLUP(year(o_orderdate), month(o_orderdate))
"""

QUERIES["orders_rollup"] = q_orders_rollup
ORACLE_SQL["orders_rollup"] = SQL_ORDERS_ROLLUP


def q_daily_activity_full(sf_dir: str):
    """FULL OUTER join of two pre-aggregated daily series (order counts
    vs event counts by calendar day) — days with activity on EITHER
    side survive, the other side null-filled to 0. Both sides
    pre-aggregate per batch, so only (day, count) partials ride the two
    tiny exchanges and the full-outer hash join sees aggregate-sized
    inputs; the join itself is one more key exchange."""
    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    rd_ = _rd()

    def day_partial(col_ts, out_name):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            d = batch[col_ts]
            day = (d.dt.year * 10000 + d.dt.month * 100
                   + d.dt.day).to_numpy(np.int64)
            g = pd.DataFrame({"day": day, out_name: 1})
            return g.groupby("day", as_index=False).sum()
        return fn

    orders = rd_.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderdate"])
    events = rd_.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["ts"])
    od = grouped_agg_sum(
        orders.map_batches(day_partial("o_orderdate", "n_orders"),
                           batch_format="pandas"),
        ["day"], ["n_orders"], num_partitions=8)
    ed = grouped_agg_sum(
        events.map_batches(day_partial("ts", "n_events"),
                           batch_format="pandas"),
        ["day"], ["n_events"], num_partitions=8)
    joined = hash_join(od, ed, on="day", how="full",
                       num_partitions=8)

    def fill(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": batch["day"].to_numpy(np.int64),
            "n_orders": batch["n_orders"].fillna(0)
            .to_numpy(np.int64),
            "n_events": batch["n_events"].fillna(0)
            .to_numpy(np.int64)})

    return joined.map_batches(fill, batch_format="pandas")


SQL_DAILY_ACTIVITY_FULL = """
WITH od AS (
  SELECT CAST(year(o_orderdate) * 10000 + month(o_orderdate) * 100
              + day(o_orderdate) AS BIGINT) AS day,
         CAST(count(*) AS BIGINT) AS n_orders
  FROM orders GROUP BY 1
), ed AS (
  SELECT CAST(year(ts) * 10000 + month(ts) * 100 + day(ts) AS BIGINT)
             AS day,
         CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1
)
SELECT coalesce(od.day, ed.day) AS day,
       coalesce(od.n_orders, 0) AS n_orders,
       coalesce(ed.n_events, 0) AS n_events
FROM od FULL OUTER JOIN ed ON od.day = ed.day
"""

QUERIES["daily_activity_full"] = q_daily_activity_full
ORACLE_SQL["daily_activity_full"] = SQL_DAILY_ACTIVITY_FULL


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users bucketed by first-seen week,
    counted in every later week they were active — the classic
    retention triangle. Per-batch partials dedup (user, week) pairs so
    only lean pairs ride the wire; ONE hash exchange on user_id
    computes each user's cohort (min week) and offsets; a tiny second
    exchange merges the (cohort_week, week_offset) histogram."""
    from nacc_form_validator_ray.stages.partition import (
        grouped_agg_sum, hash_exchange)
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["ts", "user_id"])

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        days = batch["ts"].to_numpy().astype("datetime64[D]") \
            .astype(np.int64)
        week = days // 7
        uid = batch["user_id"].to_numpy(np.int64)
        uniq = np.unique(np.stack([uid, week], axis=1), axis=0)
        return pd.DataFrame({"user_id": uniq[:, 0],
                             "week": uniq[:, 1]})

    def retention(part: pd.DataFrame) -> pd.DataFrame:
        uid = part["user_id"].to_numpy(np.int64)
        wk = part["week"].to_numpy(np.int64)
        pairs_ = np.unique(np.stack([uid, wk], axis=1), axis=0)
        uid, wk = pairs_[:, 0], pairs_[:, 1]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        sizes = np.diff(np.r_[starts, len(uid)])
        cohort = np.repeat(wk[starts], sizes)  # min week (sorted)
        key = np.stack([cohort, wk - cohort], axis=1)
        cells, n = np.unique(key, axis=0, return_counts=True)
        return pd.DataFrame({"cohort_week": cells[:, 0],
                             "week_offset": cells[:, 1],
                             "n_users": n.astype(np.int64)})

    lean = ds.map_batches(pairs, batch_format="pandas")
    cells = hash_exchange(lean, ["user_id"], retention,
                          num_partitions=8)
    return grouped_agg_sum(cells, ["cohort_week", "week_offset"],
                           ["n_users"], num_partitions=4)


SQL_COHORT_RETENTION = """
WITH uw AS (
  SELECT DISTINCT user_id,
         CAST(datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) // 7
              AS BIGINT) AS week
  FROM events
), c AS (
  SELECT user_id, min(week) AS cohort FROM uw GROUP BY user_id
)
SELECT c.cohort AS cohort_week,
       CAST(uw.week - c.cohort AS BIGINT) AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM uw JOIN c USING (user_id)
GROUP BY 1, 2
"""

QUERIES["cohort_retention"] = q_cohort_retention
ORACLE_SQL["cohort_retention"] = SQL_COHORT_RETENTION


def q_parts_never_bulk_ordered(sf_dir: str):
    """Relational EXCEPT via the distributed anti join: parts whose key
    never appears in a bulk lineitem (quantity >= 49). The key stream
    filters and pre-dedups per batch (lean single-column rows on the
    wire); no broadcast — the exchange form works when the subtrahend
    is itself corpus-sized."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.joins import anti_join
    rd_ = _rd()
    part = rd_.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_type"])

    def lean_keys(t: "pa.Table") -> "pa.Table":
        bulk = t.filter(pc.greater_equal(t["l_quantity"], 49))
        keys = np.unique(
            bulk["l_partkey"].to_numpy(zero_copy_only=False))
        return pa.table({"p_partkey": pa.array(keys)})

    bulk_keys = rd_.read_parquet(f"{sf_dir}/lineitem.parquet",
                                 columns=["l_partkey", "l_quantity"]) \
        .map_batches(lean_keys, batch_format="pyarrow")
    return anti_join(part, bulk_keys, on="p_partkey",
                     num_partitions=8)


SQL_PARTS_NEVER_BULK_ORDERED = """
SELECT p.p_partkey, p.p_type
FROM part p
JOIN (SELECT p_partkey FROM part
      EXCEPT SELECT l_partkey FROM lineitem WHERE l_quantity >= 49) k
  ON p.p_partkey = k.p_partkey
"""

QUERIES["parts_never_bulk_ordered"] = q_parts_never_bulk_ordered
ORACLE_SQL["parts_never_bulk_ordered"] = SQL_PARTS_NEVER_BULK_ORDERED


def q_parts_ordered_both_halves(sf_dir: str):
    """Relational INTERSECT (completing the set-op trio with
    union/distinct and EXCEPT): part keys ordered in BOTH the early and
    the late half of the shipping range. Each side pre-dedups per
    batch into lean tagged keys; ONE hash exchange intersects them per
    partition (a key is whole in one partition, so the per-partition
    intersection composes globally)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.partition import hash_exchange
    rd_ = _rd()
    cut = np.datetime64("1997-01-01")

    def side_keys(side: int):
        def fn(t: "pa.Table") -> "pa.Table":
            ship = t["l_shipdate"].to_numpy(zero_copy_only=False) \
                .astype("datetime64[D]")
            mask = ship < cut if side == 0 else ship >= cut
            keys = np.unique(
                t["l_partkey"].to_numpy(zero_copy_only=False)[mask])
            return pa.table({
                "p_partkey": pa.array(keys.astype(np.int64)),
                "side": pa.array(
                    np.full(len(keys), side, dtype=np.int8)),
            })
        return fn

    li = rd_.read_parquet(f"{sf_dir}/lineitem.parquet",
                          columns=["l_partkey", "l_shipdate"])
    tagged = li.map_batches(side_keys(0), batch_format="pyarrow") \
        .union(li.map_batches(side_keys(1), batch_format="pyarrow"))

    def intersect(part: pd.DataFrame) -> pd.DataFrame:
        early = set(part.loc[part["side"] == 0, "p_partkey"])
        late = part.loc[part["side"] == 1, "p_partkey"].unique()
        both = np.sort(np.array(
            [k for k in late if k in early], dtype=np.int64))
        return pd.DataFrame({"p_partkey": both})

    return hash_exchange(tagged, ["p_partkey"], intersect,
                         num_partitions=8)


SQL_PARTS_ORDERED_BOTH_HALVES = """
SELECT l_partkey AS p_partkey FROM lineitem
WHERE l_shipdate < TIMESTAMP '1997-01-01'
INTERSECT
SELECT l_partkey FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
"""

QUERIES["parts_ordered_both_halves"] = q_parts_ordered_both_halves
ORACLE_SQL["parts_ordered_both_halves"] = SQL_PARTS_ORDERED_BOTH_HALVES


def split_bucket_of(ids: "np.ndarray") -> "np.ndarray":
    """The engine's ONE split-hash definition: Knuth multiplicative
    bucket ``(doc_id * 2654435761) mod 2^32 mod 10``. Every consumer
    (split assignment, leakage audits) must route through this helper
    and :func:`sql_split_case` so the 80/10/10 mapping can never drift
    between an audit and the split it audits."""
    return ((ids.astype(np.uint64) * np.uint64(2654435761))
            % np.uint64(1 << 32)) % np.uint64(10)


_SPLIT_NAMES = np.array(["train", "val", "test"], dtype=object)


def split_names_of(ids: "np.ndarray") -> "np.ndarray":
    """bucket<8 -> train, ==8 -> val, else test (str object array)."""
    bucket = split_bucket_of(ids)
    return _SPLIT_NAMES[np.where(bucket < 8, 0,
                                 np.where(bucket == 8, 1, 2))]


def _sql_split_case_from_bucket(bucket: str) -> str:
    return (f"CASE WHEN {bucket} < 8 THEN 'train' "
            f"WHEN {bucket} = 8 THEN 'val' ELSE 'test' END")


def sql_split_case(col: str) -> str:
    """DuckDB twin of :func:`split_names_of` for an id column."""
    bucket = (f"CAST((CAST({col} AS HUGEINT) * 2654435761) "
              f"% 4294967296 % 10 AS BIGINT)")
    return _sql_split_case_from_bucket(bucket)


def q_train_val_test_split(sf_dir: str):
    """Deterministic train/val/test split assignment (80/10/10) by a
    Knuth multiplicative hash of the doc id — the standard
    content-stable split for training corpora: embarrassingly parallel
    (map-only, no exchange), reproducible across runs/partitionings,
    and a new document never moves an existing one between splits.
    The bucket is ``(doc_id * 2654435761) mod 2^32 mod 10`` — exact
    integer arithmetic on both engines (single-sourced in
    :func:`split_bucket_of` / :func:`sql_split_case`)."""
    import pyarrow as pa

    def split(batch: "pa.Table") -> "pa.Table":
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "bucket": pa.array(split_bucket_of(ids).astype(np.int64)),
            "split": pa.array(split_names_of(ids)),
        })

    ds = _docs(sf_dir, columns=["doc_id"])
    return ds.map_batches(split, batch_format="pyarrow")


SQL_TRAIN_VAL_TEST_SPLIT = f"""
WITH b AS (
  SELECT doc_id,
         CAST((CAST(doc_id AS HUGEINT) * 2654435761)
              % 4294967296 % 10 AS BIGINT) AS bucket
  FROM documents
)
SELECT doc_id, bucket,
       {_sql_split_case_from_bucket('bucket')} AS split
FROM b
"""

QUERIES["train_val_test_split"] = q_train_val_test_split
ORACLE_SQL["train_val_test_split"] = SQL_TRAIN_VAL_TEST_SPLIT


def q_distinct_event_types(sf_dir: str):
    """Distinct values (ds.unique is a shuffle; result is tiny)."""
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type"])
    values = sorted(ds.unique("event_type"))
    return pd.DataFrame({"event_type": values})


SQL_DISTINCT_EVENT_TYPES = """
SELECT DISTINCT event_type FROM events
"""


def q_topk_lineitems_per_order(sf_dir: str):
    """Windowed top-k: 2 priciest line items per order (rank within
    partition). One hash exchange + vectorized sort/head per partition."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    ds = _rd().read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_linenumber",
                                     "l_extendedprice"])

    def topk(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(
            ["l_orderkey", "l_extendedprice", "l_linenumber"],
            ascending=[True, False, True])
        g = part.groupby("l_orderkey", sort=False)
        out = part.copy()
        out["rank"] = g.cumcount() + 1
        out = out[out["rank"] <= 2]
        out["l_linenumber"] = out["l_linenumber"].astype(np.int64)
        out["rank"] = out["rank"].astype(np.int64)
        return out[["l_orderkey", "l_linenumber", "l_extendedprice",
                    "rank"]]

    return grouped_apply(ds, ["l_orderkey"], topk, num_partitions=32)


SQL_TOPK_LINEITEMS = """
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       l_extendedprice, CAST(rank AS BIGINT) AS rank
FROM (
  SELECT l_orderkey, l_linenumber, l_extendedprice,
         row_number() OVER (PARTITION BY l_orderkey
                            ORDER BY l_extendedprice DESC,
                                     l_linenumber) AS rank
  FROM lineitem
)
WHERE rank <= 2
"""


def q_sample_events(sf_dir: str):
    """Deterministic systematic sample (reproducible across runs and
    cluster sizes, unlike random_sample)."""
    import pyarrow.compute as pc
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "event_type", "value"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t["event_id"], 15), 0)),
        batch_format="pyarrow")


SQL_SAMPLE_EVENTS = """
SELECT event_id, event_type, value FROM events
WHERE event_id & 15 = 0
"""


def q_stratified_sample(sf_dir: str):
    """Deterministic per-source stratified sample of documents (domain
    reweighting): each source gets the pseudo-random rate
    charfold(source) mod 2^16 over 2^16."""
    from nacc_form_validator_ray.stages.sampling import stratified_sample
    ds = _docs(sf_dir, columns=["doc_id", "source"])
    return stratified_sample(ds, group_column="source",
                             id_column="doc_id")


def _sql_stratified_sample() -> str:
    from nacc_form_validator_ray.stages.dedup import P31, TOKEN_FOLD_MULT
    from nacc_form_validator_ray.stages.sampling import (SAMPLE_A,
                                                         SAMPLE_B)
    fold = _sql_charfold("source", TOKEN_FOLD_MULT)
    return f"""
SELECT doc_id, source FROM documents
WHERE (({SAMPLE_A} * (doc_id % {P31}) + {SAMPLE_B}) % {P31}) % 65536
      < {fold} % 65536
"""


QUERIES["stratified_sample"] = q_stratified_sample
ORACLE_SQL["stratified_sample"] = _sql_stratified_sample()


def q_shuffle_manifest(sf_dir: str):
    """Global pseudo-random shuffle as a rank manifest — payloads never
    move; the loader gathers by position."""
    from nacc_form_validator_ray.stages.pack import shuffle_manifest
    ds = _docs(sf_dir, columns=["doc_id"])
    return shuffle_manifest(ds)


def _sql_shuffle_manifest() -> str:
    from nacc_form_validator_ray.stages.dedup import P31
    from nacc_form_validator_ray.stages.sampling import (SAMPLE_A,
                                                         SAMPLE_B)
    return f"""
SELECT doc_id,
       CAST(row_number() OVER (
           ORDER BY ({SAMPLE_A} * (doc_id % {P31}) + {SAMPLE_B})
                    % {P31}, doc_id) - 1 AS BIGINT) AS shuffle_pos
FROM documents
"""


QUERIES["shuffle_manifest"] = q_shuffle_manifest
ORACLE_SQL["shuffle_manifest"] = _sql_shuffle_manifest()


def q_hist_quantiles(sf_dir: str):
    """Approximate grouped quantiles via the mergeable fixed-width
    histogram sketch — (group, bin, count) partials are all that ride
    the exchange (the exact twin, event_value_quantiles, exchanges
    every value)."""
    from nacc_form_validator_ray.stages.sketches import \
        grouped_histogram_quantiles
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type", "value"])
    return grouped_histogram_quantiles(ds, "event_type", "value",
                                       qs=(0.5, 0.9, 0.99),
                                       bin_width=16.0)


SQL_HIST_QUANTILES = """
WITH h AS (
  SELECT event_type AS g, CAST(floor(value / 16.0) AS BIGINT) AS bin,
         count(*) AS cnt
  FROM events GROUP BY 1, 2
),
tot AS (SELECT g, sum(cnt) AS total FROM h GROUP BY g),
cum AS (
  SELECT g, bin, sum(cnt) OVER (PARTITION BY g ORDER BY bin) AS c
  FROM h
),
qs(q) AS (VALUES (CAST(0.5 AS DOUBLE)), (CAST(0.9 AS DOUBLE)),
                 (CAST(0.99 AS DOUBLE)))
SELECT c.g AS event_type, q.q AS q,
       CAST(greatest(ceil(q.q * t.total), 1) AS BIGINT) AS rank,
       min(c.bin) AS bin,
       CAST(min(c.bin) AS DOUBLE) * 16.0 AS est
FROM cum c JOIN tot t ON t.g = c.g CROSS JOIN qs q
WHERE c.c >= greatest(ceil(q.q * t.total), 1)
GROUP BY c.g, q.q, t.total
"""

QUERIES["hist_quantiles"] = q_hist_quantiles
ORACLE_SQL["hist_quantiles"] = SQL_HIST_QUANTILES


def q_chunk_docs(sf_dir: str):
    """Token-window chunking for embedding/RAG ingestion: overlapping
    64-token windows advancing by 48."""
    from nacc_form_validator_ray.stages.text_signals import \
        chunk_documents
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return chunk_documents(ds, chunk_tokens=64, stride=48)


SQL_CHUNK_DOCS = """
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z]+') AS ws
  FROM documents
),
d AS (SELECT doc_id, ws, len(ws) AS n FROM toks WHERE len(ws) > 0),
c AS (
  SELECT doc_id, ws, n,
         unnest(range(0,
             CAST(greatest(ceil(CAST(n - 64 AS DOUBLE) / 48), 0)
                  AS BIGINT) + 1)) AS chunk_id
  FROM d
)
SELECT doc_id, chunk_id,
       CAST(chunk_id * 48 AS BIGINT) AS start_tok,
       CAST(least(chunk_id * 48 + 64, n) - chunk_id * 48 AS BIGINT)
           AS n_tok,
       array_to_string(ws[chunk_id * 48 + 1 : least(chunk_id * 48 + 64,
                                                    n)], ' ')
           AS chunk_text
FROM c
"""

QUERIES["chunk_docs"] = q_chunk_docs
ORACLE_SQL["chunk_docs"] = SQL_CHUNK_DOCS


#: deterministic probe vocabulary for the count-min sketch demo: hot
#: corpus words, function words, and a never-seen token (est 0 or the
#: collision floor) — ASCII-only so the SQL char-fold twin is exact.
CMS_PROBES = ["scan", "column", "window", "order", "sort", "join",
              "merge", "query", "key", "value", "the", "of", "and",
              "data", "zzzneverseen"]


def q_heavy_hitters(sf_dir: str):
    """Count-min-sketch frequency estimates for a probe vocabulary —
    the fixed-size mergeable-counter shape for corpus-scale token
    frequency (the exchange is d×w cells, never the vocabulary)."""
    from nacc_form_validator_ray.stages.sketches import count_min_estimates
    ds = _docs(sf_dir, columns=["text"])
    return count_min_estimates(ds, CMS_PROBES, depth=4, width=2048)


def _sql_heavy_hitters(depth: int = 4, width: int = 2048,
                       seed: int = 29) -> str:
    """DuckDB twin of count_min_estimates: identical grid (group the
    token DICTIONARY, hash once per distinct token, sum per cell),
    identical probe reads (min over the d hashed cells, absent cell =
    0)."""
    from nacc_form_validator_ray.stages.dedup import P31, TOKEN_FOLD_MULT
    from nacc_form_validator_ray.stages.sketches import cms_params
    a, b = cms_params(depth, seed)
    param_rows = ", ".join(f"({r}, {int(a[r])}, {int(b[r])})"
                           for r in range(depth))
    probe_rows = ", ".join(f"('{t}')" for t in sorted(set(CMS_PROBES)))
    fold_t = _sql_charfold("t", TOKEN_FOLD_MULT)
    fold_p = _sql_charfold("token", TOKEN_FOLD_MULT)
    return f"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                   '[a-z0-9]+')) AS t
  FROM documents
), th AS (
  -- hash the dictionary, not every occurrence (engine parity)
  SELECT {fold_t} AS h, count(*) AS cnt FROM tok GROUP BY t
), params AS (
  SELECT * FROM (VALUES {param_rows}) AS p(r, pa, pb)
), counters AS (
  SELECT r, (pa * h + pb) % {P31} % {width} AS cell,
         sum(cnt) AS cnt
  FROM th, params GROUP BY r, cell
), probes AS (
  SELECT * FROM (VALUES {probe_rows}) AS pr(token)
), pcells AS (
  SELECT token, r, (pa * {fold_p} + pb) % {P31} % {width} AS cell
  FROM probes, params
)
SELECT token,
       CAST(min(coalesce(c.cnt, 0)) AS BIGINT) AS est
FROM pcells LEFT JOIN counters c USING (r, cell)
GROUP BY token
ORDER BY token
"""


QUERIES["heavy_hitters"] = q_heavy_hitters
ORACLE_SQL["heavy_hitters"] = _sql_heavy_hitters()


BM25_QUERY = ["merge", "window", "scan", "query"]


def q_bm25_search(sf_dir: str):
    """BM25 top-20 keyword retrieval — the lexical counterpart of
    knn_embeddings: bounded stats pass, broadcast idf, per-batch local
    top-k, driver merge of k x blocks rows."""
    from nacc_form_validator_ray.stages.retrieval import bm25_topk
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return bm25_topk(ds, BM25_QUERY, k=20)


def _sql_bm25_search(k: int = 20, k1: float = 1.2,
                     b: float = 0.75) -> str:
    """DuckDB twin of bm25_topk: same tokenization, the same
    association order for every float op (see stages/retrieval.py),
    per-term scores floored to the 2^-20 grid before the per-doc sum.
    Float literals are repr()s of the Python-computed constants so both
    engines hold bit-identical doubles."""
    terms = ", ".join(f"('{t}')" for t in sorted(set(BM25_QUERY)))
    S = float(1 << 20)
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '[a-z0-9]+')) AS t
  FROM documents
), dltab AS (
  SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id
), consts AS (
  SELECT (SELECT count(*) FROM documents) AS n_docs,
         (SELECT CAST(coalesce(sum(dl), 0) AS BIGINT) FROM dltab)
             AS total_toks
), qterms AS (
  SELECT * FROM (VALUES {terms}) AS q(term)
), dftab AS (
  SELECT term, count(DISTINCT doc_id) AS df
  FROM qterms LEFT JOIN tok ON t = term GROUP BY term
), idftab AS (
  SELECT term,
         floor(ln((n_docs - df + 0.5) / (df + 0.5) + 1.0)
               * {S!r} + 0.5) / {S!r} AS idf
  FROM dftab, consts
), tftab AS (
  SELECT doc_id, t AS term, count(*) AS tf
  FROM tok JOIN qterms ON t = term GROUP BY doc_id, t
), scored AS (
  SELECT tf.doc_id,
         floor(((i.idf * tf.tf) * {k1 + 1.0!r})
               / (tf.tf + {k1!r} * ({1.0 - b!r}
                  + {b!r} * (d.dl / (CAST(total_toks AS DOUBLE)
                                     / CAST(n_docs AS DOUBLE)))))
               * {S!r} + 0.5) / {S!r} AS s
  FROM tftab tf
  JOIN idftab i USING (term)
  JOIN dltab d USING (doc_id), consts
), totals AS (
  SELECT doc_id, sum(s) AS score FROM scored GROUP BY doc_id
)
SELECT doc_id, score,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id)
            AS BIGINT) AS rank
FROM totals WHERE score > 0.0
ORDER BY score DESC, doc_id
LIMIT {int(k)}
"""


QUERIES["bm25_search"] = q_bm25_search
ORACLE_SQL["bm25_search"] = _sql_bm25_search()


def q_percentile_cut_docs(sf_dir: str):
    """Sketch-driven corpus cut: keep documents at or above the median
    bpe_token_count, where the median comes from the mergeable
    histogram sketch — the classic 'filter by a global percentile'
    step done in two bounded passes (sketch partials, then a broadcast
    scalar threshold) instead of a full sort.

    The text is tokenized ONCE: the lean (doc_id, bpe_token_count)
    projection (16 bytes/doc — the int-only case where pinning is
    safe at 100 TB) feeds both the sketch and the filter."""
    from nacc_form_validator_ray.stages.sketches import \
        grouped_histogram_quantiles
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    lean = ds.map_batches(TextStats(), batch_format="pyarrow",
                          batch_size=4096) \
        .select_columns(["doc_id", "bpe_token_count"]).materialize()

    def one_group(t):
        return {"g": np.zeros(t.num_rows, dtype=np.int64),
                "v": np.asarray(t["bpe_token_count"],
                                dtype=np.float64)}

    sk = grouped_histogram_quantiles(
        lean.map_batches(one_group, batch_format="pyarrow"),
        "g", "v", qs=(0.5,), bin_width=8.0).to_pandas()
    est = float(sk["est"].iloc[0])  # broadcast scalar threshold

    def keep(t):
        btc = np.asarray(t["bpe_token_count"], dtype=np.int64)
        m = btc.astype(np.float64) >= est
        return {"doc_id": np.asarray(t["doc_id"],
                                     dtype=np.int64)[m],
                "bpe_token_count": btc[m]}

    return lean.map_batches(keep, batch_format="pyarrow")


SQL_PERCENTILE_CUT = f"""
WITH s AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(coalesce(text, ''),
                                     '{BPE_TOKEN_RE}')) AS BIGINT)
             AS btc
  FROM documents
), h AS (
  SELECT CAST(floor(btc / 8.0) AS BIGINT) AS bin, count(*) AS cnt
  FROM s GROUP BY 1
), tot AS (SELECT sum(cnt) AS total FROM h),
cum AS (SELECT bin, sum(cnt) OVER (ORDER BY bin) AS c FROM h),
thr AS (
  SELECT CAST(min(bin) AS DOUBLE) * 8.0 AS est
  FROM cum, tot WHERE c >= greatest(ceil(0.5 * total), 1)
)
SELECT doc_id, btc AS bpe_token_count
FROM s, thr WHERE CAST(btc AS DOUBLE) >= est
"""

QUERIES["percentile_cut_docs"] = q_percentile_cut_docs
ORACLE_SQL["percentile_cut_docs"] = SQL_PERCENTILE_CUT


def q_part_type_words(sf_dir: str):
    """String extraction + grouped count (first word of p_type)."""
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    ds = _rd().read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        first = batch["p_type"].str.split(" ").str[0]
        g = pd.DataFrame({"type_word": first, "n_parts": 1})
        return g.groupby("type_word", as_index=False).sum()

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_agg_sum(partials, ["type_word"], ["n_parts"],
                           num_partitions=4)


SQL_PART_TYPE_WORDS = """
SELECT split_part(p_type, ' ', 1) AS type_word,
       CAST(count(*) AS BIGINT) AS n_parts
FROM part GROUP BY 1
"""


def q_all_nation_keys(sf_dir: str):
    """Union + distinct across two tables."""
    cust = _rd().read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_nationkey"]).map_batches(
        lambda b: pd.DataFrame(
            {"nationkey": b["c_nationkey"].astype(np.int64)}),
        batch_format="pandas")
    supp = _rd().read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_nationkey"]).map_batches(
        lambda b: pd.DataFrame(
            {"nationkey": b["s_nationkey"].astype(np.int64)}),
        batch_format="pandas")
    values = sorted(cust.union(supp).unique("nationkey"))
    return pd.DataFrame({"nationkey": np.asarray(values,
                                                 dtype=np.int64)})


SQL_ALL_NATION_KEYS = """
SELECT DISTINCT CAST(c_nationkey AS BIGINT) AS nationkey FROM customer
UNION
SELECT DISTINCT CAST(s_nationkey AS BIGINT) AS nationkey FROM supplier
"""

QUERIES.update({
    "orders_by_month": q_orders_by_month,
    "distinct_event_types": q_distinct_event_types,
    "topk_lineitems_per_order": q_topk_lineitems_per_order,
    "sample_events": q_sample_events,
    "part_type_words": q_part_type_words,
    "all_nation_keys": q_all_nation_keys,
})

ORACLE_SQL.update({
    "orders_by_month": SQL_ORDERS_BY_MONTH,
    "distinct_event_types": SQL_DISTINCT_EVENT_TYPES,
    "topk_lineitems_per_order": SQL_TOPK_LINEITEMS,
    "sample_events": SQL_SAMPLE_EVENTS,
    "part_type_words": SQL_PART_TYPE_WORDS,
    "all_nation_keys": SQL_ALL_NATION_KEYS,
})


def q_perplexity_docs(sf_dir: str):
    """Train a unigram LM on the corpus (distributed counts), then score
    every doc in an actor pool — the KenLM-perplexity pipeline shape.

    HARD oracle: model log-probs are quantized to the 2^-20 grid
    (stages/perplexity.LOGP_SCALE), making per-doc float sums EXACT
    dyadic arithmetic — bit-identical across summation orders,
    parallelism levels and the DuckDB twin (which rebuilds the same
    model from the same corpus counts in SQL)."""
    from nacc_form_validator_ray.stages.perplexity import (
        PerplexityScorer, train_ngram_model)
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    model = train_ngram_model(ds)
    scored = ds.map_batches(PerplexityScorer,
                            fn_constructor_kwargs={"model": model},
                            batch_format="pyarrow", concurrency=(1, 4))
    return scored.select_columns(["doc_id", "log_ppl", "ppl_tokens",
                                  "oov_count"])


# The twin rebuilds train_ngram_model in SQL: [a-z]+ tokens of the
# lowered text (the arrow_token_codes stream — the same tokenization the
# text_stats/langid twins already pin), add-0.5 smoothing, log2 probs
# quantized to the 2^-20 grid with the same floor(x*S + 0.5)/S
# convention. It assumes the corpus vocabulary fits max_vocab=200k (true
# at every oracle scale; the engine's head(max_vocab) cut is a no-op
# there). With no vocab cut the corpus scored against itself has no OOV
# tokens, so the LEFT JOIN always matches — oov_count stays a live
# column for models trained elsewhere.
SQL_PERPLEXITY_DOCS = """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents
), cnt AS (
  SELECT tok, count(*) AS c FROM tok GROUP BY tok
), consts AS (
  SELECT sum(c) AS total, count(*) AS v FROM cnt
), model AS (
  SELECT tok,
         floor(log2((c + 0.5) / (total + 0.5 * (v + 1)))
               * 1048576.0 + 0.5) / 1048576.0 AS lp
  FROM cnt, consts
), scored AS (
  SELECT t.doc_id, count(*) AS n_toks, sum(m.lp) AS slp,
         sum(CASE WHEN m.tok IS NULL THEN 1 ELSE 0 END) AS oov
  FROM tok t LEFT JOIN model m ON t.tok = m.tok
  GROUP BY t.doc_id
)
SELECT d.doc_id,
       coalesce(-slp / n_toks, 0.0) AS log_ppl,
       CAST(coalesce(n_toks, 0) AS BIGINT) AS ppl_tokens,
       CAST(coalesce(oov, 0) AS BIGINT) AS oov_count
FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
"""

QUERIES["perplexity_docs"] = q_perplexity_docs
ORACLE_SQL["perplexity_docs"] = SQL_PERPLEXITY_DOCS


def q_bigram_perplexity_docs(sf_dir: str):
    """Interpolated-bigram LM perplexity (the KenLM-direction model):
    distributed unigram+bigram count exchanges, broadcast artifact,
    actor-pool scoring. First token of each doc scores on the unigram
    term alone (no BOS marker); non-initial tokens on the 50/50
    unigram/bigram mixture with add-0.5 smoothing. Log-probs ride the
    2^-20 grid, so per-doc sums are exact and order-independent."""
    from nacc_form_validator_ray.stages.perplexity import (
        BigramScorer, train_bigram_model)
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    model = train_bigram_model(ds)
    scored = ds.map_batches(BigramScorer,
                            fn_constructor_kwargs={"model": model},
                            batch_format="pyarrow", concurrency=(1, 4))
    return scored.select_columns(["doc_id", "log_ppl", "ppl_tokens",
                                  "unseen_bigrams"])


# Twin rebuilds the bigram model in SQL: same token stream, same
# mixture expression tree (left-to-right products/divides), same grid.
SQL_BIGRAM_PERPLEXITY_DOCS = """
WITH tok AS (
  SELECT doc_id, generate_subscripts(ts, 1) AS i, unnest(ts) AS tok
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS ts
        FROM documents)
), uc AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS c FROM tok GROUP BY tok
), consts AS (
  SELECT CAST(sum(c) AS DOUBLE) AS total,
         CAST(count(*) AS BIGINT) AS v
  FROM uc
), bc AS (
  SELECT t1.tok AS w1, t2.tok AS w2, CAST(count(*) AS BIGINT) AS c
  FROM tok t2
  JOIN tok t1 ON t1.doc_id = t2.doc_id AND t1.i = t2.i - 1
  GROUP BY t1.tok, t2.tok
), lp AS (
  SELECT t.doc_id,
    CASE WHEN t.i = 1 THEN
      floor(log2((u.c + 0.5) / (consts.total + 0.5 * (consts.v + 1)))
            * 1048576.0 + 0.5) / 1048576.0
    ELSE
      floor(log2((0.5 * (coalesce(b.c, 0) + 0.5))
                     / (u1.c + 0.5 * (consts.v + 1))
                 + (0.5 * (u.c + 0.5))
                     / (consts.total + 0.5 * (consts.v + 1)))
            * 1048576.0 + 0.5) / 1048576.0
    END AS lp,
    CASE WHEN t.i > 1 AND b.c IS NULL THEN 1 ELSE 0 END AS unseen
  FROM tok t
  CROSS JOIN consts
  JOIN uc u ON u.tok = t.tok
  LEFT JOIN tok p ON p.doc_id = t.doc_id AND p.i = t.i - 1
  LEFT JOIN uc u1 ON u1.tok = p.tok
  LEFT JOIN bc b ON b.w1 = p.tok AND b.w2 = t.tok
), scored AS (
  SELECT doc_id, count(*) AS n, sum(lp) AS slp,
         CAST(sum(unseen) AS BIGINT) AS uns
  FROM lp GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(-slp / n, 0.0) AS log_ppl,
       CAST(coalesce(n, 0) AS BIGINT) AS ppl_tokens,
       coalesce(uns, 0) AS unseen_bigrams
FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
"""

QUERIES["bigram_perplexity_docs"] = q_bigram_perplexity_docs
ORACLE_SQL["bigram_perplexity_docs"] = SQL_BIGRAM_PERPLEXITY_DOCS


def q_kn_perplexity_docs(sf_dir: str):
    """Interpolated Kneser–Ney bigram perplexity — the smoothing family
    KenLM implements (absolute discount D=0.5, smoothed continuation
    distribution). Same scale shape as the other LM pipelines: one
    fused count exchange trains the model, the KN statistics (context
    totals, N1+ fan-outs, continuation counts) derive on the driver
    from the vocab-sized artifact, and an actor pool scores batches
    with dictionary-resolved vectorized lookups. Log2 terms ride the
    2^-20 grid, so per-doc sums are exact (stages/perplexity.KNScorer
    documents the expression tree the twin mirrors)."""
    from nacc_form_validator_ray.stages.perplexity import (KNScorer,
                                                           train_kn_model)
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    model = train_kn_model(ds)
    scored = ds.map_batches(KNScorer,
                            fn_constructor_kwargs={"model": model},
                            batch_format="pyarrow", concurrency=(1, 4))
    return scored.select_columns(["doc_id", "log_ppl", "ppl_tokens",
                                  "unseen_bigrams"])


# Twin rebuilds the KN statistics in SQL from the same token stream:
# ctx/N1+(w1,·) per context, continuation counts N1+(·,w2), distinct
# bigram total; the CASE mirrors KNScorer's expression tree operation
# for operation (greatest(c-D,0)/ctx + ((D*n1f)/ctx)*pcont, full
# backoff to pcont for doc-initial or context-less tokens).
SQL_KN_PERPLEXITY_DOCS = """
WITH tok AS (
  SELECT doc_id, generate_subscripts(ts, 1) AS i, unnest(ts) AS tok
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS ts
        FROM documents)
), uc AS (
  SELECT tok FROM tok GROUP BY tok
), vconst AS (
  SELECT CAST(count(*) AS BIGINT) AS v FROM uc
), bc AS (
  SELECT t1.tok AS w1, t2.tok AS w2, CAST(count(*) AS BIGINT) AS c
  FROM tok t2
  JOIN tok t1 ON t1.doc_id = t2.doc_id AND t1.i = t2.i - 1
  GROUP BY t1.tok, t2.tok
), ctx AS (
  SELECT w1, CAST(sum(c) AS DOUBLE) AS c1,
         CAST(count(*) AS DOUBLE) AS n1f
  FROM bc GROUP BY w1
), cont AS (
  SELECT w2, CAST(count(*) AS DOUBLE) AS n1b FROM bc GROUP BY w2
), bconst AS (
  SELECT CAST(count(*) AS DOUBLE) AS b FROM bc
), lp AS (
  SELECT t.doc_id,
    CASE WHEN t.i = 1 OR cx.c1 IS NULL THEN
      floor(log2((coalesce(ct.n1b, 0) + 0.5)
                 / (bconst.b + 0.5 * (vconst.v + 1)))
            * 1048576.0 + 0.5) / 1048576.0
    ELSE
      floor(log2(greatest(coalesce(b.c, 0) - 0.5, 0) / cx.c1
                 + ((0.5 * cx.n1f) / cx.c1)
                   * ((coalesce(ct.n1b, 0) + 0.5)
                      / (bconst.b + 0.5 * (vconst.v + 1))))
            * 1048576.0 + 0.5) / 1048576.0
    END AS lp,
    CASE WHEN t.i > 1 AND b.c IS NULL THEN 1 ELSE 0 END AS unseen
  FROM tok t
  CROSS JOIN bconst CROSS JOIN vconst
  LEFT JOIN cont ct ON ct.w2 = t.tok
  LEFT JOIN tok p ON p.doc_id = t.doc_id AND p.i = t.i - 1
  LEFT JOIN ctx cx ON cx.w1 = p.tok
  LEFT JOIN bc b ON b.w1 = p.tok AND b.w2 = t.tok
), scored AS (
  SELECT doc_id, count(*) AS n, sum(lp) AS slp,
         CAST(sum(unseen) AS BIGINT) AS uns
  FROM lp GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(-slp / n, 0.0) AS log_ppl,
       CAST(coalesce(n, 0) AS BIGINT) AS ppl_tokens,
       coalesce(uns, 0) AS unseen_bigrams
FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
"""

QUERIES["kn_perplexity_docs"] = q_kn_perplexity_docs
ORACLE_SQL["kn_perplexity_docs"] = SQL_KN_PERPLEXITY_DOCS


def q_token_entropy_docs(sf_dir: str):
    """Per-document token-distribution entropy — the vocabulary-
    diversity quality signal (low entropy = repetitive/templated junk,
    a standard web-filter heuristic). Embarrassingly parallel: one
    map_batches pass over the shared packed-run token stream, no
    exchange. Reports EXACT total entropy bits on the 2^-20 grid:
    ``ent_bits = T·q(log2 T) − Σ_tok c·q(log2 c)`` — every term is a
    dyadic rational (int × grid value), so per-doc results are
    bit-identical across partitionings and to the DuckDB twin;
    consumers divide by ``n_toks`` for bits/token."""
    import pyarrow as pa

    def entropy(batch: "pa.Table") -> "pa.Table":
        from nacc_form_validator_ray.stages.text_signals import \
            arrow_token_codes
        col = batch["text"]
        arr = col.combine_chunks() if isinstance(
            col, pa.ChunkedArray) else col
        n = len(arr)
        codes, dictionary, tok_doc, lens = arrow_token_codes(arr)
        ent = np.zeros(n, dtype=np.float64)
        if len(codes):
            V = len(dictionary)
            key = tok_doc.astype(np.int64) * V + codes
            upair, c = np.unique(key, return_counts=True)
            c = c.astype(np.float64)
            qlc = np.floor(np.log2(c) * 1048576.0 + 0.5) / 1048576.0
            sc = np.bincount((upair // V).astype(np.int64),
                             weights=c * qlc, minlength=n)
            T = lens.astype(np.float64)
            qlt = np.zeros(n, dtype=np.float64)
            nz = lens > 0
            qlt[nz] = np.floor(np.log2(T[nz]) * 1048576.0 + 0.5) \
                / 1048576.0
            ent = T * qlt - sc + 0.0
        return pa.table({"doc_id": batch["doc_id"],
                         "ent_bits": pa.array(ent),
                         "n_toks": pa.array(lens.astype(np.int64))})

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(entropy, batch_format="pyarrow")


SQL_TOKEN_ENTROPY_DOCS = """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents
), pc_ AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c
  FROM tok GROUP BY doc_id, tok
), s AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS t,
         sum(c * (floor(log2(c) * 1048576.0 + 0.5) / 1048576.0)) AS sc
  FROM pc_ GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(t * (floor(log2(t) * 1048576.0 + 0.5) / 1048576.0)
                - sc, 0.0) + 0.0 AS ent_bits,
       CAST(coalesce(t, 0) AS BIGINT) AS n_toks
FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
"""

QUERIES["token_entropy_docs"] = q_token_entropy_docs
ORACLE_SQL["token_entropy_docs"] = SQL_TOKEN_ENTROPY_DOCS


def q_normalize_text_docs(sf_dir: str):
    """Unicode canonicalization of the documents table (NFC + lower +
    whitespace collapse + trim) — the dedup-key normalization pass."""
    from nacc_form_validator_ray.stages.webclean import normalize_text
    return normalize_text(_docs(sf_dir, columns=["doc_id", "text"]))


SQL_NORMALIZE_TEXT_DOCS = """
SELECT doc_id,
       trim(regexp_replace(lower(nfc_normalize(coalesce(text, ''))),
                           '\\s+', ' ', 'g'), ' ') AS norm_text,
       CAST(length(trim(regexp_replace(
           lower(nfc_normalize(coalesce(text, ''))),
           '\\s+', ' ', 'g'), ' ')) AS BIGINT) AS norm_chars
FROM documents
"""

QUERIES["normalize_text_docs"] = q_normalize_text_docs
ORACLE_SQL["normalize_text_docs"] = SQL_NORMALIZE_TEXT_DOCS


def q_lr_train_weights(sf_dir: str):
    """Distributed quality-classifier TRAINING (hard-sigmoid logistic
    regression, 5 rounds): per-batch exact-dyadic gradient partials,
    one tiny merge per round, grid-quantized weight steps — the
    training counterpart of lr_score_docs' broadcast inference."""
    from nacc_form_validator_ray.stages.classifier import lr_train
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])
    return lr_train(ds)


def _sql_lr_train(iterations: int = 5) -> str:
    """Chained-CTE twin: one (gradient -> step) stage per round,
    identical feature scaling, hard sigmoid, 2^-20 grid and update
    expression tree. Every sum is exact dyadic arithmetic, so
    partitioning/order cannot matter on either side."""
    names = ["bias", "n_chars", "n_words", "n_digits", "n_upper"]
    xs = [f"x{j}" for j in range(5)]
    z = " + ".join(f"w.w{j} * {x}" for j, x in enumerate(xs))
    act = (f"floor(least(greatest(0.25 * ({z}) + 0.5, 0.0), 1.0)"
           " * 1048576.0 + 0.5) / 1048576.0")
    stages = []
    for k in range(1, iterations + 1):
        gsel = ", ".join(f"sum((a - y) * {x}) AS g{j}"
                         for j, x in enumerate(xs))
        wsel = ", ".join(
            f"floor((w.w{j} - 0.0625 * (g.g{j} / g.n)) * 1048576.0"
            f" + 0.5) / 1048576.0 AS w{j}" for j in range(5))
        stages.append(f"""
g{k} AS MATERIALIZED (
  SELECT CAST(count(*) AS DOUBLE) AS n, {gsel}
  FROM (SELECT y, {', '.join(xs)}, {act} AS a
        FROM feats, w{k - 1} w)
),
w{k} AS MATERIALIZED (
  SELECT {wsel} FROM w{k - 1} w, g{k} g
)""")
    outs = " UNION ALL ".join(
        f"SELECT {j} AS ord, '{n}' AS feature, w{j} AS weight "
        f"FROM w{iterations}" for j, n in enumerate(names))
    return f"""
WITH feats AS MATERIALIZED (
  SELECT CASE WHEN coalesce(lang, '') = 'en' THEN 1.0 ELSE 0.0 END
      AS y,
    1.0 AS x0,
    length(coalesce(text, '')) * 0.0009765625 AS x1,
    len(regexp_extract_all(coalesce(text, ''), '\\S+'))
        * 0.0078125 AS x2,
    len(regexp_extract_all(coalesce(text, ''), '[0-9]'))
        * 0.0078125 AS x3,
    len(regexp_extract_all(coalesce(text, ''), '[A-Z]'))
        * 0.0078125 AS x4
  FROM documents
),
w0 AS (SELECT 0.0 AS w0, 0.0 AS w1, 0.0 AS w2, 0.0 AS w3,
              0.0 AS w4),
{','.join(stages)}
SELECT feature, weight FROM ({outs}) ORDER BY ord
"""


QUERIES["lr_train_weights"] = q_lr_train_weights
ORACLE_SQL["lr_train_weights"] = _sql_lr_train()


def _ivf_model_for(sf_dir: str) -> str:
    """Train-once-per-input persisted centroid model (the perplexity
    load-weights pattern); shared by the query AND its generated SQL
    twin so both see identical centroids."""
    import hashlib
    import os
    from nacc_form_validator_ray.stages.similarity import (
        save_ivf_model, train_ivf_model)
    tag = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    model_path = f"/tmp/nacc_ivf_model_{tag}_c16_s7.json"
    if not os.path.exists(model_path):
        ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
        save_ivf_model(train_ivf_model(ds, n_centroids=16, seed=7),
                       model_path)
    return model_path


def q_ivf_knn(sf_dir: str):
    """Approximate ANN (IVF inverted lists) — the scale path beside
    knn_embeddings' exact brute force.

    HARD oracle (round 3): assignment, probing and scoring run on
    integer-quantized vectors (floor(x*2^12 + 0.5)) with the exact-cos
    rule dp/(sqrt(nv)*sqrt(nq)) — every arithmetic step bit-identical
    to the generated DuckDB twin (sql_ivf_knn), which embeds the SAME
    persisted centroid model as literals. The model is trained ONCE per
    input table (the perplexity load-weights pattern)."""
    import pyarrow.parquet as pq
    from nacc_form_validator_ray.stages.similarity import ivf_knn_quantized
    # pushed-down row filter: only the 10 query vectors leave storage
    small = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"],
                          filters=[("vec_id", "<", 10)]) \
        .to_pandas().sort_values("vec_id")
    queries = np.stack([np.asarray(v, dtype=np.float64)
                        for v in small["embedding"]])
    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    out = ivf_knn_quantized(ds, queries, small["vec_id"].to_numpy(),
                            k=10, n_probe=6,
                            model_path=_ivf_model_for(sf_dir))
    return out.select_columns(["query_id", "neighbor_id", "rank"])


def sql_ivf_knn(sf_dir: str, k: int = 10, n_probe: int = 6,
                quantize_bits: int = 12) -> str:
    """DuckDB twin of q_ivf_knn: the persisted centroid model embedded
    as integer literals, integer dot-product assignment/probing (ties
    on lowest centroid id), and the shared exact-cos rule."""
    import json
    import numpy as np
    from nacc_form_validator_ray.stages.similarity import _normalize
    with open(_ivf_model_for(sf_dir)) as f:
        model = json.load(f)
    S = float(1 << quantize_bits)
    cq = np.floor(_normalize(np.asarray(model["centroids"],
                                        dtype=np.float64)) * S + 0.5) \
        .astype(np.int64)
    cent_rows = ", ".join(
        "({}, [{}])".format(
            cid, ", ".join(f"{v}.0" for v in row))
        for cid, row in enumerate(cq.tolist()))
    return f"""
WITH cents AS (
  SELECT * FROM (VALUES {cent_rows}) AS c(cid, cv)
), qv AS (
  SELECT vec_id AS query_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {S!r} + 0.5)) AS q
  FROM embeddings WHERE vec_id < 10
), vv AS (
  SELECT vec_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {S!r} + 0.5)) AS v
  FROM embeddings
), qn AS (
  SELECT query_id, q, list_dot_product(q, q) AS nq FROM qv
), vn AS (
  SELECT vec_id, v, list_dot_product(v, v) AS nv FROM vv
), probes AS (
  SELECT query_id, cid FROM (
    SELECT q.query_id, c.cid,
           row_number() OVER (PARTITION BY q.query_id
               ORDER BY list_dot_product(q.q, c.cv) DESC, c.cid) AS pr
    FROM qv q, cents c) WHERE pr <= {int(n_probe)}
), assign AS (
  SELECT vec_id, cid FROM (
    SELECT v.vec_id, c.cid,
           row_number() OVER (PARTITION BY v.vec_id
               ORDER BY list_dot_product(v.v, c.cv) DESC, c.cid) AS rn
    FROM vv v, cents c) WHERE rn = 1
), cand AS (
  SELECT p.query_id, a.vec_id AS neighbor_id,
         list_dot_product(qn.q, vn.v)
             / (sqrt(qn.nq) * sqrt(vn.nv)) AS cos
  FROM probes p
  JOIN assign a ON a.cid = p.cid
  JOIN qn ON qn.query_id = p.query_id
  JOIN vn ON vn.vec_id = a.vec_id
  WHERE a.vec_id != p.query_id AND vn.nv > 0 AND qn.nq > 0
), ranked AS (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY cos DESC, neighbor_id) AS rank
  FROM cand
)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= {int(k)}
"""


QUERIES["ivf_knn_embeddings"] = q_ivf_knn


def q_asof_prior_purchase(sf_dir: str):
    """As-of join: each event picks the user's most recent STRICTLY
    earlier purchase event (one hash exchange + per-partition
    merge_asof)."""
    from nacc_form_validator_ray.stages.joins import asof_join
    events = _rd().read_parquet(f"{sf_dir}/events.parquet",
                                columns=["event_id", "user_id", "ts",
                                         "event_type"])
    purchases = events.map_batches(
        lambda b: b[b["event_type"] == "purchase"]
        .rename(columns={"event_id": "prior_purchase_id"})
        [["user_id", "ts", "prior_purchase_id"]],
        batch_format="pandas")
    joined = asof_join(events, purchases, by="user_id", on="ts",
                       direction="backward",
                       allow_exact_matches=False)

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": batch["event_id"].astype(np.int64),
            # float64 with NaN for "no prior purchase": matches what
            # DuckDB's nullable BIGINT becomes in pandas
            "prior_purchase_id":
                batch["prior_purchase_id"].astype(np.float64),
        })

    return joined.map_batches(project, batch_format="pandas")


SQL_ASOF_PRIOR_PURCHASE = """
SELECT e.event_id,
       CAST(p.event_id AS DOUBLE) AS prior_purchase_id
FROM events e
ASOF LEFT JOIN (
  SELECT user_id, ts, event_id FROM events
  WHERE event_type = 'purchase'
) p ON e.user_id = p.user_id AND e.ts > p.ts
"""

QUERIES["asof_prior_purchase"] = q_asof_prior_purchase
ORACLE_SQL["asof_prior_purchase"] = SQL_ASOF_PRIOR_PURCHASE


def q_dedup_clusters(sf_dir: str):
    """Connected components over MinHash near-dup pairs: every doc
    labeled with its cluster's minimum doc_id. HARD oracle: the minhash
    pair set is integer-exact in SQL (sql_minhash_pairs) and the
    closure is a recursive CTE — the same pattern as jaccard_clusters."""
    from nacc_form_validator_ray.stages.dedup import (
        minhash_candidate_pairs, propagate_labels)
    docs = _docs(sf_dir, columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(docs, threshold=0.5)
    ids = _docs(sf_dir, columns=["doc_id"])
    return propagate_labels(pairs, ids)  # iterates to convergence


def _sql_dedup_clusters() -> str:
    defs, pairs = _sql_minhash_ctes("documents", "doc_id", threshold=0.5)
    return f"""WITH RECURSIVE {defs},
und AS (
  SELECT id_a AS src, id_b AS dst FROM {pairs}
  UNION ALL
  SELECT id_b, id_a FROM {pairs}
), reach(src, dst) AS (
  SELECT src, dst FROM und
  UNION
  SELECT r.src, u.dst FROM reach r JOIN und u ON r.dst = u.src
)
SELECT d.doc_id AS doc_id,
       CAST(least(d.doc_id, coalesce(min(r.dst), d.doc_id)) AS BIGINT)
           AS cluster
FROM documents d LEFT JOIN reach r ON d.doc_id = r.src
GROUP BY d.doc_id
"""


QUERIES["dedup_clusters"] = q_dedup_clusters
ORACLE_SQL["dedup_clusters"] = _sql_dedup_clusters()


def q_fingerprint_md5(sf_dir: str):
    """Exact-dup fingerprint (md5 of normalized text) — the SQL-checkable
    half of the fingerprint family (winnowing stays rows-only)."""
    from nacc_form_validator_ray.stages.text_signals import Fingerprint
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(Fingerprint(), batch_format="pyarrow")
    return ds.select_columns(["doc_id", "fingerprint_md5"])


SQL_FINGERPRINT_MD5 = """
SELECT doc_id,
       md5(lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))))
           AS fingerprint_md5
FROM documents
"""

QUERIES["fingerprint_md5"] = q_fingerprint_md5
ORACLE_SQL["fingerprint_md5"] = SQL_FINGERPRINT_MD5


# fingerprint_docs (md5 + winnow INCLUDING the short-doc md5 fallback):
# the fallback is int.from_bytes(md5(t).digest()[:8]) — reproduced as a
# HUGEINT hex fold over the first 16 md5 hex chars with an explicit
# two's-complement conversion to BIGINT (the engine's uint64 column is
# canonicalized to int64 by the driver's compare, which wraps the same
# way). Rolling-hash windows index CODEPOINTS in SQL and BYTES in the
# engine — equal because documents are pure ASCII (verified both SFs;
# same contract as fingerprint_winnow).
SQL_FINGERPRINT_DOCS = """
WITH n AS (
  SELECT doc_id, lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))) AS t
  FROM documents
), fb AS (
  SELECT doc_id, list_reduce(list_prepend(CAST(0 AS HUGEINT),
           list_transform(regexp_extract_all(substring(md5(t), 1, 16),
                                             '.'),
               c -> CAST(strpos('0123456789abcdef', c) - 1 AS HUGEINT))),
           (a, b) -> a * 16 + b) AS v
  FROM n
)
SELECT n.doc_id, md5(t) AS fingerprint_md5,
       CASE WHEN length(t) >= 5 THEN
         (SELECT min(xor(xor(xor(xor(
              unicode(substring(t, CAST(i AS INT), 1)) * 2654435761,
              unicode(substring(t, CAST(i + 1 AS INT), 1)) * 40503),
              unicode(substring(t, CAST(i + 2 AS INT), 1)) * 69069),
              unicode(substring(t, CAST(i + 3 AS INT), 1)) * 123457),
              unicode(substring(t, CAST(i + 4 AS INT), 1))))
          FROM unnest(range(1, length(t) - 3)) AS r(i))
       ELSE
         CAST(CASE WHEN fb.v >= 9223372036854775808
                   THEN fb.v - 18446744073709551616
                   ELSE fb.v END AS BIGINT)
       END AS fingerprint_winnow
FROM n JOIN fb USING (doc_id)
"""

ORACLE_SQL["fingerprint_docs"] = SQL_FINGERPRINT_DOCS


def q_pretrain_pages(sf_dir: str):
    """Full pretraining composition over the persisted page table:
    quality filter -> scrub -> exact dedup -> MinHash near-dedup
    (anti-join).

    HARD oracle (the last headline pipeline to get one): doc ids are
    md5-derived 60-bit ints, the exact-dup key is md5 of the normalized
    scrub output, and the near-dedup stage is the integer-exact mod-P31
    MinHash — sql_pretrain_pages reproduces every keep/drop decision in
    DuckDB."""
    from datetime import datetime
    from nacc_form_validator_ray.pipelines.pretrain import \
        build_pretrain_pipeline
    from nacc_form_validator_ray.utils import Clock
    ds = _rd().read_parquet(_pages_path(sf_dir),
                            columns=["url", "warc_ts", "text"])
    # pin="memory": the oracle-scale page table is a few MB — the
    # explicit opt-in exists precisely for corpora that trivially fit
    # (the default parquet spill pays a disk round-trip that dwarfs a
    # 500-page run; real corpora go through run_pretrain's checkpoints)
    out = build_pretrain_pipeline(ds, clock=Clock(datetime(2026, 1, 1)),
                                  extract=False, pin="memory")
    return out.select_columns(["doc_id", "url", "lang_pred", "n_words"])


QUERIES["pretrain_pages"] = q_pretrain_pages


def q_sessionize_events(sf_dir: str):
    """Gap-based sessionization (30-minute inactivity closes a session):
    classic ordered-log windowing as one hash exchange + vectorized
    group-wise diff/cumsum per partition."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts"])
    gap_us = 30 * 60 * 1_000_000

    def sessionize(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="stable")
        ts_us = part["ts"].astype("datetime64[us]").astype("int64")
        new_user = part["user_id"].ne(part["user_id"].shift(1))
        gap = ts_us.diff().fillna(0) > gap_us
        new_session = (new_user | gap)
        session_seq = new_session.groupby(
            part["user_id"], sort=False).cumsum().astype(np.int64)
        return pd.DataFrame({
            "event_id": part["event_id"].to_numpy(),
            "user_id": part["user_id"].to_numpy(),
            "session_seq": session_seq.to_numpy(),
        })

    return grouped_apply(ds, ["user_id"], sessionize, num_partitions=32)


SQL_SESSIONIZE = """
SELECT event_id, user_id,
       CAST(sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_seq
FROM (
  SELECT event_id, user_id, ts,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   IS NULL THEN 1
              WHEN epoch_us(ts) - epoch_us(lag(ts) OVER (
                   PARTITION BY user_id ORDER BY ts)) > 1800000000
                   THEN 1
              ELSE 0 END AS new_session
  FROM events
)
"""

QUERIES["sessionize_events"] = q_sessionize_events
ORACLE_SQL["sessionize_events"] = SQL_SESSIONIZE


def q_range_join_events(sf_dir: str):
    """Inequality (range) join via bucketed replication: nation-derived
    OVERLAPPING value intervals against the events value column, then a
    grouped rollup. Exercises stages/joins.range_join_bucketed (interval
    replication across buckets + in-bucket verification)."""
    from nacc_form_validator_ray.stages.joins import range_join_bucketed
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum

    nation = _rd().read_parquet(f"{sf_dir}/nation.parquet",
                                columns=["n_nationkey"]) \
        .map_batches(lambda b: pd.DataFrame({
            "n_nationkey": b["n_nationkey"].astype(np.int64),
            "lo": b["n_nationkey"].astype(np.float64) * 12.0,
            "hi": b["n_nationkey"].astype(np.float64) * 12.0 + 18.0,
        }), batch_format="pandas")
    events = _rd().read_parquet(f"{sf_dir}/events.parquet",
                                columns=["event_id", "value"])
    pairs = range_join_bucketed(nation, events, lo="lo", hi="hi",
                                value="value", bucket_width=18.0)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            batch["value"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"n_nationkey":
                          batch["n_nationkey"].astype(np.int64),
                          "n_events": 1, "value_cents": cents})
        return g.groupby("n_nationkey", as_index=False).sum()

    partials = pairs.map_batches(partial, batch_format="pandas")
    return grouped_agg_sum(partials, ["n_nationkey"],
                           ["n_events", "value_cents"],
                           num_partitions=4)


SQL_RANGE_JOIN_EVENTS = """
SELECT CAST(n_nationkey AS BIGINT) AS n_nationkey,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS value_cents
FROM nation JOIN events
  ON n_nationkey * 12.0 <= value AND value < n_nationkey * 12.0 + 18.0
GROUP BY n_nationkey
"""

QUERIES["range_join_events"] = q_range_join_events
ORACLE_SQL["range_join_events"] = SQL_RANGE_JOIN_EVENTS


def q_jaccard_clusters(sf_dir: str):
    """Connected components over the EXACT (SQL-expressible) jaccard
    pair set: every document labeled with its component's minimum
    doc_id. This is the hard oracle for propagate_labels — the DuckDB
    twin computes the transitive closure with a recursive CTE."""
    from nacc_form_validator_ray.stages.dedup import (
        blocked_jaccard_pairs, propagate_labels)
    docs = _docs(sf_dir, columns=["doc_id", "text", "source"])
    pairs = blocked_jaccard_pairs(docs, "source", threshold=0.05)
    ids = _docs(sf_dir, columns=["doc_id"])
    return propagate_labels(pairs, ids)


SQL_JACCARD_CLUSTERS = f"""
WITH RECURSIVE und AS (
  SELECT id_a AS src, id_b AS dst FROM ({SQL_JACCARD_PAIRS})
  UNION ALL
  SELECT id_b, id_a FROM ({SQL_JACCARD_PAIRS})
), reach(src, dst) AS (
  SELECT src, dst FROM und
  UNION
  SELECT r.src, u.dst FROM reach r JOIN und u ON r.dst = u.src
)
SELECT d.doc_id AS doc_id,
       CAST(least(d.doc_id, coalesce(min(r.dst), d.doc_id)) AS BIGINT)
           AS cluster
FROM documents d LEFT JOIN reach r ON d.doc_id = r.src
GROUP BY d.doc_id
"""

QUERIES["jaccard_clusters"] = q_jaccard_clusters
ORACLE_SQL["jaccard_clusters"] = SQL_JACCARD_CLUSTERS


def q_frame_sample(sf_dir: str):
    """Video-style frame sampling plumbing with a HARD oracle: payloads
    are document bytes, frames are fixed-size slices, every 4th frame is
    emitted as its own row (flat-map shape) — byte-identical to the
    DuckDB blob-slicing twin."""
    from nacc_form_validator_ray.stages.multimodal import FrameSampler
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def to_payload(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "media_id": batch["doc_id"],
            "payload": [t.encode("utf-8")
                        for t in batch["text"].fillna("")],
        })

    ds = ds.map_batches(to_payload, batch_format="pandas")
    ds = ds.map_batches(FrameSampler(frame_bytes=256, every_nth=4),
                        batch_format="pandas", batch_size=256)

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        # this DuckDB build cannot slice BLOBs, so the comparable column
        # is the frame decoded back to text — documents.text is pure
        # ASCII (verified both SFs), making char slices == byte slices
        return pd.DataFrame({
            "media_id": batch["media_id"].astype(np.int64),
            "frame_index": batch["frame_index"].astype(np.int64),
            "frame_text": [b.decode("utf-8")
                           for b in batch["frame_payload"]],
        })

    return ds.map_batches(finalize, batch_format="pandas")


SQL_FRAME_SAMPLE = """
SELECT doc_id AS media_id, CAST(f AS BIGINT) AS frame_index,
       substring(coalesce(text, ''), CAST(f * 256 + 1 AS INT),
                 256) AS frame_text
FROM documents,
     unnest(range(0, greatest(length(coalesce(text, '')) // 256, 1),
                  4)) AS t(f)
"""

QUERIES["frame_sample"] = q_frame_sample
ORACLE_SQL["frame_sample"] = SQL_FRAME_SAMPLE


def q_fingerprint_winnow(sf_dir: str):
    """Winnowing-style min rolling-5-gram fingerprint, oracled: the
    rolling hash is pure integer arithmetic (terms < 2^40, xor keeps it
    there) so DuckDB reproduces it bit-for-bit over codepoints —
    documents are ASCII so codepoints == bytes. Docs shorter than 5
    normalized chars use an md5 fallback with no exact SQL twin and are
    excluded here (fingerprint_docs covers them rows-only)."""
    from nacc_form_validator_ray.stages.text_signals import Fingerprint
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(Fingerprint(), batch_format="pyarrow")

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.compute as pc
        from nacc_form_validator_ray.stages.dedup import \
            normalize_ws_arrow
        keep = pc.greater_equal(
            pc.utf8_length(normalize_ws_arrow(batch["text"])),
            5).to_numpy(zero_copy_only=False)
        return pd.DataFrame({
            "doc_id": batch["doc_id"].to_numpy()[keep],
            "winnow": batch["fingerprint_winnow"].to_numpy(
                np.uint64)[keep].astype(np.int64),
        })

    return ds.map_batches(finalize, batch_format="pandas")


SQL_FINGERPRINT_WINNOW = """
WITH n AS (
  SELECT doc_id, lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))) AS t
  FROM documents
), d AS (
  SELECT doc_id, t, length(t) AS L FROM n WHERE length(t) >= 5
)
SELECT doc_id,
       (SELECT min(xor(xor(xor(xor(
            unicode(substring(t, CAST(i AS INT), 1)) * 2654435761,
            unicode(substring(t, CAST(i + 1 AS INT), 1)) * 40503),
            unicode(substring(t, CAST(i + 2 AS INT), 1)) * 69069),
            unicode(substring(t, CAST(i + 3 AS INT), 1)) * 123457),
            unicode(substring(t, CAST(i + 4 AS INT), 1))))
        FROM unnest(range(1, L - 3)) AS r(i)) AS winnow
FROM d
"""

QUERIES["fingerprint_winnow"] = q_fingerprint_winnow
ORACLE_SQL["fingerprint_winnow"] = SQL_FINGERPRINT_WINNOW


def q_event_value_quantiles(sf_dir: str):
    """Exact grouped quantiles (p50/p95) of event values per type: one
    hash exchange, then a vectorized per-partition sort + index pick
    (value at floor(q·(n-1)) of the sorted cents — the same discrete
    semantics as the SQL window twin)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type", "value"])

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            batch["value"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        return pd.DataFrame({"event_type": batch["event_type"],
                             "cents": cents})

    def quantiles(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for etype, g in part.groupby("event_type", sort=False):
            v = np.sort(g["cents"].to_numpy(np.int64))
            for pct in (50, 95):
                idx = int(np.floor(pct / 100.0 * (len(v) - 1)))
                rows.append((etype, pct, int(v[idx])))
        return pd.DataFrame(rows, columns=["event_type", "q_pct",
                                           "value_cents"])

    lean = ds.map_batches(to_cents, batch_format="pandas")
    return grouped_apply(lean, ["event_type"], quantiles,
                         num_partitions=4)


SQL_EVENT_VALUE_QUANTILES = """
WITH c AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
), r AS (
  SELECT event_type, cents,
         row_number() OVER (PARTITION BY event_type ORDER BY cents) AS rn,
         count(*) OVER (PARTITION BY event_type) AS cnt
  FROM c
)
SELECT event_type, CAST(q.q_pct AS BIGINT) AS q_pct,
       cents AS value_cents
FROM r JOIN (VALUES (50), (95)) AS q(q_pct)
  ON r.rn - 1 = CAST(floor(q.q_pct / 100.0 * (r.cnt - 1)) AS BIGINT)
"""

QUERIES["event_value_quantiles"] = q_event_value_quantiles
ORACLE_SQL["event_value_quantiles"] = SQL_EVENT_VALUE_QUANTILES


#: KMV sketch constants: hash = 3 rounds of (A·x + B) mod P. P prime
#: < 2^31 keeps every 64-bit product exact in both numpy and SQL BIGINT
#: arithmetic; one round does NOT mix small ids (no wraparound -> the
#: k-th minimum tracks the k-th smallest id and the estimator is
#: garbage), three rounds distribute uniformly over [0, P)
KMV_A, KMV_B, KMV_P, KMV_K, KMV_ROUNDS = 48271, 11, 2_147_483_647, 64, 3


def q_distinct_users_kmv(sf_dir: str):
    """K-minimum-values distinct-count sketch over event users — the
    mergeable approximate-distinct pattern (per-batch partial = its k
    smallest hashes; merge = k smallest of the union), with a FULLY
    EXACT oracle: the hash is integer arithmetic and the estimator
    floor((k-1)·P / h_k) is integer division, so DuckDB reproduces the
    sketch bit-for-bit."""
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        h = batch["user_id"].to_numpy(np.int64)
        for _ in range(KMV_ROUNDS):
            h = (KMV_A * h + KMV_B) % KMV_P
        h = np.unique(h)[:KMV_K]
        return pd.DataFrame({"h": h.astype(np.int64),
                             "__one": np.zeros(len(h), np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas")

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        h = np.unique(part["h"].to_numpy(np.int64))[:KMV_K]
        if len(h) < KMV_K:
            est = len(h)  # saw fewer than k distinct hashes -> exact
        else:
            est = (KMV_K - 1) * KMV_P // int(h[KMV_K - 1])
        return pd.DataFrame({"k": [KMV_K], "kth_hash": [int(h[-1])],
                             "estimate": [int(est)]})

    # partials are tiny (≤k rows each): one single-partition merge
    from nacc_form_validator_ray.stages.partition import grouped_apply
    return grouped_apply(parts, ["__one"], merge, num_partitions=1)


SQL_DISTINCT_USERS_KMV = f"""
WITH h AS (
  SELECT DISTINCT
      ({KMV_A} * (({KMV_A} * (({KMV_A} * user_id + {KMV_B}) % {KMV_P})
                   + {KMV_B}) % {KMV_P}) + {KMV_B}) % {KMV_P} AS h
  FROM events
), k AS (
  SELECT h FROM h ORDER BY h LIMIT {KMV_K}
), agg AS (
  SELECT count(*) AS n, max(h) AS kth FROM k
)
SELECT CAST({KMV_K} AS BIGINT) AS k, CAST(kth AS BIGINT) AS kth_hash,
       CAST(CASE WHEN n < {KMV_K} THEN n
                 ELSE CAST({KMV_K} - 1 AS BIGINT) * {KMV_P} // kth END
            AS BIGINT) AS estimate
FROM agg
"""

QUERIES["distinct_users_kmv"] = q_distinct_users_kmv
ORACLE_SQL["distinct_users_kmv"] = SQL_DISTINCT_USERS_KMV


def q_host_doc_counts(sf_dir: str):
    """Per-host page counts over the Zipf-skewed generated page table —
    the SALTED pre-aggregation pattern (hot hosts reduced per (host,
    salt) inside batches before the exchange) with a hard oracle."""
    from nacc_form_validator_ray.pipelines.quality_filter import \
        host_metrics
    ds = _rd().read_parquet(_pages_path(sf_dir), columns=["url"])
    out = host_metrics(ds)
    return out.map_batches(
        lambda b: pd.DataFrame({
            "host": b["host"],
            "n_docs": b["n_docs"].astype(np.int64)}),
        batch_format="pandas")


def sql_host_doc_counts(path: str) -> str:
    return f"""
SELECT regexp_extract(url, 'https?://([^/]+)/', 1) AS host,
       CAST(count(*) AS BIGINT) AS n_docs
FROM read_parquet('{path}')
GROUP BY 1
"""


QUERIES["host_doc_counts"] = q_host_doc_counts


def q_contamination(sf_dir: str):
    """Benchmark decontamination: per-document count of distinct word
    3-gram shingles shared with a benchmark set (here: docs with
    doc_id < 20). The benchmark's shingle-hash set is built once from a
    pushed-down read and broadcast (`ray.put`); the corpus pass is a
    single map_batches membership count — the classic eval-set
    contamination screen, with a hard SQL twin."""
    import pyarrow.parquet as pq
    import ray
    from nacc_form_validator_ray.stages.dedup import (_shingle_hashes,
                                                      _token_lists)

    bench_tbl = pq.read_table(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"],
                              filters=[("doc_id", "<", 20)]).to_pandas()
    _, bh = _shingle_hashes(bench_tbl["text"], 3,
                            len(bench_tbl))
    bench_ref = ray.put(np.unique(bh))

    class Contamination:
        def __init__(self, ref):
            self.ref = ref
            self.bench = None

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if self.bench is None:
                self.bench = ray.get(self.ref)
            doc_id, h = _shingle_hashes(batch["text"], 3,
                                        len(batch))
            n = len(batch)
            n_shingles = np.zeros(n, dtype=np.int64)
            n_contam = np.zeros(n, dtype=np.int64)
            if len(h):
                # distinct (doc, shingle) pairs via lexsort boundaries
                order = np.lexsort((h, doc_id))
                sd, sh = doc_id[order], h[order]
                new = np.ones(len(sd), dtype=bool)
                new[1:] = (sd[1:] != sd[:-1]) | (sh[1:] != sh[:-1])
                ud, uh = sd[new], sh[new]
                n_shingles = np.bincount(ud, minlength=n) \
                    .astype(np.int64)
                hit = np.isin(uh, self.bench)
                n_contam = np.bincount(ud[hit], minlength=n) \
                    .astype(np.int64)
            return pd.DataFrame({
                "doc_id": batch["doc_id"].to_numpy(),
                "n_shingles": n_shingles,
                "n_contaminated": n_contam,
            })

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(Contamination, fn_constructor_kwargs={
        "ref": bench_ref}, batch_format="pandas", batch_size=4096,
        concurrency=(1, 4))


SQL_CONTAMINATION = """
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
  FROM documents
), g AS (
  SELECT doc_id,
         CASE WHEN len(toks) >= 3
              THEN list_distinct(list_transform(range(1, len(toks) - 1),
                   i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))
              ELSE CAST([] AS VARCHAR[]) END AS s
  FROM t
), bench AS (
  SELECT DISTINCT ng FROM (
    SELECT unnest(s) AS ng FROM g WHERE doc_id < 20)
), corp AS (
  SELECT doc_id, unnest(s) AS ng FROM g
), agg AS (
  SELECT corp.doc_id,
         count(*) AS n_shingles,
         sum(CASE WHEN bench.ng IS NOT NULL THEN 1 ELSE 0 END)
             AS n_contaminated
  FROM corp LEFT JOIN bench ON corp.ng = bench.ng
  GROUP BY corp.doc_id
)
SELECT d.doc_id,
       CAST(coalesce(agg.n_shingles, 0) AS BIGINT) AS n_shingles,
       CAST(coalesce(agg.n_contaminated, 0) AS BIGINT)
           AS n_contaminated
FROM documents d LEFT JOIN agg ON d.doc_id = agg.doc_id
"""

QUERIES["contamination"] = q_contamination
ORACLE_SQL["contamination"] = SQL_CONTAMINATION


# --------------------------------------------------------------------------
# round-3 additions: windowed aggregates, snapshot resolution, model
# inference, vector centroids
# --------------------------------------------------------------------------


def q_rolling_user_stats(sf_dir: str):
    """Per-user time-ordered rolling window (last 5 events): the
    streaming-log windowed-aggregate shape — ONE hash exchange on
    user_id, then vectorized run-relative cumsum windows per partition
    (no per-row loop, no global sort).

    Oracle: values quantized to integer cents; the rolling sum is an
    exact int64 difference of cumsums, and the rolling mean is one
    exact-int divide — bit-identical to the SQL window frame
    ``ROWS BETWEEN 4 PRECEDING AND CURRENT ROW``."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts",
                                     "value"])
    W = 5

    def roll(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts", "event_id"],
                                kind="stable")
        cents = np.floor(part["value"].to_numpy(np.float64) * 100
                         + 0.5).astype(np.int64)
        uid = part["user_id"].to_numpy()
        n = len(part)
        idx = np.arange(n, dtype=np.int64)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = uid[1:] != uid[:-1]
        run_start = np.maximum.accumulate(np.where(new, idx, 0))
        lo = np.maximum(run_start, idx - (W - 1))
        cs = np.cumsum(cents)
        prev = np.where(lo > 0, cs[lo - 1], 0)
        roll_cents = cs - prev
        roll_n = idx - lo + 1
        return pd.DataFrame({
            "event_id": part["event_id"].to_numpy(),
            "user_id": uid,
            "roll_n": roll_n,
            "roll_cents": roll_cents,
            "roll_avg": roll_cents / roll_n,
        })

    return grouped_apply(ds, ["user_id"], roll, num_partitions=32)


SQL_ROLLING_USER_STATS = """
WITH e AS (
  SELECT event_id, user_id, ts,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, user_id,
       CAST(count(*) OVER w AS BIGINT) AS roll_n,
       CAST(sum(cents) OVER w AS BIGINT) AS roll_cents,
       CAST(sum(cents) OVER w AS BIGINT)
           / CAST(count(*) OVER w AS BIGINT) AS roll_avg
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
"""

QUERIES["rolling_user_stats"] = q_rolling_user_stats
ORACLE_SQL["rolling_user_stats"] = SQL_ROLLING_USER_STATS


def q_latest_events(sf_dir: str):
    """Latest-snapshot resolution: keep the newest event per
    (user_id, event_type) — the recrawl-dedup shape (newest
    warc_ts per url wins). Per-batch local argmax FIRST (at most
    |keys| rows per batch ride the wire), then the same argmax once
    per partition after one lean hash exchange."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id",
                                     "event_type", "ts", "value"])

    def local_last(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.sort_values(["user_id", "event_type", "ts",
                               "event_id"], kind="stable")
        return b.drop_duplicates(["user_id", "event_type"],
                                 keep="last")

    partials = ds.map_batches(local_last, batch_format="pandas")
    out = grouped_apply(partials, ["user_id", "event_type"],
                        local_last, num_partitions=32)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        ts_us = batch["ts"].astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "event_id": batch["event_id"].to_numpy(),
            "user_id": batch["user_id"].to_numpy(),
            "event_type": batch["event_type"].to_numpy(),
            "ts_us": ts_us.to_numpy(),
            "value": batch["value"].to_numpy(),
        })

    return out.map_batches(finish, batch_format="pandas")


SQL_LATEST_EVENTS = """
SELECT event_id, user_id, event_type,
       CAST(epoch_us(ts) AS BIGINT) AS ts_us, value
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id, event_type
                               ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
"""

QUERIES["latest_events"] = q_latest_events
ORACLE_SQL["latest_events"] = SQL_LATEST_EVENTS


def q_lr_score_docs(sf_dir: str):
    """Quality-classifier inference over `documents`: broadcast
    integer-quantized weights (ray.put once, actor __init__ load),
    Arrow RE2 feature kernels, one int64 dot-product logit per doc —
    the batched-model-inference shape with a bit-exact twin
    (stages/classifier.py)."""
    from nacc_form_validator_ray.stages.classifier import \
        score_documents
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return score_documents(ds)


def _sql_lr_score() -> str:
    from nacc_form_validator_ray.stages.classifier import LR_WEIGHTS_Q10
    w = LR_WEIGHTS_Q10
    return f"""
WITH f AS (
  SELECT doc_id,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
             AS n_words,
         CAST(len(regexp_extract_all(text, '[0-9]')) AS BIGINT)
             AS n_digits,
         CAST(len(regexp_extract_all(text, '[A-Z]')) AS BIGINT)
             AS n_upper
  FROM documents
)
SELECT doc_id, n_chars, n_words,
       CAST({w['bias']}
            + {w['n_chars']} * n_chars
            + {w['n_words']} * n_words
            + {w['n_digits']} * n_digits
            + {w['n_upper']} * n_upper AS BIGINT) AS logit_q10,
       ({w['bias']}
        + {w['n_chars']} * n_chars
        + {w['n_words']} * n_words
        + {w['n_digits']} * n_digits
        + {w['n_upper']} * n_upper) >= 0 AS keep
FROM f
"""


QUERIES["lr_score_docs"] = q_lr_score_docs
ORACLE_SQL["lr_score_docs"] = _sql_lr_score()


def q_label_centroids(sf_dir: str):
    """Per-class embedding centroids (class prototypes): per-batch
    partial component sums — only |labels| × d cells ride the
    exchange, never the vectors — merged by one tiny grouped sum; the
    centroid is one exact-int divide per component.

    Components quantized to the 2^12 grid so the int64 sums (and the
    single divide) are bit-identical to the SQL twin."""
    import pyarrow as pa
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    from nacc_form_validator_ray.stages.similarity import \
        _matrix_from_arrow
    S = float(1 << 12)

    def partial(t: "pa.Table") -> "pa.Table":
        M = np.floor(_matrix_from_arrow(t["embedding"]) * S + 0.5) \
            .astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = M.shape[1]
        ulab, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(ulab), d), dtype=np.int64)
        np.add.at(sums, inv, M)
        counts = np.bincount(inv, minlength=len(ulab)).astype(np.int64)
        return pa.table({
            "label": np.repeat(ulab, d),
            "dim": np.tile(np.arange(d, dtype=np.int64), len(ulab)),
            "comp_sum": sums.ravel(),
            "n": np.repeat(counts, d),
        })

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["label", "embedding"])
    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=4096)
    merged = grouped_agg_sum(partials, ["label", "dim"],
                             ["comp_sum", "n"])

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["centroid"] = batch["comp_sum"].to_numpy(np.int64) \
            / batch["n"].to_numpy(np.int64)
        return batch[["label", "dim", "n", "comp_sum", "centroid"]]

    return merged.map_batches(finish, batch_format="pandas")


SQL_LABEL_CENTROIDS = """
WITH q AS (
  SELECT CAST(label AS BIGINT) AS label, i.i AS dim,
         CAST(floor(embedding[CAST(i.i AS INT) + 1] * 4096.0 + 0.5)
              AS BIGINT) AS c
  FROM embeddings, range(64) i(i)
)
SELECT label, dim, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(c) AS BIGINT) AS comp_sum,
       CAST(sum(c) AS BIGINT) / CAST(count(*) AS BIGINT) AS centroid
FROM q GROUP BY label, dim
"""

QUERIES["label_centroids"] = q_label_centroids
ORACLE_SQL["label_centroids"] = SQL_LABEL_CENTROIDS


def q_user_type_pivot(sf_dir: str):
    """Pivot (wide conditional aggregation): one row per user with a
    count column per event type. Per-batch boolean-mask partials keep
    the exchange at |users|×1 rows with 5 int columns — the narrow
    pre-aggregated combiner shape, not a types×users shuffle."""
    EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        et = batch["event_type"].to_numpy()
        cols = {"user_id": batch["user_id"]}
        for t in EVENT_TYPES:
            cols[f"n_{t}"] = (et == t).astype(np.int64)
        return pd.DataFrame(cols).groupby(
            "user_id", as_index=False).sum()

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_agg_sum(partials, ["user_id"],
                           [f"n_{t}" for t in EVENT_TYPES])


SQL_USER_TYPE_PIVOT = """
SELECT user_id,
       CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_click,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_error,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_purchase,
       CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_signup,
       CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_view
FROM events GROUP BY user_id
"""

QUERIES["user_type_pivot"] = q_user_type_pivot
ORACLE_SQL["user_type_pivot"] = SQL_USER_TYPE_PIVOT


def q_user_outlier_events(sf_dir: str):
    """Group-stats broadcast-back outlier flagging: pass 1 reduces the
    stream to per-user (n, Σx, Σx²) partials (tiny), the driver merges
    and ships the stats dict back via ray.put, pass 2 streams the full
    log once more and flags events with |x-μ| > 2σ.

    Exactness: cents are int64; the test is the cross-multiplied
    integer form (n·x − S)² > 4·(n·SS − S²) — no division, no sqrt, no
    float anywhere, so the flag is bit-identical to the SQL twin.
    (Int64 bound: |n·x−S| < 3·10⁹ keeps the square exact; at larger
    per-key magnitudes move both sides to the identical double
    formulation.)"""
    import ray
    import pyarrow as pa
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "value"])

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(batch["value"].to_numpy(np.float64) * 100
                         + 0.5).astype(np.int64)
        g = pd.DataFrame({"user_id": batch["user_id"], "n": 1,
                          "s": cents, "ss": cents * cents})
        return g.groupby("user_id", as_index=False).sum()

    stats = _merge_partials(
        ds.map_batches(stats_partial, batch_format="pandas"),
        ["user_id"], {"n": "sum", "s": "sum", "ss": "sum"})
    uid = stats["user_id"].to_numpy(np.int64)
    lut_ref = ray.put((uid,
                       stats["n"].to_numpy(np.int64),
                       stats["s"].to_numpy(np.int64),
                       stats["ss"].to_numpy(np.int64)))

    class Flag:
        def __init__(self, ref):
            ids, n, s, ss = ray.get(ref)
            order = np.argsort(ids, kind="stable")
            self.ids = ids[order]
            self.n, self.s, self.ss = n[order], s[order], ss[order]

        def __call__(self, batch: "pa.Table") -> "pa.Table":
            cents = np.floor(batch["value"].to_numpy(
                zero_copy_only=False) * 100 + 0.5).astype(np.int64)
            pos = np.searchsorted(self.ids, batch["user_id"].to_numpy(
                zero_copy_only=False))
            n, s, ss = self.n[pos], self.s[pos], self.ss[pos]
            lhs = n * cents - s
            outlier = lhs * lhs > 4 * (n * ss - s * s)
            return pa.table({
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "cents": cents,
                "outlier": outlier,
            })

    return ds.map_batches(Flag, fn_constructor_kwargs={"ref": lut_ref},
                          batch_format="pyarrow", batch_size=8192,
                          concurrency=(1, 8))


SQL_USER_OUTLIER_EVENTS = """
WITH e AS (
  SELECT event_id, user_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
), st AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(cents) AS BIGINT) AS s,
         CAST(sum(cents * cents) AS BIGINT) AS ss
  FROM e GROUP BY user_id
)
SELECT e.event_id, e.user_id, e.cents,
       (e.cents * st.n - st.s) * (e.cents * st.n - st.s)
           > 4 * (st.n * st.ss - st.s * st.s) AS outlier
FROM e JOIN st ON e.user_id = st.user_id
"""

QUERIES["user_outlier_events"] = q_user_outlier_events
ORACLE_SQL["user_outlier_events"] = SQL_USER_OUTLIER_EVENTS


def q_new_users_by_day(sf_dir: str):
    """First-touch adoption curve: per-user min(day) via pre-aggregated
    partials (the only exchange is |users| rows), then the tiny per-day
    histogram and its cumulative sum on the driver."""
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (batch["ts"].astype("datetime64[us]").astype("int64")
               // 86_400_000_000)
        return pd.DataFrame({"user_id": batch["user_id"],
                             "first_day": day}) \
            .groupby("user_id", as_index=False).min()

    first = _merge_partials(ds.map_batches(partial,
                                           batch_format="pandas"),
                            ["user_id"], {"first_day": "min"})
    per_day = first.groupby("first_day").size().sort_index()
    return pd.DataFrame({
        "day": per_day.index.to_numpy(np.int64),
        "new_users": per_day.to_numpy(np.int64),
        "cum_users": per_day.cumsum().to_numpy(np.int64),
    })


SQL_NEW_USERS_BY_DAY = """
WITH f AS (
  SELECT user_id,
         min(CAST(epoch_us(ts) // 86400000000 AS BIGINT)) AS day
  FROM events GROUP BY user_id
)
SELECT day, CAST(count(*) AS BIGINT) AS new_users,
       CAST(sum(count(*)) OVER (ORDER BY day
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_users
FROM f GROUP BY day
"""

QUERIES["new_users_by_day"] = q_new_users_by_day
ORACLE_SQL["new_users_by_day"] = SQL_NEW_USERS_BY_DAY


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape — the canonical THREE-table join composition on
    the distributed exchange fabric: segment-filtered customer ⋈
    date-filtered orders (hash exchange), then date-filtered lineitem
    — pre-aggregated per (orderkey, batch) so only lean revenue
    partials ride the second exchange — ⋈ the order side, grouped sum
    per order, per-partition top-k and a k×partitions driver merge.

    Revenue is exact integers: cents(extprice) × (100 − hundredths
    (discount)) in cent-hundredths — bit-identical to the SQL twin.
    Both date filters are pushed into the parquet read."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    from nacc_form_validator_ray.stages.joins import hash_join
    cut_pd = pd.Timestamp("1998-01-01")

    cust = _rd().read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"]) \
        .filter(expr="c_mktsegment == 'BUILDING'") \
        .map_batches(lambda t: t.select(["c_custkey"]).rename_columns(
            ["o_custkey"]), batch_format="pyarrow")
    orders = _rd().read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") < cut_pd))
    ord_cust = hash_join(orders, cust, on="o_custkey") \
        .map_batches(lambda t: t.select(["o_orderkey", "o_orderdate"]),
                     batch_format="pyarrow")

    line = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=(pads.field("l_shipdate") > cut_pd))

    def rev_partial(t: "pa.Table") -> "pa.Table":
        cents = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        dh = np.floor(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pa.table({"o_orderkey": t["l_orderkey"].combine_chunks(),
                      "revenue_ch": cents * (100 - dh)})
        return _pa_grouped_agg(g, ["o_orderkey"],
                               [("revenue_ch", "sum")],
                               ["revenue_ch"])

    rev = line.map_batches(rev_partial, batch_format="pyarrow")

    # join + grouped sum + local top-k all key on o_orderkey, so they
    # fuse into ONE exchange: revenue partials and order rows ride it
    # side-tagged, each partition joins/sums/top-10s in numpy, and the
    # driver merges 10 rows per partition (was: a second full exchange
    # of the joined rows before the sum).
    def tag_rev(t: "pa.Table") -> "pa.Table":
        n = t.num_rows
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "revenue_ch": t["revenue_ch"],
            "o_orderdate_us": pa.array(np.zeros(n, np.int64)),
            "side": pa.array(np.zeros(n, np.int8))})

    def tag_ord(t: "pa.Table") -> "pa.Table":
        n = t.num_rows
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "revenue_ch": pa.array(np.zeros(n, np.int64)),
            "o_orderdate_us": t["o_orderdate"].cast(pa.int64()),
            "side": pa.array(np.ones(n, np.int8))})

    def join_sum_topk(part: "pa.Table") -> "pa.Table":
        okeys = part["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        sidev = part["side"].to_numpy(zero_copy_only=False)
        revs = part["revenue_ch"].to_numpy(zero_copy_only=False)
        dus = part["o_orderdate_us"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(okeys)
        n = len(uniq)
        om = sidev == 1
        has = np.zeros(n, dtype=bool)
        date = np.zeros(n, dtype=np.int64)
        has[codes[om]] = True
        date[codes[om]] = dus[om]
        rm = ~om
        touched = np.zeros(n, dtype=bool)
        np.logical_or.at(touched, codes[rm], True)
        revsum = np.zeros(n, dtype=np.int64)
        np.add.at(revsum, codes[rm], revs[rm])
        k = np.flatnonzero(has & touched)
        sel = k[np.lexsort((np.asarray(uniq)[k], -revsum[k]))[:10]]
        return pa.table({
            "o_orderkey": pa.array(
                np.asarray(uniq)[sel].astype(np.int64)),
            "revenue_ch": pa.array(revsum[sel]),
            "o_orderdate_us": pa.array(date[sel])})

    from nacc_form_validator_ray.stages.partition import grouped_apply
    both = rev.map_batches(tag_rev, batch_format="pyarrow").union(
        ord_cust.map_batches(tag_ord, batch_format="pyarrow"))
    top = grouped_apply(both, ["o_orderkey"], join_sum_topk,
                        num_partitions=32,
                        fn_format="pyarrow").to_pandas()
    top = top.sort_values(["revenue_ch", "o_orderkey"],
                          ascending=[False, True]).head(10)
    return pd.DataFrame({
        "o_orderkey": top["o_orderkey"].to_numpy(np.int64),
        "revenue_ch": top["revenue_ch"].to_numpy(np.int64),
        "o_orderdate_us": top["o_orderdate_us"].to_numpy(np.int64),
    })


SQL_Q3_SHIPPING_PRIORITY = """
SELECT l.l_orderkey AS o_orderkey,
       CAST(sum(CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                * (100 - CAST(floor(l.l_discount * 100 + 0.5)
                              AS BIGINT))) AS BIGINT) AS revenue_ch,
       CAST(epoch_us(o.o_orderdate) AS BIGINT) AS o_orderdate_us
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1998-01-01'
  AND l.l_shipdate > TIMESTAMP '1998-01-01'
GROUP BY l.l_orderkey, o.o_orderdate
ORDER BY revenue_ch DESC, o_orderkey LIMIT 10
"""

QUERIES["q3_shipping_priority"] = q3_shipping_priority
ORACLE_SQL["q3_shipping_priority"] = SQL_Q3_SHIPPING_PRIORITY


def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape — the LEFT OUTER JOIN distribution query: count
    each customer's qualifying orders (including customers with zero)
    and histogram the counts. Runs as ONE fused exchange: both sides
    key on custkey, so the order side pre-aggregates per batch (lean
    (custkey, cnt) partials — order payload never rides the wire), the
    customer side ships keys only, and each partition counts, aligns
    the left side (zero-fill = the OUTER semantics), and emits a
    partial histogram; a tiny second exchange merges histograms."""
    from nacc_form_validator_ray.stages.partition import (
        grouped_agg_sum, hash_exchange)
    rd_ = _rd()
    cust = rd_.read_parquet(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey"])
    orders = rd_.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_custkey", "o_orderpriority"])

    def cust_rows(t):
        keys = t["c_custkey"].to_numpy(zero_copy_only=False)
        return {"custkey": keys.astype(np.int64),
                "cnt": np.zeros(len(keys), dtype=np.int64),
                "side": np.zeros(len(keys), dtype=np.int8)}

    def order_partials(t):
        import pyarrow.compute as pc
        mask = pc.not_equal(t["o_orderpriority"], "5-LOW")
        keys = t.filter(mask)["o_custkey"] \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, counts = np.unique(keys, return_counts=True)
        return {"custkey": uniq,
                "cnt": counts.astype(np.int64),
                "side": np.ones(len(uniq), dtype=np.int8)}

    unioned = cust.map_batches(cust_rows, batch_format="pyarrow") \
        .union(orders.map_batches(order_partials,
                                  batch_format="pyarrow"))

    def dist(part: pd.DataFrame) -> pd.DataFrame:
        left = part.loc[part["side"] == 0, "custkey"] \
            .to_numpy(np.int64)
        o = part[part["side"] == 1]
        counts = np.zeros(len(left), dtype=np.int64)
        if len(o):
            sums = o.groupby("custkey", sort=False)["cnt"].sum()
            counts = sums.reindex(left).fillna(0) \
                .to_numpy(np.int64)
        hist_k, hist_n = np.unique(counts, return_counts=True)
        return pd.DataFrame({"c_count": hist_k,
                             "custdist": hist_n.astype(np.int64)})

    parts = hash_exchange(unioned, ["custkey"], dist,
                          num_partitions=16)
    return grouped_agg_sum(parts, ["c_count"], ["custdist"],
                           num_partitions=4)


SQL_Q13_CUSTOMER_DISTRIBUTION = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (
  SELECT c.c_custkey, CAST(count(o.o_custkey) AS BIGINT) AS c_count
  FROM customer c LEFT JOIN orders o
    ON c.c_custkey = o.o_custkey AND o.o_orderpriority <> '5-LOW'
  GROUP BY c.c_custkey)
GROUP BY c_count
"""

QUERIES["q13_customer_distribution"] = q13_customer_distribution
ORACLE_SQL["q13_customer_distribution"] = SQL_Q13_CUSTOMER_DISTRIBUTION


def q_pmi_bigrams(sf_dir: str):
    """Collocation extraction: top-50 bigrams by pointwise mutual
    information. One tokenizing pass emits per-batch unigram AND
    bigram count partials (dictionary-coded, pair-packed int64 —
    no Python loop), one grouped-sum exchange merges them; the
    vocabulary-bounded unigram table (plus the total bigram mass) is
    pulled once and broadcast back (the perplexity-model pattern)
    while bigram scoring stays distributed with a per-partition
    top-k.

    Exactness: PMI = log2((c_xy*N)/(c_x*c_y)) — exact int64 products,
    one divide, log2 on the 2^-20 grid (the perplexity trick), ties
    broken on (w1, w2). Int64 bound: c_xy*N < 2^63; beyond that move
    both sides to the identical double formulation."""
    import ray
    import pyarrow as pa
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    from nacc_form_validator_ray.stages.text_signals import \
        arrow_token_codes
    MIN_C, K, GRID = 3, 50, 1048576.0

    def count_partial(t: "pa.Table") -> "pa.Table":
        codes, dictionary, tok_doc, _ = arrow_token_codes(t["text"])
        if dictionary is None or not len(codes):
            return pa.table({"w1": pa.array([], type=pa.string()),
                             "w2": pa.array([], type=pa.string()),
                             "c": pa.array([], type=pa.int64())})
        toks = dictionary.to_numpy(zero_copy_only=False)
        ucount = np.bincount(codes, minlength=len(toks)) \
            .astype(np.int64)
        nz = np.flatnonzero(ucount)
        w1 = [toks[nz]]
        w2 = [np.full(len(nz), "", dtype=object)]
        cs = [ucount[nz]]
        same_doc = tok_doc[1:] == tok_doc[:-1]
        if same_doc.any():
            a = codes[:-1][same_doc].astype(np.int64)
            b = codes[1:][same_doc].astype(np.int64)
            pair = (a << 32) | b
            up, pcnt = np.unique(pair, return_counts=True)
            w1.append(toks[(up >> 32).astype(np.int64)])
            w2.append(toks[(up & 0xFFFFFFFF).astype(np.int64)])
            cs.append(pcnt.astype(np.int64))
        return pa.table({"w1": np.concatenate(w1),
                         "w2": np.concatenate(w2),
                         "c": np.concatenate(cs)})

    ds = _docs(sf_dir, columns=["text"])
    merged = grouped_agg_sum(
        ds.map_batches(count_partial, batch_format="pyarrow",
                       batch_size=4096), ["w1", "w2"], ["c"])

    # ONE extra pass over the merged counts pulls only the
    # vocabulary-bounded unigram rows plus a per-batch bigram-mass row
    # (key "" can never collide with a [a-z]+ token)
    def uni_partial(batch: pd.DataFrame) -> pd.DataFrame:
        is_u = batch["w2"].to_numpy() == ""
        out = batch.loc[is_u, ["w1", "c"]]
        mass = np.int64(batch.loc[~is_u, "c"].sum())
        return pd.concat(
            [out, pd.DataFrame({"w1": [""], "c": [mass]})],
            ignore_index=True)

    uni = _merge_partials(
        merged.map_batches(uni_partial, batch_format="pandas"),
        ["w1"], {"c": "sum"})
    nb = np.int64(uni.loc[uni["w1"] == "", "c"].iloc[0])
    lut_ref = ray.put((uni.loc[uni["w1"] != "", "w1"]
                       .to_numpy(dtype=object),
                       uni.loc[uni["w1"] != "", "c"]
                       .to_numpy(np.int64), nb))

    class Score:
        def __init__(self, ref):
            toks, counts, total = ray.get(ref)
            order = np.argsort(toks, kind="stable")
            self.toks = toks[order]
            self.counts = counts[order]
            self.nb = total

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            b = batch[(batch["w2"].to_numpy() != "")
                      & (batch["c"].to_numpy(np.int64) >= MIN_C)]
            if not len(b):
                return pd.DataFrame({"w1": [], "w2": [],
                                     "c_xy": np.empty(0, np.int64),
                                     "pmi": np.empty(0, np.float64)})
            cx = self.counts[np.searchsorted(
                self.toks, b["w1"].to_numpy(dtype=object))]
            cy = self.counts[np.searchsorted(
                self.toks, b["w2"].to_numpy(dtype=object))]
            c_xy = b["c"].to_numpy(np.int64)
            ratio = (c_xy * self.nb).astype(np.float64) \
                / (cx * cy).astype(np.float64)
            pmi = np.floor(np.log2(ratio) * GRID + 0.5) / GRID
            out = pd.DataFrame({"w1": b["w1"].to_numpy(),
                                "w2": b["w2"].to_numpy(),
                                "c_xy": c_xy, "pmi": pmi})
            return out.sort_values(["pmi", "w1", "w2"],
                                   ascending=[False, True, True]) \
                .head(K)

    top = merged.map_batches(Score, fn_constructor_kwargs={
        "ref": lut_ref}, batch_format="pandas",
        concurrency=(1, 8)).to_pandas()
    return top.sort_values(["pmi", "w1", "w2"],
                           ascending=[False, True, True]) \
        .head(K).reset_index(drop=True)


SQL_PMI_BIGRAMS = """
WITH t AS (
  SELECT regexp_extract_all(lower(text), \'[a-z]+\') AS toks
  FROM documents
), bg AS (
  SELECT unnest(CASE WHEN len(toks) >= 2
       THEN list_transform(range(1, len(toks)),
            i -> toks[i] || \' \' || toks[i+1])
       ELSE CAST([] AS VARCHAR[]) END) AS b
  FROM t
), bc AS (
  SELECT split_part(b, \' \', 1) AS w1, split_part(b, \' \', 2) AS w2,
         CAST(count(*) AS BIGINT) AS c
  FROM bg GROUP BY b
), uc AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS c FROM (
    SELECT unnest(toks) AS tok FROM t) GROUP BY tok
), nbt AS (
  SELECT CAST(sum(c) AS BIGINT) AS nb FROM bc
)
SELECT bc.w1, bc.w2, bc.c AS c_xy,
       floor(log2(CAST(bc.c * nbt.nb AS DOUBLE)
                  / CAST(u1.c * u2.c AS DOUBLE))
             * 1048576.0 + 0.5) / 1048576.0 AS pmi
FROM bc
CROSS JOIN nbt
JOIN uc u1 ON u1.tok = bc.w1
JOIN uc u2 ON u2.tok = bc.w2
WHERE bc.c >= 3
ORDER BY pmi DESC, bc.w1, bc.w2 LIMIT 50
"""

QUERIES["pmi_bigrams"] = q_pmi_bigrams
ORACLE_SQL["pmi_bigrams"] = SQL_PMI_BIGRAMS

QUERIES["c4_filter_pages"] = q_c4_filter_pages
QUERIES["url_normalize_pages"] = q_url_normalize_pages
QUERIES["host_pagerank"] = q_host_pagerank
QUERIES["inlink_stats"] = q_inlink_stats
QUERIES["dup_ngram_spans"] = q_dup_ngram_spans
QUERIES["dup_ngram_spans_hashed"] = q_dup_ngram_spans_hashed
QUERIES["dup_ngram_spans_exact"] = q_dup_ngram_spans_exact
QUERIES["web_clean_pages"] = q_web_clean_pages
QUERIES["domain_filter_docs"] = q_domain_filter_docs
QUERIES["url_blocklist"] = q_url_blocklist
QUERIES["incremental_ingest"] = q_incremental_ingest
QUERIES["host_hits"] = q_host_hits
QUERIES["validator_linkpages"] = q_validator_linkpages
# their oracles embed the linked-page parquet path -> flagship_oracles


def q_bpe_merges(sf_dir: str):
    """BPE tokenizer training: learn the first 10 merge rules over the
    documents corpus (word counting is the corpus exchange; the merge
    loop runs on the vocabulary-bounded frequency table)."""
    from nacc_form_validator_ray.stages.bpe import bpe_merges
    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["text"])
    return bpe_merges(ds, n_merges=10)


def _bpe_cte_chain(n_merges: int):
    """Shared CTE chain for the BPE twins: word counts -> dotted v0 ->
    one merge stage per rank. Each stage mirrors the engine's
    REFERENCE-EXACT list merge (stages/bpe._apply_merge): unnest the
    symbol rows, flag (a, b) candidates, resolve overlaps greedily
    left-to-right via run parity (gaps-and-islands: within a maximal
    run of consecutive candidate positions only offsets 0, 2, 4, ...
    merge), splice out the consumed right symbols and re-aggregate the
    dotted string. Returns the WITH-body string and the per-merge
    output selects."""
    stages, outs = [], []
    for k in range(1, n_merges + 1):
        prev = f"v{k - 1}"
        # MATERIALIZED stops DuckDB's default CTE inlining — each stage
        # references its predecessor several times, so inlining is
        # exponential in the merge count
        stages.append(f"""
sy{k} AS (
  SELECT word, cnt, i, sp[i] AS sym,
         CASE WHEN i < len(sp) - 1 THEN sp[i + 1] END AS nxt
  FROM (SELECT word, cnt, sp, unnest(range(2, len(sp))) AS i
        FROM (SELECT word, cnt, string_split(seq, '.') AS sp
              FROM {prev}))
),
p{k} AS (
  SELECT '.' || sym || '.' || nxt || '.' AS pat, sym AS a, nxt AS b,
         CAST(sum(cnt) AS BIGINT) AS c
  FROM sy{k} WHERE nxt IS NOT NULL GROUP BY 1, 2, 3
),
m{k} AS MATERIALIZED (
  SELECT pat, '.' || a || b || '.' AS rep, a, b, c
  FROM p{k} ORDER BY c DESC, pat LIMIT 1),
rn{k} AS (
  SELECT *, CASE WHEN cand THEN i - ROW_NUMBER()
        OVER (PARTITION BY word, cand ORDER BY i) END AS grp
  FROM (SELECT word, cnt, i, sym, nxt,
               COALESCE(sym = (SELECT a FROM m{k})
                        AND nxt = (SELECT b FROM m{k}),
                        FALSE) AS cand
        FROM sy{k})
),
mg{k} AS (
  SELECT word, cnt, i,
         CASE WHEN keepm THEN sym || nxt ELSE sym END AS osym,
         COALESCE(LAG(keepm) OVER (PARTITION BY word ORDER BY i),
                  FALSE) AS consumed
  FROM (SELECT *, cand AND (ROW_NUMBER() OVER
              (PARTITION BY word, grp ORDER BY i) - 1) % 2 = 0
              AS keepm
        FROM rn{k})
),
v{k} AS MATERIALIZED (
  SELECT word, cnt,
         '.' || string_agg(osym, '.' ORDER BY i) || '.' AS seq
  FROM mg{k} WHERE NOT consumed GROUP BY word, cnt
)""")
        outs.append(f"SELECT {k} AS \"rank\", pat AS pair, rep AS "
                    f"merged, c FROM m{k}")
    body = f"""w AS (
  SELECT tok AS word, CAST(count(*) AS BIGINT) AS cnt FROM (
    SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
    FROM documents) GROUP BY tok
),
v0 AS MATERIALIZED (
  SELECT word, regexp_replace(word, '(.)', '.\\1', 'g') || '.' AS seq,
         cnt
  FROM w),
{','.join(stages)}"""
    return body, outs


def _sql_bpe_merges(n_merges: int = 10) -> str:
    """Chained-CTE twin: one (pair-count -> argmax -> replace) stage
    per merge, identical dotted-string representation and
    (count DESC, pattern ASC) tie-break."""
    body, outs = _bpe_cte_chain(n_merges)
    return f"""
WITH {body}
SELECT CAST("rank" AS BIGINT) AS "rank", pair, merged, c
FROM ({' UNION ALL '.join(outs)}) ORDER BY "rank"
"""


def q_bpe_encode_docs(sf_dir: str):
    """BPE tokenization: train the 10-rule merge table, broadcast it,
    and encode every document — per-doc word / character / subword
    counts (the map-only corpus pass; merges apply to each batch's word
    dictionary, not every occurrence)."""
    from nacc_form_validator_ray.stages.bpe import bpe_encode, bpe_merges
    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["text"])
    m = bpe_merges(ds, n_merges=10).to_pandas()
    docs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    return bpe_encode(docs, list(zip(m["pair"], m["merged"])))


def _sql_bpe_encode_docs(n_merges: int = 10) -> str:
    # the training corpus IS the encode corpus here, so the chain's
    # final vocabulary state v{n} already carries each word's merged
    # symbol sequence — the encode twin joins doc words to it instead
    # of re-running the merges
    body, _ = _bpe_cte_chain(n_merges)
    return f"""
WITH {body},
dw AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+'))
      AS word
  FROM documents
),
de AS (
  SELECT dw.doc_id, dw.word,
         len(string_split(v.seq, '.')) - 2 AS n_sub
  FROM dw JOIN v{n_merges} v ON v.word = dw.word
),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(len(word)) AS BIGINT) AS n_chars,
         CAST(sum(n_sub) AS BIGINT) AS n_subwords
  FROM de GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_words, 0) AS n_words,
       coalesce(a.n_chars, 0) AS n_chars,
       coalesce(a.n_subwords, 0) AS n_subwords
FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
"""


QUERIES["bpe_merges"] = q_bpe_merges
ORACLE_SQL["bpe_merges"] = _sql_bpe_merges()
QUERIES["bpe_encode_docs"] = q_bpe_encode_docs
ORACLE_SQL["bpe_encode_docs"] = _sql_bpe_encode_docs()


def q_ranked_docs(sf_dir: str):
    """Global ROW_NUMBER over the whole documents table: rank by
    ``n_chars DESC, doc_id`` via ONE range exchange (sampled boundaries
    route co-located value ranges; each partition sorts locally and adds
    the exact offset of higher-ranked partitions — no second pass, no
    driver-side data). Reference analog: globally ordered report output
    (nacc_form_validator orders its error aggregation); at web scale the
    same primitive drives curriculum ordering and sorted exports."""
    from nacc_form_validator_ray.stages.ranking import global_rank
    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "n_chars"])
    return global_rank(ds, "n_chars", tie_cols=["doc_id"],
                       descending=True, num_partitions=32)


SQL_RANKED_DOCS = """
SELECT doc_id, n_chars,
       ROW_NUMBER() OVER (ORDER BY n_chars DESC, doc_id) AS rank
FROM documents
"""


def q_ntile_docs(sf_dir: str):
    """Exact SQL NTILE(100) percentile tiers over the documents table,
    derived arithmetically from the same one-exchange global rank (the
    first n%k tiles hold ceil(n/k) rows)."""
    from nacc_form_validator_ray.stages.ranking import global_rank
    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "n_chars"])
    ranked = global_rank(ds, "n_chars", tie_cols=["doc_id"],
                         num_partitions=32, ntile=100)
    return ranked.select_columns(["doc_id", "n_chars", "tile"])


SQL_NTILE_DOCS = """
SELECT doc_id, n_chars,
       NTILE(100) OVER (ORDER BY n_chars, doc_id) AS tile
FROM documents
"""

QUERIES["ranked_docs"] = q_ranked_docs
ORACLE_SQL["ranked_docs"] = SQL_RANKED_DOCS
QUERIES["ntile_docs"] = q_ntile_docs
ORACLE_SQL["ntile_docs"] = SQL_NTILE_DOCS


def q_running_value_events(sf_dir: str):
    """Exact global running total over the events stream:
    ``SUM(value_milli) OVER (ORDER BY ts, event_id)`` in one range
    exchange (per-partition sums ride the exchange's stats vector, so
    each reducer gets the exact prefix of all lower partitions). Values
    are fixed-point milli-units — integer addition is associative, so
    the distributed scan is bit-identical to SQL's sequential one."""
    from nacc_form_validator_ray.stages.ranking import running_total
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "value"])

    def to_milli(batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        v = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 1000.0) \
            .astype(np.int64)
        return pa.table({
            "event_id": batch["event_id"],
            "ts": batch["ts"],
            "value_milli": pa.array(v, pa.int64()),
        })

    lean = ds.map_batches(to_milli, batch_format="pyarrow")
    out = running_total(lean, "ts", "value_milli",
                        tie_cols=["event_id"], num_partitions=32,
                        out_col="cum_milli")
    return out.select_columns(["event_id", "value_milli", "cum_milli"])


SQL_RUNNING_VALUE_EVENTS = """
SELECT event_id,
       CAST(floor(value * 1000) AS BIGINT) AS value_milli,
       CAST(SUM(CAST(floor(value * 1000) AS BIGINT))
            OVER (ORDER BY ts, event_id) AS BIGINT) AS cum_milli
FROM events
"""

QUERIES["running_value_events"] = q_running_value_events
ORACLE_SQL["running_value_events"] = SQL_RUNNING_VALUE_EVENTS


def q_user_event_seq(sf_dir: str):
    """Per-user ordered-window functions in ONE hash exchange:
    ``ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id)``
    and ``LAG(value_milli)`` over the same frame. The partition callable
    lexsorts once and derives both: run starts give the sequence reset
    points; the lag is the sorted value shifted one row, nulled at each
    user's first event."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "user_id",
                                     "value"])

    def windows(part: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        v = np.floor(
            part["value"].to_numpy(zero_copy_only=False) * 1000.0) \
            .astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        su, se, sv = uid[order], eid[order], v[order]
        n = len(order)
        first = np.ones(n, dtype=bool)
        first[1:] = su[1:] != su[:-1]
        starts = np.flatnonzero(first)
        run_id = np.cumsum(first) - 1
        seq = np.arange(n, dtype=np.int64) - starts[run_id] + 1
        lag = np.empty(n, dtype=np.int64)
        lag[1:] = sv[:-1]
        lag[0] = 0
        return pa.table({
            "event_id": pa.array(se, pa.int64()),
            "user_id": pa.array(su, pa.int64()),
            "seq": pa.array(seq, pa.int64()),
            "lag_value_milli": pa.array(lag, pa.int64(),
                                        mask=first),
        })

    return grouped_apply(ds, ["user_id"], windows,
                         num_partitions=32, fn_format="pyarrow")


SQL_USER_EVENT_SEQ = """
SELECT event_id, user_id,
       CAST(ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS BIGINT)
           AS seq,
       LAG(CAST(floor(value * 1000) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id)
           AS lag_value_milli
FROM events
"""

QUERIES["user_event_seq"] = q_user_event_seq
ORACLE_SQL["user_event_seq"] = SQL_USER_EVENT_SEQ


def q_user_sessions(sf_dir: str):
    """Gap-based sessionization (30-min inactivity) of the event
    stream: ONE user_id hash exchange, vectorized session assignment
    (lexsort + int64 gap diff + cumsum + reduceat aggregates) — the
    classic streaming-window operator on the same exchange the
    temporal rule stage rides (stages/sessions.py)."""
    from nacc_form_validator_ray.stages.sessions import sessionize
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "user_id",
                                     "value"])
    return sessionize(ds)


SQL_USER_SESSIONS = """
WITH e AS (
  SELECT user_id, ts, event_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS vc
  FROM events),
g AS (
  SELECT *, CASE WHEN LAG(ts) OVER w IS NULL
                 OR epoch_us(ts) - epoch_us(LAG(ts) OVER w)
                    > 1800000000
            THEN 1 ELSE 0 END AS news
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (
  SELECT *, SUM(news) OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS UNBOUNDED PRECEDING) AS sid
  FROM g)
SELECT user_id, CAST(sid AS BIGINT) AS session_seq,
       min(ts) AS session_start, max(ts) AS session_end,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(vc) AS BIGINT) AS value_cents,
       CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT)
           AS duration_us
FROM s GROUP BY user_id, sid
"""

QUERIES["user_sessions"] = q_user_sessions
ORACLE_SQL["user_sessions"] = SQL_USER_SESSIONS


def q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape — the canonical SIX-table join: revenue per
    nation for ASIA-region customers served by suppliers of the SAME
    nation, orders within one year.

    Scale shape: region/nation and supplier are broadcast lookups
    (``ray.put`` once, read in every task — never re-shipped per
    batch; suppliers are 10k/SF, broadcastable far past 100 TB of
    fact data), so only TWO large-table exchanges remain: orders ⋈
    customer on custkey, then lineitem — already reduced per batch to
    (orderkey, s_nationkey, revenue partial) — ⋈ that result on
    orderkey. The same-nation predicate and the per-nation sum ride
    the second exchange's output batches as a combiner; the final
    groupby is nation-sized (tiny). Revenue is exact integer
    cent-hundredths, bit-identical to the SQL twin."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray
    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

    # dimension broadcast: ASIA nationkeys + names, supplier -> nation
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    asia_rk = region.filter(
        pc.equal(region["r_name"], "ASIA"))["r_regionkey"][0].as_py()
    nat = nation.filter(pc.equal(nation["n_regionkey"], asia_rk))
    nat_keys = nat["n_nationkey"].to_numpy()
    nat_names = {int(k): str(v) for k, v in
                 zip(nat_keys, nat["n_name"].to_pylist())}
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    s_max = int(supp["s_suppkey"].to_numpy().max())
    s_nat = np.full(s_max + 1, -1, dtype=np.int64)
    s_nat[supp["s_suppkey"].to_numpy()] = supp["s_nationkey"]         .to_numpy()
    dims_ref = ray.put({"nat_keys": nat_keys.astype(np.int64),
                        "s_nat": s_nat})

    cust = _rd().read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"])

    def cust_proj(t: "pa.Table") -> "pa.Table":
        d = ray.get(dims_ref)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
        keep = np.isin(nk, d["nat_keys"])
        t = t.filter(pa.array(keep))
        return pa.table({"o_custkey": t["c_custkey"],
                         "c_nationkey": t["c_nationkey"]})

    orders = _rd().read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi))
    ord_cust = hash_join(
        orders, cust.map_batches(cust_proj, batch_format="pyarrow"),
        on="o_custkey", num_partitions=32)         .map_batches(lambda t: t.select(["o_orderkey", "c_nationkey"])
                     .rename_columns(["l_orderkey", "c_nationkey"]),
                     batch_format="pyarrow")

    line = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"])

    def line_proj(t: "pa.Table") -> "pa.Table":
        d = ray.get(dims_ref)
        sn = d["s_nat"][t["l_suppkey"].to_numpy(zero_copy_only=False)]
        keep = np.isin(sn, d["nat_keys"])
        cents = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        dh = np.floor(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        return pa.table({
            "l_orderkey": t["l_orderkey"].combine_chunks(),
            "s_nationkey": pa.array(sn),
            "revenue_ch": pa.array(cents * (100 - dh)),
        }).filter(pa.array(keep))

    joined = hash_join(line.map_batches(line_proj,
                                        batch_format="pyarrow"),
                       ord_cust, on="l_orderkey", num_partitions=32)

    def nation_partial(t: "pa.Table") -> "pa.Table":
        same = pc.equal(t["s_nationkey"], t["c_nationkey"])
        t = t.filter(same)
        return _pa_grouped_agg(
            t.select(["s_nationkey", "revenue_ch"]), ["s_nationkey"],
            [("revenue_ch", "sum")], ["revenue_ch"])

    per_nat = grouped_agg_sum(
        joined.map_batches(nation_partial, batch_format="pyarrow"),
        ["s_nationkey"], ["revenue_ch"], num_partitions=4)

    def add_name(t: "pa.Table") -> "pa.Table":
        names = [nat_names[int(k)] for k in
                 t["s_nationkey"].to_pylist()]
        return pa.table({"n_name": pa.array(names, pa.string()),
                         "revenue_ch": t["revenue_ch"]})

    return per_nat.map_batches(add_name, batch_format="pyarrow")


SQL_Q5_LOCAL_SUPPLIER_VOLUME = """
SELECT n_name,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                * (100 - CAST(floor(l_discount * 100 + 0.5)
                              AS BIGINT))) AS BIGINT) AS revenue_ch
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n_name
"""

QUERIES["q5_local_supplier_volume"] = q5_local_supplier_volume
ORACLE_SQL["q5_local_supplier_volume"] = SQL_Q5_LOCAL_SUPPLIER_VOLUME


def q_kmeans_embeddings(sf_dir: str):
    """Distributed k-means training (3 Lloyd rounds, k=8) over the
    embeddings table — the third iterative-training operator on the
    fabric (with lr_train and PageRank/HITS): broadcast centroid
    matrix, per-batch (k, d+1) partials, driver k-way merge; exact
    integer arithmetic end-to-end (stages/kmeans.py documents the
    contract that makes the chained-CTE DuckDB twin bit-identical)."""
    from nacc_form_validator_ray.stages.kmeans import kmeans_train
    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    return kmeans_train(ds, k=8, iterations=3)


def sql_kmeans_ctes(k: int = 8, iterations: int = 3) -> list:
    """The chained per-iteration Lloyd CTEs shared by the k-means and
    SemDeDup twins (assign → component sums → rebuilt centroid list per
    round; MATERIALIZED — each stage is referenced twice and DuckDB's
    default inlining is exponential in chain depth). Returns the CTE
    list through ``c{iterations}`` (plus ``vv``/``ux``/``a*``/``s*``)."""
    S = float(1 << 12)
    ctes = [f"""vv AS MATERIALIZED (
  SELECT vec_id,
         list_transform(embedding,
                        x -> floor(CAST(x AS DOUBLE) * {S!r} + 0.5)) AS v
  FROM embeddings
)""", f"""c0 AS MATERIALIZED (
  SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
             AS cid, v AS cv
  FROM (SELECT vec_id, v FROM vv ORDER BY vec_id LIMIT {k})
)""", """ux AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(v, 1) AS idx, unnest(v) AS val
  FROM vv
)"""]
    for i in range(1, iterations + 1):
        prev = f"c{i - 1}"
        ctes.append(f"""a{i} AS MATERIALIZED (
  SELECT vec_id, cid FROM (
    SELECT vv.vec_id, c.cid,
           row_number() OVER (PARTITION BY vv.vec_id ORDER BY
               list_dot_product(c.cv, c.cv)
               - 2 * list_dot_product(vv.v, c.cv), c.cid) AS rn
    FROM vv, {prev} c) WHERE rn = 1
)""")
        ctes.append(f"""s{i} AS MATERIALIZED (
  SELECT a.cid, u.idx,
         floor(sum(u.val) / count(*)) AS cval,
         count(*) AS n
  FROM a{i} a JOIN ux u USING (vec_id)
  GROUP BY a.cid, u.idx
)""")
        ctes.append(f"""c{i} AS MATERIALIZED (
  SELECT p.cid,
         list(coalesce(s.cval, p.pval) ORDER BY p.idx) AS cv
  FROM (SELECT cid, generate_subscripts(cv, 1) AS idx,
               unnest(cv) AS pval FROM {prev}) p
  LEFT JOIN s{i} s ON s.cid = p.cid AND s.idx = p.idx
  GROUP BY p.cid
)""")
    return ctes


def sql_kmeans_embeddings(k: int = 8, iterations: int = 3) -> str:
    """q_kmeans_embeddings' twin: the shared Lloyd CTEs plus the final
    model projection."""
    ctes = sql_kmeans_ctes(k, iterations)
    T = iterations
    return f"""
WITH {', '.join(ctes)},
members AS (
  SELECT cid, count(*) AS n FROM a{T} GROUP BY cid
)
SELECT f.cid, CAST(f.idx - 1 AS BIGINT) AS dim,
       CAST(f.cval AS BIGINT) AS cval,
       CAST(coalesce(m.n, 0) AS BIGINT) AS n_members
FROM (SELECT cid, generate_subscripts(cv, 1) AS idx,
             unnest(cv) AS cval FROM c{T}) f
LEFT JOIN members m ON m.cid = f.cid
"""


QUERIES["kmeans_embeddings"] = q_kmeans_embeddings
ORACLE_SQL["kmeans_embeddings"] = sql_kmeans_embeddings()


def q_kmeans_inertia(sf_dir: str):
    """Clustering-quality evaluation: per-cluster member count and
    INERTIA (sum of squared distances to the final centroid) for the
    k-means model — the metric an elbow/model-selection sweep reads.
    Train once (the existing exact-integer Lloyd fit), broadcast the
    centroid matrix, then one scoring pass: per batch an int64
    ``|x|² - 2x·c + |c|²`` distance matrix, argmin with the model's
    smallest-cid tie rule, and per-cid (n, inertia) combiners the
    driver merges. Every quantity is an exact integer on the 2^12
    grid, so the twin (the shared Lloyd CTE chain plus one final
    assignment/SUM) is bit-identical."""
    import pyarrow as pa
    import ray
    from nacc_form_validator_ray.stages.kmeans import (_quantize,
                                                       kmeans_fit)

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    cents, _ = kmeans_fit(ds, k=8, iterations=3)
    cents_ref = ray.put(cents.astype(np.int64))

    def partial(t: "pa.Table") -> pd.DataFrame:
        C = ray.get(cents_ref)
        X = _quantize(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))) \
            .astype(np.int64)
        d = (X * X).sum(axis=1)[:, None] \
            - 2 * (X @ C.T) + (C * C).sum(axis=1)[None, :]
        cid = np.argmin(d, axis=1)  # first minimum == smallest cid
        min_d = d[np.arange(len(X)), cid]
        df = pd.DataFrame({"cid": cid.astype(np.int64),
                           "n_members": 1, "inertia": min_d})
        return df.groupby("cid", as_index=False).sum()

    return _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["cid"], {"n_members": "sum", "inertia": "sum"})


def sql_kmeans_inertia(k: int = 8, iterations: int = 3) -> str:
    ctes = sql_kmeans_ctes(k, iterations)
    T = iterations
    return f"""
WITH {', '.join(ctes)},
af AS (
  SELECT vec_id, cid,
         list_dot_product(v, v) + list_dot_product(cv, cv)
           - 2 * list_dot_product(v, cv) AS dist
  FROM (
    SELECT vv.vec_id, c.cid, vv.v, c.cv,
           row_number() OVER (PARTITION BY vv.vec_id ORDER BY
               list_dot_product(c.cv, c.cv)
               - 2 * list_dot_product(vv.v, c.cv), c.cid) AS rn
    FROM vv, c{T} c) WHERE rn = 1)
SELECT cid, CAST(count(*) AS BIGINT) AS n_members,
       CAST(sum(dist) AS BIGINT) AS inertia
FROM af GROUP BY cid
"""


QUERIES["kmeans_inertia"] = q_kmeans_inertia
ORACLE_SQL["kmeans_inertia"] = sql_kmeans_inertia()


def q_semdedup_embeddings(sf_dir: str):
    """SemDeDup (arXiv:2303.09540): k-means-partitioned semantic
    dedup — train the exact-integer Lloyd model, broadcast the centroid
    matrix, assign every vector in one map pass, then ONE hash exchange
    on the cluster id; within a cluster a vector is dropped when a
    smaller-id member sits within the quantized squared-L2 threshold
    (stages/semdedup.py documents the bit-exactness contract and the
    max_anchors bound mirrored by the twin's row_number() cap)."""
    from nacc_form_validator_ray.stages.semdedup import semdedup
    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    return semdedup(ds, k=8, iterations=3,
                    dist2_threshold=20_000_000, max_anchors=4096)


def sql_semdedup_embeddings(k: int = 8, iterations: int = 3,
                            dist2_threshold: int = 20_000_000,
                            max_anchors: int = 4096) -> str:
    """q_semdedup_embeddings' twin: the shared Lloyd CTEs, one final
    assignment against c{T}, then the within-cluster smaller-id
    neighbor test (anchors capped at row_number() <= max_anchors)."""
    ctes = sql_kmeans_ctes(k, iterations)
    T = iterations
    return f"""
WITH {', '.join(ctes)},
af AS MATERIALIZED (
  SELECT vec_id, cid FROM (
    SELECT vv.vec_id, c.cid,
           row_number() OVER (PARTITION BY vv.vec_id ORDER BY
               list_dot_product(c.cv, c.cv)
               - 2 * list_dot_product(vv.v, c.cv), c.cid) AS rn
    FROM vv, c{T} c) WHERE rn = 1
), ranked AS MATERIALIZED (
  SELECT a.vec_id, a.cid, v.v,
         row_number() OVER (PARTITION BY a.cid
                            ORDER BY a.vec_id) AS rn
  FROM af a JOIN vv v USING (vec_id)
), dup AS (
  SELECT m.vec_id, min(e.vec_id) AS dup_of
  FROM ranked m JOIN ranked e
    ON e.cid = m.cid AND e.vec_id < m.vec_id
   AND e.rn <= {max_anchors}
  WHERE list_dot_product(m.v, m.v) + list_dot_product(e.v, e.v)
        - 2 * list_dot_product(m.v, e.v) <= {dist2_threshold}
  GROUP BY m.vec_id
)
SELECT r.vec_id, r.cid,
       (d.dup_of IS NULL) AS kept,
       CAST(coalesce(d.dup_of, -1) AS BIGINT) AS dup_of
FROM ranked r LEFT JOIN dup d ON d.vec_id = r.vec_id
"""


QUERIES["semdedup_embeddings"] = q_semdedup_embeddings
ORACLE_SQL["semdedup_embeddings"] = sql_semdedup_embeddings()


def q_knn_join_embeddings(sf_dir: str):
    """Cluster-partitioned kNN similarity SELF-JOIN: every vector's
    top-3 nearest neighbors (quantized squared L2, ties to the smaller
    id) among the other members of its k-means cell — the IVF-style
    embedding join (n_probe=1) used for retrieval-augmented dedup at
    corpus scale. One assignment pass + ONE cid exchange; the twin
    rides the shared Lloyd CTEs plus a within-cell ranked self-join."""
    from nacc_form_validator_ray.stages.semdedup import knn_join
    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    return knn_join(ds, k=8, iterations=3, top_k=3, max_anchors=4096)


def sql_knn_join_embeddings(k: int = 8, iterations: int = 3,
                            top_k: int = 3,
                            max_anchors: int = 4096) -> str:
    ctes = sql_kmeans_ctes(k, iterations)
    T = iterations
    return f"""
WITH {', '.join(ctes)},
af AS MATERIALIZED (
  SELECT vec_id, cid FROM (
    SELECT vv.vec_id, c.cid,
           row_number() OVER (PARTITION BY vv.vec_id ORDER BY
               list_dot_product(c.cv, c.cv)
               - 2 * list_dot_product(vv.v, c.cv), c.cid) AS rn
    FROM vv, c{T} c) WHERE rn = 1
), ranked AS MATERIALIZED (
  SELECT a.vec_id, a.cid, v.v,
         row_number() OVER (PARTITION BY a.cid
                            ORDER BY a.vec_id) AS rn
  FROM af a JOIN vv v USING (vec_id)
), cand AS (
  SELECT m.vec_id, e.vec_id AS neighbor_id,
         CAST(list_dot_product(m.v, m.v) + list_dot_product(e.v, e.v)
              - 2 * list_dot_product(m.v, e.v) AS BIGINT) AS dist2
  FROM ranked m JOIN ranked e
    ON e.cid = m.cid AND e.vec_id <> m.vec_id
   AND e.rn <= {max_anchors}
)
SELECT vec_id,
       CAST(row_number() OVER (PARTITION BY vec_id
                               ORDER BY dist2, neighbor_id) AS BIGINT)
           AS rank,
       neighbor_id, dist2
FROM cand
QUALIFY rank <= {top_k}
"""


QUERIES["knn_join_embeddings"] = q_knn_join_embeddings
ORACLE_SQL["knn_join_embeddings"] = sql_knn_join_embeddings()


def q_semdedup_corpus(sf_dir: str, ckpt_dir: str | None = None):
    """The cross-modality curation composition: SemDeDup verdicts from
    the EMBEDDINGS table applied to the TEXT corpus — per source, how
    many documents and tokens survive semantic dedup. Lean end-to-end:
    the verdict side ships (doc_id, kept), the document side ships
    (doc_id, source, n_toks) computed in one Arrow token pass; one
    hash join on the id, then per-batch partials into a tiny grouped
    sum. The twin nests the full semdedup query as a CTE.

    ``ckpt_dir`` checkpoints the expensive SemDeDup verdict stage
    (k-means + anchor scan) to parquet so a rerun resumes past it
    (state/lineage.stage_checkpoint)."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    from nacc_form_validator_ray.stages.semdedup import semdedup
    from nacc_form_validator_ray.state.lineage import (input_key,
                                                       stage_checkpoint)
    rd_ = _rd()

    def build_verdicts():
        emb = rd_.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
        return semdedup(emb, k=8, iterations=3,
                        dist2_threshold=20_000_000) \
            .map_batches(lambda t: pa.table(
                {"doc_id": t["vec_id"], "kept": t["kept"]}),
            batch_format="pyarrow")

    key = input_key(sf_dir) if ckpt_dir else None
    verdicts = stage_checkpoint(build_verdicts, ckpt_dir, "verdicts", key)

    def doc_lean(t: "pa.Table") -> "pa.Table":
        from nacc_form_validator_ray.stages.text_signals import \
            arrow_token_codes
        col = t["text"]
        arr = col.combine_chunks() if isinstance(
            col, pa.ChunkedArray) else col
        _, _, _, lens = arrow_token_codes(arr)
        return pa.table({"doc_id": t["doc_id"],
                         "source": t["source"],
                         "n_toks": pa.array(lens.astype(np.int64))})

    docs = _docs(sf_dir, columns=["doc_id", "source", "text"]) \
        .map_batches(doc_lean, batch_format="pyarrow")
    joined = hash_join(docs, verdicts, on="doc_id", num_partitions=8)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        kept = b["kept"].to_numpy()
        g = pd.DataFrame({
            "source": b["source"],
            "docs_kept": kept.astype(np.int64),
            "docs_dropped": (~kept).astype(np.int64),
            "tokens_kept": np.where(kept, b["n_toks"].to_numpy(
                np.int64), 0)})
        return g.groupby("source", as_index=False).sum()

    parts = joined.map_batches(partial, batch_format="pandas")
    return grouped_agg_sum(parts, ["source"],
                           ["docs_kept", "docs_dropped", "tokens_kept"],
                           num_partitions=4)


SQL_SEMDEDUP_CORPUS = f"""
WITH sd AS ({sql_semdedup_embeddings()}),
dt AS (
  SELECT doc_id, source,
         CAST(len(regexp_extract_all(lower(text), '[a-z]+'))
              AS BIGINT) AS n_toks
  FROM documents
)
SELECT d.source,
       CAST(sum(CASE WHEN s.kept THEN 1 ELSE 0 END) AS BIGINT)
           AS docs_kept,
       CAST(sum(CASE WHEN s.kept THEN 0 ELSE 1 END) AS BIGINT)
           AS docs_dropped,
       CAST(sum(CASE WHEN s.kept THEN d.n_toks ELSE 0 END) AS BIGINT)
           AS tokens_kept
FROM dt d JOIN sd s ON s.vec_id = d.doc_id
GROUP BY d.source
"""

QUERIES["semdedup_corpus"] = q_semdedup_corpus
ORACLE_SQL["semdedup_corpus"] = SQL_SEMDEDUP_CORPUS


def q_knn_join_probe2(sf_dir: str):
    """Multi-probe IVF kNN join (n_probe=2): each vector is indexed in
    its nearest cell but QUERIES its two nearest cells, recovering
    neighbors that straddle a cell boundary — the standard IVF
    recall/cost dial. Per-cell candidate sets are disjoint, so the
    merge is a plain per-query top-k on one more lean exchange."""
    from nacc_form_validator_ray.stages.semdedup import knn_join
    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    return knn_join(ds, k=8, iterations=3, top_k=3, n_probe=2)


def sql_knn_join_probe2(k: int = 8, iterations: int = 3,
                        top_k: int = 3, n_probe: int = 2,
                        max_anchors: int = 4096) -> str:
    ctes = sql_kmeans_ctes(k, iterations)
    T = iterations
    return f"""
WITH {', '.join(ctes)},
ap AS MATERIALIZED (
  SELECT vec_id, cid, rn FROM (
    SELECT vv.vec_id, c.cid,
           row_number() OVER (PARTITION BY vv.vec_id ORDER BY
               list_dot_product(c.cv, c.cv)
               - 2 * list_dot_product(vv.v, c.cv), c.cid) AS rn
    FROM vv, c{T} c) WHERE rn <= {n_probe}
), members AS MATERIALIZED (
  SELECT a.vec_id, a.cid, v.v,
         row_number() OVER (PARTITION BY a.cid
                            ORDER BY a.vec_id) AS mrn
  FROM ap a JOIN vv v USING (vec_id) WHERE a.rn = 1
), cand AS (
  SELECT q.vec_id, e.vec_id AS neighbor_id,
         CAST(list_dot_product(qv.v, qv.v)
              + list_dot_product(e.v, e.v)
              - 2 * list_dot_product(qv.v, e.v) AS BIGINT) AS dist2
  FROM ap q
  JOIN vv qv ON qv.vec_id = q.vec_id
  JOIN members e ON e.cid = q.cid AND e.vec_id <> q.vec_id
   AND e.mrn <= {max_anchors}
)
SELECT vec_id,
       CAST(row_number() OVER (PARTITION BY vec_id
                               ORDER BY dist2, neighbor_id) AS BIGINT)
           AS rank,
       neighbor_id, dist2
FROM cand
QUALIFY rank <= {top_k}
"""


QUERIES["knn_join_probe2"] = q_knn_join_probe2
ORACLE_SQL["knn_join_probe2"] = sql_knn_join_probe2()


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights (arXiv:2302.03169): one fused pass
    counts every token for the raw corpus AND the target domain
    (source = 'src0'), one exchange merges the vocab table, and an
    actor pool scores each document's quantized log2 importance ratio
    sum — exact dyadic arithmetic on the 2^-20 grid, so the per-doc
    weights are bit-identical across parallelism levels and to the
    DuckDB twin (stages/importance.py documents the contract)."""
    from nacc_form_validator_ray.stages.importance import (
        ImportanceScorer, train_importance_model)
    ds = _docs(sf_dir, columns=["doc_id", "text", "source"])
    model = train_importance_model(ds, select_column="source",
                                   select_value="src0")
    scored = ds.map_batches(ImportanceScorer,
                            fn_constructor_kwargs={"model": model},
                            batch_format="pyarrow", concurrency=(1, 4))
    return scored.select_columns(["doc_id", "dsir_weight",
                                  "dsir_tokens"])


# Twin rebuilds both unigram models from one token stream: raw counts
# over all documents, target counts over source='src0' rows, add-0.5
# smoothing, each log-prob quantized to the 2^-20 grid BEFORE the
# subtraction (same floor(x*S + 0.5)/S convention as the perplexity
# twin) — differences and per-doc sums of grid values are exact.
SQL_DSIR_WEIGHTS = """
WITH tok AS (
  SELECT doc_id, source,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents
), cnt AS (
  SELECT tok, count(*) AS cr,
         sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END) AS ct
  FROM tok GROUP BY tok
), consts AS (
  SELECT sum(cr) AS tr, count(*) AS vr, sum(ct) AS tt,
         sum(CASE WHEN ct > 0 THEN 1 ELSE 0 END) AS vt
  FROM cnt
), model AS (
  SELECT tok,
         floor(log2((ct + 0.5) / (tt + 0.5 * (vt + 1)))
               * 1048576.0 + 0.5) / 1048576.0
       - floor(log2((cr + 0.5) / (tr + 0.5 * (vr + 1)))
               * 1048576.0 + 0.5) / 1048576.0 AS lr
  FROM cnt, consts
), scored AS (
  SELECT t.doc_id, count(*) AS n_toks, sum(m.lr) AS w
  FROM tok t JOIN model m USING (tok)
  GROUP BY t.doc_id
)
SELECT d.doc_id,
       coalesce(s.w, 0.0) + 0.0 AS dsir_weight,
       CAST(coalesce(s.n_toks, 0) AS BIGINT) AS dsir_tokens
FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
"""

QUERIES["dsir_weights"] = q_dsir_weights
ORACLE_SQL["dsir_weights"] = SQL_DSIR_WEIGHTS


def q_dsir_select(sf_dir: str, n: int = 100):
    """The DSIR RESAMPLE step: select the top-n documents by importance
    weight (ties to the smaller doc_id) — scoring as in dsir_weights,
    then per-batch local top-n partials (lean (doc_id, weight) rows)
    and one driver merge of the bounded partial set; the corpus never
    rides a global sort. Weights are exact dyadic floats, so the
    ordering is deterministic cross-engine."""
    from nacc_form_validator_ray.stages.importance import (
        ImportanceScorer, train_importance_model)
    ds = _docs(sf_dir, columns=["doc_id", "text", "source"])
    model = train_importance_model(ds, select_column="source",
                                   select_value="src0")
    scored = ds.map_batches(ImportanceScorer,
                            fn_constructor_kwargs={"model": model},
                            batch_format="pyarrow", concurrency=(1, 4))

    def local_top(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch["dsir_weight"].to_numpy(np.float64)
        ids = batch["doc_id"].to_numpy(np.int64)
        keep = np.lexsort((ids, -w))[:n]
        return pd.DataFrame({"doc_id": ids[keep],
                             "dsir_weight": w[keep]})

    partials = scored.map_batches(local_top,
                                  batch_format="pandas").to_pandas()
    top = partials.sort_values(["dsir_weight", "doc_id"],
                               ascending=[False, True]).head(n) \
        .reset_index(drop=True)
    top["sel_rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top


SQL_DSIR_SELECT = f"""
WITH base AS ({SQL_DSIR_WEIGHTS})
SELECT doc_id, dsir_weight,
       CAST(row_number() OVER (ORDER BY dsir_weight DESC, doc_id)
            AS BIGINT) AS sel_rank
FROM base
QUALIFY sel_rank <= 100
"""

QUERIES["dsir_select"] = q_dsir_select
ORACLE_SQL["dsir_select"] = SQL_DSIR_SELECT


def q4_order_priority(sf_dir: str):
    """TPC-H Q4 shape — the canonical EXISTS semi-join: count orders
    per priority, 1996-Q3, that have at least one RETURNED lineitem
    (the testdata carries no commit/receipt dates, so the reference
    predicate ``l_commitdate < l_receiptdate`` maps to
    ``l_returnflag = 'R'``; the semi-join shape is identical).

    Scale shape: lineitem is filtered AT THE READ (returnflag
    pushdown) and reduced per batch to DISTINCT orderkeys (combiner)
    before the single hash exchange inside ``semi_join`` — the
    exchange moves one lean key row per (order, batch), never
    lineitem rows. Orders are date-pruned at the read. The surviving
    orders pre-aggregate per priority inside each partition, so the
    driver merge is priority-cardinality (5 rows)."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    from nacc_form_validator_ray.stages.joins import semi_join

    lo, hi = pd.Timestamp("1996-07-01"), pd.Timestamp("1996-10-01")
    orders = _rd().read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi))
    returned = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"],
        filter=pads.field("l_returnflag") == "R")

    def distinct_keys(t: "pa.Table") -> "pa.Table":
        keys = np.unique(t["l_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"o_orderkey": pa.array(keys, pa.int64())})

    hits = semi_join(orders,
                     returned.map_batches(distinct_keys,
                                          batch_format="pyarrow"),
                     on="o_orderkey", num_partitions=16)

    def partial(t: "pa.Table") -> "pa.Table":
        g = pa.table({
            "o_orderpriority": t["o_orderpriority"].combine_chunks(),
            "order_count": np.ones(t.num_rows, dtype=np.int64)})
        return _pa_grouped_agg(g, ["o_orderpriority"],
                               [("order_count", "sum")],
                               ["order_count"])

    partials = hits.map_batches(partial, batch_format="pyarrow")
    return _merge_partials(partials, ["o_orderpriority"],
                           {"order_count": "sum"})


SQL_Q4_ORDER_PRIORITY = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-07-01'
  AND o_orderdate < TIMESTAMP '1996-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
"""

QUERIES["q4_order_priority"] = q4_order_priority
ORACLE_SQL["q4_order_priority"] = SQL_Q4_ORDER_PRIORITY


def q10_returned_items(sf_dir: str, n: int = 20):
    """TPC-H Q10 shape — top-k then fetch-wide-payload: revenue per
    customer from RETURNED lineitems of one order-year, top 20
    customers, then their name/acctbal/nation attached AFTER the
    ranking so wide customer columns never ride the big exchanges.

    Scale shape: lineitem is filtered at the read and pre-aggregated
    per batch to (orderkey, revenue partial); ONE hash join attaches
    custkeys (orders date-pruned at the read); the per-customer sum is
    a second lean exchange whose partitions each emit a local top-k,
    so the driver merges k x P candidate rows. The winner set (20
    ids) then prunes the customer table INSIDE map_batches via a
    broadcast — the wide fetch touches ~k rows."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray
    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.partition import (grouped_apply,
                                                          grouped_agg_sum)

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")
    line = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_returnflag") == "R")

    def rev_partial(t: "pa.Table") -> "pa.Table":
        cents = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        dh = np.floor(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pa.table({"o_orderkey": t["l_orderkey"].combine_chunks(),
                      "revenue_ch": pa.array(cents * (100 - dh))})
        return _pa_grouped_agg(g, ["o_orderkey"],
                               [("revenue_ch", "sum")], ["revenue_ch"])

    orders = _rd().read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi))
    joined = hash_join(line.map_batches(rev_partial,
                                        batch_format="pyarrow"),
                       orders, on="o_orderkey", num_partitions=32)
    per_cust = grouped_agg_sum(
        joined.map_batches(lambda t: t.select(
            ["o_custkey", "revenue_ch"]), batch_format="pyarrow"),
        ["o_custkey"], ["revenue_ch"], num_partitions=32)

    def local_top(t: "pa.Table") -> "pa.Table":
        rev = t["revenue_ch"].to_numpy(zero_copy_only=False)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        keep = np.lexsort((ck, -rev))[:n]
        return pa.table({"c_custkey": pa.array(ck[keep]),
                         "revenue_ch": pa.array(rev[keep])})

    cand = per_cust.map_batches(local_top,
                                batch_format="pyarrow").to_pandas()
    top = cand.sort_values(["revenue_ch", "c_custkey"],
                           ascending=[False, True]).head(n) \
        .reset_index(drop=True)
    win_ref = ray.put(np.sort(top["c_custkey"].to_numpy(np.int64)))

    def fetch(t: "pa.Table") -> "pa.Table":
        wins = ray.get(win_ref)
        ck = t["c_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(wins, ck)
        pos[pos == len(wins)] = 0
        return t.filter(pa.array(wins[pos] == ck))

    cust = _rd().read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"]) \
        .map_batches(fetch, batch_format="pyarrow").to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    out = top.merge(cust, on="c_custkey") \
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    out = out.sort_values(["revenue_ch", "c_custkey"],
                          ascending=[False, True]).reset_index(drop=True)
    out["acctbal_cents"] = np.floor(
        out["c_acctbal"].to_numpy(np.float64) * 100 + 0.5).astype(
            np.int64)
    out["cust_rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["cust_rank", "c_custkey", "c_name", "n_name",
                "acctbal_cents", "revenue_ch"]]


SQL_Q10_RETURNED_ITEMS = """
WITH rev AS (
  SELECT c_custkey, c_name, n_name,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS acctbal_cents,
         CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                  * (100 - CAST(floor(l_discount * 100 + 0.5)
                                AS BIGINT))) AS BIGINT) AS revenue_ch
  FROM customer, orders, lineitem, nation
  WHERE c_custkey = o_custkey
    AND l_orderkey = o_orderkey
    AND o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate < TIMESTAMP '1997-01-01'
    AND l_returnflag = 'R'
    AND c_nationkey = n_nationkey
  GROUP BY c_custkey, c_name, n_name, c_acctbal
)
SELECT CAST(row_number() OVER (ORDER BY revenue_ch DESC, c_custkey)
            AS BIGINT) AS cust_rank,
       c_custkey, c_name, n_name, acctbal_cents, revenue_ch
FROM rev
ORDER BY cust_rank
LIMIT 20
"""

QUERIES["q10_returned_items"] = q10_returned_items
ORACLE_SQL["q10_returned_items"] = SQL_Q10_RETURNED_ITEMS


def q_tfidf_topterms(sf_dir: str, k: int = 3):
    """Per-document top-k terms by tf-idf over the whole corpus.

    The idf side is the corpus document-frequency table: pass 1
    reduces each batch to DISTINCT (doc, term) pairs and emits one
    lean (term, df partial) row per term per batch, merged by a tiny
    grouped sum (vocabulary-sized, NOT corpus-sized) and broadcast
    back via ``ray.put``. Pass 2 re-streams the corpus, computes per
    (doc, term) counts with dictionary codes (no Python strings), and
    keeps each doc's top-k by the INTEGER score ``tf * 10^9 // df`` —
    exact cross-engine, no log/float. 100-TB note: the broadcast
    assumes the vocabulary fits a worker (natural-language vocabs do);
    an unbounded term domain (e.g. raw shingles) should swap the
    broadcast for a hash join on term.

    Ties break toward the lexically smaller term (pure [a-z] tokens,
    so numpy bytewise order == DuckDB collation)."""
    import pyarrow as pa
    import ray
    from nacc_form_validator_ray.stages.text_signals import \
        arrow_token_codes

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def df_partial(t: "pa.Table") -> "pa.Table":
        codes, vocab, tok_doc, _ = arrow_token_codes(t["text"])
        if vocab is None:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        pair = tok_doc.astype(np.int64) * len(vocab) + codes
        uniq = np.unique(pair)
        cnt = np.bincount((uniq % len(vocab)).astype(np.int64),
                          minlength=len(vocab))
        return pa.table({"term": vocab,
                         "df": pa.array(cnt.astype(np.int64))})

    df_tab = _merge_partials(
        ds.map_batches(df_partial, batch_format="pyarrow"),
        ["term"], {"df": "sum"})
    order = np.argsort(df_tab["term"].to_numpy())
    df_ref = ray.put((df_tab["term"].to_numpy()[order],
                      df_tab["df"].to_numpy(np.int64)[order]))

    class TopTerms:
        def __init__(self, ref):
            self.terms, self.df = ray.get(ref)

        def __call__(self, t: "pa.Table") -> "pa.Table":
            empty = pa.table({
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
                "df": pa.array([], pa.int64()),
                "score": pa.array([], pa.int64()),
                "term_rank": pa.array([], pa.int64())})
            codes, vocab, tok_doc, _ = arrow_token_codes(t["text"])
            if vocab is None:
                return empty
            doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
            pair = tok_doc.astype(np.int64) * len(vocab) + codes
            uniq, tf = np.unique(pair, return_counts=True)
            di = (uniq // len(vocab)).astype(np.int64)
            ci = (uniq % len(vocab)).astype(np.int64)
            terms = vocab.to_numpy(zero_copy_only=False)[ci]
            pos = np.searchsorted(self.terms, terms)
            df = self.df[pos]
            score = tf.astype(np.int64) * 1_000_000_000 // df
            # top-k per doc: lexsort by (doc, -score, term), rank
            # within doc via run offsets
            o = np.lexsort((terms, -score, di))
            di, terms, tf, df, score = (di[o], terms[o], tf[o],
                                        df[o], score[o])
            starts = np.flatnonzero(np.r_[True, di[1:] != di[:-1]])
            rank = np.arange(len(di), dtype=np.int64) - np.repeat(
                starts, np.diff(np.r_[starts, len(di)])) + 1
            keep = rank <= k
            return pa.table({
                "doc_id": pa.array(doc_ids[di[keep]]),
                "term": pa.array(terms[keep], pa.string()),
                "tf": pa.array(tf[keep].astype(np.int64)),
                "df": pa.array(df[keep]),
                "score": pa.array(score[keep]),
                "term_rank": pa.array(rank[keep])})

    return ds.map_batches(TopTerms, fn_constructor_kwargs={"ref": df_ref},
                          batch_format="pyarrow", batch_size=4096,
                          concurrency=(1, 8))


SQL_TFIDF_TOPTERMS = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents
), tf AS (
  SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
  FROM tok GROUP BY doc_id, term
), df AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM tok GROUP BY term
)
SELECT tf.doc_id, tf.term, tf.tf, df.df,
       tf.tf * 1000000000 // df.df AS score,
       CAST(row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.tf * 1000000000 // df.df DESC, tf.term)
           AS BIGINT) AS term_rank
FROM tf JOIN df USING (term)
QUALIFY term_rank <= 3
"""

QUERIES["tfidf_topterms"] = q_tfidf_topterms
ORACLE_SQL["tfidf_topterms"] = SQL_TFIDF_TOPTERMS


def q_events_cube(sf_dir: str):
    """GROUPING SETS / cube: event counts and value sums by
    (event_type, day-of-week), by each alone, and the grand total —
    all four grains derived from ONE pass of per-batch partials at the
    finest grain (|types| x 7 rows per batch), so the coarser grains
    cost nothing: they are exact integer re-sums of the merged fine
    table on the driver. Rolled-up keys surface as 'ALL' / -1
    (coalesce in the SQL twin). dow is the cross-engine-exact
    ``(epoch_days + 4) % 7`` (0 = Sunday; 1970-01-01 was a Thursday),
    not a locale-dependent date function."""
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type", "ts", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        dow = (batch["ts"].astype("datetime64[us]").astype("int64")
               // 86_400_000_000 + 4) % 7
        cents = np.floor(batch["value"].to_numpy(np.float64) * 100
                         + 0.5).astype(np.int64)
        g = pd.DataFrame({"event_type": batch["event_type"],
                          "dow": dow.to_numpy(np.int64),
                          "n_events": 1, "total_cents": cents})
        return g.groupby(["event_type", "dow"], as_index=False).sum()

    fine = _merge_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["event_type", "dow"], {"n_events": "sum",
                                "total_cents": "sum"})

    def roll(frame: pd.DataFrame, keys) -> pd.DataFrame:
        if keys:
            out = frame.groupby(keys, as_index=False)[
                ["n_events", "total_cents"]].sum()
        else:
            out = pd.DataFrame({
                "n_events": [frame["n_events"].sum()],
                "total_cents": [frame["total_cents"].sum()]})
        if "event_type" not in out:
            out["event_type"] = "ALL"
        if "dow" not in out:
            out["dow"] = -1
        return out[["event_type", "dow", "n_events", "total_cents"]]

    out = pd.concat([roll(fine, ["event_type", "dow"]),
                     roll(fine, ["event_type"]),
                     roll(fine, ["dow"]),
                     roll(fine, [])], ignore_index=True)
    out["dow"] = out["dow"].astype(np.int64)
    out["n_events"] = out["n_events"].astype(np.int64)
    out["total_cents"] = out["total_cents"].astype(np.int64)
    return out


SQL_EVENTS_CUBE = """
WITH e AS (
  SELECT event_type,
         (CAST(floor(epoch(ts)) AS BIGINT) // 86400 + 4) % 7 AS dow,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT coalesce(event_type, 'ALL') AS event_type,
       CAST(coalesce(dow, -1) AS BIGINT) AS dow,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM e
GROUP BY GROUPING SETS ((event_type, dow), (event_type), (dow), ())
"""

QUERIES["events_cube"] = q_events_cube
ORACLE_SQL["events_cube"] = SQL_EVENTS_CUBE


GOPHER_STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "it")


def q_gopher_quality_docs(sf_dir: str):
    """Gopher quality-filter rules (Rae et al. 2021, arXiv:2112.11446
    §A1.1) over the documents table — the published heuristic gate a
    pretraining pipeline runs before model-based scoring: word-count
    bounds, mean-word-length band, symbol-to-word ratio, alphabetic-word
    ratio, and a minimum stop-word presence.

    Map-only (zero exchange) and integer-exact: every ratio gate is a
    cross-multiplication (``3·wc <= nonspace <= 10·wc`` instead of a
    float mean), so the keep decision is bit-identical to the twin at
    any partitioning. All counting runs on RE2 kernels shared by both
    engines (pyarrow ``count_substring_regex`` / DuckDB
    ``regexp_extract_all`` have identical non-overlapping leftmost
    semantics). The symbol legs (#/ellipsis) never fire on this
    fixture (the generator emits neither) but are kept because the
    real-web shape needs them."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def signals(t: "pa.Table") -> "pa.Table":
        txt = t["text"]
        wc = pc.count_substring_regex(txt, r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        nonspace = pc.utf8_length(
            pc.replace_substring_regex(txt, r"\s+", "")) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        alpha = pc.count_substring_regex(txt, r"\S*[A-Za-z]\S*") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sym = (pc.count_substring_regex(txt, "#")
               .to_numpy(zero_copy_only=False).astype(np.int64)
               + pc.count_substring_regex(txt, r"\.\.\.")
               .to_numpy(zero_copy_only=False).astype(np.int64))
        stop = np.zeros(t.num_rows, dtype=np.int64)
        for w in GOPHER_STOPWORDS:
            stop += pc.match_substring_regex(
                txt, rf"\b{w}\b").to_numpy(zero_copy_only=False)
        passed = ((wc >= 30) & (wc <= 100_000)
                  & (3 * wc <= nonspace) & (nonspace <= 10 * wc)
                  & (10 * sym <= wc)
                  & (5 * alpha >= 4 * wc)
                  & (stop >= 2))
        return pa.table({
            "doc_id": t["doc_id"],
            "word_count": pa.array(wc),
            "nonspace_chars": pa.array(nonspace),
            "alpha_words": pa.array(alpha),
            "symbol_count": pa.array(sym),
            "stop_hits": pa.array(stop),
            "passed": pa.array(passed.astype(np.int64)),
        })

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(signals, batch_format="pyarrow")


_STOP_HITS_SQL = " + ".join(
    f"(CASE WHEN regexp_matches(text, '\\b{w}\\b') THEN 1 ELSE 0 END)"
    for w in GOPHER_STOPWORDS)

SQL_GOPHER_QUALITY_DOCS = f"""
WITH s AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
             AS word_count,
         CAST(length(regexp_replace(text, '\\s+', '', 'g')) AS BIGINT)
             AS nonspace_chars,
         CAST(len(regexp_extract_all(text, '\\S*[A-Za-z]\\S*'))
              AS BIGINT) AS alpha_words,
         CAST(len(regexp_extract_all(text, '#'))
              + len(regexp_extract_all(text, '\\.\\.\\.')) AS BIGINT)
             AS symbol_count,
         CAST({_STOP_HITS_SQL} AS BIGINT) AS stop_hits
  FROM documents)
SELECT doc_id, word_count, nonspace_chars, alpha_words, symbol_count,
       stop_hits,
       CAST((word_count >= 30 AND word_count <= 100000
             AND 3 * word_count <= nonspace_chars
             AND nonspace_chars <= 10 * word_count
             AND 10 * symbol_count <= word_count
             AND 5 * alpha_words >= 4 * word_count
             AND stop_hits >= 2) AS BIGINT) AS passed
FROM s
"""

QUERIES["gopher_quality_docs"] = q_gopher_quality_docs
ORACLE_SQL["gopher_quality_docs"] = SQL_GOPHER_QUALITY_DOCS


def q_temperature_mix_sample(sf_dir: str):
    """Temperature-based source mixing (the multi-source balancing step
    of T5/Pile-style pretraining mixes, alpha = 0.5): per-language
    sampling quotas proportional to ``floor(sqrt(n_lang))`` — upweights
    small sources relative to raw proportions — with EXACT quota
    selection: each language keeps its ``quota`` docs of smallest
    content-stable hash, so the sample is reproducible across runs,
    batch sizes and cluster sizes.

    Plan: per-batch (lang, count) partials merge on the driver (few
    langs), quotas come from exact integer arithmetic (sqrt is float64
    on BOTH engines — exact for counts < 2^52), and selection is ONE
    lang exchange with per-lang (hash, doc_id) lexsort + head(quota).
    'en' holds ~40% of the fixture, so the exchange runs with
    ``isolate_heavy_frac`` skew isolation — the hot language gets a
    dedicated partition. Scale note: a single language must fit a
    partition group; at corpus scale the selection becomes the range
    exchange (ranking.global_rank) on (lang, hash) — same contract."""
    import pyarrow as pa
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _docs(sf_dir, columns=["doc_id", "lang"])

    def count_partial(t: "pa.Table") -> pd.DataFrame:
        df = pd.DataFrame({"lang": t["lang"].to_pylist(), "n_docs": 1})
        return df.groupby("lang", as_index=False).sum()

    counts = _merge_partials(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["lang"], {"n_docs": "sum"})
    n_total = int(counts["n_docs"].sum())
    k_total = n_total // 5
    w = np.floor(np.sqrt(counts["n_docs"].to_numpy(np.float64))) \
        .astype(np.int64)
    w_sum = int(w.sum())
    quota = {lang: int(k_total * int(wi)) // w_sum
             for lang, wi in zip(counts["lang"], w)}

    def add_hash(t: "pa.Table") -> "pa.Table":
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        h = ((ids.astype(np.uint64) * np.uint64(2654435761))
             % np.uint64(1 << 32)).astype(np.int64)
        return t.append_column("h", pa.array(h))

    def select(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lang, g in part.groupby("lang", sort=False):
            g = g.sort_values(["h", "doc_id"]).head(quota.get(lang, 0))
            outs.append(g)
        return pd.concat(outs, ignore_index=True) if outs else \
            part.head(0)

    return grouped_apply(
        ds.map_batches(add_hash, batch_format="pyarrow"),
        ["lang"], select, num_partitions=8,
        isolate_heavy_frac=0.3)


SQL_TEMPERATURE_MIX_SAMPLE = """
WITH n AS (SELECT lang, count(*) AS n_docs FROM documents GROUP BY 1),
w AS (SELECT lang, CAST(floor(sqrt(n_docs)) AS BIGINT) AS w FROM n),
q AS (SELECT lang,
             CAST((((SELECT count(*) FROM documents) // 5) * w)
                  // (SELECT sum(w) FROM w) AS BIGINT) AS quota
      FROM w),
h AS (SELECT doc_id, lang,
             CAST((CAST(doc_id AS HUGEINT) * 2654435761)
                  % 4294967296 AS BIGINT) AS h
      FROM documents),
r AS (SELECT doc_id, lang, h,
             ROW_NUMBER() OVER (PARTITION BY lang
                                ORDER BY h, doc_id) AS rk
      FROM h)
SELECT doc_id, lang, h FROM r JOIN q USING (lang) WHERE rk <= quota
"""

QUERIES["temperature_mix_sample"] = q_temperature_mix_sample
ORACLE_SQL["temperature_mix_sample"] = SQL_TEMPERATURE_MIX_SAMPLE


HOP_WINDOW_S, HOP_STRIDE_S = 3600, 900  # 1h windows every 15 min


def q_hopping_window_events(sf_dir: str):
    """Hopping (sliding) windows — the streaming aggregate the tumbling
    ``events_window`` can't express: 1-hour windows advancing every
    15 minutes, so each event belongs to exactly W/H = 4 overlapping
    windows. Vectorized replication per batch (an event at second ``s``
    with last hop boundary ``b = s // H * H`` is covered by EVERY start
    ``b - i*H, i in [0, W/H)`` — no per-row filtering needed), per-batch
    (window_start, event_type) combiners, then ONE grouped-sum exchange.
    Replication happens AFTER projection to three lean columns, so the
    4x volume rides int64 buffers plus one dictionary-encoded string —
    at 100 TB the combiner collapses each batch to its distinct
    (window, type) pairs before anything moves."""
    import pyarrow as pa
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum

    k = HOP_WINDOW_S // HOP_STRIDE_S

    def replicate(t: "pa.Table") -> pd.DataFrame:
        ts_s = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) \
            // 1_000_000
        base = (ts_s // HOP_STRIDE_S) * HOP_STRIDE_S
        cents = np.floor(t["value"].to_numpy(zero_copy_only=False)
                         * 100 + 0.5).astype(np.int64)
        n = len(ts_s)
        idx = np.repeat(np.arange(n), k)
        starts = np.repeat(base, k) - \
            np.tile(np.arange(k, dtype=np.int64) * HOP_STRIDE_S, n)
        df = pd.DataFrame({
            "window_start": starts,
            "event_type": np.asarray(
                t["event_type"].to_pylist(), dtype=object)[idx],
            "n_events": 1,
            "value_cents": cents[idx]})
        return df.groupby(["window_start", "event_type"],
                          as_index=False).sum()

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["ts", "event_type", "value"])
    return grouped_agg_sum(
        ds.map_batches(replicate, batch_format="pyarrow"),
        ["window_start", "event_type"], ["n_events", "value_cents"],
        num_partitions=16)


SQL_HOPPING_WINDOW_EVENTS = f"""
WITH offs AS (SELECT * FROM (VALUES (0),(1),(2),(3)) AS t(i)),
e AS (SELECT CAST(floor(epoch(ts)) AS BIGINT) AS s, event_type,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
      FROM events)
SELECT ((s // {HOP_STRIDE_S}) - i) * {HOP_STRIDE_S} AS window_start,
       event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS value_cents
FROM e CROSS JOIN offs
GROUP BY 1, 2
"""

QUERIES["hopping_window_events"] = q_hopping_window_events
ORACLE_SQL["hopping_window_events"] = SQL_HOPPING_WINDOW_EVENTS


def q_json_props_stats(sf_dir: str):
    """Semi-structured extraction: events carry a JSON ``props`` payload
    (``{"k": <int>}``); parse the field VECTORIZED (one RE2
    ``extract_regex`` pass over the Arrow string buffer — never
    ``json.loads`` per row) and aggregate per event type. Unparseable
    payloads coalesce to 0 on both engines. Map-only with per-batch
    combiners; the merge is event-type-sized on the driver."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(t: "pa.Table") -> pd.DataFrame:
        ext = pc.extract_regex(t["props"], r'"k": (?P<k>\d+)')
        k = pc.fill_null(
            pc.cast(pc.struct_field(ext, "k"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "event_type": t["event_type"].to_pylist(),
            "sum_k": k, "max_k": k, "n_events": 1})
        return df.groupby("event_type", as_index=False).agg(
            sum_k=("sum_k", "sum"), max_k=("max_k", "max"),
            n_events=("n_events", "sum"))

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type", "props"])
    return _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"], {"sum_k": "sum", "max_k": "max",
                         "n_events": "sum"})


SQL_JSON_PROPS_STATS = """
WITH e AS (
  SELECT event_type,
         coalesce(TRY_CAST(regexp_extract(props, '"k": (\\d+)', 1)
                           AS BIGINT), 0) AS k
  FROM events)
SELECT event_type, CAST(sum(k) AS BIGINT) AS sum_k,
       CAST(max(k) AS BIGINT) AS max_k,
       CAST(count(*) AS BIGINT) AS n_events
FROM e GROUP BY event_type
"""

QUERIES["json_props_stats"] = q_json_props_stats
ORACLE_SQL["json_props_stats"] = SQL_JSON_PROPS_STATS


def q_value_regression_events(sf_dir: str):
    """Distributed least squares + correlation per event type, the
    exact-moments way: per-batch combiners accumulate the five integer
    cross-moments (n, Σx, Σy, Σxx, Σxy, Σyy) on the cent/unit grid —
    order-independent int64 sums, so the merged moments are
    bit-identical at any partitioning — and slope/intercept/Pearson r
    are single double expressions over those exact integers, evaluated
    identically by both engines (never an incremental float update, so
    no SQL REGR_*/corr() whose accumulation order would differ).
    x = the JSON props field, y = value cents.

    Moment-overflow bound: Σy² stays in int64 while n·max(y)² < 2^63 —
    with y ≤ 10^5 cents that is ~10^8 rows per group; beyond it, shard
    the group (sub-key the combiner and merge moments hierarchically)
    or widen the grid. The twin's CAST(sum(...) AS BIGINT) fails loudly
    there rather than wrapping."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(t: "pa.Table") -> pd.DataFrame:
        ext = pc.extract_regex(t["props"], r'"k": (?P<k>\d+)')
        x = pc.fill_null(
            pc.cast(pc.struct_field(ext, "k"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False)
        y = np.floor(t["value"].to_numpy(zero_copy_only=False)
                     * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame({
            "event_type": t["event_type"].to_pylist(),
            "n": 1, "sum_x": x, "sum_y": y,
            "sum_xx": x * x, "sum_xy": x * y, "sum_yy": y * y})
        return df.groupby("event_type", as_index=False).sum()

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type", "props", "value"])
    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"], {c: "sum" for c in
                         ["n", "sum_x", "sum_y", "sum_xx", "sum_xy",
                          "sum_yy"]})
    n = out["n"].to_numpy(np.float64)
    sx = out["sum_x"].to_numpy(np.float64)
    sy = out["sum_y"].to_numpy(np.float64)
    sxx = out["sum_xx"].to_numpy(np.float64)
    sxy = out["sum_xy"].to_numpy(np.float64)
    syy = out["sum_yy"].to_numpy(np.float64)
    # identical expression order as the SQL twin — exact int64 sums in,
    # one deterministic double evaluation out. Zero-variance groups
    # (all x equal — e.g. every props row failing the regex) are
    # DEFINED as 0.0 on both engines: numpy would emit inf/nan and
    # DuckDB NULL for x/0, neither of which compares stably, so the
    # degenerate case is pinned by an explicit guard in both
    num = n * sxy - sx * sy
    denx = n * sxx - sx * sx
    deny = n * syy - sy * sy
    # the zero guards are INTEGER-exact (mirroring the twin's BIGINT
    # CASE condition) — a float-computed denx could cancel to 0.0
    # while the true integer denominator is small-nonzero
    ni = out["n"].to_numpy(np.int64)
    sxi = out["sum_x"].to_numpy(np.int64)
    syi = out["sum_y"].to_numpy(np.int64)
    zx = ni * out["sum_xx"].to_numpy(np.int64) - sxi * sxi == 0
    zy = ni * out["sum_yy"].to_numpy(np.int64) - syi * syi == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(zx, 0.0, num / denx)
        intercept = np.where(zx, 0.0, (sy - slope * sx) / n)
        r = np.where(zx | zy, 0.0, num / np.sqrt(denx * deny))
    out["slope"] = slope
    out["intercept"] = intercept
    out["pearson_r"] = r
    return out[["event_type", "n", "sum_x", "sum_y", "sum_xx",
                "sum_xy", "sum_yy", "slope", "intercept", "pearson_r"]]


SQL_VALUE_REGRESSION_EVENTS = """
WITH e AS (
  SELECT event_type,
         coalesce(TRY_CAST(regexp_extract(props, '"k": (\\d+)', 1)
                           AS BIGINT), 0) AS x,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
  FROM events),
m AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sum_x,
         CAST(sum(y) AS BIGINT) AS sum_y,
         CAST(sum(x * x) AS BIGINT) AS sum_xx,
         CAST(sum(x * y) AS BIGINT) AS sum_xy,
         CAST(sum(y * y) AS BIGINT) AS sum_yy
  FROM e GROUP BY event_type)
SELECT event_type, n, sum_x, sum_y, sum_xx, sum_xy, sum_yy,
       CASE WHEN n * sum_xx - sum_x * sum_x = 0 THEN 0.0 ELSE
       (CAST(n AS DOUBLE) * CAST(sum_xy AS DOUBLE)
        - CAST(sum_x AS DOUBLE) * CAST(sum_y AS DOUBLE))
       / (CAST(n AS DOUBLE) * CAST(sum_xx AS DOUBLE)
          - CAST(sum_x AS DOUBLE) * CAST(sum_x AS DOUBLE)) END
           AS slope,
       CASE WHEN n * sum_xx - sum_x * sum_x = 0 THEN 0.0 ELSE
       (CAST(sum_y AS DOUBLE)
        - ((CAST(n AS DOUBLE) * CAST(sum_xy AS DOUBLE)
            - CAST(sum_x AS DOUBLE) * CAST(sum_y AS DOUBLE))
           / (CAST(n AS DOUBLE) * CAST(sum_xx AS DOUBLE)
              - CAST(sum_x AS DOUBLE) * CAST(sum_x AS DOUBLE)))
          * CAST(sum_x AS DOUBLE)) / CAST(n AS DOUBLE) END
           AS intercept,
       CASE WHEN n * sum_xx - sum_x * sum_x = 0
              OR n * sum_yy - sum_y * sum_y = 0 THEN 0.0 ELSE
       (CAST(n AS DOUBLE) * CAST(sum_xy AS DOUBLE)
        - CAST(sum_x AS DOUBLE) * CAST(sum_y AS DOUBLE))
       / sqrt((CAST(n AS DOUBLE) * CAST(sum_xx AS DOUBLE)
               - CAST(sum_x AS DOUBLE) * CAST(sum_x AS DOUBLE))
              * (CAST(n AS DOUBLE) * CAST(sum_yy AS DOUBLE)
                 - CAST(sum_y AS DOUBLE) * CAST(sum_y AS DOUBLE))) END
           AS pearson_r
FROM m
"""

QUERIES["value_regression_events"] = q_value_regression_events
ORACLE_SQL["value_regression_events"] = SQL_VALUE_REGRESSION_EVENTS


def q_host_triangles(sf_dir: str):
    """Distributed triangle count over the host link graph — see
    stages/graph.host_triangles (forward node-iterator algorithm,
    three string-keyed hash exchanges, exact host-string vertex
    ids). Host level because the fixture's page graph is bipartite
    (zero triangles by construction)."""
    from nacc_form_validator_ray.stages.graph import host_triangles
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_triangles(ds)


def sql_host_triangles(path: str) -> str:
    host_u = _SQL_URL_NORM.format(u="url")
    host_l = _SQL_URL_NORM.format(u="lk")
    return f"""
WITH p AS (SELECT url, unnest(links) AS lk
           FROM read_parquet('{path}')),
h AS (SELECT coalesce({host_u}, '') AS src,
             coalesce({host_l}, '') AS dst FROM p),
e AS (SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
      FROM h WHERE src <> dst),
tri AS (SELECT e1.b AS x, e2.b AS y
        FROM e e1 JOIN e e2 ON e1.a = e2.a AND e1.b < e2.b)
SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       CAST(count(*) AS BIGINT) AS n_triangles
FROM tri JOIN e ON tri.x = e.a AND tri.y = e.b
"""


QUERIES["host_triangles"] = q_host_triangles


KCORE_K, KCORE_ROUNDS = 4, 6


def q_host_kcore(sf_dir: str):
    """k-core of the host link graph by iterative peeling — see
    stages/graph.host_kcore (fixed peel rounds, idempotent once
    converged, so both engines run the identical chain)."""
    from nacc_form_validator_ray.stages.graph import host_kcore
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_kcore(ds, k=KCORE_K, rounds=KCORE_ROUNDS)


def sql_host_kcore(path: str, k: int = KCORE_K,
                   rounds: int = KCORE_ROUNDS) -> str:
    host_u = _SQL_URL_NORM.format(u="url")
    host_l = _SQL_URL_NORM.format(u="lk")
    ctes = [f"""p AS (SELECT url, unnest(links) AS lk
           FROM read_parquet('{path}')),
h AS (SELECT coalesce({host_u}, '') AS src,
             coalesce({host_l}, '') AS dst FROM p),
e AS MATERIALIZED (
  SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
  FROM h WHERE src <> dst),
nb AS MATERIALIZED (
  SELECT a AS v, b AS w FROM e UNION ALL SELECT b, a FROM e),
l0 AS MATERIALIZED (SELECT DISTINCT v FROM nb)"""]
    for i in range(1, rounds + 1):
        ctes.append(f"""l{i} AS MATERIALIZED (
  SELECT nb.v FROM nb
  JOIN l{i-1} s ON nb.v = s.v JOIN l{i-1} t ON nb.w = t.v
  GROUP BY nb.v HAVING count(*) >= {k})""")
    return ("WITH " + ",\n".join(ctes) +
            f"\nSELECT v AS host FROM l{rounds}")


QUERIES["host_kcore"] = q_host_kcore


BFS_ROUNDS = 6


def q_host_bfs(sf_dir: str):
    """BFS levels from the lexicographically smallest host over the
    undirected host link graph — see stages/graph.host_bfs (per-round
    frontier broadcast + driver merge; the twin is the fixed
    MATERIALIZED-CTE frontier chain)."""
    from nacc_form_validator_ray.stages.graph import host_bfs
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_bfs(ds, rounds=BFS_ROUNDS)


def sql_host_bfs(path: str, rounds: int = BFS_ROUNDS) -> str:
    host_u = _SQL_URL_NORM.format(u="url")
    host_l = _SQL_URL_NORM.format(u="lk")
    ctes = [f"""p AS (SELECT url, unnest(links) AS lk
           FROM read_parquet('{path}')),
h AS (SELECT coalesce({host_u}, '') AS src,
             coalesce({host_l}, '') AS dst FROM p),
e AS MATERIALIZED (
  SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
  FROM h WHERE src <> dst),
nb AS MATERIALIZED (
  SELECT a AS v, b AS w FROM e UNION ALL SELECT b, a FROM e),
d0 AS MATERIALIZED (
  SELECT v AS host, 0 AS dist
  FROM (SELECT min(v) AS v FROM nb) WHERE v IS NOT NULL)"""]
    for i in range(1, rounds + 1):
        ctes.append(f"""d{i} AS MATERIALIZED (
  SELECT host, dist FROM d{i-1}
  UNION ALL
  SELECT DISTINCT nb.w AS host, {i} AS dist
  FROM nb JOIN d{i-1} f ON nb.v = f.host AND f.dist = {i-1}
  WHERE nb.w NOT IN (SELECT host FROM d{i-1}))""")
    return ("WITH " + ",\n".join(ctes) +
            f"\nSELECT host, CAST(dist AS BIGINT) AS dist "
            f"FROM d{rounds}")


QUERIES["host_bfs"] = q_host_bfs


def q_running_distinct_types(sf_dir: str):
    """Cumulative DISTINCT count per user — the window shape plain
    running sums can't express (and DuckDB has no COUNT(DISTINCT)
    OVER): per event, how many distinct event types this user has
    produced up to and including it. ONE user_id exchange; inside each
    partition a vectorized lexsort by (user, ts, event_id), a
    first-occurrence flag per (user, type) (pandas duplicated — hash
    based, no second sort), and a per-user cumsum via the same
    ordering. The twin lowers it the standard way: ROW_NUMBER over
    (user, type) = 1 as the flag, SUM(flag) OVER the per-user
    ordering."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "user_id",
                                     "event_type"])

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        first = (~df.duplicated(["user_id", "event_type"])) \
            .to_numpy(np.int64)
        cum = np.cumsum(first)
        # reset the running sum at each user boundary
        uid = df["user_id"].to_numpy()
        starts = np.flatnonzero(
            np.r_[True, uid[1:] != uid[:-1]])
        offset = np.zeros(len(df), dtype=np.int64)
        offset[starts] = cum[starts] - first[starts]
        np.maximum.accumulate(offset, out=offset)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "user_id": uid,
            "n_distinct_types": cum - offset})

    return grouped_apply(ds, ["user_id"], per_partition,
                         num_partitions=16, fn_format="pandas")


SQL_RUNNING_DISTINCT_TYPES = """
WITH f AS (
  SELECT event_id, user_id, ts,
         CASE WHEN ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                      ORDER BY ts, event_id) = 1
              THEN 1 ELSE 0 END AS first_seen
  FROM events)
SELECT event_id, user_id,
       CAST(SUM(first_seen) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS BIGINT)
           AS n_distinct_types
FROM f
"""

QUERIES["running_distinct_types"] = q_running_distinct_types
ORACLE_SQL["running_distinct_types"] = SQL_RUNNING_DISTINCT_TYPES


FUNNEL_STEPS = ("signup", "click", "purchase")


def q_event_funnel(sf_dir: str):
    """Ordered-subsequence conversion funnel: how many users signup,
    then click STRICTLY after their first signup, then purchase
    strictly after that click — the analytics op sessionization and
    retention don't cover (it needs ordered-subsequence existence per
    user, not windows). ONE user_id exchange; each partition computes
    the three earliest-qualifying timestamps per user with THREE
    chained hash-groupby mins (t2 = min click ts > t1, t3 = min
    purchase ts > t2 — no per-user Python loop) and emits three count
    partials; the driver merges O(partitions × 3) rows. Strictness is
    on ts alone, exactly as the twin's correlated-min CTE chain
    states it."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts", "event_type"])

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized: three chained hash-groupby mins, no
        # per-user Python loop (a partition can hold millions of users)
        prev = None  # Series: user -> earliest qualifying ts so far
        counts = np.zeros(3, dtype=np.int64)
        for i, step in enumerate(FUNNEL_STEPS):
            rows = df.loc[df["event_type"] == step,
                          ["user_id", "ts"]]
            if prev is not None:
                bound = rows["user_id"].map(prev)
                rows = rows.loc[bound.notna().to_numpy()
                                & (rows["ts"].to_numpy()
                                   > bound.to_numpy())]
            prev = rows.groupby("user_id")["ts"].min()
            counts[i] = len(prev)
        return pd.DataFrame({
            "step": np.arange(1, 4, dtype=np.int64),
            "step_name": list(FUNNEL_STEPS),
            "n_users": counts})

    out = _merge_partials(
        grouped_apply(ds, ["user_id"], per_partition,
                      num_partitions=16, fn_format="pandas"),
        ["step", "step_name"], {"n_users": "sum"})
    return out[["step", "step_name", "n_users"]]


SQL_EVENT_FUNNEL = f"""
WITH s1 AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY 1),
s2 AS (
  SELECT e.user_id, min(ts) AS t2 FROM events e JOIN s1 USING (user_id)
  WHERE event_type = '{FUNNEL_STEPS[1]}' AND ts > t1 GROUP BY 1),
s3 AS (
  SELECT e.user_id, min(ts) AS t3 FROM events e JOIN s2 USING (user_id)
  WHERE event_type = '{FUNNEL_STEPS[2]}' AND ts > t2 GROUP BY 1)
SELECT * FROM (
  SELECT CAST(1 AS BIGINT) AS step, '{FUNNEL_STEPS[0]}' AS step_name,
         CAST((SELECT count(*) FROM s1) AS BIGINT) AS n_users
  UNION ALL
  SELECT 2, '{FUNNEL_STEPS[1]}',
         CAST((SELECT count(*) FROM s2) AS BIGINT)
  UNION ALL
  SELECT 3, '{FUNNEL_STEPS[2]}',
         CAST((SELECT count(*) FROM s3) AS BIGINT))
"""

QUERIES["event_funnel"] = q_event_funnel
ORACLE_SQL["event_funnel"] = SQL_EVENT_FUNNEL


def q_event_type_cooccurrence(sf_dir: str):
    """Market-basket co-occurrence (association-rule support counts):
    for every unordered event-type pair, how many users produced BOTH.
    ONE user_id exchange; each partition builds a per-user type BITMASK
    (types are a tiny closed set — dictionary-encoded to bit positions)
    with a hash groupby + bitwise-or, expands each user's mask to its
    pairs via precomputed pair masks (vocab²/2 masks, not rows), and
    emits per-pair count partials the driver merges. The twin is the
    distinct-pair self-join. Support counts at corpus scale never
    leave the combiner bigger than types² rows per partition."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_type"])

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        # distinct (user, type) first: each bit then appears once per
        # user, so a C-speed groupby SUM equals the bitwise OR — no
        # per-user Python reduce. factorize is partition-local but the
        # output carries type NAMES, so local bit positions are safe.
        dd = df.drop_duplicates()
        codes, uniques = pd.factorize(dd["event_type"], sort=True)
        masks = pd.DataFrame({
            "user_id": dd["user_id"].to_numpy(),
            "__m": np.int64(1) << codes.astype(np.int64)}) \
            .groupby("user_id")["__m"].sum()
        m = masks.to_numpy(np.int64)
        names = list(uniques)
        out_a, out_b, out_n = [], [], []
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                pair_mask = (np.int64(1) << i) | (np.int64(1) << j)
                n = int(((m & pair_mask) == pair_mask).sum())
                if n:
                    out_a.append(names[i])
                    out_b.append(names[j])
                    out_n.append(n)
        return pd.DataFrame({"type_a": out_a, "type_b": out_b,
                             "n_users": np.asarray(out_n,
                                                   dtype=np.int64)})

    return _merge_partials(
        grouped_apply(ds, ["user_id"], per_partition,
                      num_partitions=16, fn_format="pandas"),
        ["type_a", "type_b"], {"n_users": "sum"})


SQL_EVENT_TYPE_COOCCURRENCE = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
FROM ut a JOIN ut b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2
"""

QUERIES["event_type_cooccurrence"] = q_event_type_cooccurrence
ORACLE_SQL["event_type_cooccurrence"] = SQL_EVENT_TYPE_COOCCURRENCE


# --------------------------------------------------------------------------
# TPC-H remainder (Q6/Q7/Q8/Q14/Q15/Q17/Q18/Q19/Q21/Q22) — pipelines.tpch
# --------------------------------------------------------------------------

from nacc_form_validator_ray.pipelines.tpch import (TPCH_ORACLE_SQL,
                                                    TPCH_QUERIES)

QUERIES.update(TPCH_QUERIES)
ORACLE_SQL.update(TPCH_ORACLE_SQL)


# --------------------------------------------------------------------------
# Advanced analytics (skyline / mode / profiling / HLL / fuzzy join) —
# pipelines.advanced
# --------------------------------------------------------------------------

from nacc_form_validator_ray.pipelines.advanced import (ADV_ORACLE_SQL,
                                                        ADV_QUERIES)

QUERIES.update(ADV_QUERIES)
ORACLE_SQL.update(ADV_ORACLE_SQL)

# --------------------------------------------------------------------------
# Mining batch (priority sampling / correlation matrix / unpivot /
# host components / reciprocal links / in-window pairs) —
# pipelines.mining
# --------------------------------------------------------------------------

from nacc_form_validator_ray.pipelines.mining import (MIN_ORACLE_SQL,
                                                      MIN_QUERIES,
                                                      sql_langid_confusion)

QUERIES.update(MIN_QUERIES)
ORACLE_SQL.update(MIN_ORACLE_SQL)
# registered here (not in mining) so the entries exist regardless of
# which module is imported first — SQL_LANGID / the dedup_clusters
# twin are defined above
ORACLE_SQL["langid_confusion"] = sql_langid_confusion(SQL_LANGID)

from nacc_form_validator_ray.pipelines.mining import (
    _sql_kmv_type_overlap, _sql_knn_label_agreement)

ORACLE_SQL["knn_label_agreement"] = _sql_knn_label_agreement(SQL_KNN)
ORACLE_SQL["kmv_type_overlap"] = _sql_kmv_type_overlap()

from nacc_form_validator_ray.pipelines.mining import (
    _sql_dedup_cluster_sizes, sql_minhash_verify_pairs,
    sql_pack_efficiency)

ORACLE_SQL["dedup_cluster_sizes"] = _sql_dedup_cluster_sizes()
ORACLE_SQL["minhash_verify_pairs"] = \
    sql_minhash_verify_pairs(ORACLE_SQL["minhash_pairs"])
ORACLE_SQL["pack_efficiency"] = \
    sql_pack_efficiency(SQL_PACK_SEQUENCES)

from nacc_form_validator_ray.pipelines.mining import \
    sql_session_length_histogram

ORACLE_SQL["session_length_histogram"] = \
    sql_session_length_histogram(SQL_USER_SESSIONS)

from nacc_form_validator_ray.pipelines.advanced import (  # noqa: E402
    HLL_M, SQL_HLL_USER_REGISTERS)
from nacc_form_validator_ray.pipelines.mining import \
    sql_hll_estimate_users

ORACLE_SQL["hll_estimate_users"] = \
    sql_hll_estimate_users(SQL_HLL_USER_REGISTERS, HLL_M)


# --------------------------------------------------------------------------
# rule-hit attribution report over the documents quality filter
# --------------------------------------------------------------------------

#: DOC_RULES field list in the report's (sorted) output order
_ATTR_FIELDS = ["lang_pred", "mean_word_len", "n_words",
                "rep_3gram_ratio", "stop_ratio"]


def _doc_rule_flags(t) -> Dict[str, np.ndarray]:
    """Per-document violation flags for the five DOC_RULES fields over
    a ``TextStats(langid=True)`` output batch — the ONE copy of the
    thresholds shared by ``rule_attribution_docs``,
    ``rule_cooccurrence_docs`` and ``keep_rate_by_length`` (mirrors the
    CASE arms of ``SQL_QUALITY_FILTER``; a doc is kept iff every flag
    is False, i.e. ``quality_filter_docs.passed``)."""
    nw = t["n_words"].to_numpy(zero_copy_only=False)
    mwl = t["mean_word_len"].to_numpy(zero_copy_only=False)
    rep = t["rep_3gram_ratio"].to_numpy(zero_copy_only=False)
    stop = t["stop_ratio"].to_numpy(zero_copy_only=False)
    lang = t["lang_pred"].to_numpy(zero_copy_only=False)
    return {
        "lang_pred": lang != "en",
        "mean_word_len": (mwl < 4.0) | (mwl > 5.0),
        "n_words": (nw < 25) | (nw > 90),
        "rep_3gram_ratio": rep > 0.05,
        "stop_ratio": stop < 0.01,
    }


def q_rule_attribution_docs(sf_dir: str) -> pd.DataFrame:
    """Per-rule drop attribution for the ``quality_filter_docs``
    schema (DOC_RULES): for each rule field, how many documents
    violate it (``n_violations``) and for how many it is the ONLY
    violated field (``n_sole`` — the documents that would be kept if
    just that rule were removed). The report a corpus curator reads
    before loosening a threshold.

    Engine shape: the fused TextStats signal pass, then per-batch
    (field, n_violations, n_sole) combiner rows — the driver merges
    O(5 x batches) scalars; no exchange at all. Fields with zero
    violations still appear (pinned rows, like the global-aggregate
    twins)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(TextStats(langid=True), batch_format="pyarrow",
                        batch_size=4096)

    def partial(t) -> pd.DataFrame:
        flags = _doc_rule_flags(t)
        nf = np.zeros(len(t), dtype=np.int64)
        for v in flags.values():
            nf += v
        sole = nf == 1
        return pd.DataFrame({
            "field": _ATTR_FIELDS,
            "n_violations": [int(flags[f].sum()) for f in _ATTR_FIELDS],
            "n_sole": [int((flags[f] & sole).sum())
                       for f in _ATTR_FIELDS]})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("field", as_index=False)[
        ["n_violations", "n_sole"]].sum()
    out = out.set_index("field").reindex(_ATTR_FIELDS, fill_value=0) \
        .reset_index()
    return out.astype({"n_violations": np.int64, "n_sole": np.int64})


#: the sig/lp CTE prologue is shared verbatim with SQL_QUALITY_FILTER
#: (same thresholds, same signal definitions) — the twin only swaps the
#: error SUM for per-field flags + sole-violation attribution
SQL_RULE_ATTRIBUTION = SQL_QUALITY_FILTER[
    :SQL_QUALITY_FILTER.index("), err AS (")] + """
), f AS (
  SELECT sig.doc_id,
         (lang_pred != 'en') AS v_lang_pred,
         (mean_word_len < 4.0 OR mean_word_len > 5.0)
             AS v_mean_word_len,
         (n_words < 25 OR n_words > 90) AS v_n_words,
         (rep_3gram_ratio > 0.05) AS v_rep_3gram_ratio,
         (stop_ratio < 0.01) AS v_stop_ratio
  FROM sig JOIN lp ON sig.doc_id = lp.doc_id
), nf AS (
  SELECT *,
         CAST(v_lang_pred AS INT) + CAST(v_mean_word_len AS INT)
         + CAST(v_n_words AS INT) + CAST(v_rep_3gram_ratio AS INT)
         + CAST(v_stop_ratio AS INT) AS n_fields
  FROM f
)
SELECT 'lang_pred' AS field,
       CAST(count(*) FILTER (v_lang_pred) AS BIGINT) AS n_violations,
       CAST(count(*) FILTER (v_lang_pred AND n_fields = 1) AS BIGINT)
           AS n_sole FROM nf
UNION ALL
SELECT 'mean_word_len',
       CAST(count(*) FILTER (v_mean_word_len) AS BIGINT),
       CAST(count(*) FILTER (v_mean_word_len AND n_fields = 1)
            AS BIGINT) FROM nf
UNION ALL
SELECT 'n_words',
       CAST(count(*) FILTER (v_n_words) AS BIGINT),
       CAST(count(*) FILTER (v_n_words AND n_fields = 1) AS BIGINT)
       FROM nf
UNION ALL
SELECT 'rep_3gram_ratio',
       CAST(count(*) FILTER (v_rep_3gram_ratio) AS BIGINT),
       CAST(count(*) FILTER (v_rep_3gram_ratio AND n_fields = 1)
            AS BIGINT) FROM nf
UNION ALL
SELECT 'stop_ratio',
       CAST(count(*) FILTER (v_stop_ratio) AS BIGINT),
       CAST(count(*) FILTER (v_stop_ratio AND n_fields = 1) AS BIGINT)
       FROM nf
"""

QUERIES["rule_attribution_docs"] = q_rule_attribution_docs
ORACLE_SQL["rule_attribution_docs"] = SQL_RULE_ATTRIBUTION


# --------------------------------------------------------------------------
# filter-audit reports (batch 18): the readouts a curator runs against
# the flagship quality-filter / tokenizer / scrubber stages themselves —
# rule co-occurrence, keep-rate calibration by length, per-source langid
# drift, tokenizer fertility and scrub volume. All five are the
# combiner shape: per-batch bounded partials (pairs / buckets /
# sources), one tiny driver merge, NO exchange.
# --------------------------------------------------------------------------

#: unordered DOC_RULES field pairs in (sorted, sorted) output order
_RULE_PAIRS = [(a, b) for i, a in enumerate(_ATTR_FIELDS)
               for b in _ATTR_FIELDS[i + 1:]]


def q_rule_cooccurrence_docs(sf_dir: str) -> pd.DataFrame:
    """Rule CO-OCCURRENCE matrix for the ``quality_filter_docs``
    schema: for each unordered pair of DOC_RULES fields, how many
    documents violate BOTH — the companion report to
    ``rule_attribution_docs`` (attribution says which single rule to
    loosen; co-occurrence says which rules are redundant because their
    violation sets overlap — reference analog: the per-record error
    VECTOR, which exists precisely so downstream can study error
    correlation rather than one code at a time).

    All 10 pairs always appear (zero-filled pinned rows)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(TextStats(langid=True), batch_format="pyarrow",
                        batch_size=4096)

    def partial(t) -> pd.DataFrame:
        flags = _doc_rule_flags(t)
        return pd.DataFrame({
            "field_a": [a for a, _ in _RULE_PAIRS],
            "field_b": [b for _, b in _RULE_PAIRS],
            "n_both": [int((flags[a] & flags[b]).sum())
                       for a, b in _RULE_PAIRS]})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby(["field_a", "field_b"], as_index=False)[
        "n_both"].sum()
    idx = pd.MultiIndex.from_tuples(_RULE_PAIRS,
                                    names=["field_a", "field_b"])
    out = out.set_index(["field_a", "field_b"]).reindex(
        idx, fill_value=0).reset_index()
    return out.astype({"n_both": np.int64})


#: shared flags prologue: SQL_RULE_ATTRIBUTION up to (excluding) its nf
#: CTE — the qualityfilter signal chain plus the per-field v_* flags
_SQL_FLAGS_PROLOGUE = SQL_RULE_ATTRIBUTION[
    :SQL_RULE_ATTRIBUTION.index("), nf AS (")] + ")"

SQL_RULE_COOCCURRENCE = _SQL_FLAGS_PROLOGUE + "\n" + "\nUNION ALL\n".join(
    f"SELECT '{a}' AS field_a, '{b}' AS field_b,\n"
    f"       CAST(count(*) FILTER (v_{a} AND v_{b}) AS BIGINT) AS n_both\n"
    f"FROM f" for a, b in _RULE_PAIRS)


def q_keep_rate_by_length(sf_dir: str) -> pd.DataFrame:
    """Keep-rate calibration curve of the quality filter by document
    length: per ``floor(log2(1 + n_chars))`` bucket, document count,
    kept count and keep rate — the report that shows whether the filter
    is silently a length filter (a common failure mode of heuristic
    rule stacks; Gopher's authors publish exactly this curve).

    Exactness: counts are int64 sums; ``keep_rate`` is the single
    correctly-rounded int64/int64 double division (repo convention)."""
    import pyarrow.compute as pc
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    ds = ds.map_batches(TextStats(langid=True), batch_format="pyarrow",
                        batch_size=4096)

    def partial(t) -> pd.DataFrame:
        from nacc_form_validator_ray.pipelines.advanced import \
            _floor_log2_u64
        flags = _doc_rule_flags(t)
        viol = np.zeros(t.num_rows, dtype=bool)
        for v in flags.values():
            viol |= v
        nch = pc.utf8_length(pc.fill_null(t["text"], "")) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = _floor_log2_u64((1 + nch).astype(np.uint64)) \
            .astype(np.int64)
        df = pd.DataFrame({"bucket": bucket,
                           "n_docs": np.ones(len(bucket), dtype=np.int64),
                           "n_kept": (~viol).astype(np.int64)})
        return df.groupby("bucket", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = _merge_partials(parts, ["bucket"],
                          {"n_docs": "sum", "n_kept": "sum"})
    if out.empty:
        return pd.DataFrame({"bucket": pd.Series([], dtype=np.int64),
                             "n_docs": pd.Series([], dtype=np.int64),
                             "n_kept": pd.Series([], dtype=np.int64),
                             "keep_rate": pd.Series([], dtype=np.float64)})
    out = out.astype({"bucket": np.int64})
    out["keep_rate"] = out["n_kept"].to_numpy(dtype=np.float64) \
        / out["n_docs"].to_numpy(dtype=np.float64)
    return out.sort_values("bucket").reset_index(drop=True)


SQL_KEEP_RATE_BY_LENGTH = _SQL_FLAGS_PROLOGUE + """
, b AS (
  SELECT f.doc_id,
         length(bin(1 + length(coalesce(d.text, '')))) - 1 AS bucket,
         NOT (v_lang_pred OR v_mean_word_len OR v_n_words
              OR v_rep_3gram_ratio OR v_stop_ratio) AS kept
  FROM f JOIN documents d ON d.doc_id = f.doc_id
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (kept) AS BIGINT) AS n_kept,
       CAST(count(*) FILTER (kept) AS DOUBLE) / count(*) AS keep_rate
FROM b GROUP BY bucket
"""


def q_langid_mismatch_by_source(sf_dir: str) -> pd.DataFrame:
    """Language-ID drift per source: how often the predicted language
    disagrees with the crawl's declared ``lang`` label, per source —
    the per-feed counterpart of the corpus-wide ``langid_confusion``
    (a feed whose mismatch rate jumps is mislabeled or compromised;
    null labels count as '' and therefore as mismatches)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang", "source"])
    ds = ds.map_batches(TextStats(langid=True), batch_format="pyarrow",
                        batch_size=4096)

    def partial(t: "pa.Table") -> "pa.Table":
        lang = pc.fill_null(t["lang"], "").to_numpy(zero_copy_only=False)
        pred = t["lang_pred"].to_numpy(zero_copy_only=False)
        g = pa.table({
            "source": pc.fill_null(t["source"], "").combine_chunks()
            if isinstance(t["source"], pa.ChunkedArray)
            else pc.fill_null(t["source"], ""),
            "n_docs": np.ones(t.num_rows, dtype=np.int64),
            "n_mismatch": (lang != pred).astype(np.int64)})
        return _pa_grouped_agg(g, ["source"],
                               [("n_docs", "sum"), ("n_mismatch", "sum")],
                               ["n_docs", "n_mismatch"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = _merge_partials(parts, ["source"],
                          {"n_docs": "sum", "n_mismatch": "sum"})
    out["mismatch_rate"] = np.asarray(out["n_mismatch"],
                                      dtype=np.float64) \
        / np.maximum(np.asarray(out["n_docs"], dtype=np.float64), 1.0)
    return out.sort_values("source").reset_index(drop=True)


#: null-text contract (shared with the engine's TextStats fill_null):
#: a null text has EMPTY stopword banks -> 'und', never a NULL that
#: would fall through the argmax CASE to 'zh'
SQL_LANGID_MISMATCH = f"""
WITH d0 AS (
  SELECT doc_id, coalesce(text, '') AS text, lang, source
  FROM documents
), c AS (
  SELECT doc_id, coalesce(lang, '') AS lang,
         coalesce(source, '') AS source,
         {_sql_sw('en')} AS sw_en,
         {_sql_sw('es')} AS sw_es,
         {_sql_sw('de')} AS sw_de,
         {_sql_sw('fr')} AS sw_fr,
         {_sql_sw('zh')} AS sw_zh
  FROM d0
), p AS (
  SELECT source, lang, {_SQL_LANG_PRED} AS lang_pred FROM c
)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (lang != lang_pred) AS BIGINT) AS n_mismatch,
       CAST(count(*) FILTER (lang != lang_pred) AS DOUBLE)
           / greatest(count(*), 1) AS mismatch_rate
FROM p GROUP BY source
"""


def q_fertility_by_source(sf_dir: str) -> pd.DataFrame:
    """Tokenizer fertility per source: subwords-per-word of the
    10-merge BPE tokenizer, aggregated by feed — the tokenizer-audit
    metric (a source whose fertility is high is paying more sequence
    length per word: code, non-Latin scripts, or noise). Train once,
    broadcast the merge table, encode with ``source`` passed through,
    then per-batch (source, sums) partials and one driver merge."""
    from nacc_form_validator_ray.stages.bpe import bpe_encode, bpe_merges
    import pyarrow as pa
    import pyarrow.compute as pc
    m = bpe_merges(_docs(sf_dir, columns=["text"]),
                   n_merges=10).to_pandas()
    docs = _docs(sf_dir, columns=["doc_id", "text", "source"])
    enc = bpe_encode(docs, list(zip(m["pair"], m["merged"])),
                     passthrough=["source"])

    def partial(t: "pa.Table") -> "pa.Table":
        src = t["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = pa.table({"source": pc.fill_null(src, ""),
                      "n_docs": np.ones(t.num_rows, dtype=np.int64),
                      "n_words": t["n_words"].combine_chunks(),
                      "n_subwords": t["n_subwords"].combine_chunks()})
        return _pa_grouped_agg(
            g, ["source"],
            [("n_docs", "sum"), ("n_words", "sum"), ("n_subwords", "sum")],
            ["n_docs", "n_words", "n_subwords"])

    parts = enc.map_batches(partial, batch_format="pyarrow")
    out = _merge_partials(parts, ["source"],
                          {"n_docs": "sum", "n_words": "sum",
                           "n_subwords": "sum"})
    nw = np.asarray(out["n_words"], dtype=np.float64)
    out["fertility"] = np.where(
        nw > 0, np.asarray(out["n_subwords"], dtype=np.float64)
        / np.maximum(nw, 1.0), 0.0)
    return out.sort_values("source").reset_index(drop=True)


def _sql_fertility_by_source(n_merges: int = 10) -> str:
    # the per-doc encode CTEs are _sql_bpe_encode_docs's, re-grouped by
    # source; docs with zero [a-z]+ words contribute zero rows to dw
    # and therefore zeros via the LEFT JOIN (sources never vanish)
    body, _ = _bpe_cte_chain(n_merges)
    return f"""
WITH {body},
dw AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+'))
      AS word
  FROM documents
),
de AS (
  SELECT dw.doc_id, len(string_split(v.seq, '.')) - 2 AS n_sub
  FROM dw JOIN v{n_merges} v ON v.word = dw.word
),
da AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(n_sub) AS BIGINT) AS n_subwords
  FROM de GROUP BY doc_id
)
SELECT coalesce(d.source, '') AS source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(coalesce(a.n_words, 0)) AS BIGINT) AS n_words,
       CAST(sum(coalesce(a.n_subwords, 0)) AS BIGINT) AS n_subwords,
       CASE WHEN sum(coalesce(a.n_words, 0)) > 0
            THEN CAST(sum(coalesce(a.n_subwords, 0)) AS DOUBLE)
                 / greatest(sum(coalesce(a.n_words, 0)), 1)
            ELSE 0.0 END AS fertility
FROM documents d LEFT JOIN da a ON a.doc_id = d.doc_id
GROUP BY coalesce(d.source, '')
"""


def q_scrub_volume_by_source(sf_dir: str) -> pd.DataFrame:
    """PII/toxicity scrub volume per source: documents touched, total
    redactions and net characters removed by the ``pii_scrub`` pattern
    bank — the compliance report a curator files per feed (a feed whose
    scrub volume spikes is leaking PII upstream). ``chars_removed`` is
    the NET length delta (replacement tokens can exceed short matches,
    so per-doc deltas may be negative)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    ds = _docs(sf_dir, columns=["doc_id", "text", "source"])
    ds = ds.map_batches(Scrubber(), batch_format="pyarrow",
                        batch_size=4096)

    def partial(t: "pa.Table") -> "pa.Table":
        red = t["n_redactions"].to_numpy(zero_copy_only=False)
        orig = pc.utf8_length(pc.fill_null(t["text"], "")) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        scr = pc.utf8_length(t["scrubbed_text"]) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        src = t["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = pa.table({"source": pc.fill_null(src, ""),
                      "n_docs": np.ones(t.num_rows, dtype=np.int64),
                      "n_touched": (red > 0).astype(np.int64),
                      "n_redactions": red.astype(np.int64),
                      "chars_removed": orig - scr})
        return _pa_grouped_agg(
            g, ["source"],
            [("n_docs", "sum"), ("n_touched", "sum"),
             ("n_redactions", "sum"), ("chars_removed", "sum")],
            ["n_docs", "n_touched", "n_redactions", "chars_removed"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = _merge_partials(parts, ["source"],
                          {"n_docs": "sum", "n_touched": "sum",
                           "n_redactions": "sum", "chars_removed": "sum"})
    return out.sort_values("source").reset_index(drop=True)


def _sql_scrub_volume() -> str:
    defs, last, total = _scrub_ctes("documents", "doc_id")
    return f"""WITH {defs}
SELECT coalesce(d.source, '') AS source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (coalesce({total}, 0) > 0) AS BIGINT)
           AS n_touched,
       CAST(sum(coalesce({total}, 0)) AS BIGINT) AS n_redactions,
       CAST(sum(length(coalesce(d.text, ''))
                - length(coalesce(s.t, ''))) AS BIGINT) AS chars_removed
FROM documents d JOIN {last} s ON s.doc_id = d.doc_id
GROUP BY coalesce(d.source, '')
"""


QUERIES["rule_cooccurrence_docs"] = q_rule_cooccurrence_docs
ORACLE_SQL["rule_cooccurrence_docs"] = SQL_RULE_COOCCURRENCE
QUERIES["keep_rate_by_length"] = q_keep_rate_by_length
ORACLE_SQL["keep_rate_by_length"] = SQL_KEEP_RATE_BY_LENGTH
QUERIES["langid_mismatch_by_source"] = q_langid_mismatch_by_source
ORACLE_SQL["langid_mismatch_by_source"] = SQL_LANGID_MISMATCH
QUERIES["fertility_by_source"] = q_fertility_by_source
ORACLE_SQL["fertility_by_source"] = _sql_fertility_by_source()
QUERIES["scrub_volume_by_source"] = q_scrub_volume_by_source
ORACLE_SQL["scrub_volume_by_source"] = _sql_scrub_volume()


# --------------------------------------------------------------------------
# Curation / numerics batch (PCA power iteration, SQ8 quantization
# audit, MMR diversity selection, dyadic EWMA) — pipelines.curation
# --------------------------------------------------------------------------

from nacc_form_validator_ray.pipelines.curation import (CUR_ORACLE_SQL,
                                                        CUR_QUERIES)

QUERIES.update(CUR_QUERIES)
ORACLE_SQL.update(CUR_ORACLE_SQL)


# --------------------------------------------------------------------------
# Statistical-audit batch (Zipf slope, Markov entropy, silhouette,
# null cosine distribution) — pipelines.stataudit
# --------------------------------------------------------------------------

from nacc_form_validator_ray.pipelines.stataudit import (ST_ORACLE_SQL,
                                                         ST_QUERIES)

QUERIES.update(ST_QUERIES)
ORACLE_SQL.update(ST_ORACLE_SQL)


def all_queries() -> Dict[str, Callable[[str], Any]]:
    """The ONE registration API (round-4 VERDICT item 8): re-merge the
    per-module registries at CALL time, so an entry registered in a
    submodule after this module's import-time snapshot (the session-5
    import-order race) can never be lost. Collisions across modules
    are a registration bug and raise instead of silently shadowing."""
    from nacc_form_validator_ray.pipelines.advanced import ADV_QUERIES
    from nacc_form_validator_ray.pipelines.curation import CUR_QUERIES
    from nacc_form_validator_ray.pipelines.mining import MIN_QUERIES
    from nacc_form_validator_ray.pipelines.stataudit import ST_QUERIES
    from nacc_form_validator_ray.pipelines.tpch import TPCH_QUERIES

    merged: Dict[str, Callable[[str], Any]] = dict(QUERIES)
    for name, sub in (("tpch", TPCH_QUERIES), ("advanced", ADV_QUERIES),
                      ("mining", MIN_QUERIES), ("curation", CUR_QUERIES),
                      ("stataudit", ST_QUERIES)):
        for key, fn in sub.items():
            if key in merged and merged[key] is not fn:
                raise RuntimeError(
                    f"query registry collision: {key!r} re-registered "
                    f"by pipelines.{name}")
            merged[key] = fn
    return merged


def all_oracle_sql() -> Dict[str, str]:
    """Call-time merge of every per-module ORACLE_SQL dict (same
    contract as :func:`all_queries`)."""
    from nacc_form_validator_ray.pipelines.advanced import ADV_ORACLE_SQL
    from nacc_form_validator_ray.pipelines.curation import CUR_ORACLE_SQL
    from nacc_form_validator_ray.pipelines.mining import MIN_ORACLE_SQL
    from nacc_form_validator_ray.pipelines.stataudit import ST_ORACLE_SQL
    from nacc_form_validator_ray.pipelines.tpch import TPCH_ORACLE_SQL

    merged: Dict[str, str] = dict(ORACLE_SQL)
    for name, sub in (("tpch", TPCH_ORACLE_SQL),
                      ("advanced", ADV_ORACLE_SQL),
                      ("mining", MIN_ORACLE_SQL),
                      ("curation", CUR_ORACLE_SQL),
                      ("stataudit", ST_ORACLE_SQL)):
        for key, sql in sub.items():
            if key in merged and merged[key] != sql:
                raise RuntimeError(
                    f"oracle registry collision: {key!r} re-registered "
                    f"by pipelines.{name}")
            merged[key] = sql
    return merged


def q_html_extract_pages(sf_dir: str):
    """Generic HTML -> text extraction over the persisted page table
    (stages/webclean.strip_html_arrow): script/style/comment removal,
    tag strip, entity decode, whitespace collapse — entirely Arrow RE2
    kernels, no fixture knowledge (unlike the envelope-exact
    ExtractText the flagship uses for byte-identity). The twin runs
    the IDENTICAL RE2 pattern chain through DuckDB regexp_replace, so
    this is a hard oracle for a real-markup extractor."""
    import pyarrow as pa  # noqa: F401

    from nacc_form_validator_ray.stages.webclean import HtmlStrip
    ds = _rd().read_parquet(_pages_path(sf_dir),
                            columns=["url", "html"])
    # instance (task pool): the kernel chain is stateless, and actor
    # startup measured 4x the whole job here. A swapped-in stateful
    # extractor passes the CLASS + concurrency instead (actor seam).
    return ds.map_batches(HtmlStrip(), batch_format="pyarrow")


def _html_text_sql_expr() -> str:
    """The DuckDB expression mirroring stages/webclean.strip_html_arrow
    pass for pass (shared by the extraction twin and the composed
    quality-filter-over-html twin)."""
    ents = [("&nbsp;", " "), ("&quot;", '"'), ("&#39;", "''"),
            ("&lt;", "<"), ("&gt;", ">"), ("&amp;", "&")]
    from nacc_form_validator_ray.stages.webclean import _HTML_BLOCK_RE
    expr = "regexp_replace(regexp_replace(decode(html), " \
           f"'{_HTML_BLOCK_RE}', ' ', 'g'), " \
           "'(?s)<[^>]*>', ' ', 'g')"
    for ent, rep in ents:
        expr = f"replace({expr}, '{ent}', '{rep}')"
    # explicit class: Arrow's ascii_split_whitespace separates on
    # [\t\n\v\f\r ] while RE2's \s excludes \v — the twin must match
    # the kernel, not the perl class
    return (f"trim(regexp_replace({expr}, "
            "'[\\t\\n\\x0b\\f\\r ]+', ' ', 'g'))")


def sql_html_extract_pages(path: str) -> str:
    expr = _html_text_sql_expr()
    return f"""
SELECT url, {expr} AS text,
       CAST(length({expr}) AS BIGINT) AS n_chars
FROM read_parquet('{path}')
"""


def q_quality_filter_html_pages(sf_dir: str):
    """The flagship rule stack composed over GENERIC html extraction
    (strip_html_arrow) instead of the envelope-exact ExtractText — the
    shape a real-markup corpus runs: extract -> signals -> langid ->
    rules -> scrub, one fused map chain, no shuffle. The twin rebuilds
    the identical composition by feeding the extraction expression in
    as the signal block's (url, text) source CTE."""
    from datetime import datetime

    from nacc_form_validator_ray.pipelines.quality_filter import \
        build_quality_pipeline
    from nacc_form_validator_ray.stages.webclean import HtmlStrip
    from nacc_form_validator_ray.utils import Clock
    ds = _rd().read_parquet(_pages_path(sf_dir),
                            columns=["url", "html"])
    ds = ds.map_batches(HtmlStrip(), batch_format="pyarrow")
    ds = build_quality_pipeline(ds, clock=Clock(datetime(2026, 1, 1)))
    return ds.select_columns(["url", "lang_pred", "passed", "n_errors",
                              "n_redactions"])


def sql_quality_filter_html_pages(path: str) -> str:
    src = (f"SELECT url, {_html_text_sql_expr()} AS text "
           f"FROM read_parquet('{path}')")
    _, scrub_last, scrub_total = _scrub_ctes(f"({src})", "url",
                                             prefix="sc")
    return _pages_signal_sql(path, source_sql=src) + f"""
SELECT err.url AS url, lang_pred, n_errors = 0 AS passed,
       CAST(n_errors AS INT) AS n_errors,
       CAST({scrub_total} AS BIGINT) AS n_redactions
FROM err JOIN {scrub_last} ON err.url = {scrub_last}.url
"""


QUERIES["html_extract_pages"] = q_html_extract_pages
QUERIES["quality_filter_html_pages"] = q_quality_filter_html_pages
