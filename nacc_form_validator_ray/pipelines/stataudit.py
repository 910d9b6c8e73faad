"""Statistical-audit operators, batch 32: Zipf power-law slope per
source, Markov next-event conditional entropy, k-means silhouette, and
the null (random-far-pair) cosine distribution.

Same contract as ``pipelines/curation.py`` / ``pipelines/mining.py``:
every operator is a Ray-Data-native pipeline (per-batch combiners +
at most one lean hash exchange, or a bounded driver-side model loop)
paired with a DuckDB oracle that reproduces column names, dtypes and
values bit-for-bit.

Float discipline: log2 values are quantized onto a DYADIC grid
(``floor(log2(x) * G + 0.5) / G`` with G a power of two — the
pmi_bigrams / source_kl_divergence precedent), so every cross-engine
sum is a sum of exactly-representable dyadic rationals (order-
independent in IEEE double while magnitudes stay far below 2^53),
and each final statistic is ONE deterministic double expression over
those exact sums.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pandas as pd

ST_QUERIES: Dict[str, object] = {}
ST_ORACLE_SQL: Dict[str, str] = {}


def _rd():
    import ray.data as rd
    return rd


# --------------------------------------------------------------------------
# Zipf slope per source
# --------------------------------------------------------------------------

#: rank cutoff for the fit: the head of the frequency spectrum is where
#: Zipf behavior lives (the hapax tail flattens every corpus toward -1
#: asymptotics and would dominate an unbounded fit); 200 points also
#: bound the exchange partials and the driver merge at any corpus size
_ZIPF_TOP_K = 200
#: dyadic log grid, 2^10: x*y products land on the 2^-20 grid with
#: magnitudes <= log2(K)*log2(c) ~ 3e2, so 200-term moment sums stay
#: exact in double with ~16 bits to spare
_ZIPF_GRID = 1024.0


def q_zipf_slope_by_source(sf_dir: str) -> pd.DataFrame:
    """Zipf power-law fit per source: OLS slope/intercept of
    log2(count) on log2(rank) over each source's top-200 terms — the
    lexical-naturalness audit (natural prose sits near slope -1;
    templated spam and keyword stuffing flatten the head, OCR noise
    steepens it).

    Scale shape: per-batch (source, tok, c) combiners
    (``text_signals.ngram_counts`` keyed by source), ONE hash exchange
    on token so each (source, token)'s count is finalized inside one
    partition, a per-partition top-K per source (<= K * |sources| rows
    each), and a driver re-rank of the union — the global top-K per
    source is a subset of the per-partition top-Ks, so the merge is
    exact. Moments
    are sums of dyadic-grid log values (module float discipline); the
    slope is one double expression over them, identical to the twin's.
    """
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    empty = pd.DataFrame({
        "source": pd.Series([], dtype=object),
        "n_terms": pd.Series([], dtype=np.int64),
        "zipf_slope": pd.Series([], dtype=np.float64),
        "zipf_intercept": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "text"])

    def count_partial(t: "pa.Table") -> "pa.Table":
        return ngram_counts(arrow_token_codes(t["text"]),
                            by=t["source"]) \
            .rename_columns(["source", "tok", "c"])

    def topk_partial(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return pd.DataFrame({
                "source": pd.Series([], dtype=object),
                "tok": pd.Series([], dtype=object),
                "c": pd.Series([], dtype=np.int64)})
        tot = part.groupby(["source", "tok"], as_index=False)["c"].sum()
        tot["c"] = tot["c"].astype(np.int64)
        tot = tot.sort_values(["source", "c", "tok"],
                              ascending=[True, False, True],
                              kind="stable")
        return tot.groupby("source", as_index=False).head(_ZIPF_TOP_K)

    cand = grouped_apply(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["tok"], topk_partial, num_partitions=32).to_pandas()
    if cand.empty or "source" not in cand.columns:
        return empty
    # each (source, tok) lives in exactly one partition, so the union
    # needs no re-aggregation — only the global per-source re-rank
    cand = cand.sort_values(["source", "c", "tok"],
                            ascending=[True, False, True],
                            kind="stable")
    top = cand.groupby("source", as_index=False).head(_ZIPF_TOP_K)
    top["r"] = top.groupby("source").cumcount() + 1

    g = _ZIPF_GRID
    x = np.floor(np.log2(top["r"].to_numpy(np.float64)) * g + 0.5) / g
    y = np.floor(np.log2(top["c"].to_numpy(np.float64)) * g + 0.5) / g
    mom = pd.DataFrame({"source": top["source"], "n": np.int64(1),
                        "sx": x, "sy": y, "sxx": x * x, "sxy": x * y}) \
        .groupby("source", as_index=False).sum()
    n = mom["n"].to_numpy(np.float64)
    sx = mom["sx"].to_numpy(np.float64)
    sy = mom["sy"].to_numpy(np.float64)
    sxx = mom["sxx"].to_numpy(np.float64)
    sxy = mom["sxy"].to_numpy(np.float64)
    den = n * sxx - sx * sx          # exact dyadic — ==0 is stable
    num = n * sxy - sx * sy
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(den == 0.0, 0.0, num / den)
        intercept = np.where(den == 0.0, 0.0, (sy - slope * sx) / n)
    return pd.DataFrame({
        "source": mom["source"],
        "n_terms": mom["n"].to_numpy(np.int64),
        "zipf_slope": slope.astype(np.float64),
        "zipf_intercept": intercept.astype(np.float64)}) \
        .sort_values("source").reset_index(drop=True)


ST_QUERIES["zipf_slope_by_source"] = q_zipf_slope_by_source
ST_ORACLE_SQL["zipf_slope_by_source"] = f"""
WITH t AS (
  SELECT source,
         unnest(regexp_extract_all(lower(coalesce(text, '')),
                                   '[a-z]+')) AS tok
  FROM documents),
c AS (SELECT source, tok, CAST(count(*) AS BIGINT) AS c
      FROM t GROUP BY source, tok),
r AS (SELECT source, c,
             row_number() OVER (PARTITION BY source
                                ORDER BY c DESC, tok) AS r
      FROM c),
k AS (SELECT source,
             floor(log2(CAST(r AS DOUBLE)) * {_ZIPF_GRID!r} + 0.5)
                 / {_ZIPF_GRID!r} AS x,
             floor(log2(CAST(c AS DOUBLE)) * {_ZIPF_GRID!r} + 0.5)
                 / {_ZIPF_GRID!r} AS y
      FROM r WHERE r <= {_ZIPF_TOP_K}),
m AS (SELECT source, CAST(count(*) AS BIGINT) AS n,
             sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy
      FROM k GROUP BY source),
s AS (SELECT source, n, sx, sy,
             CASE WHEN CAST(n AS DOUBLE) * sxx - sx * sx = 0
                  THEN 0.0
                  ELSE (CAST(n AS DOUBLE) * sxy - sx * sy)
                       / (CAST(n AS DOUBLE) * sxx - sx * sx)
             END AS zipf_slope,
             (CAST(n AS DOUBLE) * sxx - sx * sx = 0) AS degen
      FROM m)
SELECT source, n AS n_terms, zipf_slope,
       CASE WHEN degen THEN 0.0
            ELSE (sy - zipf_slope * sx) / CAST(n AS DOUBLE)
       END AS zipf_intercept
FROM s ORDER BY source
"""


# --------------------------------------------------------------------------
# Markov conditional entropy of the next event type
# --------------------------------------------------------------------------

#: dyadic grid for the p*log2(p) terms (the KL/PMI grid)
_ENT_GRID = 1048576.0


def q_markov_entropy_events(sf_dir: str) -> pd.DataFrame:
    """Conditional entropy of the next event type given the current
    one, H(next | cur) per current type — the sequence-predictability
    readout over the first-order Markov transition counts (a type whose
    next-step entropy collapses is a bot/funnel signature; one whose
    entropy approaches log2(|types|) carries no sequence signal).

    Scale shape: rides the transition-count operator unchanged (ONE
    user_id hash exchange, <= |types|^2-row partials, driver merge);
    the entropy is driver-side arithmetic over that tiny table — each
    term ``n * glog2(n/tot)`` is an integer multiple of 2^-20 (exact
    in double), so the per-type sums are order-independent and the
    final ``-(sum)/tot`` is one deterministic division (module float
    discipline, the source_kl_divergence pattern)."""
    from nacc_form_validator_ray.pipelines.advanced import \
        q_event_type_transitions

    empty = pd.DataFrame({
        "from_type": pd.Series([], dtype=object),
        "n_out": pd.Series([], dtype=np.int64),
        "n_next_types": pd.Series([], dtype=np.int64),
        "entropy_bits": pd.Series([], dtype=np.float64)})

    tr = q_event_type_transitions(sf_dir)
    if tr.empty:
        return empty
    tot = tr.groupby("from_type", as_index=False).agg(
        n_out=("n", "sum"), n_next_types=("n", "size"))
    tmap = dict(zip(tot["from_type"], tot["n_out"]))
    n = tr["n"].to_numpy(np.int64)
    t = np.array([tmap[f] for f in tr["from_type"]], dtype=np.int64)
    lg = np.floor(np.log2(n.astype(np.float64) / t.astype(np.float64))
                  * _ENT_GRID + 0.5) / _ENT_GRID
    v = n.astype(np.float64) * lg       # exact 2^-20 multiples
    sv = pd.DataFrame({"from_type": tr["from_type"], "v": v}) \
        .groupby("from_type", as_index=False)["v"].sum()
    out = tot.merge(sv, on="from_type")
    ent = -(out["v"].to_numpy(np.float64)
            / out["n_out"].to_numpy(np.float64))
    return pd.DataFrame({
        "from_type": out["from_type"],
        "n_out": out["n_out"].to_numpy(np.int64),
        "n_next_types": out["n_next_types"].to_numpy(np.int64),
        "entropy_bits": ent}) \
        .sort_values("from_type").reset_index(drop=True)


ST_QUERIES["markov_entropy_events"] = q_markov_entropy_events
ST_ORACLE_SQL["markov_entropy_events"] = f"""
WITH r AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events WHERE event_type IS NOT NULL),
tr AS (SELECT prev AS from_type, event_type AS to_type,
              CAST(count(*) AS BIGINT) AS n
       FROM r WHERE prev IS NOT NULL GROUP BY 1, 2),
t AS (SELECT from_type, CAST(sum(n) AS BIGINT) AS tot,
             CAST(count(*) AS BIGINT) AS k
      FROM tr GROUP BY from_type),
term AS (
  SELECT tr.from_type,
         tr.n * (floor(log2(CAST(tr.n AS DOUBLE)
                            / CAST(t.tot AS DOUBLE))
                       * {_ENT_GRID!r} + 0.5) / {_ENT_GRID!r}) AS v
  FROM tr JOIN t USING (from_type))
SELECT t.from_type, t.tot AS n_out, t.k AS n_next_types,
       -(sum(term.v) / CAST(t.tot AS DOUBLE)) AS entropy_bits
FROM term JOIN t USING (from_type)
GROUP BY t.from_type, t.tot, t.k
ORDER BY t.from_type
"""


# --------------------------------------------------------------------------
# k-means silhouette (centroid form)
# --------------------------------------------------------------------------

#: dyadic grid for the per-row silhouette ratio
_SIL_GRID = 1048576.0


def q_silhouette_embeddings(sf_dir: str) -> pd.DataFrame:
    """Centroid-form silhouette per cluster for the k-means model:
    with a = squared distance to the OWN (nearest) centroid and b = to
    the second-nearest, s = (b - a) / b in [0, 1] — the
    cluster-separation readout an elbow sweep pairs with inertia
    (s near 0 means the point sits on a cluster boundary; the classic
    all-pairs silhouette is O(N^2) and this centroid form is its
    standard scale substitute).

    Scale shape: train once (the exact-integer Lloyd fit), broadcast
    the (k, d) centroid matrix via ``ray.put``, then one scoring pass:
    per batch an int64 distance matrix, the two smallest distances per
    row via ``np.partition`` (ties leave the VALUES equal, so the
    twin's (dist, cid) rank order yields the same b), the ratio
    quantized onto the 2^-20 dyadic grid, and per-cid (n, sum) int64
    combiners the driver merges — exact at any partitioning."""
    import pyarrow as pa
    import ray

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    from nacc_form_validator_ray.stages.kmeans import (_quantize,
                                                       kmeans_fit)

    empty = pd.DataFrame({
        "cid": pd.Series([], dtype=np.int64),
        "n_members": pd.Series([], dtype=np.int64),
        "mean_silhouette": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    cents, _ = kmeans_fit(ds, k=8, iterations=3)
    if cents.shape[0] < 2:
        # a single centroid has no second-nearest: the twin's rn=2
        # join is empty, so the operator is DEFINED as empty
        return empty
    cents_ref = ray.put(cents.astype(np.int64))

    def partial(t: "pa.Table") -> pd.DataFrame:
        C = ray.get(cents_ref)
        if not t.num_rows:
            return pd.DataFrame({
                "cid": pd.Series([], dtype=np.int64),
                "n_members": pd.Series([], dtype=np.int64),
                "sg": pd.Series([], dtype=np.int64)})
        X = _quantize(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))) \
            .astype(np.int64)
        d = (X * X).sum(axis=1)[:, None] \
            - 2 * (X @ C.T) + (C * C).sum(axis=1)[None, :]
        cid = np.argmin(d, axis=1)  # first minimum == smallest cid
        two = np.partition(d, 1, axis=1)
        a = two[:, 0].astype(np.float64)
        b = two[:, 1].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(b > 0.0, (b - a) / b, 0.0)
        sg = np.floor(s * _SIL_GRID + 0.5).astype(np.int64)
        df = pd.DataFrame({"cid": cid.astype(np.int64),
                           "n_members": 1, "sg": sg})
        return df.groupby("cid", as_index=False).sum()

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["cid"], {"n_members": "sum", "sg": "sum"})
    if out.empty:
        return empty
    nm = out["n_members"].to_numpy(np.int64)
    mean = out["sg"].to_numpy(np.float64) \
        / (nm.astype(np.float64) * _SIL_GRID)
    return pd.DataFrame({
        "cid": out["cid"].to_numpy(np.int64),
        "n_members": nm,
        "mean_silhouette": mean}) \
        .sort_values("cid").reset_index(drop=True)


def _sql_silhouette(k: int = 8, iterations: int = 3) -> str:
    from nacc_form_validator_ray.pipelines.queries import \
        sql_kmeans_ctes
    ctes = sql_kmeans_ctes(k, iterations)
    T = iterations
    return f"""
WITH {', '.join(ctes)},
d AS (
  SELECT vv.vec_id, c.cid,
         list_dot_product(vv.v, vv.v) + list_dot_product(c.cv, c.cv)
           - 2 * list_dot_product(vv.v, c.cv) AS dist
  FROM vv, c{T} c),
rk AS (SELECT vec_id, cid, dist,
              row_number() OVER (PARTITION BY vec_id
                                 ORDER BY dist, cid) AS rn
       FROM d),
ab AS (SELECT a.vec_id, a.cid, a.dist AS da, b.dist AS db
       FROM rk a JOIN rk b USING (vec_id)
       WHERE a.rn = 1 AND b.rn = 2),
s AS (SELECT cid,
             CASE WHEN db > 0
                  THEN CAST(floor((db - da) / db * {_SIL_GRID!r} + 0.5)
                            AS BIGINT)
                  ELSE 0 END AS sg
      FROM ab)
SELECT cid, CAST(count(*) AS BIGINT) AS n_members,
       CAST(sum(sg) AS DOUBLE)
           / (CAST(count(*) AS DOUBLE) * {_SIL_GRID!r})
           AS mean_silhouette
FROM s GROUP BY cid ORDER BY cid
"""


ST_QUERIES["silhouette_embeddings"] = q_silhouette_embeddings
ST_ORACLE_SQL["silhouette_embeddings"] = _sql_silhouette()


# --------------------------------------------------------------------------
# Null cosine distribution (deterministic far pairs)
# --------------------------------------------------------------------------

#: histogram resolution: 65 buckets over [-1, 1]
_COS_BUCKETS = 32.0
#: the embedding family's quantization grid (kmeans.QUANT_BITS = 12)
_COS_QUANT = 4096.0


def q_cosine_null_histogram(sf_dir: str) -> pd.DataFrame:
    """Null distribution of embedding cosine similarity: pair vector i
    with vector i + N//2 (a deterministic, index-independent far
    pairing — no near-duplicate structure survives an N/2 offset) and
    histogram the cosines. This is the baseline a SemDeDup / near-dup
    threshold is read against: the dedup threshold must sit far in the
    right tail of THIS distribution or the dedup is deleting random
    pairs.

    Scale shape: vectors are quantized to the embedding family's 2^12
    integer grid (dots and norms are then EXACT int64), the two halves
    meet in ONE pair-id hash exchange (``grouped_apply`` — no broadcast
    side: both halves are corpus-sized; Acero's join rejects list
    payload columns, so the pair matching is a per-partition pandas
    merge instead of ``hash_join``), and each partition emits <= 65
    (bucket, n) partials for the driver merge. The cosine is
    dot / sqrt(na*nb) — exact integers in, two correctly-rounded
    IEEE ops out, identical in both engines."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    from nacc_form_validator_ray.stages.kmeans import _quantize
    from nacc_form_validator_ray.stages.partition import grouped_apply

    empty = pd.DataFrame({
        "bucket": pd.Series([], dtype=np.int64),
        "n_pairs": pd.Series([], dtype=np.int64)})

    meta = pq.read_metadata(f"{sf_dir}/embeddings.parquet")
    off = meta.num_rows // 2
    if off == 0:
        return empty

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])

    def _proj(t: "pa.Table") -> "pa.Table":
        if not t.num_rows:
            return pa.table({
                "pid": pa.array([], pa.int64()),
                "side": pa.array([], pa.int8()),
                "v": pa.array([], pa.list_(pa.int64()))})
        vid = t["vec_id"].to_numpy(zero_copy_only=False)
        X = _quantize(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False)))
        lists = pa.FixedSizeListArray.from_arrays(
            pa.array(X.reshape(-1), pa.int64()), X.shape[1])
        hi = vid >= off
        return pa.table({
            "pid": pa.array(np.where(hi, vid - off, vid), pa.int64()),
            "side": pa.array(hi.astype(np.int8), pa.int8()),
            "v": lists.cast(pa.list_(pa.int64()))})

    tagged = ds.map_batches(_proj, batch_format="pyarrow")

    def hist_partial(part: pd.DataFrame) -> pd.DataFrame:
        empty_p = pd.DataFrame({
            "bucket": pd.Series([], dtype=np.int64),
            "n_pairs": pd.Series([], dtype=np.int64)})
        if part.empty:
            return empty_p
        side = part["side"].to_numpy(np.int8)
        pairs = pd.merge(
            part[side == 0][["pid", "v"]],
            part[side == 1][["pid", "v"]],
            on="pid", suffixes=("_a", "_b"))
        if pairs.empty:
            return empty_p
        A = np.stack(pairs["v_a"].to_numpy()).astype(np.int64)
        B = np.stack(pairs["v_b"].to_numpy()).astype(np.int64)
        dot = (A * B).sum(axis=1)
        na = (A * A).sum(axis=1)
        nb = (B * B).sum(axis=1)
        nn = na * nb
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where(nn > 0,
                           dot.astype(np.float64)
                           / np.sqrt(nn.astype(np.float64)), 0.0)
        bucket = np.floor(cos * _COS_BUCKETS + 0.5).astype(np.int64)
        df = pd.DataFrame({"bucket": bucket, "n_pairs": 1})
        return df.groupby("bucket", as_index=False).sum()

    out = _merge_partials(
        grouped_apply(tagged, ["pid"], hist_partial,
                      num_partitions=16),
        ["bucket"], {"n_pairs": "sum"})
    if out.empty:
        return empty
    return pd.DataFrame({
        "bucket": out["bucket"].to_numpy(np.int64),
        "n_pairs": out["n_pairs"].to_numpy(np.int64)}) \
        .sort_values("bucket").reset_index(drop=True)


ST_QUERIES["cosine_null_histogram"] = q_cosine_null_histogram
ST_ORACLE_SQL["cosine_null_histogram"] = f"""
WITH n AS (SELECT count(*) // 2 AS off FROM embeddings),
q AS (SELECT vec_id,
             list_transform(embedding,
                 x -> floor(CAST(x AS DOUBLE) * {_COS_QUANT!r} + 0.5))
                 AS v
      FROM embeddings),
pair AS (
  SELECT a.v AS va, b.v AS vb
  FROM q a CROSS JOIN n JOIN q b ON b.vec_id = a.vec_id + n.off
  WHERE a.vec_id < n.off),
c AS (
  SELECT CASE WHEN list_dot_product(va, va)
                   * list_dot_product(vb, vb) > 0
              THEN list_dot_product(va, vb)
                   / sqrt(list_dot_product(va, va)
                          * list_dot_product(vb, vb))
              ELSE 0.0 END AS cos
  FROM pair)
SELECT CAST(floor(cos * {_COS_BUCKETS!r} + 0.5) AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM c GROUP BY bucket ORDER BY bucket
"""


# --------------------------------------------------------------------------
# Trigram stupid-backoff perplexity
# --------------------------------------------------------------------------

def q_trigram_backoff_ppl_docs(sf_dir: str):
    """Trigram stupid-backoff LM perplexity (Brants et al. 2007 — the
    web-scale scoring scheme that skips normalization): distributed
    unigram+bigram+trigram count exchange, broadcast artifact,
    actor-pool scoring (stages/perplexity.BackoffScorer). A document's
    first token scores on the smoothed unigram, its second on the
    bigram backoff level, the rest on ``c_tri/c_bi_ctx`` with
    alpha=0.4 backoff. Log-probs ride the 2^-20 grid, so per-doc sums
    are exact and order-independent at any partitioning."""
    from nacc_form_validator_ray.stages.perplexity import (
        BackoffScorer, train_backoff_model)
    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
    model = train_backoff_model(ds)
    scored = ds.map_batches(BackoffScorer,
                            fn_constructor_kwargs={"model": model},
                            batch_format="pyarrow", concurrency=(1, 4))
    return scored.select_columns(["doc_id", "log_ppl", "ppl_tokens",
                                  "unseen_trigrams"])


ST_QUERIES["trigram_backoff_ppl_docs"] = q_trigram_backoff_ppl_docs
# Twin rebuilds the trigram model in SQL: same token stream, same
# backoff CASE tree (identical operation order), same 2^-20 grid.
ST_ORACLE_SQL["trigram_backoff_ppl_docs"] = """
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
), tc AS (
  SELECT t1.tok AS w1, t2.tok AS w2, t3.tok AS w3,
         CAST(count(*) AS BIGINT) AS c
  FROM tok t3
  JOIN tok t2 ON t2.doc_id = t3.doc_id AND t2.i = t3.i - 1
  JOIN tok t1 ON t1.doc_id = t3.doc_id AND t1.i = t3.i - 2
  GROUP BY t1.tok, t2.tok, t3.tok
), lp AS (
  SELECT t.doc_id,
    floor(log2(
      CASE WHEN t.i = 1 THEN
        (u.c + 0.5) / (consts.total + 0.5 * (consts.v + 1))
      WHEN t.i = 2 THEN
        CASE WHEN b.c IS NOT NULL
             THEN CAST(b.c AS DOUBLE) / CAST(u1.c AS DOUBLE)
             ELSE 0.4 * ((u.c + 0.5)
                         / (consts.total + 0.5 * (consts.v + 1))) END
      ELSE
        CASE WHEN g.c IS NOT NULL
             THEN CAST(g.c AS DOUBLE) / CAST(bx.c AS DOUBLE)
             ELSE 0.4 * (CASE WHEN b.c IS NOT NULL
                  THEN CAST(b.c AS DOUBLE) / CAST(u1.c AS DOUBLE)
                  ELSE 0.4 * ((u.c + 0.5)
                       / (consts.total + 0.5 * (consts.v + 1)))
                  END) END
      END) * 1048576.0 + 0.5) / 1048576.0 AS lp,
    CASE WHEN t.i > 2 AND g.c IS NULL THEN 1 ELSE 0 END AS unseen
  FROM tok t
  CROSS JOIN consts
  JOIN uc u ON u.tok = t.tok
  LEFT JOIN tok p ON p.doc_id = t.doc_id AND p.i = t.i - 1
  LEFT JOIN uc u1 ON u1.tok = p.tok
  LEFT JOIN bc b ON b.w1 = p.tok AND b.w2 = t.tok
  LEFT JOIN tok p2 ON p2.doc_id = t.doc_id AND p2.i = t.i - 2
  LEFT JOIN bc bx ON bx.w1 = p2.tok AND bx.w2 = p.tok
  LEFT JOIN tc g ON g.w1 = p2.tok AND g.w2 = p.tok AND g.w3 = t.tok
), scored AS (
  SELECT doc_id, count(*) AS n, sum(lp) AS slp,
         CAST(sum(unseen) AS BIGINT) AS uns
  FROM lp GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(-slp / n, 0.0) AS log_ppl,
       CAST(coalesce(n, 0) AS BIGINT) AS ppl_tokens,
       coalesce(uns, 0) AS unseen_trigrams
FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
"""


# --------------------------------------------------------------------------
# Next-word top-1 accuracy per source
# --------------------------------------------------------------------------

def q_next_word_accuracy_by_source(sf_dir: str) -> pd.DataFrame:
    """Bigram-LM top-1 accuracy per source: the share of adjacent
    token pairs where the corpus-wide most-frequent continuation of
    w1 (ties lexicographic — next_word_top1's rule) actually follows —
    the predictability audit (templated spam scores near 1.0; natural
    prose sits far lower; a feed whose accuracy jumps between crawls
    changed its generator).

    Scale shape: per-batch (source, w1, w2, c) partials
    (``text_signals.ngram_counts`` keyed by source), ONE hash exchange
    on w1 ALONE — every continuation of a word co-locates, so each
    partition computes BOTH the corpus top-1 per w1 and the per-source
    correctness sums locally; only <= |sources|-row partials reach the
    driver. The accuracy is ONE double division over exact int64
    sums."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    empty = pd.DataFrame({
        "source": pd.Series([], dtype=object),
        "n_pairs": pd.Series([], dtype=np.int64),
        "n_correct": pd.Series([], dtype=np.int64),
        "accuracy": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "text"])

    def pair_partial(t: "pa.Table") -> "pa.Table":
        return ngram_counts(arrow_token_codes(t["text"]), 2,
                            by=t["source"]) \
            .rename_columns(["source", "w1", "w2", "c"])

    def acc_part(part: pd.DataFrame) -> pd.DataFrame:
        e = pd.DataFrame({"source": pd.Series([], dtype=object),
                          "n_pairs": pd.Series([], dtype=np.int64),
                          "n_correct": pd.Series([], dtype=np.int64)})
        if part.empty:
            return e
        sc = part.groupby(["source", "w1", "w2"],
                          as_index=False)["c"].sum()
        bc = sc.groupby(["w1", "w2"], as_index=False)["c"].sum()
        bc = bc.sort_values(["w1", "c", "w2"],
                            ascending=[True, False, True],
                            kind="stable")
        top1 = bc.drop_duplicates("w1", keep="first") \
            .set_index("w1")["w2"]
        hit = sc["w2"].to_numpy(object) \
            == top1.loc[sc["w1"]].to_numpy(object)
        out = pd.DataFrame({
            "source": sc["source"],
            "n_pairs": sc["c"].to_numpy(np.int64),
            "n_correct": np.where(hit, sc["c"], 0).astype(np.int64)})
        return out.groupby("source", as_index=False).sum()

    merged = _merge_partials(
        grouped_apply(
            ds.map_batches(pair_partial, batch_format="pyarrow"),
            ["w1"], acc_part, num_partitions=32),
        ["source"], {"n_pairs": "sum", "n_correct": "sum"})
    if merged.empty:
        return empty
    npair = merged["n_pairs"].to_numpy(np.int64)
    ncorr = merged["n_correct"].to_numpy(np.int64)
    return pd.DataFrame({
        "source": merged["source"],
        "n_pairs": npair,
        "n_correct": ncorr,
        "accuracy": ncorr.astype(np.float64)
        / npair.astype(np.float64)}) \
        .sort_values("source").reset_index(drop=True)


ST_QUERIES["next_word_accuracy_by_source"] = \
    q_next_word_accuracy_by_source
ST_ORACLE_SQL["next_word_accuracy_by_source"] = """
WITH t AS (
  SELECT source, regexp_extract_all(lower(text), '[a-z]+') AS toks
  FROM documents),
bg AS (
  SELECT source, toks[i] AS w1, toks[i + 1] AS w2
  FROM (SELECT source, toks, unnest(range(1, len(toks))) AS i FROM t)),
sc AS (SELECT source, w1, w2, CAST(count(*) AS BIGINT) AS c
       FROM bg GROUP BY source, w1, w2),
bc AS (SELECT w1, w2, CAST(sum(c) AS BIGINT) AS c
       FROM sc GROUP BY w1, w2),
top1 AS (SELECT w1, w2 FROM (
           SELECT w1, w2,
                  row_number() OVER (PARTITION BY w1
                                     ORDER BY c DESC, w2) AS rn
           FROM bc) WHERE rn = 1)
SELECT sc.source,
       CAST(sum(sc.c) AS BIGINT) AS n_pairs,
       CAST(sum(CASE WHEN sc.w2 = t1.w2 THEN sc.c ELSE 0 END)
            AS BIGINT) AS n_correct,
       CAST(sum(CASE WHEN sc.w2 = t1.w2 THEN sc.c ELSE 0 END)
            AS DOUBLE) / CAST(sum(sc.c) AS DOUBLE) AS accuracy
FROM sc JOIN top1 t1 USING (w1)
GROUP BY sc.source ORDER BY sc.source
"""


# --------------------------------------------------------------------------
# Character-distribution entropy per source
# --------------------------------------------------------------------------

def q_char_entropy_by_source(sf_dir: str) -> pd.DataFrame:
    """Entropy of the lowercase-letter (a-z, case-SENSITIVE) character
    distribution per source, in bits — the mojibake/encoding-noise
    audit at the character level (English prose sits near 4.1 bits;
    base64 blobs and URL soup push toward log2(26), single-character
    spam collapses toward 0).

    Scale shape: per-batch byte-level bincount over the zero-copy
    Arrow string buffer (no per-row loop — one composite
    (source, letter) bincount per batch), <= 26 x |sources| partial
    rows merged on the driver, grid-quantized p*log2(p) terms summed
    exactly (module float discipline)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    from nacc_form_validator_ray.stages.text_signals import \
        _buffer_view

    empty = pd.DataFrame({
        "source": pd.Series([], dtype=object),
        "n_letters": pd.Series([], dtype=np.int64),
        "entropy_bits": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "text"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        e = pd.DataFrame({"source": pd.Series([], dtype=object),
                          "ch": pd.Series([], dtype=object),
                          "n": pd.Series([], dtype=np.int64)})
        if not t.num_rows:
            return e
        arr = pc.fill_null(t["text"], "").combine_chunks()
        buf, off = _buffer_view(arr)
        if not len(buf):
            return e
        src_codes, su = pd.factorize(
            t["source"].to_numpy(zero_copy_only=False))
        rows_b = np.repeat(src_codes.astype(np.int64), np.diff(off))
        sel = (buf >= 97) & (buf <= 122)
        if not sel.any():
            return e
        comp = rows_b[sel] * 26 + (buf[sel].astype(np.int64) - 97)
        cnt = np.bincount(comp, minlength=len(su) * 26)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({
            "source": su[(nz // 26)],
            "ch": np.array([chr(97 + int(v)) for v in nz % 26],
                           dtype=object),
            "n": cnt[nz].astype(np.int64)})

    merged = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "ch"], {"n": "sum"})
    if merged.empty:
        return empty
    tot = merged.groupby("source", as_index=False)["n"].sum() \
        .rename(columns={"n": "tot"})
    tmap = dict(zip(tot["source"], tot["tot"]))
    n = merged["n"].to_numpy(np.int64)
    tt = np.array([tmap[s] for s in merged["source"]], dtype=np.int64)
    lg = np.floor(np.log2(n.astype(np.float64) / tt.astype(np.float64))
                  * _ENT_GRID + 0.5) / _ENT_GRID
    v = n.astype(np.float64) * lg       # exact 2^-20 multiples
    sv = pd.DataFrame({"source": merged["source"], "v": v}) \
        .groupby("source", as_index=False)["v"].sum()
    out = tot.merge(sv, on="source")
    ent = -(out["v"].to_numpy(np.float64)
            / out["tot"].to_numpy(np.float64))
    return pd.DataFrame({
        "source": out["source"],
        "n_letters": out["tot"].to_numpy(np.int64),
        "entropy_bits": ent}) \
        .sort_values("source").reset_index(drop=True)


ST_QUERIES["char_entropy_by_source"] = q_char_entropy_by_source
ST_ORACLE_SQL["char_entropy_by_source"] = f"""
WITH cnt AS (
  SELECT d.source, chr(CAST(l.x AS INTEGER)) AS ch,
         CAST(sum(length(coalesce(d.text, ''))
                  - length(replace(coalesce(d.text, ''),
                                   chr(CAST(l.x AS INTEGER)), ''))) AS BIGINT) AS n
  FROM documents d CROSS JOIN range(97, 123) l(x)
  GROUP BY d.source, chr(CAST(l.x AS INTEGER))),
nz AS (SELECT * FROM cnt WHERE n > 0),
t AS (SELECT source, CAST(sum(n) AS BIGINT) AS tot
      FROM nz GROUP BY source),
term AS (
  SELECT nz.source,
         nz.n * (floor(log2(CAST(nz.n AS DOUBLE)
                            / CAST(t.tot AS DOUBLE))
                       * {_ENT_GRID!r} + 0.5) / {_ENT_GRID!r}) AS v
  FROM nz JOIN t USING (source))
SELECT t.source, t.tot AS n_letters,
       -(sum(term.v) / CAST(t.tot AS DOUBLE)) AS entropy_bits
FROM term JOIN t USING (source)
GROUP BY t.source, t.tot
ORDER BY t.source
"""


# --------------------------------------------------------------------------
# Weekly churn
# --------------------------------------------------------------------------

#: integer week key: epoch microseconds // one week (positive epochs,
#: so numpy floor-division and DuckDB's truncating // agree)
_WEEK_US = 604_800_000_000


def q_churn_by_week(sf_dir: str) -> pd.DataFrame:
    """Weekly churn: for every epoch-week except the corpus' last, how
    many distinct users were active, how many of them are NOT active
    in the following week (churned), and the churn rate — the
    retention monitor's complement (cohort_retention tracks a cohort
    forward; churn reads each week's survival edge).

    Scale shape: per-batch DISTINCT (user, week) partials, ONE hash
    exchange on user_id (each user's week set co-locates, so the
    week+1 membership test is a local sorted-adjacency check — no
    self-join shuffle), <= |weeks|-row partials merged on the driver.
    The corpus' max week is excluded there (its 'next week' is beyond
    the data, not evidence of churn)."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    from nacc_form_validator_ray.stages.partition import grouped_apply

    empty = pd.DataFrame({
        "week": pd.Series([], dtype=np.int64),
        "n_active": pd.Series([], dtype=np.int64),
        "n_churned": pd.Series([], dtype=np.int64),
        "churn_rate": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts"])

    def uw_partial(t: "pa.Table") -> pd.DataFrame:
        if not t.num_rows:
            return pd.DataFrame({
                "user_id": pd.Series([], dtype=np.int64),
                "w": pd.Series([], dtype=np.int64)})
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        w = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64) // _WEEK_US
        uw = np.unique(np.stack([u, w], axis=1), axis=0)
        return pd.DataFrame({"user_id": uw[:, 0], "w": uw[:, 1]})

    def churn_part(part: pd.DataFrame) -> pd.DataFrame:
        e = pd.DataFrame({
            "w": pd.Series([], dtype=np.int64),
            "n_active": pd.Series([], dtype=np.int64),
            "n_churned": pd.Series([], dtype=np.int64)})
        if part.empty:
            return e
        uw = part.drop_duplicates(["user_id", "w"])
        u = uw["user_id"].to_numpy(np.int64)
        w = uw["w"].to_numpy(np.int64)
        order = np.lexsort((w, u))
        u, w = u[order], w[order]
        retained = np.zeros(len(u), dtype=bool)
        if len(u) > 1:
            retained[:-1] = (u[1:] == u[:-1]) & (w[1:] == w[:-1] + 1)
        df = pd.DataFrame({"w": w, "n_active": np.int64(1),
                           "n_churned":
                           (~retained).astype(np.int64)})
        return df.groupby("w", as_index=False).sum()

    merged = _merge_partials(
        grouped_apply(
            ds.map_batches(uw_partial, batch_format="pyarrow"),
            ["user_id"], churn_part, num_partitions=16),
        ["w"], {"n_active": "sum", "n_churned": "sum"})
    if merged.empty:
        return empty
    merged = merged.sort_values("w").reset_index(drop=True)
    merged = merged.iloc[:-1]       # the corpus' max week has no next
    if merged.empty:
        return empty
    na = merged["n_active"].to_numpy(np.int64)
    nc = merged["n_churned"].to_numpy(np.int64)
    return pd.DataFrame({
        "week": merged["w"].to_numpy(np.int64),
        "n_active": na,
        "n_churned": nc,
        "churn_rate": nc.astype(np.float64) / na.astype(np.float64)})


ST_QUERIES["churn_by_week"] = q_churn_by_week
ST_ORACLE_SQL["churn_by_week"] = f"""
WITH uw AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // {_WEEK_US} AS w
  FROM events),
mx AS (SELECT max(w) AS mw FROM uw),
c AS (
  SELECT a.user_id, a.w,
         CASE WHEN b.user_id IS NULL THEN 1 ELSE 0 END AS churned
  FROM uw a LEFT JOIN uw b
    ON b.user_id = a.user_id AND b.w = a.w + 1)
SELECT CAST(w AS BIGINT) AS week,
       CAST(count(*) AS BIGINT) AS n_active,
       CAST(sum(churned) AS BIGINT) AS n_churned,
       CAST(sum(churned) AS DOUBLE) / CAST(count(*) AS DOUBLE)
           AS churn_rate
FROM c CROSS JOIN mx WHERE w < mw
GROUP BY w ORDER BY w
"""


# --------------------------------------------------------------------------
# Keep rate by perplexity decile
# --------------------------------------------------------------------------

def q_keep_rate_by_ppl_decile(sf_dir: str,
                              ckpt_dir: str | None = None
                              ) -> pd.DataFrame:
    """Calibration of the heuristic rule stack against the LM signal:
    documents bucketed into exact NTILE(10) deciles of their
    interpolated-bigram log-perplexity (ties by doc_id), each decile's
    quality-filter keep rate — the cross-family audit behind 'is the
    rule stack just a noisy perplexity threshold?' (a monotone curve
    says the rules and the LM agree; a U-shape says the rules catch
    something perplexity misses).

    Scale shape: the bigram-perplexity operator and the rule-stack
    operator run as-is (each already scale-shaped), meet in ONE
    doc_id hash join, and the decile assignment is the global-ranking
    family's ONE range exchange (exact NTILE from the exchange's own
    stats); <= 10-row partials reach the driver. Twin: both full
    statements embed as NESTED-WITH subqueries (scopes are isolated,
    so their CTE names cannot collide) under one NTILE(10) window.

    ``ckpt_dir`` makes the two expensive upstream operators (the full
    bigram-LM pipeline, the full rule stack) resumable: each
    checkpoints to ``ckpt_dir/<stage>/`` parquet with a _DONE marker
    and a rerun resumes from the last completed stage
    (state/lineage.stage_checkpoint)."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines import queries as _Q
    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.ranking import global_rank
    from nacc_form_validator_ray.state.lineage import (input_key,
                                                       stage_checkpoint)

    key = input_key(sf_dir) if ckpt_dir else None
    ppl = stage_checkpoint(
        lambda: _Q.q_bigram_perplexity_docs(sf_dir)
        .select_columns(["doc_id", "log_ppl"]),
        ckpt_dir, "ppl", key)
    keep = stage_checkpoint(
        lambda: _Q.q_quality_filter(sf_dir)
        .select_columns(["doc_id", "passed"]),
        ckpt_dir, "keep", key)
    joined = hash_join(ppl, keep, on="doc_id", num_partitions=16)
    ranked = global_rank(joined, "log_ppl", tie_cols=["doc_id"],
                         num_partitions=16, ntile=10,
                         ntile_col="decile")

    def partial(t: "pa.Table") -> pd.DataFrame:
        if not t.num_rows:
            return pd.DataFrame({
                "decile": pd.Series([], dtype=np.int64),
                "n_docs": pd.Series([], dtype=np.int64),
                "n_kept": pd.Series([], dtype=np.int64)})
        df = pd.DataFrame({
            "decile": t["decile"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "n_docs": np.int64(1),
            "n_kept": t["passed"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})
        return df.groupby("decile", as_index=False).sum()

    out = _merge_partials(
        ranked.map_batches(partial, batch_format="pyarrow"),
        ["decile"], {"n_docs": "sum", "n_kept": "sum"})
    if out.empty:
        return pd.DataFrame({
            "decile": pd.Series([], dtype=np.int64),
            "n_docs": pd.Series([], dtype=np.int64),
            "n_kept": pd.Series([], dtype=np.int64),
            "keep_rate": pd.Series([], dtype=np.float64)})
    out = out.sort_values("decile").reset_index(drop=True)
    nd = out["n_docs"].to_numpy(np.int64)
    nk = out["n_kept"].to_numpy(np.int64)
    return pd.DataFrame({
        "decile": out["decile"].to_numpy(np.int64),
        "n_docs": nd,
        "n_kept": nk,
        "keep_rate": nk.astype(np.float64) / nd.astype(np.float64)})


def _sql_keep_rate_by_ppl_decile() -> str:
    from nacc_form_validator_ray.pipelines.queries import (
        SQL_BIGRAM_PERPLEXITY_DOCS, SQL_QUALITY_FILTER)
    return f"""
WITH ppl AS ({SQL_BIGRAM_PERPLEXITY_DOCS}),
keepv AS ({SQL_QUALITY_FILTER}),
j AS (
  SELECT p.doc_id, k.passed,
         ntile(10) OVER (ORDER BY p.log_ppl, p.doc_id) AS decile
  FROM ppl p JOIN keepv k USING (doc_id))
SELECT CAST(decile AS BIGINT) AS decile,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN passed THEN 1 ELSE 0 END) AS BIGINT)
           AS n_kept,
       CAST(sum(CASE WHEN passed THEN 1 ELSE 0 END) AS DOUBLE)
           / CAST(count(*) AS DOUBLE) AS keep_rate
FROM j GROUP BY decile ORDER BY decile
"""


ST_QUERIES["keep_rate_by_ppl_decile"] = q_keep_rate_by_ppl_decile
ST_ORACLE_SQL["keep_rate_by_ppl_decile"] = _sql_keep_rate_by_ppl_decile()
