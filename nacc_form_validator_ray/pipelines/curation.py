"""Curation / numerics operators, batch 22: a distributed PCA power
iteration, an int8 scalar-quantization error audit, MMR diversity
selection, and dyadic EWMA smoothing.

Same contract as ``pipelines/advanced.py`` / ``pipelines/mining.py``:
every operator is a Ray-Data-native pipeline (per-batch combiners +
at most one lean hash exchange, or a bounded driver-side model loop
like kmeans/PageRank) paired with a DuckDB oracle that reproduces
column names, dtypes and values bit-for-bit.

Float discipline (repo convention, see pipelines/mining.py): every
double that crosses the oracle boundary is ONE correctly-rounded IEEE
division over exactly-converted integers — never libm transcendentals.
Integer-division discipline (new here): DuckDB's ``//`` TRUNCATES
toward zero while Python's floors toward -inf, so every quotient in
this module is arranged over NON-NEGATIVE operands (where the two
agree) — negative numerators go through the explicit
``-((-a + b - 1) // b)`` floor identity on BOTH engines.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pandas as pd

CUR_QUERIES: Dict[str, object] = {}
CUR_ORACLE_SQL: Dict[str, str] = {}

#: linked-page queries registered here get their path-parameterized
#: twins through queries.flagship_oracles (same as MIN_LINKED_SQL)
CUR_LINKED_SQL: Dict[str, object] = {}


def _rd():
    import ray.data as rd
    return rd


# --------------------------------------------------------------------------
# PCA power iteration over the embedding Gram matrix
# --------------------------------------------------------------------------

#: quantization grid shared with the embedding family (advanced.GRAM_QUANT)
_PCA_SCALE = 4096
#: fixed power-iteration budget — like host_pagerank's 5 rounds, a fixed
#: chain keeps both engines on the identical arithmetic path. 64 rounds
#: reach cosine > 0.999 against the float eigensolve on the fixture's
#: narrow eigengap (top-2 ratio ~1.07 -> ~0.93^k decay); each twin
#: stage is a 3-CTE pass over d = 64 rows, so the chain stays cheap
_PCA_ROUNDS = 64


def _floor_div_signed(w: int, m: int) -> int:
    """floor(w * _PCA_SCALE / m) with m > 0, written over NON-NEGATIVE
    truncating divisions only, so DuckDB's ``//`` (truncation) and this
    expression agree sign-for-sign (module docstring)."""
    if w >= 0:
        return (w * _PCA_SCALE) // m
    return -(((-w) * _PCA_SCALE + m - 1) // m)


def q_pca_power_embeddings(sf_dir: str) -> pd.DataFrame:
    """Top principal direction of the embedding second-moment (Gram)
    matrix by ``_PCA_ROUNDS`` fixed power iterations — the distributed
    eigensolve behind PCA whitening / spectral embedding-quality audits
    (a corpus whose top component explains most of the Gram mass has
    collapsed embeddings).

    Exactness: the Gram matrix is the bit-exact integer
    ``embedding_gram`` (2^12 grid); the iteration runs on the driver in
    arbitrary-precision Python ints, renormalizing each round to the
    same grid with the explicit floor identity of the module docstring,
    so every intermediate is an integer both engines reproduce (the
    twin's HUGEINT CTE chain mirrors round for round).

    Scale shape: the ONLY distributed work is the Gram pass — one
    d x d int64 matmul per batch, d(d+1)/2 cells per partial, no
    exchange (see embedding_gram's bound note for d >~ 512). The
    iteration itself is O(rounds x d^2) driver arithmetic on 64x64
    numbers — the bounded-model-state pattern shared with kmeans and
    bpe_merges."""
    from nacc_form_validator_ray.pipelines.advanced import \
        q_embedding_gram

    g = q_embedding_gram(sf_dir)
    empty = pd.DataFrame({"dim": pd.Series([], dtype=np.int64),
                          "component": pd.Series([], dtype=np.int64)})
    if g.empty:
        return empty
    _, v = _power_iterate(g)
    return pd.DataFrame({"dim": np.arange(1, len(v) + 1,
                                          dtype=np.int64),
                         "component": np.array(v, dtype=np.int64)})


def _dense_gram(g: pd.DataFrame) -> List[List[int]]:
    """Upper-triangle (i, j, sum_xy) rows -> dense symmetric Python-int
    matrix (the driver-side model state; d is bounded, see the scale
    note on q_pca_power_embeddings)."""
    d = int(g["j"].max())
    G: List[List[int]] = [[0] * d for _ in range(d)]
    for i, j, s in zip(g["i"].to_numpy(np.int64),
                       g["j"].to_numpy(np.int64),
                       g["sum_xy"].to_numpy(np.int64)):
        G[i - 1][j - 1] = int(s)
        G[j - 1][i - 1] = int(s)
    return G


def _power_iterate(g: pd.DataFrame):
    """The exact _PCA_ROUNDS-round iteration shared by
    pca_power_embeddings and pca_explained_ratio (single-sourced so
    the two queries and their twins can never drift)."""
    G = _dense_gram(g)
    d = len(G)
    v: List[int] = [1] * d
    for _ in range(_PCA_ROUNDS):
        w = [sum(G[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in w)
        if m == 0:
            v = w
            continue
        v = [_floor_div_signed(x, m) for x in w]
    return G, v


def _sql_pca_power() -> str:
    from nacc_form_validator_ray.pipelines.advanced import \
        SQL_EMBEDDING_GRAM
    sql = f"""WITH gram AS MATERIALIZED ({SQL_EMBEDDING_GRAM}),
gs AS MATERIALIZED (SELECT i, j, sum_xy FROM gram
       UNION ALL
       SELECT j AS i, i AS j, sum_xy FROM gram WHERE i <> j),
v0 AS MATERIALIZED (SELECT DISTINCT i AS dim, CAST(1 AS HUGEINT) AS val FROM gs)"""
    for t in range(1, _PCA_ROUNDS + 1):
        p = t - 1
        sql += f""",
w{t} AS MATERIALIZED (SELECT gs.i AS dim,
                sum(CAST(gs.sum_xy AS HUGEINT) * v{p}.val) AS w
         FROM gs JOIN v{p} ON gs.j = v{p}.dim GROUP BY gs.i),
m{t} AS MATERIALIZED (SELECT max(abs(w)) AS m FROM w{t}),
v{t} AS MATERIALIZED (SELECT dim,
                CASE WHEN m{t}.m = 0 THEN w
                     WHEN w >= 0 THEN (w * {_PCA_SCALE}) // m{t}.m
                     ELSE -(((-w) * {_PCA_SCALE} + m{t}.m - 1) // m{t}.m)
                END AS val
         FROM w{t}, m{t})"""
    sql += (f"\nSELECT dim, CAST(val AS BIGINT) AS component "
            f"FROM v{_PCA_ROUNDS} ORDER BY dim")
    return sql


CUR_QUERIES["pca_power_embeddings"] = q_pca_power_embeddings
CUR_ORACLE_SQL["pca_power_embeddings"] = _sql_pca_power()


# --------------------------------------------------------------------------
# int8 scalar-quantization error audit
# --------------------------------------------------------------------------

#: int8 code range (0..255) — the standard SQ8 ANN storage format
_SQ8_LEVELS = 255


def q_sq8_quant_error(sf_dir: str) -> pd.DataFrame:
    """Per-dimension int8 scalar-quantization reconstruction audit —
    the report read before shipping an SQ8-compressed ANN index
    (per-dim min/max derive the scale/offset; the error says whether
    255 levels are enough or the dim needs per-cluster ranges).

    Semantics: components live on the repo 2^12 grid; codes are
    round-half-up ``(v - mn) * 255 / rng`` (exact: ``((v - mn) * 510 +
    rng) // (2 * rng)`` over non-negative ints); the error is the
    EXACT integer ``|255 * (v - mn) - code * rng|`` — the absolute
    reconstruction error scaled by 255 (grid units x 255), so no
    division happens until the single mean readout.

    Scale shape: pass 1 reduces to d-row (mn, mx) partials per batch
    (driver-merged); pass 2 broadcasts the 2d ints in the batch-fn
    closure and emits d-row (n, sum_err, max_err) partials — both
    passes stream, the driver merge is Python-int exact at any row
    count."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.similarity import \
        _matrix_from_arrow

    empty = pd.DataFrame({
        "dim": pd.Series([], dtype=np.int64),
        "mn": pd.Series([], dtype=np.int64),
        "mx": pd.Series([], dtype=np.int64),
        "n": pd.Series([], dtype=np.int64),
        "sum_abs_err_255": pd.Series([], dtype=np.int64),
        "max_abs_err_255": pd.Series([], dtype=np.int64),
        "mean_abs_err": pd.Series([], dtype=np.float64)})

    def _quant(t: "pa.Table") -> np.ndarray:
        x = _matrix_from_arrow(t["embedding"])
        return np.floor(x * _PCA_SCALE + 0.5).astype(np.int64)

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["embedding"])

    def minmax_partial(t: "pa.Table") -> pd.DataFrame:
        v = _quant(t)
        if v.shape[0] == 0:
            return pd.DataFrame({"dim": pd.Series([], dtype=np.int64),
                                 "mn": pd.Series([], dtype=np.int64),
                                 "mx": pd.Series([], dtype=np.int64)})
        d = v.shape[1]
        return pd.DataFrame({"dim": np.arange(1, d + 1, dtype=np.int64),
                             "mn": v.min(axis=0), "mx": v.max(axis=0)})

    mm = ds.map_batches(minmax_partial, batch_format="pyarrow") \
        .to_pandas()
    if mm.empty or "dim" not in mm.columns:
        return empty
    mm = mm.groupby("dim", as_index=False) \
        .agg(mn=("mn", "min"), mx=("mx", "max")).sort_values("dim")
    mn = mm["mn"].to_numpy(np.int64)
    rng = (mm["mx"] - mm["mn"]).to_numpy(np.int64)

    def err_partial(t: "pa.Table") -> pd.DataFrame:
        v = _quant(t)
        if v.shape[0] == 0:
            return pd.DataFrame({
                "dim": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64),
                "s": pd.Series([], dtype=np.int64),
                "mx": pd.Series([], dtype=np.int64)})
        d = v.shape[1]
        off = v - mn[None, :]
        # round-half-up code over non-negative ints; rng==0 dims get
        # code 0 / err 0 by construction (off == 0 everywhere)
        den = np.where(rng > 0, 2 * rng, 1)
        code = (off * (2 * _SQ8_LEVELS) + rng[None, :]) // den[None, :]
        err = np.abs(off * _SQ8_LEVELS - code * rng[None, :])
        return pd.DataFrame({
            "dim": np.arange(1, d + 1, dtype=np.int64),
            "n": np.full(d, v.shape[0], dtype=np.int64),
            "s": err.sum(axis=0),
            "mx": err.max(axis=0)})

    parts = ds.map_batches(err_partial, batch_format="pyarrow") \
        .to_pandas()
    if parts.empty or "dim" not in parts.columns:
        return empty
    rows = []
    for dim, grp in parts.groupby("dim", sort=True):
        # Python-int merge: exact at any row count
        n = sum(int(x) for x in grp["n"])
        s = sum(int(x) for x in grp["s"])
        mxe = max(int(x) for x in grp["mx"])
        i = int(dim) - 1
        rows.append((int(dim), int(mn[i]), int(mn[i] + rng[i]), n, s,
                     mxe, float(s) / float(n * _SQ8_LEVELS)))
    return pd.DataFrame(rows, columns=[
        "dim", "mn", "mx", "n", "sum_abs_err_255", "max_abs_err_255",
        "mean_abs_err"]).astype({
            "dim": np.int64, "mn": np.int64, "mx": np.int64,
            "n": np.int64, "sum_abs_err_255": np.int64,
            "max_abs_err_255": np.int64, "mean_abs_err": np.float64})


CUR_QUERIES["sq8_quant_error"] = q_sq8_quant_error
CUR_ORACLE_SQL["sq8_quant_error"] = f"""
WITH q AS (
  SELECT generate_subscripts(embedding, 1) AS dim,
         CAST(floor(unnest(embedding) * {_PCA_SCALE} + 0.5) AS BIGINT)
             AS v
  FROM embeddings),
mm AS (SELECT dim, min(v) AS mn, max(v) AS mx FROM q GROUP BY dim),
e AS (
  SELECT q.dim, mm.mn, mm.mx,
         CASE WHEN mm.mx = mm.mn THEN 0
              ELSE abs((q.v - mm.mn) * {_SQ8_LEVELS}
                       - (((q.v - mm.mn) * {2 * _SQ8_LEVELS}
                           + (mm.mx - mm.mn))
                          // (2 * (mm.mx - mm.mn)))
                         * (mm.mx - mm.mn))
         END AS err
  FROM q JOIN mm ON q.dim = mm.dim)
SELECT dim, mn, mx, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(err) AS BIGINT) AS sum_abs_err_255,
       CAST(max(err) AS BIGINT) AS max_abs_err_255,
       CAST(CAST(sum(err) AS BIGINT) AS DOUBLE)
           / CAST(count(*) * {_SQ8_LEVELS} AS DOUBLE) AS mean_abs_err
FROM e GROUP BY dim, mn, mx
"""


# --------------------------------------------------------------------------
# MMR (maximal marginal relevance) diversity selection
# --------------------------------------------------------------------------

#: selection budget; relevance anchor is the vec_id = 0 vector
_MMR_K = 8


def q_mmr_select_embeddings(sf_dir: str) -> pd.DataFrame:
    """Greedy maximal-marginal-relevance selection of ``_MMR_K``
    vectors (Carbonell & Goldstein 1998) — the diversity-aware data
    SELECTION operator (pure top-k by relevance picks near-duplicates;
    MMR penalizes each candidate by its similarity to what's already
    chosen). lambda = 1/2, so the argmax reduces to the INTEGER score
    ``rel(i) - max_{j in S} sim(i, j)`` on the 2^12 grid (the common
    factor cancels); relevance anchors on the vec_id = 0 vector,
    candidates are all other vectors.

    Scale shape: k passes over the corpus, each broadcasting the
    (<= k) x d selected matrix in the batch-fn closure; every batch
    emits ONE local-best row (argmax score, tiebreak min vec_id,
    carrying its quantized vector), the driver reduces blocks-many
    candidates — no exchange at all. The twin is a k-stage chained-CTE
    greedy (same pattern as bpe_merges' merge chain)."""
    import pyarrow.parquet as pq

    from nacc_form_validator_ray.stages.similarity import \
        _matrix_from_arrow

    empty = pd.DataFrame({"rank": pd.Series([], dtype=np.int64),
                          "vec_id": pd.Series([], dtype=np.int64),
                          "score": pd.Series([], dtype=np.int64)})
    anchor = pq.read_table(f"{sf_dir}/embeddings.parquet",
                           columns=["embedding"],
                           filters=[("vec_id", "==", 0)])
    if anchor.num_rows == 0:
        return empty
    qv = np.floor(_matrix_from_arrow(anchor["embedding"])[0]
                  * _PCA_SCALE + 0.5).astype(np.int64)

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    selected: List[tuple] = []   # (vec_id, quantized np vector)
    out_rows = []
    for rank in range(1, _MMR_K + 1):
        sel_ids = np.array([i for i, _ in selected], dtype=np.int64)
        smat = (np.stack([v for _, v in selected])
                if selected else None)

        def local_best(t, _sel_ids=sel_ids, _smat=smat):
            ids = t["vec_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            x = np.floor(_matrix_from_arrow(t["embedding"])
                         * _PCA_SCALE + 0.5).astype(np.int64)
            keep = ids != 0
            if len(_sel_ids):
                keep &= ~np.isin(ids, _sel_ids)
            if not keep.any():
                return pd.DataFrame({
                    "vec_id": pd.Series([], dtype=np.int64),
                    "score": pd.Series([], dtype=np.int64),
                    "vec": pd.Series([], dtype=object)})
            ids, x = ids[keep], x[keep]
            score = x @ qv
            if _smat is not None:
                score = score - (x @ _smat.T).max(axis=1)
            b = np.lexsort((ids, -score))[0]
            return pd.DataFrame({"vec_id": [ids[b]],
                                 "score": [score[b]],
                                 "vec": [x[b].tolist()]})

        cand = ds.map_batches(local_best, batch_format="pyarrow") \
            .to_pandas()
        if cand.empty or "vec_id" not in cand.columns or not len(cand):
            break
        cand = cand.sort_values(["score", "vec_id"],
                                ascending=[False, True], kind="stable")
        top = cand.iloc[0]
        selected.append((int(top["vec_id"]),
                         np.array(top["vec"], dtype=np.int64)))
        out_rows.append((rank, int(top["vec_id"]), int(top["score"])))
    if not out_rows:
        return empty
    return pd.DataFrame(out_rows, columns=["rank", "vec_id", "score"]) \
        .astype({"rank": np.int64, "vec_id": np.int64,
                 "score": np.int64})


def _sql_mmr() -> str:
    sql = f"""WITH qv AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(floor(unnest(embedding) * {_PCA_SCALE} + 0.5) AS BIGINT)
             AS v
  FROM embeddings),
rel AS MATERIALIZED (SELECT e.vec_id, CAST(sum(e.v * q.v) AS BIGINT) AS rel
        FROM qv e JOIN qv q ON e.i = q.i AND q.vec_id = 0
        WHERE e.vec_id <> 0 GROUP BY e.vec_id),
pick1 AS MATERIALIZED (SELECT vec_id, rel AS score FROM rel
          ORDER BY score DESC, vec_id LIMIT 1),
sel1 AS MATERIALIZED (SELECT vec_id FROM pick1)"""
    for t in range(2, _MMR_K + 1):
        p = t - 1
        sql += f""",
ms{t} AS MATERIALIZED (SELECT va AS vec_id, max(dp) AS msim FROM (
    SELECT e.vec_id AS va, s.vec_id AS vs,
           CAST(sum(e.v * s.v) AS BIGINT) AS dp
    FROM qv e JOIN qv s ON e.i = s.i
    WHERE s.vec_id IN (SELECT vec_id FROM sel{p})
      AND e.vec_id <> 0
      AND e.vec_id NOT IN (SELECT vec_id FROM sel{p})
    GROUP BY 1, 2) GROUP BY va),
pick{t} AS MATERIALIZED (SELECT r.vec_id, CAST(r.rel - m.msim AS BIGINT) AS score
            FROM rel r JOIN ms{t} m ON r.vec_id = m.vec_id
            ORDER BY score DESC, r.vec_id LIMIT 1),
sel{t} AS MATERIALIZED (SELECT vec_id FROM sel{p}
           UNION ALL SELECT vec_id FROM pick{t})"""
    parts = [f"SELECT CAST({t} AS BIGINT) AS rank, vec_id, score "
             f"FROM pick{t}" for t in range(1, _MMR_K + 1)]
    sql += "\n" + "\nUNION ALL\n".join(parts)
    return sql


CUR_QUERIES["mmr_select_embeddings"] = q_mmr_select_embeddings
CUR_ORACLE_SQL["mmr_select_embeddings"] = _sql_mmr()


# --------------------------------------------------------------------------
# dyadic EWMA smoothing over the event stream
# --------------------------------------------------------------------------

#: window length; weights are 2^(W-1-lag) — alpha = 1/2 exponential decay
_EWMA_W = 16


def q_ewma_value_events(sf_dir: str) -> pd.DataFrame:
    """Exponentially-weighted moving average of each event type's value
    stream — the standard monitoring smoother (EWMA control charts;
    trend lines that favor the recent signal). Weights are the DYADIC
    ladder 2^(W-1-lag) over the last ``_EWMA_W`` events (most recent
    weight ~ 1/2 of the mass, alpha = 1/2), so the weighted sum is an
    exact int64 and the EWMA is ONE correctly-rounded division by the
    exact denominator ``2^W - 2^(W-m)`` (m = available window rows —
    partial heads are normalized over the weights actually present).

    Scale shape: ONE hash exchange on event_type, then per-partition
    vectorized work — lexsort by (ts, event_id) and an int64
    ``np.convolve`` with the 16-tap kernel per type run (no per-row
    loop). Hot types are bounded by the window: a salted variant would
    only need the trailing W rows of the previous shard."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "event_type",
                                     "value"])
    kernel = (np.int64(1) << np.arange(_EWMA_W - 1, -1, -1,
                                       dtype=np.int64))

    def part(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in df.groupby("event_type", sort=False):
            g = g.sort_values(["ts", "event_id"], kind="stable")
            x = np.floor(g["value"].to_numpy(np.float64) * 100 + 0.5) \
                .astype(np.int64)
            num = np.convolve(x, kernel)[:len(x)]
            m = np.minimum(np.arange(len(x), dtype=np.int64) + 1,
                           _EWMA_W)
            den = (np.int64(1) << np.int64(_EWMA_W)) \
                - (np.int64(1) << (_EWMA_W - m))
            out.append(pd.DataFrame({
                "event_id": g["event_id"].to_numpy(np.int64),
                "event_type": g["event_type"].to_numpy(),
                "value_c": x,
                "ewma": num.astype(np.float64)
                / den.astype(np.float64)}))
        if not out:
            return pd.DataFrame({
                "event_id": pd.Series([], dtype=np.int64),
                "event_type": pd.Series([], dtype=str),
                "value_c": pd.Series([], dtype=np.int64),
                "ewma": pd.Series([], dtype=np.float64)})
        return pd.concat(out, ignore_index=True)

    res = grouped_apply(ds, ["event_type"], part,
                        num_partitions=16).to_pandas()
    if res.empty or "event_id" not in res.columns:
        return pd.DataFrame({
            "event_id": pd.Series([], dtype=np.int64),
            "event_type": pd.Series([], dtype=str),
            "value_c": pd.Series([], dtype=np.int64),
            "ewma": pd.Series([], dtype=np.float64)})
    return res


CUR_QUERIES["ewma_value_events"] = q_ewma_value_events
CUR_ORACLE_SQL["ewma_value_events"] = f"""
WITH v AS (
  SELECT event_id, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY ts, event_id) AS rn
  FROM events)
SELECT a.event_id, a.event_type, a.value_c,
       CAST(CAST(sum(b.value_c
                     * (CAST(1 AS BIGINT)
                        << ({_EWMA_W - 1} - (a.rn - b.rn))))
                 AS BIGINT) AS DOUBLE)
       / CAST((CAST(1 AS BIGINT) << {_EWMA_W})
              - (CAST(1 AS BIGINT)
                 << ({_EWMA_W} - least(a.rn, {_EWMA_W})))
              AS DOUBLE) AS ewma
FROM v a JOIN v b
  ON a.event_type = b.event_type
 AND b.rn BETWEEN a.rn - {_EWMA_W - 1} AND a.rn
GROUP BY a.event_id, a.event_type, a.value_c, a.rn
"""


# --------------------------------------------------------------------------
# batch 23: vocabulary frequency spectrum, shard-balance audit,
# Bloom false-positive audit, recrawl change detection
# --------------------------------------------------------------------------

#: Knuth multiplicative hash constants (same family as mining's
#: priority sampling; doc_id * KNUTH < 2^63 up to doc_id ~ 3.4e9 —
#: beyond that fold the id first, fixture ids are far inside)
_CUR_KNUTH = 2654435761
_CUR_MOD = 2147483647
_SHARD_P = 32


def q_vocab_freq_spectrum(sf_dir: str) -> pd.DataFrame:
    """Vocabulary frequency-of-frequencies spectrum (the Zipf / Heaps
    profile): how many distinct ``[a-z]+`` tokens occur with corpus
    count in each ``floor(log2(count))`` bucket, plus the occurrence
    mass per bucket — the tokenizer/vocab-sizing diagnostic (a healthy
    Zipf corpus shows geometrically decaying bucket populations; a
    bucket spike reveals templated spam or a truncated crawl).

    Scale shape: per-batch (token, c) combiners
    (``text_signals.ngram_counts``), ONE hash exchange on token so each
    token's counts merge fully inside one partition, then <= 64-row
    (bucket, tokens, occurrences) partials merged on the driver. The
    floor-log2 is the integer bit-length (advanced._floor_log2_u64),
    never float log2."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.advanced import \
        _floor_log2_u64
    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    empty = pd.DataFrame({
        "bucket": pd.Series([], dtype=np.int64),
        "n_tokens": pd.Series([], dtype=np.int64),
        "n_occurrences": pd.Series([], dtype=np.int64)})

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["text"])

    def count_partial(t: "pa.Table") -> "pa.Table":
        return ngram_counts(arrow_token_codes(t["text"])) \
            .rename_columns(["tok", "c"])

    def spectrum_partial(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return empty
        tot = part.groupby("tok", as_index=False)["c"].sum()
        c = tot["c"].to_numpy(np.int64)
        b = _floor_log2_u64(c.astype(np.uint64))
        df = pd.DataFrame({"bucket": b.astype(np.int64),
                           "n_tokens": 1, "n_occurrences": c})
        return df.groupby("bucket", as_index=False).sum()

    parts = grouped_apply(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["tok"], spectrum_partial, num_partitions=32).to_pandas()
    if parts.empty or "bucket" not in parts.columns:
        return empty
    out = parts.groupby("bucket", as_index=False).sum()
    return out.sort_values("bucket").reset_index(drop=True).astype({
        "bucket": np.int64, "n_tokens": np.int64,
        "n_occurrences": np.int64})


CUR_QUERIES["vocab_freq_spectrum"] = q_vocab_freq_spectrum
CUR_ORACLE_SQL["vocab_freq_spectrum"] = """
WITH t AS (SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                            '[a-z]+')) AS tok
           FROM documents),
c AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM t GROUP BY tok)
SELECT CAST(length(bin(c)) - 1 AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(c) AS BIGINT) AS n_occurrences
FROM c GROUP BY bucket
"""


def q_shard_balance_report(sf_dir: str) -> pd.DataFrame:
    """Planned-output-shard balance audit: route every document to its
    ``hash(doc_id) % 32`` shard and report each shard's document count
    and character mass — the report read BEFORE a 100-TB write to
    catch partition skew while it is still cheap (a shard holding 10x
    the mean chars will straggle the whole write; the fix is salting
    or a different key, and this table is the evidence).

    Scale shape: map-only per-batch combiners (32 rows each), driver
    merge of O(32 x blocks) rows — no exchange, no data movement; the
    audit costs one pruned column scan."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "n_chars"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if not len(did):
            return pd.DataFrame({
                "shard": pd.Series([], dtype=np.int64),
                "n_docs": pd.Series([], dtype=np.int64),
                "n_chars_total": pd.Series([], dtype=np.int64)})
        shard = ((did * np.int64(_CUR_KNUTH)) % np.int64(_CUR_MOD)) \
            % np.int64(_SHARD_P)
        df = pd.DataFrame({
            "shard": shard,
            "n_docs": np.ones(len(did), dtype=np.int64),
            "n_chars_total": t["n_chars"].to_numpy(
                zero_copy_only=False).astype(np.int64)})
        return df.groupby("shard", as_index=False).sum()

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["shard"], {"n_docs": "sum", "n_chars_total": "sum"})
    return out.sort_values("shard").reset_index(drop=True).astype({
        "shard": np.int64, "n_docs": np.int64,
        "n_chars_total": np.int64})


CUR_QUERIES["shard_balance_report"] = q_shard_balance_report
CUR_ORACLE_SQL["shard_balance_report"] = f"""
SELECT ((doc_id * {_CUR_KNUTH}) % {_CUR_MOD}) % {_SHARD_P} AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS n_chars_total
FROM documents GROUP BY shard
"""


#: audit-bloom geometry: deliberately small so the false-positive rate
#: is observable (and its growth with corpus size visible across SFs);
#: the production filter (stages/bloom.py) uses 2^23 bits and content
#: hashes — this audit models its math with SQL-reproducible hashes
_BF_BITS = 4096
_BF_MIXERS = (31337, 271829, 524287)


def q_bloom_fp_audit(sf_dir: str) -> pd.DataFrame:
    """Bloom-filter false-positive audit: build a k=3 filter from the
    EVEN doc_ids, probe it with the ODD doc_ids (disjoint by
    construction, so every hit is a false positive) and report the
    measured fp rate plus the bitmap load — the calibration readout
    behind stages/bloom.anti_join_bloom's shuffle-savings claim (fp
    rate is the fraction of non-matching rows that still ride the
    exact exchange; when the bitmap saturates, the prefilter stops
    paying).

    Hashes here are the SQL-reproducible Knuth family (the production
    filter's multiply-shift mixes work on raw string hashes DuckDB
    can't see); positions are ``(h * mixer) % n_bits`` over int64-safe
    ranges.

    Scale shape: build pass emits per-batch DISTINCT positions (<=
    n_bits rows); probe pass broadcasts the n_bits/8-byte bitmap in
    the closure and emits 2-int partials. Both passes stream; the
    driver state is the bitmap, never the keys."""
    import pyarrow as pa

    empty = pd.DataFrame({
        "n_build": pd.Series([], dtype=np.int64),
        "n_probe": pd.Series([], dtype=np.int64),
        "n_bits_set": pd.Series([], dtype=np.int64),
        "n_hits": pd.Series([], dtype=np.int64),
        "fp_rate": pd.Series([], dtype=np.float64)})

    def _h(did: np.ndarray) -> np.ndarray:
        return (did * np.int64(_CUR_KNUTH)) % np.int64(_CUR_MOD)

    def _pos(h: np.ndarray) -> np.ndarray:
        """(k, n) positions."""
        return np.stack([(h * np.int64(m)) % np.int64(_BF_BITS)
                         for m in _BF_MIXERS])

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id"])

    def build_partial(t: "pa.Table") -> pd.DataFrame:
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        did = did[did % 2 == 0]
        pos = (np.unique(_pos(_h(did))) if len(did) else
               np.empty(0, dtype=np.int64))
        # one sentinel row (pos = -1) carries this batch's build
        # count; position rows carry nb = 0. The driver separates
        # them by VALUE, not frame index, so any future filter/sort
        # of the partials cannot corrupt n_build (round-4 review)
        return pd.DataFrame({
            "pos": np.concatenate(
                [pos.astype(np.int64),
                 np.array([-1], dtype=np.int64)]),
            "nb": np.concatenate(
                [np.zeros(len(pos), dtype=np.int64),
                 np.array([len(did)], dtype=np.int64)])})

    built = ds.map_batches(build_partial,
                           batch_format="pyarrow").to_pandas()
    bitmap = np.zeros(_BF_BITS, dtype=bool)
    n_build = 0
    if len(built) and "pos" in built.columns:
        p = built["pos"].to_numpy(np.int64)
        bitmap[p[p >= 0]] = True
        n_build = int(built["nb"].sum())
    n_bits_set = int(bitmap.sum())

    def probe_partial(t: "pa.Table") -> pd.DataFrame:
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        did = did[did % 2 == 1]
        if not len(did):
            return pd.DataFrame({"n_probe": [0], "n_hits": [0]})
        hits = bitmap[_pos(_h(did))].all(axis=0)
        return pd.DataFrame({"n_probe": [int(len(did))],
                             "n_hits": [int(hits.sum())]})

    pr = ds.map_batches(probe_partial, batch_format="pyarrow") \
        .to_pandas()
    n_probe = int(pr["n_probe"].sum()) if len(pr) else 0
    n_hits = int(pr["n_hits"].sum()) if len(pr) else 0
    fp = float(n_hits) / float(n_probe) if n_probe else 0.0
    return pd.DataFrame({
        "n_build": [n_build], "n_probe": [n_probe],
        "n_bits_set": [n_bits_set], "n_hits": [n_hits],
        "fp_rate": [fp]}).astype({
            "n_build": np.int64, "n_probe": np.int64,
            "n_bits_set": np.int64, "n_hits": np.int64,
            "fp_rate": np.float64})


def _sql_bloom_fp() -> str:
    h = f"((doc_id * {_CUR_KNUTH}) % {_CUR_MOD})"
    pos_b = "\nUNION\n".join(
        f"SELECT (h * {m}) % {_BF_BITS} AS p FROM b"
        for m in _BF_MIXERS)
    probe_hit = " AND ".join(
        f"(h * {m}) % {_BF_BITS} IN (SELECT p FROM pos)"
        for m in _BF_MIXERS)
    return f"""
WITH b AS MATERIALIZED (SELECT {h} AS h FROM documents
                        WHERE doc_id % 2 = 0),
pos AS MATERIALIZED ({pos_b}),
pr AS MATERIALIZED (SELECT {h} AS h FROM documents
                    WHERE doc_id % 2 = 1),
hits AS (SELECT count(*) AS n FROM pr WHERE {probe_hit})
SELECT CAST((SELECT count(*) FROM b) AS BIGINT) AS n_build,
       CAST((SELECT count(*) FROM pr) AS BIGINT) AS n_probe,
       CAST((SELECT count(*) FROM pos) AS BIGINT) AS n_bits_set,
       CAST(hits.n AS BIGINT) AS n_hits,
       CASE WHEN (SELECT count(*) FROM pr) = 0 THEN 0.0
            ELSE CAST(hits.n AS DOUBLE)
                 / CAST((SELECT count(*) FROM pr) AS DOUBLE)
       END AS fp_rate
FROM hits
"""


CUR_QUERIES["bloom_fp_audit"] = q_bloom_fp_audit
CUR_ORACLE_SQL["bloom_fp_audit"] = _sql_bloom_fp()


def q_recrawl_change_report(sf_dir: str) -> pd.DataFrame:
    """Recrawl change detection per host: treat even doc_ids as crawl
    snapshot A and odd doc_ids as the recrawl B (the incremental_ingest
    convention); for every canonical URL present in BOTH snapshots,
    elect each side's min-doc_id representative and compare their page
    text — the change-rate report a crawler reads to schedule refresh
    frequency per site (a host whose pages never change can be
    recrawled monthly; a news host daily).

    Scale shape: ONE hash exchange on canonical URL (both snapshots
    ride it side-tagged — no broadcast, the corpus-sized side never
    ships twice), per-partition representative election + text compare
    emitting lean (host, both, changed) rows, then a tiny host-keyed
    grouped sum. Exactness: text comparison is byte equality; the
    change_rate is ONE exact-int division."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.webclean import \
        _normalize_url_array

    empty = pd.DataFrame({
        "host": pd.Series([], dtype=object),
        "n_urls_both": pd.Series([], dtype=np.int64),
        "n_changed": pd.Series([], dtype=np.int64),
        "change_rate": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "url", "text"])

    def add_norm(batch: "pa.Table") -> "pa.Table":
        url = batch["url"]
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        return pa.table({
            "doc_id": batch["doc_id"],
            "norm_url": _normalize_url_array(url, pc),
            "text": pc.fill_null(batch["text"], "")})

    def compare(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return pd.DataFrame({
                "host": pd.Series([], dtype=object),
                "n_urls_both": pd.Series([], dtype=np.int64),
                "n_changed": pd.Series([], dtype=np.int64)})
        part = part.assign(side=part["doc_id"].to_numpy(np.int64) % 2)
        # representative = min doc_id per (norm_url, side)
        rep = part.sort_values("doc_id", kind="stable") \
            .drop_duplicates(["norm_url", "side"], keep="first")
        a = rep[rep["side"] == 0][["norm_url", "text"]]
        b = rep[rep["side"] == 1][["norm_url", "text"]]
        both = a.merge(b, on="norm_url", suffixes=("_a", "_b"))
        if both.empty:
            return pd.DataFrame({
                "host": pd.Series([], dtype=object),
                "n_urls_both": pd.Series([], dtype=np.int64),
                "n_changed": pd.Series([], dtype=np.int64)})
        # host is embedded in the canonical url: https://<host><rest>
        host = both["norm_url"].str.extract(r"^https://([^/]*)",
                                            expand=False).fillna("")
        changed = (both["text_a"] != both["text_b"]).astype(np.int64)
        df = pd.DataFrame({"host": host, "n_urls_both": 1,
                           "n_changed": changed})
        return df.groupby("host", as_index=False).sum()

    parts = grouped_apply(
        ds.map_batches(add_norm, batch_format="pyarrow"),
        ["norm_url"], compare, num_partitions=32).to_pandas()
    if parts.empty or "host" not in parts.columns:
        return empty
    g = parts.groupby("host", as_index=False).sum()
    g["change_rate"] = g["n_changed"].to_numpy(np.float64) \
        / g["n_urls_both"].to_numpy(np.float64)
    return g.sort_values("host", kind="stable") \
        .reset_index(drop=True).astype({
            "n_urls_both": np.int64, "n_changed": np.int64,
            "change_rate": np.float64})


def sql_recrawl_change_report(path: str,
                              sql_url_norm: str | None = None) -> str:
    from nacc_form_validator_ray.pipelines.queries import \
        _sql_url_chain
    host = sql_url_norm.format(u="u")
    return f"""
WITH p AS (SELECT doc_id, coalesce(text, '') AS text,
                  {_sql_url_chain('url')} AS u
           FROM read_parquet('{path}')),
n AS (SELECT doc_id, text, doc_id % 2 AS side,
             'https://' || {host} ||
             regexp_replace(u, '^(?i:https?)://[^/?#]+', '')
                 AS norm_url
      FROM p),
rep AS (SELECT side, norm_url,
               min_by(text, doc_id) AS text
        FROM n GROUP BY side, norm_url),
pairs AS (SELECT a.norm_url, a.text AS ta, b.text AS tb
          FROM rep a JOIN rep b ON a.norm_url = b.norm_url
          WHERE a.side = 0 AND b.side = 1)
SELECT coalesce(regexp_extract(norm_url, '^https://([^/]*)', 1), '')
           AS host,
       CAST(count(*) AS BIGINT) AS n_urls_both,
       CAST(count(*) FILTER (ta <> tb) AS BIGINT) AS n_changed,
       CAST(count(*) FILTER (ta <> tb) AS DOUBLE)
           / CAST(count(*) AS DOUBLE) AS change_rate
FROM pairs GROUP BY host
"""


CUR_QUERIES["recrawl_change_report"] = q_recrawl_change_report
CUR_LINKED_SQL["recrawl_change_report"] = sql_recrawl_change_report


# --------------------------------------------------------------------------
# batch 24: MinHash estimator-accuracy audit, winsorization report
# --------------------------------------------------------------------------

#: signature length of the engine's MinHash family (stages/dedup)
_MH_K = 128


def q_minhash_estimate_error(sf_dir: str) -> pd.DataFrame:
    """MinHash ESTIMATOR accuracy audit: for every band-collision
    candidate pair, the signature-agreement estimate
    ``n_match / 128`` beside the EXACT shingle-set Jaccard and the
    absolute error — the readout that validates the near-dedup
    threshold choice (the banding collision count says *candidate*;
    this says how tight the underlying estimator actually is on YOUR
    corpus, which is what the threshold math assumes).

    Composes the oracled ``minhash_verify_pairs`` (exact Jaccard per
    candidate) with a signature pass over the involved documents only
    (pushed-down is_in filter — the candidate set is dup-rate-bounded,
    same plan note as the verify query). est and err are exact IEEE
    ops over exact ints (one division by 128, one subtraction), in the
    same order as the twin."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.mining import \
        q_minhash_verify_pairs
    from nacc_form_validator_ray.stages.dedup import MinHasher

    empty = pd.DataFrame({
        "id_a": pd.Series([], dtype=np.int64),
        "id_b": pd.Series([], dtype=np.int64),
        "n_bands": pd.Series([], dtype=np.int64),
        "jaccard": pd.Series([], dtype=np.float64),
        "n_match": pd.Series([], dtype=np.int64),
        "est_jaccard": pd.Series([], dtype=np.float64),
        "abs_err": pd.Series([], dtype=np.float64)})

    ver = q_minhash_verify_pairs(sf_dir)
    if ver.empty:
        return empty
    ids = np.unique(np.concatenate([ver["id_a"].to_numpy(np.int64),
                                    ver["id_b"].to_numpy(np.int64)]))
    docs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    hasher = MinHasher(k=_MH_K)

    def sigs(t: "pa.Table") -> pd.DataFrame:
        t = t.filter(pc.is_in(t["doc_id"], value_set=pa.array(ids)))
        df = t.to_pandas()
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "minhash": pd.Series([], dtype=object)})
        sig = hasher.signatures(df["text"])
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                             "minhash": list(sig)})

    # candidate-bounded signature table -> one (n_docs, 128) ndarray;
    # pair agreement is a positional row gather + vectorized compare
    # (no per-row Python, no driver dict — round-4 VERDICT item 6)
    inv = docs.map_batches(sigs, batch_format="pyarrow").to_pandas()
    sig_ids = inv["doc_id"].to_numpy(np.int64)
    order = np.argsort(sig_ids, kind="stable")
    sig_ids = sig_ids[order]
    sig_mat = np.stack(inv["minhash"].to_numpy()[order]) \
        .astype(np.int64) if len(inv) else \
        np.empty((0, _MH_K), np.int64)
    # the gather below reads a neighbour's row for an absent id
    missing = np.setdiff1d(ids, sig_ids)
    if len(missing):
        raise ValueError(f"verified pair ids not in documents: "
                         f"{missing[:20].tolist()}")
    pos_a = np.searchsorted(sig_ids, ver["id_a"].to_numpy(np.int64))
    pos_b = np.searchsorted(sig_ids, ver["id_b"].to_numpy(np.int64))
    n_match = (sig_mat[pos_a] == sig_mat[pos_b]).sum(axis=1) \
        .astype(np.int64)
    est = n_match.astype(np.float64) / float(_MH_K)
    out = ver.copy()
    out["n_match"] = n_match
    out["est_jaccard"] = est
    out["abs_err"] = np.abs(est - ver["jaccard"].to_numpy(np.float64))
    return out.astype({"n_match": np.int64,
                       "est_jaccard": np.float64,
                       "abs_err": np.float64})


def _sql_minhash_estimate_error() -> str:
    from nacc_form_validator_ray.pipelines.queries import (
        _sql_minhash_ctes, _sql_minhash_pairs, sql_minhash_verify_pairs)
    defs, pairs = _sql_minhash_ctes("documents", "doc_id",
                                    threshold=0.5)
    ver = sql_minhash_verify_pairs(_sql_minhash_pairs())
    return f"""
WITH {defs},
cand AS (SELECT CAST(id_a AS BIGINT) AS id_a,
                CAST(id_b AS BIGINT) AS id_b
         FROM {pairs}),
mtch AS (SELECT c.id_a, c.id_b,
                CAST(count(*) FILTER (sa.m = sb.m) AS BIGINT)
                    AS n_match
         FROM cand c
         JOIN mh_sig sa ON sa.mh_id = c.id_a
         JOIN mh_sig sb ON sb.mh_id = c.id_b AND sb.j = sa.j
         GROUP BY c.id_a, c.id_b),
ver AS ({ver})
SELECT v.id_a, v.id_b, v.n_bands, v.jaccard, m.n_match,
       CAST(m.n_match AS DOUBLE) / {float(_MH_K)} AS est_jaccard,
       abs(CAST(m.n_match AS DOUBLE) / {float(_MH_K)} - v.jaccard)
           AS abs_err
FROM ver v JOIN mtch m ON m.id_a = v.id_a AND m.id_b = v.id_b
"""


CUR_QUERIES["minhash_estimate_error"] = q_minhash_estimate_error
CUR_ORACLE_SQL["minhash_estimate_error"] = _sql_minhash_estimate_error()


def q_winsorize_events(sf_dir: str) -> pd.DataFrame:
    """Winsorization report per event type: the exact p05/p95 cents
    (index semantics of event_value_quantiles: sorted value at
    ``floor(q * (n-1))``), how many values each tail clips, and the
    winsorized sum — the robust-preprocessing readout (a type whose
    clipped mass is large is outlier-driven; feeding its raw mean to a
    model or alert is wrong).

    Scale shape: ONE hash exchange on event_type, per-partition sort +
    two index picks + vectorized clip aggregates (the quantile and the
    clip happen in the SAME partition pass — no second exchange, no
    broadcast-back; contrast user_outlier_events, whose z-score needs
    the two-pass stats broadcast because users number millions while
    event types stay bounded)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type", "value"])

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            batch["value"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        return pd.DataFrame({"event_type": batch["event_type"],
                             "cents": cents})

    def report(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for etype, g in part.groupby("event_type", sort=False):
            v = np.sort(g["cents"].to_numpy(np.int64))
            n = len(v)
            lo = int(v[int(np.floor(5 / 100.0 * (n - 1)))])
            hi = int(v[int(np.floor(95 / 100.0 * (n - 1)))])
            rows.append((etype, n, lo, hi,
                         int((v < lo).sum()), int((v > hi).sum()),
                         int(np.clip(v, lo, hi).sum())))
        return pd.DataFrame(rows, columns=[
            "event_type", "n", "p05_c", "p95_c", "n_clipped_lo",
            "n_clipped_hi", "winsorized_sum_c"])

    lean = ds.map_batches(to_cents, batch_format="pandas")
    out = grouped_apply(lean, ["event_type"], report,
                        num_partitions=4).to_pandas()
    if out.empty or "event_type" not in out.columns:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n": pd.Series([], dtype=np.int64),
            "p05_c": pd.Series([], dtype=np.int64),
            "p95_c": pd.Series([], dtype=np.int64),
            "n_clipped_lo": pd.Series([], dtype=np.int64),
            "n_clipped_hi": pd.Series([], dtype=np.int64),
            "winsorized_sum_c": pd.Series([], dtype=np.int64)})
    return out.astype({
        "n": np.int64, "p05_c": np.int64, "p95_c": np.int64,
        "n_clipped_lo": np.int64, "n_clipped_hi": np.int64,
        "winsorized_sum_c": np.int64})


CUR_QUERIES["winsorize_events"] = q_winsorize_events
CUR_ORACLE_SQL["winsorize_events"] = """
WITH c AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
), r AS (
  SELECT event_type, cents,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY cents) AS rn,
         count(*) OVER (PARTITION BY event_type) AS cnt
  FROM c
), q AS (
  SELECT event_type,
         min(cents) FILTER (rn - 1 = CAST(floor(0.05 * (cnt - 1))
                                          AS BIGINT)) AS lo,
         min(cents) FILTER (rn - 1 = CAST(floor(0.95 * (cnt - 1))
                                          AS BIGINT)) AS hi
  FROM r GROUP BY event_type
)
SELECT c.event_type, CAST(count(*) AS BIGINT) AS n,
       q.lo AS p05_c, q.hi AS p95_c,
       CAST(count(*) FILTER (c.cents < q.lo) AS BIGINT)
           AS n_clipped_lo,
       CAST(count(*) FILTER (c.cents > q.hi) AS BIGINT)
           AS n_clipped_hi,
       CAST(sum(least(greatest(c.cents, q.lo), q.hi)) AS BIGINT)
           AS winsorized_sum_c
FROM c JOIN q ON c.event_type = q.event_type
GROUP BY c.event_type, q.lo, q.hi
"""


# --------------------------------------------------------------------------
# batch 25: PCA explained-variance ratio, deterministic A/B lift report
# --------------------------------------------------------------------------


def q_pca_explained_ratio(sf_dir: str) -> pd.DataFrame:
    """Explained-variance readout of the top principal direction: the
    Rayleigh quotient of the converged power-iteration vector against
    the Gram trace — ``(v'Gv / v'v) / trace(G)`` is the fraction of
    total second-moment mass the top component carries. The
    embedding-collapse alarm (a healthy 64-dim embedding spreads mass;
    explained >> 1/d means the space degenerated).

    Exactness: v'Gv, v'v and trace(G) are exact integers (the shared
    ``_power_iterate`` state); each fits BIGINT while
    n x (4096 x max|x|)^2 x 4096^2 x d stays under 2^63 (fixture-safe;
    past ~10^7 rows re-scale the grid or return the ints unscaled and
    divide offline — the twin's HUGEINT sums are cast to BIGINT at the
    same boundary, keeping the DOUBLE conversions correctly rounded on
    both engines: DuckDB's HUGEINT->DOUBLE cast double-rounds, its
    BIGINT->DOUBLE does not). The ratio is
    ``double(v'Gv) / (double(v'v) * double(trace))`` in that order.

    Scale shape: identical to pca_power_embeddings (ONE Gram pass, no
    exchange, bounded driver model); the extra aggregates are O(d^2)
    driver arithmetic."""
    from nacc_form_validator_ray.pipelines.advanced import \
        q_embedding_gram

    empty = pd.DataFrame({
        "rayleigh_num": pd.Series([], dtype=np.int64),
        "v_norm": pd.Series([], dtype=np.int64),
        "trace": pd.Series([], dtype=np.int64),
        "explained_ratio": pd.Series([], dtype=np.float64)})
    g = q_embedding_gram(sf_dir)
    if g.empty:
        return empty
    G, v = _power_iterate(g)
    d = len(G)
    num = sum(v[i] * G[i][j] * v[j]
              for i in range(d) for j in range(d))
    vnorm = sum(x * x for x in v)
    trace = sum(G[i][i] for i in range(d))
    ratio = (float(num) / (float(vnorm) * float(trace))
             if vnorm and trace else 0.0)
    return pd.DataFrame({
        "rayleigh_num": [num], "v_norm": [vnorm], "trace": [trace],
        "explained_ratio": [ratio]}).astype({
            "rayleigh_num": np.int64, "v_norm": np.int64,
            "trace": np.int64, "explained_ratio": np.float64})


def _sql_pca_explained() -> str:
    base = _sql_pca_power()
    # strip the final SELECT; keep the WITH chain
    chain = base[:base.rindex("\nSELECT dim")]
    t = _PCA_ROUNDS
    return f"""{chain},
agg AS MATERIALIZED (
  SELECT CAST(sum(a.val * CAST(gs.sum_xy AS HUGEINT) * b.val)
              AS BIGINT) AS rayleigh_num
  FROM gs JOIN v{t} a ON gs.i = a.dim
          JOIN v{t} b ON gs.j = b.dim),
vn AS (SELECT CAST(sum(val * val) AS BIGINT) AS v_norm FROM v{t}),
tr AS (SELECT CAST(sum(sum_xy) AS BIGINT) AS trace
       FROM gram WHERE i = j)
SELECT agg.rayleigh_num, vn.v_norm, tr.trace,
       CASE WHEN vn.v_norm = 0 OR tr.trace = 0 THEN 0.0
            ELSE CAST(agg.rayleigh_num AS DOUBLE)
                 / (CAST(vn.v_norm AS DOUBLE)
                    * CAST(tr.trace AS DOUBLE))
       END AS explained_ratio
FROM agg, vn, tr
"""


CUR_QUERIES["pca_explained_ratio"] = q_pca_explained_ratio
CUR_ORACLE_SQL["pca_explained_ratio"] = _sql_pca_explained()


def q_ab_lift_report(sf_dir: str) -> pd.DataFrame:
    """Deterministic A/B experiment readout: users split 50/50 by the
    Knuth hash of user_id (content-stable — the same user lands in the
    same arm on every run and cluster size, the train_val_test_split
    property), then per arm: distinct users, events, purchases and the
    purchases-per-user rate — the canonical online-experiment summary
    (arm lift = rate_1/rate_0 - 1 derives off the two rows).

    Scale shape: ONE streaming pass with per-batch combiners for the
    event/purchase counts (2 rows each) plus per-batch DISTINCT
    (group, user) partials for the user counts — lean because the
    fixture's user universe is bounded; at 10^8+ users route the
    distinct through a user_id hash exchange (new_users_by_day's
    shape) — same result, |users| rows on the wire instead of the
    driver."""
    import pyarrow as pa

    empty = pd.DataFrame({
        "arm": pd.Series([], dtype=np.int64),
        "n_users": pd.Series([], dtype=np.int64),
        "n_events": pd.Series([], dtype=np.int64),
        "n_purchases": pd.Series([], dtype=np.int64),
        "purchases_per_user": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_type"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        uid = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if not len(uid):
            return pd.DataFrame({
                "arm": pd.Series([], dtype=np.int64),
                "user_id": pd.Series([], dtype=np.int64),
                "n_events": pd.Series([], dtype=np.int64),
                "n_purchases": pd.Series([], dtype=np.int64)})
        arm = ((uid * np.int64(_CUR_KNUTH)) % np.int64(_CUR_MOD)) % 2
        purch = (t["event_type"].to_numpy(zero_copy_only=False)
                 == "purchase").astype(np.int64)
        df = pd.DataFrame({"arm": arm, "user_id": uid,
                           "n_events": 1, "n_purchases": purch})
        return df.groupby(["arm", "user_id"], as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty or "arm" not in parts.columns:
        return empty
    per_user = parts.groupby(["arm", "user_id"], as_index=False).sum()
    g = per_user.groupby("arm", as_index=False).agg(
        n_users=("user_id", "size"),
        n_events=("n_events", "sum"),
        n_purchases=("n_purchases", "sum"))
    g["purchases_per_user"] = g["n_purchases"].to_numpy(np.float64) \
        / g["n_users"].to_numpy(np.float64)
    return g.sort_values("arm").reset_index(drop=True).astype({
        "arm": np.int64, "n_users": np.int64, "n_events": np.int64,
        "n_purchases": np.int64, "purchases_per_user": np.float64})


CUR_QUERIES["ab_lift_report"] = q_ab_lift_report
CUR_ORACLE_SQL["ab_lift_report"] = f"""
WITH u AS (
  SELECT ((user_id * {_CUR_KNUTH}) % {_CUR_MOD}) % 2 AS arm,
         user_id,
         CAST(count(*) AS BIGINT) AS n_events,
         CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT)
             AS n_purchases
  FROM events GROUP BY 1, 2)
SELECT arm, CAST(count(*) AS BIGINT) AS n_users,
       CAST(sum(n_events) AS BIGINT) AS n_events,
       CAST(sum(n_purchases) AS BIGINT) AS n_purchases,
       CAST(sum(n_purchases) AS DOUBLE)
           / CAST(count(*) AS DOUBLE) AS purchases_per_user
FROM u GROUP BY arm
"""


# --------------------------------------------------------------------------
# batch 26: dedup threshold sweep, shingle novelty curve, stopword
# ratio by language
# --------------------------------------------------------------------------

#: thresholds (percent) swept over the SAME banding run
_SWEEP_PCTS = (50, 60, 70, 80, 90)


def q_dedup_threshold_sweep(sf_dir: str) -> pd.DataFrame:
    """Near-dedup aggressiveness dial: from ONE MinHash banding run,
    how many candidate pairs survive each Jaccard threshold in
    ``_SWEEP_PCTS`` — the sweep an engineer reads before committing a
    threshold (each threshold maps to an integer min band-collision
    count, so the whole sweep reuses the 0.5-run's pair set; no
    re-hash, no re-exchange).

    The threshold -> min_bands map is computed ONCE in Python
    (min_bands_for_threshold) and embedded as integer literals in the
    twin, so float pow never decides a boundary on either engine."""
    from nacc_form_validator_ray.stages.dedup import (
        min_bands_for_threshold, minhash_candidate_pairs)

    docs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(docs, threshold=0.5).to_pandas()
    nb = (pairs["n_bands"].to_numpy(np.int64)
          if len(pairs) and "n_bands" in pairs.columns
          else np.empty(0, dtype=np.int64))
    rows = []
    for pct in _SWEEP_PCTS:
        minb = min_bands_for_threshold(pct / 100.0, 32, 4)
        rows.append((pct, minb, int((nb >= minb).sum())))
    return pd.DataFrame(rows, columns=["threshold_pct", "min_bands",
                                       "n_pairs"]).astype({
        "threshold_pct": np.int64, "min_bands": np.int64,
        "n_pairs": np.int64})


def _sql_dedup_threshold_sweep() -> str:
    from nacc_form_validator_ray.pipelines.queries import \
        _sql_minhash_ctes
    from nacc_form_validator_ray.stages.dedup import \
        min_bands_for_threshold
    defs, pairs = _sql_minhash_ctes("documents", "doc_id",
                                    threshold=0.5)
    vals = ", ".join(
        f"({pct}, {min_bands_for_threshold(pct / 100.0, 32, 4)})"
        for pct in _SWEEP_PCTS)
    return f"""
WITH {defs},
cand AS MATERIALIZED (SELECT n_bands FROM {pairs}),
thr AS (SELECT * FROM (VALUES {vals}) AS t(threshold_pct, min_bands))
SELECT CAST(thr.threshold_pct AS BIGINT) AS threshold_pct,
       CAST(thr.min_bands AS BIGINT) AS min_bands,
       CAST(count(cand.n_bands)
            FILTER (cand.n_bands >= thr.min_bands) AS BIGINT)
           AS n_pairs
FROM thr LEFT JOIN cand ON TRUE
GROUP BY thr.threshold_pct, thr.min_bands
"""


CUR_QUERIES["dedup_threshold_sweep"] = q_dedup_threshold_sweep
CUR_ORACLE_SQL["dedup_threshold_sweep"] = _sql_dedup_threshold_sweep()


def q_ngram_novelty_curve(sf_dir: str) -> pd.DataFrame:
    """Corpus novelty curve: distinct word-3-gram shingles (mod-P31
    hashed — the engine's shingle identity; collisions merge
    identically on both engines) bucketed by the doc_id DECILE of
    their FIRST occurrence — the saturation readout of a crawl (a
    corpus whose later deciles contribute almost no new shingles is
    recrawling itself; dedup budget goes where the curve is flat).

    Scale shape: per-batch (shingle_hash, min_doc) combiners, ONE hash
    exchange on the shingle hash (the same key the MinHash family
    exchanges), per-partition global-min + decile bincount partials,
    <= 10-row driver merge. The doc_id range arrives from a lean
    max pass."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.dedup import _shingle_hashes
    from nacc_form_validator_ray.stages.partition import grouped_apply

    empty = pd.DataFrame({
        "decile": pd.Series([], dtype=np.int64),
        "n_new_shingles": pd.Series([], dtype=np.int64)})

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
    mx = ds.map_batches(
        lambda t: pd.DataFrame({"m": [int(t["doc_id"].to_numpy(
            zero_copy_only=False).max())] if len(t) else []}),
        batch_format="pyarrow").to_pandas()
    if mx.empty or "m" not in mx.columns or not len(mx):
        return empty
    max_did = int(mx["m"].max())

    def partial(t: "pa.Table") -> pd.DataFrame:
        df = t.to_pandas()
        if df.empty:
            return pd.DataFrame({"h": pd.Series([], dtype=np.int64),
                                 "d": pd.Series([], dtype=np.int64)})
        owner, hashes = _shingle_hashes(df["text"], 3, len(df))
        if not len(hashes):
            return pd.DataFrame({"h": pd.Series([], dtype=np.int64),
                                 "d": pd.Series([], dtype=np.int64)})
        did = df["doc_id"].to_numpy(np.int64)[owner]
        g = pd.DataFrame({"h": hashes.astype(np.int64), "d": did})
        return g.groupby("h", as_index=False)["d"].min()

    def decile_partial(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return empty
        first = part.groupby("h", as_index=False)["d"].min()
        dec = (first["d"].to_numpy(np.int64) * 10) // (max_did + 1)
        ub, cnt = np.unique(dec, return_counts=True)
        return pd.DataFrame({"decile": ub.astype(np.int64),
                             "n_new_shingles": cnt.astype(np.int64)})

    parts = grouped_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["h"], decile_partial, num_partitions=32).to_pandas()
    if parts.empty or "decile" not in parts.columns:
        return empty
    out = parts.groupby("decile", as_index=False).sum()
    return out.sort_values("decile").reset_index(drop=True).astype({
        "decile": np.int64, "n_new_shingles": np.int64})


def _sql_ngram_novelty() -> str:
    from nacc_form_validator_ray.pipelines.queries import _sql_charfold
    from nacc_form_validator_ray.stages.dedup import (P31,
                                                      SHINGLE_FOLD_MULT,
                                                      TOKEN_FOLD_MULT)
    return f"""
WITH tok AS (
  SELECT doc_id,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
  FROM documents),
th AS (
  SELECT doc_id,
         list_transform(toks, t -> {_sql_charfold('t',
                                                  TOKEN_FOLD_MULT)})
             AS th
  FROM tok),
sh AS (
  SELECT doc_id,
         unnest(CASE WHEN len(th) >= 3
                THEN list_transform(range(1, len(th) - 1),
                     i -> ((th[i] * {SHINGLE_FOLD_MULT} + th[i+1])
                           % {P31} * {SHINGLE_FOLD_MULT} + th[i+2])
                          % {P31})
                ELSE CAST([] AS BIGINT[]) END) AS h
  FROM th),
fo AS (SELECT h, min(doc_id) AS first_doc FROM sh GROUP BY h),
mx AS (SELECT max(doc_id) AS m FROM documents)
SELECT (fo.first_doc * 10) // (mx.m + 1) AS decile,
       CAST(count(*) AS BIGINT) AS n_new_shingles
FROM fo, mx GROUP BY 1
"""


CUR_QUERIES["ngram_novelty_curve"] = q_ngram_novelty_curve
CUR_ORACLE_SQL["ngram_novelty_curve"] = _sql_ngram_novelty()


def q_stopword_ratio_by_lang(sf_dir: str) -> pd.DataFrame:
    """Micro-averaged stopword rate per declared language: total
    ``[a-z]+`` tokens, how many hit the language's OWN stopword bank,
    and their ratio — the per-language fluency calibration of the
    quality filter (a language whose crawl runs far below its expected
    stopword rate is shipping keyword spam / boilerplate, not prose;
    micro-averaging keeps the arithmetic to two int sums and ONE
    division — a mean of per-doc ratios would sum doubles in
    engine-dependent order).

    Scale shape: per-batch combiners — tokenize ONCE
    (dictionary-encoded), one np.isin per (lang bank x dictionary),
    |langs|-row partials; driver merges O(langs x blocks) rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.text_signals import (
        STOPWORDS, arrow_token_codes)

    empty = pd.DataFrame({
        "lang": pd.Series([], dtype=object),
        "n_docs": pd.Series([], dtype=np.int64),
        "n_tokens": pd.Series([], dtype=np.int64),
        "n_stopwords": pd.Series([], dtype=np.int64),
        "stopword_rate": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["text", "lang"])
    banks = {lang: np.asarray(sorted(ws), dtype=object)
             for lang, ws in STOPWORDS.items()}

    def partial(t: "pa.Table") -> pd.DataFrame:
        langs = pc.fill_null(t["lang"], "").to_numpy(
            zero_copy_only=False)
        codes, dictionary, tok_doc, _ = arrow_token_codes(t["text"])
        rows = []
        if dictionary is None or not len(codes):
            for lg in np.unique(langs):
                rows.append((lg, int((langs == lg).sum()), 0, 0))
            return pd.DataFrame(rows, columns=[
                "lang", "n_docs", "n_tokens", "n_stopwords"])
        toks = dictionary.to_numpy(zero_copy_only=False)
        tok_lang = langs[tok_doc]
        for lg in np.unique(langs):
            bank = banks.get(lg)
            sel = tok_lang == lg
            n_tok = int(sel.sum())
            if bank is None or not n_tok:
                n_stop = 0
            else:
                is_stop = np.isin(toks, bank)
                n_stop = int(is_stop[codes[sel]].sum())
            rows.append((lg, int((langs == lg).sum()), n_tok, n_stop))
        return pd.DataFrame(rows, columns=[
            "lang", "n_docs", "n_tokens", "n_stopwords"])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty or "lang" not in parts.columns:
        return empty
    g = parts.groupby("lang", as_index=False).sum()
    nt = g["n_tokens"].to_numpy(np.float64)
    ns = g["n_stopwords"].to_numpy(np.float64)
    g["stopword_rate"] = np.where(nt > 0, ns / np.where(nt > 0, nt, 1),
                                  0.0)
    return g.sort_values("lang", kind="stable") \
        .reset_index(drop=True).astype({
            "n_docs": np.int64, "n_tokens": np.int64,
            "n_stopwords": np.int64, "stopword_rate": np.float64})


def _sql_stopword_ratio() -> str:
    from nacc_form_validator_ray.stages.text_signals import STOPWORDS
    cases = " ".join(
        "WHEN '{}' THEN tok IN ({})".format(
            lang, ", ".join(f"'{w}'" for w in sorted(ws)))
        for lang, ws in STOPWORDS.items())
    return f"""
WITH d AS (
  SELECT coalesce(lang, '') AS lang,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z]+')
             AS toks
  FROM documents),
t AS (
  SELECT lang, unnest(toks) AS tok FROM d),
s AS (
  SELECT lang,
         CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(*) FILTER (CASE lang {cases} ELSE FALSE END)
              AS BIGINT) AS n_stopwords
  FROM t GROUP BY lang),
n AS (SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
      FROM d GROUP BY lang)
SELECT n.lang, n.n_docs,
       coalesce(s.n_tokens, 0) AS n_tokens,
       coalesce(s.n_stopwords, 0) AS n_stopwords,
       CASE WHEN coalesce(s.n_tokens, 0) = 0 THEN 0.0
            ELSE CAST(s.n_stopwords AS DOUBLE)
                 / CAST(s.n_tokens AS DOUBLE)
       END AS stopword_rate
FROM n LEFT JOIN s ON n.lang = s.lang
"""


CUR_QUERIES["stopword_ratio_by_lang"] = q_stopword_ratio_by_lang
CUR_ORACLE_SQL["stopword_ratio_by_lang"] = _sql_stopword_ratio()


# --------------------------------------------------------------------------
# batch 27: cross-split contamination audit, corpus length Gini
# --------------------------------------------------------------------------


def q_split_leakage_audit(sf_dir: str) -> pd.DataFrame:
    """Cross-split contamination audit: MinHash near-dup candidate
    pairs bucketed by the (train/val/test) split of EACH side — the
    leakage check every eval pipeline needs (a near-duplicate of a
    test document sitting in train silently inflates benchmarks; the
    hash split is content-stable, so only DEDUP can fix what this
    report finds).

    Composes the engine's banding run (threshold 0.5) with the
    train_val_test_split hash; the candidate set is dup-rate-bounded,
    so the split tagging is driver arithmetic — at corpus scale tag
    inside the pair-emitting partitions instead (same integer
    expression)."""
    from nacc_form_validator_ray.pipelines.queries import split_names_of
    from nacc_form_validator_ray.stages.dedup import \
        minhash_candidate_pairs

    empty = pd.DataFrame({
        "split_a": pd.Series([], dtype=object),
        "split_b": pd.Series([], dtype=object),
        "n_pairs": pd.Series([], dtype=np.int64)})
    docs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(docs, threshold=0.5).to_pandas()
    if pairs.empty or "id_a" not in pairs.columns:
        return empty

    # split mapping single-sourced with train_val_test_split: the
    # audit must always grade the split the engine actually assigns
    df = pd.DataFrame({
        "split_a": split_names_of(pairs["id_a"].to_numpy(np.int64)),
        "split_b": split_names_of(pairs["id_b"].to_numpy(np.int64)),
        "n_pairs": 1})
    return df.groupby(["split_a", "split_b"], as_index=False).sum() \
        .astype({"n_pairs": np.int64})


def _sql_split_leakage() -> str:
    from nacc_form_validator_ray.pipelines.queries import (
        _sql_minhash_ctes, sql_split_case)
    defs, pairs = _sql_minhash_ctes("documents", "doc_id",
                                    threshold=0.5)
    return f"""
WITH {defs},
cand AS MATERIALIZED (SELECT id_a, id_b FROM {pairs})
SELECT {sql_split_case('id_a')} AS split_a,
       {sql_split_case('id_b')} AS split_b,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM cand GROUP BY 1, 2
"""


CUR_QUERIES["split_leakage_audit"] = q_split_leakage_audit
CUR_ORACLE_SQL["split_leakage_audit"] = _sql_split_leakage()


def q_doc_len_gini(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of document length — the corpus-concentration
    readout (G near 0: uniform page sizes; near 1: a few giant
    documents carry the char mass — which skews packing, sampling
    weights and per-shard balance). Uses the classic rank formula
    ``G = 2*sum(r_i x_i) / (n*sum x) - (n+1)/n`` over the ASCENDING
    strict order (n_chars, doc_id DESC) — derived exactly from the
    engine's ONE-exchange global rank (ranked_docs ranks by n_chars
    DESC, doc_id: ascending rank = n + 1 - rank_desc, so no second
    sort happens).

    Exactness: n, sum x and sum r*x are exact ints (Python-int driver
    merge); the Gini is two correctly-rounded divisions and one
    subtraction in the same order as the twin. BIGINT bound: sum r*x
    <= n^2 * max_chars — past ~10^8 docs return the ints unscaled
    (they stay exact) and divide offline."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import q_ranked_docs

    empty_row = pd.DataFrame({
        "n": pd.Series([0], dtype=np.int64),
        "total_chars": pd.Series([0], dtype=np.int64),
        "sum_rank_chars": pd.Series([0], dtype=np.int64),
        "gini": pd.Series([0.0], dtype=np.float64)})

    ranked = q_ranked_docs(sf_dir)

    def partial(t: "pa.Table") -> pd.DataFrame:
        x = t["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        rd = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pd.DataFrame({"n": [len(x)], "sx": [int(x.sum())],
                             "srdx": [int((rd * x).sum())]})

    parts = ranked.map_batches(partial,
                               batch_format="pyarrow").to_pandas()
    if parts.empty or "n" not in parts.columns:
        return empty_row
    n = int(sum(int(v) for v in parts["n"]))
    sx = sum(int(v) for v in parts["sx"])
    srdx = sum(int(v) for v in parts["srdx"])
    if n == 0:
        return empty_row
    srx = (n + 1) * sx - srdx   # ascending-rank weighted sum
    # n > 0 but zero char mass (all-empty texts): the twin reports the
    # REAL row count with gini pinned to 0.0 — only the division is
    # guarded, not the whole row (round-4 review finding)
    if sx == 0:
        gini = 0.0
    else:
        gini = (float(2 * srx) / float(n * sx)
                - float(n + 1) / float(n))
    return pd.DataFrame({
        "n": [n], "total_chars": [sx], "sum_rank_chars": [srx],
        "gini": [gini]}).astype({
            "n": np.int64, "total_chars": np.int64,
            "sum_rank_chars": np.int64, "gini": np.float64})


CUR_QUERIES["doc_len_gini"] = q_doc_len_gini
CUR_ORACLE_SQL["doc_len_gini"] = """
WITH r AS (
  SELECT n_chars,
         row_number() OVER (ORDER BY n_chars, doc_id DESC) AS rk
  FROM documents),
a AS (SELECT CAST(count(*) AS BIGINT) AS n,
             CAST(coalesce(sum(n_chars), 0) AS BIGINT) AS sx,
             CAST(coalesce(sum(rk * n_chars), 0) AS BIGINT) AS srx
      FROM r)
SELECT n, sx AS total_chars, srx AS sum_rank_chars,
       CASE WHEN n = 0 OR sx = 0 THEN 0.0
            ELSE CAST(2 * srx AS DOUBLE) / CAST(n * sx AS DOUBLE)
                 - CAST(n + 1 AS DOUBLE) / CAST(n AS DOUBLE)
       END AS gini
FROM a
"""


# --------------------------------------------------------------------------
# batch 28: per-source curation scorecard (the dashboard composition)
# --------------------------------------------------------------------------


def q_source_scorecard(sf_dir: str) -> pd.DataFrame:
    """Per-source curation scorecard — ONE wide row per feed joining
    the four per-source audits a curator reads together: quality-filter
    keep rate, exact-dedup survivorship, language-ID drift and PII
    scrub volume. The dashboard that decides whether a feed stays in
    the mix (high dup + high mismatch + low keep = drop the feed, not
    the documents).

    Composes the oracled machinery: the keep flags are the SAME fused
    TextStats + rule-flag pass as keep_rate_by_length (grouped by
    source instead of length bucket); the other three columns come
    from the registered per-source reports. Each component is its own
    lean streaming pass; the join is |sources| rows on the driver."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.mining import \
        q_dedup_survivors_by_source
    from nacc_form_validator_ray.pipelines.queries import (
        _doc_rule_flags, _docs, _merge_partials,
        q_langid_mismatch_by_source, q_scrub_volume_by_source)
    from nacc_form_validator_ray.stages.text_signals import TextStats

    empty = pd.DataFrame({c: pd.Series([], dtype=t) for c, t in [
        ("source", object), ("n_docs", np.int64),
        ("n_kept", np.int64), ("keep_rate", np.float64),
        ("n_survivors", np.int64), ("dup_rate", np.float64),
        ("n_mismatch", np.int64), ("mismatch_rate", np.float64),
        ("n_redactions", np.int64), ("chars_removed", np.int64)]})

    ds = _docs(sf_dir, columns=["doc_id", "text", "source"])
    ds = ds.map_batches(TextStats(langid=True), batch_format="pyarrow",
                        batch_size=4096)

    def keep_partial(t) -> pd.DataFrame:
        flags = _doc_rule_flags(t)
        viol = np.zeros(t.num_rows, dtype=bool)
        for v in flags.values():
            viol |= v
        src = pc.fill_null(t["source"], "").to_numpy(
            zero_copy_only=False)
        df = pd.DataFrame({"source": src,
                           "n_docs": np.ones(len(src), dtype=np.int64),
                           "n_kept": (~viol).astype(np.int64)})
        return df.groupby("source", as_index=False).sum()

    keep = _merge_partials(ds.map_batches(keep_partial,
                                          batch_format="pyarrow"),
                           ["source"], {"n_docs": "sum",
                                        "n_kept": "sum"})
    if keep.empty:
        return empty
    keep["keep_rate"] = keep["n_kept"].to_numpy(np.float64) \
        / keep["n_docs"].to_numpy(np.float64)

    surv = q_dedup_survivors_by_source(sf_dir)[
        ["source", "n_survivors", "dup_rate"]]
    mis = q_langid_mismatch_by_source(sf_dir)[
        ["source", "n_mismatch", "mismatch_rate"]]
    scrub = q_scrub_volume_by_source(sf_dir)[
        ["source", "n_redactions", "chars_removed"]]
    out = keep.merge(surv, on="source").merge(mis, on="source") \
        .merge(scrub, on="source")
    return out.sort_values("source", kind="stable") \
        .reset_index(drop=True).astype({
            "n_docs": np.int64, "n_kept": np.int64,
            "keep_rate": np.float64, "n_survivors": np.int64,
            "dup_rate": np.float64, "n_mismatch": np.int64,
            "mismatch_rate": np.float64, "n_redactions": np.int64,
            "chars_removed": np.int64})


def _sql_source_scorecard() -> str:
    from nacc_form_validator_ray.pipelines.mining import MIN_ORACLE_SQL
    from nacc_form_validator_ray.pipelines.queries import (
        _SQL_FLAGS_PROLOGUE, SQL_LANGID_MISMATCH, _sql_scrub_volume)
    keep_sql = _SQL_FLAGS_PROLOGUE + """
, b AS (
  SELECT f.doc_id, coalesce(d.source, '') AS source,
         NOT (v_lang_pred OR v_mean_word_len OR v_n_words
              OR v_rep_3gram_ratio OR v_stop_ratio) AS kept
  FROM f JOIN documents d ON d.doc_id = f.doc_id
)
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (kept) AS BIGINT) AS n_kept,
       CAST(count(*) FILTER (kept) AS DOUBLE) / count(*) AS keep_rate
FROM b GROUP BY source
"""
    return f"""
SELECT k.source, k.n_docs, k.n_kept, k.keep_rate,
       s.n_survivors, s.dup_rate,
       m.n_mismatch, m.mismatch_rate,
       p.n_redactions, p.chars_removed
FROM ({keep_sql}) k
JOIN ({MIN_ORACLE_SQL["dedup_survivors_by_source"]}) s
  ON s.source = k.source
JOIN ({SQL_LANGID_MISMATCH}) m ON m.source = k.source
JOIN ({_sql_scrub_volume()}) p ON p.source = k.source
"""


CUR_QUERIES["source_scorecard"] = q_source_scorecard
CUR_ORACLE_SQL["source_scorecard"] = _sql_source_scorecard()


# --------------------------------------------------------------------------
# batch 29: classifier ROC points (model-vs-heuristic evaluation)
# --------------------------------------------------------------------------

#: interior decile thresholds swept over the logit distribution
_ROC_QS = (10, 20, 30, 40, 50, 60, 70, 80, 90)


def q_lr_roc_points(sf_dir: str) -> pd.DataFrame:
    """ROC curve of the LR quality classifier against the heuristic
    rule-stack labels: at each interior decile of the logit
    distribution (exact index semantics — the logit value at global
    rank ``floor(q*(n-1))``), the confusion counts of ``logit >=
    threshold`` vs the rule verdict, plus TPR/FPR — the
    model-replaces-heuristics evaluation every curation team runs
    before swapping a rule stack for a classifier.

    Thresholds are DATA-derived but literal-free: both engines pick
    them by the same global-rank index, so the twin needs no embedded
    constants. Scale shape: one lean count pass, one global-rank range
    exchange over (logit, doc_id), one confusion-combiner pass
    (9 x 4 ints per batch) — the count comes from parquet metadata
    (the fused stages are row-preserving), so the fused
    signals+logit map runs TWICE (rank pass + confusion pass; at
    corpus scale spill the lean fused projection to parquet once and
    feed both from it — the exact_dedup pin pattern)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import (
        _doc_rule_flags, _docs)
    from nacc_form_validator_ray.stages.classifier import LRScorer
    from nacc_form_validator_ray.stages.ranking import global_rank
    from nacc_form_validator_ray.stages.text_signals import TextStats

    empty = pd.DataFrame({c: pd.Series([], dtype=t) for c, t in [
        ("q_pct", np.int64), ("threshold_logit", np.int64),
        ("tp", np.int64), ("fp", np.int64), ("tn", np.int64),
        ("fn", np.int64), ("tpr", np.float64), ("fpr", np.float64)]})

    def fused_ds():
        ds = _docs(sf_dir, columns=["doc_id", "text"])
        ds = ds.map_batches(TextStats(langid=True),
                            batch_format="pyarrow", batch_size=4096)
        scorer = LRScorer()

        def fused(t: "pa.Table") -> "pa.Table":
            flags = _doc_rule_flags(t)
            viol = np.zeros(t.num_rows, dtype=bool)
            for v in flags.values():
                viol |= v
            scored = scorer(pa.table({"doc_id": t["doc_id"],
                                      "text": t["text"]}))
            return pa.table({
                "doc_id": t["doc_id"],
                "logit_q10": scored["logit_q10"],
                "truth": pa.array(~viol)})

        return ds.map_batches(fused, batch_format="pyarrow")

    # pass 1: n — the fused stages are row-preserving maps, so the
    # document count IS n; read it from parquet metadata instead of
    # running the langid+scorer pipeline a third time (round-4 review
    # finding)
    n = int(_docs(sf_dir, columns=["doc_id"]).count())
    if n == 0:
        return empty

    # pass 2: decile thresholds by exact global-rank index pick.
    # Keyed q -> rank (not rank -> q): on a tiny corpus several
    # deciles share one rank, and a rank-keyed dict would silently
    # drop all but one of them while the twin emits every q row.
    targets = {q: int(np.floor(q / 100.0 * (n - 1))) + 1
               for q in _ROC_QS}
    tset = np.unique(np.fromiter(targets.values(), dtype=np.int64))
    ranked = global_rank(fused_ds(), "logit_q10", tie_cols=["doc_id"],
                         descending=False, num_partitions=32)

    def pick(t: "pa.Table") -> pd.DataFrame:
        rk = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = np.isin(rk, tset)
        return pd.DataFrame({
            "rank": rk[m],
            "logit": t["logit_q10"].to_numpy(
                zero_copy_only=False).astype(np.int64)[m]})

    picks = ranked.map_batches(pick, batch_format="pyarrow") \
        .to_pandas()
    logit_at = {int(r["rank"]): int(r["logit"])
                for _, r in picks.iterrows()}
    thr = {q: logit_at[rk] for q, rk in targets.items()
           if rk in logit_at}

    # pass 3: confusion combiners per threshold
    qs = np.array(sorted(thr), dtype=np.int64)
    tvals = np.array([thr[int(q)] for q in qs], dtype=np.int64)

    def confusion(t: "pa.Table") -> pd.DataFrame:
        lg = t["logit_q10"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tr = t["truth"].to_numpy(zero_copy_only=False).astype(bool)
        pred = lg[None, :] >= tvals[:, None]        # (9, n)
        tp = (pred & tr[None, :]).sum(axis=1)
        fp = (pred & ~tr[None, :]).sum(axis=1)
        fn = (~pred & tr[None, :]).sum(axis=1)
        tn = (~pred & ~tr[None, :]).sum(axis=1)
        return pd.DataFrame({
            "q_pct": qs, "threshold_logit": tvals,
            "tp": tp.astype(np.int64), "fp": fp.astype(np.int64),
            "tn": tn.astype(np.int64), "fn": fn.astype(np.int64)})

    parts = fused_ds().map_batches(confusion,
                                   batch_format="pyarrow").to_pandas()
    g = parts.groupby(["q_pct", "threshold_logit"],
                      as_index=False).sum()
    pos = (g["tp"] + g["fn"]).to_numpy(np.float64)
    neg = (g["fp"] + g["tn"]).to_numpy(np.float64)
    g["tpr"] = np.where(pos > 0, g["tp"].to_numpy(np.float64)
                        / np.where(pos > 0, pos, 1), 0.0)
    g["fpr"] = np.where(neg > 0, g["fp"].to_numpy(np.float64)
                        / np.where(neg > 0, neg, 1), 0.0)
    return g.sort_values("q_pct").reset_index(drop=True).astype({
        "q_pct": np.int64, "threshold_logit": np.int64,
        "tp": np.int64, "fp": np.int64, "tn": np.int64,
        "fn": np.int64, "tpr": np.float64, "fpr": np.float64})


def _sql_lr_roc() -> str:
    from nacc_form_validator_ray.pipelines.queries import (
        _SQL_FLAGS_PROLOGUE, _sql_lr_score)
    truth_sql = _SQL_FLAGS_PROLOGUE + """
SELECT f.doc_id,
       NOT (v_lang_pred OR v_mean_word_len OR v_n_words
            OR v_rep_3gram_ratio OR v_stop_ratio) AS truth
FROM f
"""
    qs = ", ".join(f"({q})" for q in _ROC_QS)
    return f"""
WITH t AS ({truth_sql}),
s AS ({_sql_lr_score()}),
j AS (SELECT s.doc_id, s.logit_q10, t.truth
      FROM s JOIN t ON t.doc_id = s.doc_id),
r AS (SELECT logit_q10,
             row_number() OVER (ORDER BY logit_q10, doc_id) AS rn,
             count(*) OVER () AS cnt
      FROM j),
thr AS (SELECT q.q AS q_pct, min(r.logit_q10) AS threshold_logit
        FROM r JOIN (VALUES {qs}) AS q(q)
          ON r.rn - 1 = CAST(floor(q.q / 100.0 * (r.cnt - 1))
                             AS BIGINT)
        GROUP BY q.q)
SELECT thr.q_pct, thr.threshold_logit,
       CAST(count(*) FILTER (j.truth AND j.logit_q10
                             >= thr.threshold_logit) AS BIGINT) AS tp,
       CAST(count(*) FILTER (NOT j.truth AND j.logit_q10
                             >= thr.threshold_logit) AS BIGINT) AS fp,
       CAST(count(*) FILTER (NOT j.truth AND j.logit_q10
                             < thr.threshold_logit) AS BIGINT) AS tn,
       CAST(count(*) FILTER (j.truth AND j.logit_q10
                             < thr.threshold_logit) AS BIGINT) AS fn,
       CASE WHEN count(*) FILTER (j.truth) = 0 THEN 0.0
            ELSE CAST(count(*) FILTER (j.truth AND j.logit_q10
                      >= thr.threshold_logit) AS DOUBLE)
                 / CAST(count(*) FILTER (j.truth) AS DOUBLE)
       END AS tpr,
       CASE WHEN count(*) FILTER (NOT j.truth) = 0 THEN 0.0
            ELSE CAST(count(*) FILTER (NOT j.truth AND j.logit_q10
                      >= thr.threshold_logit) AS DOUBLE)
                 / CAST(count(*) FILTER (NOT j.truth) AS DOUBLE)
       END AS fpr
FROM j, thr GROUP BY thr.q_pct, thr.threshold_logit
"""


CUR_QUERIES["lr_roc_points"] = q_lr_roc_points
CUR_ORACLE_SQL["lr_roc_points"] = _sql_lr_roc()


# --------------------------------------------------------------------------
# batch 30: domain-shift KL, rule-vs-model kappa, term burstiness,
# cross-source near-dup matrix
# --------------------------------------------------------------------------

_KL_GRID = 1048576.0


def q_source_kl_divergence(sf_dir: str) -> pd.DataFrame:
    """Per-source unigram KL divergence from the whole-corpus unigram
    distribution, in bits — the domain-shift readout curation mixing
    decisions key on (a source whose KL is near 0 looks like the
    corpus; a high-KL source is topically distinct and its mixing
    weight matters).

    Exactness: KL(s) = sum_w (c_sw/T_s) * log2((c_sw*N)/(T_s*c_w)) is
    computed as ``(sum_w c_sw * lg_sw) / T_s`` — each ``lg`` rides the
    2^-20 grid (the perplexity trick), so every addend ``c_sw * lg`` is
    an exact multiple of 2^-20 and the distributed sum is
    order-independent; T_s divides ONCE at the end. Int64 bound:
    ``c_sw * N < 2^63`` (~3e9 tokens) — past that move both engines to
    the identical scaled formulation.

    Scale shape: one tokenizing pass emits (source, tok, c) partials
    (``text_signals.ngram_counts`` keyed by source, null as ''), ONE
    grouped exchange merges them; the vocabulary-bounded per-token
    corpus counts are pulled once and broadcast back (ray.put — the
    pmi/perplexity-model pattern) while KL accumulation stays
    distributed; per-source totals are a low-cardinality driver merge.
    """
    import ray
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import (
        _docs, _merge_partials)
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    empty = pd.DataFrame({
        "source": pd.Series([], dtype=object),
        "n_tokens": pd.Series([], dtype=np.int64),
        "kl_bits": pd.Series([], dtype=np.float64)})

    def count_partial(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc
        return ngram_counts(arrow_token_codes(t["text"]),
                            by=pc.fill_null(t["source"], "")) \
            .rename_columns(["source", "tok", "c"])

    ds = _docs(sf_dir, columns=["source", "text"])
    merged = grouped_agg_sum(
        ds.map_batches(count_partial, batch_format="pyarrow",
                       batch_size=4096), ["source", "tok"], ["c"])

    # vocabulary-bounded corpus table: c_w per token (one more lean
    # grouped exchange over the merged counts), pulled once
    corpus = grouped_agg_sum(merged, ["tok"], ["c"]).to_pandas()
    if corpus.empty or "tok" not in corpus.columns:
        return empty
    n_total = np.int64(corpus["c"].sum())

    totals = _merge_partials(
        merged.map_batches(
            lambda b: b.groupby("source", as_index=False)
            .agg(t=("c", "sum")), batch_format="pandas"),
        ["source"], {"t": "sum"})
    t_by_source = {str(r["source"]): np.int64(r["t"])
                   for _, r in totals.iterrows()}

    order = np.argsort(corpus["tok"].to_numpy(dtype=object),
                       kind="stable")
    lut_ref = ray.put((corpus["tok"].to_numpy(dtype=object)[order],
                       corpus["c"].to_numpy(np.int64)[order],
                       t_by_source, n_total))

    class KLPartial:
        def __init__(self, ref):
            self.toks, self.cw, self.t_by_source, self.n = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if not len(batch):
                return pd.DataFrame({
                    "source": pd.Series([], dtype=object),
                    "sv": pd.Series([], dtype=np.float64)})
            cs = batch["c"].to_numpy(np.int64)
            cw = self.cw[np.searchsorted(
                self.toks, batch["tok"].to_numpy(dtype=object))]
            ts = np.array([self.t_by_source[str(s)]
                           for s in batch["source"]], dtype=np.int64)
            ratio = (cs * self.n).astype(np.float64) \
                / (ts * cw).astype(np.float64)
            lg = np.floor(np.log2(ratio) * _KL_GRID + 0.5) / _KL_GRID
            v = cs.astype(np.float64) * lg      # exact 2^-20 multiples
            out = pd.DataFrame({"source": batch["source"], "sv": v})
            return out.groupby("source", as_index=False).agg(
                sv=("sv", "sum"))

    parts = _merge_partials(
        merged.map_batches(KLPartial, fn_constructor_kwargs={
            "ref": lut_ref}, batch_format="pandas",
            concurrency=(1, 8)),
        ["source"], {"sv": "sum"})
    parts["n_tokens"] = parts["source"].map(
        lambda s: int(t_by_source[str(s)])).astype(np.int64)
    parts["kl_bits"] = parts["sv"].to_numpy(np.float64) \
        / parts["n_tokens"].to_numpy(np.float64)
    return parts[["source", "n_tokens", "kl_bits"]] \
        .sort_values("source").reset_index(drop=True)


CUR_QUERIES["source_kl_divergence"] = q_source_kl_divergence
CUR_ORACLE_SQL["source_kl_divergence"] = """
WITH tok AS (
  SELECT coalesce(source, '') AS source,
         unnest(regexp_extract_all(lower(coalesce(text, '')), '[a-z]+'))
             AS tok
  FROM documents
), c AS (
  SELECT source, tok, CAST(count(*) AS BIGINT) AS cs
  FROM tok GROUP BY 1, 2
), ts AS (
  SELECT source, CAST(sum(cs) AS BIGINT) AS t FROM c GROUP BY source
), cw AS (
  SELECT tok, CAST(sum(cs) AS BIGINT) AS w FROM c GROUP BY tok
), n AS (
  SELECT CAST(sum(cs) AS BIGINT) AS n FROM c
), term AS (
  SELECT c.source,
         c.cs * (floor(log2(CAST(c.cs * n.n AS DOUBLE)
                            / CAST(ts.t * cw.w AS DOUBLE))
                       * 1048576.0 + 0.5) / 1048576.0) AS v
  FROM c
  CROSS JOIN n
  JOIN ts ON ts.source = c.source
  JOIN cw ON cw.tok = c.tok
)
SELECT term.source, ts.t AS n_tokens,
       sum(term.v) / CAST(ts.t AS DOUBLE) AS kl_bits
FROM term JOIN ts ON ts.source = term.source
GROUP BY term.source, ts.t
ORDER BY term.source
"""


def q_rule_classifier_kappa(sf_dir: str) -> pd.DataFrame:
    """Cohen's kappa between the heuristic rule-stack verdict and the
    LR classifier's verdict at the median logit — the
    chance-corrected agreement readout (accuracy alone overstates
    agreement when keep rates are skewed; kappa is what a curation
    team quotes before swapping the rule gate for the model).

    The threshold is data-derived but literal-free (the logit value at
    global rank ``floor(0.5*(n-1))``, same index semantics as
    lr_roc_points). Exactness: kappa is computed from EXACT integer
    confusion counts as ``(n*(tp+tn) - E) / (n*n - E)`` with
    ``E = (tp+fp)*(tp+fn) + (fn+tn)*(fp+tn)`` — one double division of
    two int64s (bound: n^2 < 2^63), identical in the twin; po/pe are
    each a single division too.

    Scale shape: metadata count, ONE global-rank range exchange over
    (logit, doc_id), one 4-int confusion-combiner pass."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import (
        _doc_rule_flags, _docs)
    from nacc_form_validator_ray.stages.classifier import LRScorer
    from nacc_form_validator_ray.stages.ranking import global_rank
    from nacc_form_validator_ray.stages.text_signals import TextStats

    empty = pd.DataFrame({c: pd.Series([], dtype=t) for c, t in [
        ("n", np.int64), ("threshold_logit", np.int64),
        ("tp", np.int64), ("fp", np.int64), ("tn", np.int64),
        ("fn", np.int64), ("po", np.float64), ("pe", np.float64),
        ("kappa", np.float64)]})

    def fused_ds():
        ds = _docs(sf_dir, columns=["doc_id", "text"])
        ds = ds.map_batches(TextStats(langid=True),
                            batch_format="pyarrow", batch_size=4096)
        scorer = LRScorer()

        def fused(t: "pa.Table") -> "pa.Table":
            flags = _doc_rule_flags(t)
            viol = np.zeros(t.num_rows, dtype=bool)
            for v in flags.values():
                viol |= v
            scored = scorer(pa.table({"doc_id": t["doc_id"],
                                      "text": t["text"]}))
            return pa.table({
                "doc_id": t["doc_id"],
                "logit_q10": scored["logit_q10"],
                "truth": pa.array(~viol)})

        return ds.map_batches(fused, batch_format="pyarrow")

    n = int(_docs(sf_dir, columns=["doc_id"]).count())
    if n == 0:
        return empty
    target = int(np.floor(0.5 * (n - 1))) + 1

    ranked = global_rank(fused_ds(), "logit_q10", tie_cols=["doc_id"],
                         descending=False, num_partitions=32)

    def pick(t: "pa.Table") -> pd.DataFrame:
        rk = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = rk == target
        return pd.DataFrame({"logit": t["logit_q10"].to_numpy(
            zero_copy_only=False).astype(np.int64)[m]})

    picks = ranked.map_batches(pick, batch_format="pyarrow") \
        .to_pandas()
    thr = int(picks["logit"].iloc[0])

    def confusion(t: "pa.Table") -> pd.DataFrame:
        lg = t["logit_q10"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tr = t["truth"].to_numpy(zero_copy_only=False).astype(bool)
        pred = lg >= thr
        return pd.DataFrame({
            "tp": [int((pred & tr).sum())],
            "fp": [int((pred & ~tr).sum())],
            "fn": [int((~pred & tr).sum())],
            "tn": [int((~pred & ~tr).sum())]})

    parts = fused_ds().map_batches(confusion,
                                   batch_format="pyarrow").to_pandas()
    tp, fp = int(parts["tp"].sum()), int(parts["fp"].sum())
    fn, tn = int(parts["fn"].sum()), int(parts["tn"].sum())
    e = (tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)
    po = float(tp + tn) / float(n)
    pe = float(e) / float(n * n)
    kappa = (float(n * (tp + tn) - e) / float(n * n - e)
             if n * n != e else 0.0)
    return pd.DataFrame({
        "n": [n], "threshold_logit": [thr], "tp": [tp], "fp": [fp],
        "tn": [tn], "fn": [fn], "po": [po], "pe": [pe],
        "kappa": [kappa]}).astype({
            "n": np.int64, "threshold_logit": np.int64,
            "tp": np.int64, "fp": np.int64, "tn": np.int64,
            "fn": np.int64, "po": np.float64, "pe": np.float64,
            "kappa": np.float64})


def _sql_kappa() -> str:
    from nacc_form_validator_ray.pipelines.queries import (
        _SQL_FLAGS_PROLOGUE, _sql_lr_score)
    truth_sql = _SQL_FLAGS_PROLOGUE + """
SELECT f.doc_id,
       NOT (v_lang_pred OR v_mean_word_len OR v_n_words
            OR v_rep_3gram_ratio OR v_stop_ratio) AS truth
FROM f
"""
    return f"""
WITH t AS ({truth_sql}),
s AS ({_sql_lr_score()}),
j AS (SELECT s.doc_id, s.logit_q10, t.truth
      FROM s JOIN t ON t.doc_id = s.doc_id),
r AS (SELECT logit_q10,
             row_number() OVER (ORDER BY logit_q10, doc_id) AS rn,
             count(*) OVER () AS cnt
      FROM j),
thr AS (SELECT min(logit_q10) AS thr FROM r
        WHERE rn - 1 = CAST(floor(0.5 * (cnt - 1)) AS BIGINT)),
c AS (SELECT
    CAST(count(*) AS BIGINT) AS n,
    CAST(count(*) FILTER (j.truth AND j.logit_q10 >= thr.thr)
         AS BIGINT) AS tp,
    CAST(count(*) FILTER (NOT j.truth AND j.logit_q10 >= thr.thr)
         AS BIGINT) AS fp,
    CAST(count(*) FILTER (NOT j.truth AND j.logit_q10 < thr.thr)
         AS BIGINT) AS tn,
    CAST(count(*) FILTER (j.truth AND j.logit_q10 < thr.thr)
         AS BIGINT) AS fn,
    min(thr.thr) AS thr
  FROM j, thr)
SELECT n, CAST(thr AS BIGINT) AS threshold_logit, tp, fp, tn, fn,
       CAST(tp + tn AS DOUBLE) / CAST(n AS DOUBLE) AS po,
       CAST((tp+fp)*(tp+fn) + (fn+tn)*(fp+tn) AS DOUBLE)
           / CAST(n * n AS DOUBLE) AS pe,
       CASE WHEN n*n = (tp+fp)*(tp+fn) + (fn+tn)*(fp+tn) THEN 0.0
            ELSE CAST(n*(tp+tn) - ((tp+fp)*(tp+fn) + (fn+tn)*(fp+tn))
                      AS DOUBLE)
                 / CAST(n*n - ((tp+fp)*(tp+fn) + (fn+tn)*(fp+tn))
                        AS DOUBLE)
       END AS kappa
FROM c
"""


CUR_QUERIES["rule_classifier_kappa"] = q_rule_classifier_kappa
CUR_ORACLE_SQL["rule_classifier_kappa"] = _sql_kappa()


_BURST_K = 30


def q_term_burstiness(sf_dir: str) -> pd.DataFrame:
    """Church-Gale burstiness of the top corpus terms: the
    variance-to-mean ratio (VMR) of per-document term counts over ALL
    documents. Function words sit near VMR ~ 1 (Poisson — evenly
    spread); topical/bursty terms have VMR >> 1 (they pile up in few
    documents). The readout separates the two regimes — the signal
    stopword-list builders and keyword extractors key on.

    Exactness: a document lives entirely inside one batch, so per-doc
    term counts are complete per partial; sx = sum c_dt and
    sx2 = sum c_dt^2 are exact int64s merged by ONE grouped exchange;
    ``vmr = (D*sx2 - sx^2) / (D*sx)`` is a single double division of
    exact int64s (bound: D*sx2 < 2^63). Docs without the term
    contribute zero to both moments, so D is the metadata row count.
    Top-K selection is (c DESC, tok) with per-partition top-K before a
    driver merge — the merged table holds each token exactly once, so
    the per-partition cut preserves the global top-K."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import _docs
    from nacc_form_validator_ray.stages.partition import (grouped_agg_sum,
                                                          pa_grouped_agg)
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    empty = pd.DataFrame({
        "tok": pd.Series([], dtype=object),
        "c": pd.Series([], dtype=np.int64),
        "sum_sq": pd.Series([], dtype=np.int64),
        "vmr": pd.Series([], dtype=np.float64)})

    def moment_partial(t: "pa.Table") -> "pa.Table":
        # per-(doc, token) counts, then their sum and sum of squares
        dt = ngram_counts(arrow_token_codes(t["text"]),
                          by=pa.array(np.arange(t.num_rows)))
        m = pa.table({"tok": dt["w1"], "c": dt["count"],
                      "c2": pc.multiply(dt["count"], dt["count"])})
        return pa_grouped_agg(m, ["tok"], [("c", "sum"), ("c2", "sum")],
                              ["c", "c2"])

    ds = _docs(sf_dir, columns=["text"])
    n_docs = np.int64(ds.count())
    merged = grouped_agg_sum(
        ds.map_batches(moment_partial, batch_format="pyarrow",
                       batch_size=4096), ["tok"], ["c", "c2"])

    def topk(part: pd.DataFrame) -> pd.DataFrame:
        return part.sort_values(["c", "tok"],
                                ascending=[False, True]).head(_BURST_K)

    top = merged.map_batches(topk, batch_format="pandas").to_pandas()
    if top.empty or "tok" not in top.columns or n_docs == 0:
        return empty
    top = top.sort_values(["c", "tok"], ascending=[False, True]) \
        .head(_BURST_K).reset_index(drop=True)
    c = top["c"].to_numpy(np.int64)
    c2 = top["c2"].to_numpy(np.int64)
    vmr = (n_docs * c2 - c * c).astype(np.float64) \
        / (n_docs * c).astype(np.float64)
    return pd.DataFrame({"tok": top["tok"], "c": c, "sum_sq": c2,
                         "vmr": vmr}).astype({
                             "c": np.int64, "sum_sq": np.int64,
                             "vmr": np.float64})


CUR_QUERIES["term_burstiness"] = q_term_burstiness
CUR_ORACLE_SQL["term_burstiness"] = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(coalesce(text, '')), '[a-z]+'))
             AS tok
  FROM documents
), dt AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c
  FROM tok GROUP BY 1, 2
), m AS (
  SELECT tok, CAST(sum(c) AS BIGINT) AS c,
         CAST(sum(c * c) AS BIGINT) AS sum_sq
  FROM dt GROUP BY tok
), d AS (
  SELECT CAST(count(*) AS BIGINT) AS nd FROM documents
)
SELECT tok, c, sum_sq,
       CAST(nd * sum_sq - c * c AS DOUBLE)
           / CAST(nd * c AS DOUBLE) AS vmr
FROM m, d
ORDER BY c DESC, tok
LIMIT {_BURST_K}
"""


def q_source_leakage_matrix(sf_dir: str) -> pd.DataFrame:
    """MinHash near-dup candidate pairs bucketed by the (source_a,
    source_b) of each side — the cross-feed contamination matrix
    (which sources re-publish each other; a heavy off-diagonal cell
    means dedup must run ACROSS those feeds, not per-feed).

    Same banding run as split_leakage_audit (threshold 0.5); the
    candidate set is dup-rate-bounded. Source tagging streams the
    corpus once against a broadcast candidate-id set and collects only
    matching (doc_id, source) rows — never the whole id->source map."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.dedup import \
        minhash_candidate_pairs

    empty = pd.DataFrame({
        "source_a": pd.Series([], dtype=object),
        "source_b": pd.Series([], dtype=object),
        "n_pairs": pd.Series([], dtype=np.int64)})
    docs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(docs, threshold=0.5).to_pandas()
    if pairs.empty or "id_a" not in pairs.columns:
        return empty

    cand = np.unique(np.concatenate(
        [pairs["id_a"].to_numpy(np.int64),
         pairs["id_b"].to_numpy(np.int64)]))

    def tag(t: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        idx = np.searchsorted(cand, did)
        idx[idx >= len(cand)] = 0
        m = cand[idx] == did
        src = pc.fill_null(t["source"], "").to_numpy(
            zero_copy_only=False)
        return pd.DataFrame({"doc_id": did[m], "source": src[m]})

    srcs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "source"]) \
        .map_batches(tag, batch_format="pyarrow").to_pandas()
    lut = dict(zip(srcs["doc_id"].to_numpy(np.int64),
                   srcs["source"]))
    df = pd.DataFrame({
        "source_a": [lut[i] for i in pairs["id_a"].to_numpy(np.int64)],
        "source_b": [lut[i] for i in pairs["id_b"].to_numpy(np.int64)],
        "n_pairs": 1})
    return df.groupby(["source_a", "source_b"], as_index=False) \
        .sum().astype({"n_pairs": np.int64}) \
        .sort_values(["source_a", "source_b"]).reset_index(drop=True)


def _sql_source_leakage() -> str:
    from nacc_form_validator_ray.pipelines.queries import \
        _sql_minhash_ctes
    defs, pairs = _sql_minhash_ctes("documents", "doc_id",
                                    threshold=0.5)
    return f"""
WITH {defs},
cand AS MATERIALIZED (SELECT id_a, id_b FROM {pairs})
SELECT coalesce(da.source, '') AS source_a,
       coalesce(db.source, '') AS source_b,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM cand
JOIN documents da ON da.doc_id = cand.id_a
JOIN documents db ON db.doc_id = cand.id_b
GROUP BY 1, 2
ORDER BY 1, 2
"""


CUR_QUERIES["source_leakage_matrix"] = q_source_leakage_matrix
CUR_ORACLE_SQL["source_leakage_matrix"] = _sql_source_leakage()


# --------------------------------------------------------------------------
# batch 31: longest duplicated-span pairs, hapax ratio, epoch-schedule
# planner, daily-count autocorrelation, link rot after the C4 filter
# --------------------------------------------------------------------------

#: a run of >= 3 consecutive shared word-3-gram shingles == a shared
#: token span of >= 5 tokens — long enough to exclude single shared
#: boilerplate bigrams, short enough to catch one repeated sentence
_SPAN_MIN_RUN = 3
#: same per-host block cap as mining's containment pairs: the pair loop
#: is O(block^2) worst case, so cap at the smallest doc_ids and log
_SPAN_MAX_BLOCK = 4096


def q_dup_span_runs(sf_dir: str) -> pd.DataFrame:
    """Longest duplicated token SPAN per same-host page pair — the
    pairwise exact-substring audit that extends dup_ngram_spans from
    per-document coverage to per-pair span length (Lee et al. 2022's
    dedup acts on spans; this reports the longest one per pair, the
    number a reviewer reads to distinguish a shared sentence from a
    mirrored page).

    Semantics: tokens are ``[a-z0-9]+`` runs of the lowercased text
    (the containment-pairs contract); positional word-3-gram shingles
    match between two docs at offset diagonal ``d = pos_a - pos_b``;
    the longest run of CONSECUTIVE matching positions on any diagonal
    is the longest shared token span (``run + 2`` tokens). Pairs on
    the same normalized host with a run >= 3 shingles (>= 5 tokens)
    are reported.

    Scale shape: ONE hash exchange on host (grouped_apply), then a
    per-host inverted index shingle -> (doc, pos) emits only matching
    position pairs — docs sharing nothing never pair up. Blocks are
    capped at the ``_SPAN_MAX_BLOCK`` smallest doc_ids (logged), the
    same guard as containment_pairs_pages; hot hosts route through the
    exchange's heavy-key isolation if enabled upstream."""
    import logging
    import re

    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.partition import grouped_apply

    log = logging.getLogger(__name__)
    tok_re = re.compile(r"[a-z0-9]+")
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "url", "text"])

    def project(t) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "host": _host_of(t["url"], pc)
                .to_numpy(zero_copy_only=False),
            "text": t["text"].to_pandas()})

    empty = pd.DataFrame({
        "id_a": pd.Series([], dtype=np.int64),
        "id_b": pd.Series([], dtype=np.int64),
        "max_run_tokens": pd.Series([], dtype=np.int64)})

    def host_spans(part: pd.DataFrame) -> pd.DataFrame:
        pair_a, pair_b, pair_p = [], [], []
        for host, g in part.groupby("host", sort=False):
            g = g.sort_values("doc_id")
            if len(g) > _SPAN_MAX_BLOCK:
                log.warning(
                    "span block %r overflows max_block=%d (%d rows); "
                    "keeping the %d smallest ids",
                    host, _SPAN_MAX_BLOCK, len(g), _SPAN_MAX_BLOCK)
                g = g.head(_SPAN_MAX_BLOCK)
            if len(g) < 2:
                continue
            ids = g["doc_id"].to_numpy(np.int64)
            # inverted index: shingle -> [(doc_idx, pos)]
            index: dict = {}
            for di, txt in enumerate(g["text"]):
                toks = tok_re.findall((txt or "").lower())
                for p in range(len(toks) - 2):
                    sh = f"{toks[p]} {toks[p + 1]} {toks[p + 2]}"
                    index.setdefault(sh, []).append((di, p))
            for occ in index.values():
                if len(occ) < 2:
                    continue
                for ai in range(len(occ)):
                    da, pa_ = occ[ai]
                    for bi in range(len(occ)):
                        db, pb = occ[bi]
                        if da < db:
                            pair_a.append(ids[da] << 32 | ids[db])
                            pair_b.append(pa_ - pb)
                            pair_p.append(pa_)
        if not pair_a:
            return empty
        # islands: sort by (pair, diag, p); a row continues its run iff
        # the previous row is the same (pair, diag) and p_prev + 1 == p
        pk = np.asarray(pair_a, dtype=np.int64)
        dg = np.asarray(pair_b, dtype=np.int64)
        pp = np.asarray(pair_p, dtype=np.int64)
        order = np.lexsort((pp, dg, pk))
        pk, dg, pp = pk[order], dg[order], pp[order]
        new_run = np.ones(len(pk), dtype=bool)
        new_run[1:] = ((pk[1:] != pk[:-1]) | (dg[1:] != dg[:-1])
                       | (pp[1:] != pp[:-1] + 1))
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.append(starts, len(pk)))
        run_pair = pk[starts]
        best = pd.DataFrame({"pair": run_pair, "run": run_len}) \
            .groupby("pair", as_index=False)["run"].max()
        best = best[best["run"] >= _SPAN_MIN_RUN]
        if best.empty:
            return empty
        pair = best["pair"].to_numpy(np.int64)
        return pd.DataFrame({
            "id_a": (pair >> 32).astype(np.int64),
            "id_b": (pair & 0xFFFFFFFF).astype(np.int64),
            "max_run_tokens": (best["run"].to_numpy(np.int64) + 2)})

    out = grouped_apply(
        ds.map_batches(project, batch_format="pyarrow"),
        ["host"], host_spans, num_partitions=32).to_pandas()
    if "id_a" not in out.columns:
        return empty
    return out.astype({"id_a": np.int64, "id_b": np.int64,
                       "max_run_tokens": np.int64})


def sql_dup_span_runs(path: str, sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    return f"""
WITH pg AS (SELECT doc_id, url, text FROM read_parquet('{path}')),
h AS (SELECT doc_id, {host} AS host,
             regexp_extract_all(lower(coalesce(text, '')),
                                '[a-z0-9]+') AS toks
      FROM pg),
capped AS (
  SELECT doc_id, host, toks,
         row_number() OVER (PARTITION BY host ORDER BY doc_id) AS rn
  FROM h),
s AS (
  SELECT doc_id, host, t.i AS pos,
         toks[t.i] || ' ' || toks[t.i + 1] || ' ' || toks[t.i + 2] AS sh
  FROM capped, unnest(range(1, len(toks) - 1)) AS t(i)
  WHERE rn <= {_SPAN_MAX_BLOCK}),
m AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         a.pos - b.pos AS diag, a.pos AS p
  FROM s a JOIN s b
    ON a.host = b.host AND a.sh = b.sh AND a.doc_id < b.doc_id),
r AS (
  SELECT id_a, id_b,
         p - row_number() OVER (PARTITION BY id_a, id_b, diag
                                ORDER BY p) AS grp,
         diag
  FROM m),
runs AS (
  SELECT id_a, id_b, count(*) AS run
  FROM r GROUP BY id_a, id_b, diag, grp)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       CAST(max(run) + 2 AS BIGINT) AS max_run_tokens
FROM runs GROUP BY id_a, id_b
HAVING max(run) >= {_SPAN_MIN_RUN}
"""


CUR_QUERIES["dup_span_runs"] = q_dup_span_runs
CUR_LINKED_SQL["dup_span_runs"] = sql_dup_span_runs


def q_hapax_ratio_by_source(sf_dir: str) -> pd.DataFrame:
    """Hapax-legomena profile per source: total token occurrences,
    distinct vocabulary, hapax count (corpus frequency exactly 1
    WITHIN the source) and the hapax share of the vocabulary — the
    lexical-richness / OCR-noise audit (a feed whose hapax share
    spikes is shipping typos, mojibake or unsegmented strings; one
    whose share collapses is templated spam).

    Scale shape: per-batch (source, token, c) combiners
    (``text_signals.ngram_counts`` keyed by source), ONE
    hash exchange on token so each (source, token)'s counts merge
    fully inside one partition, then a <= |sources|-row partial per
    partition merged on the driver. The share is ONE correctly-rounded
    division over exact int64 (module float discipline)."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    empty = pd.DataFrame({
        "source": pd.Series([], dtype=object),
        "n_tokens": pd.Series([], dtype=np.int64),
        "n_distinct": pd.Series([], dtype=np.int64),
        "n_hapax": pd.Series([], dtype=np.int64),
        "hapax_share": pd.Series([], dtype=np.float64)})

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "text"])

    def count_partial(t: "pa.Table") -> "pa.Table":
        return ngram_counts(arrow_token_codes(t["text"]),
                            by=t["source"]) \
            .rename_columns(["source", "tok", "c"])

    def hapax_partial(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return pd.DataFrame({
                "source": pd.Series([], dtype=object),
                "n_tokens": pd.Series([], dtype=np.int64),
                "n_distinct": pd.Series([], dtype=np.int64),
                "n_hapax": pd.Series([], dtype=np.int64)})
        tot = part.groupby(["source", "tok"], as_index=False)["c"].sum()
        c = tot["c"].to_numpy(np.int64)
        df = pd.DataFrame({"source": tot["source"],
                           "n_tokens": c,
                           "n_distinct": np.int64(1),
                           "n_hapax": (c == 1).astype(np.int64)})
        return df.groupby("source", as_index=False).sum()

    parts = grouped_apply(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["tok"], hapax_partial, num_partitions=32).to_pandas()
    if parts.empty or "source" not in parts.columns:
        return empty
    out = parts.groupby("source", as_index=False).sum() \
        .sort_values("source").reset_index(drop=True)
    nd = out["n_distinct"].to_numpy(np.int64)
    nh = out["n_hapax"].to_numpy(np.int64)
    return pd.DataFrame({
        "source": out["source"],
        "n_tokens": out["n_tokens"].to_numpy(np.int64),
        "n_distinct": nd,
        "n_hapax": nh,
        "hapax_share": nh.astype(np.float64) / nd.astype(np.float64)})


CUR_QUERIES["hapax_ratio_by_source"] = q_hapax_ratio_by_source
CUR_ORACLE_SQL["hapax_ratio_by_source"] = """
WITH t AS (
  SELECT source,
         unnest(regexp_extract_all(lower(coalesce(text, '')),
                                   '[a-z]+')) AS tok
  FROM documents),
c AS (SELECT source, tok, count(*) AS c FROM t GROUP BY source, tok)
SELECT source,
       CAST(sum(c) AS BIGINT) AS n_tokens,
       CAST(count(*) AS BIGINT) AS n_distinct,
       CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_hapax,
       CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS DOUBLE)
           / CAST(count(*) AS DOUBLE) AS hapax_share
FROM c GROUP BY source ORDER BY source
"""


#: fixed planning budget (tokens): the mixture planner is exercised at
#: every scale factor with the same target, so epochs_ppm crosses 1e6
#: (multi-epoch) on small fixtures and falls below it on larger ones —
#: both sides of the planner's regime are tested
_EPOCH_BUDGET = 1_000_000


def q_epoch_schedule(sf_dir: str) -> pd.DataFrame:
    """Data-mixing epoch planner: given a total training token budget
    and a UNIFORM target mixture over sources, how many epochs of each
    source does the budget imply?  ``epochs_ppm = floor(share * 1e6 /
    available)`` — above 1e6 the source must repeat (upsampling, the
    signal data-constrained scaling laws warn about), below it the
    source is subsampled.  The budget's integer remainder goes to the
    lexicographically first sources, so the plan is deterministic and
    sums exactly to the budget.

    Scale shape: per-batch (source, n_tokens) combiners, a <=
    |sources|-row driver merge, integer planning on the driver — no
    exchange at all.  All arithmetic is non-negative int64 floor
    division (module integer-division discipline)."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.text_signals import \
        arrow_token_codes

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "text"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        _, dictionary, tok_doc, _ = arrow_token_codes(t["text"])
        src = t["source"].to_numpy(zero_copy_only=False)
        if dictionary is None or not len(tok_doc):
            return pd.DataFrame({"source": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        g = pd.DataFrame({"source": src[tok_doc], "n": np.int64(1)})
        return g.groupby("source", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    empty = pd.DataFrame({
        "source": pd.Series([], dtype=object),
        "available_tokens": pd.Series([], dtype=np.int64),
        "budget_share": pd.Series([], dtype=np.int64),
        "epochs_ppm": pd.Series([], dtype=np.int64)})
    if parts.empty:
        return empty
    avail = parts.groupby("source", as_index=False)["n"].sum()
    avail = avail[avail["n"] > 0].sort_values("source") \
        .reset_index(drop=True)
    if avail.empty:
        return empty
    ns = len(avail)
    base, rem = _EPOCH_BUDGET // ns, _EPOCH_BUDGET % ns
    share = np.full(ns, base, dtype=np.int64)
    share[:rem] += 1
    av = avail["n"].to_numpy(np.int64)
    return pd.DataFrame({
        "source": avail["source"],
        "available_tokens": av,
        "budget_share": share,
        "epochs_ppm": (share * 1_000_000) // av})


CUR_QUERIES["epoch_schedule"] = q_epoch_schedule
CUR_ORACLE_SQL["epoch_schedule"] = f"""
WITH t AS (
  SELECT source,
         len(regexp_extract_all(lower(coalesce(text, '')),
                                '[a-z]+')) AS n
  FROM documents),
a AS (SELECT source, CAST(sum(n) AS BIGINT) AS avail
      FROM t GROUP BY source HAVING sum(n) > 0),
s AS (SELECT count(*) AS ns FROM a),
r AS (SELECT source, avail,
             row_number() OVER (ORDER BY source) AS rk
      FROM a)
SELECT source,
       avail AS available_tokens,
       CAST({_EPOCH_BUDGET} // ns
            + CASE WHEN rk <= {_EPOCH_BUDGET} % ns THEN 1 ELSE 0 END
            AS BIGINT) AS budget_share,
       CAST((({_EPOCH_BUDGET} // ns
              + CASE WHEN rk <= {_EPOCH_BUDGET} % ns THEN 1 ELSE 0 END)
             * 1000000) // avail AS BIGINT) AS epochs_ppm
FROM r, s ORDER BY source
"""


#: autocorrelation horizon: one week of daily lags
_ACF_MAX_LAG = 7


def q_acf_daily_events(sf_dir: str) -> pd.DataFrame:
    """Autocorrelation of the daily event-count series at lags 1..7 —
    the seasonality/trend probe every ingestion monitor runs (a strong
    lag-7 peak is weekly rhythm; slowly decaying lags are trend or a
    crawler feedback loop).  Gap days count as ZERO events (the series
    is densified over [min_day, max_day], the gap_fill convention).

    EXACT: with m days, s = Σx, ss = Σx² and per-lag integer sums
    sxy/hk/tk, the estimator r_k = Σ(x_i-x̄)(x_{i+k}-x̄) / Σ(x_i-x̄)²
    cross-multiplies by m² to ``(m²·sxy - m·s·(hk+tk) + (m-k)·s²) /
    (m·(m·ss - s²))`` — all int64 (< 2^53 up to ~1e6 events/day-scale
    fixtures), ONE double division at the end, so numpy and DuckDB
    agree bit-for-bit (module float discipline).

    Scale shape: per-batch (day, n) combiner partials, one tiny driver
    merge (day cardinality is bounded by the calendar), driver-side
    integer math over m values."""
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"day": df["ts"].dt.normalize(),
                          "n": np.int64(1)})
        return g.groupby("day", as_index=False).sum()

    empty = pd.DataFrame({
        "lag_k": pd.Series([], dtype=np.int64),
        "acf": pd.Series([], dtype=np.float64)})
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return empty
    c = parts.groupby("day", as_index=False)["n"].sum() \
        .sort_values("day").reset_index(drop=True)
    full = pd.date_range(c["day"].iloc[0], c["day"].iloc[-1],
                         freq="D")
    x = c.set_index("day")["n"].reindex(full, fill_value=0) \
        .to_numpy(np.int64)
    xs = [int(v) for v in x]
    m, s, ss = len(xs), sum(xs), sum(v * v for v in xs)
    den = m * (m * ss - s * s)
    rows = []
    for k in range(1, _ACF_MAX_LAG + 1):
        if k >= m or den <= 0:
            continue
        sxy = sum(xs[i] * xs[i + k] for i in range(m - k))
        hk, tk = sum(xs[:m - k]), sum(xs[k:])
        num = m * m * sxy - m * s * (hk + tk) + (m - k) * s * s
        rows.append((k, float(num) / float(den)))
    if not rows:
        return empty
    return pd.DataFrame({
        "lag_k": np.asarray([r[0] for r in rows], dtype=np.int64),
        "acf": np.asarray([r[1] for r in rows], dtype=np.float64)})


CUR_QUERIES["acf_daily_events"] = q_acf_daily_events
CUR_ORACLE_SQL["acf_daily_events"] = f"""
WITH c AS (
  SELECT date_trunc('day', ts) AS day, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY day),
b AS (SELECT min(day) AS d0, max(day) AS d1 FROM c),
days AS (SELECT unnest(generate_series(d0, d1, INTERVAL 1 DAY)) AS day
         FROM b),
x AS (SELECT row_number() OVER (ORDER BY day) - 1 AS i,
             coalesce(n, 0) AS v
      FROM days LEFT JOIN c USING (day)),
g AS (SELECT CAST(count(*) AS BIGINT) AS m,
             CAST(sum(v) AS BIGINT) AS s,
             CAST(sum(v * v) AS BIGINT) AS ss
      FROM x),
l AS (SELECT unnest(range(1, {_ACF_MAX_LAG + 1})) AS k),
p AS (SELECT l.k,
             CAST(sum(a.v * b2.v) AS BIGINT) AS sxy,
             CAST(sum(a.v) AS BIGINT) AS hk,
             CAST(sum(b2.v) AS BIGINT) AS tk
      FROM l JOIN x a ON true JOIN x b2 ON b2.i = a.i + l.k
      GROUP BY l.k)
SELECT CAST(k AS BIGINT) AS lag_k,
       CAST(m * m * sxy - m * s * (hk + tk) + (m - k) * s * s
            AS DOUBLE)
         / CAST(m * (m * ss - s * s) AS DOUBLE) AS acf
FROM p, g
WHERE k < m AND m * ss - s * s > 0
"""


def q_link_rot_after_filter(sf_dir: str) -> pd.DataFrame:
    """Link rot induced by the quality filter: per source host, how
    many of its outbound links point at pages the C4 document filter
    DROPS — the graph-integrity audit run before using link structure
    (PageRank, harvest ratio) downstream of cleaning (a filter that
    rots 60% of a host's outlinks starves its neighborhood's rank
    mass).

    Scale shape: the keep side is the existing c4_line_filter stage
    projected to lean (doc_id, keep) rows; the link side flat-maps
    (url, links) to (src_host, target id) with Arrow kernels; ONE
    tag-union hash exchange joins them (stages.joins.hash_join — both
    sides are corpus-sized, so no broadcast), then per-batch (host,
    n, rot) combiners and a bounded driver merge.  The rate is ONE
    exact division."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.webclean import c4_line_filter

    lp = _linked_pages_path(sf_dir)

    keep = c4_line_filter(
        _rd().read_parquet(lp, columns=["doc_id", "text"])) \
        .map_batches(
            lambda t: t.select(["doc_id", "keep"])
                       .rename_columns(["tgt", "keep"]),
            batch_format="pyarrow")

    edge_schema = pa.schema([("src_host", pa.string()),
                             ("tgt", pa.int64())])

    def edges(t: "pa.Table") -> "pa.Table":
        src = _host_of(t["url"], pc)
        links = t["links"]
        if isinstance(links, pa.ChunkedArray):
            links = links.combine_chunks()
        flat = links.flatten()
        if len(flat) == 0:
            return edge_schema.empty_table()
        # parent index of each flattened link element
        counts = np.diff(links.offsets.to_numpy())
        parent = np.repeat(np.arange(len(links)), counts)
        tgt_s = pc.extract_regex(flat, r"/doc/(?P<id>[0-9]+)$")
        ok = pc.is_valid(tgt_s).to_numpy(zero_copy_only=False)
        if not ok.any():
            return edge_schema.empty_table()
        tgt = pc.cast(pc.struct_field(tgt_s.filter(pa.array(ok)), "id"),
                      pa.int64())
        src_np = src.to_numpy(zero_copy_only=False)
        return pa.table({
            "src_host": pa.array(src_np[parent[ok]], type=pa.string()),
            "tgt": tgt})

    link_ds = _rd().read_parquet(lp, columns=["url", "links"]) \
        .map_batches(edges, batch_format="pyarrow")

    joined = hash_join(link_ds, keep, on="tgt", how="inner",
                       num_partitions=32)

    def partial(t: "pa.Table") -> pd.DataFrame:
        df = pd.DataFrame({
            "src_host": t["src_host"].to_numpy(zero_copy_only=False),
            "n_links": np.int64(1),
            "n_rot": pc.invert(t["keep"]).to_numpy(
                zero_copy_only=False).astype(np.int64)})
        return df.groupby("src_host", as_index=False).sum()

    parts = joined.map_batches(partial,
                               batch_format="pyarrow").to_pandas()
    empty = pd.DataFrame({
        "src_host": pd.Series([], dtype=object),
        "n_links": pd.Series([], dtype=np.int64),
        "n_rot": pd.Series([], dtype=np.int64),
        "rot_rate": pd.Series([], dtype=np.float64)})
    if parts.empty or "src_host" not in parts.columns:
        return empty
    out = parts.groupby("src_host", as_index=False).sum() \
        .sort_values("src_host").reset_index(drop=True)
    nl = out["n_links"].to_numpy(np.int64)
    nr = out["n_rot"].to_numpy(np.int64)
    return pd.DataFrame({
        "src_host": out["src_host"],
        "n_links": nl, "n_rot": nr,
        "rot_rate": nr.astype(np.float64) / nl.astype(np.float64)})


def sql_link_rot_after_filter(path: str,
                              sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    return f"""
WITH pg AS (SELECT doc_id, url, text, links FROM read_parquet('{path}')),
lns AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), chr(10)))
             AS ln
  FROM pg),
flt AS (
  SELECT doc_id,
         (len(regexp_extract_all(ln, '\\S+')) >= 5
          AND regexp_matches(ln, '[.!?"]$')
          AND NOT contains(lower(ln), 'javascript')) AS keepln
  FROM lns),
agg AS (
  SELECT doc_id,
         sum(CASE WHEN keepln THEN 1 ELSE 0 END) AS n_kept
  FROM flt GROUP BY doc_id),
k AS (
  SELECT pg.doc_id,
         (coalesce(a.n_kept, 0) >= 3
          AND NOT contains(lower(pg.text), 'lorem ipsum')
          AND NOT contains(pg.text, '{{')) AS keep
  FROM pg JOIN agg a ON a.doc_id = pg.doc_id),
e AS (
  SELECT {host} AS src_host,
         TRY_CAST(regexp_extract(lk, '/doc/([0-9]+)$', 1) AS BIGINT)
             AS tgt
  FROM (SELECT url, unnest(links) AS lk FROM pg)),
j AS (SELECT src_host, keep FROM e JOIN k ON k.doc_id = e.tgt)
SELECT src_host,
       CAST(count(*) AS BIGINT) AS n_links,
       CAST(sum(CASE WHEN keep THEN 0 ELSE 1 END) AS BIGINT) AS n_rot,
       CAST(sum(CASE WHEN keep THEN 0 ELSE 1 END) AS DOUBLE)
         / CAST(count(*) AS DOUBLE) AS rot_rate
FROM j GROUP BY src_host ORDER BY src_host
"""


CUR_QUERIES["link_rot_after_filter"] = q_link_rot_after_filter
CUR_LINKED_SQL["link_rot_after_filter"] = sql_link_rot_after_filter


# --------------------------------------------------------------------------
# Product quantization (batch 36): per-subspace codebooks + encode audit
# --------------------------------------------------------------------------

#: M subspaces x K codes over the d=64 embedding — the standard PQ
#: geometry (Jegou et al. 2011, "Product Quantization for Nearest
#: Neighbor Search", IEEE TPAMI — public reference)
_PQ_M, _PQ_K = 4, 16
_PQ_SUBD = 16  # 64 // _PQ_M


def _pq_quant(t) -> "np.ndarray":
    """Embedding matrix on the repo 2^12 grid as int64 (shared with the
    PCA / SQ8 family above)."""
    from nacc_form_validator_ray.stages.similarity import \
        _matrix_from_arrow
    x = _matrix_from_arrow(t["embedding"])
    return np.floor(x * _PCA_SCALE + 0.5).astype(np.int64)


def _pq_seeds(sf_dir: str) -> "tuple[np.ndarray, np.ndarray]":
    """The K seed vectors = the K SMALLEST vec_ids (deterministic,
    order-independent): per-batch top-K partials -> driver merge of
    K x blocks rows — never a full sort, never a full materialize."""
    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])

    def topk(t) -> pd.DataFrame:
        vid = t["vec_id"].to_numpy(zero_copy_only=False)
        if len(vid) == 0:
            return pd.DataFrame({"vec_id": pd.Series([], dtype=np.int64)})
        q = _pq_quant(t)
        order = np.argsort(vid, kind="stable")[:_PQ_K]
        df = pd.DataFrame(q[order],
                          columns=[f"x{j}" for j in range(q.shape[1])])
        df.insert(0, "vec_id", vid[order])
        return df

    parts = ds.map_batches(topk, batch_format="pyarrow").to_pandas()
    if parts.empty or "x0" not in parts.columns:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0), np.int64)
    parts = parts.nsmallest(_PQ_K, "vec_id").sort_values("vec_id")
    if parts["vec_id"].duplicated().any():
        # the SQL twin seeds on DISTINCT vec_id and would double-count
        # duplicate rows' dims in its distance sums — refuse loudly
        # rather than trained-codebook divergence (review finding)
        raise ValueError("pq: duplicate vec_id among seed candidates; "
                         "vec_id must be unique")
    xcols = [c for c in parts.columns if c.startswith("x")]
    return (parts["vec_id"].to_numpy(np.int64),
            parts[xcols].to_numpy(np.int64))


def _pq_assign(q: "np.ndarray", cents: "np.ndarray",
               codes: "np.ndarray") -> "np.ndarray":
    """argmin squared-L2 per subspace; ``cents`` is (C, subd) for ONE
    subspace with 1-based code labels ``codes`` sorted ascending, so
    np.argmin's first-hit tie-break IS the min-code tie-break."""
    d2 = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return codes[np.argmin(d2, axis=1)]


def _pq_rhu(s: "np.ndarray", n: "np.ndarray") -> "np.ndarray":
    """Round-half-up s/n on SIGNED numerators: floor((2s+n) / (2n)).
    numpy // floors (matching Python), so this is exact; the SQL twin
    spells the negative branch with the truncating-division floor
    identity (module docstring)."""
    return (2 * s + n) // (2 * n)


def _pq_codebook_df(sf_dir: str) -> pd.DataFrame:
    """One deterministic Lloyd round from the seed vectors: assign every
    vector's subvector to its nearest seed (tie -> smallest code), then
    the cluster centroid is the per-dim round-half-up integer mean.
    Empty clusters (a seed that wins nothing) drop out, as in the SQL
    GROUP BY. Per-batch partials are (M x K x subd) rows regardless of
    batch size; the driver merge is d x K keys."""
    seed_ids, seeds = _pq_seeds(sf_dir)
    if len(seed_ids) == 0:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in ["sub", "code", "dim", "comp", "n"]})
    codes = np.arange(1, len(seed_ids) + 1, dtype=np.int64)

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["embedding"])

    def partial(t) -> pd.DataFrame:
        q = _pq_quant(t)
        if q.shape[0] == 0:
            return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                                 for c in ["sub", "code", "dim", "s", "n"]})
        rows = []
        for m in range(_PQ_M):
            sl = slice(m * _PQ_SUBD, (m + 1) * _PQ_SUBD)
            qa = q[:, sl]
            asn = _pq_assign(qa, seeds[:, sl], codes)
            for c in np.unique(asn):
                sel = qa[asn == c]
                for j in range(_PQ_SUBD):
                    rows.append((m + 1, int(c), j + 1,
                                 int(sel[:, j].sum()), sel.shape[0]))
        return pd.DataFrame(rows, columns=["sub", "code", "dim",
                                           "s", "n"])

    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    upd = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["sub", "code", "dim"], {"s": "sum", "n": "sum"})
    if upd.empty:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in ["sub", "code", "dim", "comp", "n"]})
    upd["comp"] = _pq_rhu(upd["s"].to_numpy(np.int64),
                          upd["n"].to_numpy(np.int64))
    out = upd.sort_values(["sub", "code", "dim"]).reset_index(drop=True)
    return out[["sub", "code", "dim", "comp", "n"]].astype(np.int64)


def q_pq_codebooks(sf_dir: str) -> pd.DataFrame:
    """PQ codebook trainer (one deterministic Lloyd round; Jegou et al.
    2011): rows (sub, code, dim, comp, n) — M=4 subspaces x K<=16
    clusters x 16 dims, centroid components on the 2^12 grid.

    Scale shape: seeds are a bounded top-K merge; the train pass is one
    streaming read with (M*K*subd)-row batch partials and a d*K-key
    driver merge — the 100-TB version changes only K and the sample."""
    return _pq_codebook_df(sf_dir)


def q_pq_encode_error(sf_dir: str) -> pd.DataFrame:
    """PQ encode + reconstruction audit: every vector's subvectors are
    encoded against the trained codebook (nearest centroid, tie ->
    smallest code) and the audit reports per-subspace exact integer
    squared error on the grid — the number read before choosing PQ
    over SQ8 for the ANN index (compare ``mean_sq_err`` against
    ``sq8_quant_error``'s per-dim errors).

    One extra streaming pass with the d*K-int codebook broadcast in
    the closure; per-batch partials are M rows; ONE IEEE division per
    output row (repo float discipline)."""
    cb = _pq_codebook_df(sf_dir)
    empty = pd.DataFrame({
        "sub": pd.Series([], dtype=np.int64),
        "n_vectors": pd.Series([], dtype=np.int64),
        "sum_sq_err": pd.Series([], dtype=np.int64),
        "mean_sq_err": pd.Series([], dtype=np.float64)})
    if cb.empty:
        return empty
    per_sub = {}
    for m, grp in cb.groupby("sub"):
        piv = grp.pivot(index="code", columns="dim", values="comp") \
            .sort_index()
        per_sub[int(m)] = (piv.index.to_numpy(np.int64),
                           piv.to_numpy(np.int64))

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["embedding"])

    def partial(t) -> pd.DataFrame:
        q = _pq_quant(t)
        if q.shape[0] == 0:
            return pd.DataFrame({
                "sub": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64),
                "e": pd.Series([], dtype=np.int64)})
        rows = []
        for m in range(1, _PQ_M + 1):
            codes, cents = per_sub[m]
            sl = slice((m - 1) * _PQ_SUBD, m * _PQ_SUBD)
            qa = q[:, sl]
            d2 = ((qa[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            rows.append((m, qa.shape[0], int(d2.min(axis=1).sum())))
        return pd.DataFrame(rows, columns=["sub", "n", "e"])

    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    parts = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["sub"], {"n": "sum", "e": "sum"})
    if parts.empty:
        return empty
    parts = parts.sort_values("sub").reset_index(drop=True)
    return pd.DataFrame({
        "sub": parts["sub"].astype(np.int64),
        "n_vectors": parts["n"].astype(np.int64),
        "sum_sq_err": parts["e"].astype(np.int64),
        "mean_sq_err": parts["e"].astype(np.float64)
        / parts["n"].astype(np.float64)})


#: shared twin prelude: grid subvectors + the one-round codebook
_PQ_SQL_CODEBOOK = f"""
v AS (
  SELECT vec_id,
         CAST((generate_subscripts(embedding, 1) - 1) // {_PQ_SUBD} + 1
              AS BIGINT) AS sub,
         CAST((generate_subscripts(embedding, 1) - 1) % {_PQ_SUBD} + 1
              AS BIGINT) AS dim,
         CAST(floor(unnest(embedding) * {_PCA_SCALE} + 0.5) AS BIGINT)
             AS x
  FROM embeddings),
seed_ids AS (
  SELECT vec_id, CAST(row_number() OVER (ORDER BY vec_id) AS BIGINT)
             AS code
  FROM (SELECT DISTINCT vec_id FROM embeddings)
  ORDER BY vec_id LIMIT {_PQ_K}),
seeds AS (
  SELECT s.code, v.sub, v.dim, v.x
  FROM v JOIN seed_ids s ON v.vec_id = s.vec_id),
dist AS (
  SELECT v.vec_id, v.sub, s.code,
         sum((v.x - s.x) * (v.x - s.x)) AS d2
  FROM v JOIN seeds s ON v.sub = s.sub AND v.dim = s.dim
  GROUP BY 1, 2, 3),
assign AS (
  SELECT vec_id, sub, code FROM (
    SELECT vec_id, sub, code,
           row_number() OVER (PARTITION BY vec_id, sub
                              ORDER BY d2, code) AS rk
    FROM dist) WHERE rk = 1),
upd AS (
  SELECT a.sub, a.code, v.dim,
         CAST(sum(v.x) AS BIGINT) AS s, CAST(count(*) AS BIGINT) AS n
  FROM assign a JOIN v ON v.vec_id = a.vec_id AND v.sub = a.sub
  GROUP BY 1, 2, 3),
cb AS (
  SELECT sub, code, dim,
         CASE WHEN 2 * s + n >= 0 THEN (2 * s + n) // (2 * n)
              ELSE -((-(2 * s + n) + 2 * n - 1) // (2 * n))
         END AS comp, n
  FROM upd)
"""

CUR_QUERIES["pq_codebooks"] = q_pq_codebooks
CUR_ORACLE_SQL["pq_codebooks"] = f"""
WITH {_PQ_SQL_CODEBOOK}
SELECT sub, code, dim, comp, n FROM cb
ORDER BY sub, code, dim
"""

CUR_QUERIES["pq_encode_error"] = q_pq_encode_error
CUR_ORACLE_SQL["pq_encode_error"] = f"""
WITH {_PQ_SQL_CODEBOOK},
d2 AS (
  SELECT v.vec_id, v.sub, cb.code,
         sum((v.x - cb.comp) * (v.x - cb.comp)) AS d2
  FROM v JOIN cb ON v.sub = cb.sub AND v.dim = cb.dim
  GROUP BY 1, 2, 3),
best AS (
  SELECT vec_id, sub, d2 FROM (
    SELECT vec_id, sub, d2,
           row_number() OVER (PARTITION BY vec_id, sub
                              ORDER BY d2, code) AS rk
    FROM d2) WHERE rk = 1)
SELECT sub, CAST(count(*) AS BIGINT) AS n_vectors,
       CAST(sum(d2) AS BIGINT) AS sum_sq_err,
       CAST(CAST(sum(d2) AS BIGINT) AS DOUBLE)
           / CAST(count(*) AS DOUBLE) AS mean_sq_err
FROM best GROUP BY sub ORDER BY sub
"""


# --------------------------------------------------------------------------
# batch 38: water-filling per-source token-budget allocation
# --------------------------------------------------------------------------

#: kept tokens <= total // _WF_DEN (the mix target)
_WF_DEN = 2

#: shared twin prelude: token counts, per-source totals, the exact
#: water-level solve (the same segment-max formula as
#: stages/pack.waterfill_cap), and the within-source running total
_WF_SQL = f"""
d AS (
  SELECT doc_id, source,
         CAST(len(regexp_extract_all(lower(coalesce(text, '')),
                                     '[a-z]+')) AS BIGINT) AS n
  FROM documents),
tot AS (SELECT source, CAST(sum(n) AS BIGINT) AS t
        FROM d GROUP BY source),
b AS (SELECT CAST(sum(t) // {_WF_DEN} AS BIGINT) AS budget FROM tot),
seg AS (
  SELECT t,
         CAST(row_number() OVER (ORDER BY t, source) AS BIGINT) AS rk,
         CAST(count(*) OVER () AS BIGINT) AS k,
         CAST(sum(t) OVER (ORDER BY t, source
                           ROWS UNBOUNDED PRECEDING) - t AS BIGINT)
             AS pfx
  FROM tot),
cap AS (
  SELECT CAST(max((b.budget - pfx) // (k - rk + 1)) AS BIGINT) AS c
  FROM seg, b WHERE pfx <= b.budget),
cum AS (
  SELECT doc_id, source, n,
         CAST(sum(n) OVER (PARTITION BY source ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum
  FROM d)
"""


def q_source_token_waterfill(sf_dir: str):
    """Per-document water-fill manifest (see
    stages/pack.source_token_waterfill): every source capped at the
    same exact-integer level c*, docs kept in doc_id order while the
    within-source running token total stays under the cap."""
    from nacc_form_validator_ray.stages.pack import source_token_waterfill
    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source", "text"])
    return source_token_waterfill(ds, budget_den=_WF_DEN)


CUR_QUERIES["source_token_waterfill"] = q_source_token_waterfill
CUR_ORACLE_SQL["source_token_waterfill"] = f"""
WITH {_WF_SQL}
SELECT doc_id, source, n AS n_tokens, cum AS cum_tokens,
       cum <= (SELECT c FROM cap) AS kept
FROM cum ORDER BY doc_id
"""


def q_waterfill_mix_report(sf_dir: str) -> pd.DataFrame:
    """Per-source audit of the water-fill allocation: total vs kept
    tokens and documents, plus the kept-token share on the exact
    integer grid (share_ppm = kept * 1e6 // total_kept) — the mix
    dashboard read before launching a training run.

    One extra driver fold over the manifest's per-source partials
    (sources are the small side; the manifest itself streams)."""
    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    manifest = q_source_token_waterfill(sf_dir)

    def partial(t) -> pd.DataFrame:
        kept = t["kept"].to_numpy(zero_copy_only=False)
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "tokens_total": n,
            "tokens_kept": np.where(kept, n, 0),
            "docs_total": 1,
            "docs_kept": kept.astype(np.int64)})
        return df.groupby("source", as_index=False).sum()

    out = _merge_partials(
        manifest.map_batches(partial, batch_format="pyarrow"),
        ["source"], {"tokens_total": "sum", "tokens_kept": "sum",
                     "docs_total": "sum", "docs_kept": "sum"})
    for c in ["tokens_total", "tokens_kept", "docs_total", "docs_kept"]:
        out[c] = out[c].astype(np.int64)
    grand = int(out["tokens_kept"].sum())
    out["share_ppm"] = (out["tokens_kept"].to_numpy(np.int64)
                        * 1_000_000) // max(grand, 1)
    return out.sort_values("source").reset_index(drop=True)[
        ["source", "tokens_total", "tokens_kept", "docs_total",
         "docs_kept", "share_ppm"]]


CUR_QUERIES["waterfill_mix_report"] = q_waterfill_mix_report
CUR_ORACLE_SQL["waterfill_mix_report"] = f"""
WITH {_WF_SQL},
m AS (
  SELECT source, n,
         CASE WHEN cum <= (SELECT c FROM cap) THEN n ELSE 0 END AS nk,
         CASE WHEN cum <= (SELECT c FROM cap) THEN 1 ELSE 0 END AS dk
  FROM cum),
agg AS (
  SELECT source, CAST(sum(n) AS BIGINT) AS tokens_total,
         CAST(sum(nk) AS BIGINT) AS tokens_kept,
         CAST(count(*) AS BIGINT) AS docs_total,
         CAST(sum(dk) AS BIGINT) AS docs_kept
  FROM m GROUP BY source)
SELECT source, tokens_total, tokens_kept, docs_total, docs_kept,
       CAST(tokens_kept * 1000000
            // greatest((SELECT sum(tokens_kept) FROM agg), 1)
            AS BIGINT) AS share_ppm
FROM agg ORDER BY source
"""


# --------------------------------------------------------------------------
# batch 39: corpus diversity + per-source quantile normalization
# --------------------------------------------------------------------------

def q_distinct_ngram_ratio(sf_dir: str) -> pd.DataFrame:
    """Per-source bigram diversity (distinct-2 of Li et al. 2016's
    distinct-n family): distinct vs total bigrams of the [a-z]+ token
    stream, on the exact ppm grid — low diversity flags template/spam
    feeds that per-document repetition scores miss (the whole SOURCE
    repeats even when each document looks fine).

    Shape: per-batch (source, bigram) count partials
    (``text_signals.ngram_counts`` keyed by source) -> ONE grouped-sum
    exchange -> per-partition (distinct, total) partials -> driver
    merge of O(sources x partitions) rows. At 100 TB swap the bigram
    strings for 64-bit hashes on the exchange (the
    dup_ngram_spans_hashed lesson) — same plan, smaller wire."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "text"])

    def count_partial(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc
        bg = ngram_counts(arrow_token_codes(t["text"]), 2,
                          by=t["source"])
        return pa.table({
            "source": bg["by"],
            "b": pc.binary_join_element_wise(bg["w1"], bg["w2"], " "),
            "c": bg["count"]})

    merged = grouped_agg_sum(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["source", "b"], ["c"], num_partitions=16)

    def per_part(t: "pa.Table") -> pd.DataFrame:
        if t.num_rows == 0:
            return pd.DataFrame({
                "source": pd.Series([], dtype=object),
                "n_distinct": pd.Series([], dtype=np.int64),
                "n_total": pd.Series([], dtype=np.int64)})
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "n_distinct": 1,
            "n_total": t["c"].to_numpy(zero_copy_only=False)})
        return df.groupby("source", as_index=False).sum()

    out = _merge_partials(
        merged.map_batches(per_part, batch_format="pyarrow"),
        ["source"], {"n_distinct": "sum", "n_total": "sum"})
    out = out.astype({"n_distinct": np.int64, "n_total": np.int64})
    out["distinct_ppm"] = (out["n_distinct"].to_numpy(np.int64)
                           * 1_000_000) \
        // np.maximum(out["n_total"].to_numpy(np.int64), 1)
    return out.sort_values("source").reset_index(drop=True)[
        ["source", "n_total", "n_distinct", "distinct_ppm"]]


CUR_QUERIES["distinct_ngram_ratio"] = q_distinct_ngram_ratio
CUR_ORACLE_SQL["distinct_ngram_ratio"] = """
WITH t AS (
  SELECT source,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z]+') AS toks
  FROM documents),
bg AS (
  SELECT source,
         unnest(CASE WHEN len(toks) >= 2
                THEN list_transform(range(1, len(toks)),
                                    i -> toks[i] || ' ' || toks[i+1])
                ELSE CAST([] AS VARCHAR[]) END) AS b
  FROM t),
agg AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n_total,
         CAST(count(DISTINCT b) AS BIGINT) AS n_distinct
  FROM bg GROUP BY source)
SELECT source, n_total, n_distinct,
       CAST(n_distinct * 1000000 // greatest(n_total, 1) AS BIGINT)
           AS distinct_ppm
FROM agg ORDER BY source
"""


def q_quantile_normalize_docs(sf_dir: str):
    """Per-source quantile normalization of the length score: every
    document gets its WITHIN-SOURCE empirical quantile on the exact
    ppm grid (``#strictly-smaller * 1e6 // (n_source - 1)``) — the
    cross-source calibration step before a global quality cut, so a
    "long document" means the same thing in every feed.

    Shape: pass 1 reduces to (source, n_chars) value counts (bounded
    by sources x value domain, NOT corpus size) merged on the driver;
    pass 2 broadcasts the per-source CDF and assigns quantiles with
    one vectorized searchsorted per batch — two streaming passes, no
    data-sized exchange."""
    import pyarrow as pa
    import ray

    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source", "n_chars"])

    def vc(t: "pa.Table") -> pd.DataFrame:
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "v": t["n_chars"].to_numpy(zero_copy_only=False),
            "c": 1})
        return df.groupby(["source", "v"], as_index=False).sum()

    hist = _merge_partials(ds.map_batches(vc, batch_format="pyarrow"),
                           ["source", "v"], {"c": "sum"})
    cdf = {}
    for s, g in hist.groupby("source"):
        g = g.sort_values("v")
        vals = g["v"].to_numpy(np.int64)
        cnts = g["c"].to_numpy(np.int64)
        less = np.concatenate(([0], np.cumsum(cnts)[:-1]))
        cdf[s] = (vals, less, int(cnts.sum()))
    cdf_ref = ray.put(cdf)

    def assign(t: "pa.Table") -> "pa.Table":
        m = ray.get(cdf_ref)
        src = t["source"].to_numpy(zero_copy_only=False)
        v = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        q = np.zeros(len(v), dtype=np.int64)
        for s in np.unique(src) if len(src) else []:
            vals, less, n = m[s]
            sel = src == s
            cl = less[np.searchsorted(vals, v[sel])]
            q[sel] = cl * 1_000_000 // max(n - 1, 1)
        return pa.table({
            "doc_id": t["doc_id"].combine_chunks(),
            "source": t["source"].combine_chunks(),
            "n_chars": t["n_chars"].combine_chunks(),
            "quantile_ppm": pa.array(q)})

    return ds.map_batches(assign, batch_format="pyarrow")


CUR_QUERIES["quantile_normalize_docs"] = q_quantile_normalize_docs
CUR_ORACLE_SQL["quantile_normalize_docs"] = """
WITH r AS (
  SELECT doc_id, source, n_chars,
         CAST(rank() OVER (PARTITION BY source ORDER BY n_chars) - 1
              AS BIGINT) AS cl,
         CAST(count(*) OVER (PARTITION BY source) AS BIGINT) AS ns
  FROM documents)
SELECT doc_id, source, n_chars,
       CAST(cl * 1000000 // greatest(ns - 1, 1) AS BIGINT)
           AS quantile_ppm
FROM r ORDER BY doc_id
"""


# --------------------------------------------------------------------------
# batch 40: lexicon topic routing
# --------------------------------------------------------------------------

#: keyword lexicons (topic -> word set), the broadcast model of the
#: router. Deterministic synthetic lexicons over the fixture
#: vocabulary; production swaps in curated domain lexicons — the
#: plumbing (broadcast membership, dictionary-code matching, argmax
#: with lexicographic tie-break, zero-hit fallback) is the operator.
TOPIC_LEXICONS = {
    "relational": ("table", "query", "row", "column", "join", "filter"),
    "streaming": ("stream", "window", "batch", "spark"),
    "commerce": ("customer", "market", "order", "price"),
}
_TOPIC_FALLBACK = "other"


def _topic_route_manifest(sf_dir: str):
    """Shared router pass: per-document winning topic + hit count.

    Per batch: tokens are dictionary-coded once
    (``arrow_token_codes``); each topic is ONE ``np.isin`` over the
    batch DICTIONARY (vocabulary-sized, not token-sized) followed by a
    bincount over token->doc ids — no Python loop over rows. Winner =
    max hits, ties to the lexicographically smaller topic, zero hits
    -> 'other'. One streaming pass, no exchange."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.text_signals import \
        arrow_token_codes

    topics = sorted(TOPIC_LEXICONS)       # tie-break order
    lex = {t: np.array(sorted(TOPIC_LEXICONS[t]), dtype=object)
           for t in topics}

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source", "text"])

    def route(t: "pa.Table") -> "pa.Table":
        n = t.num_rows
        out_topic = np.full(n, _TOPIC_FALLBACK, dtype=object)
        hits_mat = np.zeros((n, len(topics)), dtype=np.int64)
        codes, dictionary, tok_doc, _ = arrow_token_codes(t["text"])
        if dictionary is not None and len(codes):
            vocab = dictionary.to_numpy(zero_copy_only=False)
            for j, tp in enumerate(topics):
                mask = np.isin(vocab, lex[tp])
                hit = mask[codes]
                if hit.any():
                    hits_mat[:, j] = np.bincount(tok_doc[hit],
                                                 minlength=n)
            best = hits_mat.argmax(axis=1)   # first max = smaller topic
            won = hits_mat[np.arange(n), best] > 0
            out_topic[won] = np.array(topics, dtype=object)[best[won]]
        return pa.table({
            "doc_id": t["doc_id"].combine_chunks(),
            "source": t["source"].combine_chunks(),
            "topic": pa.array(out_topic),
            "hits": pa.array(hits_mat.max(axis=1))})

    return ds.map_batches(route, batch_format="pyarrow")


def q_topic_route_docs(sf_dir: str):
    """Per-document lexicon topic router (see
    :func:`_topic_route_manifest`): (doc_id, source, topic, hits)."""
    return _topic_route_manifest(sf_dir)


def q_topic_mix_by_source(sf_dir: str) -> pd.DataFrame:
    """Topic mix per source off the router manifest: document counts
    and the exact ppm share within each source — the routing dashboard
    (a feed suddenly going 90% 'other' means its vocabulary drifted
    off every lexicon)."""
    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    manifest = _topic_route_manifest(sf_dir)

    def partial(t) -> pd.DataFrame:
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "topic": t["topic"].to_numpy(zero_copy_only=False),
            "n_docs": 1})
        return df.groupby(["source", "topic"], as_index=False).sum()

    out = _merge_partials(
        manifest.map_batches(partial, batch_format="pyarrow"),
        ["source", "topic"], {"n_docs": "sum"})
    out["n_docs"] = out["n_docs"].astype(np.int64)
    tot = out.groupby("source")["n_docs"].transform("sum") \
        .to_numpy(np.int64)
    out["share_ppm"] = (out["n_docs"].to_numpy(np.int64)
                        * 1_000_000) // np.maximum(tot, 1)
    return out.sort_values(["source", "topic"]).reset_index(drop=True)[
        ["source", "topic", "n_docs", "share_ppm"]]


def _sql_topic_route() -> str:
    vals = ", ".join(
        f"('{t}', '{w}')"
        for t in sorted(TOPIC_LEXICONS)
        for w in sorted(TOPIC_LEXICONS[t]))
    return f"""
lex(topic, w) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(coalesce(text, '')),
                                   '[a-z]+')) AS w
  FROM documents),
h AS (
  SELECT tok.doc_id, lex.topic, CAST(count(*) AS BIGINT) AS c
  FROM tok JOIN lex ON lex.w = tok.w
  GROUP BY 1, 2),
best AS (
  SELECT doc_id, topic, c FROM (
    SELECT doc_id, topic, c,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY c DESC, topic) AS rk
    FROM h) WHERE rk = 1),
routed AS (
  SELECT d.doc_id, d.source,
         coalesce(b.topic, '{_TOPIC_FALLBACK}') AS topic,
         CAST(coalesce(b.c, 0) AS BIGINT) AS hits
  FROM documents d LEFT JOIN best b ON b.doc_id = d.doc_id)"""


CUR_QUERIES["topic_route_docs"] = q_topic_route_docs
CUR_ORACLE_SQL["topic_route_docs"] = f"""
WITH {_sql_topic_route()}
SELECT doc_id, source, topic, hits FROM routed ORDER BY doc_id
"""

CUR_QUERIES["topic_mix_by_source"] = q_topic_mix_by_source
CUR_ORACLE_SQL["topic_mix_by_source"] = f"""
WITH {_sql_topic_route()},
agg AS (
  SELECT source, topic, CAST(count(*) AS BIGINT) AS n_docs
  FROM routed GROUP BY 1, 2)
SELECT source, topic, n_docs,
       CAST(n_docs * 1000000 // greatest(
            sum(n_docs) OVER (PARTITION BY source), 1) AS BIGINT)
           AS share_ppm
FROM agg ORDER BY source, topic
"""


# --------------------------------------------------------------------------
# batch 41: order-invariant corpus checksums per shard
# --------------------------------------------------------------------------

_CKSUM_SHARDS = 16


def q_corpus_checksum_by_shard(sf_dir: str) -> pd.DataFrame:
    """Order-invariant content checksum per hash shard: every document
    contributes ``h = md5("{doc_id}:{text}")[:8 bytes]`` and each
    shard (doc_id mod 16) reports (n_docs, XOR of h, wrapped mod-2^64
    sum of h) — the verification artifact a resumable / replicated
    pipeline compares across reruns, migrations, or replicas without
    ever ordering or co-locating the corpus (both aggregates commute,
    so ANY partitioning gives the identical answer).

    Shape: one streaming pass with 16-row per-batch partials, driver
    fold with explicit Python-int mod-2^64 wrap. int64 outputs are the
    two's-complement view of the uint64 bit patterns (same convention
    as fingerprint_docs' md5 fold)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.dedup import md5_digests

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])

    def partial(t) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        if not len(ids):
            return pd.DataFrame({
                "shard": pd.Series([], dtype=np.int64),
                "n_docs": pd.Series([], dtype=np.int64),
                "xor_h": pd.Series([], dtype=np.uint64),
                "sum_h": pd.Series([], dtype=np.uint64)})
        keys = pc.binary_join_element_wise(
            pc.cast(t["doc_id"], pa.string()),
            pc.fill_null(t["text"], ""), ":")
        h = md5_digests(keys).view(">u8")[:, 0].astype(np.uint64)
        # DuckDB % is sign-preserving (trunc), numpy % floors:
        # spell trunc-mod explicitly so negative doc_ids agree
        ids64 = ids.astype(np.int64)
        shard = np.where(ids64 >= 0, ids64 % _CKSUM_SHARDS,
                         -((-ids64) % _CKSUM_SHARDS))
        df = pd.DataFrame({"shard": shard, "h": h})
        out = df.groupby("shard").agg(
            n_docs=("h", "size"),
            xor_h=("h", lambda s: np.bitwise_xor.reduce(
                s.to_numpy(np.uint64))),
            sum_h=("h", lambda s: np.sum(s.to_numpy(np.uint64)))) \
            .reset_index()
        return out.astype({"shard": np.int64, "n_docs": np.int64,
                           "xor_h": np.uint64, "sum_h": np.uint64})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    cols = ["shard", "n_docs", "xor_h", "sum_h"]
    if parts.empty or "shard" not in parts.columns:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in cols})
    rows = []
    for shard, g in parts.groupby("shard", sort=True):
        x = 0
        s = 0
        for v in g["xor_h"]:
            x ^= int(v)
        for v in g["sum_h"]:
            s = (s + int(v)) % (1 << 64)
        def signed(u: int) -> int:
            return u - (1 << 64) if u >= (1 << 63) else u
        rows.append((int(shard), int(g["n_docs"].sum()),
                     signed(x), signed(s)))
    return pd.DataFrame(rows, columns=cols).astype(np.int64)


CUR_QUERIES["corpus_checksum_by_shard"] = q_corpus_checksum_by_shard
CUR_ORACLE_SQL["corpus_checksum_by_shard"] = f"""
WITH k AS (
  SELECT doc_id % {_CKSUM_SHARDS} AS shard,
         list_reduce(list_prepend(CAST(0 AS HUGEINT),
           list_transform(regexp_extract_all(
               substring(md5(CAST(doc_id AS VARCHAR) || ':'
                             || coalesce(text, '')), 1, 16), '.'),
             c -> CAST(strpos('0123456789abcdef', c) - 1 AS HUGEINT))),
           (a, b) -> a * 16 + b) AS v
  FROM documents),
per AS (
  SELECT shard, CAST(count(*) AS BIGINT) AS n_docs,
         bit_xor(CAST(CASE WHEN v >= 9223372036854775808
                           THEN v - 18446744073709551616
                           ELSE v END AS BIGINT)) AS xor_h,
         sum(v) AS s
  FROM k GROUP BY shard)
SELECT CAST(shard AS BIGINT) AS shard, n_docs, xor_h,
       CAST(CASE WHEN (s % 18446744073709551616)
                      >= 9223372036854775808
                 THEN (s % 18446744073709551616)
                      - 18446744073709551616
                 ELSE (s % 18446744073709551616) END AS BIGINT)
           AS sum_h
FROM per ORDER BY shard
"""


# --------------------------------------------------------------------------
# batch 42: two-stage retrieval + sampling-estimator audit
# --------------------------------------------------------------------------

_RERANK_K, _RERANK_QUERY_VEC = 20, 0


def q_bm25_rerank(sf_dir: str) -> pd.DataFrame:
    """Two-stage retrieval: BM25 lexical top-20 candidates reranked by
    exact embedding cosine against the query vector (vec_id 0, the
    MMR anchor convention) — the standard recall-then-precision shape
    of a production retrieval stack.

    Stage 1 is the full distributed BM25 (bounded stats pass +
    broadcast idf + per-batch top-k); stage 2 reads ONLY the k
    candidate embeddings (vec_id pushdown at the parquet read) and
    reranks on the driver — k rows, never the corpus. Output ranks
    only (both engines order by cosine, neither compares float
    values)."""
    import pyarrow.dataset as pads

    from nacc_form_validator_ray.pipelines.queries import BM25_QUERY
    from nacc_form_validator_ray.stages.retrieval import bm25_topk
    from nacc_form_validator_ray.stages.similarity import (_matrix_from_arrow,
                                                           _normalize)

    docs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    bm = bm25_topk(docs, BM25_QUERY, k=_RERANK_K)
    bm = bm if isinstance(bm, pd.DataFrame) else bm.to_pandas()
    empty = pd.DataFrame({
        "doc_id": pd.Series([], dtype=np.int64),
        "bm25_rank": pd.Series([], dtype=np.int64),
        "cos_rank": pd.Series([], dtype=np.int64)})
    if bm.empty:
        return empty
    cand = bm["doc_id"].astype(np.int64).tolist()

    want = sorted(set(cand) | {_RERANK_QUERY_VEC})
    emb = _rd().read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id").isin(want)).to_pandas()
    if emb.empty:
        return empty
    import pyarrow as pa
    vecs = _normalize(_matrix_from_arrow(
        pa.array(emb["embedding"].tolist(), pa.list_(pa.float32()))))
    by_id = dict(zip(emb["vec_id"].astype(np.int64), range(len(emb))))
    if _RERANK_QUERY_VEC not in by_id:
        return empty
    qv = vecs[by_id[_RERANK_QUERY_VEC]]
    # candidates without an embedding row drop out — same semantics
    # as the twin's inner join (docs can outnumber vectors)
    keep = [(c, r) for c, r in zip(cand, bm["rank"].astype(np.int64))
            if c in by_id]
    if not keep:
        return empty
    rows = pd.DataFrame({
        "doc_id": np.array([c for c, _ in keep], dtype=np.int64),
        "bm25_rank": np.array([r for _, r in keep], dtype=np.int64),
        "cos": [float(vecs[by_id[c]] @ qv) for c, _ in keep]})
    rows = rows.sort_values(["cos", "doc_id"],
                            ascending=[False, True]) \
        .reset_index(drop=True)
    rows["cos_rank"] = np.arange(1, len(rows) + 1, dtype=np.int64)
    return rows[["doc_id", "bm25_rank", "cos_rank"]]


def _sql_bm25_rerank() -> str:
    from nacc_form_validator_ray.pipelines.queries import \
        _sql_bm25_search
    return f"""
WITH bm AS ({_sql_bm25_search(k=_RERANK_K)}),
q AS (SELECT embedding AS qe FROM embeddings
      WHERE vec_id = {_RERANK_QUERY_VEC}),
c AS (
  SELECT CAST(bm.doc_id AS BIGINT) AS doc_id,
         CAST(bm.rank AS BIGINT) AS bm25_rank,
         list_cosine_similarity(e.embedding, q.qe) AS cos
  FROM bm JOIN embeddings e ON e.vec_id = bm.doc_id CROSS JOIN q)
SELECT doc_id, bm25_rank,
       CAST(row_number() OVER (ORDER BY cos DESC, doc_id) AS BIGINT)
           AS cos_rank
FROM c ORDER BY cos_rank
"""


CUR_QUERIES["bm25_rerank"] = q_bm25_rerank
CUR_ORACLE_SQL["bm25_rerank"] = _sql_bm25_rerank()


#: sampling rate 1/_EST_DEN via the repo's mod-P31 hash family
_EST_DEN = 8


def q_sample_estimate_audit(sf_dir: str) -> pd.DataFrame:
    """Horvitz-Thompson sampling-estimator audit: per source, the
    exact token total vs the inverse-probability estimate from the
    deterministic 1/8 hash sample (``est = 8 * sampled-sum``), with
    the exact-integer error in ppm — the report read before trusting
    sample-based corpus dashboards at 100 TB (where the EXACT pass is
    the expensive one; here both ride one streaming pass so the audit
    is self-contained)."""
    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    from nacc_form_validator_ray.stages.dedup import P31
    from nacc_form_validator_ray.stages.sampling import (SAMPLE_A,
                                                         SAMPLE_B)
    from nacc_form_validator_ray.stages.text_signals import \
        arrow_token_codes

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source", "text"])

    def partial(t) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if not len(ids):
            return pd.DataFrame({
                "source": pd.Series([], dtype=object),
                "n_docs": pd.Series([], dtype=np.int64),
                "tokens_exact": pd.Series([], dtype=np.int64),
                "tokens_sampled": pd.Series([], dtype=np.int64)})
        _, _, _, n_tokens = arrow_token_codes(t["text"])
        in_sample = ((SAMPLE_A * (ids % P31) + SAMPLE_B) % P31) \
            % _EST_DEN == 0
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "n_docs": 1,
            "tokens_exact": n_tokens.astype(np.int64),
            "tokens_sampled": np.where(in_sample, n_tokens, 0)
            .astype(np.int64)})
        return df.groupby("source", as_index=False).sum()

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], {"n_docs": "sum", "tokens_exact": "sum",
                     "tokens_sampled": "sum"})
    for c in ["n_docs", "tokens_exact", "tokens_sampled"]:
        out[c] = out[c].astype(np.int64)
    est = out.pop("tokens_sampled").to_numpy(np.int64) * _EST_DEN
    out["tokens_est"] = est
    exact = out["tokens_exact"].to_numpy(np.int64)
    out["err_ppm"] = np.abs(est - exact) * 1_000_000 \
        // np.maximum(exact, 1)
    return out.sort_values("source").reset_index(drop=True)[
        ["source", "n_docs", "tokens_exact", "tokens_est", "err_ppm"]]


CUR_QUERIES["sample_estimate_audit"] = q_sample_estimate_audit
def _sql_sample_estimate_audit() -> str:
    from nacc_form_validator_ray.stages.dedup import P31
    from nacc_form_validator_ray.stages.sampling import (SAMPLE_A,
                                                         SAMPLE_B)
    return f"""
WITH d AS (
  SELECT source,
         CAST(len(regexp_extract_all(lower(coalesce(text, '')),
                                     '[a-z]+')) AS BIGINT) AS n,
         (({SAMPLE_A} * (doc_id % {P31})
           + {SAMPLE_B}) % {P31}) % {_EST_DEN} = 0 AS s
  FROM documents)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n) AS BIGINT) AS tokens_exact,
       CAST({_EST_DEN} * sum(CASE WHEN s THEN n ELSE 0 END) AS BIGINT)
           AS tokens_est,
       CAST(abs({_EST_DEN} * sum(CASE WHEN s THEN n ELSE 0 END)
                - sum(n)) * 1000000
            // greatest(sum(n), 1) AS BIGINT) AS err_ppm
FROM d GROUP BY source ORDER BY source
"""


CUR_ORACLE_SQL["sample_estimate_audit"] = _sql_sample_estimate_audit()


# --------------------------------------------------------------------------
# batch 43: windowed top-k + first-touch attribution over events
# --------------------------------------------------------------------------

_WTOPK_K = 3


def q_window_topk_event_types(sf_dir: str) -> pd.DataFrame:
    """Top-3 event types per 1-hour tumbling window by count (ties ->
    lexicographically smaller type) — the streaming-dashboard classic
    (windowed heavy hitters).

    Per-batch (window, type, count) combiners bound the exchange by
    windows x types regardless of event volume; ONE window exchange
    ranks locally. Returns (window_start, event_type, n, rnk)."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["ts", "event_type"])
    hour_us = 3_600_000_000

    def partial(t: "pa.Table") -> pd.DataFrame:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        df = pd.DataFrame({
            "w": (ts // hour_us) * hour_us,
            "event_type": t["event_type"].to_numpy(
                zero_copy_only=False),
            "n": 1})
        return df.groupby(["w", "event_type"], as_index=False).sum()

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["w", "event_type"], as_index=False)["n"].sum()
        g = g.sort_values(["w", "n", "event_type"],
                          ascending=[True, False, True])
        g["rnk"] = g.groupby("w").cumcount() + 1
        return g[g["rnk"] <= _WTOPK_K]

    out = grouped_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["w"], topk, num_partitions=8).to_pandas()
    if out.empty:
        return pd.DataFrame({
            "window_start": pd.Series([], dtype="datetime64[us]"),
            "event_type": pd.Series([], dtype=object),
            "n": pd.Series([], dtype=np.int64),
            "rnk": pd.Series([], dtype=np.int64)})
    out["window_start"] = out.pop("w").astype("datetime64[us]")
    out = out.astype({"n": np.int64, "rnk": np.int64})
    return out.sort_values(["window_start", "rnk"]) \
        .reset_index(drop=True)[
        ["window_start", "event_type", "n", "rnk"]]


CUR_QUERIES["window_topk_event_types"] = q_window_topk_event_types
CUR_ORACLE_SQL["window_topk_event_types"] = f"""
WITH c AS (
  SELECT time_bucket(INTERVAL 1 HOUR, ts) AS window_start,
         event_type, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
r AS (
  SELECT window_start, event_type, n,
         CAST(row_number() OVER (PARTITION BY window_start
                                 ORDER BY n DESC, event_type)
              AS BIGINT) AS rnk
  FROM c)
SELECT window_start, event_type, n, rnk FROM r
WHERE rnk <= {_WTOPK_K}
ORDER BY window_start, rnk
"""


_ATTR_WINDOW_US = 24 * 3_600_000_000


def q_first_touch_attribution(sf_dir: str) -> pd.DataFrame:
    """First-touch attribution: every purchase is credited to the
    FIRST event (any type) of the same user inside the preceding 24 h
    (strictly before the purchase; ties on ts -> smallest event_id);
    purchases with no prior touch in the window credit 'direct'.
    Output: credited type -> purchase count.

    ONE user exchange; per partition a vectorized per-user
    searchsorted finds each purchase's window start — no per-event
    Python loop. The merge is O(types)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])

    def attrib(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "attributed": pd.Series([], dtype=object),
            "n_purchases": pd.Series([], dtype=np.int64)})
        if g.empty:
            return empty
        g = g.sort_values(["user_id", "ts", "event_id"])
        ts = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        uid = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy(object)
        eid = g["event_id"].to_numpy(np.int64)
        out = []
        # outer loop is O(users-per-partition); all per-purchase work
        # inside is vectorized (one searchsorted per user)
        for u in np.unique(uid):
            sel = uid == u
            uts, uet = ts[sel], et[sel]
            is_p = uet == "purchase"
            if not is_p.any():
                continue
            ppos = np.flatnonzero(is_p)
            pts = uts[is_p]
            # first event at ts >= purchase_ts - 24h; it counts as a
            # prior touch iff it sorts strictly before the purchase
            # row in the (ts, event_id) order (index < purchase index)
            lo = np.searchsorted(uts, pts - _ATTR_WINDOW_US,
                                 side="left")
            valid = lo < ppos
            att = np.where(valid,
                           uet[np.minimum(lo, len(uts) - 1)],
                           "direct")
            out.extend(att.tolist())
        if not out:
            return empty
        df = pd.DataFrame({"attributed": out, "n_purchases": 1})
        return df.groupby("attributed", as_index=False).sum()

    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    res = _merge_partials(
        grouped_apply(ds, ["user_id"], attrib, num_partitions=16),
        ["attributed"], {"n_purchases": "sum"})
    res["n_purchases"] = res["n_purchases"].astype(np.int64)
    return res.sort_values("attributed").reset_index(drop=True)


CUR_QUERIES["first_touch_attribution"] = q_first_touch_attribution
CUR_ORACLE_SQL["first_touch_attribution"] = f"""
WITH p AS (
  SELECT event_id, user_id, ts FROM events
  WHERE event_type = 'purchase'),
ft AS (
  SELECT p.event_id,
         coalesce((
           SELECT e.event_type FROM events e
           WHERE e.user_id = p.user_id
             AND e.ts >= p.ts - INTERVAL 24 HOUR
             AND (e.ts < p.ts
                  OR (e.ts = p.ts AND e.event_id < p.event_id))
           ORDER BY e.ts, e.event_id LIMIT 1), 'direct') AS attributed
  FROM p)
SELECT attributed, CAST(count(*) AS BIGINT) AS n_purchases
FROM ft GROUP BY attributed ORDER BY attributed
"""


# --------------------------------------------------------------------------
# batch 44: k-anonymity audit + contrastive triplet mining
# --------------------------------------------------------------------------

#: re-identification threshold: quasi-identifier groups smaller than
#: this are reportable
_KANON_K = 5


def q_k_anonymity_audit(sf_dir: str) -> pd.DataFrame:
    """k-anonymity audit over the quasi-identifier tuple
    (event_type, hour-of-day, value on the whole-cent grid // 100):
    how many QI groups and how many EVENTS sit in groups smaller than
    k=5 — the re-identification risk report run before releasing an
    event log.

    Per-batch QI-tuple count combiners bound the exchange by the QI
    domain (types x 24 x value-bands), not event volume; the k-cut and
    the summary fold run on the driver over that bounded table."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["ts", "event_type", "value"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        hour = pc.hour(t["ts"]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.floor(t["value"].to_numpy(zero_copy_only=False)
                         * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(
                zero_copy_only=False),
            "hour": hour,
            # DuckDB // truncates; spell trunc-div so negative
            # refund values band identically (review finding)
            "value_band": np.where(cents >= 0, cents // 10000,
                                   -((-cents) // 10000)),
            "n": 1})
        return df.groupby(["event_type", "hour", "value_band"],
                          as_index=False).sum()

    groups = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hour", "value_band"], {"n": "sum"})
    if groups.empty:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n_groups": pd.Series([], dtype=np.int64),
            "n_small_groups": pd.Series([], dtype=np.int64),
            "n_exposed_events": pd.Series([], dtype=np.int64)})
    groups["n"] = groups["n"].astype(np.int64)
    small = groups["n"] < _KANON_K
    out = groups.assign(
        n_groups=1,
        n_small_groups=small.astype(np.int64),
        n_exposed_events=np.where(small, groups["n"], 0)) \
        .groupby("event_type", as_index=False)[
        ["n_groups", "n_small_groups", "n_exposed_events"]].sum()
    for c in ["n_groups", "n_small_groups", "n_exposed_events"]:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


CUR_QUERIES["k_anonymity_audit"] = q_k_anonymity_audit
CUR_ORACLE_SQL["k_anonymity_audit"] = f"""
WITH g AS (
  SELECT event_type, CAST(hour(ts) AS BIGINT) AS hour,
         CAST(floor(value * 100 + 0.5) AS BIGINT) // 10000
             AS value_band,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2, 3)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_groups,
       CAST(sum(CASE WHEN n < {_KANON_K} THEN 1 ELSE 0 END) AS BIGINT)
           AS n_small_groups,
       CAST(sum(CASE WHEN n < {_KANON_K} THEN n ELSE 0 END) AS BIGINT)
           AS n_exposed_events
FROM g GROUP BY event_type ORDER BY event_type
"""


#: anchors = vec_id < _TRIP_N_ANCHORS; negatives via the mod-P31 hash
_TRIP_N_ANCHORS = 50


def q_triplet_mining(sf_dir: str) -> pd.DataFrame:
    """Contrastive training-pair mining: for each anchor (vec_id <
    50), the positive is its exact top-1 cosine neighbor (the
    distributed brute-force kNN — broadcast anchors, per-batch local
    top-k, bounded merge) and the negative is a deterministic
    hash-pick from the corpus (mod-P31 family, re-drawn with a +1 salt
    while it collides with anchor or positive). Output
    (anchor_id, positive_id, negative_id) — the (a, p, n) manifest an
    embedding trainer consumes.

    Ranks/ids only cross the oracle boundary, never float cosines
    (the knn_embeddings convention)."""
    import pyarrow.dataset as pads

    from nacc_form_validator_ray.stages.dedup import P31
    from nacc_form_validator_ray.stages.sampling import (SAMPLE_A,
                                                         SAMPLE_B)
    from nacc_form_validator_ray.stages.similarity import (
        _matrix_from_arrow, knn_bruteforce)

    emb = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                             columns=["vec_id", "embedding"])
    anchors = _rd().read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") < _TRIP_N_ANCHORS).to_pandas()
    if anchors.empty:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in ["anchor_id", "positive_id",
                                       "negative_id"]})
    anchors = anchors.sort_values("vec_id")
    import pyarrow as pa
    qmat = _matrix_from_arrow(pa.array(anchors["embedding"].tolist(),
                                       pa.list_(pa.float32())))
    top1 = knn_bruteforce(emb, qmat,
                          anchors["vec_id"].to_numpy(np.int64),
                          k=1).to_pandas()
    top1 = top1[top1["rank"] == 1][["query_id", "neighbor_id"]]

    # corpus size for the negative draw: bounded metadata aggregate
    n_vecs = emb.count()

    out = top1.rename(columns={"query_id": "anchor_id",
                               "neighbor_id": "positive_id"}) \
        .sort_values("anchor_id").reset_index(drop=True)
    a = out["anchor_id"].to_numpy(np.int64)
    p = out["positive_id"].to_numpy(np.int64)
    # bounded salts 0..3, mirroring the twin exactly: on a pathological
    # corpus where all four draws collide with {anchor, positive}
    # (guaranteed possible only when n_vecs <= 2), the sentinel -1 is
    # emitted on BOTH engines instead of spinning (review finding)
    neg = np.full(len(a), -1, dtype=np.int64)
    for i in range(len(a)):          # anchors are a bounded set
        for salt in range(4):
            cand = int((SAMPLE_A * ((int(a[i]) + salt) % P31)
                        + SAMPLE_B) % P31) % n_vecs
            if cand != int(a[i]) and cand != int(p[i]):
                neg[i] = cand
                break
    out["negative_id"] = neg
    return out.astype(np.int64)[["anchor_id", "positive_id",
                                 "negative_id"]]


def _sql_triplet_mining() -> str:
    from nacc_form_validator_ray.stages.dedup import P31
    from nacc_form_validator_ray.stages.sampling import (SAMPLE_A,
                                                         SAMPLE_B)
    return f"""
WITH q AS (
  SELECT vec_id AS anchor_id, embedding AS qe FROM embeddings
  WHERE vec_id < {_TRIP_N_ANCHORS}),
pairs AS (
  SELECT q.anchor_id, e.vec_id AS positive_id,
         list_cosine_similarity(q.qe, e.embedding) AS cos
  FROM q CROSS JOIN embeddings e WHERE e.vec_id != q.anchor_id),
pos AS (
  SELECT anchor_id, positive_id FROM (
    SELECT anchor_id, positive_id,
           row_number() OVER (PARTITION BY anchor_id
                              ORDER BY cos DESC, positive_id) AS rk
    FROM pairs) WHERE rk = 1),
nv AS (SELECT count(*) AS n FROM embeddings),
-- deterministic negative: first non-colliding salt in 0..3; if all
-- four draws collide with {{anchor, positive}} the sentinel -1 is
-- emitted (same bounded rule as the Python side — review finding)
neg AS (
  SELECT anchor_id, positive_id,
         (SELECT cand FROM (
            SELECT (({SAMPLE_A} * ((anchor_id + s.salt) % {P31})
                     + {SAMPLE_B}) % {P31}) % nv.n AS cand, s.salt
            FROM (VALUES (0), (1), (2), (3)) s(salt), nv
            ) c
          WHERE c.cand != anchor_id AND c.cand != positive_id
          ORDER BY c.salt LIMIT 1) AS negative_id
  FROM pos)
SELECT anchor_id, positive_id,
       CAST(coalesce(negative_id, -1) AS BIGINT) AS negative_id
FROM neg ORDER BY anchor_id
"""


CUR_QUERIES["triplet_mining"] = q_triplet_mining
CUR_ORACLE_SQL["triplet_mining"] = _sql_triplet_mining()


# --------------------------------------------------------------------------
# batch 45: scan-pruning audit + inverse-quantile threshold solve
# --------------------------------------------------------------------------

_PRUNE_SHARD, _PRUNE_MIN_CHARS = 64, 250


def _nchars_histogram(ds) -> pd.DataFrame:
    """Bounded (n_chars value -> count) histogram via per-batch value
    counts + driver merge — shared by the prune audit and the
    threshold solve (review finding: keep the two copies one)."""
    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    def vc(t) -> pd.DataFrame:
        df = pd.DataFrame({
            "v": t["n_chars"].to_numpy(zero_copy_only=False)
            .astype(np.int64), "c": 1})
        return df.groupby("v", as_index=False).sum()

    return _merge_partials(ds.map_batches(vc, batch_format="pyarrow"),
                           ["v"], {"c": "sum"})


def q_rowgroup_prune_audit(sf_dir: str) -> pd.DataFrame:
    """Scan-pruning audit for ``n_chars >= 250`` under TWO physical
    layouts: 'arrival' row-groups (doc_id // 64, the as-crawled order)
    vs 'clustered' row-groups (global (n_chars, doc_id) rank // 64,
    the sort-clustered rewrite). Per (layout, class) the report counts
    skippable (max < T) / full (min >= T) / mixed shards — the
    clustered-minus-arrival delta is exactly what a zone-map-aware
    rewrite buys, measured before paying for the sort.

    Shape: arrival stats are per-batch (shard, min, max, rows, hits)
    combiners; the clustered rank needs no global sort — the value
    HISTOGRAM (bounded) gives every value's exclusive base, ONE value
    exchange adds the within-value doc_id tie rank, and shard stats
    fold per batch as before. The shard tables are metadata-sized."""
    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "n_chars"])

    def shard_stats(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["layout", "shard"], as_index=False).agg(
            mn=("v", "min"), mx=("v", "max"), rows=("v", "size"),
            hits=("hit", "sum"))

    def arrival_partial(t) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = t["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if not len(ids):
            return pd.DataFrame({
                "layout": pd.Series([], dtype=object),
                "shard": pd.Series([], dtype=np.int64),
                "mn": pd.Series([], dtype=np.int64),
                "mx": pd.Series([], dtype=np.int64),
                "rows": pd.Series([], dtype=np.int64),
                "hits": pd.Series([], dtype=np.int64)})
        return shard_stats(pd.DataFrame({
            "layout": "arrival", "shard": ids // _PRUNE_SHARD, "v": v,
            "hit": (v >= _PRUNE_MIN_CHARS).astype(np.int64)}))

    arrival = ds.map_batches(arrival_partial, batch_format="pyarrow")

    # clustered layout: exclusive base per value from the histogram
    hist = _nchars_histogram(ds)
    cols = ["layout", "class", "n_shards", "n_rows", "n_hits"]
    if hist.empty:
        return pd.DataFrame({
            "layout": pd.Series([], dtype=object),
            "class": pd.Series([], dtype=object),
            "n_shards": pd.Series([], dtype=np.int64),
            "n_rows": pd.Series([], dtype=np.int64),
            "n_hits": pd.Series([], dtype=np.int64)})
    hist = hist.sort_values("v")
    base = dict(zip(
        hist["v"].to_numpy(np.int64),
        np.concatenate(([0], np.cumsum(
            hist["c"].to_numpy(np.int64))[:-1]))))

    # ...plus the within-value doc_id tie rank via ONE value exchange
    def clustered_stats(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({
                "layout": pd.Series([], dtype=object),
                "shard": pd.Series([], dtype=np.int64),
                "mn": pd.Series([], dtype=np.int64),
                "mx": pd.Series([], dtype=np.int64),
                "rows": pd.Series([], dtype=np.int64),
                "hits": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["v", "doc_id"])
        tie = g.groupby("v").cumcount().to_numpy(np.int64)
        rank = np.array([base[x] for x in g["v"]],
                        dtype=np.int64) + tie
        v = g["v"].to_numpy(np.int64)
        return shard_stats(pd.DataFrame({
            "layout": "clustered", "shard": rank // _PRUNE_SHARD,
            "v": v, "hit": (v >= _PRUNE_MIN_CHARS).astype(np.int64)}))

    proj = ds.map_batches(
        lambda t: pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "v": t["n_chars"].to_numpy(zero_copy_only=False)
            .astype(np.int64)}),
        batch_format="pyarrow")
    clustered = grouped_apply(proj, ["v"], clustered_stats,
                              num_partitions=8)

    shards = _merge_partials(
        arrival.union(clustered), ["layout", "shard"],
        {"mn": "min", "mx": "max", "rows": "sum", "hits": "sum"})
    cls = np.where(shards["mx"] < _PRUNE_MIN_CHARS, "skippable",
                   np.where(shards["mn"] >= _PRUNE_MIN_CHARS,
                            "full", "mixed"))
    out = pd.DataFrame({
        "layout": shards["layout"], "class": cls, "n_shards": 1,
        "n_rows": shards["rows"].astype(np.int64),
        "n_hits": shards["hits"].astype(np.int64)}) \
        .groupby(["layout", "class"], as_index=False).sum()
    for c in ["n_shards", "n_rows", "n_hits"]:
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["layout", "class"]) \
        .reset_index(drop=True)[cols]


CUR_QUERIES["rowgroup_prune_audit"] = q_rowgroup_prune_audit
CUR_ORACLE_SQL["rowgroup_prune_audit"] = f"""
WITH d AS (
  SELECT doc_id, CAST(n_chars AS BIGINT) AS v,
         CAST(row_number() OVER (ORDER BY n_chars, doc_id) - 1
              AS BIGINT) AS rnk
  FROM documents),
s AS (
  SELECT 'arrival' AS layout, doc_id // {_PRUNE_SHARD} AS shard, v
  FROM d
  UNION ALL
  SELECT 'clustered' AS layout, rnk // {_PRUNE_SHARD} AS shard, v
  FROM d),
g AS (
  SELECT layout, shard, min(v) AS mn, max(v) AS mx,
         CAST(count(*) AS BIGINT) AS rows_,
         CAST(sum(CASE WHEN v >= {_PRUNE_MIN_CHARS}
                       THEN 1 ELSE 0 END) AS BIGINT) AS hits
  FROM s GROUP BY 1, 2)
SELECT layout,
       CASE WHEN mx < {_PRUNE_MIN_CHARS} THEN 'skippable'
            WHEN mn >= {_PRUNE_MIN_CHARS} THEN 'full'
            ELSE 'mixed' END AS class,
       CAST(count(*) AS BIGINT) AS n_shards,
       CAST(sum(rows_) AS BIGINT) AS n_rows,
       CAST(sum(hits) AS BIGINT) AS n_hits
FROM g GROUP BY 1, 2 ORDER BY layout, class
"""


#: target keep rate in ppm for the threshold solve
_THRESH_TARGET_PPM = 600_000


def q_threshold_solve_keep_rate(sf_dir: str) -> pd.DataFrame:
    """Inverse-quantile knob solve: the SMALLEST integer n_chars
    threshold T whose keep rate (docs with n_chars >= T) drops to or
    below the 60% target — the derivation step behind every "keep the
    top X%" config value, exact on the ppm grid (ties included, so the
    real rate can sit above neighboring thresholds' rates).

    Pass 1 reduces to the bounded value histogram (the
    quantile_normalize shape); the solve walks the descending CDF on
    the driver. Output: one row (threshold, n_kept, n_total,
    keep_ppm)."""
    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["n_chars"])
    hist = _nchars_histogram(ds)
    cols = ["threshold", "n_kept", "n_total", "keep_ppm"]
    if hist.empty:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in cols})
    hist = hist.sort_values("v")
    v = hist["v"].to_numpy(np.int64)
    c = hist["c"].to_numpy(np.int64)
    total = int(c.sum())
    # kept(T=v[i]) = suffix sum from i; find smallest T with
    # kept * 1e6 <= target * total (exact cross-multiply)
    suffix = np.cumsum(c[::-1])[::-1]
    ok = suffix * 1_000_000 <= _THRESH_TARGET_PPM * total
    if ok.any():
        i = int(np.flatnonzero(ok)[0])
        # keep rate is constant on (v[i-1], v[i]] — the SMALLEST
        # integer threshold achieving it is prev observed value + 1
        # (0 when every doc already fits) — review finding
        thr = int(v[i - 1]) + 1 if i > 0 else 0
        kept = int(suffix[i])
    else:
        thr, kept = int(v[-1]) + 1, 0   # even the max value keeps too many
    return pd.DataFrame({
        "threshold": np.array([thr], dtype=np.int64),
        "n_kept": np.array([kept], dtype=np.int64),
        "n_total": np.array([total], dtype=np.int64),
        "keep_ppm": np.array([kept * 1_000_000 // max(total, 1)],
                             dtype=np.int64)})


CUR_QUERIES["threshold_solve_keep_rate"] = q_threshold_solve_keep_rate
CUR_ORACLE_SQL["threshold_solve_keep_rate"] = f"""
WITH h AS (
  SELECT CAST(n_chars AS BIGINT) AS v, CAST(count(*) AS BIGINT) AS c
  FROM documents GROUP BY 1),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS total FROM h),
cdf AS (
  SELECT v, CAST(sum(c) OVER (ORDER BY v DESC
                              ROWS UNBOUNDED PRECEDING) AS BIGINT)
             AS kept,
         lag(v) OVER (ORDER BY v) AS prev_v
  FROM h),
sol AS (
  -- smallest INTEGER threshold: keep rate is constant on
  -- (prev_v, v], so it is prev_v + 1 (0 when everything fits)
  SELECT CAST(coalesce(prev_v + 1, 0) AS BIGINT) AS threshold, kept
  FROM cdf, tot
  WHERE kept * 1000000 <= {_THRESH_TARGET_PPM} * tot.total
  ORDER BY v LIMIT 1),
fallback AS (
  SELECT max(v) + 1 AS threshold, CAST(0 AS BIGINT) AS kept FROM h)
SELECT s.threshold, s.kept AS n_kept, tot.total AS n_total,
       CAST(s.kept * 1000000 // greatest(tot.total, 1) AS BIGINT)
           AS keep_ppm
FROM (SELECT * FROM sol UNION ALL
      SELECT * FROM fallback WHERE NOT EXISTS (SELECT 1 FROM sol)) s,
     tot
"""


# --------------------------------------------------------------------------
# batch 46: incremental view maintenance merge
# --------------------------------------------------------------------------

_IVM_CUTOFF = "2024-01-15"  # mid-fixture: both sides non-trivial


def q_ivm_merge_counts(sf_dir: str) -> pd.DataFrame:
    """Incremental-view-maintenance merge: the per-event-type
    (count, value-cents sum) view split into BASE (events before
    2024-01-15) and DELTA (at/after), plus the merged result — the
    merge-on-read shape of a lakehouse view: the base aggregate is
    what a snapshot holds, the delta is the unmerged tail, and the
    audit proves base + delta == full recompute without rescanning
    the base.

    One streaming pass (each batch splits on the cutoff and emits both
    partials keyed by type); the merge is O(types) on the driver —
    commutative integer sums, so compaction order can never change the
    view."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    cutoff = np.datetime64(_IVM_CUTOFF, "us").astype(np.int64)
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["ts", "event_type", "value"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        cents = np.floor(t["value"].to_numpy(zero_copy_only=False)
                         * 100 + 0.5).astype(np.int64)
        is_d = ts >= cutoff
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(
                zero_copy_only=False),
            "base_n": (~is_d).astype(np.int64),
            "base_sum_c": np.where(is_d, 0, cents),
            "delta_n": is_d.astype(np.int64),
            "delta_sum_c": np.where(is_d, cents, 0)})
        return df.groupby("event_type", as_index=False).sum()

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"], {"base_n": "sum", "base_sum_c": "sum",
                         "delta_n": "sum", "delta_sum_c": "sum"})
    for c in ["base_n", "base_sum_c", "delta_n", "delta_sum_c"]:
        out[c] = out[c].astype(np.int64)
    out["merged_n"] = out["base_n"] + out["delta_n"]
    out["merged_sum_c"] = out["base_sum_c"] + out["delta_sum_c"]
    return out.sort_values("event_type").reset_index(drop=True)[
        ["event_type", "base_n", "base_sum_c", "delta_n",
         "delta_sum_c", "merged_n", "merged_sum_c"]]


CUR_QUERIES["ivm_merge_counts"] = q_ivm_merge_counts
CUR_ORACLE_SQL["ivm_merge_counts"] = f"""
WITH e AS (
  SELECT event_type,
         ts >= TIMESTAMP '{_IVM_CUTOFF}' AS d,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
  FROM events)
SELECT event_type,
       CAST(sum(CASE WHEN d THEN 0 ELSE 1 END) AS BIGINT) AS base_n,
       CAST(sum(CASE WHEN d THEN 0 ELSE c END) AS BIGINT)
           AS base_sum_c,
       CAST(sum(CASE WHEN d THEN 1 ELSE 0 END) AS BIGINT) AS delta_n,
       CAST(sum(CASE WHEN d THEN c ELSE 0 END) AS BIGINT)
           AS delta_sum_c,
       CAST(count(*) AS BIGINT) AS merged_n,
       CAST(sum(c) AS BIGINT) AS merged_sum_c
FROM e GROUP BY event_type ORDER BY event_type
"""


# --------------------------------------------------------------------------
# batch 47: dedup funnel report
# --------------------------------------------------------------------------

def q_dedup_funnel_report(sf_dir: str,
                          ckpt_dir: str | None = None) -> pd.DataFrame:
    """The production dedup stack as ONE survivor funnel: input docs,
    docs surviving exact dedup (min doc_id per whitespace/case
    fingerprint, the dedup_exact rule), and docs ALSO surviving
    MinHash near-dedup (min doc_id of their near-dup cluster, the
    dedup_clusters rule) — the stage-attrition dashboard read before
    shipping a dedup config.

    Composition of existing distributed stages: one fingerprint
    exchange (exact keep set), the banding + label-propagation passes
    (cluster keep set), one tagged id exchange to intersect — ids
    only, text never rides a shuffle. The twin composes the same
    SQL fragments (SQL_DEDUP_EXACT's grouping + the recursive
    closure over integer-exact minhash pairs)."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.dedup import (
        minhash_candidate_pairs, propagate_labels)
    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import Fingerprint

    docs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    n_input = docs.count()

    fp = docs.map_batches(Fingerprint(), batch_format="pyarrow") \
        .select_columns(["doc_id", "fingerprint_md5"])

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("fingerprint_md5", as_index=False)["doc_id"] \
            .min()
        return out[["doc_id"]]

    from nacc_form_validator_ray.state.lineage import (input_key,
                                                       stage_checkpoint)

    # with ckpt_dir set, the two expensive dedup decisions (exact keep
    # set, near-dup labels) checkpoint to parquet and a rerun resumes
    # from the last completed stage (round-4 VERDICT item 9); the lean
    # exact keep set is materialized either way (two consumers below)
    key = input_key(sf_dir) if ckpt_dir else None
    exact_keep = stage_checkpoint(
        lambda: grouped_apply(fp, ["fingerprint_md5"], keep_min,
                              num_partitions=16),
        ckpt_dir, "exact_keep", key)
    if ckpt_dir is None:
        exact_keep = exact_keep.materialize()

    def build_labels():
        pairs = minhash_candidate_pairs(docs, threshold=0.5)
        ids = docs.select_columns(["doc_id"])
        return propagate_labels(pairs, ids)

    labels = stage_checkpoint(build_labels, ckpt_dir, "labels", key)

    def near_tag(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc
        kept = t.filter(pc.equal(t["doc_id"], t["cluster"]))
        return pa.table({
            "doc_id": kept["doc_id"].combine_chunks(),
            "tag": pa.array(np.ones(kept.num_rows, np.int64))})

    # the cluster-representative filter runs distributed (doc_id ==
    # cluster per batch) — the label set never reaches the driver
    near_keep = labels.map_batches(near_tag, batch_format="pyarrow")

    # intersect the two keep sets: tagged union, ONE id exchange
    tagged = exact_keep.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"].combine_chunks(),
                            "tag": pa.array([0] * t.num_rows,
                                            pa.int64())}),
        batch_format="pyarrow") \
        .union(near_keep)

    def both(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.drop_duplicates(["doc_id", "tag"]) \
            .groupby("doc_id").size()
        return pd.DataFrame({"n": [int((cnt == 2).sum())]})

    survived = grouped_apply(tagged, ["doc_id"], both,
                             num_partitions=8).to_pandas()
    n_exact = exact_keep.count()
    n_both = int(survived["n"].sum()) if "n" in survived else 0
    return pd.DataFrame({
        "stage": ["1_input", "2_after_exact", "3_after_neardup"],
        "n_docs": np.array([n_input, n_exact, n_both],
                           dtype=np.int64)})


def _sql_dedup_funnel() -> str:
    from nacc_form_validator_ray.pipelines.queries import \
        _sql_minhash_ctes
    defs, pairs = _sql_minhash_ctes("documents", "doc_id",
                                    threshold=0.5)
    return f"""WITH RECURSIVE {defs},
und AS (
  SELECT id_a AS src, id_b AS dst FROM {pairs}
  UNION ALL
  SELECT id_b, id_a FROM {pairs}
), reach(src, dst) AS (
  SELECT src, dst FROM und
  UNION
  SELECT r.src, u.dst FROM reach r JOIN und u ON r.dst = u.src
),
cl AS (
  SELECT d.doc_id,
         CAST(least(d.doc_id, coalesce(min(r.dst), d.doc_id))
              AS BIGINT) AS cluster
  FROM documents d LEFT JOIN reach r ON d.doc_id = r.src
  GROUP BY d.doc_id),
fp AS (
  SELECT doc_id,
         md5(lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))))
             AS f
  FROM documents),
ek AS (
  SELECT doc_id FROM (
    SELECT doc_id, min(doc_id) OVER (PARTITION BY f) AS m FROM fp)
  WHERE doc_id = m),
nk AS (SELECT doc_id FROM cl WHERE doc_id = cluster)
SELECT '1_input' AS stage, CAST(count(*) AS BIGINT) AS n_docs
FROM documents
UNION ALL
SELECT '2_after_exact', CAST(count(*) AS BIGINT) FROM ek
UNION ALL
SELECT '3_after_neardup', CAST(count(*) AS BIGINT)
FROM ek JOIN nk ON ek.doc_id = nk.doc_id
ORDER BY stage
"""


CUR_QUERIES["dedup_funnel_report"] = q_dedup_funnel_report
CUR_ORACLE_SQL["dedup_funnel_report"] = _sql_dedup_funnel()


# --------------------------------------------------------------------------
# batch 49: benchmark decontamination
# --------------------------------------------------------------------------

#: eval-set surrogate: the 5-gram shingles of doc_id < _DECON_EVAL_DOCS
#: stand in for a benchmark's n-grams (GPT-3 appendix-C decontamination
#: uses 13-grams; the fixture's docs are short word soup, so 5)
_DECON_EVAL_DOCS, _DECON_N = 5, 5


def q_benchmark_decontam(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination flags: for every document, how many
    of its token 5-gram shingles appear in the eval-set shingle bank
    (the 5-grams of docs 0-4), and the contaminated bit — the
    train-set scrub run before every pretraining launch so eval
    numbers stay meaningful.

    The eval bank is model-sized broadcast state (built by one pruned
    read of the eval docs); the scan is one streaming pass with
    dictionary-coded shingle hashing per batch (the MinHash tokenizer
    path) and NO exchange. Eval docs themselves are flagged (they
    trivially contain their own shingles) — the scrub drops them too."""
    import pyarrow.dataset as pads
    import ray

    from nacc_form_validator_ray.stages.text_signals import \
        arrow_token_codes

    def shingle_keys(t) -> "tuple[np.ndarray, np.ndarray]":
        """(hash-key per shingle, doc index per shingle) — exact
        64-bit polynomial fold over the token STRINGS so hashes agree
        across batches regardless of dictionary order. 64-bit keys,
        like dup_ngram_spans_hashed: a cross-engine divergence needs
        a 2^-64 collision (the twin joins exact strings); the hashed
        wire format is the 100-TB contract."""
        codes, dictionary, tok_doc, _ = arrow_token_codes(t["text"])
        if dictionary is None or len(codes) < _DECON_N:
            return (np.empty(0, dtype=np.uint64),
                    np.empty(0, dtype=np.int64))
        toks = dictionary.to_numpy(zero_copy_only=False)
        # per-token content hash (mod-2^64 poly over bytes, base 131)
        th = np.empty(len(toks), dtype=np.uint64)
        for i, w in enumerate(toks):      # vocabulary-sized, not tokens
            h = np.uint64(0)
            for b in w.encode():
                h = h * np.uint64(131) + np.uint64(b)
            th[i] = h
        tok_h = th[codes]
        n = _DECON_N
        m = len(codes) - n + 1
        key = np.zeros(m, dtype=np.uint64)
        for j in range(n):                # n=5 vectorized passes
            key = key * np.uint64(1000003) + tok_h[j:j + m]
        same = tok_doc[:m] == tok_doc[n - 1:]
        return key[same], tok_doc[:m][same]

    eval_tbl = _rd().read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filter=pads.field("doc_id") < _DECON_EVAL_DOCS).to_pandas()
    if eval_tbl.empty:
        bank = np.empty(0, dtype=np.uint64)
    else:
        import pyarrow as pa
        k, _ = shingle_keys(pa.table({
            "text": pa.array(eval_tbl["text"].tolist(), pa.string())}))
        bank = np.unique(k)
    bank_ref = ray.put(bank)

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])

    def flag(t) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        hits = np.zeros(len(ids), dtype=np.int64)
        k, doc = shingle_keys(t)
        if len(k):
            b = ray.get(bank_ref)
            hit = np.isin(k, b)
            if hit.any():
                hits[:] = np.bincount(doc[hit], minlength=len(ids))
        return pd.DataFrame({
            "doc_id": ids, "n_hits": hits,
            "contaminated": hits > 0})

    out = ds.map_batches(flag, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


CUR_QUERIES["benchmark_decontam"] = q_benchmark_decontam
CUR_ORACLE_SQL["benchmark_decontam"] = f"""
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z]+') AS ws
  FROM documents),
sh AS (
  SELECT doc_id,
         array_to_string(ws[i : i + {_DECON_N} - 1], ' ') AS s
  FROM t, unnest(range(1, len(ws) - {_DECON_N} + 2)) AS r(i)
  WHERE len(ws) >= {_DECON_N}),
bank AS (
  SELECT DISTINCT s FROM sh WHERE doc_id < {_DECON_EVAL_DOCS}),
hits AS (
  SELECT sh.doc_id, CAST(count(*) AS BIGINT) AS n_hits
  FROM sh JOIN bank ON bank.s = sh.s
  GROUP BY sh.doc_id)
SELECT t.doc_id, CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
       coalesce(h.n_hits, 0) > 0 AS contaminated
FROM t LEFT JOIN hits h ON h.doc_id = t.doc_id
ORDER BY t.doc_id
"""


# --------------------------------------------------------------------------
# batch 51: MinHash S-curve planner
# --------------------------------------------------------------------------

#: (bands, rows-per-band) configs sharing k = b*r = 128 signature slots
#: (the registered minhash_candidate_pairs geometry and its two
#: alternatives). Bands are powers of two so u^b is an explicit
#: squaring chain — identical IEEE op order on both engines.
_SCURVE_CONFIGS = ((32, 4), (16, 8), (64, 2))
_SCURVE_S_PCT = tuple(range(50, 100, 5))


def q_minhash_scurve(sf_dir: str) -> pd.DataFrame:
    """MinHash banding S-curve planner: for each (bands, rows) config
    of the 128-slot signature and each Jaccard similarity s, the
    candidate probability ``p = 1 - (1 - s^r)^b`` — the table read
    when choosing a banding config for a target near-dup threshold
    (Leskovec et al., Mining of Massive Datasets, public).

    Pure model math (no corpus IO): every float op is an explicit
    left-associated multiply / squaring chain mirrored token-for-token
    by the twin, so the doubles are bit-identical without any grid
    flooring. ``sf_dir`` is accepted for registry uniformity."""
    rows = []
    for b, r in _SCURVE_CONFIGS:
        n_sq = b.bit_length() - 1      # b = 2^n_sq
        for pct in _SCURVE_S_PCT:
            s = float(pct) / 100.0
            t = s
            for _ in range(r - 1):
                t = t * s
            u = 1.0 - t
            for _ in range(n_sq):
                u = u * u
            rows.append((b, r, pct, 1.0 - u))
    out = pd.DataFrame(rows, columns=["bands", "rows_per_band",
                                      "s_pct", "p_candidate"]) \
        .astype({"bands": np.int64, "rows_per_band": np.int64,
                 "s_pct": np.int64, "p_candidate": np.float64})
    return out.sort_values(["bands", "rows_per_band", "s_pct"]) \
        .reset_index(drop=True)


def _sql_minhash_scurve() -> str:
    svals = ", ".join(f"({p})" for p in _SCURVE_S_PCT)
    selects = []
    for b, r in _SCURVE_CONFIGS:
        n_sq = b.bit_length() - 1
        t_expr = " * ".join(["s"] * r)
        chain = [f"{t_expr} AS t0", "1.0 - t0 AS u0"]
        for i in range(n_sq):
            chain.append(f"u{i} * u{i} AS u{i + 1}")
        cols = ", ".join(chain)
        selects.append(f"""
SELECT CAST({b} AS BIGINT) AS bands,
       CAST({r} AS BIGINT) AS rows_per_band,
       CAST(s_pct AS BIGINT) AS s_pct, 1.0 - u{n_sq} AS p_candidate
FROM (SELECT s_pct, CAST(s_pct AS DOUBLE) / 100.0 AS s, {cols}
      FROM sv)""")
    return f"""
WITH sv(s_pct) AS (VALUES {svals})
{' UNION ALL '.join(selects)}
ORDER BY bands, rows_per_band, s_pct
"""


CUR_QUERIES["minhash_scurve"] = q_minhash_scurve
CUR_ORACLE_SQL["minhash_scurve"] = _sql_minhash_scurve()


# --------------------------------------------------------------------------
# batch 52: calendar heatmap + subsample stability audit
# --------------------------------------------------------------------------

def q_events_heatmap_hour_dow(sf_dir: str) -> pd.DataFrame:
    """Calendar heatmap: event counts per (ISO day-of-week, hour) —
    the load-profile dashboard (crawl schedulers read exactly this to
    place their nice-hours). Per-batch (dow, hour) combiners bound the
    exchange at 7 x 24 keys regardless of volume; driver merge."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["ts"])

    def partial(t) -> pd.DataFrame:
        # ISO day of week (Mon=1..Sun=7), matching DuckDB isodow()
        dow = pc.day_of_week(t["ts"], count_from_zero=False,
                             week_start=1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        hour = pc.hour(t["ts"]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        df = pd.DataFrame({"dow": dow, "hour": hour, "n": 1})
        return df.groupby(["dow", "hour"], as_index=False).sum()

    out = _merge_partials(ds.map_batches(partial,
                                         batch_format="pyarrow"),
                          ["dow", "hour"], {"n": "sum"})
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["dow", "hour"]).reset_index(drop=True)


CUR_QUERIES["events_heatmap_hour_dow"] = q_events_heatmap_hour_dow
CUR_ORACLE_SQL["events_heatmap_hour_dow"] = """
SELECT CAST(isodow(ts) AS BIGINT) AS dow,
       CAST(hour(ts) AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY 1, 2 ORDER BY dow, hour
"""


#: number of deterministic half-sample replicas
_STAB_REPS = 16


def q_subsample_stability_ci(sf_dir: str) -> pd.DataFrame:
    """Subsample-stability interval for the per-source mean document
    length: 16 deterministic half-sample replicas (doc kept in replica
    b iff ``hash(doc_id + b·P31') mod 2 == 0``, the mod-P31 family)
    each produce a replica mean; the report gives the full-corpus mean
    plus the min/max replica means and their spread in ppm of the full
    mean — the "how stable is this dashboard number" audit that
    separates real per-source differences from sampling noise.

    One streaming pass emits (source, replica) integer (sum, cnt)
    partials — 16x sources rows per batch regardless of volume; means
    are one IEEE division each, compared as identically-computed
    doubles on both engines."""
    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    from nacc_form_validator_ray.stages.dedup import P31
    from nacc_form_validator_ray.stages.sampling import (SAMPLE_A,
                                                         SAMPLE_B)

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source", "n_chars"])

    def partial(t) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = t["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        srcs = t["source"].to_numpy(zero_copy_only=False)
        if not len(ids):
            return pd.DataFrame({
                "source": pd.Series([], dtype=object),
                "rep": pd.Series([], dtype=np.int64),
                "s": pd.Series([], dtype=np.int64),
                "c": pd.Series([], dtype=np.int64)})
        frames = []
        # rep -1 = the full corpus; reps 0..15 = half samples
        frames.append(pd.DataFrame({
            "source": srcs, "rep": -1, "s": v, "c": 1}))
        for b in range(_STAB_REPS):
            keep = ((SAMPLE_A * ((ids + b) % P31) + SAMPLE_B)
                    % P31) % 2 == 0
            if keep.any():
                frames.append(pd.DataFrame({
                    "source": srcs[keep], "rep": b, "s": v[keep],
                    "c": 1}))
        df = pd.concat(frames, ignore_index=True)
        return df.groupby(["source", "rep"], as_index=False).sum()

    merged = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "rep"], {"s": "sum", "c": "sum"})
    cols = ["source", "mean_full", "mean_min", "mean_max",
            "spread_ppm"]
    if merged.empty:
        return pd.DataFrame({
            "source": pd.Series([], dtype=object),
            "mean_full": pd.Series([], dtype=np.float64),
            "mean_min": pd.Series([], dtype=np.float64),
            "mean_max": pd.Series([], dtype=np.float64),
            "spread_ppm": pd.Series([], dtype=np.int64)})
    merged["mean"] = merged["s"].astype(np.float64) \
        / merged["c"].astype(np.float64)
    rows = []
    for src_name, g in merged.groupby("source", sort=True):
        full = g[g["rep"] == -1]
        reps = g[g["rep"] >= 0]
        if full.empty or reps.empty:
            continue
        mf = float(full["mean"].iloc[0])
        lo, hi = float(reps["mean"].min()), float(reps["mean"].max())
        spread = int(np.floor((hi - lo) * 1_000_000 / mf + 0.5)) \
            if mf > 0 else 0
        rows.append((src_name, mf, lo, hi, spread))
    return pd.DataFrame(rows, columns=cols)


def _sql_subsample_stability() -> str:
    from nacc_form_validator_ray.stages.dedup import P31
    from nacc_form_validator_ray.stages.sampling import (SAMPLE_A,
                                                         SAMPLE_B)
    reps = ", ".join(f"({b})" for b in range(_STAB_REPS))
    return f"""
WITH reps(b) AS (VALUES {reps}),
rmeans AS (
  SELECT d.source, r.b,
         CAST(sum(d.n_chars) AS DOUBLE)
             / CAST(count(*) AS DOUBLE) AS m
  FROM documents d JOIN reps r
    ON (({SAMPLE_A} * ((d.doc_id + r.b) % {P31})
         + {SAMPLE_B}) % {P31}) % 2 = 0
  GROUP BY 1, 2),
full_m AS (
  SELECT source, CAST(sum(n_chars) AS DOUBLE)
                     / CAST(count(*) AS DOUBLE) AS mean_full
  FROM documents GROUP BY source),
agg AS (
  SELECT source, min(m) AS mean_min, max(m) AS mean_max
  FROM rmeans GROUP BY source)
SELECT f.source, f.mean_full, a.mean_min, a.mean_max,
       CAST(CASE WHEN f.mean_full > 0
                 THEN floor((a.mean_max - a.mean_min) * 1000000
                            / f.mean_full + 0.5)
                 ELSE 0 END AS BIGINT) AS spread_ppm
FROM full_m f JOIN agg a ON a.source = f.source
ORDER BY f.source
"""


CUR_QUERIES["subsample_stability_ci"] = q_subsample_stability_ci
CUR_ORACLE_SQL["subsample_stability_ci"] = _sql_subsample_stability()


# --------------------------------------------------------------------------
# batch 53: exact per-source length percentiles
# --------------------------------------------------------------------------

_PCTL_QS = (25, 50, 75, 90)


def q_source_length_percentiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-source n_chars percentiles (p25/p50/p75/p90) by the
    order-statistic rule ``smallest v with cum_count >= ceil(q*n/100)``
    — integer-exact (no interpolation), so the twins agree at any
    partitioning; the per-feed length profile behind the global
    hist_quantiles dashboard.

    One pass reduces to the bounded (source, value) histogram (the
    quantile_normalize shape); the percentile walk runs on the
    driver-held bounded table."""
    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "n_chars"])

    def vc(t) -> pd.DataFrame:
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "v": t["n_chars"].to_numpy(zero_copy_only=False)
            .astype(np.int64), "c": 1})
        return df.groupby(["source", "v"], as_index=False).sum()

    hist = _merge_partials(ds.map_batches(vc, batch_format="pyarrow"),
                           ["source", "v"], {"c": "sum"})
    cols = ["source", "q_pct", "value"]
    if hist.empty:
        return pd.DataFrame({
            "source": pd.Series([], dtype=object),
            "q_pct": pd.Series([], dtype=np.int64),
            "value": pd.Series([], dtype=np.int64)})
    rows = []
    for src_name, g in hist.groupby("source", sort=True):
        g = g.sort_values("v")
        v = g["v"].to_numpy(np.int64)
        cum = np.cumsum(g["c"].to_numpy(np.int64))
        n = int(cum[-1])
        for q in _PCTL_QS:
            rank = (q * n + 99) // 100     # ceil(q*n/100), exact ints
            i = int(np.searchsorted(cum, rank))
            rows.append((src_name, q, int(v[i])))
    return pd.DataFrame(rows, columns=cols).astype(
        {"q_pct": np.int64, "value": np.int64})


CUR_QUERIES["source_length_percentiles"] = q_source_length_percentiles
CUR_ORACLE_SQL["source_length_percentiles"] = f"""
WITH qs(q_pct) AS (VALUES {', '.join(f'({q})' for q in _PCTL_QS)}),
h AS (
  SELECT source, CAST(n_chars AS BIGINT) AS v,
         CAST(count(*) AS BIGINT) AS c
  FROM documents GROUP BY 1, 2),
cdf AS (
  SELECT source, v,
         CAST(sum(c) OVER (PARTITION BY source ORDER BY v
                           ROWS UNBOUNDED PRECEDING) AS BIGINT)
             AS cum,
         CAST(sum(c) OVER (PARTITION BY source) AS BIGINT) AS n
  FROM h)
SELECT source, CAST(q_pct AS BIGINT) AS q_pct,
       CAST(min(v) AS BIGINT) AS value
FROM cdf JOIN qs ON cum >= (q_pct * n + 99) // 100
GROUP BY source, q_pct
ORDER BY source, q_pct
"""


# --------------------------------------------------------------------------
# Registry re-push — import-order independence.
#
# Several module-level twin builders above (_sql_minhash_estimate_error,
# _sql_dedup_threshold_sweep, ...) import pipelines.queries at CALL time,
# so importing THIS module first triggers queries.py to fully execute
# mid-way through our own initialization. queries.py's bottom-of-module
# `QUERIES.update(CUR_QUERIES)` then snapshots these dicts while they are
# only partially populated, silently dropping every query registered
# after the first such builder. Re-pushing here — after all
# registrations — makes the merged registry identical regardless of
# which module is imported first (idempotent when queries imports us).
# --------------------------------------------------------------------------
import sys as _sys

_q = _sys.modules.get("nacc_form_validator_ray.pipelines.queries")
if _q is not None and hasattr(_q, "QUERIES"):
    _q.QUERIES.update(CUR_QUERIES)
    _q.ORACLE_SQL.update(CUR_ORACLE_SQL)
