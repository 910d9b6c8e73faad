"""Data-mining / curation operators, batch 5: weighted priority
sampling, an exact correlation matrix, unpivot (melt) profiling,
connected components + reciprocal pairs over the host link graph, and
within-window event-pair counting.

Same contract as ``pipelines/advanced.py``: every operator is a
Ray-Data-native pipeline (per-batch combiners + at most one lean hash
exchange, or the graph family's broadcast-loop shape) paired with a
DuckDB oracle that reproduces column names, dtypes and values
bit-for-bit. These extend the engine's curation toolkit (the reference
nacc-form-validator has no sampling/graph/correlation surface at all —
its scope is quality_check.py rule validation).

Float discipline (repo convention, see q_value_regression_events):
every double that crosses the oracle boundary is produced by
correctly-rounded IEEE ops (div / sqrt / mul) over exact integers, in
the same expression order on both engines — never libm transcendentals
(log/exp), whose last-ulp behavior differs between numpy and DuckDB.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np
import pandas as pd

MIN_QUERIES: Dict[str, object] = {}
MIN_ORACLE_SQL: Dict[str, str] = {}

#: linked-page queries registered here get their path-parameterized
#: twins through queries.flagship_oracles (same as host_pagerank etc.)
MIN_LINKED_SQL: Dict[str, object] = {}


def _rd():
    import ray.data as rd
    return rd


# --------------------------------------------------------------------------
# priority sampling over documents (Duffield, Lund & Thorup 2004)
# --------------------------------------------------------------------------

#: Knuth multiplicative constant; modulus = the Mersenne prime 2^31-1.
#: Both engines evaluate (doc_id * KNUTH) % MOD exactly in int64
#: (doc_id * KNUTH < 2^63 up to doc_id ~ 3.4e9 — beyond that, fold the
#: id first; the fixture ids are far inside).
_PS_KNUTH = 2654435761
_PS_MOD = 2147483647
_PS_K = 100


def q_priority_sample_docs(sf_dir: str) -> pd.DataFrame:
    """Weighted sample WITHOUT replacement of k=100 documents by
    priority sampling (Duffield-Lund-Thorup): priority q_i = w_i / u_i
    with weight w_i = n_chars and u_i a deterministic pseudo-uniform in
    (0, 1] derived from an explicit integer hash of doc_id — take the
    top-k priorities. Heavy documents are favored proportionally to
    weight; the estimator behind it is unbiased for any subset-sum.

    Exactness: q = double(w * 2^31) / double(h + 1). w * 2^31 <= ~1.2e12
    is exactly representable in a double, h + 1 <= 2^31 likewise; ONE
    correctly-rounded division produces the priority, so numpy and
    DuckDB agree bit-for-bit (no log/exp — see module docstring; this is
    why priorities w/u rather than the Efraimidis-Skarlatidis u^(1/w)
    exponential-keys formulation: same marginal semantics, exact
    arithmetic).

    Scale shape: per-batch top-k partials (argpartition, no full sort),
    driver merges k x blocks candidate rows and applies the same
    selection once — no exchange at all, any corpus size streams."""
    import pyarrow as pa

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "n_chars"])

    def local_topk(t: "pa.Table") -> pd.DataFrame:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = w > 0
        did, w = did[keep], w[keep]
        h = (did * np.int64(_PS_KNUTH)) % np.int64(_PS_MOD)
        q = (w * np.int64(1 << 31)).astype(np.float64) \
            / (h + 1).astype(np.float64)
        if len(q) > _PS_K:
            # exact boundary-tie handling (review finding: a bare
            # argpartition keeps an ARBITRARY subset of rows tied at
            # the k-th priority, diverging from the twin's
            # ORDER BY priority DESC, doc_id): keep EVERY row at or
            # above the k-th largest priority, then apply the twin's
            # full tiebreak on that bounded candidate set
            thr = np.partition(q, len(q) - _PS_K)[len(q) - _PS_K]
            cand = q >= thr
            did, w, q = did[cand], w[cand], q[cand]
            order = np.lexsort((did, -q))[:_PS_K]
            did, w, q = did[order], w[order], q[order]
        return pd.DataFrame({"doc_id": did, "n_chars": w, "priority": q})

    cand = ds.map_batches(local_topk, batch_format="pyarrow").to_pandas()
    if cand.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "n_chars": pd.Series([], dtype=np.int64),
                             "priority": pd.Series([], dtype=np.float64)})
    # same tiebreak as the twin's ORDER BY priority DESC, doc_id
    cand = cand.sort_values(["priority", "doc_id"],
                            ascending=[False, True], kind="stable")
    return cand.head(_PS_K).reset_index(drop=True)


MIN_QUERIES["priority_sample_docs"] = q_priority_sample_docs
MIN_ORACLE_SQL["priority_sample_docs"] = f"""
WITH w AS (
  SELECT doc_id, n_chars,
         (doc_id * {_PS_KNUTH}) % {_PS_MOD} AS h
  FROM documents WHERE n_chars > 0)
SELECT doc_id, n_chars,
       CAST(n_chars * {1 << 31} AS DOUBLE) / CAST(h + 1 AS DOUBLE)
           AS priority
FROM w
ORDER BY priority DESC, doc_id
LIMIT {_PS_K}
"""


# --------------------------------------------------------------------------
# exact Pearson correlation matrix over lineitem measures
# --------------------------------------------------------------------------

#: (output name, column, grid multiplier). extendedprice uses the
#: DOLLAR grid (not cents) so per-batch int64 moment sums stay exact:
#: max xx on this grid is ~1e10, safe past 10^8 rows per batch; the
#: twin's HUGEINT sums and the driver's Python-int merge are unbounded.
_CORR_MEASURES = [("quantity_c", "l_quantity", 100),
                  ("price_d", "l_extendedprice", 1),
                  ("discount_c", "l_discount", 100),
                  ("tax_c", "l_tax", 100)]


def q_corr_matrix_lineitem(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation matrix across the four lineitem measures on
    their integer grids — the exact-moments way (repo convention, see
    value_regression_events): per-batch combiners accumulate int64
    cross-moments for each of the 6 column pairs, the driver merges
    them in arbitrary-precision Python ints (one row per pair per
    block — bounded), and each correlation is ONE deterministic double
    expression over exact integers. Degenerate (zero-variance) pairs
    are pinned to 0.0 on both engines with INTEGER guards."""
    import pyarrow as pa

    cols = [c for _, c, _ in _CORR_MEASURES]
    ds = _rd().read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)
    names = [n for n, _, _ in _CORR_MEASURES]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def partial(t: "pa.Table") -> pd.DataFrame:
        g = [np.floor(t[c].to_numpy(zero_copy_only=False) * m + 0.5)
             .astype(np.int64) for _, c, m in _CORR_MEASURES]
        rows = []
        for i, j in pairs:
            x, y = g[i], g[j]
            rows.append((names[i], names[j], len(x),
                         int(x.sum()), int(y.sum()), int((x * x).sum()),
                         int((x * y).sum()), int((y * y).sum())))
        return pd.DataFrame(rows, columns=[
            "col_a", "col_b", "n", "sx", "sy", "sxx", "sxy", "syy"])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty or "col_a" not in parts.columns:
        # empty input: one n=0 row per pair, corr pinned 0.0 — the
        # twin's global aggregates likewise always emit 6 rows (its
        # n = 0 guard hits before any NULL-sum arithmetic)
        return pd.DataFrame(
            [(names[i], names[j], 0, 0.0) for i, j in pairs],
            columns=["col_a", "col_b", "n", "corr"]) \
            .astype({"n": np.int64, "corr": np.float64})
    out_rows = []
    for (ca, cb), grp in parts.groupby(["col_a", "col_b"], sort=True):
        # Python-int merge: immune to int64 overflow at any row count
        n = int(sum(int(v) for v in grp["n"]))
        sx = sum(int(v) for v in grp["sx"])
        sy = sum(int(v) for v in grp["sy"])
        sxx = sum(int(v) for v in grp["sxx"])
        sxy = sum(int(v) for v in grp["sxy"])
        syy = sum(int(v) for v in grp["syy"])
        zx = n * sxx - sx * sx == 0
        zy = n * syy - sy * sy == 0
        if zx or zy:
            corr = 0.0
        else:
            # identical expression order as the twin: double products
            # of exactly-converted moments, one sqrt, one division
            num = float(n) * float(sxy) - float(sx) * float(sy)
            den = math.sqrt(
                (float(n) * float(sxx) - float(sx) * float(sx))
                * (float(n) * float(syy) - float(sy) * float(sy)))
            corr = num / den
        out_rows.append((ca, cb, n, corr))
    return pd.DataFrame(out_rows,
                        columns=["col_a", "col_b", "n", "corr"]) \
        .astype({"n": np.int64, "corr": np.float64})


def _sql_corr_pair(ca: str, cb: str) -> str:
    grid = {n: (c, m) for n, c, m in _CORR_MEASURES}
    (xc, xm), (yc, ym) = grid[ca], grid[cb]
    return f"""
SELECT '{ca}' AS col_a, '{cb}' AS col_b,
       CAST(n AS BIGINT) AS n,
       CASE WHEN n = 0 OR n * sxx - sx * sx = 0
                 OR n * syy - sy * sy = 0
            THEN 0.0 ELSE
       (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
        - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
       / sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
               - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
              * (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                 - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))) END
           AS corr
FROM (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(x * y) AS sxy, sum(y * y) AS syy
  FROM (SELECT CAST(floor({xc} * {xm} + 0.5) AS BIGINT) AS x,
               CAST(floor({yc} * {ym} + 0.5) AS BIGINT) AS y
        FROM lineitem))
"""


MIN_QUERIES["corr_matrix_lineitem"] = q_corr_matrix_lineitem
MIN_ORACLE_SQL["corr_matrix_lineitem"] = "\nUNION ALL\n".join(
    _sql_corr_pair(a, b)
    for i, (a, _, _) in enumerate(_CORR_MEASURES)
    for b in [n for n, _, _ in _CORR_MEASURES[i + 1:]])


# --------------------------------------------------------------------------
# unpivot (melt) + per-measure profile over lineitem
# --------------------------------------------------------------------------


def q_unpivot_lineitem_measures(sf_dir: str) -> pd.DataFrame:
    """Unpivot (melt) the four lineitem measures into long form and
    profile each: row count, grid sum, min, max. The melt happens
    INSIDE the per-batch combiner (``pd.melt`` on the grid-integer
    frame), so only 4 partial rows per batch reach the driver — the
    wide-to-long reshape never rides an exchange. Sum-overflow bound:
    the twin's CAST(sum AS BIGINT) fails loudly past ~9e11 price
    dollars-at-cents-grid; shard the merge hierarchically beyond.
    Empty-input contract: one row per measure with every stat pinned
    to 0 on BOTH engines (the twin coalesces its NULL aggregates)."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import _merge_partials

    cols = [c for _, c, _ in _CORR_MEASURES]
    ds = _rd().read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)

    def partial(t: "pa.Table") -> pd.DataFrame:
        grid = pd.DataFrame({
            n: np.floor(t[c].to_numpy(zero_copy_only=False) * m + 0.5)
                 .astype(np.int64)
            for n, c, m in _CORR_MEASURES})
        long = grid.melt(var_name="measure", value_name="v")
        agg = long.groupby("measure", as_index=False)["v"] \
            .agg(n_rows="size", sum_g="sum", min_g="min", max_g="max")
        return agg

    partials = ds.map_batches(partial,
                              batch_format="pyarrow").to_pandas()
    if partials.empty or "measure" not in partials.columns:
        return pd.DataFrame({
            "measure": sorted(n for n, _, _ in _CORR_MEASURES),
            "n_rows": np.int64(0), "sum_g": np.int64(0),
            "min_g": np.int64(0), "max_g": np.int64(0)})
    out = partials.groupby("measure", as_index=False).agg(
        n_rows=("n_rows", "sum"), sum_g=("sum_g", "sum"),
        min_g=("min_g", "min"), max_g=("max_g", "max"))
    out = out.astype({c: np.int64
                      for c in ["n_rows", "sum_g", "min_g", "max_g"]})
    return out.sort_values("measure").reset_index(drop=True)


MIN_QUERIES["unpivot_lineitem_measures"] = q_unpivot_lineitem_measures
MIN_ORACLE_SQL["unpivot_lineitem_measures"] = "\nUNION ALL\n".join(f"""
SELECT '{n}' AS measure, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(coalesce(sum(g), 0) AS BIGINT) AS sum_g,
       CAST(coalesce(min(g), 0) AS BIGINT) AS min_g,
       CAST(coalesce(max(g), 0) AS BIGINT) AS max_g
FROM (SELECT CAST(floor({c} * {m} + 0.5) AS BIGINT) AS g
      FROM lineitem)""" for n, c, m in _CORR_MEASURES)


# --------------------------------------------------------------------------
# event pairs within a time window (A -> B sequential-pattern join)
# --------------------------------------------------------------------------

_PAIR_A = "click"
_PAIR_B = "purchase"
_PAIR_WINDOW_US = 3_600_000_000  # 1 hour


def _count_pairs_part(part: pd.DataFrame,
                      window_us: int = _PAIR_WINDOW_US) -> pd.DataFrame:
    """Per-partition vectorized in-window pair count (see
    q_event_pairs_within_hour). Module-level so tests can drive both
    the composite-key fast path and the wide-span fallback."""
    W = np.int64(window_us)
    empty = pd.DataFrame({"user_id": pd.Series([], dtype=np.int64),
                          "n_pairs": pd.Series([], dtype=np.int64)})
    if part.empty:
        return empty
    a = part.loc[~part["is_b"]]
    b = part.loc[part["is_b"]]
    if a.empty or b.empty:
        return empty
    codes, _ = pd.factorize(
        pd.concat([a["user_id"], b["user_id"]], ignore_index=True))
    ga = codes[:len(a)].astype(np.int64)
    gb = codes[len(a):].astype(np.int64)
    t0 = min(int(a["ts"].min()), int(b["ts"].min()))
    ta = a["ts"].to_numpy(np.int64) - t0
    tb = b["ts"].to_numpy(np.int64) - t0
    span = max(int(ta.max()), int(tb.max()))
    shift = span + int(W) + 2
    n_users = int(codes.max()) + 1
    if n_users * shift >= (1 << 62):  # composite axis would wrap
        cnt = np.zeros(n_users, dtype=np.int64)
        order = np.argsort(ga, kind="stable")
        ga_s, ta_s = ga[order], ta[order]
        starts = np.searchsorted(ga_s, np.arange(n_users), "left")
        ends = np.searchsorted(ga_s, np.arange(n_users), "right")
        for g, t_b in pd.Series(tb).groupby(gb):
            lo, hi = starts[g], ends[g]
            if lo == hi:
                continue
            arr = np.sort(ta_s[lo:hi])
            v = t_b.to_numpy(np.int64)
            cnt[g] = int(
                (np.searchsorted(arr, v, "left")
                 - np.searchsorted(arr, np.maximum(v - W, 0),
                                   "left")).sum())
    else:
        s = np.int64(shift)
        key_a = np.sort(ga * s + ta)
        lo = np.searchsorted(key_a, gb * s + np.maximum(tb - W, 0),
                             "left")
        hi = np.searchsorted(key_a, gb * s + tb, "left")
        cnt = np.bincount(gb, weights=hi - lo,
                          minlength=n_users).astype(np.int64)
    uid_of = np.empty(n_users, dtype=np.int64)
    uid_of[ga] = a["user_id"].to_numpy(np.int64)
    uid_of[gb] = b["user_id"].to_numpy(np.int64)
    nz = np.flatnonzero(cnt)
    return pd.DataFrame({"user_id": uid_of[nz],
                         "n_pairs": cnt[nz]})


def q_event_pairs_within_hour(sf_dir: str) -> pd.DataFrame:
    """Per-user count of (click -> purchase) event pairs with
    0 < t_purchase - t_click <= 1 hour — the sequential-pattern /
    temporal-band self-join (SQL: an interval-band self-join; engines
    without band joins do this with an O(n^2) theta join).

    Shape: ONE hash exchange on user_id, then a fully vectorized
    per-partition count. Within a partition, click timestamps are
    encoded onto a composite (user_code * SHIFT + rebased_ts) int64
    axis where SHIFT > max_rebased_ts + window, so one sorted array +
    two np.searchsorted calls per purchase batch count every user's
    in-window clicks at once — no per-user loop, no pair
    materialization. SHIFT overflow (user_count x time_span too wide
    for int64) falls back to a per-user-group loop, documented, never
    wrong."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])

    def project(t: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array([_PAIR_A, _PAIR_B]))
        t = t.filter(keep)
        return pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "is_b": pc.equal(t["event_type"], _PAIR_B)
                .to_numpy(zero_copy_only=False).astype(bool),
            "ts": t["ts"].cast(pa.int64()).to_numpy(
                zero_copy_only=False).astype(np.int64)})

    return grouped_apply(
        ds.map_batches(project, batch_format="pyarrow"),
        ["user_id"], _count_pairs_part, num_partitions=32)


MIN_QUERIES["event_pairs_within_hour"] = q_event_pairs_within_hour
MIN_ORACLE_SQL["event_pairs_within_hour"] = f"""
WITH a AS (SELECT user_id, ts FROM events
           WHERE event_type = '{_PAIR_A}'),
b AS (SELECT user_id, ts FROM events
      WHERE event_type = '{_PAIR_B}')
SELECT a.user_id, CAST(count(*) AS BIGINT) AS n_pairs
FROM a JOIN b ON b.user_id = a.user_id
             AND b.ts > a.ts
             AND b.ts <= a.ts + INTERVAL 1 HOUR
GROUP BY a.user_id
"""


# --------------------------------------------------------------------------
# host-graph additions over the linked-page fixture
# --------------------------------------------------------------------------


def q_host_components(sf_dir: str) -> pd.DataFrame:
    """Connected components of the host link graph (see
    stages/graph.host_components: min-label propagation with pointer
    jumping, fixed idempotent rounds, per-round broadcast + driver
    merge — no per-round exchange)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import host_components
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_components(ds, rounds=6)


def q_mutual_host_links(sf_dir: str) -> pd.DataFrame:
    """Reciprocal host pairs of the directed link graph (see
    stages/graph.mutual_host_links: one canonical-pair exchange)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import mutual_host_links
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return mutual_host_links(ds)


def _sql_edge_ctes(path: str, sql_url_norm: str,
                   distinct_directed: bool = False) -> str:
    """Shared pg/e0/e1/ed CTE prologue of every host-graph twin
    (host normalization, link flattening, self-loop drop, canonical
    undirected pairs) — factored once so an edge-semantics fix cannot
    drift between the four graph twins (review finding).
    ``distinct_directed`` dedups e1 (mutual/reciprocity join on it;
    the aggregate twins don't need the extra distinct)."""
    host_url = sql_url_norm.format(u="url")
    host_lk = sql_url_norm.format(u="lk")
    dis = "DISTINCT " if distinct_directed else ""
    return f"""
WITH pg AS (SELECT url, links FROM read_parquet('{path}')),
e0 AS (SELECT {host_url} AS src, unnest(links) AS lk FROM pg),
e1 AS (SELECT {dis}src, {host_lk} AS dst FROM e0
       WHERE src <> {host_lk}),
ed AS (SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
       FROM e1)"""


def sql_host_components(path: str, rounds: int = 6,
                        sql_url_norm: str | None = None) -> str:
    """Twin: the SAME fixed-round shortcutted update
    lbl' = least(lbl, min neighbor lbl, lbl(lbl)) as chained
    MATERIALIZED CTEs."""
    host_url = sql_url_norm.format(u="url")
    iters = []
    for k in range(1, rounds + 1):
        iters.append(f"""
l{k} AS MATERIALIZED (
  SELECT n.host,
         least(n.lbl,
               coalesce(min(l2.lbl), n.lbl),
               coalesce(min(l3.lbl), n.lbl)) AS lbl
  FROM l{k - 1} n
  LEFT JOIN nb ON nb.u = n.host
  LEFT JOIN l{k - 1} l2 ON l2.host = nb.v
  LEFT JOIN l{k - 1} l3 ON l3.host = n.lbl
  GROUP BY n.host, n.lbl
)""")
    return f"""
{_sql_edge_ctes(path, sql_url_norm)},
nodes AS (SELECT DISTINCT {host_url} AS host FROM pg
          UNION SELECT a FROM ed UNION SELECT b FROM ed),
nb AS (SELECT a AS u, b AS v FROM ed
       UNION ALL SELECT b AS u, a AS v FROM ed),
l0 AS MATERIALIZED (SELECT host, host AS lbl FROM nodes),
{','.join(iters)}
SELECT host, lbl AS component FROM l{rounds}
"""


def sql_mutual_host_links(path: str,
                          sql_url_norm: str | None = None) -> str:
    return f"""
{_sql_edge_ctes(path, sql_url_norm, distinct_directed=True)},
m AS (SELECT x.src AS a, x.dst AS b
      FROM e1 x JOIN e1 y ON y.src = x.dst AND y.dst = x.src
      WHERE x.src < x.dst)
SELECT a, b FROM m
"""


MIN_QUERIES["host_components"] = q_host_components
MIN_QUERIES["mutual_host_links"] = q_mutual_host_links
MIN_LINKED_SQL["host_components"] = sql_host_components
MIN_LINKED_SQL["mutual_host_links"] = sql_mutual_host_links


# --------------------------------------------------------------------------
# shingle containment pairs over linked pages (doc-inside-doc detection)
# --------------------------------------------------------------------------

_CONT_THRESHOLD_NUM = 3  # containment >= 3/10 via integer cross-mult
_CONT_THRESHOLD_DEN = 10
_CONT_MAX_BLOCK = 4096


def q_containment_pairs_pages(sf_dir: str):
    """Asymmetric shingle-containment near-dup pairs over the
    linked-page fixture: ordered (contained, container) doc pairs on
    the SAME host with |S(a) ∩ S(b)| / |S(a)| >= 0.3 over word-3-gram
    shingle sets — the doc-inside-doc signal Jaccard misses by
    construction (a page embedded in a much longer one has low Jaccard
    but containment ~1; Broder 1997's two resemblance measures).

    Unlike blocked_jaccard_pairs there is NO length bucketing — length
    asymmetry is exactly the signal — so the block is the host alone,
    capped at the ``max_block`` smallest doc_ids (overflow logged).
    ONE hash exchange on host; shingle sets are the engine's exact
    mod-P31 content hashes (same family the jaccard twin reproduces
    with string shingles). The threshold gate is integer
    cross-multiplication (inter * 10 >= 3 * |S(a)|); the reported
    ratio is one exact division."""
    import logging

    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.dedup import _shingle_hashes
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.partition import grouped_apply

    log = logging.getLogger(__name__)
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
        "id_contained": pd.Series([], dtype=np.int64),
        "id_container": pd.Series([], dtype=np.int64),
        "containment": pd.Series([], dtype=np.float64)})

    def host_pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for host, g in part.groupby("host", sort=False):
            g = g.sort_values("doc_id")
            if len(g) > _CONT_MAX_BLOCK:
                log.warning(
                    "containment block %r overflows max_block=%d "
                    "(%d rows); keeping the %d smallest ids",
                    host, _CONT_MAX_BLOCK, len(g), _CONT_MAX_BLOCK)
                g = g.head(_CONT_MAX_BLOCK)
            n = len(g)
            if n < 2:
                continue
            doc_idx, hashes = _shingle_hashes(g["text"], 3, n)
            sets = [set() for _ in range(n)]
            for d, h in zip(doc_idx, hashes):
                sets[d].add(int(h))
            ids = g["doc_id"].to_numpy(np.int64)
            for i in range(n):
                for j in range(i + 1, n):
                    si, sj = sets[i], sets[j]
                    if not si and not sj:
                        continue
                    inter = len(si & sj)
                    for x, y in ((i, j), (j, i)):
                        na = len(sets[x])
                        if na > 0 and inter * _CONT_THRESHOLD_DEN \
                                >= na * _CONT_THRESHOLD_NUM:
                            outs.append((ids[x], ids[y], inter / na))
        if not outs:
            return empty
        return pd.DataFrame(outs, columns=["id_contained",
                                           "id_container",
                                           "containment"]) \
            .astype({"id_contained": np.int64,
                     "id_container": np.int64,
                     "containment": np.float64})

    out = grouped_apply(
        ds.map_batches(project, batch_format="pyarrow"),
        ["host"], host_pairs, num_partitions=32).to_pandas()
    # schemaless-empty guard (repo trap): an all-empty exchange loses
    # its column schema on the pandas conversion
    if "id_contained" not in out.columns:
        return empty
    return out


def sql_containment_pairs_pages(path: str,
                                sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    return f"""
WITH pg AS (SELECT doc_id, url, text FROM read_parquet('{path}')),
h AS (SELECT doc_id, {host} AS host,
             regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
      FROM pg),
capped AS (
  SELECT doc_id, host, toks,
         row_number() OVER (PARTITION BY host ORDER BY doc_id) AS rn
  FROM h),
d AS (
  SELECT doc_id, host,
         CASE WHEN len(toks) >= 3
              THEN list_distinct(list_transform(range(1, len(toks) - 1),
                   i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))
              ELSE CAST([] AS VARCHAR[]) END AS s
  FROM capped WHERE rn <= {_CONT_MAX_BLOCK}),
pr AS (
  SELECT a.doc_id AS id_contained, b.doc_id AS id_container,
         len(list_intersect(a.s, b.s)) AS inter, len(a.s) AS na
  FROM d a JOIN d b ON a.host = b.host AND a.doc_id <> b.doc_id)
SELECT CAST(id_contained AS BIGINT) AS id_contained,
       CAST(id_container AS BIGINT) AS id_container,
       CAST(inter AS DOUBLE) / na AS containment
FROM pr
WHERE na > 0 AND inter * {_CONT_THRESHOLD_DEN} >=
      na * {_CONT_THRESHOLD_NUM}
"""


MIN_QUERIES["containment_pairs_pages"] = q_containment_pairs_pages
MIN_LINKED_SQL["containment_pairs_pages"] = sql_containment_pairs_pages


# --------------------------------------------------------------------------
# per-host document cap (deterministic hash-order keep-k)
# --------------------------------------------------------------------------

_CAP_K = 3


def q_cap_docs_per_host(sf_dir: str):
    """Per-host document cap: keep at most k=3 pages per host, chosen
    by deterministic hash order (the anti-SEO-spam / host-balance
    operator every web corpus applies before training; choosing by
    hash rather than doc_id avoids crawl-order bias while staying
    reproducible).

    Shape: per-batch combiner keeps its local k-by-(h, doc_id) per
    host, ONE hash exchange on host, the partition applies the same
    selection — the exchange moves at most k rows per (host, batch)."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "url"])

    def local_cap(t) -> pd.DataFrame:
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        host = _host_of(t["url"], pc).to_numpy(zero_copy_only=False)
        h = (did * np.int64(_PS_KNUTH)) % np.int64(_PS_MOD)
        df = pd.DataFrame({"host": host, "doc_id": did, "h": h})
        df = df.sort_values(["host", "h", "doc_id"], kind="stable")
        return df.groupby("host", sort=False).head(_CAP_K)

    def final_cap(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return pd.DataFrame({
                "host": pd.Series([], dtype=object),
                "doc_id": pd.Series([], dtype=np.int64),
                "h": pd.Series([], dtype=np.int64)})
        part = part.sort_values(["host", "h", "doc_id"], kind="stable")
        return part.groupby("host", sort=False).head(_CAP_K)

    return grouped_apply(ds.map_batches(local_cap,
                                        batch_format="pyarrow"),
                         ["host"], final_cap, num_partitions=32)


def sql_cap_docs_per_host(path: str,
                          sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    return f"""
WITH pg AS (SELECT doc_id, {host} AS host,
                   (doc_id * {_PS_KNUTH}) % {_PS_MOD} AS h
            FROM read_parquet('{path}')),
rk AS (SELECT host, doc_id, h,
              row_number() OVER (PARTITION BY host
                                 ORDER BY h, doc_id) AS rn
       FROM pg)
SELECT host, doc_id, CAST(h AS BIGINT) AS h
FROM rk WHERE rn <= {_CAP_K}
"""


MIN_QUERIES["cap_docs_per_host"] = q_cap_docs_per_host
MIN_LINKED_SQL["cap_docs_per_host"] = sql_cap_docs_per_host


# --------------------------------------------------------------------------
# URL structural profile per host
# --------------------------------------------------------------------------


def _url_host_path(url_col, pc):
    """Shared (normalized host, query/fragment-free path) extraction —
    factored so path semantics cannot drift between the URL-profiling
    queries and their twins (same drift class as _sql_edge_ctes'
    review finding)."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.graph import _host_of

    url = pc.fill_null(url_col, "")
    host = _host_of(url, pc).to_numpy(zero_copy_only=False)
    tail = pc.replace_substring_regex(
        url, r"^(?i:https?)://[^/?#]+", "")
    ext = pc.extract_regex(tail, r"^(?P<p>[^?#]*)")
    if isinstance(ext, pa.ChunkedArray):
        ext = ext.combine_chunks()
    path = pc.struct_field(ext, "p").to_numpy(zero_copy_only=False)
    return host, path


def q_url_structure_stats(sf_dir: str) -> pd.DataFrame:
    """Per-host URL structure profile over the linked-page fixture:
    page count, pages with a query string, total and average path
    depth ('/' count in the path component) — the crawl-frontier
    diagnostic (deep/parameterized URL farms are a classic spam
    signal). Vectorized Arrow regex/count kernels in the per-batch
    combiner; hosts are the small side, so the driver merge is
    O(hosts x blocks); avg is one exact division."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import (
        _linked_pages_path, _merge_partials)

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url"])

    def partial(t) -> pd.DataFrame:
        url = pc.fill_null(t["url"], "")
        host, path_np = _url_host_path(t["url"], pc)
        path = pa.array(path_np, pa.string())
        depth = pc.count_substring(path, "/") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        has_q = (pc.find_substring(url, "?").to_numpy(
            zero_copy_only=False) >= 0).astype(np.int64)
        df = pd.DataFrame({"host": host, "n_pages": 1,
                           "n_query": has_q, "sum_depth": depth})
        return df.groupby("host", as_index=False).sum()

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["host"], {"n_pages": "sum", "n_query": "sum",
                   "sum_depth": "sum"})
    out = out.astype({c: np.int64
                      for c in ["n_pages", "n_query", "sum_depth"]})
    out["avg_depth"] = out["sum_depth"].to_numpy(np.float64) \
        / out["n_pages"].to_numpy(np.float64)
    return out.sort_values("host").reset_index(drop=True)


def sql_url_structure_stats(path: str,
                            sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    return f"""
WITH pg AS (SELECT coalesce(url, '') AS url
            FROM read_parquet('{path}')),
s AS (SELECT {host} AS host,
             regexp_extract(regexp_replace(url,
                 '^(?i:https?)://[^/?#]+', ''), '^[^?#]*') AS path,
             CASE WHEN contains(url, '?') THEN 1 ELSE 0 END AS hq
      FROM pg),
m AS (SELECT host, CAST(count(*) AS BIGINT) AS n_pages,
             CAST(sum(hq) AS BIGINT) AS n_query,
             CAST(sum(len(path) - len(replace(path, '/', '')))
                  AS BIGINT) AS sum_depth
      FROM s GROUP BY host)
SELECT host, n_pages, n_query, sum_depth,
       CAST(sum_depth AS DOUBLE) / CAST(n_pages AS DOUBLE) AS avg_depth
FROM m
"""


MIN_QUERIES["url_structure_stats"] = q_url_structure_stats
MIN_LINKED_SQL["url_structure_stats"] = sql_url_structure_stats


# --------------------------------------------------------------------------
# host degree assortativity
# --------------------------------------------------------------------------


def q_host_degree_assortativity(sf_dir: str) -> pd.DataFrame:
    """Degree assortativity of the host link graph (see
    stages/graph.host_degree_assortativity)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import \
        host_degree_assortativity
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_degree_assortativity(ds)


def sql_host_degree_assortativity(path: str,
                                  sql_url_norm: str | None = None) -> str:
    return f"""
{_sql_edge_ctes(path, sql_url_norm)},
deg AS (SELECT h, CAST(count(*) AS BIGINT) AS d FROM (
          SELECT a AS h FROM ed UNION ALL SELECT b AS h FROM ed)
        GROUP BY h),
pairs AS (
  SELECT da.d AS x, db.d AS y FROM ed
    JOIN deg da ON da.h = ed.a JOIN deg db ON db.h = ed.b
  UNION ALL
  SELECT db.d AS x, da.d AS y FROM ed
    JOIN deg da ON da.h = ed.a JOIN deg db ON db.h = ed.b),
m AS (SELECT CAST(count(*) AS BIGINT) AS n, sum(x) AS sx,
             sum(x * x) AS sxx, sum(x * y) AS sxy
      FROM pairs)
SELECT n AS n_pairs,
       CASE WHEN n = 0 OR n * sxx - sx * sx = 0 THEN 0.0 ELSE
       (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
        - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
       / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) END
           AS assortativity
FROM m
"""


MIN_QUERIES["host_degree_assortativity"] = q_host_degree_assortativity
MIN_LINKED_SQL["host_degree_assortativity"] = \
    sql_host_degree_assortativity


# --------------------------------------------------------------------------
# time to first purchase (per-user event-time KPI)
# --------------------------------------------------------------------------


def q_time_to_first_purchase(sf_dir: str):
    """Per-user signup-to-first-purchase delay: min signup ts, min
    purchase ts, and their microsecond difference, for users whose
    first purchase is not before their first signup — the canonical
    event-time KPI (activation latency). ONE hash exchange on user_id
    over the two-type projection; mins and the int64 diff are exact."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_type", "ts"])

    def project(t: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["signup", "purchase"]))
        t = t.filter(keep)
        return pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "is_purchase": pc.equal(t["event_type"], "purchase")
                .to_numpy(zero_copy_only=False).astype(bool),
            "ts_us": t["ts"].cast(pa.int64()).to_numpy(
                zero_copy_only=False).astype(np.int64)})

    def per_user(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": pd.Series([], dtype=np.int64),
            "signup_ts": pd.Series([], dtype="datetime64[us]"),
            "first_purchase_ts": pd.Series([], dtype="datetime64[us]"),
            "delay_us": pd.Series([], dtype=np.int64)})
        if part.empty:
            return empty
        s = part.loc[~part["is_purchase"]] \
            .groupby("user_id")["ts_us"].min()
        p = part.loc[part["is_purchase"]] \
            .groupby("user_id")["ts_us"].min()
        both = s.index.intersection(p.index)
        if not len(both):
            return empty
        sv = s.loc[both].to_numpy(np.int64)
        pv = p.loc[both].to_numpy(np.int64)
        ok = pv >= sv
        return pd.DataFrame({
            "user_id": both.to_numpy(np.int64)[ok],
            "signup_ts": sv[ok].astype("datetime64[us]"),
            "first_purchase_ts": pv[ok].astype("datetime64[us]"),
            "delay_us": (pv - sv)[ok]})

    return grouped_apply(
        ds.map_batches(project, batch_format="pyarrow"),
        ["user_id"], per_user, num_partitions=32)


MIN_QUERIES["time_to_first_purchase"] = q_time_to_first_purchase
MIN_ORACLE_SQL["time_to_first_purchase"] = """
WITH s AS (SELECT user_id, min(ts) AS signup_ts FROM events
           WHERE event_type = 'signup' GROUP BY user_id),
p AS (SELECT user_id, min(ts) AS first_purchase_ts FROM events
      WHERE event_type = 'purchase' GROUP BY user_id)
SELECT s.user_id, s.signup_ts, p.first_purchase_ts,
       CAST(epoch_us(p.first_purchase_ts) - epoch_us(s.signup_ts)
            AS BIGINT) AS delay_us
FROM s JOIN p ON p.user_id = s.user_id
WHERE p.first_purchase_ts >= s.signup_ts
"""


# --------------------------------------------------------------------------
# language-ID confusion matrix (classifier evaluation)
# --------------------------------------------------------------------------


def q_langid_confusion(sf_dir: str) -> pd.DataFrame:
    """Confusion matrix of the language-ID stage against the corpus
    labels: (lang, lang_pred, n) — the classifier-evaluation operator
    (per-class precision/recall derive from these counts). The fused
    Arrow signal pass predicts, a per-batch combiner counts, and the
    driver merges the bounded (|langs|^2)-row table."""
    from nacc_form_validator_ray.pipelines.queries import (
        _merge_partials)
    from nacc_form_validator_ray.stages.text_signals import TextStats

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text", "lang"])
    pred = ds.map_batches(TextStats(langid=True),
                          batch_format="pyarrow", batch_size=4096)

    def partial(t) -> pd.DataFrame:
        df = pd.DataFrame({
            "lang": t["lang"].to_pandas().fillna(""),
            "lang_pred": t["lang_pred"].to_pandas()})
        df["n"] = 1
        return df.groupby(["lang", "lang_pred"], as_index=False).sum()

    out = _merge_partials(pred.map_batches(partial,
                                           batch_format="pyarrow"),
                          ["lang", "lang_pred"], {"n": "sum"})
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["lang", "lang_pred"]).reset_index(drop=True)


def sql_langid_confusion(sql_langid: str) -> str:
    """Twin builder: takes queries.SQL_LANGID as an argument instead
    of importing it, so this module never imports pipelines.queries at
    module scope — importing mining BEFORE queries used to run this
    after queries had already snapshotted MIN_ORACLE_SQL, silently
    degrading langid_confusion to a rows-only check (review finding).
    queries.py registers the entry at its bottom, where SQL_LANGID is
    always defined. The d.lang coalesce matches the engine's
    fillna('') (null labels are a defined '' class on both sides)."""
    return f"""
WITH L AS ({sql_langid})
SELECT coalesce(d.lang, '') AS lang, L.lang_pred,
       CAST(count(*) AS BIGINT) AS n
FROM L JOIN documents d ON d.doc_id = L.doc_id
GROUP BY coalesce(d.lang, ''), L.lang_pred
"""


MIN_QUERIES["langid_confusion"] = q_langid_confusion
# the oracle is registered by pipelines/queries.py itself (it owns
# SQL_LANGID) — see sql_langid_confusion's docstring for why this
# module must not resolve it at import time


# --------------------------------------------------------------------------
# market-basket co-purchase pairs over lineitem
# --------------------------------------------------------------------------


def _grouped_topk(partials_ds, key_cols, count_col, min_count, k,
                  empty_dtypes, num_partitions=16):
    """Shared tail of the count-then-top-k family (co-purchase,
    skip-grams): ONE grouped-sum exchange on ``key_cols`` merges the
    per-batch count partials, each partition applies the min-count
    filter and keeps its local top-k by (count DESC, keys ASC) — the
    twin's exact ORDER BY — and the driver re-applies the same
    selection to the k x partitions candidates. Factored once so a
    tie-break or empty-contract fix cannot drift between operators
    (review finding)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    order_cols = [count_col] + list(key_cols)
    ascending = [False] + [True] * len(key_cols)

    def topk_part(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return part
        agg = part.groupby(list(key_cols),
                           as_index=False)[count_col].sum()
        agg = agg.loc[agg[count_col] >= min_count]
        return agg.sort_values(order_cols, ascending=ascending,
                               kind="stable").head(k)

    cand = grouped_apply(partials_ds, list(key_cols), topk_part,
                         num_partitions=num_partitions).to_pandas()
    if cand.empty or key_cols[0] not in cand.columns:
        return pd.DataFrame({c: pd.Series([], dtype=dt)
                             for c, dt in empty_dtypes.items()})
    return cand.sort_values(order_cols, ascending=ascending,
                            kind="stable").head(k) \
        .reset_index(drop=True).astype({count_col: np.int64})


_COP_MIN_COUNT = 2
_COP_TOPK = 100


def q_copurchase_part_pairs(sf_dir: str) -> pd.DataFrame:
    """Top co-purchased part pairs: parts appearing in the SAME order
    (distinct per order), counted across orders, support >=
    ``_COP_MIN_COUNT``, top-100 by (count DESC, p1, p2) — the
    market-basket pair miner at the item level (the big-cardinality
    sibling of event_type_cooccurrence's 25-type bitmask trick).

    Shape: per-batch local (order, part) dedup, ONE exchange on
    orderkey co-locates each basket, a vectorized within-partition
    self-merge emits p1 < p2 pairs (baskets are small — pair count is
    sum m_i(m_i-1)/2), a SECOND grouped-sum exchange on the pair key
    merges supports, and per-partition top-k partials bound the driver
    merge at k x partitions rows."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_partkey"])

    def local_dedup(t: "pa.Table") -> pd.DataFrame:
        return pd.DataFrame({
            "o": t["l_orderkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "p": t["l_partkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64)}).drop_duplicates()

    def basket_pairs(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"p1": pd.Series([], dtype=np.int64),
                              "p2": pd.Series([], dtype=np.int64),
                              "cnt": pd.Series([], dtype=np.int64)})
        if part.empty:
            return empty
        part = part.drop_duplicates()
        m = part.merge(part, on="o")
        m = m.loc[m["p_x"] < m["p_y"]]
        if m.empty:
            return empty
        out = m.groupby(["p_x", "p_y"], as_index=False).size()
        out.columns = ["p1", "p2", "cnt"]
        return out.astype({"cnt": np.int64})

    pairs = grouped_apply(
        ds.map_batches(local_dedup, batch_format="pyarrow"),
        ["o"], basket_pairs, num_partitions=32)

    return _grouped_topk(
        pairs, ["p1", "p2"], "cnt", _COP_MIN_COUNT, _COP_TOPK,
        {"p1": np.int64, "p2": np.int64, "cnt": np.int64})


MIN_QUERIES["copurchase_part_pairs"] = q_copurchase_part_pairs
MIN_ORACLE_SQL["copurchase_part_pairs"] = f"""
WITH b AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
           FROM lineitem),
pr AS (SELECT a.p AS p1, b2.p AS p2, CAST(count(*) AS BIGINT) AS cnt
       FROM b a JOIN b b2 ON b2.o = a.o AND a.p < b2.p
       GROUP BY a.p, b2.p)
SELECT p1, p2, cnt FROM pr
WHERE cnt >= {_COP_MIN_COUNT}
ORDER BY cnt DESC, p1, p2
LIMIT {_COP_TOPK}
"""


# --------------------------------------------------------------------------
# per-user event-type Gini diversity
# --------------------------------------------------------------------------


def q_user_type_gini(sf_dir: str):
    """Per-user Gini impurity of the event-type distribution
    (1 - sum_i (c_i/n)^2) — the diversity/concentration metric behind
    engagement segmentation, in exact arithmetic: integer counts,
    ONE division of exact doubles (no entropy logs — see module
    docstring). Per-batch (user, type) count combiner, ONE exchange
    on user_id, per-partition merge + gini."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_type"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        df = pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "event_type": t["event_type"].to_pandas().fillna("")})
        df["c"] = 1
        return df.groupby(["user_id", "event_type"],
                          as_index=False).sum()

    def per_user(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return pd.DataFrame({
                "user_id": pd.Series([], dtype=np.int64),
                "n_events": pd.Series([], dtype=np.int64),
                "gini": pd.Series([], dtype=np.float64)})
        c = part.groupby(["user_id", "event_type"],
                         as_index=False)["c"].sum()
        c["c2"] = c["c"] * c["c"]
        g = c.groupby("user_id", as_index=False).agg(
            n_events=("c", "sum"), sc2=("c2", "sum"))
        nf = g["n_events"].to_numpy(np.float64)
        # same expression order as the twin: one division, one subtract
        g["gini"] = 1.0 - g["sc2"].to_numpy(np.float64) / (nf * nf)
        return g[["user_id", "n_events", "gini"]] \
            .astype({"n_events": np.int64})

    return grouped_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"], per_user, num_partitions=32)


MIN_QUERIES["user_type_gini"] = q_user_type_gini
MIN_ORACLE_SQL["user_type_gini"] = """
WITH c AS (
  SELECT user_id, coalesce(event_type, '') AS event_type,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY user_id, coalesce(event_type, '')),
m AS (
  SELECT user_id, CAST(sum(c) AS BIGINT) AS n_events,
         CAST(sum(c * c) AS BIGINT) AS sc2
  FROM c GROUP BY user_id)
SELECT user_id, n_events,
       1.0 - CAST(sc2 AS DOUBLE)
             / (CAST(n_events AS DOUBLE) * CAST(n_events AS DOUBLE))
           AS gini
FROM m
"""


# --------------------------------------------------------------------------
# skip-gram co-occurrence counts (word2vec-precursor statistics)
# --------------------------------------------------------------------------

_SG_WINDOW = 3
_SG_MIN_COUNT = 3
_SG_TOPK = 200


def q_skipgram_counts(sf_dir: str) -> pd.DataFrame:
    """Top skip-gram pairs: ordered token pairs (t_i, t_j) with
    0 < j - i <= 3 within a document, counted over the corpus — the
    co-occurrence statistic every embedding trainer (word2vec/GloVe)
    consumes. Same fabric as pmi_bigrams: one tokenizing pass emits
    one skip-pair count partial per distance
    (``text_signals.ngram_counts`` with ``gap=d``), ONE grouped-sum
    exchange merges counts, per-partition top-k partials bound the
    driver merge."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["text"])

    def count_partial(t: "pa.Table") -> "pa.Table":
        tokens = arrow_token_codes(t["text"])
        return pa.concat_tables([
            ngram_counts(tokens, 2, gap=d)
            for d in range(1, _SG_WINDOW + 1)]) \
            .rename_columns(["w1", "w2", "c"])

    return _grouped_topk(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["w1", "w2"], "c", _SG_MIN_COUNT, _SG_TOPK,
        {"w1": object, "w2": object, "c": np.int64},
        num_partitions=32)


MIN_QUERIES["skipgram_counts"] = q_skipgram_counts
MIN_ORACLE_SQL["skipgram_counts"] = f"""
WITH t AS (
  SELECT regexp_extract_all(lower(text), '[a-z]+') AS toks
  FROM documents),
pos AS (
  SELECT toks, unnest(range(1, len(toks) + 1)) AS i FROM t),
pr AS (
  SELECT toks[i] AS w1, toks[i + d] AS w2
  FROM pos, (SELECT unnest(range(1, {_SG_WINDOW} + 1)) AS d)
  WHERE i + d <= len(toks)),
c AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS c
  FROM pr GROUP BY w1, w2)
SELECT w1, w2, c FROM c
WHERE c >= {_SG_MIN_COUNT}
ORDER BY c DESC, w1, w2
LIMIT {_SG_TOPK}
"""


# --------------------------------------------------------------------------
# inter-event gap histogram (log2-bucketed latency distribution)
# --------------------------------------------------------------------------


def q_gap_histogram_events(sf_dir: str) -> pd.DataFrame:
    """Histogram of inter-event gaps per user, log2-bucketed: for each
    user's time-sorted event stream, bucket every POSITIVE gap between
    consecutive events at floor(log2(gap_us)) and count — the latency/
    cadence profile (bot detection, sessionization threshold tuning)
    in exact integer arithmetic (the advanced-module floor-log2, never
    float log2, which mis-rounds across power boundaries).

    Tie note: equal timestamps make the consecutive-gap multiset
    independent of their relative order (their pairwise gaps are 0 and
    excluded), so neither engine needs a tiebreak. ONE hash exchange on
    user_id; per-partition sort + diff + bincount partials; the driver
    merges <= 64 bucket rows."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.advanced import \
        _floor_log2_u64
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts"])

    def project(t: "pa.Table") -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "ts_us": t["ts"].cast(pa.int64()).to_numpy(
                zero_copy_only=False).astype(np.int64)})

    def bucket_partial(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"bucket": pd.Series([], dtype=np.int64),
                              "n": pd.Series([], dtype=np.int64)})
        if part.empty:
            return empty
        part = part.sort_values(["user_id", "ts_us"], kind="stable")
        u = part["user_id"].to_numpy(np.int64)
        ts = part["ts_us"].to_numpy(np.int64)
        same = u[1:] == u[:-1]
        gap = (ts[1:] - ts[:-1])[same]
        gap = gap[gap > 0]
        if not len(gap):
            return empty
        b = _floor_log2_u64(gap.astype(np.uint64))
        ub, cnt = np.unique(b, return_counts=True)
        return pd.DataFrame({"bucket": ub.astype(np.int64),
                             "n": cnt.astype(np.int64)})

    parts = grouped_apply(
        ds.map_batches(project, batch_format="pyarrow"),
        ["user_id"], bucket_partial, num_partitions=32).to_pandas()
    if parts.empty or "bucket" not in parts.columns:
        return pd.DataFrame({"bucket": pd.Series([], dtype=np.int64),
                             "n": pd.Series([], dtype=np.int64)})
    out = parts.groupby("bucket", as_index=False)["n"].sum()
    return out.sort_values("bucket").reset_index(drop=True) \
        .astype({"n": np.int64})


MIN_QUERIES["gap_histogram_events"] = q_gap_histogram_events
MIN_ORACLE_SQL["gap_histogram_events"] = """
WITH g AS (
  SELECT user_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS pts
  FROM events),
d AS (
  SELECT epoch_us(ts) - epoch_us(pts) AS gap
  FROM g WHERE pts IS NOT NULL AND ts > pts)
SELECT CAST(length(bin(gap)) - 1 AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM d GROUP BY bucket
"""


# --------------------------------------------------------------------------
# dedup cluster-size distribution
# --------------------------------------------------------------------------


def q_dedup_cluster_sizes(sf_dir: str) -> pd.DataFrame:
    """Size distribution of the MinHash near-dup clusters: how many
    clusters have 1, 2, 3... members — the dedup-audit readout
    (cluster-size tails reveal boilerplate storms). Composes the
    oracled dedup_clusters labeling; the labels are already the
    propagate_labels driver merge, so two bounded groupbys finish the
    histogram (at corpus scale, route the first count through a
    cluster-key exchange instead)."""
    from nacc_form_validator_ray.pipelines.queries import QUERIES

    labels = QUERIES["dedup_clusters"](sf_dir)
    if hasattr(labels, "to_pandas"):
        labels = labels.to_pandas()
    sizes = labels.groupby("cluster").size()
    hist = sizes.value_counts().sort_index()
    return pd.DataFrame({
        "size": hist.index.to_numpy(np.int64),
        "n_clusters": hist.to_numpy(np.int64)})


def _sql_dedup_cluster_sizes() -> str:
    from nacc_form_validator_ray.pipelines.queries import ORACLE_SQL
    return f"""
SELECT size, CAST(count(*) AS BIGINT) AS n_clusters FROM (
  SELECT cluster, CAST(count(*) AS BIGINT) AS size
  FROM ({ORACLE_SQL["dedup_clusters"]})
  GROUP BY cluster)
GROUP BY size
"""


MIN_QUERIES["dedup_cluster_sizes"] = q_dedup_cluster_sizes
#: resolved by queries.py at its bottom (same registration-order
#: rationale as langid_confusion)


# --------------------------------------------------------------------------
# IVF ANN recall evaluation (brute-force kNN as ground truth)
# --------------------------------------------------------------------------


def q_ivf_recall_eval(sf_dir: str) -> pd.DataFrame:
    """Recall@10 of the IVF approximate-nearest-neighbor path against
    the exact brute-force kNN, per query vector — the ANN quality
    audit every index deployment needs (recall tells you whether
    n_probe / n_centroids are tuned). Composes two oracled pipelines;
    the intersection and the /10 division are exact."""
    from nacc_form_validator_ray.pipelines.queries import QUERIES
    bf = QUERIES["knn_embeddings"](sf_dir)
    iv = QUERIES["ivf_knn_embeddings"](sf_dir)
    bf = bf.to_pandas() if hasattr(bf, "to_pandas") else bf
    iv = iv.to_pandas() if hasattr(iv, "to_pandas") else iv
    hit = bf.merge(iv, on=["query_id", "neighbor_id"])
    n_hit = hit.groupby("query_id").size()
    qs = np.sort(bf["query_id"].unique()).astype(np.int64)
    nh = np.asarray([int(n_hit.get(q, 0)) for q in qs],
                    dtype=np.int64)
    return pd.DataFrame({
        "query_id": qs, "n_hit": nh,
        "recall": nh.astype(np.float64) / 10.0})


def sql_ivf_recall_eval(knn_sql: str, ivf_sql: str) -> str:
    return f"""
WITH bf AS ({knn_sql}),
iv AS ({ivf_sql}),
h AS (SELECT bf.query_id, CAST(count(*) AS BIGINT) AS n_hit
      FROM bf JOIN iv ON iv.query_id = bf.query_id
                     AND iv.neighbor_id = bf.neighbor_id
      GROUP BY bf.query_id),
qs AS (SELECT DISTINCT query_id FROM bf)
SELECT qs.query_id, coalesce(h.n_hit, 0) AS n_hit,
       CAST(coalesce(h.n_hit, 0) AS DOUBLE) / 10.0 AS recall
FROM qs LEFT JOIN h ON h.query_id = qs.query_id
"""


MIN_QUERIES["ivf_recall_eval"] = q_ivf_recall_eval


# --------------------------------------------------------------------------
# MinHash candidate verification (estimated pairs vs exact Jaccard)
# --------------------------------------------------------------------------


def q_minhash_verify_pairs(sf_dir: str) -> pd.DataFrame:
    """The verify stage of candidate-based near-dedup as a first-class
    audit: every MinHash band-collision pair joined with its EXACT
    shingle-set Jaccard — (id_a, id_b, n_bands, jaccard). Reading it
    tells you the banding's false-positive rate before you act on the
    pairs. The candidate set is dup-rate-bounded, so pulling it to the
    driver and fetching ONLY the involved documents (pushed-down is_in
    filter) is the lean plan; at corpus scale swap the driver join for
    a hash join on id (stages/joins.py) — same semantics.

    The Jaccard here is computed over the true shingle STRING sets of
    the (bounded) involved documents, not the engine's mod-P31 hash
    sets — a hash collision would silently shrink a set and diverge
    from both the twin and the real value (review finding); the
    verify stage is exactly where that shortcut is not acceptable."""
    import re

    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.dedup import \
        minhash_candidate_pairs

    docs = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(docs, threshold=0.5).to_pandas()
    empty = pd.DataFrame({
        "id_a": pd.Series([], dtype=np.int64),
        "id_b": pd.Series([], dtype=np.int64),
        "n_bands": pd.Series([], dtype=np.int64),
        "jaccard": pd.Series([], dtype=np.float64)})
    if pairs.empty or "id_a" not in pairs.columns:
        return empty
    ids = np.unique(np.concatenate([pairs["id_a"].to_numpy(np.int64),
                                    pairs["id_b"].to_numpy(np.int64)]))
    involved = docs.map_batches(
        lambda t: t.filter(pc.is_in(t["doc_id"],
                                    value_set=pa.array(ids))),
        batch_format="pyarrow").to_pandas()
    tok_re = re.compile(r"[a-z0-9]+")
    sets = {}
    for did_v, text in zip(involved["doc_id"], involved["text"]):
        toks = tok_re.findall((text or "").lower())
        sets[int(did_v)] = {" ".join(toks[i:i + 3])
                            for i in range(len(toks) - 2)}
    ja = []
    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        sa, sb = sets[int(a)], sets[int(b)]
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        ja.append(inter / union if union else 0.0)
    out = pairs[["id_a", "id_b", "n_bands"]].copy() \
        .astype({"id_a": np.int64, "id_b": np.int64,
                 "n_bands": np.int64})
    out["jaccard"] = np.asarray(ja, dtype=np.float64)
    return out.reset_index(drop=True)


def sql_minhash_verify_pairs(minhash_sql: str) -> str:
    inter = "len(list_intersect(a.s, b.s))"
    union = f"(len(a.s) + len(b.s) - {inter})"
    return f"""
WITH mp AS ({minhash_sql}),
t AS (SELECT doc_id,
             regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
      FROM documents),
d AS (SELECT doc_id,
             CASE WHEN len(toks) >= 3
                  THEN list_distinct(list_transform(
                       range(1, len(toks) - 1),
                       i -> toks[i] || ' ' || toks[i+1] || ' '
                            || toks[i+2]))
                  ELSE CAST([] AS VARCHAR[]) END AS s
      FROM t)
SELECT mp.id_a, mp.id_b, mp.n_bands,
       CASE WHEN {union} = 0 THEN 0.0
            ELSE CAST({inter} AS DOUBLE) / {union} END AS jaccard
FROM mp JOIN d a ON a.doc_id = mp.id_a
        JOIN d b ON b.doc_id = mp.id_b
"""


MIN_QUERIES["minhash_verify_pairs"] = q_minhash_verify_pairs


# --------------------------------------------------------------------------
# per-host boilerplate (duplicated-line) fraction
# --------------------------------------------------------------------------


def q_host_boilerplate_frac(sf_dir: str):
    """Per-host boilerplate score: the fraction of (non-blank) line
    occurrences on a host whose line text appears 2+ times within that
    host — the template-detection diagnostic behind C4/CCNet-style
    line filtering, aggregated where the decision is made (per host).
    ONE exchange on host carrying per-batch (host, line, count)
    combiner rows (at 100-TB hash the line like line_dedup_docs);
    per-partition merge, exact division."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "text"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        host = _host_of(t["url"], pc)
        lines = pc.split_pattern(pc.fill_null(t["text"], ""), "\n")
        counts = pc.list_value_length(lines).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lines).to_numpy(zero_copy_only=False)
        hrep = host.to_numpy(zero_copy_only=False)[
            np.repeat(np.arange(len(t), dtype=np.int64), counts)]
        df = pd.DataFrame({"host": hrep, "line": flat})
        df = df.loc[df["line"] != ""]
        df["c"] = 1
        return df.groupby(["host", "line"], as_index=False).sum()

    def per_host(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "host": pd.Series([], dtype=object),
            "n_lines": pd.Series([], dtype=np.int64),
            "n_dup_lines": pd.Series([], dtype=np.int64),
            "dup_frac": pd.Series([], dtype=np.float64)})
        if part.empty:
            return empty
        c = part.groupby(["host", "line"], as_index=False)["c"].sum()
        c["dup"] = np.where(c["c"] >= 2, c["c"], 0)
        g = c.groupby("host", as_index=False).agg(
            n_lines=("c", "sum"), n_dup_lines=("dup", "sum"))
        g["dup_frac"] = g["n_dup_lines"].to_numpy(np.float64) \
            / g["n_lines"].to_numpy(np.float64)
        return g.astype({"n_lines": np.int64,
                         "n_dup_lines": np.int64})

    return grouped_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["host"], per_host, num_partitions=32)


def sql_host_boilerplate_frac(path: str,
                              sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    return f"""
WITH pg AS (SELECT {host} AS host,
                   string_split(coalesce(text, ''), chr(10)) AS ls
            FROM read_parquet('{path}')),
lns AS (SELECT host, unnest(ls) AS ln FROM pg),
c AS (SELECT host, ln, CAST(count(*) AS BIGINT) AS c
      FROM lns WHERE ln <> '' GROUP BY host, ln),
m AS (SELECT host, CAST(sum(c) AS BIGINT) AS n_lines,
             CAST(sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS BIGINT)
                 AS n_dup_lines
      FROM c GROUP BY host)
SELECT host, n_lines, n_dup_lines,
       CAST(n_dup_lines AS DOUBLE) / CAST(n_lines AS DOUBLE)
           AS dup_frac
FROM m
"""


MIN_QUERIES["host_boilerplate_frac"] = q_host_boilerplate_frac
MIN_LINKED_SQL["host_boilerplate_frac"] = sql_host_boilerplate_frac


# --------------------------------------------------------------------------
# sequence-packing efficiency audit
# --------------------------------------------------------------------------

_PACK_SEQ_LEN = 512


def q_pack_efficiency(sf_dir: str) -> pd.DataFrame:
    """Packing-efficiency audit over the pack_sequences manifest: how
    many 512-token sequences exist, how many are exactly full, total
    packed tokens, and the aggregate fill fraction — the readout that
    tells you whether the packer wastes context window. Per-batch
    (seq_id, token) partials ride ONE exchange on seq_id (a sequence's
    spans can straddle batches); per-partition summary partials leave
    3 ints each; the driver merge and the fill division are exact."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    from nacc_form_validator_ray.pipelines.queries import QUERIES
    manifest = QUERIES["pack_sequences"](sf_dir)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("seq_id", as_index=False)["n_tokens_span"] \
            .sum()

    def per_seq(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "n_seqs": pd.Series([], dtype=np.int64),
            "n_full": pd.Series([], dtype=np.int64),
            "total_tokens": pd.Series([], dtype=np.int64)})
        if part.empty:
            return empty
        tok = part.groupby("seq_id")["n_tokens_span"].sum()
        return pd.DataFrame({
            "n_seqs": [np.int64(len(tok))],
            "n_full": [np.int64(int((tok == _PACK_SEQ_LEN).sum()))],
            "total_tokens": [np.int64(int(tok.sum()))]})

    parts = grouped_apply(
        manifest.map_batches(partial, batch_format="pandas"),
        ["seq_id"], per_seq, num_partitions=16).to_pandas()
    if parts.empty or "n_seqs" not in parts.columns:
        n_seqs = n_full = total = 0
    else:
        n_seqs = int(parts["n_seqs"].sum())
        n_full = int(parts["n_full"].sum())
        total = int(parts["total_tokens"].sum())
    fill = (float(total) / float(n_seqs * _PACK_SEQ_LEN)
            if n_seqs else 0.0)
    return pd.DataFrame({
        "n_seqs": pd.Series([n_seqs], dtype=np.int64),
        "n_full": pd.Series([n_full], dtype=np.int64),
        "total_tokens": pd.Series([total], dtype=np.int64),
        "fill_frac": pd.Series([fill], dtype=np.float64)})


def sql_pack_efficiency(pack_sql: str) -> str:
    return f"""
WITH m AS ({pack_sql}),
s AS (SELECT seq_id, CAST(sum(n_tokens_span) AS BIGINT) AS tok
      FROM m GROUP BY seq_id),
a AS (SELECT CAST(count(*) AS BIGINT) AS n_seqs,
             CAST(coalesce(sum(CASE WHEN tok = {_PACK_SEQ_LEN}
                                    THEN 1 ELSE 0 END), 0)
                  AS BIGINT) AS n_full,
             CAST(coalesce(sum(tok), 0) AS BIGINT) AS total_tokens
      FROM s)
SELECT n_seqs, n_full, total_tokens,
       CASE WHEN n_seqs = 0 THEN 0.0
            ELSE CAST(total_tokens AS DOUBLE)
                 / CAST(n_seqs * {_PACK_SEQ_LEN} AS DOUBLE) END
           AS fill_frac
FROM a
"""


MIN_QUERIES["pack_efficiency"] = q_pack_efficiency


# --------------------------------------------------------------------------
# Pareto revenue cut (ABC analysis over parts)
# --------------------------------------------------------------------------


def q_pareto_revenue_cut(sf_dir: str) -> pd.DataFrame:
    """ABC / Pareto analysis: how many parts (by descending revenue)
    cover half of total revenue. Revenue rides the repo's TPC-H money
    grid (price_c * (100 - disc_c), exact int64). The per-part
    aggregation is ONE partkey exchange of per-batch partials; the
    part-level table is then pulled (bounded by |parts|; at larger
    part universes run the cumsum on stages/ranking.py's ONE range
    exchange instead) and the prefix statistic computed once.

    ``n_parts_half`` is DEFINED as (# prefix positions with
    2*cum < total) + 1 over the (revenue DESC, partkey) order, capped
    at the part count — identical on both engines even when negative
    fuzz revenues make the cumsum non-monotonic (then it is an upper
    bound of the minimal crossing prefix, not the minimum itself)."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        pk = t["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        price_c = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        disc_c = np.floor(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame({"l_partkey": pk,
                           "rev": price_c * (100 - disc_c)})
        return df.groupby("l_partkey", as_index=False).sum()

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return pd.DataFrame({
                "l_partkey": pd.Series([], dtype=np.int64),
                "rev": pd.Series([], dtype=np.int64)})
        return part.groupby("l_partkey", as_index=False)["rev"].sum()

    parts = grouped_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_partkey"], per_part, num_partitions=16).to_pandas()
    if parts.empty or "l_partkey" not in parts.columns:
        return pd.DataFrame({
            "n_parts_half": pd.Series([0], dtype=np.int64),
            "n_parts_total": pd.Series([0], dtype=np.int64),
            "total_rev": pd.Series([0], dtype=np.int64)})
    parts = parts.sort_values(["rev", "l_partkey"],
                              ascending=[False, True], kind="stable")
    rev = parts["rev"].to_numpy(np.int64)
    total = int(rev.sum())
    cum = np.cumsum(rev)
    k = int((2 * cum < total).sum()) + 1
    k = min(k, len(rev))
    return pd.DataFrame({
        "n_parts_half": pd.Series([k], dtype=np.int64),
        "n_parts_total": pd.Series([len(rev)], dtype=np.int64),
        "total_rev": pd.Series([total], dtype=np.int64)})


MIN_QUERIES["pareto_revenue_cut"] = q_pareto_revenue_cut
MIN_ORACLE_SQL["pareto_revenue_cut"] = """
WITH r AS (
  SELECT l_partkey,
         CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                  * (100 - CAST(floor(l_discount * 100 + 0.5)
                                AS BIGINT))) AS BIGINT) AS rev
  FROM lineitem GROUP BY l_partkey),
t AS (SELECT CAST(coalesce(sum(rev), 0) AS BIGINT) AS total,
             CAST(count(*) AS BIGINT) AS np FROM r),
c AS (SELECT rev,
             sum(rev) OVER (ORDER BY rev DESC, l_partkey
                            ROWS UNBOUNDED PRECEDING) AS cum
      FROM r)
SELECT CASE WHEN t.np = 0 THEN CAST(0 AS BIGINT)
            ELSE least(CAST((SELECT count(*) FROM c, t
                             WHERE 2 * c.cum < t.total) AS BIGINT)
                       + 1, t.np) END AS n_parts_half,
       t.np AS n_parts_total, t.total AS total_rev
FROM t
"""


# --------------------------------------------------------------------------
# next-word top-1 (grouped argmax over bigram counts)
# --------------------------------------------------------------------------

_NW_MIN_COUNT = 5


def q_next_word_top1(sf_dir: str) -> pd.DataFrame:
    """Most frequent next word per word (the autocomplete/bigram-LM
    argmax): for each w1, the w2 with the highest adjacent-bigram
    count, ties broken lexicographically, kept where the winning count
    >= 5. The grouped-argmax shape: per-batch bigram count partials
    (``text_signals.ngram_counts``), ONE exchange on w1 ALONE (so every
    w2 for a word co-locates), per-partition merge + stable argmax."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["text"])

    def count_partial(t: "pa.Table") -> "pa.Table":
        return ngram_counts(arrow_token_codes(t["text"]), 2) \
            .rename_columns(["w1", "w2", "c"])

    def argmax_part(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"w1": pd.Series([], dtype=object),
                              "w2": pd.Series([], dtype=object),
                              "c": pd.Series([], dtype=np.int64)})
        if part.empty:
            return empty
        agg = part.groupby(["w1", "w2"], as_index=False)["c"].sum()
        agg = agg.sort_values(["w1", "c", "w2"],
                              ascending=[True, False, True],
                              kind="stable")
        top = agg.drop_duplicates("w1", keep="first")
        top = top.loc[top["c"] >= _NW_MIN_COUNT]
        return top if len(top) else empty

    out = grouped_apply(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["w1"], argmax_part, num_partitions=32).to_pandas()
    if out.empty or "w1" not in out.columns:
        return pd.DataFrame({"w1": pd.Series([], dtype=object),
                             "w2": pd.Series([], dtype=object),
                             "c": pd.Series([], dtype=np.int64)})
    return out.sort_values("w1").reset_index(drop=True) \
        .astype({"c": np.int64})


MIN_QUERIES["next_word_top1"] = q_next_word_top1
MIN_ORACLE_SQL["next_word_top1"] = f"""
WITH t AS (
  SELECT regexp_extract_all(lower(text), '[a-z]+') AS toks
  FROM documents),
bg AS (
  SELECT toks[i] AS w1, toks[i + 1] AS w2
  FROM (SELECT toks, unnest(range(1, len(toks))) AS i FROM t)),
bc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c
       FROM bg GROUP BY w1, w2),
rk AS (SELECT w1, w2, c,
              row_number() OVER (PARTITION BY w1
                                 ORDER BY c DESC, w2) AS rn
       FROM bc)
SELECT w1, w2, c FROM rk WHERE rn = 1 AND c >= {_NW_MIN_COUNT}
"""


# --------------------------------------------------------------------------
# per-type percent rank of event values
# --------------------------------------------------------------------------


def q_value_percent_rank_events(sf_dir: str):
    """PERCENT_RANK of every event's value within its event type:
    (rank - 1) / (n - 1) with rank = 1 + count of strictly smaller
    values (SQL min-rank tie semantics), single-row groups pinned to
    0.0. Values are compared as raw parquet doubles (no arithmetic —
    comparison is exact); nulls are a defined 0.0 class on both
    engines. ONE hash exchange on event_type; per-partition sort +
    searchsorted ranks every row of a type at once. Partitions are
    whole types by construction (percentiles need the full group);
    for high-cardinality value axes at scale, the range-exchange
    global-ranking fabric (stages/ranking.py) is the alternative."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "event_type", "value"])

    def project(t: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc
        return pd.DataFrame({
            "event_id": t["event_id"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "event_type": t["event_type"].to_pandas().fillna(""),
            "value": pc.fill_null(t["value"], 0.0)
                .to_numpy(zero_copy_only=False).astype(np.float64)})

    def per_type(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "event_id": pd.Series([], dtype=np.int64),
            "event_type": pd.Series([], dtype=object),
            "pct_rank": pd.Series([], dtype=np.float64)})
        if part.empty:
            return empty
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["value"].to_numpy(np.float64)
            n = len(v)
            sv = np.sort(v)
            if n == 1:
                pr = np.zeros(1)
            else:
                rk = np.searchsorted(sv, v, "left").astype(np.int64)
                pr = rk.astype(np.float64) / np.float64(n - 1)
            outs.append(pd.DataFrame({
                "event_id": g["event_id"].to_numpy(np.int64),
                "event_type": et, "pct_rank": pr}))
        return pd.concat(outs, ignore_index=True)

    return grouped_apply(
        ds.map_batches(project, batch_format="pyarrow"),
        ["event_type"], per_type, num_partitions=8)


MIN_QUERIES["value_percent_rank_events"] = q_value_percent_rank_events
MIN_ORACLE_SQL["value_percent_rank_events"] = """
WITH e AS (SELECT event_id, coalesce(event_type, '') AS event_type,
                  coalesce(value, 0.0) AS v
           FROM events),
r AS (SELECT event_id, event_type,
             rank() OVER (PARTITION BY event_type ORDER BY v) AS rk,
             count(*) OVER (PARTITION BY event_type) AS n
      FROM e)
SELECT event_id, event_type,
       CASE WHEN n = 1 THEN 0.0
            ELSE CAST(rk - 1 AS DOUBLE) / CAST(n - 1 AS DOUBLE) END
           AS pct_rank
FROM r
"""


# --------------------------------------------------------------------------
# URL query-parameter key profile per host
# --------------------------------------------------------------------------


def q_query_param_keys(sf_dir: str) -> pd.DataFrame:
    """Per-host URL query-parameter key counts: for each host, how
    often each parameter key appears across its page URLs — the
    crawl-parameterization profile (session ids and tracking params
    surface here before URL canonicalization rules are written).
    Fully Arrow: slice the query string, split on '&', strip '=...';
    per-batch combiner rows ride the driver merge (hosts x keys is
    the small side)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import (
        _linked_pages_path, _merge_partials)
    from nacc_form_validator_ray.stages.graph import _host_of

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        url = pc.fill_null(t["url"], "")
        host = _host_of(url, pc).to_numpy(zero_copy_only=False)
        ext = pc.extract_regex(url, r"\?(?P<q>[^#]*)")
        if isinstance(ext, pa.ChunkedArray):
            ext = ext.combine_chunks()
        q = pc.fill_null(pc.struct_field(ext, "q"), "")
        parts = pc.split_pattern(q, "&")
        counts = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(parts)
        keys = pc.replace_substring_regex(flat, r"=.*$", "") \
            .to_numpy(zero_copy_only=False)
        hrep = host[np.repeat(np.arange(len(t), dtype=np.int64),
                              counts)]
        df = pd.DataFrame({"host": hrep, "param_key": keys})
        df = df.loc[df["param_key"] != ""]
        df["n"] = 1
        return df.groupby(["host", "param_key"], as_index=False).sum()

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["host", "param_key"], {"n": "sum"})
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["host", "param_key"]) \
        .reset_index(drop=True)


def sql_query_param_keys(path: str,
                         sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    return f"""
WITH pg AS (SELECT coalesce(url, '') AS url
            FROM read_parquet('{path}')),
s AS (SELECT {host} AS host,
             coalesce(regexp_extract(url, '\\?([^#]*)', 1), '') AS q
      FROM pg),
ks AS (SELECT host,
              regexp_replace(unnest(string_split(q, '&')),
                             '=.*$', '') AS param_key
       FROM s),
c AS (SELECT host, param_key, CAST(count(*) AS BIGINT) AS n
      FROM ks WHERE param_key <> '' GROUP BY host, param_key)
SELECT host, param_key, n FROM c
"""


MIN_QUERIES["query_param_keys"] = q_query_param_keys
MIN_LINKED_SQL["query_param_keys"] = sql_query_param_keys


# --------------------------------------------------------------------------
# weighted median price (quantity-weighted, cumulative-weight crossing)
# --------------------------------------------------------------------------


def q_weighted_median_price(sf_dir: str) -> pd.DataFrame:
    """Quantity-weighted median of the dollar-grid extended price:
    the smallest price whose cumulative weight reaches half the total
    — the robust price statistic (plain median ignores volume).
    Weights are quantity cents clamped at 0 (negative fuzz quantities
    would make the cumulative axis non-monotonic), so the crossing
    rule ``first price with 2*cum >= total`` is identical and exact
    on both engines; ``total <= 0`` pins the median to 0.

    Shape: per-batch (price, weight) grouped partials; the distinct
    dollar-grid price axis is the bounded side, so the driver merges
    it directly (route through a price exchange if the grid ever
    outgrows the driver)."""
    import pyarrow as pa

    ds = _rd().read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_extendedprice", "l_quantity"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        price_d = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        qc = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        w = np.maximum(qc, 0)
        df = pd.DataFrame({"price_d": price_d, "w": w})
        return df.groupby("price_d", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    empty = pd.DataFrame({
        "weighted_median_price_d": pd.Series([0], dtype=np.int64),
        "total_weight": pd.Series([0], dtype=np.int64)})
    if parts.empty or "price_d" not in parts.columns:
        return empty
    g = parts.groupby("price_d", as_index=True)["w"].sum().sort_index()
    total = int(g.sum())
    if total <= 0:
        return empty
    cum = np.cumsum(g.to_numpy(np.int64))
    idx = int(np.searchsorted(2 * cum, total, "left"))
    med = int(g.index.to_numpy(np.int64)[idx])
    return pd.DataFrame({
        "weighted_median_price_d": pd.Series([med], dtype=np.int64),
        "total_weight": pd.Series([total], dtype=np.int64)})


MIN_QUERIES["weighted_median_price"] = q_weighted_median_price
MIN_ORACLE_SQL["weighted_median_price"] = """
WITH p AS (
  SELECT CAST(floor(l_extendedprice + 0.5) AS BIGINT) AS price_d,
         greatest(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT), 0)
             AS w
  FROM lineitem),
g AS (SELECT price_d, CAST(sum(w) AS BIGINT) AS w
      FROM p GROUP BY price_d),
t AS (SELECT CAST(coalesce(sum(w), 0) AS BIGINT) AS total FROM g),
c AS (SELECT price_d,
             sum(w) OVER (ORDER BY price_d
                          ROWS UNBOUNDED PRECEDING) AS cum
      FROM g)
SELECT CASE WHEN t.total <= 0 THEN CAST(0 AS BIGINT)
            ELSE (SELECT min(price_d) FROM c
                  WHERE 2 * c.cum >= t.total) END
           AS weighted_median_price_d,
       CASE WHEN t.total <= 0 THEN CAST(0 AS BIGINT)
            ELSE t.total END AS total_weight
FROM t
"""


# --------------------------------------------------------------------------
# MAD outliers per event type (robust statistics)
# --------------------------------------------------------------------------


def q_mad_outliers_events(sf_dir: str):
    """Robust outlier detection per event type: flag events whose
    cent-grid value deviates from the type's median by more than
    3x the median absolute deviation — the robust-statistics sibling
    of z-score outliers (user_outlier_events), immune to the outliers
    it hunts. Both medians are the LOWER median (sorted value at
    1-indexed position (n+1)//2) so everything stays integer-exact;
    the 3*MAD gate is an integer comparison. ONE hash exchange on
    event_type; each partition holds whole types (order statistics
    need the full group) and ranks a type with two sorts."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "event_type", "value"])

    def project(t: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc
        return pd.DataFrame({
            "event_id": t["event_id"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
            "event_type": t["event_type"].to_pandas().fillna(""),
            "value_c": np.floor(
                pc.fill_null(t["value"], 0.0)
                .to_numpy(zero_copy_only=False) * 100 + 0.5)
                .astype(np.int64)})

    def per_type(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "event_id": pd.Series([], dtype=np.int64),
            "event_type": pd.Series([], dtype=object),
            "value_c": pd.Series([], dtype=np.int64),
            "med_c": pd.Series([], dtype=np.int64),
            "mad_c": pd.Series([], dtype=np.int64)})
        if part.empty:
            return empty
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["value_c"].to_numpy(np.int64)
            n = len(v)
            med = int(np.sort(v)[(n + 1) // 2 - 1])
            dev = np.abs(v - med)
            mad = int(np.sort(dev)[(n + 1) // 2 - 1])
            keep = dev > 3 * mad
            if not keep.any():
                continue
            outs.append(pd.DataFrame({
                "event_id": g["event_id"].to_numpy(np.int64)[keep],
                "event_type": et,
                "value_c": v[keep],
                "med_c": np.int64(med), "mad_c": np.int64(mad)}))
        if not outs:
            return empty
        return pd.concat(outs, ignore_index=True)

    return grouped_apply(
        ds.map_batches(project, batch_format="pyarrow"),
        ["event_type"], per_type, num_partitions=8)


MIN_QUERIES["mad_outliers_events"] = q_mad_outliers_events
MIN_ORACLE_SQL["mad_outliers_events"] = """
WITH e AS (
  SELECT event_id, coalesce(event_type, '') AS event_type,
         CAST(floor(coalesce(value, 0.0) * 100 + 0.5) AS BIGINT) AS v
  FROM events),
m AS (
  SELECT event_type, v AS med FROM (
    SELECT event_type, v,
           row_number() OVER (PARTITION BY event_type ORDER BY v)
               AS rn,
           count(*) OVER (PARTITION BY event_type) AS n
    FROM e) WHERE rn = (n + 1) // 2),
d AS (
  SELECT e.event_id, e.event_type, e.v, m.med,
         abs(e.v - m.med) AS dev
  FROM e JOIN m ON m.event_type = e.event_type),
md AS (
  SELECT event_type, dev AS mad FROM (
    SELECT event_type, dev,
           row_number() OVER (PARTITION BY event_type ORDER BY dev)
               AS rn,
           count(*) OVER (PARTITION BY event_type) AS n
    FROM d) WHERE rn = (n + 1) // 2)
SELECT d.event_id, d.event_type, d.v AS value_c,
       d.med AS med_c, md.mad AS mad_c
FROM d JOIN md ON md.event_type = d.event_type
WHERE d.dev > 3 * md.mad
"""


# --------------------------------------------------------------------------
# session-length histogram
# --------------------------------------------------------------------------


def q_session_length_histogram(sf_dir: str) -> pd.DataFrame:
    """Distribution of session sizes: how many 30-min-gap sessions
    contain 1, 2, 3... events — the engagement-shape readout over the
    oracled sessionization. The session table is one row per SESSION
    (O(events) worst case), so it never reaches the driver whole:
    per-batch histogram partials ride the documented low-cardinality
    ``_merge_partials`` path (distinct session lengths x blocks)."""
    from nacc_form_validator_ray.pipelines.queries import (
        QUERIES, _merge_partials)

    sessions = QUERIES["user_sessions"](sf_dir)
    empty = pd.DataFrame({
        "n_events": pd.Series([], dtype=np.int64),
        "n_sessions": pd.Series([], dtype=np.int64)})

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty or "n_events" not in b.columns:
            return empty
        h = b.groupby("n_events").size()
        return pd.DataFrame({
            "n_events": h.index.to_numpy(np.int64),
            "n_sessions": h.to_numpy(np.int64)})

    if hasattr(sessions, "map_batches"):
        parts = sessions.map_batches(partial, batch_format="pandas")
        out = _merge_partials(parts, ["n_events"],
                              {"n_sessions": "sum"})
    else:  # already a bounded DataFrame
        out = partial(sessions)
    if out.empty or "n_events" not in out.columns:
        return empty
    return out.sort_values("n_events").reset_index(drop=True) \
        .astype({"n_events": np.int64, "n_sessions": np.int64})


def sql_session_length_histogram(sessions_sql: str) -> str:
    return f"""
WITH s AS ({sessions_sql})
SELECT n_events, CAST(count(*) AS BIGINT) AS n_sessions
FROM s GROUP BY n_events
"""


MIN_QUERIES["session_length_histogram"] = q_session_length_histogram


# --------------------------------------------------------------------------
# host reciprocity (see stages/graph.host_reciprocity)
# --------------------------------------------------------------------------


def q_host_reciprocity(sf_dir: str) -> pd.DataFrame:
    """Mutual-link rate of the directed host graph (see
    stages/graph.host_reciprocity: one canonical-pair exchange with
    orientation flags, 2-int partials, exact ratio)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import host_reciprocity
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_reciprocity(ds)


def sql_host_reciprocity(path: str,
                         sql_url_norm: str | None = None) -> str:
    return f"""
{_sql_edge_ctes(path, sql_url_norm, distinct_directed=True)},
mu AS (SELECT CAST(count(*) AS BIGINT) AS n_mutual
       FROM e1 x JOIN e1 y ON y.src = x.dst AND y.dst = x.src
       WHERE x.src < x.dst),
np AS (SELECT CAST(count(*) AS BIGINT) AS n_pairs FROM ed)
SELECT np.n_pairs, mu.n_mutual,
       CASE WHEN np.n_pairs = 0 THEN 0.0
            ELSE CAST(mu.n_mutual AS DOUBLE)
                 / CAST(np.n_pairs AS DOUBLE) END AS reciprocity
FROM np, mu
"""


MIN_QUERIES["host_reciprocity"] = q_host_reciprocity
MIN_LINKED_SQL["host_reciprocity"] = sql_host_reciprocity


# --------------------------------------------------------------------------
# HLL raw estimate + error readout (completes the sketch family)
# --------------------------------------------------------------------------


def q_hll_estimate_users(sf_dir: str) -> pd.DataFrame:
    """The HyperLogLog ESTIMATE over the oracled register sketch
    (advanced.hll_user_registers), plus the exact distinct-user count
    and relative error — the accuracy readout of the sketch family.

    Exact-arithmetic harmonic mean: the indicator sum
    D = sum_j 2^(-rho_j) is computed as the INTEGER
    sum_j 2^(64 - rho_j) over all 64 buckets (missing buckets carry
    rho = 0), and the estimate alpha * m^2 / D is reported as the
    INTEGER floor quotient (709 * m^2 * 2^64) // (1000 * D), with
    alpha_64 = 0.709 as the exact rational 709/1000 — Python // and
    DuckDB HUGEINT // are the same operation. Two float temptations
    are rejected as un-oracleable (review-confirmed): accumulating
    2^-rho in doubles is ORDER-SENSITIVE past 53 bits of exponent
    spread, and dividing the big integers as doubles breaks on
    DuckDB's HUGEINT->DOUBLE cast, which double-rounds (upper*2^64 +
    lower) and lands 1 ulp off Python's correctly-rounded float(int)
    for ~1% of valid register vectors. No small/large-range
    corrections: they need ln() (module docstring) — raw estimate
    only. Accuracy caveat (measured): the register hash is the bare
    Knuth multiplicative mix with NO avalanche step, and on dense
    sequential id spaces its leading-zero statistics bias the raw
    estimate high (~+70% at ~1.8k distinct ids);
    advanced.hll_estimate adds the linear-counting correction for
    the small range, and a production deployment should swap an
    avalanching hash into BOTH twins before trusting the raw path.
    This query's value is the exact-parity estimate + error READOUT,
    which makes that bias visible per corpus.

    ONE fused pass: each batch emits the 64-cell register partial AND
    its unique user ids (tagged rows on the same partial frame), so
    the events table is scanned once, not twice."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.advanced import (
        HLL_M, hll_fold_registers)

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc
        ids = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        idx, reg = hll_fold_registers(ids.astype(np.uint64))
        uniq = pc.unique(t["user_id"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # tag: kind 0 = register cell, kind 1 = unique user id
        return pd.DataFrame({
            "kind": np.concatenate([np.zeros(len(idx), np.int64),
                                    np.ones(len(uniq), np.int64)]),
            "k": np.concatenate([idx, uniq]),
            "v": np.concatenate([reg, np.zeros(len(uniq),
                                               np.int64)])})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    rho = np.zeros(HLL_M, dtype=np.int64)
    n_exact = 0
    if not parts.empty and "kind" in parts.columns:
        regp = parts.loc[parts["kind"] == 0]
        if len(regp):
            merged = regp.groupby("k")["v"].max()
            rho[merged.index.to_numpy(np.int64)] = \
                merged.to_numpy(np.int64)
        n_exact = int(parts.loc[parts["kind"] == 1, "k"].nunique())
    D = sum(1 << (64 - int(r)) for r in rho)
    num = 709 * HLL_M * HLL_M * (1 << 64)
    est_i = num // (1000 * D)
    rel_err = (float(est_i) - float(n_exact)) / float(n_exact) \
        if n_exact else 0.0
    return pd.DataFrame({
        "raw_estimate": pd.Series([est_i], dtype=np.int64),
        "n_exact": pd.Series([n_exact], dtype=np.int64),
        "rel_err": pd.Series([rel_err], dtype=np.float64)})


def sql_hll_estimate_users(registers_sql: str, hll_m: int) -> str:
    return f"""
WITH regs AS ({registers_sql}),
allb AS (
  SELECT b.bucket, coalesce(regs.rho, 0) AS rho
  FROM (SELECT unnest(range(0, {hll_m})) AS bucket) b
  LEFT JOIN regs ON regs.bucket = b.bucket),
d AS (SELECT CAST(sum(CAST(power(2, 64 - rho) AS HUGEINT))
              AS HUGEINT) AS D FROM allb),
e AS (SELECT CAST((CAST(709 * {hll_m} * {hll_m} AS HUGEINT)
                   * CAST(power(2, 64) AS HUGEINT))
                  // (1000 * d.D) AS BIGINT) AS raw_estimate
      FROM d),
x AS (SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n_exact
      FROM events)
SELECT e.raw_estimate, x.n_exact,
       CASE WHEN x.n_exact = 0 THEN 0.0 ELSE
       (CAST(e.raw_estimate AS DOUBLE) - CAST(x.n_exact AS DOUBLE))
       / CAST(x.n_exact AS DOUBLE) END AS rel_err
FROM e, x
"""


MIN_QUERIES["hll_estimate_users"] = q_hll_estimate_users


# --------------------------------------------------------------------------
# top terms per language (grouped top-k over the token axis)
# --------------------------------------------------------------------------

_TTL_K = 10


def q_top_terms_per_lang(sf_dir: str) -> pd.DataFrame:
    """Top-10 tokens per corpus language — the per-GROUP top-k shape
    (vs the global top-k of skipgram_counts): per-batch (lang, token)
    count combiners, ONE hash exchange on (lang, token) — every
    token's counts merge fully inside one partition, so each
    partition's per-lang top-10 is a sound candidate set — and the
    driver re-selects over k x partitions rows per lang. Null langs
    are the defined '' class."""
    import pyarrow as pa

    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["text", "lang"])

    def count_partial(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc
        return ngram_counts(arrow_token_codes(t["text"]),
                            by=pc.fill_null(t["lang"], "")) \
            .rename_columns(["lang", "tok", "c"])

    def topk_part(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return part
        agg = part.groupby(["lang", "tok"], as_index=False)["c"].sum()
        agg = agg.sort_values(["lang", "c", "tok"],
                              ascending=[True, False, True],
                              kind="stable")
        return agg.groupby("lang", sort=False).head(_TTL_K)

    cand = grouped_apply(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["lang", "tok"], topk_part, num_partitions=16).to_pandas()
    if cand.empty or "lang" not in cand.columns:
        return pd.DataFrame({"lang": pd.Series([], dtype=object),
                             "tok": pd.Series([], dtype=object),
                             "c": pd.Series([], dtype=np.int64)})
    cand = cand.sort_values(["lang", "c", "tok"],
                            ascending=[True, False, True],
                            kind="stable")
    out = cand.groupby("lang", sort=False).head(_TTL_K)
    return out.reset_index(drop=True).astype({"c": np.int64})


MIN_QUERIES["top_terms_per_lang"] = q_top_terms_per_lang
MIN_ORACLE_SQL["top_terms_per_lang"] = f"""
WITH t AS (
  SELECT coalesce(lang, '') AS lang,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents),
c AS (SELECT lang, tok, CAST(count(*) AS BIGINT) AS c
      FROM t GROUP BY lang, tok),
rk AS (SELECT lang, tok, c,
              row_number() OVER (PARTITION BY lang
                                 ORDER BY c DESC, tok) AS rn
       FROM c)
SELECT lang, tok, c FROM rk WHERE rn <= {_TTL_K}
"""


# --------------------------------------------------------------------------
# batch 12: per-host clustering coefficient, cross-host duplicate
# reporting, and sentence-level text statistics
# --------------------------------------------------------------------------


def q_host_clustering(sf_dir: str) -> pd.DataFrame:
    """Per-host local clustering coefficient — see
    stages/graph.host_clustering (forward node-iterator triangles with
    per-vertex attribution; five lean string-keyed exchanges)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import host_clustering
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_clustering(ds)


def sql_host_clustering(path: str,
                        sql_url_norm: str | None = None) -> str:
    """Twin: triangles {x<y<z} by the same lex orientation, attributed
    to all three corners; the coefficient is ONE double division of
    exact int64 products (2*n_tri and deg*(deg-1)) — identical
    expression order to the engine."""
    return f"""
{_sql_edge_ctes(path, sql_url_norm)},
deg AS (SELECT v AS host, CAST(count(*) AS BIGINT) AS degree
        FROM (SELECT a AS v FROM ed UNION ALL SELECT b AS v FROM ed)
        GROUP BY v),
tri AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
        FROM ed e1
        JOIN ed e2 ON e2.a = e1.a AND e1.b < e2.b
        JOIN ed e3 ON e3.a = e1.b AND e3.b = e2.b),
pv AS (SELECT v AS host, CAST(count(*) AS BIGINT) AS n_tri
       FROM (SELECT x AS v FROM tri UNION ALL SELECT y AS v FROM tri
             UNION ALL SELECT z AS v FROM tri)
       GROUP BY v)
SELECT d.host, d.degree,
       CAST(coalesce(pv.n_tri, 0) AS BIGINT) AS n_tri,
       CASE WHEN d.degree >= 2
            THEN CAST(2 * coalesce(pv.n_tri, 0) AS DOUBLE)
                 / (d.degree * (d.degree - 1))
            ELSE 0.0 END AS clustering
FROM deg d LEFT JOIN pv ON pv.host = d.host
"""


MIN_QUERIES["host_clustering"] = q_host_clustering
MIN_LINKED_SQL["host_clustering"] = sql_host_clustering


#: minimum shared-text count for a host pair to be reported
_XHD_MIN_SHARED = 2


def q_cross_host_dup_report(sf_dir: str) -> pd.DataFrame:
    """Mirror/boilerplate syndication detection: pairs of hosts sharing
    >= ``_XHD_MIN_SHARED`` DISTINCT identical non-blank LINES (whole
    pages never collide across hosts in real crawls — template lines
    do, which is what CCNet-style line filtering keys on). The wide
    step is ONE exchange keyed on the line (per-batch distinct
    (host, line) combiners first, like line_dedup_docs); each line
    group emits its sorted-host pairs, pre-aggregated per partition,
    then one tiny (host_a, host_b) count merge. At 100 TB key the
    first exchange on a 64-bit line hash and verify within group (the
    dup_ngram_spans_hashed pattern); pair fan-out per line is bounded
    by hosts-per-line squared — boilerplate shared by EVERY host is
    the worst case and exactly what the report exists to surface."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.partition import (grouped_agg_sum,
                                                          grouped_apply)

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "text"])

    def partial(t) -> pd.DataFrame:
        host = _host_of(t["url"], pc).to_numpy(zero_copy_only=False)
        lines = pc.split_pattern(pc.fill_null(t["text"], ""), "\n")
        counts = pc.list_value_length(lines).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lines).to_numpy(zero_copy_only=False)
        hrep = host[np.repeat(np.arange(len(t), dtype=np.int64),
                              counts)]
        df = pd.DataFrame({"host": hrep, "line": flat})
        return df.loc[df["line"] != ""].drop_duplicates()

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "host_a": pd.Series([], dtype=object),
            "host_b": pd.Series([], dtype=object),
            "n_shared": pd.Series([], dtype=np.int64)})
        if part.empty:
            return empty
        part = part.drop_duplicates()   # across-batch (host, line) dups
        xs, ys = [], []
        for _, g in part.groupby("line", sort=False):
            hosts = np.unique(g["host"].to_numpy(object))
            if len(hosts) < 2:
                continue
            i, j = np.triu_indices(len(hosts), k=1)
            xs.append(hosts[i])
            ys.append(hosts[j])
        if not xs:
            return empty
        df = pd.DataFrame({"host_a": np.concatenate(xs),
                           "host_b": np.concatenate(ys)})
        df["n_shared"] = np.int64(1)
        return df.groupby(["host_a", "host_b"], as_index=False).sum()

    cand = grouped_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["line"], pairs, num_partitions=16)
    merged = grouped_agg_sum(cand, ["host_a", "host_b"], ["n_shared"],
                             num_partitions=8).to_pandas()
    empty = pd.DataFrame({"host_a": pd.Series([], dtype=object),
                          "host_b": pd.Series([], dtype=object),
                          "n_shared": pd.Series([], dtype=np.int64)})
    if merged.empty or "host_a" not in merged.columns:
        return empty
    out = merged.loc[merged["n_shared"] >= _XHD_MIN_SHARED]
    return out.sort_values(["host_a", "host_b"], kind="stable") \
        .reset_index(drop=True).astype({"n_shared": np.int64})


def sql_cross_host_dup_report(path: str,
                              sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    return f"""
WITH t AS (SELECT {host} AS host,
                  unnest(split(coalesce(text, ''), chr(10))) AS line
           FROM read_parquet('{path}')),
tl AS (SELECT DISTINCT host, line FROM t WHERE line <> ''),
p AS (SELECT x.host AS host_a, y.host AS host_b,
             CAST(count(*) AS BIGINT) AS n_shared
      FROM tl x JOIN tl y ON y.line = x.line AND x.host < y.host
      GROUP BY x.host, y.host)
SELECT host_a, host_b, n_shared FROM p
WHERE n_shared >= {_XHD_MIN_SHARED}
"""


MIN_QUERIES["cross_host_dup_report"] = q_cross_host_dup_report
MIN_LINKED_SQL["cross_host_dup_report"] = sql_cross_host_dup_report


def q_sentence_stats_docs(sf_dir: str) -> pd.DataFrame:
    """Per-document sentence statistics: sentences are the maximal
    ``[^.!?]+`` runs of the text that contain at least one
    non-whitespace codepoint; reports the count and the mean sentence
    length in CODEPOINTS. Entirely byte-level over the Arrow buffer
    (the shared run machinery of stages/text_signals): terminator /
    whitespace masks are SIMD compare chains, codepoints are bytes
    with ``(b & 0xC0) != 0x80``, and every per-run reduction is one
    ``np.add.reduceat``. The mean is ONE double division of exact
    int64 sums, mirrored in the twin."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.text_signals import (
        _buffer_view, _mask_runs)

    def stats(t: "pa.Table") -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        text = pc.fill_null(t["text"], "")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n = len(text)
        n_sent = np.zeros(n, dtype=np.int64)
        mean_len = np.zeros(n, dtype=np.float64)
        buf, off = _buffer_view(text)
        if len(buf):
            term = buf == 46                       # '.'
            np.bitwise_or(term, buf == 33, out=term)   # '!'
            np.bitwise_or(term, buf == 63, out=term)   # '?'
            seg = ~term
            s_idx, e_idx, run_doc, _ = _mask_runs(buf, off, seg, n)
            if len(s_idx):
                ws = (buf >= 9) & (buf <= 13)
                np.bitwise_or(ws, buf == 32, out=ws)
                content = seg & ~ws
                # reduceat segments span [s_k, s_{k+1}); inter-run gap
                # bytes are terminators (or doc edges), where both
                # masks below are False — they contribute nothing
                has = np.add.reduceat(content, s_idx) > 0
                cp = seg & ((buf & np.uint8(0xC0)) != 0x80)
                cps = np.add.reduceat(cp.astype(np.int64), s_idx)
                n_sent = np.bincount(run_doc[has],
                                     minlength=n).astype(np.int64)
                sum_cp = np.bincount(run_doc[has], weights=cps[has],
                                     minlength=n)
                nz = n_sent > 0
                mean_len[nz] = sum_cp[nz] / n_sent[nz]
        return pd.DataFrame({"doc_id": ids, "n_sentences": n_sent,
                             "mean_sentence_chars": mean_len})

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
    return ds.map_batches(stats, batch_format="pyarrow",
                          batch_size=4096)


MIN_QUERIES["sentence_stats_docs"] = q_sentence_stats_docs
MIN_ORACLE_SQL["sentence_stats_docs"] = r"""
WITH s AS (SELECT doc_id,
                  unnest(regexp_extract_all(coalesce(text, ''),
                                            '[^.!?]+')) AS seg
           FROM documents),
q AS (SELECT doc_id, length(seg) AS L
      FROM s WHERE regexp_matches(seg, '[^ \t\n\r\f\v]')),
agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_sentences,
               CAST(sum(L) AS BIGINT) AS sum_chars
        FROM q GROUP BY doc_id)
SELECT d.doc_id,
       CAST(coalesce(a.n_sentences, 0) AS BIGINT) AS n_sentences,
       CASE WHEN coalesce(a.n_sentences, 0) > 0
            THEN CAST(a.sum_chars AS DOUBLE) / a.n_sentences
            ELSE 0.0 END AS mean_sentence_chars
FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
"""


# --------------------------------------------------------------------------
# batch 13: co-citation, per-host language diversity, token-length
# histogram, dangling hosts
# --------------------------------------------------------------------------

#: minimum common citing hosts for a co-citation pair to be reported
_COCIT_MIN = 2


def _directed_host_edges(sf_dir: str, emit_page_hosts: bool = False):
    """Distinct DIRECTED host edges of the fixture link graph — reads
    the linked-page table for ``sf_dir`` and delegates to
    :func:`directed_host_edges_from_ds`."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return directed_host_edges_from_ds(ds, emit_page_hosts)


def directed_host_edges_from_ds(ds, emit_page_hosts: bool = False):
    """Distinct DIRECTED host edges (src, dst) of the link graph:
    per-batch :func:`stages.graph._canonical_edge_frame` (the module's
    ONE copy of the flatten/normalize/self-loop/dedup edge semantics;
    direction recovered from its ``fwd`` flag), then ONE (src, dst)
    exchange for global distinctness.

    ``emit_page_hosts`` additionally rides each batch's distinct page
    hosts through the same read and exchange as ``(h, h)`` marker rows
    (unambiguous — self-loops never appear as edges), so node-universe
    consumers need no second scan of the corpus."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.graph import (_canonical_edge_frame,
                                                      _host_of)
    from nacc_form_validator_ray.stages.partition import grouped_apply

    def partial(t) -> pd.DataFrame:
        e = _canonical_edge_frame(t, "url", "links",
                                  with_orientation=True)
        fwd = e["fwd"].to_numpy(bool)
        a = e["a"].to_numpy(object)
        b = e["b"].to_numpy(object)
        df = pd.DataFrame({"src": np.where(fwd, a, b),
                           "dst": np.where(fwd, b, a)}) \
            .drop_duplicates()
        if emit_page_hosts:
            hosts = pd.unique(_host_of(t["url"], pc)
                              .to_numpy(zero_copy_only=False))
            df = pd.concat([df, pd.DataFrame({"host": hosts})
                           .rename(columns={"host": "src"})
                           .assign(dst=lambda x: x["src"])],
                           ignore_index=True)
        return df

    return grouped_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["src", "dst"], lambda p: p.drop_duplicates(),
        num_partitions=16)


def q_host_cocitation(sf_dir: str) -> pd.DataFrame:
    """Co-citation pairs over the directed host graph: hosts (a < b)
    linked FROM >= ``_COCIT_MIN`` common source hosts — the classic
    related-site signal (Small 1973). Exchanges: one (src, dst)
    distinctness pass, one group-by-src pair emission (pre-aggregated
    per partition), one tiny (a, b) count merge. Pair fan-out per
    source is out-degree squared; the host graph is the engine's
    documented small side (same bound as host_triangles' triad
    volume)."""
    from nacc_form_validator_ray.stages.partition import (grouped_agg_sum,
                                                          grouped_apply)

    edges = _directed_host_edges(sf_dir)

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "host_a": pd.Series([], dtype=object),
            "host_b": pd.Series([], dtype=object),
            "n_common": pd.Series([], dtype=np.int64)})
        if part.empty or "src" not in part.columns:
            return empty
        xs, ys = [], []
        for _, g in part.groupby("src", sort=False):
            nb = np.unique(g["dst"].to_numpy(object))
            if len(nb) < 2:
                continue
            i, j = np.triu_indices(len(nb), k=1)
            xs.append(nb[i])
            ys.append(nb[j])
        if not xs:
            return empty
        df = pd.DataFrame({"host_a": np.concatenate(xs),
                           "host_b": np.concatenate(ys)})
        df["n_common"] = np.int64(1)
        return df.groupby(["host_a", "host_b"], as_index=False).sum()

    cand = grouped_apply(edges, ["src"], pairs, num_partitions=16)
    merged = grouped_agg_sum(cand, ["host_a", "host_b"], ["n_common"],
                             num_partitions=8).to_pandas()
    empty = pd.DataFrame({"host_a": pd.Series([], dtype=object),
                          "host_b": pd.Series([], dtype=object),
                          "n_common": pd.Series([], dtype=np.int64)})
    if merged.empty or "host_a" not in merged.columns:
        return empty
    out = merged.loc[merged["n_common"] >= _COCIT_MIN]
    return out.sort_values(["host_a", "host_b"], kind="stable") \
        .reset_index(drop=True).astype({"n_common": np.int64})


def sql_host_cocitation(path: str,
                        sql_url_norm: str | None = None) -> str:
    return f"""
{_sql_edge_ctes(path, sql_url_norm, distinct_directed=True)},
p AS (SELECT x.dst AS host_a, y.dst AS host_b,
             CAST(count(*) AS BIGINT) AS n_common
      FROM e1 x JOIN e1 y ON y.src = x.src AND x.dst < y.dst
      GROUP BY x.dst, y.dst)
SELECT host_a, host_b, n_common FROM p
WHERE n_common >= {_COCIT_MIN}
"""


MIN_QUERIES["host_cocitation"] = q_host_cocitation
MIN_LINKED_SQL["host_cocitation"] = sql_host_cocitation


def q_dangling_hosts(sf_dir: str) -> pd.DataFrame:
    """PageRank's dangling set: hosts (page hosts or link targets)
    with >= 0 inlinks and NO outgoing edge, with their distinct-inlink
    counts. The rank-leak diagnostic a crawl curator checks before
    running host_pagerank. ONE corpus read and one (src, dst)
    distinctness exchange (page hosts ride it as (h, h) marker rows);
    the host-level edge list is the module's documented small side,
    merged on the driver."""
    rows = _directed_host_edges(sf_dir,
                                emit_page_hosts=True).to_pandas()
    if rows.empty or "src" not in rows.columns:
        nodes: set = set()
        srcs: set = set()
        inl: Dict[str, int] = {}
    else:
        marker = rows["src"] == rows["dst"]
        edges = rows.loc[~marker]
        nodes = set(rows["src"]) | set(edges["dst"])
        srcs = set(edges["src"])
        inl = edges.groupby("dst").size().to_dict()
    dang = sorted(nodes - srcs)
    return pd.DataFrame({
        "host": pd.Series(dang, dtype=object),
        "n_inlinks": pd.Series([int(inl.get(h, 0)) for h in dang],
                               dtype=np.int64)})


def sql_dangling_hosts(path: str,
                       sql_url_norm: str | None = None) -> str:
    host_url = sql_url_norm.format(u="url")
    return f"""
{_sql_edge_ctes(path, sql_url_norm, distinct_directed=True)},
nodes AS (SELECT DISTINCT {host_url} AS h FROM pg
          UNION SELECT src FROM e1 UNION SELECT dst FROM e1),
outs AS (SELECT DISTINCT src FROM e1),
inl AS (SELECT dst, CAST(count(*) AS BIGINT) AS n FROM e1
        GROUP BY dst)
SELECT n.h AS host, CAST(coalesce(inl.n, 0) AS BIGINT) AS n_inlinks
FROM nodes n
LEFT JOIN outs o ON o.src = n.h
LEFT JOIN inl ON inl.dst = n.h
WHERE o.src IS NULL
"""


MIN_QUERIES["dangling_hosts"] = q_dangling_hosts
MIN_LINKED_SQL["dangling_hosts"] = sql_dangling_hosts


def q_host_lang_gini(sf_dir: str) -> pd.DataFrame:
    """Per-host language diversity: Gini impurity of the PREDICTED
    language distribution over a host's pages,
    ``1 - sum(c_l^2) / n^2`` — computed as the exact integer
    ``(n^2 - sum(c_l^2)) / n^2`` with ONE double division (the
    user_type_gini convention; entropy would need libm). Pipeline:
    the fused TextStats langid pass per batch, (host, lang_pred)
    count combiners, ONE grouped-sum exchange, per-host merge on the
    driver (host universe = the module's small side)."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    from nacc_form_validator_ray.stages.text_signals import TextStats

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "text"])
    ds = ds.map_batches(TextStats(langid=True), batch_format="pyarrow",
                        batch_size=4096)

    def partial(t) -> pd.DataFrame:
        host = _host_of(t["url"], pc).to_numpy(zero_copy_only=False)
        pred = t["lang_pred"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"host": host, "lang_pred": pred})
        df["c"] = np.int64(1)
        return df.groupby(["host", "lang_pred"], as_index=False).sum()

    counts = grouped_agg_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["host", "lang_pred"], ["c"], num_partitions=8).to_pandas()
    if counts.empty or "host" not in counts.columns:
        return pd.DataFrame({"host": pd.Series([], dtype=object),
                             "n_pages": pd.Series([], dtype=np.int64),
                             "lang_gini": pd.Series([],
                                                    dtype=np.float64)})
    g = counts.groupby("host")["c"].agg(
        n="sum", s2=lambda c: int((c.to_numpy(np.int64) ** 2).sum()))
    n = g["n"].to_numpy(np.int64)
    s2 = g["s2"].to_numpy(np.int64)
    gini = np.zeros(len(g), dtype=np.float64)
    nz = n > 0
    gini[nz] = (n[nz] * n[nz] - s2[nz]) / (n[nz] * n[nz])
    return pd.DataFrame({"host": g.index.to_numpy(object),
                         "n_pages": n, "lang_gini": gini}) \
        .sort_values("host", kind="stable").reset_index(drop=True)


def sql_host_lang_gini(path: str,
                       sql_url_norm: str | None = None) -> str:
    from nacc_form_validator_ray.pipelines.queries import (_SQL_LANG_PRED,
                                                           _sql_sw)
    host = sql_url_norm.format(u="url")
    return f"""
WITH c AS (
  SELECT {host} AS host,
         {_sql_sw('en')} AS sw_en, {_sql_sw('es')} AS sw_es,
         {_sql_sw('de')} AS sw_de, {_sql_sw('fr')} AS sw_fr,
         {_sql_sw('zh')} AS sw_zh
  FROM read_parquet('{path}')),
lpred AS (
  SELECT host, {_SQL_LANG_PRED} AS lang_pred
  FROM c),
g AS (SELECT host, lang_pred, CAST(count(*) AS BIGINT) AS c
      FROM lpred GROUP BY host, lang_pred),
h AS (SELECT host, CAST(sum(c) AS BIGINT) AS n,
             CAST(sum(c * c) AS BIGINT) AS s2
      FROM g GROUP BY host)
SELECT host, n AS n_pages,
       CASE WHEN n > 0
            THEN CAST(n * n - s2 AS DOUBLE) / (n * n)
            ELSE 0.0 END AS lang_gini
FROM h
"""


MIN_QUERIES["host_lang_gini"] = q_host_lang_gini
MIN_LINKED_SQL["host_lang_gini"] = sql_host_lang_gini


def q_token_length_histogram(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide token-length distribution (tokenizer health
    diagnostic): counts of ``[a-z]+`` tokens by byte length. Per-batch
    bincount over the shared run machinery's (e - s + 1) lengths —
    no token strings materialized at all; O(max_len x batches)
    combiner rows merged on the driver."""
    import pyarrow as pa

    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    from nacc_form_validator_ray.stages.text_signals import \
        arrow_token_lens

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["text"])

    def partial(t: "pa.Table") -> pd.DataFrame:
        empty = pd.DataFrame({
            "token_len": pd.Series([], dtype=np.int64),
            "n": pd.Series([], dtype=np.int64)})
        lens = arrow_token_lens(t["text"])
        if not len(lens):
            return empty
        counts = np.bincount(lens)
        nz = np.flatnonzero(counts)
        return pd.DataFrame({"token_len": nz.astype(np.int64),
                             "n": counts[nz].astype(np.int64)})

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["token_len"], {"n": "sum"})
    return out.sort_values("token_len").reset_index(drop=True) \
        .astype({"token_len": np.int64, "n": np.int64})


MIN_QUERIES["token_length_histogram"] = q_token_length_histogram
MIN_ORACLE_SQL["token_length_histogram"] = """
WITH t AS (SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                            '[a-z]+')) AS tok
           FROM documents)
SELECT CAST(strlen(tok) AS BIGINT) AS token_len,
       CAST(count(*) AS BIGINT) AS n
FROM t GROUP BY strlen(tok)
"""


# --------------------------------------------------------------------------
# batch 14: customer RFM, daily count deltas, per-dim embedding range,
# monthly revenue moving average
# --------------------------------------------------------------------------

_US_PER_DAY = 86_400_000_000


def q_customer_rfm(sf_dir: str) -> pd.DataFrame:
    """Classic RFM segmentation over orders: per ordering customer the
    recency (days since last order, against the corpus-max order date),
    frequency (order count), monetary value (exact cents), and the
    NTILE(4) quartile of each — tile 1 = best — plus the combined
    3-digit rfm_score.

    Shape: ONE (custkey) combiner exchange builds the per-customer
    aggregate; the global anchor is a driver scalar off that SMALL
    dataset (no second corpus scan); each quartile is the exact
    arithmetic NTILE of stages/ranking.global_rank — three range
    exchanges over the per-customer table (which is the corpus's
    distinct-customer universe, not the order stream)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.ranking import global_rank

    ds = _rd().read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({
            "custkey": df["o_custkey"].to_numpy(np.int64),
            "n_orders": np.int64(1),
            "monetary_cents": cents,
            "last_us": df["o_orderdate"].astype("int64").to_numpy()})
        return g.groupby("custkey", as_index=False).agg(
            n_orders=("n_orders", "sum"),
            monetary_cents=("monetary_cents", "sum"),
            last_us=("last_us", "max"))

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return part
        return part.groupby("custkey", as_index=False).agg(
            n_orders=("n_orders", "sum"),
            monetary_cents=("monetary_cents", "sum"),
            last_us=("last_us", "max"))

    agg = grouped_apply(
        ds.map_batches(partial, batch_format="pandas"),
        ["custkey"], merge, num_partitions=16).materialize()
    if agg.count() == 0:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in ("custkey", "recency_days",
                                       "n_orders", "monetary_cents",
                                       "r_tile", "f_tile", "m_tile",
                                       "rfm_score")})
    from ray.data.aggregate import Max
    anchor = int(agg.aggregate(Max("last_us", alias_name="a"))["a"])

    ranked = global_rank(agg, "last_us", tie_cols=["custkey"],
                         descending=True, num_partitions=8, ntile=4,
                         ntile_col="r_tile")
    ranked = ranked.drop_columns(["rank"])
    ranked = global_rank(ranked, "n_orders", tie_cols=["custkey"],
                         descending=True, num_partitions=8, ntile=4,
                         ntile_col="f_tile")
    ranked = ranked.drop_columns(["rank"])
    ranked = global_rank(ranked, "monetary_cents",
                         tie_cols=["custkey"], descending=True,
                         num_partitions=8, ntile=4,
                         ntile_col="m_tile")

    def finish(t) -> pd.DataFrame:
        last = t["last_us"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        out = pd.DataFrame({
            "custkey": t["custkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "recency_days": (anchor - last) // _US_PER_DAY,
            "n_orders": t["n_orders"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "monetary_cents": t["monetary_cents"]
            .to_numpy(zero_copy_only=False).astype(np.int64)})
        for c in ("r_tile", "f_tile", "m_tile"):
            out[c] = t[c].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
        out["rfm_score"] = (out["r_tile"] * 100 + out["f_tile"] * 10
                            + out["m_tile"])
        return out

    return ranked.map_batches(finish, batch_format="pyarrow")


MIN_QUERIES["customer_rfm"] = q_customer_rfm
MIN_ORACLE_SQL["customer_rfm"] = f"""
WITH agg AS (
  SELECT o_custkey AS custkey,
         CAST(count(*) AS BIGINT) AS n_orders,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS monetary_cents,
         max(o_orderdate) AS last_dt
  FROM orders GROUP BY o_custkey),
anchor AS (SELECT max(last_dt) AS a FROM agg),
tiled AS (
  SELECT custkey,
         CAST((epoch_us(an.a) - epoch_us(last_dt)) // {_US_PER_DAY}
              AS BIGINT) AS recency_days,
         n_orders, monetary_cents,
         NTILE(4) OVER (ORDER BY last_dt DESC, custkey) AS r_tile,
         NTILE(4) OVER (ORDER BY n_orders DESC, custkey) AS f_tile,
         NTILE(4) OVER (ORDER BY monetary_cents DESC, custkey)
             AS m_tile
  FROM agg, anchor an)
SELECT custkey, recency_days, n_orders, monetary_cents,
       CAST(r_tile AS BIGINT) AS r_tile,
       CAST(f_tile AS BIGINT) AS f_tile,
       CAST(m_tile AS BIGINT) AS m_tile,
       CAST(r_tile * 100 + f_tile * 10 + m_tile AS BIGINT)
           AS rfm_score
FROM tiled
"""


def q_daily_count_delta(sf_dir: str) -> pd.DataFrame:
    """Day-over-day movement per event type: daily counts plus the
    delta vs the type's PREVIOUS PRESENT day (LAG semantics — no
    calendar gap fill; gap_fill_hourly_purchases covers that shape).
    Null event types are excluded by explicit contract in BOTH engines
    (pandas groupby and SQL GROUP BY disagree on NULL groups). One
    (day, type) combiner exchange, then a per-type sort + diff inside
    one more lean exchange keyed on the type."""
    from nacc_form_validator_ray.stages.partition import (grouped_agg_sum,
                                                          grouped_apply)

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df["event_type"].notna()]
        day = df["ts"].dt.normalize()
        g = pd.DataFrame({"day": day,
                          "event_type": df["event_type"],
                          "n": np.int64(1)})
        return g.groupby(["day", "event_type"], as_index=False).sum()

    counts = grouped_agg_sum(
        ds.map_batches(partial, batch_format="pandas"),
        ["day", "event_type"], ["n"], num_partitions=16)

    def delta(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "day": pd.Series([], dtype="datetime64[ns]"),
            "event_type": pd.Series([], dtype=object),
            "n": pd.Series([], dtype=np.int64),
            "delta": pd.Series([], dtype=np.int64)})
        if part.empty or "event_type" not in part.columns:
            return empty
        part = part.sort_values(["event_type", "day"], kind="stable")
        n = part["n"].to_numpy(np.int64)
        prev = np.empty_like(n)
        prev[0] = 0
        prev[1:] = n[:-1]
        et = part["event_type"].to_numpy(object)
        first = np.ones(len(part), dtype=bool)
        first[1:] = et[1:] != et[:-1]
        prev[first] = 0
        return pd.DataFrame({"day": part["day"].to_numpy(),
                             "event_type": et, "n": n,
                             "delta": n - prev})

    return grouped_apply(counts, ["event_type"], delta,
                         num_partitions=8)


MIN_QUERIES["daily_count_delta"] = q_daily_count_delta
MIN_ORACLE_SQL["daily_count_delta"] = """
WITH c AS (
  SELECT date_trunc('day', ts) AS day, event_type,
         CAST(count(*) AS BIGINT) AS n
  FROM events WHERE event_type IS NOT NULL
  GROUP BY day, event_type)
SELECT day, event_type, n,
       CAST(n - coalesce(lag(n) OVER (PARTITION BY event_type
                                      ORDER BY day), 0) AS BIGINT)
           AS delta
FROM c
"""


def q_embedding_dim_minmax(sf_dir: str) -> pd.DataFrame:
    """Per-dimension min / max / range over the embedding column —
    the quantization-prep profile (int8 scale/offset derivation).
    Exact by construction: min and max are order-insensitive (unlike
    float sums, which the repo's float discipline forbids across
    engines); the range is one correctly-rounded float64 subtraction
    of exactly-cast float32 values. Per-batch (d,) reductions over the
    zero-copy matrix view, O(dims x batches) combiner rows merged on
    the driver."""
    from nacc_form_validator_ray.stages.similarity import \
        _matrix_from_arrow

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["embedding"])

    def partial(t) -> pd.DataFrame:
        empty = pd.DataFrame({
            "dim": pd.Series([], dtype=np.int64),
            "vmin": pd.Series([], dtype=np.float64),
            "vmax": pd.Series([], dtype=np.float64)})
        if t.num_rows == 0:
            return empty
        m = _matrix_from_arrow(t["embedding"])
        if m.size == 0:
            return empty
        return pd.DataFrame({
            "dim": np.arange(1, m.shape[1] + 1, dtype=np.int64),
            "vmin": m.min(axis=0), "vmax": m.max(axis=0)})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty or "dim" not in parts.columns:
        return pd.DataFrame({"dim": pd.Series([], dtype=np.int64),
                             "vmin": pd.Series([], dtype=np.float64),
                             "vmax": pd.Series([], dtype=np.float64),
                             "vrange": pd.Series([],
                                                 dtype=np.float64)})
    out = parts.groupby("dim", as_index=False).agg(
        vmin=("vmin", "min"), vmax=("vmax", "max"))
    out["vrange"] = out["vmax"] - out["vmin"]
    return out.sort_values("dim").reset_index(drop=True)


MIN_QUERIES["embedding_dim_minmax"] = q_embedding_dim_minmax
MIN_ORACLE_SQL["embedding_dim_minmax"] = """
WITH x AS (SELECT unnest(embedding) AS v,
                  generate_subscripts(embedding, 1) AS dim
           FROM embeddings)
SELECT CAST(dim AS BIGINT) AS dim,
       CAST(min(v) AS DOUBLE) AS vmin,
       CAST(max(v) AS DOUBLE) AS vmax,
       CAST(max(v) AS DOUBLE) - CAST(min(v) AS DOUBLE) AS vrange
FROM x GROUP BY dim
"""


def q_monthly_revenue_ma3(sf_dir: str) -> pd.DataFrame:
    """Monthly shipped revenue with its 3-month moving average
    (ROWS BETWEEN 2 PRECEDING AND CURRENT ROW over present months —
    LAG-family semantics, no calendar fill). Revenue in the repo's
    exact revenue_ch units (cents x (100 - discount_hundredths));
    the average is ONE double division of the exact int64 window sum
    by the window row count. One (month) combiner exchange; the
    month table is O(years x 12) and the rolling pass is a driver
    formality."""
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum

    ds = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["l_shipdate"]
        month = (d.dt.year * 100 + d.dt.month).to_numpy(np.int64)
        cents = np.floor(
            df["l_extendedprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        disc_h = np.floor(
            df["l_discount"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"ship_month": month,
                          "revenue_ch": cents * (100 - disc_h)})
        return g.groupby("ship_month", as_index=False).sum()

    months = grouped_agg_sum(
        ds.map_batches(partial, batch_format="pandas"),
        ["ship_month"], ["revenue_ch"], num_partitions=8).to_pandas()
    if months.empty or "ship_month" not in months.columns:
        return pd.DataFrame({
            "ship_month": pd.Series([], dtype=np.int64),
            "revenue_ch": pd.Series([], dtype=np.int64),
            "ma3": pd.Series([], dtype=np.float64)})
    months = months.sort_values("ship_month").reset_index(drop=True)
    rev = months["revenue_ch"].to_numpy(np.int64)
    n = len(rev)
    csum = np.concatenate([[0], np.cumsum(rev)])
    lo = np.maximum(np.arange(n) - 2, 0)
    wsum = csum[1:] - csum[lo]
    wcnt = np.arange(n) - lo + 1
    return pd.DataFrame({
        "ship_month": months["ship_month"].to_numpy(np.int64),
        "revenue_ch": rev,
        "ma3": wsum.astype(np.float64) / wcnt})


MIN_QUERIES["monthly_revenue_ma3"] = q_monthly_revenue_ma3
MIN_ORACLE_SQL["monthly_revenue_ma3"] = """
WITH m AS (
  SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate) AS BIGINT)
             AS ship_month,
         CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                  * (100 - CAST(floor(l_discount * 100 + 0.5)
                                AS BIGINT))) AS BIGINT) AS revenue_ch
  FROM lineitem GROUP BY 1)
SELECT ship_month, revenue_ch,
       CAST(CAST(sum(revenue_ch) OVER w AS BIGINT) AS DOUBLE)
           / count(*) OVER w AS ma3
FROM m
WINDOW w AS (ORDER BY ship_month
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
"""


# --------------------------------------------------------------------------
# batch 15 — readability, multi-pattern filters, change detection,
# dense-rank ties, embedding norm profile
# --------------------------------------------------------------------------

def q_flesch_pages(sf_dir: str):
    """Exact Flesch reading-ease scoring over the linked-page fixture
    — the classic readability gate corpus pipelines apply alongside
    Gopher rules (reference semantics: the 206.835 - 1.015 W/S -
    84.6 Y/W formula; deviation: "syllables" are vowel-group runs,
    the standard regex proxy, and both engines share it).

    Map-only corpus pass: word / sentence / syllable counts are three
    RE2 kernels (``pc.count_substring_regex``) over the Arrow column —
    no exchange, no Python rows. The score is kept EXACT by clearing
    denominators: ``flesch_num = 206835*S*W - 1015*W^2 - 84600*Y*S``
    (int64; milli-scaled so no decimal appears) with the reported
    double being the ONE terminal division num/(1000*S*W). Pages with
    zero words or zero sentences pin flesch = 0.0 in both engines
    (the num column still carries its exact value). Engine body lives
    in stages/text_signals.flesch_scores (shared with bench.py's
    120k-page line)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.text_signals import \
        flesch_scores

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "text"])
    return flesch_scores(ds)


def sql_flesch_pages(path: str, sql_url_norm: str | None = None) -> str:
    return f"""
WITH c AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(coalesce(text, ''),
                                     '[A-Za-z]+')) AS BIGINT)
             AS n_words,
         CAST(len(regexp_extract_all(coalesce(text, ''),
                                     '[.!?]+')) AS BIGINT)
             AS n_sents,
         CAST(len(regexp_extract_all(coalesce(text, ''),
                                     '[AEIOUYaeiouy]+'))
              AS BIGINT) AS n_syll
  FROM read_parquet('{path}'))
SELECT doc_id, n_words, n_sents, n_syll,
       CAST(206835 * n_sents * n_words - 1015 * n_words * n_words
            - 84600 * n_syll * n_sents AS BIGINT) AS flesch_num,
       CASE WHEN n_sents * n_words > 0
            THEN CAST(206835 * n_sents * n_words
                      - 1015 * n_words * n_words
                      - 84600 * n_syll * n_sents AS DOUBLE)
                 / CAST(1000 * n_sents * n_words AS DOUBLE)
            ELSE 0.0 END AS flesch
FROM c
"""


MIN_QUERIES["flesch_pages"] = q_flesch_pages
MIN_LINKED_SQL["flesch_pages"] = sql_flesch_pages


#: banned-phrase inventory for the multi-pattern content filter —
#: drawn from the documents fixture's vocabulary so every SF has hits
BAD_PHRASES = ("table scan", "hash join", "sort merge", "key order")


def q_bad_phrase_docs(sf_dir: str) -> pd.DataFrame:
    """Multi-pattern banned-phrase audit over the documents corpus —
    the literal-blocklist content filter (profanity / boilerplate /
    contamination strings) every web pipeline runs before training:
    per (source, phrase), how many documents contain the phrase and
    how many total occurrences appear.

    Map-only combiner pass: each batch computes per-phrase occurrence
    counts with ``pc.count_substring`` (vectorized literal matching —
    the Aho-Corasick seam; swap in a compiled multi-pattern matcher
    for large phrase lists) and emits at most |sources| x |phrases|
    partial rows; the driver merges those bounded partials. The twin
    counts occurrences with the replace-length trick — identical for
    non-self-overlapping phrases (all of BAD_PHRASES). Null sources
    ride the repo's '' contract."""
    import pyarrow.compute as pc

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "text"])

    def partial(t) -> pd.DataFrame:
        txt = pc.fill_null(t["text"], "")
        src = pc.fill_null(t["source"], "").to_numpy(
            zero_copy_only=False)
        frames = []
        for p in BAD_PHRASES:
            occ = pc.count_substring(txt, p) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            frames.append(pd.DataFrame({
                "source": src, "phrase": p, "n_docs_hit":
                    (occ > 0).astype(np.int64), "n_occurrences": occ}))
        allp = pd.concat(frames, ignore_index=True)
        return allp.groupby(["source", "phrase"], as_index=False).sum()

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "phrase"],
        {"n_docs_hit": "sum", "n_occurrences": "sum"})
    return out.sort_values(["source", "phrase"]) \
        .reset_index(drop=True)


MIN_QUERIES["bad_phrase_docs"] = q_bad_phrase_docs
MIN_ORACLE_SQL["bad_phrase_docs"] = "\nUNION ALL\n".join(f"""
SELECT source, '{p}' AS phrase,
       CAST(count(*) FILTER (WHERE occ > 0) AS BIGINT) AS n_docs_hit,
       CAST(sum(occ) AS BIGINT) AS n_occurrences
FROM (SELECT coalesce(source, '') AS source,
             (length(coalesce(text, ''))
              - length(replace(coalesce(text, ''), '{p}', '')))
                 // {len(p)} AS occ
      FROM documents)
GROUP BY source""" for p in BAD_PHRASES)


def q_cusum_max_events(sf_dir: str) -> pd.DataFrame:
    """CUSUM change-point peak per event type: over each type's
    (ts, event_id)-ordered value stream, the maximum absolute centered
    cumulative deviation — the classic drift/level-shift detector —
    kept EXACT by clearing the mean's denominator:
    ``dev_k = |n * prefix_k - k * total|`` in int64 milli-units
    (value <= ~1e3 and n <= ~1e6 keep n*prefix < 2^62; document the
    rescale knob past that). Ties at the peak resolve to the earliest
    position, matching the twin's ``ORDER BY dev DESC, k ASC`` pick.

    ONE hash exchange on event_type; each partition lexsorts once and
    computes every type's prefix scan vectorized; one row per type
    reaches the driver. Null event_type rides the repo's '' contract
    (coalesce in the twin, fillna in the engine)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "event_type",
                                     "value"])

    def _coalesce_type(t):
        # BEFORE the exchange: a null key and a real '' key must land
        # in the same partition or the driver sees duplicate '' rows
        import pyarrow.compute as pc
        i = t.schema.get_field_index("event_type")
        return t.set_column(i, "event_type",
                            pc.fill_null(t["event_type"], ""))

    ds = ds.map_batches(_coalesce_type, batch_format="pyarrow")

    empty = pd.DataFrame({
        "event_type": pd.Series([], dtype=object),
        "n": pd.Series([], dtype=np.int64),
        "total_milli": pd.Series([], dtype=np.int64),
        "max_dev": pd.Series([], dtype=np.int64),
        "at_k": pd.Series([], dtype=np.int64)})

    def peaks(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return empty
        et = part["event_type"].fillna("").to_numpy()
        ts = part["ts"].to_numpy()
        eid = part["event_id"].to_numpy(np.int64)
        vm = np.floor(
            part["value"].to_numpy(np.float64) * 1000.0) \
            .astype(np.int64)
        order = np.lexsort((eid, ts, et))
        et, vm = et[order], vm[order]
        n_all = len(et)
        first = np.ones(n_all, dtype=bool)
        first[1:] = et[1:] != et[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], n_all)
        rows = []
        csum = np.cumsum(vm)
        for s, e in zip(starts, ends):
            n = np.int64(e - s)
            base = csum[s - 1] if s > 0 else np.int64(0)
            pre = csum[s:e] - base
            tot = pre[-1]
            k = np.arange(1, n + 1, dtype=np.int64)
            dev = np.abs(n * pre - k * tot)
            at = int(np.argmax(dev))  # first occurrence on ties
            rows.append((et[s], int(n), int(tot), int(dev[at]),
                         at + 1))
        return pd.DataFrame(rows, columns=["event_type", "n",
                                           "total_milli", "max_dev",
                                           "at_k"]) \
            .astype({"n": np.int64, "total_milli": np.int64,
                     "max_dev": np.int64, "at_k": np.int64})

    out = grouped_apply(ds, ["event_type"], peaks,
                        num_partitions=8).to_pandas()
    if out.empty or "event_type" not in out.columns:
        return empty
    return out.sort_values("event_type").reset_index(drop=True)


MIN_QUERIES["cusum_max_events"] = q_cusum_max_events
MIN_ORACLE_SQL["cusum_max_events"] = """
WITH e AS (
  SELECT coalesce(event_type, '') AS event_type, ts, event_id,
         CAST(floor(value * 1000) AS BIGINT) AS vm
  FROM events),
t AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(vm) AS BIGINT) AS tot
      FROM e GROUP BY 1),
c AS (SELECT event_type, CAST(row_number() OVER w AS BIGINT) AS k,
             CAST(sum(vm) OVER w AS BIGINT) AS pre
      FROM e WINDOW w AS (PARTITION BY event_type
                          ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING)),
d AS (SELECT c.event_type, c.k,
             abs(t.n * c.pre - c.k * t.tot) AS dev
      FROM c JOIN t USING (event_type)),
r AS (SELECT event_type, k, dev,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY dev DESC, k ASC) AS rn
      FROM d)
SELECT r.event_type, t.n, t.tot AS total_milli,
       CAST(r.dev AS BIGINT) AS max_dev, r.k AS at_k
FROM r JOIN t USING (event_type)
WHERE rn = 1
ORDER BY event_type
"""


def q_dense_rank_top_prices(sf_dir: str) -> pd.DataFrame:
    """Top-2 price LEVELS per brand with ALL ties kept — the
    DENSE_RANK counterpart of the repo's row-bounded top-k family
    (``topk_lineitems_per_order`` keeps k rows; this keeps k distinct
    VALUES, however many rows share them).

    Superset argument: a row whose cents price is among its brand's
    global top-2 distinct values is necessarily among its BATCH's
    top-2 distinct values (at most one distinct global value exceeds
    it), so per-batch dense-rank<=2 filtering is a lossless combiner;
    the driver re-ranks the bounded candidate set. Both rank passes
    are the same vectorized lexsort + run-boundary cumsum — no
    per-group loop. Prices ride the repo's cents grid."""

    ds = _rd().read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_brand", "p_partkey",
                                     "p_retailprice"])

    def dense_top2(brand: np.ndarray, key: np.ndarray,
                   cents: np.ndarray):
        order = np.lexsort((-cents, brand))
        b, k, c = brand[order], key[order], cents[order]
        n = len(b)
        newb = np.ones(n, dtype=bool)
        newb[1:] = b[1:] != b[:-1]
        newp = newb.copy()
        newp[1:] |= c[1:] != c[:-1]
        dense = np.cumsum(newp)
        gstart = np.flatnonzero(newb)
        gid = np.cumsum(newb) - 1
        drk = dense - dense[gstart[gid]] + 1
        keep = drk <= 2
        return b[keep], k[keep], c[keep], drk[keep]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({
                "p_brand": pd.Series([], dtype=object),
                "p_partkey": pd.Series([], dtype=np.int64),
                "price_cents": pd.Series([], dtype=np.int64)})
        cents = np.floor(
            df["p_retailprice"].to_numpy(np.float64) * 100 + 0.5) \
            .astype(np.int64)
        b, k, c, _ = dense_top2(df["p_brand"].to_numpy(),
                                df["p_partkey"].to_numpy(np.int64),
                                cents)
        return pd.DataFrame({"p_brand": b, "p_partkey": k,
                             "price_cents": c})

    cand = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if cand.empty or "p_brand" not in cand.columns:
        return pd.DataFrame({
            "p_brand": pd.Series([], dtype=object),
            "p_partkey": pd.Series([], dtype=np.int64),
            "price_cents": pd.Series([], dtype=np.int64),
            "drk": pd.Series([], dtype=np.int64)})
    b, k, c, drk = dense_top2(cand["p_brand"].to_numpy(),
                              cand["p_partkey"].to_numpy(np.int64),
                              cand["price_cents"].to_numpy(np.int64))
    out = pd.DataFrame({"p_brand": b, "p_partkey": k,
                        "price_cents": c,
                        "drk": drk.astype(np.int64)})
    return out.sort_values(["p_brand", "drk", "p_partkey"]) \
        .reset_index(drop=True)


MIN_QUERIES["dense_rank_top_prices"] = q_dense_rank_top_prices
MIN_ORACLE_SQL["dense_rank_top_prices"] = """
SELECT p_brand, p_partkey, price_cents, CAST(drk AS BIGINT) AS drk
FROM (
  SELECT p_brand, p_partkey,
         CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
             AS price_cents,
         DENSE_RANK() OVER (
             PARTITION BY p_brand
             ORDER BY CAST(floor(p_retailprice * 100 + 0.5)
                           AS BIGINT) DESC) AS drk
  FROM part)
WHERE drk <= 2
"""


def q_embedding_norm_histogram(sf_dir: str) -> pd.DataFrame:
    """Per-label histogram of embedding squared norms on the repo's
    2^12 quantization grid, bucketed at floor(log2(1 + ||v||^2)) —
    the norm-profile audit run before cosine pipelines (un-normalized
    vectors silently break inner-product ANN; a bucket spread wider
    than ~2 octaves per label flags them).

    Map-only combiner: each batch is ONE (rows x d) int64 square-sum,
    buckets via the exact integer floor-log2 (never float log2, which
    mis-rounds across power boundaries), and at most
    |labels| x 64 partial rows; driver merges. The twin rides
    DuckDB's length(bin(x))-1 floor-log2 idiom over an unnest
    aggregation."""
    from nacc_form_validator_ray.pipelines.advanced import (
        GRAM_QUANT, _floor_log2_u64)
    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    from nacc_form_validator_ray.stages.similarity import \
        _matrix_from_arrow

    ds = _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["embedding", "label"])

    def partial(t) -> pd.DataFrame:
        x = _matrix_from_arrow(t["embedding"])
        if x.shape[0] == 0:
            return pd.DataFrame({
                "label": pd.Series([], dtype=np.int64),
                "bucket": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64)})
        v = np.floor(x * GRAM_QUANT + 0.5).astype(np.int64)
        s = np.einsum("ij,ij->i", v, v)
        bucket = _floor_log2_u64((s + 1).astype(np.uint64)) \
            .astype(np.int64)
        # label dtype rides through untouched (int32 in the fixture;
        # the twin's any_value(label) matches whatever the table
        # holds). NULL-label vectors are EXCLUDED by contract (the
        # pandas groupby drops them; the twin filters them) — a
        # type-generic sentinel would collide on int labels
        lab = t["label"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"label": lab, "bucket": bucket,
                          "n": np.int64(1)})
        return g.groupby(["label", "bucket"], as_index=False).sum()

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["label", "bucket"], {"n": "sum"})
    out = out.astype({"bucket": np.int64, "n": np.int64})
    return out.sort_values(["label", "bucket"]).reset_index(drop=True)


from nacc_form_validator_ray.pipelines.advanced import \
    GRAM_QUANT as _NORM_HIST_QUANT  # single-source the grid (review)

MIN_QUERIES["embedding_norm_histogram"] = q_embedding_norm_histogram
MIN_ORACLE_SQL["embedding_norm_histogram"] = f"""
WITH q AS (
  SELECT vec_id, any_value(label) AS label,
         CAST(sum(v * v) AS BIGINT) AS s
  FROM (SELECT vec_id, label,
               CAST(floor(unnest(embedding) * {_NORM_HIST_QUANT} + 0.5)
                    AS BIGINT) AS v
        FROM embeddings
        WHERE label IS NOT NULL)
  GROUP BY vec_id)
SELECT label, CAST(length(bin(s + 1)) - 1 AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM q GROUP BY 1, 2
ORDER BY 1, 2
"""


# --------------------------------------------------------------------------
# batch 16 — out-of-order arrival audit, source-priority dedup,
# inverted-index construction, distinctive terms, neighbor-set Jaccard
# --------------------------------------------------------------------------

def q_late_events_audit(sf_dir: str) -> pd.DataFrame:
    """Out-of-order arrival audit per user: treating ``event_id`` as
    arrival order and ``ts`` as event time, count events that arrive
    AFTER a later-timestamped event has already been seen (the
    watermark-lateness measurement every streaming ingest runs before
    choosing window allowed-lateness), plus the worst lateness in
    exact integer microseconds.

    ONE hash exchange on user_id; each partition lexsorts once by
    (user_id, event_id) and computes the per-user running max with a
    grouped int64 cummax — prev-max compare, lateness and per-user
    maxima are all vectorized (maximum.reduceat over user segments),
    never a float (a NaN-introducing shift would round timestamps past
    2^53)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "user_id"])

    empty = pd.DataFrame({
        "user_id": pd.Series([], dtype=np.int64),
        "n_events": pd.Series([], dtype=np.int64),
        "n_late": pd.Series([], dtype=np.int64),
        "max_late_us": pd.Series([], dtype=np.int64)})

    def audit(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return empty
        uid = part["user_id"].to_numpy(np.int64)
        eid = part["event_id"].to_numpy(np.int64)
        tsu = part["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        order = np.lexsort((eid, uid))
        uid, tsu = uid[order], tsu[order]
        n = len(uid)
        first = np.ones(n, dtype=bool)
        first[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(first)
        # grouped running max (int64-exact): pandas cummax per user
        run = pd.Series(tsu).groupby(uid, sort=False).cummax() \
            .to_numpy(np.int64)
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = run[:-1]
        prev[starts] = np.iinfo(np.int64).min   # no predecessor
        late = prev > tsu
        lateness = np.where(late, prev - tsu, 0)
        counts = np.diff(np.append(starts, n))
        out = pd.DataFrame({
            "user_id": uid[starts],
            "n_events": counts.astype(np.int64),
            "n_late": np.add.reduceat(
                late.astype(np.int64), starts),
            "max_late_us": np.maximum.reduceat(lateness, starts)})
        return out

    out = grouped_apply(ds, ["user_id"], audit,
                        num_partitions=8).to_pandas()
    if out.empty or "user_id" not in out.columns:
        return empty
    return out.sort_values("user_id").reset_index(drop=True) \
        .astype({c: np.int64 for c in out.columns})


MIN_QUERIES["late_events_audit"] = q_late_events_audit
MIN_ORACLE_SQL["late_events_audit"] = """
WITH w AS (
  SELECT user_id, epoch_us(ts) AS tsu,
         max(epoch_us(ts)) OVER (
             PARTITION BY user_id ORDER BY event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm
  FROM events)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(*) FILTER (WHERE pm > tsu) AS BIGINT) AS n_late,
       CAST(coalesce(max(CASE WHEN pm > tsu THEN pm - tsu END), 0)
            AS BIGINT) AS max_late_us
FROM w GROUP BY user_id
ORDER BY user_id
"""


def q_source_priority_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact dedup with SOURCE PREFERENCE: per content hash keep the
    copy from the lexicographically-first source (tiebreak min doc_id)
    — the curation variant of ``dedup_exact`` every pretrain mix
    applies when the same page arrives from multiple crawls/dumps and
    one source is trusted more (keep-min-id alone would keep whichever
    dump was ingested first).

    Same decision shape as q_dedup_exact: normalize + md5 per batch,
    ONE hash exchange on the content hash, per-partition vectorized
    argmin over (source, doc_id). Null sources ride the '' contract."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.dedup import (md5_hex,
                                                      normalize_ws_arrow)
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source", "text"])

    def add_hash(t: "pa.Table") -> "pa.Table":
        # digest straight off the normalized Arrow buffer — the text
        # column never boxes into pandas objects (VERDICT item 5)
        return pa.table({
            "content_hash": pa.array(
                md5_hex(normalize_ws_arrow(t["text"])), pa.string()),
            "source": pc.fill_null(t["source"].combine_chunks(), ""),
            "doc_id": t["doc_id"].combine_chunks().cast(pa.int64())})

    def keep_best(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return part
        part = part.sort_values(["content_hash", "source", "doc_id"],
                                kind="stable")
        return part.drop_duplicates("content_hash", keep="first")

    out = grouped_apply(ds.map_batches(add_hash,
                                       batch_format="pyarrow"),
                        ["content_hash"], keep_best).to_pandas()
    if out.empty or "content_hash" not in out.columns:
        return pd.DataFrame({
            "content_hash": pd.Series([], dtype=object),
            "source": pd.Series([], dtype=object),
            "doc_id": pd.Series([], dtype=np.int64)})
    return out.sort_values("content_hash").reset_index(drop=True) \
        .astype({"doc_id": np.int64})


MIN_QUERIES["source_priority_dedup"] = q_source_priority_dedup
MIN_ORACLE_SQL["source_priority_dedup"] = r"""
WITH h AS (
  SELECT md5(lower(trim(regexp_replace(coalesce(text, ''),
                                       '\s+', ' ', 'g'))))
             AS content_hash,
         coalesce(source, '') AS source, doc_id
  FROM documents),
rk AS (SELECT *, row_number() OVER (PARTITION BY content_hash
                                    ORDER BY source, doc_id) AS rn
       FROM h)
SELECT content_hash, source, CAST(doc_id AS BIGINT) AS doc_id
FROM rk WHERE rn = 1
ORDER BY content_hash
"""


#: posting-list prefix length surfaced by the inverted index
_INV_PREFIX_K = 8


def q_inverted_index_prefix(sf_dir: str) -> pd.DataFrame:
    """Inverted-index construction over the documents corpus: per
    token its document frequency, total occurrence count, and the
    first 8 posting doc_ids (ascending) — the index-build operator
    behind bm25_search (which only consumes per-batch stats; this one
    actually materializes the per-term posting heads a serving index
    ships).

    Per-batch: (doc_id, tok, occ) counts from
    ``text_signals.ngram_counts`` keyed by doc_id (each doc lives in
    exactly one batch row, so per-batch pairs are globally distinct).
    ONE hash exchange on tok co-locates every term's postings; the
    per-partition pass is a lexsort + run-boundary reduceat for df/tot
    and a head-8 string join for the prefix."""

    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])

    def pairs(t):
        return ngram_counts(arrow_token_codes(t["text"]),
                            by=t["doc_id"]) \
            .rename_columns(["doc_id", "tok", "occ"])

    def postings(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "tok": pd.Series([], dtype=object),
            "df": pd.Series([], dtype=np.int64),
            "tot": pd.Series([], dtype=np.int64),
            "posting_prefix": pd.Series([], dtype=object)})
        if part.empty:
            return empty
        part = part.sort_values(["tok", "doc_id"], kind="stable")
        tok = part["tok"].to_numpy(object)
        occ = part["occ"].to_numpy(np.int64)
        n = len(tok)
        first = np.ones(n, dtype=bool)
        first[1:] = tok[1:] != tok[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, n))
        head = part.groupby("tok", sort=False).head(_INV_PREFIX_K)
        prefix = head.groupby("tok", sort=False)["doc_id"].agg(
            lambda s: ",".join(map(str, s)))
        return pd.DataFrame({
            "tok": tok[starts],
            "df": counts.astype(np.int64),
            "tot": np.add.reduceat(occ, starts),
            "posting_prefix": prefix.loc[tok[starts]].to_numpy(object)})

    out = grouped_apply(ds.map_batches(pairs, batch_format="pyarrow"),
                        ["tok"], postings,
                        num_partitions=16).to_pandas()
    if out.empty or "tok" not in out.columns:
        return pd.DataFrame({
            "tok": pd.Series([], dtype=object),
            "df": pd.Series([], dtype=np.int64),
            "tot": pd.Series([], dtype=np.int64),
            "posting_prefix": pd.Series([], dtype=object)})
    return out.sort_values("tok").reset_index(drop=True) \
        .astype({"df": np.int64, "tot": np.int64})


MIN_QUERIES["inverted_index_prefix"] = q_inverted_index_prefix
MIN_ORACLE_SQL["inverted_index_prefix"] = f"""
WITH t AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents),
pairs AS (SELECT tok, doc_id, CAST(count(*) AS BIGINT) AS occ
          FROM t GROUP BY 1, 2),
rk AS (SELECT tok, doc_id, occ,
              row_number() OVER (PARTITION BY tok
                                 ORDER BY doc_id) AS rn
       FROM pairs)
SELECT tok, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(occ) AS BIGINT) AS tot,
       string_agg(CASE WHEN rn <= {_INV_PREFIX_K}
                       THEN CAST(doc_id AS VARCHAR) END,
                  ',' ORDER BY doc_id) AS posting_prefix
FROM rk GROUP BY tok
ORDER BY tok
"""


#: distinctive-terms output size per source
_DT_K = 5


def q_distinctive_terms(sf_dir: str) -> pd.DataFrame:
    """Top-5 tokens most OVER-represented in each source vs the rest
    of the corpus — the domain-signature / contamination-probe audit
    (which boilerplate tokens does this crawl contribute?). The score
    is the chi-square numerator kept EXACT by clearing both rate
    denominators: ``dev = n_rest * c_src - n_src * c_rest`` (int64;
    positive = over-represented; products stay under 2^63 up to
    ~3e9-token corpora — rescale the counts past that).

    Two-level plan: per-batch (source, tok, c) combiners are
    materialized ONCE (lean, batch-vocab-bounded); per-source token
    totals merge on the driver (|sources| rows) and ride into the ONE
    tok-keyed exchange as a broadcast dict, so each partition scores
    its tokens and emits only per-source top-5 candidates (full
    (dev DESC, tok) tiebreak makes the per-partition head lossless)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "text"])

    empty = pd.DataFrame({
        "source": pd.Series([], dtype=object),
        "tok": pd.Series([], dtype=object),
        "c": pd.Series([], dtype=np.int64),
        "dev": pd.Series([], dtype=np.int64)})

    def count_partial(t):
        import pyarrow.compute as pc
        return ngram_counts(arrow_token_codes(t["text"]),
                            by=pc.fill_null(t["source"], "")) \
            .rename_columns(["source", "tok", "c"])

    partials = ds.map_batches(count_partial, batch_format="pyarrow") \
        .materialize()

    def totals_partial(df: pd.DataFrame) -> pd.DataFrame:
        # |sources| rows per BLOCK — the driver merge is
        # sources x blocks, never the vocab-scale partial table
        # (review: tot = partials.to_pandas() pulled the whole thing)
        return df.groupby("source", as_index=False)["c"].sum()

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    totals = _merge_partials(
        partials.map_batches(totals_partial, batch_format="pandas"),
        ["source"], {"c": "sum"})
    if totals.empty:
        return empty
    n_src = dict(zip(totals["source"],
                     totals["c"].astype(np.int64)))
    n_all = int(totals["c"].sum())

    def score_part(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return empty
        agg = part.groupby(["source", "tok"], as_index=False)["c"] \
            .sum()
        ctot = agg.groupby("tok")["c"].transform("sum") \
            .to_numpy(np.int64)
        c_s = agg["c"].to_numpy(np.int64)
        ns = agg["source"].map(n_src).to_numpy(np.int64)
        dev = (n_all - ns) * c_s - ns * (ctot - c_s)
        agg["dev"] = dev
        agg = agg.sort_values(["source", "dev", "tok"],
                              ascending=[True, False, True],
                              kind="stable")
        return agg.groupby("source", sort=False).head(_DT_K)

    cand = grouped_apply(partials, ["tok"], score_part,
                         num_partitions=16).to_pandas()
    if cand.empty or "source" not in cand.columns:
        return empty
    cand = cand.sort_values(["source", "dev", "tok"],
                            ascending=[True, False, True],
                            kind="stable")
    out = cand.groupby("source", sort=False).head(_DT_K)
    return out.reset_index(drop=True) \
        .astype({"c": np.int64, "dev": np.int64})


MIN_QUERIES["distinctive_terms"] = q_distinctive_terms
MIN_ORACLE_SQL["distinctive_terms"] = f"""
WITH t AS (
  SELECT coalesce(source, '') AS source,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents),
ns AS (SELECT source, CAST(count(*) AS BIGINT) AS n
       FROM t GROUP BY 1),
nt AS (SELECT CAST(count(*) AS BIGINT) AS nn FROM t),
c AS (SELECT source, tok, CAST(count(*) AS BIGINT) AS c
      FROM t GROUP BY 1, 2),
ct AS (SELECT tok, CAST(sum(c) AS BIGINT) AS ctot FROM c GROUP BY 1),
d AS (SELECT c.source, c.tok, c.c,
             (nt.nn - ns.n) * c.c - ns.n * (ct.ctot - c.c) AS dev
      FROM c JOIN ns USING (source) JOIN ct USING (tok)
      CROSS JOIN nt),
rk AS (SELECT source, tok, c, dev,
              row_number() OVER (PARTITION BY source
                                 ORDER BY dev DESC, tok) AS rn
       FROM d)
SELECT source, tok, c, CAST(dev AS BIGINT) AS dev
FROM rk WHERE rn <= {_DT_K}
"""


#: minimum shared in-neighbors for a host pair to surface
_HNJ_MIN = 2


def q_host_neighbor_jaccard(sf_dir: str) -> pd.DataFrame:
    """In-neighbor-set Jaccard between host pairs — the mirror/
    template-network detector: hosts linked from nearly the same set
    of source hosts are one property. Pairs ride the SAFE co-citation
    orientation (grouped by SOURCE, fan-out bounded by out-degree
    squared — never by the fixture's heavy doc-host in-degrees);
    in-degrees are a lean bounded aggregate merged on the driver; the
    Jaccard is the ONE terminal double division of exact int64 counts
    ``shared / (in_a + in_b - shared)`` in identical expression order
    to the twin."""
    return host_neighbor_jaccard_from_edges(_directed_host_edges(sf_dir))


def host_neighbor_jaccard_from_edges(edges) -> pd.DataFrame:
    """Pair mining + degree merge over a distinct (src, dst) host edge
    Dataset — split from :func:`q_host_neighbor_jaccard` so bench.py
    can drive it over the 120k-page corpus."""
    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    from nacc_form_validator_ray.stages.partition import (grouped_agg_sum,
                                                          grouped_apply)

    empty = pd.DataFrame({
        "host_a": pd.Series([], dtype=object),
        "host_b": pd.Series([], dtype=object),
        "n_shared": pd.Series([], dtype=np.int64),
        "in_a": pd.Series([], dtype=np.int64),
        "in_b": pd.Series([], dtype=np.int64),
        "jacc": pd.Series([], dtype=np.float64)})

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        e = pd.DataFrame({
            "host_a": pd.Series([], dtype=object),
            "host_b": pd.Series([], dtype=object),
            "n_shared": pd.Series([], dtype=np.int64)})
        if part.empty or "src" not in part.columns:
            return e
        xs, ys = [], []
        for _, g in part.groupby("src", sort=False):
            nb = np.unique(g["dst"].to_numpy(object))
            if len(nb) < 2:
                continue
            i, j = np.triu_indices(len(nb), k=1)
            xs.append(nb[i])
            ys.append(nb[j])
        if not xs:
            return e
        df = pd.DataFrame({"host_a": np.concatenate(xs),
                           "host_b": np.concatenate(ys)})
        df["n_shared"] = np.int64(1)
        return df.groupby(["host_a", "host_b"], as_index=False).sum()

    def indeg_partial(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty or "dst" not in part.columns:
            return pd.DataFrame({
                "dst": pd.Series([], dtype=object),
                "d": pd.Series([], dtype=np.int64)})
        g = part.groupby("dst", as_index=False).size() \
            .rename(columns={"size": "d"})
        g["d"] = g["d"].astype(np.int64)
        return g

    # edges is a hash_exchange product — re-executing it would repeat
    # the corpus read; pin the lean (src, dst) table once for both
    # consumers (pairs and in-degrees)
    edges = edges.materialize()

    cand = grouped_apply(edges, ["src"], pairs, num_partitions=16)
    merged = grouped_agg_sum(cand, ["host_a", "host_b"], ["n_shared"],
                             num_partitions=8).to_pandas()
    if merged.empty or "host_a" not in merged.columns:
        return empty
    pairs_df = merged.loc[merged["n_shared"] >= _HNJ_MIN].copy()
    if pairs_df.empty:
        return empty

    indeg = _merge_partials(
        edges.map_batches(indeg_partial, batch_format="pandas"),
        ["dst"], {"d": "sum"})
    dmap = dict(zip(indeg["dst"], indeg["d"].astype(np.int64)))
    ia = pairs_df["host_a"].map(dmap).to_numpy(np.int64)
    ib = pairs_df["host_b"].map(dmap).to_numpy(np.int64)
    ns = pairs_df["n_shared"].to_numpy(np.int64)
    pairs_df["in_a"] = ia
    pairs_df["in_b"] = ib
    pairs_df["jacc"] = ns.astype(np.float64) \
        / (ia + ib - ns).astype(np.float64)
    return pairs_df.sort_values(["host_a", "host_b"], kind="stable") \
        .reset_index(drop=True) \
        .astype({"n_shared": np.int64, "in_a": np.int64,
                 "in_b": np.int64})


def sql_host_neighbor_jaccard(path: str,
                              sql_url_norm: str | None = None) -> str:
    return f"""
{_sql_edge_ctes(path, sql_url_norm, distinct_directed=True)},
ind AS (SELECT dst, CAST(count(*) AS BIGINT) AS d FROM e1 GROUP BY 1),
p AS (SELECT x.dst AS host_a, y.dst AS host_b,
             CAST(count(*) AS BIGINT) AS n_shared
      FROM e1 x JOIN e1 y ON y.src = x.src AND x.dst < y.dst
      GROUP BY 1, 2)
SELECT host_a, host_b, n_shared,
       ia.d AS in_a, ib.d AS in_b,
       CAST(n_shared AS DOUBLE)
           / CAST(ia.d + ib.d - n_shared AS DOUBLE) AS jacc
FROM p JOIN ind ia ON ia.dst = host_a
       JOIN ind ib ON ib.dst = host_b
WHERE n_shared >= {_HNJ_MIN}
"""


MIN_QUERIES["host_neighbor_jaccard"] = q_host_neighbor_jaccard
MIN_LINKED_SQL["host_neighbor_jaccard"] = sql_host_neighbor_jaccard


# --------------------------------------------------------------------------
# batch 17 — Benford first-digit audit, referential-integrity orphans,
# share-of-parent revenue rollup
# --------------------------------------------------------------------------

def q_benford_order_totals(sf_dir: str) -> pd.DataFrame:
    """Benford first-significant-digit profile of order totals — the
    classic bulk data-forgery / synthetic-data audit (real transaction
    amounts lean on digit 1; a flat profile flags generated or
    truncated feeds). Exact digit extraction: cents on the repo's
    grid, |cents| reduced by vectorized integer division (at most 19
    halving passes — never float log10, which mis-rounds at powers of
    ten); zero pins digit 0.

    Map-only combiner: <= 10 partial rows per batch, driver merge;
    the share is the ONE terminal double division n/total in twin
    expression order."""
    ds = _rd().read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({
                "digit": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64)})
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100 + 0.5) \
            .astype(np.int64)
        a = np.abs(cents)
        while (a >= 10).any():
            big = a >= 10
            a[big] //= 10
        g = pd.DataFrame({"digit": a, "n": np.int64(1)})
        return g.groupby("digit", as_index=False).sum()

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    out = _merge_partials(
        ds.map_batches(partial, batch_format="pandas"),
        ["digit"], {"n": "sum"})
    if out.empty:
        return pd.DataFrame({
            "digit": pd.Series([], dtype=np.int64),
            "n": pd.Series([], dtype=np.int64),
            "share": pd.Series([], dtype=np.float64)})
    out = out.astype({"digit": np.int64, "n": np.int64})
    tot = int(out["n"].sum())
    out["share"] = out["n"].to_numpy(np.float64) / np.float64(tot)
    return out.sort_values("digit").reset_index(drop=True)


MIN_QUERIES["benford_order_totals"] = q_benford_order_totals
MIN_ORACLE_SQL["benford_order_totals"] = """
WITH c AS (
  SELECT abs(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS a
  FROM orders),
d AS (SELECT CASE WHEN a = 0 THEN CAST(0 AS BIGINT)
                  ELSE CAST(left(CAST(a AS VARCHAR), 1) AS BIGINT)
             END AS digit
      FROM c),
t AS (SELECT CAST(count(*) AS BIGINT) AS tot FROM d)
SELECT digit, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) AS DOUBLE) / CAST(t.tot AS DOUBLE) AS share
FROM d CROSS JOIN t
GROUP BY digit, t.tot
ORDER BY digit
"""


#: FK edges audited by fk_orphans: (label, child table, child key,
#: parent table, parent key)
_FK_EDGES = (
    ("lineitem.l_orderkey", "lineitem", "l_orderkey",
     "orders", "o_orderkey"),
    ("orders.o_custkey", "orders", "o_custkey",
     "customer", "c_custkey"),
    ("customer.c_nationkey", "customer", "c_nationkey",
     "nation", "n_nationkey"),
)


def q_fk_orphans(sf_dir: str) -> pd.DataFrame:
    """Referential-integrity audit across the star schema's FK edges:
    per edge, total child rows and rows whose key has NO parent — the
    pre-flight every multi-table pipeline runs before joins silently
    drop rows (an inner join on a dirty edge under-reports revenue
    with no error anywhere).

    Per edge: child batches pre-aggregate to (key, n) partials and
    parent batches emit distinct keys; ONE tag-union hash exchange on
    the key per edge (the anti-join shape, but counting — full child
    rows never move), then a one-row partial per partition and a
    driver sum. Keys are non-null int64 in every audited edge (null
    keys would need the groupby(dropna=False) variant)."""
    from nacc_form_validator_ray.stages.partition import grouped_apply

    rows = []
    for label, child_t, child_k, parent_t, parent_k in _FK_EDGES:
        child = _rd().read_parquet(f"{sf_dir}/{child_t}.parquet",
                                   columns=[child_k])
        parent = _rd().read_parquet(f"{sf_dir}/{parent_t}.parquet",
                                    columns=[parent_k])

        def child_partial(df: pd.DataFrame, k=child_k) -> pd.DataFrame:
            g = df.groupby(k, as_index=False).size() \
                .rename(columns={k: "key", "size": "n"})
            # int32 dims (c_nationkey) must match the parent side's
            # int64 or the exchange's concat_tables rejects the blocks
            g["key"] = g["key"].astype(np.int64)
            g["n"] = g["n"].astype(np.int64)
            g["side"] = np.int64(0)
            return g

        def parent_partial(df: pd.DataFrame, k=parent_k) -> pd.DataFrame:
            return pd.DataFrame({
                "key": df[k].drop_duplicates().to_numpy(np.int64),
                "n": np.int64(0), "side": np.int64(1)})

        def count_orphans(part: pd.DataFrame) -> pd.DataFrame:
            if part.empty:
                return pd.DataFrame({"n_child": pd.Series([], np.int64),
                                     "n_orphan": pd.Series([], np.int64)})
            kids = part[part["side"] == 0]
            parents = part.loc[part["side"] == 1, "key"]
            orphan = ~kids["key"].isin(parents)
            return pd.DataFrame({
                "n_child": [np.int64(kids["n"].sum())],
                "n_orphan": [np.int64(kids.loc[orphan, "n"].sum())]})

        tagged = child.map_batches(child_partial, batch_format="pandas") \
            .union(parent.map_batches(parent_partial,
                                      batch_format="pandas"))
        p = grouped_apply(tagged, ["key"], count_orphans,
                          num_partitions=8).to_pandas()
        n_child = int(p["n_child"].sum()) if "n_child" in p.columns \
            else 0
        n_orphan = int(p["n_orphan"].sum()) if "n_orphan" in p.columns \
            else 0
        rows.append((label, n_child, n_orphan))
    return pd.DataFrame(rows, columns=["edge", "n_child", "n_orphan"]) \
        .astype({"n_child": np.int64, "n_orphan": np.int64}) \
        .sort_values("edge").reset_index(drop=True)


MIN_QUERIES["fk_orphans"] = q_fk_orphans
MIN_ORACLE_SQL["fk_orphans"] = "\nUNION ALL\n".join(f"""
SELECT '{label}' AS edge,
       CAST(count(*) AS BIGINT) AS n_child,
       CAST(count(*) FILTER (WHERE p.{pk} IS NULL) AS BIGINT)
           AS n_orphan
FROM {ct} c LEFT JOIN (SELECT DISTINCT {pk} FROM {pt}) p
  ON c.{ck} = p.{pk}""" for label, ct, ck, pt, pk in _FK_EDGES) \
    + "\nORDER BY edge"


def q_nation_revenue_share(sf_dir: str) -> pd.DataFrame:
    """Share-of-parent rollup: each nation's order revenue as a share
    of its REGION's total — the hierarchical contribution report
    (window SUM OVER parent in SQL terms). Orders pre-aggregate per
    custkey inside each batch, ONE fact-fact hash-join exchange with
    customer (never a broadcast — customer scales with the dataset),
    lean (nationkey, cents) partials merge on the driver, and the
    nation/region dimension tables (fixed 25/5 rows) resolve names
    driver-side. Shares are ONE double division of exact int64 cents
    per row, twin expression order."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nacc_form_validator_ray.pipelines.queries import \
        _merge_partials
    from nacc_form_validator_ray.stages.joins import hash_join

    orders = _rd().read_parquet(f"{sf_dir}/orders.parquet",
                                columns=["o_custkey", "o_totalprice"])

    def pre_agg(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            df["o_totalprice"].to_numpy(np.float64) * 100 + 0.5) \
            .astype(np.int64)
        g = pd.DataFrame({"c_custkey": df["o_custkey"].to_numpy(np.int64),
                          "rev_cents": cents})
        return g.groupby("c_custkey", as_index=False).sum()

    cust = _rd().read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_nationkey"])
    joined = hash_join(orders.map_batches(pre_agg,
                                          batch_format="pandas"),
                       cust, on="c_custkey")

    def per_nation(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_nationkey", as_index=False)["rev_cents"].sum()
        g["rev_cents"] = g["rev_cents"].astype(np.int64)
        return g

    nat_rev = _merge_partials(
        joined.map_batches(per_nation, batch_format="pandas"),
        ["c_nationkey"], {"rev_cents": "sum"})

    empty = pd.DataFrame({
        "r_name": pd.Series([], dtype=object),
        "n_name": pd.Series([], dtype=object),
        "rev_cents": pd.Series([], dtype=np.int64),
        "region_cents": pd.Series([], dtype=np.int64),
        "share": pd.Series([], dtype=np.float64)})
    if nat_rev.empty:
        return empty

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name",
                                    "n_regionkey"]).to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"]).to_pandas()
    df = nat_rev.merge(nation, left_on="c_nationkey",
                       right_on="n_nationkey") \
        .merge(region, left_on="n_regionkey", right_on="r_regionkey")
    reg_tot = df.groupby("r_name")["rev_cents"].transform("sum") \
        .to_numpy(np.int64)
    df["region_cents"] = reg_tot
    df["share"] = df["rev_cents"].to_numpy(np.int64).astype(np.float64) \
        / reg_tot.astype(np.float64)
    out = df[["r_name", "n_name", "rev_cents", "region_cents", "share"]]
    return out.sort_values(["r_name", "n_name"], kind="stable") \
        .reset_index(drop=True) \
        .astype({"rev_cents": np.int64, "region_cents": np.int64})


MIN_QUERIES["nation_revenue_share"] = q_nation_revenue_share
MIN_ORACLE_SQL["nation_revenue_share"] = """
WITH o AS (
  SELECT o_custkey,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders),
nr AS (SELECT n.n_regionkey, n.n_name,
              CAST(sum(o.cents) AS BIGINT) AS rev_cents
       FROM o JOIN customer c ON c.c_custkey = o.o_custkey
              JOIN nation n ON n.n_nationkey = c.c_nationkey
       GROUP BY 1, 2)
SELECT r.r_name, nr.n_name, nr.rev_cents,
       CAST(sum(nr.rev_cents) OVER (PARTITION BY r.r_name) AS BIGINT)
           AS region_cents,
       CAST(nr.rev_cents AS DOUBLE)
           / CAST(sum(nr.rev_cents) OVER (PARTITION BY r.r_name)
                  AS DOUBLE) AS share
FROM nr JOIN region r ON r.r_regionkey = nr.n_regionkey
ORDER BY r.r_name, nr.n_name
"""


# --------------------------------------------------------------------------
# batch 19: operations monitoring — exact-σ anomaly days, sliding-window
# burst users, outlink diversity, TLD keep-rate calibration, and the
# PageRank convergence audit
# --------------------------------------------------------------------------

#: burst window / threshold (events fixture is sparse: a 24 h window
#: with >= 8 events splits the user population non-degenerately)
_BURST_WINDOW_S = 86_400
_BURST_K = 8


def q_daily_anomaly_events(sf_dir: str) -> pd.DataFrame:
    """Days whose event count deviates more than 2σ from the corpus's
    mean daily count — the volume-anomaly monitor every ingestion
    pipeline runs (a feed that doubles overnight is a crawler loop; one
    that halves is an outage). EXACT: with m days, s = Σn and
    ss = Σn², the test ``(n_i - μ)² > 4σ²`` cross-multiplies to the
    all-integer ``(m·n_i - s)² > 4·(m·ss - s²)`` — Python ints on the
    driver, HUGEINT in the twin, no float σ anywhere (repo convention,
    see value_regression_events).

    Engine shape: per-batch (day, n) combiner partials, one tiny driver
    merge (day cardinality is bounded), driver-side integer test."""
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"day": df["ts"].dt.normalize(),
                          "n": np.int64(1)})
        return g.groupby("day", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({
            "day": pd.Series([], dtype="datetime64[us]"),
            "n_events": pd.Series([], dtype=np.int64),
            "is_anomaly": pd.Series([], dtype=bool)})
    c = parts.groupby("day", as_index=False)["n"].sum() \
        .sort_values("day").reset_index(drop=True)
    n = [int(v) for v in c["n"]]
    m, s, ss = len(n), sum(n), sum(v * v for v in n)
    rhs = 4 * (m * ss - s * s)
    flag = [(m * v - s) ** 2 > rhs for v in n]
    return pd.DataFrame({"day": c["day"],
                         "n_events": np.asarray(n, dtype=np.int64),
                         "is_anomaly": np.asarray(flag, dtype=bool)})


MIN_QUERIES["daily_anomaly_events"] = q_daily_anomaly_events
MIN_ORACLE_SQL["daily_anomaly_events"] = """
WITH c AS (
  SELECT date_trunc('day', ts) AS day, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY day),
g AS (
  SELECT CAST(count(*) AS HUGEINT) AS m,
         CAST(sum(n) AS HUGEINT) AS s,
         CAST(sum(CAST(n AS HUGEINT) * n) AS HUGEINT) AS ss
  FROM c)
SELECT day, n AS n_events,
       (m * n - s) * (m * n - s) > 4 * (m * ss - s * s) AS is_anomaly
FROM c, g
"""


def q_burst_users(sf_dir: str, num_partitions: int = 16) -> pd.DataFrame:
    """Sliding-window burst detection per user: the maximum number of
    events inside any window ``[t, t + 24h]`` anchored at an event, and
    the ``is_burst`` flag at >= 8 — the rate-limit / bot-account audit
    (SQL: a RANGE-frame window max; engines without interval frames do
    exactly this two-searchsorted sweep).

    Engine shape: ONE hash exchange on user_id, then a per-partition
    lexsort and two vectorized searchsorteds over a composite
    (user_rank << span) + ts axis — with an exact per-user-segment
    fallback when the composite would overflow int64. RANGE-frame peer
    semantics (duplicate timestamps all count) fall out of the
    left/right searchsorted pair."""
    from nacc_form_validator_ray.stages.partition import grouped_apply
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts"])
    w_us = np.int64(_BURST_WINDOW_S) * 1_000_000

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": pd.Series([], dtype=np.int64),
            "max_burst": pd.Series([], dtype=np.int64),
            "is_burst": pd.Series([], dtype=bool)})
        if part.empty or "user_id" not in part.columns:
            return empty
        part = part.sort_values(["user_id", "ts"], kind="stable")
        uid = part["user_id"].to_numpy(np.int64)
        ts = part["ts"].to_numpy("datetime64[us]").astype(np.int64)
        ts = ts - ts.min()
        codes = np.empty(len(uid), dtype=np.int64)
        first = np.ones(len(uid), dtype=bool)
        first[1:] = uid[1:] != uid[:-1]
        np.cumsum(first, out=codes)
        span = int(ts.max()) + int(w_us) + 2
        if int(codes[-1]) * span < np.iinfo(np.int64).max // 2:
            axis = codes * np.int64(span) + ts
            lo = np.searchsorted(axis, axis, side="left")
            hi = np.searchsorted(axis, axis + w_us, side="right")
        else:  # exact fallback: per-user segments
            lo = np.empty(len(ts), dtype=np.int64)
            hi = np.empty(len(ts), dtype=np.int64)
            bounds = np.flatnonzero(first).tolist() + [len(ts)]
            for a, b in zip(bounds[:-1], bounds[1:]):
                seg = ts[a:b]
                lo[a:b] = a + np.searchsorted(seg, seg, side="left")
                hi[a:b] = a + np.searchsorted(seg, seg + w_us,
                                              side="right")
        burst = hi - lo
        out = pd.DataFrame({"user_id": uid, "b": burst}) \
            .groupby("user_id", as_index=False)["b"].max() \
            .rename(columns={"b": "max_burst"})
        out["is_burst"] = out["max_burst"] >= _BURST_K
        return out.astype({"user_id": np.int64, "max_burst": np.int64})

    return grouped_apply(ds, ["user_id"], per_part,
                         num_partitions=num_partitions)


MIN_QUERIES["burst_users"] = q_burst_users
MIN_ORACLE_SQL["burst_users"] = f"""
WITH b AS (
  SELECT user_id,
         COUNT(*) OVER (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN CURRENT ROW
             AND INTERVAL {_BURST_WINDOW_S} SECONDS FOLLOWING) AS c
  FROM events)
SELECT user_id, CAST(max(c) AS BIGINT) AS max_burst,
       max(c) >= {_BURST_K} AS is_burst
FROM b GROUP BY user_id
"""


def q_outlink_stats(sf_dir: str):
    """Per-host outlink diversity over the linked-page fixture — see
    stages/graph.outlink_stats (two lean host-level exchanges; the
    known-host restriction rides the dst exchange partition-locally)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import outlink_stats
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return outlink_stats(ds)


def sql_outlink_stats(path: str, sql_url_norm: str) -> str:
    host_url = sql_url_norm.format(u="url")
    host_lk = sql_url_norm.format(u="lk")
    return f"""
WITH pg AS (SELECT url, links FROM read_parquet('{path}')),
e0 AS (SELECT {host_url} AS src, unnest(links) AS lk FROM pg),
e1 AS (SELECT src, {host_lk} AS dst FROM e0),
nodes AS (SELECT DISTINCT {host_url} AS host FROM pg),
k AS (SELECT src, dst, CAST(count(*) AS BIGINT) AS cnt
      FROM e1 WHERE dst IN (SELECT host FROM nodes)
      GROUP BY src, dst),
agg AS (
  SELECT src AS host, CAST(sum(cnt) AS BIGINT) AS n_outlinks,
         CAST(count(*) AS BIGINT) AS n_dst_hosts,
         CAST(coalesce(sum(cnt) FILTER (dst = src), 0) AS BIGINT)
             AS n_self
  FROM k GROUP BY src)
SELECT n.host, coalesce(a.n_outlinks, 0) AS n_outlinks,
       coalesce(a.n_dst_hosts, 0) AS n_dst_hosts,
       coalesce(a.n_self, 0) AS n_self,
       CASE WHEN coalesce(a.n_outlinks, 0) > 0
            THEN CAST(a.n_dst_hosts AS DOUBLE)
                 / CAST(a.n_outlinks AS DOUBLE)
            ELSE 0.0 END AS diversity
FROM nodes n LEFT JOIN agg a ON a.host = n.host
"""


MIN_QUERIES["outlink_stats"] = q_outlink_stats
MIN_LINKED_SQL["outlink_stats"] = sql_outlink_stats


def q_tld_keep_rate(sf_dir: str) -> pd.DataFrame:
    """C4 keep-rate per top-level domain (the last dot-label of the
    normalized host): page count, kept count and keep rate — the
    calibration report that shows whether the heuristic filter encodes
    a TLD prejudice (the per-DOMAIN variant is domain_filter_docs; this
    is its coarse audit rollup). Combiner shape: the C4 pass runs with
    ``url`` passed through, per-batch (tld, n, kept) partials, one tiny
    driver merge."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import (
        _linked_pages_path, _merge_partials)
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.webclean import c4_line_filter

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "url", "text"])
    ds = c4_line_filter(ds, passthrough=("url",))

    def partial(t: "pa.Table") -> "pa.Table":
        host = _host_of(t["url"], pc)
        m = pc.extract_regex(pc.fill_null(host, ""), r"(?P<t>[^.]*)$")
        if isinstance(m, pa.ChunkedArray):
            m = m.combine_chunks()
        tld = pc.fill_null(pc.struct_field(m, "t"), "")
        keep = t["keep"].to_numpy(zero_copy_only=False)
        from nacc_form_validator_ray.stages.partition import \
            pa_grouped_agg
        g = pa.table({"tld": tld,
                      "n_pages": np.ones(t.num_rows, dtype=np.int64),
                      "n_kept": keep.astype(np.int64)})
        return pa_grouped_agg(g, ["tld"],
                              [("n_pages", "sum"), ("n_kept", "sum")],
                              ["n_pages", "n_kept"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = _merge_partials(parts, ["tld"],
                          {"n_pages": "sum", "n_kept": "sum"})
    out["keep_rate"] = np.asarray(out["n_kept"], dtype=np.float64) \
        / np.maximum(np.asarray(out["n_pages"], dtype=np.float64), 1.0)
    return out.sort_values("tld").reset_index(drop=True)


def sql_tld_keep_rate(path: str, sql_url_norm: str) -> str:
    from nacc_form_validator_ray.pipelines.queries import \
        sql_c4_filter_pages
    host = sql_url_norm.format(u="url")
    return f"""
WITH c4 AS ({sql_c4_filter_pages(path)}),
u AS (SELECT doc_id,
             coalesce(regexp_extract({host}, '([^.]*)$', 1), '') AS tld
      FROM read_parquet('{path}')),
j AS (SELECT u.tld, c4.keep FROM u JOIN c4 ON c4.doc_id = u.doc_id)
SELECT tld, CAST(count(*) AS BIGINT) AS n_pages,
       CAST(count(*) FILTER (keep) AS BIGINT) AS n_kept,
       CAST(count(*) FILTER (keep) AS DOUBLE)
           / greatest(count(*), 1) AS keep_rate
FROM j GROUP BY tld
"""


MIN_QUERIES["tld_keep_rate"] = q_tld_keep_rate
MIN_LINKED_SQL["tld_keep_rate"] = sql_tld_keep_rate


def q_pagerank_convergence(sf_dir: str) -> pd.DataFrame:
    """PageRank convergence audit: per host, the fixed-point rank after
    4 and after 5 power iterations and the absolute movement between
    them — the readout that says whether the iteration budget was
    enough (movers near zero => converged; the fixed-round design makes
    the pre-convergence state itself exact and oracle-checkable, see
    stages/graph.host_pagerank / host_kcore for the same discipline).

    Engine shape: ONE fixed-round PageRank run over the shared Pregel
    fabric — the driver already holds the full rank vector between
    rounds, so round 4 is a free ``history`` snapshot (row order equals
    the returned sorted-host order); the diff is a column zip, not a
    join (review finding: the two-run version paid a second read,
    graph build and 4 redundant iterations)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import host_pagerank

    path = _linked_pages_path(sf_dir)
    hist: dict = {}
    b = host_pagerank(_rd().read_parquet(path, columns=["url", "links"]),
                      iterations=5, history=hist).to_pandas()
    if b.empty:
        return pd.DataFrame({
            "host": pd.Series([], dtype=object),
            "rank_fp_4": pd.Series([], dtype=np.int64),
            "rank_fp_5": pd.Series([], dtype=np.int64),
            "delta_fp": pd.Series([], dtype=np.int64),
            "delta": pd.Series([], dtype=np.float64)})
    m = pd.DataFrame({"host": b["host"],
                      "rank_fp_4": hist[4].astype(np.int64),
                      "rank_fp_5": b["rank_fp"].to_numpy(np.int64)})
    m["delta_fp"] = (m["rank_fp_5"] - m["rank_fp_4"]).abs() \
        .astype(np.int64)
    m["delta"] = m["delta_fp"].to_numpy(np.float64) / float(2 ** 40)
    return m.sort_values("host").reset_index(drop=True) \
        .astype({"rank_fp_4": np.int64, "rank_fp_5": np.int64})


def sql_pagerank_convergence(path: str, sql_url_norm: str) -> str:
    from nacc_form_validator_ray.pipelines.queries import \
        sql_host_pagerank
    return f"""
WITH a AS ({sql_host_pagerank(path, iterations=4)}),
b AS ({sql_host_pagerank(path, iterations=5)})
SELECT a.host, a.rank_fp AS rank_fp_4, b.rank_fp AS rank_fp_5,
       CAST(abs(b.rank_fp - a.rank_fp) AS BIGINT) AS delta_fp,
       CAST(abs(b.rank_fp - a.rank_fp) AS DOUBLE)
           / CAST(1099511627776 AS DOUBLE) AS delta
FROM a JOIN b ON b.host = a.host
"""


MIN_QUERIES["pagerank_convergence"] = q_pagerank_convergence
MIN_LINKED_SQL["pagerank_convergence"] = sql_pagerank_convergence


# --------------------------------------------------------------------------
# batch 20: margin/outlier/agreement audits — runner-up gap per type,
# per-source length outliers via exact integer bounds, kNN label
# agreement, dedup survivorship by source
# --------------------------------------------------------------------------


def q_top2_gap_per_type(sf_dir: str) -> pd.DataFrame:
    """Winner / runner-up margin per event type: the two largest
    DISTINCT values and their gap — the margin audit behind alerting
    thresholds (a tiny gap means the max is not an outlier; a huge one
    means it is). Types with fewer than two distinct non-null values
    are omitted; null event types are excluded by explicit contract
    (daily_count_delta convention). No arithmetic beyond one float
    subtraction of untouched input doubles — exact in both engines.

    Engine shape: per-batch top-2-distinct partials per type (tiny),
    one driver merge of partial top-2 sets."""
    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df["event_type"].notna() & df["value"].notna()]
        if df.empty:
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "value": pd.Series([], dtype=np.float64)})
        return df.drop_duplicates() \
            .sort_values(["event_type", "value"],
                         ascending=[True, False], kind="stable") \
            .groupby("event_type", as_index=False).head(2)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "max_value": pd.Series([], dtype=np.float64),
            "second_value": pd.Series([], dtype=np.float64),
            "gap": pd.Series([], dtype=np.float64)})
    top2 = parts.drop_duplicates() \
        .sort_values(["event_type", "value"],
                     ascending=[True, False], kind="stable") \
        .groupby("event_type", as_index=False).head(2)
    counts = top2.groupby("event_type")["value"].transform("size")
    top2 = top2.loc[counts >= 2]
    g = top2.groupby("event_type")["value"]
    out = pd.DataFrame({"event_type": g.max().index,
                        "max_value": g.max().to_numpy(),
                        "second_value": g.min().to_numpy()})
    out["gap"] = out["max_value"] - out["second_value"]
    return out.sort_values("event_type").reset_index(drop=True)


MIN_QUERIES["top2_gap_per_type"] = q_top2_gap_per_type
MIN_ORACLE_SQL["top2_gap_per_type"] = """
WITH d AS (
  SELECT DISTINCT event_type, value FROM events
  WHERE event_type IS NOT NULL AND value IS NOT NULL),
r AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY value DESC) AS rn
  FROM d)
SELECT event_type,
       max(CASE WHEN rn = 1 THEN value END) AS max_value,
       max(CASE WHEN rn = 2 THEN value END) AS second_value,
       max(CASE WHEN rn = 1 THEN value END)
           - max(CASE WHEN rn = 2 THEN value END) AS gap
FROM r WHERE rn <= 2
GROUP BY event_type HAVING count(*) = 2
"""


def q_length_outlier_docs(sf_dir: str) -> pd.DataFrame:
    """Documents whose ``n_chars`` sits more than 2σ from their
    SOURCE's mean length — the per-feed truncation/concatenation-bug
    detector (a feed that suddenly ships 10x-length pages corrupts
    packing budgets downstream). EXACT per-group σ-test: with m docs
    in the source, s = Σx and ss = Σx², the test ``(x-μ)² > 4σ²``
    cross-multiplies to ``(m·x - s)² > 4·(m·ss - s²)``; the driver
    converts it to closed-form integer BOUNDS via isqrt — outlier iff
    ``|m·x - s| >= isqrt(4·(m·ss - s²)) + 1`` iff
    ``x >= ceil((s+T)/m)`` or ``x <= floor((s-T)/m)`` — so the per-doc
    pass is two plain int64 comparisons against a broadcast
    (source -> lo, hi) table; no big-int arithmetic ever touches the
    hot path (the twin states the HUGEINT inequality directly).

    Engine shape: one combiner pass for the per-source moments
    (Python-int driver merge), one re-read flag pass."""
    import math

    import pyarrow as pa
    import pyarrow.compute as pc

    path = f"{sf_dir}/documents.parquet"

    def moments(t: "pa.Table") -> pd.DataFrame:
        src = pc.fill_null(t["source"], "").to_numpy(
            zero_copy_only=False)
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"source": src, "m": np.int64(1), "s": x,
                           "ss": x * x})
        return df.groupby("source", as_index=False).sum()

    parts = _rd().read_parquet(path, columns=["source", "n_chars"]) \
        .map_batches(moments, batch_format="pyarrow").to_pandas()
    empty = pd.DataFrame({
        "doc_id": pd.Series([], dtype=np.int64),
        "source": pd.Series([], dtype=object),
        "n_chars": pd.Series([], dtype=np.int64)})
    if parts.empty:
        return empty
    stats = parts.groupby("source", as_index=False).sum()
    bounds = {}
    for _, r in stats.iterrows():
        m, s, ss = int(r["m"]), int(r["s"]), int(r["ss"])
        t = math.isqrt(4 * (m * ss - s * s)) + 1
        # ceil/floor divisions of possibly-negative ints: use // math
        hi = -((-(s + t)) // m)          # ceil((s+t)/m)
        lo = (s - t) // m                # floor((s-t)/m)
        bounds[str(r["source"])] = (lo, hi)

    def flag(t: "pa.Table") -> pd.DataFrame:
        src = pc.fill_null(t["source"], "").to_numpy(
            zero_copy_only=False)
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        lo = np.fromiter((bounds[s][0] for s in src), dtype=np.int64,
                         count=len(src))
        hi = np.fromiter((bounds[s][1] for s in src), dtype=np.int64,
                         count=len(src))
        keep = (x <= lo) | (x >= hi)
        return pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)[keep],
            "source": src[keep],
            "n_chars": x[keep]})

    out = _rd().read_parquet(path,
                             columns=["doc_id", "source", "n_chars"]) \
        .map_batches(flag, batch_format="pyarrow").to_pandas()
    if out.empty:
        return empty
    return out.sort_values("doc_id").reset_index(drop=True) \
        .astype({"doc_id": np.int64, "n_chars": np.int64})


MIN_QUERIES["length_outlier_docs"] = q_length_outlier_docs
MIN_ORACLE_SQL["length_outlier_docs"] = """
WITH g AS (
  SELECT coalesce(source, '') AS src,
         CAST(count(*) AS HUGEINT) AS m,
         CAST(sum(n_chars) AS HUGEINT) AS s,
         CAST(sum(CAST(n_chars AS HUGEINT) * n_chars) AS HUGEINT) AS ss
  FROM documents GROUP BY coalesce(source, ''))
SELECT d.doc_id, coalesce(d.source, '') AS source, d.n_chars
FROM documents d JOIN g ON g.src = coalesce(d.source, '')
WHERE (g.m * d.n_chars - g.s) * (g.m * d.n_chars - g.s)
      > 4 * (g.m * g.ss - g.s * g.s)
"""


def q_knn_label_agreement(sf_dir: str) -> pd.DataFrame:
    """Label agreement of exact kNN: for each of the standard query
    vectors, the majority label among its 5 nearest neighbors (ties to
    the smaller label) vs its own label — the embedding-space sanity
    eval (low agreement means the labels and the geometry disagree:
    bad embeddings or bad labels). Composes the established
    brute-force kNN contract (broadcast query matrix, per-batch local
    top-k, k x blocks driver merge); the neighbor/query label lookups
    are pushdown-filtered reads of the tiny id set."""
    from nacc_form_validator_ray.pipelines.queries import q_knn
    knn = q_knn(sf_dir)
    if hasattr(knn, "to_pandas"):
        knn = knn.to_pandas()
    if knn.empty or "rank" not in knn.columns:
        # single-vector / empty corpus: no neighbors, no eval rows
        return pd.DataFrame({
            "query_id": pd.Series([], dtype=np.int64),
            "label": pd.Series([], dtype=np.int64),
            "label_pred": pd.Series([], dtype=np.int64),
            "correct": pd.Series([], dtype=bool)})
    knn = knn.loc[knn["rank"] <= 5]
    ids = sorted(set(knn["query_id"]) | set(knn["neighbor_id"]))
    import pyarrow.dataset as pads
    lab = _rd().read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"],
        filter=pads.field("vec_id").isin(ids)).to_pandas()
    lmap = dict(zip(lab["vec_id"].astype(np.int64),
                    lab["label"].astype(np.int64)))
    nb = knn.assign(label=[lmap[int(i)] for i in knn["neighbor_id"]])
    votes = nb.groupby(["query_id", "label"], as_index=False) \
        .size().rename(columns={"size": "c"})
    votes = votes.sort_values(["query_id", "c", "label"],
                              ascending=[True, False, True],
                              kind="stable")
    pred = votes.groupby("query_id", as_index=False).head(1)
    out = pd.DataFrame({
        "query_id": pred["query_id"].to_numpy(np.int64),
        "label": np.asarray([lmap[int(q)] for q in pred["query_id"]],
                            dtype=np.int64),
        "label_pred": pred["label"].to_numpy(np.int64)})
    out["correct"] = out["label"] == out["label_pred"]
    return out.sort_values("query_id").reset_index(drop=True)


def _sql_knn_label_agreement(sql_knn: str) -> str:
    return f"""
WITH knn AS ({sql_knn}),
nb AS (
  SELECT k.query_id, CAST(e.label AS BIGINT) AS label
  FROM knn k JOIN embeddings e ON e.vec_id = k.neighbor_id
  WHERE k.rank <= 5),
votes AS (
  SELECT query_id, label, count(*) AS c FROM nb GROUP BY 1, 2),
pred AS (
  SELECT query_id, label AS label_pred,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY c DESC, label ASC) AS rn
  FROM votes)
SELECT p.query_id, CAST(eq.label AS BIGINT) AS label,
       p.label_pred, CAST(eq.label AS BIGINT) = p.label_pred AS correct
FROM pred p JOIN embeddings eq ON eq.vec_id = p.query_id
WHERE p.rn = 1
"""


#: the engine side registers here; the twin composes queries.SQL_KNN,
#: so it is registered at queries.py's BOTTOM (registration-order
#: contract: entries needing queries' SQL constants must not race the
#: ORACLE_SQL.update snapshot — see the subprocess import-order test)
MIN_QUERIES["knn_label_agreement"] = q_knn_label_agreement


def q_dedup_survivors_by_source(sf_dir: str) -> pd.DataFrame:
    """Dedup survivorship per source: documents, exact-dedup survivors
    (min doc_id per normalized-content hash wins, the dedup_exact
    election) and the duplicate rate — the report that shows WHICH
    feed is shipping the copies (the corpus-wide count alone can't).
    One content-hash exchange carrying (hash, doc_id, source); the
    per-source totals and survivor counts are tiny combiner partials
    merged on the driver."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.dedup import (md5_hex,
                                                      normalize_ws_arrow)
    from nacc_form_validator_ray.stages.partition import grouped_apply

    ds = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text", "source"])

    def add_hash(t: "pa.Table") -> "pa.Table":
        # Arrow in, Arrow out: text digests straight off the packed
        # buffer, no pandas object boxing (VERDICT item 5)
        return pa.table({
            "doc_id": t["doc_id"].combine_chunks(),
            "source": pc.fill_null(t["source"].combine_chunks(), ""),
            "content_hash": pa.array(
                md5_hex(normalize_ws_arrow(t["text"])), pa.string())})

    def survivors(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"source": pd.Series([], dtype=object),
                              "n_survivors": pd.Series([],
                                                       dtype=np.int64)})
        if part.empty or "content_hash" not in part.columns:
            return empty
        keep = part.sort_values("doc_id", kind="stable") \
            .groupby("content_hash", as_index=False).head(1)
        return keep.groupby("source", as_index=False) \
            .size().rename(columns={"size": "n_survivors"})

    kept = grouped_apply(ds.map_batches(add_hash,
                                        batch_format="pyarrow"),
                         ["content_hash"], survivors,
                         num_partitions=16).to_pandas()

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"source": df["source"].fillna(""),
                          "n_docs": np.int64(1)})
        return g.groupby("source", as_index=False).sum()

    tot = _rd().read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["source"]) \
        .map_batches(totals, batch_format="pandas").to_pandas()
    empty = pd.DataFrame({
        "source": pd.Series([], dtype=object),
        "n_docs": pd.Series([], dtype=np.int64),
        "n_survivors": pd.Series([], dtype=np.int64),
        "dup_rate": pd.Series([], dtype=np.float64)})
    if tot.empty:
        return empty
    tot = tot.groupby("source", as_index=False)["n_docs"].sum()
    if kept.empty or "source" not in kept.columns:
        surv = pd.DataFrame({"source": pd.Series([], dtype=object),
                             "n_survivors": pd.Series([],
                                                      dtype=np.int64)})
    else:
        surv = kept.groupby("source", as_index=False)[
            "n_survivors"].sum()
    out = tot.merge(surv, on="source", how="left")
    out["n_survivors"] = out["n_survivors"].fillna(0).astype(np.int64)
    out["dup_rate"] = (out["n_docs"] - out["n_survivors"]) \
        .to_numpy(np.float64) / np.maximum(
        out["n_docs"].to_numpy(np.float64), 1.0)
    return out.sort_values("source").reset_index(drop=True)


MIN_QUERIES["dedup_survivors_by_source"] = q_dedup_survivors_by_source
MIN_ORACLE_SQL["dedup_survivors_by_source"] = """
WITH h AS (
  SELECT doc_id, coalesce(source, '') AS source,
         md5(lower(trim(regexp_replace(coalesce(text, ''), '\\s+', ' ',
                                       'g')))) AS ch
  FROM documents),
k AS (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY ch ORDER BY doc_id) AS rn
  FROM h)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (rn = 1) AS BIGINT) AS n_survivors,
       CAST(count(*) FILTER (rn > 1) AS DOUBLE)
           / greatest(count(*), 1) AS dup_rate
FROM k GROUP BY source
"""


# --------------------------------------------------------------------------
# batch 21: vocabulary coverage, sketch-overlap audit, multimodal frame
# dedup
# --------------------------------------------------------------------------

#: oov_rate_by_source vocabulary size (top-K corpus tokens by count,
#: ties to the lexicographically smaller token)
_OOV_VOCAB_K = 256


def q_oov_rate_by_source(sf_dir: str) -> pd.DataFrame:
    """Out-of-vocabulary rate per source against the corpus's own
    top-256 token vocabulary — the vocabulary-coverage audit run before
    fixing a tokenizer/vocab (a source with a high OOV rate will
    shatter into bytes/unknowns and waste sequence length). Exact
    top-K: per-partition (token, count) sums ride ONE exchange, each
    partition emits its local top-K WITH all rows tied at the k-th
    count (a bare head(k) keeps an arbitrary tied subset — repo top-k
    contract), and the driver applies the full (count DESC, token ASC)
    order once; the broadcast vocab then prices every doc in a second
    combiner pass."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.partition import (grouped_apply,
                                                          pa_grouped_agg)
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, ngram_counts)

    path = f"{sf_dir}/documents.parquet"

    def token_counts(t: "pa.Table") -> "pa.Table":
        return ngram_counts(arrow_token_codes(t["text"])) \
            .rename_columns(["token", "n"])

    def local_topk(part: "pa.Table") -> pd.DataFrame:
        if part.num_rows == 0:
            return pd.DataFrame({"token": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        agg = pa_grouped_agg(part, ["token"], [("n", "sum")], ["n"]) \
            .to_pandas()
        agg = agg.sort_values(["n", "token"], ascending=[False, True],
                              kind="stable")
        if len(agg) > _OOV_VOCAB_K:
            kth = agg["n"].iloc[_OOV_VOCAB_K - 1]
            agg = agg.loc[agg["n"] >= kth]  # keep ALL k-th ties
        return agg.reset_index(drop=True)

    parts = _rd().read_parquet(path, columns=["text"]) \
        .map_batches(token_counts, batch_format="pyarrow")
    local = grouped_apply(parts, ["token"], local_topk,
                          num_partitions=8, fn_format="pyarrow") \
        .to_pandas()
    if local.empty or "token" not in local.columns:
        vocab = set()
    else:
        local = local.sort_values(["n", "token"],
                                  ascending=[False, True], kind="stable")
        vocab = set(local["token"].head(_OOV_VOCAB_K))
    # broadcast value set for the pricing pass: pc.is_in stays in C —
    # never a Python membership loop over each batch's dictionary
    vocab_arr = pa.array(sorted(vocab), pa.string())

    def price(t: "pa.Table") -> "pa.Table":
        src = pc.fill_null(t["source"], "")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        codes, dic, tok_doc, n_tokens = arrow_token_codes(text)
        if dic is None:
            n_tok = np.zeros(t.num_rows, dtype=np.int64)
            n_oov = n_tok
        else:
            in_vocab = pc.is_in(dic, value_set=vocab_arr) \
                .to_numpy(zero_copy_only=False)
            oov_tok = ~in_vocab[codes]
            n_oov = np.bincount(tok_doc, weights=oov_tok,
                                minlength=t.num_rows).astype(np.int64)
            n_tok = n_tokens.astype(np.int64)
        g = pa.table({"source": src,
                      "n_docs": np.ones(t.num_rows, dtype=np.int64),
                      "n_tokens": pa.array(n_tok),
                      "n_oov": pa.array(n_oov)})
        return pa_grouped_agg(g, ["source"],
                              [("n_docs", "sum"), ("n_tokens", "sum"),
                               ("n_oov", "sum")],
                              ["n_docs", "n_tokens", "n_oov"])

    from nacc_form_validator_ray.pipelines.queries import _merge_partials
    pr = _rd().read_parquet(path, columns=["text", "source"]) \
        .map_batches(price, batch_format="pyarrow")
    out = _merge_partials(pr, ["source"],
                          {"n_docs": "sum", "n_tokens": "sum",
                           "n_oov": "sum"})
    out["oov_rate"] = np.asarray(out["n_oov"], dtype=np.float64) \
        / np.maximum(np.asarray(out["n_tokens"], dtype=np.float64), 1.0)
    return out.sort_values("source").reset_index(drop=True)


MIN_QUERIES["oov_rate_by_source"] = q_oov_rate_by_source
MIN_ORACLE_SQL["oov_rate_by_source"] = f"""
WITH tok AS (
  SELECT coalesce(source, '') AS source, doc_id,
         unnest(regexp_extract_all(lower(coalesce(text, '')),
                                   '[a-z]+')) AS token
  FROM documents),
vc AS (
  SELECT token, count(*) AS n FROM tok GROUP BY token
  ORDER BY n DESC, token ASC LIMIT {_OOV_VOCAB_K}),
per AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(*) FILTER (token NOT IN (SELECT token FROM vc))
              AS BIGINT) AS n_oov
  FROM tok GROUP BY source),
docs AS (
  SELECT coalesce(source, '') AS source,
         CAST(count(*) AS BIGINT) AS n_docs
  FROM documents GROUP BY coalesce(source, ''))
SELECT d.source, d.n_docs, coalesce(p.n_tokens, 0) AS n_tokens,
       coalesce(p.n_oov, 0) AS n_oov,
       CAST(coalesce(p.n_oov, 0) AS DOUBLE)
           / greatest(coalesce(p.n_tokens, 0), 1) AS oov_rate
FROM docs d LEFT JOIN per p ON p.source = d.source
"""


def q_kmv_type_overlap(sf_dir: str) -> pd.DataFrame:
    """Sketch-overlap audit between the 'click' and 'purchase' user
    sets: per-side KMV estimates, the union sketch's estimate, the
    inclusion-exclusion intersection estimate, AND the exact distinct
    counts/Jaccard beside them — the estimator-error readout
    (hll_estimate_users is the single-set version; overlap is where
    KMV sketches actually earn their keep, and where they go wrong).
    Exactness: the sketch is the repo's integer KMV (distinct_users_kmv
    constants); the exact side is one per-user flag exchange; the only
    float is the final Jaccard division."""
    from nacc_form_validator_ray.pipelines.queries import (KMV_A, KMV_B,
                                                           KMV_K, KMV_P,
                                                           KMV_ROUNDS)

    ds = _rd().read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for side, tname in (("a", "click"), ("b", "purchase")):
            u = df.loc[df["event_type"] == tname, "user_id"] \
                .to_numpy(np.int64)
            h = u
            for _ in range(KMV_ROUNDS):
                h = (KMV_A * h + KMV_B) % KMV_P
            h = np.unique(h)[:KMV_K]
            rows.append(pd.DataFrame({
                "side": side, "h": h.astype(np.int64),
                "user_id": np.zeros(len(h), dtype=np.int64)}))
        # exact flags ride the same partial stream: distinct
        # (user, side) pairs
        ex = df.loc[df["event_type"].isin(["click", "purchase"])]
        exact = pd.DataFrame({
            "side": np.where(ex["event_type"] == "click", "xa", "xb"),
            "h": np.int64(0),
            "user_id": ex["user_id"].to_numpy(np.int64)}) \
            .drop_duplicates()
        return pd.concat(rows + [exact], ignore_index=True)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()

    def kmv_est(h: np.ndarray) -> int:
        h = np.unique(h)[:KMV_K]
        if len(h) == 0:
            return 0
        if len(h) < KMV_K:
            return int(len(h))
        return (KMV_K - 1) * KMV_P // int(h[KMV_K - 1])

    if parts.empty:
        ha = hb = np.empty(0, dtype=np.int64)
        ua = ub = set()
    else:
        ha = parts.loc[parts["side"] == "a", "h"].to_numpy(np.int64)
        hb = parts.loc[parts["side"] == "b", "h"].to_numpy(np.int64)
        ua = set(parts.loc[parts["side"] == "xa", "user_id"])
        ub = set(parts.loc[parts["side"] == "xb", "user_id"])
    est_a, est_b = kmv_est(ha), kmv_est(hb)
    est_union = kmv_est(np.concatenate([ha, hb]))
    n_a, n_b = len(ua), len(ub)
    n_inter = len(ua & ub)
    n_union = n_a + n_b - n_inter
    return pd.DataFrame({
        "k": np.int64([KMV_K]),
        "est_a": np.int64([est_a]), "est_b": np.int64([est_b]),
        "est_union": np.int64([est_union]),
        "est_intersection": np.int64([est_a + est_b - est_union]),
        "exact_a": np.int64([n_a]), "exact_b": np.int64([n_b]),
        "exact_intersection": np.int64([n_inter]),
        "exact_jaccard": np.float64(
            [n_inter / n_union if n_union else 0.0])})


def _sql_kmv_type_overlap() -> str:
    from nacc_form_validator_ray.pipelines.queries import (KMV_A, KMV_B,
                                                           KMV_K, KMV_P,
                                                           KMV_ROUNDS)
    hexpr = "user_id"
    for _ in range(KMV_ROUNDS):
        hexpr = f"({KMV_A} * ({hexpr}) + {KMV_B}) % {KMV_P}"
    return f"""
WITH ha AS (SELECT DISTINCT {hexpr} AS h FROM events
            WHERE event_type = 'click'),
hb AS (SELECT DISTINCT {hexpr} AS h FROM events
       WHERE event_type = 'purchase'),
ka AS (SELECT h FROM ha ORDER BY h LIMIT {KMV_K}),
kb AS (SELECT h FROM hb ORDER BY h LIMIT {KMV_K}),
ku AS (SELECT h FROM (SELECT h FROM ha UNION SELECT h FROM hb)
       ORDER BY h LIMIT {KMV_K}),
ea AS (SELECT CASE WHEN count(*) < {KMV_K} THEN count(*)
            ELSE CAST({KMV_K} - 1 AS BIGINT) * {KMV_P} // max(h) END
            AS e FROM ka),
eb AS (SELECT CASE WHEN count(*) < {KMV_K} THEN count(*)
            ELSE CAST({KMV_K} - 1 AS BIGINT) * {KMV_P} // max(h) END
            AS e FROM kb),
eu AS (SELECT CASE WHEN count(*) < {KMV_K} THEN count(*)
            ELSE CAST({KMV_K} - 1 AS BIGINT) * {KMV_P} // max(h) END
            AS e FROM ku),
xa AS (SELECT count(DISTINCT user_id) AS n FROM events
       WHERE event_type = 'click'),
xb AS (SELECT count(DISTINCT user_id) AS n FROM events
       WHERE event_type = 'purchase'),
xi AS (SELECT count(*) AS n FROM (
         SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
         INTERSECT
         SELECT DISTINCT user_id FROM events
         WHERE event_type = 'purchase'))
SELECT CAST({KMV_K} AS BIGINT) AS k,
       CAST(ea.e AS BIGINT) AS est_a, CAST(eb.e AS BIGINT) AS est_b,
       CAST(eu.e AS BIGINT) AS est_union,
       CAST(ea.e + eb.e - eu.e AS BIGINT) AS est_intersection,
       CAST(xa.n AS BIGINT) AS exact_a, CAST(xb.n AS BIGINT) AS exact_b,
       CAST(xi.n AS BIGINT) AS exact_intersection,
       CASE WHEN xa.n + xb.n - xi.n > 0
            THEN CAST(xi.n AS DOUBLE)
                 / CAST(xa.n + xb.n - xi.n AS DOUBLE)
            ELSE 0.0 END AS exact_jaccard
FROM ea, eb, eu, xa, xb, xi
"""


#: engine side registers here; the twin embeds queries' KMV constants,
#: so it is registered at queries.py's BOTTOM (registration-order
#: contract, same as knn_label_agreement)
MIN_QUERIES["kmv_type_overlap"] = q_kmv_type_overlap


#: frame_dedup frame geometry (chars per frame; every Nth sampled) —
#: mirrors q_frame_sample's FrameSampler(256, 4)
_FRAME_CHARS, _FRAME_NTH = 256, 4


def q_frame_dedup(sf_dir: str):
    """Cross-document duplicate FRAMES: fixed-size sampled payload
    slices that appear in >= 2 distinct documents — the multimodal
    flavor of line dedup (watermark/intro frames repeated across
    videos). Frames here are CODEPOINT slices
    (``pc.utf8_slice_codeunits``, vectorized — a few slice kernels per
    batch, never a per-row decode loop) so the DuckDB ``substring()``
    twin is exact on ANY unicode text and null text rides the null==''
    contract; ``q_frame_sample`` keeps the byte-true FrameSampler
    plumbing with its documented ASCII parity caveat (a byte-sliced
    frame that splits a multibyte char cannot even be decoded, let
    alone matched char-wise). One exchange on the frame text;
    per-batch (frame, doc) pre-dedup keeps the exchange lean."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import _docs
    from nacc_form_validator_ray.stages.partition import (grouped_apply,
                                                          pa_grouped_agg)

    W, NTH = _FRAME_CHARS, _FRAME_NTH

    def pre(t: "pa.Table") -> "pa.Table":
        text = pc.fill_null(t["text"], "")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        n = pc.utf8_length(text).to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        # frame indices f in range(0, max(n_chars // W, 1), NTH):
        # every doc emits frame 0 (even empty text), long docs every
        # NTH full window — identical to the twin's unnest(range(...))
        nf = np.maximum(n // W, 1)
        fr_texts, fr_ids = [], []
        max_nf = int(nf.max()) if len(nf) else 0
        for f in range(0, max_nf, NTH):
            mask = nf > f
            sel = text if mask.all() else text.filter(pa.array(mask))
            sl = pc.utf8_slice_codeunits(sel, start=f * W,
                                         stop=(f + 1) * W)
            if isinstance(sl, pa.ChunkedArray):
                sl = sl.combine_chunks()
            fr_texts.append(sl)
            fr_ids.append(ids[mask])
        if not fr_texts:
            return pa.table({
                "frame_text": pa.array([], pa.string()),
                "media_id": pa.array([], pa.int64())})
        tbl = pa.table({
            "frame_text": pa.concat_arrays(fr_texts),
            "media_id": pa.array(np.concatenate(fr_ids))})
        # per-batch (frame, doc) dedup keeps the exchange lean
        return pa_grouped_agg(tbl, ["frame_text", "media_id"],
                              [("media_id", "count")],
                              ["_n"]).drop_columns(["_n"])

    def per_frame(part: "pa.Table") -> "pa.Table":
        if "frame_text" not in part.column_names:
            # zero-row corpus: Ray skips the UDF on empty input blocks,
            # so the exchange's all-empty fallback hands fn a 0-column
            # table — this guard is what lets the result BLOCK keep the
            # three typed columns (schemaless-empty trap). Note Ray
            # 2.49's ``to_pandas()`` still flattens any zero-row
            # dataset to a bare DataFrame; ``schema()`` / iter_batches
            # / write_parquet see the typed columns.
            return pa.table({
                "frame_text": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "n_occurrences": pa.array([], pa.int64())})
        g = pa_grouped_agg(part, ["frame_text"],
                           [("media_id", "count_distinct"),
                            ("media_id", "count")],
                           ["n_docs", "n_occurrences"])
        return g.filter(pc.greater_equal(g["n_docs"], 2))

    frames = _docs(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(pre, batch_format="pyarrow")
    return grouped_apply(frames, ["frame_text"], per_frame,
                         num_partitions=16, fn_format="pyarrow")


MIN_QUERIES["frame_dedup"] = q_frame_dedup
MIN_ORACLE_SQL["frame_dedup"] = """
WITH fr AS (
  SELECT DISTINCT doc_id AS media_id,
         substring(coalesce(text, ''), CAST(f * 256 + 1 AS INT),
                   256) AS frame_text
  FROM documents,
       unnest(range(0, greatest(length(coalesce(text, '')) // 256, 1),
                    4)) AS t(f)
)
SELECT frame_text, CAST(count(DISTINCT media_id) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_occurrences
FROM fr GROUP BY frame_text HAVING count(DISTINCT media_id) >= 2
"""


# --------------------------------------------------------------------------
# batch 37: LPA communities + robots-style prefix filter
# --------------------------------------------------------------------------

_LPA_ROUNDS = 4


def q_host_label_propagation(sf_dir: str) -> pd.DataFrame:
    """Label-propagation communities of the host link graph (see
    stages/graph.host_label_propagation: synchronous mode update with
    min-label tie-break, fixed rounds, per-round broadcast + driver
    merge — no per-round exchange)."""
    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import \
        host_label_propagation
    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url", "links"])
    return host_label_propagation(ds, rounds=_LPA_ROUNDS)


def sql_host_label_propagation(path: str,
                               sql_url_norm: str | None = None) -> str:
    """Twin: the SAME synchronous mode update as chained MATERIALIZED
    CTEs — neighbor label counts, then the (count DESC, label ASC)
    window winner; isolated hosts keep their own label."""
    host_url = sql_url_norm.format(u="url")
    iters = []
    for k in range(1, _LPA_ROUNDS + 1):
        iters.append(f"""
c{k} AS MATERIALIZED (
  SELECT nb.u AS host, l.lbl AS l, CAST(count(*) AS BIGINT) AS c
  FROM nb JOIN l{k - 1} l ON l.host = nb.v
  GROUP BY 1, 2),
l{k} AS MATERIALIZED (
  SELECT n.host, coalesce(w.l, n.lbl) AS lbl
  FROM l{k - 1} n
  LEFT JOIN (SELECT host, l FROM (
               SELECT host, l, row_number() OVER (
                   PARTITION BY host ORDER BY c DESC, l) AS rk
               FROM c{k}) WHERE rk = 1) w
    ON w.host = n.host)""")
    return f"""
{_sql_edge_ctes(path, sql_url_norm)},
nodes AS (SELECT DISTINCT {host_url} AS host FROM pg
          UNION SELECT a FROM ed UNION SELECT b FROM ed),
nb AS (SELECT a AS u, b AS v FROM ed
       UNION ALL SELECT b AS u, a AS v FROM ed),
l0 AS MATERIALIZED (SELECT host, host AS lbl FROM nodes),
{','.join(iters)}
SELECT host, lbl AS community FROM l{_LPA_ROUNDS} ORDER BY host
"""


MIN_QUERIES["host_label_propagation"] = q_host_label_propagation
MIN_LINKED_SQL["host_label_propagation"] = sql_host_label_propagation


#: robots.txt-style longest-prefix path rules (rule_id, host-or-*,
#: path prefix, allow). Deterministic synthetic policy over the
#: linked-page fixture — the plumbing (broadcast rule table,
#: vectorized prefix match, longest-prefix / deny-first precedence)
#: is the real crawl-policy operator; swap the table for a parsed
#: robots.txt corpus in production.
ROBOTS_RULES = [
    (0, "*", "/doc/1", False),       # denies /doc/1, /doc/10, /doc/1/x
    (1, "*", "/doc/12", True),       # longest prefix wins /doc/12* back
    (2, "host3.example.org", "/", False),   # whole-host deny
    (3, "*", "/doc/7", False),
]


def q_robots_filter_pages(sf_dir: str) -> pd.DataFrame:
    """Robots-style URL policy filter: every page resolves against a
    broadcast prefix-rule table with longest-prefix-wins precedence
    (ties: deny before allow, then lowest rule id); unmatched pages
    default to allow with rule_id -1. Returns (doc_id, host, rule_id,
    allowed) for every page.

    Scale shape: the rule table is model-sized broadcast state; the
    match is R vectorized ``startswith`` passes per batch in rule
    precedence order (first hit wins) — one streaming pass, no
    exchange at all."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path

    # precedence: longest prefix, deny before allow, lowest rule id
    order = sorted(ROBOTS_RULES,
                   key=lambda r: (-len(r[2]), r[3], r[0]))

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["doc_id", "url"])

    def match(t) -> pd.DataFrame:
        host, pth = _url_host_path(t["url"], pc)
        n = len(pth)
        rule_id = np.full(n, -1, dtype=np.int64)
        allowed = np.ones(n, dtype=bool)
        unset = np.ones(n, dtype=bool)
        path_s = pd.Series(pth, dtype=object)
        for rid, rhost, prefix, allow in order:
            hit = path_s.str.startswith(prefix).to_numpy()
            if rhost != "*":
                hit &= host == rhost
            hit &= unset
            rule_id[hit] = rid
            allowed[hit] = allow
            unset &= ~hit
        return pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            "host": host, "rule_id": rule_id, "allowed": allowed})

    out = ds.map_batches(match, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def sql_robots_filter_pages(path: str,
                            sql_url_norm: str | None = None) -> str:
    host = sql_url_norm.format(u="url")
    vals = ", ".join(
        f"({rid}, '{rhost}', '{prefix}', {str(allow).lower()})"
        for rid, rhost, prefix, allow in ROBOTS_RULES)
    return f"""
WITH pg AS (SELECT doc_id, coalesce(url, '') AS url
            FROM read_parquet('{path}')),
s AS (SELECT doc_id, {host} AS host,
             regexp_extract(regexp_replace(url,
                 '^(?i:https?)://[^/?#]+', ''), '^[^?#]*') AS path
      FROM pg),
rules(rule_id, rhost, prefix, allow) AS (VALUES {vals}),
m AS (SELECT s.doc_id, r.rule_id, r.allow, len(r.prefix) AS plen
      FROM s JOIN rules r
        ON (r.rhost = '*' OR r.rhost = s.host)
       AND starts_with(s.path, r.prefix)),
w AS (SELECT doc_id, rule_id, allow FROM (
        SELECT doc_id, rule_id, allow,
               row_number() OVER (PARTITION BY doc_id
                   ORDER BY plen DESC, allow ASC, rule_id) AS rk
        FROM m) WHERE rk = 1)
SELECT s.doc_id, s.host,
       CAST(coalesce(w.rule_id, -1) AS BIGINT) AS rule_id,
       coalesce(w.allow, true) AS allowed
FROM s LEFT JOIN w ON w.doc_id = s.doc_id
ORDER BY s.doc_id
"""


MIN_QUERIES["robots_filter_pages"] = q_robots_filter_pages
MIN_LINKED_SQL["robots_filter_pages"] = sql_robots_filter_pages


# --------------------------------------------------------------------------
# batch 48: crawl frontier prioritization
# --------------------------------------------------------------------------

_FRONTIER_PER_HOST, _FRONTIER_K = 2, 50


def q_crawl_frontier(sf_dir: str) -> pd.DataFrame:
    """Crawl frontier prioritization: outbound link targets NOT yet
    crawled, ranked by how many distinct hosts link to them, capped at
    2 URLs per target host (politeness), top-50 overall — the
    scheduling decision a crawler makes from exactly this corpus.

    Shape: per-batch distinct (target, linking-host) pairs -> ONE
    target exchange that dedups pairs, counts distinct linking hosts
    AND drops crawled targets via the broadcast crawled-URL filter
    riding the same partition pass (pages are the small side HERE
    because the fixture's crawled set is page-table-sized; at 100 TB
    flip the filter to a second tagged exchange or a Bloom
    prefilter — stages/bloom.py); per-host caps + the global top-k are
    k x hosts driver work. Ties break (n_hosts DESC, url ASC)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from nacc_form_validator_ray.pipelines.queries import \
        _linked_pages_path
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.partition import grouped_apply

    path = _linked_pages_path(sf_dir)
    ds = _rd().read_parquet(path, columns=["url", "links"])

    # crawled set: exact raw URL strings (the frontier is URL-level;
    # host normalization applies to the LINKING host signal only)
    crawled_parts = ds.map_batches(
        lambda t: pd.DataFrame({
            "u": pd.unique(pd.Series(
                pc.fill_null(t["url"], "").to_numpy(
                    zero_copy_only=False), dtype=object))}),
        batch_format="pyarrow").to_pandas()
    crawled = set(crawled_parts["u"]) if not crawled_parts.empty \
        and "u" in crawled_parts.columns else set()
    crawled_ref = ray.put(crawled)

    def pairs(t: "pa.Table") -> pd.DataFrame:
        src_host = _host_of(pc.fill_null(t["url"], ""), pc) \
            .to_numpy(zero_copy_only=False)
        lk = t["links"].combine_chunks() \
            if isinstance(t["links"], pa.ChunkedArray) else t["links"]
        flat = pc.list_flatten(lk).to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(lk) \
            .fill_null(0).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "target": flat,
            "src_host": np.repeat(src_host, counts)})
        return df.drop_duplicates()

    def per_target(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "target": pd.Series([], dtype=object),
            "n_hosts": pd.Series([], dtype=np.int64)})
        if g.empty:
            return empty
        seen = ray.get(crawled_ref)
        g = g[~g["target"].isin(seen)]
        if g.empty:
            return empty
        out = g.drop_duplicates() \
            .groupby("target", as_index=False) \
            .agg(n_hosts=("src_host", "nunique"))
        out["n_hosts"] = out["n_hosts"].astype(np.int64)
        return out

    cand = grouped_apply(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["target"], per_target, num_partitions=16).to_pandas()
    cols = ["target", "target_host", "n_hosts"]
    if cand.empty or "target" not in cand.columns:
        return pd.DataFrame({
            "target": pd.Series([], dtype=object),
            "target_host": pd.Series([], dtype=object),
            "n_hosts": pd.Series([], dtype=np.int64)})
    import pyarrow as pa2
    cand["target_host"] = _host_of(
        pa2.array(cand["target"], pa2.string()), pc) \
        .to_numpy(zero_copy_only=False)
    cand = cand.sort_values(["n_hosts", "target"],
                            ascending=[False, True])
    cand["hrank"] = cand.groupby("target_host").cumcount()
    cand = cand[cand["hrank"] < _FRONTIER_PER_HOST]
    return cand.head(_FRONTIER_K).reset_index(drop=True)[cols]


def sql_crawl_frontier(path: str,
                       sql_url_norm: str | None = None) -> str:
    host_url = sql_url_norm.format(u="url")
    host_tg = sql_url_norm.format(u="target")
    return f"""
WITH pg AS (SELECT coalesce(url, '') AS url, links
            FROM read_parquet('{path}')),
e AS (SELECT DISTINCT unnest(links) AS lk, {host_url} AS src_host
      FROM pg),
cand AS (
  SELECT lk AS target,
         CAST(count(DISTINCT src_host) AS BIGINT) AS n_hosts
  FROM e
  WHERE lk NOT IN (SELECT url FROM pg)
  GROUP BY lk),
ranked AS (
  SELECT target, {host_tg} AS target_host, n_hosts,
         row_number() OVER (PARTITION BY {host_tg}
                            ORDER BY n_hosts DESC, target) AS hrank
  FROM cand)
SELECT target, target_host, n_hosts FROM ranked
WHERE hrank <= {_FRONTIER_PER_HOST}
ORDER BY n_hosts DESC, target LIMIT {_FRONTIER_K}
"""


MIN_QUERIES["crawl_frontier"] = q_crawl_frontier
MIN_LINKED_SQL["crawl_frontier"] = sql_crawl_frontier


# --------------------------------------------------------------------------
# batch 50: per-host crawl-budget water-fill
# --------------------------------------------------------------------------

_HOST_WF_DEN = 2


def q_host_crawl_waterfill(sf_dir: str) -> pd.DataFrame:
    """Per-host crawl-budget allocation: water-fill the page budget
    (total // 2) across hosts so no host exceeds the common level c*
    — the recrawl-scheduling twin of the per-source token water-fill
    (same exact segment-max solve, stages/pack.waterfill_cap), here
    over the linked-page host counts.

    One pruned read -> per-batch host-count combiners -> driver merge
    (hosts are the documented small side) -> exact cap solve. Output
    per host: n_pages, n_alloc = min(n_pages, c*)."""
    import pyarrow.compute as pc

    from nacc_form_validator_ray.pipelines.queries import (
        _linked_pages_path, _merge_partials)
    from nacc_form_validator_ray.stages.graph import _host_of
    from nacc_form_validator_ray.stages.pack import waterfill_cap

    ds = _rd().read_parquet(_linked_pages_path(sf_dir),
                            columns=["url"])

    def partial(t) -> pd.DataFrame:
        host = _host_of(pc.fill_null(t["url"], ""), pc) \
            .to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"host": host, "n_pages": 1})
        return df.groupby("host", as_index=False).sum()

    out = _merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["host"], {"n_pages": "sum"})
    if out.empty:
        return pd.DataFrame({
            "host": pd.Series([], dtype=object),
            "n_pages": pd.Series([], dtype=np.int64),
            "n_alloc": pd.Series([], dtype=np.int64)})
    out["n_pages"] = out["n_pages"].astype(np.int64)
    budget = int(out["n_pages"].sum()) // _HOST_WF_DEN
    cap = waterfill_cap(out["n_pages"].to_numpy(np.int64), budget)
    out["n_alloc"] = np.minimum(out["n_pages"].to_numpy(np.int64),
                                cap)
    return out.sort_values("host").reset_index(drop=True)[
        ["host", "n_pages", "n_alloc"]]


def sql_host_crawl_waterfill(path: str,
                             sql_url_norm: str | None = None) -> str:
    host_url = sql_url_norm.format(u="url")
    return f"""
WITH pg AS (SELECT coalesce(url, '') AS url
            FROM read_parquet('{path}')),
tot AS (SELECT {host_url} AS host,
               CAST(count(*) AS BIGINT) AS n_pages
        FROM pg GROUP BY 1),
b AS (SELECT CAST(sum(n_pages) // {_HOST_WF_DEN} AS BIGINT) AS budget
      FROM tot),
seg AS (
  SELECT n_pages AS t,
         CAST(row_number() OVER (ORDER BY n_pages, host) AS BIGINT)
             AS rk,
         CAST(count(*) OVER () AS BIGINT) AS k,
         CAST(sum(n_pages) OVER (ORDER BY n_pages, host
                                 ROWS UNBOUNDED PRECEDING) - n_pages
              AS BIGINT) AS pfx
  FROM tot),
cap AS (
  SELECT CAST(max((b.budget - pfx) // (k - rk + 1)) AS BIGINT) AS c
  FROM seg, b WHERE pfx <= b.budget)
SELECT host, n_pages,
       CAST(least(n_pages, (SELECT c FROM cap)) AS BIGINT) AS n_alloc
FROM tot ORDER BY host
"""


MIN_QUERIES["host_crawl_waterfill"] = q_host_crawl_waterfill
MIN_LINKED_SQL["host_crawl_waterfill"] = sql_host_crawl_waterfill
