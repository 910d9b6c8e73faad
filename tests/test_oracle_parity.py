"""In-suite oracle parity: a fast subset of the SQL-expressible queries
checked against DuckDB at sf0.001 (the full sweep lives in
scripts/check_oracle.py, which the driver's correctness gate mirrors)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

FAST_QUERIES = [
    "text_stats", "langid", "quality_filter_docs", "pii_scrub",
    "token_count_by_source", "dedup_exact", "score_recompute",
    "events_window", "knn_embeddings", "q1_lineitem", "top_orders",
    "segment_revenue", "part_filter", "validator_customer",
    "orders_by_month", "sample_events", "fingerprint_md5",
    "asof_prior_purchase", "range_join_events", "jaccard_clusters",
    "contamination", "embedding_neardup", "multimodal_decode",
    "repetition_docs", "line_dedup_docs", "pack_sequences",
    "select_token_budget", "stratified_sample", "shuffle_manifest",
    "hist_quantiles", "chunk_docs", "heavy_hitters", "bm25_search",
    "percentile_cut_docs", "rolling_user_stats", "latest_events",
    "lr_score_docs", "label_centroids", "user_type_pivot",
    "user_outlier_events", "new_users_by_day", "q3_shipping_priority",
    "pmi_bigrams", "semdedup_embeddings", "dsir_weights",
    "q13_customer_distribution", "kn_perplexity_docs",
    "knn_join_embeddings", "token_entropy_docs", "orders_rollup",
    "daily_activity_full", "knn_join_probe2", "dsir_select",
    "cohort_retention", "parts_never_bulk_ordered",
    "train_val_test_split", "semdedup_corpus",
    "parts_ordered_both_halves",
    "q6_forecast_revenue", "q17_small_quantity_revenue",
    "q21_waiting_suppliers", "q22_sales_opportunity",
    "q9_product_profit", "q12_lateness_priority",
    "q16_supplier_part_cnt",
    "pareto_parts", "top_event_type_per_user",
    "column_profile_events", "hll_user_registers",
    "fuzzy_name_pairs", "gap_fill_hourly_purchases",
    "key_skew_report", "user_value_quartiles",
    "top_user_journeys", "rolling_active_users",
    "embedding_gram", "event_type_transitions",
]


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="stable") \
        .reset_index(drop=True)


@pytest.mark.parametrize("name", FAST_QUERIES)
def test_query_matches_duckdb(name, duck):
    from nacc_form_validator_ray.pipelines.queries import (ORACLE_SQL,
                                                           QUERIES)
    result = QUERIES[name](SF_DIR)
    if hasattr(result, "to_pandas"):
        result = result.to_pandas()
    ray_df = canon(result)
    sql_df = canon(duck.sql(ORACLE_SQL[name]).df())
    assert len(ray_df) == len(sql_df), name
    assert list(ray_df.columns) == list(sql_df.columns), name
    pd.testing.assert_frame_equal(ray_df, sql_df, check_dtype=False)


FLAGSHIP = ["quality_filter_pages", "pretrain_prefix_pages",
            "pretrain_pages"]


@pytest.mark.parametrize("name", FLAGSHIP)
def test_flagship_matches_duckdb(name, duck):
    """The headline page pipelines against their DuckDB twins over the
    persisted deterministic page table (round-2 hard oracle)."""
    from nacc_form_validator_ray.pipelines.queries import (QUERIES,
                                                           flagship_oracles)
    oracles = flagship_oracles(SF_DIR)
    ray_df = canon(QUERIES[name](SF_DIR).to_pandas())
    sql_df = canon(duck.sql(oracles[name]).df())
    assert len(ray_df) == len(sql_df), name
    assert list(ray_df.columns) == list(sql_df.columns), name
    pd.testing.assert_frame_equal(ray_df, sql_df, check_dtype=False)


def test_registry_merge_is_call_time_and_collision_free():
    """Round-4 VERDICT item 8: one registration API. The call-time
    merge must (a) cover every per-module registry, (b) raise on
    cross-module key collisions instead of silently shadowing, and
    (c) pair every query with an oracle (full-oracle invariant held
    since round 4)."""
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry
    from nacc_form_validator_ray.pipelines import queries as Q

    qs = entry.queries()
    osql = entry.oracle_sql()
    assert set(qs) == set(osql)
    assert len(qs) >= 290

    # a late registration in a submodule is picked up at call time
    from nacc_form_validator_ray.pipelines.curation import CUR_QUERIES
    CUR_QUERIES["__late_probe__"] = lambda sf: None
    try:
        assert "__late_probe__" in Q.all_queries()
        # a collision (same key, different callable) raises
        Q.QUERIES["__late_probe__"] = lambda sf: 1
        import pytest
        with pytest.raises(RuntimeError, match="collision"):
            Q.all_queries()
    finally:
        CUR_QUERIES.pop("__late_probe__", None)
        Q.QUERIES.pop("__late_probe__", None)
