"""Batch-23: vocabulary frequency spectrum, shard-balance audit,
Bloom false-positive audit, recrawl change detection."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _write_docs(tmp_path, texts, ids=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    n = len(texts)
    ids = ids if ids is not None else list(range(n))
    pq.write_table(pa.table({
        "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(["s"] * n, pa.string()),
        "n_chars": pa.array([len(t) if t else 0 for t in texts],
                            pa.int64())}), tmp_path / "documents.parquet")
    return str(tmp_path)


# ------------------------------------------------------------- spectrum


def test_vocab_spectrum_buckets(tmp_path):
    """aa x1 -> bucket 0; bb x2, cc x3 -> bucket 1; dd x4 -> bucket 2."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_vocab_freq_spectrum
    d = _write_docs(tmp_path, ["aa bb bb cc cc", "cc dd dd dd dd"])
    out = q_vocab_freq_spectrum(d).set_index("bucket")
    assert out.loc[0, "n_tokens"] == 1
    assert out.loc[0, "n_occurrences"] == 1
    assert out.loc[1, "n_tokens"] == 2
    assert out.loc[1, "n_occurrences"] == 5
    assert out.loc[2, "n_tokens"] == 1
    assert out.loc[2, "n_occurrences"] == 4


def test_vocab_spectrum_mass_conservation():
    """Bucket occurrence mass must sum to the corpus token count."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_vocab_freq_spectrum
    from nacc_form_validator_ray.pipelines.mining import \
        q_token_length_histogram
    spec = q_vocab_freq_spectrum(SF)
    hist = q_token_length_histogram(SF)
    assert spec["n_occurrences"].sum() == hist["n"].sum()


# ------------------------------------------------------------- sharding


def test_shard_balance_totals(tmp_path):
    from nacc_form_validator_ray.pipelines.curation import \
        q_shard_balance_report
    d = _write_docs(tmp_path, [f"doc {i}" for i in range(100)])
    out = q_shard_balance_report(d)
    assert out["n_docs"].sum() == 100
    assert out["shard"].between(0, 31).all()
    # Knuth hash spreads 100 sequential ids over >= 25 shards
    assert len(out) >= 25


# ---------------------------------------------------------------- bloom


def test_bloom_fp_audit_counts(tmp_path):
    from nacc_form_validator_ray.pipelines.curation import \
        q_bloom_fp_audit
    d = _write_docs(tmp_path, ["x"] * 10)  # ids 0..9: 5 even, 5 odd
    out = q_bloom_fp_audit(d)
    r = out.iloc[0]
    assert r["n_build"] == 5 and r["n_probe"] == 5
    assert 1 <= r["n_bits_set"] <= 15          # 5 keys x 3 probes
    assert 0 <= r["n_hits"] <= r["n_probe"]
    assert r["fp_rate"] == r["n_hits"] / r["n_probe"]


def test_bloom_fp_grows_with_load():
    """The sf fixture's fp rate must exceed a tiny build's (the bitmap
    is fixed at 4096 bits, so more keys -> more false positives)."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_bloom_fp_audit
    big = q_bloom_fp_audit(SF).iloc[0]
    assert big["n_build"] > 100
    assert big["n_bits_set"] <= 4096
    # saturating bitmap: load factor at least bits/keys-bound sanity
    assert big["n_bits_set"] >= big["n_build"]  # k=3, few collisions


# -------------------------------------------------------------- recrawl


def test_recrawl_change_detection(tmp_path, monkeypatch):
    """Hand-built linked-page table: url shared by both snapshots with
    DIFFERENT text counts as changed; identical text does not; a url
    on one side only is ignored."""
    import nacc_form_validator_ray.pipelines.queries as Q
    from nacc_form_validator_ray.pipelines.curation import \
        q_recrawl_change_report

    rows = [
        # (doc_id, url, text)
        (0, "https://a.example.org/p1", "old text"),
        (1, "https://a.example.org/p1", "new text"),     # changed
        (2, "https://a.example.org/p2", "same"),
        (3, "https://a.example.org/p2", "same"),          # unchanged
        (4, "https://b.example.org/q", "only snapshot A"),  # A-only
        (6, "https://A.EXAMPLE.ORG/p3", "x"),
        (7, "https://www.a.example.org/p3", "y"),  # canonicalizes equal
    ]
    tmp = tmp_path / "lp"
    tmp.mkdir(parents=True)
    path = str(tmp / "pages.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "url": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string())}), path)
    monkeypatch.setattr(Q, "_linked_pages_path", lambda sf: path)
    out = q_recrawl_change_report("ignored").set_index("host")
    assert out.loc["a.example.org", "n_urls_both"] == 3
    assert out.loc["a.example.org", "n_changed"] == 2  # p1 + p3
    assert out.loc["a.example.org", "change_rate"] == 2 / 3
    assert "b.example.org" not in out.index


def test_recrawl_min_doc_representative(tmp_path, monkeypatch):
    """Duplicate urls within a snapshot: the MIN doc_id copy is the
    representative on both sides."""
    import nacc_form_validator_ray.pipelines.queries as Q
    from nacc_form_validator_ray.pipelines.curation import \
        q_recrawl_change_report
    rows = [
        (2, "https://h.example.org/x", "v1"),
        (4, "https://h.example.org/x", "junk later copy"),
        (1, "https://h.example.org/x", "v1"),   # min odd rep
        (3, "https://h.example.org/x", "junk"),
    ]
    tmp = tmp_path / "lp2"
    tmp.mkdir(parents=True)
    path = str(tmp / "pages.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "url": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string())}), path)
    monkeypatch.setattr(Q, "_linked_pages_path", lambda sf: path)
    out = q_recrawl_change_report("ignored")
    # rep A = doc 2 ("v1"), rep B = doc 1 ("v1") -> unchanged
    assert out.iloc[0]["n_changed"] == 0


# ------------------------------------------------- batch 24: estimator


def test_minhash_estimator_bounds():
    """est in [0,1]; identical docs estimate 1.0 with zero error; the
    mean abs error over candidates stays inside the k=128 Chernoff
    envelope (~3 sigma of 1/sqrt(128))."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_minhash_estimate_error
    out = q_minhash_estimate_error(SF)
    assert len(out) > 0
    assert out["est_jaccard"].between(0, 1).all()
    assert (out["n_match"] <= 128).all()
    exact_dups = out[out["jaccard"] == 1.0]
    if len(exact_dups):
        assert (exact_dups["n_match"] == 128).all()
        assert (exact_dups["abs_err"] == 0.0).all()
    assert out["abs_err"].mean() < 3 / np.sqrt(128)


def test_minhash_estimate_error_missing_id_raises(monkeypatch):
    """A verified pair naming a doc id absent from ``documents`` raises
    instead of gathering a neighbour's signature."""
    import pytest

    from nacc_form_validator_ray.pipelines import mining
    from nacc_form_validator_ray.pipelines.curation import \
        q_minhash_estimate_error
    ids = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_pylist()
    absent = max(ids) + 1000
    monkeypatch.setattr(mining, "q_minhash_verify_pairs",
                        lambda sf: pd.DataFrame({
                            "id_a": np.array([min(ids)], np.int64),
                            "id_b": np.array([absent], np.int64),
                            "n_bands": np.array([1], np.int64),
                            "jaccard": np.array([0.5])}))
    with pytest.raises(ValueError, match=str(absent)):
        q_minhash_estimate_error(SF)


def test_winsorize_report_semantics(tmp_path):
    """21 values 0..20: p05 = v[1] = 1, p95 = v[19] = 19; one value
    clips low (0) and one high (20); winsorized sum replaces them."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_winsorize_events
    rows = [(i, i * 1_000_000, "t", float(i)) for i in range(21)]
    tmp = tmp_path / "ev"
    tmp.mkdir(parents=True, exist_ok=True)
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([1] * len(rows), pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "value": pa.array([r[3] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string())}),
        tmp / "events.parquet")
    out = q_winsorize_events(str(tmp)).iloc[0]
    assert out["n"] == 21
    assert out["p05_c"] == 100 and out["p95_c"] == 1900
    assert out["n_clipped_lo"] == 1 and out["n_clipped_hi"] == 1
    # raw sum 21000 cents; 0 -> 100 (+100), 2000 -> 1900 (-100)
    assert out["winsorized_sum_c"] == 21000


# --------------------------------------------- batch 25: pca explained


def test_pca_explained_dominant_axis(tmp_path):
    """All variance on one axis -> explained_ratio ~ 1.0."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_pca_explained_ratio
    tmp = tmp_path / "emb"
    tmp.mkdir(parents=True, exist_ok=True)
    vecs = [(1.0, 0.0), (-1.0, 0.0), (0.5, 0.0)]
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(3, dtype=np.int64)),
        "embedding": pa.array([list(v) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 0, 0], pa.int32())}),
        tmp / "embeddings.parquet")
    out = q_pca_explained_ratio(str(tmp)).iloc[0]
    assert out["explained_ratio"] > 0.999
    assert out["trace"] > 0


def test_pca_explained_real_fixture_range():
    """64 healthy dims: the top component explains a few percent —
    well above 1/d (structure exists) and far from collapse."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_pca_explained_ratio
    r = q_pca_explained_ratio(SF).iloc[0]
    assert 1 / 64 < r["explained_ratio"] < 0.5


def test_ab_lift_arms_partition_users(tmp_path):
    """Every user lands in exactly one arm; totals conserve."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_ab_lift_report
    rows = []
    for uid in range(20):
        rows.append((uid * 2, uid * 1_000, uid, "click", 1.0))
        if uid % 3 == 0:
            rows.append((uid * 2 + 1, uid * 1_000 + 1, uid,
                         "purchase", 5.0))
    tmp = tmp_path / "ev2"
    tmp.mkdir(parents=True, exist_ok=True)
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string())}),
        tmp / "events.parquet")
    out = q_ab_lift_report(str(tmp))
    assert out["n_users"].sum() == 20
    assert out["n_events"].sum() == len(rows)
    assert out["n_purchases"].sum() == 7
    assert set(out["arm"]) <= {0, 1}
    for _, r in out.iterrows():
        assert r["purchases_per_user"] == r["n_purchases"] / r["n_users"]


# ------------------------------------------------------------ batch 26


def test_threshold_sweep_monotone():
    """Higher threshold -> never more pairs; 0.5 row equals the
    registry's minhash_pairs count."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_dedup_threshold_sweep
    out = q_dedup_threshold_sweep(SF).sort_values("threshold_pct")
    n = out["n_pairs"].tolist()
    assert all(a >= b for a, b in zip(n, n[1:]))
    assert (out["min_bands"].diff().dropna() >= 0).all()


def test_novelty_curve_first_decile_dominates(tmp_path):
    """A corpus where later docs repeat earlier text: every shingle is
    first seen in decile 0."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_ngram_novelty_curve
    base = "alpha beta gamma delta epsilon zeta"
    d = _write_docs(tmp_path, [base] * 10)
    out = q_ngram_novelty_curve(d)
    assert out["decile"].tolist() == [0]
    assert out["n_new_shingles"].iloc[0] == 4  # 6 tokens -> 4 shingles


def test_novelty_curve_spread(tmp_path):
    """Disjoint docs spread novelty across deciles."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_ngram_novelty_curve
    texts = [f"tok{i}a tok{i}b tok{i}c tok{i}d" for i in range(10)]
    d = _write_docs(tmp_path, texts)
    out = q_ngram_novelty_curve(d)
    assert len(out) == 10
    assert (out["n_new_shingles"] == 2).all()  # 4 tokens -> 2 shingles


def test_stopword_ratio_semantics(tmp_path):
    """'the of data' in en: 2 stopwords of 3 tokens; es bank does not
    match en stopwords."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_stopword_ratio_by_lang
    tmp_path.mkdir(parents=True, exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["the of data", "the of data"], pa.string()),
        "lang": pa.array(["en", "es"], pa.string()),
        "source": pa.array(["s", "s"], pa.string()),
        "n_chars": pa.array([11, 11], pa.int64())}),
        tmp_path / "documents.parquet")
    out = q_stopword_ratio_by_lang(str(tmp_path)).set_index("lang")
    assert out.loc["en", "n_tokens"] == 3
    assert out.loc["en", "n_stopwords"] == 2
    assert out.loc["en", "stopword_rate"] == 2 / 3
    assert out.loc["es", "n_stopwords"] == 0


# ------------------------------------------------------------ batch 27


def test_split_leakage_conserves_pairs():
    """Split-tagged pair counts must sum to the registry's full
    candidate pair count."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_split_leakage_audit
    from nacc_form_validator_ray.pipelines.queries import QUERIES
    audit = q_split_leakage_audit(SF)
    pairs = QUERIES["minhash_pairs"](SF)
    pairs = pairs.to_pandas() if hasattr(pairs, "to_pandas") else pairs
    # registry minhash_pairs runs at threshold 0.5 too
    assert audit["n_pairs"].sum() == len(pairs)
    assert set(audit["split_a"]) | set(audit["split_b"]) \
        <= {"train", "val", "test"}


def test_gini_uniform_zero(tmp_path):
    """Equal lengths -> G exactly 0 (rank formula on x_i = c)."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_doc_len_gini
    d = _write_docs(tmp_path, ["abcd"] * 50)
    r = q_doc_len_gini(d).iloc[0]
    assert r["n"] == 50 and r["total_chars"] == 200
    assert r["gini"] == 0.0


def test_gini_concentrated_near_one(tmp_path):
    """One giant doc among empty-ish docs -> G -> (n-1)/n."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_doc_len_gini
    texts = ["x" * 10000] + ["y"] * 99
    d = _write_docs(tmp_path, texts)
    r = q_doc_len_gini(d).iloc[0]
    assert r["gini"] > 0.95


# ------------------------------------------------------------ batch 28


def test_source_scorecard_consistency():
    """The wide scorecard must agree column-for-column with the three
    per-source reports it composes."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_source_scorecard
    from nacc_form_validator_ray.pipelines.mining import \
        q_dedup_survivors_by_source
    sc = q_source_scorecard(SF).set_index("source")
    surv = q_dedup_survivors_by_source(SF).set_index("source")
    assert len(sc) == 20
    assert (sc["n_survivors"] == surv.loc[sc.index, "n_survivors"]).all()
    assert sc["keep_rate"].between(0, 1).all()
    assert (sc["n_kept"] <= sc["n_docs"]).all()
    assert (sc["n_survivors"] <= sc["n_docs"]).all()


# ------------------------------------------------------------ batch 29


def test_roc_monotone_and_bounded():
    """Raising the threshold can only shrink TPR and FPR; rates stay
    in [0,1]; counts partition the corpus at every threshold."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_lr_roc_points
    out = q_lr_roc_points(SF).sort_values("threshold_logit")
    assert len(out) == 9
    n = (out["tp"] + out["fp"] + out["tn"] + out["fn"]).unique()
    assert len(n) == 1 and n[0] == 500
    tpr = out["tpr"].tolist()
    fpr = out["fpr"].tolist()
    assert all(a >= b for a, b in zip(tpr, tpr[1:]))
    assert all(a >= b for a, b in zip(fpr, fpr[1:]))
    assert out["tpr"].between(0, 1).all()
    assert out["fpr"].between(0, 1).all()


def test_roc_tiny_corpus_keeps_all_deciles(tmp_path):
    """n=3: several deciles collapse onto the same rank; every q row
    must still be emitted (regression: a rank-keyed dict dropped all
    but one q per rank while the twin emits nine rows)."""
    from nacc_form_validator_ray.pipelines.curation import \
        q_lr_roc_points
    d = _write_docs(tmp_path, ["the data system report world " * 20,
                               "short",
                               "market science music house " * 30])
    out = q_lr_roc_points(d)
    assert len(out) == 9
    assert out["q_pct"].tolist() == [10, 20, 30, 40, 50, 60, 70, 80, 90]


def test_registry_import_order_independent():
    """Importing pipelines.curation BEFORE pipelines.queries must yield
    the identical merged registry. curation's module-level twin
    builders import queries at call time, which (curation-first) makes
    queries snapshot the curation dicts mid-initialization; the
    re-push block at the bottom of curation.py repairs the snapshot.
    Regression for the round-4 review finding."""
    import subprocess
    import sys

    prog = (
        "import nacc_form_validator_ray.pipelines.{first} as a;"
        "import nacc_form_validator_ray.pipelines.{second} as b;"
        "import nacc_form_validator_ray.pipelines.queries as q;"
        "import nacc_form_validator_ray.pipelines.curation as c;"
        "missing=[k for k in c.CUR_QUERIES if k not in q.QUERIES];"
        "missing_o=[k for k in c.CUR_ORACLE_SQL if k not in q.ORACLE_SQL];"
        "assert not missing, missing;"
        "assert not missing_o, missing_o;"
        "print(len(q.QUERIES), len(q.ORACLE_SQL))"
    )
    sizes = []
    for first, second in (("curation", "queries"), ("queries", "curation")):
        out = subprocess.run(
            [sys.executable, "-c", prog.format(first=first, second=second)],
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr[-2000:]
        sizes.append(out.stdout.strip())
    assert sizes[0] == sizes[1], sizes


def test_doc_len_gini_zero_char_mass(tmp_path):
    """n > 0 but every text empty: the row must report the REAL count
    (matching the DuckDB twin, which only guards the gini division) —
    regression for the round-4 review finding."""
    import duckdb

    from nacc_form_validator_ray.pipelines.curation import (
        CUR_ORACLE_SQL, q_doc_len_gini)

    d = _write_docs(tmp_path, ["", "", ""])
    out = q_doc_len_gini(d)
    assert int(out.loc[0, "n"]) == 3
    assert int(out.loc[0, "total_chars"]) == 0
    assert float(out.loc[0, "gini"]) == 0.0

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    ora = con.execute(CUR_ORACLE_SQL["doc_len_gini"]).df()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype({"gini": float}),
        ora.rename(columns=str).reset_index(drop=True)
        .astype(out.dtypes.to_dict()), check_dtype=False)
