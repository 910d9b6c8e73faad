"""Batch-32: Zipf slope per source, Markov next-event entropy,
k-means silhouette, null cosine histogram — semantic unit tests on
hand-built fixtures (the bit-exact oracle sweep covers twin parity)."""

import os
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, texts, sources=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    n = len(texts)
    sources = sources if sources is not None else ["s"] * n
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(sources, pa.string()),
        "n_chars": pa.array([len(t) if t else 0 for t in texts],
                            pa.int64())}), tmp_path / "documents.parquet")
    return str(tmp_path)


def _write_events(tmp_path, rows):
    """rows: list of (event_id, ts, user_id, event_type)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(pd.to_datetime([r[1] for r in rows]),
                       pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string())}),
        tmp_path / "events.parquet")
    return str(tmp_path)


def _write_embeddings(tmp_path, vecs):
    tmp_path.mkdir(parents=True, exist_ok=True)
    n = len(vecs)
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * n, pa.int32())}),
        tmp_path / "embeddings.parquet")
    return str(tmp_path)


# ------------------------------------------------------------- zipf slope

def test_zipf_slope_negative_on_zipfy_counts(tmp_path):
    """Counts 8/4/2/1 over ranks 1..4 fall in log-log space: the OLS
    slope must be negative and the fit must use all 4 terms."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_zipf_slope_by_source
    d = _write_docs(tmp_path, ["aa " * 8 + "bb " * 4 + "cc " * 2 + "dd"])
    out = q_zipf_slope_by_source(d)
    assert list(out["source"]) == ["s"]
    assert int(out["n_terms"][0]) == 4
    assert out["zipf_slope"][0] < -0.5
    # intercept near log2(c_1) = 3 for a head-anchored fit
    assert 1.0 < out["zipf_intercept"][0] < 4.0


def test_zipf_flat_counts_slope_zero(tmp_path):
    """Equal counts give a constant y: slope must be exactly 0.0."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_zipf_slope_by_source
    d = _write_docs(tmp_path, ["aa bb cc dd"])
    out = q_zipf_slope_by_source(d)
    assert out["zipf_slope"][0] == 0.0
    assert out["zipf_intercept"][0] == 0.0  # y==0 for counts of 1


def test_zipf_sources_isolated(tmp_path):
    """Each source gets its own fit over its own counts."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_zipf_slope_by_source
    d = _write_docs(tmp_path, ["aa " * 8 + "bb", "cc dd"],
                    sources=["x", "y"])
    out = q_zipf_slope_by_source(d)
    assert list(out["source"]) == ["x", "y"]
    assert out[out["source"] == "x"]["zipf_slope"].iloc[0] < 0
    assert out[out["source"] == "y"]["zipf_slope"].iloc[0] == 0.0


# -------------------------------------------------------- markov entropy

def test_markov_entropy_uniform_two_way_is_one_bit(tmp_path):
    """signup -> {click, purchase} equally often: H = 1 bit exactly."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_markov_entropy_events
    rows = [(0, "2024-01-01 00:00", 1, "signup"),
            (1, "2024-01-01 00:01", 1, "click"),
            (2, "2024-01-01 00:02", 1, "signup"),
            (3, "2024-01-01 00:03", 1, "purchase")]
    out = q_markov_entropy_events(_write_events(tmp_path, rows))
    s = out[out["from_type"] == "signup"].iloc[0]
    assert int(s["n_out"]) == 2 and int(s["n_next_types"]) == 2
    assert s["entropy_bits"] == 1.0


def test_markov_entropy_deterministic_chain_is_zero(tmp_path):
    """A -> B always: zero next-step entropy for A."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_markov_entropy_events
    rows = [(0, "2024-01-01 00:00", 1, "A"),
            (1, "2024-01-01 00:01", 1, "B"),
            (2, "2024-01-01 00:02", 2, "A"),
            (3, "2024-01-01 00:03", 2, "B")]
    out = q_markov_entropy_events(_write_events(tmp_path, rows))
    a = out[out["from_type"] == "A"].iloc[0]
    assert a["entropy_bits"] == 0.0 and int(a["n_next_types"]) == 1


def test_markov_entropy_no_cross_user_adjacency(tmp_path):
    """The last event of user 1 must not transition into user 2."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_markov_entropy_events
    rows = [(0, "2024-01-01 00:00", 1, "A"),
            (1, "2024-01-01 00:01", 2, "B")]
    out = q_markov_entropy_events(_write_events(tmp_path, rows))
    assert out.empty


# ------------------------------------------------------------ silhouette

def test_silhouette_perfect_separation(tmp_path):
    """Two far-apart points, k clamps to 2: each is its own centroid,
    a = 0 and b > 0, so the silhouette is exactly 1.0 for both."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_silhouette_embeddings
    d = _write_embeddings(tmp_path, [(0.9, 0.0), (0.0, 0.9)])
    out = q_silhouette_embeddings(d)
    assert list(out["n_members"]) == [1, 1]
    assert list(out["mean_silhouette"]) == [1.0, 1.0]


def test_silhouette_single_vector_empty(tmp_path):
    """One vector -> one centroid -> no second-nearest: defined empty
    (mirrors the twin's rn=2 join)."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_silhouette_embeddings
    out = q_silhouette_embeddings(_write_embeddings(tmp_path, [(0.5, 0.5)]))
    assert out.empty


def test_silhouette_duplicate_centroids_zero_guarded(tmp_path):
    """Duplicated points seed DUPLICATE centroids (k clamps to 4, two
    identical sites twice each): the second-nearest distance b is then
    0 for every member, and the b=0 guard pins s to exactly 0.0 on
    both engines instead of a 0/0 NaN."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_silhouette_embeddings
    d = _write_embeddings(
        tmp_path, [(0.0, 0.0), (0.8, 0.0), (0.0, 0.0), (0.8, 0.0)])
    out = q_silhouette_embeddings(d)
    assert (out["mean_silhouette"] == 0.0).all()
    assert int(out["n_members"].sum()) == 4


# ----------------------------------------------------- cosine null hist

def test_cosine_null_histogram_extremes(tmp_path):
    """Pairing is (i, i+N//2): v0~v2 identical -> cos=1 (bucket 32),
    v1~v3 opposite -> cos=-1 (bucket -32)."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_cosine_null_histogram
    d = _write_embeddings(tmp_path, [(0.5, 0.1), (0.3, 0.4),
                                     (0.5, 0.1), (-0.3, -0.4)])
    out = q_cosine_null_histogram(d)
    assert dict(zip(out["bucket"], out["n_pairs"])) == {-32: 1, 32: 1}


def test_cosine_null_histogram_odd_middle_unpaired(tmp_path):
    """N=3, off=1: only the (v0, v1) pair forms; v2 stays unpaired."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_cosine_null_histogram
    d = _write_embeddings(tmp_path, [(0.5, 0.0), (0.5, 0.0),
                                     (0.0, 0.5)])
    out = q_cosine_null_histogram(d)
    assert int(out["n_pairs"].sum()) == 1
    assert list(out["bucket"]) == [32]


def test_cosine_null_zero_norm_bucket_zero(tmp_path):
    """A zero vector in a pair is DEFINED as cos=0 (bucket 0)."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_cosine_null_histogram
    d = _write_embeddings(tmp_path, [(0.0, 0.0), (0.5, 0.5)])
    out = q_cosine_null_histogram(d)
    assert dict(zip(out["bucket"], out["n_pairs"])) == {0: 1}


# -------------------------------------------------- trigram backoff LM

def test_trigram_backoff_repeated_pattern_seen(tmp_path):
    """A doc that repeats one trigram pattern has zero unseen trigrams
    and scores better (lower log_ppl) than a doc of unique words."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_trigram_backoff_ppl_docs
    d = _write_docs(tmp_path, ["aa bb cc aa bb cc aa bb cc",
                               "dd ee ff gg hh ii jj kk ll"])
    out = q_trigram_backoff_ppl_docs(d).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert int(out["unseen_trigrams"][0]) == 0
    assert out["log_ppl"][0] < out["log_ppl"][1]
    assert list(out["ppl_tokens"]) == [9, 9]


def test_trigram_backoff_short_docs(tmp_path):
    """1- and 2-token docs never reach the trigram level: zero unseen
    trigrams; an empty doc scores 0.0 with zero tokens."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_trigram_backoff_ppl_docs
    d = _write_docs(tmp_path, ["aa", "aa bb", ""])
    out = q_trigram_backoff_ppl_docs(d).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(out["unseen_trigrams"]) == [0, 0, 0]
    assert list(out["ppl_tokens"]) == [1, 2, 0]
    assert out["log_ppl"][2] == 0.0


# ------------------------------------------------ next-word accuracy

def test_next_word_accuracy_counts(tmp_path):
    """'aa bb aa bb aa cc': top1(aa)=bb, top1(bb)=aa -> 4 of 5 pairs
    match the corpus argmax."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_next_word_accuracy_by_source
    d = _write_docs(tmp_path, ["aa bb aa bb aa cc"])
    out = q_next_word_accuracy_by_source(d)
    assert int(out["n_pairs"][0]) == 5
    assert int(out["n_correct"][0]) == 4
    assert out["accuracy"][0] == 0.8


def test_next_word_accuracy_corpus_wide_top1(tmp_path):
    """The argmax is CORPUS-wide: source y's lone 'cc aa' pair agrees
    with the corpus top1(cc)=aa even though y alone is tiny."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_next_word_accuracy_by_source
    d = _write_docs(tmp_path, ["aa bb aa bb aa cc", "cc aa"],
                    sources=["x", "y"])
    out = q_next_word_accuracy_by_source(d)
    y = out[out["source"] == "y"].iloc[0]
    assert int(y["n_pairs"]) == 1 and y["accuracy"] == 1.0
    x = out[out["source"] == "x"].iloc[0]
    assert x["accuracy"] == 0.8


# ------------------------------------------------ char entropy

def test_char_entropy_uniform_two_letters(tmp_path):
    """Equal a/b mass -> exactly 1 bit; non-letters are ignored."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_char_entropy_by_source
    d = _write_docs(tmp_path, ["a1a B!b b"])
    out = q_char_entropy_by_source(d)
    assert int(out["n_letters"][0]) == 4  # 'B' is case-sensitive, skipped
    assert out["entropy_bits"][0] == 1.0


def test_char_entropy_single_letter_zero(tmp_path):
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_char_entropy_by_source
    d = _write_docs(tmp_path, ["aaaa aa"])
    out = q_char_entropy_by_source(d)
    assert out["entropy_bits"][0] == 0.0
    assert int(out["n_letters"][0]) == 6


def test_char_entropy_sources_isolated(tmp_path):
    """Each source's distribution is its own: a uniform a/b source and
    a degenerate all-c source keep their entropies apart."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_char_entropy_by_source
    d = _write_docs(tmp_path, ["ab ab", "cccc"], sources=["u", "w"])
    out = q_char_entropy_by_source(d).set_index("source")
    assert out.loc["u", "entropy_bits"] == 1.0
    assert out.loc["w", "entropy_bits"] == 0.0


# ------------------------------------------------------ weekly churn

def test_churn_by_week_basic(tmp_path):
    """Users 1,2 active in week 0; only user 1 returns in week 1 ->
    week-0 churn is 1/2. The final week (1) is excluded (no next
    week in the data)."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_churn_by_week
    rows = [(0, "2024-01-01", 1, "click"),
            (1, "2024-01-02", 2, "click"),
            (2, "2024-01-08", 1, "click")]
    out = q_churn_by_week(_write_events(tmp_path, rows))
    assert len(out) == 1
    r = out.iloc[0]
    assert int(r["n_active"]) == 2 and int(r["n_churned"]) == 1
    assert r["churn_rate"] == 0.5


def test_churn_gap_week_counts_as_churn(tmp_path):
    """Active in week 0 and week 2 but not week 1: the week-0 row
    counts the user as churned (the metric is week-over-week)."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_churn_by_week
    rows = [(0, "2024-01-01", 1, "click"),
            (1, "2024-01-15", 1, "click")]
    out = q_churn_by_week(_write_events(tmp_path, rows))
    w0 = out.iloc[0]
    assert int(w0["n_churned"]) == 1 and w0["churn_rate"] == 1.0


def test_churn_single_week_empty(tmp_path):
    """All activity in one week: the max week is excluded -> empty."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_churn_by_week
    rows = [(0, "2024-01-01", 1, "click"),
            (1, "2024-01-02", 2, "click")]
    out = q_churn_by_week(_write_events(tmp_path, rows))
    assert out.empty


# -------------------------------------------- keep rate by ppl decile

def test_keep_rate_ppl_decile_shapes(tmp_path):
    """Deciles partition the corpus: counts sum to N and NTILE(10)
    sizes differ by at most 1; keep_rate stays within [0, 1]."""
    from nacc_form_validator_ray.pipelines.stataudit import \
        q_keep_rate_by_ppl_decile
    texts = [f"the quick brown fox jumps over dog {i} "
             * (3 + i % 5) for i in range(30)]
    d = _write_docs(tmp_path, texts)
    out = q_keep_rate_by_ppl_decile(d)
    assert int(out["n_docs"].sum()) == 30
    sizes = out["n_docs"].to_numpy()
    assert sizes.max() - sizes.min() <= 1
    assert ((out["keep_rate"] >= 0) & (out["keep_rate"] <= 1)).all()
    assert list(out["decile"]) == list(range(1, 11))


def test_report_tier_checkpoint_resume(tmp_path, monkeypatch):
    """Round-4 VERDICT item 9: the expensive report queries resume from
    stage checkpoints. keep_rate_by_ppl_decile with a ckpt_dir writes
    _DONE-marked stage parquet; a rerun whose upstream operators are
    POISONED (raise if called) still reproduces the exact result from
    the checkpoints — proof the recomputation is skipped. A partial
    checkpoint (one stage done, the other missing) completes the
    missing stage only."""
    import pandas as pd

    from nacc_form_validator_ray.pipelines import queries as Q
    from nacc_form_validator_ray.pipelines import stataudit as SA
    from nacc_form_validator_ray.state.lineage import (input_key,
                                                       stage_checkpoint)

    sf = "/root/testdata/sf0.001"
    ck = str(tmp_path / "ck")
    base = SA.q_keep_rate_by_ppl_decile(sf)
    first = SA.q_keep_rate_by_ppl_decile(sf, ckpt_dir=ck)
    pd.testing.assert_frame_equal(first, base)
    assert os.path.exists(os.path.join(ck, "ppl", "_DONE"))
    assert os.path.exists(os.path.join(ck, "keep", "_DONE"))

    def boom(*a, **k):
        raise AssertionError("upstream recomputed despite checkpoint")

    monkeypatch.setattr(Q, "q_bigram_perplexity_docs", boom)
    monkeypatch.setattr(Q, "q_quality_filter", boom)
    resumed = SA.q_keep_rate_by_ppl_decile(sf, ckpt_dir=ck)
    pd.testing.assert_frame_equal(resumed, base)

    # partial resume: ppl stage done, keep stage must still be built
    monkeypatch.undo()
    ck2 = str(tmp_path / "ck2")
    stage_checkpoint(
        lambda: Q.q_bigram_perplexity_docs(sf)
        .select_columns(["doc_id", "log_ppl"]),
        ck2, "ppl", input_key(sf))
    monkeypatch.setattr(Q, "q_bigram_perplexity_docs", boom)
    partial = SA.q_keep_rate_by_ppl_decile(sf, ckpt_dir=ck2)
    pd.testing.assert_frame_equal(partial, base)
    assert os.path.exists(os.path.join(ck2, "keep", "_DONE"))
