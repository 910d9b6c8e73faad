"""Perplexity stage: distributed training, actor-style loading, scoring."""

import json

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from nacc_form_validator_ray.stages.perplexity import (PerplexityScorer,
                                                       save_model,
                                                       train_ngram_model)


@pytest.fixture(scope="module")
def corpus():
    rows = [{"doc_id": i,
             "text": "the cat sat on the mat " * (2 + i % 3)}
            for i in range(40)]
    rows += [{"doc_id": 100 + i,
              "text": "zyx qwv jkl mno pqr stu " * 3} for i in range(10)]
    return pd.DataFrame(rows)


def test_train_and_score(corpus):
    model = train_ngram_model(rd.from_pandas(corpus))
    assert model["total_tokens"] > 0
    assert "the" in model["logp"]
    scorer = PerplexityScorer(model=model)
    out = scorer(corpus.copy())
    # in-domain docs score far lower perplexity than the rare-token docs
    common = out[out.doc_id < 100]["log_ppl"].mean()
    rare = out[out.doc_id >= 100]["log_ppl"].mean()
    assert common < rare
    assert (out["oov_count"] == 0).all()  # trained on same corpus
    # unseen tokens count as OOV and raise perplexity
    novel = scorer(pd.DataFrame({"text": ["entirely unseen blorbish"]}))
    assert novel["oov_count"].iloc[0] >= 2
    assert novel["log_ppl"].iloc[0] > common


def test_model_roundtrip_and_determinism(tmp_path, corpus):
    model = train_ngram_model(rd.from_pandas(corpus))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    s1 = PerplexityScorer(model_path=str(path))
    s2 = PerplexityScorer(model=model)
    a = s1(corpus.copy())["log_ppl"].to_numpy()
    b = s2(corpus.copy())["log_ppl"].to_numpy()
    assert np.array_equal(a, b)


def test_scoring_in_dataset_pipeline(corpus):
    model = train_ngram_model(rd.from_pandas(corpus))
    ds = rd.from_pandas(corpus).repartition(4)
    out = ds.map_batches(PerplexityScorer, fn_constructor_kwargs={
        "model": model}, batch_format="pandas",
        concurrency=2).to_pandas()
    assert len(out) == len(corpus)
    assert "log_ppl" in out.columns


# ------------------------------------------------- interpolated bigram


def test_bigram_model_counts_and_scoring():
    import math
    from nacc_form_validator_ray.stages.perplexity import (
        BigramScorer, train_bigram_model, quantize_logp)
    df = pd.DataFrame({"doc_id": [0, 1],
                       "text": ["a b a b", "a b c"]})
    model = train_bigram_model(rd.from_pandas(df))
    assert model["uni"] == {"a": 3, "b": 3, "c": 1}
    assert model["bi"] == {"a b": 3, "b a": 1, "b c": 1}
    out = BigramScorer(model=model)(df.copy())
    T, V, k = 7.0, 3, 0.5
    d_uni = T + k * (V + 1)
    lp_a = quantize_logp(math.log2((3 + k) / d_uni))
    # 'b' after 'a': c_bi=3, c_a=3
    mix_ab = (0.5 * (3 + k)) / (3 + k * (V + 1)) \
        + (0.5 * (3 + k)) / d_uni
    lp_ab = quantize_logp(math.log2(mix_ab))
    mix_ba = (0.5 * (1 + k)) / (3 + k * (V + 1)) \
        + (0.5 * (3 + k)) / d_uni
    lp_ba = quantize_logp(math.log2(mix_ba))
    want0 = -(lp_a + lp_ab + lp_ba + lp_ab) / 4
    assert out.loc[0, "log_ppl"] == want0
    assert out.loc[0, "unseen_bigrams"] == 0
    # doc 1 saw every bigram during training too
    assert out.loc[1, "unseen_bigrams"] == 0


def test_bigram_unseen_pairs_counted():
    from nacc_form_validator_ray.stages.perplexity import (
        BigramScorer, train_bigram_model)
    train = pd.DataFrame({"doc_id": [0], "text": ["x y z"]})
    model = train_bigram_model(rd.from_pandas(train))
    score = pd.DataFrame({"doc_id": [0], "text": ["y x z y"]})
    out = BigramScorer(model=model)(score)
    # pairs y-x, x-z, z-y all unseen; first token is unigram-only
    assert out.loc[0, "unseen_bigrams"] == 3


def test_bigram_vs_duckdb_random():
    import duckdb
    from nacc_form_validator_ray.pipelines.queries import \
        SQL_BIGRAM_PERPLEXITY_DOCS
    from nacc_form_validator_ray.stages.perplexity import (
        BigramScorer, train_bigram_model)
    rng = np.random.RandomState(31)
    words = ["aa", "bb", "cc", "dd", "ee"]
    docs = [" ".join(rng.choice(words, rng.randint(0, 15)))
            for _ in range(60)]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    model = train_bigram_model(rd.from_pandas(df))
    eng = rd.from_pandas(df).map_batches(
        BigramScorer, fn_constructor_kwargs={"model": model},
        batch_format="pyarrow", concurrency=2).to_pandas()[
        ["doc_id", "log_ppl", "ppl_tokens", "unseen_bigrams"]]
    con = duckdb.connect()
    con.register("documents", df)
    sql = con.sql(SQL_BIGRAM_PERPLEXITY_DOCS).df()
    key = lambda d: d.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(key(eng), key(sql),
                                  check_dtype=False)


def test_kn_vs_duckdb_random():
    """KN bigram scorer vs its twin on random short docs — exercises
    doc-initial backoff, unseen bigrams under a seen context, and the
    context-less (doc-final-only word as prev) full-backoff path."""
    import duckdb
    from nacc_form_validator_ray.pipelines.queries import \
        SQL_KN_PERPLEXITY_DOCS
    from nacc_form_validator_ray.stages.perplexity import (KNScorer,
                                                           train_kn_model)
    rng = np.random.RandomState(47)
    words = ["aa", "bb", "cc", "dd", "ee", "ff"]
    docs = [" ".join(rng.choice(words, rng.randint(0, 12)))
            for _ in range(70)]
    docs += ["gg"]  # a word seen ONLY doc-final: context-less as prev
    docs += ["gg hh", ""]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    model = train_kn_model(rd.from_pandas(df))
    outs = []
    for reps in (1, 7):
        eng = rd.from_pandas(df).repartition(reps).map_batches(
            KNScorer, fn_constructor_kwargs={"model": model},
            batch_format="pyarrow", concurrency=2).to_pandas()[
            ["doc_id", "log_ppl", "ppl_tokens", "unseen_bigrams"]]
        outs.append(eng.sort_values("doc_id").reset_index(drop=True))
    # grid-exact sums: bit-identical across partitionings
    assert (outs[0]["log_ppl"].to_numpy()
            == outs[1]["log_ppl"].to_numpy()).all()
    con = duckdb.connect()
    con.register("documents", df)
    sql = con.sql(SQL_KN_PERPLEXITY_DOCS).df() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(outs[0], sql, check_dtype=False)


# ------------------------------------------------- text_column


def _word_table(ds, text_column):
    from nacc_form_validator_ray.stages.bpe import word_counts
    out = word_counts(ds, text_column=text_column).to_pandas()
    return out.sort_values("word").reset_index(drop=True).to_dict("list")


def _importance(ds, text_column):
    from nacc_form_validator_ray.stages.importance import \
        train_importance_model
    return train_importance_model(ds, text_column=text_column,
                                  select_value="a")


def _trainer(name):
    from nacc_form_validator_ray.stages import perplexity
    return getattr(perplexity, name)


@pytest.mark.parametrize("train", [
    _trainer("train_ngram_model"), _trainer("train_bigram_model"),
    _trainer("train_kn_model"), _trainer("train_backoff_model"),
    _importance, _word_table],
    ids=["ngram", "bigram", "kn", "backoff", "importance",
         "bpe_word_counts"])
def test_trainers_read_their_text_column(train):
    """Every trainer counts the column it is given: the same rows give
    the same model under ``text`` and under ``body``."""
    rows = pd.DataFrame({"source": ["a", "b", "a", "b"],
                         "text": ["the cat sat on the mat",
                                  "a dog ran far away", None,
                                  "the dog sat"]})
    under_text = train(rd.from_pandas(rows), text_column="text")
    under_body = train(rd.from_pandas(rows.rename(columns={"text":
                                                           "body"})),
                       text_column="body")
    assert under_body == under_text
    assert under_text  # a model was trained at all
