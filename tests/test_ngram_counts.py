"""``text_signals.ngram_counts``: the one per-batch n-gram counter,
checked against a ``collections.Counter`` over ``re.findall``."""

import collections
import re

import numpy as np
import pyarrow as pa
import pytest

from nacc_form_validator_ray.stages.text_signals import (
    arrow_token_codes, fused_ngram_counts, ngram_counts, pack_key,
    unpack_key)

#: null, empty, one-token, non-ASCII (U+212A lowers to "k") and digit
#: runs, and neighbours whose boundary would form an n-gram if one
#: spanned two documents
TEXTS = [None, "", "solo", "Alpha beta", "gamma delta epsilon",
         "Café naïve Kelvin 42abc7def x9y",
         "the the the the the", "a b a b a b a", "zeta", "eta theta",
         "IOTA kappa IOTA kappa lambda"]
SOURCES = ["s1", "s2", None, "s1", "s2", None, "s1", "s3", "s3", "s1",
           "s2"]


def _reference(texts, n, gap, keys=None):
    out = collections.Counter()
    for i, text in enumerate(texts):
        toks = re.findall("[a-z]+", (text or "").lower())
        for s in range(len(toks) - (n - 1) * gap):
            gram = tuple(toks[s + j * gap] for j in range(n))
            out[(() if keys is None else (keys[i],)) + gram] += 1
    return out


def _as_counter(table):
    rows = zip(*(table[c].to_pylist() for c in table.column_names))
    out = collections.Counter()
    for *key, count in rows:
        assert count > 0 and tuple(key) not in out
        out[tuple(key)] = count
    return out


@pytest.mark.parametrize("n,gap", [(1, 1), (2, 1), (3, 1), (2, 3)])
@pytest.mark.parametrize("by", [None, "source", "doc_id"])
def test_matches_counter_reference(n, gap, by):
    batch = pa.table({"doc_id": pa.array(np.arange(100, 100 + len(TEXTS))),
                      "source": SOURCES,
                      "text": pa.array(TEXTS, pa.string())})
    keys = None if by is None else batch[by]
    got = ngram_counts(arrow_token_codes(batch["text"]), n, gap, keys)
    words = [f"w{j + 1}" for j in range(n)]
    assert got.column_names == ([] if by is None else ["by"]) \
        + words + ["count"]
    assert got.schema.field("count").type == pa.int64()
    ref_keys = None if keys is None else keys.to_pylist()
    assert _as_counter(got) == _reference(TEXTS, n, gap, ref_keys)


def test_fused_orders_carry_the_empty_sentinel():
    tokens = arrow_token_codes(pa.array(TEXTS, pa.string()))
    got = _as_counter(fused_ngram_counts(tokens, 3))
    want = collections.Counter()
    for n in (1, 2, 3):
        for gram, c in _reference(TEXTS, n, 1).items():
            want[gram + ("",) * (3 - n)] = c
    assert got == want


@pytest.mark.parametrize("texts", [[], [None, ""], ["one"]])
def test_no_ngrams_gives_typed_empty_table(texts):
    text = pa.array(texts, pa.string())
    by = pa.array(np.arange(len(texts)))
    got = ngram_counts(arrow_token_codes(text), 2, by=by)
    assert got.num_rows == 0
    assert got.schema == pa.schema([("by", pa.int64()),
                                    ("w1", pa.string()),
                                    ("w2", pa.string()),
                                    ("count", pa.int64())])


def test_key_overflow_raises():
    digits = [np.array([3]), np.array([5])]
    with pytest.raises(ValueError, match="int64"):
        pack_key(digits, [1 << 32, (1 << 31) + 1])
    key = pack_key(digits, [1 << 32, 1 << 31])
    assert [d.tolist() for d in unpack_key(key, [1 << 32, 1 << 31])] \
        == [[3], [5]]
    with pytest.raises(ValueError):
        ngram_counts(arrow_token_codes(pa.array(["a b"])), 1, gap=0)
