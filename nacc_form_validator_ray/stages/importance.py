"""DSIR-style importance weighting (Xie et al. 2023, "Data Selection
for Language Models via Importance Resampling", arXiv:2302.03169).

The published recipe: fit a simple feature distribution to a TARGET
domain and to the RAW crawl, then score every raw document by its
log importance ratio ``log p_target(x) - log p_raw(x)`` and resample
with those weights. Features here are the unigram tokens themselves
(the paper's exact formulation; its hashed-n-gram variant exists only
to bound the feature space — at 100 TB the unigram vocab is
Heaps-bounded and the model still broadcasts like the perplexity LM).

One-pass training: a single tokenization per batch produces
``(token, c_raw, c_tgt)`` partials — the target corpus is a row subset,
so both counts fall out of ONE ``text_signals.ngram_counts`` call keyed
by the per-row target flag — and one hash exchange merges them, the
same fused shape as the bigram LM trainer. The
merged vocab table is model-sized; each scoring actor resolves only
its batch vocabulary against it.

Exactness contract (same 2^-20 grid as stages/perplexity.py): the
per-token weight is a DIFFERENCE of two grid-quantized add-k log2
probabilities — itself a dyadic rational with a ~26-bit significand —
so per-doc float64 sums are exact and order-independent, bit-identical
across partitionings and to the DuckDB twin
(pipelines/queries.SQL_DSIR_WEIGHTS).
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from nacc_form_validator_ray.stages.perplexity import quantize_logp
from nacc_form_validator_ray.stages.text_signals import (
    arrow_token_codes, batch_text, ngram_counts, with_columns)


def _batch_pair_counts(batch, text_column: str, select_column: str,
                       select_value):
    """Per-batch (token, c_raw, c_tgt) partial counts: the unigram
    counts keyed by the row's target flag (``select_column ==
    select_value``; a null never matches), so one tokenization yields
    both. A token seen in target and non-target rows gives two rows;
    the grouped sum merges them."""
    import pyarrow as pa
    import pyarrow.compute as pc

    flag = pc.fill_null(pc.equal(batch[select_column],
                                 pa.scalar(select_value)), False)
    t = ngram_counts(arrow_token_codes(batch_text(batch, text_column)),
                     by=flag)
    return pa.table({"token": t["w1"], "c_raw": t["count"],
                     "c_tgt": pc.if_else(t["by"], t["count"], 0)})


def train_importance_model(ds, text_column: str = "text",
                           select_column: str = "source",
                           select_value: Any = None,
                           add_k: float = 0.5,
                           max_vocab: int = 2_000_000) -> Dict[str, Any]:
    """Fit the target and raw unigram models in ONE distributed pass
    and return the per-token quantized log2 importance ratios.
    ``max_vocab`` bounds the driver artifact (most-frequent-raw head,
    deterministic ties by token — the same cut train_ngram_model
    applies; a no-op at every oracle scale). Denominators use the FULL
    corpus totals computed before the cut, so the kept tokens' ratios
    are unchanged; dropped tail tokens score with the unseen mass."""
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum

    partials = ds.map_batches(
        lambda b: _batch_pair_counts(b, text_column, select_column,
                                     select_value),
        batch_format="pyarrow")
    merged = grouped_agg_sum(partials, ["token"], ["c_raw", "c_tgt"],
                             num_partitions=16).to_pandas()
    full_totals = (int(merged["c_raw"].sum()),
                   len(merged),
                   int(merged["c_tgt"].sum()),
                   int((merged["c_tgt"] > 0).sum()))
    if len(merged) > max_vocab:
        merged = merged.sort_values(["c_raw", "token"],
                                    ascending=[False, True]) \
            .head(max_vocab)
    c_raw = merged["c_raw"].to_numpy(np.int64)
    c_tgt = merged["c_tgt"].to_numpy(np.int64)
    tot_r, v_r, tot_t, v_t = full_totals
    denom_r = float(tot_r) + add_k * (v_r + 1)
    denom_t = float(tot_t) + add_k * (v_t + 1)
    ratio = {
        tok: quantize_logp(math.log2((ct + add_k) / denom_t))
        - quantize_logp(math.log2((cr + add_k) / denom_r))
        for tok, cr, ct in zip(merged["token"], c_raw, c_tgt)
    }
    return {
        "logratio": ratio,
        # a token outside the RAW vocab (scoring a foreign corpus)
        # takes both models' unseen mass
        "oov_logratio": quantize_logp(math.log2(add_k / denom_t))
        - quantize_logp(math.log2(add_k / denom_r)),
        "add_k": add_k,
    }


class ImportanceScorer:
    """map_batches callable: the ratio table loads ONCE per actor; each
    batch resolves only its own vocabulary against it (the same hot
    path as PerplexityScorer)."""

    def __init__(self, model: Dict[str, Any],
                 text_column: str = "text"):
        self.text_column = text_column
        self.oov = float(model["oov_logratio"])
        self.token_index = {t: i
                            for i, t in enumerate(model["logratio"])}
        self.lr = np.fromiter(model["logratio"].values(),
                              dtype=np.float64,
                              count=len(model["logratio"]))

    def _score(self, text_arr) -> Dict[str, np.ndarray]:
        n = len(text_arr)
        codes, dictionary, doc_id, lens = arrow_token_codes(text_arr)
        weight = np.zeros(n, dtype=np.float64)
        if len(codes):
            uniq = np.array([self.token_index.get(t, -1)
                             for t in dictionary.to_pylist()],
                            dtype=np.int64)
            tok_lr = np.where(uniq >= 0,
                              self.lr[np.maximum(uniq, 0)],
                              self.oov)[codes]
            # + 0.0 canonicalizes -0.0 so empty docs match SQL's 0.0
            weight = np.bincount(doc_id, weights=tok_lr,
                                 minlength=n) + 0.0
        return {"dsir_weight": weight,
                "dsir_tokens": lens.astype(np.int64)}

    def __call__(self, batch):
        return with_columns(batch,
                            self._score(batch_text(batch, self.text_column)))
