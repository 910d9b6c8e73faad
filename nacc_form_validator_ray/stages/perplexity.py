"""N-gram language-model perplexity scoring (the KenLM-analog stage).

A real deployment loads a KenLM binary once per actor and scores batches;
this container has no KenLM, so the same actor-pool shape runs an
interpolated unigram/bigram model with add-k smoothing whose artifact is
a plain dict (JSON-serializable). The plumbing is the point:

* ``train_ngram_model`` — DISTRIBUTED counting: per-batch unigram
  counts over Arrow token codes (``text_signals.ngram_counts``), one
  hash exchange to merge, small model artifact returned to the driver;
* ``PerplexityScorer`` — map_batches callable; the model loads once per
  actor in ``__init__`` (pass ``model_path`` for the
  load-weights-per-actor pattern, or ``model`` inline) and scoring is a
  vectorized code→logprob table lookup, no per-token Python.

Appends ``log_ppl`` (mean negative log2 prob per token), ``ppl_tokens``
and ``oov_count``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Sequence

import numpy as np

from nacc_form_validator_ray.stages.text_signals import (
    arrow_token_codes, batch_text, fused_ngram_counts, ngram_counts,
    pack_key, unpack_key, with_columns)


def _ngram_lookup(table: Dict[str, int], words: np.ndarray,
                  cols: Sequence[np.ndarray]) -> np.ndarray:
    """``table["w1 w2 ..."]`` (0 when absent) as float64 at every
    position of the aligned code columns ``cols`` over the batch
    dictionary ``words``: the codes are packed into one int64 key, and
    the model dict is read once per DISTINCT n-gram, then gathered."""
    radices = [len(words)] * len(cols)
    upk, inv = np.unique(pack_key(cols, radices), return_inverse=True)
    grams = zip(*(words[d] for d in unpack_key(upk, radices)))
    return np.array([table.get(" ".join(g), 0) for g in grams],
                    dtype=np.float64)[inv]


#: fixed-point quantum for model log-probs: 2^-20. Quantized logp values
#: are dyadic rationals with ~34 significand bits after summing 2^13
#: tokens, so EVERY float64 sum of them is exact — per-doc scores are
#: bit-identical regardless of summation order (partitioning,
#: parallelism level) and a SQL twin can reproduce them
#: (pipelines/queries.SQL_PERPLEXITY_DOCS).
LOGP_SCALE = float(1 << 20)


def quantize_logp(x: float) -> float:
    """Round a log-prob to the fixed-point grid (floor(x*S + 0.5)/S —
    the same half-up convention the SQL twin uses)."""
    return math.floor(x * LOGP_SCALE + 0.5) / LOGP_SCALE


def train_ngram_model(ds, text_column: str = "text",
                      add_k: float = 0.5,
                      max_vocab: int = 200_000) -> Dict[str, Any]:
    """Distributed unigram model: per-batch partial counts → one hash
    exchange to merge → small artifact on the driver. Log-probs are
    quantized to the 2^-20 grid (see LOGP_SCALE) so downstream sums are
    order-independent."""
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum

    def partials(batch):
        return ngram_counts(arrow_token_codes(
            batch_text(batch, text_column))).rename_columns(
                ["token", "count"])

    merged = grouped_agg_sum(ds.map_batches(partials,
                                            batch_format="pyarrow"),
                             ["token"], ["count"],
                             num_partitions=16).to_pandas()
    merged = merged.sort_values(["count", "token"],
                                ascending=[False, True]).head(max_vocab)
    total = float(merged["count"].sum())
    vocab = len(merged)
    denom = total + add_k * (vocab + 1)
    logp = {t: quantize_logp(math.log2((c + add_k) / denom))
            for t, c in zip(merged["token"], merged["count"])}
    return {
        "logp": logp,
        "oov_logp": quantize_logp(math.log2(add_k / denom)),
        "add_k": add_k,
        "total_tokens": total,
    }


def save_model(model: Dict[str, Any], path: str) -> None:
    with open(path, "w") as f:
        json.dump(model, f)


def load_arpa_unigram(path: str) -> Dict[str, Any]:
    """Parse the \\1-grams section of a KenLM-style ARPA file into this
    engine's unigram model dict: ARPA stores log10 probabilities
    (``log10p token [backoff]``), converted to natural log here;
    ``<unk>``'s entry becomes ``oov_logp`` (fallback -20.0). This is
    the external perplexity-model seam — the same ``__init__``-time
    artifact load a real ``kenlm.Model`` would do, exercised by
    tests/test_model_seams.py without the kenlm dependency."""
    import math
    logp: Dict[str, float] = {}
    oov = -20.0
    in_unigrams = False
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("\\1-grams"):
                in_unigrams = True
                continue
            if line.startswith("\\"):  # next section / \\end\\
                in_unigrams = False
                continue
            if not in_unigrams or not line:
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            lp10, tok = float(parts[0]), parts[1]
            ln_p = lp10 * math.log(10.0)
            if tok == "<unk>":
                oov = ln_p
            else:
                logp[tok] = ln_p
    return {"oov_logp": oov, "logp": logp}


class PerplexityScorer:
    """map_batches callable: model loads ONCE per actor/task instance.

    Model sources, in precedence order: ``model`` (dict), ``arpa_path``
    (KenLM-style ARPA unigram section — the real-model seam), or
    ``model_path`` (this engine's JSON artifact)."""

    def __init__(self, model: Optional[Dict[str, Any]] = None,
                 model_path: Optional[str] = None,
                 text_column: str = "text",
                 arpa_path: Optional[str] = None,
                 kenlm_path: Optional[str] = None):
        self.kenlm = None
        if kenlm_path is not None:
            # real-KenLM path: load the binary/ARPA model through the
            # kenlm library, once per actor. Raises a clear error when
            # the library is absent (this container does not ship it;
            # tests/test_model_seams.py skips accordingly).
            try:
                import kenlm
            except ImportError as e:
                raise RuntimeError(
                    "kenlm_path requires the 'kenlm' package; use "
                    "arpa_path for the dependency-free ARPA-unigram "
                    "seam") from e
            self.kenlm = kenlm.Model(kenlm_path)
            self.text_column = text_column
            return
        if model is None and arpa_path is not None:
            model = load_arpa_unigram(arpa_path)
        if model is None:
            if model_path is None:
                raise ValueError("need model, arpa_path or model_path")
            with open(model_path) as f:
                model = json.load(f)
        self.text_column = text_column
        self.oov_logp = float(model["oov_logp"])
        # dense lookup keyed by token -> index; probs as one float array
        self.token_index = {t: i for i, t in enumerate(model["logp"])}
        self.logp = np.fromiter(model["logp"].values(), dtype=np.float64,
                                count=len(model["logp"]))

    def _score(self, text_arr) -> Dict[str, np.ndarray]:
        n = len(text_arr)
        # byte-run tokenizer shared with TextStats: same token stream as
        # findall('[A-Za-z]+') on the lowered text, no Python strings in
        # the hot path — only the (small) batch vocabulary is resolved
        # against the model dict
        codes, dictionary, doc_id, lens = arrow_token_codes(text_arr)
        log_ppl = np.zeros(n, dtype=np.float64)
        oov = np.zeros(n, dtype=np.int64)
        if len(codes):
            uniq_idx = np.array(
                [self.token_index.get(t, -1)
                 for t in dictionary.to_pylist()], dtype=np.int64)
            tok_logp = np.where(uniq_idx >= 0,
                                self.logp[np.maximum(uniq_idx, 0)],
                                self.oov_logp)[codes]
            tok_oov = (uniq_idx < 0)[codes]
            sum_lp = np.bincount(doc_id, weights=tok_logp, minlength=n)
            # + 0.0 canonicalizes -0.0 (empty docs) so the bit pattern
            # matches the SQL twin's literal 0.0
            log_ppl = -sum_lp / np.maximum(lens, 1) + 0.0
            oov = np.bincount(doc_id, weights=tok_oov,
                              minlength=n).astype(np.int64)
        return {"log_ppl": log_ppl, "ppl_tokens": lens,
                "oov_count": oov}

    def _score_kenlm(self, texts) -> Dict[str, np.ndarray]:
        """Score through a real kenlm.Model: full_scores per sentence
        (KenLM's own tokenization = whitespace split), summed log10
        probs converted to natural-log perplexity on the engine's
        log_ppl convention; OOV count from full_scores' per-word flag.
        Per-sentence C++ calls are the real integration shape — the
        loop is over documents of ONE batch inside an actor."""
        import math
        n = len(texts)
        log_ppl = np.zeros(n, dtype=np.float64)
        lens = np.zeros(n, dtype=np.int64)
        oov = np.zeros(n, dtype=np.int64)
        ln10 = math.log(10.0)
        for i, t in enumerate(texts):
            toks = t.split()
            lens[i] = len(toks)
            if not toks:
                continue
            s, o = 0.0, 0
            for (lp10, _, is_oov) in self.kenlm.full_scores(
                    t, bos=False, eos=False):
                s += lp10
                o += int(is_oov)
            log_ppl[i] = -s * ln10 / len(toks)
            oov[i] = o
        return {"log_ppl": log_ppl, "ppl_tokens": lens,
                "oov_count": oov}

    def __call__(self, batch):
        text = batch_text(batch, self.text_column)
        return with_columns(batch, self._score(text) if self.kenlm is None
                            else self._score_kenlm(text.to_pylist()))


def train_bigram_model(ds, text_column: str = "text",
                       add_k: float = 0.5,
                       num_partitions: int = 16,
                       max_entries: int = 2_000_000) -> Dict[str, Any]:
    """Distributed interpolated-bigram LM (the KenLM-direction upgrade
    of :func:`train_ngram_model`): per-batch unigram AND bigram count
    partials (``text_signals.fused_ngram_counts`` — one tokenization,
    both orders in one table with the ``w2 == ""`` sentinel on unigram
    rows), one grouped-sum exchange, small JSON-able artifact on the
    driver. Bigrams span adjacent tokens WITHIN a document (no BOS/EOS
    markers — documented simplification; the first token of a document
    is scored by the unigram term alone).
    """
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum

    def fused_partials(batch):
        return fused_ngram_counts(
            arrow_token_codes(batch_text(batch, text_column)), 2)

    merged = grouped_agg_sum(
        ds.map_batches(fused_partials, batch_format="pyarrow"),
        ["w1", "w2"], ["count"],
        num_partitions=num_partitions).to_pandas()
    is_uni = merged["w2"] == ""
    uni, bi = merged[is_uni], merged[~is_uni]
    if len(bi) > max_entries:
        # driver-artifact bound (the unigram head-cut analog for the
        # pair table): keep the max_entries most frequent bigrams,
        # deterministic ties by key. A no-op at every oracle scale —
        # dropped tail pairs simply score as unseen.
        bi = bi.sort_values(["count", "w1", "w2"],
                            ascending=[False, True, True]) \
            .head(max_entries)
    return {
        "uni": dict(zip(uni["w1"], uni["count"].astype(int))),
        "bi": {f"{a} {b}": int(c) for a, b, c in
               zip(bi["w1"], bi["w2"], bi["count"])},
        "add_k": add_k,
    }


class BigramScorer:
    """Actor-pool scorer for the interpolated bigram model: per-token
    log-prob is ``q(log2(0.5*(c_bi+k)/(c_prev+k(V+1)) +
    0.5*(c_uni+k)/(T+k(V+1))))`` for non-initial tokens and the plain
    unigram term for each document's first token; ``q`` is the 2^-20
    grid (LOGP_SCALE), so per-doc sums are exact dyadic arithmetic and
    the DuckDB twin reproduces them bit-for-bit. Lookups resolve only
    the batch's token/pair DICTIONARY against the model (vocabulary
    cost), then gather by code."""

    def __init__(self, model: Optional[Dict[str, Any]] = None,
                 model_path: Optional[str] = None,
                 text_column: str = "text"):
        if model is None:
            if model_path is None:
                raise ValueError("need model or model_path")
            with open(model_path) as f:
                model = json.load(f)
        self.text_column = text_column
        self.uni = model["uni"]
        self.bi = model["bi"]
        self.k = float(model["add_k"])
        self.T = float(sum(self.uni.values()))
        self.V = len(self.uni)
        self.kv1 = self.k * (self.V + 1)
        self.d_uni = self.T + self.kv1

    def _score(self, text_arr) -> Dict[str, np.ndarray]:
        n = len(text_arr)
        codes, dictionary, tok_doc, lens = arrow_token_codes(text_arr)
        log_ppl = np.zeros(n, dtype=np.float64)
        unseen = np.zeros(n, dtype=np.int64)
        if len(codes):
            d = dictionary.to_numpy(zero_copy_only=False)
            cu_dict = np.array([self.uni.get(t, 0) for t in d],
                               dtype=np.float64)
            cu = cu_dict[codes]
            lp_uni = np.floor(
                np.log2((cu + self.k) / self.d_uni)
                * LOGP_SCALE + 0.5) / LOGP_SCALE
            lp = lp_uni.copy()
            first = np.ones(len(codes), dtype=bool)
            first[1:] = tok_doc[1:] != tok_doc[:-1]
            rest = ~first
            if rest.any():
                prev = np.empty(len(codes), dtype=np.int64)
                prev[1:] = codes[:-1]
                prev[0] = 0
                cbi = _ngram_lookup(self.bi, d, [prev[rest], codes[rest]])
                cu_prev = cu_dict[prev[rest]]
                mix = (0.5 * (cbi + self.k)) / (cu_prev + self.kv1) \
                    + (0.5 * (cu[rest] + self.k)) / self.d_uni
                lp[rest] = np.floor(np.log2(mix) * LOGP_SCALE + 0.5) \
                    / LOGP_SCALE
                uns_tok = np.zeros(len(codes), dtype=np.int64)
                uns_tok[rest] = (cbi == 0).astype(np.int64)
                unseen = np.bincount(tok_doc, weights=uns_tok,
                                     minlength=n).astype(np.int64)
            sum_lp = np.bincount(tok_doc, weights=lp, minlength=n)
            log_ppl = -sum_lp / np.maximum(lens, 1) + 0.0
        return {"log_ppl": log_ppl, "ppl_tokens": lens,
                "unseen_bigrams": unseen}

    def __call__(self, batch):
        return with_columns(batch,
                            self._score(batch_text(batch, self.text_column)))


def train_kn_model(ds, text_column: str = "text",
                   num_partitions: int = 16) -> Dict[str, Any]:
    """Interpolated Kneser–Ney bigram model (absolute discount
    D = 0.5) — the smoothing family KenLM actually implements, derived
    from the SAME fused one-pass count exchange as
    :func:`train_bigram_model`:

    * ``ctx[w1]``  = Σ_w2 c(w1,w2)  (occurrences of w1 as a context),
    * ``n1f[w1]``  = |{w2 : c(w1,w2) > 0}|  (N1+(w1,·)),
    * ``n1b[w2]``  = |{w1 : c(w1,w2) > 0}|  (N1+(·,w2), the
      continuation count), and
    * ``n_bigrams`` = N1+(··).

    The discount and the continuation add-k (both 0.5) are dyadic, so
    every probability is a ratio of exactly-representable values and
    the grid-quantized log2 terms match the DuckDB twin bit-for-bit.
    """
    base = train_bigram_model(ds, text_column=text_column,
                              num_partitions=num_partitions)
    ctx: Dict[str, int] = {}
    n1f: Dict[str, int] = {}
    n1b: Dict[str, int] = {}
    for key, c in base["bi"].items():
        w1, w2 = key.split(" ", 1)
        ctx[w1] = ctx.get(w1, 0) + c
        n1f[w1] = n1f.get(w1, 0) + 1
        n1b[w2] = n1b.get(w2, 0) + 1
    return {"uni": base["uni"], "bi": base["bi"], "ctx": ctx,
            "n1f": n1f, "n1b": n1b, "n_bigrams": len(base["bi"]),
            "discount": 0.5}


class KNScorer:
    """Actor-pool scorer for the Kneser–Ney bigram model. Per-token
    probability (D = 0.5, smoothed continuation distribution
    ``pcont(w) = (N1+(·,w) + 0.5) / (N1+(··) + 0.5 (V+1))``):

    * document-initial token, or previous token never seen as a
      context: ``pcont(w)`` (full backoff);
    * otherwise ``max(c(w1,w2) - D, 0)/ctx(w1)
      + ((D · N1+(w1,·))/ctx(w1)) · pcont(w2)``.

    Each log2 is quantized to the 2^-20 grid so per-doc sums are exact
    dyadic floats — bit-identical across partitionings and to
    SQL_KN_PERPLEXITY_DOCS, whose CASE mirrors this expression tree
    operation for operation."""

    def __init__(self, model: Optional[Dict[str, Any]] = None,
                 model_path: Optional[str] = None,
                 text_column: str = "text"):
        if model is None:
            if model_path is None:
                raise ValueError("need model or model_path")
            with open(model_path) as f:
                model = json.load(f)
        self.text_column = text_column
        self.bi = model["bi"]
        self.ctx = model["ctx"]
        self.n1f = model["n1f"]
        self.n1b = model["n1b"]
        self.D = float(model["discount"])
        V = len(model["uni"])
        self.den_cont = float(model["n_bigrams"]) + 0.5 * (V + 1)

    def _score(self, text_arr) -> Dict[str, np.ndarray]:
        n = len(text_arr)
        codes, dictionary, tok_doc, lens = arrow_token_codes(text_arr)
        log_ppl = np.zeros(n, dtype=np.float64)
        unseen = np.zeros(n, dtype=np.int64)
        if len(codes):
            d = dictionary.to_numpy(zero_copy_only=False)
            pcont_d = (np.array([self.n1b.get(t, 0) for t in d],
                                dtype=np.float64) + 0.5) / self.den_cont
            c1_d = np.array([self.ctx.get(t, 0) for t in d],
                            dtype=np.float64)
            n1f_d = np.array([self.n1f.get(t, 0) for t in d],
                             dtype=np.float64)
            pcont = pcont_d[codes]
            # default = full backoff (doc-initial / context-less)
            lp = np.floor(np.log2(pcont) * LOGP_SCALE + 0.5) \
                / LOGP_SCALE
            first = np.ones(len(codes), dtype=bool)
            first[1:] = tok_doc[1:] != tok_doc[:-1]
            rest = ~first
            if rest.any():
                prev = np.empty(len(codes), dtype=np.int64)
                prev[1:] = codes[:-1]
                prev[0] = 0
                cbi = _ngram_lookup(self.bi, d, [prev[rest], codes[rest]])
                c1 = c1_d[prev[rest]]
                n1f = n1f_d[prev[rest]]
                have_ctx = c1 > 0
                c1s = np.maximum(c1, 1.0)
                mix = np.where(
                    have_ctx,
                    np.maximum(cbi - self.D, 0.0) / c1s
                    + ((self.D * n1f) / c1s) * pcont[rest],
                    pcont[rest])
                lp[rest] = np.floor(np.log2(mix) * LOGP_SCALE + 0.5) \
                    / LOGP_SCALE
                uns_tok = np.zeros(len(codes), dtype=np.int64)
                uns_tok[rest] = (cbi == 0).astype(np.int64)
                unseen = np.bincount(tok_doc, weights=uns_tok,
                                     minlength=n).astype(np.int64)
            sum_lp = np.bincount(tok_doc, weights=lp, minlength=n)
            log_ppl = -sum_lp / np.maximum(lens, 1) + 0.0
        return {"log_ppl": log_ppl, "ppl_tokens": lens,
                "unseen_bigrams": unseen}

    def __call__(self, batch):
        return with_columns(batch,
                            self._score(batch_text(batch, self.text_column)))


def train_backoff_model(ds, text_column: str = "text",
                        add_k: float = 0.5, alpha: float = 0.4,
                        num_partitions: int = 16,
                        max_entries: int = 2_000_000) -> Dict[str, Any]:
    """Distributed TRIGRAM stupid-backoff LM (Brants et al. 2007 — the
    large-LM scoring scheme that skips normalization): per-batch
    unigram+bigram+trigram count partials through ONE fused exchange
    (the ``w3 == ""`` / ``w2 == ""`` sentinel scheme of
    :func:`train_bigram_model`), small JSON-able artifact on the
    driver. N-grams span adjacent tokens WITHIN a document (no BOS/EOS
    markers — same simplification as the bigram family: a document's
    first token scores on the unigram term, its second on the bigram
    backoff level)."""
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum

    def fused_partials(batch):
        return fused_ngram_counts(
            arrow_token_codes(batch_text(batch, text_column)), 3)

    merged = grouped_agg_sum(
        ds.map_batches(fused_partials, batch_format="pyarrow"),
        ["w1", "w2", "w3"], ["count"],
        num_partitions=num_partitions).to_pandas()
    is_uni = merged["w2"] == ""
    is_bi = (~is_uni) & (merged["w3"] == "")
    uni = merged[is_uni]
    bi = merged[is_bi]
    tri = merged[~is_uni & ~is_bi]
    for name, tbl in (("bi", bi), ("tri", tri)):
        if len(tbl) > max_entries:
            tbl = tbl.sort_values(["count", "w1", "w2", "w3"],
                                  ascending=[False, True, True, True]) \
                .head(max_entries)
            if name == "bi":
                bi = tbl
            else:
                tri = tbl
    return {
        "uni": dict(zip(uni["w1"], uni["count"].astype(int))),
        "bi": {f"{a} {b}": int(c) for a, b, c in
               zip(bi["w1"], bi["w2"], bi["count"].astype(int))},
        "tri": {f"{a} {b} {c}": int(n) for a, b, c, n in
                zip(tri["w1"], tri["w2"], tri["w3"],
                    tri["count"].astype(int))},
        "add_k": add_k,
        "alpha": alpha,
    }


class BackoffScorer:
    """Actor-pool scorer for the trigram stupid-backoff model: per
    token the score is ``c_tri/c_bi_ctx`` when the trigram was seen,
    else ``alpha * (c_bi/c_uni_prev)`` when the bigram was seen, else
    ``alpha^2 * (c_uni+k)/(T+k(V+1))`` (documents' first/second tokens
    start at the unigram/bigram levels). Each score's log2 rides the
    2^-20 grid (LOGP_SCALE), so per-doc sums are exact dyadic
    arithmetic and the DuckDB twin reproduces them bit-for-bit. The
    model loads ONCE per actor in ``__init__``; lookups resolve only
    the batch's token dictionary (vocabulary cost), then gather by
    code."""

    def __init__(self, model: Optional[Dict[str, Any]] = None,
                 model_path: Optional[str] = None,
                 text_column: str = "text"):
        if model is None:
            if model_path is None:
                raise ValueError("need model or model_path")
            with open(model_path) as f:
                model = json.load(f)
        self.text_column = text_column
        self.uni = model["uni"]
        self.bi = model["bi"]
        self.tri = model["tri"]
        self.k = float(model["add_k"])
        self.alpha = float(model["alpha"])
        self.T = float(sum(self.uni.values()))
        self.V = len(self.uni)
        self.d_uni = self.T + self.k * (self.V + 1)

    def _score(self, text_arr) -> Dict[str, np.ndarray]:
        n = len(text_arr)
        codes, dictionary, tok_doc, lens = arrow_token_codes(text_arr)
        log_ppl = np.zeros(n, dtype=np.float64)
        unseen = np.zeros(n, dtype=np.int64)
        if len(codes):
            d = dictionary.to_numpy(zero_copy_only=False)
            cu_dict = np.array([self.uni.get(t, 0) for t in d],
                               dtype=np.float64)
            cu = cu_dict[codes]
            s_uni = (cu + self.k) / self.d_uni
            lp = np.floor(np.log2(s_uni) * LOGP_SCALE + 0.5) \
                / LOGP_SCALE
            m = len(codes)
            first = np.ones(m, dtype=bool)
            first[1:] = tok_doc[1:] != tok_doc[:-1]
            rest = ~first                       # has a previous token
            uns_tok = np.zeros(m, dtype=np.int64)
            if rest.any():
                prev = np.empty(m, dtype=np.int64)
                prev[1:] = codes[:-1]
                prev[0] = 0
                cbi = _ngram_lookup(self.bi, d, [prev[rest], codes[rest]])
                cu_prev = cu_dict[prev[rest]]
                with np.errstate(divide="ignore", invalid="ignore"):
                    s2 = np.where(cbi > 0, cbi / cu_prev,
                                  self.alpha * s_uni[rest])
                lp[rest] = np.floor(np.log2(s2) * LOGP_SCALE + 0.5) \
                    / LOGP_SCALE
                # trigram level: positions with TWO same-doc predecessors
                third = np.zeros(m, dtype=bool)
                if m >= 3:
                    third[2:] = (tok_doc[2:] == tok_doc[:-2]) \
                        & (tok_doc[1:-1] == tok_doc[:-2])
                if third.any():
                    prev2 = np.empty(m, dtype=np.int64)
                    prev2[2:] = codes[:-2]
                    prev2[:2] = 0
                    p2 = prev2[third]
                    p1 = prev[third]
                    ctri = _ngram_lookup(self.tri, d,
                                         [p2, p1, codes[third]])
                    cb_ctx = _ngram_lookup(self.bi, d, [p2, p1])
                    # s2 value AT the third-level positions: scatter
                    # the rest-indexed s2 back to token positions
                    s2_map = np.empty(m, dtype=np.float64)
                    s2_map[rest] = s2
                    with np.errstate(divide="ignore",
                                     invalid="ignore"):
                        s3 = np.where(ctri > 0, ctri / cb_ctx,
                                      self.alpha * s2_map[third])
                    lp[third] = np.floor(
                        np.log2(s3) * LOGP_SCALE + 0.5) / LOGP_SCALE
                    uns_tok[third] = (ctri == 0).astype(np.int64)
            unseen = np.bincount(tok_doc, weights=uns_tok,
                                 minlength=n).astype(np.int64)
            sum_lp = np.bincount(tok_doc, weights=lp, minlength=n)
            log_ppl = -sum_lp / np.maximum(lens, 1) + 0.0
        return {"log_ppl": log_ppl, "ppl_tokens": lens,
                "unseen_trigrams": unseen}

    def __call__(self, batch):
        return with_columns(batch,
                            self._score(batch_text(batch, self.text_column)))
