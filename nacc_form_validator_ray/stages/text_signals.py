"""Vectorized text-signal stages for the web-text quality filter.

Each stage is a ``map_batches`` callable that appends signal columns to
a batch; regexes are compiled once per actor in ``__init__``
(stateful-stage pattern — the analog of the reference compiling its rule
schema once per QualityCheck, quality_check.py:74-95). The text stages
read their input column through :func:`batch_text` and write their
output through :func:`with_columns`, the one place a ``pa.Table`` or a
``pd.DataFrame`` batch is told apart; scoring runs on Arrow arrays:

* counting signals are byte-class masks over the utf-8 buffer;
* n-gram repetition uses Arrow dictionary codes + bit-packed rolling
  keys + bincount — no Python loop over rows;
* language ID is stopword-hit counting per language
  (:func:`stopword_columns`), argmax with a fixed deterministic tie order.

Every signal is defined so an ANSI-SQL oracle can recompute it exactly
(same regex dialect, same tie-breaks) — the driver's DuckDB correctness
gate relies on this.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

#: deterministic stopword banks (small on purpose: they are part of the
#: public contract with the SQL oracle, not a model)
STOPWORDS: Dict[str, List[str]] = {
    "en": ["the", "and", "of", "to", "in", "is", "that", "it", "was",
           "for", "with", "as", "his", "on", "be", "at", "by", "had"],
    "es": ["de", "la", "que", "el", "en", "y", "los", "del", "se", "las",
           "por", "un", "para", "con", "una", "su", "al", "lo"],
    "de": ["der", "die", "und", "den", "von", "zu", "das", "mit", "sich",
           "des", "auf", "ist", "im", "dem", "nicht", "ein", "eine",
           "als"],
    "fr": ["le", "et", "les", "des", "une", "du", "est", "pour", "qui",
           "dans", "par", "plus", "pas", "au", "sur", "ne", "se", "ce"],
    "zh": ["shi", "bu", "wo", "zai", "you", "ta", "zhe", "zhong", "da",
           "lai", "shang", "guo", "dao", "shuo", "men", "ni", "hao",
           "ma"],
}

#: fixed language priority for argmax tie-breaking (first wins on >=)
LANG_ORDER: List[str] = ["en", "es", "de", "fr", "zh"]

#: token regex shared with the SQL oracle (RE2-compatible: no lookaround)
BPE_TOKEN_RE = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]"

#: a run of characters outside Python's unicode whitespace
#: (``str.isspace``): the word count of a standalone :class:`LangId`,
#: where no ``n_words`` column (ASCII whitespace) precedes it
UNICODE_WORD_RE = (r"[^\t-\r\x1c- \x{85}\x{a0}\x{1680}\x{2000}-\x{200a}"
                   r"\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}]+")

#: the whitespace class used throughout is ASCII bytes 9-13 and 32 —
#: exactly RE2's default (non-unicode) ``\s``, which is also what the
#: DuckDB oracle's regexes match (masks are built inline as SIMD
#: compare chains; a 256-entry LUT gather measured ~4x slower)


def batch_text(batch, column: str):
    """``batch[column]`` of a ``pa.Table`` or ``pd.DataFrame`` batch as
    ONE single-chunk Arrow array (string, or binary as stored), nulls as
    empty values — the one place the text stages read their input."""
    import pyarrow as pa
    import pyarrow.compute as pc
    col = batch[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    elif not isinstance(col, pa.Array):
        col = pa.array(col, from_pandas=True)
        if pa.types.is_null(col.type):
            col = col.cast(pa.string())
    return pc.fill_null(col, "")


def with_columns(batch, columns: Mapping[str, object],
                 drop: Sequence[str] = ()):
    """``batch`` with ``columns`` (numpy or Arrow arrays) appended — a
    name already present is replaced in place — and ``drop`` removed,
    in the container type it came in (``pa.Table`` or ``pd.DataFrame``,
    which is copied, never mutated): the one place the text stages
    write their output."""
    import pyarrow as pa
    arrow = (pa.Array, pa.ChunkedArray)
    if isinstance(batch, pa.Table):
        batch = batch.drop_columns(list(drop))
        for name, values in columns.items():
            arr = values if isinstance(values, arrow) else pa.array(values)
            i = batch.schema.get_field_index(name)
            batch = batch.set_column(i, name, arr) if i >= 0 \
                else batch.append_column(name, arr)
        return batch
    batch = batch.drop(columns=list(drop))
    for name, values in columns.items():
        batch[name] = values.to_numpy(zero_copy_only=False) \
            if isinstance(values, arrow) else values
    return batch


def _buffer_view(arr):
    """(utf-8 byte buffer as uint8 ndarray, per-doc offsets rebased to 0)
    for a pyarrow (Large)StringArray — the zero-copy view the byte-level
    signal kernels run over."""
    import pyarrow as pa
    n = len(arr)
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(arr.buffers()[1], dtype=odt)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = arr.buffers()[2]
    buf = np.empty(0, dtype=np.uint8) if data is None else \
        np.frombuffer(data, dtype=np.uint8)[off[0]:off[-1]]
    return buf, off - off[0]


def _seg_counts(mask: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-document True-count of a byte mask via ``np.add.reduceat`` —
    reads the 1-byte bool mask once and writes n outputs. (A cumsum
    formulation writes 8 bytes per text byte; on this memory-bandwidth-
    bound box that temp dominated the whole signal pass.) Empty-document
    segments (repeated offsets) get reduceat's garbage value and are
    zeroed explicitly."""
    n = len(off) - 1
    out = np.zeros(n, dtype=np.int64)
    if len(mask) == 0:
        return out
    nonempty = np.diff(off) > 0
    if not nonempty.any():
        return out
    # reduceat over the starts of NON-empty docs only: each segment runs
    # to the next non-empty start, spanning exactly that doc's bytes
    # (empty docs in between contribute zero bytes by definition)
    out[nonempty] = np.add.reduceat(mask, off[:-1][nonempty],
                                    dtype=np.int64)
    return out


def arrow_token_runs(text, include_digits: bool = False, _pre=None):
    """Byte-run tokenizer core: maximal ``[a-z]`` (or ``[a-z0-9]``) runs
    of the lowercased text, gathered into ONE packed buffer — no regex,
    no Python strings.

    Returns ``(flat_tok, tok_doc, n_tokens)``: the flat token
    StringArray (None when there are no tokens), each token's document
    index (int32, ascending) and per-document token counts.

    Pure-ASCII batches (the common case for web English) take a fast
    path that never materializes the lowered text: runs are found on the
    ORIGINAL buffer with a case-insensitive mask and only the packed
    token bytes are lowercased in place (``| 0x20`` — exact for ASCII
    letters, a no-op for digits). Any batch containing a byte >= 0x80
    falls back to the full unicode path, because case folding can cross
    into ``[a-z]`` (e.g. U+212A KELVIN SIGN lowers to ``k``) and the SQL
    oracle's ``lower()`` must stay bit-matched. ``_pre`` lets TextStats
    hand over its already-computed ``(buf, offsets, letter_mask,
    digit_mask)`` so the two passes share one LUT scan.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    n = len(text)
    empty = (None, np.empty(0, dtype=np.int32),
             np.zeros(n, dtype=np.int64))
    if _pre is not None:
        obuf, ooff, alpha_m, digit_m = _pre
    else:
        if getattr(text, "null_count", 0):
            text = pc.fill_null(text, "")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        obuf, ooff = _buffer_view(text)
        alpha_m = digit_m = None
    if not len(obuf):
        return empty
    mask = _ascii_token_mask(obuf, include_digits, alpha_m, digit_m)
    if mask is not None:
        return _runs_from_mask(obuf, ooff, mask, n, lower_packed=True)
    return _token_runs_unicode(text, n, include_digits)


def _ascii_token_mask(buf: np.ndarray, include_digits: bool = False,
                      alpha_m=None, digit_m=None):
    """The ASCII fast-path dispatch in ONE place: the ``[a-z]`` (or
    ``[a-z0-9]``) token mask of the ORIGINAL buffer when it is pure
    ASCII, else ``None`` (any byte >= 0x80 forces the unicode-lower
    path — case folding can cross into ``[a-z]``, e.g. U+212A)."""
    if len(buf) and int(buf.max()) >= 0x80:
        return None
    if alpha_m is None:
        o20 = buf | np.uint8(0x20)
        alpha_m = o20 >= 97
        np.logical_and(alpha_m, o20 <= 122, out=alpha_m)
    if include_digits:
        if digit_m is None:
            digit_m = buf >= 48
            np.logical_and(digit_m, buf <= 57, out=digit_m)
        return alpha_m | digit_m
    return alpha_m


def arrow_token_lens(text, include_digits: bool = False) -> np.ndarray:
    """Token BYTE lengths only — no packed strings, no dictionary.
    Same token definition and ASCII/unicode dispatch as
    :func:`arrow_token_runs` (one copy of both rules)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if getattr(text, "null_count", 0):
        text = pc.fill_null(text, "")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    buf, off = _buffer_view(text)
    if not len(buf):
        return np.empty(0, dtype=np.int64)
    mask = _ascii_token_mask(buf, include_digits)
    if mask is not None:
        s_idx, e_idx, _, _ = _mask_runs(buf, off, mask, len(text))
        return (e_idx - s_idx + np.int32(1)).astype(np.int64)
    flat, _, _ = _token_runs_unicode(text, len(text), include_digits)
    if flat is None:
        return np.empty(0, dtype=np.int64)
    return pc.binary_length(flat).to_numpy().astype(np.int64,
                                                    copy=False)


def _token_runs_unicode(text, n: int, include_digits: bool):
    """Full unicode path: lowercase first (case folding may change byte
    lengths and cross into [a-z]), then run-find on the lowered buffer."""
    import pyarrow as pa
    import pyarrow.compute as pc
    empty = (None, np.empty(0, dtype=np.int32),
             np.zeros(n, dtype=np.int64))
    lower = pc.utf8_lower(pc.fill_null(text, ""))
    if isinstance(lower, pa.ChunkedArray):
        lower = lower.combine_chunks()
    lbuf, loff = _buffer_view(lower)
    if not len(lbuf):
        return empty
    lalpha = (lbuf >= 97) & (lbuf <= 122)
    if include_digits:
        lalpha |= (lbuf >= 48) & (lbuf <= 57)
    return _runs_from_mask(lbuf, loff, lalpha, n, lower_packed=False)


def _mask_runs(buf: np.ndarray, off: np.ndarray, mask: np.ndarray,
               n: int):
    """Maximal True-runs of ``mask``, split at document boundaries.

    Returns ``(s_idx, e_idx, run_doc, n_runs)``: inclusive int32 run
    bounds, each run's document index (int32, ascending) and the
    per-document run counts. Boundary runs are fixed up in RUN space:
    raw starts/ends ignore document edges (two shifted-compare temps
    instead of four full-buffer boundary masks), then the <= n-1 runs
    that straddle an offset are split with an O(runs + splits) insert.
    """
    empty = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32),
             np.empty(0, dtype=np.int32), np.zeros(n, dtype=np.int64))
    total = len(buf)
    # ONE aligned xor pass marks every run edge; its nonzeros alternate
    # start, end+1, start, end+1, ... (aligned out= buffer: boolean ops
    # on byte-shifted views lose SIMD and measured ~2x slower here)
    edge = np.empty(total, dtype=bool)
    edge[0] = mask[0]
    np.not_equal(mask[1:], mask[:-1], out=edge[1:])
    bnd = np.flatnonzero(edge)
    if not len(bnd):
        return empty
    if len(bnd) & 1:
        bnd = np.concatenate([bnd, np.full(1, total, dtype=bnd.dtype)])
    # token-space arrays are int32 throughout: a batch's text is far
    # below 2 GB, and on this bandwidth-bound box the int64 versions of
    # these (one 8-byte element per token, ~8 arrays) out-weighed the
    # text itself several times over
    s_idx = bnd[0::2].astype(np.int32)
    e_idx = bnd[1::2].astype(np.int32) - np.int32(1)
    # split runs that straddle a document boundary: boundary b belongs
    # to the RIGHT doc, so [s, e] with s < b <= e becomes [s, b-1], [b, e]
    if n > 1:
        bs = off[1:-1]
        bs = bs[(bs > 0) & (bs < total)]  # empty edge docs: no straddle
        cross = np.unique(bs[mask[bs] & mask[bs - 1]]).astype(np.int32)
        if len(cross):
            # run j holds b (s_idx[j] < b <= e_idx[j]): the new start b
            # goes AFTER s_idx[j], the new end b-1 BEFORE e_idx[j]
            ins = np.searchsorted(s_idx, cross).astype(np.int64)
            s_idx = np.insert(s_idx, ins, cross)
            e_idx = np.insert(e_idx, ins - 1, cross - np.int32(1))
    # per-doc counts via n+1 binary searches of the SORTED starts (not
    # one search per token): runs never straddle a doc after the split
    cum = np.searchsorted(s_idx, off, side="left")
    n_tokens = np.diff(cum).astype(np.int64)
    tok_doc = np.repeat(np.arange(n, dtype=np.int32),
                        n_tokens).astype(np.int32, copy=False)
    return s_idx, e_idx, tok_doc, n_tokens


def _runs_from_mask(buf: np.ndarray, off: np.ndarray, mask: np.ndarray,
                    n: int, lower_packed: bool):
    """:func:`_mask_runs` plus the packed-utf8 token materialization
    (one boolean gather)."""
    import pyarrow as pa
    s_idx, e_idx, tok_doc, n_tokens = _mask_runs(buf, off, mask, n)
    if not len(s_idx):
        return (None, np.empty(0, dtype=np.int32),
                np.zeros(n, dtype=np.int64))
    tok_lens = e_idx - s_idx + np.int32(1)
    toff = np.empty(len(s_idx) + 1, dtype=np.int32)
    toff[0] = 0
    np.cumsum(tok_lens, out=toff[1:])
    # the packed token bytes are exactly the masked bytes in buffer
    # order (splits change token BOUNDARIES, not byte membership) — a
    # single boolean gather, no shift/arange fancy-index
    packed = buf[mask]
    if lower_packed:
        packed |= np.uint8(0x20)  # ASCII lowercase; digits unchanged
    flat_tok = pa.Array.from_buffers(
        pa.utf8(), len(s_idx),
        [None, pa.py_buffer(toff), pa.py_buffer(packed)])
    return flat_tok, tok_doc, n_tokens


def arrow_token_codes(text, include_digits: bool = False, _pre=None):
    """Tokenize an Arrow string array without regex or Python strings.

    Tokens are maximal [a-z] (or, with ``include_digits``, [a-z0-9])
    byte runs of the lowercased text — exactly ``findall('[A-Za-z]+')``
    of each lowered document, in order (``arrow_token_runs``) — then
    dictionary-encoded so per-token work stays in C.

    Returns ``(codes, dictionary, tok_doc, n_tokens)``: int32 dictionary
    code per token, the dictionary array, each token's document index
    (ascending), and the per-document token counts. Shared by TextStats
    and PerplexityScorer so both see the identical token stream.
    """
    import pyarrow.compute as pc
    n = len(text)
    flat_tok, tok_doc, n_tokens = arrow_token_runs(
        text, include_digits=include_digits, _pre=_pre)
    if flat_tok is None:
        return (np.empty(0, dtype=np.int64), None,
                np.empty(0, dtype=np.int64),
                np.zeros(n, dtype=np.int64))
    enc = pc.dictionary_encode(flat_tok)
    return (enc.indices.to_numpy().astype(np.int32), enc.dictionary,
            tok_doc, n_tokens)


def stopword_columns(codes: np.ndarray, dictionary, tok_doc: np.ndarray,
                     n_words: np.ndarray,
                     banks: Mapping[str, Sequence[str]],
                     lang_order: Sequence[str]) -> Dict[str, np.ndarray]:
    """The language-ID columns from stopword-bank hits over the tokens
    of :func:`arrow_token_codes` — the one stopword counter of
    ``TextStats(langid=True)`` and ``LangId``: ``sw_<lang>`` per bank in
    ``lang_order``, ``lang_pred`` (argmax, first wins on ties; 'und'
    when no bank hits) and ``stop_ratio`` (winning bank's hits /
    n_words). Bank membership is resolved once per batch DICTIONARY
    entry (``pc.is_in``), then gathered by code."""
    import pyarrow as pa
    import pyarrow.compute as pc
    n = len(n_words)
    counts = np.zeros((len(lang_order), n), dtype=np.int64)
    if len(codes):
        vocab = len(dictionary)
        bank_hits = np.stack([
            pc.is_in(dictionary,
                     value_set=pa.array(list(banks[lang]), pa.string()))
            .to_numpy(zero_copy_only=False)
            for lang in lang_order])  # (n_banks, vocab)
        if n * vocab <= 2_000_000:
            # one unweighted 2-D histogram + a tiny matmul beats n_banks
            # weighted bincounts over every token (guard the n x vocab
            # temp on bandwidth-bound boxes)
            hist = np.bincount(tok_doc * vocab + codes,
                               minlength=n * vocab).reshape(n, vocab)
            counts = (hist @ bank_hits.T).T.astype(np.int64)
        else:
            for i in range(len(lang_order)):
                counts[i] = np.bincount(
                    tok_doc, weights=bank_hits[i][codes],
                    minlength=n).astype(np.int64)
    best = counts.max(axis=0)
    pred = np.array(lang_order, dtype=object)[counts.argmax(axis=0)]
    pred[best == 0] = "und"
    out = {f"sw_{lang}": counts[i] for i, lang in enumerate(lang_order)}
    out["lang_pred"] = pred
    out["stop_ratio"] = best / np.maximum(n_words, 1)
    return out


class TextStats:
    """Length / composition / repetition signals (C4 + Gopher style).

    Appends: n_chars_sig, n_words, mean_word_len, alpha_ratio,
    digit_ratio, symbol_ratio, bpe_token_count, rep_3gram_total/
    distinct/ratio; with ``langid=True`` also the LangId columns.

    The core runs on **Arrow compute kernels** (utf8_length /
    count_substring_regex / split_pattern_regex / dictionary_encode):
    tokens never materialize as Python strings — the flat token array,
    its lengths and its dictionary codes stay in C buffers, and the
    per-doc reductions are numpy bincounts. A batch is a ``pa.Table``
    (the zero-copy hot path) or a ``pd.DataFrame``; :func:`batch_text`
    and :func:`with_columns` read it and return the same container type.
    """

    def __init__(self, text_column: str = "text", langid: bool = False,
                 ppl_model: Optional[Dict] = None):
        self.text_column = text_column
        self.langid = langid
        # optional FUSED perplexity scoring: reuses this pass's token
        # codes instead of re-tokenizing the corpus in a separate stage
        # (identical results to stages/perplexity.PerplexityScorer —
        # same token stream, same summation order)
        self.ppl_token_index = None
        if ppl_model is not None:
            self.ppl_oov_logp = float(ppl_model["oov_logp"])
            self.ppl_token_index = {t: i for i, t in
                                    enumerate(ppl_model["logp"])}
            self.ppl_logp = np.fromiter(ppl_model["logp"].values(),
                                        dtype=np.float64,
                                        count=len(ppl_model["logp"]))

    def _core(self, text: "pa.Array") -> Dict[str, np.ndarray]:
        import pyarrow.compute as pc
        n = len(text)
        out: Dict[str, np.ndarray] = {}
        n_chars = pc.utf8_length(text).to_numpy().astype(np.int64)

        # ---- byte-level counting over the raw utf-8 buffer -----------
        # \s / \S+ / [0-9] / [A-Za-z] are ASCII classes in RE2's default
        # mode (and in the DuckDB oracle), so classifying BYTES is exact:
        # utf-8 continuation bytes are >= 0x80 and never match. One LUT
        # pass replaces three full regex scans (the round-1 hot spot).
        obuf, ooff = _buffer_view(text)
        olens = np.diff(ooff)
        # class masks as in-place SIMD compare chains (a 256-entry LUT
        # gather measured ~2x SLOWER than range compares here — numpy
        # fancy-index gathers don't vectorize)
        ws = (obuf >= 9) & (obuf <= 13)
        np.bitwise_or(ws, obuf == 32, out=ws)
        digit = obuf >= 48
        np.logical_and(digit, obuf <= 57, out=digit)
        o20 = obuf | np.uint8(0x20)   # ASCII case-fold: [A-Za-z]->[a-z]
        alpha = o20 >= 97
        np.logical_and(alpha, o20 <= 122, out=alpha)
        del o20
        n_space = _seg_counts(ws, ooff)
        n_digit = _seg_counts(digit, ooff)
        n_alpha = _seg_counts(alpha, ooff)
        total_b = len(obuf)
        n_words = np.zeros(n, dtype=np.int64)
        if total_b:
            # a word (\S+ run) starts at a non-ws byte preceded by ws or
            # by a document boundary: one aligned shifted compare
            # (ws[i-1] > ws[i] <=> ws-to-non-ws edge), then overwrite
            # the n document-start positions — no full-buffer first/
            # prev_ws temporaries
            wstart = np.empty(total_b, dtype=bool)
            wstart[0] = ~ws[0]
            np.greater(ws[:-1], ws[1:], out=wstart[1:])
            sd = ooff[:-1][olens > 0]
            wstart[sd] = ~ws[sd]
            n_words = _seg_counts(wstart, ooff)

        # ---- tokens: maximal [a-z] byte runs of the lowercased text --
        # (identical to split_pattern_regex(lower, '[^a-z]+') minus the
        # empty strings, without the regex scan; counts run on the
        # ORIGINAL buffer above so unicode case folding that changes
        # byte lengths cannot skew them)
        # share this pass's buffer view + LUT masks with the tokenizer
        # (one scan instead of two on the ASCII fast path)
        codes, dictionary, tok_doc, n_tokens = arrow_token_codes(
            text, _pre=(obuf, ooff, alpha, digit))
        total = np.zeros(n, dtype=np.int64)
        distinct = np.zeros(n, dtype=np.int64)
        if len(codes):
            total, distinct = _rep_3gram_counts(codes, dictionary,
                                                tok_doc, n)

        n_nonspace = n_chars - n_space
        safe_chars = np.maximum(n_chars, 1)
        safe_words = np.maximum(n_words, 1)
        n_symbol = n_chars - n_alpha - n_digit - n_space

        out["n_chars_sig"] = n_chars
        out["n_words"] = n_words
        out["mean_word_len"] = n_nonspace / safe_words
        out["alpha_ratio"] = n_alpha / safe_chars
        out["digit_ratio"] = n_digit / safe_chars
        out["symbol_ratio"] = n_symbol / safe_chars
        # BPE-ish tokens = letter runs + single digits + single symbols —
        # arithmetic identity with the alternation regex, no extra scan
        out["bpe_token_count"] = n_tokens + n_digit + n_symbol
        has = total > 0
        ratio = np.zeros(n, dtype=np.float64)
        ratio[has] = 1.0 - distinct[has] / total[has]
        out["rep_3gram_total"] = total
        out["rep_3gram_distinct"] = distinct
        out["rep_3gram_ratio"] = ratio
        if self.langid:
            out.update(stopword_columns(codes, dictionary, tok_doc,
                                        n_words, STOPWORDS, LANG_ORDER))
        if self.ppl_token_index is not None:
            log_ppl = np.zeros(n, dtype=np.float64)
            oov = np.zeros(n, dtype=np.int64)
            if len(codes):
                uniq_idx = np.array(
                    [self.ppl_token_index.get(t, -1)
                     for t in dictionary.to_pylist()], dtype=np.int64)
                tok_logp = np.where(
                    uniq_idx >= 0,
                    self.ppl_logp[np.maximum(uniq_idx, 0)],
                    self.ppl_oov_logp)[codes]
                sum_lp = np.bincount(tok_doc, weights=tok_logp,
                                     minlength=n)
                # + 0.0 canonicalizes -0.0 for empty docs (see
                # PerplexityScorer._score)
                log_ppl = -sum_lp / np.maximum(n_tokens, 1) + 0.0
                oov = np.bincount(tok_doc,
                                  weights=(uniq_idx < 0)[codes],
                                  minlength=n).astype(np.int64)
            out["log_ppl"] = log_ppl
            out["ppl_tokens"] = n_tokens
            out["oov_count"] = oov
        return out

    def __call__(self, batch):
        return with_columns(batch,
                            self._core(batch_text(batch, self.text_column)))


def _rep_3gram_counts(codes: np.ndarray, dictionary, doc_id: np.ndarray,
                      n: int):
    """(total 3-grams, distinct 3-grams) per doc — integer-exact, so the
    SQL oracle can reproduce them bit-for-bit."""
    total = np.zeros(n, dtype=np.int64)
    distinct = np.zeros(n, dtype=np.int64)
    m = len(codes)
    if m < 3:
        return total, distinct
    vocab = len(dictionary)
    same_doc = doc_id[:-2] == doc_id[2:]
    g_doc = doc_id[:-2][same_doc]
    total = np.bincount(g_doc, minlength=n).astype(np.int64)

    bits_v = max(int(vocab - 1).bit_length(), 1)
    bits_d = max(int(n - 1).bit_length(), 1)
    if 3 * bits_v + bits_d <= 63:
        # pack (doc, w0, w1, w2) into ONE int64 — a single-key np.sort is
        # several times faster than a two-key lexsort. Built with
        # in-place buffered ufuncs: ONE int64 allocation instead of the
        # five full-width temps of the expression form (this function is
        # allocation-traffic-bound, not compute-bound)
        key = codes[:-2].astype(np.int64)
        np.left_shift(key, bits_v, out=key)
        np.bitwise_or(key, codes[1:-1], out=key)
        np.left_shift(key, bits_v, out=key)
        np.bitwise_or(key, codes[2:], out=key)
        np.bitwise_or(key, doc_id[:-2].astype(np.int64)
                      << np.int64(3 * bits_v), out=key)
        packed = key[same_doc]
        if not len(packed):
            return total, distinct
        packed.sort()
        new = np.empty(len(packed), dtype=bool)
        new[0] = True
        np.not_equal(packed[1:], packed[:-1], out=new[1:])
        distinct = np.bincount(packed[new] >> np.int64(3 * bits_v),
                               minlength=n).astype(np.int64)
        return total, distinct

    # slow-branch temps (the fast branch above never builds these)
    c0 = codes[:-2].astype(np.int64)
    c1 = codes[1:-1].astype(np.int64)
    c2 = codes[2:].astype(np.int64)
    g_doc = g_doc.astype(np.int64)
    if vocab >= (1 << 21):
        raise ValueError("batch vocabulary too large for 3-gram packing; "
                         "lower batch_size")
    g_key = ((c0 << 42) | (c1 << 21) | c2)[same_doc]
    # distinct (doc, key) pairs via lexsort + boundary detection
    # (np.unique(..., axis=0) is orders of magnitude slower)
    order = np.lexsort((g_key, g_doc))
    sd, sk = g_doc[order], g_key[order]
    new = np.ones(len(sd), dtype=bool)
    new[1:] = (sd[1:] != sd[:-1]) | (sk[1:] != sk[:-1])
    distinct = np.bincount(sd[new], minlength=n).astype(np.int64)
    return total, distinct


class RepetitionSignals:
    """Gopher-style intra-document repetition signals (line-level +
    top-bigram coverage; the 3-gram duplication ratio lives in
    TextStats' ``rep_3gram_*``).

    Appends per document:

    * ``n_lines`` — nonempty lines after trimming " \\t\\r";
    * ``dup_line_frac`` — ``1 - distinct_lines / n_lines`` (fraction of
      line OCCURRENCES that repeat an earlier identical line);
    * ``dup_line_char_frac`` — characters inside repeated occurrences
      (beyond each line's first) over all nonempty-line characters;
    * ``top_2gram_char_frac`` — max over word bigrams of
      ``count * (len(w0) + len(w1))`` divided by total token characters.
      Defined as the MAX COVERAGE (not "chars of the most frequent
      bigram") so count ties need no tie-break — deterministic, and
      exactly reproducible in SQL;
    * ``repetitive`` — any of the Gopher-flavored cuts trips:
      dup_line_frac > 0.30, dup_line_char_frac > 0.30, or
      top_2gram_char_frac > 0.18.

    Every numerator/denominator is an exact integer and each fraction is
    ONE correctly-rounded float division, so the DuckDB twin
    (pipelines/queries.SQL_REPETITION_DOCS) matches bit-for-bit. Fully
    vectorized: Arrow split/trim/dictionary_encode for lines, the shared
    packed-run tokenizer for bigrams — no Python loop over rows.
    """

    def __init__(self, text_column: str = "text"):
        self.text_column = text_column

    def _core(self, text) -> Dict[str, np.ndarray]:
        import pyarrow as pa
        import pyarrow.compute as pc
        n = len(text)

        # ---------------- lines
        n_lines = np.zeros(n, dtype=np.int64)
        distinct_lines = np.zeros(n, dtype=np.int64)
        extra_chars = np.zeros(n, dtype=np.int64)
        tot_chars = np.zeros(n, dtype=np.int64)
        lst = pc.split_pattern(text, "\n")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        counts = pc.list_value_length(lst).to_numpy() \
            .astype(np.int64, copy=False)
        line_doc = np.repeat(np.arange(n, dtype=np.int64), counts)
        flat = pc.list_flatten(lst)
        trimmed = pc.utf8_trim(flat, " \t\r")
        llen = pc.utf8_length(trimmed).to_numpy().astype(np.int64,
                                                         copy=False)
        keep = llen > 0
        if keep.any():
            line_doc = line_doc[keep]
            llen = llen[keep]
            enc = pc.dictionary_encode(pc.filter(trimmed,
                                                 pa.array(keep)))
            codes = enc.indices.to_numpy().astype(np.int64, copy=False)
            n_lines = np.bincount(line_doc, minlength=n)
            tot_chars = np.bincount(line_doc, weights=llen,
                                    minlength=n).astype(np.int64)
            # distinct (doc, line) via single-key sort on packed int64
            bits = max(int(len(enc.dictionary) - 1).bit_length(), 1)
            order = np.argsort((line_doc << bits) | codes)
            packed = ((line_doc << bits) | codes)[order]
            new = np.ones(len(packed), dtype=bool)
            new[1:] = packed[1:] != packed[:-1]
            uniq = packed[new]
            distinct_lines = np.bincount(uniq >> bits, minlength=n)
            # chars beyond each distinct line's first occurrence
            dist_chars = np.bincount(
                uniq >> bits, weights=llen[order][new],
                minlength=n).astype(np.int64)
            extra_chars = tot_chars - dist_chars

        # ---------------- top-bigram coverage
        max_cov = np.zeros(n, dtype=np.int64)
        tok_chars = np.zeros(n, dtype=np.int64)
        codes_t, dictionary, tok_doc, _ = arrow_token_codes(text)
        if dictionary is not None and len(codes_t):
            wlen = pc.utf8_length(dictionary).to_numpy() \
                .astype(np.int64, copy=False)
            tok_chars = np.bincount(tok_doc, weights=wlen[codes_t],
                                    minlength=n).astype(np.int64)
            if len(codes_t) >= 2:
                same = tok_doc[:-1] == tok_doc[1:]
                if same.any():
                    c0 = codes_t[:-1][same].astype(np.int64)
                    c1 = codes_t[1:][same].astype(np.int64)
                    d = tok_doc[:-1][same].astype(np.int64)
                    bits_v = max(int(len(dictionary) - 1).bit_length(),
                                 1)
                    packed = np.sort(
                        ((d << bits_v) | c0) << bits_v | c1)
                    new = np.ones(len(packed), dtype=bool)
                    new[1:] = packed[1:] != packed[:-1]
                    starts = np.flatnonzero(new)
                    rc = np.diff(np.append(starts, len(packed)))
                    rb = packed[starts]
                    mask = np.int64((1 << bits_v) - 1)
                    cov = rc * (wlen[rb & mask]
                                + wlen[(rb >> bits_v) & mask])
                    rd = rb >> np.int64(2 * bits_v)
                    doc_new = np.ones(len(rd), dtype=bool)
                    doc_new[1:] = rd[1:] != rd[:-1]
                    doc_starts = np.flatnonzero(doc_new)
                    max_cov[rd[doc_starts]] = np.maximum.reduceat(
                        cov, doc_starts)

        dlf = np.zeros(n, dtype=np.float64)
        has = n_lines > 0
        dlf[has] = 1.0 - distinct_lines[has] / n_lines[has]
        dlcf = np.zeros(n, dtype=np.float64)
        hc = tot_chars > 0
        dlcf[hc] = extra_chars[hc] / tot_chars[hc]
        t2g = np.zeros(n, dtype=np.float64)
        ht = tok_chars > 0
        t2g[ht] = max_cov[ht] / tok_chars[ht]
        return {
            "n_lines": n_lines,
            "dup_line_frac": dlf,
            "dup_line_char_frac": dlcf,
            "top_2gram_char_frac": t2g,
            "repetitive": (dlf > 0.30) | (dlcf > 0.30) | (t2g > 0.18),
        }

    def __call__(self, batch):
        return with_columns(batch,
                            self._core(batch_text(batch, self.text_column)))


def load_fasttext_wordlists(path: str):
    """Parse a fastText-supervised-style wordlist artifact: each line
    ``__label__<lang> <word> [word ...]`` contributes its words to that
    language's bank. Returns (lang_order, banks) where lang_order is
    label order of first appearance. This is the engine's external
    language-model seam — the same ``__init__``-time load a real
    ``fasttext.load_model`` would do, exercised by
    tests/test_model_seams.py without the fasttext dependency."""
    order: List[str] = []
    words: Dict[str, list] = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts or not parts[0].startswith("__label__"):
                continue
            lang = parts[0][len("__label__"):]
            if lang not in words:
                words[lang] = []
                order.append(lang)
            words[lang].extend(w.lower() for w in parts[1:])
    banks = {lang: np.array(sorted(set(ws)), dtype=object)
             for lang, ws in words.items()}
    return order, banks


class LangId:
    """Stopword-bank language identifier.

    Counts stopword-bank hits over ``[A-Za-z]+`` tokens of the lowercased
    text with the same tokenizer and counter as ``TextStats(langid=True)``
    (:func:`arrow_token_codes` + :func:`stopword_columns`), then appends
    ``sw_<lang>``, ``lang_pred`` (argmax over the bank order; 'und' when
    no bank scores > 0) and ``stop_ratio`` (winning bank's hits /
    n_words: the batch's ``n_words`` column when a ``TextStats`` ran
    before, else the count of :data:`UNICODE_WORD_RE` runs). The
    production analog is a fastText model in the same actor-pool shape —
    see ``ft_model_path``.
    """

    def __init__(self, text_column: str = "text",
                 bank_path: str | None = None,
                 ft_model_path: str | None = None):
        """``bank_path`` is the real-model seam: a fastText-style
        supervised wordlist (lines of ``__label__<lang> <word>
        [word ...]``) loaded ONCE per actor — exactly where a fastText
        ``model.bin`` would load; with it unset the built-in stopword
        banks apply. Label order of first appearance defines the
        argmax tie-break order (the file owns its own contract).

        ``ft_model_path`` loads an ACTUAL fastText supervised model
        (``.bin``/``.ftz``) through the ``fasttext`` library, once per
        actor. Prediction then routes through ``model.predict`` on the
        whole batch (fastText's own batched C++ path) and the output
        carries ``lang_pred`` (label with ``__label__`` stripped) and
        ``stop_ratio`` = the model's top-label probability (the
        confidence analog of the heuristic path's hit ratio); the
        per-language ``sw_*`` count columns only exist in heuristic
        mode. Raises a clear RuntimeError when the library is absent
        (this container does not ship it — see
        tests/test_model_seams.py, which skips accordingly)."""
        self.text_column = text_column
        self.ft = None
        if ft_model_path is not None:
            try:
                import fasttext
            except ImportError as e:
                raise RuntimeError(
                    "ft_model_path requires the 'fasttext' package "
                    "(pip install fasttext-wheel); use bank_path for "
                    "the dependency-free wordlist seam") from e
            self.ft = fasttext.load_model(ft_model_path)
            return
        if bank_path is not None:
            self.lang_order, self.banks = load_fasttext_wordlists(
                bank_path)
        else:
            self.lang_order, self.banks = LANG_ORDER, STOPWORDS

    def __call__(self, batch):
        import pyarrow.compute as pc
        text = batch_text(batch, self.text_column)
        if self.ft is not None:
            # real fastText path: one batched predict call; fastText
            # rejects newlines in input, so flatten them first
            clean = [t.replace("\n", " ") for t in text.to_pylist()]
            labels, probs = self.ft.predict(clean)
            return with_columns(batch, {
                "lang_pred": np.array(
                    [(l[0][len("__label__"):] if l else "und")
                     for l in labels], dtype=object),
                "stop_ratio": np.array(
                    [(p[0] if len(p) else 0.0) for p in probs],
                    dtype=np.float64)})
        try:
            n_words = np.asarray(batch["n_words"], dtype=np.int64)
        except KeyError:
            n_words = pc.count_substring_regex(text, UNICODE_WORD_RE) \
                .to_numpy().astype(np.int64)
        codes, dictionary, tok_doc, _ = arrow_token_codes(text)
        return with_columns(batch, stopword_columns(
            codes, dictionary, tok_doc, n_words, self.banks,
            self.lang_order))


class Fingerprint:
    """Document fingerprints.

    * ``fingerprint_md5`` — md5 hex of whitespace-normalized lowercased
      text (exact-dup key; identical to DuckDB
      ``md5(lower(regexp_replace(text,'\\s+',' ','g')))``).
    * ``fingerprint_winnow`` — min rolling-5-gram hash (winnowing-style
      content fingerprint; no SQL analog, rows-only check); a document
      under 5 normalized characters takes the first 8 md5 bytes
      (big-endian) instead.
    """

    def __init__(self, text_column: str = "text"):
        self.text_column = text_column

    def __call__(self, batch):
        import pyarrow as pa
        import pyarrow.compute as pc
        from nacc_form_validator_ray.stages.dedup import (
            md5_digests, md5_hex, normalize_ws_arrow)
        sarr = normalize_ws_arrow(batch_text(batch, self.text_column))
        # winnow: min 64-bit hash over character 5-grams, computed over
        # ONE concatenated utf-8 buffer for the whole batch (the Arrow
        # string array IS that buffer) — windows crossing document
        # boundaries are masked out, per-doc minima are one reduceat.
        n = len(sarr)
        winnow = np.zeros(n, dtype=np.uint64)
        buf, starts = _buffer_view(sarr)
        char_lens = pc.utf8_length(sarr).to_numpy(
            zero_copy_only=False).astype(np.int64)
        long_docs = char_lens >= 5
        if long_docs.any():
            arr = buf.astype(np.uint64)
            h = (arr[:-4] * np.uint64(2654435761) ^
                 arr[1:-3] * np.uint64(40503) ^
                 arr[2:-2] * np.uint64(69069) ^
                 arr[3:-1] * np.uint64(123457) ^
                 arr[4:])
            byte_lens = np.diff(starts)
            own = np.repeat(np.arange(n, dtype=np.int64), byte_lens)
            valid = (own[:-4] == own[4:]) & long_docs[own[:-4]]
            h[~valid] = np.uint64(0xFFFFFFFFFFFFFFFF)
            red_starts = np.minimum(starts[:-1][long_docs],
                                    len(h) - 1)
            winnow[long_docs] = np.minimum.reduceat(h, red_starts)
        if not long_docs.all():
            winnow[~long_docs] = md5_digests(
                sarr.filter(pa.array(~long_docs))).view(">u8")[:, 0]
        return with_columns(batch, {"fingerprint_md5": md5_hex(sarr),
                                    "fingerprint_winnow": winnow})


def chunk_documents(ds, chunk_tokens: int = 256, stride: int = 192,
                    id_column: str = "doc_id",
                    text_column: str = "text"):
    """Token-window chunking (the embedding/RAG ingestion step): each
    document becomes overlapping windows of ``chunk_tokens`` tokens
    advancing by ``stride``; the emitted ``chunk_text`` is the window's
    tokens joined by single spaces (the tokenizer's view of the text,
    which is what an embedding model consumes — and what makes the
    DuckDB twin exact: array_to_string(list_slice(...), ' ')).

    One stateless flat-map shape: per batch the shared byte-run
    tokenizer yields the packed token buffer, window emission is
    numpy repeats, and chunk texts are rebuilt with ONE packed-buffer
    gather (single-space separators) — no Python loop over chunks.
    Output: (id, chunk_id, start_tok, n_tok, chunk_text).
    """
    import pyarrow as pa

    C, S = int(chunk_tokens), int(stride)
    if S <= 0 or C <= 0:
        raise ValueError("chunk_tokens and stride must be positive")

    def chunks(batch: pa.Table) -> dict:
        col = batch[text_column]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        flat_tok, tok_doc, n_tokens = arrow_token_runs(arr)
        ids = np.asarray(batch[id_column]).astype(np.int64)
        empty = {id_column: np.empty(0, dtype=np.int64),
                 "chunk_id": np.empty(0, dtype=np.int64),
                 "start_tok": np.empty(0, dtype=np.int64),
                 "n_tok": np.empty(0, dtype=np.int64),
                 "chunk_text": pa.array([], type=pa.string())}
        if flat_tok is None:
            return empty
        # first token index of each doc in the flat array
        doc_tok0 = np.zeros(len(ids), dtype=np.int64)
        doc_tok0[1:] = np.cumsum(n_tokens)[:-1]
        n = n_tokens
        n_chunks = np.where(
            n > 0, np.maximum((n - C + S - 1) // S, 0) + 1, 0)
        if not n_chunks.sum():
            return empty
        doc_idx = np.repeat(np.arange(len(ids)), n_chunks)
        local = np.arange(len(doc_idx), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(n_chunks)[:-1])), n_chunks)
        start = local * S
        end = np.minimum(start + C, n[doc_idx])
        # gather: token byte ranges + single-space separators
        off = np.frombuffer(flat_tok.buffers()[1], dtype=np.int32)[
            flat_tok.offset:flat_tok.offset + len(flat_tok) + 1] \
            .astype(np.int64)
        tbuf = np.frombuffer(flat_tok.buffers()[2], dtype=np.uint8)
        tok_lens = np.diff(off)
        g_first = doc_tok0[doc_idx] + start     # global tok range
        g_end = doc_tok0[doc_idx] + end
        n_tok = end - start
        # chunk byte length = sum(token lens) + (n_tok - 1) separators
        tok_cum = np.zeros(len(off), dtype=np.int64)
        tok_cum[1:] = np.cumsum(tok_lens)
        chunk_bytes = tok_cum[g_end] - tok_cum[g_first] + n_tok - 1
        out_off = np.zeros(len(doc_idx) + 1, dtype=np.int64)
        np.cumsum(chunk_bytes, out=out_off[1:])
        out = np.empty(int(out_off[-1]), dtype=np.uint8)
        # per-token destination: chunk base + (token cum within chunk)
        # + one separator per preceding token in the chunk
        tok_of_chunk = np.repeat(np.arange(len(doc_idx)), n_tok)
        tok_global = np.arange(len(tok_of_chunk), dtype=np.int64) \
            - np.repeat(np.concatenate(([0], np.cumsum(n_tok)[:-1])),
                        n_tok) + g_first[tok_of_chunk]
        in_chunk_pos = tok_cum[tok_global] \
            - tok_cum[g_first[tok_of_chunk]] \
            + (tok_global - g_first[tok_of_chunk])
        dst0 = out_off[:-1][tok_of_chunk] + in_chunk_pos
        # write separators (before every non-first token)
        not_first = tok_global > g_first[tok_of_chunk]
        out[(dst0 - 1)[not_first]] = 32  # b' '
        m = int(tok_lens[tok_global].sum())
        lens_g = tok_lens[tok_global]
        dst = np.arange(m, dtype=np.int64) + np.repeat(
            dst0 - np.concatenate(([0], np.cumsum(lens_g)[:-1])),
            lens_g)
        src = np.arange(m, dtype=np.int64) + np.repeat(
            off[:-1][tok_global]
            - np.concatenate(([0], np.cumsum(lens_g)[:-1])), lens_g)
        out[dst] = tbuf[src]
        chunk_text = pa.Array.from_buffers(
            pa.utf8(), len(doc_idx),
            [None, pa.py_buffer(out_off.astype(np.int32)),
             pa.py_buffer(out)])
        return {id_column: ids[doc_idx],
                "chunk_id": local,
                "start_tok": start,
                "n_tok": n_tok,
                "chunk_text": chunk_text}

    return ds.map_batches(chunks, batch_format="pyarrow")


def flesch_scores(ds, id_column: str = "doc_id",
                  text_column: str = "text"):
    """Exact Flesch reading-ease per document (see
    pipelines/mining.q_flesch_pages for the oracle contract): word /
    sentence / vowel-group counts are three RE2 kernels over the Arrow
    column; the score clears denominators into an exact int64
    ``flesch_num`` with ONE terminal double division. Zero-word or
    zero-sentence docs pin flesch = 0.0."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def score(t: "pa.Table") -> "pa.Table":
        txt = pc.fill_null(t[text_column], "")
        w = pc.count_substring_regex(txt, "[A-Za-z]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        s = pc.count_substring_regex(txt, "[.!?]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        y = pc.count_substring_regex(txt, "[AEIOUYaeiouy]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        num = 206835 * s * w - 1015 * w * w - 84600 * y * s
        den = 1000 * s * w
        ok = den > 0
        flesch = np.zeros(len(w), dtype=np.float64)
        flesch[ok] = num[ok].astype(np.float64) \
            / den[ok].astype(np.float64)
        return pa.table({
            id_column: t[id_column],
            "n_words": pa.array(w, pa.int64()),
            "n_sents": pa.array(s, pa.int64()),
            "n_syll": pa.array(y, pa.int64()),
            "flesch_num": pa.array(num, pa.int64()),
            "flesch": pa.array(flesch, pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")
