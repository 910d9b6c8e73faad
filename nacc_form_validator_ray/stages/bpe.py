"""Distributed BPE tokenizer training (Sennrich et al., 2016: "Neural
Machine Translation of Rare Words with Subword Units").

The corpus-scale work — counting word types — is ONE distributed
exchange of per-batch token-count partials. The merge loop then runs on
the word-FREQUENCY table, which is vocabulary-bounded (the same bounded
side this engine already pulls for the unigram perplexity model and the
PMI vocabulary): every real-world BPE trainer performs the merge loop
on the word-count dictionary, not the raw corpus, so this is the honest
100-TB shape — the corpus is streamed exactly once.

Merge semantics are REFERENCE-EXACT (Sennrich 2016 ``merge_vocab``):
each learned pair is applied to the SYMBOL LIST of every word with
greedy non-overlapping left-to-right matching. Round 3 shipped merges
as raw substring replace over dot-delimited strings, which (a) let the
pattern ``.a.b`` also match ``.a.bc`` once one symbol was a proper
prefix of another, and (b) even with a terminating delimiter consumed
the dot between delimiter-adjacent occurrences (``aaaa`` under-merged
to ``[aa, a, a]`` instead of ``[aa, aa]``). Both are gone: merges now
run on factorized symbol-code arrays with vectorized candidate
detection plus run-parity overlap resolution (within a maximal run of
consecutive candidate positions, greedy left-to-right keeps offsets
0, 2, 4, ...), which is exactly the reference's regex pass.

Exactness contract with the DuckDB twin
(``pipelines/queries._bpe_cte_chain``): the twin applies each merge
with the same candidate + run-parity rule via window functions over
unnested symbol rows. Pair selection is (count DESC, pattern ASC) —
byte-wise order of the dotted pattern ``.a.b.`` on both sides. Merge
rules are reported in the dotted form (``pair='.a.b.'``,
``merged='.ab.'``); no end-of-WORD marker symbol (documented
simplification; adding one is a representation change on both sides).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def word_counts(ds, text_column: str = "text",
                num_partitions: int = 32):
    """Distributed word-type frequency table: per-batch unigram count
    partials (``text_signals.ngram_counts`` over the batch's token
    codes; a null text has no words) merged by ONE grouped-sum
    exchange. Returns a Dataset of (word, cnt)."""
    from nacc_form_validator_ray.stages.partition import grouped_agg_sum
    from nacc_form_validator_ray.stages.text_signals import (
        arrow_token_codes, batch_text, ngram_counts)

    def partials(batch):
        return ngram_counts(arrow_token_codes(
            batch_text(batch, text_column))).rename_columns(
                ["word", "cnt"])

    return grouped_agg_sum(ds.map_batches(partials,
                                          batch_format="pyarrow"),
                           ["word"], ["cnt"],
                           num_partitions=num_partitions)


def _symbolize(words) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Initial symbol state of a word list: ``(flat_codes, owner,
    symbols)`` where each word is its character sequence, characters
    are factorized to int32 codes and ``symbols[code]`` is the symbol
    string. Vectorized off the packed Arrow buffer for ASCII words
    (the ``[a-z]+`` tokenizer guarantees ASCII)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = words if isinstance(words, pa.Array) \
        else pa.array(list(words), type=pa.string())
    n = len(arr)
    if n == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), [])
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(arr.buffers()[1], dtype=odt)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = arr.buffers()[2]
    buf = np.frombuffer(data, dtype=np.uint8)[off[0]:off[-1]] \
        if data is not None else np.empty(0, dtype=np.uint8)
    lens = np.diff(off)
    owner = np.repeat(np.arange(n, dtype=np.int64), lens)
    uniq, codes = np.unique(buf, return_inverse=True)
    symbols = [chr(b) for b in uniq]
    return codes.astype(np.int64), owner, symbols


def _greedy_keep(cand: np.ndarray) -> np.ndarray:
    """Indices where a candidate pair actually merges, under greedy
    non-overlapping left-to-right semantics: within each maximal run
    of consecutive candidate positions, offsets 0, 2, 4, ... merge
    (a candidate one step after a merge is consumed by it)."""
    c = np.flatnonzero(cand)
    if not len(c):
        return c
    run_start = np.ones(len(c), dtype=bool)
    run_start[1:] = c[1:] != c[:-1] + 1
    starts = np.flatnonzero(run_start)
    pos_in_run = np.arange(len(c), dtype=np.int64) - np.repeat(
        starts, np.diff(np.append(starts, len(c))))
    return c[pos_in_run % 2 == 0]


def _apply_merge(flat: np.ndarray, owner: np.ndarray,
                 a: int, b: int, new_code: int):
    """One reference-exact merge pass over the flat symbol arrays:
    candidates are adjacent (a, b) within a word; overlaps resolve by
    run parity; merged positions take ``new_code`` and the consumed
    right element is spliced out. Returns (flat, owner, n_merged)."""
    if len(flat) < 2:
        return flat, owner, 0
    cand = np.zeros(len(flat), dtype=bool)
    cand[:-1] = (flat[:-1] == a) & (flat[1:] == b) \
        & (owner[:-1] == owner[1:])
    keep = _greedy_keep(cand)
    if not len(keep):
        return flat, owner, 0
    flat = flat.copy()
    flat[keep] = new_code
    mask = np.ones(len(flat), dtype=bool)
    mask[keep + 1] = False
    return flat[mask], owner[mask], len(keep)


def _pair_stats(flat: np.ndarray, owner: np.ndarray,
                weights: np.ndarray):
    """Weighted counts of adjacent symbol-code pairs: returns
    ``(a_codes, b_codes, counts)`` over distinct pairs. ``weights`` is
    the per-WORD count, gathered per position."""
    if len(flat) < 2:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    same = owner[:-1] == owner[1:]
    a = flat[:-1][same]
    b = flat[1:][same]
    w = weights[owner[:-1][same]]
    # factorize the pair key (codes are < n_symbols, always < 2^31)
    key = a * (flat.max() + 1) + b
    uniq, inv = np.unique(key, return_inverse=True)
    counts = np.bincount(inv, weights=w).astype(np.int64)
    ua = uniq // (flat.max() + 1)
    ub = uniq % (flat.max() + 1)
    return ua, ub, counts


def bpe_merges(ds, text_column: str = "text", n_merges: int = 10,
               num_partitions: int = 32):
    """Learn ``n_merges`` BPE merge rules over the corpus.

    Returns a Dataset with ``rank`` (1-based merge order), ``pair``
    (the dotted pattern ``.a.b.``), ``merged`` (``.ab.``) and ``c``
    (the weighted pair count at selection time).

    Scale shape: one corpus exchange (word counts); the merge loop runs
    driver-side on the vocabulary-bounded frequency table with
    vectorized pair counting and reference-exact list merges — the
    same bounded-state pattern as the perplexity unigram model and
    k-means centroids.
    """
    import pyarrow as pa
    import ray.data as rd

    vocab = word_counts(ds, text_column=text_column,
                        num_partitions=num_partitions)
    words, cnts = [], []
    for b in vocab.iter_batches(batch_format="pyarrow",
                                batch_size=65536):
        words.append(b["word"].combine_chunks()
                     if isinstance(b["word"], pa.ChunkedArray)
                     else b["word"])
        cnts.append(b["cnt"].to_numpy(zero_copy_only=False))
    empty = pa.table({"rank": pa.array([], pa.int64()),
                      "pair": pa.array([], pa.string()),
                      "merged": pa.array([], pa.string()),
                      "c": pa.array([], pa.int64())})
    if not words:
        return rd.from_arrow(empty)
    wordarr = pa.concat_arrays(words)
    cnt = np.concatenate(cnts).astype(np.int64)
    flat, owner, symbols = _symbolize(wordarr)

    out_rank, out_pair, out_merged, out_c = [], [], [], []
    for k in range(1, n_merges + 1):
        ua, ub, counts = _pair_stats(flat, owner, cnt)
        if not len(counts):
            break
        cmax = counts.max()
        tied = np.flatnonzero(counts == cmax)
        # tie-break: smallest dotted pattern '.a.b.' byte-wise — the
        # convention the SQL twin sorts by
        pats = [f".{symbols[ua[i]]}.{symbols[ub[i]]}." for i in tied]
        j = tied[int(np.argmin(np.array(pats, dtype=object)))]
        a, b = int(ua[j]), int(ub[j])
        merged_sym = symbols[a] + symbols[b]
        symbols.append(merged_sym)
        flat, owner, _ = _apply_merge(flat, owner, a, b,
                                      len(symbols) - 1)
        out_rank.append(k)
        out_pair.append(f".{symbols[a]}.{symbols[b]}.")
        out_merged.append(f".{merged_sym}.")
        out_c.append(int(cmax))
    return rd.from_arrow(pa.table({
        "rank": pa.array(np.array(out_rank, dtype=np.int64)),
        "pair": pa.array(out_pair, pa.string()),
        "merged": pa.array(out_merged, pa.string()),
        "c": pa.array(np.array(out_c, dtype=np.int64)),
    }))


def bpe_encode(ds, merges, id_column: str = "doc_id",
               text_column: str = "text", passthrough=None):
    """Apply learned BPE merges to the corpus and report per-document
    subword statistics: ``n_words`` ([a-z]+ tokens), ``n_chars``
    (alphabetic characters) and ``n_subwords`` (symbols after applying
    ``merges`` in rank order, reference-exact list semantics).

    ``merges`` is the (pair, merged) list from :func:`bpe_merges`
    (broadcast-sized: one small list of dotted patterns).
    ``passthrough`` names extra input columns to carry into the output
    (row-aligned — e.g. ``["source"]`` for per-source fertility
    rollups). Scale shape:
    map-only — merges are applied to each batch's word DICTIONARY
    (unique words), not to every token occurrence, so the merge cost is
    vocabulary-bounded per batch; per-token subword counts are gathered
    by dictionary code and summed per document with one bincount.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from nacc_form_validator_ray.stages.text_signals import \
        arrow_token_codes

    # '.a.b.' -> ('a', 'b'); tolerate rules without the trailing dot
    rules = [tuple(str(p).strip(".").split(".", 1)) for p, _ in merges]

    def encode(batch: "pa.Table") -> "pa.Table":
        text = batch[text_column]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n = batch.num_rows
        codes, dictionary, tok_doc, n_tokens = arrow_token_codes(text)
        extra = {c: batch[c] for c in (passthrough or [])}
        if dictionary is None:
            z = pa.array(np.zeros(n, dtype=np.int64))
            return pa.table({id_column: batch[id_column], **extra,
                             "n_words": z, "n_chars": z,
                             "n_subwords": z})
        flat, owner, symbols = _symbolize(dictionary)
        sym_code = {s: i for i, s in enumerate(symbols)}
        for a_str, b_str in rules:
            a = sym_code.get(a_str)
            b = sym_code.get(b_str)
            merged_sym = a_str + b_str
            if merged_sym not in sym_code:
                sym_code[merged_sym] = len(sym_code)
            if a is None or b is None:
                continue
            flat, owner, _ = _apply_merge(flat, owner, a, b,
                                          sym_code[merged_sym])
        sub_per_word = np.bincount(owner, minlength=len(dictionary)) \
            .astype(np.int64)
        chars_per_word = pc.utf8_length(dictionary).to_numpy() \
            .astype(np.int64, copy=False)
        n_sub = np.bincount(tok_doc, weights=sub_per_word[codes],
                            minlength=n).astype(np.int64)
        n_chr = np.bincount(tok_doc, weights=chars_per_word[codes],
                            minlength=n).astype(np.int64)
        return pa.table({
            id_column: batch[id_column], **extra,
            "n_words": pa.array(n_tokens.astype(np.int64)),
            "n_chars": pa.array(n_chr),
            "n_subwords": pa.array(n_sub),
        })

    return ds.map_batches(encode, batch_format="pyarrow")
