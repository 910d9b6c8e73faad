"""End-to-end pretraining-data pipeline: the full composition.

    pages ──extract──signals──rule-schema keep/drop──PII scrub──┐
        keep only passed docs                        01_clean   │
        exact dedup decision (LEAN id+hash exchange) ───────────┤
        MinHash+LSH near-dup decision (LEAN band exchange)      │
                                                     02_banned  │
        drop banned ids from the doc stream          03_docs ───┘

The composition is written once (``_compose``); each of its three
stages goes through a ``keep(name, build)`` policy.
``build_pretrain_pipeline`` pins the cleaned docs (they feed three
consumers) and stays lazy otherwise; ``run_pretrain`` writes every
stage through ``state/lineage.stage_checkpoint``, keyed by its inputs,
so a rerun resumes from the last completed stage and a changed input,
rule set or date rebuilds them all.

Payload discipline: document text NEVER rides a shuffle. Both dedup
decisions exchange only (id, key) projections, and the final drop
(stages/dedup.drop_banned) broadcasts the lean banned-id set — dup
lists are typically a few percent of the corpus — or, past
``BROADCAST_ID_LIMIT`` ids, runs a Bloom-prefiltered anti-join in which
definite non-duplicates never ride the exchange.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, Mapping, Optional

import numpy as np

from nacc_form_validator_ray.pipelines.quality_filter import (
    WEB_QUALITY_RULES, build_quality_pipeline, page_columns, read_pages)
from nacc_form_validator_ray.sources import readers
from nacc_form_validator_ray.stages.dedup import (drop_banned,
                                                  exact_dup_ids,
                                                  minhash_candidate_pairs,
                                                  pin_dataset)
from nacc_form_validator_ray.state.lineage import (input_key,
                                                   stage_checkpoint,
                                                   stage_rows)
from nacc_form_validator_ray.utils import Clock

#: stage names of the composition, in order (checkpoint dir names)
STAGES = ("01_clean", "02_banned", "03_docs")


def _keep_and_project(batch: "pa.Table") -> "pa.Table":
    """Quality-passed rows projected to the lean doc schema.

    ``doc_id`` hashes (url, warc_ts, text) — NOT url alone: recrawled
    pages share a url, and a url-only id made the exact-dedup ban list
    remove every copy of a duplicated url including the intended
    representative (round-1 ADVICE). Hashing the full identity keeps ids
    deterministic across runs/parallelism while distinct rows get
    distinct ids, so "ban non-minimum id per content hash" keeps exactly
    one representative.

    The id is the first 60 bits of md5 over the \\x1f-joined identity —
    derivable in SQL (md5 + hex fold), which is what lets the FULL
    pretrain composition carry a DuckDB oracle
    (pipelines/queries.sql_pretrain_pages). Each md5 is one C digest
    call (no padded-unicode batch copy — round-2 ADVICE); a 60-bit id
    space means a ~2^-60 pairwise collision rate, which at worst drops
    one extra doc — acceptable for a lossy dedup pipeline, documented
    here."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from nacc_form_validator_ray.stages.dedup import md5_prefix60

    kept = batch.filter(pc.fill_null(batch["passed"], False))
    url = pc.cast(kept["url"], pa.string())
    sc = pc.fill_null(kept["scrubbed_text"], "")
    if "warc_ts" in kept.column_names:
        # whole-second render, matching both str(pd.Timestamp) and
        # DuckDB's CAST(ts AS VARCHAR) on WARC-style timestamps (the
        # identity-key contract assumes whole seconds; sub-second
        # values never round-tripped across engines in any convention)
        # Arrow's %S appends fractional seconds on sub-second-unit
        # timestamps; cast to second resolution first so the render is
        # exactly 'YYYY-MM-DD HH:MM:SS'
        ts = pc.strftime(
            pc.cast(pc.floor_temporal(kept["warc_ts"], unit="second"),
                    pa.timestamp("s")),
            format="%Y-%m-%d %H:%M:%S")
        keys = pc.binary_join_element_wise(url, ts, sc, "\x1f")
    else:
        keys = pc.binary_join_element_wise(url, sc, "\x1f")
    return pa.table({
        "doc_id": pa.array(md5_prefix60(keys)),
        "url": kept["url"],
        "lang_pred": kept["lang_pred"],
        "text": sc,
        "n_words": pc.cast(kept["n_words"], pa.int64()),
    })


def _compose(pages_ds, rules, clock, extract, keep):
    """The composition, once. ``keep(name, build)`` returns the Dataset
    of stage ``name``, given ``build``, the zero-arg callable that
    computes it from the stages before."""
    docs = keep("01_clean", lambda: build_quality_pipeline(
        pages_ds, rules=rules, clock=clock, extract=extract,
        collect="none").map_batches(_keep_and_project,
                                    batch_format="pyarrow"))

    def banned():
        # dedup DECISIONS on lean projections (ids + hashes/signatures)
        near = minhash_candidate_pairs(docs, id_column="doc_id",
                                       text_column="text")
        return exact_dup_ids(docs, "doc_id", "text").union(
            near.map_batches(lambda b: {"doc_id": b["id_b"].to_numpy(
                zero_copy_only=False).astype(np.int64)},
                batch_format="pyarrow"))

    ban = keep("02_banned", banned)
    return keep("03_docs", lambda: drop_banned(docs, ban, on="doc_id"))


def build_pretrain_pipeline(pages_ds,
                            rules: Optional[Mapping[str, Any]] = None,
                            clock: Optional[Clock] = None,
                            extract: bool = True,
                            pin: str = "parquet",
                            pin_dir: str | None = None):
    """pages Dataset -> cleaned, deduplicated training documents.

    Returns a lazy Dataset of (doc_id, url, lang_pred, text=scrubbed
    text, n_words) — quality-passed, exact- and near-deduplicated.

    The cleaned docs feed THREE consumers (exact-dedup decision,
    near-dedup decision, final drop); ``pin``/``pin_dir`` keep them
    re-readable without re-running the quality pipeline per consumer
    (stages/dedup.pin_dataset): ``"parquet"`` (default) spills once and
    streams each pass from disk, safe at 100 TB; ``"memory"`` is the
    explicit ``materialize()`` opt-in. The final drop counts the lean
    ban list and broadcasts it up to ``BROADCAST_ID_LIMIT`` ids, else
    exchanges (stages/dedup.drop_banned).
    """
    def keep(name, build):
        return pin_dataset(build(), pin, pin_dir) if name == "01_clean" \
            else build()

    return _compose(pages_ds, rules, clock, extract, keep)


def run_pretrain(input_dir: str, out_dir: str,
                 rules: Optional[Mapping[str, Any]] = None,
                 clock: Optional[Clock] = None,
                 resume: bool = True) -> Dict[str, Any]:
    """Read parquet or JSONL page files, clean + dedup, write parquet.

    The input is read as ``run_quality_filter`` reads it; text dumps
    skip the extraction stage. Each stage of the composition — cleaned
    docs, banned ids, final docs — is written under ``out_dir``
    (``01_clean/``, ``02_banned/``, ``03_docs/``) by
    ``state/lineage.stage_checkpoint``, with a ``_DONE`` marker that
    holds the run's ``lineage.input_key`` (input files, rule schema,
    the clock's date) and the stage's row count. A rerun with
    ``resume=True`` reuses every stage whose marker matches and
    rebuilds the rest; ``resume=False`` rebuilds all three.
    ``n_output`` is the row count the final stage's write recorded.
    """
    clock = clock or Clock.frozen_now()
    rules = rules if rules is not None else WEB_QUALITY_RULES
    files, fmt = readers.data_files(input_dir, readers.PAGE_SUFFIXES)
    # rules read the clock only through ``today()``
    key = input_key(files, rules, clock.today())
    if not resume:
        for name in STAGES:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)

    columns = page_columns(files, fmt)
    pages = read_pages(files, fmt, columns)
    n_in = pages.count()
    _compose(pages, rules, clock, "html" in columns,
             lambda name, build: stage_checkpoint(build, out_dir, name, key))
    n_out = stage_rows(out_dir, "03_docs")
    return {"n_input": n_in, "n_output": n_out,
            "dropped": n_in - n_out,
            "output_dir": os.path.join(out_dir, "03_docs")}
