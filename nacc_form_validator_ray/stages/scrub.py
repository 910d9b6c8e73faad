"""Regex PII / toxicity scrubber.

The web analog of the reference's ``regex`` rule bank
(docs/data-quality-rule-definition-guidelines.md:230-244): a compiled set
of patterns applied per batch with Arrow's RE2 kernels
(``replace_substring_regex`` / ``count_substring_regex``: C-speed, no
row loop). Patterns are RE2-compatible
(no lookaround) so the DuckDB oracle can run the byte-identical
replacement with ``regexp_replace(..., 'g')``.

Appends: ``scrubbed_text`` plus per-category redaction counts
(``n_email``, ``n_phone``, ``n_ssn``, ``n_ipv4``, ``n_toxic``) and the
total ``n_redactions``. Scrubbing is deterministic and idempotent —
byte-identical output per input text across runs and parallelism levels.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

import numpy as np

from nacc_form_validator_ray.stages.text_signals import (batch_text,
                                                         with_columns)

#: (name, pattern, replacement) applied IN ORDER — order is part of the
#: contract (an email scrub must not leave digits for the phone scrub).
PII_PATTERNS: List[Tuple[str, str, str]] = [
    ("email",
     r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ssn",
     r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b",
     "<SSN>"),
    ("phone",
     r"\b\+?[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}\b",
     "<PHONE>"),
    ("ipv4",
     r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b",
     "<IP>"),
]

#: deterministic toxicity blocklist (stand-in for a model-backed scorer;
#: the actor-pool plumbing is identical for a real classifier)
TOXIC_WORDS: List[str] = ["badword", "slur1", "slur2", "toxicterm"]
TOXIC_PATTERN = r"\b(" + "|".join(TOXIC_WORDS) + r")\b"
TOXIC_REPLACEMENT = "<TOXIC>"


class Scrubber:
    """map_batches callable: compile the pattern bank once per actor."""

    def __init__(self,
                 text_column: str = "text",
                 output_column: str = "scrubbed_text",
                 patterns: Optional[List[Tuple[str, str, str]]] = None,
                 scrub_toxic: bool = True):
        self.text_column = text_column
        self.output_column = output_column
        specs = patterns if patterns is not None else PII_PATTERNS
        self.compiled = [(name, re.compile(pat), repl)
                         for name, pat, repl in specs]
        self.toxic = re.compile(TOXIC_PATTERN) if scrub_toxic else None
        # one-alternation prefilter: rows with zero matches (the vast
        # majority of web text) pay ONE scan instead of a scan+replace
        # per pattern. Sound because replacements never create matches a
        # clean row lacked (replacement tokens contain no digits/@).
        pats = [p.pattern for _, p, _ in self.compiled]
        if self.toxic is not None:
            pats.append(self.toxic.pattern)
        self.any_pattern = "|".join(f"(?:{p})" for p in pats)

    def _chain(self, text, n):
        """The sequential per-pattern count+replace chain."""
        import pyarrow.compute as pc
        counts = {}
        total = np.zeros(n, dtype=np.int64)
        steps = [(name, pat.pattern, repl)
                 for name, pat, repl in self.compiled]
        if self.toxic is not None:
            steps.append(("toxic", self.toxic.pattern, TOXIC_REPLACEMENT))
        for name, pattern, repl in steps:
            hits = pc.count_substring_regex(text, pattern=pattern) \
                .to_numpy().astype(np.int64)
            counts[f"n_{name}"] = hits
            total += hits
            if hits.any():
                text = pc.replace_substring_regex(text, pattern=pattern,
                                                  replacement=repl)
        return text, counts, total

    def _core(self, text):
        """Arrow-kernel scrub: one alternation prefilter pass, then the
        sequential count+replace chain only over the rows that hit —
        entirely in C (RE2), no Python string materialization."""
        import pyarrow as pa
        import pyarrow.compute as pc
        n = len(text)
        dirty = pc.match_substring_regex(text, pattern=self.any_pattern) \
            .to_numpy(zero_copy_only=False)
        names = [f"n_{name}" for name, _, _ in self.compiled]
        if self.toxic is not None:
            names.append("n_toxic")
        counts = {nm: np.zeros(n, dtype=np.int64) for nm in names}
        total = np.zeros(n, dtype=np.int64)
        if not dirty.any():
            return text, counts, total
        if dirty.all():
            return self._chain(text, n)
        mask = pa.array(dirty)
        sub_text, sub_counts, sub_total = self._chain(
            text.filter(mask), int(dirty.sum()))
        for nm in names:
            counts[nm][dirty] = sub_counts[nm]
        total[dirty] = sub_total
        out = pc.replace_with_mask(text, mask, sub_text)
        return out, counts, total

    def __call__(self, batch):
        text, counts, total = self._core(
            batch_text(batch, self.text_column))
        return with_columns(batch, {**counts, self.output_column: text,
                                    "n_redactions": total})
