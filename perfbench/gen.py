"""Seeded, vectorized input generators for the benchmark.

The benchmark owns its inputs: nothing here imports the package under
test, so a change to program code never changes what the benchmark
feeds it. Every array is drawn from one ``numpy`` generator seeded by
``(seed, GEN_VERSION, kind)``; the same seed gives byte-identical files.

* ``pages``: Common-Crawl-style rows ``url, warc_ts, html, text, lang``
  with ``html = HTML_PREFIX + text + HTML_SUFFIX``. The mixture follows
  the package's own page fixture: short, long, 3-gram-repetitive and
  symbol-spam documents, seeded e-mail / phone / SSN PII, ~10%
  near-duplicates of an earlier page and Zipf-skewed hosts.
* ``visits``: NACC-style longitudinal visit records as one CSV of raw
  values, 1-10 visits per subject, ~80% of rows clean and the rest with
  1-3 injected violations drawn from every rule family of
  ``VISIT_RULES``.

Generated inputs are cached under ``.cache/`` beside this file, keyed by
(kind, seed, size, GEN_VERSION), and written atomically.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: bump whenever a generator's output changes for a given seed
GEN_VERSION = 1

#: where generated inputs are cached (``PERFBENCH_CACHE`` overrides)
CACHE_DIR = os.environ.get("PERFBENCH_CACHE") or os.path.join(
    os.path.dirname(os.path.abspath(__file__)), ".cache")

#: hosts the Zipf draw is capped at, and the share of near-duplicate pages
N_HOSTS = 1000
DUP_FRACTION = 0.1

HTML_PREFIX = b"<html><head><title>page</title></head><body><p>"
HTML_SUFFIX = b"</p></body></html>"

#: per-language stopword and content-word pools; stopwords drive the
#: language-ID and stop-ratio signals
_STOP = {
    "en": "the and of to in is that it was for with as his on be at by had",
    "es": "de la que el en y los del se las por un para con una su al lo",
    "de": "der die und den von zu das mit sich des auf ist im dem nicht "
          "ein eine als",
    "fr": "le et les des une du est pour qui dans par plus pas au sur ne "
          "se ce",
    "zh": "shi bu wo zai you ta zhe zhong da lai shang guo dao shuo men "
          "ni hao ma",
}
_CONTENT = {
    "en": "data market system report world science music house water "
          "light story engine model garden river street paper window",
    "es": "datos mercado sistema informe mundo ciencia musica casa agua "
          "luz historia motor",
    "de": "daten markt system bericht welt wissenschaft musik haus "
          "wasser licht geschichte motor",
    "fr": "donnees marche systeme rapport monde science musique maison "
          "eau lumiere histoire moteur",
    "zh": "shuju shichang xitong baogao shijie kexue yinyue fangzi shui "
          "guang gushi yinqing",
}
LANGS = list(_STOP)


def _rng(seed: int, kind: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.md5(kind.encode()).digest()[:4], "little")
    # SeedSequence entropy must be non-negative
    return np.random.default_rng([int(seed) % 2**63, GEN_VERSION, tag])


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform draws, exactly one in each interval
    ``[i/n, (i+1)/n)``, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _digits(values: np.ndarray) -> pa.Array:
    return pc.cast(pa.array(values.astype(np.int64)), pa.string())


def _suffix(mask: np.ndarray, *parts) -> pa.Array:
    """Per-row ``"".join(parts)`` where ``mask``, else ``""``."""
    joined = pc.binary_join_element_wise(*parts, "")
    return pc.if_else(pa.array(mask), joined, "")


def make_pages(n: int, seed: int) -> pa.Table:
    """``n`` pages as one Arrow table (no per-row Python)."""
    rng = _rng(seed, "pages")
    vocab, stop_off, stop_len, cont_off, cont_len = [], [], [], [], []
    for lang in LANGS:
        stop, cont = _STOP[lang].split(), _CONTENT[lang].split()
        stop_off.append(len(vocab))
        stop_len.append(len(stop))
        vocab += stop
        cont_off.append(len(vocab))
        cont_len.append(len(cont))
        vocab += cont
    vocab_arr = pa.array(vocab)
    stop_off, stop_len, cont_off, cont_len = map(
        np.array, (stop_off, stop_len, cont_off, cont_len))

    host = np.minimum(rng.zipf(1.3, n), N_HOSTS) - 1
    lang = np.where(rng.random(n) > 0.6,
                    rng.integers(0, len(LANGS), n), 0)
    # stratified roll: every document class gets its exact share of the
    # n pages, so corpora of different seeds carry the same mix (a few
    # dozen long pages hold most of the bytes)
    roll = _stratified(rng, n)
    n_words = np.where(
        roll < 0.08, rng.integers(3, 40, n),              # too short
        np.where(roll < 0.12, rng.integers(2000, 4000, n),  # too long
                 rng.integers(60, 400, n)))
    repetitive = (roll >= 0.12) & (roll < 0.17)
    n_words = np.where(repetitive, 3 * np.maximum(n_words // 3, 20),
                       n_words)
    spam = (roll >= 0.17) & (roll < 0.22)

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_words, out=offsets[1:])
    total = int(offsets[-1])
    doc = np.repeat(np.arange(n), n_words)
    pos = np.arange(total) - offsets[doc]
    wl = lang[doc]
    is_stop = rng.random(total) < 0.42
    pick = rng.random(total)
    word = np.where(
        is_stop, stop_off[wl] + (pick * stop_len[wl]).astype(np.int64),
        cont_off[wl] + (pick * cont_len[wl]).astype(np.int64))
    rep = repetitive[doc]
    word[rep] = word[(offsets[doc] + pos % 3)[rep]]
    words = pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)),
                                     vocab_arr.take(pa.array(word)))
    text = pc.binary_join(words, " ")

    spam_len = np.maximum(pc.utf8_length(text).to_numpy() // 24, 8)
    text = pc.binary_join_element_wise(
        text, _suffix(spam, " ", pc.binary_repeat("@#$%^&*", spam_len)),
        "")
    r = rng.integers(0, 10_000, (7, n))
    text = pc.binary_join_element_wise(
        text,
        _suffix(rng.random(n) < 0.15, " contact user", _digits(r[0]),
                "@example.com"),
        _suffix(rng.random(n) < 0.08, " call", " ", _digits(100 + r[1] % 900),
                "-", _digits(100 + r[2] % 900), "-",
                _digits(1000 + r[3] % 9000)),
        _suffix(rng.random(n) < 0.03, " ssn ", _digits(100 + r[4] % 900),
                "-", _digits(10 + r[5] % 90), "-",
                _digits(1000 + r[6] % 9000)),
        "")

    # near-duplicates: an earlier page's text, half with a tiny suffix
    ids = np.arange(n)
    dup = (ids > 10) & (_stratified(rng, n) < DUP_FRACTION)
    lo = np.maximum(ids - 1000, 0)
    src = np.where(dup, lo + (rng.random(n) * (ids - lo)).astype(np.int64),
                   ids)
    text = text.take(pa.array(src))
    lang = lang[src]
    text = pc.binary_join_element_wise(
        text, _suffix(dup & (rng.random(n) < 0.5), " extra"), "")

    url = pc.binary_join_element_wise(
        "https://host", _digits(host), ".example.org/doc/", _digits(ids),
        "")
    ts = np.datetime64("2025-01-01T00:00:00", "us") + \
        (ids % 31_536_000).astype("timedelta64[s]")
    html = pc.binary_join_element_wise(
        pa.scalar(HTML_PREFIX), pc.cast(text, pa.binary()),
        pa.scalar(HTML_SUFFIX), b"")
    return pa.table({
        "url": url,
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": html,
        "text": text,
        "lang": pa.array(np.array(LANGS)[lang]),
    })


#: the visit schema: every local rule family plus the temporal forms the
#: vectorized temporal path covers (compare_with previous_record with
#: ignore_empty, compare_with initial_record, temporalrules)
VISIT_RULES = {
    "patient_id": {"type": "string", "required": True},
    "visit_num": {"type": "integer", "required": True, "min": 1},
    "frmdate": {
        "type": "string", "formatting": "date", "max": "current_date",
        "regex": r"(^(0[1-9]|1[0-2])[-/](0[1-9]|[12][0-9]|3[01])[-/]"
                 r"(\d{4})$)|(^(\d{4})[-/](0[1-9]|1[0-2])[-/]"
                 r"(0[1-9]|[12][0-9]|3[01])$)",
    },
    "birthyr": {"type": "integer", "min": 1850,
                "compare_with": {"comparator": "<=",
                                 "base": "current_year"}},
    "weight": {"type": "float", "nullable": True, "min": 30.0,
               "max": 250.0},
    "mode": {"type": "integer", "nullable": True, "allowed": [1, 2, 3]},
    "rmreason": {
        "type": "integer", "nullable": True, "allowed": [1, 2, 3, 4, 5],
        "compatibility": [
            {"if": {"mode": {"allowed": [2]}},
             "then": {"rmreason": {"nullable": False}}},
            {"if": {"mode": {"allowed": [1, 3]}},
             "then": {"rmreason": {"nullable": True, "filled": False}}},
        ],
    },
    "educ": {"type": "integer", "nullable": True,
             "compare_with": {"comparator": ">=", "base": "educ",
                              "previous_record": True,
                              "ignore_empty": True}},
    "sex": {"type": "integer",
            "compare_with": {"comparator": "==", "base": "sex",
                             "initial_record": True}},
    "taxes": {"type": "integer", "nullable": True,
              "temporalrules": [{
                  "index": 0,
                  "previous": {"taxes": {"allowed": [0]}},
                  "current": {"taxes": {"forbidden": [8]}},
              }]},
}
VISIT_COLUMNS = list(VISIT_RULES)

#: injected violation kinds, one per rule family
VIOLATIONS = ["frmdate_regex", "frmdate_future", "birthyr_min",
              "birthyr_current_year", "weight_max", "mode_allowed",
              "mode_type", "rmreason_compat", "educ_previous",
              "sex_initial", "taxes_temporal"]


def _str(values) -> np.ndarray:
    return np.asarray(values).astype(str).astype(object)


def make_visits(n_subjects: int, seed: int) -> "pd.DataFrame":
    """Visit rows as a frame of raw CSV strings (``""`` = empty)."""
    import pandas as pd
    rng = _rng(seed, "visits")
    n_visits = rng.integers(1, 11, n_subjects)
    n = int(n_visits.sum())
    idx = np.arange(n)
    subj = np.repeat(np.arange(n_subjects), n_visits)
    first = np.zeros(n_subjects + 1, dtype=np.int64)
    np.cumsum(n_visits, out=first[1:])
    visit = idx - first[subj] + 1

    birthyr = rng.integers(1925, 1965, n_subjects)[subj]
    sex = rng.integers(1, 3, n_subjects)[subj]
    day = np.datetime64("2010-01-01") + (
        rng.integers(0, 4 * 365, n_subjects)[subj] + 365 * (visit - 1)
        + rng.integers(0, 60, n)).astype("timedelta64[D]")
    weight = np.round(rng.normal(72.0, 12.0, n).clip(35, 200), 1)
    mode = rng.integers(1, 4, n)
    rmreason = np.where(mode == 2, rng.integers(1, 6, n), 0)
    educ = rng.integers(8, 18, n_subjects)[subj] + \
        np.minimum(visit // 4, 2)
    educ_empty = rng.random(n) < 0.1
    taxes = rng.choice([0, 1, 8], n, p=[0.5, 0.3, 0.2])
    # 8 after 0 breaks the temporal rule; clean rows never do it, and
    # the first visit leaves taxes empty (no previous visit to compare)
    taxes = np.where((taxes == 8) & (visit > 1), 1, taxes)
    taxes_empty = (visit == 1) | (rng.random(n) < 0.05)

    # ~20% of rows get 1-3 distinct violation kinds
    n_bad = np.where(rng.random(n) < 0.2, rng.integers(1, 4, n), 0)
    order = np.argsort(rng.random((n, len(VIOLATIONS))), axis=1)
    bad = np.zeros((n, len(VIOLATIONS)), dtype=bool)
    for j in range(3):
        bad[idx, order[:, j]] |= n_bad > j
    v = dict(zip(VIOLATIONS, bad.T))

    year = day.astype("datetime64[Y]").astype(int) + 1970
    year = np.where(v["frmdate_future"], 2031, year)
    month = day.astype("datetime64[M]").astype(int) % 12 + 1
    dom = (day - day.astype("datetime64[M]")).astype(int) + 1
    y, m, d = _str(year), np.char.zfill(_str(month).astype(str), 2), \
        np.char.zfill(_str(dom).astype(str), 2)
    m, d = m.astype(object), d.astype(object)
    date = np.where(rng.random(n) < 0.5, m + "/" + d + "/" + y,
                    y + "-" + m + "-" + d)
    date = np.where(v["frmdate_regex"], d + "." + m + "." + y, date)

    birthyr = np.where(v["birthyr_min"], 1800,
                       np.where(v["birthyr_current_year"], 2040, birthyr))
    weight = weight + np.where(v["weight_max"], 300.0, 0.0)
    mode_s = np.where(v["mode_allowed"], "7",
                      np.where(v["mode_type"], "unknown",
                               _str(mode))).astype(object)
    compat = v["rmreason_compat"]
    mode_s[compat] = "2"
    rmreason = np.where(compat, 0, rmreason)
    educ = educ - np.where(v["educ_previous"], 5, 0)
    sex = np.where(v["sex_initial"], 3 - sex, sex)
    tax_bad = v["taxes_temporal"] & (visit > 1)
    taxes[tax_bad] = 8
    taxes[idx[tax_bad] - 1] = 0
    taxes_empty[idx[tax_bad] - 1] = False
    taxes_empty[tax_bad] = False

    def blank(values, empty):
        return np.where(empty, "", _str(values)).astype(object)

    return pd.DataFrame({
        "patient_id": "NACC" + np.char.zfill(_str(subj).astype(str), 7)
        .astype(object),
        "visit_num": _str(visit),
        "frmdate": date,
        "birthyr": _str(birthyr),
        "weight": np.char.mod("%.1f", weight).astype(object),
        "mode": mode_s,
        "rmreason": blank(rmreason, rmreason == 0),
        "educ": blank(educ, educ_empty),
        "sex": _str(sex),
        "taxes": blank(taxes, taxes_empty),
    }, columns=VISIT_COLUMNS)


# --------------------------------------------------------------- cache


def _digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def ensure(kind: str, seed: int, size: int, files: int = 1):
    """Materialize (once) and return ``(dir, digest)`` for an input.

    ``pages``: ``size`` pages split into ``files`` parquet files.
    ``visits``: ``size`` subjects in one CSV file. The directory holds
    only the data files; the digest sits beside it and marks it done."""
    key = f"{kind}-s{seed}-n{size}-f{files}-v{GEN_VERSION}"
    path = os.path.join(CACHE_DIR, key)
    marker = path + ".sha256"
    if not os.path.exists(marker):
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=key + ".", dir=CACHE_DIR)
        if kind == "pages":
            table = make_pages(size, seed)
            step = -(-size // files)
            for i in range(files):
                pq.write_table(table.slice(i * step, step),
                               os.path.join(tmp, f"pages-{i:03d}.parquet"))
        elif kind == "visits":
            make_visits(size, seed).to_csv(
                os.path.join(tmp, "visits.csv"), index=False)
        else:
            raise ValueError(f"unknown input kind {kind!r}")
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
        with open(marker + ".tmp", "w") as f:
            f.write(_digest(path))
        os.replace(marker + ".tmp", marker)
    with open(marker) as f:
        return path, f.read().strip()


def input_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))
