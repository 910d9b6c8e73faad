"""The pretrain composition and its stage checkpoints: zero-row stages,
keyed invalidation, pin directories, the exchange drop path and the
shared banned-id drop."""

import json
import os
import shutil
from datetime import datetime

import pandas as pd
import pytest

import ray.data as rd

from nacc_form_validator_ray.pipelines.pretrain import (
    build_pretrain_pipeline, run_pretrain)
from nacc_form_validator_ray.pipelines.quality_filter import (
    WEB_QUALITY_RULES, build_quality_pipeline)
from nacc_form_validator_ray.pipelines.webgen import generate_pages
from nacc_form_validator_ray.stages import dedup
from nacc_form_validator_ray.state.lineage import stage_checkpoint
from nacc_form_validator_ray.utils import Clock

CLOCK = Clock(datetime(2026, 1, 1))


def _pages_dir(path, n, seed, **kw):
    generate_pages(n, seed=seed, **kw).write_parquet(str(path))
    return str(path)


def _marker(out, name):
    with open(os.path.join(out, name, "_DONE")) as f:
        return json.load(f)


def _doc_ids(out):
    return sorted(rd.read_parquet(os.path.join(out, "03_docs"),
                                  columns=["doc_id"])
                  .to_pandas()["doc_id"])


def test_run_pretrain_duplicate_free_corpus(tmp_path):
    """No page is banned: the empty 02_banned stage still completes,
    and every quality-passed page comes out."""
    src = _pages_dir(tmp_path / "pages", 40, seed=5, dup_fraction=0.0)
    out = str(tmp_path / "out")
    m = run_pretrain(src, out, clock=CLOCK)
    passed = build_quality_pipeline(rd.read_parquet(src), clock=CLOCK,
                                    extract=True).to_pandas()["passed"]
    assert _marker(out, "02_banned")["n_rows"] == 0
    assert m["n_output"] == int(passed.sum()) > 0
    assert len(_doc_ids(out)) == m["n_output"]


def test_run_pretrain_every_page_fails_rules(tmp_path):
    src = _pages_dir(tmp_path / "pages", 40, seed=5)
    out = str(tmp_path / "out")
    rules = {**WEB_QUALITY_RULES,
             "n_words": {"type": "integer", "min": 10 ** 9}}
    m = run_pretrain(src, out, rules=rules, clock=CLOCK)
    assert (m["n_input"], m["n_output"]) == (40, 0)
    for name in ("01_clean", "02_banned", "03_docs"):
        assert _marker(out, name)["n_rows"] == 0
    assert rd.read_parquet(os.path.join(out, "03_docs")).count() == 0


def test_stage_checkpoint_zero_rows(tmp_path):
    ck = str(tmp_path / "ck")
    empty = stage_checkpoint(
        lambda: rd.range(10).filter(expr="id < 0"), ck, "s", "k")
    assert empty.count() == 0
    assert _marker(ck, "s")["n_rows"] == 0

    def boom():
        raise AssertionError("rebuilt a completed stage")

    assert stage_checkpoint(boom, ck, "s", "k").count() == 0


def test_stage_checkpoint_rebuilds_on_key_change(tmp_path):
    ck = str(tmp_path / "ck")
    first = stage_checkpoint(lambda: rd.range(3), ck, "s", "a")
    assert sorted(first.to_pandas()["id"]) == [0, 1, 2]
    again = stage_checkpoint(lambda: rd.range(5), ck, "s", "b")
    assert sorted(again.to_pandas()["id"]) == [0, 1, 2, 3, 4]
    assert _marker(ck, "s")["key"] == "b"


def test_run_pretrain_changed_input_matches_fresh_run(tmp_path):
    """Swapping the input under the same out_dir must not resume from
    the first input's stages."""
    src = tmp_path / "pages"
    out = str(tmp_path / "out")
    _pages_dir(src, 120, seed=33)
    run_pretrain(str(src), out, clock=CLOCK)
    first = _doc_ids(out)
    shutil.rmtree(src)
    _pages_dir(src, 120, seed=99)
    second = run_pretrain(str(src), out, clock=CLOCK)
    fresh_out = str(tmp_path / "fresh")
    fresh = run_pretrain(str(src), fresh_out, clock=CLOCK)
    assert _doc_ids(out) == _doc_ids(fresh_out) != first
    assert second["n_output"] == fresh["n_output"]


def test_run_pretrain_changed_rules_rebuild_clean_stage(tmp_path):
    src = _pages_dir(tmp_path / "pages", 80, seed=33)
    out = str(tmp_path / "out")
    run_pretrain(src, out, clock=CLOCK)
    before = _marker(out, "01_clean")
    rules = {**WEB_QUALITY_RULES,
             "n_words": {"type": "integer", "min": 60, "max": 1000}}
    m = run_pretrain(src, out, rules=rules, clock=CLOCK)
    after = _marker(out, "01_clean")
    assert after["key"] != before["key"]
    passed = build_quality_pipeline(rd.read_parquet(src), rules=rules,
                                    clock=CLOCK, extract=True) \
        .to_pandas()["passed"]
    assert after["n_rows"] == int(passed.sum())
    fresh = run_pretrain(src, str(tmp_path / "fresh"), rules=rules,
                         clock=CLOCK)
    assert m["n_output"] == fresh["n_output"]


def _dup_docs():
    return pd.DataFrame({"doc_id": [1, 2, 3],
                         "text": ["a b", "a  b", "c"]})


def test_exact_dedup_refuses_a_used_pin_dir(tmp_path):
    """A second spill into the same pin_dir would append to the first
    and duplicate the corpus; it raises instead, and the caller's
    directory is left as it was."""
    d = str(tmp_path / "pin")
    out = dedup.exact_dedup(rd.from_pandas(_dup_docs()), pin_dir=d)
    assert sorted(out.to_pandas()["doc_id"]) == [1, 3]
    files = sorted(os.listdir(d))
    with pytest.raises(ValueError, match=str(d)):
        dedup.exact_dedup(rd.from_pandas(_dup_docs()), pin_dir=d)
    assert sorted(os.listdir(d)) == files
    with pytest.raises(ValueError, match=str(d)):
        build_pretrain_pipeline(generate_pages(20, seed=3), clock=CLOCK,
                                pin_dir=d)


@pytest.mark.parametrize("ids", [[1, 2, 3, 4], ["u1", "u2", "u3", "u4"]])
def test_drop_banned_modes_agree(ids):
    ds = rd.from_pandas(pd.DataFrame({"k": ids, "v": range(4)}))
    banned = rd.from_pandas(pd.DataFrame({"k": [ids[1], ids[3],
                                                ids[1]]}))
    for via in ("auto", "broadcast", "exchange"):
        out = dedup.drop_banned(ds, banned, on="k", via=via).to_pandas()
        assert sorted(out["k"]) == [ids[0], ids[2]], via
        assert sorted(out["v"]) == [0, 2], via


def test_pretrain_exchange_drop_matches_broadcast(tmp_path, monkeypatch):
    """Past BROADCAST_ID_LIMIT both entry points drop through the Bloom
    anti-join exchange; the kept documents are the same."""
    from nacc_form_validator_ray.stages import bloom

    src = _pages_dir(tmp_path / "pages", 150, seed=21, dup_fraction=0.25)

    def both(tag):
        built = build_pretrain_pipeline(
            rd.read_parquet(src), clock=CLOCK, pin="memory").to_pandas()
        out = str(tmp_path / tag)
        run_pretrain(src, out, clock=CLOCK)
        return sorted(built["doc_id"]), _doc_ids(out)

    broadcast = both("broadcast")
    calls = []
    orig = bloom.anti_join_bloom

    def spy(*a, **k):
        calls.append(k.get("on"))
        return orig(*a, **k)

    monkeypatch.setattr(bloom, "anti_join_bloom", spy)
    monkeypatch.setattr(dedup, "BROADCAST_ID_LIMIT", 0)
    exchange = both("exchange")
    assert calls == ["doc_id", "doc_id"]
    assert broadcast[0] == broadcast[1]
    assert exchange == broadcast
    assert 0 < len(broadcast[0]) < 150
