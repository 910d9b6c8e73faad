"""End-to-end Dataset validation: local rules via map_batches and temporal
rules via the groupby(pk) lag stage, checked against the row oracle."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from nacc_form_validator_ray.datastore import InMemoryDatastore
from nacc_form_validator_ray.rowval import RecordValidator
from nacc_form_validator_ray.stages.validate import validate_dataset


def test_local_rules_dataset():
    schema = {
        "qty": {"type": "float", "required": True, "min": 0, "max": 100},
        "flag": {"type": "string", "allowed": ["A", "N", "R"]},
    }
    df = pd.DataFrame({
        "qty": [5.0, -2.0, 200.0, 50.0],
        "flag": ["A", "N", "X", "R"],
    })
    ds = rd.from_pandas(df)
    out = validate_dataset(ds, schema).to_pandas()
    assert list(out["passed"]) == [True, False, False, True]
    assert out["n_errors"].tolist() == [0, 1, 2, 0]
    errs = out["errors"].tolist()
    assert errs[1][0]["code"] == 0x42
    codes2 = sorted(e["code"] for e in errs[2])
    assert codes2 == [0x43, 0x44]


def test_temporal_rules_dataset_matches_row_oracle():
    """Groupby-lag temporal stage vs the reference-style record-at-a-time
    loop with an InMemoryDatastore holding each row's prior history."""
    schema = {
        "patient_id": {"type": "string"},
        "visit_num": {"type": "integer"},
        "taxes": {
            "type": "integer",
            "nullable": True,
            "temporalrules": [{
                "index": 0,
                "previous": {"taxes": {"allowed": [0]}},
                "current": {"taxes": {"forbidden": [8]}},
            }],
        },
        "birthyr": {
            "type": "integer",
            "nullable": True,
            "compare_with": {"comparator": "==", "base": "birthyr",
                             "previous_record": True},
        },
    }
    rows = []
    rng = np.random.RandomState(42)
    for pid in range(20):
        n_visits = rng.randint(1, 6)
        birthyr = 1940 + int(rng.randint(0, 50))
        for v in range(1, n_visits + 1):
            rows.append({
                "patient_id": f"P{pid}",
                "visit_num": v,
                "taxes": int(rng.choice([0, 1, 8])),
                "birthyr": birthyr if rng.rand() > 0.2
                else birthyr + int(rng.randint(1, 3)),
            })
    df = pd.DataFrame(rows)

    ds = rd.from_pandas(df).repartition(4)
    out = validate_dataset(ds, schema, pk_field="patient_id",
                           orderby="visit_num").to_pandas()
    out = out.sort_values(["patient_id", "visit_num"]).reset_index(drop=True)

    # row oracle: validate each record with history = strictly earlier rows
    expected = {}
    for pid, grp in df.groupby("patient_id"):
        grp = grp.sort_values("visit_num")
        recs = grp.to_dict("records")
        for i, rec in enumerate(recs):
            store = InMemoryDatastore("patient_id", "visit_num",
                                      {pid: recs[:i]} if i else {pid: []})
            rv = RecordValidator(schema, allow_unknown=True,
                                 primary_key="patient_id", datastore=store)
            passed = rv.validate(rv.cast_record(dict(rec)))
            expected[(pid, rec["visit_num"])] = (
                passed, sorted(e.code for e in rv.error_entries))

    for _, row in out.iterrows():
        key = (row["patient_id"], row["visit_num"])
        exp_passed, exp_codes = expected[key]
        got_codes = sorted(e["code"] for e in row["errors"])
        assert row["passed"] == exp_passed, (key, got_codes, exp_codes)
        assert got_codes == exp_codes, key


def test_temporal_initial_record_dataset():
    schema = {
        "patient_id": {"type": "string"},
        "visit_num": {"type": "integer"},
        "birthdy": {
            "type": "integer",
            "compare_with": {"comparator": "==", "base": "birthdy",
                             "initial_record": True},
        },
    }
    df = pd.DataFrame([
        {"patient_id": "A", "visit_num": 1, "birthdy": 27},
        {"patient_id": "A", "visit_num": 2, "birthdy": 27},
        {"patient_id": "A", "visit_num": 3, "birthdy": 30},
        {"patient_id": "B", "visit_num": 1, "birthdy": 5},
        {"patient_id": "B", "visit_num": 2, "birthdy": 5},
    ])
    ds = rd.from_pandas(df)
    out = validate_dataset(ds, schema, pk_field="patient_id",
                           orderby="visit_num").to_pandas()
    out = out.sort_values(["patient_id", "visit_num"])
    assert out["passed"].tolist() == [True, True, False, True, True]


def test_mixed_local_and_temporal():
    schema = {
        "patient_id": {"type": "string"},
        "visit_num": {"type": "integer", "min": 1},
        "score": {
            "type": "integer", "nullable": True, "min": 0, "max": 10,
            "temporalrules": [{
                "previous": {"score": {"allowed": [0]}},
                "current": {"score": {"forbidden": [10]}},
            }],
        },
    }
    df = pd.DataFrame([
        {"patient_id": "A", "visit_num": 1, "score": 0},
        {"patient_id": "A", "visit_num": 2, "score": 10},   # temporal fail
        {"patient_id": "A", "visit_num": 3, "score": 99},   # max fail
        {"patient_id": "B", "visit_num": 0, "score": 5},    # min fail
    ])
    ds = rd.from_pandas(df)
    out = validate_dataset(ds, schema, pk_field="patient_id",
                          orderby="visit_num").to_pandas()
    out = out.sort_values(["patient_id", "visit_num"])
    # first visits fail with NO_PREV_VISIT (reference semantics: a
    # temporal rule with no history errors unless ignore_empty is set)
    assert out["passed"].tolist() == [False, False, False, False]
    by_key = {(r["patient_id"], r["visit_num"]):
              sorted(e["code"] for e in r["errors"])
              for _, r in out.iterrows()}
    assert by_key[("A", 1)] == [0x2002]
    assert by_key[("A", 2)] == [0x2000]
    assert by_key[("A", 3)] == [0x43]
    assert by_key[("B", 0)] == [0x42, 0x2002]


def test_vectorized_temporal_fast_path_matches_row_path(monkeypatch):
    """The shift/ffill fast path must agree with the row-oracle temporal
    path on passed/n_errors/error codes, including no-history rows,
    null values, ignore_empty pass-through and falsy primary keys."""
    import nacc_form_validator_ray.stages.validate as sv

    schema = {
        "pk": {"type": "string"},
        "seq": {"type": "integer"},
        "v": {"type": "float", "nullable": True,
              "compare_with": {"comparator": ">=", "base": "v",
                               "previous_record": True}},
        "w": {"type": "float", "nullable": True,
              "compare_with": {"comparator": "==", "base": "w",
                               "initial_record": True}},
        "x": {"type": "float", "nullable": True,
              "compare_with": {"comparator": "<=", "base": "x",
                               "previous_record": True,
                               "ignore_empty": True}},
    }
    rng = np.random.RandomState(7)
    rows = []
    for pid in ["a", "b", "", "c"]:
        for s in range(1, rng.randint(2, 6)):
            rows.append({
                "pk": pid, "seq": s,
                "v": None if rng.rand() < 0.25
                else float(rng.randint(0, 5)),
                "w": None if rng.rand() < 0.25
                else float(rng.randint(0, 3)),
                "x": None if rng.rand() < 0.4
                else float(rng.randint(0, 5)),
            })
    df = pd.DataFrame(rows)

    assert sv.temporal_fast_specs(
        sv.CompiledSchema(schema, pk_field="pk", orderby="seq",
                          strict=False)) is not None

    fast = validate_dataset(rd.from_pandas(df), schema, pk_field="pk",
                            orderby="seq", strict=False).to_pandas()
    monkeypatch.setattr(sv, "temporal_fast_specs", lambda c: None)
    slow = validate_dataset(rd.from_pandas(df), schema, pk_field="pk",
                            orderby="seq", strict=False).to_pandas()

    key = ["pk", "seq"]
    fast = fast.sort_values(key).reset_index(drop=True)
    slow = slow.sort_values(key).reset_index(drop=True)
    assert fast["passed"].tolist() == slow["passed"].tolist()
    assert fast["n_errors"].tolist() == slow["n_errors"].tolist()
    for i in range(len(fast)):
        fc = sorted((e["field"], e["code"]) for e in fast["errors"][i])
        sc = sorted((e["field"], e["code"]) for e in slow["errors"][i])
        assert fc == sc, (i, fast.loc[i, key].tolist(), fc, sc)


def test_vectorized_temporalrules_matches_row_path(monkeypatch):
    """Shift-mask temporalrules fast path vs the row oracle on codes."""
    import nacc_form_validator_ray.stages.validate as sv

    schema = {
        "pk": {"type": "string"},
        "seq": {"type": "integer"},
        "taxes": {
            "type": "integer", "nullable": True,
            "temporalrules": [
                {"index": 0,
                 "previous": {"taxes": {"allowed": [0]}},
                 "current": {"taxes": {"forbidden": [8]}}},
                {"index": 1, "swap_order": True,
                 "current": {"taxes": {"allowed": [1]}},
                 "previous": {"taxes": {"forbidden": [9]}}},
            ],
        },
    }
    rng = np.random.RandomState(11)
    rows = []
    for pid in ["a", "b", "c", ""]:
        for s in range(1, rng.randint(2, 7)):
            rows.append({"pk": pid, "seq": s,
                         "taxes": None if rng.rand() < 0.2
                         else int(rng.choice([0, 1, 8, 9]))})
    df = pd.DataFrame(rows)

    specs = sv.temporal_fast_specs(
        sv.CompiledSchema(schema, pk_field="pk", orderby="seq",
                          strict=False))
    assert specs and specs[0]["kind"] == "temporalrules"

    fast = validate_dataset(rd.from_pandas(df), schema, pk_field="pk",
                            orderby="seq", strict=False).to_pandas()
    monkeypatch.setattr(sv, "temporal_fast_specs", lambda c: None)
    slow = validate_dataset(rd.from_pandas(df), schema, pk_field="pk",
                            orderby="seq", strict=False).to_pandas()
    key = ["pk", "seq"]
    fast = fast.sort_values(key).reset_index(drop=True)
    slow = slow.sort_values(key).reset_index(drop=True)
    assert fast["passed"].tolist() == slow["passed"].tolist()
    assert fast["n_errors"].tolist() == slow["n_errors"].tolist()
    for i in range(len(fast)):
        fc = sorted((e["field"], e["code"]) for e in fast["errors"][i])
        sc = sorted((e["field"], e["code"]) for e in slow["errors"][i])
        assert fc == sc, (i, fast.loc[i, key].tolist(), fc, sc)


def test_validate_dataset_actor_pool_path():
    """concurrency switches ValidateStage to an actor pool (schema
    compiled once per actor)."""
    schema = {"qty": {"type": "float", "min": 0, "max": 100}}
    df = pd.DataFrame({"qty": np.linspace(-10, 110, 50)})
    out = validate_dataset(rd.from_pandas(df).repartition(4), schema,
                           strict=False, concurrency=2).to_pandas()
    assert (out["passed"] == ((df["qty"] >= 0) &
                              (df["qty"] <= 100))).all()


def test_temporal_row_path_with_several_local_errors(tmp_path):
    """A record with two or more local errors reaches the temporal row
    path with an array-valued ``errors`` column; casting that record
    must not compare the array with ``""`` (examples/visit_rules.json
    always takes the row path: ``taxes`` has ``allowed`` next to its
    ``temporalrules``)."""
    import json
    import os

    from nacc_form_validator_ray.errors import Codes
    from nacc_form_validator_ray.sources.readers import read_any

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "examples", "visit_rules.json")) as f:
        schema = json.load(f)
    path = tmp_path / "visits.csv"
    path.write_text("patient_id,visit_num,frmdate,birthyr,taxes,"
                    "rmreason,mode\n"
                    "A,1,01/02/2020,1800,0,1,9\n"
                    "A,2,01/03/2021,1950,8,2,\n")
    out = validate_dataset(read_any(str(path)), schema,
                           pk_field="patient_id", orderby="visit_num") \
        .to_pandas().sort_values("visit_num").reset_index(drop=True)
    assert out["visit_num"].tolist() == [1, 2]
    assert out["passed"].tolist() == [False, False]
    assert not out["sys_failure"].any()
    codes = [sorted((e["field"], e["code"]) for e in errs)
             for errs in out["errors"]]
    assert codes == [
        [("birthyr", Codes.MIN_VALUE), ("mode", Codes.UNALLOWED_VALUE),
         ("taxes", Codes.NO_PREV_VISIT)],
        [("taxes", Codes.TEMPORAL)],
    ]
    assert out["n_errors"].tolist() == [3, 1]
