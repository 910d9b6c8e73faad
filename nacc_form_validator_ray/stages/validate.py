"""Dataset-level validation stages.

``validate_dataset`` is the bulk equivalent of the reference's CSV loop
(docs/validate_csv_records.py:90-100), recast as a streaming Ray Data
pipeline::

    read_parquet → map_batches(ValidateStage)          # local rules
                 → grouped_apply(pk, temporal)         # only if needed:
                                                       #   one hash exchange
                 → write_parquet / filter / aggregate

Appended columns: ``passed: bool``, ``sys_failure: bool``,
``n_errors: int32``, ``errors: list<struct<field,code,rule,message>>`` —
the per-document error-code vector.

Scale notes:
* ValidateStage is a callable class: the compiled schema ships once per
  actor (``__init__``), batches stream through ``__call__`` zero-copy
  until the pandas conversion.
* Only schemas with temporal rules pay a shuffle, and it is ONE hash
  exchange on the primary key (``stages/partition.grouped_apply``):
  each reduce partition groups its subjects and runs the temporal rules
  on them; everything else is embarrassingly parallel.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from nacc_form_validator_ray.datastore import Datastore
from nacc_form_validator_ray.engine import (BatchValidator, CompiledSchema)
from nacc_form_validator_ray.errors import ERRORS_TYPE

RESULT_COLUMNS = ("passed", "sys_failure", "n_errors", "errors")


def _errors_array(errors: List[List[Dict[str, Any]]]) -> pa.Array:
    return pa.array(errors, type=ERRORS_TYPE)


class ValidateStage:
    """map_batches callable: local (non-temporal) rule evaluation.

    Stateful-stage pattern: rule compilation happens once per actor in
    ``__init__``; ``__call__`` is pure batch work.
    """

    def __init__(self,
                 compiled: CompiledSchema,
                 datastore_factory: Optional[Callable[[], Datastore]] = None,
                 collect: str = "codes",
                 keep_input_columns: bool = True):
        datastore = datastore_factory() if datastore_factory else None
        self.validator = BatchValidator(compiled, datastore=datastore,
                                        collect=collect)
        self.collect = collect
        self.keep_input_columns = keep_input_columns

    def __call__(self, batch) -> pa.Table:
        if isinstance(batch, pa.Table):
            # zero-copy hot path: only the columns the rule program can
            # reference are converted to pandas; payload columns (text,
            # html, urls) never leave Arrow
            referenced = [c for c in batch.column_names
                          if c in self.validator.compiled.referenced]
            pdf = batch.select(referenced).to_pandas() if referenced \
                else pd.DataFrame(index=range(batch.num_rows))
            _, result = self.validator.validate_frame(pdf)
            table = batch if self.keep_input_columns else pa.table({})
        else:
            _, result = self.validator.validate_frame(batch)
            if self.keep_input_columns:
                table = pa.Table.from_pandas(batch, preserve_index=False)
            else:
                table = pa.table({})
        arrays = {
            "passed": pa.array(result.passed),
            "sys_failure": pa.array(result.sys_failure),
            "n_errors": pa.array(result.n_errors, type=pa.int32()),
        }
        if self.collect != "none":
            arrays["errors"] = _errors_array(result.errors_column())
        for name, arr in arrays.items():
            table = table.append_column(name, arr)
        # stray pandas metadata makes downstream schema-dedup hashing
        # noisy; the schema itself is all that matters
        return table.replace_schema_metadata(None)


class TemporalGroupValidator:
    """Per-subject-group temporal validation.

    Replaces the reference's Datastore point-lookups
    (datastore.py:42-104) with a group-local lag: the group IS the
    subject's full history, sorted by ``orderby``; the "previous record"
    is simply the preceding row. One ``groupby(pk)`` shuffle replaces
    per-record warehouse round-trips.

    Determinism note: rows within a subject must be uniquely ordered by
    ``orderby`` — ties fall back to the incoming block order, which is not
    stable across runs of a distributed shuffle.
    """

    def __init__(self, compiled: CompiledSchema,
                 datastore_factory: Optional[Callable[[], Datastore]] = None):
        self.compiled = compiled
        # vocabulary checks (rxcui/adcid) may still need a datastore
        self.vocab_datastore = (datastore_factory()
                                if datastore_factory else None)
        self._validator = None

    def _get_validator(self, datastore: Datastore):
        from nacc_form_validator_ray.rowval import RecordValidator
        if self._validator is None:
            self._validator = RecordValidator(
                self.compiled.temporal_schema,
                allow_unknown=True,
                primary_key=self.compiled.pk_field,
                datastore=datastore,
                parent_dtypes=self.compiled.dtypes,
                clock=self.compiled.clock)
        else:
            self._validator.datastore = datastore
        return self._validator

    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        from nacc_form_validator_ray.rowval import ValidationException

        compiled = self.compiled
        orderby = compiled.orderby
        group = group.sort_values(orderby, kind="stable") \
            if orderby in group.columns else group
        records = group.to_dict("records")
        # normalize pandas NaN to None for rule semantics
        records = [{k: (None if _isna(v) else v) for k, v in r.items()}
                   for r in records]

        history = _GroupHistory(compiled.pk_field, orderby, records,
                                self.vocab_datastore)
        rv = self._get_validator(history)

        n = len(records)
        passed = np.ones(n, dtype=bool)
        sysf = np.zeros(n, dtype=bool)
        n_errors = np.zeros(n, dtype=np.int64)
        errors: List[List[Dict[str, Any]]] = [[] for _ in range(n)]
        for i, rec in enumerate(records):
            history.current_idx = i
            try:
                rv.reset_record_cache()
                rv._initial_records.clear()
                ok = rv.validate(rv.cast_record(dict(rec)))
                passed[i] = ok
                for e in rv.error_entries:
                    errors[i].append(e.as_dict())
                    n_errors[i] += 1
            except ValidationException:
                sysf[i] = True
                passed[i] = False

        out = group.copy()
        if "passed" in out.columns:
            out["passed"] = out["passed"].to_numpy(dtype=bool) & passed
            out["sys_failure"] = \
                out["sys_failure"].to_numpy(dtype=bool) | sysf
            out["n_errors"] = \
                out["n_errors"].to_numpy() + n_errors
            if "errors" in out.columns:
                merged = []
                for prev, new in zip(out["errors"].tolist(), errors):
                    prev = list(prev) if prev is not None else []
                    merged.append(prev + new)
                out["errors"] = merged
        else:
            out["passed"] = passed
            out["sys_failure"] = sysf
            out["n_errors"] = n_errors.astype(np.int32)
            out["errors"] = errors
        return out


def _isna(v: Any) -> bool:
    try:
        return v is None or (np.isscalar(v) and pd.isna(v)) or v is pd.NaT
    except (TypeError, ValueError):
        return False


class _GroupHistory(Datastore):
    """Datastore over a subject group's sorted rows. ``current_idx`` is set
    before validating each row; earlier rows are the history."""

    def __init__(self, pk_field, orderby, records, vocab=None):
        super().__init__(pk_field, orderby)
        self.records = records
        self.current_idx = 0
        self.vocab = vocab

    def get_previous_record(self, current_record):
        i = self.current_idx
        return dict(self.records[i - 1]) if i > 0 else None

    def get_previous_nonempty_record(self, current_record,
                                     ignore_empty_fields):
        for j in range(self.current_idx - 1, -1, -1):
            if all(self.records[j].get(f) is not None
                   for f in ignore_empty_fields):
                return dict(self.records[j])
        return None

    def get_initial_record(self, current_record):
        return dict(self.records[0]) if self.records else None

    def is_valid_rxcui(self, drugid, target_date=None):
        if self.vocab is None:
            raise NotImplementedError("no RXCUI vocabulary configured")
        return self.vocab.is_valid_rxcui(drugid, target_date)

    def is_valid_adcid(self, adcid, own):
        if self.vocab is None:
            raise NotImplementedError("no ADCID list configured")
        return self.vocab.is_valid_adcid(adcid, own)


def validate_dataset(ds,
                     schema: Mapping[str, Mapping[str, Any]],
                     pk_field: Optional[str] = None,
                     orderby: Optional[str] = None,
                     strict: bool = False,
                     collect: str = "codes",
                     datastore_factory: Optional[Callable[[], Datastore]]
                     = None,
                     batch_size: int = 4096,
                     concurrency: Optional[Any] = None,
                     clock=None,
                     isolate_hot_subjects: Optional[float] = None):
    """Apply a rule schema to a Dataset; returns it with result columns.

    The temporal groupby stage runs only when the schema needs it.

    ``isolate_hot_subjects``: fraction (e.g. 0.02) above which a
    subject is routed to its OWN partition in the temporal exchange —
    host-level skew defense (a subject's history cannot be split, but
    a hot subject must not also receive a 1/P share of every other
    subject). The detection pre-pass consumes the validated stream
    once more, so enable it only when the upstream is re-readable
    (parquet) or cheap; results are identical either way.
    """
    compiled = CompiledSchema(schema, pk_field=pk_field, orderby=orderby,
                              strict=strict, clock=clock)
    # arrow in / arrow out: ValidateStage converts only rule-referenced
    # columns to pandas internally
    kwargs: Dict[str, Any] = {"batch_format": "pyarrow",
                              "batch_size": batch_size}
    ctor = {
        "compiled": compiled,
        "datastore_factory": datastore_factory,
        "collect": collect,
    }
    if concurrency is not None:
        # actor pool: schema compiled once per actor
        ds = ds.map_batches(ValidateStage, fn_constructor_kwargs=ctor,
                            concurrency=concurrency, **kwargs)
    else:
        # stateless tasks: the stage instance (small) ships with each task
        ds = ds.map_batches(ValidateStage(**ctor), **kwargs)
    if compiled.has_temporal:
        if not pk_field or not orderby:
            raise ValueError(
                "temporal rules require pk_field and orderby")
        from nacc_form_validator_ray.stages.partition import grouped_apply
        tgv = TemporalGroupValidator(compiled, datastore_factory)
        fast_specs = temporal_fast_specs(compiled)
        if fast_specs and collect == "full" and any(
                s["kind"] == "temporalrules" for s in fast_specs):
            # the vectorized temporalrules path defers messages; exact
            # message collection keeps the row path
            fast_specs = None
        vectorized = VectorTemporalPartition(compiled, fast_specs) \
            if fast_specs else None

        # ONE hash exchange on the primary key; subjects are grouped
        # inside each partition, so Ray-level overhead is per partition,
        # not per subject. Simple compare_with-previous/initial schemas
        # take the fully vectorized shift/ffill path.
        def temporal_partition(part: pd.DataFrame) -> pd.DataFrame:
            if vectorized is not None and _fast_dtypes_ok(
                    part, fast_specs, compiled):
                return vectorized(part)
            out = [tgv(group) for _, group in
                   part.groupby(pk_field, sort=False, dropna=False)]
            return pd.concat(out, ignore_index=True)

        ds = grouped_apply(ds, [pk_field], temporal_partition,
                           num_partitions=64,
                           isolate_heavy_frac=isolate_hot_subjects)
    return ds


# ------------------------------------------------- vectorized temporal


def _fast_dtypes_ok(part: pd.DataFrame, fast_specs, compiled) -> bool:
    """The vectorized temporal path evaluates RAW column values (it never
    runs cast_record), so it is only sound when every column a spec
    touches already arrives in its declared physical dtype — the norm for
    Parquet, never for CSV/object inputs. Covers compare_with operands
    AND every field referenced by temporalrules clauses (the round-1
    guard missed the latter: int-typed fields delivered as strings
    passed conditions the cast path fails)."""
    from nacc_form_validator_ray.keys import K
    cols = set()
    for s in fast_specs:
        if s["kind"] == "compare_with":
            cols.update((s["field"], s["base"]))
        else:
            cols.add(s["field"])
            for c in s["clauses"]:
                cols.update(c.get(K.PREVIOUS, {}))
                cols.update(c.get(K.CURRENT, {}))
    for col in cols:
        if col not in part.columns:
            continue  # missing column -> all-None either way
        dt = compiled.dtypes.get(col)
        s = part[col]
        if dt in ("int", "float"):
            if not pd.api.types.is_numeric_dtype(s):
                return False
        elif dt == "bool":
            if not pd.api.types.is_bool_dtype(s):
                return False
        elif dt in ("date", "datetime"):
            if not pd.api.types.is_datetime64_any_dtype(s):
                return False
        # str / undeclared: raw values are already rule-ready
    return True


_COND_RULES = {"allowed", "forbidden", "nullable", "filled"}


def _clauses_vectorizable(clauses) -> bool:
    from nacc_form_validator_ray.keys import K
    for c in clauses:
        if c.get(K.IGNORE_EMPTY) or c.get(K.INITIAL_RECORD):
            return False
        # curr-side AND guarantees exactly one error item per violation
        # (the reference short-circuits); OR would emit one per branch
        side_op = K.PREV_OP if c.get(K.SWAP_ORDER) else K.CURR_OP
        if c.get(side_op, "AND").upper() != "AND":
            return False
        for clause in (K.PREVIOUS, K.CURRENT):
            conds = c.get(clause, {})
            for f, r in conds.items():
                if set(r) - _COND_RULES:
                    return False
    return True


def temporal_fast_specs(compiled: CompiledSchema):
    """Profile the temporal schema for the vectorized fast path.

    Covered: fields whose rules are only {type, nullable, required} plus
    EITHER a numeric compare_with previous_record/initial_record (no
    adjustment/base_decimal) OR temporalrules whose clauses use only
    allowed/forbidden/nullable/filled conditions (no ignore_empty /
    initial_record, AND on the consequent side). Everything else keeps
    the exact row path. Returns a list of specs or None.
    """
    from nacc_form_validator_ray.keys import K
    specs = []
    for field, rules in compiled.temporal_schema.items():
        if set(rules) - {K.TYPE, K.NULLABLE, K.REQUIRED, K.COMPARE_WITH,
                         K.TEMPORALRULES}:
            return None
        tr = rules.get(K.TEMPORALRULES)
        cw = rules.get(K.COMPARE_WITH)
        if tr is not None and cw is None:
            if not _clauses_vectorizable(tr):
                return None
            specs.append({
                "kind": "temporalrules",
                "field": field,
                "clauses": tr,
                "nullable": bool(rules.get(K.NULLABLE, False)),
            })
            continue
        if not cw or tr is not None:
            return None
        prev = bool(cw.get(K.PREV_RECORD))
        initial = bool(cw.get(K.INITIAL_RECORD))
        if prev == initial:  # exactly one mode
            return None
        if cw.get(K.ADJUST) is not None or cw.get(K.BASE_DECIMAL):
            return None
        base = cw.get(K.BASE)
        if not isinstance(base, str):
            return None
        if compiled.dtypes.get(field) not in ("int", "float") or \
                compiled.dtypes.get(base) not in ("int", "float"):
            return None
        specs.append({
            "kind": "compare_with",
            "field": field,
            "base": base,
            "comparator": cw[K.COMPARATOR],
            "prev": prev,
            "ignore_empty": bool(cw.get(K.IGNORE_EMPTY, False)),
            "nullable": bool(rules.get(K.NULLABLE, False)),
        })
    return specs or None


class VectorTemporalPartition:
    """Whole-partition vectorized temporal evaluation: group-wise shifts
    and forward-fills replace the per-record previous/initial lookups, so
    a partition of thousands of subjects costs numpy kernels instead of
    per-row Python. Rows with a falsy primary key (reference: treated as
    'pk not set') get their exact two-error vector directly."""

    def __init__(self, compiled: CompiledSchema, specs):
        from nacc_form_validator_ray.errors import Codes, format_message
        self.compiled = compiled
        self.specs = specs
        self.codes = Codes
        self.fmt = format_message

    def __call__(self, part: pd.DataFrame) -> pd.DataFrame:
        from nacc_form_validator_ray.engine import _vec_compare
        from nacc_form_validator_ray.errors import Codes

        compiled = self.compiled
        pk, orderby = compiled.pk_field, compiled.orderby
        part = part.sort_values([pk, orderby], kind="stable") \
            .reset_index(drop=True)
        n = len(part)
        grouped = part.groupby(pk, sort=False, dropna=False)

        pk_vals = part[pk]
        falsy_pk = (pk_vals.isna() |
                    ~pk_vals.fillna(0).astype(bool)).to_numpy()

        passed = np.ones(n, dtype=bool)
        n_errors = np.zeros(n, dtype=np.int64)
        errors: List[List[Dict[str, Any]]] = [[] for _ in range(n)]

        def add_error(idx, field, code, rule, message):
            passed[idx] = False
            n_errors[idx] += 1
            errors[idx].append({"field": field, "code": int(code),
                                "rule": rule, "message": message})

        pk_shifted_vals = pk_vals.shift(1)
        first_of_group = ((pk_vals != pk_shifted_vals) & ~(
            pk_vals.isna() & pk_shifted_vals.isna())).to_numpy()
        if n:
            first_of_group[0] = True

        for spec in self.specs:
            if spec["kind"] == "temporalrules":
                self._eval_temporalrules(part, spec, add_error, falsy_pk,
                                         first_of_group, pk, n)
                continue
            field, base = spec["field"], spec["base"]
            visit_type = "previous" if spec["prev"] else "initial"
            comparison_str = (f"{field} {spec['comparator']} {base} "
                             f"({visit_type} record)")
            msg_fail = self.fmt(Codes.COMPARE_WITH, (comparison_str,))
            msg_noprev = self.fmt(Codes.COMPARE_WITH_PREV,
                                  (comparison_str, visit_type))

            value = pd.to_numeric(part[field], errors="coerce") \
                .to_numpy(np.float64)
            value_null = part[field].isna().to_numpy()

            if spec["nullable"] is False:
                for i in np.flatnonzero(value_null):
                    add_error(i, field, Codes.NOT_NULLABLE, "nullable",
                              self.fmt(Codes.NOT_NULLABLE))

            base_series = pd.to_numeric(part[base], errors="coerce")
            if spec["prev"]:
                if spec["ignore_empty"]:
                    shifted = base_series.groupby(
                        part[pk], sort=False, dropna=False).shift(1)
                    base_vals = shifted.groupby(
                        part[pk], sort=False, dropna=False).ffill()
                else:
                    base_vals = base_series.groupby(
                        part[pk], sort=False, dropna=False).shift(1)
            else:
                # the subject's literal first value, INCLUDING null
                # (groupby.first/transform('first') skip NaN, which would
                # silently repair a null initial record)
                base_vals = base_series.where(
                    pd.Series(first_of_group, index=part.index)).groupby(
                    part[pk], sort=False, dropna=False).ffill()
            base_np = base_vals.to_numpy(np.float64)
            base_null = np.isnan(base_np)

            ok = _vec_compare(spec["comparator"], value, value_null,
                              base_np, base_null)
            if spec["prev"] and spec["ignore_empty"]:
                # no nonempty history -> pass through validation
                viol = ~ok & ~base_null
                missing = np.zeros(n, dtype=bool)
            else:
                viol = ~ok & ~base_null
                missing = base_null
            viol &= ~falsy_pk
            missing = missing & ~falsy_pk

            code_missing = Codes.COMPARE_WITH_PREV if spec["prev"] \
                else Codes.COMPARE_WITH
            msg_missing = msg_noprev if spec["prev"] else msg_fail
            for i in np.flatnonzero(missing):
                add_error(i, field, code_missing, "compare_with",
                          msg_missing)
            for i in np.flatnonzero(viol):
                add_error(i, field, Codes.COMPARE_WITH, "compare_with",
                          msg_fail)

            # falsy pk: NO_PRIMARY_KEY (attributed to the base field,
            # reference nacc_validator.py:281-284 via field=base) + the
            # missing-record compare error
            msg_nopk = self.fmt(Codes.NO_PRIMARY_KEY, (pk,))
            for i in np.flatnonzero(falsy_pk):
                add_error(i, base, Codes.NO_PRIMARY_KEY, "temporalrules",
                          msg_nopk)
                if not (spec["prev"] and spec["ignore_empty"]):
                    # with ignore_empty the reference passes through when
                    # no record is retrievable (nacc_validator.py:1141)
                    add_error(i, field, code_missing, "compare_with",
                              msg_missing)


        out = part
        if "passed" in out.columns:
            out["passed"] = out["passed"].to_numpy(dtype=bool) & passed
            out["n_errors"] = out["n_errors"].to_numpy() + n_errors
            if "errors" in out.columns:
                merged = []
                for prev, new in zip(out["errors"].tolist(), errors):
                    prev = list(prev) if prev is not None else []
                    merged.append(prev + new)
                out["errors"] = merged
        else:
            out["passed"] = passed
            out["sys_failure"] = np.zeros(n, dtype=bool)
            out["n_errors"] = n_errors.astype(np.int32)
            out["errors"] = errors
        return out

    def _eval_temporalrules(self, part, spec, add_error, falsy_pk,
                            first_of_group, pk, n):
        """Vectorized temporalrules: condition masks (reusing the batch
        engine's evaluators) over group-shifted previous-record columns.
        Messages are deferred - codes-exact; collect='full' keeps the
        row path (see validate_dataset)."""
        from nacc_form_validator_ray.engine import VectorEvaluator
        from nacc_form_validator_ray.errors import Codes
        from nacc_form_validator_ray.keys import K

        ev = VectorEvaluator(self.compiled)
        field = spec["field"]

        def obj_frame(fields, shifted):
            cols = {}
            for f in fields:
                if f in part.columns:
                    s = part[f]
                    if shifted:
                        s = s.groupby(part[pk], sort=False,
                                      dropna=False).shift(1)
                else:
                    s = pd.Series([None] * n, index=part.index)
                arr = s.to_numpy(dtype=object, copy=True)
                arr[pd.isna(s).to_numpy()] = None
                cols[f] = arr
            return pd.DataFrame(cols, copy=False) if cols else \
                pd.DataFrame(index=range(n))

        if spec["nullable"] is False and field in part.columns:
            value_null = part[field].isna().to_numpy()
            for i in np.flatnonzero(value_null):
                add_error(i, field, Codes.NOT_NULLABLE, "nullable",
                          self.fmt(Codes.NOT_NULLABLE))

        has_prev = ~first_of_group & ~falsy_pk
        # a missing previous record errors once and stops the rule
        # (nacc_validator.py:862-866); a falsy pk fails the datastore
        # precondition first (0x2001) and then the same no-record path
        msg_noprev = self.fmt(Codes.NO_PREV_VISIT, ("previous",))
        msg_nopk = self.fmt(Codes.NO_PRIMARY_KEY, (pk,))
        for i in np.flatnonzero(falsy_pk):
            add_error(i, field, Codes.NO_PRIMARY_KEY, "temporalrules",
                      msg_nopk)
            add_error(i, field, Codes.NO_PREV_VISIT, "temporalrules",
                      msg_noprev)
        for i in np.flatnonzero(first_of_group & ~falsy_pk):
            add_error(i, field, Codes.NO_PREV_VISIT, "temporalrules",
                      msg_noprev)

        for clause in spec["clauses"]:
            swap = clause.get(K.SWAP_ORDER, False)
            prev_conds = clause[K.PREVIOUS]
            curr_conds = clause[K.CURRENT]
            prev_op = clause.get(K.PREV_OP, "AND").upper()
            curr_op = clause.get(K.CURR_OP, "AND").upper()
            prev_df = obj_frame(list(prev_conds), shifted=True)
            curr_df = obj_frame(list(curr_conds), shifted=False)
            ones_p = {f: np.ones(n, dtype=bool) for f in prev_df.columns}
            ones_c = {f: np.ones(n, dtype=bool) for f in curr_df.columns}
            if not swap:
                if_pass = ev.conds_pass_mask(prev_conds, prev_op,
                                             prev_df, ones_p)
                then_fail = ~ev.conds_pass_mask(curr_conds, curr_op,
                                                curr_df, ones_c)
                code = Codes.TEMPORAL
            else:
                if_pass = ev.conds_pass_mask(curr_conds, curr_op,
                                             curr_df, ones_c)
                then_fail = ~ev.conds_pass_mask(prev_conds, prev_op,
                                                prev_df, ones_p)
                code = Codes.TEMPORAL_SWAPPED
            viol = has_prev & if_pass & then_fail
            for i in np.flatnonzero(viol):
                add_error(i, field, code, "temporalrules", "")

