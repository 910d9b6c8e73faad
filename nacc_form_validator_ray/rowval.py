"""Record-level rule evaluator — the semantic core of the engine.

This is a from-scratch implementation of the reference's rule semantics
(/root/reference/nacc_form_validator/nacc_validator.py) with no Cerberus
dependency. It evaluates ONE record dict against a schema-as-data rule
program and produces the per-record error vector (codes + formatted
messages) and pass/fail bit.

Role in the Ray engine: the batch engine (engine.py) evaluates rules
column-vectorized wherever the rule family allows and falls back to this
evaluator row-wise for the rest; it is also the differential-testing oracle
for the vectorized paths. Unlike the reference — which builds a fresh
sub-validator per condition-field per record
(nacc_validator.py:615-630, its dominant cost) — sub-validators here are
compiled once per rule object and cached, so per-record work is evaluation
only.

Rule evaluation contract (matching Cerberus 1.3.x public behavior, which the
reference inherits):

* a field missing from the document triggers only ``required``;
* ``nullable`` runs first; a None value drops the built-in value rules
  (type/allowed/anyof/min/max/regex/forbidden) but custom rules still run;
  the engine additionally drops ``compare_age`` for None values
  (nacc_validator.py:419-427);
* a failed ``type`` check drops all remaining rules for the field;
* remaining rules run in schema-declaration order.
"""

from __future__ import annotations

import copy
import math
import numbers
import re
from datetime import date, datetime
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from nacc_form_validator_ray import utils
from nacc_form_validator_ray.datastore import Datastore
from nacc_form_validator_ray.errors import (Codes, ErrorEntry, format_message)
from nacc_form_validator_ray.json_logic import json_logic
from nacc_form_validator_ray.keys import K


class ValidationException(Exception):
    """Raised when a system error occurs during validation (bad rule
    definition, missing datastore, ...). Maps to ``sys_failure=True``."""


#: cerberus type name -> python dtype tag (nacc_validator.py:78-96)
TYPE_TAGS = {
    "integer": "int",
    "string": "str",
    "float": "float",
    "boolean": "bool",
    "date": "date",
    "datetime": "datetime",
}

#: type name -> isinstance() targets. "float" accepts ints, "integer"
#: accepts bools (Integral), "date" accepts datetimes — Cerberus-compatible.
PY_TYPES: Dict[str, tuple] = {
    "integer": (numbers.Integral,),
    "string": (str,),
    "float": (float, numbers.Integral),
    "boolean": (bool,),
    "date": (date,),
    "datetime": (datetime,),
}

#: built-in rules skipped when the value is None (Cerberus nullable
#: semantics) — custom rules (filled/compatibility/logic/...) still run.
NULL_DROPPED = frozenset({
    "allowed", "anyof", "empty", "forbidden", "items", "min", "max",
    "minlength", "maxlength", "noneof", "regex", "schema", "type",
    "valuesrules",
})

#: rules handled out-of-band, never dispatched from the queue
NON_QUEUE = frozenset({"required", "nullable", "meta"})


def build_dtype_map(schema: Mapping[str, Mapping[str, Any]]) -> Dict[str, str]:
    """field -> dtype tag for every typed field in the schema."""
    out: Dict[str, str] = {}
    for field, rules in (schema or {}).items():
        declared = rules.get(K.TYPE)
        if declared is None:
            continue
        # multi-type unions keep the first resolvable tag for casting
        names = declared if isinstance(declared, list) else [declared]
        for name in names:
            if name in TYPE_TAGS:
                out[field] = TYPE_TAGS[name]
                break
    return out


def cast_value(value: Any, dtype: str) -> Any:
    """Cast one raw value to ``dtype``; raises on failure."""
    if dtype == "int":
        return int(value)
    if dtype == "float":
        return float(value)
    if dtype == "bool":
        return bool(value)
    if dtype == "date":
        return utils.parse_date(value)
    if dtype == "datetime":
        return utils.parse_datetime(value)
    return value


class RecordValidator:
    """Evaluate a rule schema against single records."""

    def __init__(self,
                 schema: Mapping[str, Mapping[str, Any]],
                 allow_unknown: bool = False,
                 primary_key: Optional[str] = None,
                 datastore: Optional[Datastore] = None,
                 parent_dtypes: Optional[Dict[str, str]] = None,
                 clock: Optional[utils.Clock] = None):
        self.schema = dict(schema or {})
        self.allow_unknown = allow_unknown
        self.primary_key = primary_key
        self.datastore = datastore
        self.parent_dtypes = parent_dtypes
        self.clock = clock or utils.Clock()

        self.dtypes: Dict[str, str] = build_dtype_map(self.schema)
        if parent_dtypes:
            # subschema validators inherit dtypes for fields they don't
            # declare (nacc_validator.py:171-190)
            for field in self.schema:
                if field not in self.dtypes and field in parent_dtypes:
                    self.dtypes[field] = parent_dtypes[field]

        self.document: Dict[str, Any] = {}
        self._entries: List[ErrorEntry] = []
        #: field -> list of (rule, seq, message, child_errors)
        self._messages: Dict[str, List[Any]] = {}
        self._sys_errors: Dict[str, List[str]] = {}

        # caches: compiled sub-validators by rule-object identity; previous /
        # initial records by subject id (cleared per record batch)
        self._sub_validators: Dict[int, "RecordValidator"] = {}
        self._prev_records: Dict[Any, Optional[Dict[str, Any]]] = {}
        self._initial_records: Dict[Any, Dict[str, Any]] = {}

        # plugin surface for the `function` rule
        self._functions: Dict[str, Callable] = dict(self.FUNCTIONS)

    # ------------------------------------------------------------------ API

    FUNCTIONS: Dict[str, Callable] = {}

    @classmethod
    def register_function(cls, name: str, fn: Callable) -> None:
        """Register ``{"function": {"name": name}}`` -> fn(validator, field,
        value, **kwargs) for all future validator instances."""
        cls.FUNCTIONS[name] = fn

    @property
    def errors(self) -> Dict[str, List[Any]]:
        """Formatted messages by field, sorted by rule name within a field
        (Cerberus sorts ValidationErrors by schema path, which the
        reference's asserted error shapes rely on)."""
        out: Dict[str, List[Any]] = {}
        for field, items in self._messages.items():
            # rule names ascending; within one rule, reverse insertion order
            # (cerberus's error sort is non-strict on equal schema paths, so
            # its binary-insertion sort front-inserts equal errors; the
            # reference's asserted error lists encode that order)
            ordered = sorted(items, key=lambda t: (t[0], -t[1]))
            bucket: List[Any] = []
            for _rule, _seq, payload, children in ordered:
                bucket.append(payload)
                if children is not None:
                    bucket.append(children)
            out[field] = bucket
        return out

    @property
    def error_entries(self) -> List[ErrorEntry]:
        """The flat error vector with stable codes."""
        return self._entries

    @property
    def sys_errors(self) -> Dict[str, List[str]]:
        return self._sys_errors

    def reset_sys_errors(self) -> None:
        self._sys_errors.clear()

    def reset_record_cache(self) -> None:
        self._prev_records.clear()

    def cast_record(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Cast raw (string) values per the dtype map.

        ``"" -> None``; cast failures keep the original value (which then
        fails the type check); missing schema fields are injected as None
        (nacc_validator.py:207-257). Only ``str`` values are compared with
        ``""``: a record may carry array-valued columns (the local stage's
        ``errors``), whose ``==`` is elementwise.
        """
        for key, value in record.items():
            if isinstance(value, str) and value == "":
                record[key] = None
                continue
            if value is None:
                continue
            dtype = self.dtypes.get(key)
            if dtype and dtype != "str":
                try:
                    record[key] = cast_value(value, dtype)
                except (ValueError, TypeError):
                    record[key] = value
        for key in self.schema:
            if key not in record:
                record[key] = None
        return record

    def validate(self,
                 document: Dict[str, Any],
                 normalize: bool = False) -> bool:
        """Evaluate all rules; returns the pass bit. ``normalize`` is
        accepted for signature compatibility and ignored (records are cast
        explicitly via :meth:`cast_record`)."""
        self.document = document
        self._entries = []
        self._messages = {}

        if not self.allow_unknown:
            for key in document:
                if key not in self.schema:
                    self._error(key, Codes.UNKNOWN_FIELD, rule="unknown")

        for field, rules in self.schema.items():
            if field not in document:
                if rules.get(K.REQUIRED):
                    self._error(field, Codes.REQUIRED, rule="required")
                continue
            self._validate_field(field, rules, document[field])

        return not self._messages

    # -------------------------------------------------------- field driver

    def _validate_field(self, field: str, rules: Mapping[str, Any],
                        value: Any) -> None:
        queue: List[str] = []
        if "type" in rules:
            queue.append("type")
        for name in rules:
            if name in NON_QUEUE or name == "type":
                continue
            queue.append(name)

        dropped: set = set()
        if value is None:
            if not rules.get(K.NULLABLE, False):
                self._error(field, Codes.NOT_NULLABLE, rule="nullable")
            dropped |= NULL_DROPPED
            dropped.add("compare_age")

        for name in queue:
            if name in dropped:
                continue
            handler = getattr(self, f"_rule_{name}", None)
            if handler is None:
                raise ValidationException(
                    f"unknown rule '{name}' for field '{field}'")
            ok = handler(rules[name], field, value)
            if name == "type" and ok is False:
                break  # type failure drops all remaining rules

    # ----------------------------------------------------- error plumbing

    def _error(self,
               field: str,
               code: int,
               *info: Any,
               rule: str = "",
               constraint: Any = None,
               value: Any = None,
               child_errors: Optional[Dict[str, Any]] = None) -> None:
        custom = (self.schema.get(field, {}).get(K.META, {})
                  or {}).get(K.ERRMSG)
        if custom:
            message = f"{field}: {custom}"
        else:
            message = format_message(code, info, constraint, field, value)
        self._entries.append(ErrorEntry(field, code, rule, message))
        bucket = self._messages.setdefault(field, [])
        bucket.append((rule, len(bucket), message, child_errors or None))

    def _sys_error(self, field: str, message: str) -> None:
        self._sys_errors.setdefault(field, []).append(message)

    # ------------------------------------------------------ value helpers

    def _value_for_key(self, key: Any, return_self: bool = True) -> Any:
        """Resolve a rule operand: current_* sentinel, document field, or
        literal (nacc_validator.py:361-390)."""
        if key == K.CRR_DATE:
            return self.clock.today()
        if key == K.CRR_YEAR:
            return self.clock.today().year
        if key == K.CRR_MONTH:
            return self.clock.today().month
        if key == K.CRR_DAY:
            return self.clock.today().day
        if self.document and key in self.document:
            return self.document[key]
        return key if return_self else None

    # ------------------------------------------------------ builtin rules

    def _rule_type(self, declared: Any, field: str, value: Any) -> bool:
        names = declared if isinstance(declared, list) else [declared]
        for name in names:
            targets = PY_TYPES.get(name)
            if targets and isinstance(value, targets):
                return True
        self._error(field, Codes.BAD_TYPE, rule="type",
                    constraint=declared, value=value)
        return False

    def _rule_allowed(self, allowed: List[Any], field: str,
                      value: Any) -> None:
        if value not in allowed:
            self._error(field, Codes.UNALLOWED_VALUE, rule="allowed",
                        constraint=allowed, value=value)

    def _rule_forbidden(self, forbidden: List[Any], field: str,
                        value: Any) -> None:
        if value in forbidden:
            self._error(field, Codes.FORBIDDEN_VALUE, rule="forbidden",
                        constraint=forbidden, value=value)

    def _rule_regex(self, pattern: str, field: str, value: Any) -> None:
        if not isinstance(value, str):
            return
        anchored = pattern if pattern.endswith("$") else pattern + "$"
        if not re.match(anchored, value):
            self._error(field, Codes.REGEX_MISMATCH, rule="regex",
                        constraint=pattern, value=value)

    def _rule_anyof(self, definitions: List[Mapping[str, Any]], field: str,
                    value: Any) -> None:
        child_errors: Dict[str, Any] = {}
        for i, definition in enumerate(definitions):
            child_rules = dict(definition)
            if K.TYPE not in child_rules and K.TYPE in self.schema[field]:
                child_rules[K.TYPE] = self.schema[field][K.TYPE]
            sub = self._sub_validator(field, child_rules, cache_key=("anyof",
                                                                     id(definition)))
            if sub.validate(self.document):
                return
            child_errors[f"anyof definition {i}"] = sub.errors.get(field, [])
        self._error(field, Codes.ANYOF, rule="anyof",
                    constraint=definitions, value=value,
                    child_errors=child_errors)

    def _rule_formatting(self, formatting: str, field: str,
                         value: Any) -> None:
        # placeholder rule: annotates a string field as a date/datetime for
        # min/max; attaching to a non-string field is a definition error
        if self.dtypes.get(field) != "str":
            msg = "formatting definition not supported for non string types"
            self._sys_error(field, msg)
            raise ValidationException(msg)

    def _rule_minlength(self, bound: int, field: str, value: Any) -> None:
        if hasattr(value, "__len__") and len(value) < bound:
            self._error(field, Codes.MIN_VALUE, rule="minlength",
                        constraint=bound, value=value)

    def _rule_maxlength(self, bound: int, field: str, value: Any) -> None:
        if hasattr(value, "__len__") and len(value) > bound:
            self._error(field, Codes.MAX_VALUE, rule="maxlength",
                        constraint=bound, value=value)

    def _rule_filled(self, filled: bool, field: str, value: Any) -> None:
        if not filled and value is not None:
            self._error(field, Codes.FILLED_FALSE, rule="filled")
        elif filled and value is None:
            self._error(field, Codes.FILLED_TRUE, rule="filled")

    # ------------------------------------------------------------ min/max

    def _convert_for_bound(self, target: Any, field: str, value: Any,
                           error_code: int, default_dtype: str,
                           rule: str) -> Optional[date]:
        """Convert ``value`` to a date for current_date/current_year bounds
        (nacc_validator.py:429-461)."""
        dtype = self.dtypes.get(field, default_dtype)
        try:
            if dtype == "str":
                return utils.parse_date(value)
            if dtype == "date":
                return value
            if dtype == "datetime":
                return value.date()
            if dtype == "int" and target == K.CRR_YEAR:
                return datetime(value, 1, 1).date()
            self._error(field, error_code,
                        f"{target} not supported for {dtype} datatype",
                        rule=rule)
            return None
        except (ValueError, TypeError) as err:
            self._error(field, error_code, str(err), rule=rule)
            return None

    def _formatted_bound(self, target: Any, field: str, value: Any,
                         error_code: int, rule: str) -> Tuple[Any, Any]:
        """Apply the field's ``formatting`` conversion to both bound and
        value (nacc_validator.py:463-493)."""
        fmt = self.schema[field].get(K.FORMATTING)
        if fmt is None:
            return target, value
        conv = getattr(utils, f"convert_to_{fmt}", None)
        if not callable(conv):
            msg = f"convert_to_{fmt} not defined in the validator module"
            self._sys_error(field, msg)
            raise ValidationException(msg)
        try:
            return conv(target), conv(value)
        except (AttributeError, TypeError, ValueError) as err:
            self._error(field, error_code, str(err), rule=rule)
            return None, None

    def _bound_check(self, kind: str, bound: Any, field: str,
                     value: Any) -> None:
        is_max = kind == "max"
        invalid_code = Codes.INVALID_DATE_MAX if is_max else Codes.INVALID_DATE_MIN
        if bound in (K.CRR_DATE, K.CRR_YEAR):
            default_dtype = "int" if bound == K.CRR_YEAR else "str"
            as_date = self._convert_for_bound(bound, field, value,
                                              invalid_code, default_dtype,
                                              kind)
            if not as_date:
                return
            today = self.clock.today()
            if bound == K.CRR_DATE:
                if is_max and as_date > today:
                    self._error(field, Codes.CURR_DATE_MAX, str(today),
                                rule="max")
                elif not is_max and as_date < today:
                    self._error(field, Codes.CURR_DATE_MIN, str(today),
                                rule="min")
            else:
                if is_max and as_date.year > today.year:
                    self._error(field, Codes.CURR_YEAR_MAX, today.year,
                                rule="max")
                elif not is_max and as_date.year < today.year:
                    self._error(field, Codes.CURR_YEAR_MIN, today.year,
                                rule="min")
            return

        converted_bound, converted_value = self._formatted_bound(
            bound, field, value, invalid_code, kind)
        if converted_bound is None and converted_value is None \
                and self.schema[field].get(K.FORMATTING):
            return
        try:
            if is_max and converted_value > converted_bound:
                self._error(field, Codes.MAX_VALUE, rule="max",
                            constraint=bound, value=value)
            elif not is_max and converted_value < converted_bound:
                self._error(field, Codes.MIN_VALUE, rule="min",
                            constraint=bound, value=value)
        except TypeError:
            pass

    def _rule_max(self, bound: Any, field: str, value: Any) -> None:
        self._bound_check("max", bound, field, value)

    def _rule_min(self, bound: Any, field: str, value: Any) -> None:
        self._bound_check("min", bound, field, value)

    # --------------------------------------------- subschema combinators

    def _sub_validator(self, field: str, conds: Mapping[str, Any],
                       cache_key: Any = None) -> "RecordValidator":
        """Compile-once-cache a validator for ``{field: conds}``."""
        key = cache_key if cache_key is not None else (field, id(conds))
        cached = self._sub_validators.get(key)
        if cached is not None:
            return cached[1]
        sub = RecordValidator(
            {field: conds},
            allow_unknown=True,
            primary_key=self.primary_key,
            datastore=self.datastore,
            parent_dtypes=self.parent_dtypes or self.dtypes,
            clock=self.clock,
        )
        # hold a reference to the rule object so its id() stays unique for
        # the life of this cache (keys are id-based)
        self._sub_validators[key] = (conds, sub)
        return sub

    def _check_subschema_valid(
            self,
            all_conditions: Mapping[str, Any],
            operator: str,
            record: Optional[Dict[str, Any]] = None
    ) -> Tuple[bool, Dict[str, Any]]:
        """AND/OR-merge per-field condition checks
        (nacc_validator.py:589-649). OR short-circuits and discards errors
        on success; AND stops at the first failing field."""
        if not record:
            record = self.document
        valid = operator != "OR"
        errors: Dict[str, Any] = {}
        for field, conds in all_conditions.items():
            sub = self._sub_validator(field, conds)
            if operator == "OR":
                valid = valid or sub.validate(record)
                if valid:
                    return True, {}
                errors.update(sub.errors)
            elif not sub.validate(record):
                valid = False
                errors = dict(sub.errors)
                break
        return valid, errors

    def _rule_compatibility(self, constraints: List[Mapping], field: str,
                            value: Any) -> None:
        """if/then/else cross-field constraints
        (nacc_validator.py:652-756)."""
        rule_no = -1
        for constraint in constraints:
            if_op = constraint.get(K.IF_OP, "AND").upper()
            then_op = constraint.get(K.THEN_OP, "AND").upper()
            else_op = constraint.get(K.ELSE_OP, "AND").upper()
            rule_no = constraint.get(K.INDEX, rule_no + 1)

            if_conds = constraint[K.IF]
            then_conds = constraint[K.THEN]
            else_conds = constraint.get(K.ELSE)

            code = Codes.COMPATIBILITY
            errors: Optional[Dict[str, Any]] = None
            satisfied, _ = self._check_subschema_valid(if_conds, if_op)
            if satisfied:
                _, errors = self._check_subschema_valid(then_conds, then_op)
                clause = then_conds
            elif else_conds:
                _, errors = self._check_subschema_valid(else_conds, else_op)
                code = Codes.COMPATIBILITY_ELSE
                clause = else_conds
            else:
                continue

            if errors:
                for item in errors.items():
                    self._error(field, code, rule_no, str(item), if_conds,
                                clause, rule="compatibility")

    def _rule_temporalrules(self, temporalrules: List[Mapping], field: str,
                            value: Any) -> None:
        """Longitudinal cross-visit checks (nacc_validator.py:759-913)."""
        rule_no = -1
        for rule in temporalrules:
            swap_order = rule.get(K.SWAP_ORDER, False)
            ignore_empty = rule.get(K.IGNORE_EMPTY)
            initial_record = rule.get(K.INITIAL_RECORD, False)

            if initial_record and ignore_empty:
                msg = ("Cannot specify both initial_record and ignore_empty "
                       "in temporalrule")
                self._sys_error(field, msg)
                raise ValidationException(msg)

            visit_type = "initial" if initial_record else "previous"
            rule_no = rule.get(K.INDEX, rule_no + 1)
            if isinstance(ignore_empty, str):
                ignore_empty = [ignore_empty]

            if initial_record:
                prev_ins = self._get_initial_record(field)
            else:
                prev_ins = self._get_previous_record(field, ignore_empty)

            if not prev_ins:
                if ignore_empty:
                    continue
                self._error(field, Codes.NO_PREV_VISIT, visit_type,
                            rule="temporalrules")
                return

            prev_op = rule.get(K.PREV_OP, "AND").upper()
            curr_op = rule.get(K.CURR_OP, "AND").upper()
            prev_conds = rule[K.PREVIOUS]
            curr_conds = rule[K.CURRENT]

            code = Codes.TEMPORAL
            if not swap_order:
                satisfied, _ = self._check_subschema_valid(prev_conds,
                                                           prev_op,
                                                           record=prev_ins)
                if not satisfied:
                    continue
                valid, errors = self._check_subschema_valid(curr_conds,
                                                            curr_op)
            else:
                code = Codes.TEMPORAL_SWAPPED
                satisfied, _ = self._check_subschema_valid(curr_conds,
                                                           curr_op)
                if not satisfied:
                    continue
                valid, errors = self._check_subschema_valid(prev_conds,
                                                            prev_op,
                                                            record=prev_ins)

            if not valid and errors:
                for item in errors.items():
                    self._error(field, code, rule_no, str(item), prev_conds,
                                curr_conds, visit_type, rule="temporalrules")

    # -------------------------------------------------- datastore access

    def _ensure_datastore(self, field: str) -> bool:
        if not self.datastore:
            msg = "Datastore not set, cannot validate temporal rules"
            self._sys_error(field, msg)
            raise ValidationException(msg)
        if not self.primary_key:
            msg = "Primary key field not set, cannot validate temporal rules"
            self._sys_error(field, msg)
            raise ValidationException(msg)
        if self.primary_key not in self.document or \
                not self.document[self.primary_key]:
            self._error(field, Codes.NO_PRIMARY_KEY, self.primary_key,
                        rule="temporalrules")
            return False
        return True

    def _get_previous_record(
            self,
            field: str,
            ignore_empty_fields: Optional[List[str]] = None
    ) -> Optional[Dict[str, Any]]:
        if not self._ensure_datastore(field):
            return None
        record_id = self.document[self.primary_key]
        if not ignore_empty_fields and record_id in self._prev_records:
            return self._prev_records[record_id]
        if ignore_empty_fields:
            prev_ins = self.datastore.get_previous_nonempty_record(
                self.document, ignore_empty_fields)
        else:
            prev_ins = self.datastore.get_previous_record(self.document)
        if prev_ins:
            prev_ins = self.cast_record(prev_ins)
        if not ignore_empty_fields:
            self._prev_records[record_id] = prev_ins
        return prev_ins

    def _get_initial_record(self, field: str) -> Optional[Dict[str, Any]]:
        if not self._ensure_datastore(field):
            return None
        record_id = self.document[self.primary_key]
        if record_id in self._initial_records:
            return self._initial_records[record_id]
        initial = self.datastore.get_initial_record(self.document)
        if initial:
            initial = self.cast_record(initial)
            self._initial_records[record_id] = initial
        return initial

    # -------------------------------------------------------- logic rule

    def _rule_logic(self, logic: Mapping[str, Any], field: str,
                    value: Any) -> None:
        formula = logic[K.FORMULA]
        err_msg = logic.get(K.ERRMSG) or \
            f"value {value} does not satisfy the specified formula"
        try:
            if not json_logic(formula, self.document):
                self._error(field, Codes.FORMULA, err_msg, rule="logic")
        except ValueError as err:
            self._error(field, Codes.FORMULA, str(err), rule="logic")

    # ------------------------------------------------------ function rule

    def _rule_function(self, function: Mapping[str, Any], field: str,
                       value: Any) -> None:
        name = function.get(K.FUNCTION_NAME, "undefined")
        kwargs = function.get(K.FUNCTION_ARGS, {})
        fn = self._functions.get(name)
        if fn is not None:
            fn(self, field, value, **kwargs)
            return
        method = getattr(self, f"_{name}", None)
        if callable(method):
            method(field, value, **kwargs)
            return
        msg = f"_{name} not defined in the validator module"
        self._sys_error(field, msg)
        raise ValidationException(msg)

    # ----------------------------------------------------- compute_gds

    def _rule_compute_gds(self, keys: List[str], field: str,
                          value: Any) -> None:
        """Geriatric-Depression-Scale checksum (nacc_validator.py:980-1037):
        the stored total must equal the recomputed (possibly prorated)
        horizontal sum."""
        nogds = self.document.get("nogds", 0)
        num_valid = 0
        gds = 0
        for key in keys:
            if key in self.document and self.document[key] in (1, 0):
                num_valid += 1
                gds += self.document[key]

        if nogds == 1:
            if value != 88:
                self._error(field, Codes.CHECK_GDS_1, 0, rule="compute_gds")
            if num_valid >= 12:
                self._error(field, Codes.CHECK_GDS_2, 1, rule="compute_gds")
            return

        if num_valid == 15 and gds != value:
            self._error(field, Codes.CHECK_GDS_3, 2, value, gds,
                        rule="compute_gds")
            return

        num_unanswered = 15 - num_valid
        if num_unanswered <= 3:
            raw = gds + (gds / num_valid) * num_unanswered
            prorated = int(math.floor(raw + 0.5))  # 0.5 rounds up
            if prorated != value:
                self._error(field, Codes.CHECK_GDS_4, 3, value, prorated,
                            rule="compute_gds")

        if (not nogds or nogds == 0) and num_valid < 12:
            self._error(field, Codes.CHECK_GDS_5, 4, rule="compute_gds")

    # ----------------------------------------------------- compare_with

    def _rule_compare_with(self, comparison: Mapping[str, Any], field: str,
                           value: Any) -> None:
        """``field {cmp} base {op} adjustment`` with previous/initial-record
        bases and the base_decimal tenths merge
        (nacc_validator.py:1039-1183)."""
        comparator = comparison[K.COMPARATOR]
        base = comparison[K.BASE]
        base_decimal = comparison.get(K.BASE_DECIMAL)
        adjustment = comparison.get(K.ADJUST)
        operator = comparison.get(K.OP)
        prev_record = comparison.get(K.PREV_RECORD, False)
        ignore_empty = comparison.get(K.IGNORE_EMPTY, False)
        initial_record = comparison.get(K.INITIAL_RECORD, False)

        if prev_record and initial_record:
            msg = ("Cannot specify both prev_record and initial_record for "
                   "comparison rule")
            self._sys_error(field, msg)
            raise ValidationException(msg)
        if initial_record and ignore_empty:
            msg = ("Cannot specify both initial_record and ignore_empty for "
                   "comparison rule")
            self._sys_error(field, msg)
            raise ValidationException(msg)

        visit_type = "initial" if initial_record else "previous"
        base_str = f"{base} ({visit_type} record)" if (
            prev_record or initial_record) else base
        comparison_str = f"{field} {comparator} {base_str}"
        if adjustment and operator:
            if operator == "abs":
                comparison_str = \
                    f"abs({field} - {base_str}) {comparator} {adjustment}"
            else:
                comparison_str += f" {operator} {adjustment}"

        if prev_record or initial_record:
            if prev_record:
                record = self._get_previous_record(
                    field=base,
                    ignore_empty_fields=[base] if ignore_empty else None)
                if not record and ignore_empty:
                    return
            else:
                record = self._get_initial_record(field=base)
            base_val = record[base] if record else None
            base_decimal_value = record.get(base_decimal) \
                if record and base_decimal else None
        else:
            base_val = self._value_for_key(base)
            base_decimal_value = self._value_for_key(base_decimal) \
                if base_decimal else None

        if base_val is None:
            code = Codes.COMPARE_WITH_PREV if prev_record else \
                Codes.COMPARE_WITH
            self._error(field, code, comparison_str, visit_type,
                        rule="compare_with")
            return

        if base_decimal_value:
            base_val += base_decimal_value / 10.0

        try:
            adjusted = base_val
            if adjustment and operator:
                adjustment = self._value_for_key(adjustment)
                if operator == "+":
                    adjusted = base_val + adjustment
                elif operator == "-":
                    adjusted = base_val - adjustment
                elif operator == "*":
                    adjusted = base_val * adjustment
                elif operator == "/":
                    adjusted = base_val / adjustment
                elif operator == "abs":
                    value = abs(value - base_val)
                    adjusted = adjustment
            if not utils.compare_values(comparator, value, adjusted):
                self._error(field, Codes.COMPARE_WITH, comparison_str,
                            rule="compare_with")
        except (TypeError, ValueError):
            self._error(field, Codes.COMPARE_WITH, comparison_str,
                        rule="compare_with")

    # ------------------------------------------------------ compare_age

    def _rule_compare_age(self, comparison: Mapping[str, Any], field: str,
                          value: Any) -> None:
        """Age at a date field vs a list of fields/constants
        (nacc_validator.py:1229-1335). Age = (date - birth_date).days /
        365.25 with birth date assembled from birth_year/month/day."""
        comparator = comparison[K.COMPARATOR]
        compare_to = comparison[K.COMPARE_TO]
        if isinstance(compare_to, (str, int)):
            compare_to = [compare_to]

        try:
            as_date = utils.parse_date(value)
        except (ValueError, TypeError) as err:
            self._error(field, Codes.AGE_DATE_CONVERSION, value, err,
                        rule="compare_age")
            return

        comparison_str = (f"age at {field} {comparator} "
                          f"{', '.join(map(str, compare_to))}")

        birth_month = self._value_for_key(comparison.get(K.BIRTH_MONTH, 1))
        birth_day = self._value_for_key(comparison.get(K.BIRTH_DAY, 1))
        birth_year = self._value_for_key(comparison[K.BIRTH_YEAR])
        # only integral components are accepted (reference formats them with
        # ':02d', nacc_validator.py:1310-1315)
        components = (birth_year, birth_month, birth_day)
        if not all(isinstance(x, numbers.Integral) for x in components):
            self._error(field, Codes.INVALID_BIRTH_DATES, rule="compare_age")
            return
        try:
            birth_date = date(int(birth_year), int(birth_month),
                              int(birth_day))
        except (TypeError, ValueError):
            self._error(field, Codes.INVALID_BIRTH_DATES, rule="compare_age")
            return

        age = (as_date - birth_date).days / 365.25

        for compare_field in compare_to:
            compare_value = self._value_for_key(compare_field)
            try:
                if not utils.compare_values(comparator, age, compare_value):
                    self._error(field, Codes.COMPARE_AGE, compare_field,
                                comparison_str, rule="compare_age")
            except TypeError as err:
                self._error(field, Codes.COMPARE_AGE_INVALID_COMPARISON,
                            compare_field, field, age, str(err),
                            rule="compare_age")

    # ------------------------------------------- function-rule built-ins

    def _check_rxcui(self, field: str, value: Optional[int],
                     target_date_field: Optional[str] = None) -> None:
        """Drug-ID vocabulary membership (nacc_validator.py:1185-1227)."""
        if not value or value == 0:
            return
        if not self.datastore:
            msg = "Datastore not set, cannot validate RXNORM codes"
            self._sys_error(field, msg)
            raise ValidationException(msg)

        target_date_value = None
        if target_date_field is not None:
            target_date_str = self._value_for_key(target_date_field)
            try:
                target_date_value = utils.parse_date(target_date_str)
            except (ValueError, TypeError) as err:
                self._error(field, Codes.RXCUI_DATE_CONVERSION,
                            target_date_str, err, rule="function")
                return

        if not self.datastore.is_valid_rxcui(value, target_date_value):
            if target_date_value is not None:
                self._error(field, Codes.RXCUI_DATED, value,
                            str(target_date_value), rule="function")
            else:
                self._error(field, Codes.RXCUI, value, rule="function")

    def _check_adcid(self, field: str, value: int, own: bool = True) -> None:
        """Center-ID membership (nacc_validator.py:1337-1360)."""
        if not self.datastore:
            msg = "Datastore not set, cannot validate ADCID"
            self._sys_error(field, msg)
            raise ValidationException(msg)
        if not self.datastore.is_valid_adcid(value, own):
            self._error(
                field, Codes.ADCID_NOT_MATCH if own else Codes.ADCID_NOT_VALID,
                value, rule="function")

    def _score_variables(self,
                         field: str,
                         value: int,
                         mode: str,
                         scoring_key: Mapping[str, Any],
                         logic: Mapping[str, Any],
                         calc_var_name: str = "__total_sum") -> None:
        """Count correct/incorrect fields vs a scoring key and run a logic
        formula over the computed total (nacc_validator.py:1362-1435).
        Skipped if any key is missing/blank."""
        total = 0
        for key, correct_value in scoring_key.items():
            if self.document.get(key) is None:
                return
            correct = self.document[key] == correct_value
            if (correct and mode == "correct") or \
                    (not correct and mode == "incorrect"):
                total += 1

        if calc_var_name in self.document:
            raise ValueError(
                f"{calc_var_name} already exists in record, cannot use "
                "as calc_var_name")

        record = copy.deepcopy(dict(self.document))
        record[calc_var_name] = total
        # cache on the schema-owned logic object, not the per-record wrapper
        sub = self._sub_validator(field, {"nullable": True, "logic": logic},
                                  cache_key=("score", field, id(logic)))
        if not sub.validate(record):
            for _ in sub.errors.items():
                self._error(field, Codes.SCORING_INVALID, value,
                            rule="function")
