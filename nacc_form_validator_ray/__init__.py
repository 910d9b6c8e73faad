"""nacc_form_validator_ray — a Ray-Data-native data-quality / web-text
quality-filter engine.

A from-scratch re-expression of the naccdata/nacc-form-validator rule
engine (reference at /root/reference, studied for semantics only) as a
distributed Ray Data pipeline:

* ``rowval`` / ``quality_check`` — exact record-level rule semantics
  (Cerberus-style schema rules, jsonLogic, temporal checks).
* ``engine`` — the same rules evaluated over Arrow/pandas batches inside
  ``Dataset.map_batches``; vectorized fast paths, row fallback for the
  long tail.
* ``stages`` — web-scale operators: cast/validate stages, language ID,
  quality heuristics, PII scrubbing, dedup, similarity search.
* ``pipelines`` — end-to-end flagship pipelines (quality filter over
  Common-Crawl-style pages) with lineage/metrics and resume.
"""

from nacc_form_validator_ray.datastore import Datastore, InMemoryDatastore
from nacc_form_validator_ray.errors import Codes, ErrorEntry
from nacc_form_validator_ray.keys import K, SchemaDefs
from nacc_form_validator_ray.quality_check import (QualityCheck,
                                                   QualityCheckException)
from nacc_form_validator_ray.rowval import (RecordValidator,
                                            ValidationException)
from nacc_form_validator_ray.utils import Clock, compare_values

__all__ = [
    "Datastore",
    "InMemoryDatastore",
    "Codes",
    "ErrorEntry",
    "K",
    "SchemaDefs",
    "QualityCheck",
    "QualityCheckException",
    "RecordValidator",
    "ValidationException",
    "Clock",
    "compare_values",
]

__version__ = "0.1.1"
