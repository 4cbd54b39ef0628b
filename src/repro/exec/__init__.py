"""repro.exec — the parallel execution subsystem.

Everything between "the scheduler decided these property classes must be
settled" and "here are their deterministic, typed results" lives in this
package:

* :mod:`repro.exec.executor` — the :class:`Executor` abstraction:
  :class:`SerialExecutor` (inline, lazy) and :class:`ProcessPoolExecutor`
  (forked workers stealing shards from one shared queue, with per-worker
  ``IpcEngine``/``SatContext`` affinity so clause reuse survives inside a
  worker).
* :mod:`repro.exec.scheduler` — :class:`DesignPlan` + :func:`run_plans`:
  shards properties within a design and designs within a batch, merges
  chunk outcomes back into the ordered event stream, assembles reports.
* :mod:`repro.exec.worker` — :class:`DesignWorkContext`, the per-design
  compute kernel (property build, structural discharge, SAT settle loop).
* :mod:`repro.exec.cache` / :mod:`repro.exec.fingerprint` — the persistent
  :class:`ResultCache`, content-addressed by SHA-256 fingerprints of the
  elaborated netlist, the semantic config, the class index and the record
  schema version.
* :mod:`repro.exec.records` — the JSON-native class-record round-trip shared
  by worker transport and cache persistence, plus the report normalization
  helpers used by determinism tests and benchmarks.

The session API (:mod:`repro.api.session`) is the one place that builds
plans and executors: a single design, a batch at any ``--jobs`` and a job
served by the audit daemon all plan and run through it.
"""

from repro.exec.cache import ResultCache
from repro.exec.executor import (
    ChunkOutcome,
    ChunkTask,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    create_executor,
)
from repro.exec.fingerprint import (
    CACHE_SCHEMA_VERSION,
    class_cache_key,
    config_fingerprint,
    module_fingerprint,
)
from repro.exec.records import (
    ClassResult,
    class_result_from_record,
    class_result_to_record,
    normalized_batch_report_dict,
    normalized_report_dict,
)
from repro.exec.scheduler import DesignPlan, run_plans, shard_indices
from repro.exec.worker import DesignWorkContext, WorkUnit

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ChunkOutcome",
    "ChunkTask",
    "ClassResult",
    "DesignPlan",
    "DesignWorkContext",
    "Executor",
    "ProcessPoolExecutor",
    "ResultCache",
    "SerialExecutor",
    "WorkUnit",
    "class_cache_key",
    "class_result_from_record",
    "class_result_to_record",
    "config_fingerprint",
    "create_executor",
    "module_fingerprint",
    "normalized_batch_report_dict",
    "normalized_report_dict",
    "run_plans",
    "shard_indices",
]
