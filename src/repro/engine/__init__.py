"""Batch execution engine: orchestration above the single algorithms.

The clustering modules implement one run of one algorithm; this
subpackage implements how production workloads actually invoke them —
many random restarts over shared precomputed moment/sample/pairwise-ÊD
caches, keeping the best result by objective.  ``n_jobs`` is the only
execution setting: each run-set executes on the backend
(:mod:`repro.engine.backends`) picked from it and the algorithm —
serial, thread pool (GIL-releasing NumPy kernels, zero serialization)
or process pool (moment matrices, sample tensor and ÊD matrix
published once via shared memory) — all bit-identical for fixed seeds,
with optional engine-level early stopping across restarts.  Sweep
results persist in the result
store (:mod:`repro.engine.store`): a single-file SQLite database with
SQL-side aggregation, exportable to (and importable from) a JSON
directory.
"""

from repro.engine.backends import (
    EarlyStopping,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SharedBlockRegistry,
    ThreadBackend,
    choose_backend,
    shared_block_registry,
)
from repro.engine.runner import MultiRestartRunner, RestartRecord, fit_runs
from repro.engine.store import (
    SqliteStore,
    export_store,
    import_store,
    open_store,
)

__all__ = [
    "EarlyStopping",
    "ExecutionBackend",
    "MultiRestartRunner",
    "ProcessBackend",
    "RestartRecord",
    "SerialBackend",
    "SharedBlockRegistry",
    "SqliteStore",
    "ThreadBackend",
    "choose_backend",
    "export_store",
    "fit_runs",
    "import_store",
    "open_store",
    "shared_block_registry",
]
