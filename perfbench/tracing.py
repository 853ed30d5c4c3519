"""Spans and counters around the calls into each layer of the library.

Nothing under ``src/`` knows about this module.  :func:`install` rebinds
the public names that the experiment runners, the sweep orchestrator,
the engine and the evaluation protocol call — in every loaded ``repro``
module that imported them — and patches the few methods that are layer
boundaries (a clusterer's ``fit``, the dataset's ``sample_tensor`` and
``pairwise_ed``, the SQLite store's reads, writes and queries).

A span records its layer, start, end and parent.  Spans stay in memory
and are written out as JSONL once the sample ends.  A call whose
innermost open span already belongs to the same layer family (the part
of the layer name before the first dot) opens no span: its time belongs
to the outer call.  With ``enabled=False`` no span is opened at all;
only the result probe on ``fit_runs`` runs, which the output checks
need on every run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

from perfbench.stats import percentile

#: Every algorithm that runs on some workload, by roster abbreviation.
ALGORITHMS = (
    "FDB", "FOPT", "UAHC", "UKmed", "UKM", "MMV", "UCPC",
    "bUKM", "MinMax-BB", "VDBiP",
)

#: Algorithms whose ``extras`` carry the ED pruning counters.
PRUNING_ALGORITHMS = ("MinMax-BB", "VDBiP")

#: Layer metrics the runner computes in the parent process (the last
#: from the untraced samples of a traced run).
PARENT_LAYER_METRICS = ("setup.modules_loaded", "trace.overhead_frac", "sweep.resume_ms")


def family(layer: str) -> str:
    """The nesting family of a layer name (``clustering.UKM`` -> ``clustering``)."""
    return layer.split(".", 1)[0]


def labels_digest(labels) -> str:
    """Short content digest of one labelling."""
    import numpy as np

    data = np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    return hashlib.sha1(data).hexdigest()[:16]


class Tracer:
    """In-memory span recorder plus the ``fit_runs`` result probe."""

    def __init__(self, enabled: bool, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []
        #: One entry per ``fit_runs`` call: caller module, algorithm,
        #: labels digest per fit and summed on-line seconds.
        self.fits: List[dict] = []
        self.counters: Dict[str, float] = defaultdict(float)

    # -- spans -----------------------------------------------------------
    def open(self, layer: str, **attrs) -> Optional[dict]:
        """Open a span, or return ``None`` when off or nested in its family."""
        if not self.enabled:
            return None
        if self._stack and family(self.spans[self._stack[-1]]["layer"]) == family(layer):
            return None
        record = {
            "id": len(self.spans),
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "start": self.clock(),
            "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def close(self, record: dict) -> None:
        record["end"] = self.clock()
        popped = self._stack.pop()
        if popped != record["id"]:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, layer: str, **attrs):
        record = self.open(layer, **attrs)
        try:
            yield record
        finally:
            if record is not None:
                self.close(record)

    def wrap(self, layer, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span of ``layer`` (a name or ``callable(args)``).

        ``after(span, args, result)`` annotates the span once ``fn``
        returned; it runs only when a span was opened.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self.open(layer(args) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                if record is not None:
                    self.close(record)
            if record is not None and after is not None:
                after(record, args, result)
            return result

        return wrapper

    # -- the fit_runs probe ------------------------------------------------
    def record_fits(self, tag: str, clusterer, results) -> None:
        self.fits.append(
            {
                "tag": tag,
                "algorithm": clusterer.name,
                "labels": [labels_digest(r.labels) for r in results],
                "online_s": sum(r.runtime_seconds for r in results),
            }
        )

    @property
    def online_s(self) -> float:
        """Summed on-line clustering seconds of every fit seen so far."""
        return sum(entry["online_s"] for entry in self.fits)

    def fits_from(self, tag: str) -> List[dict]:
        return [entry for entry in self.fits if entry["tag"] == tag]

    # -- output ----------------------------------------------------------
    def write_jsonl(self, path, trace_id: str) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for record, self_s in zip(self.spans, selfs):
                line = dict(record, trace=trace_id, self_s=self_s)
                handle.write(json.dumps(line, sort_keys=True) + "\n")
            handle.write(
                json.dumps({"trace": trace_id, "counters": dict(self.counters)}) + "\n"
            )


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    result = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            result[s["parent"]] -= s["end"] - s["start"]
    return result


def layer_self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time summed per layer; the layers sum to the root spans' time."""
    table: Dict[str, float] = defaultdict(float)
    for record, self_s in zip(spans, self_times(spans)):
        table[record["layer"]] += self_s
    return dict(table)


def _busy(spans: Sequence[dict], layer: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["layer"] == layer)


def _calls(spans: Sequence[dict], layer: str) -> int:
    return sum(1 for s in spans if s["layer"] == layer)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric the traced sample itself can give.

    A layer the workload never calls reads 0; :func:`absent_reason`
    says why.  The metrics of :data:`PARENT_LAYER_METRICS` are measured
    by the runner.
    """
    spans = tracer.spans
    selfs = layer_self_times(spans)
    metrics: Dict[str, float] = {
        "datagen.busy_s": _busy(spans, "datagen"),
        "datagen.calls": _calls(spans, "datagen"),
        "objects.pairwise_ed.busy_s": _busy(spans, "objects.pairwise_ed"),
        "objects.pairwise_ed.builds": _calls(spans, "objects.pairwise_ed"),
        "uncertainty.sample_tensor.busy_s": _busy(spans, "uncertainty.sample_tensor"),
        "uncertainty.sample_tensor.calls": _calls(spans, "uncertainty.sample_tensor"),
        "uncertainty.sample_tensor.mb": sum(
            s.get("mb", 0.0) for s in spans if s["layer"] == "uncertainty.sample_tensor"
        ),
        "engine.fit_runs.busy_s": _busy(spans, "engine.fit_runs"),
        "engine.fit_runs.calls": _calls(spans, "engine.fit_runs"),
        "engine.fits": tracer.counters["engine.fits"],
        "engine.self_s": selfs.get("engine.fit_runs", 0.0),
    }
    for alg in ALGORITHMS:
        fits = [s for s in spans if s["layer"] == f"clustering.{alg}"]
        fit_s = sum(s["end"] - s["start"] for s in fits)
        online_s = sum(s["online_s"] for s in fits)
        metrics[f"clustering.{alg}.fit_s"] = fit_s
        metrics[f"clustering.{alg}.online_s"] = online_s
        metrics[f"clustering.{alg}.offline_s"] = fit_s - online_s
        metrics[f"clustering.{alg}.iterations"] = sum(s["iterations"] for s in fits)
        metrics[f"clustering.{alg}.unconverged"] = sum(
            1 for s in fits if not s["converged"]
        )
    for alg in PRUNING_ALGORITHMS:
        fits = [s for s in spans if s["layer"] == f"clustering.{alg}"]
        pruned = sum(s.get("ed_pruned", 0) for s in fits)
        evaluated = sum(s.get("ed_evaluations", 0) for s in fits)
        base = pruned + evaluated
        metrics[f"clustering.{alg}.pruning_rate"] = pruned / base if base else 0.0
    for name in ("internal_scores", "f_measure"):
        metrics[f"evaluation.{name}.busy_s"] = _busy(spans, f"evaluation.{name}")
        metrics[f"evaluation.{name}.calls"] = _calls(spans, f"evaluation.{name}")
    writes_ms = [
        (s["end"] - s["start"]) * 1e3 for s in spans if s["layer"] == "store.write"
    ]
    metrics.update(
        {
            "store.write.calls": len(writes_ms),
            "store.write.p50_ms": percentile(writes_ms, 50) if writes_ms else 0.0,
            "store.write.p90_ms": percentile(writes_ms, 90) if writes_ms else 0.0,
            "store.read.busy_s": _busy(spans, "store.read"),
            "store.read.calls": _calls(spans, "store.read"),
            "store.aggregate.busy_s": _busy(spans, "store.aggregate"),
            "sweep.self_s": selfs.get("sweep", 0.0),
            "sweep.cells_executed": tracer.counters["sweep.cells_executed"],
            "sweep.cells_reused": tracer.counters["sweep.cells_reused"],
        }
    )
    return metrics


def absent_reason(name: str, metrics: Dict[str, float]) -> Optional[str]:
    """Why a per-layer metric reads 0 on this workload, or ``None``."""
    if metrics.get(name):
        return None
    parts = name.split(".")
    if parts[0] == "clustering":
        if not metrics.get(f"clustering.{parts[1]}.fit_s"):
            return f"{parts[1]} is not on this workload's roster"
        return None
    if parts[0] in ("store", "sweep"):
        if not metrics.get("store.read.calls") and not metrics.get("store.write.calls"):
            return "this workload never touches a result store"
        return None
    if name == "objects.pairwise_ed.builds" or name == "objects.pairwise_ed.busy_s":
        return "no algorithm or criterion on this workload reads the ÊD plane"
    if parts[0] == "evaluation":
        return "this workload runs no evaluation"
    if parts[0] == "uncertainty":
        return "no sample-based algorithm on this workload"
    return None


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _rebind(original: Callable, make_wrapper: Callable[[str], Callable]) -> None:
    """Replace ``original`` in every loaded ``repro`` module that binds it."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        if vars(module).get(name) is original:
            setattr(module, name, make_wrapper(module_name.rsplit(".", 1)[-1]))


def _annotate_fit(record: dict, args, result) -> None:
    record["online_s"] = result.runtime_seconds
    record["iterations"] = result.n_iterations
    record["converged"] = bool(result.converged)
    for key in ("ed_evaluations", "ed_pruned"):
        if key in result.extras:
            record[key] = int(result.extras[key])


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every loaded ``repro`` module."""
    import repro.engine.runner as runner
    import repro.engine.sweep  # noqa: F401  (binds the names rebound below)
    import repro.evaluation.protocol  # noqa: F401
    import repro.experiments.figure4 as figure4
    import repro.experiments.figure5 as figure5
    import repro.experiments.table2 as table2
    import repro.experiments.table3 as table3
    from repro.datagen.benchmarks import make_benchmark
    from repro.datagen.microarray import make_microarray
    from repro.datagen.uncertainty_gen import UncertaintyGenerator
    from repro.engine.store.sqlite_store import SqliteStore
    from repro.evaluation.external import f_measure
    from repro.evaluation.internal import internal_scores
    from repro.experiments.config import build_algorithm
    from repro.objects.dataset import UncertainDataset

    original_fit_runs = runner.fit_runs

    def fit_runs_wrapper(tag: str) -> Callable:
        def after(record, args, results):
            tracer.counters["engine.fits"] += len(results)

        traced = tracer.wrap("engine.fit_runs", original_fit_runs, after)

        @functools.wraps(original_fit_runs)
        def probe(clusterer, *args, **kwargs):
            results = traced(clusterer, *args, **kwargs)
            tracer.record_fits(tag, clusterer, results)
            return results

        return probe

    _rebind(original_fit_runs, fit_runs_wrapper)
    if not tracer.enabled:
        return

    for fn in (make_benchmark, make_microarray):
        _rebind(fn, lambda _tag, fn=fn: tracer.wrap("datagen", fn))
    for method in ("generate", "uncertain_dataset"):
        setattr(
            UncertaintyGenerator,
            method,
            tracer.wrap("datagen", getattr(UncertaintyGenerator, method)),
        )
    for fn in (internal_scores, f_measure):
        _rebind(fn, lambda _tag, fn=fn: tracer.wrap(f"evaluation.{fn.__name__}", fn))
    for module in (table2, table3, figure4, figure5):
        for name in dir(module):
            if name.startswith(("prepare_", "run_")) and name.endswith(
                ("_group", "_cell", "_base", "_fraction")
            ):
                fn = getattr(module, name)
                _rebind(fn, lambda _tag, fn=fn: tracer.wrap("experiments", fn))

    classes = {type(build_algorithm(alg, n_clusters=2)) for alg in ALGORITHMS}
    for cls in classes:
        cls.fit = tracer.wrap(
            lambda args: f"clustering.{args[0].name}", cls.fit, _annotate_fit
        )

    def sample_tensor_after(record, args, result):
        record["mb"] = result.nbytes / 1e6

    UncertainDataset.sample_tensor = tracer.wrap(
        "uncertainty.sample_tensor", UncertainDataset.sample_tensor, sample_tensor_after
    )
    cached_pairwise_ed = UncertainDataset.pairwise_ed
    build_pairwise_ed = tracer.wrap("objects.pairwise_ed", cached_pairwise_ed)

    @functools.wraps(cached_pairwise_ed)
    def pairwise_ed(self):
        # Only a build is a span: later calls read the dataset's cache slot.
        if getattr(self, "_pairwise_ed", None) is not None:
            return cached_pairwise_ed(self)
        return build_pairwise_ed(self)

    UncertainDataset.pairwise_ed = pairwise_ed

    for method, layer in (
        ("write_cell", "store.write"),
        ("load_cell", "store.read"),
        ("load_group", "store.read"),
        ("metric_summary", "store.aggregate"),
        ("best_cells", "store.aggregate"),
        ("rank_over_grid", "store.aggregate"),
    ):
        setattr(SqliteStore, method, tracer.wrap(layer, getattr(SqliteStore, method)))
