"""Tests of the benchmark's own code: span arithmetic, percentile rule,
metric declarations and per-seed determinism of the generated inputs."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import stats
from perfbench.run import end_to_end
from perfbench.tracing import (
    PARENT_LAYER_METRICS,
    Tracer,
    labels_digest,
    layer_metrics,
    layer_self_times,
    self_times,
)
from perfbench.workloads import (
    FIGURE5_BASE_SIZE,
    WORKLOADS,
    compare_cell,
    figure5_config,
    sweep_grid_spec,
    table2_config,
    table2_seeds,
)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_times_subtract_direct_children_and_sum_to_the_root():
    tracer = Tracer(enabled=True, clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0))
    with tracer.span("workload"):
        with tracer.span("datagen"):
            with tracer.span("clustering.UKM"):
                pass
        with tracer.span("store.write"):
            pass
    assert self_times(tracer.spans) == [6.0, 2.0, 1.0, 1.0]
    table = layer_self_times(tracer.spans)
    assert table == {"workload": 6.0, "datagen": 2.0, "clustering.UKM": 1.0, "store.write": 1.0}
    assert sum(table.values()) == 10.0


def test_a_call_nested_in_its_own_family_opens_no_span():
    tracer = Tracer(enabled=True)
    inner = tracer.wrap("clustering.UKM", lambda: "fit")
    outer = tracer.wrap("clustering.UCPC", inner)
    assert outer() == "fit"
    assert [s["layer"] for s in tracer.spans] == ["clustering.UCPC"]
    with tracer.span("datagen"):
        assert tracer.open("datagen") is None
        child = tracer.open("engine.fit_runs")
        assert child["parent"] == 1
        tracer.close(child)


def test_disabled_tracer_keeps_only_the_fit_probe():
    tracer = Tracer(enabled=False)
    with tracer.span("workload") as root:
        assert root is None
    results = [
        SimpleNamespace(labels=np.array([0, 1, 1]), runtime_seconds=0.25),
        SimpleNamespace(labels=np.array([1, 0, 0]), runtime_seconds=0.5),
    ]
    tracer.record_fits("figure5", SimpleNamespace(name="UKM"), results)
    assert tracer.spans == []
    assert tracer.online_s == 0.75
    assert tracer.fits_from("figure5")[0]["labels"] == [
        labels_digest([0, 1, 1]),
        labels_digest([1, 0, 0]),
    ]
    assert labels_digest([0, 1, 1]) != labels_digest([1, 0, 0])


def test_layer_metrics_of_an_empty_trace_read_zero():
    metrics = layer_metrics(Tracer(enabled=True))
    assert all(value == 0 for value in metrics.values())


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (189, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 5.0


def test_summarize_reports_the_tail_only_when_it_qualifies():
    assert stats.summarize([1.0, 2.0, 3.0])["tail"] is None
    summary = stats.summarize([float(i) for i in range(1, 190)])
    assert summary == {"median": 95.0, "n": 189, "tail_p": 90.0, "tail": pytest.approx(170.2)}


# ----------------------------------------------------------------------
# Metric declarations
# ----------------------------------------------------------------------
def test_declared_names_and_units_are_valid_and_unique():
    declared = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [entry["name"] for entry in declared]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(entry["unit"]) for entry in declared if "unit" in entry)
    assert all(0 < entry["bound"] <= 0.25 for entry in BENCHMARK["end_to_end"])
    assert any(
        entry["name"] == "setup_s" and entry["unit"] == "s" and entry["better"] == "lower"
        for entry in BENCHMARK["end_to_end"]
    )


def test_runner_emits_exactly_the_declared_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    sample = {"wall_s": 1.0, "peak_rss_mb": 1.0}
    assert set(end_to_end([sample], [1.0], [1.0])) == {m["name"] for m in BENCHMARK["end_to_end"]}
    emitted = set(layer_metrics(Tracer(enabled=True))) | set(PARENT_LAYER_METRICS)
    assert emitted == {m["name"] for m in BENCHMARK["per_layer"]}


def test_numeric_cells_tolerate_last_ulp_drift_only():
    want = {"num": [0.25, -0.125]}
    assert compare_cell({"num": [0.25 * (1 + 4e-16), -0.125]}, want)
    assert not compare_cell({"num": [0.25 * (1 + 1e-6), -0.125]}, want)
    assert not compare_cell({"labels": ["a"]}, want)
    assert compare_cell({"labels": ["a", "b"]}, {"labels": ["a", "b"]})
    assert not compare_cell({"labels": ["a", "c"]}, {"labels": ["a", "b"]})


# ----------------------------------------------------------------------
# Per-seed determinism of the generated inputs
# ----------------------------------------------------------------------
def _dataset_digest(dataset) -> str:
    digest = hashlib.sha1()
    for array in (dataset.mu_matrix, dataset.sigma2_matrix, dataset.labels):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _table2_input(seed):
    from repro.datagen.uncertainty_gen import PDF_FAMILIES
    from repro.experiments.table2 import prepare_table2_group
    from repro.utils.rng import spawn_rngs

    config = table2_config(table2_seeds(seed)[0])
    rng = spawn_rngs(config.seed, 5 * len(PDF_FAMILIES))[0]
    pair, _ = prepare_table2_group("iris", PDF_FAMILIES[0], rng, config)
    return _dataset_digest(pair.uncertain)


def _figure5_input(seed):
    from repro.experiments.figure5 import prepare_figure5_base

    # A fifth of the workload's base size keeps the test fast; the seed
    # reaches the generator through the same config either way.
    full, _, _ = prepare_figure5_base(figure5_config(seed), FIGURE5_BASE_SIZE // 5)
    return _dataset_digest(full)


def _sweep_input(seed):
    from repro.experiments.table3 import prepare_table3_group
    from repro.utils.rng import spawn_rngs

    spec = sweep_grid_spec(seed).table3
    rng = spawn_rngs(spec.config.seed, len(spec.datasets))[0]
    dataset = prepare_table3_group(spec.datasets[0], rng, spec.config)
    return json.dumps(sweep_grid_spec(seed).describe(), sort_keys=True) + _dataset_digest(dataset)


@pytest.mark.parametrize("make_input", [_table2_input, _figure5_input, _sweep_input])
def test_inputs_are_a_function_of_the_seed(make_input):
    assert make_input(2012) == make_input(2012)
    assert make_input(2012) != make_input(7)
