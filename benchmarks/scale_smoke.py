"""CI smoke for the million-object scale path (n=20k synthetic roster).

Runs the scale-path variants on one synthetic 20_000-object roster with
their exactness assertions **on**:

* Elkan- and Hamerly-bounded UK-means must reproduce ``BasicUKMeans``
  labels bit for bit (S=32, k=20, 5 iterations), and the Elkan
  counters must account for every assignment-row ED
  (``ed_evaluations + ed_skipped == n_iterations * n * k``) and show
  >= 50% of them skipped (the skip-rate floor lives only here);
* the pruning variants MinMax-BB and VDBiP must reproduce the same
  ``BasicUKMeans`` labels (their times and pruning counters are
  recorded);
* mini-batch UK-means (lossy) must still recover the planted structure;
* radius-prefiltered FDBSCAN must match the dense path exactly (checked
  at n=4000 — the dense reference is quadratic, the prefiltered path is
  what scales);
* kNN-capped FOPTICS must produce a full ordering at n=20_000 without
  ever materializing the dense ÊD matrix;
* U-AHC's ``"ed"`` linkage (scipy's average linkage over the ÊD
  matrix) must cut the n=4000 roster into the requested clusters with
  non-decreasing merge heights;
* the tile walk of the dense all-pairs kernels must equal the per-row
  loops bit for bit at n=1499 (over a thousand tiles with ragged
  edges): FOPTICS's expected-distance matrix and U-AHC's initial
  Jeffreys proximity (off the diagonal);
* the blob generator (the n=20_000 roster) and the Section 5.1
  generator (its ``D'``/``D''`` pair at n=100_000) must build their
  datasets without constructing one ``UncertainObject``, and the first
  1000 rows of each (moments, region bounds and a 4-sample tensor)
  must equal the objects materialized from them bit for bit;
* the process backend's pool payload for the roster must be its source
  record: pickling it builds no ``UncertainObject`` (its size and time
  are recorded).

Wall-clock timings for every stage are written as JSON so CI can upload
them as an artifact and regressions stay visible across commits.

Usage::

    PYTHONPATH=src python benchmarks/scale_smoke.py --output scale_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import sys
import time
import warnings
from pathlib import Path
from typing import List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.clustering import (
    FDBSCAN,
    FOPTICS,
    UAHC,
    BasicUKMeans,
    BoundedUKMeans,
    MinMaxBB,
    MiniBatchUKMeans,
    VDBiP,
)
from repro.clustering.foptics import expected_distance_matrix
from repro.datagen import UncertaintyGenerator, make_blobs_uncertain
from repro.datagen.benchmarks import make_classification_like
from repro.evaluation import f_measure
from repro.exceptions import ConvergenceWarning
from repro.objects import UncertainDataset, UncertainObject
from repro.uncertainty import build_sampling_plan

N_OBJECTS = 20_000
N_CLUSTERS = 20
N_ATTRIBUTES = 8
N_MC_SAMPLES = 32
MAX_ITER = 5
DENSITY_N = 4000  # dense FDBSCAN reference is O(n^2); keep it honest
DENSE_KERNEL_N = 1499  # row-loop references are O(n) Python iterations
COLUMNAR_N = 100_000
COLUMNAR_CHECKED_ROWS = 1000  # objects materialized for the bitwise check


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _row_loop_expected_distances(samples: np.ndarray) -> np.ndarray:
    """FOPTICS's expected-distance matrix, one object row at a time."""
    n = samples.shape[0]
    out = np.zeros((n, n))
    for i in range(n - 1):
        diff = samples[i + 1 :] - samples[i]
        dist = np.sqrt(np.einsum("nsm,nsm->ns", diff, diff)).mean(axis=1)
        out[i, i + 1 :] = dist
        out[i + 1 :, i] = dist
    return out


def _counting_objects(fn):
    """``(fn(), seconds, UncertainObject constructions during fn)``."""
    original = UncertainObject.__init__
    built = 0

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    UncertainObject.__init__ = counting
    try:
        value, seconds = _timed(fn)
    finally:
        UncertainObject.__init__ = original
    return value, seconds, built


def _check_head_against_objects(dataset: UncertainDataset) -> None:
    """The first rows' columns equal the objects materialized from them."""
    head = slice(0, COLUMNAR_CHECKED_ROWS)
    tensor = dataset.sample_tensor(4, seed=2)[head]
    objects = dataset[head].objects  # the checked rows only
    restacked = UncertainDataset(objects)
    for name in ("mu_matrix", "mu2_matrix", "sigma2_matrix"):
        assert np.array_equal(
            getattr(dataset, name)[head].view(np.uint64),
            getattr(restacked, name).view(np.uint64),
        ), f"columnar {name} != materialized objects"
    for side in (0, 1):
        assert np.array_equal(
            dataset.region_bounds[side][head].view(np.uint64),
            restacked.region_bounds[side].view(np.uint64),
        ), "columnar region bounds != materialized objects"
    rebuilt = build_sampling_plan([obj.distribution for obj in objects])
    assert np.array_equal(
        tensor.view(np.uint64), rebuilt.sample(4, seed=2).view(np.uint64)
    ), "stored plan != plan rebuilt from the objects"


def _columnar_generation() -> dict:
    """The generator's columns at scale, checked against its objects."""
    points, labels = make_classification_like(
        n_objects=COLUMNAR_N,
        n_attributes=N_ATTRIBUTES,
        n_classes=N_CLUSTERS,
        seed=5,
    )
    generator = UncertaintyGenerator(family="normal")
    pair, seconds, built = _counting_objects(
        lambda: generator.generate(points, labels, seed=1)
    )
    assert built == 0, f"generate built {built} objects"
    for dataset in (pair.uncertain, pair.perturbed):
        _check_head_against_objects(dataset)
    return {"seconds": seconds, "objects_built": built}


def run_smoke() -> List[dict]:
    records: List[dict] = []

    def record(name: str, seconds: float, **meta) -> None:
        records.append({"name": name, "seconds": seconds, **meta})
        extra = " ".join(f"{k}={v}" for k, v in meta.items())
        print(f"{name:32s} {seconds * 1e3:9.1f} ms  {extra}")

    data, gen_time, built = _counting_objects(
        lambda: make_blobs_uncertain(
            n_objects=N_OBJECTS,
            n_clusters=N_CLUSTERS,
            n_attributes=N_ATTRIBUTES,
            separation=3.0,
            seed=42,
        )
    )
    assert built == 0, f"make_blobs_uncertain built {built} objects"
    _check_head_against_objects(data)
    record(
        "datagen",
        gen_time,
        n=N_OBJECTS,
        k=N_CLUSTERS,
        m=N_ATTRIBUTES,
        objects_built=built,
    )
    payload, payload_time, built = _counting_objects(
        lambda: pickle.dumps(data._moment_free_state())
    )
    assert built == 0, f"the pool payload built {built} objects"
    record(
        "pool_payload",
        payload_time,
        n=N_OBJECTS,
        m=N_ATTRIBUTES,
        bytes=len(payload),
        objects_built=built,
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)

        basic, basic_time = _timed(
            lambda: BasicUKMeans(
                N_CLUSTERS, n_samples=N_MC_SAMPLES, max_iter=MAX_ITER
            ).fit(data, seed=0)
        )
        record("basic_ukmeans", basic_time, S=N_MC_SAMPLES)

        for bounds in ("elkan", "hamerly"):
            bounded, seconds = _timed(
                lambda: BoundedUKMeans(
                    N_CLUSTERS,
                    n_samples=N_MC_SAMPLES,
                    max_iter=MAX_ITER,
                    bounds=bounds,
                ).fit(data, seed=0)
            )
            # The lossless contract, asserted at scale on every CI run.
            np.testing.assert_array_equal(
                basic.labels,
                bounded.labels,
                err_msg=f"bounds={bounds} diverged from BasicUKMeans",
            )
            skip_rate = bounded.extras["skip_rate"]
            if bounds == "elkan":
                # Counter-asserted, not inferred from wall clock: every
                # assignment-row ED is either evaluated or skipped.
                rows = bounded.n_iterations * N_OBJECTS * N_CLUSTERS
                evaluated = bounded.extras["ed_evaluations"]
                skipped = bounded.extras["ed_skipped"]
                assert evaluated + skipped == rows, (
                    f"elkan counted {evaluated} + {skipped} EDs, not {rows}"
                )
                assert skip_rate >= 0.5, (
                    f"elkan skip rate {skip_rate:.3f} below the 0.5 floor "
                    f"({evaluated} of {rows} EDs evaluated)"
                )
            record(
                f"bounded_ukmeans_{bounds}",
                seconds,
                skip_rate=round(skip_rate, 4),
                speedup=round(basic_time / seconds, 2),
            )

        for name, pruner in (("minmax_bb", MinMaxBB), ("vdbip", VDBiP)):
            pruned, seconds = _timed(
                lambda: pruner(
                    N_CLUSTERS, n_samples=N_MC_SAMPLES, max_iter=MAX_ITER
                ).fit(data, seed=0)
            )
            np.testing.assert_array_equal(
                basic.labels,
                pruned.labels,
                err_msg=f"{pruner.name} diverged from BasicUKMeans",
            )
            record(
                name,
                seconds,
                ed_evaluations=pruned.extras["ed_evaluations"],
                pruning_rate=round(pruned.extras["pruning_rate"], 4),
            )

        mini, seconds = _timed(
            lambda: MiniBatchUKMeans(N_CLUSTERS, batch_size=1024).fit(
                data, seed=0
            )
        )
        score = f_measure(mini.labels, data.labels)
        assert score > 0.5, f"mini-batch lost the planted structure: {score}"
        record(
            "minibatch_ukmeans",
            seconds,
            f_measure=round(score, 3),
            objects_seen=mini.extras["objects_seen"],
        )

    density_data = make_blobs_uncertain(
        n_objects=DENSITY_N,
        n_clusters=5,
        n_attributes=N_ATTRIBUTES,
        separation=4.0,
        seed=7,
    )
    dense, dense_time = _timed(
        lambda: FDBSCAN(n_samples=16).fit(density_data, seed=0)
    )
    fast, fast_time = _timed(
        lambda: FDBSCAN(n_samples=16, prefilter=True).fit(density_data, seed=0)
    )
    np.testing.assert_array_equal(
        dense.labels, fast.labels, err_msg="prefiltered FDBSCAN diverged"
    )
    # At this size the dense blocked-GEMM kernel can still out-run the
    # gathered survivor kernels; the prefilter's win is the O(kept
    # pairs) memory/compute *bound* (no dense n^2 probability matrix),
    # which is what lets FDBSCAN leave the paper's n ceiling at all.
    record("fdbscan_dense", dense_time, n=DENSITY_N)
    record(
        "fdbscan_prefiltered",
        fast_time,
        n=DENSITY_N,
        pair_prune_rate=round(fast.extras["pair_prune_rate"], 4),
    )

    uahc, seconds = _timed(
        lambda: UAHC(5, linkage="ed").fit(density_data)
    )
    assert uahc.n_clusters == 5, f"U-AHC ed gave {uahc.n_clusters} clusters"
    heights = np.array([step.height for step in uahc.extras["merges"]])
    assert np.all(np.diff(heights) >= 0.0), "U-AHC ed heights decrease"
    record(
        "uahc_ed_fit",
        seconds,
        n=DENSITY_N,
        f_measure=round(f_measure(uahc.labels, density_data.labels), 3),
    )

    kernel_data = make_blobs_uncertain(
        n_objects=DENSE_KERNEL_N,
        n_clusters=5,
        n_attributes=N_ATTRIBUTES,
        separation=4.0,
        seed=11,
    )
    samples = kernel_data.sample_tensor(N_MC_SAMPLES, seed=0)
    tiled_ed, tiled_ed_time = _timed(lambda: expected_distance_matrix(samples))
    loop_ed, loop_ed_time = _timed(lambda: _row_loop_expected_distances(samples))
    assert np.array_equal(tiled_ed, loop_ed), "tiled ÊD kernel != row loop"
    model = UAHC(1)
    mu, var = model._gaussian_parameters(
        kernel_data.mu_matrix, kernel_data.mu2_matrix, np.ones(DENSE_KERNEL_N)
    )
    tiled_prox, tiled_prox_time = _timed(lambda: model._full_proximity(mu, var))
    loop_prox, loop_prox_time = _timed(
        lambda: np.array(
            [model._row_against(mu, var, i) for i in range(DENSE_KERNEL_N)]
        )
    )
    off_diagonal = ~np.eye(DENSE_KERNEL_N, dtype=bool)
    assert np.array_equal(
        tiled_prox[off_diagonal], loop_prox[off_diagonal]
    ), "tiled Jeffreys proximity != row loop"
    record(
        "dense_kernels_exact",
        tiled_ed_time + tiled_prox_time,
        n=DENSE_KERNEL_N,
        S=N_MC_SAMPLES,
        ed_tiled_s=round(tiled_ed_time, 4),
        ed_row_loop_s=round(loop_ed_time, 4),
        jeffreys_tiled_s=round(tiled_prox_time, 4),
        jeffreys_row_loop_s=round(loop_prox_time, 4),
    )

    columnar = _columnar_generation()
    record(
        "columnar_generation",
        columnar["seconds"],
        n=COLUMNAR_N,
        m=N_ATTRIBUTES,
        family="normal",
        objects_built=columnar["objects_built"],
        checked_rows=COLUMNAR_CHECKED_ROWS,
    )

    capped, seconds = _timed(
        lambda: FOPTICS(n_samples=16, n_clusters=N_CLUSTERS, knn_cap=64).fit(
            data, seed=0
        )
    )
    assert len(capped.extras["ordering"]) == N_OBJECTS
    record(
        "foptics_knn_capped",
        seconds,
        n=N_OBJECTS,
        knn_cap=64,
        n_graph_edges=capped.extras["n_graph_edges"],
    )
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Scale-path smoke: exactness assertions + timings JSON."
    )
    parser.add_argument(
        "--output", default="scale_smoke.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    records = run_smoke()
    payload = {
        "schema": 1,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "benchmarks": records,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
