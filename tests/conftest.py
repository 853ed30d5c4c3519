"""Shared fixtures for the repro test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import make_blobs_uncertain
from repro.objects import UncertainDataset, UncertainObject
from repro.uncertainty import (
    IndependentProduct,
    TruncatedExponentialDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
)

#: The one error bound on Section 5.1's normalized intra, inter and Q:
#: ``internal_scores`` must stay this close to the definition in exact
#: arithmetic (``tests/test_internal.py``), and recorded Q values are
#: held to it instead of to their last bits.  Import it from here.
Q_BOUND = 1e-14

#: Two-entry labelings that are not integers: every entry point taking
#: labels (datasets, the F-measure, Q) must refuse them, typed, rather
#: than truncate or cast them.
NON_INTEGER_LABELS = [
    [0.5, 1.0],
    [1.0, 1.7],
    [0.0, np.nan],
    [np.inf, 0.0],
    [0.0, -np.inf],
    ["3", "4"],
    ["a", "b"],
    [None, 1],
    [[0], [1]],
    np.array(["x", "y"]),
]


@pytest.fixture
def rng():
    """A deterministic generator for ad-hoc randomness in tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def blob_dataset():
    """Small, well-separated 3-cluster uncertain dataset."""
    return make_blobs_uncertain(
        n_objects=60, n_clusters=3, n_attributes=2, separation=5.0, seed=42
    )


@pytest.fixture
def mixed_cluster():
    """A heterogeneous cluster mixing all three pdf families."""
    objects = [
        UncertainObject(
            IndependentProduct(
                [
                    UniformDistribution(0.0, 2.0),
                    TruncatedNormalDistribution(1.0, 0.5, -0.5, 2.5),
                ]
            )
        ),
        UncertainObject(
            IndependentProduct(
                [
                    TruncatedExponentialDistribution(0.5, 2.0, cutoff=3.0),
                    UniformDistribution(-1.0, 1.0),
                ]
            )
        ),
        UncertainObject.gaussian([2.0, -1.0], [0.3, 0.8], mass=0.95),
        UncertainObject.uniform_box([0.5, 0.5], [1.0, 0.25]),
        UncertainObject.from_point([1.5, 0.0]),
    ]
    return objects


@pytest.fixture
def mixed_dataset(mixed_cluster):
    """The mixed cluster wrapped as a dataset."""
    return UncertainDataset(mixed_cluster)


@pytest.fixture
def force_backend(monkeypatch):
    """Route every engine run-set to one execution backend.

    ``force_backend("threads", n_jobs=3)`` (or ``force_backend(instance)``)
    makes ``repro.engine.runner.choose_backend`` return that backend for
    the rest of the test and returns the instance.  ``n_jobs`` alone is
    not enough: the small test datasets fall under the serial
    threshold, so the engine would never reach a pool.  Call it again
    to switch backends; a reference run before the first call keeps
    the engine's own (serial) choice.
    """
    import repro.engine.runner as runner
    from repro.engine import ProcessBackend, SerialBackend, ThreadBackend

    def force(backend, n_jobs=2):
        if backend == "serial":
            backend = SerialBackend()
        elif backend == "threads":
            backend = ThreadBackend(n_jobs)
        elif backend == "processes":
            backend = ProcessBackend(n_jobs)
        monkeypatch.setattr(runner, "choose_backend", lambda *_args: backend)
        return backend

    return force


def random_uncertain_objects(rng, n, dim, families=("uniform", "normal", "exponential")):
    """Helper: n random uncertain objects of dimension dim.

    Importable from tests via ``from tests.conftest import
    random_uncertain_objects`` — used by property-style loops that need
    diverse objects without hypothesis overhead.
    """
    objects = []
    for _ in range(n):
        marginals = []
        for _ in range(dim):
            family = families[rng.integers(0, len(families))]
            center = float(rng.normal(0.0, 5.0))
            scale = float(rng.uniform(0.1, 2.0))
            if family == "uniform":
                marginals.append(UniformDistribution.centered(center, scale))
            elif family == "normal":
                marginals.append(
                    TruncatedNormalDistribution.central_mass(center, scale, 0.95)
                )
            else:
                direction = 1 if rng.random() < 0.5 else -1
                marginals.append(
                    TruncatedExponentialDistribution.with_mean(
                        center, 1.0 / scale, direction=direction, mass=0.95
                    )
                )
        objects.append(UncertainObject(IndependentProduct(marginals)))
    return objects
