"""Tests for the execution backends (repro.engine.backends).

The backend layer's whole value rests on one promise: *which* backend
executes the restarts can never change what the engine returns.  These
tests pin that promise (serial ≡ threads ≡ processes for fixed seeds,
with and without early stopping, under out-of-order completion), the
dispatch rule of ``choose_backend``, and the process backend's
shared-memory contract — the sample tensor is published, not pickled,
and every block is unlinked even when a worker crashes.  Each test
forces its backend through the ``force_backend`` fixture.  Every
dataset here is generated, so a spy across the file checks that no
process builds an ``UncertainObject`` and that no pool is handed one.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import select
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.clustering import (
    UAHC,
    BasicUKMeans,
    BoundedUKMeans,
    MinMaxBB,
    UKMeans,
    UKMedoids,
    VDBiP,
)
from repro.datagen import make_blobs_uncertain
from repro.engine import (
    EarlyStopping,
    MultiRestartRunner,
    ProcessBackend,
    ThreadBackend,
    choose_backend,
    shared_block_registry,
)
from repro.engine.backends import AUTO_SERIAL_ELEMENTS
from repro.exceptions import InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject

SRC = Path(__file__).resolve().parent.parent / "src"


class _ClassRecorder(pickle.Unpickler):
    """Unpickles, recording the name of every class the data refers to."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))
        self.names = []

    def find_class(self, module, name):
        self.names.append(name)
        return super().find_class(module, name)


@pytest.fixture(autouse=True)
def no_objects_built(monkeypatch):
    """Neither the parent nor a pool worker builds an ``UncertainObject``,
    and no pool's initializer payload holds one.

    Workers are forked with the spy in place, so one that built an
    object would fail its fit; the payload is unpickled in the parent
    with every class it names recorded.
    """
    import repro.engine.backends as backends_module

    parent = os.getpid()
    built = []
    payload_classes = []
    original_init = UncertainObject.__init__

    def spying_init(self, *args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a pool worker built an UncertainObject")
        built.append(type(self))
        original_init(self, *args, **kwargs)

    class SpyingPool(backends_module.ProcessPoolExecutor):
        def __init__(self, *args, initargs=(), **kwargs):
            recorder = _ClassRecorder(initargs[0]["dataset"])
            recorder.load()
            payload_classes.extend(recorder.names)
            super().__init__(*args, initargs=initargs, **kwargs)

    monkeypatch.setattr(UncertainObject, "__init__", spying_init)
    monkeypatch.setattr(backends_module, "ProcessPoolExecutor", SpyingPool)
    yield payload_classes
    assert not built, f"{len(built)} UncertainObjects built in the parent"
    assert "UncertainObject" not in payload_classes


@pytest.fixture(scope="module")
def data():
    # Moderate separation so different seeds reach different optima —
    # otherwise best-of selection (and early stopping) has nothing to do.
    return make_blobs_uncertain(
        n_objects=90, n_clusters=4, separation=2.5, seed=13
    )


class JitterUKMeans(UKMeans):
    """UK-means with a seed-dependent pre-fit sleep.

    Later-submitted restarts can finish *before* earlier ones in a
    parallel pool, which is exactly the scheduling hazard the
    submission-order determinism contract must absorb.
    """

    def fit(self, dataset, seed=None):
        time.sleep((int(seed) % 3) * 0.005)
        return super().fit(dataset, seed=seed)


class CrashingBasicUKMeans(BasicUKMeans):
    """Sample-based clusterer whose every fit raises."""

    def fit(self, dataset, seed=None):
        raise RuntimeError("worker boom")


class HardExitBasicUKMeans(BasicUKMeans):
    """Sample-based clusterer that kills its worker process outright."""

    def fit(self, dataset, seed=None):
        import os

        os._exit(13)


class FailFirstUKMeans(UKMeans):
    """UK-means whose seed-0 restart raises at once; the others take a
    while.  Records every restart that started."""

    def __init__(self, n_clusters, started):
        super().__init__(n_clusters)
        self.started = started

    def fit(self, dataset, seed=None):
        self.started.append(seed)
        if seed == 0:
            raise RuntimeError("restart 0 failed")
        time.sleep(0.5)
        return super().fit(dataset, seed=seed)


class _PickleTrap(np.ndarray):
    """ndarray view that refuses to be pickled — the serialization spy."""

    def __reduce__(self):
        raise AssertionError(
            "the sample tensor must travel via shared memory, not pickle"
        )


def _assert_same_result(reference, other):
    np.testing.assert_array_equal(reference.labels, other.labels)
    assert reference.objective == other.objective
    assert (
        reference.extras["best_restart"] == other.extras["best_restart"]
    )
    assert (
        reference.extras["restarts_executed"]
        == other.extras["restarts_executed"]
    )


class TestBackendInvariance:
    """serial ≡ threads ≡ processes, bit for bit, multi-seed."""

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("early_stopping", [None, 2])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UKMeans(4),  # moment-based roster
            lambda: BasicUKMeans(4, n_samples=16),  # sample-based roster
        ],
    )
    def test_backends_bit_identical(
        self, data, factory, early_stopping, seed, force_backend
    ):
        reference = MultiRestartRunner(
            factory(), n_init=5, early_stopping=early_stopping,
        ).run(data, seed=seed)
        assert reference.extras["engine_backend"] == "serial"
        for backend, n_jobs in (("threads", 3), ("processes", 2)):
            force_backend(backend, n_jobs)
            result = MultiRestartRunner(
                factory(), n_init=5, n_jobs=n_jobs,
                early_stopping=early_stopping,
            ).run(data, seed=seed)
            assert result.extras["engine_backend"] == backend
            _assert_same_result(reference, result)

    @pytest.mark.parametrize("early_stopping", [None, 1, 2])
    @pytest.mark.parametrize("n_jobs", [2, 3, 5])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UKMeans(4),
            lambda: BasicUKMeans(4, n_samples=16),
            lambda: UKMedoids(4),  # pairwise-plane roster
        ],
    )
    def test_in_flight_window_bit_identical(
        self, data, factory, n_jobs, early_stopping, force_backend
    ):
        """The pool width never changes the result — including the
        early-stopped prefix, whose stopping restart can land while up
        to ``n_jobs`` later restarts are in flight (all five at
        ``n_jobs=5``) and must be discarded."""
        reference = MultiRestartRunner(
            factory(), n_init=5, early_stopping=early_stopping,
        ).run(data, seed=7)
        for backend in ("threads", "processes"):
            force_backend(backend, n_jobs)
            result = MultiRestartRunner(
                factory(), n_init=5, n_jobs=n_jobs,
                early_stopping=early_stopping,
            ).run(data, seed=7)
            assert result.extras["engine_backend"] == backend
            _assert_same_result(reference, result)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: MinMaxBB(4, n_samples=16),
            lambda: VDBiP(4, n_samples=16),
            lambda: BoundedUKMeans(4, n_samples=16, bounds="elkan"),
            lambda: BoundedUKMeans(4, n_samples=16, bounds="hamerly"),
        ],
        ids=["MinMax-BB", "VDBiP", "Elkan", "Hamerly"],
    )
    def test_pruning_variant_across_backends(self, data, factory, force_backend):
        """Restarts of one instance run at once under ``threads``, so a
        variant that kept per-fit state on the instance would differ."""
        reference = MultiRestartRunner(factory(), n_init=4).run(data, seed=4)
        for backend in ("threads", "processes"):
            force_backend(backend)
            result = MultiRestartRunner(factory(), n_init=4, n_jobs=2).run(
                data, seed=4
            )
            _assert_same_result(reference, result)
            assert (
                result.extras["ed_evaluations"]
                == reference.extras["ed_evaluations"]
            )
            assert [r["n_iterations"] for r in result.extras["restart_history"]] == [
                r["n_iterations"] for r in reference.extras["restart_history"]
            ]

    def test_run_all_across_backends(self, data, force_backend):
        reference = MultiRestartRunner(
            BasicUKMeans(4, n_samples=16), n_init=4
        ).run_all(data, seed=9)
        for backend in ("threads", "processes"):
            force_backend(backend)
            results = MultiRestartRunner(
                BasicUKMeans(4, n_samples=16), n_init=4, n_jobs=2
            ).run_all(data, seed=9)
            assert len(results) == len(reference)
            for ref, res in zip(reference, results):
                np.testing.assert_array_equal(ref.labels, res.labels)
                assert ref.objective == res.objective

    def test_fit_best_backend_routing(self, data, force_backend):
        via_serial = UKMeans(4).fit_best(data, seed=17, n_init=4)
        force_backend("threads")
        via_threads = UKMeans(4).fit_best(data, seed=17, n_init=4, n_jobs=2)
        assert via_threads.extras["engine_backend"] == "threads"
        _assert_same_result(via_serial, via_threads)


class TestColumnarDatasetAcrossBackends:
    """A generated dataset holds columns and a source record and builds
    its objects only on demand; the process backend ships the record to
    its workers, and serial ≡ threads ≡ processes all the same."""

    @staticmethod
    def _fresh(data, kind):
        from repro.datagen import UncertaintyGenerator, make_probe_level_dataset

        if kind == "microarray":
            return make_probe_level_dataset(90, 3, 4, seed=5)
        if kind == "points":
            return UncertainDataset.from_points(data.mu_matrix, data.labels)
        return UncertaintyGenerator(family=kind).uncertain_dataset(
            data.mu_matrix, data.labels, seed=5
        )

    @pytest.mark.parametrize(
        "kind", ["uniform", "exponential", "microarray", "points"]
    )
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UKMeans(4),
            lambda: BasicUKMeans(4, n_samples=16),
            lambda: UKMedoids(4),
            lambda: MinMaxBB(4, n_samples=16),
        ],
    )
    def test_backends_bit_identical(self, data, factory, kind, force_backend):
        reference = MultiRestartRunner(factory(), n_init=4).run(
            self._fresh(data, kind), seed=3
        )
        for backend in ("threads", "processes"):
            force_backend(backend)
            dataset = self._fresh(data, kind)
            result = MultiRestartRunner(factory(), n_init=4, n_jobs=2).run(
                dataset, seed=3
            )
            assert result.extras["engine_backend"] == backend
            _assert_same_result(reference, result)
            assert dataset._objects is None

    def test_payload_is_the_source_record(
        self, data, force_backend, no_objects_built
    ):
        force_backend("processes")
        MultiRestartRunner(UKMeans(4), n_init=2, n_jobs=2).run(data, seed=1)
        assert "_CellPdfs" in no_objects_built
        source, labels = pickle.loads(pickle.dumps(data._moment_free_state()))
        for got, want in zip(source.args, data._source.args):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(labels, data.labels)


class TestEarlyStopping:
    def test_rule_matches_manual_replay(self, data):
        """The executed prefix is exactly what replaying the rule over
        the full objective sequence predicts."""
        patience = 2
        full = MultiRestartRunner(UKMeans(4), n_init=10).run(data, seed=3)
        objectives = [
            record["objective"] for record in full.extras["restart_history"]
        ]
        best = float("inf")
        stale = 0
        expected = len(objectives)
        for idx, objective in enumerate(objectives):
            if objective < best:
                best = objective
                stale = 0
            else:
                stale += 1
            if stale >= patience:
                expected = idx + 1
                break
        stopped = MultiRestartRunner(
            UKMeans(4), n_init=10, early_stopping=patience
        ).run(data, seed=3)
        assert stopped.extras["restarts_executed"] == expected
        assert stopped.extras["early_stopped"] == (expected < 10)
        assert stopped.objective == min(objectives[:expected])

    def test_deterministic_under_out_of_order_completion(
        self, data, force_backend
    ):
        """Seed-dependent jitter makes pool completions arrive out of
        submission order; the stopping decision must not move."""
        reference = MultiRestartRunner(
            JitterUKMeans(4), n_init=8, early_stopping=1
        ).run(data, seed=21)
        for backend, n_jobs in (("threads", 4), ("processes", 2)):
            force_backend(backend, n_jobs)
            result = MultiRestartRunner(
                JitterUKMeans(4), n_init=8, n_jobs=n_jobs, early_stopping=1,
            ).run(data, seed=21)
            _assert_same_result(reference, result)
            assert (
                result.extras["early_stopped"]
                == reference.extras["early_stopped"]
            )

    def test_run_all_ignores_early_stopping(self, data):
        """run_all is a measurement surface: it must never truncate."""
        runner = MultiRestartRunner(
            UKMeans(4), n_init=6, early_stopping=1
        )
        assert len(runner.run_all(data, seed=3)) == 6

    def test_int_shorthand(self, data):
        runner = MultiRestartRunner(UKMeans(4), n_init=2, early_stopping=3)
        assert runner.early_stopping == EarlyStopping(patience=3)

    def test_validation(self):
        for bad in (0, 1.5, "3", None):
            with pytest.raises(InvalidParameterError, match="patience"):
                EarlyStopping(patience=bad)
        with pytest.raises(InvalidParameterError):
            EarlyStopping(patience=2, min_improvement=-1.0)

    def test_min_improvement_counts_small_gains_as_stale(self, data):
        """A huge min_improvement makes every restart after the first
        non-improving (the first always beats the initial +inf), so the
        engine stops after exactly 1 + patience restarts."""
        result = MultiRestartRunner(
            UKMeans(4),
            n_init=10,
            early_stopping=EarlyStopping(patience=2, min_improvement=1e12),
        ).run(data, seed=5)
        assert result.extras["restarts_executed"] == 3


class TestProcessBackendSharedMemory:
    def test_sample_tensor_not_pickled(self, data, force_backend):
        """Serialization spy: with the tensor pinned as a pickle trap,
        the processes run still succeeds (shared memory) and matches
        the serial result computed from the same tensor."""
        tensor = data.sample_tensor(16, seed=33)
        plain = BasicUKMeans(4, n_samples=16)
        plain.sample_cache = tensor
        via_serial = MultiRestartRunner(plain, n_init=4).run(data, seed=2)
        trapped = BasicUKMeans(4, n_samples=16)
        trapped.sample_cache = tensor.view(_PickleTrap)
        force_backend("processes")
        via_processes = MultiRestartRunner(
            trapped, n_init=4, n_jobs=2
        ).run(data, seed=2)
        _assert_same_result(via_serial, via_processes)
        # The trap itself must still be armed (and restored after run).
        with pytest.raises(AssertionError, match="shared memory"):
            import pickle

            pickle.dumps(trapped.sample_cache)

    def _assert_blocks_unlinked(self, backend):
        assert backend.last_shared_specs  # the run did publish blocks
        for name, _, _ in backend.last_shared_specs:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_shared_blocks_unlinked_after_run(self, data, force_backend):
        backend = force_backend("processes")
        runner = MultiRestartRunner(
            BasicUKMeans(4, n_samples=16), n_init=4, n_jobs=2
        )
        runner.run(data, seed=2)
        # Moment matrices + the engine-pinned sample tensor.
        assert len(backend.last_shared_specs) == 4
        self._assert_blocks_unlinked(backend)

    def test_shared_blocks_unlinked_on_worker_exception(
        self, data, force_backend
    ):
        backend = force_backend("processes")
        runner = MultiRestartRunner(
            CrashingBasicUKMeans(4, n_samples=16), n_init=4, n_jobs=2
        )
        with pytest.raises(RuntimeError, match="worker boom"):
            runner.run(data, seed=2)
        self._assert_blocks_unlinked(backend)
        # The engine restored the clusterer despite the crash.
        assert runner.clusterer.sample_cache is None

    def test_shared_blocks_unlinked_on_worker_hard_crash(
        self, data, force_backend
    ):
        """os._exit in a worker breaks the whole pool; the blocks must
        still be unlinked."""
        backend = force_backend("processes")
        runner = MultiRestartRunner(
            HardExitBasicUKMeans(4, n_samples=16), n_init=4, n_jobs=2
        )
        with pytest.raises(BrokenProcessPool):
            runner.run(data, seed=2)
        self._assert_blocks_unlinked(backend)

    @staticmethod
    def _armed(data):
        """A copy of the dataset, with its cached ÊD matrix armed as a
        pickle trap.  The matrix is doubled, so a worker that built its
        own instead of reading the published one would disagree."""
        armed = data[:]
        armed._pairwise_ed = (2.0 * data.pairwise_ed()).view(_PickleTrap)
        return armed

    def test_pairwise_matrix_not_pickled(self, data, force_backend):
        """Serialization spy for the dataset's ÊD matrix: armed as a
        pickle trap, the processes run still succeeds (shared memory)
        and matches the serial result on the same matrix."""
        armed = self._armed(data)
        via_serial = MultiRestartRunner(UKMedoids(4), n_init=4).run(
            armed, seed=2
        )
        backend = force_backend("processes")
        via_processes = MultiRestartRunner(
            UKMedoids(4), n_init=4, n_jobs=2
        ).run(armed, seed=2)
        _assert_same_result(via_serial, via_processes)
        native = MultiRestartRunner(UKMedoids(4), n_init=4).run(data, seed=2)
        assert via_processes.objective == 2.0 * native.objective
        # Moment matrices + the dataset's ÊD matrix.
        assert len(backend.last_shared_specs) == 4
        self._assert_blocks_unlinked(backend)
        with pytest.raises(AssertionError, match="shared memory"):
            import pickle

            pickle.dumps(armed.pairwise_ed())

    def test_pairwise_block_published_and_unlinked(self, data, force_backend):
        backend = force_backend("processes")
        MultiRestartRunner(UKMedoids(4), n_init=4, n_jobs=2).run(data, seed=2)
        # Moment matrices + the engine-injected ÊD matrix.
        assert len(backend.last_shared_specs) == 4
        self._assert_blocks_unlinked(backend)

    def test_uahc_pairwise_matrix_not_pickled(self, data, force_backend):
        """UAHC's ``"ed"`` linkage reads the same matrix: armed as a
        pickle trap, it rides shared memory under the process backend,
        never pickle."""
        armed = self._armed(data)
        seeds = [0, 1, 2, 3]
        via_serial = MultiRestartRunner(UAHC(3, linkage="ed")).run_all(
            armed, seeds=seeds
        )
        backend = force_backend("processes")
        via_processes = MultiRestartRunner(
            UAHC(3, linkage="ed"), n_jobs=2
        ).run_all(armed, seeds=seeds)
        native = UAHC(3, linkage="ed").fit(data)
        for serial_run, process_run in zip(via_serial, via_processes):
            np.testing.assert_array_equal(
                serial_run.labels, process_run.labels
            )
            heights = [m.height for m in process_run.extras["merges"]]
            assert [m.height for m in serial_run.extras["merges"]] == heights
            assert heights == [2.0 * m.height for m in native.extras["merges"]]
        assert len(backend.last_shared_specs) == 4
        self._assert_blocks_unlinked(backend)
        with pytest.raises(AssertionError, match="shared memory"):
            import pickle

            pickle.dumps(armed.pairwise_ed())

    def test_uahc_pairwise_block_published_and_unlinked(
        self, data, force_backend
    ):
        backend = force_backend("processes")
        MultiRestartRunner(
            UAHC(3, linkage="ed"), n_init=4, n_jobs=2
        ).run_all(data, seeds=[0, 1, 2, 3])
        # Moment matrices + the engine-injected ÊD matrix.
        assert len(backend.last_shared_specs) == 4
        self._assert_blocks_unlinked(backend)

    def test_worker_dataset_views_match_parent(self, data, force_backend):
        """Workers rebuild the dataset around shared views; fitting the
        same seeds through them must equal in-process fits."""
        reference = [
            UKMeans(4).fit(data, seed=s).labels for s in (1, 2, 3, 4)
        ]
        force_backend("processes")
        results = MultiRestartRunner(
            UKMeans(4), n_init=4, n_jobs=2
        ).run_all(data, seeds=[1, 2, 3, 4])
        for ref, res in zip(reference, results):
            np.testing.assert_array_equal(ref, res.labels)


class TestSharedBlockRegistry:
    """The sweep's per-group publication scope: stable arrays (moment
    matrices, the ÊD matrix) go into shared memory once per group, not
    once per run-set."""

    def _counting_shared_ndarray(self, monkeypatch):
        import repro.engine.backends as backends_module

        original = backends_module._SharedNDArray
        created = []

        class Counting(original):
            def __init__(self, array):
                created.append(array.shape)
                super().__init__(array)

        monkeypatch.setattr(backends_module, "_SharedNDArray", Counting)
        return created

    def test_blocks_published_once_per_group(
        self, data, monkeypatch, force_backend
    ):
        created = self._counting_shared_ndarray(monkeypatch)
        reference = MultiRestartRunner(UKMedoids(3), n_init=4).run(
            data, seed=6
        )
        force_backend("processes")
        with shared_block_registry():
            results = [
                MultiRestartRunner(UKMedoids(3), n_init=4, n_jobs=2).run(
                    data, seed=6
                )
                for _ in range(2)
            ]
        # 3 moment matrices + 1 ÊD matrix, created once across both
        # run-sets (without the scope each run creates its own 4).
        assert len(created) == 4
        for result in results:
            np.testing.assert_array_equal(reference.labels, result.labels)
            assert reference.objective == result.objective

    def test_registry_blocks_unlinked_on_scope_exit(self, data, force_backend):
        backend = force_backend("processes")
        with shared_block_registry():
            MultiRestartRunner(UKMedoids(3), n_init=4, n_jobs=2).run(
                data, seed=6
            )
            # Inside the scope the blocks are still alive (reusable).
            name = backend.last_shared_specs[0][0]
            shared_memory.SharedMemory(name=name).close()
        for name, _, _ in backend.last_shared_specs:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_sample_tensors_are_never_interned(
        self, data, monkeypatch, force_backend
    ):
        """Per-cell tensors are fresh draws; interning them would hold
        every cell's tensor until the scope closes."""
        created = self._counting_shared_ndarray(monkeypatch)
        force_backend("processes")
        with shared_block_registry():
            for seed in (2, 3):
                MultiRestartRunner(
                    BasicUKMeans(4, n_samples=16), n_init=4, n_jobs=2
                ).run(data, seed=seed)
        # 3 interned moment matrices + one tensor per run-set.
        assert len(created) == 5

    def test_nested_scopes_rejected(self):
        with shared_block_registry():
            with pytest.raises(InvalidParameterError, match="nested"):
                with shared_block_registry():
                    pass


#: A process-pool run whose parent is SIGKILLed while both workers fit.
#: Prints the run's shared-memory block names; each fit leaves a file
#: named after its worker's pid in the directory given as argv[1].
_ORPHAN_SCENARIO = """
import json, os, sys, threading, time
from pathlib import Path

from repro.clustering import UKMeans
from repro.datagen import make_blobs_uncertain
from repro.engine import ProcessBackend


class SleepyUKMeans(UKMeans):
    def fit(self, dataset, seed=None):
        Path(self.mark_dir, str(os.getpid())).touch()
        time.sleep(60)
        return super().fit(dataset, seed=seed)


def report(backend):
    while not backend.last_shared_specs:
        time.sleep(0.01)
    names = [name for name, _, _ in backend.last_shared_specs]
    print(json.dumps(names), flush=True)


if __name__ == "__main__":
    model = SleepyUKMeans(2)
    model.mark_dir = sys.argv[1]
    backend = ProcessBackend(2)
    threading.Thread(target=report, args=(backend,), daemon=True).start()
    data = make_blobs_uncertain(n_objects=40, n_clusters=2, seed=0)
    backend.run(model, data, [0, 1, 2, 3])
"""


def _running(pid):
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestPoolBackends:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(InvalidParameterError):
            ThreadBackend(0)
        with pytest.raises(InvalidParameterError):
            ProcessBackend(0)

    def test_failing_restart_cancels_queued_restarts(self, data):
        """A failing restart ends the run without first fitting every
        queued one: only the restarts already running finish."""
        started = []
        with pytest.raises(RuntimeError, match="restart 0 failed"):
            ThreadBackend(2).run(
                FailFirstUKMeans(4, started), data, list(range(8))
            )
        assert len(started) <= 2 + 1

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or not Path("/dev/shm").is_dir(),
        reason="needs Linux /proc and /dev/shm",
    )
    def test_sigkilled_parent_leaves_no_workers_or_blocks(self, tmp_path):
        """Pool workers exit once their parent is gone, so a SIGKILLed
        run leaves neither orphaned workers nor /dev/shm blocks."""
        script = tmp_path / "scenario.py"
        script.write_text(_ORPHAN_SCENARIO)
        marks = tmp_path / "marks"
        marks.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        parent = subprocess.Popen(
            [sys.executable, str(script), str(marks)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60)
            assert ready, "the run never published its blocks"
            blocks = json.loads(parent.stdout.readline())
            deadline = time.monotonic() + 60
            while len(list(marks.iterdir())) < 2:
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        workers = [int(mark.name) for mark in marks.iterdir()]
        shm = Path("/dev/shm")
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            left = [pid for pid in workers if _running(pid)]
            leaked = [name for name in blocks if (shm / name).exists()]
            if not left and not leaked:
                break
            time.sleep(0.1)
        assert blocks and not leaked
        assert not left


class TestChooseBackend:
    """The engine's dispatch rule: ``n_jobs`` and the algorithm pick
    the backend of every run-set."""

    @pytest.fixture(scope="class")
    def big_data(self):
        # n * m above AUTO_SERIAL_ELEMENTS so the rule reaches the family
        # dispatch instead of short-circuiting to serial.
        return make_blobs_uncertain(
            n_objects=400, n_clusters=4, n_attributes=16, separation=2.5,
            seed=13,
        )

    def test_serial_when_single_worker_or_restart(self, data):
        assert choose_backend(UKMeans(4), data, 8, n_jobs=1).name == "serial"
        assert choose_backend(UKMeans(4), data, 1, n_jobs=4).name == "serial"

    def test_serial_for_sub_ms_fits(self, data):
        # n=90, m=2 is far below the AUTO_SERIAL_ELEMENTS floor.
        assert choose_backend(UKMeans(4), data, 8, n_jobs=4).name == "serial"

    def test_family_dispatch(self, big_data):
        from repro.clustering import UAHC, UCPC, MMVar

        for gil_releasing in (UKMeans(4), BasicUKMeans(4, n_samples=8)):
            backend = choose_backend(gil_releasing, big_data, 8, n_jobs=4)
            assert isinstance(backend, ThreadBackend) and backend.n_jobs == 4
        for interpreter_bound in (UKMedoids(4), UCPC(4), MMVar(4), UAHC(4)):
            backend = choose_backend(interpreter_bound, big_data, 8, n_jobs=4)
            assert isinstance(backend, ProcessBackend) and backend.n_jobs == 4

    @pytest.mark.parametrize(
        "name",
        [
            "UCPC", "UKM", "MMV", "UKmed", "bUKM", "MinMax-BB", "VDBiP",
            "FDB", "FOPT", "UAHC", "bUKM-EH", "MB-UKM",
        ],
    )
    def test_roster_dispatch(self, big_data, name):
        """Every roster algorithm the experiments build lands on its
        family's pool; only the interpreter-bound relocation loops go
        to processes."""
        from repro.experiments.config import build_algorithm

        clusterer = build_algorithm(name, 4, n_samples=8)
        backend = choose_backend(clusterer, big_data, 8, n_jobs=3)
        expected = (
            "processes" if name in ("UCPC", "MMV", "UKmed", "UAHC") else "threads"
        )
        assert backend.name == clusterer.preferred_backend == expected
        assert backend.n_jobs == 3

    def test_serial_threshold_counts_samples(self, data):
        """The per-fit size is objects × attributes × samples, so the
        same dataset crosses AUTO_SERIAL_ELEMENTS through ``n_samples``
        alone: n=90, m=2 with 16 samples is 2,880 elements (serial),
        with 32 it is 5,760 (threads)."""
        assert len(data) * data.dim * 16 <= AUTO_SERIAL_ELEMENTS
        assert len(data) * data.dim * 32 > AUTO_SERIAL_ELEMENTS
        small = choose_backend(BasicUKMeans(4, n_samples=16), data, 8, 2)
        assert small.name == "serial"
        large = choose_backend(BasicUKMeans(4, n_samples=32), data, 8, 2)
        assert isinstance(large, ThreadBackend) and large.n_jobs == 2

    @pytest.mark.parametrize(
        "factory", [lambda: UKMeans(4), lambda: UKMedoids(4)]
    )
    def test_dispatched_bit_identical_to_serial(self, big_data, factory):
        """``n_jobs`` must keep the backend-invariance promise across
        both dispatch families (threads for UK-means, processes for
        UK-medoids)."""
        reference = MultiRestartRunner(factory(), n_init=4).run(
            big_data, seed=11
        )
        result = MultiRestartRunner(factory(), n_init=4, n_jobs=2).run(
            big_data, seed=11
        )
        assert result.extras["engine_backend"] == factory().preferred_backend
        _assert_same_result(reference, result)
