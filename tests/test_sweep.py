"""Tests for the paper-grid sweep orchestrator (repro.engine.sweep).

The direct runners are walks of the sweep with no result store, so the
orchestrator's contract is stable values plus persistence: cells must
keep the values recorded before the runners became the sweep (theta bit
for bit, Q within ``Q_BOUND``; every backend equal to the serial run bit
for bit), a resumed store must be byte-identical to an
uninterrupted one, damaged cells must be detected and re-run,
stores written before must still resume, and each dataset's off-line
caches (moment matrices, sampling plan, pairwise ÊD matrix) must be
built exactly once across the whole grid.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.engine.store import canonical_dumps, diff_stores, open_store
from repro.engine.sweep import (
    Figure4Spec,
    Figure5Spec,
    SweepGrid,
    Table2Spec,
    Table3Spec,
    cell_id,
    run_sweep,
)
from repro.exceptions import SweepStoreError
from repro.experiments import (
    ExperimentConfig,
    run_figure4,
    run_figure5,
    run_table2,
    run_table3,
)
from tests.conftest import Q_BOUND

T2_AXES = dict(
    datasets=("iris",), families=("normal",), algorithms=("UKM", "UKmed")
)
T3_AXES = dict(
    datasets=("neuroblastoma",),
    cluster_counts=(2, 3),
    algorithms=("UKmed", "MMV"),
)


#: ``float.hex`` cell values of the T2_AXES/T3_AXES grid at three seeds,
#: recorded from the direct runners while they were still a separate
#: loop: ``{seed: {algorithm: (theta, quality)}}`` for Table 2 and
#: ``{seed: {(k, algorithm): quality}}`` for Table 3.  Theta is held to
#: its bits; Q, recorded from the per-block ÊD loop that the closed form
#: replaced, to within ``Q_BOUND``.
PINNED_TABLE2 = {
    0: {
        "UKM": ("-0x1.623a23a23a236p-3", "0x1.334499f562e1ep-2"),
        "UKmed": ("0x1.b3e4f0bba6e10p-6", "0x1.67d546475c0cep-2"),
    },
    7: {
        "UKM": ("0x1.c5bb637827fe8p-4", "0x1.9bdaa1a837823p-2"),
        "UKmed": ("0x1.38e2d8abe3870p-4", "0x1.a3731750e0d6ap-2"),
    },
    123: {
        "UKM": ("0x1.0603ee77cb0aep-2", "0x1.676b25087f1b3p-2"),
        "UKmed": ("0x1.c9e82cbbaf492p-3", "0x1.618007d362a2fp-2"),
    },
}
PINNED_TABLE3 = {
    0: {
        (2, "UKmed"): "0x1.59ff1c6fdd524p-2",
        (2, "MMV"): "0x1.c6715984850e4p-3",
        (3, "UKmed"): "0x1.3c061245c311ep-2",
        (3, "MMV"): "0x1.22cc66dded38ep-4",
    },
    7: {
        (2, "UKmed"): "0x1.9cc17ad71f159p-3",
        (2, "MMV"): "0x1.020c10568ce28p-2",
        (3, "UKmed"): "0x1.3d0faa4fee654p-2",
        (3, "MMV"): "0x1.47d8ca85266ebp-2",
    },
    123: {
        (2, "UKmed"): "0x1.ddf25d47732d4p-3",
        (2, "MMV"): "0x1.ff7a2d6faf183p-3",
        (3, "UKmed"): "0x1.226158fdd3704p-2",
        (3, "MMV"): "-0x1.6687f533ea9acp-5",
    },
}


def _recorded_config(**changes):
    """A config as recorded in manifests: the defaults plus ``changes``."""
    return dict(
        {
            "backend": "serial",
            "batch_size": 1,
            "engine": True,
            "mass": 0.95,
            "max_objects": 600,
            "n_jobs": 1,
            "n_runs": 5,
            "n_samples": 32,
            "scale": 1.0,
            "seed": 2012,
            "spread": 1.0,
        },
        **changes,
    )


_ACCURACY = ["FDB", "FOPT", "UAHC", "UKmed", "UKM", "MMV", "UCPC"]
_SLOW = ["UKmed", "bUKM", "UAHC", "FDB", "FOPT"]
_FAST = ["UKM", "MMV", "MinMax-BB", "VDBiP"]

#: ``paper_grid().describe()`` as recorded before the runners became the
#: sweep.
PAPER_GRID_MANIFEST = {
    "schema": 2,
    "surfaces": {
        "table2": {
            "config": _recorded_config(),
            "datasets": [
                "iris", "wine", "glass", "ecoli", "yeast", "image",
                "abalone", "letter",
            ],
            "families": ["uniform", "normal", "exponential"],
            "algorithms": _ACCURACY,
        },
        "table3": {
            "config": _recorded_config(scale=0.02),
            "datasets": ["neuroblastoma", "leukaemia"],
            "cluster_counts": [2, 3, 5, 10, 15, 20, 25, 30],
            "algorithms": _ACCURACY,
        },
        "figure4": {
            "config": _recorded_config(scale=0.02, n_runs=3),
            "datasets": ["abalone", "letter", "neuroblastoma", "leukaemia"],
            "slow_group": _SLOW,
            "fast_group": _FAST,
            "n_clusters": 10,
        },
        "figure5": {
            "config": _recorded_config(n_runs=3),
            "fractions": [0.05, 0.25, 0.5, 0.75, 1.0],
            "algorithms": ["UKM", "MMV", "MinMax-BB", "VDBiP", "UCPC"],
            "base_size": 20000,
        },
    },
}

#: The ``repro sweep --quick`` grid's manifest at default arguments, as
#: recorded before the runners became the sweep.
QUICK_GRID_MANIFEST = {
    "schema": 2,
    "surfaces": {
        "table2": {
            "config": _recorded_config(
                scale=0.2, max_objects=60, n_runs=2, n_samples=8
            ),
            "datasets": ["iris"],
            "families": ["normal"],
            "algorithms": ["UKM", "UKmed"],
        },
        "table3": {
            "config": _recorded_config(scale=0.004, n_runs=2, n_samples=8),
            "datasets": ["neuroblastoma"],
            "cluster_counts": [2, 3],
            "algorithms": ["UKmed", "MMV"],
        },
        "figure4": {
            "config": _recorded_config(
                scale=0.02, max_objects=80, n_runs=2, n_samples=8
            ),
            "datasets": ["abalone"],
            "slow_group": _SLOW,
            "fast_group": _FAST,
            "n_clusters": 10,
        },
        "figure5": {
            "config": _recorded_config(n_runs=2, n_samples=8),
            "fractions": [0.25, 1.0],
            "algorithms": ["UKM", "MMV"],
            "base_size": 2000,
        },
    },
}


def _configs(seed=5, n_jobs=1, n_runs=2):
    common = dict(n_runs=n_runs, n_samples=8, seed=seed, n_jobs=n_jobs)
    return (
        ExperimentConfig(scale=0.12, max_objects=40, **common),
        ExperimentConfig(scale=0.004, **common),
    )


def _grid(seed=5, n_jobs=1):
    cfg2, cfg3 = _configs(seed, n_jobs)
    return SweepGrid(
        table2=Table2Spec(config=cfg2, **T2_AXES),
        table3=Table3Spec(config=cfg3, **T3_AXES),
    )


def _direct_reports(seed=5):
    """The reference values: direct serial runner invocations."""
    cfg2, cfg3 = _configs(seed)
    return (
        run_table2(cfg2, **T2_AXES),
        run_table3(cfg3, **T3_AXES),
    )


def _assert_matches_direct(outcome, table2, table3):
    for key, cell in table2.cells.items():
        sweep_cell = outcome.table2.cells[key]
        assert sweep_cell.theta == cell.theta, key
        assert sweep_cell.quality == cell.quality, key
    for key, quality in table3.quality.items():
        assert outcome.table3.quality[key] == quality, key


def _assert_pinned(table2, table3, seed):
    """The reports carry the recorded cells of ``seed``: the same keys,
    theta bit for bit and Q within ``Q_BOUND``."""
    pinned2, pinned3 = PINNED_TABLE2[seed], PINNED_TABLE3[seed]
    cells = {alg: cell for (_, _, alg), cell in table2.cells.items()}
    assert cells.keys() == pinned2.keys()
    for alg, (theta, quality) in pinned2.items():
        assert cells[alg].theta.hex() == theta, alg
        assert abs(cells[alg].quality - float.fromhex(quality)) <= Q_BOUND, alg
    qualities = {(k, alg): q for (_, k, alg), q in table3.quality.items()}
    assert qualities.keys() == pinned3.keys()
    for key, quality in pinned3.items():
        assert abs(qualities[key] - float.fromhex(quality)) <= Q_BOUND, key


def _store_rows(path: Path):
    """The full logical content of a store (cells, values, manifest)."""
    conn = sqlite3.connect(str(path))
    try:
        return [
            conn.execute(f"SELECT * FROM {table} ORDER BY 1, 2").fetchall()
            for table in ("cells", "cell_values", "meta")
        ]
    finally:
        conn.close()


def _update(path: Path, sql: str, params=()) -> None:
    """Edit a store behind its back (damage a cell, drop a row)."""
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(sql, params)
    conn.close()


def _drop_cell(path: Path, name: str) -> None:
    _update(path, "DELETE FROM cells WHERE cell_id = ?", (name,))
    _update(path, "DELETE FROM cell_values WHERE cell_id = ?", (name,))


def _manifest(path: Path):
    with open_store(path) as store:
        return store.read_manifest()


@pytest.fixture(scope="module")
def pinned_direct_reports():
    """``{seed: (table2, table3)}`` of the direct serial runners at the
    pinned seeds, computed once for every test that compares with them."""
    return {seed: _direct_reports(seed) for seed in sorted(PINNED_TABLE2)}


class TestSweepEquivalence:
    """Sweep and direct-runner cells keep their recorded values."""

    @pytest.mark.parametrize("seed", sorted(PINNED_TABLE2))
    def test_pinned_values_serial(self, tmp_path, seed, pinned_direct_reports):
        outcome = run_sweep(_grid(seed=seed), tmp_path / f"s{seed}")
        _assert_pinned(outcome.table2, outcome.table3, seed)
        _assert_matches_direct(outcome, *pinned_direct_reports[seed])

    @pytest.mark.parametrize(
        "backend,n_jobs", [("threads", 3), ("dispatched", 2)]
    )
    def test_parallel_backend_bit_identity(
        self, tmp_path, backend, n_jobs, force_backend, pinned_direct_reports
    ):
        """Backends are result-invariant, so a sweep on a forced pool,
        or on whatever ``n_jobs`` dispatches to, must reproduce the
        serial run bit for bit (and so the recorded values)."""
        if backend != "dispatched":
            force_backend(backend, n_jobs)
        for seed in sorted(PINNED_TABLE2):
            outcome = run_sweep(
                _grid(seed=seed, n_jobs=n_jobs),
                tmp_path / f"{backend}-{seed}",
            )
            _assert_pinned(outcome.table2, outcome.table3, seed)
            _assert_matches_direct(outcome, *pinned_direct_reports[seed])

    def test_processes_backend_bit_identity(
        self, tmp_path, force_backend, pinned_direct_reports
    ):
        """The process pool (shared-memory publication, group block
        registry) is the costly path — one seed keeps the test fast."""
        force_backend("processes")
        outcome = run_sweep(_grid(seed=7, n_jobs=2), tmp_path / "processes")
        _assert_pinned(outcome.table2, outcome.table3, 7)
        _assert_matches_direct(outcome, *pinned_direct_reports[7])

    def test_jobs_reach_the_preferred_pool(self, monkeypatch):
        """``n_jobs`` is the only execution setting, so it alone must
        take a cell above the serial threshold to its algorithm's
        preferred pool — with the cells of ``n_jobs=1``."""
        import repro.engine.runner as runner

        choose = runner.choose_backend
        chosen = []

        def spy(clusterer, dataset, n_restarts, n_jobs):
            backend = choose(clusterer, dataset, n_restarts, n_jobs)
            chosen.append((clusterer.preferred_backend, backend.name))
            return backend

        monkeypatch.setattr(runner, "choose_backend", spy)
        axes = dict(
            datasets=("neuroblastoma",),
            cluster_counts=(2,),
            algorithms=("UKmed", "UKM"),
        )
        reports = {}
        for n_jobs in (1, 2):
            chosen.clear()
            config = ExperimentConfig(
                scale=0.02, n_runs=2, n_samples=8, seed=5, n_jobs=n_jobs
            )
            reports[n_jobs] = run_table3(config, **axes)
            if n_jobs == 1:
                assert {name for _, name in chosen} == {"serial"}
        assert sorted(chosen) == [
            ("processes", "processes"), ("threads", "threads")
        ]
        assert reports[2].quality == reports[1].quality

    def test_figure_surfaces_match_direct_structure(self, tmp_path):
        """Figure cells store measured runtimes (not deterministic), so
        the sweep pins structure: same cell keys, same deterministic
        subset sizes, positive runtimes."""
        cfg = ExperimentConfig(
            scale=0.02, max_objects=60, n_runs=1, n_samples=8, seed=3
        )
        grid = SweepGrid(
            figure4=Figure4Spec(config=cfg, datasets=("abalone",)),
            figure5=Figure5Spec(
                config=cfg,
                fractions=(0.25, 1.0),
                algorithms=("UKM", "MMV"),
                base_size=1500,
            ),
        )
        outcome = run_sweep(grid, tmp_path / "figures")
        direct4 = run_figure4(cfg, datasets=("abalone",))
        direct5 = run_figure5(
            cfg,
            fractions=(0.25, 1.0),
            algorithms=("UKM", "MMV"),
            base_size=1500,
        )
        assert set(outcome.figure4.runtimes_ms) == set(direct4.runtimes_ms)
        assert all(v > 0 for v in outcome.figure4.runtimes_ms.values())
        assert outcome.figure5.sizes == direct5.sizes
        assert set(outcome.figure5.runtimes_ms) == set(direct5.runtimes_ms)
        assert all(v > 0 for v in outcome.figure5.runtimes_ms.values())


class TestResume:
    """Satellite 3: kill mid-grid, resume, byte-identical store."""

    def _interrupted_store(self, store, kill_after, monkeypatch):
        """Run the grid but die after ``kill_after`` table2 cells."""
        import repro.experiments.table2 as table2_module

        original = table2_module.run_table2_cell
        calls = {"count": 0}

        def bomb(*args, **kwargs):
            if calls["count"] >= kill_after:
                raise KeyboardInterrupt("simulated kill")
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(table2_module, "run_table2_cell", bomb)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_grid(), store)
        monkeypatch.setattr(table2_module, "run_table2_cell", original)

    def test_mid_group_kill_then_resume_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        clean = tmp_path / "clean"
        run_sweep(_grid(), clean)
        # Kill after 1 of the 2 table2 cells: the resume must replay the
        # completed cell's seed consumption so the second cell (and all
        # of table3) still sees the uninterrupted streams.
        killed = tmp_path / "killed"
        self._interrupted_store(killed, kill_after=1, monkeypatch=monkeypatch)
        outcome = run_sweep(_grid(), killed, resume=True)
        assert len(outcome.reused) == 1
        assert len(outcome.executed) == 5
        assert _store_rows(clean) == _store_rows(killed)
        table2, table3 = _direct_reports()
        _assert_matches_direct(outcome, table2, table3)

    def test_undamaged_resume_reuses_everything(self, tmp_path):
        store = tmp_path / "store"
        first = run_sweep(_grid(), store)
        again = run_sweep(_grid(), store, resume=True)
        assert not again.executed
        assert sorted(again.reused) == sorted(
            first.executed
        )
        table2, table3 = _direct_reports()
        _assert_matches_direct(again, table2, table3)

    def test_corrupted_and_partial_cells_detected_and_rerun(self, tmp_path):
        clean = tmp_path / "clean"
        run_sweep(_grid(), clean)
        damaged = tmp_path / "damaged"
        run_sweep(_grid(), damaged)
        truncated = cell_id("table2", ("iris", "normal"), ("UKM",))
        _update(  # torn payload text: broken JSON
            damaged,
            "UPDATE cells SET payload = substr(payload, 1, 25) "
            "WHERE cell_id = ?",
            (truncated,),
        )
        partial = cell_id("table3", ("neuroblastoma",), ("k2", "UKmed"))
        _update(  # incomplete payload: no values
            damaged,
            "UPDATE cells SET payload = ? WHERE cell_id = ?",
            (json.dumps({"status": "running"}), partial),
        )
        outcome = run_sweep(_grid(), damaged, resume=True)
        assert sorted(outcome.invalid) == sorted([truncated, partial])
        assert sorted(outcome.executed) == sorted(outcome.invalid)
        assert _store_rows(clean) == _store_rows(damaged)

    def test_stale_seed_fingerprint_reruns_cell(self, tmp_path):
        """A cell whose recorded seed state no longer matches the
        replayed schedule is re-run, not silently reused.  (A fully
        cached group is reused wholesale on the manifest's authority,
        so the group must be partially complete for the per-cell
        fingerprint walk to engage — here a sibling cell is missing.)"""
        clean = tmp_path / "clean"
        run_sweep(_grid(), clean)
        store = tmp_path / "stale"
        run_sweep(_grid(), store)
        stale = cell_id("table2", ("iris", "normal"), ("UKmed",))
        with open_store(store) as opened:
            payload, _problem = opened.load_cell(stale)
        payload["seed_state"] = "0" * 40
        _update(
            store,
            "UPDATE cells SET payload = ?, seed_state = ? WHERE cell_id = ?",
            (canonical_dumps(payload), payload["seed_state"], stale),
        )
        missing = cell_id("table2", ("iris", "normal"), ("UKM",))
        _drop_cell(store, missing)
        outcome = run_sweep(_grid(), store, resume=True)
        assert outcome.invalid == [stale]
        assert sorted(outcome.executed) == sorted([stale, missing])
        assert _store_rows(clean) == _store_rows(store)


    def test_partial_figure5_resume_redraws_every_subset(
        self, tmp_path, monkeypatch
    ):
        """Figure 5's fractions share one data stream: a resume with one
        cell missing must draw every fraction's subset again, in order,
        so the pending cell clusters the same subset an uninterrupted
        run did."""
        import hashlib

        import repro.experiments.figure5 as figure5_module

        original = figure5_module.prepare_figure5_fraction
        draws = []

        def recording(full, frac, rng_data):
            subset = original(full, frac, rng_data)
            digest = hashlib.sha1(subset.mu_matrix.tobytes()).hexdigest()
            draws.append((frac, digest))
            return subset

        monkeypatch.setattr(
            figure5_module, "prepare_figure5_fraction", recording
        )
        cfg = ExperimentConfig(n_runs=1, n_samples=8, seed=3)
        grid = SweepGrid(
            figure5=Figure5Spec(
                config=cfg,
                fractions=(0.25, 0.5, 1.0),
                algorithms=("UKM",),
                base_size=400,
            )
        )
        store = tmp_path / "store"
        run_sweep(grid, store)
        fresh, draws[:] = list(draws), []
        missing = cell_id("figure5", ("f0.5",), ("UKM",))
        _drop_cell(store, missing)
        outcome = run_sweep(grid, store, resume=True)
        assert outcome.executed == [missing] and not outcome.invalid
        assert draws == fresh

class TestStoreSafety:
    def test_refuses_existing_results_without_resume(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(_grid(), store)
        with pytest.raises(SweepStoreError, match="resume"):
            run_sweep(_grid(), store)

    def test_refuses_store_from_different_grid(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(_grid(seed=5), store)
        with pytest.raises(SweepStoreError, match="different grid"):
            run_sweep(_grid(seed=6), store, resume=True)

    def test_refuses_unrelated_non_empty_directory(self, tmp_path):
        """Neither a directory nor a database without a sweep manifest
        is a store; both are refused and left as they were."""
        target = tmp_path / "notastore"
        target.mkdir()
        (target / "precious.txt").write_text("do not clobber")
        with pytest.raises(SweepStoreError, match="is a directory"):
            run_sweep(_grid(), target)
        assert (target / "precious.txt").read_text() == "do not clobber"
        database = tmp_path / "other.sqlite"
        _update(database, "CREATE TABLE precious (x)")
        _update(database, "INSERT INTO precious VALUES ('do not clobber')")
        with pytest.raises(SweepStoreError, match="no sweep manifest"):
            run_sweep(_grid(), database)
        conn = sqlite3.connect(str(database))
        try:
            tables = conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
            rows = conn.execute("SELECT x FROM precious").fetchall()
        finally:
            conn.close()
        assert tables == [("precious",)]
        assert rows == [("do not clobber",)]

    def test_refuses_corrupt_manifest(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(_grid(), store)
        _update(
            store, "UPDATE meta SET value = '{not json' WHERE key = 'manifest'"
        )
        with pytest.raises(SweepStoreError, match="unreadable"):
            run_sweep(_grid(), store, resume=True)

    def test_resumes_store_written_with_any_execution_flags(self, tmp_path):
        """Execution keys are no part of a grid's identity: a store
        whose manifest records non-default ones (as ``--backend auto
        --jobs 2 --batch-size auto`` used to write) resumes with every
        cell reused at any ``n_jobs``, and diffs identical to a store
        written with default settings."""
        store = tmp_path / "store"
        n_cells = len(run_sweep(_grid(), store).executed)
        manifest = _manifest(store)
        for surface in manifest["surfaces"].values():
            surface["config"].update(
                backend="auto", n_jobs=2, batch_size="auto"
            )
        _update(
            store,
            "UPDATE meta SET value = ? WHERE key = 'manifest'",
            (canonical_dumps(manifest),),
        )
        for n_jobs in (1, 2):
            outcome = run_sweep(_grid(n_jobs=n_jobs), store, resume=True)
            assert not outcome.executed and not outcome.invalid
            assert len(outcome.reused) == n_cells
        assert _manifest(store) == manifest
        reference = tmp_path / "reference"
        run_sweep(_grid(), reference)
        assert diff_stores(store, reference) == []
        with pytest.raises(SweepStoreError, match="different grid"):
            run_sweep(_grid(seed=6), store, resume=True)

    def test_manifest_records_grid(self, tmp_path):
        store = tmp_path / "store"
        grid = _grid()
        run_sweep(grid, store)
        manifest = _manifest(store)
        assert manifest == grid.describe()
        assert set(manifest["surfaces"]) == {"table2", "table3"}

    def test_manifests_match_recorded_grids(self):
        """``describe()`` must equal the manifests recorded while
        ``ExperimentConfig`` still had its ``engine`` field — with the
        ``"engine": true`` key — or every existing store would be
        refused as written for a different grid."""
        from repro.cli import _sweep_grid, build_parser
        from repro.engine.sweep import paper_grid

        quick = _sweep_grid(
            build_parser().parse_args(["sweep", "--store", "s", "--quick"])
        )
        assert paper_grid().describe() == PAPER_GRID_MANIFEST
        assert quick.describe() == QUICK_GRID_MANIFEST

    def test_grid_needs_a_surface(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="at least one"):
            SweepGrid()


class TestCacheSharing:
    """Satellite 2: one cache build per dataset across the whole grid."""

    @pytest.fixture
    def build_spies(self, monkeypatch):
        """Counts of every off-line build the grid can trigger."""
        import repro.experiments.table3 as table3_module
        import repro.objects.distance as distance_module
        import repro.uncertainty.batch as batch_module

        counts = {"pairwise": 0, "plan": 0, "dataset": 0}

        original_pairwise = distance_module.pairwise_squared_expected_distances

        def counting_pairwise(dataset):
            counts["pairwise"] += 1
            return original_pairwise(dataset)

        # UncertainDataset.pairwise_ed, the matrix's only builder, looks
        # the kernel up in this module.
        monkeypatch.setattr(
            distance_module,
            "pairwise_squared_expected_distances",
            counting_pairwise,
        )

        # Every sampling plan, whether compiled from objects or built
        # from a generated dataset's columns.
        original_plan = batch_module.SamplingPlan.__init__

        def counting_plan(self, *args, **kwargs):
            counts["plan"] += 1
            original_plan(self, *args, **kwargs)

        monkeypatch.setattr(batch_module.SamplingPlan, "__init__", counting_plan)

        original_microarray = table3_module.make_microarray

        def counting_microarray(*args, **kwargs):
            counts["dataset"] += 1
            return original_microarray(*args, **kwargs)

        monkeypatch.setattr(
            table3_module, "make_microarray", counting_microarray
        )
        return counts

    def test_one_build_per_dataset_across_grid(self, tmp_path, build_spies):
        """4 cells share 1 dataset: the dataset is generated once, its
        ÊD matrix is built once (feeding UK-medoids fits *and* every
        cell's internal criterion), and the sampling plan is compiled
        once (shared by both sample-based cells)."""
        cfg = ExperimentConfig(scale=0.004, n_runs=2, n_samples=8, seed=3)
        grid = SweepGrid(
            table3=Table3Spec(
                config=cfg,
                datasets=("neuroblastoma",),
                cluster_counts=(2, 3),
                algorithms=("UKmed", "bUKM"),
            )
        )
        run_sweep(grid, tmp_path / "store")
        assert build_spies["dataset"] == 1
        assert build_spies["pairwise"] == 1
        assert build_spies["plan"] == 1

    def test_resume_of_complete_group_builds_nothing(
        self, tmp_path, build_spies
    ):
        cfg = ExperimentConfig(scale=0.004, n_runs=1, n_samples=8, seed=3)
        grid = SweepGrid(
            table3=Table3Spec(
                config=cfg,
                datasets=("neuroblastoma",),
                cluster_counts=(2,),
                algorithms=("UKmed",),
            )
        )
        run_sweep(grid, tmp_path / "store")
        before = dict(build_spies)
        run_sweep(grid, tmp_path / "store", resume=True)
        assert build_spies == before


class TestCLI:
    def test_sweep_command_quick_grid(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        code = main(
            [
                "sweep",
                "--store",
                str(store),
                "--quick",
                "--surfaces",
                "table2",
                "--runs",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep complete" in out
        assert store.is_file()
        assert len(_store_rows(store)[0]) == 2
        # Resume reuses; a third run without --resume is refused.
        assert (
            main(
                [
                    "sweep", "--store", str(store), "--quick",
                    "--surfaces", "table2", "--runs", "1", "--resume",
                ]
            )
            == 0
        )
        assert "0 cells run, 2 reused" in capsys.readouterr().out
        assert (
            main(
                [
                    "sweep", "--store", str(store), "--quick",
                    "--surfaces", "table2", "--runs", "1",
                ]
            )
            == 2
        )


class TestReportingIntegration:
    def test_outcome_artifacts_requires_full_grid(self, tmp_path):
        from repro.exceptions import InvalidParameterError

        outcome = run_sweep(_grid(), tmp_path / "store")
        with pytest.raises(InvalidParameterError, match="missing"):
            outcome.artifacts()

    def test_collect_artifacts_via_store(self, tmp_path, monkeypatch):
        """collect_artifacts is one sweep of the paper grid: it returns
        the same deterministic cells with or without a result store.
        (The full paper grid is far too slow for a test, so paper_grid
        is shrunk to one small grid with every surface.)"""
        import repro.engine.sweep as sweep_module
        from repro.experiments.reporting import collect_artifacts

        cfg = ExperimentConfig(
            scale=0.02, max_objects=40, n_runs=1, n_samples=8, seed=9
        )
        micro = ExperimentConfig(scale=0.004, n_runs=1, n_samples=8, seed=9)
        small = SweepGrid(
            table2=Table2Spec(config=cfg, **T2_AXES),
            table3=Table3Spec(config=micro, **T3_AXES),
            figure4=Figure4Spec(config=micro, datasets=("abalone",)),
            figure5=Figure5Spec(
                config=cfg,
                fractions=(1.0,),
                algorithms=("UKM",),
                base_size=800,
            ),
        )
        monkeypatch.setattr(
            sweep_module, "paper_grid", lambda *args, **kwargs: small
        )
        direct = collect_artifacts()
        stored = collect_artifacts(store=tmp_path / "store")
        _assert_matches_direct(stored, direct.table2, direct.table3)
        assert stored.figure5.sizes == direct.figure5.sizes
        assert _manifest(tmp_path / "store") == small.describe()


class TestLeaseTTLEdges:
    """Edge matrix for the claim/lease protocol's timing parameters."""

    def _prepared_store(self, tmp_path):
        from repro.engine.store import SWEEP_SCHEMA_VERSION, open_store

        store = open_store(tmp_path / "store")
        store.prepare(
            {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
        )
        return store

    def test_ttl_below_floor_rejected_at_construction(self, tmp_path):
        from repro.engine.sweep import MIN_LEASE_TTL, _LeaseClaimer
        from repro.exceptions import InvalidParameterError

        store = self._prepared_store(tmp_path)
        try:
            with pytest.raises(InvalidParameterError, match="lease ttl"):
                _LeaseClaimer(
                    store, "w1", MIN_LEASE_TTL / 2, lambda msg: None
                )
            # The floor itself is accepted.
            claimer = _LeaseClaimer(
                store, "w1", MIN_LEASE_TTL, lambda msg: None
            )
            claimer.close()
        finally:
            store.close()

    def test_ttl_below_floor_rejected_by_cli(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--store", "s", "--lease-ttl", "5"]
        )
        assert args.lease_ttl == 5.0
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--store", "s", "--lease-ttl", "0.01"])
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--store", "s", "--lease-ttl", "soon"])

    def test_heartbeat_thread_does_not_outlive_cell(self, tmp_path):
        import threading

        from repro.engine.sweep import _LeaseClaimer

        store = self._prepared_store(tmp_path)
        claimer = _LeaseClaimer(store, "w1", 0.2, lambda msg: None)
        try:
            assert claimer.claim("cell--0000000001")
            with claimer.heartbeat("cell--0000000001"):
                beats = [
                    t
                    for t in threading.enumerate()
                    if t.name == "sweep-lease-heartbeat"
                ]
                assert len(beats) == 1
            # The context join must reap the thread: a beat thread that
            # outlives its cell would renew a lease nobody holds.
            assert not beats[0].is_alive()
            claimer.release("cell--0000000001")
            assert not store.active_leases()
        finally:
            claimer.close()
            store.close()

    def test_heartbeat_keeps_short_lease_alive(self, tmp_path):
        import time

        from repro.engine.sweep import _LeaseClaimer

        store = self._prepared_store(tmp_path)
        claimer = _LeaseClaimer(store, "w1", 0.2, lambda msg: None)
        try:
            assert claimer.claim("cell--0000000001")
            with claimer.heartbeat("cell--0000000001"):
                # Several ttls pass; the 0.066s beat keeps renewing, so
                # a rival can never steal the cell.
                deadline = time.monotonic() + 0.8
                while time.monotonic() < deadline:
                    assert not store.claim_cell(
                        "cell--0000000001", "rival", 60.0
                    )
                    time.sleep(0.1)
            claimer.release("cell--0000000001")
            assert store.claim_cell("cell--0000000001", "rival", 60.0)
        finally:
            claimer.close()
            store.close()

    def test_default_worker_id_format_and_uniqueness(self):
        import os
        import socket

        from repro.engine.sweep import _default_worker_id

        ids = {_default_worker_id() for _ in range(64)}
        assert len(ids) == 64  # uuid suffix disambiguates same host:pid
        host, pid, suffix = next(iter(ids)).rsplit(":", 2)
        assert host == socket.gethostname()
        assert pid == str(os.getpid())
        assert len(suffix) == 8
        int(suffix, 16)  # hex suffix
