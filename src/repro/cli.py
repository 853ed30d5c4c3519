"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table2`` / ``table3`` / ``figure4`` / ``figure5``
    Regenerate one paper artifact and print it.
``report``
    Run all four and write a markdown report (default: EXPERIMENTS.md
    body to stdout, ``--output FILE`` to write a file).
``demo``
    One-minute demonstration: cluster uncertain blobs with every
    algorithm and print the score table.

Examples
--------
::

    python -m repro table2 --datasets iris wine --families normal --runs 3
    python -m repro figure5 --base-size 50000
    python -m repro report --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.exceptions import InvalidParameterError, ReproError, SweepStoreError
from repro.experiments import (
    ACCURACY_ROSTER,
    ExperimentConfig,
    run_figure4,
    run_figure5,
    run_table2,
    run_table3,
)
from repro.experiments.figure4 import FIGURE4_DATASETS
from repro.experiments.table2 import TABLE2_DATASETS
from repro.experiments.table3 import TABLE3_CLUSTER_COUNTS, TABLE3_DATASETS
from repro.utils.validation import check_int_range


def _lease_ttl_arg(value: str):
    """--lease-ttl values: a float no smaller than MIN_LEASE_TTL."""
    from repro.engine.sweep import MIN_LEASE_TTL

    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"lease ttl must be a number of seconds, got {value!r}"
        ) from None
    if parsed < MIN_LEASE_TTL:
        raise argparse.ArgumentTypeError(
            f"lease ttl must be >= {MIN_LEASE_TTL}s (shorter than the "
            "clamped heartbeat interval allows a healthy worker's lease "
            f"to expire between renewals), got {parsed}"
        )
    return parsed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", type=int, default=5, help="runs per cell")
    parser.add_argument("--seed", type=int, default=2012, help="master seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset scale in (0, 1]; defaults to 1.0 (table3/figure4 "
        "and the sweep cap their *default* for laptop runtimes — an "
        "explicit value, including 1.0, is always honored)",
    )
    parser.add_argument(
        "--max-objects",
        type=int,
        default=600,
        help="cap on benchmark sizes (0 = uncapped)",
    )
    parser.add_argument(
        "--spread", type=float, default=1.0, help="uncertainty magnitude"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="workers for the per-run fits (result-identical; the "
        "engine picks serial, threads or processes per algorithm)",
    )


def _config(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    max_objects = None if args.max_objects == 0 else args.max_objects
    values = dict(
        scale=1.0 if args.scale is None else args.scale,
        max_objects=max_objects,
        n_runs=args.runs,
        seed=args.seed,
        spread=args.spread,
        n_jobs=args.jobs,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def _cmd_table2(args: argparse.Namespace) -> int:
    report = run_table2(
        _config(args),
        datasets=args.datasets,
        families=args.families,
        algorithms=args.algorithms,
    )
    print(report.render("theta"))
    print()
    print(report.render("quality"))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    report = run_table3(
        _config(args, scale=0.02 if args.scale is None else args.scale),
        datasets=args.datasets,
        cluster_counts=args.cluster_counts,
        algorithms=args.algorithms,
    )
    print(report.render())
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    report = run_figure4(
        _config(args, scale=0.05 if args.scale is None else args.scale),
        datasets=args.datasets,
    )
    print(report.render())
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    report = run_figure5(_config(args), base_size=args.base_size)
    print(report.render())
    return 0


def _sweep_grid(args: argparse.Namespace):
    """The grid a ``repro sweep`` invocation covers."""
    from repro.engine.sweep import (
        Figure4Spec,
        Figure5Spec,
        SweepGrid,
        Table2Spec,
        Table3Spec,
    )

    if args.quick:
        runs = min(args.runs, 2)
        bench = _config(
            args, scale=0.2, max_objects=60, n_runs=runs, n_samples=8
        )
        micro = _config(args, scale=0.004, n_runs=runs, n_samples=8)
        specs = {
            "table2": Table2Spec(
                config=bench,
                datasets=("iris",),
                families=("normal",),
                algorithms=("UKM", "UKmed"),
            ),
            "table3": Table3Spec(
                config=micro,
                datasets=("neuroblastoma",),
                cluster_counts=(2, 3),
                algorithms=("UKmed", "MMV"),
            ),
            "figure4": Figure4Spec(
                config=_config(
                    args, scale=0.02, max_objects=80, n_runs=runs, n_samples=8
                ),
                datasets=("abalone",),
            ),
            "figure5": Figure5Spec(
                config=_config(args, n_runs=runs, n_samples=8),
                fractions=(0.25, 1.0),
                algorithms=("UKM", "MMV"),
                base_size=min(args.base_size, 2000),
            ),
        }
    else:
        capped = lambda cap: cap if args.scale is None else args.scale  # noqa: E731
        specs = {
            "table2": Table2Spec(config=_config(args)),
            "table3": Table3Spec(config=_config(args, scale=capped(0.02))),
            "figure4": Figure4Spec(config=_config(args, scale=capped(0.05))),
            "figure5": Figure5Spec(
                config=_config(args), base_size=args.base_size
            ),
        }
    return SweepGrid(
        **{
            name: (spec if name in args.surfaces else None)
            for name, spec in specs.items()
        }
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine.sweep import (
        run_sweep,
        run_sweep_worker,
        run_sweep_workers,
    )

    check_int_range(args.workers, "workers", low=1)
    if args.store is None and args.join is None:
        raise InvalidParameterError("provide --store PATH (or --join PATH)")
    grid = _sweep_grid(args)
    if args.join is not None:
        outcome = run_sweep_worker(
            grid, args.join, lease_ttl=args.lease_ttl, progress=print
        )
    elif args.workers > 1:
        outcome = run_sweep_workers(
            grid,
            args.store,
            workers=args.workers,
            lease_ttl=args.lease_ttl,
            progress=print,
        )
    else:
        outcome = run_sweep(
            grid, args.store, resume=args.resume, progress=print
        )
    print(f"sweep complete: {outcome.summary()} (store: {outcome.store_root})")
    return 0


def _cmd_store_export(args: argparse.Namespace) -> int:
    from repro.engine.store import export_store

    cells = export_store(args.store, args.directory)
    print(
        f"exported {len(cells)} cells: {args.store} -> {args.directory}; "
        "verified cell-for-cell"
    )
    return 0


def _cmd_store_import(args: argparse.Namespace) -> int:
    from repro.engine.store import import_store

    cells = import_store(args.directory, args.store)
    print(
        f"imported {len(cells)} cells: {args.directory} -> {args.store}; "
        "verified cell-for-cell"
    )
    return 0


def _cmd_store_diff(args: argparse.Namespace) -> int:
    from repro.engine.store import diff_stores

    differences = diff_stores(args.left, args.right)
    if differences:
        for line in differences:
            print(line)
        print(f"stores differ ({len(differences)} difference(s))")
        return 1
    print(f"stores identical: {args.left} == {args.right}")
    return 0


def _cmd_store_summary(args: argparse.Namespace) -> int:
    from repro.engine.store import open_store
    from repro.utils.tables import format_table

    check_int_range(args.top, "top", low=1)
    store = open_store(args.path)
    try:
        if store.read_manifest() is None:
            raise SweepStoreError(f"{args.path} has no sweep manifest")
        summary = store.metric_summary()
        print(
            format_table(
                [list(row) for row in summary],
                headers=["surface", "metric", "cells", "min", "max", "mean"],
                title=f"store {store.path}",
            )
        )
        if args.metric:
            mode = args.mode
            best = store.best_cells(args.metric, mode=mode)
            print()
            print(
                format_table(
                    [
                        [surface, "/".join(group), name, value]
                        for surface, group, name, value in best
                    ],
                    headers=["surface", "group", "best cell", args.metric],
                    title=f"best ({mode}) per group — {args.metric}",
                )
            )
            ranked = store.rank_over_grid(args.metric, mode=mode)
            print()
            print(
                format_table(
                    [list(row) for row in ranked[: args.top]],
                    headers=["rank", "cell", "surface", args.metric],
                    title=f"rank over grid — {args.metric} (top {args.top})",
                )
            )
    finally:
        store.close()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import (
        collect_artifacts,
        render_markdown,
        write_experiments_report,
    )
    from repro.experiments.shapes import run_all_checks

    artifacts = collect_artifacts(
        table2_config=_config(args),
        table3_config=_config(args, scale=0.02, n_runs=max(1, args.runs // 2)),
        figure4_config=_config(args, scale=0.05, n_runs=max(1, args.runs // 2)),
        figure5_config=_config(args, n_runs=max(1, args.runs // 2)),
        figure5_base_size=args.base_size,
        store=args.store,
        resume=args.resume,
    )

    checks = run_all_checks(
        artifacts.table2, artifacts.table3, artifacts.figure4, artifacts.figure5
    )
    check_lines = "\n".join(f"- {check}" for check in checks)
    preamble = (
        "# Measured paper artifacts\n\n"
        "## Qualitative shape checks\n\n" + check_lines + "\n"
    )
    if args.output:
        write_experiments_report(args.output, artifacts, preamble=preamble)
        print(f"wrote {args.output}")
    else:
        print(render_markdown(artifacts, preamble=preamble))
    for check in checks:
        print(check)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import f_measure, internal_scores, make_blobs_uncertain
    from repro.experiments.config import build_algorithm
    from repro.utils.tables import format_table

    # Checked up front: at the default --n-init 1 the engine, which
    # checks n_jobs and patience itself, is never reached.
    check_int_range(args.n_init, "n_init", low=1)
    check_int_range(args.jobs, "n_jobs", low=1)
    if args.patience is not None:
        check_int_range(args.patience, "patience", low=1)
    data = make_blobs_uncertain(
        n_objects=150, n_clusters=3, separation=6.0, seed=args.seed
    )
    rows = []
    for name in args.algorithms:
        algorithm = build_algorithm(name, n_clusters=3, n_samples=16)
        # Objective-less algorithms (FDB/FOPT/UAHC) cannot rank restarts,
        # so best-of-n would burn n fits and keep the first — skip it.
        if args.n_init > 1 and algorithm.has_objective:
            result = algorithm.fit_best(
                data,
                seed=args.seed,
                n_init=args.n_init,
                n_jobs=args.jobs,
                early_stopping=args.patience,
            )
        else:
            result = algorithm.fit(data, seed=args.seed)
        rows.append(
            [
                name,
                f_measure(result.labels, data.labels),
                internal_scores(data, result.labels).quality,
                result.runtime_seconds * 1e3,
            ]
        )
    title = "Uncertain-blob demo (n=150, k=3)"
    if args.n_init > 1:
        title += f", best of {args.n_init} restarts"
    print(
        format_table(
            rows,
            headers=["algorithm", "F-measure", "Q", "time [ms]"],
            title=title,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for Gullo & Tagarelli, VLDB 2012.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("table2", help="accuracy on benchmark datasets")
    _add_common(p2)
    p2.add_argument("--datasets", nargs="+", default=list(TABLE2_DATASETS))
    p2.add_argument(
        "--families",
        nargs="+",
        default=["uniform", "normal", "exponential"],
    )
    p2.add_argument("--algorithms", nargs="+", default=list(ACCURACY_ROSTER))
    p2.set_defaults(func=_cmd_table2)

    p3 = sub.add_parser("table3", help="Q on microarray stand-ins")
    _add_common(p3)
    p3.add_argument("--datasets", nargs="+", default=list(TABLE3_DATASETS))
    p3.add_argument(
        "--cluster-counts",
        nargs="+",
        type=int,
        default=list(TABLE3_CLUSTER_COUNTS),
    )
    p3.add_argument("--algorithms", nargs="+", default=list(ACCURACY_ROSTER))
    p3.set_defaults(func=_cmd_table3)

    p4 = sub.add_parser("figure4", help="efficiency comparison")
    _add_common(p4)
    p4.add_argument("--datasets", nargs="+", default=list(FIGURE4_DATASETS))
    p4.set_defaults(func=_cmd_figure4)

    p5 = sub.add_parser("figure5", help="scalability on the KDD workload")
    _add_common(p5)
    p5.add_argument("--base-size", type=int, default=20000)
    p5.set_defaults(func=_cmd_figure5)

    ps = sub.add_parser(
        "sweep",
        help="run the paper grid as one shared-cache, resumable schedule",
    )
    _add_common(ps)
    ps.add_argument(
        "--store",
        default=None,
        help="result-store path: a SQLite file, created when new",
    )
    ps.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run the grid with this many claim-based worker processes "
        "(leases on the store coordinate them; the final store is "
        "identical to a single-worker run)",
    )
    ps.add_argument(
        "--join",
        metavar="PATH",
        default=None,
        help="attach to PATH as one claim-based sweep worker (other "
        "workers on this machine may share the store; implies "
        "resume semantics)",
    )
    ps.add_argument(
        "--lease-ttl",
        type=_lease_ttl_arg,
        default=30.0,
        help="seconds a cell lease lives between heartbeats; a dead "
        "worker's cells are reclaimed after this long",
    )
    ps.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells from the store (bit-identical skip)",
    )
    ps.add_argument(
        "--surfaces",
        nargs="+",
        choices=["table2", "table3", "figure4", "figure5"],
        default=["table2", "table3", "figure4", "figure5"],
        help="paper surfaces to include in the grid",
    )
    ps.add_argument(
        "--quick",
        action="store_true",
        help="tiny smoke grid (CI): 1-2 datasets per surface, short runs",
    )
    ps.add_argument("--base-size", type=int, default=20000)
    ps.set_defaults(func=_cmd_sweep)

    pr = sub.add_parser("report", help="run everything, render markdown")
    _add_common(pr)
    pr.add_argument("--base-size", type=int, default=20000)
    pr.add_argument("--output", default=None, help="write to this file")
    pr.add_argument(
        "--store",
        default=None,
        help="persist every cell of the four suites in this resumable "
        "result store (a SQLite file)",
    )
    pr.add_argument(
        "--resume",
        action="store_true",
        help="with --store: reuse completed cells from an earlier run",
    )
    pr.set_defaults(func=_cmd_report)

    pst = sub.add_parser(
        "store", help="result-store utilities (export, import, diff, summary)"
    )
    store_sub = pst.add_subparsers(dest="store_command", required=True)

    pex = store_sub.add_parser(
        "export",
        help="write a store as a JSON directory (manifest.json plus "
        "cells/<id>.json), verified cell-for-cell",
    )
    pex.add_argument("store", help="store path")
    pex.add_argument("directory", help="destination directory (must be fresh)")
    pex.set_defaults(func=_cmd_store_export)

    pim = store_sub.add_parser(
        "import",
        help="load a JSON directory (an export, or a store directory "
        "from an earlier version) into a fresh store, verified "
        "cell-for-cell",
    )
    pim.add_argument("directory", help="source JSON directory")
    pim.add_argument("store", help="destination store path (must be fresh)")
    pim.set_defaults(func=_cmd_store_import)

    pdf = store_sub.add_parser(
        "diff",
        help="compare two stores cell-for-cell (exit 1 when they differ)",
    )
    pdf.add_argument("left", help="first store path")
    pdf.add_argument("right", help="second store path")
    pdf.set_defaults(func=_cmd_store_diff)

    pq = store_sub.add_parser(
        "summary",
        help="aggregate a result store in SQL",
    )
    pq.add_argument("path", help="store path")
    pq.add_argument(
        "--metric",
        default=None,
        help="also print best-of-group and rank-over-grid for this metric",
    )
    pq.add_argument(
        "--mode",
        choices=["max", "min"],
        default="max",
        help="whether larger or smaller metric values rank first",
    )
    pq.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows of the rank table to print",
    )
    pq.set_defaults(func=_cmd_store_summary)

    pd = sub.add_parser("demo", help="one-minute algorithm comparison")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument(
        "--algorithms",
        nargs="+",
        default=list(ACCURACY_ROSTER),
        help="algorithm abbreviations to compare (default: the paper's "
        "accuracy roster; scale-path variants bUKM-EH and MB-UKM are "
        "also accepted)",
    )
    pd.add_argument(
        "--n-init",
        type=int,
        default=1,
        help="random restarts per algorithm (best objective wins)",
    )
    pd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="workers for the restarts (result-identical; the engine "
        "picks serial, threads or processes per algorithm)",
    )
    pd.add_argument(
        "--patience",
        type=int,
        default=None,
        help="stop scheduling restarts after this many without "
        "improvement (engine-level early stopping)",
    )
    pd.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A library error (any :class:`~repro.exceptions.ReproError`, e.g. an
    invalid parameter value or a refused result store) exits 2 with a
    one-line message, like argparse's own usage errors.  Ctrl-C exits
    130 (the shell's code for SIGINT) with one line, too.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
