"""Markdown reporting: turn experiment reports into an EXPERIMENTS.md body.

``write_experiments_report`` runs (or accepts) the four paper artifacts
and renders one self-contained markdown document recording measured
values next to the paper's headline claims — the file shipped as
EXPERIMENTS.md is generated this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure4 import Figure4Report
from repro.experiments.figure5 import Figure5Report
from repro.experiments.table2 import Table2Report
from repro.experiments.table3 import Table3Report


@dataclass
class PaperArtifacts:
    """The four regenerated evaluation artifacts."""

    table2: Table2Report
    table3: Table3Report
    figure4: Figure4Report
    figure5: Figure5Report


def collect_artifacts(
    table2_config: Optional[ExperimentConfig] = None,
    table3_config: Optional[ExperimentConfig] = None,
    figure4_config: Optional[ExperimentConfig] = None,
    figure5_config: Optional[ExperimentConfig] = None,
    figure5_base_size: int = 20000,
    store: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> PaperArtifacts:
    """Run all four experiment suites with the given configurations.

    The suites run as one paper-grid sweep
    (:func:`repro.engine.sweep.run_sweep`).  With ``store`` set, every
    cell lands in the resumable result store (a SQLite file) at
    ``store``, and ``resume=True`` reuses completed cells from an
    earlier (possibly interrupted) invocation; cell values are
    identical with or without a store.
    """
    from repro.engine.sweep import paper_grid, run_sweep

    grid = paper_grid(
        table2_config, table3_config, figure4_config, figure5_config,
        figure5_base_size,
    )
    return run_sweep(grid, store, resume=resume).artifacts()


def render_markdown(artifacts: PaperArtifacts, preamble: str = "") -> str:
    """Render the artifacts as a markdown report body."""
    t2 = artifacts.table2
    t3 = artifacts.table3
    f4 = artifacts.figure4
    f5 = artifacts.figure5

    sections = []
    if preamble:
        sections.append(preamble.rstrip())

    sections.append("## Table 2 — accuracy on benchmark datasets\n")
    sections.append("```\n" + t2.render("theta") + "\n```\n")
    sections.append("```\n" + t2.render("quality") + "\n```\n")
    gains_theta = {
        alg: t2.overall_gain(alg, "theta")
        for alg in t2.algorithms
        if alg != "UCPC"
    }
    gains_q = {
        alg: t2.overall_gain(alg, "quality")
        for alg in t2.algorithms
        if alg != "UCPC"
    }
    sections.append(
        "Measured overall UCPC gains — Theta: "
        + ", ".join(f"{a}: {g:+.3f}" for a, g in gains_theta.items())
        + "; Q: "
        + ", ".join(f"{a}: {g:+.3f}" for a, g in gains_q.items())
        + "\n"
    )

    sections.append("## Table 3 — Q on microarray stand-ins\n")
    sections.append("```\n" + t3.render() + "\n```\n")

    sections.append("## Figure 4 — efficiency\n")
    sections.append("```\n" + f4.render() + "\n```\n")
    oom_lines = []
    for ds in f4.datasets:
        for alg in f4.slow_group:
            oom = f4.orders_of_magnitude_vs_ucpc(ds, alg)
            oom_lines.append(f"{ds}/{alg}: {oom:+.1f}")
    sections.append(
        "Orders of magnitude vs UCPC (log10, positive = slower): "
        + ", ".join(oom_lines)
        + "\n"
    )

    sections.append("## Figure 5 — scalability\n")
    sections.append("```\n" + f5.render() + "\n```\n")
    r2_lines = ", ".join(
        f"{alg}: {f5.linearity_r2(alg):.3f}" for alg in f5.algorithms
    )
    sections.append(f"Linear-fit R² per algorithm: {r2_lines}\n")

    return "\n".join(sections) + "\n"


def write_experiments_report(
    path: Union[str, Path],
    artifacts: PaperArtifacts,
    preamble: str = "",
) -> Path:
    """Render ``artifacts`` to markdown and write them to ``path``."""
    path = Path(path)
    path.write_text(render_markdown(artifacts, preamble))
    return path
