"""Programmatic checks of the paper's qualitative result *shapes*.

A reproduction on substituted data cannot match absolute numbers; what
it must preserve are orderings and growth shapes.  This module encodes
those claims as named predicates over the experiment reports so they can
be printed alongside any regenerated report (``repro report``).
``tests/test_shapes.py`` checks the nine predicates on synthetic reports
only; no test asserts them on regenerated experiments.

Each check returns a :class:`ShapeCheck` rather than raising, so a
report can show partial conformance honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.figure4 import Figure4Report
from repro.experiments.figure5 import Figure5Report
from repro.experiments.table2 import Table2Report
from repro.experiments.table3 import Table3Report


@dataclass(frozen=True)
class ShapeCheck:
    """Outcome of one qualitative-claim check."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def check_ucpc_beats_ukmeans_theta(report: Table2Report) -> ShapeCheck:
    """Paper: UCPC achieved better Theta than UK-means (all configs; we
    require the overall average)."""
    gain = report.overall_gain("UKM", "theta")
    return ShapeCheck(
        name="UCPC > UK-means on overall Theta",
        passed=gain > 0,
        detail=f"overall gain {gain:+.3f}",
    )


def check_ucpc_quality_competitive(report: Table2Report) -> ShapeCheck:
    """Paper: UCPC best overall Q; we require within 0.02 of the best
    *partitional* competitor (UKM, UKmed, MMV)."""
    ucpc = report.overall_average("UCPC", "quality")
    rivals = {
        alg: report.overall_average(alg, "quality")
        for alg in ("UKM", "UKmed", "MMV")
        if alg in report.algorithms
    }
    best_rival = max(rivals.values())
    return ShapeCheck(
        name="UCPC Q at/near the top of the partitional field",
        passed=ucpc >= best_rival - 0.02,
        detail=f"UCPC {ucpc:.3f} vs best partitional rival {best_rival:.3f}",
    )


def check_density_methods_weak_theta(report: Table2Report) -> ShapeCheck:
    """Paper: FDBSCAN/FOPTICS Theta <= 0 overall; we require both to sit
    below UCPC."""
    ucpc = report.overall_average("UCPC", "theta")
    values = {
        alg: report.overall_average(alg, "theta")
        for alg in ("FDB", "FOPT")
        if alg in report.algorithms
    }
    passed = all(v < ucpc for v in values.values())
    detail = ", ".join(f"{a} {v:+.3f}" for a, v in values.items())
    return ShapeCheck(
        name="density methods below UCPC on Theta",
        passed=passed,
        detail=f"UCPC {ucpc:+.3f} vs {detail}",
    )


# ----------------------------------------------------------------------
# Table 3
# ----------------------------------------------------------------------
def check_ucpc_beats_mmvar_quality(report: Table3Report) -> ShapeCheck:
    """Paper: UCPC better than MMVar on all 16 Table 3 configurations;
    we require the overall average."""
    gain = report.overall_gain("MMV")
    return ShapeCheck(
        name="UCPC > MMVar on microarray Q",
        passed=gain > 0,
        detail=f"overall gain {gain:+.3f}",
    )


def check_uahc_strong_at_large_k(report: Table3Report) -> ShapeCheck:
    """Paper: UAHC competitive on Neuroblastoma; we check its average Q
    over the largest half of the cluster counts beats its own average at
    the smallest half (the paper's 'UAHC improves with k' pattern)."""
    ks = sorted(report.cluster_counts)
    if "UAHC" not in report.algorithms or len(ks) < 2:
        return ShapeCheck("UAHC improves with k", True, "not applicable")
    half = len(ks) // 2
    dataset = report.datasets[0]
    small = sum(report.quality[(dataset, k, "UAHC")] for k in ks[:half]) / half
    large = sum(report.quality[(dataset, k, "UAHC")] for k in ks[-half:]) / half
    return ShapeCheck(
        name="UAHC improves with k on the first dataset",
        passed=large >= small,
        detail=f"avg Q small-k {small:.3f} vs large-k {large:.3f}",
    )


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
def check_ucpc_same_order_as_fast_group(report: Figure4Report) -> ShapeCheck:
    """Paper: UCPC within the same order of magnitude as UK-means and
    MMVar on every dataset."""
    worst = 0.0
    for ds in report.datasets:
        for alg in ("UKM", "MMV"):
            if alg in report.fast_group:
                worst = max(
                    worst, abs(report.orders_of_magnitude_vs_ucpc(ds, alg))
                )
    return ShapeCheck(
        name="UCPC within ~1 order of magnitude of UKM/MMVar",
        passed=worst <= 1.6,
        detail=f"max |log10 ratio| {worst:.2f}",
    )


def check_slow_group_slower_at_scale(report: Figure4Report) -> ShapeCheck:
    """Paper: bUKM/UAHC/FDB/FOPT slower than UCPC (orders of magnitude at
    full scale); we require them slower on the largest dataset measured.
    UK-medoids is exempt: its O(n^2) phase is off-line by the paper's
    own accounting."""
    largest = report.datasets[-1]
    offenders = []
    for alg in report.slow_group:
        if alg == "UKmed":
            continue
        if report.runtimes_ms[(largest, alg)] <= report.runtimes_ms[
            (largest, "UCPC")
        ] * 0.8:
            offenders.append(alg)
    return ShapeCheck(
        name="slow group above UCPC on the largest dataset",
        passed=not offenders,
        detail="offenders: " + (", ".join(offenders) if offenders else "none"),
    )


def check_pruning_between_bukm_and_ukm(report: Figure4Report) -> ShapeCheck:
    """Paper: MinMax-BB/VDBiP significantly faster than basic UK-means,
    slower than fast UK-means."""
    ok = True
    details = []
    for ds in report.datasets:
        bukm = report.runtimes_ms.get((ds, "bUKM"))
        ukm = report.runtimes_ms.get((ds, "UKM"))
        if bukm is None or ukm is None:
            continue
        for alg in ("MinMax-BB", "VDBiP"):
            value = report.runtimes_ms.get((ds, alg))
            if value is None:
                continue
            if not (ukm * 0.5 <= value <= bukm * 1.5):
                ok = False
                details.append(f"{ds}/{alg}={value:.1f}ms")
    return ShapeCheck(
        name="pruning variants between UKM and bUKM",
        passed=ok,
        detail="violations: " + (", ".join(details) if details else "none"),
    )


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def check_linear_scalability(report: Figure5Report, min_r2: float = 0.95) -> ShapeCheck:
    """Paper: all fast algorithms exhibit linear trends in n."""
    worst = min(report.linearity_r2(alg) for alg in report.algorithms)
    return ShapeCheck(
        name="linear scalability of the fast algorithms",
        passed=worst >= min_r2,
        detail=f"min R^2 {worst:.3f}",
    )


def run_all_checks(
    table2: Table2Report,
    table3: Table3Report,
    figure4: Figure4Report,
    figure5: Figure5Report,
) -> List[ShapeCheck]:
    """Every shape check against a full set of regenerated artifacts."""
    return [
        check_ucpc_beats_ukmeans_theta(table2),
        check_ucpc_quality_competitive(table2),
        check_density_methods_weak_theta(table2),
        check_ucpc_beats_mmvar_quality(table3),
        check_uahc_strong_at_large_k(table3),
        check_ucpc_same_order_as_fast_group(figure4),
        check_slow_group_slower_at_scale(figure4),
        check_pruning_between_bukm_and_ukm(figure4),
        check_linear_scalability(figure5),
    ]
