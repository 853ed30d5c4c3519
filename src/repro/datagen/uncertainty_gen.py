"""Uncertainty generation over deterministic datasets — Section 5.1 (S22).

The paper's evaluation pipeline, reproduced faithfully:

1. For every deterministic point ``w`` of a benchmark dataset, generate
   a pdf ``f_w`` whose *expected value is exactly* ``w`` while every
   other parameter (uniform width, normal std, exponential rate and
   direction) is chosen at random.  Three families: Uniform, Normal,
   Exponential.
2. **Case 1** — build a *perturbed deterministic* dataset ``D'`` by
   replacing each ``w`` with one draw from ``f_w`` (Monte Carlo, or
   Markov-Chain Monte Carlo when ``use_mcmc=True`` — the paper invokes
   both via the SSJ library).
3. **Case 2** — build the *uncertain* dataset ``D''`` whose object for
   ``w`` is ``(R, f_w)`` with ``R`` the region containing ``mass``
   (default 95%) of ``f_w``'s probability.

Both datasets derive from the *same* per-point pdfs, which is what makes
``Theta = F(C'') - F(C')`` a paired comparison.

Both are held as columns (see
:class:`~repro.objects.dataset.UncertainDataset`): ``D'`` as its points,
``D''`` as every cell's Case-2 pdf arguments, whose moments, region
bounds and sampling-plan parameters are computed as ``(n, m)`` arrays
with the float operations of the per-cell constructors; a point's
``UncertainObject`` is built only when something asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro._typing import SeedLike
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.objects.dataset import UncertainDataset, _CellPdfs
from repro.uncertainty.exponential import TruncatedExponentialDistribution
from repro.uncertainty.normal import TruncatedNormalDistribution
from repro.uncertainty.product import IndependentProduct
from repro.uncertainty.sampling import MetropolisHastingsSampler
from repro.uncertainty.uniform import UniformDistribution
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_mass, check_positive, ensure_matrix

#: The pdf families of the paper's Table 2 (U / N / E).
PDF_FAMILIES = ("uniform", "normal", "exponential")


@dataclass(frozen=True)
class UncertainDataPair:
    """The paired outputs of the Section 5.1 generation strategy.

    Attributes
    ----------
    perturbed:
        ``D'`` — deterministic dataset of one draw per point (Case 1).
    uncertain:
        ``D''`` — uncertain dataset of truncated pdfs (Case 2).
    """

    perturbed: UncertainDataset
    uncertain: UncertainDataset


class UncertaintyGenerator:
    """Per-point pdf assignment and the Case-1/Case-2 dataset pair.

    Parameters
    ----------
    family:
        ``"uniform"``, ``"normal"`` or ``"exponential"``.
    spread:
        Overall uncertainty magnitude: per-point scales are drawn from
        ``U(0.1, 1.0) * spread * column_std``.  Dimensionless knob; the
        paper leaves the analogous choice unspecified ("randomly
        chosen"), 0.5-1.0 reproduces its qualitative regime.
    mass:
        Probability mass the Case-2 region must contain (paper: 95%).
    use_mcmc:
        Perturb via a Metropolis-Hastings chain instead of direct Monte
        Carlo draws (the paper uses both).
    """

    def __init__(
        self,
        family: str = "normal",
        spread: float = 0.75,
        mass: float = 0.95,
        use_mcmc: bool = False,
    ):
        if not isinstance(family, str) or family.lower() not in PDF_FAMILIES:
            raise InvalidParameterError(
                f"family must be one of {PDF_FAMILIES}, got {family!r}"
            )
        family = family.lower()
        spread = check_positive(spread, "spread")
        check_mass(mass)
        self.family = family
        self.spread = spread
        self.mass = float(mass)
        self.use_mcmc = bool(use_mcmc)

    # ------------------------------------------------------------------
    # Main entry points
    # ------------------------------------------------------------------
    def generate(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> UncertainDataPair:
        """Generate the Case-1 / Case-2 dataset pair for ``points``."""
        draws, uncertain = self._inject(points, labels, seed)
        return UncertainDataPair(
            perturbed=UncertainDataset.from_points(draws, labels),
            uncertain=uncertain,
        )

    def uncertain_dataset(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> UncertainDataset:
        """Only the Case-2 uncertain dataset (``D''``).

        The Case-1 draws are still taken from the random stream, so a
        shared Generator ends where :meth:`generate` leaves it; ``D'``
        itself is not built.
        """
        return self._inject(points, labels, seed)[1]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _inject(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray],
        seed: SeedLike,
    ) -> Tuple[np.ndarray, UncertainDataset]:
        """The Case-1 draws, one row per point, and the dataset ``D''``.

        Randomness is consumed in the order of the per-point definition:
        all scales, then for each point its exponential directions (one
        per dimension) followed by its Case-1 draw.  Monte Carlo takes
        that as one uniform matrix; the MCMC chain draws from the same
        stream between points, so it keeps a loop over points and stacks
        their cells after the chain.
        """
        # A private copy: the columnar datasets keep views of it.
        pts = ensure_matrix(points, "points").copy()
        n, m = pts.shape
        if labels is not None and len(labels) != n:
            raise InvalidParameterError("labels length must match points rows")
        if n == 0:
            raise EmptyDatasetError("points must hold at least one row")
        if m == 0:
            raise InvalidParameterError("points must hold at least one column")
        rng = ensure_rng(seed)

        # Per-point, per-dimension uncertainty scales relative to each
        # column's spread ("randomly chosen" parameters of the paper).
        with np.errstate(over="ignore", invalid="ignore"):
            column_std = pts.std(axis=0)
        overflowing = np.flatnonzero(~np.isfinite(column_std))
        if overflowing.size:
            raise InvalidParameterError(
                f"points column {overflowing[0]} spreads too widely: its "
                "standard deviation overflows float64"
            )
        column_std = np.where(column_std > 0, column_std, 1.0)
        scales = rng.uniform(0.1, 1.0, size=(n, m)) * self.spread * column_std

        exponential = self.family == "exponential"
        if self.use_mcmc:
            mcmc = MetropolisHastingsSampler(seed=rng)
            draws = np.empty((n, m))
            rows = []
            for i in range(n):
                directions = _directions(rng.random((1, m))) if exponential else None
                _, _, cells = self._pdfs(pts[i:i + 1], scales[i:i + 1], directions)
                product = IndependentProduct(cells.marginals()[0])
                # MCMC needs a bounded support: target the truncated pdf,
                # whose region carries `mass` of f_w — the perturbations
                # the paper draws are equally representative of f_w.
                draws[i] = mcmc.draw(product.pdf, product.region, size=1)[0]
                rows.append(cells.args)
            args = tuple(np.vstack(column) for column in zip(*rows))
            return draws, _CellPdfs(self.family, args, self.mass).dataset(labels)
        uniforms = rng.random((n, 2 * m if exponential else m))
        directions = _directions(uniforms[:, :m]) if exponential else None
        family, params, cells = self._pdfs(pts, scales, directions)
        uncertain = cells.dataset(labels)
        draws = family.quantile(uniforms[:, -m:], *params)
        return draws, uncertain

    def _pdfs(
        self,
        pts: np.ndarray,
        scales: np.ndarray,
        directions: Optional[np.ndarray],
    ) -> Tuple[type, tuple, _CellPdfs]:
        """Every cell's ``f_w``: its family and ``quantile`` parameters
        (Case 1), and its Case-2 truncation to ``mass``.

        ``f_w`` has expected value ``w``.  The truncated marginals are
        derived from ``f_w``'s own parameters, with the float operations
        of building ``f_w`` first and truncating it after, so D' and D''
        share one pdf.
        """
        if self.family == "uniform":
            half = scales * np.sqrt(3.0)  # std s => half-width s*sqrt(3)
            lower, upper = pts - half, pts + half
            # A uniform's central `mass` interval is just a narrower
            # uniform around the same center.
            center = 0.5 * (upper + lower)
            half = 0.5 * (upper - lower) * self.mass
            truncated = _CellPdfs("uniform", (center - half, center + half), self.mass)
            return UniformDistribution, (lower, upper - lower), truncated
        if self.family == "normal":
            truncated = _CellPdfs("normal", (pts, scales), self.mass)
            # Untruncated: cdf(lower) = 0, captured mass 1.
            params = (pts, scales, -np.inf, np.inf, 0.0, 1.0)
            return TruncatedNormalDistribution, params, truncated
        rate = 1.0 / scales
        origin = pts - directions / rate  # the untruncated mean is w
        truncated = _CellPdfs(
            "exponential",
            # f_w's mean, as read back from f_w
            (origin + directions / rate, rate, directions),
            self.mass,
        )
        params = (origin, rate, directions, np.inf, 1.0)
        return TruncatedExponentialDistribution, params, truncated


def _directions(uniforms: np.ndarray) -> np.ndarray:
    """Exponential decay directions, +1 or -1 with probability 1/2 each."""
    return np.where(uniforms < 0.5, 1.0, -1.0)
