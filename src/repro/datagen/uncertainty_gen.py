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

With Monte Carlo perturbation both are columnar datasets (see
:class:`~repro.objects.dataset.UncertainDataset`): every cell's Case-2
moments, region bounds and sampling-plan parameters are computed as
``(n, m)`` arrays with the float operations of the per-cell
constructors, and a point's ``UncertainObject`` is built only when
something asks for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from repro._typing import FloatArray, SeedLike
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.objects.uncertain_object import UncertainObject
from repro.uncertainty.base import UnivariateDistribution
from repro.uncertainty.batch import family_plan, quantile_transform
from repro.uncertainty.exponential import TruncatedExponentialDistribution
from repro.uncertainty.normal import TruncatedNormalDistribution, _phi
from repro.uncertainty.product import IndependentProduct
from repro.uncertainty.sampling import MetropolisHastingsSampler
from repro.uncertainty.uniform import UniformDistribution
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_probability, ensure_matrix

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
        family = family.lower()
        if family not in PDF_FAMILIES:
            raise InvalidParameterError(
                f"family must be one of {PDF_FAMILIES}, got {family!r}"
            )
        if spread <= 0:
            raise InvalidParameterError(f"spread must be > 0, got {spread}")
        check_probability(mass, "mass")
        if mass <= 0.0:
            raise InvalidParameterError("mass must be positive")
        self.family = family
        self.spread = float(spread)
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
        stream between points, so it keeps a loop over points.
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
            objects = []
            for i in range(n):
                directions = _directions(rng.random((1, m))) if exponential else None
                _, _, cells = self._pdfs(pts[i:i + 1], scales[i:i + 1], directions)
                product = IndependentProduct(cells.marginals()[0])
                # MCMC needs a bounded support: target the truncated pdf,
                # whose region carries `mass` of f_w — the perturbations
                # the paper draws are equally representative of f_w.
                draws[i] = mcmc.draw(product.pdf, product.region, size=1)[0]
                objects.append(
                    UncertainObject(
                        product, label=None if labels is None else int(labels[i])
                    )
                )
            return draws, UncertainDataset(objects)
        uniforms = rng.random((n, 2 * m if exponential else m))
        directions = _directions(uniforms[:, :m]) if exponential else None
        family, params, cells = self._pdfs(pts, scales, directions)
        uncertain = cells.dataset(labels)
        draws = quantile_transform(family)(uniforms[:, -m:], *params)
        return draws, uncertain

    def _pdfs(
        self,
        pts: np.ndarray,
        scales: np.ndarray,
        directions: Optional[np.ndarray],
    ) -> Tuple[type, tuple, "_CellPdfs"]:
        """Every cell's ``f_w``: its family and quantile-transform
        parameters (Case 1), and its Case-2 truncation to ``mass``.

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


# ----------------------------------------------------------------------
# The Case-2 pdfs, cell by cell or as columns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CellPdfs:
    """Every cell's Case-2 pdf, as the arguments of its constructor.

    Cell ``(i, j)``'s marginal is ``_MAKERS[family](*(a[i, j] for a in
    args), mass=mass)``; ``args`` are ``(n, m)`` arrays.  This small
    picklable record is the object source of the columnar ``D''``: it
    builds the objects with the per-cell constructors only when the
    dataset is asked for them.
    """

    family: str
    args: Tuple[FloatArray, ...]
    mass: float

    def marginals(self) -> List[List[UnivariateDistribution]]:
        """Every cell's marginal, one list per point."""
        make = functools.partial(_MAKERS[self.family], mass=self.mass)
        return [
            list(map(make, *row)) for row in zip(*(a.tolist() for a in self.args))
        ]

    def __call__(self, labels: Optional[np.ndarray]) -> List[UncertainObject]:
        return [
            UncertainObject(
                IndependentProduct(row),
                label=None if labels is None else int(labels[i]),
            )
            for i, row in enumerate(self.marginals())
        ]

    def take(self, rows: np.ndarray) -> "_CellPdfs":
        return _CellPdfs(self.family, tuple(a[rows] for a in self.args), self.mass)

    def dataset(self, labels: Optional[np.ndarray]) -> UncertainDataset:
        """``D''`` as columns, without building a distribution object.

        Raises, eagerly, every error the per-cell constructors raise:
        when any cell fails their checks, the cells are built one by
        one so the first failing cell raises its own error.
        """
        with np.errstate(all="ignore"):
            columns = _COLUMNS[self.family](*self.args, self.mass)
        if columns.invalid.any():
            self.marginals()
        return UncertainDataset._from_columns(
            columns.mean,
            columns.second,
            labels,
            bounds=(columns.lower, columns.upper),
            plan=family_plan(columns.family, columns.params),
            source=self,
        )


def _uniform(lower: float, upper: float, mass: float) -> UniformDistribution:
    return UniformDistribution(lower, upper)


def _normal(loc: float, scale: float, mass: float) -> TruncatedNormalDistribution:
    return TruncatedNormalDistribution.central_mass(loc, scale, mass)


def _exponential(
    mean: float, rate: float, direction: float, mass: float
) -> TruncatedExponentialDistribution:
    return TruncatedExponentialDistribution.with_mean(
        mean, rate, direction=int(direction), mass=mass
    )


_MAKERS: dict = {
    "uniform": _uniform,
    "normal": _normal,
    "exponential": _exponential,
}


class _Columns(NamedTuple):
    """A family's per-cell results as ``(n, m)`` arrays."""

    mean: FloatArray
    second: FloatArray
    lower: FloatArray
    upper: FloatArray
    #: The family and its registered ``stack`` parameters, for the plan.
    family: type
    params: Tuple[FloatArray, ...]
    #: Cells whose constructor would raise.
    invalid: np.ndarray


# Each ``*_columns`` function below is its constructor (named in its
# docstring) applied to every cell at once: numpy runs the elementwise
# IEEE operations in the constructor's order, and the calls whose numpy
# versions may round differently — Python's ``x**2`` (libm ``pow``,
# which is not ``x*x``), ``math.exp``, ``math.expm1`` — run per cell.
def _uniform_columns(lower, upper, mass) -> _Columns:
    """``UniformDistribution(lower, upper)``."""
    return _Columns(
        mean=0.5 * (lower + upper),
        second=(lower * lower + lower * upper + upper * upper) / 3.0,
        lower=lower,
        upper=upper,
        family=UniformDistribution,
        params=(lower, upper - lower),
        invalid=~(np.isfinite(lower) & np.isfinite(upper)) | (lower > upper),
    )


def _normal_columns(loc, scale, mass) -> _Columns:
    """``TruncatedNormalDistribution.central_mass(loc, scale, mass)``."""
    if mass == 1.0:
        lower = np.full(loc.shape, -np.inf)
        upper = np.full(loc.shape, np.inf)
    else:
        half = float(ndtri(0.5 + mass / 2.0)) * scale
        lower, upper = loc - half, loc + half
    alpha = (lower - loc) / scale
    beta = (upper - loc) / scale
    # At alpha = -inf and beta = +inf, ndtr and _phi give exactly the
    # constructor's fallbacks (0.0 / 1.0 and 0.0).
    cdf_alpha = ndtr(alpha)
    z_mass = ndtr(beta) - cdf_alpha
    phi_alpha = _phi(alpha)
    phi_beta = _phi(beta)
    alpha_term = np.where(phi_alpha > 0.0, alpha * phi_alpha, 0.0)
    beta_term = np.where(phi_beta > 0.0, beta * phi_beta, 0.0)
    delta = (phi_alpha - phi_beta) / z_mass
    mean = loc + scale * delta
    bracket = 1.0 + (alpha_term - beta_term) / z_mass - delta * delta
    # Python's max(bracket, 0.0): 0.0 only when strictly greater.
    variance = scale * scale * np.where(0.0 > bracket, 0.0, bracket)
    return _Columns(
        mean=mean,
        second=variance + _squares(mean),
        lower=lower,
        upper=upper,
        family=TruncatedNormalDistribution,
        params=(loc, scale, lower, upper, cdf_alpha, z_mass),
        invalid=(
            ~np.isfinite(loc)
            | ~(np.isfinite(scale) & (scale > 0))
            | (lower >= upper)
            | (z_mass <= 0.0)
        ),
    )


def _exponential_columns(mean, rate, direction, mass) -> _Columns:
    """``TruncatedExponentialDistribution.with_mean(mean, rate,
    direction, mass)``."""
    origin = mean - direction / rate
    if mass == 1.0:
        cutoff = np.full(rate.shape, np.inf)
    else:
        cutoff = -math.log(1.0 - mass) / rate
    # The captured mass and _truncated_exp_moments, per cell: an
    # infinite cutoff takes the closed forms of the untruncated pdf.
    infinite = np.isinf(cutoff)
    lam_c = rate * cutoff
    captured = -_per_cell(math.expm1, -lam_c)
    tail_ratio = _per_cell(math.exp, -lam_c) / captured
    t_mean = np.where(infinite, 1.0 / rate, 1.0 / rate - cutoff * tail_ratio)
    t_second = np.where(
        infinite,
        2.0 / (rate * rate),
        2.0 / (rate * rate) - (cutoff * cutoff + 2.0 * cutoff / rate) * tail_ratio,
    )
    upward = direction == 1.0
    return _Columns(
        mean=origin + direction * t_mean,
        # E[X^2] = origin^2 + 2*origin*d*E[T] + E[T^2]
        second=origin * origin + 2.0 * origin * direction * t_mean + t_second,
        lower=np.where(upward, origin, origin - cutoff),
        upper=np.where(upward, origin + cutoff, origin),
        family=TruncatedExponentialDistribution,
        params=(origin, rate, direction, cutoff, np.where(infinite, 1.0, captured)),
        invalid=(
            ~np.isfinite(origin)
            | ~(np.isfinite(rate) & (rate > 0))
            | (cutoff <= 0)
        ),
    )


_COLUMNS: dict = {
    "uniform": _uniform_columns,
    "normal": _normal_columns,
    "exponential": _exponential_columns,
}


def _per_cell(fn: Callable[[float], float], values: FloatArray) -> FloatArray:
    """``fn`` on each cell as a Python float."""
    cells = list(map(fn, values.ravel().tolist()))
    return np.array(cells, dtype=np.float64).reshape(values.shape)


def _squares(values: FloatArray) -> FloatArray:
    """Python's ``x**2`` (libm ``pow``, not ``x*x``) per cell."""
    cells = values.ravel().tolist()
    try:
        squares = list(map(pow, cells, repeat(2)))
    except OverflowError:
        squares = list(map(_square, cells))
    return np.array(squares, dtype=np.float64).reshape(values.shape)


def _square(x: float) -> float:
    try:
        return x**2
    except OverflowError:
        # numpy's square gives inf here; the dataset then rejects the
        # moment with a typed error naming the object.
        return math.inf
