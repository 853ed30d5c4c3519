"""Tests for the univariate pdf families (uniform, normal, exponential, point).

Every family's analytic moments are cross-checked against quadrature
(exact integration of the implemented pdf) and Monte-Carlo sampling, and
the pdf itself is checked to integrate to 1 over its support (Eq. (1)).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.uncertainty import (
    PointMassDistribution,
    TriangularDistribution,
    TruncatedExponentialDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
    quadrature_mass,
    quadrature_moments,
)

ALL_FAMILIES = [
    UniformDistribution(-1.0, 3.0),
    UniformDistribution.centered(5.0, 0.5),
    TruncatedNormalDistribution(0.0, 1.0),
    TruncatedNormalDistribution(2.0, 0.5, 1.0, 3.5),
    TruncatedNormalDistribution.central_mass(-3.0, 2.0, 0.95),
    TruncatedExponentialDistribution(0.0, 1.5),
    TruncatedExponentialDistribution(1.0, 2.0, cutoff=2.0),
    TruncatedExponentialDistribution(4.0, 0.7, cutoff=5.0, direction=-1),
    TruncatedExponentialDistribution.with_mean(0.0, 2.0, direction=-1, mass=0.95),
]


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
class TestFamilyContract:
    """Invariants every 1-D family must satisfy."""

    def test_pdf_integrates_to_one(self, dist):
        assert quadrature_mass(dist) == pytest.approx(1.0, abs=1e-6)

    def test_analytic_mean_matches_quadrature(self, dist):
        mean, _ = quadrature_moments(dist)
        assert dist.mean == pytest.approx(mean, abs=1e-7)

    def test_analytic_second_moment_matches_quadrature(self, dist):
        _, second = quadrature_moments(dist)
        assert dist.second_moment == pytest.approx(second, abs=1e-6)

    def test_variance_nonnegative_and_consistent(self, dist):
        assert dist.variance >= 0.0
        assert dist.variance == pytest.approx(
            dist.second_moment - dist.mean**2, abs=1e-9
        )

    def test_samples_inside_support(self, dist):
        samples = dist.sample(2000, seed=0)
        assert np.all(samples >= dist.support_lower - 1e-9)
        assert np.all(samples <= dist.support_upper + 1e-9)

    def test_sample_mean_converges(self, dist):
        samples = dist.sample(40000, seed=1)
        tolerance = 5.0 * np.sqrt(dist.variance / samples.size) + 1e-3
        assert samples.mean() == pytest.approx(dist.mean, abs=tolerance)

    def test_pdf_zero_outside_support(self, dist):
        lo, hi = dist.support_lower, dist.support_upper
        if np.isfinite(lo):
            assert dist.pdf(np.array([lo - 1.0]))[0] == 0.0
        if np.isfinite(hi):
            assert dist.pdf(np.array([hi + 1.0]))[0] == 0.0

    def test_cdf_monotone_and_bounded(self, dist):
        lo = dist.support_lower if np.isfinite(dist.support_lower) else -20.0
        hi = dist.support_upper if np.isfinite(dist.support_upper) else 20.0
        grid = np.linspace(lo, hi, 101)
        cdf = dist.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] >= -1e-12
        assert cdf[-1] <= 1.0 + 1e-12

    def test_ppf_inverts_cdf(self, dist):
        qs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
        xs = dist.ppf(qs)
        back = dist.cdf(xs)
        assert np.allclose(back, qs, atol=1e-7)


class TestUniform:
    def test_moments_closed_form(self):
        dist = UniformDistribution(2.0, 6.0)
        assert dist.mean == pytest.approx(4.0)
        assert dist.variance == pytest.approx(16.0 / 12.0)

    def test_centered_mean_exact(self):
        dist = UniformDistribution.centered(-3.5, 2.0)
        assert dist.mean == pytest.approx(-3.5)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidParameterError):
            UniformDistribution(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            UniformDistribution(np.inf, 0.0)
        with pytest.raises(InvalidParameterError):
            UniformDistribution.centered(0.0, -1.0)

    def test_pdf_height(self):
        dist = UniformDistribution(0.0, 4.0)
        assert dist.pdf(np.array([2.0]))[0] == pytest.approx(0.25)

    @given(
        center=st.floats(min_value=-50, max_value=50),
        half=st.floats(min_value=1e-3, max_value=25),
    )
    @settings(max_examples=50, deadline=None)
    def test_variance_formula_property(self, center, half):
        dist = UniformDistribution.centered(center, half)
        assert dist.variance == pytest.approx((2 * half) ** 2 / 12.0, rel=1e-9)


class TestTruncatedNormal:
    def test_untruncated_moments(self):
        dist = TruncatedNormalDistribution(1.5, 2.0)
        assert dist.mean == pytest.approx(1.5)
        assert dist.variance == pytest.approx(4.0)

    def test_symmetric_truncation_keeps_mean(self):
        dist = TruncatedNormalDistribution(3.0, 1.0, 1.0, 5.0)
        assert dist.mean == pytest.approx(3.0)
        assert dist.variance < 1.0  # truncation shrinks the variance

    def test_one_sided_truncation_shifts_mean(self):
        dist = TruncatedNormalDistribution(0.0, 1.0, lower=0.0)
        # Half-normal mean = sqrt(2/pi).
        assert dist.mean == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-9)

    def test_central_mass_interval(self):
        dist = TruncatedNormalDistribution.central_mass(2.0, 1.0, 0.95)
        # 95% central interval is loc +- 1.959964 sigma.
        assert dist.support_lower == pytest.approx(2.0 - 1.959964, abs=1e-4)
        assert dist.support_upper == pytest.approx(2.0 + 1.959964, abs=1e-4)
        assert dist.mean == pytest.approx(2.0)

    def test_central_mass_full(self):
        dist = TruncatedNormalDistribution.central_mass(0.0, 1.0, 1.0)
        assert not np.isfinite(dist.support_lower)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            TruncatedNormalDistribution(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            TruncatedNormalDistribution(0.0, 1.0, 2.0, 1.0)
        with pytest.raises(InvalidParameterError):
            TruncatedNormalDistribution.central_mass(0.0, 1.0, 0.0)

    def test_zero_mass_interval_rejected(self):
        with pytest.raises(InvalidParameterError):
            TruncatedNormalDistribution(0.0, 1.0, 40.0, 41.0)

    @given(
        loc=st.floats(min_value=-20, max_value=20),
        scale=st.floats(min_value=0.05, max_value=5),
        mass=st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=50, deadline=None)
    def test_central_mass_mean_preserved_property(self, loc, scale, mass):
        dist = TruncatedNormalDistribution.central_mass(loc, scale, mass)
        assert dist.mean == pytest.approx(loc, abs=1e-9 * max(1, abs(loc)))
        assert dist.variance <= scale * scale + 1e-12


class TestTruncatedExponential:
    def test_untruncated_moments(self):
        dist = TruncatedExponentialDistribution(0.0, 2.0)
        assert dist.mean == pytest.approx(0.5)
        assert dist.variance == pytest.approx(0.25)

    def test_left_tail_direction(self):
        dist = TruncatedExponentialDistribution(0.0, 2.0, direction=-1)
        assert dist.mean == pytest.approx(-0.5)
        assert dist.support_upper == 0.0

    def test_with_mean_untruncated(self):
        dist = TruncatedExponentialDistribution.with_mean(3.0, 4.0)
        assert dist.mean == pytest.approx(3.0)

    def test_with_mean_truncated_shifts_slightly(self):
        dist = TruncatedExponentialDistribution.with_mean(3.0, 4.0, mass=0.95)
        # Truncation removes the long right tail: mean decreases a bit.
        assert dist.mean < 3.0
        assert dist.mean == pytest.approx(3.0, abs=0.1)

    def test_truncation_mass(self):
        dist = TruncatedExponentialDistribution.with_mean(0.0, 1.0, mass=0.9)
        # Support covers exactly the 90% region of the parent pdf.
        assert dist.support_upper - dist.support_lower == pytest.approx(
            -np.log(0.1), abs=1e-9
        )

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            TruncatedExponentialDistribution(0.0, -1.0)
        with pytest.raises(InvalidParameterError):
            TruncatedExponentialDistribution(0.0, 1.0, cutoff=-1.0)
        with pytest.raises(InvalidParameterError):
            TruncatedExponentialDistribution(0.0, 1.0, direction=2)
        with pytest.raises(InvalidParameterError):
            TruncatedExponentialDistribution.with_mean(0.0, 1.0, mass=1.5)

    @given(
        rate=st.floats(min_value=0.1, max_value=10),
        cutoff=st.floats(min_value=0.1, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_truncated_mean_below_untruncated_property(self, rate, cutoff):
        truncated = TruncatedExponentialDistribution(0.0, rate, cutoff=cutoff)
        assert truncated.mean <= 1.0 / rate + 1e-12
        assert truncated.variance <= 1.0 / rate**2 + 1e-12


class TestPointMass:
    def test_moments(self):
        dist = PointMassDistribution(3.0)
        assert dist.mean == 3.0
        assert dist.second_moment == 9.0
        assert dist.variance == 0.0

    def test_sampling_constant(self):
        dist = PointMassDistribution(-1.5)
        assert np.all(dist.sample(10, seed=0) == -1.5)

    def test_cdf_step(self):
        dist = PointMassDistribution(2.0)
        assert dist.cdf(np.array([1.9]))[0] == 0.0
        assert dist.cdf(np.array([2.0]))[0] == 1.0


#: Each constructor and factory of the batched families, valid keyword
#: arguments, and the parameters that may be infinite.
_BUILDERS = [
    (UniformDistribution, dict(lower=0.0, upper=1.0), ()),
    (UniformDistribution.centered, dict(center=0.0, half_width=1.0), ()),
    (
        TruncatedNormalDistribution,
        dict(loc=0.0, scale=1.0, lower=-1.0, upper=1.0),
        ("lower", "upper"),
    ),
    (
        TruncatedNormalDistribution.central_mass,
        dict(loc=0.0, scale=1.0, mass=0.95),
        (),
    ),
    (
        TruncatedExponentialDistribution,
        dict(origin=0.0, rate=1.0, cutoff=2.0, direction=1),
        ("cutoff",),
    ),
    (
        TruncatedExponentialDistribution.with_mean,
        dict(mean=0.0, rate=1.0, direction=1, mass=0.95),
        (),
    ),
    (TriangularDistribution, dict(lower=0.0, mode=0.5, upper=1.0), ()),
    (TriangularDistribution.symmetric, dict(center=0.0, half_width=1.0), ()),
    (PointMassDistribution, dict(value=0.0), ()),
]


def _bad_arguments():
    for build, kwargs, unbounded in _BUILDERS:
        for name in kwargs:
            infinite = [] if name in unbounded else [np.inf, -np.inf]
            for value in [None, "x", np.nan, *infinite]:
                yield pytest.param(
                    build,
                    {**kwargs, name: value},
                    name,
                    id=f"{build.__qualname__}-{name}={value!r}",
                )
    with_mean = TruncatedExponentialDistribution.with_mean
    yield pytest.param(
        with_mean, dict(mean=0.0, rate=0.0), "rate", id="with_mean-rate=0.0"
    )


@pytest.mark.parametrize("build, kwargs, name", list(_bad_arguments()))
def test_bad_argument_raises_typed_error(build, kwargs, name):
    """A typed error naming the parameter and the value, never a raw
    ``TypeError``, ``ValueError`` or ``ZeroDivisionError``, and no pdf
    with a NaN or infinite parameter."""
    value = kwargs[name]
    shown = repr(value) if isinstance(value, str) else str(value)
    with pytest.raises(
        InvalidParameterError, match=rf"^{name} must be .*, got {re.escape(shown)}$"
    ):
        build(**kwargs)


def test_import_leaves_quadrature_unloaded():
    """``scipy.integrate`` serves only the quadrature cross-checks above,
    so ``import repro`` must not load it (it adds a few hundred modules
    to every command's start-up)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import sys, repro; print('scipy.integrate' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
