"""Moving-objects workload — the paper's second motivating domain.

The introduction cites moving objects [19]: positions "can only be
estimated when there is a certain latency in communicating the position
(i.e., data is inherently obsolete)".  This generator simulates a fleet
of objects moving around latent activity hubs and reporting positions
with per-object *staleness*: the uncertainty region of an object grows
with the time since its last report and its speed — exactly the classic
Trajcevski-style uncertainty disk, approximated here by its bounding box
with a uniform or Gaussian pdf.

Objects are labeled by their hub, giving the external criterion a ground
truth; staleness varies per object, so variances are genuinely
heterogeneous — the regime the U-centroid was designed for.  A fleet is
held as its per-cell pdfs; objects are built only on demand.
"""

from __future__ import annotations


import numpy as np

from repro._typing import SeedLike
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset, _CellPdfs
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_int_range, check_mass, check_positive


def make_moving_objects(
    n_objects: int = 300,
    n_hubs: int = 4,
    area_size: float = 100.0,
    hub_radius: float = 8.0,
    max_speed: float = 5.0,
    max_staleness: float = 4.0,
    pdf: str = "uniform",
    mass: float = 0.95,
    seed: SeedLike = None,
) -> UncertainDataset:
    """Fleet of moving objects with staleness-dependent position uncertainty.

    Parameters
    ----------
    n_objects:
        Fleet size.
    n_hubs:
        Latent activity hubs (the reference classes).
    area_size:
        Side of the square operating area.
    hub_radius:
        Spread of object true positions around their hub.
    max_speed:
        Maximum object speed; the uncertainty half-width of an object is
        ``speed * staleness`` (it can have moved that far since its last
        report).
    max_staleness:
        Maximum time since last report, drawn uniformly per object.
    pdf:
        ``"uniform"`` — uniform over the reachability box (the classical
        worst-case model); ``"normal"`` — truncated Gaussian centered on
        the last report (a random-walk model).
    mass:
        Region probability mass for the Gaussian variant.

    Returns
    -------
    UncertainDataset
        One uncertain object per fleet member, labeled by hub.
    """
    check_int_range(n_hubs, "n_hubs", low=1)
    if check_int_range(n_objects, "n_objects") < 2 * n_hubs:
        raise InvalidParameterError(
            f"need n_objects >= 2*n_hubs, got {n_objects} < {2 * n_hubs}"
        )
    if pdf not in ("uniform", "normal"):
        raise InvalidParameterError(f"pdf must be 'uniform' or 'normal', got {pdf!r}")
    for name, value in (
        ("area_size", area_size),
        ("hub_radius", hub_radius),
        ("max_speed", max_speed),
        ("max_staleness", max_staleness),
    ):
        check_positive(value, name)
    check_mass(mass)
    rng = ensure_rng(seed)

    hubs = rng.uniform(0.2 * area_size, 0.8 * area_size, size=(n_hubs, 2))
    labels = rng.integers(0, n_hubs, size=n_objects)
    labels[: n_hubs * 2] = np.repeat(np.arange(n_hubs), 2)

    positions = hubs[labels] + rng.normal(0.0, hub_radius, size=(n_objects, 2))
    speeds = rng.uniform(0.2, 1.0, size=n_objects) * max_speed
    staleness = rng.uniform(0.1, 1.0, size=n_objects) * max_staleness
    reach = speeds * staleness  # how far it may have strayed

    if pdf == "uniform":
        half = reach[:, None]
        cells = _CellPdfs("uniform", (positions - half, positions + half), mass)
    else:
        # Random-walk dispersion: std grows with sqrt(staleness).
        std = np.repeat((speeds * np.sqrt(staleness))[:, None], 2, axis=1)
        cells = _CellPdfs("normal", (positions, std), mass)
    return cells.dataset(labels)
