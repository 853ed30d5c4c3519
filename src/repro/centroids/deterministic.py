"""The deterministic UK-means centroid (Eq. (7) of the paper)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._typing import FloatArray
from repro.exceptions import EmptyClusterError
from repro.objects.uncertain_object import UncertainObject


def ukmeans_centroid(objects: Sequence[UncertainObject]) -> FloatArray:
    """Deterministic centroid ``C_UK = (1/|C|) sum_o mu(o)`` (Eq. (7)).

    This is the notion of centroid whose variance-blindness motivates
    the paper (Proposition 1 / Figure 1): it is a plain point that
    discards every object's individual variance.
    """
    if len(objects) == 0:
        raise EmptyClusterError("cannot compute a centroid of an empty cluster")
    total = np.zeros(objects[0].dim)
    for obj in objects:
        total += obj.mu
    return total / len(objects)
