"""A fixed reference computation that tells how fast the machine runs right now.

On a shared host the same sample can take 15-30% longer when other
tenants are busy, and that drift lasts minutes.  The runner times this
kernel before the first sample and after every sample; ``wall_rel`` is
the run's total artifact wall time divided by the total time of these
passes, so a slow period stretches both and largely cancels.

The kernel never calls ``repro``: a change to the program moves
``wall_rel``, a change in machine speed does not.  It mixes the three
kinds of work the artifacts spend their time on -- interpreter-bound
bookkeeping, broadcast arithmetic on arrays larger than the caches, and
many numpy calls on small arrays -- because each reacts differently to
a busy neighbour, and their sum tracks the artifacts more closely than
any one of them.
"""

from __future__ import annotations

import time

import numpy as np


def _interpreter() -> None:
    counts: dict = {}
    for i in range(2_000_000):
        counts[i % 997] = counts.get(i % 997, 0) + i * 0.5


def _large_arrays(rng: np.random.Generator) -> None:
    points = rng.standard_normal((400, 40))
    for _ in range(28):
        ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1).argmin(axis=1)


def _small_arrays(rng: np.random.Generator) -> None:
    points = rng.standard_normal((150, 8))
    centers = points[:5].copy()
    for _ in range(4000):
        labels = ((points[:, None, :] - centers[None]) ** 2).sum(-1).argmin(1)
        for k in range(len(centers)):
            members = labels == k
            if members.any():
                centers[k] = points[members].mean(0)


def seconds() -> float:
    """Wall time of one pass of the kernel (1.2-2.6 s on a shared 2-core VM)."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    _interpreter()
    _large_arrays(rng)
    _small_arrays(rng)
    return time.perf_counter() - start
