"""Shared sample-tensor handling for the sample-based algorithms.

Basic UK-means, whose fit is also the loop of its pruning and bounded
variants, FDBSCAN and FOPTICS all start their off-line phase from an
``(n, S, m)`` realization tensor.  This mixin centralizes how that
tensor is obtained: batch-drawn through
:meth:`UncertainDataset.sample_tensor`, or injected pre-drawn via the
``sample_cache`` attribute (the multi-restart engine shares one tensor
across restarts this way).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset


class SampleCacheMixin:
    """Adds ``sample_cache`` support to a sample-based clusterer.

    The host class must define ``n_samples``.  ``sample_cache`` is
    ``None`` by default (draw fresh samples per fit); setting it to an
    ``(n, S, m)`` tensor makes every subsequent fit reuse those exact
    samples — the multi-restart engine uses this to amortize the
    off-line phase across restarts.
    """

    #: Optional pre-drawn ``(n, S, m)`` sample tensor shared across
    #: runs; ``None`` means draw fresh samples per fit.
    sample_cache: Optional[np.ndarray] = None

    #: True when the Monte-Carlo draw is the algorithm's *only* source
    #: of randomness (FDBSCAN, FOPTICS): given the tensor, the fit is
    #: deterministic.  Multi-run *measurement* harnesses (the
    #: experiment runners via :func:`repro.engine.fit_runs`) use this to
    #: keep per-run draws independent — sharing one tensor would
    #: collapse every run to one realization — while restart-style
    #: best-of runs may still share explicitly.
    sample_randomness_only: bool = False

    def _draw_samples(
        self, dataset: UncertainDataset, rng: np.random.Generator
    ) -> np.ndarray:
        """The ``(n, S, m)`` sample tensor: cached or batch-drawn."""
        if self.sample_cache is not None:
            cache = np.asarray(self.sample_cache)
            expected = (len(dataset), self.n_samples, dataset.dim)
            if cache.shape != expected:
                raise InvalidParameterError(
                    f"sample_cache shape {cache.shape} does not match the "
                    f"expected {expected}"
                )
            return cache
        return dataset.sample_tensor(self.n_samples, rng)
