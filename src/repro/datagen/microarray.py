"""Microarray probe-level uncertainty simulator (S21).

The paper's "real" datasets are gene-expression matrices (Neuroblastoma
22,282 x 14 and Leukaemia 22,690 x 21 from the Broad Institute) whose
probe-level uncertainty is extracted with the multi-mgMOS model of the
PUMA Bioconductor package and expressed as per-value Normal pdfs.

Those data and the PUMA toolchain are unavailable offline, so this
module synthesizes gene-expression datasets with the same structure
(see "Substitutions" in the README):

* objects are genes; attributes are tissue samples;
* genes belong to latent co-expression modules (so internal-criterion
  experiments have discoverable structure);
* expression values follow a log-normal signal model;
* each value carries Normal measurement uncertainty whose standard
  deviation *decreases with expression level* — the qualitative
  signature of multi-mgMOS probe-level variances (low-expressed probes
  are noisier relative to signal).

The paper evaluates these datasets with the internal criterion Q only
(no reference classes exist), which this generator matches: labels are
the latent modules and may be used or ignored.  A dataset is held as
its per-cell Normal pdfs; objects are built only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro._typing import SeedLike
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset, _CellPdfs
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_int_range,
    check_mass,
    check_positive,
    check_real,
)


@dataclass(frozen=True)
class MicroarraySpec:
    """Shape of one real-dataset stand-in (mirrors Table 1-(b)).

    Attributes
    ----------
    name:
        Dataset name as used in the paper.
    n_genes, n_tissues:
        Objects / attributes per Table 1-(b).
    n_modules:
        Latent co-expression modules (cluster structure).
    """

    name: str
    n_genes: int
    n_tissues: int
    n_modules: int


#: Registry reproducing Table 1-(b) of the paper.
MICROARRAY_SPECS: Dict[str, MicroarraySpec] = {
    spec.name: spec
    for spec in (
        MicroarraySpec("neuroblastoma", 22282, 14, 8),
        MicroarraySpec("leukaemia", 22690, 21, 10),
    )
}


def list_microarrays() -> Tuple[str, ...]:
    """Names of the registered microarray stand-ins."""
    return tuple(MICROARRAY_SPECS)


def make_microarray(
    name: str,
    scale: float = 1.0,
    mass: float = 0.95,
    seed: SeedLike = None,
) -> UncertainDataset:
    """Uncertain gene-expression dataset named after a paper dataset.

    Parameters
    ----------
    name:
        ``"neuroblastoma"`` or ``"leukaemia"``.
    scale:
        Fraction of the paper's gene count (paper-scale data is ~22k
        objects; the experiments default to reduced sizes).
    mass:
        Probability mass retained by each truncated-Normal region.
    """
    if not isinstance(name, str) or name.lower() not in MICROARRAY_SPECS:
        raise InvalidParameterError(
            f"unknown microarray dataset {name!r}; known: {sorted(MICROARRAY_SPECS)}"
        )
    check_mass(scale, "scale")
    spec = MICROARRAY_SPECS[name.lower()]
    n_genes = max(spec.n_modules * 4, int(round(spec.n_genes * scale)))
    return make_probe_level_dataset(
        n_genes=n_genes,
        n_tissues=spec.n_tissues,
        n_modules=spec.n_modules,
        mass=mass,
        seed=seed,
    )


def make_probe_level_dataset(
    n_genes: int,
    n_tissues: int,
    n_modules: int,
    base_level: float = 7.0,
    module_spread: float = 2.0,
    within_module_std: float = 0.6,
    noise_floor: float = 0.15,
    noise_slope: float = 0.9,
    mass: float = 0.95,
    seed: SeedLike = None,
) -> UncertainDataset:
    """General probe-level microarray simulator.

    Signal model (log2 scale, typical Affymetrix range ~[2, 14]):

    * module profiles: per-module, per-tissue means
      ``N(base_level, module_spread^2)``;
    * gene expression: module profile + gene offset
      ``N(0, within_module_std^2)`` per tissue;
    * probe-level std (multi-mgMOS-like, decreasing in expression):
      ``sd = noise_floor + noise_slope / (1 + exp(expr - base_level))``.

    Every value becomes a truncated-Normal marginal with that std and a
    region holding ``mass`` of the pdf; gene labels record the latent
    module.
    """
    check_int_range(n_tissues, "n_tissues", low=1)
    check_int_range(n_modules, "n_modules", low=1)
    if check_int_range(n_genes, "n_genes") < n_modules:
        raise InvalidParameterError(
            f"need n_genes >= n_modules, got {n_genes} < {n_modules}"
        )
    check_real(base_level, "base_level")
    check_positive(module_spread, "module_spread", strict=False)
    check_positive(within_module_std, "within_module_std", strict=False)
    check_positive(noise_floor, "noise_floor")
    check_positive(noise_slope, "noise_slope", strict=False)
    check_mass(mass)
    rng = ensure_rng(seed)

    module_profiles = rng.normal(
        base_level, module_spread, size=(n_modules, n_tissues)
    )
    modules = rng.integers(0, n_modules, size=n_genes)
    # Every module keeps at least one gene.
    modules[:n_modules] = np.arange(n_modules)

    expression = (
        module_profiles[modules]
        + rng.normal(0.0, within_module_std, size=(n_genes, n_tissues))
    )
    # multi-mgMOS-like heteroscedastic probe noise: lower expression =>
    # larger standard deviation (logistic decay around base_level).
    probe_std = noise_floor + noise_slope / (
        1.0 + np.exp(expression - base_level)
    )
    return _CellPdfs("normal", (expression, probe_std), mass).dataset(modules)
