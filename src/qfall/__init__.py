"""Quantum free-fall of ultracold antihydrogen above a mirror.

Bound bouncer modes, photodetachment recoil averaging, exact free-fall
propagation to an annihilation detector, and maximum-likelihood gravity
estimation with its Cramer-Rao comparison.
"""

__version__ = "0.1.0"

from .config import RunConfig, build_components, config_hash, parse_config
from .errors import ConfigError, DomainError, NumericsError
from .freefall import (FoldedMap, GridSpec, MapMaker, annihilation_current,
                       build_folded_map, current_map_yt)
from .gqs import build_basis, transmitted_fraction
from .inference import (EventSet, GridDensityFamily, cramer_rao_sigma,
                        estimate_g, fisher_information, log_likelihood,
                        run_campaign, sample_events)
from .mirror import DiskGeometry
from .physcore import CONSTANTS, G_DEFAULT, derive_scales
from .source import build_photodetach, build_trap

__all__ = [
    "__version__", "RunConfig", "build_components", "config_hash",
    "parse_config", "ConfigError", "DomainError", "NumericsError",
    "FoldedMap",
    "GridSpec", "MapMaker", "annihilation_current", "build_folded_map",
    "current_map_yt", "build_basis",
    "transmitted_fraction", "EventSet", "GridDensityFamily",
    "cramer_rao_sigma", "estimate_g", "fisher_information", "log_likelihood",
    "run_campaign", "sample_events", "DiskGeometry", "CONSTANTS",
    "G_DEFAULT", "derive_scales", "build_photodetach", "build_trap",
]
