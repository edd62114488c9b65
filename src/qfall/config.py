"""Run configuration: parsing, validation, canonical form, and hashing.

The file format is one `section.key = value` assignment per line with `#`
comments.  Every dimensioned value must carry an SI unit suffix
(`geometry.release_height = 10 um`); bare numbers on dimensioned keys are
rejected so a config can never be misread by a factor of a thousand.
The canonical emission sorts keys and prints SI values with %.17g, and the
sha256 of that text identifies the physics of a run in every manifest.
"""

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from .errors import ConfigError
from .freefall import GridSpec
from .inference import N_SCAN, REL_WINDOW
from .mirror import DiskGeometry
from .physcore import CONSTANTS, G_DEFAULT
from .source import build_photodetach, build_trap

_EV = CONSTANTS.electron_volt

UNIT_SCALES = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
    "energy": {"J": 1.0, "eV": _EV, "meV": 1e-3 * _EV, "ueV": 1e-6 * _EV,
               "neV": 1e-9 * _EV, "peV": 1e-12 * _EV},
    "velocity": {"m/s": 1.0, "cm/s": 1e-2, "mm/s": 1e-3},
    "acceleration": {"m/s2": 1.0},
}

# canonical suffix used when emitting each dimension in SI
_BASE_UNIT = {"length": "m", "frequency": "Hz", "energy": "J",
              "velocity": "m/s", "acceleration": "m/s2"}

_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration, all dimensioned values in SI."""

    frequency: float = 20e3
    detachment_energy: float = 10e-6 * _EV
    polarization: Tuple[float, float, float] = (0.0, 1.0, 0.0)
    kick_velocity: float = 0.0
    release_height: float = 10e-6
    travel_distance: float = 50e-3
    fall_height: float = 0.3
    g: float = G_DEFAULT
    n_max: int = 1000
    fringe_samples: float = GridSpec.fringe_samples
    t_nodes: int = GridSpec.t_nodes
    z_samples: float = GridSpec.z_samples
    n_polar: int = GridSpec.n_polar
    likelihood: str = "conditional"
    n_source: int = 20000
    n_replicates: int = 40
    seed: int = 1
    rel_window: float = REL_WINDOW
    n_scan: int = N_SCAN


# key -> (field name, dimension or None, python type)
KEYS = {
    "source.frequency": ("frequency", "frequency", float),
    "source.detachment_energy": ("detachment_energy", "energy", float),
    "source.polarization": ("polarization", None, tuple),
    "source.kick_velocity": ("kick_velocity", "velocity", float),
    "geometry.release_height": ("release_height", "length", float),
    "geometry.travel_distance": ("travel_distance", "length", float),
    "geometry.fall_height": ("fall_height", "length", float),
    "physics.g": ("g", "acceleration", float),
    "physics.n_max": ("n_max", None, int),
    "grid.fringe_samples": ("fringe_samples", None, float),
    "grid.t_nodes": ("t_nodes", None, int),
    "grid.z_samples": ("z_samples", None, float),
    "grid.n_polar": ("n_polar", None, int),
    "inference.likelihood": ("likelihood", None, str),
    "inference.n_source": ("n_source", None, int),
    "inference.n_replicates": ("n_replicates", None, int),
    "inference.seed": ("seed", None, int),
    "inference.rel_window": ("rel_window", None, float),
    "inference.n_scan": ("n_scan", None, int),
}

_FIELD_TO_KEY = {spec[0]: key for key, spec in KEYS.items()}

_ENUMS = {"inference.likelihood": ("conditional", "unconditional")}


def _fail(line_no: int, key: str, reason: str):
    raise ConfigError("line %d: %s: %s" % (line_no, key, reason))


def _parse_number(token: str, line_no: int, key: str) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(line_no, key, "cannot read number %r" % token)
    if not math.isfinite(value):
        _fail(line_no, key, "number %r is not finite" % token)
    return value


def _parse_value(key: str, raw: str, line_no: int):
    field, dim, typ = KEYS[key]
    if key == "source.polarization":
        if raw in _AXES:
            return _AXES[raw]
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 3:
            _fail(line_no, key, "expected axis x|y|z or three components")
        return tuple(_parse_number(p, line_no, key) for p in parts)
    if key in _ENUMS:
        if raw not in _ENUMS[key]:
            _fail(line_no, key, "must be one of %s" % "|".join(_ENUMS[key]))
        return raw
    tokens = raw.split()
    if dim is None:
        if len(tokens) != 1:
            _fail(line_no, key, "dimensionless key takes a bare number")
        value = _parse_number(tokens[0], line_no, key)
        if typ is int:
            if value != int(value):
                _fail(line_no, key, "must be an integer")
            return int(value)
        return value
    if len(tokens) != 2:
        _fail(line_no, key, "needs a value and a %s unit (%s)"
              % (dim, "|".join(UNIT_SCALES[dim])))
    if tokens[1] not in UNIT_SCALES[dim]:
        _fail(line_no, key, "unit %r is not a %s unit (%s)"
              % (tokens[1], dim, "|".join(UNIT_SCALES[dim])))
    return _parse_number(tokens[0], line_no, key) * UNIT_SCALES[dim][tokens[1]]


def parse_config(text: str) -> RunConfig:
    """Parse config text; an empty document gives the reference setup."""
    seen = {}
    overrides = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("line %d: expected 'section.key = value'"
                              % line_no)
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in KEYS:
            raise ConfigError("line %d: unknown key %r" % (line_no, key))
        if key in seen:
            _fail(line_no, key, "already set on line %d" % seen[key])
        seen[key] = line_no
        overrides[KEYS[key][0]] = _parse_value(key, raw, line_no)
    cfg = replace(RunConfig(), **overrides)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    positive = ("frequency", "release_height", "travel_distance",
                "fall_height", "g", "n_max", "n_source", "rel_window")
    for name in positive:
        if getattr(cfg, name) <= 0:
            raise ConfigError("%s must be positive" % _FIELD_TO_KEY[name])
    if cfg.n_replicates < 2:
        raise ConfigError("inference.n_replicates must be at least 2 for a "
                          "spread")
    if cfg.rel_window >= 1.0:
        raise ConfigError("inference.rel_window must be below 1")
    if cfg.detachment_energy < 0 or cfg.kick_velocity < 0:
        raise ConfigError("recoil settings must be nonnegative")
    if cfg.detachment_energy > 0 and cfg.kick_velocity > 0:
        raise ConfigError("source.detachment_energy and source.kick_velocity "
                          "are exclusive variants")
    if all(abs(c) < 1e-300 for c in cfg.polarization):
        raise ConfigError("source.polarization must be a nonzero direction")
    if cfg.n_scan < 5 or cfg.n_scan % 2 == 0:
        raise ConfigError("inference.n_scan must be an odd count of at "
                          "least 5")
    _grid_spec(cfg)


def _format_value(key: str, value) -> str:
    _, dim, typ = KEYS[key]
    if key == "source.polarization":
        return ",".join("%.17g" % c for c in value)
    if key in _ENUMS:
        return value
    if typ is int:
        return "%d" % value
    if dim is None:
        return "%.17g" % value
    return "%.17g %s" % (value, _BASE_UNIT[dim])


def canonical_text(cfg: RunConfig) -> str:
    """Sorted, SI-normalized emission; equal configs emit equal bytes."""
    lines = []
    for key in sorted(KEYS):
        field = KEYS[key][0]
        lines.append("%s = %s" % (key, _format_value(key,
                                                     getattr(cfg, field))))
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()


def config_dict(cfg: RunConfig) -> dict:
    """Plain-type view for JSON manifests."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def resolve_config(path: Optional[str]) -> RunConfig:
    """File if given, reference setup otherwise."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _grid_spec(cfg: RunConfig) -> GridSpec:
    return GridSpec(fringe_samples=cfg.fringe_samples, t_nodes=cfg.t_nodes,
                    z_samples=cfg.z_samples, n_polar=cfg.n_polar)


def build_components(cfg: RunConfig):
    """Instantiate (trap, photodetach, geometry, grid spec) from a config."""
    trap = build_trap(cfg.frequency)
    photodetach = build_photodetach(cfg.detachment_energy,
                                    polarization=cfg.polarization,
                                    kick_velocity=cfg.kick_velocity)
    geometry = DiskGeometry(release_height=cfg.release_height,
                            travel_distance=cfg.travel_distance,
                            fall_height=cfg.fall_height)
    return trap, photodetach, geometry, _grid_spec(cfg)
