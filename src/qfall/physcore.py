"""Physical constants and the gravitational scale system.

A single acceleration value g fixes the natural units of the bouncing-atom
problem: the length (hbar^2 / (2 m^2 g))^(1/3), the energy m g l, the time
hbar / energy, the velocity g * time and the momentum hbar / l.  Everything
downstream obtains its g-dependence exclusively through a `GravScales`
instance, so scanning g means rebuilding scales and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

#: SI values.  hbar is exact (2019 SI); the atom mass is the hydrogen atom
#: mass, standing in for antihydrogen; the recoiling lepton is the positron.
HBAR = 1.054571817e-34
ATOM_MASS = 1.6735e-27
POSITRON_MASS = 9.1093837015e-31
ELECTRON_VOLT = 1.602176634e-19
G_DEFAULT = 9.81


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of SI constants used throughout.  All strictly positive."""

    hbar: float = HBAR
    atom_mass: float = ATOM_MASS
    positron_mass: float = POSITRON_MASS
    electron_volt: float = ELECTRON_VOLT
    g_default: float = G_DEFAULT

    def __post_init__(self):
        for name in ("hbar", "atom_mass", "positron_mass", "electron_volt", "g_default"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"constant {name} must be positive")
        # the recoiling lepton must be far lighter than the atom, otherwise
        # the factored recoil treatment downstream is invalid
        if self.positron_mass / self.atom_mass >= 1e-3:
            raise DomainError("positron/atom mass ratio must stay below 1e-3")


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class GravScales:
    """Natural units of the quantum bouncer at acceleration g (all SI)."""

    g: float
    length: float
    energy: float
    time: float
    velocity: float
    momentum: float


def derive_scales(g: float, constants: PhysicalConstants = CONSTANTS) -> GravScales:
    """Build the scale system for acceleration g > 0."""
    if not (g > 0.0 and math.isfinite(g)):
        raise DomainError(f"g must be positive and finite, got {g!r}")
    hbar, m = constants.hbar, constants.atom_mass
    length = (hbar * hbar / (2.0 * m * m * g)) ** (1.0 / 3.0)
    energy = m * g * length
    time = hbar / energy
    velocity = g * time
    momentum = hbar / length
    return GravScales(g=g, length=length, energy=energy, time=time,
                      velocity=velocity, momentum=momentum)

