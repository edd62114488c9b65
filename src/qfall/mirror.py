"""Evolution of the retained state while it glides above the disk.

Above the mirror each mode only acquires the energy phase exp(-i lambda_n
t / t_g) (epsilon_g t_g = hbar, so E_n t / hbar = lambda_n t / t_g).  The
horizontal motion is free flight: an atom detected at radial distance rbar
from the release point after a total fall time T spent t = T d / rbar above
the disk of radius d, because the horizontal velocity is a constant of the
motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gqs import GQSBasis


@dataclass(frozen=True)
class DiskGeometry:
    """Release point and detector layout (SI lengths).

    release_height: initial height of the atom above the mirror surface
    travel_distance: horizontal extent of the mirror from release to its edge
    fall_height: drop from the mirror edge to the detection plane
    """

    release_height: float
    travel_distance: float
    fall_height: float

    def __post_init__(self):
        for name in ("release_height", "travel_distance", "fall_height"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")


def time_above_mirror(geometry: DiskGeometry, radial_distance, total_time):
    """t = T d / rbar for an atom landing at rbar after total time T."""
    rbar = np.asarray(radial_distance, dtype=float)
    total = np.asarray(total_time, dtype=float)
    if not np.all(np.isfinite(rbar)):
        raise DomainError("detection radius must be finite")
    if not np.all(np.isfinite(total)):
        raise DomainError("total fall time must be finite")
    if np.any(rbar <= geometry.travel_distance):
        raise DomainError("detection radius must exceed the mirror radius")
    if np.any(total <= 0.0):
        raise DomainError("total fall time must be positive")
    t = total * geometry.travel_distance / rbar
    return t if t.ndim else float(t)


def mode_phases(basis: GQSBasis, t) -> np.ndarray:
    """The mode phase factors exp(-i lambda_n t / t_g) of a time t above
    the mirror, along a last axis of modes; an array t broadcasts against
    it (a column of times gives one row each)."""
    t = np.asarray(t, dtype=float)
    # written so that NaN fails it too
    if not np.all(t >= 0.0):
        raise DomainError("time above the mirror must be nonnegative")
    scaled = t / basis.scales.time
    out = np.empty(np.broadcast_shapes(basis.table.values.shape,
                                       scaled.shape), dtype=np.complex128)
    # the phases are formed in the real part, so no real array is allocated
    phase = np.multiply(basis.table.values, scaled, out=out.real)
    np.sin(phase, out=out.imag)
    np.cos(phase, out=phase)
    np.negative(out.imag, out=out.imag)
    return out

