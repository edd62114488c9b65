"""Initial state of the dropped atom: trap ground state plus detachment recoil.

The ion is held in the ground state of a harmonic trap of frequency f, giving
an isotropic Gaussian of width zeta = sqrt(hbar / (2 m omega)) in position and
delta_p = hbar / (2 zeta) in momentum.  Photodetachment transfers a recoil of
fixed magnitude q = sqrt(2 m_positron * dE) to the atom, with direction
distributed as the dipole law 3 (qhat . nhat)^2 dOmega / (4 pi) about the
laser polarization nhat.  The resulting state factorizes into a vertical
Gaussian with momentum kick q_z and a horizontal momentum Gaussian centred on
the horizontal part of the kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .physcore import CONSTANTS

DEFAULT_POLAR_NODES = 24
DEFAULT_AZIMUTH_NODES = 16


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic-trap ground state parameters (SI)."""

    frequency: float
    width: float
    momentum_spread: float
    velocity_spread: float


def build_trap(frequency: float) -> TrapConfig:
    if not frequency > 0.0:
        raise DomainError(f"trap frequency must be positive, got {frequency!r}")
    omega = 2.0 * math.pi * frequency
    zeta = math.sqrt(CONSTANTS.hbar / (2.0 * CONSTANTS.atom_mass * omega))
    dp = CONSTANTS.hbar / (2.0 * zeta)
    return TrapConfig(frequency=frequency, width=zeta, momentum_spread=dp,
                      velocity_spread=dp / CONSTANTS.atom_mass)


@dataclass(frozen=True)
class PhotodetachConfig:
    """Recoil kick given to the atom when the excess electron is detached.

    Either `detachment_energy` > 0 (dipolar-distributed recoil of magnitude
    sqrt(2 m_positron dE)) or `kick_velocity` > 0 with zero detachment energy
    (deterministic kick along the polarization axis, the photon-free variant).
    """

    detachment_energy: float
    recoil_momentum: float
    recoil_velocity: float
    polarization: tuple

    @property
    def dipolar(self) -> bool:
        return self.detachment_energy > 0.0


def build_photodetach(detachment_energy: float, polarization=(0.0, 1.0, 0.0),
                      kick_velocity: float = 0.0) -> PhotodetachConfig:
    if detachment_energy < 0.0:
        raise DomainError("detachment energy must be >= 0")
    if kick_velocity < 0.0:
        raise DomainError("kick velocity must be >= 0")
    if detachment_energy > 0.0 and kick_velocity > 0.0:
        raise DomainError("specify either a detachment energy or a fixed kick, not both")
    pol = np.asarray(polarization, dtype=float)
    if pol.shape != (3,) or not np.all(np.isfinite(pol)):
        raise DomainError("polarization must be a finite 3-vector")
    norm = float(np.linalg.norm(pol))
    if norm == 0.0:
        raise DomainError("polarization vector must be nonzero")
    pol = pol / norm
    if detachment_energy > 0.0:
        # the recoiling lepton is the positron: its small mass sets the kick
        q = math.sqrt(2.0 * CONSTANTS.positron_mass * detachment_energy)
    else:
        q = CONSTANTS.atom_mass * kick_velocity
    return PhotodetachConfig(detachment_energy=detachment_energy,
                             recoil_momentum=q,
                             recoil_velocity=q / CONSTANTS.atom_mass,
                             polarization=tuple(pol))


@dataclass(frozen=True)
class RecoilQuadrature:
    """Nodes qhat_k and weights w_k integrating the dipole direction law."""

    directions: np.ndarray  # (K, 3)
    weights: np.ndarray     # (K,), sums to 1

    def __post_init__(self):
        if self.directions.ndim != 2 or self.directions.shape[1] != 3:
            raise DomainError("directions must be (K, 3)")
        if len(self.weights) != len(self.directions):
            raise DomainError("weights and directions must match in length")


def recoil_quadrature(photodetach: PhotodetachConfig,
                      n_polar: int = DEFAULT_POLAR_NODES,
                      n_azimuth: int = DEFAULT_AZIMUTH_NODES) -> RecoilQuadrature:
    """Product rule: Gauss-Legendre in cos(theta), uniform in azimuth.

    The dipole density 3 (qhat . nhat)^2 / (4 pi) is folded into the weights,
    so sum(w) = 1 holds exactly (the azimuth rule is exact for second
    harmonics once n_azimuth >= 4).
    """
    if not photodetach.dipolar:
        # deterministic kick: a single node along the polarization axis
        return RecoilQuadrature(directions=np.asarray([photodetach.polarization]),
                                weights=np.ones(1))
    if n_polar < 2:
        raise DomainError("need at least 2 polar nodes")
    if n_azimuth < 4:
        raise DomainError("need at least 4 azimuth nodes")
    u, wu = np.polynomial.legendre.leggauss(int(n_polar))
    phi = 2.0 * math.pi * (np.arange(n_azimuth) + 0.5) / n_azimuth
    su = np.sqrt(1.0 - u ** 2)
    qx = np.outer(su, np.cos(phi)).ravel()
    qy = np.outer(su, np.sin(phi)).ravel()
    qz = np.repeat(u, n_azimuth)
    dirs = np.stack([qx, qy, qz], axis=1)
    proj = dirs @ np.asarray(photodetach.polarization)
    w = 1.5 * proj ** 2 * np.repeat(wu, n_azimuth) / n_azimuth
    return RecoilQuadrature(directions=dirs, weights=w)


@dataclass(frozen=True)
class PolarNodes:
    """Azimuth-integrated recoil nodes for the vertical projection.

    u is cos(theta) of the kick, or n_z for the deterministic kick; w_even
    and w_cos2 are the node weights of the azimuth-even and cos 2(phi -
    pol_angle) parts of the dipole law, with pol_angle the azimuth of the
    polarization.
    """

    u: np.ndarray
    w_even: np.ndarray
    w_cos2: np.ndarray
    pol_angle: float


def polar_nodes(photodetach: PhotodetachConfig,
                n_polar: int = DEFAULT_POLAR_NODES,
                folded: bool = False) -> PolarNodes:
    """Gauss-Legendre nodes in u = cos(theta) with the dipole law folded in.

    Integrating 3 (qhat . nhat)^2 / (4 pi) over azimuth leaves the even part
    (3/4) [(1 - n_z^2)(1 - u^2) + 2 n_z^2 u^2] and, for a polarization in
    the horizontal plane, the second harmonic (3/4) (1 - n_z^2)(1 - u^2).
    `folded` demands a polarization for which these two harmonics close the
    azimuth integral: in the detector plane or vertical.
    """
    pol = photodetach.polarization
    nz2 = pol[2] ** 2
    pol_angle = float(math.atan2(pol[1], pol[0])) if (1.0 - nz2) > 1e-24 \
        else 0.0
    if not photodetach.dipolar:
        # deterministic kick: one direction, unit angular weight; the
        # azimuth structure lives entirely in the Gaussian ridge
        return PolarNodes(u=np.asarray([pol[2]]), w_even=np.ones(1),
                          w_cos2=np.zeros(1), pol_angle=pol_angle)
    if folded and not (abs(pol[2]) < 1e-12 or abs(pol[2]) > 1.0 - 1e-12):
        raise ConfigError("folded maps and detector cuts support polarization "
                          "either in the detector plane or vertical")
    if n_polar < 2:
        raise DomainError("need at least 2 polar nodes")
    u, wu = np.polynomial.legendre.leggauss(int(n_polar))
    coef_even = 0.75 * ((1.0 - nz2) * (1.0 - u ** 2) + 2.0 * nz2 * u ** 2)
    coef_cos2 = 0.75 * (1.0 - nz2) * (1.0 - u ** 2)
    return PolarNodes(u=u, w_even=wu * coef_even,
                      w_cos2=wu * coef_cos2, pol_angle=pol_angle)

