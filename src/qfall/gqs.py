"""Projection of the dropped state onto the bound modes above the mirror.

The mirror plus the linear gravitational potential carries a purely discrete
ladder of modes chi_n with energies lambda_n * m g l_g.  A detector above the
mirror removes every component steeper than the ladder top, so the retained
probability of a release state psi is sum_n |c_n|^2 over the first n_max
overlap coefficients

    c_n(q_z) = int_0^inf chi_n(z) psi(z) dz,
    psi(z)   = (2 pi zeta^2)^(-1/4) exp(-(z-h)^2/(4 zeta^2) + i q_z (z-h)/hbar).

Averaging |c_n|^2 over the vertical recoil projection q_z = q u with the
azimuth-integrated dipole weights gives the transmitted fraction of a dropped
ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import AiryZeroTable, Z_MAX_PAD, airy_zeros, eigenfunction_matrix
from .errors import DomainError
from .physcore import G_DEFAULT, GravScales, derive_scales
from .source import (DEFAULT_POLAR_NODES, PhotodetachConfig, TrapConfig,
                     polar_nodes)

GAUSSIAN_SUPPORT_SIGMAS = 8.0
PANEL_ORDER = 12
PANEL_PHASE = 3.0
MIN_PANELS = 16


@dataclass(frozen=True)
class GQSBasis:
    """Mode ladder truncated at n_max with its gravity scales."""

    table: AiryZeroTable
    scales: GravScales
    z_max: float

    def __post_init__(self):
        if self.z_max < self.table.values[-1] * self.scales.length:
            raise DomainError("z_max must cover the classical turning point "
                              "of the highest retained mode")

    @property
    def n_max(self) -> int:
        return self.table.n_max

    @property
    def lam_max(self) -> float:
        return float(self.table.values[-1])


def build_basis(n_max: int, g: float = G_DEFAULT, z_max: float | None = None,
                table: AiryZeroTable | None = None) -> GQSBasis:
    scales = derive_scales(g)
    if table is None:
        table = airy_zeros(n_max)
    elif table.n_max != n_max:
        raise DomainError("zero table does not match requested n_max")
    if z_max is None:
        z_max = (float(table.values[-1]) + Z_MAX_PAD) * scales.length
    return GQSBasis(table=table, scales=scales, z_max=z_max)


def classical_cutoff_velocity(basis: GQSBasis, height: float) -> float:
    """Largest vertical speed a particle released at `height` can have and
    still stay below the top of the retained ladder (0 if released above)."""
    arg = basis.lam_max - height / basis.scales.length
    if arg <= 0.0:
        return 0.0
    return math.sqrt(2.0 * basis.scales.g * basis.scales.length * arg)


def _panel_rule(lo: float, hi: float, wavenumber: float, phase: float):
    """Composite Gauss-Legendre nodes sized so each panel spans at most
    `phase` radians of the fastest oscillation."""
    if hi <= lo:
        raise DomainError("empty integration interval")
    panels = max(MIN_PANELS, int(math.ceil((hi - lo) * wavenumber / phase)))
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def overlap_matrix(basis: GQSBasis, height: float, width: float,
                   qz_values, phase: float = PANEL_PHASE) -> np.ndarray:
    """Coefficients c_n(q_z) for a batch of vertical kicks, shape (K, n_max).

    One Gauss-Legendre panel grid over the Gaussian support serves every kick:
    the mode matrix (the expensive part) is evaluated once and the kick phases
    enter through a small dense product.
    """
    if height <= 0.0:
        raise DomainError("release height must be positive")
    if width <= 0.0:
        raise DomainError("state width must be positive")
    qz = np.atleast_1d(np.asarray(qz_values, dtype=float))
    scales = basis.scales
    hbar = scales.momentum * scales.length  # hbar recovered from the scales
    lo = max(0.0, height - GAUSSIAN_SUPPORT_SIGMAS * width)
    hi = height + GAUSSIAN_SUPPORT_SIGMAS * width
    k_mode = math.sqrt(basis.lam_max) / scales.length
    k_kick = float(np.max(np.abs(qz))) / hbar
    z, w = _panel_rule(lo, hi, k_mode + k_kick, phase)
    chi = eigenfunction_matrix(basis.table, z / scales.length)
    amp = (2.0 * math.pi * width ** 2) ** (-0.25)
    gauss = amp * np.exp(-(z - height) ** 2 / (4.0 * width ** 2))
    ph = np.outer(qz, z - height) / hbar
    psi = gauss[None, :] * (np.cos(ph) + 1j * np.sin(ph))
    return (psi * w[None, :]) @ chi.T / math.sqrt(scales.length)


@dataclass(frozen=True)
class TransmissionResult:
    """Recoil-averaged retained probability and its per-mode breakdown."""

    fraction: float
    populations: np.ndarray   # recoil-averaged |c_n|^2, n = 1..n_max

    def expected_count(self, n_atoms: int) -> int:
        if n_atoms < 0:
            raise DomainError("atom count must be nonnegative")
        return int(round(n_atoms * self.fraction))


def transmitted_fraction(basis: GQSBasis, trap: TrapConfig,
                         photodetach: PhotodetachConfig, height: float,
                         n_polar: int = DEFAULT_POLAR_NODES
                         ) -> TransmissionResult:
    """Average the retained probability over the vertical recoil projection."""
    nodes = polar_nodes(photodetach, n_polar)
    coeff = overlap_matrix(basis, height, trap.width,
                           photodetach.recoil_momentum * nodes.u)
    prob = np.abs(coeff) ** 2
    return TransmissionResult(fraction=float(nodes.w_even @ prob.sum(axis=1)),
                              populations=nodes.w_even @ prob)
