"""Free fall from the mirror edge to the detection plane.

The gravitational propagator factorizes into the free one evaluated at a
shifted endpoint plus a z-independent phase,

    K_g(Z, z; tau) = exp(-i Phi) K_0(Z', z; tau),
    Z'  = Z + g tau^2 / 2,
    Phi = (m g tau / hbar) (Z + g tau^2 / 6),

so every propagated amplitude is a chirp integral over the end-of-disk state
and the detection-plane current needs the pair of mode sums F_n and G_n
computed by the kernels module.  With the atom landing at radial distance
rbar after total time T, the time above the disk is t = T d / rbar and the
fall takes tau = T - t; on a lattice where the t step is an integer multiple
of the T step, every cell's tau lands on one shared tau lattice and the
chirp sums are computed once per tau value.

The detector-plane observables come in three forms: `MapMaker.build` (the
azimuth-integrated (t, T) density used for estimation, with the kick azimuth
reduced to exponentially scaled Bessel weights), `current_map_yt` (the
unfolded density on a (Y, T) cut through the detector plane), and
`annihilation_current` (a brute-force spot value summing explicit kick
directions, kept as an independent cross-check of the folded assembly).
All three take their recoil nodes from `source.polar_nodes`, their mode
sums from `ModeGrid.fall_sums` and their per-node rates from `_node_rates`;
the spot value takes its kick directions and dipole weights from
`source.recoil_quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.special as sps

from .airy import _airy_rows
from .errors import ConfigError, DomainError
from .gqs import (GQSBasis, build_basis, classical_cutoff_velocity,
                  overlap_matrix)
from .kernels import mode_chirp_sums, simpson_weights
from .mirror import DiskGeometry, evolve_to_end_of_disk, time_above_mirror
from .physcore import CONSTANTS, G_DEFAULT, GravScales
from .source import (DEFAULT_AZIMUTH_NODES, DEFAULT_POLAR_NODES,
                     PhotodetachConfig, TrapConfig, polar_nodes,
                     recoil_quadrature)


# ---------------------------------------------------------------------------
# propagator and generic profile propagation (also the tests' entry points)

def propagator_kernel(z_to, z_from, tau: float,
                      g: float = G_DEFAULT) -> np.ndarray:
    """Exact kernel K_g(z_to, z_from; tau) with broadcasting arguments."""
    if tau <= 0.0:
        raise DomainError("propagation time must be positive")
    m = CONSTANTS.atom_mass
    hbar = CONSTANTS.hbar
    zt = np.asarray(z_to, dtype=float)
    zf = np.asarray(z_from, dtype=float)
    action = ((zt - zf) ** 2 / (2.0 * tau)
              - 0.5 * g * tau * (zt + zf)
              - g * g * tau ** 3 / 24.0)
    pref = math.sqrt(m / (2.0 * math.pi * hbar * tau)) * np.exp(-0.25j * math.pi)
    return pref * np.exp(1j * (m / hbar) * action)


def _chirp_sums(chi_w, z, idx_cut, tau, detector_z, g: float):
    """F, G of `mode_chirp_sums` for fall times tau to heights detector_z.

    tau and detector_z broadcast to one lattice; the free kernel is taken
    at the shifted endpoint Z' = Z + g tau^2 / 2.
    """
    tau, Z = np.broadcast_arrays(np.asarray(tau, dtype=float),
                                 np.asarray(detector_z, dtype=float))
    alpha = CONSTANTS.atom_mass / (2.0 * CONSTANTS.hbar * tau)
    return mode_chirp_sums(chi_w, z, idx_cut, alpha, Z + 0.5 * g * tau * tau,
                           1.0 / tau, g * tau)


def _profile_sums(z, psi, tau, detector_z, g: float):
    """Chirp sums (SF, SG) of one sampled complex profile psi(z), with
    Simpson weights on z."""
    z = np.asarray(z, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    if z.ndim != 1 or psi.shape != z.shape:
        raise DomainError("psi must be sampled on the 1d grid z")
    chi_w = psi * simpson_weights(z.shape[0], float(z[1] - z[0]))
    # the real and imaginary parts ride through as two real rows
    F, G = _chirp_sums(np.stack([chi_w.real, chi_w.imag]), z,
                       np.full(2, z.shape[0], dtype=np.int64), tau,
                       detector_z, g)
    return F[:, 0] + 1j * F[:, 1], G[:, 0] + 1j * G[:, 1]


def propagate_profile(z, psi, tau: float, detector_z, g: float = G_DEFAULT):
    """Propagate a sampled profile psi(z) through the fall.

    Returns (psi_det, vterm) at the detector points, where vterm is
    (hbar / i m) d(psi_det)/dZ, the velocity-weighted amplitude whose product
    with conj(psi_det) gives the probability current.
    """
    if tau <= 0.0:
        raise DomainError("propagation time must be positive")
    Z = np.atleast_1d(np.asarray(detector_z, dtype=float))
    SF, SG = _profile_sums(z, psi, tau, Z, g)
    phi = (CONSTANTS.atom_mass * g * tau / CONSTANTS.hbar) * (
        Z + g * tau * tau / 6.0)
    pref = math.sqrt(CONSTANTS.atom_mass
                     / (2.0 * math.pi * CONSTANTS.hbar * tau)) * np.exp(
        -0.25j * math.pi - 1j * phi)
    return pref * SF, pref * SG


def plane_current(z, psi, tau_values, detector_z: float,
                  g: float = G_DEFAULT):
    """Detection rate of a profile at one plane for a batch of fall times."""
    tau = np.asarray(tau_values, dtype=float)
    if np.any(tau <= 0.0):
        raise DomainError("fall times must be positive")
    SF, SG = _profile_sums(z, psi, tau, detector_z, g)
    return -(CONSTANTS.atom_mass / (2.0 * math.pi * CONSTANTS.hbar * tau)) \
        * np.real(np.conj(SF) * SG)


# ---------------------------------------------------------------------------
# grids and windows

#: Half-width of the landing-speed window, in trap velocity spreads.
HORIZONTAL_SIGMAS = 4.0
#: Extra vertical velocity cut beyond the ladder top, in units of v_g.
VERTICAL_PAD_SCALES = 4.0


@dataclass(frozen=True)
class GridSpec:
    """Lattice resolution and Jacobian choice for the estimation map."""

    fringe_samples: float = 5.0       # T samples per fastest mode beat
    t_nodes: int = 56                 # target size of the coarse t axis
    z_samples: float = 12.0           # samples per shortest z wavelength
    n_polar: int = DEFAULT_POLAR_NODES  # Gauss-Legendre nodes in the tilt
    jacobian: str = "tau"             # 'tau' (as printed) or 'T' (flux exact)

    def __post_init__(self):
        if self.jacobian not in ("tau", "T"):
            raise ConfigError("jacobian must be 'tau' or 'T'")
        for name in ("fringe_samples", "t_nodes", "z_samples", "n_polar"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError("%s must be finite" % name)
        if self.fringe_samples < 2.0:
            raise ConfigError("need at least 2 samples per fringe")
        if not self.z_samples >= 2.0:
            raise ConfigError("z_samples: need at least 2 samples per z "
                              "wavelength")
        if self.t_nodes < 8:
            raise ConfigError("need at least 8 release-time nodes")


def fall_windows(basis: GQSBasis, trap: TrapConfig,
                 photodetach: PhotodetachConfig,
                 geometry: DiskGeometry) -> dict:
    """Landing-speed and fall-time windows that carry the transmitted flux."""
    v_hor = photodetach.recoil_velocity * math.sqrt(
        max(0.0, 1.0 - photodetach.polarization[2] ** 2))
    if photodetach.dipolar:
        uc = min(1.0, classical_cutoff_velocity(basis, geometry.release_height)
                 / max(photodetach.recoil_velocity, 1e-30))
        v_lo_center = photodetach.recoil_velocity * math.sqrt(
            max(0.0, 1.0 - uc * uc))
        v_hi_center = photodetach.recoil_velocity
    else:
        v_lo_center = v_hi_center = v_hor
    pad = HORIZONTAL_SIGMAS * trap.velocity_spread
    v_lo = max(v_lo_center - pad, 0.5 * trap.velocity_spread)
    v_hi = v_hi_center + pad
    t_lo = geometry.travel_distance / v_hi
    t_hi = geometry.travel_distance / v_lo
    v_cut = (classical_cutoff_velocity(basis, geometry.release_height)
             + VERTICAL_PAD_SCALES * basis.scales.velocity)
    g = basis.scales.g
    drop = 2.0 * g * (geometry.fall_height + geometry.release_height)
    root = math.sqrt(v_cut * v_cut + drop)
    tau_lo = (root - v_cut) / g
    tau_hi = (root + v_cut) / g
    return {"t_lo": t_lo, "t_hi": t_hi, "tau_lo": tau_lo, "tau_hi": tau_hi,
            "v_lo": v_lo, "v_hi": v_hi, "v_cut": v_cut}


@dataclass(frozen=True)
class GridAxes:
    """The (t, T) lattice: t steps by `stride` multiples of the T step."""

    t: np.ndarray
    T: np.ndarray
    step: float          # delta T
    stride: int          # delta t / delta T
    tau_lo: float
    n_tau: int

    @property
    def tau_values(self) -> np.ndarray:
        return self.tau_lo + self.step * np.arange(self.n_tau)


def grid_axes(basis: GQSBasis, trap: TrapConfig,
              photodetach: PhotodetachConfig, geometry: DiskGeometry,
              spec: GridSpec = GridSpec()) -> GridAxes:
    win = fall_windows(basis, trap, photodetach, geometry)
    fringe = 2.0 * math.pi * basis.scales.time / basis.lam_max
    step = fringe / spec.fringe_samples
    stride = max(1, int(round((win["t_hi"] - win["t_lo"])
                              / ((spec.t_nodes - 1) * step))))
    n_t = int(math.ceil((win["t_hi"] - win["t_lo"]) / (stride * step))) + 1
    n_tau = int(math.ceil((win["tau_hi"] - win["tau_lo"]) / step)) + 1
    t = win["t_lo"] + stride * step * np.arange(n_t)
    n_T = (n_t - 1) * stride + n_tau
    T = win["t_lo"] + win["tau_lo"] + step * np.arange(n_T)
    return GridAxes(t=t, T=T, step=step, stride=stride,
                    tau_lo=win["tau_lo"], n_tau=n_tau)


@dataclass(frozen=True)
class ModeGrid:
    """Dimensionless mode samples shared by every gravity value in a scan."""

    xi: np.ndarray       # z / l
    wxi: np.ndarray      # Simpson weights in xi
    chi: np.ndarray      # (n_max, J) Ai(xi - lambda_n) / Ai'(-lambda_n)
    idx_cut: np.ndarray  # per-mode sample count up to the support cut;
    #                      chi is 0.0 from there on

    def fall_sums(self, scales: GravScales, geometry: DiskGeometry, tau):
        """Mode sums F, G, shape (K, n_max), for the fall times tau (K,)."""
        ell = scales.length
        chi_w = self.chi * (self.wxi * math.sqrt(ell))[None, :]
        return _chirp_sums(chi_w, self.xi * ell, self.idx_cut, tau,
                           -geometry.fall_height, scales.g)


def _build_mode_grid(basis: GQSBasis, geometry: DiskGeometry,
                     tau_window, spec: GridSpec) -> ModeGrid:
    scales = basis.scales
    m = CONSTANTS.atom_mass
    hbar = CONSTANTS.hbar
    z_sup = basis.z_max
    k_mode = math.sqrt(basis.lam_max) / scales.length
    k_chirp = 0.0
    for tau in tau_window:
        zp = -geometry.fall_height + 0.5 * scales.g * tau * tau
        k_chirp = max(k_chirp, m * (abs(zp) + z_sup) / (hbar * tau))
    dz = 2.0 * math.pi / (spec.z_samples * (k_mode + k_chirp))
    count = int(math.ceil(z_sup / dz)) + 1
    if count % 2 == 0:
        count += 1
    xi_sup = z_sup / scales.length
    xi = np.linspace(0.0, xi_sup, count)
    wxi = simpson_weights(count, xi[1] - xi[0])
    idx_cut = np.minimum(
        np.searchsorted(xi, basis.table.support, side="right"),
        count).astype(np.int64)
    chi = _airy_rows(basis.table, xi, idx_cut)
    return ModeGrid(xi=xi, wxi=wxi, chi=chi, idx_cut=idx_cut)


def _node_rates(basis: GQSBasis, coeff: np.ndarray, t, F: np.ndarray,
                G: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Detection rate per recoil node, -(m / 2 pi hbar tau) Re(conj(SF) SG).

    SF = sum_n c~_n F_n with c~ the overlaps `coeff` (n_u, N) evolved over
    the edge time t; the result is (n_u, K) for the K rows of F and G.  One
    scalar t phases the overlaps once; one t per row phases F and G instead,
    so no (K, n_u, N) array of evolved overlaps is formed.
    """
    if np.ndim(t) == 0:
        ctil = evolve_to_end_of_disk(basis, coeff, t)
        SF, SG = ctil @ F.T, ctil @ G.T
    else:
        t = np.asarray(t)[:, None]
        SF = (evolve_to_end_of_disk(basis, F, t) @ coeff.T).T
        SG = (evolve_to_end_of_disk(basis, G, t) @ coeff.T).T
    return -(CONSTANTS.atom_mass / (2.0 * math.pi * CONSTANTS.hbar)) \
        * (1.0 / tau) * np.real(np.conj(SF) * SG)


# ---------------------------------------------------------------------------
# the folded estimation map

def cell_masses(density: np.ndarray, cell_area: float) -> np.ndarray:
    """Bilinear mass of each lattice cell, shape (n_t - 1, n_T - 1)."""
    D = density
    corners = D[:-1, :-1] + D[1:, :-1] + D[:-1, 1:] + D[1:, 1:]
    return 0.25 * corners * cell_area


@dataclass(frozen=True)
class FoldedMap:
    """Azimuth-integrated landing density on the (t, T) lattice.

    `density` is the probability density per (dt dT) of a transmitted atom:
    the radial landing density at rbar = d T / t times the Jacobian d T / t^2.
    `azimuth_model` tells how the detector azimuth is distributed at fixed
    (t, T): 'dipole' uses density ~ 1 + ratio cos 2(phi - pol_angle), the
    deterministic kick uses a von Mises law with per-t `concentration`.
    """

    g: float
    t: np.ndarray
    T: np.ndarray
    density: np.ndarray
    azimuth_model: str
    pol_angle: float
    azimuth_ratio: np.ndarray | None
    concentration: np.ndarray | None
    jacobian: str
    metadata: dict = field(compare=False)

    @property
    def cell_area(self) -> float:
        return (self.t[1] - self.t[0]) * (self.T[1] - self.T[0])

    def total_weight(self) -> float:
        return float(self.density.sum() * self.cell_area)

    @cached_property
    def normalizer(self) -> float:
        """Total bilinear mass Z of the lattice window, computed once."""
        return cell_masses(self.density, self.cell_area).sum()

    @cached_property
    def cell_cdf(self) -> np.ndarray:
        """Cumulative cell masses over the raveled lattice cells, divided
        by the last one: the sampler's cell CDF, computed once."""
        cdf = np.cumsum(cell_masses(self.density, self.cell_area).ravel())
        cdf /= cdf[-1]
        return cdf


class MapMaker:
    """Builds folded maps for many gravity values on one fixed lattice.

    The lattice, the zero table, and the dimensionless mode samples are
    derived once at the reference gravity; `build(g)` recomputes only the
    SI-dependent pieces (scales, overlaps, chirp tables, Bessel weights).
    """

    def __init__(self, n_max: int, trap: TrapConfig,
                 photodetach: PhotodetachConfig, geometry: DiskGeometry,
                 spec: GridSpec = GridSpec(), g0: float = G_DEFAULT):
        self.nodes = polar_nodes(photodetach, spec.n_polar, folded=True)
        self.trap = trap
        self.photodetach = photodetach
        self.geometry = geometry
        self.spec = spec
        self.g0 = g0
        self.basis0 = build_basis(n_max, g0)
        self.axes = grid_axes(self.basis0, trap, photodetach, geometry, spec)
        tau_vals = self.axes.tau_values
        self.mode_grid = _build_mode_grid(self.basis0, geometry,
                                          (tau_vals[0], tau_vals[-1]), spec)

    def build(self, g: float) -> FoldedMap:
        axes = self.axes
        spec = self.spec
        geom = self.geometry
        pd = self.photodetach
        nodes = self.nodes
        basis = build_basis(self.basis0.n_max, g, table=self.basis0.table)
        m = CONSTANTS.atom_mass

        coeff = overlap_matrix(basis, geom.release_height, self.trap.width,
                               pd.recoil_momentum * nodes.u)
        fraction = float(nodes.w_even @ np.sum(np.abs(coeff) ** 2, axis=1))

        tau = axes.tau_values
        F, G = self.mode_grid.fall_sums(basis.scales, geom, tau)

        n_t, n_T = axes.t.shape[0], axes.T.shape[0]
        M = axes.n_tau
        stride = axes.stride
        dp = self.trap.momentum_spread
        qbar = pd.recoil_momentum * np.sqrt(
            np.maximum(0.0, 1.0 - nodes.u ** 2))
        d = geom.travel_distance

        density = np.zeros((n_t, n_T))
        ratio = np.zeros((n_t, n_T)) if pd.dipolar else None
        concentration = np.zeros(n_t) if not pd.dipolar else None
        neg_mass = 0.0
        pos_mass = 0.0
        for i, ti in enumerate(axes.t):
            rate = _node_rates(basis, coeff, ti, F, G, tau)   # (n_u, M)
            pbar = m * d / ti
            kappa = pbar * qbar / (dp * dp)
            gauss = np.exp(-(pbar - qbar) ** 2 / (2.0 * dp * dp))
            block = slice(i * stride, i * stride + M)
            A = (nodes.w_even * gauss * sps.ive(0, kappa)) @ rate
            if pd.dipolar:
                C = (nodes.w_cos2 * gauss * sps.ive(2, kappa)) @ rate
                with np.errstate(invalid="ignore", divide="ignore"):
                    ratio[i, block] = np.clip(np.where(
                        A > 0.0, C / np.maximum(A, 1e-300), 0.0), 0.0, 1.0)
            else:
                concentration[i] = kappa[0]
            Tj = axes.T[block]
            w_time = tau if spec.jacobian == "tau" else Tj
            P = (d * d * Tj * Tj / ti ** 3) * (m * m / w_time ** 2) \
                / (dp * dp) * A
            neg_mass += -P[P < 0.0].sum()
            pos_mass += P[P > 0.0].sum()
            density[i, block] = np.maximum(P, 0.0)

        meta = {"fraction": fraction,
                "clipped_mass": float(neg_mass / max(pos_mass, 1e-300)),
                "n_z": int(self.mode_grid.xi.shape[0]), "n_tau": int(M),
                "tau_lo": float(tau[0]), "tau_hi": float(tau[-1]),
                "g0": self.g0, "n_max": basis.n_max}
        return FoldedMap(g=g, t=axes.t.copy(), T=axes.T.copy(),
                         density=density, azimuth_model=(
                             "dipole" if pd.dipolar else "vonmises"),
                         pol_angle=nodes.pol_angle, azimuth_ratio=ratio,
                         concentration=concentration,
                         jacobian=spec.jacobian, metadata=meta)


# ---------------------------------------------------------------------------
# unfolded detector cut and the brute-force spot value

@dataclass(frozen=True)
class DetectorMap:
    """Unfolded event-rate density on a (Y, T) cut at X = 0."""

    g: float
    y: np.ndarray
    T: np.ndarray
    density: np.ndarray
    jacobian: str
    metadata: dict = field(compare=False)


def current_map_yt(basis: GQSBasis, trap: TrapConfig,
                   photodetach: PhotodetachConfig, geometry: DiskGeometry,
                   y_values, T_values,
                   spec: GridSpec = GridSpec()) -> DetectorMap:
    """Density per unit detector area and time along the Y axis (X = 0)."""
    y = np.asarray(y_values, dtype=float)
    T = np.asarray(T_values, dtype=float)
    tmat = time_above_mirror(geometry, y[:, None], T[None, :])
    taumat = T[None, :] - tmat
    if np.any(taumat <= 0.0):
        raise DomainError("every (y, T) cell must leave time for the fall")
    nodes = polar_nodes(photodetach, spec.n_polar, folded=True)
    m = CONSTANTS.atom_mass
    coeff = overlap_matrix(basis, geometry.release_height, trap.width,
                           photodetach.recoil_momentum * nodes.u)

    grid = _build_mode_grid(basis, geometry,
                            (float(taumat.min()), float(taumat.max())), spec)
    tau = taumat.ravel()
    t = tmat.ravel()
    F, G = grid.fall_sums(basis.scales, geometry, tau)
    rate = _node_rates(basis, coeff, t, F, G, tau).T  # (K, n_u)

    dp = trap.momentum_spread
    qbar = photodetach.recoil_momentum * np.sqrt(
        np.maximum(0.0, 1.0 - nodes.u ** 2))
    pbar = m * geometry.travel_distance / t
    kap = np.outer(pbar, qbar) / (dp * dp)
    gauss = np.exp(-(pbar[:, None] - qbar[None, :]) ** 2 / (2.0 * dp * dp))
    # at X = 0 the detector azimuth is +-pi/2
    if photodetach.dipolar:
        # only harmonics 0 and 2 of the kick azimuth survive the dipole
        # marginal, so the ring fold closes exactly
        cos2phi = math.cos(2.0 * (0.5 * math.pi - nodes.pol_angle))
        wmix = (nodes.w_even * sps.ive(0, kap)
                + cos2phi * nodes.w_cos2 * sps.ive(2, kap))
    else:
        # single kick direction: evaluate the Gaussian ridge at the
        # detector azimuth directly
        wmix = np.exp(kap * (math.cos(0.5 * math.pi - nodes.pol_angle) - 1.0))
    w_time = tau if spec.jacobian == "tau" \
        else np.broadcast_to(T[None, :], tmat.shape).ravel()
    density = ((gauss * wmix * rate).sum(axis=1)
               * (m * m / w_time ** 2) / (2.0 * math.pi * dp * dp)
               ).reshape(tmat.shape)
    neg = -density[density < 0.0].sum()
    pos = density[density > 0.0].sum()
    meta = {"clipped_mass": float(neg / max(pos, 1e-300)),
            "n_z": int(grid.xi.shape[0])}
    return DetectorMap(g=basis.scales.g, y=y.copy(), T=T.copy(),
                       density=np.maximum(density, 0.0),
                       jacobian=spec.jacobian, metadata=meta)


def annihilation_current(basis: GQSBasis, trap: TrapConfig,
                         photodetach: PhotodetachConfig,
                         geometry: DiskGeometry, x: float, y: float,
                         T: float, spec: GridSpec = GridSpec(),
                         n_azimuth: int = DEFAULT_AZIMUTH_NODES) -> float:
    """Brute-force event-rate density at one detector point.

    Sums explicit kick directions with plain two-dimensional Gaussians, with
    no azimuth folding, no shared lattice and no clipping: the independent
    cross-check for the assembled maps.
    """
    t = time_above_mirror(geometry, math.hypot(x, y), T)
    tau = np.asarray([T - t])
    m = CONSTANTS.atom_mass
    u = polar_nodes(photodetach, spec.n_polar).u
    quad = recoil_quadrature(photodetach, spec.n_polar, n_azimuth)
    coeff = overlap_matrix(basis, geometry.release_height, trap.width,
                           photodetach.recoil_momentum * u)
    grid = _build_mode_grid(basis, geometry, (tau[0], tau[0]), spec)
    F, G = grid.fall_sums(basis.scales, geometry, tau)
    rate_u = _node_rates(basis, coeff, t, F, G, tau)[:, 0]

    dp = trap.momentum_spread
    pvec = m * np.asarray([x, y]) / T
    q_hor = photodetach.recoil_momentum * quad.directions[:, :2]
    d2 = ((pvec - q_hor) ** 2).sum(axis=1)
    gauss = np.exp(-d2 / (2.0 * dp * dp)) / (2.0 * math.pi * dp * dp)
    # the quadrature runs through the azimuths of one polar node at a time
    w_u = (quad.weights * gauss).reshape(u.shape[0], -1).sum(axis=1)
    total = float(w_u @ rate_u)
    w_time = tau[0] if spec.jacobian == "tau" else T
    return total * (m * m / (w_time * w_time))
