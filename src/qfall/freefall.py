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
chirp sums are computed once per tau value (the folded map writes lattice
tau k of edge time i to cell (i, i stride + k) by index).  The folded map
forms the sums a slab of `_SLAB_ROWS` lattice times at a time, the cut and
the spot value `_RATE_ROWS` cells at a time, and each block is contracted
before the next is formed, so F and G are never held for the whole lattice.

The cut's cells each have their own fall time, and `_cell_rates` forms
one kernel row per cell.  With the propagator phase Phi and the energy
phases removed, A_n = F_n e^{-i Phi} e^{i lambda_n tau / t_g} is smooth in
tau, so where that takes fewer kernel rows (the 6400 cells of the
`detector_cut` window, 2165 rows at 300 modes) the cut reads its cells
from A on a lattice of fall times, five rows per fastest beat, by centred
24-point Lagrange stencils, within 1e-8 of the map maximum; one
`_stencil_plan` serves to choose the path and to read the lattice.

The detector-plane observables come in three forms: `MapMaker.build` (the
azimuth-integrated (t, T) density used for estimation, with the kick azimuth
reduced to exponentially scaled Bessel weights), `current_map_yt` (the
unfolded density on a (Y, T) cut through the detector plane), and
`annihilation_current` (a brute-force spot value summing explicit kick
directions, kept as an independent cross-check of the folded assembly).
All three take their recoil nodes from `source.polar_nodes` and their mode
sums from `ModeGrid.fall_sums`.  On the cut and the spot every cell has its
own edge time, so `_phased_rates` applies each cell's mode phases to its
F and G, or to its A read from the lattice; on the folded map an edge
time holds for every row, so `_edge_rates` phases the overlaps of a block
of edge times and multiplies them with F and G in one product.
The folded map and the cut share their landing weights (`_ring_weights`;
the cut is the folded azimuth law at the detector azimuth) and one
`_clip`.  The spot value keeps explicit Gaussians, with kick directions and
dipole weights from `source.recoil_quadrature`.
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
from .kernels import (_CHUNK_ROWS, _TWO_PI, lagrange_weights, mode_chirp_sums,
                      simpson_weights)
from .mirror import DiskGeometry, mode_phases, time_above_mirror
from .physcore import CONSTANTS, G_DEFAULT, GravScales
from .source import (DEFAULT_AZIMUTH_NODES, DEFAULT_POLAR_NODES,
                     PhotodetachConfig, PolarNodes, TrapConfig, polar_nodes,
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


def _fall_lattice(tau, detector_z, g: float):
    """(alpha, zprime, invtau, gtau) of `mode_chirp_sums` for fall times tau
    to heights detector_z, broadcast to one lattice; the free kernel is
    taken at the shifted endpoint Z' = Z + g tau^2 / 2."""
    tau, Z = np.broadcast_arrays(np.asarray(tau, dtype=float),
                                 np.asarray(detector_z, dtype=float))
    alpha = CONSTANTS.atom_mass / (2.0 * CONSTANTS.hbar * tau)
    return alpha, Z + 0.5 * g * tau * tau, 1.0 / tau, g * tau


def _profile_sums(z, psi, tau, detector_z, g: float):
    """Chirp sums (SF, SG) of one sampled complex profile psi(z), with
    Simpson weights on z."""
    z = np.asarray(z, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    if z.ndim != 1 or psi.shape != z.shape:
        raise DomainError("psi must be sampled on the 1d grid z")
    chi_w = psi * simpson_weights(z.shape[0], float(z[1] - z[0]))
    # the real and imaginary parts ride through as two real rows
    F, G = mode_chirp_sums(np.stack([chi_w.real, chi_w.imag]), z,
                           np.full(2, z.shape[0], dtype=np.int64),
                           *_fall_lattice(tau, detector_z, g))
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
    """Lattice resolution of the estimation map and its recoil nodes."""

    fringe_samples: float = 5.0       # T samples per fastest mode beat
    t_nodes: int = 56                 # target size of the coarse t axis
    z_samples: float = 12.0           # Simpson samples per shortest z
    #                                   wavelength (see `ModeGrid`)
    n_polar: int = DEFAULT_POLAR_NODES  # Gauss-Legendre nodes in the tilt

    def __post_init__(self):
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
        if self.n_polar < 2:
            raise ConfigError("n_polar: need at least 2 polar nodes")


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


#: samples per shortest z wavelength of the grid the chirp kernel sums
_KERNEL_Z_SAMPLES = 2.5
#: Euler-Maclaurin end terms at the mirror, from Taylor orders below 2 x 16;
#: against Simpson at `z_samples` 4 and 50 modes, 12 terms leave 3.4e-11 of
#: max |F| and 16 leave 3.7e-12
_END_TERMS = 16


@dataclass(frozen=True)
class ModeGrid:
    """Dimensionless mode samples shared by every gravity value in a scan.

    The sums take the value of composite Simpson's rule on the odd-count
    grid of `GridSpec.z_samples` samples per shortest wavelength, step h_s,
    but sum `_KERNEL_Z_SAMPLES` per wavelength, step h.  The modes vanish
    before the far end, so on that grid the trapezoid rule differs from
    Simpson's only by end terms at the mirror z = 0 and by aliasing (the
    sums lie within 4e-12 of max |F| of Simpson's at 50 to 1000 modes):

        S(h_s) = h sum_j f_j + sum_k h B_2k / (2k) [1 + r^2k (4^k - 4) / 3]
                 f_(2k-1) h^(2k-1),   r = h_s / h,

    f_m the m-th Taylor coefficient of the integrand at 0.  The bracket's
    first term is the trapezoid rule's own end correction, the second
    Simpson's, S(h_s) = (4 T(h_s) - T(2 h_s)) / 3.  The integrand's
    coefficients are products of those of the mode (`taylor`, exact from
    the Airy equation) and of the chirp, formed per fall time.
    """

    xi: np.ndarray       # z / l, step h
    chi: np.ndarray      # (n_max, J) Ai(xi - lambda_n) / Ai'(-lambda_n)
    #                      times h, set at build
    idx_cut: np.ndarray  # per-mode sample count up to the support cut;
    #                      chi is 0.0 from there on
    taylor: np.ndarray   # (2, P, n_max) coefficient p of chi_n and of
    #                      xi chi_n at xi = 0, times h^p
    end_weights: np.ndarray  # (P,) weight of the integrand's scaled
    #                          coefficient m in the end terms

    def fall_sums(self, scales: GravScales, geometry: DiskGeometry, tau):
        """Mode sums F, G, shape (K, n_max), for the fall times tau (K,)."""
        ell = scales.length
        alpha, zp, invtau, gtau = _fall_lattice(tau, -geometry.fall_height,
                                                scales.g)
        F, G = mode_chirp_sums(self.chi, self.xi * ell, self.idx_cut, alpha,
                               zp, invtau, gtau)
        # coefficients q_m h^m of exp(b xi + c xi^2), the chirp over its
        # value exp(i alpha z'^2) at xi = 0: b = -2i alpha z' l, c = i
        # alpha l^2, and (m + 1) q_(m+1) = b q_m + 2 c q_(m-1)
        P, h = self.end_weights.shape[0], self.xi[1]
        bh = -2j * alpha * zp * (ell * h)
        ch2 = 2j * alpha * (ell * h) ** 2
        q = np.empty((alpha.shape[0], P), dtype=np.complex128)
        q[:, 0], q[:, 1] = 1.0, bh
        for m in range(1, P - 1):
            q[:, m + 1] = (bh * q[:, m] + ch2 * q[:, m - 1]) / (m + 1)
        # weight of the mode's coefficient p: sum_m w_m q_(m-p)
        hankel = np.append(self.end_weights, np.zeros(P))[
            np.add.outer(np.arange(P), np.arange(P))]
        end = q @ hankel
        # exp(i alpha z'^2) is the kernel's anchor phase at z = 0, reduced
        # the same way
        phase = np.mod(alpha.astype(np.longdouble)
                       * zp.astype(np.longdouble) ** 2, _TWO_PI)
        end *= np.exp(1j * phase.astype(np.float64))[:, None]
        F += end @ self.taylor[0]
        # G = v0 F - H / tau of the kernel, H summing z = l xi
        G += np.concatenate([(zp * invtau - gtau)[:, None] * end,
                             -(ell * invtau)[:, None] * end], axis=1) \
            @ self.taylor.reshape(2 * P, -1)
        F *= math.sqrt(ell)  # the modes' sqrt(l), one scalar per g
        G *= math.sqrt(ell)
        return F, G


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
    xi_sup = z_sup / scales.length

    def intervals(samples):
        return int(math.ceil(
            z_sup / (2.0 * math.pi / (samples * (k_mode + k_chirp)))))
    # Simpson's step: an even number of intervals
    h_s = xi_sup / (2 * -(-intervals(spec.z_samples) // 2))
    count = intervals(_KERNEL_Z_SAMPLES) + 1
    xi = np.linspace(0.0, xi_sup, count)
    h = xi[1] - xi[0]
    idx_cut = np.minimum(
        np.searchsorted(xi, basis.table.support, side="right"),
        count).astype(np.int64)
    chi = _airy_rows(basis.table, [0.0], h, idx_cut, count)[0]
    chi *= h
    # Ai(-lam) = 0, and y'' = (xi - lam) y gives (p + 2)(p + 1) a_(p+2) =
    # -lam h^2 a_p + h^3 a_(p-1) for a_p = y_p h^p / Ai'(-lam)
    lam, P = basis.table.values, 2 * _END_TERMS
    taylor = np.zeros((2, P, lam.shape[0]))
    a = taylor[0]
    a[1] = h
    for p in range(P - 2):
        a[p + 2] = -lam * h * h * a[p]
        if p:
            a[p + 2] += h ** 3 * a[p - 1]
        a[p + 2] /= (p + 2) * (p + 1)
    taylor[1, 1:] = h * a[:-1]
    k = np.arange(1, _END_TERMS + 1)
    end_weights = np.zeros(P)
    end_weights[1::2] = h * sps.bernoulli(P)[2 * k] / (2 * k) * (
        1.0 + (h_s / h) ** (2 * k) * (4.0 ** k - 4.0) / 3.0)
    return ModeGrid(xi=xi, chi=chi, idx_cut=idx_cut, taylor=taylor,
                    end_weights=end_weights)


#: cells per block of the per-cell sums and of the cut's interpolation,
#: and rows of evolved overlaps per edge-time block of the folded map
_RATE_ROWS = 128
#: lattice times whose mode sums the folded map forms and contracts at a
#: time; a multiple of the kernel's chunk, so that every chunk sees the
#: rows it would see on the whole lattice
_SLAB_ROWS = 512
#: rows of the cut's fall-time lattice per fastest beat in its window
_LATTICE_SAMPLES = 5.0
#: nodes of the centred Lagrange stencil that reads a cut cell from the
#: lattice; on the 300-mode `detector_cut` window 16 and 20 nodes leave
#: 4.9e-8 and 4.4e-9 of the map maximum, 24 nodes 4.0e-10
_STENCIL = 24
#: barycentric weights (-1)^j C(S - 1, j) of S equispaced nodes
_BARY = np.array([(-1) ** j * math.comb(_STENCIL - 1, j)
                  for j in range(_STENCIL)], dtype=float)


def _phased_rates(basis: GQSBasis, coeff: np.ndarray, F: np.ndarray,
                  G: np.ndarray, t, tau) -> np.ndarray:
    """Detection rate per recoil node, -(m / 2 pi hbar tau) Re(conj(SF)
    SG), (K, n_u), of K cells' sums F, G (K, N), phased in place: SF = sum_n
    c~_n F_n, c~ the overlaps `coeff` (n_u, N) evolved over each cell's t."""
    phases = mode_phases(basis, t[:, None])
    np.multiply(F, phases, out=F)
    np.multiply(phases, G, out=G)
    return _product_rate(F @ coeff.T, G @ coeff.T, tau[:, None])


def _cell_rates(basis: GQSBasis, coeff: np.ndarray, grid: ModeGrid,
                geometry: DiskGeometry, t, tau) -> np.ndarray:
    """`_phased_rates` of K cells each with its own edge time t and fall
    time tau, one kernel row per cell.  F and G are formed `_RATE_ROWS`
    cells at a time, so no (K, N) array is held."""
    rates = np.empty((t.shape[0], coeff.shape[0]))
    for k0 in range(0, t.shape[0], _RATE_ROWS):
        sl = slice(k0, k0 + _RATE_ROWS)
        F, G = grid.fall_sums(basis.scales, geometry, tau[sl])
        rates[sl] = _phased_rates(basis, coeff, F, G, t[sl], tau[sl])
        # freed before the next block's sums are formed
        del F, G
    return rates


def _stencil_plan(basis: GQSBasis, geometry: DiskGeometry, tau):
    """(step, order, l0, pos, rows) of the lattice that reads the fall times
    tau.  The step gives `_LATTICE_SAMPLES` rows per beat of the faster of
    the top mode and the classical arrival energy m v^2 / 2 over tau, v =
    (g tau^2 / 2 - H) / tau being the release speed of the path that lands
    at tau.  `order` sorts tau; sorted fall time k lies between the centre
    nodes of its stencil, which starts at row l0[k] (at l0[k] * step), at
    position pos[k] of `rows`, the distinct stencil rows in ascending order.
    """
    S, sc = _STENCIL, basis.scales
    v = (0.5 * sc.g * tau * tau - geometry.fall_height) / tau
    lam_win = float(np.max(v * v)) / (2.0 * sc.g * sc.length)
    step = 2.0 * math.pi * sc.time / (
        _LATTICE_SAMPLES * max(basis.lam_max, lam_win))
    order = np.argsort(tau, kind="stable")
    l0 = np.floor(tau[order] / step).astype(np.int64) - (S // 2 - 1)
    # cell k adds the last new[k] rows of its stencil
    new = np.minimum(np.diff(l0, prepend=l0[0] - S), S)
    pos = np.cumsum(new) - S
    rows = np.repeat(l0 - pos, new) + np.arange(pos[-1] + S)
    return step, order, l0, pos, rows


def _demodulated_sums(basis: GQSBasis, grid: ModeGrid,
                      geometry: DiskGeometry, tau: np.ndarray) -> np.ndarray:
    """A_n = F_n e^{-i Phi} e^{+i lambda_n tau / t_g} and the same of G, as
    (K, 2, N), at lattice fall times tau: with the propagator and energy
    phases removed, the sums are smooth in tau."""
    m, hbar, g = CONSTANTS.atom_mass, CONSTANTS.hbar, basis.scales.g
    # Phi reaches 1e7 rad: a float64 rounding there would differ from node
    # to node, so it is formed and reduced mod 2 pi in extended precision
    tl = tau.astype(np.longdouble)
    phi = np.mod((m * g / hbar) * tl * (g * tl * tl / 6.0
                                        - geometry.fall_height), _TWO_PI)
    F, G = grid.fall_sums(basis.scales, geometry, tau)
    demod = np.conj(mode_phases(basis, tau[:, None]))
    demod *= np.exp(-1j * phi.astype(np.float64))[:, None]
    F *= demod
    G *= demod
    return np.stack([F, G], axis=1)


def _lattice_cell_rates(basis: GQSBasis, coeff: np.ndarray, grid: ModeGrid,
                        geometry: DiskGeometry, t, tau, plan):
    """`_cell_rates` read from the lattice of fall times that `plan`, the
    `_stencil_plan` of tau, lays out; its rows all lie after tau = 0.

    The cells are walked in order of tau.  Each lattice row in some cell's
    stencil is formed once, in calls of `_CHUNK_ROWS` rows, and demodulated
    (`_demodulated_sums`) into a window that keeps only the rows later
    cells read.  A block of at most `_RATE_ROWS` cells whose stencils start
    inside the first one's is interpolated by one real product of its
    weights with the window.  Since SF = e^{i Phi} sum_n c_n e^{-i lambda_n
    (t + tau) / t_g} A_n and e^{i Phi} cancels in Re(conj(SF) SG), the
    interpolated sums are phased at t + tau.
    """
    K, N, S = tau.shape[0], coeff.shape[1], _STENCIL
    step, order, l0, pos, rows = plan
    tau_s, t_s, n_rows = tau[order], t[order], rows.shape[0]

    # A of positions base .. done - 1, F and G as real and imaginary parts
    window = np.empty((0, 4 * N))
    base = done = 0
    rates = np.empty((K, coeff.shape[0]))
    k0 = 0
    while k0 < K:
        k1 = min(k0 + _RATE_ROWS, int(np.searchsorted(pos, pos[k0] + S)))
        p0, p1 = int(pos[k0]), int(pos[k1 - 1]) + S
        while done < p1:
            # only the rows from p0 on are held while the kernel runs
            keep = window[p0 - base:].copy()
            del window
            b = min(done + _CHUNK_ROWS, n_rows)
            fresh = _demodulated_sums(basis, grid, geometry,
                                      rows[done:b] * step)
            window = np.concatenate([keep, fresh.view(np.float64).reshape(
                b - done, 4 * N)])
            del keep, fresh
            base, done = p0, b
        blk = slice(k0, k1)
        nodes = (l0[blk, None] + np.arange(S)) * step
        wb = np.zeros((k1 - k0, p1 - p0))
        wb[np.arange(k1 - k0)[:, None], (pos[blk] - p0)[:, None]
           + np.arange(S)] = lagrange_weights(tau_s[blk], nodes, _BARY)
        A = (wb @ window[p0 - base:p1 - base]).view(np.complex128).reshape(
            k1 - k0, 2, N)
        rates[order[blk]] = _phased_rates(basis, coeff, A[:, 0], A[:, 1],
                                          t_s[blk] + tau_s[blk], tau_s[blk])
        # freed before the next kernel call
        del wb, A
        k0 = k1
    return rates


def _edge_rates(basis: GQSBasis, coeff: np.ndarray, t: np.ndarray,
                F: np.ndarray, G: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Detection rate per recoil node, (E, n_u, K), of the K fall times of
    F and G at E edge times t shared by every row: the E evolved overlap
    sets are stacked into one product with F and one with G."""
    ctil = coeff * mode_phases(basis, t[:, None, None])
    ctil = ctil.reshape(-1, coeff.shape[1])
    rates = _product_rate(ctil @ F.T, ctil @ G.T, tau)
    return rates.reshape(t.shape[0], coeff.shape[0], -1)


def _product_rate(SF: np.ndarray, SG: np.ndarray, tau) -> np.ndarray:
    """-(m / 2 pi hbar tau) Re(conj(SF) SG), formed in SF's memory: the
    result is a view of SF, and no array of SF's size is allocated."""
    rate = SF.real
    rate *= SG.real
    np.multiply(SF.imag, SG.imag, out=SF.imag)
    rate += SF.imag
    rate *= -(CONSTANTS.atom_mass / (2.0 * math.pi * CONSTANTS.hbar)) \
        * (1.0 / tau)
    return rate


def _ring_weights(nodes: PolarNodes, trap: TrapConfig,
                  photodetach: PhotodetachConfig, geometry: DiskGeometry, t):
    """(w_A, w_C, kappa) at edge times t (K,), each (K, n_u): the trap
    Gaussian `gauss` of pbar = m d / t about qbar = q sqrt(1 - u^2), folded
    to w_A = w_even gauss ive(0, kappa), w_C = w_cos2 gauss ive(2, kappa)."""
    dp = trap.momentum_spread
    qbar = photodetach.recoil_momentum * np.sqrt(
        np.maximum(0.0, 1.0 - nodes.u ** 2))
    pbar = CONSTANTS.atom_mass * geometry.travel_distance / t
    kappa = np.outer(pbar, qbar) / (dp * dp)
    gauss = np.exp(-(pbar[:, None] - qbar) ** 2 / (2.0 * dp * dp))
    return (nodes.w_even * gauss * sps.ive(0, kappa),
            nodes.w_cos2 * gauss * sps.ive(2, kappa), kappa)


def _clip(density: np.ndarray) -> float:
    """Zero the negative cells of `density` in place and return their
    mass relative to the mass kept."""
    neg = density[density < 0.0].sum()
    pos = density[density > 0.0].sum()
    np.maximum(density, 0.0, out=density)
    return float(abs(neg) / max(pos, 1e-300))


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
    The landing momentum enters with the weight m^2 / tau^2 of the printed
    formula; the flux-exact weight m^2 / T^2 gives this density times
    (tau / T)^2, cell by cell.
    At fixed (t, T) the detector azimuth follows the dipole law
    1 + azimuth_ratio cos 2(phi - pol_angle) or, when `concentration` is
    set, the deterministic kick's von Mises law with that per-t value.
    """

    g: float
    t: np.ndarray
    T: np.ndarray
    density: np.ndarray
    pol_angle: float
    azimuth_ratio: np.ndarray | None
    concentration: np.ndarray | None
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
        self.g0 = g0
        self.basis0 = build_basis(n_max, g0)
        self.axes = grid_axes(self.basis0, trap, photodetach, geometry, spec)
        tau_vals = self.axes.tau_values
        self.mode_grid = _build_mode_grid(self.basis0, geometry,
                                          (tau_vals[0], tau_vals[-1]), spec)

    def build(self, g: float) -> FoldedMap:
        axes = self.axes
        geom = self.geometry
        pd = self.photodetach
        nodes = self.nodes
        basis = build_basis(self.basis0.n_max, g, table=self.basis0.table)
        m = CONSTANTS.atom_mass

        coeff = overlap_matrix(basis, geom.release_height, self.trap.width,
                               pd.recoil_momentum * nodes.u)
        fraction = float(nodes.w_even @ np.sum(np.abs(coeff) ** 2, axis=1))

        tau = axes.tau_values
        t = axes.t
        M = axes.n_tau
        dp = self.trap.momentum_spread
        d = geom.travel_distance
        w_A, w_C, kappa = _ring_weights(nodes, self.trap, pd, geom, t)

        density = np.zeros((t.shape[0], axes.T.shape[0]))
        if pd.dipolar:
            ratio = np.zeros(density.shape)
            concentration = None
        else:
            ratio = None
            concentration = kappa[:, 0].copy()
        # edge times per block: at most _RATE_ROWS evolved overlap rows
        step = max(1, _RATE_ROWS // nodes.u.shape[0])
        for k0 in range(0, M, _SLAB_ROWS):
            ks = np.arange(k0, min(k0 + _SLAB_ROWS, M))
            F, G = self.mode_grid.fall_sums(basis.scales, geom, tau[ks])
            for i0 in range(0, t.shape[0], step):
                rows = slice(i0, i0 + step)
                # lattice tau k of edge time i lies in cell (i, i stride + k)
                r = np.arange(t.shape[0])[rows, None]
                cells = (r, r * axes.stride + ks)
                rate = _edge_rates(basis, coeff, t[rows], F, G, tau[ks])
                A = np.matmul(w_A[rows, None, :], rate)[:, 0]  # (rows, ks)
                if pd.dipolar:
                    C = np.matmul(w_C[rows, None, :], rate)[:, 0]
                    with np.errstate(invalid="ignore", divide="ignore"):
                        ratio[cells] = np.clip(np.where(
                            A > 0.0, C / np.maximum(A, 1e-300), 0.0),
                            0.0, 1.0)
                Tj = axes.T[cells[1]]
                density[cells] = (d * d * Tj * Tj / t[rows, None] ** 3) \
                    * (m * m / tau[ks] ** 2) / (dp * dp) * A
            # freed before the next slab's sums are formed
            del F, G

        meta = {"fraction": fraction, "clipped_mass": _clip(density),
                "n_z": int(self.mode_grid.xi.shape[0]), "n_tau": int(M),
                "tau_lo": float(tau[0]), "tau_hi": float(tau[-1]),
                "g0": self.g0, "n_max": basis.n_max}
        return FoldedMap(g=g, t=axes.t.copy(), T=axes.T.copy(),
                         density=density, pol_angle=nodes.pol_angle,
                         azimuth_ratio=ratio,
                         concentration=concentration, metadata=meta)


# ---------------------------------------------------------------------------
# unfolded detector cut and the brute-force spot value

@dataclass(frozen=True)
class DetectorMap:
    """Unfolded event-rate density on a (Y, T) cut at X = 0, with the
    time weight of `FoldedMap`."""

    density: np.ndarray
    metadata: dict = field(compare=False)


def current_map_yt(basis: GQSBasis, trap: TrapConfig,
                   photodetach: PhotodetachConfig, geometry: DiskGeometry,
                   y_values, T_values,
                   spec: GridSpec = GridSpec()) -> DetectorMap:
    """Density per unit detector area and time along the Y axis (X = 0)."""
    y = np.asarray(y_values, dtype=float)
    T = np.asarray(T_values, dtype=float)
    if y.ndim != 1 or T.ndim != 1 or y.size == 0 or T.size == 0:
        raise DomainError("y_values and T_values must be non-empty 1-d "
                          "axes, got shapes %s and %s" % (y.shape, T.shape))
    tmat = time_above_mirror(geometry, np.abs(y)[:, None], T[None, :])
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
    # a kernel row costs about 4 N J multiply-adds and reading a cell from
    # the lattice under 48 * 4 N: read it where its stencils hold fewer
    # rows than the cut has cells, all after tau = 0
    plan = _stencil_plan(basis, geometry, tau)
    rows = plan[-1]
    if rows.shape[0] < tau.shape[0] and rows[0] > 0:
        rate = _lattice_cell_rates(basis, coeff, grid, geometry, t, tau, plan)
        n_tau, tau_step = rows.shape[0], plan[0]
    else:
        rate = _cell_rates(basis, coeff, grid, geometry, t, tau)
        n_tau, tau_step = tau.shape[0], None

    w_A, w_C, kappa = _ring_weights(nodes, trap, photodetach, geometry, t)
    # at X = 0 the detector azimuth is sign(y) pi/2
    if photodetach.dipolar:
        # the dipole keeps harmonics 0 and 2 of the kick azimuth, so the
        # fold is exact; cos 2 phi is the same at +pi/2 and -pi/2
        cos2phi = math.cos(2.0 * (0.5 * math.pi - nodes.pol_angle))
        weight = w_A + cos2phi * w_C
    else:
        # one kick direction: the folded map's von Mises law at this azimuth
        ridge = np.where(y < 0.0, math.cos(-0.5 * math.pi - nodes.pol_angle),
                         math.cos(0.5 * math.pi - nodes.pol_angle)) - 1.0
        weight = w_A * np.exp(kappa * np.repeat(ridge, T.shape[0])[:, None]) \
            / sps.ive(0, kappa)
    dp = trap.momentum_spread
    density = ((weight * rate).sum(axis=1)
               * (m * m / tau ** 2) / (2.0 * math.pi * dp * dp)
               ).reshape(tmat.shape)
    meta = {"clipped_mass": _clip(density), "n_z": int(grid.xi.shape[0]),
            "n_tau": n_tau, "tau_step": tau_step}
    return DetectorMap(density=density, metadata=meta)


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
    t = np.asarray([time_above_mirror(geometry, math.hypot(x, y), T)])
    tau = T - t
    m = CONSTANTS.atom_mass
    u = polar_nodes(photodetach, spec.n_polar).u
    quad = recoil_quadrature(photodetach, spec.n_polar, n_azimuth)
    coeff = overlap_matrix(basis, geometry.release_height, trap.width,
                           photodetach.recoil_momentum * u)
    grid = _build_mode_grid(basis, geometry, (tau[0], tau[0]), spec)
    rate_u = _cell_rates(basis, coeff, grid, geometry, t, tau)[0]

    dp = trap.momentum_spread
    pvec = m * np.asarray([x, y]) / T
    q_hor = photodetach.recoil_momentum * quad.directions[:, :2]
    d2 = ((pvec - q_hor) ** 2).sum(axis=1)
    gauss = np.exp(-d2 / (2.0 * dp * dp)) / (2.0 * math.pi * dp * dp)
    # the quadrature runs through the azimuths of one polar node at a time
    w_u = (quad.weights * gauss).reshape(u.shape[0], -1).sum(axis=1)
    total = float(w_u @ rate_u)
    return total * (m * m / (tau[0] * tau[0]))
