"""Fall propagator, folded estimation map, and detector-plane densities.

The reduced ladder (n_max = 50) keeps every check under a second of kernel
work while exercising the identical code paths used at full scale.
"""

import math

import numpy as np
import pytest

from qfall.airy import eigenfunction, eigenfunction_matrix, momentum_matrix
from qfall.errors import ConfigError, DomainError
from qfall.freefall import (GridSpec, MapMaker, _build_mode_grid, _node_rates,
                            annihilation_current, current_map_yt,
                            fall_windows, grid_axes, plane_current,
                            propagate_profile, propagator_kernel)
from qfall.gqs import build_basis, overlap_matrix
from qfall.mirror import DiskGeometry
from qfall.physcore import CONSTANTS, G_DEFAULT
from qfall.source import build_photodetach, build_trap, polar_nodes

EV = 1.602176634e-19
GEO = DiskGeometry(release_height=10e-6, travel_distance=0.05,
                   fall_height=0.3)
N_DESK = 50


@pytest.fixture(scope="module")
def trap():
    return build_trap(20e3)


@pytest.fixture(scope="module")
def recoil():
    return build_photodetach(10e-6 * EV)


@pytest.fixture(scope="module")
def basis():
    return build_basis(N_DESK)


@pytest.fixture(scope="module")
def desk_map(trap, recoil):
    return MapMaker(N_DESK, trap, recoil, GEO).build(G_DEFAULT)


class TestPropagator:
    def test_factorization(self):
        # K_g equals the free kernel at the shifted endpoint times exp(-iPhi)
        tau, g = 0.13, 9.81
        z = np.linspace(0.0, 2e-4, 7)
        Z = np.asarray([-0.21, -0.18])
        full = propagator_kernel(Z[:, None], z[None, :], tau, g)
        zprime = Z + 0.5 * g * tau ** 2
        phase = (CONSTANTS.atom_mass * g * tau / CONSTANTS.hbar) * (
            Z + g * tau ** 2 / 6.0)
        free = propagator_kernel(zprime[:, None], z[None, :], tau, 0.0)
        factored = np.exp(-1j * phase)[:, None] * free
        assert np.abs(full - factored).max() < 1e-8 * np.abs(full).max()

    def test_free_gaussian_closed_form(self):
        # quadrature propagation of a kicked Gaussian against the analytic
        # spreading solution carried into the accelerated frame
        m, hbar = CONSTANTS.atom_mass, CONSTANTS.hbar
        zeta, h, p0, tau, g = 5e-6, 3e-5, m * 0.05, 0.02, 9.81
        z = np.linspace(h - 12 * zeta, h + 12 * zeta, 4001)
        psi0 = (2 * math.pi * zeta ** 2) ** -0.25 * np.exp(
            -(z - h) ** 2 / (4 * zeta ** 2) + 1j * p0 * (z - h) / hbar)
        Z = np.linspace(-3e-3, 1.5e-3, 301)
        got, _ = propagate_profile(z, psi0, tau, Z, g)
        spread = 1 + 1j * hbar * tau / (2 * m * zeta ** 2)
        Zp = Z + 0.5 * g * tau ** 2
        free = (2 * math.pi * zeta ** 2) ** -0.25 / np.sqrt(spread) * np.exp(
            -(Zp - h - p0 * tau / m) ** 2 / (4 * zeta ** 2 * spread)
            + 1j * (p0 * (Zp - h) / hbar - p0 ** 2 * tau / (2 * m * hbar)))
        phi = (m * g * tau / hbar) * (Z + g * tau ** 2 / 6)
        want = np.exp(-1j * phi) * free
        err = np.sqrt(np.trapezoid(np.abs(got - want) ** 2, Z)
                      / np.trapezoid(np.abs(want) ** 2, Z))
        assert err < 1e-10

    def test_far_field_is_momentum_density(self):
        # without gravity and after a long flight, |psi(Z)|^2 tau / m equals
        # the momentum density at p = m Z / tau
        b = build_basis(10)
        sc = b.scales
        n = 5
        z = np.linspace(0.0, (b.table.lam(n) + 14) * sc.length, 4001)
        chi = eigenfunction(n, z, b.table, sc).astype(complex)
        tau = 700.0
        v = np.linspace(-6 * sc.velocity, 6 * sc.velocity, 601)
        psi, _ = propagate_profile(z, chi, tau, v * tau, 0.0)
        rho_pos = np.abs(psi) ** 2 * tau / CONSTANTS.atom_mass
        p = CONSTANTS.atom_mass * v
        rho_mom = np.abs(momentum_matrix(b.table, p, sc)[n - 1]) ** 2
        l1 = np.trapezoid(np.abs(rho_pos - rho_mom), p) / np.trapezoid(
            rho_mom, p)
        assert l1 < 0.02

    def test_flux_conservation_single_mode(self):
        # the full norm of a dropped mode crosses the detection plane
        b = build_basis(8)
        sc = b.scales
        z = np.linspace(0.0, (b.table.lam(8) + 12) * sc.length, 3001)
        chi = eigenfunction(3, z, b.table, sc).astype(complex)
        tau0 = math.sqrt(2 * 0.3 / sc.g)
        taus = np.linspace(tau0 - 0.02, tau0 + 0.02, 4001)
        j = plane_current(z, chi, taus, -0.3, sc.g)
        assert np.trapezoid(j, taus) == pytest.approx(1.0, abs=1e-3)

    def test_plane_current_matches_profile_route(self):
        # the batched current and the explicit (psi, vterm) product agree,
        # which also checks that the common phase cancels in the rate
        b = build_basis(8)
        sc = b.scales
        z = np.linspace(0.0, (b.table.lam(8) + 12) * sc.length, 2001)
        chi = (eigenfunction(2, z, b.table, sc)
               + 0.7 * eigenfunction(5, z, b.table, sc)).astype(complex)
        tau = math.sqrt(2 * 0.3 / sc.g)
        j_batch = plane_current(z, chi, [tau], -0.3, sc.g)[0]
        psi, vterm = propagate_profile(z, chi, tau, [-0.3], sc.g)
        j_direct = -np.real(np.conj(psi) * vterm)[0]
        assert j_batch == pytest.approx(j_direct, rel=1e-12)

    def test_invalid_times(self):
        with pytest.raises(DomainError):
            propagator_kernel(0.0, 0.0, -0.1)
        with pytest.raises(DomainError):
            propagate_profile(np.linspace(0.0, 1e-5, 5), np.ones(5), 0.0,
                              [0.0])


class TestWindowsAndAxes:
    def test_windows_bracket_classical_values(self, basis, trap, recoil):
        win = fall_windows(basis, trap, recoil, GEO)
        t_star = GEO.travel_distance / recoil.recoil_velocity
        tau_star = math.sqrt(2 * GEO.fall_height / basis.scales.g)
        assert win["t_lo"] < t_star < win["t_hi"]
        assert win["tau_lo"] < tau_star < win["tau_hi"]

    def test_lattice_structure(self, basis, trap, recoil):
        axes = grid_axes(basis, trap, recoil, GEO)
        dt = np.diff(axes.t)
        dT = np.diff(axes.T)
        assert dT == pytest.approx(axes.step, rel=1e-12)
        assert dt == pytest.approx(axes.stride * axes.step, rel=1e-12)
        # every (t, T) difference lands on the shared tau lattice
        tau = axes.T[17] - axes.t[3]
        m = (tau - axes.tau_lo) / axes.step
        assert m == pytest.approx(round(m), abs=1e-6)

    def test_step_tracks_fastest_beat(self, basis, trap, recoil):
        axes = grid_axes(basis, trap, recoil, GEO)
        fringe = 2 * math.pi * basis.scales.time / basis.lam_max
        assert axes.step == pytest.approx(fringe / 5.0, rel=1e-12)

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(jacobian="both")
        with pytest.raises(ConfigError):
            GridSpec(fringe_samples=1.0)
        # below the Nyquist floor the z grid aliases the chirp
        for bad in (dict(z_samples=0.0), dict(z_samples=0.1),
                    dict(z_samples=1.9), dict(fringe_samples=math.nan),
                    dict(fringe_samples=math.inf), dict(z_samples=math.inf),
                    dict(t_nodes=math.nan), dict(n_polar=math.inf)):
            with pytest.raises(ConfigError):
                GridSpec(**bad)


class TestFoldedMap:
    def test_nonnegative_and_unclipped(self, desk_map):
        assert desk_map.density.min() >= 0.0
        assert desk_map.metadata["clipped_mass"] < 1e-3

    def test_flux_invariant_under_T_jacobian(self, trap, recoil):
        fm = MapMaker(N_DESK, trap, recoil, GEO,
                      GridSpec(jacobian="T")).build(G_DEFAULT)
        assert fm.total_weight() == pytest.approx(fm.metadata["fraction"],
                                                  abs=1e-2)
        assert fm.total_weight() <= fm.metadata["fraction"] + 1e-2

    def test_matches_brute_force(self, basis, trap, recoil, desk_map):
        # azimuth-integrate the brute spot density around the ring and
        # compare against the Bessel-folded lattice cell
        fm = desk_map
        i, j = np.unravel_index(np.argmax(fm.density), fm.density.shape)
        t, T = fm.t[i], fm.T[j]
        rbar = GEO.travel_distance * T / t
        n_det = 72
        phis = 2 * math.pi * (np.arange(n_det) + 0.5) / n_det
        ring = [annihilation_current(basis, trap, recoil, GEO,
                                     rbar * math.cos(p), rbar * math.sin(p),
                                     T, n_azimuth=96) for p in phis]
        brute = (rbar * (2 * math.pi / n_det) * np.sum(ring)
                 * GEO.travel_distance * T / t ** 2)
        assert fm.density[i, j] == pytest.approx(brute, rel=1e-4)

    def test_mode_grid_zeroes_tails(self, basis, trap, recoil):
        # the chirp kernel sums every mode over the whole z grid, so each
        # mode's support cut must be carried by zeros in its chi row; rows
        # are evaluated only up to the cut, bit for bit the full mode matrix
        tau = grid_axes(basis, trap, recoil, GEO).tau_values
        grid = _build_mode_grid(basis, GEO, (tau[0], tau[-1]), GridSpec())
        full = eigenfunction_matrix(basis.table, grid.xi)
        assert grid.idx_cut.min() < grid.xi.shape[0]
        for n, cut in enumerate(grid.idx_cut):
            assert grid.chi[n, :cut].any()
            assert np.array_equal(grid.chi[n, :cut], full[n, :cut])
            assert not grid.chi[n, cut:].any()

    def test_z_refinement_stable(self, trap, recoil, desk_map):
        fine = MapMaker(N_DESK, trap, recoil, GEO,
                        GridSpec(z_samples=24.0)).build(G_DEFAULT)
        diff = np.abs(desk_map.density - fine.density).max()
        assert diff < 1e-3 * desk_map.density.max()

    def test_fringe_refinement_stable(self, trap, recoil, desk_map):
        fine = MapMaker(N_DESK, trap, recoil, GEO,
                        GridSpec(fringe_samples=10.0)).build(G_DEFAULT)
        assert fine.total_weight() == pytest.approx(desk_map.total_weight(),
                                                    rel=1e-3)

    def test_peak_location(self, desk_map, recoil):
        i, j = np.unravel_index(np.argmax(desk_map.density),
                                desk_map.density.shape)
        t, T = desk_map.t[i], desk_map.T[j]
        # peak near the classical landing: t ~ d / v_r, T ~ t + sqrt(2H/g)
        assert GEO.travel_distance / recoil.recoil_velocity == pytest.approx(
            t, abs=0.006)
        assert T == pytest.approx(t + math.sqrt(2 * GEO.fall_height / 9.81),
                                  abs=0.004)

    def test_azimuth_ratio_bounded(self, desk_map):
        assert desk_map.azimuth_model == "dipole"
        assert desk_map.azimuth_ratio.min() >= 0.0
        assert desk_map.azimuth_ratio.max() <= 1.0
        assert desk_map.pol_angle == pytest.approx(0.5 * math.pi)

    def test_same_axes_across_gravity(self, trap, recoil):
        mk = MapMaker(N_DESK, trap, recoil, GEO)
        a = mk.build(9.81)
        b = mk.build(9.81 * (1 + 2e-4))
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.T, b.T)
        # and the density actually moves with g (the signal being estimated)
        l1 = np.abs(a.density - b.density).sum() * a.cell_area
        assert l1 > 1e-3

    def test_deterministic_kick_variant(self, trap):
        kick = build_photodetach(0.0, kick_velocity=0.9)
        fm = MapMaker(N_DESK, trap, kick, GEO,
                      GridSpec(jacobian="T")).build(G_DEFAULT)
        assert fm.azimuth_model == "vonmises"
        assert fm.concentration.min() > 0.0
        assert fm.total_weight() == pytest.approx(fm.metadata["fraction"],
                                                  abs=1e-2)

    def test_tilted_polarization_rejected(self, basis, trap):
        # the folded map and the detector cut share one tilt check, so a
        # barely tilted polarization fails on both paths
        for pol in ((0.0, 1.0, 1.0), (0.0, 1.0, 1e-7)):
            tilted = build_photodetach(10e-6 * EV, polarization=pol)
            with pytest.raises(ConfigError):
                MapMaker(N_DESK, trap, tilted, GEO)
            with pytest.raises(ConfigError):
                current_map_yt(basis, trap, tilted, GEO, [0.3], [0.3])


class TestDetectorCut:
    def test_rate_contraction_orders_agree(self, basis, trap, recoil):
        # one edge time per row must give what one shared edge time gives
        nodes = polar_nodes(recoil)
        coeff = overlap_matrix(basis, GEO.release_height, trap.width,
                               recoil.recoil_momentum * nodes.u)
        tau = np.linspace(0.24, 0.25, 40)
        grid = _build_mode_grid(basis, GEO, (tau[0], tau[-1]), GridSpec())
        F, G = grid.fall_sums(basis.scales, GEO, tau)
        t = 0.049
        shared = _node_rates(basis, coeff, t, F, G, tau)
        per_row = _node_rates(basis, coeff, np.full(tau.shape, t), F, G, tau)
        assert shared.shape == per_row.shape == (nodes.u.shape[0], 40)
        assert np.abs(per_row - shared).max() < 1e-13 * np.abs(shared).max()

    def test_matches_brute_force(self, basis, trap, recoil):
        y = np.linspace(0.27, 0.34, 15)
        T = np.linspace(0.285, 0.305, 21)
        dm = current_map_yt(basis, trap, recoil, GEO, y, T)
        for iy, iT in ((7, 10), (3, 15)):
            brute = annihilation_current(basis, trap, recoil, GEO, 0.0,
                                         y[iy], T[iT], n_azimuth=256)
            assert dm.density[iy, iT] == pytest.approx(brute, rel=1e-4)

    def test_kick_variant_matches_brute(self, basis, trap):
        kick = build_photodetach(0.0, kick_velocity=0.9)
        y = np.linspace(0.25, 0.30, 6)
        T = np.linspace(0.295, 0.310, 7)
        dm = current_map_yt(basis, trap, kick, GEO, y, T)
        for iy, iT in ((3, 3), (1, 5)):
            brute = annihilation_current(basis, trap, kick, GEO, 0.0,
                                         y[iy], T[iT])
            assert dm.density[iy, iT] == pytest.approx(brute, rel=1e-4)

    def test_domain_checks(self, basis, trap, recoil):
        with pytest.raises(DomainError):
            current_map_yt(basis, trap, recoil, GEO, [0.04], [0.3])
        with pytest.raises(DomainError):
            current_map_yt(basis, trap, recoil, GEO, [0.3], [-0.1])
        with pytest.raises(DomainError):
            annihilation_current(basis, trap, recoil, GEO, 0.0, 0.04, 0.3)
