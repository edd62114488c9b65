"""Fall propagator, folded estimation map, and detector-plane densities.

The reduced ladder (n_max = 50) keeps every check under a second of kernel
work while exercising the identical code paths used at full scale.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps

from qfall.airy import (_airy_rows, eigenfunction, eigenfunction_matrix,
                        momentum_matrix)
from qfall.errors import ConfigError, DomainError
import qfall.freefall as freefall
from qfall.freefall import (_BARY, _LIVE_WEIGHT, _RATE_ROWS, _SLAB_ROWS,
                            _STENCIL, GridSpec, MapMaker, _build_mode_grid,
                            _cell_rates, _edge_rates, _lattice_cell_rates,
                            _ring_weights, _stencil_plan,
                            annihilation_current,
                            current_map_yt, fall_windows, grid_axes,
                            plane_current, propagate_profile,
                            propagator_kernel)
from qfall.gqs import build_basis, overlap_matrix
from qfall.kernels import _CHUNK_ROWS, lagrange_weights, simpson_weights
from qfall.mirror import DiskGeometry, mode_phases, time_above_mirror
from qfall.physcore import CONSTANTS, G_DEFAULT
from qfall.source import build_photodetach, build_trap, polar_nodes

EV = 1.602176634e-19
GEO = DiskGeometry(release_height=10e-6, travel_distance=0.05,
                   fall_height=0.3)
N_DESK = 50
#: the (y, T) axes of acceptance criterion 5 and of `detector_cut`
CRITERION_5 = (np.linspace(0.282, 0.322, 80), np.linspace(0.286, 0.306, 80))


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


def _flux_exact_weight(fm):
    """Lattice mass of the map reweighted to the flux-exact time weight
    m^2 / T^2, i.e. times (tau / T)^2 with tau = T - t; it should hold the
    transmitted fraction."""
    tau_over_T = (fm.T[None, :] - fm.t[:, None]) / fm.T[None, :]
    return float((fm.density * tau_over_T ** 2).sum() * fm.cell_area)


def _per_edge_time_assembly(maker, g):
    """Density, azimuth ratio and concentration of `maker.build(g)`, formed
    one edge time at a time with its own pair of overlap products: the
    reference for the blocked assembly."""
    axes, nodes = maker.axes, maker.nodes
    pd, trap = maker.photodetach, maker.trap
    m, hbar = CONSTANTS.atom_mass, CONSTANTS.hbar
    basis = build_basis(maker.basis0.n_max, g, table=maker.basis0.table)
    coeff = overlap_matrix(basis, GEO.release_height, trap.width,
                           pd.recoil_momentum * nodes.u)
    tau = axes.tau_values
    F, G = maker.mode_grid.fall_sums(basis.scales, GEO, tau)
    M = axes.n_tau
    dp = trap.momentum_spread
    qbar = pd.recoil_momentum * np.sqrt(np.maximum(0.0, 1.0 - nodes.u ** 2))
    d = GEO.travel_distance
    density = np.zeros((axes.t.shape[0], axes.T.shape[0]))
    ratio = np.zeros(density.shape)
    concentration = np.zeros(axes.t.shape[0])
    for i, ti in enumerate(axes.t):
        ctil = coeff * mode_phases(basis, ti)
        SF, SG = ctil @ F.T, ctil @ G.T
        rate = -(m / (2.0 * math.pi * hbar)) * (1.0 / tau) \
            * np.real(np.conj(SF) * SG)
        pbar = m * d / ti
        kappa = pbar * qbar / (dp * dp)
        gauss = np.exp(-(pbar - qbar) ** 2 / (2.0 * dp * dp))
        block = slice(i * axes.stride, i * axes.stride + M)
        A = (nodes.w_even * gauss * sps.ive(0, kappa)) @ rate
        C = (nodes.w_cos2 * gauss * sps.ive(2, kappa)) @ rate
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio[i, block] = np.clip(np.where(
                A > 0.0, C / np.maximum(A, 1e-300), 0.0), 0.0, 1.0)
        concentration[i] = kappa[0]
        Tj = axes.T[block]
        P = (d * d * Tj * Tj / ti ** 3) * (m * m / tau ** 2) \
            / (dp * dp) * A
        density[i, block] = np.maximum(P, 0.0)
    return density, ratio, concentration


def _per_ring_weights(nodes, trap, pd, t):
    """w_A, w_C and kappa of `_ring_weights`, (K, n_u), formed one recoil
    node at a time: the reference for its distinct-qbar evaluation."""
    m, dp = CONSTANTS.atom_mass, trap.momentum_spread
    pbar = m * GEO.travel_distance / t
    cols = []
    for u, w_even, w_cos2 in zip(nodes.u, nodes.w_even, nodes.w_cos2):
        qbar = pd.recoil_momentum * np.sqrt(np.maximum(0.0, 1.0 - u ** 2))
        kappa = pbar * qbar / (dp * dp)
        gauss = np.exp(-(pbar - qbar) ** 2 / (2.0 * dp * dp))
        cols.append((w_even * gauss * sps.ive(0, kappa),
                     w_cos2 * gauss * sps.ive(2, kappa), kappa))
    return tuple(np.stack(c, axis=1) for c in zip(*cols))


def _all_ring_assembly(maker, g):
    """Density, azimuth ratio and concentration of `maker.build(g)` with
    every (edge time, recoil node) row formed: the slabs of `_SLAB_ROWS`
    lattice times and blocks of `_RATE_ROWS // n_u` whole edge times, each
    edge time's rows contracted with its own ring weights."""
    axes, nodes = maker.axes, maker.nodes
    pd, trap = maker.photodetach, maker.trap
    m, dp, d = CONSTANTS.atom_mass, trap.momentum_spread, GEO.travel_distance
    basis = build_basis(maker.basis0.n_max, g, table=maker.basis0.table)
    coeff = overlap_matrix(basis, GEO.release_height, trap.width,
                           pd.recoil_momentum * nodes.u)
    t, tau, M = axes.t, axes.tau_values, axes.n_tau
    w_A, w_C, kappa = _per_ring_weights(nodes, trap, pd, t)
    density = np.zeros((t.shape[0], axes.T.shape[0]))
    ratio = np.zeros(density.shape)
    step = max(1, _RATE_ROWS // nodes.u.shape[0])
    for k0 in range(0, M, _SLAB_ROWS):
        ks = np.arange(k0, min(k0 + _SLAB_ROWS, M))
        F, G = maker.mode_grid.fall_sums(basis.scales, GEO, tau[ks])
        for i0 in range(0, t.shape[0], step):
            r = np.arange(i0, min(i0 + step, t.shape[0]))[:, None]
            cells = (r, r * axes.stride + ks)
            ctil = (coeff * mode_phases(basis, t[r][:, :, None])).reshape(
                -1, coeff.shape[1])
            SF, SG = ctil @ F.T, ctil @ G.T
            rate = ((SF.real * SG.real + SF.imag * SG.imag)
                    * (-(m / (2.0 * math.pi * CONSTANTS.hbar))
                       * (1.0 / tau[ks]))).reshape(r.shape[0],
                                                   nodes.u.shape[0], -1)
            A = np.matmul(w_A[r], rate)[:, 0]
            C = np.matmul(w_C[r], rate)[:, 0]
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio[cells] = np.clip(np.where(
                    A > 0.0, C / np.maximum(A, 1e-300), 0.0), 0.0, 1.0)
            Tj = axes.T[cells[1]]
            density[cells] = (d * d * Tj * Tj / t[r] ** 3) \
                * (m * m / tau[ks] ** 2) / (dp * dp) * A
    return np.maximum(density, 0.0), ratio, kappa[:, 0]


def _close(got, want, rel):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


def _per_cell_cut(monkeypatch, *args):
    """`current_map_yt(*args)` with the direct per-cell sums of
    `_cell_rates` in place of the lattice: the oracle of the lattice cut."""
    def direct(basis, coeff, grid, geometry, t, tau, plan):
        return _cell_rates(basis, coeff, grid, geometry, t, tau)

    with monkeypatch.context() as patch:
        patch.setattr(freefall, "_lattice_cell_rates", direct)
        return current_map_yt(*args)


def _cut_times(y, T):
    """The cut's edge and fall times (t, tau), cell by cell, as
    `current_map_yt` forms them."""
    y, T = np.asarray(y, dtype=float), np.asarray(T, dtype=float)
    t = time_above_mirror(GEO, np.abs(y)[:, None], T[None, :])
    return t.ravel(), (T[None, :] - t).ravel()


def _stencil_rows(basis, tau):
    """The plan's lattice rows, checked to be the distinct rows of every
    fall time's stencil."""
    _, _, l0, _, rows = _stencil_plan(basis, GEO, tau)
    assert np.array_equal(rows, np.unique(l0[:, None] + np.arange(_STENCIL)))
    return rows


def _counted_kernel(monkeypatch):
    """List that gets the lattice size K of every chirp-kernel call."""
    calls = []
    kernel = freefall.mode_chirp_sums

    def counted(chi_w, z, idx_cut, alpha, *rest):
        calls.append(alpha.shape[0])
        return kernel(chi_w, z, idx_cut, alpha, *rest)

    monkeypatch.setattr(freefall, "mode_chirp_sums", counted)
    return calls


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
            GridSpec(fringe_samples=1.0)
        for n_polar in (1, 0, -3):
            with pytest.raises(ConfigError, match="n_polar"):
                GridSpec(n_polar=n_polar)
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

    def test_flux_invariant_under_T_jacobian(self, desk_map):
        assert _flux_exact_weight(desk_map) == pytest.approx(
            desk_map.metadata["fraction"], rel=1e-3)

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
        # the chirp kernel skips a mode only on height segments at or past
        # its cut and otherwise sums its row through, so each mode's support
        # cut must be carried by zeros in its chi row; rows are evaluated
        # only up to the cut, where they match the full mode matrix times
        # the trapezoid weight h to 1e-12 of each row's maximum
        tau = grid_axes(basis, trap, recoil, GEO).tau_values
        grid = _build_mode_grid(basis, GEO, (tau[0], tau[-1]), GridSpec())
        full = eigenfunction_matrix(basis.table, grid.xi) * (
            grid.xi[1] - grid.xi[0])
        assert grid.idx_cut.min() < grid.xi.shape[0]
        for n, cut in enumerate(grid.idx_cut):
            assert grid.chi[n, :cut].any()
            err = np.max(np.abs(grid.chi[n, :cut] - full[n, :cut]))
            assert err <= 1e-12 * np.max(np.abs(full[n, :cut]))
            assert not grid.chi[n, cut:].any()

    @pytest.mark.parametrize("z_samples", [2.0, 4.0, 12.0])
    def test_mode_grid_matches_scipy_rows(self, trap, recoil, z_samples):
        # the 300-mode grid's shifted rows against one scipy call per row
        # times the trapezoid weight h, up to each support cut
        basis = build_basis(300)
        tau = grid_axes(basis, trap, recoil, GEO).tau_values
        grid = _build_mode_grid(basis, GEO, (tau[0], tau[-1]),
                                GridSpec(z_samples=z_samples))
        h = grid.xi[1] - grid.xi[0]
        for n, cut in enumerate(grid.idx_cut):
            want = (sps.airy(grid.xi[:cut] - basis.table.values[n])[0]
                    / basis.table.ai_prime[n]) * h
            err = np.max(np.abs(grid.chi[n, :cut] - want))
            assert err <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_max", [N_DESK, 300])
    @pytest.mark.parametrize("z_samples", [4.0, 12.0, 24.0])
    def test_fall_sums_keep_simpson(self, trap, recoil, n_max, z_samples):
        # the trapezoid grid with its end terms at z = 0 gives composite
        # Simpson's value on the odd-count grid that z_samples sizes,
        # Simpson's own h^4 end error included: explicit sums of scipy rows
        # times the Simpson weights, with phases reduced in extended
        # precision, on fall times across the folded window and the
        # criterion-5 cut, within 2e-11 of max |F| and max |G|
        basis = build_basis(n_max)
        folded = grid_axes(basis, trap, recoil, GEO).tau_values
        cut = _cut_times(*CRITERION_5)[1]
        tau = np.concatenate([np.linspace(folded[0], folded[-1], 9),
                              np.linspace(cut.min(), cut.max(), 5)])
        ends = (tau.min(), tau.max())
        grid = _build_mode_grid(basis, GEO, ends,
                                GridSpec(z_samples=z_samples))
        F, G = grid.fall_sums(basis.scales, GEO, tau)

        sc, m, hbar = basis.scales, CONSTANTS.atom_mass, CONSTANTS.hbar
        k_chirp = max(m * (abs(0.5 * sc.g * t * t - GEO.fall_height)
                           + basis.z_max) / (hbar * t) for t in ends)
        dz = 2 * math.pi / (z_samples * (math.sqrt(basis.lam_max) / sc.length
                                         + k_chirp))
        count = int(math.ceil(basis.z_max / dz)) + 1
        count += 1 - count % 2
        z = np.linspace(0.0, basis.z_max, count)
        cuts = np.searchsorted(z / sc.length, basis.table.support,
                               side="right")
        chi = np.zeros((n_max, count))
        for n in range(n_max):
            chi[n, :cuts[n]] = sps.airy(z[:cuts[n]] / sc.length
                                        - basis.table.values[n])[0] \
                / basis.table.ai_prime[n]
        chi *= simpson_weights(count, z[1] - z[0]) / math.sqrt(sc.length)
        zp = 0.5 * sc.g * tau * tau - GEO.fall_height
        u = zp.astype(np.longdouble)[:, None] - z.astype(np.longdouble)
        alpha = (m / (2 * hbar * tau)).astype(np.longdouble)[:, None]
        e = np.exp(1j * np.mod(alpha * u * u, 2 * np.arccos(
            np.longdouble(-1)))).astype(np.complex128)
        want_F = e @ chi.T
        want_G = (e * (u.astype(float) / tau[:, None] - sc.g * tau[:, None])
                  ) @ chi.T
        assert np.abs(F - want_F).max() <= 2e-11 * np.abs(want_F).max()
        assert np.abs(G - want_G).max() <= 2e-11 * np.abs(want_G).max()

    def test_taylor_table_matches_rows(self, trap, recoil):
        # the stored coefficients of chi_n and xi chi_n at xi = 0, summed
        # as polynomials in j, give the grid's rows at xi = j h on the
        # first grid points, to 1e-12 of each row's maximum
        basis = build_basis(300)
        tau = grid_axes(basis, trap, recoil, GEO).tau_values
        grid = _build_mode_grid(basis, GEO, (tau[0], tau[-1]), GridSpec())
        h = grid.xi[1] - grid.xi[0]
        j = np.arange(3)
        powers = j[:, None] ** np.arange(grid.taylor.shape[1])
        rows = _airy_rows(basis.table, [0.0], h, grid.idx_cut,
                          grid.xi.shape[0])[0]
        for n in (0, 1, 49, 150, 299):
            scale = np.abs(rows[n]).max()
            assert np.abs(powers @ grid.taylor[0, :, n]
                          - rows[n, :3]).max() <= 1e-12 * scale
            assert np.abs(powers @ grid.taylor[1, :, n]
                          - grid.xi[:3] * rows[n, :3]).max() <= 1e-12 * scale

    def test_fall_sums_make_no_copy_of_the_mode_matrix(self, trap, recoil):
        # the grid's chi is already weighted and the kernel multiplies it
        # as it is, so on a few fall times a build's traced peak stays far
        # below one more (N, J) array
        basis = build_basis(300)
        tau = grid_axes(basis, trap, recoil, GEO).tau_values
        grid = _build_mode_grid(basis, GEO, (tau[0], tau[-1]), GridSpec())
        tracemalloc.start()
        try:
            grid.fall_sums(basis.scales, GEO, tau[:4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * grid.chi.nbytes

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
        assert desk_map.concentration is None
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
        fm = MapMaker(N_DESK, trap, kick, GEO).build(G_DEFAULT)
        assert fm.azimuth_ratio is None
        assert fm.concentration.min() > 0.0
        assert _flux_exact_weight(fm) == pytest.approx(fm.metadata["fraction"],
                                                       rel=1e-3)

    def test_blocked_assembly_equals_per_edge_time_loop(self, trap, recoil):
        # the assembly contracts a block of edge times per product; the
        # desk lattice ends on a part block
        kick = build_photodetach(0.0, kick_velocity=0.9)
        for pd in (recoil, kick):
            maker = MapMaker(N_DESK, trap, pd, GEO)
            rows = [W.shape[2] for _, _, W in maker.assembly[0]]
            assert rows[-1] < min(rows[:-1], default=_RATE_ROWS)
            fm = maker.build(G_DEFAULT)
            density, ratio, concentration = _per_edge_time_assembly(
                maker, G_DEFAULT)
            assert _close(fm.density, density, 1e-14)
            if pd.dipolar:
                assert _close(fm.azimuth_ratio, ratio, 1e-14)
            else:
                assert _close(fm.concentration, concentration, 1e-14)

    def test_ring_weights_per_distinct_qbar(self, trap, recoil):
        # the nodes at +u and -u share qbar, so the Gaussian and Bessel
        # factors are formed once per distinct qbar: 12 of 24 nodes, 12 of
        # 23 (one node at u = 0) and 1 of the tilted kick's 1, all bitwise
        # the per-node values, over the desk lattice's edge times and the
        # criterion-5 cut's
        maker = MapMaker(N_DESK, trap, recoil, GEO)
        t = np.concatenate([maker.axes.t, _cut_times(*CRITERION_5)[0]])
        tilted = build_photodetach(0.0, kick_velocity=0.9,
                                   polarization=(0.0, 1.0, 1.0))
        for pd, n_polar, distinct in ((recoil, 24, 12), (recoil, 23, 12),
                                      (tilted, 24, 1)):
            nodes = polar_nodes(pd, n_polar, folded=True)
            assert np.unique(1.0 - nodes.u ** 2).size == distinct
            assert 0.0 < nodes.u.max() and (pd.dipolar or nodes.u.size == 1)
            got = _ring_weights(nodes, trap, pd, GEO, t)
            for g, w in zip(got, _per_ring_weights(nodes, trap, pd, t)):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("n_max", [N_DESK, 300])
    def test_live_rings_match_all_ring_assembly(self, trap, recoil, n_max):
        # the build forms only the rows whose ring weight w_A or w_C is
        # above _LIVE_WEIGHT of its largest value (72 % of them), so the
        # dipole map moves by its roundoff against forming every row; the
        # kick's one ring per edge time is always live, and its map is
        # bitwise the same
        kick = build_photodetach(0.0, kick_velocity=0.9)
        for pd in (recoil, kick):
            maker = MapMaker(n_max, trap, pd, GEO)
            live = sum(int(mask.sum()) for _, mask, _ in maker.assembly[0])
            n_rows = maker.axes.t.shape[0] * maker.nodes.u.shape[0]
            fm = maker.build(G_DEFAULT)
            density, ratio, concentration = _all_ring_assembly(maker,
                                                               G_DEFAULT)
            if pd.dipolar:
                assert 0.6 * n_rows < live < 0.8 * n_rows
                assert _close(fm.density, density, 1e-14)
                assert np.abs(fm.azimuth_ratio - ratio).max() \
                    <= 1e-14 * ratio.max()
            else:
                assert live == n_rows
                assert np.array_equal(fm.density, density)
                assert np.array_equal(fm.concentration, concentration)

    def test_dead_rings_fall_below_the_live_weight(self, trap, recoil):
        # each block's rows are its edge times' live rows in row-major
        # order, weighted by w_A and w_C in their edge time's row only;
        # every row left out is below _LIVE_WEIGHT in both weights
        maker = MapMaker(N_DESK, trap, recoil, GEO)
        w_A, w_C, _ = _per_ring_weights(maker.nodes, trap, recoil,
                                        maker.axes.t)
        seen = np.zeros(w_A.shape, dtype=bool)
        for edges, mask, W in maker.assembly[0]:
            assert np.array_equal(edges, np.sort(edges))
            assert W.shape[2] <= _RATE_ROWS
            e, u = np.nonzero(mask)
            assert np.array_equal(W[0, e, np.arange(e.size)],
                                  w_A[edges[e], u])
            assert np.array_equal(W[1, e, np.arange(e.size)],
                                  w_C[edges[e], u])
            assert np.count_nonzero(W[0]) == e.size
            seen[edges] = mask
        assert np.all(w_A[~seen] <= _LIVE_WEIGHT * w_A.max())
        assert np.all(np.abs(w_C[~seen]) <= _LIVE_WEIGHT
                      * np.abs(w_C).max())
        assert np.all(seen.any(axis=1))

    def test_slabbed_map_equals_whole_lattice(self, monkeypatch, trap,
                                             recoil):
        # the desk lattice has more tau values than a slab, so a build
        # forms its sums in two slabs; the slab is a whole number of kernel
        # chunks, so with one slab over the whole tau lattice every map
        # must come out bitwise the same
        assert _SLAB_ROWS % _CHUNK_ROWS == 0
        kick = build_photodetach(0.0, kick_velocity=0.9)
        for pd in (recoil, kick):
            maker = MapMaker(N_DESK, trap, pd, GEO)
            M = maker.axes.n_tau
            assert _SLAB_ROWS < M < 2 * _SLAB_ROWS
            calls = _counted_kernel(monkeypatch)
            fm = maker.build(G_DEFAULT)
            assert calls == [_SLAB_ROWS, M - _SLAB_ROWS]
            monkeypatch.setattr(freefall, "_SLAB_ROWS", M)
            whole = maker.build(G_DEFAULT)
            monkeypatch.undo()
            assert np.array_equal(fm.density, whole.density)
            if pd.dipolar:
                assert np.array_equal(fm.azimuth_ratio, whole.azimuth_ratio)
            else:
                assert np.array_equal(fm.concentration, whole.concentration)

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
        # one edge time per cell must give what one shared edge time gives,
        # for cell counts on both sides of a block boundary
        nodes = polar_nodes(recoil)
        coeff = overlap_matrix(basis, GEO.release_height, trap.width,
                               recoil.recoil_momentum * nodes.u)
        t = 0.049
        for K in (1, 40, _RATE_ROWS - 1, _RATE_ROWS, _RATE_ROWS + 1):
            tau = np.linspace(0.24, 0.25, K)
            grid = _build_mode_grid(basis, GEO, (tau[0], tau[-1]),
                                    GridSpec())
            F, G = grid.fall_sums(basis.scales, GEO, tau)
            every = np.ones((1, nodes.u.shape[0]), dtype=bool)
            shared = _edge_rates(basis, coeff, np.asarray([t]), every, F, G,
                                 tau)
            per_cell = _cell_rates(basis, coeff, grid, GEO, np.full(K, t),
                                   tau)
            assert shared.shape == (nodes.u.shape[0], K)
            assert per_cell.shape == (K, nodes.u.shape[0])
            assert np.abs(per_cell.T - shared).max() \
                < 1e-13 * np.abs(shared).max()
            # a mask keeps its rows, in row-major order
            some = every.copy()
            some[0, ::3] = False
            kept = _edge_rates(basis, coeff, np.asarray([t]), some, F, G, tau)
            assert np.array_equal(kept, shared[some[0]])

    def test_per_row_rates_stay_below_the_size_of_F(self, trap, recoil):
        # the per-cell step forms, phases and contracts the sums a block of
        # cells at a time, so on 16 blocks its traced peak is below one
        # (K, N) array; whole-lattice F and G would take two
        basis = build_basis(300)
        nodes = polar_nodes(recoil)
        coeff = overlap_matrix(basis, GEO.release_height, trap.width,
                               recoil.recoil_momentum * nodes.u)
        K = 16 * _RATE_ROWS
        tau = np.linspace(0.24, 0.25, K)
        grid = _build_mode_grid(basis, GEO, (tau[0], tau[-1]),
                                GridSpec(z_samples=2.0))
        t = np.linspace(0.045, 0.055, K)
        tracemalloc.start()
        try:
            _cell_rates(basis, coeff, grid, GEO, t, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < K * basis.n_max * 16

    @pytest.mark.parametrize("K", [1, _RATE_ROWS - 1, _RATE_ROWS,
                                   _RATE_ROWS + 1, 4 * _RATE_ROWS + 1])
    def test_slabbed_cut_equals_whole_lattice(self, monkeypatch, basis, trap,
                                              recoil, K):
        # the lattice reader forms its stencil rows in kernel calls of
        # _CHUNK_ROWS rows into a rolling window; formed in one call and
        # read in the same cell blocks, the rates must come out bitwise the
        # same, and either way every stencil row is formed exactly once.
        # A cut this sparse takes the direct sums, so the reader is called
        # on its K cells
        nodes = polar_nodes(recoil)
        coeff = overlap_matrix(basis, GEO.release_height, trap.width,
                               recoil.recoil_momentum * nodes.u)
        t, tau = _cut_times([0.3], np.linspace(0.29, 0.30, K))
        grid = _build_mode_grid(basis, GEO, (tau.min(), tau.max()),
                                GridSpec())
        plan = _stencil_plan(basis, GEO, tau)
        n_tau = _stencil_rows(basis, tau).size
        calls = _counted_kernel(monkeypatch)
        rates = _lattice_cell_rates(basis, coeff, grid, GEO, t, tau, plan)
        assert calls == [min(_CHUNK_ROWS, n_tau - k0)
                         for k0 in range(0, n_tau, _CHUNK_ROWS)]
        calls.clear()
        monkeypatch.setattr(freefall, "_CHUNK_ROWS", n_tau)
        whole = _lattice_cell_rates(basis, coeff, grid, GEO, t, tau, plan)
        assert calls == [n_tau]
        assert np.array_equal(rates, whole)

    def test_lattice_cut_matches_per_cell_sums(self, monkeypatch, basis,
                                               trap, recoil):
        # the criterion-5 window at 300 and at 50 modes, and the kick
        # brute-force test's window at 80 x 80 cells, each read from the
        # lattice, against the direct per-cell sums
        kick = build_photodetach(0.0, kick_velocity=0.9)
        large = build_basis(300)
        y5, T5 = CRITERION_5
        for b, pd, y, T, tol in (
                (large, recoil, y5, T5, 1e-8),
                (basis, recoil, y5, T5, 1e-9),
                (basis, kick, np.linspace(0.25, 0.30, 80),
                 np.linspace(0.295, 0.310, 80), 1e-9)):
            dm = current_map_yt(b, trap, pd, GEO, y, T)
            direct = _per_cell_cut(monkeypatch, b, trap, pd, GEO, y, T)
            assert dm.metadata["tau_step"] is not None
            assert dm.density.max() > 0.0
            assert _close(dm.density, direct.density, tol)
            if b is large:
                assert dm.density.sum() == pytest.approx(
                    direct.density.sum(), rel=1e-10)
                assert np.argmax(dm.density) == np.argmax(direct.density)
            elif pd is recoil:
                # negative y reads the radius |y|
                minus = current_map_yt(b, trap, pd, GEO, -y, T)
                assert np.array_equal(minus.density, dm.density)

    def test_distinct_phases_equal_per_cell_phases(self, monkeypatch, trap,
                                                   recoil):
        # the lattice reader forms the phase factors of each distinct t +
        # tau once (a few hundred of the detector_cut window's 6400 cells);
        # with one row formed per cell the window is bitwise the same
        large = build_basis(300)
        formed = []

        def per_cell(basis, times):
            formed.append(times.shape[0])
            return mode_phases(basis, times[:, None]), np.arange(times.size)

        args = (large, trap, recoil, GEO) + CRITERION_5
        distinct = freefall._distinct_phases
        t, tau = _cut_times(*CRITERION_5)
        phases, which = distinct(large, t + tau)
        assert phases.shape[0] < 0.05 * t.size
        assert np.array_equal(phases[which],
                              mode_phases(large, (t + tau)[:, None]))
        dm = current_map_yt(*args)
        with monkeypatch.context() as patch:
            patch.setattr(freefall, "_distinct_phases", per_cell)
            direct = current_map_yt(*args)
        assert formed == [t.size]
        assert dm.metadata["tau_step"] is not None
        assert np.array_equal(dm.density, direct.density)

    def test_lattice_only_where_it_forms_fewer_rows(self, monkeypatch,
                                                    basis, trap, recoil):
        # the criterion-5 window's stencils hold 2165 rows for 6400 cells,
        # so the cut reads the lattice; the brute-force test's 15 x 21
        # window (3398 rows for 315 cells) and a one-cell cut form one
        # kernel row per cell, the direct sums
        calls = _counted_kernel(monkeypatch)
        y5, T5 = CRITERION_5
        dm = current_map_yt(basis, trap, recoil, GEO, y5, T5)
        rows = _stencil_rows(basis, _cut_times(y5, T5)[1]).size
        assert sum(calls) == dm.metadata["n_tau"] == rows == 2165
        assert dm.metadata["tau_step"] > 0.0
        for y, T, rows in ((np.linspace(0.27, 0.34, 15),
                            np.linspace(0.285, 0.305, 21), 3398),
                           ([0.3], [0.29], _STENCIL)):
            calls.clear()
            dm = current_map_yt(basis, trap, recoil, GEO, y, T)
            cells = np.size(y) * np.size(T)
            assert _stencil_rows(basis, _cut_times(y, T)[1]).size == rows
            assert sum(calls) == dm.metadata["n_tau"] == cells
            assert dm.metadata["tau_step"] is None
            direct = _per_cell_cut(monkeypatch, basis, trap, recoil, GEO, y,
                                   T)
            assert np.array_equal(dm.density, direct.density)

    def test_plans_its_lattice_once(self, monkeypatch, basis, trap, recoil):
        # the cut forms one stencil plan to choose its path and, on the
        # lattice path (the criterion-5 window), to read the lattice; the
        # 15 x 21 window takes the direct sums
        plans = []
        plan = freefall._stencil_plan

        def counted(*args):
            plans.append(args)
            return plan(*args)

        monkeypatch.setattr(freefall, "_stencil_plan", counted)
        for (y, T), lattice in ((CRITERION_5, True),
                                ((np.linspace(0.27, 0.34, 15),
                                  np.linspace(0.285, 0.305, 21)), False)):
            plans.clear()
            dm = current_map_yt(basis, trap, recoil, GEO, y, T)
            assert (dm.metadata["tau_step"] is not None) == lattice
            assert len(plans) == 1

    def test_lattice_edge_cases(self, monkeypatch, basis, trap, recoil):
        # against the direct sums, within 1e-8 of the largest rate over the
        # detector_cut window (0.236 to 0.258 s, edge times 45 to 55 ms)
        nodes = polar_nodes(recoil)
        coeff = overlap_matrix(basis, GEO.release_height, trap.width,
                               recoil.recoil_momentum * nodes.u)
        ends = np.asarray([0.236, 0.258])
        step = _stencil_plan(basis, GEO, ends)[0]
        tau = np.linspace(*ends, 60)
        grid = _build_mode_grid(basis, GEO, ends, GridSpec())
        scale = np.abs(_cell_rates(basis, coeff, grid, GEO,
                                   np.repeat([0.045, 0.05, 0.055], 60),
                                   np.tile(tau, 3))).max()
        # a fall time on a lattice node, between the window's ends
        node = np.round(ends.mean() / step) * step
        assert _stencil_plan(basis, GEO, np.append(ends, node))[0] == step
        rng = np.random.default_rng(3)
        spread = rng.uniform(*ends, 40)
        cases = {
            "one cell": (np.asarray([0.05]), np.asarray([0.247])),
            "one tau": (np.linspace(0.045, 0.055, 30), np.full(30, 0.247)),
            "node": (np.full(3, 0.05), np.asarray([ends[0], node, ends[1]])),
            # unsorted, repeated, and wide apart, so that rows are skipped
            "unsorted": (rng.uniform(0.045, 0.055, 80),
                         np.concatenate([spread, spread[::-1]])),
        }
        calls = _counted_kernel(monkeypatch)
        for name, (t, tau) in cases.items():
            grid = _build_mode_grid(basis, GEO, (tau.min(), tau.max()),
                                    GridSpec())
            want = _cell_rates(basis, coeff, grid, GEO, t, tau)
            calls.clear()
            got = _lattice_cell_rates(basis, coeff, grid, GEO, t, tau,
                                      _stencil_plan(basis, GEO, tau))
            assert np.abs(got - want).max() <= 1e-8 * scale, name
            # every stencil row is formed once
            assert sum(calls) == _stencil_rows(basis, tau).size, name
        # the node's value is read alone
        tau = cases["node"][1]
        _, order, l0, _, _ = _stencil_plan(basis, GEO, tau)
        w = lagrange_weights(tau[order],
                             (l0[:, None] + np.arange(_STENCIL)) * step, _BARY)
        assert np.sort(w[1]).tolist() == [0.0] * (_STENCIL - 1) + [1.0]

    def test_cut_holds_no_whole_lattice_sums(self, trap, recoil):
        # 6400 fall times at 300 modes: F and G would take 61 MB, against
        # a 2 MB kernel buffer on this coarse z grid; the cut forms them a
        # slab at a time, so its traced peak stays under half of one
        basis = build_basis(300)
        y = np.linspace(0.282, 0.322, 80)
        T = np.linspace(0.286, 0.306, 80)
        tracemalloc.start()
        try:
            current_map_yt(basis, trap, recoil, GEO, y, T,
                           GridSpec(z_samples=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (y.size * T.size) * basis.n_max * 16

    def test_negative_y_mirrors_positive_y(self, basis, trap, recoil):
        # the cut at -y sees the radius |y| and the detector azimuth -pi/2:
        # the dipole law is even under it, and a kick at -y meets what the
        # opposite kick meets at +y (on the ridge and far from it)
        y = np.linspace(0.27, 0.30, 4)
        T = np.linspace(0.29, 0.30, 5)
        plus = current_map_yt(basis, trap, recoil, GEO, y, T)
        minus = current_map_yt(basis, trap, recoil, GEO, -y, T)
        assert np.array_equal(minus.density, plus.density)
        up, down = (build_photodetach(0.0, (0.0, s, 0.0), kick_velocity=0.9)
                    for s in (1.0, -1.0))
        for kick, mirrored in ((up, down), (down, up)):
            minus = current_map_yt(basis, trap, kick, GEO, -y, T)
            plus = current_map_yt(basis, trap, mirrored, GEO, y, T)
            assert plus.density.max() > 0.0
            assert _close(minus.density, plus.density, 1e-12)

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

    def test_cut_is_the_folded_law_at_x_zero(self, basis, trap, recoil):
        # at (0, y) with y = d T / t the cut must give the folded density
        # per unit area, density t^3 / (d^2 T^2), times the folded map's
        # azimuth law at phi = pi/2; each path builds its own mode grid,
        # and the two differ in the z quadrature
        d = GEO.travel_distance
        kick = build_photodetach(0.0, kick_velocity=0.9)
        for pd in (recoil, kick):
            fm = MapMaker(N_DESK, trap, pd, GEO).build(G_DEFAULT)
            D = fm.density
            big = np.flatnonzero(D.ravel() >= 0.2 * D.max())
            # the detector azimuth pi/2 from the polarization azimuth
            delta = 0.5 * math.pi - fm.pol_angle
            for k in np.linspace(0, big.size - 1, 4).astype(int):
                i, j = np.unravel_index(big[k], D.shape)
                t, T = fm.t[i], fm.T[j]
                if pd.dipolar:
                    law = 1.0 + fm.azimuth_ratio[i, j] * math.cos(2.0 * delta)
                else:
                    kappa = fm.concentration[i]
                    law = math.exp(kappa * (math.cos(delta) - 1.0)) \
                        / sps.ive(0, kappa)
                want = D[i, j] * t ** 3 / (d * d * T * T) \
                    * law / (2.0 * math.pi)
                cut = current_map_yt(basis, trap, pd, GEO, [d * T / t], [T])
                assert cut.density[0, 0] == pytest.approx(want, rel=2e-5)

    def test_starts_no_thread(self, monkeypatch, basis, trap, recoil):
        # set-up and the detector cut run in the calling thread; a pool
        # joined on exit would leave threading.enumerate() as it was, so
        # thread starts are counted as well
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        before = threading.enumerate()
        MapMaker(N_DESK, trap, recoil, GEO)
        current_map_yt(basis, trap, recoil, GEO, [0.3], [0.29, 0.3])
        assert threading.enumerate() == before
        assert started == []

    def test_domain_checks(self, basis, trap, recoil):
        with pytest.raises(DomainError):
            current_map_yt(basis, trap, recoil, GEO, [0.04], [0.3])
        with pytest.raises(DomainError):
            current_map_yt(basis, trap, recoil, GEO, [0.3], [-0.1])
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="radius must be finite"):
                current_map_yt(basis, trap, recoil, GEO, [bad], [0.3])
            with pytest.raises(DomainError, match="time must be finite"):
                current_map_yt(basis, trap, recoil, GEO, [0.3], [bad])
        for y, T in (([], [0.3]), ([0.3], []), ([[0.3]], [0.3]),
                     ([0.3], [[0.3]])):
            with pytest.raises(DomainError, match="non-empty 1-d axes"):
                current_map_yt(basis, trap, recoil, GEO, y, T)
        # a 1 um drop: 50 ms above the mirror and fall times of 0.15 to
        # 0.25 ms, 4 to 7 lattice steps.  The 64 cells' stencils hold fewer
        # rows than that, but they reach rows at or before tau = 0, so the
        # cut takes the direct sums, as the spot value does
        low = DiskGeometry(GEO.release_height, GEO.travel_distance, 1e-6)
        y = np.linspace(0.05015, 0.05025, 8)
        T = np.linspace(0.0501, 0.0503, 8)
        rows = _stencil_plan(basis, low, _cut_times(y, T)[1])[-1]
        assert rows.size < y.size * T.size and rows[0] <= 0
        dm = current_map_yt(basis, trap, recoil, low, y, T)
        assert dm.metadata["n_tau"] == y.size * T.size
        assert dm.metadata["tau_step"] is None
        # the spot builds its mode grid for one fall time, the cut for
        # all 64: they differ in the z quadrature
        for iy, iT in ((3, 4), (7, 0)):
            spot = annihilation_current(basis, trap, recoil, low, 0.0, y[iy],
                                        T[iT], n_azimuth=256)
            assert dm.density[iy, iT] > 0.0
            assert dm.density[iy, iT] == pytest.approx(spot, rel=1e-8)
        with pytest.raises(DomainError):
            annihilation_current(basis, trap, recoil, GEO, 0.0, 0.04, 0.3)
