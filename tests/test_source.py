"""Trap state, recoil kick, and dipole direction average."""

import math

import numpy as np
import pytest

from qfall.errors import DomainError
from qfall.physcore import CONSTANTS
from qfall.source import (build_photodetach, build_trap, polar_nodes,
                          recoil_quadrature, velocity_distribution)

EV = 1.602176634e-19


@pytest.fixture(scope="module")
def trap():
    return build_trap(20e3)


@pytest.fixture(scope="module")
def recoil():
    return build_photodetach(10e-6 * EV)


class TestTrap:
    def test_reference_width(self, trap):
        # sqrt(hbar / (2 m 2pi f)) at f = 20 kHz is about half a micron
        assert trap.width == pytest.approx(5.007e-7, rel=1e-3)

    def test_reference_velocity_spread(self, trap):
        assert trap.velocity_spread == pytest.approx(6.293e-2, rel=1e-3)

    def test_minimum_uncertainty(self, trap):
        assert trap.width * trap.momentum_spread == pytest.approx(
            CONSTANTS.hbar / 2.0, rel=1e-15)

    def test_invalid_frequency(self):
        with pytest.raises(DomainError):
            build_trap(0.0)


class TestPhotodetach:
    def test_recoil_velocity(self, recoil):
        # the positron, not the atom, sets the recoil momentum scale
        assert recoil.recoil_velocity == pytest.approx(1.02092, rel=1e-4)

    def test_recoil_momentum_formula(self, recoil):
        q = math.sqrt(2.0 * CONSTANTS.positron_mass * 10e-6 * EV)
        assert recoil.recoil_momentum == pytest.approx(q, rel=1e-15)

    def test_polarization_normalized(self):
        pd = build_photodetach(1e-6 * EV, polarization=(0.0, 2.0, 0.0))
        assert np.linalg.norm(pd.polarization) == pytest.approx(1.0, abs=1e-14)

    def test_kick_variant(self):
        pd = build_photodetach(0.0, kick_velocity=0.5)
        assert not pd.dipolar
        assert pd.recoil_velocity == pytest.approx(0.5, rel=1e-15)
        assert pd.recoil_momentum == pytest.approx(
            0.5 * CONSTANTS.atom_mass, rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            build_photodetach(-1.0)
        with pytest.raises(DomainError):
            build_photodetach(1e-25, kick_velocity=0.5)
        with pytest.raises(DomainError):
            build_photodetach(1e-25, polarization=(0.0, 0.0, 0.0))


class TestRecoilQuadrature:
    def test_moments(self, recoil):
        quad = recoil_quadrature(recoil)
        w = quad.weights
        d = quad.directions
        pol = np.asarray(recoil.polarization)
        # dipole density is normalized, odd moments vanish, and the
        # projection on the polarization axis carries <(qhat.nhat)^2> = 3/5
        assert np.sum(w) == pytest.approx(1.0, abs=1e-13)
        assert np.abs(w @ d).max() < 1e-13
        assert w @ (d @ pol) ** 2 == pytest.approx(0.6, abs=1e-13)
        # with horizontal polarization the vertical second moment is 1/5
        assert w @ d[:, 2] ** 2 == pytest.approx(0.2, abs=1e-13)

    def test_unit_directions(self, recoil):
        quad = recoil_quadrature(recoil)
        norms = np.linalg.norm(quad.directions, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-14

    def test_node_doubling_stable(self, recoil):
        # a smooth direction functional must already be converged
        a = np.asarray([0.2, -0.4, 0.7])

        def functional(quad):
            return quad.weights @ np.exp(quad.directions @ a)

        base = functional(recoil_quadrature(recoil, 24, 16))
        fine = functional(recoil_quadrature(recoil, 48, 32))
        assert base == pytest.approx(fine, rel=1e-10)

    def test_kick_single_node(self):
        pd = build_photodetach(0.0, kick_velocity=0.3)
        quad = recoil_quadrature(pd)
        assert quad.directions.shape == (1, 3)
        assert quad.weights[0] == pytest.approx(1.0)
        assert quad.directions[0] == pytest.approx(np.asarray(pd.polarization))

    def test_degenerate_orders_rejected(self, recoil):
        with pytest.raises(DomainError):
            recoil_quadrature(recoil, n_polar=1)
        with pytest.raises(DomainError):
            recoil_quadrature(recoil, n_azimuth=3)


class TestPolarMarginal:
    def test_matches_aggregated_quadrature(self, recoil):
        # summing the full product rule over azimuth at fixed u must equal
        # the analytic azimuth integral
        n_polar, n_azimuth = 24, 16
        quad = recoil_quadrature(recoil, n_polar, n_azimuth)
        nodes = polar_nodes(recoil, n_polar)
        u, wm = nodes.u, nodes.w_even
        grouped = quad.weights.reshape(n_polar, n_azimuth).sum(axis=1)
        assert grouped == pytest.approx(wm, abs=1e-15)
        assert np.repeat(u, n_azimuth) == pytest.approx(quad.directions[:, 2],
                                                        abs=1e-14)

    def test_normalized(self, recoil):
        wm = polar_nodes(recoil).w_even
        assert np.sum(wm) == pytest.approx(1.0, abs=1e-13)

    def test_vertical_polarization_shape(self):
        # for nhat = zhat the polar density is (3/2) u^2
        pd = build_photodetach(10e-6 * EV, polarization=(0.0, 0.0, 1.0))
        nodes = polar_nodes(pd, 40)
        _, wu = np.polynomial.legendre.leggauss(40)
        assert nodes.w_even == pytest.approx(1.5 * nodes.u ** 2 * wu,
                                             abs=1e-15)

    def test_kick_degenerates(self):
        pd = build_photodetach(0.0, kick_velocity=0.3, polarization=(1.0, 0.0, 0.0))
        nodes = polar_nodes(pd)
        assert nodes.u.shape == (1,) and nodes.w_even[0] == pytest.approx(1.0)
        assert nodes.u[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("pol", [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
                                     (0.0, 0.0, 1.0)])
    def test_second_harmonic_matches_quadrature(self, pol):
        # the density over the kick azimuth at fixed u is
        # w_even + w_cos2 cos 2(phi - pol_angle), so twice the cos 2
        # moment of the full product rule must give w_cos2
        n_polar, n_azimuth = 24, 16
        pd = build_photodetach(10e-6 * EV, polarization=pol)
        nodes = polar_nodes(pd, n_polar, folded=True)
        quad = recoil_quadrature(pd, n_polar, n_azimuth)
        phi = np.arctan2(quad.directions[:, 1], quad.directions[:, 0])
        moment = (quad.weights * np.cos(2.0 * (phi - nodes.pol_angle))
                  ).reshape(n_polar, n_azimuth).sum(axis=1)
        assert 2.0 * moment == pytest.approx(nodes.w_cos2, abs=1e-15)
        assert nodes.pol_angle == pytest.approx(
            math.atan2(pol[1], pol[0]), abs=1e-15)


class TestVelocityDistribution:
    def test_normalized_on_grid(self, trap, recoil):
        vr = recoil.recoil_velocity
        lim = vr + 8.0 * trap.velocity_spread
        n = 121
        ax = np.linspace(-lim, lim, n)
        vx, vy, vz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        pi0 = velocity_distribution(trap, recoil, vx, vy, vz)
        total = np.trapezoid(np.trapezoid(np.trapezoid(pi0, ax), ax), ax)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_parity(self, trap, recoil):
        v = np.asarray([0.3, 0.5, -0.2])
        a = velocity_distribution(trap, recoil, *v)
        b = velocity_distribution(trap, recoil, *(-v))
        assert a == pytest.approx(b, rel=1e-12)

    def test_anisotropy_follows_polarization(self, trap, recoil):
        # pointwise values of the narrow shell need a direction rule finer
        # than the angular kernel width delta_v / v_r
        vr = recoil.recoil_velocity
        fine = dict(n_polar=96, n_azimuth=128)
        along = velocity_distribution(trap, recoil, 0.0, vr, 0.0, **fine)
        across = velocity_distribution(trap, recoil, vr, 0.0, 0.0, **fine)
        vert = velocity_distribution(trap, recoil, 0.0, 0.0, vr, **fine)
        assert along > across
        assert along > vert
        # both perpendicular directions carry the same sin^2 weight
        assert across == pytest.approx(vert, rel=1e-6)

    def test_shell_radius(self, trap, recoil):
        # along the polarization axis the density peaks near |v| = v_r
        vr = recoil.recoil_velocity
        vy = np.linspace(0.5 * vr, 1.5 * vr, 801)
        pi0 = velocity_distribution(trap, recoil, 0.0, vy, 0.0,
                                    n_polar=96, n_azimuth=128)
        peak = vy[np.argmax(pi0)]
        assert abs(peak - vr) < trap.velocity_spread

    def test_kick_variant_single_gaussian(self, trap):
        pd = build_photodetach(0.0, kick_velocity=0.8)
        dv = trap.velocity_spread
        v = np.asarray([0.1, 0.8 + 0.3 * dv, -0.05])
        got = velocity_distribution(trap, pd, *v)
        d2 = v[0] ** 2 + (v[1] - 0.8) ** 2 + v[2] ** 2
        want = (2 * math.pi * dv * dv) ** -1.5 * math.exp(-d2 / (2 * dv * dv))
        assert got == pytest.approx(want, rel=1e-12)
