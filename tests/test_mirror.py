"""Phase evolution above the disk and the end-of-disk momentum density."""

import math

import numpy as np
import pytest

from qfall.airy import momentum_matrix
from qfall.errors import DomainError
from qfall.gqs import build_basis, overlap_matrix
from qfall.mirror import DiskGeometry, mode_phases, time_above_mirror
from qfall.source import build_trap

GEOMETRY = DiskGeometry(release_height=10e-6, travel_distance=0.05,
                        fall_height=0.3)


@pytest.fixture(scope="module")
def basis():
    return build_basis(50)


@pytest.fixture(scope="module")
def coeffs(basis):
    trap = build_trap(20e3)
    return overlap_matrix(basis, GEOMETRY.release_height, trap.width, [0.0])[0]


def momentum_density_end(basis, coefficients, t, momenta):
    """|psi~(p)|^2 of the state evolved over a time t above the disk."""
    amp = (coefficients * mode_phases(basis, t)) @ momentum_matrix(
        basis.table, momenta, basis.scales)
    return np.abs(amp) ** 2


class TestGeometry:
    def test_time_above_mirror_reference(self):
        t = time_above_mirror(GEOMETRY, 0.302, 0.296)
        assert t == pytest.approx(0.049007, abs=1e-6)

    def test_time_scales_inversely_with_radius(self):
        r = np.asarray([0.30, 0.60])
        t = time_above_mirror(GEOMETRY, r, 0.296)
        assert t[0] == pytest.approx(2.0 * t[1], rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            time_above_mirror(GEOMETRY, 0.04, 0.296)  # inside the disk
        with pytest.raises(DomainError):
            time_above_mirror(GEOMETRY, 0.302, 0.0)
        with pytest.raises(DomainError):
            DiskGeometry(release_height=0.0, travel_distance=0.05,
                         fall_height=0.3)


class TestEvolution:
    def test_norm_preserved(self, basis, coeffs):
        out = coeffs * mode_phases(basis, 0.049)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(
            np.sum(np.abs(coeffs) ** 2), rel=1e-14)

    def test_zero_time_identity(self, basis, coeffs):
        out = coeffs * mode_phases(basis, 0.0)
        assert out == pytest.approx(coeffs, rel=1e-15)

    def test_two_mode_rephasing(self, basis):
        # a superposition of two modes is periodic with 2 pi t_g / dlambda
        c = np.zeros(basis.n_max, dtype=complex)
        c[0], c[3] = 0.8, 0.6
        dlam = basis.table.values[3] - basis.table.values[0]
        period = 2.0 * math.pi * basis.scales.time / dlam
        ratio0 = c[3] / c[0]
        out = c * mode_phases(basis, period)
        assert out[3] / out[0] == pytest.approx(ratio0, rel=1e-12)

    def test_column_of_times_phases_rows(self, basis, coeffs):
        t = np.asarray([0.0, 0.02, 0.049])
        rows = np.tile(coeffs, (3, 1)) * mode_phases(basis, t[:, None])
        for k in range(3):
            assert np.array_equal(rows[k],
                                  coeffs * mode_phases(basis, t[k]))

    def test_negative_time_rejected(self, basis, coeffs):
        with pytest.raises(DomainError):
            coeffs * mode_phases(basis, -1e-3)
        with pytest.raises(DomainError):
            coeffs * mode_phases(basis, np.asarray([[0.1], [-1e-3]]))

    def test_nan_time_rejected(self, basis, coeffs):
        with pytest.raises(DomainError):
            coeffs * mode_phases(basis, math.nan)
        with pytest.raises(DomainError):
            coeffs * mode_phases(basis, np.asarray([[0.1], [math.nan]]))


class TestMomentumDensity:
    def test_parseval_retained_fraction(self, basis, coeffs):
        # the vertical momentum marginal integrates to the retained weight
        pg = basis.scales.momentum
        p = np.linspace(-15 * pg, 15 * pg, 1501)
        rho = momentum_density_end(basis, coeffs, 0.049007, p)
        total = np.trapezoid(rho, p)
        assert total == pytest.approx(np.sum(np.abs(coeffs) ** 2), abs=1e-4)

    def test_single_mode_density_static(self, basis):
        c = np.zeros(basis.n_max, dtype=complex)
        c[4] = 1.0
        pg = basis.scales.momentum
        p = np.linspace(-10 * pg, 10 * pg, 401)
        a = momentum_density_end(basis, c, 0.0, p)
        b = momentum_density_end(basis, c, 0.0123, p)
        assert b == pytest.approx(a, rel=1e-10)

    def test_interference_fringes(self, basis, coeffs):
        # after ~45 ladder periods the density in the classically allowed
        # window is deeply modulated
        pg = basis.scales.momentum
        p = np.linspace(-8 * pg, 8 * pg, 1201)
        rho = momentum_density_end(basis, coeffs, 0.049007, p)
        contrast = (rho.max() - rho.min()) / (rho.max() + rho.min())
        assert contrast > 0.1

    def test_density_nonnegative(self, basis, coeffs):
        pg = basis.scales.momentum
        p = np.linspace(-12 * pg, 12 * pg, 601)
        rho = momentum_density_end(basis, coeffs, 0.02, p)
        assert rho.min() >= 0.0
