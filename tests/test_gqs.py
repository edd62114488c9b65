"""Overlap coefficients and recoil-averaged transmission.

The quadrature implementation is checked against an independent closed form:
extending the overlap integral's lower limit to -infinity (negligible for a
release many widths above the mirror) the Gaussian-times-Airy integral has
the exact value

    c_n = (8 pi zeta^2)^(1/4) / (sqrt(l) Ai'(-lambda_n))
          * Ai(h2/l - lambda_n + u^2)
          * exp(u (h2/l - lambda_n + (2/3) u^2) - (q_z zeta / hbar)^2)

with h2 = h + 2i q_z zeta^2 / hbar and u = (zeta / l)^2, evaluated with the
complex-argument Airy function.  This route shares no code with the module
under test beyond the zero table.
"""

import math

import numpy as np
import pytest
import scipy.special as sps

from qfall.errors import DomainError
from qfall.gqs import (build_basis, classical_cutoff_velocity,
                       overlap_matrix, transmitted_fraction)
from qfall.physcore import CONSTANTS
from qfall.source import build_photodetach, build_trap

EV = 1.602176634e-19
HEIGHT = 10e-6


@pytest.fixture(scope="module")
def trap():
    return build_trap(20e3)


@pytest.fixture(scope="module")
def recoil():
    return build_photodetach(10e-6 * EV)


@pytest.fixture(scope="module")
def basis():
    return build_basis(1000)


def closed_form_overlap(basis, height, width, q_z):
    ell = basis.scales.length
    hbar = CONSTANTS.hbar
    u = (width / ell) ** 2
    h2 = height + 2j * q_z * width ** 2 / hbar
    lam = basis.table.values
    arg = h2 / ell - lam + u * u
    ai = np.asarray([sps.airy(a)[0] for a in arg])
    pref = (8.0 * math.pi * width ** 2) ** 0.25 / (
        math.sqrt(ell) * basis.table.ai_prime)
    return pref * ai * np.exp(u * (h2 / ell - lam + (2.0 / 3.0) * u * u)
                              - (q_z * width / hbar) ** 2)


class TestOverlapCoefficients:
    @pytest.mark.parametrize("qz_frac", [0.0, 0.1, -0.1, 0.17])
    def test_matches_closed_form(self, basis, trap, recoil, qz_frac):
        qz = qz_frac * recoil.recoil_momentum
        c = overlap_matrix(basis, HEIGHT, trap.width, [qz])[0]
        o = closed_form_overlap(basis, HEIGHT, trap.width, qz)
        mask = np.abs(o) > 1e-3 * np.abs(o).max()
        assert mask.sum() > 10
        rel = np.abs(c[mask] - o[mask]) / np.abs(o[mask])
        assert rel.max() < 1e-3

    def test_zero_kick_is_real(self, basis, trap):
        c = overlap_matrix(basis, HEIGHT, trap.width, [0.0])[0]
        assert np.abs(c.imag).max() < 1e-12 * np.abs(c.real).max()

    def test_conjugate_parity(self, basis, trap, recoil):
        qz = 0.08 * recoil.recoil_momentum
        plus = overlap_matrix(basis, HEIGHT, trap.width, [qz])[0]
        minus = overlap_matrix(basis, HEIGHT, trap.width, [-qz])[0]
        assert minus == pytest.approx(np.conj(plus), rel=1e-12)

    def test_retained_probability_bounded(self, basis, trap, recoil):
        for frac in (0.0, 0.3, 1.0):
            c = overlap_matrix(basis, HEIGHT, trap.width,
                               [frac * recoil.recoil_momentum])[0]
            assert np.sum(np.abs(c) ** 2) <= 1.0 + 1e-9

    def test_retained_monotone_in_n_max(self, trap):
        sums = []
        for nm in (200, 400, 800):
            b = build_basis(nm)
            c = overlap_matrix(b, HEIGHT, trap.width, [0.0])[0]
            sums.append(np.sum(np.abs(c) ** 2))
        assert sums[0] <= sums[1] + 1e-12
        assert sums[1] <= sums[2] + 1e-12

    def test_panel_refinement_converged(self, basis, trap, recoil):
        qz = 0.1 * recoil.recoil_momentum
        base = overlap_matrix(basis, HEIGHT, trap.width, [qz])[0]
        fine = overlap_matrix(basis, HEIGHT, trap.width, [qz], phase=1.0)[0]
        scale = np.abs(base).max()
        assert np.abs(base - fine).max() < 1e-9 * scale

    def test_matrix_rows_match_single_calls(self, basis, trap, recoil):
        qz = recoil.recoil_momentum * np.asarray([-0.2, 0.0, 0.35])
        mat = overlap_matrix(basis, HEIGHT, trap.width, qz)
        for k, q in enumerate(qz):
            single = overlap_matrix(basis, HEIGHT, trap.width, [q])[0]
            # single calls size their panel grid from their own |q_z|
            assert mat[k] == pytest.approx(single, abs=1e-9 * np.abs(single).max())

    def test_invalid_inputs(self, basis, trap):
        with pytest.raises(DomainError):
            overlap_matrix(basis, -1e-6, trap.width, [0.0])
        with pytest.raises(DomainError):
            overlap_matrix(basis, HEIGHT, 0.0, [0.0])


class TestCompleteness:
    def test_no_recoil_retained_vs_velocity_cutoff(self, trap):
        # with no kick the retained probability is the chance that the trap
        # velocity stays below the ladder's classical cutoff
        dv = trap.velocity_spread
        for nm, tol in ((1000, 1e-3), (2000, 1e-3)):
            b = build_basis(nm)
            c = overlap_matrix(b, HEIGHT, trap.width, [0.0])[0]
            got = np.sum(np.abs(c) ** 2)
            vab = classical_cutoff_velocity(b, HEIGHT)
            want = math.erf(vab / (math.sqrt(2.0) * dv))
            assert got == pytest.approx(want, abs=tol)

    def test_reference_retained_value(self, basis, trap):
        c = overlap_matrix(basis, HEIGHT, trap.width, [0.0])[0]
        assert np.sum(np.abs(c) ** 2) == pytest.approx(0.9954, abs=5e-4)


class TestTransmission:
    def test_reference_fraction(self, basis, trap, recoil):
        tr = transmitted_fraction(basis, trap, recoil, HEIGHT)
        assert tr.fraction == pytest.approx(0.26, abs=0.02)

    def test_sharp_cutoff_limit(self, basis, trap, recoil):
        # for v_r >> delta_v the fraction approaches the sharp-cutoff dipole
        # integral 1.5 u_c - 0.5 u_c^3 with u_c = v_abs / v_r
        tr = transmitted_fraction(basis, trap, recoil, HEIGHT)
        uc = classical_cutoff_velocity(basis, HEIGHT) / recoil.recoil_velocity
        sharp = 1.5 * uc - 0.5 * uc ** 3
        assert uc == pytest.approx(0.1757, abs=2e-3)
        assert tr.fraction == pytest.approx(sharp, abs=5e-3)

    def test_polar_doubling_stable(self, basis, trap, recoil):
        a = transmitted_fraction(basis, trap, recoil, HEIGHT)
        b = transmitted_fraction(basis, trap, recoil, HEIGHT, n_polar=48)
        assert a.fraction == pytest.approx(b.fraction, abs=1e-3)

    def test_expected_count(self, basis, trap, recoil):
        tr = transmitted_fraction(basis, trap, recoil, HEIGHT)
        n = tr.expected_count(1000)
        assert n == int(round(1000 * tr.fraction))
        with pytest.raises(DomainError):
            tr.expected_count(-5)

    def test_no_recoil_expected_count(self, basis, trap):
        still = build_photodetach(0.0, kick_velocity=0.0)
        tr = transmitted_fraction(basis, trap, still, HEIGHT)
        assert 993 <= tr.expected_count(1000) <= 997

    def test_nodes_sum_to_fraction(self, basis, trap, recoil):
        tr = transmitted_fraction(basis, trap, recoil, HEIGHT)
        assert tr.populations.shape == (basis.n_max,)
        assert tr.populations.sum() == pytest.approx(tr.fraction, rel=1e-14)


class TestBasis:
    def test_default_z_max(self, basis):
        want = (basis.lam_max + 10.0) * basis.scales.length
        assert basis.z_max == pytest.approx(want, rel=1e-14)

    def test_z_max_invariant(self):
        b = build_basis(100)
        with pytest.raises(DomainError):
            build_basis(100, z_max=0.5 * b.table.values[-1] * b.scales.length)

    def test_cutoff_velocity_above_ladder(self, basis):
        top = basis.lam_max * basis.scales.length
        assert classical_cutoff_velocity(basis, 2.0 * top) == 0.0

    def test_mode_support(self, basis):
        # every mode is cut 15 gravitational lengths above its turning point
        s = basis.table.support * basis.scales.length
        assert s[0] == pytest.approx((basis.table.lam(1) + 15.0)
                                     * basis.scales.length, rel=1e-14)
        assert np.array_equal(s, (basis.table.values + 15.0)
                              * basis.scales.length)
