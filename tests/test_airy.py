import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import quad

from qfall import airy
from qfall.airy import (AiryZeroTable, airy_zero_guess, airy_zeros,
                        eigenfunction, eigenfunction_matrix,
                        eigenfunction_momentum, momentum_matrix)
from qfall.errors import DomainError
from qfall.physcore import derive_scales

SCALES = derive_scales(9.81)


def bisection_zeros(count, digits=20):
    """Independent oracle: bisection on mpmath's Airy between asymptotic guesses."""
    mpmath.mp.dps = digits
    guesses = airy_zero_guess(np.arange(1, count + 2))
    out = []
    for n in range(1, count + 1):
        lo = 0.5 * (guesses[n - 2] + guesses[n - 1]) if n > 1 else 1.0
        hi = 0.5 * (guesses[n - 1] + guesses[n])
        f = lambda x: mpmath.airyai(-x)
        assert f(lo) * f(hi) < 0
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        out.append(float((lo + hi) / 2))
    return np.array(out)


@pytest.fixture(scope="module")
def oracle_zeros():
    return bisection_zeros(100)


def test_airy_value_at_origin_power_series():
    # frozen power-series anchor Ai(0) = 3^(-2/3)/Gamma(2/3): the mode row
    # at xi = lam_n is Ai(0) / Ai'(-lam_n)
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    table = airy_zeros(5)
    for n in (1, 5):
        row = eigenfunction_matrix(table, np.asarray([table.lam(n)]))[n - 1]
        assert row[0] * table.ai_prime[n - 1] == pytest.approx(ai0, rel=1e-14)


def test_airy_against_high_precision_grid():
    # the mode rows Ai(xi - lam_n) / Ai'(-lam_n) and the normalization
    # values Ai'(-lam_n) against 30-digit mpmath at the same float arguments
    mpmath.mp.dps = 30
    table = airy_zeros(100)
    lam = table.values[-1]
    xs = np.concatenate([np.linspace(-50, 4, 41), np.linspace(4, 50, 13)])
    xi = xs + lam
    ref = np.array([float(mpmath.airyai(x)) for x in xi - lam])
    got = eigenfunction_matrix(table, xi)[-1] * table.ai_prime[-1]
    scale = np.maximum(np.abs(ref), 1e-300)
    assert np.max(np.abs(got - ref) / scale) < 1e-10
    refp = np.array([float(mpmath.airyai(-x, 1)) for x in table.values])
    assert np.max(np.abs(table.ai_prime - refp) / np.abs(refp)) < 1e-10


def test_nan_arguments_rejected():
    table = airy_zeros(2)
    with pytest.raises(DomainError):
        eigenfunction_matrix(table, np.nan)
    with pytest.raises(DomainError):
        eigenfunction_matrix(table, np.array([0.0, np.nan]))


def test_zero_table_against_bisection_oracle(oracle_zeros):
    table = airy_zeros(100)
    np.testing.assert_allclose(table.values, oracle_zeros, rtol=1e-9)


def test_zero_guess_quality():
    table = airy_zeros(200)
    n = np.arange(10, 201)
    rel = np.abs(airy_zero_guess(n) - table.values[9:]) / table.values[9:]
    assert np.max(rel) < 2.5e-3


def test_zero_spacing_decreases():
    table = airy_zeros(500)
    gaps = np.diff(table.values)
    assert np.all(np.diff(gaps) < 0.0)


def test_zero_table_validation_and_index():
    table = airy_zeros(10)
    assert table.lam(1) == pytest.approx(2.3381074104597674, rel=1e-12)
    with pytest.raises(DomainError):
        table.lam(0)
    with pytest.raises(DomainError):
        table.lam(11)
    with pytest.raises(DomainError):
        airy_zeros(0)
    with pytest.raises(DomainError):
        AiryZeroTable(3, np.array([2.0, 1.0, 3.0]), np.ones(3))


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_eigenfunction_normalized(n):
    table = airy_zeros(20)
    lam = table.lam(n)
    # dimensionless norm integral against adaptive quadrature
    val, err = quad(lambda x: sps.airy(x - lam)[0] ** 2
                    / table.ai_prime[n - 1] ** 2,
                    0.0, lam + 15.0, limit=400)
    assert val == pytest.approx(1.0, abs=2e-8)


def test_eigenfunction_orthonormal_20():
    table = airy_zeros(20)
    # Gauss-Legendre panels fine enough for the fastest oscillation
    top = table.values[-1] + 15.0
    panels = 140
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, top, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    xi = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    a = eigenfunction_matrix(table, xi)
    gram = (a * wts) @ a.T
    assert np.max(np.abs(gram - np.eye(20))) < 1e-6


def test_eigenfunction_solves_schroedinger():
    # finite-difference residual of -(hbar^2/2m) chi'' + m g z chi = E chi,
    # checked in dimensionless form A'' = (xi - lam) A
    table = airy_zeros(10)
    for n in (1, 3, 10):
        lam = table.lam(n)
        h = 1e-3
        xi = np.arange(h, lam, h)
        a = eigenfunction_matrix(table, xi)[n - 1]
        lap = (eigenfunction_matrix(table, xi + h)[n - 1]
               + eigenfunction_matrix(table, xi - h)[n - 1] - 2 * a) / h ** 2
        resid = lap - (xi - lam) * a
        assert np.linalg.norm(resid) / np.linalg.norm((xi - lam) * a) < 1e-4


def test_eigenfunction_si_properties():
    table = airy_zeros(5)
    z = np.linspace(-2e-6, 8e-5, 4001)
    chi = eigenfunction(1, z, table, SCALES)
    assert np.all(chi[z < 0.0] == 0.0)
    # SI normalization on a fine trapezoid
    norm = np.trapezoid(chi ** 2, z)
    assert norm == pytest.approx(1.0, abs=1e-5)
    cut = table.support[0] * SCALES.length
    tail = eigenfunction(1, np.array([cut]), table, SCALES)[0]
    assert abs(tail) < 1e-10 * np.max(np.abs(chi))


def test_momentum_transform_parseval_and_symmetry():
    table = airy_zeros(3)
    pg = SCALES.momentum
    p = np.linspace(-60.0, 60.0, 12001) * pg
    for n in (1, 3):
        ct = eigenfunction_momentum(n, p, table, SCALES)
        norm = np.trapezoid(np.abs(ct) ** 2, p)
        assert norm == pytest.approx(1.0, abs=5e-6)
        # conjugate symmetry chi~(-p) = conj(chi~(p)) for a real chi
        np.testing.assert_allclose(ct[::-1], np.conj(ct), atol=1e-12 / math.sqrt(pg))


def test_momentum_peak_location():
    table = airy_zeros(1)
    pg = SCALES.momentum
    p = np.linspace(-4.0, 4.0, 1601) * pg
    ct = np.abs(eigenfunction_momentum(1, p, table, SCALES)) ** 2
    ppk = abs(p[np.argmax(ct)]) / pg
    assert ppk < 1.6 * math.sqrt(table.lam(1))


def test_momentum_matrix_matches_single_mode():
    table = airy_zeros(8)
    p = np.linspace(-20.0, 20.0, 101) * SCALES.momentum
    mat = momentum_matrix(table, p, SCALES)
    for n in (1, 4, 8):
        single = eigenfunction_momentum(n, p, table, SCALES)
        np.testing.assert_allclose(mat[n - 1], single, rtol=0, atol=5e-4 * np.max(np.abs(single)))


def test_eigenfunction_matrix_rejects_negative_grid():
    table = airy_zeros(2)
    with pytest.raises(DomainError):
        eigenfunction_matrix(table, np.array([-0.1, 0.5]))


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("n_max", [1, 7])
def test_eigenfunction_matrix_equals_serial_rows(n_max, stride):
    # bit for bit one scipy call per row, also on a strided view of a grid
    table = airy_zeros(n_max)
    xi = np.linspace(0.0, table.values[-1] + 20.0, 2001 * stride)[::stride]
    want = np.empty((n_max, xi.shape[0]))
    for k in range(n_max):
        want[k] = sps.airy(xi - table.values[k])[0]
    want /= table.ai_prime[:, None]
    assert np.array_equal(eigenfunction_matrix(table, xi), want)


def _row_error(got, want):
    """Largest deviation of each row, relative to that row's maximum."""
    return np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)


@pytest.mark.parametrize("n_max, reach, start", [
    (1, 1.32, 0.0), (1, 0.22, 0.0), (40, 1.32, 0.0), (40, 1.32, 3.7)])
def test_shifted_rows_full_width(n_max, reach, start):
    # stops equal to the grid length: whole rows, against scipy per row;
    # reach = h sqrt(lam_max) of 1.32 is that of z_samples = 2, and a grid
    # starting above lam_1 shifts that row by a negative count
    table = airy_zeros(n_max)
    step = reach / math.sqrt(table.values[-1])
    count = int((table.values[-1] + 20.0) / step) + 1
    got = airy._airy_rows(table, [start], step, np.full(n_max, count),
                          count)[0]
    want = eigenfunction_matrix(table, start + step * np.arange(count))
    assert np.max(_row_error(got, want)) <= 1e-12


def test_shifted_rows_half_step_and_stops():
    # lam_20 on a half step of the grid, |delta| = h/2 whichever way it
    # rounds; rows stop at their own counts and are 0.0 beyond
    table = airy_zeros(20)
    step = table.values[-1] / 64.5
    count = 200
    stops = np.arange(0, 200, 10)
    got = airy._airy_rows(table, [0.0], step, stops, count)[0]
    full = eigenfunction_matrix(table, step * np.arange(count))
    for k, stop in enumerate(stops):
        assert not got[k, stop:].any()
        if stop:
            err = np.max(np.abs(got[k, :stop] - full[k, :stop]))
            assert err <= 1e-12 * np.max(np.abs(full[k]))


def test_shifted_rows_truncation(monkeypatch):
    # the derived term count leaves less than 1e-15 of each row's maximum
    # to the dropped terms: eight more terms change no row by more
    table = airy_zeros(300)
    terms = airy._taylor_terms
    for reach in (1.32, 0.66, 0.22):
        step = reach / math.sqrt(table.values[-1])
        count = int((table.values[-1] + 15.0) / step) + 1
        stops = np.full(300, count)
        got = airy._airy_rows(table, [0.0], step, stops, count)[0]
        monkeypatch.setattr(airy, "_taylor_terms", lambda r: terms(r) + 8)
        more = airy._airy_rows(table, [0.0], step, stops, count)[0]
        monkeypatch.setattr(airy, "_taylor_terms", terms)
        assert np.max(_row_error(got, more)) < 1e-15


def test_shifted_rows_against_high_precision():
    # top modes of the 300-mode ladder at the coarsest grid GridSpec allows
    # (h sqrt(lam_max) = 1.32), against 30-digit mpmath at the same float
    # arguments
    mpmath.mp.dps = 30
    table = airy_zeros(300)
    step = 1.32 / math.sqrt(table.values[-1])
    count = int((table.values[-1] + 15.0) / step) + 1
    rows = airy._airy_rows(table, [0.0], step, np.full(300, count), count)[0]
    for n in (250, 299, 300):
        lam = mpmath.mpf(float(table.values[n - 1]))
        norm = mpmath.airyai(-lam, 1)
        row = rows[n - 1]
        for j in np.linspace(0, count - 1, 12).astype(int):
            ref = mpmath.airyai(mpmath.mpf(float(step * j)) - lam) / norm
            assert abs(row[j] - float(ref)) <= 1e-12 * np.max(np.abs(row))
