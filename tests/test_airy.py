import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import quad

from qfall import airy
from qfall.airy import (AiryZeroTable, airy_zero_guess, airy_zeros,
                        eigenfunction, eigenfunction_matrix,
                        eigenfunction_momentum, momentum_matrix, support_cut)
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
    cut = support_cut(1, table, SCALES)
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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_max", [1, 7])
def test_eigenfunction_matrix_equals_serial_rows(monkeypatch, n_max,
                                                 workers):
    # the rows run on a thread pool, row k on worker k mod W: the result
    # must be bit for bit that of one scipy call per row in one thread,
    # also when n_max is below or not a multiple of W
    monkeypatch.setattr(airy, "cores", lambda: workers)
    table = airy_zeros(n_max)
    xi = np.linspace(0.0, table.values[-1] + 20.0, 2001)
    want = np.empty((n_max, xi.shape[0]))
    for k in range(n_max):
        want[k] = sps.airy(xi - table.values[k])[0]
    want /= table.ai_prime[:, None]
    assert np.array_equal(eigenfunction_matrix(table, xi), want)
