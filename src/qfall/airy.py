"""Airy functions, their negative zeros, and the bouncer eigenmodes.

The stationary states of an atom bouncing on a perfect mirror at z = 0 under
uniform gravity are

    chi_n(z) = Ai(z / l - lam_n) / (sqrt(l) * Ai'(-lam_n)),   z >= 0,

with l the gravitational length scale, lam_n > 0 the n-th magnitude of a zero
of Ai (Ai(-lam_n) = 0) and energy E_n = lam_n * energy_scale.  The momentum
representation is the half-line Fourier transform

    chi_tilde_n(p) = (2 pi hbar)^(-1/2) * Int_0^inf chi_n(z) exp(-i p z / hbar) dz,

evaluated here by direct oscillation-resolved quadrature.

Mode rows on an arbitrary grid (`eigenfunction_matrix`) take one scipy
Airy call per row.  The free-fall mode grid is uniform, xi_j = j h, and so
are the overlap's Gauss-Legendre nodes of one Gauss point across equal
panels, xi_j = x0 + j h.  On such grids `_airy_rows` builds the rows by a
Taylor shift instead: with lam_n - x0 = m_n h + delta_n and
|delta_n| <= h/2, row n is Ai on the base grid y_i = i h, moved by -m_n
samples and expanded in -delta_n.  Ai and Ai' are evaluated once on that
base grid, shared by every row and origin, and the higher derivatives
follow from the Airy equation, A_{p+2} = y A_p + p A_{p-1}.  The term count
follows from h sqrt(lam_max), so that the dropped terms stay below 1e-15 of
a row's maximum on every grid; the rows then differ from scipy's by about
1e-13 of their maximum, the cost of rounding the argument xi - lam_n (up
to 2.4e-12 on the 1000-mode overlap nodes, which see only the small
oscillations of the top rows near xi = 0).  Each row stops at its own
sample count (the mode's support cut).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from .errors import DomainError, NumericsError
from .kernels import simpson_weights
from .physcore import CONSTANTS, GravScales

#: Dimensionless support cut: Ai(x) has fallen below ~1e-16 of its peak for
#: x >= 15, so mode n is negligible beyond (lam_n + SUPPORT_PAD) * length.
SUPPORT_PAD = 15.0
#: Default absorber edge over the largest retained mode.
Z_MAX_PAD = 10.0
#: Momentum-transform quadrature points per fastest Airy or Fourier period.
MOMENTUM_SAMPLES = 12.0
#: Bound on the dropped Taylor terms of a shifted mode row, relative to the
#: row's maximum.
SHIFT_TOL = 1e-16


def airy_zero_guess(n):
    """Asymptotic estimate (3 pi (4n - 1) / 8)^(2/3) of lam_n (vectorized)."""
    n = np.asarray(n)
    return (3.0 * np.pi * (4.0 * n - 1.0) / 8.0) ** (2.0 / 3.0)


@dataclass(frozen=True)
class AiryZeroTable:
    """Magnitudes lam_n of the first n_max negative zeros of Ai, ascending.

    values[k] is lam_{k+1}; ai_prime[k] is Ai'(-lam_{k+1}), needed for the
    eigenmode normalization.
    """

    n_max: int
    values: np.ndarray
    ai_prime: np.ndarray

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError("zero table needs n_max >= 1")
        if len(self.values) != self.n_max or len(self.ai_prime) != self.n_max:
            raise DomainError("zero table arrays must have length n_max")
        if np.any(np.diff(self.values) <= 0.0) or self.values[0] <= 0.0:
            raise DomainError("zero magnitudes must be positive and strictly increasing")

    def lam(self, n: int) -> float:
        """lam_n for a 1-based mode index."""
        if not 1 <= n <= self.n_max:
            raise DomainError(f"mode index {n} outside [1, {self.n_max}]")
        return float(self.values[n - 1])

    @property
    def support(self) -> np.ndarray:
        """Support cut lam_n + SUPPORT_PAD of every mode, in units of the
        gravitational length."""
        return self.values + SUPPORT_PAD


def airy_zeros(n_max: int) -> AiryZeroTable:
    """First n_max zeros of Ai with the matching Ai' values."""
    if not (isinstance(n_max, (int, np.integer)) and n_max >= 1):
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    if n_max > 100000:
        raise DomainError("n_max unreasonably large (> 1e5)")
    a, _, _, _ = sps.ai_zeros(int(n_max))
    lam = -a
    aip = sps.airy(-lam)[1]
    if np.any(~np.isfinite(lam)) or np.any(aip == 0.0):
        raise NumericsError("Airy zero computation returned invalid values")
    return AiryZeroTable(n_max=int(n_max), values=lam, ai_prime=aip)


def eigenfunction(n: int, z, table: AiryZeroTable, scales: GravScales):
    """chi_n(z) in SI units (1/sqrt(m)); zero for z < 0 (hard mirror)."""
    lam = table.lam(n)
    z = np.asarray(z, dtype=float)
    xi = z / scales.length
    out = sps.airy(xi - lam)[0] / (math.sqrt(scales.length) * table.ai_prime[n - 1])
    return np.where(z >= 0.0, out, 0.0)


def _taylor_terms(reach: float) -> int:
    """Smallest P >= 1 with reach^(P+1) / (P+1)! <= SHIFT_TOL.

    On the base grid |y| <= lam_max, where the p-th derivative of Ai is at
    most about |y|^(p/2) times the row's maximum, so term p of a shift by
    |delta| <= h/2 is bounded by reach^p / p! with reach = h sqrt(lam_max) / 2.
    """
    terms, bound = 1, reach * reach / 2.0
    while bound > SHIFT_TOL:
        terms += 1
        bound *= reach / (terms + 1)
    return terms


def _airy_rows(table: AiryZeroTable, starts, step: float,
               stops: np.ndarray, count: int) -> np.ndarray:
    """Rows Ai(xi_j - lam_n) / Ai'(-lam_n) on the grids xi_j = s + j * step,
    one for each origin s >= 0 in `starts`, for j < stops[n-1] and 0.0
    beyond, j < count; shape (len(starts), n_max, count).  This is the
    Taylor shift of the module docstring, with one base grid for all."""
    starts = np.asarray(starts, dtype=float)
    m = np.rint((table.values[None, :] - starts[:, None])
                / step).astype(np.int64)
    delta = table.values[None, :] - starts[:, None] - m * step
    lo = int(m.max())
    y = (np.arange(lo + int(np.max(stops - m))) - lo) * step
    terms = _taylor_terms(0.5 * step * math.sqrt(table.values[-1]))
    deriv = np.empty((terms + 1, y.shape[0]))
    deriv[0], deriv[1] = sps.airy(y)[:2]
    for p in range(terms - 1):
        deriv[p + 2] = y * deriv[p]
        if p:
            deriv[p + 2] += p * deriv[p - 1]
    powers = np.arange(terms + 1)
    coeff = (np.power.outer(-delta, powers)
             / (sps.factorial(powers)[None, :] * table.ai_prime[:, None]))
    out = np.zeros((starts.shape[0], table.n_max, count))
    for (s, k), off in np.ndenumerate(lo - m):
        out[s, k, :stops[k]] = coeff[s, k] @ deriv[:, off:off + stops[k]]
    return out


def eigenfunction_matrix(table: AiryZeroTable, xi: np.ndarray) -> np.ndarray:
    """Dimensionless mode values A[n-1, j] = Ai(xi_j - lam_n) / Ai'(-lam_n).

    chi_n(z) = A[n-1, j] / sqrt(length) on z = xi * length.  The matrix only
    depends on the dimensionless grid, so one table serves every g.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(xi >= 0.0):
        raise DomainError("mode matrix grid must satisfy xi >= 0 (no NaN)")
    out = np.empty((table.n_max, len(xi)))
    for k in range(table.n_max):
        out[k] = sps.airy(xi - table.values[k])[0] / table.ai_prime[k]
    return out


def _momentum_quadrature_grid(lam: float, w_max: float):
    """Uniform Simpson grid resolving both Airy and Fourier oscillations."""
    span = lam + SUPPORT_PAD
    step = 2.0 * np.pi / (max(math.sqrt(lam), w_max, 1e-9) * MOMENTUM_SAMPLES)
    npts = int(math.ceil(span / step)) + 1
    if npts % 2 == 0:
        npts += 1
    xi = np.linspace(0.0, span, npts)
    return xi, simpson_weights(npts, xi[1] - xi[0])


def eigenfunction_momentum(n: int, p, table: AiryZeroTable,
                           scales: GravScales):
    """chi_tilde_n(p) by direct quadrature (p scalar or array, SI)."""
    lam = table.lam(n)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    w = p * scales.length / CONSTANTS.hbar  # dimensionless frequency
    xi, wts = _momentum_quadrature_grid(lam, float(np.max(np.abs(w))))
    a = sps.airy(xi - lam)[0] / table.ai_prime[n - 1]
    phase = np.exp(-1j * np.outer(w, xi))
    t = phase @ (wts * a)
    pref = math.sqrt(scales.length / (2.0 * np.pi * CONSTANTS.hbar))
    out = pref * t
    return out if out.size > 1 else out[0]


def momentum_matrix(table: AiryZeroTable, p: np.ndarray,
                    scales: GravScales) -> np.ndarray:
    """chi_tilde_n on a shared momentum grid, rows n = 1..n_max.

    One common Simpson grid (sized for the largest mode and frequency) serves
    every row; lower modes are simply resolved better than required.
    """
    p = np.asarray(p, dtype=float)
    w = p * scales.length / CONSTANTS.hbar
    lam_top = float(table.values[-1])
    xi, wts = _momentum_quadrature_grid(lam_top, float(np.max(np.abs(w))))
    aw = eigenfunction_matrix(table, xi) * wts
    ec = np.cos(np.outer(xi, w))
    es = np.sin(np.outer(xi, w))
    pref = math.sqrt(scales.length / (2.0 * np.pi * CONSTANTS.hbar))
    return pref * ((aw @ ec) - 1j * (aw @ es))
