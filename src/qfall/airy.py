"""Airy functions, their negative zeros, and the bouncer eigenmodes.

The stationary states of an atom bouncing on a perfect mirror at z = 0 under
uniform gravity are

    chi_n(z) = Ai(z / l - lam_n) / (sqrt(l) * Ai'(-lam_n)),   z >= 0,

with l the gravitational length scale, lam_n > 0 the n-th magnitude of a zero
of Ai (Ai(-lam_n) = 0) and energy E_n = lam_n * energy_scale.  The momentum
representation is the half-line Fourier transform

    chi_tilde_n(p) = (2 pi hbar)^(-1/2) * Int_0^inf chi_n(z) exp(-i p z / hbar) dz,

evaluated here by direct oscillation-resolved quadrature.

Mode rows on a grid come from one evaluator, `_airy_rows`, which calls
scipy's Airy ufunc once per row on a pool of `cores()` threads and can stop
each row at its own sample count (the free-fall mode grid stops at each
mode's support cut).  This pool is the only one in the program.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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


def cores() -> int:
    """Cores this process may run on: the thread count of the row pool."""
    return len(os.sched_getaffinity(0))


def _airy_rows(table: AiryZeroTable, xi: np.ndarray,
               stops: np.ndarray) -> np.ndarray:
    """Rows Ai(xi_j - lam_n) / Ai'(-lam_n) for j < stops[n-1], 0.0 beyond.

    Row k goes to worker k mod W of W threads, which evens out rows whose
    stops grow with n.  The Airy ufunc releases the GIL.
    """
    out = np.zeros((table.n_max, len(xi)))

    def fill(rows):
        for k in rows:
            stop = stops[k]
            out[k, :stop] = (sps.airy(xi[:stop] - table.values[k])[0]
                             / table.ai_prime[k])

    workers = cores()
    with ThreadPoolExecutor(workers) as pool:
        shares = [pool.submit(fill, range(w, table.n_max, workers))
                  for w in range(workers)]
        for done in shares:
            done.result()
    return out


def eigenfunction_matrix(table: AiryZeroTable, xi: np.ndarray) -> np.ndarray:
    """Dimensionless mode values A[n-1, j] = Ai(xi_j - lam_n) / Ai'(-lam_n).

    chi_n(z) = A[n-1, j] / sqrt(length) on z = xi * length.  The matrix only
    depends on the dimensionless grid, so one table serves every g.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(xi >= 0.0):
        raise DomainError("mode matrix grid must satisfy xi >= 0 (no NaN)")
    return _airy_rows(table, xi, np.full(table.n_max, len(xi)))


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
