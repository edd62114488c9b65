"""Hot numerical kernel: the chirped mode sums as dense matrix products.

The free-fall map needs, for every lattice time tau_k, the chirped mode sums

    F[k, n] = sum_j chi_w[n, j] * exp(i alpha_k (zprime_k - z_j)^2)
    G[k, n] = sum_j chi_w[n, j] * exp(i alpha_k (zprime_k - z_j)^2)
              * ((zprime_k - z_j) * invtau_k - gtau_k)

where chi_w carries the mode profiles with quadrature weights folded in.
`mode_chirp_sums` chunks the lattice axis and maps the work onto real
matrix products over the whole z grid; each mode's cut at `idx_cut` is
carried by the zero tail of its chi_w row.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_CHUNK_ROWS = 64


def get_engine() -> str:
    """The one chirp engine, "numpy" (kept for callers that record it)."""
    return "numpy"


def simpson_weights(count: int, step: float) -> np.ndarray:
    """Composite Simpson weights for `count` uniform samples (count odd)."""
    if count < 3 or count % 2 == 0:
        raise DomainError("Simpson rule needs an odd sample count >= 3")
    if step <= 0.0:
        raise DomainError("step must be positive")
    w = np.full(count, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (step / 3.0)


def _check_inputs(chi_w, z, idx_cut, alpha, zprime, invtau, gtau):
    if chi_w.ndim != 2 or z.ndim != 1 or chi_w.shape[1] != z.shape[0]:
        raise DomainError("chi_w must be (n_modes, n_z) matching z")
    if idx_cut.shape != (chi_w.shape[0],):
        raise DomainError("idx_cut must hold one sample count per mode")
    if np.any(idx_cut < 0) or np.any(idx_cut > z.shape[0]):
        raise DomainError("idx_cut entries must lie in [0, n_z]")
    for arr in (alpha, zprime, invtau, gtau):
        if arr.shape != alpha.shape or arr.ndim != 1:
            raise DomainError("lattice parameter arrays must share one shape")


def mode_chirp_sums(chi_w, z, idx_cut, alpha, zprime, invtau, gtau):
    """F, G of shape (K, n_modes) for the K lattice times of alpha.

    The lattice axis runs in chunks of `_CHUNK_ROWS` rows, each a set of
    dense products over the full z grid; chi_w must already be zero past
    each mode's `idx_cut`.
    """
    _check_inputs(chi_w, z, idx_cut, alpha, zprime, invtau, gtau)
    K, N = alpha.shape[0], chi_w.shape[0]
    F = np.empty((K, N), dtype=np.complex128)
    G = np.empty((K, N), dtype=np.complex128)
    chi_t = np.ascontiguousarray(chi_w.T)
    for k0 in range(0, K, _CHUNK_ROWS):
        sl = slice(k0, min(k0 + _CHUNK_ROWS, K))
        d = zprime[sl][:, None] - z[None, :]
        ph = alpha[sl][:, None] * d * d
        c = np.cos(ph)
        s = np.sin(ph)
        v = d * invtau[sl][:, None] - gtau[sl][:, None]
        F[sl] = (c @ chi_t) + 1j * (s @ chi_t)
        G[sl] = ((c * v) @ chi_t) + 1j * ((s * v) @ chi_t)
    return F, G
