"""Hot numerical kernel: the chirped mode sums as dense matrix products.

The free-fall map needs, for every lattice time tau_k, the chirped mode sums

    F[k, n] = sum_j chi_w[n, j] * exp(i alpha_k (zprime_k - z_j)^2)
    G[k, n] = sum_j chi_w[n, j] * exp(i alpha_k (zprime_k - z_j)^2)
              * ((zprime_k - z_j) * invtau_k - gtau_k)

where chi_w carries the mode profiles with quadrature weights folded in.
`mode_chirp_sums` chunks the lattice axis and maps the work onto real
matrix products over the whole z grid; each mode's cut at `idx_cut` is
carried by the zero tail of its chi_w row.  Each chunk's element-wise
preparation (phases, cos, sin and the velocity factor) runs serially into
four reused chunk buffers; the four products then run in BLAS as one call
each.  Splitting the preparation over threads gained nothing: OpenBLAS's
threads keep spinning after each product and hold the cores.
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
    # c, s, c*v and s*v of one chunk
    c, s, cv, sv = (np.empty((min(K, _CHUNK_ROWS), z.shape[0]))
                    for _ in range(4))
    for k0 in range(0, K, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, K - k0)
        sl = slice(k0, k0 + rows)
        # d (then v) lives in the c*v rows and the phase in the s rows until
        # sin overwrites it, so the loop allocates no (rows, J) temporaries
        d = np.subtract(zprime[sl][:, None], z[None, :], out=cv[:rows])
        ph = np.multiply(alpha[sl][:, None], d, out=s[:rows])
        np.multiply(ph, d, out=ph)
        np.cos(ph, out=c[:rows])
        np.sin(ph, out=ph)
        v = np.multiply(d, invtau[sl][:, None], out=d)
        np.subtract(v, gtau[sl][:, None], out=v)
        np.multiply(s[:rows], v, out=sv[:rows])
        np.multiply(c[:rows], v, out=v)
        F[sl] = (c[:rows] @ chi_t) + 1j * (s[:rows] @ chi_t)
        G[sl] = (cv[:rows] @ chi_t) + 1j * (sv[:rows] @ chi_t)
    return F, G
