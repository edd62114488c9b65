"""Hot numerical kernel: the chirped mode sums as dense matrix products.

The free-fall map needs, for every lattice time tau_k, the chirped mode sums

    F[k, n] = sum_j chi_w[n, j] * exp(i alpha_k (zprime_k - z_j)^2)
    G[k, n] = sum_j chi_w[n, j] * exp(i alpha_k (zprime_k - z_j)^2)
              * ((zprime_k - z_j) * invtau_k - gtau_k)

where chi_w carries the mode profiles with quadrature weights folded in.
`mode_chirp_sums` chunks the lattice axis and maps the work onto real
matrix products over the whole z grid; each mode's cut at `idx_cut` is
carried by the zero tail of its chi_w row.  Each chunk's element-wise
preparation (phases, cos, sin and the velocity factor) is split by rows over
a pool of `cores()` threads; the four products then run in BLAS as one call
each.  Every element goes through the same operations as in one serial
loop, so the sums do not depend on the number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError

_CHUNK_ROWS = 64


def cores() -> int:
    """Cores this process may run on: the thread count of the pools here
    and in `airy`."""
    return len(os.sched_getaffinity(0))


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
    # c, s, c*v and s*v of one chunk, filled row block by row block
    c, s, cv, sv = (np.empty((min(K, _CHUNK_ROWS), z.shape[0]))
                    for _ in range(4))

    def prepare(k0, r0, r1):
        sl = slice(k0 + r0, k0 + r1)
        # d (then v) lives in the c*v rows and the phase in the s rows until
        # sin overwrites it, so the workers allocate nothing
        d = np.subtract(zprime[sl][:, None], z[None, :], out=cv[r0:r1])
        ph = np.multiply(alpha[sl][:, None], d, out=s[r0:r1])
        np.multiply(ph, d, out=ph)
        np.cos(ph, out=c[r0:r1])
        np.sin(ph, out=ph)
        v = np.multiply(d, invtau[sl][:, None], out=d)
        np.subtract(v, gtau[sl][:, None], out=v)
        np.multiply(s[r0:r1], v, out=sv[r0:r1])
        np.multiply(c[r0:r1], v, out=v)

    workers = cores()
    with ThreadPoolExecutor(workers) as pool:
        for k0 in range(0, K, _CHUNK_ROWS):
            rows = min(_CHUNK_ROWS, K - k0)
            edges = [rows * i // workers for i in range(workers + 1)]
            blocks = [(r0, r1) for r0, r1 in zip(edges, edges[1:]) if r1 > r0]
            for done in [pool.submit(prepare, k0, *b) for b in blocks]:
                done.result()
            sl = slice(k0, k0 + rows)
            F[sl] = (c[:rows] @ chi_t) + 1j * (s[:rows] @ chi_t)
            G[sl] = (cv[:rows] @ chi_t) + 1j * (sv[:rows] @ chi_t)
    return F, G
