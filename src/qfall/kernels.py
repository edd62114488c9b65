"""Hot numerical kernel: the chirped mode sums as real matrix products.

The free-fall map needs, for every lattice time tau_k, the chirped mode sums

    F[k, n] = sum_j chi_w[n, j] * exp(i alpha_k (zprime_k - z_j)^2)
    G[k, n] = sum_j chi_w[n, j] * exp(i alpha_k (zprime_k - z_j)^2)
              * ((zprime_k - z_j) * invtau_k - gtau_k)

where chi_w carries the mode profiles with quadrature weights folded in and
is zero past each mode's cut at `idx_cut`.  `mode_chirp_sums` chunks the
lattice axis and walks the z grid in segments of `_SEG_BLOCKS` anchor
blocks: each segment is one real matrix product of a view of chi_w, over
the modes past the longest prefix whose cuts lie at or below the segment's
first height, and the segments accumulate into one F and H buffer.  The
zero tails are what lets the products skip the modes whose support has
ended; a mode after that prefix is still summed through its zeros.  The
mode grid's cuts rise with n, so there every mode stops at the segment
that holds its cut.

The z grid is uniform, z_j = z_0 + j h.  With j = B m + b and the anchor
u = zprime_k - z_{Bm} of each block of B heights,

    exp(i alpha (u - b h)^2) = exp(i alpha u^2) w^b c_b,
    w = exp(-2i alpha h u),  c_b = exp(i alpha b^2 h^2),

so `cos` and `sin` run once per block and the other heights follow by
complex multiplication.  The anchor phase alpha u^2 reaches 1e5 rad, so it
is formed and reduced mod 2 pi in extended precision: a float64 phase
error there (~1e-11 rad) would be shared by the whole block.  G needs no
second chirp array:

    G = ((zprime - z_0) invtau - gtau) F - invtau H,
    H = sum_j chi_w[n, j] (z_j - z_0) exp(i alpha (zprime - z_j)^2),

and F and H come out of the same products: a view of the mode matrix,
never copied, against one row per height (z order) of the columns [Re e;
Im e; Re (z - z_0) e; Im (z - z_0) e], e = exp(i alpha (zprime - z)^2), of
the chunk's lattice times over one segment; only the small z offset table
is block ordered.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

#: lattice times per chunk
_CHUNK_ROWS = 128
#: heights per chirp anchor; the other B - 1 follow by complex recurrence
_BLOCK = 32
#: anchor blocks per height segment of one product
_SEG_BLOCKS = 32
#: 2 pi in extended precision, for the anchor phase reduction
_TWO_PI = 2 * np.arccos(np.longdouble(-1))
#: largest departure of z from its uniform line, in grid steps
_UNIFORM_TOL = 1e-9


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


def lagrange_weights(x, nodes, bary) -> np.ndarray:
    """Weights (..., P) at the points x of the Lagrange interpolant through
    P nodes (broadcast against x[..., None]) with barycentric weights
    `bary`: value = weights @ node values.  A node takes itself alone."""
    diff = np.asarray(x, dtype=float)[..., None] - nodes
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a = bary / diff
        w = a / a.sum(axis=-1, keepdims=True)
    return np.where(hit.any(axis=-1, keepdims=True), hit * 1.0, w)


def _check_inputs(chi_w, z, idx_cut, alpha, zprime, invtau, gtau):
    if chi_w.ndim != 2 or z.ndim != 1 or chi_w.shape[1] != z.shape[0]:
        raise DomainError("chi_w must be (n_modes, n_z) matching z")
    if np.iscomplexobj(chi_w):
        raise DomainError("chi_w must be real")
    if idx_cut.shape != (chi_w.shape[0],):
        raise DomainError("idx_cut must hold one sample count per mode")
    if np.any(idx_cut < 0) or np.any(idx_cut > z.shape[0]):
        raise DomainError("idx_cut entries must lie in [0, n_z]")
    for arr in (alpha, zprime, invtau, gtau):
        if arr.shape != alpha.shape or arr.ndim != 1:
            raise DomainError("lattice parameter arrays must share one shape")
    if z.shape[0] < 2:
        raise DomainError("z needs at least 2 points")
    # the chirp recurrence steps every height by one h from its anchor
    h = (z[-1] - z[0]) / (z.shape[0] - 1)
    drift = np.abs(z - (z[0] + h * np.arange(z.shape[0])))
    if not np.all(drift <= _UNIFORM_TOL * abs(h)):
        raise DomainError("z must be a uniform grid")


def mode_chirp_sums(chi_w, z, idx_cut, alpha, zprime, invtau, gtau):
    """F, G of shape (K, n_modes) for the K lattice times of alpha.

    The lattice axis runs in chunks of `_CHUNK_ROWS` rows and the z grid in
    segments of `_SEG_BLOCKS` anchor blocks.  Each segment is one product
    of a view of chi_w against the segment's chirp columns, over the modes
    past the longest prefix whose `idx_cut` is at or below the segment's
    first height; chi_w must already be zero past each mode's `idx_cut`,
    and z must be uniform.
    """
    _check_inputs(chi_w, z, idx_cut, alpha, zprime, invtau, gtau)
    K, N = alpha.shape[0], chi_w.shape[0]
    J, B, S = z.shape[0], _BLOCK, _SEG_BLOCKS
    M = -(-J // B)
    h = (z[-1] - z[0]) / (J - 1)
    # z from z[0], so that H carries no offset; height B m + b at [b, m]
    z_p = np.pad(z - z[0], (0, M * B - J)).reshape(M, B).T
    anchors = z[::B].astype(np.longdouble)[:, None]
    offsets_sq = (h * np.arange(B))[:, None] ** 2
    # a segment starting at height a needs the modes from the first one
    # whose cut, or an earlier mode's, lies past a
    reach = np.maximum.accumulate(idx_cut)
    F = np.empty((K, N), dtype=np.complex128)
    G = np.empty((K, N), dtype=np.complex128)
    C = min(K, _CHUNK_ROWS)
    # one row per height of a segment, padded to whole blocks, and the
    # columns [Re e; Im e; Re (z - z_0) e; Im (z - z_0) e] of one chunk's
    # lattice times; F and H of the chunk in the same column order
    buf = np.empty(min(M, S) * B * 4 * C)
    acc = np.empty((N, 4 * C))
    for k0 in range(0, K, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, K - k0)
        sl = slice(k0, k0 + rows)
        a = alpha[sl]
        # anchor phases exact to float64 rounding after the mod-2 pi cut:
        # one error there is shared by the B heights of its block
        u = zprime[sl].astype(np.longdouble) - anchors
        phase = np.mod(a.astype(np.longdouble) * u * u, _TWO_PI)
        term = np.exp(1j * phase.astype(np.float64))
        w = np.exp(-2j * h * a * u.astype(np.float64))
        c = np.exp(1j * a * offsets_sq)
        out = acc[:, :4 * rows]
        out[...] = 0.0
        for ma in range(0, M, S):
            a0 = ma * B
            n0 = np.searchsorted(reach, a0, side="right")
            if n0 == N:
                break
            mb = min(ma + S, M)
            a1, nb = min(mb * B, J), mb - ma
            seg_term = term[ma:mb]
            seg = buf[:nb * B * 4 * rows].reshape(nb, B, 2, 2, rows)
            # e and (z - z_0) e at height b of every block of the segment,
            # as real and imaginary parts
            ez = np.empty((2, nb, rows), dtype=np.complex128)
            parts = ez.view(np.float64).reshape(2, nb, rows, 2).transpose(
                1, 0, 3, 2)
            for b in range(B):
                np.multiply(seg_term, c[b], out=ez[0])
                np.multiply(ez[0], z_p[b, ma:mb, None], out=ez[1])
                seg[:, b] = parts
                if b + 1 < B:
                    seg_term *= w[ma:mb]
            out[n0:] += chi_w[n0:, a0:a1] @ seg.reshape(nb * B, 4 * rows)[
                :a1 - a0]
        # F and H as real and imaginary parts, each (rows, N)
        f_re, f_im, h_re, h_im = out.T.reshape(4, rows, N)
        F[sl].real = f_re
        F[sl].imag = f_im
        # G = sum chi e ((zprime - z) / tau - g tau) = v0 F - H / tau
        v0 = ((zprime[sl] - z[0]) * invtau[sl] - gtau[sl])[:, None]
        it = invtau[sl][:, None]
        G[sl].real = v0 * f_re - it * h_re
        G[sl].imag = v0 * f_im - it * h_im
    return F, G
