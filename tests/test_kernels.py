"""Chirped mode-sum kernel: explicit truncated sums, quadrature oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qfall import kernels
from qfall.errors import DomainError
from qfall.kernels import mode_chirp_sums, simpson_weights


def make_problem(n_modes=24, n_z=4097, seed=7, k=9):
    rng = np.random.default_rng(seed)
    z = np.linspace(0.0, 1.2e-3, n_z)
    w = simpson_weights(n_z, z[1] - z[0])
    envelope = np.exp(-((z - 4e-4) / 3e-4) ** 2)
    chi_w = np.empty((n_modes, n_z))
    idx_cut = np.empty(n_modes, dtype=np.int64)
    for n in range(n_modes):
        chi_w[n] = np.sin((n + 1) * 7e3 * z + 0.3 * n) * envelope * w
        cut = int(rng.integers(n_z // 2, n_z + 1))
        chi_w[n, cut:] = 0.0
        idx_cut[n] = cut
    alpha = 10 ** rng.uniform(5.5, 7.5, k)
    zprime = rng.uniform(-0.06, 0.06, k)
    invtau = rng.uniform(3.5, 4.5, k)
    gtau = rng.uniform(2.0, 2.7, k)
    return chi_w, z, idx_cut, alpha, zprime, invtau, gtau


class TestSimpsonWeights:
    def test_integrates_cubic_exactly(self):
        z = np.linspace(0.0, 1.0, 21)
        w = simpson_weights(21, z[1] - z[0])
        assert w @ z ** 3 == pytest.approx(0.25, rel=1e-14)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)

    def test_rejects_even_count(self):
        with pytest.raises(DomainError):
            simpson_weights(20, 0.1)
        with pytest.raises(DomainError):
            simpson_weights(21, -0.1)


class TestEngines:
    """The one chirp engine, `mode_chirp_sums`."""

    def test_cut_matches_explicit_zeroing(self):
        chi_w, z, idx_cut, alpha, zprime, invtau, gtau = make_problem(
            n_modes=6, n_z=2049)
        F, G = mode_chirp_sums(chi_w, z, idx_cut, alpha, zprime, invtau,
                               gtau)
        # each mode summed only below its cut: the dense products run over
        # the zero tails of chi_w and must give the same sums
        want_f = np.empty_like(F)
        want_g = np.empty_like(G)
        for n, cut in enumerate(idx_cut):
            d = zprime[:, None] - z[None, :cut]
            e = chi_w[n, :cut] * np.exp(1j * alpha[:, None] * d * d)
            want_f[:, n] = e.sum(axis=1)
            want_g[:, n] = (e * (d * invtau[:, None]
                                 - gtau[:, None])).sum(axis=1)
        budget = np.sum(np.abs(chi_w))
        assert np.abs(F.real - want_f.real).max() < 1e-13 * budget
        assert np.abs(F.imag - want_f.imag).max() < 1e-13 * budget
        assert np.abs(G.real - want_g.real).max() < 1e-12 * budget
        assert np.abs(G.imag - want_g.imag).max() < 1e-12 * budget

    @pytest.mark.parametrize("calls", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 63, 64, 65, 129])
    def test_equals_serial_chunk_loop(self, k, calls):
        # the kernel prepares each chunk in place in reused buffers; F and G
        # must be bit for bit those of a loop with fresh temporaries over the
        # same chunks, also at and around the chunk edges, and repeated calls
        # must neither carry state over nor hand out shared arrays
        chi_w, z, idx_cut, alpha, zprime, invtau, gtau = make_problem(
            n_modes=5, n_z=513, k=k)
        results = [mode_chirp_sums(chi_w, z, idx_cut, alpha, zprime, invtau,
                                   gtau) for _ in range(calls)]
        want_f = np.empty_like(results[0][0])
        want_g = np.empty_like(results[0][1])
        chi_t = np.ascontiguousarray(chi_w.T)
        for k0 in range(0, k, kernels._CHUNK_ROWS):
            sl = slice(k0, min(k0 + kernels._CHUNK_ROWS, k))
            d = zprime[sl][:, None] - z[None, :]
            ph = alpha[sl][:, None] * d * d
            c = np.cos(ph)
            s = np.sin(ph)
            v = d * invtau[sl][:, None] - gtau[sl][:, None]
            want_f[sl] = (c @ chi_t) + 1j * (s @ chi_t)
            want_g[sl] = ((c * v) @ chi_t) + 1j * ((s * v) @ chi_t)
        for F, G in results:
            assert np.array_equal(F, want_f)
            assert np.array_equal(G, want_g)

    def test_shape_validation(self):
        chi_w, z, idx_cut, alpha, zprime, invtau, gtau = make_problem(4, 513)
        with pytest.raises(DomainError):
            mode_chirp_sums(chi_w, z[:-1], idx_cut, alpha, zprime, invtau,
                            gtau)
        bad_cut = idx_cut.copy()
        bad_cut[0] = z.shape[0] + 5
        with pytest.raises(DomainError):
            mode_chirp_sums(chi_w, z, bad_cut, alpha, zprime, invtau, gtau)


class TestQuadratureOracle:
    def test_single_profile_against_adaptive_quadrature(self):
        # one smooth profile, moderate chirp: the weighted sum must match an
        # independent adaptive integration of the same integrand
        n_z = 4001
        z = np.linspace(0.0, 1.0, n_z)
        w = simpson_weights(n_z, z[1] - z[0])
        profile = np.exp(-((z - 0.42) / 0.11) ** 2)
        chi_w = (profile * w)[None, :]
        idx_cut = np.asarray([n_z], dtype=np.int64)
        alpha = np.asarray([40.0])
        zprime = np.asarray([0.3])
        invtau = np.asarray([2.0])
        gtau = np.asarray([0.7])
        F, G = mode_chirp_sums(chi_w, z, idx_cut, alpha, zprime, invtau,
                               gtau)

        def fre(x):
            return math.exp(-((x - 0.42) / 0.11) ** 2) * math.cos(
                40.0 * (0.3 - x) ** 2)

        def fim(x):
            return math.exp(-((x - 0.42) / 0.11) ** 2) * math.sin(
                40.0 * (0.3 - x) ** 2)

        def gre(x):
            return fre(x) * ((0.3 - x) * 2.0 - 0.7)

        def gim(x):
            return fim(x) * ((0.3 - x) * 2.0 - 0.7)

        want_f = quad(fre, 0, 1, limit=200)[0] + 1j * quad(fim, 0, 1,
                                                           limit=200)[0]
        want_g = quad(gre, 0, 1, limit=200)[0] + 1j * quad(gim, 0, 1,
                                                           limit=200)[0]
        assert F[0, 0] == pytest.approx(want_f, rel=1e-8)
        assert G[0, 0] == pytest.approx(want_g, rel=1e-8)
