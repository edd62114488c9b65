"""Chirped mode-sum kernel: explicit truncated sums, quadrature oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from qfall.errors import DomainError
from qfall.kernels import (_BLOCK, _CHUNK_ROWS, _SEG_BLOCKS, mode_chirp_sums,
                           simpson_weights)


def make_problem(n_modes=24, n_z=4097, seed=7, k=9, cuts=None):
    # random cuts in the upper half of the grid unless `cuts` are given
    rng = np.random.default_rng(seed)
    z = np.linspace(0.0, 1.2e-3, n_z)
    w = simpson_weights(n_z, z[1] - z[0])
    envelope = np.exp(-((z - 4e-4) / 3e-4) ** 2)
    chi_w = np.empty((n_modes, n_z))
    idx_cut = np.empty(n_modes, dtype=np.int64)
    for n in range(n_modes):
        chi_w[n] = np.sin((n + 1) * 7e3 * z + 0.3 * n) * envelope * w
        cut = int(rng.integers(n_z // 2, n_z + 1)) if cuts is None \
            else cuts[n]
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


def explicit_sums(chi_w, z, idx_cut, alpha, zprime, invtau, gtau,
                  dtype=np.float64):
    """F, G term by term, each mode summed only below its cut, in `dtype`."""
    z = z.astype(dtype)
    alpha, zprime, invtau, gtau = (x.astype(dtype)[:, None] for x in (
        alpha, zprime, invtau, gtau))
    F = np.empty((alpha.shape[0], chi_w.shape[0]), dtype=complex)
    G = np.empty_like(F)
    for n, cut in enumerate(idx_cut):
        d = zprime - z[None, :cut]
        ph = alpha * d * d
        chi = chi_w[n, :cut].astype(dtype)
        v = d * invtau - gtau
        c, s = chi * np.cos(ph), chi * np.sin(ph)
        F[:, n] = c.sum(axis=1) + 1j * s.sum(axis=1)
        G[:, n] = (c * v).sum(axis=1) + 1j * (s * v).sum(axis=1)
    return F, G


def assert_within(F, G, want_f, want_g, budget, f_rel, g_rel):
    # real and imaginary parts, per mode, against budget (per mode or one)
    for got, want, rel in ((F, want_f, f_rel), (G, want_g, g_rel)):
        for part in (np.real, np.imag):
            err = np.abs(part(got) - part(want)).max(axis=0)
            assert np.all(err < rel * budget), (err / budget).max()


class TestEngines:
    """The one chirp engine, `mode_chirp_sums`."""

    def test_cut_matches_explicit_zeroing(self):
        problem = make_problem(n_modes=6, n_z=2049)
        F, G = mode_chirp_sums(*problem)
        # each mode summed only below its cut: the products run over the
        # zero tails of chi_w in segments that start below the cut and
        # must give the same sums
        want_f, want_g = explicit_sums(*problem)
        assert_within(F, G, want_f, want_g, np.sum(np.abs(problem[0])),
                      1e-13, 1e-12)

    @pytest.mark.parametrize("calls", [1, 2, 3])
    @pytest.mark.parametrize("k", [
        1, _CHUNK_ROWS // 2 - 1, _CHUNK_ROWS // 2, _CHUNK_ROWS // 2 + 1,
        _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
    def test_equals_serial_chunk_loop(self, k, calls):
        # the kernel prepares each chunk in reused buffers, sized by the
        # lattice when it is shorter than a chunk; there and at and around
        # the chunk edges F and G must be the explicit sums (taken in
        # extended precision, which a float64 sum of these phases is not),
        # and repeated calls must neither carry state over nor hand out
        # shared arrays
        problem = make_problem(n_modes=5, n_z=513, k=k)
        results = [mode_chirp_sums(*problem) for _ in range(calls)]
        want_f, want_g = explicit_sums(*problem, dtype=np.longdouble)
        F0, G0 = results[0]
        assert_within(F0, G0, want_f, want_g, np.sum(np.abs(problem[0])),
                      1e-13, 1e-12)
        for i, (F, G) in enumerate(results):
            assert np.array_equal(F, F0)
            assert np.array_equal(G, G0)
            assert not np.shares_memory(F, G)
            for F1, G1 in results[:i]:
                for x in (F, G):
                    assert not np.shares_memory(x, F1)
                    assert not np.shares_memory(x, G1)

    def test_staircase_of_cuts(self):
        # three whole height segments and a part one; the cuts, in no
        # order, lie at 0, on a segment start, one height past one and at
        # n_z: the last two segments skip a prefix of 2 and 3 modes, and a
        # mode that ends one height into a segment is kept in it
        seg = _SEG_BLOCKS * _BLOCK
        n_z = 3 * seg + 37
        cuts = [2 * seg, 0, 2 * seg + 1, n_z, seg, seg + 1]
        problem = make_problem(n_modes=6, n_z=n_z, k=_CHUNK_ROWS + 1,
                               cuts=cuts)
        F, G = mode_chirp_sums(*problem)
        want_f, want_g = explicit_sums(*problem, dtype=np.longdouble)
        assert_within(F, G, want_f, want_g, np.sum(np.abs(problem[0])),
                      1e-13, 1e-12)
        assert not F[:, 1].any() and not G[:, 1].any()

    @pytest.mark.parametrize("n_z", [3, 5, 31, 33, 65])
    def test_short_grids(self, n_z):
        # grids shorter than and around one block of heights: the chunk's
        # padded heights past n_z must not reach the sums
        problem = make_problem(n_modes=5, n_z=n_z, k=9)
        F, G = mode_chirp_sums(*problem)
        want_f, want_g = explicit_sums(*problem, dtype=np.longdouble)
        assert_within(F, G, want_f, want_g, np.sum(np.abs(problem[0])),
                      1e-13, 1e-12)

    def test_mode_matrix_is_not_copied(self):
        # the products take chi_w as it is given: on one lattice time the
        # traced peak is a small fraction of the mode matrix
        problem = make_problem(n_modes=300, n_z=4097, k=1)
        tracemalloc.start()
        try:
            mode_chirp_sums(*problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * problem[0].nbytes

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_against_extended_precision(self, seed):
        # phases up to 1e5 rad: a float64 phase is off by ~1e-11 rad, so
        # the kernel must reduce its anchor phases in extended precision
        problem = make_problem(n_modes=6, n_z=2049, seed=seed, k=40)
        F, G = mode_chirp_sums(*problem)
        want_f, want_g = explicit_sums(*problem, dtype=np.longdouble)
        assert_within(F, G, want_f, want_g,
                      np.sum(np.abs(problem[0]), axis=1), 1e-13, 1e-13)

    def test_shape_validation(self):
        chi_w, z, idx_cut, alpha, zprime, invtau, gtau = make_problem(4, 513)
        with pytest.raises(DomainError):
            mode_chirp_sums(chi_w, z[:-1], idx_cut, alpha, zprime, invtau,
                            gtau)
        bad_cut = idx_cut.copy()
        bad_cut[0] = z.shape[0] + 5
        with pytest.raises(DomainError):
            mode_chirp_sums(chi_w, z, bad_cut, alpha, zprime, invtau, gtau)
        # the chirp recurrence needs a uniform grid of two points or more
        with pytest.raises(DomainError):
            mode_chirp_sums(chi_w[:, :1], z[:1], np.ones(4, dtype=np.int64),
                            alpha, zprime, invtau, gtau)
        bent = z.copy()
        bent[200] += 1e-6 * (z[1] - z[0])
        with pytest.raises(DomainError):
            mode_chirp_sums(chi_w, bent, idx_cut, alpha, zprime, invtau, gtau)
        # the products are real: a complex mode matrix would lose its
        # imaginary part
        with pytest.raises(DomainError):
            mode_chirp_sums(chi_w * (1 + 1j), z, idx_cut, alpha, zprime,
                            invtau, gtau)


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
