"""Sampling self-consistency, likelihood scans, and campaign statistics.

The sampler and the likelihood read the same bilinear surface, so the
goodness-of-fit and efficiency checks are exact statements about the
discretized family, not approximations to the continuum.
"""

import math

import numpy as np
import pytest

from qfall.errors import DomainError
from qfall.freefall import cell_masses
from qfall.inference import (N_SCAN, NODE_TAIL, REL_WINDOW, CampaignResult,
                             EventSet, GridDensityFamily, _bilinear_at,
                             _invert_linear, _refine_peak, _scan_lattice,
                             count_information, cramer_rao_sigma, estimate_g,
                             fisher_information, log_likelihood,
                             replicate_rng, run_campaign, sample_events)
from qfall.mirror import DiskGeometry
from qfall.physcore import G_DEFAULT
from qfall.source import build_photodetach, build_trap

EV = 1.602176634e-19
GEO = DiskGeometry(release_height=10e-6, travel_distance=0.05,
                   fall_height=0.3)
SEED = 20260822


@pytest.fixture(scope="module")
def family():
    return GridDensityFamily(50, build_trap(20e3),
                             build_photodetach(10e-6 * EV), GEO)


@pytest.fixture(scope="module")
def fmap(family):
    return family.map_at(family.g0)


@pytest.fixture(scope="module")
def big_sample(fmap):
    return sample_events(fmap, 10_000_000, replicate_rng(SEED, 0))


class TestRng:
    def test_streams_reproducible_and_independent(self):
        a = replicate_rng(SEED, 3).random(5)
        b = replicate_rng(SEED, 3).random(5)
        c = replicate_rng(SEED, 4).random(5)
        d = replicate_rng(SEED + 1, 3).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestInCellInversion:
    def test_matches_linear_density(self):
        rng = np.random.default_rng(11)
        a, b = 0.3, 1.7
        x = _invert_linear(np.full(200000, a), np.full(200000, b),
                           rng.random(200000))
        # CDF at x is (a x + (b - a) x^2 / 2) / ((a + b) / 2)
        for q in (0.25, 0.5, 0.75):
            want = (a * q + 0.5 * (b - a) * q * q) / (0.5 * (a + b))
            got = np.mean(x <= q)
            assert got == pytest.approx(want, abs=4.0 / math.sqrt(200000))

    def test_degenerate_cases(self):
        r = np.asarray([0.0, 0.3, 1.0])
        flat = _invert_linear(np.ones(3), np.ones(3), r)
        assert flat == pytest.approx(r, abs=1e-12)
        # density vanishing at the left edge: x = sqrt(r)
        left = _invert_linear(np.zeros(3), np.ones(3), r)
        assert left == pytest.approx(np.sqrt(r), abs=1e-12)
        right = _invert_linear(np.ones(3), np.zeros(3), r)
        assert right == pytest.approx(1 - np.sqrt(1 - r), abs=1e-12)


class TestSampling:
    def test_detected_count_tracks_fraction(self, fmap, big_sample):
        p = fmap.metadata["fraction"]
        n = 10_000_000
        se = math.sqrt(n * p * (1 - p))
        assert abs(big_sample.n_detected - n * p) < 4 * se

    def test_cell_occupancy_chi2(self, fmap, big_sample):
        cnt, _, _ = np.histogram2d(big_sample.edge_time,
                                   big_sample.arrival_time,
                                   bins=[fmap.t, fmap.T])
        masses = cell_masses(fmap.density, fmap.cell_area)
        expected = masses / masses.sum() * big_sample.n_detected
        m = expected >= 20.0
        chi2 = float(((cnt[m] - expected[m]) ** 2 / expected[m]).sum())
        dof = int(m.sum())
        assert dof > 1000
        assert chi2 / dof == pytest.approx(1.0, abs=4 * math.sqrt(2.0 / dof))

    def test_azimuth_second_harmonic(self, fmap, big_sample):
        ev = big_sample
        nt, nT = fmap.density.shape
        fi = (ev.edge_time - fmap.t[0]) / (fmap.t[1] - fmap.t[0])
        fj = (ev.arrival_time - fmap.T[0]) / (fmap.T[1] - fmap.T[0])
        i = np.clip(fi.astype(int), 0, nt - 2)
        j = np.clip(fj.astype(int), 0, nT - 2)
        ratio = _bilinear_at(fmap.azimuth_ratio, i, j, fi - i, fj - j)
        got = np.cos(2.0 * (ev.azimuth - fmap.pol_angle)).mean()
        se = 1.0 / math.sqrt(2.0 * ev.n_detected)
        assert got == pytest.approx(ratio.mean() / 2.0, abs=4 * se)
        # the first harmonic vanishes for the dipole law
        assert abs(np.cos(ev.azimuth - fmap.pol_angle).mean()) < 4 * se

    def test_kick_azimuth_is_von_mises_ridge(self, family):
        kick = build_photodetach(0.0, kick_velocity=0.9)
        fam = GridDensityFamily(50, build_trap(20e3), kick, GEO)
        fm = fam.map_at(fam.g0)
        ev = sample_events(fm, 300_000, replicate_rng(SEED, 1))
        centered = np.angle(np.exp(1j * (ev.azimuth - fm.pol_angle)))
        kappa = np.interp(ev.edge_time, fm.t, fm.concentration)
        assert abs(centered.mean()) < 5.0 / math.sqrt(ev.n_detected)
        assert centered.std() == pytest.approx(
            np.mean(1.0 / np.sqrt(kappa)), rel=0.2)

    def test_events_stay_on_lattice_support(self, fmap, big_sample):
        assert big_sample.edge_time.min() >= fmap.t[0]
        assert big_sample.edge_time.max() <= fmap.t[-1]
        assert big_sample.arrival_time.min() >= fmap.T[0]
        assert big_sample.arrival_time.max() <= fmap.T[-1]
        tau = big_sample.arrival_time - big_sample.edge_time
        assert tau.min() > 0.0

    def test_radius_roundtrip(self, big_sample):
        rbar = big_sample.radius(GEO)
        t = GEO.travel_distance * big_sample.arrival_time / rbar
        assert t == pytest.approx(big_sample.edge_time, rel=1e-12)

    def test_event_set_validation(self):
        with pytest.raises(DomainError):
            EventSet(edge_time=np.ones(3), arrival_time=np.ones(2),
                     azimuth=np.ones(3), n_source=10, g_true=9.81)
        with pytest.raises(DomainError):
            EventSet(edge_time=np.ones(3), arrival_time=np.ones(3),
                     azimuth=np.ones(3), n_source=2, g_true=9.81)


class TestLikelihood:
    def test_peaks_near_truth(self, family, fmap):
        ev = sample_events(fmap, 100_000, replicate_rng(SEED, 2))
        g_values = family.g0 * (1.0 + np.linspace(-2e-4, 2e-4, 21))
        ll = [log_likelihood(ev, family.map_at(g)) for g in g_values]
        k = int(np.argmax(ll))
        assert abs(g_values[k] - family.g0) <= 2.5 * (
            g_values[1] - g_values[0])

    def test_unconditional_adds_binomial_term(self, family, fmap):
        ev = sample_events(fmap, 50_000, replicate_rng(SEED, 3))
        lc = log_likelihood(ev, fmap, conditional=True)
        lu = log_likelihood(ev, fmap, conditional=False)
        p = fmap.metadata["fraction"]
        n = ev.n_detected
        want = n * math.log(p) + (ev.n_source - n) * math.log1p(-p)
        assert lu - lc == pytest.approx(want, rel=1e-12)

    def test_model_mismatch_scores_lower(self, family, fmap):
        ev = sample_events(fmap, 50_000, replicate_rng(SEED, 4))
        l0 = log_likelihood(ev, fmap)
        l1 = log_likelihood(ev, family.map_at(family.g0 * (1 + 1.5e-4)))
        assert l0 > l1

    def test_empty_set_rejected_by_estimator(self, family):
        empty = EventSet(edge_time=np.empty(0), arrival_time=np.empty(0),
                         azimuth=np.empty(0), n_source=5, g_true=9.81)
        with pytest.raises(DomainError):
            estimate_g(empty, family)


class TestEstimator:
    def test_single_estimate_hits_truth(self, family, fmap):
        ev = sample_events(fmap, 20_000, replicate_rng(7, 0))
        est = estimate_g(ev, family)
        assert est.widened == 0
        assert est.sigma == pytest.approx(
            cramer_rao_sigma(family, 20_000), rel=0.3)
        assert abs(est.value - family.g0) < 4 * est.sigma

    def test_window_widens_to_reach_truth(self, family):
        g_shift = family.g0 * (1 + 8e-4)
        ev = sample_events(family.map_at(g_shift), 20_000,
                           replicate_rng(7, 1))
        est = estimate_g(ev, family, rel_window=1e-4, n_scan=9)
        assert est.widened >= 1
        assert est.value == pytest.approx(g_shift, abs=6 * est.sigma)
        # the last scan read a node set built over the widened window
        builds = family.builds
        nodes = family.nodes(1e-4 * 2 ** est.widened)
        assert family.builds == builds
        assert nodes.g.max() == pytest.approx(est.scan_g[-1], rel=1e-14)
        assert nodes.g.min() == pytest.approx(est.scan_g[0], rel=1e-14)

    @pytest.mark.parametrize("start, reached", [(0.125, 2), (0.3, 1),
                                                (0.6, 0)])
    def test_widening_stops_below_a_unit_window(self, start, reached):
        # a scan that always peaks on its upper edge: the window doubles
        # only while the doubled window stays below 1, which `nodes` refuses
        class EdgeNodes:
            def scan(self, events, g_values, conditional):
                return g_values.copy()

        class EdgeFamily:
            g0 = 9.81

            def __init__(self):
                self.windows = []

            def nodes(self, rel_window):
                if not 0.0 < rel_window < 1.0:
                    raise DomainError("the scan window must lie in (0, 1)")
                self.windows.append(rel_window)
                return EdgeNodes()

        fam = EdgeFamily()
        ev = EventSet(edge_time=np.ones(1), arrival_time=np.ones(1),
                      azimuth=np.zeros(1), n_source=1, g_true=9.81)
        est = estimate_g(ev, fam, rel_window=start, n_scan=5)
        assert fam.windows == [start * 2 ** k for k in range(reached + 1)]
        assert est.widened == reached
        assert math.isnan(est.sigma)
        assert est.value == est.scan_g[-1]

    def test_narrow_peak_refits_the_three_top_points(self):
        # ll = -4 ((g - g*) / h)^2 keeps only one neighbour of the top
        # within 3 log-units, so the fit falls back to the three points
        # around it, which an exact parabola fits exactly
        g = _scan_lattice(G_DEFAULT, REL_WINDOW, N_SCAN)
        h = g[1] - g[0]
        g_star = g[20] + 0.3 * h
        ll = -4.0 * ((g - g_star) / h) ** 2
        value, sigma, on_edge = _refine_peak(g, ll)
        assert not on_edge
        assert value == pytest.approx(g_star, abs=1e-6 * h)
        assert sigma == pytest.approx(h / math.sqrt(8.0), rel=1e-6)

    def test_campaign_unbiased_and_efficient(self, family):
        res = run_campaign(family, 20_000, 40, seed=SEED)
        se_mean = res.sigma_mc / math.sqrt(res.n_replicates)
        assert abs(res.bias) < 4 * se_mean
        assert 0.85 < res.sigma_ratio < 1.45
        assert res.edge_hits == 0
        assert res.sigmas.mean() == pytest.approx(res.sigma_cr, rel=0.2)
        again = run_campaign(family, 20_000, 40, seed=SEED)
        assert np.array_equal(res.estimates, again.estimates)
        other = run_campaign(family, 20_000, 40, seed=SEED + 1)
        assert not np.array_equal(res.estimates, other.estimates)

    def test_campaign_summary_round_trips(self, family):
        res = run_campaign(family, 20_000, 5, seed=3)
        s = res.summary()
        assert s["n_replicates"] == 5
        assert s["sigma_ratio"] == res.sigma_ratio
        assert s["map_builds"] == res.map_builds
        assert s["node_tail"] == family.nodes(2e-4).tail
        assert isinstance(res, CampaignResult)

    def test_campaign_builds_only_the_nodes(self):
        fam = GridDensityFamily(50, build_trap(20e3),
                                build_photodetach(10e-6 * EV), GEO)
        res = run_campaign(fam, 1000, 3, seed=SEED, rel_window=4e-4,
                           n_scan=41)
        assert res.map_builds == fam.builds == 9
        assert fam.nodes(4e-4).x.shape[0] == 9
        assert res.node_tail <= NODE_TAIL

    def test_bad_scan_fails_before_any_build(self):
        fam = GridDensityFamily(50, build_trap(20e3),
                                build_photodetach(10e-6 * EV), GEO)
        for bad in (dict(n_scan=4), dict(rel_window=1.5)):
            with pytest.raises(DomainError):
                run_campaign(fam, 1000, 3, seed=SEED, **bad)
            assert fam.builds == 0


class TestMapNodes:
    @pytest.mark.parametrize("rel_window, count", [(4e-4, 9), (1.6e-3, 17)])
    def test_interpolant_matches_direct_builds(self, family, rel_window,
                                               count):
        nodes = family.nodes(rel_window)
        assert nodes.x.shape[0] == count
        assert nodes.tail <= NODE_TAIL
        top = nodes.density.max()
        for x in (0.37, -0.61, 0.93):
            g = family.g0 * (1.0 + rel_window * x)
            direct = family.map_at(g).density
            assert np.abs(nodes.density_at(g) - direct).max() <= 1e-5 * top

    def test_center_node_is_the_direct_map(self, family, fmap):
        nodes = family.nodes(4e-4)
        c = nodes.x.shape[0] // 2
        assert nodes.g[c] == family.g0
        assert np.array_equal(nodes.density[c], fmap.density)
        assert np.array_equal(nodes.density_at(family.g0), fmap.density)
        assert nodes.normalizer[c] == fmap.normalizer

    def test_slope_differentiates_polynomials(self, family):
        # the centre row of the differentiation matrix is exact for every
        # polynomial the P nodes determine, degree <= P - 1
        nodes = family.nodes(4e-4)
        scale = family.g0 * nodes.rel_window
        u = (nodes.g - family.g0) / scale
        assert abs(nodes.slope.sum()) * scale < 1e-12   # constants
        for degree in range(1, nodes.x.shape[0]):
            coef = np.cos(np.arange(degree + 1) + 1.0)
            values = np.polynomial.polynomial.polyval(u, coef)
            assert nodes.slope @ values == pytest.approx(coef[1] / scale,
                                                         rel=1e-10)

    def test_no_extrapolation(self, family):
        nodes = family.nodes(4e-4)
        with pytest.raises(DomainError):
            nodes.weights(family.g0 * (1.0 + 5e-4))

    def test_scan_matches_direct_maps(self, family, fmap):
        rel_window, n_scan = 4e-4, 11
        nodes = family.nodes(rel_window)
        g_values = _scan_lattice(family.g0, rel_window, n_scan)
        direct = [family.map_at(g) for g in g_values]
        sigma = cramer_rao_sigma(family, 1000, rel_window=rel_window)
        c = n_scan // 2
        for r in range(4):
            ev = sample_events(fmap, 1000, replicate_rng(SEED, r))
            for conditional in (True, False):
                scan = nodes.scan(ev, g_values, conditional)
                ll = np.asarray([log_likelihood(ev, fm, conditional)
                                 for fm in direct])
                # g0 is a node: the same map, the same formula
                assert scan[c] == pytest.approx(ll[c], rel=1e-14)
                a = _refine_peak(g_values, scan)[0]
                b = _refine_peak(g_values, ll)[0]
                assert abs(a - b) < 1e-2 * sigma


class TestFisher:
    def test_finite_difference_robust(self, family):
        info = fisher_information(family, rel_window=4e-4)
        # oracle: central difference of the normalized cell masses of
        # direct builds, with a step small enough that its truncation
        # error (2.5e-4 here) stays well inside the tolerance
        step = family.g0 * 1e-5
        maps = [family.map_at(g)
                for g in (family.g0 - step, family.g0, family.g0 + step)]
        m = [cell_masses(fm.density, fm.cell_area) for fm in maps]
        mm, m0, mp = (x / x.sum() for x in m)
        mask = (m0 > 1e-14) & (mm > 0.0) & (mp > 0.0)
        score = (np.log(mp[mask]) - np.log(mm[mask])) / (2.0 * step)
        assert info > 0
        assert info == pytest.approx((m0[mask] * score * score).sum(),
                                     rel=1e-2)

    def test_count_term_is_minor(self, family):
        p = family.map_at(family.g0).metadata["fraction"]
        shape = p * fisher_information(family)
        count = count_information(family)
        assert count > 0
        assert count < 1e-3 * shape

    def test_unconditional_bound_is_tighter(self, family):
        sc = cramer_rao_sigma(family, 20_000, conditional=True)
        su = cramer_rao_sigma(family, 20_000, conditional=False)
        assert su < sc
        assert su == pytest.approx(sc, rel=1e-3)
