"""Acceptance criteria, one test and one printed PASS/FAIL line each.

Criteria 8 and 9 are full-scale campaigns (tens of minutes); they run only
when QFALL_FULLSCALE=1 is set.  Everything else runs in the regular suite,
well inside the stated runtime budgets, which are asserted too.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest
import scipy.special as sps

from qfall.airy import eigenfunction, eigenfunction_matrix, momentum_matrix
from qfall.cli import main as cli_main
from qfall.freefall import current_map_yt, propagate_profile, \
    propagator_kernel, plane_current
from qfall.gqs import build_basis, transmitted_fraction
from qfall.inference import GridDensityFamily, run_campaign
from qfall.kernels import simpson_weights
from qfall.mirror import DiskGeometry
from qfall.physcore import CONSTANTS, derive_scales
from qfall.source import build_photodetach, build_trap

EV = CONSTANTS.electron_volt
GEO = DiskGeometry(release_height=10e-6, travel_distance=0.05,
                   fall_height=0.3)
SEED = 20260822
FULLSCALE = os.environ.get("QFALL_FULLSCALE") == "1"


def _report(num: int, name: str, ok: bool, detail: str):
    print("CRITERION %d (%s): %s  [%s]"
          % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_scales():
    t0 = time.perf_counter()
    sc = derive_scales(9.81)
    length_err = abs(sc.length - 5.87e-6) / 5.87e-6
    energy_eV = sc.energy / EV
    energy_err = abs(energy_eV - 0.602e-12) / 0.602e-12
    wall = time.perf_counter() - t0
    ok = length_err < 5e-3 and energy_err < 5e-3 and wall < 1.0
    _report(1, "scales", ok,
            "l_g=%.4e m (err %.2e), eps_g=%.4e eV (err %.2e), %.3f s"
            % (sc.length, length_err, energy_eV, energy_err, wall))


def test_criterion_02_source_numbers():
    t0 = time.perf_counter()
    trap = build_trap(20e3)
    pd = build_photodetach(10e-6 * EV)
    zeta_err = abs(trap.width - 0.5e-6) / 0.5e-6
    dv_err = abs(trap.velocity_spread - 6.3e-2) / 6.3e-2
    vr_err = abs(pd.recoil_velocity - 1.02) / 1.02
    wall = time.perf_counter() - t0
    ok = zeta_err < 0.01 and dv_err < 0.01 and vr_err < 0.01 and wall < 1.0
    _report(2, "source numbers", ok,
            "zeta=%.4e m (err %.2e), dv=%.4e m/s (err %.2e), "
            "v_r=%.5f m/s (err %.2e), %.3f s"
            % (trap.width, zeta_err, trap.velocity_spread, dv_err,
               pd.recoil_velocity, vr_err, wall))


def test_criterion_03_airy_layer():
    t0 = time.perf_counter()
    basis = build_basis(100)
    # independent bisection on Ai(-x); the asymptotic guess is good to 0.02
    # while neighbouring zeros stay at least 0.40 apart up to n = 100, so a
    # +-0.18 bracket always isolates exactly one sign change
    worst = 0.0
    for n in range(1, 101):
        guess = (3.0 * math.pi * (4 * n - 1) / 8.0) ** (2.0 / 3.0)
        lo, hi = guess - 0.18, guess + 0.18
        flo = sps.airy(-lo)[0]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fmid = sps.airy(-mid)[0]
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        bisected = 0.5 * (lo + hi)
        worst = max(worst, abs(basis.table.lam(n) - bisected) / bisected)
    # orthonormality of the first 20 modes on a Simpson grid
    xi = np.linspace(0.0, basis.table.lam(20) + 25.0, 40001)
    w = simpson_weights(xi.shape[0], xi[1] - xi[0])
    chi = eigenfunction_matrix(basis.table, xi)[:20]
    gram = (chi * w) @ chi.T
    ortho = np.abs(gram - np.eye(20)).max()
    wall = time.perf_counter() - t0
    ok = worst < 1e-9 and ortho < 1e-6 and wall < 30.0
    _report(3, "airy layer", ok,
            "zero mismatch %.2e, orthonormality defect %.2e, %.1f s"
            % (worst, ortho, wall))


def test_criterion_04_transmission():
    t0 = time.perf_counter()
    basis = build_basis(1000)
    result = transmitted_fraction(basis, build_trap(20e3),
                                  build_photodetach(10e-6 * EV),
                                  GEO.release_height)
    wall = time.perf_counter() - t0
    ok = abs(result.fraction - 0.26) < 0.02 and wall < 600.0
    _report(4, "transmission", ok,
            "fraction %.6f vs 0.26 +- 0.02, %.1f s" % (result.fraction, wall))


def test_criterion_05_peak_location():
    t0 = time.perf_counter()
    basis = build_basis(1000)
    y = np.linspace(0.282, 0.322, 80)
    T = np.linspace(0.286, 0.306, 80)
    dm = current_map_yt(basis, build_trap(20e3),
                        build_photodetach(10e-6 * EV), GEO, y, T)
    iy, iT = np.unravel_index(int(np.argmax(dm.density)), dm.density.shape)
    dy = abs(y[iy] - 0.302)
    dT = abs(T[iT] - 0.296)
    wall = time.perf_counter() - t0
    ok = dy < 2e-3 and dT < 2e-3 and wall < 3600.0
    _report(5, "peak location", ok,
            "peak (%.4f m, %.4f s), offsets (%.2e m, %.2e s), %.0f s"
            % (y[iy], T[iT], dy, dT, wall))


def test_criterion_06_propagator_properties():
    t0 = time.perf_counter()
    m, hbar = CONSTANTS.atom_mass, CONSTANTS.hbar

    # gravity factorization at moderate phase, where roundoff permits 1e-12
    tau, g = 0.01, 9.81
    z = np.linspace(0.0, 3e-5, 9)
    Z = np.linspace(-2.5e-4, -1e-4, 7)
    full = propagator_kernel(Z[:, None], z[None, :], tau, g)
    zprime = Z + 0.5 * g * tau ** 2
    phase = (m * g * tau / hbar) * (Z + g * tau ** 2 / 6)
    free = propagator_kernel(zprime[:, None], z[None, :], tau, 0.0)
    fact_err = np.abs(full - np.exp(-1j * phase)[:, None] * free).max() \
        / np.abs(full).max()

    # analytic spreading Gaussian carried into the accelerated frame
    zeta, h, p0, tau_g = 5e-6, 3e-5, m * 0.05, 0.02
    zg = np.linspace(h - 12 * zeta, h + 12 * zeta, 4001)
    psi0 = (2 * math.pi * zeta ** 2) ** -0.25 * np.exp(
        -(zg - h) ** 2 / (4 * zeta ** 2) + 1j * p0 * (zg - h) / hbar)
    Zg = np.linspace(-3e-3, 1.5e-3, 301)
    got, _ = propagate_profile(zg, psi0, tau_g, Zg, g)
    spread = 1 + 1j * hbar * tau_g / (2 * m * zeta ** 2)
    Zp = Zg + 0.5 * g * tau_g ** 2
    ref = (2 * math.pi * zeta ** 2) ** -0.25 / np.sqrt(spread) * np.exp(
        -(Zp - h - p0 * tau_g / m) ** 2 / (4 * zeta ** 2 * spread)
        + 1j * (p0 * (Zp - h) / hbar - p0 ** 2 * tau_g / (2 * m * hbar)))
    ref = ref * np.exp(-1j * (m * g * tau_g / hbar)
                       * (Zg + g * tau_g ** 2 / 6))
    gauss_err = math.sqrt(
        np.trapezoid(np.abs(got - ref) ** 2, Zg)
        / np.trapezoid(np.abs(ref) ** 2, Zg))

    # full flux of a dropped mode crosses the detection plane
    b8 = build_basis(8)
    sc8 = b8.scales
    zf = np.linspace(0.0, (b8.table.lam(8) + 12) * sc8.length, 3001)
    chi3 = eigenfunction(3, zf, b8.table, sc8).astype(complex)
    tau0 = math.sqrt(2 * 0.3 / sc8.g)
    taus = np.linspace(tau0 - 0.02, tau0 + 0.02, 4001)
    flux = float(np.trapezoid(plane_current(zf, chi3, taus, -0.3, sc8.g),
                              taus))
    flux_err = abs(flux - 1.0)

    # far field against the end-of-mirror momentum density (g = 0)
    b10 = build_basis(10)
    sc10 = b10.scales
    zff = np.linspace(0.0, (b10.table.lam(5) + 14) * sc10.length, 4001)
    chi5 = eigenfunction(5, zff, b10.table, sc10).astype(complex)
    tau_ff = 700.0
    v = np.linspace(-6 * sc10.velocity, 6 * sc10.velocity, 601)
    psi_ff, _ = propagate_profile(zff, chi5, tau_ff, v * tau_ff, 0.0)
    rho_pos = np.abs(psi_ff) ** 2 * tau_ff / m
    p = m * v
    rho_mom = np.abs(momentum_matrix(b10.table, p, sc10)[4]) ** 2
    ff_err = float(np.trapezoid(np.abs(rho_pos - rho_mom), p)
                   / np.trapezoid(rho_mom, p))

    wall = time.perf_counter() - t0
    ok = (fact_err < 1e-12 and gauss_err < 1e-6 and flux_err < 1e-2
          and ff_err < 0.02 and wall < 600.0)
    _report(6, "propagator properties", ok,
            "factorization %.2e, gaussian L2 %.2e, flux defect %.2e, "
            "far-field L1 %.2e, %.1f s"
            % (fact_err, gauss_err, flux_err, ff_err, wall))


def test_criterion_07_desk_statistics():
    t0 = time.perf_counter()
    family = GridDensityFamily(50, build_trap(20e3),
                               build_photodetach(10e-6 * EV), GEO)
    res = run_campaign(family, 1000, 200, seed=SEED, rel_window=4e-4,
                       n_scan=41)
    eff = (res.sigma_cr / res.sigma_mc) ** 2
    bias_bound = 2.0 * res.sigma_mc / math.sqrt(res.n_replicates)
    wall = time.perf_counter() - t0
    ok = (res.sigma_mc >= res.sigma_cr and 0.7 <= eff <= 1.05
          and abs(res.bias) < bias_bound and wall < 7200.0)
    _report(7, "desk statistics", ok,
            "sigma_mc %.3e >= sigma_cr %.3e, efficiency %.3f, "
            "bias %.2e < %.2e, %.0f s"
            % (res.sigma_mc, res.sigma_cr, eff, abs(res.bias), bias_bound,
               wall))


@pytest.mark.skipif(not FULLSCALE,
                    reason="set QFALL_FULLSCALE=1 for the full-scale "
                    "campaign")
def test_criterion_08_full_scale_campaign():
    t0 = time.perf_counter()
    family = GridDensityFamily(1000, build_trap(20e3),
                               build_photodetach(10e-6 * EV), GEO)
    res = run_campaign(family, 1000, 1000, seed=SEED, rel_window=3e-5,
                       n_scan=31)
    rel_mc = res.sigma_mc / res.g_true
    rel_cr = res.sigma_cr / res.g_true
    wall = time.perf_counter() - t0
    ok = (abs(rel_mc - 1.0e-5) < 0.3e-5 and abs(rel_cr - 0.98e-5) < 0.294e-5)
    _report(8, "full-scale campaign", ok,
            "sigma_mc/g %.3e vs 1.0e-5 +- 30%%, sigma_cr/g %.3e vs "
            "0.98e-5 +- 30%%, mean detected %.0f, %.0f s"
            % (rel_mc, rel_cr, res.n_detected.mean(), wall))


@pytest.mark.skipif(not FULLSCALE,
                    reason="set QFALL_FULLSCALE=1 for the full-scale "
                    "campaign")
def test_criterion_09_no_recoil_cross_check():
    t0 = time.perf_counter()
    kick = build_photodetach(0.0, kick_velocity=1.02)
    family = GridDensityFamily(1000, build_trap(20e3), kick, GEO)
    fmap = family.map_at(family.g0)
    n_c = int(round(1000 * fmap.metadata["fraction"]))
    res = run_campaign(family, 1000, 1000, seed=SEED, rel_window=3e-5,
                       n_scan=31)
    rel_mc = res.sigma_mc / res.g_true
    wall = time.perf_counter() - t0
    ok = abs(n_c - 995) <= 2 and abs(rel_mc - 5.8e-6) < 1.74e-6
    _report(9, "no-recoil cross-check", ok,
            "N_c %d vs 995, sigma_mc/g %.3e vs 5.8e-6 +- 30%%, %.0f s"
            % (n_c, rel_mc, wall))


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("physics.n_max = 50\n"
                   "inference.n_source = 5000\n"
                   "inference.n_replicates = 3\n"
                   "inference.seed = 11\n"
                   "inference.n_scan = 9\n"
                   "inference.rel_window = 1e-4\n")
    runs = {"scales": [], "basis": [], "source-dist": [],
            "end-of-mirror": [],
            "current-map": ["--ny", "7", "--nT", "9"],
            "simulate": [], "estimate": None, "fisher": [], "campaign": []}
    dirs = [str(tmp_path / "run_a"), str(tmp_path / "run_b")]
    for out in dirs:
        for command, extra in runs.items():
            if extra is None:
                extra = ["--events", os.path.join(out, "events.csv")]
            code = cli_main([command, "--config", str(cfg), "--out", out]
                            + extra)
            assert code == 0, command
    mismatched = []
    for name in sorted(os.listdir(dirs[0])):
        if name.endswith("_manifest.json"):
            continue  # carries wall time by design
        if not filecmp.cmp(os.path.join(dirs[0], name),
                           os.path.join(dirs[1], name), shallow=False):
            mismatched.append(name)
    n_files = sum(1 for f in os.listdir(dirs[0])
                  if not f.endswith("_manifest.json"))
    wall = time.perf_counter() - t0
    ok = not mismatched and n_files >= 12
    _report(10, "determinism", ok,
            "%d data files byte-identical across reruns%s, %.0f s"
            % (n_files, "" if not mismatched
               else ", mismatched: " + ",".join(mismatched), wall))
