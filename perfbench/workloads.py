"""The benchmark's workloads: inputs, bodies and correctness checks.

Why these three (see README.md for the metric table):

- desk_campaign: acceptance criterion 7, the campaign users run.  43 small
  map builds and 8200 likelihood calls; overlaps, kernel, assembly,
  likelihood and Fisher each take a visible share, the mode-grid set-up and
  the big-kernel products almost none.
- paper_map: one folded map of the large ladder, then 200 replicates of
  1000 atoms sampled from it and scored once each.  Set-up is the Airy mode
  matrix, the build is mostly chirp kernel; cache hits and per-call
  likelihood overhead play no part.
- detector_cut: acceptance criterion 5, one `current_map_yt` call over the
  80 x 80 (y, T) cut: 6400 non-lattice fall times, its own mode grid and the
  separate chunked assembly, and the highest memory use.

`paper_map` and `detector_cut` use a 300-mode ladder, not the paper's 1000
modes, so that a run holds three or four repetitions in the time a run may
take (see README.md for the one 1000-mode check that was made).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qfall import freefall, gqs, inference
from qfall.mirror import DiskGeometry
from qfall.physcore import CONSTANTS, G_DEFAULT
from qfall.source import build_photodetach, build_trap

GEO = DiskGeometry(release_height=10e-6, travel_distance=0.05,
                   fall_height=0.3)
N_SOURCE = 1000
N_REPLICATES = 200
DETECTOR_Y = np.linspace(0.282, 0.322, 80)
DETECTOR_T = np.linspace(0.286, 0.306, 80)
# modes of the large ladder of paper_map and detector_cut (the paper's has
# 1000; see above)
LARGE_N_MAX = 300

# Tolerances, and why they are what they are.
#
# Deterministic outputs (transmitted fraction, map weight, likelihood sum at
# a recorded seed, detector density sum) repeat to the last bits on one
# machine; reordered sums, BLAS threading and the <= 1e-12 kernel change
# that ROADMAP item 2 allows move them by far less than ROUNDOFF.
ROUNDOFF = 1e-8
# Campaign statistics at a recorded seed may move as much as ROADMAP item 3
# lets a replicate estimate move, 1e-2 sigma, and no more.
STATISTIC = 1e-2
# A mean detected count moves only when a binomial draw crosses a
# threshold; 0.05 is ten of the 200 draws off by one atom.
DETECTED = 0.05
# Clipped (negative) mass is 0 on all three workloads today.
CLIPPED = 1e-12
# At a seed with no recorded reference the checks are statistical, each
# with false-alarm odds below 1e-4: 5 (counts), 4 (bias) and 6 (likelihood)
# standard errors.  sigma_mc / sigma_cr was 1.03 +- 0.03 over 14 seeds and
# sigma_mc has a 5 % standard error of its own, so the band below lies more
# than 4 of those from the typical ratio.  Criterion 7 as the test suite
# codes it (sigma_mc >= sigma_cr) failed on 2 of those 14 seeds, so it
# cannot gate a run.
DESK_RATIO_BAND = (0.8, 1.3)


@dataclass(frozen=True)
class Outcome:
    outputs: dict
    attempted: int
    failed: int


@dataclass(frozen=True)
class Workload:
    name: str
    n_max: int           # modes in the ladder
    setup_seconds: float  # set up again until this much time has gone by
    nominal_ops: int     # operations a repetition attempts
    setup: Callable      # n_max -> state
    body: Callable       # (state, seed) -> Outcome
    check: Callable      # (outputs, seed) -> list of problems


def _components():
    return build_trap(20e3), build_photodetach(10e-6 * CONSTANTS.electron_volt)


def _family(n_max):
    trap, pd = _components()
    return inference.GridDensityFamily(n_max, trap, pd, GEO)


def _compare(out, ref, tolerances):
    """Problems for each `name: (kind, tol)` with kind 'rel' or 'abs'."""
    problems = []
    for name, (kind, tol) in tolerances.items():
        value = out[name]
        if kind == "rel":
            bad = not abs(value / ref[name] - 1.0) <= tol
        else:
            bad = not abs(value - ref[name]) <= tol
        if bad:
            problems.append("%s = %.12g, reference %.12g (%s tolerance %g)"
                            % (name, value, ref[name], kind, tol))
    return problems


# -- desk_campaign -----------------------------------------------------------

# sigma_cr and the transmitted fraction at g0 do not depend on the seed
DESK_FIXED = {"sigma_cr": 7.35501288749131e-4, "fraction": 0.092296612649684}
# a desk campaign builds 43 maps: g0, the 40 other scan points and the two
# Fisher neighbours of g0
DESK_BUILDS = 43
DESK_SEEDED = {
    20260822: {"sigma_mc": 7.598137710999095e-4,
               "g_mean": 9.809967302954538, "mean_detected": 92.0},
    7: {"sigma_mc": 7.485758953655111e-4,
        "g_mean": 9.809984788906593, "mean_detected": 92.99},
}


def _desk_body(family, seed):
    res = inference.run_campaign(family, n_source=N_SOURCE,
                                 n_replicates=N_REPLICATES, seed=seed,
                                 rel_window=4e-4, n_scan=41)
    # an estimate on a scan edge carries sigma = nan
    bad = ~(np.isfinite(res.estimates) & np.isfinite(res.sigmas))
    s = res.summary()
    outputs = {k: float(s[k]) for k in ("sigma_mc", "sigma_cr", "g_mean",
                                        "edge_hits", "mean_detected")}
    return Outcome(outputs, attempted=DESK_BUILDS + N_REPLICATES,
                   failed=int(bad.sum()))


def _desk_check(out, seed):
    problems = [] if out["edge_hits"] == 0 else [
        "%d estimates on a scan edge" % out["edge_hits"]]
    problems += _compare(out, DESK_FIXED, {"sigma_cr": ("rel", STATISTIC)})
    ref = DESK_SEEDED.get(seed)
    if ref is not None:
        tol_g = STATISTIC * DESK_FIXED["sigma_cr"]
        return problems + _compare(out, ref, {
            "sigma_mc": ("rel", STATISTIC), "g_mean": ("abs", tol_g),
            "mean_detected": ("abs", DETECTED)})
    ratio = out["sigma_mc"] / out["sigma_cr"]
    if not DESK_RATIO_BAND[0] <= ratio <= DESK_RATIO_BAND[1]:
        problems.append("sigma_mc / sigma_cr = %.4f outside %s"
                        % (ratio, DESK_RATIO_BAND))
    bias = out["g_mean"] - G_DEFAULT
    if not abs(bias) <= 4.0 * out["sigma_mc"] / math.sqrt(N_REPLICATES):
        problems.append("bias %.3e beyond 4 standard errors" % bias)
    p = DESK_FIXED["fraction"]
    se = math.sqrt(N_SOURCE * p * (1.0 - p) / N_REPLICATES)
    if not abs(out["mean_detected"] - N_SOURCE * p) <= 5.0 * se:
        problems.append("mean detected %.3f vs %.3f beyond 5 standard errors"
                        % (out["mean_detected"], N_SOURCE * p))
    return problems


# -- paper_map ---------------------------------------------------------------

PAPER_FIXED = {"fraction": 0.174538435956382,
               "total_weight": 0.2508556571858816,
               "ll_per_event": 8.703941018587754}
PAPER_SEEDED = {
    20260822: {"ll_sum": 304669.9876401205},
    7: {"ll_sum": 304336.1305218881},
}


def _paper_body(family, seed):
    fmap = family.map_at(family.g0)
    events = [inference.sample_events(fmap, N_SOURCE,
                                      inference.replicate_rng(seed, r))
              for r in range(N_REPLICATES)]
    ll = np.asarray([inference.log_likelihood(ev, fmap) for ev in events])
    n = np.asarray([ev.n_detected for ev in events], dtype=float)
    per_event = ll / n
    outputs = {"fraction": float(fmap.metadata["fraction"]),
               "total_weight": fmap.total_weight(),
               "clipped_mass": float(fmap.metadata["clipped_mass"]),
               "ll_sum": float(ll.sum()),
               "ll_per_event": float(per_event.mean()),
               "ll_per_event_se": float(per_event.std(ddof=1)
                                        / math.sqrt(N_REPLICATES)),
               "mean_detected": float(n.mean())}
    failed = int(not np.all(np.isfinite(fmap.density)))
    failed += int(np.count_nonzero(~np.isfinite(ll)))
    return Outcome(outputs, attempted=1 + N_REPLICATES, failed=failed)


def _paper_check(out, seed):
    problems = _compare(out, PAPER_FIXED, {"fraction": ("rel", ROUNDOFF),
                                     "total_weight": ("rel", ROUNDOFF)})
    if not out["clipped_mass"] <= CLIPPED:
        problems.append("clipped mass %.3e" % out["clipped_mass"])
    ref = PAPER_SEEDED.get(seed)
    if ref is not None:
        return problems + _compare(out, ref, {"ll_sum": ("rel", ROUNDOFF)})
    p = PAPER_FIXED["fraction"]
    se = math.sqrt(N_SOURCE * p * (1.0 - p) / N_REPLICATES)
    if not abs(out["mean_detected"] - N_SOURCE * p) <= 5.0 * se:
        problems.append("mean detected %.3f vs %.3f beyond 5 standard errors"
                        % (out["mean_detected"], N_SOURCE * p))
    if not (abs(out["ll_per_event"] - PAPER_FIXED["ll_per_event"])
            <= 6.0 * out["ll_per_event_se"]):
        problems.append("log-likelihood per event %.6f vs %.6f beyond 6 "
                        "standard errors" % (out["ll_per_event"],
                                             PAPER_FIXED["ll_per_event"]))
    return problems


# -- detector_cut ------------------------------------------------------------

# the cut has no random input: these hold for every seed
DETECTOR_FIXED = {"peak_y": 0.3037721518987342, "peak_T": 0.295873417721519,
                  "density_sum": 1530769.2785665}


def _detector_setup(n_max):
    trap, pd = _components()
    return gqs.build_basis(n_max), trap, pd


def _detector_body(state, seed):
    basis, trap, pd = state
    dm = freefall.current_map_yt(basis, trap, pd, GEO, DETECTOR_Y,
                                 DETECTOR_T)
    iy, iT = np.unravel_index(int(np.argmax(dm.density)), dm.density.shape)
    outputs = {"peak_y": float(DETECTOR_Y[iy]),
               "peak_T": float(DETECTOR_T[iT]),
               "density_sum": float(dm.density.sum()),
               "clipped_mass": float(dm.metadata["clipped_mass"])}
    return Outcome(outputs, attempted=1,
                   failed=int(not np.all(np.isfinite(dm.density))))


def _detector_check(out, seed):
    # the peak is a lattice point: half a step apart is a different point
    half_y = 0.5 * (DETECTOR_Y[1] - DETECTOR_Y[0])
    half_T = 0.5 * (DETECTOR_T[1] - DETECTOR_T[0])
    problems = _compare(out, DETECTOR_FIXED, {
        "peak_y": ("abs", half_y), "peak_T": ("abs", half_T),
        "density_sum": ("rel", ROUNDOFF)})
    if not out["clipped_mass"] <= CLIPPED:
        problems.append("clipped mass %.3e" % out["clipped_mass"])
    # acceptance criterion 5
    if not (abs(out["peak_y"] - 0.302) < 2e-3
            and abs(out["peak_T"] - 0.296) < 2e-3):
        problems.append("peak (%.5f m, %.5f s) fails criterion 5"
                        % (out["peak_y"], out["peak_T"]))
    return problems


# Set-up is repeated for a second per repetition where it is short: on a
# shared 2-vCPU VM the speed of a core switches between regimes about 1.7x
# apart every few hundred milliseconds, and a median over set-ups spread
# across the run covers several of them.
WORKLOADS = {
    "desk_campaign": Workload("desk_campaign", 50, 1.0,
                              DESK_BUILDS + N_REPLICATES, _family,
                              _desk_body, _desk_check),
    "paper_map": Workload("paper_map", LARGE_N_MAX, 0.0, 1 + N_REPLICATES,
                          _family, _paper_body, _paper_check),
    "detector_cut": Workload("detector_cut", LARGE_N_MAX, 1.0, 1,
                             _detector_setup, _detector_body,
                             _detector_check),
}
