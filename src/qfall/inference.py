"""Event sampling, likelihood scans, and gravity estimation on folded maps.

The observable per annihilation is (t, T, Phi): the end-of-disk time
t = T d / R_bar reconstructed from the impact radius, the total arrival time T,
and the detector azimuth Phi.  The arrival density in (t, T) is the folded map;
the azimuth density is (1 + r cos 2(Phi - phi_pol)) / 2 pi for the dipole model
and von Mises(phi_pol, kappa) for the deterministic-kick variant.

Sampling and likelihood share one discretization: the map is read as a
bilinear surface between lattice nodes, cells are drawn by inverse CDF on the
cell masses, and the in-cell position inverts the linear marginals exactly.
The estimator therefore maximizes the likelihood of the same family the
samples came from, which is what the Cramer-Rao comparison assumes.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .freefall import FoldedMap, GridSpec, MapMaker
from .mirror import DiskGeometry
from .physcore import CONSTANTS, G_DEFAULT, PhysicalConstants
from .source import PhotodetachConfig, TrapConfig

_UINT64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# cells whose normalized mass falls below this are excluded from the Fisher
# sum; their log-derivatives are quadrature noise, not signal
FISHER_MASS_FLOOR = 1e-14

# relative density floor applied inside the log (events falling where the
# model vanishes are penalized, not discarded)
DENSITY_FLOOR = 1e-12


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replicate index).

    Philox streams with distinct keys are independent, so replicates can be
    generated in any order (or split across workers) without coupling.
    """
    key = np.array([seed & int(_UINT64), replicate & int(_UINT64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EventSet:
    """Detected annihilations plus the source count that produced them."""

    edge_time: np.ndarray     # t, seconds
    arrival_time: np.ndarray  # T, seconds
    azimuth: np.ndarray       # Phi, radians in [0, 2 pi)
    n_source: int
    g_true: float

    def __post_init__(self):
        n = self.edge_time.shape[0]
        if self.arrival_time.shape[0] != n or self.azimuth.shape[0] != n:
            raise DomainError("event columns must have equal length")
        if self.n_source < n:
            raise DomainError("cannot detect more atoms than were dropped")

    @property
    def n_detected(self) -> int:
        return self.edge_time.shape[0]

    def radius(self, geometry: DiskGeometry) -> np.ndarray:
        """Impact radius R_bar = d T / t on the detector plane."""
        return geometry.travel_distance * self.arrival_time / self.edge_time


def _cell_masses(fmap: FoldedMap) -> np.ndarray:
    """Bilinear mass of each lattice cell, shape (n_t - 1, n_T - 1)."""
    D = fmap.density
    corners = D[:-1, :-1] + D[1:, :-1] + D[:-1, 1:] + D[1:, 1:]
    return 0.25 * corners * fmap.cell_area


def _invert_linear(a: np.ndarray, b: np.ndarray,
                   r: np.ndarray) -> np.ndarray:
    """Draw x in [0, 1] with density proportional to a + (b - a) x.

    The CDF is quadratic; the discriminant simplifies to
    (1 - r) a^2 + r b^2 >= 0, which keeps the inversion exact at the cell
    corners where one side vanishes.
    """
    slope = b - a
    disc = (1.0 - r) * a * a + r * b * b
    flat = np.abs(slope) <= 1e-12 * (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (np.sqrt(disc) - a) / slope
    return np.clip(np.where(flat, r, x), 0.0, 1.0)


def _bilinear_at(values: np.ndarray, i: np.ndarray, j: np.ndarray,
                 x: np.ndarray, y: np.ndarray) -> np.ndarray:
    f00 = values[i, j]
    f10 = values[i + 1, j]
    f01 = values[i, j + 1]
    f11 = values[i + 1, j + 1]
    return (f00 * (1 - x) * (1 - y) + f10 * x * (1 - y)
            + f01 * (1 - x) * y + f11 * x * y)


def _sample_azimuth(fmap: FoldedMap, t: np.ndarray, i: np.ndarray,
                    j: np.ndarray, x: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    mu = fmap.pol_angle
    if fmap.azimuth_model == "vonmises":
        kappa = np.interp(t, fmap.t, fmap.concentration)
        return np.mod(mu + rng.vonmises(0.0, kappa), 2.0 * math.pi)
    # dipole: density (1 + r cos 2(Phi - mu)) / 2 pi, rejection under the
    # flat envelope (1 + r); acceptance >= 1/2 since r <= 1
    ratio = _bilinear_at(fmap.azimuth_ratio, i, j, x, y)
    out = np.empty(t.shape[0])
    todo = np.arange(t.shape[0])
    while todo.size:
        cand = rng.uniform(0.0, 2.0 * math.pi, todo.size)
        height = 1.0 + ratio[todo] * np.cos(2.0 * (cand - mu))
        keep = rng.random(todo.size) * (1.0 + ratio[todo]) < height
        out[todo[keep]] = cand[keep]
        todo = todo[~keep]
    return out


def sample_events(fmap: FoldedMap, n_source: int,
                  rng: np.random.Generator) -> EventSet:
    """Draw one experiment: Binomial detected count, then (t, T, Phi).

    The detection probability is the transmitted fraction carried by the
    map; the grid windows hold essentially all of the transmitted flux, so
    conditioning on detection and conditioning on the window coincide to the
    window truncation error.
    """
    if n_source < 0:
        raise DomainError("source count must be nonnegative")
    masses = _cell_masses(fmap)
    total = masses.sum()
    if total <= 0.0:
        raise DomainError("map carries no probability mass")
    p = min(fmap.metadata["fraction"], 1.0)
    n_det = int(rng.binomial(n_source, p))

    cdf = np.cumsum(masses.ravel())
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, rng.random(n_det), side="right")
    idx = np.minimum(idx, cdf.shape[0] - 1)
    i, j = np.unravel_index(idx, masses.shape)

    D = fmap.density
    # marginal across t within the cell is linear with the edge means
    a = 0.5 * (D[i, j] + D[i, j + 1])
    b = 0.5 * (D[i + 1, j] + D[i + 1, j + 1])
    x = _invert_linear(a, b, rng.random(n_det))
    c = D[i, j] + (D[i + 1, j] - D[i, j]) * x
    d = D[i, j + 1] + (D[i + 1, j + 1] - D[i, j + 1]) * x
    y = _invert_linear(c, d, rng.random(n_det))

    dt = fmap.t[1] - fmap.t[0] if fmap.t.shape[0] > 1 else 0.0
    dT = fmap.T[1] - fmap.T[0] if fmap.T.shape[0] > 1 else 0.0
    t = fmap.t[i] + x * dt
    T = fmap.T[j] + y * dT
    phi = _sample_azimuth(fmap, t, i, j, x, y, rng)
    return EventSet(edge_time=t, arrival_time=T, azimuth=phi,
                    n_source=n_source, g_true=fmap.g)


def log_likelihood(events: EventSet, fmap: FoldedMap,
                   conditional: bool = True,
                   floor: float = DENSITY_FLOOR) -> float:
    """Log-likelihood of the event set under one map.

    Conditional (default): product of the per-event arrival densities
    normalized over the lattice window.  Unconditional adds the binomial
    detected/not-detected term with p(g) the transmitted fraction.
    """
    n = events.n_detected
    masses = _cell_masses(fmap)
    Z = masses.sum()
    ll = 0.0
    if n:
        nt, nT = fmap.density.shape
        fi = (events.edge_time - fmap.t[0]) / (fmap.t[1] - fmap.t[0])
        fj = (events.arrival_time - fmap.T[0]) / (fmap.T[1] - fmap.T[0])
        inside = (fi >= 0) & (fi <= nt - 1) & (fj >= 0) & (fj <= nT - 1)
        i = np.clip(fi.astype(int), 0, nt - 2)
        j = np.clip(fj.astype(int), 0, nT - 2)
        f = _bilinear_at(fmap.density, i, j, fi - i, fj - j)
        f = np.where(inside, f, 0.0)
        span = (fmap.t[-1] - fmap.t[0]) * (fmap.T[-1] - fmap.T[0])
        ll = float(np.log(np.maximum(f, floor * Z / span)).sum()
                   - n * math.log(Z))
    if not conditional:
        p = min(fmap.metadata["fraction"], 1.0)
        ll += n * math.log(p) + (events.n_source - n) * math.log1p(-p)
    return ll


class GridDensityFamily:
    """Folded maps over g on one frozen (t, T) lattice, built lazily.

    The lattice, mode grid, and recoil nodes are fixed at g0, so densities
    at different g are directly comparable cell by cell; maps are cached by
    exact g value unless keep=False.
    """

    def __init__(self, n_max: int, trap: TrapConfig,
                 photodetach: PhotodetachConfig, geometry: DiskGeometry,
                 spec: GridSpec = GridSpec(), g0: float = G_DEFAULT,
                 constants: PhysicalConstants = CONSTANTS):
        self.maker = MapMaker(n_max, trap, photodetach, geometry, spec,
                              g0, constants)
        self.geometry = geometry
        self._cache = {}

    @property
    def g0(self) -> float:
        return self.maker.g0

    def map_at(self, g: float, keep: bool = True) -> FoldedMap:
        g = float(g)
        if g in self._cache:
            return self._cache[g]
        fmap = self.maker.build(g)
        if keep:
            self._cache[g] = fmap
        return fmap


def _scan_lattice(g_center: float, rel_window: float,
                  n_scan: int) -> np.ndarray:
    if n_scan < 5 or n_scan % 2 == 0:
        raise DomainError("scan needs an odd count of at least 5 points")
    return g_center * (1.0 + np.linspace(-rel_window, rel_window, n_scan))


def _refine_peak(g_values: np.ndarray, ll: np.ndarray):
    """Parabolic vertex through the top of the scan.

    Returns (g_hat, sigma, on_edge).  Points within 3 log-units of the peak
    enter the quadratic fit; the curvature gives sigma = 1 / sqrt(-2 a).
    """
    k = int(np.argmax(ll))
    if k == 0 or k == ll.shape[0] - 1:
        return float(g_values[k]), float("nan"), True
    lo, hi = k, k
    while lo > 0 and ll[lo - 1] >= ll[k] - 3.0:
        lo -= 1
    while hi < ll.shape[0] - 1 and ll[hi + 1] >= ll[k] - 3.0:
        hi += 1
    if hi - lo < 2:
        lo, hi = k - 1, k + 1
    delta = g_values[lo:hi + 1] - g_values[k]
    coef = np.polyfit(delta, ll[lo:hi + 1], 2)
    if coef[0] >= 0.0:
        delta = g_values[k - 1:k + 2] - g_values[k]
        coef = np.polyfit(delta, ll[k - 1:k + 2], 2)
    if coef[0] >= 0.0:
        return float(g_values[k]), float("nan"), True
    vertex = -0.5 * coef[1] / coef[0]
    step = g_values[k + 1] - g_values[k]
    vertex = min(max(vertex, -step), step)
    return (float(g_values[k] + vertex),
            float(1.0 / math.sqrt(-2.0 * coef[0])), False)


@dataclass(frozen=True)
class GravityEstimate:
    value: float
    sigma: float
    scan_g: np.ndarray
    scan_ll: np.ndarray
    widened: int


def estimate_g(events: EventSet, family: GridDensityFamily,
               rel_window: float = 2e-4, n_scan: int = 41,
               conditional: bool = True, max_widen: int = 3,
               keep_maps: bool = True) -> GravityEstimate:
    """Maximum-likelihood g from a scan plus parabolic refinement.

    If the maximum lands on a scan edge the window is doubled (up to
    max_widen times) so a poorly guessed window cannot silently truncate
    the estimate.
    """
    if events.n_detected == 0:
        raise DomainError("cannot estimate g from zero detected events")
    widened = 0
    while True:
        g_values = _scan_lattice(family.g0, rel_window, n_scan)
        ll = np.asarray([
            log_likelihood(events, family.map_at(g, keep=keep_maps),
                           conditional=conditional) for g in g_values])
        g_hat, sigma, on_edge = _refine_peak(g_values, ll)
        if not on_edge or widened >= max_widen:
            return GravityEstimate(value=g_hat, sigma=sigma,
                                   scan_g=g_values, scan_ll=ll,
                                   widened=widened)
        rel_window *= 2.0
        widened += 1


def fisher_information(family: GridDensityFamily, g: Optional[float] = None,
                       delta_rel: float = 5e-5,
                       mass_floor: float = FISHER_MASS_FLOOR) -> float:
    """Per-detected-event Fisher information of the arrival density.

    Central difference of the normalized cell masses:
    I = sum_c m_c (d log m_c / dg)^2 over cells above the mass floor.
    """
    g = family.g0 if g is None else float(g)
    step = g * delta_rel
    m0 = _cell_masses(family.map_at(g))
    mp = _cell_masses(family.map_at(g + step))
    mm = _cell_masses(family.map_at(g - step))
    m0 = m0 / m0.sum()
    mp = mp / mp.sum()
    mm = mm / mm.sum()
    mask = (m0 > mass_floor) & (mp > 0.0) & (mm > 0.0)
    score = (np.log(mp[mask]) - np.log(mm[mask])) / (2.0 * step)
    return float((m0[mask] * score * score).sum())


def count_information(family: GridDensityFamily, g: Optional[float] = None,
                      delta_rel: float = 5e-5) -> float:
    """Per-source-atom information in the detected/not-detected split."""
    g = family.g0 if g is None else float(g)
    step = g * delta_rel
    pp = family.map_at(g + step).metadata["fraction"]
    pm = family.map_at(g - step).metadata["fraction"]
    p0 = family.map_at(g).metadata["fraction"]
    dp = (pp - pm) / (2.0 * step)
    return dp * dp / (p0 * (1.0 - p0))


def cramer_rao_sigma(family: GridDensityFamily, n_source: int,
                     g: Optional[float] = None, conditional: bool = True,
                     delta_rel: float = 5e-5) -> float:
    """Lower bound on sigma_g for one experiment of n_source atoms."""
    g = family.g0 if g is None else float(g)
    p = family.map_at(g).metadata["fraction"]
    info = n_source * p * fisher_information(family, g, delta_rel)
    if not conditional:
        info += n_source * count_information(family, g, delta_rel)
    return 1.0 / math.sqrt(info)


@dataclass(frozen=True)
class CampaignResult:
    g_true: float
    n_source: int
    n_replicates: int
    seed: int
    estimates: np.ndarray
    sigmas: np.ndarray
    n_detected: np.ndarray
    scan_g: np.ndarray
    edge_hits: int
    g_mean: float
    bias: float
    sigma_mc: float
    sigma_mc_se: float
    sigma_cr: float
    sigma_ratio: float

    def summary(self) -> dict:
        return {
            "g_true": self.g_true, "n_source": self.n_source,
            "n_replicates": self.n_replicates, "seed": self.seed,
            "g_mean": self.g_mean, "bias": self.bias,
            "sigma_mc": self.sigma_mc, "sigma_mc_se": self.sigma_mc_se,
            "sigma_cr": self.sigma_cr, "sigma_ratio": self.sigma_ratio,
            "edge_hits": self.edge_hits,
            "mean_detected": float(self.n_detected.mean()),
        }


def run_campaign(family: GridDensityFamily, n_source: int,
                 n_replicates: int, seed: int,
                 g_true: Optional[float] = None, rel_window: float = 2e-4,
                 n_scan: int = 41, conditional: bool = True,
                 delta_rel: float = 5e-5,
                 keep_maps: bool = False) -> CampaignResult:
    """Replicated experiments against the Cramer-Rao bound.

    Scan-major evaluation: each scan map is built once and scored against
    every replicate, so the map-build cost does not scale with the number
    of replicates.  Replicate r draws from the Philox stream keyed by
    (seed, r) regardless of execution order.
    """
    if n_replicates < 2:
        raise DomainError("need at least 2 replicates for a spread")
    g_true = family.g0 if g_true is None else float(g_true)
    fmap_true = family.map_at(g_true)
    events = [sample_events(fmap_true, n_source, replicate_rng(seed, r))
              for r in range(n_replicates)]
    if min(ev.n_detected for ev in events) == 0:
        raise DomainError("a replicate detected zero events; "
                          "raise the source count")

    g_values = _scan_lattice(family.g0, rel_window, n_scan)
    LL = np.empty((n_replicates, n_scan))
    for k, gk in enumerate(g_values):
        fm = family.map_at(gk, keep=keep_maps)
        for r, ev in enumerate(events):
            LL[r, k] = log_likelihood(ev, fm, conditional=conditional)

    estimates = np.empty(n_replicates)
    sigmas = np.empty(n_replicates)
    edge_hits = 0
    for r in range(n_replicates):
        estimates[r], sigmas[r], on_edge = _refine_peak(g_values, LL[r])
        edge_hits += int(on_edge)

    g_mean = float(estimates.mean())
    sigma_mc = float(estimates.std(ddof=1))
    sigma_cr = cramer_rao_sigma(family, n_source, g_true, conditional,
                                delta_rel)
    return CampaignResult(
        g_true=g_true, n_source=n_source, n_replicates=n_replicates,
        seed=seed, estimates=estimates, sigmas=sigmas,
        n_detected=np.asarray([ev.n_detected for ev in events]),
        scan_g=g_values, edge_hits=edge_hits, g_mean=g_mean,
        bias=g_mean - g_true, sigma_mc=sigma_mc,
        sigma_mc_se=sigma_mc / math.sqrt(2.0 * (n_replicates - 1)),
        sigma_cr=sigma_cr, sigma_ratio=sigma_mc / sigma_cr)
