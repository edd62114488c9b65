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

Scans and Fisher information read the family through `MapNodes`: maps built
at the Chebyshev-Lobatto points of the scan window and interpolated in g,
cell by cell, with the barycentric formula (Berrut & Trefethen, SIAM Review
46, 2004).  Every lattice cell is a smooth function of g across the window,
so a handful of builds stands in for one build per scan point, and the
score d log m / dg is the interpolant's derivative.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .freefall import FoldedMap, GridSpec, MapMaker, cell_masses
from .mirror import DiskGeometry
from .physcore import G_DEFAULT
from .source import PhotodetachConfig, TrapConfig

_UINT64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# cells whose normalized mass falls below this are excluded from the Fisher
# sum; their log-derivatives are quadrature noise, not signal
FISHER_MASS_FLOOR = 1e-14

# relative density floor applied inside the log (events falling where the
# model vanishes are penalized, not discarded)
DENSITY_FLOOR = 1e-12

# A node set doubles from MIN_NODES through the nested Chebyshev-Lobatto
# sets (5 -> 9 -> 17 -> 33) until its last two Chebyshev coefficients, the
# largest over the lattice, fall below NODE_TAIL of the map maximum.  At
# desk scale that is 9 nodes for a +-4e-4 window (tail 4e-5; 5 nodes leave
# 4e-2 and move estimates by 5e-2 sigma) and 17 for +-1.6e-3.
NODE_TAIL = 1e-4
MIN_NODES = 5
MAX_NODES = 33

# times `estimate_g` may double a window whose scan peaks on an edge
MAX_WIDEN = 3

# default scan: g0 (1 +- REL_WINDOW) in N_SCAN points (RunConfig reads these)
REL_WINDOW = 2e-4
N_SCAN = 41


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
    """Bilinear surface over the last two axes at cells (i, j), offsets
    (x, y); a stack of maps gives one row per map."""
    f00 = values[..., i, j]
    f10 = values[..., i + 1, j]
    f01 = values[..., i, j + 1]
    f11 = values[..., i + 1, j + 1]
    return (f00 * (1 - x) * (1 - y) + f10 * x * (1 - y)
            + f01 * (1 - x) * y + f11 * x * y)


def _sample_azimuth(fmap: FoldedMap, t: np.ndarray, i: np.ndarray,
                    j: np.ndarray, x: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    mu = fmap.pol_angle
    if fmap.concentration is not None:
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

    The detection probability p is the transmitted fraction carried in the
    map's metadata, and each detected (t, T) is drawn from the map
    normalized over its window.  The window mass is not p: under the map's
    m^2 / tau^2 weight it is about 1.44 p at desk scale.
    """
    if n_source < 0:
        raise DomainError("source count must be nonnegative")
    if fmap.normalizer <= 0.0:
        raise DomainError("map carries no probability mass")
    p = min(fmap.metadata["fraction"], 1.0)
    n_det = int(rng.binomial(n_source, p))

    cdf = fmap.cell_cdf
    idx = np.searchsorted(cdf, rng.random(n_det), side="right")
    idx = np.minimum(idx, cdf.shape[0] - 1)
    D = fmap.density
    i, j = np.unravel_index(idx, (D.shape[0] - 1, D.shape[1] - 1))

    # marginal across t within the cell is linear with the edge means
    a = 0.5 * (D[i, j] + D[i, j + 1])
    b = 0.5 * (D[i + 1, j] + D[i + 1, j + 1])
    x = _invert_linear(a, b, rng.random(n_det))
    c = D[i, j] + (D[i + 1, j] - D[i, j]) * x
    d = D[i, j + 1] + (D[i + 1, j + 1] - D[i, j + 1]) * x
    y = _invert_linear(c, d, rng.random(n_det))

    t = fmap.t[i] + x * (fmap.t[1] - fmap.t[0])
    T = fmap.T[j] + y * (fmap.T[1] - fmap.T[0])
    phi = _sample_azimuth(fmap, t, i, j, x, y, rng)
    return EventSet(edge_time=t, arrival_time=T, azimuth=phi,
                    n_source=n_source, g_true=fmap.g)


def _event_cells(events: EventSet, fmap: FoldedMap):
    """Lattice cell (i, j), in-cell offsets (x, y) and inside mask of each
    event on the map's (t, T) lattice."""
    nt, nT = fmap.density.shape
    fi = (events.edge_time - fmap.t[0]) / (fmap.t[1] - fmap.t[0])
    fj = (events.arrival_time - fmap.T[0]) / (fmap.T[1] - fmap.T[0])
    inside = (fi >= 0) & (fi <= nt - 1) & (fj >= 0) & (fj <= nT - 1)
    i = np.clip(fi.astype(int), 0, nt - 2)
    j = np.clip(fj.astype(int), 0, nT - 2)
    return i, j, fi - i, fj - j, inside


def off_lattice_count(events: EventSet, fmap: FoldedMap) -> int:
    """Number of events outside the map's (t, T) lattice, which score the
    density floor."""
    return int(np.count_nonzero(~_event_cells(events, fmap)[4]))


def _events_log_likelihood(events: EventSet, fmap: FoldedMap,
                           f: np.ndarray, inside: np.ndarray, Z, p,
                           conditional: bool):
    """The per-event log-likelihood formula of every scoring path.

    f holds the events' bilinear densities along its last axis; Z (the
    window mass) and p (the transmitted fraction) carry f's leading axes,
    one value per scan point on the node path.  Events off the lattice
    score zero density, and every density is floored at
    DENSITY_FLOOR Z / span.
    """
    n = events.n_detected
    Z = np.asarray(Z)
    f = np.where(inside, f, 0.0)
    span = (fmap.t[-1] - fmap.t[0]) * (fmap.T[-1] - fmap.T[0])
    floor = DENSITY_FLOOR * Z / span
    ll = np.log(np.maximum(f, floor[..., None])).sum(axis=-1) - n * np.log(Z)
    if not conditional:
        p = np.minimum(p, 1.0)
        ll = ll + n * np.log(p) + (events.n_source - n) * np.log1p(-p)
    return ll


def log_likelihood(events: EventSet, fmap: FoldedMap,
                   conditional: bool = True) -> float:
    """Log-likelihood of the event set under one map.

    Conditional (default): product of the per-event arrival densities
    normalized over the lattice window.  Unconditional adds the binomial
    detected/not-detected term with p(g) the transmitted fraction.
    """
    i, j, x, y, inside = _event_cells(events, fmap)
    f = _bilinear_at(fmap.density, i, j, x, y)
    return float(_events_log_likelihood(
        events, fmap, f, inside, fmap.normalizer,
        fmap.metadata["fraction"], conditional))


def _lobatto_points(n: int) -> np.ndarray:
    """cos(pi k / n), k = 0..n, written as a sine so that the centre point
    is exactly 0 and the set is exactly symmetric."""
    k = np.arange(n + 1)
    return np.sin(np.pi * (n - 2 * k) / (2 * n))


def _barycentric_weights(n: int) -> np.ndarray:
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] *= 0.5
    return w


def _spread(values: np.ndarray) -> np.ndarray:
    """Node values of a Lobatto set moved to the even slots of the doubled
    set; the odd slots are left to be filled."""
    out = np.empty((2 * values.shape[0] - 1,) + values.shape[1:])
    out[0::2] = values
    return out


def _chebyshev_tail(values: np.ndarray) -> float:
    """Largest |c_{n-1}|, |c_n| over the trailing axes of samples at the
    n + 1 Lobatto points (leading axis), by the DCT-I sum."""
    n = values.shape[0] - 1
    half = np.ones(n + 1)
    half[[0, -1]] = 0.5
    rows = np.cos(np.pi * np.outer([n - 1, n], np.arange(n + 1)) / n)
    rows *= half * (2.0 / n)
    rows[1] *= 0.5
    # one coefficient map at a time: this runs beside the node stack
    return max(float(np.abs(np.tensordot(row, values, axes=1)).max())
               for row in rows)


@dataclass(frozen=True)
class MapNodes:
    """Folded-map densities at the Chebyshev-Lobatto points of a g window.

    Node k sits at g0 (1 + rel_window x_k) with x_k = cos(pi k / n), so the
    centre node is g0 itself.  Only the node densities are kept, one
    (P, n_t, n_T) stack, with each node's window mass Z_k and transmitted
    fraction; `center` is the g0 map, which carries the lattice.  Between
    the nodes every quantity linear in the density is the barycentric
    combination of its node values; the interpolant does not extrapolate.
    `slope` differentiates it at g0.  `tail` is the final Chebyshev tail
    over the map maximum.
    """

    rel_window: float
    x: np.ndarray
    density: np.ndarray
    normalizer: np.ndarray
    fraction: np.ndarray
    center: FoldedMap
    tail: float

    @property
    def g(self) -> np.ndarray:
        return self.center.g * (1.0 + self.rel_window * self.x)

    def _offset(self, g) -> np.ndarray:
        x = (np.asarray(g, dtype=float) / self.center.g - 1.0) \
            / self.rel_window
        if np.any(np.abs(x) > 1.0 + 1e-9):
            raise DomainError("g lies outside the node window; widen the "
                              "window instead of extrapolating")
        return x

    def weights(self, g) -> np.ndarray:
        """Weights (..., P) of the interpolant at g: value = weights @ node
        values.  At a node they are exactly that node's unit vector."""
        diff = self._offset(g)[..., None] - self.x
        hit = diff == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            a = _barycentric_weights(self.x.shape[0] - 1) / diff
            w = a / a.sum(axis=-1, keepdims=True)
        return np.where(hit.any(axis=-1, keepdims=True), hit * 1.0, w)

    @property
    def slope(self) -> np.ndarray:
        """Weights (P,) of the interpolant's derivative d/dg at g0: the
        centre row of the differentiation matrix."""
        b = _barycentric_weights(self.x.shape[0] - 1)
        i = self.x.shape[0] // 2
        others = np.arange(b.shape[0]) != i
        d = np.zeros(b.shape[0])
        d[others] = (b[others] / b[i]) / (self.x[i] - self.x[others])
        d[i] = -d[others].sum()
        return d / (self.center.g * self.rel_window)

    def density_at(self, g: float) -> np.ndarray:
        """Interpolated (n_t, n_T) density at one g."""
        return np.tensordot(self.weights(g), self.density, axes=1)

    def scan(self, events: EventSet, g_values,
             conditional: bool = True) -> np.ndarray:
        """Log-likelihood of one event set at each g of g_values.

        Each event's bilinear density is read at the P nodes once; a scan
        point is then a weighted sum of those and of the node Z_k and
        fractions, scored by the formula of `log_likelihood`.
        """
        i, j, x, y, inside = _event_cells(events, self.center)
        f = _bilinear_at(self.density, i, j, x, y)   # (P, n)
        L = self.weights(g_values)                   # (n_scan, P)
        return _events_log_likelihood(
            events, self.center, L @ f, inside, L @ self.normalizer,
            L @ self.fraction, conditional)


class GridDensityFamily:
    """Folded maps over g on one frozen (t, T) lattice, built lazily.

    The lattice, mode grid, and recoil nodes are fixed at g0, so densities
    at different g are directly comparable cell by cell.  The family keeps
    its g0 map and the node set of the last window, and builds every other
    map anew; `builds` counts the maps built.
    """

    def __init__(self, n_max: int, trap: TrapConfig,
                 photodetach: PhotodetachConfig, geometry: DiskGeometry,
                 spec: GridSpec = GridSpec(), g0: float = G_DEFAULT):
        self.maker = MapMaker(n_max, trap, photodetach, geometry, spec, g0)
        self.geometry = geometry
        self.builds = 0
        self._center = None
        self._nodes = None

    @property
    def g0(self) -> float:
        return self.maker.g0

    def map_at(self, g: float) -> FoldedMap:
        g = float(g)
        if g == self.g0 and self._center is not None:
            return self._center
        fmap = self.maker.build(g)
        self.builds += 1
        if g == self.g0:
            self._center = fmap
        return fmap

    def nodes(self, rel_window: float) -> MapNodes:
        """Node set over [g0 (1 - rel_window), g0 (1 + rel_window)].

        The g0 map is the kept one; of the other nodes only the densities
        stay.  The set of the last window is kept, so a scan and the Fisher
        information at the same window share one set.
        """
        if self._nodes is not None and self._nodes.rel_window == rel_window:
            return self._nodes
        if not 0.0 < rel_window < 1.0:
            raise DomainError("the scan window must lie in (0, 1)")
        self._nodes = None
        center = self.map_at(self.g0)
        x = _lobatto_points(MIN_NODES - 1)
        density = np.empty((x.shape[0],) + center.density.shape)
        normalizer = np.empty(x.shape[0])
        fraction = np.empty(x.shape[0])
        fresh = range(x.shape[0])
        while True:
            for k in fresh:
                # the centre node is g0 exactly: the kept map
                fm = self.map_at(self.g0 * (1.0 + rel_window * x[k]))
                density[k] = fm.density
                normalizer[k] = fm.normalizer
                fraction[k] = fm.metadata["fraction"]
                del fm   # not alive during the next build
            tail = float(_chebyshev_tail(density) / density.max())
            if tail <= NODE_TAIL or x.shape[0] >= MAX_NODES:
                break
            # the doubled set holds the current points at its even indices
            x = _lobatto_points(2 * (x.shape[0] - 1))
            density, normalizer, fraction = (
                _spread(a) for a in (density, normalizer, fraction))
            fresh = range(1, x.shape[0], 2)
        self._nodes = MapNodes(
            rel_window=rel_window, x=x, density=density,
            normalizer=normalizer, fraction=fraction, center=center,
            tail=tail)
        return self._nodes


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
               rel_window: float = REL_WINDOW, n_scan: int = N_SCAN,
               conditional: bool = True) -> GravityEstimate:
    """Maximum-likelihood g from a scan plus parabolic refinement.

    The scan reads the family's node set over the window.  If the maximum
    lands on a scan edge the window is doubled (up to MAX_WIDEN times, and
    never to a window of 1 or more, which no node set covers), with a node
    set built over the wider window, so a poorly guessed window cannot
    silently truncate the estimate.
    """
    if events.n_detected == 0:
        raise DomainError("cannot estimate g from zero detected events")
    widened = 0
    while True:
        g_values = _scan_lattice(family.g0, rel_window, n_scan)
        ll = family.nodes(rel_window).scan(events, g_values, conditional)
        g_hat, sigma, on_edge = _refine_peak(g_values, ll)
        if not on_edge or widened >= MAX_WIDEN or 2.0 * rel_window >= 1.0:
            return GravityEstimate(value=g_hat, sigma=sigma,
                                   scan_g=g_values, scan_ll=ll,
                                   widened=widened)
        rel_window *= 2.0
        widened += 1


def fisher_information(family: GridDensityFamily,
                       rel_window: float = REL_WINDOW) -> float:
    """Per-detected-event Fisher information of the arrival density at g0.

    I = sum_c m_c (d log m_c / dg)^2 over the normalized cell masses above
    the mass floor.  The masses are those of the g0 map; their
    g-derivative is the node interpolant's over rel_window (cell masses
    are linear in the density).
    """
    nodes = family.nodes(rel_window)
    area = nodes.center.cell_area
    m = cell_masses(nodes.center.density, area)
    dm = cell_masses(np.tensordot(nodes.slope, nodes.density, axes=1), area)
    Z = m.sum()
    mask = m / Z > FISHER_MASS_FLOOR
    score = dm[mask] / m[mask] - dm.sum() / Z
    return float((m[mask] / Z * score * score).sum())


def count_information(family: GridDensityFamily,
                      rel_window: float = REL_WINDOW) -> float:
    """Per-source-atom information in the detected/not-detected split at
    g0."""
    nodes = family.nodes(rel_window)
    p = nodes.center.metadata["fraction"]
    dp = nodes.slope @ nodes.fraction
    return float(dp * dp / (p * (1.0 - p)))


def cramer_rao_sigma(family: GridDensityFamily, n_source: int,
                     conditional: bool = True,
                     rel_window: float = REL_WINDOW) -> float:
    """Lower bound on sigma_g at g0 for one experiment of n_source atoms."""
    p = family.nodes(rel_window).center.metadata["fraction"]
    info = n_source * p * fisher_information(family, rel_window)
    if not conditional:
        info += n_source * count_information(family, rel_window)
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
    map_builds: int
    node_tail: float

    def summary(self) -> dict:
        """The scalar fields and the mean detected count."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if not isinstance(getattr(self, f.name), np.ndarray)}
        out["mean_detected"] = float(self.n_detected.mean())
        return out


def run_campaign(family: GridDensityFamily, n_source: int,
                 n_replicates: int, seed: int,
                 rel_window: float = REL_WINDOW, n_scan: int = N_SCAN,
                 conditional: bool = True) -> CampaignResult:
    """Replicated experiments at g0 against the Cramer-Rao bound.

    One node set over the scan window serves every replicate and the
    bound, so the map-build cost depends on neither the replicate count
    nor the scan count.  Replicate r draws from the Philox stream keyed by
    (seed, r) regardless of execution order.
    """
    if n_replicates < 2:
        raise DomainError("need at least 2 replicates for a spread")
    g_true = family.g0
    builds = family.builds
    g_values = _scan_lattice(g_true, rel_window, n_scan)
    nodes = family.nodes(rel_window)
    events = [sample_events(nodes.center, n_source, replicate_rng(seed, r))
              for r in range(n_replicates)]
    if min(ev.n_detected for ev in events) == 0:
        raise DomainError("a replicate detected zero events; "
                          "raise the source count")

    estimates = np.empty(n_replicates)
    sigmas = np.empty(n_replicates)
    edge_hits = 0
    for r, ev in enumerate(events):
        ll = nodes.scan(ev, g_values, conditional)
        estimates[r], sigmas[r], on_edge = _refine_peak(g_values, ll)
        edge_hits += int(on_edge)

    g_mean = float(estimates.mean())
    sigma_mc = float(estimates.std(ddof=1))
    sigma_cr = cramer_rao_sigma(family, n_source, conditional, rel_window)
    return CampaignResult(
        g_true=g_true, n_source=n_source, n_replicates=n_replicates,
        seed=seed, estimates=estimates, sigmas=sigmas,
        n_detected=np.asarray([ev.n_detected for ev in events]),
        scan_g=g_values, edge_hits=edge_hits, g_mean=g_mean,
        bias=g_mean - g_true, sigma_mc=sigma_mc,
        sigma_mc_se=sigma_mc / math.sqrt(2.0 * (n_replicates - 1)),
        sigma_cr=sigma_cr, sigma_ratio=sigma_mc / sigma_cr,
        map_builds=family.builds - builds, node_tail=nodes.tail)
