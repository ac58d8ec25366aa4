"""Exact samplers for the arrival-departure process.

Two independent routes to the same law:

  * one-shot transition sampling: the time-t state from an initial
    configuration is (survivors, aged by t) union (fresh arrivals from the
    newcomer intensity rho_t), both exact draws;
  * event-driven simulation: each path's arrivals are a homogeneous Poisson
    stream in time with chi-distributed locations, and given them each
    particle departs by Lewis-Shedler thinning of its own rate-m_star clock;
    all paths of a call are drawn together and kept as flat per-particle
    arrays (EventTrajectory).

The newcomer intensity at horizon t is

    rho_t(dx, dalpha) = 1[0 <= alpha < t] exp(-M(x, alpha)) chi(dx) dalpha,

sampled by stratifying the age window into strips, the panels of the age
rule (no wider than age_panel_width and 1/m_star), and rejecting uniform
proposals against the strip envelope exp(-m_zero * left edge).  For constant
hazards every strip accepts with probability >= 1/e; the draw is exact for
any hazard regardless of acceptance rate.  Each rejection round proposes for
every strip still short at once, so the number of strips costs no Python
loop.

Survival thinning keeps a particle when its uniform u is below q_dt(x, alpha),
squeezed (Marsaglia 1977; Devroye 1986, II.5): q lies in the band
[exp(-m_star dt), exp(-m_zero dt)], so q is computed only where u falls
inside it, and each computed q is checked against the band.

The samplers rely on the declared bounds m_zero <= m <= m_star and
density <= density_sup; a draw that sees one broken raises ValueError
instead of quietly biasing the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config_space import MarkedConfiguration
from .habitat import (
    _BLOCK,
    age_panel_width,
    age_panels,
    chi_sample,
    gauss_profile_nodes,
    survival_factor,
    survival_slice,
)

__all__ = [
    "IntensityMeasure",
    "transient_intensity",
    "stationary_intensity",
    "sample_poisson",
    "PathBundle",
    "EventTrajectory",
    "event_driven_simulate",
    "sample_trajectory_marginals",
]

# relative rounding allowance of the survival band of PathBundle.thin_and_age
_SQUEEZE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class IntensityMeasure:
    """Arrival intensity density(x) * exp(-M(x, alpha)) on the age window [0, age_upper).

    The window is [0, t) for the law of newcomers since an empty start t
    ago, or [0, a_max] truncating the invariant intensity, with
    truncation_error bounding the discarded mass.  strip_edges/strip_masses
    stratify the window for rejection sampling.
    """

    habitat: object
    model: object
    age_upper: float
    strip_edges: np.ndarray
    strip_masses: np.ndarray
    truncation_error: float = 0.0

    @property
    def total_mass(self):
        return float(self.strip_masses.sum())


def _strip_quadrature(habitat, model, edges):
    """Masses int_strip int_window exp(-M) dchi dalpha, each strip one panel
    of the age rule, all strips in one survival_slice call."""
    nodes, weights = gauss_profile_nodes(habitat)
    ages, age_weights = age_panels(edges)
    values = survival_slice(model, nodes, weights, lambda x, u: 1.0, ages)
    return np.sum(values * age_weights, axis=1)


def _make_intensity(habitat, model, age_upper, truncation_error=0.0):
    if age_upper < 0:
        raise ValueError("age window must be nonnegative")
    if age_upper == 0.0:
        edges = np.array([0.0, 0.0])
        return IntensityMeasure(habitat, model, 0.0, edges, np.zeros(1), truncation_error)
    # each strip is one panel of the age rule, so its mass is that rule's
    # value; exp(-M) falls by at most 1/e across it
    width = age_panel_width(model)
    if model.m_star > 0:
        width = min(width, 1.0 / model.m_star)
    n_strips = max(1, int(math.ceil(age_upper / width - 1e-12)))
    edges = np.linspace(0.0, age_upper, n_strips + 1)
    masses = _strip_quadrature(habitat, model, edges)
    return IntensityMeasure(habitat, model, float(age_upper), edges, masses, truncation_error)


def transient_intensity(habitat, model, t):
    """Newcomer intensity rho_t: ages in [0, t), weighted by survival."""
    return _make_intensity(habitat, model, float(t))


def stationary_intensity(habitat, model, a_max=None):
    """Invariant intensity truncated to ages [0, a_max]; default a_max = 40/m_zero.

    Requires m_zero > 0; reports the sharp discarded-mass bound
    chi_mass exp(-m_zero a_max)/m_zero.
    """
    if model.m_zero <= 0:
        raise ValueError("a stationary intensity requires m_zero > 0")
    if a_max is None:
        a_max = 40.0 / model.m_zero
    err = habitat.chi_mass * math.exp(-model.m_zero * a_max) / model.m_zero
    return _make_intensity(habitat, model, float(a_max), truncation_error=err)


def _sample_points(intensity, count, rng):
    """Exact iid draws from the normalized intensity; returns (positions, ages).

    A multinomial draw on the strip masses says how many points each strip
    needs.  Each rejection round then proposes for every strip still short
    at once: about need / acceptance plus three standard deviations of
    points uniform in chi x strip, at most _BLOCK per round, and accepts a
    proposal at age alpha in the strip [a, b) with chance
    exp(-M(x, alpha)) / exp(-m_zero a).  The first `need` accepted proposals
    of each strip are kept.  The points come back grouped by round and
    strip: an iid sample whose order carries no meaning.
    """
    habitat = intensity.habitat
    model = intensity.model
    d = habitat.dim
    if count == 0:
        return np.empty((0, d)), np.empty(0)
    total = intensity.total_mass
    if total <= 0:
        raise ValueError("intensity has zero mass")
    lower = intensity.strip_edges[:-1]
    width = np.diff(intensity.strip_edges)
    envelope = np.exp(-model.m_zero * lower)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a strip whose envelope underflows has no mass and gets no point
        accept = intensity.strip_masses / (habitat.chi_mass * width * envelope)
    accept = np.clip(np.nan_to_num(accept, nan=1.0), 1e-3, 1.0)
    need = rng.multinomial(count, intensity.strip_masses / total)
    pos_parts, age_parts = [], []
    while True:
        short = np.flatnonzero(need)
        if short.size == 0:
            break
        mean = need[short] / accept[short]
        plan = np.ceil(mean + 3.0 * np.sqrt(mean * (1.0 - accept[short]) / accept[short]))
        plan = plan.astype(np.int64)
        # strips past the first _BLOCK proposals wait for a later round
        plan = np.clip(_BLOCK - (np.cumsum(plan) - plan), 0, plan)
        strip = np.repeat(short, plan)
        n = strip.size
        xs = chi_sample(habitat, rng, size=n)
        ages = lower[strip] + width[strip] * rng.random(n)
        survival = np.exp(-model.cumulative(xs, ages))
        bound = envelope[strip]
        if np.any(survival > bound):
            raise ValueError("exp(-M) exceeds its strip envelope: hazard below m_zero")
        hit = np.flatnonzero(bound * rng.random(n) < survival)
        hit_strip = strip[hit]
        # the hits come grouped by strip; keep the first `need` of each group
        got = np.bincount(hit_strip, minlength=need.size)
        rank = np.arange(hit.size) - (np.cumsum(got) - got)[hit_strip]
        hit = hit[rank < need[hit_strip]]
        pos_parts.append(np.take(xs, hit, axis=0))
        age_parts.append(np.take(ages, hit))
        need -= np.minimum(got, need)
    return np.concatenate(pos_parts), np.concatenate(age_parts)


def sample_poisson(intensity, rng):
    """One Poisson configuration: count ~ Poisson(mass), then iid points."""
    n = int(rng.poisson(intensity.total_mass)) if intensity.total_mass > 0 else 0
    return MarkedConfiguration(*_sample_points(intensity, n, rng))


class PathBundle:
    """n_paths configurations evolved in lockstep, stored as flat arrays in no particular order."""

    __slots__ = ("n_paths", "dim", "path_ids", "positions", "ages")

    def __init__(self, n_paths, dim, path_ids=None, positions=None, ages=None):
        self.n_paths = int(n_paths)
        self.dim = int(dim)
        self.path_ids = (
            np.empty(0, dtype=np.int64) if path_ids is None else np.asarray(path_ids, np.int64)
        )
        self.positions = (
            np.empty((0, dim)) if positions is None else np.asarray(positions, dtype=float)
        )
        self.ages = np.empty(0) if ages is None else np.asarray(ages, dtype=float)

    @classmethod
    def from_configuration(cls, config, n_paths):
        """Every path starts at the same configuration."""
        n = len(config)
        ids = np.repeat(np.arange(n_paths, dtype=np.int64), n)
        pos = np.tile(config.positions, (n_paths, 1))
        ages = np.tile(config.ages, n_paths)
        return cls(n_paths, config.dim, ids, pos, ages)

    def thin_and_age(self, dt, model, rng):
        """Each particle survives dt with chance q_dt(x, alpha), then ages by dt.

        Averaging prod (1 + theta) over the survivals gives the flowed
        functional F_{theta_dt}: this is the exact kernel of the age flow.
        A particle is kept when its uniform u < q; a u below the survival
        band keeps and one above it drops without q, so every decision is
        that of u < q on all particles.
        """
        if self.path_ids.size == 0 or dt == 0.0:
            self.ages = self.ages + dt
            return
        u = rng.random(self.ages.size)
        lo = math.exp(-model.m_star * dt) * (1.0 - _SQUEEZE_SLACK)
        hi = math.exp(-model.m_zero * dt) * (1.0 + _SQUEEZE_SLACK)
        keep = u < lo
        band = np.flatnonzero(~keep & (u < hi))
        if band.size:
            q = survival_factor(
                model, np.take(self.positions, band, axis=0), np.take(self.ages, band), dt
            )
            if not np.all((q >= lo) & (q <= hi)):
                raise ValueError(
                    "survival chance outside [exp(-m_star dt), exp(-m_zero dt)]: "
                    "hazard outside [m_zero, m_star]"
                )
            keep[band] = np.take(u, band) < q
        self.path_ids = np.compress(keep, self.path_ids)
        self.positions = np.compress(keep, self.positions, axis=0)
        self.ages = np.compress(keep, self.ages) + dt

    def add_poisson(self, intensity, rng):
        """An independent Poisson(intensity) configuration for every path: one
        Poisson field of n_paths times the mass, each point labelled with a
        uniform path (the colouring theorem; Kingman 1993, 5.1)."""
        total = int(rng.poisson(intensity.total_mass * self.n_paths))
        ids = rng.integers(self.n_paths, size=total)
        pos, ages = _sample_points(intensity, total, rng)
        self.path_ids = np.concatenate([self.path_ids, ids])
        self.positions = np.vstack([self.positions, pos])
        self.ages = np.concatenate([self.ages, ages])

    def transition(self, dt, intensity, model, rng):
        self.thin_and_age(dt, model, rng)
        self.add_poisson(intensity, rng)

    def sum_by_path(self, particle_values):
        return np.bincount(self.path_ids, weights=particle_values, minlength=self.n_paths)

    def counts(self):
        return np.bincount(self.path_ids, minlength=self.n_paths)

    def f_theta(self, theta):
        """F_theta of every path: exp(-sum of g over its particles), g taken
        _BLOCK particles at a time (it is elementwise: the bits of one call)."""
        g = np.empty(self.ages.size)
        for i in range(0, g.size, _BLOCK):
            g[i : i + _BLOCK] = theta.g(self.positions[i : i + _BLOCK], self.ages[i : i + _BLOCK])
        return np.exp(self.sum_by_path(np.negative(g, out=g)))


@dataclass(frozen=True, eq=False)
class EventTrajectory:
    """Event histories of n_paths paths as flat per-particle arrays.

    Particle j of the run belongs to path path_ids[j], where it is number
    ids[j]: the initial particles first, then the arrivals in time order.
    It sits at positions[j], was born at births[j] (minus its age for an
    initial particle) and departs at deaths[j] (inf if alive at the
    horizon).  proposals and accepts count the thinning clock's proposals
    before the horizon and the departures among them.
    """

    dim: int
    horizon: float
    n_paths: int
    n_initial: int
    path_ids: np.ndarray
    ids: np.ndarray
    positions: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    proposals: int
    accepts: int

    def state_at(self, time):
        """The population of every path at `time`, with ages, as a PathBundle."""
        if not (0.0 <= time <= self.horizon):
            raise ValueError("time outside the simulated horizon")
        alive = (self.births <= time) & (self.deaths > time)
        return PathBundle(
            self.n_paths, self.dim, self.path_ids[alive], self.positions[alive],
            time - self.births[alive],
        )

    @cached_property
    def events(self):
        """Arrivals and departures as a structured array sorted by (path, time).

        Fields: path, time, kind ("arrival" or "departure"), id, x, age (0 at
        an arrival, death - birth at a departure).  Initial particles have no
        arrival event.
        """
        arrived = np.flatnonzero(self.ids >= self.n_initial)
        departed = np.flatnonzero(np.isfinite(self.deaths))
        rows = np.concatenate([arrived, departed])
        is_departure = np.arange(rows.size) >= arrived.size
        out = np.empty(
            rows.size,
            dtype=[("path", np.int64), ("time", float), ("kind", "U9"), ("id", np.int64),
                   ("x", float, (self.dim,)), ("age", float)],
        )
        out["path"] = self.path_ids[rows]
        out["time"] = np.concatenate([self.births[arrived], self.deaths[departed]])
        out["kind"] = np.where(is_departure, "departure", "arrival")
        out["id"] = self.ids[rows]
        out["x"] = self.positions[rows]
        out["age"] = np.where(is_departure, out["time"] - self.births[rows], 0.0)
        return out[np.lexsort((out["time"], out["path"]))]


def event_driven_simulate(config, horizon, habitat, model, rng, n_paths=1):
    """Simulate n_paths paths from `config` by arrival streams and hazard thinning.

    Each path's arrivals are a Poisson(chi_mass * horizon) number of uniform
    times with chi-distributed locations.  Given them, particles depart
    independently: each runs a rate-m_star clock from max(birth, 0) and a
    proposal at age a is accepted with probability m(x, a)/m_star
    (Lewis-Shedler thinning).  The clocks of all live particles advance
    together, one proposal per round, until each has departed or passed the
    horizon.  Raises ValueError if a proposal sees m(x, a) > m_star.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    horizon = float(horizon)
    dim, k = habitat.dim, len(config)
    arrivals = rng.poisson(habitat.chi_mass * horizon, n_paths)
    n_arr = int(arrivals.sum())
    sizes = k + arrivals
    path_ids = np.repeat(np.arange(n_paths, dtype=np.int64), sizes)
    ids = np.arange(path_ids.size, dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    initial = ids < k
    times = rng.uniform(0.0, horizon, n_arr)
    births = np.empty(path_ids.size)
    births[initial] = np.tile(-np.asarray(config.ages, dtype=float), n_paths)
    births[~initial] = times[np.lexsort((times, path_ids[~initial]))]
    positions = np.empty((path_ids.size, dim))
    positions[initial] = np.tile(config.positions, (n_paths, 1))
    if n_arr:
        positions[~initial] = chi_sample(habitat, rng, size=n_arr)
    deaths = np.full(path_ids.size, math.inf)
    proposals = accepts = 0
    m_star = model.m_star
    live = np.arange(path_ids.size) if m_star > 0 else np.empty(0, dtype=np.int64)
    clock = np.maximum(births, 0.0)
    while live.size:
        clock[live] += rng.exponential(1.0 / m_star, live.size)
        live = live[clock[live] < horizon]
        ages = clock[live] - births[live]
        rate = model.rate(positions[live], ages)
        if np.any(rate > m_star):
            raise ValueError("departure rate exceeds its declared bound m_star")
        hit = rng.random(live.size) * m_star < rate
        deaths[live[hit]] = clock[live[hit]]
        proposals += live.size
        accepts += int(np.count_nonzero(hit))
        live = live[~hit]
    return EventTrajectory(
        dim, horizon, int(n_paths), k, path_ids, ids, positions, births, deaths,
        proposals, accepts,
    )


def sample_trajectory_marginals(initial, times, thetas, habitat, model, n_paths, rng):
    """Monte Carlo marginals of F_theta and counts along a time grid.

    initial: MarkedConfiguration (all paths start there), IntensityMeasure
    (Poisson start), or None (empty start).  Returns a dict with keys
    ("f", time_index, theta_index) -> per-path array and
    ("count", time_index) -> per-path integer array.
    """
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted")
    if isinstance(initial, MarkedConfiguration):
        bundle = PathBundle.from_configuration(initial, n_paths)
    else:
        bundle = PathBundle(n_paths, habitat.dim)
        if initial is not None:
            bundle.add_poisson(initial, rng)
    out = {}
    t_now = 0.0
    for ti, t in enumerate(times):
        dt = t - t_now
        if dt > 0:
            intensity = transient_intensity(habitat, model, dt)
            bundle.transition(dt, intensity, model, rng)
            t_now = t
        for hi, theta in enumerate(thetas):
            out[("f", ti, hi)] = bundle.f_theta(theta)
        out[("count", ti)] = bundle.counts()
    return out

