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

sampled by stratifying the age window into strips of width <= 2/m_star and
rejecting uniform proposals against the strip envelope exp(-m_zero * left
edge).  For constant hazards every strip accepts with probability >= e^-2;
the draw is exact for any hazard regardless of acceptance rate.

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
    age_panels,
    chi_sample,
    gauss_profile_nodes,
    survival_factor,
    survival_slice,
    survival_weighted_integral,
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

@dataclass(frozen=True, eq=False)
class IntensityMeasure:
    """Arrival intensity density(x) * exp(-M(x, alpha)) on a finite age window.

    kind is "transient" (age window [0, t): the law of newcomers since an
    empty start t ago) or "stationary" (window [0, a_max] truncating the
    invariant intensity; truncation_error bounds the discarded mass).
    strip_edges/strip_masses stratify the window for rejection sampling.
    """

    habitat: object
    model: object
    kind: str
    age_upper: float
    strip_edges: np.ndarray
    strip_masses: np.ndarray
    truncation_error: float = 0.0

    @property
    def total_mass(self):
        return float(self.strip_masses.sum())

    def density(self, x, alpha):
        """Pointwise intensity density; zero outside the window and age range."""
        x = np.asarray(x, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        in_age = (alpha >= 0) & (alpha < self.age_upper)
        in_box = np.all((x >= self.habitat.lower) & (x <= self.habitat.upper), axis=-1)
        M = self.model.cumulative(x, alpha)
        return np.where(in_age & in_box, self.habitat.density(x) * np.exp(-M), 0.0)

    def theta_integral(self, theta):
        """int theta d rho over the age window, on the age-panel rule."""
        return survival_weighted_integral(
            self.habitat, self.model, theta.theta, 0.0, self.age_upper,
            breakpoints=getattr(theta, "x_breakpoints", ()),
            age_scale=getattr(theta, "age_scale", 1.0),
        )


def _strip_quadrature(habitat, model, edges):
    """Masses int_strip int_window exp(-M) dchi dalpha, one 16-point age
    panel per strip, all strips in one survival_slice call."""
    nodes, weights = gauss_profile_nodes(habitat)
    ages, age_weights = age_panels(edges)
    values = survival_slice(model, nodes, weights, lambda x, u: 1.0, ages)
    return np.sum(values * age_weights, axis=1)


def _make_intensity(habitat, model, age_upper, kind, truncation_error=0.0):
    if age_upper < 0:
        raise ValueError("age window must be nonnegative")
    if age_upper == 0.0:
        edges = np.array([0.0, 0.0])
        return IntensityMeasure(
            habitat, model, kind, 0.0, edges, np.zeros(1), truncation_error
        )
    width = age_upper if model.m_star == 0 else min(2.0 / model.m_star, age_upper)
    n_strips = max(1, int(math.ceil(age_upper / width - 1e-12)))
    edges = np.linspace(0.0, age_upper, n_strips + 1)
    masses = _strip_quadrature(habitat, model, edges)
    return IntensityMeasure(habitat, model, kind, float(age_upper), edges, masses, truncation_error)


def transient_intensity(habitat, model, t):
    """Newcomer intensity rho_t: ages in [0, t), weighted by survival."""
    return _make_intensity(habitat, model, float(t), "transient")


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
    return _make_intensity(habitat, model, float(a_max), "stationary", truncation_error=err)


def _sample_points(intensity, count, rng):
    """Exact iid draws from the normalized intensity; returns (positions, ages)."""
    habitat = intensity.habitat
    model = intensity.model
    d = habitat.dim
    if count == 0:
        return np.empty((0, d)), np.empty(0)
    total = intensity.total_mass
    if total <= 0:
        raise ValueError("intensity has zero mass")
    strat = rng.multinomial(count, intensity.strip_masses / total)
    pos_out = np.empty((count, d))
    age_out = np.empty(count)
    filled = 0
    for i, n_i in enumerate(strat):
        if n_i == 0:
            continue
        a, b = intensity.strip_edges[i], intensity.strip_edges[i + 1]
        envelope = math.exp(-model.m_zero * a)
        accept_rate = intensity.strip_masses[i] / (habitat.chi_mass * (b - a) * envelope)
        need = int(n_i)
        while need > 0:
            batch = max(32, int(1.2 * need / max(accept_rate, 1e-3)))
            xs = chi_sample(habitat, rng, size=batch)
            ages = rng.uniform(a, b, size=batch)
            survival = np.exp(-model.cumulative(xs, ages))
            if np.any(survival > envelope):
                raise ValueError("exp(-M) exceeds its strip envelope: hazard below m_zero")
            keep = rng.uniform(0.0, envelope, size=batch) < survival
            xs, ages = xs[keep], ages[keep]
            take = min(need, xs.shape[0])
            start = filled + int(n_i) - need
            pos_out[start : start + take] = xs[:take]
            age_out[start : start + take] = ages[:take]
            need -= take
        filled += int(n_i)
    return pos_out, age_out


def sample_poisson(intensity, rng):
    """One Poisson configuration: count ~ Poisson(mass), then iid points."""
    n = int(rng.poisson(intensity.total_mass)) if intensity.total_mass > 0 else 0
    if n == 0:
        return MarkedConfiguration.empty(intensity.habitat.dim)
    pos, ages = _sample_points(intensity, n, rng)
    return MarkedConfiguration(pos, ages)


class PathBundle:
    """n_paths configurations evolved in lockstep, stored as flat arrays."""

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
        """
        if self.path_ids.size == 0 or dt == 0.0:
            self.ages = self.ages + dt
            return
        q = survival_factor(model, self.positions, self.ages, dt)
        keep = rng.random(self.ages.size) < q
        self.path_ids = self.path_ids[keep]
        self.positions = self.positions[keep]
        self.ages = self.ages[keep] + dt

    def add_poisson(self, intensity, rng):
        counts = rng.poisson(intensity.total_mass, self.n_paths)
        total = int(counts.sum())
        if total == 0:
            return
        pos, ages = _sample_points(intensity, total, rng)
        ids = np.repeat(np.arange(self.n_paths, dtype=np.int64), counts)
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

    def log_f_theta(self, theta):
        if self.path_ids.size == 0:
            return np.zeros(self.n_paths)
        g = theta.g(self.positions, self.ages)
        return -self.sum_by_path(g)

    def f_theta(self, theta):
        return np.exp(self.log_f_theta(theta))

    def extract(self, i):
        sel = self.path_ids == i
        return MarkedConfiguration(self.positions[sel], self.ages[sel])


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


def sample_trajectory_marginals(
    initial, times, thetas, habitat, model, n_paths, rng, collect_counts=True
):
    """Monte Carlo marginals of F_theta (and counts) along a time grid.

    initial: MarkedConfiguration (all paths start there), IntensityMeasure
    (Poisson start), or None (empty start).  Returns a dict with keys
    ("f", time_index, theta_index) -> per-path array and, when requested,
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
        if collect_counts:
            out[("count", ti)] = bundle.counts()
    return out

