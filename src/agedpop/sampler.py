"""Exact samplers for the arrival-departure process.

Two independent routes to the same law:

  * one-shot transition sampling: the time-t state from an initial
    configuration is (survivors, aged by t) union (fresh arrivals from the
    newcomer intensity rho_t), both exact draws;
  * event-driven simulation: arrivals as a homogeneous Poisson stream in
    time, departures by per-particle hazard thinning with envelope m_star.

The newcomer intensity at horizon t is

    rho_t(dx, dalpha) = 1[0 <= alpha < t] exp(-M(x, alpha)) chi(dx) dalpha,

sampled by stratifying the age window into strips of width <= 2/m_star and
rejecting uniform proposals against the strip envelope exp(-m_zero * left
edge).  For constant hazards every strip accepts with probability >= e^-2;
the draw is exact for any hazard regardless of acceptance rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config_space import MarkedConfiguration
from .habitat import (
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
    "Event",
    "EventTrajectory",
    "event_driven_simulate",
    "sample_trajectory_marginals",
    "per_path_seeds",
]

_AGE_GL_ORDER = 16


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

    def theta_integral(self, theta, tol=1e-10):
        """int theta d rho over the age window, by nested quadrature."""
        return survival_weighted_integral(
            self.habitat, self.model, theta.theta, 0.0, self.age_upper,
            breakpoints=getattr(theta, "x_breakpoints", ()), tol=tol,
        )


def _strip_quadrature(habitat, model, edges):
    """Masses int_strip int_window exp(-M) dchi dalpha by Gauss-Legendre."""
    nodes, weights = gauss_profile_nodes(habitat)
    gx, gw = leggauss(_AGE_GL_ORDER)
    masses = np.empty(len(edges) - 1)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        half = (b - a) / 2.0
        ages = (a + b) / 2.0 + half * gx
        masses[i] = survival_slice(model, nodes, weights, lambda x, u: 1.0, ages) @ (half * gw)
    return masses


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
            M = model.cumulative(xs, ages)
            keep = rng.uniform(0.0, envelope, size=batch) < np.exp(-M)
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


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # "arrival" | "departure"
    pid: int
    x: tuple
    age: float


@dataclass
class EventTrajectory:
    """Full event history of one path plus enough to replay any marginal."""

    dim: int
    horizon: float
    births: dict = field(default_factory=dict)  # pid -> (x, birth time)
    deaths: dict = field(default_factory=dict)  # pid -> death time
    events: list = field(default_factory=list)

    def state_at(self, time):
        if not (0.0 <= time <= self.horizon):
            raise ValueError("time outside the simulated horizon")
        pos, ages = [], []
        for pid, (x, birth) in self.births.items():
            if birth <= time and self.deaths.get(pid, math.inf) > time:
                pos.append(x)
                ages.append(time - birth)
        if not pos:
            return MarkedConfiguration.empty(self.dim)
        return MarkedConfiguration(np.asarray(pos), np.asarray(ages))


def event_driven_simulate(config, horizon, habitat, model, rng):
    """Simulate by competing exponential clocks and hazard thinning.

    Arrivals occur at rate chi_mass with locations drawn from chi; each live
    particle proposes departures at the envelope rate m_star, accepted with
    probability m(x, current age)/m_star.  Equivalent to per-particle
    thinning, but with one aggregate clock so the rate follows the population.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    traj = EventTrajectory(dim=habitat.dim, horizon=float(horizon))
    alive = {}
    for pid in range(len(config)):
        x = config.positions[pid]
        traj.births[pid] = (tuple(x), -float(config.ages[pid]))
        alive[pid] = x
    next_pid = len(config)
    order = []  # stable list of live pids for uniform picks
    order.extend(range(len(config)))
    t = 0.0
    chi_mass = habitat.chi_mass
    m_star = model.m_star
    while True:
        rate = chi_mass + len(order) * m_star
        if rate <= 0.0:
            break
        t = t + rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        if rng.random() < chi_mass / rate:
            x = chi_sample(habitat, rng)
            traj.births[next_pid] = (tuple(x), t)
            alive[next_pid] = x
            order.append(next_pid)
            traj.events.append(Event(t, "arrival", next_pid, tuple(x), 0.0))
            next_pid += 1
        else:
            slot = int(rng.integers(len(order)))
            pid = order[slot]
            x = alive[pid]
            age = t - traj.births[pid][1]
            if rng.random() < float(model.rate(x, age)) / m_star:
                traj.deaths[pid] = t
                traj.events.append(Event(t, "departure", pid, tuple(x), age))
                order[slot] = order[-1]
                order.pop()
                del alive[pid]
    return traj


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


def per_path_seeds(seed, n_paths):
    """Independent child seeds, one per path, stable across worker splits."""
    return np.random.SeedSequence(seed).spawn(n_paths)
