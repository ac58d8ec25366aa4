"""Exact samplers for the arrival-departure process.

Two independent routes to the same law:

  * one-shot transition sampling: the time-t state is (survivors of the start,
    aged by t) union (newcomers from the intensity rho_t), both exact draws; a
    fixed start survives by one uniform per particle against its survival table;
  * event-driven simulation: each path's arrivals are a homogeneous Poisson
    stream in time with chi-distributed locations, and given them each
    particle departs by Lewis-Shedler thinning of its own rate-m_star clock;
    all paths of a call are drawn together from one generator and kept as
    flat per-particle arrays (EventTrajectory).

The newcomer intensity at horizon t is

    rho_t(dx, dalpha) = 1[0 <= alpha < t] exp(-M(x, alpha)) chi(dx) dalpha,

sampled by rejection under the envelope exp(-m_zero alpha) chi(dx) dalpha,
which m >= m_zero puts above it (Devroye 1986, II.3): positions from chi,
ages from the truncated exponential by inversion, and acceptance with chance
exp(-(M - m_zero alpha)).  Under a constant hazard every proposal is
accepted; the draw is exact for any hazard regardless of acceptance rate.

Survival thinning keeps a particle when its uniform u is below q_dt(x, alpha),
squeezed (Marsaglia 1977; Devroye 1986, II.5): q lies in the band
[exp(-m_star dt), exp(-m_zero dt)], so q is computed only where u falls
inside it, and each computed q is checked against the band.

The samplers rely on the declared bounds m_zero <= m <= m_star and
density <= density_sup; a draw that sees one not hold (a NaN holds none)
raises ValueError instead of quietly biasing the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config_space import MarkedConfiguration
from .habitat import _BLOCK, SurvivalCumulative, chi_sample, log_survival, run_shared, survival_factor
from .mark_space import _last_axis_sums

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
# and of the sampling envelope of _sample_points
_SQUEEZE_SLACK = 1e-9
# expected particles in one block of paths of sample_trajectory_marginals
_BLOCK_PARTICLES = 1 << 15


@dataclass(frozen=True, eq=False)
class IntensityMeasure:
    """Arrival intensity density(x) * exp(-M(x, alpha)) on the age window [0, age_upper).

    The window is [0, t) for the law of newcomers since an empty start t
    ago, or [0, a_max] truncating the invariant intensity, with
    truncation_error bounding the discarded mass.  total_mass is C(age_upper)
    of _newcomers, so every intensity of a run reads one age rule.
    """

    habitat: object
    model: object
    age_upper: float
    total_mass: float
    truncation_error: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.total_mass):  # else rng.poisson fails with numpy's message
            raise ValueError(f"intensity mass {self.total_mass} is not finite: hazard outside [m_zero, m_star]")


def _unit(x, u):
    return 1.0


def _newcomers(habitat, model):
    """C(t) = |rho_t|, the mass of the newcomers since an empty start t ago: the
    SurvivalCumulative of h = 1, one per habitat.run_memo block."""
    return run_shared(SurvivalCumulative, habitat, model, _unit)


def _make_intensity(habitat, model, age_upper, truncation_error=0.0):
    mass = _newcomers(habitat, model)(float(age_upper))
    return IntensityMeasure(habitat, model, float(age_upper), mass, truncation_error)


def transient_intensity(habitat, model, t):
    """Newcomer intensity rho_t, t finite and >= 0: ages in [0, t), weighted by survival."""
    return _make_intensity(habitat, model, float(t))


def stationary_intensity(habitat, model):
    """Invariant intensity truncated to ages [0, a_max], a_max = 40/m_zero.

    Requires m_zero > 0; reports the sharp discarded-mass bound
    chi_mass exp(-m_zero a_max)/m_zero; built once per habitat.run_memo block.
    """
    if model.m_zero <= 0:
        raise ValueError("a stationary intensity requires m_zero > 0")
    a_max = 40.0 / model.m_zero
    err = habitat.chi_mass * math.exp(-model.m_zero * a_max) / model.m_zero
    return run_shared(_make_intensity, habitat, model, a_max, err)


def _path_time_order(path_ids, times):
    """The permutation sorting particles by path, then time, ties in input order:
    a stable argsort of the complex keys path + i time, which numpy orders by
    real part, then imaginary part (exact for path ids below 2**53 and
    times that are not NaN)."""
    keys = np.empty(len(times), dtype=complex)
    keys.real = path_ids
    keys.imag = times
    return np.argsort(keys, kind="stable")


def _sample_points(intensity, count, rng):
    """Exact iid draws from the normalized intensity; returns (positions, ages).

    Rejection under the envelope chi(dx) exp(-m_zero alpha) dalpha, which
    m >= m_zero puts above the intensity.  Each round proposes about
    need / acceptance plus three standard deviations of points, at most
    _BLOCK, with chi-distributed positions and truncated-exponential ages
    drawn by inversion, and accepts a proposal with chance
    exp(-(M(x, alpha) - m_zero alpha)); the first `need` accepted are kept.
    The acceptance is total_mass over the envelope's mass, taken as exactly 1
    when m_zero = m_star, where the two differ by rounding alone.  The points
    come back grouped by round: an iid sample whose order carries no meaning.
    """
    habitat = intensity.habitat
    m_zero = intensity.model.m_zero
    if count == 0:
        return np.empty((0, habitat.dim)), np.empty(0)
    if intensity.total_mass <= 0:
        raise ValueError("intensity has zero mass")
    top = intensity.age_upper
    drop = math.expm1(-m_zero * top)
    # the envelope's mass is chi_mass times int_0^top exp(-m_zero a) da
    span = -drop / m_zero if m_zero > 0 else top
    envelope = habitat.chi_mass * span
    accept = 1.0 if m_zero == intensity.model.m_star else min(1.0, intensity.total_mass / envelope)
    pos_parts, age_parts = [], []
    need = count
    while need:
        mean = need / accept
        n = min(_BLOCK, math.ceil(mean + 3.0 * math.sqrt(mean * (1.0 - accept) / accept)))
        xs = chi_sample(habitat, rng, size=n)
        u = rng.random(n)
        ages = -np.log1p(u * drop) / m_zero if m_zero > 0 else top * u
        excess = intensity.model.cumulative(xs, ages) - m_zero * ages
        if not (excess >= -_SQUEEZE_SLACK * m_zero * ages).all():
            raise ValueError("exp(-M) exceeds its envelope exp(-m_zero alpha): hazard below m_zero")
        hit = (rng.random(n) < np.exp(-excess)).nonzero()[0][:need]
        pos_parts.append(xs.take(hit, axis=0))
        age_parts.append(ages.take(hit))
        need -= hit.size
    if len(pos_parts) == 1:
        return pos_parts[0], age_parts[0]
    return np.concatenate(pos_parts), np.concatenate(age_parts)


def sample_poisson(intensity, rng):
    """One Poisson configuration: count ~ Poisson(mass), then iid points."""
    n = int(rng.poisson(intensity.total_mass)) if intensity.total_mass > 0 else 0
    return MarkedConfiguration(*_sample_points(intensity, n, rng))


class PathBundle:
    """n_paths configurations evolved in lockstep, stored as flat arrays in no particular order."""

    __slots__ = ("n_paths", "dim", "path_ids", "positions", "ages")

    def __init__(self, n_paths, dim, path_ids=(), positions=None, ages=()):
        self.n_paths, self.dim = int(n_paths), int(dim)
        self.path_ids = np.asarray(path_ids, dtype=np.int64)
        self.positions = np.empty((0, dim)) if positions is None else np.asarray(positions, dtype=float)
        self.ages = np.asarray(ages, dtype=float)

    def thin_and_age(self, dt, model, rng):
        """Each particle survives dt with chance q_dt(x, alpha), then ages by dt.

        Averaging prod (1 + theta) over the survivals gives the flowed
        functional F_{theta_dt}: this is the exact kernel of the age flow.
        A particle is kept when its uniform u < q; a u below the survival
        band keeps and one above it drops without q, so every decision is
        that of u < q on all particles.
        """
        if not 0.0 <= dt < math.inf:
            raise ValueError("a survival step must be finite and nonnegative")
        if self.path_ids.size == 0 or dt == 0.0:
            self.ages = self.ages + dt
            return
        u = rng.random(self.ages.size)
        lo = math.exp(-model.m_star * dt) * (1.0 - _SQUEEZE_SLACK)
        hi = math.exp(-model.m_zero * dt) * (1.0 + _SQUEEZE_SLACK)
        keep = u < lo
        band = (~keep & (u < hi)).nonzero()[0]
        if band.size:
            q = survival_factor(model, self.positions.take(band, axis=0), self.ages.take(band), dt)
            if not ((q >= lo) & (q <= hi)).all():
                raise ValueError(
                    "survival chance outside [exp(-m_star dt), exp(-m_zero dt)]: "
                    "hazard outside [m_zero, m_star]"
                )
            keep[band] = u.take(band) < q
        self.path_ids = self.path_ids.compress(keep)
        self.positions = self.positions.compress(keep, axis=0)
        self.ages = self.ages.compress(keep) + dt

    def add_poisson(self, intensity, rng):
        """An independent Poisson(intensity) configuration for every path: one
        Poisson field of n_paths times the mass, each point labelled with a
        uniform path (the colouring theorem; Kingman 1993, 5.1)."""
        total = int(rng.poisson(intensity.total_mass * self.n_paths))
        ids = rng.integers(self.n_paths, size=total)
        pos, ages = _sample_points(intensity, total, rng)
        self.path_ids = np.concatenate([self.path_ids, ids])
        self.positions = np.concatenate([self.positions, pos])
        self.ages = np.concatenate([self.ages, ages])

    def transition(self, dt, intensity, model, rng):
        self.thin_and_age(dt, model, rng)
        self.add_poisson(intensity, rng)

    def sum_by_path(self, particle_values):
        # float64 also when the bundle is empty, where bincount gives int64
        return np.bincount(self.path_ids, weights=particle_values, minlength=self.n_paths).astype(float, copy=False)

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
        return out[_path_time_order(out["path"], out["time"])]


def event_driven_simulate(config, horizon, habitat, model, rng, n_paths=1):
    """Simulate n_paths paths from `config` by arrival streams and hazard thinning.

    Each path's arrivals are a Poisson(chi_mass * horizon) number of uniform
    times with chi-distributed locations.  Given them, particles depart
    independently: each runs a rate-m_star clock from max(birth, 0) and a
    proposal at age a is accepted with probability m(x, a)/m_star
    (Lewis-Shedler thinning).  The clocks of all live particles advance
    together, one proposal per round, until each has departed or passed the
    horizon.  Raises ValueError if a proposal sees m(x, a) > m_star.

    The one generator rng draws, in this order: the n_paths arrival counts,
    their times, their positions (none if there are no arrivals), then each
    round's clocks and acceptance uniforms, one per live particle.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    horizon = float(horizon)
    dim, k = habitat.dim, len(config)
    arrivals = rng.poisson(habitat.chi_mass * horizon, n_paths)
    times = rng.uniform(0.0, horizon, int(arrivals.sum()))
    sizes = k + arrivals
    path_ids = np.repeat(np.arange(n_paths, dtype=np.int64), sizes)
    ids = np.arange(path_ids.size, dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    initial = ids < k
    births = np.empty(path_ids.size)
    births[initial] = np.tile(-np.asarray(config.ages, dtype=float), n_paths)
    births[~initial] = times[_path_time_order(path_ids[~initial], times)]
    positions = np.empty((path_ids.size, dim))
    positions[initial] = np.tile(config.positions, (n_paths, 1))
    if times.size:
        positions[~initial] = chi_sample(habitat, rng, size=times.size)
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
        if not (rate <= m_star).all():
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


def _walk(initial, times, habitat, model, n_paths, rng):
    """(x, ages, blocks), the paths of sample_trajectory_marginals.  x (k, 1, dim)
    and ages (k, T) are the positions of initial's particles (none unless it is a
    MarkedConfiguration) and their ages at each time; blocks yields (paths, ti,
    bundle, alive) at each time of each block in turn: the block's slice, its
    newcomers (and Poisson start) at times[ti], and the (k, n) mask of the start's
    particles alive then.  All is checked and built before the first draw, the
    step masses by one call of the _newcomers cumulative.  A bundle is emptied
    when its block ends: the caller's copy would keep two blocks in the cache."""
    if not all(0.0 <= a <= b < math.inf for a, b in zip([0.0, *times], times)):
        raise ValueError("times must be finite, nonnegative and sorted")
    start = initial if isinstance(initial, MarkedConfiguration) else MarkedConfiguration.empty(habitat.dim)
    grid, x, a = np.array(times, dtype=float), start.positions[:, None], start.ages[:, None]
    survival = np.exp(log_survival(model, x, a, grid))
    floor = np.exp(-model.m_star * grid) * (1.0 - _SQUEEZE_SLACK)
    ceiling = np.exp(-model.m_zero * grid) * (1.0 + _SQUEEZE_SLACK)
    if not ((survival >= floor) & (survival <= ceiling)).all():
        raise ValueError("survival chance outside its band: hazard outside [m_zero, m_star]")
    steps = np.diff(grid, prepend=0.0)
    masses = _newcomers(habitat, model)(steps).tolist()
    intensities = [IntensityMeasure(habitat, model, dt, mass) for dt, mass in zip(steps.tolist(), masses)]
    poisson = isinstance(initial, IntensityMeasure)
    per_path = len(start) + (initial.total_mass if poisson else 0.0) + sum(masses)
    size = max(1, int(_BLOCK_PARTICLES / per_path)) if per_path > 0 else max(1, n_paths)

    def blocks():
        for lo in range(0, n_paths, size):
            n = min(size, n_paths - lo)
            bundle = PathBundle(n, habitat.dim)
            u = rng.random((len(start), n))
            if poisson:
                bundle.add_poisson(initial, rng)
            for ti, (dt, intensity) in enumerate(zip(steps, intensities)):
                if dt > 0:
                    bundle.transition(dt, intensity, model, rng)
                yield slice(lo, lo + n), ti, bundle, u < survival[:, ti, None]
            bundle.path_ids = bundle.positions = bundle.ages = None

    return x, a + grid, blocks()


def _path_sums(bundle, alive, values, start_values):
    """Per path: values summed over the bundle's particles plus start_values over its alive start rows."""
    return _last_axis_sums((alive * start_values[:, None]).T) + bundle.sum_by_path(values)


def sample_trajectory_marginals(initial, times, thetas, habitat, model, n_paths, rng):
    """Monte Carlo marginals of F_theta and counts along a time grid, finite, >= 0 and sorted.

    initial: MarkedConfiguration (all paths start there), IntensityMeasure
    (Poisson start), or None (empty start).  Returns a dict with keys
    ("f", time_index, theta_index) -> per-path array and
    ("count", time_index) -> per-path integer array.  The paths run through
    the whole grid in blocks of _BLOCK_PARTICLES // (the start's size or mass
    plus every step's newcomer mass) paths, drawing from rng in turn: each its
    start, then at each time its thinning and newcomers.  So the first paths do
    not depend on n_paths, but changing the budget changes every output.
    A configuration's k particles stay out of the PathBundle: (k, T) tables hold
    their g and survival chances S to each time, S checked against its band, and
    a block's start is k x n uniforms U; particle i is alive in path p at t_j iff
    U[i, p] < S[i, j] (Devroye 1986, II.2).
    """
    times = [float(t) for t in times]
    x, ages, blocks = _walk(initial, times, habitat, model, n_paths, rng)
    g_start = [theta.g(x, ages) for theta in thetas]
    out = {("f", ti, hi): np.empty(n_paths) for ti in range(len(times)) for hi in range(len(thetas))}
    out.update({("count", ti): np.empty(n_paths, dtype=np.intp) for ti in range(len(times))})
    for paths, ti, bundle, alive in blocks:
        for hi, theta in enumerate(thetas):
            g = _path_sums(bundle, alive, theta.g(bundle.positions, bundle.ages), g_start[hi][:, ti])
            out[("f", ti, hi)][paths] = np.exp(-g)
        out[("count", ti)][paths] = bundle.counts() + alive.sum(axis=0)
    return out
