"""Habitat window, arrival intensity, and departure-rate models.

The habitat is a closed axis-aligned box in R^d carrying the arrival measure
chi(dx) = density(x) dx with a bounded density.  Departure models supply the
age-dependent hazard m(x, alpha) together with its bounds m_zero <= m <= m_star,
a closed-form cumulative hazard when available, and a continuity modulus.
The survival integral int int h(x, u) exp(-M(x, u)) chi(dx) du, to which every
law agedpop checks reduces, is computed here and nowhere else.

Shipped families:
  * constant_rate(m):    m(x, alpha) = m, exactly solvable throughout;
  * separable_rate(...): m(x, alpha) = b + A s(x) (1 + sin(w alpha))/2 with a
    smooth spatial profile s in [0, 1], closed-form cumulative hazard, and
    Lipschitz age modulus A w / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

__all__ = [
    "Habitat",
    "uniform_habitat",
    "linear_habitat",
    "DepartureModel",
    "constant_rate",
    "separable_rate",
    "survival_factor",
    "survival_slice",
    "survival_weighted_integral",
    "chi_sample",
    "chi_integral",
    "chi_integral_with_error",
    "gauss_profile_nodes",
]


@dataclass(frozen=True, eq=False)
class Habitat:
    """Box window with an absolutely continuous arrival measure.

    density is vectorized: it accepts positions of shape (..., dim) and
    returns values of shape (...).  density_sup must dominate the density on
    the window (rejection envelope); density_breakpoints lists interior points
    where a 1-d density is not smooth, so quadrature can split there.
    """

    lower: np.ndarray
    upper: np.ndarray
    density: Callable[[np.ndarray], np.ndarray]
    chi_mass: float
    density_sup: float
    density_breakpoints: tuple = ()

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or not np.all(hi > lo):
            raise ValueError("window must satisfy lower < upper componentwise")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if not (self.chi_mass >= 0 and math.isfinite(self.chi_mass)):
            raise ValueError("chi_mass must be finite and nonnegative")
        if not (self.density_sup >= 0 and math.isfinite(self.density_sup)):
            raise ValueError("density_sup must be finite and nonnegative")

    @property
    def dim(self):
        return int(self.lower.size)

    @property
    def volume(self):
        return float(np.prod(self.upper - self.lower))

    @property
    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    @property
    def midpoint(self):
        return (self.lower + self.upper) / 2.0

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower) & (x <= self.upper), axis=-1)


def uniform_habitat(window, level):
    """Constant arrival density on the box `window` = [(lo, hi), ...]."""
    window = np.asarray(window, dtype=float)
    lo, hi = window[:, 0], window[:, 1]
    if level < 0:
        raise ValueError("density level must be nonnegative")
    vol = float(np.prod(hi - lo))

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], float(level))

    return Habitat(lo, hi, density, chi_mass=level * vol, density_sup=float(level))


def linear_habitat(window, base, slope):
    """1-d density base + slope * x on [lo, hi]; must stay nonnegative."""
    window = np.asarray(window, dtype=float)
    if window.shape != (1, 2):
        raise ValueError("linear_habitat is one-dimensional")
    lo, hi = float(window[0, 0]), float(window[0, 1])
    ends = (base + slope * lo, base + slope * hi)
    if min(ends) < 0:
        raise ValueError("density must be nonnegative on the window")

    def density(x):
        x = np.asarray(x, dtype=float)
        return base + slope * x[..., 0]

    mass = base * (hi - lo) + slope * (hi**2 - lo**2) / 2.0
    return Habitat(
        np.array([lo]), np.array([hi]), density, chi_mass=float(mass), density_sup=float(max(ends))
    )


@dataclass(frozen=True, eq=False)
class DepartureModel:
    """Age-dependent departure hazard with stated bounds.

    rate(x, alpha) broadcasts: x of shape (..., dim) against alpha of shape
    (...).  cumulative is M(x, alpha) = int_0^alpha m(x, .) and broadcasts
    like rate; when None is given, a numeric one is installed that integrates
    each broadcast element adaptively to absolute tolerance 1e-10.
    modulus(eps) bounds the variation of m over age displacements <= eps,
    uniformly in x.
    """

    m_star: float
    m_zero: float
    rate: Callable
    cumulative: Callable | None = None
    modulus: Callable[[float], float] = field(default=lambda eps: 0.0)

    def __post_init__(self):
        if not (0.0 <= self.m_zero <= self.m_star) or not math.isfinite(self.m_star):
            raise ValueError("need 0 <= m_zero <= m_star < inf")
        if self.cumulative is None:
            rate = self.rate

            def cumulative(x, alpha):
                x = np.asarray(x, dtype=float)
                alpha = np.asarray(alpha, dtype=float)
                shape = np.broadcast_shapes(x.shape[:-1], alpha.shape)
                xb = np.broadcast_to(x, shape + (x.shape[-1],))
                ab = np.broadcast_to(alpha, shape)
                out = np.empty(shape)
                it = np.nditer(ab, flags=["multi_index"])
                for a in it:
                    xi = xb[it.multi_index]
                    out[it.multi_index], _ = integrate.quad(
                        lambda b: float(rate(xi, b)), 0.0, float(a), epsabs=1e-10
                    )
                return out if out.ndim else float(out)

            object.__setattr__(self, "cumulative", cumulative)


def constant_rate(m):
    """Hazard identically m; cumulative hazard m * alpha."""
    m = float(m)
    if m < 0:
        raise ValueError("rate must be nonnegative")

    def rate(x, alpha):
        x = np.asarray(x, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], alpha.shape)
        return np.full(shape, m)

    def cumulative(x, alpha):
        x = np.asarray(x, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        return np.broadcast_to(m * alpha, np.broadcast_shapes(x.shape[:-1], alpha.shape)).copy()

    return DepartureModel(m_star=m, m_zero=m, rate=rate, cumulative=cumulative)


def separable_rate(habitat, base, amplitude, frequency):
    """m(x, alpha) = base + amplitude * s(x) * (1 + sin(frequency * alpha)) / 2.

    The spatial profile s(x) = prod_i (1 - cos(2 pi z_i))/2 (z = position
    normalized to the unit box) is smooth, ranges over [0, 1], and attains
    both ends, so m_zero = base and m_star = base + amplitude.
    """
    base = float(base)
    amp = float(amplitude)
    freq = float(frequency)
    if base < 0 or amp < 0 or freq <= 0:
        raise ValueError("need base, amplitude >= 0 and frequency > 0")
    lo, hi = habitat.lower.copy(), habitat.upper.copy()
    span = hi - lo

    def profile(x):
        z = (np.asarray(x, dtype=float) - lo) / span
        return np.prod((1.0 - np.cos(2.0 * np.pi * z)) / 2.0, axis=-1)

    def rate(x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return base + amp * profile(x) * (1.0 + np.sin(freq * alpha)) / 2.0

    def cumulative(x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        # int_0^a (1 + sin(f b))/2 db = a/2 + (1 - cos(f a))/(2 f)
        age_part = alpha / 2.0 + (1.0 - np.cos(freq * alpha)) / (2.0 * freq)
        return base * alpha + amp * profile(x) * age_part

    return DepartureModel(
        m_star=base + amp,
        m_zero=base,
        rate=rate,
        cumulative=cumulative,
        modulus=lambda eps: amp * freq / 2.0 * eps,
    )


def survival_factor(model, x, alpha, t):
    """q_t(x, alpha) = exp(M(x, alpha) - M(x, alpha + t)), the survival chance.

    Lies in [exp(-m_star t), exp(-m_zero t)] for t >= 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    return np.exp(model.cumulative(x, alpha) - model.cumulative(x, alpha + t))


def survival_slice(model, nodes, weights, h, ages):
    """sum_i weights[i] h(nodes[i], u) exp(-M(nodes[i], u)) at each age u.

    (nodes, weights) is a chi-weighted spatial rule from gauss_profile_nodes,
    so this is the window integral int h(x, u) exp(-M(x, u)) chi(dx).  h
    broadcasts like model.rate.  Vectorized over ages; a scalar age gives a
    float.
    """
    u = np.asarray(ages, dtype=float)
    x = nodes[:, None, :]
    uu = np.atleast_1d(u)[None, :]
    out = weights @ (h(x, uu) * np.exp(-model.cumulative(x, uu)))
    return float(out[0]) if u.ndim == 0 else out


def survival_weighted_integral(habitat, model, h, a_lo, a_hi, breakpoints=(), tol=1e-11):
    """int_{a_lo}^{a_hi} int_window h(x, u) exp(-M(x, u)) chi(dx) du.

    Gauss-Legendre in space (split at the supplied kinks), adaptive in age.
    """
    if a_hi <= a_lo:
        return 0.0
    nodes, weights = gauss_profile_nodes(habitat, breakpoints=breakpoints)
    val, _ = integrate.quad(
        lambda a: survival_slice(model, nodes, weights, h, a), a_lo, a_hi, epsabs=tol, limit=400
    )
    return val


def chi_sample(habitat, rng, size=None):
    """Draw locations from chi / chi_mass by rejection under density_sup.

    Returns shape (dim,) for size None, else (size, dim).
    """
    if habitat.chi_mass <= 0:
        raise ValueError("cannot sample from a zero arrival measure")
    n = 1 if size is None else int(size)
    d = habitat.dim
    out = np.empty((n, d))
    filled = 0
    # uniform-box proposals accepted with density / density_sup
    while filled < n:
        want = n - filled
        batch = max(32, int(1.2 * want * habitat.density_sup * habitat.volume / habitat.chi_mass))
        props = rng.uniform(habitat.lower, habitat.upper, size=(batch, d))
        dens = habitat.density(props)
        if np.any(dens > habitat.density_sup):
            raise ValueError("arrival density exceeds its declared bound density_sup")
        accept = rng.uniform(0.0, habitat.density_sup, size=batch) < dens
        hits = props[accept]
        take = min(want, hits.shape[0])
        out[filled : filled + take] = hits[:take]
        filled += take
    return out[0] if size is None else out


def chi_integral(habitat, f, tol=1e-8, points=None, rng=None, n_mc=200_000):
    """int_window f(x) chi(dx).

    Adaptive quadrature for dim <= 2 (with optional interior breakpoints for
    dim 1), Monte Carlo for dim >= 3 (pass `rng`; see chi_integral_with_error
    for the standard error).  `f` maps (..., dim) arrays to (...) arrays.
    """
    value, _ = chi_integral_with_error(habitat, f, tol=tol, points=points, rng=rng, n_mc=n_mc)
    return value


def chi_integral_with_error(habitat, f, tol=1e-8, points=None, rng=None, n_mc=200_000):
    """Like chi_integral but returns (value, error).

    For quadrature the error is the integrator's own estimate; for Monte Carlo
    it is the standard error of the mean.
    """
    d = habitat.dim
    lo, hi = habitat.lower, habitat.upper
    if d == 1:
        brk = sorted(
            {float(p) for p in (habitat.density_breakpoints or ()) if lo[0] < p < hi[0]}
            | {float(p) for p in (points or ()) if lo[0] < p < hi[0]}
        )

        def integrand(x):
            pos = np.array([x])
            return float(f(pos) * habitat.density(pos))

        val, err = integrate.quad(
            integrand, float(lo[0]), float(hi[0]), epsabs=tol, limit=400,
            points=brk or None,
        )
        return val, err
    if d == 2:

        def integrand(y, x):
            pos = np.array([x, y])
            return float(f(pos) * habitat.density(pos))

        val, err = integrate.dblquad(
            integrand, float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]), epsabs=tol
        )
        return val, err
    if rng is None:
        rng = np.random.default_rng(0)
    xs = rng.uniform(lo, hi, size=(int(n_mc), d))
    vals = np.asarray(f(xs), dtype=float) * habitat.density(xs) * habitat.volume
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def gauss_profile_nodes(habitat, breakpoints=(), order=24):
    """Fixed Gauss-Legendre nodes/weights for chi-weighted window integrals.

    For dim 1 the window is split at the supplied breakpoints (kinks of the
    integrand) so each panel is smooth; for dim >= 2 a tensor rule is used
    without splitting.  Returns (nodes, weights) with nodes of shape (N, dim)
    and weights already multiplied by the arrival density, so that
    sum_i weights[i] * f(nodes[i]) ~= int f dchi for f smooth between
    breakpoints.
    """
    base_x, base_w = leggauss(order)
    d = habitat.dim
    lo, hi = habitat.lower, habitat.upper
    if d == 1:
        interior = {float(b) for b in breakpoints if lo[0] < b < hi[0]}
        interior |= {float(b) for b in habitat.density_breakpoints if lo[0] < b < hi[0]}
        cuts = np.array(sorted({float(lo[0]), float(hi[0])} | interior))
        nodes_list, weights_list = [], []
        for a, b in zip(cuts[:-1], cuts[1:]):
            half = (b - a) / 2.0
            nodes_list.append((a + b) / 2.0 + half * base_x)
            weights_list.append(half * base_w)
        nodes = np.concatenate(nodes_list)[:, None]
        weights = np.concatenate(weights_list)
    else:
        axes = []
        wts = []
        for i in range(d):
            half = (hi[i] - lo[i]) / 2.0
            axes.append((hi[i] + lo[i]) / 2.0 + half * base_x)
            wts.append(half * base_w)
        grids = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*wts, indexing="ij")
        weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    weights = weights * habitat.density(nodes)
    return nodes, weights
