"""Habitat window, arrival intensity, and departure-rate models.

The habitat is a closed axis-aligned box in R^d carrying the arrival measure
chi(dx) = density(x) dx with a bounded density.  Departure models supply the
age-dependent hazard m(x, alpha) together with its bounds m_zero <= m <= m_star,
its closed-form cumulative hazard, and a continuity modulus.
The survival integral int int h(x, u) exp(-M(x, u)) chi(dx) du, to which every
law agedpop checks reduces, is computed here and nowhere else, by one engine:
SurvivalCumulative, the running integral from age 0, on 16-point
Gauss-Legendre panels [k w, (k+1) w] of width w = age_panel_width, which
follows the age scales of the integrand (the survival decay 1/m_star, the
hazard's own variation read off its modulus, and the test function's age
scale); survival_weighted_integral is one cumulative's difference.  Every
chi-integral, that one and chi_integral alike, uses the one deterministic
Gauss-Legendre rule of gauss_profile_nodes, split at the kinks in dim 1 only
and cached per (habitat, kinks).  age_rule lays the same panels on one
interval, for the time integrals of the checks.

Shipped families:
  * constant_rate(m):    m(x, alpha) = m, exactly solvable throughout;
  * separable_rate(...): m(x, alpha) = b + A s(x) (1 + sin(w alpha))/2 with a
    smooth spatial profile s in [0, 1], closed-form cumulative hazard, and
    Lipschitz age modulus A w / 2.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss, legval, legvander

__all__ = [
    "Habitat",
    "uniform_habitat",
    "linear_habitat",
    "DepartureModel",
    "constant_rate",
    "separable_rate",
    "log_survival",
    "survival_factor",
    "survival_weighted_integral",
    "SurvivalCumulative",
    "age_panel_width",
    "age_panels",
    "age_rule",
    "chi_sample",
    "chi_integral",
    "gauss_profile_nodes",
    "window_grid",
    "run_memo",
]


@dataclass(frozen=True, eq=False)
class Habitat:
    """Box window with an absolutely continuous arrival measure.

    density is vectorized: it accepts positions of shape (..., dim) and
    returns values of shape (...).  density_sup must dominate the density on
    the window (rejection envelope).
    """

    lower: np.ndarray
    upper: np.ndarray
    density: Callable[[np.ndarray], np.ndarray]
    chi_mass: float
    density_sup: float

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

    @functools.cached_property
    def volume(self):
        return float(np.prod(self.upper - self.lower))

    @property
    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    @property
    def midpoint(self):
        return (self.lower + self.upper) / 2.0


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
    (...).  cumulative is the closed form of M(x, alpha) = int_0^alpha
    m(x, .) and broadcasts like rate.
    modulus(eps) bounds the variation of m over age displacements <= eps,
    uniformly in x; the age rule reads it as a Lipschitz bound to size its
    panels (see age_panel_width).
    """

    m_star: float
    m_zero: float
    rate: Callable
    cumulative: Callable
    modulus: Callable[[float], float] = field(default=lambda eps: 0.0)

    def __post_init__(self):
        if not (0.0 <= self.m_zero <= self.m_star) or not math.isfinite(self.m_star):
            raise ValueError("need 0 <= m_zero <= m_star < inf")


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
        return np.multiply(m, alpha, out=np.empty(np.broadcast_shapes(x.shape[:-1], alpha.shape)))

    return DepartureModel(m_star=m, m_zero=m, rate=rate, cumulative=cumulative)


def separable_rate(habitat, base, amplitude, frequency):
    """m(x, alpha) = base + amplitude * s(x) * (1 + sin(frequency * alpha)) / 2.

    The spatial profile s(x) = prod_i (1 - cos(2 pi z_i))/2 (z = position
    normalized to the unit box) is smooth, ranges over [0, 1], and attains
    both ends, so m_zero = base and m_star = base + amplitude.

    Every trig factor is evaluated through tan, in half-angle form:

      * (1 - cos(2 pi z))/2 = t^2/(1 + t^2), t = tan(pi z);
      * int_0^a (1 + sin(f b))/2 db = a/2 + [t^2/(1 + t^2)]/f, t = tan(f a/2);
      * (1 + sin(f a))/2 = 1/(1 + u^2), u = tan(f a/2 - pi/4) = (t - 1)/(t + 1),
        evaluated as (1 + t)^2/((1 + t)^2 + (1 - t)^2).

    numpy's float64 sin and cos run through scalar libm (about 25 ns an
    element on x86-64), while its tan is vectorized (about 2 ns).  Each form
    is bounded by construction: a quotient n/(n + s) with s >= 0 cannot
    round above 1, so rate lies in [m_zero, m_star] exactly, as
    event_driven_simulate requires.  The argument of tan is rounded once,
    f/2 times a; subtracting pi/4 would round it twice.  The age part of the
    cumulative also keeps its relative accuracy at small f a, where
    1 - cos(f a) cancels.
    """
    base = float(base)
    amp = float(amplitude)
    freq = float(frequency)
    if base < 0 or amp < 0 or not 0 < freq < math.inf:
        raise ValueError("need base, amplitude >= 0 and a finite frequency > 0")
    lo, hi = habitat.lower.copy(), habitat.upper.copy()
    span = hi - lo
    half = freq / 2.0

    def sin_squared(t):
        # sin^2 of the angle whose tangent is t, t^2/(1 + t^2), in place
        t *= t
        t /= 1.0 + t
        return t

    def profile(x):
        # one axis column at a time, worked in place and multiplied in axis
        # order: the bits of the product over the last axis
        x = np.asarray(x, dtype=float)
        out = None
        for i in range(lo.size):
            col = np.subtract(x[..., i], lo[i], out=np.empty(x.shape[:-1]))
            col /= span[i]
            col *= np.pi
            col = sin_squared(np.tan(col, out=col))
            out = col if out is None else np.multiply(out, col, out=out)
        return out

    def rate(x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        wave = np.multiply(half, alpha, out=np.empty(alpha.shape))
        np.tan(wave, out=wave)
        # (1 + t)^2 over itself plus (1 - t)^2: the denominator is summed from
        # the numerator, so the quotient cannot round above 1, and is 0 at t = -1
        rise = wave + 1.0
        rise *= rise
        wave -= 1.0
        wave *= wave
        wave += rise
        np.divide(rise, wave, out=wave)
        spatial = profile(x)
        spatial *= amp
        out = spatial * wave
        out += base
        return out

    def cumulative(x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        wave = np.multiply(half, alpha, out=np.empty(alpha.shape))
        wave = sin_squared(np.tan(wave, out=wave))
        wave /= freq
        wave += alpha / 2.0
        spatial = profile(x)
        spatial *= amp
        out = spatial * wave
        out += base * alpha
        return out

    return DepartureModel(
        m_star=base + amp,
        m_zero=base,
        rate=rate,
        cumulative=cumulative,
        modulus=lambda eps: amp * freq / 2.0 * eps,
    )


def log_survival(model, x, alpha, t):
    """M(x, alpha) - M(x, alpha + t), the log of the chance to survive t more.

    Both ages go through one model.cumulative call on a trailing age pair, so
    the spatial part of the hazard is evaluated once per point; for the
    shipped families the result has the bits of two separate calls.  x
    (..., dim) broadcasts against alpha and t.
    """
    alpha = np.asarray(alpha, dtype=float)
    ages = np.stack(np.broadcast_arrays(alpha, alpha + t), axis=-1)
    M = model.cumulative(np.asarray(x, dtype=float)[..., None, :], ages)
    return M[..., 0] - M[..., 1]


def survival_factor(model, x, alpha, t):
    """q_t(x, alpha) = exp(M(x, alpha) - M(x, alpha + t)), the survival chance.

    Lies in [exp(-m_star t), exp(-m_zero t)] for t >= 0.
    """
    return np.exp(log_survival(model, x, alpha, t))


_SPACE_ORDER = 24  # Gauss-Legendre points per axis panel of gauss_profile_nodes
_AGE_ORDER = 16
_AGE_X, _AGE_W = leggauss(_AGE_ORDER)
# s_k = sum_i _MOMENTS[k, i] values_i is c_k / (2k + 1), c_k the Legendre
# coefficients of the degree-15 interpolant through the 16 node values of a panel
_MOMENTS = _AGE_W * legvander(_AGE_X, _AGE_ORDER - 1).T / 2.0
_BLOCK = 1 << 17  # elements in one (spatial node x age) temporary


def age_panel_width(model, age_scale=1.0):
    """Widest age panel of the age rule for integrands built on model.

    The least of three widths, one per age scale of the integrand:
      * min(1, 2/m_star): exp(-M) falls by at most e^-2 over a panel;
      * spread / slope, with spread = m_star - m_zero and slope =
        modulus(w)/w the hazard's age slope at the width w so far: the time
        the hazard needs to sweep its whole range.  For separable_rate this
        is 2/frequency, a third of a period of the age factor;
      * age_scale, the scale on which the rest of the integrand varies in
        age (Theta.age_scale for test functions).
    """
    width = min(1.0, 2.0 / max(model.m_star, 2.0), float(age_scale))
    spread = model.m_star - model.m_zero
    slope = model.modulus(width) / width
    if spread > 0 and slope > 0:
        width = min(width, spread / slope)
    return width


def age_panels(edges):
    """16-point Gauss-Legendre nodes and weights on the panels between edges.

    Both have shape (len(edges) - 1, 16).
    """
    edges = np.asarray(edges, dtype=float)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    return mid[:, None] + half[:, None] * _AGE_X, half[:, None] * _AGE_W


def age_rule(a_lo, a_hi, width):
    """Flat nodes and weights of the composite rule on [a_lo, a_hi].

    The interval is cut into the fewest equal panels of width <= width.
    """
    n = max(1, math.ceil((a_hi - a_lo) / width - 1e-12))
    ages, weights = age_panels(np.linspace(a_lo, a_hi, n + 1))
    return ages.ravel(), weights.ravel()


class SurvivalCumulative:
    """C(T) = int_0^T int h(x, u) exp(-M(x, u)) chi(dx) du, for any finite T >= 0.

    The ages are cut into the panels [k w, (k+1) w] with w =
    age_panel_width(model, age_scale), age_scale being the age scale of h
    (Theta.age_scale when h is built on a test function).  Whole panels
    carry the 16-point Gauss-Legendre rule; their running totals, and the
    Legendre coefficients of the antiderivative of the degree-15 interpolant
    through their node values, are cached and extended on demand, each panel
    with the bits of its own ages alone, so no order of queries moves C.  A
    call costs 16 slice evaluations per new panel and one Clenshaw sum per T.
    Vectorized over T; a scalar T gives a float, and C(0) is exactly 0.
    """

    def __init__(self, habitat, model, h, breakpoints=(), age_scale=1.0):
        self.model = model
        self.h = h
        self.width = age_panel_width(model, age_scale)
        self._nodes, self._weights = gauss_profile_nodes(habitat, breakpoints=breakpoints)
        # column k: antiderivative coefficients of panel k's interpolant
        self._antiderivatives = np.empty((_AGE_ORDER + 1, 0))
        self._totals = np.zeros(1)  # C at each panel edge

    def slice(self, ages):
        """int h(x, u) exp(-M(x, u)) chi(dx) at each age u, for ages of any shape
        (a scalar gives a float).  Each row of the last axis is cut into the same
        blocks of at most _BLOCK // len(nodes) ages: an age's bits depend on its row."""
        u = np.asarray(ages, dtype=float)
        shape = u.shape or (1,)
        rows = u.reshape(math.prod(shape[:-1]), 1, shape[-1])
        x = self._nodes[:, None, :]
        out = np.empty((len(rows), shape[-1]))
        cols = max(1, _BLOCK // len(x))
        step = max(1, cols // max(1, shape[-1]))
        for i in range(0, len(rows), step):
            for j in range(0, shape[-1], cols):
                uu = rows[i : i + step, :, j : j + cols]
                survival = np.exp(-self.model.cumulative(x, uu))
                out[i : i + step, j : j + cols] = np.matmul(self._weights, self.h(x, uu) * survival)
        return float(out[0, 0]) if u.ndim == 0 else out.reshape(u.shape)

    def _extend(self, n_panels):
        have = self._antiderivatives.shape[1]
        if n_panels <= have:
            return
        n_panels = max(n_panels, 2 * have)
        ages, weights = age_panels(self.width * np.arange(have, n_panels + 1))
        values = self.slice(ages)
        # slice reduces each panel alone, and the moments are summed
        # row by row: a panel's bits do not depend on its neighbours
        s = np.sum(_MOMENTS[:, None, :] * values, axis=-1) * (self.width / 2.0)
        # int_{-1}^X P_0 = P_0 + P_1 and int_{-1}^X P_k = (P_{k+1} - P_{k-1}) / (2k + 1)
        anti = np.concatenate([s[:1], s]) - np.concatenate([s[1:], np.zeros((2, s.shape[1]))])
        self._antiderivatives = np.concatenate([self._antiderivatives, anti], axis=1)
        # one running sum from the last total on, the bits of a single cumsum
        sums = np.sum(values * weights, axis=1)
        sums[0] += self._totals[-1]
        self._totals = np.concatenate([self._totals, np.cumsum(sums)])

    def __call__(self, T):
        T = np.asarray(T, dtype=float)
        pos = T / self.width
        if not 0.0 <= pos.min(initial=0.0) <= pos.max(initial=0.0) < math.inf:  # NaN fails too
            raise ValueError("the cumulative integral needs a finite T >= 0")
        # the panel holding T; a T on an edge closes the panel below it
        k = np.maximum(np.ceil(pos) - 1, 0).astype(int)
        self._extend(int(k.max()) + 1 if k.size else 0)
        partial = legval(2.0 * (pos - k) - 1.0, self._antiderivatives[:, k], tensor=False)
        # legval at the left edge is only close to 0
        out = self._totals[k] + np.where(pos > 0, partial, 0.0)
        return float(out) if out.ndim == 0 else out


_RUN_MEMO = contextvars.ContextVar("agedpop_run_memo", default=None)


@contextlib.contextmanager
def run_memo():
    """A block inside which run_shared builds each object once.  A block opened inside
    another shares its caller's objects; all are dropped when the outermost one closes."""
    memo = _RUN_MEMO.get()
    token = _RUN_MEMO.set({} if memo is None else memo)
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


def run_shared(build, *args):
    """build(*args): fresh outside a run_memo block, once per (build, args) inside one.
    Habitats, models and test functions (and theta.theta per theta) hash by identity."""
    memo, key = _RUN_MEMO.get(), (build, *args)
    if memo is not None and key not in memo:
        memo[key] = build(*args)
    return build(*args) if memo is None else memo[key]


def survival_weighted_integral(habitat, model, h, a_lo, a_hi, breakpoints=(), age_scale=1.0):
    """int_{a_lo}^{a_hi} int_window h(x, u) exp(-M(x, u)) chi(dx) du, for 0 <= a_lo.

    C(a_hi) - C(a_lo) of one SurvivalCumulative C of h: Gauss-Legendre in
    space (split at the supplied kinks) and the cumulative's age panels of
    width age_panel_width(model, age_scale).
    """
    lo, hi = SurvivalCumulative(habitat, model, h, breakpoints, age_scale)(np.array([a_lo, a_hi]))
    return float(hi - lo) if a_hi > a_lo else 0.0


def chi_sample(habitat, rng, size):
    """Draw size locations from chi / chi_mass by rejection under density_sup.

    Returns shape (size, dim).
    """
    if habitat.chi_mass <= 0:
        raise ValueError("cannot sample from a zero arrival measure")
    need = int(size)
    d = habitat.dim
    if need == 0:
        return np.empty((0, d))
    lo, span, sup = habitat.lower, habitat.upper - habitat.lower, habitat.density_sup
    box = sup * habitat.volume
    rate = min(1.0, habitat.chi_mass / box) if box > 0 else 1.0
    # uniform-box proposals accepted with density / density_sup (chance
    # rate), drawn as lo + span * U column by column, in place: the bits of
    # rng.uniform(lo, hi) without its broadcast; a round proposes need / rate
    # plus three standard deviations, so a uniform density proposes exactly
    # need, all at density_sup, and returns its proposals as they are
    parts = []
    while need:
        mean = need / rate
        batch = math.ceil(mean + 3.0 * math.sqrt(mean * (1.0 - rate) / rate))
        props = rng.random((batch, d))
        for i in range(d):
            props[:, i] *= span[i]
            props[:, i] += lo[i]
        dens = habitat.density(props)
        if not (dens <= sup).all():
            raise ValueError("arrival density exceeds its declared bound density_sup")
        accept = dens == sup  # accepted without a uniform
        below = (~accept).nonzero()[0]
        if below.size:
            accept[below] = sup * rng.random(below.size) < dens.take(below)
            props = props.compress(accept, axis=0)
        parts.append(props[:need])
        need -= len(parts[-1])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def chi_integral(habitat, f, points=()):
    """int_window f(x) chi(dx) on the gauss_profile_nodes rule (split at
    `points` in dim 1), as one weighted sum sum_i w_i f(x_i) with `f` mapping
    the (N, dim) node array to N values.  psi, H and every survival integral
    run on the same rule, so both sides of an identity integrate against the
    same discrete measure."""
    nodes, weights = gauss_profile_nodes(habitat, breakpoints=points)
    return float(weights @ np.asarray(f(nodes), dtype=float))


def window_grid(habitat):
    """The tensor grid of 9 equally spaced points per axis of the window, shape
    (9**dim, dim), on which the hazard band and the age sandwich are probed."""
    axes = [np.linspace(lo, hi, 9) for lo, hi in zip(habitat.lower, habitat.upper)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, habitat.dim)


def gauss_profile_nodes(habitat, breakpoints=()):
    """Fixed Gauss-Legendre nodes/weights for chi-weighted window integrals.

    For dim 1 the window is split at the supplied breakpoints (kinks of the
    integrand), so each panel is smooth; for dim >= 2 a tensor rule is used
    without splitting, so on plateau integrands, whose kinks are circular, it
    is of order 1e-4 away from the exact chi-integral.  Each panel carries
    _SPACE_ORDER = 24 points per axis.  Returns (nodes, weights) with nodes
    of shape (N, dim) and weights already multiplied by the arrival density,
    so that sum_i weights[i] * f(nodes[i]) ~= int f dchi for f smooth
    between breakpoints.  The rule is built once per (habitat, breakpoints)
    and returned as read-only arrays.
    """
    if habitat.dim == 1:
        breakpoints = tuple(sorted({float(b) for b in breakpoints}))
    else:
        breakpoints = ()
    return _profile_rule(habitat, breakpoints)


@functools.lru_cache(maxsize=64)
def _profile_rule(habitat, cuts):
    """_SPACE_ORDER-point Gauss-Legendre panels on each axis, between the
    axis ends and the cuts inside them, and the tensor product of the axis
    rules.
    """
    base_x, base_w = leggauss(_SPACE_ORDER)
    axes, wts = [], []
    for lo, hi in zip(habitat.lower.tolist(), habitat.upper.tolist()):
        edges = np.array(sorted({lo, hi} | {b for b in cuts if lo < b < hi}))
        half = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
        axes.append((((edges[1:] + edges[:-1]) / 2.0)[:, None] + half * base_x).ravel())
        wts.append((half * base_w).ravel())
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    wgrids = np.meshgrid(*wts, indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    weights = weights * habitat.density(nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
