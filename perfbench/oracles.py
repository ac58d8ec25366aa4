"""Reference values computed without the package's own numerics.

Every correctness check of the benchmark compares a program output with a
number from this module or with a property the method must have.  Nothing
here imports agedpop: the plateau basis, the age basis, the sigma ladder and
the closed-form cumulative hazards are re-derived from their definitions in
the package docstrings, and the integrals use scipy quadrature or a
Gauss-Legendre rule of much higher order than the package's.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

HEIGHTS = (0.5, 0.75)


def plateaus(count, lower, upper):
    """The first `count` plateau functions as (center, inner_radius, height).

    Scale j holds one trapezoid per dyadic cell of side 2**(1-j) of the
    window (cells row-major, first axis slowest) and per height 1/2, 3/4;
    its inner radius is diameter * 2**-j and its support radius twice that.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    diameter = float(np.linalg.norm(upper - lower))
    out = []
    j = 1
    while len(out) < count:
        per_axis = 2 ** (j - 1)
        side = (upper - lower) / per_axis
        for cell in itertools.product(range(per_axis), repeat=lower.size):
            center = lower + (np.asarray(cell, dtype=float) + 0.5) * side
            for height in HEIGHTS:
                out.append((center, diameter / 2.0**j, height))
        j += 1
    return out[:count]


def plateau_value(plateau, x):
    """v(x) for positions x of shape (..., dim)."""
    center, q, height = plateau
    r = np.sqrt(np.sum((np.asarray(x, dtype=float) - center) ** 2, axis=-1))
    return height * np.clip(2.0 - r / q, 0.0, 1.0)


def sigma(k):
    """Default ladder rung sigma_k = 1 - 2**(1-k)."""
    return 1.0 - 2.0 ** (1 - k)


def u_age(n, a):
    return a * a / (1.0 + n * a**3)


def w_age(k, n, a):
    return np.exp(-sigma(k) * u_age(n, a))


def plateau_kinks_1d(terms, lower, upper):
    """Interior points of a 1-d window where some plateau is not smooth."""
    bases = plateaus(max(s for s, _, _ in terms), [lower], [upper])
    kinks = set()
    for s, _, _ in terms:
        center, q, _ = bases[s - 1]
        for r in (q, 2.0 * q):
            for p in (center[0] - r, center[0] + r):
                if lower < p < upper:
                    kinks.add(float(p))
    return sorted(kinks)


# ---- distances: the series summed term by term --------------------------------


def _sums(values, weights):
    return float(np.dot(values, weights)) if len(weights) else 0.0


def kappa_series(pos_a, age_a, pos_b, age_b, lower, upper, budget):
    """sum over s + k + n <= budget of 2**-(s+k+n) c / (1 + c)."""
    bases = plateaus(budget - 2, lower, upper)
    va = [plateau_value(p, pos_a) for p in bases]
    vb = [plateau_value(p, pos_b) for p in bases]
    total = 0.0
    for k in range(1, budget - 1):
        for n in range(1, budget - k):
            wa = w_age(k, n, age_a)
            wb = w_age(k, n, age_b)
            for s in range(1, budget - k - n + 1):
                c = abs(_sums(va[s - 1], wa) - _sums(vb[s - 1], wb))
                total += 2.0 ** -(s + k + n) * c / (1.0 + c)
    return total


def ground_series(pos_a, pos_b, lower, upper, budget):
    """sum over s <= budget of 2**-s c / (1 + c) with plateau sums only."""
    total = 0.0
    for s, p in enumerate(plateaus(budget, lower, upper), start=1):
        c = abs(float(np.sum(plateau_value(p, pos_a))) - float(np.sum(plateau_value(p, pos_b))))
        total += 2.0**-s * c / (1.0 + c)
    return total


def rho_series(age_a, age_b, budget):
    """sum over k + n <= budget of 2**-(k+n) c / (1 + c) with age sums only."""
    total = 0.0
    for k in range(1, budget):
        for n in range(1, budget - k + 1):
            c = abs(float(np.sum(w_age(k, n, age_a))) - float(np.sum(w_age(k, n, age_b))))
            total += 2.0 ** -(k + n) * c / (1.0 + c)
    return total


# ---- hazards ------------------------------------------------------------------


def separable_profile(x, lower, upper):
    z = (np.asarray(x, dtype=float) - lower) / (upper - lower)
    return np.prod((1.0 - np.cos(2.0 * np.pi * z)) / 2.0, axis=-1)


def separable_cumulative(profile, u, base, amplitude, frequency):
    """int_0^u base + A s (1 + sin(f b))/2 db in closed form."""
    return base * u + amplitude * profile * (u / 2.0 + (1.0 - np.cos(frequency * u)) / (2.0 * frequency))


# ---- expectations -------------------------------------------------------------


def stationary_pi_1d_constant(terms, length, level, rate):
    """pi(F_theta) on [0, length] with constant density and hazard.

    exp(level * int_0^inf e^{-rate u} int_0^length theta(x, u) dx du) with
    theta = exp(-g) - 1, by nested adaptive quadrature split at the plateau
    kinks.
    """
    kinks = plateau_kinks_1d(terms, 0.0, length)
    bases = plateaus(max(s for s, _, _ in terms), [0.0], [length])

    def theta(x, u):
        g = 0.0
        for s, k, n in terms:
            center, q, height = bases[s - 1]
            g += height * min(max(2.0 - abs(x - center[0]) / q, 0.0), 1.0) * math.exp(-sigma(k) * u_age(n, u))
        return math.expm1(-g)

    def inner(u):
        val, _ = integrate.quad(theta, 0.0, length, args=(u,), points=kinks or None, epsabs=1e-13, limit=200)
        return math.exp(-rate * u) * val

    total, _ = integrate.quad(inner, 0.0, 60.0 / rate, epsabs=1e-13, limit=400)
    return math.exp(level * total)


def mean_count_1d_separable(t, lower, upper, base_density, slope, base, amplitude, frequency):
    """E count at t from the empty start: int_0^t int density e^{-M} dx du."""

    def integrand(u, x):
        prof = separable_profile(np.array([x]), lower, upper)
        return (base_density + slope * x) * math.exp(-separable_cumulative(prof, u, base, amplitude, frequency))

    val, _ = integrate.dblquad(integrand, lower, upper, 0.0, t, epsabs=1e-12)
    return val


def stationary_exponent_2d(terms, lower, upper, base, amplitude, frequency):
    """int_0^inf int_window theta(x, u) e^{-M(x, u)} dx du for a separable hazard.

    A tensor Gauss-Legendre rule of order 96 per axis in space (the package
    uses 24) and 16-node panels of width 1 in age; the arrival density is a
    constant factor the caller applies.
    """
    order, panel = 96, 1.0
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    gx, gw = leggauss(order)
    axes = [(lo + hi) / 2.0 + (hi - lo) / 2.0 * gx for lo, hi in zip(lower, upper)]
    wts = [(hi - lo) / 2.0 * gw for lo, hi in zip(lower, upper)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lower.size)
    weight = np.prod(np.stack(np.meshgrid(*wts, indexing="ij"), axis=-1).reshape(-1, lower.size), axis=-1)
    bases = plateaus(max(s for s, _, _ in terms), lower, upper)
    v = np.stack([plateau_value(bases[s - 1], mesh) for s, _, _ in terms])  # (terms, nodes)
    prof = separable_profile(mesh, lower, upper)
    ax, aw = leggauss(16)
    horizon = 60.0 / base
    total = 0.0
    for a0 in np.arange(0.0, horizon, panel):
        ages = a0 + panel / 2.0 * (ax + 1.0)
        w = np.stack([w_age(k, n, ages) for _, k, n in terms])  # (terms, ages)
        g = np.einsum("tn,ta->na", v, w)
        surv = np.exp(-separable_cumulative(prof[:, None], ages[None, :], base, amplitude, frequency))
        total += float(weight @ (np.expm1(-g) * surv) @ (panel / 2.0 * aw))
    return total
