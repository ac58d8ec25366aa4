from __future__ import annotations

import math

import numpy as np
import pytest

from agedpop import (
    ArrivalExponent,
    DepartureModel,
    FlowedTheta,
    MarkedConfiguration,
    PathBundle,
    Theta,
    apply_generator,
    constant_rate,
    explicit_solution,
    linear_habitat,
    separable_rate,
    sigma,
    u_basis,
    uniform_habitat,
)
from agedpop.mark_space import _last_axis_sums, _size_groups, mark_weights


def w_basis(k, n, alpha):
    """The mark weight w_{k,n}(alpha) = exp(-sigma_k u_n(alpha)), broadcasting
    over all three arguments: the oracle for mark_weights and Theta's rungs."""
    return np.exp(-sigma(k) * u_basis(n, alpha))


def mark_sums(ages, sizes, budget):
    """sum_alpha w_{k,n}(alpha) over each multiset for the pairs k + n <= budget, those a
    series truncated there weights: shape (len(sizes), pairs).

    The batch rho kernel of acceptance criterion 2: multiset c is the block of sizes[c]
    consecutive ages, as in kappa_features.  The weights are evaluated once over all
    ages, and each block's sum has the bits of that block alone, those rho_distance
    gives it.
    """
    order, groups = _size_groups(sizes, np.size(ages))
    w = mark_weights(np.take(ages, order), budget)
    out = np.empty((np.size(sizes), w.shape[0]))
    for group, n, cols in groups:
        # a size's columns read (pair, block, age) as a view; each block sums its own row
        out[group] = _last_axis_sums(w[:, cols].reshape(w.shape[0], group.size, n)).T
    return out


@pytest.fixture(scope="session")
def habitat_1d():
    return uniform_habitat([(0.0, 1.0)], 2.0)


@pytest.fixture(scope="session")
def habitat_1d_linear():
    return linear_habitat([(0.0, 1.0)], 1.0, 2.0)


@pytest.fixture(scope="session")
def habitat_2d():
    return uniform_habitat([(0.0, 1.0), (0.0, 2.0)], 3.0)


@pytest.fixture(scope="session")
def const_model():
    return constant_rate(1.0)


@pytest.fixture(scope="session")
def separable_model(habitat_1d):
    return separable_rate(habitat_1d, 0.5, 1.0, 2.0)


@pytest.fixture(scope="session")
def theta_two(habitat_1d):
    return Theta([(1, 1, 1), (2, 1, 2)], habitat_1d)


@pytest.fixture(scope="session")
def theta_one(habitat_1d):
    return Theta([(1, 2, 1)], habitat_1d)


def random_configuration(rng, habitat, max_particles=5, age_scale=1.0):
    k = int(rng.integers(0, max_particles + 1))
    pos = habitat.lower + rng.random((k, habitat.dim)) * (habitat.upper - habitat.lower)
    ages = rng.exponential(age_scale, k)
    return MarkedConfiguration(pos, ages)


def quadrature_cumulative(model, order=32):
    """model with M(x, alpha) replaced by an order-point Gauss-Legendre
    integral of its rate over [0, alpha]: a cumulative that is not closed
    form, to check that every consumer reads M through model.cumulative.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)

    def cumulative(x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return alpha * sum(w / 2.0 * model.rate(x, alpha * (z + 1.0) / 2.0) for z, w in zip(nodes, weights))

    return DepartureModel(model.m_star, model.m_zero, model.rate, cumulative, model.modulus)


def tiled_bundle(config, n_paths):
    """A PathBundle whose every path holds config."""
    ids = np.repeat(np.arange(n_paths, dtype=np.int64), len(config))
    pos, ages = np.tile(config.positions, (n_paths, 1)), np.tile(config.ages, n_paths)
    return PathBundle(n_paths, config.dim, ids, pos, ages)


def poisson_bundle(intensity, n_paths, rng):
    """A PathBundle of n_paths independent Poisson(intensity) configurations."""
    bundle = PathBundle(n_paths, intensity.habitat.dim)
    bundle.add_poisson(intensity, rng)
    return bundle


def union(a, b):
    """The configuration holding the particles of a and then those of b."""
    return MarkedConfiguration(np.vstack([a.positions, b.positions]), np.concatenate([a.ages, b.ages]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


# Central-difference oracles of the two transport identities, second order
# in h: the library checks them in integral form on the age rule.
def central_flow_residual(theta, t, x, alpha, model, h):
    """|central difference of t -> theta_t - time_derivative| at (x, alpha)."""
    f_plus = FlowedTheta(theta, t + h, model).theta(x, alpha)
    f_minus = FlowedTheta(theta, t - h, model).theta(x, alpha)
    analytic = FlowedTheta(theta, t, model).time_derivative(x, alpha)
    return np.abs((f_plus - f_minus) / (2.0 * h) - analytic)


def central_kolmogorov_residual(theta, t, config, habitat, model, h):
    """|central difference of t -> P_t F - e^{H(t)} L F_{theta_t}| at config.

    Each call builds H afresh unless the caller runs it inside run_memo().
    """

    def value(tt):
        return explicit_solution(theta, 0.0, tt, config, habitat, model)

    deriv = (value(t + h) - value(t - h)) / (2.0 * h)
    lf = apply_generator(FlowedTheta(theta, t, model), config, habitat, model)
    return abs(deriv - lf * math.exp(ArrivalExponent(theta, habitat, model).H(t)))
