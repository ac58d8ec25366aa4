from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from agedpop import (
    F_theta,
    MarkedConfiguration,
    PoissonLaw,
    Theta,
    sigma,
    star_product,
    transient_intensity,
    u_basis_derivative,
    u_prime_max_constant,
    uniform_habitat,
)
from conftest import random_configuration, union, w_basis


def test_theta_range(theta_two, habitat_1d, rng):
    x = rng.random((200, 1))
    a = rng.exponential(1.0, 200)
    th = theta_two.theta(x, a)
    g = theta_two.g(x, a)
    assert np.all(th <= 0.0)
    assert np.all(th > -1.0)
    assert np.all(g >= 0.0)
    np.testing.assert_allclose(th, np.expm1(-g), rtol=1e-14)


def test_g_hand_value(habitat_1d):
    # single term (s,k,n) = (1,2,1): v_1 has center 0.5, q 0.5, height 0.5;
    # sigma_2 = 1/2, u_1(a) = a^2/(1+a^3)
    theta = Theta([(1, 2, 1)], habitat_1d)
    x = np.array([[0.5]])
    a = np.array([2.0])
    expected = 0.5 * math.exp(-0.5 * (4.0 / 9.0))
    assert theta.g(x, a)[0] == pytest.approx(expected, rel=1e-14)


def test_g_sandwich(theta_two, rng):
    # w_{k,n} in [exp(-sup u), 1] gives cbar * g(x,0) <= g(x,a) <= g(x,0)
    cbar = math.exp(-(2.0 ** (2.0 / 3.0)) / 3.0)
    x = rng.random((500, 1))
    a = rng.exponential(2.0, 500)
    g0 = theta_two.g(x, np.zeros(500))
    ga = theta_two.g(x, a)
    assert np.all(ga <= g0 + 1e-14)
    assert np.all(ga >= cbar * g0 - 1e-14)


def test_g_age_derivative(theta_two, rng):
    x = rng.random((50, 1))
    a = rng.exponential(1.0, 50) + 0.05
    h = 1e-6
    fd = (theta_two.g(x, a + h) - theta_two.g(x, a - h)) / (2 * h)
    np.testing.assert_allclose(theta_two.g_age_derivative(x, a), fd, atol=1e-8)
    # uniform slope bound |g'| <= SIGMA_BAR * c * g with SIGMA_BAR = 1
    bound = u_prime_max_constant() * theta_two.g(x, a)
    assert np.all(np.abs(theta_two.g_age_derivative(x, a)) <= bound + 1e-12)


def test_theta_validation(habitat_1d):
    with pytest.raises(ValueError):
        Theta([], habitat_1d)
    with pytest.raises(ValueError):
        Theta([(0, 1, 1)], habitat_1d)
    with pytest.raises(ValueError):
        Theta([(1, 1, 0)], habitat_1d)


def test_f_theta_product_structure(theta_two, habitat_1d, rng):
    a = random_configuration(rng, habitat_1d, max_particles=4)
    b = random_configuration(rng, habitat_1d, max_particles=4)
    fa, fb = F_theta(theta_two, a), F_theta(theta_two, b)
    assert 0.0 < fa <= 1.0
    assert F_theta(theta_two, union(a, b)) == pytest.approx(fa * fb, rel=1e-12)
    assert F_theta(theta_two, MarkedConfiguration.empty(1)) == 1.0


def test_star_product(theta_one, theta_two, habitat_1d, rng):
    prod = star_product(theta_one, theta_two)
    assert prod.j_count == theta_one.j_count + theta_two.j_count
    cfg = random_configuration(rng, habitat_1d, max_particles=5)
    assert F_theta(prod, cfg) == pytest.approx(
        F_theta(theta_one, cfg) * F_theta(theta_two, cfg), rel=1e-12
    )
    # pointwise: 1 + (a*b) = (1+a)(1+b)
    x = rng.random((20, 1))
    al = rng.exponential(1.0, 20)
    np.testing.assert_allclose(
        1.0 + prod.theta(x, al),
        (1.0 + theta_one.theta(x, al)) * (1.0 + theta_two.theta(x, al)),
        rtol=1e-13,
    )


def test_star_product_requires_same_habitat(theta_one):
    other = uniform_habitat([(0.0, 1.0)], 2.0)
    foreign = Theta([(1, 1, 1)], other)
    with pytest.raises(ValueError):
        star_product(theta_one, foreign)


def test_poisson_expectation_against_quadrature(theta_two, habitat_1d, const_model):
    # independent oracle: nested quadrature of theta(x,a) e^{-a} * 2 dx da
    intensity = transient_intensity(habitat_1d, const_model, 1.5)

    def integrand(a, x):
        pt = np.array([[x]])
        return theta_two.theta(pt, np.array([a]))[0] * math.exp(-a) * 2.0

    inner, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 1.5, epsabs=1e-11)
    expected = math.exp(inner)
    got = PoissonLaw(intensity).expect_F(theta_two)
    assert got == pytest.approx(expected, abs=1e-8)


def test_broadcasting(theta_two, rng):
    x = rng.random((4, 1, 1))
    a = rng.exponential(1.0, (1, 5))
    out = theta_two.g(x, a)
    assert out.shape == (4, 5)
    single = theta_two.g(x[2, 0][None, :], a[0, 3:4])
    assert out[2, 3] == pytest.approx(single[0], rel=1e-14)


def test_g_sums_terms_in_term_order(rng):
    # g and g' add v_j w_j and v_j ((-sigma_j u'_{n_j}) w_j) term by term in
    # term order, with the same bits alone, inside an array or broadcast
    sides = [(0.0, 1.0), (0.0, 2.0), (-0.5, 1.0)]
    for dim in (1, 2, 3):
        habitat = uniform_habitat(sides[:dim], 2.0)
        span = habitat.upper - habitat.lower
        flat = (habitat.lower + rng.random((500, dim)) * span, rng.exponential(1.0, 500))
        broadcast = (habitat.lower + rng.random((40, 1, dim)) * span, rng.exponential(1.0, 30))
        for terms in ([(1, 1, 1), (3, 2, 1), (2, 3, 4), (5, 2, 2)] * 3, [(1, 1, 1), (4, 1, 3), (2, 1, 1)]):
            theta = Theta(terms, habitat)
            for x, a in (flat, broadcast):
                v = theta._plateaus(x)
                want_g = want_gp = np.zeros(np.broadcast_shapes(x.shape[:-1], a.shape))
                for j, (_, k, n) in enumerate(theta.terms):
                    w = w_basis(k, n, a)
                    want_g = want_g + v[j] * w
                    want_gp = want_gp + v[j] * ((-sigma(k) * u_basis_derivative(n, a)) * w)
                got_g, got_gp = theta.g(x, a), theta.g_age_derivative(x, a)
                np.testing.assert_array_equal(got_g, want_g)
                np.testing.assert_array_equal(got_gp, want_gp)
                if all(k == 1 for _, k, _ in terms):
                    assert not np.any(got_gp)
            x, a = flat
            assert theta.g(x[7], a[7]) == theta.g(x, a)[7]
            assert theta.g_age_derivative(x[7], a[7]) == theta.g_age_derivative(x, a)[7]


def test_g_and_derivative_is_one_rung_pass_with_the_bits_of_g_and_g_prime(rng, monkeypatch):
    # one Plateaus call gives (g, g') with the bits of g and g_age_derivative
    # apart, in 1-3 d, at a scalar age and on arrays, with a sigma = 0 term
    from agedpop.config_space import Plateaus

    calls = []
    original = Plateaus.__call__

    def counted(self, x):
        calls.append(np.shape(x))
        return original(self, x)

    monkeypatch.setattr(Plateaus, "__call__", counted)
    sides = [(0.0, 1.0), (0.0, 2.0), (-0.5, 1.0)]
    for dim in (1, 2, 3):
        habitat = uniform_habitat(sides[:dim], 2.0)
        span = habitat.upper - habitat.lower
        theta = Theta([(1, 1, 1), (3, 2, 1), (2, 3, 4), (5, 2, 2)], habitat)
        assert sigma(1) == 0.0
        cases = [
            (habitat.lower + rng.random(dim) * span, 0.7),
            (habitat.lower + rng.random((300, dim)) * span, rng.exponential(1.0, 300)),
            (habitat.lower + rng.random((40, 1, dim)) * span, rng.exponential(1.0, 30)),
        ]
        for x, a in cases:
            calls.clear()
            g, gp = theta.g_and_derivative(x, a)
            assert len(calls) == 1
            want_g, want_gp = theta.g(x, a), theta.g_age_derivative(x, a)
            assert len(calls) == 3
            assert type(g) is type(want_g) and type(gp) is type(want_gp)
            np.testing.assert_array_equal(g, want_g)
            np.testing.assert_array_equal(gp, want_gp)
