from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, stats

from agedpop import (
    ArrivalExponent,
    Habitat,
    MarkedConfiguration,
    chi_integral,
    chi_sample,
    constant_rate,
    explicit_solution,
    gauss_profile_nodes,
    linear_habitat,
    separable_rate,
    survival_factor,
    transient_intensity,
    uniform_habitat,
)


def test_uniform_habitat_geometry():
    hab = uniform_habitat([(0.0, 2.0), (1.0, 2.0)], 1.5)
    assert hab.dim == 2
    assert hab.volume == pytest.approx(2.0)
    assert hab.diameter == pytest.approx(math.sqrt(5.0))
    assert hab.chi_mass == pytest.approx(3.0)
    np.testing.assert_allclose(hab.midpoint, [1.0, 1.5])
    assert hab.contains(np.array([0.5, 1.5]))
    assert not hab.contains(np.array([0.5, 0.5]))


def test_uniform_density_constant():
    hab = uniform_habitat([(0.0, 1.0)], 5.0)
    x = np.linspace(0.0, 1.0, 7)[:, None]
    np.testing.assert_allclose(hab.density(x), np.full(7, 5.0))
    assert hab.density_sup == pytest.approx(5.0)


def test_linear_habitat_mass_and_positivity():
    hab = linear_habitat([(0.0, 1.0)], 1.0, 2.0)
    # mass = int_0^1 (1 + 2x) dx = 2
    assert hab.chi_mass == pytest.approx(2.0)
    assert hab.density_sup == pytest.approx(3.0)
    with pytest.raises(ValueError):
        linear_habitat([(0.0, 1.0)], 1.0, -2.0)  # goes negative on the window


def test_habitat_validation():
    with pytest.raises(ValueError):
        uniform_habitat([(1.0, 0.0)], 1.0)
    with pytest.raises(ValueError):
        uniform_habitat([(0.0, 1.0)], -2.0)


def test_constant_rate_closed_form():
    model = constant_rate(1.5)
    assert model.m_star == model.m_zero == 1.5
    x = np.zeros((3, 1))
    a = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(model.rate(x, a), [1.5, 1.5, 1.5])
    np.testing.assert_allclose(model.cumulative(x, a), 1.5 * a)


def test_separable_rate_bounds_and_cumulative(habitat_1d):
    model = separable_rate(habitat_1d, 0.5, 1.0, 2.0)
    assert model.m_zero == pytest.approx(0.5)
    assert model.m_star == pytest.approx(1.5)
    rng = np.random.default_rng(1)
    x = rng.random((500, 1))
    a = rng.exponential(2.0, 500)
    r = model.rate(x, a)
    assert np.all(r >= model.m_zero - 1e-12)
    assert np.all(r <= model.m_star + 1e-12)
    # closed-form M against direct quadrature of the rate
    for i in range(5):
        xi, ai = x[i : i + 1], float(a[i])
        got = model.cumulative(xi, np.array([ai]))[0]
        want, _ = integrate.quad(lambda u: model.rate(xi, np.array([u]))[0], 0.0, ai)
        assert got == pytest.approx(want, abs=1e-10)


def _without_cumulative(model):
    return type(model)(
        m_star=model.m_star,
        m_zero=model.m_zero,
        rate=model.rate,
        cumulative=None,
        modulus=model.modulus,
    )


def test_cumulative_hazard_numeric_fallback(habitat_1d):
    base = separable_rate(habitat_1d, 0.4, 0.8, 3.0)
    stripped = _without_cumulative(base)
    x = np.array([[0.3], [0.8]])
    a = np.array([0.7, 2.1])
    np.testing.assert_allclose(stripped.cumulative(x, a), base.cumulative(x, a), atol=1e-8)


def test_numeric_cumulative_matches_closed_form_downstream(habitat_1d, separable_model, theta_two):
    # every consumer of M sees the numeric fallback as it sees the closed form
    stripped = _without_cumulative(separable_model)
    theta = theta_two
    ages = np.array([0.0, 0.4, 1.7])
    np.testing.assert_allclose(
        ArrivalExponent(theta, habitat_1d, stripped).psi(ages),
        ArrivalExponent(theta, habitat_1d, separable_model).psi(ages),
        atol=1e-8,
    )
    assert transient_intensity(habitat_1d, stripped, 1.3).total_mass == pytest.approx(
        transient_intensity(habitat_1d, separable_model, 1.3).total_mass, abs=1e-8
    )
    x = np.array([[0.2], [0.55], [0.9]])
    np.testing.assert_allclose(
        survival_factor(stripped, x, ages, 0.8),
        survival_factor(separable_model, x, ages, 0.8),
        atol=1e-8,
    )
    config = MarkedConfiguration(np.array([[0.35]]), np.array([0.6]))
    assert explicit_solution(theta, 0.0, 0.7, config, habitat_1d, stripped) == pytest.approx(
        explicit_solution(theta, 0.0, 0.7, config, habitat_1d, separable_model), abs=1e-8
    )


def test_survival_factor_band(habitat_1d, separable_model):
    rng = np.random.default_rng(2)
    x = rng.random((200, 1))
    a = rng.exponential(1.0, 200)
    t = 0.7
    q = survival_factor(separable_model, x, a, t)
    assert np.all(q <= math.exp(-separable_model.m_zero * t) + 1e-12)
    assert np.all(q >= math.exp(-separable_model.m_star * t) - 1e-12)
    np.testing.assert_allclose(survival_factor(separable_model, x, a, 0.0), 1.0)


def test_chi_sample_distribution():
    rng = np.random.default_rng(3)
    hab = linear_habitat([(0.0, 1.0)], 1.0, 2.0)
    xs = chi_sample(hab, rng, size=40_000)[:, 0]
    # cdf of density (1+2x)/2 on [0,1] is (x + x^2)/2
    stat = stats.kstest(xs, lambda x: (x + x**2) / 2.0).statistic
    assert stat < 1.63 / math.sqrt(40_000)


def test_chi_sample_uniform_2d(habitat_2d):
    rng = np.random.default_rng(4)
    xs = chi_sample(habitat_2d, rng, size=20_000)
    assert xs.shape == (20_000, 2)
    for j, (lo, hi) in enumerate([(0, 1), (0, 2)]):
        stat = stats.kstest(xs[:, j], lambda x: (x - lo) / (hi - lo)).statistic
        assert stat < 1.63 / math.sqrt(20_000)


def test_chi_sample_rejects_density_above_sup():
    # density 1 + 2x peaks at 3 but is declared to stay below 2
    good = linear_habitat([(0.0, 1.0)], 1.0, 2.0)
    bad = Habitat(good.lower, good.upper, good.density, chi_mass=good.chi_mass, density_sup=2.0)
    with pytest.raises(ValueError, match="density_sup"):
        chi_sample(bad, np.random.default_rng(5), size=100)


def test_chi_integral_closed_forms(habitat_2d):
    # integral of x0*x1 against level 3 dx over [0,1]x[0,2]
    val = chi_integral(habitat_2d, lambda x: x[..., 0] * x[..., 1])
    assert val == pytest.approx(3.0 * 0.5 * 2.0, rel=1e-8)
    hab = linear_habitat([(0.0, 1.0)], 1.0, 2.0)
    val = chi_integral(hab, lambda x: x[..., 0])
    assert val == pytest.approx(0.5 + 2.0 / 3.0, rel=1e-10)


def test_chi_integral_deterministic_3d():
    hab = uniform_habitat([(0.0, 1.0)] * 3, 2.0)
    val = chi_integral(hab, lambda x: x.sum(axis=-1))
    assert val == pytest.approx(3.0, rel=1e-12)
    assert chi_integral(hab, lambda x: x.sum(axis=-1)) == val


def test_gauss_profile_nodes_integrates_exactly(habitat_1d):
    nodes, weights = gauss_profile_nodes(habitat_1d, breakpoints=(0.3,))
    # GL nodes with the density folded in: sum w * f(node) = chi(f)
    for p in range(6):
        got = float(np.sum(weights * nodes[:, 0] ** p))
        assert got == pytest.approx(2.0 / (p + 1), rel=1e-12)
    hab2 = linear_habitat([(0.0, 1.0)], 1.0, 2.0)
    nodes, weights = gauss_profile_nodes(hab2)
    got = float(np.sum(weights * nodes[:, 0]))
    assert got == pytest.approx(0.5 + 2.0 / 3.0, rel=1e-12)


def test_gauss_profile_nodes_2d(habitat_2d):
    nodes, weights = gauss_profile_nodes(habitat_2d)
    got = float(np.sum(weights * nodes[:, 0] * nodes[:, 1]))
    assert got == pytest.approx(3.0, rel=1e-12)
    assert weights.sum() == pytest.approx(habitat_2d.chi_mass, rel=1e-12)
