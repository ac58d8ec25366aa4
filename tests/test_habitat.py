from __future__ import annotations

import ast
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from agedpop import generator, habitat, verify
from agedpop.habitat import SurvivalCumulative, age_panel_width, survival_weighted_integral
from agedpop import (
    ArrivalExponent,
    Habitat,
    MarkedConfiguration,
    Theta,
    chi_integral,
    chi_sample,
    constant_rate,
    explicit_solution,
    gauss_profile_nodes,
    linear_habitat,
    log_survival,
    separable_rate,
    survival_factor,
    transient_intensity,
    uniform_habitat,
)
from conftest import quadrature_cumulative


def test_uniform_habitat_geometry():
    hab = uniform_habitat([(0.0, 2.0), (1.0, 2.0)], 1.5)
    assert hab.dim == 2
    assert hab.volume == pytest.approx(2.0)
    assert hab.diameter == pytest.approx(math.sqrt(5.0))
    assert hab.chi_mass == pytest.approx(3.0)
    np.testing.assert_allclose(hab.midpoint, [1.0, 1.5])


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
    assert np.all((model.m_zero <= r) & (r <= model.m_star))
    # closed-form M against direct quadrature of the rate
    for i in range(5):
        xi, ai = x[i : i + 1], float(a[i])
        got = model.cumulative(xi, np.array([ai]))[0]
        want, _ = integrate.quad(lambda u: model.rate(xi, np.array([u]))[0], 0.0, ai)
        assert got == pytest.approx(want, abs=1e-10)
    # exactly within the band where each factor reaches an end: the profile
    # is 1 at z = 1/2 on every axis and 0 at z = 0, and the age wave peaks at
    # f a = pi/2 + 2 pi k and vanishes at 3 pi/2 + 2 pi k
    k = np.arange(1000)
    windows = [(0.0, 1.0), (-1.0, 2.0), (0.5, 1.5)]
    for dim in (1, 2, 3):
        hab = uniform_habitat(windows[:dim], 1.0)
        corners = np.stack([hab.midpoint, hab.lower])
        x = np.concatenate([corners, hab.lower + rng.random((50, dim)) * (hab.upper - hab.lower)])
        for freq in (2.0, 40.0, 100.0):
            model = separable_rate(hab, 0.5, 1.9, freq)
            ages = np.concatenate([np.pi / 2.0 + 2.0 * np.pi * k, 3.0 * np.pi / 2.0 + 2.0 * np.pi * k]) / freq
            r = model.rate(x[:, None, :], ages[None, :])
            assert np.all((model.m_zero <= r) & (r <= model.m_star)), (dim, freq)
            np.testing.assert_array_equal(r[1], model.m_zero)
    # numpy's tan gives exactly -1 at this float on x86-64: the age wave is
    # exactly 0 there, with no division by zero
    age = 160653.97972111145
    model = separable_rate(habitat_1d, 0.5, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = model.rate(np.array([[0.5]]), np.array([age]))[0]
    assert model.m_zero <= r <= model.m_star
    if np.tan(age) == -1.0:
        assert r == model.m_zero


def test_numeric_cumulative_matches_closed_form_downstream(habitat_1d, separable_model, theta_two):
    # every consumer of M sees a numeric cumulative as it sees the closed form
    stripped = quadrature_cumulative(separable_model)
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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["constant", "separable"])
def test_survival_factor_one_cumulative_call_same_bits(dim, family):
    # one stacked cumulative call gives the bits of two separate calls
    hab = uniform_habitat([(0.0, 1.0), (0.0, 2.0)][:dim], 3.0)
    model = constant_rate(0.7) if family == "constant" else separable_rate(hab, 0.5, 1.0, 2.0)
    rng = np.random.default_rng(8)
    x = hab.lower + rng.random((4001, dim)) * (hab.upper - hab.lower)
    a = rng.exponential(2.0, 4001)
    for t in (0.0, 0.37, 5.0):
        two_calls = model.cumulative(x, a) - model.cumulative(x, a + t)
        np.testing.assert_array_equal(log_survival(model, x, a, t), two_calls)
        np.testing.assert_array_equal(survival_factor(model, x, a, t), np.exp(two_calls))
    # an array of shifts broadcast against one row per point, as the laws use it
    ts = np.linspace(0.0, 3.0, 7)
    two_calls = model.cumulative(x[:9, None, :], a[:9, None]) - model.cumulative(
        x[:9, None, :], a[:9, None] + ts
    )
    np.testing.assert_array_equal(log_survival(model, x[:9, None, :], a[:9, None], ts), two_calls)
    calls = []
    counted = habitat.DepartureModel(
        model.m_star, model.m_zero, model.rate,
        lambda x, a: calls.append(1) or model.cumulative(x, a),
    )
    survival_factor(counted, x, a, 0.5)
    assert len(calls) == 1


def test_separable_profile_is_the_axis_product():
    # the profile prod_i sin^2(pi z_i), the age part and the rate against an
    # np.longdouble (libm sinl) oracle on the same float64 inputs
    pi = np.longdouble("3.14159265358979323846264338327950288")
    windows = [(0.0, 1.0), (-1.0, 2.0), (0.5, 1.5)]
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3):
        hab = uniform_habitat(windows[:dim], 1.0)
        x = hab.lower + rng.random((3001, dim)) * (hab.upper - hab.lower)
        z = (x.astype(np.longdouble) - hab.lower) / (hab.upper - hab.lower)
        profile = np.prod(np.sin(pi * z) ** 2, axis=-1)
        # at f a/2 = pi/4 the age wave is exactly 1, so the rate is the profile
        got = separable_rate(hab, 0.0, 1.0, 2.0).rate(x, np.pi / 4.0)
        assert np.max(np.abs(got - profile)) <= 1e-15, dim
        # the rate, for f a <= 200: the float64 f a/2 is off by up to half an
        # ulp of 100, 7.1e-15, and so is the age wave
        base, amp, freq = 0.5, 1.0, 3.0
        model = separable_rate(hab, base, amp, freq)
        a = rng.random(3001) * 200.0 / freq
        wave = (1.0 + np.sin(np.longdouble(freq) * a)) / 2.0
        got = model.rate(x, a)
        assert np.max(np.abs(got - (base + amp * profile * wave))) <= 1e-14, dim
        # the age part, read at the midpoint where the profile is exactly 1;
        # ages from 1e-9 up, where 1 - cos(f a) cancels
        ages = np.concatenate([10.0 ** rng.uniform(-9.0, 0.0, 3001), rng.exponential(2.0, 3001)])
        for freq in (3.0, 40.0):
            fa = np.longdouble(freq) * ages
            want = ages / np.longdouble(2.0) + np.sin(fa / 2.0) ** 2 / np.longdouble(freq)
            got = separable_rate(hab, 0.0, 1.0, freq).cumulative(hab.midpoint, ages)
            assert np.max(np.abs(got - want) / want) <= 1e-15, (dim, freq)
    assert model.cumulative(x[0], a[0]) == model.cumulative(x, a)[0]


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


def _counting(hab):
    """hab with a density that records the size of every proposal batch."""
    batches = []

    def density(x):
        batches.append(len(x))
        return hab.density(x)

    return Habitat(hab.lower, hab.upper, density, chi_mass=hab.chi_mass, density_sup=hab.density_sup), batches


def test_chi_sample_proposes_need_over_acceptance():
    # a uniform density accepts every proposal: exactly `size` are drawn
    hab, batches = _counting(uniform_habitat([(0.0, 1.0), (0.0, 2.0)], 3.0))
    assert chi_sample(hab, np.random.default_rng(6), size=10_000).shape == (10_000, 2)
    assert batches == [10_000]


def test_chi_sample_tops_up_a_short_round():
    # acceptance 5/8: a round of need/acceptance plus 3 SD proposals falls
    # short now and then, and the next round draws the rest
    hab, batches = _counting(linear_habitat([(0.0, 1.0)], 2.0, 6.0))
    rng = np.random.default_rng(7)
    rounds = []
    for _ in range(2000):
        before = len(batches)
        xs = chi_sample(hab, rng, size=5)
        assert xs.shape == (5, 1) and np.all((xs >= 0.0) & (xs <= 1.0))
        rounds.append(len(batches) - before)
    assert max(rounds) >= 2
    assert sum(r > 1 for r in rounds) < 40


def test_chi_sample_rejects_density_above_sup():
    # density 1 + 2x peaks at 3 but is declared to stay below 2
    good = linear_habitat([(0.0, 1.0)], 1.0, 2.0)
    bad = Habitat(good.lower, good.upper, good.density, chi_mass=good.chi_mass, density_sup=2.0)
    with pytest.raises(ValueError, match="density_sup"):
        chi_sample(bad, np.random.default_rng(5), size=100)


def test_chi_sample_rejects_a_nan_density():
    # density 2, but NaN on the left half of the window: no uniform falls
    # below NaN, so unchecked chi_sample would quietly draw from the right
    # half alone
    def density(x):
        return np.where(x[..., 0] < 0.5, math.nan, 2.0)

    bad = Habitat(np.array([0.0]), np.array([1.0]), density, chi_mass=2.0, density_sup=2.0)
    with pytest.raises(ValueError, match="density_sup"):
        chi_sample(bad, np.random.default_rng(5), size=100)


@pytest.mark.parametrize("frequency", [math.nan, math.inf, -math.inf])
def test_separable_rate_refuses_a_non_finite_frequency(habitat_1d, frequency):
    with pytest.raises(ValueError, match="frequency"):
        separable_rate(habitat_1d, 0.5, 1.0, frequency)


def test_chi_sample_draws_no_acceptance_uniform_at_the_density_sup():
    # a uniform density equals density_sup everywhere: every proposal is
    # accepted without a uniform, so the draw is the proposals' uniforms alone
    hab = uniform_habitat([(0.0, 1.0), (0.0, 2.0)], 3.0)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    xs = chi_sample(hab, rng, size=10_000)
    np.testing.assert_array_equal(xs, hab.lower + twin.random((10_000, 2)) * (hab.upper - hab.lower))
    assert rng.random() == twin.random()


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


# ------------------------------------------------------- age-panel rule
def _separable_oracle(dim, T):
    """int_0^T int cos(x_0) e^{-0.3 a} e^{-M(x, a)} chi(dx) da by dblquad in (a, x_0).

    Hazard 0.5 + s(x) (1 + sin 2a)/2 on [0,1]^dim at density 2 (1-d) or 3
    (2-d); in 2-d the x_1-integral of exp(-c (1 - cos 2 pi x_1)/2) is
    i0e(c/2) in closed form.
    """
    level = 2.0 if dim == 1 else 3.0

    def integrand(a, x0):
        age_part = a / 2.0 + (1.0 - math.cos(2.0 * a)) / 4.0
        s0 = (1.0 - math.cos(2.0 * math.pi * x0)) / 2.0
        if dim == 1:
            inner = math.exp(-s0 * age_part)
        else:
            inner = special.i0e(s0 * age_part / 2.0)
        return level * math.cos(x0) * math.exp(-0.8 * a) * inner

    val, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, T, epsabs=1e-12)
    return val


def _halve_age_panels(monkeypatch):
    full = habitat.age_panel_width
    monkeypatch.setattr(habitat, "age_panel_width", lambda *args: full(*args) / 2.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("T", [0.3, 1.0, 3.0, 10.0])
def test_survival_weighted_integral_against_dblquad(dim, T, monkeypatch):
    hab = uniform_habitat([(0.0, 1.0)] * dim, 2.0 if dim == 1 else 3.0)
    model = separable_rate(hab, 0.5, 1.0, 2.0)

    def h(x, a):
        return np.cos(x[..., 0]) * np.exp(-0.3 * a)

    got = survival_weighted_integral(hab, model, h, 0.0, T)
    assert got == pytest.approx(_separable_oracle(dim, T), abs=1e-10)
    _halve_age_panels(monkeypatch)
    assert abs(got - survival_weighted_integral(hab, model, h, 0.0, T)) <= 1e-13


def test_survival_weighted_integral_high_rate_panels(monkeypatch):
    # m_star = 20 at age frequency 2, where the hazard's modulus allows unit
    # panels: only the 2/m_star cap narrows them.  Ends inside a unit panel
    # would be 9e-10 off through its interpolant
    hab = uniform_habitat([(0.0, 1.0)], 2.0)
    model = separable_rate(hab, 0.5, 19.5, 2.0)
    assert age_panel_width(model) == pytest.approx(0.1)

    def h(x, a):
        return np.exp(-0.3 * a) * np.ones(x.shape[:-1])

    def age_density(a):
        # x-integral of 2 exp(-c (1 - cos 2 pi x)/2) is 2 i0e(c/2)
        age_part = a / 2.0 + (1.0 - math.cos(2.0 * a)) / 4.0
        return 2.0 * math.exp(-0.8 * a) * special.i0e(19.5 * age_part / 2.0)

    cumulative = SurvivalCumulative(hab, model, h)
    for T in (0.35, 0.55):
        want, _ = integrate.quad(age_density, 0.0, T, epsabs=1e-14, limit=400)
        assert cumulative(T) == pytest.approx(want, abs=1e-11)
    want, _ = integrate.quad(age_density, 0.0, 1.0, epsabs=1e-14, limit=400, points=[0.25, 0.5, 0.75])
    got = survival_weighted_integral(hab, model, h, 0.0, 1.0)
    assert got == pytest.approx(want, abs=1e-11)
    _halve_age_panels(monkeypatch)
    assert abs(got - survival_weighted_integral(hab, model, h, 0.0, 1.0)) <= 1e-13


def test_survival_weighted_integral_high_frequency_hazard(monkeypatch):
    # amplitude 1, frequency 50: m_star = 1.5 alone would allow unit panels,
    # 4e-4 off; the hazard's modulus narrows them to 2/50
    hab = uniform_habitat([(0.0, 1.0)], 2.0)
    model = separable_rate(hab, 0.5, 1.0, 50.0)
    assert age_panel_width(model) == pytest.approx(0.04)

    def age_density(a):
        # int rate e^{-M} chi(dx) with s = (1 - cos 2 pi x)/2: the x-integrals
        # of e^{-s A} and s e^{-s A} are i0e(A/2) and (i0e - i1e)(A/2)/2
        c = (1.0 + math.sin(50.0 * a)) / 2.0
        A = a / 2.0 + (1.0 - math.cos(50.0 * a)) / 100.0
        i0, i1 = special.i0e(A / 2.0), special.i1e(A / 2.0)
        return 2.0 * math.exp(-0.5 * a) * (0.5 * i0 + c * (i0 - i1) / 2.0)

    for T in (1.0, 3.0):
        want, _ = integrate.quad(age_density, 0.0, T, epsabs=1e-14, limit=2000)
        got = survival_weighted_integral(hab, model, model.rate, 0.0, T)
        assert got == pytest.approx(want, abs=1e-11)
    _halve_age_panels(monkeypatch)
    assert abs(got - survival_weighted_integral(hab, model, model.rate, 0.0, T)) <= 1e-13


def test_age_rule_follows_theta_age_scale(monkeypatch):
    # u_n turns at (2/n)^(1/3): unit panels are 3e-8 off for n = 1000
    n = 1000
    hab = uniform_habitat([(0.0, 1.0)], 2.0)
    model = separable_rate(hab, 0.5, 1.0, 2.0)
    theta = Theta([(1, 2, n), (2, 3, n)], hab)
    assert theta.age_scale == pytest.approx(n ** (-1.0 / 3.0))
    exponent = ArrivalExponent(theta, hab, model)
    kinks = [(2.0 / n) ** (1.0 / 3.0)]
    for T in (0.5, 3.0):
        want, _ = integrate.quad(exponent.psi, 0.0, T, epsabs=1e-14, limit=400, points=kinks)
        assert exponent.H(T) == pytest.approx(want, abs=1e-11)
        got = survival_weighted_integral(
            hab, model, theta.theta, 0.0, T, theta.x_breakpoints, age_scale=theta.age_scale
        )
        assert got == pytest.approx(want, abs=1e-11)
    _halve_age_panels(monkeypatch)
    halved = survival_weighted_integral(
        hab, model, theta.theta, 0.0, T, theta.x_breakpoints, age_scale=theta.age_scale
    )
    assert abs(got - halved) <= 1e-13


def test_survival_cumulative_against_quad(habitat_1d, separable_model, theta_two):
    cumulative = SurvivalCumulative(habitat_1d, separable_model, theta_two.theta, theta_two.x_breakpoints)
    T = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    got = cumulative(T)
    assert got[0] == 0.0
    for t, value in zip(T[1:], got[1:]):
        want, _ = integrate.quad(cumulative.slice, 0.0, t, epsabs=1e-13, limit=400)
        assert value == pytest.approx(want, abs=1e-12)
    # scalar queries see the same cached panels
    assert cumulative(2.5) == got[3]
    with pytest.raises(ValueError):
        cumulative(-0.5)


def _old_partial_panel_weights(X):
    """Weights w_i(X) with int_{-1}^X p = sum_i w_i(X) p(x_i) for p of degree
    <= 15, x_i the 16 Gauss nodes, built per query from the Legendre
    Vandermonde matrix: the oracle of SurvivalCumulative's per-panel
    antiderivative coefficients."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    legendre = (weights[:, None] * np.polynomial.legendre.legvander(nodes, 15)) * (np.arange(16) + 0.5)
    V = np.polynomial.legendre.legvander(X, 16)
    B = np.empty(X.shape + (16,))
    B[..., 0] = V[..., 1] + V[..., 0]
    B[..., 1:] = (V[..., 2:] - V[..., :-2]) / (2.0 * np.arange(1, 16) + 1.0)
    return np.sum(B[..., None, :] * legendre, axis=-1)


def _cumulative_cases():
    hab = uniform_habitat([(0.0, 1.0)], 2.0)
    theta = Theta([(1, 1, 1), (2, 1, 2)], hab)
    sep = separable_rate(hab, 0.5, 1.0, 50.0)
    hab2 = uniform_habitat([(0.0, 1.0), (0.0, 2.0)], 3.0)
    hab3 = uniform_habitat([(0.0, 1.0)] * 3, 2.0)
    return [
        (hab, constant_rate(0.6), lambda x, u: 1.0, ()),
        (hab, sep, theta.theta, theta.x_breakpoints),
        (hab2, separable_rate(hab2, 0.5, 1.0, 2.0), Theta([(1, 1, 1), (3, 2, 1)], hab2).theta, ()),
        # the recorded 3-d config: 13 824 spatial nodes
        (hab3, constant_rate(1.0), Theta([(1, 1, 1), (2, 1, 2)], hab3).theta, ()),
    ]


@pytest.mark.parametrize("case", range(3))
def test_survival_cumulative_matches_the_partial_panel_weights(case):
    hab, model, h, cuts = _cumulative_cases()[case]
    cumulative = SurvivalCumulative(hab, model, h, cuts)
    T = np.concatenate([np.linspace(0.0, 12.0, 241), np.random.default_rng(5).uniform(0.0, 12.0, 200)])
    got = cumulative(T)
    w = cumulative.width
    k = np.maximum(np.ceil(T / w) - 1, 0).astype(int)
    ages, weights = habitat.age_panels(w * np.arange(k.max() + 2))
    values = cumulative.slice(ages)
    totals = np.concatenate([[0.0], np.cumsum(np.sum(values * weights, axis=1))])
    partial = np.sum(values[k] * _old_partial_panel_weights(2.0 * (T / w - k) - 1.0), axis=-1)
    want = totals[k] + partial * (w / 2.0)
    # relative to the largest |C|: near T = 0, C is a few ulp of the
    # panel's own content
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("case", range(4))
def test_survival_cumulative_bits_hold_across_queries(case):
    hab, model, h, cuts = _cumulative_cases()[case]
    T = np.random.default_rng(6).uniform(0.0, 12.0, 300)
    once = SurvivalCumulative(hab, model, h, cuts)
    assert once(0.0) == 0.0 and once(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    got = once(T)
    # every scalar query gives its bits inside the array
    assert [once(t) for t in T[:40]] == got[:40].tolist()
    # panels built over many small extensions give the bits of one extension
    grown = SurvivalCumulative(hab, model, h, cuts)
    for top in np.linspace(0.01, 12.0, 50):
        grown(top)
    assert grown(T).tolist() == got.tolist()
    assert grown(0.0) == 0.0


@pytest.mark.parametrize("c", [0.1, 0.3, 0.7, 1.3])
def test_survival_cumulative_starts_at_exactly_zero(c):
    # the antiderivative's Clenshaw sum at a panel's left edge is a few ulp
    # off 0 for some of these integrands
    hab = uniform_habitat([(0.0, 1.0)], 2.0)
    for model in (constant_rate(0.6), separable_rate(hab, 0.5, 1.0, 2.0)):
        cumulative = SurvivalCumulative(hab, model, lambda x, u: np.cos(c * u) * (1.0 + x[..., 0]))
        assert cumulative(0.0) == 0.0
        assert cumulative(np.array([0.0, 0.5, 0.0]))[[0, 2]].tolist() == [0.0, 0.0]


def test_gauss_profile_nodes_cached(habitat_1d):
    first = gauss_profile_nodes(habitat_1d, breakpoints=(0.7, 0.3))
    again = gauss_profile_nodes(habitat_1d, breakpoints=[0.3, 0.7, 0.3])
    assert first[0] is again[0] and first[1] is again[1]
    assert not first[0].flags.writeable and not first[1].flags.writeable


@pytest.mark.parametrize("module", [habitat, generator, verify.fokker_planck_check, verify])
def test_engine_modules_use_no_adaptive_quadrature(module):
    # the survival engine and the generator run on fixed rules only, and the
    # verification checks import no scipy at all
    banned = {"scipy.integrate", "scipy.interpolate"}
    if module is verify or inspect.isfunction(module):
        banned.add("scipy")
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(module)))):
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
        else:
            continue
        names |= {name.split(".")[0] for name in names}
        assert not names & banned, names
    assert not {getattr(v, "__name__", None) for v in vars(module).values()} & banned
