from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from agedpop import (
    ArrivalExponent,
    DepartureModel,
    DiracLaw,
    ExplicitLaw,
    F_theta,
    FlowedTheta,
    MarkedConfiguration,
    PoissonLaw,
    Theta,
    apply_generator,
    compute_bounds,
    constant_rate,
    explicit_solution,
    flow,
    flow_pde_residual,
    kolmogorov_residual,
    resolvent,
    resolvent_identity_residual,
    separable_rate,
    stationary_intensity,
    transient_intensity,
    uniform_habitat,
)
from agedpop.generator import particle_terms
from agedpop.habitat import SurvivalCumulative, run_memo
from conftest import central_flow_residual, central_kolmogorov_residual, random_configuration, tiled_bundle


# ---------------------------------------------------------------- age flow
def test_flow_composition_exact(theta_two, const_model, rng):
    t, s = 0.37, 0.81
    once = flow(flow(theta_two, t, const_model), s)
    direct = flow(theta_two, t + s, const_model)
    x = rng.random((2000, 1))
    a = rng.exponential(1.0, 2000)
    np.testing.assert_allclose(once.theta(x, a), direct.theta(x, a), atol=1e-14)


def test_flow_composition_separable(theta_two, separable_model, rng):
    once = flow(flow(theta_two, 0.25, separable_model), 0.5)
    direct = flow(theta_two, 0.75, separable_model)
    x = rng.random((500, 1))
    a = rng.exponential(1.0, 500)
    np.testing.assert_allclose(once.theta(x, a), direct.theta(x, a), atol=1e-13)


def test_flow_zero_and_range(theta_two, const_model, rng):
    x = rng.random((300, 1))
    a = rng.exponential(1.0, 300)
    flowed = flow(theta_two, 0.9, const_model)
    th = flowed.theta(x, a)
    assert np.all(th <= 0.0) and np.all(th > -1.0)
    # |theta_t| = q_t |theta(., a+t)| <= e^{-m0 t}
    assert np.abs(th).max() <= math.exp(-const_model.m_zero * 0.9)


def test_flow_time_derivative(theta_two, separable_model, rng):
    flowed = flow(theta_two, 0.5, separable_model)
    x = rng.random((40, 1))
    a = rng.exponential(1.0, 40)
    h = 1e-5
    up = flow(theta_two, 0.5 + h, separable_model).theta(x, a)
    dn = flow(theta_two, 0.5 - h, separable_model).theta(x, a)
    np.testing.assert_allclose(flowed.time_derivative(x, a), (up - dn) / (2 * h), atol=1e-8)


@pytest.mark.parametrize("dim", [1, 2])
def test_flowed_g_is_g_at_time_zero(dim, rng):
    # the flowed exponent at t = 0 is the base exponent, bit for bit
    hab = uniform_habitat([(0.0, 1.0)] * dim, 2.0)
    theta = Theta([(1, 1, 1), (3, 2, 1), (2, 1, 2)], hab)
    x = rng.random((400, dim))
    a = rng.exponential(1.0, 400)
    for model in (separable_rate(hab, 0.5, 1.0, 2.0), constant_rate(1.3)):
        assert np.array_equal(FlowedTheta(theta, 0.0, model).g(x, a), theta.g(x, a))


def test_flowed_g_keeps_precision_near_minus_one(habitat_1d):
    # theta within 1e-13 of -1 and a survival chance within 1e-12 of 1:
    # 1 + q theta = (1 - q) + q e^-g is about 1e-12, which the form
    # -log1p(q theta) resolves only to about 1e-4 relative
    theta = Theta([(1, 1, 1)] * 60, habitat_1d)
    x, a, t = np.array([[0.5]]), np.array([0.0]), 1e-12
    g = float(theta.g(x, np.array([t]))[0])
    assert g > 29.0
    want = -math.log(-math.expm1(-t) + math.exp(-t - g))
    got = float(FlowedTheta(theta, t, constant_rate(1.0)).g(x, a)[0])
    assert got == pytest.approx(want, rel=1e-13)


def test_flowed_particle_terms_read_g_and_cumulative_twice(habitat_1d, separable_model, rng, monkeypatch):
    calls = {"g": 0, "cumulative": 0}

    def cumulative(x, alpha):
        calls["cumulative"] += 1
        return separable_model.cumulative(x, alpha)

    model = DepartureModel(
        separable_model.m_star, separable_model.m_zero, separable_model.rate, cumulative,
        separable_model.modulus,
    )
    theta = Theta([(1, 2, 1), (2, 3, 40)], habitat_1d)
    x, a, t = rng.random((9, 1)), rng.exponential(1.0, 9), 0.6
    # the product rule on theta_t = theta(x, a + t) q_t, then g_t' = -theta_t'/(1 + theta_t)
    shifted = a + t
    q = np.exp(separable_model.cumulative(x, a) - separable_model.cumulative(x, shifted))
    theta_t = theta.theta(x, shifted) * q
    dtheta = q * (
        -theta.g_age_derivative(x, shifted) * np.exp(-theta.g(x, shifted))
        + theta.theta(x, shifted) * (model.rate(x, a) - model.rate(x, shifted))
    )
    want = dtheta / (1.0 + theta_t) + model.rate(x, a) * np.expm1(-np.log1p(theta_t))
    original = Theta.g

    def counted(self, x, alpha):
        calls["g"] += 1
        return original(self, x, alpha)

    monkeypatch.setattr(Theta, "g", counted)
    calls.update(g=0, cumulative=0)
    _, phi = particle_terms(FlowedTheta(theta, t, model), model, x, a)
    assert calls["g"] <= 2 and calls["cumulative"] <= 2, calls
    np.testing.assert_allclose(phi, want, rtol=1e-13)


def test_flow_pde_richardson(theta_two, separable_model, monkeypatch):
    x = np.linspace(0.05, 0.95, 7)[:, None]
    a = np.linspace(0.1, 2.0, 7)
    res = [
        np.max(central_flow_residual(theta_two, 0.6, x, a, separable_model, h=h))
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.6)
    assert res[1] / res[2] == pytest.approx(4.0, abs=0.6)
    # the integral form holds to rounding, and a time derivative 1e-8 off
    # breaks it
    assert np.max(flow_pde_residual(theta_two, 0.4, 0.8, x, a, separable_model)) < 1e-14
    original = FlowedTheta.time_derivative
    monkeypatch.setattr(
        FlowedTheta, "time_derivative", lambda self, x, a: original(self, x, a) * (1.0 + 1e-8)
    )
    assert np.max(flow_pde_residual(theta_two, 0.4, 0.8, x, a, separable_model)) > 1e-10


# ------------------------------------------------------------ the generator
def _chi_quad(habitat, f, points):
    """int f dchi on a 1-d window by adaptive quadrature split at the kinks."""
    lo, hi = float(habitat.lower[0]), float(habitat.upper[0])
    cuts = sorted({float(p) for p in points if lo < p < hi})

    def integrand(x):
        pos = np.array([[x]])
        return float(f(pos)[0] * habitat.density(pos)[0])

    val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, limit=400, points=cuts or None)
    return val


def _without_index(config, i):
    keep = np.arange(len(config)) != i
    return MarkedConfiguration(config.positions[keep], config.ages[keep])


def _definitional_generator(theta, config, habitat, model, h=1e-6):
    """L F from the raw definition: age drift + departure jumps + arrival jumps."""
    f0 = F_theta(theta, config)
    shifted = MarkedConfiguration(config.positions, config.ages + h)
    shifted_dn = MarkedConfiguration(config.positions, np.maximum(config.ages - h, 0.0))
    aging = (F_theta(theta, shifted) - F_theta(theta, shifted_dn)) / (2 * h)
    departure = 0.0
    for i in range(len(config)):
        rate = model.rate(config.positions[i], config.ages[i])
        departure += float(rate) * (F_theta(theta, _without_index(config, i)) - f0)
    arrival = _chi_quad(
        habitat, lambda x: f0 * theta.theta(x, np.zeros(x.shape[:-1])), theta.x_breakpoints
    )
    return aging + departure + arrival


def test_apply_generator_definitional_oracle(theta_two, habitat_1d, const_model, rng):
    for _ in range(5):
        config = random_configuration(rng, habitat_1d, max_particles=4)
        if not len(config):
            continue
        config = MarkedConfiguration(config.positions, config.ages + 0.01)
        got = apply_generator(theta_two, config, habitat_1d, const_model)
        want = _definitional_generator(theta_two, config, habitat_1d, const_model)
        assert got == pytest.approx(want, abs=5e-7)


def test_apply_generator_separable(theta_two, habitat_1d, separable_model, rng):
    config = MarkedConfiguration(np.array([[0.3], [0.65]]), np.array([0.5, 1.4]))
    got = apply_generator(theta_two, config, habitat_1d, separable_model)
    want = _definitional_generator(theta_two, config, habitat_1d, separable_model)
    assert got == pytest.approx(want, abs=5e-7)


def test_generator_on_empty(theta_two, habitat_1d, const_model):
    got = apply_generator(theta_two, MarkedConfiguration.empty(1), habitat_1d, const_model)
    want = _chi_quad(
        habitat_1d, lambda x: theta_two.theta(x, np.zeros(x.shape[:-1])), theta_two.x_breakpoints
    )
    assert got == pytest.approx(want, rel=1e-9)


# ------------------------------------------------------- arrival exponent
def test_psi_oracle(theta_two, habitat_1d, const_model):
    exponent = ArrivalExponent(theta_two, habitat_1d, const_model)
    for u in (0.0, 0.4, 1.7):
        direct = _chi_quad(
            habitat_1d,
            lambda x: theta_two.theta(x, np.full(x.shape[:-1], u)) * math.exp(-u),
            theta_two.x_breakpoints,
        )
        assert exponent.psi(u) == pytest.approx(direct, abs=1e-10)
        assert exponent.psi(u) <= 0.0


def _H_oracle(exponent, T):
    """int_0^T psi by adaptive quadrature, independent of the age panels."""
    val, _ = integrate.quad(exponent.psi, 0.0, T, epsabs=1e-13, limit=400)
    return val


def test_H_routes_agree(theta_two, habitat_1d, separable_model):
    exponent = ArrivalExponent(theta_two, habitat_1d, separable_model)
    assert exponent.H(0.0) == 0.0
    for T in (0.3, 1.0, 2.7, 6.0):
        assert exponent.H(T) == pytest.approx(_H_oracle(exponent, T), abs=5e-9)
    # H decreasing (psi <= 0)
    Ts = np.array([0.5, 1.0, 2.0, 4.0])
    vals = exponent.H(Ts)
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    # one vectorized call equals scalar calls
    assert list(vals) == [exponent.H(T) for T in Ts]


def test_stationary_law_is_the_limit_of_H(theta_two, habitat_1d, const_model):
    # pi(F_theta) = exp(H(infinity)), short of it by the intensity's age window
    exponent = ArrivalExponent(theta_two, habitat_1d, const_model)
    intensity = stationary_intensity(habitat_1d, const_model)
    bound = intensity.truncation_error
    assert bound == pytest.approx(habitat_1d.chi_mass * math.exp(-40.0), rel=1e-12)
    log_pi = math.log(PoissonLaw(intensity).expect_F(theta_two))
    assert abs(_H_oracle(exponent, 80.0) - log_pi) <= bound + 1e-12


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["constant", "separable"])
def test_poisson_window_integrals_take_both_ends_in_one_call(dim, family):
    # one SurvivalCumulative call over the upper and lower ends of every
    # window has the bits of one call per end
    habitat = uniform_habitat([(0.0, 1.0)] * (dim - 1) + [(0.0, 2.0)], 1.5)
    model = constant_rate(0.8) if family == "constant" else separable_rate(habitat, 0.5, 1.0, 2.0)
    theta = Theta([(1, 1, 1), (3, 2, 1)], habitat)
    lo = np.array([0.0, 0.25, 1.0, 3.5, 10.0])
    for intensity in (stationary_intensity(habitat, model), transient_intensity(habitat, model, 1.5)):
        for h in (theta.theta, lambda x, a: 1.0 + np.cos(a) * theta.theta(x, a)):
            fresh, cumulative = (
                SurvivalCumulative(habitat, model, h, theta.x_breakpoints, age_scale=theta.age_scale)
                for _ in range(2)
            )
            got = PoissonLaw(intensity)._window_integrals(fresh, lo)
            assert np.array_equal(got, cumulative(lo + intensity.age_upper) - cumulative(lo))


# ------------------------------------------------- explicit solution et al.
def test_explicit_solution_at_zero(theta_two, habitat_1d, const_model, rng):
    config = random_configuration(rng, habitat_1d, max_particles=3)
    got = explicit_solution(theta_two, 0.0, 0.0, config, habitat_1d, const_model)
    assert got == pytest.approx(F_theta(theta_two, config), rel=1e-12)


def test_explicit_solution_vs_monte_carlo(theta_two, habitat_1d, const_model, rng):
    config = MarkedConfiguration(np.array([[0.35], [0.6]]), np.array([0.2, 1.0]))
    t = 0.8
    want = explicit_solution(theta_two, 0.0, t, config, habitat_1d, const_model)
    n = 40_000
    bundle = tiled_bundle(config, n)
    bundle.transition(t, transient_intensity(habitat_1d, const_model, t), const_model, rng)
    f = bundle.f_theta(theta_two)
    se = f.std(ddof=1) / math.sqrt(n)
    assert abs(f.mean() - want) < 4 * se


def test_apply_generator_over_flow_times(theta_two, habitat_1d, separable_model):
    config = MarkedConfiguration(np.array([[0.3], [0.65], [0.8]]), np.array([0.5, 1.4, 0.1]))
    times = np.array([0.0, 0.2, 0.9, 2.5])
    many = apply_generator(FlowedTheta(theta_two, times, separable_model), config, habitat_1d, separable_model)
    for t, value in zip(times, many):
        one = apply_generator(FlowedTheta(theta_two, t, separable_model), config, habitat_1d, separable_model)
        assert value == pytest.approx(one, rel=1e-14, abs=1e-15)
    # on the empty configuration only the arrival constant psi(t) is left
    empty = MarkedConfiguration.empty(1)
    psi = ArrivalExponent(theta_two, habitat_1d, separable_model).psi(times)
    flowed = FlowedTheta(theta_two, times, separable_model)
    assert np.array_equal(apply_generator(flowed, empty, habitat_1d, separable_model), psi)
    plain = apply_generator(theta_two, empty, habitat_1d, separable_model)
    assert plain == ArrivalExponent(theta_two, habitat_1d, separable_model).psi(0.0)


def test_aged_dirac_law_is_F_of_the_flowed_theta(theta_two, const_model, rng, habitat_1d):
    config = random_configuration(rng, habitat_1d, max_particles=4)
    times = np.array([0.0, 0.3, 1.1])
    vec, _ = DiracLaw(config).aged_expectations(times, const_model, theta_two)
    for i, t in enumerate(times):
        flowed = flow(theta_two, t, const_model)
        direct = -float(np.sum(flowed.g(config.positions, config.ages))) if len(config) else 0.0
        assert math.log(vec[i]) == pytest.approx(direct, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_explicit_solution_is_the_point_mass_law(dim, habitat_1d, habitat_2d, rng):
    hab = habitat_1d if dim == 1 else habitat_2d
    model = separable_rate(hab, 0.5, 1.0, 2.0)
    theta = Theta([(1, 1, 1), (3, 2, 1)], hab)
    config = random_configuration(rng, hab, max_particles=4)
    config = MarkedConfiguration(np.vstack([config.positions, hab.midpoint]), np.append(config.ages, 0.7))
    times = np.linspace(0.0, 3.0, 13)
    law = ExplicitLaw(DiracLaw(config), theta, hab, model)
    want = law.expect_F(times)
    got = [explicit_solution(theta, 0.0, t, config, hab, model) for t in times]
    assert got == list(want)


def test_kolmogorov_residual_small(theta_two, habitat_1d, separable_model, rng):
    for t in (0.3, 1.0):
        config = random_configuration(rng, habitat_1d, max_particles=4)
        res = kolmogorov_residual(theta_two, t, t + 0.5, config, habitat_1d, separable_model)
        assert res < 1e-12


def test_kolmogorov_richardson(theta_two, habitat_1d, const_model):
    config = MarkedConfiguration(np.array([[0.45]]), np.array([0.7]))
    with run_memo():
        r1 = central_kolmogorov_residual(theta_two, 0.5, config, habitat_1d, const_model, 2e-3)
        r2 = central_kolmogorov_residual(theta_two, 0.5, config, habitat_1d, const_model, 1e-3)
    assert r1 / r2 == pytest.approx(4.0, abs=1.0)


def test_resolvent_range_and_identity(theta_two, habitat_1d, const_model, rng):
    config = random_configuration(rng, habitat_1d, max_particles=3)
    with run_memo():
        for lam in (0.5, 2.0):
            val = resolvent(theta_two, lam, config, habitat_1d, const_model)
            assert 0.0 < val < 1.0 / lam
            res = resolvent_identity_residual(theta_two, lam, config, habitat_1d, const_model)
            assert res < 1e-6
    with pytest.raises(ValueError):
        resolvent(theta_two, -1.0, config, habitat_1d, const_model)


def test_resolvent_tail_bound(theta_two, habitat_1d, const_model, rng):
    config = random_configuration(rng, habitat_1d, max_particles=3)
    bounds = compute_bounds(theta_two, habitat_1d, const_model)
    for lam in (10.0, 100.0):
        val = resolvent(theta_two, lam, config, habitat_1d, const_model)
        assert abs(lam * val - F_theta(theta_two, config)) <= bounds.ell_theta / lam


# ----------------------------------------------------------------- bounds
def test_compute_bounds_values(theta_two, habitat_1d, const_model):
    b = compute_bounds(theta_two, habitat_1d, const_model)
    assert b.j_count == 2
    assert b.cbar == pytest.approx(math.exp(-(2.0 ** (2.0 / 3.0)) / 3.0), rel=1e-12)
    assert b.tau_star == pytest.approx(1.0 / (const_model.m_star * math.e**2), rel=1e-12)
    assert b.chi_g_zero > 0.0
    assert b.chi_abs_theta_zero > 0.0
    assert b.est_bound > 0.0
    assert b.ell_theta > b.est_bound  # the flowed bound dominates the static one


def test_compute_bounds_2d_evaluates_g_on_arrays(monkeypatch):
    # both chi-integrals are one weighted sum, not one g call per point
    hab = uniform_habitat([(0.0, 1.0), (0.0, 1.0)], 3.0)
    theta = Theta([(1, 1, 1), (3, 2, 1)], hab)
    calls = []
    g = Theta.g

    def counted(self, x, alpha):
        calls.append(1)
        return g(self, x, alpha)

    monkeypatch.setattr(Theta, "g", counted)
    b = compute_bounds(theta, hab, separable_rate(hab, 0.5, 1.0, 2.0))
    assert len(calls) <= 10
    assert b.chi_g_zero > 0.0 and b.est_bound > 0.0


def test_compute_bounds_checks_off_the_diagonal():
    # a g that rises with age only away from x_0 = x_1 breaks the age bound
    # g(x, alpha) <= g(x, 0) at no point of the window's diagonal
    hab = uniform_habitat([(0.0, 1.0), (0.0, 1.0)], 3.0)
    base = Theta([(1, 1, 1), (3, 2, 1)], hab)
    model = constant_rate(1.0)

    class OffDiagonal:
        def __getattr__(self, name):
            return getattr(base, name)

        def g(self, x, alpha):
            off = np.abs(x[..., 0] - x[..., 1]) > 0.1
            return base.g(x, alpha) + 0.01 * (off & (np.asarray(alpha) > 0))

    compute_bounds(base, hab, model)
    with pytest.raises(AssertionError, match="age bound"):
        compute_bounds(OffDiagonal(), hab, model)


def test_bounds_cover_sampled_generator(theta_two, habitat_1d, const_model, rng):
    b = compute_bounds(theta_two, habitat_1d, const_model)
    worst = 0.0
    for _ in range(200):
        config = random_configuration(rng, habitat_1d, max_particles=6, age_scale=2.0)
        worst = max(worst, abs(apply_generator(theta_two, config, habitat_1d, const_model)))
    assert worst <= b.est_bound


def test_zero_rate_model(theta_two, habitat_1d):
    from agedpop import constant_rate

    frozen = constant_rate(0.0)
    b = compute_bounds(theta_two, habitat_1d, frozen)
    assert b.tau_star == math.inf


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_flowed_g_and_derivative_is_one_base_pass_with_the_bits_of_separate_passes(dim, rng, monkeypatch):
    # (g_t, g_t') of a flowed test function from one rung pass of the base
    # and one cumulative call, with the bits of g_t and of g_t' spelled from a
    # separate base g, base g' and log_survival; at a scalar flow time and at
    # an array of them, with a sigma = 0 term among the base's
    from agedpop.config_space import Plateaus
    from agedpop.generator import flowed_exponent
    from agedpop.habitat import log_survival

    habitat = uniform_habitat([(0.0, 1.0), (0.0, 2.0), (-0.5, 1.0)][:dim], 2.0)
    exact = separable_rate(habitat, 0.5, 1.0, 2.0)
    calls = {"plateaus": 0, "cumulative": 0}

    def cumulative(x, alpha):
        calls["cumulative"] += 1
        return exact.cumulative(x, alpha)

    model = DepartureModel(exact.m_star, exact.m_zero, exact.rate, cumulative, exact.modulus)
    theta = Theta([(1, 1, 1), (3, 2, 1), (2, 3, 4)], habitat)
    span = habitat.upper - habitat.lower
    original = Plateaus.__call__

    def counted(self, x):
        calls["plateaus"] += 1
        return original(self, x)

    monkeypatch.setattr(Plateaus, "__call__", counted)
    x = habitat.lower + rng.random((25, 1, dim)) * span
    a = rng.exponential(1.0, (25, 1))
    for t in (0.6, np.array([0.0, 0.3, 1.7])):
        flowed = FlowedTheta(theta, t, model)
        calls.update(plateaus=0, cumulative=0)
        g_t, slope = flowed.g_and_derivative(x, a)
        assert calls == {"plateaus": 1, "cumulative": 1}
        shifted = a + t
        g = theta.g(x, shifted)
        log_q = log_survival(model, x, a, t)
        inner = theta.g_age_derivative(x, shifted) * np.exp(-g) + np.expm1(-g) * (
            model.rate(x, shifted) - model.rate(x, a)
        )
        want_g = flowed.g(x, a)
        want_slope = np.exp(log_q + flowed_exponent(g, log_q)) * inner
        np.testing.assert_array_equal(g_t, want_g)
        np.testing.assert_array_equal(slope, want_slope)
        want_time = -want_slope * np.exp(-want_g) - model.rate(x, a) * np.expm1(-want_g)
        np.testing.assert_array_equal(flowed.time_derivative(x, a), want_time)
        g_p, phi = particle_terms(flowed, model, x, a)
        np.testing.assert_array_equal(g_p, want_g)
        np.testing.assert_array_equal(phi, -want_slope + model.rate(x, a) * np.expm1(want_g))


def test_run_memo_shares_the_closed_forms_of_one_run_and_nothing_else(
    theta_two, habitat_1d, const_model, monkeypatch
):
    from agedpop import generator

    built = []

    class Counted(generator.SurvivalCumulative):
        def __init__(self, *args, **kwargs):
            built.append(args[2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(generator, "SurvivalCumulative", Counted)

    def closed_forms():
        intensity = stationary_intensity(habitat_1d, const_model)
        exponent = ArrivalExponent(theta_two, habitat_1d, const_model)
        pi_value = PoissonLaw(intensity).expect_F(theta_two)
        return intensity, exponent._cumulative, pi_value

    # outside a run every call builds afresh
    first, second = closed_forms(), closed_forms()
    assert first[0] is not second[0] and first[1] is not second[1]
    assert len(built) == 4
    with run_memo():
        built.clear()
        inside = closed_forms()
        # one cumulative of theta serves H and the F window of the invariant law
        assert built == [theta_two.theta]
        again = closed_forms()
        assert again[0] is inside[0] and again[1] is inside[1] and len(built) == 1
        # another theta, habitat or model is another key
        other = Theta(theta_two.terms, habitat_1d)
        assert ArrivalExponent(other, habitat_1d, const_model)._cumulative is not inside[1]
        assert stationary_intensity(habitat_1d, constant_rate(const_model.m_star)) is not inside[0]
    # the shared cumulative was extended in another order, with the same bits
    assert inside[2] == first[2] == again[2]
    assert closed_forms()[0] is not inside[0]
    with run_memo():
        outer = closed_forms()
        assert outer[1] is not inside[1]
        # a block inside another shares its caller's objects, and closing it drops none
        with run_memo():
            assert closed_forms()[1] is outer[1]
        assert closed_forms()[1] is outer[1]
    # each residual opens a block: one cumulative of theta serves all its H
    # values, and kolmogorov_residual adds ExplicitLaw's weighted arrivals
    config = MarkedConfiguration(np.array([[0.3], [0.7]]), np.array([0.2, 1.0]))
    rate = constant_rate(0.6)
    for residual, cumulatives in [
        (lambda: resolvent_identity_residual(theta_two, 1.0, config, habitat_1d, rate), 1),
        (lambda: kolmogorov_residual(theta_two, 0.0, 0.5, config, habitat_1d, rate), 2),
    ]:
        built.clear()
        alone = residual()
        assert len(built) == cumulatives
        with run_memo():
            assert residual() == alone
