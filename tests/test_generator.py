from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from agedpop import (
    ArrivalExponent,
    F_theta,
    FlowedTheta,
    MarkedConfiguration,
    PathBundle,
    Theta,
    apply_generator,
    compute_bounds,
    explicit_solution,
    flow,
    flow_pde_residual,
    flowed_log_F,
    kolmogorov_residual,
    resolvent,
    resolvent_identity_residual,
    separable_rate,
    transient_intensity,
    uniform_habitat,
)
from conftest import random_configuration


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


def test_flow_pde_richardson(theta_two, separable_model):
    x = np.linspace(0.05, 0.95, 7)[:, None]
    a = np.linspace(0.1, 2.0, 7)
    res = [
        np.max(np.abs(flow_pde_residual(theta_two, 0.6, x, a, separable_model, h=h)))
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.6)
    assert res[1] / res[2] == pytest.approx(4.0, abs=0.6)


# ------------------------------------------------------------ the generator
def _chi_quad(habitat, f, points):
    """int f dchi on a 1-d window by adaptive quadrature split at the kinks."""
    lo, hi = float(habitat.lower[0]), float(habitat.upper[0])
    cuts = sorted({float(p) for p in (*points, *habitat.density_breakpoints) if lo < p < hi})

    def integrand(x):
        pos = np.array([[x]])
        return float(f(pos)[0] * habitat.density(pos)[0])

    val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, limit=400, points=cuts or None)
    return val


def _definitional_generator(theta, config, habitat, model, h=1e-6):
    """L F from the raw definition: age drift + departure jumps + arrival jumps."""
    f0 = F_theta(theta, config)
    shifted = MarkedConfiguration(config.positions, config.ages + h)
    shifted_dn = MarkedConfiguration(config.positions, np.maximum(config.ages - h, 0.0))
    aging = (F_theta(theta, shifted) - F_theta(theta, shifted_dn)) / (2 * h)
    departure = 0.0
    for i in range(len(config)):
        rate = model.rate(config.positions[i], config.ages[i])
        departure += float(rate) * (F_theta(theta, config.without_index(i)) - f0)
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


def test_H_limit(theta_two, habitat_1d, const_model):
    exponent = ArrivalExponent(theta_two, habitat_1d, const_model)
    h_inf, bound = exponent.H_limit()
    assert bound == pytest.approx(habitat_1d.chi_mass * math.exp(-40.0), rel=1e-12)
    assert abs(_H_oracle(exponent, 80.0) - h_inf) <= bound + 1e-12


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
    bundle = PathBundle.from_configuration(config, n)
    bundle.transition(t, transient_intensity(habitat_1d, const_model, t), const_model, rng)
    f = bundle.f_theta(theta_two)
    se = f.std(ddof=1) / math.sqrt(n)
    assert abs(f.mean() - want) < 4 * se


def test_flowed_log_F_vectorized(theta_two, const_model, rng, habitat_1d):
    config = random_configuration(rng, habitat_1d, max_particles=4)
    times = np.array([0.0, 0.3, 1.1])
    vec = flowed_log_F(theta_two, config, const_model, times)
    for i, t in enumerate(times):
        flowed = flow(theta_two, t, const_model)
        direct = -float(np.sum(flowed.g(config.positions, config.ages))) if len(config) else 0.0
        assert vec[i] == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_kolmogorov_residual_small(theta_two, habitat_1d, separable_model, rng):
    for t in (0.3, 1.0):
        config = random_configuration(rng, habitat_1d, max_particles=4)
        res = kolmogorov_residual(theta_two, t, config, habitat_1d, separable_model)
        assert res < 1e-5


def test_kolmogorov_richardson(theta_two, habitat_1d, const_model):
    config = MarkedConfiguration(np.array([[0.45]]), np.array([0.7]))
    exponent = ArrivalExponent(theta_two, habitat_1d, const_model)
    r1 = kolmogorov_residual(theta_two, 0.5, config, habitat_1d, const_model, h=2e-3, exponent=exponent)
    r2 = kolmogorov_residual(theta_two, 0.5, config, habitat_1d, const_model, h=1e-3, exponent=exponent)
    assert r1 / r2 == pytest.approx(4.0, abs=1.0)


def test_resolvent_range_and_identity(theta_two, habitat_1d, const_model, rng):
    config = random_configuration(rng, habitat_1d, max_particles=3)
    exponent = ArrivalExponent(theta_two, habitat_1d, const_model)
    for lam in (0.5, 2.0):
        val = resolvent(theta_two, 0.0, lam, config, habitat_1d, const_model, exponent=exponent)
        assert 0.0 < val < 1.0 / lam
        res = resolvent_identity_residual(
            theta_two, 0.0, lam, config, habitat_1d, const_model, exponent=exponent
        )
        assert res < 1e-6
    with pytest.raises(ValueError):
        resolvent(theta_two, 0.0, -1.0, config, habitat_1d, const_model)


def test_resolvent_tail_bound(theta_two, habitat_1d, const_model, rng):
    config = random_configuration(rng, habitat_1d, max_particles=3)
    bounds = compute_bounds(theta_two, habitat_1d, const_model)
    for lam in (10.0, 100.0):
        val = resolvent(theta_two, 0.0, lam, config, habitat_1d, const_model)
        assert abs(lam * val - F_theta(theta_two, config)) <= bounds.ell_theta / lam


# ----------------------------------------------------------------- bounds
def test_compute_bounds_values(theta_two, habitat_1d, const_model):
    b = compute_bounds(theta_two, habitat_1d, const_model)
    assert b.j_count == 2
    assert b.cbar == pytest.approx(math.exp(-(2.0 ** (2.0 / 3.0)) / 3.0), rel=1e-12)
    assert b.cbar_theta == pytest.approx(b.cbar / (2 * b.j_count), rel=1e-12)
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
