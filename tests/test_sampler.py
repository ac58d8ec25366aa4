from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from scipy import integrate, stats

from agedpop import sampler
from agedpop.habitat import _BLOCK, age_panel_width
from agedpop.mark_space import u_basis
from agedpop.verify import survival_weighted_integral
from agedpop import (
    DepartureModel,
    MarkedConfiguration,
    PathBundle,
    PoissonLaw,
    Theta,
    constant_rate,
    event_driven_simulate,
    linear_habitat,
    sample_poisson,
    sample_trajectory_marginals,
    separable_rate,
    stationary_intensity,
    survival_factor,
    transient_intensity,
    uniform_habitat,
)
from conftest import quadrature_cumulative


# -------------------------------------------------------------- intensities
def test_transient_mass_closed_form(habitat_1d, const_model):
    for t in (0.25, 1.5, 5.0):
        intensity = transient_intensity(habitat_1d, const_model, t)
        want = habitat_1d.chi_mass * (-math.expm1(-t))
        assert intensity.total_mass == pytest.approx(want, rel=1e-9)
        assert intensity.age_upper == t


def test_transient_mass_separable(habitat_1d, separable_model):
    t = 1.2
    intensity = transient_intensity(habitat_1d, separable_model, t)

    def integrand(a, x):
        pt = np.array([[x]])
        M = separable_model.cumulative(pt, np.array([a]))[0]
        return 2.0 * math.exp(-M)

    want, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, t, epsabs=1e-10)
    assert intensity.total_mass == pytest.approx(want, rel=1e-8)


def test_stationary_mass_and_truncation(habitat_1d, const_model):
    intensity = stationary_intensity(habitat_1d, const_model)
    assert intensity.age_upper == pytest.approx(40.0)
    want = habitat_1d.chi_mass * (-math.expm1(-40.0))
    assert intensity.total_mass == pytest.approx(want, rel=1e-9)
    assert intensity.truncation_error == pytest.approx(
        habitat_1d.chi_mass * math.exp(-40.0), rel=1e-12
    )


def test_stationary_requires_floor(habitat_1d):
    with pytest.raises(ValueError):
        stationary_intensity(habitat_1d, constant_rate(0.0))


def test_theta_integral_against_quadrature(habitat_1d, const_model, theta_two):
    intensity = transient_intensity(habitat_1d, const_model, 2.0)

    def integrand(a, x):
        pt = np.array([[x]])
        return theta_two.theta(pt, np.array([a]))[0] * 2.0 * math.exp(-a)

    want, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 2.0, epsabs=1e-11)
    # exp(int theta d rho) is PoissonLaw.expect_F; compare its logarithm
    assert math.log(PoissonLaw(intensity).expect_F(theta_two)) == pytest.approx(want, abs=1e-8)


# ----------------------------------------------------------------- sampling
def test_sample_poisson_counts_and_ages(habitat_1d, const_model, rng):
    intensity = stationary_intensity(habitat_1d, const_model)
    n = 3000
    counts = np.empty(n, dtype=int)
    ages = []
    for i in range(n):
        draw = sample_poisson(intensity, rng)
        counts[i] = len(draw)
        ages.extend(draw.ages)
    lam = intensity.total_mass
    assert abs(counts.mean() - lam) < 4 * math.sqrt(lam / n)
    assert abs(counts.var(ddof=1) - lam) < 5 * lam / math.sqrt(n)
    ages = np.asarray(ages)
    cdf = lambda a: -np.expm1(-a) / -math.expm1(-40.0)
    assert stats.kstest(ages, cdf).statistic < 1.63 / math.sqrt(ages.size)


def test_sample_positions_linear_profile(const_model, rng):
    hab = linear_habitat([(0.0, 1.0)], 1.0, 2.0)
    intensity = transient_intensity(hab, const_model, 1.0)
    bundle = PathBundle(4000, 1)
    bundle.add_poisson(intensity, rng)
    xs = bundle.positions[:, 0]
    assert stats.kstest(xs, lambda x: (x + x**2) / 2.0).statistic < 1.63 / math.sqrt(xs.size)


def test_thin_and_age_exact(habitat_1d, const_model, rng):
    config = MarkedConfiguration(np.array([[0.4]]), np.array([0.7]))
    t = 0.9
    n = 20_000
    bundle = PathBundle.from_configuration(config, n)
    bundle.thin_and_age(t, const_model, rng)
    survived = int(np.count_nonzero(bundle.counts()))
    np.testing.assert_allclose(bundle.ages, 0.7 + t)
    p = math.exp(-t)
    assert abs(survived / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def _squeeze_case(name):
    """(model, bundle) of one thinning case: 20k particles, ages uniform up to a_max."""
    hab1 = uniform_habitat([(0.0, 1.0)], 2.0)
    hab2 = uniform_habitat([(0.0, 1.0), (0.0, 1.0)], 3.0)
    sep2 = separable_rate(hab2, 0.5, 1.0, 2.0)
    hab, model, a_max = {
        "separable-1d": (hab1, separable_rate(hab1, 0.5, 1.0, 2.0), 10.0),
        "separable-2d": (hab2, sep2, 10.0),
        "numeric-2d": (hab2, quadrature_cumulative(sep2), 10.0),
        "constant": (hab1, constant_rate(0.8), 10.0),
        "stationary-ages": (hab2, separable_rate(hab2, 0.05, 1.0, 2.0), 40.0 / 0.05),
    }[name]
    rng = np.random.default_rng(31)
    n = 20_000
    ages = rng.uniform(0.0, a_max, n)
    ages[:2] = 0.0, a_max
    bundle = PathBundle(
        500, hab.dim, np.sort(rng.integers(0, 500, n)),
        hab.lower + rng.random((n, hab.dim)) * (hab.upper - hab.lower), ages,
    )
    return model, bundle


@pytest.mark.parametrize(
    "case", ["separable-1d", "separable-2d", "numeric-2d", "constant", "stationary-ages"]
)
@pytest.mark.parametrize("dt", [0.25, 0.5])
def test_squeezed_thinning_decides_as_the_full_rule(case, dt):
    # the same uniforms, held against q for every particle, keep the same
    # particles as the squeeze that computes q only inside its band
    model, bundle = _squeeze_case(case)
    rng = np.random.default_rng(5)
    twin = copy.deepcopy(rng)
    keep = twin.random(bundle.ages.size) < survival_factor(model, bundle.positions, bundle.ages, dt)
    want = bundle.path_ids[keep], bundle.positions[keep], bundle.ages[keep] + dt
    bundle.thin_and_age(dt, model, rng)
    for got, expected in zip((bundle.path_ids, bundle.positions, bundle.ages), want):
        np.testing.assert_array_equal(got, expected)
    assert 0 < keep.sum() < keep.size
    assert rng.random() == twin.random()


@pytest.mark.parametrize("rate", [0.1, 2.0])
def test_thinning_rejects_hazard_outside_its_bounds(rate):
    # a hazard declared in [0.5, 1] that is the constant `rate` puts every
    # survival chance outside [exp(-dt), exp(-dt/2)]
    liar = constant_rate(rate)
    bad = DepartureModel(m_star=1.0, m_zero=0.5, rate=liar.rate, cumulative=liar.cumulative)
    config = MarkedConfiguration(np.array([[0.4]]), np.array([0.7]))
    bundle = PathBundle.from_configuration(config, 1000)
    with pytest.raises(ValueError, match="m_star"):
        bundle.thin_and_age(0.25, bad, np.random.default_rng(6))


def test_squeezed_thinning_evaluates_the_band_only():
    # on the oneshot config (2-d, density 3, separable 0.5/1/2) at dt = 0.25
    # the band [exp(-1.5 dt), exp(-0.5 dt)) holds about a fifth of the uniforms
    hab = uniform_habitat([(0.0, 1.0), (0.0, 1.0)], 3.0)
    model = separable_rate(hab, 0.5, 1.0, 2.0)
    seen = []

    def cumulative(x, alpha):
        seen.append(np.shape(alpha)[0])
        return model.cumulative(x, alpha)

    counted = DepartureModel(model.m_star, model.m_zero, model.rate, cumulative, model.modulus)
    bundle = PathBundle(2000, 2)
    bundle.add_poisson(stationary_intensity(hab, model), np.random.default_rng(9))
    n = bundle.ages.size
    bundle.thin_and_age(0.25, counted, np.random.default_rng(10))
    assert len(seen) == 1
    assert 0 < seen[0] < 0.5 * n


def test_transition_step_mean_count(habitat_1d, const_model, rng):
    config = MarkedConfiguration(np.array([[0.2], [0.8]]), np.array([0.1, 2.0]))
    t = 0.6
    n = 5000
    bundle = PathBundle.from_configuration(config, n)
    bundle.transition(t, transient_intensity(habitat_1d, const_model, t), const_model, rng)
    counts = bundle.counts()
    want = 2 * math.exp(-t) + habitat_1d.chi_mass * (-math.expm1(-t))
    var = 2 * math.exp(-t) * (1 - math.exp(-t)) + habitat_1d.chi_mass * (-math.expm1(-t))
    assert abs(counts.mean() - want) < 4 * math.sqrt(var / n)


def test_strip_sampler_rejects_hazard_below_m_zero(habitat_1d):
    # hazard 0.5 declared with floor 1: exp(-M) rises above the envelopes
    # exp(-m_zero * left edge) of the strips after the first
    slow = constant_rate(0.5)
    bad = DepartureModel(m_star=1.0, m_zero=1.0, rate=slow.rate, cumulative=slow.cumulative)
    intensity = transient_intensity(habitat_1d, bad, 5.0)
    with pytest.raises(ValueError, match="envelope"):
        PathBundle(1000, 1).add_poisson(intensity, np.random.default_rng(6))


def test_strip_sampler_checks_the_envelope_in_a_late_strip(habitat_1d):
    # the hazard keeps its declared floor 1 up to age 2 and drops to 0.1
    # after it, so exp(-M) rises above the envelope exp(-m_zero a) only in
    # the strips [a, b) with a >= 3
    def cumulative(x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return np.where(alpha < 2.0, alpha, 2.0 + 0.1 * (alpha - 2.0)) + 0.0 * np.asarray(x)[..., 0]

    def rate(x, alpha):
        return np.where(np.asarray(alpha) < 2.0, 1.0, 0.1) + 0.0 * np.asarray(x)[..., 0]

    bad = DepartureModel(m_star=1.0, m_zero=1.0, rate=rate, cumulative=cumulative)
    intensity = stationary_intensity(habitat_1d, bad, a_max=10.0)
    late = intensity.strip_edges[:-1] >= 3.0
    assert intensity.strip_masses[late].sum() > 0.3 * intensity.total_mass
    with pytest.raises(ValueError, match="envelope"):
        sampler._sample_points(intensity, 2000, np.random.default_rng(3))


def test_strip_masses_on_the_age_rule():
    # each strip is one panel of the age rule, so at age frequency 50 its
    # mass is the rule's value over the strip (1e-3 off with 4/3-wide strips)
    hab = uniform_habitat([(0.0, 1.0)], 2.0)
    model = separable_rate(hab, 0.5, 1.0, 50.0)
    intensity = stationary_intensity(hab, model)
    edges = intensity.strip_edges
    assert np.diff(edges).max() <= min(1.0 / model.m_star, age_panel_width(model)) * (1 + 1e-12)
    one = lambda x, u: 1.0  # noqa: E731
    want = [survival_weighted_integral(hab, model, one, a, b) for a, b in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(intensity.strip_masses, want, rtol=1e-12, atol=0.0)


def test_strip_sampler_rounds_cover_every_strip(habitat_1d, separable_model, monkeypatch):
    # one chi_sample per rejection round, none per strip, and no round
    # proposes more than _BLOCK points
    intensity = stationary_intensity(habitat_1d, separable_model)
    assert intensity.strip_masses.size >= 100
    sizes = []
    real = sampler.chi_sample

    def counted(habitat, rng, size=None):
        sizes.append(size)
        return real(habitat, rng, size=size)

    monkeypatch.setattr(sampler, "chi_sample", counted)
    pos, ages = sampler._sample_points(intensity, 5000, np.random.default_rng(1))
    assert pos.shape == (5000, 1) and ages.shape == (5000,)
    assert len(sizes) <= 2
    sizes.clear()
    sampler._sample_points(intensity, 3 * _BLOCK, np.random.default_rng(2))
    assert max(sizes) <= _BLOCK and len(sizes) <= 6


class _SteepTheta:
    """g = 2 v_1(x) exp(-93.75 u_10(alpha)): the terms (1, 5, 10) twice on a
    ladder 100 (1 - 2**(1-k)), so steeper in age than any rung of the
    package's ladder, which stays below 1.
    """

    age_scale = 93.75**-0.5

    def __init__(self, habitat):
        self._flat = Theta([(1, 1, 1)], habitat)  # g = v_1(x), since sigma_1 = 0
        self.x_breakpoints = self._flat.x_breakpoints

    def g(self, x, alpha):
        return 2.0 * self._flat.g(x, alpha) * np.exp(-93.75 * u_basis(10, alpha))

    def theta(self, x, alpha):
        return np.expm1(-self.g(x, alpha))


def test_bundle_paths_get_iid_points(habitat_1d, const_model):
    # add_poisson hands consecutive blocks of the sample to consecutive
    # paths, so the sample must come out in random order: with the strips in
    # age order each path's ages cluster and the mean of F_theta over paths
    # moves about 10 standard errors for a steeply age-dependent theta
    intensity = stationary_intensity(habitat_1d, const_model)
    theta = _SteepTheta(habitat_1d)
    bundle = PathBundle(20_000, 1)
    bundle.add_poisson(intensity, np.random.default_rng(12))
    f = bundle.f_theta(theta)
    want = PoissonLaw(intensity).expect_F(theta)
    assert abs(f.mean() - want) < 4.0 * f.std(ddof=1) / math.sqrt(f.size)
    has = bundle.counts() > 0
    mean_age = bundle.sum_by_path(bundle.ages)[has] / bundle.counts()[has]
    assert abs(np.corrcoef(np.flatnonzero(has), mean_age)[0, 1]) < 0.05


# -------------------------------------------------------------- path bundle
def test_bundle_reductions(habitat_1d, theta_two, rng):
    config = MarkedConfiguration(np.array([[0.3], [0.7]]), np.array([1.0, 0.5]))
    bundle = PathBundle.from_configuration(config, 3)
    assert bundle.counts().tolist() == [2, 2, 2]
    vals = np.arange(6, dtype=float)
    np.testing.assert_allclose(bundle.sum_by_path(vals), [1.0, 5.0, 9.0])
    f = bundle.f_theta(theta_two)
    from agedpop import F_theta

    expected = F_theta(theta_two, config)
    np.testing.assert_allclose(f, expected)
    np.testing.assert_allclose(bundle.positions[bundle.path_ids == 1], config.positions)


def test_bundle_transition_matches_scalar_sampler(habitat_1d, const_model, rng):
    config = MarkedConfiguration(np.array([[0.5]]), np.array([0.3]))
    t = 0.7
    n = 4000
    bundle = PathBundle.from_configuration(config, n)
    bundle.transition(t, transient_intensity(habitat_1d, const_model, t), const_model, rng)
    counts = bundle.counts()
    want = math.exp(-t) + habitat_1d.chi_mass * (-math.expm1(-t))
    var = math.exp(-t) * (1 - math.exp(-t)) + habitat_1d.chi_mass * (-math.expm1(-t))
    assert abs(counts.mean() - want) < 4 * math.sqrt(var / n)
    # ages of survivors shifted exactly
    kept = bundle.ages[np.isclose(bundle.ages, 0.3 + t)]
    assert kept.size > 0


# ------------------------------------------------------------- event driven
def test_event_trajectory_invariants(habitat_1d, separable_model, rng):
    start = MarkedConfiguration(np.array([[0.4], [0.9]]), np.array([0.0, 3.0]))
    horizon = 4.0
    traj = event_driven_simulate(start, horizon, habitat_1d, separable_model, rng, n_paths=20)
    assert traj.horizon == horizon
    events = traj.events
    assert np.all((0.0 <= events["time"]) & (events["time"] <= horizon))
    assert set(events["kind"].tolist()) <= {"arrival", "departure"}
    died = np.isfinite(traj.deaths)
    assert np.all(traj.deaths[died] > traj.births[died])
    # state replay: initial particles plus arrivals minus departures up to t
    for t in (0.0, 1.7, horizon):
        state = traj.state_at(t)
        seen = events[events["time"] <= t]
        step = np.where(seen["kind"] == "arrival", 1, -1)
        alive = len(start) + np.bincount(seen["path"], weights=step, minlength=20)
        np.testing.assert_array_equal(state.counts(), alive)
        if state.ages.size:
            assert state.ages.min() >= 0.0


def test_event_driven_initial_ages(habitat_1d, const_model, rng):
    start = MarkedConfiguration(np.array([[0.5]]), np.array([2.0]))
    traj = event_driven_simulate(start, 1.0, habitat_1d, const_model, rng)
    state0 = traj.state_at(0.0)
    if state0.ages.size:
        assert state0.ages[0] == pytest.approx(2.0)


def test_event_driven_count_mean(habitat_1d, const_model, rng):
    n = 600
    t = 2.0
    empty = MarkedConfiguration.empty(1)
    traj = event_driven_simulate(empty, t, habitat_1d, const_model, rng, n_paths=n)
    counts = traj.state_at(t).counts()
    lam = habitat_1d.chi_mass * (-math.expm1(-t))
    assert abs(counts.mean() - lam) < 4 * math.sqrt(lam / n)


def test_event_driven_aged_initial_survival(habitat_1d, separable_model, rng):
    x, age, horizon, n = 0.4, 3.0, 2.0, 20_000
    start = MarkedConfiguration(np.array([[x]]), np.array([age]))
    traj = event_driven_simulate(start, horizon, habitat_1d, separable_model, rng, n_paths=n)
    first = traj.ids == 0
    for t in (0.5, 1.0, horizon):
        alive = np.count_nonzero(traj.deaths[first] > t) / n
        p = float(survival_factor(separable_model, np.array([x]), age, t))
        assert abs(alive - p) < 4 * math.sqrt(p * (1 - p) / n)
    events = traj.events
    assert np.all((0.0 <= events["time"]) & (events["time"] < horizon))
    gone = events[events["kind"] == "departure"]
    row = np.searchsorted(traj.path_ids, gone["path"]) + gone["id"]
    np.testing.assert_array_equal(gone["age"], gone["time"] - traj.births[row])
    np.testing.assert_array_equal(gone["time"], traj.deaths[row])
    assert traj.accepts == gone.size and traj.proposals >= traj.accepts


def test_event_driven_rejects_rate_above_m_star(habitat_1d):
    fast = constant_rate(2.0)
    bad = DepartureModel(m_star=1.0, m_zero=1.0, rate=fast.rate, cumulative=fast.cumulative)
    start = MarkedConfiguration(np.array([[0.5]]), np.array([0.0]))
    with pytest.raises(ValueError, match="m_star"):
        event_driven_simulate(start, 5.0, habitat_1d, bad, np.random.default_rng(0), n_paths=50)


# -------------------------------------------------------------- marginals
def test_sample_trajectory_marginals(habitat_1d, const_model, theta_two, rng):
    out = sample_trajectory_marginals(
        None, [0.5, 1.0], [theta_two], habitat_1d, const_model, 2000, rng
    )
    assert set(out) == {("f", 0, 0), ("f", 1, 0), ("count", 0), ("count", 1)}
    lam = habitat_1d.chi_mass * (-math.expm1(-1.0))
    counts = out[("count", 1)]
    assert abs(counts.mean() - lam) < 4 * math.sqrt(lam / 2000)
    f = out[("f", 0, 0)]
    assert np.all((0 < f) & (f <= 1))


def test_sample_trajectory_marginals_sorted_times(habitat_1d, const_model, theta_two, rng):
    with pytest.raises(ValueError):
        sample_trajectory_marginals(
            None, [1.0, 0.5], [theta_two], habitat_1d, const_model, 10, rng
        )

