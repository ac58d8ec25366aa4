from __future__ import annotations

import copy
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from agedpop import sampler
from agedpop.habitat import _BLOCK, SurvivalCumulative
from agedpop.mark_space import u_basis
from agedpop.verify import survival_weighted_integral
from agedpop import (
    DepartureModel,
    F_theta,
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
from golden_marginals import RECORD as MARGINALS_RECORD
from golden_marginals import marginals_digests, moved_arrays
from golden_metrics import environment


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


@pytest.mark.parametrize("t", [-0.5, math.nan, math.inf])
def test_transient_intensity_refuses_a_negative_or_non_finite_window(
    habitat_1d, separable_model, t
):
    # unchecked, NaN and inf raised IndexError from a garbage panel index
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite T >= 0"):
            transient_intensity(habitat_1d, separable_model, t)


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


@pytest.mark.parametrize("dt", [-0.5, math.nan, math.inf])
def test_thin_and_age_refuses_a_negative_or_non_finite_step(const_model, dt):
    # unchecked, dt = -0.5 kept every particle and made it younger (age 1.0
    # came back as 0.5), and dt = NaN dropped every particle
    start = MarkedConfiguration(np.array([[0.4]]), np.array([1.0]))
    bundle = PathBundle.from_configuration(start, 50)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        bundle.thin_and_age(dt, const_model, np.random.default_rng(0))
    # dt = 0 keeps its fast path: every particle, and no draw
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    bundle.thin_and_age(0.0, const_model, rng)
    assert rng.bit_generator.state == state and bundle.ages.tolist() == [1.0] * 50


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


def test_envelope_sampler_rejects_hazard_below_m_zero(habitat_1d):
    # hazard 0.5 declared with floor 1: exp(-M) rises above the envelope
    # exp(-m_zero alpha) at every age alpha > 0
    slow = constant_rate(0.5)
    bad = DepartureModel(m_star=1.0, m_zero=1.0, rate=slow.rate, cumulative=slow.cumulative)
    intensity = transient_intensity(habitat_1d, bad, 5.0)
    with pytest.raises(ValueError, match="envelope"):
        PathBundle(1000, 1).add_poisson(intensity, np.random.default_rng(6))


def test_envelope_sampler_checks_the_envelope_at_late_ages(habitat_1d):
    # the hazard keeps its declared floor 1 up to age 2 and drops to 0.1
    # after it, so exp(-M) rises above the envelope exp(-m_zero a) only past
    # age 2, where the envelope proposes few points; the ages past 3 still
    # carry over 30 % of the mass
    def cumulative(x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return np.where(alpha < 2.0, alpha, 2.0 + 0.1 * (alpha - 2.0)) + 0.0 * np.asarray(x)[..., 0]

    def rate(x, alpha):
        return np.where(np.asarray(alpha) < 2.0, 1.0, 0.1) + 0.0 * np.asarray(x)[..., 0]

    bad = DepartureModel(m_star=1.0, m_zero=1.0, rate=rate, cumulative=cumulative)
    intensity = stationary_intensity(habitat_1d, bad)
    one = lambda x, u: 1.0  # noqa: E731
    late = survival_weighted_integral(habitat_1d, bad, one, 3.0, intensity.age_upper)
    assert late > 0.3 * intensity.total_mass
    with pytest.raises(ValueError, match="envelope"):
        sampler._sample_points(intensity, 2000, np.random.default_rng(3))


def test_envelope_sampler_rejects_a_nan_cumulative_hazard(habitat_1d):
    # hazard 1, but a NaN cumulative on the left half of the window: exp(-NaN)
    # is NaN, below which no uniform falls, so unchecked the sampler would
    # quietly draw from the right half alone
    def cumulative(x, alpha):
        return np.where(np.asarray(x)[..., 0] < 0.5, math.nan, np.asarray(alpha, dtype=float))

    one = constant_rate(1.0)
    nan = DepartureModel(m_star=1.0, m_zero=1.0, rate=one.rate, cumulative=cumulative)
    intensity = sampler.IntensityMeasure(habitat_1d, nan, 5.0, total_mass=1.0)
    with pytest.raises(ValueError, match="envelope"):
        sampler._sample_points(intensity, 100, np.random.default_rng(3))


def test_total_mass_is_the_h1_cumulative_at_age_upper():
    # the mass is C(age_upper) of the SurvivalCumulative of h = 1, to the bit,
    # stationary and transient, at age frequency 50 and under constant
    # hazards, whose windows end inside a panel; for a constant hazard it is
    # the closed form chi_mass (1 - e^{-mA}) / m
    hab = uniform_habitat([(0.0, 1.0)], 2.0)
    for m in (None, 0.6, 1.0, 2.0):
        model = separable_rate(hab, 0.5, 1.0, 50.0) if m is None else constant_rate(m)
        cumulative = SurvivalCumulative(hab, model, lambda x, u: 1.0)
        for intensity in (stationary_intensity(hab, model), transient_intensity(hab, model, 0.7)):
            assert intensity.total_mass == cumulative(intensity.age_upper)
            if m is not None:
                want = hab.chi_mass * -math.expm1(-m * intensity.age_upper) / m
                assert intensity.total_mass == pytest.approx(want, rel=1e-13, abs=0.0)


def test_constant_hazard_acceptance_is_exactly_one():
    # under a constant hazard the intensity's mass equals the envelope's up
    # to rounding; a mass one ulp below it draws the same points, where an
    # acceptance of 1 - 1e-16 would propose need + 1 points a round
    hab = uniform_habitat([(0.0, 1.0)], 2.0)
    model = constant_rate(0.6)
    envelope = hab.chi_mass * -math.expm1(-0.6 * 5.0) / 0.6
    draws = []
    for mass in (envelope, np.nextafter(envelope, 0.0)):
        intensity = sampler.IntensityMeasure(hab, model, 5.0, total_mass=float(mass))
        draws.append(sampler._sample_points(intensity, 50, np.random.default_rng(4)))
    np.testing.assert_array_equal(draws[0][0], draws[1][0])
    np.testing.assert_array_equal(draws[0][1], draws[1][1])


def _counting(model, seen):
    """model whose cumulative records the acceptance chance exp(-(M - m_zero alpha))
    of every proposal it is called on."""

    def cumulative(x, alpha):
        out = model.cumulative(x, alpha)
        seen.append(np.exp(-(out - model.m_zero * np.asarray(alpha))))
        return out

    return DepartureModel(model.m_star, model.m_zero, model.rate, cumulative, model.modulus)


def test_envelope_sampler_rounds_are_bounded(habitat_1d, separable_model, monkeypatch):
    # one chi_sample call and one cumulative call per rejection round, and
    # no round proposes more than _BLOCK points
    seen = []
    intensity = stationary_intensity(habitat_1d, _counting(separable_model, seen))
    sizes = []
    real = sampler.chi_sample

    def counted(habitat, rng, size=None):
        sizes.append(size)
        return real(habitat, rng, size=size)

    monkeypatch.setattr(sampler, "chi_sample", counted)
    seen.clear()
    pos, ages = sampler._sample_points(intensity, 5000, np.random.default_rng(1))
    assert pos.shape == (5000, 1) and ages.shape == (5000,)
    assert len(sizes) <= 2 and [c.size for c in seen] == sizes
    sizes.clear()
    seen.clear()
    sampler._sample_points(intensity, 3 * _BLOCK, np.random.default_rng(2))
    assert max(sizes) <= _BLOCK and len(sizes) <= 6 and [c.size for c in seen] == sizes


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_hazard_accepts_every_proposal_in_one_round(dim):
    # under a constant hazard the envelope is the intensity itself: one round
    # of `count` proposals, one more when the computed acceptance rounds a
    # few ulp below 1, each accepted with chance 1; with no hazard at all the
    # ages are uniform
    hab = uniform_habitat([(0.0, 1.0)] * dim, 3.0)
    seen = []
    model, still = _counting(constant_rate(0.6), seen), _counting(constant_rate(0.0), seen)
    for intensity in (
        stationary_intensity(hab, model), transient_intensity(hab, model, 0.7),
        transient_intensity(hab, still, 0.7),
    ):
        seen.clear()
        pos, ages = sampler._sample_points(intensity, 5000, np.random.default_rng(4))
        assert ages.size == 5000 and ages.max() < intensity.age_upper
        (chance,) = seen
        assert chance.size <= 5001 and np.all(chance == 1.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "separable"])
def test_envelope_sampler_takes_a_numeric_cumulative(dim, kind, monkeypatch):
    # a cumulative computed by quadrature sits a few ulp off m_zero alpha
    # under a constant hazard: the envelope check allows relative rounding
    # of _SQUEEZE_SLACK, and with no allowance it would raise
    hab = uniform_habitat([(0.0, 1.0)] * dim, 3.0)
    exact = constant_rate(0.6) if kind == "constant" else separable_rate(hab, 0.5, 1.0, 2.0)
    model = quadrature_cumulative(exact)
    intensities = (stationary_intensity(hab, model), transient_intensity(hab, model, 0.7))
    for intensity in intensities:
        pos, ages = sampler._sample_points(intensity, 20_000, np.random.default_rng(8))
        assert pos.shape == (20_000, dim)
    if kind == "constant":
        monkeypatch.setattr(sampler, "_SQUEEZE_SLACK", 0.0)
        for intensity in intensities:
            with pytest.raises(ValueError, match="envelope"):
                sampler._sample_points(intensity, 20_000, np.random.default_rng(8))


def _age_ks(intensity, model, n, seed):
    """KS statistic of n ages sampled from intensity against the age law
    C(a) / C(age_upper) of model, C the SurvivalCumulative of h = 1."""
    cumulative = SurvivalCumulative(intensity.habitat, model, lambda x, u: 1.0)
    top = cumulative(intensity.age_upper)
    _, ages = sampler._sample_points(intensity, n, np.random.default_rng(seed))
    return stats.kstest(ages, lambda a: cumulative(a) / top).statistic


@pytest.mark.parametrize("horizon", [None, 0.7])
def test_sampled_ages_follow_the_survival_law(habitat_2d, horizon):
    # the ages of a 2-d separable intensity, stationary and transient, follow
    # its age marginal; acceptance with chance exp(-M) instead of
    # exp(-(M - m_zero alpha)) samples exp(-m_zero alpha - M) and fails
    model = separable_rate(habitat_2d, 0.5, 1.0, 2.0)
    if horizon is None:
        intensity = stationary_intensity(habitat_2d, model)
    else:
        intensity = transient_intensity(habitat_2d, model, horizon)
    n = 50_000
    assert _age_ks(intensity, model, n, 16) < 1.63 / math.sqrt(n)

    def doubled(x, alpha):
        return model.cumulative(x, alpha) + model.m_zero * np.asarray(alpha)

    planted = DepartureModel(model.m_star, model.m_zero, model.rate, doubled, model.modulus)
    assert _age_ks(dataclasses.replace(intensity, model=planted), model, n, 16) > 1.63 / math.sqrt(n)


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
    # add_poisson gives the sample, which comes out grouped by rejection round, to
    # the paths by random labels: with consecutive blocks given to
    # consecutive paths each path's ages would cluster and the mean of F_theta
    # over paths would move about 10 standard errors for a steeply
    # age-dependent theta
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


def test_bundle_path_counts_are_poisson(habitat_1d, const_model):
    # one Poisson total with uniform path labels gives every path an
    # independent Poisson(mass) count
    intensity = stationary_intensity(habitat_1d, const_model)
    lam = intensity.total_mass
    bundle = PathBundle(20_000, 1)
    bundle.add_poisson(intensity, np.random.default_rng(14))
    counts = bundle.counts()
    assert abs(counts.mean() - lam) < 4.0 * math.sqrt(lam / counts.size)
    # chi-squared of the count histogram against the Poisson pmf, the upper
    # tail pooled from the first count whose expected number is below 10
    expected = counts.size * stats.poisson.pmf(np.arange(counts.max() + 1), lam)
    top = int(np.argmax(expected < 10.0))
    observed = np.bincount(counts, minlength=expected.size)
    obs = np.append(observed[:top], observed[top:].sum())
    exp = np.append(expected[:top], counts.size - expected[:top].sum())
    p_value = stats.chi2.sf(np.sum((obs - exp) ** 2 / exp), obs.size - 1)
    assert p_value > 1e-3


@pytest.mark.parametrize("dim", [1, 2])
def test_f_theta_in_slices_has_the_bits_of_one_g_call(dim):
    # f_theta evaluates g _BLOCK particles at a time; the bits are those of
    # one g call on every particle, summed by path
    hab = uniform_habitat([(0.0, 1.0)] * dim, 3.0)
    theta = Theta([(1, 1, 1), (3, 2, 1), (2, 3, 40)], hab)
    rng = np.random.default_rng(15)
    n = 3 * _BLOCK + 1234
    bundle = PathBundle(1000, dim, rng.integers(1000, size=n), rng.random((n, dim)), rng.exponential(2.0, n))
    g = theta.g(bundle.positions, bundle.ages)
    want = np.exp(np.bincount(bundle.path_ids, weights=-g, minlength=1000))
    np.testing.assert_array_equal(bundle.f_theta(theta), want)


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


@pytest.mark.parametrize(
    "case", ["random", "repeated-times", "one-path", "zero-times", "large-ids", "empty"]
)
def test_path_time_order_is_the_lexicographic_order(case):
    # the (path, time) order of the samplers and of events.jsonl is one stable
    # argsort of complex keys; numpy's lexsort on (path, time) is the oracle,
    # ties (equal times within a path) in input order included
    rng = np.random.default_rng(29)
    n = 0 if case == "empty" else 5000
    paths = rng.integers(300, size=n)
    times = rng.uniform(0.0, 2.0, n)
    if case == "repeated-times":
        times = rng.choice(times[:40], n)
    elif case == "one-path":
        paths = np.full(n, 7)
    elif case == "zero-times":
        times[rng.random(n) < 0.3] = 0.0
        times[rng.random(n) < 0.1] = -0.0
    elif case == "large-ids":
        paths += 2**53 - 300
    order = sampler._path_time_order(paths, times)
    assert order.shape == (n,)
    np.testing.assert_array_equal(order, np.lexsort((times, paths)))


def test_event_driven_rejects_rate_above_m_star(habitat_1d):
    fast = constant_rate(2.0)
    bad = DepartureModel(m_star=1.0, m_zero=1.0, rate=fast.rate, cumulative=fast.cumulative)
    start = MarkedConfiguration(np.array([[0.5]]), np.array([0.0]))
    with pytest.raises(ValueError, match="m_star"):
        event_driven_simulate(start, 5.0, habitat_1d, bad, np.random.default_rng(0), n_paths=50)


def test_event_driven_rejects_a_nan_rate(habitat_1d):
    # a NaN hazard accepts no proposal: unchecked, no particle would depart
    nan = DepartureModel(
        m_star=1.0, m_zero=0.0, rate=lambda x, a: np.full(np.shape(a), math.nan),
        cumulative=lambda x, a: np.full(np.shape(a), math.nan),
    )
    start = MarkedConfiguration(np.array([[0.5]]), np.array([0.0]))
    with pytest.raises(ValueError, match="m_star"):
        event_driven_simulate(start, 5.0, habitat_1d, nan, np.random.default_rng(0), n_paths=50)


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



@pytest.mark.parametrize("times", [[-1.0, 0.5], [0.5, math.nan], [math.nan], [0.5, math.inf]])
def test_sample_trajectory_marginals_refuses_non_finite_or_negative_times(
    habitat_1d, const_model, theta_two, times
):
    # unchecked, [-1, 0.5] reported count 0 at t = -1, and [0.5, nan]
    # reported the t = 0.5 state as the NaN row
    with pytest.raises(ValueError, match="finite, nonnegative and sorted"):
        sample_trajectory_marginals(
            None, times, [theta_two], habitat_1d, const_model, 10, np.random.default_rng(0)
        )


def _start(kind, habitat, model):
    if kind == "dirac":
        return MarkedConfiguration(np.array([[0.2], [0.7], [0.9]]), np.array([0.3, 1.1, 4.0]))
    return stationary_intensity(habitat, model)


def _block_paths(initial, times, habitat, model):
    """Paths in one block of sample_trajectory_marginals: the particle budget
    over the start's expected size plus every step's newcomer mass."""
    steps = np.diff(times, prepend=0.0)
    start = len(initial) if isinstance(initial, MarkedConfiguration) else initial.total_mass
    mass = start + sum(transient_intensity(habitat, model, dt).total_mass for dt in steps if dt > 0)
    return int(sampler._BLOCK_PARTICLES / mass)


_MARGINAL_TIMES = [0.0, 0.4, 0.4, 1.0]


@pytest.mark.parametrize("kind", ["dirac", "poisson"])
def test_marginals_first_block_does_not_depend_on_n_paths(
    habitat_1d, separable_model, theta_two, kind, monkeypatch
):
    sizes = []

    class Recorded(PathBundle):
        def __init__(self, n_paths, *args, **kwargs):
            sizes.append(n_paths)
            super().__init__(n_paths, *args, **kwargs)

    monkeypatch.setattr(sampler, "PathBundle", Recorded)
    start = _start(kind, habitat_1d, separable_model)
    block = _block_paths(start, _MARGINAL_TIMES, habitat_1d, separable_model)
    args = (start, _MARGINAL_TIMES, [theta_two], habitat_1d, separable_model)
    one = sample_trajectory_marginals(*args, block, np.random.default_rng(3))
    assert sizes == [block]
    sizes.clear()
    more = sample_trajectory_marginals(*args, 5 * block // 2, np.random.default_rng(3))
    assert sizes == [block, block, 5 * block // 2 - 2 * block]
    assert one.keys() == more.keys()
    for key, values in one.items():
        assert more[key].dtype == values.dtype
        np.testing.assert_array_equal(more[key][:block], values)
    # the second block goes on drawing from the same generator
    second = more[("f", 3, 0)][block : 2 * block]
    assert not np.array_equal(second, one[("f", 3, 0)])


@pytest.mark.parametrize("kind", ["dirac", "poisson"])
def test_marginal_counts_over_blocks_match_their_exact_means(
    habitat_1d, separable_model, theta_two, kind
):
    start = _start(kind, habitat_1d, separable_model)
    block = _block_paths(start, _MARGINAL_TIMES, habitat_1d, separable_model)
    n = 2 * block + block // 3
    out = sample_trajectory_marginals(
        start, _MARGINAL_TIMES, [theta_two], habitat_1d, separable_model, n,
        np.random.default_rng(4),
    )
    for ti, t in enumerate(_MARGINAL_TIMES):
        if kind == "dirac":
            want = survival_factor(separable_model, start.positions, start.ages, t).sum()
            if t > 0:
                want += transient_intensity(habitat_1d, separable_model, t).total_mass
        else:
            want = start.total_mass
        counts = out[("count", ti)]
        assert abs(counts.mean() - want) <= 4 * counts.std() / math.sqrt(n)  # exact at t = 0


def test_dirac_marginals_have_the_two_time_covariance_of_a_constant_hazard(habitat_1d, theta_two):
    # under a constant hazard m each start particle is alive at s and at t
    # with chance e^{-m t}, and the newcomers present at s that are still
    # there at t are Poisson of mean chi_mass (1 - e^{-m s})/m e^{-m (t - s)},
    # so Cov(N_s, N_t) = k e^{-m t}(1 - e^{-m s}) + that mean. Drawing the
    # start's survivals afresh at each time leaves the means and drops the
    # k e^{-m t}(1 - e^{-m s}) term: z near -21 here
    m, s, t, n = 0.8, 0.5, 1.5, 20_000
    start = _start("dirac", habitat_1d, None)
    k, mass = len(start), habitat_1d.chi_mass
    out = sample_trajectory_marginals(
        start, [s, t], [theta_two], habitat_1d, constant_rate(m), n, np.random.default_rng(1)
    )
    means = [k * math.exp(-m * u) + mass * -math.expm1(-m * u) / m for u in (s, t)]
    cov = k * math.exp(-m * t) * -math.expm1(-m * s) + mass * -math.expm1(-m * s) / m * math.exp(-m * (t - s))
    x = (out[("count", 0)] - means[0]) * (out[("count", 1)] - means[1])
    assert abs(x.mean() - cov) <= 4 * x.std() / math.sqrt(n)


def test_dirac_marginals_at_time_zero_are_exact(habitat_1d, separable_model, theta_two, theta_one):
    # at t = 0 every path holds the start itself: count k, and F_theta of the
    # start to the bit, however many times the grid repeats 0
    start = _start("dirac", habitat_1d, separable_model)
    out = sample_trajectory_marginals(
        start, [0.0, 0.0, 0.4], [theta_two, theta_one], habitat_1d, separable_model, 3000,
        np.random.default_rng(6),
    )
    for ti in (0, 1):
        assert (out[("count", ti)] == len(start)).all()
        for hi, theta in enumerate([theta_two, theta_one]):
            assert (out[("f", ti, hi)] == F_theta(theta, start)).all()
    assert (out[("count", 2)] != len(start)).any()


def test_an_empty_dirac_start_is_the_empty_start(habitat_1d, separable_model, theta_two):
    args = ([0.0, 0.4, 1.0], [theta_two], habitat_1d, separable_model, 3000)
    empty = sample_trajectory_marginals(
        MarkedConfiguration.empty(1), *args, np.random.default_rng(7)
    )
    none = sample_trajectory_marginals(None, *args, np.random.default_rng(7))
    assert empty.keys() == none.keys()
    for key, values in none.items():
        assert empty[key].dtype == values.dtype
        np.testing.assert_array_equal(empty[key], values)


_HALF = constant_rate(0.5)


@pytest.mark.parametrize(
    "model",
    [
        # declares m_zero = 1 for a hazard of 0.5: the start survives too often
        DepartureModel(m_star=1.0, m_zero=1.0, rate=_HALF.rate, cumulative=_HALF.cumulative),
        DepartureModel(
            m_star=1.0, m_zero=0.0, rate=_HALF.rate,
            cumulative=lambda x, a: np.full(np.broadcast_shapes(np.shape(x)[:-1], np.shape(a)), math.nan),
        ),
    ],
    ids=["hazard-below-m_zero", "nan-cumulative"],
)
def test_dirac_marginals_refuse_a_survival_outside_its_band(habitat_1d, theta_two, model):
    start = _start("dirac", habitat_1d, model)
    with pytest.raises(ValueError, match="survival chance outside its band"):
        sample_trajectory_marginals(
            start, [0.4, 1.0], [theta_two], habitat_1d, model, 100, np.random.default_rng(0)
        )


def test_marginals_memory_is_bounded_by_the_block(habitat_1d, separable_model, theta_two):
    start = stationary_intensity(habitat_1d, separable_model)
    n = 4 * _block_paths(start, _MARGINAL_TIMES, habitat_1d, separable_model)
    tracemalloc.start()
    try:
        sample_trajectory_marginals(
            start, _MARGINAL_TIMES, [theta_two], habitat_1d, separable_model, n,
            np.random.default_rng(5),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 30 924 paths: this peaks at 3.74 MiB (1.9 MiB of it the eight output
    # arrays), and at 7.29 MiB when every path runs at once
    assert peak < 5 << 20


def test_marginals_keep_their_recorded_bits():
    # every output array of an empty, a stationary Poisson and a 3-particle
    # Dirac start on a 1-d and a 2-d config, over one and a half blocks,
    # against tests/golden_marginals.json. A deliberate change rewrites the
    # record with tests/golden_marginals.py; the message names the arrays that
    # moved and both environments, since another numpy, BLAS or CPU may move
    # the last bits with no code change
    record = json.loads(MARGINALS_RECORD.read_text(encoding="utf-8"))
    moved = moved_arrays(record["sha256"], marginals_digests())
    assert not moved, f"{moved}: recorded on {record['environment']}, recomputed on {environment()}"
