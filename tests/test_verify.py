from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from agedpop import (
    ConvolutionLaw,
    DiracLaw,
    ExplicitLaw,
    F_theta,
    MarkedConfiguration,
    PoissonLaw,
    VerificationReport,
    chapman_kolmogorov_check,
    constant_rate,
    count_law_oracle,
    cross_sampler_check,
    ergodicity_check,
    fokker_planck_check,
    kappa_distance,
    format_reports,
    laplace_uniqueness_check,
    Theta,
    linear_habitat,
    martingale_residual,
    separable_rate,
    stationarity_check,
    stationary_intensity,
    survival_factor,
    survival_weighted_integral,
    transient_intensity,
    uniform_habitat,
    write_reports_csv,
)
from agedpop import generator, verify
from agedpop.habitat import age_panel_width, age_rule
from agedpop.sampler import _make_intensity, _sample_points
from agedpop.verify import _chi2_independence_p, _chi2_sf, _ks_statistic, _pool_columns
from conftest import poisson_bundle, tiled_bundle


def expect_weighted(law, vtheta, phi):
    """E[F_theta * sum_particles phi] under the law itself (age shift 0)."""
    return float(law.aged_expectations(0.0, None, vtheta, phi)[1][0])


@pytest.fixture(scope="module")
def dirac_config():
    return MarkedConfiguration(np.array([[0.35], [0.75]]), np.array([0.4, 1.3]))


# ------------------------------------------------------------------- laws
def test_dirac_law(theta_two, dirac_config):
    law = DiracLaw(dirac_config)
    assert law.expect_F(theta_two) == F_theta(theta_two, dirac_config)
    phi = lambda x, a: np.ones(a.shape)
    assert expect_weighted(law, theta_two, phi) == pytest.approx(
        2.0 * F_theta(theta_two, dirac_config)
    )


def test_dirac_law_aging_needs_model(theta_two, dirac_config, const_model):
    with pytest.raises(ValueError):
        DiracLaw(dirac_config).aged_expectations([0.0, 0.5], None, theta_two)
    f, _ = DiracLaw(dirac_config).aged_expectations([0.0, 0.5], const_model, theta_two)
    assert f[0] == F_theta(theta_two, dirac_config)
    one, _ = DiracLaw(dirac_config).aged_expectations(0.5, const_model, theta_two)
    assert f[1] == pytest.approx(one[0], rel=1e-15)


def test_thinned_dirac_vs_monte_carlo(theta_two, dirac_config, const_model, rng):
    t = 0.8
    law = DiracLaw(dirac_config)
    phi = lambda x, a: x[..., 0] + a
    (want_f,), (want_w,) = law.aged_expectations(t, const_model, theta_two, phi)
    n = 30_000
    bundle = tiled_bundle(dirac_config, n)
    bundle.thin_and_age(t, const_model, rng)
    fs = bundle.f_theta(theta_two)
    ws = fs * bundle.sum_by_path(phi(bundle.positions, bundle.ages))
    assert abs(fs.mean() - want_f) < 4 * fs.std(ddof=1) / math.sqrt(n)
    assert abs(ws.mean() - want_w) < 4 * ws.std(ddof=1) / math.sqrt(n)


def test_poisson_law_two_quadrature_routes(theta_two, habitat_1d, const_model):
    intensity = transient_intensity(habitat_1d, const_model, 1.4)
    law = PoissonLaw(intensity)
    # the law's engine route against a direct double integral of theta e^{-M} chi

    def integrand(a, x):
        pt = np.array([[x]])
        return theta_two.theta(pt, np.array([a]))[0] * 2.0 * math.exp(-a)

    want, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 1.4, epsabs=1e-11)
    assert law.expect_F(theta_two) == pytest.approx(math.exp(want), abs=1e-9)


def test_poisson_weighted_vs_monte_carlo(theta_two, habitat_1d, const_model, rng):
    intensity = transient_intensity(habitat_1d, const_model, 1.0)
    law = PoissonLaw(intensity)
    phi = lambda x, a: np.exp(-a) * x[..., 0]
    want = expect_weighted(law, theta_two, phi)
    n = 30_000
    bundle = poisson_bundle(intensity, n, rng)
    ids, pos, ages = bundle.path_ids, bundle.positions, bundle.ages
    th = theta_two.theta(pos, ages)
    logf = np.zeros(n)
    np.add.at(logf, ids, np.log1p(th))
    f = np.exp(logf)
    s = np.zeros(n)
    np.add.at(s, ids, phi(pos, ages))
    vals = f * s
    assert abs(vals.mean() - want) < 4 * vals.std(ddof=1) / math.sqrt(n)


def test_aged_poisson_pushforward(theta_two, habitat_1d, const_model, rng):
    # aging the stationary field by any t leaves the window shifted; with a
    # constant hazard the expectation moves by the truncation edge only
    intensity = stationary_intensity(habitat_1d, const_model)
    law = PoissonLaw(intensity)
    # MC check of the aged expectation: sample the field, then age it
    want = law.aged_expectations(0.7, const_model, theta_two)[0][0]
    n = 20_000
    bundle = poisson_bundle(intensity, n, rng)
    bundle.thin_and_age(0.7, const_model, rng)
    ids, pos, ages = bundle.path_ids, bundle.positions, bundle.ages
    assert ages.min() >= 0.7
    logf = np.zeros(n)
    np.add.at(logf, ids, np.log1p(theta_two.theta(pos, ages)))
    f = np.exp(logf)
    assert abs(f.mean() - want) < 4 * f.std(ddof=1) / math.sqrt(n)


def test_convolution_law(theta_two, habitat_1d, const_model, dirac_config, rng):
    pois = PoissonLaw(transient_intensity(habitat_1d, const_model, 0.5))
    dirac = DiracLaw(dirac_config)
    conv = ConvolutionLaw([pois, dirac])
    assert conv.expect_F(theta_two) == pytest.approx(
        pois.expect_F(theta_two) * dirac.expect_F(theta_two), rel=1e-12
    )
    phi = lambda x, a: np.ones(a.shape)
    want = (
        expect_weighted(pois, theta_two, phi) * dirac.expect_F(theta_two)
        + pois.expect_F(theta_two) * expect_weighted(dirac, theta_two, phi)
    )
    assert expect_weighted(conv, theta_two, phi) == pytest.approx(want, rel=1e-10)


def test_survival_weighted_integral_oracle(habitat_1d, separable_model):
    h = lambda x, a: np.cos(x[..., 0]) * np.exp(-0.3 * a)

    def integrand(a, x):
        pt = np.array([[x]])
        M = separable_model.cumulative(pt, np.array([a]))[0]
        return 2.0 * math.cos(x) * math.exp(-0.3 * a) * math.exp(-M)

    want, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.2, 1.9, epsabs=1e-11)
    got = survival_weighted_integral(habitat_1d, separable_model, h, 0.2, 1.9)
    assert got == pytest.approx(want, abs=1e-9)


# ------------------------------------------------------------- explicit law
def test_explicit_law_consistency(theta_two, habitat_1d, const_model, dirac_config):
    law = ExplicitLaw(DiracLaw(dirac_config), theta_two, habitat_1d, const_model)
    assert law.expect_F(0.0) == pytest.approx(F_theta(theta_two, dirac_config), rel=1e-10)
    t = 0.9
    # the law at t as the union of the newcomers and the aged start
    newcomers = PoissonLaw(transient_intensity(habitat_1d, const_model, t)).expect_F(theta_two)
    aged = DiracLaw(dirac_config).aged_expectations(t, const_model, theta_two)[0][0]
    assert law.expect_F(t) == pytest.approx(newcomers * aged, abs=1e-8)


def test_explicit_law_stationary_generator_zero(theta_two, habitat_1d, const_model):
    law = ExplicitLaw(
        PoissonLaw(stationary_intensity(habitat_1d, const_model)),
        theta_two,
        habitat_1d,
        const_model,
    )
    # at stationarity mu(LF) = 0 for every t
    for t in (0.0, 0.6):
        assert abs(law.expect_LF(t)) < 1e-9


# 2-d window: c3 and psi share the tensor rule, so the laws close up to age
# quadrature alone
@pytest.fixture(scope="module")
def setup_2d():
    hab = uniform_habitat([(0.0, 1.0), (0.0, 1.0)], 3.0)
    model = separable_rate(hab, 0.5, 1.0, 2.0)
    theta = Theta([(1, 1, 1), (3, 2, 1)], hab)
    mid = hab.midpoint[None, :]
    config = MarkedConfiguration(np.vstack([mid, 0.9 * mid + 0.1 * hab.lower]), np.array([0.4, 1.3]))
    return hab, model, theta, config


def test_explicit_law_c3_is_psi_at_zero_2d(setup_2d):
    hab, model, theta, config = setup_2d
    law = ExplicitLaw(DiracLaw(config), theta, hab, model)
    assert law._c3 == law.exponent.psi(0.0)


def test_fokker_planck_dirac_2d(setup_2d):
    hab, model, theta, config = setup_2d
    report = fokker_planck_check(theta, DiracLaw(config), 1.0, hab, model)
    assert report.passed, report.line()
    assert report.value < 1e-12


def test_expect_LF_poisson_start_integrates_each_window_once(theta_two, habitat_1d, const_model, monkeypatch):
    built = []

    class Counted(generator.SurvivalCumulative):
        def __init__(self, habitat, model, h, *args, **kwargs):
            built.append(h)
            super().__init__(habitat, model, h, *args, **kwargs)

    monkeypatch.setattr(generator, "SurvivalCumulative", Counted)
    initial = PoissonLaw(stationary_intensity(habitat_1d, const_model))
    law = ExplicitLaw(initial, theta_two, habitat_1d, const_model)
    built.clear()
    one = law.expect_LF(0.6)
    # the F window and the weighted window of the aged field, once each
    assert len(built) == 2
    assert built[0] == theta_two.theta and built[1] != theta_two.theta
    built.clear()
    grid = np.linspace(0.0, 1.0, 65)
    batch = law.expect_LF(grid)
    assert len(built) == 2
    for k in (0, 38, 64):
        assert batch[k] == pytest.approx(law.expect_LF(grid[k]), rel=1e-12, abs=1e-15)
    # one window integral per term gives the same mu_t(LF): the stationary
    # field aged by 0.6 is the same integrand over the ages [0.6, 0.6 + A]
    def window(h, lo, hi):
        return survival_weighted_integral(
            habitat_1d, const_model, h, lo, hi, theta_two.x_breakpoints, theta_two.age_scale
        )

    top = 0.6 + initial.intensity.age_upper
    f = math.exp(window(theta_two.theta, 0.6, top))
    w = f * window(lambda x, a: law._phi(x, a) * (1.0 + theta_two.theta(x, a)), 0.6, top)
    pre = math.exp(law.exponent.H(0.6))
    p_w = window(law._arrivals_weighted.h, 0.0, 0.6)
    assert one == pytest.approx(pre * (f * law._c3 + p_w * f + w), abs=1e-12)


def test_fokker_planck_poisson_start_batches_theta(theta_two, habitat_1d, const_model, monkeypatch):
    initial = PoissonLaw(stationary_intensity(habitat_1d, const_model))
    calls = []
    original = Theta.g

    def counted(self, x, alpha):
        calls.append(np.broadcast_shapes(np.shape(x)[:-1], np.shape(alpha)))
        return original(self, x, alpha)

    monkeypatch.setattr(Theta, "g", counted)
    report = fokker_planck_check(theta_two, initial, 1.0, habitat_1d, const_model)
    assert report.passed, report.line()
    assert len(calls) <= 40, len(calls)


def test_fokker_planck_note_has_halving_difference(theta_two, habitat_1d, separable_model, dirac_config):
    report = fokker_planck_check(theta_two, DiracLaw(dirac_config), 1.0, habitat_1d, separable_model)
    # the s-rule is the age rule at the test function's panel width
    width = age_panel_width(separable_model, theta_two.age_scale)
    nodes = age_rule(0.0, 1.0, width)[0].size
    assert report.note.startswith(f"t=1.0, {nodes} nodes, halving difference ")
    halving = float(report.note.split("halving difference ")[1])
    assert halving < 1e-12 and report.value < 1e-12


@pytest.mark.parametrize("initial", ["dirac", "stationary"])
def test_fokker_planck_fails_on_a_planted_arrival_constant_defect(
    initial, theta_two, habitat_1d, const_model, dirac_config, monkeypatch
):
    law = {
        "dirac": DiracLaw(dirac_config),
        "stationary": PoissonLaw(stationary_intensity(habitat_1d, const_model)),
    }[initial]
    assert fokker_planck_check(theta_two, law, 1.0, habitat_1d, const_model).passed

    class Defective(ExplicitLaw):
        def __init__(self, *args):
            super().__init__(*args)
            self._c3 *= 1.0 + 1e-8

    monkeypatch.setattr(verify, "ExplicitLaw", Defective)
    report = fokker_planck_check(theta_two, law, 1.0, habitat_1d, const_model)
    assert not report.passed, report.line()


# ----------------------------------------------------------------- checks
def test_fokker_planck_dirac(theta_two, habitat_1d, separable_model, dirac_config):
    report = fokker_planck_check(
        theta_two, DiracLaw(dirac_config), 0.8, habitat_1d, separable_model
    )
    assert report.passed, report.line()


def test_laplace(theta_two, habitat_1d, const_model, dirac_config):
    report = laplace_uniqueness_check(theta_two, dirac_config, 2.0, habitat_1d, const_model)
    assert report.passed, report.line()


def _recorded(name):
    """(habitat, model, theta, seed) of the recorded `verify --suite all` configs."""
    h1 = uniform_habitat([(0.0, 1.0)], 2.0)
    h2 = uniform_habitat([(0.0, 1.0)] * 2, 3.0)
    h3 = uniform_habitat([(0.0, 1.0)] * 3, 2.0)
    return {
        "1d": (h1, constant_rate(0.6), Theta([(1, 1, 1), (2, 1, 2)], h1), 7),
        "2d-separable": (h2, separable_rate(h2, 0.5, 1.0, 2.0), Theta([(1, 1, 1), (3, 2, 1)], h2), 11),
        "3d": (h3, constant_rate(1.0), Theta([(1, 1, 1), (2, 1, 2)], h3), 7),
        "1d-frequency-100": (
            h1, separable_rate(h1, 0.5, 1.0, 100.0), Theta([(1, 2, 1), (2, 3, 40)], h1), 11
        ),
    }[name]


RECORDED = ["1d", "2d-separable", "3d", "1d-frequency-100"]


@pytest.mark.parametrize("config", RECORDED)
def test_laplace_sum_matches_adaptive_quadrature(config, monkeypatch):
    habitat, model, theta, _ = _recorded(config)
    start = verify._dirac_start(habitat)
    report = laplace_uniqueness_check(theta, start, 1.5, habitat, model)
    assert report.passed, report.line()
    # with a zero resolvent the report's value is the Laplace sum itself
    monkeypatch.setattr(verify, "resolvent", lambda *args, **kwargs: 0.0)
    laplace = laplace_uniqueness_check(theta, start, 1.5, habitat, model).value
    law = ExplicitLaw(DiracLaw(start), theta, habitat, model)
    want, _ = integrate.quad(
        lambda s: math.exp(-1.5 * s) * law.expect_F(s), 0.0, 40.0 / 1.5, epsabs=1e-10, limit=400
    )
    assert abs(laplace - want) < 1e-10


def test_laplace_fails_a_resolvent_cut_at_half_its_horizon(monkeypatch):
    # the resolvent's t-rule keeps its first 20 of 40 panels, [0, 20/lam]: the
    # lost tail, about pi(F) e^{-20}/lam = 1.3e-10, passes the old 1e-6
    habitat, model, theta, _ = _recorded("1d")
    start = verify._dirac_start(habitat)
    full_rule = generator._laplace_rule

    def cut(lam, model, exponent):
        t, weights, factor = full_rule(lam, model, exponent)
        keep = t <= 20.0 / lam
        return t[keep], weights[keep], factor[keep]

    monkeypatch.setattr(generator, "_laplace_rule", cut)
    report = laplace_uniqueness_check(theta, start, 1.5, habitat, model)
    assert report.outcome == "FAIL" and 1e-10 < report.value < 1e-6, report.line()


def test_stationarity_fails_an_invariant_law_cut_at_half_its_window(monkeypatch):
    # the invariant intensity cut at 20/m_zero instead of 40/m_zero: the
    # aged law refills the lost ages, a gap of about 3e-10 that passes the
    # old 1e-6
    habitat, model, theta, _ = _recorded("1d")
    assert stationarity_check(theta, habitat, model, [0.5, 1.0, 2.0]).value <= 1e-15
    monkeypatch.setattr(
        verify, "stationary_intensity", lambda h, m: _make_intensity(h, m, 20.0 / m.m_zero)
    )
    report = stationarity_check(theta, habitat, model, [0.5, 1.0, 2.0])
    assert report.outcome == "FAIL" and 1e-12 < report.value < 1e-6, report.line()


def test_chapman_fails_age_panels_twice_as_wide(monkeypatch):
    # every age rule on panels twice the width the hazard allows: on the 2-d
    # separable config the two legs then part by about 2.7e-10, which passes
    # the old 1e-8
    habitat, model, theta, _ = _recorded("2d-separable")
    start = verify._dirac_start(habitat)
    assert chapman_kolmogorov_check(theta, start, 0.4, 0.7, habitat, model).value < 1e-12
    wide = lambda model, age_scale=1.0: 2.0 * age_panel_width(model, age_scale)
    monkeypatch.setattr("agedpop.habitat.age_panel_width", wide)
    monkeypatch.setattr(generator, "age_panel_width", wide)
    report = chapman_kolmogorov_check(theta, start, 0.4, 0.7, habitat, model)
    assert report.outcome == "FAIL" and 1e-10 < report.value < 1e-8, report.line()


@pytest.mark.parametrize("config", RECORDED)
def test_ks_statistic_matches_scipy(config):
    # the count-law oracle's draws: stationary ages of the rejection sampler
    habitat, model, _, seed = _recorded(config)
    intensity = stationary_intensity(habitat, model)
    _, ages = _sample_points(intensity, 20_000, np.random.default_rng(seed))
    m, a_max = model.m_star, intensity.age_upper

    def cdf(a):
        return -np.expm1(-m * np.asarray(a)) / -math.expm1(-m * a_max)

    want = stats.kstest(ages, cdf).statistic
    assert _ks_statistic(ages, cdf) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "table",
    [
        pytest.param([[412, 588], [455, 545]], id="dof1-yates"),
        pytest.param([[500, 500], [500, 501]], id="dof1-yates-clamped"),
        pytest.param([[130, 400, 470], [160, 380, 460]], id="dof2"),
        pytest.param([[90, 300, 400, 210], [60, 310, 420, 210]], id="dof3"),
        pytest.param([[30, 120, 260, 330, 260], [45, 100, 250, 350, 255]], id="dof4"),
        pytest.param([[20, 80, 200, 300, 250, 150], [35, 95, 180, 310, 240, 140]], id="dof5"),
    ],
)
def test_chi2_p_value_matches_scipy(table):
    want = stats.chi2_contingency(np.array(table))[1]
    assert _chi2_independence_p(table) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_chi2_tail_matches_scipy():
    for dof in range(1, 16):
        for x in (1e-3, 0.7, 3.0, 11.0, 40.0):
            assert _chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("config", RECORDED)
def test_cross_sampler_p_value_matches_scipy(config, monkeypatch):
    habitat, model, theta, seed = _recorded(config)
    seen = []

    def recorded(table):
        seen.append(np.array(table))
        return _chi2_independence_p(table)

    monkeypatch.setattr(verify, "_chi2_independence_p", recorded)
    (report,) = [
        r for r in cross_sampler_check(theta, 1.0, habitat, model, 1000, np.random.default_rng(seed))
        if r.name.endswith("counts")
    ]
    (table,) = seen
    assert table.shape[1] > 1
    want = stats.chi2_contingency(table)[1]
    assert report.value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_chapman(theta_two, habitat_1d, separable_model, dirac_config):
    report = chapman_kolmogorov_check(
        theta_two, dirac_config, 0.3, 0.9, habitat_1d, separable_model
    )
    assert report.passed, report.line()


def test_martingale(theta_two, theta_one, habitat_1d, const_model, dirac_config, rng):
    report = martingale_residual(
        theta_two, dirac_config, 0.2, 0.7, theta_one,
        habitat_1d, const_model, 4000, rng, n_grid=16,
    )
    assert report.passed, report.line()


@pytest.mark.parametrize("start", ["empty", "poisson"])
def test_martingale_refuses_a_nan_newcomer_mass(theta_two, habitat_1d, const_model, start):
    # a hazard of 1 whose cumulative is NaN: the newcomers' intensity is
    # refused where it is built, with the bound it breaks, not inside rng.poisson
    shape = lambda x, a: np.broadcast_shapes(np.shape(x)[:-1], np.shape(a))
    nan = dataclasses.replace(const_model, cumulative=lambda x, a: np.full(shape(x, a), math.nan))
    initial = stationary_intensity(habitat_1d, const_model) if start == "poisson" else None
    with pytest.raises(ValueError, match=r"intensity mass nan is not finite: hazard outside \[m_zero, m_star\]"):
        martingale_residual(
            theta_two, initial, 0.2, 0.7, theta_two, habitat_1d, nan, 100, np.random.default_rng(0), n_grid=4
        )


def test_martingale_reads_a_poisson_start_at_time_zero(theta_two, habitat_1d, const_model, rng):
    # from the invariant law at t1 = 0 and from the empty start, with no witness
    stationary = stationary_intensity(habitat_1d, const_model)
    for initial in (stationary, None):
        report = martingale_residual(
            theta_two, initial, 0.0, 0.5, None, habitat_1d, const_model, 4000, rng, n_grid=16
        )
        assert report.passed, report.line()


def test_ergodicity(theta_two, habitat_1d, const_model):
    report = ergodicity_check(theta_two, habitat_1d, const_model)
    assert report.passed, report.line()
    assert 0.0 < report.value <= 0.5
    report = stationarity_check(theta_two, habitat_1d, const_model, [0.5, 1.5])
    assert report.passed, report.line()


def test_ergodicity_is_the_largest_gap_over_the_coupling_bound(theta_two, habitat_1d, separable_model):
    # an independent route: the gaps from ExplicitLaw, pi(F) from the
    # stationary PoissonLaw, and the mass of pi's particles alive at t,
    # int_t^inf int e^{-M(x, u)} chi(dx) du, by adaptive quadrature in age
    from agedpop.habitat import gauss_profile_nodes

    times = np.linspace(1.0, 10.0, 10)
    nodes, weights = gauss_profile_nodes(habitat_1d)

    def newcomers(u):
        return float(weights @ np.exp(-separable_model.cumulative(nodes, np.full(len(nodes), u))))

    alive = np.array([integrate.quad(newcomers, t, np.inf, epsabs=1e-15, limit=400)[0] for t in times])
    pi_value = PoissonLaw(stationary_intensity(habitat_1d, separable_model)).expect_F(theta_two)
    ratios = []
    for start in (MarkedConfiguration.empty(1), verify._dirac_start(habitat_1d)):
        law = ExplicitLaw(DiracLaw(start), theta_two, habitat_1d, separable_model)
        dead = np.ones(times.size)
        for x, a in zip(start.positions, start.ages):
            dead *= [1.0 - survival_factor(separable_model, x, a, t) for t in times]
        bound = 1.0 - dead * np.exp(-alive)
        ratios.append(np.abs(law.expect_F(times) - pi_value) / bound)
    report = ergodicity_check(theta_two, habitat_1d, separable_model)
    assert report.passed, report.line()
    assert report.value == pytest.approx(np.max(ratios), rel=1e-6)
    assert f"P(tau > 10) = {1.0 - math.exp(-alive[-1]):.3e} from empty" in report.note


def test_ergodicity_band_for_varying_hazard():
    # an age-varying hazard from a linear density
    hab = linear_habitat([(0.0, 1.0)], 2.0, 6.0)
    model = separable_rate(hab, 0.5, 1.0, 2.0)
    theta = Theta([(1, 1, 1), (3, 2, 1)], hab)
    report = ergodicity_check(theta, hab, model)
    assert report.passed, report.line()


def test_ergodicity_holds_far_above_the_invariant_value():
    # chi_mass / m = 19: mu_t(F) is many times pi(F) at t = 1
    hab = uniform_habitat([(0.0, 2.0), (0.0, 2.0)], 3.143275518314949)
    model = constant_rate(0.6653744636603192)
    theta = Theta([(2, 2, 16), (3, 3, 24), (3, 2, 13)], hab)
    report = ergodicity_check(theta, hab, model)
    assert report.passed, report.line()
    assert report.value < 0.01


@pytest.mark.parametrize("rate", [4.0, 8.0, 20.0])
def test_ergodicity_times_follow_a_fast_hazard(theta_two, habitat_1d, rate):
    # at t = 10 the bound e^{-rate t} would sink below the rounding of the
    # gap, and past the invariant age window 40/rate
    report = ergodicity_check(theta_two, habitat_1d, constant_rate(rate))
    assert report.passed, report.line()
    assert f"P(tau > {10.0 / rate:.4g})" in report.note


@pytest.mark.parametrize("dim", [1, 2])
def test_ergodicity_fails_a_start_aged_without_survival(dim, monkeypatch):
    hab = uniform_habitat([(0.0, 1.0)] * dim, 2.0 if dim == 1 else 3.0)
    model = constant_rate(1.0) if dim == 1 else separable_rate(hab, 0.5, 1.0, 2.0)
    theta = Theta([(1, 1, 1), (2, 1, 2)] if dim == 1 else [(1, 1, 1), (3, 2, 1)], hab)
    assert ergodicity_check(theta, hab, model).passed

    # the Dirac start's particles age but never depart
    def log_survival(model, x, alpha, t):
        return np.zeros(np.broadcast_shapes(np.shape(x)[:-1], np.shape(alpha), np.shape(t)))

    monkeypatch.setattr(generator, "log_survival", log_survival)
    report = ergodicity_check(theta, hab, model)
    assert report.outcome == "FAIL", report.line()
    assert report.value > 3.0


def test_ergodicity_fails_a_gap_that_does_not_decay(theta_two, habitat_1d, const_model, monkeypatch):
    # newcomers that stop arriving at t = 2 leave a gap that stays put while
    # the coupling bound falls
    H = generator.ArrivalExponent.H
    monkeypatch.setattr(generator.ArrivalExponent, "H", lambda self, T: H(self, np.minimum(T, 2.0)))
    report = ergodicity_check(theta_two, habitat_1d, const_model)
    assert report.outcome == "FAIL", report.line()


def test_ergodicity_requires_floor(theta_two, habitat_1d):
    with pytest.raises(ValueError):
        ergodicity_check(theta_two, habitat_1d, constant_rate(0.0))


def test_count_law_small(habitat_1d, const_model, rng):
    reports = count_law_oracle(
        habitat_1d, const_model, [0.5, 2.0], 500, rng, ks_samples=5000
    )
    assert all(r.passed for r in reports), format_reports(reports)


def test_stationary_count_fails_on_scaled_total_mass(habitat_1d, const_model, monkeypatch):
    from agedpop import sampler

    def count_report():
        reports = count_law_oracle(
            habitat_1d, const_model, [0.5], 10, np.random.default_rng(1), ks_samples=100
        )
        (report,) = [r for r in reports if r.name == "count-law-stationary-count"]
        return report

    report = count_report()
    assert report.passed and report.value <= 1e-14, report.line()
    # every intensity reads its mass off the h = 1 cumulative of _newcomers
    newcomers = sampler._newcomers
    monkeypatch.setattr(sampler, "_newcomers", lambda *a: lambda t: newcomers(*a)(t) * (1.0 + 1e-9))
    report = count_report()
    assert report.outcome == "FAIL", report.line()


def test_count_law_rejects_varying_hazard(habitat_1d, separable_model, rng):
    with pytest.raises(ValueError):
        count_law_oracle(habitat_1d, separable_model, [1.0], 10, rng)


def test_cross_sampler_small(theta_two, habitat_1d, separable_model, rng):
    reports = cross_sampler_check(theta_two, 0.8, habitat_1d, separable_model, 1500, rng)
    assert all(r.passed for r in reports), format_reports(reports)


# ---------------------------------------------------------------- reports
def test_report_output(tmp_path):
    reports = [
        VerificationReport("a", "stat", 0.5, 1.0, seed=3, n_samples=10),
        VerificationReport("b", "stat", 2.0, 1.0, note="why"),
        VerificationReport("c", "p-value", 0.5, 0.01, sense=">"),
        VerificationReport.skip("d", "does not apply"),
    ]
    assert [r.outcome for r in reports] == ["PASS", "FAIL", "PASS", "SKIP"]
    text = format_reports(reports)
    assert "PASS  a" in text and "FAIL  b" in text and "2/3 checks passed, 1 skipped" in text
    # a skip is neither a pass nor a fail
    (skip_line,) = [line for line in text.splitlines() if " d:" in line]
    assert skip_line.startswith("SKIP  ") and "PASS" not in skip_line and "FAIL" not in skip_line
    path = tmp_path / "reports.csv"
    write_reports_csv(reports, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["name"] == "a" and rows[1]["passed"] == "False"
    assert [r["passed"] for r in rows] == ["True", "False", "True", "skipped"]
    # the skipped row's value and threshold still parse as floats: nan
    assert math.isnan(float(rows[3]["value"])) and math.isnan(float(rows[3]["threshold"]))


def test_pool_columns_merges_the_tail_into_the_last_cell():
    # the counts 3, 4 and 5 hold 9 observations: they join the cell of count 2
    table = np.array([[50, 45, 20, 3, 2, 0], [48, 47, 25, 1, 2, 1]])
    pooled = _pool_columns(table, table.sum(axis=0), 10)
    np.testing.assert_array_equal(pooled, [[50, 45, 25], [48, 47, 29]])
    # nothing reaches the minimum: one cell holds everything
    np.testing.assert_array_equal(_pool_columns(table[:, 3:], table[:, 3:].sum(axis=0), 10), [[5], [4]])


def test_cross_sampler_pools_cells_in_count_order(theta_two, habitat_1d, separable_model, monkeypatch):
    seen = []

    def recorded(table):
        seen.append(np.array(table))
        return _chi2_independence_p(table)

    monkeypatch.setattr(verify, "_chi2_independence_p", recorded)
    rng = np.random.default_rng(5)
    reports = cross_sampler_check(theta_two, 0.8, habitat_1d, separable_model, 1500, rng)
    (table,) = seen
    assert table.sum() == 3000 and np.all(table.sum(axis=1) == 1500)
    # every pooled cell holds at least 10 observations, and the cells keep
    # count order: the cell of count 0 first, the sparse tail last
    assert np.all(table.sum(axis=0) >= 10)
    assert table[:, 0].sum() > table[:, -1].sum()
    assert all(r.passed for r in reports), format_reports(reports)


def test_generator_bounds_fails_on_a_planted_bound_defect(theta_two, habitat_1d, const_model, monkeypatch):
    assert verify.generator_bounds_check(theta_two, habitat_1d, const_model).passed
    original = verify.compute_bounds

    def shrunk(theta, habitat, model):
        bounds = original(theta, habitat, model)
        return dataclasses.replace(bounds, est_bound=0.25 * bounds.est_bound)

    monkeypatch.setattr(verify, "compute_bounds", shrunk)
    report = verify.generator_bounds_check(theta_two, habitat_1d, const_model)
    assert report.outcome == "FAIL", report.line()


@pytest.mark.parametrize("dim", [1, 2])
def test_kappa_triangle_check_keeps_the_random_stream(dim):
    # the per-triple loop of kappa_distance calls the batched check replaced:
    # the same draws in the same order, and the same worst excess bit for bit
    habitat = uniform_habitat([(0.0, 1.0), (0.0, 2.0)][:dim], 3.0)
    ours, loop = np.random.default_rng(dim), np.random.default_rng(dim)
    report = verify.kappa_triangle_check(habitat, ours)
    worst = -math.inf
    for _ in range(200):
        cfgs = []
        for _ in range(3):
            k = int(loop.integers(0, 5))
            pos = habitat.lower + loop.random((k, habitat.dim)) * (habitat.upper - habitat.lower)
            cfgs.append(MarkedConfiguration(pos, loop.exponential(1.0, k)))
        if not all(len(cfg) for cfg in cfgs):
            continue  # the check reads only triples with no empty configuration
        a, b, c = cfgs
        dab, dbc, dac = (
            kappa_distance(x, y, habitat, budget=12)[0] for x, y in ((a, b), (b, c), (a, c))
        )
        worst = max(worst, dac - dab - dbc)
    assert ours.bit_generator.state == loop.bit_generator.state
    assert report.value == worst and report.n_samples == 200


def test_kappa_triangle_check_reports_how_close_it_came(habitat_1d):
    # below 0, not the exact 0 of a triple with two empty configurations
    report = verify.kappa_triangle_check(habitat_1d, np.random.default_rng(7))
    assert report.passed and report.value < 0.0, report.line()


def test_kappa_triangle_check_fails_a_non_metric(habitat_1d, monkeypatch):
    # the square of a metric breaks the triangle inequality
    real = verify.series_distance
    monkeypatch.setattr(verify, "series_distance", lambda w, fa, fb: real(w, fa, fb) ** 2)
    report = verify.kappa_triangle_check(habitat_1d, np.random.default_rng(7))
    assert report.outcome == "FAIL", report.line()
