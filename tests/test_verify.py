from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from scipy import integrate

from agedpop import (
    ConvolutionLaw,
    DiracLaw,
    ExplicitLaw,
    F_theta,
    MarkedConfiguration,
    PoissonLaw,
    VerificationReport,
    chapman_kolmogorov_check,
    count_law_oracle,
    cross_sampler_check,
    ergodicity_check,
    ergodicity_gap_curve,
    fokker_planck_check,
    format_reports,
    laplace_uniqueness_check,
    PathBundle,
    Theta,
    linear_habitat,
    martingale_residual,
    separable_rate,
    stationarity_check,
    stationary_intensity,
    survival_weighted_integral,
    transient_intensity,
    uniform_habitat,
    write_reports_csv,
)
from agedpop import verify
from agedpop.verify import _poisson_bins


@pytest.fixture(scope="module")
def dirac_config():
    return MarkedConfiguration(np.array([[0.35], [0.75]]), np.array([0.4, 1.3]))


# ------------------------------------------------------------------- laws
def test_dirac_law(theta_two, dirac_config):
    law = DiracLaw(dirac_config)
    assert law.expect_F(theta_two) == F_theta(theta_two, dirac_config)
    phi = lambda x, a: np.ones(a.shape)
    assert law.expect_weighted(theta_two, phi) == pytest.approx(
        2.0 * F_theta(theta_two, dirac_config)
    )


def test_dirac_law_aging_needs_model(theta_two, dirac_config, const_model):
    with pytest.raises(ValueError):
        DiracLaw(dirac_config, 0.5).expect_F(theta_two)
    with pytest.raises(ValueError):
        DiracLaw(dirac_config).aged_expectations([0.0, 0.5], None, theta_two)
    f, _ = DiracLaw(dirac_config).aged_expectations([0.0, 0.5], const_model, theta_two)
    assert f[0] == F_theta(theta_two, dirac_config)
    assert f[1] == pytest.approx(DiracLaw(dirac_config, 0.5, const_model).expect_F(theta_two), rel=1e-15)


def test_thinned_dirac_vs_monte_carlo(theta_two, dirac_config, const_model, rng):
    t = 0.8
    law = DiracLaw(dirac_config).aged(t, const_model)
    want_f = law.expect_F(theta_two)
    phi = lambda x, a: x[..., 0] + a
    want_w = law.expect_weighted(theta_two, phi)
    n = 30_000
    bundle = PathBundle.from_configuration(dirac_config, n)
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
    want = law.expect_weighted(theta_two, phi)
    n = 30_000
    ids, pos, ages = law.sample_points(n, rng)
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
    aged = law.aged(0.7, const_model)
    # MC check of the aged expectation
    want = aged.expect_F(theta_two)
    n = 20_000
    ids, pos, ages = aged.sample_points(n, rng)
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
        pois.expect_weighted(theta_two, phi) * dirac.expect_F(theta_two)
        + pois.expect_F(theta_two) * dirac.expect_weighted(theta_two, phi)
    )
    assert conv.expect_weighted(theta_two, phi) == pytest.approx(want, rel=1e-10)
    ids, pos, ages = conv.sample_points(50, rng)
    assert pos.shape[1] == 1
    assert ids.size == pos.shape[0] == ages.size


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
    via_conv = law.law_at(t).expect_F(theta_two)
    assert law.expect_F(t) == pytest.approx(via_conv, abs=1e-8)


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
    report = fokker_planck_check(theta, DiracLaw(config), 1.0, hab, model, n_grid=128)
    assert report.passed, report.line()


def test_expect_LF_poisson_start_integrates_each_window_once(theta_two, habitat_1d, const_model, monkeypatch):
    built = []

    class Counted(verify.SurvivalCumulative):
        def __init__(self, habitat, model, h, *args, **kwargs):
            built.append(h)
            super().__init__(habitat, model, h, *args, **kwargs)

    monkeypatch.setattr(verify, "SurvivalCumulative", Counted)
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
    # the single-law route gives the same mu_t(LF)
    aged = initial.aged(0.6, const_model)
    f = aged.expect_F(theta_two)
    w = aged.expect_weighted(theta_two, law._phi)
    pre = math.exp(law.exponent.H(0.6))
    p_w = survival_weighted_integral(
        habitat_1d, const_model, law._phi_weighted, 0.0, 0.6, breakpoints=theta_two.x_breakpoints
    )
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


def test_fokker_planck_note_has_simpson_error(theta_two, habitat_1d, separable_model, dirac_config):
    fine = fokker_planck_check(theta_two, DiracLaw(dirac_config), 1.0, habitat_1d, separable_model, n_grid=128)
    coarse = fokker_planck_check(theta_two, DiracLaw(dirac_config), 1.0, habitat_1d, separable_model, n_grid=64)
    err = float(fine.note.split("simpson error ~")[1])
    # |S_n - S_{n/2}|/15 tracks the Simpson error that the residual measures
    assert 0.5 * fine.value <= err <= 2.0 * fine.value
    assert coarse.value / fine.value == pytest.approx(16.0, rel=0.2)
    # on an odd grid every other point stops short of t: no estimate
    odd = fokker_planck_check(theta_two, DiracLaw(dirac_config), 1.0, habitat_1d, separable_model, n_grid=65)
    assert odd.note == "n_grid=65, t=1.0"


# ----------------------------------------------------------------- checks
def test_fokker_planck_dirac(theta_two, habitat_1d, separable_model, dirac_config):
    report = fokker_planck_check(
        theta_two, DiracLaw(dirac_config), 0.8, habitat_1d, separable_model
    )
    assert report.passed, report.line()


def test_laplace(theta_two, habitat_1d, const_model, dirac_config):
    report = laplace_uniqueness_check(theta_two, dirac_config, 2.0, habitat_1d, const_model)
    assert report.passed, report.line()


def test_chapman(theta_two, habitat_1d, separable_model, dirac_config):
    report = chapman_kolmogorov_check(
        theta_two, dirac_config, 0.3, 0.9, habitat_1d, separable_model
    )
    assert report.passed, report.line()


def test_martingale(theta_two, theta_one, habitat_1d, const_model, dirac_config, rng):
    report = martingale_residual(
        theta_two, DiracLaw(dirac_config), 0.2, 0.7, theta_one,
        habitat_1d, const_model, 4000, rng, n_grid=16,
    )
    assert report.passed, report.line()


def test_ergodicity(theta_two, habitat_1d, const_model):
    gaps, pi_value, tail = ergodicity_gap_curve(
        theta_two, habitat_1d, const_model, [1.0, 2.0, 4.0]
    )
    assert pi_value > 0
    assert np.all(np.diff(gaps) < 0)
    report = ergodicity_check(theta_two, habitat_1d, const_model)
    assert report.passed, report.line()
    report = stationarity_check(theta_two, habitat_1d, const_model, [0.5, 1.5])
    assert report.passed, report.line()


def test_ergodicity_band_for_varying_hazard():
    # the gap of an age-varying hazard decays faster than m_zero, within m_star
    hab = linear_habitat([(0.0, 1.0)], 2.0, 6.0)
    model = separable_rate(hab, 0.5, 1.0, 2.0)
    theta = Theta([(1, 1, 1), (3, 2, 1)], hab)
    report = ergodicity_check(theta, hab, model)
    assert report.passed, report.line()


def test_ergodicity_requires_floor(theta_two, habitat_1d):
    from agedpop import constant_rate

    with pytest.raises(ValueError):
        ergodicity_gap_curve(theta_two, habitat_1d, constant_rate(0.0), [1.0])


def test_count_law_small(habitat_1d, const_model, rng):
    reports = count_law_oracle(
        habitat_1d, const_model, [0.5, 2.0], 500, rng, ks_samples=5000
    )
    assert all(r.passed for r in reports), format_reports(reports)


def test_count_law_rejects_varying_hazard(habitat_1d, separable_model, rng):
    with pytest.raises(ValueError):
        count_law_oracle(habitat_1d, separable_model, [1.0], 10, rng)


def test_cross_sampler_small(theta_two, habitat_1d, separable_model, rng):
    reports = cross_sampler_check(theta_two, 0.8, habitat_1d, separable_model, 1500, rng)
    assert all(r.passed for r in reports), format_reports(reports)


# ---------------------------------------------------------------- reports
def test_report_output(tmp_path):
    reports = [
        VerificationReport("a", "stat", 0.5, 1.0, True, seed=3, n_samples=10),
        VerificationReport("b", "stat", 2.0, 1.0, False, note="why"),
    ]
    text = format_reports(reports)
    assert "PASS  a" in text and "FAIL  b" in text and "1/2 checks passed" in text
    path = tmp_path / "reports.csv"
    write_reports_csv(reports, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["name"] == "a" and rows[1]["passed"] == "False"


def test_poisson_bins_pooling(rng):
    counts = rng.poisson(5.0, 2000)
    obs, exp = _poisson_bins(counts, 5.0)
    assert np.all(exp >= 5.0)
    assert obs.sum() == 2000
    assert exp.sum() == pytest.approx(2000, abs=1e-6)
