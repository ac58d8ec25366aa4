"""Verification gates: closed-form laws against simulation and quadrature.

The transient law started from mu_0 is the independent superposition of a
Poisson field of newcomers and the survived-and-aged initial law.  For the
initial laws shipped here (point mass, Poisson, convolutions of those) both

    mu_t(F_theta)        and        mu_t(L F_theta)

have closed forms: the first from the explicit semigroup action, the second
from the factorization of expectations of F_theta times an additive particle
sum (for a Poisson field E[F * sum phi] = E[F] * int phi (1+theta) d rho;
for an independently thinned point mass the product form telescopes).

Each check returns a VerificationReport holding the measured statistic, the
threshold it was held to, and a pass flag; report lists can be rendered to
CSV or text.  Statistical gates use a 4-standard-error band unless the
criterion states otherwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from .config_space import MarkedConfiguration
from .generator import ArrivalExponent, FlowedTheta, flow, resolvent
# survival_weighted_integral is re-exported here for callers (and the
# benchmark's tracer) that reach it through this module
from .habitat import SurvivalCumulative, chi_integral, survival_weighted_integral
from .sampler import (
    PathBundle,
    _sample_points,
    event_driven_simulate,
    stationary_intensity,
    transient_intensity,
)

__all__ = [
    "VerificationReport",
    "write_reports_csv",
    "format_reports",
    "DiracLaw",
    "PoissonLaw",
    "ConvolutionLaw",
    "ExplicitLaw",
    "survival_weighted_integral",
    "fokker_planck_check",
    "laplace_uniqueness_check",
    "martingale_residual",
    "ergodicity_gap_curve",
    "ergodicity_check",
    "chapman_kolmogorov_check",
    "cross_sampler_check",
    "count_law_oracle",
]


@dataclass(frozen=True)
class VerificationReport:
    name: str
    statistic: str
    value: float
    threshold: float
    passed: bool
    seed: int | None = None
    n_samples: int | None = None
    note: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.note}]" if self.note else ""
        return (
            f"{status}  {self.name}: {self.statistic} = {self.value:.6e} "
            f"(threshold {self.threshold:.6e}){extra}"
        )


def write_reports_csv(reports, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "statistic", "value", "threshold", "passed", "seed", "n_samples", "note"])
        for r in reports:
            writer.writerow(
                [r.name, r.statistic, repr(r.value), repr(r.threshold), r.passed, r.seed, r.n_samples, r.note]
            )


def format_reports(reports):
    lines = [r.line() for r in reports]
    bad = sum(not r.passed for r in reports)
    lines.append(f"{len(reports) - bad}/{len(reports)} checks passed")
    return "\n".join(lines)


class _InitialLaw:
    """Single-law expectations, read off aged_expectations at age shift 0.

    aged_expectations(ts, model, vtheta, phi=None) returns, for the law aged
    by each time of ts under model (None keeps the law's own),
    (E F_theta, E[F_theta * sum_particles phi]) as two arrays; the second is
    None when phi is None.  Each is computed once per call, for all ts.
    """

    def expect_F(self, vtheta):
        return float(self.aged_expectations(0.0, None, vtheta)[0][0])

    def expect_weighted(self, vtheta, phi):
        return float(self.aged_expectations(0.0, None, vtheta, phi)[1][0])


class DiracLaw(_InitialLaw):
    """A point mass at a configuration pushed through t of independent
    survival and aging; t = 0 is the point mass itself, whose expect_F is
    F_theta at the configuration.
    """

    def __init__(self, config, t=0.0, model=None):
        self.config = config
        self.t = float(t)
        self.model = model

    def aged_expectations(self, ts, model, vtheta, phi=None):
        tau = self.t + np.atleast_1d(np.asarray(ts, dtype=float))
        model = self.model if model is None else model
        if model is None and np.any(tau):
            raise ValueError("aging a point mass needs a departure model")
        cfg = self.config
        if not len(cfg):
            return np.ones(tau.shape), None if phi is None else np.zeros(tau.shape)
        # one row per particle, one column per age shift
        pos = cfg.positions[:, None, :]
        ages = cfg.ages[:, None]
        shifted = ages + tau
        # log of the survival chance q over the shift
        log_q = 0.0 if model is None else model.cumulative(pos, ages) - model.cumulative(pos, shifted)
        g = vtheta.g(pos, shifted)
        # -log(1 + q theta) = g - log1p((1 - q)(e^g - 1)), exactly g where q = 1
        g_aged = g - np.log1p(-np.expm1(log_q) * np.expm1(g))
        f = np.exp(-np.sum(g_aged, axis=0))
        if phi is None:
            return f, None
        # each particle contributes q phi (1 + theta) / (1 + q theta)
        contrib = phi(pos, shifted) * np.exp(log_q + g_aged - g)
        return f, f * np.sum(contrib, axis=0)

    def aged(self, s, model):
        return DiracLaw(self.config, self.t + s, model)

    def sample_points(self, n_paths, rng):
        bundle = PathBundle.from_configuration(self.config, n_paths)
        if self.t:
            bundle.thin_and_age(self.t, self.model, rng)
        return bundle.path_ids, bundle.positions, bundle.ages


class PoissonLaw(_InitialLaw):
    """Poisson field over an intensity, optionally pushed through age_offset.

    Pushing a Poisson field through survival-and-aging yields the Poisson
    field of the pushed intensity, which for the survival-weighted densities
    used here is just the same integrand over a shifted age window.  The
    window integrals for every shift come from one SurvivalCumulative per
    integrand, started at age_offset.
    """

    def __init__(self, intensity, age_offset=0.0):
        self.intensity = intensity
        self.age_offset = float(age_offset)

    def _window_integrals(self, h, breaks, age_scale, lo):
        """int over ages [lo, lo + age_upper] of int h e^{-M} chi(dx), per lo."""
        cumulative = SurvivalCumulative(
            self.intensity.habitat, self.intensity.model, h, breaks, self.age_offset, age_scale
        )
        return cumulative(lo + self.intensity.age_upper) - cumulative(lo)

    def aged_expectations(self, ts, model, vtheta, phi=None):
        lo = self.age_offset + np.atleast_1d(np.asarray(ts, dtype=float))
        breaks = getattr(vtheta, "x_breakpoints", ())
        scale = getattr(vtheta, "age_scale", 1.0)
        f = np.exp(self._window_integrals(vtheta.theta, breaks, scale, lo))
        if phi is None:
            return f, None

        def h(x, a):
            return phi(x, a) * (1.0 + vtheta.theta(x, a))

        return f, f * self._window_integrals(h, breaks, scale, lo)

    def aged(self, s, model):
        return PoissonLaw(self.intensity, self.age_offset + s)

    def sample_points(self, n_paths, rng):
        bundle = PathBundle(n_paths, self.intensity.habitat.dim)
        bundle.add_poisson(self.intensity, rng)
        bundle.thin_and_age(self.age_offset, self.intensity.model, rng)
        return bundle.path_ids, bundle.positions, bundle.ages


class ConvolutionLaw(_InitialLaw):
    """Law of the union of independent draws from the component laws."""

    def __init__(self, parts):
        self.parts = list(parts)

    def aged_expectations(self, ts, model, vtheta, phi=None):
        pairs = [p.aged_expectations(ts, model, vtheta, phi) for p in self.parts]
        fs = [f for f, _ in pairs]
        f = np.prod(fs, axis=0)
        if phi is None:
            return f, None
        # E[F sum phi] = sum_i E_i[F sum phi] prod_{j != i} E_j[F]
        w = sum(w_i * np.prod(fs[:i] + fs[i + 1 :], axis=0) for i, (_, w_i) in enumerate(pairs))
        return f, w

    def aged(self, s, model):
        return ConvolutionLaw([p.aged(s, model) for p in self.parts])

    def sample_points(self, n_paths, rng):
        ids_all, pos_all, ages_all = [], [], []
        dim = None
        for p in self.parts:
            ids, pos, ages = p.sample_points(n_paths, rng)
            ids_all.append(ids)
            pos_all.append(pos)
            ages_all.append(ages)
            dim = pos.shape[1]
        return (
            np.concatenate(ids_all),
            np.vstack(pos_all) if pos_all else np.empty((0, dim or 1)),
            np.concatenate(ages_all),
        )


class ExplicitLaw:
    """Closed-form transient law from an initial law under a test function.

    expect_F(t) evaluates mu_t(F_theta) exactly (up to quadrature);
    expect_LF(t) evaluates mu_t(L F_theta) through the factorized particle
    sums, an independent route from differentiating expect_F.  Both are
    vectorized over t (a scalar t gives a float), and the age integrals of
    the arrivals are running SurvivalCumulatives built once per law.
    """

    def __init__(self, initial, theta, habitat, model):
        self.initial = initial
        self.theta = theta
        self.habitat = habitat
        self.model = model
        self.exponent = ArrivalExponent(theta, habitat, model)
        self._c3 = chi_integral(
            habitat, lambda x: theta.theta(x, np.zeros(x.shape[:-1])), points=theta.x_breakpoints
        )
        self._arrivals_weighted = SurvivalCumulative(
            habitat, model, self._phi_weighted, theta.x_breakpoints, age_scale=theta.age_scale
        )

    def _phi(self, pos, ages):
        g = self.theta.g(pos, ages)
        gp = self.theta.g_age_derivative(pos, ages)
        m = self.model.rate(pos, ages)
        return -gp + m * np.expm1(g)

    def _phi_weighted(self, pos, ages):
        return self._phi(pos, ages) * (1.0 + self.theta.theta(pos, ages))

    def expect_F(self, t):
        f, _ = self.initial.aged_expectations(t, self.model, self.theta)
        out = np.exp(self.exponent.H(t)) * f
        return float(out[0]) if np.ndim(t) == 0 else out

    def expect_LF(self, t):
        f, w = self.initial.aged_expectations(t, self.model, self.theta, self._phi)
        pre = np.exp(self.exponent.H(t))
        p_w = self._arrivals_weighted(t)
        out = pre * (f * (self._c3 + p_w) + w)
        return float(out[0]) if np.ndim(t) == 0 else out

    def law_at(self, t):
        parts = []
        if t > 0:
            parts.append(PoissonLaw(transient_intensity(self.habitat, self.model, t)))
        parts.append(self.initial.aged(t, self.model))
        return ConvolutionLaw(parts)


def fokker_planck_check(theta, initial, t, habitat, model, n_grid=64, name="fokker-planck"):
    """Residual of mu_t(F) = mu_0(F) + int_0^t mu_s(L F) ds, Simpson in s.

    mu_s(L F) is evaluated on the whole grid in one vectorized call.  For an
    even n_grid the note gives the Simpson error estimate |S_n - S_{n/2}|/15.
    """
    law = ExplicitLaw(initial, theta, habitat, model)
    grid = np.linspace(0.0, t, n_grid + 1)
    lf = law.expect_LF(grid)
    integral = integrate.simpson(lf, x=grid)
    note = f"n_grid={n_grid}, t={t}"
    if n_grid % 2 == 0:
        # the halved rule needs every other grid point to reach t
        simpson_err = abs(integral - integrate.simpson(lf[::2], x=grid[::2])) / 15.0
        note += f", simpson error ~{simpson_err:.1e}"
    f_t, f_0 = law.expect_F(np.array([t, 0.0]))
    residual = abs(f_t - f_0 - integral)
    return VerificationReport(
        name=name,
        statistic="|mu_t(F) - mu_0(F) - simpson(mu_s(LF))|",
        value=residual,
        threshold=1e-8,
        passed=residual < 1e-8,
        note=note,
    )


def laplace_uniqueness_check(theta, config, lam, habitat, model, name="laplace-uniqueness"):
    """Resolvent at a configuration vs the Laplace transform of the explicit law."""
    law = ExplicitLaw(DiracLaw(config), theta, habitat, model)
    lhs = resolvent(theta, 0.0, lam, config, habitat, model, exponent=law.exponent)
    horizon = 40.0 / lam
    rhs, _ = integrate.quad(
        lambda s: math.exp(-lam * s) * law.expect_F(s), 0.0, horizon, epsabs=1e-10, limit=400
    )
    residual = abs(lhs - rhs)
    return VerificationReport(
        name=name,
        statistic="|mu_0(resolvent) - laplace(mu_s(F))|",
        value=residual,
        threshold=1e-6,
        passed=residual < 1e-6,
        note=f"lambda={lam}",
    )


def martingale_residual(
    theta,
    initial,
    t1,
    t2,
    witness,
    habitat,
    model,
    n_paths,
    rng,
    n_grid=64,
    seed=None,
    name="martingale",
):
    """MC test that F(X_t) - int_0^t (L F)(X_u) du has flat expectation.

    Estimates E[(F(X_{t2}) - F(X_{t1}) - int_{t1}^{t2} L F(X_u) du) * W] with
    W = F_witness(X_{t1}); the time integral uses the midpoint rule on n_grid
    cells, fine enough that its bias is far below the Monte Carlo error.
    """
    if not (0.0 <= t1 < t2):
        raise ValueError("need 0 <= t1 < t2")
    c3 = chi_integral(
        habitat, lambda x: theta.theta(x, np.zeros(x.shape[:-1])), points=theta.x_breakpoints
    )
    bundle = PathBundle(n_paths, habitat.dim)
    ids, pos, ages = initial.sample_points(n_paths, rng)
    bundle.path_ids, bundle.positions, bundle.ages = ids, pos, ages
    if t1 > 0:
        bundle.transition(t1, transient_intensity(habitat, model, t1), model, rng)
    w_vals = bundle.f_theta(witness) if witness is not None else np.ones(n_paths)
    f1 = bundle.f_theta(theta)

    def lf_by_path():
        if bundle.path_ids.size == 0:
            return np.full(n_paths, c3)
        g = theta.g(bundle.positions, bundle.ages)
        gp = theta.g_age_derivative(bundle.positions, bundle.ages)
        m = model.rate(bundle.positions, bundle.ages)
        sums = bundle.sum_by_path(g)
        aging = bundle.sum_by_path(gp)
        dep = bundle.sum_by_path(m * np.expm1(g))
        return np.exp(-sums) * (-aging + dep + c3)

    delta = (t2 - t1) / n_grid
    half_int = transient_intensity(habitat, model, delta / 2.0)
    full_int = transient_intensity(habitat, model, delta)
    integral = np.zeros(n_paths)
    bundle.transition(delta / 2.0, half_int, model, rng)
    for j in range(n_grid):
        integral += delta * lf_by_path()
        if j < n_grid - 1:
            bundle.transition(delta, full_int, model, rng)
    bundle.transition(delta / 2.0, half_int, model, rng)
    f2 = bundle.f_theta(theta)
    residuals = (f2 - f1 - integral) * w_vals
    est = float(residuals.mean())
    se = float(residuals.std(ddof=1) / math.sqrt(n_paths))
    return VerificationReport(
        name=name,
        statistic="|mean martingale increment|",
        value=abs(est),
        threshold=4.0 * se,
        passed=abs(est) < 4.0 * se,
        seed=seed,
        n_samples=n_paths,
        note=f"t1={t1}, t2={t2}, SE={se:.3e}",
    )


def ergodicity_gap_curve(theta, habitat, model, times):
    """Gaps |mu_t(F_theta) - pi(F_theta)| from the empty start, plus metadata.

    Returns (gaps, pi_value, tail_bound).  Requires m_zero > 0.
    """
    if model.m_zero <= 0:
        raise ValueError("ergodicity requires a positive hazard floor m_zero")
    exponent = ArrivalExponent(theta, habitat, model)
    h_inf, tail = exponent.H_limit()
    pi_value = math.exp(h_inf)
    gaps = np.abs(np.exp(exponent.H(np.asarray(times, dtype=float))) - pi_value)
    return gaps, pi_value, tail


def ergodicity_check(theta, habitat, model, times=None, name="ergodicity"):
    """Exponential convergence to the invariant value from the empty start.

    Fits the log-gap slope and checks the final gap against the closed-form
    envelope chi_mass/m_zero * exp(-m_zero t) carried through the exponential.
    The gap decays at least at the floor rate m_zero, and no faster than
    m_star because the age sandwich keeps |theta| above zero, so the slope
    must lie in [-m_star - tol, -m_zero + tol] with tol = 0.1 max(1, m_zero).
    """
    if times is None:
        times = np.linspace(1.0, 10.0, 10)
    times = np.asarray(times, dtype=float)
    gaps, pi_value, _ = ergodicity_gap_curve(theta, habitat, model, times)
    m0, m_star = model.m_zero, model.m_star
    t_max = float(times[-1])
    delta = habitat.chi_mass / m0 * math.exp(-m0 * t_max)
    envelope = pi_value * math.expm1(delta)
    positive = gaps > 0
    slope = float(np.polyfit(times[positive], np.log(gaps[positive]), 1)[0])
    tol = 0.1 * max(1.0, m0)
    ok = gaps[-1] <= envelope and -m_star - tol <= slope <= -m0 + tol
    return VerificationReport(
        name=name,
        statistic="final gap",
        value=float(gaps[-1]),
        threshold=envelope,
        passed=bool(ok),
        note=f"log-slope {slope:.4f} vs band [{-m_star - tol:.4f}, {-m0 + tol:.4f}]",
    )


def stationarity_check(theta, habitat, model, times, name="stationarity"):
    """Starting from the invariant Poisson law, mu_t(F_theta) stays flat."""
    intensity = stationary_intensity(habitat, model)
    law = ExplicitLaw(PoissonLaw(intensity), theta, habitat, model)
    pi_value = law.expect_F(0.0)
    worst = float(np.max(np.abs(law.expect_F(np.asarray(times, dtype=float)) - pi_value)))
    tol = 1e-6
    return VerificationReport(
        name=name,
        statistic="max_t |mu_t(F) - pi(F)|",
        value=worst,
        threshold=tol,
        passed=worst < tol,
        note=f"pi(F)={pi_value:.8f}, age window truncation error {intensity.truncation_error:.2e}",
    )


def chapman_kolmogorov_check(theta, config, s, t, habitat, model, name="chapman-kolmogorov"):
    """Two-leg vs one-leg closed forms of the transition expectation."""
    one = ArrivalExponent(theta, habitat, model)
    lhs = math.exp(one.H(s + t)) * DiracLaw(config).aged(s + t, model).expect_F(theta)
    flowed = FlowedTheta(theta, s, model)
    two_stage = ArrivalExponent(flowed, habitat, model)
    rhs = (
        math.exp(one.H(s))
        * math.exp(two_stage.H(t))
        * DiracLaw(config).aged(t, model).expect_F(flowed)
    )
    residual = abs(lhs - rhs)
    return VerificationReport(
        name=name,
        statistic="|one-leg - two-leg|",
        value=residual,
        threshold=1e-8,
        passed=residual < 1e-8,
        note=f"s={s}, t={t}",
    )


def _poisson_bins(counts, mean, min_expected=5.0):
    """Pool Poisson(mean) pmf bins so each expected cell count is >= 5."""
    n = counts.size
    kmax = int(max(counts.max(initial=0), math.ceil(mean + 10 * math.sqrt(mean + 1.0))))
    ks = np.arange(kmax + 1)
    pmf = stats.poisson.pmf(ks, mean)
    pmf = np.append(pmf, max(1.0 - pmf.sum(), 0.0))  # right tail
    observed = np.bincount(counts, minlength=kmax + 2)[: kmax + 2]
    # pool from the right and the left until expected >= min_expected
    exp_counts = pmf * n
    obs_pool, exp_pool = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, exp_counts):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_pool.append(acc_o)
            exp_pool.append(acc_e)
            acc_o = acc_e = 0.0
    if exp_pool:
        obs_pool[-1] += acc_o
        exp_pool[-1] += acc_e
    return np.asarray(obs_pool), np.asarray(exp_pool)


def count_law_oracle(
    habitat, model, times, n_paths, rng, seed=None, ks_samples=100_000, name="count-law"
):
    """Immigration-death oracle for a constant hazard.

    With m constant and total arrival mass chi_mass, the count started empty
    is Poisson(chi_mass (1 - e^{-mt})/m) at every t, the stationary count is
    Poisson(chi_mass/m), and the stationary age marginal is Exponential(m)
    (truncated at the sampler's age window).  The transient means are checked
    on event-driven trajectories; the stationary draws exercise the rejection
    sampler.
    """
    m = model.m_star
    if model.m_zero != m:
        raise ValueError("the count oracle applies to constant hazards")
    reports = []
    times = sorted(times)
    horizon = times[-1]
    empty = MarkedConfiguration.empty(habitat.dim)
    traj = event_driven_simulate(empty, horizon, habitat, model, rng, n_paths=n_paths)
    counts = np.stack([traj.state_at(t).counts() for t in times])
    for i, t in enumerate(times):
        lam = habitat.chi_mass * (-math.expm1(-m * t)) / m
        err = abs(counts[i].mean() - lam)
        band = 3.0 * math.sqrt(lam / n_paths)
        reports.append(
            VerificationReport(
                name=f"{name}-transient-mean",
                statistic=f"|mean count - {lam:.4f}| at t={t}",
                value=err,
                threshold=band,
                passed=err < band,
                seed=seed,
                n_samples=n_paths,
            )
        )
    # stationary count distribution via the rejection sampler
    intensity = stationary_intensity(habitat, model)
    lam_st = habitat.chi_mass / m
    draw_counts = rng.poisson(intensity.total_mass, n_paths).astype(np.int64)
    obs, exp = _poisson_bins(draw_counts, lam_st)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = max(len(obs) - 1, 1)
    p_value = float(stats.chi2.sf(chi2, dof))
    reports.append(
        VerificationReport(
            name=f"{name}-stationary-count",
            statistic="chi2 p-value vs Poisson",
            value=p_value,
            threshold=0.01,
            passed=p_value > 0.01,
            seed=seed,
            n_samples=n_paths,
            note=f"chi2={chi2:.2f}, dof={dof}",
        )
    )
    # stationary age marginal: truncated exponential
    _, ages = _sample_points(intensity, ks_samples, rng)
    a_max = intensity.age_upper

    def cdf(a):
        return -np.expm1(-m * np.asarray(a)) / -math.expm1(-m * a_max)

    ks_stat = float(stats.kstest(ages, cdf).statistic)
    ks_threshold = 1.63 / math.sqrt(ks_samples)
    reports.append(
        VerificationReport(
            name=f"{name}-stationary-ages",
            statistic="KS statistic vs Exponential",
            value=ks_stat,
            threshold=ks_threshold,
            passed=ks_stat < ks_threshold,
            seed=seed,
            n_samples=ks_samples,
        )
    )
    return reports


def cross_sampler_check(theta, t, habitat, model, n_paths, rng, seed=None, name="cross-sampler"):
    """Event-driven vs one-shot transition sampling from the empty start.

    Compares the mean of F_theta (4 SE band on the difference) and the count
    histograms (two-sample chi-squared at the 1% level).
    """
    bundle = PathBundle(n_paths, habitat.dim)
    bundle.add_poisson(transient_intensity(habitat, model, t), rng)
    f_one = bundle.f_theta(theta)
    counts_one = bundle.counts()
    empty = MarkedConfiguration.empty(habitat.dim)
    state = event_driven_simulate(empty, t, habitat, model, rng, n_paths=n_paths).state_at(t)
    f_evt = state.f_theta(theta)
    counts_evt = state.counts()
    diff = f_one.mean() - f_evt.mean()
    se = math.sqrt(f_one.var(ddof=1) / n_paths + f_evt.var(ddof=1) / n_paths)
    reports = [
        VerificationReport(
            name=f"{name}-f-mean",
            statistic="|mean F one-shot - mean F event|",
            value=abs(float(diff)),
            threshold=4.0 * se,
            passed=abs(diff) < 4.0 * se,
            seed=seed,
            n_samples=n_paths,
            note=f"t={t}",
        )
    ]
    kmax = int(max(counts_one.max(initial=0), counts_evt.max(initial=0)))
    table = np.vstack(
        [np.bincount(counts_one, minlength=kmax + 1), np.bincount(counts_evt, minlength=kmax + 1)]
    )
    keep = table.sum(axis=0) > 0
    table = table[:, keep]
    # pool sparse cells so expected counts stay reasonable
    col_tot = table.sum(axis=0)
    pooled = [np.zeros(2)]
    acc = np.zeros(2)
    for c in range(table.shape[1]):
        acc = acc + table[:, c]
        if acc.sum() >= 10:
            pooled.append(acc.copy())
            acc[:] = 0
    pooled[0] += acc
    table = np.stack([p for p in pooled if p.sum() > 0], axis=1)
    if table.shape[1] > 1:
        _, p_value, _, _ = stats.chi2_contingency(table)
    else:
        p_value = 1.0
    reports.append(
        VerificationReport(
            name=f"{name}-counts",
            statistic="two-sample chi2 p-value",
            value=float(p_value),
            threshold=0.01,
            passed=p_value > 0.01,
            seed=seed,
            n_samples=n_paths,
            note=f"t={t}",
        )
    )
    return reports
