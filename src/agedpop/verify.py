"""Verification gates: closed-form laws against simulation and quadrature.

Each check compares a closed form of agedpop.generator (the transient law
E_mu F_theta(X_t) = exp(H(t)) mu(F_{theta_t}) of its law objects, the
generator, the resolvent) with an independent route: quadrature, the
generator's integral identities, or simulation.  It returns a
VerificationReport holding the measured statistic, the threshold it was
held to and the comparison between them, from which the report derives
PASS, FAIL or SKIP; report lists can be rendered to CSV or text.
Statistical gates use a 4-standard-error band unless the criterion states
otherwise.  SUITES is the table of check calls that `agedpop verify` runs.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass

import numpy as np

from .config_space import MarkedConfiguration, _kappa_cells, kappa_distance, kappa_features
from .generator import (
    ArrivalExponent,
    DiracLaw,
    ExplicitLaw,
    FlowedTheta,
    PoissonLaw,
    apply_generator,
    compute_bounds,
    flow_pde_residual,
    kolmogorov_residual,
    particle_terms,
    resolvent,
)
from .habitat import SurvivalCumulative, age_panel_width, age_rule, survival_factor
# re-exported for callers (and the benchmark's tracer) that reach them through this module
from .habitat import chi_integral, survival_weighted_integral
from .mark_space import series_distance
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
    "survival_weighted_integral",
    "fokker_planck_check",
    "laplace_uniqueness_check",
    "martingale_residual",
    "ergodicity_check",
    "stationarity_check",
    "chapman_kolmogorov_check",
    "cross_sampler_check",
    "count_law_oracle",
    "kappa_triangle_check",
    "kappa_separation_check",
    "generator_bounds_check",
    "flow_pde_check",
    "kolmogorov_check",
    "SUITES",
]


# the comparison a report's value must pass against its threshold
_SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


@dataclass(frozen=True)
class VerificationReport:
    """One check: PASS when value <sense> threshold holds, FAIL otherwise.

    A report with no sense is a SKIP (VerificationReport.skip): the check
    did not apply, and its value and threshold are nan.
    """

    name: str
    statistic: str
    value: float
    threshold: float
    sense: str | None = "<"
    seed: int | None = None
    n_samples: int | None = None
    note: str = ""

    @classmethod
    def skip(cls, name, reason):
        return cls(name, reason, math.nan, math.nan, sense=None)

    @property
    def outcome(self):
        if self.sense is None:
            return "SKIP"
        return "PASS" if _SENSES[self.sense](self.value, self.threshold) else "FAIL"

    @property
    def passed(self):
        return self.outcome == "PASS"

    def line(self):
        if self.sense is None:
            return f"SKIP  {self.name}: {self.statistic}"
        extra = f"  [{self.note}]" if self.note else ""
        return (
            f"{self.outcome}  {self.name}: {self.statistic} = {self.value:.6e} "
            f"(threshold {self.sense} {self.threshold:.6e}){extra}"
        )


def write_reports_csv(reports, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "statistic", "value", "threshold", "passed", "seed", "n_samples", "note"])
        for r in reports:
            # repr of a float, not of a numpy scalar, so every value parses
            value, threshold = repr(float(r.value)), repr(float(r.threshold))
            passed = "skipped" if r.outcome == "SKIP" else r.passed
            writer.writerow([r.name, r.statistic, value, threshold, passed, r.seed, r.n_samples, r.note])


def format_reports(reports):
    """One line per report, then the pass count; skips are counted apart."""
    outcomes = [r.outcome for r in reports]
    skipped = outcomes.count("SKIP")
    summary = f"{outcomes.count('PASS')}/{len(outcomes) - skipped} checks passed"
    if skipped:
        summary += f", {skipped} skipped"
    return "\n".join([r.line() for r in reports] + [summary])


def fokker_planck_check(theta, initial, t, habitat, model, name="fokker-planck"):
    """Residual of mu_t(F) = mu_0(F) + int_0^t mu_s(L F) ds on the age rule.

    The s-integral runs on age_rule(0, t, age_panel_width(model,
    theta.age_scale)); mu_s(L F) is evaluated at its nodes and at those of
    the rule of half that width in one vectorized call, and the note gives
    the difference of the two sums.
    """
    law = ExplicitLaw(initial, theta, habitat, model)
    width = age_panel_width(model, theta.age_scale)
    s, weights = age_rule(0.0, t, width)
    s_half, weights_half = age_rule(0.0, t, width / 2.0)
    lf = law.expect_LF(np.concatenate([s, s_half]))
    integral = weights @ lf[: s.size]
    halving = abs(weights_half @ lf[s.size :] - integral)
    f_t, f_0 = law.expect_F(np.array([t, 0.0]))
    residual = float(abs(f_t - f_0 - integral))
    return VerificationReport(
        name=name,
        statistic="|mu_t(F) - mu_0(F) - int_0^t mu_s(LF) ds|",
        value=residual,
        threshold=1e-10,
        note=f"t={t}, {s.size} nodes, halving difference {halving:.1e}",
    )


def laplace_uniqueness_check(theta, config, lam, habitat, model, name="laplace-uniqueness"):
    """Resolvent at a configuration vs the Laplace transform of the explicit law.

    The transform int_0^inf e^{-lam s} mu_s(F) ds runs on age_rule(0, 40/lam,
    w/2), with w = min(1/lam, age_panel_width(model, theta.age_scale)) the
    panel width of the resolvent's own rule: its nodes are not the
    resolvent's, and mu_s(F) is evaluated at all of them in one call.  Since
    mu_s(F) <= 1, the tail past 40/lam is below e^{-40}/lam.
    """
    law = ExplicitLaw(DiracLaw(config), theta, habitat, model)
    lhs = resolvent(theta, lam, config, habitat, model, exponent=law.exponent)
    horizon = 40.0 / lam
    width = min(1.0 / lam, age_panel_width(model, theta.age_scale)) / 2.0
    s, weights = age_rule(0.0, horizon, width)
    rhs = float(weights @ (np.exp(-lam * s) * law.expect_F(s)))
    return VerificationReport(
        name=name,
        statistic="|mu_0(resolvent) - laplace(mu_s(F))|",
        value=abs(lhs - rhs),
        threshold=1e-12,
        note=(
            f"lambda={lam}, {s.size} nodes on [0, {horizon:.4g}] at panel width {width:.3g}, "
            f"tail below {math.exp(-40.0) / lam:.1e}"
        ),
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
    c3 = ArrivalExponent(theta, habitat, model).psi(0.0)
    bundle = initial.sample_paths(n_paths, rng)
    if t1 > 0:
        bundle.transition(t1, transient_intensity(habitat, model, t1), model, rng)
    w_vals = bundle.f_theta(witness) if witness is not None else np.ones(n_paths)
    f1 = bundle.f_theta(theta)

    def lf_by_path():
        g, phi = particle_terms(theta, model, bundle.positions, bundle.ages)
        return np.exp(-bundle.sum_by_path(g)) * (bundle.sum_by_path(phi) + c3)

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
        seed=seed,
        n_samples=n_paths,
        note=f"t1={t1}, t2={t2}, SE={se:.3e}",
    )


def ergodicity_check(theta, habitat, model, name="ergodicity"):
    """Largest gap |mu_t(F) - pi(F)| over its coupling bound P(tau > t).

    A copy started at gamma and one at pi that share their newcomers agree
    after tau, the last departure of an initial particle of either (Lindvall
    1992), so for F in (0, 1]

        |mu_t(F) - pi(F)| <= P(tau > t) = 1 - prod_i (1 - S_i(t)) e^{-(|pi| - |rho_t|)},

    S_i = survival_factor(model, x_i, a_i, t) over gamma's particles, and
    |pi| - |rho_t| the mass of pi's particles alive at t (Kingman 1993): |pi|
    is the invariant intensity's mass plus its truncation error, and all the
    |rho_t| one SurvivalCumulative of h = 1.  gamma is empty and
    _dirac_start, and t = k / max(1, m_zero), k = 1..10: under a fast hazard
    the times shrink, so the bound stays far above the rounding of the gap.
    """
    times = np.linspace(1.0, 10.0, 10) / max(1.0, model.m_zero)
    intensity = stationary_intensity(habitat, model)
    pi_value = PoissonLaw(intensity).expect_F(theta)
    newcomers = SurvivalCumulative(habitat, model, lambda x, u: 1.0)
    pi_alive = intensity.total_mass + intensity.truncation_error - newcomers(times)
    arrivals = np.exp(ArrivalExponent(theta, habitat, model).H(times))
    ratios, bounds = [], []
    for start in (MarkedConfiguration.empty(habitat.dim), _dirac_start(habitat)):
        f, _ = DiracLaw(start).aged_expectations(times, model, theta)
        survival = survival_factor(model, start.positions[:, None, :], start.ages[:, None], times)
        bound = -np.expm1(np.sum(np.log1p(-survival), axis=0) - pi_alive)
        ratios.append(np.abs(arrivals * f - pi_value) / bound)
        bounds.append(bound[-1])
    return VerificationReport(
        name=name,
        statistic="max_t |mu_t(F) - pi(F)| / P(tau > t)",
        value=float(np.max(ratios)),
        threshold=1.0,
        sense="<=",
        note=f"P(tau > {times[-1]:.4g}) = {bounds[0]:.3e} from empty, {bounds[1]:.3e} from _dirac_start",
    )


def stationarity_check(theta, habitat, model, times, name="stationarity"):
    """Starting from the invariant Poisson law, mu_t(F_theta) stays flat."""
    intensity = stationary_intensity(habitat, model)
    law = ExplicitLaw(PoissonLaw(intensity), theta, habitat, model)
    pi_value = law.expect_F(0.0)
    worst = float(np.max(np.abs(law.expect_F(np.asarray(times, dtype=float)) - pi_value)))
    return VerificationReport(
        name=name,
        statistic="max_t |mu_t(F) - pi(F)|",
        value=worst,
        threshold=1e-12,
        note=f"pi(F)={pi_value:.8f}, age window truncation error {intensity.truncation_error:.2e}",
    )


def chapman_kolmogorov_check(theta, config, s, t, habitat, model, name="chapman-kolmogorov"):
    """Two-leg vs one-leg closed forms of the transition expectation:
    E_config F_theta(X_{s+t}) against e^{H(s)} E_config F_{theta_s}(X_t).
    """
    point = DiracLaw(config)
    one_leg = ExplicitLaw(point, theta, habitat, model)
    second_leg = ExplicitLaw(point, FlowedTheta(theta, s, model), habitat, model)
    lhs = one_leg.expect_F(s + t)
    rhs = math.exp(one_leg.exponent.H(s)) * second_leg.expect_F(t)
    residual = abs(lhs - rhs)
    return VerificationReport(
        name=name,
        statistic="|one-leg - two-leg|",
        value=residual,
        threshold=1e-10,
        note=f"s={s}, t={t}",
    )


def _pool_columns(table, weight, minimum):
    """Merge adjacent columns of table, from the left, until each merged
    column's weight reaches minimum; a short remainder on the right joins
    the last merged column (all of table is one column if none reaches it).
    """
    ends, acc = [], 0.0
    for c, w in enumerate(weight):
        acc += w
        if acc >= minimum:
            ends.append(c + 1)
            acc = 0.0
    return np.add.reduceat(table, [0] + ends[:-1], axis=1)


def _ks_statistic(draws, cdf):
    """One-sample Kolmogorov-Smirnov statistic of draws against cdf.

    D = max over the sorted draws a_(i) of i/n - F(a_(i)) and
    F(a_(i)) - (i-1)/n, the two-sided statistic of scipy.stats.kstest.
    """
    f = cdf(np.sort(draws))
    n = f.size
    d_plus = np.max(np.arange(1.0, n + 1.0) / n - f)
    d_minus = np.max(f - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def _chi2_sf(x, dof):
    """P(chi^2_dof > x) for an integer dof >= 1, in closed form.

    Abramowitz & Stegun 26.4.4-26.4.5: for even dof a Poisson(x/2) tail
    sum, for odd dof erfc(sqrt(x/2)) plus a finite sum.
    """
    half = x / 2.0
    if dof % 2 == 0:
        term = total = math.exp(-half)
        for j in range(1, dof // 2):
            term *= half / j
            total += term
        return total
    total = math.erfc(math.sqrt(half))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-half)
    for j in range(1, (dof - 1) // 2 + 1):
        total += term
        term *= x / (2 * j + 1)
    return total


def _chi2_independence_p(table):
    """p-value of Pearson's chi-squared test of independence on a 2 x k table.

    Expected counts come from the margins, and dof = k - 1; with one degree
    of freedom Yates' correction moves each count half a unit (at most)
    towards its expectation, as scipy.stats.chi2_contingency does.  A table
    of one column has p-value 1.
    """
    observed = np.asarray(table, dtype=float)
    dof = observed.shape[1] - 1
    if dof == 0:
        return 1.0
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    diff = observed - expected
    if dof == 1:
        diff = np.sign(diff) * np.maximum(np.abs(diff) - 0.5, 0.0)
    return _chi2_sf(float(np.sum(diff**2 / expected)), dof)


def count_law_oracle(
    habitat, model, times, n_paths, rng, seed=None, ks_samples=100_000, name="count-law"
):
    """Immigration-death oracle for a constant hazard.

    With m constant and total arrival mass chi_mass, the count started empty
    is Poisson(chi_mass (1 - e^{-mt})/m) at every t, the stationary count is
    Poisson(chi_mass/m), and the stationary age marginal is Exponential(m)
    (truncated at the sampler's age window).  The transient means are checked
    on event-driven trajectories, the stationary intensity's mass exactly
    against chi_mass/m, and the stationary ages on draws of the rejection
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
                seed=seed,
                n_samples=n_paths,
            )
        )
    # the stationary count is Poisson(chi_mass/m): the intensity mass
    # must match it to the age window's truncation error
    intensity = stationary_intensity(habitat, model)
    lam_st = habitat.chi_mass / m
    reports.append(
        VerificationReport(
            name=f"{name}-stationary-count",
            statistic=f"|stationary intensity mass - {lam_st:.4f}|",
            value=abs(intensity.total_mass - lam_st),
            threshold=intensity.truncation_error + 1e-12 * lam_st,
            sense="<=",
        )
    )
    # stationary age marginal: truncated exponential
    _, ages = _sample_points(intensity, ks_samples, rng)
    a_max = intensity.age_upper

    def cdf(a):
        return -np.expm1(-m * np.asarray(a)) / -math.expm1(-m * a_max)

    ks_stat = _ks_statistic(ages, cdf)
    ks_threshold = 1.63 / math.sqrt(ks_samples)
    reports.append(
        VerificationReport(
            name=f"{name}-stationary-ages",
            statistic="KS statistic vs Exponential",
            value=ks_stat,
            threshold=ks_threshold,
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
            seed=seed,
            n_samples=n_paths,
            note=f"t={t}",
        )
    ]
    kmax = int(max(counts_one.max(initial=0), counts_evt.max(initial=0)))
    table = np.vstack(
        [np.bincount(counts_one, minlength=kmax + 1), np.bincount(counts_evt, minlength=kmax + 1)]
    )
    # pool sparse cells so expected counts stay reasonable
    table = _pool_columns(table, table.sum(axis=0), 10)
    p_value = _chi2_independence_p(table)
    reports.append(
        VerificationReport(
            name=f"{name}-counts",
            statistic="two-sample chi2 p-value",
            value=float(p_value),
            threshold=0.01,
            sense=">",
            seed=seed,
            n_samples=n_paths,
            note=f"t={t}",
        )
    )
    return reports


def kappa_triangle_check(habitat, rng, name="metrics-triangle"):
    """Largest triangle excess of kappa over 200 random configuration triples.

    The maximum runs over the triples with no empty configuration: a triple
    with two empty ones at one end has excess exactly 0, which would hide
    how close the others come to the bound.
    """
    n_triples, budget = 200, 12
    sizes, uniforms, ages = [], [], []
    for _ in range(3 * n_triples):  # configurations a, b, c of each triple in turn
        sizes.append(int(rng.integers(0, 5)))
        uniforms.append(rng.random((sizes[-1], habitat.dim)))
        ages.append(rng.exponential(1.0, sizes[-1]))
    # one scaling of all the uniforms gives each position the bits of its own
    pos = habitat.lower + np.concatenate(uniforms) * (habitat.upper - habitat.lower)
    cells, weights, _ = _kappa_cells(budget)
    feats = kappa_features(pos, np.concatenate(ages), sizes, habitat, budget=budget)
    feats = np.take(feats.reshape(len(sizes), -1), cells, axis=1)
    pairs = ((0, 1), (1, 2), (0, 2))  # a-b, b-c, a-c
    dab, dbc, dac = (series_distance(weights, feats[i::3], feats[j::3]) for i, j in pairs)
    nonempty = np.all(np.reshape(sizes, (n_triples, 3)) > 0, axis=1)
    worst = float(np.max((dac - dab - dbc)[nonempty]))
    return VerificationReport(
        name=name,
        statistic=f"max triangle excess (kappa, budget {budget})",
        value=worst,
        threshold=1e-12,
        sense="<=",
        n_samples=n_triples,
    )


def kappa_separation_check(habitat, name="metrics-separation"):
    """kappa of two distinct one-particle configurations exceeds its tail."""
    span = habitat.upper - habitat.lower
    a = MarkedConfiguration(habitat.lower[None, :] + 0.3 * span[None, :], np.array([1.0]))
    b = MarkedConfiguration(habitat.lower[None, :] + 0.7 * span[None, :], np.array([2.0]))
    dist, tail = kappa_distance(a, b, habitat)
    return VerificationReport(
        name=name,
        statistic="kappa distance of distinct configurations",
        value=dist,
        threshold=tail,
        sense=">",
        note="pass requires distance above the truncation tail",
    )


def generator_bounds_check(theta, habitat, model, name="generator-bounds"):
    """max |L F_theta| on fixed configurations against est_bound.

    The configurations are the empty one, _dirac_start and the particle of
    _one_particle, so the check draws nothing.  compute_bounds also asserts
    the age sandwich and the derivative domination on a grid.
    """
    bounds = compute_bounds(theta, habitat, model)
    configs = [MarkedConfiguration.empty(habitat.dim), _dirac_start(habitat), _one_particle(habitat)]
    value = max(abs(apply_generator(theta, config, habitat, model)) for config in configs)
    return VerificationReport(
        name=name,
        statistic="max |L F_theta| over 3 fixed configurations",
        value=value,
        threshold=bounds.est_bound,
        sense="<=",
        note=f"ell_theta={bounds.ell_theta:.4f}, tau_star={bounds.tau_star:.4f}",
    )


def flow_pde_check(theta, habitat, model, t1, t2, name="generator-flow-pde"):
    """flow_pde_residual at the window's midpoint and age 0.8."""
    x = habitat.midpoint[None, :]
    value = float(np.max(flow_pde_residual(theta, t1, t2, x, np.array([0.8]), model)))
    return VerificationReport(
        name=name,
        statistic="flow transport equation residual",
        value=value,
        threshold=1e-10,
        note=f"t1={t1}, t2={t2}",
    )


def kolmogorov_check(theta, habitat, model, t1, t2, name="generator-kolmogorov"):
    """kolmogorov_residual at the particle of _one_particle."""
    return VerificationReport(
        name=name,
        statistic="backward equation residual",
        value=kolmogorov_residual(theta, t1, t2, _one_particle(habitat), habitat, model),
        threshold=1e-10,
        note=f"t1={t1}, t2={t2}",
    )


def _one_particle(habitat):
    """One particle of age 0.5 at the window's midpoint."""
    return MarkedConfiguration(habitat.midpoint[None, :], np.array([0.5]))


def _dirac_start(habitat):
    """Two particles, ages 0.4 and 1.3, near the window's midpoint."""
    mid = habitat.midpoint[None, :]
    return MarkedConfiguration(np.vstack([mid, 0.9 * mid + 0.1 * habitat.lower]), np.array([0.4, 1.3]))


# Suite name -> its check calls, run in order.  Each call takes (cfg, rng),
# where cfg carries habitat, model, theta, n_paths and the run's seed, and
# returns a list of reports.  The calls look the checks up by their
# module-global names when they run, so a wrapper installed on this module
# (a tracer's) sees every call.
SUITES = {
    "metrics": [
        lambda cfg, rng: [kappa_triangle_check(cfg.habitat, rng)],
        lambda cfg, rng: [kappa_separation_check(cfg.habitat)],
    ],
    "generator": [
        lambda cfg, rng: [generator_bounds_check(cfg.theta, cfg.habitat, cfg.model)],
        lambda cfg, rng: [flow_pde_check(cfg.theta, cfg.habitat, cfg.model, 0.4, 0.6)],
        lambda cfg, rng: [kolmogorov_check(cfg.theta, cfg.habitat, cfg.model, 0.4, 0.8)],
    ],
    "laws": [
        lambda cfg, rng: [fokker_planck_check(
            cfg.theta, DiracLaw(_dirac_start(cfg.habitat)), 1.0, cfg.habitat, cfg.model,
            name="laws-fpe-dirac",
        )],
        lambda cfg, rng: [laplace_uniqueness_check(
            cfg.theta, _dirac_start(cfg.habitat), 1.5, cfg.habitat, cfg.model, name="laws-laplace"
        )],
        lambda cfg, rng: [chapman_kolmogorov_check(
            cfg.theta, _dirac_start(cfg.habitat), 0.4, 0.7, cfg.habitat, cfg.model,
            name="laws-chapman",
        )],
        lambda cfg, rng: [fokker_planck_check(
            cfg.theta, PoissonLaw(stationary_intensity(cfg.habitat, cfg.model)), 1.0,
            cfg.habitat, cfg.model, name="laws-fpe-stationary",
        )] if cfg.model.m_zero > 0 else [],
        lambda cfg, rng: [martingale_residual(
            cfg.theta, DiracLaw(_dirac_start(cfg.habitat)), 0.25, 0.75, cfg.theta, cfg.habitat,
            cfg.model, min(cfg.n_paths, 4000), rng, n_grid=32, seed=cfg.seed, name="laws-martingale",
        )],
    ],
    "sampler": [
        lambda cfg, rng: cross_sampler_check(
            cfg.theta, 1.0, cfg.habitat, cfg.model, min(cfg.n_paths, 2000), rng, seed=cfg.seed,
            name="sampler-cross",
        ),
        lambda cfg, rng: count_law_oracle(
            cfg.habitat, cfg.model, [0.5, 2.0], min(cfg.n_paths, 2000), rng, seed=cfg.seed,
            ks_samples=20_000, name="sampler-count",
        ) if cfg.model.m_zero == cfg.model.m_star > 0 else [
            VerificationReport.skip("sampler-count", "hazard not constant")
        ],
    ],
    "ergodicity": [
        lambda cfg, rng: [
            ergodicity_check(cfg.theta, cfg.habitat, cfg.model),
            stationarity_check(cfg.theta, cfg.habitat, cfg.model, [0.5, 1.0, 2.0]),
        ] if cfg.model.m_zero > 0 else [VerificationReport.skip("ergodicity", "hazard floor is zero")],
    ],
}
