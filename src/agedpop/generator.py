"""Markov generator, age flow, the explicit transient law, and resolvent.

The process generator acts on configuration functionals F by

    (L F)(config) = sum_particles d/dalpha F
                  + sum_particles m(x, alpha) [F(config minus particle) - F]
                  + int_window [F(config plus (x, 0)) - F] chi(dx).

On exponential test functionals F_theta the three parts close analytically:

    L F_theta = F_theta * ( -sum g'(x, alpha)
                            + sum m(x, alpha) (exp(g(x, alpha)) - 1)
                            + int theta(x, 0) chi(dx) ).

The age flow transports a test function along aging and survival:

    theta_t(x, alpha) = theta(x, alpha + t) * exp(M(x, alpha) - M(x, alpha+t)),

satisfies the composition law (theta_t)_s = theta_{t+s} exactly, and solves
d/dt theta_t = d/dalpha theta_t - m theta_t.  The law at time t started
from mu is the independent superposition of a Poisson field of newcomers
and the survived-and-aged initial law, so the transient law is explicit:

    E_mu F_theta(X_t) = exp(H(t)) mu(F_{theta_t}),
    H(t) = int_0^t int theta(x, u) e^{-M(x,u)} chi(dx) du.

The law objects carry it.  DiracLaw (a point mass), PoissonLaw and
ConvolutionLaw give mu(F_{theta_t}) and mu(F_{theta_t} sum phi) for every t
at once; ExplicitLaw multiplies in exp(H(t)) to give mu_t(F_theta) and
mu_t(L F_theta), the second from the factorization of expectations of
F_theta times an additive particle sum (for a Poisson field E[F * sum phi]
= E[F] * int phi (1+theta) d rho; for an independently thinned point mass
the product form telescopes).  explicit_solution is the point-mass case,
and the resolvent is its Laplace transform in t.

Every integral here runs on the two fixed rules of agedpop.habitat: the
spatial rule of gauss_profile_nodes and the 16-point Gauss-Legendre age
panels, no wider than age_panel_width(model, theta.age_scale).  H is a
SurvivalCumulative, and the t-integrals of the resolvent use panels of width
at most 1/lam as well, evaluated for all t at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .habitat import (
    SurvivalCumulative,
    age_panel_width,
    age_rule,
    chi_integral,
    log_survival,
    survival_factor,
)
from .mark_space import SIGMA_BAR, u_basis_max, u_prime_max_constant
from .sampler import PathBundle

__all__ = [
    "FlowedTheta",
    "flow",
    "flow_pde_residual",
    "ArrivalExponent",
    "apply_generator",
    "particle_terms",
    "DiracLaw",
    "PoissonLaw",
    "ConvolutionLaw",
    "ExplicitLaw",
    "explicit_solution",
    "flowed_exponent",
    "kolmogorov_residual",
    "resolvent",
    "resolvent_identity_residual",
    "GeneratorBounds",
    "compute_bounds",
]


def flowed_exponent(g, log_q):
    """-log(1 + q theta) from the exponent g = -log(1 + theta) and log q.

    Written g - log1p((1 - q)(e^g - 1)): exactly g where q = 1, and no loss
    of precision when theta is near -1.  The one spelling of the exponent of
    a survival-thinned test function (FlowedTheta.g, the aged point mass).
    """
    return g - np.log1p(-np.expm1(log_q) * np.expm1(g))


class FlowedTheta:
    """theta flowed through age t >= 0 under a departure model.

    Evaluates theta_t(x, alpha) = theta(x, alpha + t) q_t(x, alpha) with
    q_t = exp(M(x, alpha) - M(x, alpha + t)); stays in (-1, 0], and its
    exponent g_t = -log(1 + theta_t) never exceeds g(x, alpha + t) and is
    exactly g at t = 0.  t may be an array of flow times, which broadcasts
    against the age argument.
    """

    __slots__ = ("base", "t", "model")

    def __init__(self, base, t, model):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("flow time must be nonnegative")
        if isinstance(base, FlowedTheta):
            # composition law: flowing a flowed function adds the times
            t = t + base.t
            base = base.base
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "t", float(t) if t.ndim == 0 else t)
        object.__setattr__(self, "model", model)

    def __setattr__(self, *a):
        raise AttributeError("FlowedTheta is immutable")

    @property
    def x_breakpoints(self):
        return self.base.x_breakpoints

    @property
    def age_scale(self):
        return self.base.age_scale

    def theta(self, x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return self.base.theta(x, alpha + self.t) * survival_factor(self.model, x, alpha, self.t)

    __call__ = theta

    def g(self, x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        g = self.base.g(x, alpha + self.t)
        return flowed_exponent(g, log_survival(self.model, x, alpha, self.t))

    def g_age_derivative(self, x, alpha):
        """d/dalpha g_t = q e^{g_t} (g'(a) e^{-g(a)} + theta(a) (m(a) - m(alpha))),
        a = alpha + t, from one base g, one base g' and one log_survival.
        """
        alpha = np.asarray(alpha, dtype=float)
        shifted = alpha + self.t
        g = self.base.g(x, shifted)
        log_q = log_survival(self.model, x, alpha, self.t)
        rate_gap = self.model.rate(x, shifted) - self.model.rate(x, alpha)
        inner = self.base.g_age_derivative(x, shifted) * np.exp(-g) + np.expm1(-g) * rate_gap
        return np.exp(log_q + flowed_exponent(g, log_q)) * inner

    def time_derivative(self, x, alpha):
        """d/dt theta_t = d/dalpha theta_t - m(x, alpha) theta_t, with
        d/dalpha theta_t = -g_t' e^{-g_t}.
        """
        g_t = self.g(x, alpha)
        d_alpha = -self.g_age_derivative(x, alpha) * np.exp(-g_t)
        return d_alpha - self.model.rate(x, alpha) * np.expm1(-g_t)


def flow(theta, t, model=None):
    """Flow a test function by time t; composes additively in t."""
    if isinstance(theta, FlowedTheta):
        return FlowedTheta(theta, t, theta.model)
    if model is None:
        raise ValueError("flowing a plain Theta requires the departure model")
    return FlowedTheta(theta, t, model)


def flow_pde_residual(theta, t1, t2, x, alpha, model):
    """|theta_{t2} - theta_{t1} - int_{t1}^{t2} d/ds theta_s ds| at (x, alpha).

    The transport equation in integral form: the s-integral of
    FlowedTheta.time_derivative runs on age_rule(t1, t2,
    age_panel_width(model, theta.age_scale)), every node in one call.
    """
    if not 0.0 <= t1 <= t2:
        raise ValueError("need 0 <= t1 <= t2")
    s, weights = age_rule(t1, t2, age_panel_width(model, theta.age_scale))
    # one trailing column per flow time
    x = np.asarray(x, dtype=float)[..., None, :]
    alpha = np.asarray(alpha, dtype=float)[..., None]
    ends = FlowedTheta(theta, np.array([t1, t2]), model).theta(x, alpha)
    rates = FlowedTheta(theta, s, model).time_derivative(x, alpha)
    return np.abs(ends[..., 1] - ends[..., 0] - rates @ weights)


class ArrivalExponent:
    """The arrival-side exponent H(T) = int_0^T psi(u) du with

        psi(u) = int_window theta(x, u) exp(-M(x, u)) chi(dx).

    psi is evaluated on fixed Gauss-Legendre nodes split at the plateau kinks
    (exact for the smooth pieces).  H is a SurvivalCumulative: 16-point
    Gauss-Legendre on age panels of width age_panel_width(model,
    theta.age_scale), summed once and cached, so a vectorized call over many
    T costs no new psi evaluations below the panels already built.
    """

    def __init__(self, theta, habitat, model):
        self.theta = theta
        self.habitat = habitat
        self.model = model
        self._cumulative = SurvivalCumulative(
            habitat, model, theta.theta, theta.x_breakpoints, age_scale=theta.age_scale
        )

    def psi(self, u):
        """Vectorized over u >= 0."""
        return self._cumulative.slice(u)

    def H(self, T):
        """int_0^T psi; vectorized over T >= 0."""
        return self._cumulative(T)

    H_quad = H  # former name, still traced by perfbench


def particle_terms(theta_like, model, x, alpha):
    """(g, phi) at particles (x, alpha), phi = -g' + m (e^g - 1).

    phi is the particle term of L F_theta = F_theta (sum phi + arrival
    constant); every reduction of it, per configuration or per path, reads
    it here.
    """
    g = theta_like.g(x, alpha)
    return g, -theta_like.g_age_derivative(x, alpha) + model.rate(x, alpha) * np.expm1(g)


def apply_generator(theta_like, config, habitat, model):
    """(L F_theta)(config) for a plain or flowed test function.

    The arrival constant int theta_t(x, 0) chi(dx) is psi(t) of the base
    function's ArrivalExponent at the flow time t (0 for a plain theta).  A
    FlowedTheta with an array of flow times gives an array, one value per
    time.
    """
    if isinstance(theta_like, FlowedTheta):
        base, t = theta_like.base, theta_like.t
    else:
        base, t = theta_like, 0.0
    arrival = ArrivalExponent(base, habitat, model).psi(t)
    # one row per particle, one column per flow time
    g, phi = particle_terms(theta_like, model, config.positions[:, None, :], config.ages[:, None])
    out = np.exp(-np.sum(g, axis=0)) * (np.sum(phi, axis=0) + arrival)
    return float(out[0]) if np.ndim(t) == 0 else out


class _InitialLaw:
    """expect_F, read off aged_expectations at age shift 0.

    aged_expectations(ts, model, vtheta, phi=None) returns, for the law
    pushed through each time of ts of survival and aging under model,
    (E F_theta, E[F_theta * sum_particles phi]) as two arrays; the second is
    None when phi is None.  Each is computed once per call, for all ts; time
    enters a law only there.  sample_paths(n_paths, rng) draws n_paths iid
    configurations from the law itself as a PathBundle (PathBundle.thin_and_age
    ages them).
    """

    def expect_F(self, vtheta):
        return float(self.aged_expectations(0.0, None, vtheta)[0][0])


class DiracLaw(_InitialLaw):
    """A point mass at a configuration; its expect_F is F_theta there.

    Aged by t, each particle survives with chance q_t independently, so the
    product form of F_theta telescopes particle by particle: the aged mass
    gives F_{theta_t}(config), the one spelling of it.
    """

    def __init__(self, config):
        self.config = config

    def aged_expectations(self, ts, model, vtheta, phi=None):
        tau = np.atleast_1d(np.asarray(ts, dtype=float))
        if model is None and np.any(tau):
            raise ValueError("aging a point mass needs a departure model")
        cfg = self.config
        # one row per particle, one column per age shift
        pos = cfg.positions[:, None, :]
        ages = cfg.ages[:, None]
        shifted = ages + tau
        # log of the survival chance q over the shift
        log_q = 0.0 if model is None else log_survival(model, pos, ages, tau)
        g = vtheta.g(pos, shifted)
        g_aged = flowed_exponent(g, log_q)
        f = np.exp(-np.sum(g_aged, axis=0))
        if phi is None:
            return f, None
        # each particle contributes q phi (1 + theta) / (1 + q theta)
        contrib = phi(pos, shifted) * np.exp(log_q + g_aged - g)
        return f, f * np.sum(contrib, axis=0)

    def sample_paths(self, n_paths, rng):
        return PathBundle.from_configuration(self.config, n_paths)


class PoissonLaw(_InitialLaw):
    """Poisson field over an intensity.

    Pushing a Poisson field through survival-and-aging yields the Poisson
    field of the pushed intensity, which for the survival-weighted densities
    used here is just the same integrand over the age window shifted by t.
    The window integrals for every shift come from one SurvivalCumulative
    per integrand.  Over the stationary intensity, expect_F is the invariant
    value pi(F_theta), short of it by the intensity's truncation_error.
    """

    def __init__(self, intensity):
        self.intensity = intensity

    def _window_integrals(self, h, vtheta, lo):
        """int over ages [lo, lo + age_upper] of int h e^{-M} chi(dx), per lo."""
        habitat, model = self.intensity.habitat, self.intensity.model
        cumulative = SurvivalCumulative(habitat, model, h, vtheta.x_breakpoints, age_scale=vtheta.age_scale)
        return cumulative(lo + self.intensity.age_upper) - cumulative(lo)

    def aged_expectations(self, ts, model, vtheta, phi=None):
        lo = np.atleast_1d(np.asarray(ts, dtype=float))
        f = np.exp(self._window_integrals(vtheta.theta, vtheta, lo))
        if phi is None:
            return f, None

        def h(x, a):
            return phi(x, a) * (1.0 + vtheta.theta(x, a))

        return f, f * self._window_integrals(h, vtheta, lo)

    def sample_paths(self, n_paths, rng):
        bundle = PathBundle(n_paths, self.intensity.habitat.dim)
        bundle.add_poisson(self.intensity, rng)
        return bundle


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

    def sample_paths(self, n_paths, rng):
        parts = [p.sample_paths(n_paths, rng) for p in self.parts]
        return PathBundle(
            n_paths,
            parts[0].dim,
            *(np.concatenate([getattr(b, k) for b in parts]) for k in ("path_ids", "positions", "ages")),
        )


class ExplicitLaw:
    """Closed-form transient law from an initial law under a test function.

    expect_F(t) evaluates mu_t(F_theta) = exp(H(t)) mu(F_{theta_t}) exactly
    (up to quadrature); expect_LF(t) evaluates mu_t(L F_theta) through the
    factorized particle sums, an independent route from differentiating
    expect_F.  Both are vectorized over t (a scalar t gives a float), and
    the age integrals of the arrivals are running SurvivalCumulatives built
    once per law.
    """

    def __init__(self, initial, theta, habitat, model):
        self.initial = initial
        self.theta = theta
        self.habitat = habitat
        self.model = model
        self.exponent = ArrivalExponent(theta, habitat, model)
        # the arrival constant int theta(x, 0) chi(dx)
        self._c3 = self.exponent.psi(0.0)
        self._arrivals_weighted = SurvivalCumulative(
            habitat, model, self._phi_weighted, theta.x_breakpoints, age_scale=theta.age_scale
        )

    def _phi(self, pos, ages):
        return particle_terms(self.theta, self.model, pos, ages)[1]

    def _phi_weighted(self, pos, ages):
        g, phi = particle_terms(self.theta, self.model, pos, ages)
        return phi * np.exp(-g)

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


def explicit_solution(theta, s, t, config, habitat, model, exponent=None):
    """E_config F_{theta_s}(X_t): the closed-form semigroup action.

    Equals exp(H(s+t) - H(s)) * F_{theta_{s+t}}(config) with H the arrival
    exponent; at s = 0 it is ExplicitLaw(DiracLaw(config), ...).expect_F(t).
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    f, _ = DiracLaw(config).aged_expectations(s + t, model, theta)
    return float(np.exp(exponent.H(s + t) - exponent.H(s)) * f[0])


def kolmogorov_residual(theta, t1, t2, config, habitat, model):
    """|P_{t2} F - P_{t1} F - int_{t1}^{t2} e^{H(s)} L F_{theta_s} ds| at config.

    The backward equation d/dt P_t F = e^{H(t)} L F_{theta_t} in integral
    form: both ends are the point mass's ExplicitLaw, and the s-integral
    runs on age_rule(t1, t2, age_panel_width(model, theta.age_scale))
    through one broadcasting apply_generator call.
    """
    if not 0.0 <= t1 <= t2:
        raise ValueError("need 0 <= t1 <= t2")
    law = ExplicitLaw(DiracLaw(config), theta, habitat, model)
    s, weights = age_rule(t1, t2, age_panel_width(model, theta.age_scale))
    lf = apply_generator(FlowedTheta(theta, s, model), config, habitat, model)
    integral = weights @ (np.exp(law.exponent.H(s)) * lf)
    f1, f2 = law.expect_F(np.array([t1, t2]))
    return abs(f2 - f1 - integral)


def _laplace_rule(lam, model, exponent):
    """Nodes t and weights of the t-rule on [0, 40/lam], and the factor
    exp(-lam t + H(t)) that every resolvent integrand carries.

    Panels have width at most min(1/lam, age_panel_width(model,
    theta.age_scale)); past T = 40/lam the integrand is below e^{-40}/lam.
    """
    if lam <= 0:
        raise ValueError("resolvent parameter must be positive")
    width = min(1.0 / lam, age_panel_width(model, exponent.theta.age_scale))
    t, weights = age_rule(0.0, 40.0 / lam, width)
    return t, weights, np.exp(-lam * t + exponent.H(t))


def resolvent(theta, lam, config, habitat, model, exponent=None):
    """int_0^inf e^{-lam t} E_config F_theta(X_t) dt, in (0, 1/lam).

    Truncated at T = 40/lam where the integrand is below e^{-40}/lam.
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    t, weights, factor = _laplace_rule(lam, model, exponent)
    f, _ = DiracLaw(config).aged_expectations(t, model, theta)
    return float(weights @ (factor * f))


def resolvent_identity_residual(theta, lam, config, habitat, model, exponent=None):
    """|L F_lam - lam F_lam + F_theta| with L applied under the integral.

    Zero analytically; the returned value is pure quadrature error.
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    t, weights, factor = _laplace_rule(lam, model, exponent)
    lf = apply_generator(FlowedTheta(theta, t, model), config, habitat, model)
    lf_lam = float(weights @ (factor * lf))
    f_lam = resolvent(theta, lam, config, habitat, model, exponent=exponent)
    return abs(lf_lam - lam * f_lam + DiracLaw(config).expect_F(theta))


@dataclass(frozen=True)
class GeneratorBounds:
    """Uniform bounds attached to a test function and departure model."""

    j_count: int
    chi_g_zero: float
    chi_abs_theta_zero: float
    ell_theta: float
    tau_star: float
    est_bound: float
    cbar: float


def compute_bounds(theta, habitat, model):
    """Bounds for L F_theta, checked on sample grids before being returned.

    ell_theta dominates |L F_{theta_t}| uniformly in t; est_bound dominates
    |L F_theta|; tau_star is the contraction horizon 1/(m_star e^J).  The age
    sandwich exp(-SIGMA_BAR sup u_1) g(x,0) <= g(x,alpha) <= g(x,0) and the
    derivative domination |g'| <= SIGMA_BAR c g are asserted on a grid.
    """
    j = theta.j_count
    c = u_prime_max_constant()
    cbar = math.exp(-SIGMA_BAR * u_basis_max(1))
    chi_g0 = chi_integral(
        habitat, lambda x: theta.g(x, np.zeros(x.shape[:-1])), points=theta.x_breakpoints
    )
    chi_abs_theta0 = chi_integral(
        habitat,
        lambda x: np.abs(theta.theta(x, np.zeros(x.shape[:-1]))),
        points=theta.x_breakpoints,
    )
    m_star = model.m_star
    ell = chi_g0 + m_star * math.exp(j - 1.0) + (SIGMA_BAR * c + 2.0 * m_star) * math.exp(float(j))
    est = chi_abs_theta0 + m_star * math.exp(j - 1.0) + SIGMA_BAR * c / math.e
    tau = math.inf if m_star == 0 else 1.0 / (m_star * math.exp(float(j)))
    # grid check of the age sandwich and the derivative domination, on the
    # window's diagonal and on a 9-per-axis tensor grid (in d >= 2 the
    # diagonal alone never leaves x_0 = x_1 = ...)
    axes = [np.linspace(lo, hi, 9) for lo, hi in zip(habitat.lower, habitat.upper)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, habitat.dim)
    xs = np.concatenate([np.linspace(habitat.lower, habitat.upper, 41), mesh])
    ages = np.concatenate([np.linspace(0.0, 5.0, 101), np.geomspace(5.0, 200.0, 40)])
    g0 = theta.g(xs[:, None, :], np.zeros((1,)))
    g = theta.g(xs[:, None, :], ages[None, :])
    gp = theta.g_age_derivative(xs[:, None, :], ages[None, :])
    slack = 1e-12
    if np.any(g > g0 + slack):
        raise AssertionError("age bound g(x, alpha) <= g(x, 0) failed on the grid")
    if np.any(cbar * g0 > g + slack):
        raise AssertionError("lower sandwich cbar g(x,0) <= g(x,alpha) failed on the grid")
    if np.any(np.abs(gp) > SIGMA_BAR * c * g + slack):
        raise AssertionError("derivative domination |g'| <= SIGMA_BAR c g failed on the grid")
    return GeneratorBounds(
        j_count=j,
        chi_g_zero=chi_g0,
        chi_abs_theta_zero=chi_abs_theta0,
        ell_theta=ell,
        tau_star=tau,
        est_bound=est,
        cbar=cbar,
    )
