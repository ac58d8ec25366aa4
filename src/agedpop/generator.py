"""Markov generator, age flow, explicit semigroup action, and resolvent.

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
d/dt theta_t = d/dalpha theta_t - m theta_t.  The semigroup action on F_theta
is then explicit:

    E_config F_theta(X_t) = exp( int_0^t int theta(x, u) e^{-M(x,u)} chi(dx) du )
                            * F_{theta_t}(config),

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
from .mark_space import u_prime_max_constant

__all__ = [
    "FlowedTheta",
    "flow",
    "flow_pde_residual",
    "ArrivalExponent",
    "apply_generator",
    "particle_terms",
    "explicit_solution",
    "flowed_exponent",
    "flowed_log_F",
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
    def habitat(self):
        return self.base.habitat

    @property
    def j_count(self):
        return self.base.j_count

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

    def H_limit(self):
        """(H(infinity) approximation, truncation bound); needs m_zero > 0.

        Integrates to A = 40/m_zero where the remaining tail is below
        chi_mass * exp(-m_zero A)/m_zero (since |theta| <= 1 and the survival
        factor is at most exp(-m_zero u)).
        """
        m0 = self.model.m_zero
        if m0 <= 0:
            raise ValueError("H has a finite limit only when m_zero > 0")
        horizon = 40.0 / m0
        bound = self.habitat.chi_mass * math.exp(-m0 * horizon) / m0
        return self.H(horizon), bound


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


def flowed_log_F(theta, config, model, times):
    """log F_{theta_t}(config) for an array of flow times t; vectorized.

    Used by the semigroup and resolvent integrands, where the same
    configuration is re-evaluated along a whole time grid.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    g = FlowedTheta(theta, times, model).g(config.positions[:, None, :], config.ages[:, None])
    return np.sum(-g, axis=0)


def explicit_solution(theta, s, t, config, habitat, model, exponent=None):
    """E_config F_{theta_s}(X_t): the closed-form semigroup action.

    Equals exp(H(s+t) - H(s)) * F_{theta_{s+t}}(config) with H the arrival
    exponent.
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    expo = exponent.H(s + t) - exponent.H(s)
    return float(np.exp(expo + flowed_log_F(theta, config, model, np.array(s + t)))[0])


def kolmogorov_residual(theta, t1, t2, config, habitat, model, exponent=None):
    """|P_{t2} F - P_{t1} F - int_{t1}^{t2} e^{H(s)} L F_{theta_s} ds| at config.

    The backward equation d/dt P_t F = e^{H(t)} L F_{theta_t} in integral
    form: both ends are explicit_solution, and the s-integral runs on
    age_rule(t1, t2, age_panel_width(model, theta.age_scale)) through one
    broadcasting apply_generator call.
    """
    if not 0.0 <= t1 <= t2:
        raise ValueError("need 0 <= t1 <= t2")
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    s, weights = age_rule(t1, t2, age_panel_width(model, theta.age_scale))
    lf = apply_generator(FlowedTheta(theta, s, model), config, habitat, model)
    integral = weights @ (np.exp(exponent.H(s)) * lf)
    ends = [explicit_solution(theta, 0.0, t, config, habitat, model, exponent=exponent) for t in (t1, t2)]
    return abs(ends[1] - ends[0] - integral)


def _laplace_rule(s, lam, model, exponent):
    """Nodes t and weights of the t-rule on [0, 40/lam], and the factor
    exp(-lam t + H(s+t) - H(s)) that every resolvent integrand carries.

    Panels have width at most min(1/lam, age_panel_width(model,
    theta.age_scale)); past T = 40/lam the integrand is below e^{-40}/lam.
    """
    if lam <= 0:
        raise ValueError("resolvent parameter must be positive")
    width = min(1.0 / lam, age_panel_width(model, exponent.theta.age_scale))
    t, weights = age_rule(0.0, 40.0 / lam, width)
    factor = np.exp(-lam * t + exponent.H(s + t) - exponent.H(s))
    return t, weights, factor


def resolvent(theta, s, lam, config, habitat, model, exponent=None):
    """int_0^inf e^{-lam t} E_config F_{theta_s}(X_t) dt, in (0, 1/lam).

    Truncated at T = 40/lam where the integrand is below e^{-40}/lam.
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    t, weights, factor = _laplace_rule(s, lam, model, exponent)
    return float(weights @ (factor * np.exp(flowed_log_F(theta, config, model, s + t))))


def resolvent_identity_residual(theta, s, lam, config, habitat, model, exponent=None):
    """|L F_lam - lam F_lam + F_{theta_s}| with L applied under the integral.

    Zero analytically; the returned value is pure quadrature error.
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    t, weights, factor = _laplace_rule(s, lam, model, exponent)
    lf = apply_generator(FlowedTheta(theta, s + t, model), config, habitat, model)
    lf_lam = float(weights @ (factor * lf))
    f_lam = resolvent(theta, s, lam, config, habitat, model, exponent=exponent)
    f_s = math.exp(flowed_log_F(theta, config, model, float(s))[0])
    return abs(lf_lam - lam * f_lam + f_s)


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
    sandwich exp(-sigma_bar 2^(2/3)/3) g(x,0) <= g(x,alpha) <= g(x,0) and the
    derivative domination |g'| <= sigma_bar c g are asserted on a grid.
    """
    j = theta.j_count
    sigma_bar = theta.ladder.sigma_bar
    c = u_prime_max_constant()
    cbar = math.exp(-sigma_bar * 2.0 ** (2.0 / 3.0) / 3.0)
    chi_g0 = chi_integral(
        habitat, lambda x: theta.g(x, np.zeros(x.shape[:-1])), points=theta.x_breakpoints
    )
    chi_abs_theta0 = chi_integral(
        habitat,
        lambda x: np.abs(theta.theta(x, np.zeros(x.shape[:-1]))),
        points=theta.x_breakpoints,
    )
    m_star = model.m_star
    ell = chi_g0 + m_star * math.exp(j - 1.0) + (sigma_bar * c + 2.0 * m_star) * math.exp(float(j))
    est = chi_abs_theta0 + m_star * math.exp(j - 1.0) + sigma_bar * c / math.e
    tau = math.inf if m_star == 0 else 1.0 / (m_star * math.exp(float(j)))
    # grid check of the age sandwich and the derivative domination
    xs = np.linspace(habitat.lower, habitat.upper, 41)
    ages = np.concatenate([np.linspace(0.0, 5.0, 101), np.geomspace(5.0, 200.0, 40)])
    g0 = theta.g(xs[:, None, :], np.zeros((1,)))
    g = theta.g(xs[:, None, :], ages[None, :])
    gp = theta.g_age_derivative(xs[:, None, :], ages[None, :])
    slack = 1e-12
    if np.any(g > g0 + slack):
        raise AssertionError("age bound g(x, alpha) <= g(x, 0) failed on the grid")
    if np.any(cbar * g0 > g + slack):
        raise AssertionError("lower sandwich cbar g(x,0) <= g(x,alpha) failed on the grid")
    if np.any(np.abs(gp) > sigma_bar * c * g + slack):
        raise AssertionError("derivative domination |g'| <= sigma_bar c g failed on the grid")
    return GeneratorBounds(
        j_count=j,
        chi_g_zero=chi_g0,
        chi_abs_theta_zero=chi_abs_theta0,
        ell_theta=ell,
        tau_star=tau,
        est_bound=est,
        cbar=cbar,
    )
