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

from .habitat import SurvivalCumulative, age_panel_width, age_rule, chi_integral, survival_factor
from .mark_space import u_prime_max_constant
from .test_functions import F_theta, Theta, log_F_theta

__all__ = [
    "FlowedTheta",
    "flow",
    "flow_pde_residual",
    "ArrivalExponent",
    "apply_generator",
    "explicit_solution",
    "flowed_log_F",
    "kolmogorov_residual",
    "resolvent",
    "resolvent_identity_residual",
    "GeneratorBounds",
    "compute_bounds",
]


class FlowedTheta:
    """theta flowed through age t >= 0 under a departure model.

    Evaluates theta_t(x, alpha) = theta(x, alpha + t) q_t(x, alpha) with
    q_t = exp(M(x, alpha) - M(x, alpha + t)); stays in (-1, 0], and its
    exponent g_t = -log(1 + theta_t) never exceeds g(x, alpha + t).  t may be
    an array of flow times, which broadcasts against the age argument.
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
        return -np.log1p(self.theta(x, alpha))

    def theta_age_derivative(self, x, alpha):
        """d/dalpha theta_t, analytic via the base derivative and the hazard."""
        alpha = np.asarray(alpha, dtype=float)
        q = survival_factor(self.model, x, alpha, self.t)
        shifted = alpha + self.t
        g_shift = self.base.g(x, shifted)
        dtheta_shift = -self.base.g_age_derivative(x, shifted) * np.exp(-g_shift)
        rate_gap = self.model.rate(x, alpha) - self.model.rate(x, shifted)
        return dtheta_shift * q + self.base.theta(x, shifted) * q * rate_gap

    def g_age_derivative(self, x, alpha):
        return -self.theta_age_derivative(x, alpha) / (1.0 + self.theta(x, alpha))

    def time_derivative(self, x, alpha):
        """d/dt theta_t = d/dalpha theta_t - m(x, alpha) theta_t."""
        return self.theta_age_derivative(x, alpha) - self.model.rate(x, alpha) * self.theta(
            x, alpha
        )


def flow(theta, t, model=None):
    """Flow a test function by time t; composes additively in t."""
    if isinstance(theta, FlowedTheta):
        return FlowedTheta(theta, t, theta.model)
    if model is None:
        raise ValueError("flowing a plain Theta requires the departure model")
    return FlowedTheta(theta, t, model)


def flow_pde_residual(theta, t, x, alpha, model, h=1e-3):
    """|central difference of t -> theta_t - analytic right side| at (x, alpha).

    Second-order accurate for smooth hazards; requires t >= h.
    """
    if t < h:
        raise ValueError("central difference needs t >= h")
    f_plus = FlowedTheta(theta, t + h, model).theta(x, alpha)
    f_minus = FlowedTheta(theta, t - h, model).theta(x, alpha)
    analytic = FlowedTheta(theta, t, model).time_derivative(x, alpha)
    return np.abs((f_plus - f_minus) / (2.0 * h) - analytic)


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


def apply_generator(theta_like, config, habitat, model, chi_theta0=None):
    """(L F_theta)(config) for a plain or flowed test function.

    chi_theta0 short-circuits the arrival integral int theta(x, 0) chi(dx)
    when the caller has it precomputed (it does not depend on the
    configuration).  A FlowedTheta with an array of flow times gives an
    array, one value per time, with chi_theta0 an array of the same length.
    """
    if chi_theta0 is None:
        chi_theta0 = chi_integral(
            habitat,
            lambda x: theta_like.theta(x, np.zeros(x.shape[:-1])),
            points=theta_like.x_breakpoints,
        )
    scalar = np.ndim(getattr(theta_like, "t", 0.0)) == 0
    if not len(config):
        return float(chi_theta0) if scalar else np.asarray(chi_theta0, dtype=float)
    # one row per particle, one column per flow time
    pos = config.positions[:, None, :]
    ages = config.ages[:, None]
    g = theta_like.g(pos, ages)
    gprime = theta_like.g_age_derivative(pos, ages)
    rates = model.rate(pos, ages)
    F = np.exp(-np.sum(g, axis=0))
    out = F * (-np.sum(gprime, axis=0) + np.sum(rates * np.expm1(g), axis=0) + chi_theta0)
    return float(out[0]) if scalar else out


def flowed_log_F(theta, config, model, times):
    """log F_{theta_t}(config) for an array of flow times t; vectorized.

    Used by the semigroup and resolvent integrands, where the same
    configuration is re-evaluated along a whole time grid.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not len(config):
        return np.zeros(times.shape)
    pos = config.positions[:, None, :]  # (P, 1, d)
    ages = config.ages[:, None]  # (P, 1)
    shifted = ages + times[None, :]
    logq = model.cumulative(pos, ages) - model.cumulative(pos, shifted)
    theta_t = np.expm1(-theta.g(pos, shifted)) * np.exp(logq)
    return np.sum(np.log1p(theta_t), axis=0)


def explicit_solution(theta, s, t, config, habitat, model, exponent=None):
    """E_config F_{theta_s}(X_t): the closed-form semigroup action.

    Equals exp(H(s+t) - H(s)) * F_{theta_{s+t}}(config) with H the arrival
    exponent.
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    expo = exponent.H(s + t) - exponent.H(s)
    return float(np.exp(expo + flowed_log_F(theta, config, model, np.array(s + t)))[0])


def kolmogorov_residual(theta, t, config, habitat, model, h=1e-3, exponent=None):
    """|d/dt E F_theta(X_t) - L acting on the flowed functional| at time t.

    The derivative is a central difference (forward at t < h, first order);
    the generator side is exact up to quadrature.
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)

    def value(tt):
        return explicit_solution(theta, 0.0, tt, config, habitat, model, exponent=exponent)

    if t >= h:
        deriv = (value(t + h) - value(t - h)) / (2.0 * h)
    else:
        deriv = (value(t + h) - value(t)) / h
    flowed = FlowedTheta(theta, t, model)
    lf = apply_generator(flowed, config, habitat, model, chi_theta0=exponent.psi(t))
    lf *= math.exp(exponent.H(t))
    return abs(deriv - lf)


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
    flowed = FlowedTheta(theta, s + t, model)
    lf = apply_generator(flowed, config, habitat, model, chi_theta0=exponent.psi(s + t))
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
    cbar_theta: float


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
        cbar_theta=cbar / (2.0 * j) if j else cbar,
    )
