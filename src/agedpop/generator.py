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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, interpolate

from .habitat import chi_integral, gauss_profile_nodes, survival_factor, survival_slice
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
    exponent g_t = -log(1 + theta_t) never exceeds g(x, alpha + t).
    """

    __slots__ = ("base", "t", "model")

    def __init__(self, base, t, model):
        if t < 0:
            raise ValueError("flow time must be nonnegative")
        if isinstance(base, FlowedTheta):
            # composition law: flowing a flowed function adds the times
            t = t + base.t
            base = base.base
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "t", float(t))
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
    (exact for the smooth pieces), and H is served from a cubic-spline
    antiderivative on a dense grid, extended on demand; H_quad integrates
    psi adaptively for an independent, higher-precision route.
    """

    def __init__(self, theta, habitat, model, grid_step=1.0 / 128.0, order=24):
        self.theta = theta
        self.habitat = habitat
        self.model = model
        self.grid_step = float(grid_step)
        self._nodes, self._weights = gauss_profile_nodes(
            habitat, breakpoints=theta.x_breakpoints, order=order
        )
        self._spline = None
        self._t_max = 0.0

    def psi(self, u):
        """Vectorized over u >= 0."""
        return survival_slice(self.model, self._nodes, self._weights, self.theta.theta, u)

    def _extend(self, t_max):
        t_max = max(t_max, 4.0)
        n = int(math.ceil(t_max / self.grid_step)) + 1
        grid = np.linspace(0.0, (n - 1) * self.grid_step, n)
        values = self.psi(grid)
        self._spline = interpolate.CubicSpline(grid, values).antiderivative()
        self._t_max = float(grid[-1])

    def H(self, T):
        """Spline-backed cumulative integral; vectorized over T >= 0."""
        T = np.asarray(T, dtype=float)
        top = float(np.max(T)) if T.size else 0.0
        if self._spline is None or top > self._t_max:
            self._extend(1.25 * top)
        out = self._spline(T)
        return float(out) if out.ndim == 0 else out

    def H_quad(self, T, tol=1e-13):
        """Adaptive quadrature of psi on [0, T]; independent of the spline."""
        if T == 0.0:
            return 0.0
        val, _ = integrate.quad(lambda u: self.psi(u), 0.0, float(T), epsabs=tol, limit=400)
        return val

    def H_limit(self, tol=None):
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
        return self.H_quad(horizon), bound


def apply_generator(theta_like, config, habitat, model, chi_theta0=None, tol=1e-10):
    """(L F_theta)(config) for a plain or flowed test function.

    chi_theta0 short-circuits the arrival integral int theta(x, 0) chi(dx)
    when the caller has it precomputed (it does not depend on the
    configuration).
    """
    if chi_theta0 is None:
        chi_theta0 = chi_integral(
            habitat,
            lambda x: theta_like.theta(x, np.zeros(x.shape[:-1])),
            tol=tol,
            points=theta_like.x_breakpoints,
        )
    if len(config):
        g = theta_like.g(config.positions, config.ages)
        gprime = theta_like.g_age_derivative(config.positions, config.ages)
        rates = model.rate(config.positions, config.ages)
        F = float(np.exp(-np.sum(g)))
        aging = -float(np.sum(gprime)) * F
        departure = F * float(np.sum(rates * np.expm1(g)))
    else:
        F = 1.0
        aging = 0.0
        departure = 0.0
    return aging + departure + F * float(chi_theta0)


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
    exponent, integrated adaptively (H_quad).
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    expo = exponent.H_quad(s + t) - exponent.H_quad(s)
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
    lf *= math.exp(exponent.H_quad(t))
    return abs(deriv - lf)


def resolvent(theta, s, lam, config, habitat, model, exponent=None, tol=1e-10):
    """int_0^inf e^{-lam t} E_config F_{theta_s}(X_t) dt, in (0, 1/lam).

    Truncated at T = 40/lam where the integrand is below e^{-40}/lam.
    """
    if lam <= 0:
        raise ValueError("resolvent parameter must be positive")
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    horizon = 40.0 / lam
    h_s = exponent.H(s)

    def integrand(t):
        e = exponent.H(s + t) - h_s
        return math.exp(-lam * t + e + flowed_log_F(theta, config, model, s + t)[0])

    val, _ = integrate.quad(integrand, 0.0, horizon, epsabs=tol, limit=400)
    return val


def resolvent_identity_residual(theta, s, lam, config, habitat, model, exponent=None, tol=1e-10):
    """|L F_lam - lam F_lam + F_{theta_s}| with L applied under the integral.

    Zero analytically; the returned value is pure quadrature error.
    """
    if exponent is None:
        exponent = ArrivalExponent(theta, habitat, model)
    horizon = 40.0 / lam
    h_s = exponent.H(s)

    def lf_integrand(t):
        flowed = FlowedTheta(theta, s + t, model)
        lf = apply_generator(flowed, config, habitat, model, chi_theta0=exponent.psi(s + t))
        return math.exp(-lam * t + exponent.H(s + t) - h_s) * lf

    lf_lam, _ = integrate.quad(lf_integrand, 0.0, horizon, epsabs=tol, limit=400)
    f_lam = resolvent(theta, s, lam, config, habitat, model, exponent=exponent, tol=tol)
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


def compute_bounds(theta, habitat, model, tol=1e-10):
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
        habitat, lambda x: theta.g(x, np.zeros(x.shape[:-1])), tol=tol, points=theta.x_breakpoints
    )
    chi_abs_theta0 = chi_integral(
        habitat,
        lambda x: np.abs(theta.theta(x, np.zeros(x.shape[:-1]))),
        tol=tol,
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
