"""The verification suite: analytic laws checked against the implementation.

Each check produces a VerificationReport with a statistic, a threshold, and a
comparison sense, from which it derives PASS, FAIL or SKIP.  This demo
exercises the main oracles: the Fokker-Planck balance, the martingale
property of the compensated evolution, convergence to the invariant law
under the coupling bound, and invariance of the stationary start.
"""

from __future__ import annotations

import numpy as np

from agedpop import (
    DiracLaw,
    ExplicitLaw,
    MarkedConfiguration,
    PoissonLaw,
    Theta,
    constant_rate,
    ergodicity_check,
    fokker_planck_check,
    format_reports,
    laplace_uniqueness_check,
    martingale_residual,
    stationarity_check,
    stationary_intensity,
    survival_factor,
    transient_intensity,
    uniform_habitat,
)

rng = np.random.default_rng(23)
hab = uniform_habitat([(0.0, 1.0)], 2.0)
model = constant_rate(1.0)
theta = Theta([(1, 1, 1), (2, 1, 2)], hab)
config = MarkedConfiguration(np.array([[0.35], [0.75]]), np.array([0.4, 1.3]))

reports = []

# d/dt E[F(X_t)] = E[LF(X_t)], integrated over [0, 1] from a fixed start
reports.append(fokker_planck_check(theta, DiracLaw(config), 1.0, hab, model))

# the same balance from the invariant law: both sides vanish identically
reports.append(
    fokker_planck_check(theta, PoissonLaw(stationary_intensity(hab, model)), 1.0, hab, model)
)

# the Laplace transform of the evolution solves the resolvent equation
reports.append(laplace_uniqueness_check(theta, config, 1.5, hab, model))

# F(X_t) - integral of LF along the path is a martingale: a weighted
# increment conditioned on the time-t1 state has mean zero.  The paths start
# at config itself (an intensity or None would start them Poisson or empty)
# and are read at t1, the n_grid midpoints and t2 off sample_trajectory_marginals' blocks
reports.append(
    martingale_residual(
        theta, config, 0.25, 0.75, Theta([(1, 1, 1)], hab), hab, model,
        20_000, rng, n_grid=16,
    )
)

# started at a configuration, the law converges to the invariant one: a copy
# started at pi that shares its newcomers agrees with it once every initial
# particle of either copy has departed, so the gap stays below P(tau > t)
print("=== convergence to the invariant law (started at a configuration) ===")
stationary = stationary_intensity(hab, model)
pi_value = PoissonLaw(stationary).expect_F(theta)
law = ExplicitLaw(DiracLaw(config), theta, hab, model)
print(f"  invariant value pi(F) = {pi_value:.6f}")
for t in np.linspace(1.0, 8.0, 8):
    gap = abs(law.expect_F(t) - pi_value)
    # mass of pi's initial particles still alive at t
    pi_alive = stationary.total_mass + stationary.truncation_error - transient_intensity(hab, model, t).total_mass
    all_gone = np.prod(1.0 - survival_factor(model, config.positions, config.ages, t)) * np.exp(-pi_alive)
    print(f"  t={t:4.1f}  |E[F] - pi(F)| = {gap:.3e}  <=  P(tau > t) = {1.0 - all_gone:.3e}")
reports.append(ergodicity_check(theta, hab, model))

# the invariant start does not move at all
reports.append(stationarity_check(theta, hab, model, [0.5, 1.0, 2.0, 5.0]))

print("\n=== verification reports ===")
print(format_reports(reports))
