"""The verification suite: analytic laws checked against the implementation.

Each check produces a VerificationReport with a statistic, a threshold, and a
comparison sense, from which it derives PASS, FAIL or SKIP.  This demo
exercises the main oracles: the Fokker-Planck balance, the martingale
property of the compensated evolution, convergence to the invariant law, and
invariance of the stationary start.
"""

from __future__ import annotations

import numpy as np

from agedpop import (
    DiracLaw,
    MarkedConfiguration,
    PoissonLaw,
    Theta,
    constant_rate,
    ergodicity_gap_curve,
    fokker_planck_check,
    format_reports,
    laplace_uniqueness_check,
    martingale_residual,
    stationarity_check,
    stationary_intensity,
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
# increment conditioned on the time-t1 state has mean zero
reports.append(
    martingale_residual(
        theta, DiracLaw(config), 0.25, 0.75, Theta([(1, 1, 1)], hab), hab, model,
        20_000, rng, n_grid=16,
    )
)

# started empty, the law converges to the invariant one at the minimal rate
print("=== convergence to the invariant law (started empty) ===")
times = np.linspace(1.0, 8.0, 8)
gaps, log_gaps, pi_value, _ = ergodicity_gap_curve(theta, hab, model, times)
print(f"  invariant value pi(F) = {pi_value:.6f}")
for t, gap in zip(times, gaps):
    bar = "#" * max(1, int(44 + 4 * np.log10(max(gap, 1e-12))))
    print(f"  t={t:4.1f}  |E[F] - pi(F)| = {gap:.3e}  {bar}")
slope = np.polyfit(times, np.log(log_gaps), 1)[0]
print(f"  fitted slope of log|log E[F] - log pi(F)| = {slope:.4f} (departure-rate floor = -1)")

# the invariant start does not move at all
reports.append(stationarity_check(theta, hab, model, [0.5, 1.0, 2.0, 5.0]))

print("\n=== verification reports ===")
print(format_reports(reports))
