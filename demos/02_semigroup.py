"""The evolution semigroup in closed form.

Exponential test functions F(config) = exp(-sum g) evolve explicitly: ageing
and departures push the test function through a deterministic flow, arrivals
contribute a scalar exponent.  This demo evolves one F, checks the backward
equation residual, and applies the resolvent.
"""

from __future__ import annotations

import numpy as np

from agedpop import (
    F_theta,
    MarkedConfiguration,
    Theta,
    apply_generator,
    compute_bounds,
    constant_rate,
    explicit_solution,
    flow,
    kolmogorov_residual,
    resolvent,
    resolvent_identity_residual,
    uniform_habitat,
)

hab = uniform_habitat([(0.0, 1.0)], 2.0)
model = constant_rate(1.0)
theta = Theta([(1, 1, 1), (2, 1, 2)], hab)
config = MarkedConfiguration(np.array([[0.35], [0.75]]), np.array([0.4, 1.3]))

print("=== the flow acting on a test function ===")
x = np.array([[0.5]])
al = np.array([0.8])
print(f"  theta(x, a)        = {theta.theta(x, al)[0]:+.6f}")
for t in (0.5, 1.0, 2.0):
    print(f"  theta_t(x, a) t={t:<3} = {flow(theta, t, model).theta(x, al)[0]:+.6f}")
once = flow(flow(theta, 0.6, model), 0.9)
direct = flow(theta, 1.5, model)
print(f"  composition gap at t=0.6+0.9 vs 1.5: "
      f"{abs(once.theta(x, al)[0] - direct.theta(x, al)[0]):.2e}")

print("\n=== explicit transition expectation ===")
print(f"  F(config) = {F_theta(theta, config):.6f}")
for t in (0.0, 0.5, 1.5, 4.0):
    val = explicit_solution(theta, 0.0, t, config, hab, model)
    print(f"  E[F(X_t)] at t={t:<4} = {val:.6f}")

print("\n=== backward equation residual (integral form on the age rule) ===")
for t1, t2 in ((0.3, 0.8), (0.8, 2.0)):
    res = kolmogorov_residual(theta, t1, t2, config, hab, model)
    print(f"  |P_t2 F - P_t1 F - int e^H(s) LF_s ds| on [{t1}, {t2}] = {res:.2e}")

print("\n=== generator bounds ===")
bounds = compute_bounds(theta, hab, model)
lf = apply_generator(theta, config, hab, model)
print(f"  LF(config) = {lf:+.6f}, uniform bound {bounds.est_bound:.4f}")
print(f"  flow-uniform bound ell = {bounds.ell_theta:.4f}, "
      f"tau_star = {bounds.tau_star:.4f}")

print("\n=== resolvent ===")
for lam in (0.5, 2.0):
    val = resolvent(theta, lam, config, hab, model)
    res = resolvent_identity_residual(theta, lam, config, hab, model)
    print(f"  lambda={lam}: F_lambda = {val:.6f}, "
          f"|(lambda - L) F_lambda - F| = {res:.2e}")
