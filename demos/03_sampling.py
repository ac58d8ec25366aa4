"""Two exact samplers for the particle process, cross-checked.

The one-shot sampler draws the time-t population directly from its Poisson
law (arrivals surviving to t, plus thinned-and-aged initial particles).  The
event-driven sampler draws each path's arrival stream and thins a rate-m_star
departure clock per particle, for all paths in one call.  Both are exact, so
their statistics agree to Monte Carlo error.
"""

from __future__ import annotations

import math

import numpy as np

from agedpop import (
    MarkedConfiguration,
    PathBundle,
    Theta,
    constant_rate,
    event_driven_simulate,
    stationary_intensity,
    transient_intensity,
    uniform_habitat,
)

rng = np.random.default_rng(11)
hab = uniform_habitat([(0.0, 1.0)], 2.0)
model = constant_rate(1.0)
theta = Theta([(1, 1, 1), (2, 1, 2)], hab)

print("=== one-shot sampling: counts vs closed form ===")
n = 50_000
print("  started empty, arrival mass 2, unit departure rate:")
for t in (0.5, 1.5, 5.0):
    bundle = PathBundle(n, 1)
    bundle.add_poisson(transient_intensity(hab, model, t), rng)
    want = 2.0 * (1.0 - math.exp(-t))
    got = bundle.counts().mean()
    print(f"  t={t:<4} mean count = {got:.4f}  (closed form {want:.4f})")

print("\n=== event-driven trajectories ===")
traj = event_driven_simulate(MarkedConfiguration.empty(1), 4.0, hab, model, rng)
births = int(np.count_nonzero(traj.events["kind"] == "arrival"))
deaths = int(np.count_nonzero(traj.events["kind"] == "departure"))
print(f"  one path on [0, 4]: {births} arrivals, {deaths} departures")
for t in (1.0, 2.5, 4.0):
    state = traj.state_at(t)
    alive = state.ages.size
    ages = ", ".join(f"{a:.2f}" for a in state.ages[:4])
    print(f"  t={t}: {alive} particles alive, ages [{ages}"
          + (" ...]" if alive > 4 else "]"))

print("\n=== cross-check: both samplers, same functional ===")
t = 1.0
n = 20_000
bundle = PathBundle(n, 1)
bundle.add_poisson(transient_intensity(hab, model, t), rng)
f_oneshot = bundle.f_theta(theta)
traj = event_driven_simulate(MarkedConfiguration.empty(1), t, hab, model, rng, n_paths=n)
f_event = traj.state_at(t).f_theta(theta)
se = math.sqrt(f_oneshot.var(ddof=1) / n + f_event.var(ddof=1) / n)
print(f"  E[F] one-shot      = {f_oneshot.mean():.5f}")
print(f"  E[F] event-driven  = {f_event.mean():.5f}")
print(f"  gap = {abs(f_oneshot.mean() - f_event.mean()):.2e} ({abs(f_oneshot.mean() - f_event.mean()) / se:.2f} SE)")

print("\n=== stationary population ===")
bundle = PathBundle(n, 1)
intensity = stationary_intensity(hab, model)
bundle.add_poisson(intensity, rng)
print(f"  stationary mean count = {bundle.counts().mean():.4f} "
      f"(intensity mass {intensity.total_mass:.4f})")
print(f"  age-window truncation error bound = {intensity.truncation_error:.2e}")
