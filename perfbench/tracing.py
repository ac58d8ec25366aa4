"""Spans and counters around calls into agedpop's layers.

The tracer wraps public functions and methods of the package from outside:
each wrapper is installed at every name through which callers reach the
original (the defining module, every agedpop module that imported it by
name, or the class for a method) and removed again afterwards, so nothing
under src/ changes.  A span records (unit, name, start, end, parent); a
layer's self time is its span's duration minus the time of its traced
children.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

# (metric prefix, module, attribute path) of every traced layer.
LAYERS = [
    ("sampler.event_driven_simulate", "agedpop.sampler", "event_driven_simulate"),
    ("habitat.chi_sample", "agedpop.habitat", "chi_sample"),
    ("sampler.EventTrajectory.state_at", "agedpop.sampler", "EventTrajectory.state_at"),
    ("test_functions.F_theta", "agedpop.test_functions", "F_theta"),
    ("cli.cmd_simulate", "agedpop.cli", "cmd_simulate"),
    ("cli.load_config", "agedpop.cli", "load_config"),
    ("verify.survival_weighted_integral", "agedpop.verify", "survival_weighted_integral"),
    ("scipy.quad", "scipy.integrate", "quad"),
    ("generator.ArrivalExponent.psi", "agedpop.generator", "ArrivalExponent.psi"),
    ("generator.ArrivalExponent.H_quad", "agedpop.generator", "ArrivalExponent.H_quad"),
    ("generator.resolvent", "agedpop.generator", "resolvent"),
    ("generator.compute_bounds", "agedpop.generator", "compute_bounds"),
    ("habitat.chi_integral", "agedpop.habitat", "chi_integral"),
    ("verify.fokker_planck_check", "agedpop.verify", "fokker_planck_check"),
    ("verify.laplace_uniqueness_check", "agedpop.verify", "laplace_uniqueness_check"),
    ("verify.chapman_kolmogorov_check", "agedpop.verify", "chapman_kolmogorov_check"),
    ("verify.martingale_residual", "agedpop.verify", "martingale_residual"),
    ("verify.cross_sampler_check", "agedpop.verify", "cross_sampler_check"),
    ("verify.count_law_oracle", "agedpop.verify", "count_law_oracle"),
    ("verify.ergodicity_check", "agedpop.verify", "ergodicity_check"),
    ("verify.stationarity_check", "agedpop.verify", "stationarity_check"),
    ("test_functions.Theta.g", "agedpop.test_functions", "Theta.g"),
    ("sampler.transient_intensity", "agedpop.sampler", "transient_intensity"),
    ("sampler.stationary_intensity", "agedpop.sampler", "stationary_intensity"),
    ("sampler.PathBundle.add_poisson", "agedpop.sampler", "PathBundle.add_poisson"),
    ("sampler.PathBundle.thin_and_age", "agedpop.sampler", "PathBundle.thin_and_age"),
    ("config_space.kappa_distance", "agedpop.config_space", "kappa_distance"),
    ("config_space.ground_distance", "agedpop.config_space", "ground_distance"),
    ("mark_space.rho_distance", "agedpop.mark_space", "rho_distance"),
]

# Per-layer metrics reported by a traced run: (name, unit, source).  The
# source is ("s", layer) for self seconds per unit, ("calls", layer) for
# calls per unit, or ("count", layer, counter) for a counter per unit;
# ("ratio", layer, counter) divides a counter by the layer's calls.
PER_LAYER = [
    ("sampler.event_driven_simulate.calls", "count", ("calls", "sampler.event_driven_simulate")),
    ("sampler.event_driven_simulate.s", "s", ("s", "sampler.event_driven_simulate")),
    ("sampler.event_driven_simulate.events", "count", ("count", "sampler.event_driven_simulate", "events")),
    ("habitat.chi_sample.calls", "count", ("calls", "habitat.chi_sample")),
    ("habitat.chi_sample.s", "s", ("s", "habitat.chi_sample")),
    ("habitat.chi_sample.points_per_call", "count", ("ratio", "habitat.chi_sample", "points")),
    ("sampler.EventTrajectory.state_at.s", "s", ("s", "sampler.EventTrajectory.state_at")),
    ("test_functions.F_theta.s", "s", ("s", "test_functions.F_theta")),
    ("cli.cmd_simulate.self_s", "s", ("s", "cli.cmd_simulate")),
    ("verify.survival_weighted_integral.calls", "count", ("calls", "verify.survival_weighted_integral")),
    ("verify.survival_weighted_integral.s", "s", ("s", "verify.survival_weighted_integral")),
    ("scipy.quad.calls", "count", ("calls", "scipy.quad")),
    ("scipy.quad.evals", "count", ("count", "scipy.quad", "evals")),
    ("generator.ArrivalExponent.psi.calls", "count", ("calls", "generator.ArrivalExponent.psi")),
    ("generator.ArrivalExponent.psi.s", "s", ("s", "generator.ArrivalExponent.psi")),
    ("generator.ArrivalExponent.H_quad.s", "s", ("s", "generator.ArrivalExponent.H_quad")),
    ("generator.resolvent.s", "s", ("s", "generator.resolvent")),
    ("generator.compute_bounds.s", "s", ("s", "generator.compute_bounds")),
    ("habitat.chi_integral.calls", "count", ("calls", "habitat.chi_integral")),
    ("habitat.chi_integral.s", "s", ("s", "habitat.chi_integral")),
    ("verify.fokker_planck_check.s", "s", ("s", "verify.fokker_planck_check")),
    ("verify.laplace_uniqueness_check.s", "s", ("s", "verify.laplace_uniqueness_check")),
    ("verify.chapman_kolmogorov_check.s", "s", ("s", "verify.chapman_kolmogorov_check")),
    ("verify.martingale_residual.s", "s", ("s", "verify.martingale_residual")),
    ("verify.cross_sampler_check.s", "s", ("s", "verify.cross_sampler_check")),
    ("verify.count_law_oracle.s", "s", ("s", "verify.count_law_oracle")),
    ("verify.ergodicity_check.s", "s", ("s", "verify.ergodicity_check")),
    ("verify.stationarity_check.s", "s", ("s", "verify.stationarity_check")),
    ("test_functions.Theta.g.calls", "count", ("calls", "test_functions.Theta.g")),
    ("test_functions.Theta.g.s", "s", ("s", "test_functions.Theta.g")),
    ("sampler.transient_intensity.calls", "count", ("calls", "sampler.transient_intensity")),
    ("sampler.transient_intensity.s", "s", ("s", "sampler.transient_intensity")),
    ("sampler.stationary_intensity.s", "s", ("s", "sampler.stationary_intensity")),
    ("sampler.PathBundle.add_poisson.s", "s", ("s", "sampler.PathBundle.add_poisson")),
    ("sampler.PathBundle.add_poisson.particles", "count", ("count", "sampler.PathBundle.add_poisson", "particles")),
    ("sampler.PathBundle.thin_and_age.s", "s", ("s", "sampler.PathBundle.thin_and_age")),
    ("config_space.kappa_distance.calls", "count", ("calls", "config_space.kappa_distance")),
    ("config_space.kappa_distance.s", "s", ("s", "config_space.kappa_distance")),
    ("config_space.ground_distance.calls", "count", ("calls", "config_space.ground_distance")),
    ("config_space.ground_distance.s", "s", ("s", "config_space.ground_distance")),
    ("mark_space.rho_distance.calls", "count", ("calls", "mark_space.rho_distance")),
    ("mark_space.rho_distance.s", "s", ("s", "mark_space.rho_distance")),
    ("cli.load_config.s", "s", ("s", "cli.load_config")),
]


def _event_count(args, kwargs, result):
    return {"events": len(result.events)}


def _chi_points(args, kwargs, result):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return {"points": 1 if size is None else int(size)}


# counters read off a call: layer -> f(args, kwargs, result) -> {counter: amount}
_AFTER = {
    "sampler.event_driven_simulate": _event_count,
    "habitat.chi_sample": _chi_points,
}


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    MAX_SPANS = 2_000_000  # spans kept in memory; later calls are still counted

    def __init__(self):
        self.spans = []  # (unit, name, start, end, parent index or -1)
        self.unit = None
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self._stack = []  # [span index, start, child seconds, parent index]
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        if index < self.MAX_SPANS:
            self.spans.append(None)
        self._stack.append([index, time.perf_counter(), 0.0, parent])

    def _exit(self, name):
        end = time.perf_counter()
        index, start, child, parent = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index < self.MAX_SPANS:
            self.spans[index] = (self.unit, name, start, end, parent)

    def scale_since(self, before, factor):
        """Scale the self time recorded since the snapshot `before` by factor."""
        for name, total in self.self_s.items():
            start = before.get(name, 0.0)
            self.self_s[name] = start + (total - start) * factor

    def add(self, name, counter, amount):
        key = (name, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block (used for set-up work)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)

    def _wrap(self, name, fn):
        tracer = self
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if after is not None:
                for counter, amount in after(args, kwargs, result).items():
                    tracer.add(name, counter, amount)
            return result

        if name == "sampler.PathBundle.add_poisson":

            def traced_add(bundle, *args, **kwargs):
                before = bundle.path_ids.size
                result = traced(bundle, *args, **kwargs)
                tracer.add(name, "particles", bundle.path_ids.size - before)
                return result

            return traced_add
        if name == "scipy.quad":

            def traced_quad(func, *args, **kwargs):
                def counted(*a):
                    tracer.add(name, "evals", 1)
                    return func(*a)

                return traced(counted, *args, **kwargs)

            return traced_quad
        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every layer at every name its callers use."""
        if self._patches:
            return
        for name, module_name, attr in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            holders = [module] + [
                m
                for key, m in sorted(sys.modules.items())
                if m is not None and m is not module
                and (key == "agedpop" or key.startswith("agedpop."))
                and m.__dict__.get(attr) is original
            ]
            for holder in holders:
                self._patch(holder, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def per_unit(self, units):
        """Every PER_LAYER metric, divided by the number of traced units."""
        out = {}
        for metric, unit, source in PER_LAYER:
            kind, layer = source[0], source[1]
            calls = self.calls.get(layer, 0)
            if kind == "s":
                value = self.self_s.get(layer, 0.0) / units
            elif kind == "calls":
                value = calls / units
            elif kind == "count":
                value = self.counts.get((layer, source[2]), 0) / units
            else:
                value = self.counts.get((layer, source[2]), 0) / calls if calls else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
