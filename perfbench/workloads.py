"""The four workloads: how each unit's inputs are made, run and checked.

A unit is one operation.  `build(i)` makes unit i's inputs (set-up work,
never timed), `run(inputs)` is the timed call into agedpop, and
`check(inputs, output)` returns the failed checks as (check, detail) pairs;
an empty list means the unit passed.  Checks for which is_statistical() is
true compare a Monte Carlo estimate with a band and have a small designed
false-alarm rate; every other check is exact up to floating point.

Unit i's inputs come from numpy.random.default_rng([key, seed, i]).  A
statistical check that trips counts only if it trips again on each of
RETRIES fresh draws of the unit (Workload.settle); see README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np

from agedpop import cli, config_space, generator, mark_space, sampler
from agedpop.config_space import MarkedConfiguration

import oracles

HERE = Path(__file__).resolve().parent
RETRIES = 2  # fresh draws of a unit on which a tripped statistical check must trip again

# checks with a designed false-alarm rate (the rest are exact)
STATISTICAL_REPORTS = {
    "laws-martingale",
    "sampler-cross-f-mean",
    "sampler-cross-counts",
    "sampler-count-transient-mean",
    "sampler-count-stationary-count",
    "sampler-count-stationary-ages",
}


def is_statistical(check):
    if check.startswith("report:"):
        return check[len("report:"):] in STATISTICAL_REPORTS
    return check.startswith(("mean_count@", "mean_f_theta@", "stationary@", "dirac@"))


def _se(values):
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _band(problems, check, estimate, se, reference):
    if not abs(estimate - reference) <= 4.0 * se:
        problems.append((check, f"|{estimate!r} - {reference!r}| > 4 SE = {4.0 * se!r}"))


class Workload:
    name = ""
    key = 0  # separates this workload's random streams from the others'
    trace_units = 1  # units per round of a traced run

    def __init__(self, seed, out_root):
        self.seed = int(seed)
        self.out_root = Path(out_root)

    def rng(self, draw):
        """The random stream of a draw: (seed, unit) or (seed, unit, retry)."""
        return np.random.default_rng([self.key, *draw])

    def unit_dir(self, i):
        path = self.out_root / f"u{i}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def build(self, i):
        return self.make((self.seed, i), self.unit_dir(i))

    def cleanup(self, inputs):
        shutil.rmtree(inputs["dir"], ignore_errors=True)

    def settle(self, i, problems):
        """(the problems of unit i that count, the statistical checks it tripped).

        A correct program trips a Monte Carlo band at its designed rate, so
        a tripped statistical check counts only if it trips again on each of
        RETRIES fresh draws of unit i, run untimed: a 1 % gate then counts
        about once in 1e6 units, while a biased estimate trips every time.
        Exact checks count at once, on the first draw or on a fresh one.
        """
        tripped = sorted({check for check, _ in problems if is_statistical(check)})
        counted = [p for p in problems if not is_statistical(p[0])]
        pending = [p for p in problems if is_statistical(p[0])]
        for retry in range(1, RETRIES + 1):
            if not pending:
                break
            inputs = self.make((self.seed, i, retry), self.unit_dir(f"{i}r{retry}"))
            try:
                again = self.check(inputs, self.run(inputs))
            except Exception as exc:  # counts as an exact failure, like a first draw that raises
                again = [("raised", repr(exc))]
            finally:
                self.cleanup(inputs)
            counted += [p for p in again if not is_statistical(p[0])]
            repeated = {check for check, _ in again}
            pending = [p for p in pending if p[0] in repeated]
        return counted + pending, tripped


def _write_config(path, habitat, model, theta, run):
    text = json.dumps({"habitat": habitat, "model": model, "theta": theta, "run": run})
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---- verify-1d ------------------------------------------------------------------

VERIFY_THETA = [[1, 1, 1], [2, 1, 2]]
VERIFY_REPORTS = [
    "metrics-triangle", "metrics-separation",
    "generator-bounds", "generator-flow-pde", "generator-kolmogorov",
    "laws-fpe-dirac", "laws-laplace", "laws-chapman", "laws-fpe-stationary", "laws-martingale",
    "sampler-cross-f-mean", "sampler-cross-counts",
    "sampler-count-transient-mean", "sampler-count-transient-mean",
    "sampler-count-stationary-count", "sampler-count-stationary-ages",
    "ergodicity", "stationarity",
]


def check_verify(rc, rows, pi_ref, count_mean):
    """rc and reports.csv rows of `verify --suite all` against references.

    pi_ref is pi(F_theta); count_mean(t) the immigration-death mean count.
    """
    problems = []
    expected_rc = 0 if all(r["passed"] == "True" for r in rows) else 1  # failed reports are checked below
    if rc != expected_rc:
        problems.append(("exit", f"verify exited {rc}, its reports call for {expected_rc}"))
    names = sorted(r["name"] for r in rows)
    if names != sorted(VERIFY_REPORTS):
        problems.append(("reports", f"unexpected report set {names}"))
    for r in rows:
        if r["passed"] != "True":
            problems.append(("report:" + r["name"], f"{r['statistic']} = {r['value']} vs {r['threshold']}"))
        if r["name"] == "stationarity":
            found = re.search(r"pi\(F\)=([0-9.eE+-]+)", r["note"])
            if found is None or not abs(float(found.group(1)) - pi_ref) <= 1e-8:
                problems.append(("pi", f"note {r['note']!r} vs pi(F) = {pi_ref!r}"))
        if r["name"] == "sampler-count-transient-mean":
            found = re.search(r"\|mean count - ([0-9.]+)\| at t=([0-9.]+)", r["statistic"])
            if found is None:
                problems.append(("count-law", f"unparsed statistic {r['statistic']!r}"))
                continue
            lam, t = float(found.group(1)), float(found.group(2))
            if not abs(lam - count_mean(t)) <= 5e-5 + 1e-12:
                problems.append(("count-law", f"mean {lam} at t={t} vs {count_mean(t)!r}"))
    return problems


class Verify1D(Workload):
    """`agedpop verify --suite all` on a 1-d constant-hazard config.

    Each unit has its own window length, density level, rate and seed, so
    the plateaus, intensities and quadratures it needs are its own.
    """

    name = "verify-1d"
    key = 101
    trace_units = 1
    n_paths = 2000

    def params(self, draw):
        rng = self.rng(draw)
        return {
            "length": 1.0 + 0.02 * rng.uniform(-1.0, 1.0),
            "level": 2.0 + 0.1 * rng.uniform(-1.0, 1.0),
            "rate": 0.6 + 0.02 * rng.uniform(-1.0, 1.0),
            "seed": int(rng.integers(2**31)),
        }

    def make(self, draw, unit_dir):
        p = self.params(draw)
        config = _write_config(
            unit_dir / "config.json",
            {"window": [[0.0, p["length"]]], "density": {"family": "constant", "level": p["level"]}},
            {"family": "constant", "rate": p["rate"]},
            VERIFY_THETA,
            {"seed": p["seed"], "n_paths": self.n_paths},
        )
        return dict(p, dir=unit_dir, config=config, out=str(unit_dir / "out"))

    def run(self, inputs):
        return _cli(["verify", "--config", inputs["config"], "--suite", "all",
                     "--seed", str(inputs["seed"]), "--out-dir", inputs["out"]])

    def check(self, inputs, output):
        rc, _ = output
        with open(Path(inputs["out"]) / "reports.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        chi = inputs["level"] * inputs["length"]
        m = inputs["rate"]
        pi_ref = oracles.stationary_pi_1d_constant(
            [tuple(t) for t in VERIFY_THETA], inputs["length"], inputs["level"], m
        )
        return check_verify(rc, rows, pi_ref, lambda t: chi * -math.expm1(-m * t) / m)


# ---- simulate-1d ----------------------------------------------------------------

SIM_HABITAT = {"window": [[0.0, 1.0]], "density": {"family": "linear", "base": 2.0, "slope": 6.0}}
SIM_MODEL = {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0}
SIM_THETA = [[1, 1, 1], [3, 2, 1]]
SIM_TIMES = [0.5, 1.0, 1.5, 2.0]


def read_summary(path):
    """summary.csv -> {(statistic, time): (value, stderr)}."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            (r["statistic"], float(r["time"])): (float(r["value"]), float(r["stderr"]))
            for r in csv.DictReader(fh)
        }


def check_simulate(summary, events, n_paths, times, count_ref, f_ref):
    """summary.csv and events.jsonl of `simulate` against references.

    count_ref(t) is the mean count and f_ref(t) the mean F_theta from the
    empty start.
    """
    problems = []
    for t in times:
        if ("mean_count", t) not in summary or ("mean_f_theta", t) not in summary:
            problems.append(("summary", f"no statistics at t={t}"))
            return problems
        mean, se = summary[("mean_count", t)]
        _band(problems, f"mean_count@{t:g}", mean, se, count_ref(t))
        mean, se = summary[("mean_f_theta", t)]
        _band(problems, f"mean_f_theta@{t:g}", mean, se, f_ref(t))
    keys = [(ev["path"], ev["time"]) for ev in events]
    if keys != sorted(keys):
        problems.append(("events-sorted", "events are not sorted by (path, time)"))
    births = {}
    net = np.zeros(len(times))
    for ev in events:
        pid = (ev["path"], ev["id"])
        if ev["kind"] == "arrival":
            if ev["age"] != 0.0 or pid in births:
                problems.append(("arrival", f"bad arrival {ev}"))
                break
            births[pid] = (ev["time"], ev["x"])
            step = 1.0
        else:
            birth = births.pop(pid, None)
            if birth is None or not birth[0] < ev["time"] or ev["x"] != birth[1]:
                problems.append(("departure", f"departure without its arrival {ev}"))
                break
            if not abs(ev["age"] - (ev["time"] - birth[0])) <= 1e-12:
                problems.append(("departure-age", f"age != time - birth in {ev}"))
                break
            step = -1.0
        net += step * (np.asarray(times) >= ev["time"])
    for j, t in enumerate(times):
        mean = summary[("mean_count", t)][0]
        if not abs(net[j] - mean * n_paths) <= 1e-6 * n_paths:
            problems.append(("event-counts", f"arrivals - departures {net[j]} vs {mean} * {n_paths} at t={t}"))
    return problems


class Simulate1D(Workload):
    """`agedpop simulate --threads 1` on a 1-d linear-density separable config.

    The program keeps nothing between calls that a unit could reuse, so a
    unit's own input is its seed.
    """

    name = "simulate-1d"
    key = 202
    trace_units = 2
    n_paths = 2000

    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        self._refs = None

    def make(self, draw, unit_dir):
        seed = int(self.rng(draw).integers(2**31))
        config = _write_config(
            unit_dir / "config.json", SIM_HABITAT, SIM_MODEL, SIM_THETA,
            {"seed": seed, "n_paths": self.n_paths, "times": SIM_TIMES, "horizon": SIM_TIMES[-1]},
        )
        return {"dir": unit_dir, "config": config, "seed": seed, "out": str(unit_dir / "out")}

    def run(self, inputs):
        return _cli(["simulate", "--config", inputs["config"], "--threads", "1",
                     "--seed", str(inputs["seed"]), "--out-dir", inputs["out"]])

    def references(self, config_path):
        """(count_ref, f_ref): the oracle's mean count, explicit_solution's mean F."""
        if self._refs is None:
            cfg = cli.load_config(config_path)
            empty = MarkedConfiguration.empty(1)
            dens, mod = SIM_HABITAT["density"], SIM_MODEL
            counts = {
                t: oracles.mean_count_1d_separable(
                    t, 0.0, 1.0, dens["base"], dens["slope"], mod["base"], mod["amplitude"], mod["frequency"]
                )
                for t in SIM_TIMES
            }
            fs = {
                t: generator.explicit_solution(cfg.theta, 0.0, t, empty, cfg.habitat, cfg.model)
                for t in SIM_TIMES
            }
            self._refs = (counts.__getitem__, fs.__getitem__)
        return self._refs

    def check(self, inputs, output):
        rc, _ = output
        out = Path(inputs["out"])
        if rc != 0:
            return [("exit", f"simulate exited {rc}")]
        with open(out / "events.jsonl", encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        count_ref, f_ref = self.references(inputs["config"])
        return check_simulate(read_summary(out / "summary.csv"), events, self.n_paths, SIM_TIMES, count_ref, f_ref)


# ---- oneshot-2d -----------------------------------------------------------------

ONESHOT_MODEL = {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0}
ONESHOT_THETA = [[1, 1, 1], [3, 2, 1]]


def check_oneshot(times, stationary, pi_ref, dirac, dirac_refs):
    """Means of F_theta along the time grid against pi(F) and explicit_solution.

    stationary and dirac map a time index to the per-path F_theta values.
    """
    problems = []
    for j, t in enumerate(times):
        f = stationary[j]
        _band(problems, f"stationary@{j}", float(f.mean()), _se(f), pi_ref)
        f = dirac[j]
        _band(problems, f"dirac@{j}", float(f.mean()), _se(f), dirac_refs[j])
    return problems


class Oneshot2D(Workload):
    """sample_trajectory_marginals from the invariant law and from a Dirac start.

    Each unit has its own density level, time grid, Dirac configuration and
    seeds, so no intensity can be carried from one unit to the next.
    """

    name = "oneshot-2d"
    key = 303
    trace_units = 3
    n_paths = 100_000

    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        self._stationary_exponent = None

    def make(self, draw, unit_dir):
        rng = self.rng(draw)
        level = 3.0 + 0.1 * rng.uniform(-1.0, 1.0)
        steps = [rng.uniform(0.2, 0.3), rng.uniform(0.2, 0.3), rng.uniform(0.4, 0.6)]
        config = _write_config(
            unit_dir / "config.json",
            {"window": [[0.0, 1.0], [0.0, 1.0]], "density": {"family": "constant", "level": level}},
            ONESHOT_MODEL, ONESHOT_THETA, {"seed": 0},
        )
        cfg = cli.load_config(config)
        dirac = MarkedConfiguration(rng.uniform(0.0, 1.0, (3, 2)), rng.uniform(0.0, 3.0, 3))
        return {
            "dir": unit_dir, "cfg": cfg, "level": level, "times": list(np.cumsum(steps)),
            "dirac": dirac, "seeds": [int(s) for s in rng.integers(2**31, size=2)],
        }

    def run(self, inputs):
        cfg = inputs["cfg"]
        hab, model, theta = cfg.habitat, cfg.model, cfg.theta
        invariant = sampler.stationary_intensity(hab, model)
        stationary = sampler.sample_trajectory_marginals(
            invariant, inputs["times"], [theta], hab, model, self.n_paths,
            np.random.default_rng(inputs["seeds"][0]),
        )
        dirac = sampler.sample_trajectory_marginals(
            inputs["dirac"], inputs["times"], [theta], hab, model, self.n_paths,
            np.random.default_rng(inputs["seeds"][1]),
        )
        n = len(inputs["times"])
        return [stationary[("f", j, 0)] for j in range(n)], [dirac[("f", j, 0)] for j in range(n)]

    def check(self, inputs, output):
        if self._stationary_exponent is None:
            m = ONESHOT_MODEL
            self._stationary_exponent = oracles.stationary_exponent_2d(
                [tuple(t) for t in ONESHOT_THETA], [0.0, 0.0], [1.0, 1.0],
                m["base"], m["amplitude"], m["frequency"],
            )
        cfg = inputs["cfg"]
        refs = [
            generator.explicit_solution(cfg.theta, 0.0, t, inputs["dirac"], cfg.habitat, cfg.model)
            for t in inputs["times"]
        ]
        stationary, dirac = output
        pi_ref = math.exp(inputs["level"] * self._stationary_exponent)
        return check_oneshot(inputs["times"], stationary, pi_ref, dirac, refs)


# ---- distances-2d ---------------------------------------------------------------

DIST_BUDGETS = {"kappa": 30, "ground": 30, "rho": 40}


def distance(metric, a, b, habitat):
    """One distance as `agedpop distance` computes it."""
    budget = DIST_BUDGETS[metric]
    if metric == "kappa":
        return config_space.kappa_distance(a, b, habitat, budget=budget)[0]
    if metric == "ground":
        return config_space.ground_distance(a, b, habitat, budget=budget)[0]
    return mark_space.rho_distance(mark_space.MarkSet(a.ages), mark_space.MarkSet(b.ages), budget=budget)[0]


def check_distances(values, identity, symmetry, series):
    """Metric properties of a unit's distances and agreement with the series.

    values: {metric: [(d(a,b), d(b,c), d(a,c)) per triple]};
    identity: {metric: [d(a,a)]}; symmetry: {metric: [(d(a,b), d(b,a))]};
    series: {metric: [(library value, directly summed series)]}.
    """
    problems = []
    for metric, triples in values.items():
        d = np.asarray(triples, dtype=float)
        if not np.all(np.isfinite(d)) or d.min() < 0.0:
            problems.append((f"{metric}-range", "a distance is negative or not finite"))
        if metric == "kappa" and not d.max() < 1.0:
            problems.append(("kappa-range", f"kappa {d.max()!r} >= 1"))
        excess = float(np.max(2.0 * d - d.sum(axis=1, keepdims=True)))
        if not excess <= 1e-12:
            problems.append((f"{metric}-triangle", f"triangle excess {excess!r}"))
    for metric, dists in identity.items():
        if not max(abs(x) for x in dists) <= 1e-15:
            problems.append((f"{metric}-identity", f"d(a, a) = {dists!r}"))
    for metric, pairs in symmetry.items():
        if not max(abs(x - y) for x, y in pairs) <= 1e-12:
            problems.append((f"{metric}-symmetry", f"d(a, b) != d(b, a): {pairs!r}"))
    for metric, pairs in series.items():
        if not max(abs(x - y) for x, y in pairs) <= 1e-12:
            problems.append((f"{metric}-series", f"library vs series: {pairs!r}"))
    return problems


class Distances2D(Workload):
    """kappa, ground and rho distances over triples of 2-d configurations.

    Each unit has its own window, so plateau functions cached per window
    cannot carry over from one unit to the next.
    """

    name = "distances-2d"
    key = 404
    trace_units = 4
    small_triples = 16  # triples of configurations of about 5 particles
    large_size = 300  # particles in each configuration of the one large triple

    def make(self, draw, unit_dir):
        rng = self.rng(draw)
        upper = [1.0 + 0.05 * rng.uniform(-1.0, 1.0) for _ in range(2)]
        config = _write_config(
            unit_dir / "config.json",
            {"window": [[0.0, hi] for hi in upper], "density": {"family": "constant", "level": 3.0}},
            {"family": "constant", "rate": 1.0}, [[1, 1, 1]], {"seed": 0},
        )
        cfg = cli.load_config(config)

        def draw(n):
            return MarkedConfiguration(rng.uniform(0.0, 1.0, (n, 2)) * upper, rng.exponential(1.0, n))

        triples = [tuple(draw(int(rng.poisson(5.0))) for _ in range(3)) for _ in range(self.small_triples)]
        triples.append(tuple(draw(self.large_size) for _ in range(3)))
        return {"dir": unit_dir, "cfg": cfg, "upper": upper, "triples": triples}

    def run(self, inputs):
        habitat = inputs["cfg"].habitat
        out = {metric: [] for metric in DIST_BUDGETS}
        for a, b, c in inputs["triples"]:
            for metric, rows in out.items():
                rows.append((distance(metric, a, b, habitat), distance(metric, b, c, habitat),
                             distance(metric, a, c, habitat)))
        return out

    def check(self, inputs, output):
        habitat = inputs["cfg"].habitat
        lower, upper = [0.0, 0.0], inputs["upper"]
        small, large = inputs["triples"][0], inputs["triples"][-1]
        identity = {m: [distance(m, small[0], small[0], habitat)] for m in DIST_BUDGETS}
        symmetry = {m: [(output[m][0][0], distance(m, small[1], small[0], habitat))] for m in DIST_BUDGETS}
        series = {"kappa": [], "ground": [], "rho": []}
        for row, (a, b, _) in ((0, small), (-1, large)):
            series["kappa"].append((output["kappa"][row][0], oracles.kappa_series(
                a.positions, a.ages, b.positions, b.ages, lower, upper, DIST_BUDGETS["kappa"])))
            series["ground"].append((output["ground"][row][0], oracles.ground_series(
                a.positions, b.positions, lower, upper, DIST_BUDGETS["ground"])))
            series["rho"].append((output["rho"][row][0], oracles.rho_series(a.ages, b.ages, DIST_BUDGETS["rho"])))
        return check_distances(output, identity, symmetry, series)


WORKLOADS = {w.name: w for w in (Verify1D, Simulate1D, Oneshot2D, Distances2D)}
