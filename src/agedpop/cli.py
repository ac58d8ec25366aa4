"""Command line front end.

Subcommands:

    simulate           event-driven trajectories -> events.jsonl + summary.csv
    verify             desk-scale verification suites -> one line per check
    distance           metric distance between two stored configurations
    stationary-sample  draw configurations from the invariant law

Every run that writes files also writes header.json carrying the verbatim
configuration text, so outputs can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config_space import (
    MarkedConfiguration,
    ground_distance,
    kappa_distance,
    load_configuration,
)
from .generator import FlowedTheta, compute_bounds, flow, flow_pde_residual, kolmogorov_residual
from .habitat import constant_rate, linear_habitat, separable_rate, uniform_habitat
from .mark_space import MarkSet, rho_distance
from .sampler import (
    PathBundle,
    event_driven_simulate,
    sample_poisson,
    stationary_intensity,
    transient_intensity,
)
from .test_functions import Theta
from .verify import (
    DiracLaw,
    PoissonLaw,
    VerificationReport,
    chapman_kolmogorov_check,
    count_law_oracle,
    cross_sampler_check,
    ergodicity_check,
    fokker_planck_check,
    format_reports,
    laplace_uniqueness_check,
    martingale_residual,
    stationarity_check,
    write_reports_csv,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]


class ConfigError(ValueError):
    """Raised when the experiment configuration is malformed."""


def _require(mapping, path, required, optional=()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field (allowed: {sorted(allowed)})")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"{path}.{key}: missing required field")
    return mapping


def _build_habitat(section):
    _require(section, "habitat", ["window", "density"])
    window = section["window"]
    if not isinstance(window, list) or not window or not all(
        isinstance(side, list) and len(side) == 2 for side in window
    ):
        raise ConfigError("habitat.window: expected a list of [low, high] pairs")
    window = [(float(lo), float(hi)) for lo, hi in window]
    dens = _require(section["density"], "habitat.density", ["family"], ["level", "base", "slope"])
    family = dens["family"]
    if family == "constant":
        _require(dens, "habitat.density", ["family", "level"])
        return uniform_habitat(window, float(dens["level"]))
    if family == "linear":
        _require(dens, "habitat.density", ["family", "base", "slope"])
        return linear_habitat(window, float(dens["base"]), float(dens["slope"]))
    raise ConfigError(f"habitat.density.family: unknown family {family!r}")


def _build_model(section, habitat):
    fields = _require(
        section, "model", ["family"], ["rate", "base", "amplitude", "frequency"]
    )
    family = fields["family"]
    if family == "constant":
        _require(fields, "model", ["family", "rate"])
        model = constant_rate(float(fields["rate"]))
    elif family == "separable":
        _require(fields, "model", ["family", "base", "amplitude", "frequency"])
        model = separable_rate(
            habitat, float(fields["base"]), float(fields["amplitude"]), float(fields["frequency"])
        )
    else:
        raise ConfigError(f"model.family: unknown family {family!r}")
    # probe the stated bounds on a grid; a violation means bad parameters
    axes = [np.linspace(lo, hi, 9) for lo, hi in zip(habitat.lower, habitat.upper)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, habitat.dim)
    ages = np.linspace(0.0, 25.0, 41)
    rates = model.rate(mesh[:, None, :], ages[None, :])
    if rates.min() < model.m_zero - 1e-9 or rates.max() > model.m_star + 1e-9:
        raise ConfigError("model: hazard leaves the declared [m_zero, m_star] band")
    return model


def _build_theta(entries, habitat):
    if not isinstance(entries, list) or not entries:
        raise ConfigError("theta: expected a non-empty list of [s, k, n] triples")
    for i, item in enumerate(entries):
        if not isinstance(item, list) or len(item) != 3:
            raise ConfigError(f"theta[{i}]: expected an [s, k, n] triple")
    return Theta([tuple(int(v) for v in item) for item in entries], habitat)


@dataclass
class ExperimentConfig:
    habitat: object
    model: object
    theta: Theta
    seed: int
    n_paths: int
    times: list[float]
    horizon: float
    out_dir: str
    raw_text: str = field(repr=False, default="")


def load_config(path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    _require(data, "config", ["habitat", "model", "theta", "run"], ["output"])
    habitat = _build_habitat(data["habitat"])
    model = _build_model(data["model"], habitat)
    theta = _build_theta(data["theta"], habitat)
    run = _require(
        data["run"], "run", ["seed"], ["n_paths", "times", "horizon"]
    )
    times = [float(t) for t in run.get("times", [1.0])]
    if times != sorted(times) or any(t < 0 for t in times):
        raise ConfigError("run.times: expected a sorted list of nonnegative times")
    n_paths = int(run.get("n_paths", 1000))
    if n_paths < 2:
        raise ConfigError("run.n_paths: need at least 2 paths for a standard error")
    horizon = float(run.get("horizon", max(times) if times else 1.0))
    if horizon < 0:
        raise ConfigError("run.horizon: expected a nonnegative time")
    if times and horizon < times[-1]:
        raise ConfigError(f"run.horizon: {horizon} is before the last of run.times ({times[-1]})")
    out = data.get("output", {})
    _require(out, "output", [], ["dir"])
    return ExperimentConfig(
        habitat=habitat,
        model=model,
        theta=theta,
        seed=int(run["seed"]),
        n_paths=n_paths,
        times=times,
        horizon=horizon,
        out_dir=str(out.get("dir", "out")),
        raw_text=text,
    )


def _write_header(out_dir, cfg, command, seed):
    payload = {"command": command, "seed": seed, "config": cfg.raw_text}
    (out_dir / "header.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")


# Paths per seeded block: block b draws from child b of SeedSequence(seed),
# and workers receive whole blocks, so the output is the same for any
# --threads.  Changing it changes every simulate output.
_BLOCK_PATHS = 100


def _block_rng(seed, block):
    """Generator of child `block` of SeedSequence(seed)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))


def _event_lines(events, first_path):
    """events.jsonl text of a structured event array, as json.dumps writes it."""
    return "".join(
        f'{{"path": {p}, "time": {t!r}, "kind": "{k}", "id": {i}, '
        f'"x": [{", ".join(map(repr, x))}], "age": {a!r}}}\n'
        for p, t, k, i, x, a in zip(
            (events["path"] + first_path).tolist(), events["time"].tolist(),
            events["kind"].tolist(), events["id"].tolist(), events["x"].tolist(),
            events["age"].tolist(),
        )
    )


def _simulate_block(cfg, block, seed):
    """One seeded block of paths from the empty start.

    Returns (events.jsonl text, event count, counts and F_theta values of
    shape (paths, times), thinning proposals, thinning accepts).
    """
    first = block * _BLOCK_PATHS
    empty = MarkedConfiguration.empty(cfg.habitat.dim)
    traj = event_driven_simulate(
        empty, cfg.horizon, cfg.habitat, cfg.model, _block_rng(seed, block),
        n_paths=min(_BLOCK_PATHS, cfg.n_paths - first),
    )
    states = [traj.state_at(t) for t in cfg.times]
    counts = np.stack([state.counts() for state in states], axis=1)
    fvals = np.stack([state.f_theta(cfg.theta) for state in states], axis=1)
    events = traj.events
    return _event_lines(events, first), len(events), counts, fvals, traj.proposals, traj.accepts


def _simulate_chunk(args):
    """Worker: simulate whole blocks of paths; returns their results in order."""
    config_path, blocks, seed = args
    cfg = load_config(config_path)
    return [_simulate_block(cfg, block, seed) for block in blocks]


def _block_results(args, cfg, seed):
    """Every block's result in block order, from this process or a pool."""
    n_blocks = -(-cfg.n_paths // _BLOCK_PATHS)
    if args.threads <= 1:
        for block in range(n_blocks):
            yield _simulate_block(cfg, block, seed)
        return
    size = -(-n_blocks // args.threads)
    work = [
        (args.config, range(b, min(b + size, n_blocks)), seed) for b in range(0, n_blocks, size)
    ]
    with ProcessPoolExecutor(max_workers=args.threads) as pool:
        for chunk in pool.map(_simulate_chunk, work):
            yield from chunk


def cmd_simulate(args):
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    out_dir = Path(args.out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_header(out_dir, cfg, "simulate", seed)
    counts, fvals = [], []
    n_events = proposals = accepts = 0
    with open(out_dir / "events.jsonl", "w", encoding="utf-8") as fh:
        for text, n_ev, c, f, prop, acc in _block_results(args, cfg, seed):
            fh.write(text)
            counts.append(c)
            fvals.append(f)
            n_events += n_ev
            proposals += prop
            accepts += acc
    counts = np.concatenate(counts).astype(float)
    fvals = np.concatenate(fvals)
    n = counts.shape[0]
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "statistic", "value", "stderr"])
        for j, t in enumerate(cfg.times):
            writer.writerow(["%g" % t, "mean_count", counts[:, j].mean(), counts[:, j].std(ddof=1) / math.sqrt(n)])
            writer.writerow(["%g" % t, "mean_f_theta", fvals[:, j].mean(), fvals[:, j].std(ddof=1) / math.sqrt(n)])
    rate = accepts / proposals if proposals else 0.0
    print(
        f"wrote {n_events} events over {n} paths to {out_dir} "
        f"(thinning accepted {accepts} of {proposals} proposals, {rate:.1%})"
    )
    return 0


def _suite_metrics(cfg, rng):
    habitat, theta = cfg.habitat, cfg.theta
    reports = []
    worst = -math.inf
    for _ in range(200):
        cfgs = []
        for _ in range(3):
            k = int(rng.integers(0, 5))
            pos = habitat.lower + rng.random((k, habitat.dim)) * (habitat.upper - habitat.lower)
            ages = rng.exponential(1.0, k)
            cfgs.append(MarkedConfiguration(pos, ages))
        a, b, c = cfgs
        dab, _ = kappa_distance(a, b, habitat, budget=12)
        dbc, _ = kappa_distance(b, c, habitat, budget=12)
        dac, _ = kappa_distance(a, c, habitat, budget=12)
        worst = max(worst, dac - dab - dbc)
    reports.append(
        VerificationReport(
            name="metrics-triangle",
            statistic="max triangle excess (kappa, budget 12)",
            value=worst,
            threshold=1e-12,
            passed=worst <= 1e-12,
            n_samples=200,
        )
    )
    a = MarkedConfiguration(
        habitat.lower[None, :] + 0.3 * (habitat.upper - habitat.lower)[None, :], np.array([1.0])
    )
    b = MarkedConfiguration(
        habitat.lower[None, :] + 0.7 * (habitat.upper - habitat.lower)[None, :], np.array([2.0])
    )
    dist, tail = kappa_distance(a, b, habitat)
    reports.append(
        VerificationReport(
            name="metrics-separation",
            statistic="kappa distance of distinct configurations",
            value=dist,
            threshold=tail,
            passed=dist > tail,
            note="pass requires distance above the truncation tail",
        )
    )
    return reports


def _suite_generator(cfg):
    habitat, model, theta = cfg.habitat, cfg.model, cfg.theta
    reports = []
    bounds = compute_bounds(theta, habitat, model)
    reports.append(
        VerificationReport(
            name="generator-bounds",
            statistic="uniform generator bound (grid check inside)",
            value=bounds.est_bound,
            threshold=math.inf,
            passed=True,
            note=f"ell_theta={bounds.ell_theta:.4f}, tau_star={bounds.tau_star:.4f}",
        )
    )
    mid = habitat.midpoint[None, :]
    res = flow_pde_residual(theta, 0.5, mid, np.array([0.8]), model)
    val = float(np.max(np.abs(res)))
    reports.append(
        VerificationReport(
            name="generator-flow-pde",
            statistic="flow transport equation residual",
            value=val,
            threshold=1e-4,
            passed=val < 1e-4,
            note="central differences, h=1e-3",
        )
    )
    config = MarkedConfiguration(mid, np.array([0.5]))
    kres = kolmogorov_residual(theta, 0.6, config, habitat, model)
    reports.append(
        VerificationReport(
            name="generator-kolmogorov",
            statistic="backward equation residual",
            value=abs(kres),
            threshold=1e-4,
            passed=abs(kres) < 1e-4,
        )
    )
    return reports


# Simpson cells of the Fokker-Planck checks: at 128 the Simpson error of
# ordinary 1-d and 2-d configs is near 1e-9, well below the 1e-8 threshold
_FPE_GRID = 128


def _suite_laws(cfg, rng):
    habitat, model, theta = cfg.habitat, cfg.model, cfg.theta
    mid = habitat.midpoint[None, :]
    config = MarkedConfiguration(np.vstack([mid, 0.9 * mid + 0.1 * habitat.lower]), np.array([0.4, 1.3]))
    reports = [
        fokker_planck_check(
            theta, DiracLaw(config), 1.0, habitat, model, n_grid=_FPE_GRID, name="laws-fpe-dirac"
        ),
        laplace_uniqueness_check(theta, config, 1.5, habitat, model, name="laws-laplace"),
        chapman_kolmogorov_check(theta, config, 0.4, 0.7, habitat, model, name="laws-chapman"),
    ]
    if model.m_zero > 0:
        poisson = PoissonLaw(stationary_intensity(habitat, model))
        reports.append(
            fokker_planck_check(
                theta, poisson, 1.0, habitat, model, n_grid=_FPE_GRID, name="laws-fpe-stationary"
            )
        )
    n = min(cfg.n_paths, 4000)
    reports.append(
        martingale_residual(
            theta, DiracLaw(config), 0.25, 0.75, theta, habitat, model, n, rng,
            n_grid=32, seed=cfg.seed, name="laws-martingale",
        )
    )
    return reports


def _suite_sampler(cfg, rng):
    habitat, model, theta = cfg.habitat, cfg.model, cfg.theta
    n = min(cfg.n_paths, 2000)
    reports = list(cross_sampler_check(theta, 1.0, habitat, model, n, rng, seed=cfg.seed, name="sampler-cross"))
    if model.m_zero == model.m_star and model.m_star > 0:
        reports.extend(
            count_law_oracle(
                habitat, model, [0.5, 2.0], n, rng, seed=cfg.seed,
                ks_samples=20_000, name="sampler-count",
            )
        )
    else:
        reports.append(
            VerificationReport(
                name="sampler-count",
                statistic="skipped (hazard not constant)",
                value=0.0,
                threshold=0.0,
                passed=True,
            )
        )
    return reports


def _suite_ergodicity(cfg):
    habitat, model, theta = cfg.habitat, cfg.model, cfg.theta
    if model.m_zero <= 0:
        return [
            VerificationReport(
                name="ergodicity",
                statistic="skipped (hazard floor is zero)",
                value=0.0,
                threshold=0.0,
                passed=True,
            )
        ]
    return [
        ergodicity_check(theta, habitat, model),
        stationarity_check(theta, habitat, model, [0.5, 1.0, 2.0]),
    ]


def cmd_verify(args):
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    suites = {
        "metrics": lambda: _suite_metrics(cfg, rng),
        "generator": lambda: _suite_generator(cfg),
        "laws": lambda: _suite_laws(cfg, rng),
        "sampler": lambda: _suite_sampler(cfg, rng),
        "ergodicity": lambda: _suite_ergodicity(cfg),
    }
    picked = list(suites) if args.suite == "all" else [args.suite]
    reports = []
    for name in picked:
        reports.extend(suites[name]())
    print(format_reports(reports))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_header(out_dir, cfg, "verify", seed)
        write_reports_csv(reports, out_dir / "reports.csv")
    return 0 if all(r.passed for r in reports) else 1


def cmd_distance(args):
    cfg = load_config(args.config)
    try:
        a = load_configuration(args.first)
        b = load_configuration(args.second)
    except json.JSONDecodeError as exc:
        print(f"error: {exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    if args.metric == "ground":
        budget = args.budget or 30
        dist, tail = ground_distance(a, b, cfg.habitat, budget=budget)
    elif args.metric == "kappa":
        budget = args.budget or 30
        dist, tail = kappa_distance(a, b, cfg.habitat, budget=budget)
    else:
        budget = args.budget or 40
        dist, tail = rho_distance(MarkSet(a.ages), MarkSet(b.ages), budget=budget)
    print(f"{args.metric} distance = {dist:.12f}  (truncation tail <= {tail:.3e}, budget {budget})")
    return 0


def cmd_stationary_sample(args):
    cfg = load_config(args.config)
    if cfg.model.m_zero <= 0:
        print("error: the invariant law needs a positive hazard floor", file=sys.stderr)
        return 2
    seed = cfg.seed if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    intensity = stationary_intensity(cfg.habitat, cfg.model)
    out_dir = Path(args.out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_header(out_dir, cfg, "stationary-sample", seed)
    path = out_dir / "stationary.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(args.count):
            draw = sample_poisson(intensity, rng)
            record = [
                {"x": list(map(float, x)), "alpha": float(a)}
                for x, a in zip(draw.positions, draw.ages)
            ]
            fh.write(json.dumps(record) + "\n")
    print(
        f"wrote {args.count} draws to {path} "
        f"(age window truncation error <= {intensity.truncation_error:.3e})"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="agedpop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run event-driven trajectories")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--out-dir", default=None)
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--config", required=True)
    ver.add_argument(
        "--suite",
        choices=["metrics", "generator", "laws", "sampler", "ergodicity", "all"],
        default="all",
    )
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--out-dir", default=None)
    ver.set_defaults(func=cmd_verify)

    dist = sub.add_parser("distance", help="distance between two stored configurations")
    dist.add_argument("first")
    dist.add_argument("second")
    dist.add_argument("--config", required=True, help="experiment file supplying the window")
    dist.add_argument("--metric", choices=["ground", "kappa", "rho"], default="kappa")
    dist.add_argument("--budget", type=int, default=None)
    dist.set_defaults(func=cmd_distance)

    stat = sub.add_parser("stationary-sample", help="draw from the invariant law")
    stat.add_argument("--config", required=True)
    stat.add_argument("--count", type=int, default=1)
    stat.add_argument("--seed", type=int, default=None)
    stat.add_argument("--out-dir", default=None)
    stat.set_defaults(func=cmd_stationary_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
