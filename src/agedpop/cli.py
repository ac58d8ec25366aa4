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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config_space import (
    MarkedConfiguration,
    configuration_to_json,
    ground_distance,
    kappa_distance,
    load_configuration,
)
from .habitat import constant_rate, linear_habitat, separable_rate, uniform_habitat
from .mark_space import MarkSet, rho_distance
from .sampler import event_driven_simulate, sample_poisson, stationary_intensity
from .test_functions import Theta
from .verify import SUITES, format_reports, write_reports_csv

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


def _in_section(section, build, *args):
    """build(*args), with a ValueError or TypeError it raises named by section."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    _require(data, "config", ["habitat", "model", "theta", "run"], ["output"])
    habitat = _in_section("habitat", _build_habitat, data["habitat"])
    model = _in_section("model", _build_model, data["model"], habitat)
    theta = _in_section("theta", _build_theta, data["theta"], habitat)
    run = _require(
        data["run"], "run", ["seed"], ["n_paths", "times", "horizon"]
    )
    seed = int(run["seed"])
    if seed < 0:
        raise ConfigError(f"run.seed: {seed}: expected a nonnegative integer")
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
        seed=seed,
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


def cmd_verify(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    rng = np.random.default_rng(cfg.seed)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [r for suite in suites for check in SUITES[suite] for r in check(cfg, rng)]
    print(format_reports(reports))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_header(out_dir, cfg, "verify", cfg.seed)
        write_reports_csv(reports, out_dir / "reports.csv")
    return 1 if any(r.outcome == "FAIL" for r in reports) else 0


def cmd_distance(args):
    cfg = load_config(args.config)
    budget = {"ground": 30, "kappa": 30, "rho": 40}[args.metric] if args.budget is None else args.budget
    source = args.first  # what an error message names
    try:
        a = load_configuration(source, dim=cfg.habitat.dim)
        source = args.second
        b = load_configuration(source, dim=cfg.habitat.dim)
        source = f"--budget {budget}"
        if args.metric == "ground":
            dist, tail = ground_distance(a, b, cfg.habitat, budget=budget)
        elif args.metric == "kappa":
            dist, tail = kappa_distance(a, b, cfg.habitat, budget=budget)
        else:
            dist, tail = rho_distance(MarkSet(a.ages), MarkSet(b.ages), budget=budget)
    except json.JSONDecodeError as exc:
        print(f"error: {source}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 2
    print(f"{args.metric} distance = {dist:.12f}  (truncation tail <= {tail:.3e}, budget {budget})")
    return 0


def cmd_stationary_sample(args):
    if args.count < 0:
        print(f"error: --count {args.count}: expected a nonnegative number of draws", file=sys.stderr)
        return 2
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
            fh.write(configuration_to_json(sample_poisson(intensity, rng)) + "\n")
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
        choices=[*SUITES, "all"],
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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed {args.seed}: expected a nonnegative integer")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
