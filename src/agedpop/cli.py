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
import os
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
from .habitat import constant_rate, linear_habitat, run_memo, separable_rate, uniform_habitat
from .mark_space import MarkSet, rho_distance
from .sampler import _path_time_order, event_driven_simulate, sample_poisson, stationary_intensity
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
    """build(*args), with a ValueError, TypeError or OverflowError it raises named by section."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _number(value, path):
    """float(value) of a JSON number that is finite as a float, else a ConfigError naming
    its path: a string or a bool, NaN, an infinity, and 1e400, which json reads as inf."""
    if type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{path}: {value!r}: expected a finite number")
    return float(value)


# section -> family -> (builder, fields): the builder takes the window or the habitat, then
# the fields in this order, and checks their ranges.  README's configuration table lists them.
_FAMILIES = {
    "habitat.density": {
        "constant": (uniform_habitat, ("level",)),
        "linear": (linear_habitat, ("base", "slope")),
    },
    "model": {
        "constant": (lambda habitat, rate: constant_rate(rate), ("rate",)),
        "separable": (separable_rate, ("base", "amplitude", "frequency")),
    },
}


def _build_family(section, path, first):
    """What the family of the section at `path` builds from `first` and its fields, read by _number."""
    families = _FAMILIES[path]
    fields = {key for _, keys in families.values() for key in keys}
    family = _require(section, path, ["family"], fields)["family"]
    if not isinstance(family, str) or family not in families:
        raise ConfigError(f"{path}.family: unknown family {family!r}")
    build, keys = families[family]
    _require(section, path, ["family", *keys])
    return build(first, *(_number(section[key], f"{path}.{key}") for key in keys))


def _build_habitat(section):
    window = _require(section, "habitat", ["window", "density"])["window"]
    if not isinstance(window, list) or not window or not all(
        isinstance(side, list) and len(side) == 2 for side in window
    ):
        raise ConfigError("habitat.window: expected a list of [low, high] pairs")
    window = [
        [_number(bound, f"habitat.window[{i}][{j}]") for j, bound in enumerate(side)]
        for i, side in enumerate(window)
    ]
    return _build_family(section["density"], "habitat.density", window)


def _build_theta(entries, habitat):
    if not isinstance(entries, list) or not entries:
        raise ConfigError("theta: expected a non-empty list of [s, k, n] triples")
    for i, item in enumerate(entries):
        if not isinstance(item, list) or len(item) != 3 or any(type(v) is not int for v in item):
            raise ConfigError(f"theta[{i}]: {item!r}: expected an [s, k, n] triple of integers")
    return Theta(entries, habitat)


def _build_run(section):
    """(seed, n_paths, times, horizon) of the run section."""
    run = _require(section, "run", ["seed"], ["n_paths", "times", "horizon"])
    seed = run["seed"]
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"run.seed: {seed!r}: expected a nonnegative integer")
    times = run.get("times", [1.0])
    if not isinstance(times, list):
        raise ConfigError(f"run.times: {times!r}: expected a list of numbers")
    times = [_number(t, f"run.times[{i}]") for i, t in enumerate(times)]
    if times != sorted(times) or not all(t >= 0 for t in times):
        raise ConfigError("run.times: expected a sorted list of finite nonnegative times")
    n_paths = run.get("n_paths", 1000)
    if type(n_paths) is not int or n_paths < 2:
        raise ConfigError(f"run.n_paths: {n_paths!r}: expected an integer >= 2, for a standard error")
    horizon = _number(run.get("horizon", max(times) if times else 1.0), "run.horizon")
    if horizon < 0:
        raise ConfigError(f"run.horizon: {horizon}: expected a finite nonnegative time")
    if times and horizon < times[-1]:
        raise ConfigError(f"run.horizon: {horizon} is before the last of run.times ({times[-1]})")
    return seed, n_paths, times, horizon


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
    return _parse_config(text, path)


def _parse_config(text, path):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    _require(data, "config", ["habitat", "model", "theta", "run"], ["output"])
    habitat = _in_section("habitat", _build_habitat, data["habitat"])
    model = _in_section("model", _build_family, data["model"], "model", habitat)
    theta = _in_section("theta", _build_theta, data["theta"], habitat)
    seed, n_paths, times, horizon = _build_run(data["run"])
    out = _require(data.get("output", {}), "output", [], ["dir"])
    out_dir = out.get("dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output.dir: {out_dir!r}: expected a string")
    return ExperimentConfig(
        habitat=habitat,
        model=model,
        theta=theta,
        seed=seed,
        n_paths=n_paths,
        times=times,
        horizon=horizon,
        out_dir=out_dir,
        raw_text=text,
    )


def _write_header(out_dir, cfg, command, seed):
    payload = {"command": command, "seed": seed, "config": cfg.raw_text}
    (out_dir / "header.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")


# Paths per seeded chunk: chunk c draws from child c of SeedSequence(seed) in
# one event_driven_simulate call, in this process or a worker, so the output is
# the same for any --threads; one trajectory of at most this many paths is
# held at a time.  Changing it changes simulate's outputs.
_CHUNK_PATHS = 2000


# Paths whose events.jsonl text is built at a time: it bounds memory and moves no byte.
_TEXT_PATHS = 100


def _chunk_rng(seed, chunk):
    """Generator of child `chunk` of SeedSequence(seed)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def _event_lines(traj, rows, first_path):
    """(events.jsonl text, event count) of the whole paths traj holds in the slice
    `rows` of its particles, paths numbered from first_path.

    The lines are those paths' rows of traj.events, in its (path, time)
    order, as json.dumps writes them; they are built from the flat
    per-particle arrays, each particle's coordinates formatted once for both
    its lines.
    """
    path_ids, ids = traj.path_ids[rows], traj.ids[rows]
    births, deaths = traj.births[rows], traj.deaths[rows]
    arrived = np.flatnonzero(ids >= traj.n_initial)
    departed = np.flatnonzero(np.isfinite(deaths))
    xs = list(map(", ".join(["%r"] * traj.dim).__mod__, zip(*traj.positions[rows].T.tolist())))
    times = np.concatenate([births[arrived], deaths[departed]])
    order = _path_time_order(path_ids[np.concatenate([arrived, departed])], times)
    paths = (path_ids + first_path).tolist()
    ids, births, deaths = ids.tolist(), births.tolist(), deaths.tolist()
    lines = [
        f'{{"path": {paths[j]}, "time": {births[j]!r}, "kind": "arrival", "id": {ids[j]}, '
        f'"x": [{xs[j]}], "age": 0.0}}\n'
        for j in arrived.tolist()
    ]
    lines += [
        f'{{"path": {paths[j]}, "time": {deaths[j]!r}, "kind": "departure", "id": {ids[j]}, '
        f'"x": [{xs[j]}], "age": {deaths[j] - births[j]!r}}}\n'
        for j in departed.tolist()
    ]
    return "".join([lines[i] for i in order.tolist()]), len(lines)


def _run_chunk(cfg, chunk, seed):
    """The paths of seeded chunk `chunk` from the empty start, in one call.

    Returns (an iterator over the events.jsonl text and event count of each
    _TEXT_PATHS paths, which builds one slice's text at a time, counts and
    F_theta values of shape (paths, times), with no columns if there are no
    times, thinning proposals, thinning accepts).
    """
    first = chunk * _CHUNK_PATHS
    n = min(_CHUNK_PATHS, cfg.n_paths - first)
    traj = event_driven_simulate(
        MarkedConfiguration.empty(cfg.habitat.dim), cfg.horizon, cfg.habitat, cfg.model,
        _chunk_rng(seed, chunk), n,
    )
    counts = np.empty((n, len(cfg.times)), dtype=np.int64)
    fvals = np.empty((n, len(cfg.times)))
    for j, t in enumerate(cfg.times):
        state = traj.state_at(t)
        counts[:, j] = state.counts()
        fvals[:, j] = state.f_theta(cfg.theta)
    # path_ids is sorted, so each slice of paths is one run of rows
    ends = np.searchsorted(traj.path_ids, [*range(0, n, _TEXT_PATHS), n]).tolist()
    texts = (_event_lines(traj, slice(lo, hi), first) for lo, hi in zip(ends, ends[1:]))
    return texts, counts, fvals, traj.proposals, traj.accepts


def _simulate_chunk(args):
    """Worker: _run_chunk on the config text the parent read, every slice's text built."""
    config_text, chunk, seed = args
    texts, *rest = _run_chunk(_parse_config(config_text, "config"), chunk, seed)
    return list(texts), *rest


def _chunk_results(args, cfg, seed):
    """_run_chunk of every chunk, in order: in this process, or on a pool fed
    2 chunks per worker at a time."""
    n_chunks = -(-cfg.n_paths // _CHUNK_PATHS)
    # a forked pool starts all its workers at once: none without a chunk or a CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(args.threads, n_chunks, cpus)
    if workers == 1:
        yield from (_run_chunk(cfg, c, seed) for c in range(n_chunks))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for w in range(0, n_chunks, 2 * workers):
            window = [(cfg.raw_text, c, seed) for c in range(w, min(w + 2 * workers, n_chunks))]
            yield from pool.map(_simulate_chunk, window)


def cmd_simulate(args):
    if args.threads < 1:
        print(f"error: --threads {args.threads}: expected at least one process", file=sys.stderr)
        return 2
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    out_dir = Path(args.out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_header(out_dir, cfg, "simulate", seed)
    n = cfg.n_paths
    counts, fvals = np.empty((n, len(cfg.times))), np.empty((n, len(cfg.times)))
    n_events = proposals = accepts = row = 0
    with open(out_dir / "events.jsonl", "w", encoding="utf-8") as fh:
        for texts, c, f, prop, acc in _chunk_results(args, cfg, seed):
            for text, n_ev in texts:
                fh.write(text)
                n_events += n_ev
            counts[row : row + len(c)] = c
            fvals[row : row + len(f)] = f
            row += len(c)
            proposals += prop
            accepts += acc
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
    with run_memo():
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
