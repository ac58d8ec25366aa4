"""The sha256 of `simulate`'s output files on fixed configs.

tests/golden_simulate.json records them; test_cli.py reruns `simulate` and
compares, at --threads 1 and through a pool, so a change that moves one byte
of events.jsonl or summary.csv, or makes them depend on --threads, fails
tier-1.  The last bits of F_theta and of the hazard also depend on numpy, its
BLAS and the SIMD paths they pick on the CPU, so the record keeps those next
to the digests, and a mismatch prints both.  A change that moves the bytes on
purpose rewrites the record in the same commit, and says why:

    PYTHONPATH=src python tests/golden_simulate.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from agedpop.cli import main
from golden_metrics import environment

RECORD = Path(__file__).with_name("golden_simulate.json")
# perfbench's simulate-1d config: a linear density on [0, 1] and a separable hazard
CONFIG = {
    "habitat": {"window": [[0.0, 1.0]], "density": {"family": "linear", "base": 2.0, "slope": 6.0}},
    "model": {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0},
    "theta": [[1, 1, 1], [3, 2, 1]],
    "run": {"seed": 123, "n_paths": 2000, "times": [0.5, 1.0, 1.5, 2.0], "horizon": 2.0},
}
# a separable hazard on [0, 1]^2 and a constant one on [0, 1]^3: each path's
# (path, time) order and its chi_sample positions in dimensions 2 and 3
SEPARABLE_2D = {
    "habitat": {"window": [[0.0, 1.0]] * 2, "density": {"family": "constant", "level": 3.0}},
    "model": {"family": "separable", "base": 0.5, "amplitude": 1.0, "frequency": 2.0},
    "theta": [[1, 1, 1], [3, 2, 1]],
    "run": {"seed": 11, "n_paths": 1000, "times": [0.5, 1.0, 2.0], "horizon": 2.0},
}
CONSTANT_3D = {
    "habitat": {"window": [[0.0, 1.0]] * 3, "density": {"family": "constant", "level": 2.0}},
    "model": {"family": "constant", "rate": 1.0},
    "theta": [[1, 1, 1], [2, 1, 2]],
    "run": {"seed": 7, "n_paths": 1000, "times": [0.5, 1.0, 2.0], "horizon": 2.0},
}
# simulate-1d at 4500 paths: three seeded chunks of cli._CHUNK_PATHS = 2000, the last short
CONFIG_4500 = {**CONFIG, "run": {**CONFIG["run"], "n_paths": 4500}}
# the record's key of each run: (config, seed); simulate-1d's runs are keyed by their seed
RUNS = {
    "123": (CONFIG, 123),
    "7": (CONFIG, 7),
    "123-4500": (CONFIG_4500, 123),
    "2d-separable-11": (SEPARABLE_2D, 11),
    "3d-7": (CONSTANT_3D, 7),
}
FILES = ("events.jsonl", "summary.csv")


def simulate_digests(work_dir, threads=1, runs=RUNS):
    """{run: {file: sha256}} of `simulate --threads threads` for each of runs, a subset of RUNS."""
    work_dir = Path(work_dir)
    digests = {}
    for name in runs:
        data, seed = RUNS[name]
        config = work_dir / f"golden_simulate-{name}.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        out = work_dir / f"{name}-threads{threads}"
        argv = ["simulate", "--config", str(config), "--seed", str(seed), "--threads", str(threads)]
        if main(argv + ["--out-dir", str(out)]) != 0:
            raise RuntimeError(f"simulate exited nonzero on run {name}")
        digests[name] = {file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in FILES}
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work_dir:
        record = {"sha256": simulate_digests(work_dir), "environment": environment()}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
