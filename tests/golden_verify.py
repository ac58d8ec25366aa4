"""The sha256 of `verify --suite all`'s reports.csv on the four recorded configs.

tests/golden_verify.json records them; test_cli.py reruns `verify` and
compares, so a change that moves one bit of a report's value, threshold or
note fails tier-1.  The configs are those of test_verify._recorded, at the
default n_paths of 1000.  The last bits of the closed forms depend on numpy,
its BLAS and the SIMD paths they pick on the CPU, so the record keeps those
next to the digests, and a mismatch prints both.  A change that moves the
bits on purpose rewrites the record in the same commit, and says which rows
moved and why:

    PYTHONPATH=src python tests/golden_verify.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from agedpop.cli import main
from golden_metrics import environment

RECORD = Path(__file__).with_name("golden_verify.json")


def _config(window, level, model, theta, seed):
    return {
        "habitat": {"window": window, "density": {"family": "constant", "level": level}},
        "model": model,
        "theta": theta,
        "run": {"seed": seed, "n_paths": 1000},
    }


SEPARABLE = {"family": "separable", "base": 0.5, "amplitude": 1.0}
CONFIGS = {
    "1d": _config([[0.0, 1.0]], 2.0, {"family": "constant", "rate": 0.6}, [[1, 1, 1], [2, 1, 2]], 7),
    "2d-separable": _config(
        [[0.0, 1.0]] * 2, 3.0, dict(SEPARABLE, frequency=2.0), [[1, 1, 1], [3, 2, 1]], 11
    ),
    "3d": _config([[0.0, 1.0]] * 3, 2.0, {"family": "constant", "rate": 1.0}, [[1, 1, 1], [2, 1, 2]], 7),
    "1d-frequency-100": _config(
        [[0.0, 1.0]], 2.0, dict(SEPARABLE, frequency=100.0), [[1, 2, 1], [2, 3, 40]], 11
    ),
}


def run_verify(name, work_dir, suite="all"):
    """(exit code, stdout, out dir) of `verify --suite suite --out-dir` on CONFIGS[name]."""
    work_dir = Path(work_dir)
    config = work_dir / f"{name}.json"
    config.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    out = work_dir / f"{name}-{suite}"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["verify", "--config", str(config), "--suite", suite, "--out-dir", str(out)])
    return code, stdout.getvalue(), out


def reports_digest(out_dir):
    return hashlib.sha256((Path(out_dir) / "reports.csv").read_bytes()).hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work_dir:
        digests = {name: reports_digest(run_verify(name, work_dir)[2]) for name in CONFIGS}
    record = {"sha256": digests, "environment": environment()}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
