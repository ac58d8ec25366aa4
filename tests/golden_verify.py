"""The sha256 of `verify --suite all`'s reports.csv on the four recorded configs.

tests/golden_verify.json records them, and next to each file digest one
digest per report row; test_cli.py reruns `verify` and compares, so a change
that moves one bit of a report's value, threshold or note fails tier-1 and
names the rows that moved.  The configs are those of test_verify._recorded,
at the default n_paths of 1000.  The last bits of the closed forms depend on
numpy, its BLAS and the SIMD paths they pick on the CPU, so the record keeps
those next to the digests, and a mismatch prints both.  A change that moves
the bits on purpose rewrites the record in the same commit, and says which
rows moved and why; the rewrite prints them too:

    PYTHONPATH=src python tests/golden_verify.py
"""

from __future__ import annotations

import collections
import contextlib
import csv
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


def row_digests(out_dir):
    """{label: sha256} of every row of reports.csv, in order.  A row's label is
    its name, and name#k for the k-th row of that name, k >= 2."""
    with open(Path(out_dir) / "reports.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    seen, out = collections.Counter(), {}
    for row in rows:
        seen[row[0]] += 1
        label = row[0] if seen[row[0]] == 1 else f"{row[0]}#{seen[row[0]]}"
        out[label] = hashlib.sha256(json.dumps(row).encode("utf-8")).hexdigest()
    return out


def moved_rows(recorded, current):
    """Labels of the rows whose digest differs between two row_digests, or that one lacks."""
    return [label for label in {**recorded, **current} if recorded.get(label) != current.get(label)]


if __name__ == "__main__":
    old = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    with tempfile.TemporaryDirectory() as work_dir:
        outs = {name: run_verify(name, work_dir)[2] for name in CONFIGS}
        digests = {name: reports_digest(out) for name, out in outs.items()}
        rows = {name: row_digests(out) for name, out in outs.items()}
    record = {"sha256": digests, "rows": rows, "environment": environment()}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
    for name in CONFIGS:
        if "rows" in old:
            print(f"{name}: rows moved {moved_rows(old['rows'].get(name, {}), rows[name])}")
