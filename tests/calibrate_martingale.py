"""Calibration of verify's laws-martingale row over many seeds.

The row is a 4-standard-error band on the mean martingale increment
E[(F(X_t2) - F(X_t1) - int L F) W] from _dirac_start, which is 0 exactly.
For each recorded config named below, at verify's path cap and at 10^5
paths, this runs the row as SUITES runs it, once per seed, and prints the
z = mean / SE of every run summarised: mean |z| (0.798 for a standard
normal z; a bias of one standard error moves it to about 1.17), mean z, the
largest |z| and the count of |z| > 4.  It is a script, not a tier-1 test
(a few minutes on one core):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python tests/calibrate_martingale.py [n_seeds]
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from agedpop.cli import load_config
from agedpop.habitat import run_memo
from agedpop.verify import _dirac_start, martingale_residual
from golden_verify import CONFIGS

NAMES = ("1d", "2d-separable")
PATH_COUNTS = (4000, 100_000)  # verify's cap of the row, and the scale of acceptance criterion 12
FIRST_SEED = 5000


def z_scores(cfg, n_paths, seeds):
    """Signed z of the laws-martingale row at each seed, read off the row's note."""
    out = []
    with run_memo():
        for seed in seeds:
            report = martingale_residual(
                cfg.theta, _dirac_start(cfg.habitat), 0.25, 0.75, cfg.theta, cfg.habitat, cfg.model,
                n_paths, np.random.default_rng(seed), n_grid=32,
            )
            mean, se = (float(v) for v in re.search(r"mean=(\S+), SE=(\S+)", report.note).groups())
            out.append(mean / se)
    return np.array(out)


def main(n_seeds=300):
    seeds = range(FIRST_SEED, FIRST_SEED + n_seeds)
    print("| config | paths | seeds | mean abs z | mean z (SE) | max abs z | abs z > 4 |")
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as work:
        for name in NAMES:
            path = Path(work) / f"{name}.json"
            path.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
            cfg = load_config(str(path))
            for n_paths in PATH_COUNTS:
                z = z_scores(cfg, n_paths, seeds)
                print(
                    f"| {name} | {n_paths} | {len(z)} | {np.abs(z).mean():.3f} | "
                    f"{z.mean():+.3f} ({z.std(ddof=1) / np.sqrt(len(z)):.3f}) | "
                    f"{np.abs(z).max():.2f} | {int(np.sum(np.abs(z) > 4))} |",
                    flush=True,
                )


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
