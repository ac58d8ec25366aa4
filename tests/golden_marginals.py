"""The sha256 of every output array of `sample_trajectory_marginals` on fixed inputs.

tests/golden_marginals.json records them; test_sampler.py recomputes them, so a
change that moves one bit of an F_theta or count array fails tier-1 and names
the arrays that moved.  Each of an empty, a stationary Poisson and a
3-particle Dirac start runs on a 1-d and a 2-d config at a fixed seed, over
one and a half blocks of paths (sampler._BLOCK_PARTICLES over the expected
particles per path), so the record pins the block rule, the draw order across
blocks and the short last block.  The last bits depend on numpy, its BLAS and
the SIMD paths they pick on the CPU, so the record keeps those next to the
digests, and a mismatch prints both.  A change that moves the bits on purpose
rewrites the record in the same commit, and says which arrays moved and why:

    PYTHONPATH=src python tests/golden_marginals.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from agedpop import (
    MarkedConfiguration,
    Theta,
    sample_trajectory_marginals,
    separable_rate,
    stationary_intensity,
    transient_intensity,
    uniform_habitat,
)
from agedpop.sampler import _BLOCK_PARTICLES
from golden_metrics import environment

RECORD = Path(__file__).with_name("golden_marginals.json")
SEED = 2035
# per config: window, density level, theta triples, time grid, Dirac positions and ages
CONFIGS = {
    "1d": (
        [(0.0, 1.0)], 2.0, [[(1, 1, 1), (2, 1, 2)], [(1, 2, 1)]], [0.0, 0.25, 0.25, 0.8],
        [[0.2], [0.7], [0.9]], [0.3, 1.1, 4.0],
    ),
    "2d": (
        [(0.0, 1.0)] * 2, 3.0, [[(1, 1, 1), (3, 2, 1)]], [0.3, 0.55, 1.1],
        [[0.1, 0.8], [0.5, 0.5], [0.9, 0.2]], [0.0, 0.7, 2.5],
    ),
}
STARTS = ("empty", "poisson", "dirac")


def case_inputs(config, start):
    """(initial, times, thetas, habitat, model, n_paths) of one recorded case."""
    window, level, triples, times, positions, ages = CONFIGS[config]
    habitat = uniform_habitat(window, level)
    model = separable_rate(habitat, 0.5, 1.0, 2.0)
    thetas = [Theta(t, habitat) for t in triples]
    initial, expected = None, 0.0
    if start == "poisson":
        initial = stationary_intensity(habitat, model)
        expected = initial.total_mass
    elif start == "dirac":
        initial = MarkedConfiguration(np.array(positions), np.array(ages))
        expected = len(initial)
    steps = np.diff(times, prepend=0.0)
    expected += sum(transient_intensity(habitat, model, dt).total_mass for dt in steps if dt > 0)
    block = int(_BLOCK_PARTICLES / expected)
    return initial, times, thetas, habitat, model, block + block // 2


def marginals_digests():
    """{config-start: {array key: sha256}}, the keys "f/time/theta" and "count/time"."""
    digests = {}
    for config in CONFIGS:
        for start in STARTS:
            out = sample_trajectory_marginals(
                *case_inputs(config, start), np.random.default_rng(SEED)
            )
            digests[f"{config}-{start}"] = {
                "/".join(map(str, key)): hashlib.sha256(values.tobytes()).hexdigest()
                for key, values in sorted(out.items())
            }
    return digests


def moved_arrays(recorded, recomputed):
    """The config-start/key labels whose digests differ, or that one side lacks."""
    a, b = (
        {f"{case}:{key}": digest for case, arrays in d.items() for key, digest in arrays.items()}
        for d in (recorded, recomputed)
    )
    return sorted(label for label in a.keys() | b.keys() if a.get(label) != b.get(label))


if __name__ == "__main__":
    previous = json.loads(RECORD.read_text(encoding="utf-8"))["sha256"] if RECORD.exists() else {}
    record = {"sha256": marginals_digests(), "environment": environment()}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}; moved: {moved_arrays(previous, record['sha256']) if previous else 'all (new)'}")
