"""The sha256 of the package's three distances on a fixed grid of inputs.

tests/golden_metrics.json records it; test_config_space.py recomputes it, so a
change that moves one bit of kappa, ground or rho fails tier-1.  The last bits
also depend on numpy, its BLAS and the SIMD paths they pick on the CPU (kappa
goes through matmul, every distance through np.exp), so the record keeps those
next to the digest, and a mismatch prints both.  A change that moves the bits
on purpose rewrites the record in the same commit, and says why:

    PYTHONPATH=src python tests/golden_metrics.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from agedpop import (
    MarkedConfiguration,
    MarkSet,
    ground_distance,
    kappa_distance,
    rho_distance,
    uniform_habitat,
)
from conftest import mark_sums

RECORD = Path(__file__).with_name("golden_metrics.json")
SIZES_A = range(13)
SIZES_B = (0, 1, 3, 7, 8, 12, 300)


def environment():
    """What the digest's last bits depend on besides the code: numpy's version, its
    BLAS, the SIMD extensions numpy found on this CPU, and the BLAS thread setting.
    A threaded BLAS splits a long dot product or matmul over its threads, so the
    thread count can move the last bits of a sum: with OPENBLAS_NUM_THREADS=1,
    rows of golden_verify's 3d and 1d-frequency-100 configs move.  The records
    are written with both variables unset, as tier-1 runs."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd": config["SIMD Extensions"]["found"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def metrics_digest():
    """sha256 over kappa (budget 30), ground (30) and rho (40) of seeded configuration
    pairs in dims 1-3, sizes 0-12 against SIZES_B, then one 500-multiset mark_sums batch."""
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    for dim in (1, 2, 3):
        habitat = uniform_habitat([(0.0, 1.0)] * dim, 2.0)
        for size_a in SIZES_A:
            for size_b in SIZES_B:
                a, b = (
                    MarkedConfiguration(rng.random((size, dim)), rng.exponential(1.0, size))
                    for size in (size_a, size_b)
                )
                values = (
                    kappa_distance(a, b, habitat, budget=30)[0],
                    ground_distance(a, b, habitat, budget=30)[0],
                    rho_distance(MarkSet(a.ages), MarkSet(b.ages), budget=40)[0],
                )
                digest.update(np.array(values).tobytes())
    sizes = rng.integers(0, 13, 500)
    digest.update(mark_sums(rng.exponential(1.0, sizes.sum()), sizes, 40).tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    record = {"sha256": metrics_digest(), "environment": environment()}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
