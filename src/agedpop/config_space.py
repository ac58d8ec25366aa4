"""Marked configurations and the metrics that compare them.

A marked configuration is a finite multiset of particles (x, alpha): a
location in R^d and a nonnegative age.  Comparisons use sums of bounded
separating functions:

  * ground metric (ages ignored):   d(g, g') built from plateau functions v_s;
  * marked metric:                  kappa built from g_{s,k,n} = v_s * w_{k,n}.

Each component |sum_g f - sum_g' f| is a seminorm, so the weighted series
(and any truncation of it) satisfies the metric axioms exactly; truncation
only reduces separating power, and every truncated distance reports its tail
bound.  Both are mark_space.series_distance of per-configuration features:
plateau sums (ground), and the plateau matrix times the mark-weight matrix
(kappa), which kappa_features computes for many configurations in one call.

The plateau family v_s is enumerated deterministically from the habitat
window: scale j contributes one trapezoid profile per dyadic lattice cell and
per plateau height (1/2 then 3/4), with inner radius q = diameter * 2**-j and
support radius 2q.  Index s = 1 is the midpoint plateau at scale 1 with
height 1/2, whose support covers the whole window.

Configurations are stored as one-line JSON text, a list of
{"x": [coords], "alpha": age} objects (configuration_to_json,
configuration_from_json, load_configuration).
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .mark_space import series_distance, series_tail, series_weights, sigma, u_basis

__all__ = [
    "MarkedConfiguration",
    "Plateaus",
    "plateau_table",
    "basis_count_below_scale",
    "ground_distance",
    "kappa_features",
    "kappa_distance",
    "configuration_to_json",
    "configuration_from_json",
    "load_configuration",
]


class MarkedConfiguration:
    """Immutable finite particle configuration with ages.

    positions has shape (n, dim), ages shape (n,).  Multiplicity counts:
    identical rows are distinct particles, and the row order carries no
    meaning.  Positions are not required to lie in any particular window
    (the samplers enforce their own containment).
    """

    __slots__ = ("positions", "ages")

    def __init__(self, positions, ages):
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        age = np.atleast_1d(np.asarray(ages, dtype=float))
        if pos.shape[0] == 0:
            pos = pos.reshape(0, pos.shape[1] if pos.ndim == 2 and pos.shape[1] else 1)
        if pos.ndim != 2 or age.ndim != 1 or pos.shape[0] != age.shape[0]:
            raise ValueError("positions (n, d) and ages (n,) must align")
        if age.size and (not np.all(np.isfinite(age)) or age.min() < 0):
            raise ValueError("ages must be finite and nonnegative")
        if pos.size and not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos = pos.copy()
        age = age.copy()
        pos.flags.writeable = False
        age.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "ages", age)

    def __setattr__(self, *a):
        raise AttributeError("MarkedConfiguration is immutable")

    @classmethod
    def empty(cls, dim):
        return cls(np.empty((0, dim)), np.empty(0))

    @property
    def dim(self):
        return int(self.positions.shape[1])

    def __len__(self):
        return int(self.ages.size)

    def __repr__(self):
        return f"MarkedConfiguration(n={len(self)}, dim={self.dim})"


class Plateaus(NamedTuple):
    """Plateaus v_s for an index set, as arrays: centers (S, dim), radii and heights (S,)."""

    centers: np.ndarray
    radii: np.ndarray
    heights: np.ndarray

    def __call__(self, x):
        """v_s(x) for every index at once: shape (S,) + x.shape[:-1]."""
        x = np.asarray(x, dtype=float)
        dim = self.centers.shape[1]
        if x.shape[-1] != dim:
            raise ValueError(f"points have dimension {x.shape[-1]}, the plateaus {dim}")
        lead = (-1,) + (1,) * (x.ndim - 1)
        # |x - c_s|^2 axis by axis, then the clipped ramp, worked in place
        out = np.subtract(x[..., 0], self.centers[:, 0].reshape(lead))
        np.square(out, out=out)
        for i in range(1, dim):
            step = np.subtract(x[..., i], self.centers[:, i].reshape(lead))
            out += np.square(step, out=step)
        np.sqrt(out, out=out)
        out /= self.radii.reshape(lead)
        np.subtract(2.0, out, out=out)
        np.clip(out, 0.0, 1.0, out=out)
        out *= self.heights.reshape(lead)
        return out


def basis_count_below_scale(j, dim):
    """Number of basis indices at scales < j: sum_{i<j} 2 * 2**(dim*(i-1))."""
    return sum(2 * (1 << (dim * (i - 1))) for i in range(1, j))


@lru_cache(maxsize=64)
def plateau_table(indices, habitat):
    """The plateaus v_s for a tuple of indices s.

    The enumeration is a deterministic bijection s -> (scale, cell, height).
    Scales are exhausted in order; within scale j the 2**(dim*(j-1)) lattice
    cells run row-major, each contributing height 1/2 then height 3/4.  So
    s = 1 is the window midpoint at scale 1 with height 1/2, s = 2 the same
    plateau with height 3/4, and s = 3 starts scale 2.
    """
    s = np.asarray(indices, dtype=np.int64) - 1
    if s.size and s.min() < 0:
        raise ValueError("enumeration starts at s = 1")
    dim = habitat.dim
    starts = [0]  # first (zero-based) index of each scale
    while starts[-1] <= s.max(initial=0):
        starts.append(basis_count_below_scale(len(starts) + 1, dim))
    j = np.searchsorted(starts, s, side="right")
    offset = s - np.asarray(starts)[j - 1]
    cells_per_axis = np.left_shift(1, j - 1)[:, None]
    # row-major cell digits: the first axis varies slowest
    digits = offset[:, None] // 2 // cells_per_axis ** np.arange(dim - 1, -1, -1) % cells_per_axis
    centers = habitat.lower + (digits + 0.5) * ((habitat.upper - habitat.lower) / cells_per_axis)
    table = Plateaus(centers, habitat.diameter * np.exp2(-j), np.where(offset % 2, 0.75, 0.5))
    for a in table:
        a.flags.writeable = False
    return table


def ground_distance(config_a, config_b, habitat, budget=30):
    """Location-only distance: series over plateau sums, truncated at s <= budget.

    Returns (distance, tail_bound).
    """
    tail = series_tail(budget, 1)
    plateaus = plateau_table(tuple(range(1, budget + 1)), habitat)
    fa = plateaus(config_a.positions).sum(axis=1)
    fb = plateaus(config_b.positions).sum(axis=1)
    return series_distance(series_weights(budget, budget), fa, fb), tail


@lru_cache(maxsize=None)
def _kappa_pairs(budget):
    """For the (k, n) pairs with k + n < budget: the distinct n (as floats), each
    pair's index into them, -sigma_k, the weights on (s, pair) and the tail."""
    ks, ns = (i + 1 for i in np.nonzero(series_weights(budget - 1, budget - 2, budget - 2)))
    n_distinct, n_of_pair = np.unique(ns, return_inverse=True)
    weights = series_weights(budget, budget - 2, budget - 1)[:, ks + ns - 1]
    tables = (n_distinct * 1.0, n_of_pair, -sigma(ks), weights)
    for a in tables:
        a.flags.writeable = False
    return (*tables, series_tail(budget, 3))


def kappa_features(positions, ages, sizes, habitat, budget=30):
    """kappa features F[c, s-1, q] = sum_particles v_s(x) w_{(k,n)_q}(alpha).

    Configuration c is the block of sizes[c] consecutive rows of positions
    (P, dim) and ages (P,), as in PathBundle.  A block's features are its
    plateau matrix times its mark-weight matrix, one stacked product per
    size: zero padding to one size would change the order of BLAS's sums.
    """
    n_distinct, n_of_pair, neg_sigma, _, _ = _kappa_pairs(budget)
    sizes = np.asarray(sizes, dtype=np.int64)
    if np.any(sizes < 0) or sizes.sum() != np.size(ages):
        raise ValueError("sizes must be nonnegative and sum to the number of particles")
    plateaus = plateau_table(tuple(range(1, budget - 1)), habitat)
    starts = np.cumsum(sizes) - sizes
    out = np.empty((sizes.size, budget - 2, n_of_pair.size))
    for n in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == n)
        rows = starts[group, None] + np.arange(n)
        # v and w come out (index, block, particle) in C order, so each block's
        # product is the one a lone block would get, to the bit
        v = plateaus(np.take(positions, rows, axis=0))
        w = u_basis(n_distinct[:, None, None], np.take(ages, rows))[n_of_pair]
        np.exp(np.multiply(w, neg_sigma[:, None, None], out=w), out=w)
        out[group] = v.transpose(1, 0, 2) @ w.transpose(1, 2, 0)
    return out


def kappa_distance(config_a, config_b, habitat, budget=30):
    """Marked-configuration distance: series over v_s * w_{k,n} sums.

    Truncated at s + k + n <= budget; returns (distance, tail_bound).  Always
    below 1: the weights sum to less than 1 and each term is below its weight.
    """
    *_, weights, tail = _kappa_pairs(budget)
    pos = np.concatenate([config_a.positions, config_b.positions])
    ages = np.concatenate([config_a.ages, config_b.ages])
    fa, fb = kappa_features(pos, ages, (len(config_a), len(config_b)), habitat, budget)
    return series_distance(weights, fa, fb), tail


def configuration_to_json(config):
    """JSON text on one line: a list of {"x": [coords], "alpha": age} objects."""
    pairs = zip(config.positions.tolist(), config.ages.tolist())
    return json.dumps([{"x": x, "alpha": alpha} for x, alpha in pairs])


def configuration_from_json(text, dim=None):
    """Parse the JSON list format; dim checks/infers the coordinate count."""
    records = json.loads(text)
    if not isinstance(records, list):
        raise ValueError("configuration file must hold a JSON list")
    if not records:
        if dim is None:
            raise ValueError("empty configuration needs an explicit dim")
        return MarkedConfiguration.empty(dim)
    positions, ages = [], []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != {"x", "alpha"} or not isinstance(rec["x"], list):
            raise ValueError(f"record {i}: expected exactly the keys 'x' (a list) and 'alpha'")
        try:
            positions.append([float(c) for c in rec["x"]])
            ages.append(float(rec["alpha"]))
        except TypeError as exc:
            raise ValueError(f"record {i}: {exc}") from None
    widths = {len(p) for p in positions}
    if len(widths) != 1:
        raise ValueError("records disagree on the coordinate dimension")
    width = widths.pop()
    if dim is not None and width != dim:
        raise ValueError(f"expected dimension {dim}, file has {width}")
    return MarkedConfiguration(np.asarray(positions), np.asarray(ages))


def load_configuration(path, dim=None):
    with open(path, encoding="utf-8") as fh:
        return configuration_from_json(fh.read(), dim=dim)
