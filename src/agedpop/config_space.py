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
plateau sums (ground), and the weighted cells of the plateau matrix times the
mark-weight matrix (kappa), which kappa_features computes in one call for many.
A distance evaluates each kernel once over both configurations and reads each
configuration's features from its own columns.

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

from .mark_space import _size_groups, mark_weights, served_tail, series_distance, series_weights

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
    tail = served_tail(budget, 1)
    plateaus = plateau_table(tuple(range(1, budget + 1)), habitat)
    # one plateau call over both configurations; each sums its own columns
    v = plateaus(np.concatenate([config_a.positions, config_b.positions]))
    split = len(config_a)
    fa, fb = v[:, :split].sum(axis=1), v[:, split:].sum(axis=1)
    return series_distance(series_weights(budget, budget), fa, fb), tail


@lru_cache(maxsize=None)
def _kappa_cells(budget):
    """The (s, pair) cells with s + k + n <= budget: their flat indices into a
    kappa_features block, their weights 2**-(s+k+n), and the tail."""
    tail = served_tail(budget, 3)
    ks, ns = np.nonzero(series_weights(budget - 1, budget - 2, budget - 2))
    grid = series_weights(budget, budget - 2, budget - 1)[:, ks + ns + 1]
    cells = np.flatnonzero(grid)
    weights = grid.ravel()[cells]
    cells.flags.writeable = weights.flags.writeable = False
    return cells, weights, tail


def kappa_features(positions, ages, sizes, habitat, budget=30):
    """kappa features F[c, s-1, q] = sum_particles v_s(x) w_{(k,n)_q}(alpha).

    Configuration c is the block of sizes[c] consecutive rows of positions
    (P, dim) and ages (P,), as in PathBundle; q runs over mark_weights(., budget - 1).
    The plateaus and mark weights are evaluated once over all particles, ordered so
    that each size's blocks are side by side; a block's features are its plateau
    columns times its mark-weight columns, one stacked product per size: zero padding
    would change the order of BLAS's sums.
    """
    served_tail(budget, 3)  # a budget past the last served raises before any allocation
    order, groups = _size_groups(sizes, np.size(ages))
    v = plateau_table(tuple(range(1, budget - 1)), habitat)(np.take(positions, order, axis=0))
    w = mark_weights(np.take(ages, order), budget - 1)
    out = np.empty((np.size(sizes), budget - 2, w.shape[0]))
    for group, n, cols in groups:
        # a size's columns read (index, block, particle) as views, so each block's
        # product is the one a lone block would get, to the bit
        v_rows = v[:, cols].reshape(v.shape[0], group.size, n)
        w_rows = w[:, cols].reshape(w.shape[0], group.size, n)
        out[group] = v_rows.transpose(1, 0, 2) @ w_rows.transpose(1, 2, 0)
    return out


def kappa_distance(config_a, config_b, habitat, budget=30):
    """Marked-configuration distance: series over v_s * w_{k,n} sums.

    Summed over the cells s + k + n <= budget only; returns (distance, tail_bound).
    Always below 1: the weights sum to less than 1 and each term is below its weight.
    One kernel pass over both configurations; each one's features are its plateau
    columns times its mark-weight columns, the product kappa_features gives it.
    """
    cells, weights, tail = _kappa_cells(budget)
    v = plateau_table(tuple(range(1, budget - 1)), habitat)(
        np.concatenate([config_a.positions, config_b.positions])
    )
    w = mark_weights(np.concatenate([config_a.ages, config_b.ages]), budget - 1)
    split = len(config_a)
    feats = np.empty((2, v.shape[0], w.shape[0]))  # both products, so one take reads their cells
    for out, cols in zip(feats, (slice(split), slice(split, None))):
        np.matmul(v[:, cols], w[:, cols].T, out=out)
    return series_distance(weights, *np.take(feats.reshape(2, -1), cells, axis=1)), tail


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
        values = rec["x"] + [rec["alpha"]]  # JSON numbers only: Python counts a bool as an int
        if not rec["x"] or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in values):
            raise ValueError(f"record {i}: 'x' must be a nonempty list of numbers and 'alpha' a number")
        try:
            positions.append([float(c) for c in rec["x"]])
            ages.append(float(rec["alpha"]))
        except OverflowError as exc:  # an integer too large for a float
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
