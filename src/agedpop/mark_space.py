"""Mark space: finite age multisets and the separating metric on them.

A mark is a finite multiset of ages.  Distances are built from the basis

    u_n(alpha) = alpha**2 / (1 + n*alpha**3),      n = 1, 2, ...
    w_{k,n}(alpha) = exp(-sigma_k * u_n(alpha)),

on the one fixed ladder sigma_k = 1 - 2**(1-k), which climbs strictly from
sigma_1 = 0 towards SIGMA_BAR = 1.
Each w is continuous for the bounded age metric (w -> 1 both at age 0 and at
age infinity), so mark sums of w's extend to the compactified half-line.  The
metric is the weighted series

    rho(a, b) = sum_{k,n>=1} 2**-(k+n) * rho_kn / (1 + rho_kn),
    rho_kn    = | sum_{alpha in a} w_{k,n}(alpha) - sum_{alpha in b} ... |,

truncated at k + n <= budget with an explicitly reported tail bound.  Because
sigma_1 = 0, the k = 1 band measures the cardinality gap | |a| - |b| |.

Every distance of the package (rho, ground, kappa) is series_distance: weights
2**-(index sum) times d / (1 + d), over the weighted cells only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "SIGMA_BAR",
    "sigma",
    "u_basis",
    "u_basis_derivative",
    "u_basis_max",
    "u_prime_max_constant",
    "MarkSet",
    "rho_distance",
    "series_tail",
    "served_tail",
    "mark_weights",
    "series_weights",
    "series_distance",
]

# Exact supremum of |u_n'| * n**(1/3) over ages, attained where
# beta**6 - 7*beta**3 + 1 = 0, i.e. beta**3 = (7 - 3*sqrt(5))/2.
_Z = (7.0 - 3.0 * math.sqrt(5.0)) / 2.0
_U_PRIME_MAX = (math.sqrt(5.0) - 1.0) / (6.0 * _Z ** (2.0 / 3.0))


SIGMA_BAR = 1.0  # the bound sigma_k < SIGMA_BAR of the ladder


def sigma(k):
    """sigma_k = 1 - 2**(1-k) for integer rung(s) k >= 1 (vectorized)."""
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("ladder rungs start at k = 1")
    out = 1.0 - np.exp2(1.0 - k.astype(float))
    return out if out.ndim else float(out)


def u_basis(n, alpha):
    """u_n(alpha) = alpha^2 / (1 + n alpha^3); broadcasts over both arguments."""
    alpha = np.asarray(alpha, dtype=float)
    n = np.asarray(n, dtype=float)
    return alpha**2 / (1.0 + n * alpha**3)


def u_basis_derivative(n, alpha):
    """d/dalpha u_n = (2 alpha - n alpha^4) / (1 + n alpha^3)^2."""
    alpha = np.asarray(alpha, dtype=float)
    n = np.asarray(n, dtype=float)
    return (2.0 * alpha - n * alpha**4) / (1.0 + n * alpha**3) ** 2


def u_basis_max(n):
    """sup_alpha u_n = 2^(2/3)/(3 n^(2/3)), attained at alpha = (2/n)^(1/3)."""
    n = np.asarray(n, dtype=float)
    out = 2.0 ** (2.0 / 3.0) / (3.0 * n ** (2.0 / 3.0))
    return out if out.ndim else float(out)


def u_prime_max_constant():
    """Exact sup over ages of n^(1/3) |u_n'|, the same for every n.

    The scaling beta = n^(1/3) alpha reduces the problem to maximizing
    |2b - b^4|/(1 + b^3)^2, whose interior stationary point solves
    b^3 = (7 - 3 sqrt 5)/2; the value there is (sqrt 5 - 1)/(6 ((7-3 sqrt 5)/2)^(2/3))
    ~= 0.7433468.
    """
    return _U_PRIME_MAX


class MarkSet:
    """Finite age multiset.  Stored as a sorted float array; multiplicity counts."""

    __slots__ = ("ages",)

    def __init__(self, ages=()):
        if not isinstance(ages, np.ndarray):
            ages = list(ages)
        arr = np.sort(np.asarray(ages, dtype=float).ravel())
        # sorted, so the two ends decide; nan sorts last and fails every comparison
        if arr.size and not 0.0 <= arr[0] <= arr[-1] < math.inf:
            raise ValueError("ages must be finite and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "ages", arr)

    def __len__(self):
        return int(self.ages.size)

    def __iter__(self):
        return iter(self.ages)

    def __repr__(self):
        return f"MarkSet({list(self.ages)!r})"


@lru_cache(maxsize=None)
def _mark_pairs(budget):
    """For the pairs k + n <= budget, row-major, the budget - 1 pairs with k = 1 first:
    the distinct n of the pairs with k >= 2 (as floats), each such pair's index into
    them and its -sigma_k, and the weights 2**-(k+n) of all pairs."""
    grid = series_weights(budget, budget - 1, budget - 1)
    ks, ns = np.nonzero(grid)
    rest = ks > 0  # k >= 2
    n_distinct, n_of_pair = np.unique(ns[rest] + 1, return_inverse=True)
    tables = (n_distinct * 1.0, n_of_pair, -sigma(ks[rest] + 1), grid[ks, ns])
    for a in tables:
        a.flags.writeable = False
    return tables


def mark_weights(ages, budget):
    """w_{k,n}(alpha) = exp(-sigma_k u_n(alpha)), shape (pairs,) + ages.shape, for the
    pairs k + n <= budget in row-major order; u_n is evaluated once per distinct n
    that a pair with k >= 2 reads."""
    n_distinct, n_of_pair, neg_sigma, weights = _mark_pairs(budget)
    lead = (-1,) + (1,) * np.ndim(ages)
    w = np.empty(weights.shape + np.shape(ages))
    # the k = 1 rows, n = 1 .. budget - 1, lead, and sigma_1 = 0 makes each of
    # their weights exactly 1
    w[: budget - 1] = 1.0
    rest = w[budget - 1 :]
    # mode="clip" writes into rest directly; the default mode buffers the gather
    np.take(u_basis(n_distinct.reshape(lead), ages), n_of_pair, axis=0, out=rest, mode="clip")
    np.exp(np.multiply(rest, neg_sigma.reshape(lead), out=rest), out=rest)
    return w


def _size_groups(sizes, total):
    """For blocks of sizes[c] consecutive items: an item order that puts the blocks of
    one size side by side (stable, so each block stays consecutive), and per distinct
    size n the blocks of that size and the slice of the reordered items they fill.
    ValueError unless the sizes are nonnegative and sum to total."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.min(initial=0) < 0 or sizes.sum() != total:
        raise ValueError("sizes must be nonnegative and sum to the number of particles")
    groups, start = [], 0
    for n in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == n)
        groups.append((group, n, slice(start, start + group.size * n)))
        start += group.size * n
    return np.argsort(np.repeat(sizes, sizes), kind="stable"), groups


def _last_axis_sums(block):
    """block.sum(axis=-1), to the bit.  Below 8 terms numpy's pairwise sum is a left
    fold, so there the block's columns are added in place, one whole column at a
    time, which skips numpy's reduction row by row."""
    n = block.shape[-1]
    if not 0 < n < 8:
        return block.sum(axis=-1)
    out = block[..., 0].copy()
    for j in range(1, n):
        out += block[..., j]
    return out


@lru_cache(maxsize=None)
def series_weights(budget, *sizes):
    """Series weights 2**-(i_1 + ... + i_m) on the index grid 1..sizes[0] x ...

    Zero where the index sum exceeds budget, so a truncated series is a plain
    weighted sum over the whole grid.  Cached and read-only.
    """
    index_sum = sum(np.ix_(*(np.arange(1, size + 1) for size in sizes)))
    weights = np.where(index_sum <= budget, np.exp2(-index_sum.astype(float)), 0.0)
    weights.flags.writeable = False
    return weights


def series_distance(weights, features_a, features_b):
    """sum over the weights' axes of weights * d / (1 + d), d = |features_a - features_b|.

    A float for one pair of features, an array over leading batch axes.
    """
    d = np.abs(features_a - features_b)
    terms = weights * d
    terms /= np.add(d, 1.0, out=d)
    out = terms.reshape(terms.shape[: terms.ndim - weights.ndim] + (-1,)).sum(axis=-1)
    return out if out.ndim else float(out)


def series_tail(budget, axes):
    """sum of 2**-(i_1 + ... + i_axes) over index tuples (each i >= 1) with
    sum above budget: the truncation tail of a series on `axes` index axes.

    C(s-1, axes-1) tuples sum to s, and the tail is exactly 2**-budget
    sum_{i < axes} C(budget, i), the chance that budget fair coin flips
    show fewer than `axes` heads.
    """
    if budget < axes:
        raise ValueError("budget must allow every index at 1")
    return math.ldexp(float(sum(math.comb(budget, i) for i in range(axes))), -budget)


@lru_cache(maxsize=None)
def served_tail(budget, axes):
    """series_tail(budget, axes), or ValueError, before anything is allocated, for a budget
    past the first whose tail is below 2**-53: later cells add less than half an ulp of 1."""
    top = next(b for b in range(axes, 1100) if series_tail(b, axes) < 2.0**-53)
    if budget > top:
        raise ValueError(f"budget {budget} is past {top}, the first whose tail is below 2**-53")
    return series_tail(budget, axes)


def rho_distance(a, b, budget=40):
    """Truncated mark-space distance, plus its truncation tail bound.

    Returns (distance, tail_bound).  The truncated sum satisfies the metric
    axioms exactly (each component is a seminorm composed with t -> t/(1+t));
    the tail bound quantifies the missing separation only.  One mark_weights
    call over both multisets; each sums its own columns, so its sums have the
    bits of that multiset alone.
    """
    tail = served_tail(budget, 2)
    w = mark_weights(np.concatenate([a.ages, b.ages]), budget)
    split = len(a)
    sums = _last_axis_sums(w[:, :split]), _last_axis_sums(w[:, split:])
    return series_distance(_mark_pairs(budget)[-1], *sums), tail
