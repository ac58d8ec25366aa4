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

Every distance of the package (rho, ground, kappa) is series_distance: the
series_weights times d / (1 + d), summed over feature differences d.
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
    "w_basis",
    "MarkSet",
    "rho_distance",
    "series_tail",
    "mark_sums",
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


def w_basis(k, n, alpha):
    """w_{k,n}(alpha) = exp(-sigma_k u_n(alpha)) in (0, 1]; broadcasts."""
    return np.exp(-sigma(k) * u_basis(n, alpha))


class MarkSet:
    """Finite age multiset.  Stored as a sorted float array; multiplicity counts."""

    __slots__ = ("ages",)

    def __init__(self, ages=()):
        arr = np.sort(np.asarray(list(ages), dtype=float).ravel())
        if arr.size and (not np.all(np.isfinite(arr)) or arr[0] < 0):
            raise ValueError("ages must be finite and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "ages", arr)

    def __len__(self):
        return int(self.ages.size)

    def __iter__(self):
        return iter(self.ages)

    def __repr__(self):
        return f"MarkSet({list(self.ages)!r})"


def mark_sums(ages, budget):
    """Sums S[k-1, n-1] = sum_alpha w_{k,n}(alpha) for k, n < budget.

    Only the pairs with k + n <= budget, those a series truncated there
    reads, are evaluated, in one broadcast; the others are 0.
    """
    k, n = np.nonzero(series_weights(budget, budget - 1, budget - 1))
    out = np.zeros((budget - 1, budget - 1))
    out[k, n] = w_basis(k[:, None] + 1, n[:, None] + 1, np.asarray(ages, dtype=float)).sum(axis=1)
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


def rho_distance(a, b, budget=40):
    """Truncated mark-space distance, plus its truncation tail bound.

    Returns (distance, tail_bound).  The truncated sum satisfies the metric
    axioms exactly (each component is a seminorm composed with t -> t/(1+t));
    the tail bound quantifies the missing separation only.
    """
    tail = series_tail(budget, 2)
    weights = series_weights(budget, budget - 1, budget - 1)
    return series_distance(weights, mark_sums(a.ages, budget), mark_sums(b.ages, budget)), tail
