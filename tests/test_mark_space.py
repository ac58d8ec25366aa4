from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from agedpop import mark_space
from agedpop import (
    SIGMA_BAR,
    MarkSet,
    rho_distance,
    series_distance,
    series_tail,
    series_weights,
    sigma,
    u_basis,
    u_basis_derivative,
    u_basis_max,
    u_prime_max_constant,
)
from agedpop.mark_space import mark_weights
from conftest import mark_sums, w_basis

# ---------------------------------------------------------------- oracles
# Each closed-form constant gets an independent numerical oracle that never
# touches the implementation's formula: dense grid plus local refinement on
# the raw definition u_n(a) = a^2/(1 + n a^3).


def _u_raw(n, a):
    return a**2 / (1.0 + n * a**3)


def u_basis_second_derivative(n, alpha):
    """d^2/dalpha^2 u_n = 2 (beta^2 - 7 beta + 1) / (1 + beta)^3, beta = n alpha^3.

    Uniformly bounded: |u_n''| <= 2 (1 + 7 beta + beta^2)/(1+beta)^3 <= 2.9066.
    Nothing in the package evaluates u_n''; the tests check the closed form
    and its bound.
    """
    beta = n * np.asarray(alpha, dtype=float) ** 3
    return 2.0 * (beta**2 - 7.0 * beta + 1.0) / (1.0 + beta) ** 3


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_u_max_oracle(n):
    res = optimize.minimize_scalar(
        lambda a: -_u_raw(n, a), bounds=(1e-6, 10.0), method="bounded",
        options={"xatol": 1e-12},
    )
    assert u_basis_max(n) == pytest.approx(-res.fun, rel=1e-10)
    # stated maximizer
    assert _u_raw(n, (2.0 / n) ** (1 / 3)) == pytest.approx(u_basis_max(n), rel=1e-14)


def test_u_prime_sup_oracle():
    # scaling collapses every n to h(b) = b^2/(1+b^3); max |h'| by finite
    # differences on a dense grid, then golden refinement
    b = np.linspace(1e-5, 6.0, 2_000_001)
    h = b**2 / (1.0 + b**3)
    hp = np.gradient(h, b)
    i = np.argmax(np.abs(hp))
    res = optimize.minimize_scalar(
        lambda x: -abs((_u_raw(1, x + 1e-7) - _u_raw(1, x - 1e-7)) / 2e-7),
        bounds=(b[i] - 0.01, b[i] + 0.01), method="bounded", options={"xatol": 1e-10},
    )
    assert u_prime_max_constant() == pytest.approx(-res.fun, rel=1e-6)
    assert u_prime_max_constant() == pytest.approx(0.7433468, abs=5e-8)


@pytest.mark.parametrize("n", [1, 3, 11])
def test_u_prime_sup_scales_as_stated(n):
    a = np.geomspace(1e-4, 100.0, 400_001)
    sup = np.abs(u_basis_derivative(n, a)).max()
    bound = u_prime_max_constant() / n ** (1 / 3)
    assert sup <= bound * (1 + 1e-9)
    assert sup >= bound * (1 - 1e-4)  # grid nearly attains it


@pytest.mark.parametrize("n", [1, 2, 9])
def test_derivatives_match_finite_differences(n):
    a = np.linspace(0.05, 4.0, 41)
    h = 1e-5
    d1 = (_u_raw(n, a + h) - _u_raw(n, a - h)) / (2 * h)
    d2 = (_u_raw(n, a + h) - 2 * _u_raw(n, a) + _u_raw(n, a - h)) / h**2
    np.testing.assert_allclose(u_basis_derivative(n, a), d1, atol=1e-8)
    np.testing.assert_allclose(u_basis_second_derivative(n, a), d2, atol=2e-4)


def test_u_second_derivative_uniform_bound():
    # envelope 2(1 + 7 beta + beta^2)/(1+beta)^3 maximized over beta >= 0
    beta = np.linspace(0.0, 50.0, 2_000_001)
    env = 2.0 * (1.0 + 7.0 * beta + beta**2) / (1.0 + beta) ** 3
    cap = env.max()
    for n in (1, 4, 25):
        a = np.geomspace(1e-5, 50.0, 200_001)
        assert np.abs(u_basis_second_derivative(n, a)).max() <= cap + 1e-12
    assert cap == pytest.approx(2.9066, abs=5e-4)


def test_sigma_ladder():
    assert sigma(1) == 0.0
    assert sigma(2) == 0.5
    assert sigma(3) == 0.75
    ks = np.arange(1, 30)
    vals = sigma(ks)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals < SIGMA_BAR)
    with pytest.raises(ValueError):
        sigma(0)


def _weighted_pairs(budget):
    """The (k, n) pairs with k + n <= budget, row-major: mark_sums' order."""
    return [(k, n) for k in range(1, budget) for n in range(1, budget - k + 1)]


def test_w_basis_range_and_limits():
    # the library's mark weights lie in (0, 1], with the bits of the oracle,
    # tend to 1 at both compactified ends, and are 1 at k = 1 (sigma_1 = 0)
    a = np.geomspace(1e-9, 1e9, 1001)
    w = mark_weights(a, 6)
    assert w.shape == (15, 1001) and np.all((0 < w) & (w <= 1))
    k, n = np.array(_weighted_pairs(6)).T
    np.testing.assert_array_equal(w, w_basis(k[:, None], n[:, None], a))
    np.testing.assert_allclose(mark_weights([1e-12, 1e12], 6), 1.0, rtol=0, atol=1e-9)
    assert np.all(w[k == 1] == 1.0)


def _mark_weights_exp_on_every_row(ages, budget):
    """mark_weights' formula with exp taken on every row, the k = 1 rows included."""
    lead = (-1,) + (1,) * np.ndim(ages)
    k, n = (np.reshape(i, lead) for i in np.array(_weighted_pairs(budget)).T)
    return w_basis(k, n, ages)


@pytest.mark.parametrize("budget", [12, 29, 40])
def test_mark_weights_fill_the_k1_rows_with_exact_ones(rng, budget):
    # sigma_1 = 0, so exp gives exactly 1 on the k = 1 rows: the filled rows
    # have the bits of the formula, and the other rows are untouched
    ages = np.concatenate([[0.0, 1e-300, 1e-9, 1e6, 1e12], rng.exponential(1.0, 300)])
    for a in (ages, ages.reshape(5, 61), ages[7]):
        got = mark_weights(a, budget)
        assert got.shape == (len(_weighted_pairs(budget)),) + np.shape(a)
        assert np.array_equal(got, _mark_weights_exp_on_every_row(a, budget))
    assert np.all(mark_weights(ages, budget)[: budget - 1] == 1.0)


def test_mark_sums_brute_force(rng):
    ages = rng.exponential(1.0, 6)
    (S,) = mark_sums(ages, [6], 6)
    pairs = _weighted_pairs(6)
    assert S.shape == (len(pairs),) == (15,)
    for got, (k, n) in zip(S, pairs):
        expected = sum(math.exp(-sigma(k) * _u_raw(n, a)) for a in ages)
        assert got == pytest.approx(expected, rel=1e-12)
    # consecutive blocks are the multisets, each with the bits of its block alone
    sizes = [3, 0, 9, 1, 3, 0]
    flat = rng.exponential(1.0, sum(sizes))
    sums = mark_sums(flat, sizes, 6)
    assert sums.shape == (6, 15)
    for got, block in zip(sums, np.split(flat, np.cumsum(sizes)[:-1])):
        assert np.array_equal(got, mark_sums(block, [block.size], 6)[0])
        assert np.array_equal(got, mark_weights(block, 6).sum(axis=-1))
    assert np.array_equal(mark_sums([], [0, 0], 6), np.zeros((2, 15)))
    assert mark_sums([], [], 6).shape == (0, 15)
    for bad in (sizes[:-2], [-1, 4] + sizes[2:]):  # a short list; a negative size
        with pytest.raises(ValueError, match="sizes"):
            mark_sums(flat, bad, 6)


@pytest.mark.parametrize("n", range(13))
def test_last_axis_sums_have_the_bits_of_numpy_sum(rng, n):
    # the column fold below 8 terms is numpy's pairwise sum to the bit; a
    # change in numpy's summation order fails here first
    rows = (rng.random((780, 2 * n)), 10.0 ** rng.uniform(-300, 12, (780, 2 * n)), np.ones((780, 2 * n)))
    for x in rows:
        # a contiguous block, the column slices rho_distance takes, and the
        # (pair, block, age) view of mark_sums
        for block in (x[:, :n].copy(), x[:, :n], x[:, n:], x.reshape(780, 2, n)):
            assert np.array_equal(mark_space._last_axis_sums(block), block.sum(axis=-1))


def test_mark_sums_evaluate_only_the_triangle(rng, monkeypatch):
    # the weighted pairs k + n <= budget only, with the bits of the full
    # grid there, and u_n evaluated once per age and distinct n that a pair
    # with k >= 2 reads: n = 1 .. budget - 2
    ages = rng.exponential(1.0, 300)
    k, n = np.indices((39, 39)) + 1
    full = w_basis(k[..., None], n[..., None], ages).sum(axis=-1)
    np.testing.assert_array_equal(mark_sums(ages, [300], 40)[0], full[k + n <= 40])
    evaluated = []
    real = mark_space.u_basis

    def counted(n, alpha):
        out = real(n, alpha)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(mark_space, "u_basis", counted)
    rho_distance(MarkSet(ages), MarkSet(ages[:200]), budget=40)
    assert sum(evaluated) == 38 * (300 + 200)


def full_grid_rho(a, b, budget):
    """rho on the whole (budget - 1) x (budget - 1) grid of mark sums, zero
    weights outside the truncation: the layout before the compact series."""
    k, n = np.indices((budget - 1, budget - 1)) + 1
    sums = [w_basis(k[..., None], n[..., None], m.ages).sum(axis=-1) for m in (a, b)]
    return series_distance(series_weights(budget, budget - 1, budget - 1), *sums)


def test_rho_matches_the_full_grid():
    gen = np.random.default_rng(20)
    marks = [MarkSet(gen.exponential(1.0, size)) for size in (0, 1, 4, 5, 300)]
    for budget in (2, 6, 16, 28, 40, 59):
        for i in range(len(marks)):
            for j in range(i + 1, len(marks)):
                dist, _ = rho_distance(marks[i], marks[j], budget=budget)
                assert dist == pytest.approx(full_grid_rho(marks[i], marks[j], budget), rel=1e-15, abs=0)


@pytest.mark.parametrize("sizes", [(30,), (10, 11), (5, 4, 3)])
def test_series_distance_batches_over_leading_axes(rng, sizes):
    # one pair gives a float; leading axes give an array of the same floats
    weights = series_weights(sum(sizes), *sizes)
    fa = rng.random((4, 3, *sizes))
    fb = rng.random((4, 3, *sizes))
    batch = series_distance(weights, fa, fb)
    assert batch.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            one = series_distance(weights, fa[i, j], fb[i, j])
            assert isinstance(one, float) and batch[i, j] == one
    # the features broadcast against each other
    against_one = [series_distance(weights, fa[0, j], fb[0, 0]) for j in range(3)]
    assert np.array_equal(series_distance(weights, fa[0], fb[0, 0]), against_one)


def test_rho_tail_closed_form():
    # sum_{m > B} (m-1) 2^-m = (B+1) 2^-B exactly: the rounded rational,
    # within an ulp of 259 terms of the series, and equal to that sum at
    # the default budget 40
    def series(budget):
        m = np.arange(budget + 1, budget + 260)
        return float(np.sum((m - 1) * np.exp2(-m.astype(float))))

    for budget in range(2, 201):
        tail = series_tail(budget, 2)
        assert tail == float(Fraction(budget + 1, 2**budget))
        assert abs(tail - series(budget)) <= math.ulp(tail)
    assert series_tail(40, 2) == series(40)
    with pytest.raises(ValueError, match="budget"):
        series_tail(1, 2)


def test_rho_identity_and_symmetry(rng):
    a = MarkSet(rng.exponential(1.0, 4))
    b = MarkSet(rng.exponential(2.0, 3))
    daa, _ = rho_distance(a, a)
    dab, _ = rho_distance(a, b)
    dba, _ = rho_distance(b, a)
    assert daa == 0.0
    assert dab == dba > 0.0
    # permutation invariance comes from the multiset storage
    perm = MarkSet(np.asarray(list(a.ages))[::-1])
    assert rho_distance(a, perm)[0] == 0.0


def test_rho_cardinality_band():
    # same ages plus one extra particle: the sigma_1 = 0 band alone
    # contributes sum_{n <= B-1} 2^-(1+n) * 1/2 to the distance
    base = MarkSet([0.3, 1.7])
    bigger = MarkSet([0.3, 1.7, 50.0])
    dist, _ = rho_distance(base, bigger, budget=40)
    k1_floor = sum(2.0 ** -(1 + n) * 0.5 for n in range(1, 40))
    assert dist >= k1_floor
    assert dist < 2.0  # total weight cap


def test_rho_separates_distinct_multisets(rng):
    for _ in range(50):
        a = MarkSet(rng.exponential(1.0, int(rng.integers(0, 5))))
        b = MarkSet(rng.exponential(1.0, int(rng.integers(0, 5))))
        if len(a) == len(b) and len(a) and np.allclose(a.ages, b.ages):
            continue
        dist, tail = rho_distance(a, b)
        if len(a) or len(b):
            assert dist > tail


age_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0, max_size=4
)


@given(age_lists, age_lists, age_lists)
@settings(max_examples=60, deadline=None)
def test_rho_triangle(xs, ys, zs):
    a, b, c = MarkSet(xs), MarkSet(ys), MarkSet(zs)
    budget = 12
    dab, _ = rho_distance(a, b, budget=budget)
    dbc, _ = rho_distance(b, c, budget=budget)
    dac, _ = rho_distance(a, c, budget=budget)
    assert dac <= dab + dbc + 1e-12


def rho_component(a, b, k, n):
    """rho_{k,n}(a,b) = |sum_a w_{k,n} - sum_b w_{k,n}|, one (k, n) at a time from
    the raw formula: the per-component route rho_distance is checked against."""
    sig = sigma(k)
    sa = float(np.sum(np.exp(-sig * _u_raw(n, a.ages))))
    sb = float(np.sum(np.exp(-sig * _u_raw(n, b.ages))))
    return abs(sa - sb)


def rho_series(a, b, budget):
    total = 0.0
    for k in range(1, budget):
        for n in range(1, budget - k + 1):
            c = rho_component(a, b, k, n)
            total += 2.0 ** -(k + n) * c / (1.0 + c)
    return total


def test_rho_matches_direct_series():
    gen = np.random.default_rng(404)
    marks = [MarkSet(gen.exponential(1.0, size)) for size in (0, 5, 300, 300)]
    for i, j in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        dist, _ = rho_distance(marks[i], marks[j], budget=40)
        assert dist == pytest.approx(rho_series(marks[i], marks[j], 40), rel=1e-12, abs=0.0)


def test_rho_component_matches_definition():
    a = MarkSet([1.0, 2.0])
    b = MarkSet([0.5])
    got = rho_component(a, b, 2, 3)
    expected = abs(
        math.exp(-0.5 * _u_raw(3, 1.0))
        + math.exp(-0.5 * _u_raw(3, 2.0))
        - math.exp(-0.5 * _u_raw(3, 0.5))
    )
    assert got == pytest.approx(expected, rel=1e-14)


def test_markset_validation():
    with pytest.raises(ValueError):
        MarkSet([-1.0])
    for bad in ([np.inf], [1.0, np.nan], [np.nan, np.nan], [-np.inf, 2.0], [3.0, -0.5]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            MarkSet(bad)
    assert len(MarkSet()) == 0 and MarkSet([0.0, -0.0]).ages.tolist() == [0.0, 0.0]
    # an array is taken as it is, any other iterable through a list; either
    # way the ages are a sorted read-only copy
    ages = np.array([[2.0, 0.5], [1.0, 0.5]])
    for given in (ages, ages.ravel().tolist(), iter(ages.ravel()), (a for a in ages.ravel())):
        mark = MarkSet(given)
        assert np.array_equal(mark.ages, [0.5, 0.5, 1.0, 2.0]) and not mark.ages.flags.writeable
    assert ages[0, 0] == 2.0 and ages.flags.writeable  # the array itself is not sorted
    assert MarkSet(np.array([2, 0, 1])).ages.dtype == float
