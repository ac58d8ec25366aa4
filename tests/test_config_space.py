from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from agedpop import (
    MarkedConfiguration,
    MarkSet,
    Plateaus,
    Theta,
    basis_count_below_scale,
    configuration_from_json,
    configuration_to_json,
    ground_distance,
    kappa_distance,
    kappa_features,
    load_configuration,
    plateau_table,
    rho_distance,
    series_distance,
    series_tail,
    series_weights,
    sigma,
    uniform_habitat,
)
from agedpop import config_space, mark_space
from agedpop.config_space import _kappa_cells
from agedpop.mark_space import _mark_pairs, mark_weights, served_tail
from conftest import random_configuration, union, w_basis
from golden_metrics import RECORD, environment, metrics_digest


# ---------------------------------------------------------------- oracles
def plateau(s, habitat):
    """(center, inner radius, height) of the plateau v_s."""
    table = plateau_table((s,), habitat)
    return tuple(table.centers[0]), float(table.radii[0]), float(table.heights[0])


def kappa_component(config_a, config_b, s, k, n, habitat):
    """kappa_{s,k,n} = |sum_a v_s(x) w_{k,n}(alpha) - sum_b ...|.

    One index at a time, from the raw plateau and mark-weight formulas: the
    per-component route the library's batched kernel is checked against.
    With k = 1 (sigma_1 = 0, so w = 1) it is the ground component of s.
    """
    center, q, height = plateau(s, habitat)
    sig = sigma(k)

    def total(cfg):
        r = np.sqrt(np.sum((cfg.positions - np.asarray(center)) ** 2, axis=1))
        plateau_values = height * np.clip(2.0 - r / q, 0.0, 1.0)
        u = cfg.ages**2 / (1.0 + n * cfg.ages**3)
        return float(np.sum(plateau_values * np.exp(-sig * u)))

    return abs(total(config_a) - total(config_b))


def kappa_series(a, b, habitat, budget):
    """The truncated kappa series summed term by term over s + k + n <= budget."""
    total = 0.0
    for s in range(1, budget - 1):
        for k in range(1, budget - s):
            for n in range(1, budget - s - k + 1):
                c = kappa_component(a, b, s, k, n, habitat)
                total += 2.0 ** -(s + k + n) * c / (1.0 + c)
    return total


def ground_series(a, b, habitat, budget):
    total = 0.0
    for s in range(1, budget + 1):
        c = kappa_component(a, b, s, 1, 1, habitat)
        total += 2.0**-s * c / (1.0 + c)
    return total


@pytest.fixture(scope="module")
def configs_2d(habitat_2d):
    """Configurations of 0, 5, 300 and 300 particles in the 2-d window."""
    gen = np.random.default_rng(404)
    span = habitat_2d.upper - habitat_2d.lower

    def draw(size):
        return MarkedConfiguration(habitat_2d.lower + gen.random((size, 2)) * span, gen.exponential(1.0, size))

    return [draw(0), draw(5), draw(300), draw(300)]


# ------------------------------------------------------------ configurations
def test_configuration_basics():
    cfg = MarkedConfiguration(np.array([[0.1], [0.9]]), np.array([1.0, 2.0]))
    assert len(cfg) == 2
    assert cfg.dim == 1
    assert cfg.ages[0] == 1.0
    with pytest.raises(AttributeError):
        cfg.positions = np.zeros((1, 1))


def test_configuration_validation():
    with pytest.raises(ValueError):
        MarkedConfiguration(np.array([[0.0]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        MarkedConfiguration(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError):
        MarkedConfiguration(np.zeros((2, 1)), np.zeros(3))


def test_union_restrict_without(habitat_1d):
    # a union is the stacked rows; multiplicity counts, so a configuration
    # joined with itself is another configuration
    a = MarkedConfiguration(np.array([[0.2], [0.8]]), np.array([1.0, 2.0]))
    b = MarkedConfiguration(np.array([[0.5]]), np.array([3.0]))
    u = union(a, b)
    assert len(u) == 3
    assert union(a, a).ages.tolist() == [1.0, 2.0, 1.0, 2.0]
    assert kappa_distance(union(a, a), a, habitat_1d)[0] > 0.0


def test_empty():
    e = MarkedConfiguration.empty(2)
    assert len(e) == 0
    assert e.dim == 2
    assert e.positions.shape == (0, 2)


# ------------------------------------------------------------- enumeration
def test_enumeration_scale_one(habitat_1d):
    c1, q1, h1 = plateau(1, habitat_1d)
    c2, _, h2 = plateau(2, habitat_1d)
    assert c1 == (0.5,)
    assert h1 == 0.5
    assert q1 == pytest.approx(0.5)  # diameter/2
    assert c2 == (0.5,)
    assert h2 == 0.75


def test_enumeration_scale_two_1d(habitat_1d):
    # scale 2 splits [0,1] into two cells, row-major, heights 1/2 then 3/4
    expect = [((0.25,), 0.5), ((0.25,), 0.75), ((0.75,), 0.5), ((0.75,), 0.75)]
    for s, (center, height) in zip(range(3, 7), expect):
        c, q, h = plateau(s, habitat_1d)
        assert c == pytest.approx(center)
        assert h == height
        assert q == pytest.approx(0.25)


def test_enumeration_scale_two_2d(habitat_2d):
    # window [0,1]x[0,2]: scale-2 cells row-major with the first axis slowest
    centers = [(0.25, 0.5), (0.25, 1.5), (0.75, 0.5), (0.75, 1.5)]
    for i, c in enumerate(centers):
        center, _, h = plateau(3 + 2 * i, habitat_2d)
        assert center == pytest.approx(c)
        assert h == 0.5


def test_block_counts(habitat_2d):
    assert basis_count_below_scale(1, 2) == 0
    assert basis_count_below_scale(2, 2) == 2
    assert basis_count_below_scale(3, 2) == 10  # 2 + 2*4
    diam = habitat_2d.diameter
    first_scale3 = basis_count_below_scale(3, 2) + 1
    assert plateau(first_scale3, habitat_2d)[1] == pytest.approx(diam / 8)


def test_basis_function_shape(habitat_1d):
    v = plateau_table((3,), habitat_1d)  # center 0.25, q = 0.25, height 0.5
    assert v(np.array([0.25]))[0] == pytest.approx(0.5)  # plateau
    assert v(np.array([0.45]))[0] == pytest.approx(0.5)  # still within q... r=0.2<q
    assert v(np.array([0.625]))[0] == pytest.approx(0.25)  # r = 1.5q
    assert v(np.array([0.75]))[0] == pytest.approx(0.0)  # r = 2q
    assert v(np.array([0.9]))[0] == 0.0


def test_enumeration_rejects_zero(habitat_1d):
    with pytest.raises(ValueError):
        plateau_table((0,), habitat_1d)


# ---------------------------------------------------------------- distances
def test_ground_distance_hand_oracle(habitat_1d):
    # config {0.2} vs empty at budget 4, every term derived by hand:
    # s=1: v=1/2 -> (1/2)(1/3); s=2: v=3/4 -> (1/4)(3/7)
    # s=3: v=1/2 -> (1/8)(1/3); s=4: v=3/4 -> (1/16)(3/7)
    a = MarkedConfiguration(np.array([[0.2]]), np.array([1.0]))
    e = MarkedConfiguration.empty(1)
    dist, tail = ground_distance(a, e, habitat_1d, budget=4)
    expected = 0.5 / 3 + 0.25 * 3 / 7 + 0.125 / 3 + 0.0625 * 3 / 7
    assert dist == pytest.approx(expected, rel=1e-12)
    assert tail == series_tail(4, 1) == 2.0**-4


def test_kappa_hand_oracle(habitat_1d):
    # single particle (x=0.2, age=1) vs empty, budget 5
    a = MarkedConfiguration(np.array([[0.2]]), np.array([1.0]))
    e = MarkedConfiguration.empty(1)
    dist, _ = kappa_distance(a, e, habitat_1d, budget=5)
    v_vals = {1: 0.5, 2: 0.75, 3: 0.5}  # from the enumeration at x = 0.2
    expected = 0.0
    for s in (1, 2, 3):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                if s + k + n > 5:
                    continue
                sigma = (1.0 - 2.0 ** (1 - k))
                u = 1.0 / (1.0 + n)
                g = v_vals[s] * math.exp(-sigma * u)
                expected += 2.0 ** -(s + k + n) * g / (1.0 + g)
    assert dist == pytest.approx(expected, rel=1e-12)


def test_kappa_component_consistent_with_distance(habitat_1d, rng):
    a = random_configuration(rng, habitat_1d)
    b = random_configuration(rng, habitat_1d)
    budget = 8
    dist, _ = kappa_distance(a, b, habitat_1d, budget=budget)
    assert dist == pytest.approx(kappa_series(a, b, habitat_1d, budget), rel=1e-12)


@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2), (2, 3)])
def test_kernel_matches_direct_series_2d(habitat_2d, configs_2d, i, j):
    a, b = configs_2d[i], configs_2d[j]
    kappa, _ = kappa_distance(a, b, habitat_2d, budget=30)
    assert kappa == pytest.approx(kappa_series(a, b, habitat_2d, 30), rel=1e-12, abs=0.0)
    ground, _ = ground_distance(a, b, habitat_2d, budget=30)
    assert ground == pytest.approx(ground_series(a, b, habitat_2d, 30), rel=1e-12, abs=0.0)


def test_distances_symmetric_and_zero_on_diagonal(habitat_2d, configs_2d):
    metrics = {
        "kappa": lambda a, b: kappa_distance(a, b, habitat_2d)[0],
        "ground": lambda a, b: ground_distance(a, b, habitat_2d)[0],
        "rho": lambda a, b: rho_distance(MarkSet(a.ages), MarkSet(b.ages))[0],
    }
    for name, d in metrics.items():
        for a in configs_2d:
            assert d(a, a) == 0.0, name
            for b in configs_2d:
                assert d(a, b) == d(b, a), name


def test_kernels_make_no_per_index_basis_calls(configs_2d, monkeypatch):
    """The metrics and Theta evaluate every plateau in one call, never one
    index at a time, and each distance makes one plateau call and one
    mark-weight call at most; a fresh window forces fresh plateau tables."""
    rows = []
    real = Plateaus.__call__

    def counted(self, x):
        rows.append(self.radii.size)
        return real(self, x)

    monkeypatch.setattr(Plateaus, "__call__", counted)
    weight_calls = []
    real_weights = mark_space.mark_weights

    def counted_weights(ages, budget):
        weight_calls.append(np.size(ages))
        return real_weights(ages, budget)

    for module in (mark_space, config_space):
        monkeypatch.setattr(module, "mark_weights", counted_weights)
    window = uniform_habitat([(0.0, 1.1), (0.0, 2.1)], 1.0)
    a, b = configs_2d[1], configs_2d[2]
    # each distance evaluates its kernels once, over both configurations
    assert kappa_distance(a, b, window)[0] > 0.0
    assert rows == [28] and weight_calls == [len(a) + len(b)]
    assert ground_distance(a, b, window)[0] > 0.0
    assert rows == [28, 30] and len(weight_calls) == 1
    assert rho_distance(MarkSet(a.ages), MarkSet(b.ages))[0] > 0.0
    assert len(rows) == 2 and weight_calls == [len(a) + len(b)] * 2
    theta = Theta([(1, 1, 1), (3, 2, 1), (9, 1, 3)], window)
    assert np.all(theta.g(b.positions, b.ages) >= 0.0)
    assert np.all(np.isfinite(theta.g_age_derivative(b.positions, b.ages)))
    assert min(rows) == 3


def features_one_by_one(config, habitat, budget):
    """kappa features of one configuration: its plateau matrix times its mark-weight matrix."""
    ks, ns = (i + 1 for i in np.nonzero(series_weights(budget - 1, budget - 2, budget - 2)))
    plateaus = plateau_table(tuple(range(1, budget - 1)), habitat)
    return plateaus(config.positions) @ w_basis(ks[:, None], ns[:, None], config.ages).T


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kappa_features_match_the_per_configuration_product(dim):
    habitat = uniform_habitat([(0.0, 1.0)] * dim, 2.0)
    gen = np.random.default_rng(dim)
    sizes = [3, 0, 1, 40, 3, 0, 7, 2]  # repeated and empty sizes, out of order
    configs = [
        MarkedConfiguration(gen.random((k, dim)), gen.exponential(1.0, k)) for k in sizes
    ]
    positions = np.concatenate([c.positions for c in configs])
    ages = np.concatenate([c.ages for c in configs])
    for budget in (3, 12, 30):
        feats = kappa_features(positions, ages, sizes, habitat, budget=budget)
        assert feats.shape == (len(sizes), budget - 2, (budget - 2) * (budget - 1) // 2)
        for got, config in zip(feats, configs):
            assert np.array_equal(got, features_one_by_one(config, habitat, budget))
    empty = kappa_features(np.empty((0, dim)), np.empty(0), [0, 0, 0], habitat, budget=12)
    assert empty.shape == (3, 10, 55) and not empty.any()
    assert kappa_features(np.empty((0, dim)), np.empty(0), [], habitat, budget=12).shape == (0, 10, 55)
    for bad in (sizes[:-1], [-1, 4] + sizes[2:]):  # a short list; a negative size
        with pytest.raises(ValueError, match="sizes"):
            kappa_features(positions, ages, bad, habitat)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distances_are_their_per_configuration_references(dim):
    # one kernel pass over both configurations gives each the bits of its
    # own: kappa those of features_one_by_one, ground those of its plateau
    # sums, rho those of its mark-weight sums; empty on either side
    habitat = uniform_habitat([(0.0, 1.0)] * dim, 2.0)
    gen = np.random.default_rng(70 + dim)
    configs = {
        n: MarkedConfiguration(gen.random((n, dim)), gen.exponential(1.0, n)) for n in (0, 1, 4, 5, 300)
    }
    for n in (5, 300):  # a second configuration of each size, for equal sizes on both sides
        configs[f"{n}b"] = MarkedConfiguration(gen.random((n, dim)), gen.exponential(1.0, n))
    pairs = [(0, 0), (0, 1), (1, 0), (4, 5), (5, "5b"), (0, 300), (300, 0), (300, 5), (300, "300b")]
    for a, b in ((configs[i], configs[j]) for i, j in pairs):
        for budget in (3, 12, 30):
            cells, weights, _ = _kappa_cells(budget)
            feats = [np.take(features_one_by_one(c, habitat, budget), cells) for c in (a, b)]
            assert kappa_distance(a, b, habitat, budget=budget)[0] == series_distance(weights, *feats)
        for budget in (1, 4, 30, 54):
            plateaus = plateau_table(tuple(range(1, budget + 1)), habitat)
            sums = [plateaus(c.positions).sum(axis=1) for c in (a, b)]
            want = series_distance(series_weights(budget, budget), *sums)
            assert ground_distance(a, b, habitat, budget=budget)[0] == want
        for budget in (2, 16, 40, 59):
            marks = [MarkSet(c.ages) for c in (a, b)]
            sums = [mark_weights(m.ages, budget).sum(axis=-1) for m in marks]
            assert rho_distance(*marks, budget=budget)[0] == series_distance(_mark_pairs(budget)[-1], *sums)


def test_distances_keep_their_recorded_bits():
    # kappa, ground and rho on a seeded grid of pairs and one mark_sums batch,
    # against the digest in tests/golden_metrics.json: a refactor that moves
    # one bit fails here, and a deliberate change rewrites the record with
    # tests/golden_metrics.py; the message names both environments, since
    # another numpy, BLAS or CPU may move the last bits with no code change
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert metrics_digest() == record["sha256"], (
        f"recorded on {record['environment']}, recomputed on {environment()}"
    )


def full_grid_kappa(a, b, habitat, budget):
    """kappa on the whole (budget - 2, pairs) feature block, with zero
    weights outside the truncation: the layout before the compact series."""
    ks, ns = (i + 1 for i in np.nonzero(series_weights(budget - 1, budget - 2, budget - 2)))
    weights = series_weights(budget, budget - 2, budget - 1)[:, ks + ns - 1]
    return series_distance(weights, *(features_one_by_one(c, habitat, budget) for c in (a, b)))


@pytest.mark.parametrize("dim", [1, 2])
def test_compact_kappa_matches_the_full_grid(dim):
    # summing the weighted cells only regroups the sum: 1e-15 relative
    habitat = uniform_habitat([(0.0, 1.0)] * dim, 2.0)
    gen = np.random.default_rng(30 + dim)
    configs = [MarkedConfiguration(gen.random((k, dim)), gen.exponential(1.0, k)) for k in (0, 1, 5, 300)]
    for budget in (3, 5, 12, 24, 30):
        for i in range(len(configs)):
            for j in range(i + 1, len(configs)):
                dist, _ = kappa_distance(configs[i], configs[j], habitat, budget=budget)
                want = full_grid_kappa(configs[i], configs[j], habitat, budget)
                assert dist == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "dim, want",
    [(1, (0.9313166511477954, 0.9930660605883433)), (2, (0.9310563026530765, 0.9928387434841087))],
    ids=["1d", "2d"],
)
def test_ground_distance_keeps_its_bits(dim, want):
    # every ground cell carries weight, so ground sums the same cells as
    # before the compact series; the values are those of that layout
    habitat = uniform_habitat([(0.0, 1.0)] * dim, 2.0)
    gen = np.random.default_rng(50 + dim)
    a = MarkedConfiguration(gen.random((7, dim)), gen.exponential(1.0, 7))
    b = MarkedConfiguration(gen.random((300, dim)), gen.exponential(1.0, 300))
    assert tuple(ground_distance(a, b, habitat, budget=budget)[0] for budget in (4, 30)) == want
    for budget in (1, 4, 30, 54):
        plateaus = plateau_table(tuple(range(1, budget + 1)), habitat)
        sums = [plateaus(c.positions).sum(axis=1) for c in (a, b)]
        assert ground_distance(a, b, habitat, budget=budget)[0] == series_distance(
            series_weights(budget, budget), *sums
        )


def test_budgets_stop_where_the_tail_drops_below_a_double():
    # the last budget served on j index axes is the first whose tail is
    # below 2**-53; one past it raises before any feature is allocated
    habitat = uniform_habitat([(0.0, 1.0)] * 2, 2.0)
    a = MarkedConfiguration(np.array([[0.2, 0.4], [0.7, 0.1]]), np.array([1.0, 2.0]))
    b = MarkedConfiguration(np.array([[0.2, 0.4]]), np.array([1.0]))
    metrics = {
        1: lambda budget: ground_distance(a, b, habitat, budget=budget),
        2: lambda budget: rho_distance(MarkSet(a.ages), MarkSet(b.ages), budget=budget),
        3: lambda budget: kappa_distance(a, b, habitat, budget=budget),
    }
    for (axes, distance), top in zip(metrics.items(), (54, 59, 65)):
        assert series_tail(top, axes) < 2.0**-53 <= series_tail(top - 1, axes)
        assert served_tail(top, axes) == series_tail(top, axes)
        dist, tail = distance(top)
        assert 0.0 < dist < 1.0 and tail == series_tail(top, axes)
        for budget in (top + 1, 1000):
            with pytest.raises(ValueError, match=f"budget {budget} is past {top}, the first"):
                distance(budget)
    with pytest.raises(ValueError, match="budget 66 is past 65"):
        kappa_features(a.positions, a.ages, [2], habitat, budget=66)
    # the package's budgets are all served
    for budget, axes in ((30, 1), (40, 2), (28, 2), (30, 3), (24, 3), (16, 3), (12, 3)):
        assert served_tail(budget, axes) == series_tail(budget, axes)


def test_kappa_tail_closed_form():
    # sum_{m > B} (m-1)(m-2)/2 * 2^-m = (1 + B + B(B-1)/2) * 2^-B, the chance
    # that B fair coin flips show fewer than 3 heads: the rounded rational,
    # within an ulp of 259 terms of the series, and equal to that sum at the
    # package's budgets
    def series(budget):
        m = np.arange(budget + 1, budget + 260, dtype=float)
        return float(np.sum((m - 1) * (m - 2) / 2 * np.exp2(-m)))

    for budget in range(3, 201):
        tail = series_tail(budget, 3)
        assert tail == float(Fraction(1 + budget + budget * (budget - 1) // 2, 2**budget))
        assert abs(tail - series(budget)) <= math.ulp(tail)
    for budget in (12, 30):
        assert series_tail(budget, 3) == series(budget)
    assert series_tail(30, 1) == 2.0**-30
    with pytest.raises(ValueError, match="budget"):
        series_tail(2, 3)


def test_metric_axioms_sampled(habitat_1d, rng):
    for _ in range(30):
        a = random_configuration(rng, habitat_1d)
        b = random_configuration(rng, habitat_1d)
        c = random_configuration(rng, habitat_1d)
        dab, _ = kappa_distance(a, b, habitat_1d, budget=10)
        dba, _ = kappa_distance(b, a, habitat_1d, budget=10)
        dbc, _ = kappa_distance(b, c, habitat_1d, budget=10)
        dac, _ = kappa_distance(a, c, habitat_1d, budget=10)
        assert dab == dba
        assert dac <= dab + dbc + 1e-14
    assert kappa_distance(a, a, habitat_1d)[0] == 0.0


def test_kappa_separates(habitat_1d, rng):
    for _ in range(20):
        a = random_configuration(rng, habitat_1d, max_particles=3)
        b = random_configuration(rng, habitat_1d, max_particles=3)
        if len(a) == len(b) and (len(a) == 0 or np.allclose(a.positions, b.positions)):
            continue
        dist, tail = kappa_distance(a, b, habitat_1d)
        assert dist > tail


def test_kappa_below_one(habitat_2d, rng):
    a = random_configuration(rng, habitat_2d, max_particles=8)
    b = random_configuration(rng, habitat_2d, max_particles=8)
    dist, _ = kappa_distance(a, b, habitat_2d)
    assert 0.0 <= dist < 1.0


# ------------------------------------------------------- far particles
def test_window_truncation_drops_far_particles(habitat_1d):
    # a particle far outside every basis support adds exactly 0 to kappa
    a = MarkedConfiguration(np.array([[0.3], [11.0]]), np.array([1.0, 1.0]))
    b = MarkedConfiguration(np.array([[0.3]]), np.array([1.0]))
    assert kappa_distance(a, b, habitat_1d)[0] == 0.0
    far = MarkedConfiguration(np.array([[11.0]]), np.array([1.0]))
    assert kappa_distance(far, MarkedConfiguration.empty(1), habitat_1d)[0] == 0.0


# ------------------------------------------------------------------- JSON
def test_json_round_trip(tmp_path, rng, habitat_2d):
    cfg = MarkedConfiguration(
        habitat_2d.lower + rng.random((4, 2)) * (habitat_2d.upper - habitat_2d.lower),
        rng.exponential(1.0, 4),
    )
    text = configuration_to_json(cfg)
    back = configuration_from_json(text)
    np.testing.assert_allclose(back.positions, cfg.positions)
    np.testing.assert_allclose(back.ages, cfg.ages)
    path = tmp_path / "cfg.json"
    path.write_text(configuration_to_json(cfg) + "\n", encoding="utf-8")
    loaded = load_configuration(path)
    np.testing.assert_allclose(loaded.ages, cfg.ages)


def test_json_strictness():
    with pytest.raises(ValueError):
        configuration_from_json(json.dumps([{"x": [0.1], "alpha": 1.0, "extra": 2}]))
    with pytest.raises(ValueError):
        configuration_from_json(json.dumps([{"x": [0.1]}]))
    with pytest.raises(ValueError, match="record 0"):
        configuration_from_json(json.dumps([{"x": 0.1, "alpha": 1.0}]))
    with pytest.raises(ValueError, match="record 0"):
        configuration_from_json(json.dumps([{"x": [0.1], "alpha": None}]))
    # JSON numbers only: no bools, no numeric strings, and at least one coordinate
    for bad in (
        {"x": [True], "alpha": 1.0},
        {"x": [0.5], "alpha": False},
        {"x": ["0.5"], "alpha": 1.5},
        {"x": [0.5], "alpha": "1.5"},
        {"x": [], "alpha": 1.0},
        {"x": [0.5], "alpha": 10**400},  # an integer past the largest float
    ):
        with pytest.raises(ValueError, match="record 1: "):
            configuration_from_json(json.dumps([{"x": [0.1], "alpha": 1.0}, bad]))
    ints = configuration_from_json(json.dumps([{"x": [0, 1], "alpha": 2}]))
    assert ints.positions.tolist() == [[0.0, 1.0]] and ints.ages.tolist() == [2.0]
    with pytest.raises(ValueError):
        configuration_from_json(json.dumps([{"x": [0.1], "alpha": 1.0}, {"x": [0.1, 0.2], "alpha": 1.0}]))
    with pytest.raises(ValueError):
        configuration_from_json("[]")  # empty needs an explicit dimension
    empty = configuration_from_json("[]", dim=3)
    assert empty.dim == 3 and len(empty) == 0
