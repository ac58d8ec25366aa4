"""Acceptance gates: one test per criterion, one printed PASS/FAIL line each.

Batch evaluation helpers re-derive the truncated metric sums with independent
array code (validated against the library routines inside each test) so the
10^5-10^6 sample sweeps stay inside their runtime budgets.  Criterion 1 takes
its kappa sweep, and criterion 2 its kappa pairs, from the library's batch
kernel kappa_features and its weighted-cell tables; criterion 2's rho pairs
come from conftest.mark_sums, a batch of rho_distance's sums on the library's
mark_weights.  Both keep the helpers as the oracle on a slice.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from agedpop import (
    ArrivalExponent,
    DiracLaw,
    F_theta,
    FlowedTheta,
    MarkedConfiguration,
    MarkSet,
    PathBundle,
    PoissonLaw,
    Theta,
    age_distance,
    apply_generator,
    chapman_kolmogorov_check,
    chi_integral,
    compute_bounds,
    constant_rate,
    count_law_oracle,
    cross_sampler_check,
    ergodicity_check,
    flow,
    fokker_planck_check,
    kappa_distance,
    kappa_features,
    laplace_uniqueness_check,
    martingale_residual,
    plateau_table,
    resolvent,
    resolvent_identity_residual,
    rho_distance,
    separable_rate,
    series_distance,
    series_tail,
    sigma,
    stationarity_check,
    stationary_intensity,
    transient_intensity,
    uniform_habitat,
)
from agedpop.config_space import _kappa_cells
from agedpop.mark_space import _mark_pairs
from conftest import central_flow_residual, central_kolmogorov_residual, mark_sums

SEED = 20260817

HAB = uniform_habitat([(0.0, 1.0)], 2.0)
CONST = constant_rate(1.0)
SEPARABLE = separable_rate(HAB, 0.5, 1.0, 2.0)
THETAS = [
    Theta([(1, 1, 1)], HAB),
    Theta([(1, 1, 1), (2, 1, 2)], HAB),
    Theta([(2, 2, 1), (3, 1, 2), (1, 1, 3)], HAB),
    Theta([(1, 3, 1), (4, 1, 1)], HAB),
    Theta([(5, 1, 2), (2, 2, 2)], HAB),
]


def _criterion(num, label, ok, detail):
    print(f"CRITERION {num:02d} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {label}: {detail}"


def _random_config(rng, size, habitat=HAB, age_scale=1.0):
    pos = habitat.lower + rng.random((size, habitat.dim)) * (habitat.upper - habitat.lower)
    return MarkedConfiguration(pos, rng.exponential(age_scale, size))


# --------------------------------------------------------- batched metrics
def _mark_sum_batch(ages, mask, budget):
    """S[c, k-1, n-1] = sum_p mask w_{k,n}(age_p) for k, n < budget.

    Uses sigma_k = 1 - 2^(1-k): w_k = E / E^(2^(1-k)) with E = e^(-u), so the
    k ladder is a chain of square roots instead of fresh exponentials.
    """
    kmax = budget - 1
    ns = np.arange(1, kmax + 1, dtype=float)
    c, p = ages.shape
    out = np.empty((c, kmax, kmax))
    u = ages[:, None, :] ** 2 / (1.0 + ns[None, :, None] * ages[:, None, :] ** 3)
    E = np.exp(-u)  # (c, n, p)
    root = E.copy()  # E^(2^(1-k)) at k = 1
    m = mask[:, None, :]
    for k in range(1, kmax + 1):
        out[:, k - 1, :] = np.einsum("cnp,cnp->cn", E / root, np.broadcast_to(m, E.shape))
        root = np.sqrt(root)
    return out


def _rho_from_sums(sa, sb, budget):
    kmax = budget - 1
    ks = np.arange(1, kmax + 1)
    ksum = ks[:, None] + ks[None, :]
    wts = np.where(ksum <= budget, np.exp2(-ksum.astype(float)), 0.0)
    d = np.abs(sa - sb)
    return np.einsum("ckn,kn->c", d / (1.0 + d), wts)


def _kappa_pairs(budget):
    return [(k, n) for k in range(1, budget - 1) for n in range(1, budget - k) if k + n <= budget - 1]


def _g_sum_batch(pos, ages, mask, budget, habitat=HAB):
    """G[c, s-1, q] = sum_p mask v_s(x_p) w_{(k,n)_q}(age_p)."""
    s_max = budget - 2
    pairs = _kappa_pairs(budget)
    c, p = ages.shape
    V = np.empty((c, s_max, p))
    flat = pos.reshape(c * p, habitat.dim)
    for s in range(1, s_max + 1):
        V[:, s - 1, :] = plateau_table((s,), habitat)(flat)[0].reshape(c, p)
    V *= mask[:, None, :]
    W = np.empty((c, len(pairs), p))
    sig = sigma(np.arange(1, budget))
    for q, (k, n) in enumerate(pairs):
        u = ages**2 / (1.0 + n * ages**3)
        W[:, q, :] = np.exp(-sig[k - 1] * u)
    return np.einsum("csp,cqp->csq", V, W), pairs


def _kappa_from_sums(ga, gb, pairs, budget):
    d = np.abs(ga - gb)  # (c, s, q)
    s_idx = np.arange(1, d.shape[1] + 1)
    wts = np.zeros(d.shape[1:])
    for q, (k, n) in enumerate(pairs):
        ok = s_idx + k + n <= budget
        wts[:, q] = np.where(ok, np.exp2(-(s_idx + k + n).astype(float)), 0.0)
    return np.einsum("csq,sq->c", d / (1.0 + d), wts)


def _padded_multisets(rng, count, max_p, age_scale=1.0, min_p=0):
    sizes = rng.integers(min_p, max_p + 1, count)
    ages = rng.exponential(age_scale, (count, max_p))
    mask = np.arange(max_p)[None, :] < sizes[:, None]
    return ages * mask, mask.astype(float), sizes


# ------------------------------------------------------------- criterion 1
def test_criterion_01_metric_axioms():
    rng = np.random.default_rng(SEED)
    n = 1_000_000
    # stratified pools stressing every branch of the age-distance minimum,
    # including exemplars of all eight (pair -> attaining branch) patterns
    pools = [
        rng.exponential(1.0, n),
        rng.uniform(0.0, 3.0, n),
        10.0 ** rng.uniform(-9, -3, n),
        10.0 ** rng.uniform(3, 9, n),
        np.zeros(n),
        np.full(n, 1.0),
    ]
    pick = lambda: np.choose(rng.integers(0, len(pools), n), pools)
    a, b, c = pick(), pick(), pick()
    exemplars = np.array(
        [
            [0.9, 1.0, 1.1],  # direct, direct, direct
            [0.02, 1.2, 0.5],  # wrap,   direct, direct
            [0.5, 1.2, 0.02],  # direct, wrap,   direct
            [0.02, 1.0, 2.2],  # direct, direct, wrap
            [1e-5, 1e5, 2e-5],  # wrap,  wrap,   direct
            [1e-6, 2e-6, 1e6],  # direct, wrap,  wrap
            [1e-6, 1e6, 2e6],  # wrap,   direct, wrap
            [1e-6, 1e6, 1e-6],  # wrap,   wrap,   wrap
        ]
    )
    reps = 200
    jitter = 1.0 + 0.01 * rng.standard_normal((reps, 8, 3))
    block = (exemplars[None, :, :] * jitter).reshape(-1, 3)
    a[: block.shape[0]] = block[:, 0]
    b[: block.shape[0]] = block[:, 1]
    c[: block.shape[0]] = block[:, 2]

    def dist_and_branch(x, y):
        direct = np.abs(x - y)
        om = np.minimum(x, np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), 0.0))
        om_y = np.minimum(y, np.where(y > 0, 1.0 / np.where(y > 0, y, 1.0), 0.0))
        wrap = om + om_y
        return np.minimum(direct, wrap), (wrap < direct).astype(int)

    dab, br_ab = dist_and_branch(a, b)
    dbc, br_bc = dist_and_branch(b, c)
    dac, br_ac = dist_and_branch(a, c)
    # cross-check the vectorized distance against the library on a slice
    np.testing.assert_allclose(dab[:100], age_distance(a[:100], b[:100]), rtol=1e-15)
    excess = dac - dab - dbc
    violations = int(np.sum(excess > 1e-12))
    combos = np.bincount(4 * br_ab + 2 * br_bc + br_ac, minlength=8)
    r_ok = violations == 0 and np.all(combos > 0)

    # rho and kappa triangle over 1e5 triples (reduced budgets are exact
    # truncations, so the triangle inequality must hold term by term);
    # streamed through chunks to stay inside memory
    m = 100_000
    chunk = 10_000
    budget_rho, budget_kappa = 16, 16
    pairs = _kappa_pairs(budget_kappa)
    cells, kappa_weights, _ = _kappa_cells(budget_kappa)
    rho_excess = -np.inf
    kap_excess = -np.inf
    oracle = np.empty(1000)
    for lo in range(0, m, chunk):
        ages, mask, _ = _padded_multisets(rng, 3 * chunk, 4)
        pos = rng.random((3 * chunk, 4, 1))
        S = _mark_sum_batch(ages, mask, budget_rho)
        Sa, Sb, Sc = S[:chunk], S[chunk : 2 * chunk], S[2 * chunk :]
        excess = (
            _rho_from_sums(Sa, Sc, budget_rho)
            - _rho_from_sums(Sa, Sb, budget_rho)
            - _rho_from_sums(Sb, Sc, budget_rho)
        )
        rho_excess = max(rho_excess, float(excess.max()))
        # kappa from the library kernel, a slice of triples at a time
        step = 500
        for sub in range(0, chunk, step):
            rows = np.arange(sub, sub + step)
            rows = np.concatenate([rows, chunk + rows, 2 * chunk + rows])
            keep = mask[rows] > 0
            feats = kappa_features(
                pos[rows][keep], ages[rows][keep], keep.sum(axis=1), HAB, budget=budget_kappa
            )
            feats = np.take(feats.reshape(rows.size, -1), cells, axis=1)
            Fa, Fb, Fc = feats[:step], feats[step : 2 * step], feats[2 * step :]
            dab = series_distance(kappa_weights, Fa, Fb)
            excess = (
                series_distance(kappa_weights, Fa, Fc) - dab - series_distance(kappa_weights, Fb, Fc)
            )
            kap_excess = max(kap_excess, float(excess.max()))
            if lo == 0 and sub < 1000:
                # the test-local einsum kernel is the oracle on the first 1000 pairs
                ia, ib = rows[:step], rows[step : 2 * step]
                Ga, _ = _g_sum_batch(pos[ia], ages[ia], mask[ia], budget_kappa)
                Gb, _ = _g_sum_batch(pos[ib], ages[ib], mask[ib], budget_kappa)
                oracle[sub : sub + step] = _kappa_from_sums(Ga, Gb, pairs, budget_kappa)
                np.testing.assert_allclose(dab, oracle[sub : sub + step], rtol=1e-12)
        if lo == 0:  # batch-vs-library guard on 1000 pairs of the first chunk
            for i in range(1000):
                lib, _ = rho_distance(
                    MarkSet(ages[i][mask[i] > 0]),
                    MarkSet(ages[chunk + i][mask[chunk + i] > 0]),
                    budget=budget_rho,
                )
                assert _rho_from_sums(Sa[i : i + 1], Sb[i : i + 1], budget_rho)[0] == pytest.approx(
                    lib, rel=1e-12
                )
                keep = mask[i] > 0
                keep_b = mask[chunk + i] > 0
                lib, _ = kappa_distance(
                    MarkedConfiguration(pos[i][keep], ages[i][keep]),
                    MarkedConfiguration(pos[chunk + i][keep_b], ages[chunk + i][keep_b]),
                    HAB,
                    budget=budget_kappa,
                )
                assert oracle[i] == pytest.approx(lib, rel=1e-12)
    rho_tail = series_tail(budget_rho, 2)
    rho_ok = rho_excess <= 2 * rho_tail
    kap_tail = series_tail(budget_kappa, 3)
    kap_ok = kap_excess <= 2 * kap_tail

    _criterion(
        1,
        "metric axioms",
        r_ok and rho_ok and kap_ok,
        f"r: {violations} violations/1e6, branch combos {combos.tolist()}; "
        f"rho excess {rho_excess:.2e} <= {2 * rho_tail:.2e}; "
        f"kappa excess {kap_excess:.2e} <= {2 * kap_tail:.2e}",
    )


# ------------------------------------------------------------- criterion 2
def test_criterion_02_separation():
    # budgets large enough that the truncation floor sits well below the
    # closest random near-tie (distances only grow with budget, tails shrink)
    rng = np.random.default_rng(SEED + 1)
    m = 10_000
    budget_rho, budget_kappa = 28, 24
    ages_a, mask_a, sizes_a = _padded_multisets(rng, m, 4, min_p=1)
    ages_b, mask_b, sizes_b = _padded_multisets(rng, m, 4, min_p=1)
    # resample exact coincidences (none expected for continuous draws)
    same = (sizes_a == sizes_b) & np.all(np.isclose(ages_a, ages_b), axis=1)
    assert not same.any()
    # rho on the library's weights, one mark_sums call over each side's multisets
    Sa = mark_sums(ages_a[mask_a > 0], sizes_a, budget_rho)
    Sb = mark_sums(ages_b[mask_b > 0], sizes_b, budget_rho)
    rho_d = series_distance(_mark_pairs(budget_rho)[-1], Sa, Sb)
    rho_margin = float(rho_d.min()) / series_tail(budget_rho, 2)

    pos_a = rng.random((m, 4, 1))
    pos_b = rng.random((m, 4, 1))
    # kappa from the library kernel, 1000 pairs at a time
    cells, kappa_weights, _ = _kappa_cells(budget_kappa)
    kap_d = np.empty(m)
    step = 1000
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        keep = np.concatenate([mask_a[rows], mask_b[rows]]) > 0
        pos = np.concatenate([pos_a[rows], pos_b[rows]])[keep]
        ages = np.concatenate([ages_a[rows], ages_b[rows]])[keep]
        feats = kappa_features(pos, ages, keep.sum(axis=1), HAB, budget=budget_kappa)
        feats = np.take(feats.reshape(2 * step, -1), cells, axis=1)
        kap_d[rows] = series_distance(kappa_weights, feats[:step], feats[step:])
    kap_margin = float(kap_d.min()) / series_tail(budget_kappa, 3)
    # the test-local einsum kernels are the oracle on the first 1000 pairs
    head = slice(0, 1000)
    oracle = _rho_from_sums(
        _mark_sum_batch(ages_a[head], mask_a[head], budget_rho),
        _mark_sum_batch(ages_b[head], mask_b[head], budget_rho),
        budget_rho,
    )
    np.testing.assert_allclose(rho_d[head], oracle, rtol=1e-12)
    Ga, pairs = _g_sum_batch(pos_a[head], ages_a[head], mask_a[head], budget_kappa)
    Gb, _ = _g_sum_batch(pos_b[head], ages_b[head], mask_b[head], budget_kappa)
    np.testing.assert_allclose(kap_d[head], _kappa_from_sums(Ga, Gb, pairs, budget_kappa), rtol=1e-12)
    ok = rho_margin > 1.0 and kap_margin > 1.0
    _criterion(
        2,
        "separation",
        ok,
        f"min rho distance = {rho_margin:.1f} x tail, min kappa = {kap_margin:.1f} x tail "
        f"over {m} distinct pairs each",
    )


# ------------------------------------------------------------- criterion 3
def test_criterion_03_flow_and_pde():
    rng = np.random.default_rng(SEED + 2)
    n = 10_000
    x = rng.random((n, 1))
    al = rng.exponential(1.0, n)
    worst = 0.0
    for model in (CONST, SEPARABLE):
        for t, s in ((0.3, 0.5), (0.9, 0.05)):
            once = flow(flow(THETAS[1], t, model), s)
            direct = flow(THETAS[1], t + s, model)
            worst = max(worst, float(np.abs(once.theta(x, al) - direct.theta(x, al)).max()))
    comp_ok = worst < 1e-12

    grid_x = np.linspace(0.05, 0.95, 7)[:, None]
    grid_a = np.linspace(0.1, 2.0, 7)
    res = [
        float(central_flow_residual(THETAS[1], 0.6, grid_x, grid_a, SEPARABLE, h).max())
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    r1, r2 = res[0] / res[1], res[1] / res[2]
    pde_ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    _criterion(
        3,
        "flow and transport equation",
        comp_ok and pde_ok,
        f"composition gap {worst:.2e} < 1e-12 on {n} points x 4 settings; "
        f"Richardson ratios {r1:.2f}, {r2:.2f} in [3.5, 4.5]",
    )


# ------------------------------------------------------------- criterion 4
def test_criterion_04_kolmogorov_equation():
    rng = np.random.default_rng(SEED + 3)
    exponents = {}
    residuals = []
    ratios = []
    combos = []
    for i in range(100):
        theta = THETAS[i % len(THETAS)]
        model = CONST if i % 2 == 0 else SEPARABLE
        key = (id(theta), id(model))
        if key not in exponents:
            exponents[key] = ArrivalExponent(theta, HAB, model)
        t = float(rng.uniform(0.1, 1.4))
        config = _random_config(rng, int(rng.integers(0, 31)))
        combos.append((theta, model, t, config, exponents[key]))
        residuals.append(
            central_kolmogorov_residual(theta, t, config, HAB, model, 1e-3, exponents[key])
        )
    for theta, model, t, config, exponent in combos[:10]:
        r_2h = central_kolmogorov_residual(theta, t, config, HAB, model, 2e-3, exponent)
        r_h = central_kolmogorov_residual(theta, t, config, HAB, model, 1e-3, exponent)
        if r_h > 1e-11:  # skip ratios at the quadrature noise floor
            ratios.append(r_2h / r_h)
    worst = max(residuals)
    med_ratio = float(np.median(ratios))
    ok = worst < 1e-5 and 3.0 <= med_ratio <= 5.0
    _criterion(
        4,
        "Kolmogorov equation",
        ok,
        f"max residual {worst:.2e} < 1e-5 over 100 random (t, config<=30, theta); "
        f"median Richardson ratio {med_ratio:.2f} ~ 4",
    )


# ------------------------------------------------------------- criterion 5
def test_criterion_05_resolvent():
    rng = np.random.default_rng(SEED + 4)
    cases = []
    for i in range(20):
        theta = THETAS[i % len(THETAS)]
        config = _random_config(rng, int(rng.integers(0, 5)))
        cases.append((theta, config))
    exponents = {id(t): ArrivalExponent(t, HAB, CONST) for t in THETAS}
    worst = 0.0
    for theta, config in cases:
        for lam in (0.5, 1.0, 2.0):
            res = resolvent_identity_residual(theta, lam, config, HAB, CONST, exponent=exponents[id(theta)])
            worst = max(worst, res)
    ident_ok = worst < 1e-6
    bounds = {id(t): compute_bounds(t, HAB, CONST) for t in THETAS}
    tail_ok = True
    worst_frac = 0.0
    for theta, config in cases:
        f0 = F_theta(theta, config)
        for lam in (10.0, 100.0):
            val = resolvent(theta, lam, config, HAB, CONST, exponent=exponents[id(theta)])
            gap = abs(lam * val - f0)
            cap = bounds[id(theta)].ell_theta / lam
            worst_frac = max(worst_frac, gap / cap)
            tail_ok = tail_ok and gap <= cap
    _criterion(
        5,
        "resolvent identity",
        ident_ok and tail_ok,
        f"max identity residual {worst:.2e} < 1e-6 (20 cases x lambda in 0.5/1/2); "
        f"|lam F_lam - F| / (ell/lam) <= {worst_frac:.3f} at lam in 10/100",
    )


# ------------------------------------------------------------- criterion 6
def _lf_static_batch(theta, model, pos, ages, mask, chi0):
    g = theta.g(pos, ages) * mask
    gp = theta.g_age_derivative(pos, ages) * mask
    mr = model.rate(pos, ages)
    f = np.exp(-g.sum(axis=1))
    return f * (-gp.sum(axis=1) + (mr * np.expm1(g) * mask).sum(axis=1) + chi0)


def _lf_flowed_batch(theta, model, t, pos, ages, mask, psi_t):
    shifted = ages + t
    gb = theta.g(pos, shifted)
    gpb = theta.g_age_derivative(pos, shifted)
    q = np.exp(model.cumulative(pos, ages) - model.cumulative(pos, shifted))
    th = np.expm1(-gb) * q
    one_p = 1.0 + th
    g_t = -np.log1p(th) * mask
    dth = -gpb * np.exp(-gb) * q + np.expm1(-gb) * q * (model.rate(pos, ages) - model.rate(pos, shifted))
    gp_t = (-dth / one_p) * mask
    mr = model.rate(pos, ages)
    f = np.exp(-g_t.sum(axis=1))
    return f * (-gp_t.sum(axis=1) + (mr * np.expm1(g_t) * mask).sum(axis=1) + psi_t)


def test_criterion_06_uniform_generator_bounds():
    rng = np.random.default_rng(SEED + 5)
    theta = THETAS[1]
    model = CONST
    bounds = compute_bounds(theta, HAB, model)
    exponent = ArrivalExponent(theta, HAB, model)
    n = 10_000
    sizes = rng.integers(0, 7, n)
    pos = rng.random((n, 6, 1))
    ages = rng.exponential(1.5, (n, 6))
    mask = (np.arange(6)[None, :] < sizes[:, None]).astype(float)
    chi0 = chi_integral(HAB, lambda x: theta.theta(x, np.zeros(x.shape[:-1])), points=theta.x_breakpoints)
    lf = _lf_static_batch(theta, model, pos, ages, mask, chi0)
    # guard: batch agrees with the pointwise operator
    for i in range(5):
        keep = mask[i] > 0
        config = MarkedConfiguration(pos[i][keep], ages[i][keep])
        assert lf[i] == pytest.approx(
            apply_generator(theta, config, HAB, model), rel=1e-10, abs=1e-12
        )
    static_worst = float(np.abs(lf).max())
    static_ok = static_worst <= bounds.est_bound

    flow_worst = 0.0
    for t in np.linspace(0.1, 3.0, 10):
        lf_t = _lf_flowed_batch(theta, model, float(t), pos, ages, mask, exponent.psi(float(t)))
        keep = mask[0] > 0
        config = MarkedConfiguration(pos[0][keep], ages[0][keep])
        direct = apply_generator(FlowedTheta(theta, float(t), model), config, HAB, model)
        assert lf_t[0] == pytest.approx(direct, rel=1e-9, abs=1e-12)
        flow_worst = max(flow_worst, float(np.abs(lf_t).max()))
    flow_ok = flow_worst <= bounds.ell_theta
    _criterion(
        6,
        "uniform generator bounds",
        static_ok and flow_ok,
        f"sup|LF| = {static_worst:.4f} <= {bounds.est_bound:.4f}; "
        f"sup_t|LF_t| = {flow_worst:.4f} <= ell = {bounds.ell_theta:.4f} "
        f"(10^4 configs x 10 times, zero violations)",
    )


# ------------------------------------------------------------- criterion 7
def test_criterion_07_transition_law_oracle():
    rng = np.random.default_rng(SEED + 6)
    n = 100_000
    lines = []
    ok = True
    for t in (0.4, 0.9, 1.6):
        bundle = PathBundle(n, 1)
        bundle.add_poisson(transient_intensity(HAB, CONST, t), rng)
        for j, theta in enumerate(THETAS[:3]):
            want = math.exp(ArrivalExponent(theta, HAB, CONST).H_quad(t))
            f = bundle.f_theta(theta)
            se = f.std(ddof=1) / math.sqrt(n)
            z = abs(f.mean() - want) / se
            ok = ok and z < 4.0
            lines.append(f"t={t},theta{j}: z={z:.2f}")
    _criterion(7, "transition-law oracle", ok, "; ".join(lines) + " (all < 4 SE, n=1e5)")


# ------------------------------------------------------------- criterion 8
def test_criterion_08_chapman_kolmogorov():
    rng = np.random.default_rng(SEED + 7)
    config = MarkedConfiguration(np.array([[0.35], [0.75]]), np.array([0.4, 1.3]))
    worst = 0.0
    for model in (CONST, SEPARABLE):
        for s, t in ((0.4, 0.7), (1.0, 0.5)):
            rep = chapman_kolmogorov_check(THETAS[1], config, s, t, HAB, model)
            worst = max(worst, rep.value)
    analytic_ok = worst < 1e-8
    n = 100_000
    s, t = 0.5, 0.7
    theta = THETAS[1]
    one = PathBundle.from_configuration(config, n)
    one.transition(s + t, transient_intensity(HAB, CONST, s + t), CONST, rng)
    f_one = one.f_theta(theta)
    two = PathBundle.from_configuration(config, n)
    two.transition(s, transient_intensity(HAB, CONST, s), CONST, rng)
    two.transition(t, transient_intensity(HAB, CONST, t), CONST, rng)
    f_two = two.f_theta(theta)
    se = math.sqrt(f_one.var(ddof=1) / n + f_two.var(ddof=1) / n)
    z = abs(f_one.mean() - f_two.mean()) / se
    _criterion(
        8,
        "Chapman-Kolmogorov",
        analytic_ok and z < 4.0,
        f"analytic residual {worst:.2e} < 1e-8 (2 models x 2 splits); "
        f"two-stage vs one-stage z = {z:.2f} < 4 at n=1e5",
    )


# ------------------------------------------------------------- criterion 9
def test_criterion_09_cross_sampler():
    rng = np.random.default_rng(SEED + 8)
    reports = []
    for model in (CONST, SEPARABLE):
        reports.extend(cross_sampler_check(THETAS[1], 1.0, HAB, model, 20_000, rng))
    ok = all(r.passed for r in reports)
    detail = "; ".join(f"{r.name}={r.value:.3g}" for r in reports)
    _criterion(9, "cross-sampler agreement", ok, detail + " (constant + separable)")


# ------------------------------------------------------------ criterion 10
def test_criterion_10_immigration_death_oracle():
    rng = np.random.default_rng(SEED + 90)
    hab5 = uniform_habitat([(0.0, 1.0)], 5.0)
    reports = count_law_oracle(
        hab5, constant_rate(1.0), [0.5, 2.0, 10.0], 10_000, rng, ks_samples=100_000
    )
    ok = all(r.passed for r in reports)
    detail = "; ".join(f"{r.name.split('-', 2)[-1]}: {r.value:.3g}/{r.threshold:.3g}" for r in reports)
    _criterion(10, "immigration-death oracle", ok, detail)


# ------------------------------------------------------------ criterion 11
def test_criterion_11_fokker_planck_and_laplace():
    config = MarkedConfiguration(np.array([[0.35], [0.75]]), np.array([0.4, 1.3]))
    dirac = fokker_planck_check(THETAS[1], DiracLaw(config), 1.0, HAB, CONST)
    stationary = fokker_planck_check(
        THETAS[1], PoissonLaw(stationary_intensity(HAB, CONST)), 1.0, HAB, CONST
    )
    lap = laplace_uniqueness_check(THETAS[1], config, 1.5, HAB, CONST)
    ok = dirac.passed and stationary.passed and lap.passed and max(dirac.value, stationary.value) < 1e-12
    _criterion(
        11,
        "Fokker-Planck and Laplace uniqueness",
        ok,
        f"FPE residual {dirac.value:.2e} < 1e-12 (age rule, {dirac.note}); "
        f"stationary FPE {stationary.value:.2e} < 1e-12; Laplace residual {lap.value:.2e} < 1e-12",
    )


# ------------------------------------------------------------ criterion 12
def test_criterion_12_martingale():
    rng = np.random.default_rng(SEED + 10)
    config = MarkedConfiguration(np.array([[0.35], [0.75]]), np.array([0.4, 1.3]))
    combos = [
        (0.25, 0.75, THETAS[1], THETAS[0], DiracLaw(config)),
        (0.1, 0.6, THETAS[0], THETAS[2], DiracLaw(MarkedConfiguration.empty(1))),
        (0.5, 1.0, THETAS[2], THETAS[1], PoissonLaw(stationary_intensity(HAB, CONST))),
    ]
    reports = [
        martingale_residual(
            theta, initial, t1, t2, witness, HAB, CONST, 100_000, rng, n_grid=24
        )
        for (t1, t2, theta, witness, initial) in combos
    ]
    ok = all(r.passed for r in reports)
    detail = "; ".join(
        f"[{t1},{t2}]: |est|={r.value:.2e} < 4SE={r.threshold:.2e}"
        for (t1, t2, *_), r in zip(combos, reports)
    )
    _criterion(12, "martingale residual", ok, detail + " (n=1e5 each)")


# ------------------------------------------------------------ criterion 13
def test_criterion_13_ergodicity():
    report = ergodicity_check(THETAS[1], HAB, CONST)
    stat = stationarity_check(THETAS[1], HAB, CONST, [0.5, 1.0, 2.0, 5.0])
    ok = report.passed and stat.passed
    _criterion(
        13,
        "ergodicity",
        ok,
        f"largest gap / coupling bound {report.value:.3f} <= 1 ({report.note}); "
        f"stationary-start gap {stat.value:.2e} < 1e-12",
    )
