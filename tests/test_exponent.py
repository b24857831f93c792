"""Zero-rate exponent: optimizer routes, bounds, and frozen references."""

import math
from fractions import Fraction

import numpy as np
import pytest

import zerorate as zr
from zerorate import exponent as exponent_mod

from conftest import random_full_support_pair

F = Fraction

# closed form for the symmetric binary pair with crossover 1/4:
# best s is 1/2, best Q is uniform, value = (1/4) * 2 * (log 2 - log(3)/2)
BSC_EXPONENT = 0.5 * (math.log(2) - 0.5 * math.log(3))


def test_error_hierarchy():
    assert issubclass(zr.ValidationError, zr.ZerorateError)
    assert issubclass(zr.PreconditionError, zr.ZerorateError)
    assert issubclass(zr.InfiniteExponentError, zr.PreconditionError)
    assert issubclass(zr.BudgetExceededError, zr.PreconditionError)


def test_bsc_exponent_exact_equality(bsc_pair):
    res = zr.zero_rate_exponent(bsc_pair)
    assert res.value == pytest.approx(BSC_EXPONENT, abs=1e-9)
    assert res.value == pytest.approx(0.0719205181129453, abs=1e-9)
    assert res.kind == "exact_equality"
    assert res.balanced is True
    assert res.gap_bound == 0.0
    assert res.s_star == pytest.approx(0.5, abs=1e-6)
    assert tuple(res.q_star.probs) == pytest.approx((0.5, 0.5), abs=1e-6)
    assert res.lower_expurgated == pytest.approx(res.value, abs=1e-9)


def test_typewriter_exponent_brackets(typewriter_pair):
    res = zr.zero_rate_exponent(typewriter_pair)
    assert res.kind == "upper_bound"
    assert res.balanced is False
    assert res.gap_bound == pytest.approx(0.5 * math.log(10), abs=1e-9)
    low = zr.expurgated_lower(typewriter_pair)
    assert res.lower_expurgated == pytest.approx(low.value, abs=1e-12)
    assert low.value <= res.value + 1e-9
    assert res.value - low.value <= res.gap_bound + 1e-9
    # regression values from this implementation, pinned loosely
    assert res.value == pytest.approx(0.791110101689448, abs=1e-6)
    assert low.value == pytest.approx(0.754685043669010, abs=1e-6)


def test_identity_pair_is_infinite(identity_pair):
    with pytest.raises(zr.InfiniteExponentError):
        zr.zero_rate_exponent(identity_pair)
    with pytest.raises(zr.InfiniteExponentError):
        zr.expurgated_lower(identity_pair)


def test_objective_is_the_quadratic_form(rng):
    for _ in range(10):
        pair = random_full_support_pair(rng, nx=3, ny=3)
        k = zr.PairKernel(pair)
        Q = rng.dirichlet(np.ones(3))
        for s in (0.2, 0.8, 1.7):
            manual = sum(
                float(Q[a]) * float(Q[b]) * k.mu(a, b, s)
                for a in range(3)
                for b in range(3)
            )
            assert zr.objective(k, Q, s) == pytest.approx(manual, abs=1e-12)


def test_maximize_over_q_methods_agree(rng):
    for _ in range(12):
        nx = int(rng.integers(2, 4))
        pair = random_full_support_pair(rng, nx=nx)
        k = zr.PairKernel(pair)
        s = float(rng.uniform(0.1, 2.0))
        multi = zr.maximize_over_Q(k, s, method="multistart_pg")
        grid = zr.maximize_over_Q(k, s, method="grid")
        assert multi.value == pytest.approx(grid.value, abs=1e-4)
        assert multi.value >= grid.value - 1e-4
        if nx == 2:
            two = zr.maximize_over_Q(k, s, method="two_point")
            assert two.value == pytest.approx(multi.value, abs=1e-6)
        else:
            two = zr.maximize_over_Q(k, s, method="two_point")
            assert two.value <= multi.value + 1e-9


def test_maximizer_q_is_a_distribution(rng):
    pair = random_full_support_pair(rng, nx=3)
    k = zr.PairKernel(pair)
    res = zr.maximize_over_Q(k, 0.7)
    q = np.asarray(res.q, dtype=float)
    assert q.min() >= -1e-12
    assert q.sum() == pytest.approx(1.0, abs=1e-9)
    assert zr.objective(k, q, 0.7) == pytest.approx(res.value, abs=1e-9)


def test_optimized_objective_dominates_samples(rng, bsc_pair):
    k = zr.PairKernel(bsc_pair)
    value, s_star, q_star = zr.optimized_objective(k)
    assert value == pytest.approx(BSC_EXPONENT, abs=1e-9)
    assert zr.objective(k, q_star, s_star) == pytest.approx(value, abs=1e-9)
    for _ in range(50):
        Q = rng.dirichlet(np.ones(2))
        s = float(rng.uniform(0.0, 0.5))
        assert zr.objective(k, Q, s) <= value + 1e-9


def test_exponent_between_lower_and_lower_plus_gap(rng):
    checked = 0
    for _ in range(15):
        pair = random_full_support_pair(rng)
        res = zr.zero_rate_exponent(pair)
        assert res.kind == "exact_equality"
        assert res.lower_expurgated == pytest.approx(res.value, abs=1e-6)
        assert res.value >= res.lower_expurgated - 1e-9
        assert res.value - res.lower_expurgated <= res.gap_bound + 1e-9
        checked += 1
    assert checked == 15


def test_metric_scaling_leaves_exponent_unchanged(rng):
    """The decision rule only sees metric ratios, so a global rescale of
    the metric must not move the exponent at all."""
    pair = random_full_support_pair(rng, nx=3, ny=3)
    scaled = zr.pair_from_rows(pair.W, [[7 * v for v in row] for row in pair.q])
    a = zr.zero_rate_exponent(pair)
    b = zr.zero_rate_exponent(scaled)
    assert a.value == b.value
    assert a.s_star == b.s_star


def test_exponent_dominates_grid_oracle_over_tilts(typewriter_pair, bsc_pair):
    """The searched value is a supremum over [0, s_cap]: no tilt of a grid on
    that interval, with Q maximized by the simplex-grid oracle, beats it."""
    for pair in (typewriter_pair, bsc_pair):
        res = zr.zero_rate_exponent(pair)
        kernel = zr.PairKernel(pair) if res.balanced else zr.relaxed_kernel(pair)
        s_cap = res.method_trace["s_cap"]
        best = max(
            zr.maximize_over_Q(kernel, float(s), method="grid").value
            for s in np.linspace(0.0, s_cap, 33)
        )
        assert res.value >= best - 1e-4


def test_relaxed_kernel_from_balanced_pair_is_plain(bsc_pair):
    rk = zr.relaxed_kernel(bsc_pair)
    k = zr.PairKernel(bsc_pair)
    for s in (0.0, 0.5, 2.0):
        assert rk.mu(0, 1, s) == k.mu(0, 1, s)
    assert not rk.is_boundary(0, 1)


def test_method_trace_records_route(bsc_pair):
    res = zr.zero_rate_exponent(bsc_pair)
    assert isinstance(res.method_trace, dict)
    assert res.method_trace


def _random_sym(rng, nx):
    G = rng.normal(size=(nx, nx))
    G = 0.5 * (G + G.T)
    np.fill_diagonal(G, 0.0)
    return G


def test_exact_q_max_matches_grid_oracle(rng):
    for nx in (2, 3, 3, 4):
        pair = random_full_support_pair(rng, nx=nx)
        k = zr.PairKernel(pair)
        s = float(rng.uniform(0.1, 2.0))
        exact = zr.maximize_over_Q(k, s)
        grid = zr.maximize_over_Q(k, s, method="grid",
                                  options=zr.SearchOptions(grid_resolution=200))
        assert exact.method == "exact"
        assert exact.value == pytest.approx(grid.value, abs=1e-4)
        assert exact.value >= grid.value - 1e-12


def test_exact_q_max_dominates_multistart(rng):
    opts = zr.SearchOptions()
    for nx in (5, 6, 7, 8):
        for _ in range(3):
            G = _random_sym(rng, nx)
            value, q = exponent_mod._q_max(G, opts)
            pg_value, _ = exponent_mod._multistart_pg(G, opts)
            assert value >= pg_value - 1e-12
            assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
            assert value == pytest.approx(float(q @ G @ q), abs=1e-12)


def test_exact_q_max_skips_singular_faces():
    opts = zr.SearchOptions()
    value, q = exponent_mod._q_max(np.zeros((4, 4)), opts)
    assert value == 0.0
    assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
    # rows 0 and 1 identical: every face holding both letters is singular
    G = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    value, q = exponent_mod._q_max(G, opts)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
    assert q[2] == pytest.approx(0.5, abs=1e-12)


def test_large_alphabet_takes_projected_gradient(rng):
    pair = random_full_support_pair(rng, nx=13, ny=3)
    k = zr.PairKernel(pair)
    res = zr.maximize_over_Q(k, 0.5)
    assert res.method == "multistart_pg"
    assert res.value >= zr.maximize_over_Q(k, 0.5, method="two_point").value - 1e-12
    small = zr.maximize_over_Q(zr.PairKernel(random_full_support_pair(rng, nx=12, ny=3)), 0.5)
    assert small.method == "exact"


def test_q_results_hold_plain_floats(rng):
    k = zr.PairKernel(random_full_support_pair(rng, nx=3))
    for method in ("exact", "multistart_pg", "grid", "two_point"):
        res = zr.maximize_over_Q(k, 0.7, method=method)
        assert type(res.value) is float
        assert all(type(v) is float for v in res.q)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_tilt_rejected_by_objective_and_q_max(bsc_pair, s):
    k = zr.PairKernel(bsc_pair)
    with pytest.raises(zr.PreconditionError):
        zr.objective(k, (0.5, 0.5), s)
    with pytest.raises(zr.PreconditionError):
        zr.maximize_over_Q(k, s)


def test_tilt_search_rejects_tilts_above_the_kernel_limit():
    rows = ((Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))
    pair = zr.pair_from_rows(rows, rows)
    with pytest.raises(zr.PreconditionError, match="tilt search"):
        zr.expurgated_lower(pair, s_grid=[0.0, 1e308])
    with pytest.raises(zr.PreconditionError, match="tilt search"):
        zr.zero_rate_exponent(pair, zr.SearchOptions(s_max=1e308))
    # a grid that stays below the limit still searches
    assert zr.expurgated_lower(pair, s_grid=[0.0, 0.5, 1e300]).value > 0
