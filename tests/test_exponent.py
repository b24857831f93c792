"""Zero-rate exponent: the one Q-maximizer, the tilt searches, bounds, and
frozen references."""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import zerorate as zr
from zerorate import cli
from zerorate import exponent as exponent_mod

from conftest import (
    grid_q_max,
    pg_q_max,
    quantize_to_type,
    random_admissible_pair,
    random_full_support_pair,
    sigma_at,
    tilted_distribution,
    two_point_q_max,
    type_class_probability,
)

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


def _objective_reference(m, q):
    """The one-vector formula ``objective`` used before it batched rows."""
    weights = np.outer(q, q)
    if np.any((m == math.inf) & (weights > 0)):
        return math.inf
    return float(np.sum(weights * np.where(m == math.inf, 0.0, m)))


def test_objective_rows_match_the_one_vector_formula(rng, identity_pair):
    """The certificate scores a batch of columns at one kernel matrix; each
    row equals the one-vector formula bit for bit, the ``inf`` rule included,
    and ``objective`` is its one-row call."""
    for nx in (2, 3, 5, 6):
        k = zr.PairKernel(random_full_support_pair(rng, nx=nx, ny=3))
        Q = rng.dirichlet(np.ones(nx), size=12)
        Q[0] = np.eye(nx)[1]
        m = k.mu_matrix(0.9)
        rows = exponent_mod._objective_rows(m, Q)
        assert rows.tolist() == [_objective_reference(m, q) for q in Q]
        assert rows.tolist() == [zr.objective(k, q, 0.9) for q in Q]
    k = zr.PairKernel(identity_pair)
    Q = np.array([[0.5, 0.5], [1.0, 0.0]])
    m = k.mu_matrix(0.5)
    rows = exponent_mod._objective_rows(m, Q)
    assert rows.tolist() == [_objective_reference(m, q) for q in Q]
    assert rows[0] == math.inf and math.isfinite(rows[1])


def test_maximize_over_q_methods_agree(rng):
    for _ in range(12):
        nx = int(rng.integers(2, 4))
        pair = random_full_support_pair(rng, nx=nx)
        G = sigma_at(zr.PairKernel(pair), float(rng.uniform(0.1, 2.0)))
        exact, _ = exponent_mod._q_max(G)
        grid, _ = grid_q_max(G, 200)
        assert exact == pytest.approx(grid, abs=1e-4)
        assert exact >= grid - 1e-12
        two, _ = two_point_q_max(G)
        if nx == 2:
            assert two == pytest.approx(exact, abs=1e-6)
        else:
            assert two <= exact + 1e-9


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


def test_flat_objective_reports_the_smallest_tilt(constant_metric_pair):
    # g(s) is identically 0, so every grid tilt scores the same
    res = zr.expurgated_lower(constant_metric_pair)
    assert res.value == 0.0
    assert res.s_star == 0.0


def test_exponent_dominates_grid_oracle_over_tilts(typewriter_pair, bsc_pair):
    """The searched value is a supremum over [0, s_cap]: no tilt of a grid on
    that interval, with Q maximized by the simplex-grid oracle, beats it."""
    for pair in (typewriter_pair, bsc_pair):
        res = zr.zero_rate_exponent(pair)
        kernel = zr.PairKernel(pair) if res.balanced else zr.RelaxedKernel(pair)
        s_cap = res.method_trace["s_cap"]
        best = max(
            grid_q_max(sigma_at(kernel, float(s)), 200)[0]
            for s in np.linspace(0.0, s_cap, 33)
        )
        assert res.value >= best - 1e-4


def test_relaxed_kernel_from_balanced_pair_is_plain(bsc_pair):
    rk = zr.RelaxedKernel(bsc_pair)
    k = zr.PairKernel(bsc_pair)
    for s in (0.0, 0.5, 2.0):
        assert rk.mu(0, 1, s) == k.mu(0, 1, s)
    assert (0, 1) not in rk.boundary


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
        grid, _ = grid_q_max(sigma_at(k, s), 200)
        assert exact.value == pytest.approx(grid, abs=1e-4)
        assert exact.value >= grid - 1e-12


def test_exact_q_max_dominates_multistart():
    """Above twelve letters, where full enumeration is out of reach, the
    value is never below seeded multistart projected gradient's."""
    rng = np.random.default_rng(1324)
    for nx in range(13, 25):
        for diagonal in (False, True):
            G = _random_sym(rng, nx)
            if diagonal:
                np.fill_diagonal(G, rng.normal(size=nx))
            value, q = exponent_mod._q_max(G)
            pg_value, _ = pg_q_max(G, seed=nx)
            assert value >= pg_value - 1e-12
            assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
            assert value == pytest.approx(float(q @ G @ q), abs=1e-12)


def test_exact_q_max_skips_singular_faces():
    value, q = exponent_mod._q_max(np.zeros((4, 4)))
    assert value == 0.0
    assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
    # rows 0 and 1 identical: every face holding both letters is singular
    G = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    value, q = exponent_mod._q_max(G)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
    assert q[2] == pytest.approx(0.5, abs=1e-12)


def test_large_alphabet_takes_projected_gradient(rng):
    """Twelve and thirteen letters take the same exact route, which meets
    projected gradient and the best two-point restriction from above, at a
    point it attains."""
    for nx in (12, 13):
        k = zr.PairKernel(random_full_support_pair(rng, nx=nx, ny=3))
        res = zr.maximize_over_Q(k, 0.5)
        G = sigma_at(k, 0.5)
        assert res.value >= pg_q_max(G, seed=nx)[0] - 1e-12
        assert res.value >= two_point_q_max(G)[0] - 1e-12
        assert res.value == pytest.approx(zr.objective(k, res.q, 0.5), abs=1e-12)


def test_q_results_hold_plain_floats(rng):
    for nx in (3, 13):
        k = zr.PairKernel(random_full_support_pair(rng, nx=nx))
        res = zr.maximize_over_Q(k, 0.7)
        assert type(res.value) is float
        assert all(type(v) is float for v in res.q)


@pytest.mark.parametrize("call, error", [
    (lambda pair: zr.InputDistribution((math.nan, 1.0)), zr.ValidationError),
    (lambda pair: zr.InputDistribution((0.5, Fraction(10**400))), zr.ValidationError),
    (lambda pair: zr.objective(zr.PairKernel(pair), (math.nan, 1.0), 0.5), zr.ValidationError),
    (lambda pair: zr.komlos_asymmetry_bound(4, math.nan), zr.PreconditionError),
    (lambda pair: zr.komlos_asymmetry_bound(4, math.inf), zr.PreconditionError),
    (lambda pair: zr.geometric_s_grid(math.nan, 4), zr.PreconditionError),
    (lambda pair: zr.geometric_s_grid(math.inf, 4), zr.PreconditionError),
    (lambda pair: quantize_to_type([math.nan, 1.0], 4), zr.ValidationError),
    (lambda pair: quantize_to_type([math.inf, 1.0], 4), zr.ValidationError),
    (lambda pair: zr.objective(zr.PairKernel(pair), (Fraction(10**400), 0.5), 0.5), zr.ValidationError),
    (lambda pair: zr.komlos_asymmetry_bound(4, Fraction(10**400)), zr.PreconditionError),
    (lambda pair: zr.geometric_s_grid(Fraction(10**400), 4), zr.PreconditionError),
], ids=["distribution", "distribution-huge-fraction", "objective-q", "komlos-nan", "komlos-inf", "s-grid-nan", "s-grid-inf",
        "quantize-nan", "quantize-inf", "objective-q-huge-fraction", "komlos-huge-fraction",
        "s-grid-huge-fraction"])
def test_non_finite_public_inputs_rejected(bsc_pair, call, error):
    """A non-finite entry or value is an error, never a silent ``nan``; a
    rational too large for a float raises that error too, not a bare
    ``OverflowError``."""
    with pytest.raises(error):
        call(bsc_pair)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_tilt_rejected_by_objective_and_q_max(bsc_pair, s):
    k = zr.PairKernel(bsc_pair)
    with pytest.raises(zr.PreconditionError):
        zr.objective(k, (0.5, 0.5), s)
    with pytest.raises(zr.PreconditionError):
        zr.maximize_over_Q(k, s)


TILT_ENTRY_POINTS = {
    "mu": lambda pair, s, path: zr.PairKernel(pair).mu(0, 1, s),
    "mu_prime": lambda pair, s, path: zr.PairKernel(pair).mu_prime(0, 1, s),
    "mu_sequence": lambda pair, s, path: zr.PairKernel(pair).mu_sequence((0, 1), (1, 1), s),
    "objective": lambda pair, s, path: zr.objective(zr.PairKernel(pair), (0.5, 0.5), s),
    "maximize_over_Q": lambda pair, s, path: zr.maximize_over_Q(zr.PairKernel(pair), s),
    "tilted_error_lower_bound": lambda pair, s, path: zr.tilted_error_lower_bound(pair, (0, 0), (1, 1), s),
    "write_mu_curve": lambda pair, s, path: zr.write_mu_curve(zr.PairKernel(pair), str(path), [0.5, s]),
}


@pytest.mark.parametrize("name", sorted(TILT_ENTRY_POINTS))
def test_a_tilt_too_large_for_a_float_is_above_the_kernel_limit(name, bsc_pair, tmp_path):
    """A rational tilt beyond the float range is compared exactly against
    ``s_limit`` and raises its ``PreconditionError``, not a bare ``OverflowError``
    from converting it.  A rational tilt in range gives the bits of its float:
    ``mu`` and ``mu_prime`` at ``Fraction(1, 2)`` once died in numpy's ``exp``
    on an object array."""
    call = TILT_ENTRY_POINTS[name]
    with pytest.raises(zr.PreconditionError, match=f"^{name}: tilt s = 1000.* is above "):
        call(bsc_pair, Fraction(10**400), tmp_path / "mu.csv")
    with pytest.raises(zr.PreconditionError, match=f"^{name} requires a finite s >= 0, got -1000"):
        call(bsc_pair, -Fraction(10**400), tmp_path / "mu.csv")
    assert repr(call(bsc_pair, Fraction(1, 2), tmp_path / "half.csv")) == repr(call(bsc_pair, 0.5, tmp_path / "f.csv"))


def test_tilt_search_rejects_tilts_above_the_kernel_limit(typewriter_pair):
    """The lower route's geometric grid is checked against the kernel's
    limit before the search runs on it."""
    rows = ((Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))
    pair = zr.pair_from_rows(rows, rows)
    for p in (pair, typewriter_pair):
        with pytest.raises(zr.PreconditionError, match="tilt search"):
            exponent_mod._search(zr.PairKernel(p), zr.geometric_s_grid(1e308, 512), None)
    # a grid that stays below the limit still searches
    assert exponent_mod._search(zr.PairKernel(pair), zr.geometric_s_grid(1e300, 512), None)[0] > 0


def test_constant_curve_polish_stays_at_zero():
    """A balanced pair whose objective is constant in s (exponent 0): float
    noise in log(5/9) + log(9/5) once made the polish climb to s = 2**20."""
    W = ((F(1), F(0), F(0)), (F(1), F(0), F(0)))
    q = ((F(5), F(0), F(0)), (F(9), F(2, 5), F(7, 6)))
    pair = zr.pair_from_rows(W, q)
    assert zr.expurgated_lower(pair).value <= 1e-12
    res = zr.zero_rate_exponent(pair)
    assert res.s_star <= res.method_trace["s_cap"]


def test_polish_restarts_from_zero_on_a_constant_curve():
    """The lower route's polish must not stop on a curve that is flat because
    every direction on the support of Q is affine: the best Q sits at s = 0."""
    W = ((0, 0, 1), (F(3, 5), 0, F(2, 5)), (F(1, 3), 0, F(2, 3)),
         (F(1, 11), F(6, 11), F(4, 11)), (F(2, 13), F(8, 13), F(3, 13)))
    q = ((0, 0, F(1, 2)), (F(8, 9), 0, 1), (F(7, 2), F(2, 3), 1),
         (F(1, 2), F(5, 3), F(8, 7)), (8, 2, 1))
    pair = zr.pair_from_rows(*[[[F(v) for v in row] for row in m] for m in (W, q)])
    assert zr.expurgated_lower(pair).value >= 0.38464074696970585 - 1e-12


def test_lower_route_dominates_every_fixed_tilt():
    rng = np.random.default_rng(11)
    tilts = zr.geometric_s_grid(64.0, 512)[::8]
    checked = 0
    while checked < 40:
        pair = random_admissible_pair(rng, nx=2 + checked % 4)
        if not zr.check_c0bar_zero(pair)[0]:
            continue
        k = zr.PairKernel(pair)
        lower = zr.expurgated_lower(pair).value
        for s in tilts:
            assert lower >= zr.maximize_over_Q(k, float(s)).value - 1e-9
        checked += 1


def test_interval_route_dominates_every_fixed_tilt():
    """The exponent is a supremum over [0, s_cap] of the raw kernel (balanced)
    or the relaxed one: no tilt on a fine grid of that interval beats it."""
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 40:
        pair = random_admissible_pair(rng, nx=2 + checked % 5)
        if not zr.check_c0bar_zero(pair)[0]:
            continue
        res = zr.zero_rate_exponent(pair)
        kernel = zr.PairKernel(pair) if res.balanced else zr.RelaxedKernel(pair)
        for s in np.linspace(0.0, res.method_trace["s_cap"], 129):
            assert res.value >= zr.maximize_over_Q(kernel, float(s)).value - 1e-9
        checked += 1


def test_unbalanced_exponent_builds_one_kernel(typewriter_pair, monkeypatch):
    calls = []
    init = zr.PairKernel.__init__

    def spy(self, *args, **kwargs):
        calls.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(zr.PairKernel, "__init__", spy)
    res = zr.zero_rate_exponent(typewriter_pair)
    assert not res.balanced
    assert calls == ["PairKernel"]


def _q_max_one_at_a_time(G):
    """Full enumeration on one matrix: the KKT point of every face, with
    ``slogdet`` on every face before one solve per face size, each valued on
    its face's own entries; the first best wins.  The reference for the
    stacked, pruned solve."""
    nx = len(G)
    best_v, best_q = -math.inf, None
    for k in range(1, nx + 1):
        idx = np.array(list(itertools.combinations(range(nx), k)), dtype=np.intp)
        S = G[idx[:, :, None], idx[:, None, :]]
        A = np.zeros((len(idx), k + 1, k + 1))
        A[:, :k, :k] = S
        A[:, :k, k] = -1.0
        A[:, k, :k] = 1.0
        nonsingular = np.linalg.slogdet(A)[0] != 0
        A, S, idx = A[nonsingular], S[nonsingular], idx[nonsingular]
        b = np.zeros((len(A), k + 1, 1))
        b[:, k] = 1.0
        x = np.linalg.solve(A, b)[:, :k, 0]
        keep = np.isfinite(x).all(axis=1) & (x >= -1e-12).all(axis=1)
        if not keep.any():
            continue
        x = np.clip(x[keep], 0.0, None)
        x /= x.sum(axis=1, keepdims=True)
        vals = np.einsum("mi,mij,mj->m", x, S[keep], x)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_q = float(vals[i]), np.zeros(nx)
            best_q[idx[keep][i]] = x[i]
    return best_v, best_q


def test_stacked_q_max_equals_one_matrix_at_a_time(bsc_pair, typewriter_pair, monkeypatch):
    """``_q_max`` on a stack solves each face size once for every matrix;
    each matrix's value and maximizer equal its own solve, by float hex and
    bytes: seeded stacks with one to eight letters, the BSC and typewriter
    sigma matrices (singular faces, ties between faces) and a planted
    matrix with two equal rows, mixed with regular ones."""
    rng = np.random.default_rng(1804)
    slogdets = []
    real_slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda A: slogdets.append(len(A)) or real_slogdet(A))
    stacks = [np.stack([_random_sym(rng, nx) for _ in range(g)])
              for nx in range(1, 9) for g in (1, 2, 4)]
    for pair in (bsc_pair, typewriter_pair):
        for make in (zr.PairKernel, zr.RelaxedKernel):
            stacks.append(exponent_mod._sigma_grid(make(pair), [0.0, 0.25, 1.0, 3.0]))
    planted = _random_sym(rng, 4)
    planted[1], planted[:, 1] = planted[0], planted[:, 0]
    planted[1, 1] = planted[0, 0] = 0.0
    stacks.append(np.stack([_random_sym(rng, 4), planted, _random_sym(rng, 4)]))
    for stack in stacks:
        values, qs = exponent_mod._q_max(stack)
        assert values.shape == (len(stack),) and qs.shape == stack.shape[:2]
        for G, value, q in zip(stack, values, qs):
            ref_v, ref_q = _q_max_one_at_a_time(G)
            one_v, one_q = exponent_mod._q_max(G)
            assert float(value).hex() == ref_v.hex() == one_v.hex()
            assert q.tobytes() == ref_q.tobytes() == one_q.tobytes()
    # the reference calls slogdet on every face size; the stacked solve only
    # after LAPACK refused a singular face, which the sigma matrices have
    assert slogdets


def test_q_max_solves_read_alike_on_numpy_1_and_2(bsc_pair, monkeypatch):
    """``np.linalg.solve(a, b)`` reads a ``b`` with one dimension fewer than
    ``a`` as a stack of vectors before numpy 2.0 and as a single matrix
    since; ``_q_max`` must hand it only a ``b`` both read the same, on the
    regular solve and on the one after a singular face."""
    calls = []
    real_solve = np.linalg.solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda a, b: calls.append((a.ndim, b.ndim)) or real_solve(a, b))
    rng = np.random.default_rng(7)
    for nx in range(1, 6):
        exponent_mod._q_max(np.stack([_random_sym(rng, nx) for _ in range(3)]))
    exponent_mod._q_max(exponent_mod._sigma_grid(zr.PairKernel(bsc_pair), [0.0, 1.0]))
    assert calls
    assert all(b_ndim == 1 or b_ndim != a_ndim - 1 for a_ndim, b_ndim in calls)


def test_pruned_faces_never_lose_the_full_enumeration_winner():
    """Level-wise pruning keeps the face full enumeration picks: on seeded
    symmetric matrices of one to twelve letters, with zero and with random
    diagonals, and on sigma stacks, value and maximizer equal the reference
    by float hex and bytes."""
    rng = np.random.default_rng(2112)
    stacks = []
    for nx in range(1, 13):
        plain, diagonal = _random_sym(rng, nx), _random_sym(rng, nx)
        np.fill_diagonal(diagonal, rng.normal(size=nx))
        stacks += [plain[None], diagonal[None]]
        kernel = zr.PairKernel(random_full_support_pair(rng, nx=nx, ny=2 + nx % 3))
        stacks.append(exponent_mod._sigma_grid(kernel, [0.1, 0.7, 2.0]))
    for stack in stacks:
        values, qs = exponent_mod._q_max(stack)
        for G, value, q in zip(stack, values, qs):
            ref_v, ref_q = _q_max_one_at_a_time(G)
            assert float(value).hex() == ref_v.hex()
            assert q.tobytes() == ref_q.tobytes()


def test_near_singular_face_is_kept():
    """Letter 1 repeats letter 0 but for a pair entry of 5e-14, so their rows
    agree to within 1e-13 and the face holding both curves by only -1e-13
    along their difference.  The optimum splits its mass between the two
    letters, so the face test must keep that all but flat face."""
    rng = np.random.default_rng(2)
    base = np.abs(_random_sym(rng, 4))
    G = base[np.ix_([0, 0, 1, 2, 3], [0, 0, 1, 2, 3])]
    G[0, 1] = G[1, 0] = 5e-14
    value, q = exponent_mod._q_max(G)
    ref_v, _ = _q_max_one_at_a_time(G)
    assert float(value).hex() == ref_v.hex()
    assert q[0] > 0.0 and q[1] > 0.0
    assert value > exponent_mod._q_max(base)[0]


def test_symmetric_alphabet_meets_the_face_budget():
    """``c (J - I)`` passes every face test, so every face is enumerated:
    sixteen letters fit the budget and give the uniform distribution, twenty
    letters raise the budget error before the middle levels are built."""
    value, q = exponent_mod._q_max(0.3 * (np.ones((16, 16)) - np.eye(16)))
    assert value == pytest.approx(0.3 * (1 - 1 / 16), abs=1e-12)
    assert np.abs(q - 1 / 16).max() <= 1e-12
    start = time.perf_counter()
    with pytest.raises(zr.BudgetExceededError, match="20 input letters"):
        exponent_mod._q_max(0.3 * (np.ones((20, 20)) - np.eye(20)))
    assert time.perf_counter() - start < 1.0


def _embedded(block, letters, nx):
    """``block`` on ``letters`` of an ``nx``-letter matrix whose other pairs are
    forbidden (``-inf``) and whose other letters are worth -1."""
    G = np.full((nx, nx), -np.inf)
    np.fill_diagonal(G, -1.0)
    G[np.ix_(letters, letters)] = block
    return G


def test_wide_alphabets_key_faces_by_python_ints():
    """Faces of a stack wider than 63 key bits are keyed by Python ints, so
    only the face budget caps ``_q_max``: a 200-letter limit matrix with four
    allowed pairs (the tail candidate's shape) and stacks of one and four at
    62, 63 and 64 letters give the small matrix's value by float hex and its
    maximizer by bytes, and ``c (J - I)`` still meets the budget at 17 letters."""
    tri = np.full((5, 5), -np.inf)
    np.fill_diagonal(tri, 0.0)
    for a, b, v in ((0, 1, 0.3), (0, 2, 0.3), (1, 2, 0.3), (3, 4, 0.1)):
        tri[a, b] = tri[b, a] = v
    wide = np.full((200, 200), -np.inf)
    np.fill_diagonal(wide, 0.0)
    wide[:5, :5] = tri
    value, q = exponent_mod._q_max(wide)
    assert value == pytest.approx(0.2, abs=1e-15)
    assert np.flatnonzero(q).tolist() == [0, 1, 2]
    rng = np.random.default_rng(2201)
    for nx in (62, 63, 64):
        blocks = [_random_sym(rng, 6) for _ in range(4)]
        letters = [np.sort(rng.choice(nx, 6, replace=False)) for _ in range(3)] + [np.arange(nx - 6, nx)]
        stack = np.stack([_embedded(b, at, nx) for b, at in zip(blocks, letters)])
        values, qs = exponent_mod._q_max(stack)
        for b, at, v, q in zip(blocks, letters, values, qs):
            ref_v, ref_q = exponent_mod._q_max(b)
            alone_v, alone_q = exponent_mod._q_max(_embedded(b, at, nx))
            assert float(v).hex() == float(alone_v).hex() == float(ref_v).hex()
            assert q[at].tobytes() == alone_q[at].tobytes() == ref_q.tobytes()
            assert not np.delete(q, at).any()
    with pytest.raises(zr.BudgetExceededError, match="17 input letters"):
        exponent_mod._q_max(0.3 * (np.ones((17, 17)) - np.eye(17)))


def test_tail_candidate_equals_the_best_boundary_clique(typewriter_pair):
    """One ``_q_max`` call on the limit matrix, ``-inf`` off the boundary
    graph, gives the value of the best clique solved on its own entries."""
    rng = np.random.default_rng(31)
    pairs, tried = [typewriter_pair], 0
    while len(pairs) < 12 and tried < 400:
        tried += 1
        pair = random_admissible_pair(rng, nx=2 + tried % 4)
        if zr.check_c0bar_zero(pair)[0] and zr.boundary_set_B(pair):
            pairs.append(pair)
    assert len(pairs) == 12
    for pair in pairs:
        kernel = zr.PairKernel(pair)
        edges = {(a, b) for a, b in zr.boundary_set_B(pair) if a < b}
        best = -math.inf
        for size in range(2, pair.nx + 1):
            for clique in itertools.combinations(range(pair.nx), size):
                if all(e in edges for e in itertools.combinations(clique, 2)):
                    sub = np.zeros((size, size))
                    for (i, a), (j, b) in itertools.combinations(enumerate(clique), 2):
                        sub[i, j] = sub[j, i] = 0.5 * kernel.sup_sigma(a, b).value
                    best = max(best, exponent_mod._q_max(sub)[0])
        value, q = exponent_mod._tail_candidate(kernel)
        assert float(value).hex() == float(best).hex()
        assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)


def test_tail_candidate_limit_matrix_equals_the_sup_sigma_loop(typewriter_pair, monkeypatch):
    """The limit matrix ``_tail_candidate`` hands to ``_q_max``, built from one
    ``_sup_rows`` batch over the boundary pairs, equals the matrix of the
    pair-by-pair ``sup_sigma`` loop entry for entry, by float hex."""
    rng = np.random.default_rng(2801)
    pairs, tried = [typewriter_pair], 0
    while len(pairs) < 16 and tried < 600:
        tried += 1
        pair = random_admissible_pair(rng, nx=2 + tried % 5)
        if zr.check_c0bar_zero(pair)[0] and zr.boundary_set_B(pair):
            pairs.append(pair)
    assert len(pairs) == 16
    seen = []
    real_q_max = exponent_mod._q_max
    monkeypatch.setattr(exponent_mod, "_q_max", lambda G: seen.append(G.copy()) or real_q_max(G))
    edges = 0
    for pair in pairs:
        kernel, nx = zr.PairKernel(pair), pair.nx
        loop = np.full((nx, nx), -math.inf)
        np.fill_diagonal(loop, 0.0)
        for a, b in zr.boundary_set_B(pair):
            if a < b:
                loop[a, b] = loop[b, a] = 0.5 * kernel.sup_sigma(a, b).value
                edges += 1
        seen.clear()
        exponent_mod._tail_candidate(kernel)
        assert seen[0].shape == (nx, nx)      # the call; a stacked call of its own may follow
        assert [float(v).hex() for v in seen[0].ravel()] == [float(v).hex() for v in loop.ravel()]
    assert edges > len(pairs)


def test_an_extreme_rational_entry_gives_finite_values(tmp_path):
    """A channel entry of 10**-400, which a float reads as 0, is a valid pair:
    the kernel, its tilted law, both exponent routes, the gap, the counting
    slack, the supremum bound and the type-class bound (whose divergence
    overflows a float) take their logarithms from the integers, and the
    CLI's ``exponent`` and ``mu-curve`` exit 0."""
    e = Fraction(1, 10**400)
    W = ((1 - e, e), (F(1, 4), F(3, 4)))
    q = ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))
    pair = zr.pair_from_rows(W, q)
    kernel = zr.PairKernel(pair)
    d = kernel.direction(0, 1)
    assert d.slope_limit == math.log(1 / 3) and d.intercept == pytest.approx(400 * math.log(10))
    values = [kernel.mu(0, 1, 0.5), kernel.sup_sigma(0, 1).value,
              zr.zero_rate_exponent(pair).value, zr.expurgated_lower(pair).value,
              zr.gap_bound(pair), zr.type_counting_slack(pair, 4),
              zr.sup_error_lower_bound(pair, (0, 0), (1, 1)).delta_n]
    assert all(math.isfinite(v) for v in values), values
    assert values[2] == pytest.approx(math.log(2) / 2, abs=1e-9)
    assert tilted_distribution(kernel, 0, 1, 0.5).sum() == pytest.approx(1.0)
    assert type_class_probability(pair, (0,), (1,), {(0, 1): (0, 1)}) == (e, 0.0)
    doc = tmp_path / "extreme.json"
    doc.write_text(json.dumps({"input_alphabet": ["0", "1"], "output_alphabet": ["0", "1"],
                               "W": [[str(v) for v in row] for row in W],
                               "q": [[str(v) for v in row] for row in q]}))
    for argv in (["exponent", "--pair", str(doc)],
                 ["mu-curve", "--pair", str(doc), "--csv", str(tmp_path / "mu.csv")]):
        assert cli.main(argv) == 0, argv
