"""Two-codeword decoding: exact enumeration, sampling, and lower bounds."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zerorate as zr
from zerorate.decoder import _metric_counts

from conftest import random_codebook, random_full_support_pair

F = Fraction

# Metric entries with shared prime factors, so that unequal products of
# different entries often tie exactly; zero is allowed where W is zero.
METRIC_VALUES = tuple(F(v) for v in ("0", "1/3", "1/2", "2/3", "1", "3/2", "2", "3", "4/9", "9/4"))


@st.composite
def pairs_with_zeros(draw):
    nx = draw(st.integers(2, 3))
    ny = draw(st.integers(2, 3))
    W, q = [], []
    for _ in range(nx):
        weights = draw(st.lists(st.integers(0, 3), min_size=ny, max_size=ny)
                       .filter(lambda row: sum(row) > 0))
        W.append(tuple(F(w, sum(weights)) for w in weights))
        row = [draw(st.sampled_from(METRIC_VALUES)) for _ in range(ny)]
        row = [v if v > 0 or weights[y] == 0 else F(1) for y, v in enumerate(row)]
        if not any(row):
            row[0] = F(1)
        q.append(tuple(row))
    return zr.pair_from_rows(W, q)


def brute_force_decoding(pair, x1, x2, tie_policy):
    """Per-message error probabilities by summing over every output word."""
    err, tie = [F(0), F(0)], [F(0), F(0)]
    for ys in itertools.product(range(pair.ny), repeat=len(x1)):
        p = [math.prod((pair.W[x][y] for x, y in zip(w, ys)), start=F(1)) for w in (x1, x2)]
        s = [math.prod((pair.q[x][y] for x, y in zip(w, ys)), start=F(1)) for w in (x1, x2)]
        if s[0] > s[1]:
            err[1] += p[1]
        elif s[0] < s[1]:
            err[0] += p[0]
        else:
            tie[0] += p[0]
            tie[1] += p[1]
    share = {"equiprobable": F(1, 2), "as_error": F(1), "genie_correct": F(0)}[tie_policy]
    return tuple(e + share * t for e, t in zip(err, tie)), (tie[0] + tie[1]) / 2


def test_exact_single_letter(bsc_pair):
    code = zr.Codebook(((0,), (1,)), 2)
    out = zr.exact_error_probabilities(bsc_pair, code)
    assert out.per_message == (F(1, 4), F(1, 4))
    assert out.average == F(1, 4)
    assert out.tie_mass == 0
    assert out.mode == "exact"


def test_exact_typewriter_one_sided(typewriter_pair):
    code = zr.Codebook(((0,), (1,)), 3)
    out = zr.exact_error_probabilities(typewriter_pair, code)
    assert out.per_message == (F(1, 10), F(0))
    assert out.average == F(1, 20)


def test_exact_repetition_tie_policies(bsc_pair):
    code = zr.Codebook(((0, 0), (1, 1)), 2)
    equi = zr.exact_error_probabilities(bsc_pair, code, tie_policy="equiprobable")
    hard = zr.exact_error_probabilities(bsc_pair, code, tie_policy="as_error")
    genie = zr.exact_error_probabilities(bsc_pair, code, tie_policy="genie_correct")
    # both flips always lose; a single flip is a tie worth 6/16 of the mass
    assert equi.per_message == (F(1, 4), F(1, 4))
    assert hard.per_message == (F(7, 16), F(7, 16))
    assert genie.per_message == (F(1, 16), F(1, 16))
    assert equi.tie_mass == F(3, 8)
    assert hard.average == F(7, 16) and genie.average == F(1, 16)


def test_constant_metric_everything_ties(constant_metric_pair):
    code = zr.Codebook(((0,), (1,)), 2)
    out = zr.exact_error_probabilities(constant_metric_pair, code)
    assert out.per_message == (F(1, 2), F(1, 2))
    assert out.tie_mass == 1


def test_tie_policy_ordering_is_exact(rng):
    for _ in range(10):
        pair = random_full_support_pair(rng, nx=2, ny=3)
        n = int(rng.integers(1, 5))
        code = random_codebook(rng, n=n, m=2, nx=2)
        if code.words[0] == code.words[1]:
            continue
        outs = {
            pol: zr.exact_error_probabilities(pair, code, tie_policy=pol)
            for pol in ("as_error", "equiprobable", "genie_correct")
        }
        for m in range(2):
            assert outs["as_error"].per_message[m] >= outs["equiprobable"].per_message[m]
            assert outs["equiprobable"].per_message[m] >= outs["genie_correct"].per_message[m]
        spread = outs["as_error"].per_message[0] - outs["genie_correct"].per_message[0]
        assert spread == outs["as_error"].tie_mass


def test_exact_rejects_wrong_shape(bsc_pair):
    with pytest.raises(zr.PreconditionError):
        zr.exact_error_probabilities(bsc_pair, zr.Codebook(((0,), (1,), (0,)), 2))
    with pytest.raises(zr.ValidationError):
        zr.exact_error_probabilities(bsc_pair, zr.Codebook(((0, 0), (1, 1)), 2), tie_policy="nope")


@given(pairs_with_zeros(), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_exact_matches_brute_force_over_outputs(pair, n, data):
    word = st.lists(st.integers(0, pair.nx - 1), min_size=n, max_size=n).map(tuple)
    x1, x2 = data.draw(word), data.draw(word)
    for policy in zr.decoder.TIE_POLICIES:
        out = zr.exact_error_probabilities(pair, (x1, x2), tie_policy=policy)
        per_message, tie_mass = brute_force_decoding(pair, x1, x2, policy)
        assert out.per_message == per_message
        assert out.tie_mass == tie_mass
        assert out.average == (per_message[0] + per_message[1]) / 2


def test_equal_metric_counts_mean_equal_products():
    W = ((F(1, 3), F(1, 3), F(1, 3), F(0)), (F(1, 4),) * 4)
    q = ((F(2, 3), F(4, 9), F(6), F(0)), (F(1, 6), F(3, 4), F(1), F(2, 3)))
    pair = zr.pair_from_rows(W, q)
    vec = _metric_counts(pair)
    assert vec.shape == (2, 4, 6)
    assert not vec[0, 3].any()
    assert (vec[0, 0] == vec[1, 3]).all()
    entries = [(x, y) for x in range(2) for y in range(4) if q[x][y] > 0]
    products = []
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(entries, size):
            value = math.prod((q[x][y] for x, y in combo), start=F(1))
            products.append((value, tuple(sum(vec[x, y] for x, y in combo))))
    dependent = 0
    for (v1, e1), (v2, e2) in itertools.combinations(products, 2):
        if e1 == e2:
            assert v1 == v2
        dependent += v1 == v2 and e1 != e2
    assert dependent > 10   # (2/3)^2 = 4/9, 6 * 1/6 = 1, ...: left to the fallback


def test_monte_carlo_ties_dependent_products_through_the_fallback():
    # word 1 scores (2/3)^2 and word 2 scores 4/9 * 1 on every output
    W = ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 2)))
    q = ((F(2, 3),) * 2, (F(4, 9),) * 2, (F(1),) * 2)
    pair = zr.pair_from_rows(W, q)
    code = ((0, 0), (1, 2))
    hard = zr.monte_carlo_error(pair, code, trials=500, seed=4, tie_policy="as_error")
    genie = zr.monte_carlo_error(pair, code, trials=500, seed=4, tie_policy="genie_correct")
    assert hard.average == 1.0 and hard.tie_mass == 1.0
    assert genie.average == 0.0


def test_monte_carlo_near_tie_with_unequal_vectors_falls_back_to_exact():
    rows = ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))
    bump = 1 + F(1, 10**9)
    q = (rows[0], tuple(v * bump for v in rows[0]))
    pair = zr.pair_from_rows(rows, q)
    # word 1 always scores higher, by a factor well inside the float margin
    out = zr.monte_carlo_error(pair, ((0,), (1,)), trials=2000, seed=3)
    assert out.per_message == (1.0, 0.0)
    assert out.tie_mass == 0


def test_all_zero_metric_ties_every_output():
    # Admissible pairs never zero the sent word's metric, so this pins the
    # exact decoder's tie rule on a pair the validator would reject.
    rows = ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))
    pair = SimpleNamespace(nx=2, ny=2, W=rows, q=((F(0), F(0)), (F(0), F(0))))
    exact = zr.exact_error_probabilities(pair, ((0, 1), (1, 0)))
    assert exact.per_message == (F(1, 2), F(1, 2))
    assert exact.tie_mass == 1


def test_exact_budget_overflow_raises(bsc_pair):
    big = zr.Codebook(((0,) * 64, (1,) * 64), 2)
    with pytest.raises(zr.BudgetExceededError):
        zr.exact_error_probabilities(bsc_pair, big, budget=10)


def test_monte_carlo_is_bit_for_bit_deterministic(bsc_pair):
    code = zr.Codebook(((0, 0, 1), (1, 1, 0)), 2)
    a = zr.monte_carlo_error(bsc_pair, code, trials=30000, seed=11)
    b = zr.monte_carlo_error(bsc_pair, code, trials=30000, seed=11)
    assert a == b
    c = zr.monte_carlo_error(bsc_pair, code, trials=30000, seed=12)
    assert c.average != a.average
    assert a.mode == "monte_carlo" and a.trials == 30000 and a.seed == 11


def test_monte_carlo_interval_covers_exact(bsc_pair):
    code = zr.Codebook(((0, 0), (1, 1)), 2)
    exact = zr.exact_error_probabilities(bsc_pair, code).average
    out = zr.monte_carlo_error(bsc_pair, code, trials=60000, seed=5)
    lo, hi = out.confidence_interval
    assert lo <= float(exact) <= hi
    assert abs(out.average - float(exact)) < 0.01


def test_monte_carlo_tie_policies_on_constant_metric(constant_metric_pair):
    code = zr.Codebook(((0, 1), (1, 0)), 2)
    hard = zr.monte_carlo_error(constant_metric_pair, code, trials=2000, seed=2,
                                tie_policy="as_error")
    genie = zr.monte_carlo_error(constant_metric_pair, code, trials=2000, seed=2,
                                 tie_policy="genie_correct")
    equi = zr.monte_carlo_error(constant_metric_pair, code, trials=2000, seed=2)
    assert hard.average == 1.0
    assert genie.average == 0.0
    assert 0.45 < equi.average < 0.55
    assert hard.tie_mass == 1.0


def test_tilted_bound_is_sound_and_guarded(bsc_pair):
    x1, x2 = (0, 0, 1), (1, 1, 0)
    rep = zr.tilted_error_lower_bound(bsc_pair, x1, x2, 0.6)
    assert rep.mu_prime < 0
    assert not rep.trivial
    exact = zr.exact_error_probabilities(bsc_pair, zr.Codebook((x1, x2), 2))
    assert rep.value <= float(exact.per_message[0])
    # left of the peak the slope is positive and the premise fails
    with pytest.raises(zr.PreconditionError):
        zr.tilted_error_lower_bound(bsc_pair, x1, x2, 0.3)


def test_sup_bound_fields(bsc_pair):
    x1, x2 = (0, 0, 1), (1, 1, 0)
    rep = zr.sup_error_lower_bound(bsc_pair, x1, x2)
    assert rep.s == pytest.approx(0.5, abs=1e-6)
    assert rep.mu == pytest.approx(3 * 0.1438410362258904, abs=1e-9)
    assert rep.delta_n == pytest.approx(zr.type_counting_slack(bsc_pair, 3), abs=1e-12)
    assert rep.value == pytest.approx(math.exp(-rep.mu - rep.delta_n), abs=1e-300)
    exact = zr.exact_error_probabilities(bsc_pair, zr.Codebook((x1, x2), 2))
    assert rep.value <= float(exact.per_message[0])


def test_sup_bound_degenerates_on_disjoint_support(identity_pair):
    rep = zr.sup_error_lower_bound(identity_pair, (0, 0), (1, 1))
    assert rep.trivial
    assert rep.value == 0.0


def test_type_counting_slack_monotone(bsc_pair):
    values = [zr.type_counting_slack(bsc_pair, n) for n in (2, 8, 32)]
    assert values[0] < values[1] < values[2]
    # closed form: |X|^2 |Y| (1 + 2 log(n+1) + log(1/w_min))
    n = 8
    expect = 4 * 2 * (1.0 + 2.0 * math.log(n + 1) + math.log(4))
    assert values[1] == pytest.approx(expect, abs=1e-12)


def test_conditional_types_partition_probability(bsc_pair):
    x1, x2 = (0, 0, 1), (1, 1, 0)
    total = F(0)
    count = 0
    for V in zr.conditional_types(x1, x2, 2):
        p, bound = zr.type_class_probability(bsc_pair, x1, x2, V)
        assert p >= 0
        assert float(p) >= bound * (1 - 1e-9)
        total += p
        count += 1
    # cell sizes are 2 and 1 over a binary output: 3 * 2 classes
    assert count == 6
    assert total == 1


def test_type_class_probability_exact_value(bsc_pair):
    x1, x2 = (0, 0, 1), (1, 1, 0)
    V = {(0, 1): (F(1, 2), F(1, 2)), (1, 0): (F(1), F(0))}
    p, bound = zr.type_class_probability(bsc_pair, x1, x2, V)
    assert p == F(3, 32)
    assert 0 < bound <= float(p)
    counts = {(0, 1): (1, 1), (1, 0): (1, 0)}
    p2, _ = zr.type_class_probability(bsc_pair, x1, x2, counts)
    assert p2 == p


def test_type_class_probability_rejects_bad_mass(bsc_pair):
    x1, x2 = (0, 0, 1), (1, 1, 0)
    with pytest.raises(zr.ValidationError):
        zr.type_class_probability(bsc_pair, x1, x2, {(0, 0): (1, 0), (0, 1): (1, 1), (1, 0): (1, 0)})
    with pytest.raises(zr.ValidationError):
        zr.type_class_probability(bsc_pair, x1, x2, {(0, 1): (F(1, 3), F(2, 3)), (1, 0): (F(1), F(0))})


def test_quantize_to_type_properties():
    n = 10
    q = zr.quantize_to_type((0.3, 0.7), n)
    assert q == (F(3, 10), F(7, 10))
    q = zr.quantize_to_type((F(1, 3), F(1, 3), F(1, 3)), 4)
    assert q == (F(1, 2), F(1, 4), F(1, 4))
    q = zr.quantize_to_type((0.0, 0.25, 0.75), 4)
    assert q == (F(0), F(1, 4), F(3, 4))
    for dist in [(0.11, 0.29, 0.6), (0.5, 0.5), (0.2, 0.0, 0.8)]:
        for n in (3, 7, 16):
            q = zr.quantize_to_type(dist, n)
            assert sum(q) == 1
            assert all(v.denominator <= n for v in q)
            total = sum(dist)
            for p, v in zip(dist, q):
                assert abs(p / total - v) <= F(1, n)
                if p == 0:
                    assert v == 0


def test_empirical_exponent_exact_route(bsc_pair):
    pts = zr.empirical_exponent(bsc_pair, 0, 1, (2, 4, 8))
    assert [pt.n for pt in pts] == [2, 4, 8]
    assert all(pt.mode == "exact" for pt in pts)
    assert pts[0].exponent == pytest.approx(math.log(4) / 2, abs=1e-12)
    assert pts[1].exponent == pytest.approx(0.46407449759140657, abs=1e-12)
    # per-letter rates sink toward the single-letter limit from above
    assert pts[0].exponent > pts[1].exponent > pts[2].exponent
    assert pts[2].exponent > 0.1438410362258904


def test_empirical_exponent_requires_distinct_letters(bsc_pair):
    with pytest.raises(zr.PreconditionError):
        zr.empirical_exponent(bsc_pair, 1, 1, (2,))


def test_empirical_exponent_monte_carlo_route(bsc_pair):
    pts = zr.empirical_exponent(bsc_pair, 0, 1, (4,), trials=20000, seed=9, budget=3)
    assert pts[0].mode == "monte_carlo"
    assert pts[0].exponent == pytest.approx(0.46407449759140657, abs=0.08)
