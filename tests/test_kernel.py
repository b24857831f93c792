"""Exponential-tilt kernel: values, derivatives, shape, and limits.

The reference values here were computed independently (closed forms for
the two-letter symmetric channel, brute-force summation for short
sequences) before being frozen into the assertions.
"""

import csv
import functools
import itertools
import math
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import zerorate as zr
from zerorate.kernel import _argmax_concave, _argmax_concave_rows, _tilted

from conftest import random_admissible_pair, random_full_support_pair, scalar_sup, tail_sign

F = Fraction


def brute_mu(pair, a, b, s):
    """Direct evaluation of the per-letter tilt value over the metric overlap."""
    total = 0.0
    for y in range(pair.ny):
        if pair.q[a][y] > 0 and pair.q[b][y] > 0 and pair.W[a][y] > 0:
            ratio = pair.q[b][y] / pair.q[a][y]
            total += float(pair.W[a][y]) * float(ratio) ** s
    return -math.log(total)


def finite_directions(pair, kernel):
    out = []
    for a in range(pair.nx):
        for b in range(pair.nx):
            if a != b and not kernel.empty_support(a, b):
                out.append((a, b))
    return out


def test_mu_oracle_two_letter_symmetric(bsc_pair):
    k = zr.PairKernel(bsc_pair)
    # -log(3/4 * (1/3)**0.5 + 1/4 * 3**0.5) = -log(sqrt(3)/2)
    assert k.mu(0, 1, 0.5) == pytest.approx(0.1438410362258904, abs=1e-12)
    assert k.mu(1, 0, 0.5) == pytest.approx(k.mu(0, 1, 0.5), abs=1e-12)
    assert k.mu(0, 1, 0.5) == pytest.approx(math.log(2) - 0.5 * math.log(3), abs=1e-12)


def test_mu_diagonal_is_exactly_zero(rng):
    for _ in range(10):
        pair = random_admissible_pair(rng)
        k = zr.PairKernel(pair)
        for a in range(pair.nx):
            for s in (0.0, 0.3, 1.7, 12.0):
                assert k.mu(a, a, s) == 0.0


def test_mu_matches_direct_summation(rng):
    for _ in range(10):
        pair = random_full_support_pair(rng)
        k = zr.PairKernel(pair)
        for a in range(pair.nx):
            for b in range(pair.nx):
                for s in (0.0, 0.5, 1.0, 2.5):
                    assert k.mu(a, b, s) == pytest.approx(brute_mu(pair, a, b, s), abs=1e-12)


def test_mu_prime_matches_finite_difference(rng):
    h = 1e-5
    checked = 0
    for _ in range(20):
        pair = random_admissible_pair(rng)
        k = zr.PairKernel(pair)
        for a, b in finite_directions(pair, k):
            for s in (0.1, 0.7, 1.9):
                fd = (k.mu(a, b, s + h) - k.mu(a, b, s - h)) / (2 * h)
                assert k.mu_prime(a, b, s) == pytest.approx(fd, abs=1e-6)
                checked += 1
    assert checked > 50


def test_mu_is_concave_on_chords(rng):
    for _ in range(15):
        pair = random_admissible_pair(rng)
        k = zr.PairKernel(pair)
        for a, b in finite_directions(pair, k):
            s1, s2 = sorted(rng.uniform(0.0, 6.0, size=2))
            lam = float(rng.uniform(0.0, 1.0))
            mid = lam * s1 + (1 - lam) * s2
            chord = lam * k.mu(a, b, s1) + (1 - lam) * k.mu(a, b, s2)
            assert k.mu(a, b, mid) >= chord - 1e-9


def test_mu_sequence_is_additive(rng):
    for _ in range(10):
        pair = random_full_support_pair(rng, nx=3, ny=3)
        k = zr.PairKernel(pair)
        n = 7
        x1 = rng.integers(0, 3, n).tolist()
        x2 = rng.integers(0, 3, n).tolist()
        for s in (0.0, 0.4, 1.3):
            per_letter = sum(k.mu(int(a), int(b), s) for a, b in zip(x1, x2))
            assert k.mu_sequence(x1, x2, s) == pytest.approx(per_letter, abs=1e-12)
            counts = zr.joint_counts(x1, x2)
            weighted = sum(c * k.mu(a, b, s) for (a, b), c in counts.items())
            assert k.mu_sequence(x1, x2, s) == pytest.approx(weighted, abs=1e-12)


def test_mu_sequence_matches_output_enumeration(rng):
    """The sequence value equals a brute-force sum over all output words."""
    pair = random_full_support_pair(rng, nx=2, ny=2)
    k = zr.PairKernel(pair)
    n = 4
    x1 = [0, 1, 0, 1]
    x2 = [1, 1, 0, 0]
    for s in (0.25, 1.0, 2.0):
        total = 0.0
        for ys in itertools.product(range(2), repeat=n):
            prob = 1.0
            score = 1.0
            for xi, xj, y in zip(x1, x2, ys):
                prob *= float(pair.W[xi][y])
                score *= (float(pair.q[xj][y]) / float(pair.q[xi][y])) ** s
            total += prob * score
        assert k.mu_sequence(x1, x2, s) == pytest.approx(-math.log(total), abs=1e-10)


def test_tilt_identity_links_value_slope_and_divergence(rng):
    """value - s * slope equals the divergence of the tilted row from the channel row."""
    for _ in range(10):
        pair = random_admissible_pair(rng)
        k = zr.PairKernel(pair)
        for a, b in finite_directions(pair, k):
            for s in (0.3, 1.1):
                tilted = k.tilted_distribution(a, b, s)
                assert tilted.sum() == pytest.approx(1.0, abs=1e-12)
                kl = sum(
                    float(p) * math.log(float(p) / float(pair.W[a][y]))
                    for y, p in enumerate(tilted)
                    if p > 0
                )
                lhs = k.mu(a, b, s) - s * k.mu_prime(a, b, s)
                assert lhs == pytest.approx(kl, abs=1e-9)


def test_limit_classification_follows_extreme_ratio(rng, typewriter_pair):
    k = zr.PairKernel(typewriter_pair)
    assert k.extreme_ratio(0, 1) == F(1, 9)
    assert k.classify_limit(0, 1) == ("minus_infinity", -math.inf)
    assert k.extreme_ratio(1, 0) == F(9)
    assert k.classify_limit(1, 0)[0] == "plus_infinity"
    # direction (1, 0): one channel output falls outside the metric overlap
    assert k.mu(1, 0, 0.0) == pytest.approx(-math.log(9 / 10), abs=1e-12)
    for _ in range(10):
        pair = random_admissible_pair(rng)
        kk = zr.PairKernel(pair)
        for a, b in finite_directions(pair, kk):
            ratio = kk.extreme_ratio(a, b)
            kind, _ = kk.classify_limit(a, b)
            limit_slope = kk.mu_prime_limit(a, b)
            if ratio < 1:
                assert kind == "minus_infinity"
                assert limit_slope < 0
            elif ratio > 1:
                assert kind == "plus_infinity"
                assert limit_slope > 0
            else:
                assert kind == "finite_limit"
                assert limit_slope == 0.0
            # concavity pins every slope at or above its limiting value
            assert kk.mu_prime(a, b, 50.0) >= limit_slope - 1e-9


def test_constant_ratio_direction_is_flat():
    row0 = (F(3, 4), F(1, 4))
    row1 = (F(1, 4), F(3, 4))
    flat = (F(1), F(2))
    pair = zr.pair_from_rows((row0, row1), (flat, flat))
    k = zr.PairKernel(pair)
    assert k.extreme_ratio(0, 1) == 1
    kind, limit = k.classify_limit(0, 1)
    assert kind == "finite_limit"
    assert limit == pytest.approx(0.0, abs=1e-15)
    for s in (0.0, 1.0, 33.0):
        assert k.mu(0, 1, s) == pytest.approx(0.0, abs=1e-12)


def test_disjoint_supports_make_the_direction_empty(identity_pair):
    k = zr.PairKernel(identity_pair)
    assert k.empty_support(0, 1)
    assert k.extreme_ratio(0, 1) == math.inf
    assert k.mu(0, 1, 0.5) == math.inf
    with pytest.raises(zr.InfiniteExponentError):
        k.sup_sigma(0, 1)


def test_sup_sigma_two_letter_symmetric(bsc_pair):
    k = zr.PairKernel(bsc_pair)
    res = k.sup_sigma(0, 1)
    assert res.attained
    assert res.s_star == pytest.approx(0.5, abs=1e-6)
    assert res.value == pytest.approx(2 * 0.1438410362258904, abs=1e-9)


def test_sup_sigma_unattained_at_boundary(typewriter_pair):
    k = zr.PairKernel(typewriter_pair)
    res = k.sup_sigma(0, 1)
    assert not res.attained
    assert res.s_star == math.inf
    # ceiling = -log(1/10) + -log(9/10), the two asymptote intercepts
    assert res.value == pytest.approx(math.log(10) + math.log(10 / 9), abs=1e-9)


def test_sup_sigma_finds_a_maximizer_beyond_two_to_the_twenty():
    """Metric ratios 1 + 1e-7 put the maximizer of the symmetric sum near
    s = log(9) / log(1 + 1e-7), about 2.2e7: the search must reach it
    rather than stop at a point where the slope is still positive."""
    W = ((F(9, 10), F(1, 10)), (F(1, 10), F(9, 10)))
    q = ((F(1), F(1)), (F(1), 1 + F(1, 10**7)))
    pair = zr.pair_from_rows(W, q)
    assert zr.is_balanced(pair)[0]
    k = zr.PairKernel(pair)
    res = k.sup_sigma(0, 1)
    assert res.attained
    assert res.s_star == pytest.approx(math.log(9) / math.log1p(1e-7), rel=1e-6)

    def slope(s):
        return k.mu_prime(0, 1, s) + k.mu_prime(1, 0, s)

    assert slope(0.999 * res.s_star) > 0 > slope(1.001 * res.s_star)
    assert k.s_cap() == res.s_star


def test_sup_result_holds_plain_floats(bsc_pair):
    res = zr.PairKernel(bsc_pair).sup_sigma(0, 1)
    assert type(res.value) is float
    assert type(res.s_star) is float


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_tilt_is_rejected(bsc_pair, s):
    k = zr.PairKernel(bsc_pair)
    with pytest.raises(zr.PreconditionError):
        k.mu(0, 1, s)
    with pytest.raises(zr.PreconditionError):
        k.mu_prime(0, 1, s)
    with pytest.raises(zr.PreconditionError):
        k.mu_sequence((0, 1), (1, 1), s)


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 10)])
def test_huge_tilts_are_finite_or_rejected(eps):
    rows = ((1 - eps, eps), (eps, 1 - eps))
    k = zr.PairKernel(zr.pair_from_rows(rows, rows))
    calls = {
        "mu": lambda s: k.mu(0, 1, s),
        "mu_prime": lambda s: k.mu_prime(0, 1, s),
        "mu_sequence": lambda s: k.mu_sequence((0, 1), (1, 0), s),
        "objective": lambda s: zr.objective(k, (0.5, 0.5), s),
        "maximize_over_Q": lambda s: zr.maximize_over_Q(k, s).value,
    }
    for name, call in calls.items():
        with pytest.raises(zr.PreconditionError, match=name):
            call(1e308)
    log_r = math.log((1 - eps) / eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {name: call(1e300) for name, call in calls.items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["mu"] == pytest.approx(-1e300 * log_r, rel=1e-12)
    assert values["mu_sequence"] == pytest.approx(2 * values["mu"], rel=1e-12)
    assert values["objective"] == pytest.approx(0.5 * values["mu"], rel=1e-12)
    # the matched BSC meets the zero-error condition: the best Q is a vertex
    assert values["maximize_over_Q"] == 0.0


def test_s_cap_needs_attained_sups(typewriter_pair, bsc_pair):
    with pytest.raises(zr.PreconditionError):
        zr.PairKernel(typewriter_pair).s_cap()
    cap = zr.PairKernel(bsc_pair).s_cap()
    assert cap == pytest.approx(0.5, abs=1e-6)
    relaxed_cap = zr.RelaxedKernel(typewriter_pair).s_cap()
    assert math.isfinite(relaxed_cap) and relaxed_cap >= 0.0


def test_grid_and_matrix_agree_with_pointwise(rng):
    pair = random_full_support_pair(rng, nx=3, ny=3)
    k = zr.PairKernel(pair)
    s_values = np.array([0.0, 0.2, 0.9, 3.0])
    grid = k.mu_grid(s_values)
    assert grid.shape == (4, 3, 3)
    for i, s in enumerate(s_values):
        mat = k.mu_matrix(float(s))
        for a in range(3):
            for b in range(3):
                assert grid[i, a, b] == pytest.approx(k.mu(a, b, float(s)), abs=1e-12)
                assert mat[a, b] == pytest.approx(k.mu(a, b, float(s)), abs=1e-12)


def tail_outputs(pair, a, b):
    """Overlap outputs reachable from ``a`` that attain the largest ratio."""
    outputs = [
        y for y in range(pair.ny) if pair.q[a][y] > 0 and pair.q[b][y] > 0 and pair.W[a][y] > 0
    ]
    r_max = max(pair.q[b][y] / pair.q[a][y] for y in outputs)
    return tuple(y for y in outputs if pair.q[b][y] / pair.q[a][y] == r_max)


def brute_tail_mu(pair, a, b, s):
    """Direct evaluation restricted to :func:`tail_outputs`."""
    total = 0.0
    for y in tail_outputs(pair, a, b):
        total += float(pair.W[a][y]) * float(pair.q[b][y] / pair.q[a][y]) ** s
    return -math.log(total)


def central_difference(f, s):
    h = 1e-6 * max(1.0, s)
    return (f(s + h) - f(s - h)) / (2 * h)


def check_against_brute_force(kernel, pair, s, oracle):
    """Grid values, symmetric slopes and one sequence sum of ``kernel`` at
    ``s`` against ``oracle(a, b, s)`` and its central differences."""
    nx = pair.nx
    grid = kernel.mu_grid([s])[0]
    sigma_prime = kernel.sigma_prime_matrix(s)
    expect = np.full((nx, nx), math.inf)
    slope = np.full((nx, nx), math.inf)
    for a in range(nx):
        for b in range(nx):
            if not kernel.empty_support(a, b):
                expect[a, b] = oracle(a, b, s)
                slope[a, b] = central_difference(lambda t: oracle(a, b, t), s)
    for a in range(nx):
        for b in range(nx):
            assert grid[a, b] == pytest.approx(expect[a, b], rel=1e-12, abs=1e-12)
            fd = slope[a, b] + slope[b, a]
            assert sigma_prime[a, b] == pytest.approx(fd, rel=1e-6, abs=1e-6)
    x1 = [0, 1] * 3 + list(range(nx))
    x2 = [1, 0] * 3 + list(range(nx))[::-1]
    total = sum(expect[u, v] for u, v in zip(x1, x2))
    assert kernel.mu_sequence(x1, x2, s) == pytest.approx(total, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s", [0.3, 1.7, 12.0])
def test_evaluations_match_brute_force_and_finite_differences(rng, s):
    for _ in range(10):
        pair = random_admissible_pair(rng)
        check_against_brute_force(
            zr.PairKernel(pair), pair, s, lambda a, b, t: brute_mu(pair, a, b, t)
        )


@pytest.mark.parametrize("s", [0.3, 1.7, 12.0])
def test_relaxed_rows_match_brute_force_on_their_tails(rng, typewriter_pair, s):
    pairs = [typewriter_pair] + [random_admissible_pair(rng, nx=3, ny=3) for _ in range(30)]
    relaxed = 0
    for pair in pairs:
        rk = zr.RelaxedKernel(pair)
        relaxed += len(rk.boundary)
        for a, b in rk.boundary:
            assert rk.direction(a, b).outputs == tail_outputs(pair, a, b)

        def oracle(a, b, t):
            tail = (a, b) in rk.boundary
            return brute_tail_mu(pair, a, b, t) if tail else brute_mu(pair, a, b, t)

        check_against_brute_force(rk, pair, s, oracle)
    assert relaxed > 4


def test_sequence_sup_dominates_grid(rng):
    pair = random_full_support_pair(rng, nx=3, ny=4)
    k = zr.PairKernel(pair)
    x1 = rng.integers(0, 3, 6).tolist()
    x2 = rng.integers(0, 3, 6).tolist()
    res = k.sequence_sup(x1, x2)
    again = k.sequence_sup(x1, x2)
    assert again == res
    for s in np.linspace(0.0, 8.0, 400):
        assert res.value >= k.mu_sequence(x1, x2, float(s)) - 1e-9
    if res.attained:
        assert k.mu_sequence(x1, x2, res.s_star) == pytest.approx(res.value, abs=1e-7)


def test_geometric_grid_shape():
    grid = zr.geometric_s_grid(4.0, 33)
    assert len(grid) == 33
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(4.0)
    assert np.all(np.diff(grid) > 0)


def test_mu_curve_csv_round_trip(tmp_path, bsc_pair):
    k = zr.PairKernel(bsc_pair)
    path = tmp_path / "curve.csv"
    s_values = [0.0, 0.25, 0.5, 1.0]
    rows_written = zr.write_mu_curve(k, str(path), s_values)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == rows_written
    for row in rows:
        a, b = int(row["a"]), int(row["b"])
        s = float(row["s"])
        assert float(row["mu"]) == pytest.approx(k.mu(a, b, s), abs=1e-15)
        assert float(row["mu_prime"]) == pytest.approx(k.mu_prime(a, b, s), abs=1e-15)


def test_relaxed_kernel_replaces_boundary_pairs_with_their_asymptotes(typewriter_pair):
    k = zr.PairKernel(typewriter_pair)
    rk = zr.RelaxedKernel(typewriter_pair)
    line = rk.direction(0, 1)
    assert (0, 1) in rk.boundary
    assert line.a_min == F(1, 9)
    assert line.tail_mass == F(1, 10)
    assert line.slope_limit == pytest.approx(math.log(1 / 9), abs=1e-12)
    assert line.intercept == pytest.approx(math.log(10), abs=1e-12)
    for s in (0.0, 0.7, 2.0, 11.0):
        assert rk.mu(0, 1, s) == pytest.approx(line.intercept + line.slope_limit * s, abs=1e-10)
        # the asymptote lies above the concave curve it supports
        assert rk.mu(0, 1, s) >= k.mu(0, 1, s) - 1e-9
    # off the boundary set nothing changes
    assert (1, 2) not in rk.boundary
    for s in (0.0, 0.7, 2.0):
        assert rk.mu(1, 2, s) == pytest.approx(k.mu(1, 2, s), abs=1e-12)


def test_relaxed_boundary_sigma_is_constant(typewriter_pair):
    rk = zr.RelaxedKernel(typewriter_pair)
    res = rk.sup_sigma(0, 1)
    assert res.attained and res.s_star == 0.0
    for s in (0.0, 1.0, 5.0):
        assert rk.sigma(0, 1, s) == pytest.approx(res.value, abs=1e-10)


def test_mu_sequence_overflow_below_the_limit_is_rejected(identity_pair):
    e = Fraction(1, 10)
    rows = ((1 - e, e), (e, 1 - e))
    pair = zr.pair_from_rows(rows, rows)
    k = zr.PairKernel(pair)
    x1, x2, s = (0,) * 10, (1,) * 10, 0.9 * k.s_limit
    assert math.isfinite(k.mu(0, 1, s))     # each term is finite, their sum is not
    with pytest.raises(zr.PreconditionError, match="mu_sequence.*tilt s = "):
        k.mu_sequence(x1, x2, s)
    with pytest.raises(zr.PreconditionError, match="mu_sequence.*tilt s = "):
        zr.tilted_error_lower_bound(pair, x1, x2, s)
    # a letter pair that is never confused still makes the sum infinite
    assert zr.PairKernel(identity_pair).mu_sequence((0, 0), (1, 0), 1.0) == math.inf


WORD_ENTRY_POINTS = {
    "sequence_sup": lambda pair, x1, x2: zr.PairKernel(pair).sequence_sup(x1, x2),
    "mu_sequence": lambda pair, x1, x2: zr.PairKernel(pair).mu_sequence(x1, x2, 0.5),
    "pair_distance": lambda pair, x1, x2: zr.pair_distance(pair, x1, x2),
    "sup_error_lower_bound": lambda pair, x1, x2: zr.sup_error_lower_bound(pair, x1, x2),
    "tilted_error_lower_bound": lambda pair, x1, x2: zr.tilted_error_lower_bound(pair, x1, x2, 2.0),
    "Codebook": lambda pair, x1, x2: zr.Codebook((x1, x2), 2).words,
    "exact_error_probabilities": lambda pair, x1, x2: zr.exact_error_probabilities(pair, (x1, x2)),
    "joint_type": lambda pair, x1, x2: zr.joint_type(x1, x2, 2),
}


@pytest.mark.parametrize("name", sorted(WORD_ENTRY_POINTS))
def test_word_symbols_must_be_integers(name, bsc_pair):
    """A symbol must pass ``operator.index``: numpy integers and bools give the
    result of the plain ints, and a float, a ``Fraction`` or a string raises
    ``ValidationError`` naming it, rather than a bare ``KeyError`` or a
    silently truncated word."""
    call = functools.partial(WORD_ENTRY_POINTS[name], bsc_pair)
    plain = call((1, 1, 0), (0, 0, 1))
    assert repr(call((np.int64(1), True, 0), (False, np.uint8(0), 1))) == repr(plain)
    for bad in (0.5, np.float64(1.0), Fraction(1), "1"):
        message = f"codeword 0 has the non-integer symbol {re.escape(repr(bad))}"
        with pytest.raises(zr.ValidationError, match=message):
            call((bad, 1, 0), (1, 0, 1))


def test_a_batched_supremum_equals_its_one_key_and_scalar_solves(bsc_pair):
    """``_sup_rows`` runs the interior keys of a batch through one row-wise
    doubling and bisection; a key's result must not depend on its company.
    On the far-maximizer pair the batch mixes a key whose slope is <= 0 at
    s = 0, keys with maximizers near 2.2e7 and beyond, an unattained
    ceiling and a smaller interior key; each equals its one-key batch, the
    key solved on its own (``scalar_sup``) and a direct ``_argmax_concave`` run."""
    W = ((F(9, 10), F(1, 10)), (F(1, 10), F(9, 10)))
    q = ((F(1), F(1)), (F(1), 1 + F(1, 10**7)))
    k = zr.PairKernel(zr.pair_from_rows(W, q))
    assert k._reps == [(0, 1), (1, 0)]
    keys = np.array([[1, 0], [1, 1], [0, 1], [3, 1], [1, 5], [2, 2], [7, 3]])
    mixed = k._sup_rows(keys)
    far = 0
    for r, row in enumerate(keys):
        key = tuple((rep, int(c)) for rep, c in zip(k._reps, row) if c)
        alone = k._sup_rows(row[None, :])
        scalar = scalar_sup(k, key)
        got = zr.SupResult(float(mixed[0][r]), float(mixed[1][r]), bool(mixed[2][r]))
        assert got == zr.SupResult(*(float(a[0]) for a in alone[:2]), bool(alone[2][0])) == scalar
        if tail_sign(k, key) < 0:
            at = k._weighted([ab for ab, _ in key], [c for _, c in key])
            s, attained = _argmax_concave(lambda s: at(s)[1])
            assert (scalar.s_star, scalar.attained) == (s, attained)
            far += s > 1e7
    assert mixed[0][0] == 0.0 and not mixed[2][2] and far >= 2

    # BSC: mu(0,1) and mu(1,0) are one curve, so these counts are one key.
    words = [((0,) * (a + b) + (1,) * (c + d), (0,) * a + (1,) * b + (0,) * c + (1,) * d)
             for a, b, c, d in ((15, 3, 4, 10), (14, 2, 5, 11))]
    bsc = zr.PairKernel(bsc_pair)
    rows = np.array([[a, b, c, d] for a, b, c, d in ((15, 3, 4, 10), (14, 2, 5, 11))]) @ bsc._merge
    assert rows.tolist() == [[7], [7]]
    s_star, value, attained = bsc._sup_rows(rows)
    for r, (x1, x2) in enumerate(words):
        assert zr.SupResult(float(s_star[r]), float(value[r]), bool(attained[r])) == \
            bsc.sequence_sup(x1, x2)


def _scalar_argmax_rows(LW, LR, w):
    """The scalar ``_argmax_concave`` on each row's own curve ``w[r, 0] @ mu``."""
    out = []
    for r in range(len(w)):
        def slope(s, r=r):
            return float(w[r, 0] @ _tilted(LW[r], LR[r], s)[1])
        out.append(_argmax_concave(slope))
    return out


def test_row_maximizer_takes_each_scalar_run():
    """``_argmax_concave_rows`` on seeded curves equals the scalar maximizer
    row by row, whatever rows share its batch: slopes <= 0 at s = 0,
    maximizers past 2**20, slopes positive until the float range runs out
    and slopes that turn NaN (both unattained) sit side by side."""
    rng = np.random.default_rng(1601)
    rows, k, ny = 240, 3, 4
    LW = np.log(rng.integers(1, 10, (rows, k, ny)) / 10.0)
    LW[rng.random((rows, k, ny)) < 0.2] = -math.inf
    LW[:, :, 0] = np.log(0.5)                         # every direction keeps one output
    scale = 10.0 ** rng.choice([-8.0, -3.0, 0.0, 1.5], (rows, 1, 1))
    LR = rng.normal(size=(rows, k, ny)) * scale
    LR[LW == -math.inf] = 0.0
    LR[:20] = -np.abs(LR[:20])                       # rising forever: the range runs out
    LR[20:30] = -1e10                                # s * log r overflows: NaN slopes
    LR[30:60, :, 0] = 1e-7 * np.abs(LR[30:60, :, 0]) + 1e-9   # far maximizers
    LR[30:60, :, 1:] = -np.abs(LR[30:60, :, 1:])
    w = rng.integers(1, 6, (rows, 1, k)).astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        s, attained = _argmax_concave_rows(LW, LR, w)
        expected = _scalar_argmax_rows(LW, LR, w)
        for r in rng.choice(rows, 12, replace=False):
            alone = _argmax_concave_rows(LW[r:r + 1], LR[r:r + 1], w[r:r + 1])
            assert (alone[0][0].hex(), alone[1][0]) == (s[r].hex(), attained[r])
    assert [(float(a).hex(), bool(b)) for a, b in zip(s, attained)] == \
        [(a.hex(), b) for a, b in expected]
    assert (s[attained] == 0).any() and (s[attained] > 2.0 ** 20).any()
    assert not attained[:30].any() and attained[30:].any()


def _s_cap_pair_loop(kernel):
    """The pair-by-pair ``s_cap``: ``sup_sigma`` on every ``a < b`` in order."""
    cap = 0.0
    for a in range(kernel.pair.nx):
        for b in range(a + 1, kernel.pair.nx):
            res = kernel.sup_sigma(a, b)
            if res.value == math.inf:
                raise zr.InfiniteExponentError(
                    f"sigma({a},{b}) diverges: zero-error condition fails for this pair")
            if not res.attained:
                raise zr.PreconditionError(
                    f"sigma({a},{b}) only approaches its ceiling in the limit; "
                    "use the relaxed kernel for a finite search interval")
            cap = max(cap, res.s_star)
    return cap


def _outcome(call):
    try:
        return call().hex()
    except (zr.InfiniteExponentError, zr.PreconditionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_batched_s_cap_equals_the_pair_loop(typewriter_pair, identity_pair):
    """``s_cap`` solves every symmetric sum in one batch; its cap, or its
    first error with the message, equals the ``sup_sigma`` loop's on
    seeded raw and relaxed kernels with two to seven inputs."""
    rng = np.random.default_rng(1602)
    # noiseless, with a metric that favours the sent letter: sigma(0,1) diverges
    divergent = zr.pair_from_rows(((F(1), F(0)), (F(0), F(1))), ((F(1), F(1, 2)), (F(1, 2), F(1))))
    pairs = [typewriter_pair, identity_pair, divergent]
    for nx in range(2, 8):
        pairs += [random_full_support_pair(rng, nx=nx) for _ in range(3)]
        pairs += [random_admissible_pair(rng, nx=nx) for _ in range(5)]
    seen = set()
    for pair in pairs:
        for make in (zr.PairKernel, zr.RelaxedKernel):
            got = _outcome(make(pair).s_cap)
            assert got == _outcome(lambda: _s_cap_pair_loop(make(pair)))
            seen.add(next((m for m in ("identically infinite", "diverges", "only approaches")
                           if m in got), "cap"))
    assert seen == {"cap", "identically infinite", "diverges", "only approaches"}
    assert _outcome(zr.PairKernel(typewriter_pair).s_cap) == (
        "PreconditionError: sigma(0,1) only approaches its ceiling in the limit; "
        "use the relaxed kernel for a finite search interval")
    assert _outcome(zr.PairKernel(identity_pair).s_cap) == (
        "InfiniteExponentError: sigma(0,1) is identically infinite: inputs share no usable output")


def _scalar_bisection_steps(lo, hi, keep_right):
    """Bisection steps ``_argmax_concave`` takes inside ``[lo, hi]`` on a
    slope that turns at ``hi`` and, inside, always keeps one half."""
    inside = []

    def slope(s):
        if lo < s < hi:
            inside.append(s)
            return 1.0 if keep_right else -1.0
        return 1.0 if s <= lo else -1.0

    _argmax_concave(slope)
    return len(inside)


def test_bisection_length_is_fixed_by_the_bracket():
    """On every bracket the uncapped doubling can leave, ``[0, 1]`` and
    ``[2**j, 2**(j+1)]`` up to the float range, the step count of
    ``_bisect_steps`` is the scalar loop's whichever halves it keeps."""
    brackets = [(0.0, 1.0)] + [(2.0 ** j, 2.0 ** (j + 1)) for j in range(1023)]
    for lo, hi in brackets:
        steps = zr.kernel._bisect_steps(lo, hi)
        assert steps == _scalar_bisection_steps(lo, hi, True) == \
            _scalar_bisection_steps(lo, hi, False), (lo, hi)
    assert zr.kernel._bisect_steps(0.0, 1.0) == 30 and zr.kernel._bisect_steps(2.0, 4.0) == 31
    assert zr.kernel._bisect_steps(2.0 ** 1022, 2.0 ** 1023) == 52


def test_a_one_row_group_takes_the_scalar_maximizer(monkeypatch):
    """A term-count group of one key is solved by the scalar maximizer;
    its result equals the same key's run through the row loop (a group of
    two equal keys; two equal one-term keys share one scalar solve) and
    the key solved on its own (``scalar_sup``), float for float."""
    rng = np.random.default_rng(1801)
    row_calls = []
    real_rows = zr.kernel._argmax_concave_rows
    monkeypatch.setattr(zr.kernel, "_argmax_concave_rows",
                        lambda *a: row_calls.append(len(a[2])) or real_rows(*a))
    solved = 0
    for nx in (2, 3, 4, 5):
        for _ in range(4):
            pair = random_full_support_pair(rng, nx=nx)
            for k in (zr.PairKernel(pair), zr.RelaxedKernel(pair)):
                for row in rng.integers(0, 5, (6, len(k._reps))):
                    key = tuple((rep, int(c)) for rep, c in zip(k._reps, row) if c)
                    if tail_sign(k, key) >= 0:
                        continue
                    row_calls.clear()
                    alone = k._sup_rows(row[None, :])
                    assert row_calls == []
                    twice = k._sup_rows(np.stack([row, row]))
                    assert row_calls == ([] if len(key) == 1 else [2])
                    scalar = scalar_sup(k, key)
                    got = [(float(s).hex(), float(v).hex(), bool(a)) for s, v, a in zip(*alone)]
                    assert got * 2 == [(float(s).hex(), float(v).hex(), bool(a))
                                       for s, v, a in zip(*twice)]
                    assert got == [(scalar.s_star.hex(), scalar.value.hex(), scalar.attained)]
                    solved += 1
    assert solved > 50


def _row_loop_sups(k, keys):
    """``_sup_rows`` as the row loop alone: every interior key stacked with the
    keys of its term count, however many, and handed to ``_argmax_concave_rows``."""
    out, interior = {}, []
    key_of = [tuple((rep, c) for rep, c in zip(k._reps, counts) if c) for counts in keys.tolist()]
    for r, key in enumerate(key_of):
        closed = k._closed_form(key, tail_sign(k, key))
        if closed is None:
            interior.append(r)
        else:
            out[r] = closed
    interior = np.array(interior, dtype=np.intp)
    terms = np.count_nonzero(keys[interior], axis=1)
    for t in sorted(set(terms.tolist())):
        group = interior[terms == t]
        cols = np.nonzero(keys[group])[1].reshape(len(group), t)
        LW, LR = k._LW_reps[cols], k._LR_reps[cols]
        w = np.take_along_axis(keys[group], cols, axis=1).astype(float)[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            s, ok = _argmax_concave_rows(LW, LR, w)
            v = (w @ _tilted(LW, LR, s[:, None, None])[0][:, :, None])[:, 0, 0]
        for r, s_r, v_r, ok_r in zip(group.tolist(), s.tolist(), v.tolist(), ok.tolist()):
            if ok_r and s_r == 0:
                v_r = k._at_zero(key_of[r]).value
            out[r] = zr.SupResult(s_r if ok_r else math.inf, v_r, ok_r)
    return [out[r] for r in range(len(keys))]


def test_one_term_rows_of_one_curve_share_one_solve():
    """The one-term interior rows of each curve ``c mu_k``, one or many, take one
    scalar solve of ``mu_k`` and the value ``c v``; every row of ``_sup_rows`` equals, by float
    hex, both the row loop on the stacked rows and its key solved on its own
    (``scalar_sup``).  Batches mix shared one-term rows (counts up to 10**6),
    multi-term rows, lone one-term rows and closed forms (zero rows among
    them), on seeded raw and relaxed kernels at nx 2-5, symmetric binary pairs
    whose two directions are one curve, and a curve that peaks at s = 0."""
    rng = np.random.default_rng(2202)
    peak = zr.pair_from_rows(((F(8, 10), F(1, 10), F(1, 10)), (F(1, 2), F(1, 2), F(0))),
                             ((F(3, 10), F(6, 10), F(1, 10)), (F(6, 10), F(3, 10), F(0))))
    pairs = [peak]
    for e in (F(1, 4), F(1, 10), F(2, 5)):
        rows = ((1 - e, e), (e, 1 - e))
        pairs += [zr.pair_from_rows(rows, rows), zr.pair_from_rows(rows, rows[::-1])]
    for nx in (2, 3, 4, 5):
        pairs += [random_full_support_pair(rng, nx=nx) for _ in range(3)]
    shared = at_zero = multi = closed = 0
    for pair in pairs:
        for k in (zr.PairKernel(pair), zr.RelaxedKernel(pair)):
            reps = len(k._reps)
            one = np.zeros((12, reps), dtype=np.int64)
            one[np.arange(12), rng.integers(0, reps, 12)] = rng.choice([1, 2, 7, 10**3, 10**6], 12)
            keys = np.vstack([one, rng.integers(0, 4, (8, reps)), np.zeros((1, reps), np.int64)])
            keys = keys[rng.permutation(len(keys))]
            s_star, value, attained = k._sup_rows(keys)
            got = [(float(s).hex(), float(v).hex(), bool(a)) for s, v, a in zip(s_star, value, attained)]
            loop = _row_loop_sups(k, keys)
            assert got == [(r.s_star.hex(), r.value.hex(), r.attained) for r in loop]
            curves = []     # the curve of each one-term interior row
            for r, counts in enumerate(keys.tolist()):
                key = tuple((rep, c) for rep, c in zip(k._reps, counts) if c)
                scalar = scalar_sup(k, key)
                assert got[r] == (scalar.s_star.hex(), scalar.value.hex(), scalar.attained)
                if tail_sign(k, key) >= 0:
                    closed += 1
                elif len(key) > 1:
                    multi += 1
                else:
                    curves.append((key[0][0], scalar.s_star == 0 and scalar.value > 0))
            for rep, zero in curves:
                if sum(rep == other for other, _ in curves) > 1:
                    shared, at_zero = shared + 1, at_zero + zero
    assert shared > 200 and at_zero > 5 and multi > 100 and closed > 50


def test_tail_signs_equal_the_exact_sign():
    """``_tail_signs`` reads each key's tail in floats; on seeded raw and
    relaxed kernels (empty curves read 1) it equals the exact sign of
    ``prod A_k ** c_k - 1`` for small and large counts."""
    rng = np.random.default_rng(1802)
    checked = 0
    for nx in range(2, 7):
        for make_pair in (random_full_support_pair, random_admissible_pair):
            pair = make_pair(rng, nx=nx)
            for k in (zr.PairKernel(pair), zr.RelaxedKernel(pair)):
                empty = np.array([k.direction(*rep).empty for rep in k._reps])
                keys = rng.integers(0, 4, (40, len(k._reps))) * rng.choice([1, 7, 1000], (40, 1))
                keys = np.vstack([keys, np.eye(len(k._reps), dtype=np.int64)])
                expected = [1 if (row[empty] > 0).any() else
                            zr.kernel._sign_of_power_product(k._a_min, row) for row in keys]
                assert k._tail_signs(keys) == expected
                checked += len(keys)
    assert checked > 1000


def test_exact_tail_ties_take_the_exact_route(monkeypatch):
    """Keys whose ``prod A_k ** c_k`` is exactly one, such as ``(4/9) (3/2)**2``
    or a ratio times its reciprocal, are decided by the exact integer
    comparison; keys far from a tie never raise an integer power."""
    third = F(1, 3)
    W = ((third,) * 3,) * 3
    q = ((F(4), F(4), F(4)), (F(9), F(9), F(9)), (F(6), F(6), F(6)))   # A(0,1) = 4/9, A(2,0) = 3/2
    k = zr.PairKernel(zr.pair_from_rows(W, q))
    col = {rep: i for i, rep in enumerate(k._reps)}
    assert k.extreme_ratio(0, 1) == F(4, 9) and k.extreme_ratio(2, 0) == F(3, 2)
    ties = np.zeros((4, len(k._reps)), dtype=np.int64)
    ties[0, [col[k._curve[(0, 1)]], col[k._curve[(2, 0)]]]] = (1, 2)
    ties[1, [col[k._curve[(0, 1)]], col[k._curve[(2, 0)]]]] = (3, 6)
    ties[2, [col[k._curve[(0, 1)]], col[k._curve[(1, 0)]]]] = (5, 5)
    ties[3, [col[k._curve[(1, 2)]], col[k._curve[(2, 1)]]]] = (2, 2)
    far = ties.copy()
    far[:, col[k._curve[(0, 1)]]] += 1
    exact = []
    real = zr.kernel._sign_of_power_product
    monkeypatch.setattr(zr.kernel, "_sign_of_power_product",
                        lambda v, e: exact.append(tuple(e)) or real(v, e))
    assert k._tail_signs(ties) == [0, 0, 0, 0]
    assert exact == [tuple(row) for row in ties]
    exact.clear()
    assert k._tail_signs(far) == [-1, -1, -1, -1] and exact == []


def test_long_word_tails_are_decided_fast():
    """Counts near a few million: the exact integer powers took seconds per
    key, the float tail sign takes none (both kernels of a seeded pair)."""
    rng = np.random.default_rng(1803)
    pair = random_full_support_pair(rng, nx=3, ny=3)
    for k in (zr.PairKernel(pair), zr.RelaxedKernel(pair)):
        keys = rng.integers(10 ** 6, 3 * 10 ** 6, (2, len(k._reps)))
        start = time.perf_counter()
        s_star, value, attained = k._sup_rows(keys)
        assert time.perf_counter() - start < 1.0
        assert np.isfinite(value).all()
