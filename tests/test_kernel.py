"""Exponential-tilt kernel: values, derivatives, shape, and limits.

The reference values here were computed independently (closed forms for
the two-letter symmetric channel, brute-force summation for short
sequences) before being frozen into the assertions.
"""

import csv
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import zerorate as zr

from conftest import random_admissible_pair, random_full_support_pair

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
    relaxed_cap = zr.relaxed_kernel(typewriter_pair).s_cap()
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


def test_full_domain_only_differs_at_zero(typewriter_pair):
    k = zr.PairKernel(typewriter_pair)
    # direction (1, 0): one channel output falls outside the metric overlap
    assert k.mu(1, 0, 0.0) == pytest.approx(-math.log(9 / 10), abs=1e-12)
    assert k.mu(1, 0, 0.0, sum_domain="full") == 0.0
    for s in (0.5, 1.5):
        assert k.mu(1, 0, s, sum_domain="full") == pytest.approx(k.mu(1, 0, s), abs=1e-12)


def test_relaxed_kernel_replaces_boundary_pairs_with_their_asymptotes(typewriter_pair):
    k = zr.PairKernel(typewriter_pair)
    rk = zr.relaxed_kernel(typewriter_pair)
    line = rk.line(0, 1)
    assert rk.is_boundary(0, 1)
    assert line.ratio == F(1, 9)
    assert line.tail_mass == F(1, 10)
    assert line.slope == pytest.approx(math.log(1 / 9), abs=1e-12)
    assert line.intercept == pytest.approx(math.log(10), abs=1e-12)
    for s in (0.0, 0.7, 2.0, 11.0):
        assert rk.mu(0, 1, s) == pytest.approx(line.intercept + line.slope * s, abs=1e-10)
        # the asymptote lies above the concave curve it supports
        assert rk.mu(0, 1, s) >= k.mu(0, 1, s) - 1e-9
    # off the boundary set nothing changes
    assert not rk.is_boundary(1, 2)
    for s in (0.0, 0.7, 2.0):
        assert rk.mu(1, 2, s) == pytest.approx(k.mu(1, 2, s), abs=1e-12)


def test_relaxed_boundary_sigma_is_constant(typewriter_pair):
    rk = zr.relaxed_kernel(typewriter_pair)
    res = rk.sup_sigma(0, 1)
    assert res.attained and res.s_star == 0.0
    for s in (0.0, 1.0, 5.0):
        assert rk.sigma(0, 1, s) == pytest.approx(res.value, abs=1e-10)
