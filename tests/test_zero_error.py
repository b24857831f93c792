"""Decision procedures for degenerate confusability and ratio balance."""

import math
from fractions import Fraction

import pytest

import zerorate as zr

from conftest import extremal_ratios, random_admissible_pair, random_full_support_pair

F = Fraction


def test_typewriter_report(typewriter_pair):
    rep = zr.zero_error_report(typewriter_pair)
    assert rep.c0bar_zero is True
    assert rep.c0_zero is True
    assert rep.balanced is False
    assert rep.boundary_pairs == ((0, 1), (0, 2), (1, 0), (2, 0))
    assert rep.strict_support_match is False
    assert rep.witness is None
    v = rep.balance_violation
    assert v.pair == (0, 1)
    assert v.ratios == (F(18), F(1, 9))


def test_symmetric_binary_report(bsc_pair):
    rep = zr.zero_error_report(bsc_pair)
    assert rep.c0bar_zero and rep.c0_zero and rep.balanced
    assert rep.boundary_pairs == ()
    assert rep.strict_support_match is True
    assert rep.balance_violation is None
    assert zr.gap_bound(bsc_pair) == 0.0


def test_identity_channel_fails_ordering(identity_pair):
    rep = zr.zero_error_report(identity_pair)
    assert rep.c0bar_zero is False
    assert rep.c0_zero is False
    w = rep.witness
    assert w is not None
    assert w.min_ratio == math.inf
    assert w.max_ratio == F(0)


def test_boundary_ratio_on_typewriter(typewriter_pair):
    assert zr.boundary_ratio(typewriter_pair, 0, 1) == F(1, 9)
    assert zr.boundary_ratio(typewriter_pair, 1, 0) == F(9)
    with pytest.raises(zr.PreconditionError):
        zr.boundary_ratio(typewriter_pair, 1, 2)


def test_gap_bound_on_typewriter(typewriter_pair):
    assert zr.gap_bound(typewriter_pair) == pytest.approx(0.5 * math.log(10), abs=1e-9)


def test_extremal_ratios_match_kernel_route(rng):
    """The decision procedure and the kernel compute the same extreme ratio
    through different code paths; they must agree exactly."""
    for _ in range(40):
        pair = random_admissible_pair(rng)
        k = zr.PairKernel(pair)
        for a in range(pair.nx):
            for b in range(pair.nx):
                if a == b:
                    continue
                min_side, max_side = extremal_ratios(pair, a, b)
                assert min_side == k.direction(a, b).a_min
                assert isinstance(max_side, Fraction)


def test_witness_actually_violates(rng):
    """Whenever a check fails, its witness must reproduce the failure from
    raw extremal ratios."""
    seen_failures = 0
    for _ in range(200):
        pair = random_admissible_pair(rng)
        ok, witness = zr.check_c0bar_zero(pair)
        if ok:
            assert witness is None
            a_all, b_all = range(pair.nx), range(pair.nx)
            for a in a_all:
                for b in b_all:
                    if a != b:
                        mn, mx = extremal_ratios(pair, a, b)
                        assert mn <= mx
        else:
            seen_failures += 1
            a, b = witness.pair
            mn, mx = extremal_ratios(pair, a, b)
            assert mn > mx
            assert witness.min_ratio == mn
            assert witness.max_ratio == mx
    assert seen_failures > 0


def test_full_support_is_always_ordered_and_balanced(rng):
    for _ in range(30):
        pair = random_full_support_pair(rng)
        rep = zr.zero_error_report(pair)
        assert rep.c0bar_zero and rep.c0_zero
        assert rep.balanced
        assert rep.strict_support_match


def test_boundary_set_members_have_tight_ratios(rng, typewriter_pair):
    for pair in [typewriter_pair] + [random_admissible_pair(rng) for _ in range(30)]:
        boundary = set(zr.boundary_set_B(pair))
        for a in range(pair.nx):
            for b in range(pair.nx):
                if a == b:
                    continue
                mn, mx = extremal_ratios(pair, a, b)
                if (a, b) in boundary:
                    assert mn == mx
                elif mn <= mx:
                    assert mn != mx or zr.support_sets(pair).y_hat[(a, b)] == frozenset()


def test_strict_support_match_detects_extra_metric_mass(bsc_pair, typewriter_pair):
    assert zr.is_strict_support_match(bsc_pair)
    assert not zr.is_strict_support_match(typewriter_pair)


def test_balance_violation_lists_distinct_ratios(typewriter_pair):
    ok, violation = zr.is_balanced(typewriter_pair)
    assert not ok
    ratios = set(violation.ratios)
    assert len(ratios) > 1
    a, b = violation.pair
    for y, r in zip(violation.outputs, violation.ratios):
        assert typewriter_pair.q[a][y] == r * typewriter_pair.q[b][y]
