"""Decision procedures for zero-error behaviour of a channel/metric pair.

For an ordered input pair ``(a, b)`` two exact rational quantities decide
everything here:

* ``min_side``: the smallest ``q(a,y)/q(b,y)`` over outputs the channel
  can actually produce from ``a`` (``+inf`` when the metric row of ``b``
  vanishes on all of them, using the convention positive/0 = +inf);
* ``max_side``: the largest ``q(a,y)/q(b,y)`` over outputs producible
  from ``b`` (always finite, by admissibility).

The zero-error capacity of the pair under the product-metric decoder is
zero in the average sense iff ``min_side <= max_side`` for every ordered
pair; the maximal sense additionally requires every equality pair to
share an output both inputs can produce.  Pairs achieving equality form
the boundary set, and a pair of matrices is *balanced* when, on top of
the average condition, each boundary pair sees one constant metric ratio
across all relevant outputs.  All comparisons are exact.

Every check reads the exact direction table that the pair builds once
and shares with the kernels (``pair.directions``), through the order sign
of each ordered input pair, which the pair also keeps (:func:`_orders`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from fractions import Fraction
from typing import Optional, Union

from .channel import ChannelMetricPair, _kept, _letter_pair, _sign_of_power_product, integer_view
from .errors import PreconditionError

ExactRatio = Union[Fraction, float]


@dataclass(frozen=True)
class RatioWitness:
    """Evidence that a zero-error condition fails (or binds) at one pair."""

    kind: str  # "ordering_violation" or "equality_without_overlap"
    pair: tuple[int, int]
    min_ratio: ExactRatio
    max_ratio: ExactRatio
    overlap: Optional[bool] = None


@dataclass(frozen=True)
class BalanceViolation:
    """Two outputs of one boundary pair exhibiting different metric ratios."""

    pair: tuple[int, int]
    outputs: tuple[int, int]
    ratios: tuple[Fraction, Fraction]


def _sides(pair: ChannelMetricPair, a: int, b: int) -> tuple[ExactRatio, Fraction]:
    """``(min_side, max_side)`` of ``(a, b)`` read from the pair's direction
    table: the min side is ``A(a, b)`` and the max side is ``1 / A(b, a)``,
    or zero when ``b`` reaches no output that ``a``'s metric row covers."""
    dirs = pair.directions
    back = dirs[(b, a)]
    return dirs[(a, b)].a_min, Fraction(0) if back.empty else 1 / back.a_min


def _order(pair: ChannelMetricPair, a: int, b: int) -> int:
    """Sign of ``min_side - max_side`` for ``(a, b)``.  With both directions
    nonempty the sides compare as ``A(a, b) A(b, a)`` against one, by
    :func:`_sign_of_power_product`; an empty direction makes ``min_side``
    infinite or ``max_side`` zero, so the sign is then positive."""
    dirs = pair.directions
    fwd, back = dirs[(a, b)], dirs[(b, a)]
    if fwd.empty or back.empty:
        return 1
    return _sign_of_power_product((fwd.a_min, back.a_min), (1, 1))


def _orders(pair: ChannelMetricPair) -> dict[tuple[int, int], int]:
    """:func:`_order` of every ordered input pair, ``(a, a)`` included (0),
    built on first use and kept on the pair."""
    return _kept(pair, "_orders", lambda p: {ab: _order(p, *ab) for ab in p.directions})


def check_c0bar_zero(pair: ChannelMetricPair) -> tuple[bool, Optional[RatioWitness]]:
    """Average-sense zero-error capacity is zero iff no ordered pair violates
    ``min_side <= max_side``; on failure the first violating pair is returned."""
    orders = _orders(pair)
    for a, b in permutations(range(pair.nx), 2):
        if orders[(a, b)] > 0:
            return False, RatioWitness("ordering_violation", (a, b), *_sides(pair, a, b))
    return True, None


def check_c0_zero(pair: ChannelMetricPair) -> tuple[bool, Optional[RatioWitness]]:
    """Maximal-sense zero-error capacity is zero iff the average-sense
    condition holds and every equality pair shares a producible output."""
    ok, witness = check_c0bar_zero(pair)
    if not ok:
        return False, witness
    w_nums = integer_view(pair)[0].nums
    for a, b in boundary_set_B(pair):
        # an output of direction (a, b) that b can produce is one both can produce
        if not any(w_nums[b][y] > 0 for y in pair.directions[(a, b)].outputs):
            lo, hi = _sides(pair, a, b)
            return False, RatioWitness("equality_without_overlap", (a, b), lo, hi, overlap=False)
    return True, None


def boundary_set_B(pair: ChannelMetricPair) -> tuple[tuple[int, int], ...]:
    """Ordered off-diagonal pairs where ``min_side == max_side`` exactly.

    The set is symmetric: the two sides for ``(b, a)`` are the exact
    reciprocals of those for ``(a, b)``.  Diagonal pairs always satisfy
    the equality trivially (ratio one) and are omitted.
    """
    orders = _orders(pair)
    return tuple(ab for ab in permutations(range(pair.nx), 2) if orders[ab] == 0)


def boundary_ratio(pair: ChannelMetricPair, a: int, b: int) -> Fraction:
    """The common extremal ratio of a boundary pair (exact)."""
    a, b = _letter_pair(pair.nx, a, b)
    if _orders(pair)[(a, b)] != 0:
        raise PreconditionError(f"({a},{b}) is not a boundary pair")
    return _sides(pair, a, b)[1]


def is_balanced(pair: ChannelMetricPair) -> tuple[bool, Optional[BalanceViolation]]:
    """A pair is balanced when the average zero-error condition holds and on
    every boundary pair the metric ratio ``q(a,y)/q(b,y)`` is one constant
    across all overlap outputs that either input can produce: on a boundary
    pair, exactly when both directions are affine.  Only the first pair
    that fails is scanned output by output, for the witness."""
    ok, _ = check_c0bar_zero(pair)
    if not ok:
        return False, None
    dirs = pair.directions
    for a, b in boundary_set_B(pair):
        fwd, back = dirs[(a, b)], dirs[(b, a)]
        if fwd.affine and back.affine:
            continue
        # q(a,y)/q(b,y) on every output either input can produce
        ratio = {y: 1 / r for y, r in zip(fwd.outputs, fwd.ratios)}
        ratio.update(zip(back.outputs, back.ratios))
        relevant = sorted(ratio)
        first = ratio[relevant[0]]
        y = next(y for y in relevant if ratio[y] != first)
        return False, BalanceViolation(
            pair=(a, b), outputs=(relevant[0], y), ratios=(first, ratio[y])
        )
    return True, None


def is_strict_support_match(pair: ChannelMetricPair) -> bool:
    """True when the metric is positive exactly where the channel is."""
    W, q = integer_view(pair)
    return all(
        (w > 0) == (v > 0)
        for w_row, q_row in zip(W.nums, q.nums)
        for w, v in zip(w_row, q_row)
    )


@dataclass(frozen=True)
class ZeroErrorReport:
    c0bar_zero: bool
    c0_zero: bool
    balanced: bool
    boundary_pairs: tuple[tuple[int, int], ...]
    strict_support_match: bool
    witness: Optional[RatioWitness]
    balance_violation: Optional[BalanceViolation]


def zero_error_report(pair: ChannelMetricPair) -> ZeroErrorReport:
    """One-stop summary used by the command-line front end."""
    c0bar, w_bar = check_c0bar_zero(pair)
    c0, w_max = check_c0_zero(pair)
    balanced, violation = is_balanced(pair)
    return ZeroErrorReport(
        c0bar_zero=c0bar,
        c0_zero=c0,
        balanced=balanced,
        boundary_pairs=boundary_set_B(pair),
        strict_support_match=is_strict_support_match(pair),
        witness=w_bar if w_bar is not None else w_max,
        balance_violation=violation,
    )
