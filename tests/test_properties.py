"""Property-based checks for the exact-arithmetic layers."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import zerorate as zr

from conftest import extremal_ratios, quantize_to_type
from test_decoder import pairs_with_zeros

F = Fraction


positive_rational = st.fractions(min_value=F(1, 99), max_value=F(99), max_denominator=99)


@st.composite
def stochastic_row(draw, ny):
    weights = draw(st.lists(st.integers(1, 9), min_size=ny, max_size=ny))
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


@st.composite
def full_support_pairs(draw):
    nx = draw(st.integers(2, 3))
    ny = draw(st.integers(2, 3))
    W = tuple(draw(stochastic_row(ny)) for _ in range(nx))
    q = tuple(tuple(draw(positive_rational) for _ in range(ny)) for _ in range(nx))
    return zr.pair_from_rows(W, q)


@st.composite
def near_useless_pairs(draw):
    """Rows within 1e-6 of one common row: ``(1 - eps) base + eps noise``,
    each row with its own noise support.  The metric is the channel itself
    (ratios within about 1e-6 of each other) or a positive metric on the
    channel support, with or without extra mass off it.  The rows share
    the base outputs, so the ordering condition holds; the boundary set
    and balance vary."""
    eps = F(1, 10 ** 6)
    nx = draw(st.integers(2, 3))
    ny = draw(st.integers(2, 4))
    outputs = st.sets(st.integers(0, ny - 1), min_size=1)

    def row(support):
        weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
        out = [F(0)] * ny
        for y, w in zip(sorted(support), weights):
            out[y] = F(w, sum(weights))
        return out

    base = row(draw(outputs))
    W = [tuple((1 - eps) * u + eps * v for u, v in zip(base, row(draw(outputs))))
         for _ in range(nx)]
    if draw(st.booleans()):
        return zr.pair_from_rows(W, W)
    extra = st.one_of(st.just(F(0)), positive_rational)
    q = [tuple(draw(positive_rational if w > 0 else extra) for w in r) for r in W]
    return zr.pair_from_rows(W, q)


@st.composite
def codebooks(draw):
    nx = draw(st.integers(2, 3))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(2, 6))
    words = draw(
        st.lists(
            st.lists(st.integers(0, nx - 1), min_size=n, max_size=n).map(tuple),
            min_size=m, max_size=m,
        )
    )
    return zr.Codebook(tuple(words), nx)


@given(full_support_pairs())
@settings(max_examples=40, deadline=None)
def test_pair_document_round_trip(pair):
    back = zr.parse_pair(zr.serialize_pair(pair))
    assert back.W == pair.W and back.q == pair.q


@given(codebooks())
@settings(max_examples=40, deadline=None)
def test_codebook_text_round_trip(code):
    assert zr.parse_codebook(zr.serialize_codebook(code)).words == code.words


@given(codebooks())
@settings(max_examples=40, deadline=None)
def test_joint_type_transpose_and_mass(code):
    x1, x2 = code.words[0], code.words[1]
    t12 = zr.joint_type(x1, x2, code.alphabet_size)
    t21 = zr.joint_type(x2, x1, code.alphabet_size)
    total = F(0)
    for a in range(code.alphabet_size):
        for b in range(code.alphabet_size):
            assert t12[a][b] == t21[b][a]
            total += t12[a][b]
    assert total == 1


@given(codebooks())
@settings(max_examples=40, deadline=None)
def test_counting_identity_property(code):
    for a in range(code.alphabet_size):
        for b in range(code.alphabet_size):
            if a != b:
                lhs, rhs = zr.plotkin_identity(code, a, b)
                assert lhs == rhs


@given(
    st.lists(st.integers(0, 20), min_size=2, max_size=5).filter(lambda v: sum(v) > 0),
    st.integers(1, 40),
)
@settings(max_examples=80, deadline=None)
def test_quantize_to_type_property(weights, n):
    total = sum(weights)
    dist = [F(w, total) for w in weights]
    q = quantize_to_type(dist, n)
    assert sum(q) == 1
    for p, v in zip(dist, q):
        assert abs(p - v) <= F(1, n)
        if p == 0:
            assert v == 0
        assert (v * n).denominator == 1


@given(full_support_pairs(), st.floats(0.0, 8.0), st.floats(0.0, 8.0),
       st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_kernel_concavity_property(pair, s1, s2, lam):
    k = zr.PairKernel(pair)
    lo, hi = sorted((s1, s2))
    mid = lam * lo + (1 - lam) * hi
    for a in range(pair.nx):
        for b in range(pair.nx):
            chord = lam * k.mu(a, b, lo) + (1 - lam) * k.mu(a, b, hi)
            assert k.mu(a, b, mid) >= chord - 1e-9


@given(full_support_pairs(), st.integers(1, 3), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_tie_ordering_property(pair, n, word_bits):
    if pair.nx != 2:
        return
    bits = [(word_bits >> i) & 1 for i in range(2 * n)]
    x1, x2 = tuple(bits[:n]), tuple(bits[n:])
    if x1 == x2:
        return
    code = zr.Codebook((x1, x2), 2)
    hard = zr.exact_error_probabilities(pair, code, tie_policy="as_error")
    equi = zr.exact_error_probabilities(pair, code, tie_policy="equiprobable")
    genie = zr.exact_error_probabilities(pair, code, tie_policy="genie_correct")
    for m in (0, 1):
        assert hard.per_message[m] >= equi.per_message[m] >= genie.per_message[m]
    assert hard.average - genie.average == hard.tie_mass


@given(near_useless_pairs())
@settings(max_examples=40, deadline=None)
def test_near_useless_channels_decide_like_the_oracle(pair):
    sides = {(a, b): extremal_ratios(pair, a, b)
             for a in range(pair.nx) for b in range(pair.nx) if a != b}
    c0bar = all(lo <= hi for lo, hi in sides.values())
    boundary = tuple(ab for ab, (lo, hi) in sides.items() if lo == hi)
    c0 = c0bar and all(
        any(pair.W[a][y] > 0 and pair.W[b][y] > 0 for y in range(pair.ny)) for a, b in boundary)
    balanced = c0bar and all(
        len({pair.q[a][y] / pair.q[b][y] for y in range(pair.ny)
             if pair.q[a][y] > 0 and pair.q[b][y] > 0
             and (pair.W[a][y] > 0 or pair.W[b][y] > 0)}) == 1
        for a, b in boundary)
    rep = zr.zero_error_report(pair)
    assert (rep.c0bar_zero, rep.c0_zero, rep.boundary_pairs, rep.balanced) == (
        c0bar, c0, boundary, balanced)
    value = zr.zero_rate_exponent(pair).value    # the ordering condition holds
    assert math.isfinite(value) and value >= 0


@given(st.one_of(full_support_pairs(), near_useless_pairs()),
       st.one_of(st.just(1e300), st.floats(0.0, 1e300)))
@settings(max_examples=60, deadline=None)
def test_huge_tilts_give_finite_kernel_values(pair, s):
    k = zr.PairKernel(pair)
    assume(s <= k.s_limit)
    for a in range(pair.nx):
        for b in range(pair.nx):
            if not k.direction(a, b).empty:
                assert math.isfinite(k.mu(a, b, s))
                assert math.isfinite(k.mu_prime(a, b, s))


@given(st.one_of(full_support_pairs(), near_useless_pairs(), pairs_with_zeros()))
@settings(max_examples=150, deadline=None)
def test_kept_order_signs_decide_like_the_oracle(pair):
    """``check_c0bar_zero``, ``boundary_set_B``, ``is_balanced`` and
    ``boundary_ratio`` read the order signs the pair keeps; on pairs with
    and without zeros they agree with the extremal ratios of the matrices."""
    sides = {(a, b): extremal_ratios(pair, a, b)
             for a in range(pair.nx) for b in range(pair.nx) if a != b}
    violations = [ab for ab, (lo, hi) in sides.items() if lo > hi]
    boundary = tuple(ab for ab, (lo, hi) in sides.items() if lo == hi)
    ok, witness = zr.check_c0bar_zero(pair)
    assert ok == (not violations)
    if violations:
        assert witness.pair == violations[0]
        assert (witness.min_ratio, witness.max_ratio) == sides[violations[0]]
    assert zr.boundary_set_B(pair) == boundary
    for a in range(pair.nx):
        assert zr.boundary_ratio(pair, a, a) == 1
    for ab, (lo, hi) in sides.items():
        if ab in boundary:
            assert zr.boundary_ratio(pair, *ab) == hi
        else:
            with pytest.raises(zr.PreconditionError):
                zr.boundary_ratio(pair, *ab)

    def ratios(a, b):
        return {pair.q[a][y] / pair.q[b][y] for y in range(pair.ny)
                if pair.q[a][y] > 0 and pair.q[b][y] > 0
                and (pair.W[a][y] > 0 or pair.W[b][y] > 0)}

    uneven = [ab for ab in boundary if len(ratios(*ab)) > 1]
    balanced, violation = zr.is_balanced(pair)
    assert balanced == (not violations and not uneven)
    if violations or not uneven:
        assert violation is None
    else:
        assert violation.pair == uneven[0]
        assert set(violation.ratios) <= ratios(*uneven[0])
        assert violation.ratios[0] != violation.ratios[1]
