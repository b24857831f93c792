"""Two-codeword decoding: exact enumeration, sampling, and lower bounds."""

import hashlib
import itertools
import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zerorate as zr
from zerorate import decoder
from zerorate.decoder import _metric_table

from conftest import (
    conditional_types,
    exact_by_classes,
    metric_onehot,
    quantize_to_type,
    random_admissible_pair,
    random_codebook,
    random_full_support_pair,
    type_class_probability,
)

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


# Zero and the powers of 3/2 among METRIC_VALUES: every positive product is a
# power of 3/2, so unequal value counts tie often.
POWERS_OF_THREE_HALVES = tuple(v for v in METRIC_VALUES if v in (0, 1, F(2, 3), F(3, 2), F(4, 9), F(9, 4)))


def seeded_pair_with_zeros(rng, values):
    """A pair with nx, ny in {2, 3}, channel weights 0..2 per entry, and metric
    entries drawn from ``values``: zero at half the outputs a row's channel
    entry misses, a positive value elsewhere."""
    nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    W, q = [], []
    for _ in range(nx):
        w = rng.integers(0, 3, ny)
        if w.sum() == 0:
            w[rng.integers(ny)] = 1
        W.append(tuple(F(int(v), int(w.sum())) for v in w))
        q.append(tuple(F(0) if w[y] == 0 and rng.random() < 0.5 else values[int(rng.integers(1, len(values)))]
                       for y in range(ny)))
    return zr.pair_from_rows(W, q)


def test_exact_decoder_matches_the_class_enumeration():
    """Beyond the brute force's n <= 5: on eight seeded books at n = 6..9, each
    with a tie policy, the exact decoder's per-message errors and tie mass equal
    the sum over every conditional type (``exact_by_classes``), which weighs
    each class with its own multinomials and compares the metric products
    directly.  The pairs have zero metric entries, and every other one is
    built from the powers of 3/2, where unequal value counts tie."""
    classes, tied = 0, 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        pair = seeded_pair_with_zeros(rng, POWERS_OF_THREE_HALVES if seed % 2 else METRIC_VALUES)
        assert any(v == 0 for row in pair.q for v in row)
        n = 6 + seed % 4
        x1, x2 = (tuple(rng.integers(0, pair.nx, n).tolist()) for _ in range(2))
        policy = zr.decoder.TIE_POLICIES[seed % 3]
        out = zr.exact_error_probabilities(pair, (x1, x2), tie_policy=policy)
        per_message, tie_mass = exact_by_classes(pair, x1, x2, policy)
        assert out.per_message == per_message
        assert out.tie_mass == tie_mass
        classes += sum(1 for _ in conditional_types(x1, x2, pair.ny))
        tied += tie_mass > 0
    assert classes > 5000 and tied >= 4


def test_equal_metric_counts_mean_equal_products():
    W = ((F(1, 3), F(1, 3), F(1, 3), F(0)), (F(1, 4),) * 4)
    q = ((F(2, 3), F(4, 9), F(6), F(0)), (F(1, 6), F(3, 4), F(1), F(2, 3)))
    pair = zr.pair_from_rows(W, q)
    vec = metric_onehot(pair)
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


def test_metric_tables_are_kept_on_the_pair():
    """Both decoders read the metric table and the channel's integer rows
    that the pair object keeps; the table's arrays are read-only."""
    W = ((F(1, 3), F(1, 3), F(1, 3), F(0)), (F(1, 4),) * 4)
    q = ((F(2, 3), F(4, 9), F(6), F(0)), (F(1, 6), F(3, 4), F(1), F(2, 3)))
    pair = zr.pair_from_rows(W, q)
    table = _metric_table(pair)
    for array in (table.index, table.zero, table.logs):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 2
    assert table.values == (F(1, 6), F(4, 9), F(2, 3), F(3, 4), F(1), F(6))
    w_rows, _ = zr.channel.integer_view(pair)
    assert w_rows.dens == (3, 4) and w_rows.nums == ((1, 1, 1, 0), (1, 1, 1, 1))
    code = zr.Codebook(((0, 1, 0), (1, 0, 1)), 2)
    zr.exact_error_probabilities(pair, code)
    zr.monte_carlo_error(pair, code, trials=10, seed=1)
    assert _metric_table(pair) is table
    assert zr.channel.integer_view(pair)[0] is w_rows
    # a pickled pair carries its fields only and builds its own read-only table
    twin = pickle.loads(pickle.dumps(pair))
    assert twin == pair and "_metric_table" not in vars(twin)
    assert not _metric_table(twin).index.flags.writeable


@given(pairs_with_zeros())
@settings(max_examples=60, deadline=None)
def test_metric_table_matches_the_metric_entries(pair):
    table = _metric_table(pair)
    q = np.array(pair.q, dtype=object)
    assert (table.zero == (q == 0)).all()
    assert list(table.values) == sorted(set(q[q > 0]))
    for (x, y), v in np.ndenumerate(q):
        if v > 0:
            assert table.values[table.index[x, y]] == v
            assert table.logs[x, y] == zr.channel._log(v)
        else:
            assert table.index[x, y] == 0 and table.logs[x, y] == 0.0


def _underflow_pair():
    """A matched pair whose row 0 holds the metric entry 10**-400, far below the
    smallest float, next to a BSC(1/4) row."""
    tiny = F(1, 10**400)
    rows = ((1 - tiny, tiny), (F(1, 4), F(3, 4)))
    return zr.pair_from_rows(rows, rows)


UNDERFLOW_BOOK = ((0, 0, 1), (1, 1, 0))


def test_monte_carlo_scores_a_metric_entry_below_the_float_range():
    pair = _underflow_pair()
    assert np.isfinite(_metric_table(pair).logs).all()
    exact = zr.exact_error_probabilities(pair, UNDERFLOW_BOOK)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mc = zr.monte_carlo_error(pair, UNDERFLOW_BOOK, trials=20000, seed=0)
    lo, hi = mc.confidence_interval
    assert lo <= exact.average <= hi
    # each message is sent on at least 9000 of the 20000 trials, and a smaller
    # count only widens its 95% Wilson interval
    for p, e in zip(mc.per_message, exact.per_message):
        lo, hi = decoder._wilson(round(p * 9000), 9000)
        assert lo <= e <= hi


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


def _within_four_standard_errors(sampled, exact, trials):
    p = float(exact)
    return abs(sampled - p) <= 4 * math.sqrt(p * (1 - p) / trials)


def test_all_zero_metric_ties_every_output():
    # Admissible pairs never zero the sent word's metric, so this pins both
    # decoders' tie rule on a pair the validator would reject.
    rows = ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))
    pair = SimpleNamespace(nx=2, ny=2, W=rows, q=((F(0), F(0)), (F(0), F(0))))
    code = ((0, 1), (1, 0))
    exact = zr.exact_error_probabilities(pair, code)
    assert exact.per_message == (F(1, 2), F(1, 2))
    assert exact.tie_mass == 1
    table = _metric_table(pair)
    assert table.values == () and table.zero.all()
    assert table.index.shape == table.logs.shape == (2, 2)
    assert not table.index.any() and not table.logs.any()
    mc = zr.monte_carlo_error(pair, code, trials=4000, seed=0)
    assert mc.tie_mass == 1.0
    assert _within_four_standard_errors(mc.average, exact.average, 4000)


def test_a_metric_zero_at_both_words_ties_that_output():
    # Word (0, 1) scores 1/2 when y1 = 0 and 0 otherwise, word (1, 0) scores
    # 1/2 when y2 = 0: outputs (0, 0) tie at 1/2 and (1, 1) tie at zero, each
    # with probability 3/16 under either word.
    rows = ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))
    pair = SimpleNamespace(nx=2, ny=2, W=rows, q=((F(1), F(0)), (F(1, 2), F(1, 2))))
    code = ((0, 1), (1, 0))
    exact = zr.exact_error_probabilities(pair, code)
    assert exact.per_message == (F(1, 4), F(1, 4))
    assert exact.tie_mass == F(3, 8)
    mc = zr.monte_carlo_error(pair, code, trials=20000, seed=0)
    assert _within_four_standard_errors(mc.average, exact.average, 20000)
    assert _within_four_standard_errors(mc.tie_mass, exact.tie_mass, 20000)


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


def test_monte_carlo_rejects_a_negative_seed(bsc_pair):
    with pytest.raises(zr.ValidationError):
        zr.monte_carlo_error(bsc_pair, zr.Codebook(((0,), (1,)), 2), trials=10, seed=-1)
    # empirical_exponent rejects it up front, on its exact and its sampled route alike
    for budget in (1_000_000, 3):
        with pytest.raises(zr.ValidationError):
            zr.empirical_exponent(bsc_pair, 0, 1, (4,), seed=-1, budget=budget)


def test_empirical_exponent_rejects_no_trials_on_either_route(bsc_pair):
    # n = 4 fits the default budget, so the exact route would never read trials
    for budget in (1_000_000, 3):
        with pytest.raises(zr.PreconditionError, match="trials must be at least 1, got 0"):
            zr.empirical_exponent(bsc_pair, 0, 1, (4,), trials=0, budget=budget)


def test_decoders_name_the_first_symbol_outside_the_pair_alphabet(bsc_pair):
    cases = [
        (lambda: zr.monte_carlo_error(bsc_pair, ((0, 1), (1, 2), (3, 0)), trials=10),
         "codeword 1 contains symbol 2 outside [0, 2)"),
        (lambda: zr.monte_carlo_error(bsc_pair, zr.Codebook(((0, 2), (1, 0)), 3), trials=10),
         "codeword 0 contains symbol 2 outside [0, 2)"),
        (lambda: zr.exact_error_probabilities(bsc_pair, ((0, -1), (1, 0))),
         "codeword 0 contains symbol -1 outside [0, 2)"),
        (lambda: zr.monte_carlo_error(bsc_pair, ((0, 1), (0, 2**63)), trials=10),
         "codeword 1 contains symbol 9223372036854775808 outside [0, 2)"),
        (lambda: zr.exact_error_probabilities(bsc_pair, ((0, 1), (1,))),
         "codeword 1 has length 1, expected 2"),
    ]
    for call, message in cases:
        with pytest.raises(zr.ValidationError) as err:
            call()
        assert str(err.value) == message


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


# Monte Carlo outcomes recorded before scoring became blocked matrix
# products: (errors, tie events, digest of every reported float).  The
# typewriter pair has zero metric entries; the BSC book ties often.  1025
# trials cross a scoring block and 9000 a seed chunk.
MONTE_CARLO_PINS = {
    ("typewriter", "equiprobable", 1): (0, 0, '4635eaee11388030'),
    ("typewriter", "equiprobable", 1025): (194, 228, '169f7ea30a6416d4'),
    ("typewriter", "equiprobable", 9000): (1780, 2164, 'a014e733d5704302'),
    ("typewriter", "as_error", 1): (0, 0, '4635eaee11388030'),
    ("typewriter", "as_error", 1025): (292, 228, '9bcdd43b906429d7'),
    ("typewriter", "as_error", 9000): (2705, 2164, 'd6e6597635042e5c'),
    ("typewriter", "genie_correct", 1): (0, 0, '4635eaee11388030'),
    ("typewriter", "genie_correct", 1025): (90, 228, '92f1aa34fc8fd62e'),
    ("typewriter", "genie_correct", 9000): (713, 2164, 'f6e4c2a9ba22774d'),
    ("bsc", "equiprobable", 1): (1, 0, '90df5b57e0f41b5b'),
    ("bsc", "equiprobable", 1025): (287, 180, '56c9553366ebd660'),
    ("bsc", "equiprobable", 9000): (2694, 1553, 'd970501e767e49c8'),
    ("bsc", "as_error", 1): (1, 0, '90df5b57e0f41b5b'),
    ("bsc", "as_error", 1025): (353, 180, '4d1e15725d171dcd'),
    ("bsc", "as_error", 9000): (3191, 1553, 'e142526392bbcdf8'),
    ("bsc", "genie_correct", 1): (1, 0, '90df5b57e0f41b5b'),
    ("bsc", "genie_correct", 1025): (227, 180, '084bf463c94bed70'),
    ("bsc", "genie_correct", 9000): (2094, 1553, 'b9a3e400f88a3a1f'),
}

# Recorded before the Monte Carlo blocks reused buffers allocated once per
# call.  "ternary" is a full-support ny = 3 pair (two threshold comparisons
# per letter, no zero metric entries) that ties often; "leaders" has the
# metric values 4/9, 2/3 and 1, so unequal count vectors tie and the exact
# comparison of :func:`_leaders` runs; "generic" has nine distinct metric
# values and no block with a hard trial.  8193 trials end in a seed chunk
# of a single trial.
MONTE_CARLO_PINS.update({
    ("ternary", "equiprobable", 1025): (807, 519, '3eed2e8d56366e8c'),
    ("ternary", "as_error", 1025): (886, 519, '608c156f4d907d58'),
    ("leaders", "equiprobable", 1025): (952, 385, '53d73a02f5aca97d'),
    ("leaders", "genie_correct", 1025): (897, 385, '0adc95ab3c635e74'),
    ("bsc", "equiprobable", 8193): (2440, 1408, '62dafd84c25b92a0'),
    ("typewriter", "as_error", 8193): (2450, 1958, '10ce0f8ee52d629a'),
    ("generic", "equiprobable", 3072): (791, 0, '067e03d326a240cf'),
})

# Recorded before Monte Carlo scored blocks from their step indicators.
# "quinary" is a seeded admissible pair with five outputs (four threshold
# comparisons per position), one of them never sent, and five zero metric
# entries, three of them in output columns the channel reaches.
MONTE_CARLO_PINS.update({
    ("quinary", "equiprobable", 1025): (443, 33, 'a74b794bc4875373'),
    ("quinary", "genie_correct", 8193): (3457, 275, '794307604132ceae'),
})


def _monte_carlo_book(name, request):
    if name == "typewriter":
        return request.getfixturevalue("typewriter_pair"), random_codebook(
            np.random.default_rng(3), 4, 12, 3)
    if name == "ternary":
        W = [[F(1, 4)] * 3 for _ in range(3)]
        q = [[F(1, 5)] * 3 for _ in range(3)]
        for x in range(3):
            W[x][x], q[x][x] = F(1, 2), F(3, 5)
        return zr.pair_from_rows(W, q), random_codebook(np.random.default_rng(11), 6, 16, 3)
    if name == "generic":
        W = [[F(1, 5)] * 3 for _ in range(3)]
        for x in range(3):
            W[x][x] = F(3, 5)
        q = [[F(7, 10), F(1, 5), F(1, 10)], [F(2, 7), F(4, 7), F(1, 7)], [F(1, 6), F(1, 3), F(1, 2)]]
        return zr.pair_from_rows(W, q), random_codebook(np.random.default_rng(13), 16, 8, 3)
    if name == "quinary":
        pair = random_admissible_pair(np.random.default_rng(1), nx=3, ny=5)
        return pair, random_codebook(np.random.default_rng(101), 6, 8, 3)
    if name == "leaders":
        W = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]
        q = [[F(4, 9), F(1)], [F(2, 3), F(2, 3)]]
        return zr.pair_from_rows(W, q), random_codebook(np.random.default_rng(17), 8, 6, 2)
    return request.getfixturevalue("bsc_pair"), random_codebook(np.random.default_rng(7), 32, 64, 2)


@pytest.mark.parametrize("key", sorted(MONTE_CARLO_PINS), ids=lambda key: "-".join(map(str, key)))
def test_monte_carlo_outcomes_are_pinned(key, request):
    name, policy, trials = key
    pair, code = _monte_carlo_book(name, request)
    out = zr.monte_carlo_error(pair, code, trials, seed=5, tie_policy=policy)
    fields = (*out.per_message, out.average, out.tie_mass, *out.confidence_interval)
    digest = hashlib.sha256(",".join(float(v).hex() for v in fields).encode()).hexdigest()
    assert (round(out.average * trials), round(out.tie_mass * trials), digest[:16]) == \
        MONTE_CARLO_PINS[key]


def test_monte_carlo_on_a_single_output_channel():
    """With one output letter every trial sees the same metric products:
    here both words score 1/2, so every trial ties."""
    pair = zr.pair_from_rows(((F(1),), (F(1),)), ((F(1),), (F(1, 2),)))
    code = zr.Codebook(((0, 1), (1, 0)), 2)
    for trials in (1, 1025):
        out = zr.monte_carlo_error(pair, code, trials, seed=3, tie_policy="as_error")
        assert out.average == 1.0 and out.tie_mass == 1.0
        assert zr.monte_carlo_error(pair, code, trials, seed=3, tie_policy="genie_correct").average == 0.0


def test_monte_carlo_leaders_pin_compares_unequal_count_vectors(request, monkeypatch):
    """The "leaders" book settles some hard trials by the exact product
    comparison, not only by shared count vectors."""
    calls = []
    leaders = decoder._leaders
    monkeypatch.setattr(decoder, "_leaders", lambda *args: calls.append(1) or leaders(*args))
    pair, code = _monte_carlo_book("leaders", request)
    zr.monte_carlo_error(pair, code, 1025, seed=5)
    assert calls


def test_monte_carlo_reports_python_floats(request):
    pair, code = _monte_carlo_book("bsc", request)
    out = zr.monte_carlo_error(pair, code, 2000, seed=5)
    assert all(type(v) is float for v in out.per_message)


def test_monte_carlo_memory_is_bounded_by_the_block(request):
    pair, code = _monte_carlo_book("bsc", request)
    peaks = []
    for trials in (1000, 24000):
        tracemalloc.start()
        try:
            zr.monte_carlo_error(pair, code, trials, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


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
    for V in conditional_types(x1, x2, 2):
        p, bound = type_class_probability(bsc_pair, x1, x2, V)
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
    p, bound = type_class_probability(bsc_pair, x1, x2, V)
    assert p == F(3, 32)
    assert 0 < bound <= float(p)
    counts = {(0, 1): (1, 1), (1, 0): (1, 0)}
    p2, _ = type_class_probability(bsc_pair, x1, x2, counts)
    assert p2 == p


def test_type_class_probability_rejects_bad_mass(bsc_pair):
    x1, x2 = (0, 0, 1), (1, 1, 0)
    with pytest.raises(zr.ValidationError):
        type_class_probability(bsc_pair, x1, x2, {(0, 0): (1, 0), (0, 1): (1, 1), (1, 0): (1, 0)})
    with pytest.raises(zr.ValidationError):
        type_class_probability(bsc_pair, x1, x2, {(0, 1): (F(1, 3), F(2, 3)), (1, 0): (F(1), F(0))})


def test_quantize_to_type_properties():
    n = 10
    q = quantize_to_type((0.3, 0.7), n)
    assert q == (F(3, 10), F(7, 10))
    q = quantize_to_type((F(1, 3), F(1, 3), F(1, 3)), 4)
    assert q == (F(1, 2), F(1, 4), F(1, 4))
    q = quantize_to_type((0.0, 0.25, 0.75), 4)
    assert q == (F(0), F(1, 4), F(3, 4))
    for dist in [(0.11, 0.29, 0.6), (0.5, 0.5), (0.2, 0.0, 0.8)]:
        for n in (3, 7, 16):
            q = quantize_to_type(dist, n)
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
    # a^4 against b^4 on two outputs has 5 classes: the exact decoder's own
    # budget check decides, so a budget of exactly 5 stays exact
    assert zr.empirical_exponent(bsc_pair, 0, 1, (4,), budget=5)[0].mode == "exact"
    assert zr.empirical_exponent(bsc_pair, 0, 1, (4,), trials=100, budget=4)[0].mode == "monte_carlo"
