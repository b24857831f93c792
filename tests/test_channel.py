"""Channel/metric pair construction, validation, and serialization."""

import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zerorate as zr
from zerorate import channel

from conftest import quantize_to_type, random_admissible_pair, random_full_support_pair
from test_zero_error_pins import seeded_pairs

F = Fraction


def test_round_trip_through_document(rng):
    for _ in range(25):
        pair = random_admissible_pair(rng, name="roundtrip")
        doc = zr.serialize_pair(pair)
        back = zr.parse_pair(doc)
        assert back.W == pair.W
        assert back.q == pair.q
        assert back.name == pair.name


def test_parse_accepts_json_text(rng):
    pair = random_full_support_pair(rng)
    text = json.dumps(zr.serialize_pair(pair))
    back = zr.parse_pair(text)
    assert back.W == pair.W and back.q == pair.q


def test_entries_are_exact_fractions(bsc_pair):
    assert all(isinstance(v, Fraction) for row in bsc_pair.W for v in row)
    assert all(isinstance(v, Fraction) for row in bsc_pair.q for v in row)
    assert sum(bsc_pair.W[0]) == 1


def test_rejects_negative_channel_entry():
    with pytest.raises(zr.ValidationError):
        zr.pair_from_rows(((F(5, 4), F(-1, 4)), (F(1, 4), F(3, 4))),
                          ((F(1), F(1)), (F(1), F(1))))


def test_rejects_row_not_summing_to_one():
    with pytest.raises(zr.ValidationError):
        zr.pair_from_rows(((F(1, 2), F(1, 4)), (F(1, 4), F(3, 4))),
                          ((F(1), F(1)), (F(1), F(1))))


def test_rejects_metric_zero_where_channel_positive():
    with pytest.raises(zr.ValidationError):
        zr.pair_from_rows(((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))),
                          ((F(1), F(0)), (F(1), F(1))))


def test_rejects_all_zero_metric_row():
    with pytest.raises(zr.ValidationError):
        zr.pair_from_rows(((F(1), F(0)), (F(0), F(1))),
                          ((F(0), F(0)), (F(1), F(1))))


def test_rejects_ragged_rows():
    with pytest.raises(zr.ValidationError):
        zr.pair_from_rows(((F(3, 4), F(1, 4)), (F(1),)),
                          ((F(1), F(1)), (F(1), F(1))))


def test_rejects_negative_metric_entry():
    with pytest.raises(zr.ValidationError):
        zr.pair_from_rows(((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))),
                          ((F(1), F(-1)), (F(1), F(1))))


def test_parse_reads_fraction_strings():
    doc = {
        "input_alphabet": ["a", "b"],
        "output_alphabet": ["0", "1"],
        "W": [["9/10", "1/10"], ["1/10", "9/10"]],
        "q": [["1", "2"], ["2", "1"]],
    }
    pair = zr.parse_pair(doc)
    assert pair.W[0][0] == F(9, 10)
    assert pair.q[0][1] == F(2)


def test_parse_rejects_missing_and_unknown_fields():
    with pytest.raises(zr.ValidationError):
        zr.parse_pair({"W": [["1"]], "q": [["1"]]})
    with pytest.raises(zr.ValidationError):
        zr.parse_pair({
            "input_alphabet": ["a"],
            "output_alphabet": ["0"],
            "W": [["1"]],
            "q": [["1"]],
            "surprise": 1,
        })


def test_support_sets_full_support(rng):
    pair = random_full_support_pair(rng, nx=3, ny=4)
    ss = zr.support_sets(pair)
    assert ss.disjoint_pairs == frozenset()
    assert all(y == frozenset(range(4)) for y in ss.y_hat.values())
    assert ss.w_min == min(v for row in pair.W for v in row if v > 0)


def test_support_sets_identity(identity_pair):
    ss = zr.support_sets(identity_pair)
    assert (0, 1) in ss.disjoint_pairs
    assert ss.y_hat[(0, 1)] == frozenset()
    assert ss.w_min == 1


def test_w_min_ignores_zeros(typewriter_pair):
    ss = zr.support_sets(typewriter_pair)
    assert ss.w_min == F(1, 10)


def test_direction_table_is_built_once_per_pair(monkeypatch, typewriter_pair, bsc_pair):
    """The zero-error checks, both exponent routes and the gap all read one
    table, built on first use and kept on the pair object."""
    built = Counter()
    build = channel._build_direction

    def counting(pair, a, b):
        built[id(pair)] += 1
        return build(pair, a, b)

    monkeypatch.setattr(channel, "_build_direction", counting)
    for pair in (typewriter_pair, bsc_pair):        # unbalanced, then balanced
        zr.zero_error_report(pair)
        zr.zero_rate_exponent(pair)
        zr.gap_bound(pair)
        assert built[id(pair)] == pair.nx ** 2
    # the table is no field: an equal copy builds its own and compares, hashes
    # and pickles like the pair it came from
    twin = dataclasses.replace(typewriter_pair)
    assert twin == typewriter_pair and hash(twin) == hash(typewriter_pair)
    zr.gap_bound(twin)
    assert built[id(twin)] == twin.nx ** 2
    assert pickle.loads(pickle.dumps(typewriter_pair)) == typewriter_pair


def test_pair_keeps_its_order_signs_and_raw_kernel(typewriter_pair):
    """``_orders`` and ``_as_kernel`` are built once and kept on the pair, while
    ``PairKernel(pair)`` builds a fresh kernel; neither table is pickled."""
    from zerorate.kernel import _as_kernel
    from zerorate.zero_error import _orders

    kernel = _as_kernel(typewriter_pair)
    assert _as_kernel(typewriter_pair) is kernel
    assert zr.PairKernel(typewriter_pair) is not kernel
    assert _orders(typewriter_pair) is _orders(typewriter_pair)
    assert {"_orders", "_kernel"} <= set(vars(typewriter_pair))
    twin = pickle.loads(pickle.dumps(typewriter_pair))
    assert twin == typewriter_pair
    assert not {"_orders", "_kernel"} & set(vars(twin))
    assert _as_kernel(twin) is not kernel


def test_input_distribution_validates():
    zr.InputDistribution((0.5, 0.5))
    with pytest.raises(zr.ValidationError):
        zr.InputDistribution((0.5, 0.6))
    with pytest.raises(zr.ValidationError):
        zr.InputDistribution((-0.1, 1.1))
    # the sum tolerance is a constant of the module, not an option
    assert [f.name for f in dataclasses.fields(zr.InputDistribution)] == ["probs"]
    assert zr.InputDistribution((0.5, 0.5 + 1e-13)).probs == (0.5, 0.5 + 1e-13)
    with pytest.raises(zr.ValidationError, match="outside tolerance"):
        zr.InputDistribution((0.5, 0.5 + 1e-11))


def test_dimensions_exposed(typewriter_pair):
    assert typewriter_pair.nx == 3
    assert typewriter_pair.ny == 3
    assert len(typewriter_pair.input_alphabet) == 3


def test_rejects_entries_that_are_not_exact():
    """A pair built directly checks every entry's type and names the first
    one that is not a ``Fraction`` or an ``int``; ``bool`` is no entry."""
    labels = dict(input_alphabet=("0", "1"), output_alphabet=("0", "1"))
    q = ((F(1), F(1)), (F(1), F(1)))
    for bad, name in ((0.5, "float"), (True, "bool"), ("1/2", "str")):
        with pytest.raises(zr.ValidationError) as err:
            zr.ChannelMetricPair(W=((F(1, 2), bad), (F(1), F(0))), q=q, **labels)
        assert str(err.value) == (f"W[0][1]: entry {bad!r} is a {name}, "
                                  "expected a Fraction or an int")
    with pytest.raises(zr.ValidationError, match=r"^q\[1\]\[0\]: entry 1\.0 is a float"):
        zr.ChannelMetricPair(W=((F(1), F(0)), (F(0), F(1))), q=((1, 1), (1.0, 1)), **labels)
    # ints are exact entries: a pair with int metric entries gives the
    # exponent of the same pair with Fraction entries
    W = ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))
    ints = zr.ChannelMetricPair(W=W, q=((2, 1), (1, 2)), **labels)
    fractions = zr.ChannelMetricPair(W=W, q=((F(2), F(1)), (F(1), F(2))), **labels)
    assert ints.directions == fractions.directions
    assert zr.zero_rate_exponent(ints).value == zr.zero_rate_exponent(fractions).value


def test_validation_messages():
    """The messages of the value checks, recorded before the checks read
    the pair's integer view."""
    cases = [
        (((F(5, 4), F(-1, 4)), (F(1, 4), F(3, 4))), ((F(1), F(1)), (F(1), F(1))),
         "W row 0 has a negative entry"),
        (((F(1, 2), F(1, 4)), (F(1, 4), F(3, 4))), ((F(1), F(1)), (F(1), F(1))),
         "W row 0 sums to 3/4, expected exactly 1"),
        (((F(1), F(0)), (F(1, 3), F(1, 7))), ((F(1), F(1)), (F(1), F(1))),
         "W row 1 sums to 10/21, expected exactly 1"),
        (((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))), ((F(1), F(1)), (F(1), F(-1, 3))),
         "q row 1 has a negative entry"),
        (((F(1), F(0)), (F(0), F(1))), ((F(0), F(0)), (F(1), F(1))),
         "q row 0 is identically zero"),
        (((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))), ((F(1), F(0)), (F(1), F(1))),
         "inadmissible pair: W[0][1] > 0 but q[0][1] == 0"),
    ]
    for W, q, message in cases:
        with pytest.raises(zr.ValidationError) as err:
            zr.pair_from_rows(W, q)
        assert str(err.value) == message


# Strings the plain-integer path must read as Fraction(str) does, or refuse
# with the same message: whitespace, signs, underscores, non-ASCII digits,
# zero and missing denominators, decimals and exponents.
ENTRY_TEXTS = ("1/2", " 3/4\t", "+7/08", "-5", "-0", "0/9", "1_0/3", "\u0661/\u0662",
               "1/0", "/3", "3/", "3/-4", "", "   ", "1.5", ".5", "5.", "1e3", "-2E-2",
               "1/2/3", "+-1", "1 /2", "12345678901234567890/98765432109876543210", "nan",
               "1e4300", "-2E-4300", "1e4301", ".5e-4301", "1_0e4_301", "1e+0_4301")
# The largest decimal exponent an entry may carry: Python's integer-string digit budget.
EXPONENT_BUDGET = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300


def test_a_huge_decimal_exponent_is_refused_at_once():
    """A pair entry ``"1e999999999"`` is refused, naming it, before ``Fraction(str)``
    builds ten to that power (more than two minutes): a fresh interpreter, given
    30 s, reports it.  ``"1e-400"`` still parses."""
    doc = zr.serialize_pair(zr.pair_from_rows([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    doc["q"][0][1] = "1e999999999"
    script = ("import sys\nimport zerorate as zr\n"
              "try:\n"
              f"    zr.parse_pair({json.dumps(doc)!r})\n"
              "except zr.ValidationError as exc:\n"
              "    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (f"q[0][1]: the entry '1e999999999' has a decimal exponent "
                                   f"beyond {EXPONENT_BUDGET}")
    assert channel._to_fraction("1e-400", "W[0][0]") == F(1, 10**400)


@pytest.mark.parametrize("document", [
    '{"W": ' + "9" * 5000 + "}",            # an integer past the digit budget (ValueError)
    "[" * 100_000 + "]" * 100_000,          # nesting past the recursion limit (RecursionError)
    b"{\xff}",                              # bytes that are not UTF-8 (UnicodeDecodeError)
], ids=["long-integer", "deep-nesting", "not-utf8"])
def test_every_json_failure_is_a_validation_error(document):
    with pytest.raises(zr.ValidationError, match="^document is not valid JSON: "):
        zr.parse_pair(document)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.sampled_from(ENTRY_TEXTS),
    st.from_regex(r"\s*[+-]?[0-9]{1,25}(/[0-9]{1,25})?\s*", fullmatch=True),
    st.text(alphabet="0123456789+-/_.eE \t\u0661\u0662", max_size=12),
))
def test_entry_strings_parse_as_the_fraction_parser_does(text):
    """Every string reads as ``Fraction(str)`` reads it, or is refused with its
    message, except a decimal literal whose exponent passes the digit budget,
    which is refused before ``Fraction(str)`` builds that power of ten."""
    try:
        expected = F(text.strip())
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is not None and "e" in text.lower():
        # Fraction accepted it, so what follows the last e is the exponent
        if abs(int(text.strip().lower().rsplit("e", 1)[1])) > EXPONENT_BUDGET:
            with pytest.raises(zr.ValidationError) as err:
                channel._to_fraction(text, "W[0][0]")
            assert str(err.value) == (f"W[0][0]: the entry {text!r} has a decimal exponent "
                                      f"beyond {EXPONENT_BUDGET}")
            return
    if expected is None:
        with pytest.raises(zr.ValidationError) as err:
            channel._to_fraction(text, "W[0][0]")
        assert str(err.value) == f"W[0][0]: cannot parse entry {text!r} as a rational"
    else:
        got = channel._to_fraction(text, "W[0][0]")
        assert type(got) is Fraction and got == expected


def reference_direction(pair, a, b):
    """The direction builder in ``Fraction`` arithmetic: ratios by division,
    their maximum by comparison, masses by summing the weights."""
    outputs, weights, ratios = [], [], []
    for y in range(pair.ny):
        if pair.W[a][y] > 0 and pair.q[b][y] > 0:
            outputs.append(y)
            weights.append(pair.W[a][y])
            ratios.append(pair.q[b][y] / pair.q[a][y])
    if not outputs:
        return channel._Direction(outputs=(), weights=(), ratios=(), affine=False,
                                  a_min=math.inf, tail_mass=F(0), y_hat_mass=F(0))
    r_max = max(ratios)
    return channel._Direction(
        outputs=tuple(outputs),
        weights=tuple(weights),
        ratios=tuple(ratios),
        affine=all(r == ratios[0] for r in ratios),
        a_min=1 / r_max,
        tail_mass=sum((w for w, r in zip(weights, ratios) if r == r_max), F(0)),
        y_hat_mass=sum(weights, F(0)),
    )


def assert_directions_match_reference(pair):
    for (a, b), d in pair.directions.items():
        ref = reference_direction(pair, a, b)
        assert d == ref, (a, b)
        assert [type(v) for v in (d.a_min, d.tail_mass, d.y_hat_mass)] == \
            [type(v) for v in (ref.a_min, ref.tail_mass, ref.y_hat_mass)]
        assert all(type(r) is Fraction for r in d.ratios)
        if not d.empty:
            tail = d.tail()
            assert tail.y_hat_mass == sum(tail.weights, F(0)) == d.tail_mass
            assert tail.affine and set(tail.ratios) == {max(ref.ratios)}


# Large, pairwise coprime denominators, so the rows' common denominators are large.
DENOMINATORS = (1, 7, 65_537, 999_983, 1_000_003, 998_244_353, 2_147_483_647)


@st.composite
def exact_pairs(draw):
    """Rows with zeros and large coprime denominators.  Metric entries are a
    row scale times values from a small shared pool, so ratios tie often,
    at the maximum too, and a one-value pool makes every direction affine."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.builds(F, st.integers(1, 10**6), st.sampled_from(DENOMINATORS))
    pool = draw(st.lists(entry, min_size=1, max_size=4))
    W, q = [], []
    for _ in range(nx):
        support = draw(st.lists(st.booleans(), min_size=ny, max_size=ny))
        support[draw(st.integers(0, ny - 1))] = True
        parts = [draw(entry) if s else F(0) for s in support]
        total = sum(parts)
        W.append([p / total for p in parts])
        scale = draw(st.integers(1, 3))
        q.append([scale * draw(st.sampled_from(pool)) if s or draw(st.booleans()) else F(0)
                  for s in support])
    return zr.pair_from_rows(W, q)


@settings(max_examples=300, deadline=None)
@given(exact_pairs())
def test_integer_builder_matches_the_fraction_builder(pair):
    assert_directions_match_reference(pair)


def test_integer_builder_matches_on_pinned_and_corpus_pairs(monkeypatch):
    """Every direction of the 312 pinned pairs and of the 54 benchmark
    exponent-corpus pairs equals the ``Fraction`` builder's."""
    for _, pair in seeded_pairs():
        assert_directions_match_reference(pair)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "inputs", raising=False)
    import workloads
    pool = workloads.exponent_pool()
    assert len(pool) == 54
    for item in pool:
        assert_directions_match_reference(zr.parse_pair(item.docs[0][2]))


def test_integer_view_reads_each_row_over_its_common_denominator():
    W = ((F(1, 6), F(1, 4), F(7, 12)), (F(0), F(1), F(0)))
    q = ((F(2), F(1, 3), F(1, 2)), (F(5, 7), F(5, 14), F(0)))
    pair = zr.pair_from_rows(W, q)
    w_rows, q_rows = channel.integer_view(pair)
    assert w_rows == channel.IntegerRows(nums=((2, 3, 7), (0, 1, 0)), dens=(12, 1))
    assert q_rows == channel.IntegerRows(nums=((12, 2, 3), (10, 5, 0)), dens=(6, 14))
    assert channel.integer_view(pair) is channel.integer_view(pair)


# -- the one integer check -----------------------------------------------------

_BSC = zr.pair_from_rows(((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))), ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))))
_BOOK = zr.Codebook(((0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 1, 0), (1, 0, 0, 0)), 2)

# (argument name, call of the value, a valid value, a value below range, its error class)
INTEGER_ARGUMENTS = {
    "Codebook-alphabet_size": ("alphabet size", lambda v: zr.Codebook(((0, 1), (1, 0)), v), 3, 0,
                               zr.ValidationError),
    "Codebook.subcode": ("subcode index", lambda v: _BOOK.subcode([0, v]), 2, -1, zr.ValidationError),
    "komlos_extract-t": ("t", lambda v: zr.komlos_extract(_BOOK, v, 2), 2, 0, zr.PreconditionError),
    "komlos_extract-target": ("target", lambda v: zr.komlos_extract(_BOOK, 2, v), 3, 1, zr.PreconditionError),
    "delta_closeness-m_hat": ("m_hat", lambda v: zr.delta_closeness(v, 2), 3, 1, zr.PreconditionError),
    "delta_closeness-t": ("t", lambda v: zr.delta_closeness(3, v), 2, 0, zr.PreconditionError),
    "komlos_asymmetry_bound": ("m_hat", lambda v: zr.komlos_asymmetry_bound(v, 0.25), 3, 1,
                               zr.PreconditionError),
    "joint_type": ("alphabet size", lambda v: zr.joint_type((0, 1, 1), (1, 1, 0), alphabet_size=v), 3, 0,
                   zr.ValidationError),
    "type_counting_slack": ("n", lambda v: zr.type_counting_slack(_BSC, v), 4, 0, zr.PreconditionError),
    "quantize_to_type": ("n", lambda v: quantize_to_type([0.5, 0.5], v), 3, 0, zr.PreconditionError),
    "monte_carlo_error-trials": ("trials", lambda v: zr.monte_carlo_error(_BSC, _BOOK, trials=v), 50, 0,
                                 zr.PreconditionError),
    "monte_carlo_error-seed": ("seed", lambda v: zr.monte_carlo_error(_BSC, _BOOK, trials=50, seed=v), 3, -1,
                               zr.ValidationError),
    "empirical_exponent-trials": ("trials", lambda v: zr.empirical_exponent(_BSC, 0, 1, (3,), trials=v, budget=2),
                                  50, 0, zr.PreconditionError),
    "empirical_exponent-seed": ("seed", lambda v: zr.empirical_exponent(_BSC, 0, 1, (3,), 50, seed=v, budget=2),
                                3, -1, zr.ValidationError),
    "empirical_exponent-n": ("blocklength", lambda v: zr.empirical_exponent(_BSC, 0, 1, (2, v)), 3, 0,
                             zr.PreconditionError),
    "geometric_s_grid": ("points", lambda v: zr.geometric_s_grid(4.0, v), 5, 1, zr.PreconditionError),
    "dmin_certificate-subcode": ("subcode index", lambda v: zr.dmin_certificate(_BSC, _BOOK, [0, v, 2], 2), 1, -1,
                                 zr.ValidationError),
    "dmin_certificate-t": ("t", lambda v: zr.dmin_certificate(_BSC, _BOOK, [0, 1, 2], v), 2, 0,
                           zr.PreconditionError),
}


def _plain(value):
    """A result as nested builtins, so ``repr`` compares values bit for bit and types too."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [_plain(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("case", sorted(INTEGER_ARGUMENTS))
@pytest.mark.parametrize("bad", [2.5, True, "3", np.float64(2.0)], ids=["float", "bool", "str", "np-float"])
def test_integer_arguments_reject_non_integers(case, bad):
    name, call, _, _, _ = INTEGER_ARGUMENTS[case]
    with pytest.raises(zr.ValidationError) as err:
        call(bad)
    assert str(err.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("case", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_below_range_keep_their_error_class(case):
    name, call, _, low, error = INTEGER_ARGUMENTS[case]
    with pytest.raises(error) as err:
        call(low)
    assert type(err.value) is error
    assert str(err.value) == f"{name} must be at least {low + 1}, got {low}"
    with pytest.raises(error):
        call(np.int64(low))


@pytest.mark.parametrize("case", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_read_numpy_integers_as_ints(case):
    _, call, good, _, _ = INTEGER_ARGUMENTS[case]
    want = _plain(call(good))
    assert repr(_plain(call(np.int64(good)))) == repr(want)
    assert repr(_plain(call(np.int32(good)))) == repr(want)


@pytest.mark.parametrize("call, name", [
    (lambda: zr.komlos_extract(_BOOK, 2.5, 2), "t"),
    (lambda: zr.komlos_extract(_BOOK, 2, 2.5), "target"),
    (lambda: zr.delta_closeness(3, 2.5), "t"),
    (lambda: zr.type_counting_slack(_BSC, 2.5), "n"),
    (lambda: zr.dmin_certificate(_BSC, _BOOK, [0, 1.7, 2], 2), "subcode index"),
    (lambda: _BOOK.subcode([0, 1.5]), "subcode index"),
    (lambda: zr.empirical_exponent(_BSC, 0, 1, (2,), trials=10.5), "trials"),
    (lambda: zr.joint_type((0, 1), (1, 1), alphabet_size=2.5), "alphabet size"),
    (lambda: zr.empirical_exponent(_BSC, 0, 1, (2.5,)), "blocklength"),
    (lambda: zr.monte_carlo_error(_BSC, _BOOK, trials=5.0), "trials"),
    (lambda: zr.monte_carlo_error(_BSC, _BOOK, trials=5, seed=1.5), "seed"),
    (lambda: quantize_to_type([0.5, 0.5], 2.5), "n"),
    (lambda: zr.geometric_s_grid(4.0, 4.5), "points"),
], ids=["komlos-t", "komlos-target", "delta-t", "slack-n", "certificate-subcode", "subcode",
        "empirical-trials", "joint-type", "empirical-n", "simulate-trials", "simulate-seed",
        "quantize-n", "grid-points"])
def test_integer_arguments_once_silent_or_bare_type_errors(call, name):
    """Calls that once ran on a truncated or fractional value, or died in a bare
    ``TypeError``, now raise :class:`ValidationError` naming the argument."""
    with pytest.raises(zr.ValidationError, match=f"^{name} must be an integer, got "):
        call()


def test_integer_upper_bounds_stay():
    with pytest.raises(zr.PreconditionError, match="target must be at most the number of codewords 4, got 5"):
        zr.komlos_extract(_BOOK, 2, 5)
    for call in (lambda: _BOOK.subcode([0, 4]), lambda: zr.dmin_certificate(_BSC, _BOOK, [0, 4], 2)):
        with pytest.raises(zr.ValidationError, match="subcode index 4 is not below the book size 4"):
            call()
    with pytest.raises(zr.ValidationError, match="a subcode needs at least two distinct indices"):
        zr.dmin_certificate(_BSC, _BOOK, [1, np.int64(1)], 2)


def test_log_of_a_rational_keeps_the_float_bits_and_survives_extremes():
    """``channel._log`` is ``math.log`` bit for bit wherever the rational is a
    normal float, and reads a rational that a float cannot hold (below the
    normal range, subnormal, or above the float range) from its integers."""
    rng = np.random.default_rng(2803)
    for _ in range(500):
        x = F(int(rng.integers(1, 10**9)), int(rng.integers(1, 10**9)))
        assert channel._log(x).hex() == math.log(x).hex()
    assert channel._log(7).hex() == math.log(7).hex()
    for exponent in (-400, -310, 400):
        x = F(10) ** exponent
        assert channel._log(x) == pytest.approx(exponent * math.log(10), rel=1e-15)
    assert channel._log(F(3, 10**400)) == pytest.approx(math.log(3) - 400 * math.log(10), rel=1e-15)
