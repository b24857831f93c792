"""Channel/metric pair construction, validation, and serialization."""

import dataclasses
import json
import pickle
from collections import Counter
from fractions import Fraction

import pytest

import zerorate as zr
from zerorate import channel

from conftest import random_admissible_pair, random_full_support_pair

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


def test_input_distribution_validates():
    zr.InputDistribution((0.5, 0.5))
    with pytest.raises(zr.ValidationError):
        zr.InputDistribution((0.5, 0.6))
    with pytest.raises(zr.ValidationError):
        zr.InputDistribution((-0.1, 1.1))


def test_dimensions_exposed(typewriter_pair):
    assert typewriter_pair.nx == 3
    assert typewriter_pair.ny == 3
    assert len(typewriter_pair.input_alphabet) == 3
