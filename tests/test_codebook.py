"""Codebooks: joint types, distances, the counting identity, subcode
extraction, and the minimum-distance certificate chain."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import zerorate as zr
from zerorate import cli, codebook

from conftest import (
    curve_key,
    random_admissible_pair,
    random_codebook,
    random_full_support_pair,
    scalar_sequence,
    scalar_sup,
    tail_sign,
)

F = Fraction


def test_codebook_validation():
    with pytest.raises(zr.ValidationError):
        zr.Codebook(((0, 1),), 2)              # fewer than two words
    with pytest.raises(zr.ValidationError):
        zr.Codebook(((0, 1), (0,)), 2)         # ragged
    with pytest.raises(zr.ValidationError):
        zr.Codebook(((0, 2), (0, 1)), 2)       # symbol out of range
    code = zr.Codebook(((0, 1), (1, 1)), 2)
    assert code.n == 2 and code.size == 2


@pytest.mark.parametrize("build, message", [
    (lambda: zr.Codebook(((0, 1, 0), (1, 0), (0, 0, 0)), 2), "codeword 1 has length 2, expected 3"),
    (lambda: zr.Codebook(((0, 1, 0), (1, 2, 0), (0, 3, 0)), 2),
     "codeword 1 contains symbol 2 outside [0, 2)"),
    (lambda: zr.Codebook(((0, 1, 0), (1, 0, -1)), 2), "codeword 1 contains symbol -1 outside [0, 2)"),
    (lambda: zr.Codebook(((0, 1), (0, 5), (1,)), 2), "codeword 1 contains symbol 5 outside [0, 2)"),
    (lambda: zr.Codebook(((0, 1), (0, 2**64)), 2), "codeword 1 contains symbol 18446744073709551616 "
     "outside [0, 2)"),
    (lambda: zr.Codebook(((), ()), 2), "codewords must be nonempty"),
    (lambda: zr.Codebook(((0, 1),), 2), "a codebook needs at least two codewords"),
    (lambda: zr.Codebook(((0,), (0,)), 0), "alphabet size must be positive"),
    (lambda: zr.Codebook(((0, 1), (1, 0)), 2.5), "alphabet size must be an integer, got 2.5"),
    (lambda: zr.Codebook(((0,), (0,)), True), "alphabet size must be an integer, got True"),
    (lambda: zr.parse_codebook("2 3 2\n0 1\n1 x\n0 y\n"), "codeword 1 contains a non-integer symbol"),
    (lambda: zr.parse_codebook("2 3 2\n0 1\n1 x\n0\n"), "codeword 1 contains a non-integer symbol"),
    (lambda: zr.parse_codebook("2 2 2\n0 1\n1 2\n"), "codeword 1 contains symbol 2 outside [0, 2)"),
], ids=["ragged", "at-alphabet-size", "negative", "range-before-ragged", "past-int64", "empty-word",
        "one-word", "alphabet", "alphabet-float", "alphabet-bool", "parse-token",
        "parse-token-before-ragged", "parse-range"])
def test_codebook_validation_messages(build, message):
    """Exact messages, naming the first offending word and symbol."""
    with pytest.raises(zr.ValidationError) as err:
        build()
    assert str(err.value) == message


def test_codebook_words_are_python_ints():
    code = zr.Codebook([np.array([0, 1]), [np.int64(1), 1]], 2)
    assert code.words == ((0, 1), (1, 1))
    assert type(code.words) is tuple
    assert all(type(w) is tuple and all(type(v) is int for v in w) for w in code.words)
    parsed = zr.parse_codebook("2 2 3\n0 2\n1 0\n")
    assert parsed.words == ((0, 2), (1, 0))
    assert all(type(w) is tuple and all(type(v) is int for v in w) for w in parsed.words)


def test_codebook_text_round_trip(rng):
    for _ in range(10):
        code = random_codebook(rng, n=6, m=4, nx=3)
        text = zr.serialize_codebook(code)
        back = zr.parse_codebook(text)
        assert back.words == code.words
        assert back.alphabet_size == code.alphabet_size


def test_parse_codebook_rejects_garbage():
    with pytest.raises(zr.ValidationError):
        zr.parse_codebook("not a codebook")
    with pytest.raises(zr.ValidationError):
        zr.parse_codebook("2 2 2\n0 1\n0 9\n")


def test_joint_type_is_exact():
    x1 = (0, 0, 1, 1)
    x2 = (0, 1, 0, 1)
    jt = zr.joint_type(x1, x2)
    assert jt[0][0] == F(1, 4) and jt[0][1] == F(1, 4)
    assert jt[1][0] == F(1, 4) and jt[1][1] == F(1, 4)
    assert sum(sum(row) for row in jt) == 1
    counts = zr.joint_counts(x1, x2)
    assert counts == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    # joint_type builds on joint_counts but keeps its own error type
    for bad in ((x1, x2[:3]), ((), ()), (x1, (0, 1, 0, 2), 2), (x1, (0, 1, 0, -1), 2)):
        with pytest.raises(zr.ValidationError):
            zr.joint_type(*bad)


def test_pair_distance_matches_sequence_sup(bsc_pair):
    k = zr.PairKernel(bsc_pair)
    x1 = (0, 0, 1, 0)
    x2 = (1, 0, 1, 1)
    d = zr.pair_distance(bsc_pair, x1, x2)
    res = k.sequence_sup(x1, x2)
    assert d == pytest.approx(res.value / len(x1), abs=1e-12)


def test_pair_distance_symmetry_and_repetition(rng):
    pair = random_full_support_pair(rng, nx=3, ny=3)
    x1 = tuple(int(v) for v in rng.integers(0, 3, 5))
    x2 = tuple(int(v) for v in rng.integers(0, 3, 5))
    d12 = zr.pair_distance(pair, x1, x2)
    d21 = zr.pair_distance(pair, x2, x1)
    assert d12 == pytest.approx(d21, abs=1e-8)
    # per-letter normalization is invariant under duplicating every letter
    d_rep = zr.pair_distance(pair, x1 + x1, x2 + x2)
    assert d_rep == pytest.approx(d12, abs=1e-9)


def test_pair_distance_of_equal_words_is_zero(bsc_pair):
    assert zr.pair_distance(bsc_pair, (0, 1, 0), (0, 1, 0)) == 0.0


def test_d_min_two_letter_fixture(bsc_pair):
    code = zr.Codebook(((0, 0), (0, 1), (1, 1)), 2)
    value, pair_idx = zr.d_min(bsc_pair, code)
    # closest pair differs in one of two coordinates; per-letter value is
    # half the single-letter peak
    assert value == pytest.approx(0.5 * 2 * 0.1438410362258904 / 2, abs=1e-9)
    assert pair_idx == (0, 1)
    mat = zr.distance_matrix(bsc_pair, code)
    assert mat.shape == (3, 3)
    assert mat[0, 1] == pytest.approx(value, abs=1e-12)
    assert np.all(np.diag(mat) == 0.0)
    assert mat[0, 2] >= mat[0, 1] - 1e-12


def test_d_min_counts_a_supremum_at_zero_tilt_as_exactly_zero():
    """On full-support pairs every sequence kernel starts at exactly 0 at
    s = 0, so a supremum attained there is 0 and no distance is negative;
    the first pair reaching it wins, not a rounding error."""
    rng = np.random.default_rng(5)
    random_full_support_pair(rng, nx=3, ny=2)
    random_codebook(rng, 12, 24, 3)
    pair = random_full_support_pair(rng, nx=3, ny=3)
    code = random_codebook(rng, 12, 24, 3)
    assert zr.d_min(pair, code) == (0.0, (0, 1))


def test_sequence_sups_of_equal_curves_are_bit_identical(bsc_pair):
    """On BSC mu(0,1) and mu(1,0) are the same curve, so letter-pair counts
    (n00, n01, n10, n11) with n01 + n10 = 7 all give 7 mu: one curve key
    and bit-identical results, whatever the float noise."""
    k = zr.PairKernel(bsc_pair)

    def words(n00, n01, n10, n11):
        x1 = (0,) * (n00 + n01) + (1,) * (n10 + n11)
        x2 = (0,) * n00 + (1,) * n01 + (0,) * n10 + (1,) * n11
        return x1, x2

    results = [k.sequence_sup(*words(*c)) for c in ((15, 3, 4, 10), (14, 2, 5, 11), (16, 7, 0, 9))]
    assert results[0] == results[1] == results[2]
    assert results[0].value == pytest.approx(7 * 0.1438410362258904, abs=1e-9)


def test_distance_infinite_for_disjoint_rows(identity_pair):
    code = zr.Codebook(((0, 0), (1, 1)), 2)
    assert zr.pair_distance(identity_pair, *code.words) == math.inf


def test_plotkin_identity_exact_on_random_books(rng):
    for _ in range(30):
        nx = int(rng.integers(2, 4))
        code = random_codebook(rng, n=int(rng.integers(2, 9)), m=int(rng.integers(2, 7)), nx=nx)
        for a in range(nx):
            for b in range(nx):
                if a == b:
                    continue
                lhs, rhs = zr.plotkin_identity(code, a, b)
                assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
                assert lhs == rhs
        assert zr.plotkin_holds(code)


def test_pair_counts_equal_the_joint_counts_route():
    """``_pair_counts``, one float product of the book's one-hot rows, equals
    ``joint_counts`` on every ordered word pair, with its int64 dtype and
    ``(M, M, nx, nx)`` shape, on seeded books with M 2-40, n 1-64 and nx 1-5,
    some declaring more letters than their words use."""
    rng = np.random.default_rng(2203)
    for _ in range(60):
        m, n, used = int(rng.integers(2, 41)), int(rng.integers(1, 65)), int(rng.integers(1, 6))
        nx = used + int(rng.integers(0, 2)) * int(rng.integers(1, 3))
        words = rng.integers(0, used, (m, n)).tolist()
        expected = np.zeros((m, m, nx, nx), dtype=np.int64)
        for i, j in itertools.product(range(m), repeat=2):
            for (a, b), c in zr.joint_counts(words[i], words[j]).items():
                expected[i, j, a, b] = c
        got = codebook._pair_counts(words, nx)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert (got == expected).all()


def test_plotkin_holds_counts_letter_pairs_once(rng, monkeypatch):
    calls = []
    count = codebook._pair_counts
    monkeypatch.setattr(codebook, "_pair_counts", lambda *args: calls.append(1) or count(*args))
    assert zr.plotkin_holds(random_codebook(rng, n=7, m=5, nx=3))
    assert len(calls) == 1


def test_plotkin_identity_rejects_diagonal():
    code = zr.Codebook(((0, 1), (1, 0)), 2)
    with pytest.raises(zr.PreconditionError):
        zr.plotkin_identity(code, 1, 1)


def test_plotkin_diagonal_needs_correction(rng):
    """On the diagonal the two sides differ by exactly the column-count sum,
    which is why the identity is stated off-diagonal only."""
    code = random_codebook(rng, n=6, m=5, nx=2)
    a = 0
    n, m = code.n, code.size
    pair_sum = F(0)
    for i in range(m):
        for j in range(m):
            if i != j:
                pair_sum += zr.joint_type(code.words[i], code.words[j], 2)[a][a]
    cols = code.column_counts()
    col_sum = F(0)
    for c in range(n):
        col_sum += F(int(cols[c][a]) * int(cols[c][a]), n)
    assert col_sum - pair_sum == F(sum(int(cols[c][a]) for c in range(n)), n)


def test_komlos_extract_shared_type_code_keeps_everything():
    # every ordered pair of distinct words here has the same joint type
    code = zr.Codebook(((0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1)), 2)
    selected, cert = zr.komlos_extract(code, t=2, target=3)
    assert len(selected) == 3
    assert cert.observed_spread == 0
    assert cert.observed_asymmetry == 0
    assert cert.target_met


def test_komlos_extract_certificate_invariants(rng):
    """The certificate's spread and asymmetry are exactly those of the
    selected pairs' joint types, on binary and ternary books (greedy
    clique search above 16 words, exact below)."""
    for nx, m in ((2, 24), (3, 24), (3, 12)):
        for trial in range(6):
            code = random_codebook(rng, n=16, m=m, nx=nx)
            t = 3
            selected, cert = zr.komlos_extract(code, t=t, target=6)
            assert len(selected) == cert.m_hat == len(set(selected))
            assert cert.t == t
            # spread below the coloring resolution
            assert cert.observed_spread < F(1, t)
            types = [zr.joint_type(code.words[i], code.words[j], nx)
                     for i, j in itertools.combinations(selected, 2)]
            cells = list(itertools.product(range(nx), repeat=2))
            assert cert.observed_spread == max(
                max(P[a][b] for P in types) - min(P[a][b] for P in types) for a, b in cells)
            assert cert.observed_asymmetry == max(
                abs(P[a][b] - P[b][a]) for P in types for a, b in cells)
            assert float(cert.observed_asymmetry) <= cert.asymmetry_bound + 1e-12
            assert cert.asymmetry_bound == pytest.approx(
                zr.komlos_asymmetry_bound(cert.m_hat, cert.observed_spread), abs=1e-15)


def test_komlos_extract_colors_exactly_past_int64():
    """From ``t = n`` on, colors separate every count and keep its order,
    so a ``t`` whose products leave int64 selects what ``t = n`` does.  In
    int64, ``2**62 * 4`` wraps to 0, and every pair of this book would
    share one color."""
    code = zr.Codebook(((0, 0, 0, 0),) * 3 + ((1, 1, 1, 1),) * 3, 2)
    for t in (4, 2**62):
        selected, cert = zr.komlos_extract(code, t=t, target=6)
        assert selected == (3, 4, 5) and not cert.target_met
        assert cert.observed_spread == cert.observed_asymmetry == 0


def test_komlos_same_color_means_close_types(rng):
    code = random_codebook(rng, n=12, m=20, nx=2)
    t = 4
    selected, cert = zr.komlos_extract(code, t=t, target=5)
    # all selected unordered pairs carry types from one coloring cell, so
    # every entry of any two selected pair types differs by under 1/t
    types = []
    for i in selected:
        for j in selected:
            if i < j:
                types.append(zr.joint_type(code.words[i], code.words[j], 2))
    for t1 in types:
        for t2 in types:
            for a in range(2):
                for b in range(2):
                    assert abs(t1[a][b] - t2[a][b]) < F(1, t)


def test_asymmetry_bound_formula():
    assert zr.komlos_asymmetry_bound(64, 0.0) == pytest.approx(6 / 8, abs=1e-12)
    d = 0.04
    assert zr.komlos_asymmetry_bound(25, d) == pytest.approx(
        6 / 5 + 4 * math.sqrt(d) + 4 * d, abs=1e-12)


def test_delta_closeness_formula():
    m_hat, t = 16, 4
    assert zr.delta_closeness(m_hat, t) == pytest.approx(
        6 / math.sqrt(m_hat) + 2 * math.sqrt(2 / t) + 3 / t, abs=1e-12)


def test_certificate_chain_on_balanced_fixture(rng, bsc_pair):
    code = random_codebook(rng, n=16, m=24, nx=2)
    selected, _ = zr.komlos_extract(code, t=3, target=6)
    cert = zr.dmin_certificate(bsc_pair, code, selected, t=3)
    assert cert.all_ok
    assert cert.plotkin_ok and cert.tilt_shift_ok and cert.s_bar_within_cap
    assert cert.m_hat == len(selected)
    # the chain is ordered: each link's left side stays below its right side
    for check in cert.checks:
        assert check.ok, check.name
        assert check.slack >= -1e-9
    values = [v for _, v in cert.lines]
    assert values[0] == pytest.approx(cert.dmin_code, abs=1e-12)
    assert cert.dmin_code <= cert.dmin_subcode + 1e-12
    # final line dominates the first one through the whole chain
    assert values[-1] >= values[0] - 1e-9


def test_certificate_requires_balance(typewriter_pair, rng):
    code = random_codebook(rng, n=10, m=8, nx=3)
    selected, _ = zr.komlos_extract(code, t=2, target=4)
    with pytest.raises(zr.PreconditionError):
        zr.dmin_certificate(typewriter_pair, code, selected, t=2)
    relaxed = zr.RelaxedKernel(typewriter_pair)
    cert = zr.dmin_certificate(relaxed, code, selected, t=2)
    assert cert.m_hat == len(selected)
    for check in cert.checks:
        assert check.ok, check.name


def test_certificate_anchor_and_tilt_fields(bsc_pair, rng):
    code = random_codebook(rng, n=12, m=16, nx=2)
    selected, _ = zr.komlos_extract(code, t=4, target=5)
    cert = zr.dmin_certificate(bsc_pair, code, selected, t=4)
    assert cert.anchor[0] in selected and cert.anchor[1] in selected
    assert 0.0 <= cert.s_bar_anchor <= cert.s_cap + 1e-12 or cert.s_bar_anchor == math.inf
    assert cert.k_const > 0
    assert cert.delta == pytest.approx(zr.delta_closeness(cert.m_hat, cert.t), abs=1e-15)


def test_each_codebook_command_solves_one_book_batch(bsc_pair, tmp_path, monkeypatch, capsys):
    """``dmin`` takes its rate cap from the minimum it has; the certificate
    reads the subcode pairs and the book's minimum from one batch."""
    calls = []
    batch = codebook._book_sups
    monkeypatch.setattr(codebook, "_book_sups", lambda *args: calls.append(1) or batch(*args))
    code = zr.Codebook(((0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0), (1, 0, 1, 1), (0, 0, 0, 1)), 2)
    pair_path, code_path = tmp_path / "pair.json", tmp_path / "code.txt"
    pair_path.write_text(json.dumps(zr.serialize_pair(bsc_pair)))
    code_path.write_text(zr.serialize_codebook(code))
    cli.run(["dmin", "--pair", str(pair_path), "--code", str(code_path)])
    capsys.readouterr()
    assert len(calls) == 1
    zr.dmin_certificate(bsc_pair, code, (0, 1, 2), t=2)
    assert len(calls) == 2


def test_certificate_solves_the_tilt_interval_once(bsc_pair, rng, monkeypatch):
    """The interval search reuses the certificate's own ``s_cap``."""
    calls = []
    s_cap = zr.PairKernel.s_cap
    monkeypatch.setattr(zr.PairKernel, "s_cap", lambda self: calls.append(1) or s_cap(self))
    code = random_codebook(rng, n=12, m=16, nx=2)
    selected, _ = zr.komlos_extract(code, t=4, target=5)
    cert = zr.dmin_certificate(bsc_pair, code, selected, t=4)
    assert len(calls) == 1
    assert cert.optimized_objective >= zr.optimized_objective(zr.PairKernel(bsc_pair))[0]


def test_pe_lower_bound_from_dmin(bsc_pair):
    code = zr.Codebook(((0, 0), (0, 1), (1, 1)), 2)
    bound = zr.pe_lower_bound_from_dmin(bsc_pair, code)
    value, _ = zr.d_min(bsc_pair, code)
    assert bound == pytest.approx(value + math.log(3) / 2, abs=1e-12)


def test_subcode_indices_preserved():
    code = zr.Codebook(((0, 0), (0, 1), (1, 0), (1, 1)), 2)
    sub = code.subcode([3, 1])
    # selection is normalized to sorted distinct indices
    assert sub.words == ((0, 1), (1, 1))
    with pytest.raises(zr.ValidationError):
        code.subcode([2])
    with pytest.raises(zr.ValidationError):
        code.subcode([0, 9])
    cols = code.column_counts()
    assert cols.shape == (2, 2)
    assert cols[0][0] == 2 and cols[0][1] == 2


def test_certificate_kernel_grid_stays_bounded_on_a_long_interval(monkeypatch):
    """A near-useless metric puts s_cap far out (about 220.8 here); the
    grid bounding K keeps at most 4097 tilts instead of one per 1e-3."""
    W = ((F(9, 10), F(1, 10)), (F(1, 10), F(9, 10)))
    q = ((F(1), F(1)), (F(1), 1 + F(1, 100)))
    pair = zr.pair_from_rows(W, q)
    sizes = []
    mu_grid = zr.PairKernel.mu_grid

    def spy(self, s_values):
        sizes.append(len(s_values))
        return mu_grid(self, s_values)

    monkeypatch.setattr(zr.PairKernel, "mu_grid", spy)
    code = zr.Codebook(((0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0)), 2)
    cert = zr.dmin_certificate(pair, code, (0, 1, 2), t=1)
    assert cert.s_cap > 200
    assert sizes[0] <= 4097


def _scalar_distances(kernel, code):
    """The per-pair loop the batch replaces: ``pair_distance`` on every
    pair, and the first pair that lowers the running minimum."""
    mat = np.zeros((code.size, code.size))
    best, arg = math.inf, (0, 1)
    for i in range(code.size):
        for j in range(i + 1, code.size):
            mat[i, j] = mat[j, i] = d = zr.pair_distance(kernel, code.words[i], code.words[j])
            if d < best:
                best, arg = d, (i, j)
    return mat, (best, arg)


def test_book_batch_equals_the_scalar_pair_loop(bsc_pair, typewriter_pair, constant_metric_pair):
    """``distance_matrix`` and ``d_min`` solve every word pair in one batch;
    entry by entry, and in the argmin pair, they equal the scalar loop,
    and each ordered pair's ``sequence_sup`` equals its curve solved on its
    own (``scalar_sup``).  The books cover every way a directional supremum ends: empty
    directions (inf), product of extreme ratios above one (inf), equal to
    one with an unattained ceiling or a constant, zero curves, s* = 0 and
    interior maxima."""
    rng = np.random.default_rng(2718)
    pairs = [bsc_pair, typewriter_pair, constant_metric_pair]
    pairs += [random_full_support_pair(rng, nx=3, ny=2 + k % 3) for k in range(3)]
    pairs += [random_admissible_pair(np.random.default_rng(seed), nx=3, ny=3)
              for seed in (1, 4, 5, 14, 16, 22, 25, 38)]
    ends = set()
    for pair in pairs:
        for make in (zr.PairKernel, zr.RelaxedKernel):
            kernel, oracle = make(pair), make(pair)
            for m, n in ((9, 6), (6, 11)):
                words = rng.integers(0, pair.nx, (m, n)).tolist()
                words[-1] = words[0]               # equal words: the empty curve key
                code = zr.Codebook(tuple(map(tuple, words)), pair.nx)
                mat, best = _scalar_distances(oracle, code)
                got = zr.distance_matrix(kernel, code)
                assert [got[i, j] for i, j in np.ndindex(m, m)] == \
                    [mat[i, j] for i, j in np.ndindex(m, m)]
                value, arg = zr.d_min(kernel, code)
                assert (value, arg) == best and type(value) is float
                for x1, x2 in itertools.permutations(code.words, 2):
                    key = curve_key(oracle, zr.joint_counts(x1, x2))
                    closed = oracle._closed_form(key, tail_sign(oracle, key))
                    res = oracle.sequence_sup(x1, x2)
                    assert res == scalar_sup(oracle, key)
                    if any(oracle.direction(*ab).empty for ab, _ in key):
                        ends.add("empty direction")
                    elif closed is None:
                        ends.add("s* = 0" if res.s_star == 0 else "interior")
                    elif closed.value == math.inf:
                        ends.add("diverges")
                    else:
                        ends.add("constant" if closed.attained else "ceiling")
                    if not key:
                        ends.add("zero curves only")
    assert ends == {"empty direction", "diverges", "ceiling", "constant", "zero curves only",
                    "s* = 0", "interior"}


def test_book_batch_rejects_symbols_outside_the_pair_alphabet(bsc_pair):
    code = zr.Codebook(((0, 1, 2), (1, 1, 0)), 3)
    for fn in (zr.d_min, zr.distance_matrix):
        with pytest.raises(zr.ValidationError):
            fn(bsc_pair, code)
    with pytest.raises(zr.ValidationError):
        zr.pair_distance(bsc_pair, *code.words)


def _scalar_sequences(kernel, x1, x2, s):
    """The scalar oracle row by row: the values, or the first error's message."""
    try:
        return [scalar_sequence(kernel, tuple(a), tuple(b), float(t))[0].hex()
                for a, b, t in zip(x1.tolist(), x2.tolist(), s)]
    except zr.PreconditionError as exc:
        return str(exc)


def _batched_sequences(kernel, x1, x2, s):
    try:
        return [v.hex() for v in kernel._sequence_rows(x1, x2, np.array(s))[0].tolist()]
    except zr.PreconditionError as exc:
        return str(exc)


def test_certificate_sequence_batch_equals_mu_sequence(identity_pair, typewriter_pair):
    """The certificate's batched sequence kernels equal the scalar oracle
    ``conftest.scalar_sequence`` bit for bit: terms in first-appearance order (up to 36 of them), the
    exact sum at s = 0, ``inf`` for a letter pair with an empty direction,
    and the scalar's first error, a tilt above ``s_limit`` or a sum that
    leaves the float range, with its message."""
    rng = np.random.default_rng(1603)
    kernels = [zr.PairKernel(identity_pair), zr.RelaxedKernel(typewriter_pair)]
    kernels += [zr.PairKernel(random_admissible_pair(rng, nx=nx)) for nx in (2, 3, 4, 6)]
    kernels += [zr.PairKernel(random_full_support_pair(rng, nx=6, ny=3))]
    ends = set()
    for kernel in kernels:
        for n in (1, 5, 40):
            x1, x2 = rng.integers(0, kernel.pair.nx, (2, 30, n))
            s = [0.0] * 10 + [float(v) for v in 10.0 ** rng.uniform(-3, 3, 20)]
            got = _batched_sequences(kernel, x1, x2, s)
            assert got == _scalar_sequences(kernel, x1, x2, s)
            ends |= {"inf" if v == "inf" else "finite" for v in got}
            # a huge tilt: the first row that overflows, or whose tilt is too large, raises
            big = [0.5, 0.9 * kernel.s_limit, 2.0 * kernel.s_limit] * 10
            err = _batched_sequences(kernel, x1, x2, big)
            assert err == _scalar_sequences(kernel, x1, x2, big)
            ends.add(next((m for m in ("leaves the float range", "is above", "requires a finite")
                           if m in err), "no error"))
    assert ends == {"inf", "finite", "leaves the float range", "is above", "requires a finite"}


def test_sequence_batch_slopes_equal_the_scalar_oracle(identity_pair, typewriter_pair):
    """The slopes of ``_sequence_rows`` equal those of the scalar oracle by
    float hex, ``inf`` with an empty direction included, and ``_sequence``
    (behind ``mu_sequence`` and ``tilted_error_lower_bound``) returns the
    oracle's value and slope for each word pair alone."""
    rng = np.random.default_rng(2401)
    kernels = [zr.PairKernel(identity_pair), zr.RelaxedKernel(typewriter_pair)]
    kernels += [zr.PairKernel(random_admissible_pair(rng, nx=nx)) for nx in (2, 3, 4, 6)]
    kernels += [zr.RelaxedKernel(random_full_support_pair(rng, nx=5, ny=3))]
    signs = set()
    for kernel in kernels:
        for n in (1, 7, 40):
            x1, x2 = rng.integers(0, kernel.pair.nx, (2, 24, n))
            s = np.array([0.0] * 6 + [float(v) for v in 10.0 ** rng.uniform(-3, 3, 18)])
            _, slopes = kernel._sequence_rows(x1, x2, s)
            for a, b, t, got in zip(x1.tolist(), x2.tolist(), s.tolist(), slopes.tolist()):
                value, slope = scalar_sequence(kernel, a, b, t)
                assert got.hex() == slope.hex()
                assert [v.hex() for v in kernel._sequence(a, b, t)] == [value.hex(), slope.hex()]
                signs.add(math.copysign(1.0, slope) if math.isfinite(slope) else slope)
    assert signs == {1.0, -1.0, math.inf}


def test_certificate_averages_equal_the_scalar_loop(bsc_pair):
    """``average_at_own_tilt`` and ``average_at_anchor_tilt`` sum the scalar
    ``mu_sequence`` values of every subcode pair, in pair order, bit for
    bit; the full-support book has pairs whose own tilt is 0."""
    rng = np.random.default_rng(5)
    random_full_support_pair(rng, nx=3, ny=2)
    random_codebook(rng, 12, 24, 3)
    books = [(random_full_support_pair(rng, nx=3, ny=3), random_codebook(rng, 12, 24, 3), 2),
             (bsc_pair, random_codebook(rng, 16, 24, 2), 3)]
    zero_tilts = 0
    for pair, code, t in books:
        kernel = zr.PairKernel(pair)
        selected, _ = zr.komlos_extract(code, t=t, target=6)
        cert = zr.dmin_certificate(kernel, code, selected, t=t)
        own = anchor = 0.0
        for i, j in itertools.combinations(cert.selected, 2):
            wi, wj = code.words[i], code.words[j]
            s_bar = min(r.s_star for r in (kernel.sequence_sup(wi, wj), kernel.sequence_sup(wj, wi)))
            zero_tilts += s_bar == 0
            own += kernel.mu_sequence(wi, wj, s_bar) + kernel.mu_sequence(wj, wi, s_bar)
            anchor += (kernel.mu_sequence(wi, wj, cert.s_bar_anchor)
                       + kernel.mu_sequence(wj, wi, cert.s_bar_anchor))
        ordered = cert.m_hat * (cert.m_hat - 1) * code.n
        assert (cert.average_at_own_tilt, cert.average_at_anchor_tilt) == (own / ordered, anchor / ordered)
    assert zero_tilts > 0
