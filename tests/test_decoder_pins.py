"""Exact two-codeword decoding pinned on seeded books.

``data/decoder_pins.json`` holds, for each two-word book and each tie
policy, ``per_message``, ``average`` and ``tie_mass`` of
:func:`zerorate.exact_error_probabilities` as fraction strings, so every
value must match exactly.

The books are
- the decoder benchmark's shapes: full-support pairs with nx = 2,
  ny = 3 and letter-pair cell counts (3, 2, 3, 2), (3, 3, 3, 2) and
  (3, 3, 3, 3), n = 10 to 12;
- pairs with zero entries whose positive metric values are powers of
  3/2 (2/3, 4/9, 9/4, ...), so products of different values tie
  exactly while their value counts differ, at n = 6 to 14, beyond the
  reach of the brute-force test over all outputs; in six of the
  sixteen such books the decoder ties outputs with unequal counts;
- the BSC(1/4) words a^n and b^n at n = 8, 16 and 40.

The pins were recorded while the exact decoder still carried ``Fraction``
masses keyed by metric ratio.  Regenerate them only when a change of
value is intended: ``PYTHONPATH=src:tests python tests/test_decoder_pins.py``.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import zerorate as zr

from conftest import random_full_support_pair
from test_decoder import POWERS_OF_THREE_HALVES as POWERS

PINS = Path(__file__).resolve().parent / "data" / "decoder_pins.json"

F = Fraction


def _bsc():
    row0 = (F(3, 4), F(1, 4))
    row1 = (F(1, 4), F(3, 4))
    return zr.pair_from_rows((row0, row1), (row0, row1), name="bsc-quarter")


def _four_cell_words(rng, counts):
    """Two binary words whose (0,0), (0,1), (1,0), (1,1) counts are ``counts``."""
    cells = [cell for cell, c in zip(((0, 0), (0, 1), (1, 0), (1, 1)), counts) for _ in range(c)]
    cells = [cells[i] for i in rng.permutation(len(cells))]
    return tuple(u for u, _ in cells), tuple(v for _, v in cells)


def _dependent_pair(rng, nx, ny):
    """A pair with zeros whose metric entries come from ``POWERS``; a
    metric entry is zero only where the channel entry is."""
    W, q = [], []
    for _ in range(nx):
        weights = [int(w) for w in rng.integers(0, 4, ny)]
        if not any(weights):
            weights[int(rng.integers(ny))] = 1
        W.append(tuple(F(w, sum(weights)) for w in weights))
        row = [POWERS[int(k)] for k in rng.integers(0, len(POWERS), ny)]
        q.append(tuple(v if v > 0 or weights[y] == 0 else F(1) for y, v in enumerate(row)))
    return zr.pair_from_rows(W, q)


def seeded_books():
    """(name, pair, (x1, x2)) for every pinned book."""
    for k, counts in enumerate(((3, 2, 3, 2), (3, 3, 3, 2), (3, 3, 3, 3)) * 2):
        rng = np.random.default_rng(1000 + k)
        pair = random_full_support_pair(rng, nx=2, ny=3)
        yield f"lab-{k}", pair, _four_cell_words(rng, counts)
    for k in range(16):
        rng = np.random.default_rng(2000 + k)
        nx = 2 + k % 2
        pair = _dependent_pair(rng, nx, 2 + (k // 2) % 2)
        n = 6 + (k * 5) % 9
        words = tuple(tuple(int(v) for v in rng.integers(0, nx, n)) for _ in range(2))
        yield f"dependent-{k}", pair, words
    for n in (8, 16, 40):
        yield f"bsc-{n}", _bsc(), ((0,) * n, (1,) * n)


def record(pair, words):
    out = {}
    for policy in zr.decoder.TIE_POLICIES:
        res = zr.exact_error_probabilities(pair, words, tie_policy=policy)
        out[policy] = {
            "per_message": [str(v) for v in res.per_message],
            "average": str(res.average),
            "tie_mass": str(res.tie_mass),
        }
    return out


def test_pinned_books_cover_every_kind():
    pins = json.loads(PINS.read_text())
    names = [name for name, _, _ in seeded_books()]
    assert [p["name"] for p in pins] == names
    assert sum(name.startswith("dependent") for name in names) == 16
    # ties at every tie policy: the dependent books tie unequal value counts
    tied = [p["name"] for p in pins if F(p["equiprobable"]["tie_mass"]) > 0]
    assert sum(name.startswith("dependent") for name in tied) >= 5
    assert "bsc-40" in tied


def test_exact_decoding_matches_the_pins():
    pins = json.loads(PINS.read_text())
    moved = [
        name for (name, pair, words), pin in zip(seeded_books(), pins)
        if record(pair, words) != {k: v for k, v in pin.items() if k != "name"}
    ]
    assert moved == [], f"pinned books whose exact decoding changed: {moved}"


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    rows = [json.dumps({"name": name, **record(pair, words)}) for name, pair, words in seeded_books()]
    PINS.write_text("[\n" + ",\n".join(rows) + "\n]\n")
