"""Minimum distances and distance certificates pinned on 32 seeded books.

``data/dmin_pins.json`` holds, for each book, ``d_min`` (value and index
pair) on the raw kernel and on the kernel the certificate runs on, the
rate-corrected cap, a digest of ``distance_matrix``, the Komlós subcode
and every field of ``dmin_certificate``.  Floats are stored by their hex
form and fractions by ``repr``, so every field must match in every bit;
this covers the argmin pair, which the benchmark's output check does not
compare.  The floats were recorded with numpy 2.4.6 on x86-64.

The books are the 20 of acceptance criterion 8 (BSC(1/4), M = 64,
n = 32), 4 ternary books on full-support pairs, and 8 ternary books on
admissible pairs with zero entries that pass the ordering condition:
4 balanced, on the raw kernel, and 4 unbalanced, on ``RelaxedKernel``.

The pins were recorded while ``d_min`` still solved one word pair at a
time through ``sequence_sup``.  Regenerate them only when a change of
value is intended: ``PYTHONPATH=src:tests python tests/test_dmin_pins.py``.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import zerorate as zr

from conftest import random_admissible_pair, random_codebook, random_full_support_pair

PINS = Path(__file__).resolve().parent / "data" / "dmin_pins.json"


def _bsc():
    row0 = (Fraction(3, 4), Fraction(1, 4))
    row1 = (Fraction(1, 4), Fraction(3, 4))
    return zr.pair_from_rows((row0, row1), (row0, row1), name="bsc-quarter")


def _admissible(seed, balanced):
    """First admissible nx = 3 pair from ``seed`` on that passes the ordering
    condition and has the given balance flag."""
    while True:
        rng = np.random.default_rng(seed)
        pair = random_admissible_pair(rng, nx=3, ny=2 + seed % 3)
        if zr.check_c0bar_zero(pair)[0] and zr.is_balanced(pair)[0] == balanced:
            return rng, pair
        seed += 1


def seeded_books():
    """(pair, code, t) for every pinned book, criterion 8's first."""
    rng = np.random.default_rng(808)
    pair = _bsc()
    for _ in range(20):
        yield pair, random_codebook(rng, n=32, m=64, nx=2), 4
    for k in range(4):
        rng = np.random.default_rng(9100 + k)
        pair = random_full_support_pair(rng, nx=3, ny=2 + k)
        yield pair, random_codebook(rng, n=24, m=12, nx=3), 2
    for k in range(8):
        rng, pair = _admissible(9200 + 50 * k, balanced=k < 4)
        yield pair, random_codebook(rng, n=12 + 4 * (k % 3), m=10, nx=3), 2


def _hex(value):
    """JSON form with floats as hex and fractions by repr."""
    if dataclasses.is_dataclass(value):
        return {f.name: _hex(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, Fraction):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    raise TypeError(f"cannot pin {type(value).__name__}")


def _solve(fn):
    try:
        return _hex(fn())
    except (zr.InfiniteExponentError, zr.PreconditionError) as exc:
        return type(exc).__name__


def record(pair, code, t):
    raw = zr.PairKernel(pair)
    kernel = raw if zr.is_balanced(pair)[0] else zr.RelaxedKernel(pair)
    matrix = zr.distance_matrix(raw, code)
    upper = " ".join(float(v).hex() for v in matrix[np.triu_indices(code.size, 1)])
    doc = json.dumps(zr.serialize_pair(pair), sort_keys=True) + zr.serialize_codebook(code)
    selected, extraction = zr.komlos_extract(code, t=t, target=min(8, code.size))
    return {
        "book_sha256": hashlib.sha256(doc.encode()).hexdigest()[:16],
        "kernel": "raw" if kernel is raw else "relaxed",
        "d_min": _hex(zr.d_min(raw, code)),
        "d_min_kernel": _hex(zr.d_min(kernel, code)),
        "exponent_cap_with_rate": _hex(zr.pe_lower_bound_from_dmin(raw, code)),
        "distance_matrix_sha256": hashlib.sha256(upper.encode()).hexdigest()[:16],
        "komlos": _hex(extraction),
        "certificate": _solve(lambda: zr.dmin_certificate(kernel, code, selected, t)),
    }


def test_pinned_books_cover_every_kind():
    pins = json.loads(PINS.read_text())
    assert len(pins) == 32
    assert sum(p["kernel"] == "relaxed" for p in pins) == 4
    assert all(p["certificate"]["all_ok"] for p in pins)
    assert sum(p["d_min"][0] == "0x0.0p+0" for p in pins) >= 4      # suprema at s = 0
    assert len({tuple(p["d_min"][1]) for p in pins}) >= 20


def test_distances_and_certificates_match_the_pins():
    pins = json.loads(PINS.read_text())
    moved = [k for k, book in enumerate(seeded_books()) if record(*book) != pins[k]]
    assert moved == [], f"pinned books whose record changed: {moved}"


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    rows = [json.dumps(record(*book)) for book in seeded_books()]
    PINS.write_text("[\n" + ",\n".join(rows) + "\n]\n")
