"""Zero-error decisions and exponent values pinned on 312 seeded pairs.

``data/zero_error_pins.json`` holds, for each pair, every field of
``zero_error_report``, the results of ``check_c0bar_zero``,
``check_c0_zero``, ``boundary_set_B`` and ``is_balanced`` (witnesses
included), and the results of ``zero_rate_exponent``,
``expurgated_lower`` and ``gap_bound``.  Exact values are compared by
``repr``, which tells a ``Fraction`` from a float, and floats by their
hex form, so every field must match in every bit.  The floats were
recorded with numpy 2.4.6 on x86-64; the exact fields do not depend on
the platform.

The pins were recorded before the checks read the pair's shared
direction table, when each check recomputed its metric ratios from the
matrices.  Regenerate them only when a change of value is intended:
``PYTHONPATH=src:tests python tests/test_zero_error_pins.py``.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import zerorate as zr

from conftest import random_admissible_pair, random_full_support_pair, rational_stochastic_row

PINS = Path(__file__).resolve().parent / "data" / "zero_error_pins.json"


def seeded_pairs():
    """300 random pairs, nx 2-6 and ny 2-5: every third one has full support,
    the rest have zeros, and many of those violate the ordering condition.
    Then 12 pairs whose metric rows are proportional, so every input pair
    is a boundary pair and those with disjoint channel rows fail ``C0``."""
    for k in range(300):
        rng = np.random.default_rng(5000 + k)
        nx, ny = 2 + k % 5, 2 + (k // 5) % 4
        make = random_full_support_pair if k % 3 == 1 else random_admissible_pair
        yield k, make(rng, nx=nx, ny=ny)
    for k in range(300, 312):
        rng = np.random.default_rng(5000 + k)
        nx, ny = 2 + k % 3, 2 + k % 4
        W = [rational_stochastic_row(rng, ny, support=rng.choice(ny, size=1 + k % 2,
                                                                 replace=False).tolist())
             for _ in range(nx)]
        base = [F(int(rng.integers(1, 10)), int(rng.integers(1, 10))) for _ in range(ny)]
        scale = [int(rng.integers(1, 5)) for _ in range(nx)]
        q = [[c * v for v in base] for c in scale]
        yield k, zr.pair_from_rows(W, q)


def _witness(w):
    if w is None:
        return None
    return [w.kind, list(w.pair), repr(w.min_ratio), repr(w.max_ratio), w.overlap]


def _violation(v):
    if v is None:
        return None
    return [list(v.pair), list(v.outputs), [repr(r) for r in v.ratios]]


def _floats(values):
    return [float(v).hex() for v in values]


def _solve(fn):
    try:
        return fn()
    except zr.InfiniteExponentError:
        return "InfiniteExponentError"


def record(pair):
    rep = zr.zero_error_report(pair)
    c0bar, c0bar_w = zr.check_c0bar_zero(pair)
    c0, c0_w = zr.check_c0_zero(pair)
    balanced, violation = zr.is_balanced(pair)
    doc = json.dumps(zr.serialize_pair(pair), sort_keys=True).encode()

    def exponent():
        res = zr.zero_rate_exponent(pair)
        return {
            "value": float(res.value).hex(), "s_star": float(res.s_star).hex(),
            "q_star": _floats(res.q_star.probs), "balanced": res.balanced, "kind": res.kind,
            "lower_expurgated": float(res.lower_expurgated).hex(),
            "gap_bound": float(res.gap_bound).hex(),
        }

    def lower():
        res = zr.expurgated_lower(pair)
        return {"value": float(res.value).hex(), "s_star": float(res.s_star).hex(),
                "q_star": _floats(res.q_star.probs)}

    return {
        "pair_sha256": hashlib.sha256(doc).hexdigest()[:16],
        "report": {
            "c0bar_zero": rep.c0bar_zero,
            "c0_zero": rep.c0_zero,
            "balanced": rep.balanced,
            "boundary_pairs": [list(ab) for ab in rep.boundary_pairs],
            "strict_support_match": rep.strict_support_match,
            "witness": _witness(rep.witness),
            "balance_violation": _violation(rep.balance_violation),
        },
        "check_c0bar_zero": [c0bar, _witness(c0bar_w)],
        "check_c0_zero": [c0, _witness(c0_w)],
        "boundary_set_B": [list(ab) for ab in zr.boundary_set_B(pair)],
        "is_balanced": [balanced, _violation(violation)],
        "zero_rate_exponent": _solve(exponent),
        "expurgated_lower": _solve(lower),
        "gap_bound": float(zr.gap_bound(pair)).hex(),
    }


def test_pinned_pairs_cover_every_regime():
    pins = json.loads(PINS.read_text())
    assert len(pins) == 312
    reports = [p["report"] for p in pins]
    assert sum(not r["c0bar_zero"] for r in reports) >= 30
    assert sum(r["c0bar_zero"] and not r["balanced"] for r in reports) >= 30
    assert sum(r["balanced"] and bool(r["boundary_pairs"]) for r in reports) >= 1
    assert sum(r["witness"] is not None and r["witness"][0] == "equality_without_overlap"
               for r in reports) >= 1


def test_decisions_and_values_match_the_pins():
    pins = json.loads(PINS.read_text())
    moved = [k for k, pair in seeded_pairs() if record(pair) != pins[k]]
    assert moved == [], f"pinned pairs whose record changed: {moved}"


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    rows = [json.dumps(record(pair)) for _, pair in seeded_pairs()]
    PINS.write_text("[\n" + ",\n".join(rows) + "\n]\n")
