"""Seeded input generators for the benchmark.

Everything here is plain Python with exact fractions: the program under
test never runs during generation, and it only ever sees the pair JSON
documents and codebook text files these functions return.  A generator
takes a string seed, so the same seed always yields byte-identical
documents, independent of the numpy version.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def rng_for(*parts) -> random.Random:
    """A private random stream named by ``parts`` (hashed as one string)."""
    return random.Random(":".join(str(p) for p in parts))


def pair_document(W, q, name: str) -> str:
    doc = {
        "input_alphabet": [str(i) for i in range(len(W))],
        "output_alphabet": [str(j) for j in range(len(W[0]))],
        "W": [[str(v) for v in row] for row in W],
        "q": [[str(v) for v in row] for row in q],
        "name": name,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def book_document(words, nx: int) -> str:
    lines = [f"{len(words[0])} {len(words)} {nx}"]
    lines.extend(" ".join(str(v) for v in w) for w in words)
    return "\n".join(lines) + "\n"


def _stochastic_row(rng: random.Random, ny: int, support) -> list[Fraction]:
    weights = [rng.randint(1, 9) if y in support else 0 for y in range(ny)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _metric_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def full_support_rows(rng: random.Random, nx: int, ny: int):
    """Every channel and metric entry positive: always balanced."""
    W = [_stochastic_row(rng, ny, range(ny)) for _ in range(nx)]
    q = [[_metric_entry(rng) for _ in range(ny)] for _ in range(nx)]
    return W, q


def _extremal(W, q, a: int, b: int):
    """(min over y producible from a, max over y producible from b) of q(a,y)/q(b,y)."""
    ny = len(W[0])
    lo = min((q[a][y] / q[b][y] if q[b][y] > 0 else float("inf"))
             for y in range(ny) if W[a][y] > 0)
    hi = max(q[a][y] / q[b][y] for y in range(ny) if W[b][y] > 0)
    return lo, hi


def ordering_holds(W, q) -> bool:
    """The average-sense zero-error condition: min side <= max side for every ordered pair."""
    nx = len(W)
    return all(lo <= hi for lo, hi in (_extremal(W, q, a, b)
                                       for a in range(nx) for b in range(nx) if a != b))


def is_balanced(W, q) -> bool:
    """Ordering holds and each boundary pair sees one metric ratio on its relevant outputs."""
    nx, ny = len(W), len(W[0])
    if not ordering_holds(W, q):
        return False
    for a in range(nx):
        for b in range(nx):
            if a == b:
                continue
            lo, hi = _extremal(W, q, a, b)
            if lo != hi:
                continue
            ratios = {q[a][y] / q[b][y] for y in range(ny)
                      if q[a][y] > 0 and q[b][y] > 0 and (W[a][y] > 0 or W[b][y] > 0)}
            if len(ratios) > 1:
                return False
    return True


def admissible_rows(rng: random.Random, nx: int, ny: int, balanced: bool):
    """A pair with zeros in the channel, metric covering the channel row by row,
    that passes the ordering check; drawn until its balance flag is ``balanced``.

    Boundary pairs come from metric rows that share a ratio on the tail outputs,
    so about half the draws have one.
    """
    while True:
        W, q = [], []
        for _ in range(nx):
            support = sorted(rng.sample(range(ny), rng.randint(max(1, ny - 2), ny)))
            W.append(_stochastic_row(rng, ny, support))
            q.append([_metric_entry(rng) if (y in support or rng.random() < 0.5) else Fraction(0)
                      for y in range(ny)])
        if rng.random() < 0.5:
            # Copy a scaled metric row onto one output set to create a tie in the ratio.
            a, b = rng.sample(range(nx), 2)
            scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            for y in range(ny):
                if q[a][y] > 0:
                    q[b][y] = q[a][y] * scale
            for y in range(ny):
                if W[b][y] > 0 and q[b][y] == 0:
                    q[b][y] = _metric_entry(rng)
        if ordering_holds(W, q) and is_balanced(W, q) == balanced:
            return W, q


def bsc_rows():
    """Binary symmetric channel with crossover 1/4, decoded with the matched metric."""
    row0 = [Fraction(3, 4), Fraction(1, 4)]
    row1 = [Fraction(1, 4), Fraction(3, 4)]
    return [row0, row1], [list(row0), list(row1)]


def typewriter_rows():
    """Cyclic three-letter channel with one metric entry lifted from zero (unbalanced)."""
    e = Fraction(1, 10)
    W = [[1 - e, e, Fraction(0)], [Fraction(0), 1 - e, e], [e, Fraction(0), 1 - e]]
    q = [[1 - e, e, Fraction(0)], [Fraction(1, 20), 1 - e, e], [e, Fraction(0), 1 - e]]
    return W, q


def random_words(rng: random.Random, n: int, m: int, nx: int):
    return [[rng.randrange(nx) for _ in range(n)] for _ in range(m)]


def four_cell_words(rng: random.Random, counts):
    """Two binary words whose letter-pair counts for (0,0),(0,1),(1,0),(1,1) are ``counts``."""
    cells = [cell for cell, c in zip(((0, 0), (0, 1), (1, 0), (1, 1)), counts) for _ in range(c)]
    rng.shuffle(cells)
    return [[u for u, _ in cells], [v for _, v in cells]]
