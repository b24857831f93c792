"""Shared fixtures: canonical small pairs and randomized generators.

The generators produce exact-rational channels so every support and
boundary decision in the library is taken on exact data; only the
transcendental evaluations are floating point.
"""

import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import zerorate as zr


def rational_stochastic_row(rng, ny, max_weight=9, support=None):
    """A random probability row with exact rational entries.

    ``support`` restricts positivity to the given output indices; the
    row always sums to one exactly.
    """
    if support is None:
        support = list(range(ny))
    weights = [0] * ny
    for y in support:
        weights[y] = int(rng.integers(1, max_weight + 1))
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_full_support_pair(rng, nx=None, ny=None, name=""):
    """Random pair with every channel and metric entry positive.

    Full support forces the ordering condition for every input pair and
    makes the boundary-ratio requirement hold wherever it applies, so
    these pairs always land in the exact-equality regime.
    """
    nx = int(rng.integers(2, 5)) if nx is None else nx
    ny = int(rng.integers(2, 5)) if ny is None else ny
    W = [rational_stochastic_row(rng, ny) for _ in range(nx)]
    q = [
        tuple(Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10))) for _ in range(ny))
        for _ in range(nx)
    ]
    return zr.pair_from_rows(W, q, name=name)


def random_admissible_pair(rng, nx=None, ny=None, name=""):
    """Random pair with arbitrary supports, metric covering the channel.

    Rows may have zeros; the metric support always contains the channel
    support row by row, which is the only validity requirement.  These
    pairs may fail the zero-error conditions, deliberately.
    """
    nx = int(rng.integers(2, 5)) if nx is None else nx
    ny = int(rng.integers(2, 5)) if ny is None else ny
    W_rows, q_rows = [], []
    for _ in range(nx):
        size = int(rng.integers(1, ny + 1))
        support = sorted(rng.choice(ny, size=size, replace=False).tolist())
        W_rows.append(rational_stochastic_row(rng, ny, support=support))
        q_row = []
        for y in range(ny):
            if y in support or rng.random() < 0.4:
                q_row.append(Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10))))
            else:
                q_row.append(Fraction(0))
        q_rows.append(tuple(q_row))
    return zr.pair_from_rows(W_rows, q_rows, name=name)


def sigma_at(kernel, s):
    """The matrix ``G`` with ``F(Q, s) = Q^T G Q`` that ``maximize_over_Q`` solves."""
    return zr.exponent._sigma_grid(kernel, [s])[0]


def grid_q_max(G, resolution):
    """Oracle: best ``x^T G x`` over the simplex points whose entries are
    multiples of ``1/resolution``, as ``(value, q)``; ties go to the first
    point in lexicographic order of the entries."""
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([resolution])
    for _ in range(len(G) - 1):
        # every row branches into each value 0..left of its next entry
        width = left + 1
        row = np.repeat(np.arange(len(counts)), width)
        value = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        counts = np.column_stack([counts[row], value])
        left = left[row] - value
    pts = np.column_stack([counts, left]) / resolution
    vals = np.einsum("ki,ij,kj->k", pts, G, pts)
    i = int(np.argmax(vals))
    return float(vals[i]), pts[i]


def two_point_q_max(G):
    """Oracle: best ``x^T G x`` over the uniform distributions on two
    letters (worth ``G[a, b] / 2`` each) and the vertices (worth 0)."""
    a, b = np.triu_indices(len(G), 1)
    if len(a) == 0 or G[a, b].max() <= 0:
        return 0.0, np.eye(len(G))[0]
    i = int(np.argmax(G[a, b]))
    q = np.zeros(len(G))
    q[[a[i], b[i]]] = 0.5
    return float(G[a[i], b[i]] / 2.0), q


def _project_rows(x):
    """Euclidean projection of each row onto the probability simplex."""
    n = x.shape[1]
    u = np.sort(x, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    rho = n - 1 - np.argmax((u - css / np.arange(1, n + 1) > 0)[:, ::-1], axis=1)
    theta = css[np.arange(len(x)), rho] / (rho + 1.0)
    return np.clip(x - theta[:, None], 0.0, None)


def _pg_ascent(G, x, iterations=400):
    """Projected gradient ascent from each row of ``x`` with a per-row step
    that grows on success and halves on failure; the best row's ``(value, x)``."""
    x = x.copy()
    eta = np.full(len(x), 0.5)
    f = np.einsum("ki,ij,kj->k", x, G, x)
    for _ in range(iterations):
        cand = _project_rows(x + eta[:, None] * (2.0 * x @ G))
        fc = np.einsum("ki,ij,kj->k", cand, G, cand)
        better = fc > f
        x[better], f[better] = cand[better], fc[better]
        eta = np.where(better, eta * 1.25, eta * 0.5)
        if eta.max() < 1e-14:
            break
    best = int(np.argmax(f))
    return float(f[best]), x[best]


def pg_q_max(G, seed, starts=32):
    """Oracle: multistart projected gradient ascent of ``x^T G x`` over the
    simplex, as ``(value, q)``: from the vertices, the barycentre, the edge
    midpoints and seeded random points up to ``starts``, then once more from
    the winner.  A lower bound on the maximum, not the maximum."""
    bank = zr.exponent._probe_bank(len(G))
    if len(bank) < starts:
        rng = np.random.default_rng(seed)
        bank = np.vstack([bank, rng.dirichlet(np.ones(len(G)), size=starts - len(bank))])
    value, q = _pg_ascent(G, bank)
    again, q2 = _pg_ascent(G, q[None])
    return (again, q2) if again > value else (value, q)


def scalar_sequence(kernel, x1, x2, s):
    """Oracle for ``PairKernel._sequence_rows``: value and slope at ``s`` of the
    sequence kernel of two words, as one dot product ``w @ _tilted(LW, LR, s)``
    of the letter-pair counts with their rows in order of first appearance;
    at ``s = 0`` the value is the exact sum of ``count * mu0``.  Both are
    ``inf`` when a letter pair's direction is empty; the batch's errors, with
    their messages, for a bad tilt or a sum that leaves the float range."""
    zr.kernel._check_tilt("mu_sequence", s, kernel.s_limit)
    counts = zr.joint_counts(x1, x2)
    if any(kernel.direction(*ab).empty for ab in counts):
        return math.inf, math.inf
    a, b = np.array(list(counts)).T
    w = np.array(list(counts.values()), dtype=float)
    with np.errstate(over="ignore"):
        value, slope = zr.kernel._tilted(kernel._LW[a, b], kernel._LR[a, b], s)
        value, slope = float(w @ value), float(w @ slope)
    if s == 0:
        value = sum(c * float(kernel._mu0[ab]) for ab, c in counts.items())
    if not math.isfinite(value):
        raise zr.PreconditionError(
            f"mu_sequence: the sum at tilt s = {s} leaves the float range; use a smaller tilt")
    return value, slope


def curve_key(kernel, counts):
    """Oracle for the curve merge ``counts @ kernel._merge``: the letter-pair
    counts ``{(a, b): c}`` summed over directions with equal curves (zero
    curves dropped), as the sorted ``((rep, c), ...)`` key of ``_sup_rows``."""
    merged = Counter()
    for ab, c in counts.items():
        if (rep := kernel._curve[ab]) is not None:
            merged[rep] += c
    return tuple(sorted(merged.items()))


def tail_sign(kernel, key):
    """The tail sign ``_sup_rows`` reads for the curve ``key``: negative exactly
    when its supremum is interior and needs a search."""
    counts = dict(key)
    return kernel._tail_signs(np.array([[counts.get(rep, 0) for rep in kernel._reps]]))[0]


def argmax_concave(fp, cap=math.inf):
    """Oracle for ``kernel._argmax_concave_rows``: the scalar loop on a slope
    function ``fp``, the smallest maximizer on ``[0, cap]`` of a concave curve
    as ``(s, attained)``.  Doubles the tilt until the slope stops being
    positive, then bisects to ``_BISECT_TOL`` or to adjacent floats; a slope
    still positive at ``cap`` puts the maximizer at ``cap``, and a float range
    that runs out first (NaN slope, or a tilt that cannot double) gives the
    last tilt reached, unattained."""
    if fp(0.0) <= 0:
        return 0.0, True
    lo, hi = 0.0, min(1.0, cap)
    while (slope := fp(hi)) > 0 or math.isnan(slope):
        if math.isnan(slope) or hi > sys.float_info.max / 2.0:
            return lo, False
        if hi >= cap:
            return cap, True
        lo, hi = hi, min(2.0 * hi, cap)
    while hi - lo > zr.kernel._BISECT_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        if fp(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


def weighted_curve(kernel, key):
    """``s -> (value, slope)`` of the curve ``key``, ``((rep, c_k), ...)``: one dot
    product of the counts with ``_tilted`` over the reps' gathered rows."""
    a, b = np.array([ab for ab, _ in key]).T
    LW, LR, w = kernel._LW[a, b], kernel._LR[a, b], np.array([c for _, c in key], dtype=float)

    def at(s):
        value, slope = zr.kernel._tilted(LW, LR, s)
        return float(w @ value), float(w @ slope)

    return at


def scalar_sup(kernel, key):
    """The curve ``key`` maximized on its own: its closed form when the tail
    settles it, else the scalar loop ``argmax_concave`` on its slope, with the
    exact value at ``s = 0``."""
    closed = kernel._closed_form(key, tail_sign(kernel, key))
    if closed is not None:
        return closed
    at = weighted_curve(kernel, key)
    s, attained = argmax_concave(lambda s: at(s)[1])
    if attained and s == 0:
        return kernel._at_zero(key)
    return zr.SupResult(s if attained else math.inf, at(s)[0], attained)


def metric_onehot(pair):
    """One-hot view of ``decoder._metric_table``: an ``(nx, ny, K)`` int64 array
    whose ``[x, y]`` row marks the position of ``q(x,y)`` among the ``K``
    distinct positive entries (a zero row at a zero entry).  Summed along a
    word, it counts how often each value occurs in the word's metric product."""
    table = zr.decoder._metric_table(pair)
    onehot = np.eye(len(table.values), dtype=np.int64)[table.index]
    onehot[table.zero] = 0
    return onehot


def simplex_book(k):
    """The binary simplex (Sylvester-Hadamard) book of dimension ``k``: for
    every nonzero ``v`` in GF(2)^k the word ``t -> v.t mod 2`` over all ``t``
    in GF(2)^k, so ``n = 2^k`` and ``M = 2^k - 1``.  Two distinct nonzero
    functionals take every value pair equally often, so every word pair
    has joint type ``Q x Q`` with ``Q`` uniform."""
    words = tuple(
        tuple(bin(v & t).count("1") % 2 for t in range(2**k)) for v in range(1, 2**k)
    )
    return zr.Codebook(words, 2)


def random_codebook(rng, n, m, nx):
    words = tuple(tuple(int(v) for v in rng.integers(0, nx, n)) for _ in range(m))
    return zr.Codebook(words, nx)


@pytest.fixture
def bsc_pair():
    """Binary symmetric channel, crossover 1/4, decoder metric matched."""
    row0 = (Fraction(3, 4), Fraction(1, 4))
    row1 = (Fraction(1, 4), Fraction(3, 4))
    return zr.pair_from_rows((row0, row1), (row0, row1), name="bsc-quarter")


@pytest.fixture
def typewriter_pair():
    """Cyclic three-letter channel with one metric entry lifted from zero.

    The channel never confuses letters two steps apart, but the metric
    overlap it induces leaves four boundary input pairs, none of which
    keeps a constant metric ratio, so the pair is unbalanced.
    """
    e = Fraction(1, 10)
    W = (
        (1 - e, e, Fraction(0)),
        (Fraction(0), 1 - e, e),
        (e, Fraction(0), 1 - e),
    )
    q = (
        (1 - e, e, Fraction(0)),
        (Fraction(1, 20), 1 - e, e),
        (e, Fraction(0), 1 - e),
    )
    return zr.pair_from_rows(W, q, name="typewriter-tenth")


@pytest.fixture
def identity_pair():
    """Noiseless identity channel with matched metric: supports disjoint,
    so confusion is impossible and the exponent question degenerates."""
    one, zero = Fraction(1), Fraction(0)
    rows = ((one, zero), (zero, one))
    return zr.pair_from_rows(rows, rows, name="identity")


@pytest.fixture
def constant_metric_pair():
    """Channel with an uninformative decoder: every output ties."""
    row0 = (Fraction(3, 4), Fraction(1, 4))
    row1 = (Fraction(1, 4), Fraction(3, 4))
    flat = (Fraction(1), Fraction(1))
    return zr.pair_from_rows((row0, row1), (flat, flat), name="constant-metric")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# One line per acceptance criterion, echoed after the test summary so the
# verdicts are visible in plain ``pytest -v`` output.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
