"""Shared fixtures: canonical small pairs and randomized generators.

The generators produce exact-rational channels so every support and
boundary decision in the library is taken on exact data; only the
transcendental evaluations are floating point.
"""

import itertools
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


def extremal_ratios(pair, a, b):
    """Exact ``(min_side, max_side)`` of the ordered input pair ``(a, b)``,
    computed from the matrices alone: the smallest ``q(a,y)/q(b,y)`` over
    outputs ``a`` can produce (``inf`` where ``q(b,y)`` is zero) and the
    largest over outputs ``b`` can produce.  The zero-error checks read the
    direction table instead, so this is their oracle."""
    min_side = math.inf
    for y in range(pair.ny):
        if pair.W[a][y] > 0:
            r = pair.q[a][y] / pair.q[b][y] if pair.q[b][y] > 0 else math.inf
            if r < min_side:
                min_side = r
    max_side = Fraction(-1)
    for y in range(pair.ny):
        if pair.W[b][y] > 0:
            r2 = pair.q[a][y] / pair.q[b][y]
            if r2 > max_side:
                max_side = r2
    return min_side, max_side


def metric_onehot(pair):
    """One-hot view of ``decoder._metric_table``: an ``(nx, ny, K)`` int64 array
    whose ``[x, y]`` row marks the position of ``q(x,y)`` among the ``K``
    distinct positive entries (a zero row at a zero entry).  Summed along a
    word, it counts how often each value occurs in the word's metric product."""
    table = zr.decoder._metric_table(pair)
    onehot = np.eye(len(table.values), dtype=np.int64)[table.index]
    onehot[table.zero] = 0
    return onehot


PLUS_INFINITY = "plus_infinity"
FINITE_LIMIT = "finite_limit"
MINUS_INFINITY = "minus_infinity"


def classify_limit(kernel, a, b):
    """Trichotomy of ``mu(a, b, s)`` as ``s`` grows, with the limit value, read
    from the fields of ``kernel.direction(a, b)``: ``+inf`` when the direction
    is empty or ``A(a, b) > 1``, its intercept when ``A(a, b) = 1``, else ``-inf``."""
    d = kernel.direction(a, b)
    if d.empty or d.a_min > 1:
        return PLUS_INFINITY, math.inf
    if d.a_min == 1:
        return FINITE_LIMIT, d.intercept
    return MINUS_INFINITY, -math.inf


def tilted_distribution(kernel, a, b, s):
    """Oracle for the slopes of ``kernel._tilted``: the output law proportional
    to ``W(y|a) * ratio**s`` on the overlap outputs, a softmax over the exact
    data of ``kernel.direction(a, b)``."""
    d = kernel.direction(a, b)
    if d.empty:
        raise zr.PreconditionError(f"tilted distribution undefined: mu({a},{b}) is infinite")
    log = zr.channel._log
    x = np.array([log(w) + s * log(r) for w, r in zip(d.weights, d.ratios)])
    p = np.exp(x - x.max())
    out = np.zeros(kernel.pair.ny)
    out[list(d.outputs)] = p / p.sum()
    return out


# Method-of-types oracles.  They bring their own compositions and multinomials,
# so that the class enumeration stays independent of the exact decoder it checks.


def compositions(total, bins):
    """Every tuple of ``bins`` nonnegative counts summing to ``total``, by stars
    and bars: each choice of ``bins - 1`` bar positions among ``total + bins - 1``."""
    slots = total + bins - 1
    for bars in itertools.combinations(range(slots), bins - 1):
        edges = (-1, *bars, slots)
        yield tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))


def multinomial(counts):
    return math.factorial(sum(counts)) // math.prod(math.factorial(k) for k in counts)


def _cell_counts_of(V, cells, ny):
    """A conditional-type argument as integer output counts per letter-pair
    cell, validating integrality against the cell sizes."""
    out = {}
    for cell, cnt in cells.items():
        if cell not in V:
            raise zr.ValidationError(f"conditional type is missing cell {cell}")
        row = list(V[cell])
        if len(row) != ny:
            raise zr.ValidationError(f"cell {cell} must list one value per output")
        vals = [Fraction(v) for v in row]
        total = sum(vals)
        if total == cnt and all(v.denominator == 1 and v >= 0 for v in vals):
            out[cell] = tuple(int(v) for v in vals)
        elif total == 1:
            scaled = [v * cnt for v in vals]
            if any(v.denominator != 1 or v < 0 for v in scaled):
                raise zr.ValidationError(f"cell {cell} is not integral at blocklength cell size {cnt}")
            out[cell] = tuple(int(v) for v in scaled)
        else:
            raise zr.ValidationError(f"cell {cell} must hold counts summing to {cnt} or a distribution")
    if any(sum(V[c]) != 0 for c in set(V) - set(cells)):
        raise zr.ValidationError("conditional type places mass on an absent letter pair")
    return out


def type_class_probability(pair, x1, x2, V):
    """Exact probability that the channel output's conditional type given
    ``(x1, x2)`` equals ``V`` when ``x1`` is sent, next to the counting lower
    bound ``(n+1)^(-|X|^2 |Y|) exp(-n D)``.

    ``V`` maps each letter-pair cell to per-output counts (or a distribution
    that is integral at the cell size).  The exact value must be at least the
    bound; a support violation makes both collapse (exact 0, bound 0)."""
    x1, x2 = zr.kernel._checked_words((x1, x2), pair.nx).tolist()
    cells = zr.joint_counts(x1, x2)
    n, ny = len(x1), pair.ny
    counts = _cell_counts_of(V, cells, ny)
    exact, kl = Fraction(1), 0.0
    for (a, b), cnt in sorted(cells.items()):
        comp = counts[(a, b)]
        exact *= multinomial(comp)
        for y, k in enumerate(comp):
            if k == 0:
                continue
            if pair.W[a][y] == 0:
                return Fraction(0), 0.0
            exact *= pair.W[a][y] ** k
            kl += (k / n) * zr.channel._log(Fraction(k, cnt) / pair.W[a][y])
    bound = (n + 1.0) ** (-(pair.nx**2) * ny) * math.exp(-n * kl)
    if bound > 0 and exact < Fraction(bound) * Fraction(999_999_999, 1_000_000_000):
        raise zr.ZerorateError("type-class probability fell below its counting bound")
    return exact, bound


def conditional_types(x1, x2, ny):
    """All conditional types of an output sequence given the word pair, as
    per-cell output counts.  Exhaustive, so only for small cases."""
    cells = sorted(zr.joint_counts(x1, x2).items())
    for combo in itertools.product(*(list(compositions(cnt, ny)) for _, cnt in cells)):
        yield {cell: comp for (cell, _), comp in zip(cells, combo)}


def quantize_to_type(dist, n):
    """Round a distribution to a type with denominator ``n`` by largest
    remainder: entries move by at most ``1/n`` and zeros stay zero."""
    n = zr.channel._checked_int("n", n, 1)
    try:
        vals = [Fraction(v) for v in dist]
    except (ValueError, OverflowError) as exc:   # nan, inf
        raise zr.ValidationError(f"distribution entries must be finite numbers: {exc}") from exc
    if any(v < 0 for v in vals):
        raise zr.ValidationError("distribution entries must be nonnegative")
    total = sum(vals)
    if total <= 0:
        raise zr.ValidationError("distribution must have positive mass")
    if abs(total - 1) > Fraction(1, 10**9):
        raise zr.ValidationError("distribution must sum to one")
    scaled = [n * v / total for v in vals]
    base = [int(v) for v in scaled]
    remainders = sorted((-(v - k), i) for i, (v, k) in enumerate(zip(scaled, base)) if v > 0)
    for _, i in remainders[:n - sum(base)]:
        base[i] += 1
    return tuple(Fraction(k, n) for k in base)


def exact_by_classes(pair, x1, x2, policy):
    """Oracle for ``exact_error_probabilities`` on the words ``x1, x2``, as
    ``(per_message, tie_mass)``: every conditional type, weighed by its
    ``type_class_probability`` under word 1 and, on the swapped cells, under
    word 2, and charged by an exact comparison of the two metric products (a
    zero product loses, two zeros tie)."""
    err, tie = [Fraction(0)] * 2, [Fraction(0)] * 2
    for V in conditional_types(x1, x2, pair.ny):
        p = (type_class_probability(pair, x1, x2, V)[0],
             type_class_probability(pair, x2, x1, {(b, a): c for (a, b), c in V.items()})[0])
        s = [math.prod((pair.q[ab[i]][y] ** k for ab, comp in V.items() for y, k in enumerate(comp)),
                       start=Fraction(1)) for i in (0, 1)]
        if s[0] > s[1]:
            err[1] += p[1]
        elif s[0] < s[1]:
            err[0] += p[0]
        else:
            tie[0] += p[0]
            tie[1] += p[1]
    share = {"equiprobable": Fraction(1, 2), "as_error": Fraction(1), "genie_correct": Fraction(0)}[policy]
    return tuple(e + share * t for e, t in zip(err, tie)), (tie[0] + tie[1]) / 2


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


def projective_book(p, quotas):
    """The p-ary simplex book over GF(p)^2 for a prime ``p``: the letter map
    phi: GF(p) -> letters takes letter ``a`` on ``quotas[a]`` consecutive
    residues (the quotas sum to ``p``), and each projective point ``v`` of
    GF(p)^2, ``(1, m)`` for every ``m`` and ``(0, 1)``, gives the word
    ``t -> phi(v.t)`` over all ``t`` in GF(p)^2, so ``n = p^2`` and
    ``M = p + 1``.  Two distinct points are independent functionals, which take
    every value pair once: every word pair's letter-pair counts are
    ``quotas[a] * quotas[b]``, the joint type ``Q x Q`` with ``Q = quotas / p``."""
    phi = [a for a, k in enumerate(quotas) for _ in range(k)]
    assert len(phi) == p, "the quotas must sum to p"
    points = [(1, m) for m in range(p)] + [(0, 1)]
    words = tuple(tuple(phi[(v1 * t1 + v2 * t2) % p] for t1 in range(p) for t2 in range(p))
                  for v1, v2 in points)
    return zr.Codebook(words, len(quotas))


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
