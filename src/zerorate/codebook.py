"""Codebook analysis built on the pairwise tilted kernel.

Words over the channel input alphabet are compared through the two
directional sequence kernels; the smaller of the two normalized suprema
acts as a distance, and its minimum over a codebook caps the reliability
any decoder gets out of that book once the rate is negligible.  The
module also provides the exact counting identity linking ordered pair
types to column compositions, extraction of subcodes whose pairwise
joint types agree after quantization, and the chain of inequalities
bounding the extracted minimum distance by the input-optimized
objective.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair, _checked_int, _kept, _letter_pair
from .errors import BudgetExceededError, PreconditionError, ValidationError
from .exponent import (
    RelaxedKernel,
    _interval_search,
    _objective_rows,
    maximize_over_Q,
)
from .kernel import INF, PairKernel, _as_kernel, _checked_words, joint_counts
from .zero_error import is_balanced

__all__ = [
    "Codebook",
    "parse_codebook",
    "serialize_codebook",
    "joint_type",
    "pair_distance",
    "distance_matrix",
    "d_min",
    "plotkin_identity",
    "plotkin_holds",
    "delta_closeness",
    "komlos_asymmetry_bound",
    "SubcodeCertificate",
    "komlos_extract",
    "ChainCheck",
    "DMinCertificate",
    "dmin_certificate",
    "pe_lower_bound_from_dmin",
]

KernelSource = Union[ChannelMetricPair, PairKernel]


@dataclass(frozen=True)
class Codebook:
    """A list of equal-length words over an integer input alphabet.

    A book keeps, in its attribute dict, the tables its functions build on
    first use: its letter-pair counts (:func:`_pair_counts`), each checked
    extraction of :func:`komlos_extract`, and the suprema batch
    (:func:`_book_sups`) of the last kernel it was asked with.  Every kept
    array is read-only; equality, hashing and pickling ignore the tables.
    """

    words: tuple[tuple[int, ...], ...]
    alphabet_size: int

    def __post_init__(self):
        size = _checked_int("alphabet size", self.alphabet_size, 1, ValidationError)
        object.__setattr__(self, "words", tuple(map(tuple, _checked_words(self.words, size).tolist())))
        object.__setattr__(self, "alphabet_size", size)

    @property
    def n(self) -> int:
        return len(self.words[0])

    @property
    def size(self) -> int:
        return len(self.words)

    def subcode(self, indices: Sequence[int]) -> "Codebook":
        return Codebook(tuple(self.words[i] for i in _subcode_indices(self, indices)), self.alphabet_size)

    def column_counts(self) -> np.ndarray:
        """Per-column composition: ``out[c, a]`` counts letter ``a`` in column ``c``."""
        return _onehot(self, self.alphabet_size).sum(axis=0)

    def __getstate__(self) -> dict:
        """Pickle the fields alone: the pickle carries none of the tables
        kept on the book, and the unpickled book builds its own on first use."""
        return {"words": self.words, "alphabet_size": self.alphabet_size}


def _subcode_indices(code: Codebook, indices: Sequence[int]) -> list[int]:
    """The distinct ``indices`` of words of ``code``, sorted: each through
    :func:`_checked_int` and below ``code.size``, two or more, or :class:`ValidationError`."""
    picked = sorted({_checked_int("subcode index", i, 0, ValidationError) for i in indices})
    if len(picked) < 2:
        raise ValidationError("a subcode needs at least two distinct indices")
    if picked[-1] >= code.size:
        raise ValidationError(f"subcode index {picked[-1]} is not below the book size {code.size}")
    return picked


def parse_codebook(text: str) -> Codebook:
    """Read the plain text format: a header line ``n M |X|`` followed by
    ``M`` lines of ``n`` space-separated symbol indices.  Blank lines and
    lines starting with ``#`` are skipped."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append(line)
    if not rows:
        raise ValidationError("empty codebook document")
    head = rows[0].split()
    if len(head) != 3:
        raise ValidationError("header must be three integers: n M |X|")
    try:
        n, m, nx = (int(v) for v in head)
    except ValueError as exc:
        raise ValidationError(f"bad header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise ValidationError(f"expected {m} codeword lines, found {len(rows) - 1}")
    words = []
    for idx, line in enumerate(rows[1:]):
        try:
            words.append(list(map(int, line.split())))
        except ValueError as exc:
            raise ValidationError(f"codeword {idx} contains a non-integer symbol") from exc
    code = Codebook(tuple(words), nx)
    if code.n != n:
        raise ValidationError(f"the header says n = {n}, but the codewords have length {code.n}")
    return code


def serialize_codebook(code: Codebook) -> str:
    lines = [f"{code.n} {code.size} {code.alphabet_size}"]
    lines.extend(" ".join(str(v) for v in w) for w in code.words)
    return "\n".join(lines) + "\n"


# -- joint types and the counting identity -------------------------------------

# Entries a joint type may hold: 1024 letters, about 0.6 s of Fractions.
_JOINT_TYPE_CELLS = 2**20


def joint_type(
    x1: Sequence[int], x2: Sequence[int], alphabet_size: Optional[int] = None
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact joint type of two words, checked against ``alphabet_size`` when given:
    ``P[a][b]`` is the fraction of coordinates where the first word shows ``a``
    and the second ``b``, for letters below ``alphabet_size`` or the largest symbol's
    successor.  Past ``_JOINT_TYPE_CELLS`` entries it raises :class:`BudgetExceededError`."""
    nx = None if alphabet_size is None else _checked_int("alphabet size", alphabet_size, 1, ValidationError)
    x1, x2 = _checked_words((x1, x2), nx).tolist()
    n = len(x1)
    nx = nx or max(max(x1), max(x2)) + 1
    if nx * nx > _JOINT_TYPE_CELLS:
        raise BudgetExceededError(f"a joint type over {nx} letters has more than {_JOINT_TYPE_CELLS} entries")
    counts = joint_counts(x1, x2)
    return tuple(tuple(Fraction(counts.get((a, b), 0), n) for b in range(nx)) for a in range(nx))


def pair_distance(pair: KernelSource, x1: Sequence[int], x2: Sequence[int]) -> float:
    """Tilted distance between two words: the better of the two
    directional suprema, normalized per letter.  Symmetric by
    construction; infinite only when both directions diverge, which the
    zero-error condition excludes."""
    kernel = _as_kernel(pair)
    forward = kernel.sequence_sup(x1, x2).value
    backward = kernel.sequence_sup(x2, x1).value
    best = min(forward, backward)
    return float(best) / len(x1) if best != INF else INF


def _onehot(words: Union[Codebook, Sequence[Sequence[int]]], nx: int) -> np.ndarray:
    """``out[w, c, a]`` is 1 where word ``w`` (of :func:`_checked_words` in ``[0, nx)``)
    shows letter ``a`` in column ``c``."""
    x = _checked_words(words, nx)
    return (x[:, :, None] == np.arange(nx)).astype(np.int64)


def _pair_counts(words: Union[Codebook, Sequence[Sequence[int]]], nx: Optional[int] = None) -> np.ndarray:
    """Letter-pair counts of every ordered word pair of a book: ``out[i, j, a, b]``
    counts the columns where word ``i`` shows ``a`` and word ``j`` shows ``b``.

    The letters run up to ``nx`` when it is given, and every symbol must lie
    below it; else up to the largest symbol the words use, whatever alphabet the
    book declares.  Words that are not a :class:`Codebook` are read as a book
    over ``nx`` letters.  The counts over the used letters are one float product
    of the one-hot rows ``(word, letter)`` over the columns with its transpose:
    exact, since every count is at most ``n``, far below 2**53.  The book keeps
    them, read-only; letters it never uses get exact zero rows and columns."""

    def count(code: Codebook) -> np.ndarray:
        x = _checked_words(code)
        m, n = x.shape
        used = int(x.max()) + 1
        rows = (x[:, None, :] == np.arange(used)[:, None]).astype(float).reshape(m * used, n)
        out = (rows @ rows.T).reshape(m, used, m, used).transpose(0, 2, 1, 3).astype(np.int64, order="C")
        out.setflags(write=False)
        return out

    code = words if isinstance(words, Codebook) else Codebook(words, nx)
    counts = _kept(code, "_pair_counts", count)
    used = counts.shape[-1]
    if nx is None or nx == used:
        return counts
    if nx < used:
        _checked_words(code, nx)        # raises, naming the first symbol at or above nx
    return np.pad(counts, ((0, 0), (0, 0), (0, nx - used), (0, nx - used)))


def _kept_for(book: Codebook, name: str, key, build):
    """``build(book)``, kept on the book in one slot for the last ``key`` it was
    asked with, compared by identity: another key builds and replaces it."""
    slot = vars(book).get(name)
    if slot is None or slot[0] is not key:
        slot = vars(book)[name] = (key, build(book))
    return slot[1]


def _book_sups(kernel: PairKernel, code: Codebook):
    """Both directional sequence suprema of every word pair ``i < j``, in one batch.

    Returns the index arrays ``i, j`` (row-major) and the ``s_star``,
    ``value`` and ``attained`` arrays of shape ``(2, pairs)``: row 0 is
    word ``i`` against word ``j``, row 1 the reverse.  The letter-pair
    counts, merged onto the kernel's curves, are deduplicated and each
    distinct key is solved once; ``kernel.sequence_sup`` is one such row.
    The book keeps the batch, read-only, for the last kernel it was asked
    with, compared by identity: the raw kernel a pair keeps finds it, a
    fresh ``RelaxedKernel`` solves its own, and another kernel replaces it.
    """

    def solve(code: Codebook) -> tuple:
        m, nx = code.size, kernel.pair.nx
        counts = _pair_counts(code, nx).reshape(m, m, nx * nx)
        i, j = np.triu_indices(m, 1)
        rows = np.concatenate([counts[i, j], counts[j, i]]) @ kernel._merge
        # Deduplicated by a dict, not np.unique: its first call imports numpy.ma (1.3 MB).
        index: dict[tuple, int] = {}
        inverse = np.array([index.setdefault(tuple(r), len(index)) for r in rows.tolist()])
        keys = np.array(list(index), dtype=np.int64).reshape(len(index), rows.shape[1])
        batch = (i, j) + tuple(a[inverse.reshape(2, len(i))] for a in kernel._sup_rows(keys))
        for a in batch:
            a.setflags(write=False)
        return batch

    return _kept_for(code, "_book_sups", kernel, solve)


def _distances(value: np.ndarray, n: int) -> np.ndarray:
    """``pair_distance`` of each pair from the ``value`` rows of :func:`_book_sups`."""
    forward, backward = value
    return np.where(backward < forward, backward, forward) / n


def _argmin(i: np.ndarray, j: np.ndarray, dist: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Smallest distance and the first pair ``(i[k], j[k])`` attaining it."""
    dist = np.where(dist < INF, dist, INF)     # NaN never wins
    k = int(np.argmin(dist))
    if not dist[k] < INF:
        return INF, (0, 1)
    return float(dist[k]), (int(i[k]), int(j[k]))


def distance_matrix(pair: KernelSource, code: Codebook) -> np.ndarray:
    """Pairwise distances of the book (zero diagonal), from its kept batch."""
    i, j, _, value, _ = _book_sups(_as_kernel(pair), code)
    out = np.zeros((code.size, code.size))
    out[i, j] = out[j, i] = _distances(value, code.n)
    return out


def d_min(pair: KernelSource, code: Codebook) -> tuple[float, tuple[int, int]]:
    """Smallest pairwise distance and the first index pair attaining it.

    Read off the book's suprema batch, which the book keeps for the kernel:
    after a certificate on the pair's raw kernel, this solves nothing."""
    i, j, _, value, _ = _book_sups(_as_kernel(pair), code)
    return _argmin(i, j, _distances(value, code.n))


def _plotkin_sides(code: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the counting identity for every pair of the letters the
    book uses, times ``n``: ``lhs[a, b]`` sums the letter-pair counts ``(a, b)``
    over all ordered word pairs, ``rhs[a, b]`` sums ``M_c(a) M_c(b)`` over the
    columns ``c`` (as Python integers).  Letters the words never use count
    nothing on either side."""
    counts = _pair_counts(code)
    cols = _onehot(code, counts.shape[-1]).sum(axis=0).astype(object)
    return counts.sum(axis=(0, 1)), cols.T @ cols


def plotkin_identity(code: Codebook, a: int, b: int) -> tuple[Fraction, Fraction]:
    """Both sides of the pair-counting identity for distinct letters:
    summing the joint type entry ``(a, b)`` over all ordered codeword
    pairs equals the column-composition product sum divided by ``n``."""
    a, b = _letter_pair(code.alphabet_size, a, b)
    if a == b:
        raise PreconditionError(
            "the counting identity is stated for distinct letters; "
            "the diagonal picks up a -M_c(a) correction"
        )
    # a word against itself counts only equal letters, so i == j adds nothing here,
    # and a letter no word uses counts nothing on either side
    lhs, rhs = (dict(np.ndenumerate(side)).get((a, b), 0) for side in _plotkin_sides(code))
    return Fraction(int(lhs), code.n), Fraction(int(rhs), code.n)


def plotkin_holds(code: Codebook) -> bool:
    """Exact check of the counting identity over every distinct letter
    pair, from one count of the book's letter pairs and its columns."""
    lhs, rhs = _plotkin_sides(code)
    off = ~np.eye(len(lhs), dtype=bool)
    return all(int(left) == right for left, right in zip(lhs[off], rhs[off]))


# -- near-regular subcode extraction --------------------------------------------


def delta_closeness(m_hat: int, t: int) -> float:
    """Closeness budget used by the distance chain for a subcode of
    ``m_hat`` words whose pair types were quantized to a 1/t grid."""
    m_hat, t = _checked_int("m_hat", m_hat, 2), _checked_int("t", t, 1)
    return 6.0 / math.sqrt(m_hat) + 2.0 * math.sqrt(2.0 / t) + 3.0 / t


def komlos_asymmetry_bound(m_hat: int, spread: Union[float, Fraction]) -> float:
    """Cap on |P(a,b) - P(b,a)| over a subcode whose pair types all sit
    within ``spread`` of a common matrix, entry by entry."""
    m_hat = _checked_int("m_hat", m_hat, 2)
    # compared exactly, so a rational too large for a float fails rather than overflows
    if not 0 <= spread <= sys.float_info.max:
        raise PreconditionError("spread must be finite and nonnegative")
    d = float(spread)
    return 6.0 / math.sqrt(m_hat) + 4.0 * math.sqrt(d) + 4.0 * d


@dataclass(frozen=True)
class SubcodeCertificate:
    """What the extraction actually achieved, measured on its output."""

    selected: tuple[int, ...]
    t: int
    m_hat: int
    delta: float
    observed_spread: Fraction
    observed_asymmetry: Fraction
    asymmetry_bound: float
    target_met: bool


# Branches the exact clique search may take in one color class.
_CLIQUE_BUDGET = 2**14


def _greedy_clique(adj: dict[int, int], verts: Sequence[int]) -> int:
    """Deterministic greedy clique: grow from each vertex, always adding
    the common neighbour with the most remaining connections."""
    best_mask = 0
    for start in verts:
        mask, cand = 1 << start, adj[start]
        while cand:
            pick, pick_deg = -1, -1
            m = cand
            while m:
                u = (m & -m).bit_length() - 1
                m &= ~(1 << u)
                deg = (cand & adj[u]).bit_count()
                if deg > pick_deg:
                    pick, pick_deg = u, deg
            mask |= 1 << pick
            cand &= adj[pick]
        if mask.bit_count() > best_mask.bit_count():
            best_mask = mask
    return best_mask


def _coloring(adj: dict[int, int], cand: int) -> list[tuple[int, int]]:
    """Greedy sequential coloring of the vertex bitmask ``cand``: ``(v, color)``
    pairs in color order, colors counted from 1."""
    out, color = [], 0
    while cand:
        color, free = color + 1, cand
        while free:
            v = (free & -free).bit_length() - 1
            out.append((v, color))
            cand &= ~(1 << v)
            free &= ~(adj[v] | 1 << v)
    return out


def _clique(adj: dict[int, int], verts: Sequence[int], target: int, floor: int) -> int:
    """A clique of at least ``target`` vertices, else a maximum one, as a bitmask; if no
    clique beats ``floor``, any of ``floor`` or fewer (0 when the class's coloring shows it).

    The greedy dive's clique is kept if it reaches ``target``.  Else the larger of it and
    ``floor`` is the incumbent of Tomita & Seki's branch and bound (MCQ), which stops at
    ``target``: a branch ends once a candidate's greedy color cannot lift the clique past
    the incumbent.  Past ``_CLIQUE_BUDGET`` branches it raises :class:`BudgetExceededError`."""
    everything = sum(1 << v for v in verts)
    if _coloring(adj, everything)[-1][1] <= floor:
        return 0        # the colors bound every clique
    best = _greedy_clique(adj, verts)
    size, nodes = max(floor, best.bit_count()), 0

    def expand(clique: int, cand: int):
        nonlocal best, size, nodes
        nodes += 1
        if nodes > _CLIQUE_BUDGET:
            raise BudgetExceededError(f"the clique search of a color class passed {_CLIQUE_BUDGET} branches")
        for v, color in reversed(_coloring(adj, cand)):
            if size >= target or clique.bit_count() + color <= size:
                return
            grown = clique | 1 << v
            if grown.bit_count() > size:
                best, size = grown, grown.bit_count()
            expand(grown, cand & adj[v])
            cand &= ~(1 << v)

    if size < target:
        expand(0, everything)
    return best


def komlos_extract(
    code: Codebook, t: int, target: int
) -> tuple[tuple[int, ...], SubcodeCertificate]:
    """Extract a subcode whose canonical pair types agree after flooring
    to a 1/t grid.

    Pairs ``i < j`` are colored by the tuple ``floor(t * P_ij)``; a
    monochromatic clique is then a subcode with entrywise type spread
    below ``1/t``.  Every color class, at every book size, gets one exact
    search (:func:`_clique`: a greedy dive, then branch and bound), so a
    cleared ``target_met`` certifies that no class holds ``target`` words;
    the largest clique is returned then.  The certificate always reports
    achieved quantities rather than promised ones.  Types are read over the
    letters the words use: the others add only zero entries, which change
    neither the classes, their order nor any spread.

    The book keeps the result of each checked ``(t, target)``, so a second
    call searches nothing; a call that raises keeps nothing.
    """
    t, target, m = _checked_int("t", t, 1), _checked_int("target", target, 2), code.size
    if target > m:
        raise PreconditionError(f"target must be at most the number of codewords {m}, got {target}")
    extractions = _kept(code, "_extractions", lambda _: {})
    if (t, target) in extractions:
        return extractions[t, target]
    counts = _pair_counts(code)
    n, nx = code.n, counts.shape[-1]
    i, j = np.triu_indices(m, 1)
    # From t = n on, floor(t * c / n) rises strictly with c, so t = n gives the same
    # classes in the same order, and the product stays within int64.
    keys = (min(t, n) * counts[i, j].reshape(len(i), nx * nx)) // n
    colors: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for edge, key in zip(zip(i.tolist(), j.tolist()), keys.tolist()):
        colors.setdefault(tuple(key), []).append(edge)

    best_mask = 0b11        # the words 0 and 1 are a clique of their own color
    for _, edges in sorted(colors.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        if best_mask.bit_count() >= target:
            break
        if len(edges) + 1 <= best_mask.bit_count():
            continue  # even a complete color class cannot beat the incumbent
        verts = sorted({v for e in edges for v in e})
        adj = {v: 0 for v in verts}
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        best_mask = max(best_mask, _clique(adj, verts, target, best_mask.bit_count()), key=int.bit_count)

    selected = [v for v in range(m) if best_mask >> v & 1][:target]
    m_hat = len(selected)

    si, sj = np.triu_indices(m_hat, 1)
    sel = np.array(selected)
    chosen = counts[sel[si], sel[sj]]
    spread = Fraction(int((chosen.max(axis=0) - chosen.min(axis=0)).max()), n)
    asym = Fraction(int(np.abs(chosen - chosen.transpose(0, 2, 1)).max()), n)

    cert = SubcodeCertificate(
        selected=tuple(selected),
        t=t,
        m_hat=m_hat,
        delta=delta_closeness(m_hat, t),
        observed_spread=spread,
        observed_asymmetry=asym,
        asymmetry_bound=komlos_asymmetry_bound(m_hat, spread),
        target_met=m_hat >= target,
    )
    extractions[t, target] = tuple(selected), cert
    return extractions[t, target]


# -- the minimum-distance upper bound chain --------------------------------------


@dataclass(frozen=True)
class ChainCheck:
    name: str
    lhs: float
    rhs: float
    slack: float
    ok: bool


@dataclass(frozen=True)
class DMinCertificate:
    selected: tuple[int, ...]
    t: int
    m_hat: int
    delta: float
    k_const: float
    s_cap: float
    anchor: tuple[int, int]
    s_bar_anchor: float
    dmin_code: float
    dmin_code_pair: tuple[int, int]
    dmin_subcode: float
    average_distance: float
    average_at_own_tilt: float
    average_at_anchor_tilt: float
    q_objective_at_anchor: float
    optimized_objective: float
    lines: tuple[tuple[str, float], ...]
    checks: tuple[ChainCheck, ...]
    s_bar_within_cap: bool
    tilt_shift_ok: bool
    plotkin_ok: bool
    all_ok: bool


def _certificate_kernel(pair: KernelSource) -> PairKernel:
    if isinstance(pair, RelaxedKernel):
        return pair
    kernel = _as_kernel(pair)
    balanced, _ = is_balanced(kernel.pair)
    if not balanced:
        raise PreconditionError(
            "the distance chain needs a balanced pair; wrap the pair in "
            "RelaxedKernel for the general upper-bound form"
        )
    return kernel


def _check(name: str, lhs: float, rhs: float) -> ChainCheck:
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs - lhs
    tol = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    return ChainCheck(name=name, lhs=lhs, rhs=rhs, slack=slack, ok=bool(slack >= -tol))


def dmin_certificate(
    pair: KernelSource,
    code: Codebook,
    subcode: Sequence[int],
    t: int,
) -> DMinCertificate:
    """Evaluate every link of the chain bounding the codebook's minimum
    distance by the optimized single-letter objective.

    The subcode (typically from :func:`komlos_extract`) supplies the
    closeness budget ``delta``; ``K`` caps the total absolute kernel mass
    over the tilt interval; all tilts are measured at each pair's own
    best point and at the anchor pair's, and the final comparisons pick
    up the ``m_hat/(m_hat - 1)`` factor from turning ordered-pair
    averages into a quadratic form without its diagonal.
    """
    kernel = _certificate_kernel(pair)
    picked = _subcode_indices(code, subcode)
    m_hat, t = len(picked), _checked_int("t", t, 1)
    delta = delta_closeness(m_hat, t)
    n = code.n

    s_cap = kernel.s_cap()
    # 1e-3 steps, but never more than 4096 of them on a long interval
    grid = np.arange(0.0, s_cap, max(1e-3, s_cap / 4096))
    grid = np.append(grid, s_cap)
    k_const = float(np.abs(kernel.mu_grid(grid)).sum(axis=(1, 2)).max())

    # One batch over the whole book: its minimum, and the subcode pairs' suprema.
    ii, jj, s_star, value, attained = _book_sups(kernel, code)
    dist = _distances(value, n)
    dmin_code, dmin_pair = _argmin(ii, jj, dist)
    dists = {}
    tilts = {}
    for p in np.flatnonzero(np.isin(ii, picked) & np.isin(jj, picked)).tolist():
        s_bar = min(float(s_star[d, p]) if attained[d, p] else INF for d in (0, 1))
        if s_bar == INF:
            raise PreconditionError(
                "a subcode pair lacks a finite best tilt; the kernel is not usable here"
            )
        ij = (int(ii[p]), int(jj[p]))
        dists[ij], tilts[ij] = float(dist[p]), s_bar

    anchor = (picked[0], picked[1])
    s_bar_anchor = tilts[anchor]
    s_bar_within_cap = all(v <= s_cap + 1e-9 for v in tilts.values())

    dmin_sub = min(dists.values())
    avg_dist = sum(dists.values()) / len(dists)

    ordered_pairs = m_hat * (m_hat - 1)
    own_sum = 0.0
    anchor_sum = 0.0
    tilt_shift_ok = True
    budget = 4.0 * k_const * delta
    # every pair's sequence kernels both ways, at its own tilt and the anchor's, in one batch
    ij, words = np.array(list(tilts)), np.array(code.words)
    seq, _ = kernel._sequence_rows(words[ij[:, [0, 1, 0, 1]].ravel()], words[ij[:, [1, 0, 1, 0]].ravel()],
                                np.ravel([(s, s, s_bar_anchor, s_bar_anchor) for s in tilts.values()]))
    for f_own, b_own, f_anchor, b_anchor in seq.reshape(-1, 4).tolist():
        own_sum += f_own + b_own
        anchor_sum += f_anchor + b_anchor
        tol = 1e-9 * max(1.0, budget)
        if abs(f_own - f_anchor) / n > budget + tol or abs(b_own - b_anchor) / n > budget + tol:
            tilt_shift_ok = False
    avg_own = own_sum / (ordered_pairs * n)
    avg_anchor = anchor_sum / (ordered_pairs * n)

    q_at_anchor = maximize_over_Q(kernel, s_bar_anchor).value
    # The chain's comparison point is reachable from the subcode's own column
    # compositions, so feed those in as well; the search then can never land
    # below the value the algebra guarantees.  The compositions count the
    # pair's letters, whatever alphabet the book declares.
    sub = code.subcode(picked)
    compositions = _onehot(sub, kernel.pair.nx).sum(axis=0) / m_hat
    columns = _objective_rows(kernel.mu_matrix(s_bar_anchor), compositions)
    q_at_anchor = max(q_at_anchor, float(columns.max()))
    sup_value = max(_interval_search(kernel, s_cap)[0], q_at_anchor)
    factor = m_hat / (m_hat - 1)

    lines = (
        ("dmin_code", float(dmin_code)),
        ("dmin_subcode", float(dmin_sub)),
        ("average_distance", float(avg_dist)),
        ("average_at_own_tilt_plus_k_delta", float(avg_own + k_const * delta)),
        ("average_at_anchor_tilt_plus_5k_delta", float(avg_anchor + 5.0 * k_const * delta)),
        ("scaled_objective_at_anchor_plus_5k_delta",
         float(factor * q_at_anchor + 5.0 * k_const * delta)),
        ("scaled_optimized_objective_plus_5k_delta",
         float(factor * sup_value + 5.0 * k_const * delta)),
    )
    checks = tuple(
        _check(f"{lines[k][0]} <= {lines[k + 1][0]}", lines[k][1], lines[k + 1][1])
        for k in range(len(lines) - 1)
    )

    plotkin_ok = plotkin_holds(sub)
    all_ok = (
        all(c.ok for c in checks) and plotkin_ok and tilt_shift_ok and s_bar_within_cap
    )
    return DMinCertificate(
        selected=tuple(picked),
        t=t,
        m_hat=m_hat,
        delta=delta,
        k_const=k_const,
        s_cap=float(s_cap),
        anchor=anchor,
        s_bar_anchor=float(s_bar_anchor),
        dmin_code=float(dmin_code),
        dmin_code_pair=dmin_pair,
        dmin_subcode=float(dmin_sub),
        average_distance=float(avg_dist),
        average_at_own_tilt=float(avg_own),
        average_at_anchor_tilt=float(avg_anchor),
        q_objective_at_anchor=float(q_at_anchor),
        optimized_objective=float(sup_value),
        lines=lines,
        checks=checks,
        s_bar_within_cap=s_bar_within_cap,
        tilt_shift_ok=tilt_shift_ok,
        plotkin_ok=plotkin_ok,
        all_ok=all_ok,
    )


def pe_lower_bound_from_dmin(pair: KernelSource, code: Codebook) -> float:
    """Exponent-level cap implied by the book's minimum distance: the
    best pair's distance plus the rate ``log(M)/n``, in nats per symbol."""
    return _rate_cap(d_min(pair, code)[0], code)


def _rate_cap(value: float, code: Codebook) -> float:
    """A book's distance plus its rate ``log(M)/n``."""
    return INF if value == INF else value + math.log(code.size) / code.n
