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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair
from .errors import PreconditionError, ValidationError
from .exponent import (
    RelaxedKernel,
    _interval_search,
    _objective_rows,
    maximize_over_Q,
)
from .kernel import INF, PairKernel, _as_kernel, _integer_words, joint_counts
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
    """A list of equal-length words over an integer input alphabet."""

    words: tuple[tuple[int, ...], ...]
    alphabet_size: int

    def __post_init__(self):
        rows = [tuple(w) for w in self.words]
        size = self.alphabet_size
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
            raise ValidationError(f"alphabet size must be an integer, got {size!r}")
        if size < 1:
            raise ValidationError("alphabet size must be positive")
        if len(rows) < 2:
            raise ValidationError("a codebook needs at least two codewords")
        n = len(rows[0])
        if n < 1:
            raise ValidationError("codewords must be nonempty")
        # Words are checked in order, each for its length and then its
        # symbols: the first ragged word ends the range check.
        ragged = next((i for i, w in enumerate(rows) if len(w) != n), len(rows))
        try:
            x = np.array(checked := _integer_words(rows[:ragged]), dtype=np.int64)
        except OverflowError:
            x = np.array(checked, dtype=object)
        bad = (x < 0) | (x >= self.alphabet_size)
        if bad.any():
            idx = int(bad.any(axis=1).argmax())
            raise ValidationError(
                f"codeword {idx} contains symbol {x[idx, bad[idx].argmax()]} "
                f"outside [0, {self.alphabet_size})"
            )
        if ragged < len(rows):
            raise ValidationError(
                f"codeword {ragged} has length {len(rows[ragged])}, expected {n}"
            )
        object.__setattr__(self, "words", tuple(map(tuple, x.tolist())))
        object.__setattr__(self, "alphabet_size", int(size))

    @property
    def n(self) -> int:
        return len(self.words[0])

    @property
    def size(self) -> int:
        return len(self.words)

    def subcode(self, indices: Sequence[int]) -> "Codebook":
        picked = sorted(set(int(i) for i in indices))
        if len(picked) < 2:
            raise ValidationError("a subcode needs at least two distinct indices")
        if picked[0] < 0 or picked[-1] >= self.size:
            raise ValidationError("subcode index out of range")
        return Codebook(tuple(self.words[i] for i in picked), self.alphabet_size)

    def column_counts(self) -> np.ndarray:
        """Per-column composition: ``out[c, a]`` counts letter ``a`` in column ``c``."""
        return _onehot(self.words, self.alphabet_size).sum(axis=0)


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
        parts = line.split()
        if len(parts) != n:
            raise ValidationError(f"codeword {idx} has {len(parts)} symbols, expected {n}")
        try:
            words.append(list(map(int, parts)))
        except ValueError as exc:
            raise ValidationError(f"codeword {idx} contains a non-integer symbol") from exc
    return Codebook(tuple(words), nx)


def serialize_codebook(code: Codebook) -> str:
    lines = [f"{code.n} {code.size} {code.alphabet_size}"]
    lines.extend(" ".join(str(v) for v in w) for w in code.words)
    return "\n".join(lines) + "\n"


# -- joint types and the counting identity -------------------------------------


def joint_type(
    x1: Sequence[int], x2: Sequence[int], alphabet_size: Optional[int] = None
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact joint type of two words: ``P[a][b]`` is the fraction of
    coordinates where the first word shows ``a`` and the second ``b``."""
    if len(x1) != len(x2) or not x1:
        raise ValidationError("joint type needs two nonempty words of equal length")
    x1, x2 = _integer_words((x1, x2))
    n = len(x1)
    nx = alphabet_size if alphabet_size is not None else max(max(x1), max(x2)) + 1
    if min(min(x1), min(x2)) < 0 or max(max(x1), max(x2)) >= nx:
        raise ValidationError(f"joint type needs symbols in 0..{nx - 1}")
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


def _onehot(words: Sequence[Sequence[int]], nx: int) -> np.ndarray:
    """``out[w, c, a]`` is 1 where word ``w`` shows letter ``a`` in column ``c``."""
    x = np.asarray(words)
    if x.min() < 0 or x.max() >= nx:
        raise ValidationError("codeword symbol outside the input alphabet")
    return (x[:, :, None] == np.arange(nx)).astype(np.int64)


def _pair_counts(words: Sequence[Sequence[int]], nx: int) -> np.ndarray:
    """Letter-pair counts of every ordered word pair of a book: ``out[i, j, a, b]``
    counts the columns where word ``i`` shows ``a`` and word ``j`` shows ``b``.

    One float product of the one-hot rows ``(word, letter)`` over the columns
    with its transpose: exact, since every count is at most ``n``, far below 2**53."""
    onehot = _onehot(words, nx)
    m, n = onehot.shape[:2]
    rows = np.ascontiguousarray(onehot.transpose(0, 2, 1), dtype=float).reshape(m * nx, n)
    return (rows @ rows.T).reshape(m, nx, m, nx).transpose(0, 2, 1, 3).astype(np.int64, order="C")


def _book_sups(kernel: PairKernel, words: Sequence[Sequence[int]]):
    """Both directional sequence suprema of every word pair ``i < j``, in one batch.

    Returns the index arrays ``i, j`` (row-major) and the ``s_star``,
    ``value`` and ``attained`` arrays of shape ``(2, pairs)``: row 0 is
    word ``i`` against word ``j``, row 1 the reverse.  The letter-pair
    counts, merged onto the kernel's curves, are deduplicated and each
    distinct key is solved once; ``kernel.sequence_sup`` is one such row.
    """
    m, nx = len(words), kernel.pair.nx
    counts = _pair_counts(words, nx).reshape(m, m, nx * nx)
    i, j = np.triu_indices(m, 1)
    rows = np.concatenate([counts[i, j], counts[j, i]]) @ kernel._merge
    # Deduplicated by a dict, not np.unique: its first call imports numpy.ma (1.3 MB).
    index: dict[tuple, int] = {}
    inverse = np.array([index.setdefault(tuple(r), len(index)) for r in rows.tolist()])
    keys = np.array(list(index), dtype=np.int64).reshape(len(index), rows.shape[1])
    return (i, j) + tuple(a[inverse.reshape(2, len(i))] for a in kernel._sup_rows(keys))


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
    i, j, _, value, _ = _book_sups(_as_kernel(pair), code.words)
    out = np.zeros((code.size, code.size))
    out[i, j] = out[j, i] = _distances(value, code.n)
    return out


def d_min(pair: KernelSource, code: Codebook) -> tuple[float, tuple[int, int]]:
    """Smallest pairwise distance and the first index pair attaining it."""
    i, j, _, value, _ = _book_sups(_as_kernel(pair), code.words)
    return _argmin(i, j, _distances(value, code.n))


def _plotkin_sides(code: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the counting identity for every letter pair, times ``n``:
    ``lhs[a, b]`` sums the letter-pair counts ``(a, b)`` over all ordered
    word pairs, ``rhs[a, b]`` sums ``M_c(a) M_c(b)`` over the columns ``c``
    (as Python integers)."""
    lhs = _pair_counts(code.words, code.alphabet_size).sum(axis=(0, 1))
    cols = code.column_counts().astype(object)
    return lhs, cols.T @ cols


def plotkin_identity(code: Codebook, a: int, b: int) -> tuple[Fraction, Fraction]:
    """Both sides of the pair-counting identity for distinct letters:
    summing the joint type entry ``(a, b)`` over all ordered codeword
    pairs equals the column-composition product sum divided by ``n``."""
    nx = code.alphabet_size
    if not (0 <= a < nx and 0 <= b < nx):
        raise ValidationError("letter index out of range")
    if a == b:
        raise PreconditionError(
            "the counting identity is stated for distinct letters; "
            "the diagonal picks up a -M_c(a) correction"
        )
    # a word against itself counts only equal letters, so i == j adds nothing here
    lhs, rhs = _plotkin_sides(code)
    return Fraction(int(lhs[a, b]), code.n), Fraction(int(rhs[a, b]), code.n)


def plotkin_holds(code: Codebook) -> bool:
    """Exact check of the counting identity over every distinct letter
    pair, from one count of the book's letter pairs and its columns."""
    lhs, rhs = _plotkin_sides(code)
    off = ~np.eye(code.alphabet_size, dtype=bool)
    return all(int(left) == right for left, right in zip(lhs[off], rhs[off]))


# -- near-regular subcode extraction --------------------------------------------


def delta_closeness(m_hat: int, t: int) -> float:
    """Closeness budget used by the distance chain for a subcode of
    ``m_hat`` words whose pair types were quantized to a 1/t grid."""
    if m_hat < 2 or t < 1:
        raise PreconditionError("need m_hat >= 2 and t >= 1")
    return 6.0 / math.sqrt(m_hat) + 2.0 * math.sqrt(2.0 / t) + 3.0 / t


def komlos_asymmetry_bound(m_hat: int, spread: Union[float, Fraction]) -> float:
    """Cap on |P(a,b) - P(b,a)| over a subcode whose pair types all sit
    within ``spread`` of a common matrix, entry by entry."""
    if m_hat < 2:
        raise PreconditionError("need m_hat >= 2")
    d = float(spread)
    if not (math.isfinite(d) and d >= 0):
        raise PreconditionError("spread must be finite and nonnegative")
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


def _max_clique_exact(adj: dict[int, int], vertices: int, stop_at: int) -> int:
    """Maximum clique of a small graph given as vertex bitmasks.

    Classic recursive expansion with a pivot; returns the clique as a
    bitmask.  Stops early once a clique of ``stop_at`` vertices shows up.
    """
    best_mask = 0

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def expand(r_mask: int, r_size: int, p_mask: int, x_mask: int):
        nonlocal best_mask
        if best_mask.bit_count() >= stop_at:
            return
        if not p_mask and not x_mask:
            if r_size > best_mask.bit_count():
                best_mask = r_mask
            return
        if r_size + p_mask.bit_count() <= best_mask.bit_count():
            return
        pivot, pivot_deg = -1, -1
        for u in bits(p_mask | x_mask):
            deg = (p_mask & adj[u]).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = u, deg
        for v in list(bits(p_mask & ~adj[pivot])):
            vbit = 1 << v
            expand(r_mask | vbit, r_size + 1, p_mask & adj[v], x_mask & adj[v])
            p_mask &= ~vbit
            x_mask |= vbit

    expand(0, 0, vertices, 0)
    return best_mask


def _greedy_clique(adj: dict[int, int], verts: Sequence[int]) -> int:
    """Deterministic greedy clique: grow from each vertex, always adding
    the common neighbour with the most remaining connections."""
    best_mask, best_size = 0, 0
    for start in verts:
        mask = 1 << start
        cand = adj[start]
        size = 1
        while cand:
            pick, pick_deg = -1, -1
            m = cand
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                deg = (cand & adj[u]).bit_count()
                if deg > pick_deg:
                    pick, pick_deg = u, deg
            mask |= 1 << pick
            cand &= adj[pick]
            size += 1
        if size > best_size:
            best_mask, best_size = mask, size
    return best_mask


def komlos_extract(
    code: Codebook, t: int, target: int
) -> tuple[tuple[int, ...], SubcodeCertificate]:
    """Extract a subcode whose canonical pair types agree after flooring
    to a 1/t grid.

    Pairs ``i < j`` are colored by the tuple ``floor(t * P_ij)``; a
    monochromatic clique is then a subcode with entrywise type spread
    below ``1/t``.  The clique search is exact for books of at most 16
    words and greedy beyond that, and the certificate always reports
    achieved quantities rather than promised ones.  If no clique of
    ``target`` words is found the best one is returned with
    ``target_met`` cleared.
    """
    if t < 1:
        raise PreconditionError("quantization t must be a positive integer")
    m = code.size
    if not 2 <= target <= m:
        raise PreconditionError("need 2 <= target <= number of codewords")
    n, nx = code.n, code.alphabet_size

    counts = _pair_counts(code.words, nx)
    i, j = np.triu_indices(m, 1)
    # From t = n on, floor(t * c / n) rises strictly with c, so t = n gives the same
    # classes in the same order, and the product stays within int64.
    keys = (min(t, n) * counts[i, j].reshape(len(i), nx * nx)) // n
    colors: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for edge, key in zip(zip(i.tolist(), j.tolist()), keys.tolist()):
        colors.setdefault(tuple(key), []).append(edge)

    first_edge = (0, 1)
    best_mask = (1 << first_edge[0]) | (1 << first_edge[1])
    ordered = sorted(colors.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    for _, edges in ordered:
        if best_mask.bit_count() >= target:
            break
        if len(edges) + 1 <= best_mask.bit_count():
            continue  # even a complete color class cannot beat the incumbent
        verts = sorted({v for e in edges for v in e})
        adj = {v: 0 for v in verts}
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        if m <= 16:
            vert_mask = 0
            for v in verts:
                vert_mask |= 1 << v
            mask = _max_clique_exact(adj, vert_mask, target)
        else:
            mask = _greedy_clique(adj, verts)
        if mask.bit_count() > best_mask.bit_count():
            best_mask = mask

    selected = [v for v in range(m) if best_mask >> v & 1]
    if len(selected) > target:
        selected = selected[:target]
    m_hat = len(selected)
    target_met = m_hat >= target

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
        target_met=target_met,
    )
    return tuple(selected), cert


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
    picked = sorted(set(int(i) for i in subcode))
    if len(picked) < 2:
        raise PreconditionError("the chain needs a subcode of at least two words")
    if picked[0] < 0 or picked[-1] >= code.size:
        raise PreconditionError("subcode index out of range")
    m_hat = len(picked)
    delta = delta_closeness(m_hat, t)
    n = code.n

    s_cap = kernel.s_cap()
    # 1e-3 steps, but never more than 4096 of them on a long interval
    grid = np.arange(0.0, s_cap, max(1e-3, s_cap / 4096))
    grid = np.append(grid, s_cap)
    k_const = float(np.abs(kernel.mu_grid(grid)).sum(axis=(1, 2)).max())

    # One batch over the whole book: its minimum, and the subcode pairs' suprema.
    ii, jj, s_star, value, attained = _book_sups(kernel, code.words)
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
    compositions = _onehot(sub.words, kernel.pair.nx).sum(axis=0) / m_hat
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
