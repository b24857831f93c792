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
    SearchOptions,
    maximize_over_Q,
    objective,
    optimized_objective,
)
from .kernel import INF, PairKernel
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
        words = tuple(tuple(int(v) for v in w) for w in self.words)
        object.__setattr__(self, "words", words)
        if self.alphabet_size < 1:
            raise ValidationError("alphabet size must be positive")
        if len(words) < 2:
            raise ValidationError("a codebook needs at least two codewords")
        n = len(words[0])
        if n < 1:
            raise ValidationError("codewords must be nonempty")
        for idx, w in enumerate(words):
            if len(w) != n:
                raise ValidationError(f"codeword {idx} has length {len(w)}, expected {n}")
            for v in w:
                if not 0 <= v < self.alphabet_size:
                    raise ValidationError(
                        f"codeword {idx} contains symbol {v} outside [0, {self.alphabet_size})"
                    )

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
        out = np.zeros((self.n, self.alphabet_size), dtype=np.int64)
        for w in self.words:
            for c, v in enumerate(w):
                out[c, v] += 1
        return out


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
            words.append(tuple(int(v) for v in parts))
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
    n = len(x1)
    nx = alphabet_size if alphabet_size is not None else max(max(x1), max(x2)) + 1
    counts = [[0] * nx for _ in range(nx)]
    for u, v in zip(x1, x2):
        counts[u][v] += 1
    return tuple(tuple(Fraction(c, n) for c in row) for row in counts)


def _pair_counts(x1: Sequence[int], x2: Sequence[int], nx: int) -> list[list[int]]:
    counts = [[0] * nx for _ in range(nx)]
    for u, v in zip(x1, x2):
        counts[u][v] += 1
    return counts


def _as_kernel(pair: KernelSource) -> PairKernel:
    if isinstance(pair, PairKernel):
        return pair
    if isinstance(pair, ChannelMetricPair):
        return PairKernel(pair)
    raise ValidationError("expected a channel/metric pair or a kernel built from one")


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


def distance_matrix(pair: KernelSource, code: Codebook) -> np.ndarray:
    kernel = _as_kernel(pair)
    m = code.size
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = pair_distance(kernel, code.words[i], code.words[j])
    return out


def d_min(pair: KernelSource, code: Codebook) -> tuple[float, tuple[int, int]]:
    """Smallest pairwise distance and the first index pair attaining it."""
    kernel = _as_kernel(pair)
    best = INF
    arg = (0, 1)
    for i in range(code.size):
        for j in range(i + 1, code.size):
            d = pair_distance(kernel, code.words[i], code.words[j])
            if d < best:
                best, arg = d, (i, j)
    return best, arg


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
    n = code.n
    total = 0
    for i, wi in enumerate(code.words):
        for j, wj in enumerate(code.words):
            if i != j:
                total += sum(1 for u, v in zip(wi, wj) if u == a and v == b)
    lhs = Fraction(total, n)
    cols = code.column_counts()
    rhs = Fraction(int(np.sum(cols[:, a].astype(object) * cols[:, b].astype(object))), n)
    return lhs, rhs


def plotkin_holds(code: Codebook) -> bool:
    """Exact check of the counting identity over every distinct letter pair."""
    for a in range(code.alphabet_size):
        for b in range(code.alphabet_size):
            if a != b:
                lhs, rhs = plotkin_identity(code, a, b)
                if lhs != rhs:
                    return False
    return True


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
    if d < 0:
        raise PreconditionError("spread must be nonnegative")
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
        if bin(best_mask).count("1") >= stop_at:
            return
        if not p_mask and not x_mask:
            if r_size > bin(best_mask).count("1"):
                best_mask = r_mask
            return
        if r_size + bin(p_mask).count("1") <= bin(best_mask).count("1"):
            return
        pivot, pivot_deg = -1, -1
        for u in bits(p_mask | x_mask):
            deg = bin(p_mask & adj[u]).count("1")
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
                deg = bin(cand & adj[u]).count("1")
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

    pair_cnt: dict[tuple[int, int], list[list[int]]] = {}
    colors: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i in range(m):
        for j in range(i + 1, m):
            counts = _pair_counts(code.words[i], code.words[j], nx)
            pair_cnt[(i, j)] = counts
            key = tuple((t * c) // n for row in counts for c in row)
            colors.setdefault(key, []).append((i, j))

    first_edge = (0, 1)
    best_mask = (1 << first_edge[0]) | (1 << first_edge[1])
    ordered = sorted(colors.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    for _, edges in ordered:
        if bin(best_mask).count("1") >= target:
            break
        if len(edges) + 1 <= bin(best_mask).count("1"):
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
        if bin(mask).count("1") > bin(best_mask).count("1"):
            best_mask = mask

    selected = [v for v in range(m) if best_mask >> v & 1]
    if len(selected) > target:
        selected = selected[:target]
    m_hat = len(selected)
    target_met = m_hat >= target

    spread = Fraction(0)
    asym = Fraction(0)
    for ii in range(m_hat):
        for jj in range(ii + 1, m_hat):
            key = (selected[ii], selected[jj])
            if key not in pair_cnt:
                pair_cnt[key] = _pair_counts(code.words[key[0]], code.words[key[1]], nx)
    for a in range(nx):
        for b in range(nx):
            values = [
                pair_cnt[(selected[ii], selected[jj])][a][b]
                for ii in range(m_hat)
                for jj in range(ii + 1, m_hat)
            ]
            spread = max(spread, Fraction(max(values) - min(values), n))
    for ii in range(m_hat):
        for jj in range(ii + 1, m_hat):
            counts = pair_cnt[(selected[ii], selected[jj])]
            for a in range(nx):
                for b in range(a + 1, nx):
                    asym = max(asym, Fraction(abs(counts[a][b] - counts[b][a]), n))

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
    options: Optional[SearchOptions] = None,
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
    opts = options or SearchOptions()

    s_cap = kernel.s_cap()
    grid = np.arange(0.0, s_cap, 1e-3)
    grid = np.append(grid, s_cap)
    k_const = float(np.abs(kernel.mu_grid(grid)).sum(axis=(1, 2)).max())

    sup_cache: dict[tuple[int, int], tuple] = {}
    for i in picked:
        for j in picked:
            if i < j:
                sf = kernel.sequence_sup(code.words[i], code.words[j])
                sb = kernel.sequence_sup(code.words[j], code.words[i])
                sup_cache[(i, j)] = (sf, sb)

    def own_tilt(sf, sb) -> float:
        cands = [r.s_star if r.attained else INF for r in (sf, sb)]
        s_bar = min(cands)
        if s_bar == INF:
            raise PreconditionError(
                "a subcode pair lacks a finite best tilt; the kernel is not usable here"
            )
        return s_bar

    dists = {}
    tilts = {}
    for (i, j), (sf, sb) in sup_cache.items():
        dists[(i, j)] = min(sf.value, sb.value) / n
        tilts[(i, j)] = own_tilt(sf, sb)

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
    for (i, j) in sup_cache:
        wi, wj = code.words[i], code.words[j]
        s_own = tilts[(i, j)]
        f_own = kernel.mu_sequence(wi, wj, s_own)
        b_own = kernel.mu_sequence(wj, wi, s_own)
        f_anchor = kernel.mu_sequence(wi, wj, s_bar_anchor)
        b_anchor = kernel.mu_sequence(wj, wi, s_bar_anchor)
        own_sum += f_own + b_own
        anchor_sum += f_anchor + b_anchor
        tol = 1e-9 * max(1.0, budget)
        if abs(f_own - f_anchor) / n > budget + tol or abs(b_own - b_anchor) / n > budget + tol:
            tilt_shift_ok = False
    avg_own = own_sum / (ordered_pairs * n)
    avg_anchor = anchor_sum / (ordered_pairs * n)

    q_at_anchor = maximize_over_Q(kernel, s_bar_anchor, options=opts).value
    # The chain's comparison point is reachable from the subcode's own column
    # compositions, so feed those in as well; the search then can never land
    # below the value the algebra guarantees.
    for column in code.subcode(picked).column_counts():
        q_at_anchor = max(q_at_anchor, objective(kernel, column / m_hat, s_bar_anchor))
    sup_value, _, _ = optimized_objective(kernel, opts)
    sup_value = max(sup_value, q_at_anchor)
    factor = m_hat / (m_hat - 1)

    dmin_code, dmin_pair = d_min(kernel, code)
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

    plotkin_ok = plotkin_holds(code.subcode(picked))
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
    value, _ = d_min(pair, code)
    if value == INF:
        return INF
    return value + math.log(code.size) / code.n
