"""Zero-rate reliability exponents over input distributions and tilts.

The central object is the bilinear-in-``Q`` objective

    F(Q, s) = sum_{a,b} Q(a) Q(b) mu(a, b, s),

whose supremum over distributions ``Q`` and tilts ``s >= 0`` is the
pairing's zero-rate exponent quantity.  For balanced pairs the supremum
of the raw objective is the exponent exactly and is attained on a finite
tilt interval.  Otherwise the raw supremum is still a valid lower bound
(the expurgated value), and replacing each boundary pair's kernel by its
straight asymptote line yields a *relaxed* kernel whose supremum is an
upper bound; the width between the two is controlled by a closed-form
gap certificate.

The ``Q`` maximization for a fixed tilt is a standard quadratic program
over the simplex, solved exactly for every alphabet size: the faces are
enumerated level by level, each kept only while the matrix stays
negative definite on its tangent space, and each kept face's KKT point
is solved (Bomze, J. Global Optim. 1998; Scozzari & Tardella, Discrete
Appl. Math. 2008).  That is the one Q-maximizer; the exhaustive simplex
grid, the closed-form best two-point restriction and projected gradient
ascent it is checked against live in the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair, InputDistribution, _checked_int, _log
from .errors import BudgetExceededError, InfiniteExponentError, PreconditionError, ValidationError
from .kernel import PairKernel, _argmax_concave_rows, _as_kernel, _check_tilt
from .zero_error import (
    _orders,
    boundary_set_B,
    check_c0bar_zero,
    is_balanced,
)

INF = math.inf

KIND_EXACT = "exact_equality"
KIND_UPPER = "upper_bound"


# ---------------------------------------------------------------------------
# Relaxed kernel: boundary pairs replaced by their asymptote lines
# ---------------------------------------------------------------------------


class RelaxedKernel(PairKernel):
    """Kernel with every boundary pair replaced by its asymptote line.

    On a boundary pair ``(a, b)`` the symmetric sum ``mu(a,b,s) +
    mu(b,a,s)`` rises toward a horizontal ceiling without reaching it;
    substituting the straight line ``s * log A(a,b) - log(tail mass)``
    for each direction dominates the raw kernel, makes the symmetric sum
    constant, and restores a finite search interval for the tilt.

    Restricting the raw kernel sum to the outputs attaining the extremal
    ratio reproduces that line exactly, so the relaxation is implemented
    by swapping in each base direction's :meth:`_Direction.tail`; every
    kernel operation (values, derivatives, suprema, sequence sums) then
    applies verbatim.
    """

    def __init__(self, pair: ChannelMetricPair):
        self.pair = pair
        dirs = dict(pair.directions)
        self.boundary: tuple[tuple[int, int], ...] = boundary_set_B(pair)
        for ab in self.boundary:
            dirs[ab] = dirs[ab].tail()
        self._install(dirs)


def gap_bound(pair: ChannelMetricPair) -> float:
    """Width certificate between the relaxed upper bound and the raw lower bound.

    Half the largest, over boundary pairs, of the log mass ratios between
    the full overlap set and the extremal-ratio subset, one term per
    direction.  Zero when there are no boundary pairs, and automatically
    zero for balanced pairs, where the two sets carry equal channel mass.
    """
    dirs = pair.directions
    best = 0.0
    for a, b in boundary_set_B(pair):
        if a < b:
            d, e = dirs[(a, b)], dirs[(b, a)]
            term = 0.5 * (_log(d.y_hat_mass / d.tail_mass) + _log(e.y_hat_mass / e.tail_mass))
            best = max(best, term)
    return best


# ---------------------------------------------------------------------------
# Objective and the fixed-tilt simplex maximization
# ---------------------------------------------------------------------------


KernelLike = Union[PairKernel, RelaxedKernel]

_S_POINTS = 512          # tilts on the lower route's geometric grid
_S_MAX = 64.0            # top of the lower route's geometric grid
_INTERVAL_POINTS = 65    # tilts on the grid over [0, s_cap]
_POLISH_TOL = 1e-12      # the polish stops once a round gains no more than this
_FACE_BUDGET = 1 << 14   # live faces of one matrix that one level of _q_max may hold
_FACE_TOL = 1e-9         # relative slack of the face test, see _q_max


@dataclass(frozen=True)
class QResult:
    value: float
    q: tuple[float, ...]


def _as_probe(Q: Union[InputDistribution, Sequence[float]], nx: int) -> np.ndarray:
    try:
        probs = Q.as_floats() if isinstance(Q, InputDistribution) else tuple(float(p) for p in Q)
    except OverflowError:   # a rational too large for a float
        raise ValidationError("distribution entries must be finite") from None
    if len(probs) != nx:
        raise ValidationError(f"distribution has {len(probs)} entries, expected {nx}")
    arr = np.asarray(probs, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError("distribution entries must be finite")
    if (arr < -1e-12).any() or abs(arr.sum() - 1.0) > 1e-9:
        raise ValidationError("not a probability vector")
    return np.clip(arr, 0.0, None)


def objective(kernel: KernelLike, Q: Union[InputDistribution, Sequence[float]], s: float) -> float:
    """Evaluate ``sum Q(a) Q(b) mu(a, b, s)``; infinite only when the
    zero-error precondition fails for some positively weighted pair."""
    s = _check_tilt("objective", s, kernel.s_limit)
    q = _as_probe(Q, kernel.pair.nx)
    return float(_objective_rows(kernel.mu_matrix(s), q[None])[0])


def _objective_rows(m: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """:func:`objective` for each row of ``Q``, shape ``(k, nx)``, at one
    kernel matrix ``m``: ``inf`` where a positively weighted entry is."""
    weights = Q[:, :, None] * Q[:, None, :]
    infinite = m == INF
    values = (weights * np.where(infinite, 0.0, m)).sum(axis=(1, 2))
    values[((weights > 0) & infinite).any(axis=(1, 2))] = INF
    return values


def _sigma_grid(kernel: KernelLike, s_values: Sequence[float]) -> np.ndarray:
    """Matrices ``G(s)`` with ``F(Q, s) = Q^T G(s) Q``, shape ``(len(s), nx, nx)``:
    half the symmetric sums, zero diagonal."""
    mu = kernel.mu_grid(np.asarray(s_values, dtype=float))
    sig = 0.5 * (mu + np.transpose(mu, (0, 2, 1)))
    idx = np.arange(kernel.pair.nx)
    sig[:, idx, idx] = 0.0
    return sig


def _probe_bank(nx: int) -> np.ndarray:
    """Vertices, barycentre and edge midpoints: the distributions the grid
    scan scores every tilt on."""
    a, b = np.triu_indices(nx, 1)
    mids = np.zeros((len(a), nx))
    mids[np.arange(len(a)), a] = mids[np.arange(len(a)), b] = 0.5
    return np.vstack([np.eye(nx), np.full((1, nx), 1.0 / nx), mids])


def _check_finite_sigma(G: np.ndarray) -> None:
    if (G == INF).any():
        raise InfiniteExponentError(
            "objective is infinite for some input pair: zero-error condition fails"
        )


def _q_max(G: np.ndarray):
    """Maximum of ``x^T G x`` over the simplex, for a symmetric ``G`` with a
    finite diagonal (for a stack of them, arrays of each one's value and
    maximizer).

    A global maximizer of least support lies in the relative interior of
    its face ``S``, where it solves ``G_SS x = t 1, sum(x) = 1``, and
    ``G_SS`` is negative definite on the face's tangent space
    ``{sum(x) = 0}``: along a flat or rising direction a smaller face
    would hold as good a point (Bomze, J. Global Optim. 1998).  That
    property passes to every subface, so the faces are enumerated level
    by level (Scozzari & Tardella, Discrete Appl. Math. 2008): a vertex
    is worth its diagonal entry, and size ``k`` extends only supports
    whose every ``(k-1)``-subface survived.  Such a face survives when the
    top eigenvalue of ``G_SS`` on the tangent space lies below
    ``_FACE_TOL`` times the face's largest entry.  The slack keeps
    near-singular faces, since a wrong prune loses the optimum while a
    kept face costs one solve; a face of zeros holds nothing its vertices
    do not.  An off-diagonal ``-inf`` forbids its pair: the two-letter
    face is dropped before the test, so no ``-inf`` reaches a solve or a
    value.

    The surviving faces of a level are solved in one batch over the
    whole stack.  Singular faces, found by ``slogdet`` once a solve
    refuses one, are skipped, which is exact: along a null direction the
    objective is constant, so a smaller face holds a maximizer.  Each
    matrix's first best nonnegative solution, by size and then
    lexicographically, wins, valued on its face's own entries at its
    clipped, renormalized point, so the value is always attained.  Raises
    :class:`BudgetExceededError` when one level holds more than
    ``_FACE_BUDGET`` live faces of one matrix.
    """
    if G.ndim == 2:
        values, qs = _q_max(G[None])
        return float(values[0]), qs[0]
    _check_finite_sigma(G)
    g, nx = len(G), G.shape[-1]
    vertex = G[:, np.arange(nx), np.arange(nx)] + 0.0    # each worth its entry; a sum reads -0.0 as 0.0
    first = vertex.argmax(axis=1)
    best_v, best_q = vertex[np.arange(g), first], np.eye(nx)[first]
    # face keys: int64 bitmasks, or Python ints once the stack outgrows 63 bits
    dtype = object if g << nx >= 1 << 63 else np.int64
    bit = np.array([1 << a for a in range(nx)], dtype=dtype)
    which, letter = np.divmod(np.arange(g * nx, dtype=np.int64), nx)
    face, key = letter[:, None], (which.astype(dtype) << nx) + bit[letter]
    for k in range(2, nx + 1):
        # extend each live face by every letter above its last; a pair lives
        # unless forbidden, a larger face when its other (k-1)-subfaces live
        row, letter = np.nonzero(np.arange(nx) > face[:, -1:])
        which, face = which[row], np.concatenate([face[row], letter[:, None]], axis=1)
        key, live = key[row] + bit[letter], np.sort(key)
        if k == 2:
            heir = np.isfinite(G[which, face[:, 0], face[:, 1]])
        else:
            sub = key[:, None] - bit[face[:, :-1]]
            heir = (live[np.minimum(np.searchsorted(live, sub), len(live) - 1)] == sub).all(axis=1)
        which, face, key = which[heir], face[heir], key[heir]
        count = np.bincount(which, minlength=g).max(initial=0)
        if count > _FACE_BUDGET:
            raise BudgetExceededError(
                f"the Q-maximization over {nx} input letters meets {count} live faces of "
                f"size {k}, above its budget of {_FACE_BUDGET}"
            )
        S = G[which[:, None, None], face[:, :, None], face[:, None, :]]
        P = np.eye(k) - 1.0 / k    # the orthogonal projector onto the tangent space
        ok = np.linalg.eigvalsh(P @ S @ P)[:, -1] < _FACE_TOL * np.abs(S).max(axis=(1, 2))
        which, face, key, S = which[ok], face[ok], key[ok], S[ok]
        if not len(face):
            break

        A = np.zeros((len(S), k + 1, k + 1))
        A[:, :k, :k] = S
        A[:, :k, k] = -1.0
        A[:, k, :k] = 1.0
        solved, b = np.arange(len(S)), np.eye(k + 1)[None, :, k:]
        try:
            x = np.linalg.solve(A, b)[:, :k, 0]
        except np.linalg.LinAlgError:
            solved = np.flatnonzero(np.linalg.slogdet(A)[0] != 0)
            x = np.linalg.solve(A[solved], b)[:, :k, 0]
        keep = np.isfinite(x).all(axis=1) & (x >= -1e-12).all(axis=1)
        if not keep.any():
            continue
        solved, x = solved[keep], np.clip(x[keep], 0.0, None)
        x /= x.sum(axis=1, keepdims=True)
        vals = np.einsum("mi,mij,mj->m", x, S[solved], x)
        ends = np.searchsorted(which[solved], np.arange(g + 1)).tolist()   # rows of each matrix
        for i, lo, hi in zip(range(g), ends, ends[1:]):
            if lo < hi and vals[j := lo + int(np.argmax(vals[lo:hi]))] > best_v[i]:
                best_v[i] = vals[j]
                best_q[i] = 0.0
                best_q[i, face[solved[j]]] = x[j]
    return best_v, best_q


def _floats(q) -> tuple[float, ...]:
    return tuple(float(v) for v in q)


def maximize_over_Q(kernel: KernelLike, s: float) -> QResult:
    """Maximize the objective over input distributions at a fixed tilt,
    exactly, by the one Q-maximizer :func:`_q_max`."""
    s = _check_tilt("maximize_over_Q", s, kernel.s_limit)
    value, q = _q_max(_sigma_grid(kernel, [s])[0])
    return QResult(value, _floats(q))


# ---------------------------------------------------------------------------
# Joint maximization over (Q, s)
# ---------------------------------------------------------------------------


def _scan_s_grid(kernel: KernelLike, s_values: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Coarse sweep of ``max_Q F(Q, s)`` along a tilt grid.

    Every grid point is scored against one fixed bank of distributions
    (vertices, barycentre, edge midpoints) in a single pass; only the
    four most promising tilts are solved exactly, as one stack.  Returns the best
    (value, q, grid index); equal scores go to the smallest tilt.
    """
    Gs = _sigma_grid(kernel, s_values)
    _check_finite_sigma(Gs)
    bank = _probe_bank(kernel.pair.nx)
    scores = np.einsum("ki,sij,kj->sk", bank, Gs, bank).max(axis=1)
    top = np.argsort(-scores, kind="stable")[:4]
    values, qs = _q_max(Gs[top])
    i = int(np.argmax(values))      # the first of equal values
    return float(values[i]), qs[i], int(top[i])


def _polish_tilt(kernel: KernelLike, q: np.ndarray, s_cap: Optional[float]) -> Optional[float]:
    """Smallest maximizer over ``[0, s_cap]`` of the concave ``F(q, .)``; with
    ``s_cap`` None, ``None`` when the curve only rises toward its limit.

    ``F(q, .)`` sums the directions ``(a, b)``, ``a != b``, on the support
    of ``q``, each weighted by ``q_a q_b``.  Its tail is classified
    exactly: under the zero-error condition every ``A(a,b) A(b,a) <= 1``,
    so one product below one turns the slope at a finite tilt.  That
    comparison is the pair's kept order sign (``zero_error._orders``),
    which holds for the relaxed kernel too, since a boundary direction's
    tail keeps its ``A``.  With all
    products one the curve is constant when every direction is affine
    (smallest maximizer 0) and otherwise only rises toward its limit,
    which the tail candidate scores.
    """
    support, orders = np.flatnonzero(q > 0).tolist(), _orders(kernel.pair)
    pairs = [(a, b) for a in support for b in support if a != b]
    if not any(orders[ab] < 0 for ab in pairs):
        if all(kernel.direction(a, b).affine for a, b in pairs):
            return 0.0
        if s_cap is None:
            return None
    a, b = np.array(pairs).T
    s, attained = _argmax_concave_rows(kernel._LW[a, b][None], kernel._LR[a, b][None], (q[a] * q[b])[None, None],
                                       kernel.s_limit if s_cap is None else s_cap)
    return float(s[0]) if attained[0] else None


def _search(
    kernel: KernelLike, grid: np.ndarray, s_cap: Optional[float],
) -> tuple[float, np.ndarray, float, dict]:
    """``sup_s max_Q F(Q, s)`` by grid scan, then exact alternating ascent.

    From the best grid point the polish alternates the best tilt for the
    current ``Q`` (at most ``s_cap``; ``None`` leaves it free) with the
    best ``Q`` at that tilt.  Both steps are exact, so the value never
    falls below the grid's best.  ``g(s) = max_Q F(Q, s)`` is a maximum
    of concave curves, so its local maxima lie at smooth points, and the
    ascent stops at such a point.
    """
    _check_tilt("the tilt search", float(grid.min()), kernel.s_limit)
    _check_tilt("the tilt search", float(grid.max()), kernel.s_limit)

    if s_cap is not None and s_cap <= 0:
        value, q = _q_max(_sigma_grid(kernel, [0.0])[0])
        return value, q, 0.0, {"grid_points": 1, "grid_best_s": 0.0, "polish_rounds": 0}

    value, q, idx = _scan_s_grid(kernel, grid)
    s = float(grid[idx])
    rounds = 0
    for rounds in range(1, 21):
        s_new = _polish_tilt(kernel, q, s_cap)
        if s_new is None:
            break
        G = _sigma_grid(kernel, [s_new])[0]
        v_new, q_new = _q_max(G)
        v_s = float(q @ G @ q)
        if v_new < v_s:
            v_new, q_new = v_s, q
        if v_new <= value + _POLISH_TOL:
            if v_new > value:
                value, q, s = v_new, q_new, s_new
            break
        value, q, s = v_new, q_new, s_new
    trace = {
        "grid_points": int(len(grid)),
        "grid_best_s": float(grid[idx]),
        "polish_rounds": rounds,
    }
    return value, q, s, trace


def _interval_search(kernel: KernelLike, s_cap: float):
    """:func:`_search` on the ``_INTERVAL_POINTS`` grid over ``[0, s_cap]``,
    with ``s_cap`` the caller's ``kernel.s_cap()``."""
    return _search(kernel, np.linspace(0.0, s_cap, _INTERVAL_POINTS), s_cap)


# ---------------------------------------------------------------------------
# Tail (limit tilt) candidate for the unrestricted search
# ---------------------------------------------------------------------------


def _tail_candidate(kernel: PairKernel) -> tuple[float, Optional[np.ndarray]]:
    """Best limiting value of the objective as the tilt grows without bound.

    In the limit only boundary pairs keep a finite symmetric sum (its
    ceiling, one :meth:`PairKernel._sup_rows` batch over the boundary pairs);
    all other off-diagonal pairs fall to ``-inf``.  One :func:`_q_max` call
    on that limit matrix (half of each ceiling, zero diagonal) is the best
    limit: its test on two-letter faces drops every ``-inf`` pair, so only
    cliques of the boundary-pair graph are solved.
    """
    boundary = [(a, b) for (a, b) in boundary_set_B(kernel.pair) if a < b]
    if not boundary:
        return -INF, None
    nx, (a, b) = kernel.pair.nx, np.array(boundary).T
    limit = np.full((nx, nx), -INF)
    np.fill_diagonal(limit, 0.0)
    limit[a, b] = limit[b, a] = 0.5 * kernel._sup_rows(kernel._sigma_keys(a, b))[1]
    return _q_max(limit)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerResult:
    value: float
    q_star: InputDistribution
    s_star: float           # inf when only the limiting tilt achieves the value
    trace: dict = field(compare=False)


def geometric_s_grid(s_max: float, points: int) -> np.ndarray:
    """``{0}`` followed by a geometric sweep up to ``s_max``."""
    points = _checked_int("points", points, 2)
    # compared exactly, so a rational too large for a float fails rather than overflows
    if not 0 < s_max <= sys.float_info.max:
        raise PreconditionError(f"s_max must be finite and positive, got {s_max}")
    s_max = float(s_max)
    lo = min(1.0 / 1024.0, s_max / 2.0)
    return np.concatenate([[0.0], np.geomspace(lo, s_max, points - 1)])


def _check_zero_error(pair: ChannelMetricPair) -> None:
    ok, witness = check_c0bar_zero(pair)
    if not ok:
        raise InfiniteExponentError(
            f"zero-error condition fails at input pair {witness.pair}: exponent is infinite"
        )


def _distribution(q) -> InputDistribution:
    q = np.clip(np.asarray(q, dtype=float), 0.0, None)
    return InputDistribution(_floats(q / q.sum()))


def expurgated_lower(pair: ChannelMetricPair) -> LowerResult:
    """Supremum of the raw objective over ``(Q, s)``: the zero-rate lower bound.

    The tilt search runs on a geometric grid with an uncapped polish,
    and the limiting-tilt candidate competes with its result.  Requires
    the average zero-error condition.
    """
    _check_zero_error(pair)
    return _expurgated_lower(_as_kernel(pair))


def _expurgated_lower(kernel: PairKernel) -> LowerResult:
    """:func:`expurgated_lower` on a raw kernel of a pair that meets the condition."""
    value, q, s, trace = _search(kernel, geometric_s_grid(_S_MAX, _S_POINTS), None)
    tail_v, tail_q = _tail_candidate(kernel)
    trace["tail_value"] = tail_v if tail_v > -INF else None
    if tail_v > value:
        value, q, s = tail_v, tail_q, INF
    return LowerResult(
        value=float(value),
        q_star=_distribution(q),
        s_star=float(s),
        trace=trace,
    )


@dataclass(frozen=True)
class ExponentResult:
    """Zero-rate exponent of a pair, with certification metadata.

    ``kind`` is ``exact_equality`` for balanced pairs (the value equals
    the raw supremum, and so does ``lower_expurgated``, with
    ``gap_bound`` zero) and ``upper_bound`` otherwise, in which case
    ``lower_expurgated`` and ``gap_bound`` bracket the true exponent.
    Values are in nats.
    """

    value: float
    q_star: InputDistribution
    s_star: float
    balanced: bool
    kind: str
    lower_expurgated: float
    gap_bound: float
    method_trace: dict = field(compare=False)


def zero_rate_exponent(pair: ChannelMetricPair) -> ExponentResult:
    """Compute the zero-rate exponent quantity of a channel/metric pair.

    Balanced pairs get the exact value (supremum of the raw objective,
    restricted to the finite tilt interval that provably contains the
    maximizer), with no second search.  Unbalanced pairs get the
    relaxed-kernel upper bound together with the raw lower bound
    (:func:`expurgated_lower`) and the gap certificate.
    """
    _check_zero_error(pair)
    kernel = _as_kernel(pair)
    balanced, _ = is_balanced(pair)

    provider: KernelLike = kernel if balanced else RelaxedKernel(pair)
    s_hi = provider.s_cap()
    value, q, s_star, trace = _interval_search(provider, s_hi)
    trace["s_cap"] = float(s_hi)

    if balanced:
        # The raw supremum is the exponent: the lower route would search the
        # same function again, so it is not run.
        kind, lower_value, gap = KIND_EXACT, value, 0.0
    else:
        # The relaxed objective dominates the raw one pointwise, so the lower
        # search's optimum is also a certified floor for the value.
        lower = _expurgated_lower(kernel)
        kind, lower_value, gap = KIND_UPPER, lower.value, gap_bound(pair)
        merged = lower.value > value
        if merged:
            value, q, s_star = lower.value, lower.q_star.as_floats(), lower.s_star
        trace.update({"lower_trace": lower.trace, "merged_from_lower": merged})
    return ExponentResult(
        value=float(value),
        q_star=_distribution(q),
        s_star=float(s_star),
        balanced=balanced,
        kind=kind,
        lower_expurgated=float(lower_value),
        gap_bound=float(gap),
        method_trace=trace,
    )


def optimized_objective(kernel: KernelLike) -> tuple[float, float, tuple[float, ...]]:
    """Supremum over the tilt interval of the best-input quadratic form.

    Unlike :func:`zero_rate_exponent` this works directly on whatever
    kernel it is handed (raw or relaxed) and skips the expurgated lower
    search.  Returns ``(value, s_star, Q)``.
    """
    value, q, s_star, _ = _interval_search(kernel, kernel.s_cap())
    return float(value), float(s_star), _floats(q)
