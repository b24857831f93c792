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

The ``Q`` maximization for a fixed tilt is an indefinite quadratic
program over the simplex, solved exactly by enumerating the KKT point
of every simplex face (Bomze, J. Global Optim. 1998); above twelve input
letters multistart projected gradient ascent runs instead.  Projected
gradient, an exhaustive simplex grid and the closed-form best two-point
restriction also remain as independent oracles for cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair, InputDistribution
from .errors import InfiniteExponentError, PreconditionError, ValidationError
from .kernel import PairKernel, _Direction, _check_tilt, _tilt_limit
from .zero_error import (
    boundary_ratio,
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


@dataclass(frozen=True)
class _BoundaryLine:
    ratio: Fraction                 # common extremal ratio A(a, b)
    tail_outputs: tuple[int, ...]   # overlap outputs attaining the ratio
    slope: float                    # log A(a, b)
    intercept: float                # -log mass of W(.|a) on the tail outputs
    tail_mass: Fraction


class RelaxedKernel(PairKernel):
    """Kernel with every boundary pair replaced by its asymptote line.

    On a boundary pair ``(a, b)`` the symmetric sum ``mu(a,b,s) +
    mu(b,a,s)`` rises toward a horizontal ceiling without reaching it;
    substituting the straight line ``s * log A(a,b) - log(tail mass)``
    for each direction dominates the raw kernel, makes the symmetric sum
    constant, and restores a finite search interval for the tilt.

    Restricting the raw kernel sum to the outputs attaining the extremal
    ratio reproduces that line exactly, so the relaxation is implemented
    by swapping in restricted per-pair data; every kernel operation
    (values, derivatives, suprema, sequence sums) then applies verbatim.
    """

    def __init__(self, pair: ChannelMetricPair, kernel: Optional[PairKernel] = None):
        base = kernel if kernel is not None else PairKernel(pair)
        self.pair = pair
        self.support = base.support
        self._dirs = dict(base._dirs)
        self._grid_cache = None
        self._seq_cache = {}
        self.base = base
        self.boundary: tuple[tuple[int, int], ...] = boundary_set_B(pair)
        self._lines: dict[tuple[int, int], _BoundaryLine] = {}
        for a, b in self.boundary:
            ratio = boundary_ratio(pair, a, b)
            y_hat = self.support.y_hat[(a, b)]
            tail = tuple(sorted(y for y in y_hat if pair.q[a][y] / pair.q[b][y] == ratio))
            kept = [y for y in tail if pair.W[a][y] > 0]
            weights = tuple(pair.W[a][y] for y in kept)
            mass = sum(weights, Fraction(0))
            inv = 1 / ratio
            self._dirs[(a, b)] = _Direction(
                outputs=tuple(kept),
                weights=weights,
                ratios=tuple(inv for _ in kept),
                y_hat_mass=mass,
                log_w=np.array([math.log(w) for w in weights]),
                log_r=np.full(len(kept), -math.log(ratio)),
                affine=True,
                a_min=ratio,
                tail_mass=mass,
            )
            self._lines[(a, b)] = _BoundaryLine(
                ratio=ratio,
                tail_outputs=tail,
                slope=math.log(ratio),
                intercept=-math.log(mass),
                tail_mass=mass,
            )
        self.s_limit = _tilt_limit(self._dirs.values())

    def is_boundary(self, a: int, b: int) -> bool:
        return (a, b) in self._lines

    def line(self, a: int, b: int) -> _BoundaryLine:
        return self._lines[(a, b)]


def relaxed_kernel(pair: ChannelMetricPair, kernel: Optional[PairKernel] = None) -> RelaxedKernel:
    """Build the boundary-relaxation of the kernel (see :class:`RelaxedKernel`)."""
    return RelaxedKernel(pair, kernel)


def gap_bound(pair: ChannelMetricPair) -> float:
    """Width certificate between the relaxed upper bound and the raw lower bound.

    Half the largest, over boundary pairs, of the log mass ratios between
    the full overlap set and the extremal-ratio subset, one term per
    direction.  Zero when there are no boundary pairs, and automatically
    zero for balanced pairs, where the two sets carry equal channel mass.
    """
    kernel = PairKernel(pair)
    best = 0.0
    for a, b in boundary_set_B(pair):
        if a > b:
            continue
        ratio = boundary_ratio(pair, a, b)
        y_hat = kernel.support.y_hat[(a, b)]
        tail = [y for y in y_hat if pair.q[a][y] / pair.q[b][y] == ratio]
        full_a = sum((pair.W[a][y] for y in y_hat), Fraction(0))
        full_b = sum((pair.W[b][y] for y in y_hat), Fraction(0))
        tail_a = sum((pair.W[a][y] for y in tail), Fraction(0))
        tail_b = sum((pair.W[b][y] for y in tail), Fraction(0))
        term = 0.5 * (math.log(full_a / tail_a) + math.log(full_b / tail_b))
        best = max(best, term)
    return best


# ---------------------------------------------------------------------------
# Objective and the fixed-tilt simplex maximization
# ---------------------------------------------------------------------------


KernelLike = Union[PairKernel, RelaxedKernel]

# Largest input alphabet whose Q-maximization enumerates all 2**nx - 1
# simplex faces; larger alphabets use multistart projected gradient.
_EXACT_MAX_NX = 12


@dataclass
class SearchOptions:
    """Knobs for the exponent searches; defaults suit alphabets up to ~6.

    ``s_max`` and ``s_points`` shape the lower route's geometric tilt
    grid, ``interval_points`` the tilt grid on ``[0, s_cap]``, and
    ``tol_value`` stops the alternating polish.  The other fields are
    read only by the oracle methods of :func:`maximize_over_Q`:
    ``grid_resolution`` by ``grid``; ``seed``, ``q_starts`` and
    ``pg_iterations`` by ``multistart_pg``, which is also what the exact
    method runs on alphabets above twelve letters.
    """

    seed: int = 0
    s_max: float = 64.0
    s_points: int = 512
    interval_points: int = 65
    grid_resolution: int = 200
    q_starts: int = 32
    pg_iterations: int = 400
    tol_value: float = 1e-10


@dataclass(frozen=True)
class QResult:
    value: float
    q: tuple[float, ...]
    method: str


def _as_probe(Q: Union[InputDistribution, Sequence[float]], nx: int) -> np.ndarray:
    probs = Q.as_floats() if isinstance(Q, InputDistribution) else tuple(float(p) for p in Q)
    if len(probs) != nx:
        raise ValidationError(f"distribution has {len(probs)} entries, expected {nx}")
    arr = np.asarray(probs, dtype=float)
    if (arr < -1e-12).any() or abs(arr.sum() - 1.0) > 1e-9:
        raise ValidationError("not a probability vector")
    return np.clip(arr, 0.0, None)


def objective(kernel: KernelLike, Q: Union[InputDistribution, Sequence[float]], s: float) -> float:
    """Evaluate ``sum Q(a) Q(b) mu(a, b, s)``; infinite only when the
    zero-error precondition fails for some positively weighted pair."""
    _check_tilt("objective", s, kernel.s_limit)
    q = _as_probe(Q, kernel.pair.nx)
    m = kernel.mu_matrix(s)
    weights = np.outer(q, q)
    if np.any((m == INF) & (weights > 0)):
        return INF
    return float(np.sum(weights * np.where(m == INF, 0.0, m)))


def _sigma_grid(kernel: KernelLike, s_values: Sequence[float]) -> np.ndarray:
    """Matrices ``G(s)`` with ``F(Q, s) = Q^T G(s) Q``, shape ``(len(s), nx, nx)``:
    half the symmetric sums, zero diagonal."""
    mu = kernel.mu_grid(np.asarray(s_values, dtype=float))
    sig = 0.5 * (mu + np.transpose(mu, (0, 2, 1)))
    idx = np.arange(kernel.pair.nx)
    sig[:, idx, idx] = 0.0
    return sig


def _project_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    n = x.shape[1]
    u = np.sort(x, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, n + 1)
    cond = u - css / idx > 0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(len(x)), rho] / (rho + 1.0)
    return np.clip(x - theta[:, None], 0.0, None)


def _quad(G: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ij,kj->k", x, G, x)


def _pg_starts(nx: int, count: int, rng: Optional[np.random.Generator]) -> np.ndarray:
    """Vertices, barycentre, edge midpoints, then random rows from ``rng`` up to ``count``."""
    rows = [np.eye(nx)]
    rows.append(np.full((1, nx), 1.0 / nx))
    mids = []
    for a in range(nx):
        for b in range(a + 1, nx):
            v = np.zeros(nx)
            v[a] = v[b] = 0.5
            mids.append(v)
    if mids:
        rows.append(np.array(mids))
    have = sum(r.shape[0] for r in rows)
    if have < count:
        rows.append(rng.dirichlet(np.ones(nx), size=count - have))
    return np.vstack(rows)


def _pg_ascent(G: np.ndarray, starts: np.ndarray, iterations: int) -> tuple[float, np.ndarray]:
    x = starts.copy()
    eta = np.full(len(x), 0.5)
    f = _quad(G, x)
    for _ in range(iterations):
        grad = 2.0 * x @ G
        cand = _project_rows(x + eta[:, None] * grad)
        fc = _quad(G, cand)
        better = fc > f
        x[better] = cand[better]
        f[better] = fc[better]
        eta = np.where(better, eta * 1.25, eta * 0.5)
        if eta.max() < 1e-14:
            break
    best = int(np.argmax(f))
    return float(f[best]), x[best]


def _multistart_pg(G: np.ndarray, opts: SearchOptions) -> tuple[float, np.ndarray]:
    """Projected gradient ascent from many starts, then once more from the winner."""
    rng = np.random.default_rng(opts.seed)
    starts = _pg_starts(len(G), opts.q_starts, rng)
    value, q = _pg_ascent(G, starts, opts.pg_iterations)
    value2, q2 = _pg_ascent(G, q[None, :], opts.pg_iterations)
    if value2 > value:
        value, q = value2, q2
    return value, q


def _check_finite_sigma(G: np.ndarray) -> None:
    if (G == INF).any():
        raise InfiniteExponentError(
            "objective is infinite for some input pair: zero-error condition fails"
        )


@lru_cache(maxsize=None)
def _faces(nx: int) -> tuple[np.ndarray, ...]:
    """Supports of all faces of the simplex: one ``(count, k)`` index array per size ``k``."""
    faces = tuple(
        np.array(list(itertools.combinations(range(nx), k)), dtype=np.intp)
        for k in range(1, nx + 1)
    )
    for idx in faces:
        idx.setflags(write=False)   # cached and shared by every call
    return faces


def _q_method(nx: int) -> str:
    """Name of the primitive :func:`_q_max` runs for an ``nx``-letter alphabet."""
    return "exact" if nx <= _EXACT_MAX_NX else "multistart_pg"


def _q_max(G: np.ndarray, opts: SearchOptions) -> tuple[float, np.ndarray]:
    """Maximum of ``x^T G x`` over the simplex, for a finite symmetric ``G``.

    A global maximizer is a KKT point in the relative interior of some
    face ``S``, where it solves ``G_SS x = t 1, sum(x) = 1``.  That system
    is solved on every face, batched by face size.  Singular faces are
    skipped, which is exact: along a null direction the objective is
    constant, so a smaller face holds a maximizer.  The best nonnegative
    solution wins, valued at its clipped, renormalized point, so the
    value is always attained.  Above ``_EXACT_MAX_NX`` letters
    multistart projected gradient runs instead.
    """
    _check_finite_sigma(G)
    nx = len(G)
    if nx > _EXACT_MAX_NX:
        return _multistart_pg(G, opts)
    best_v, best_q = -INF, None
    for idx in _faces(nx):
        m, k = idx.shape
        A = np.zeros((m, k + 1, k + 1))
        A[:, :k, :k] = G[idx[:, :, None], idx[:, None, :]]
        A[:, :k, k] = -1.0
        A[:, k, :k] = 1.0
        nonsingular = np.linalg.slogdet(A)[0] != 0
        A, idx = A[nonsingular], idx[nonsingular]
        b = np.zeros((len(A), k + 1, 1))
        b[:, k] = 1.0
        x = np.linalg.solve(A, b)[:, :k, 0]
        keep = np.isfinite(x).all(axis=1) & (x >= -1e-12).all(axis=1)
        if not keep.any():
            continue
        q = np.zeros((int(keep.sum()), nx))
        np.put_along_axis(q, idx[keep], np.clip(x[keep], 0.0, None), axis=1)
        q /= q.sum(axis=1, keepdims=True)
        vals = _quad(G, q)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_q = float(vals[i]), q[i]
    return best_v, best_q


def _simplex_grid(nx: int, resolution: int) -> np.ndarray:
    r = resolution
    if nx == 1:
        return np.array([[1.0]])
    if nx == 2:
        i = np.arange(r + 1)
        return np.stack([i, r - i], axis=1) / r
    if nx == 3:
        i, j = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
        keep = i + j <= r
        i, j = i[keep], j[keep]
        return np.stack([i, j, r - i - j], axis=1) / r
    if nx == 4:
        i, j, k = np.meshgrid(
            np.arange(r + 1), np.arange(r + 1), np.arange(r + 1), indexing="ij"
        )
        keep = i + j + k <= r
        i, j, k = i[keep], j[keep], k[keep]
        return np.stack([i, j, k, r - i - j - k], axis=1) / r
    raise PreconditionError(f"simplex grid oracle supports alphabets up to 4, got {nx}")


def _floats(q) -> tuple[float, ...]:
    return tuple(float(v) for v in q)


def maximize_over_Q(
    kernel: KernelLike,
    s: float,
    method: str = "exact",
    options: Optional[SearchOptions] = None,
) -> QResult:
    """Maximize the objective over input distributions at a fixed tilt.

    ``exact`` enumerates the simplex faces (see :func:`_q_max`); the
    result's ``method`` names the primitive that ran.  ``multistart_pg``,
    ``grid`` and ``two_point`` are independent oracles.
    """
    _check_tilt("maximize_over_Q", s, kernel.s_limit)
    opts = options or SearchOptions()
    G = _sigma_grid(kernel, [s])[0]
    _check_finite_sigma(G)
    nx = kernel.pair.nx
    if method == "exact":
        value, q = _q_max(G, opts)
        return QResult(value, _floats(q), _q_method(nx))
    if method == "grid":
        pts = _simplex_grid(nx, opts.grid_resolution)
        best_v, best_q = -INF, pts[0]
        for lo in range(0, len(pts), 200_000):
            chunk = pts[lo:lo + 200_000]
            vals = _quad(G, chunk)
            i = int(np.argmax(vals))
            if vals[i] > best_v:
                best_v, best_q = float(vals[i]), chunk[i]
        return QResult(best_v, _floats(best_q), "grid")
    if method == "two_point":
        best_v, best_q = 0.0, _floats(np.eye(nx)[0])
        for a in range(nx):
            for b in range(a + 1, nx):
                v = G[a, b] / 2.0  # lambda = 1/2 on the two-point support
                if v > best_v:
                    q = np.zeros(nx)
                    q[a] = q[b] = 0.5
                    best_v, best_q = float(v), _floats(q)
        return QResult(best_v, best_q, "two_point")
    if method == "multistart_pg":
        value, q = _multistart_pg(G, opts)
        return QResult(value, _floats(q), "multistart_pg")
    raise PreconditionError(f"unknown Q-maximization method {method!r}")


# ---------------------------------------------------------------------------
# Joint maximization over (Q, s)
# ---------------------------------------------------------------------------


def _scan_s_grid(
    kernel: KernelLike, s_values: np.ndarray, opts: SearchOptions,
) -> tuple[float, np.ndarray, int]:
    """Coarse sweep of ``max_Q F(Q, s)`` along a tilt grid.

    Every grid point is scored against one fixed bank of distributions
    (vertices, barycentre, edge midpoints) in a single pass; only the
    four most promising tilts are solved exactly.  Returns the best
    (value, q, grid index).
    """
    Gs = _sigma_grid(kernel, s_values)
    _check_finite_sigma(Gs)
    bank = _pg_starts(kernel.pair.nx, 0, None)
    scores = np.einsum("ki,sij,kj->sk", bank, Gs, bank).max(axis=1)
    best = (-INF, bank[0], 0)
    for i in np.argsort(scores)[::-1][:4]:
        v, q = _q_max(Gs[i], opts)
        if v > best[0]:
            best = (v, q, int(i))
    return best


def _sup_over_s_fixed_q(kernel: KernelLike, q: np.ndarray, s_hint: float,
                        s_cap: Optional[float]) -> tuple[float, float]:
    """Maximize ``F(q, .)`` (concave) over ``s >= 0``; returns ``(s, value)``."""
    w = np.outer(q, q)

    def deriv(s: float) -> float:
        return 0.5 * float(np.sum(w * kernel.sigma_prime_matrix(s)))

    def value(s: float) -> float:
        return 0.5 * float(np.sum(w * kernel.sigma_matrix(s)))

    hi_cap = s_cap if s_cap is not None else float(2 ** 20)
    if deriv(0.0) <= 0:
        return 0.0, value(0.0)
    hi = max(s_hint, 1e-3)
    while deriv(hi) > 0:
        hi *= 2.0
        if hi >= hi_cap:
            return hi_cap, value(hi_cap)
    lo = 0.0 if hi <= 1e-3 else hi / 2.0
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return s, value(s)


def _golden_refine(g, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of ``g`` on ``[lo, hi]``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = g(c), g(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(d)
    s = c if fc > fd else d
    return (s, fc if fc > fd else fd)


def _search(
    kernel: KernelLike, grid: np.ndarray, s_cap: Optional[float], opts: SearchOptions,
) -> tuple[float, np.ndarray, float, dict]:
    """``sup_s max_Q F(Q, s)`` by grid scan, golden refine and alternating polish.

    ``g(s) = max_Q F(Q, s)`` is a maximum of concave curves, not concave,
    so the scan brackets the best grid tilt before golden section.  The
    polish alternates the best tilt for the current ``Q`` (at most
    ``s_cap``; ``None`` leaves it free) with the best ``Q`` at that tilt.
    """
    _check_tilt("the tilt search", float(grid.min()), kernel.s_limit)
    _check_tilt("the tilt search", float(grid.max()), kernel.s_limit)

    def solve(s: float) -> tuple[float, np.ndarray]:
        return _q_max(_sigma_grid(kernel, [s])[0], opts)

    if s_cap is not None and s_cap <= 0:
        value, q = solve(0.0)
        return value, q, 0.0, {"grid_points": 1, "grid_best_s": 0.0, "polish_rounds": 0}

    v0, q0, idx = _scan_s_grid(kernel, grid, opts)
    lo = float(grid[max(idx - 1, 0)])
    hi = float(grid[min(idx + 1, len(grid) - 1)])
    s_ref, _ = _golden_refine(lambda s: solve(s)[0], lo, hi, tol=1e-7 * max(1.0, hi))
    v_ref, q_ref = solve(s_ref)
    value, q, s = max((v0, q0, float(grid[idx])), (v_ref, q_ref, s_ref), key=lambda t: t[0])

    rounds = 0
    for rounds in range(1, 21):
        s_new, v_s = _sup_over_s_fixed_q(kernel, q, s_hint=max(s, 1e-3), s_cap=s_cap)
        v_new, q_new = solve(s_new)
        if v_new < v_s:
            v_new, q_new = v_s, q
        if v_new <= value + opts.tol_value * 0.01:
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


# ---------------------------------------------------------------------------
# Tail (limit tilt) candidate for the unrestricted search
# ---------------------------------------------------------------------------


def _tail_candidate(
    pair: ChannelMetricPair, kernel: PairKernel, opts: SearchOptions,
) -> tuple[float, Optional[np.ndarray]]:
    """Best limiting value of the objective as the tilt grows without bound.

    In the limit only boundary pairs keep a finite symmetric sum (its
    ceiling); all other off-diagonal pairs fall to ``-inf``.  The best
    limit is therefore a maximization over distributions supported on a
    clique of the boundary-pair graph.
    """
    boundary = [(a, b) for (a, b) in boundary_set_B(pair) if a < b]
    if not boundary:
        return -INF, None
    nx = pair.nx
    edges = set(boundary)
    ceil = np.full((nx, nx), -INF)
    np.fill_diagonal(ceil, 0.0)
    for a, b in boundary:
        res = kernel.sup_sigma(a, b)
        ceil[a, b] = ceil[b, a] = res.value
    nodes = sorted({v for e in edges for v in e})
    best_v, best_q = -INF, None
    for mask in range(1, 1 << len(nodes)):
        support = [nodes[i] for i in range(len(nodes)) if mask >> i & 1]
        if len(support) < 2:
            continue
        if any(
            (min(u, v), max(u, v)) not in edges
            for i, u in enumerate(support) for v in support[i + 1:]
        ):
            continue
        sub = 0.5 * ceil[np.ix_(support, support)]
        np.fill_diagonal(sub, 0.0)
        v, q_sub = _q_max(sub, opts)
        if v > best_v:
            q = np.zeros(nx)
            q[support] = q_sub
            best_v, best_q = v, q
    return best_v, best_q


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
    if points < 2 or s_max <= 0:
        raise PreconditionError("need at least two grid points and positive s_max")
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


def expurgated_lower(
    pair: ChannelMetricPair,
    options: Optional[SearchOptions] = None,
    s_grid: Optional[Sequence[float]] = None,
) -> LowerResult:
    """Supremum of the raw objective over ``(Q, s)``: the zero-rate lower bound.

    The tilt search runs on a geometric grid with an uncapped polish,
    and the limiting-tilt candidate competes with its result.  Requires
    the average zero-error condition.
    """
    _check_zero_error(pair)
    opts = options or SearchOptions()
    kernel = PairKernel(pair)
    grid = np.asarray(s_grid, dtype=float) if s_grid is not None \
        else geometric_s_grid(opts.s_max, opts.s_points)
    value, q, s, trace = _search(kernel, grid, None, opts)
    tail_v, tail_q = _tail_candidate(pair, kernel, opts)
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
    the raw supremum) and ``upper_bound`` otherwise, in which case
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


def zero_rate_exponent(
    pair: ChannelMetricPair, options: Optional[SearchOptions] = None
) -> ExponentResult:
    """Compute the zero-rate exponent quantity of a channel/metric pair.

    Balanced pairs get the exact value (supremum of the raw objective,
    restricted to the finite tilt interval that provably contains the
    maximizer).  Unbalanced pairs get the relaxed-kernel upper bound
    together with the raw lower bound and the gap certificate.
    """
    _check_zero_error(pair)
    opts = options or SearchOptions()
    kernel = PairKernel(pair)
    balanced, _ = is_balanced(pair)

    if balanced:
        provider: KernelLike = kernel
        kind = KIND_EXACT
    else:
        provider = RelaxedKernel(pair, kernel)
        kind = KIND_UPPER
    s_hi = provider.s_cap()
    grid = np.linspace(0.0, s_hi, opts.interval_points)
    value, q, s_star, trace = _search(provider, grid, s_hi, opts)

    lower = expurgated_lower(pair, opts)
    gap = 0.0 if balanced else gap_bound(pair)
    # Balanced: the same function maximized by two searches, keep the best.
    # Unbalanced: the relaxed objective dominates the raw one pointwise, so
    # the lower search's optimum is also a certified floor for the value.
    merged = lower.value > value
    if merged:
        value, q, s_star = lower.value, lower.q_star.as_floats(), lower.s_star
    lower_value = max(lower.value, value) if balanced else lower.value

    trace.update({
        "q_method": _q_method(pair.nx),
        "lower_trace": lower.trace,
        "merged_from_lower": merged,
        "s_cap": float(s_hi),
    })
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


def optimized_objective(
    kernel: KernelLike, options: Optional[SearchOptions] = None
) -> tuple[float, float, tuple[float, ...]]:
    """Supremum over the tilt interval of the best-input quadratic form.

    Unlike :func:`zero_rate_exponent` this works directly on whatever
    kernel it is handed (raw or relaxed) and skips the expurgated lower
    search.  Returns ``(value, s_star, Q)``.
    """
    opts = options or SearchOptions()
    s_hi = kernel.s_cap()
    grid = np.linspace(0.0, s_hi, opts.interval_points)
    value, q, s_star, _ = _search(kernel, grid, s_hi, opts)
    return float(value), float(s_star), _floats(q)
