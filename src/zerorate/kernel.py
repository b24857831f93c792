"""Pairwise discrimination exponents for a channel/metric pair.

For an ordered input pair ``(a, b)`` the kernel function

    mu(a, b, s) = -log sum_y W(y|a) * (q(b,y) / q(a,y))**s

(sum over outputs where both metric entries are positive) measures how
hard it is, at tilt ``s``, for input ``b`` to beat input ``a`` under the
product-metric decoder.  ``mu`` is concave in ``s``, vanishes on the
diagonal, and its large-``s`` behaviour is governed by the extreme
metric ratio: writing ``A(a, b)`` for the smallest value of
``q(a,y)/q(b,y)`` over outputs reachable from ``a``, the slope of
``mu(a, b, .)`` tends to ``log A(a, b)`` and the function drifts to
``+inf``, a finite ceiling, or ``-inf`` according to the sign.

Everything structural (which outputs participate, whether the kernel is
affine, where the asymptote sits) is decided with exact rational
arithmetic; only the final transcendental evaluations use floats, in a
log-domain form that is stable for arbitrarily large tilts.  The exact
data is the pair's own direction table (``pair.directions``, built in
:mod:`zerorate.channel`), which the zero-error decisions read too.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair, _Direction, _sign_of_power_product
from .errors import InfiniteExponentError, PreconditionError, ValidationError

INF = math.inf

PLUS_INFINITY = "plus_infinity"
FINITE_LIMIT = "finite_limit"
MINUS_INFINITY = "minus_infinity"

_BISECT_TOL = 1e-9


def _check_tilt(name: str, s: float, limit: float) -> None:
    """Reject tilts that are negative or not finite (NaN would pass ``s < 0``),
    and tilts above ``limit``, a kernel's :attr:`PairKernel.s_limit`."""
    if not (math.isfinite(s) and s >= 0):
        raise PreconditionError(f"{name} requires a finite s >= 0, got {s}")
    if s > limit:
        raise PreconditionError(
            f"{name}: tilt s = {s} is above {limit:.6g}, the largest tilt this kernel "
            "evaluates without float overflow"
        )


def _tilted(LW: np.ndarray, LR: np.ndarray, s, value: bool = True):
    """The one float evaluation of the kernel.

    Over the last axis of padded direction rows (``LW = log W(y|a)``,
    ``LR = log ratio``, padding ``-inf`` and ``0``) returns
    ``-log sum_y exp(LW + s LR)`` and its slope in ``s`` (if not ``value``, the
    slope alone).  ``s`` broadcasts against the leading axes.  Every row needs a
    finite ``LW`` entry: callers keep empty directions out and read them as ``inf``.
    """
    x = LW + s * LR
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1)
    slope = 0.0 - (e * LR).sum(axis=-1) / z
    # 0.0 - (...) rather than -(...): a curve that is identically zero reads +0.0
    return (0.0 - (m[..., 0] + np.log(z)), slope) if value else slope


def _argmax_concave(fp: Callable[[float], float], cap: float = INF) -> tuple[float, bool]:
    """Smallest maximizer on ``[0, cap]`` of a concave curve with slope ``fp``.

    Doubles the tilt until the slope stops being positive, then bisects
    to ``_BISECT_TOL`` or to adjacent floats.  A slope still positive at
    ``cap`` puts the maximizer at ``cap``.  With ``cap`` infinite the
    caller must know that the slope turns at a finite tilt; should the
    float range run out first (the slope turns NaN or the tilt cannot
    double), the result is ``(last tilt reached, False)``.
    """
    if fp(0.0) <= 0:
        return 0.0, True
    lo, hi = 0.0, min(1.0, cap)
    while (slope := fp(hi)) > 0 or math.isnan(slope):
        if math.isnan(slope) or hi > sys.float_info.max / 2.0:
            return lo, False
        if hi >= cap:
            return cap, True
        lo, hi = hi, min(2.0 * hi, cap)
    while hi - lo > _BISECT_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:  # or at adjacent floats
        if fp(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


@lru_cache(maxsize=None)
def _bisect_steps(lo: float, hi: float) -> int:
    """Steps of :func:`_argmax_concave`'s bisection on a doubling bracket, ``[0, 1]`` or ``[2**j,
    2**(j+1)]``: its midpoints are exact up to adjacent floats, so any halves kept take as many."""
    steps = 0
    while hi - lo > _BISECT_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, steps = mid, steps + 1
    return steps


def _row_slopes(LW: np.ndarray, LR: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Slopes at ``s`` of the :func:`_argmax_concave_rows` curves, each row's as the scalar ``w @ d``."""
    return (w @ _tilted(LW, LR, s[:, None, None], value=False)[:, :, None])[:, 0, 0]


def _argmax_concave_rows(LW: np.ndarray, LR: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_argmax_concave` with ``cap = inf`` on the curves ``w[r, 0] @ mu``
    over the padded direction rows ``LW[r]``, ``LR[r]`` (shapes ``(rows, k, ny)``
    and ``(rows, 1, k)``).  Every row takes the steps of its scalar run (the
    exit at ``s = 0``, the doubling, the float-range exit, the bisection), so
    tilts and flags are the scalar ones bit for bit.  The doubling runs over a
    working set compressed only when some row finishes; each bisection step,
    over the rows with steps left (:func:`_bisect_steps`), sorted first."""
    s_out, lo_at, hi_at = np.zeros((3, len(w)))     # lo_at, hi_at: brackets as doubling ends
    attained = np.ones(len(w), dtype=bool)
    run = np.flatnonzero(~(_row_slopes(LW, LR, w, np.zeros(len(w))) <= 0))
    lo, hi, data = np.zeros(run.size), np.ones(run.size), (LW[run], LR[run], w[run])
    while run.size:
        slope = _row_slopes(*data, hi)
        rising = (slope > 0) | (nan := np.isnan(slope))
        lost = rising & (nan | (hi > sys.float_info.max / 2.0))
        if not (keep := rising & ~lost).all():
            s_out[run[lost]], attained[run[lost]] = lo[lost], False
            lo_at[run[~rising]], hi_at[run[~rising]] = lo[~rising], hi[~rising]
            run, lo, hi, *data = (a[keep] for a in (run, lo, hi, *data))
        lo, hi = hi, 2.0 * hi
    run = np.flatnonzero(hi_at)       # a turned slope leaves hi >= 1
    steps = np.array([_bisect_steps(*b) for b in zip(lo_at[run].tolist(), hi_at[run].tolist())], np.intp)
    run = run[np.argsort(-steps, kind="stable")]
    lo, hi, data = lo_at[run], hi_at[run], (LW[run], LR[run], w[run])
    for n in (run.size - np.cumsum(np.bincount(steps)))[:-1].tolist():
        mid = 0.5 * (lo[:n] + hi[:n])
        right = _row_slopes(*(a[:n] for a in data), mid) > 0
        lo[:n], hi[:n] = np.where(right, mid, lo[:n]), np.where(right, hi[:n], mid)
    s_out[run] = 0.5 * (lo + hi)
    return s_out, attained


@dataclass(frozen=True)
class SupResult:
    """Outcome of a one-dimensional concave maximization over ``s >= 0``.

    ``s_star`` is the smallest maximizer when the supremum is attained;
    otherwise it is ``inf`` and ``value`` carries the limiting value
    (itself possibly ``inf`` when the curve diverges upward), or, when
    the maximizer lies beyond the float range, the last value reached.
    """

    s_star: float
    value: float
    attained: bool


class PairKernel:
    """All per-letter kernel evaluations for one channel/metric pair.

    ``s_limit`` is the largest tilt the public evaluations accept: above
    it ``s`` times the largest ``|log ratio|`` nears the float range, so
    they raise :class:`PreconditionError` rather than overflow.
    """

    def __init__(self, pair: ChannelMetricPair):
        self.pair = pair
        self._install(pair.directions)

    def _install(self, dirs: dict[tuple[int, int], _Direction]) -> None:
        """Use ``dirs`` as the per-pair data: pad their rows for :func:`_tilted`,
        sort them into curves and set ``s_limit``.

        An affine row is padded as one entry, ``log`` of its mass and
        ``-log A``, so it evaluates exactly to its line.  ``_curve`` maps
        a direction to the first one with the same exact (weight, ratio)
        multiset, hence the same curve, or to None when its curve is
        identically zero (all ratios one, full mass).
        """
        self._dirs = dirs
        nx, ny = self.pair.nx, self.pair.ny
        LW = [[-INF] * ny for _ in range(nx * nx)]
        LR = [[0.0] * ny for _ in range(nx * nx)]
        mu0 = [INF] * (nx * nx)                     # exact values at s = 0
        self._curve: dict[tuple[int, int], Optional[tuple[int, int]]] = {}
        reps: dict[tuple, tuple[int, int]] = {}
        for (a, b), d in dirs.items():
            k = a * nx + b
            if d.empty:
                LW[k][0] = 0.0     # keeps the evaluator finite; read as inf
            elif d.affine:
                LW[k][0], LR[k][0] = math.log(d.tail_mass), -d.slope_limit
            else:
                for y, w, r in zip(d.outputs, d.weights, d.ratios):
                    LW[k][y], LR[k][y] = math.log(w), math.log(r)
            if not d.empty:
                mu0[k] = 0.0 - math.log(d.y_hat_mass)
            # one ratio on all outputs, the largest 1: every ratio is 1
            zero = d.affine and d.a_min == 1 and d.y_hat_mass == 1
            key = tuple(sorted(w.as_integer_ratio() + r.as_integer_ratio()
                               for w, r in zip(d.weights, d.ratios)))
            self._curve[(a, b)] = None if zero else reps.setdefault(key, (a, b))
        self._LW = np.array(LW).reshape(nx, nx, ny)
        self._LR = np.array(LR).reshape(nx, nx, ny)
        # The curves in key order; column k of _merge marks the directions of curve k.
        self._reps = sorted(reps.values())
        column = {rep: k for k, rep in enumerate(self._reps)}
        ra, rb = np.array(self._reps, dtype=np.intp).reshape(-1, 2).T
        self._LW_reps, self._LR_reps = self._LW[ra, rb], self._LR[ra, rb]
        self._merge = np.zeros((nx * nx, len(self._reps)), dtype=np.int64)
        for (a, b), rep in self._curve.items():
            if rep is not None:
                self._merge[a * nx + b, column[rep]] = 1
        self._a_min = [dirs[rep].a_min for rep in self._reps]
        self._tail_logs = np.array([(0.0, 0.0, 1.0) if dirs[rep].empty else (
            math.log(a.numerator) - math.log(a.denominator), math.log(a.numerator * a.denominator), 0.0)
            for rep, a in zip(self._reps, self._a_min)]).reshape(-1, 3)
        self._mu0 = np.array(mu0).reshape(nx, nx)
        self._empty = self._mu0 == INF
        span = float(np.abs(self._LR).max())
        # below s_limit, s * log r and the sums and differences of kernel values stay finite
        self.s_limit = sys.float_info.max / (4.0 * span) if span > 0 else INF

    # -- scalar evaluations -------------------------------------------------

    def direction(self, a: int, b: int) -> _Direction:
        return self._dirs[(a, b)]

    def empty_support(self, a: int, b: int) -> bool:
        return self._dirs[(a, b)].empty

    def mu(self, a: int, b: int, s: float) -> float:
        """Kernel value at tilt ``s``.  At ``s = 0`` it is the exact
        ``-log`` of the channel mass on the metric-overlap outputs."""
        _check_tilt("mu", s, self.s_limit)
        if s == 0 or self._dirs[(a, b)].empty:
            return float(self._mu0[a, b])
        return float(_tilted(self._LW[a, b], self._LR[a, b], s)[0])

    def mu_prime(self, a: int, b: int, s: float) -> float:
        _check_tilt("mu_prime", s, self.s_limit)
        if self._dirs[(a, b)].empty:
            return INF
        return float(_tilted(self._LW[a, b], self._LR[a, b], s, value=False))

    def mu_prime_limit(self, a: int, b: int) -> float:
        """Limiting slope ``log A(a, b)``; ``inf`` when the kernel is identically infinite."""
        return self._dirs[(a, b)].slope_limit

    def extreme_ratio(self, a: int, b: int) -> Union[Fraction, float]:
        """Exact ``A(a, b)``, the smallest ``q(a,y)/q(b,y)`` over outputs reachable from ``a``."""
        return self._dirs[(a, b)].a_min

    def classify_limit(self, a: int, b: int) -> tuple[str, float]:
        """Trichotomy of ``mu(a, b, s)`` as ``s`` grows, with the limit value."""
        d = self._dirs[(a, b)]
        if d.empty or d.a_min > 1:
            return (PLUS_INFINITY, INF)
        if d.a_min == 1:
            return (FINITE_LIMIT, d.intercept)
        return (MINUS_INFINITY, -INF)

    def sigma(self, a: int, b: int, s: float) -> float:
        return self.mu(a, b, s) + self.mu(b, a, s)

    # -- weighted sums of directions ------------------------------------------

    def _weighted(
        self, pairs: Sequence[tuple[int, int]], c: Sequence[float],
    ) -> Callable[..., Union[tuple[float, float], float]]:
        """``s -> (sum_k c_k mu(pairs_k, s), its slope)`` (the slope if not ``value``) for
        nonempty directions; the rows are gathered once, then evaluated together."""
        a, b = np.array(pairs).T
        LW, LR = self._LW[a, b], self._LR[a, b]
        w = np.asarray(c, dtype=float)

        def at(s: float, value: bool = True) -> Union[tuple[float, float], float]:
            t = _tilted(LW, LR, s, value)
            return (float(w @ t[0]), float(w @ t[1])) if value else float(w @ t)

        return at

    # -- sequence-level evaluations ------------------------------------------

    def _words(self, x1: Sequence[int], x2: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Two equally long words of :func:`_integer_words` in the alphabet, as ``(1, n)`` int64 arrays."""
        if len(x1) != len(x2) or not x1:
            raise PreconditionError("codewords must be nonempty and of equal length")
        words = _integer_words((x1, x2))
        if min(map(min, words)) < 0 or max(map(max, words)) >= self.pair.nx:
            raise ValidationError("codeword symbol outside the input alphabet")
        return tuple(np.array(words, dtype=np.int64)[:, None])

    def _sequence(self, x1: Sequence[int], x2: Sequence[int], s: float) -> tuple[float, float]:
        """Value and slope at ``s`` of the sequence kernel: one row of :meth:`_sequence_rows`."""
        _check_tilt("mu_sequence", s, self.s_limit)
        value, slope = self._sequence_rows(*self._words(x1, x2), np.array([float(s)]))
        return float(value[0]), float(slope[0])

    def _sequence_rows(self, x1: np.ndarray, x2: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and slopes of the sequence kernels of the word pairs ``(x1[r], x2[r])``
        (checked integer arrays of shape ``(rows, n)``) at the tilts ``s[r]``: rows with
        equally many letter pairs are evaluated together, each term in order of first
        appearance, and a value at ``s = 0`` is the exact sum.  The first row whose
        tilt is bad or whose sum leaves the float range raises."""
        nx, (rows, n) = self.pair.nx, x1.shape
        cell = (np.arange(rows)[:, None] * nx * nx + x1 * nx + x2).ravel()   # (row, letter pair)
        counts = np.bincount(cell, minlength=rows * nx * nx).reshape(rows, -1)
        first = np.full(rows * nx * nx, n)
        np.minimum.at(first, cell, np.tile(np.arange(n), rows))     # where each pair first shows
        order = np.argsort(first.reshape(rows, -1), axis=1, kind="stable")
        terms = np.count_nonzero(counts, axis=1)
        tilt_ok = np.isfinite(s) & (s >= 0) & (s <= self.s_limit)
        live = tilt_ok & ~(counts.astype(bool) & self._empty.ravel()).any(axis=1)
        value, slope = np.full((2, rows), INF)
        LW, LR = self._LW.reshape(nx * nx, -1), self._LR.reshape(nx * nx, -1)
        for k in sorted(set(terms[live].tolist())):
            group = np.flatnonzero(live & (terms == k))
            cols = order[group, :k]
            w = np.take_along_axis(counts[group], cols, axis=1).astype(float)[:, None, :]
            with np.errstate(over="ignore"):    # an overflowing sum is rejected below
                v, d = _tilted(LW[cols], LR[cols], s[group, None, None])
                value[group], slope[group] = (w @ v[:, :, None])[:, 0, 0], (w @ d[:, :, None])[:, 0, 0]
        mu0 = self._mu0.ravel().tolist()
        for r in np.flatnonzero(live & (s == 0)).tolist():
            ab = order[r, :terms[r]].tolist()
            value[r] = sum(c * mu0[d] for d, c in zip(ab, counts[r, ab].tolist()))
        if (wrong := ~tilt_ok | (live & ~np.isfinite(value))).any():
            r = int(wrong.argmax())
            _check_tilt("mu_sequence", float(s[r]), self.s_limit)
            raise PreconditionError(f"mu_sequence: the sum at tilt s = {float(s[r])} "
                                    "leaves the float range; use a smaller tilt")
        return value, slope

    def mu_sequence(self, x1: Sequence[int], x2: Sequence[int], s: float) -> float:
        """Kernel of two length-``n`` words; additive over letters, so this is
        ``sum over (a,b) of count(a,b) * mu(a,b,s)`` (not normalized by ``n``).

        Infinite when some letter pair's kernel is; a sum of finite terms
        that leaves the float range raises :class:`PreconditionError`.
        """
        return self._sequence(x1, x2, s)[0]

    def sequence_sup(self, x1: Sequence[int], x2: Sequence[int]) -> SupResult:
        """Supremum over ``s >= 0`` of the (unnormalized) sequence kernel: its letter-pair
        counts merged onto the curves, one :meth:`_sup_rows` row, so equal curves give equal bits."""
        x1, x2, nx = *self._words(x1, x2), self.pair.nx
        return self._sup_row(np.bincount((x1 * nx + x2)[0], minlength=nx * nx) @ self._merge)

    # -- symmetric sums and their maximizers ----------------------------------

    def sup_sigma(self, a: int, b: int) -> SupResult:
        """Smallest maximizer and supremum of ``mu(a,b,s) + mu(b,a,s)``.

        Constant sums report ``s_star = 0``.  A boundary pair whose sum
        is not constant approaches its ceiling only in the limit, which
        is reported as ``attained=False`` with ``s_star = inf``.
        """
        if a == b:
            return SupResult(0.0, 0.0, True)
        if self._dirs[(a, b)].empty or self._dirs[(b, a)].empty:
            raise InfiniteExponentError(
                f"sigma({a},{b}) is identically infinite: inputs share no usable output"
            )
        nx = self.pair.nx
        return self._sup_row(self._merge[a * nx + b] + self._merge[b * nx + a])

    def s_cap(self) -> float:
        """Upper end of the tilt interval that contains every pairwise maximizer.

        Requires every symmetric sum to attain its supremum (possibly as
        a constant).  A divergent sum means the zero-error condition
        fails; a non-constant sum with an unattained ceiling means the
        pair has an unbalanced boundary pair, and the caller should move
        to the relaxed kernel.  The sums ``a < b`` are rows of one
        :meth:`_sup_rows` batch, read in ``(a, b)`` order, so the first
        failing pair raises the error of the pair-by-pair loop.
        """
        nx, cap = self.pair.nx, 0.0
        a, b = np.nonzero(np.arange(nx)[:, None] < np.arange(nx))   # a < b, row-major
        sups = self._sup_rows(self._merge[a * nx + b] + self._merge[b * nx + a])
        for a, b, s_star, value, ok in zip(a.tolist(), b.tolist(), *(x.tolist() for x in sups)):
            if self._dirs[(a, b)].empty or self._dirs[(b, a)].empty:
                raise InfiniteExponentError(
                    f"sigma({a},{b}) is identically infinite: inputs share no usable output"
                )
            if value == INF:
                raise InfiniteExponentError(
                    f"sigma({a},{b}) diverges: zero-error condition fails for this pair"
                )
            if not ok:
                raise PreconditionError(
                    f"sigma({a},{b}) only approaches its ceiling in the limit; "
                    "use the relaxed kernel for a finite search interval"
                )
            cap = max(cap, s_star)
        return cap

    def _at_zero(self, key: tuple) -> SupResult:
        """The curve ``key`` maximized at ``s = 0``, with its exact value there."""
        return SupResult(0.0, float(sum(c * self._mu0[ab] for ab, c in key)), True)

    def _tail_signs(self, keys: np.ndarray) -> list[int]:
        """Sign of ``prod_k A_k ** c_k - 1`` per row of curve counts ``keys`` (1 with an empty
        curve, which diverges too), from ``_tail_logs``: ``sum c_k (log num_k - log den_k)`` rounds
        far below ``1e-9 sum c_k log(num_k den_k)``, and rows within that of 0 are decided exactly."""
        est, size, empty = (keys @ self._tail_logs).T
        signs = np.where(empty > 0, 1, np.sign(est)).astype(np.int64)
        for r in np.flatnonzero((empty == 0) & (np.abs(est) <= 1e-9 * size)).tolist():
            signs[r] = _sign_of_power_product(self._a_min, keys[r])
        return signs.tolist()

    def _closed_form(self, key: tuple, sign: int) -> Optional[SupResult]:
        """Supremum of the curve ``key`` when its tail settles it; None when
        the maximum is interior and needs a search.

        The limiting slope is ``log`` of the rational product ``prod A_k ** c_k``,
        whose comparison with one, ``sign`` (:meth:`_tail_signs`), decides between
        divergence (above one), a horizontal asymptote or a constant (one), and an
        interior maximum (below one).
        """
        if sign > 0:
            return SupResult(INF, INF, False)
        if sign < 0:
            return None
        dirs = [self._dirs[ab] for ab, _ in key]
        if all(d.affine for d in dirs):
            return self._at_zero(key)
        return SupResult(INF, sum(c * d.intercept for d, (_, c) in zip(dirs, key)), False)

    def _sup_weighted(self, key: tuple) -> SupResult:
        """Maximize ``sum c_k mu_k(s)`` over ``s >= 0`` for the curve ``key``,
        ``((rep, c_k), ...)`` with integer ``c_k > 0``, whose limiting slope is
        negative (:meth:`_closed_form` is None), so the slope turns at a finite
        tilt.  A maximum at ``s = 0`` takes the exact value there."""
        at = self._weighted([ab for ab, _ in key], [c for _, c in key])
        s, attained = _argmax_concave(lambda s: at(s, value=False))
        if attained and s == 0:
            return self._at_zero(key)
        return SupResult(s if attained else INF, at(s)[0], attained)

    def _sup_rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Suprema over ``s >= 0`` of many curves at once.

        Row ``k`` of ``keys`` counts each curve of ``self._reps`` in one
        curve key, zeros for curves it lacks.  Returns ``s_star``,
        ``value`` and ``attained`` per row: tails are read at once
        (:meth:`_tail_signs`, :meth:`_closed_form`), the one-term interior
        keys of each curve share one :meth:`_sup_weighted` solve of it, and
        the other interior keys with the same number of terms (unless alone)
        are stacked and handed to one :func:`_argmax_concave_rows` (its only
        caller), bit for bit :meth:`_sup_weighted` on each key.
        """
        rows = len(keys)
        s_star, value, attained = np.zeros(rows), np.zeros(rows), np.ones(rows, dtype=bool)
        key_of, interior, signs = [], [], self._tail_signs(keys)
        for r, counts in enumerate(keys.tolist()):
            key = tuple((rep, c) for rep, c in zip(self._reps, counts) if c)
            key_of.append(key)
            closed = self._closed_form(key, signs[r])
            if closed is None:
                interior.append(r)
            else:
                s_star[r], value[r], attained[r] = closed.s_star, closed.value, closed.attained
        interior = np.array(interior, dtype=np.intp)
        terms = np.count_nonzero(keys[interior], axis=1)
        # A one-term curve c mu_k has the slope c d, of the sign of d at every tilt, so
        # every c takes the steps of c = 1: the rows of a curve take one solve and c v.
        one = interior[terms == 1]
        curve = np.nonzero(keys[one])[1]
        with np.errstate(over="ignore", invalid="ignore"):   # NaN slopes end a run
            for k in np.unique(curve).tolist():
                group = one[curve == k]
                res = self._sup_weighted(((self._reps[k], 1),))
                s_star[group], value[group], attained[group] = res.s_star, keys[group, k] * res.value, res.attained
                if res.attained and res.s_star == 0:
                    value[group] = [self._at_zero(key_of[r]).value for r in group.tolist()]
            keep = terms > 1
            interior, terms = interior[keep], terms[keep]
            for k in sorted(set(terms.tolist())):
                group = interior[terms == k]
                if len(group) == 1:
                    res = self._sup_weighted(key_of[group[0]])
                    s_star[group], value[group], attained[group] = res.s_star, res.value, res.attained
                    continue
                cols = np.nonzero(keys[group])[1].reshape(len(group), k)
                LW, LR = self._LW_reps[cols], self._LR_reps[cols]
                w = np.take_along_axis(keys[group], cols, axis=1).astype(float)[:, None, :]
                s, ok = _argmax_concave_rows(LW, LR, w)
                value[group] = (w @ _tilted(LW, LR, s[:, None, None])[0][:, :, None])[:, 0, 0]
                s_star[group], attained[group] = np.where(ok, s, INF), ok
                for r in group[ok & (s == 0)]:
                    value[r] = self._at_zero(key_of[r]).value
        return s_star, value, attained

    def _sup_row(self, counts: np.ndarray) -> SupResult:
        """:meth:`_sup_rows` of one row of curve counts."""
        s_star, value, attained = (a[0] for a in self._sup_rows(counts[None]))
        return SupResult(float(s_star), float(value), bool(attained))

    # -- vectorized matrix evaluations ----------------------------------------

    def _grid(self, s_values: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
        """Values and slopes of every direction over a tilt grid, each of
        shape ``(len(s), nx, nx)``.  Values at ``s = 0`` are exact; empty
        directions read ``inf``."""
        s = np.asarray(s_values, dtype=float)
        mu, slope = _tilted(self._LW, self._LR, s[:, None, None, None])
        mu[s == 0] = self._mu0
        mu[:, self._empty] = INF
        slope[:, self._empty] = INF
        return mu, slope

    def mu_matrix(self, s: float) -> np.ndarray:
        """Matrix of ``mu(a, b, s)`` (affine entries exact)."""
        return self.mu_grid([s])[0]

    def mu_grid(self, s_values: np.ndarray) -> np.ndarray:
        """Stacked ``mu`` matrices over a tilt grid, shape ``(len(s), nx, nx)``."""
        return self._grid(s_values)[0]

    def sigma_matrix(self, s: float) -> np.ndarray:
        """Matrix of ``sigma(a, b, s)``; kept while ``perfbench/spans.py`` wraps it."""
        m = self.mu_matrix(s)
        return m + m.T

    def sigma_prime_matrix(self, s: float) -> np.ndarray:
        """Matrix of the slopes of ``sigma(a, b, s)``; kept while ``perfbench/spans.py`` wraps it."""
        d = self._grid([s])[1][0]
        return d + d.T

    # -- tilted conditional distributions --------------------------------------

    def tilted_distribution(self, a: int, b: int, s: float) -> np.ndarray:
        """Output law proportional to ``W(y|a) * ratio**s`` on the overlap outputs.

        Computed from the exact direction data on its own, so it serves as
        an independent check on the slopes of :func:`_tilted`.
        """
        d = self._dirs[(a, b)]
        if d.empty:
            raise PreconditionError(f"tilted distribution undefined: mu({a},{b}) is infinite")
        x = np.array([math.log(w) + s * math.log(r) for w, r in zip(d.weights, d.ratios)])
        x = x - x.max()
        p = np.exp(x)
        p /= p.sum()
        out = np.zeros(self.pair.ny)
        out[list(d.outputs)] = p
        return out


def _as_kernel(pair: Union[ChannelMetricPair, PairKernel]) -> PairKernel:
    """The kernel itself, or a fresh kernel built from a pair."""
    if isinstance(pair, PairKernel):
        return pair
    if isinstance(pair, ChannelMetricPair):
        return PairKernel(pair)
    raise ValidationError("expected a channel/metric pair or a kernel built from one")


def _integer_words(words: Iterable[Sequence[int]]) -> list[list[int]]:
    """The words' symbols as Python ints: one that fails ``operator.index`` (ints, numpy
    integers and bools pass) raises :class:`ValidationError` rather than being truncated."""
    out = []
    for i, w in enumerate(words):
        try:
            out.append(list(map(int, map(operator.index, w))))
        except TypeError:
            bad = next(v for v in w if not hasattr(type(v), "__index__"))
            raise ValidationError(f"codeword {i} has the non-integer symbol {bad!r}") from None
    return out


def joint_counts(x1: Sequence[int], x2: Sequence[int]) -> dict[tuple[int, int], int]:
    """Letter-pair counts of two equal-length words."""
    if len(x1) != len(x2) or not x1:
        raise PreconditionError("codewords must be nonempty and of equal length")
    return dict(Counter(zip(x1, x2)))


def write_mu_curve(kernel: PairKernel, path: str, s_values: Iterable[float]) -> int:
    """Dump the curve of every direction ``a != b`` to CSV with columns
    ``a, b, s, mu, mu_prime``.

    Returns the number of data rows written.  Infinite values are
    rendered as ``inf`` so the file round-trips through ``float()``.
    """
    labels = kernel.pair.input_alphabet
    nx = kernel.pair.nx
    pairs = [(a, b) for a in range(nx) for b in range(nx) if a != b]
    s_list = [float(s) for s in s_values]
    for s in s_list:
        _check_tilt("write_mu_curve", s, kernel.s_limit)
    mu, slope = kernel._grid(s_list)
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "s", "mu", "mu_prime"])
        for a, b in pairs:
            for i, s in enumerate(s_list):
                writer.writerow(
                    [labels[a], labels[b], repr(s),
                     repr(float(mu[i, a, b])), repr(float(slope[i, a, b]))]
                )
                rows += 1
    return rows
