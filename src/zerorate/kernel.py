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
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair, _Direction, _kept, _letter_pair, _log, _sign_of_power_product
from .errors import InfiniteExponentError, PreconditionError, ValidationError

INF = math.inf

_BISECT_TOL = 1e-9


def _check_tilt(name: str, s, limit: float) -> float:
    """``s`` as the float every caller evaluates at.  Rejects tilts that are
    negative or not finite (NaN fails ``s >= 0``), and tilts above ``limit``,
    a kernel's :attr:`PairKernel.s_limit`, or above the float range: ``s`` is
    compared exactly, so a rational too large for a float fails rather than
    overflows."""
    if not (s >= 0 and s != INF):
        raise PreconditionError(f"{name} requires a finite s >= 0, got {s}")
    limit = min(limit, sys.float_info.max)
    if s > limit:
        raise PreconditionError(
            f"{name}: tilt s = {s} is above {limit:.6g}, the largest tilt this kernel "
            "evaluates without float overflow"
        )
    return float(s)


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


@lru_cache(maxsize=None)
def _bisect_steps(lo: float, hi: float) -> int:
    """Steps of the bisection on an uncapped doubling bracket, ``[0, 1]`` or ``[2**j, 2**(j+1)]``:
    its midpoints are exact up to adjacent floats, so any halves kept take as many."""
    steps = 0
    while hi - lo > _BISECT_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, steps = mid, steps + 1
    return steps


def _row_slopes(LW: np.ndarray, LR: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Slopes at ``s`` of the :func:`_argmax_concave_rows` curves, each row's as the scalar ``w @ d``."""
    return (w @ _tilted(LW, LR, s[:, None, None], value=False)[:, :, None])[:, 0, 0]


def _argmax_concave_rows(
    LW: np.ndarray, LR: np.ndarray, w: np.ndarray, cap: float = INF,
) -> tuple[np.ndarray, np.ndarray]:
    """The one tilt maximizer: smallest maximizers on ``[0, cap]`` of the concave
    curves ``w[r, 0] @ mu`` over the padded direction rows ``LW[r]``, ``LR[r]``
    (shapes ``(rows, k, ny)`` and ``(rows, 1, k)``), as ``(s, attained)`` arrays.

    A curve doubles the tilt until its slope stops being positive, then bisects
    to ``_BISECT_TOL`` or to adjacent floats.  A slope still positive at ``cap``
    puts the maximizer at ``cap``.  With ``cap`` infinite the caller must know
    that the slope turns at a finite tilt; should the float range run out first
    (the slope turns NaN or the tilt cannot double), the result is the last
    tilt reached, unattained.  Every bisection step reads slopes only.

    One curve takes these steps on floats: through the row loop it costs about
    twice as much.  Only one curve may take a finite ``cap``, since a capped
    bracket's bisection length depends on the path.  A batch takes every row's
    own steps, bit for bit: the doubling runs over a working set compressed only
    when some row finishes; each bisection step, over the rows with steps left
    (:func:`_bisect_steps`), sorted first.
    """
    if len(w) == 1:
        c, LW, LR = w[0, 0], LW[0], LR[0]

        def slope_at(s: float) -> float:
            return float(c @ _tilted(LW, LR, s, value=False))

        if slope_at(0.0) <= 0:
            return np.zeros(1), np.ones(1, dtype=bool)
        lo, hi = 0.0, min(1.0, cap)
        while (slope := slope_at(hi)) > 0 or math.isnan(slope):
            if math.isnan(slope) or hi > sys.float_info.max / 2.0:
                return np.array([lo]), np.zeros(1, dtype=bool)
            if hi >= cap:
                return np.array([cap]), np.ones(1, dtype=bool)
            lo, hi = hi, min(2.0 * hi, cap)
        while hi - lo > _BISECT_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:  # or at adjacent floats
            lo, hi = (mid, hi) if slope_at(mid) > 0 else (lo, mid)
        return np.array([0.5 * (lo + hi)]), np.ones(1, dtype=bool)
    if cap != INF:
        raise ValueError("only a single curve takes a finite cap")
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
                LW[k][0], LR[k][0] = _log(d.tail_mass), -d.slope_limit
            else:
                for y, w, r in zip(d.outputs, d.weights, d.ratios):
                    LW[k][y], LR[k][y] = _log(w), _log(r)
            if not d.empty:
                mu0[k] = 0.0 - _log(d.y_hat_mass)
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
            _log(a), math.log(a.numerator * a.denominator), 0.0)
            for rep, a in zip(self._reps, self._a_min)]).reshape(-1, 3)
        self._mu0 = np.array(mu0).reshape(nx, nx)
        self._empty = self._mu0 == INF
        span = float(np.abs(self._LR).max())
        # below s_limit, s * log r and the sums and differences of kernel values stay finite
        self.s_limit = sys.float_info.max / (4.0 * span) if span > 0 else INF

    # -- scalar evaluations -------------------------------------------------

    def direction(self, a: int, b: int) -> _Direction:
        """Exact data of ``(a, b)``; like every letter read here, through :func:`_letter_pair`."""
        return self._dirs[_letter_pair(self.pair.nx, a, b)]

    def mu(self, a: int, b: int, s: float) -> float:
        """Kernel value at tilt ``s``.  At ``s = 0`` it is the exact
        ``-log`` of the channel mass on the metric-overlap outputs."""
        s = _check_tilt("mu", s, self.s_limit)
        ab = _letter_pair(self.pair.nx, a, b)
        if s == 0 or self._dirs[ab].empty:
            return float(self._mu0[ab])
        return float(_tilted(self._LW[ab], self._LR[ab], s)[0])

    def mu_prime(self, a: int, b: int, s: float) -> float:
        s = _check_tilt("mu_prime", s, self.s_limit)
        ab = _letter_pair(self.pair.nx, a, b)
        if self._dirs[ab].empty:
            return INF
        return float(_tilted(self._LW[ab], self._LR[ab], s, value=False))

    def sigma(self, a: int, b: int, s: float) -> float:
        return self.mu(a, b, s) + self.mu(b, a, s)

    # -- sequence-level evaluations ------------------------------------------

    def _words(self, x1: Sequence[int], x2: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The pair ``x1, x2`` through :func:`_checked_words` in the alphabet, as ``(1, n)`` int64 arrays."""
        return tuple(_checked_words((x1, x2), self.pair.nx)[:, None])

    def _sequence(self, x1: Sequence[int], x2: Sequence[int], s: float) -> tuple[float, float]:
        """Value and slope at ``s`` of the sequence kernel: one row of :meth:`_sequence_rows`."""
        s = _check_tilt("mu_sequence", s, self.s_limit)
        value, slope = self._sequence_rows(*self._words(x1, x2), np.array([s]))
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
        a, b = _letter_pair(self.pair.nx, a, b)
        if a == b:
            return SupResult(0.0, 0.0, True)
        if self._dirs[(a, b)].empty or self._dirs[(b, a)].empty:
            raise InfiniteExponentError(
                f"sigma({a},{b}) is identically infinite: inputs share no usable output"
            )
        return self._sup_row(self._sigma_keys(a, b))

    def _sigma_keys(self, a, b) -> np.ndarray:
        """Curve counts of the symmetric sums ``mu(a, b, .) + mu(b, a, .)``, one row per
        letter pair when ``a`` and ``b`` are index arrays: the rows :meth:`_sup_rows` takes."""
        nx = self.pair.nx
        return self._merge[a * nx + b] + self._merge[b * nx + a]

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
        sups = self._sup_rows(self._sigma_keys(a, b))
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
        curve, which diverges too), from ``_tail_logs``: ``sum c_k log A_k`` (each log by
        ``channel._log``) rounds far below ``1e-9 sum c_k log(num_k den_k)``, and rows within
        that of 0 are decided exactly."""
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

    def _sup_rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Suprema over ``s >= 0`` of many curves at once.

        Row ``k`` of ``keys`` counts each curve of ``self._reps`` in one
        curve key, zeros for curves it lacks.  Returns ``s_star``,
        ``value`` and ``attained`` per row: tails are read at once
        (:meth:`_tail_signs`, :meth:`_closed_form`), and the interior keys
        with the same number of terms, a lone key too, are the rows of one
        :func:`_argmax_concave_rows` call.  A one-term key ``c mu_k`` has the
        slope ``c d``, of the sign of ``d`` at every tilt, so every ``c``
        takes the steps of ``c = 1``: the distinct one-term curves are the
        rows of their call, and each key takes ``c`` times its curve's value.
        A maximum at ``s = 0`` takes each key's exact value there.
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
        with np.errstate(over="ignore", invalid="ignore"):   # NaN slopes end a run
            for k in sorted(set(terms.tolist())):
                group = interior[terms == k]
                cols = np.nonzero(keys[group])[1].reshape(len(group), k)
                c = np.take_along_axis(keys[group], cols, axis=1)
                if k == 1:      # one row per distinct curve, with c = 1
                    curve = {}
                    of = [curve.setdefault(col, len(curve)) for col in cols[:, 0].tolist()]
                    cols, scale, c = np.array(list(curve))[:, None], c[:, 0], np.ones((len(curve), 1))
                LW, LR, w = self._LW_reps[cols], self._LR_reps[cols], c.astype(float)[:, None, :]
                s, ok = _argmax_concave_rows(LW, LR, w)
                v = (w @ _tilted(LW, LR, s[:, None, None])[0][:, :, None])[:, 0, 0]
                if k == 1:
                    s, ok, v = s[of], ok[of], scale * v[of]
                s_star[group], value[group], attained[group] = np.where(ok, s, INF), v, ok
                for r in group[ok & (s == 0)].tolist():
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


def _as_kernel(pair: Union[ChannelMetricPair, PairKernel]) -> PairKernel:
    """The kernel itself, or the raw kernel of a pair, built on first use and
    kept on the pair (``PairKernel(pair)`` builds a fresh one)."""
    if isinstance(pair, PairKernel):
        return pair
    if isinstance(pair, ChannelMetricPair):
        return _kept(pair, "_kernel", PairKernel)
    raise ValidationError("expected a channel/metric pair or a kernel built from one")


def _checked_words(words, nx: Optional[int] = None) -> np.ndarray:
    """The one word check: ``words`` (a ``Codebook``, a 2-D array or a sequence
    of words) as an int64 array of shape ``(words, n)``.

    There must be two words or more, of one nonempty length.  Words are read
    in order, each for its length and then its symbols one by one: a symbol
    must pass ``operator.index`` (ints, numpy integers and bools do) and lie
    in ``[0, nx)``, or below 2**63 when ``nx`` is None.  The first fault
    raises :class:`ValidationError` naming it.  A ``Codebook`` was checked
    against its own alphabet when built, so only an alphabet larger than
    ``nx`` costs one array comparison.
    """
    end = 1 << 63 if nx is None else min(nx, 1 << 63)      # symbols are int64 values
    size = getattr(words, "alphabet_size", None)
    if size is not None:
        x = np.array(words.words, dtype=np.int64)
        if size <= end or not (x >= end).any():
            return x
        words = words.words         # the loop below names the first symbol outside
    rows = list(words)
    if len(rows) < 2:
        raise ValidationError("a codebook needs at least two codewords")
    n = len(rows[0])
    if n < 1:
        raise ValidationError("codewords must be nonempty")
    out = []
    for i, w in enumerate(rows):
        if len(w) != n:
            raise ValidationError(f"codeword {i} has length {len(w)}, expected {n}")
        try:
            v = list(map(operator.index, w))
            ok = 0 <= min(v) and max(v) < end
        except TypeError:
            ok = False
        if not ok:
            for sym in w:       # the word's first fault, in order
                try:
                    k = operator.index(sym)
                except TypeError:
                    raise ValidationError(f"codeword {i} has the non-integer symbol {sym!r}") from None
                if not 0 <= k < end:
                    raise ValidationError(f"codeword {i} contains symbol {k} outside [0, {end})")
        out.append(v)
    return np.array(out, dtype=np.int64)


def joint_counts(x1: Sequence[int], x2: Sequence[int]) -> dict[tuple[int, int], int]:
    """Letter-pair counts of two words (:func:`_checked_words`), in order of first appearance."""
    return dict(Counter(zip(*_checked_words((x1, x2)).tolist())))


def write_mu_curve(kernel: PairKernel, path: str, s_values: Iterable[float]) -> int:
    """Dump the curve of every direction ``a != b`` to CSV with columns
    ``a, b, s, mu, mu_prime``.

    Returns the number of data rows written.  Infinite values are
    rendered as ``inf`` so the file round-trips through ``float()``.
    """
    labels = kernel.pair.input_alphabet
    nx = kernel.pair.nx
    pairs = [(a, b) for a in range(nx) for b in range(nx) if a != b]
    s_list = [_check_tilt("write_mu_curve", s, kernel.s_limit) for s in s_values]
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
