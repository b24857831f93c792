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
log-domain form that is stable for arbitrarily large tilts.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair, SupportSets, support_sets
from .errors import InfiniteExponentError, PreconditionError

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


@dataclass(frozen=True)
class _Direction:
    """Precomputed data for one ordered input pair."""

    outputs: tuple[int, ...]          # y with W(y|a) > 0 and q(a,y) q(b,y) > 0
    weights: tuple[Fraction, ...]     # W(y|a) on those outputs
    ratios: tuple[Fraction, ...]      # q(b,y) / q(a,y) on those outputs
    y_hat_mass: Fraction              # sum of W(y|a) over the whole metric-overlap set
    log_w: np.ndarray
    log_r: np.ndarray
    affine: bool
    a_min: Union[Fraction, float]     # min q(a,y)/q(b,y) over channel support (inf if empty)
    tail_mass: Fraction               # sum of W(y|a) over outputs attaining a_min

    @property
    def empty(self) -> bool:
        return not self.outputs

    @property
    def slope_limit(self) -> float:
        """Limiting slope of mu(a, b, .), i.e. log of the extreme ratio."""
        if self.empty:
            return INF
        return math.log(self.a_min)

    @property
    def intercept(self) -> float:
        """Height of the large-``s`` asymptote line at ``s = 0``."""
        if self.empty:
            return INF
        return -math.log(self.tail_mass)

    def value(self, s: float) -> float:
        if self.empty:
            return INF
        if self.affine:
            return s * self.slope_limit + self.intercept
        x = self.log_w + s * self.log_r
        m = float(x.max())
        return -(m + math.log(np.exp(x - m).sum()))

    def derivative(self, s: float) -> float:
        if self.empty:
            return INF
        if self.affine:
            return self.slope_limit
        x = self.log_w + s * self.log_r
        x = x - x.max()
        p = np.exp(x)
        p /= p.sum()
        return -float(p @ self.log_r)

    def curvature(self, s: float) -> float:
        """Second derivative, equal to minus the tilted variance of the log-ratio."""
        if self.empty or self.affine:
            return 0.0
        x = self.log_w + s * self.log_r
        x = x - x.max()
        p = np.exp(x)
        p /= p.sum()
        mean = float(p @ self.log_r)
        return -float(p @ (self.log_r - mean) ** 2)


def _build_direction(pair: ChannelMetricPair, support: SupportSets, a: int, b: int) -> _Direction:
    y_hat = support.y_hat[(a, b)]
    outputs, weights, ratios = [], [], []
    for y in sorted(y_hat):
        if pair.W[a][y] > 0:
            outputs.append(y)
            weights.append(pair.W[a][y])
            ratios.append(pair.q[b][y] / pair.q[a][y])
    y_hat_mass = sum((pair.W[a][y] for y in y_hat), Fraction(0))
    if not outputs:
        return _Direction(
            outputs=(), weights=(), ratios=(), y_hat_mass=y_hat_mass,
            log_w=np.empty(0), log_r=np.empty(0), affine=False,
            a_min=INF, tail_mass=Fraction(0),
        )
    r_max = max(ratios)
    tail_mass = sum((w for w, r in zip(weights, ratios) if r == r_max), Fraction(0))
    return _Direction(
        outputs=tuple(outputs),
        weights=tuple(weights),
        ratios=tuple(ratios),
        y_hat_mass=y_hat_mass,
        log_w=np.array([math.log(w) for w in weights]),
        log_r=np.array([math.log(r) for r in ratios]),
        affine=all(r == ratios[0] for r in ratios),
        a_min=1 / r_max,
        tail_mass=tail_mass,
    )


def _tilt_limit(dirs: Iterable[_Direction]) -> float:
    """About ``float_max / (4 max |log r|)``: below it ``s * log r`` and the
    differences and sums of kernel values stay finite.  Infinite when
    every ratio is one."""
    span = max((float(np.abs(d.log_r).max()) for d in dirs if d.outputs), default=0.0)
    return sys.float_info.max / (4.0 * span) if span > 0 else INF


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

    def __init__(self, pair: ChannelMetricPair, support: Optional[SupportSets] = None):
        self.pair = pair
        self.support = support if support is not None else support_sets(pair)
        nx = pair.nx
        self._dirs: dict[tuple[int, int], _Direction] = {}
        for a in range(nx):
            for b in range(nx):
                self._dirs[(a, b)] = _build_direction(pair, self.support, a, b)
        self.s_limit = _tilt_limit(self._dirs.values())
        self._grid_cache: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._seq_cache: dict[tuple, SupResult] = {}

    # -- scalar evaluations -------------------------------------------------

    def direction(self, a: int, b: int) -> _Direction:
        return self._dirs[(a, b)]

    def empty_support(self, a: int, b: int) -> bool:
        return self._dirs[(a, b)].empty

    def mu(self, a: int, b: int, s: float, sum_domain: str = "qq_support") -> float:
        """Kernel value at tilt ``s``.

        ``sum_domain`` only matters at ``s = 0``: under ``"qq_support"``
        the sum runs over the metric-overlap outputs (the convention the
        exponent formulas use), while ``"full"`` treats every ratio to
        the zeroth power as one, so the value is exactly zero there.
        """
        _check_tilt("mu", s, self.s_limit)
        if sum_domain not in ("qq_support", "full"):
            raise PreconditionError(f"unknown sum_domain {sum_domain!r}")
        d = self._dirs[(a, b)]
        if s == 0:
            if sum_domain == "full":
                return 0.0
            if d.y_hat_mass == 0:
                return INF
            return -math.log(d.y_hat_mass)
        return d.value(s)

    def mu_prime(self, a: int, b: int, s: float) -> float:
        _check_tilt("mu_prime", s, self.s_limit)
        return self._dirs[(a, b)].derivative(s)

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

    # -- sequence-level evaluations ------------------------------------------

    def _check_sequences(self, x1: Sequence[int], x2: Sequence[int]) -> dict[tuple[int, int], int]:
        if len(x1) != len(x2) or not x1:
            raise PreconditionError("codewords must be nonempty and of equal length")
        nx = self.pair.nx
        counts: dict[tuple[int, int], int] = {}
        for u, v in zip(x1, x2):
            if not (0 <= u < nx and 0 <= v < nx):
                raise PreconditionError("codeword symbol out of range")
            counts[(u, v)] = counts.get((u, v), 0) + 1
        return counts

    def mu_sequence(self, x1: Sequence[int], x2: Sequence[int], s: float) -> float:
        """Kernel of two length-``n`` words; additive over letters, so this is
        ``sum over (a,b) of count(a,b) * mu(a,b,s)`` (not normalized by ``n``)."""
        _check_tilt("mu_sequence", s, self.s_limit)
        counts = self._check_sequences(x1, x2)
        total = 0.0
        for (a, b), c in counts.items():
            v = self.mu(a, b, s)
            if v == INF:
                return INF
            total += c * v
        return total

    def sequence_sup(self, x1: Sequence[int], x2: Sequence[int]) -> SupResult:
        """Supremum over ``s >= 0`` of the (unnormalized) sequence kernel.

        Memoized on the letter-pair counts, since codebook scans revisit
        the same joint type many times.
        """
        counts = self._check_sequences(x1, x2)
        key = tuple(sorted(counts.items()))
        hit = self._seq_cache.get(key)
        if hit is None:
            hit = self._sup_weighted([(self._dirs[k], c) for k, c in counts.items()])
            self._seq_cache[key] = hit
        return hit

    # -- symmetric sums and their maximizers ----------------------------------

    def sup_sigma(self, a: int, b: int) -> SupResult:
        """Smallest maximizer and supremum of ``mu(a,b,s) + mu(b,a,s)``.

        Constant sums report ``s_star = 0``.  A boundary pair whose sum
        is not constant approaches its ceiling only in the limit, which
        is reported as ``attained=False`` with ``s_star = inf``.
        """
        if a == b:
            return SupResult(0.0, 0.0, True)
        d_ab, d_ba = self._dirs[(a, b)], self._dirs[(b, a)]
        if d_ab.empty or d_ba.empty:
            raise InfiniteExponentError(
                f"sigma({a},{b}) is identically infinite: inputs share no usable output"
            )
        return self._sup_weighted([(d_ab, 1), (d_ba, 1)])

    def s_cap(self) -> float:
        """Upper end of the tilt interval that contains every pairwise maximizer.

        Requires every symmetric sum to attain its supremum (possibly as
        a constant).  A divergent sum means the zero-error condition
        fails; a non-constant sum with an unattained ceiling means the
        pair has an unbalanced boundary pair, and the caller should move
        to the relaxed kernel.
        """
        cap = 0.0
        nx = self.pair.nx
        for a in range(nx):
            for b in range(a + 1, nx):
                res = self.sup_sigma(a, b)
                if res.value == INF:
                    raise InfiniteExponentError(
                        f"sigma({a},{b}) diverges: zero-error condition fails for this pair"
                    )
                if not res.attained:
                    raise PreconditionError(
                        f"sigma({a},{b}) only approaches its ceiling in the limit; "
                        "use the relaxed kernel for a finite search interval"
                    )
                cap = max(cap, res.s_star)
        return cap

    def _sup_weighted(self, terms: list[tuple[_Direction, int]]) -> SupResult:
        """Maximize ``sum c_k mu_k(s)`` over ``s >= 0`` for integer ``c_k > 0``.

        The tail behaviour is classified exactly first: the limiting
        slope is ``log`` of the rational product ``prod A_k ** c_k``, so
        comparing that product with one decides between divergence, a
        horizontal asymptote, and an attained interior maximum.
        """
        if any(d.empty and c > 0 for d, c in terms):
            return SupResult(INF, INF, False)
        prod: Union[Fraction, float] = Fraction(1)
        for d, c in terms:
            prod *= Fraction(d.a_min) ** c
        if prod > 1:
            return SupResult(INF, INF, False)

        def f(s: float) -> float:
            return sum(c * d.value(s) for d, c in terms)

        def fp(s: float) -> float:
            return sum(c * d.derivative(s) for d, c in terms)

        if prod == 1:
            if all(d.affine for d, _ in terms):
                return SupResult(0.0, f(0.0), True)
            limit = sum(c * d.intercept for d, c in terms)
            return SupResult(INF, limit, False)
        if fp(0.0) <= 0:
            return SupResult(0.0, f(0.0), True)
        # The limiting slope log(prod) is negative, so the slope turns at a
        # finite tilt.  Should the float range run out first (the slope
        # turns NaN or the tilt cannot double), the maximizer is unreachable.
        lo, hi = 0.0, 1.0
        while (slope := fp(hi)) > 0 or math.isnan(slope):
            if math.isnan(slope) or hi > sys.float_info.max / 2.0:
                return SupResult(INF, f(lo), False)
            lo, hi = hi, 2.0 * hi
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:   # adjacent floats: no finer split exists
                break
            if fp(mid) > 0:
                lo = mid
            else:
                hi = mid
        s_star = 0.5 * (lo + hi)
        return SupResult(s_star, f(s_star), True)

    # -- vectorized matrix evaluations ----------------------------------------

    def _padded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._grid_cache is None:
            nx, ny = self.pair.nx, self.pair.ny
            LW = np.full((nx, nx, ny), -INF)
            LR = np.zeros((nx, nx, ny))
            nonempty = np.zeros((nx, nx), dtype=bool)
            for (a, b), d in self._dirs.items():
                if d.outputs:
                    nonempty[a, b] = True
                    LW[a, b, list(d.outputs)] = d.log_w
                    LR[a, b, list(d.outputs)] = d.log_r
            self._grid_cache = (LW, LR, nonempty)
        return self._grid_cache

    def mu_matrix(self, s: float) -> np.ndarray:
        """Matrix of ``mu(a, b, s)`` for ``s > 0`` (affine entries exact)."""
        LW, LR, nonempty = self._padded()
        x = LW + s * LR
        m = x.max(axis=-1)
        safe = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            out = -(safe + np.log(np.exp(x - safe[..., None]).sum(axis=-1)))
        for (a, b), d in self._dirs.items():
            if d.affine:
                out[a, b] = s * d.slope_limit + d.intercept
        out[~nonempty] = INF
        return out

    def mu_grid(self, s_values: np.ndarray) -> np.ndarray:
        """Stacked ``mu`` matrices over a tilt grid, shape ``(len(s), nx, nx)``."""
        LW, LR, nonempty = self._padded()
        s = np.asarray(s_values, dtype=float)[:, None, None, None]
        x = LW[None, ...] + s * LR[None, ...]
        m = x.max(axis=-1)
        safe = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            out = -(safe + np.log(np.exp(x - safe[..., None]).sum(axis=-1)))
        for (a, b), d in self._dirs.items():
            if d.affine:
                out[:, a, b] = np.asarray(s_values) * d.slope_limit + d.intercept
        out[:, ~nonempty] = INF
        return out

    def sigma_matrix(self, s: float) -> np.ndarray:
        m = self.mu_matrix(s)
        return m + m.T

    def sigma_prime_matrix(self, s: float) -> np.ndarray:
        nx = self.pair.nx
        out = np.zeros((nx, nx))
        for (a, b), d in self._dirs.items():
            out[a, b] = d.derivative(s)
        return out + out.T

    # -- tilted conditional distributions --------------------------------------

    def tilted_distribution(self, a: int, b: int, s: float) -> np.ndarray:
        """Output law proportional to ``W(y|a) * ratio**s`` on the overlap outputs."""
        d = self._dirs[(a, b)]
        if d.empty:
            raise PreconditionError(f"tilted distribution undefined: mu({a},{b}) is infinite")
        x = d.log_w + s * d.log_r
        x = x - x.max()
        p = np.exp(x)
        p /= p.sum()
        out = np.zeros(self.pair.ny)
        out[list(d.outputs)] = p
        return out


def joint_counts(x1: Sequence[int], x2: Sequence[int]) -> dict[tuple[int, int], int]:
    """Letter-pair counts of two equal-length words."""
    if len(x1) != len(x2) or not x1:
        raise PreconditionError("codewords must be nonempty and of equal length")
    counts: dict[tuple[int, int], int] = {}
    for u, v in zip(x1, x2):
        counts[(u, v)] = counts.get((u, v), 0) + 1
    return counts


def write_mu_curve(
    kernel: PairKernel,
    path: str,
    s_values: Iterable[float],
    pairs: Optional[Iterable[tuple[int, int]]] = None,
    sum_domain: str = "qq_support",
) -> int:
    """Dump kernel curves to CSV with columns ``a, b, s, mu, mu_prime``.

    Returns the number of data rows written.  Infinite values are
    rendered as ``inf`` so the file round-trips through ``float()``.
    """
    labels = kernel.pair.input_alphabet
    if pairs is None:
        nx = kernel.pair.nx
        pairs = [(a, b) for a in range(nx) for b in range(nx) if a != b]
    s_list = list(s_values)
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "s", "mu", "mu_prime"])
        for a, b in pairs:
            for s in s_list:
                writer.writerow(
                    [labels[a], labels[b], repr(float(s)),
                     repr(float(kernel.mu(a, b, s, sum_domain=sum_domain))),
                     repr(float(kernel.mu_prime(a, b, s)))]
                )
                rows += 1
    return rows
