"""Decoder evaluation lab: exact and sampled error probabilities of the
fixed-metric rule, the tilted finite-blocklength lower bounds, and the
method-of-types utilities used to sanity-check them.

The decoder picks the codeword maximizing the product metric, breaking
ties by policy.  Exact mode merges the output compositions of each
letter-pair cell by their exact metric ratio and convolves the cells,
so everything stays rational without visiting every conditional type;
Monte Carlo mode samples, scores in log space, and re-checks anything
within float distance of the top exactly, first by counting the
distinct metric values in each product and then, where the counts
differ, as rational products, so tie events are decided by arithmetic
rather than rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair
from .errors import BudgetExceededError, PreconditionError, ValidationError, ZerorateError
from .kernel import INF, PairKernel, joint_counts

__all__ = [
    "TIE_POLICIES",
    "DecodingOutcome",
    "BoundReport",
    "exact_error_probabilities",
    "monte_carlo_error",
    "tilted_error_lower_bound",
    "sup_error_lower_bound",
    "type_counting_slack",
    "type_class_probability",
    "conditional_types",
    "quantize_to_type",
    "EmpiricalPoint",
    "empirical_exponent",
]

TIE_POLICIES = ("equiprobable", "as_error", "genie_correct")

_Z95 = 1.959963984540054
_CHUNK = 8192
_NEAR_TIE = 1e-6


@dataclass(frozen=True)
class DecodingOutcome:
    """Error probabilities of the metric decoder on a codebook.

    Exact mode carries rationals and ``average`` is exactly the mean of
    ``per_message``.  Monte Carlo mode carries floats, ``average`` is
    errors over trials, and ``confidence_interval`` is the 95% Wilson
    interval for it.  ``tie_mass`` is the probability of hitting a
    decoding tie, averaged over messages.
    """

    per_message: tuple
    average: Union[Fraction, float]
    tie_mass: Union[Fraction, float]
    mode: str
    tie_policy: str
    trials: Optional[int] = None
    seed: Optional[int] = None
    confidence_interval: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class BoundReport:
    """A finite-blocklength lower bound on the pairwise error probability."""

    value: float
    s: float
    mu: float
    mu_prime: Optional[float]
    delta_n: float
    trivial: bool = False


def _kernel_of(pair) -> PairKernel:
    if isinstance(pair, PairKernel):
        return pair
    if isinstance(pair, ChannelMetricPair):
        return PairKernel(pair)
    raise ValidationError("expected a channel/metric pair or a kernel built from one")


def _words_of(code, expect: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    words = getattr(code, "words", None)
    if words is None:
        words = tuple(tuple(int(v) for v in w) for w in code)
    if expect is not None and len(words) != expect:
        raise PreconditionError(f"expected exactly {expect} codewords, got {len(words)}")
    if len(words) < 2:
        raise PreconditionError("need at least two codewords")
    n = len(words[0])
    if n < 1 or any(len(w) != n for w in words):
        raise ValidationError("codewords must be nonempty and of equal length")
    return words


def _check_symbols(words, nx: int) -> None:
    for w in words:
        for v in w:
            if not 0 <= v < nx:
                raise ValidationError(f"symbol {v} outside the input alphabet")


def _multinomial(counts: Sequence[int]) -> int:
    total, out = 0, 1
    for k in counts:
        total += k
        out *= math.comb(total, k)
    return out


def _compositions(total: int, bins: int) -> Iterator[tuple[int, ...]]:
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest


def type_counting_slack(pair: ChannelMetricPair, n: int) -> float:
    """Polynomial slack of the type-counting argument at blocklength ``n``:
    ``|X|^2 |Y| (1 + 2 log(n+1) + log(1/W_min))`` in nats, where ``W_min``
    is the smallest positive channel entry."""
    if n < 1:
        raise PreconditionError("blocklength must be positive")
    w_min = min(v for row in pair.W for v in row if v > 0)
    return pair.nx**2 * pair.ny * (1.0 + 2.0 * math.log(n + 1.0) - math.log(float(w_min)))


# -- exact two-codeword decoding ---------------------------------------------


_Key = tuple[bool, bool, Fraction]   # (word-1 metric zero, word-2 metric zero, s1/s2)


def _cell_masses(pair: ChannelMetricPair, a: int, b: int, cnt: int) -> dict[_Key, list[Fraction]]:
    """Output compositions of one letter-pair cell, merged by comparison key.

    Each composition with metric products ``s1`` (word 1) and ``s2``
    (word 2) is keyed by which product is zero and by ``s1/s2``, set to
    one once either is zero; the key carries the summed ``coeff * p1``
    and ``coeff * p2``, the composition's probability under either word.
    """
    out: dict[_Key, list[Fraction]] = {}
    for comp in _compositions(cnt, pair.ny):
        coeff = _multinomial(comp)
        p1 = p2 = s1 = s2 = Fraction(1)
        for y, k in enumerate(comp):
            if k:
                p1 *= pair.W[a][y] ** k
                p2 *= pair.W[b][y] ** k
                s1 *= pair.q[a][y] ** k
                s2 *= pair.q[b][y] ** k
        if p1 == 0 and p2 == 0:
            continue
        z1, z2 = s1 == 0, s2 == 0
        key = (z1, z2, Fraction(1) if z1 or z2 else s1 / s2)
        mass = out.setdefault(key, [Fraction(0), Fraction(0)])
        mass[0] += coeff * p1
        mass[1] += coeff * p2
    return out


def _convolve(left: dict[_Key, list[Fraction]], right: dict[_Key, list[Fraction]]):
    """Merge two independent groups of cells: zero flags OR, ratios multiply,
    masses multiply."""
    out: dict[_Key, list[Fraction]] = {}
    for (z1, z2, r), (m1, m2) in left.items():
        for (w1, w2, t), (n1, n2) in right.items():
            y1, y2 = z1 or w1, z2 or w2
            key = (y1, y2, Fraction(1) if y1 or y2 else r * t)
            mass = out.setdefault(key, [Fraction(0), Fraction(0)])
            mass[0] += m1 * n1
            mass[1] += m2 * n2
    return out


def exact_error_probabilities(
    pair: ChannelMetricPair,
    code,
    tie_policy: str = "equiprobable",
    budget: int = 10_000_000,
) -> DecodingOutcome:
    """Exact error probabilities of the two-codeword metric decoder.

    The output compositions of each letter-pair cell are merged by an
    exact comparison key (which metric product is zero, and the ratio of
    the two), the cells are convolved key by key, and each final key
    decides a win, a loss or a tie; all masses are exact rationals.  Tie
    weight is assigned per policy: ``equiprobable`` charges half,
    ``as_error`` all, ``genie_correct`` none of the tied mass.  Raises
    when the number of conditional-type classes (the product of the
    cells' composition counts) exceeds ``budget``; Monte Carlo is the
    fallback at that point.
    """
    if tie_policy not in TIE_POLICIES:
        raise ValidationError(f"unknown tie policy {tie_policy!r}")
    words = _words_of(code, expect=2)
    _check_symbols(words, pair.nx)
    x1, x2 = words
    cells = sorted(joint_counts(x1, x2).items())
    ny = pair.ny
    total_classes = 1
    for _, cnt in cells:
        total_classes *= math.comb(cnt + ny - 1, ny - 1)
    if total_classes > budget:
        raise BudgetExceededError(
            f"{total_classes} conditional-type classes exceed the budget {budget}; "
            "use monte_carlo_error instead"
        )

    total = {(False, False, Fraction(1)): [Fraction(1), Fraction(1)]}
    for (a, b), cnt in cells:
        total = _convolve(total, _cell_masses(pair, a, b, cnt))
    err1 = err2 = tie1 = tie2 = Fraction(0)
    for (z1, z2, r), (m1, m2) in total.items():
        if z1 and z2:
            order = 0
        elif z1 or z2:
            order = -1 if z1 else 1
        else:
            order = (r > 1) - (r < 1)
        if order > 0:       # s1 > s2: word 2 loses
            err2 += m2
        elif order < 0:     # s1 < s2: word 1 loses
            err1 += m1
        else:
            tie1 += m1
            tie2 += m2

    if tie_policy == "equiprobable":
        e1, e2 = err1 + tie1 / 2, err2 + tie2 / 2
    elif tie_policy == "as_error":
        e1, e2 = err1 + tie1, err2 + tie2
    else:
        e1, e2 = err1, err2
    return DecodingOutcome(
        per_message=(e1, e2),
        average=(e1 + e2) / 2,
        tie_mass=(tie1 + tie2) / 2,
        mode="exact",
        tie_policy=tie_policy,
    )


# -- Monte Carlo decoding -------------------------------------------------------


def _wilson(errors: int, trials: int) -> tuple[float, float]:
    z2 = _Z95 * _Z95
    p = errors / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _metric_counts(pair: ChannelMetricPair) -> np.ndarray:
    """Metric entries as one-hot vectors over the distinct positive values.

    Returns ``vec`` of shape ``(nx, ny, K)``: ``vec[x, y]`` marks the
    index of ``q(x,y)`` among the ``K`` distinct positive entries (zero
    entries get a zero row).  Summed along a word, it counts how often
    each value occurs in the word's metric product, so equal sums mean
    equal products; unequal sums can still give equal products, as in
    ``(2/3)^2 = 4/9``.
    """
    index = {v: k for k, v in enumerate(sorted({v for row in pair.q for v in row if v > 0}))}
    vec = np.zeros((pair.nx, pair.ny, len(index)), dtype=np.int64)
    for x, row in enumerate(pair.q):
        for y, v in enumerate(row):
            if v > 0:
                vec[x, y, index[v]] = 1
    return vec


def monte_carlo_error(
    pair: ChannelMetricPair,
    code,
    trials: int,
    seed: int = 0,
    tie_policy: str = "equiprobable",
) -> DecodingOutcome:
    """Sampled decoding error of a codebook of any size.

    Messages are drawn uniformly, outputs from the channel, and the
    decoder compares log metrics in floats; any codeword within a small
    float margin of the leader is re-scored exactly, so winners and ties
    are decided by exact arithmetic.  The re-check counts how often each
    distinct metric value occurs in every candidate's product (see
    :func:`_metric_counts`): when all candidates of a trial share one
    count vector they are exactly the tied leaders, and only a trial
    whose vectors differ multiplies its candidates' metrics as
    ``Fraction`` products.  The stream splits into fixed chunks with
    spawned seeds, making the result reproducible and the merge
    order-independent.
    """
    if trials < 1:
        raise PreconditionError("trials must be positive")
    if tie_policy not in TIE_POLICIES:
        raise ValidationError(f"unknown tie policy {tie_policy!r}")
    words = _words_of(code)
    _check_symbols(words, pair.nx)
    m_count = len(words)
    n = len(words[0])

    wf = np.array([[float(v) for v in row] for row in pair.W])
    cum = np.cumsum(wf, axis=1)
    with np.errstate(divide="ignore"):
        lq = np.where(
            np.array([[v > 0 for v in row] for row in pair.q]),
            np.log(np.array([[float(v) if v > 0 else 1.0 for v in row] for row in pair.q])),
            -INF,
        )
    wd = np.array(words, dtype=np.int64)
    counts = _metric_counts(pair)

    sizes = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        sizes.append(trials % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    errors = np.zeros(m_count, dtype=np.int64)
    sent = np.zeros(m_count, dtype=np.int64)
    tie_events = 0
    for size, child in zip(sizes, children):
        draw_seed, tie_seed = child.spawn(2)
        rng = np.random.default_rng(draw_seed)
        tie_rng = np.random.default_rng(tie_seed)

        msgs = rng.integers(0, m_count, size=size)
        letters = wd[msgs]
        u = rng.random((size, n))
        y = np.minimum((cum[letters] <= u[..., None]).sum(axis=-1), pair.ny - 1)

        scores = np.empty((size, m_count))
        for m in range(m_count):
            scores[:, m] = lq[wd[m][None, :], y].sum(axis=1)
        best = scores.max(axis=1)
        margin = _NEAR_TIE * np.maximum(1.0, np.abs(best))
        near = scores >= (best - margin)[:, None]
        n_cand = near.sum(axis=1)

        easy = n_cand == 1
        winners = scores.argmax(axis=1)
        err_mask = np.zeros(size, dtype=bool)
        err_mask[easy] = winners[easy] != msgs[easy]

        # Exact re-check of the near candidates of every hard trial: sum
        # their count vectors one position at a time, grouped by trial.  The
        # sent word's metric is positive, so every near candidate's is too.
        hard = np.nonzero(~easy)[0]
        group, cand = np.nonzero(near[hard])
        rows = hard[group]
        acc = np.zeros((len(cand), counts.shape[-1]), dtype=np.int64)
        for t in range(n):
            acc += counts[wd[cand, t], y[rows, t]]
        # A trial is settled when all its candidates share one vector.
        bounds = np.searchsorted(group, np.arange(len(hard) + 1))
        unsettled = np.zeros(len(hard), dtype=bool)
        unsettled[group[(acc != acc[bounds[group]]).any(axis=1)]] = True

        for j, i in enumerate(hard):
            cands = cand[bounds[j]:bounds[j + 1]]
            if unsettled[j]:
                exact = []
                for m in cands:
                    prod = Fraction(1)
                    for letter, yy in zip(words[m], y[i]):
                        prod *= pair.q[letter][yy]
                    exact.append(prod)
                top = max(exact)
                argmax = [int(m) for m, v in zip(cands, exact) if v == top]
            else:
                argmax = [int(m) for m in cands]
            truth = int(msgs[i])
            if len(argmax) == 1:
                err_mask[i] = argmax[0] != truth
            else:
                tie_events += 1
                if tie_policy == "equiprobable":
                    pick = argmax[int(tie_rng.integers(0, len(argmax)))]
                    err_mask[i] = pick != truth
                elif tie_policy == "as_error":
                    err_mask[i] = True
                else:
                    err_mask[i] = truth not in argmax

        sent += np.bincount(msgs, minlength=m_count)
        errors += np.bincount(msgs[err_mask], minlength=m_count)

    total_err = int(errors.sum())
    per_message = tuple(
        float(errors[m]) / sent[m] if sent[m] else 0.0 for m in range(m_count)
    )
    return DecodingOutcome(
        per_message=per_message,
        average=total_err / trials,
        tie_mass=tie_events / trials,
        mode="monte_carlo",
        tie_policy=tie_policy,
        trials=trials,
        seed=seed,
        confidence_interval=_wilson(total_err, trials),
    )


# -- finite-blocklength lower bounds ---------------------------------------------


def tilted_error_lower_bound(pair, x1: Sequence[int], x2: Sequence[int], s: float) -> BoundReport:
    """Lower bound on the first message's error probability from tilting
    the sequence kernel: ``exp(-mu(s) + s mu'(s) - slack(n))``.

    Requires a strictly negative sequence slope at ``s``; that is the
    regime where the tilted output distribution concentrates on decoding
    errors.
    """
    kernel = _kernel_of(pair)
    counts = kernel._check_sequences(x1, x2)
    n = len(x1)
    mu = 0.0
    mu_prime = 0.0
    for (a, b), c in counts.items():
        v = kernel.mu(a, b, s)
        if v == INF:
            raise PreconditionError(
                "the sequence kernel is infinite: these words are never confused"
            )
        mu += c * v
        mu_prime += c * kernel.mu_prime(a, b, s)
    if not mu_prime < 0:
        raise PreconditionError(
            f"the bound needs a negative sequence slope; mu'({s}) = {mu_prime}"
        )
    delta = type_counting_slack(kernel.pair, n)
    return BoundReport(
        value=math.exp(-mu + s * mu_prime - delta),
        s=float(s),
        mu=mu,
        mu_prime=mu_prime,
        delta_n=delta,
    )


def sup_error_lower_bound(pair, x1: Sequence[int], x2: Sequence[int]) -> BoundReport:
    """Lower bound on the first message's error probability under
    equiprobable tie-breaking: ``exp(-sup_s mu(s) - slack(n))``.

    A diverging kernel (words that are never confused) yields the
    trivial bound zero, flagged as such.
    """
    kernel = _kernel_of(pair)
    res = kernel.sequence_sup(x1, x2)
    delta = type_counting_slack(kernel.pair, len(x1))
    if res.value == INF:
        return BoundReport(value=0.0, s=INF, mu=INF, mu_prime=None, delta_n=delta, trivial=True)
    return BoundReport(
        value=math.exp(-res.value - delta),
        s=res.s_star,
        mu=res.value,
        mu_prime=None,
        delta_n=delta,
    )


# -- method-of-types utilities ---------------------------------------------------


def _cell_counts_of(V, cells: dict[tuple[int, int], int], ny: int):
    """Normalize a conditional-type argument to integer output counts per
    letter-pair cell, validating integrality against the cell sizes."""
    out = {}
    for cell, cnt in cells.items():
        if cell not in V:
            raise ValidationError(f"conditional type is missing cell {cell}")
        row = list(V[cell])
        if len(row) != ny:
            raise ValidationError(f"cell {cell} must list one value per output")
        vals = [Fraction(v) for v in row]
        total = sum(vals)
        if total == cnt and all(v.denominator == 1 and v >= 0 for v in vals):
            out[cell] = tuple(int(v) for v in vals)
        elif total == 1:
            scaled = [v * cnt for v in vals]
            if any(v.denominator != 1 or v < 0 for v in scaled):
                raise ValidationError(
                    f"cell {cell} is not integral at blocklength cell size {cnt}"
                )
            out[cell] = tuple(int(v) for v in scaled)
        else:
            raise ValidationError(
                f"cell {cell} must hold counts summing to {cnt} or a distribution"
            )
    extra = set(V) - set(cells)
    if any(sum(V[c]) not in (0, Fraction(0)) for c in extra):
        raise ValidationError("conditional type places mass on an absent letter pair")
    return out


def type_class_probability(
    pair: ChannelMetricPair,
    x1: Sequence[int],
    x2: Sequence[int],
    V: Mapping[tuple[int, int], Sequence],
) -> tuple[Fraction, float]:
    """Exact probability that the channel output's conditional type given
    ``(x1, x2)`` equals ``V`` when ``x1`` is sent, next to the standard
    counting lower bound ``(n+1)^(-|X|^2 |Y|) exp(-n D)``.

    ``V`` maps each letter-pair cell to per-output counts (or a
    distribution that is integral at the cell size).  The exact value is
    always at least the bound; a support violation makes both collapse
    (exact 0, divergence in the exponent)."""
    cells = joint_counts(x1, x2)
    n = len(x1)
    ny = pair.ny
    counts = _cell_counts_of(V, cells, ny)

    exact = Fraction(1)
    kl = 0.0
    for (a, b), cnt in sorted(cells.items()):
        comp = counts[(a, b)]
        exact *= _multinomial(comp)
        for y, k in enumerate(comp):
            if k:
                if pair.W[a][y] == 0:
                    exact = Fraction(0)
                    kl = INF
                    break
                exact *= pair.W[a][y] ** k
                kl += (k / n) * math.log((Fraction(k, cnt)) / pair.W[a][y])
        if kl == INF:
            break
    if kl == INF:
        bound = 0.0
    else:
        bound = (n + 1.0) ** (-(pair.nx**2) * ny) * math.exp(-n * kl)
    if bound > 0 and exact < Fraction(bound) * Fraction(999_999_999, 1_000_000_000):
        raise ZerorateError("type-class probability fell below its counting bound")
    return exact, bound


def conditional_types(
    x1: Sequence[int], x2: Sequence[int], ny: int
) -> Iterator[dict[tuple[int, int], tuple[int, ...]]]:
    """All conditional types of an output sequence given the word pair,
    as per-cell output counts.  Exhaustive, so only for small cases."""
    cells = sorted(joint_counts(x1, x2).items())
    comp_lists = [list(_compositions(cnt, ny)) for _, cnt in cells]
    for combo in itertools.product(*comp_lists):
        yield {cell: comp for (cell, _), comp in zip(cells, combo)}


def quantize_to_type(dist: Sequence, n: int) -> tuple[Fraction, ...]:
    """Round a distribution to a type with denominator ``n`` by largest
    remainder: entries move by at most ``1/n`` and zeros stay zero."""
    if n < 1:
        raise PreconditionError("denominator must be positive")
    vals = [Fraction(v) for v in dist]
    if any(v < 0 for v in vals):
        raise ValidationError("distribution entries must be nonnegative")
    total = sum(vals)
    if total <= 0:
        raise ValidationError("distribution must have positive mass")
    if abs(total - 1) > Fraction(1, 10**9):
        raise ValidationError("distribution must sum to one")
    vals = [v / total for v in vals]
    scaled = [n * v for v in vals]
    base = [int(v) for v in scaled]
    leftover = n - sum(base)
    remainders = sorted(
        ((scaled[i] - base[i], i) for i in range(len(vals)) if vals[i] > 0),
        key=lambda pair_: (-pair_[0], pair_[1]),
    )
    for _, i in remainders[:leftover]:
        base[i] += 1
    return tuple(Fraction(b, n) for b in base)


# -- empirical convergence harness ------------------------------------------------


@dataclass(frozen=True)
class EmpiricalPoint:
    n: int
    error_probability: float
    exponent: float
    mode: str


def empirical_exponent(
    pair: ChannelMetricPair,
    a: int,
    b: int,
    n_list: Sequence[int],
    trials: int = 200_000,
    seed: int = 0,
    budget: int = 1_000_000,
) -> list[EmpiricalPoint]:
    """Normalized error exponents of the repeated-letter codeword pair
    ``a^n`` versus ``b^n`` for each blocklength in ``n_list``.

    Exact enumeration is used while the class count fits the budget,
    Monte Carlo with the given trial count beyond it.  These points
    approach the single-letter kernel supremum of the better direction
    as ``n`` grows."""
    if a == b:
        raise PreconditionError("the two letters must be distinct")
    if not (0 <= a < pair.nx and 0 <= b < pair.nx):
        raise ValidationError("letter index outside the input alphabet")
    out = []
    for idx, n in enumerate(n_list):
        if n < 1:
            raise PreconditionError("blocklengths must be positive")
        x1, x2 = (a,) * n, (b,) * n
        classes = math.comb(n + pair.ny - 1, pair.ny - 1)
        if classes <= budget:
            res = exact_error_probabilities(pair, (x1, x2))
            p_e = res.average
            mode = "exact"
            if p_e == 0:
                expo = INF
            else:
                expo = -(math.log(p_e.numerator) - math.log(p_e.denominator)) / n
        else:
            res = monte_carlo_error(pair, (x1, x2), trials=trials, seed=seed + idx)
            p_e = res.average
            mode = "monte_carlo"
            expo = INF if p_e == 0 else -math.log(p_e) / n
        out.append(EmpiricalPoint(n=n, error_probability=float(p_e), exponent=expo, mode=mode))
    return out
