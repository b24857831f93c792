"""Decoder evaluation lab: exact and sampled error probabilities of the
fixed-metric rule, the tilted finite-blocklength lower bounds, and the
method-of-types utilities used to sanity-check them.

The decoder picks the codeword maximizing the product metric, breaking
ties by policy.  Both modes compare metric products through value
counts (:func:`_metric_counts`): how often each distinct metric value
occurs in a product.  Exact mode keys the output compositions of each
letter-pair cell by the two words' count difference, carries integer
masses over each word's fixed denominator, convolves the cells without
visiting every conditional type, and classifies each final key once by
one exact comparison of integer products.  Monte Carlo mode samples,
scores each block of trials against every codeword with one matrix
product in log space, and re-checks anything within float distance of
the top exactly from the same counts, so tie events are decided by
arithmetic rather than rounding; the winners, tie events and tie draws
of a block are array steps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair, _kept, _sign_of_power_product, integer_view
from .errors import BudgetExceededError, PreconditionError, ValidationError, ZerorateError
from .kernel import INF, _as_kernel, _integer_words, joint_counts

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
_BLOCK = 1024
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


def _words_of(code, expect: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    words = getattr(code, "words", None)
    if words is None:
        words = tuple(map(tuple, _integer_words(code)))
    if expect is not None and len(words) != expect:
        raise PreconditionError(f"expected exactly {expect} codewords, got {len(words)}")
    if len(words) < 2:
        raise PreconditionError("need at least two codewords")
    lengths = [len(w) for w in words]
    if min(lengths) < 1 or min(lengths) != max(lengths):
        raise ValidationError("codewords must be nonempty and of equal length")
    return words


def _check_symbols(words, nx: int) -> None:
    if min(map(min, words)) < 0 or max(map(max, words)) >= nx:
        bad = next(v for w in words for v in w if not 0 <= v < nx)
        raise ValidationError(f"symbol {bad} outside the input alphabet")


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


# -- value counts: the comparison key of both decoders ---------------------------


def _metric_values(pair: ChannelMetricPair) -> tuple[Fraction, ...]:
    """The distinct positive metric entries, ascending: the value axis of
    :func:`_metric_counts`.  Kept on the pair object."""

    def build(pair):
        _, q = integer_view(pair)
        return tuple(sorted({v for row, nums in zip(pair.q, q.nums)
                             for v, n in zip(row, nums) if n > 0}))

    return _kept(pair, "_metric_values", build)


def _metric_counts(pair: ChannelMetricPair) -> np.ndarray:
    """Metric entries as one-hot vectors over the distinct positive values.

    Returns ``vec`` of shape ``(nx, ny, K)``: ``vec[x, y]`` marks the
    index of ``q(x,y)`` among the ``K`` distinct positive entries (zero
    entries get a zero row).  Summed along a word, it counts how often
    each value occurs in the word's metric product, so equal sums mean
    equal products; unequal sums can still give equal products, as in
    ``(2/3)^2 = 4/9``.  The array is read-only and kept on the pair
    object.
    """

    def build(pair):
        _, q = integer_view(pair)
        index = {v: k for k, v in enumerate(_metric_values(pair))}
        vec = np.zeros((pair.nx, pair.ny, len(index)), dtype=np.int64)
        for x, (row, nums) in enumerate(zip(pair.q, q.nums)):
            for y, (v, n) in enumerate(zip(row, nums)):
                if n > 0:
                    vec[x, y, index[v]] = 1
        vec.setflags(write=False)
        return vec

    return _kept(pair, "_metric_counts", build)


# -- exact two-codeword decoding ---------------------------------------------


_Key = tuple[bool, bool, int]   # (word-1 metric zero, word-2 metric zero, count code)
_TIE_SHARE = {"equiprobable": Fraction(1, 2), "as_error": Fraction(1), "genie_correct": Fraction(0)}


def _cell_masses(pair, a: int, b: int, cnt: int, nums, codes, zero) -> dict[_Key, list[int]]:
    """Output compositions of one letter-pair cell, merged by comparison key.

    Each composition is keyed by which metric product is zero (word 1,
    word 2) and, when neither is, by the code of its count difference,
    ``sum_y k_y (codes[a][y] - codes[b][y])``; the key carries the summed
    integer masses ``coeff * prod nums[a][y]^k_y`` and its word-2 twin,
    the composition's probability under either word times the cell's
    fixed denominators.
    """
    out: dict[_Key, list[int]] = {}
    for comp in _compositions(cnt, pair.ny):
        m1 = m2 = _multinomial(comp)
        z1 = z2 = False
        code = 0
        for y, k in enumerate(comp):
            if k:
                m1 *= nums[a][y] ** k
                m2 *= nums[b][y] ** k
                z1 = z1 or zero[a][y]
                z2 = z2 or zero[b][y]
                code += k * (codes[a][y] - codes[b][y])
        if m1 == 0 and m2 == 0:
            continue
        key = (z1, z2, 0 if z1 or z2 else code)
        mass = out.setdefault(key, [0, 0])
        mass[0] += m1
        mass[1] += m2
    return out


def _convolve(left: dict[_Key, list[int]], right: dict[_Key, list[int]]):
    """Merge two independent groups of cells: zero flags OR, count codes
    add, masses multiply."""
    out: dict[_Key, list[int]] = {}
    for (z1, z2, r), (m1, m2) in left.items():
        for (w1, w2, t), (n1, n2) in right.items():
            y1, y2 = z1 or w1, z2 or w2
            key = (y1, y2, 0 if y1 or y2 else r + t)
            mass = out.get(key)
            if mass is None:
                out[key] = [m1 * n1, m2 * n2]
            else:
                mass[0] += m1 * n1
                mass[1] += m2 * n2
    return out


def _code_digits(code: int, base: int, size: int) -> list[int]:
    """The ``size`` digits of ``code`` in balanced base ``base`` (each in
    ``(-base/2, base/2)``), least significant first."""
    out = []
    for _ in range(size):
        digit = code % base
        if digit > base // 2:
            digit -= base
        out.append(digit)
        code = (code - digit) // base
    return out


def exact_error_probabilities(
    pair: ChannelMetricPair,
    code,
    tie_policy: str = "equiprobable",
    budget: int = 10_000_000,
) -> DecodingOutcome:
    """Exact error probabilities of the two-codeword metric decoder.

    Masses are Python integers over each word's fixed denominator, the
    product along the word of each channel row's common denominator.  The
    output compositions of each letter-pair cell are keyed by which
    metric product is zero and by the difference of the two words' value
    counts (:func:`_metric_counts`), packed into one integer in balanced
    base ``2n + 1``; the cells are convolved key by key.  Equal counts
    mean equal metric ratios, so no key joins outputs the decoder treats
    differently.  Each final key is classified once as a win, a loss or a
    tie by an exact comparison of two integer products, and a
    ``Fraction`` is built only for each reported quantity.  Tie weight is
    assigned per policy: ``equiprobable`` charges half, ``as_error`` all,
    ``genie_correct`` none of the tied mass.  Raises when the number of
    conditional-type classes (the product of the cells' composition
    counts) exceeds ``budget``; Monte Carlo is the fallback at that point.
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

    w_rows, _ = integer_view(pair)
    nums, dens = w_rows.nums, w_rows.dens
    values = _metric_values(pair)
    counts = _metric_counts(pair)
    zero = (~counts.any(axis=2)).tolist()
    # Each value count of a word pair's difference lies in [-n, n], so base
    # 2n + 1 packs the difference vector into one integer that adds exactly.
    base = 2 * len(x1) + 1
    codes = [[sum(int(c) * base**k for k, c in enumerate(row)) for row in rows] for rows in counts]

    total = {(False, False, 0): [1, 1]}
    den1 = den2 = 1
    for (a, b), cnt in cells:
        total = _convolve(total, _cell_masses(pair, a, b, cnt, nums, codes, zero))
        den1 *= dens[a] ** cnt
        den2 *= dens[b] ** cnt
    err1 = err2 = tie1 = tie2 = 0
    for (z1, z2, r), (m1, m2) in total.items():
        if z1 or z2:
            order = z2 - z1     # a zero product loses; two zeros tie
        else:
            order = _sign_of_power_product(values, _code_digits(r, base, len(values)))
        if order > 0:       # s1 > s2: word 2 loses
            err2 += m2
        elif order < 0:     # s1 < s2: word 1 loses
            err1 += m1
        else:
            tie1 += m1
            tie2 += m2

    share = _TIE_SHARE[tie_policy]
    t1, t2 = Fraction(tie1, den1), Fraction(tie2, den2)
    e1, e2 = Fraction(err1, den1) + share * t1, Fraction(err2, den2) + share * t2
    return DecodingOutcome(
        per_message=(e1, e2),
        average=(e1 + e2) / 2,
        tie_mass=(t1 + t2) / 2,
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


def _leaders(values: Sequence[Fraction], vectors: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``vectors`` (value counts) whose metric product
    ``prod_k values[k] ** row[k]`` is largest, decided exactly."""
    top = vectors[0]
    for row in vectors[1:]:
        if _sign_of_power_product(values, row - top) > 0:
            top = row
    return np.array([_sign_of_power_product(values, row - top) == 0 for row in vectors])


def monte_carlo_error(
    pair: ChannelMetricPair,
    code,
    trials: int,
    seed: int = 0,
    tie_policy: str = "equiprobable",
) -> DecodingOutcome:
    """Sampled decoding error of a codebook of any size.

    Messages are drawn uniformly, outputs from the channel, and the
    decoder compares log metrics in floats.  A block of trials samples
    its outputs by comparing its uniform draws with its messages' rows
    of the per-word channel thresholds (the cumulative channel entries
    of each word's letters), writes them as a one-hot matrix over
    (position, output) with one flat index, and scores every codeword
    with one product against the per-word log-metric matrix.  A zero
    metric entry has no finite log, so it enters that product as 0 and
    a second product counts each word's zero entries; a word with any is
    scored ``-inf``.  Any codeword within a small float margin of the
    leader is re-scored exactly, so winners and ties are decided by
    exact arithmetic.  The re-check counts how often each distinct
    metric value occurs in every candidate's product (see
    :func:`_metric_counts`), with one ``bincount`` over the value indices
    of all candidates' entries at their trials' outputs, read from a
    per-word index table built once per call.  When all candidates of a
    trial share one count vector they are exactly the tied leaders, and
    only a trial whose vectors differ compares ``prod v^c`` across its
    candidates, as integer products (:func:`_leaders`).  Errors and tie
    events of a block follow from the winner mask by array steps, and
    the ``equiprobable`` picks of a block are one ``tie_rng`` draw with
    one bound per tied trial, in trial order, which takes the same
    stream as one draw per trial.

    The stream splits into fixed chunks with spawned seeds, making the
    result reproducible and the merge order-independent.  Each chunk
    draws its messages first and then its outputs block by block, which
    is the same random stream as one draw.  The thresholds, the scoring
    matrices, the value-index table and the working arrays of one block
    are built once per call; each block fills the leading rows of the
    working arrays in place, so memory does not grow with ``trials`` and
    no block allocates a working array of its own.
    """
    if trials < 1:
        raise PreconditionError("trials must be positive")
    if seed < 0:
        raise ValidationError(f"the seed must be nonnegative, got {seed}")
    if tie_policy not in TIE_POLICIES:
        raise ValidationError(f"unknown tie policy {tie_policy!r}")
    words = _words_of(code)
    _check_symbols(words, pair.nx)
    wd = np.array(words, dtype=np.int64)
    m_count, n = wd.shape
    ny = pair.ny

    cum = np.cumsum(np.array([[float(v) for v in row] for row in pair.W]), axis=1)
    zero = np.array([[v == 0 for v in row] for row in pair.q])
    lq = np.log(np.array([[float(v) if v > 0 else 1.0 for v in row] for row in pair.q]))
    # thresholds[k, m, t] is the k-th cumulative channel entry of word m's
    # letter at position t; cum is nondecreasing along y, so counting the
    # thresholds a uniform draw reaches gives its output, and leaving out
    # the last column clips y at ny - 1.
    thresholds = np.ascontiguousarray(cum[:, :-1].T[:, wd])
    # Row t*ny + y of the scoring matrices belongs to output y at position t;
    # zero metric entries score 0 in ``lmat`` and are counted by ``zmat``.
    lmat = lq[wd].reshape(m_count, n * ny).T
    zmat = zero[wd].reshape(m_count, n * ny).T.astype(float) if zero.any() else None
    counts = _metric_counts(pair)
    values = _metric_values(pair)
    n_values = counts.shape[2]
    # value_index[m * n * ny + t * ny + y] indexes word m's metric entry at
    # position t and output y among the distinct values; near candidates
    # have no zero entry, so the index 0 a zero entry gets is never read.
    value_index = counts.argmax(axis=2)[wd].reshape(-1)

    sizes = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        sizes.append(trials % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    # Working arrays of the largest block; each block fills their leading rows.
    rows = min(_BLOCK, sizes[0])
    reach_buf = np.empty((rows, n), dtype=bool)
    index_buf = np.empty((rows, n), dtype=np.int64)
    # Output y at position t of row r sits at r*n*ny + t*ny + y of the flat
    # one-hot.  Until a block's outputs are known it holds the block's uniform
    # draws and thresholds, so it has room for two floats per position.
    row_start = np.arange(rows)[:, None] * (n * ny)
    letter_start = np.arange(n) * ny
    flat_onehot = np.zeros(rows * n * max(ny, 2))
    score_buf = np.empty((rows, m_count))
    zero_buf = np.empty((rows, m_count)) if zmat is not None else None

    errors = np.zeros(m_count, dtype=np.int64)
    sent = np.zeros(m_count, dtype=np.int64)
    tie_events = 0
    for size, child in zip(sizes, children):
        draw_seed, tie_seed = child.spawn(2)
        rng = np.random.default_rng(draw_seed)
        tie_rng = np.random.default_rng(tie_seed)

        chunk_msgs = rng.integers(0, m_count, size=size)
        sent += np.bincount(chunk_msgs, minlength=m_count)
        for lo in range(0, size, _BLOCK):
            msgs = chunk_msgs[lo:lo + _BLOCK]
            b = len(msgs)
            u = rng.random(out=flat_onehot[:b * n].reshape(b, n))
            cut = flat_onehot[b * n:2 * b * n].reshape(b, n)
            index = np.add(row_start[:b], letter_start, out=index_buf[:b])
            for k in range(ny - 1):
                np.take(thresholds[k], msgs, axis=0, out=cut, mode="clip")
                index += np.greater_equal(u, cut, out=reach_buf[:b])

            onehot = flat_onehot[:b * n * ny].reshape(b, n * ny)
            onehot.fill(0.0)
            flat_onehot[index] = 1.0
            scores = np.matmul(onehot, lmat, out=score_buf[:b])
            if zmat is not None:
                scores[np.matmul(onehot, zmat, out=zero_buf[:b]) > 0] = -INF
            top = scores.argmax(axis=1)
            best = scores[np.arange(b), top]
            margin = _NEAR_TIE * np.maximum(1.0, np.abs(best))
            near = scores >= (best - margin)[:, None]

            # A trial with one near candidate is decided by it; the hard
            # trials' errors are overwritten below.
            easy = near.sum(axis=1) == 1
            err_mask = top != msgs

            # Exact re-check of the near candidates of every hard trial, grouped
            # by trial.  The sent word's metric is positive, so every near
            # candidate's is too.
            hard = np.nonzero(~easy)[0]
            truth = msgs[hard]
            group, cand = np.nonzero(near[hard])
            # index[r] holds r*n*ny + t*ny + y_t; shifted by (c - r)*n*ny it reads
            # candidate c's value index at each of trial r's outputs, and one
            # bincount tallies them per candidate.
            trial = hard[group]
            keys = value_index[index[trial] + ((cand - trial) * (n * ny))[:, None]]
            keys += np.arange(len(cand))[:, None] * n_values
            acc = np.bincount(keys.ravel(), minlength=len(cand) * n_values).reshape(-1, n_values)
            # A trial is settled when all its candidates share one vector: they
            # are then exactly its tied leaders.  Only the others compare
            # products, from the same vectors.
            bounds = np.searchsorted(group, np.arange(len(hard) + 1))
            differs = (acc != acc[bounds[group]]).any(axis=1)
            unsettled = np.bincount(group[differs], minlength=len(hard)) > 0
            win = ~unsettled[group]         # the unsettled trials' rows are set below
            for j in np.nonzero(unsettled)[0]:
                lo, hi = bounds[j], bounds[j + 1]
                win[lo:hi] = _leaders(values, acc[lo:hi])

            # A trial errs when the sent word is not among its winners, and a
            # tie is then charged by the policy.
            n_win = np.bincount(group[win], minlength=len(hard))
            hard_err = np.bincount(group[win & (cand == truth[group])], minlength=len(hard)) == 0
            tie = n_win > 1
            tie_events += int(tie.sum())
            if tie_policy == "as_error":
                hard_err |= tie
            elif tie_policy == "equiprobable":
                # One draw per tied trial, in trial order: an array bound
                # takes the same stream as one scalar draw per trial.
                tied = np.nonzero(tie)[0]
                picks = tie_rng.integers(0, n_win[tied])
                pick = cand[win][np.searchsorted(group[win], tied) + picks]
                hard_err[tied] = pick != truth[tied]
            err_mask[hard] = hard_err

            errors += np.bincount(msgs[err_mask], minlength=m_count)

    total_err = int(errors.sum())
    per_message = tuple(
        int(errors[m]) / int(sent[m]) if sent[m] else 0.0 for m in range(m_count)
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
    kernel = _as_kernel(pair)
    mu, mu_prime = kernel._sequence(x1, x2, s)
    if mu == INF:
        raise PreconditionError(
            "the sequence kernel is infinite: these words are never confused"
        )
    n = len(x1)
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
    kernel = _as_kernel(pair)
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
    try:
        vals = [Fraction(v) for v in dist]
    except (ValueError, OverflowError) as exc:   # nan, inf
        raise ValidationError(f"distribution entries must be finite numbers: {exc}") from exc
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

    :func:`exact_error_probabilities` is used while its class count fits
    ``budget``, Monte Carlo with the given trial count beyond it.  These points
    approach the single-letter kernel supremum of the better direction
    as ``n`` grows."""
    if a == b:
        raise PreconditionError("the two letters must be distinct")
    if not (0 <= a < pair.nx and 0 <= b < pair.nx):
        raise ValidationError("letter index outside the input alphabet")
    if seed < 0:
        raise ValidationError(f"the seed must be nonnegative, got {seed}")
    if trials < 1:
        raise PreconditionError("trials must be positive")
    out = []
    for idx, n in enumerate(n_list):
        if n < 1:
            raise PreconditionError("blocklengths must be positive")
        x1, x2 = (a,) * n, (b,) * n
        try:
            p_e = exact_error_probabilities(pair, (x1, x2), budget=budget).average
        except BudgetExceededError:
            p_e = monte_carlo_error(pair, (x1, x2), trials=trials, seed=seed + idx).average
            mode = "monte_carlo"
            expo = INF if p_e == 0 else -math.log(p_e) / n
        else:
            mode = "exact"
            expo = INF if p_e == 0 else -(math.log(p_e.numerator) - math.log(p_e.denominator)) / n
        out.append(EmpiricalPoint(n=n, error_probability=float(p_e), exponent=expo, mode=mode))
    return out
