"""Decoder evaluation lab: exact and sampled error probabilities of the
fixed-metric rule, the tilted finite-blocklength lower bounds, and the
empirical convergence of the repeated-letter pair's error exponent.

The decoder picks the codeword maximizing the product metric, breaking
ties by policy.  Both modes read the metric through one table kept on
the pair (:func:`_metric_table`) and compare metric products through
value counts: how often each distinct metric value occurs in a product.
Exact mode keys the output compositions of each letter-pair cell by the
two words' count difference, carries integer masses over each word's
fixed denominator, convolves the cells without visiting every
conditional type, and classifies each final key once by one exact
comparison of integer products.  Monte Carlo mode samples a block of
trials as step indicators (the channel thresholds each draw reaches),
scores it against every codeword with one matrix product of the steps
and the table's log increments, finite for an entry of any size, and
re-checks anything within float distance of the top exactly from the
value counts at the outputs the steps sum to, so tie events are decided
by arithmetic rather than rounding; the winners, tie events and tie
draws of a block are array steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .channel import ChannelMetricPair, _checked_int, _kept, _letter_pair, _log, _sign_of_power_product, integer_view
from .errors import BudgetExceededError, PreconditionError, ValidationError
from .kernel import INF, _as_kernel, _check_tilt, _checked_words

__all__ = [
    "TIE_POLICIES",
    "DecodingOutcome",
    "BoundReport",
    "exact_error_probabilities",
    "monte_carlo_error",
    "tilted_error_lower_bound",
    "sup_error_lower_bound",
    "type_counting_slack",
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
    n = _checked_int("n", n, 1)
    w_min = min(v for row in pair.W for v in row if v > 0)
    return pair.nx**2 * pair.ny * (1.0 + 2.0 * math.log(n + 1.0) - _log(w_min))


# -- the metric table: the comparison key of both decoders ----------------------


class _MetricTable(NamedTuple):
    """The metric as both decoders read it.

    ``values`` holds the distinct positive entries, ascending.
    ``index[x, y]`` is the position of ``q(x,y)`` in ``values`` (0 at a
    zero entry), so a word's metric product is ``prod_k values[k] ** c_k``
    with ``c_k`` the number of its entries at position ``k``: equal counts
    mean equal products, while unequal counts can still give equal
    products, as in ``(2/3)^2 = 4/9``.  ``zero`` marks the zero entries,
    and ``logs[x, y]`` is ``channel._log(q(x,y))`` (0.0 at a zero entry),
    finite however small or large the entry.
    """

    values: tuple[Fraction, ...]
    index: np.ndarray
    zero: np.ndarray
    logs: np.ndarray


def _metric_table(pair: ChannelMetricPair) -> _MetricTable:
    """The :class:`_MetricTable` of ``pair``; its arrays are read-only and
    it is kept on the pair object."""

    def build(pair):
        values = tuple(sorted({v for row in pair.q for v in row if v > 0}))
        position = {v: k for k, v in enumerate(values)}
        index = np.array([[position.get(v, 0) for v in row] for row in pair.q], dtype=np.int64)
        zero = np.array([[v == 0 for v in row] for row in pair.q], dtype=bool)
        logs = np.array([[_log(v) if v > 0 else 0.0 for v in row] for row in pair.q], dtype=np.float64)
        for a in (index, zero, logs):
            a.setflags(write=False)
        return _MetricTable(values, index, zero, logs)

    return _kept(pair, "_metric_table", build)


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
    counts (over the value indices of :func:`_metric_table`), packed into
    one integer in balanced base ``2n + 1``; the cells are convolved key
    by key.  Equal counts mean equal metric ratios, so no key joins
    outputs the decoder treats differently.  Each final key is classified once as a win, a loss or a
    tie by an exact comparison of two integer products, and a
    ``Fraction`` is built only for each reported quantity.  Tie weight is
    assigned per policy: ``equiprobable`` charges half, ``as_error`` all,
    ``genie_correct`` none of the tied mass.  Raises when the number of
    conditional-type classes (the product of the cells' composition
    counts) exceeds ``budget``; Monte Carlo is the fallback at that point.
    """
    if tie_policy not in TIE_POLICIES:
        raise ValidationError(f"unknown tie policy {tie_policy!r}")
    nx, ny = pair.nx, pair.ny
    words = _checked_words(code, nx)
    if len(words) != 2:
        raise PreconditionError(f"expected exactly 2 codewords, got {len(words)}")
    x1, x2 = words
    by_pair = np.bincount(x1 * nx + x2, minlength=nx * nx).tolist()
    cells = [(divmod(ab, nx), c) for ab, c in enumerate(by_pair) if c]     # letter pairs in (a, b) order
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
    values, index, zero, _ = _metric_table(pair)
    zero = zero.tolist()
    # Each value count of a word pair's difference lies in [-n, n], so base
    # 2n + 1 packs the difference vector into one integer that adds exactly.
    base = 2 * len(x1) + 1
    codes = [[base**k for k in row] for row in index.tolist()]

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
    decoder compares log metrics in floats.  A block of trials compares
    its uniform draws with its messages' rows of the per-word channel
    thresholds (the cumulative channel entries of each word's letters);
    each comparison is a step indicator, and a position's steps sum to
    its output.  Every codeword is scored with one product of the steps
    against the per-word increments of the metric table's logs
    (:func:`_metric_table`) from one output to the next, added to the
    word's log metric at output 0, finite however small the entry.  A
    zero metric entry has no finite log, so it enters that product as 0
    and a second product counts each word's zero entries the same way; a
    word with any is scored ``-inf``.  Any codeword within a small float
    margin of the leader is re-scored exactly, so winners and ties are
    decided by exact arithmetic.  The re-check counts how often each
    distinct metric value occurs in every candidate's product, with one
    ``bincount`` over the table's value indices of the candidates'
    letters at their trials' outputs.  When all candidates of a trial
    share one count vector they are exactly the tied leaders, as are all
    words of a trial whose best score is ``-inf`` (every product zero,
    as the exact decoder's two zeros tie); only a trial whose vectors
    differ compares ``prod v^c`` across its candidates, as integer
    products (:func:`_leaders`).  Errors and tie events of a block follow
    from the winner mask by array steps, and the ``equiprobable`` picks
    of a block are one ``tie_rng`` draw with one bound per tied trial, in
    trial order, which takes the same stream as one draw per trial.

    The stream splits into fixed chunks with spawned seeds, making the
    result reproducible and the merge order-independent.  Each chunk
    draws its messages first and then its outputs block by block, which
    is the same random stream as one draw.  The thresholds, the scoring
    matrices and the working arrays of one block are built once per call;
    each block fills the leading rows of the working arrays in place, so
    memory does not grow with ``trials`` and no block allocates a working
    array of its own.
    """
    trials, seed = _checked_int("trials", trials, 1), _checked_int("seed", seed, 0, ValidationError)
    if tie_policy not in TIE_POLICIES:
        raise ValidationError(f"unknown tie policy {tie_policy!r}")
    wd = _checked_words(code, pair.nx)
    m_count, n = wd.shape
    ny = pair.ny

    cum = np.cumsum(np.array([[float(v) for v in row] for row in pair.W]), axis=1)
    values, value_of, zero, lq = _metric_table(pair)
    width = max(len(values), 1)     # an all-zero metric has no values
    # thresholds[k, m, t] is the k-th cumulative channel entry of word m's
    # letter at position t.  Step k at t is the indicator that the uniform
    # draw reaches it; cum is nondecreasing along y, so a position's steps
    # sum to its output, and leaving out the last column clips y at ny - 1.
    thresholds = np.ascontiguousarray(cum[:, :-1].T[:, wd])

    def scoring(table):
        """Each word's sum of ``table`` at output 0, and the matrix whose row
        k*n + t holds ``table[x, k+1] - table[x, k]`` for its letter x at t."""
        increments = np.diff(table, axis=1)[wd].transpose(2, 1, 0)
        return table[wd, 0].sum(axis=1), increments.reshape(-1, m_count)

    # Zero entries score 0 in the logs and are counted from float flags (the
    # diff of a bool array is an XOR).
    base_log, step_logs = scoring(lq)
    base_zero, step_zero = scoring(zero.astype(float)) if zero.any() else (None, None)

    sizes = [min(_CHUNK, trials - lo) for lo in range(0, trials, _CHUNK)]
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    # Working arrays of the largest block; each block fills their leading rows.
    rows = min(_BLOCK, sizes[0])
    u_buf, cut_buf = np.empty((2, rows, n))
    step_buf = np.empty((rows, ny - 1, n))
    score_buf = np.empty((rows, m_count))
    zero_buf = np.empty((rows, m_count)) if step_zero is not None else None

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
            u = rng.random(out=u_buf[:b])
            steps = step_buf[:b]
            for k in range(ny - 1):
                np.take(thresholds[k], msgs, axis=0, out=cut_buf[:b], mode="clip")
                np.greater_equal(u, cut_buf[:b], out=steps[:, k])

            flat = steps.reshape(b, (ny - 1) * n)
            scores = np.matmul(flat, step_logs, out=score_buf[:b])
            scores += base_log
            if step_zero is not None:
                zeros = np.matmul(flat, step_zero, out=zero_buf[:b])
                scores[zeros + base_zero > 0] = -INF
            top = scores.argmax(axis=1)
            best = scores[np.arange(b), top]
            margin = _NEAR_TIE * np.maximum(1.0, np.abs(best))
            near = scores >= (best - margin)[:, None]

            # A trial with one near candidate is decided by it; the hard
            # trials' errors are overwritten below.
            easy = near.sum(axis=1) == 1
            err_mask = top != msgs

            # Exact re-check of the near candidates of every hard trial, grouped
            # by trial.  A finite best score makes every near candidate's
            # metric positive; a best of -inf (every product zero, which no
            # admissible pair allows for the sent word) ties every word.
            hard = np.nonzero(~easy)[0]
            truth = msgs[hard]
            group, cand = np.nonzero(near[hard])
            # One bincount tallies each candidate's value indices at its
            # trial's outputs, the sums of the trial's steps.
            outputs = steps[hard].sum(axis=1).astype(np.intp)
            keys = value_of[wd[cand], outputs[group]]
            keys += np.arange(len(cand))[:, None] * width
            acc = np.bincount(keys.ravel(), minlength=len(cand) * width).reshape(-1, width)
            # A trial is settled when all its candidates share one vector, or
            # when its best is -inf: they are then exactly its tied leaders.
            # Only the others compare products, from the same vectors.
            bounds = np.searchsorted(group, np.arange(len(hard) + 1))
            differs = (acc != acc[bounds[group]]).any(axis=1) & (best[hard] > -INF)[group]
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
    s = _check_tilt("tilted_error_lower_bound", s, kernel.s_limit)
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
        s=s,
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
    a, b = _letter_pair(pair.nx, a, b)
    if a == b:
        raise PreconditionError("the two letters must be distinct")
    seed, trials = _checked_int("seed", seed, 0, ValidationError), _checked_int("trials", trials, 1)
    out = []
    for idx, n in enumerate(_checked_int("blocklength", n, 1) for n in n_list):
        x1, x2 = (a,) * n, (b,) * n
        try:
            p_e = exact_error_probabilities(pair, (x1, x2), budget=budget).average
            mode = "exact"
        except BudgetExceededError:
            p_e = monte_carlo_error(pair, (x1, x2), trials=trials, seed=seed + idx).average
            mode = "monte_carlo"
        expo = INF if p_e == 0 else -_log(p_e) / n
        out.append(EmpiricalPoint(n=n, error_probability=float(p_e), exponent=expo, mode=mode))
    return out
