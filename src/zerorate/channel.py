"""Channel / decoding-metric pairs with exact rational entries.

A pair couples a discrete memoryless channel ``W(y|x)`` with a decoding
metric ``q(x, y)``.  The decoder under study ranks codewords by the
product of per-letter metric values, so everything downstream (support
sets, boundary classification, exact tie detection) depends on exact
arithmetic: entries are stored as :class:`fractions.Fraction` and all
support and equality questions are answered exactly.

Admissibility, enforced at construction time:

* every channel row sums to one exactly and has no negative entries;
* the metric is nonnegative and every metric row is positive somewhere;
* wherever a channel transition is possible the metric is positive
  (``W(y|x) > 0`` implies ``q(x, y) > 0``), so a transmitted codeword is
  never ranked at metric zero on an output it can actually produce.

Every exact step reads one integer view of the entries,
:func:`integer_view`: each row as integer numerators over the
least common denominator of the row, read once when the pair is built.
Signs are numerator signs, row sums are integer sums, and metric ratios
are ordered by cross-multiplying integers; a ``Fraction`` is built only
for a value that is stored.  The exact facts of each ordered input pair
(usable outputs, weights, metric ratios, extreme ratio, tail mass,
overlap mass, affinity) live in one table,
:attr:`ChannelMetricPair.directions`, built once per pair object from
that view and read by the zero-error decisions and the kernels alike.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import PreconditionError, ValidationError

Rational = Fraction
EntryLike = Union[int, float, str, Fraction]

_SUM_TOL = 1e-12       # how far a float distribution's sum may stray from one

# A plain ASCII "[+-]digits[/digits]" entry; anything else goes to Fraction(str).
_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# A decimal literal with an exponent as Fraction(str) reads it, the exponent in
# group 1: the parser turns it into 10**exponent.
_DECIMAL_EXPONENT = re.compile(r"[+-]?(?=\d|\.\d)(?:\d*|\d+(?:_\d+)*)(?:\.(?:\d*|\d+(?:_\d+)*))?"
                               r"[eE]([+-]?\d+(?:_\d+)*)")
# Python's default cap on the digits of an integer string; 3.11+ reports the live one.
_INT_DIGITS = 4300


def _to_fraction(value: EntryLike, where: str) -> Fraction:
    """Convert a document entry to an exact rational.

    Strings are parsed as ``"num/den"`` (or a plain integer/decimal
    literal); numbers are converted through their decimal representation
    so that a JSON ``0.1`` means one tenth, not the nearest binary float.
    A plain ASCII ``[+-]digits[/digits]`` string is read as two integers;
    every other string takes the ``Fraction(str)`` parser, with the same
    value and the same errors, once its decimal exponent is checked: one
    beyond the integer-string digit budget (4300 by default) would have
    it build a power of ten for seconds or hours, so it is refused.
    """
    try:
        if isinstance(value, str):
            text = value.strip()
            plain = _PLAIN_RATIONAL.fullmatch(text)
            if plain is None:
                exponent = _DECIMAL_EXPONENT.fullmatch(text)
                budget = getattr(sys, "get_int_max_str_digits", lambda: _INT_DIGITS)() or _INT_DIGITS
                if exponent and abs(int(exponent[1])) > budget:
                    raise ValidationError(f"{where}: the entry {value!r} has a decimal exponent beyond {budget}")
                return Fraction(text)
            num, den = plain.groups()
            return Fraction(int(num), int(den) if den else 1)
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool):
            raise ValueError("booleans are not entries")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: cannot parse entry {value!r} as a rational") from exc
    raise ValidationError(f"{where}: unsupported entry type {type(value).__name__}")


def _parse_matrix(raw: object, rows: int, cols: int, where: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ValidationError(f"{where}: expected a list of rows")
    if len(raw) != rows:
        raise ValidationError(f"{where}: expected {rows} rows, got {len(raw)}")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
            raise ValidationError(f"{where}[{i}]: expected a list of entries")
        if len(row) != cols:
            raise ValidationError(f"{where}[{i}]: expected {cols} entries, got {len(row)}")
        out.append(tuple(_to_fraction(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)))
    return tuple(out)


class IntegerRows(NamedTuple):
    """A rational matrix as integers: row ``a`` is ``nums[a]`` over
    ``dens[a]``, the least common denominator of the row's entries."""

    nums: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]


def _integer_rows(rows: Sequence[Sequence[Union[Fraction, int]]]) -> IntegerRows:
    dens = tuple(math.lcm(*(v.denominator for v in row)) for row in rows)
    nums = tuple(tuple(v.numerator * (d // v.denominator) for v in row)
                 for row, d in zip(rows, dens))
    return IntegerRows(nums=nums, dens=dens)


def _kept(pair, name: str, build):
    """``build(pair)``, built on first use and kept in the pair object's
    attribute dict, as :func:`functools.cached_property` keeps its value,
    so equality, hashing and pickling ignore it.  Any object with the
    pair's rows (``nx``, ``ny``, ``W``, ``q``) keeps its own, and a
    ``Codebook`` keeps its book tables the same way."""
    cache = vars(pair)
    if name not in cache:
        cache[name] = build(pair)
    return cache[name]


def integer_view(pair) -> tuple[IntegerRows, IntegerRows]:
    """``W`` and ``q`` of ``pair`` as integer rows, each entry's numerator
    and denominator read once; kept on the pair object."""
    return _kept(pair, "_integer_view", lambda p: (_integer_rows(p.W), _integer_rows(p.q)))


@dataclass(frozen=True)
class ChannelMetricPair:
    """A channel transition matrix and a decoding metric on matching alphabets.

    Parameters
    ----------
    input_alphabet, output_alphabet:
        Symbol labels.  Internally everything is indexed by position.
    W:
        Channel rows ``W[a][y]``, one stochastic row per input symbol.
    q:
        Metric rows ``q[a][y]``; nonnegative, no normalization required.
    name:
        Optional human-readable tag carried through serialization.
    """

    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    W: tuple[tuple[Fraction, ...], ...]
    q: tuple[tuple[Fraction, ...], ...]
    name: str = ""

    def __post_init__(self) -> None:
        nx, ny = len(self.input_alphabet), len(self.output_alphabet)
        if nx == 0 or ny == 0:
            raise ValidationError("alphabets must be nonempty")
        if len(set(self.input_alphabet)) != nx or len(set(self.output_alphabet)) != ny:
            raise ValidationError("alphabet labels must be unique")
        if len(self.W) != nx or any(len(row) != ny for row in self.W):
            raise ValidationError(f"W must be {nx}x{ny}")
        if len(self.q) != nx or any(len(row) != ny for row in self.q):
            raise ValidationError(f"q must be {nx}x{ny}")
        for name, rows in (("W", self.W), ("q", self.q)):
            for a, row in enumerate(rows):
                for y, v in enumerate(row):
                    if not isinstance(v, (Fraction, int)) or isinstance(v, bool):
                        raise ValidationError(
                            f"{name}[{a}][{y}]: entry {v!r} is a {type(v).__name__}, "
                            "expected a Fraction or an int"
                        )
        W, q = integer_view(self)
        for a, (row, den) in enumerate(zip(W.nums, W.dens)):
            if min(row) < 0:
                raise ValidationError(f"W row {a} has a negative entry")
            if sum(row) != den:
                raise ValidationError(
                    f"W row {a} sums to {sum(self.W[a])}, expected exactly 1"
                )
        for a, row in enumerate(q.nums):
            if min(row) < 0:
                raise ValidationError(f"q row {a} has a negative entry")
            if not any(row):
                raise ValidationError(f"q row {a} is identically zero")
        for a, (w_row, q_row) in enumerate(zip(W.nums, q.nums)):
            for y, (w, v) in enumerate(zip(w_row, q_row)):
                if w > 0 and v == 0:
                    raise ValidationError(
                        f"inadmissible pair: W[{a}][{y}] > 0 but q[{a}][{y}] == 0"
                    )

    def __getstate__(self) -> dict:
        """Pickle the fields alone: the pickle carries none of the tables
        kept on the pair, and the unpickled pair builds its own on first use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def nx(self) -> int:
        return len(self.input_alphabet)

    @property
    def ny(self) -> int:
        return len(self.output_alphabet)

    @cached_property
    def directions(self) -> dict[tuple[int, int], _Direction]:
        """The exact direction data of every ordered input pair, built on
        first use and kept on this (immutable) pair object."""
        return {(a, b): _build_direction(self, a, b)
                for a in range(self.nx) for b in range(self.nx)}


@dataclass(frozen=True)
class _Direction:
    """Exact data of one ordered input pair ``(a, b)``."""

    outputs: tuple[int, ...]          # y with W(y|a) > 0 and q(a,y) q(b,y) > 0
    weights: tuple[Fraction, ...]     # W(y|a) on those outputs
    ratios: tuple[Fraction, ...]      # q(b,y) / q(a,y) on those outputs
    affine: bool                      # one ratio on all outputs (False when empty)
    a_min: Union[Fraction, float]     # min q(a,y)/q(b,y) over channel support (inf if empty)
    tail_mass: Fraction               # sum of W(y|a) over outputs attaining a_min
    y_hat_mass: Fraction              # sum of W(y|a) over outputs (the metric overlap)

    @property
    def empty(self) -> bool:
        return not self.outputs

    @property
    def slope_limit(self) -> float:
        """Limiting slope of mu(a, b, .), i.e. log of the extreme ratio."""
        return math.inf if self.empty else _log(self.a_min)

    @property
    def intercept(self) -> float:
        """Height of the large-``s`` asymptote line at ``s = 0``."""
        return math.inf if self.empty else -_log(self.tail_mass)

    def tail(self) -> _Direction:
        """This direction restricted to the outputs attaining its extreme
        ratio: its large-``s`` asymptote line as a direction of its own."""
        r_max = 1 / self.a_min
        kept = [(y, w) for y, w, r in zip(self.outputs, self.weights, self.ratios) if r == r_max]
        return replace(
            self, outputs=tuple(y for y, _ in kept), weights=tuple(w for _, w in kept),
            ratios=(r_max,) * len(kept), affine=True, y_hat_mass=self.tail_mass,
        )


def _log(x: Union[Fraction, int]) -> float:
    """``log x`` of a positive rational: ``math.log(float(x))`` when ``float(x)``
    is a normal float, so those bits are the plain ones; else, where the float
    would underflow or overflow, ``log`` of the numerator minus ``log`` of the
    denominator, which ``math.log`` takes as integers of any size."""
    try:
        f = float(x)
        if f >= sys.float_info.min:
            return math.log(f)
    except OverflowError:
        pass
    return math.log(x.numerator) - math.log(x.denominator)


def _letter_pair(nx: int, a: int, b: int) -> tuple[int, int]:
    """``(a, b)`` as Python ints, the one check of a pair of input letters: each
    must pass ``operator.index`` and lie in ``[0, nx)``, or :class:`ValidationError`."""
    try:
        ab = operator.index(a), operator.index(b)
        if 0 <= ab[0] < nx and 0 <= ab[1] < nx:
            return ab
    except TypeError:
        pass
    raise ValidationError(f"({a!r}, {b!r}) is not a pair of input letters in [0, {nx})")


def _checked_int(name: str, value, low: int, error: type = PreconditionError) -> int:
    """``value`` as a Python int, the one check of an integer argument (a count,
    size, index, blocklength or seed): it must pass ``operator.index`` and not be
    a bool, or :class:`ValidationError`; below ``low`` it raises ``error``."""
    try:
        if not isinstance(value, bool):
            number = operator.index(value)
            if number >= low:
                return number
            raise error(f"{name} must be at least {low}, got {number}")
    except TypeError:
        pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _build_direction(pair: ChannelMetricPair, a: int, b: int) -> _Direction:
    W, q = integer_view(pair)
    wa, qa, qb = W.nums[a], q.nums[a], q.nums[b]
    # W(y|a) > 0 implies q(a,y) > 0
    outputs = tuple(y for y in range(pair.ny) if wa[y] > 0 and qb[y] > 0)
    if not outputs:
        return _Direction(outputs=(), weights=(), ratios=(), affine=False,
                          a_min=math.inf, tail_mass=Fraction(0), y_hat_mass=Fraction(0))
    # q(b,y)/q(a,y) is qb[y]/qa[y] times a constant of the direction, so
    # ratios order by cross-multiplying integers
    top = outputs[0]
    for y in outputs[1:]:
        if qb[y] * qa[top] > qb[top] * qa[y]:
            top = y
    tied = [y for y in outputs if qb[y] * qa[top] == qb[top] * qa[y]]
    den_a, den_b = q.dens[a], q.dens[b]
    return _Direction(
        outputs=outputs,
        weights=tuple(pair.W[a][y] for y in outputs),
        ratios=tuple(Fraction(qb[y] * den_a, qa[y] * den_b) for y in outputs),
        affine=len(tied) == len(outputs),
        a_min=Fraction(qa[top] * den_b, qb[top] * den_a),
        tail_mass=Fraction(sum(wa[y] for y in tied), W.dens[a]),
        y_hat_mass=Fraction(sum(wa[y] for y in outputs), W.dens[a]),
    )


def _sign_of_power_product(values: Sequence[Fraction], exponents) -> int:
    """Sign of ``prod_k values[k] ** exponents[k] - 1``, by one comparison
    of two integer products."""
    num = den = 1
    for v, e in zip(values, exponents):
        e = int(e)
        if e > 0:
            num *= v.numerator ** e
            den *= v.denominator ** e
        elif e < 0:
            num *= v.denominator ** -e
            den *= v.numerator ** -e
    return (num > den) - (num < den)


@dataclass(frozen=True)
class SupportSets:
    """Support structure of a pair, all derived exactly.

    ``y_hat[(a, b)]`` is the set of outputs where both metric rows are
    positive (the only outputs on which messages ``a`` and ``b`` can be
    confused at positive metric on both sides).  ``disjoint_pairs``
    collects unordered input pairs whose channel rows share no output.
    ``w_min`` is the smallest positive channel entry, the quantity that
    drives the polynomial slack in finite-blocklength bounds.
    """

    y_hat: Mapping[tuple[int, int], frozenset[int]]
    disjoint_pairs: frozenset[tuple[int, int]]
    w_min: Fraction


def support_sets(pair: ChannelMetricPair) -> SupportSets:
    """Compute metric-overlap sets, channel-disjoint input pairs and ``w_min``."""
    nx, ny = pair.nx, pair.ny
    y_hat: dict[tuple[int, int], frozenset[int]] = {}
    for a in range(nx):
        for b in range(nx):
            y_hat[(a, b)] = frozenset(
                y for y in range(ny) if pair.q[a][y] > 0 and pair.q[b][y] > 0
            )
    disjoint = set()
    for a in range(nx):
        for b in range(a + 1, nx):
            if all(pair.W[a][y] == 0 or pair.W[b][y] == 0 for y in range(ny)):
                disjoint.add((a, b))
    positive = [v for row in pair.W for v in row if v > 0]
    return SupportSets(y_hat=y_hat, disjoint_pairs=frozenset(disjoint), w_min=min(positive))


@dataclass(frozen=True)
class InputDistribution:
    """A probability assignment on the input alphabet."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValidationError("empty distribution")
        exact = all(isinstance(p, (int, Fraction)) for p in self.probs)
        # compared exactly, so an entry too large for a float fails rather than overflows
        if not exact and not all(abs(p) <= sys.float_info.max for p in self.probs):
            raise ValidationError("probabilities must be finite floats")
        if any(p < 0 for p in self.probs):
            raise ValidationError("negative probability")
        total = sum(self.probs)
        if exact:
            if total != 1:
                raise ValidationError(f"distribution sums to {total}, expected 1")
        elif abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(f"distribution sums to {total!r}, outside tolerance")

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)


def parse_pair(document: Union[str, bytes, Mapping]) -> ChannelMetricPair:
    """Parse a channel/metric document.

    The document is a JSON object (or an already-decoded mapping) with
    fields ``input_alphabet``, ``output_alphabet``, ``W``, ``q`` and an
    optional ``name``.  Matrix entries may be integers, decimal numbers
    or ``"num/den"`` strings; all are converted to exact rationals.  Every
    failure to read the JSON raises :class:`ValidationError`: bad syntax or
    bytes, an integer past the digit budget, or nesting past the recursion limit.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ValidationError("document must be a JSON object")
    required = {"input_alphabet", "output_alphabet", "W", "q"}
    missing = required - set(document)
    if missing:
        raise ValidationError(f"document is missing fields: {sorted(missing)}")
    unknown = set(document) - required - {"name"}
    if unknown:
        raise ValidationError(f"document has unknown fields: {sorted(unknown)}")

    def _labels(key: str) -> tuple[str, ...]:
        raw = document[key]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ValidationError(f"{key} must be a list of labels")
        return tuple(str(v) for v in raw)

    inp, out = _labels("input_alphabet"), _labels("output_alphabet")
    W = _parse_matrix(document["W"], len(inp), len(out), "W")
    q = _parse_matrix(document["q"], len(inp), len(out), "q")
    name = str(document.get("name", ""))
    return ChannelMetricPair(input_alphabet=inp, output_alphabet=out, W=W, q=q, name=name)


def serialize_pair(pair: ChannelMetricPair) -> dict:
    """Serialize to a JSON-compatible document that re-parses identically."""
    doc = {
        "input_alphabet": list(pair.input_alphabet),
        "output_alphabet": list(pair.output_alphabet),
        "W": [[str(v) for v in row] for row in pair.W],
        "q": [[str(v) for v in row] for row in pair.q],
    }
    if pair.name:
        doc["name"] = pair.name
    return doc


def pair_from_rows(
    W_rows: Iterable[Iterable[EntryLike]],
    q_rows: Iterable[Iterable[EntryLike]],
    name: str = "",
) -> ChannelMetricPair:
    """Build a pair from raw rows, generating positional symbol labels."""
    W = [[_to_fraction(v, "W") for v in row] for row in W_rows]
    q = [[_to_fraction(v, "q") for v in row] for row in q_rows]
    if not W or not W[0]:
        raise ValidationError("empty channel matrix")
    nx, ny = len(W), len(W[0])
    return ChannelMetricPair(
        input_alphabet=tuple(str(i) for i in range(nx)),
        output_alphabet=tuple(str(j) for j in range(ny)),
        W=tuple(tuple(row) for row in W),
        q=tuple(tuple(row) for row in q),
        name=name,
    )
