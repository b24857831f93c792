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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import ValidationError

Rational = Fraction
EntryLike = Union[int, float, str, Fraction]


def _to_fraction(value: EntryLike, where: str) -> Fraction:
    """Convert a document entry to an exact rational.

    Strings are parsed as ``"num/den"`` (or a plain integer/decimal
    literal); numbers are converted through their decimal representation
    so that a JSON ``0.1`` means one tenth, not the nearest binary float.
    """
    try:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool):
            raise ValueError("booleans are not entries")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
        if isinstance(value, str):
            return Fraction(value.strip())
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
        for a, row in enumerate(self.W):
            if any(v < 0 for v in row):
                raise ValidationError(f"W row {a} has a negative entry")
            total = sum(row)
            if total != 1:
                raise ValidationError(f"W row {a} sums to {total}, expected exactly 1")
        for a, row in enumerate(self.q):
            if any(v < 0 for v in row):
                raise ValidationError(f"q row {a} has a negative entry")
            if all(v == 0 for v in row):
                raise ValidationError(f"q row {a} is identically zero")
        for a in range(nx):
            for y in range(ny):
                if self.W[a][y] > 0 and self.q[a][y] == 0:
                    raise ValidationError(
                        f"inadmissible pair: W[{a}][{y}] > 0 but q[{a}][{y}] == 0"
                    )

    @property
    def nx(self) -> int:
        return len(self.input_alphabet)

    @property
    def ny(self) -> int:
        return len(self.output_alphabet)


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
    tol: float = field(default=1e-12, compare=False)

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValidationError("empty distribution")
        if any(p < 0 for p in self.probs):
            raise ValidationError("negative probability")
        total = sum(self.probs)
        exact = all(isinstance(p, (int, Fraction)) for p in self.probs)
        if exact:
            if total != 1:
                raise ValidationError(f"distribution sums to {total}, expected 1")
        elif abs(total - 1.0) > self.tol:
            raise ValidationError(f"distribution sums to {total!r}, outside tolerance")

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)


def parse_pair(document: Union[str, bytes, Mapping]) -> ChannelMetricPair:
    """Parse a channel/metric document.

    The document is a JSON object (or an already-decoded mapping) with
    fields ``input_alphabet``, ``output_alphabet``, ``W``, ``q`` and an
    optional ``name``.  Matrix entries may be integers, decimal numbers
    or ``"num/den"`` strings; all are converted to exact rationals.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
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
