"""The three workloads: their input pools, job command sequences and output checks.

A job is one item of a workload's pool: a few generated documents and a
fixed sequence of CLI subcommands run on them.  Every run measures whole
passes over the full pool, in an order drawn from the run's seed, so the
set of jobs a median is taken over is the same on every run and
reference outputs exist for every job.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

import inputs as gen


@dataclass(frozen=True)
class Step:
    label: str              # name the step's timings are reported under
    argv: tuple[str, ...]   # CLI arguments; "{role}" is replaced by that document's path
    check: str              # comparison rule, see ``check_step``


@dataclass(frozen=True)
class Item:
    id: str
    kind: str
    docs: tuple[tuple[str, str, str], ...]   # (role, file suffix, text)
    steps: tuple[Step, ...]


# -- exponent-corpus ------------------------------------------------------------------

EXPONENT_STEPS = (
    Step("validate", ("validate", "--pair", "{pair}"), "close"),
    Step("zero-error", ("zero-error", "--pair", "{pair}"), "close"),
    Step("balanced", ("balanced", "--pair", "{pair}"), "close"),
    Step("exponent", ("exponent", "--pair", "{pair}"), "exponent"),
    Step("gap", ("gap", "--pair", "{pair}"), "close"),
    Step("mu-curve", ("mu-curve", "--pair", "{pair}", "--csv", "{csv}",
                      "--points", "9", "--s-max", "4"), "mu-curve"),
)


def _pair_item(item_id: str, kind: str, rows) -> Item:
    W, q = rows
    docs = (("pair", "json", gen.pair_document(W, q, item_id)), ("csv", "csv", ""))
    return Item(item_id, kind, docs, EXPONENT_STEPS)


def exponent_pool() -> list[Item]:
    """Full-support pairs (nx 2-6, ny 2-5), admissible pairs with zeros that
    pass the ordering check (half of them unbalanced), and two fixtures."""
    items = []
    for nx in range(2, 7):
        for k in range(8):
            rng = gen.rng_for("exponent-corpus", "full-support", nx, k)
            items.append(_pair_item(f"fs-{nx}-{k}", "full-support",
                                    gen.full_support_rows(rng, nx, 2 + k % 4)))
    for balanced, tag in ((True, "balanced"), (False, "unbalanced")):
        for nx in (2, 3, 4):
            for k in range(2):
                rng = gen.rng_for("exponent-corpus", tag, nx, k)
                items.append(_pair_item(f"adm-{tag}-{nx}-{k}", f"admissible-{tag}",
                                        gen.admissible_rows(rng, nx, 3 + k, balanced)))
    items.append(_pair_item("bsc-quarter", "fixture", gen.bsc_rows()))
    items.append(_pair_item("typewriter-tenth", "fixture", gen.typewriter_rows()))
    return items


# -- codebook-distance ---------------------------------------------------------------

SHARED_STEPS = (
    Step("komlos", ("komlos", "--code", "{code}", "--t", "4", "--target", "8"), "close"),
    Step("certificate", ("certificate", "--pair", "{pair}", "--code", "{code}",
                         "--t", "4", "--target", "8"), "certificate"),
    Step("dmin-shared", ("dmin", "--pair", "{pair}", "--code", "{code}"), "dmin"),
)
DISTINCT_STEPS = (
    Step("dmin-distinct", ("dmin", "--pair", "{pair}", "--code", "{code}"), "dmin"),
)


def codebook_pool() -> list[Item]:
    """Binary books on BSC(1/4), whose pairs share joint types, and ternary
    books on balanced full-support pairs, whose pairs almost never do."""
    items = []
    bsc = gen.pair_document(*gen.bsc_rows(), "bsc-quarter")
    for k in range(28):
        rng = gen.rng_for("codebook-distance", "shared", k)
        book = gen.book_document(gen.random_words(rng, 16, 24, 2), 2)
        items.append(Item(f"shared-{k}", "shared",
                          (("pair", "json", bsc), ("code", "txt", book)), SHARED_STEPS))
    for k in range(10):
        rng = gen.rng_for("codebook-distance", "distinct", k)
        pair = gen.pair_document(*gen.full_support_rows(rng, 3, 2 + k % 4), f"distinct-{k}")
        book = gen.book_document(gen.random_words(rng, 24, 12, 3), 3)
        items.append(Item(f"distinct-{k}", "distinct",
                          (("pair", "json", pair), ("code", "txt", book)), DISTINCT_STEPS))
    return items


# -- decoder-lab ---------------------------------------------------------------------

DECODER_STEPS = (
    Step("exact-pe", ("exact-pe", "--pair", "{pair}", "--code", "{code}"), "exact"),
    Step("simulate-tied", ("simulate", "--pair", "{bsc}", "--code", "{tied}",
                           "--trials", "3000", "--seed", "11"), "exact"),
    Step("simulate-generic", ("simulate", "--pair", "{generic}", "--code", "{spread}",
                              "--trials", "3000", "--seed", "11"), "exact"),
    Step("empirical", ("empirical", "--pair", "{bsc}", "--letters", "0,1", "--n", "8,16",
                       "--trials", "1000"), "close"),
)
# Letter-pair cell counts of the two-word books: n = 10, 11, 12 with
# 3600, 6000 and 10000 conditional-type classes for ny = 3.
EXACT_SHAPES = ((3, 2, 3, 2), (3, 3, 3, 2), (3, 3, 3, 3))


def decoder_pool() -> list[Item]:
    """Each job decodes exactly (nx=2, ny=3, two words), simulates a tie-heavy
    BSC book and a tie-light ternary book, and runs the empirical exponent."""
    items = []
    bsc = gen.pair_document(*gen.bsc_rows(), "bsc-quarter")
    for k in range(40):
        rng = gen.rng_for("decoder-lab", k)
        pair = gen.pair_document(*gen.full_support_rows(rng, 2, 3), f"lab-{k}")
        two = gen.book_document(gen.four_cell_words(rng, EXACT_SHAPES[k % 3]), 2)
        tied = gen.book_document(gen.random_words(rng, 32, 64, 2), 2)
        generic = gen.pair_document(*gen.full_support_rows(rng, 3, 3), f"generic-{k}")
        spread = gen.book_document(gen.random_words(rng, 16, 64, 3), 3)
        docs = (("pair", "json", pair), ("code", "txt", two), ("bsc", "json", bsc),
                ("tied", "txt", tied), ("generic", "json", generic), ("spread", "txt", spread))
        items.append(Item(f"lab-{k}", "lab", docs, DECODER_STEPS))
    return items


POOLS = {
    "exponent-corpus": exponent_pool,
    "codebook-distance": codebook_pool,
    "decoder-lab": decoder_pool,
}


def pass_order(items: list[Item], workload: str, seed: int, pass_no: int) -> list[Item]:
    order = list(items)
    random.Random(f"order:{workload}:{seed}:{pass_no}").shuffle(order)
    return order


# -- output checks -------------------------------------------------------------------

TOL = 1e-6


def close(a, b) -> bool:
    """Equal, except that floats may differ by TOL relative to max(1, |reference|)."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) \
                or not isinstance(b, (int, float)):
            return False
        return abs(a - b) <= TOL * max(1.0, abs(b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(close, a, b))
    return type(a) is type(b) and a == b


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_csv_cell(v) for v in row] for row in csv.reader(fh)]


def _csv_cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def check_step(step: Step, payload, ref: dict, csv_rows=None) -> str | None:
    """Return None when the payload matches the reference, else the reason."""
    want = ref["outputs"][step.label]
    rule = step.check
    if rule == "exact":
        return None if payload == want else "differs from the reference bit for bit"
    if rule == "close":
        return None if close(payload, want) else "differs from the reference"
    if rule == "exponent":
        for key in ("kind", "balanced", "units", "value", "lower_expurgated", "gap_bound"):
            if not close(payload.get(key), want[key]):
                return f"{key} differs from the reference"
        if payload["balanced"] and abs(payload["value"] - ref["lower_route"]) > TOL:
            return "exponent disagrees with the expurgated lower route"
        return None
    if rule == "dmin":
        for key in ("value", "exponent_cap_with_rate", "units"):
            if not close(payload.get(key), want[key]):
                return f"{key} differs from the reference"
        return None
    if rule == "certificate":
        if payload["report"]["all_ok"] is not True:
            return "certificate chain does not hold"
        if not close(payload["extraction"], want["extraction"]):
            return "extraction differs from the reference"
        if not close(payload["report"]["dmin_code"], want["report"]["dmin_code"]):
            return "dmin_code differs from the reference"
        return None
    if rule == "mu-curve":
        if payload.get("rows") != want["rows"]:
            return "row count differs from the reference"
        return None if close(csv_rows, ref["csv"]) else "csv differs from the reference"
    raise ValueError(f"unknown check {rule!r}")

