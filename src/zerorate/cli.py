"""Command-line front end.

Every subcommand reads its inputs from files, runs one library entry
point, and prints a structured JSON document: command name, package
version, sha256 digests of the inputs, elapsed milliseconds, and a
command-specific payload.  Values are reported in nats unless ``--bits``
is given; exact rationals are serialized as fraction strings.

Each subcommand's parser entry declares the documents it reads and the
checks on its flags; the parser applies the checks, ``run`` reads and
hashes the documents once each and hands them to the command, which only
builds its payload.  The process keeps the last pair document and the
last codebook document it parsed, keyed by their text, so commands run
one after another on one document parse it once and share the tables it
keeps: ``certificate`` reuses the extraction ``komlos`` made on the book,
and ``dmin`` the batch the certificate solved for the pair's raw kernel.

Exit codes: 0 on success, 2 for malformed input (bad files, unknown
commands, and flags that are invalid whatever the documents hold), 3 for
violated preconditions, where the documents make the request impossible,
such as a pair whose zero-error condition fails, a ``--target`` above
the book size, or an exact enumeration over its budget.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .channel import parse_pair
from .codebook import (
    _rate_cap,
    d_min,
    dmin_certificate,
    komlos_extract,
    parse_codebook,
)
from .decoder import (
    empirical_exponent,
    exact_error_probabilities,
    monte_carlo_error,
)
from .errors import PreconditionError, ValidationError
from .exponent import (
    RelaxedKernel,
    gap_bound,
    zero_rate_exponent,
)
from .kernel import _as_kernel, write_mu_curve
from .zero_error import is_balanced, zero_error_report

_LN2 = math.log(2.0)
_TIE_NAMES = {"equiprobable": "equiprobable", "error": "as_error", "genie": "genie_correct"}


def _plain(value):
    """Make a payload JSON-ready: fractions become strings, infinities
    become the strings "inf"/"-inf", containers and dataclass fields recurse."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return [_plain(v) for v in sorted(value)]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (str, int)):
        return value
    return str(value)


def _scale(value, bits: bool):
    if bits and isinstance(value, float) and math.isfinite(value):
        return value / _LN2
    return value


def _int_list(text: str) -> list[int]:
    """An argparse ``type`` for integer lists; argparse lets its
    ``ValidationError`` through, so ``main`` reports it (exit 2)."""
    try:
        return [int(v) for v in text.replace(";", ",").split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}") from exc


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds only with nonnegative integers."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def _bounded(convert, flag: str, ok, rule: str):
    """An argparse ``type`` for ``flag``: ``convert`` the text, then raise
    ``ValidationError`` unless ``ok`` holds.  argparse applies it while
    parsing, before ``run`` reads any document, and lets the error through
    to ``main`` (exit 2): such a flag is invalid whatever the documents hold."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValidationError(f"{flag} must be {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _at_least(flag: str, low: int):
    return _bounded(int, flag, lambda value: value >= low, f"at least {low}")


# One kept document per kind, so the commands on one pair or book share the
# tables it keeps.  Each looks ``parse_pair`` / ``parse_codebook`` up when called,
# so a wrapper set on this module's name sees every parse.
@functools.lru_cache(maxsize=1)
def _pair_document(text: str):
    return parse_pair(text)


@functools.lru_cache(maxsize=1)
def _codebook_document(text: str):
    return parse_codebook(text)


def _load(args) -> tuple[list, dict[str, str]]:
    """Read, hash and parse the documents the subcommand declares, pair first."""
    documents, digests = [], {}
    for flag in args.documents:
        path = getattr(args, flag)
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
        digests[path] = hashlib.sha256(raw).hexdigest()
        documents.append(_pair_document(text) if flag == "pair" else _codebook_document(text))
    return documents, digests


# -- per-command payload builders -------------------------------------------------
# Each takes the parsed flags and the documents its parser entry declares.


def _cmd_validate(args, pair):
    return {
        "valid": True,
        "name": pair.name,
        "input_alphabet": list(pair.input_alphabet),
        "output_alphabet": list(pair.output_alphabet),
    }


def _cmd_zero_error(args, pair):
    report = zero_error_report(pair)
    return {
        "c0bar_zero": report.c0bar_zero,
        "c0_zero": report.c0_zero,
        "balanced": report.balanced,
        "strict_support_match": report.strict_support_match,
        "boundary_pairs": [list(p) for p in report.boundary_pairs],
        "witness": _plain(report.witness),
        "balance_violation": _plain(report.balance_violation),
    }


def _cmd_balanced(args, pair):
    balanced, violation = is_balanced(pair)
    return {"balanced": balanced, "violation": _plain(violation)}


def _cmd_exponent(args, pair):
    result = zero_rate_exponent(pair)
    return {
        "value": _scale(result.value, args.bits),
        "kind": result.kind,
        "balanced": result.balanced,
        "q_star": list(result.q_star.probs),
        "s_star": result.s_star,
        "lower_expurgated": _scale(result.lower_expurgated, args.bits),
        "gap_bound": _scale(result.gap_bound, args.bits),
    }


def _cmd_gap(args, pair):
    return {"gap_bound": _scale(gap_bound(pair), args.bits)}


def _cmd_mu_curve(args, pair):
    s_values = np.linspace(0.0, args.s_max, args.points)
    rows = write_mu_curve(_as_kernel(pair), args.csv, s_values)
    return {"csv": args.csv, "rows": rows, "units": "nats"}


def _cmd_dmin(args, pair, code):
    value, arg = d_min(pair, code)
    return {
        "value": _scale(value, args.bits),
        "pair": list(arg),
        "exponent_cap_with_rate": _scale(_rate_cap(value, code), args.bits),
    }


def _cmd_komlos(args, code):
    selected, cert = komlos_extract(code, t=args.t, target=args.target)
    return {"selected": list(selected), "certificate": _plain(cert)}


def _cmd_certificate(args, pair, code):
    selected, extraction = komlos_extract(code, t=args.t, target=args.target)
    balanced, _ = is_balanced(pair)
    report = dmin_certificate(pair if balanced else RelaxedKernel(pair), code, selected, args.t)
    return {
        "balanced": balanced,
        "kernel": "raw" if balanced else "relaxed",
        "extraction": _plain(extraction),
        "report": _plain(report),
    }


def _cmd_exact_pe(args, pair, code):
    return _plain(exact_error_probabilities(pair, code, tie_policy=_TIE_NAMES[args.ties]))


def _cmd_simulate(args, pair, code):
    outcome = monte_carlo_error(
        pair, code, trials=args.trials, seed=args.seed, tie_policy=_TIE_NAMES[args.ties]
    )
    return _plain(outcome)


def _cmd_empirical(args, pair):
    a, b = args.letters
    points = empirical_exponent(pair, a, b, args.n, trials=args.trials, seed=args.seed)
    return {
        "points": [
            {
                "n": p.n,
                "error_probability": p.error_probability,
                "exponent": _scale(p.exponent, args.bits),
                "mode": p.mode,
            }
            for p in points
        ]
    }


# -- argument wiring ---------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerorate",
        description="Zero-rate reliability analysis of channel/metric pairs.",
    )
    parser.add_argument("--version", action="version", version=f"zerorate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, func, help_text, pair=False, code=False, bits=False, seed=False):
        """One subcommand: the documents its command receives (pair before
        code), and ``--bits``, which also adds ``"units"`` to its payload."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, documents=tuple(
            flag for flag, wanted in (("pair", pair), ("code", code)) if wanted))
        if pair:
            p.add_argument("--pair", required=True, help="channel/metric pair JSON file")
        if code:
            p.add_argument("--code", required=True, help="codebook text file")
        if bits:
            p.add_argument("--bits", action="store_true", help="report values in bits")
        if seed:
            p.add_argument("--seed", type=_seed, default=0, help="master random seed (nonnegative)")
        p.add_argument("--out", default=None, help="write the result document here")
        return p

    new("validate", _cmd_validate, "parse and validate a pair document", pair=True)
    new("zero-error", _cmd_zero_error, "zero-error conditions and boundary pairs", pair=True)
    new("balanced", _cmd_balanced, "balanced-pair check with violation details", pair=True)

    new("exponent", _cmd_exponent, "zero-rate exponent quantity", pair=True, bits=True)

    new("gap", _cmd_gap, "ceiling of the relaxation gap", pair=True, bits=True)

    p = new("mu-curve", _cmd_mu_curve, "CSV of kernel values and slopes", pair=True)
    p.add_argument("--csv", required=True, help="destination CSV file")
    s_max = _bounded(float, "--s-max", lambda v: math.isfinite(v) and v >= 0, "finite and nonnegative")
    p.add_argument("--s-max", type=s_max, default=4.0, dest="s_max")
    p.add_argument("--points", type=_at_least("--points", 1), default=201)

    new("dmin", _cmd_dmin, "minimum pairwise distance of a codebook", pair=True, code=True, bits=True)

    p = new("komlos", _cmd_komlos, "extract a near-regular subcode", code=True)
    p.add_argument("--t", type=_at_least("--t", 1), required=True, help="type quantization denominator")
    p.add_argument("--target", type=_at_least("--target", 2), required=True, help="desired subcode size")

    p = new("certificate", _cmd_certificate, "distance chain certificate", pair=True, code=True)
    p.add_argument("--t", type=_at_least("--t", 1), required=True)
    p.add_argument("--target", type=_at_least("--target", 2), required=True)

    p = new("exact-pe", _cmd_exact_pe, "exact two-codeword error probabilities", pair=True, code=True)
    p.add_argument("--ties", default="equiprobable", choices=tuple(_TIE_NAMES))

    p = new("simulate", _cmd_simulate, "Monte Carlo decoding error", pair=True, code=True, seed=True)
    p.add_argument("--trials", type=_at_least("--trials", 1), required=True)
    p.add_argument("--ties", default="equiprobable", choices=tuple(_TIE_NAMES))

    p = new("empirical", _cmd_empirical, "normalized exponents of repeated-letter pairs",
            pair=True, bits=True, seed=True)
    letters = _bounded(_int_list, "--letters", lambda v: len(v) == 2 and v[0] != v[1],
                       "two distinct letters")
    p.add_argument("--letters", type=letters, required=True, help="two letters, e.g. 0,1")
    ns = _bounded(_int_list, "--n", lambda v: v and min(v) >= 1, "blocklengths of at least 1")
    p.add_argument("--n", type=ns, required=True, help="comma-separated blocklengths")
    p.add_argument("--trials", type=_at_least("--trials", 1), default=200_000)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> dict:
    """Parse arguments, execute one command, and return (after printing)
    the full result document."""
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    documents, digests = _load(args)
    payload = args.func(args, *documents)
    if "bits" in vars(args):
        payload["units"] = "bits" if args.bits else "nats"
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    result = {
        "command": args.command,
        "version": __version__,
        "input_digest": digests,
        "elapsed_ms": round(elapsed_ms, 3),
        "payload": payload,
    }
    text = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        run(argv)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
