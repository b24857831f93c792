"""Command-line front end.

Every subcommand reads its inputs from files, runs one library entry
point, and prints a structured JSON document: command name, package
version, sha256 digests of the inputs, elapsed milliseconds, and a
command-specific payload.  Values are reported in nats unless ``--bits``
is given; exact rationals are serialized as fraction strings.

Exit codes: 0 on success, 2 for malformed input (bad files, bad flags,
unknown commands), 3 for violated preconditions such as a pair whose
zero-error condition fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .channel import ChannelMetricPair, parse_pair
from .codebook import (
    Codebook,
    d_min,
    dmin_certificate,
    komlos_extract,
    parse_codebook,
    pe_lower_bound_from_dmin,
)
from .decoder import (
    empirical_exponent,
    exact_error_probabilities,
    monte_carlo_error,
)
from .errors import PreconditionError, ValidationError
from .exponent import (
    RelaxedKernel,
    SearchOptions,
    gap_bound,
    zero_rate_exponent,
)
from .kernel import PairKernel, write_mu_curve
from .zero_error import is_balanced, zero_error_report

_LN2 = math.log(2.0)
_TIE_NAMES = {"equiprobable": "equiprobable", "error": "as_error", "genie": "genie_correct"}


def _plain(value):
    """Make a payload JSON-ready: fractions become strings, infinities
    become the strings "inf"/"-inf", containers recurse."""
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
        return _plain(asdict(value))
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


def _read_file(path: str) -> tuple[str, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw.decode("utf-8"), hashlib.sha256(raw).hexdigest()


def _load_pair(path: str) -> tuple[ChannelMetricPair, str]:
    text, digest = _read_file(path)
    return parse_pair(text), digest


def _load_code(path: str) -> tuple[Codebook, str]:
    text, digest = _read_file(path)
    return parse_codebook(text), digest


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.replace(";", ",").split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}") from exc


def _options(args) -> SearchOptions:
    return SearchOptions(seed=args.seed)


# -- per-command payload builders -------------------------------------------------


def _cmd_validate(args):
    pair, digest = _load_pair(args.pair)
    payload = {
        "valid": True,
        "name": pair.name,
        "input_alphabet": list(pair.input_alphabet),
        "output_alphabet": list(pair.output_alphabet),
    }
    return payload, {args.pair: digest}


def _cmd_zero_error(args):
    pair, digest = _load_pair(args.pair)
    report = zero_error_report(pair)
    payload = {
        "c0bar_zero": report.c0bar_zero,
        "c0_zero": report.c0_zero,
        "balanced": report.balanced,
        "strict_support_match": report.strict_support_match,
        "boundary_pairs": [list(p) for p in report.boundary_pairs],
        "witness": _plain(report.witness),
        "balance_violation": _plain(report.balance_violation),
    }
    return payload, {args.pair: digest}


def _cmd_balanced(args):
    pair, digest = _load_pair(args.pair)
    balanced, violation = is_balanced(pair)
    return {"balanced": balanced, "violation": _plain(violation)}, {args.pair: digest}


def _cmd_exponent(args):
    pair, digest = _load_pair(args.pair)
    result = zero_rate_exponent(pair, _options(args))
    payload = {
        "value": _scale(result.value, args.bits),
        "kind": result.kind,
        "balanced": result.balanced,
        "q_star": list(result.q_star.probs),
        "s_star": result.s_star,
        "lower_expurgated": _scale(result.lower_expurgated, args.bits),
        "gap_bound": _scale(result.gap_bound, args.bits),
        "units": "bits" if args.bits else "nats",
    }
    return payload, {args.pair: digest}


def _cmd_gap(args):
    pair, digest = _load_pair(args.pair)
    value = gap_bound(pair)
    payload = {
        "gap_bound": _scale(value, args.bits),
        "units": "bits" if args.bits else "nats",
    }
    return payload, {args.pair: digest}


def _cmd_mu_curve(args):
    pair, digest = _load_pair(args.pair)
    kernel = PairKernel(pair)
    s_values = np.linspace(0.0, args.s_max, args.points)
    rows = write_mu_curve(kernel, args.csv, s_values)
    return {"csv": args.csv, "rows": rows, "units": "nats"}, {args.pair: digest}


def _cmd_dmin(args):
    pair, pair_digest = _load_pair(args.pair)
    code, code_digest = _load_code(args.code)
    value, arg = d_min(pair, code)
    payload = {
        "value": _scale(value, args.bits),
        "pair": list(arg),
        "exponent_cap_with_rate": _scale(pe_lower_bound_from_dmin(pair, code), args.bits),
        "units": "bits" if args.bits else "nats",
    }
    return payload, {args.pair: pair_digest, args.code: code_digest}


def _cmd_komlos(args):
    code, digest = _load_code(args.code)
    selected, cert = komlos_extract(code, t=args.t, target=args.target)
    payload = {"selected": list(selected), "certificate": _plain(cert)}
    return payload, {args.code: digest}


def _cmd_certificate(args):
    pair, pair_digest = _load_pair(args.pair)
    code, code_digest = _load_code(args.code)
    selected, extraction = komlos_extract(code, t=args.t, target=args.target)
    balanced, _ = is_balanced(pair)
    kernel = PairKernel(pair) if balanced else RelaxedKernel(pair)
    report = dmin_certificate(kernel, code, selected, args.t, options=_options(args))
    payload = {
        "balanced": balanced,
        "kernel": "raw" if balanced else "relaxed",
        "extraction": _plain(extraction),
        "report": _plain(report),
    }
    return payload, {args.pair: pair_digest, args.code: code_digest}


def _cmd_exact_pe(args):
    pair, pair_digest = _load_pair(args.pair)
    code, code_digest = _load_code(args.code)
    outcome = exact_error_probabilities(pair, code, tie_policy=_TIE_NAMES[args.ties])
    return _plain(outcome), {args.pair: pair_digest, args.code: code_digest}


def _cmd_simulate(args):
    pair, pair_digest = _load_pair(args.pair)
    code, code_digest = _load_code(args.code)
    outcome = monte_carlo_error(
        pair, code, trials=args.trials, seed=args.seed, tie_policy=_TIE_NAMES[args.ties]
    )
    return _plain(outcome), {args.pair: pair_digest, args.code: code_digest}


def _cmd_empirical(args):
    pair, digest = _load_pair(args.pair)
    letters = _int_list(args.letters)
    if len(letters) != 2:
        raise ValidationError("--letters wants exactly two comma-separated letters")
    points = empirical_exponent(
        pair, letters[0], letters[1], _int_list(args.n), trials=args.trials, seed=args.seed
    )
    payload = {
        "points": [
            {
                "n": p.n,
                "error_probability": p.error_probability,
                "exponent": _scale(p.exponent, args.bits),
                "mode": p.mode,
            }
            for p in points
        ],
        "units": "bits" if args.bits else "nats",
    }
    return payload, {args.pair: digest}


# -- argument wiring ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerorate",
        description="Zero-rate reliability analysis of channel/metric pairs.",
    )
    parser.add_argument("--version", action="version", version=f"zerorate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, func, help_text, pair=False, code=False, bits=False, seed=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if pair:
            p.add_argument("--pair", required=True, help="channel/metric pair JSON file")
        if code:
            p.add_argument("--code", required=True, help="codebook text file")
        if bits:
            p.add_argument("--bits", action="store_true", help="report values in bits")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--out", default=None, help="write the result document here")
        return p

    new("validate", _cmd_validate, "parse and validate a pair document", pair=True)
    new("zero-error", _cmd_zero_error, "zero-error conditions and boundary pairs", pair=True)
    new("balanced", _cmd_balanced, "balanced-pair check with violation details", pair=True)

    new("exponent", _cmd_exponent, "zero-rate exponent quantity", pair=True, bits=True, seed=True)

    new("gap", _cmd_gap, "ceiling of the relaxation gap", pair=True, bits=True)

    p = new("mu-curve", _cmd_mu_curve, "CSV of kernel values and slopes", pair=True)
    p.add_argument("--csv", required=True, help="destination CSV file")
    p.add_argument("--s-max", type=float, default=4.0, dest="s_max")
    p.add_argument("--points", type=int, default=201)

    new("dmin", _cmd_dmin, "minimum pairwise distance of a codebook", pair=True, code=True, bits=True)

    p = new("komlos", _cmd_komlos, "extract a near-regular subcode", code=True)
    p.add_argument("--t", type=int, required=True, help="type quantization denominator")
    p.add_argument("--target", type=int, required=True, help="desired subcode size")

    p = new("certificate", _cmd_certificate, "distance chain certificate", pair=True, code=True, seed=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--target", type=int, required=True)

    p = new("exact-pe", _cmd_exact_pe, "exact two-codeword error probabilities", pair=True, code=True)
    p.add_argument("--ties", default="equiprobable", choices=tuple(_TIE_NAMES))

    p = new("simulate", _cmd_simulate, "Monte Carlo decoding error", pair=True, code=True, seed=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--ties", default="equiprobable", choices=tuple(_TIE_NAMES))

    p = new("empirical", _cmd_empirical, "normalized exponents of repeated-letter pairs",
            pair=True, bits=True, seed=True)
    p.add_argument("--letters", required=True, help="two letters, e.g. 0,1")
    p.add_argument("--n", required=True, help="comma-separated blocklengths")
    p.add_argument("--trials", type=int, default=200_000)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> dict:
    """Parse arguments, execute one command, and return (after printing)
    the full result document."""
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    payload, digests = args.func(args)
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
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
