"""Command-line interface: payload schemas, exit codes, and determinism."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import zerorate as zr
from zerorate import cli, codebook


BSC_DOC = {
    "input_alphabet": ["0", "1"],
    "output_alphabet": ["0", "1"],
    "W": [["3/4", "1/4"], ["1/4", "3/4"]],
    "q": [["3/4", "1/4"], ["1/4", "3/4"]],
    "name": "bsc",
}

TW_DOC = {
    "input_alphabet": ["0", "1", "2"],
    "output_alphabet": ["0", "1", "2"],
    "W": [["9/10", "1/10", "0"], ["0", "9/10", "1/10"], ["1/10", "0", "9/10"]],
    "q": [["9/10", "1/10", "0"], ["1/20", "9/10", "1/10"], ["1/10", "0", "9/10"]],
    "name": "typewriter",
}

IDENTITY_DOC = {
    "input_alphabet": ["0", "1"],
    "output_alphabet": ["0", "1"],
    "W": [["1", "0"], ["0", "1"]],
    "q": [["1", "0"], ["0", "1"]],
}


@pytest.fixture
def bsc_file(tmp_path):
    p = tmp_path / "bsc.json"
    p.write_text(json.dumps(BSC_DOC))
    return str(p)


@pytest.fixture
def tw_file(tmp_path):
    p = tmp_path / "tw.json"
    p.write_text(json.dumps(TW_DOC))
    return str(p)


@pytest.fixture
def code_file(tmp_path):
    code = zr.Codebook(((0, 0, 1), (1, 1, 0)), 2)
    p = tmp_path / "code.txt"
    p.write_text(zr.serialize_codebook(code))
    return str(p)


@pytest.fixture
def big_code_file(tmp_path, rng):
    words = tuple(tuple(int(v) for v in rng.integers(0, 2, 16)) for _ in range(20))
    p = tmp_path / "big.txt"
    p.write_text(zr.serialize_codebook(zr.Codebook(words, 2)))
    return str(p)


def test_validate_payload(bsc_file, capsys):
    res = cli.run(["validate", "--pair", bsc_file])
    capsys.readouterr()
    assert res["command"] == "validate"
    assert res["version"] == zr.__version__
    assert bsc_file in res["input_digest"]
    assert len(res["input_digest"][bsc_file]) == 64
    assert res["payload"]["valid"] is True
    assert res["payload"]["input_alphabet"] == ["0", "1"]
    assert res["payload"]["output_alphabet"] == ["0", "1"]


def test_zero_error_payload(tw_file, capsys):
    res = cli.run(["zero-error", "--pair", tw_file])
    capsys.readouterr()
    pay = res["payload"]
    assert pay["c0bar_zero"] is True and pay["c0_zero"] is True
    assert pay["balanced"] is False
    assert [tuple(p) for p in pay["boundary_pairs"]] == [(0, 1), (0, 2), (1, 0), (2, 0)]


def test_balanced_payload_reports_violation(tw_file, capsys):
    res = cli.run(["balanced", "--pair", tw_file])
    capsys.readouterr()
    pay = res["payload"]
    assert pay["balanced"] is False
    assert tuple(pay["violation"]["pair"]) == (0, 1)
    assert pay["violation"]["ratios"] == ["18", "1/9"]


def test_exponent_payload_and_bits_flag(bsc_file, capsys):
    nats = cli.run(["exponent", "--pair", bsc_file])
    bits = cli.run(["exponent", "--pair", bsc_file, "--bits"])
    capsys.readouterr()
    assert nats["payload"]["units"] == "nats"
    assert bits["payload"]["units"] == "bits"
    assert nats["payload"]["value"] == pytest.approx(0.0719205181129453, abs=1e-6)
    assert bits["payload"]["value"] == pytest.approx(
        nats["payload"]["value"] / math.log(2), abs=1e-9)
    assert nats["payload"]["kind"] == "exact_equality"


def test_gap_payload(tw_file, capsys):
    res = cli.run(["gap", "--pair", tw_file])
    capsys.readouterr()
    assert res["payload"]["gap_bound"] == pytest.approx(0.5 * math.log(10), abs=1e-9)


def test_mu_curve_writes_csv(bsc_file, tmp_path, capsys):
    out_csv = str(tmp_path / "mu.csv")
    res = cli.run(["mu-curve", "--pair", bsc_file, "--csv", out_csv,
                   "--s-max", "2.0", "--points", "21"])
    capsys.readouterr()
    assert res["payload"]["rows"] > 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == res["payload"]["rows"]
    assert {"a", "b", "s", "mu", "mu_prime"} <= set(rows[0])
    float(rows[0]["mu"])  # parseable numbers


@pytest.mark.parametrize("flags", [
    ["--points", "-1"],
    ["--points", "0"],
    ["--s-max", "-1"],
    ["--s-max", "inf"],
    ["--s-max", "nan"],
])
def test_mu_curve_rejects_bad_flags(bsc_file, tmp_path, capsys, flags):
    out_csv = str(tmp_path / "mu.csv")
    assert cli.main(["mu-curve", "--pair", bsc_file, "--csv", out_csv, *flags]) == 2
    capsys.readouterr()


def test_every_subcommand_digests_its_declared_documents(
        bsc_file, code_file, big_code_file, tmp_path, capsys):
    """``input_digest`` holds exactly the documents the parser entry
    declares, pair before code, each hashed from the file's bytes."""
    csv_path = str(tmp_path / "mu.csv")
    pair, code, big = ["--pair", bsc_file], ["--code", code_file], ["--code", big_code_file]
    table = {
        "validate": (pair, [bsc_file]),
        "zero-error": (pair, [bsc_file]),
        "balanced": (pair, [bsc_file]),
        "exponent": (pair, [bsc_file]),
        "gap": (pair, [bsc_file]),
        "mu-curve": (pair + ["--csv", csv_path, "--points", "3"], [bsc_file]),
        "dmin": (code + pair, [bsc_file, code_file]),
        "komlos": (big + ["--t", "3", "--target", "4"], [big_code_file]),
        "certificate": (big + pair + ["--t", "3", "--target", "4"], [bsc_file, big_code_file]),
        "exact-pe": (code + pair, [bsc_file, code_file]),
        "simulate": (code + pair + ["--trials", "50"], [bsc_file, code_file]),
        "empirical": (pair + ["--letters", "0,1", "--n", "2"], [bsc_file]),
    }
    assert set(table) == set(cli._build_parser()._subparsers._group_actions[0].choices)
    for command, (flags, documents) in table.items():
        digests = cli.run([command, *flags])["input_digest"]
        assert list(digests) == documents, command
        for path in documents:
            with open(path, "rb") as fh:
                assert digests[path] == hashlib.sha256(fh.read()).hexdigest(), command
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["mu-curve", "--pair", "{pair}", "--csv", "{csv}", "--points", "0"],
     "--points must be at least 1, got 0"),
    (["mu-curve", "--pair", "{pair}", "--csv", "{csv}", "--s-max", "-1"],
     "--s-max must be finite and nonnegative, got -1.0"),
    (["simulate", "--pair", "{pair}", "--code", "{code}", "--trials", "0"],
     "--trials must be at least 1, got 0"),
    (["komlos", "--code", "{code}", "--t", "0", "--target", "2"],
     "--t must be at least 1, got 0"),
    (["certificate", "--pair", "{pair}", "--code", "{code}", "--t", "0", "--target", "2"],
     "--t must be at least 1, got 0"),
    (["komlos", "--code", "{code}", "--t", "2", "--target", "1"],
     "--target must be at least 2, got 1"),
    (["certificate", "--pair", "{pair}", "--code", "{code}", "--t", "2", "--target", "1"],
     "--target must be at least 2, got 1"),
    (["empirical", "--pair", "{pair}", "--letters", "0,1", "--n", "2,0"],
     "--n must be blocklengths of at least 1, got [2, 0]"),
    (["empirical", "--pair", "{pair}", "--letters", "0,1", "--n", ""],
     "--n must be blocklengths of at least 1, got []"),
    (["empirical", "--pair", "{pair}", "--letters", "0,0", "--n", "2"],
     "--letters must be two distinct letters, got [0, 0]"),
    (["empirical", "--pair", "{pair}", "--letters", "0,1", "--n", "4", "--trials", "0"],
     "--trials must be at least 1, got 0"),
])
def test_flags_invalid_whatever_the_documents_hold_exit_2(
        bsc_file, code_file, tmp_path, capsys, argv, message):
    """Such a flag exits 2 on good documents, and it is checked before any
    document is read: with absent documents the error still names the flag."""
    csv_path = str(tmp_path / "mu.csv")
    absent = {role: str(tmp_path / f"absent.{role}") for role in ("pair", "code")}
    for paths in ({"pair": bsc_file, "code": code_file}, absent):
        assert cli.main([arg.format(csv=csv_path, **paths) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_dmin_payload(bsc_file, tmp_path, capsys):
    code = zr.Codebook(((0, 0), (0, 1), (1, 1)), 2)
    code_path = tmp_path / "three.txt"
    code_path.write_text(zr.serialize_codebook(code))
    res = cli.run(["dmin", "--pair", bsc_file, "--code", str(code_path)])
    capsys.readouterr()
    pay = res["payload"]
    assert pay["value"] == pytest.approx(0.0719205181129453, abs=1e-9)
    assert tuple(pay["pair"]) == (0, 1)
    assert pay["exponent_cap_with_rate"] == pytest.approx(
        pay["value"] + math.log(3) / 2, abs=1e-12)


def test_komlos_payload(big_code_file, capsys):
    res = cli.run(["komlos", "--code", big_code_file, "--t", "3", "--target", "5"])
    capsys.readouterr()
    pay = res["payload"]
    cert = pay["certificate"]
    assert cert["m_hat"] == len(pay["selected"])
    assert cert["m_hat"] >= 2
    assert float(eval_fraction(cert["observed_spread"])) < 1 / 3


def eval_fraction(text):
    from fractions import Fraction
    return Fraction(text)


def test_certificate_payload(bsc_file, big_code_file, capsys):
    res = cli.run(["certificate", "--pair", bsc_file, "--code", big_code_file,
                   "--t", "3", "--target", "5"])
    capsys.readouterr()
    pay = res["payload"]
    assert pay["balanced"] is True and pay["kernel"] == "raw"
    report = pay["report"]
    assert report["all_ok"] is True
    assert report["m_hat"] >= 2
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for c in report["checks"]:
        assert c["ok"] is True
        assert c["slack"] >= -1e-9


def test_exact_pe_payload(bsc_file, code_file, capsys):
    res = cli.run(["exact-pe", "--pair", bsc_file, "--code", code_file])
    capsys.readouterr()
    pay = res["payload"]
    assert pay["per_message"] == ["5/32", "5/32"]
    assert pay["mode"] == "exact"
    harsh = cli.run(["exact-pe", "--pair", bsc_file, "--code", code_file,
                     "--ties", "error"])
    capsys.readouterr()
    assert harsh["payload"]["tie_policy"] == "as_error"


def test_simulate_payload_is_seed_deterministic(bsc_file, code_file, capsys):
    a = cli.run(["simulate", "--pair", bsc_file, "--code", code_file,
                 "--trials", "20000", "--seed", "4"])
    b = cli.run(["simulate", "--pair", bsc_file, "--code", code_file,
                 "--trials", "20000", "--seed", "4"])
    capsys.readouterr()
    assert a["payload"] == b["payload"]
    lo, hi = a["payload"]["confidence_interval"]
    assert lo <= a["payload"]["average"] <= hi
    assert a["payload"]["trials"] == 20000


def test_one_parser_serves_every_call(bsc_file, code_file, capsys):
    simulate = ["simulate", "--pair", bsc_file, "--code", code_file, "--trials", "500"]
    exponent = ["exponent", "--pair", bsc_file]
    cli._build_parser.cache_clear()
    fresh = []
    for argv in (simulate, exponent):
        fresh.append(cli.run(argv)["payload"])
        cli._build_parser.cache_clear()
    shared = [cli.run(simulate)["payload"], cli.run(exponent)["payload"]]
    with pytest.raises(SystemExit) as bad:
        cli.run(["simulate", "--pair", bsc_file, "--no-such-flag"])
    assert bad.value.code == 2
    shared.append(cli.run(simulate)["payload"])
    capsys.readouterr()
    assert shared == fresh + fresh[:1]
    assert cli._build_parser.cache_info().misses == 1


def test_empirical_payload(bsc_file, capsys):
    res = cli.run(["empirical", "--pair", bsc_file, "--letters", "0,1",
                   "--n", "2,4"])
    capsys.readouterr()
    pts = res["payload"]["points"]
    assert [p["n"] for p in pts] == [2, 4]
    assert pts[0]["exponent"] == pytest.approx(math.log(4) / 2, abs=1e-9)


def test_out_flag_writes_file(bsc_file, tmp_path, capsys):
    out = tmp_path / "res.json"
    cli.run(["validate", "--pair", bsc_file, "--out", str(out)])
    capsys.readouterr()
    saved = json.loads(out.read_text())
    assert saved["command"] == "validate"
    assert saved["payload"]["valid"] is True


def test_exit_codes(bsc_file, tmp_path, capsys):
    ok = cli.main(["validate", "--pair", bsc_file])
    assert ok == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input_alphabet": ["0"], "output_alphabet": ["0"],
                               "W": [["2"]], "q": [["1"]]}))
    assert cli.main(["validate", "--pair", str(bad)]) == 2

    missing = str(tmp_path / "nope.json")
    assert cli.main(["validate", "--pair", missing]) == 2

    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps(IDENTITY_DOC))
    assert cli.main(["exponent", "--pair", str(ident)]) == 3
    capsys.readouterr()

    # a file that is not UTF-8 is malformed input, named by its path
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{bad")
    for argv in (["validate", "--pair", str(not_utf8)],
                 ["komlos", "--code", str(not_utf8), "--t", "2", "--target", "2"]):
        assert cli.main(argv) == 2, argv[0]
        assert capsys.readouterr().err.startswith(f"error: {not_utf8} is not UTF-8 text")

    # a header declaring more letters than memory holds: the book's tables
    # count the letters its words use
    wide = tmp_path / "wide_header.txt"
    wide.write_text("2 2 99999999999999999999\n0 1\n1 0\n")
    assert cli.main(["komlos", "--code", str(wide), "--t", "2", "--target", "2"]) == 0
    capsys.readouterr()


def test_symbol_outside_the_pair_alphabet_is_malformed_input(bsc_file, tmp_path, capsys):
    book = tmp_path / "wide.txt"
    book.write_text(zr.serialize_codebook(zr.Codebook(((0, 2, 1), (1, 1, 0)), 3)))
    code = ["--pair", bsc_file, "--code", str(book)]
    for argv in (["dmin"] + code, ["certificate"] + code + ["--t", "2", "--target", "2"],
                 ["exact-pe"] + code, ["simulate"] + code + ["--trials", "10"]):
        assert cli.main(argv) == 2, argv[0]
    capsys.readouterr()


def test_book_alphabet_other_than_the_pairs_is_accepted(tw_file, tmp_path, rng, capsys):
    """A book may declare fewer or more letters than the pair has, as long as
    its words use the pair's letters only; every book command reads it."""
    words = tuple(tuple(int(v) for v in rng.integers(0, 2, 16)) for _ in range(20))
    for declared in (2, 4):
        book, two = tmp_path / f"book{declared}.txt", tmp_path / f"two{declared}.txt"
        book.write_text(zr.serialize_codebook(zr.Codebook(words, declared)))
        two.write_text(zr.serialize_codebook(zr.Codebook(words[:2], declared)))
        pair = ["--pair", tw_file]
        for argv in (["dmin"] + pair + ["--code", str(book)],
                     ["certificate"] + pair + ["--code", str(book), "--t", "3", "--target", "5"],
                     ["exact-pe"] + pair + ["--code", str(two)],
                     ["simulate"] + pair + ["--code", str(book), "--trials", "10"]):
            assert cli.main(argv) == 0, (declared, argv[0])
    capsys.readouterr()


def test_decoders_run_on_a_metric_entry_below_the_float_range(code_file, tmp_path, capsys):
    """Row 0 of W and q is (1 - 10^-400, 10^-400): the entry 10^-400 rounds to
    0.0 as a float, and both decoders still score it."""
    big = 10**400
    rows = [[f"{big - 1}/{big}", f"1/{big}"], ["1/4", "3/4"]]
    pair = tmp_path / "underflow.json"
    pair.write_text(json.dumps({**BSC_DOC, "W": rows, "q": rows, "name": "underflow"}))
    code = ["--pair", str(pair), "--code", code_file]
    exact, simulate = ["exact-pe"] + code, ["simulate"] + code + ["--trials", "2000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv in (exact, simulate):
            assert cli.main(argv) == 0, argv[0]
        average = float(Fraction(cli.run(exact)["payload"]["average"]))
        lo, hi = cli.run(simulate)["payload"]["confidence_interval"]
    capsys.readouterr()
    assert lo <= average <= hi


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_seeded_commands_reject_a_bad_seed(bsc_file, code_file, capsys, seed):
    """Only the Monte Carlo commands take a seed; the exponent searches and
    the certificate are deterministic and reject the flag as unknown."""
    for argv in (["simulate", "--pair", bsc_file, "--code", code_file, "--trials", "10"],
                 ["empirical", "--pair", bsc_file, "--letters", "0,1", "--n", "2"]):
        with pytest.raises(SystemExit) as bad:
            cli.main(argv + ["--seed", seed])
        assert bad.value.code == 2, argv[0]
        assert "--seed" in capsys.readouterr().err
    for argv in (["exponent", "--pair", bsc_file],
                 ["certificate", "--pair", bsc_file, "--code", code_file, "--t", "2", "--target", "2"]):
        with pytest.raises(SystemExit) as unknown:
            cli.main(argv + ["--seed", "0"])
        assert unknown.value.code == 2, argv[0]
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_certificate_relaxes_unbalanced_pairs(tmp_path, tw_file, rng, capsys):
    words = tuple(tuple(int(v) for v in rng.integers(0, 3, 8)) for _ in range(8))
    path = tmp_path / "c3.txt"
    path.write_text(zr.serialize_codebook(zr.Codebook(words, 3)))
    res = cli.run(["certificate", "--pair", tw_file, "--code", str(path),
                   "--t", "2", "--target", "4"])
    capsys.readouterr()
    # an unbalanced pair is served through the relaxed kernel, and says so
    assert res["payload"]["balanced"] is False
    assert res["payload"]["kernel"] == "relaxed"
    assert res["payload"]["report"]["all_ok"] is True


def test_json_output_is_machine_readable(bsc_file, capsys):
    cli.main(["zero-error", "--pair", bsc_file])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["command"] == "zero-error"


def test_payloads_equal_the_asdict_route(bsc_file, tw_file, code_file, big_code_file,
                                         tmp_path, rng, monkeypatch, capsys):
    """``_plain`` reads dataclass fields in place; every subcommand's
    payload, on both pairs, equals the one built by ``dataclasses.asdict``
    first and then walked, kept here as the oracle."""
    csv_path = str(tmp_path / "mu.csv")
    ternary = []
    for m, n in ((2, 4), (10, 12)):
        ternary.append(tmp_path / f"ternary{m}.txt")
        words = tuple(tuple(int(v) for v in rng.integers(0, 3, n)) for _ in range(m))
        ternary[-1].write_text(zr.serialize_codebook(zr.Codebook(words, 3)))
    runs = [["komlos", "--code", big_code_file, "--t", "3", "--target", "4"]]
    for pair_file, small, big in ((bsc_file, code_file, big_code_file),
                                  (tw_file, str(ternary[0]), str(ternary[1]))):
        pair, code = ["--pair", pair_file], ["--code", small]
        runs += [
            ["validate", *pair], ["zero-error", *pair], ["balanced", *pair],
            ["exponent", *pair], ["gap", *pair], ["mu-curve", *pair, "--csv", csv_path],
            ["dmin", *code, *pair], ["exact-pe", *code, *pair],
            ["simulate", *code, *pair, "--trials", "50"],
            ["certificate", "--code", big, *pair, "--t", "3", "--target", "4"],
            ["empirical", *pair, "--letters", "0,1", "--n", "2"],
        ]
    assert {argv[0] for argv in runs} == set(
        cli._build_parser()._subparsers._group_actions[0].choices)
    fields_route = [json.dumps(cli.run(argv)["payload"]) for argv in runs]

    plain = cli._plain

    def asdict_route(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        return plain(value)

    monkeypatch.setattr(cli, "_plain", asdict_route)
    assert [json.dumps(cli.run(argv)["payload"]) for argv in runs] == fields_route
    capsys.readouterr()


def test_no_command_imports_numpy_ma(bsc_file, tw_file, code_file, big_code_file, tmp_path):
    """``numpy.ma`` costs milliseconds and memory on first import, and no route
    needs it: after exponent (balanced and unbalanced), dmin, komlos,
    certificate, exact-pe, simulate and empirical on the fixtures, a fresh
    process has not imported it."""
    big = ["--code", big_code_file, "--t", "3", "--target", "4"]
    commands = [["exponent", "--pair", bsc_file], ["exponent", "--pair", tw_file],
                ["dmin", "--code", big_code_file, "--pair", bsc_file], ["komlos", *big],
                ["certificate", *big, "--pair", bsc_file],
                ["exact-pe", "--code", code_file, "--pair", bsc_file],
                ["simulate", "--code", code_file, "--pair", bsc_file, "--trials", "50"],
                ["empirical", "--pair", bsc_file, "--letters", "0,1", "--n", "2"]]
    script = ("import sys\nfrom zerorate import cli\n"
              f"for argv in {commands!r}:\n"
              f"    cli.run(argv + ['--out', {str(tmp_path / 'out.json')!r}])\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# -- the last pair and codebook documents, kept per process -------------------------


@pytest.fixture
def parses(monkeypatch):
    """Empty both document caches and count ``cli.parse_pair`` and
    ``cli.parse_codebook`` calls, by kind, until the test ends."""
    calls = {"pair": 0, "code": 0}
    for kind, name in (("pair", "parse_pair"), ("code", "parse_codebook")):
        def counting(text, _kind=kind, _parse=getattr(cli, name)):
            calls[_kind] += 1
            return _parse(text)
        monkeypatch.setattr(cli, name, counting)
    cli._pair_document.cache_clear()
    cli._codebook_document.cache_clear()
    yield calls
    cli._pair_document.cache_clear()
    cli._codebook_document.cache_clear()


def exponent_job(pair_file, csv_path):
    """The commands an exponent-corpus job runs on one pair document."""
    pair = ["--pair", pair_file]
    return [["validate", *pair], ["zero-error", *pair], ["balanced", *pair],
            ["exponent", *pair], ["gap", *pair],
            ["mu-curve", *pair, "--csv", csv_path, "--points", "9", "--s-max", "4"]]


def book_job(pair_file, code_file):
    book = ["--code", code_file, "--t", "3", "--target", "4"]
    return [["komlos", *book], ["certificate", "--pair", pair_file, *book],
            ["dmin", "--pair", pair_file, "--code", code_file]]


def test_a_job_parses_its_pair_document_once(bsc_file, tmp_path, parses, capsys):
    for argv in exponent_job(bsc_file, str(tmp_path / "mu.csv")):
        cli.run(argv)
    capsys.readouterr()
    assert parses == {"pair": 1, "code": 0}


def test_a_rewritten_document_is_parsed_again(bsc_file, parses, capsys):
    """The key is the text read on each call, not the path."""
    before = cli.run(["validate", "--pair", bsc_file])
    Path(bsc_file).write_text(json.dumps(TW_DOC))
    after = cli.run(["validate", "--pair", bsc_file])
    capsys.readouterr()
    assert parses["pair"] == 2
    assert before["payload"] != after["payload"]
    assert after["payload"]["input_alphabet"] == ["0", "1", "2"]
    assert before["input_digest"] != after["input_digest"]


def test_an_invalid_document_fails_on_every_call(bsc_file, tmp_path, parses, capsys):
    """A document that fails validation is not kept, and does not evict the
    last good one of its kind."""
    bad_pair = tmp_path / "bad.json"
    bad_pair.write_text(json.dumps({**BSC_DOC, "W": [["1/2", "1/4"], ["1/4", "3/4"]]}))
    bad_code = tmp_path / "bad.txt"
    bad_code.write_text("0 1\n0 1 1\n")
    cli.run(["validate", "--pair", bsc_file])
    for _ in range(2):
        with pytest.raises(zr.ValidationError):
            cli.run(["validate", "--pair", str(bad_pair)])
        with pytest.raises(zr.ValidationError):
            cli.run(["komlos", "--code", str(bad_code), "--t", "2", "--target", "2"])
    cli.run(["validate", "--pair", bsc_file])
    capsys.readouterr()
    assert parses == {"pair": 3, "code": 2}


def test_pair_and_codebook_documents_are_kept_side_by_side(bsc_file, big_code_file, parses,
                                                           capsys):
    for argv in book_job(bsc_file, big_code_file):
        cli.run(argv)
    capsys.readouterr()
    assert parses == {"pair": 1, "code": 1}
    for cache in (cli._pair_document, cli._codebook_document):
        assert cache.cache_info().maxsize == 1


def test_kept_documents_give_the_fresh_payloads(bsc_file, tw_file, big_code_file, tmp_path,
                                                rng, parses, capsys):
    """Every command of an exponent job and of a book job, on a balanced and
    an unbalanced pair, returns the same payload (and mu-curve CSV), bit for
    bit, on the kept document as right after the caches are emptied."""
    words = tuple(tuple(int(v) for v in rng.integers(0, 3, 12)) for _ in range(10))
    ternary = tmp_path / "ternary.txt"
    ternary.write_text(zr.serialize_codebook(zr.Codebook(words, 3)))
    csv_path = tmp_path / "mu.csv"
    runs = []
    for pair_file, code_file in ((bsc_file, big_code_file), (tw_file, str(ternary))):
        runs += exponent_job(pair_file, str(csv_path)) + book_job(pair_file, code_file)

    def outputs(argv):
        payload = json.dumps(cli.run(argv)["payload"])
        return payload, csv_path.read_text() if argv[0] == "mu-curve" else None

    kept = [outputs(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._pair_document.cache_clear()
        cli._codebook_document.cache_clear()
        fresh.append(outputs(argv))
    capsys.readouterr()
    assert kept == fresh
    assert parses["pair"] == 2 + sum(1 for argv in runs if argv[0] != "komlos")


# -- the tables a book keeps, per book -----------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Count the tables books build (letter-pair counts, extraction tables, suprema
    batches) by name, and the clique searches of ``komlos_extract``, until the test ends."""
    calls = {"_pair_counts": 0, "_extractions": 0, "_book_sups": 0, "_clique": 0}
    for keeper in ("_kept", "_kept_for"):
        def counting(*args, _keep=getattr(codebook, keeper)):
            *head, build = args

            def build_counted(book):
                calls[head[1]] += 1
                return build(book)
            return _keep(*head, build_counted)
        monkeypatch.setattr(codebook, keeper, counting)
    clique = codebook._clique

    def searching(*args):
        calls["_clique"] += 1
        return clique(*args)
    monkeypatch.setattr(codebook, "_clique", searching)
    cli._codebook_document.cache_clear()
    yield calls
    cli._codebook_document.cache_clear()


def _book_of_24(tmp_path, rng, nx):
    words = tuple(tuple(int(v) for v in rng.integers(0, nx, 16)) for _ in range(24))
    path = tmp_path / f"book{nx}.txt"
    path.write_text(zr.serialize_codebook(zr.Codebook(words, nx)))
    return str(path)


def test_a_book_job_builds_each_book_table_once(bsc_file, tmp_path, rng, builds, capsys):
    """``komlos``, ``certificate`` and ``dmin`` on a balanced pair and a 24-word book
    count its letter pairs once, search its cliques in one extraction, and solve
    its suprema batch once; the subcode the certificate checks counts its own.
    Each payload equals the one of a fresh book, parsed again."""
    code_file = _book_of_24(tmp_path, rng, 2)
    kept = []
    for k, argv in enumerate(book_job(bsc_file, code_file)):
        kept.append(cli.run(argv)["payload"])
        if k == 0:
            searches = builds["_clique"]
            assert searches > 0
    assert builds == {"_pair_counts": 2, "_extractions": 1, "_book_sups": 1, "_clique": searches}
    fresh = []
    for argv in book_job(bsc_file, code_file):
        cli._codebook_document.cache_clear()
        fresh.append(cli.run(argv)["payload"])
    capsys.readouterr()
    assert json.dumps(kept) == json.dumps(fresh)


def test_an_unbalanced_pair_solves_the_relaxed_and_the_raw_batch(tw_file, tmp_path, rng, builds,
                                                                capsys):
    """On an unbalanced pair the certificate solves the book against a fresh
    ``RelaxedKernel`` and ``dmin`` against the raw kernel: two batches, each
    giving the payload of a fresh book."""
    code_file = _book_of_24(tmp_path, rng, 3)
    kept = [cli.run(argv)["payload"] for argv in book_job(tw_file, code_file)]
    assert builds["_book_sups"] == 2
    assert kept[1]["kernel"] == "relaxed"
    fresh = []
    for argv in book_job(tw_file, code_file):
        cli._codebook_document.cache_clear()
        fresh.append(cli.run(argv)["payload"])
    capsys.readouterr()
    assert json.dumps(kept) == json.dumps(fresh)
