"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics the harness
reports; that a tiny run of every workload prints every metric with its
unit, untraced and traced; that a corrupted reference and a raised
exception each show up as a failed job; that the same seed regenerates
byte-identical inputs; and that tracing wraps a function at every
module that imported it by name, then restores it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        check(listed == table, f"BENCHMARK.json {key} differs from the harness")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from the harness")


def tiny(name: str, trace: bool, refs=None) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_workload(name, seed=3, seconds=0.1, trace=trace, limit=1, refs=refs)
        run.report(name, result)
    return result, out.getvalue()


def test_every_metric_prints() -> None:
    for name in run.WORKLOADS:
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result, text = tiny(name, trace)
            check(result["correct"] and result["failed"] == 0, f"{name} trace={trace} failed")
            check(set(result["metrics"]) == set(table), f"{name} trace={trace}: metric set")
            for metric, (unit, _) in table.items():
                value = result["metrics"][metric]
                check(value["unit"] == unit and isinstance(value["value"], float),
                      f"{name}: {metric} lacks a numeric value with its unit")
                check(any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                          for line in text.splitlines()),
                      f"{name}: {metric} is not printed with its unit")
            if not trace:
                for metric, (unit, _, _) in run.COMMAND_METRICS.items():
                    check(f"\n{metric} = " in text, f"{name}: {metric} is not printed")


CORRUPTIONS = {
    "exponent-corpus": ("exponent", lambda p: p.__setitem__("value", p["value"] + 1e-3)),
    "codebook-distance": ("dmin-shared", lambda p: p.__setitem__("value", p["value"] * 1.01)),
    "decoder-lab": ("exact-pe", lambda p: p["per_message"].__setitem__(0, "1/3")),
}


def test_corrupted_reference_fails() -> None:
    for name, (label, corrupt) in CORRUPTIONS.items():
        refs = copy.deepcopy(run.load_refs(name))
        first = wl.POOLS[name]()[0].id
        corrupt(refs[first]["outputs"][label])
        result, _ = tiny(name, False, refs)
        check(result["failed"] >= 1 and not result["correct"],
              f"{name}: a corrupted {label} reference was not reported as a failed job")


class Raising:
    """Stands in for the CLI module and fails the way the library can."""

    def __init__(self, error):
        self.error = error

    def run(self, argv):
        raise self.error


def test_exceptions_fail_the_job() -> None:
    import zerorate
    item = wl.POOLS["exponent-corpus"]()[0]
    for error in (zerorate.BudgetExceededError("budget"), zerorate.PreconditionError("pre")):
        job = run.Job(Raising(error), item, {"pair": "unused", "csv": "unused"}, Path("."))
        check(job.check({"outputs": {}}, True) is not None,
              f"{type(error).__name__} was not reported as a failed job")


def test_inputs_repeat_byte_for_byte() -> None:
    for name, pool in wl.POOLS.items():
        refs = run.load_refs(name)
        with tempfile.TemporaryDirectory(dir=run.WORK) as one, \
                tempfile.TemporaryDirectory(dir=run.WORK) as two:
            first = run.materialize(pool(), Path(one))
            second = run.materialize(pool(), Path(two))
            for item in pool():
                for role, path in first[item.id].items():
                    digest = run.sha256(Path(path).read_text(encoding="utf-8"))
                    again = run.sha256(Path(second[item.id][role]).read_text(encoding="utf-8"))
                    check(digest == again, f"{item.id} {role} differs between generations")
                    check(digest == refs[item.id]["inputs"][role],
                          f"{item.id} {role} differs from the recorded input hash")


def test_tracer_patches_every_binding_site() -> None:
    import zerorate.cli
    import zerorate.codebook
    import zerorate.exponent
    original = zerorate.exponent.optimized_objective
    tracer = Tracer()
    tracer.install()
    try:
        check(zerorate.codebook.optimized_objective is not original,
              "codebook's imported optimized_objective is not wrapped")
        check(zerorate.exponent.optimized_objective is zerorate.codebook.optimized_objective,
              "defining and importing modules see different wrappers")
        check(zerorate.cli.zero_rate_exponent is zerorate.exponent.zero_rate_exponent,
              "cli's imported zero_rate_exponent is not wrapped")
    finally:
        tracer.uninstall()
    check(zerorate.codebook.optimized_objective is original, "uninstall did not restore")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    run.import_program()
    for test in (test_benchmark_json, test_tracer_patches_every_binding_site,
                 test_exceptions_fail_the_job, test_inputs_repeat_byte_for_byte,
                 test_every_metric_prints, test_corrupted_reference_fails):
        test()
        print(f"selftest: {test.__name__} ok", flush=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
