"""Checks on the source itself: names the benchmark tracer wraps, search
knobs that something reads, the one float evaluator of the kernel, the
zero-error oracle that production code must not call, and the book-level
distance functions that must not fall back to a per-pair loop."""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import zerorate as zr

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_traced_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # its dataclasses look it up
    spec.loader.exec_module(spans)
    targets = spans.SPAN_TARGETS + spans.COUNT_TARGETS
    assert targets
    for module, qualname in targets:
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{module}.{qualname} is traced but not defined"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{qualname} is not callable"


def test_every_search_option_is_read():
    source = (ROOT / "src" / "zerorate" / "exponent.py").read_text()
    for f in dataclasses.fields(zr.SearchOptions):
        assert f"opts.{f.name}" in source, f"SearchOptions.{f.name} is never read"


def test_kernel_exponentials_stay_in_the_evaluator():
    """Every float kernel value and slope comes from ``kernel._tilted``; the
    only other exponential is ``tilted_distribution``, the softmax over the
    exact direction data that the tilt-identity test uses as an oracle."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "kernel.py").read_text())

    def exp_calls(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and ast.unparse(n.func) in ("np.exp", "math.exp", "np.logaddexp", "np.expm1")
        ]

    allowed = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name in ("_tilted", "tilted_distribution")
    ]
    assert len(allowed) == 2
    inside = sum(len(exp_calls(fn)) for fn in allowed)
    assert inside >= 2
    assert len(exp_calls(tree)) == inside, "kernel.py evaluates an exponential outside _tilted"


def test_package_never_reads_the_extremal_ratios_oracle():
    """``zero_error.extremal_ratios`` recomputes the two sides of a pair from
    the matrices; tests compare the table-based checks against it, which
    only means something while no package code uses it."""
    for path in sorted((ROOT / "src" / "zerorate").glob("*.py")):
        tree = ast.parse(path.read_text())
        uses = [
            n.lineno for n in ast.walk(tree)
            if (isinstance(n, ast.Name) and n.id == "extremal_ratios")
            or (isinstance(n, ast.Attribute) and n.attr == "extremal_ratios")
        ]
        assert uses == [], f"{path.name} reads extremal_ratios on lines {uses}"


def test_book_distances_never_loop_over_word_pairs():
    """``d_min``, ``distance_matrix`` and ``dmin_certificate`` read one batch
    of sequence suprema; the scalar ``pair_distance`` and ``sequence_sup``
    stay for single pairs and as the batch's test oracle."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "codebook.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("d_min", "distance_matrix", "dmin_certificate"):
        calls = [
            n.lineno for n in ast.walk(funcs[name])
            if isinstance(n, ast.Call)
            and ast.unparse(n.func).rsplit(".", 1)[-1] in ("pair_distance", "sequence_sup")
        ]
        assert calls == [], f"{name} solves word pairs one at a time on lines {calls}"
