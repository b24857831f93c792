"""Checks on the source itself: names the benchmark tracer wraps, the one
Q-maximizer (no name of the projected-gradient fallback or of the search
options left in the package, no method, options or seed parameter, and
the tail candidate one ``_q_max`` call in no loop), the Monte Carlo
commands as the only ones with a ``--seed``, the one float evaluator
of the kernel, the zero-error oracle that production code must not call,
the book-level distance functions that must not fall back to a per-pair
loop, the book's letter-pair counts as one float product (no ``einsum`` in
``codebook.py``), the decoders' integer keys, Monte Carlo's one tie draw per block
and its block loop that allocates no working array, the pair's
validation and direction builder, which divide no rationals, the CLI
commands, which load no document of their own, and the batched tilt
maximizations: ``s_cap`` and the certificate solve no curve one at a
time, the row-wise maximizer, the closed-form tails and the scalar
interior solve run only under ``_sup_rows``, ``sequence_sup`` and
``sup_sigma`` are one-row calls of it (``_sup_row``), and no second map
from directions to curves (``_curve_key``), sequence memo
(``_seq_cache``) or scalar word check (``_check_sequences``) is left in
the package.  The grid scan solves its best tilts as one stack (one
``_q_max`` call, in no loop), ``slogdet`` runs only once a batched solve
has refused a singular face, and the CLI turns dataclasses into payloads
without ``asdict``."""

import argparse
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


# Names of a projected-gradient fallback and of search options to seed it:
# the one exact Q-maximizer needs neither.
GONE = ("_multistart_pg", "_pg_ascent", "_project_rows", "_pg_starts", "_quad", "_Q_STARTS",
        "_PG_ITERATIONS", "_EXACT_MAX_NX", "_q_method", "q_method", "_faces", "SearchOptions")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _names(tree):
    """Every name, attribute, function or class name and constant in ``tree``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    return names | {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}


def test_one_q_maximizer():
    """``_q_max`` is the one exact route for every alphabet: none of the
    fallback's names is left in the package, no entry point takes a method,
    options or a seed, ``QResult`` carries no method, the simplex grid oracle
    lives in the tests, and ``_tail_candidate`` makes one ``_q_max`` call,
    outside any loop."""
    for path in sorted((ROOT / "src" / "zerorate").glob("*.py")):
        left = sorted(name for name in GONE if name in _names(ast.parse(path.read_text())))
        assert not left, f"{path.name} still names {left}"
    assert [f.name for f in dataclasses.fields(zr.QResult)] == ["value", "q"]
    tree = ast.parse((ROOT / "src" / "zerorate" / "exponent.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert "_simplex_grid" not in funcs
    for name, func in funcs.items():
        params = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        assert not params & {"method", "options", "opts", "seed"}, f"{name} takes {params}"
    parents = _parents(tree)
    calls = [n for n in ast.walk(funcs["_tail_candidate"])
             if isinstance(n, ast.Call) and ast.unparse(n.func) == "_q_max"]
    assert len(calls) == 1, f"_tail_candidate calls _q_max {len(calls)} times"
    assert not any(isinstance(a, LOOPS) for a in _ancestors(calls[0], parents)), \
        "_tail_candidate calls _q_max inside a loop"


def test_only_monte_carlo_commands_take_a_seed():
    """``simulate`` and ``empirical`` draw random numbers and declare
    ``--seed``; ``exponent`` and ``certificate`` are deterministic and do not."""
    from zerorate import cli

    commands = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    seeded = {name for name, parser in commands.items()
              if any("--seed" in a.option_strings for a in parser._actions)}
    assert seeded == {"simulate", "empirical"}


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


def test_pair_checks_and_direction_builder_divide_nothing():
    """``ChannelMetricPair.__post_init__`` and ``_build_direction`` read the
    pair's integer view: signs, row sums and the order of metric ratios
    come from integer products, so neither holds a true division ``/``."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "channel.py").read_text())
    pair_class = next(n for n in tree.body
                      if isinstance(n, ast.ClassDef) and n.name == "ChannelMetricPair")
    post_init = next(n for n in pair_class.body
                     if isinstance(n, ast.FunctionDef) and n.name == "__post_init__")
    builder = next(n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "_build_direction")
    for fn in (post_init, builder):
        divisions = [n.lineno for n in ast.walk(fn)
                     if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)]
        assert divisions == [], f"{fn.name} divides on lines {divisions}"


def test_book_distances_never_loop_over_word_pairs():
    """``d_min``, ``distance_matrix`` and ``dmin_certificate`` read one batch
    of sequence suprema, and they, ``komlos_extract`` and ``plotkin_identity``
    read one letter-pair count array (``_pair_counts``); ``pair_distance``,
    ``sequence_sup`` and ``joint_counts`` serve single word pairs."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "codebook.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("d_min", "distance_matrix", "dmin_certificate", "komlos_extract",
                 "plotkin_identity"):
        calls = [
            n.lineno for n in ast.walk(funcs[name])
            if isinstance(n, ast.Call) and ast.unparse(n.func).rsplit(".", 1)[-1]
            in ("pair_distance", "sequence_sup", "joint_counts")
        ]
        assert calls == [], f"{name} handles word pairs one at a time on lines {calls}"


def _loops_above(tree):
    """Map each node to the loops (``for``, ``while``, comprehensions) around it."""
    above = {}

    def visit(node, chain):
        above[node] = chain
        inner = chain + (node,) if isinstance(node, LOOPS) else chain
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, ())
    return above


def _is_product(node):
    """A matrix product, as the ``@`` operator or as a ``np.matmul`` call."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "np.matmul"


def test_book_letter_pairs_are_one_float_product():
    """``codebook.py`` calls no ``einsum``, and ``_pair_counts`` counts every
    word pair's letter pairs with exactly one matrix product."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "codebook.py").read_text())
    einsums = [n.lineno for n in ast.walk(tree)
               if isinstance(n, ast.Call) and ast.unparse(n.func).endswith("einsum")]
    assert einsums == [], f"codebook.py calls einsum on lines {einsums}"
    counts = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_pair_counts")
    assert sum(map(_is_product, ast.walk(counts))) == 1


def test_decoders_key_on_metric_counts():
    """Both decoders key outputs on ``_metric_counts`` value counts: no
    function they reach in ``decoder.py`` builds a ``Fraction`` in a loop,
    so a rational ratio or product can no longer serve as a key.
    ``monte_carlo_error`` draws its tie picks once per scored block, at
    the loop depth of the block's scoring product, never per trial."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "decoder.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    above = _loops_above(tree)

    def called(fn):
        return {ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}

    for name in ("exact_error_probabilities", "monte_carlo_error"):
        assert "_metric_counts" in called(funcs[name]), f"{name} does not key on _metric_counts"
        reached, todo = set(), [name]
        while todo:
            fn = todo.pop()
            reached.add(fn)
            todo.extend(c for c in called(funcs[fn]) if c in funcs and c not in reached)
        for fn in sorted(reached):
            in_loops = [
                n.lineno for n in ast.walk(funcs[fn])
                if isinstance(n, ast.Name) and n.id == "Fraction" and above[n]
            ]
            assert in_loops == [], f"{fn} (reached from {name}) builds Fractions in a loop: {in_loops}"

    mc = funcs["monte_carlo_error"]
    scoring = [n for n in ast.walk(mc) if _is_product(n)]
    draws = [
        n for n in ast.walk(mc)
        if isinstance(n, ast.Call) and ast.unparse(n.func).startswith("tie_rng.")
    ]
    assert scoring and draws
    for draw in draws:
        assert above[draw] == above[scoring[0]], f"tie_rng is drawn inside a loop on line {draw.lineno}"


def test_monte_carlo_blocks_allocate_no_working_arrays():
    """The block loop of ``monte_carlo_error`` (the loop around its scoring
    product) fills buffers allocated once per call: it makes no array with
    ``np.zeros``, ``np.empty``, ``np.ones`` or ``np.full`` and scatters no
    one-hot row with ``put_along_axis``."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "decoder.py").read_text())
    mc = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "monte_carlo_error")
    above = _loops_above(tree)
    scoring = [n for n in ast.walk(mc) if _is_product(n) and above[n]]
    assert scoring
    block = above[scoring[0]][-1]
    banned = {"zeros", "empty", "ones", "full", "zeros_like", "empty_like", "ones_like",
              "full_like", "put_along_axis"}
    made = [
        (n.lineno, ast.unparse(n.func)) for n in ast.walk(block)
        if isinstance(n, ast.Call) and ast.unparse(n.func).rsplit(".", 1)[-1] in banned
    ]
    assert made == [], f"the Monte Carlo block loop allocates working arrays: {made}"


def test_cli_commands_only_build_payloads():
    """``cli.run`` reads, hashes and parses the documents a subcommand's
    parser entry declares; no ``_cmd_*`` loads one itself."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "cli.py").read_text())
    commands = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_cmd_")]
    assert len(commands) == 12
    loaders = {"open", "_read_file", "parse_pair", "parse_codebook"}
    for fn in commands:
        called = {ast.unparse(n.func).rsplit(".", 1)[-1] for n in ast.walk(fn) if isinstance(n, ast.Call)}
        assert not called & loaders, f"{fn.name} calls {sorted(called & loaders)}"


def _callers(name):
    """``file:function`` of every package function that calls ``name``."""
    found = []
    for path in sorted((ROOT / "src" / "zerorate").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.Call) and ast.unparse(n.func).rsplit(".", 1)[-1] == name
                for n in ast.walk(fn)
            ):
                found.append(f"{path.name}:{fn.name}")
    return found


def test_tilt_maximizations_run_as_batches():
    """``s_cap`` solves its symmetric sums as rows of one ``_sup_rows`` batch,
    not through ``sup_sigma``; ``dmin_certificate`` evaluates its sequence
    kernels as one batch, not through ``mu_sequence``; the row-wise
    maximizer ``_argmax_concave_rows``, the closed-form tails and the scalar
    interior solve run only under ``_sup_rows``; and ``sequence_sup`` and
    ``sup_sigma`` are one-row batches (``_sup_row``), as ``_sequence`` is
    one row of ``_sequence_rows``."""
    assert "kernel.py:s_cap" in _callers("_sup_rows")
    assert "kernel.py:s_cap" not in _callers("sup_sigma")
    assert "codebook.py:dmin_certificate" in _callers("_sequence_rows")
    assert "codebook.py:dmin_certificate" not in _callers("mu_sequence")
    for name in ("_argmax_concave_rows", "_sup_weighted", "_closed_form"):
        assert _callers(name) == ["kernel.py:_sup_rows"], f"{name} runs outside _sup_rows"
    assert {"kernel.py:sequence_sup", "kernel.py:sup_sigma"} <= set(_callers("_sup_row"))
    assert "kernel.py:_sequence" in _callers("_sequence_rows")


# A second map from directions to curves, a memo of sequence suprema and the
# scalar word check: ``_merge`` is the one curve map and ``_words`` the one check.
SCALAR_ROUTE_GONE = ("_curve_key", "_seq_cache", "_check_sequences")


def test_one_route_per_word_pair_question():
    """No name of the scalar sequence route is left in the package."""
    for path in sorted((ROOT / "src" / "zerorate").glob("*.py")):
        left = sorted(set(SCALAR_ROUTE_GONE) & _names(ast.parse(path.read_text())))
        assert not left, f"{path.name} still names {left}"


def _parents(tree):
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _ancestors(node, parents):
    while node in parents:
        node = parents[node]
        yield node


def test_q_solves_run_as_stacks():
    """``_scan_s_grid`` makes one ``_q_max`` call, outside any loop, for
    all its tilts; every ``np.linalg.slogdet`` in ``exponent.py`` sits in
    an ``except np.linalg.LinAlgError`` handler, so singular faces are
    looked for only after a batched solve has met one."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "exponent.py").read_text())
    parents = _parents(tree)
    scan = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_scan_s_grid")
    calls = [n for n in ast.walk(scan)
             if isinstance(n, ast.Call) and ast.unparse(n.func) == "_q_max"]
    assert len(calls) == 1, f"_scan_s_grid calls _q_max {len(calls)} times"
    assert not any(isinstance(a, LOOPS) for a in _ancestors(calls[0], parents)), \
        "_scan_s_grid calls _q_max inside a loop"
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "np.linalg.slogdet":
            handlers = [a for a in _ancestors(n, parents) if isinstance(a, ast.ExceptHandler)]
            assert handlers and ast.unparse(handlers[0].type) == "np.linalg.LinAlgError", \
                f"slogdet outside a LinAlgError handler on line {n.lineno}"


def test_cli_builds_payloads_without_asdict():
    """``cli._plain`` walks dataclass fields in place; ``asdict`` would
    deep-copy every nested value before the walk."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "cli.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names}
    assert "asdict" not in imported
    assert not any(isinstance(n, ast.Attribute) and n.attr == "asdict" for n in ast.walk(tree))
