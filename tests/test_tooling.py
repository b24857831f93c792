"""Checks on the source itself: names the benchmark tracer wraps, the one
Q-maximizer (no name of the projected-gradient fallback or of the search
options left in the package, no method, options or seed parameter, and
the tail candidate one ``_q_max`` call in no loop), the Monte Carlo
commands as the only ones with a ``--seed``, the one float evaluator
of the kernel, the zero-error oracle, whose name appears nowhere in the package,
the book-level distance functions that must not fall back to a per-pair
loop, the book's letter-pair counts as one float product (no ``einsum`` in
``codebook.py``), built, as the book's suprema batch is, only into the tables
the book keeps, the decoders' integer keys, Monte Carlo's one tie draw per block
and its block loop that allocates no working array, the pair's
validation and direction builder, which divide no rationals, the CLI
commands, which load no document of their own, ``cli._load``, which
parses through the kept last document of each kind, the kept kernel and
order signs (no ``PairKernel(`` in ``cli.py`` or ``exponent.py``, no
``_order(`` outside ``_orders``), and the batched tilt
maximizations: ``s_cap`` and the certificate solve no curve one at a
time, the row-wise maximizer, the closed-form tails and the scalar
interior solve run only under ``_sup_rows``, ``sequence_sup`` and
``sup_sigma`` are one-row calls of it (``_sup_row``), and no second map
from directions to curves (``_curve_key``), sequence memo
(``_seq_cache``) or scalar word check (``_check_sequences``) is left in
the package, and ``_checked_words`` is the one word check (no
``_integer_words`` or ``_check_symbols``), and ``_letter_pair`` the one
letter check of the book and decoder entry points.  ``komlos_extract``
makes one clique search, with no book-size switch and no
``_max_clique_exact`` left in the package.  The grid scan solves its best
tilts as one stack (one ``_q_max`` call, in no loop), ``slogdet`` runs
only once a batched solve has refused a singular face, and the CLI turns
dataclasses into payloads without ``asdict``."""

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
    """Every float kernel value and slope comes from ``kernel._tilted``, the
    only function of ``kernel.py`` with an exponential; the softmax over the
    exact direction data that the tilt-identity test uses as an oracle lives
    in ``tests/conftest.py``."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "kernel.py").read_text())

    def exp_calls(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and ast.unparse(n.func) in ("np.exp", "math.exp", "np.logaddexp", "np.expm1")
        ]

    allowed = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_tilted"]
    assert len(allowed) == 1
    inside = len(exp_calls(allowed[0]))
    assert inside >= 1
    assert len(exp_calls(tree)) == inside, "kernel.py evaluates an exponential outside _tilted"


# Oracles that live in ``tests/conftest.py`` and the aliases of ``PairKernel.direction``
# that were deleted: the tests compare the package against the oracles, which only
# means something while the package has no such code.
ORACLES_OUT_OF_THE_PACKAGE = (
    "extremal_ratios", "empty_support", "mu_prime_limit", "extreme_ratio", "classify_limit",
    "PLUS_INFINITY", "FINITE_LIMIT", "MINUS_INFINITY", "tilted_distribution",
    "type_class_probability", "_cell_counts_of", "conditional_types", "quantize_to_type",
)


def test_package_never_reads_the_extremal_ratios_oracle():
    """The extremal-ratio oracle recomputes the two sides of a pair from the
    matrices, and the other oracles of ``ORACLES_OUT_OF_THE_PACKAGE`` the limit
    class, the tilted law and the method-of-types quantities; none of their
    names, nor a deleted alias of ``PairKernel.direction``, appears in a file
    under ``src/``."""
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            text = path.read_text()
            named = [name for name in ORACLES_OUT_OF_THE_PACKAGE if name in text]
            assert not named, f"{path.name} names {named}"


def test_pair_tables_are_kept_not_rebuilt():
    """The commands and the exponent routes take a pair's raw kernel from
    ``_as_kernel``, which keeps it on the pair, so ``cli.py`` and
    ``exponent.py`` build no ``PairKernel(`` of their own; and the
    zero-error checks read the order signs the pair keeps, so only the
    ``_orders`` builder calls ``_order(``."""
    for name in ("cli.py", "exponent.py"):
        tree = ast.parse((ROOT / "src" / "zerorate" / name).read_text())
        builds = [n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and ast.unparse(n.func).rsplit(".", 1)[-1] == "PairKernel"]
        assert builds == [], f"{name} builds a PairKernel on lines {builds}"
    tree = ast.parse((ROOT / "src" / "zerorate" / "zero_error.py").read_text())
    builder = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_orders")
    inside = set(ast.walk(builder))
    orders = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
              and ast.unparse(n.func) == "_order" and n not in inside]
    assert orders == [], f"zero_error.py calls _order outside _orders on lines {orders}"
    assert any(isinstance(n, ast.Call) and ast.unparse(n.func) == "_order" for n in inside)


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


def test_book_tables_are_kept_not_rebuilt():
    """A book builds its letter-pair counts and its suprema batch only into the
    tables it keeps: ``_pair_counts``'s product and every ``_sup_rows`` call of
    ``codebook.py`` sit in a nested builder that is handed to ``_kept`` or
    ``_kept_for`` and called nowhere, and ``komlos_extract`` reads the
    extractions the book keeps."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "codebook.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    parents = _parents(tree)
    handed = {ast.unparse(n.args[-1]) for n in ast.walk(tree)
              if isinstance(n, ast.Call) and ast.unparse(n.func) in ("_kept", "_kept_for")}
    called = {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    products = [n for n in ast.walk(funcs["_pair_counts"]) if _is_product(n)]
    solves = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
              and ast.unparse(n.func).rsplit(".", 1)[-1] == "_sup_rows"]
    assert len(products) == 1 and solves
    for node in products + solves:
        builder = next(a for a in _ancestors(node, parents)
                       if isinstance(a, (ast.FunctionDef, ast.Lambda)))
        where = f"{ast.unparse(node)} on line {node.lineno}"
        assert isinstance(builder, ast.FunctionDef) and builder not in tree.body, \
            f"{where} is not in a nested builder"
        assert builder.name in handed and builder.name not in called, \
            f"{where} is reached other than through a kept table"
    extract = {ast.unparse(n.func) for n in ast.walk(funcs["komlos_extract"]) if isinstance(n, ast.Call)}
    assert "_kept" in extract


def test_decoders_key_on_metric_counts():
    """Both decoders key outputs on the value indices of the one metric
    table, ``_metric_table``: ``decoder.py`` holds no other metric view
    (no ``_metric_counts``, ``_metric_values`` or ``np.log``), and
    ``monte_carlo_error`` reads no ``pair.q``.  Monte Carlo scores a block
    from its step indicators, so no one-hot over (position, output) and no
    flat output index remain (no ``flat_onehot``, ``row_start``,
    ``letter_start``, ``value_index``, ``lmat`` or ``zmat``).  No function the decoders
    reach in ``decoder.py`` builds a ``Fraction`` in a loop, so a rational
    ratio or product can no longer serve as a key.  ``monte_carlo_error``
    draws its tie picks once per scored block, at the loop depth of the
    block's scoring product, never per trial."""
    source = (ROOT / "src" / "zerorate" / "decoder.py").read_text()
    tree = ast.parse(source)
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    above = _loops_above(tree)
    for banned in ("_metric_counts", "_metric_values", "np.log", "flat_onehot", "row_start",
                   "letter_start", "value_index", "lmat", "zmat"):
        assert banned not in source, f"decoder.py still uses {banned}"

    def called(fn):
        return {ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}

    q_reads = [n.lineno for n in ast.walk(funcs["monte_carlo_error"])
               if isinstance(n, ast.Attribute) and ast.unparse(n) == "pair.q"]
    assert q_reads == [], f"monte_carlo_error reads pair.q on lines {q_reads}"
    for name in ("exact_error_probabilities", "monte_carlo_error"):
        assert "_metric_table" in called(funcs[name]), f"{name} does not key on _metric_table"
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


def test_cli_load_reads_documents_through_the_caches():
    """``cli._load`` parses no document itself: it reads each through the
    kept last document of its kind, ``_pair_document`` or
    ``_codebook_document``."""
    tree = ast.parse((ROOT / "src" / "zerorate" / "cli.py").read_text())
    load = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_load")
    called = {ast.unparse(n.func) for n in ast.walk(load) if isinstance(n, ast.Call)}
    assert not called & {"parse_pair", "parse_codebook"}, f"_load calls {sorted(called)}"
    assert {"_pair_document", "_codebook_document"} <= called


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
    """``s_cap`` and ``_tail_candidate`` solve their symmetric sums as rows of
    one ``_sup_rows`` batch, not through ``sup_sigma``; ``dmin_certificate``
    evaluates its sequence kernels as one batch, not through ``mu_sequence``;
    the closed-form tails run only under ``_sup_rows``; and ``sequence_sup``
    and ``sup_sigma`` are one-row batches (``_sup_row``), as ``_sequence`` is
    one row of ``_sequence_rows``."""
    for caller in ("kernel.py:s_cap", "exponent.py:_tail_candidate"):
        assert caller in _callers("_sup_rows")
        assert caller not in _callers("sup_sigma")
    assert "codebook.py:dmin_certificate" in _callers("_sequence_rows")
    assert "codebook.py:dmin_certificate" not in _callers("mu_sequence")
    assert _callers("_closed_form") == ["kernel.py:_sup_rows"], "_closed_form runs outside _sup_rows"
    assert {"kernel.py:sequence_sup", "kernel.py:sup_sigma"} <= set(_callers("_sup_row"))
    assert "kernel.py:_sequence" in _callers("_sequence_rows")


# The scalar maximizer and its closures, which ``_argmax_concave_rows`` replaced.
SCALAR_MAXIMIZER_GONE = ("_argmax_concave", "_weighted", "_sup_weighted")


def test_one_tilt_maximizer():
    """``_argmax_concave_rows`` is the one tilt maximizer: no name of the scalar
    maximizer or its closures is left in the package, and the maximizer is
    called from exactly ``_sup_rows`` (every supremum) and ``_polish_tilt``."""
    for path in sorted((ROOT / "src" / "zerorate").glob("*.py")):
        left = sorted(set(SCALAR_MAXIMIZER_GONE) & _names(ast.parse(path.read_text())))
        assert not left, f"{path.name} still names {left}"
    assert _callers("_argmax_concave_rows") == ["exponent.py:_polish_tilt", "kernel.py:_sup_rows"]


# A second map from directions to curves, a memo of sequence suprema and the
# scalar route's own word check: ``_merge`` is the one curve map, and ``_words``
# reads the pair's words through ``_checked_words`` (test_one_word_check).
SCALAR_ROUTE_GONE = ("_curve_key", "_seq_cache", "_check_sequences")


def test_one_route_per_word_pair_question():
    """No name of the scalar sequence route is left in the package."""
    for path in sorted((ROOT / "src" / "zerorate").glob("*.py")):
        left = sorted(set(SCALAR_ROUTE_GONE) & _names(ast.parse(path.read_text())))
        assert not left, f"{path.name} still names {left}"


# The word checks that ``_checked_words`` replaced.
WORD_CHECKS_GONE = ("_integer_words", "_check_symbols")


def test_one_word_check():
    """``_checked_words`` is the one word check: the kernel's word pairs, ``joint_counts``,
    ``joint_type``, ``Codebook`` and both decoders call it, and no name of the checks
    it replaced is left in the package."""
    for path in sorted((ROOT / "src" / "zerorate").glob("*.py")):
        left = sorted(set(WORD_CHECKS_GONE) & _names(ast.parse(path.read_text())))
        assert not left, f"{path.name} still names {left}"
    readers = {"kernel.py:_words", "kernel.py:joint_counts", "codebook.py:joint_type",
               "codebook.py:__post_init__", "decoder.py:exact_error_probabilities",
               "decoder.py:monte_carlo_error"}
    assert readers <= set(_callers("_checked_words"))


def test_one_integer_check():
    """``_checked_int`` is the one check of an integer argument: every entry point
    that takes a count, size, index, blocklength or seed calls it, both subcode
    readers take their indices from ``_subcode_indices``, and no function of
    ``codebook.py`` converts the elements of an argument with ``int(``, the way
    subcode indices were once truncated."""
    routed = {"codebook.py:__post_init__", "codebook.py:_subcode_indices", "codebook.py:joint_type",
              "codebook.py:delta_closeness", "codebook.py:komlos_asymmetry_bound",
              "codebook.py:komlos_extract", "codebook.py:dmin_certificate",
              "decoder.py:type_counting_slack",
              "decoder.py:monte_carlo_error", "decoder.py:empirical_exponent",
              "exponent.py:geometric_s_grid"}
    missing = routed - set(_callers("_checked_int"))
    assert not missing, f"{sorted(missing)} do not call _checked_int"
    assert {"codebook.py:subcode", "codebook.py:dmin_certificate"} <= set(_callers("_subcode_indices"))
    truncations = []
    for fn in ast.walk(ast.parse((ROOT / "src" / "zerorate" / "codebook.py").read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = {arg.arg for arg in fn.args.args}
        elements = {t.id for c in ast.walk(fn) if isinstance(c, (ast.comprehension, ast.For))
                    and isinstance(c.iter, ast.Name) and c.iter.id in params
                    for t in ast.walk(c.target) if isinstance(t, ast.Name)}
        truncations += [f"{fn.name}: {ast.unparse(n)}" for n in ast.walk(fn) if isinstance(n, ast.Call)
                        and ast.unparse(n.func) == "int" and n.args
                        and isinstance(n.args[0], ast.Name) and n.args[0].id in elements]
    assert not truncations, f"codebook.py truncates argument elements: {truncations}"


def test_letter_entry_points_read_letters_through_one_check():
    """Every public function of ``codebook.py`` and ``decoder.py`` that takes letters
    ``a`` and ``b`` reads them through ``_letter_pair``; its only other comparison
    of a letter is ``a == b``."""
    seen = []
    for name in ("codebook.py", "decoder.py"):
        tree = ast.parse((ROOT / "src" / "zerorate" / name).read_text())
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_") \
                    or not {"a", "b"} <= {arg.arg for arg in fn.args.args}:
                continue
            seen.append(fn.name)
            called = {ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}
            assert "_letter_pair" in called, f"{name}:{fn.name} does not call _letter_pair"
            compares = [ast.unparse(n) for n in ast.walk(fn) if isinstance(n, ast.Compare)
                        and {"a", "b"} & {m.id for m in ast.walk(n) if isinstance(m, ast.Name)}]
            assert set(compares) <= {"a == b"}, f"{name}:{fn.name} checks letters by {compares}"
    assert {"plotkin_identity", "empirical_exponent"} <= set(seen)


def test_one_komlos_clique_search():
    """``komlos_extract`` searches each color class with one call, ``_clique``, and
    compares the book size with no constant; ``_max_clique_exact`` is gone."""
    for path in sorted((ROOT / "src" / "zerorate").glob("*.py")):
        assert "_max_clique_exact" not in _names(ast.parse(path.read_text())), path.name
    tree = ast.parse((ROOT / "src" / "zerorate" / "codebook.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "komlos_extract")
    searches = [ast.unparse(n.func) for n in ast.walk(fn)
                if isinstance(n, ast.Call) and "clique" in ast.unparse(n.func)]
    assert searches == ["_clique"], f"komlos_extract searches cliques by {searches}"
    sizes = {"code.size", "len(code.words)"} | {
        ast.unparse(t) for n in ast.walk(fn) if isinstance(n, ast.Assign)
        and ast.unparse(n.value) in ("code.size", "len(code.words)") for t in n.targets}
    for n in ast.walk(fn):
        if isinstance(n, ast.Compare):
            sides = [n.left, *n.comparators]
            for x, y in zip(sides, sides[1:]):
                pair = {ast.unparse(x), ast.unparse(y)}
                assert not (pair & sizes and isinstance(x if ast.unparse(y) in sizes else y, ast.Constant)), \
                    f"komlos_extract compares the book size with a constant: {ast.unparse(n)}"


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
