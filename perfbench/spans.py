"""Spans around calls into the package's public functions.

The tracer wraps functions by name at every binding site: a function
imported by name into another module (``codebook`` imports
``optimized_objective`` from ``exponent``, ``cli`` imports nearly
everything) is replaced there too, so no call path escapes.  Methods are
wrapped on their class, which covers subclasses that inherit them.

Spans (name, start, end, parent, job) live in flat lists in memory and
are written out once, as JSON, when the run ends.  Self time of a span
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, qualified name) of every traced function.  Span targets get
# timed spans; count targets are hot scalar helpers that only get a call
# counter, so tracing them stays cheap.
SPAN_TARGETS = (
    ("zerorate.cli", "run"),
    ("zerorate.channel", "parse_pair"),
    ("zerorate.channel", "support_sets"),
    ("zerorate.zero_error", "check_c0bar_zero"),
    ("zerorate.zero_error", "is_balanced"),
    ("zerorate.zero_error", "zero_error_report"),
    ("zerorate.kernel", "PairKernel.__init__"),
    ("zerorate.kernel", "PairKernel.mu_grid"),
    ("zerorate.kernel", "PairKernel.mu_matrix"),
    ("zerorate.kernel", "PairKernel.sigma_matrix"),
    ("zerorate.kernel", "PairKernel.sigma_prime_matrix"),
    ("zerorate.kernel", "PairKernel.sequence_sup"),
    ("zerorate.kernel", "write_mu_curve"),
    ("zerorate.exponent", "RelaxedKernel.__init__"),
    ("zerorate.exponent", "zero_rate_exponent"),
    ("zerorate.exponent", "expurgated_lower"),
    ("zerorate.exponent", "gap_bound"),
    ("zerorate.exponent", "maximize_over_Q"),
    ("zerorate.exponent", "optimized_objective"),
    ("zerorate.codebook", "parse_codebook"),
    ("zerorate.codebook", "d_min"),
    ("zerorate.codebook", "komlos_extract"),
    ("zerorate.codebook", "dmin_certificate"),
    ("zerorate.codebook", "plotkin_holds"),
    ("zerorate.codebook", "pe_lower_bound_from_dmin"),
    ("zerorate.decoder", "exact_error_probabilities"),
    ("zerorate.decoder", "monte_carlo_error"),
    ("zerorate.decoder", "empirical_exponent"),
)
COUNT_TARGETS = (
    ("zerorate.zero_error", "boundary_set_B"),
    ("zerorate.kernel", "PairKernel.mu"),
    ("zerorate.kernel", "PairKernel.sup_sigma"),
    ("zerorate.codebook", "pair_distance"),
)

# Top-level exponent searches; sigma evaluations are charged to the
# outermost one that encloses them.
SOLVES = ("exponent.zero_rate_exponent", "exponent.expurgated_lower", "exponent.optimized_objective")


def span_name(module: str, qualname: str) -> str:
    """``kernel.mu_grid`` for a method, ``kernel.PairKernel.init`` for a constructor."""
    short = module.rsplit(".", 1)[-1]
    if qualname.endswith(".__init__"):
        return f"{short}.{qualname[:-len('__init__')]}init"
    return f"{short}.{qualname.rsplit('.', 1)[-1]}"


def _resolve(module: str, qualname: str):
    owner = sys.modules[module]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@dataclass
class JobStats:
    """Counts the wrappers collect for one job, beyond plain spans."""

    kind: str
    # id(kernel) -> (kernel, set of letter-pair-count keys); holding the
    # kernel keeps its id unique until the job ends and the keys are folded.
    seq_keys: dict = field(default_factory=dict)
    seq_calls: int = 0
    seq_distinct: int = 0
    classes: int = 0
    trials: int = 0
    tie_mass: list = field(default_factory=list)

    def fold_keys(self) -> None:
        self.seq_distinct += sum(len(keys) for _, keys in self.seq_keys.values())
        self.seq_keys.clear()


class Tracer:
    """Install wrappers, record spans and counts, compute per-layer figures."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_job: list[int] = []
        self.calls: Counter = Counter()
        self.jobs: list[JobStats] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- job boundaries --------------------------------------------------------

    def begin_job(self, kind: str) -> None:
        self.jobs.append(JobStats(kind))

    def end_job(self) -> None:
        self.jobs[-1].fold_keys()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, qualname in SPAN_TARGETS:
            self._patch(module, qualname, self._span_wrapper)
        for module, qualname in COUNT_TARGETS:
            self._patch(module, qualname, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, qualname: str, make) -> None:
        owner, attr = _resolve(module, qualname)
        original = getattr(owner, attr)
        wrapper = make(span_name(module, qualname), original)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [(mod, key) for mod_name, mod in list(sys.modules.items())
                     if mod_name == "zerorate" or mod_name.startswith("zerorate.")
                     for key, value in list(vars(mod).items()) if value is original]
        for site, key in sites:
            self._patches.append((site, key, original))
            setattr(site, key, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _count_wrapper(self, name: str, func):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name: str, func):
        nid = self._name_id(name)
        calls, stack = self.calls, self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs = self.span_parent, self.span_job
        after = {
            "kernel.sequence_sup": self._after_sequence_sup,
            "decoder.exact_error_probabilities": self._after_exact,
            "decoder.monte_carlo_error": self._after_monte_carlo,
        }.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(len(self.jobs) - 1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counts taken at the call site -------------------------------------------

    def _after_sequence_sup(self, args, result) -> None:
        kernel, x1, x2 = args[:3]
        job = self.jobs[-1]
        entry = job.seq_keys.setdefault(id(kernel), (kernel, set()))
        entry[1].add(tuple(sorted(Counter(zip(x1, x2)).items())))
        job.seq_calls += 1

    def _after_exact(self, args, result) -> None:
        pair, code = args[:2]
        words = code.words if hasattr(code, "words") else code
        classes = 1
        for cnt in Counter(zip(words[0], words[1])).values():
            classes *= math.comb(cnt + pair.ny - 1, pair.ny - 1)
        self.jobs[-1].classes += classes

    def _after_monte_carlo(self, args, result) -> None:
        self.jobs[-1].trials += result.trials
        self.jobs[-1].tie_mass.append(result.tie_mass)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= self.span_end[i] - self.span_start[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-job averages of self time and calls, plus the derived ratios."""
        jobs = max(len(self.jobs), 1)
        self_s = self.self_times()
        by_name: Counter = Counter()
        for nid, value in zip(self.span_name, self_s):
            by_name[self.names[nid]] += value

        out: dict[str, float] = {}
        for name in sorted(set(self.calls) | set(by_name)):
            out[f"{name}.calls"] = self.calls[name] / jobs
            if name in self.name_ids:
                out[f"{name}.self_s"] = by_name[name] / jobs

        solve_ids = {self.name_ids[n] for n in SOLVES if n in self.name_ids}
        root = [-1] * len(self.span_name)
        for i, (nid, parent) in enumerate(zip(self.span_name, self.span_parent)):
            above = root[parent] if parent >= 0 else -1
            root[i] = i if (nid in solve_ids and above < 0) else above
        solves = sum(1 for i, r in enumerate(root) if r == i)
        sigma_id = self.name_ids.get("kernel.sigma_matrix")
        prime_id = self.name_ids.get("kernel.sigma_prime_matrix")
        sigma = sum(1 for nid, r in zip(self.span_name, root) if r >= 0 and nid == sigma_id)
        prime = sum(1 for nid, r in zip(self.span_name, root) if r >= 0 and nid == prime_id)
        out["exponent.sigma_evals_per_solve"] = sigma / solves if solves else 0.0
        out["exponent.sigma_prime_evals_per_solve"] = prime / solves if solves else 0.0

        exact_self = by_name["decoder.exact_error_probabilities"]
        classes = sum(j.classes for j in self.jobs)
        out["decoder.exact_error_probabilities.classes"] = classes / jobs
        out["decoder.exact_error_probabilities.classes_per_s"] = (
            classes / exact_self if exact_self > 0 else 0.0)

        mc_self = by_name["decoder.monte_carlo_error"]
        trials = sum(j.trials for j in self.jobs)
        ties = [t for j in self.jobs for t in j.tie_mass]
        out["decoder.monte_carlo_error.trials_per_s"] = trials / mc_self if mc_self > 0 else 0.0
        out["decoder.monte_carlo_error.tie_mass"] = sum(ties) / len(ties) if ties else 0.0

        out["kernel.sequence_sup.hit_ratio"] = _hit_ratio(self.jobs)
        for kind in sorted({j.kind for j in self.jobs}):
            out[f"kernel.sequence_sup.hit_ratio.{kind}"] = _hit_ratio(
                [j for j in self.jobs if j.kind == kind])
        return out

    def dump(self, path: str) -> None:
        """Write every span, as parallel columns, and the per-job counts."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "job"],
            "spans": {
                "name": self.span_name,
                "start": self.span_start,
                "end": self.span_end,
                "parent": self.span_parent,
                "job": self.span_job,
            },
            "jobs": [
                {"kind": j.kind, "sequence_sup_calls": j.seq_calls,
                 "sequence_sup_distinct_keys": j.seq_distinct, "classes": j.classes,
                 "trials": j.trials}
                for j in self.jobs
            ],
            "calls": dict(self.calls),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _hit_ratio(jobs) -> float:
    calls = sum(j.seq_calls for j in jobs)
    distinct = sum(j.seq_distinct for j in jobs)
    return 1.0 - distinct / calls if calls else 0.0
