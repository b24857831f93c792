"""Benchmark of the zerorate command-line toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exponent-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced and traced
    python3 perfbench/run.py --write-refs    # re-record the reference outputs

One workload runs in one process and one thread, as a closed loop with a
single client: each job is a fixed sequence of CLI subcommands, called
in-process through ``zerorate.cli.run([..., "--out", file])``, and the
next job starts when the previous one has returned.  The run makes whole
passes over the workload's pool, in an order drawn from ``--seed``,
for ``--seconds``, and at least one whole pass.  Every output is
compared with the reference recorded in ``refs/``; a job with a
mismatch or an exception counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` one pass runs each job
untraced and then traced (see ``spans.py``), and the object carries the
per-layer metrics.  The package is imported from ``src/`` of the
checkout; without it the script exits with status 1 and prints no result.
"""

from __future__ import annotations

import os

# One thread: pin the BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
WORK = ROOT / ".perfbench_run"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = tuple(wl.POOLS)
SETUP_REPEATS = 3
LIGHT = ("validate", "zero-error", "balanced", "gap", "komlos")

# Metrics bounded in BENCHMARK.json: (unit, better).  Every workload reports all.
END_TO_END = {
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_s": ("s", "lower"),
    "job_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# Per-command medians, printed by the workload that runs the command:
# (unit, scale from seconds, step labels).
COMMAND_METRICS = {
    "exponent_p50_s": ("s", 1.0, ("exponent",)),
    "light_p50_ms": ("ms", 1000.0, LIGHT),
    "certificate_p50_s": ("s", 1.0, ("certificate",)),
    "dmin_shared_p50_s": ("s", 1.0, ("dmin-shared",)),
    "dmin_distinct_p50_s": ("s", 1.0, ("dmin-distinct",)),
    "exact_pe_p50_s": ("s", 1.0, ("exact-pe",)),
    "simulate_tied_p50_s": ("s", 1.0, ("simulate-tied",)),
    "simulate_generic_p50_s": ("s", 1.0, ("simulate-generic",)),
}
# Per-layer metrics of the traced run, averaged per job: (unit, better).
PER_LAYER = {
    "cli.run.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "channel.parse_pair.calls": ("count", "lower"),
    "channel.parse_pair.self_s": ("s", "lower"),
    "channel.support_sets.calls": ("count", "lower"),
    "channel.support_sets.self_s": ("s", "lower"),
    "zero_error.check_c0bar_zero.self_s": ("s", "lower"),
    "zero_error.is_balanced.self_s": ("s", "lower"),
    "zero_error.boundary_set_B.calls": ("count", "lower"),
    "kernel.PairKernel.init.calls": ("count", "lower"),
    "kernel.PairKernel.init.self_s": ("s", "lower"),
    "kernel.mu_grid.calls": ("count", "lower"),
    "kernel.mu_grid.self_s": ("s", "lower"),
    "kernel.mu_matrix.calls": ("count", "lower"),
    "kernel.mu_matrix.self_s": ("s", "lower"),
    "kernel.sigma_matrix.calls": ("count", "lower"),
    "kernel.sigma_matrix.self_s": ("s", "lower"),
    "kernel.sigma_prime_matrix.calls": ("count", "lower"),
    "kernel.sigma_prime_matrix.self_s": ("s", "lower"),
    "kernel.sequence_sup.calls": ("count", "lower"),
    "kernel.sequence_sup.self_s": ("s", "lower"),
    "kernel.sequence_sup.hit_ratio": ("ratio", "higher"),
    "kernel.sequence_sup.hit_ratio.shared": ("ratio", "higher"),
    "kernel.sequence_sup.hit_ratio.distinct": ("ratio", "higher"),
    "kernel.sup_sigma.calls": ("count", "lower"),
    "kernel.mu.calls": ("count", "lower"),
    "exponent.zero_rate_exponent.self_s": ("s", "lower"),
    "exponent.expurgated_lower.calls": ("count", "lower"),
    "exponent.expurgated_lower.self_s": ("s", "lower"),
    "exponent.gap_bound.self_s": ("s", "lower"),
    "exponent.maximize_over_Q.calls": ("count", "lower"),
    "exponent.maximize_over_Q.self_s": ("s", "lower"),
    "exponent.optimized_objective.calls": ("count", "lower"),
    "exponent.optimized_objective.self_s": ("s", "lower"),
    "exponent.sigma_evals_per_solve": ("count", "lower"),
    "exponent.sigma_prime_evals_per_solve": ("count", "lower"),
    "codebook.d_min.calls": ("count", "lower"),
    "codebook.d_min.self_s": ("s", "lower"),
    "codebook.pair_distance.calls": ("count", "lower"),
    "codebook.komlos_extract.self_s": ("s", "lower"),
    "codebook.dmin_certificate.self_s": ("s", "lower"),
    "codebook.plotkin_holds.self_s": ("s", "lower"),
    "decoder.exact_error_probabilities.self_s": ("s", "lower"),
    "decoder.exact_error_probabilities.classes": ("count", "lower"),
    "decoder.exact_error_probabilities.classes_per_s": ("1/s", "higher"),
    "decoder.monte_carlo_error.self_s": ("s", "lower"),
    "decoder.monte_carlo_error.trials_per_s": ("1/s", "higher"),
    "decoder.monte_carlo_error.tie_mass": ("ratio", "lower"),
    "decoder.empirical_exponent.self_s": ("s", "lower"),
    "trace.job_p50_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Names the tracer uses for metrics listed above under another name.
TRACER_ALIASES = {"cli.self_s": "cli.run.self_s"}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def import_program():
    """Import the package from ``src/`` of this checkout; return (cli module, seconds)."""
    if not (SRC / "zerorate" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import zerorate
    import zerorate.cli as cli
    elapsed = time.perf_counter() - start
    if Path(zerorate.__file__).resolve().parent != SRC / "zerorate":
        raise SystemExit(f"perfbench: zerorate was imported from {zerorate.__file__}, not {SRC}")
    return cli, elapsed


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["items"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def materialize(items, folder: Path) -> dict[str, dict[str, str]]:
    """Write every document of every item; return item id -> role -> path."""
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for item in items:
        paths[item.id] = {}
        for role, suffix, text in item.docs:
            path = folder / f"{item.id}.{role}.{suffix}"
            path.write_text(text, encoding="utf-8")
            paths[item.id][role] = str(path)
    return paths


class Job:
    """One run of an item's command sequence, timed, then checked."""

    def __init__(self, cli, item, paths: dict[str, str], out_dir: Path):
        self.item = item
        self.step_s: dict[str, float] = {}
        self.error: str | None = None
        payloads = {}
        start = time.perf_counter()
        for step in item.steps:
            argv = [arg.format(**paths) for arg in step.argv]
            argv += ["--out", str(out_dir / f"{step.label}.json")]
            t0 = time.perf_counter()
            try:
                result = cli.run(argv)
            except Exception as exc:  # every failure is a failed job, never dropped
                self.error = f"{step.label}: {type(exc).__name__}: {exc}"
                break
            self.step_s[step.label] = time.perf_counter() - t0
            payloads[step.label] = result["payload"]
        self.wall_s = time.perf_counter() - start
        self.payloads = payloads
        self._csv = paths.get("csv")

    def check(self, ref: dict | None, input_ok: bool) -> str | None:
        """None when every output matches the reference, else the first reason."""
        if self.error is not None:
            return self.error
        if ref is None or not input_ok:
            return "inputs differ from the ones the references were recorded for"
        for step in self.item.steps:
            payload = json.loads(json.dumps(self.payloads[step.label]))
            rows = wl.read_csv(self._csv) if step.check == "mu-curve" else None
            reason = wl.check_step(step, payload, ref, rows)
            if reason is not None:
                return f"{step.label}: {reason}"
        return None


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its percentile."""
    ordered = sorted(values)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(cli) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "zerorate": cli.__version__,
    }


class Workload:
    """Set-up and the measured loop of one workload, in this process."""

    def __init__(self, name: str, seed: int, limit: int | None = None, refs: dict | None = None):
        self.name, self.seed = name, seed
        self.workdir = WORK / f"{name}-{os.getpid()}"
        self.out_dir = self.workdir / "out"
        self.refs = refs if refs is not None else load_refs(name)
        self.limit = limit
        self.failures = 0

    def setup(self) -> float:
        """Import, generate and write the inputs, run one untimed warm-up job;
        generation and warm-up are repeated and their median is taken."""
        self.cli, import_s = import_program()
        reps = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            items = wl.POOLS[self.name]()[: self.limit]
            paths = materialize(items, self.workdir / f"inputs{rep}")
            self.out_dir.mkdir(parents=True, exist_ok=True)
            Job(self.cli, items[0], paths[items[0].id], self.out_dir)
            reps.append(time.perf_counter() - start)
        self.items, self.paths = items, paths
        self.input_ok = {
            item.id: item.id in self.refs and all(
                sha256(text) == self.refs[item.id]["inputs"].get(role)
                for role, _, text in item.docs)
            for item in items
        }
        return import_s + median(reps)

    def run_job(self, item, tracer: Tracer | None = None) -> Job:
        if tracer is not None:
            tracer.begin_job(item.kind)
            tracer.install()
        try:
            job = Job(self.cli, item, self.paths[item.id], self.out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.end_job()
        reason = job.check(self.refs.get(item.id), self.input_ok[item.id])
        job.ok = reason is None
        if not job.ok:
            self.failures += 1
            if self.failures <= 5:
                log(f"perfbench: job {item.id} failed: {reason}")
        return job

    def measure(self, seconds: float) -> tuple[dict, dict, int, int]:
        """Jobs back to back for ``seconds``, finishing at least one whole pass.

        Each pass takes the pool in a fresh seeded order; a job's time is
        the median over its passes, so every job weighs the same in the
        statistics however many passes reached it."""
        per_item: dict[str, list[Job]] = {item.id: [] for item in self.items}
        attempted = pass_no = 0
        start = time.perf_counter()
        while pass_no == 0 or time.perf_counter() - start < seconds:
            for item in wl.pass_order(self.items, self.name, self.seed, pass_no):
                if pass_no > 0 and time.perf_counter() - start >= seconds:
                    break
                job = self.run_job(item)
                attempted += 1
                if job.ok:
                    per_item[item.id].append(job)
            pass_no += 1
        verified = sum(len(jobs) for jobs in per_item.values())
        job_s = [median([j.wall_s for j in jobs]) for jobs in per_item.values() if jobs]
        tail_s, tail_pct = tail(job_s) if job_s else (0.0, 0.0)
        metrics = {
            # Each pool item once, at its median time: a partial last pass
            # does not tilt the figure toward the items it happened to reach.
            "jobs_per_s": len(job_s) / sum(job_s) if job_s else 0.0,
            "job_p50_s": median(job_s),
            "job_tail_s": tail_s,
        }
        notes = {
            "passes": round(attempted / len(self.items), 2),
            "jobs": len(job_s),
            "job_tail_percentile": round(tail_pct, 1),
            "failed_ratio": (attempted - verified) / attempted,
        }
        for metric, (_, scale, labels) in COMMAND_METRICS.items():
            samples = [median([j.step_s[label] for j in jobs])
                       for jobs in per_item.values() if jobs
                       for label in labels if label in jobs[0].step_s]
            if samples:
                notes[metric] = median(samples) * scale
                notes[metric + ".samples"] = len(samples)
        return metrics, notes, attempted, attempted - verified

    def measure_traced(self) -> tuple[dict, dict, int, int]:
        """One pass; each job runs untraced, then traced, so the overhead is paired."""
        tracer = Tracer()
        plain, traced = [], []
        attempted = failed = 0
        for item in wl.pass_order(self.items, self.name, self.seed, 0):
            for target, trace in ((plain, None), (traced, tracer)):
                job = self.run_job(item, trace)
                attempted += 1
                if job.ok:
                    target.append(job.wall_s)
                else:
                    failed += 1
        figures = tracer.layer_metrics()
        metrics = {name: float(figures.get(TRACER_ALIASES.get(name, name), 0.0))
                   for name in PER_LAYER}
        metrics["trace.job_p50_s"] = median(traced)
        metrics["trace.overhead_s"] = median(traced) - median(plain)
        WORK.mkdir(exist_ok=True)
        tracer.dump(str(WORK / f"trace-{self.name}.json"))
        return metrics, {"jobs": len(traced)}, attempted, failed

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 limit: int | None = None, refs: dict | None = None) -> dict:
    """Set up and measure one workload; return the result object."""
    bench = Workload(name, seed, limit, refs)
    try:
        setup_s = bench.setup()
        if trace:
            metrics, notes, attempted, failed = bench.measure_traced()
            units = PER_LAYER
        else:
            metrics, notes, attempted, failed = bench.measure(seconds)
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = setup_s
            units = END_TO_END
        notes["environment"] = environment(bench.cli)
    finally:
        bench.close()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
        "notes": notes,
    }


def report(workload: str, result: dict) -> None:
    """Human-readable lines: every metric with its unit."""
    print(f"# workload {workload}: {result['attempted']} jobs attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    notes = result["notes"]
    if "failed_ratio" in notes:
        print(f"failed_ratio = {notes['failed_ratio']:.6g} ratio")
        print(f"# job_tail_s is the p{notes['job_tail_percentile']} of {notes['jobs']} "
              f"per-job medians over {notes['passes']} passes")
        for metric, (unit, _, _) in COMMAND_METRICS.items():
            if metric in notes:
                print(f"{metric} = {notes[metric]:.6g} {unit} "
                      f"(median of {notes[metric + '.samples']} per-job medians)")
            else:
                print(f"{metric} = n/a {unit} (not run by this workload)")
    print(f"# notes {json.dumps(notes, sort_keys=True)}")


# -- maintenance and all-workload modes ------------------------------------------------


def write_refs(names) -> None:
    """Run every job once and record its outputs as the references."""
    cli, _ = import_program()
    import zerorate
    for name in names:
        items = wl.POOLS[name]()
        folder = WORK / f"refs-{os.getpid()}"
        try:
            paths = materialize(items, folder)
            out_dir = folder / "out"
            out_dir.mkdir()
            refs = {}
            for item in items:
                job = Job(cli, item, paths[item.id], out_dir)
                if job.error is not None:
                    raise SystemExit(f"perfbench: {item.id} fails: {job.error}")
                entry = {
                    "inputs": {role: sha256(text) for role, _, text in item.docs},
                    "outputs": json.loads(json.dumps(job.payloads)),
                }
                if "mu-curve" in job.payloads:
                    entry["csv"] = wl.read_csv(paths[item.id]["csv"])
                if "exponent" in job.payloads:
                    pair = zerorate.parse_pair(item.docs[0][2])
                    entry["lower_route"] = zerorate.expurgated_lower(pair).value
                refs[item.id] = entry
                reason = job.check(entry, True)
                if reason is not None:
                    raise SystemExit(f"perfbench: {item.id} fails its own check: {reason}")
            REFS.mkdir(exist_ok=True)
            lines = [f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}"
                     for key in sorted(refs)]
            (REFS / f"{name}.json").write_text(
                '{"items": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
            log(f"perfbench: wrote {len(refs)} references for {name}")
        finally:
            shutil.rmtree(folder, ignore_errors=True)


def run_all(seed: int, seconds: float, save: str | None) -> None:
    """Each workload in a fresh process, untraced and traced; print a summary."""
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        summary["workloads"][name] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: {name} trace={trace} exited {proc.returncode}\n"
                                 f"{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            result["notes"] = json.loads(lines[-2][len("# notes "):])
            summary["workloads"][name]["traced" if trace else "untraced"] = result
    env = summary["workloads"][WORKLOADS[0]]["untraced"]["notes"]["environment"]
    env["cpu"] = _cpu_model()
    env["commit"] = _commit()
    summary["environment"] = env
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    if save:
        with open(save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the zerorate CLI.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="with --workload all: write the summary here")
    parser.add_argument("--write-refs", action="store_true", dest="write_refs",
                        help="record the reference outputs of every job and exit")
    args = parser.parse_args(argv)
    if args.write_refs:
        write_refs(WORKLOADS if args.workload == "all" else (args.workload,))
        return 0
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.save)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
