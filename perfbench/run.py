"""curvlab benchmark: drives `curvlab run` on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are jordan_sweep, tensor_audit and cli_reports (see
perfbench/DESIGN.md for why each exists and which layer it loads).  The seed
fixes every generated config; the program only sees those configs.

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
spends half the time on an untraced pass, then replays exactly the same
configs with spans around curvlab's public functions and prints the
per-layer metrics, including the tracing overhead between the two passes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `attempted` counts `curvlab run` invocations; `failed` counts those
that raised or wrote no report, or whose report carries a check error, except
where the error is the known defect the truth table names for that check.
`correct` is false when a pinned golden moves, when one (config, seed) gives
two different outputs, or when the harness cannot account for a verdict.
Known wrong verdicts, and the errors of the known degenerate-plane defect,
are counted in the verdict shares, not failed.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, here and in every child

import argparse
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import FINGERPRINT, MODULES, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
# Exactly what the `curvlab` console script runs.
CONSOLE_SCRIPT = "from curvlab.cli import entry; entry()"
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "work_per_s.small": "1/s",
    "work_per_s.large": "1/s",
    "peak_rss_mb": "MB",
}
SPAN_LAYERS = (
    "cli.main", "cli.run",
    "curvature.from_self_adjoint", "curvature.from_skew_adjoint", "curvature.combine",
    "curvature.check_symmetries", "curvature.check_J_invariance", "curvature.pullback",
    "curvature.check_gray_identity", "curvature.apply_pair",
    "jordan_ip.check_jordan_ip", "jordan_ip.check_jordan_ip_real", "jordan_ip.curvature_operator",
    "jordan_ip.sample_complex_lines", "jordan_ip.sample_real_planes",
    "jordan_ip.spectrum_of_JR", "jordan_ip.solve_constants",
    "pseudo_linalg.jordan_invariants", "pseudo_linalg.jordan_equivalent", "pseudo_linalg.numeric_rank",
    "complex_structures.check_admissible", "complex_structures.check_admissible_pair",
)
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPAN_LAYERS for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    "pseudo_linalg.svd_per_fingerprint": "count",
    "pseudo_linalg.eigvals_per_fingerprint": "count",
    "curvature.tensor_mb_computed": "MB",
    "jordan_ip.curvature_operator.raised": "count",
    "jordan_ip.sample_complex_lines.planes": "count",
    "jordan_ip.sample_real_planes.planes": "count",
    "jordan_ip.sample_real_planes.accept_ratio": "ratio",
    "cli.import_ms": "ms",
    "cli.report_bytes": "bytes",
    "cli.report_ms_p50": "ms",
    "cli.report_ms_tail": "ms",
    "cli.report_tail_pct": "%",
    **{f"{mod}.self_ms": "ms" for mod in MODULES},
    **{f"{mod}.self_share": "ratio" for mod in MODULES},
    "trace.wall_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
    "verdicts.wrong_share": "ratio",
    "verdicts.error_share": "ratio",
}


@dataclass
class ItemRun:
    """One `curvlab run` invocation as the harness saw it."""

    item: object
    seconds: float
    body: bytes | None  # the report, None when none was written
    error: str | None  # exception or traceback when the run raised
    exit_code: int | None
    rss_kb: int = 0
    spans_path: Path | None = None
    slowdown: float = 1.0

    @property
    def outcome(self) -> bytes:
        """What must repeat byte for byte: the report, else the error's last line."""
        if self.body is not None:
            return self.body
        lines = (self.error or f"exit {self.exit_code}").strip().splitlines()
        return lines[-1].encode()


@dataclass
class Verdicts:
    reports: int = 0  # curvlab run invocations
    failed: int = 0  # runs that raised or carry an error no known defect explains
    attempted: int = 0  # checks
    wrong: int = 0
    wrong_unexplained: int = 0  # wrong where the truth table names no known defect
    errors: int = 0
    problems: list[str] = field(default_factory=list)


class InProcess:
    """Calls curvlab.cli.main in this process, looked up at call time so a tracer sees it."""

    def __init__(self, workdir: Path) -> None:
        import curvlab.cli

        self.cli = curvlab.cli
        self.out = workdir / "report.json"

    def run(self, item, report_id: int) -> ItemRun:
        self.out.unlink(missing_ok=True)
        argv = ["run", str(item.path), "--report", str(self.out), "--quiet"]
        start = perf_counter()
        try:
            code, error = self.cli.main(argv), None
        except Exception as exc:  # a raising check is a counted outcome of the program
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        body = self.out.read_bytes() if self.out.exists() else None
        return ItemRun(item, seconds, body, error, code)


class Spawner:
    """Client of spawner.py: spawns and times report processes from a small interpreter."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=CHILD_ENV,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stderr: Path) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Processes:
    """Runs each report as its own process, one at a time, timed from spawn to exit."""

    def __init__(self, workdir: Path, spawner: Spawner, traced: bool) -> None:
        self.workdir = workdir
        self.spawner = spawner
        self.traced = traced
        self.out = workdir / "report.json"
        self.err = workdir / "stderr.txt"

    def run(self, item, report_id: int) -> ItemRun:
        self.out.unlink(missing_ok=True)
        args = ["run", str(item.path), "--report", str(self.out), "--quiet"]
        spans_path = None
        if self.traced:
            spans_path = self.workdir / f"spans{report_id:05d}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-c", CONSOLE_SCRIPT, *args]
        reply = self.spawner.run(argv, self.err)
        body = self.out.read_bytes() if self.out.exists() else None
        error = None
        if body is None:
            error = self.err.read_text(errors="replace").strip() or f"exit {reply['exit_code']}"
        return ItemRun(item, reply["seconds"], body, error, reply["exit_code"], reply["rss_kb"],
                       spans_path)


def measure(chunks, runner, seconds: float, tracer=None, sequence=None, reference=None):
    """Run chunks in order, cycling, until `seconds` have passed and every size
    class was measured at least once; or replay exactly `sequence`.  A
    reference, when given, is sampled after every config, for its class."""
    classes = {chunk.cls for chunk in chunks}
    seen: set[str] = set()
    done = []
    report_id = 0
    deadline = perf_counter() + seconds
    order = sequence if sequence is not None else itertools.cycle(range(len(chunks)))
    for idx in order:
        if sequence is None and perf_counter() >= deadline and seen >= classes:
            break
        runs = []
        for item in chunks[idx].items:
            if tracer is not None:
                tracer.report = report_id
            runs.append(runner.run(item, report_id))
            report_id += 1
            if reference is not None:
                runs[-1].slowdown = reference.sample(item.cls)
        done.append((idx, runs))
        seen.add(chunks[idx].cls)
    return done


def evaluate(done, outcomes: dict) -> Verdicts:
    """Score every run against the truth table and the hard output checks.

    `outcomes` maps each config to its first outcome, across calls, so any
    repeat of a (config, seed) must match it byte for byte.  A run that
    raised, or a check error, is failed unless it is the known defect the
    truth table names for that check."""
    from workloads import known_error

    verdicts = Verdicts()
    for _, runs in done:
        for run in runs:
            item = run.item
            checks = item.config["checks"]
            verdicts.reports += 1
            verdicts.attempted += len(checks)
            first = outcomes.setdefault(item.key, run.outcome)
            if first != run.outcome:
                verdicts.problems.append(f"{item.key}: two runs of one config and seed differ")
            if run.exit_code == 2:
                verdicts.problems.append(f"{item.key}: config rejected: {run.error}")
                verdicts.failed += 1
                continue
            if run.body is None:
                verdicts.errors += len(checks)
                verdicts.failed += not known_error([item.expect[c] for c in checks], run.error)
                continue
            report = json.loads(run.body)
            unexplained_error = False
            for check in checks:
                result = report["checks"][check]
                expect = item.expect[check]
                if "error" in result:
                    verdicts.errors += 1
                    unexplained_error |= not known_error([expect], result["error"])
                    continue
                if result["pass"] != expect.passed:
                    verdicts.wrong += 1
                    verdicts.wrong_unexplained += expect.defect is None
                for golden in item.goldens.get(check, ()):
                    problem = golden(result)
                    if problem:
                        verdicts.problems.append(f"{item.key}/{check}: {problem}")
            verdicts.failed += unexplained_error
            if run.exit_code != (0 if report["all_pass"] else 1):
                verdicts.problems.append(f"{item.key}: exit code {run.exit_code} disagrees with all_pass")
    return verdicts


class Units:
    """Useful work in one run: consumed planes (jordan_sweep) or one fully checked config."""

    def __init__(self, workload: str) -> None:
        self.jordan = workload == "jordan_sweep"
        self.problems: list[str] = []
        self.cache: dict[str, int] = {}

    def __call__(self, run: ItemRun) -> int:
        if run.body is None:
            return 0
        key = run.item.key
        if key not in self.cache:
            self.cache[key] = self._count(run)
        return self.cache[key]

    def _count(self, run: ItemRun) -> int:
        from workloads import AccountingError, consumed_planes

        checks = json.loads(run.body)["checks"]
        if any("error" in result for result in checks.values()):
            return 0
        if not self.jordan:
            return 1
        (check, result), = checks.items()
        try:
            return consumed_planes(run.item.config, check, result)
        except AccountingError as exc:
            self.problems.append(f"{run.item.key}: {exc}")
            return 0


def class_rate(chunks, done, units: Units, cls: str) -> float:
    """Work per second of one size class at the reference's nominal machine speed.

    Each config's seconds are divided by the machine slowdown the reference
    measured right after it; then total work over total rescaled time, over
    the chunks that did work.  A raised verdict inside a chunk adds its time
    and no work; a chunk with no work at all (a single config that raised)
    is left out, and shows in the error share instead.
    """
    work = seconds = 0.0
    for idx, runs in done:
        chunk_work = sum(units(run) for run in runs)
        if chunks[idx].cls == cls and chunk_work:
            work += chunk_work
            seconds += sum(run.seconds / run.slowdown for run in runs)
    return work / seconds if seconds else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of: imports done and every config
    generated, each rescaled by a start-up reference timed right after it."""
    from reference import startup_slowdown

    times = []
    for n in range(SETUP_PROBES):
        probe = workdir / f"setup{n}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only", str(probe)]
        start = perf_counter()
        subprocess.run(argv, env=CHILD_ENV, check=True, stdout=subprocess.DEVNULL)
        seconds = perf_counter() - start
        times.append(seconds / startup_slowdown(CHILD_ENV))
        shutil.rmtree(probe)
    return statistics.median(times)


def layer_metrics(workload, traced, untraced, tracer, import_ms, speed) -> dict[str, float]:
    """Per-layer numbers from the traced pass, overhead against the untraced one;
    `speed` is how much faster the machine ran during the traced pass."""
    per: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    counts: Counter = Counter()
    spans = 0
    runs = [run for _, chunk_runs in traced for run in chunk_runs]
    if tracer is not None:
        documents = [{"spans": tracer.spans, "counts": tracer.counts}]
    else:
        documents = []
        for run in runs:
            with open(run.spans_path, encoding="utf-8") as fh:
                documents.append(json.load(fh))
        import_ms = sum(doc["import_ms"] for doc in documents)
    for doc in documents:
        for name, (calls, self_s) in self_times(doc["spans"]).items():
            per[name][0] += calls
            per[name][1] += self_s
        counts.update(doc["counts"])
        spans += len(doc["spans"])

    wall = sum(run.seconds for run in runs)
    base = sum(run.seconds for _, chunk_runs in untraced for run in chunk_runs)
    fingerprints = per[FINGERPRINT][0]
    classified = counts["pseudo_linalg.classify_plane.calls"]
    report_ms = [run.seconds * 1e3 for _, chunk_runs in untraced for run in chunk_runs]
    tail_pct, tail_ms = tail(report_ms)
    bodies = [len(run.body) for run in runs if run.body is not None]
    metrics: dict[str, float] = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}.calls"] = per[name][0]
        metrics[f"{name}.self_ms"] = per[name][1] * 1e3
    metrics.update({
        "pseudo_linalg.svd_per_fingerprint":
            counts[f"{FINGERPRINT}.svd"] / fingerprints if fingerprints else 0.0,
        "pseudo_linalg.eigvals_per_fingerprint":
            counts[f"{FINGERPRINT}.eigvals"] / fingerprints if fingerprints else 0.0,
        "curvature.tensor_mb_computed": counts["curvature.tensor_bytes"] / 1e6,
        "jordan_ip.curvature_operator.raised": counts["jordan_ip.curvature_operator.raised"],
        "jordan_ip.sample_complex_lines.planes": counts["jordan_ip.sample_complex_lines.planes"],
        "jordan_ip.sample_real_planes.planes": counts["jordan_ip.sample_real_planes.planes"],
        "jordan_ip.sample_real_planes.accept_ratio":
            counts["jordan_ip.sample_real_planes.planes"] / classified if classified else 0.0,
        "cli.import_ms": import_ms,
        "cli.report_bytes": statistics.fmean(bodies) if bodies else 0.0,
        "cli.report_ms_p50": statistics.median(report_ms),
        "cli.report_ms_tail": tail_ms,
        "cli.report_tail_pct": tail_pct,
    })
    for mod in MODULES:
        self_ms = sum(v[1] for name, v in per.items() if name.startswith(mod + ".")) * 1e3
        metrics[f"{mod}.self_ms"] = self_ms
        metrics[f"{mod}.self_share"] = self_ms / (wall * 1e3) if wall else 0.0
    metrics["trace.wall_ms"] = wall * 1e3
    metrics["trace.overhead_share"] = wall * speed / base - 1.0 if base else 0.0
    metrics["trace.spans"] = spans
    out = SCRATCH / "traces"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(documents, fh)
    return metrics


def end_to_end(args, chunks, workdir: Path, runner, reference, units: Units, outcomes: dict):
    """Untraced run: the rates, set-up time and peak RSS of the workload."""
    setup_s = setup_seconds(args.workload, args.seed, workdir)
    done = measure(chunks, runner, args.seconds, reference=reference)
    if isinstance(runner, InProcess):
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(run.rss_kb for _, runs in done for run in runs)
    verdicts = evaluate(done, outcomes)
    # Byte-identity on a second, untimed run of the first chunk of each class.
    first = {}
    for idx, _ in done:
        first.setdefault(chunks[idx].cls, idx)
    verdicts.problems += evaluate(measure(chunks, runner, 0, sequence=list(first.values())),
                                  outcomes).problems
    report_ms = [run.seconds * 1e3 for _, runs in done for run in runs]
    pct, tail_ms = tail(report_ms)
    print(f"# chunks measured {len(done)}; machine slowdown {reference.slowdown():.3f}; "
          f"report_ms p50={statistics.median(report_ms):.2f} p{pct:.0f}={tail_ms:.2f} "
          f"(n={len(report_ms)})")
    metrics = {"setup_s": setup_s, "peak_rss_mb": rss_kb / 1024}
    for cls in ("small", "large"):
        metrics[f"work_per_s.{cls}"] = class_rate(chunks, done, units, cls)
    return done, verdicts, metrics


def per_layer(args, chunks, runner, traced_runner, references, outcomes: dict, import_ms: float):
    """Untraced pass for half the time, then the same configs traced.

    Both passes sample a machine-speed reference, so that the overhead
    compares the passes at equal machine speed."""
    untraced = measure(chunks, runner, args.seconds / 2, reference=references[0])
    verdicts = evaluate(untraced, outcomes)
    sequence = [idx for idx, _ in untraced]
    tracer = None
    if isinstance(traced_runner, InProcess):
        tracer = Tracer()
        tracer.install()
    try:
        traced = measure(chunks, traced_runner, 0, tracer=tracer, sequence=sequence,
                         reference=references[1])
    finally:
        if tracer is not None:
            tracer.uninstall()
    verdicts.problems += evaluate(traced, outcomes).problems
    speed = references[0].slowdown() / references[1].slowdown()
    metrics = layer_metrics(args.workload, traced, untraced, tracer, import_ms, speed)
    metrics["verdicts.wrong_share"] = verdicts.wrong / verdicts.attempted
    metrics["verdicts.error_share"] = verdicts.errors / verdicts.attempted
    return untraced, verdicts, metrics


def run_benchmark(args, workdir: Path) -> dict:
    import_start = perf_counter()
    import curvlab.cli  # noqa: F401  (a fresh import: the in-process workloads pay it once)

    import_ms = (perf_counter() - import_start) * 1e3
    import workloads
    from reference import Reference

    chunks = workloads.build(args.workload, args.seed, workdir / "configs")
    outcomes: dict[str, bytes] = {}
    units = Units(args.workload)
    spawner = Spawner() if args.workload == "cli_reports" else None
    try:
        if spawner is None:
            runner = traced_runner = InProcess(workdir)
            startup = None
        else:
            runner = Processes(workdir, spawner, traced=False)
            traced_runner = Processes(workdir, spawner, traced=True)

            def startup(argv):
                return spawner.run(argv, workdir / "reference.txt")

        if args.trace:
            references = [Reference(args.workload, startup) for _ in range(2)]
            done, verdicts, metrics = per_layer(args, chunks, runner, traced_runner, references,
                                                outcomes, import_ms)
        else:
            done, verdicts, metrics = end_to_end(args, chunks, workdir, runner,
                                                 Reference(args.workload, startup), units, outcomes)
    finally:
        if spawner is not None:
            spawner.close()

    work = sum(units(run) for _, runs in done for run in runs)
    problems = verdicts.problems + units.problems
    print(f"# blas OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
          f"nproc={len(os.sched_getaffinity(0))}; one curvlab run at a time")
    print(f"# reports {verdicts.reports}, failed {verdicts.failed}; "
          f"verdicts attempted={verdicts.attempted} wrong={verdicts.wrong} "
          f"(not a known defect: {verdicts.wrong_unexplained}) errors={verdicts.errors} "
          f"wrong_verdict_share={verdicts.wrong / verdicts.attempted:.4f} "
          f"error_share={verdicts.errors / verdicts.attempted:.4f} work_units={work}")
    for problem in problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    units_of = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": not problems,
        "attempted": verdicts.reports,
        "failed": verdicts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("jordan_sweep", "tensor_audit", "cli_reports"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", type=Path, default=None,
                        help=argparse.SUPPRESS)  # one set-up probe: import, generate configs, exit
    args = parser.parse_args(argv)

    if not (SRC / "curvlab" / "cli.py").is_file():
        print(f"curvlab sources not found under {SRC}; run from the root of a curvlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only is not None:
        import curvlab.cli  # noqa: F401
        import workloads

        workloads.build(args.workload, args.seed, args.setup_only)
        return 0

    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
