"""Print one sha256 per jordan_sweep, cli_reports and tensor_audit report of a checkout.

    python3 tools/report_digest.py CHECKOUT [SEEDS]

CHECKOUT is the root of a curvlab checkout: its src/ is the program and its
perfbench/workloads.py writes the configs.  SEEDS is a comma-separated list of
workload seeds, 1,2,3 by default.  Every distinct config that
perfbench.workloads.build makes for the three workloads is run through
curvlab.cli.main in this process, as `curvlab run CONFIG --report OUT --quiet`,
and gives one line:

    workload  seed  config  sha256  key

the digest of the run's exit code (or exception) and report bytes, or its
stderr for a run that wrote no report.  A refactor that keeps every report
byte-identical gives the same lines at both checkouts:

    python3 tools/report_digest.py PARENT > parent.txt
    python3 tools/report_digest.py . > change.txt
    diff parent.txt change.txt

The goldens are made with OpenBLAS's Haswell kernels, and OpenBLAS picks its
kernels when numpy loads, so OPENBLAS_CORETYPE=Haswell (and one thread, as in
the benchmark) is set before anything imports numpy.  The checkout is only
read: configs and reports go to a temporary directory, and no bytecode is
written.
"""

import os

os.environ["OPENBLAS_CORETYPE"] = "Haswell"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("jordan_sweep", "cli_reports", "tensor_audit")


def digests(checkout: Path, seeds: list[int]):
    """Yield (workload, seed, config name, sha256, key) for every distinct config
    of the three workloads at each seed, in the order that build makes them."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads
    from curvlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for workload in WORKLOADS:
            for seed in seeds:
                configs = Path(tmp) / f"{workload}-{seed}"
                chunks = workloads.build(workload, seed, configs)
                items = {id(item): item for chunk in chunks for item in chunk.items}.values()
                for item in items:
                    report.unlink(missing_ok=True)
                    stderr = io.StringIO()
                    try:
                        with contextlib.redirect_stderr(stderr):
                            outcome = f"exit {cli.main(['run', str(item.path), '--report', str(report), '--quiet'])}"
                    except Exception as exc:  # a raising run is an outcome to compare, too
                        outcome = f"{type(exc).__name__}: {exc}"
                    body = report.read_bytes() if report.exists() else stderr.getvalue().encode()
                    digest = hashlib.sha256(f"{outcome}\n".encode() + body).hexdigest()
                    yield workload, seed, item.path.name, digest, item.key


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seeds = [int(s) for s in argv[1].split(",")] if len(argv) == 2 else [1, 2, 3]
    for line in digests(Path(argv[0]).resolve(), seeds):
        print(*line, sep="\t", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
