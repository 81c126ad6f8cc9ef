"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload for its shortest run (one chunk per size class) in both
modes and checks that the result line is well formed, that its outputs are
correct, and that it prints exactly the metrics BENCHMARK.json names, each
with its unit.  Then checks the consumed-plane accounting against hand counts
on failing jordan_ip_real verdicts.  Exits 1 on any failure.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import curvlab.cli  # noqa: E402
from curvlab.jordan_ip import (  # noqa: E402
    OPERATOR_TOL,
    _real_plane_realizable,
    curvature_operator,
    sample_real_planes,
)
from curvlab.curvature import from_self_adjoint  # noqa: E402
from curvlab.pseudo_linalg import BilinearSpace, jordan_equivalent, jordan_invariants  # noqa: E402
from workloads import REAL_TYPES, WORKLOADS, _config, consumed_planes  # noqa: E402

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def check_result_lines() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{label}: outputs correct")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
                   and result["failed"] == 0, f"{label}: attempted counted, none failed")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == wanted[trace], f"{label}: prints every metric of BENCHMARK.json with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{label}: every value is a number")


def report_for(config: dict, directory: Path) -> dict:
    path, out = directory / "config.json", directory / "report.json"
    path.write_text(json.dumps(config))
    curvlab.cli.main(["run", str(path), "--report", str(out), "--quiet"])
    return json.loads(out.read_text())["checks"]["jordan_ip_real"]


def hand_count(config: dict) -> int:
    """The constancy loop of check_jordan_ip_real, spelled out: anchor plus
    planes compared up to and including the first mismatch, per causal type."""
    space = BilinearSpace(*config["signature"])
    tensor = from_self_adjoint(space, np.array(config["generators"]["phi"]["matrix"]))
    tol = max(config["tol"], OPERATOR_TOL)
    n, total = config["samples"], 0
    types = [t for t in REAL_TYPES if _real_plane_realizable(space, t)]
    for offset, causal_type in enumerate(types):
        planes = sample_real_planes(space, causal_type, n, config["seed"] + offset)
        anchor = jordan_invariants(curvature_operator(tensor, planes[0]), tol)
        used = n
        for idx, plane in enumerate(planes[1:], start=1):
            if not jordan_equivalent(anchor, jordan_invariants(curvature_operator(tensor, plane), tol), tol):
                used = idx + 1
                break
        total += used
    return total


def check_accounting() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        directory = Path(tmp)
        # phi = diag(1..8) on (4,4): sectional curvature varies from plane to plane,
        # so every causal type fails at its first comparison: anchor + 1 plane,
        # times spacelike, timelike and mixed, is 6 planes.
        diag = _config((4, 4), "none", {"phi": {"matrix": np.diag(np.arange(1.0, 9.0)).tolist()}},
                       [(1.0, "phi", "self_adjoint")], ["jordan_ip_real"], 100, 11)
        result = report_for(diag, directory)
        expect(result["pass"] is False and consumed_planes(diag, "jordan_ip_real", result) == 6,
               "R_diag(1..8) on (4,4) consumes 2 planes per causal type, 6 in all")
        # R_Id on (4,4) and (2,6): compare with the loop spelled out, whatever the verdict.
        for sig in ((4, 4), (2, 6)):
            identity = _config(sig, "none", {"phi": {"matrix": np.eye(8).tolist()}},
                               [(1.0, "phi", "self_adjoint")], ["jordan_ip_real"], 100, 5)
            result = report_for(identity, directory)
            counted, by_hand = consumed_planes(identity, "jordan_ip_real", result), hand_count(identity)
            expect(counted == by_hand, f"R_Id on {sig}: accounting {counted} == hand count {by_hand}")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_accounting()
    check_result_lines()
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
