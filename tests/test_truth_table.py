"""The benchmark's truth table over many seeds, run through `curvlab run` in process.

perfbench/workloads.py holds the expected verdict of every config it writes,
with its mathematical reason.  For seeds 1-10 the first jordan_sweep sweep and
the first cli_reports round must give exactly those verdicts and pinned values.
Each jordan_sweep config must also give the same verdicts at `--samples 2` as
at its own 100 lines per type: generic lines share one Jordan form, so lines 3
to n change no verdict of these configs.  The module is only read: no bytecode
is written next to it.
"""

import json
import sys
from pathlib import Path

import pytest

from curvlab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = range(1, 11)


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads


def verdicts(item, report_path, *options):
    """{check: pass} of one run of item's config, after its goldens are checked."""
    code = main(["run", str(item.path), "--report", str(report_path), "--quiet", *options])
    checks = json.loads(report_path.read_text())["checks"]
    assert code in (0, 1), f"{item.key}: exit {code}"
    for check, goldens in item.goldens.items():
        problems = [p for golden in goldens if (p := golden(checks[check]))]
        assert not problems, f"{item.key}/{check}: {problems}"
    return {check: checks[check].get("pass") for check in item.expect}


@pytest.mark.parametrize("seed", SEEDS)
def test_first_round_gives_the_expected_verdicts(workloads, seed, tmp_path):
    report = tmp_path / "report.json"
    jordan = workloads.build("jordan_sweep", seed, tmp_path / "jordan")[:2]
    cli = workloads.build("cli_reports", seed, tmp_path / "cli")[:8]
    wrong, flips = [], []
    for chunks, sweep in ((jordan, True), (cli, False)):
        for item in (item for chunk in chunks for item in chunk.items):
            got = verdicts(item, report)
            wrong += [(item.key, c) for c, e in item.expect.items() if got[c] != e.passed]
            if sweep and verdicts(item, report, "--samples", "2") != got:
                flips.append(item.key)
    assert wrong == [] and flips == []
