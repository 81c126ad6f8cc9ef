"""The demos print the bytes in ``tests/golden/demos/``.

Each demo runs as its own process, as a reader would run it, and its stdout
must equal the golden file byte for byte.  The files hold floats as printed
with numpy 2.4.6.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted((ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert [p.stem for p in goldens] == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        check=True,
        timeout=120,
    ).stdout
    assert out == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
