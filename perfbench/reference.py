"""Fixed reference kernels that track the machine's momentary speed.

On a shared machine the speed of the same code drifts by 10-40% within
minutes as other tenants' load changes, in CPU time as much as in wall time,
which is more than a regression bound can absorb.  Each size class of each
workload has a reference kernel that loads the same resources as that class
but runs no curvlab code.  The reference is timed right after every config,
and the config's seconds are divided by how slowly the reference ran
against its nominal time.  Speed changes within seconds, so the correction
is made per config, not per run.  No change to curvlab can move a
reference.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Fastest reference times seen on the machine the bounds were set on
# (2 cores, numpy 2.4.6 on OpenBLAS, one BLAS thread).  They fix the scale
# only: rescaled rates read as rates on that machine when it is idle.
NOMINAL_S = {
    ("jordan_sweep", "small"): 0.0060,
    ("jordan_sweep", "large"): 0.0110,
    ("tensor_audit", "small"): 0.0095,
    ("tensor_audit", "large"): 0.0400,
    ("cli_reports", None): 0.105,
}
STARTUP_ARGV = [sys.executable, "-c", "import numpy"]


def _sampling(rng, signs: np.ndarray, accept: int) -> None:
    # Rejection sampling of timelike planes with tiny numpy operations, as in
    # sample_real_planes on (2,6).
    m = signs.size
    found = 0
    while found < accept:
        x, y = rng.standard_normal(m), rng.standard_normal(m)
        xx, xy, yy = float(x @ (signs * x)), float(x @ (signs * y)), float(y @ (signs * y))
        found += xx * yy - xy * xy > 0 and xx + yy < 0


def _fingerprints(matrices: list) -> None:
    # Small complex eigvals and SVDs of powers with a pairwise Python loop, as in
    # jordan_invariants.
    for a in matrices:
        evals = np.linalg.eigvals(a)
        power = a
        for _ in range(4):
            np.linalg.svd(power, compute_uv=False)
            power = power @ a
        sum(abs(evals[i] - evals[j]) < 1e-9 for i in range(evals.size) for j in range(i))


def _pairs(t: np.ndarray, j: np.ndarray, lines: int) -> None:
    # Per line: draw and normalise a vector, contract the tensor on the pair
    # and take the commutator with J, as in the almost_complex check.
    rng = np.random.default_rng(2)
    gram = np.eye(j.shape[0])
    for _ in range(lines):
        x = rng.standard_normal(j.shape[0])
        x = x / np.sqrt(float(x @ (gram.diagonal() * x)))
        op = gram @ np.einsum("a,b,abcd->cd", x, j @ x, t).T
        float(np.max(np.abs(j @ op - op @ j)))


def _kernels(workload: str, startup) -> dict:
    rng = np.random.default_rng(20020)

    def cmat(m):
        return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

    if workload == "jordan_sweep":
        signs = np.array([-1.0] * 2 + [1.0] * 6)
        m8, m16 = [cmat(8) for _ in range(8)], [cmat(16) for _ in range(8)]
        return {
            "small": lambda: (_sampling(np.random.default_rng(1), signs, 3), _fingerprints(m8 * 4)),
            "large": lambda: _fingerprints(m16 * 4),
        }
    if workload == "tensor_audit":
        t16, t32 = rng.standard_normal((16,) * 4), rng.standard_normal((32,) * 4)
        j16, j32 = rng.standard_normal((16, 16)), rng.standard_normal((32, 32))
        return {
            "small": lambda: _pairs(t16, j16, 150),
            "large": lambda: ([np.einsum("zbcd,za->abcd", t32, j32) for _ in range(2)],
                              _pairs(t32, j32, 10)),
        }
    return {None: lambda: startup(STARTUP_ARGV)}


class Reference:
    """Reference timings of one workload, one kernel per size class.

    cli_reports has one kernel for both classes: interpreter start-up plus
    ``import numpy``, the fixed cost of every report process, run by
    `startup` the way reports are spawned.
    """

    def __init__(self, workload: str, startup=None) -> None:
        self.workload = workload
        self.kernels = _kernels(workload, startup)
        self.slowdowns: list[float] = []  # every sample over its nominal time

    def sample(self, cls: str) -> float:
        """Time the class's kernel once; returns its time over nominal."""
        key = cls if cls in self.kernels else None
        start = perf_counter()
        self.kernels[key]()
        slowdown = (perf_counter() - start) / NOMINAL_S[(self.workload, key)]
        self.slowdowns.append(slowdown)
        return slowdown

    def slowdown(self) -> float:
        """Median over all samples: above 1 when the machine ran slower than nominal."""
        return statistics.median(self.slowdowns)


def startup_slowdown(env: dict) -> float:
    """One start-up reference timing over its nominal time."""
    start = perf_counter()
    subprocess.run(STARTUP_ARGV, env=env, check=True)
    return (perf_counter() - start) / NOMINAL_S[("cli_reports", None)]
