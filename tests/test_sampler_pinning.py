"""The plane and line samplers return the same vectors, bit for bit, as when
these digests were taken.

Reports echo the sampled witness planes, and the benchmark recounts consumed
planes by redrawing ``sample_real_planes`` with the same seed, so a change to
the draw order, the acceptance predicates or the rescaling of complex lines
must show here.  Each digest is the SHA-256 of the causal type tags and the
raw float64 bytes of every x and y, in order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from curvlab import (
    BilinearSpace,
    PlaneClass,
    sample_complex_lines,
    sample_real_planes,
    standard_complex_structure,
)

PINNED = Path(__file__).parent / "golden" / "samplers.json"
SIGNATURES = ((2, 6), (4, 4), (0, 8))
SEEDS = (0, 1, 2)
N = 12


def digest(planes, lines: bool) -> str:
    """lines tags the planes of the complex-line sampler, as the digests were
    first taken with a per-plane complex-line tag."""
    h = hashlib.sha256()
    for plane in planes:
        h.update(f"{plane.plane_class.value}/{lines};".encode())
        h.update(plane.x.tobytes())
        h.update(plane.y.tobytes())
    return h.hexdigest()


def sampled() -> dict[str, str]:
    """Digest of every realizable (sampler, signature, causal type, seed)."""
    out = {}
    for p, q in SIGNATURES:
        space = BilinearSpace(p, q)
        J = standard_complex_structure(space)
        for causal_type in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED):
            for seed in SEEDS:
                key = f"({p},{q})/{causal_type.value}/{seed}"
                try:
                    out[f"real/{key}"] = digest(sample_real_planes(space, causal_type, N, seed), False)
                except ValueError:
                    pass
                try:
                    out[f"complex/{key}"] = digest(sample_complex_lines(J, causal_type, N, seed), True)
                except ValueError:
                    pass
    return out


def test_sampler_output_is_pinned():
    # Keys: real planes of every causal type on (2,6) and (4,4), spacelike only
    # on (0,8); complex lines spacelike and timelike on (2,6) and (4,4),
    # spacelike only on (0,8); seeds 0-2 each.
    assert sampled() == json.loads(PINNED.read_text())
