"""Seeded workloads, their truth table and the hard output checks.

The program under test only ever sees the JSON configs written by
:func:`build`.  Expected verdicts, the mathematical reason for each, and the
pinned goldens stay on this side, so a report is judged against mathematics
rather than against what the program said last time.

Known defects (ROADMAP, "Baseline measured at this re-anchor") are kept in
the workloads on purpose: the expected verdict is the mathematical one, and a
wrong or raising check is counted, not hidden.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from curvlab.jordan_ip import sample_real_planes
from curvlab.pseudo_linalg import BilinearSpace, PlaneClass

WORKLOADS = ("jordan_sweep", "tensor_audit", "cli_reports")

TOL = 1e-8
JORDAN_SAMPLES = 100  # per causal type, as in ROADMAP open item 1
AUDIT_LINES = 1000
CLI_SAMPLES = 10

# How many distinct seeded rounds one run can draw from before it cycles.
# A run that cycles repeats (config, seed) pairs, which the byte-identity
# check then covers.
JORDAN_SWEEPS = 16
AUDIT_ROUNDS = 4
CLI_ROUNDS = 4

DEFECT_FINGERPRINT = (
    "ROADMAP defect: jordan_invariants cuts ranks of explicit powers at "
    "tol*sigma_max^k, so planes near the null cone give false 'not constant'"
)
DEFECT_DEGENERATE = (
    "ROADMAP defect: the samplers accept lines that curvature_operator then "
    "rejects, so indefinite signatures can raise 'degenerate plane'"
)


@dataclass(frozen=True)
class Expect:
    """Expected `pass` of one check, with its one-line mathematical reason."""

    passed: bool
    reason: str
    defect: str | None = None


def known_error(expects, error: str) -> bool:
    """True when `error` is the known degenerate-plane defect and the truth
    table names that defect for one of these checks."""
    return "degenerate plane" in error and any(
        e.defect is not None and DEFECT_DEGENERATE in e.defect for e in expects)


Golden = Callable[[dict], "str | None"]


@dataclass
class Item:
    """One `curvlab run` invocation: a config file plus what its report must say."""

    key: str
    cls: str  # "small" or "large": the size class its time is rated under
    config: dict
    expect: dict[str, Expect]
    goldens: dict[str, list[Golden]] = field(default_factory=dict)
    path: Path | None = None


@dataclass
class Chunk:
    """The unit a rate is measured over: its items run back to back."""

    cls: str
    items: list[Item]


# --- configs -----------------------------------------------------------------

QUAT_GENERATORS = {
    "id": {"builtin": "identity"},
    "i": {"builtin": "quat_i"},
    "j": {"builtin": "quat_j"},
    "k": {"builtin": "quat_k"},
}
QUAT_TERMS = [(1.0, "id", "self_adjoint"), (2.0, "i", "skew_adjoint"),
              (8.0, "j", "skew_adjoint"), (0.0, "k", "skew_adjoint")]


def _config(sig, structure, generators, terms, checks, samples, seed) -> dict:
    return {
        "signature": list(sig),
        "structure": structure,
        "generators": generators,
        "tensor": [
            {"coefficient": c, "generator": g, "constructor": kind} for c, g, kind in terms
        ],
        "checks": list(checks),
        "samples": samples,
        "seed": int(seed),
        "tol": TOL,
    }


def _conjugation(m: int) -> list[list[float]]:
    """C = diag(1, -1, 1, -1, ...): self-adjoint, C^2 = Id, anticommutes with the standard J."""
    return np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(m)]).tolist()


def _coefficient(rng: np.random.Generator) -> float:
    # Positive and bounded away from 0, so c0 + 3 c1 and 2 c1 never coincide.
    return round(float(rng.uniform(0.5, 2.0)), 6)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# --- goldens -----------------------------------------------------------------

def _gray_golden(result: dict) -> str | None:
    # Gray violation of R_j is 12.0 per unit coefficient (tests/test_acceptance.py);
    # the quaternionic tensor carries 8 R_j and Gray-clean R_Id, R_i terms.
    got = result["max_violation"]
    return None if abs(got - 96.0) <= 1e-8 else f"gray max_violation {got!r} != pinned 96.0"


def _spectrum_golden(m: int) -> Golden:
    # J R(pi) of the (1, 2, 8, 0) tensor has 7 = c0 + 3 c1 and -4 = 2 c1 - c2 on
    # two distinguished eigenlines; 4 = 2 c1 fills the rest of C^(m/2).
    want = sorted([(4.0, m // 2 - 2), (7.0, 1), (-4.0, 1)])

    def check(result: dict) -> str | None:
        got = sorted((e["eigenvalue"], e["multiplicity"]) for e in result["spectrum"])
        if [mu for _, mu in got] != [mu for _, mu in want] or any(
            abs(a[0] - b[0]) > 1e-8 for a, b in zip(got, want)
        ):
            return f"spectrum {got} != pinned {want}"
        return None

    return check


def _constants_golden(want: list[float]) -> Golden:
    def check(result: dict) -> str | None:
        got = result["constants"]
        if len(got) != len(want) or any(abs(a - b) > 1e-8 for a, b in zip(got, want)):
            return f"solved constants {got} != {want}"
        return None

    return check


def _quaternionic_constants_golden(result: dict) -> str | None:
    # The two mu = 1 eigenvalues 7 and -4 may be assigned to lambda_1 and lambda_2
    # in either order; both solutions realize the pinned spectrum.
    c0, c1, c2, c3 = result["constants"]
    pair = sorted([c0 + 3 * c1, 2 * c1 - c2 - c3])
    if abs(2 * c1 - 4.0) > 1e-8 or abs(pair[0] + 4.0) > 1e-8 or abs(pair[1] - 7.0) > 1e-8:
        return f"solved constants {result['constants']} do not give 2 c1 = 4 and {{c0 + 3 c1, 2 c1 - c2 - c3}} = {{7, -4}}"
    return None


def _pair_rank_golden(result: dict) -> str | None:
    return None if result["min_line_rank"] == 4 else (
        f"admissible_pair min_line_rank {result['min_line_rank']} != 4"
    )


# --- truth table -------------------------------------------------------------

def _definite(sig) -> bool:
    return sig[0] == 0


def _jordan_items(sweep: int, sig, rng: np.random.Generator) -> list[Item]:
    m = sig[0] + sig[1]
    cls = "small" if m == 8 else "large"
    seed = _seed(rng)
    c0, c1, a, b = (_coefficient(rng) for _ in range(4))
    tag = f"s{sweep}/({sig[0]},{sig[1]})"
    fingerprint_defect = None if _definite(sig) else DEFECT_FINGERPRINT
    both_defects = None if _definite(sig) else f"{DEFECT_FINGERPRINT}; {DEFECT_DEGENERATE}"
    identity = {"id": {"builtin": "identity"}}
    items = [
        Item(
            f"{tag}/R_Id/jordan_ip_real", cls,
            _config(sig, "none", identity, [(1.0, "id", "self_adjoint")],
                    ["jordan_ip_real"], JORDAN_SAMPLES, seed),
            {"jordan_ip_real": Expect(
                True,
                "O(p,q) preserves R_Id and acts transitively on the planes of each "
                "causal type, and R(pi) is a rank-2 rotation of pi for every type",
                fingerprint_defect)},
        ),
        Item(
            f"{tag}/c0 R_Id + c1 R_J/jordan_ip_complex", cls,
            _config(sig, "complex", {**identity, "J": {"builtin": "standard_J"}},
                    [(c0, "id", "self_adjoint"), (c1, "J", "skew_adjoint")],
                    ["jordan_ip_complex"], JORDAN_SAMPLES, seed),
            {"jordan_ip_complex": Expect(
                True,
                "U(p/2,q/2) preserves R_Id and R_J and is transitive on unit complex "
                "lines of each type; R(pi) is skew, so both types share one Jordan form",
                both_defects)},
        ),
        Item(
            f"{tag}/a R_Id + b R_C/jordan_ip_complex", cls,
            _config(sig, "complex", {**identity, "C": {"matrix": _conjugation(m)}},
                    [(a, "id", "self_adjoint"), (b, "C", "self_adjoint")],
                    ["jordan_ip_complex"], JORDAN_SAMPLES, seed),
            {"jordan_ip_complex": Expect(
                False,
                "{Id, C} is not an admissible pair (Id* C + C* Id = 2C != 0): the "
                "eigenvalues of R(pi) move with the line",
                None if _definite(sig) else DEFECT_DEGENERATE)},
        ),
    ]
    if _definite(sig):
        items.append(Item(
            f"{tag}/quaternionic(1,2,8,0)/jordan_ip_complex", cls,
            _config(sig, "quaternion", QUAT_GENERATORS, QUAT_TERMS,
                    ["jordan_ip_complex"], JORDAN_SAMPLES, seed),
            {"jordan_ip_complex": Expect(
                True,
                "Sp(m/4) acting on the right preserves R_Id, R_i, R_j, R_k and is "
                "transitive on unit vectors, hence on complex lines")},
        ))
    return items


def _jordan(seed: int) -> list[Chunk]:
    rng = np.random.default_rng([seed, 1])
    chunks = []
    for sweep in range(JORDAN_SWEEPS):
        for sigs, cls in ((((0, 8), (4, 4), (2, 6)), "small"), (((0, 16), (8, 8)), "large")):
            items = [it for sig in sigs for it in _jordan_items(sweep, sig, rng)]
            chunks.append(Chunk(cls, items))
    return chunks


AUDIT_CHECKS = ["symmetries", "almost_complex", "gray"]


def _audit_item(rnd: int, sig, tensor: str, rng: np.random.Generator) -> Item:
    m = sig[0] + sig[1]
    cls = "small" if m == 16 else "large"
    seed = _seed(rng)
    if tensor == "R_Id":
        terms = [(1.0, "id", "self_adjoint")]
    elif tensor == "c0 R_Id + c1 R_J":
        terms = [(_coefficient(rng), "id", "self_adjoint"), (_coefficient(rng), "J", "skew_adjoint")]
    else:
        terms = QUAT_TERMS
    generators = {**QUAT_GENERATORS, "J": {"builtin": "standard_J"}}
    generators = {g: generators[g] for g in dict.fromkeys(name for _, name, _ in terms)}
    line_defect = None if _definite(sig) else DEFECT_DEGENERATE
    expect = {
        "symmetries": Expect(
            True,
            "the constructors are exact: every product reappears with the same "
            "rounding wherever a symmetry demands cancellation"),
        "almost_complex": Expect(
            True,
            "Id and J commute with J = i, and j anticommutes with i so the two sign "
            "flips in each product of R_j cancel: the tensor is J-invariant",
            line_defect),
    }
    goldens: dict[str, list[Golden]] = {}
    if tensor == "quaternionic(1,2,8,0)":
        expect["gray"] = Expect(
            False,
            "j anticommutes with J = i, so R_j violates the Gray identity by 12.0 "
            "per unit coefficient; the coefficient 8 gives 96.0")
        goldens["gray"] = [_gray_golden]
    else:
        expect["gray"] = Expect(
            True, "every generator commutes with J, and such tensors satisfy the Gray identity")
    return Item(
        f"r{rnd}/({sig[0]},{sig[1]})/{tensor}/audit", cls,
        _config(sig, "quaternion", generators, terms, AUDIT_CHECKS, AUDIT_LINES, seed),
        expect, goldens,
    )


def _tensor_audit(seed: int) -> list[Chunk]:
    rng = np.random.default_rng([seed, 2])
    tensors = ("R_Id", "c0 R_Id + c1 R_J", "quaternionic(1,2,8,0)")
    chunks = []
    for rnd in range(AUDIT_ROUNDS):
        large = [_audit_item(rnd, sig, t, rng) for sig in ((0, 32), (16, 16)) for t in tensors]
        small = [_audit_item(rnd, sig, t, rng) for sig in ((0, 16), (8, 8)) for t in tensors]
        # Three m=16 audits after each m=32 one give the small class about a
        # quarter of the time: an m=32 audit costs about twelve m=16 ones.
        for i, big in enumerate(large):
            chunks.append(Chunk("large", [big]))
            chunks.extend(Chunk("small", [small[(i + j) % len(small)]]) for j in range(3))
    return chunks


def _cli_items(rnd: int, m: int, rng: np.random.Generator) -> list[Item]:
    cls = "small" if m == 8 else "large"
    seed = _seed(rng)
    c0, c1 = _coefficient(rng), _coefficient(rng)
    tag = f"r{rnd}/m{m}"
    spectrum = Expect(
        True,
        "the quaternionic tensor is invariant under Sp(m/4), transitive on complex "
        "lines, so J R(pi) has one spectrum {7: 1, -4: 1, 4: m/2 - 2}")
    return [
        Item(
            f"{tag}/readme", cls,
            _config((0, m), "quaternion", QUAT_GENERATORS, QUAT_TERMS,
                    ["symmetries", "jordan_ip_complex", "spectrum"], CLI_SAMPLES, seed),
            {
                "symmetries": Expect(True, "the constructors are exact"),
                "jordan_ip_complex": Expect(
                    True, "Sp(m/4) is transitive on unit complex lines and preserves the tensor"),
                "spectrum": spectrum,
            },
            {"spectrum": [_spectrum_golden(m)]},
        ),
        Item(
            f"{tag}/quaternionic/solve", cls,
            _config((0, m), "quaternion", QUAT_GENERATORS, QUAT_TERMS,
                    ["spectrum", "solve_constants"], CLI_SAMPLES, seed),
            {
                "spectrum": spectrum,
                "solve_constants": Expect(
                    True,
                    "lambda_0 = 2 c1, lambda_1 = c0 + 3 c1, lambda_2 = 2 c1 - c2 - c3 "
                    "are solvable for every assignment of 7 and -4, and the rebuilt "
                    "tensor has the same spectrum"),
            },
            {"spectrum": [_spectrum_golden(m)], "solve_constants": [_quaternionic_constants_golden]},
        ),
        Item(
            f"{tag}/complex_pair/solve", cls,
            _config((2, m - 2), "complex", {"id": {"builtin": "identity"}, "J": {"builtin": "standard_J"}},
                    [(c0, "id", "self_adjoint"), (c1, "J", "skew_adjoint")],
                    ["spectrum", "solve_constants"], CLI_SAMPLES, seed),
            {
                "spectrum": Expect(
                    True,
                    "U(1, m/2-1) is transitive on spacelike complex lines, so J R(pi) "
                    "has one spectrum {c0 + 3 c1: 1, 2 c1: m/2 - 1}"),
                "solve_constants": Expect(
                    True, "lambda_0 = 2 c1 and lambda_1 = c0 + 3 c1 invert to (c0, c1)"),
            },
            {"solve_constants": [_constants_golden([c0, c1])]},
        ),
        Item(
            f"{tag}/nilpotent_pair", cls,
            _config((m // 2, m // 2), "complex",
                    {"phi1": {"builtin": "nilpotent_null_pair"},
                     "phi2": {"builtin": "nilpotent_null_pair_partner"}},
                    [(1.0, "phi1", "self_adjoint"), (1.0, "phi2", "skew_adjoint")],
                    ["admissible", "admissible_pair"], CLI_SAMPLES, seed),
            {
                "admissible": Expect(
                    True,
                    "both square to 0 with kernel = range; phi1 is self-adjoint and "
                    "commutes with J, phi2 is skew-adjoint and anticommutes"),
                "admissible_pair": Expect(
                    True,
                    "phi2 is conjugate-linear with no invariant complex line, so the "
                    "images of every line span 4 dimensions"),
            },
            {"admissible_pair": [_pair_rank_golden]},
        ),
    ]


def _cli_reports(seed: int) -> list[Chunk]:
    rng = np.random.default_rng([seed, 3])
    chunks = []
    for rnd in range(CLI_ROUNDS):
        small, large = _cli_items(rnd, 8, rng), _cli_items(rnd, 16, rng)
        for s, g in zip(small, large):
            chunks += [Chunk("small", [s]), Chunk("large", [g])]
    return chunks


def build(workload: str, seed: int, directory: Path) -> list[Chunk]:
    """Generate the workload's chunks from the seed and write every config into directory."""
    chunks = {"jordan_sweep": _jordan, "tensor_audit": _tensor_audit,
              "cli_reports": _cli_reports}[workload](seed)
    directory.mkdir(parents=True, exist_ok=True)
    unique = {id(it): it for chunk in chunks for it in chunk.items}
    for n, item in enumerate(unique.values()):
        item.path = directory / f"config{n:04d}.json"
        item.path.write_text(json.dumps(item.config, indent=1))
    return chunks


# --- consumed planes ----------------------------------------------------------

REAL_TYPES = (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED)


class AccountingError(RuntimeError):
    """A witness plane could not be found among the redrawn samples."""


def offender_index(space: BilinearSpace, causal_type: PlaneClass, n: int, seed: int,
                   offender: dict) -> int:
    """Position of the witness offender in the check's seeded plane sample.

    Redraws the same public sampler with growing prefixes: a seeded sampler's
    first k planes do not depend on how many are asked for, and wrong verdicts
    usually stop early, so this costs far less than redrawing all n.
    """
    x, y = np.array(offender["x"]), np.array(offender["y"])
    k = min(n, 32)
    while True:
        try:
            planes = sample_real_planes(space, causal_type, k, seed)
        except RuntimeError:  # a short prefix has a smaller rejection budget than the check's draw
            planes = sample_real_planes(space, causal_type, n, seed)
            k = n
        for idx, plane in enumerate(planes):
            if np.array_equal(plane.x, x) and np.array_equal(plane.y, y):
                return idx
        if k >= n:
            raise AccountingError(f"offender not among the {n} {causal_type.value} planes")
        k = min(n, 2 * k)


def consumed_planes(config: dict, check: str, result: dict) -> int:
    """Planes whose Jordan fingerprint a verdict actually needed.

    A complex-line check fingerprints every sampled line.  A real check stops a
    causal type at its first mismatch, so a failing type consumes the anchor and
    the planes up to its witness offender; a constant type consumes all n.
    """
    p, q = config["signature"]
    n, seed = config["samples"], config["seed"]
    if check == "jordan_ip_complex":
        return n * (2 if p >= 2 else 1)
    space = BilinearSpace(p, q)
    total = 0
    for offset, causal_type in enumerate(t for t in REAL_TYPES if t.value in result["constant_by_type"]):
        if result["constant_by_type"][causal_type.value]:
            total += n
        else:
            offender = result["witness"][causal_type.value]["offender"]
            total += offender_index(space, causal_type, n, seed + offset, offender) + 1
    return total
