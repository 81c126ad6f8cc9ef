"""Skew-symmetric curvature operator, Grassmannian sampling, and Jordan-IP checks.

For an oriented basis {x, y} of a non-degenerate 2-plane pi, the
skew-symmetric curvature operator is

    R(pi) = |(x,x)(y,y) - (x,y)^2|^(-1/2) R(x, y),

a skew-adjoint endomorphism independent of the oriented basis choice.  A
tensor is Jordan-IP on a family of planes when the Jordan normal form of
R(pi) does not move across the family.  Sampling with a fixed seed replaces
quantification over the Grassmannian.  A spectrum that moves does so on an
open set, which sampling hits; a rank can drop on a null set, which it misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .complex_structures import ComplexStructure, QuaternionStructure
from .curvature import (CurvatureTensor, _check_space, apply_pairs, combine, from_self_adjoint,
                        from_skew_adjoint)
from .pseudo_linalg import (
    BilinearSpace,
    JordanInvariants,
    OrientedPlane,
    PlaneClass,
    _check_vector,
    _paired,
    _rejection_sample,
    _unit_line,
    classify_plane,
    jordan_equivalent,
    jordan_invariants,
)

# Nilpotent Jordan blocks of size 2 scatter their eigenvalues by about
# sqrt(machine eps) times the operator norm (3e-8), while the eigenvalue gaps
# of interest are order 0.1 and larger, so operator-level checks cluster at 1e-6.
OPERATOR_TOL = 1e-6

# Planes per matrix product in curvature_operators: enough for one GEMM to
# amortise the pass over the m^4 coefficients.  At m = 32 and 1000 lines per
# audit, the largest traffic served, a block is 0.5 MB, where one product over
# all 1000 would hold a (1000, 1024) pair matrix and a (1000, 32, 32) stack, 8 MB each.
_BLOCK = 64


class SpectrumStructureError(ValueError):
    """The composition J R(pi) lacks the eigenstructure of a complex-linear
    self-adjoint map: a non-real eigenvalue, an odd real multiplicity, or a
    defective eigenvalue, each judged relative to sigma_max(J R(pi)).
    Indicates the tensor is not almost complex."""


def complex_line(J: ComplexStructure, x: np.ndarray) -> OrientedPlane:
    """OrientedPlane(J.space, x, Jx) with x as given, not rescaled, which the
    checks take as a line of J; raises ValueError when it is degenerate.  It
    is spacelike or timelike according to the sign of (x, x)."""
    x = _check_vector(J.space, x, "x")
    line = OrientedPlane(J.space, x, J.J @ x)
    if line.plane_class is PlaneClass.DEGENERATE:
        raise ValueError(f"x is null to tolerance (Gram determinant {line.det:.3e}); the span is degenerate")
    return line


def _real_plane_realizable(space: BilinearSpace, causal_type: PlaneClass) -> bool:
    if causal_type is PlaneClass.SPACELIKE:
        return space.q >= 2
    if causal_type is PlaneClass.TIMELIKE:
        return space.p >= 2
    if causal_type is PlaneClass.MIXED:
        return space.p >= 1 and space.q >= 1
    return False


def sample_real_planes(
    space: BilinearSpace,
    causal_type: PlaneClass,
    n: int,
    seed: int = 0,
) -> list[OrientedPlane]:
    """n oriented 2-planes of the requested causal type, by seeded rejection
    sampling of standard-normal spanning pairs."""
    if not _real_plane_realizable(space, causal_type):
        raise ValueError(
            f"no {causal_type.value} 2-plane exists in signature ({space.p}, {space.q})"
        )

    def draw(rng: np.random.Generator) -> OrientedPlane | None:
        x = rng.standard_normal(space.m)
        y = rng.standard_normal(space.m)
        # Only an accepted draw is made a plane: most draws are rejected.
        return OrientedPlane(space, x, y) if classify_plane(space, x, y) is causal_type else None

    return _rejection_sample(n, seed, draw, f"sampling {causal_type.value} planes")


def sample_complex_lines(
    J: ComplexStructure,
    causal_type: PlaneClass,
    n: int,
    seed: int = 0,
) -> list[OrientedPlane]:
    """n non-degenerate complex lines span{x, Jx} of the requested causal type.

    x is drawn standard-normal and rescaled to |(x, x)| = 1; a line is kept
    when curvature_operator accepts it and (x, x) has the sign of the type,
    which decides the type: (x, Jx) = 0 and (Jx, Jx) = (x, x), never mixed.
    """
    space = J.space
    if causal_type not in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE):
        raise ValueError(f"complex lines are never {causal_type.value}")
    if not _real_plane_realizable(space, causal_type):
        raise ValueError(
            f"no {causal_type.value} complex line exists in signature ({space.p}, {space.q})"
        )
    positive = causal_type is PlaneClass.SPACELIKE
    draw = lambda rng: _unit_line(space, J.J, rng.standard_normal(space.m), positive)
    return _rejection_sample(n, seed, draw, f"sampling {causal_type.value} lines")


def _first_non_line(J: ComplexStructure, planes: Sequence[OrientedPlane]) -> int | None:
    """Index of the first plane that is not a line of J, or None, by one stacked product:
    a line lies in J's space and has max|y - J x| <= DEFAULT_TOL max|x|, J counting as 1."""
    n = next((i for i, plane in enumerate(planes) if plane.space != J.space), len(planes))
    head = planes[:n]
    xs, ys = np.array([p.x for p in head] + [p.y for p in head]).reshape(2, n, J.space.m)
    off = np.flatnonzero(np.abs(ys - xs @ J.J.T).max(axis=1) > J.space.tol * np.abs(xs).max(axis=1))
    return int(off[0]) if off.size else (n if n < len(planes) else None)


def _lines_by_type(J: ComplexStructure, n: int, seed: int) -> Iterator[list[OrientedPlane]]:
    """n complex lines of each causal type that exists, lazily: the i-th type
    of (spacelike, timelike) that exists is drawn with seed + i, as real planes are."""
    types = [t for t in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE)
             if _real_plane_realizable(J.space, t)]
    return (sample_complex_lines(J, t, n, seed + i) for i, t in enumerate(types))


def curvature_operators(
    tensor: CurvatureTensor, planes: Sequence[OrientedPlane]
) -> Iterator[np.ndarray]:
    """R(pi) for the planes in order, lazily, as (k, m, m) stacks of at most
    _BLOCK operators, each stack assembled by one apply_pairs product.

    The planes of a block are looked at in order before it is assembled; the
    first one in another space than the tensor's, or degenerate by the det
    it was made with, raises ValueError.  An operator whose largest entry
    does not exceed its rounding level m eps max|R| |x| |y| / sqrt|det| is set
    to exactly 0, so that every later check sees it as the zero map.
    """
    noise = tensor.space.m * np.finfo(float).eps * tensor.scale
    for start in range(0, len(planes), _BLOCK):
        block = planes[start : start + _BLOCK]
        for plane in block:
            _check_space("plane", plane.space, tensor)
            if plane.plane_class is PlaneClass.DEGENERATE:
                raise ValueError(f"degenerate plane: restricted Gram determinant {plane.det:.3e}")
        xs, ys = np.array([plane.x for plane in block]), np.array([plane.y for plane in block])
        scale = np.sqrt(np.abs([plane.det for plane in block]))
        ops = apply_pairs(tensor, xs, ys) / scale[:, None, None]
        level = noise * np.linalg.norm(xs, axis=1) * np.linalg.norm(ys, axis=1) / scale
        ops[np.abs(ops).max(axis=(1, 2)) <= level] = 0.0
        yield ops


def curvature_operator(tensor: CurvatureTensor, plane: OrientedPlane) -> np.ndarray:
    """R(pi): the pair contraction R(x, y) normalized by the plane's Gram determinant."""
    return next(curvature_operators(tensor, [plane]))[0]


@dataclass(frozen=True)
class AlmostComplexReport:
    passed: bool
    max_commutator: float
    witness: OrientedPlane | None


def check_almost_complex(
    tensor: CurvatureTensor,
    J: ComplexStructure,
    planes: list[OrientedPlane],
    tol: float = 1e-10,
) -> AlmostComplexReport:
    """Whether J R(pi) = R(pi) J on every given complex line, up to
    tol * max |R|, so the verdict does not depend on the tensor's scale.

    A plane is a complex line when it is {x, J x} for this J up to
    DEFAULT_TOL max|x|, not just a basis of one such as {x, 2 J x}.  The
    witness is the first line of the largest commutator, when that exceeds
    the bound.  An empty list raises ValueError, and so does a plane that is
    not a complex line or is degenerate; the first such plane decides which.
    """
    if not planes:
        raise ValueError("check_almost_complex needs at least one line")
    # Only the planes ahead of the first non-line are assembled, so a degenerate
    # plane among them raises first, as it would in a line-by-line check.
    bad = _first_non_line(J, planes)
    ops = curvature_operators(tensor, planes[:bad])
    comms = [np.abs(J.J @ block - block @ J.J).max(axis=(1, 2)) for block in ops]
    if bad is not None:
        raise ValueError("check_almost_complex requires complex lines")
    comms = np.concatenate(comms)
    worst = float(comms.max())
    passed = worst <= tol * tensor.scale
    return AlmostComplexReport(passed, worst, None if passed else planes[int(comms.argmax())])


def _fingerprints(
    tensor: CurvatureTensor, planes: list[OrientedPlane], tol: float
) -> Iterator[JordanInvariants]:
    """Fingerprints of R(pi) on the planes in order, lazily: a consumer that
    stops early wastes at most one block of operator assembly."""
    for ops in curvature_operators(tensor, planes):
        yield from (jordan_invariants(op, tol) for op in ops)


def _first_offender(
    anchor: JordanInvariants, rest: Iterable[JordanInvariants], tol: float
) -> int | None:
    """Index, counting the anchor as 0, of the first of rest that is not
    equivalent to the anchor, or None; rest is read no further.  Pairing within
    a bound is not transitive, so every plane is compared with the anchor."""
    found = (i for i, inv in enumerate(rest, 1) if not jordan_equivalent(anchor, inv, tol))
    return next(found, None)


@dataclass(frozen=True)
class JordanIPReport:
    """Constancy verdict for R(pi) over sampled non-degenerate complex lines."""

    constant: bool
    rank: int | None
    invariants_by_type: dict[PlaneClass, JordanInvariants]
    witness: tuple[OrientedPlane, OrientedPlane] | None
    seed: int


def check_jordan_ip(
    tensor: CurvatureTensor,
    J: ComplexStructure,
    n: int = 100,
    seed: int = 0,
    tol: float = OPERATOR_TOL,
) -> JordanIPReport:
    """Sample n complex lines of each causal type that exists, the i-th of
    (spacelike, timelike) with seed + i, and test whether they share one Jordan form.

    Every line is fingerprinted, also after a mismatch, so that
    invariants_by_type holds the first line of each causal type.
    """
    planes = [line for lines in _lines_by_type(J, n, seed) for line in lines]

    invariants = list(_fingerprints(tensor, planes, tol))
    invariants_by_type: dict[PlaneClass, JordanInvariants] = {}
    for plane, inv in zip(planes, invariants):
        invariants_by_type.setdefault(plane.plane_class, inv)
    offender = _first_offender(invariants[0], invariants[1:], tol)
    constant = offender is None
    return JordanIPReport(
        constant=constant,
        rank=invariants[0].total_rank if constant else None,
        invariants_by_type=invariants_by_type,
        witness=None if constant else (planes[0], planes[offender]),
        seed=seed,
    )


@dataclass(frozen=True)
class RealJordanIPReport:
    """Per-causal-type constancy of R(pi) over real oriented 2-planes.

    The Jordan form may legitimately differ between types; the rank may not,
    so rank_type_independent is reported alongside.
    """

    constant_by_type: dict[PlaneClass, bool]
    rank_by_type: dict[PlaneClass, int]
    invariants_by_type: dict[PlaneClass, JordanInvariants]
    witnesses: dict[PlaneClass, tuple[OrientedPlane, OrientedPlane]]
    rank_type_independent: bool
    seed: int

    @property
    def constant(self) -> bool:
        return all(self.constant_by_type.values())


def check_jordan_ip_real(
    tensor: CurvatureTensor,
    n: int = 100,
    seed: int = 0,
    tol: float = OPERATOR_TOL,
) -> RealJordanIPReport:
    """Jordan constancy over real oriented 2-planes, independently per causal type;
    the i-th type that exists (spacelike, timelike, mixed) is sampled with seed + i."""
    space = tensor.space
    types = [t for t in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED)
             if _real_plane_realizable(space, t)]
    invariants_by_type: dict[PlaneClass, JordanInvariants] = {}
    witnesses: dict[PlaneClass, tuple[OrientedPlane, OrientedPlane]] = {}
    for offset, causal_type in enumerate(types):
        planes = sample_real_planes(space, causal_type, n, seed + offset)
        fingerprints = _fingerprints(tensor, planes, tol)
        anchor = invariants_by_type[causal_type] = next(fingerprints)
        offender = _first_offender(anchor, fingerprints, tol)
        if offender is not None:
            witnesses[causal_type] = (planes[0], planes[offender])
    rank_by_type = {t: inv.total_rank for t, inv in invariants_by_type.items()}
    return RealJordanIPReport(
        constant_by_type={t: t not in witnesses for t in invariants_by_type},
        rank_by_type=rank_by_type,
        invariants_by_type=invariants_by_type,
        witnesses=witnesses,
        rank_type_independent=len(set(rank_by_type.values())) == 1,
        seed=seed,
    )


@dataclass(frozen=True)
class SpectrumSpec:
    """Eigenvalues of J R(pi) with complex multiplicities, ordered by
    multiplicity (descending) then eigenvalue.

    Complex multiplicity counts J-invariant eigenplanes: half the real
    algebraic multiplicity.  The real dimension realized is 2 * sum(mu).
    """

    eigenvalues: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.eigenvalues:
            raise ValueError("a spectrum needs at least one eigenvalue")
        values = [lam for lam, _ in self.eigenvalues]
        if len(set(values)) != len(values):
            raise ValueError(f"eigenvalues must be pairwise distinct, got {values}")
        if any(mu < 1 for _, mu in self.eigenvalues):
            raise ValueError("multiplicities must be positive")
        # Stable sort: multiplicities descend, ties keep the listed order, so a
        # caller's designation of which mu = 1 eigenvalue plays which role in
        # solve_constants survives canonicalization.
        canon = tuple(sorted(self.eigenvalues, key=lambda e: -e[1]))
        object.__setattr__(self, "eigenvalues", canon)

    @property
    def dimension(self) -> int:
        return 2 * sum(mu for _, mu in self.eigenvalues)

    def matches(self, other: "SpectrumSpec", tol: float) -> bool:
        """Multiset agreement: each eigenvalue of self, in order, is paired with
        the nearest remaining one of other of equal multiplicity, within
        tol * max |eigenvalue| over both spectra, with no floor of 1."""
        both = self.eigenvalues + other.eigenvalues
        return _paired(self.eigenvalues, other.eigenvalues, tol * max(abs(lam) for lam, _ in both))


def spectrum_of_JR(
    tensor: CurvatureTensor,
    J: ComplexStructure,
    plane: OrientedPlane,
    tol: float = OPERATOR_TOL,
) -> SpectrumSpec:
    """Eigenvalues and complex multiplicities of the composition J R(pi), read
    from its fingerprint jordan_invariants(J R(pi), tol).

    A plane that is not a complex line of J, as check_almost_complex decides,
    or that is degenerate raises ValueError.  An eigenstructure that no almost
    complex tensor gives raises SpectrumStructureError: R(pi) not commuting
    with J, eigenvalues off the real line, odd real multiplicities, or
    defective eigenvalues.  The commutator and imaginary parts are compared
    with tol times the fingerprint's scale, sigma_max(J R(pi)), so no
    singular values are computed outside jordan_invariants.
    """
    if _first_non_line(J, [plane]) is not None:
        raise ValueError("spectrum_of_JR requires a non-degenerate complex line")
    op = curvature_operator(tensor, plane)
    k = J.J @ op
    inv = jordan_invariants(k, tol)
    threshold = tol * inv.scale

    comm = float(np.max(np.abs(k - op @ J.J)))
    if comm > threshold:
        raise SpectrumStructureError(
            f"R(pi) does not commute with J (residual {comm:.3e}); tensor is not almost complex"
        )

    worst_imag = max(abs(lam.imag) for lam, _ in inv.clusters)
    if worst_imag > threshold:
        raise SpectrumStructureError(f"non-real eigenvalue of J R(pi), imaginary part {worst_imag:.3e}")

    pairs: list[tuple[float, int]] = []
    for (lam, mult), ranks in zip(inv.clusters, inv.rank_sequences):
        if mult % 2 != 0:
            raise SpectrumStructureError(f"eigenvalue {lam.real:.6g} has odd real multiplicity {mult}")
        if ranks[0] != inv.dimension - mult:
            raise SpectrumStructureError(
                f"eigenvalue {lam.real:.6g} is defective: eigenspace dimension "
                f"{inv.dimension - ranks[0]} != algebraic multiplicity {mult}"
            )
        pairs.append((lam.real, mult // 2))
    return SpectrumSpec(tuple(pairs))


class SpectrumModel(Enum):
    COMPLEX_PAIR = "complex_pair"
    QUATERNIONIC = "quaternionic"


def solve_constants(spec: SpectrumSpec, model: SpectrumModel) -> tuple[float, ...]:
    """Coefficients realizing a requested J R(pi) spectrum.

    COMPLEX_PAIR builds c0 R_Id + c1 R_J with the relations
    lambda_1 = c0 + 3 c1 (multiplicity 1) and lambda_0 = 2 c1; QUATERNIONIC
    builds c0 R_Id + c1 R_i + c2 R_j + c3 R_k with additionally
    lambda_2 = 2 c1 - c2 - c3.  The sum c2 + c3 is underdetermined; c3 = 0 is
    the canonical resolution so outputs are reproducible.  lambda_0 is the
    first listed eigenvalue (the high-multiplicity one when multiplicities
    differ).
    """
    ev = spec.eigenvalues
    mu = [m for _, m in ev]
    if model is SpectrumModel.COMPLEX_PAIR:
        if len(ev) != 2:
            raise ValueError(f"complex pair spectra have exactly two eigenvalues, got {len(ev)}")
        if mu[1] != 1:
            raise ValueError(f"the low-multiplicity eigenvalue must have mu = 1, got {mu[1]}")
    elif model is SpectrumModel.QUATERNIONIC:
        if spec.dimension % 4 != 0:
            raise ValueError(
                f"quaternionic spectra need dimension divisible by 4, got {spec.dimension}"
            )
        if len(ev) not in (2, 3):
            raise ValueError(f"quaternionic spectra have two or three eigenvalues, got {len(ev)}")
        if len(ev) == 2 and mu[1] > 2:
            raise ValueError(f"second multiplicity must be at most 2, got {mu[1]}")
        if len(ev) == 3 and (mu[1] != 1 or mu[2] != 1):
            raise ValueError(
                f"three-eigenvalue spectra need trailing multiplicities 1, got {mu[1]}, {mu[2]}"
            )
    else:
        raise ValueError(f"unknown model {model!r}")

    (lam0, _), (lam1, _) = ev[:2]
    c1 = lam0 / 2.0
    c0 = lam1 - 3.0 * c1
    if model is SpectrumModel.COMPLEX_PAIR:
        return (c0, c1)
    if len(ev) == 3:
        c2 = 2.0 * c1 - ev[2][0]
    else:
        c2 = (2.0 * c1 - lam1) if mu[1] == 2 else 0.0
    return (c0, c1, c2, 0.0)


def _identity_plus_skew(
    space: BilinearSpace, c0: float, units: list[tuple[float, np.ndarray]]
) -> CurvatureTensor:
    """c0 R_Id + sum_i c_i R_{u_i} for skew-adjoint units u_i, one term at a time."""
    terms = [(c0, from_self_adjoint, np.eye(space.m))]
    terms += [(c, from_skew_adjoint, u) for c, u in units]
    return combine((c, build(space, phi)) for c, build, phi in terms)


def build_complex_pair_tensor(
    J: ComplexStructure, c0: float, c1: float
) -> CurvatureTensor:
    """c0 R_Id + c1 R_J over the space carried by J."""
    return _identity_plus_skew(J.space, c0, [(c1, J.J)])


def build_quaternionic_tensor(
    quat: QuaternionStructure, c0: float, c1: float, c2: float, c3: float
) -> CurvatureTensor:
    """c0 R_Id + c1 R_i + c2 R_j + c3 R_k over the space carried by the structure."""
    return _identity_plus_skew(quat.space, c0, [(c1, quat.i), (c2, quat.j), (c3, quat.k)])
