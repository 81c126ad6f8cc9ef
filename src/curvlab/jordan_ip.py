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
from functools import partial
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .complex_structures import ComplexStructure, QuaternionStructure
from .curvature import (CurvatureTensor, _check_space, _generator_rows, _generator_sum, apply_pairs,
                        check_J_invariance)
from .pseudo_linalg import (
    _MINOR,
    BilinearSpace,
    JordanInvariants,
    OrientedPlane,
    PlaneClass,
    _check_vector,
    _draws,
    _matches_form,
    _paired,
    _stacked_dots,
    _typed_vectors,
    _unit_lines,
    classify_plane,
    jordan_equivalent,
    jordan_invariants,
)

# Nilpotent Jordan blocks of size 2 scatter their eigenvalues by about sqrt(machine eps)
# times the operator norm (3e-8), and the eigenvalue gaps of interest are 0.1 and larger,
# so the Jordan and spectrum checks cluster at 1e-6 and read a smaller tol as this floor.
OPERATOR_TOL = 1e-6
# The one bound, relative to max|R|, of the two commutation decisions: J*R = R by
# check_J_invariance for the route of check_jordan_ip, and spectrum_of_JR's on its line.
_ALMOST_COMPLEX_TOL = 1e-10

# Planes per matrix product in curvature_operators: enough for one GEMM to
# amortise the pass over the m^4 coefficients.  At m = 32 and 1000 lines a
# block is 0.5 MB, where one product over all 1000 would hold a (1000, 1024)
# pair matrix and a (1000, 32, 32) stack, 8 MB each.
_BLOCK = 64

# The causal types of complex lines in the order the Jordan checks draw them; real planes add mixed.
_LINE_TYPES = (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE)


class SpectrumStructureError(ValueError):
    """R(pi) does not commute with J, judged against max|R|, or J R(pi) lacks
    the eigenstructure of a complex-linear self-adjoint map: a non-real or a
    defective eigenvalue, judged against the scale of its fingerprint on
    C^{m/2}.  Indicates the tensor is not almost complex."""


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
    """n oriented 2-planes of the requested causal type, each built in its type from one
    standard-normal pair of the seed's (n, 2, m) draws, so the first k do not depend on n.

    A mixed plane takes x spacelike and y timelike by _typed_vectors, so det < 0.  Any other
    orthonormalises the pair's parts on the coordinates of its type and adds their other parts
    W scaled by _MINOR / (1 + |W|_F): the graph of a contraction of norm below _MINOR, whose
    Gram matrix is definite.  One classify_plane call gives every plane the det and type of
    OrientedPlane(space, x, y); a plane of another type raises RuntimeError.
    """
    if not _real_plane_realizable(space, causal_type):
        raise ValueError(f"no {causal_type.value} 2-plane exists in signature ({space.p}, {space.q})")
    g = _draws(n, seed, 2, space.m)  # per plane, x's draw then y's
    if causal_type is PlaneClass.MIXED:
        planes = _typed_vectors(space, g, [True, False])
    else:
        major = (space.signs > 0) == (causal_type is PlaneClass.SPACELIKE)
        a = np.where(major, g, 0.0)
        u = a[:, 0] / np.linalg.norm(a[:, 0], axis=1, keepdims=True)
        v = a[:, 1] - _stacked_dots(u, a[:, 1])[:, None] * u
        w = _MINOR / (1.0 + np.linalg.norm(g - a, axis=(1, 2), keepdims=True))
        planes = np.where(major, np.stack([u, v / np.linalg.norm(v, axis=1, keepdims=True)], axis=1), g * w)
    dets, types = classify_plane(space, planes[:, 0], planes[:, 1])
    if (types != causal_type).any():
        raise RuntimeError(f"a {causal_type.value} plane was built as another type")
    return [OrientedPlane._with_gram(space, x, y, det, causal_type) for (x, y), det in zip(planes, dets.tolist())]


def sample_complex_lines(
    J: ComplexStructure,
    causal_type: PlaneClass,
    n: int,
    seed: int = 0,
) -> list[OrientedPlane]:
    """n complex lines span{x, Jx} of the requested causal type, made by _unit_lines from the
    seed's standard-normal draws, so the first k do not depend on n.  The sign of (x, x) is the
    type, as (x, Jx) = 0 and (Jx, Jx) = (x, x); a J whose lines are degenerate raises ValueError."""
    space = J.space
    if causal_type not in _LINE_TYPES:
        raise ValueError(f"complex lines are never {causal_type.value}")
    if not _real_plane_realizable(space, causal_type):
        raise ValueError(
            f"no {causal_type.value} complex line exists in signature ({space.p}, {space.q})"
        )
    return _unit_lines(space, J.J, _draws(n, seed, space.m), causal_type is PlaneClass.SPACELIKE)


def _planes_by_type(space: BilinearSpace, types: Sequence[PlaneClass],
                    sample: Callable[[PlaneClass, int, int], list[OrientedPlane]],
                    n: int, seed: int) -> Iterator[tuple[PlaneClass, list[OrientedPlane]]]:
    """(causal type, sample(type, n, seed + i)) for the i-th of types that exists in space,
    lazily: the one seed rule of the Jordan checks, for complex lines and real planes."""
    types = [t for t in types if _real_plane_realizable(space, t)]
    return ((t, sample(t, n, seed + i)) for i, t in enumerate(types))


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


def _fingerprints(tensor: CurvatureTensor, planes: list[OrientedPlane], tol: float,
                  basis: np.ndarray | None = None) -> tuple[JordanInvariants, Iterator[np.ndarray]]:
    """The anchor of planes of one causal type, jordan_invariants of R(pi) on the first
    plane, and whether each R(pi) has its Jordan form, lazily: the anchor's own verdict
    True, then one array per block of curvature_operators, so that a consumer that stops
    early wastes at most one block.  Every R(pi) takes one route: on C^{m/2} as basis^H
    R(pi) basis when a +i basis is given, else as a real matrix.  No other R(pi) is
    fingerprinted: _matches_form tests each against the anchor, one call per block."""
    blocks = curvature_operators(tensor, planes)
    ops = next(blocks)
    anchor = jordan_invariants(ops[0], tol, basis)
    rest = (_matches_form(c if basis is None else basis.conj().T @ c @ basis, anchor, tol)
            for c in chain([ops[1:]], blocks))
    return anchor, chain([np.ones(1, dtype=bool)], rest)


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

    One check_J_invariance call decides the route of every line: on C^{m/2}
    with J's +i basis when the tensor is almost complex, else as a real matrix.
    The first line of each causal type, its anchor, is fingerprinted, and
    invariants_by_type holds these fingerprints.  Each type is rank-tested in
    its own pass: every other line against the anchor of its type, also after
    a mismatch.  An anchor of a later type meets the first one in
    jordan_equivalent: pairing within a bound is not transitive, so each line
    meets the first line's form.  All of these read at max(tol, OPERATOR_TOL).
    """
    tol = max(tol, OPERATOR_TOL)
    samples = list(_planes_by_type(J.space, _LINE_TYPES, partial(sample_complex_lines, J), n, seed))
    basis = J._plus_i_basis if check_J_invariance(tensor, J, _ALMOST_COMPLEX_TOL).passed else None
    anchors, verdicts = {}, []
    for causal_type, lines in samples:
        anchors[causal_type], same = _fingerprints(tensor, lines, tol, basis)
        verdicts.append(np.concatenate(list(same)))
    first, *later = anchors.values()
    for same, anchor in zip(verdicts[1:], later):
        same[0] = jordan_equivalent(first, anchor, tol)
    same = np.concatenate(verdicts)
    planes = [line for _, lines in samples for line in lines]
    offender = int(np.argmin(same)) if not same.all() else None
    constant = offender is None
    return JordanIPReport(
        constant=constant,
        rank=first.total_rank if constant else None,
        invariants_by_type=anchors,
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
    """Jordan constancy over real oriented 2-planes at max(tol, OPERATOR_TOL), per causal
    type; the i-th type that exists (spacelike, timelike, mixed) is sampled with seed + i."""
    space = tensor.space
    invariants_by_type: dict[PlaneClass, JordanInvariants] = {}
    witnesses: dict[PlaneClass, tuple[OrientedPlane, OrientedPlane]] = {}
    types = (*_LINE_TYPES, PlaneClass.MIXED)
    for causal_type, planes in _planes_by_type(space, types, partial(sample_real_planes, space), n, seed):
        invariants_by_type[causal_type], same = _fingerprints(tensor, planes, max(tol, OPERATOR_TOL))
        offender = next((i for i, ok in enumerate(chain.from_iterable(same)) if not ok), None)
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
        """Multiset agreement: each eigenvalue of self, in order, is paired with the
        nearest remaining one of other of equal multiplicity, within tol * max
        |eigenvalue| over both spectra (no floor of 1), tol positive and finite."""
        both = self.eigenvalues + other.eigenvalues
        return _paired(self.eigenvalues, other.eigenvalues, tol, max(abs(lam) for lam, _ in both))


def spectrum_of_JR(
    tensor: CurvatureTensor,
    J: ComplexStructure,
    plane: OrientedPlane,
    tol: float = OPERATOR_TOL,
) -> SpectrumSpec:
    """Eigenvalues and complex multiplicities of the composition J R(pi), read
    from its fingerprint jordan_invariants(J R(pi), tol, J._plus_i_basis) on
    C^{m/2}, A_c = Q^H J R(pi) Q, with tol raised to OPERATOR_TOL if below it.

    A plane that is not a complex line of J, {x, J x} in J's space up to
    DEFAULT_TOL max|x| (J counting as 1), not just a basis of one such as
    {x, 2 J x}, or that is degenerate raises ValueError.  An eigenstructure
    that no almost complex tensor gives raises SpectrumStructureError: R(pi)
    not commuting with J to _ALMOST_COMPLEX_TOL max|R|, tested before any
    eigen-analysis, an eigenvalue over tol sigma_max(A_c) / 2 off the real
    line, or a defective one.
    Clusters link at tol sigma_max(A_c), so a cluster within half that of the
    real line holds its members' conjugates: its real multiplicity is even.
    """
    if plane.space != J.space or (
            np.abs(plane.y - J.J @ plane.x).max() > J.space.tol * np.abs(plane.x).max()):
        raise ValueError("spectrum_of_JR requires a non-degenerate complex line")
    op, tol = curvature_operator(tensor, plane), max(tol, OPERATOR_TOL)
    k = J.J @ op
    comm = float(np.max(np.abs(k - op @ J.J)))
    if comm > _ALMOST_COMPLEX_TOL * tensor.scale:
        raise SpectrumStructureError(
            f"R(pi) does not commute with J (residual {comm:.3e}); tensor is not almost complex"
        )
    inv = jordan_invariants(k, tol, J._plus_i_basis)
    worst_imag = max(abs(lam.imag) for lam, _ in inv.clusters)
    if worst_imag > tol * inv.scale / 2:
        raise SpectrumStructureError(f"non-real eigenvalue of J R(pi), imaginary part {worst_imag:.3e}")
    for (lam, mult), ranks in zip(inv.clusters, inv.rank_sequences):
        if ranks[0] != inv.dimension - mult:
            raise SpectrumStructureError(
                f"eigenvalue {lam.real:.6g} is defective: eigenspace dimension "
                f"{inv.dimension - ranks[0]} != algebraic multiplicity {mult}"
            )
    return SpectrumSpec(tuple((lam.real, mult // 2) for lam, mult in inv.clusters))


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
    """c0 R_Id + sum_i c_i R_{u_i} for skew-adjoint units u_i, built slab by slab in one array."""
    terms = [(c0, np.eye(space.m), 1)] + [(c, u, -1) for c, u in units]
    return _generator_sum(space, [(c, _generator_rows(space, phi, sign), sign) for c, phi, sign in terms])


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
