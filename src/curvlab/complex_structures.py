"""Pseudo-Hermitian complex structures, quaternion structures, and admissibility.

The admissibility predicates gate which generators produce curvature tensors
whose skew-symmetric curvature operator has constant Jordan normal form on
complex lines: a single generator must be (skew-)self-adjoint with the right
commutation against J and square to +Id, -Id, or to zero with kernel equal to
range; a pair must additionally anti-commute through the inner product and,
in the doubly nilpotent case, map every non-degenerate complex line onto a
4-dimensional sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .pseudo_linalg import (
    DEFAULT_TOL,
    BilinearSpace,
    _check_matrix,
    _draws,
    _rank_from_singular_values,
    _stacked_dots,
    _unit_lines,
    adjoint,
    numeric_rank,
)

_ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _block_diagonal(n: int, block: np.ndarray) -> np.ndarray:
    """Copies of block down the diagonal of an n x n matrix; + 0.0 turns the
    -0.0 of kron's zero-times-negative products into 0.0."""
    return np.kron(np.eye(n // block.shape[0]), block) + 0.0


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """An isometry J with J^2 = -Id, turning R^(p,q) into a complex vector space.

    Both p and q must be even: pairing a timelike with a spacelike direction
    can never be an isometry squaring to -Id.  Every J caches an orthonormal
    basis of its +i eigenspace.
    """

    space: BilinearSpace
    J: np.ndarray

    def __post_init__(self) -> None:
        J = _check_matrix(self.space, self.J, "J")
        object.__setattr__(self, "J", J)
        if self.space.p % 2 != 0 or self.space.q % 2 != 0:
            raise ValueError(
                f"signature ({self.space.p}, {self.space.q}) admits no pseudo-Hermitian "
                "complex structure; both counts must be even"
            )
        if classify_square(J, self.space) is not SquareType.MINUS_ID:
            raise ValueError(f"J^2 != -Id, max residual {_max_abs(J @ J + np.eye(self.space.m)):.3e}")
        isometry_residual = _max_abs(J.T @ self.space.gram @ J - self.space.gram)
        if isometry_residual > DEFAULT_TOL * max(1.0, _max_abs(J) ** 2):
            raise ValueError(f"J is not an isometry, max residual {isometry_residual:.3e}")

    @cached_property
    def _plus_i_basis(self) -> np.ndarray:
        """Orthonormal basis (u - iJu) / sqrt(2) of J's +i eigenspace, {u_k, J u_k} by Gram-Schmidt from
        coordinate vectors in M = (Id + J^T J) / 2, which J preserves with M(v, Jv) = 0; M = Id exactly
        for an orthogonal J of integer entries, such as the standard J and the quaternion units."""
        m, J = self.space.m, self.J
        metric = (np.eye(m) + J.T @ J) / 2.0
        u = np.zeros((m, 0))
        for _ in range(m // 2):  # from the coordinate vector farthest from the span so far
            rest = np.eye(m) - u @ (u.T @ metric)
            v = rest[:, np.argmax((rest * (metric @ rest)).sum(axis=0))]
            v = v / np.sqrt(v @ metric @ v)
            u = np.column_stack([u, v, J @ v])
        return (u[:, 0::2] - 1j * u[:, 1::2]) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class QuaternionStructure:
    """Three complex structures i, j, k on one space with ij = k.

    Each unit is validated as a :class:`ComplexStructure`, and only ij = k is
    checked beyond that: with i^2 = j^2 = k^2 = -Id it gives ijk = -Id, hence
    jk = i, ki = j and ji = -k, and an isometry u with u^2 = -Id is
    skew-adjoint, as u* = u^-1 = -u.  The sign convention is right-handed;
    any consistent choice works, fixing one keeps golden values reproducible.
    as_complex is the complex structure J = i of the triple, the one that
    validated i, with its +i basis.
    """

    space: BilinearSpace
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    as_complex: ComplexStructure = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        units = {}
        for name in ("i", "j", "k"):
            try:
                units[name] = ComplexStructure(self.space, getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"quaternion unit {name}: {exc}") from exc
            object.__setattr__(self, name, units[name].J)
        residual = _max_abs(self.i @ self.j - self.k)
        if residual > DEFAULT_TOL * max(1.0, _max_abs(self.i) * _max_abs(self.j)):
            raise ValueError(f"quaternion relation ij = k fails, max residual {residual:.3e}")
        object.__setattr__(self, "as_complex", units["i"])


def standard_complex_structure(space: BilinearSpace) -> ComplexStructure:
    """Block-diagonal 2x2 rotations pairing coordinates of equal causal type."""
    if space.m % 2 != 0:
        raise ValueError(f"dimension {space.m} is odd, no complex structure exists")
    if space.p % 2 != 0:
        raise ValueError(
            f"timelike count p = {space.p} is odd; blocks must pair equal causal types"
        )
    return ComplexStructure(space, _block_diagonal(space.m, _ROT2))


# Left multiplication by i and j on H = span{1, i, j, k}; i is the standard
# complex structure on H = C^2, and k = ij.
_LEFT_I = np.kron(np.eye(2), _ROT2)
_LEFT_J = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])


def standard_quaternion_structure(space: BilinearSpace) -> QuaternionStructure:
    """4x4 blocks of quaternion left multiplication on each H-coordinate.

    Blocks sit on coordinate quadruples of equal causal type, so the timelike
    count must be 0 or divisible by 4.
    """
    if space.m % 4 != 0:
        raise ValueError(f"dimension {space.m} is not divisible by 4")
    if space.p % 4 != 0:
        raise ValueError(f"timelike count p = {space.p} must be 0 or divisible by 4")
    i, j = _block_diagonal(space.m, _LEFT_I), _block_diagonal(space.m, _LEFT_J)
    return QuaternionStructure(space, i, j, i @ j)


def _null_pair(space: BilinearSpace, block: np.ndarray) -> np.ndarray:
    """[[A, -A], [A, -A]] on signature (s, s), with A the s x s block diagonal
    of copies of block, whose size must divide s."""
    if space.p != space.q:
        raise ValueError(
            f"signature ({space.p}, {space.q}) is not of the form (s, s)"
        )
    if space.p % len(block) != 0:  # only the partner's 4 x 4 block can fail
        raise ValueError(
            f"timelike count p = {space.p} must be divisible by {len(block)} for the "
            "conjugate-linear block to square to -Id"
        )
    a = _block_diagonal(space.p, block)
    return np.block([[a, -a], [a, -a]])


def nilpotent_null_pair(space: BilinearSpace) -> np.ndarray:
    """Self-adjoint phi with phi^2 = 0 and kernel = range on signature (s, s).

    Each timelike basis vector f_i maps to the null vector f_i + e_i and the
    paired spacelike e_i to its negative, so the range is the totally
    isotropic span of the null pairs and equals the kernel.  When s is even
    the range is invariant under the standard complex structure and phi
    commutes with it.
    """
    return _null_pair(space, np.eye(1))


def nilpotent_null_pair_partner(space: BilinearSpace) -> np.ndarray:
    """Skew-adjoint nilpotent generator completing :func:`nilpotent_null_pair`
    to an admissible pair on signature (4t, 4t).

    Built as [[M, -M], [M, -M]] with M = -j, the negated quaternion unit j of
    signature (0, 4t).  M anticommutes with the rotation blocks of the
    standard complex structure and satisfies M^2 = -Id.  Such an M is
    conjugate-linear with no invariant complex line, which is exactly what
    forces the images of any non-degenerate complex line under the two
    generators to span 4 dimensions inside the shared isotropic range.
    """
    return _null_pair(space, -_LEFT_J)


class AdmissibleClass(Enum):
    SELF_ADJOINT_COMMUTING = "self_adjoint_commuting"
    SELF_ADJOINT_ANTICOMMUTING = "self_adjoint_anticommuting"
    SKEW_ADJOINT_ANTICOMMUTING = "skew_adjoint_anticommuting"
    NOT_ADMISSIBLE = "not_admissible"


class SquareType(Enum):
    PLUS_ID = "plus_id"
    MINUS_ID = "minus_id"
    NILPOTENT_KERNEL_EQUALS_RANGE = "nilpotent_kernel_equals_range"
    NONE = "none"


def classify_square(phi: np.ndarray, space: BilinearSpace, tol: float = DEFAULT_TOL) -> SquareType:
    """Which of phi^2 = 0 with ker = range, phi^2 = +Id, or phi^2 = -Id holds.

    The candidate nearest to phi^2 is tested: 0 at tol * max |phi|^2, +-Id at
    tol * max(max |phi|^2, 1); past max |phi| = 1/sqrt(tol) a square can pass
    both.  The nilpotent verdict also requires rank m/2: phi^2 = 0 puts the
    range inside the kernel, and both then have dimension m/2, so they coincide.
    """
    phi = _check_matrix(space, phi, "phi")
    m = space.m
    scale = _max_abs(phi) ** 2
    square = phi @ phi
    residuals = {SquareType.NILPOTENT_KERNEL_EQUALS_RANGE: _max_abs(square),
                 SquareType.PLUS_ID: _max_abs(square - np.eye(m)),
                 SquareType.MINUS_ID: _max_abs(square + np.eye(m))}
    verdict = min(residuals, key=residuals.get)
    if verdict is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE:
        holds = residuals[verdict] <= tol * scale and m % 2 == 0 and numeric_rank(phi, tol) == m // 2
    else:
        holds = residuals[verdict] <= tol * max(scale, 1.0)
    return verdict if holds else SquareType.NONE


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible_class: AdmissibleClass
    square_type: SquareType
    residuals: dict[str, float]

    @property
    def admissible(self) -> bool:
        return (
            self.admissible_class is not AdmissibleClass.NOT_ADMISSIBLE
            and self.square_type is not SquareType.NONE
        )


def check_admissible(
    phi: np.ndarray, J: ComplexStructure, tol: float = DEFAULT_TOL
) -> AdmissibilityReport:
    """Classify phi against the adjoint/commutation and square conditions: the
    former hold at tol * max |phi| (J counts as 1), the latter as in
    :func:`classify_square`, so no verdict depends on the scale of phi."""
    space = J.space
    phi = _check_matrix(space, phi, "phi")
    star = adjoint(space, phi)
    residuals = {
        "self_adjoint": _max_abs(phi - star),
        "skew_adjoint": _max_abs(phi + star),
        "commute_J": _max_abs(phi @ J.J - J.J @ phi),
        "anticommute_J": _max_abs(phi @ J.J + J.J @ phi),
    }
    bound = tol * _max_abs(phi)
    holds = {name: r <= bound for name, r in residuals.items()}

    if holds["self_adjoint"] and holds["commute_J"]:
        cls = AdmissibleClass.SELF_ADJOINT_COMMUTING
    elif holds["self_adjoint"] and holds["anticommute_J"]:
        cls = AdmissibleClass.SELF_ADJOINT_ANTICOMMUTING
    elif holds["skew_adjoint"] and holds["anticommute_J"]:
        cls = AdmissibleClass.SKEW_ADJOINT_ANTICOMMUTING
    else:
        cls = AdmissibleClass.NOT_ADMISSIBLE
    return AdmissibilityReport(cls, classify_square(phi, space, tol), residuals)


@dataclass(frozen=True)
class PairReport:
    admissible: bool
    residuals: dict[str, float]
    min_line_rank: int | None
    seed: int | None


def check_admissible_pair(
    phi1: np.ndarray,
    phi2: np.ndarray,
    J: ComplexStructure,
    n_lines: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PairReport:
    """Check the pair conditions: phi1 commutes with J, phi2 anti-commutes,
    phi1* phi2 + phi2* phi1 = 0, and (when both squares vanish) the images of
    sampled non-degenerate complex lines span 4 dimensions.  Commutation is
    decided by :func:`check_admissible`, at each generator's own scale, and
    the cross-adjoint residual passes at tol * max |phi1| * max |phi2|.

    The line condition quantifies over the whole Grassmannian.  It is open, so
    the lines where it fails form a closed set, which can be null and missed by
    sampling: the report records the minimum rank over n_lines lines, made by
    _unit_lines from the seed's draws, each draw g in the causal type of the
    sign of its own (g, g).  Non-admissible inputs are rejected first.
    """
    space = J.space
    phi1 = _check_matrix(space, phi1, "phi1")
    phi2 = _check_matrix(space, phi2, "phi2")
    rep1 = check_admissible(phi1, J, tol)
    rep2 = check_admissible(phi2, J, tol)
    if not rep1.admissible:
        raise ValueError(f"phi1 is not admissible: {rep1.admissible_class.value}, {rep1.square_type.value}")
    if not rep2.admissible:
        raise ValueError(f"phi2 is not admissible: {rep2.admissible_class.value}, {rep2.square_type.value}")

    residuals = {
        "phi1_commute_J": rep1.residuals["commute_J"],
        "phi2_anticommute_J": rep2.residuals["anticommute_J"],
        "cross_adjoint": _max_abs(
            adjoint(space, phi1) @ phi2 + adjoint(space, phi2) @ phi1
        ),
    }
    commuting = AdmissibleClass.SELF_ADJOINT_COMMUTING
    ok = rep1.admissible_class is commuting and rep2.admissible_class is not commuting
    ok = ok and residuals["cross_adjoint"] <= tol * _max_abs(phi1) * _max_abs(phi2)

    min_rank: int | None = None
    used_seed: int | None = None
    both_nilpotent = (
        rep1.square_type is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE
        and rep2.square_type is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE
    )
    if both_nilpotent:
        used_seed = seed
        g = _draws(n_lines, seed, space.m)
        lines = _unit_lines(space, J.J, g, _stacked_dots(g, space.signs * g) > 0)
        # (n, m, 4) images [phi1 x, phi1 y, phi2 x, phi2 y], each bitwise those of its line alone.
        xs, ys = np.array([line.x for line in lines]), np.array([line.y for line in lines])
        images = np.concatenate([phi @ v[:, :, None] for phi in (phi1, phi2) for v in (xs, ys)], axis=2)
        min_rank = int(_rank_from_singular_values(np.linalg.svd(images, compute_uv=False), tol).min())
        ok = ok and min_rank == 4

    return PairReport(admissible=ok, residuals=residuals, min_line_rank=min_rank, seed=used_seed)
