"""Algebraic curvature tensors: generator constructors and identity checkers.

An algebraic curvature tensor is a rank-4 array R[a,b,c,d] = R(e_a,e_b,e_c,e_d)
satisfying

    R(x,y,z,w) = -R(y,x,z,w)                       (antisymmetry)
    R(x,y,z,w) =  R(z,w,x,y)                       (pair symmetry)
    R(x,y,z,w) + R(y,z,x,w) + R(z,x,y,w) = 0       (first Bianchi identity)

The two constructors build such tensors from a single endomorphism phi:

    self-adjoint phi:  R(x,y,z,w) = (phi y, z)(phi x, w) - (phi x, z)(phi y, w)
    skew-adjoint phi:  the same two terms minus 2 (phi x, y)(phi z, w)

Both are exact in floating point once phi is exactly (skew-)self-adjoint,
because every product reappears with the same rounding wherever a symmetry
demands cancellation.

Coefficients are stored as a dense, C-contiguous m^4 array with no symmetry
compression, which keeps every entry inspectable; at m = 32, the largest size
audited so far, one tensor takes 8 MB.  C order makes the (m^2, m^2) view that
operator assembly multiplies by, and the slot views of the pullback, free of
copies.  :func:`combine` sums its terms one at a time, and `curvlab run` hands
them over one at a time, so only the combined tensor is alive while checks run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .complex_structures import ComplexStructure
from .pseudo_linalg import DEFAULT_TOL, BilinearSpace, _check_matrix, _check_vector, adjoint


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """Rank-4 coefficient array over a bilinear space.

    Entry [a, b, c, d] is R(e_a, e_b, e_c, e_d).  Instances built by the
    module constructors satisfy the curvature symmetries; hand-built arrays
    can be audited with :func:`check_symmetries`.
    """

    space: BilinearSpace
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        m = self.space.m
        coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        if coeffs.shape != (m, m, m, m):
            raise ValueError(f"coefficient array has shape {coeffs.shape}, expected {(m,) * 4}")
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def scale(self) -> float:
        """max |R|, the unit of the tensor-level checks, read without an |R| temporary."""
        return float(max(self.coeffs.max(), -self.coeffs.min()))


def _check_space(what: str, space: BilinearSpace, tensor: CurvatureTensor) -> None:
    if space != tensor.space:
        raise ValueError(f"{what} in {space} used with a tensor in {tensor.space}")


def _argmax_entry(a: np.ndarray) -> tuple[float, tuple[int, ...]]:
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    return float(abs(a[idx])), tuple(int(i) for i in idx)


def _generator_tensor(space: BilinearSpace, phi: np.ndarray, sign: int) -> CurvatureTensor:
    """R_phi for phi* = sign * phi, which is checked to DEFAULT_TOL * max |phi|;
    the later outer products are subtracted in place, 2 (phi x, y)(phi z, w) last."""
    phi = _check_matrix(space, phi, "phi")
    worst, where = _argmax_entry(phi - sign * adjoint(space, phi))
    if worst > DEFAULT_TOL * float(np.max(np.abs(phi))):
        kind, op = ("self", "-") if sign > 0 else ("skew", "+")
        raise ValueError(
            f"phi is not {kind}-adjoint: |phi {op} phi*| = {worst:.3e} at entry {where}"
        )
    b = phi.T * space.signs[None, :]  # B[i, j] = (phi e_i, e_j)
    coeffs = np.einsum("bc,ad->abcd", b, b, order="C")
    coeffs -= np.einsum("ac,bd->abcd", b, b, order="C")
    if sign < 0:
        coeffs -= 2.0 * np.einsum("ab,cd->abcd", b, b, order="C")
    return CurvatureTensor(space, coeffs)


def from_self_adjoint(space: BilinearSpace, phi: np.ndarray) -> CurvatureTensor:
    """Curvature tensor (phi y, z)(phi x, w) - (phi x, z)(phi y, w).

    phi = Id yields the constant sectional curvature tensor of the unit
    pseudo-sphere; more generally this is the Gauss-equation tensor of a
    hypersurface with shape operator phi.
    """
    return _generator_tensor(space, phi, 1)


def from_skew_adjoint(space: BilinearSpace, phi: np.ndarray) -> CurvatureTensor:
    """Curvature tensor (phi y, z)(phi x, w) - (phi x, z)(phi y, w) - 2 (phi x, y)(phi z, w)."""
    return _generator_tensor(space, phi, -1)


def combine(terms: Iterable[tuple[float, CurvatureTensor]]) -> CurvatureTensor:
    """Entrywise linear combination sum_i c_i R_i; all tensors must share one space.

    Each term is added in place, as it arrives, to one zero-initialised array: a
    generator of terms need not keep the earlier ones, and 0.0 + c R clears -0.0."""
    space = coeffs = None
    for c, tensor in terms:
        if space is None:
            space, coeffs = tensor.space, np.zeros_like(tensor.coeffs)
        elif tensor.space != space:
            raise ValueError(
                f"space mismatch: ({tensor.space.p}, {tensor.space.q}) vs ({space.p}, {space.q})"
            )
        coeffs += float(c) * tensor.coeffs
    if space is None:
        raise ValueError("combine needs at least one (coefficient, tensor) term")
    return CurvatureTensor(space, coeffs)


@dataclass(frozen=True)
class SymmetryReport:
    """Max violation and argmax quadruple for each curvature identity."""

    passed: bool
    antisymmetry: float
    antisymmetry_witness: tuple[int, ...]
    pair_symmetry: float
    pair_symmetry_witness: tuple[int, ...]
    bianchi: float
    bianchi_witness: tuple[int, ...]

    @property
    def max_violation(self) -> float:
        return max(self.antisymmetry, self.pair_symmetry, self.bianchi)


def check_symmetries(tensor: CurvatureTensor, tol: float = 1e-10) -> SymmetryReport:
    """Audit the three curvature identities entrywise; report only, never raises.

    It passes when the largest violation is at most tol * max |R|, as the
    J checks do, so the verdict does not depend on the tensor's scale.
    """
    r = tensor.coeffs
    a_max, a_at = _argmax_entry(r + r.swapaxes(0, 1))
    p_max, p_at = _argmax_entry(r - r.transpose(2, 3, 0, 1))
    b_max, b_at = _argmax_entry(r + np.einsum("abcd->cabd", r) + np.einsum("abcd->bcad", r))
    passed = max(a_max, p_max, b_max) <= tol * tensor.scale
    return SymmetryReport(passed, a_max, a_at, p_max, p_at, b_max, b_at)


def apply_pairs(tensor: CurvatureTensor, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The endomorphisms R(x_i, y_i) for the rows of xs and ys, as an (n, m, m) stack.

    One matrix product: the rows x_i (x) y_i, an (n, m^2) matrix, times the
    coefficients viewed as (m^2, m^2) give N_i[c, d] = R(x_i, y_i, e_c, e_d),
    and R(x_i, y_i) = G N_i^T.  The sums run in BLAS order, so the result
    agrees with the contraction ``einsum("a,b,abcd->cd", x, y, R)`` to about
    1e-15 relative, not bitwise.
    """
    space = tensor.space
    m = space.m
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != m or ys.shape != xs.shape:
        raise ValueError(f"xs and ys have shapes {xs.shape}, {ys.shape}; expected (n, {m}) each")
    pairs = (xs[:, :, None] * ys[:, None, :]).reshape(-1, m * m)
    n = (pairs @ tensor.coeffs.reshape(m * m, m * m)).reshape(-1, m, m)
    return space.signs[:, None] * n.transpose(0, 2, 1)


def apply_pair(tensor: CurvatureTensor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The endomorphism R(x, y) defined by (R(x,y) z, w) = R(x, y, z, w)."""
    space = tensor.space
    x = _check_vector(space, x, "x")
    y = _check_vector(space, y, "y")
    return apply_pairs(tensor, x[None], y[None])[0]


def pullback(tensor: CurvatureTensor, t: np.ndarray) -> CurvatureTensor:
    """(T* R)(x, y, z, w) = R(Tx, Ty, Tz, Tw); preserves the symmetries for any T."""
    t = _check_matrix(tensor.space, t, "T")
    return CurvatureTensor(tensor.space, _pullback(tensor.coeffs, t, (0, 1, 2, 3)))


def _pullback(r: np.ndarray, t: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """Apply T to the given argument slots of r only, e.g. (0, 1) gives R(Tx, Ty, z, w)."""
    # One matrix product per slot, with no transposed copy: slot s is the middle
    # axis of r viewed as (m^s, m, m^(3-s)), and the last slot multiplies from
    # the right.
    m = t.shape[0]
    for s in slots:
        r = r @ t if s == 3 else (t.T @ r.reshape(m**s, m, -1)).reshape(r.shape)
    return r


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    max_violation: float
    witness: tuple[int, ...]


def check_J_invariance(
    tensor: CurvatureTensor, J: ComplexStructure, tol: float = 1e-10
) -> InvarianceReport:
    """Whether R(Jx, Jy, Jz, Jw) = R(x, y, z, w) entrywise.

    This finite tensor identity is equivalent to R(pi) commuting with J on
    every non-degenerate complex line, so it serves as the exact form of the
    almost complex condition; the per-line commutator is the sampled
    cross-check.  A J of another space than the tensor's raises ValueError.  It
    passes at a largest violation of at most tol * max |R|, whatever the scale.
    """
    _check_space("structure", J.space, tensor)
    worst, where = _argmax_entry(pullback(tensor, J.J).coeffs - tensor.coeffs)
    return InvarianceReport(worst <= tol * tensor.scale, worst, where)


def check_gray_identity(
    tensor: CurvatureTensor, J: ComplexStructure, tol: float = 1e-10
) -> InvarianceReport:
    """Check the six-term Gray symmetry satisfied by holomorphic Hermitian curvature:

        R(x,y,z,w) + R(Jx,Jy,Jz,Jw) =   R(Jx,Jy,z,w) + R(Jx,y,Jz,w) + R(Jx,y,z,Jw)
                                      + R(x,Jy,Jz,w) + R(x,Jy,z,Jw) + R(x,y,Jz,Jw)

    With J_s the pullback by J in slot s alone, the left side minus the right
    is the real part of (1 + iJ_0)(1 + iJ_1)(1 + iJ_2)(1 + iJ_3) R, held as
    a + ib and taken one slot at a time: six single-slot contractions, as the
    last slot needs only the real part, with at most four m^4 arrays alive at once.
    It passes at a largest violation of at most tol * max |R|; a J of another space raises.
    """
    _check_space("structure", J.space, tensor)
    a, b = tensor.coeffs, _pullback(tensor.coeffs, J.J, (0,))
    for s in (1, 2):
        pb = _pullback(b, J.J, (s,))
        b += _pullback(a, J.J, (s,))
        a = a - pb
    # In place, so the last pb alive beside it keeps the peak at four arrays;
    # a is no longer the caller's coefficients after the first pass.
    a -= _pullback(b, J.J, (3,))
    worst, where = _argmax_entry(a)
    return InvarianceReport(worst <= tol * tensor.scale, worst, where)


def random_algebraic_curvature_tensor(
    space: BilinearSpace, seed: int | np.random.Generator = 0
) -> CurvatureTensor:
    """A generic curvature tensor: project Gaussian noise onto the symmetry class.

    Antisymmetrize both index pairs, symmetrize the pair exchange, then
    subtract the cyclic (Bianchi) part, which is a 4-form and therefore keeps
    the first two symmetries intact.
    """
    m = space.m
    t = np.random.default_rng(seed).standard_normal((m, m, m, m))
    t = 0.5 * (t - t.swapaxes(0, 1))
    t = 0.5 * (t - t.swapaxes(2, 3))
    t = 0.5 * (t + t.transpose(2, 3, 0, 1))
    cyclic = (t + np.einsum("abcd->cabd", t) + np.einsum("abcd->bcad", t)) / 3.0
    return CurvatureTensor(space, t - cyclic)


def projected_generator(
    space: BilinearSpace,
    J: ComplexStructure,
    adjoint_sign: int,
    commutation_sign: int,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Random phi with phi* = adjoint_sign * phi and phi J = commutation_sign * J phi.

    Built by averaging a Gaussian matrix with its (signed) adjoint and
    J-conjugate; the two projections commute, so both constraints hold to
    machine precision.
    """
    if adjoint_sign not in (-1, 1) or commutation_sign not in (-1, 1):
        raise ValueError("signs must be +1 or -1")
    phi = np.random.default_rng(seed).standard_normal((space.m, space.m))
    phi = 0.5 * (phi + adjoint_sign * adjoint(space, phi))
    # J phi J = -phi for commuting phi and +phi for anticommuting phi.
    phi = 0.5 * (phi - commutation_sign * J.J @ phi @ J.J)
    phi = 0.5 * (phi + adjoint_sign * adjoint(space, phi))
    return phi
