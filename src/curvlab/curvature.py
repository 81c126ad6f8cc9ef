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
copies.  The constructors, `curvlab run` and the identity-plus-skew builders all
build through one slab-by-slab sum of generator tensors, so no term tensor is alive.

Every pass over the m^4 entries (generator sums, :func:`combine` and the three
identity checks) runs over slabs of about 2^14 entries, whole values of the
first index.  A slab repeats the whole-array arithmetic on its entries,
in the same order, so values, witnesses and signed zeros are those of the whole
array, while only the output, or the slot-0 pullback of the J checks, is whole.
The pair term R[c,d,a,b] of the symmetry check reads an exact contiguous copy of
the slot-2 slab r[:, :, sl], whose inner stride is 256 B at m = 32, not 8 KB.
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


# First-index values per slab of an m^4 pass: slabs of about 2^14 entries, so
# one slab up to m = 12, width 4 at m = 16 and 1 at m = 32, the fastest widths
# measured at both sizes (README, "Numerical conventions").
def _slabs(m: int) -> list[slice]:
    width = max(1, 2**14 // m**3)
    return [slice(i, i + width) for i in range(0, m, width)]


def _fold_max(
    best: tuple[float, tuple[int, ...]], sl: slice, a: np.ndarray
) -> tuple[float, tuple[int, ...]]:
    """`best` of the earlier slabs, (-1.0, ()) before the first, updated with slab a
    at first indices sl.  An earlier slab keeps a tie and the first NaN wins, so
    the slabs in order give what `_argmax_entry` gives on the whole array."""
    worst, (i, *rest) = _argmax_entry(a)
    if worst > best[0] or (np.isnan(worst) and not np.isnan(best[0])):
        return worst, (sl.start + i, *rest)
    return best


def _generator_rows(space: BilinearSpace, phi: np.ndarray, sign: int) -> np.ndarray:
    """B[i, j] = (phi e_i, e_j) for phi* = sign * phi, which is checked to DEFAULT_TOL * max |phi|."""
    phi = _check_matrix(space, phi, "phi")
    worst, where = _argmax_entry(phi - sign * adjoint(space, phi))
    if worst > DEFAULT_TOL * float(np.max(np.abs(phi))):
        kind, op = ("self", "-") if sign > 0 else ("skew", "+")
        raise ValueError(
            f"phi is not {kind}-adjoint: |phi {op} phi*| = {worst:.3e} at entry {where}"
        )
    return phi.T * space.signs[None, :]


def _generator_slab(b: np.ndarray, sign: int, sl: slice, out: np.ndarray) -> np.ndarray:
    """Slab sl of R_phi, from B, into out; the later outer products are subtracted
    in place, 2 (phi x, y)(phi z, w) last."""
    np.einsum("bc,ad->abcd", b, b[sl], out=out)
    out -= np.einsum("ac,bd->abcd", b[sl], b)
    if sign < 0:
        out -= 2.0 * np.einsum("ab,cd->abcd", b[sl], b)
    return out


def _generator_sum(space: BilinearSpace, terms: list[tuple[float, np.ndarray, int]]) -> CurvatureTensor:
    """sum_i c_i R_phi_i over checked terms (c_i, B_i, sign_i) of _generator_rows: the one
    build path of the constructors (one term, c = 1), of `curvlab run` and of the builders.

    Each slab of each term, in order, is made in one reused buffer, scaled in place and added
    to a zero-initialised output, so -0.0 is cleared and a sum has the bits of combine over its
    constructors, which run this same code, with no term tensor.  A term with c_i = 0 is
    skipped: it would add only +-0.0, or NaN where its products overflow."""
    coeffs = np.zeros((space.m,) * 4)
    buf = np.empty_like(coeffs[_slabs(space.m)[0]])
    for sl in _slabs(space.m):
        out = coeffs[sl]
        for c, b, sign in terms:
            if c == 0.0:
                continue
            term = _generator_slab(b, sign, sl, buf[: len(out)])
            term *= float(c)
            out += term
    return CurvatureTensor(space, coeffs)


def from_self_adjoint(space: BilinearSpace, phi: np.ndarray) -> CurvatureTensor:
    """Curvature tensor (phi y, z)(phi x, w) - (phi x, z)(phi y, w).

    phi = Id yields the constant sectional curvature tensor of the unit
    pseudo-sphere; more generally this is the Gauss-equation tensor of a
    hypersurface with shape operator phi.
    """
    return _generator_sum(space, [(1.0, _generator_rows(space, phi, 1), 1)])


def from_skew_adjoint(space: BilinearSpace, phi: np.ndarray) -> CurvatureTensor:
    """Curvature tensor (phi y, z)(phi x, w) - (phi x, z)(phi y, w) - 2 (phi x, y)(phi z, w)."""
    return _generator_sum(space, [(1.0, _generator_rows(space, phi, -1), -1)])


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
        for sl in _slabs(space.m):
            coeffs[sl] += float(c) * tensor.coeffs[sl]
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
    anti = pair = bianchi = (-1.0, ())
    for sl in _slabs(tensor.space.m):
        anti = _fold_max(anti, sl, r[sl] + r[:, sl].swapaxes(0, 1))
        pair = _fold_max(pair, sl, r[sl] - np.ascontiguousarray(r[:, :, sl]).transpose(2, 3, 0, 1))
        bianchi = _fold_max(
            bianchi, sl, r[sl] + r[:, :, sl].transpose(2, 0, 1, 3) + r[:, sl].transpose(1, 2, 0, 3)
        )
    (a_max, a_at), (p_max, p_at), (b_max, b_at) = anti, pair, bianchi
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
    # axis of r viewed as (-1, m, m^(3-s)), and the last slot multiplies from
    # the right.  So slots 1-3 act on a slab r[i:j] as on the whole array.
    m = t.shape[0]
    for s in slots:
        r = r @ t if s == 3 else (t.T @ r.reshape(-1, m, m ** (3 - s))).reshape(r.shape)
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
    every non-degenerate complex line, so it is the almost complex condition,
    decided with no line sampled: at m = 4, 6 and 8, definite, split and with a
    boosted J, both cut out the same 12-, 57- and 176-dimensional subspaces of
    the algebraic curvature tensors.  A J of another space than the tensor's
    raises ValueError.  It passes at a largest violation of at most
    tol * max |R|, whatever the scale; the witness is that entry's indices.
    """
    _check_space("structure", J.space, tensor)
    r, j = tensor.coeffs, J.J
    # Slot 0 mixes the slabs, so it is applied once to the whole array.
    b = _pullback(r, j, (0,))
    best = (-1.0, ())
    for sl in _slabs(tensor.space.m):
        best = _fold_max(best, sl, _pullback(b[sl], j, (1, 2, 3)) - r[sl])
    worst, where = best
    return InvarianceReport(worst <= tol * tensor.scale, worst, where)


def check_gray_identity(
    tensor: CurvatureTensor, J: ComplexStructure, tol: float = 1e-10
) -> InvarianceReport:
    """Check the six-term Gray symmetry satisfied by holomorphic Hermitian curvature:

        R(x,y,z,w) + R(Jx,Jy,Jz,Jw) =   R(Jx,Jy,z,w) + R(Jx,y,Jz,w) + R(Jx,y,z,Jw)
                                      + R(x,Jy,Jz,w) + R(x,Jy,z,Jw) + R(x,y,Jz,Jw)

    With J_s the pullback by J in slot s alone, the left side minus the right
    is the real part of (1 + iJ_0)(1 + iJ_1)(1 + iJ_2)(1 + iJ_3) R, held as
    a + ib and taken one slot at a time: slot 0 once on the whole array, then
    five single-slot contractions per slab, as the last slot needs only the real
    part.  So one m^4 array and a few slabs are alive at once.
    It passes at a largest violation of at most tol * max |R|; a J of another space raises.
    """
    _check_space("structure", J.space, tensor)
    r, j = tensor.coeffs, J.J
    b0 = _pullback(r, j, (0,))
    best = (-1.0, ())
    for sl in _slabs(tensor.space.m):
        a, b = r[sl], b0[sl]
        for s in (1, 2):
            pb = _pullback(b, j, (s,))
            b += _pullback(a, j, (s,))
            a = a - pb
        # In place: a is no longer a view of the caller's coefficients here.
        a -= _pullback(b, j, (3,))
        best = _fold_max(best, sl, a)
    worst, where = best
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
