"""Inner products of arbitrary signature, adjoints, oriented planes, and Jordan invariants.

Vectors and linear maps are plain numpy arrays; a :class:`BilinearSpace` is
its signature, which fixes the diagonal Gram matrix.  Non-degeneracy and the
generator and structure checks all use the one constant ``DEFAULT_TOL``.
Everything here is a pure function over immutable values, so concurrent use
needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, ClassVar, Sequence

import numpy as np

DEFAULT_TOL = 1e-8


class PlaneClass(Enum):
    """Causal type of a 2-plane, read off from the restricted Gram matrix."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    MIXED = "mixed"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class BilinearSpace:
    """R^(p,q): p timelike directions (inner product -1) then q spacelike (+1).

    The Gram matrix is fixed to diag(-1,...,-1,+1,...,+1); this standard model
    loses no generality and keeps adjoints explicit.  ``tol`` is the constant
    DEFAULT_TOL, so two spaces of one signature are equal.
    """

    p: int
    q: int
    tol: ClassVar[float] = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be nonnegative, got ({self.p}, {self.q})")
        if self.m < 2:
            raise ValueError(f"dimension p + q = {self.m} must be at least 2")

    @property
    def m(self) -> int:
        return self.p + self.q

    @cached_property
    def signs(self) -> np.ndarray:
        """Diagonal of the Gram matrix as a vector of exact +-1.0 entries."""
        s = np.ones(self.m)
        s[: self.p] = -1.0
        s.setflags(write=False)
        return s

    @cached_property
    def gram(self) -> np.ndarray:
        g = np.diag(self.signs)
        g.setflags(write=False)
        return g


def _check_vector(space: BilinearSpace, v: np.ndarray, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (space.m,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({space.m},)")
    return v


def _check_matrix(space: BilinearSpace, a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (space.m, space.m):
        raise ValueError(f"{name} has shape {a.shape}, expected ({space.m}, {space.m})")
    return a


def inner(space: BilinearSpace, x: np.ndarray, y: np.ndarray) -> float:
    """Signature (p,q) inner product x^T G y."""
    x = _check_vector(space, x, "x")
    y = _check_vector(space, y, "y")
    return float(x @ (space.signs * y))


def adjoint(space: BilinearSpace, a: np.ndarray) -> np.ndarray:
    """Adjoint A* with (Av, w) = (v, A*w), i.e. G^-1 A^T G.

    Implemented as exact sign flips of the transpose, so the involution
    (A*)* == A holds bitwise.
    """
    a = _check_matrix(space, a)
    return space.signs[:, None] * a.T * space.signs[None, :]


def _stacked_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, m) stacks.  Each row goes to the BLAS
    ddot that a[i].dot(b[i]) makes, so each is bitwise that row's dot; einsum
    and (a * b).sum(-1) sum in another order."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


_TYPES = np.array([PlaneClass.TIMELIKE, PlaneClass.SPACELIKE] + [PlaneClass.MIXED] * 2
                  + [PlaneClass.DEGENERATE] * 4, dtype=object)


def _gram_rule(xx: Any, xy: Any, yy: Any, x2: Any, y2: Any) -> tuple[Any, Any]:
    """Gram determinants of planes span{x, y} from float or array dots (x,x), (x,y), (y,y),
    x.x, y.y, and their types: DEGENERATE when |det| <= DEFAULT_TOL |x|^2 |y|^2, else MIXED
    when det < 0, else SPACELIKE when (x,x) + (y,y) > 0, else TIMELIKE, as when all fail on NaN."""
    det = xx * yy - xy * xy
    return det, _TYPES[4 * (abs(det) <= DEFAULT_TOL * (x2 * y2)) + 2 * (det < 0) + (xx + yy > 0)]


def _plane_gram(space: BilinearSpace, x: np.ndarray, y: np.ndarray) -> tuple[Any, Any]:
    """_gram_rule of span{x, y} for checked vectors, or row by row of two (k, m) stacks,
    whose _stacked_dots make for each row the ddot that x.dot(y) makes for its pair."""
    dot = _stacked_dots if x.ndim == 2 else lambda a, b: float(a.dot(b))
    sy = space.signs * y
    return _gram_rule(dot(x, space.signs * x), dot(x, sy), dot(y, sy), dot(x, x), dot(y, y))


def classify_plane(space: BilinearSpace, x: np.ndarray, y: np.ndarray) -> Any:
    """Causal type of span{x, y} from the signature of the restricted Gram matrix;
    DEGENERATE for a near-zero determinant, linear dependence included.  For (k, m) stacks
    x, y, the (k,) arrays (dets, types) of their rows, bitwise those of each pair alone."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim < 2 and y.ndim < 2:
        return _plane_gram(space, _check_vector(space, x, "x"), _check_vector(space, y, "y"))[1]
    if x.ndim != 2 or x.shape != y.shape or x.shape[1] != space.m:
        raise ValueError(f"x and y have shapes {x.shape} and {y.shape}, expected two (k, {space.m}) stacks")
    # x.dot copies a vector of stride <= 0 for its ddot; a stacked product reads it in place.
    return _plane_gram(space, *(v if v.strides[1] > 0 else v.copy() for v in (x, y)))


@dataclass(frozen=True, eq=False)
class OrientedPlane:
    """An ordered spanning pair {x, y} of a 2-plane in space, whose Gram
    determinant det = (x,x)(y,y) - (x,y)^2 and causal type plane_class are
    decided once, when it is made; it may be degenerate.  Whether it is a
    complex line depends on a structure J, so the checks given J decide it."""

    space: BilinearSpace
    x: np.ndarray
    y: np.ndarray
    det: float = field(init=False)
    plane_class: PlaneClass = field(init=False)

    def __post_init__(self) -> None:
        x, y = _check_vector(self.space, self.x, "x"), _check_vector(self.space, self.y, "y")
        det, plane_class = _plane_gram(self.space, x, y)
        self.__dict__.update(x=x, y=y, det=det, plane_class=plane_class)  # past the frozen __setattr__

    @classmethod
    def _with_gram(cls, space: BilinearSpace, x: np.ndarray, y: np.ndarray, det: float,
                   plane_class: PlaneClass) -> OrientedPlane:
        """The plane of checked vectors x, y whose _plane_gram is (det, plane_class),
        made without computing it again."""
        plane = object.__new__(cls)
        plane.__dict__.update(space=space, x=x, y=y, det=det, plane_class=plane_class)
        return plane


def _rank_from_singular_values(s: np.ndarray, tol: float) -> np.ndarray:
    """Per row of s, singular values in descending order along the last axis,
    the count above tol times the largest; 0 for the zero map.  A tol that is
    not positive and finite raises ValueError: an infinite one would give rank 0."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def numeric_rank(a: np.ndarray, tol: float) -> int:
    """Number of singular values above tol times the largest one; 0 for the zero map."""
    a = np.asarray(a)
    s = np.linalg.svd(a, compute_uv=False) if a.size else np.empty(0)
    return int(_rank_from_singular_values(s, tol))


# The largest minor-to-major norm ratio of a sample: every sample then has kappa =
# |x|^2 |y|^2 / |det| <= ((1 + 0.81) / (1 - 0.81))^2 < 91.
_MINOR = 0.9


def _draws(n: int, seed: int, *shape: int) -> np.ndarray:
    """The seed's (n, *shape) standard-normal draws, the first k rows those of n = k; n < 1 raises ValueError."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    return np.random.default_rng(seed).standard_normal((n, *shape))


def _typed_vectors(space: BilinearSpace, g: np.ndarray, spacelike: Any) -> np.ndarray:
    """The rows of draws g made spacelike where spacelike, a bool or a mask over the rows, else
    timelike: each keeps its major part a, on the coordinates of its type, and scales its minor
    part b, on the others, by _MINOR |a| / (|a| + |b|).  A row with no minor part keeps its bits."""
    major = (space.signs > 0) == np.asarray(spacelike)[..., None]
    a, b = (np.linalg.norm(np.where(mask, g, 0.0), axis=-1, keepdims=True) for mask in (major, ~major))
    return np.where(major, g, g * (_MINOR * a / (a + b)))


def _unit_lines(space: BilinearSpace, j: np.ndarray, g: np.ndarray, spacelike: Any) -> list[OrientedPlane]:
    """The complex lines span{x, j x}, in row order, of the rows x of _typed_vectors(space, g,
    spacelike) rescaled to |(x, x)| = 1.  (x, x), j x and _plane_gram are stacked BLAS calls
    that make, row by row, the ddot or gemv of that row alone, so each line has the bits of
    OrientedPlane(space, x, j @ x) made for its x.  A degenerate line raises ValueError: a j
    far from orthogonal gives one where |j x| |x| passes |(x, x)| / sqrt(DEFAULT_TOL)."""
    xs = _typed_vectors(space, g, spacelike)
    xs = xs / np.sqrt(np.abs(_stacked_dots(xs, space.signs * xs)))[:, None]
    ys = (j @ xs[:, :, None])[:, :, 0]
    dets, types = _plane_gram(space, xs, ys)
    if (types == PlaneClass.DEGENERATE).any():
        raise ValueError("this structure's complex lines are degenerate: span{x, Jx} fails the plane test")
    return [OrientedPlane._with_gram(space, x, y, det, t) for x, y, det, t in zip(xs, ys, dets.tolist(), types)]


@dataclass(frozen=True)
class JordanInvariants:
    """Computable fingerprint of a Jordan normal form.

    clusters pairs each eigenvalue representative with its algebraic
    multiplicity, ordered by real then imaginary part as rounded to multiples
    of the clustering threshold; rank_sequences[i] holds the numeric ranks of
    (A - lambda_i I)^k for k = 1..multiplicity.  Together these determine the
    Jordan block structure without constructing an (ill-conditioned) Jordan
    basis.  A sequence is computed only until its rank stops changing or
    reaches m - multiplicity; the tail repeats that last rank.  scale is
    sigma_max(A), the unit of every cutoff here and in jordan_equivalent.

    _members, private and outside equality and repr, counts per cluster the members that are
    eigenvalues of A_c on C^{m/2}, or all of them: _ranks_at makes only blocks with members.
    """

    dimension: int
    clusters: tuple[tuple[complex, int], ...]
    rank_sequences: tuple[tuple[int, ...], ...]
    total_rank: int
    clustering_ambiguous: bool
    scale: float
    _members: tuple[int, ...] = field(default=(), repr=False, compare=False)


def _cluster_eigenvalues(evals: np.ndarray, threshold: float) -> tuple[np.ndarray, bool]:
    """Single-linkage clusters of a row of eigenvalues at distance threshold as roots,
    roots[i] the index of the first member of the cluster of evals[i], and whether any
    gap lies within a factor of 10 of the threshold, where the clustering would flip
    under a small change of it."""
    gaps = np.abs(evals[:, None] - evals[None, :])
    linked = gaps <= threshold
    # Gap 0 links each eigenvalue to itself, so each squaring doubles the chains
    # covered, until a squaring changes nothing.
    while not np.array_equal(closure := linked @ linked, linked):
        linked = closure
    ambiguous = bool(np.any((threshold / 10.0 < gaps) & (gaps < threshold * 10.0)))
    return linked.argmax(axis=1) if len(evals) else np.zeros(0, dtype=int), ambiguous


def _rank_sequences(c: np.ndarray, mus: np.ndarray, members: np.ndarray, mults: np.ndarray,
                    partner: np.ndarray, tol: float, evals: np.ndarray | None = None) -> np.ndarray:
    """Rank sequences of the powers of B_it = c[i] - mus[t] I, for every matrix c[i] and a
    non-empty array of blocks t with members, one SVD call per power k: [i, t] of the
    (len(c), blocks, max(mults)) result holds them for k = 1, 2, ..., the last repeated.
    evals, when given, holds the eigenvalues of normal c[i], row by row: then the singular
    values of B_it are |evals[i] - mus[t]|, and k = 1 makes no SVD call.

    The cutoff of B_it at power k is tol * anchor^k, anchor the larger sigma_max of B_it and
    of B_i,partner[t], the other block of its cluster or itself.  A partner with no members
    is not made, partner[t] < 0: sigma_max(B_it) + |mus[t] - conj(mus[t])| bounds its own.  A
    sequence stops at the k where its rank is at most n - members, equals the rank at k - 1,
    or k reaches mults."""
    n = c.shape[-1]
    if evals is None:  # B_it in row i * blocks + t
        s = np.linalg.svd((c[:, None] - mus[:, None, None] * np.eye(n)).reshape(-1, n, n), compute_uv=False)
    else:
        s = np.sort(np.abs(evals[:, None] - mus[:, None]).reshape(-1, n))[:, ::-1]
    top = s[:, 0].reshape(len(c), len(mus))
    top = np.where(partner < 0, top + 2 * np.abs(mus.imag), np.maximum(top, top[:, partner])).ravel()
    first = np.count_nonzero(s > tol * top[:, None], axis=1)
    width = mults.max()
    members, mults = np.tile(members, len(c)), np.tile(mults, len(c))
    ranks = np.repeat(first[:, None], width, axis=1)
    anchors = top.tolist()
    running = np.flatnonzero((first > n - members) & (mults > 1))
    # B_it again, only for the sequences that run past k = 1: the eigvalsh route made none.
    power = b = c[running // len(mus)] - mus[running % len(mus), None, None] * np.eye(n)
    k = 1
    while running.size:
        k += 1
        power = power @ b
        s = np.linalg.svd(power, compute_uv=False)
        # Python's float power (C pow), which numpy's vectorised power need not match to the last bit.
        cutoffs = np.array([tol * anchors[t] ** k for t in running.tolist()])
        rank = np.count_nonzero(s > cutoffs[:, None], axis=1)
        # In exact arithmetic the rank is constant from here on: the generalised
        # eigenspace is exhausted, or the nullity stopped growing.
        going = (rank > n - members[running]) & (rank != ranks[running, k - 2]) & (k < mults[running])
        ranks[running, k - 1:] = rank[:, None]
        running, power, b = running[going], power[going], b[going]
    return ranks.reshape(len(c), len(mus), width)


def jordan_invariants(
    a: np.ndarray, tol: float = DEFAULT_TOL, basis: np.ndarray | None = None
) -> JordanInvariants:
    """Eigenvalue clusters plus rank sequences of shifted powers of one real (m, m) matrix.

    Eigenvalues cluster at distance tol * sigma_max(A).  A Jordan block of size
    n scatters them by about eps^(1/n) sigma_max(A), so at tol 1e-6 a nilpotent
    block of size <= 2 stays in one cluster, but one of size 3 can split.
    lambda is numpy's pairwise sum of a cluster's members in index order over
    the multiplicity.  _ranks_at reads the ranks of (A - lambda I)^k by SVD, as
    _matches_form reads those of a stack that is not normal: one call for the k = 1
    blocks, one per further power, up to the k where the rank is at most m - multiplicity
    or repeats, constant from there on in exact arithmetic.  A stack raises ValueError.

    basis, when given, is an orthonormal basis Q of the +i eigenspace of a
    complex structure J commuting with A.  Then A is diag(A_c, conj(A_c)) in
    the basis [Q, conj(Q)], A_c = Q^H A Q, and A's fingerprint is read from A_c
    at half the size: rank((A - lambda)^k) = rank_c((A_c - lambda)^k) + rank_c((A_c
    - conj(lambda))^k), a term m/2, with no SVD, when its shift is no eigenvalue of A_c.
    [Q, conj(Q)] is unitary only for an orthogonal J, else sigma_max(A_c) <= sigma_max(A).

    The default DEFAULT_TOL = 1e-8 is below the floor OPERATOR_TOL = 1e-6 of jordan_ip's
    Jordan and spectrum checks, which know that their operators' eigenvalue gaps are 0.1
    sigma_max and larger; a direct call knows nothing of A, so it keeps eigenvalues 1e-8
    sigma_max apart distinct.  The cost: a size-2 block, scattered by about 1.5e-8 sigma_max,
    can split.  The nilpotent pair R_phi1 + R_phi2 on (4, 4), 50 complex lines of each type
    at seed 0, splits its cluster at 0 on 7 of the 100 operators on the real path and 18 on
    C^{m/2}, and on none at OPERATOR_TOL, which reads R(pi) as the checks do.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected one square matrix of shape (m, m), got shape {a.shape}")
    m = len(a)
    c, n = (a, m) if basis is None else (basis.conj().T @ a @ basis, m // 2)
    evals = np.linalg.eigvals(c)
    svals = np.linalg.svd(c, compute_uv=False)
    scale = float(svals[0]) if n else 0.0
    total_rank = (1 if n == m else 2) * int(_rank_from_singular_values(svals, tol))  # raises unless 0 < tol < inf
    if tol < np.finfo(float).eps:
        # lambda / (tol * sigma_max) below would overflow to infinite sort keys.
        raise ValueError(f"tolerance must be at least machine epsilon {np.finfo(float).eps:.3g}, got {tol}")
    evals = evals if n == m else np.concatenate([evals, evals.conj()])
    roots, ambiguous = _cluster_eigenvalues(evals, tol * scale)
    # The clusters in order of their roots, with the members that are eigenvalues of c.
    found = np.flatnonzero(np.bincount(roots, minlength=m))
    mult, own = (np.bincount(roots[:end], minlength=m)[found] for end in (m, n))
    lam = (np.array([evals[roots == root].sum() for root in found.tolist()]) / mult).astype(complex)
    ranks = _ranks_at(c[None], lam, mult, own, tol)[0] if m else np.zeros((0, 0), dtype=int)

    # Order on both parts rounded to multiples of the clustering threshold, so that noise far
    # below it, such as the +-1e-16 real parts of a skew operator's eigenvalues, cannot reorder
    # the clusters; raw values break ties, and lexsort, being stable, keeps the roots' order.
    unit = tol * scale or 1.0
    order = np.lexsort((lam.imag, lam.real, np.rint(lam.imag / unit), np.rint(lam.real / unit)))
    mults = mult[order].tolist()
    return JordanInvariants(m, tuple(zip(lam[order].tolist(), mults)),
                            tuple(tuple(row[:mu]) for row, mu in zip(ranks[order].tolist(), mults)),
                            total_rank, ambiguous, scale, tuple(own[order].tolist()))


def _ranks_at(c: np.ndarray, lam: np.ndarray, mult: np.ndarray, own: np.ndarray, tol: float,
              evals: np.ndarray | None = None) -> np.ndarray:
    """Ranks of (c[i] - lambda I)^k at the clusters (lambda, multiplicity, members) of one
    Jordan form, by one _rank_sequences call, given evals if the c[i] are normal: a
    (len(c), clusters, width) array, width the largest multiplicity.

    The multiplicities sum to m, so c of size n < m is read on C^{m/2}, with the blocks A_c -
    lambda (the members, the cluster's eigenvalues of A_c) and A_c - conj(lambda) (the rest),
    of rank n and not made where they have none; else a cluster has one block, A - lambda.
    Only the first cluster of a conjugate pair, its partner nearest conj(lambda), has blocks."""
    n, index = c.shape[-1], np.arange(len(lam))
    half, own = (True, own) if n < mult.sum() else (False, mult)
    conj = np.abs(lam[:, None] - lam.conj()).argmin(axis=1)
    # Slots at lambda, and at conj(lambda) on C^{m/2}, of each pair's first cluster; those with members
    # have blocks, partnered with the block of the other slot (-1 if it has none) or with themselves.
    slots, counts = np.array([conj >= index, (conj > index) & half]).T, np.array([own, mult - own]).T
    take = slots & (counts > 0)
    cluster, second = take.nonzero()
    made = np.where(take, take.cumsum().reshape(take.shape) - 1, -1)
    made[:, 1] = np.where(slots[:, 1], made[:, 1], made[:, 0])
    ranks = _rank_sequences(c, np.array([lam, lam.conj()]).T[take], counts[take], mult[cluster],
                            made[cluster, 1 - second], tol, evals)
    # A cluster's ranks sum its slots' (n with no block), twice its one slot's on C^{m/2}, or its partner's.
    first = np.where(slots[:, 0], index, conj)
    weight, missing = np.where(half & (conj == index), 2, 1)[first], n * (slots & ~take).sum(axis=1)[first]
    return weight[:, None] * ((cluster == first[:, None]) @ ranks + missing[:, None])


def _matches_form(c: np.ndarray, anchor: JordanInvariants, tol: float) -> np.ndarray:
    """Whether each matrix c[i] has the Jordan form of anchor, with no eigenvalues: its
    ranks at the anchor's clusters, read by _ranks_at, must be the anchor's rank
    sequences.  The multiplicities sum to m, so equal sequences leave c[i] no other
    eigenvalue and give it the anchor's Jordan blocks.  c holds real m x m matrices,
    whichever path the anchor took, or the m/2 x m/2 blocks A_c of matrices that
    commute with J, when the anchor was read on C^{m/2} too.  An empty c gives an
    empty array.

    R(pi), and A_c of an orthogonal J, are skew-Hermitian on a definite signature.  A
    stack that is so to the bit is normal: one eigvalsh call gives the k = 1 singular
    values |lambda(c[i]) - mu| of all its blocks.  Any other stack, one that rounding
    left skew only to the last bit included, takes the SVD."""
    lam, mult = map(np.array, zip(*anchor.clusters))
    skew = np.array_equal(c.conj().swapaxes(-1, -2), -c)
    evals = -1j * np.linalg.eigvalsh(1j * c) if skew else None
    ranks = _ranks_at(c, lam, mult, np.array(anchor._members), tol, evals)
    want = np.array([seq + seq[-1:] * (ranks.shape[-1] - len(seq)) for seq in anchor.rank_sequences])
    return (ranks == want).all(axis=(1, 2))


def _paired(a: Sequence[tuple[Any, Any]], b: Sequence[tuple[Any, Any]], tol: float, scale: float) -> bool:
    """Whether the (value, key) entries of a and b pair up one to one: each
    entry of a, in order, takes the nearest remaining entry of b with an equal
    key, which must lie within tol * scale of it.  A tol that is not positive
    and finite raises ValueError: a NaN or infinite one would pair any entries."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    remaining, bound = list(b), tol * scale
    for value, key in a:
        same_key = [e for e in remaining if e[1] == key]
        best = min(same_key, key=lambda e: abs(e[0] - value), default=None)
        if best is None or abs(best[0] - value) > bound:
            return False
        remaining.remove(best)
    return not remaining


def jordan_equivalent(a: JordanInvariants, b: JordanInvariants, tol: float = DEFAULT_TOL) -> bool:
    """Whether two invariant fingerprints describe the same Jordan normal form.

    Each cluster of a, in order, is paired with the nearest remaining cluster
    of b of equal multiplicity and rank sequence; paired eigenvalues may differ
    by at most tol * max(a.scale, b.scale), a bound with no floor of 1.  tol
    must be positive and finite.
    """
    if a.dimension != b.dimension:
        raise ValueError(f"ambient dimensions differ: {a.dimension} != {b.dimension}")
    keyed = [[(lam, (mult, seq)) for (lam, mult), seq in zip(f.clusters, f.rank_sequences)]
             for f in (a, b)]
    return _paired(*keyed, tol, max(a.scale, b.scale))
