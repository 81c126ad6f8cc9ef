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
from typing import Any, Callable, ClassVar, Sequence

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


def _plane_gram(space: BilinearSpace, x: np.ndarray, y: np.ndarray) -> tuple[float, PlaneClass]:
    """Restricted Gram determinant of span{x, y} for checked vectors, and the
    causal type it gives; DEGENERATE when |det| <= DEFAULT_TOL |x|^2 |y|^2."""
    # x.dot(y) makes the same BLAS call as x @ y with half the overhead.
    sy = space.signs * y
    xx, xy, yy = float(x.dot(space.signs * x)), float(x.dot(sy)), float(y.dot(sy))
    det = xx * yy - xy * xy
    if abs(det) <= DEFAULT_TOL * (float(x.dot(x)) * float(y.dot(y))):
        return det, PlaneClass.DEGENERATE
    if det < 0:
        return det, PlaneClass.MIXED
    return det, PlaneClass.SPACELIKE if xx + yy > 0 else PlaneClass.TIMELIKE


def classify_plane(space: BilinearSpace, x: np.ndarray, y: np.ndarray) -> PlaneClass:
    """Causal type of span{x, y} from the signature of the restricted Gram matrix;
    DEGENERATE for a near-zero determinant, linear dependence included."""
    return _plane_gram(space, _check_vector(space, x, "x"), _check_vector(space, y, "y"))[1]


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
        for name, value in (("x", x), ("y", y), ("det", det), ("plane_class", plane_class)):
            object.__setattr__(self, name, value)


def _rank_from_singular_values(s: np.ndarray, tol: float) -> int:
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def numeric_rank(a: np.ndarray, tol: float) -> int:
    """Number of singular values above tol times the largest one; 0 for the zero map."""
    a = np.asarray(a)
    s = np.linalg.svd(a, compute_uv=False) if a.size else np.empty(0)
    return _rank_from_singular_values(s, tol)


def _unit_line(
    space: BilinearSpace, j: np.ndarray, x: np.ndarray, positive: bool | None = None
) -> OrientedPlane | None:
    """The complex line span{x, j x} with x rescaled to |(x, x)| = 1; None when
    it is degenerate, or when positive is given and the sign of (x, x)
    disagrees with it."""
    t = float(x.dot(space.signs * x))
    if t == 0.0 or (positive is not None and (t > 0) != positive):
        return None
    x = x / np.sqrt(abs(t))
    line = OrientedPlane(space, x, j @ x)
    return None if line.plane_class is PlaneClass.DEGENERATE else line


def _rejection_sample(
    n: int, seed: int, draw: Callable[[np.random.Generator], Any], what: str
) -> list:
    """n samples by seeded rejection: draw(rng) returns a sample, or None to
    reject the draw.  Raises ValueError for n < 1 and RuntimeError after
    1000 n draws."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    rng = np.random.default_rng(seed)
    samples = []
    draws = 0
    while len(samples) < n:
        draws += 1
        if draws > 1000 * n:
            raise RuntimeError(f"rejection budget exceeded {what}")
        sample = draw(rng)
        if sample is not None:
            samples.append(sample)
    return samples


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
    """

    dimension: int
    clusters: tuple[tuple[complex, int], ...]
    rank_sequences: tuple[tuple[int, ...], ...]
    total_rank: int
    clustering_ambiguous: bool
    scale: float


def _cluster_eigenvalues(evals: np.ndarray, threshold: float) -> tuple[list[np.ndarray], bool]:
    """Single-linkage clusters of eigenvalues at the given distance, ordered by
    first member, and whether any gap lies within a factor of 10 of the
    threshold, where the clustering would flip under a small change of it."""
    n = evals.size
    gaps = np.abs(evals[:, None] - evals[None, :])
    linked = gaps <= max(threshold, 0.0)
    # Gap 0 links each eigenvalue to itself, so k squarings give every chain of <= 2^k links.
    for _ in range(n.bit_length()):
        linked = linked @ linked
    firsts = np.flatnonzero(linked.argmax(axis=1) == np.arange(n)) if n else []
    ambiguous = bool(np.any((threshold / 10.0 < gaps) & (gaps < threshold * 10.0)))
    return [evals[linked[i]] for i in firsts], ambiguous


def jordan_invariants(a: np.ndarray, tol: float = DEFAULT_TOL) -> JordanInvariants:
    """Eigenvalue clusters plus rank sequences of shifted powers of a square matrix.

    Clustering distance is tol times the largest singular value of A, and
    rank cutoffs for (A - lambda I)^k are anchored to sigma_max(A - lambda I)^k.
    A Jordan block of size n scatters its computed eigenvalues by about
    eps^(1/n) times the operator norm, so one cluster holds a nilpotent block
    of size <= 2 (sqrt(eps) ~ 1.5e-8), but a block of size 3 (eps^(1/3) ~ 6e-6)
    can split into several clusters at tol 1e-8 or 1e-6.

    Powers stop once the rank is at most m - multiplicity or equals the rank
    of the previous power; in exact arithmetic it is constant from there on,
    so the rest of the sequence is padded with the last rank.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    evals = np.linalg.eigvals(a)
    svals = np.linalg.svd(a, compute_uv=False)
    op_scale = float(svals[0]) if svals.size else 0.0
    total_rank = _rank_from_singular_values(svals, tol)  # raises unless tol > 0
    groups, ambiguous = _cluster_eigenvalues(evals, tol * op_scale)

    clusters: list[tuple[complex, int]] = []
    rank_sequences: list[tuple[int, ...]] = []
    for group in groups:
        lam = complex(np.mean(group))
        mult = int(group.size)
        shifted = a.astype(complex) - lam * np.eye(m)
        s = np.linalg.svd(shifted, compute_uv=False)
        shifted_scale = float(s[0])
        ranks: list[int] = []
        power = shifted
        for k in range(1, mult + 1):
            if k > 1:
                power = power @ shifted
                s = np.linalg.svd(power, compute_uv=False)
            ranks.append(int(np.count_nonzero(s > tol * shifted_scale**k)))
            # In exact arithmetic the rank is constant from here on: the
            # generalised eigenspace is exhausted, or the nullity stopped growing.
            if ranks[-1] <= m - mult or (k > 1 and ranks[-1] == ranks[-2]):
                break
        ranks += [ranks[-1]] * (mult - len(ranks))
        clusters.append((lam, mult))
        rank_sequences.append(tuple(ranks))

    # Order on both parts rounded to multiples of the clustering threshold, so
    # that noise far below it, such as the +-1e-16 real parts of a skew
    # operator's eigenvalues, cannot reorder the clusters; raw values break ties.
    unit = tol * op_scale or 1.0
    keys = [(np.rint(z.real / unit), np.rint(z.imag / unit), z.real, z.imag) for z, _ in clusters]
    order = sorted(range(len(clusters)), key=keys.__getitem__)
    return JordanInvariants(
        dimension=m,
        clusters=tuple(clusters[i] for i in order),
        rank_sequences=tuple(rank_sequences[i] for i in order),
        total_rank=total_rank,
        clustering_ambiguous=ambiguous,
        scale=op_scale,
    )


def _paired(a: Sequence[tuple[Any, Any]], b: Sequence[tuple[Any, Any]], bound: float) -> bool:
    """Whether the (value, key) entries of a and b pair up one to one: each
    entry of a, in order, takes the nearest remaining entry of b with an equal
    key, which must lie within bound of it."""
    remaining = list(b)
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
    by at most tol * max(a.scale, b.scale), a bound with no floor of 1.
    """
    if a.dimension != b.dimension:
        raise ValueError(f"ambient dimensions differ: {a.dimension} != {b.dimension}")
    keyed = [[(lam, (mult, seq)) for (lam, mult), seq in zip(f.clusters, f.rank_sequences)]
             for f in (a, b)]
    return _paired(*keyed, tol * max(a.scale, b.scale))
