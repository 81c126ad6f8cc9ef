import dataclasses
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (
    DEFAULT_TOL,
    OPERATOR_TOL,
    BilinearSpace,
    ComplexStructure,
    OrientedPlane,
    PlaneClass,
    adjoint,
    build_complex_pair_tensor,
    build_quaternionic_tensor,
    check_admissible,
    check_admissible_pair,
    check_J_invariance,
    check_jordan_ip,
    classify_plane,
    combine,
    complex_line,
    curvature_operator,
    from_self_adjoint,
    inner,
    jordan_equivalent,
    jordan_invariants,
    numeric_rank,
    pullback,
    sample_complex_lines,
    sample_real_planes,
    standard_complex_structure,
    standard_quaternion_structure,
)
from curvlab import jordan_ip, pseudo_linalg
from curvlab.pseudo_linalg import (
    JordanInvariants,
    _cluster_eigenvalues,
    _matches_form,
    _plane_gram,
    _rank_from_singular_values,
    _rank_sequences,
    _ranks_at,
)
from test_curvature import conjugated_structure
from test_jordan_ip import boost, boosted_structure, conjugation_map, lines_by_type, random_J_invariant_tensor


def e(m, i):
    v = np.zeros(m)
    v[i] = 1.0
    return v


SIGNATURES = [(0, 2), (1, 1), (0, 4), (1, 3), (2, 2), (2, 4)]


class TestBilinearSpace:
    def test_gram_diagonal_signs(self):
        s = BilinearSpace(2, 3)
        assert np.array_equal(np.diag(s.gram), [-1, -1, 1, 1, 1])

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ValueError):
            BilinearSpace(0, 1)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            BilinearSpace(-1, 3)

    def test_tolerance_is_a_fixed_constant(self):
        # A space is its signature: tol is DEFAULT_TOL, not a field.
        s = BilinearSpace(0, 2)
        assert s.tol == DEFAULT_TOL == 1e-8
        assert s == BilinearSpace(0, 2)
        with pytest.raises(TypeError):
            BilinearSpace(0, 2, tol=1e-9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.tol = 1e-9


class TestInner:
    def test_definite_diagonal(self):
        s = BilinearSpace(0, 2)
        assert inner(s, e(2, 0), e(2, 0)) == 1.0

    def test_first_vector_timelike(self):
        s = BilinearSpace(1, 1)
        assert inner(s, e(2, 0), e(2, 0)) == -1.0

    def test_null_vector(self):
        s = BilinearSpace(1, 1)
        n = e(2, 0) + e(2, 1)
        assert inner(s, n, n) == 0.0

    def test_dimension_mismatch(self):
        s = BilinearSpace(0, 2)
        with pytest.raises(ValueError):
            inner(s, np.ones(3), np.ones(2))


class TestAdjoint:
    def test_euclidean_adjoint_is_transpose(self):
        s = BilinearSpace(0, 4)
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert np.array_equal(adjoint(s, a), a.T)

    def test_lorentz_nilpotent(self):
        # Derived from (Av, w) = (v, A*w) on all basis pairs.
        s = BilinearSpace(1, 1)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        a_star = adjoint(s, a)
        assert np.allclose(a_star, [[0.0, 0.0], [-1.0, 0.0]])
        for i in range(2):
            for j in range(2):
                assert inner(s, a @ e(2, i), e(2, j)) == pytest.approx(
                    inner(s, e(2, i), a_star @ e(2, j))
                )

    def test_gram_is_self_adjoint(self):
        for p, q in SIGNATURES:
            s = BilinearSpace(p, q)
            assert np.array_equal(adjoint(s, s.gram), s.gram)

    @given(st.sampled_from(SIGNATURES), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_involution_is_exact(self, sig, seed):
        s = BilinearSpace(*sig)
        a = np.random.default_rng(seed).standard_normal((s.m, s.m))
        assert np.array_equal(adjoint(s, adjoint(s, a)), a)

    @given(st.sampled_from(SIGNATURES), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_defining_identity(self, sig, seed):
        s = BilinearSpace(*sig)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((s.m, s.m))
        v = rng.standard_normal(s.m)
        w = rng.standard_normal(s.m)
        a_star = adjoint(s, a)
        bound = 1e-10 * max(np.linalg.norm(a) * np.linalg.norm(v) * np.linalg.norm(w), 1e-30)
        assert abs(inner(s, a @ v, w) - inner(s, v, a_star @ w)) <= bound


class TestClassifyPlane:
    def test_mixed_orthogonal_pair(self):
        s = BilinearSpace(1, 1)
        assert classify_plane(s, e(2, 0), e(2, 1)) is PlaneClass.MIXED

    def test_definite_metric_spacelike(self):
        s = BilinearSpace(0, 4)
        assert classify_plane(s, e(4, 0), e(4, 1)) is PlaneClass.SPACELIKE

    def test_null_basis_mixed_plane(self):
        # det G2 = 0*0 - (-2)^2 = -4 < 0 by hand.
        s = BilinearSpace(1, 1)
        assert classify_plane(s, e(2, 0) + e(2, 1), e(2, 0) - e(2, 1)) is PlaneClass.MIXED

    def test_timelike_plane(self):
        s = BilinearSpace(2, 2)
        assert classify_plane(s, e(4, 0), e(4, 1)) is PlaneClass.TIMELIKE

    def test_dependent_vectors_degenerate(self):
        s = BilinearSpace(0, 3)
        x = np.array([1.0, 2.0, 3.0])
        assert classify_plane(s, x, 2.0 * x) is PlaneClass.DEGENERATE

    def test_null_span_degenerate(self):
        s = BilinearSpace(1, 1)
        n = e(2, 0) + e(2, 1)
        assert classify_plane(s, n, 3.0 * n + 1e-14 * e(2, 0)) is PlaneClass.DEGENERATE

    # On (4, 6), EDGE has timelike part 99999999 and spacelike part 100000001, so
    # (x, x) = 2 and |x|^2 = 2e8: with y = e_9, det = 2 is exactly DEFAULT_TOL |x|^2 |y|^2.
    # A ddot of fewer than 16 entries sums in order, so a last entry 3 2^-27 of x
    # puts (x, x) one ulp above 2, and y = e_9 + 2^-28 e_7 puts det one ulp below.
    EDGE = np.array([9999.0, 141, 9, 6, 9999, 128, 60, 4, 0, 0])

    def test_stack_rows_are_classified_as_alone(self):
        s = BilinearSpace(4, 6)
        up, below = self.EDGE.copy(), e(10, 9)
        up[8], below[7] = 3 * 2.0**-27, 2.0**-28
        at = lambda i, value: np.where(np.arange(10) == i, value, 0.0)
        rows = [
            (np.zeros(10), e(10, 4)),                     # a zero vector
            (self.EDGE, -3.0 * self.EDGE),                # linearly dependent
            (self.EDGE, e(10, 9)),                        # det exactly at the bound
            (up, e(10, 9)),                               # one ulp above it
            (self.EDGE, below),                           # one ulp below it
            (at(4, np.nan) + 1.0, e(10, 5)),
            (at(4, np.inf), e(10, 4) + e(10, 5)),
            (e(10, 0), at(4, -np.inf)),
            (at(4, 1e200), e(10, 5)),                     # dots that overflow to inf
            (e(10, 4), e(10, 5)), (e(10, 0), e(10, 1)), (e(10, 0), e(10, 4)),
        ]
        # A ddot through an inf warns, for one pair as for a stack.
        with np.errstate(invalid="ignore", over="ignore"):
            dets, types = classify_plane(s, *(np.array(v) for v in zip(*rows)))
            alone = [(_plane_gram(s, x, y)[0], classify_plane(s, x, y)) for x, y in rows]
        for det, plane_class, (want_det, want) in zip(dets.tolist(), types, alone):
            assert plane_class is want
            assert np.float64(det).tobytes() == np.float64(want_det).tobytes()
        bound = DEFAULT_TOL * (self.EDGE.dot(self.EDGE) * e(10, 9).dot(e(10, 9)))
        assert bound == 2.0 and dets[2:5].tolist() == [2.0, np.nextafter(2.0, 3.0), np.nextafter(2.0, 1.0)]
        D, S, T, M = (PlaneClass.DEGENERATE, PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED)
        # A NaN det fails both of its tests, and the sign of (x,x) + (y,y) decides.
        assert list(types) == [D, D, D, S, D, T, S, S, D, S, T, M]

    def test_reversed_stack_rows_are_classified_as_alone(self):
        # At m >= 16 a ddot sums in blocks, and x.dot copies a reversed vector first.
        s = BilinearSpace(8, 24)
        xs, ys = np.random.default_rng(5).standard_normal((2, 6, s.m))[:, :, ::-1]
        dets, types = classify_plane(s, xs, ys)
        for x, y, det, plane_class in zip(xs, ys, dets.tolist(), types):
            assert (det, plane_class) == (OrientedPlane(s, x, y).det, classify_plane(s, x, y))
            assert np.float64(det).tobytes() == np.float64(_plane_gram(s, x, y)[0]).tobytes()

    @pytest.mark.parametrize("x, y", [
        (np.zeros((3, 4)), np.zeros((2, 4))),
        (np.zeros((3, 5)), np.zeros((3, 5))),
        (np.zeros((3, 4)), np.zeros(4)),
        (np.zeros(4), np.zeros((1, 4))),
        (np.zeros((1, 3, 4)), np.zeros((1, 3, 4))),
    ])
    def test_stacks_of_other_shapes_raise(self, x, y):
        message = f"x and y have shapes {x.shape} and {y.shape}, expected two (k, 4) stacks"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_plane(BilinearSpace(2, 2), x, y)

    @given(
        st.sampled_from([(0, 4), (1, 3), (2, 2)]),
        st.integers(0, 2**31 - 1),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_basis_invariance(self, sig, seed, a, b, c, d):
        s = BilinearSpace(*sig)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(s.m)
        y = rng.standard_normal(s.m)
        before = classify_plane(s, x, y)
        if before is PlaneClass.DEGENERATE or abs(a * d - b * c) < 1e-2:
            return
        assert classify_plane(s, a * x + b * y, c * x + d * y) is before


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 3)), 1e-8) == 0

    def test_identity(self):
        assert numeric_rank(np.eye(4), 1e-8) == 4

    def test_single_nilpotent_block(self):
        assert numeric_rank(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-8) == 1

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), 0.0)

    # An infinite tol would count no singular value, a NaN one none either:
    # both would read any matrix as the zero map.
    @pytest.mark.parametrize("tol", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_a_tol_that_is_not_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            numeric_rank(np.eye(3), tol)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            jordan_invariants(np.diag([1.0, 2.0]), tol)


class TestJordanInvariants:
    def test_nonpositive_tol_raises_before_any_cluster_svd(self, monkeypatch):
        calls = spy_on_linalg(monkeypatch, "svd")
        with pytest.raises(ValueError, match="tolerance must be positive"):
            jordan_invariants(np.eye(4), 0.0)
        assert calls == [((4, 4), "f", 1)]

    # lambda / (tol * sigma_max) overflows for tol = 1e-310, and a tol below eps
    # resolves nothing that eps does not: the fingerprint refuses it after the
    # scale SVD, where it refuses tol <= 0, and before any clustering.
    @pytest.mark.parametrize("tol", [1e-310, 1e-17])
    def test_tol_below_machine_epsilon_raises_before_clustering(self, tol, monkeypatch):
        calls = spy_on_linalg(monkeypatch, "svd")
        clustered = []
        monkeypatch.setattr(pseudo_linalg, "_cluster_eigenvalues",
                            lambda *args: clustered.append(args) or _cluster_eigenvalues(*args))
        with pytest.raises(ValueError, match="tolerance must be at least machine epsilon"):
            jordan_invariants(np.diag([1.0, 2.0]), tol)
        assert calls == [((2, 2), "f", 1)] and clustered == []
        inv = jordan_invariants(np.diag([1.0, 2.0]), np.finfo(float).eps)
        assert inv.clusters == ((1.0, 1), (2.0, 1)) and inv.total_rank == 2

    # The rank and admissibility checks take the config tol, and keep any tol > 0.
    def test_rank_and_admissibility_keep_a_tiny_tol(self):
        assert numeric_rank(np.diag([1.0, 2.0]), 1e-310) == 2
        J = standard_complex_structure(BilinearSpace(0, 4))
        assert check_admissible(np.eye(4), J, 1e-310).admissible
        report = check_admissible_pair(np.eye(4), conjugation_map(4), J, n_lines=3, tol=1e-310)
        assert not report.admissible and report.residuals["cross_adjoint"] == 2.0

    def test_nilpotent_block(self):
        inv = jordan_invariants(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert inv.clusters == ((0j, 2),)
        assert inv.rank_sequences == ((1, 0),)
        assert inv.total_rank == 1

    def test_rotation_has_conjugate_pair(self):
        inv = jordan_invariants(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert len(inv.clusters) == 2
        values = sorted(lam.imag for lam, _ in inv.clusters)
        assert values == pytest.approx([-1.0, 1.0])
        assert all(mult == 1 for _, mult in inv.clusters)
        assert inv.rank_sequences == ((1,), (1,))

    def test_repeated_eigenvalue_diagonalizable(self):
        inv = jordan_invariants(np.diag([3.0, 3.0, 5.0]))
        clusters = dict((round(lam.real), mult) for lam, mult in inv.clusters)
        assert clusters == {3: 2, 5: 1}
        for (lam, mult), seq in zip(inv.clusters, inv.rank_sequences):
            # diagonalizable: rank(A - lam I) = m - mult, constant in k
            assert all(r == 3 - mult for r in seq)

    def test_multiplicities_sum_to_dimension(self):
        a = np.random.default_rng(3).standard_normal((6, 6))
        inv = jordan_invariants(a)
        assert sum(mult for _, mult in inv.clusters) == 6

    def test_conjugate_pairs_share_structure(self):
        a = np.random.default_rng(4).standard_normal((6, 6))
        inv = jordan_invariants(a)
        by_eig = {lam: (mult, seq) for (lam, mult), seq in zip(inv.clusters, inv.rank_sequences)}
        for lam, (mult, seq) in by_eig.items():
            if abs(lam.imag) > 1e-9:
                partner = min(by_eig, key=lambda mu: abs(mu - lam.conjugate()))
                assert by_eig[partner] == (mult, seq)

    def test_rank_sequences_nonincreasing(self):
        for seed in range(5):
            a = np.random.default_rng(seed).standard_normal((5, 5))
            inv = jordan_invariants(a)
            for seq in inv.rank_sequences:
                assert all(x >= y for x, y in zip(seq, seq[1:]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jordan_invariants(np.ones((2, 3)))

    # One matrix per call: a stack is ranked against a known form by _matches_form.
    @pytest.mark.parametrize("shape", [(3, 4, 4), (1, 4, 4), (0, 4, 4), (3,), (2, 3, 3, 3), (2, 2, 3)], ids=str)
    def test_rejects_stacks_and_other_shapes(self, shape):
        message = f"expected one square matrix of shape (m, m), got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            jordan_invariants(np.zeros(shape))

    def test_empty_map_has_an_empty_fingerprint(self):
        inv = jordan_invariants(np.zeros((0, 0)))
        assert (inv.dimension, inv.clusters, inv.rank_sequences, inv.total_rank) == (0, (), (), 0)

    @pytest.mark.parametrize("c", [1e-7, 1e-12, 1e8], ids=["1e-7", "1e-12", "1e8"])
    def test_scale_is_sigma_max_and_scales_with_the_map(self, c):
        a = np.random.default_rng(5).standard_normal((6, 6))
        scale = jordan_invariants(a).scale
        assert scale == pytest.approx(np.linalg.norm(a, 2), rel=1e-14)
        assert jordan_invariants(c * a).scale == pytest.approx(c * scale, rel=1e-14)
        assert jordan_invariants(np.zeros((3, 3))).scale == 0.0

    def test_ambiguous_gap_is_flagged_not_fatal(self):
        # gap of 5e-8 sits inside the factor-of-10 band around the 1e-8
        # clustering threshold: the verdict would flip under a nearby tol
        inv = jordan_invariants(np.diag([1.0, 1.0 + 5e-8]), 1e-8)
        assert inv.clustering_ambiguous

    def test_clear_gaps_are_not_flagged(self):
        assert not jordan_invariants(np.diag([1.0, 2.0]), 1e-8).clustering_ambiguous
        assert not jordan_invariants(np.eye(3), 1e-8).clustering_ambiguous

    def test_cluster_order_survives_noise_below_the_threshold(self):
        # The eigenvalues of a skew operator have real parts of +-1e-16, pure
        # noise; sorting on the raw parts let that noise reorder the clusters
        # (157 of these 300 cases before the parts were rounded to multiples of
        # the clustering threshold).  Skew-adjoint noise of 1e-14 max|op| keeps
        # the operator skew and must keep every cluster in place.
        space = BilinearSpace(4, 4)
        J = standard_complex_structure(space)
        tensor = build_complex_pair_tensor(J, 1.5, 0.75)
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 150, 0)
        lines += sample_complex_lines(J, PlaneClass.TIMELIKE, 150, 1)
        rng = np.random.default_rng(0)
        for line in lines:
            op = curvature_operator(tensor, line)
            noise = rng.standard_normal(op.shape)
            noise -= adjoint(space, noise)
            noise *= 1e-14 * np.max(np.abs(op)) / np.max(np.abs(noise))
            a = np.array([lam for lam, _ in jordan_invariants(op, OPERATOR_TOL).clusters])
            b = np.array([lam for lam, _ in jordan_invariants(op + noise, OPERATOR_TOL).clusters])
            assert a.shape == b.shape
            # Each cluster is nearest its own counterpart.
            assert np.array_equal(np.abs(a[:, None] - b[None, :]).argmin(axis=1), np.arange(a.size))


def well_conditioned_map(m, rng):
    # Random orthogonal factors with singular values in [0.5, 2]: condition <= 4.
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return u @ np.diag(rng.uniform(0.5, 2.0, m)) @ v.T


class TestJordanEquivalent:
    def test_scaled_nilpotent_blocks(self):
        a = jordan_invariants(np.array([[0.0, 1.0], [0.0, 0.0]]))
        b = jordan_invariants(np.array([[0.0, 5.0], [0.0, 0.0]]))
        assert jordan_equivalent(a, b)

    def test_nilpotent_vs_zero(self):
        a = jordan_invariants(np.array([[0.0, 1.0], [0.0, 0.0]]))
        b = jordan_invariants(np.zeros((2, 2)))
        assert not jordan_equivalent(a, b)

    def test_permuted_diagonal(self):
        a = jordan_invariants(np.diag([1.0, 2.0]))
        b = jordan_invariants(np.diag([2.0, 1.0]))
        assert jordan_equivalent(a, b)

    def test_different_cluster_counts(self):
        a = jordan_invariants(np.diag([1.0, 1.0, 2.0]))
        b = jordan_invariants(np.diag([1.0, 2.0, 3.0]))
        assert not jordan_equivalent(a, b)
        assert not jordan_equivalent(b, a)

    # Eigenvalues are compared within tol * sigma_max, with no floor of 1, so
    # the verdict for cA against cB is that for A against B.
    @pytest.mark.parametrize("c", [1.0, 1e-7, 1e-9, 1e8], ids=["1", "1e-7", "1e-9", "1e8"])
    @pytest.mark.parametrize("b, expected", [([2.0, 1.0], True), ([1.0, 2.001], False)],
                             ids=["permuted", "moved"])
    def test_verdict_does_not_depend_on_scale(self, b, expected, c):
        a = jordan_invariants(c * np.diag([1.0, 2.0]))
        assert jordan_equivalent(a, jordan_invariants(c * np.diag(b))) is expected

    # A NaN bound fails no comparison and an infinite one passes every one, so
    # either would call any two forms equivalent; a negative one, none.
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8, 0.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        a, b = jordan_invariants(np.eye(2)), jordan_invariants(2 * np.eye(2))
        for pair in ((a, b), (a, a)):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                jordan_equivalent(*pair, tol)

    def test_dimension_mismatch_rejected(self):
        a = jordan_invariants(np.eye(2))
        b = jordan_invariants(np.eye(3))
        with pytest.raises(ValueError):
            jordan_equivalent(a, b)

    @pytest.mark.parametrize("seed", range(8))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        a = rng.standard_normal((m, m))
        psi = well_conditioned_map(m, rng)
        conjugated = psi @ a @ np.linalg.inv(psi)
        assert jordan_equivalent(
            jordan_invariants(a, 1e-7), jordan_invariants(conjugated, 1e-7), 1e-7
        )

    def test_distinguishes_nilpotent_block_partitions(self):
        # J2(0) + J2(0) vs J3(0) + J1(0): same eigenvalue and rank, different powers.
        a = np.zeros((4, 4))
        a[0, 1] = a[2, 3] = 1.0
        b = np.zeros((4, 4))
        b[0, 1] = b[1, 2] = 1.0
        assert not jordan_equivalent(jordan_invariants(a), jordan_invariants(b))


def explicit_power_rank_sequences(a, inv, tol):
    """Reference: numeric ranks of the explicit powers (A - lambda I)^k for
    every k up to the multiplicity, for the clusters of inv, with the cutoff
    tol * sigma_max(A - lambda I)^k."""
    m = a.shape[0]
    sequences = []
    for lam, mult in inv.clusters:
        shifted = a.astype(complex) - lam * np.eye(m)
        scale = np.linalg.svd(shifted, compute_uv=False)[0]
        power = np.eye(m, dtype=complex)
        ranks = []
        for k in range(1, mult + 1):
            power = power @ shifted
            cutoff = tol * scale**k
            s = np.linalg.svd(power, compute_uv=False)
            ranks.append(int(np.count_nonzero(s > cutoff)) if cutoff > 0 else 0)
        sequences.append(tuple(ranks))
    return tuple(sequences)


def jordan_block(lam, n):
    return lam * np.eye(n) + np.eye(n, k=1)


def real_jordan_block(a, b, n):
    """The real form of J_n(a + ib) + J_n(a - ib), of size 2n."""
    return np.kron(np.eye(n), np.array([[a, -b], [b, a]])) + np.kron(np.eye(n, k=1), np.eye(2))


def block_diagonal(*blocks):
    m = sum(b.shape[0] for b in blocks)
    out = np.zeros((m, m))
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


# (Jordan matrix, sorted (multiplicity, rank sequence) per eigenvalue).
JORDAN_STRUCTURES = {
    "nilpotent_3_2_1": (
        block_diagonal(jordan_block(0, 3), jordan_block(0, 2), jordan_block(0, 1)),
        [(6, (3, 1, 0, 0, 0, 0))],
    ),
    "nilpotent_2_2": (block_diagonal(jordan_block(0, 2), jordan_block(0, 2)), [(4, (2, 0, 0, 0))]),
    "repeated_2_2_1": (
        block_diagonal(jordan_block(2, 2), jordan_block(2, 2), jordan_block(2, 1),
                       jordan_block(-1, 1)),
        [(1, (5,)), (5, (3, 1, 1, 1, 1))],
    ),
    "diagonal_repeated": (np.diag([3.0, 3.0, 3.0, 5.0, 5.0]), [(2, (3, 3)), (3, (2, 2, 2))]),
    "complex_pair_2_1": (
        block_diagonal(real_jordan_block(1, 2, 2), real_jordan_block(1, 2, 1)),
        [(3, (4, 3, 3)), (3, (4, 3, 3))],
    ),
    "mixed": (
        block_diagonal(jordan_block(1, 3), jordan_block(0, 2), real_jordan_block(0, 1, 2)),
        [(2, (8, 7)), (2, (8, 7)), (2, (8, 7)), (3, (8, 7, 6))],
    ),
}


class TestRankSequenceEarlyStop:
    @pytest.mark.parametrize("name", JORDAN_STRUCTURES)
    def test_matches_explicit_powers(self, name):
        # A block of size n scatters its computed eigenvalues by about
        # eps^(1/n) times the scale, so blocks of size 3 cluster only at a
        # tolerance above 1e-5.
        tol = 1e-4
        jordan, expected = JORDAN_STRUCTURES[name]
        for seed in range(10):
            t = well_conditioned_map(jordan.shape[0], np.random.default_rng(seed))
            a = t @ jordan @ np.linalg.inv(t)
            inv = jordan_invariants(a, tol)
            assert inv.rank_sequences == explicit_power_rank_sequences(a, inv, tol)
            assert sorted((mult, seq) for (_, mult), seq in
                          zip(inv.clusters, inv.rank_sequences)) == expected

    @pytest.mark.parametrize("sig", [(0, 16), (8, 8)], ids=str)
    def test_svd_calls_per_fingerprint_at_m16(self, sig, monkeypatch):
        # R_Id: clusters 0 (multiplicity 14) and two simple eigenvalues, one
        # SVD each plus one for the operator scale, except that on a spacelike
        # or timelike plane the eigenvalues are a conjugate pair, which shares
        # one SVD.  c0 R_Id + c1 R_J on complex lines, on J's +i eigenspace:
        # the scale, then two conjugate pairs of clusters, each exhausted at
        # k = 1 by the SVD of A_c - lambda, all 8 x 8.  A_c holds one eigenvalue
        # of each pair, so A_c - conj(lambda) has no members and no SVD.
        # Every sequence stops at k = 1, so a fingerprint takes two SVD calls:
        # its scale, then the shifted blocks of all its clusters.
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        line_types = [PlaneClass.SPACELIKE] + ([PlaneClass.TIMELIKE] if space.p else [])
        identity = from_self_adjoint(space, np.eye(space.m))
        pair = build_complex_pair_tensor(J, 1.5, 0.75)
        cases = [(identity, None, 3, (16, 16), "f", sample_real_planes(space, c, 5, 0))
                 for c in line_types]
        if space.p:
            cases.append((identity, None, 4, (16, 16), "f",
                          sample_real_planes(space, PlaneClass.MIXED, 5, 0)))
        cases += [(pair, J._plus_i_basis, 3, (8, 8), "c", sample_complex_lines(J, c, 5, 0))
                  for c in line_types]
        # The rank test of a stack of one causal type against the fingerprint of
        # any of its matrices takes the k = 1 blocks of all of them in one SVD
        # call, with no scales.  On (0, 16) the real R(pi) are skew-symmetric to the
        # bit, and one eigvalsh call of the stack takes that SVD call's place.  Their
        # A_c = Q^H R(pi) Q are skew-Hermitian only to rounding under the pinned
        # Haswell zgemm, so those stacks keep the SVD.
        calls, eigh = spy_on_linalg(monkeypatch, "svd"), spy_on_linalg(monkeypatch, "eigvalsh")
        for tensor, basis, expected, shape, kind, planes in cases:
            ops = np.array([curvature_operator(tensor, plane) for plane in planes])
            anchors = []
            for op in ops:
                calls.clear()
                anchors.append(jordan_invariants(op, OPERATOR_TOL, basis))
                assert calls == [(shape, kind, 1), (shape, "c", expected - 1)] and eigh == []
            for anchor in anchors:
                calls.clear()
                assert _matches_form(on_path(ops, basis), anchor, OPERATOR_TOL).all()
                if space.p or basis is not None:
                    assert calls == [(shape, "c", (expected - 1) * len(ops))] and eigh == []
                else:
                    assert calls == [] and eigh == [(shape, "c", len(ops))]
                eigh.clear()

    def test_conjugate_clusters_share_their_svds(self, monkeypatch):
        # a R_Id + b R_C on spacelike planes of (0, 16): clusters 0
        # (multiplicity 12) and two conjugate pairs.  Each pair takes one
        # SVD, not two: 4 in all, against 6 without sharing, in two calls.
        space = BilinearSpace(0, 16)
        tensor = combine([(0.8, from_self_adjoint(space, np.eye(16))),
                          (1.7, from_self_adjoint(space, np.diag([1.0, -1.0] * 8)))])
        calls, eigh = spy_on_linalg(monkeypatch, "svd"), spy_on_linalg(monkeypatch, "eigvalsh")
        ops = np.array([curvature_operator(tensor, plane)
                        for plane in sample_real_planes(space, PlaneClass.SPACELIKE, 5, 0)])
        anchors = []
        for op in ops:
            calls.clear()
            anchors.append(inv := jordan_invariants(op, OPERATOR_TOL))
            assert calls == [((16, 16), "f", 1), ((16, 16), "c", 3)] and eigh == []
            assert sorted(zip((mult for _, mult in inv.clusters), inv.rank_sequences)) == \
                [(1, (15,))] * 4 + [(12, (4,) * 12)]
        # The operators move from plane to plane: each passes against its own
        # fingerprint, in a rank test of the whole stack.  They are skew-symmetric,
        # so one eigvalsh call of the 5 takes the place of the SVD call of their
        # 15 shifted blocks.
        for i, anchor in enumerate(anchors):
            calls.clear()
            eigh.clear()
            assert _matches_form(ops, anchor, OPERATOR_TOL)[i]
            assert calls == [] and eigh == [((16, 16), "c", 5)]


def on_path(ops, basis):
    """The matrices that _matches_form tests for the (k, m, m) stack ops: ops as
    real matrices, or their blocks A_c = Q^H A Q on C^{m/2} for a basis Q."""
    return ops if basis is None else basis.conj().T @ ops @ basis


def assert_each_matches_itself(ops, tol, basis=None):
    """Every fingerprint passes the rank test against its own matrix, alone and
    with the others of ops in one call."""
    c = on_path(ops, basis)
    anchors = [jordan_invariants(op, tol, basis) for op in ops]
    assert all(_matches_form(x[None], inv, tol)[0] for x, inv in zip(c, anchors))
    assert all(_matches_form(c, inv, tol)[i] for i, inv in enumerate(anchors))


def complex_line_ops(r, J, n=10):
    """R(pi) of r on n lines of J of each causal type that exists."""
    return np.array([curvature_operator(r, line)
                     for lines in lines_by_type(J, n, 0) for line in lines])


class TestFingerprintsMatchThemselves:
    """The Jordan checks rank-test R(pi) against anchors made by jordan_invariants,
    through the block layout that jordan_invariants reads its own ranks with: each
    fingerprint must pass the rank test against its own matrix, on the real path
    and on C^{m/2}."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_jordan_structures(self, tol):
        for jordan, _ in JORDAN_STRUCTURES.values():
            ops = np.array([jordan] + [t @ jordan @ np.linalg.inv(t) for seed in range(10)
                                       for t in [well_conditioned_map(jordan.shape[0], np.random.default_rng(seed))]])
            assert_each_matches_itself(ops, tol)

    # R_Id on the real planes of each causal type, as jordan_ip_real samples them.
    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (2, 6), (0, 16), (8, 8)], ids=str)
    def test_identity_on_real_planes(self, sig):
        space = BilinearSpace(*sig)
        r = from_self_adjoint(space, np.eye(space.m))
        for causal_type in [t for t in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED)
                            if jordan_ip._real_plane_realizable(space, t)]:
            ops = np.array([curvature_operator(r, plane)
                            for plane in sample_real_planes(space, causal_type, 20, 0)])
            assert_each_matches_itself(ops, OPERATOR_TOL)

    # The tensors of the complex Jordan checks of the sweep, and a random one.  A
    # boost of rapidity 0.5 gives a J that is not orthogonal, and a basis Q whose
    # [Q, conj(Q)] is not unitary.
    @pytest.mark.parametrize("tensor, sig", [
        (tensor, sig) for tensor in ("pair", "quaternionic", "id_plus_c", "random")
        for sig in [(0, 8), (4, 4), (2, 6), (0, 16), (8, 8)] if tensor != "quaternionic" or sig[0] % 4 == 0
    ] + [("boosted_pair", sig) for sig in [(4, 4), (2, 6)]], ids=str)
    def test_complex_lines_with_and_without_the_basis(self, tensor, sig):
        space = BilinearSpace(*sig)
        J = boosted_structure(space, 0.5) if tensor == "boosted_pair" else standard_complex_structure(space)
        r = {
            "pair": lambda: build_complex_pair_tensor(J, 1.5, 0.75),
            "quaternionic": lambda: build_quaternionic_tensor(
                standard_quaternion_structure(space), 1, 2, 8, 0),
            "id_plus_c": lambda: combine([(0.8, from_self_adjoint(space, np.eye(space.m))),
                                          (1.7, from_self_adjoint(space, conjugation_map(space.m)))]),
            "random": lambda: random_J_invariant_tensor(J, 3),
        }[tensor.removeprefix("boosted_")]()
        ops = complex_line_ops(r, J)
        assert_each_matches_itself(ops, OPERATOR_TOL, J._plus_i_basis)
        assert_each_matches_itself(ops, OPERATOR_TOL)

    def test_identity_plus_conjugation_on_real_planes(self):
        space = BilinearSpace(0, 16)
        r = combine([(0.8, from_self_adjoint(space, np.eye(16))),
                     (1.7, from_self_adjoint(space, conjugation_map(16)))])
        ops = np.array([curvature_operator(r, plane)
                        for plane in sample_real_planes(space, PlaneClass.SPACELIKE, 20, 0)])
        assert_each_matches_itself(ops, OPERATOR_TOL)

    def test_each_power_level_takes_one_svd_call(self, monkeypatch):
        # The rank test of a stack against one fingerprint makes one SVD call per
        # level, which holds every block that the stack's own fingerprints take at
        # that level: the k = 1 blocks, then the blocks of the sequences still
        # running at each k >= 2.  At tol 1e-4 the size-3 blocks cluster, and
        # sequences run to k = 2 and 3.
        calls = spy_on_linalg(monkeypatch, "svd")
        levels = 0
        for jordan in (jordan for jordan, _ in JORDAN_STRUCTURES.values() if jordan.shape[0] == 6):
            ops = np.array([t @ jordan @ np.linalg.inv(t) for seed in range(3)
                            for t in [well_conditioned_map(6, np.random.default_rng(seed))]])
            alone, anchors = [], []
            for op in ops:
                calls.clear()
                anchors.append(jordan_invariants(op, 1e-4))
                alone.append([count for _, _, count in calls])
            calls.clear()
            assert _matches_form(ops, anchors[0], 1e-4).all()
            assert [count for _, _, count in calls] == [
                sum(counts[level] for counts in alone if level < len(counts))
                for level in range(1, max(map(len, alone)))]
            levels = max(levels, *map(len, alone))
        assert levels == 4  # the scales, then k = 1, 2 and 3


def reference_rank_sequences(c, blocks, tol):
    """The rank sequences of blocks[t] = (matrix, mu, members, multiplicity,
    partner), each a list padded to its multiplicity, one Python list per block."""
    rows, mus, members, mults, partner = (np.array(v) for v in zip(*blocks))
    n = c.shape[-1]
    shifted = mus[:, None, None] * np.eye(n)
    np.subtract(c[rows], shifted, out=shifted)
    s = np.linalg.svd(shifted, compute_uv=False)
    top = np.maximum(s[:, 0], s[partner, 0])
    first = np.where(members > 0, np.count_nonzero(s > tol * top[:, None], axis=1), n)
    anchors, seqs = top.tolist(), [[rank] for rank in first.tolist()]
    running = np.flatnonzero((first > n - members) & (mults > 1))
    power, previous, k = shifted[running], first[running], 1
    while running.size:
        k += 1
        power = power @ shifted[running]
        s = np.linalg.svd(power, compute_uv=False)
        cutoffs = np.array([tol * anchors[t] ** k for t in running.tolist()])
        ranks = np.count_nonzero(s > cutoffs[:, None], axis=1)
        for t, rank in zip(running.tolist(), ranks.tolist()):
            seqs[t].append(rank)
        going = (ranks > n - members[running]) & (ranks != previous) & (k < mults[running])
        running, power, previous = running[going], power[going], ranks[going]
    return [seq + seq[-1:] * (mult - len(seq)) for seq, mult in zip(seqs, mults.tolist())]


def reference_invariants(a, tol, basis=None):
    """jordan_invariants one record at a time: per matrix and per cluster, lambda
    the sum of a boolean-masked row of eigenvalues, a Python tuple of blocks,
    and the records ordered by Python's sort of their keys."""
    a = np.asarray(a, dtype=float)
    stack = a if a.ndim == 3 else a[None]
    m = stack.shape[-1]
    c, n = (stack, m) if basis is None else (basis.conj().T @ stack @ basis, m // 2)
    evals = np.linalg.eigvals(c)
    svals = np.linalg.svd(c, compute_uv=False)
    scales = svals[:, 0].tolist() if n else [0.0] * len(c)
    total_ranks = (1 if n == m else 2) * _rank_from_singular_values(svals, tol)
    evals = evals if n == m else np.concatenate([evals, evals.conj()], axis=1)
    clustered = [_cluster_eigenvalues(row, tol * scale) for row, scale in zip(evals, scales)]
    roots = np.array([row for row, _ in clustered]).reshape(len(c), m)
    ambiguous = [flag for _, flag in clustered]
    conj_roots = roots[np.arange(len(c))[:, None], np.argmax(
        evals.conj()[:, :, None] == evals[:, None, :], axis=2)] if m else roots
    members_at = roots[:, :, None] == np.arange(m)
    mults_at, own_at = members_at.sum(axis=1).tolist(), members_at[:, :n].sum(axis=1).tolist()
    records = [[] for _ in c]
    blocks = []
    for i, (row, root_row, conj_row) in enumerate(zip(evals, roots, conj_roots.tolist())):
        if basis is None and not row.imag.any():
            row = row.real
        for root, (mult, own, conj) in enumerate(zip(mults_at[i], own_at[i], conj_row)):
            if not mult:
                continue
            lam = complex(row[root_row == root].sum() / mult)
            t = len(blocks)
            if n < m and conj > root:
                blocks += [(i, lam, own, mult, t + 1), (i, lam.conjugate(), mult - own, mult, t)]
            elif conj >= root:
                blocks.append((i, lam, own, mult, t))
            records[i].append((root, lam, mult, conj, range(t, len(blocks))))
    seqs = reference_rank_sequences(c, blocks, tol) if blocks else []
    fingerprints = []
    for i, recs in enumerate(records):
        ranks_at = {}
        for root, _, _, conj, span in recs:
            factor = 1 if len(span) == 2 or n == m else 2
            ranks_at[root] = ranks_at[conj] if not span else tuple(
                factor * sum(r) for r in zip(*(seqs[t] for t in span)))
        unit = tol * scales[i] or 1.0
        recs.sort(key=lambda r: (round(r[1].real / unit), round(r[1].imag / unit), r[1].real, r[1].imag))
        fingerprints.append(JordanInvariants(
            dimension=m,
            clusters=tuple(rec[1:3] for rec in recs),
            rank_sequences=tuple(ranks_at[rec[0]] for rec in recs),
            total_rank=int(total_ranks[i]),
            clustering_ambiguous=bool(ambiguous[i]),
            scale=scales[i],
        ))
    return fingerprints if a.ndim == 3 else fingerprints[0]


def assert_matches_reference(ops, tol, basis=None):
    """jordan_invariants of the matrix ops, or of each matrix of the stack ops,
    equals reference_invariants of ops in repr, so bit by bit."""
    got = jordan_invariants(ops, tol, basis) if ops.ndim == 2 else [jordan_invariants(op, tol, basis) for op in ops]
    assert repr(got) == repr(reference_invariants(ops, tol, basis))
    return got


class TestRecordsMatchTheReferenceLoop:
    """jordan_invariants reads its ranks through the block layout of the rank test;
    its fingerprints are those of the record loop, taken over a whole stack."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    def test_jordan_structures(self, tol):
        for jordan, _ in JORDAN_STRUCTURES.values():
            ops = np.array([jordan] + [t @ jordan @ np.linalg.inv(t) for seed in range(4)
                                       for t in [well_conditioned_map(jordan.shape[0], np.random.default_rng(seed))]])
            assert_matches_reference(ops, tol)
            assert_matches_reference(ops[1], tol)

    # The cluster at 0 has multiplicity m - 2, 14 at m = 16: numpy's pairwise
    # sum unrolls from 8 doubles on, 8 real members or 4 complex ones.
    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (0, 16), (8, 8)], ids=str)
    def test_identity_on_real_planes(self, sig):
        space = BilinearSpace(*sig)
        r = from_self_adjoint(space, np.eye(space.m))
        ops = np.array([curvature_operator(r, plane) for causal_type in (
            PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED)
            if jordan_ip._real_plane_realizable(space, causal_type)
            for plane in sample_real_planes(space, causal_type, 8, 0)])
        got = assert_matches_reference(ops, OPERATOR_TOL)
        assert all((space.m - 2) in (mult for _, mult in inv.clusters) for inv in got)

    @pytest.mark.parametrize("tensor, sig", [
        ("pair", (0, 8)), ("pair", (4, 4)), ("random", (2, 6)), ("boosted_pair", (4, 4))], ids=str)
    def test_complex_lines_with_and_without_the_basis(self, tensor, sig):
        space = BilinearSpace(*sig)
        J = boosted_structure(space, 0.5) if tensor == "boosted_pair" else standard_complex_structure(space)
        r = random_J_invariant_tensor(J, 3) if tensor == "random" else build_complex_pair_tensor(J, 1.5, 0.75)
        ops = complex_line_ops(r, J, 6)
        assert_matches_reference(ops, OPERATOR_TOL, J._plus_i_basis)
        assert_matches_reference(ops, OPERATOR_TOL)

    def test_real_spectrum_beside_a_complex_one(self):
        space = BilinearSpace(4, 4)
        r = from_self_adjoint(space, np.eye(8))
        mixed, spacelike = ([curvature_operator(r, plane) for plane in sample_real_planes(space, t, 10, 0)]
                            for t in (PlaneClass.MIXED, PlaneClass.SPACELIKE))
        ops = np.array([op for pair in zip(spacelike, mixed) for op in pair])
        assert np.linalg.eigvals(ops).dtype.kind == "c"
        assert_matches_reference(ops, OPERATOR_TOL)

    def test_rounded_keys_tie(self):
        # At tol 1e-3 and scale 100 the unit is 0.1: 4.96 + 2.96i and 5.039 +
        # 3.039i lie 0.11 apart, two clusters, but both round to (50, 30) units,
        # so the raw real parts order them, against the order of their roots.
        ops = np.array([block_diagonal(*(real_jordan_block(x, y, 1) for x, y in pairs), np.array([[100.0]]))
                        for pairs in [((5.039, 3.039), (4.96, 2.96)), ((4.96, 2.96), (5.039, 3.039))]])
        for inv in assert_matches_reference(ops, 1e-3):
            upper = [lam for lam, _ in inv.clusters if lam.imag > 0]
            assert len({(round(lam.real / 0.1), round(lam.imag / 0.1)) for lam in upper}) == 1
            assert [round(lam.real, 3) for lam in upper] == [4.96, 5.039]

    def test_one_matrix_and_stack_of_one(self):
        space = BilinearSpace(4, 4)
        J = standard_complex_structure(space)
        ops = complex_line_ops(build_complex_pair_tensor(J, 1.5, 0.75), J, 1)
        for basis in (None, J._plus_i_basis):
            assert len(assert_matches_reference(ops[:1], OPERATOR_TOL, basis)) == 1
            assert_matches_reference(ops[0], OPERATOR_TOL, basis)


class TestFingerprintMemory:
    # The tracemalloc peak of one rank test of 64 operators at m = 16 against one
    # anchor may lie at most 10% above the peak measured when jordan_invariants
    # still took stacks (numpy 2.4.6): the shared block layout must not hold
    # more, such as another (k, m, m) or (k, m) temporary.
    @staticmethod
    def peak_of_one_call(path, sig=(0, 16)):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        if path == "real":
            r, basis = from_self_adjoint(space, np.eye(16)), None
            planes = sample_real_planes(space, PlaneClass.SPACELIKE, 64, 0)
        else:
            r, basis = build_complex_pair_tensor(J, 1.5, 0.75), J._plus_i_basis
            planes = sample_complex_lines(J, PlaneClass.SPACELIKE, 64, 0)
        ops = np.array([curvature_operator(r, plane) for plane in planes])
        c, anchor = on_path(ops, basis), jordan_invariants(ops[0], OPERATOR_TOL, basis)
        _matches_form(c, anchor, OPERATOR_TOL)
        tracemalloc.start()
        try:
            same = _matches_form(c, anchor, OPERATOR_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same.all()
        return c, peak

    @pytest.mark.parametrize("path, parent_peak", [("real", 936_174), ("basis", 557_544)])
    def test_peak_of_one_call(self, path, parent_peak):
        assert self.peak_of_one_call(path)[1] <= 1.1 * parent_peak

    @pytest.mark.parametrize("sig, skew", [((0, 16), True), ((8, 8), False)])
    def test_shifted_blocks_are_made_once(self, sig, skew):
        # R(pi) of R_Id on (0,16) is skew to the bit, so the real rank test reads
        # its k = 1 singular values from eigvalsh and makes a shifted block only
        # for a sequence that runs past k = 1; on (8,8) it takes the SVD of all
        # blocks, made in one broadcast.  Either peak stays at or below the
        # 798 431 bytes of the SVD route before eigvalsh (numpy 2.4.6).
        c, peak = self.peak_of_one_call("real", sig)
        assert np.array_equal(c.swapaxes(-1, -2), -c) == skew
        assert peak <= 798_431


def parent_rule_ranks(c, lam, mult, own, tol):
    """_ranks_at by the rule that decomposed both blocks A_c - lambda and A_c -
    conj(lambda) of a conjugate pair's first cluster on C^{m/2}, with members or not:
    a block with none had rank n, and every block was cut at the larger sigma_max of
    the two, through reference_rank_sequences.  Also the (sigma_max, bound) pairs of
    the blocks with no members: the dropped block's own sigma_max, and the bound that
    now stands for it, sigma_max of the other block plus |lambda - conj(lambda)|."""
    n, half = c.shape[-1], c.shape[-1] < mult.sum()
    own = own if half else mult
    conj = [int(np.argmin(np.abs(lam - value.conjugate()))) for value in lam.tolist()]
    blocks, spans = [], {}
    for i in range(len(c)):
        for j, (value, mu, members) in enumerate(zip(lam.tolist(), mult.tolist(), own.tolist())):
            t = len(blocks)
            if half and conj[j] > j:
                blocks += [(i, value, members, mu, t + 1), (i, value.conjugate(), mu - members, mu, t)]
            elif conj[j] == j or (conj[j] > j and not half):
                blocks.append((i, value, members, mu, t))
            spans[i, j] = range(t, len(blocks))
    seqs = reference_rank_sequences(c, blocks, tol)
    width = int(mult.max())
    ranks = np.zeros((len(c), len(lam), width), dtype=int)
    for (i, j), span in spans.items():
        if span:
            factor = 2 if half and len(span) == 1 else 1
            seq = [factor * sum(r) for r in zip(*(seqs[t] for t in span))]
            ranks[i, j] = seq + seq[-1:] * (width - len(seq))
    for (i, j), span in spans.items():
        if not span:
            ranks[i, j] = ranks[i, conj[j]]
    dropped = [(row, mu, blocks[partner][1]) for row, mu, members, _, partner in blocks if members == 0]
    sigma = lambda row, mu: np.linalg.svd(c[row] - mu * np.eye(n), compute_uv=False)[0]
    return ranks, [(sigma(row, mu), sigma(row, other) + abs(other - other.conjugate()))
                   for row, mu, other in dropped]


class TestMemberlessBlocksKeepTheParentRanks:
    """On C^{m/2} the rank test decomposes A_c - lambda only where A_c has eigenvalues in
    the cluster, and takes sigma_max(B_t) + |lambda - conj(lambda)| for the sigma_max of
    a partner block with none.  The rule before decomposed both blocks of every cluster
    and took the larger sigma_max: the bound never lies below the dropped block's
    sigma_max, and the ranks and verdicts are that rule's, on the lines the Jordan
    checks draw."""

    TOL = OPERATOR_TOL

    def assert_keeps_the_parent_rule(self, tensor, J, samples):
        """Each causal type's lines, against their first line's fingerprint on the route of
        the identity J*R = R, as check_jordan_ip takes it; the number of blocks with no members."""
        dropped = 0
        invariant = check_J_invariance(tensor, J, jordan_ip._ALMOST_COMPLEX_TOL).passed
        basis = J._plus_i_basis if invariant else None
        for lines in samples:
            ops = np.concatenate(list(jordan_ip.curvature_operators(tensor, lines)))
            anchor = jordan_invariants(ops[0], self.TOL, basis)
            lam, mult = map(np.array, zip(*anchor.clusters))
            own = np.array(anchor._members)
            c = on_path(ops, basis)
            want, bounds = parent_rule_ranks(c, lam, mult, own, self.TOL)
            assert np.array_equal(_ranks_at(c, lam, mult, own, self.TOL), want)
            width = want.shape[-1]
            seqs = np.array([seq + seq[-1:] * (width - len(seq)) for seq in anchor.rank_sequences])
            assert np.array_equal(_matches_form(c, anchor, self.TOL), (want == seqs).all(axis=(1, 2)))
            # The triangle inequality holds exactly.  It is an equality where A_c - lambda
            # and A_c - conj(lambda) share a top singular vector, as for a normal A_c with
            # its eigenvalues on the imaginary axis beyond lambda; there the two computed
            # sides differ by the SVD's rounding, a few eps.
            n = c.shape[-1]
            assert all(bound >= sigma * (1 - n * np.finfo(float).eps) for sigma, bound in bounds)
            dropped += len(bounds)
        return dropped

    def test_a_missing_partner_is_cut_at_the_bound(self):
        # B = A_c - i = diag(1, 2e-6) has sigma_max 1.  Its partner A_c + i, with no
        # members, has sigma_max |1 + 2i| = 2.24, which 1 + |i - conj(i)| = 3 bounds.  At
        # tol 1e-6, 2e-6 lies above B's own cutoff and below the bound's.
        c, mus, ones = np.diag([1.0 + 1j, 1j + 2e-6])[None], np.array([1j]), np.array([1])
        assert _rank_sequences(c, mus, ones, ones, np.array([0]), 1e-6).tolist() == [[[2]]]
        assert _rank_sequences(c, mus, ones, ones, np.array([-1]), 1e-6).tolist() == [[[1]]]

    # The jordan_sweep complex configs, coefficients drawn in [0.5, 2] as the sweep draws
    # them, and the J-invariant part of a random tensor, whose A_c holds one eigenvalue of
    # each of m/2 conjugate pairs.
    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (2, 6), (0, 16), (8, 8)], ids=str)
    def test_sweep_configs(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        identity = from_self_adjoint(space, np.eye(space.m))
        for seed in range(10):
            c0, c1, a, b = np.random.default_rng([seed, *sig]).uniform(0.5, 2.0, 4)
            samples = lines_by_type(J, 40, seed)
            assert self.assert_keeps_the_parent_rule(build_complex_pair_tensor(J, c0, c1), J, samples) > 0
            r = combine([(a, identity), (b, from_self_adjoint(space, conjugation_map(space.m)))])
            self.assert_keeps_the_parent_rule(r, J, samples)
            assert self.assert_keeps_the_parent_rule(random_J_invariant_tensor(J, seed), J, samples) > 0
            if sig[0] % 4 == 0 and sig[0] * sig[1] == 0:
                quat = standard_quaternion_structure(space)
                structure = quat.as_complex
                r = build_quaternionic_tensor(quat, 1, 2, 8, 0)
                assert self.assert_keeps_the_parent_rule(r, structure, lines_by_type(structure, 40, seed)) > 0

    # The boosted J of test_boost_keeps_the_spectrum: [Q, conj(Q)] is not unitary, so
    # sigma_max(A_c) is not sigma_max(R(pi)).
    @pytest.mark.parametrize("rapidity", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tensor", ["pair", "quaternionic"])
    def test_boosted_structure(self, tensor, rapidity):
        space = BilinearSpace(4, 4)
        quat = standard_quaternion_structure(space)
        J, g = quat.as_complex, boost(space, rapidity)
        moved = boosted_structure(space, rapidity)
        r = {"pair": lambda: build_complex_pair_tensor(J, 1.0, 2.0),
             "quaternionic": lambda: build_quaternionic_tensor(quat, 1, 2, 8, 0)}[tensor]()
        samples = [[complex_line(moved, g @ line.x) for line in lines] for lines in lines_by_type(J, 30, 0)]
        assert self.assert_keeps_the_parent_rule(pullback(r, np.linalg.inv(g)), moved, samples) > 0


class TestSkewHermitianStacksTakeEigvalsh:
    """_matches_form reads the k = 1 singular values of an exactly skew-Hermitian stack,
    a normal one, as |lambda(c[i]) - mu| from one eigvalsh call; any other stack, and every
    power k >= 2, takes the SVD.  The ranks are those of the SVD rule."""

    TOL = OPERATOR_TOL

    @staticmethod
    def definite_stacks():
        """R_Id on real planes and c0 R_Id + c1 R_J on the +i eigenspace of (0, 8), as
        the Jordan checks test them, with the anchor of each."""
        space = BilinearSpace(0, 8)
        J = standard_complex_structure(space)
        ops = [curvature_operator(from_self_adjoint(space, np.eye(8)), plane)
               for plane in sample_real_planes(space, PlaneClass.SPACELIKE, 20, 0)]
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 20, 0)
        pair = np.array([curvature_operator(build_complex_pair_tensor(J, 1.5, 0.75), line) for line in lines])
        return [(np.array(ops), jordan_invariants(ops[0], OPERATOR_TOL)),
                (on_path(pair, J._plus_i_basis), jordan_invariants(pair[0], OPERATOR_TOL, J._plus_i_basis))]

    def test_exactly_skew_hermitian_stacks_take_eigvalsh(self, monkeypatch):
        stacks = self.definite_stacks()
        svd, eigh = spy_on_linalg(monkeypatch, "svd"), spy_on_linalg(monkeypatch, "eigvalsh")
        for c, anchor in stacks:
            assert c.dtype.kind == ("f" if c.shape[-1] == 8 else "c")
            assert _matches_form(c, anchor, self.TOL).all()
            assert svd == [] and eigh == [(c.shape[1:], "c", 20)]
            eigh.clear()

    def test_one_ulp_off_takes_the_svd(self, monkeypatch):
        stacks = self.definite_stacks()
        svd, eigh = spy_on_linalg(monkeypatch, "svd"), spy_on_linalg(monkeypatch, "eigvalsh")
        for c, anchor in stacks:
            # The real part of the largest entry of one operator, up by one ulp.
            moved, index = c.copy(), (3, *np.unravel_index(np.abs(c[3]).argmax(), c.shape[1:]))
            moved.real[index] = np.nextafter(moved.real[index], np.inf)
            assert _matches_form(moved, anchor, self.TOL).all()
            assert eigh == [] and [shape for shape, _, _ in svd] == [c.shape[1:]]
            svd.clear()

    # The lines of every causal type of (4, 4): R(pi) and A_c are skew-adjoint for the
    # signature, so max|c + c^H| is of the order of max|c|.
    def test_indefinite_stacks_take_the_svd(self, monkeypatch):
        space = BilinearSpace(4, 4)
        J = standard_complex_structure(space)
        svd, eigh = spy_on_linalg(monkeypatch, "svd"), spy_on_linalg(monkeypatch, "eigvalsh")
        identity = from_self_adjoint(space, np.eye(8))
        for tensor, basis, sample in ((identity, None, partial(sample_real_planes, space)),
                                      (build_complex_pair_tensor(J, 1.5, 0.75), J._plus_i_basis,
                                       partial(sample_complex_lines, J))):
            for causal_type in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE):
                ops = np.array([curvature_operator(tensor, plane) for plane in sample(causal_type, 10, 0)])
                anchor = jordan_invariants(ops[0], self.TOL, basis)
                svd.clear()
                assert _matches_form(on_path(ops, basis), anchor, self.TOL).all()
                assert eigh == [] and len(svd) == 1

    # An empty stack, such as the rest of the head block of a one-plane sample, gives no
    # verdict on either route of the check, and its rank sequences have no rows on the SVD's.
    def test_empty_stack(self):
        space = BilinearSpace(0, 4)
        J = standard_complex_structure(space)
        for c, anchor in ((np.zeros((0, 4, 4)), jordan_invariants(J.J, 1e-6)),
                          (np.zeros((0, 2, 2), dtype=complex), jordan_invariants(J.J, 1e-6, J._plus_i_basis))):
            same = _matches_form(c, anchor, 1e-6)
            assert same.dtype == bool and same.shape == (0,)
        ones = np.array([1])
        ranks = _rank_sequences(np.zeros((0, 2, 2)), np.array([1j]), ones, ones, np.array([0]), 1e-6)
        assert ranks.shape == (0, 1, 1)

    # The definite jordan_sweep signatures: R_Id on real planes; a R_Id + b R_C on complex
    # lines, whose offender lines run the k >= 2 loop; and the J-invariant part of a
    # random tensor, whose R(pi) is skew only to rounding, so that its stack takes the SVD
    # and its exactly skew-Hermitian part (c - c^H) / 2 takes eigvalsh, at generic spectra.
    @pytest.mark.parametrize("sig", [(0, 8), (0, 16)], ids=str)
    def test_ranks_equal_the_svd_rule(self, sig, monkeypatch):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        identity = from_self_adjoint(space, np.eye(space.m))
        ranks_at, seen = pseudo_linalg._ranks_at, []

        def spy(c, lam, mult, own, tol, evals=None):
            seen.append((evals is not None, ranks := ranks_at(c, lam, mult, own, tol, evals)))
            return ranks

        monkeypatch.setattr(pseudo_linalg, "_ranks_at", spy)
        svd = spy_on_linalg(monkeypatch, "svd")
        taken, powers = {}, 0
        for seed in range(10):
            a, b = np.random.default_rng([seed, *sig]).uniform(0.5, 2.0, 4)[2:]
            id_plus_c = combine([(a, identity), (b, from_self_adjoint(space, conjugation_map(space.m)))])
            for name, tensor, basis, planes in (
                    ("R_Id", identity, None, sample_real_planes(space, PlaneClass.SPACELIKE, 40, seed)),
                    ("a R_Id + b R_C", id_plus_c, J._plus_i_basis,
                     sample_complex_lines(J, PlaneClass.SPACELIKE, 40, seed)),
                    ("random", random_J_invariant_tensor(J, seed), J._plus_i_basis,
                     sample_complex_lines(J, PlaneClass.SPACELIKE, 40, seed))):
                ops = np.concatenate(list(jordan_ip.curvature_operators(tensor, planes)))
                anchor = jordan_invariants(ops[0], self.TOL, basis)
                lam, mult = map(np.array, zip(*anchor.clusters))
                c = on_path(ops, basis)
                for stack, part in ((c, False), ((c - c.conj().swapaxes(-1, -2)) / 2, True)):
                    seen.clear()
                    svd.clear()
                    same = _matches_form(stack, anchor, self.TOL)
                    (route, ranks), = seen
                    want = ranks_at(stack, lam, mult, np.array(anchor._members), self.TOL)
                    seqs = np.array([seq + seq[-1:] * (want.shape[-1] - len(seq))
                                     for seq in anchor.rank_sequences])
                    assert route == np.array_equal(stack.conj().swapaxes(-1, -2), -stack)
                    assert np.array_equal(ranks, want) and np.array_equal(same, (want == seqs).all(axis=(1, 2)))
                    taken[name, part] = taken.get((name, part), 0) + route
                    powers += len(svd) if route else 0  # the SVDs of powers k >= 2
        # Every skew-Hermitian part takes eigvalsh, and R_Id's real R(pi) is skew-symmetric to
        # the bit.  So is A_c at m = 8, while at m = 16 the pinned Haswell zgemm rounds the
        # (i, j) and (j, i) entries of Q^H A Q apart: those stacks take the SVD.
        assert taken == {("R_Id", False): 10, ("R_Id", True): 10, ("random", False): 0, ("random", True): 10,
                         ("a R_Id + b R_C", False): 10 if sig == (0, 8) else 0, ("a R_Id + b R_C", True): 10}
        assert powers > 0


class TestOnlyBlocksWithMembersAreDecomposed:
    """Every matrix that _rank_sequences decomposes in a complex Jordan check is A_c - mu
    (or A - mu on the real path) for a mu at an eigenvalue of its anchor's A_c (or A): a
    block with members.  On C^{m/2} there is one block per cluster of the anchor's A_c,
    where both blocks of every conjugate pair were decomposed before."""

    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (8, 8)], ids=str)
    def test_complex_checks(self, sig, monkeypatch):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        # A_c of c0 R_Id + c1 R_J holds one eigenvalue of each of its two conjugate pairs
        # (4 blocks before); that of a R_Id + b R_C both of a pair and 0 (3 before); that of
        # the quaternionic tensor both of one pair and one of another (4 before).
        cases = [(build_complex_pair_tensor(J, 1.3, 0.7), J, 2),
                 (combine([(0.8, from_self_adjoint(space, np.eye(space.m))),
                           (1.7, from_self_adjoint(space, conjugation_map(space.m)))]), J, 3)]
        if sig == (0, 8):
            quat = standard_quaternion_structure(space)
            cases.append((build_quaternionic_tensor(quat, 1, 2, 8, 0), quat.as_complex, 3))
        anchors, decomposed = [], []
        fingerprint, rank_sequences = jordan_ip.jordan_invariants, pseudo_linalg._rank_sequences

        def spy_fingerprint(a, tol, basis=None):
            anchors.append((a, basis))
            return fingerprint(a, tol, basis)

        def spy_rank_sequences(c, mus, *args):
            decomposed.append((anchors[-1], c, mus))
            return rank_sequences(c, mus, *args)

        monkeypatch.setattr(jordan_ip, "jordan_invariants", spy_fingerprint)
        monkeypatch.setattr(pseudo_linalg, "_rank_sequences", spy_rank_sequences)
        for tensor, structure, blocks in cases:
            decomposed.clear()
            check_jordan_ip(tensor, structure, n=100, seed=1)
            # Per causal type: the anchor, then blocks of 63 and 36 lines.
            assert len(decomposed) == 3 * (2 if space.p else 1)
            for (a, basis), c, mus in decomposed:
                a_c = a if basis is None else on_path(a[None], basis)[0]
                evals = np.linalg.eigvals(a_c if c.shape[-1] == len(a_c) else a)
                scale = np.linalg.svd(a_c, compute_uv=False)[0]
                assert all(np.abs(evals - mu).min() <= OPERATOR_TOL * scale for mu in mus.tolist())
                if c.shape[-1] < len(a):
                    clusters, _ = union_find_clusters(evals, OPERATOR_TOL * scale)
                    assert len(mus) == len(clusters) == blocks


def spy_on_linalg(monkeypatch, name):
    """For every np.linalg.<name> call from now on, the trailing shape and the
    dtype kind of its matrices, and how many a stack holds (1 for one matrix)."""
    original = getattr(np.linalg, name)
    calls = []

    def spy(a, *args, **kwargs):
        calls.append((a.shape[-2:], a.dtype.kind, int(np.prod(a.shape[:-2]))))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def union_find_clusters(evals, threshold):
    """Reference: single-linkage clusters by union-find over every eigenvalue
    pair, grouped by root in order of first member, and the factor-of-10 band
    test over every pair."""
    n = evals.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(evals[i] - evals[j]) <= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    ambiguous = False
    if threshold > 0:
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(evals[i] - evals[j])
                if threshold / 10.0 < d < threshold * 10.0:
                    ambiguous = True
    return [evals[idx] for idx in groups.values()], ambiguous


def planted_clusters(seed):
    """Complex eigenvalues jittered by at most 1e-9 around 1 to 5 centres,
    shuffled, with threshold 1e-6."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal(rng.integers(1, 6)) + 1j * rng.standard_normal(1)
    sizes = rng.integers(1, 5, centres.size)
    evals = np.repeat(centres, sizes) + 1e-9 * (
        rng.uniform(-1, 1, sizes.sum()) + 1j * rng.uniform(-1, 1, sizes.sum())
    )
    return rng.permutation(evals), 1e-6


CLUSTERING_CASES = {
    **{f"planted_{seed}": planted_clusters(seed) for seed in range(8)},
    # a-b and b-c within the threshold, a-c beyond it, in every index order.
    **{f"chain_{order}": (np.array([0.0, 0.9, 1.8])[list(order)].astype(complex), 1.0)
       for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 0, 1))},
    # A chain of 12 links that needs every squaring, shuffled, plus a stray.
    "long_chain": (np.append(np.random.default_rng(1).permutation(np.arange(12) * 0.9), 50.0), 1.0),
    "repeated": (np.array([2.0, 1.0, 2.0, 1.0, 2.0, 3.0]) + 0j, 1e-8),
    "threshold_zero": (np.array([1.0, 1.0, 1.0 + 1e-15, 2.0, 1.0]) + 0j, 0.0),
    "single": (np.array([0.5 + 0.5j]), 1e-6),
    "empty": (np.empty(0, dtype=complex), 1e-6),
    "band_only": (np.array([1.0, 1.0 + 5e-8, 3.0]), 1e-8),
    # Sorted real eigenvalues, such as those of J R(pi) on a complex line.
    **{f"sorted_real_{seed}": (np.sort(np.random.default_rng(seed).choice(
        [-4.0, 4.0, 7.0], 12) + 1e-9 * np.random.default_rng(seed).standard_normal(12)), 1e-6)
       for seed in range(4)},
}


class TestClusterEigenvalues:
    @pytest.mark.parametrize("name", CLUSTERING_CASES)
    def test_matches_union_find(self, name):
        evals, threshold = CLUSTERING_CASES[name]
        roots, ambiguous = _cluster_eigenvalues(evals, threshold)
        groups = [evals[roots == root] for root in dict.fromkeys(roots)]
        ref_groups, ref_ambiguous = union_find_clusters(evals, threshold)
        assert ambiguous == ref_ambiguous
        assert len(groups) == len(ref_groups)
        for got, want in zip(groups, ref_groups):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_chain_is_one_cluster(self):
        roots, ambiguous = _cluster_eigenvalues(np.array([0.0, 1.8, 0.9]), 1.0)
        assert roots.tolist() == [0, 0, 0]
        assert ambiguous


def assert_same_lines(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
        assert np.float64(a.det).tobytes() == np.float64(b.det).tobytes()
        assert a.plane_class is b.plane_class


def dense_structure(space):
    """D J D^-1 for the J of conjugated_structure and an isometry D = diag(O(p), O(q))
    drawn at random, so that each entry of J x sums many rounded products, where
    the standard J's entries are exactly 0 and +-1."""
    rng = np.random.default_rng(0)
    d = np.zeros((space.m, space.m))
    for lo, hi in ((0, space.p), (space.p, space.m)):
        if hi > lo:
            d[lo:hi, lo:hi] = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))[0]
    return ComplexStructure(space, d @ conjugated_structure(space).J @ adjoint(space, d))


def kappa(planes):
    """|x|^2 |y|^2 / |det| of each plane: at most 91 for every constructed sample."""
    return np.array([p.x.dot(p.x) * p.y.dot(p.y) / abs(p.det) for p in planes])


def samplers(J):
    """(causal type, sample(n, seed)) for every type that exists in J's space: real
    planes of each type, then complex lines of J of each type."""
    space = J.space
    real = [(t, partial(sample_real_planes, space, t))
            for t in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED)]
    lines = [(t, partial(sample_complex_lines, J, t)) for t in jordan_ip._LINE_TYPES]
    return [(t, sample) for t, sample in real + lines if jordan_ip._real_plane_realizable(space, t)]


# (2,8), (2,14) and (4,12) timelike planes and (2,30) timelike lines are about one
# standard-normal pair or draw in thousands, or fewer.
CONSTRUCTED = [(0, 8), (2, 6), (4, 4), (2, 8), (2, 14), (4, 12), (2, 30)]


class TestConstructedSamples:
    """Each sample is built in its causal type from its own standard-normal draw."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("sig", CONSTRUCTED, ids=str)
    def test_samples_have_their_type_and_bounded_kappa(self, sig, seed):
        space = BilinearSpace(*sig)
        for causal_type, sample in samplers(standard_complex_structure(space)):
            planes = sample(100, seed)
            assert len(planes) == 100 and all(p.plane_class is causal_type for p in planes)
            assert kappa(planes).max() <= 91
            # The stacked Gram test gives each plane the det and type of the plane made alone.
            assert_same_lines(planes, [OrientedPlane(space, p.x, p.y) for p in planes])

    @pytest.mark.parametrize("sig", CONSTRUCTED, ids=str)
    def test_first_k_samples_do_not_depend_on_n(self, sig):
        for _, sample in samplers(standard_complex_structure(BilinearSpace(*sig))):
            for seed in range(20):
                assert_same_lines(sample(7, seed), sample(100, seed)[:7])

    # The stacked gemv makes, row by row, J @ x of that row alone; einsum, a row sum
    # or xs @ J.T would move bits of the dense J here.
    @pytest.mark.parametrize("sig", [(0, 16), (8, 8), (2, 30)], ids=str)
    def test_lines_of_a_dense_structure(self, sig):
        J = dense_structure(BilinearSpace(*sig))
        for causal_type in jordan_ip._LINE_TYPES:
            if jordan_ip._real_plane_realizable(J.space, causal_type):
                lines = sample_complex_lines(J, causal_type, 1000, 3)
                assert_same_lines(lines, [OrientedPlane(J.space, p.x, J.J @ p.x) for p in lines])
                assert all(p.plane_class is causal_type for p in lines)

    def test_definite_lines_are_the_raw_draws_rescaled(self):
        J = standard_complex_structure(BilinearSpace(0, 8))
        xs = np.random.default_rng(5).standard_normal((50, 8))
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 50, 5)
        assert all(line.x.tobytes() == (x / np.sqrt(x.dot(x))).tobytes() for line, x in zip(lines, xs))

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_sample_count_below_one(self, n):
        for _, sample in samplers(standard_complex_structure(BilinearSpace(2, 2))):
            with pytest.raises(ValueError, match="^sample count must be at least 1$"):
                sample(n, 0)

    # For a J that is not orthogonal, |Jx| / |x| reaches ||J||_2, so the bound on
    # |x|^4 / (x, x)^2 bounds kappa by 91 ||J||_2^2: 91 itself only for an orthogonal J.
    @pytest.mark.parametrize("rapidity", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sig", [(2, 2), (4, 4), (2, 6)], ids=str)
    def test_boosted_structure_samples_lines_of_each_type(self, sig, rapidity):
        J = boosted_structure(BilinearSpace(*sig), rapidity)
        for causal_type in jordan_ip._LINE_TYPES:
            lines = sample_complex_lines(J, causal_type, 100, 0)
            assert len(lines) == 100 and all(p.plane_class is causal_type for p in lines)
            assert kappa(lines).max() <= 91 * np.linalg.norm(J.J, 2) ** 2

    # At rapidity 10, |Jx| reaches about 1e4 |x|, and span{x, Jx} fails the plane test.
    @pytest.mark.parametrize("sig", [(2, 2), (4, 4), (2, 6)], ids=str)
    def test_degenerate_lines_of_a_boosted_structure_raise(self, sig):
        J = boosted_structure(BilinearSpace(*sig), 10.0)
        message = "^this structure's complex lines are degenerate: "
        for causal_type in jordan_ip._LINE_TYPES:
            with pytest.raises(ValueError, match=message):
                sample_complex_lines(J, causal_type, 100, 0)
        with pytest.raises(ValueError, match=message):
            check_jordan_ip(from_self_adjoint(J.space, np.eye(J.space.m)), J, n=100, seed=0)
