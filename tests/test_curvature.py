import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (
    BilinearSpace,
    ComplexStructure,
    CurvatureTensor,
    adjoint,
    apply_pair,
    apply_pairs,
    build_complex_pair_tensor,
    build_quaternionic_tensor,
    check_gray_identity,
    check_J_invariance,
    check_symmetries,
    combine,
    from_self_adjoint,
    from_skew_adjoint,
    projected_generator,
    pullback,
    random_algebraic_curvature_tensor,
    standard_complex_structure,
    standard_quaternion_structure,
)
from curvlab import curvature


def e(m, i):
    v = np.zeros(m)
    v[i] = 1.0
    return v


def self_adjoint_part(space, a):
    return 0.5 * (a + adjoint(space, a))


def skew_adjoint_part(space, a):
    return 0.5 * (a - adjoint(space, a))


class TestFromSelfAdjoint:
    def test_identity_generator_unit_sectional_value(self):
        s = BilinearSpace(0, 2)
        r = from_self_adjoint(s, np.eye(2))
        assert r.coeffs[0, 1, 1, 0] == 1.0

    def test_last_pair_antisymmetry_entry(self):
        s = BilinearSpace(0, 2)
        r = from_self_adjoint(s, np.eye(2))
        assert r.coeffs[0, 1, 0, 1] == -1.0

    def test_zero_generator(self):
        s = BilinearSpace(0, 3)
        r = from_self_adjoint(s, np.zeros((3, 3)))
        assert not r.coeffs.any()

    def test_rejects_non_self_adjoint_with_witness(self):
        s = BilinearSpace(0, 3)
        phi = np.zeros((3, 3))
        phi[0, 1] = 1.0
        with pytest.raises(ValueError, match=r"not self-adjoint.*\(0, 1\)"):
            from_self_adjoint(s, phi)

    # The residual |phi - phi*| is judged at DEFAULT_TOL * max|phi|, so a
    # small generic matrix is rejected as a large one is.
    @pytest.mark.parametrize("c", [1e-9, 1.0])
    def test_rejects_non_self_adjoint_at_every_scale(self, c):
        s = BilinearSpace(0, 4)
        phi = c * np.random.default_rng(1).standard_normal((4, 4))
        with pytest.raises(ValueError, match="not self-adjoint"):
            from_self_adjoint(s, phi)


class TestFromSkewAdjoint:
    def test_rotation_generator_value(self):
        s = BilinearSpace(0, 2)
        J = standard_complex_structure(s)
        r = from_skew_adjoint(s, J.J)
        assert r.coeffs[0, 1, 0, 1] == -3.0

    def test_rotation_generator_acts_blockwise(self):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = from_skew_adjoint(s, J.J)
        assert r.coeffs[2, 3, 2, 3] == -3.0

    def test_zero_generator(self):
        s = BilinearSpace(0, 4)
        r = from_skew_adjoint(s, np.zeros((4, 4)))
        assert not r.coeffs.any()

    def test_rejects_non_skew_adjoint(self):
        s = BilinearSpace(0, 2)
        with pytest.raises(ValueError, match="not skew-adjoint"):
            from_skew_adjoint(s, np.eye(2))


class TestCombine:
    def test_identity_combination(self):
        s = BilinearSpace(0, 3)
        r = random_algebraic_curvature_tensor(s, 0)
        out = combine([(1.0, r)])
        assert np.array_equal(out.coeffs, r.coeffs)

    def test_cancellation(self):
        s = BilinearSpace(0, 3)
        r = random_algebraic_curvature_tensor(s, 1)
        out = combine([(1.0, r), (-1.0, r)])
        assert not out.coeffs.any()

    def test_sum_of_constructor_values(self):
        s = BilinearSpace(0, 2)
        r_id = from_self_adjoint(s, np.eye(2))
        r_j = from_skew_adjoint(s, standard_complex_structure(s).J)
        out = combine([(1.0, r_id), (1.0, r_j)])
        assert out.coeffs[0, 1, 1, 0] == 4.0

    def test_space_mismatch(self):
        r1 = random_algebraic_curvature_tensor(BilinearSpace(0, 3), 0)
        r2 = random_algebraic_curvature_tensor(BilinearSpace(1, 2), 0)
        with pytest.raises(ValueError, match="space mismatch"):
            combine([(1.0, r1), (1.0, r2)])

    @pytest.mark.parametrize("terms", [[], iter(())], ids=["list", "iterator"])
    def test_needs_a_term(self, terms):
        with pytest.raises(ValueError, match="combine needs at least one"):
            combine(terms)

    def test_sum_clears_negative_zeros(self):
        s = BilinearSpace(0, 4)
        r = CurvatureTensor(s, -from_self_adjoint(s, np.eye(4)).coeffs)
        assert np.signbit(r.coeffs[r.coeffs == 0]).all()
        out = combine([(1.0, r)])
        assert np.array_equal(out.coeffs, r.coeffs)
        assert not np.signbit(out.coeffs[out.coeffs == 0]).any()

    def test_generator_terms_are_not_kept(self):
        # When combine asks for the next term, it may still hold the one in
        # hand, but no earlier one.
        s = BilinearSpace(0, 4)
        refs, older_alive = [], []

        def term(seed):
            r = random_algebraic_curvature_tensor(s, seed)
            refs.append(weakref.ref(r))
            return 0.5 + seed, r

        def terms():
            for seed in range(5):
                older_alive.append(sum(ref() is not None for ref in refs[:-1]))
                yield term(seed)

        out = combine(terms())
        assert older_alive == [0, 0, 0, 0, 0]
        assert all(ref() is None for ref in refs)
        assert np.array_equal(out.coeffs, combine([term(seed) for seed in range(5)]).coeffs)


SIGNATURES = [(0, 4), (0, 6), (1, 3), (2, 2), (2, 4)]


class TestCheckSymmetries:
    @pytest.mark.parametrize("sig", SIGNATURES)
    def test_constructor_outputs_satisfy_identities(self, sig):
        space = BilinearSpace(*sig)
        rng = np.random.default_rng(hash(sig) % 2**32)
        for _ in range(5):
            raw = rng.standard_normal((space.m, space.m))
            r_self = from_self_adjoint(space, self_adjoint_part(space, raw))
            r_skew = from_skew_adjoint(space, skew_adjoint_part(space, raw))
            assert check_symmetries(r_self).max_violation <= 1e-12
            assert check_symmetries(r_skew).max_violation <= 1e-12

    def test_perturbed_entry_breaks_pair_symmetry(self):
        space = BilinearSpace(0, 5)
        r = random_algebraic_curvature_tensor(space, 2)
        coeffs = r.coeffs.copy()
        coeffs[1, 2, 3, 4] += 1.0
        report = check_symmetries(CurvatureTensor(space, coeffs))
        assert report.pair_symmetry >= 1.0
        assert report.pair_symmetry_witness in ((1, 2, 3, 4), (3, 4, 1, 2))

    def test_zero_tensor(self):
        space = BilinearSpace(0, 3)
        r = CurvatureTensor(space, np.zeros((3, 3, 3, 3)))
        assert check_symmetries(r).max_violation == 0.0

    # The verdict is judged at tol * max|R|, so scaling the tensor keeps it.
    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e8])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_verdict_does_not_depend_on_scale(self, c, perturbed):
        space = BilinearSpace(1, 4)
        coeffs = random_algebraic_curvature_tensor(space, 2).coeffs.copy()
        if perturbed:
            coeffs[1, 2, 3, 4] += 1e-6
        report = check_symmetries(CurvatureTensor(space, c * coeffs))
        assert report.passed is (not perturbed)

    def test_random_projection_is_algebraic_curvature_tensor(self):
        for sig in SIGNATURES:
            r = random_algebraic_curvature_tensor(BilinearSpace(*sig), 3)
            assert check_symmetries(r).max_violation <= 1e-12
            assert np.max(np.abs(r.coeffs)) > 1e-3


class TestApplyPair:
    def test_unit_plane_rotation(self):
        s = BilinearSpace(0, 4)
        r = from_self_adjoint(s, np.eye(4))
        op = apply_pair(r, e(4, 0), e(4, 1))
        assert np.allclose(op @ e(4, 0), -e(4, 1))
        assert np.allclose(op @ e(4, 1), e(4, 0))
        assert np.allclose(op @ e(4, 2), 0.0)
        assert np.allclose(op @ e(4, 3), 0.0)

    def test_equal_arguments_give_zero_map(self):
        s = BilinearSpace(1, 3)
        r = random_algebraic_curvature_tensor(s, 4)
        x = np.random.default_rng(5).standard_normal(4)
        assert np.max(np.abs(apply_pair(r, x, x))) <= 1e-12

    def test_bilinearity(self):
        s = BilinearSpace(0, 4)
        r = random_algebraic_curvature_tensor(s, 6)
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert np.allclose(apply_pair(r, 2.0 * x, y), 2.0 * apply_pair(r, x, y))

    def test_defining_contraction(self):
        s = BilinearSpace(2, 2)
        r = random_algebraic_curvature_tensor(s, 8)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        op = apply_pair(r, x, y)
        for c in range(4):
            for d in range(4):
                expected = float(np.einsum("a,b,ab->", x, y, r.coeffs[:, :, c, d]))
                got = float((op @ e(4, c)) @ (s.signs * e(4, d)))
                assert got == pytest.approx(expected, abs=1e-10)


class TestPullback:
    def test_identity(self):
        s = BilinearSpace(0, 3)
        r = random_algebraic_curvature_tensor(s, 10)
        assert np.allclose(pullback(r, np.eye(3)).coeffs, r.coeffs)

    def test_negated_identity(self):
        s = BilinearSpace(1, 2)
        r = random_algebraic_curvature_tensor(s, 11)
        assert np.allclose(pullback(r, -np.eye(3)).coeffs, r.coeffs)

    def test_isometry_fixes_metric_tensor(self):
        s = BilinearSpace(0, 2)
        r = from_self_adjoint(s, np.eye(2))
        J = standard_complex_structure(s)
        assert np.allclose(pullback(r, J.J).coeffs, r.coeffs, atol=1e-14)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_functoriality(self, seed):
        s = BilinearSpace(1, 3)
        rng = np.random.default_rng(seed)
        r = random_algebraic_curvature_tensor(s, rng)
        t = rng.standard_normal((4, 4))
        u = rng.standard_normal((4, 4))
        twice = pullback(pullback(r, t), u)
        composed = pullback(r, t @ u)
        scale = max(1.0, np.max(np.abs(composed.coeffs)))
        assert np.max(np.abs(twice.coeffs - composed.coeffs)) <= 1e-12 * scale

    def test_preserves_symmetries_for_arbitrary_maps(self):
        s = BilinearSpace(0, 4)
        r = random_algebraic_curvature_tensor(s, 12)
        t = np.random.default_rng(13).standard_normal((4, 4))
        assert check_symmetries(pullback(r, t)).max_violation <= 1e-10


class TestCheckJInvariance:
    def test_metric_tensor_invariant(self):
        s = BilinearSpace(0, 4)
        r = from_self_adjoint(s, np.eye(4))
        J = standard_complex_structure(s)
        report = check_J_invariance(r, J)
        assert report.passed and report.max_violation <= 1e-14

    def test_commuting_self_adjoint_generator(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        phi = projected_generator(s, J, +1, +1, seed=14)
        assert check_J_invariance(from_self_adjoint(s, phi), J).passed

    @pytest.mark.parametrize("adjoint_sign,commutation_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("sig", [(0, 4), (0, 6), (2, 2), (2, 4)])
    def test_all_projected_classes_invariant(self, sig, adjoint_sign, commutation_sign):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        rng = np.random.default_rng(15)
        for _ in range(3):
            phi = projected_generator(space, J, adjoint_sign, commutation_sign, rng)
            build = from_self_adjoint if adjoint_sign == 1 else from_skew_adjoint
            report = check_J_invariance(build(space, phi), J, tol=1e-10)
            assert report.passed, report.max_violation

    def test_generic_self_adjoint_generator_fails(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        rng = np.random.default_rng(16)
        phi = self_adjoint_part(s, rng.standard_normal((6, 6)))
        # generic phi neither commutes nor anticommutes with J
        assert np.max(np.abs(phi @ J.J - J.J @ phi)) > 0.1
        assert np.max(np.abs(phi @ J.J + J.J @ phi)) > 0.1
        report = check_J_invariance(from_self_adjoint(s, phi), J)
        assert not report.passed
        assert report.max_violation > 1e-3

    def test_small_generic_tensor_fails(self):
        # The bound is tol * max|R|: violations of 3e-12 fail at 1e-12 scale.
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        phi = self_adjoint_part(s, np.random.default_rng(16).standard_normal((6, 6)))
        report = check_J_invariance(combine([(1e-12, from_self_adjoint(s, phi))]), J)
        assert not report.passed
        assert report.max_violation > 1e-15


# A structure is a structure of one space: with m equal, J of (4,4) must not
# be read as a structure of (0,8), where R_Id would pass with violation 0.
@pytest.mark.parametrize("check", [check_J_invariance, check_gray_identity])
def test_structure_of_another_signature_raises(check):
    r = from_self_adjoint(BilinearSpace(0, 8), np.eye(8))
    J = standard_complex_structure(BilinearSpace(4, 4))
    with pytest.raises(ValueError, match=r"^structure in BilinearSpace\(p=4, q=4\) used with a tensor in BilinearSpace\(p=0, q=8\)$"):
        check(r, J)


class TestCheckGrayIdentity:
    def test_metric_tensor_satisfies_identity(self):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, np.eye(4))
        assert check_gray_identity(r, J).passed

    def test_zero_tensor(self):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = CurvatureTensor(s, np.zeros((4,) * 4))
        report = check_gray_identity(r, J)
        assert report.passed and report.max_violation == 0.0

    @pytest.mark.parametrize("adjoint_sign", [1, -1])
    @pytest.mark.parametrize("sig", [(0, 4), (0, 6), (2, 2)])
    def test_commuting_generators_satisfy_identity(self, sig, adjoint_sign):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        rng = np.random.default_rng(17)
        for _ in range(5):
            phi = projected_generator(space, J, adjoint_sign, +1, rng)
            build = from_self_adjoint if adjoint_sign == 1 else from_skew_adjoint
            assert check_gray_identity(build(space, phi), J, tol=1e-10).passed

    def test_high_rank_anticommuting_generator_fails_with_golden_value(self):
        # Frozen after first computation; the criterion floor is 0.1.
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        r = from_skew_adjoint(s, quat.j)
        report = check_gray_identity(r, quat.as_complex)
        assert not report.passed
        assert report.max_violation >= 0.1
        assert report.max_violation == pytest.approx(12.0, abs=1e-9)

    def test_small_anticommuting_generator_fails(self):
        # The bound is tol * max|R|, so 1e-12 R_j fails as R_j does.
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        r = combine([(1e-12, from_skew_adjoint(s, quat.j))])
        report = check_gray_identity(r, quat.as_complex)
        assert not report.passed
        assert report.max_violation == pytest.approx(12e-12, rel=1e-10)

    def test_six_single_slot_contractions(self, monkeypatch):
        s = BilinearSpace(2, 6)
        J = standard_complex_structure(s)
        kernel, slots = curvature._pullback, []

        def spy(r, t, which):
            slots.append(which)
            return kernel(r, t, which)

        monkeypatch.setattr(curvature, "_pullback", spy)
        check_gray_identity(random_algebraic_curvature_tensor(s, 5), J)
        assert slots == [(0,), (1,), (1,), (2,), (2,), (3,)]

    def test_peak_memory_is_four_tensors(self):
        s = BilinearSpace(0, 16)
        J = standard_complex_structure(s)
        r = random_algebraic_curvature_tensor(s, 5)
        tracemalloc.start()
        try:
            check_gray_identity(r, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * r.coeffs.nbytes + 64 * 1024


def reference_pullback(r, t):
    """R(Tx, Ty, Tz, Tw) as one 5-operand einsum."""
    return np.einsum("abcd,ai,bj,ck,dl->ijkl", r, t, t, t, t, optimize=True)


def reference_gray_difference(r, j):
    """Left side minus right side of the six-term Gray identity, one einsum per term."""
    pairs = (
        np.einsum("abkl,ai,bj->ijkl", r, j, j)
        + np.einsum("ajcl,ai,ck->ijkl", r, j, j)
        + np.einsum("ajkd,ai,dl->ijkl", r, j, j)
        + np.einsum("ibcl,bj,ck->ijkl", r, j, j)
        + np.einsum("ibkd,bj,dl->ijkl", r, j, j)
        + np.einsum("ijcd,ck,dl->ijkl", r, j, j)
    )
    return r + reference_pullback(r, j) - pairs


def conjugated_structure(space):
    """T J T^-1 for the standard J and an isometry T that mixes J's blocks.

    T acts on the planes (1, 2), (3, 4), ...: a rotation where both
    directions have one causal type, a boost where the plane is mixed, so
    on (2, 4) and (4, 4) T includes a boost; (0, 6) admits none.
    """
    t = np.eye(space.m)
    for k, i in enumerate(range(1, space.m - 1, 2)):
        a = 0.4 + 0.3 * k
        if i < space.p <= i + 1:
            block = [[np.cosh(a), np.sinh(a)], [np.sinh(a), np.cosh(a)]]
        else:
            block = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
        t[i : i + 2, i : i + 2] = block
    j = t @ standard_complex_structure(space).J @ adjoint(space, t)
    return ComplexStructure(space, j)


class TestNonPermutationStructure:
    """pullback, check_J_invariance and check_gray_identity against einsum
    references for a J that is no signed permutation, so every entry is a
    sum of several rounded products."""

    @pytest.fixture(params=[(0, 6), (2, 4), (4, 4)], ids=str)
    def case(self, request):
        space = BilinearSpace(*request.param)
        J = conjugated_structure(space)
        assert np.count_nonzero(np.abs(J.J) % 1.0) > space.m
        tensors = [
            random_algebraic_curvature_tensor(space, 18),
            combine([(1.0, from_self_adjoint(space, np.eye(space.m))),
                     (2.0, from_skew_adjoint(space, J.J))]),
        ]
        return J, tensors

    @staticmethod
    def scale(r, j):
        return float(np.max(np.abs(r))) * float(np.max(np.abs(j))) ** 4

    def test_pullback(self, case):
        J, tensors = case
        for r in tensors:
            got = pullback(r, J.J).coeffs
            want = reference_pullback(r.coeffs, J.J)
            assert np.max(np.abs(got - want)) <= 1e-12 * self.scale(r.coeffs, J.J)

    def test_check_J_invariance(self, case):
        J, tensors = case
        for r in tensors:
            want = float(np.max(np.abs(reference_pullback(r.coeffs, J.J) - r.coeffs)))
            got = check_J_invariance(r, J).max_violation
            assert abs(got - want) <= 1e-12 * self.scale(r.coeffs, J.J)
        assert not check_J_invariance(tensors[0], J).passed
        assert check_J_invariance(tensors[1], J).passed

    def test_check_gray_identity(self, case):
        J, tensors = case
        for r in tensors:
            want = float(np.max(np.abs(reference_gray_difference(r.coeffs, J.J))))
            got = check_gray_identity(r, J).max_violation
            assert abs(got - want) <= 1e-12 * self.scale(r.coeffs, J.J)
        assert not check_gray_identity(tensors[0], J).passed
        assert check_gray_identity(tensors[1], J).passed


# References: each constructor formula written out in full, and each standard
# structure placed block by block.  The library must match them to the bit, the
# sign of zeros included.
def reference_generator_tensor(space, phi, sign):
    b = phi.T * space.signs[None, :]
    if sign > 0:
        return np.einsum("bc,ad->abcd", b, b) - np.einsum("ac,bd->abcd", b, b)
    return (
        np.einsum("bc,ad->abcd", b, b)
        - np.einsum("ac,bd->abcd", b, b)
        - 2.0 * np.einsum("ab,cd->abcd", b, b)
    )


def reference_blocks(space, block):
    n = block.shape[0]
    u = np.zeros((space.m, space.m))
    for b in range(space.m // n):
        u[n * b : n * b + n, n * b : n * b + n] = block
    return u


REFERENCE_ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])
REFERENCE_QUAT = [
    np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float),
    np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float),
]


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("sig", [(0, 4), (2, 2), (4, 4), (0, 8), (8, 8), (0, 32)])
class TestBitwiseReferences:
    def test_constructors(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        rng = np.random.default_rng(sum(sig))
        for sign, phis in (
            (1, [np.eye(space.m), self_adjoint_part(space, rng.standard_normal((space.m,) * 2))]),
            (-1, [J.J, skew_adjoint_part(space, rng.standard_normal((space.m,) * 2))]),
        ):
            build = from_self_adjoint if sign > 0 else from_skew_adjoint
            for phi in phis:
                want = reference_generator_tensor(space, phi, sign)
                assert_same_bits(build(space, phi).coeffs, want)

    def test_standard_structures(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        assert_same_bits(J.J, reference_blocks(space, REFERENCE_ROT2))
        if sig[0] % 4 == 0:
            quat = standard_quaternion_structure(space)
            for got, block in zip((quat.i, quat.j, quat.k), REFERENCE_QUAT):
                assert_same_bits(got, reference_blocks(space, block))
            assert_same_bits(quat.k, quat.i @ quat.j)

    def test_build_tensors(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        r_id = CurvatureTensor(space, reference_generator_tensor(space, np.eye(space.m), 1))
        r_j = CurvatureTensor(space, reference_generator_tensor(space, J.J, -1))
        for c0, c1 in ((1.5, -0.75), (-2.0, 0.0)):
            want = combine([(c0, r_id), (c1, r_j)]).coeffs
            assert_same_bits(build_complex_pair_tensor(J, c0, c1).coeffs, want)
        if sig[0] % 4 == 0:
            quat = standard_quaternion_structure(space)
            units = [
                CurvatureTensor(space, reference_generator_tensor(space, u, -1))
                for u in (quat.i, quat.j, quat.k)
            ]
            for cs in ((1.0, 2.0, 8.0, 0.0), (-0.5, 0.0, -3.0, 1.25)):
                want = combine([(cs[0], r_id)] + list(zip(cs[1:], units))).coeffs
                assert_same_bits(build_quaternionic_tensor(quat, *cs).coeffs, want)


# The single-pair contraction that apply_pair evaluated before operators were
# assembled by one matrix product; kept as the reference for apply_pairs.
def reference_apply_pair(tensor, x, y):
    return tensor.space.gram @ np.einsum("a,b,abcd->cd", x, y, tensor.coeffs).T


@pytest.mark.parametrize("sig", [(0, 4), (2, 2), (4, 4), (0, 8), (8, 8), (0, 32)])
class TestApplyPairsReference:
    @staticmethod
    def tensors(space):
        """Constructor, combined and random tensors, and one built from a non-contiguous array."""
        J = standard_complex_structure(space)
        rng = np.random.default_rng(space.m)
        r_id = from_self_adjoint(space, np.eye(space.m))
        r_j = from_skew_adjoint(space, J.J)
        out = [
            r_id,
            r_j,
            from_self_adjoint(space, self_adjoint_part(space, rng.standard_normal((space.m,) * 2))),
            combine([(1.5, r_id), (-0.75, r_j)]),
            build_complex_pair_tensor(J, 0.5, 2.0),
            random_algebraic_curvature_tensor(space, rng),
            CurvatureTensor(space, random_algebraic_curvature_tensor(space, 3).coeffs.transpose(2, 3, 0, 1)),
        ]
        if space.p % 4 == 0:
            out.append(build_quaternionic_tensor(standard_quaternion_structure(space), 1, 2, 8, 0))
        return out

    def test_matches_einsum_contraction(self, sig):
        # The matrix product sums in another order than the einsum, so the two
        # agree to rounding, not bitwise.  Each sum is rounded at the scale of
        # its terms, the contraction of |x|, |y| and |R|; against that scale
        # the difference stays below 1e-15 (measured at most 5.5e-16).
        space = BilinearSpace(*sig)
        rng = np.random.default_rng(sum(sig) + 1)
        xs, ys = rng.standard_normal((2, 20, space.m))
        for r in self.tensors(space):
            got = apply_pairs(r, xs, ys)
            assert got.shape == (20, space.m, space.m)
            for x, y, op in zip(xs, ys, got):
                want = reference_apply_pair(r, x, y)
                terms = np.einsum("a,b,abcd->dc", np.abs(x), np.abs(y), np.abs(r.coeffs))
                assert np.all(np.abs(op - want) <= 1e-15 * terms)
            assert np.array_equal(apply_pair(r, xs[0], ys[0]), apply_pairs(r, xs[:1], ys[:1])[0])

    def test_coefficients_are_c_contiguous(self, sig):
        # A C-ordered array gives the (m^2, m^2) view that apply_pairs multiplies
        # by without copying it.
        space = BilinearSpace(*sig)
        m = space.m
        for r in self.tensors(space):
            assert r.coeffs.flags.c_contiguous
            assert np.shares_memory(r.coeffs.reshape(m * m, m * m), r.coeffs)


def test_apply_pairs_rejects_mismatched_rows():
    r = from_self_adjoint(BilinearSpace(0, 4), np.eye(4))
    with pytest.raises(ValueError, match="expected"):
        apply_pairs(r, np.ones((3, 4)), np.ones((2, 4)))
    with pytest.raises(ValueError, match="expected"):
        apply_pairs(r, np.ones(4), np.ones(4))


def test_curvature_tensor_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"expected \(4, 4, 4, 4\)"):
        CurvatureTensor(BilinearSpace(0, 4), np.zeros((4, 4, 4)))


@pytest.mark.parametrize("c", [2.5, -2.5, 0.0])
def test_scale_is_the_largest_absolute_entry(c):
    # Both signs, so the largest |entry| is once a maximum and once a minimum.
    r = combine([(c, random_algebraic_curvature_tensor(BilinearSpace(1, 3), 4))])
    assert r.scale == float(np.max(np.abs(r.coeffs)))


def test_projected_generator_rejects_bad_signs():
    space = BilinearSpace(0, 4)
    with pytest.raises(ValueError, match="signs must be"):
        projected_generator(space, standard_complex_structure(space), 0, 1)
