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

    # At 1e4 the rounding of a conjugated J, 7e-11 on (4, 4), grows with the
    # tensor, and the bound tol * max|R| grows with it.
    @pytest.mark.parametrize("structure", ["standard", "conjugated"])
    def test_large_pair_passes(self, structure):
        space = BilinearSpace(4, 4)
        J = (standard_complex_structure if structure == "standard" else conjugated_structure)(space)
        assert check_J_invariance(build_complex_pair_tensor(J, 1e4, 2e4), J).passed

    # J*R = R is the almost complex condition on every line: R(x, Jx) commutes
    # with J for all x exactly when its polarisation R(e_a, Je_b) + R(e_b, Je_a)
    # does for all a <= b, and both linear conditions cut out the same subspace
    # of the algebraic curvature tensors, 12- and 57-dimensional at m = 4 and 6.
    # conjugated_structure boosts a mixed plane of (2, 2) and (2, 4).
    @pytest.mark.parametrize("structure", ["standard", "conjugated"])
    @pytest.mark.parametrize("sig, dim", [((0, 4), 12), ((2, 2), 12), ((2, 4), 57)], ids=str)
    def test_tensor_identity_and_line_commutators_share_their_kernel(self, sig, dim, structure):
        space = BilinearSpace(*sig)
        J = (standard_complex_structure if structure == "standard" else conjugated_structure)(space)
        m, full = space.m, space.m**2 * (space.m**2 - 1) // 12
        rng = np.random.default_rng(17)
        spanning = np.array([random_algebraic_curvature_tensor(space, rng).coeffs.ravel()
                             for _ in range(full + 5)])
        assert np.linalg.matrix_rank(spanning) == full
        basis = np.linalg.svd(spanning, full_matrices=False)[2][:full]
        a, b = np.triu_indices(m)
        e, je = np.eye(m), J.J.T

        def identity(t):
            return (pullback(t, J.J).coeffs - t.coeffs).ravel()

        def line_commutators(t):
            ops = apply_pairs(t, e[a], e[b] @ je) + apply_pairs(t, e[b], e[a] @ je)
            return (J.J @ ops - ops @ J.J).ravel()

        tensors = [CurvatureTensor(space, c.reshape((m,) * 4)) for c in basis]
        maps = [np.array([f(t) for t in tensors]) for f in (identity, line_commutators)]
        nullities = [full - np.linalg.matrix_rank(x, tol=1e-9 * np.linalg.norm(x, 2))
                     for x in (*maps, np.hstack(maps))]
        assert nullities == [dim] * 3


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

    def test_slot_zero_once_then_five_contractions_per_slab(self, monkeypatch):
        s = BilinearSpace(8, 8)
        J = standard_complex_structure(s)
        r = random_algebraic_curvature_tensor(s, 5)
        slabs, width = len(curvature._slabs(s.m)), slab_width(s.m)
        assert slabs > 1
        kernel, calls = curvature._pullback, []

        def spy(r, t, which):
            calls.append((which, r.shape[0]))
            return kernel(r, t, which)

        monkeypatch.setattr(curvature, "_pullback", spy)
        check_gray_identity(r, J)
        per_slab = [((1,), width), ((1,), width), ((2,), width), ((2,), width), ((3,), width)]
        assert calls == [((0,), s.m)] + per_slab * slabs
        calls.clear()
        check_J_invariance(r, J)
        assert calls == [((0,), s.m)] + [((1, 2, 3), width)] * slabs


def slab_width(m):
    """First-index values in a full slab of an m^4 pass at this m."""
    return len(range(m)[curvature._slabs(m)[0]])


@pytest.mark.parametrize("m, widths", [(4, [4]), (8, [8]), (12, [9, 3]), (16, [4] * 4),
                                       (32, [1] * 32), (64, [1] * 64)])
def test_slabs_hold_about_2_14_entries(m, widths):
    assert [len(range(m)[sl]) for sl in curvature._slabs(m)] == widths


# Peak traced memory of each m^4 pass at m = 32, in units of one tensor: one
# whole array for the output or the slot-0 pullback, and slabs of one
# first-index value beside it.
PEAK_BOUNDS = {
    "check_symmetries": 0.5,
    "check_J_invariance": 1.5,
    "check_gray_identity": 1.5,
    "from_skew_adjoint": 1.25,
    "combine": 1.25,
    "_generator_sum": 1.1,
}


@pytest.fixture(scope="module")
def quaternionic_32():
    quat = standard_quaternion_structure(BilinearSpace(0, 32))
    return quat, build_quaternionic_tensor(quat, 1, 2, 8, 0), from_skew_adjoint(quat.space, quat.j)


@pytest.mark.parametrize("name", PEAK_BOUNDS)
def test_peak_memory_of_each_pass(quaternionic_32, name):
    quat, r, r_j = quaternionic_32
    run = {
        "check_symmetries": lambda: check_symmetries(r),
        "check_J_invariance": lambda: check_J_invariance(r, quat.as_complex),
        "check_gray_identity": lambda: check_gray_identity(r, quat.as_complex),
        "from_skew_adjoint": lambda: from_skew_adjoint(quat.space, quat.j),
        "combine": lambda: combine([(1.0, r), (2.0, r_j)]),
        "_generator_sum": lambda: build_quaternionic_tensor(quat, 1, 2, 8, 0),
    }[name]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUNDS[name] * r.coeffs.nbytes


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


@pytest.mark.parametrize("sig", [(0, 4), (2, 2), (4, 4), (0, 8), (8, 8), (0, 32), (0, 12),
                                 (0, 16), (16, 16)])
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

    def test_generator_sum_is_combine_of_the_constructors(self, sig):
        # Every generator takes every coefficient once over the rotations, in
        # one sum of all the generators: the same values and signed zeros.
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        units = [J.J]
        if sig[0] % 4 == 0:
            quat = standard_quaternion_structure(space)
            units += [quat.i, quat.j, quat.k]
        generators = [(np.eye(space.m), 1)] + [(u, -1) for u in units] + [
            (projected_generator(space, J, sign, sign, sum(sig)), sign) for sign in (1, -1)]
        tensors = [(from_self_adjoint if sign > 0 else from_skew_adjoint)(space, phi)
                   for phi, sign in generators]
        rows = [(curvature._generator_rows(space, phi, sign), sign) for phi, sign in generators]
        coefficients = [0.0, -1.5, 1e-12, 8.0]
        for shift in range(len(coefficients)):
            cs = [coefficients[(i + shift) % len(coefficients)] for i in range(len(generators))]
            got = curvature._generator_sum(space, [(c, b, sign) for c, (b, sign) in zip(cs, rows)])
            assert_same_bits(got.coeffs, combine(zip(cs, tensors)).coeffs)


def test_zero_coefficient_term_makes_no_slab(monkeypatch):
    # c3 = 0 in the quaternionic (1, 2, 8, 0) tensor: R_k is never built, in any slab.
    quat = standard_quaternion_structure(BilinearSpace(0, 16))
    made = []
    slab = curvature._generator_slab

    def spy(b, sign, sl, out):
        made.append(b)
        return slab(b, sign, sl, out)

    monkeypatch.setattr(curvature, "_generator_slab", spy)
    build_quaternionic_tensor(quat, 1, 2, 8, 0)
    assert len(made) == 3 * len(curvature._slabs(16))
    assert len({id(b) for b in made}) == 3
    k_rows = curvature._generator_rows(quat.space, quat.k, -1)
    assert not any(np.array_equal(b, k_rows) for b in made)


# The m^4 passes written on whole arrays, as they were before they ran slab by
# slab.  The library must match them to the bit: values, witnesses and the sign
# of zeros.
def reference_argmax_entry(a):
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    return float(abs(a[idx])), tuple(int(i) for i in idx)


def reference_slot_pullback(r, t, slots):
    m = t.shape[0]
    for s in slots:
        r = r @ t if s == 3 else (t.T @ r.reshape(m**s, m, -1)).reshape(r.shape)
    return r


def reference_combine(terms):
    coeffs = np.zeros_like(terms[0][1].coeffs)
    for c, tensor in terms:
        coeffs += float(c) * tensor.coeffs
    return coeffs


def reference_differences(tensor, J):
    """Each m^4 array whose largest |entry| a check reports, by name."""
    r, j = tensor.coeffs, J.J
    diffs = {
        "antisymmetry": r + r.swapaxes(0, 1),
        "pair_symmetry": r - r.transpose(2, 3, 0, 1),
        "bianchi": r + np.einsum("abcd->cabd", r) + np.einsum("abcd->bcad", r),
        "J": reference_slot_pullback(r, j, (0, 1, 2, 3)) - r,
    }
    a, b = r, reference_slot_pullback(r, j, (0,))
    for s in (1, 2):
        pb = reference_slot_pullback(b, j, (s,))
        b += reference_slot_pullback(a, j, (s,))
        a = a - pb
    a -= reference_slot_pullback(b, j, (3,))
    diffs["gray"] = a
    return diffs


def assert_reports_match_references(tensor, J, tol=1e-10):
    diffs = reference_differences(tensor, J)
    worst = {name: reference_argmax_entry(d) for name, d in diffs.items()}
    symmetries = [worst[n] for n in ("antisymmetry", "pair_symmetry", "bianchi")]
    passed = max(value for value, _ in symmetries) <= tol * tensor.scale
    want = curvature.SymmetryReport(passed, *symmetries[0], *symmetries[1], *symmetries[2])
    # repr compares every float to the bit, and a NaN equal to a NaN.
    assert repr(check_symmetries(tensor, tol)) == repr(want)
    for name, check in (("J", check_J_invariance), ("gray", check_gray_identity)):
        value, where = worst[name]
        want = curvature.InvarianceReport(value <= tol * tensor.scale, value, where)
        assert repr(check(tensor, J, tol)) == repr(want)
    return diffs


@pytest.fixture(scope="class", params=[(0, 32), (16, 16), (4, 4)], ids=str)
def slab_case(request):
    space = BilinearSpace(*request.param)
    quat = standard_quaternion_structure(space)
    q = build_quaternionic_tensor(quat, 1, 2, 8, 0)
    noise = np.random.default_rng(sum(request.param)).standard_normal(q.coeffs.shape)
    tensors = [
        q,
        CurvatureTensor(space, q.coeffs + 1e-9 * noise),
        random_algebraic_curvature_tensor(space, 21),
    ]
    return quat, tensors


class TestSlabsMatchWholeArrays:
    def test_generators_and_combine(self, slab_case):
        quat, tensors = slab_case
        space, m = quat.space, quat.space.m
        rng = np.random.default_rng(m)
        raw = rng.standard_normal((m, m))
        self_phis = [np.eye(m), self_adjoint_part(space, raw)]
        skew_phis = [quat.i, quat.j, quat.k, conjugated_structure(space).J,
                     skew_adjoint_part(space, raw)]
        for sign, build, phis in ((1, from_self_adjoint, self_phis),
                                  (-1, from_skew_adjoint, skew_phis)):
            for phi in phis:
                assert_same_bits(build(space, phi).coeffs,
                                 reference_generator_tensor(space, phi, sign))
        units = [from_self_adjoint(space, np.eye(m))] + [
            from_skew_adjoint(space, u) for u in (quat.i, quat.j, quat.k)]
        for cs in ((1.0, 2.0, 8.0, 0.0), (-0.5, 0.0, -3.0, 1.25)):
            terms = list(zip(cs, units))
            assert_same_bits(combine(terms).coeffs, reference_combine(terms))
        terms = list(zip((0.3, -1.7, 2.5), tensors))
        assert_same_bits(combine(terms).coeffs, reference_combine(terms))

    def test_checks(self, slab_case):
        quat, tensors = slab_case
        for tensor in tensors:
            for J in (quat.as_complex, conjugated_structure(quat.space)):
                assert_reports_match_references(tensor, J)


def tensor_with_entries(m, entries):
    coeffs = np.zeros((m,) * 4)
    for index, value in entries:
        coeffs[index] = value
    return CurvatureTensor(BilinearSpace(0, m), coeffs)


def first_indices_of_max(d):
    """The first indices at which |d| takes its largest value, NaN counting as largest."""
    a = np.abs(d)
    top = np.isnan(a) if np.isnan(a).any() else a == a.max()
    return np.unravel_index(np.flatnonzero(top), a.shape)[0]


def test_first_slab_wins_a_tie():
    # The same unit entry at first index 0 and at the first index of the
    # second slab: every check's largest violation ties across two slabs.
    m = 16
    w = slab_width(m)
    tensor = tensor_with_entries(m, [((0, 1, 2, 3), 1.0), ((w, 1, 2, 3), 1.0)])
    J = standard_complex_structure(tensor.space)
    diffs = assert_reports_match_references(tensor, J)
    for d in diffs.values():
        assert len(set(first_indices_of_max(d) // w)) == 2
    sym = check_symmetries(tensor)
    for at in (sym.antisymmetry_witness, sym.pair_symmetry_witness, sym.bianchi_witness,
               check_J_invariance(tensor, J).witness, check_gray_identity(tensor, J).witness):
        assert at[0] < w


@pytest.mark.parametrize("sig", [(0, 32), (8, 8)], ids=str)
@pytest.mark.parametrize("plants", [("across",), ("within",), ("across", "within")],
                         ids=["across", "within", "both"])
def test_pair_witness_ties_go_to_the_first_in_c_order(sig, plants):
    # A unit entry R[a,b,c,d] violates pair symmetry equally at (a,b,c,d) and
    # (c,d,a,b).  "across" puts the two in slabs 1 and 2; "within" puts both in
    # slab 2 and is planted at the later one in C order, which tests the
    # transposed operand of the pair term.  Slabs are 1 wide at (0,32), 4 at (8,8).
    space = BilinearSpace(*sig)
    w = slab_width(space.m)
    entries = {"across": (w, 0, 2 * w, 1), "within": (3 * w - 1, 3, 2 * w, 2)}
    coeffs = np.zeros((space.m,) * 4)
    for plant in plants:
        coeffs[entries[plant]] = 1.0
    tensor = CurvatureTensor(space, coeffs)
    pair = assert_reports_match_references(tensor, standard_complex_structure(space))["pair_symmetry"]
    firsts = first_indices_of_max(pair)
    assert len(firsts) == 2 * len(plants)
    assert set(firsts // w) == {2} | ({1} if "across" in plants else set())
    want = entries["across"] if "across" in plants else (2 * w, 2, 3 * w - 1, 3)
    assert check_symmetries(tensor).pair_symmetry_witness == want


def test_first_nan_wins():
    # A finite maximum in the first slab, then NaN entries whose symmetry
    # partners stay in their own slabs, the second slab and the third: the
    # symmetries report the NaN of the second slab, as np.argmax does.
    m = 16
    w = slab_width(m)
    assert m >= 3 * w
    tensor = tensor_with_entries(
        m, [((0, 1, 2, 3), 5.0), ((w,) * 4, np.nan), ((2 * w,) * 4, np.nan)]
    )
    J = standard_complex_structure(tensor.space)
    diffs = assert_reports_match_references(tensor, J)
    sym = check_symmetries(tensor)
    for name, at in (("antisymmetry", sym.antisymmetry_witness),
                     ("pair_symmetry", sym.pair_symmetry_witness),
                     ("bianchi", sym.bianchi_witness)):
        assert np.isnan(getattr(sym, name))
        assert at == (w,) * 4
        assert set(first_indices_of_max(diffs[name]) // w) == {1, 2}
    for check in (check_J_invariance, check_gray_identity):
        report = check(tensor, J)
        assert np.isnan(report.max_violation) and not report.passed


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
