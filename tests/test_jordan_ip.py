import numpy as np
import pytest

from curvlab import (
    BilinearSpace,
    ComplexStructure,
    CurvatureTensor,
    JordanInvariants,
    OrientedPlane,
    PlaneClass,
    SpectrumModel,
    SpectrumSpec,
    SpectrumStructureError,
    adjoint,
    build_complex_pair_tensor,
    build_quaternionic_tensor,
    check_J_invariance,
    check_almost_complex,
    check_jordan_ip,
    check_jordan_ip_real,
    classify_plane,
    combine,
    complex_line,
    curvature_operator,
    curvature_operators,
    from_self_adjoint,
    from_skew_adjoint,
    inner,
    jordan_invariants,
    nilpotent_null_pair,
    nilpotent_null_pair_partner,
    numeric_rank,
    projected_generator,
    pullback,
    random_algebraic_curvature_tensor,
    sample_complex_lines,
    sample_real_planes,
    solve_constants,
    spectrum_of_JR,
    standard_complex_structure,
    standard_quaternion_structure,
)
from curvlab import jordan_ip, pseudo_linalg
from curvlab.pseudo_linalg import _plane_gram
from test_curvature import conjugated_structure, reference_apply_pair


def e(m, i):
    v = np.zeros(m)
    v[i] = 1.0
    return v


def conjugation_map(m):
    """diag(1, -1, 1, -1, ...): self-adjoint, squares to Id, anticommutes with
    the standard J in definite signature."""
    return np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(m)])


def id_plus_conjugation(space, c=1.0):
    """c (R_Id + R_C) for C = conjugation_map: {Id, C} fails the cross-adjoint
    condition (Id* C + C* Id = 2C != 0) even though both members are
    individually admissible, so the tensor is almost complex but its operator
    eigenvalues move from line to line."""
    return combine([(c, from_self_adjoint(space, np.eye(space.m))),
                    (c, from_self_adjoint(space, conjugation_map(space.m)))])


class TestComplexLine:
    def test_spacelike_line(self):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        plane = complex_line(J, e(4, 0))
        assert plane.plane_class is PlaneClass.SPACELIKE
        assert np.array_equal(plane.y, J.J @ e(4, 0))

    def test_timelike_line_in_split_signature(self):
        s = BilinearSpace(2, 2)
        J = standard_complex_structure(s)
        plane = complex_line(J, e(4, 0))
        assert plane.plane_class is PlaneClass.TIMELIKE

    def test_null_vector_rejected(self):
        s = BilinearSpace(2, 2)
        J = standard_complex_structure(s)
        with pytest.raises(ValueError, match="null"):
            complex_line(J, e(4, 0) + e(4, 2))


class TestOrientedPlane:
    @pytest.mark.parametrize("x, y, want", [
        (e(4, 2), e(4, 3), PlaneClass.SPACELIKE),
        (e(4, 0), e(4, 1), PlaneClass.TIMELIKE),
        (e(4, 0), e(4, 2), PlaneClass.MIXED),
        (e(4, 0) + e(4, 2), e(4, 1) + e(4, 3), PlaneClass.DEGENERATE),
    ], ids=["spacelike", "timelike", "mixed", "degenerate"])
    def test_class_and_det_from_the_vectors(self, x, y, want):
        s = BilinearSpace(2, 2)
        plane = OrientedPlane(s, x, y)
        assert plane.plane_class is classify_plane(s, x, y) is want
        assert plane.det == _plane_gram(s, x, y)[0]

    def test_vectors_are_checked_against_the_space(self):
        with pytest.raises(ValueError, match=r"^y has shape \(3,\), expected \(4,\)$"):
            OrientedPlane(BilinearSpace(0, 4), e(4, 0), e(3, 1))

    def test_plane_of_another_signature_raises(self):
        line = complex_line(standard_complex_structure(BilinearSpace(2, 2)), e(4, 2))
        r = from_self_adjoint(BilinearSpace(0, 4), np.eye(4))
        with pytest.raises(ValueError, match=r"^plane in BilinearSpace\(p=2, q=2\) used with a tensor in BilinearSpace\(p=0, q=4\)$"):
            curvature_operator(r, line)

    # The sampler makes each line once, and its Gram determinant goes with it
    # to the assembly of R(pi).
    def test_one_gram_per_sampled_line(self, monkeypatch):
        calls = []
        original = pseudo_linalg._plane_gram

        def counting(*args):
            calls.append(None)
            return original(*args)

        # Count the calls under every module name that binds the function.
        for module in (pseudo_linalg, jordan_ip):
            if hasattr(module, "_plane_gram"):
                monkeypatch.setattr(module, "_plane_gram", counting)
        J = standard_complex_structure(BilinearSpace(2, 4))
        r = build_complex_pair_tensor(J, 1.0, 0.5)
        lines = sample_complex_lines(J, PlaneClass.TIMELIKE, 100, seed=0)
        assert sum(len(ops) for ops in curvature_operators(r, lines)) == 100
        assert len(calls) == 100


class TestSamplePlanes:
    def test_definite_spacelike_planes(self):
        s = BilinearSpace(0, 6)
        planes = sample_real_planes(s, PlaneClass.SPACELIKE, 10, seed=1)
        assert len(planes) == 10
        assert all(p.plane_class is PlaneClass.SPACELIKE for p in planes)

    def test_unrealizable_type_rejected(self):
        s = BilinearSpace(0, 6)
        with pytest.raises(ValueError, match="no timelike"):
            sample_real_planes(s, PlaneClass.TIMELIKE, 3)

    def test_degenerate_type_rejected(self):
        with pytest.raises(ValueError, match="no degenerate"):
            sample_real_planes(BilinearSpace(2, 2), PlaneClass.DEGENERATE, 1)

    def test_mixed_planes_in_lorentzian_signature(self):
        s = BilinearSpace(1, 5)
        planes = sample_real_planes(s, PlaneClass.MIXED, 5, seed=2)
        assert all(p.plane_class is PlaneClass.MIXED for p in planes)

    def test_deterministic_given_seed(self):
        s = BilinearSpace(2, 4)
        a = sample_real_planes(s, PlaneClass.TIMELIKE, 4, seed=7)
        b = sample_real_planes(s, PlaneClass.TIMELIKE, 4, seed=7)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.x, pb.x) and np.array_equal(pa.y, pb.y)

    def test_timelike_complex_lines(self):
        s = BilinearSpace(2, 4)
        J = standard_complex_structure(s)
        lines = sample_complex_lines(J, PlaneClass.TIMELIKE, 5, seed=3)
        assert len(lines) == 5
        assert all(p.plane_class is PlaneClass.TIMELIKE and np.array_equal(p.y, J.J @ p.x) for p in lines)

    def test_mixed_complex_lines_rejected(self):
        s = BilinearSpace(2, 4)
        J = standard_complex_structure(s)
        with pytest.raises(ValueError, match="never mixed"):
            sample_complex_lines(J, PlaneClass.MIXED, 1)

    def test_spacelike_lines_deterministic(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        a = sample_complex_lines(J, PlaneClass.SPACELIKE, 3, seed=9)
        b = sample_complex_lines(J, PlaneClass.SPACELIKE, 3, seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.x, pb.x)

    @pytest.mark.parametrize("sig", [(2, 4), (2, 2)])
    def test_complex_lines_never_mixed(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        rng = np.random.default_rng(10)
        seen = set()
        count = 0
        while count < 1000:
            x = rng.standard_normal(space.m)
            if abs(inner(space, x, x)) <= space.tol * float(x @ x):
                continue
            plane = complex_line(J, x)
            seen.add(plane.plane_class)
            count += 1
        assert seen <= {PlaneClass.SPACELIKE, PlaneClass.TIMELIKE}


class TestCurvatureOperator:
    def test_orthonormal_plane_rotation(self):
        s = BilinearSpace(0, 4)
        r = from_self_adjoint(s, np.eye(4))
        plane = complex_line(standard_complex_structure(s), e(4, 0))
        op = curvature_operator(r, plane)
        assert np.allclose(op, reference_apply_pair(r, e(4, 0), e(4, 1)))
        assert np.allclose(op @ e(4, 0), -e(4, 1))

    def test_normalization_divides_out_scale(self):
        s = BilinearSpace(0, 4)
        r = random_algebraic_curvature_tensor(s, 1)
        a = curvature_operator(r, OrientedPlane(s, e(4, 0), e(4, 1)))
        b = curvature_operator(r, OrientedPlane(s, 2.0 * e(4, 0), e(4, 1)))
        assert np.allclose(a, b)

    def test_orientation_reversal_negates(self):
        s = BilinearSpace(0, 4)
        r = random_algebraic_curvature_tensor(s, 2)
        a = curvature_operator(r, OrientedPlane(s, e(4, 0), e(4, 1)))
        b = curvature_operator(r, OrientedPlane(s, e(4, 1), e(4, 0)))
        assert np.allclose(a, -b)

    def test_degenerate_plane_rejected_with_determinant(self):
        s = BilinearSpace(1, 1)
        r = random_algebraic_curvature_tensor(s, 3)
        null = e(2, 0) + e(2, 1)
        plane = OrientedPlane(s, null, 2.0 * null)
        with pytest.raises(ValueError, match="determinant"):
            curvature_operator(r, plane)

    def test_basis_invariance(self):
        s = BilinearSpace(1, 3)
        r = random_algebraic_curvature_tensor(s, 4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            from curvlab import classify_plane

            if classify_plane(s, x, y) is PlaneClass.DEGENERATE:
                continue
            a, b, c, d = rng.uniform(-2, 2, 4)
            if a * d - b * c < 0.1:
                continue
            op1 = curvature_operator(r, OrientedPlane(s, x, y))
            op2 = curvature_operator(r, OrientedPlane(s, a * x + b * y, c * x + d * y))
            assert np.max(np.abs(op1 - op2)) <= 1e-9 * max(1.0, np.max(np.abs(op1)))

    @pytest.mark.parametrize("sig", [(0, 4), (1, 3), (2, 2)])
    def test_skew_adjointness(self, sig):
        space = BilinearSpace(*sig)
        rng = np.random.default_rng(6)
        r = random_algebraic_curvature_tensor(space, rng)
        for kind in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED):
            try:
                planes = sample_real_planes(space, kind, 10, seed=7)
            except ValueError:
                continue
            for plane in planes:
                op = curvature_operator(r, plane)
                assert np.max(np.abs(op + adjoint(space, op))) <= 1e-10 * max(
                    1.0, np.max(np.abs(op))
                )


class TestCheckAlmostComplex:
    def test_metric_tensor(self):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, np.eye(4))
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 20, seed=0)
        report = check_almost_complex(r, J, lines)
        assert report.passed and report.max_commutator <= 1e-12

    def test_complex_pair_tensor(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = build_complex_pair_tensor(J, 1.7, -0.4)
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 20, seed=1)
        assert check_almost_complex(r, J, lines).passed

    # The bound is tol * max|R|: at 1e4 the worst commutator, 2.3e-10, is
    # rounding and passes; at 1e-12 a generic tensor still fails.
    @pytest.mark.parametrize("case", ["large_pair", "small_generic"])
    def test_verdict_does_not_depend_on_scale(self, case):
        if case == "large_pair":
            s = BilinearSpace(4, 4)
            J = standard_complex_structure(s)
            r, n, seed = build_complex_pair_tensor(J, 1e4, 2e4), 100, 0
        else:
            s = BilinearSpace(0, 6)
            J = standard_complex_structure(s)
            phi = np.random.default_rng(8).standard_normal((6, 6))
            r = combine([(1e-12, from_self_adjoint(s, 0.5 * (phi + adjoint(s, phi))))])
            n, seed = 50, 2
        report = check_almost_complex(r, J, sample_complex_lines(J, PlaneClass.SPACELIKE, n, seed))
        assert report.passed is (case == "large_pair")
        assert (report.witness is None) is report.passed

    def test_generic_generator_fails_on_some_line(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((6, 6))
        phi = 0.5 * (phi + adjoint(s, phi))
        r = from_self_adjoint(s, phi)
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 50, seed=2)
        report = check_almost_complex(r, J, lines)
        assert not report.passed
        assert report.witness is not None

    # e1 = J e0, so span{e0, e1} is a complex line; span{e0, e2} is not.
    def test_rejects_non_complex_line(self):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, np.eye(4))
        plane = OrientedPlane(s, e(4, 0), e(4, 2))
        with pytest.raises(ValueError, match="complex line"):
            check_almost_complex(r, J, [plane])


class TestLinesOfTheGivenStructure:
    """Both line checks decide from their own J whether a plane is a complex
    line, however the plane was made: y must equal J x to DEFAULT_TOL max|x|."""

    @staticmethod
    def checks(r, J, plane):
        return check_almost_complex(r, J, [plane]), spectrum_of_JR(r, J, plane)

    def test_line_built_directly_is_accepted(self):
        s = BilinearSpace(2, 4)
        J = standard_complex_structure(s)
        r = build_complex_pair_tensor(J, 1.0, 0.5)
        x = np.array([0.5, -1.0, 2.0, 1.0, -1.5, 0.25])
        report, spec = self.checks(r, J, OrientedPlane(s, x, J.J @ x))
        assert report.passed
        assert spec == spectrum_of_JR(r, J, complex_line(J, x))
        assert SpectrumSpec(((1.0, 2), (2.5, 1))).matches(spec, 1e-8)

    # {x, 2 J x} spans the same line, but the checks accept only the form {x, J x}.
    @pytest.mark.parametrize("y", [lambda J, x: 2.0 * J.J @ x, lambda J, x: -(J.J @ x),
                                   lambda J, x: J.J @ x + 1e-6 * x], ids=["2Jx", "-Jx", "Jx+1e-6x"])
    def test_other_spanning_pairs_are_rejected(self, y):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, np.eye(4))
        x = np.array([1.0, 2.0, -0.5, 0.25])
        with pytest.raises(ValueError, match="^check_almost_complex requires complex lines$"):
            check_almost_complex(r, J, [OrientedPlane(s, x, y(J, x))])
        with pytest.raises(ValueError, match="^spectrum_of_JR requires a non-degenerate complex line$"):
            spectrum_of_JR(r, J, OrientedPlane(s, x, y(J, x)))

    # R is j-invariant, so j-lines pass; an i-line handed to a j-check is not
    # a line of j and must not be judged as one.
    def test_line_of_another_structure_raises(self):
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        r = build_quaternionic_tensor(quat, 1.0, 2.0, 8.0, 0.0)
        j = ComplexStructure(s, quat.j)
        x = np.arange(1.0, 9.0)
        assert check_J_invariance(r, j).max_violation == 0.0
        assert self.checks(r, j, complex_line(j, x))[0].passed
        i_line = complex_line(quat.as_complex, x)
        with pytest.raises(ValueError, match="^check_almost_complex requires complex lines$"):
            check_almost_complex(r, j, [i_line])
        with pytest.raises(ValueError, match="^spectrum_of_JR requires a non-degenerate complex line$"):
            spectrum_of_JR(r, j, i_line)

    # A line of J lies in J's space, whatever its vectors.
    @pytest.mark.parametrize("sig", [(2, 2), (0, 6)], ids=str)
    def test_plane_of_another_space_is_not_a_line(self, sig):
        line = complex_line(standard_complex_structure(BilinearSpace(*sig)), e(sig[0] + sig[1], 2))
        J = standard_complex_structure(BilinearSpace(0, 4))
        r = from_self_adjoint(J.space, np.eye(4))
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 3, seed=0)
        with pytest.raises(ValueError, match="^check_almost_complex requires complex lines$"):
            check_almost_complex(r, J, lines + [line])
        with pytest.raises(ValueError, match="^spectrum_of_JR requires a non-degenerate complex line$"):
            spectrum_of_JR(r, J, line)

    def test_empty_line_list_raises(self):
        J = standard_complex_structure(BilinearSpace(0, 4))
        with pytest.raises(ValueError, match="^check_almost_complex needs at least one line$"):
            check_almost_complex(from_self_adjoint(J.space, np.eye(4)), J, [])


# check_almost_complex as a loop over the lines, one einsum contraction per
# line: the form it had before the operators of a sample were assembled in
# blocks by one matrix product each.
def reference_line_commutators(tensor, J, planes):
    comms = []
    for plane in planes:
        if plane.space != J.space or np.max(np.abs(plane.y - J.J @ plane.x)) > 1e-8 * np.max(np.abs(plane.x)):
            raise ValueError("check_almost_complex requires complex lines")
        det, plane_class = _plane_gram(tensor.space, plane.x, plane.y)
        if plane_class is PlaneClass.DEGENERATE:
            raise ValueError(f"degenerate plane: restricted Gram determinant {det:.3e}")
        op = reference_apply_pair(tensor, plane.x, plane.y) / np.sqrt(abs(det))
        comms.append(float(np.max(np.abs(J.J @ op - op @ J.J))))
    return comms


def reference_check_almost_complex(tensor, J, planes, tol):
    worst, witness = 0.0, None
    for plane, comm in zip(planes, reference_line_commutators(tensor, J, planes)):
        if comm > worst:
            worst, witness = comm, plane
    return worst, witness if worst > tol * np.max(np.abs(tensor.coeffs)) else None


class TestCheckAlmostComplexReference:
    # 150 lines span three blocks of curvature_operators.
    @pytest.mark.parametrize("sig", [(0, 6), (2, 4), (4, 4), (0, 32)], ids=str)
    def test_same_maximum_and_witness(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        rng = np.random.default_rng(sum(sig))
        phi = rng.standard_normal((space.m, space.m))
        r = from_self_adjoint(space, 0.5 * (phi + adjoint(space, phi)))
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 150, seed=sig[0])
        comms = sorted(reference_line_commutators(r, J, lines))
        # The maximum is unique by far more than rounding, so both must name one line.
        assert comms[-2] < (1 - 1e-10) * comms[-1]
        worst, witness = reference_check_almost_complex(r, J, lines, 1e-10)
        report = check_almost_complex(r, J, lines)
        assert not report.passed
        assert abs(report.max_commutator - worst) <= 1e-14 * worst
        assert report.witness is witness

    def test_passing_tensor_passes_both(self):
        quat = standard_quaternion_structure(BilinearSpace(0, 32))
        r = build_quaternionic_tensor(quat, 1, 2, 8, 0)
        lines = sample_complex_lines(quat.as_complex, PlaneClass.SPACELIKE, 150, seed=3)
        worst, witness = reference_check_almost_complex(r, quat.as_complex, lines, 1e-10)
        report = check_almost_complex(r, quat.as_complex, lines)
        assert report.passed and witness is None and report.witness is None
        assert max(worst, report.max_commutator) <= 1e-12

    @pytest.mark.parametrize("non_complex_at, degenerate_at", [(70, 100), (100, 70), (0, 149), (149, 0)])
    def test_first_bad_plane_decides_the_error(self, non_complex_at, degenerate_at):
        space = BilinearSpace(2, 2)
        J = standard_complex_structure(space)
        r = build_complex_pair_tensor(J, 1.0, 0.5)
        mixed = sample_complex_lines(J, PlaneClass.SPACELIKE, 150, seed=4)
        mixed[non_complex_at] = OrientedPlane(space, e(4, 0), e(4, 2))
        null = e(4, 0) + e(4, 2)
        mixed[degenerate_at] = OrientedPlane(space, null, J.J @ null)
        with pytest.raises(ValueError) as want:
            reference_check_almost_complex(r, J, mixed, 1e-10)
        expected = "complex lines" if non_complex_at < degenerate_at else "degenerate plane"
        assert expected in str(want.value)
        with pytest.raises(ValueError) as got:
            check_almost_complex(r, J, mixed)
        assert str(got.value) == str(want.value)


class TestSampledLinesNeverRejected:
    # The line samplers accept a line exactly when curvature_operator's
    # plane-Gram test does, so no sampled line may raise "degenerate plane".
    # Lines near the null cone, |x|^2 >> |(x, x)| = 1, are where a different
    # test in the sampler would let one through.
    @staticmethod
    def assemble_every_line(J, seeds):
        r = from_self_adjoint(J.space, np.eye(J.space.m))
        for seed in seeds:
            for causal_type in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE):
                for line in sample_complex_lines(J, causal_type, 100, seed):
                    curvature_operator(r, line)

    @pytest.mark.parametrize("sig", [(2, 2), (4, 4), (2, 6), (6, 2), (8, 8)], ids=str)
    def test_standard_structure_every_seed(self, sig):
        self.assemble_every_line(standard_complex_structure(BilinearSpace(*sig)), range(30))

    def test_structure_that_changes_euclidean_length(self):
        J = conjugated_structure(BilinearSpace(2, 4))
        x = np.arange(1.0, 7.0)
        assert abs(np.linalg.norm(J.J @ x) - np.linalg.norm(x)) > 0.1
        self.assemble_every_line(J, range(30))


class TestCheckJordanIP:
    def test_single_admissible_generator(self):
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        r = combine([(2.5, from_skew_adjoint(s, quat.j))])
        report = check_jordan_ip(r, quat.as_complex, n=30, seed=0)
        assert report.constant

    def test_admissible_pair_tensor(self):
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        r = combine(
            [
                (1.0, from_self_adjoint(s, np.eye(8))),
                (2.0, from_skew_adjoint(s, quat.j)),
            ]
        )
        report = check_jordan_ip(r, quat.as_complex, n=30, seed=1)
        assert report.constant
        # two orthogonal rotation planes: the line itself and its j-image
        assert report.rank == 4

    def test_non_admissible_pair_fails_with_witness(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = id_plus_conjugation(s)
        from curvlab import check_J_invariance

        assert check_J_invariance(r, J).passed
        report = check_jordan_ip(r, J, n=40, seed=0)
        assert not report.constant
        assert report.witness is not None
        assert report.rank is None

    # Fingerprints are compared relative to sigma_max(R(pi)), so a tensor that
    # is not Jordan-IP is not made constant by scaling it down.
    @pytest.mark.parametrize("m, c", [(6, 1e-7), (8, 1e-7)], ids=["0_6-1e-7", "0_8-1e-7"])
    def test_scaled_non_admissible_pair_not_constant(self, m, c):
        s = BilinearSpace(0, m)
        r = id_plus_conjugation(s, c)
        assert not check_jordan_ip(r, standard_complex_structure(s), n=30, seed=0).constant
        assert not check_jordan_ip_real(r, n=30, seed=0).constant

    # Nor is a Jordan-IP tensor made inconstant: one Jordan form, and one
    # spectrum of J R(pi), on every line at every scale.
    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("c", [1e-7, 1e-12], ids=["1e-7", "1e-12"])
    @pytest.mark.parametrize("build", [
        lambda quat: build_complex_pair_tensor(quat.as_complex, 1.0, 2.0),
        lambda quat: build_quaternionic_tensor(quat, 1.0, 2.0, 8.0, 0.0),
    ], ids=["complex_pair", "quaternionic"])
    def test_scaled_jordan_ip_tensor_stays_constant(self, build, c, m):
        quat = standard_quaternion_structure(BilinearSpace(0, m))
        J = quat.as_complex
        r = combine([(c, build(quat))])
        assert check_jordan_ip(r, J, n=30, seed=0).constant
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 10, seed=0)
        anchor, *rest = (spectrum_of_JR(r, J, line) for line in lines)
        assert all(anchor.matches(spec, 1e-8) for spec in rest)

    def test_split_signature_samples_both_causal_types(self):
        s = BilinearSpace(2, 2)
        J = standard_complex_structure(s)
        r = build_complex_pair_tensor(J, 0.8, -1.1)
        report = check_jordan_ip(r, J, n=25, seed=3)
        assert report.constant
        assert set(report.invariants_by_type) == {PlaneClass.SPACELIKE, PlaneClass.TIMELIKE}

    # The i-th causal type that exists is sampled with seed + i, as for real
    # planes, so the lines of (p, 0) are drawn with the seed itself.
    @pytest.mark.parametrize("sig, want", [
        ((4, 0), [(PlaneClass.TIMELIKE, 3)]),
        ((0, 4), [(PlaneClass.SPACELIKE, 3)]),
        ((2, 2), [(PlaneClass.SPACELIKE, 3), (PlaneClass.TIMELIKE, 4)]),
    ], ids=str)
    def test_ith_existing_type_is_sampled_with_seed_plus_i(self, sig, want, monkeypatch):
        calls, original = [], jordan_ip.sample_complex_lines

        def spy(J, causal_type, n, seed=0):
            calls.append((causal_type, seed))
            return original(J, causal_type, n, seed)

        monkeypatch.setattr(jordan_ip, "sample_complex_lines", spy)
        J = standard_complex_structure(BilinearSpace(*sig))
        check_jordan_ip(build_complex_pair_tensor(J, 1.0, 2.0), J, n=5, seed=3)
        assert calls == want

    @pytest.mark.parametrize("sig", [(4, 0), (8, 0)], ids=str)
    def test_timelike_only_signature_samples_timelike_lines(self, sig):
        # Every complex line of (p, 0) is timelike.
        J = standard_complex_structure(BilinearSpace(*sig))
        report = check_jordan_ip(build_complex_pair_tensor(J, 1.0, 2.0), J, n=20, seed=3)
        assert report.constant
        assert set(report.invariants_by_type) == {PlaneClass.TIMELIKE}


class TestCheckJordanIPReal:
    def test_metric_tensor_rank_two(self):
        s = BilinearSpace(0, 6)
        r = from_self_adjoint(s, np.eye(6))
        report = check_jordan_ip_real(r, n=25, seed=0)
        assert report.constant
        assert report.rank_by_type == {PlaneClass.SPACELIKE: 2}
        assert report.rank_type_independent

    def test_para_isometry_generator_on_definite_space(self):
        s = BilinearSpace(0, 6)
        phi = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        r = from_self_adjoint(s, phi)
        report = check_jordan_ip_real(r, n=25, seed=1)
        assert report.constant
        assert report.rank_by_type[PlaneClass.SPACELIKE] == 2

    def test_lorentzian_types_checked_independently(self):
        s = BilinearSpace(1, 5)
        r = from_self_adjoint(s, np.eye(6))
        report = check_jordan_ip_real(r, n=25, seed=2)
        assert set(report.constant_by_type) == {PlaneClass.SPACELIKE, PlaneClass.MIXED}
        assert report.constant
        assert report.rank_type_independent
        assert set(report.rank_by_type.values()) == {2}

    def test_generic_tensor_fails_with_witness(self):
        s = BilinearSpace(0, 5)
        r = random_algebraic_curvature_tensor(s, 42)
        report = check_jordan_ip_real(r, n=20, seed=0)
        assert not report.constant
        assert report.witnesses

    @pytest.mark.parametrize("sig", [(2, 2), (4, 4), (2, 6), (6, 2), (8, 8)], ids=str)
    def test_metric_tensor_constant_on_every_seed(self, sig):
        # O(p,q) acts transitively on the planes of each causal type and fixes
        # R_Id, so no seed may report "not constant"; boosted planes near the
        # null cone are where a fingerprint that collapses numerically fails.
        s = BilinearSpace(*sig)
        r = from_self_adjoint(s, np.eye(s.m))
        failing = [
            seed for seed in range(30) if not check_jordan_ip_real(r, n=30, seed=seed).constant
        ]
        assert failing == []


class TestFingerprintCalls:
    """How many fingerprints and equivalence tests each Jordan check makes.

    The sample is staged: the first plane is repeated, so the first
    fingerprint that differs from the anchor is at a known index.
    """

    OFFENDER = 5

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        original = getattr(jordan_ip, name)

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(jordan_ip, name, counting)
        return calls

    def stage(self, monkeypatch, sampler, planes):
        staged = [planes[0]] * self.OFFENDER + planes[1:]
        monkeypatch.setattr(jordan_ip, sampler, lambda *args, **kwargs: list(staged))
        return staged

    def test_real_check_stops_at_its_offender(self, monkeypatch):
        s = BilinearSpace(0, 5)
        r = random_algebraic_curvature_tensor(s, 42)
        planes = sample_real_planes(s, PlaneClass.SPACELIKE, 20, 0)
        staged = self.stage(monkeypatch, "sample_real_planes", planes)
        invariants = self.count(monkeypatch, "jordan_invariants")
        equivalent = self.count(monkeypatch, "jordan_equivalent")
        report = check_jordan_ip_real(r, n=20, seed=0)
        assert list(report.constant_by_type) == [PlaneClass.SPACELIKE]
        assert report.witnesses[PlaneClass.SPACELIKE] == (staged[0], staged[self.OFFENDER])
        assert len(invariants) == self.OFFENDER + 1
        assert len(equivalent) == self.OFFENDER

    def test_complex_check_fingerprints_every_line(self, monkeypatch):
        # {Id, C} gives an almost complex tensor whose operator moves from
        # line to line (see TestCheckJordanIP).
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = id_plus_conjugation(s)
        planes = sample_complex_lines(J, PlaneClass.SPACELIKE, 20, 0)
        staged = self.stage(monkeypatch, "sample_complex_lines", planes)
        invariants = self.count(monkeypatch, "jordan_invariants")
        equivalent = self.count(monkeypatch, "jordan_equivalent")
        report = check_jordan_ip(r, J, n=20, seed=0)
        assert report.witness == (staged[0], staged[self.OFFENDER])
        assert len(invariants) == len(staged)
        assert len(equivalent) == self.OFFENDER


class TestSpectrumOfJR:
    def test_quaternionic_golden_spectrum(self):
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        r = build_quaternionic_tensor(quat, 1.0, 2.0, 8.0, 0.0)
        line = sample_complex_lines(quat.as_complex, PlaneClass.SPACELIKE, 1, seed=4)[0]
        spec = spectrum_of_JR(r, quat.as_complex, line)
        expected = SpectrumSpec(((4.0, 2), (7.0, 1), (-4.0, 1)))
        assert expected.matches(spec, 1e-8)

    def test_zero_tensor_single_eigenvalue(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = CurvatureTensor(s, np.zeros((6,) * 4))
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=5)[0]
        assert spectrum_of_JR(r, J, line).eigenvalues == ((0.0, 3),)

    def test_complex_pair_spectrum_on_complex_threespace(self):
        # eigenvalues c0 + 3 c1 (mult 1) and 2 c1 (mult s - 1) on C^s
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        c0, c1 = 1.5, -0.25
        r = build_complex_pair_tensor(J, c0, c1)
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=6)[0]
        spec = spectrum_of_JR(r, J, line)
        expected = SpectrumSpec(((2 * c1, 2), (c0 + 3 * c1, 1)))
        assert expected.matches(spec, 1e-8)

    def test_requires_complex_line(self):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, np.eye(4))
        with pytest.raises(ValueError, match="complex line"):
            spectrum_of_JR(r, J, OrientedPlane(s, e(4, 0), e(4, 2)))

    def test_nilpotent_operator_reported_as_structural_error(self):
        s = BilinearSpace(2, 2)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, nilpotent_null_pair(s))
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=7)[0]
        with pytest.raises(SpectrumStructureError, match="defective"):
            spectrum_of_JR(r, J, line)

    def test_non_almost_complex_tensor_rejected(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = random_algebraic_curvature_tensor(s, 3)
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=8)[0]
        with pytest.raises(SpectrumStructureError, match="commute"):
            spectrum_of_JR(r, J, line)

    # Thresholds are relative to sigma_max(J R(pi)), so the verdict and the
    # spectrum do not depend on the scale of the tensor.
    @pytest.mark.parametrize("c", [1e-7, 1e-9])
    def test_spectrum_scales_with_the_tensor(self, c):
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        r = build_quaternionic_tensor(quat, 1.0, 2.0, 8.0, 0.0)
        line = sample_complex_lines(quat.as_complex, PlaneClass.SPACELIKE, 1, seed=4)[0]
        want = spectrum_of_JR(r, quat.as_complex, line).eigenvalues
        got = spectrum_of_JR(combine([(c, r)]), quat.as_complex, line).eigenvalues
        assert [mu for _, mu in got] == [mu for _, mu in want] == [2, 1, 1]
        assert [lam for lam, _ in got] == pytest.approx([c * lam for lam, _ in want], rel=1e-12)

    @pytest.mark.parametrize("c", [1e-7, 1e-9])
    def test_small_non_almost_complex_tensor_rejected(self, c):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = combine([(c, random_algebraic_curvature_tensor(s, 3))])
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=8)[0]
        with pytest.raises(SpectrumStructureError, match="commute"):
            spectrum_of_JR(r, J, line)

    # phi = [[D, -D], [D, -D]] is self-adjoint, commutes with J and squares to
    # 0; its tensor, pulled back by a U(2, 2) element, has R(pi) = 0 in exact
    # arithmetic on these two lines and about 1e-14 in floating point.
    @pytest.mark.parametrize("i, plane_class", [(2, PlaneClass.TIMELIKE), (6, PlaneClass.SPACELIKE)])
    def test_rounding_noise_operator_is_zero(self, i, plane_class):
        s = BilinearSpace(4, 4)
        J = standard_complex_structure(s)
        d = np.diag([1.0, 1.0, 0.0, 0.0])
        a = projected_generator(s, J, -1, 1, 3)
        u = np.linalg.solve(np.eye(8) - a / 2, np.eye(8) + a / 2)
        r = pullback(from_self_adjoint(s, np.block([[d, -d], [d, -d]])), u)
        line = complex_line(J, np.linalg.solve(u, e(8, i)))
        assert line.plane_class is plane_class
        op = curvature_operator(r, line)
        assert not op.any()
        inv = jordan_invariants(op, jordan_ip.OPERATOR_TOL)
        assert inv.total_rank == 0 and inv.clusters == ((0, 8),)
        assert spectrum_of_JR(r, J, line).eigenvalues == ((0.0, 4),)

    # The eigenvalues of J R(pi) for R_Id + R_C move by a fixed fraction of
    # their size from line to line, so the spectra disagree at every scale.
    @pytest.mark.parametrize("c", [1.0, 1e-9], ids=["1", "1e-9"])
    def test_moving_spectrum_mismatches_at_every_scale(self, c):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = id_plus_conjugation(s, c)
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 10, seed=0)
        anchor, *rest = (spectrum_of_JR(r, J, line) for line in lines)
        assert not all(anchor.matches(spec, 1e-8) for spec in rest)

    def test_odd_real_multiplicity_rejected(self, monkeypatch):
        # An almost complex tensor gives even multiplicities, so the
        # fingerprint is stubbed; its scale lets the commutator test pass.
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        fingerprint = JordanInvariants(4, ((1 + 0j, 3), (-1 + 0j, 1)), ((1, 1, 1), (3,)), 4,
                                       False, 1e6)
        monkeypatch.setattr(jordan_ip, "jordan_invariants", lambda a, tol: fingerprint)
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=0)[0]
        with pytest.raises(SpectrumStructureError, match="odd real multiplicity 3"):
            spectrum_of_JR(random_algebraic_curvature_tensor(s, 3), J, line)

    def test_non_real_eigenvalue_rejected(self):
        s = BilinearSpace(2, 2)
        J = standard_complex_structure(s)
        r = random_algebraic_curvature_tensor(s, 0)
        r = combine([(0.5, r), (0.5, pullback(r, J.J))])
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=0)[0]
        with pytest.raises(SpectrumStructureError, match="non-real .* imaginary part 7.276e-01"):
            spectrum_of_JR(r, J, line)


class TestOperatorEigenvalueRelations:
    """The literal relations R(pi) x = -(c0 + 3 c1) ix, R(pi) jx = -(2 c1 - c2 - c3) kx,
    and R(pi) y = -2 c1 iy for y orthogonal to the quaternion orbit of x."""

    COEFFS = (0.7, -1.3, 0.4, 2.1)

    def _frame(self, space, quat, x):
        return [x, quat.i @ x, quat.j @ x, quat.k @ x]

    def test_spacelike_relations(self):
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        c0, c1, c2, c3 = self.COEFFS
        r = build_quaternionic_tensor(quat, *self.COEFFS)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(8)
            x /= np.sqrt(inner(s, x, x))
            op = curvature_operator(r, complex_line(quat.as_complex, x))
            frame = self._frame(s, quat, x)
            assert np.max(np.abs(op @ x + (c0 + 3 * c1) * frame[1])) <= 1e-10
            assert np.max(np.abs(op @ frame[2] + (2 * c1 - c2 - c3) * frame[3])) <= 1e-10
            y = rng.standard_normal(8)
            y = y - sum(inner(s, y, v) * v for v in frame)
            y /= np.linalg.norm(y)
            assert np.max(np.abs(op @ y + 2 * c1 * (quat.i @ y))) <= 1e-10

    def test_timelike_rotations_are_negated(self):
        s = BilinearSpace(4, 4)
        quat = standard_quaternion_structure(s)
        c0, c1, _, _ = self.COEFFS
        r = build_quaternionic_tensor(quat, *self.COEFFS)
        rng = np.random.default_rng(12)
        found = 0
        while found < 10:
            x = rng.standard_normal(8)
            t = inner(s, x, x)
            if t >= -1e-3:
                continue
            x /= np.sqrt(-t)
            op = curvature_operator(r, complex_line(quat.as_complex, x))
            ix = quat.i @ x
            assert np.max(np.abs(op @ x - (c0 + 3 * c1) * ix)) <= 1e-10 * max(1.0, float(x @ x))
            found += 1


class TestSolveConstants:
    def test_quaternionic_three_eigenvalues(self):
        spec = SpectrumSpec(((4.0, 2), (7.0, 1), (-4.0, 1)))
        assert solve_constants(spec, SpectrumModel.QUATERNIONIC) == (1.0, 2.0, 8.0, 0.0)

    def test_complex_pair_trivial(self):
        spec = SpectrumSpec(((0.0, 2), (1.0, 1)))
        assert solve_constants(spec, SpectrumModel.COMPLEX_PAIR) == (1.0, 0.0)

    def test_quaternionic_two_eigenvalues_multiplicity_two(self):
        lam0, lam1 = 3.0, -1.0
        c0, c1, c2, c3 = solve_constants(
            SpectrumSpec(((lam0, 2), (lam1, 2))), SpectrumModel.QUATERNIONIC
        )
        assert (c0 + 3 * c1, 2 * c1, 2 * c1 - c2 - c3) == (lam1, lam0, lam1)
        assert c3 == 0.0

    def test_complex_pair_rejects_three_eigenvalues(self):
        spec = SpectrumSpec(((1.0, 2), (2.0, 1), (3.0, 1)))
        with pytest.raises(ValueError, match="exactly two"):
            solve_constants(spec, SpectrumModel.COMPLEX_PAIR)

    def test_complex_pair_rejects_wrong_trailing_multiplicity(self):
        spec = SpectrumSpec(((1.0, 3), (2.0, 2)))
        with pytest.raises(ValueError, match="mu = 1"):
            solve_constants(spec, SpectrumModel.COMPLEX_PAIR)

    def test_quaternionic_rejects_odd_dimension_pattern(self):
        spec = SpectrumSpec(((1.0, 2), (2.0, 1)))
        with pytest.raises(ValueError, match="divisible by 4"):
            solve_constants(spec, SpectrumModel.QUATERNIONIC)

    @pytest.mark.parametrize(
        "eigenvalues, message",
        [
            (((1.0, 4),), "two or three eigenvalues, got 1"),
            (((1.0, 3), (2.0, 3)), "at most 2, got 3"),
            (((1.0, 2), (2.0, 2), (3.0, 2)), "trailing multiplicities 1, got 2, 2"),
        ],
        ids=["one_eigenvalue", "second_multiplicity", "trailing_multiplicities"],
    )
    def test_quaternionic_rejects_shape(self, eigenvalues, message):
        with pytest.raises(ValueError, match=message):
            solve_constants(SpectrumSpec(eigenvalues), SpectrumModel.QUATERNIONIC)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model 'quaternionic'"):
            solve_constants(SpectrumSpec(((1.0, 2), (2.0, 2))), "quaternionic")

    def test_round_trip_complex_pair(self):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        target = SpectrumSpec(((1.25, 2), (-0.75, 1)))
        coeffs = solve_constants(target, SpectrumModel.COMPLEX_PAIR)
        r = build_complex_pair_tensor(J, *coeffs)
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=9)[0]
        assert target.matches(spectrum_of_JR(r, J, line), 1e-8)

    def test_round_trip_quaternionic(self):
        s = BilinearSpace(0, 8)
        quat = standard_quaternion_structure(s)
        target = SpectrumSpec(((2.0, 2), (5.0, 1), (-3.0, 1)))
        coeffs = solve_constants(target, SpectrumModel.QUATERNIONIC)
        r = build_quaternionic_tensor(quat, *coeffs)
        line = sample_complex_lines(quat.as_complex, PlaneClass.SPACELIKE, 1, seed=10)[0]
        assert target.matches(spectrum_of_JR(r, quat.as_complex, line), 1e-8)


class TestNilpotentBranch:
    def test_null_pair_operators_on_complex_lines(self):
        s = BilinearSpace(2, 2)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, nilpotent_null_pair(s))
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 25, seed=0)
        lines += sample_complex_lines(J, PlaneClass.TIMELIKE, 25, seed=1)
        for line in lines:
            op = curvature_operator(r, line)
            assert np.max(np.abs(op @ op)) <= 1e-10
            assert numeric_rank(op, 1e-8) == 2

    def test_null_pair_constancy_on_balanced_six_space(self):
        s = BilinearSpace(3, 3)
        r = from_self_adjoint(s, nilpotent_null_pair(s))
        report = check_jordan_ip_real(r, n=25, seed=2)
        types = (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE)
        assert all(report.constant_by_type[t] for t in types)
        assert {report.rank_by_type[t] for t in types} == {2}

    def test_doubly_nilpotent_pair_rank_four(self):
        # Both generators square to zero; the pair tensor's operator has rank
        # exactly 4 with vanishing square on every non-degenerate complex line.
        from curvlab import check_admissible_pair

        s = BilinearSpace(4, 4)
        J = standard_complex_structure(s)
        phi1 = nilpotent_null_pair(s)
        phi2 = nilpotent_null_pair_partner(s)
        pair = check_admissible_pair(phi1, phi2, J, n_lines=40, seed=0)
        assert pair.admissible and pair.min_line_rank == 4
        tensor = combine(
            [(1.0, from_self_adjoint(s, phi1)), (1.5, from_skew_adjoint(s, phi2))]
        )
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 25, seed=3)
        lines += sample_complex_lines(J, PlaneClass.TIMELIKE, 25, seed=4)
        for line in lines:
            op = curvature_operator(tensor, line)
            assert float(np.max(np.abs(op @ op))) <= 1e-10
            assert numeric_rank(op, 1e-8) == 4
        assert check_jordan_ip(tensor, J, n=40, seed=5).constant

    # The operators are nilpotent, |lambda| = 0 but sigma_max > 0: fingerprints
    # compared relative to sigma_max stay equivalent when the tensor is scaled.
    @pytest.mark.parametrize("with_partner", [True, False], ids=["phi1_plus_phi2", "phi1"])
    def test_scaled_nilpotent_tensor_stays_constant(self, with_partner):
        s = BilinearSpace(4, 4)
        J = standard_complex_structure(s)
        terms = [(1e-7, from_self_adjoint(s, nilpotent_null_pair(s)))]
        if with_partner:
            terms.append((1e-7, from_skew_adjoint(s, nilpotent_null_pair_partner(s))))
        r = combine(terms)
        assert all(check_jordan_ip(r, J, n=30, seed=seed).constant for seed in range(3))


class TestSpectrumSpecValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one eigenvalue"):
            SpectrumSpec(())

    def test_rejects_duplicate_eigenvalues(self):
        with pytest.raises(ValueError, match="distinct"):
            SpectrumSpec(((1.0, 2), (1.0, 1)))

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError, match="positive"):
            SpectrumSpec(((1.0, 0),))

    def test_orders_by_multiplicity(self):
        spec = SpectrumSpec(((5.0, 1), (2.0, 3)))
        assert spec.eigenvalues == ((2.0, 3), (5.0, 1))
        assert spec.dimension == 8

    def test_stable_among_equal_multiplicities(self):
        spec = SpectrumSpec(((4.0, 2), (7.0, 1), (-4.0, 1)))
        assert spec.eigenvalues == ((4.0, 2), (7.0, 1), (-4.0, 1))

    # Each eigenvalue of self takes the nearest remaining one of other of equal
    # multiplicity, within tol * max |eigenvalue| with no floor of 1.
    @pytest.mark.parametrize("a, b, expected", [
        (((1.0, 2), (3.0, 1)), ((3.0 + 1e-9, 1), (1.0, 2)), True),
        (((1.0, 2), (3.0, 1)), ((1.0, 2),), False),
        (((1.0, 2),), ((1.0, 2), (3.0, 1)), False),
        (((1.0, 2), (3.0, 1)), ((1.0, 1), (3.0, 2)), False),
        (((1.0, 1), (3.0, 1)), ((1.0, 1), (3.0 + 1e-6, 1)), False),
        (((1e-9, 1), (3e-9, 1)), ((1e-9, 1), (3e-9 * (1 + 1e-9), 1)), True),
        (((1e-9, 1), (3e-9, 1)), ((1e-9, 1), (3.1e-9, 1)), False),
        (((0.0, 3),), ((0.0, 3),), True),
    ], ids=["within_bound", "other_shorter", "other_longer", "multiplicities_differ",
            "above_bound", "small_within_bound", "small_above_bound", "zero"])
    def test_matches(self, a, b, expected):
        assert SpectrumSpec(a).matches(SpectrumSpec(b), 1e-8) is expected
