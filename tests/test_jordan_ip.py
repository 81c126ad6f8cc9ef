from functools import partial

import numpy as np
import pytest

from curvlab import (
    BilinearSpace,
    ComplexStructure,
    CurvatureTensor,
    OrientedPlane,
    PlaneClass,
    SpectrumModel,
    SpectrumSpec,
    SpectrumStructureError,
    adjoint,
    build_complex_pair_tensor,
    build_quaternionic_tensor,
    check_J_invariance,
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
    jordan_equivalent,
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


def lines_by_type(J, n, seed):
    """The complex lines that the Jordan checks draw: n of each causal type that
    exists, the i-th type with seed + i, one list per type."""
    return [lines for _, lines in jordan_ip._planes_by_type(
        J.space, jordan_ip._LINE_TYPES, partial(jordan_ip.sample_complex_lines, J), n, seed)]


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

    # The sampler decides each line's Gram determinant once, when the line is
    # drawn, and it goes with the line to the assembly of R(pi).
    def test_one_gram_per_sampled_line(self, monkeypatch):
        rows = []
        original = pseudo_linalg._gram_rule

        def spy(*dots):
            rows.append(np.size(dots[0]))
            return original(*dots)

        # Every Gram determinant, of one plane or of a stack, goes through _gram_rule;
        # count its rows under every module name that binds it.
        for module in (pseudo_linalg, jordan_ip):
            if hasattr(module, "_gram_rule"):
                monkeypatch.setattr(module, "_gram_rule", spy)
        space = BilinearSpace(2, 4)
        J = standard_complex_structure(space)
        r = build_complex_pair_tensor(J, 1.0, 0.5)
        # One stacked call per sampler call, with one row per plane or line.
        lines = sample_real_planes(space, PlaneClass.TIMELIKE, 100, seed=0) + sample_complex_lines(
            J, PlaneClass.TIMELIKE, 100, seed=0)
        assert rows == [100, 100]
        rows.clear()
        assert sum(len(ops) for ops in curvature_operators(r, lines)) == 200
        assert rows == []


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

    # The planes of a block are looked at before it is assembled, so a degenerate
    # line among 150 raises wherever it lies in its block of 64.
    @pytest.mark.parametrize("at", [0, 70, 149])
    def test_degenerate_plane_raises(self, at):
        space = BilinearSpace(2, 2)
        J = standard_complex_structure(space)
        planes = sample_complex_lines(J, PlaneClass.SPACELIKE, 150, seed=4)
        null = e(4, 0) + e(4, 2)
        planes[at] = OrientedPlane(space, null, J.J @ null)
        with pytest.raises(ValueError, match="^degenerate plane: restricted Gram determinant"):
            list(curvature_operators(build_complex_pair_tensor(J, 1.0, 0.5), planes))

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


class TestLinesOfTheGivenStructure:
    """spectrum_of_JR decides from its own J whether a plane is a complex line,
    however the plane was made: y must equal J x to DEFAULT_TOL max|x|."""

    def test_line_built_directly_is_accepted(self):
        s = BilinearSpace(2, 4)
        J = standard_complex_structure(s)
        r = build_complex_pair_tensor(J, 1.0, 0.5)
        x = np.array([0.5, -1.0, 2.0, 1.0, -1.5, 0.25])
        spec = spectrum_of_JR(r, J, OrientedPlane(s, x, J.J @ x))
        assert spec == spectrum_of_JR(r, J, complex_line(J, x))
        assert SpectrumSpec(((1.0, 2), (2.5, 1))).matches(spec, 1e-8)

    # {x, 2 J x} spans the same line, but spectrum_of_JR accepts only the form {x, J x}.
    @pytest.mark.parametrize("y", [lambda J, x: 2.0 * J.J @ x, lambda J, x: -(J.J @ x),
                                   lambda J, x: J.J @ x + 1e-6 * x], ids=["2Jx", "-Jx", "Jx+1e-6x"])
    def test_other_spanning_pairs_are_rejected(self, y):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, np.eye(4))
        x = np.array([1.0, 2.0, -0.5, 0.25])
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
        assert spectrum_of_JR(r, j, complex_line(j, x)).dimension == s.m
        i_line = complex_line(quat.as_complex, x)
        with pytest.raises(ValueError, match="^spectrum_of_JR requires a non-degenerate complex line$"):
            spectrum_of_JR(r, j, i_line)

    # A line of J lies in J's space, whatever its vectors.
    @pytest.mark.parametrize("sig", [(2, 2), (0, 6)], ids=str)
    def test_plane_of_another_space_is_not_a_line(self, sig):
        line = complex_line(standard_complex_structure(BilinearSpace(*sig)), e(sig[0] + sig[1], 2))
        J = standard_complex_structure(BilinearSpace(0, 4))
        r = from_self_adjoint(J.space, np.eye(4))
        with pytest.raises(ValueError, match="^spectrum_of_JR requires a non-degenerate complex line$"):
            spectrum_of_JR(r, J, line)


class TestRouteOfTheCheck:
    """check_jordan_ip fingerprints its anchors on C^{m/2} exactly when the
    tensor is almost complex, at a bound relative to max|R|."""

    @staticmethod
    def anchor_inputs(tensor, J, n, seed, monkeypatch):
        inputs = TestComplexPathFingerprint.spy_on_eigvals(monkeypatch)
        check_jordan_ip(tensor, J, n=n, seed=seed)
        return set(inputs)

    def test_metric_tensor(self, monkeypatch):
        s = BilinearSpace(0, 4)
        J = standard_complex_structure(s)
        r = from_self_adjoint(s, np.eye(4))
        assert check_J_invariance(r, J).max_violation <= 1e-12
        assert self.anchor_inputs(r, J, 20, 0, monkeypatch) == {((2, 2), "c")}

    def test_complex_pair_tensor(self, monkeypatch):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = build_complex_pair_tensor(J, 1.7, -0.4)
        assert self.anchor_inputs(r, J, 20, 1, monkeypatch) == {((3, 3), "c")}

    # The bound is tol * max|R|: at 1e4 a pair still takes the complex route;
    # at 1e-12 a generic tensor still takes the real one.
    @pytest.mark.parametrize("case", ["large_pair", "small_generic"])
    def test_verdict_does_not_depend_on_scale(self, case, monkeypatch):
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
        path = ((s.m // 2,) * 2, "c") if case == "large_pair" else ((s.m,) * 2, "f")
        assert self.anchor_inputs(r, J, n, seed, monkeypatch) == {path}

    def test_generic_generator_takes_the_real_route(self, monkeypatch):
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        phi = np.random.default_rng(8).standard_normal((6, 6))
        r = from_self_adjoint(s, 0.5 * (phi + adjoint(s, phi)))
        assert not check_J_invariance(r, J).passed
        assert self.anchor_inputs(r, J, 50, 2, monkeypatch) == {((6, 6), "f")}


# The commutator of R(pi) with J on each line, one einsum contraction per line.
def reference_line_commutators(tensor, J, planes):
    comms = []
    for plane in planes:
        det, _ = _plane_gram(tensor.space, plane.x, plane.y)
        op = reference_apply_pair(tensor, plane.x, plane.y) / np.sqrt(abs(det))
        comms.append(float(np.max(np.abs(J.J @ op - op @ J.J))))
    return comms


class TestLineCommutatorsReference:
    """The identity J*R = R and spectrum_of_JR's per-line commutator agree with
    a per-line reference loop."""

    # 150 lines of each signature; a generic tensor commutes with J on none.
    @pytest.mark.parametrize("sig", [(0, 6), (2, 4), (4, 4), (0, 32)], ids=str)
    def test_each_line_is_rejected_with_its_own_residual(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        rng = np.random.default_rng(sum(sig))
        phi = rng.standard_normal((space.m, space.m))
        r = from_self_adjoint(space, 0.5 * (phi + adjoint(space, phi)))
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 150, seed=sig[0])
        comms = reference_line_commutators(r, J, lines)
        bound = jordan_ip._ALMOST_COMPLEX_TOL * r.scale
        assert min(comms) > bound
        assert not check_J_invariance(r, J, jordan_ip._ALMOST_COMPLEX_TOL).passed
        # Each line is rejected before any eigen-analysis, with its own residual
        # to the four digits the message prints.
        for line, comm in zip(lines, comms):
            with pytest.raises(SpectrumStructureError, match="^R\\(pi\\) does not commute with J") as err:
                spectrum_of_JR(r, J, line)
            residual = float(str(err.value).split("residual ")[1].split(")")[0])
            assert abs(residual - comm) <= 1e-3 * comm

    def test_almost_complex_tensor_passes_on_every_line(self):
        quat = standard_quaternion_structure(BilinearSpace(0, 32))
        r = build_quaternionic_tensor(quat, 1, 2, 8, 0)
        J = quat.as_complex
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 150, seed=3)
        assert max(reference_line_commutators(r, J, lines)) <= 1e-12 * r.scale
        assert check_J_invariance(r, J, jordan_ip._ALMOST_COMPLEX_TOL).passed
        for line in lines:
            assert spectrum_of_JR(r, J, line).dimension == 32


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
    """How many fingerprints, rank tests and equivalence tests each Jordan check makes.

    The sample is staged: the first plane is repeated, so the first
    operator whose form differs from the anchor's is at a known index.
    """

    OFFENDER = 5

    @staticmethod
    def count(monkeypatch, name):
        """The shape of the first argument of every call of jordan_ip.<name>
        from now on: for jordan_invariants the matrix it fingerprints, for
        _matches_form the stack it tests."""
        calls = []
        original = getattr(jordan_ip, name)

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(jordan_ip, name, counting)
        return calls

    def stage(self, monkeypatch, sampler, planes):
        staged = [planes[0]] * self.OFFENDER + planes[1:]
        monkeypatch.setattr(jordan_ip, sampler, lambda *args, **kwargs: list(staged))
        return staged

    # The real check tests no block past its offender, but the block of
    # operators that holds it is assembled and tested whole.
    def test_real_check_stops_at_its_offender(self, monkeypatch):
        s = BilinearSpace(0, 5)
        r = random_algebraic_curvature_tensor(s, 42)
        planes = sample_real_planes(s, PlaneClass.SPACELIKE, 2 * jordan_ip._BLOCK + 20, 0)
        staged = self.stage(monkeypatch, "sample_real_planes", planes)
        assert len(staged) > 2 * jordan_ip._BLOCK
        invariants = self.count(monkeypatch, "jordan_invariants")
        tested = self.count(monkeypatch, "_matches_form")
        equivalent = self.count(monkeypatch, "jordan_equivalent")
        report = check_jordan_ip_real(r, n=len(planes), seed=0)
        assert list(report.constant_by_type) == [PlaneClass.SPACELIKE]
        assert report.witnesses[PlaneClass.SPACELIKE] == (staged[0], staged[self.OFFENDER])
        assert invariants == [(5, 5)]
        assert tested == [(jordan_ip._BLOCK - 1, 5, 5)]
        assert equivalent == []

    def test_complex_check_tests_every_line(self, monkeypatch):
        # {Id, C} gives an almost complex tensor whose operator moves from
        # line to line (see TestCheckJordanIP).
        s = BilinearSpace(0, 6)
        J = standard_complex_structure(s)
        r = id_plus_conjugation(s)
        n = jordan_ip._BLOCK + 20
        planes = sample_complex_lines(J, PlaneClass.SPACELIKE, n, 0)
        staged = self.stage(monkeypatch, "sample_complex_lines", planes)
        invariants = self.count(monkeypatch, "jordan_invariants")
        tested = self.count(monkeypatch, "_matches_form")
        equivalent = self.count(monkeypatch, "jordan_equivalent")
        report = check_jordan_ip(r, J, n=n, seed=0)
        assert report.witness == (staged[0], staged[self.OFFENDER])
        # Only the anchor is fingerprinted; every other R(pi) commutes with J
        # and is tested on C^3, the block after the offender's too.
        assert invariants == [(6, 6)]
        assert tested == [(jordan_ip._BLOCK - 1, 3, 3), (len(staged) - jordan_ip._BLOCK, 3, 3)]
        assert equivalent == []

    # A later causal type's anchor meets the first anchor in jordan_equivalent,
    # and the lines of its type meet its own anchor in a rank test.
    def test_second_anchor_meets_the_first(self, monkeypatch):
        s = BilinearSpace(4, 4)
        J = standard_complex_structure(s)
        invariants = self.count(monkeypatch, "jordan_invariants")
        tested = self.count(monkeypatch, "_matches_form")
        equivalent = self.count(monkeypatch, "jordan_equivalent")
        report = check_jordan_ip(build_complex_pair_tensor(J, 1.5, 0.75), J, n=10, seed=0)
        assert report.constant and list(report.invariants_by_type) == [
            PlaneClass.SPACELIKE, PlaneClass.TIMELIKE]
        assert invariants == [(8, 8), (8, 8)]
        assert tested == [(9, 4, 4), (9, 4, 4)]
        assert equivalent == [()]

    # A sample of one plane per causal type: the head block holds only the anchor,
    # and the rank test of its empty rest gives no verdict, on both routes.
    @pytest.mark.parametrize("sig", [(0, 4), (2, 2)], ids=str)
    def test_one_plane_sample(self, sig, monkeypatch):
        s = BilinearSpace(*sig)
        J = standard_complex_structure(s)
        types = 1 if s.p == 0 else 2
        tested = self.count(monkeypatch, "_matches_form")
        # The pair tensor's lines are tested on C^2; a random tensor's, which do not
        # commute with J, as real matrices, and its anchors differ between the types.
        for r, n in ((build_complex_pair_tensor(J, 1.5, 0.75), 2), (random_algebraic_curvature_tensor(s, 0), 4)):
            tested.clear()
            report = check_jordan_ip(r, J, n=1, seed=0)
            assert report.constant == (n == 2 or types == 1) and len(report.invariants_by_type) == types
            assert tested == [(0, n, n)] * types
        tested.clear()
        report = check_jordan_ip_real(from_self_adjoint(s, np.eye(4)), n=1, seed=0)
        assert report.constant and tested == [(0, 4, 4)] * len(report.invariants_by_type)


def random_J_invariant_tensor(J, seed):
    """The J-invariant part of a random algebraic curvature tensor: its R(pi)
    commutes with J on every complex line, with generic eigenvalues."""
    r = random_algebraic_curvature_tensor(J.space, seed)
    return combine([(0.5, r), (0.5, pullback(r, J.J))])


def boost(space, rapidity):
    """The boost of the first timelike e0 with the first spacelike e_p: an
    isometry of every signature with p, q >= 1."""
    g, p = np.eye(space.m), space.p
    g[0, 0] = g[p, p] = np.cosh(rapidity)
    g[0, p] = g[p, 0] = np.sinh(rapidity)
    return g


def boosted_structure(space, rapidity):
    """The standard J conjugated by boost(space, rapidity): a complex structure
    that is not orthogonal."""
    g = boost(space, rapidity)
    return ComplexStructure(space, g @ standard_complex_structure(space).J @ np.linalg.inv(g))


class TestComplexPathFingerprint:
    """An R(pi) that commutes with J, for any J, is fingerprinted on J's +i
    eigenspace; the result is the fingerprint of the real R(pi), to rounding."""

    @staticmethod
    def spy_on_eigvals(monkeypatch):
        """The (trailing shape, dtype kind) of every matrix that an eigvals call
        receives from now on, one entry per matrix of a stack, in order."""
        eigvals = np.linalg.eigvals
        inputs = []

        def spy(a):
            inputs.extend([(a.shape[-2:], a.dtype.kind)] * int(np.prod(a.shape[:-2])))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        return inputs

    # (2, 6) has no quaternion structure.
    @pytest.mark.parametrize("tensor, sig", [
        (tensor, sig) for tensor in ("pair", "quaternionic", "identity", "random")
        for sig in [(0, 8), (4, 4), (2, 6), (8, 8)] if tensor != "quaternionic" or sig[0] % 4 == 0
    ], ids=str)
    def test_matches_the_real_fingerprint(self, tensor, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        r = {
            "pair": lambda: build_complex_pair_tensor(J, 1.5, 0.75),
            "quaternionic": lambda: build_quaternionic_tensor(
                standard_quaternion_structure(space), 1, 2, 8, 0),
            "identity": lambda: from_self_adjoint(space, np.eye(space.m)),
            "random": lambda: random_J_invariant_tensor(J, 3),
        }[tensor]()
        tol = jordan_ip.OPERATOR_TOL
        for lines in lines_by_type(J, 20, 0):
            for op in np.concatenate(list(curvature_operators(r, lines))):
                real = jordan_invariants(op, tol)
                fast = jordan_invariants(op, tol, J._plus_i_basis)
                assert [mult for _, mult in fast.clusters] == [mult for _, mult in real.clusters]
                assert fast.rank_sequences == real.rank_sequences
                assert fast.total_rank == real.total_rank
                assert fast.clustering_ambiguous == real.clustering_ambiguous
                bound = tol * real.scale
                assert fast.scale == pytest.approx(real.scale, rel=1e-12)
                assert all(abs(a - b) <= bound for (a, _), (b, _) in zip(fast.clusters, real.clusters))
                assert jordan_equivalent(fast, real, tol) and jordan_equivalent(real, fast, tol)
                if tensor == "identity":
                    # R(pi) rotates pi and is 0 on its complement: the cluster
                    # at 0 has twice the complex rank 1.
                    assert (0.0, space.m - 2, (2,) * (space.m - 2)) in [
                        (round(abs(lam), 12), mult, ranks)
                        for (lam, mult), ranks in zip(fast.clusters, fast.rank_sequences)]

    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (8, 8)], ids=str)
    def test_commuting_operators_take_the_complex_path(self, sig, monkeypatch):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        inputs = self.spy_on_eigvals(monkeypatch)
        for r in (build_complex_pair_tensor(J, 1.5, 0.75), id_plus_conjugation(space),
                  random_J_invariant_tensor(J, 3),
                  build_quaternionic_tensor(standard_quaternion_structure(space), 1, 2, 8, 0)):
            inputs.clear()
            check_jordan_ip(r, J, n=5, seed=0)
            assert set(inputs) == {((space.m // 2, space.m // 2), "c")}

    # (0, 8) has one causal type of line, (4, 4) two: one J*R = R decision routes them all.
    @pytest.mark.parametrize("sig", [(0, 8), (4, 4)], ids=str)
    def test_one_identity_call_per_check(self, sig, monkeypatch):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        calls, identity = [], jordan_ip.check_J_invariance
        monkeypatch.setattr(jordan_ip, "check_J_invariance",
                            lambda *args: calls.append(args) or identity(*args))
        for r in (build_complex_pair_tensor(J, 1.5, 0.75), random_algebraic_curvature_tensor(space, 3)):
            calls.clear()
            check_jordan_ip(r, J, n=70, seed=0)
            assert [(t, j) for t, j, _ in calls] == [(r, J)]
            calls.clear()
            check_jordan_ip_real(r, n=70, seed=0)
            assert calls == []

    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (8, 8)], ids=str)
    def test_other_operators_take_the_real_path(self, sig, monkeypatch):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        inputs = self.spy_on_eigvals(monkeypatch)
        real = {((space.m, space.m), "f")}
        # Real planes have no structure; a generic tensor does not commute with J.
        check_jordan_ip_real(id_plus_conjugation(space), n=5, seed=0)
        assert set(inputs) == real
        inputs.clear()
        check_jordan_ip(random_algebraic_curvature_tensor(space, 3), J, n=5, seed=0)
        assert set(inputs) == real

    # The lines where the real fingerprint of R_Id + 2 R_J dropped a rank: on
    # each, kappa = |x||y| / sqrt|det| is 3.2e3 to 8.2e3, and the singular
    # value below the cutoff (1.5e-7 to 9.2e-7 of the anchor) is one of A_c -
    # conj(lambda), where conj(lambda) is no eigenvalue of A_c.  The complex
    # path gives that block full rank, so every seed is "constant".
    @pytest.mark.parametrize("sig, seed", [
        ((4, 4), 6), ((4, 4), 25), ((2, 6), 10), ((2, 6), 13), ((6, 2), 13), ((6, 2), 25),
        ((8, 8), 4), ((8, 8), 7), ((8, 8), 9), ((8, 8), 19), ((8, 8), 21), ((8, 8), 25), ((8, 8), 26),
    ], ids=str)
    def test_ill_conditioned_lines_keep_their_ranks(self, sig, seed):
        J = standard_complex_structure(BilinearSpace(*sig))
        report = check_jordan_ip(build_complex_pair_tensor(J, 1.0, 2.0), J, n=100, seed=seed)
        assert report.constant and report.rank == J.space.m

    def test_boosted_structure_takes_the_complex_path(self, monkeypatch):
        # The J of ComplexStructure's boosted-structure test is not orthogonal,
        # but it has a +i basis like every J, so J itself, which commutes with
        # J, is fingerprinted on C^{m/2} when that basis is handed over.  Its
        # lines all fail the plane test, so the operator stack is handed to
        # _fingerprints directly, as the anchor of a plane made without that test.
        s = BilinearSpace(2, 2)
        r = from_self_adjoint(s, np.eye(4))
        inputs = self.spy_on_eigvals(monkeypatch)
        for J in (standard_complex_structure(s), boosted_structure(s, 10.0)):
            monkeypatch.setattr(jordan_ip, "curvature_operators", lambda *_: iter([J.J[None]]))
            inputs.clear()
            plane = OrientedPlane(s, e(4, 0), J.J @ e(4, 0))
            inv, same = jordan_ip._fingerprints(r, [plane], jordan_ip.OPERATOR_TOL, J._plus_i_basis)
            assert np.concatenate(list(same)).tolist() == [True]
            assert inputs == [((2, 2), "c")]
            assert [mult for _, mult in inv.clusters] == [2, 2]

    # R_Id + 2 R_J for a boosted J is the isometric image of the standard
    # tensor, so it is Jordan-IP.  On these seeds the m x m real fingerprint
    # drops a rank on an ill-conditioned line; the one on C^{m/2} keeps it.
    @pytest.mark.parametrize("rapidity, sig, seed", [
        (0.5, (4, 4), 25), (0.5, (2, 6), 0), (0.5, (2, 6), 10), (0.5, (2, 6), 13),
        (0.5, (6, 2), 13), (0.5, (6, 2), 25), (0.5, (8, 8), 4), (0.5, (8, 8), 7),
        (0.5, (8, 8), 9), (0.5, (8, 8), 19), (0.5, (8, 8), 21), (0.5, (8, 8), 25),
        (0.5, (8, 8), 26), (2.0, (2, 6), 15), (2.0, (2, 6), 16), (2.0, (6, 2), 3),
        (2.0, (6, 2), 6), (2.0, (6, 2), 9), (2.0, (6, 2), 27), (2.0, (8, 8), 5), (2.0, (8, 8), 18),
    ], ids=str)
    def test_boosted_structure_keeps_its_ranks(self, rapidity, sig, seed, monkeypatch):
        J = boosted_structure(BilinearSpace(*sig), rapidity)
        inputs = self.spy_on_eigvals(monkeypatch)
        report = check_jordan_ip(build_complex_pair_tensor(J, 1.0, 2.0), J, n=100, seed=seed)
        assert report.constant and report.rank == J.space.m
        assert set(inputs) == {((J.space.m // 2,) * 2, "c")}

    # R_Id + R_C, moved by the same boost as J, still moves from line to line.
    @pytest.mark.parametrize("sig", [(4, 4), (2, 6), (6, 2), (8, 8)], ids=str)
    def test_boosted_control_stays_not_constant(self, sig):
        space = BilinearSpace(*sig)
        J = boosted_structure(space, 0.5)
        r = pullback(id_plus_conjugation(space), np.linalg.inv(boost(space, 0.5)))
        assert [check_jordan_ip(r, J, n=100, seed=seed).constant for seed in range(5)] == [False] * 5


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

    # The commutator is judged against max|R| and the spectrum against
    # sigma_max(J R(pi)), so the verdict and the spectrum scale with the tensor.
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

    @staticmethod
    def stub_operator(monkeypatch, J, a_c):
        """Make curvature_operator return -J A, with A = [Q, conj(Q)] diag(a_c,
        conj(a_c)) [Q, conj(Q)]^H: J R(pi) is then A, whose block on C^{m/2} is a_c."""
        q = J._plus_i_basis
        basis = np.column_stack([q, q.conj()])
        a = (basis @ np.block([[a_c, 0 * a_c], [0 * a_c, a_c.conj()]]) @ basis.conj().T).real
        monkeypatch.setattr(jordan_ip, "curvature_operator", lambda *_: -J.J @ a)

    # Clusters link at tol sigma_max(A_c), here tol * 3, so an eigenvalue whose
    # imaginary part lies in (tol sigma / 2, tol sigma] is a cluster apart from
    # its conjugate: non-real, although it is within the cluster bound of the
    # real line.
    NEAR = 1 + 0.75 * jordan_ip.OPERATOR_TOL * 3j

    @pytest.mark.parametrize("diagonal", [[NEAR, NEAR, 3.0], [NEAR, 2.0, 3.0]], ids=["double", "single"])
    def test_near_real_band_is_non_real(self, diagonal, monkeypatch):
        J = standard_complex_structure(BilinearSpace(0, 6))
        self.stub_operator(monkeypatch, J, np.diag(diagonal))
        r = build_complex_pair_tensor(J, 1.0, 2.0)
        with pytest.raises(SpectrumStructureError, match="non-real"):
            spectrum_of_JR(r, J, complex_line(J, e(6, 0)))

    # A conjugate pair within tol sigma / 2 of the real line is one cluster,
    # holding both, and reads as one real eigenvalue.
    def test_conjugate_pair_near_the_real_line_is_real(self, monkeypatch):
        J = standard_complex_structure(BilinearSpace(0, 6))
        shift = 0.3 * jordan_ip.OPERATOR_TOL * 3j
        self.stub_operator(monkeypatch, J, np.diag([1 + shift, 1 - shift, 3.0]))
        spec = spectrum_of_JR(build_complex_pair_tensor(J, 1.0, 2.0), J, complex_line(J, e(6, 0)))
        assert [mu for _, mu in spec.eigenvalues] == [2, 1]
        assert SpectrumSpec(((1.0, 2), (3.0, 1))).matches(spec, 1e-9)

    def test_non_real_eigenvalue_rejected(self):
        s = BilinearSpace(2, 2)
        J = standard_complex_structure(s)
        r = random_algebraic_curvature_tensor(s, 0)
        r = combine([(0.5, r), (0.5, pullback(r, J.J))])
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=0)[0]
        with pytest.raises(SpectrumStructureError, match="non-real .* imaginary part 6.836e-01"):
            spectrum_of_JR(r, J, line)


def real_path_spectrum(tensor, J, line, tol=jordan_ip.OPERATOR_TOL):
    """The spectrum of J R(pi) read from its m x m real fingerprint, with every
    check of spectrum_of_JR, the commutator included, at tol sigma_max(J R(pi)),
    and one of its own for an odd real multiplicity, which C^{m/2} cannot give;
    or, where a check fails, the kind of error: "odd" is never spectrum_of_JR's."""
    op = curvature_operator(tensor, line)
    inv = jordan_invariants(J.J @ op, tol)
    threshold = tol * inv.scale
    if np.abs(J.J @ op - op @ J.J).max() > threshold:
        return "commute"
    if max(abs(lam.imag) for lam, _ in inv.clusters) > threshold / 2:
        return "non-real"
    pairs = []
    for (lam, mult), ranks in zip(inv.clusters, inv.rank_sequences):
        if mult % 2 != 0:
            return "odd"
        if ranks[0] != inv.dimension - mult:
            return "defective"
        pairs.append((lam.real, mult // 2))
    return SpectrumSpec(tuple(pairs))


def spectrum_or_error(tensor, J, line):
    try:
        return spectrum_of_JR(tensor, J, line)
    except SpectrumStructureError as exc:
        return next(kind for kind in ("commute", "non-real", "defective") if kind in str(exc))


class TestSpectrumOfJRPath:
    """spectrum_of_JR rejects a line whose R(pi) does not commute with J at
    _ALMOST_COMPLEX_TOL max|R|, the bound of check_jordan_ip's J*R = R route,
    before any eigen-analysis, and reads J R(pi) on C^{m/2} for every J."""

    spy_on_eigvals = staticmethod(TestComplexPathFingerprint.spy_on_eigvals)

    # A perturbation far below OPERATOR_TOL leaves the spectrum of J R(pi)
    # clean, but moves J*R - R and every line's commutator past 1e-10 max|R|:
    # both commutation decisions see a tensor that is not almost complex.
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-8, 1e-7])
    @pytest.mark.parametrize("sig", [(0, 8), (4, 4)], ids=str)
    def test_one_bound_decides_commutation(self, sig, eps, monkeypatch):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        pair = build_complex_pair_tensor(J, 1.0, 0.5)
        r = combine([(1.0, pair), (eps, random_algebraic_curvature_tensor(space, 3))])
        bound = jordan_ip._ALMOST_COMPLEX_TOL * r.scale
        invariant = check_J_invariance(r, J, jordan_ip._ALMOST_COMPLEX_TOL).passed
        assert invariant is (eps == 1e-12)
        lines = [line for lines in lines_by_type(J, 5, 0) for line in lines]
        ops = [curvature_operator(r, line) for line in lines]
        commuting = [bool(np.abs(J.J @ op - op @ J.J).max() <= bound) for op in ops]
        assert commuting == [invariant] * len(lines)
        inputs = self.spy_on_eigvals(monkeypatch)
        tested = []
        matches_form = jordan_ip._matches_form

        def spy(c, anchor, tol):
            tested.extend([(c.shape[-2:], c.dtype.kind)] * len(c))
            return matches_form(c, anchor, tol)

        monkeypatch.setattr(jordan_ip, "_matches_form", spy)
        # The fingerprints cluster at OPERATOR_TOL, far above the perturbation.
        assert check_jordan_ip(r, J, n=5, seed=0).constant
        path = ((space.m // 2,) * 2, "c") if invariant else ((space.m,) * 2, "f")
        # The first line of each causal type is fingerprinted, the others rank-tested.
        anchors = 2 if space.p else 1
        assert inputs == [path] * anchors
        assert tested == [path] * (len(lines) - anchors)
        for line, c in zip(lines, commuting):
            if c:
                assert spectrum_of_JR(pair, J, line).matches(spectrum_of_JR(r, J, line), 1e-8)
            else:
                with pytest.raises(SpectrumStructureError, match="does not commute with J"):
                    spectrum_of_JR(r, J, line)

    def spectrum_inputs(self, J, r, monkeypatch):
        """The (shape, dtype kind) of every eigvals input of spectrum_of_JR on
        three lines of each causal type."""
        lines = [line for lines in lines_by_type(J, 3, 0) for line in lines]
        inputs = self.spy_on_eigvals(monkeypatch)
        for line in lines:
            spectrum_of_JR(r, J, line)
        assert len(inputs) == len(lines)
        return set(inputs)

    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (2, 6), (8, 8)], ids=str)
    def test_orthogonal_structure_reads_the_complex_block(self, sig, monkeypatch):
        J = standard_complex_structure(BilinearSpace(*sig))
        r, n = build_complex_pair_tensor(J, 1.0, 0.5), J.space.m // 2
        assert self.spectrum_inputs(J, r, monkeypatch) == {((n, n), "c")}

    def test_quaternion_structure_reads_the_complex_block(self, monkeypatch):
        quat = standard_quaternion_structure(BilinearSpace(4, 4))
        r = build_quaternionic_tensor(quat, 1, 2, 8, 0)
        assert self.spectrum_inputs(quat.as_complex, r, monkeypatch) == {((4, 4), "c")}

    # A boost of rapidity 0.5 keeps the lines of J non-degenerate, so they can be sampled.
    def test_boosted_structure_reads_the_complex_block(self, monkeypatch):
        J = boosted_structure(BilinearSpace(2, 2), 0.5)
        r = build_complex_pair_tensor(J, 1.0, 0.5)
        assert self.spectrum_inputs(J, r, monkeypatch) == {((2, 2), "c")}

    # A boost g is an isometry: the tensor g^-1* R, the structure g J g^-1 and
    # the line g pi give the spectrum of R, J and pi.
    @pytest.mark.parametrize("rapidity", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tensor", ["pair", "quaternionic"])
    def test_boost_keeps_the_spectrum(self, tensor, rapidity):
        space = BilinearSpace(4, 4)
        quat = standard_quaternion_structure(space)
        J, g = quat.as_complex, boost(space, rapidity)
        moved = boosted_structure(space, rapidity)
        r = {"pair": lambda: build_complex_pair_tensor(J, 1.0, 2.0),
             "quaternionic": lambda: build_quaternionic_tensor(quat, 1, 2, 8, 0)}[tensor]()
        moved_r = pullback(r, np.linalg.inv(g))
        for lines in lines_by_type(J, 3, 0):
            for line in lines:
                want = spectrum_of_JR(r, J, line)
                got = spectrum_of_JR(moved_r, moved, complex_line(moved, g @ line.x))
                assert want.matches(got, 1e-9)

    # The reading of the real m x m fingerprint, with the commutator bounded
    # by tol sigma_max(J R(pi)), is the reference: on every line the complex
    # block gives the same multiplicities and eigenvalues, or the same error.
    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (2, 6), (8, 8), (2, 2)], ids=str)
    def test_matches_the_real_path_spectrum(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        tensors = [build_complex_pair_tensor(J, 1.5, 0.75),
                   from_self_adjoint(space, np.eye(space.m)), random_J_invariant_tensor(J, 3)]
        if space.p % 4 == 0 and space.m % 4 == 0:
            tensors.append(build_quaternionic_tensor(standard_quaternion_structure(space), 1, 2, 8, 0))
        lines = [line for lines in lines_by_type(J, 20, 0) for line in lines]
        for r in tensors:
            for line in lines:
                want, got = real_path_spectrum(r, J, line), spectrum_or_error(r, J, line)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert want.matches(got, 1e-9)


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


class TestLibraryTolFloor:
    """check_jordan_ip, check_jordan_ip_real and spectrum_of_JR read a tol below
    OPERATOR_TOL as OPERATOR_TOL, so their reports equal the default's."""

    @staticmethod
    def nilpotent_pair(space):
        """R_phi1 + R_phi2 for phi1 = nilpotent_null_pair and phi2 its partner: on every
        line R(pi)^2 = 0 and R(pi) has rank 4, the rank sequence (4, 0) at 0."""
        return combine([(1.0, from_self_adjoint(space, nilpotent_null_pair(space))),
                        (1.0, from_skew_adjoint(space, nilpotent_null_pair_partner(space)))])

    @pytest.mark.parametrize("tol", [1e-10, 1e-8, 3e-7])
    def test_a_smaller_tol_gives_the_default_reports(self, tol):
        space = BilinearSpace(4, 4)
        J = standard_complex_structure(space)
        r = self.nilpotent_pair(space)
        for check in (partial(check_jordan_ip, r, J), partial(check_jordan_ip_real, r)):
            assert repr(check(n=30, seed=0, tol=tol)) == repr(check(n=30, seed=0))
        pair = build_complex_pair_tensor(J, 1.5, 0.75)
        for line in (line for lines in lines_by_type(J, 3, 0) for line in lines):
            assert repr(spectrum_of_JR(pair, J, line, tol)) == repr(spectrum_of_JR(pair, J, line))

    # A nilpotent block of size 2 scatters its eigenvalues by about sqrt(eps) sigma_max,
    # far beyond tol sigma_max at tol 1e-10, where the anchor's cluster at 0 would split.
    @pytest.mark.parametrize("sig", [(4, 4), (8, 8), (12, 12)], ids=str)
    def test_nilpotent_pair_is_constant_at_a_tiny_tol(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        r = self.nilpotent_pair(space)
        for seed in range(20):
            report = check_jordan_ip(r, J, n=100, seed=seed, tol=1e-10)
            assert report.constant and report.rank == 4

    # The figures of jordan_invariants' docstring: at its default DEFAULT_TOL the pair's
    # cluster at 0 splits on 7 and 18 of these 100 (4, 4) lines; at the checks' floor on none.
    @pytest.mark.parametrize("sig", [(4, 4), (8, 8)], ids=str)
    @pytest.mark.parametrize("path", ["real", "complex"])
    def test_nilpotent_pair_fingerprint_at_the_floor(self, sig, path):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        basis = J._plus_i_basis if path == "complex" else None
        r = self.nilpotent_pair(space)
        lines = [line for t in jordan_ip._LINE_TYPES for line in sample_complex_lines(J, t, 50, seed=0)]
        ops = [curvature_operator(r, line) for line in lines]
        for op in ops:
            inv = jordan_invariants(op, jordan_ip.OPERATOR_TOL, basis)
            ((lam, mult),) = inv.clusters
            assert mult == space.m and abs(lam) <= jordan_ip.OPERATOR_TOL * inv.scale
            assert inv.rank_sequences[0][:2] == (4, 0)
        if sig == (4, 4):
            splits = sum(len(jordan_invariants(op, basis=basis).clusters) > 1 for op in ops)
            assert splits == {"real": 7, "complex": 18}[path]


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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8, 0.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        one, five = SpectrumSpec(((1.0, 1),)), SpectrumSpec(((5.0, 1),))
        for other in (five, one):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                one.matches(other, tol)


def reference_fingerprints(tensor, planes, tol, J=None):
    """The fingerprint of every R(pi) on the planes, as the Jordan checks took them
    before the rank test: per block of curvature_operators, jordan_invariants of each
    R(pi), with J's +i basis when it commutes with J."""
    basis = None if J is None else J._plus_i_basis
    for ops in curvature_operators(tensor, planes):
        commuting = np.zeros(len(ops), dtype=bool) if J is None else (
            np.abs(J.J @ ops - ops @ J.J).max(axis=(1, 2))
            <= jordan_ip._ALMOST_COMPLEX_TOL * tensor.scale)
        yield from (jordan_invariants(op, tol, basis if on_basis else None)
                    for op, on_basis in zip(ops, commuting))


def reference_first_offender(anchor, rest, tol):
    """Index, counting the anchor as 0, of the first of rest not equivalent to it."""
    return next((i for i, inv in enumerate(rest, 1) if not jordan_equivalent(anchor, inv, tol)), None)


def witness_index(planes, witness):
    """The index in planes of the second plane of a witness, by its vectors."""
    return next(i for i, p in enumerate(planes) if np.array_equal(p.x, witness[1].x)
                and np.array_equal(p.y, witness[1].y))


class TestRankTestMatchesTheFingerprints:
    """The Jordan checks fingerprint only the first line of each causal type and
    rank-test every other R(pi) against it.  Their verdicts, offenders, ranks and
    anchor fingerprints equal those of fingerprinting every line and comparing
    each with the first by jordan_equivalent."""

    TOL = jordan_ip.OPERATOR_TOL

    def assert_complex_matches(self, tensor, J, n, seed):
        samples = lines_by_type(J, n, seed)
        planes = [line for lines in samples for line in lines]
        # Each causal type's lines are assembled in blocks of their own, as the check assembles them.
        invariants = [inv for lines in samples for inv in reference_fingerprints(tensor, lines, self.TOL, J)]
        by_type = {}
        for plane, inv in zip(planes, invariants):
            by_type.setdefault(plane.plane_class, inv)
        offender = reference_first_offender(invariants[0], invariants[1:], self.TOL)
        report = check_jordan_ip(tensor, J, n=n, seed=seed)
        assert report.constant == (offender is None)
        assert report.rank == (invariants[0].total_rank if offender is None else None)
        assert repr(report.invariants_by_type) == repr(by_type)
        if offender is not None:
            assert witness_index(planes, report.witness) == offender
        return report

    def assert_real_matches(self, tensor, n, seed):
        report = check_jordan_ip_real(tensor, n=n, seed=seed)
        for offset, causal_type in enumerate(report.invariants_by_type):
            planes = sample_real_planes(tensor.space, causal_type, n, seed + offset)
            anchor, *rest = reference_fingerprints(tensor, planes, self.TOL)
            offender = reference_first_offender(anchor, rest, self.TOL)
            assert repr(report.invariants_by_type[causal_type]) == repr(anchor)
            assert report.constant_by_type[causal_type] == (offender is None)
            assert report.rank_by_type[causal_type] == anchor.total_rank
            if offender is not None:
                assert witness_index(planes, report.witnesses[causal_type]) == offender
        return report

    # The jordan_sweep and cli_reports shapes: R_Id on real planes, and
    # c0 R_Id + c1 R_J, a R_Id + b R_C and the quaternionic (1, 2, 8, 0) tensor
    # on complex lines, with coefficients drawn in [0.5, 2] as the sweep draws them.
    @pytest.mark.parametrize("sig", [(0, 8), (4, 4), (2, 6), (0, 16), (8, 8)], ids=str)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep_configs(self, sig, seed):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        c0, c1, a, b = np.random.default_rng([seed, *sig]).uniform(0.5, 2.0, 4)
        identity = from_self_adjoint(space, np.eye(space.m))
        self.assert_real_matches(identity, 100, seed)
        assert self.assert_complex_matches(build_complex_pair_tensor(J, c0, c1), J, 100, seed).constant
        r = combine([(a, identity), (b, from_self_adjoint(space, conjugation_map(space.m)))])
        assert not self.assert_complex_matches(r, J, 100, seed).constant
        if sig[0] % 4 == 0 and sig[0] * sig[1] == 0:
            quat = standard_quaternion_structure(space)
            report = self.assert_complex_matches(
                build_quaternionic_tensor(quat, 1, 2, 8, 0), quat.as_complex, 100, seed)
            assert report.constant

    # Operators that move from line to line, and operators that do not commute
    # with J, which take the real path against an anchor read on C^{m/2}.
    @pytest.mark.parametrize("sig", [(0, 6), (4, 4), (2, 6)], ids=str)
    def test_moving_and_non_commuting_operators(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        for seed in range(3):
            self.assert_real_matches(random_algebraic_curvature_tensor(space, seed), 70, seed)
            self.assert_complex_matches(random_algebraic_curvature_tensor(space, seed), J, 70, seed)
            self.assert_complex_matches(random_J_invariant_tensor(J, seed), J, 70, seed)
            pair = build_complex_pair_tensor(J, 1.0, 0.5)
            r = combine([(1.0, pair), (1e-9, random_algebraic_curvature_tensor(space, seed))])
            self.assert_complex_matches(r, J, 70, seed)

    # Item 15's integer lines x = a e0 + a e4 + e6 of (4,4), kappa 3 to 9.8e3,
    # as the spacelike sample: on C^{m/2}, and on the real path as real planes,
    # where kappa >= 5e3 drops a rank of the fingerprint and of the rank test alike.
    def test_integer_lines(self, monkeypatch):
        space = BilinearSpace(4, 4)
        J = standard_complex_structure(space)
        r = build_complex_pair_tensor(J, 1, 2)
        lines = []
        for a in (1, 10, 30, 50, 70, 2, 20, 40, 60):
            x = np.zeros(8)
            x[0] = x[4] = a
            x[6] = 1
            lines.append(complex_line(J, x))
        sample = jordan_ip.sample_complex_lines
        monkeypatch.setattr(jordan_ip, "sample_complex_lines", lambda J, t, n, seed: (
            list(lines) if t is PlaneClass.SPACELIKE else sample(J, t, n, seed)))
        assert self.assert_complex_matches(r, J, 20, 0).constant
        monkeypatch.setattr(jordan_ip, "sample_real_planes", lambda space, t, n, seed: list(lines))
        report = check_jordan_ip_real(r, n=len(lines), seed=0)
        invariants = list(reference_fingerprints(r, lines, self.TOL))
        offender = reference_first_offender(invariants[0], invariants[1:], self.TOL)
        assert offender == 3  # a = 50, item 1's rank drop
        for causal_type in report.invariants_by_type:
            assert repr(report.invariants_by_type[causal_type]) == repr(invariants[0])
            assert witness_index(lines, report.witnesses[causal_type]) == offender

    # Item 3's phi = [[D, -D], [D, -D]], D = diag(1, 1, 0, ...): R(pi) is 0 on
    # span{e2, J e2}, which sampling does not find, so both paths read
    # "constant, rank 2" (item 3's defect, not this check's).
    @pytest.mark.parametrize("sig", [(4, 4), (8, 8)], ids=str)
    def test_rank_drop_config(self, sig):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        d = np.diag([1.0, 1.0] + [0.0] * (space.m // 2 - 2))
        r = from_self_adjoint(space, np.block([[d, -d], [d, -d]]))
        for seed in range(3):
            report = self.assert_complex_matches(r, J, 100, seed)
            assert report.constant and report.rank == 2


class TestRankTestSensitivity:
    """The rank test sees a moved eigenvalue and a merged Jordan block.

    The anchor is R(pi) of R_Id + 2 R_J on the (4,4) line of e4 (spacelike)
    or e0 (timelike): R(pi) is normal, with +-7i once and +-4i three times, and
    A_c holds 7i, 4i on one type and their conjugates on the other.  The other
    operator is T R' T^-1 for a T that commutes with J, of condition number 2
    or 4, where R' moves or merges eigenvalues of A_c through its eigenvectors."""

    TOL = jordan_ip.OPERATOR_TOL
    SPACE = BilinearSpace(4, 4)

    def anchor(self, i):
        J = standard_complex_structure(self.SPACE)
        return J, curvature_operator(build_complex_pair_tensor(J, 1, 2), complex_line(J, e(8, i)))

    @staticmethod
    def realify(q, a_c):
        """The real operator whose block on C^{m/2} in the orthonormal basis q is a_c."""
        half = q @ a_c @ q.conj().T
        return 2 * half.real

    def verdicts(self, i, change, cond=2.0):
        """_matches_form of T R' T^-1 against R(pi), on C^{m/2} and as a real matrix."""
        J, op = self.anchor(i)
        q = J._plus_i_basis
        a_c = q.conj().T @ op @ q
        values, vectors = np.linalg.eig(a_c)
        rng = np.random.default_rng(i)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        w, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        t = self.realify(q, u @ np.diag(np.linspace(1.0, cond, 4)) @ w.conj().T)
        assert np.linalg.cond(t) == pytest.approx(cond)
        moved = self.realify(q, a_c + change(values, vectors, np.linalg.svd(op, compute_uv=False)[0]))
        x = t @ moved @ np.linalg.inv(t)
        fast = pseudo_linalg._matches_form(
            (q.conj().T @ x @ q)[None], jordan_invariants(op, self.TOL, q), self.TOL)
        real = pseudo_linalg._matches_form(x[None], jordan_invariants(op, self.TOL), self.TOL)
        return bool(fast[0]), bool(real[0])

    @staticmethod
    def move(factor, target):
        """Move the eigenvalue of A_c at target by factor * tol * scale."""
        def change(values, vectors, scale):
            k = np.argmin(np.abs(values - target))
            v = vectors[:, k] / np.linalg.norm(vectors[:, k])
            return factor * TestRankTestSensitivity.TOL * scale * np.outer(v, v.conj())
        return change

    @pytest.mark.parametrize("i", [4, 0], ids=["spacelike", "timelike"])
    def test_an_unchanged_form_passes(self, i):
        assert self.verdicts(i, lambda values, vectors, scale: 0.0) == (True, True)

    @pytest.mark.parametrize("i", [4, 0], ids=["spacelike", "timelike"])
    @pytest.mark.parametrize("target", [7, 4])
    @pytest.mark.parametrize("cond", [2.0, 4.0])
    def test_a_moved_eigenvalue_is_seen(self, i, target, cond):
        sign = 1 if i == 4 else -1
        assert self.verdicts(i, self.move(10, sign * target * 1j), cond) == (False, False)
        assert self.verdicts(i, self.move(0.1, sign * target * 1j), cond) == (True, True)

    @pytest.mark.parametrize("i", [4, 0], ids=["spacelike", "timelike"])
    @pytest.mark.parametrize("cond", [2.0, 4.0])
    def test_a_merged_block_is_seen(self, i, cond):
        def merge(values, vectors, scale):
            # Two orthonormal eigenvectors of the triple eigenvalue 4i (or -4i):
            # A_c + scale v1 v2^H maps v2 to 4i v2 + scale v1, a Jordan block of size 2.
            k = np.flatnonzero(np.abs(np.abs(values) - 4) < 1e-9)
            v, _ = np.linalg.qr(vectors[:, k])
            return scale * np.outer(v[:, 0], v[:, 1].conj())
        assert self.verdicts(i, merge, cond) == (False, False)


class TestLapackCalls:
    """Only anchors are fingerprinted: eigvals once per anchor, the SVD twice
    per anchor (scales and k = 1 blocks), and the rank test one SVD per power
    level per block of _BLOCK operators that it tests.  The forms here are
    semisimple, so every sequence stops at k = 1: one level per block.  On a
    definite signature the blocks are skew-Hermitian, and one eigvalsh call per
    block takes the place of the rank test's SVD."""

    @staticmethod
    def spy(monkeypatch):
        """The shape of the input of every eigvals, eigvalsh and svd call from now on."""
        calls = {"eigvals": [], "eigvalsh": [], "svd": []}
        for name, seen in calls.items():
            def spy(a, *args, _original=getattr(np.linalg, name), _seen=seen, **kwargs):
                _seen.append(np.shape(a))
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    # Each causal type is assembled and rank-tested in its own pass, on exactly the
    # lines that the sampler draws for it: blocks of 64 and 36 lines per type, one
    # apply_pairs product and one _rank_sequences call per block, and one more
    # _rank_sequences call for the anchor.
    def test_complex_check(self, monkeypatch):
        seen, products, rank_tests = [], [], []
        for module, name, log, record in (
                (jordan_ip, "curvature_operators", seen, lambda tensor, planes: list(planes)),
                (jordan_ip, "apply_pairs", products, lambda tensor, xs, ys: len(xs)),
                (pseudo_linalg, "_rank_sequences", rank_tests, lambda c, mus, *_: len(c) * len(mus))):
            def spy(*args, _original=getattr(module, name), _log=log, _record=record):
                _log.append(_record(*args))
                return _original(*args)
            monkeypatch.setattr(module, name, spy)
        calls = self.spy(monkeypatch)
        for sig in [(4, 4), (2, 6), (8, 8)]:
            J = standard_complex_structure(BilinearSpace(*sig))
            r, n = build_complex_pair_tensor(J, 1.3, 0.7), J.space.m // 2
            want = [sample_complex_lines(J, t, 100, 1 + i)
                    for i, t in enumerate((PlaneClass.SPACELIKE, PlaneClass.TIMELIKE))]
            for log in (seen, products, rank_tests, *calls.values()):
                log.clear()
            report = check_jordan_ip(r, J, n=100, seed=1)
            anchors, blocks = len(report.invariants_by_type), 2 * -(-100 // jordan_ip._BLOCK)
            assert report.constant and anchors == 2 and blocks == 4
            assert [[(p.x.tobytes(), p.y.tobytes(), p.det, p.plane_class) for p in lines]
                    for lines in seen] == [[(p.x.tobytes(), p.y.tobytes(), p.det, p.plane_class)
                                            for p in lines] for lines in want]
            assert products == [64, 36] * 2
            # Two conjugate pairs of clusters on every line, each with one block of C^{m/2}
            # with members: A_c holds one eigenvalue of each pair.
            assert rank_tests == [2, 63 * 2, 36 * 2] * 2
            assert calls["eigvals"] == [(n, n)] * anchors and calls["eigvalsh"] == []
            assert len(calls["svd"]) == 2 * anchors + blocks
            # The blocks of every line, and the scales of the anchors, each an SVD of one matrix.
            assert {shape[-2:] for shape in calls["svd"]} == {(n, n)}
            assert sum(np.prod(shape[:-2], dtype=int) for shape in calls["svd"]) == anchors + 2 * 200

    def test_real_check(self, monkeypatch):
        r = from_self_adjoint(BilinearSpace(4, 4), np.eye(8))
        calls = self.spy(monkeypatch)
        report = check_jordan_ip_real(r, n=100, seed=1)
        anchors, blocks = len(report.invariants_by_type), 3 * -(-100 // jordan_ip._BLOCK)
        assert report.constant and anchors == 3 and blocks == 6
        assert calls["eigvals"] == [(8, 8)] * anchors and calls["eigvalsh"] == []
        assert len(calls["svd"]) == 2 * anchors + blocks
        # Three clusters, -s, 0 and s on a mixed plane, s i, 0 and -s i on the
        # others, where the cluster at -s i takes the ranks of s i: 2 or 3 blocks
        # on every plane, and the scales of the anchors.
        assert sum(np.prod(shape[:-2], dtype=int) for shape in calls["svd"]) == anchors + (2 + 2 + 3) * 100

    # The one causal type of a definite signature: the anchor's two SVDs, then one
    # eigvalsh call per block of the rank test, the 63 lines of the anchor's block and
    # the 36 of the next, with no SVD: (0, 8) on C^4, and (0, 16) as real matrices.
    @pytest.mark.parametrize("check, sig", [("complex", (0, 8)), ("real", (0, 16))], ids=str)
    def test_definite_checks(self, check, sig, monkeypatch):
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        calls = self.spy(monkeypatch)
        if check == "complex":
            report, n = check_jordan_ip(build_complex_pair_tensor(J, 1.3, 0.7), J, n=100, seed=1), space.m // 2
        else:
            report, n = check_jordan_ip_real(from_self_adjoint(space, np.eye(space.m)), n=100, seed=1), space.m
        assert report.constant and len(report.invariants_by_type) == 1
        assert calls["eigvals"] == [(n, n)]
        # Two conjugate pairs of clusters with members (spacelike complex lines), or the
        # clusters 0 and +-s i, where -s i takes the ranks of s i (spacelike real planes).
        assert calls["svd"] == [(n, n), (2, n, n)]
        assert calls["eigvalsh"] == [(63, n, n), (36, n, n)]
