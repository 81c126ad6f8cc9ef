import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (
    DEFAULT_TOL,
    AdmissibleClass,
    BilinearSpace,
    ComplexStructure,
    QuaternionStructure,
    SquareType,
    adjoint,
    check_admissible,
    check_admissible_pair,
    classify_square,
    inner,
    nilpotent_null_pair,
    nilpotent_null_pair_partner,
    numeric_rank,
    standard_complex_structure,
    standard_quaternion_structure,
)
from curvlab import complex_structures
from test_curvature import conjugated_structure
from test_jordan_ip import boosted_structure


def rot2():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


class TestStandardComplexStructure:
    def test_minimal_space(self):
        J = standard_complex_structure(BilinearSpace(0, 2))
        assert np.array_equal(J.J, rot2())

    def test_two_blocks_square_to_minus_identity(self):
        J = standard_complex_structure(BilinearSpace(0, 4))
        assert np.array_equal(J.J @ J.J, -np.eye(4))

    def test_split_signature_isometry_on_all_basis_pairs(self):
        s = BilinearSpace(2, 2)
        J = standard_complex_structure(s)
        eye = np.eye(4)
        for a in range(4):
            for b in range(4):
                assert inner(s, J.J @ eye[a], J.J @ eye[b]) == pytest.approx(
                    inner(s, eye[a], eye[b]), abs=1e-12
                )

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            standard_complex_structure(BilinearSpace(0, 3))

    def test_rejects_odd_timelike_count(self):
        with pytest.raises(ValueError):
            standard_complex_structure(BilinearSpace(1, 3))

    def test_constructor_validates_square(self):
        s = BilinearSpace(0, 2)
        with pytest.raises(ValueError):
            ComplexStructure(s, np.eye(2))

    # J^2 = -Id is classify_square's verdict: past max|J| = 1/sqrt(tol) a zero
    # square also passes the -Id bound, but it is nearer to 0.
    @pytest.mark.parametrize("c", [1.0, 1e5])
    def test_constructor_rejects_a_zero_square_at_every_scale(self, c):
        s = BilinearSpace(2, 2)
        with pytest.raises(ValueError, match=r"^J\^2 != -Id, max residual 1.000e\+00$"):
            ComplexStructure(s, c * nilpotent_null_pair(s))

    # Conjugating J by a boost of rapidity 10 gives entries of 1.1e4 and
    # J^2 = -Id up to 2e-8; the square also passes the zero bound, but it is
    # nearer to -Id.
    def test_constructor_accepts_a_boosted_structure(self):
        s = BilinearSpace(2, 2)
        boost = np.eye(4)
        boost[0, 0] = boost[2, 2] = np.cosh(10.0)
        boost[0, 2] = boost[2, 0] = np.sinh(10.0)
        J = boost @ standard_complex_structure(s).J @ np.linalg.inv(boost)
        assert np.max(np.abs(J)) > 1e4
        assert classify_square(J, s) is SquareType.MINUS_ID
        ComplexStructure(s, J)

    def test_constructor_validates_isometry(self):
        # Squares to -Id, but stretches e1 and shrinks e2.
        s = BilinearSpace(0, 2)
        with pytest.raises(ValueError, match="J is not an isometry"):
            ComplexStructure(s, np.array([[0.0, -2.0], [0.5, 0.0]]))

    def test_constructor_rejects_odd_signature_counts(self):
        s = BilinearSpace(1, 1)
        with pytest.raises(ValueError):
            ComplexStructure(s, rot2())

    @pytest.mark.parametrize("sig", [(0, 4), (0, 6), (2, 2), (2, 4)])
    def test_x_orthogonal_to_Jx(self, sig):
        s = BilinearSpace(*sig)
        J = standard_complex_structure(s)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(s.m)
            assert abs(inner(s, x, J.J @ x)) <= 1e-12 * float(x @ x)


class TestPlusIBasis:
    """ComplexStructure caches an orthonormal basis Q of J's +i eigenspace for
    every J, orthogonal or not; the Jordan fingerprint reads J-commuting maps
    through it."""

    @staticmethod
    def units(sig):
        """The structures of sig: the standard J, the quaternion units where
        they exist, a conjugated J, and on p, q >= 1 boosts of rapidity 0.5 to 3."""
        s = BilinearSpace(*sig)
        units = [standard_complex_structure(s)]
        if s.p % 4 == 0 and s.m % 4 == 0:
            q = standard_quaternion_structure(s)
            units += [ComplexStructure(s, u) for u in (q.i, q.j, q.k)]
        # conjugated_structure rotates J's blocks, and boosts a mixed plane when p > 0.
        units.append(conjugated_structure(s))
        if s.p and s.q:
            units += [boosted_structure(s, rapidity) for rapidity in (0.5, 1.0, 2.0, 3.0)]
        return units

    @pytest.mark.parametrize("sig", [(0, 2), (0, 8), (4, 4), (2, 6), (8, 8), (0, 6)], ids=str)
    def test_orthonormal_basis_of_the_plus_i_eigenspace(self, sig):
        for J in self.units(sig):
            q, m = J._plus_i_basis, J.space.m
            bound = 1e-15 * max(1.0, np.abs(J.J).max() ** 2)
            assert q.shape == (m, m // 2)
            assert np.abs(q.conj().T @ q - np.eye(m // 2)).max() <= bound
            assert np.abs(J.J @ q - 1j * q).max() <= bound
            assert J._plus_i_basis is q  # made once

    def test_standard_basis_pairs_coordinates(self):
        J = standard_complex_structure(BilinearSpace(2, 4))
        want = np.zeros((6, 3), dtype=complex)
        for k in range(3):
            want[2 * k, k], want[2 * k + 1, k] = 1.0, -1j
        assert np.array_equal(J._plus_i_basis, want / np.sqrt(2.0))

    # J is not orthogonal, so its +i and -i eigenspaces are not orthogonal
    # either: [Q, conj(Q)] is a basis, but not a unitary one.
    def test_boosted_structure_has_a_basis(self):
        J = boosted_structure(BilinearSpace(2, 2), 1.0)
        q = J._plus_i_basis
        assert np.abs(J.J.T @ J.J - np.eye(4)).max() > 1.0
        assert np.abs(q.conj().T @ q - np.eye(2)).max() <= 1e-15 * np.abs(J.J).max() ** 2
        assert np.abs(q.T @ q).max() > 0.1
        assert np.linalg.matrix_rank(np.column_stack([q, q.conj()])) == 4


class TestStandardQuaternionStructure:
    def test_left_multiplication_relations(self):
        q = standard_quaternion_structure(BilinearSpace(0, 4))
        assert np.array_equal(q.i @ q.j, q.k)
        assert np.array_equal(q.j @ q.k, q.i)
        assert np.array_equal(q.k @ q.i, q.j)
        assert np.array_equal(q.j @ q.i, -q.k)
        for u in (q.i, q.j, q.k):
            assert np.array_equal(u @ u, -np.eye(4))

    def test_k_is_skew_symmetric_in_definite_signature(self):
        q = standard_quaternion_structure(BilinearSpace(0, 4))
        assert np.array_equal(q.k + q.k.T, np.zeros((4, 4)))

    def test_blockwise_extension_units_are_isometries(self):
        s = BilinearSpace(0, 8)
        q = standard_quaternion_structure(s)
        for u in (q.i, q.j, q.k):
            assert np.allclose(u.T @ s.gram @ u, s.gram)

    def test_rejects_dimension_not_divisible_by_four(self):
        with pytest.raises(ValueError):
            standard_quaternion_structure(BilinearSpace(0, 6))

    def test_rejects_partial_timelike_block(self):
        with pytest.raises(ValueError):
            standard_quaternion_structure(BilinearSpace(2, 6))

    def test_constructor_validates_relations(self):
        q = standard_quaternion_structure(BilinearSpace(0, 4))
        with pytest.raises(ValueError, match="quaternion relation ij = k fails"):
            QuaternionStructure(q.space, q.i, q.j, q.i)

    # Each unit is validated as a ComplexStructure before ij = k is checked.
    @pytest.mark.parametrize("k, message", [
        (lambda q: np.eye(4), r"quaternion unit k: J\^2 != -Id"),
        (lambda q: np.diag([2.0, 1, 1, 1]) @ q.k @ np.diag([0.5, 1, 1, 1]),
         "quaternion unit k: J is not an isometry"),
    ], ids=["square_not_minus_id", "not_isometric"])
    def test_constructor_validates_each_unit(self, k, message):
        q = standard_quaternion_structure(BilinearSpace(0, 4))
        with pytest.raises(ValueError, match=message):
            QuaternionStructure(q.space, q.i, q.j, k(q))

    def test_split_signature_blocks(self):
        s = BilinearSpace(4, 4)
        q = standard_quaternion_structure(s)
        for u in (q.i, q.j, q.k):
            assert np.allclose(u @ u, -np.eye(8))
            assert np.allclose(u + adjoint(s, u), 0.0)

    def test_as_complex_matches_standard_J(self):
        s = BilinearSpace(0, 8)
        q = standard_quaternion_structure(s)
        assert np.array_equal(q.as_complex.J, standard_complex_structure(s).J)

    # Every caller reads one structure, so its +i basis is computed once.
    def test_as_complex_is_made_once(self):
        q = standard_quaternion_structure(BilinearSpace(4, 4))
        assert q.as_complex is q.as_complex
        assert q.as_complex._plus_i_basis is q.as_complex._plus_i_basis

    # i is validated once, as the structure that as_complex then returns.
    def test_each_unit_is_validated_once(self, monkeypatch):
        made = []
        post_init = ComplexStructure.__post_init__

        def counting(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(ComplexStructure, "__post_init__", counting)
        q = standard_quaternion_structure(BilinearSpace(0, 8))
        as_complex = q.as_complex
        assert len(made) == 3
        assert as_complex is made[0] and np.array_equal(as_complex.J, q.i)

    @pytest.mark.parametrize("sig", [(0, 4), (0, 8)])
    def test_unit_spacelike_orbit_is_orthonormal(self, sig):
        s = BilinearSpace(*sig)
        q = standard_quaternion_structure(s)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.standard_normal(s.m)
            x /= np.sqrt(inner(s, x, x))
            frame = [x, q.i @ x, q.j @ x, q.k @ x]
            for a in range(4):
                for b in range(4):
                    expected = 1.0 if a == b else 0.0
                    assert inner(s, frame[a], frame[b]) == pytest.approx(expected, abs=1e-10)


class TestNilpotentNullPair:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_square_zero_and_half_rank(self, s):
        space = BilinearSpace(s, s)
        phi = nilpotent_null_pair(space)
        assert np.array_equal(phi @ phi, np.zeros((2 * s, 2 * s)))
        assert np.linalg.matrix_rank(phi) == s

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_self_adjoint_with_isotropic_range(self, s):
        space = BilinearSpace(s, s)
        phi = nilpotent_null_pair(space)
        assert np.array_equal(phi, adjoint(space, phi))
        for col in phi.T:
            assert inner(space, col, col) == 0.0

    def test_commutes_with_standard_J_when_s_even(self):
        space = BilinearSpace(2, 2)
        phi = nilpotent_null_pair(space)
        J = standard_complex_structure(space)
        assert np.array_equal(phi @ J.J, J.J @ phi)

    def test_rejects_unbalanced_signature(self):
        with pytest.raises(ValueError):
            nilpotent_null_pair(BilinearSpace(1, 3))

    @pytest.mark.parametrize("s", [4, 8])
    def test_partner_is_minus_j_on_the_null_pairs(self, s):
        j = standard_quaternion_structure(BilinearSpace(0, s)).j
        partner = nilpotent_null_pair_partner(BilinearSpace(s, s))
        assert np.array_equal(partner, np.block([[-j, j], [-j, j]]))

    @pytest.mark.parametrize(
        "sig, message",
        [((1, 3), r"not of the form \(s, s\)"), ((2, 2), "divisible by 4"),
         ((2, 4), r"not of the form \(s, s\)")],
    )
    def test_partner_rejects_signature(self, sig, message):
        with pytest.raises(ValueError, match=message):
            nilpotent_null_pair_partner(BilinearSpace(*sig))


class TestClassifySquare:
    def test_identity(self):
        s = BilinearSpace(0, 4)
        assert classify_square(np.eye(4), s) is SquareType.PLUS_ID

    def test_rotation(self):
        s = BilinearSpace(0, 2)
        assert classify_square(rot2(), s) is SquareType.MINUS_ID

    def test_null_pair_generator(self):
        for sig in [(2, 2), (3, 3)]:
            space = BilinearSpace(*sig)
            assert (
                classify_square(nilpotent_null_pair(space), space)
                is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE
            )

    def test_nilpotent_verdict_takes_one_rank(self, monkeypatch):
        # phi^2 = 0 puts the range inside the kernel, so rank m/2 alone decides.
        calls = []

        def spy(a, tol):
            calls.append(a.shape)
            return numeric_rank(a, tol)

        monkeypatch.setattr(complex_structures, "numeric_rank", spy)
        space = BilinearSpace(4, 4)
        verdict = classify_square(nilpotent_null_pair(space), space)
        assert verdict is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE
        assert calls == [(8, 8)]

    def test_nilpotent_with_wrong_rank(self):
        s = BilinearSpace(0, 4)
        phi = np.zeros((4, 4))
        phi[0, 1] = 1.0
        assert classify_square(phi, s) is SquareType.NONE

    def test_generic_matrix(self):
        s = BilinearSpace(0, 4)
        phi = np.random.default_rng(0).standard_normal((4, 4))
        assert classify_square(phi, s) is SquareType.NONE

    # At 1e6 the +-Id bound tol * max|phi|^2 exceeds 1 and takes a zero square
    # too, but the square is nearer to 0.
    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_scaled_null_pair_is_nilpotent(self, c):
        s = BilinearSpace(4, 4)
        verdict = classify_square(c * nilpotent_null_pair(s), s)
        assert verdict is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE

    # phi^2 = 0 is tested at tol * max|phi|^2: a square of 1e-12 is not zero
    # for a phi of order 1e-6.
    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_partial_projection_is_none_at_every_scale(self, c):
        s = BilinearSpace(0, 4)
        assert classify_square(c * np.diag([1.0, 1.0, 0.0, 0.0]), s) is SquareType.NONE


class TestCheckAdmissible:
    def test_identity_is_self_adjoint_commuting_plus_id(self):
        J = standard_complex_structure(BilinearSpace(0, 4))
        rep = check_admissible(np.eye(4), J)
        assert rep.admissible_class is AdmissibleClass.SELF_ADJOINT_COMMUTING
        assert rep.square_type is SquareType.PLUS_ID
        assert rep.admissible

    def test_quaternion_j_with_J_equal_i(self):
        s = BilinearSpace(0, 8)
        q = standard_quaternion_structure(s)
        rep = check_admissible(q.j, q.as_complex)
        assert rep.admissible_class is AdmissibleClass.SKEW_ADJOINT_ANTICOMMUTING
        assert rep.square_type is SquareType.MINUS_ID
        assert rep.admissible

    def test_rank_deficient_nilpotent_not_admissible(self):
        J = standard_complex_structure(BilinearSpace(0, 4))
        phi = np.zeros((4, 4))
        phi[0, 1] = 1.0
        rep = check_admissible(phi, J)
        assert not rep.admissible
        assert rep.square_type is SquareType.NONE

    def test_J_itself_is_skew_but_commuting(self):
        # phi = J commutes with J, so the skew-adjoint anticommuting class
        # does not apply even though phi^2 = -Id.
        J = standard_complex_structure(BilinearSpace(0, 4))
        rep = check_admissible(J.J, J)
        assert rep.admissible_class is AdmissibleClass.NOT_ADMISSIBLE
        assert not rep.admissible

    def test_null_pair_generator_admissible_on_2_2(self):
        space = BilinearSpace(2, 2)
        J = standard_complex_structure(space)
        rep = check_admissible(nilpotent_null_pair(space), J)
        assert rep.admissible_class is AdmissibleClass.SELF_ADJOINT_COMMUTING
        assert rep.square_type is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE
        assert rep.admissible

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["eye", "j", "random"]))
    @settings(max_examples=30, deadline=None)
    def test_negation_agrees(self, seed, kind):
        s = BilinearSpace(0, 8)
        q = standard_quaternion_structure(s)
        if kind == "eye":
            phi = np.eye(8)
        elif kind == "j":
            phi = q.j
        else:
            phi = np.random.default_rng(seed).standard_normal((8, 8))
        a = check_admissible(phi, q.as_complex)
        b = check_admissible(-phi, q.as_complex)
        assert a.admissible_class is b.admissible_class
        assert a.square_type is b.square_type


class TestCheckAdmissiblePair:
    def setup_method(self):
        self.space = BilinearSpace(0, 8)
        self.quat = standard_quaternion_structure(self.space)
        self.J = self.quat.as_complex

    def test_identity_with_j(self):
        rep = check_admissible_pair(np.eye(8), self.quat.j, self.J, n_lines=25, seed=0)
        assert rep.admissible
        assert all(r <= 1e-12 for r in rep.residuals.values())

    def test_identity_with_k(self):
        rep = check_admissible_pair(np.eye(8), self.quat.k, self.J, n_lines=25, seed=0)
        assert rep.admissible
        assert all(r <= 1e-12 for r in rep.residuals.values())

    def test_identity_with_identity_fails_commutation(self):
        rep = check_admissible_pair(np.eye(8), np.eye(8), self.J, n_lines=5, seed=0)
        assert not rep.admissible
        assert rep.residuals["phi2_anticommute_J"] > 0.5

    @pytest.mark.parametrize("which", ["phi1", "phi2"])
    def test_wrong_shape_is_reported_under_its_name(self, which):
        pair = {"phi1": np.eye(8), "phi2": self.quat.j, which: np.eye(6)}
        with pytest.raises(ValueError, match=rf"^{which} has shape \(6, 6\), expected \(8, 8\)$"):
            check_admissible_pair(pair["phi1"], pair["phi2"], self.J)

    def test_rejects_non_admissible_member(self):
        phi = np.random.default_rng(1).standard_normal((8, 8))
        with pytest.raises(ValueError):
            check_admissible_pair(np.eye(8), phi, self.J)

    def test_nilpotent_pair_line_rank(self):
        # phi2 sends f1, f2, e1, e2 to n1, -n2, -n1, n2 (n_i the null pairs):
        # self-adjoint, anticommutes with J, square zero with kernel = range,
        # so individually admissible; but its range coincides with that of the
        # null-pair generator, so the line-span condition caps at rank 2.
        space = BilinearSpace(2, 2)
        J = standard_complex_structure(space)
        phi1 = nilpotent_null_pair(space)
        phi2 = np.array(
            [
                [1.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, 1.0],
                [1.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, 1.0],
            ]
        )
        rep_phi2 = check_admissible(phi2, J)
        assert rep_phi2.admissible_class is AdmissibleClass.SELF_ADJOINT_ANTICOMMUTING
        assert rep_phi2.square_type is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE
        rep = check_admissible_pair(phi1, phi2, J, n_lines=10, seed=0)
        assert rep.min_line_rank == 2
        assert not rep.admissible

    # The line ranks come from one SVD call over the (n, m, 4) stack of
    # images; each is the numeric_rank of its line's images alone.
    def test_stacked_line_ranks_match_numeric_rank(self, monkeypatch):
        space = BilinearSpace(8, 8)
        J = standard_complex_structure(space)
        phi1, phi2 = nilpotent_null_pair(space), nilpotent_null_pair_partner(space)
        calls = {}

        def spy(name):
            original = getattr(complex_structures, name)

            def recording(*args):
                calls.setdefault(name, []).append(original(*args))
                return calls[name][-1]

            monkeypatch.setattr(complex_structures, name, recording)

        spy("_unit_lines")
        spy("_rank_from_singular_values")
        report = check_admissible_pair(phi1, phi2, J, n_lines=200, seed=0)
        (lines,), (ranks,) = calls["_unit_lines"], calls["_rank_from_singular_values"]
        want = [numeric_rank(np.column_stack([phi1 @ line.x, phi1 @ line.y, phi2 @ line.x,
                                              phi2 @ line.y]), DEFAULT_TOL) for line in lines]
        assert len(lines) == 200 and ranks.tolist() == want
        assert report.min_line_rank == min(want) == 4

    # Each line takes the causal type of the sign of its own draw's (g, g).
    @pytest.mark.parametrize("s", [4, 8])
    def test_nilpotent_pair_spans_four_on_every_seed(self, s):
        space = BilinearSpace(s, s)
        phi1, phi2 = nilpotent_null_pair(space), nilpotent_null_pair_partner(space)
        J = standard_complex_structure(space)
        ranks = [check_admissible_pair(phi1, phi2, J, n_lines=100, seed=seed).min_line_rank for seed in range(20)]
        assert ranks == [4] * 20

    def test_nilpotent_pair_rejects_zero_line_count(self):
        # With no line drawn, the line-span condition would pass untested.
        space = BilinearSpace(4, 4)
        J = standard_complex_structure(space)
        phi1, phi2 = nilpotent_null_pair(space), nilpotent_null_pair_partner(space)
        with pytest.raises(ValueError, match="sample count must be at least 1"):
            check_admissible_pair(phi1, phi2, J, n_lines=0)

    # At 1e6 the phi^2 = +Id bound tol * max|phi|^2 exceeds 1, so a zero
    # square passes it too; both squares are nearer to 0, so both are
    # nilpotent and the line-span condition is tested.
    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_scaled_nilpotent_pair_stays_admissible(self, c):
        space = BilinearSpace(4, 4)
        J = standard_complex_structure(space)
        phi1, phi2 = nilpotent_null_pair(space), nilpotent_null_pair_partner(space)
        report = check_admissible_pair(c * phi1, c * phi2, J, n_lines=10, seed=0)
        assert report.admissible and report.min_line_rank == 4

    def test_pair_images_pairwise_orthogonal_on_lines(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.standard_normal(8)
            x /= np.sqrt(inner(self.space, x, x))
            jx = self.J.J @ x
            vectors = [x, jx, self.quat.j @ x, self.quat.j @ jx]
            for a in range(4):
                for b in range(a + 1, 4):
                    assert abs(inner(self.space, vectors[a], vectors[b])) <= 1e-10
