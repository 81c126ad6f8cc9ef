"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import numpy as np
import pytest

from curvlab import (
    BilinearSpace,
    PlaneClass,
    SpectrumModel,
    SpectrumSpec,
    SquareType,
    adjoint,
    build_complex_pair_tensor,
    build_quaternionic_tensor,
    check_admissible,
    check_admissible_pair,
    check_gray_identity,
    check_J_invariance,
    check_jordan_ip,
    check_jordan_ip_real,
    check_symmetries,
    classify_square,
    combine,
    complex_line,
    curvature_operator,
    from_self_adjoint,
    from_skew_adjoint,
    inner,
    nilpotent_null_pair,
    numeric_rank,
    projected_generator,
    random_algebraic_curvature_tensor,
    sample_complex_lines,
    sample_real_planes,
    solve_constants,
    spectrum_of_JR,
    standard_complex_structure,
    standard_quaternion_structure,
)

GRAY_VIOLATION_GOLDEN = 12.0  # max Gray-identity violation of R_j on (0,8), J = i


def record(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def self_adjoint_part(space, a):
    return 0.5 * (a + adjoint(space, a))


def skew_adjoint_part(space, a):
    return 0.5 * (a - adjoint(space, a))


def max_commutator(tensor, J, lines):
    worst = 0.0
    for line in lines:
        op = curvature_operator(tensor, line)
        worst = max(worst, float(np.max(np.abs(J.J @ op - op @ J.J))))
    return worst


def test_criterion_1_symmetry_suite():
    signatures = [(0, 4), (0, 6), (1, 3), (2, 2), (2, 4)]
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for sig in signatures:
        space = BilinearSpace(*sig)
        for _ in range(10):
            raw = rng.standard_normal((space.m, space.m))
            for tensor in (
                from_self_adjoint(space, self_adjoint_part(space, raw)),
                from_skew_adjoint(space, skew_adjoint_part(space, raw)),
            ):
                worst = max(worst, check_symmetries(tensor).max_violation)
                count += 1
    record(
        1,
        f"{count} constructor outputs satisfy the three curvature identities at 1e-12",
        count == 100 and worst <= 1e-12,
        f"max violation {worst:.2e}",
    )


def test_criterion_2_invariance_commutation_equivalence():
    sign_pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    rng = np.random.default_rng(202)
    agree = 0
    built = 0
    for sig in [(0, 6), (2, 4)]:
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        if space.p >= 2:
            lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 25, seed=11)
            lines += sample_complex_lines(J, PlaneClass.TIMELIKE, 25, seed=12)
        else:
            lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 50, seed=11)
        for k in range(25):
            eps, rho = sign_pairs[k % 4]
            phi = projected_generator(space, J, eps, rho, rng)
            build = from_self_adjoint if eps == 1 else from_skew_adjoint
            tensor = build(space, phi)
            built += 1
            if check_J_invariance(tensor, J, tol=1e-10).passed and (
                max_commutator(tensor, J, lines) <= 1e-10
            ):
                agree += 1
    both_true = agree == built == 50

    # perturbed tensors: tensor-level violation >= 1e-3 must surface as a
    # commutation witness within 100 sampled lines
    space = BilinearSpace(0, 6)
    J = standard_complex_structure(space)
    witnesses = 0
    for k in range(20):
        base = from_self_adjoint(space, projected_generator(space, J, 1, 1, rng))
        noise = random_algebraic_curvature_tensor(space, rng)
        noise_violation = check_J_invariance(noise, J).max_violation
        perturbed = combine([(1.0, base), (2e-3 / noise_violation, noise)])
        assert check_J_invariance(perturbed, J).max_violation >= 1e-3
        lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 100, seed=300 + k)
        if any(
            float(
                np.max(
                    np.abs(
                        J.J @ curvature_operator(perturbed, line)
                        - curvature_operator(perturbed, line) @ J.J
                    )
                )
            )
            > 1e-6
            for line in lines
        ):
            witnesses += 1
    record(
        2,
        "tensor-level Hermitian invariance and per-line commutation agree "
        "(50 invariant tensors, 20 perturbed with witnesses)",
        both_true and witnesses == 20,
        f"agree {agree}/50, witnesses {witnesses}/20",
    )


def test_criterion_3_gray_identity_suite():
    rng = np.random.default_rng(303)
    positive_ok = True
    worst_positive = 0.0
    for sig in [(0, 4), (0, 6), (2, 2), (0, 8)]:
        space = BilinearSpace(*sig)
        J = standard_complex_structure(space)
        for eps in (1, -1):
            for _ in range(4):
                phi = projected_generator(space, J, eps, +1, rng)
                build = from_self_adjoint if eps == 1 else from_skew_adjoint
                report = check_gray_identity(build(space, phi), J, tol=1e-10)
                worst_positive = max(worst_positive, report.max_violation)
                positive_ok = positive_ok and report.passed

    space = BilinearSpace(0, 8)
    quat = standard_quaternion_structure(space)
    negative = check_gray_identity(from_skew_adjoint(space, quat.j), quat.as_complex)
    negative_ok = (
        not negative.passed
        and negative.max_violation >= 0.1
        and abs(negative.max_violation - GRAY_VIOLATION_GOLDEN) <= 1e-9
    )
    record(
        3,
        "Gray identity holds for J-commuting generators at 1e-10 and fails for "
        "the rank-8 anticommuting quaternion unit at the golden magnitude",
        positive_ok and negative_ok,
        f"max commuting violation {worst_positive:.2e}, "
        f"negative violation {negative.max_violation:.6g}",
    )


def test_criterion_4_golden_spectrum():
    space = BilinearSpace(0, 8)
    quat = standard_quaternion_structure(space)
    J = quat.as_complex
    tensor = build_quaternionic_tensor(quat, 1.0, 2.0, 8.0, 0.0)
    expected = SpectrumSpec(((4.0, 2), (7.0, 1), (-4.0, 1)))
    lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 100, seed=404)
    spectra_ok = all(expected.matches(spectrum_of_JR(tensor, J, line), 1e-8) for line in lines)
    constancy = check_jordan_ip(tensor, J, n=100, seed=404).constant
    record(
        4,
        "spectrum {7: 1, -4: 1, 4: 2} reproduced on 100 complex lines at 1e-8 "
        "with Jordan constancy",
        spectra_ok and constancy,
    )


def _random_spectrum(rng, multiplicities):
    while True:
        values = np.round(rng.uniform(-5.0, 5.0, len(multiplicities)), 3)
        if min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]) >= 0.5:
            return SpectrumSpec(tuple((float(v), mu) for v, mu in zip(values, multiplicities)))


def test_criterion_5_constant_solver_round_trip():
    rng = np.random.default_rng(505)
    failures = []
    total = 0
    for s in (2, 3):
        space = BilinearSpace(0, 2 * s)
        J = standard_complex_structure(space)
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=50 + s)[0]
        for _ in range(20):
            target = _random_spectrum(rng, (s - 1, 1))
            coeffs = solve_constants(target, SpectrumModel.COMPLEX_PAIR)
            got = spectrum_of_JR(build_complex_pair_tensor(J, *coeffs), J, line)
            total += 1
            if not target.matches(got, 1e-8):
                failures.append(("complex_pair", s, target, got))
    for s in (2, 3):
        space = BilinearSpace(0, 4 * s)
        quat = standard_quaternion_structure(space)
        J = quat.as_complex
        line = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed=60 + s)[0]
        for multiplicities in ((2 * s - 2, 2), (2 * s - 2, 1, 1)):
            for _ in range(20):
                target = _random_spectrum(rng, multiplicities)
                coeffs = solve_constants(target, SpectrumModel.QUATERNIONIC)
                got = spectrum_of_JR(build_quaternionic_tensor(quat, *coeffs), J, line)
                total += 1
                if not target.matches(got, 1e-8):
                    failures.append(("quaternionic", s, target, got))
    record(
        5,
        f"{total} random spectra of every admissible shape solved, rebuilt, and "
        "reproduced at 1e-8",
        total == 120 and not failures,
        f"{len(failures)} failures",
    )


def test_criterion_6_nilpotent_branch():
    # signature (2, 2): complex lines of both causal types
    space = BilinearSpace(2, 2)
    J = standard_complex_structure(space)
    phi = nilpotent_null_pair(space)
    admissible = check_admissible(phi, J)
    square_ok = admissible.square_type is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE
    tensor = from_self_adjoint(space, phi)
    lines = sample_complex_lines(J, PlaneClass.SPACELIKE, 50, seed=606)
    lines += sample_complex_lines(J, PlaneClass.TIMELIKE, 50, seed=607)
    ops = [curvature_operator(tensor, line) for line in lines]
    squares_ok = all(float(np.max(np.abs(op @ op))) <= 1e-10 for op in ops)
    ranks_ok = all(numeric_rank(op, 1e-8) == 2 for op in ops)
    constancy_22 = check_jordan_ip(tensor, J, n=100, seed=608).constant

    # signature (3, 3) admits no pseudo-Hermitian structure (odd counts), so
    # the same assertions run over real spacelike and timelike planes, the
    # causal types a complex line could take.
    space33 = BilinearSpace(3, 3)
    phi33 = nilpotent_null_pair(space33)
    square33_ok = classify_square(phi33, space33) is SquareType.NILPOTENT_KERNEL_EQUALS_RANGE
    tensor33 = from_self_adjoint(space33, phi33)
    planes33 = sample_real_planes(space33, PlaneClass.SPACELIKE, 50, seed=609)
    planes33 += sample_real_planes(space33, PlaneClass.TIMELIKE, 50, seed=610)
    ops33 = [curvature_operator(tensor33, plane) for plane in planes33]
    squares33_ok = all(float(np.max(np.abs(op @ op))) <= 1e-10 for op in ops33)
    ranks33_ok = all(numeric_rank(op, 1e-8) == 2 for op in ops33)
    report33 = check_jordan_ip_real(tensor33, n=50, seed=611)
    types33 = (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE)
    constancy_33 = all(report33.constant_by_type[t] for t in types33)
    record(
        6,
        "null-pair generator: kernel-equals-range square type, vanishing operator "
        "squares, rank 2, Jordan constancy on (2,2) complex lines and (3,3) planes",
        admissible.admissible
        and square_ok
        and squares_ok
        and ranks_ok
        and constancy_22
        and square33_ok
        and squares33_ok
        and ranks33_ok
        and constancy_33,
    )


def test_criterion_7_admissible_pairs():
    space = BilinearSpace(0, 8)
    quat = standard_quaternion_structure(space)
    J = quat.as_complex
    pair_j = check_admissible_pair(np.eye(8), quat.j, J, n_lines=50, seed=707)
    pair_k = check_admissible_pair(np.eye(8), quat.k, J, n_lines=50, seed=708)
    tensor = combine(
        [
            (1.0, from_self_adjoint(space, np.eye(8))),
            (2.0, from_skew_adjoint(space, quat.j)),
        ]
    )
    constancy = check_jordan_ip(tensor, J, n=100, seed=709).constant
    record(
        7,
        "{Id, j} and {Id, k} are admissible pairs and R_Id + 2 R_j is Jordan "
        "constant on complex lines",
        pair_j.admissible and pair_k.admissible and constancy,
    )


def test_criterion_8_real_jordan_ip():
    ok = True
    details = []
    for sig, signs in [
        ((0, 6), (1.0, 1.0, 1.0, -1.0, -1.0, -1.0)),
        ((0, 6), (1.0, -1.0, 1.0, -1.0, 1.0, 1.0)),
        ((1, 5), (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)),
        ((1, 5), (-1.0, 1.0, -1.0, 1.0, 1.0, -1.0)),
    ]:
        space = BilinearSpace(*sig)
        tensor = from_self_adjoint(space, np.diag(signs))
        report = check_jordan_ip_real(tensor, n=40, seed=808)
        ok = ok and report.constant and set(report.rank_by_type.values()) == {2}
        details.append(f"{sig}:{sorted(t.value for t in report.rank_by_type)}")

    generic = random_algebraic_curvature_tensor(BilinearSpace(0, 5), 809)
    generic_report = check_jordan_ip_real(generic, n=40, seed=810)
    negative_ok = not generic_report.constant and bool(generic_report.witnesses)
    record(
        8,
        "involutive diagonal generators are rank-2 Jordan constant per causal "
        "type on (0,6) and (1,5); a generic tensor on (0,5) fails with witness",
        ok and negative_ok,
        "; ".join(details),
    )


def test_criterion_9_structural_assertions():
    # complex lines are never mixed
    space = BilinearSpace(2, 4)
    J = standard_complex_structure(space)
    rng = np.random.default_rng(909)
    classes = set()
    count = 0
    while count < 1000:
        x = rng.standard_normal(6)
        if abs(inner(space, x, x)) <= space.tol * float(x @ x):
            continue
        classes.add(complex_line(J, x).plane_class)
        count += 1
    never_mixed = classes <= {PlaneClass.SPACELIKE, PlaneClass.TIMELIKE}

    # skew-adjointness of the curvature operator across every suite's tensors
    worst = 0.0
    cases = []
    s04 = BilinearSpace(0, 4)
    cases.append((s04, from_self_adjoint(s04, np.eye(4))))
    s06 = BilinearSpace(0, 6)
    cases.append((s06, build_complex_pair_tensor(standard_complex_structure(s06), 1.0, -0.5)))
    s08 = BilinearSpace(0, 8)
    cases.append((s08, build_quaternionic_tensor(standard_quaternion_structure(s08), 1.0, 2.0, 8.0, 0.0)))
    s22 = BilinearSpace(2, 2)
    cases.append((s22, from_self_adjoint(s22, nilpotent_null_pair(s22))))
    s13 = BilinearSpace(1, 3)
    cases.append((s13, random_algebraic_curvature_tensor(s13, 910)))
    s24 = BilinearSpace(2, 4)
    cases.append(
        (s24, from_self_adjoint(s24, projected_generator(s24, J, 1, 1, seed=911)))
    )
    for case_space, tensor in cases:
        planes = []
        for kind in (PlaneClass.SPACELIKE, PlaneClass.TIMELIKE, PlaneClass.MIXED):
            try:
                planes += sample_real_planes(case_space, kind, 25, seed=912)
            except ValueError:
                continue
        if case_space.p % 2 == 0 and case_space.q % 2 == 0:
            case_J = standard_complex_structure(case_space)
            planes += sample_complex_lines(case_J, PlaneClass.SPACELIKE, 25, seed=913)
            if case_space.p >= 2:
                planes += sample_complex_lines(case_J, PlaneClass.TIMELIKE, 25, seed=914)
        for plane in planes:
            op = curvature_operator(tensor, plane)
            worst = max(worst, float(np.max(np.abs(op + adjoint(case_space, op)))))
    record(
        9,
        "1000 complex lines in (2,4) are never mixed; curvature operators are "
        "skew-adjoint at 1e-10 across all suites",
        never_mixed and worst <= 1e-10,
        f"max skew residual {worst:.2e}",
    )
