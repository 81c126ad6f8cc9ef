"""Golden `curvlab run` reports.

Each case runs one config through ``curvlab run`` and requires the report body
(or, for a rejected config, the stderr text) to equal its file in
``tests/golden/`` byte for byte, together with the exit code.  The files
freeze present behaviour.  A change that means to alter a report regenerates
the affected file on purpose; any other change to the CLI or to the library
code behind it must leave every byte.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from curvlab import (
    BilinearSpace,
    CurvatureTensor,
    OrientedPlane,
    adjoint,
    check_J_invariance,
    check_symmetries,
    combine,
    from_self_adjoint,
    spectrum_of_JR,
    standard_complex_structure,
)
from curvlab.cli import list_builtins, main

GOLDEN = Path(__file__).parent / "golden"


def _config(sig, structure, generators, terms, checks, samples, seed, tol, **extra) -> dict:
    return {
        "signature": list(sig),
        "structure": structure,
        "generators": generators,
        "tensor": [
            {"coefficient": c, "generator": g, "constructor": kind} for c, g, kind in terms
        ],
        "checks": list(checks),
        "samples": samples,
        "seed": seed,
        "tol": tol,
        **extra,
    }


def _generic_self_adjoint(m: int) -> list[list[float]]:
    """Self-adjoint on R^(0,m), neither commuting nor anticommuting with J."""
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((m, m))
    return (0.5 * (phi + adjoint(BilinearSpace(0, m), phi))).tolist()


QUAT_GENERATORS = {
    "id": {"builtin": "identity"},
    "i": {"builtin": "quat_i"},
    "j": {"builtin": "quat_j"},
    "k": {"builtin": "quat_k"},
}
QUAT_TERMS = [(1, "id", "self_adjoint"), (2, "i", "skew_adjoint"),
              (8, "j", "skew_adjoint"), (0, "k", "skew_adjoint")]
PAIR_GENERATORS = {"id": {"builtin": "identity"}, "J": {"builtin": "standard_J"}}
PAIR_TERMS = [(1.5, "id", "self_adjoint"), (0.75, "J", "skew_adjoint")]
IDENTITY = {"id": {"builtin": "identity"}}
ID_TERM = [(1, "id", "self_adjoint")]
# R_Id + R_C with C = diag(1, -1, ...): almost complex, but the eigenvalues of
# R(pi) move from plane to plane, so every Jordan and spectrum check fails.
ID_PLUS_C = _config((0, 6), "complex",
                    {**IDENTITY, "C": {"matrix": np.diag([1.0, -1.0] * 3).tolist()}},
                    [(1, "id", "self_adjoint"), (1, "C", "self_adjoint")],
                    ["jordan_ip_complex", "jordan_ip_real", "spectrum"], 10, 0, 1e-10)


# A small valid config that the rejected cases below break one field at a time.
SMALL = _config((0, 4), "none", IDENTITY, ID_TERM, ["symmetries"], 5, 0, 1e-10)


def _quaternionic(checks=("jordan_ip_complex", "spectrum"), samples=15, **extra) -> dict:
    return _config((0, 8), "quaternion", QUAT_GENERATORS, QUAT_TERMS, checks, samples, 7, 1e-8,
                   **extra)


# (name, config, extra argv, exit code).  Report bodies carry floats to the
# last bit, so they hold for the numpy and LAPACK build they were made with
# (numpy 2.4.6, OpenBLAS).
CASES = [
    ("readme", _quaternionic(("symmetries", "jordan_ip_complex", "spectrum"), samples=100),
     [], 0),
    ("quaternionic", _quaternionic(), [], 0),
    ("quaternionic_seed_99", _quaternionic(), ["--seed", "99"], 0),
    ("quaternionic_full_suite",
     _quaternionic(("symmetries", "almost_complex", "jordan_ip_complex", "spectrum",
                    "admissible_pair", "solve_constants"), samples=10, pair=["id", "j"]),
     [], 0),
    ("admissible_id_j",
     _config((0, 8), "quaternion", {"id": QUAT_GENERATORS["id"], "j": QUAT_GENERATORS["j"]},
             [(1, "id", "self_adjoint"), (2, "j", "skew_adjoint")], ["admissible"], 15, 7, 1e-8),
     [], 0),
    ("admissible_flags_i", _quaternionic(["admissible"]), [], 1),
    ("gray_j",
     _config((0, 8), "quaternion", QUAT_GENERATORS, [(1, "j", "skew_adjoint")], ["gray"], 15, 7,
             1e-10),
     [], 1),
    ("almost_complex_generic",
     _config((0, 6), "complex", {"phi": {"matrix": _generic_self_adjoint(6)}},
             [(1, "phi", "self_adjoint")], ["almost_complex"], 25, 0, 1e-10),
     [], 1),
    # The tensor identity fails by 1.21e-10 against tol 1e-10, where the
    # largest commutator of 100 sampled lines would read 7.97e-11.
    ("almost_complex_tensor_only",
     _config((0, 8), "complex", {"id": {"builtin": "identity"},
                                 "phi": {"matrix": _generic_self_adjoint(8)}},
             [(1, "id", "self_adjoint"), (1.3e-11, "phi", "self_adjoint")], ["almost_complex"],
             100, 0, 1e-10),
     [], 1),
    ("nilpotent_pair_4_4",
     _config((4, 4), "complex", {"phi1": {"builtin": "nilpotent_null_pair"},
                                 "phi2": {"builtin": "nilpotent_null_pair_partner"}},
             [(1, "phi1", "self_adjoint"), (1, "phi2", "skew_adjoint")],
             ["admissible", "admissible_pair", "jordan_ip_complex"], 15, 0, 1e-8),
     [], 0),
    ("nilpotent_2_2",
     _config((2, 2), "complex", {"phi": {"builtin": "nilpotent_null_pair"}},
             [(1, "phi", "self_adjoint")], ["symmetries", "admissible", "jordan_ip_complex"],
             20, 1, 1e-10),
     [], 0),
    ("jordan_ip_complex_pair_4_4",
     _config((4, 4), "complex", PAIR_GENERATORS, PAIR_TERMS, ["jordan_ip_complex"], 30, 0, 1e-10),
     [], 0),
    ("jordan_ip_real_identity_2_2",
     _config((2, 2), "none", IDENTITY, ID_TERM, ["jordan_ip_real"], 30, 0, 1e-10), [], 0),
    ("jordan_ip_real_diagonal_4_4",
     _config((4, 4), "none", {"phi": {"matrix": np.diag(np.arange(1.0, 9.0)).tolist()}},
             [(1, "phi", "self_adjoint")], ["jordan_ip_real"], 20, 11, 1e-10),
     [], 1),
    ("spectrum_solve_2_6",
     _config((2, 6), "complex", PAIR_GENERATORS, PAIR_TERMS, ["spectrum", "solve_constants"],
             20, 0, 1e-10),
     [], 0),
    ("check_errors",
     _config((0, 6), "complex", {"phi": {"matrix": _generic_self_adjoint(6)}, **IDENTITY},
             [(1, "phi", "self_adjoint"), (1, "id", "self_adjoint")],
             ["spectrum", "admissible", "admissible_pair", "solve_constants"], 10, 0, 1e-10),
     [], 1),
    ("id_plus_c_not_jordan_ip", ID_PLUS_C, [], 1),
    ("jordan_ip_complex_generic",
     _config((0, 6), "complex", {"phi": {"matrix": _generic_self_adjoint(6)}},
             [(1, "phi", "self_adjoint")], ["jordan_ip_complex"], 10, 0, 1e-10),
     [], 1),
    # Rejected configs: exit 2, no report, the message on stderr.
    ("undeclared_generator",
     _config((0, 8), "quaternion", QUAT_GENERATORS, [(1, "nope", "self_adjoint")],
             ["symmetries"], 15, 7, 1e-8),
     [], 2),
    ("check_needs_structure",
     _config((0, 5), "none", IDENTITY, ID_TERM, ["symmetries", "almost_complex"], 5, 0, 1e-10),
     [], 2),
    ("incompatible_structure",
     _config((0, 6), "quaternion", QUAT_GENERATORS, QUAT_TERMS, ["symmetries"], 15, 7, 1e-8),
     [], 2),
    ("constructor_precondition",
     _config((0, 8), "quaternion", QUAT_GENERATORS, [(2, "i", "self_adjoint")], ["symmetries"],
             15, 7, 1e-8),
     [], 2),
    ("standard_J_needs_structure",
     _config((0, 4), "none", {"J": {"builtin": "standard_J"}}, [(1, "J", "skew_adjoint")],
             ["symmetries"], 5, 0, 1e-10),
     [], 2),
    ("quat_unit_needs_quaternion",
     _config((0, 4), "complex", {"i": {"builtin": "quat_i"}}, [(1, "i", "skew_adjoint")],
             ["symmetries"], 5, 0, 1e-10),
     [], 2),
    ("nilpotent_needs_split_signature",
     _config((0, 4), "none", {"n": {"builtin": "nilpotent_null_pair"}},
             [(1, "n", "self_adjoint")], ["symmetries"], 5, 0, 1e-10),
     [], 2),
    ("unknown_builtin",
     _config((0, 4), "none", {"x": {"builtin": "quat_l"}}, [(1, "x", "self_adjoint")],
             ["symmetries"], 5, 0, 1e-10),
     [], 2),
    ("builtin_not_a_string",
     _config((0, 4), "none", {"x": {"builtin": ["identity"]}}, [(1, "x", "self_adjoint")],
             ["symmetries"], 5, 0, 1e-10),
     [], 2),
    ("unknown_check",
     _config((0, 4), "none", IDENTITY, ID_TERM, ["symmetries", "ricci"], 5, 0, 1e-10), [], 2),
    ("admissible_pair_needs_two",
     _config((0, 4), "complex", IDENTITY, ID_TERM, ["admissible_pair"], 5, 0, 1e-10), [], 2),
    ("missing_field", {k: v for k, v in SMALL.items() if k != "checks"}, [], 2),
    ("top_level_not_an_object", [SMALL], [], 2),
    ("structure_not_a_string", {**SMALL, "structure": 5}, [], 2),
    ("unknown_structure", {**SMALL, "structure": "octonion"}, [], 2),
    ("invalid_signature", {**SMALL, "signature": [0, 1]}, [], 2),
    ("generator_not_an_object", {**SMALL, "generators": {"id": "identity"}}, [], 2),
    ("generator_needs_builtin_or_matrix", {**SMALL, "generators": {"id": {}}}, [], 2),
    ("matrix_wrong_shape",
     {**SMALL, "generators": {"id": {"matrix": [[1, 0, 0], [0, 1, 0]]}}}, [], 2),
    ("tensor_term_not_an_object", {**SMALL, "tensor": [5]}, [], 2),
    ("unknown_constructor",
     {**SMALL, "tensor": [{**SMALL["tensor"][0], "constructor": "hermitian"}]}, [], 2),
    ("malformed_pair", {**SMALL, "pair": ["id"]}, [], 2),
    ("undeclared_pair_name", {**SMALL, "pair": ["id", "nope"]}, [], 2),
]


def golden_path(name: str, code: int) -> Path:
    return GOLDEN / (f"{name}.err" if code == 2 else f"{name}.json")


def run_case(config, argv: list[str], directory: Path, capsys) -> tuple[int, bytes]:
    """Exit code and output bytes: the report body, or stderr for a rejected config."""
    path, report = directory / "config.json", directory / "report.json"
    path.write_text(json.dumps(config))
    code = main(["run", str(path), "--report", str(report), "--quiet", *argv])
    err = capsys.readouterr().err
    return code, (err.encode() if code == 2 else report.read_bytes())


@pytest.mark.parametrize("name, config, argv, code", CASES, ids=[case[0] for case in CASES])
def test_report_matches_golden(name, config, argv, code, tmp_path, capsys):
    got_code, body = run_case(config, argv, tmp_path, capsys)
    assert got_code == code
    assert body == golden_path(name, code).read_bytes()


def test_report_printed_without_report_option(tmp_path, capsys):
    """Without --report the body goes to stdout, byte for byte the golden."""
    _, config, argv, code = next(case for case in CASES if case[0] == "quaternionic")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), *argv]) == code
    assert capsys.readouterr().out.encode() == golden_path("quaternionic", code).read_bytes()


def test_readme_example_is_the_readme_case():
    """The one JSON block of README's CLI section is the config of the readme case."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```json\n(.*?)```", cli_section, re.S)
    assert json.loads(block) == next(case[1] for case in CASES if case[0] == "readme")


def test_list_builtins_matches_golden():
    assert list_builtins() + "\n" == (GOLDEN / "list_builtins.txt").read_text()


@pytest.mark.parametrize("name, checks", [
    ("check_needs_structure", None),
    ("admissible_pair_needs_two", ["symmetries", "admissible_pair"]),
])
def test_config_error_stops_the_run_before_any_check(name, checks, tmp_path, capsys, monkeypatch):
    """A check that cannot run is a config error raised before the checks
    listed ahead of it run; the stderr bytes stay those of the golden case."""
    calls = []

    def spy(tensor, tol):
        calls.append(tensor)
        return check_symmetries(tensor, tol)

    monkeypatch.setattr("curvlab.cli.check_symmetries", spy)
    _, config, argv, code = next(case for case in CASES if case[0] == name)
    if checks is not None:
        config = {**config, "checks": checks}
    assert run_case(config, argv, tmp_path, capsys) == (code, golden_path(name, code).read_bytes())
    assert calls == []


def test_almost_complex_witness_quadruple_violates(tmp_path, capsys):
    """The witness quadruple (a, b, c, d) replays to the reported violation
    |R(Je_a, Je_b, Je_c, Je_d) - R(e_a, e_b, e_c, e_d)|, above tol * max|R|."""
    _, config, argv, code = next(case for case in CASES if case[0] == "almost_complex_generic")
    assert run_case(config, argv, tmp_path, capsys)[0] == code
    result = json.loads((tmp_path / "report.json").read_text())["checks"]["almost_complex"]
    a, b, c, d = result["witness"]["quadruple"]
    J = standard_complex_structure(BilinearSpace(*config["signature"])).J
    r = self_adjoint_tensor(config).coeffs
    violation = abs(np.einsum("ijkl,i,j,k,l->", r, J[:, a], J[:, b], J[:, c], J[:, d]) - r[a, b, c, d])
    assert violation == result["max_violation"]
    assert violation > config["tol"] * np.abs(r).max()


def self_adjoint_tensor(config) -> CurvatureTensor:
    """The tensor of a config whose terms are all self-adjoint, built directly."""
    space = BilinearSpace(*config["signature"])
    builtins = {"identity": np.eye(space.m)}
    generators = {
        g: np.array(spec["matrix"]) if "matrix" in spec else builtins[spec["builtin"]]
        for g, spec in config["generators"].items()
    }
    return combine([
        (term["coefficient"], from_self_adjoint(space, generators[term["generator"]]))
        for term in config["tensor"]
    ])


@pytest.mark.parametrize("role", ["anchor", "offender"])
def test_replayed_witness_is_a_complex_line(role):
    """A witness copied from a report and made as OrientedPlane(space, x, y)
    is a line of the report's J to spectrum_of_JR: y is J x bit for bit.  The
    tensor is almost complex, so R(pi) commutes with J on it."""
    report = json.loads((GOLDEN / "id_plus_c_not_jordan_ip.json").read_text())
    witness = report["checks"]["jordan_ip_complex"]["witness"][role]
    space = BilinearSpace(*ID_PLUS_C["signature"])
    J = standard_complex_structure(space)
    x, y = np.array(witness["x"]), np.array(witness["y"])
    assert np.array_equal(y, J.J @ x)
    plane = OrientedPlane(space, x, y)
    tensor = self_adjoint_tensor(ID_PLUS_C)
    assert check_J_invariance(tensor, J).passed
    assert spectrum_of_JR(tensor, J, plane).dimension == space.m


@pytest.mark.parametrize("scale", [1e-7, 1e-9], ids=["1e-7", "1e-9"])
def test_scaled_tensor_keeps_failing_verdicts(scale, tmp_path, capsys):
    """Checks compare eigenvalues relative to the operator's own scale, so
    scaling the tensor down does not turn the failed checks of the golden
    case into passes."""
    terms = [{**term, "coefficient": scale * term["coefficient"]} for term in ID_PLUS_C["tensor"]]
    code, body = run_case({**ID_PLUS_C, "tensor": terms}, [], tmp_path, capsys)
    checks = json.loads(body)["checks"]
    assert code == 1
    assert [result["pass"] for result in checks.values()] == [False, False, False]
    assert checks["spectrum"]["consistent"] is False
