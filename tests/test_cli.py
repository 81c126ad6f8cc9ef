import json
import weakref

import numpy as np
import pytest

from curvlab import (
    BilinearSpace,
    adjoint,
    cli,
    curvature,
    jordan_ip,
    standard_complex_structure,
)
from curvlab.cli import CHECK_NAMES, entry, list_builtins, main


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def quaternionic_config(**overrides):
    cfg = {
        "signature": [0, 8],
        "structure": "quaternion",
        "generators": {
            "id": {"builtin": "identity"},
            "i": {"builtin": "quat_i"},
            "j": {"builtin": "quat_j"},
            "k": {"builtin": "quat_k"},
        },
        "tensor": [
            {"coefficient": 1, "generator": "id", "constructor": "self_adjoint"},
            {"coefficient": 2, "generator": "i", "constructor": "skew_adjoint"},
            {"coefficient": 8, "generator": "j", "constructor": "skew_adjoint"},
            {"coefficient": 0, "generator": "k", "constructor": "skew_adjoint"},
        ],
        "checks": ["jordan_ip_complex", "spectrum"],
        "samples": 15,
        "seed": 7,
        "tol": 1e-8,
    }
    cfg.update(overrides)
    return cfg


class TestRunExitCodes:
    def test_golden_quaternionic_spectrum_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", quaternionic_config())
        report_path = tmp_path / "report.json"
        assert main(["run", config, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["all_pass"] is True
        values = {
            round(entry["eigenvalue"], 6): entry["multiplicity"]
            for entry in report["checks"]["spectrum"]["spectrum"]
        }
        assert values == {7.0: 1, -4.0: 1, 4.0: 2}

    def test_failing_check_exits_one_with_witness(self, tmp_path):
        # generic self-adjoint generator, neither commuting nor anticommuting
        rng = np.random.default_rng(3)
        space = BilinearSpace(0, 6)
        phi = rng.standard_normal((6, 6))
        phi = 0.5 * (phi + adjoint(space, phi))
        cfg = {
            "signature": [0, 6],
            "structure": "complex",
            "generators": {"phi": {"matrix": phi.tolist()}},
            "tensor": [{"coefficient": 1, "generator": "phi", "constructor": "self_adjoint"}],
            "checks": ["almost_complex"],
            "samples": 25,
            "seed": 0,
            "tol": 1e-10,
        }
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "report.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 1
        report = json.loads(report_path.read_text())
        result = report["checks"]["almost_complex"]
        assert result["pass"] is False
        assert len(result["witness"]["quadruple"]) == 4

    def test_undeclared_generator_exits_two(self, tmp_path, capsys):
        cfg = quaternionic_config()
        cfg["tensor"][0]["generator"] = "nope"
        config = write_config(tmp_path, "cfg.json", cfg)
        assert main(["run", config]) == 2
        assert "not declared" in capsys.readouterr().err

    def test_invalid_json_exits_two_with_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"signature": [0, 8],}')
        assert main(["run", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            json.dumps(quaternionic_config(seed="@")).replace('"@"', "1" + "0" * 4999).encode(),
            b"\xff",
        ],
        ids=["seed_of_5000_digits", "not_utf8"],
    )
    def test_unreadable_config_exits_two(self, tmp_path, monkeypatch, capsys, content):
        # Python's json raises a plain ValueError for an integer beyond the
        # 4300-digit conversion limit, and reading raises UnicodeDecodeError.
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        report = tmp_path / "report.json"
        monkeypatch.setattr("sys.argv", ["curvlab", "run", str(path), "--report", str(report)])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config: ") and "Traceback" not in err
        assert not report.exists()

    def test_check_needing_structure_exits_two(self, tmp_path, capsys):
        cfg = {
            "signature": [0, 5],
            "structure": "none",
            "generators": {"id": {"builtin": "identity"}},
            "tensor": [{"coefficient": 1, "generator": "id", "constructor": "self_adjoint"}],
            "checks": ["almost_complex"],
        }
        config = write_config(tmp_path, "cfg.json", cfg)
        assert main(["run", config]) == 2
        assert "structure" in capsys.readouterr().err

    def test_incompatible_structure_exits_two(self, tmp_path, capsys):
        cfg = quaternionic_config(signature=[0, 6])
        config = write_config(tmp_path, "cfg.json", cfg)
        assert main(["run", config]) == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("signature", [True, 3], "config.signature: expected [p, q] with integer entries"),
            ("signature", [0, True], "config.signature: expected [p, q] with integer entries"),
            ("samples", True, "config.samples: expected a positive integer"),
            ("seed", False, "config.seed: expected an integer"),
            ("tol", True, "config.tol: expected a positive number"),
            ("coefficient", True, "config.tensor[0].coefficient: expected int/float, got bool"),
        ],
    )
    def test_boolean_is_not_a_number(self, tmp_path, capsys, field, value, message):
        # bool is a subclass of int, so JSON true would otherwise pass as 1.
        cfg = quaternionic_config()
        if field == "coefficient":
            cfg["tensor"][0]["coefficient"] = value
        else:
            cfg[field] = value
        config = write_config(tmp_path, "cfg.json", cfg)
        assert main(["run", config]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "field, text, argv, message",
        [
            ("tol", "1e999", [], "config.tol: expected a finite number"),
            ("tol", "1e-8", ["--tol", "inf"], "config.tol: expected a finite number"),
            ("coefficient", "NaN", [], "config.tensor[0].coefficient: expected a finite number"),
            ("coefficient", "Infinity", [], "config.tensor[0].coefficient: expected a finite number"),
            ("coefficient", "1" + "0" * 400, [],
             "config.tensor[0].coefficient: expected a finite number"),
            ("seed", "-1", [], "config.seed: expected a non-negative integer"),
            ("seed", "7", ["--seed", "-1"], "config.seed: expected a non-negative integer"),
        ],
        ids=["tol_1e999", "tol_option_inf", "coefficient_nan", "coefficient_infinity",
             "coefficient_beyond_float", "seed_negative", "seed_option_negative"],
    )
    def test_number_out_of_range_exits_two(self, tmp_path, capsys, field, text, argv, message):
        # text goes into the config as written: json.dumps has no 1e999, and
        # Python's json reads NaN, Infinity and 1e999 as floats that are not finite.
        cfg = quaternionic_config()
        if field == "coefficient":
            cfg["tensor"][0]["coefficient"] = "@"
        else:
            cfg[field] = "@"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"@"', text))
        report = tmp_path / "report.json"
        assert main(["run", str(path), "--report", str(report), *argv]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not report.exists()

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 0], [0]],
            "identity",
            [["a", 0], [0, 1]],
            [[None, 0], [0, 1]],
            [[float("nan"), 0], [0, 1]],
            [[True, 0], [0, 1]],
            [["1", 0], [0, 1]],
        ],
        ids=["ragged", "string", "string_entry", "null_entry", "nan_entry", "bool_entry",
             "string_number_entry"],
    )
    def test_matrix_of_non_numbers_exits_two(self, tmp_path, capsys, matrix):
        cfg = {
            "signature": [0, 2],
            "generators": {"phi": {"matrix": matrix}},
            "tensor": [{"coefficient": 1, "generator": "phi", "constructor": "self_adjoint"}],
            "checks": ["symmetries"],
        }
        report = tmp_path / "report.json"
        assert main(["run", write_config(tmp_path, "cfg.json", cfg), "--report", str(report)]) == 2
        assert capsys.readouterr().err == (
            "config error: config.generators.phi: "
            "matrix must be a list of equally long rows of finite numbers\n"
        )
        assert not report.exists()

    # The console script runs without warnings as errors, so neither does this test.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_in_report_exits_three_without_report(self, tmp_path, monkeypatch, capsys):
        # Two finite terms of 1e308 R_Id overflow in combine; a report is
        # strict JSON, so the infinities and NaNs it would hold are an
        # internal error and nothing is written.
        term = {"coefficient": 1e308, "generator": "id", "constructor": "self_adjoint"}
        cfg = quaternionic_config(tensor=[term, term], checks=["symmetries"])
        report = tmp_path / "report.json"
        argv = ["curvlab", "run", write_config(tmp_path, "cfg.json", cfg), "--report", str(report)]
        monkeypatch.setattr("sys.argv", argv)
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 3
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not report.exists()

    def test_zero_term_that_would_overflow_is_skipped(self, tmp_path):
        # 0.0 R_phi for phi = 1e200 Id: its products overflow to inf, and
        # 0.0 * inf would make the sum NaN and the run exit 3.  A zero term
        # is never built, so the run reports R_Id to the byte.
        identity = {"coefficient": 1.0, "generator": "id", "constructor": "self_adjoint"}
        cfg = {
            "signature": [0, 4],
            "generators": {"id": {"builtin": "identity"},
                           "big": {"matrix": (1e200 * np.eye(4)).tolist()}},
            "tensor": [identity],
            "checks": ["symmetries"],
        }
        want, got = tmp_path / "want.json", tmp_path / "got.json"
        assert main(["run", write_config(tmp_path, "id.json", cfg), "--report", str(want)]) == 0
        cfg["tensor"] = [identity, {"coefficient": 0.0, "generator": "big",
                                    "constructor": "self_adjoint"}]
        assert main(["run", write_config(tmp_path, "cfg.json", cfg), "--report", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes()

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", quaternionic_config(checks=["symmetries"]))
        report = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(["run", config, "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cannot write report: ") and str(report) in err
        assert not report.exists()

    def test_empty_tensor_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, "cfg.json", quaternionic_config(tensor=[]))
        assert main(["run", config]) == 2
        assert capsys.readouterr().err == "config error: config.tensor: needs at least one term\n"

    def test_constructor_precondition_violation_exits_two(self, tmp_path, capsys):
        cfg = quaternionic_config()
        cfg["tensor"][1]["constructor"] = "self_adjoint"  # quat_i is skew-adjoint
        config = write_config(tmp_path, "cfg.json", cfg)
        assert main(["run", config]) == 2
        assert "self-adjoint" in capsys.readouterr().err

    def test_bad_second_term_names_its_index(self, tmp_path, capsys):
        # Every term is checked before the sum is built, each inside its own
        # error context, so the message names the term and its entry.
        cfg = quaternionic_config()
        cfg["tensor"][1]["constructor"] = "self_adjoint"
        assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: config.tensor[1]: phi is not self-adjoint: "
            "|phi - phi*| = 2.000e+00 at entry (0, 1)\n"
        )


class TestTermTensorsReleased:
    def test_no_term_tensor_alive_while_checks_run(self, tmp_path, monkeypatch):
        # curvlab run checks every term, then builds the sum slab by slab in one
        # _generator_sum call, with no term tensor.  A check patched into the
        # table sees every curvature tensor the run made: the run makes exactly
        # one, the sum, however a term tensor would have been built.
        sums, made, alive = [], [], []
        add = cli._generator_sum
        init = curvature.CurvatureTensor.__post_init__

        def total(*args):
            tensor = add(*args)
            sums.append(id(tensor))
            return tensor

        def recording(self):
            init(self)
            made.append(weakref.ref(self))

        needs, symmetries = cli.CHECKS["symmetries"]

        def probe(**context):
            alive.append([id(ref()) for ref in made if ref() is not None])
            return symmetries(**context)

        monkeypatch.setattr(cli, "_generator_sum", total)
        monkeypatch.setattr(curvature.CurvatureTensor, "__post_init__", recording)
        monkeypatch.setitem(cli.CHECKS, "symmetries", (needs, probe))
        config = write_config(tmp_path, "cfg.json", quaternionic_config(checks=["symmetries"]))
        assert main(["run", config, "--quiet"]) == 0
        assert len(made) == 1 and len(sums) == 1
        assert alive == [sums]


class TestDeterminism:
    def test_report_bodies_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", quaternionic_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", config, "--report", str(a), "--quiet"]) == 0
        assert main(["run", config, "--report", str(b), "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_echo(self, tmp_path):
        config = write_config(tmp_path, "cfg.json", quaternionic_config())
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--seed", "99", "--report", str(report_path), "--quiet"]) == 0
        assert json.loads(report_path.read_text())["seed"] == 99


class TestChecks:
    def test_full_suite_on_quaternionic_tensor(self, tmp_path):
        # jordan_ip_real is deliberately absent: the quaternionic tensor is
        # Jordan-constant on complex lines, not on arbitrary real planes.
        cfg = quaternionic_config(
            checks=[
                "symmetries",
                "almost_complex",
                "jordan_ip_complex",
                "spectrum",
                "admissible_pair",
                "solve_constants",
            ],
            pair=["id", "j"],
            samples=10,
        )
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        # the measured spectrum {7: 1, -4: 1, 4: 2} admits two coefficient
        # solutions depending on which mu = 1 eigenvalue plays which role;
        # both must satisfy the defining relations with 2 c1 = 4
        c0, c1, c2, c3 = report["checks"]["solve_constants"]["constants"]
        assert 2 * c1 == pytest.approx(4.0)
        assert sorted([c0 + 3 * c1, 2 * c1 - c2 - c3]) == pytest.approx([-4.0, 7.0])
        assert report["checks"]["admissible_pair"]["pair"] == ["id", "j"]

    # Eigenvalues about 1e-7 and 1e8 are read and matched relative to their own
    # scale: three eigenvalues, consistent over the lines, and a round trip.
    @pytest.mark.parametrize(
        "scale, overrides",
        [(1e-7, {}), (1e8, {"signature": [0, 16], "samples": 100, "seed": 0})],
        ids=["1e-7", "1e8"],
    )
    def test_spectrum_checks_on_scaled_quaternionic_tensor(self, tmp_path, scale, overrides):
        cfg = quaternionic_config(checks=["spectrum", "solve_constants"], **overrides)
        for term in cfg["tensor"]:
            term["coefficient"] *= scale
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 0
        checks = json.loads(report_path.read_text())["checks"]
        assert len(checks["spectrum"]["spectrum"]) == 3
        assert checks["spectrum"]["consistent"] is True
        assert checks["solve_constants"]["pass"] is True

    # Every fingerprint of a run, the spectrum ones included, is taken at the
    # Jordan checks' tolerance max(--tol, OPERATOR_TOL).
    @pytest.mark.parametrize("argv, want", [([], 1e-6), (["--tol", "1e-4"], 1e-4)], ids=["default", "1e-4"])
    def test_fingerprints_share_one_tolerance(self, tmp_path, monkeypatch, argv, want):
        seen = []
        original = jordan_ip.jordan_invariants

        def spy(a, tol, *basis):
            seen.append(tol)
            return original(a, tol, *basis)

        monkeypatch.setattr(jordan_ip, "jordan_invariants", spy)
        checks = ["jordan_ip_complex", "jordan_ip_real", "spectrum", "solve_constants"]
        config = write_config(tmp_path, "cfg.json", quaternionic_config(checks=checks))
        main(["run", config, "--quiet", *argv])
        assert seen and set(seen) == {want}

    def test_admissible_check_over_declared_generators(self, tmp_path):
        cfg = quaternionic_config(
            generators={"id": {"builtin": "identity"}, "j": {"builtin": "quat_j"}},
            tensor=[
                {"coefficient": 1, "generator": "id", "constructor": "self_adjoint"},
                {"coefficient": 2, "generator": "j", "constructor": "skew_adjoint"},
            ],
            checks=["admissible"],
        )
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 0
        generators = json.loads(report_path.read_text())["checks"]["admissible"]["generators"]
        assert generators["id"]["class"] == "self_adjoint_commuting"
        assert generators["j"]["class"] == "skew_adjoint_anticommuting"

    def test_admissible_check_flags_J_itself(self, tmp_path):
        # phi = i commutes with J = i, so the skew-adjoint anticommuting class
        # does not apply and the check fails.
        cfg = quaternionic_config(checks=["admissible"])
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 1
        generators = json.loads(report_path.read_text())["checks"]["admissible"]["generators"]
        assert generators["i"]["admissible"] is False

    def test_gray_check_records_failure(self, tmp_path):
        cfg = quaternionic_config(
            tensor=[{"coefficient": 1, "generator": "j", "constructor": "skew_adjoint"}],
            checks=["gray"],
            tol=1e-10,
        )
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 1
        result = json.loads(report_path.read_text())["checks"]["gray"]
        assert result["max_violation"] == pytest.approx(12.0)
        assert result["witness"]["quadruple"] is not None

    # The almost_complex and gray checks pass at tol * max|R|.  A tensor of
    # order 1e4 passes with violation 0, as the standard J is a signed
    # permutation; violations of about 5e-12 and 1.2e-11 in tensors scaled by
    # 1e-12 fail.
    @pytest.mark.parametrize("case, code", [
        ("large_pair", 0), ("small_generic", 1), ("small_j", 1),
    ])
    def test_verdict_does_not_depend_on_tensor_scale(self, tmp_path, case, code):
        if case == "large_pair":
            cfg = quaternionic_config(
                signature=[4, 4], structure="complex",
                generators={"id": {"builtin": "identity"}, "J": {"builtin": "standard_J"}},
                tensor=[
                    {"coefficient": 1e4, "generator": "id", "constructor": "self_adjoint"},
                    {"coefficient": 2e4, "generator": "J", "constructor": "skew_adjoint"},
                ],
                checks=["almost_complex"], samples=100, seed=0, tol=1e-10,
            )
        elif case == "small_generic":
            space = BilinearSpace(0, 6)
            phi = np.random.default_rng(3).standard_normal((6, 6))
            cfg = quaternionic_config(
                signature=[0, 6], structure="complex",
                generators={"phi": {"matrix": (0.5 * (phi + adjoint(space, phi))).tolist()}},
                tensor=[{"coefficient": 1e-12, "generator": "phi", "constructor": "self_adjoint"}],
                checks=["almost_complex"], samples=25, seed=0, tol=1e-10,
            )
        else:
            cfg = quaternionic_config(
                tensor=[{"coefficient": 1e-12, "generator": "j", "constructor": "skew_adjoint"}],
                checks=["gray"], tol=1e-10,
            )
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == code
        (result,) = json.loads(report_path.read_text())["checks"].values()
        assert result["pass"] is (code == 0)
        if case == "large_pair":
            assert result["max_violation"] == 0.0
        else:
            assert 0 < result["max_violation"] < 1e-9

    # almost_complex is decided by the tensor identity J*R = R alone, so a
    # tensor near its bound gets one report whatever the seed and the sample
    # count.  On (8, 8) the quaternionic tensor plus eps R_phi, phi a generic
    # self-adjoint map, violates the identity by 2.6e-13 and 2.6e-12 of max|R|.
    @pytest.mark.parametrize("eps", [1e-12, 1e-11])
    def test_almost_complex_report_depends_on_no_seed_or_sample_count(
        self, tmp_path, monkeypatch, eps
    ):
        space = BilinearSpace(8, 8)
        phi = np.random.default_rng(3).standard_normal((16, 16))
        cfg = quaternionic_config(signature=[8, 8], checks=["almost_complex"], tol=1e-10)
        cfg["generators"]["phi"] = {"matrix": (0.5 * (phi + adjoint(space, phi))).tolist()}
        cfg["tensor"].append({"coefficient": eps, "generator": "phi", "constructor": "self_adjoint"})
        config = write_config(tmp_path, "cfg.json", cfg)
        identity_checks, draws = [], []
        check, sample = cli.check_J_invariance, jordan_ip.sample_complex_lines
        monkeypatch.setattr(cli, "check_J_invariance",
                            lambda *args: identity_checks.append(args) or check(*args))
        for module in (cli, jordan_ip):
            monkeypatch.setattr(module, "sample_complex_lines",
                                lambda *args: draws.append(args) or sample(*args))
        report_path = tmp_path / "r.json"
        results = set()
        for seed in range(10):
            for samples in (1, 100):
                argv = ["run", config, "--seed", str(seed), "--samples", str(samples),
                        "--report", str(report_path), "--quiet"]
                assert main(argv) == 0
                assert len(identity_checks) == 1 and draws == []
                identity_checks.clear()
                results.add(json.dumps(json.loads(report_path.read_text())["checks"]))
        (result,) = results
        assert json.loads(result)["almost_complex"].keys() == {"pass", "max_violation"}

    # Every residual is judged at tol times the magnitudes of its inputs.  A
    # generator of order 1e-6 whose square is 1e-12 diag(1, 1, 0, 0) is not
    # nilpotent; rounding of 1.2e-10 in a valid tensor of order 1e6 passes
    # `symmetries`; a generator of order 1e-9 that is not self-adjoint is
    # rejected by its constructor.
    @pytest.mark.parametrize("case, code", [
        ("small_square", 1), ("large_symmetries", 0), ("small_not_self_adjoint", 2),
    ])
    def test_bound_is_relative_to_the_inputs(self, tmp_path, capsys, case, code):
        if case == "small_square":
            cfg = quaternionic_config(
                signature=[0, 4], structure="complex",
                generators={"phi": {"matrix": (1e-6 * np.diag([1.0, 1.0, 0.0, 0.0])).tolist()}},
                tensor=[{"coefficient": 1, "generator": "phi", "constructor": "self_adjoint"}],
                checks=["admissible"], tol=1e-10,
            )
        elif case == "large_symmetries":
            rng = np.random.default_rng(0)
            a, b = (0.5 * (x + x.T) for x in (rng.standard_normal((6, 6)) for _ in range(2)))
            cfg = quaternionic_config(
                signature=[0, 6], structure="complex",
                generators={"a": {"matrix": a.tolist()}, "b": {"matrix": b.tolist()}},
                tensor=[{"coefficient": 1e6, "generator": "a", "constructor": "self_adjoint"},
                        {"coefficient": 1, "generator": "b", "constructor": "self_adjoint"}],
                checks=["symmetries"], tol=1e-10,
            )
        else:
            phi = 1e-9 * np.random.default_rng(1).standard_normal((4, 4))
            cfg = quaternionic_config(
                signature=[0, 4], structure="complex",
                generators={"phi": {"matrix": phi.tolist()}},
                tensor=[{"coefficient": 1, "generator": "phi", "constructor": "self_adjoint"}],
                checks=["symmetries"], tol=1e-10,
            )
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == code
        if code == 2:
            assert "phi is not self-adjoint" in capsys.readouterr().err
            return
        (result,) = json.loads(report_path.read_text())["checks"].values()
        assert result["pass"] is (code == 0)
        if case == "small_square":
            assert result["generators"]["phi"]["square_type"] == "none"
        else:
            assert 1e-10 < result["max_violation"] < 1e-9

    # The model follows the declared structure: a complex one has no j and k
    # to rebuild with, whatever the signature.
    @pytest.mark.parametrize("structure, model, constants", [
        ("complex", "complex_pair", [1.5, 0.75]),
        ("quaternion", "quaternionic", [1.5, 0.75, 0.0, 0.0]),
    ])
    def test_solve_constants_model_is_the_declared_structure(
        self, tmp_path, structure, model, constants
    ):
        cfg = quaternionic_config(
            structure=structure,
            generators={"id": {"builtin": "identity"}, "J": {"builtin": "standard_J"}},
            tensor=[
                {"coefficient": 1.5, "generator": "id", "constructor": "self_adjoint"},
                {"coefficient": 0.75, "generator": "J", "constructor": "skew_adjoint"},
            ],
            checks=["solve_constants"],
        )
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 0
        result = json.loads(report_path.read_text())["checks"]["solve_constants"]
        assert result["model"] == model
        assert result["constants"] == pytest.approx(constants)

    @pytest.mark.parametrize("p", [4, 8])
    def test_timelike_only_signature(self, tmp_path, p):
        # Every complex line of (p, 0) is timelike, where J R(pi) has the
        # negated spectrum; solve_constants inverts the spacelike relations only.
        cfg = {
            "signature": [p, 0],
            "structure": "complex",
            "generators": {"id": {"builtin": "identity"}, "J": {"builtin": "standard_J"}},
            "tensor": [
                {"coefficient": 1, "generator": "id", "constructor": "self_adjoint"},
                {"coefficient": 2, "generator": "J", "constructor": "skew_adjoint"},
            ],
            "checks": ["jordan_ip_complex", "almost_complex", "spectrum", "solve_constants"],
            "samples": 20,
            "seed": 3,
        }
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 1
        checks = json.loads(report_path.read_text())["checks"]
        assert checks["jordan_ip_complex"]["constant"] is True
        assert list(checks["jordan_ip_complex"]["invariants_by_type"]) == ["timelike"]
        assert checks["almost_complex"]["pass"] is True
        assert checks["spectrum"]["consistent"] is True
        spectrum = checks["spectrum"]["spectrum"]
        values = {round(entry["eigenvalue"], 6): entry["multiplicity"] for entry in spectrum}
        assert values == {-4.0: p // 2 - 1, -7.0: 1}
        assert checks["solve_constants"] == {
            "pass": False,
            "error": f"no spacelike complex line exists in signature ({p}, 0)",
        }

    def test_spectrum_error_outside_valueerror_propagates(self, tmp_path, monkeypatch):
        # Only ValueErrors (structure errors, degenerate planes, LinAlgError)
        # become a failed check with an "error" field; anything else is a bug.
        def broken(*args, **kwargs):
            raise TypeError("not a spectrum error")

        monkeypatch.setattr("curvlab.cli.spectrum_of_JR", broken)
        config = write_config(tmp_path, "cfg.json", quaternionic_config(checks=["spectrum"]))
        with pytest.raises(TypeError, match="not a spectrum error"):
            main(["run", config, "--quiet"])

    def test_internal_error_exits_three_with_traceback(self, tmp_path, monkeypatch, capsys):
        # main() lets the exception propagate (see above); the console script
        # turns it into exit code 3, apart from a failed check (1).
        def broken(*args, **kwargs):
            raise RuntimeError("internal failure")

        monkeypatch.setattr("curvlab.cli.check_symmetries", broken)
        config = write_config(tmp_path, "cfg.json", quaternionic_config(checks=["symmetries"]))
        monkeypatch.setattr("sys.argv", ["curvlab", "run", config, "--quiet"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: internal failure" in err

    # Valid configs whose samples are rare under standard-normal draws: (2,8) and (2,14)
    # timelike planes, and (2,30) timelike lines.  They fail or pass, and never exit 3.
    @pytest.mark.parametrize("sig, structure, terms, check", [
        ((2, 8), "none", [("id", 1)], "jordan_ip_real"),
        ((2, 14), "none", [("id", 1)], "jordan_ip_real"),
        ((2, 30), "complex", [("id", 1), ("J", 2)], "jordan_ip_complex"),
    ], ids=["real_2_8", "real_2_14", "complex_2_30"])
    def test_rare_causal_types_never_exit_three(self, tmp_path, monkeypatch, sig, structure, terms, check):
        kinds = {"id": ("identity", "self_adjoint"), "J": ("standard_J", "skew_adjoint")}
        cfg = {
            "signature": list(sig),
            "structure": structure,
            "generators": {name: {"builtin": kinds[name][0]} for name, _ in terms},
            "tensor": [{"coefficient": c, "generator": name, "constructor": kinds[name][1]} for name, c in terms],
            "checks": [check],
            "samples": 100,
            "seed": 0,
            "tol": 1e-10,
        }
        config = write_config(tmp_path, "cfg.json", cfg)
        codes = []
        for seed in range(5):
            monkeypatch.setattr("sys.argv", ["curvlab", "run", config, "--seed", str(seed), "--quiet"])
            with pytest.raises(SystemExit) as exc:
                entry()
            codes.append(exc.value.code)
        assert set(codes) <= {0, 1}

    def test_nilpotent_pair_builtins(self, tmp_path):
        cfg = {
            "signature": [4, 4],
            "structure": "complex",
            "generators": {
                "phi1": {"builtin": "nilpotent_null_pair"},
                "phi2": {"builtin": "nilpotent_null_pair_partner"},
            },
            "tensor": [
                {"coefficient": 1, "generator": "phi1", "constructor": "self_adjoint"},
                {"coefficient": 1, "generator": "phi2", "constructor": "skew_adjoint"},
            ],
            "checks": ["admissible", "admissible_pair", "jordan_ip_complex"],
            "samples": 15,
            "seed": 0,
            "tol": 1e-8,
        }
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        assert report["checks"]["admissible_pair"]["min_line_rank"] == 4
        assert report["checks"]["jordan_ip_complex"]["rank"] == 4

    def test_nilpotent_builtin_and_real_check(self, tmp_path):
        cfg = {
            "signature": [2, 2],
            "structure": "complex",
            "generators": {"phi": {"builtin": "nilpotent_null_pair"}},
            "tensor": [{"coefficient": 1, "generator": "phi", "constructor": "self_adjoint"}],
            "checks": ["symmetries", "admissible", "jordan_ip_complex"],
            "samples": 20,
            "seed": 1,
            "tol": 1e-10,
        }
        config = write_config(tmp_path, "cfg.json", cfg)
        report_path = tmp_path / "r.json"
        assert main(["run", config, "--report", str(report_path), "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        admissible = report["checks"]["admissible"]["generators"]["phi"]
        assert admissible["square_type"] == "nilpotent_kernel_equals_range"


class TestListBuiltins:
    def test_includes_generator_names(self, capsys):
        assert main(["list-builtins"]) == 0
        out = capsys.readouterr().out
        for name in ("identity", "standard_J", "quat_i", "quat_j", "quat_k", "nilpotent_null_pair"):
            assert name in out

    def test_includes_every_check_name(self):
        text = list_builtins()
        for name in CHECK_NAMES:
            assert name in text

    def test_stable_across_calls(self):
        assert list_builtins() == list_builtins()

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2
