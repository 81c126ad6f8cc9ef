import json
import weakref

import numpy as np
import pytest

from curvlab import BilinearSpace, adjoint, cli, curvature, standard_complex_structure
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
        assert "witness" in result and result["witness"]["line"] is not None

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


class TestTermTensorsReleased:
    def test_no_term_tensor_alive_while_checks_run(self, tmp_path, monkeypatch):
        # Every constructor goes through _generator_tensor; a check patched
        # into the table counts how many of its tensors are still alive.
        refs, alive = [], []
        build = curvature._generator_tensor

        def recording(*args):
            tensor = build(*args)
            refs.append(weakref.ref(tensor))
            return tensor

        needs, symmetries = cli.CHECKS["symmetries"]

        def probe(**context):
            alive.append(sum(ref() is not None for ref in refs))
            return symmetries(**context)

        monkeypatch.setattr(curvature, "_generator_tensor", recording)
        monkeypatch.setitem(cli.CHECKS, "symmetries", (needs, probe))
        config = write_config(tmp_path, "cfg.json", quaternionic_config(checks=["symmetries"]))
        assert main(["run", config, "--quiet"]) == 0
        assert len(refs) == 4
        assert alive == [0]


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
