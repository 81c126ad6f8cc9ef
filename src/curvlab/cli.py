"""Config-driven check suites with machine-readable JSON reports.

Usage:
    curvlab run CONFIG [--seed N] [--samples N] [--tol X] [--report PATH] [--quiet]
    curvlab list-builtins

The config is a JSON object naming a signature, an optional complex or
quaternion structure, a set of named generators, the tensor to build from
them, and the checks to run.  Its numbers must be finite and no field takes a
bool.  Reports carry verdicts, max violations, and witness data, echo the
seed, and contain no timestamps, so identical inputs produce byte-identical
report bodies.  Check builders return library values as they are, and one
function turns them into JSON types.  Reports are strict JSON: a NaN or an
infinity in one is an internal error, and no report is written.

Exit codes: 0 all checks pass, 1 any check fails, 2 config, usage or report
path error, 3 internal error (the console script prints the traceback to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from enum import Enum
from functools import cache, partial
from typing import Any

import numpy as np

from . import __version__
from .complex_structures import (
    ComplexStructure,
    QuaternionStructure,
    check_admissible,
    check_admissible_pair,
    nilpotent_null_pair,
    nilpotent_null_pair_partner,
    standard_complex_structure,
    standard_quaternion_structure,
)
from .curvature import (
    check_gray_identity,
    check_J_invariance,
    check_symmetries,
    _generator_rows,
    _generator_sum,
)
from .jordan_ip import (
    OrientedPlane,
    PlaneClass,
    SpectrumModel,
    SpectrumSpec,
    build_complex_pair_tensor,
    build_quaternionic_tensor,
    check_jordan_ip,
    check_jordan_ip_real,
    sample_complex_lines,
    solve_constants,
    spectrum_of_JR,
    _LINE_TYPES,
    _planes_by_type,
)
from .pseudo_linalg import DEFAULT_TOL, BilinearSpace, JordanInvariants

SCHEMA_VERSION = 1

# builtin -> (structure it needs, or None; builder from (space, J, quat)).
_GENERATORS = {
    "identity": (None, lambda space, J, quat: np.eye(space.m)),
    "standard_J": ("complex or quaternion", lambda space, J, quat: J.J),
    "quat_i": ("quaternion", lambda space, J, quat: quat.i),
    "quat_j": ("quaternion", lambda space, J, quat: quat.j),
    "quat_k": ("quaternion", lambda space, J, quat: quat.k),
    "nilpotent_null_pair": (None, lambda space, J, quat: nilpotent_null_pair(space)),
    "nilpotent_null_pair_partner": (None, lambda space, J, quat: nilpotent_null_pair_partner(space)),
}
GENERATOR_BUILTINS = tuple(_GENERATORS)


class ConfigError(Exception):
    """Invalid configuration; carries the offending field in the message."""


def list_builtins() -> str:
    lines = ["generators:"]
    lines += [f"  {name}" for name in GENERATOR_BUILTINS]
    lines.append("  (or an explicit matrix: {\"matrix\": [[...], ...]})")
    lines.append("checks:")
    lines += [f"  {name}" for name in CHECK_NAMES]
    return "\n".join(lines)


def _has_type(value: Any, kind) -> bool:
    """isinstance, except that no config field takes a bool: JSON true is not 1."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(value: Any) -> bool:
    """Whether a config value is a number, not a bool, that is finite as a float."""
    return _has_type(value, (int, float)) and abs(value) <= sys.float_info.max


def _require(cfg: dict, field: str, kind, where: str = "config") -> Any:
    if field not in cfg:
        raise ConfigError(f"{where}: missing required field '{field}'")
    value = cfg[field]
    if not _has_type(value, kind):
        wanted = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{where}.{field}: expected {wanted}, got {type(value).__name__}")
    return value


@cache
def _build_structures(
    space: BilinearSpace, structure: str
) -> tuple[ComplexStructure | None, QuaternionStructure | None]:
    """The immutable structures of one (signature, structure), made once per process;
    a call that raises is not cached, so every run reports its config error."""
    if structure == "none":
        return None, None
    try:
        if structure == "complex":
            return standard_complex_structure(space), None
        if structure == "quaternion":
            quat = standard_quaternion_structure(space)
            return quat.as_complex, quat
    except ValueError as exc:
        raise ConfigError(f"config.structure: {exc}") from exc
    raise ConfigError(f"config.structure: unknown structure '{structure}'")


def _build_generator(
    name: str,
    spec: Any,
    space: BilinearSpace,
    J: ComplexStructure | None,
    quat: QuaternionStructure | None,
) -> np.ndarray:
    where = f"config.generators.{name}"
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object")
    if "builtin" in spec:
        builtin = spec["builtin"]
        if not isinstance(builtin, str) or builtin not in _GENERATORS:
            raise ConfigError(f"{where}: unknown builtin '{builtin}'")
        needs, build = _GENERATORS[builtin]
        if needs is not None and (quat if needs == "quaternion" else J) is None:
            raise ConfigError(f"{where}: {builtin} needs structure {needs}")
        try:
            return build(space, J, quat)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if "matrix" in spec:
        rows = spec["matrix"]
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == len(rows[0]) and all(map(_finite, row))
            for row in rows
        ):
            raise ConfigError(f"{where}: matrix must be a list of equally long rows of finite numbers")
        mat = np.array(rows, dtype=float)
        if mat.shape != (space.m, space.m):
            raise ConfigError(f"{where}: matrix has shape {mat.shape}, expected ({space.m}, {space.m})")
        return mat
    raise ConfigError(f"{where}: needs either 'builtin' or 'matrix'")


def _to_json(value: Any) -> Any:
    """The JSON form of a report value, chosen by its type, dict keys included."""
    match value:
        case dict():
            return {_to_json(k): _to_json(v) for k, v in value.items()}
        case list() | tuple():
            return [_to_json(v) for v in value]
        case Enum():
            return value.value
        case complex():
            return [value.real, value.imag]
        case OrientedPlane(x=x, y=y):
            return {"x": x.tolist(), "y": y.tolist()}
        case JordanInvariants(clusters=clusters):
            clusters = [{"eigenvalue": lam, "multiplicity": mult} for lam, mult in clusters]
            # The scale is the unit of fingerprint comparisons, and the private
            # member counts serve rank tests; neither is a Jordan invariant.
            fields = {k: v for k, v in vars(value).items() if k not in ("scale", "_members")}
            return _to_json({**fields, "clusters": clusters})
        case SpectrumSpec(eigenvalues=eigenvalues):
            return [{"eigenvalue": lam, "multiplicity": mu} for lam, mu in eigenvalues]
    return value


def _symmetries(tensor, tol, **_) -> dict:
    report = check_symmetries(tensor, tol)
    return {
        "pass": report.passed,
        "max_violation": report.max_violation,
        "witness": {
            "antisymmetry": report.antisymmetry_witness,
            "pair_symmetry": report.pair_symmetry_witness,
            "bianchi": report.bianchi_witness,
        },
    }


def _quadruple_report(report) -> dict:
    """The report of a tensor identity check, with the worst entry's indices on failure."""
    out = {"pass": report.passed, "max_violation": report.max_violation}
    if not report.passed:
        out["witness"] = {"quadruple": report.witness}
    return out


def _almost_complex(tensor, J, tol, **_) -> dict:
    return _quadruple_report(check_J_invariance(tensor, J, tol))


def _gray(tensor, J, tol, **_) -> dict:
    return _quadruple_report(check_gray_identity(tensor, J, tol))


def _jordan_ip_complex(tensor, J, samples, seed, tol, **_) -> dict:
    report = check_jordan_ip(tensor, J, n=samples, seed=seed, tol=tol)
    out = {
        "pass": report.constant,
        "constant": report.constant,
        "rank": report.rank,
        "invariants_by_type": report.invariants_by_type,
        "seed": report.seed,
    }
    if report.witness is not None:
        anchor, offender = report.witness
        out["witness"] = {"anchor": anchor, "offender": offender}
    return out


def _jordan_ip_real(tensor, samples, seed, tol, **_) -> dict:
    report = check_jordan_ip_real(tensor, n=samples, seed=seed, tol=tol)
    out = {
        "pass": report.constant and report.rank_type_independent,
        "constant_by_type": report.constant_by_type,
        "rank_by_type": report.rank_by_type,
        "rank_type_independent": report.rank_type_independent,
        "invariants_by_type": report.invariants_by_type,
        "seed": report.seed,
    }
    if report.witnesses:
        out["witness"] = {
            cls: {"anchor": a, "offender": b} for cls, (a, b) in report.witnesses.items()
        }
    return out


def _spectrum(tensor, J, samples, seed, tol, **_) -> dict:
    try:
        _, lines = next(_planes_by_type(J.space, _LINE_TYPES, partial(sample_complex_lines, J), samples, seed))
        spectra = [spectrum_of_JR(tensor, J, plane, tol) for plane in lines]
    except ValueError as exc:
        return {"pass": False, "error": str(exc)}
    anchor = spectra[0]
    consistent = all(anchor.matches(s, max(tol, DEFAULT_TOL)) for s in spectra[1:])
    return {"pass": consistent, "consistent": consistent, "spectrum": anchor, "seed": seed}


def _admissible(generators, J, tol, **_) -> dict:
    reports = {name: check_admissible(phi, J, tol) for name, phi in generators.items()}
    results = {
        name: {"admissible": r.admissible, "class": r.admissible_class,
               "square_type": r.square_type, "residuals": r.residuals}
        for name, r in reports.items()
    }
    return {"pass": all(r.admissible for r in reports.values()), "generators": results}


def _admissible_pair(generators, pair_names, J, samples, seed, tol, **_) -> dict:
    phi1, phi2 = (generators[name] for name in pair_names)
    try:
        report = check_admissible_pair(phi1, phi2, J, n_lines=samples, seed=seed, tol=tol)
    except ValueError as exc:
        return {"pass": False, "pair": pair_names, "error": str(exc)}
    return {
        "pass": report.admissible,
        "pair": pair_names,
        "residuals": report.residuals,
        "min_line_rank": report.min_line_rank,
        "seed": report.seed,
    }


def _solve_constants(tensor, J, quat, seed, tol, **_) -> dict:
    # The model is the structure the config declared: a complex one has no j or k.
    if quat is not None:
        model = SpectrumModel.QUATERNIONIC
        rebuild = lambda *c: build_quaternionic_tensor(quat, *c)
    else:
        model = SpectrumModel.COMPLEX_PAIR
        rebuild = lambda *c: build_complex_pair_tensor(J, *c)
    try:
        # The relations of solve_constants hold on spacelike lines only.
        plane = sample_complex_lines(J, PlaneClass.SPACELIKE, 1, seed)[0]
        measured = spectrum_of_JR(tensor, J, plane, tol)
        coeffs = solve_constants(measured, model)
        round_trip = spectrum_of_JR(rebuild(*coeffs), J, plane, tol)
        passed = measured.matches(round_trip, max(tol, DEFAULT_TOL))
    except ValueError as exc:
        return {"pass": False, "error": str(exc)}
    return {
        "pass": passed,
        "model": model,
        "constants": coeffs,
        "spectrum": measured,
        "round_trip_spectrum": round_trip,
    }


# check name -> (needs a complex structure, report builder).  Builders take the
# run's context as keywords and return the report dict of that check.
CHECKS = {
    "symmetries": (False, _symmetries),
    "almost_complex": (True, _almost_complex),
    "gray": (True, _gray),
    "jordan_ip_complex": (True, _jordan_ip_complex),
    "jordan_ip_real": (False, _jordan_ip_real),
    "spectrum": (True, _spectrum),
    "admissible": (True, _admissible),
    "admissible_pair": (True, _admissible_pair),
    "solve_constants": (True, _solve_constants),
}
CHECK_NAMES = tuple(CHECKS)


def run(config_path: str, args: argparse.Namespace) -> tuple[int, dict]:
    try:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # ValueError: bytes not UTF-8, or an over-long integer
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")

    signature = _require(cfg, "signature", list)
    if len(signature) != 2 or not all(_has_type(v, int) for v in signature):
        raise ConfigError("config.signature: expected [p, q] with integer entries")
    structure = cfg.get("structure", "none")
    if not isinstance(structure, str):
        raise ConfigError("config.structure: expected a string")
    samples = args.samples if args.samples is not None else cfg.get("samples", 100)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    tol = args.tol if args.tol is not None else cfg.get("tol", 1e-10)
    if not _has_type(samples, int) or samples < 1:
        raise ConfigError("config.samples: expected a positive integer")
    if not _has_type(seed, int):
        raise ConfigError("config.seed: expected an integer")
    if seed < 0:
        raise ConfigError("config.seed: expected a non-negative integer")
    if not _has_type(tol, (int, float)) or not tol > 0:
        raise ConfigError("config.tol: expected a positive number")
    if not _finite(tol):
        raise ConfigError("config.tol: expected a finite number")
    tol = float(tol)

    try:
        space = BilinearSpace(signature[0], signature[1])
    except ValueError as exc:
        raise ConfigError(f"config.signature: {exc}") from exc
    J, quat = _build_structures(space, structure)

    generator_specs = _require(cfg, "generators", dict)
    generators = {
        name: _build_generator(name, spec, space, J, quat)
        for name, spec in generator_specs.items()
    }

    tensor_terms = _require(cfg, "tensor", list)
    if not tensor_terms:
        raise ConfigError("config.tensor: needs at least one term")
    signs = {"self_adjoint": 1, "skew_adjoint": -1}

    def tensor_term(idx: int, term: Any) -> tuple[float, np.ndarray, int]:
        where = f"config.tensor[{idx}]"
        if not isinstance(term, dict):
            raise ConfigError(f"{where}: expected an object")
        coeff = _require(term, "coefficient", (int, float), where)
        if not _finite(coeff):
            raise ConfigError(f"{where}.coefficient: expected a finite number")
        gen_name = _require(term, "generator", str, where)
        constructor = _require(term, "constructor", str, where)
        if gen_name not in generators:
            raise ConfigError(f"{where}.generator: '{gen_name}' is not declared in generators")
        if constructor not in signs:
            raise ConfigError(f"{where}.constructor: expected {' or '.join(signs)}")
        sign = signs[constructor]
        try:
            return float(coeff), _generator_rows(space, generators[gen_name], sign), sign
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    # Every term is checked before the sum is built, slab by slab, with no term tensor.
    tensor = _generator_sum(space, [tensor_term(idx, term) for idx, term in enumerate(tensor_terms)])

    check_names = _require(cfg, "checks", list)
    for name in check_names:
        if name not in CHECK_NAMES:
            raise ConfigError(f"config.checks: unknown check '{name}'")

    pair_names = cfg.get("pair")
    if pair_names is not None:
        if (
            not isinstance(pair_names, list)
            or len(pair_names) != 2
            or not all(isinstance(n, str) for n in pair_names)
        ):
            raise ConfigError("config.pair: expected a list of two generator names")
        for n in pair_names:
            if n not in generators:
                raise ConfigError(f"config.pair: '{n}' is not declared in generators")

    for name in check_names:
        if CHECKS[name][0] and J is None:
            raise ConfigError(f"config.checks: '{name}' needs structure complex or quaternion")
    if "admissible_pair" in check_names:
        pair_names = pair_names or list(dict.fromkeys(t["generator"] for t in tensor_terms))[:2]
        if len(pair_names) != 2:
            raise ConfigError(
                "config.pair: admissible_pair needs two generators, either via 'pair' "
                "or at least two distinct generators in 'tensor'"
            )

    context = dict(
        tensor=tensor, generators=generators, pair_names=pair_names,
        J=J, quat=quat, samples=samples, seed=seed, tol=tol,
    )
    checks = _to_json({name: CHECKS[name][1](**context) for name in check_names})

    all_pass = all(result["pass"] for result in checks.values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "signature": list(signature),
        "structure": structure,
        "samples": samples,
        "seed": seed,
        "tol": tol,
        "checks": checks,
        "all_pass": all_pass,
    }
    return (0 if all_pass else 1), report


@cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and reused by every later main call."""
    parser = argparse.ArgumentParser(prog="curvlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="run the check suite described by a JSON config")
    run_parser.add_argument("config", help="path to the JSON config")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--samples", type=int, default=None, help="override the sample count")
    run_parser.add_argument("--tol", type=float, default=None, help="override the tolerance")
    run_parser.add_argument("--report", default=None, help="write the JSON report to this path")
    run_parser.add_argument("--quiet", action="store_true", help="suppress per-check summary lines")
    sub.add_parser("list-builtins", help="list generator builders and check names")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "list-builtins":
        print(list_builtins())
        return 0

    try:
        code, report = run(args.config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    body = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
        if not args.quiet:
            for name, result in report["checks"].items():
                print(f"{'PASS' if result['pass'] else 'FAIL'} {name}")
            print(f"report written to {args.report}")
    elif not args.quiet:
        print(body)
    return code


def entry() -> None:
    try:
        code = main()
    except Exception:
        import traceback  # only on this path, so a clean run pays no import
        traceback.print_exc()
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    entry()
