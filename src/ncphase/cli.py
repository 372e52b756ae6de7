"""Batch command-line front-end.

Subcommands::

    verify        run the symbolic, symmetry and diagonal-identity suites
    spectrum      write the classified level table at one parameter point
    sweep         re-run spectrum along a one-parameter scan
    uncertainty   evaluate the closed-form bounds, optionally brute-forced

Exit codes: 0 all checks pass / output written, 1 verification failure,
2 usage error, 3 numeric failure.  Identical configurations produce
byte-identical output files: enumeration orders are fixed and numbers are
formatted to 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields as dataclass_fields
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .algebra import (
    CANONICAL,
    DEFAULT_POLICY,
    FIRST_ORDER_CROSS_POLICY,
    NONCOMMUTATIVE,
    TruncationPolicy,
    UNDEFORMED_POLICY,
    Expression,
    Scalar,
    commutator,
    formal_adjoint,
    jacobi,
    normal_order,
    powers_of,
)
from .fock import (
    FockBasis,
    NumericError,
    ParameterPoint,
    diagonal_check,
    level_table_csv,
    level_table_json,
    spectrum,
)
from .hamiltonian import build_hamiltonian, h_tau, h_theta_eta, reference_hamiltonian
from .maps import BOPP, SubstitutionMap, flipped_bopp, named_operator, substitute
from .parsing import parse
from .rationals import GaussianRational
from .symmetry import P_THETA_ETA_T, PT, check_algebra_invariance, is_invariant
from .uncertainty import (
    MomentError,
    QuadratureError,
    brute_force_min_product,
    uncertainty_report,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _i_scalar(**exponents: int) -> Expression:
    return Expression.from_scalar(Scalar(GaussianRational(0, 1), powers_of(**exponents)))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _flat_closure_checks(bopp: SubstitutionMap) -> list:
    """The six flat commutators of the Bopp-shifted variables.

    Four reproduce the flat table exactly; [x, px] and [y, py] carry the
    documented second-order residue i theta eta / 4 hbar, reported with
    status "known".
    """
    x, y = substitute(parse("x"), bopp), substitute(parse("y"), bopp)
    px, py = substitute(parse("px"), bopp), substitute(parse("py"), bopp)
    residue = _i_scalar(theta=1, eta=1, hbar=-1) * Fraction(1, 4)
    cases = [
        ("[x, y]", x, y, _i_scalar(theta=1), "pass"),
        ("[x, px]", x, px, _i_scalar(hbar=1) + residue, "known"),
        ("[y, py]", y, py, _i_scalar(hbar=1) + residue, "known"),
        ("[px, py]", px, py, _i_scalar(eta=1), "pass"),
        ("[x, py]", x, py, Expression.zero(), "pass"),
        ("[y, px]", y, px, Expression.zero(), "pass"),
    ]
    rows = []
    for name, a, b, expected, status in cases:
        got = commutator(a, b, CANONICAL)
        ok = got == expected
        rows.append(
            {
                "suite": "flat-closure",
                "name": name,
                "status": status if ok else "fail",
                "residual": str(got - expected),
            }
        )
    return rows


def _deformed_closure_checks() -> list:
    X, Y = named_operator("X"), named_operator("Y")
    Px, Py = named_operator("Px"), named_operator("Py")
    one_plus = parse("1 + tau*y^2")
    mixed = normal_order(
        _i_scalar(tau=1) * 2 * Expression.generator("y")
        * (Py * Scalar(GaussianRational(1), powers_of(theta=1))
           + X * Scalar(GaussianRational(1), powers_of(hbar=1))),
        NONCOMMUTATIVE,
    )
    cases = [
        ("[X, Y]", X, Y, normal_order(_i_scalar(theta=1) * one_plus, NONCOMMUTATIVE)),
        ("[X, Px]", X, Px, normal_order(_i_scalar(hbar=1) * one_plus, NONCOMMUTATIVE)),
        ("[Y, Py]", Y, Py, normal_order(_i_scalar(hbar=1) * one_plus, NONCOMMUTATIVE)),
        ("[X, Py]", X, Py, mixed),
        ("[Px, Py]", Px, Py, normal_order(_i_scalar(eta=1) * one_plus, NONCOMMUTATIVE)),
        ("[Y, Px]", Y, Px, Expression.zero()),
    ]
    rows = []
    for name, a, b, expected in cases:
        got = commutator(a, b, NONCOMMUTATIVE)
        rows.append(
            {
                "suite": "deformed-closure",
                "name": name,
                "status": "pass" if got == expected else "fail",
                "residual": str(got - expected),
            }
        )
    return rows


def _jacobi_checks() -> list:
    ops = {name: named_operator(name) for name in ("X", "Y", "Px", "Py")}
    names = list(ops)
    rows = []
    for skip in range(4):
        triple = [n for k, n in enumerate(names) if k != skip]
        got = jacobi(ops[triple[0]], ops[triple[1]], ops[triple[2]], NONCOMMUTATIVE)
        rows.append(
            {
                "suite": "jacobi",
                "name": "(" + ", ".join(triple) + ")",
                "status": "pass" if got.is_zero() else "fail",
                "residual": str(got),
            }
        )
    return rows


def _adjoint_checks() -> list:
    X, Y = named_operator("X"), named_operator("Y")
    Px, Py = named_operator("Px"), named_operator("Py")
    two_i_tau = _i_scalar(tau=1) * 2
    cases = [
        ("X^dag = X + 2 i tau theta Y",
         X, X + two_i_tau * Scalar(GaussianRational(1), powers_of(theta=1)) * Y),
        ("Y^dag = Y", Y, Y),
        ("Px^dag = Px", Px, Px),
        ("Py^dag = Py - 2 i tau hbar Y",
         Py, Py - two_i_tau * Scalar(GaussianRational(1), powers_of(hbar=1)) * Y),
    ]
    rows = []
    for name, op, expected in cases:
        got = normal_order(formal_adjoint(op), NONCOMMUTATIVE)
        want = normal_order(expected, NONCOMMUTATIVE)
        rows.append(
            {
                "suite": "adjoint",
                "name": name,
                "status": "pass" if got == want else "fail",
                "residual": str(got - want),
            }
        )
    return rows


def _truncation_check(bopp: SubstitutionMap) -> list:
    built = build_hamiltonian(DEFAULT_POLICY, bopp=bopp)
    expected = reference_hamiltonian()
    return [
        {
            "suite": "hamiltonian",
            "name": "default truncation equals the three named pieces",
            "status": "pass" if built == expected else "fail",
            "residual": str(built - expected),
        }
    ]


def _symmetry_checks() -> list:
    rows = []
    for row in check_algebra_invariance(NONCOMMUTATIVE, P_THETA_ETA_T):
        rows.append(
            {
                "suite": "symmetry",
                "name": f"PthetaetaT preserves {row['relation']}",
                "status": "pass" if row["preserved"] else "fail",
                "residual": row["residual"],
            }
        )
    full = reference_hamiltonian()
    expectations = [
        ("full Hamiltonian invariant under PthetaetaT",
         is_invariant(full, P_THETA_ETA_T), True),
        ("angular coupling anti-invariant under PT",
         is_invariant(normal_order(h_theta_eta(), CANONICAL), PT), False),
        ("tau correction invariant under PT",
         is_invariant(normal_order(h_tau(), CANONICAL), PT), True),
    ]
    for name, got, want in expectations:
        rows.append(
            {
                "suite": "symmetry",
                "name": name,
                "status": "pass" if got is want else "fail",
                "residual": f"is_invariant={got}",
            }
        )
    return rows


def _diagonal_checks(cutoff: int, point: ParameterPoint) -> list:
    report = diagonal_check(FockBasis(cutoff), point)
    rows = []
    for row in report["identities"]:
        rows.append(
            {
                "suite": "diagonal-identities",
                "name": row["identity"],
                "status": "pass" if row["pass"] else "fail",
                "residual": f"max_rel_err={row['max_rel_err']:.12g}"
                f" at {row['worst_state']}",
            }
        )
    return rows


def cmd_verify(args) -> int:
    bopp = flipped_bopp() if args.debug_flip_epsilon else BOPP
    point = _point_from_args(args)
    checks = []
    checks.extend(_flat_closure_checks(bopp))
    checks.extend(_deformed_closure_checks())
    checks.extend(_jacobi_checks())
    checks.extend(_adjoint_checks())
    checks.extend(_truncation_check(bopp))
    checks.extend(_symmetry_checks())
    checks.extend(_diagonal_checks(args.cutoff, point))
    failures = [c for c in checks if c["status"] == "fail"]
    report = {
        "version": __version__,
        "checks": checks,
        "passed": len(checks) - len(failures),
        "failed": len(failures),
        "all_pass": not failures,
    }
    _write_output(args.out, json.dumps(report, indent=2) + "\n")
    if failures:
        print(
            f"first failing identity: {failures[0]['suite']}: {failures[0]['name']}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum / sweep
# ---------------------------------------------------------------------------


def resolve_policy(text: str) -> TruncationPolicy:
    """Resolve a --policy value: a keyword or an inline JSON object."""
    keywords = {
        "default": DEFAULT_POLICY,
        "cross": FIRST_ORDER_CROSS_POLICY,
        "undeformed": UNDEFORMED_POLICY,
    }
    if text in keywords:
        return keywords[text]
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a policy keyword or JSON object: {text!r}") from exc
    return TruncationPolicy.of(
        caps=data.get("caps", {}),
        forbidden=data.get("forbidden", []),
    )


def _point_from_args(args, **overrides) -> ParameterPoint:
    kwargs = {
        "hbar": args.hbar,
        "m": args.mass,
        "omega": args.omega,
        "theta": args.theta,
        "eta": args.eta,
        "tau": args.tau,
    }
    kwargs.update(overrides)
    return ParameterPoint(**kwargs)


def _check_cutoff(cutoff: int) -> None:
    # Below 4 no level is inside the truncation-exact interior.
    if cutoff < 4:
        raise UsageError("--cutoff must be at least 4")


def _check_finite(flag: str, value: float, positive: bool = False) -> None:
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "positive and finite" if positive else "finite"
        raise UsageError(f"{flag} must be {kind}")


def cmd_spectrum(args) -> int:
    _check_cutoff(args.cutoff)
    point = _point_from_args(args)
    policy = resolve_policy(args.policy)
    table = spectrum(point, args.cutoff, build_hamiltonian(policy))
    if args.format == "csv":
        _write_output(args.out, level_table_csv(table))
    else:
        payload = {"parameters": point.values(), "cutoff": args.cutoff,
                   "levels": level_table_json(table)}
        _write_output(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


_SWEEPABLE = tuple(f.name for f in dataclass_fields(ParameterPoint))


def cmd_sweep(args) -> int:
    if args.param not in _SWEEPABLE:
        raise UsageError(f"--param must be one of {', '.join(_SWEEPABLE)}")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    _check_cutoff(args.cutoff)
    _check_finite("--from", args.sweep_from)
    _check_finite("--to", args.sweep_to)
    # The unswept parameters are checked once here; a bad swept value fails
    # only its own point.
    _point_from_args(args, **{args.param: getattr(ParameterPoint(), args.param)})
    policy = resolve_policy(args.policy)
    hamiltonian = build_hamiltonian(policy)
    values = np.linspace(args.sweep_from, args.sweep_to, args.steps)
    rows, failures = [], []
    for value in values:
        try:
            point = _point_from_args(args, **{args.param: float(value)})
            table = spectrum(point, args.cutoff, hamiltonian)
        except (NumericError, ValueError, ArithmeticError) as exc:
            failures.append({"param": args.param, "value": float(value),
                             "error": str(exc)})
            continue
        for row in table.rows:
            rows.append(
                (float(value), row.n_plus, row.n_minus, row.e_analytic,
                 row.e_numeric, abs(row.e_numeric - row.e_analytic))
            )
    if args.format == "csv":
        lines = [
            ",".join(
                (args.param, "n_plus", "n_minus", "E_analytic",
                 "E_numeric_re", "E_numeric_im", "abs_err")
            )
        ]
        for value, n_plus, n_minus, analytic, numeric, err in rows:
            lines.append(
                ",".join(
                    [f"{value:.12g}", str(n_plus), str(n_minus),
                     f"{analytic:.12g}", f"{numeric.real:.12g}",
                     f"{numeric.imag:.12g}", f"{err:.12g}"]
                )
            )
        for failure in failures:
            print(f"sweep point failed: {failure}", file=sys.stderr)
        _write_output(args.out, "\n".join(lines) + "\n")
    else:
        payload = {
            "param": args.param,
            "rows": [
                {
                    args.param: value,
                    "n_plus": n_plus,
                    "n_minus": n_minus,
                    "E_analytic": float(f"{analytic:.12g}"),
                    "E_numeric_re": float(f"{numeric.real:.12g}"),
                    "E_numeric_im": float(f"{numeric.imag:.12g}"),
                    "abs_err": float(f"{err:.12g}"),
                }
                for value, n_plus, n_minus, analytic, numeric, err in rows
            ],
            "failures": failures,
        }
        _write_output(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# uncertainty
# ---------------------------------------------------------------------------


def cmd_uncertainty(args) -> int:
    point = _point_from_args(args)
    if point.hbar * point.tau >= 2:
        raise UsageError("hbar * tau must be below 2")
    _check_finite("--y-mean", args.y_mean)
    brute = None
    if args.brute_force:
        if args.sigma_steps < 1:
            raise UsageError("--sigma-steps must be at least 1")
        if args.kick_steps < 1:
            raise UsageError("--kick-steps must be at least 1")
        _check_finite("--sigma-min", args.sigma_min, positive=True)
        _check_finite("--sigma-max", args.sigma_max, positive=True)
        _check_finite("--kick-max", args.kick_max)
        _check_finite("--center", args.center)
        sigmas = np.exp(
            np.linspace(np.log(args.sigma_min), np.log(args.sigma_max), args.sigma_steps)
        )
        kicks = (
            np.linspace(-args.kick_max, args.kick_max, args.kick_steps)
            if args.kick_steps > 1
            else [0.0]
        )
        brute = brute_force_min_product(
            point, sigmas=[float(s) for s in sigmas],
            kicks=[float(k) for k in kicks], center=args.center,
        )
    report = uncertainty_report(point, args.y_mean, brute_force=brute)
    _write_output(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    pass


def _write_output(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


_DEFAULTS = {
    "hbar": 1.0,
    "mass": 1.0,
    "omega": 1.0,
    "theta": 0.0,
    "eta": 0.0,
    "tau": 0.0,
    "cutoff": 12,
    "format": "csv",
    "out": None,
    "policy": "default",
    "y_mean": 0.0,
    "sigma_min": 0.2,
    "sigma_max": 30.0,
    "sigma_steps": 200,
    "kick_max": 0.0,
    "kick_steps": 1,
    "center": 0.0,
    "steps": 11,
    "sweep_from": 0.0,
    "sweep_to": 0.01,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file mirroring the flags; flags win")
    parser.add_argument("--hbar", type=float)
    parser.add_argument("--mass", type=float)
    parser.add_argument("--omega", type=float)
    parser.add_argument("--theta", type=float)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--cutoff", type=int)
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--out", help="output path; '-' or omitted for stdout")
    parser.add_argument("--policy", help="default | cross | undeformed | JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncphase",
        description="Deformed phase-space oscillator: verification, spectra, bounds",
    )
    parser.add_argument("--version", action="version", version=f"ncphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    _add_common(p_verify)
    p_verify.add_argument(
        "--debug-flip-epsilon",
        action="store_true",
        help="fault drill: flip the Bopp sign convention and watch it fail",
    )

    p_spec = sub.add_parser("spectrum", help="classified level table")
    _add_common(p_spec)

    p_sweep = sub.add_parser("sweep", help="one-parameter scan of the spectrum")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, help=f"one of {', '.join(_SWEEPABLE)}")
    p_sweep.add_argument("--from", dest="sweep_from", type=float)
    p_sweep.add_argument("--to", dest="sweep_to", type=float)
    p_sweep.add_argument("--steps", type=int)

    p_unc = sub.add_parser("uncertainty", help="closed-form bounds report")
    _add_common(p_unc)
    p_unc.add_argument("--y-mean", dest="y_mean", type=float)
    p_unc.add_argument("--brute-force", action="store_true")
    p_unc.add_argument("--sigma-min", dest="sigma_min", type=float)
    p_unc.add_argument("--sigma-max", dest="sigma_max", type=float)
    p_unc.add_argument("--sigma-steps", dest="sigma_steps", type=int)
    p_unc.add_argument("--kick-max", dest="kick_max", type=float)
    p_unc.add_argument("--kick-steps", dest="kick_steps", type=int)
    p_unc.add_argument("--center", type=float)
    return parser


# What a config value must be, by the type of its default ("out" is a path).
_CONFIG_KINDS = {float: "a number", int: "an integer", str: "a string"}


def _read_config(path: str) -> dict:
    """Load a JSON config object, checking every key and the type of its value."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    for key, value in config.items():
        name = key.replace("-", "_")
        if name not in _DEFAULTS:
            raise UsageError(f"unknown config key {key!r}")
        kind = type(_DEFAULTS[name]) if _DEFAULTS[name] is not None else str
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise UsageError(f"config key {key!r} must be {_CONFIG_KINDS[kind]}")
    return config


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the optional JSON config, then from defaults."""
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, default in _DEFAULTS.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            json_key = key.replace("_", "-")
            if key in config:
                setattr(args, key, config[key])
            elif json_key in config:
                setattr(args, key, config[json_key])
            else:
                setattr(args, key, default)
    return args


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args = _merge_config(args)
        # Looked up at call time, so a rebinding of cmd_* on this module counts.
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, QuadratureError, MomentError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:  # e.g. a float power overflowing
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
