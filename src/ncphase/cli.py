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
import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from . import __version__
from .algebra import (
    CANONICAL,
    DEFAULT_POLICY,
    FIRST_ORDER_CROSS_POLICY,
    NONCOMMUTATIVE,
    PARAMS,
    TruncationPolicy,
    UNDEFORMED_POLICY,
    Expression,
    commutator,
    formal_adjoint,
    jacobi,
    normal_order,
)
from .fock import (
    LEVEL_COLUMNS,
    FockBasis,
    LevelTable,
    NumericError,
    ParameterPoint,
    Plan,
    compile_plan,
    csv_text,
    diagonal_check,
    level_fields,
    level_table_csv,
    level_table_json,
    spectra,
    spectrum,
)
from .hamiltonian import build_hamiltonian, h_tau, h_theta_eta, reference_hamiltonian
from .maps import BOPP, flipped_bopp, named_operator, substitute
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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_cases(bopp: Mapping[str, Expression], cutoff: int, point: ParameterPoint) -> list:
    """Every verify check in report order, as (suite, name, value, expected,
    status): the row takes ``status`` when value == expected, else "fail".

    An identity compares two expressions and reports what is left of
    value - expected.  A check made by another layer (algebra and PT
    invariance, the diagonal identities) has the value (verdict, residual
    text) and expects the passing verdict.
    """
    x, y, px, py = (substitute(parse(name), bopp) for name in ("x", "y", "px", "py"))
    X, Y, Px, Py = (named_operator(name) for name in ("X", "Y", "Px", "Py"))

    def nc(text: str) -> Expression:
        return normal_order(parse(text), NONCOMMUTATIVE)

    def adjoint(op: Expression) -> Expression:
        return normal_order(formal_adjoint(op), NONCOMMUTATIVE)

    # [x, px] and [y, py] keep the documented second-order residue
    # i theta eta / 4 hbar, reported with status "known".
    residue = Expression.from_scalar(
        GaussianRational(0, Fraction(1, 4)), theta=1, eta=1, hbar=-1
    )
    zero = Expression.zero()
    full = reference_hamiltonian()
    cases = [
        ("flat-closure", "[x, y]", commutator(x, y, CANONICAL), parse("i*theta"), "pass"),
        ("flat-closure", "[x, px]", commutator(x, px, CANONICAL),
         parse("i*hbar") + residue, "known"),
        ("flat-closure", "[y, py]", commutator(y, py, CANONICAL),
         parse("i*hbar") + residue, "known"),
        ("flat-closure", "[px, py]", commutator(px, py, CANONICAL), parse("i*eta"), "pass"),
        ("flat-closure", "[x, py]", commutator(x, py, CANONICAL), zero, "pass"),
        ("flat-closure", "[y, px]", commutator(y, px, CANONICAL), zero, "pass"),
        ("deformed-closure", "[X, Y]", commutator(X, Y, NONCOMMUTATIVE),
         nc("i*theta*(1 + tau*y^2)"), "pass"),
        ("deformed-closure", "[X, Px]", commutator(X, Px, NONCOMMUTATIVE),
         nc("i*hbar*(1 + tau*y^2)"), "pass"),
        ("deformed-closure", "[Y, Py]", commutator(Y, Py, NONCOMMUTATIVE),
         nc("i*hbar*(1 + tau*y^2)"), "pass"),
        ("deformed-closure", "[X, Py]", commutator(X, Py, NONCOMMUTATIVE),
         nc("2*i*tau*y*(theta*Py + hbar*X)"), "pass"),
        ("deformed-closure", "[Px, Py]", commutator(Px, Py, NONCOMMUTATIVE),
         nc("i*eta*(1 + tau*y^2)"), "pass"),
        ("deformed-closure", "[Y, Px]", commutator(Y, Px, NONCOMMUTATIVE), zero, "pass"),
    ]
    ops = {"X": X, "Y": Y, "Px": Px, "Py": Py}
    # The triples without X, Y, Px and Py in turn.
    for triple in reversed(list(itertools.combinations(ops, 3))):
        value = jacobi(*(ops[name] for name in triple), NONCOMMUTATIVE)
        cases.append(("jacobi", f"({', '.join(triple)})", value, zero, "pass"))
    cases += [
        ("adjoint", "X^dag = X + 2 i tau theta Y", adjoint(X),
         nc("X + 2*i*tau*theta*Y"), "pass"),
        ("adjoint", "Y^dag = Y", adjoint(Y), nc("Y"), "pass"),
        ("adjoint", "Px^dag = Px", adjoint(Px), nc("Px"), "pass"),
        ("adjoint", "Py^dag = Py - 2 i tau hbar Y", adjoint(Py),
         nc("Py - 2*i*tau*hbar*Y"), "pass"),
        ("hamiltonian", "default truncation equals the three named pieces",
         build_hamiltonian(DEFAULT_POLICY, bopp=bopp), full, "pass"),
    ]
    for row in check_algebra_invariance(NONCOMMUTATIVE, P_THETA_ETA_T):
        cases.append(("symmetry", f"{P_THETA_ETA_T.kind} preserves {row['relation']}",
                      (row["preserved"], row["residual"]), True, "pass"))
    for name, expression, variant, expected in (
        (f"full Hamiltonian invariant under {P_THETA_ETA_T.kind}", full, P_THETA_ETA_T, True),
        (f"angular coupling anti-invariant under {PT.kind}",
         normal_order(h_theta_eta(), CANONICAL), PT, False),
        (f"tau correction invariant under {PT.kind}",
         normal_order(h_tau(), CANONICAL), PT, True),
    ):
        verdict = is_invariant(expression, variant)
        cases.append(
            ("symmetry", name, (verdict, f"is_invariant={verdict}"), expected, "pass")
        )
    for row in diagonal_check(FockBasis(cutoff), point)["identities"]:
        residual = f"max_rel_err={row['max_rel_err']:.12g} at {row['worst_state']}"
        cases.append(
            ("diagonal-identities", row["identity"], (row["pass"], residual), True, "pass")
        )
    return cases


def cmd_verify(args) -> int:
    _check_cutoff(args.cutoff)
    bopp = flipped_bopp() if args.debug_flip_epsilon else BOPP
    point = _point_from_args(args)
    checks = []
    for suite, name, value, expected, status in _verify_cases(bopp, args.cutoff, point):
        if isinstance(value, Expression):
            residual = str(value - expected)
        else:
            value, residual = value  # a verdict and its residual text
        checks.append({"suite": suite, "name": name,
                       "status": status if value == expected else "fail",
                       "residual": residual})
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
    except json.JSONDecodeError:
        data = None
    if not isinstance(data, dict):
        raise UsageError(f"not a policy keyword or JSON object: {text!r}")
    unknown = sorted(set(data) - {"caps", "forbidden"})
    if unknown:
        raise UsageError(f"unknown policy key {unknown[0]!r}; use caps and forbidden")
    return TruncationPolicy.of(
        caps=data.get("caps", {}),
        forbidden=data.get("forbidden", []),
    )


def _point_from_args(args, **overrides) -> ParameterPoint:
    kwargs = {name: getattr(args, name) for name in PARAMS}
    return ParameterPoint(**{**kwargs, **overrides})


def _check_cutoff(cutoff: int) -> None:
    # Below 4 no level is inside the truncation-exact interior.
    if cutoff < 4:
        raise UsageError("--cutoff must be at least 4")


def _check_finite(flag: str, value: float, positive: bool = False) -> None:
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "positive and finite" if positive else "finite"
        raise UsageError(f"{flag} must be {kind}")


@functools.lru_cache(maxsize=1)
def _plan(policy: str, cutoff: int) -> Plan:
    """The Hamiltonian of a --policy text compiled over the cutoff's basis.

    Only the last (policy, cutoff) is kept, so in-process callers of main
    that repeat them compile once.  A policy that does not resolve raises
    before the kept plan is dropped; the kept plan is dropped before the
    new one is compiled, so two plans are never held at once.
    """
    hamiltonian = build_hamiltonian(resolve_policy(policy))
    _plan.cache_clear()
    return compile_plan(hamiltonian, FockBasis(cutoff))


def cmd_spectrum(args) -> int:
    _check_cutoff(args.cutoff)
    point = _point_from_args(args)
    table = spectrum(point, _plan(args.policy, args.cutoff))
    if args.format == "csv":
        _write_output(args.out, level_table_csv(table))
    else:
        payload = {"parameters": point.values(), "cutoff": args.cutoff,
                   "levels": level_table_json(table)}
        _write_output(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# A sweep row: the swept parameter's value, then these level columns.
SWEEP_COLUMNS = LEVEL_COLUMNS[:6]


def cmd_sweep(args) -> int:
    """Write the level rows of ``--steps`` points from ``--from`` to ``--to``.

    The plan is compiled once, or taken from ``_plan``'s last key;
    ``spectra`` solves all points as stacks, one ``numpy.linalg.eig`` call
    per block stack.  A point that fails is
    reported with its error and the others are still written.
    """
    if args.param not in PARAMS:
        raise UsageError(f"--param must be one of {', '.join(PARAMS)}")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    _check_cutoff(args.cutoff)
    _check_finite("--from", args.sweep_from)
    _check_finite("--to", args.sweep_to)
    # A width that overflows would make the swept values inf and NaN.
    _check_finite("--to minus --from", args.sweep_to - args.sweep_from)
    # The unswept parameters are checked once here; a bad swept value fails
    # only its own point.
    _point_from_args(args, **{args.param: getattr(ParameterPoint(), args.param)})
    plan = _plan(args.policy, args.cutoff)
    values = [float(value) for value in np.linspace(args.sweep_from, args.sweep_to, args.steps)]
    outcomes = []
    for value in values:
        try:
            outcomes.append(_point_from_args(args, **{args.param: value}))
        except ValueError as exc:
            outcomes.append(exc)
    tables = spectra([point for point in outcomes if isinstance(point, ParameterPoint)], plan)
    columns = (args.param, *SWEEP_COLUMNS)
    rows, failures = [], []
    for value, outcome in zip(values, outcomes):
        if isinstance(outcome, ParameterPoint):
            outcome = next(tables)
        if not isinstance(outcome, LevelTable):
            failures.append({"param": args.param, "value": value, "error": str(outcome)})
            continue
        for row in outcome.rows:
            fields = level_fields(row)
            rows.append({args.param: value, **{c: fields[c] for c in SWEEP_COLUMNS}})
    if args.format == "csv":
        for failure in failures:
            print(f"sweep point failed: {failure}", file=sys.stderr)
        _write_output(args.out, csv_text(columns, rows))
    else:
        payload = {"param": args.param, "rows": rows, "failures": failures}
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
        # The closed-form moments divide by sigma^2, and the quadrature map
        # is 4 sigma wide: the smaller sigma's square must not underflow.
        flag, sigma = min(("--sigma-min", args.sigma_min), ("--sigma-max", args.sigma_max),
                          key=lambda bound: bound[1])
        if sigma * sigma == 0:
            raise UsageError(f"{flag} squared must be positive")
        _check_finite("--kick-max", args.kick_max)
        if args.kick_steps > 1:
            # A grid width that overflows would make the kicks inf and NaN.
            _check_finite("--kick-max times 2", 2 * args.kick_max)
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


@dataclass
class _Flag:
    """A value flag, declared once: the parser, the defaults and the config
    file checks all read it.  Its config key is the flag without "--"."""

    flag: str
    kind: type  # float, int or str
    default: object
    commands: tuple  # the subcommands that read it
    dest: str = ""  # if empty, argparse's: the flag without "--", "-" as "_"
    choices: Optional[tuple] = None
    help: Optional[str] = None

    def __post_init__(self):
        self.dest = self.dest or self.flag[2:].replace("-", "_")


_ALL = ("verify", "spectrum", "sweep", "uncertainty")
_FLAGS = {f.flag: f for f in (
    _Flag("--hbar", float, 1.0, _ALL),
    _Flag("--mass", float, 1.0, _ALL, dest="m"),
    _Flag("--omega", float, 1.0, _ALL),
    _Flag("--theta", float, 0.0, _ALL),
    _Flag("--eta", float, 0.0, _ALL),
    _Flag("--tau", float, 0.0, _ALL),
    _Flag("--out", str, None, _ALL, help="output path; '-' or omitted for stdout"),
    _Flag("--cutoff", int, 12, ("verify", "spectrum", "sweep")),
    _Flag("--format", str, "csv", ("spectrum", "sweep"), choices=("csv", "json")),
    _Flag("--policy", str, "default", ("spectrum", "sweep"),
          help="default | cross | undeformed | JSON"),
    _Flag("--from", float, 0.0, ("sweep",), dest="sweep_from"),
    _Flag("--to", float, 0.01, ("sweep",), dest="sweep_to"),
    _Flag("--steps", int, 11, ("sweep",)),
    _Flag("--y-mean", float, 0.0, ("uncertainty",)),
    _Flag("--sigma-min", float, 0.2, ("uncertainty",)),
    _Flag("--sigma-max", float, 30.0, ("uncertainty",)),
    _Flag("--sigma-steps", int, 200, ("uncertainty",)),
    _Flag("--kick-max", float, 0.0, ("uncertainty",)),
    _Flag("--kick-steps", int, 1, ("uncertainty",)),
    _Flag("--center", float, 0.0, ("uncertainty",)),
)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncphase",
        description="Deformed phase-space oscillator: verification, spectra, bounds",
    )
    parser.add_argument("--version", action="version", version=f"ncphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "verify": sub.add_parser("verify", help="run the identity suites"),
        "spectrum": sub.add_parser("spectrum", help="classified level table"),
        "sweep": sub.add_parser("sweep", help="one-parameter scan of the spectrum"),
        "uncertainty": sub.add_parser("uncertainty", help="closed-form bounds report"),
    }
    for p in commands.values():
        p.add_argument("--config", help="JSON file mirroring the flags; flags win")
    # Each subcommand takes only the flags it reads.
    for f in _FLAGS.values():
        for command in f.commands:
            commands[command].add_argument(
                f.flag, dest=f.dest, type=f.kind, choices=f.choices, help=f.help
            )
    commands["verify"].add_argument(
        "--debug-flip-epsilon",
        action="store_true",
        help="fault drill: flip the Bopp sign convention and watch it fail",
    )
    commands["sweep"].add_argument(
        "--param", required=True, help=f"one of {', '.join(PARAMS)}"
    )
    commands["uncertainty"].add_argument("--brute-force", action="store_true")
    return parser


# The JSON values each flag type accepts, and how a usage error names them.
_JSON_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
}


def _read_config(path: str, command: str) -> dict:
    """Load a JSON config object and check each key and value as its flag's;
    returns the values by flag."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    values, keys = {}, {}
    for key, value in config.items():
        flag = _FLAGS.get("--" + key.replace("_", "-"))
        if flag is None:
            raise UsageError(f"unknown config key {key!r}")
        if flag.flag in keys:
            raise UsageError(f"config keys {keys[flag.flag]!r} and {key!r} both set {flag.flag}")
        keys[flag.flag] = key
        if command not in flag.commands:
            raise UsageError(f"{command} does not read config key {key!r}")
        accepted, kind = _JSON_TYPES[flag.kind]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise UsageError(f"config key {key!r} must be {kind}")
        if flag.choices and value not in flag.choices:
            raise UsageError(f"config key {key!r} must be one of {', '.join(flag.choices)}")
        values[flag.flag] = value
    return values


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill each unset flag from the optional JSON config, else from its default."""
    config = _read_config(args.config, args.command) if args.config else {}
    for f in _FLAGS.values():
        if args.command in f.commands and getattr(args, f.dest) is None:
            setattr(args, f.dest, config.get(f.flag, f.default))
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
    # e.g. a float power overflowing, or a grid too large to allocate
    except (ArithmeticError, MemoryError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
