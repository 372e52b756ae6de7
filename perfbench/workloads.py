"""The four benchmark workloads: seeded inputs, the unit operation, and its check.

Each workload draws its operations from a finite pool, so that golden results
for every input the seed can produce are recorded once (``record_golden.py``)
and kept under ``golden/``.  A seed picks the operations of one pass and their
order; the program only ever sees the generated command lines or expressions.

Every operation goes through the package from outside: the CLI subcommands
run in-process through ``ncphase.cli.main``, the symbolic chain through the
package's public functions.  Names are looked up on the modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import ncphase
import ncphase.cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Energies, overlaps and sweep values are printed to 12 significant digits;
# a different but correct eigensolver moves them by far less than this.
LEVEL_TOLERANCE = 1e-9
# The quadrature promises 1e-10 per integral; scan fields are ratios and
# differences of such integrals, so allow a wider margin.  A closed-form scan
# that agrees with the quadrature to 1e-9 passes.
SCAN_RTOL = 1e-6
SCAN_ATOL = 1e-9

ACCEPTANCE_POINT = ("--theta", "0.02", "--eta", "0.03", "--tau", "0.005")
LEVEL_COLUMNS = "n_plus,n_minus,E_analytic,E_numeric_re,E_numeric_im,abs_err,residual,overlap"


class WorkloadError(RuntimeError):
    """An operation's output could not be read or compared."""


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def run_cli(argv: list) -> tuple:
    """ncphase.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ncphase.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _close(value: float, golden: float, rtol: float, atol: float) -> bool:
    return abs(value - golden) <= rtol * abs(golden) + atol


def _levels_match(rows: list, golden: list, label_columns: int) -> bool:
    """Labels (the first ``label_columns`` entries) exact, numbers within
    LEVEL_TOLERANCE relative to max(1, |golden|)."""
    if len(rows) != len(golden):
        return False
    for row, want in zip(rows, golden):
        if len(row) != len(want) or row[:label_columns] != want[:label_columns]:
            return False
        for value, expected in zip(row[label_columns:], want[label_columns:]):
            if not _close(value, expected, 0.0, LEVEL_TOLERANCE * max(1.0, abs(expected))):
                return False
    return True


@dataclass(frozen=True)
class Op:
    key: str  # golden entry
    payload: tuple


class Workload:
    name = ""

    def pool(self) -> list:
        """Every operation the seed can draw, in a fixed order."""
        raise NotImplementedError

    def generate(self, seed: int) -> list:
        """The operations of one pass for ``seed``."""
        raise NotImplementedError

    def execute(self, op: Op):
        """Run the operation; the return value is its raw output."""
        raise NotImplementedError

    def outcome(self, op: Op, raw):
        """JSON-ready result of an operation, compared with the golden one."""
        raise NotImplementedError

    def matches(self, result, golden) -> bool:
        return result == golden

    def warm_up(self, ops: list) -> None:
        """Untimed and unchecked: first-call costs (lazy imports, LAPACK
        dispatch) stay out of the timed passes."""
        self.execute(ops[0])

    def parts(self, op: Op, raw) -> dict:
        """Timings inside one operation, as name -> seconds."""
        return {}

    def expected(self, op: Op, golden: dict):
        return golden[op.key]

    def extras(self, samples: list, busy_s: float) -> dict:
        """Metrics that apply to this workload only, as name -> (value, unit),
        from its (op, latency, parts) samples and the summed pass wall time."""
        return {}

    def load_golden(self) -> dict:
        with open(GOLDEN_DIR / f"{self.name}.json", encoding="utf-8") as handle:
            return json.load(handle)

    def check(self, op: Op, raw, golden: dict) -> bool:
        """True iff the operation ran and its result matches the golden one."""
        if isinstance(raw, BaseException):
            return False
        try:
            return self.matches(self.outcome(op, raw), self.expected(op, golden))
        except (WorkloadError, ValueError, KeyError, TypeError, IndexError):
            return False


def _parse_levels(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != LEVEL_COLUMNS:
        raise WorkloadError("unexpected level-table header")
    rows = []
    for fields in csv.reader(lines[1:]):
        n_plus, n_minus, e_an, e_re, e_im, err, _residual, overlap = fields
        rows.append([int(n_plus), int(n_minus), float(e_an), float(e_re),
                     float(e_im), float(err), float(overlap)])
    return rows


class SpectrumLarge(Workload):
    """`ncphase spectrum` at the acceptance point at the ROADMAP cutoffs.

    The unit operation is one ladder: the level tables at N = 16, 32 and 50,
    in that order.  Timing each call as its own operation would put the
    median on the N=16 calls, which last about a second in all and so sample
    the CPU's speed over a one-second window, while on a shared virtual
    machine that speed drifts by up to 1.6x over seconds (README.md, "Noise").
    Ascending order also keeps the allocator's state the same in every run:
    an N=16 spectrum takes 0.070 s in a fresh process and 0.044 s after an
    N=32 one.  The per-cutoff times are printed beside the end-to-end
    metrics.  The seed picks each call's output format.
    """

    name = "spectrum-large"
    CUTOFFS = (16, 32, 50)

    def pool(self) -> list:
        return [Op(f"N{n}", (n, fmt)) for n in self.CUTOFFS for fmt in ("csv", "json")]

    def generate(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        calls = tuple(rng.choice([op for op in self.pool() if op.payload[0] == n])
                      for n in self.CUTOFFS)
        return [Op("ladder", calls)]

    def warm_up(self, ops: list) -> None:
        _spectrum_call(ops[0].payload[0])

    def execute(self, op: Op):
        return [_spectrum_call(call) for call in op.payload]

    def parts(self, op: Op, raw) -> dict:
        return {f"spectrum_n{call.payload[0]}_s": seconds
                for call, (_output, seconds) in zip(op.payload, raw)}

    def expected(self, op: Op, golden: dict):
        return [golden[call.key] for call in op.payload]

    def outcome(self, op: Op, raw):
        tables = []
        for call, ((code, out, _err), _seconds) in zip(op.payload, raw):
            if code != 0:
                raise WorkloadError(f"exit code {code}")
            if call.payload[1] == "csv":
                tables.append(_parse_levels(out))
            else:
                tables.append([[row["n_plus"], row["n_minus"], row["E_analytic"],
                                row["E_numeric_re"], row["E_numeric_im"], row["abs_err"],
                                row["overlap"]] for row in json.loads(out)["levels"]])
        return tables

    def matches(self, result, golden) -> bool:
        return len(result) == len(golden) and all(
            _levels_match(table, want, 2) for table, want in zip(result, golden))

    def extras(self, samples: list, busy_s: float) -> dict:
        names = sorted({name for _op, _t, parts in samples for name in parts})
        return {name: (statistics.median(p[name] for _op, _t, p in samples if name in p), "s")
                for name in names}


def _spectrum_call(call: Op) -> tuple:
    """One `ncphase spectrum` call at the acceptance point: (raw, seconds)."""
    cutoff, fmt = call.payload
    started = time.perf_counter()
    raw = run_cli(["spectrum", *ACCEPTANCE_POINT, "--cutoff", str(cutoff), "--format", fmt])
    return raw, time.perf_counter() - started


class SweepSmall(Workload):
    """`ncphase sweep` with the default 11 steps at cutoff 12 (dimension 91).

    Each invocation sweeps one parameter of the acceptance point over a small
    range; the seed picks the parameter, the range and the output format.
    """

    name = "sweep-small"
    CUTOFF = 12
    PER_PASS = 6
    RANGES = {
        "tau": ((0.0, 0.005), (0.0, 0.01), (0.001, 0.006), (0.002, 0.012),
                (0.0025, 0.0075), (0.004, 0.008), (0.005, 0.015), (0.0, 0.02)),
        "theta": ((0.0, 0.02), (0.0, 0.04), (0.005, 0.025), (0.01, 0.03),
                  (0.01, 0.05), (0.02, 0.04), (0.015, 0.035), (0.0, 0.06)),
        "eta": ((0.0, 0.03), (0.0, 0.06), (0.01, 0.04), (0.015, 0.045),
                (0.02, 0.05), (0.03, 0.06), (0.005, 0.035), (0.0, 0.08)),
    }

    def pool(self) -> list:
        return [
            Op(f"{param}:{lo:g}:{hi:g}", (param, lo, hi, fmt))
            for param, ranges in self.RANGES.items()
            for lo, hi in ranges
            for fmt in ("csv", "json")
        ]

    def generate(self, seed: int) -> list:
        return _rng(self.name, seed).sample(self.pool(), self.PER_PASS)

    def execute(self, op: Op):
        param, lo, hi, fmt = op.payload
        return run_cli(["sweep", *ACCEPTANCE_POINT, "--cutoff", str(self.CUTOFF),
                        "--param", param, "--from", repr(lo), "--to", repr(hi),
                        "--format", fmt])

    def outcome(self, op: Op, raw):
        code, out, err = raw
        if code != 0:
            raise WorkloadError(f"exit code {code}")
        param, _lo, _hi, fmt = op.payload
        if fmt == "json":
            payload = json.loads(out)
            if payload["failures"]:
                raise WorkloadError(f"sweep points failed: {payload['failures']}")
            return [[row["n_plus"], row["n_minus"], row[param], row["E_analytic"],
                     row["E_numeric_re"], row["E_numeric_im"], row["abs_err"]]
                    for row in payload["rows"]]
        if "sweep point failed" in err:
            raise WorkloadError(err.strip())
        lines = out.splitlines()
        if lines[0] != f"{param},n_plus,n_minus,E_analytic,E_numeric_re,E_numeric_im,abs_err":
            raise WorkloadError("unexpected sweep header")
        rows = []
        for value, n_plus, n_minus, e_an, e_re, e_im, err_ in csv.reader(lines[1:]):
            rows.append([int(n_plus), int(n_minus), float(value), float(e_an),
                         float(e_re), float(e_im), float(err_)])
        return rows

    def matches(self, result, golden) -> bool:
        return _levels_match(result, golden, 2)


class UncertaintyScan(Workload):
    """`ncphase uncertainty --brute-force`: criterion 7's 200-state scan plus
    seeded (tau, center, kick grid) points of 10 sigmas x 3 kicks each.

    A centered point scans in about 0.22 s, an off-center one in 0.33 s, so
    every pass holds the same number of points per center and the seed draws
    their tau and kick grid.
    """

    name = "uncertainty-scan"
    CRITERION_7 = ("--tau", "0.04", "--theta", "0.1", "--brute-force")
    TAUS = (0.01, 0.02, 0.04, 0.08)
    CENTERS = (0.0, 0.5, -1.0, 2.0)
    KICK_MAXES = (0.5, 1.0)
    SIGMA_STEPS, KICK_STEPS = 10, 3
    PER_CENTER = 2

    def pool(self) -> list:
        ops = [Op("criterion-7", self.CRITERION_7)]
        for tau in self.TAUS:
            for center in self.CENTERS:
                for kick_max in self.KICK_MAXES:
                    ops.append(Op(
                        f"tau={tau:g}:center={center:g}:kick={kick_max:g}",
                        ("--tau", repr(tau), "--theta", "0.1", "--y-mean", repr(center),
                         "--brute-force", "--center", repr(center),
                         "--sigma-min", "0.3", "--sigma-max", "10",
                         "--sigma-steps", str(self.SIGMA_STEPS),
                         "--kick-max", repr(kick_max), "--kick-steps", str(self.KICK_STEPS)),
                    ))
        return ops

    def generate(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        pool = self.pool()
        ops = [pool[0]]
        for center in self.CENTERS:
            ops += rng.sample([op for op in pool if f":center={center:g}:" in op.key],
                              self.PER_CENTER)
        return ops

    def execute(self, op: Op):
        return run_cli(["uncertainty", *op.payload])

    def extras(self, samples: list, busy_s: float) -> dict:
        states = sum(200 if op.key == "criterion-7" else self.SIGMA_STEPS * self.KICK_STEPS
                     for op, _latency, _parts in samples)
        return {"states_per_s": (states / busy_s, "1/s")}

    def outcome(self, op: Op, raw):
        code, out, _err = raw
        if code != 0:
            raise WorkloadError(f"exit code {code}")
        return json.loads(out)

    def matches(self, result, golden) -> bool:
        if isinstance(golden, dict):
            return (isinstance(result, dict) and result.keys() == golden.keys()
                    and all(self.matches(result[k], golden[k]) for k in golden))
        if isinstance(golden, (bool, int, str)):
            return type(result) is type(golden) and result == golden
        return (isinstance(result, (int, float)) and not isinstance(result, bool)
                and _close(result, golden, SCAN_RTOL, SCAN_ATOL))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_RESIDUAL = re.compile(r"max_rel_err=(\S+) at (.*)")


class SymbolicExact(Workload):
    """Seeded polynomials of capital degree at most 3 in X, Y, Px, Py through
    parse, normal_order, formal_adjoint, is_invariant, substitute(BOPP) and
    commutator with a seeded linear partner, plus one `ncphase verify`.

    The cost of an operation is set by its leading degree-3 word: each X or
    Py factor carries the (1 + tau y^2) deformation, and the order of the
    factors sets how much normal ordering the commutator needs (0.05 s for
    X*Py*Py against 0.25 s for Py*X*X).  So every pass holds one polynomial
    per word of ``WORDS``, and the seed draws which variant: the
    coefficients, a degree-1 term beside the word, and the partner.
    """

    name = "symbolic-exact"
    WORDS = ("X*X*X", "Py*X*X", "X*Py*Py", "Py*Py*Py",  # three deformed factors
             "X*Y*Py", "Py*Px*X",                       # two
             "Px*X*Y", "Y*Py*Px",                       # one
             "Y*Px*Y", "Px*Px*Y")                       # none
    VARIANTS = 8
    CAPITALS = ("X", "Y", "Px", "Py")
    COEFFICIENTS = ("1", "-1", "2", "-3", "1/2", "-3/2", "i", "-i", "2*i", "-1/2*i")
    FACTORS = ("", "", "theta*", "tau*", "eta*", "hbar*")

    def _term(self, rng: random.Random, word: str) -> str:
        return f"{rng.choice(self.COEFFICIENTS)}*{rng.choice(self.FACTORS)}{word}"

    def pool(self) -> list:
        rng = random.Random("symbolic-exact:pool")
        ops = []
        for word in self.WORDS:
            for k in range(self.VARIANTS):
                text = f"{self._term(rng, word)} + {self._term(rng, rng.choice(self.CAPITALS))}"
                partner = " + ".join(self._term(rng, c) for c in self.CAPITALS)
                ops.append(Op(f"{word}#{k}", (text, partner)))
        ops.append(Op("verify", ()))
        return ops

    def generate(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        pool = self.pool()
        ops = [pool[-1]] + [
            pool[w * self.VARIANTS + rng.randrange(self.VARIANTS)] for w in range(len(self.WORDS))
        ]
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op):
        if op.key == "verify":
            return run_cli(["verify"])
        text, partner_text = op.payload
        table = ncphase.NONCOMMUTATIVE
        e = ncphase.parse(text)
        partner = ncphase.parse(partner_text)
        return {
            "parse": e,
            "normal_order": ncphase.normal_order(e, table),
            "formal_adjoint": ncphase.formal_adjoint(e),
            "is_invariant": ncphase.is_invariant(e, ncphase.P_THETA_ETA_T),
            "substitute": ncphase.substitute(e, ncphase.BOPP),
            "commutator": ncphase.commutator(e, partner, table),
        }

    def outcome(self, op: Op, raw):
        if op.key != "verify":
            return {name: _digest(str(value)) for name, value in raw.items()}
        code, out, _err = raw
        if code != 1:  # exit 1 by design: the bundled diagonal forms are wrong
            raise WorkloadError(f"verify exit code {code}, expected 1")
        report = json.loads(out)
        for row in report["checks"]:
            if row["suite"] == "diagonal-identities":
                match = _RESIDUAL.fullmatch(row["residual"])
                if match is None:
                    raise WorkloadError(f"unreadable residual {row['residual']!r}")
                # A wrong closed form has a reproducible worst state; a passing
                # identity's error is roundoff, whose size and place are arbitrary.
                value = float(match[1])
                row["residual"] = [value, match[2] if value > LEVEL_TOLERANCE else None]
        return report

    def matches(self, result, golden) -> bool:
        if "checks" not in golden:
            return result == golden

        def errors(report):
            return [row["residual"][0] for row in report["checks"]
                    if row["suite"] == "diagonal-identities"]

        def without_errors(report):
            return [dict(row, residual=row["residual"][1])
                    if row["suite"] == "diagonal-identities" else row
                    for row in report["checks"]]

        return (
            {**result, "checks": without_errors(result)} == {**golden, "checks": without_errors(golden)}
            and all(_close(value, expected, LEVEL_TOLERANCE, 1e-12)
                    for value, expected in zip(errors(result), errors(golden)))
        )


WORKLOADS = {w.name: w for w in (SpectrumLarge(), SweepSmall(), UncertaintyScan(), SymbolicExact())}

