"""Command-line interface: subcommands, wire formats, exit codes,
config-file merging and byte determinism."""

import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ncphase.cli
from ncphase.algebra import TruncationPolicy
from ncphase.cli import (
    EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, SWEEP_COLUMNS, main,
    resolve_policy,
)
from ncphase.fock import ParameterPoint, compile_plan
from ncphase.uncertainty import Gaussian, gaussian_moments


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -----------------------------------------------------------------------


def test_verify_reports_and_exit_code(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, _stdout, stderr = run(["verify", "--cutoff", "8", "--out", str(out)], capsys)
    report = json.loads(out.read_text())
    # the symbolic, symmetry and Hamiltonian suites pass in full
    for check in report["checks"]:
        if check["suite"] != "diagonal-identities":
            assert check["status"] in ("pass", "known"), check
    # the two same-direction flat commutators carry the documented residue
    known = [c for c in report["checks"] if c["status"] == "known"]
    assert {c["name"] for c in known} == {"[x, px]", "[y, py]"}
    # the bundled diagonal closed forms disagree with the exact diagonals,
    # so verification honestly fails overall
    diag = [c for c in report["checks"] if c["suite"] == "diagonal-identities"]
    assert [c["status"] for c in diag] == ["fail", "pass", "fail", "fail"]
    assert code == EXIT_VERIFY_FAILED
    assert "first failing identity" in stderr


# The whole symbolic and symmetry part of `verify --cutoff 8`, in report order.
PINNED_VERIFY_ROWS = [
    ("flat-closure", "[x, y]", "pass", "0"),
    ("flat-closure", "[x, px]", "known", "0"),
    ("flat-closure", "[y, py]", "known", "0"),
    ("flat-closure", "[px, py]", "pass", "0"),
    ("flat-closure", "[x, py]", "pass", "0"),
    ("flat-closure", "[y, px]", "pass", "0"),
    ("deformed-closure", "[X, Y]", "pass", "0"),
    ("deformed-closure", "[X, Px]", "pass", "0"),
    ("deformed-closure", "[Y, Py]", "pass", "0"),
    ("deformed-closure", "[X, Py]", "pass", "0"),
    ("deformed-closure", "[Px, Py]", "pass", "0"),
    ("deformed-closure", "[Y, Px]", "pass", "0"),
    ("jacobi", "(Y, Px, Py)", "pass", "0"),
    ("jacobi", "(X, Px, Py)", "pass", "0"),
    ("jacobi", "(X, Y, Py)", "pass", "0"),
    ("jacobi", "(X, Y, Px)", "pass", "0"),
    ("adjoint", "X^dag = X + 2 i tau theta Y", "pass", "0"),
    ("adjoint", "Y^dag = Y", "pass", "0"),
    ("adjoint", "Px^dag = Px", "pass", "0"),
    ("adjoint", "Py^dag = Py - 2 i tau hbar Y", "pass", "0"),
    ("hamiltonian", "default truncation equals the three named pieces", "pass", "0"),
    ("symmetry", "PthetaetaT preserves [x, y]", "pass", "0"),
    ("symmetry", "PthetaetaT preserves [x, px]", "pass", "0"),
    ("symmetry", "PthetaetaT preserves [x, py]", "pass", "0"),
    ("symmetry", "PthetaetaT preserves [y, px]", "pass", "0"),
    ("symmetry", "PthetaetaT preserves [y, py]", "pass", "0"),
    ("symmetry", "PthetaetaT preserves [px, py]", "pass", "0"),
    ("symmetry", "full Hamiltonian invariant under PthetaetaT", "pass", "is_invariant=True"),
    ("symmetry", "angular coupling anti-invariant under PT", "pass", "is_invariant=False"),
    ("symmetry", "tau correction invariant under PT", "pass", "is_invariant=True"),
]


def test_verify_report_is_pinned(capsys):
    code, stdout, _e = run(["verify", "--cutoff", "8"], capsys)
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(stdout)
    assert all(list(c) == ["suite", "name", "status", "residual"] for c in report["checks"])
    rows = [tuple(c.values()) for c in report["checks"]]
    assert rows[:30] == PINNED_VERIFY_ROWS
    # The diagonal residuals are roundoff-level measurements: name and status only.
    assert [row[:3] for row in rows[30:]] == [
        ("diagonal-identities", "diag(m omega^2 q2^2 q1^2)", "fail"),
        ("diagonal-identities", "diag(-(i hbar/m) q2 pi2)", "pass"),
        ("diagonal-identities", "diag((1/m) q2^2 pi2^2)", "fail"),
        ("diagonal-identities", "diag sum vs closed-form level shift", "fail"),
    ]
    assert (report["passed"], report["failed"], report["all_pass"]) == (31, 3, False)


def test_verify_fault_drill_flips_the_closure(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, _stdout, _stderr = run(
        ["verify", "--cutoff", "6", "--debug-flip-epsilon", "--out", str(out)], capsys
    )
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(out.read_text())
    flat = {c["name"]: c["status"] for c in report["checks"] if c["suite"] == "flat-closure"}
    assert flat["[x, y]"] == "fail"
    assert flat["[px, py]"] == "fail"


def test_verify_checks_its_cutoff(tmp_path, capsys):
    # Below cutoff 4 no state is interior, so the diagonal rows would pass vacuously.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"cutoff": 3}))
    for argv in (["verify", "--cutoff", "3"], ["verify", "--config", str(config)]):
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err == "usage error: --cutoff must be at least 4\n"


def test_overflowing_diagonal_is_a_numeric_failure(capsys):
    # The measured diagonals are not finite: no vacuous pass.  At mass
    # 5e-324 m^-1, and at hbar 1e300 hbar^2, overflows a float power while
    # h_tau's terms are evaluated, as in spectrum, and the message names
    # that power; at hbar 1.2e154 hbar^2/m is finite but the terms' entries
    # overflow.
    for argv, message in (
        (["verify", "--cutoff", "5", "--mass", "5e-324"],
         "numeric failure: m^-1 overflows at this parameter point\n"),
        (["verify", "--cutoff", "6", "--hbar", "1e300"],
         "numeric failure: hbar^2 overflows at this parameter point\n"),
        (["verify", "--cutoff", "6", "--hbar", "1.2e154"],
         "numeric failure: matrix entries overflow at this parameter point\n"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (EXIT_NUMERIC, "")
        assert err.startswith(message) and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []


def test_overflowing_closed_form_divisor_is_not_an_underflow(capsys):
    # 4 m overflows, so hbar^2 / (4 m) is 0 although its exact value is a float.
    code, stdout, err = run(["verify", "--cutoff", "6", "--mass", "1e308"], capsys)
    assert (code, stdout) == (EXIT_NUMERIC, "")
    assert err == ("numeric failure: diag(m omega^2 q2^2 q1^2) overflows "
                   "at this parameter point\n")


# -- spectrum ----------------------------------------------------------------------


def test_spectrum_csv(tmp_path, capsys):
    out = tmp_path / "levels.csv"
    code, _o, _e = run(
        ["spectrum", "--theta", "0.02", "--eta", "0.03", "--tau", "0.005",
         "--cutoff", "10", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("n_plus,n_minus,E_analytic")
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    lucky = rows[("1", "0")]
    assert float(lucky[2]) == pytest.approx(2.0325)
    assert abs(float(lucky[3]) - 2.0325) <= 1e-3


def test_spectrum_exact_at_zero_deformation(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code, _o, _e = run(["spectrum", "--cutoff", "8", "--out", str(out)], capsys)
    assert code == EXIT_OK
    for line in out.read_text().strip().split("\n")[1:]:
        parts = line.split(",")
        n_plus, n_minus = int(parts[0]), int(parts[1])
        if n_plus + n_minus <= 6:
            assert abs(float(parts[5])) <= 1e-8  # abs_err column


def test_spectrum_splitting_at_tau_zero(tmp_path, capsys):
    out = tmp_path / "split.csv"
    run(
        ["spectrum", "--theta", "0.02", "--eta", "0.03", "--cutoff", "8",
         "--out", str(out)],
        capsys,
    )
    rows = {}
    for line in out.read_text().strip().split("\n")[1:]:
        parts = line.split(",")
        rows[(int(parts[0]), int(parts[1]))] = float(parts[3])
    assert rows[(1, 0)] - rows[(0, 1)] == pytest.approx(0.05, abs=1e-10)


def test_spectrum_json_format(capsys):
    code, stdout, _e = run(
        ["spectrum", "--cutoff", "6", "--format", "json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["cutoff"] == 6
    assert payload["levels"][0]["n_plus"] == 0
    assert payload["parameters"]["hbar"] == 1.0


def test_spectrum_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectrum", "--theta", "0.01", "--eta", "0.02", "--tau", "0.003",
            "--cutoff", "9"]
    run(args + ["--out", str(a)], capsys)
    run(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_cutoff_validation(capsys):
    code, _o, err = run(["spectrum", "--cutoff", "2"], capsys)
    assert code == EXIT_USAGE
    assert "cutoff" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_spectrum_rejects_non_finite_parameter(value, capsys):
    code, _o, err = run(["spectrum", "--cutoff", "6", f"--tau={value}"], capsys)
    assert code == EXIT_USAGE
    assert err == "usage error: tau must be finite\n"


# -- sweep --------------------------------------------------------------------------


def test_sweep_analytic_column_linear_in_tau(capsys):
    code, stdout, _e = run(
        ["sweep", "--param", "tau", "--from", "0", "--to", "0.01", "--steps", "11",
         "--cutoff", "6"],
        capsys,
    )
    assert code == EXIT_OK
    lines = stdout.strip().split("\n")
    assert lines[0] == "tau,n_plus,n_minus,E_analytic,E_numeric_re,E_numeric_im,abs_err"
    ground = [line.split(",") for line in lines[1:] if line.split(",")[1:3] == ["0", "0"]]
    assert len(ground) == 11
    for parts in ground:
        tau = float(parts[0])
        assert float(parts[3]) == pytest.approx(1 + tau, abs=1e-12)
    # halving tau halves the analytic gap
    gap = {float(p[0]): float(p[3]) - 1 for p in ground}
    assert gap[0.01] / gap[0.005] == pytest.approx(2.0, rel=1e-9)


def test_sweep_rejects_unknown_parameter(capsys):
    code, _o, err = run(
        ["sweep", "--param", "bogus", "--from", "0", "--to", "1", "--steps", "3"],
        capsys,
    )
    assert code == EXIT_USAGE
    assert "param" in err


def test_sweep_json_records_failures(capsys):
    # mass sweep through zero: the invalid point is recorded, the rest runs
    code, stdout, _e = run(
        ["sweep", "--param", "m", "--from", "0", "--to", "1", "--steps", "2",
         "--cutoff", "5", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert len(payload["failures"]) == 1
    assert payload["failures"][0]["value"] == 0.0
    assert payload["rows"]


@pytest.mark.parametrize("param,lo,hi", [
    ("tau", "0", "0.01"), ("theta", "-0.02", "0.04"), ("eta", "0", "0.03"), ("m", "0.5", "2"),
    ("hbar", "0.5", "2"), ("omega", "0.5", "3"),
])
def test_sweep_rows_equal_spectrum_at_each_point(param, lo, hi, capsys):
    # A sweep compiles the Hamiltonian once, whatever it sweeps, and scales
    # the plan at each point; each row is the spectrum's at its point.
    base = ["--theta", "0.02", "--eta", "0.03", "--tau", "0.005", "--cutoff", "6",
            "--format", "json"]
    code, stdout, err = run(["sweep", *base, "--param", param, "--from", lo, "--to", hi,
                             "--steps", "3"], capsys)
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(stdout)
    assert payload["failures"] == []
    values = sorted({row[param] for row in payload["rows"]})
    assert len(values) == 3
    flag = "--mass" if param == "m" else f"--{param}"
    for value in values:
        code, stdout, _e = run(["spectrum", *base, flag, repr(value)], capsys)
        assert code == EXIT_OK
        expected = [{param: value, **{c: level[c] for c in SWEEP_COLUMNS}}
                    for level in json.loads(stdout)["levels"]]
        assert [row for row in payload["rows"] if row[param] == value] == expected


@pytest.mark.parametrize("param", ["hbar", "m", "omega", "theta", "eta", "tau"])
def test_sweep_compiles_the_hamiltonian_once(param, compiled, capsys):
    ncphase.cli._plan.cache_clear()
    code, _o, err = run(["sweep", "--param", param, "--from", "0.5", "--to", "1",
                         "--steps", "3", "--cutoff", "4"], capsys)
    assert (code, err, len(compiled)) == (EXIT_OK, "", 1)


@pytest.fixture
def compiled(monkeypatch):
    """The basis cutoff of each compile_plan call made through the CLI."""
    calls = []

    def counting(expression, basis):
        calls.append(basis.cutoff)
        return compile_plan(expression, basis)

    monkeypatch.setattr(ncphase.cli, "compile_plan", counting)
    return calls


SMALL_SWEEP = ["sweep", "--param", "tau", "--from", "0", "--to", "0.01", "--steps", "3"]


def test_repeated_commands_reuse_the_last_plan(compiled, capsys):
    # The CLI keeps the plan of its last (--policy text, --cutoff): a repeated
    # sweep, and a spectrum of the same key, compile nothing, and each gives
    # the bytes of a freshly compiled plan.
    ncphase.cli._plan.cache_clear()
    first = run([*SMALL_SWEEP, "--cutoff", "6"], capsys)
    assert compiled == [6]
    assert run([*SMALL_SWEEP, "--cutoff", "6"], capsys) == first
    spectrum = run(["spectrum", "--cutoff", "6", "--tau", "0.005"], capsys)
    assert compiled == [6]
    ncphase.cli._plan.cache_clear()
    assert run(["spectrum", "--cutoff", "6", "--tau", "0.005"], capsys) == spectrum
    assert compiled == [6, 6]


def test_a_new_cutoff_or_policy_text_compiles_once(compiled, capsys):
    ncphase.cli._plan.cache_clear()
    for extra in (["--cutoff", "6"], ["--cutoff", "7"], ["--cutoff", "7"],
                  ["--cutoff", "7", "--policy", "cross"],
                  ["--cutoff", "7", "--policy", "cross"]):
        assert run([*SMALL_SWEEP, *extra], capsys)[0] == EXIT_OK
    assert compiled == [6, 7, 7]
    # The same policy under another text is another key.
    assert run([*SMALL_SWEEP, "--cutoff", "7", "--policy", "default"], capsys)[0] == EXIT_OK
    assert run([*SMALL_SWEEP, "--cutoff", "7", "--policy", " \"default\""], capsys)[0] \
        == EXIT_USAGE
    assert compiled == [6, 7, 7, 7]
    assert ncphase.cli._plan.cache_info().currsize == 1


def test_a_failing_policy_keeps_the_last_plan(compiled, capsys):
    ncphase.cli._plan.cache_clear()
    assert run([*SMALL_SWEEP, "--cutoff", "6"], capsys)[0] == EXIT_OK
    kept = ncphase.cli._plan("default", 6)
    code, out, err = run([*SMALL_SWEEP, "--cutoff", "6", "--policy", "bogus"], capsys)
    assert (code, out, err) == (
        EXIT_USAGE, "", "usage error: not a policy keyword or JSON object: 'bogus'\n")
    assert ncphase.cli._plan.cache_info().currsize == 1
    assert ncphase.cli._plan("default", 6) is kept
    assert compiled == [6]


def test_a_new_key_drops_the_last_plan_before_compiling(monkeypatch, capsys):
    # Two plans are never held at once: when the new one is compiled, the
    # old one is gone.
    ncphase.cli._plan.cache_clear()
    assert run([*SMALL_SWEEP, "--cutoff", "6"], capsys)[0] == EXIT_OK
    held = []

    def checking(expression, basis):
        held.append(ncphase.cli._plan.cache_info().currsize)
        return compile_plan(expression, basis)

    monkeypatch.setattr(ncphase.cli, "compile_plan", checking)
    assert run([*SMALL_SWEEP, "--cutoff", "7"], capsys)[0] == EXIT_OK
    assert held == [0]


def test_sweep_point_that_overflows_fails_alone(capsys):
    sweep = ["sweep", "--param", "theta", "--from", "0", "--to", "1e300", "--steps", "2",
             "--cutoff", "6", "--format", "json"]
    code, stdout, _e = run(sweep, capsys)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    spectrum_code, _o, spectrum_err = run(["spectrum", "--cutoff", "6", "--theta", "1e300"],
                                          capsys)
    assert (spectrum_code, spectrum_err) == (
        EXIT_NUMERIC, "numeric failure: matrix norm overflows at this parameter point\n")
    assert payload["failures"] == [{"param": "theta", "value": 1e300,
                                    "error": "matrix norm overflows at this parameter point"}]
    assert payload["rows"] and {row["theta"] for row in payload["rows"]} == {0.0}


def test_sweep_first_point_that_overflows_fails_alone(capsys):
    # The first point fails once evaluated, its norm overflowing; the two
    # after it are still solved as one stack per parity block.
    code, stdout, err = run(["sweep", "--param", "m", "--from", "1e-300", "--to", "1",
                             "--steps", "3", "--cutoff", "4", "--tau", "0.01"], capsys)
    assert code == EXIT_OK
    assert err == ("sweep point failed: {'param': 'm', 'value': 1e-300, "
                   "'error': 'matrix norm overflows at this parameter point'}\n")
    assert {line.split(",")[0] for line in stdout.splitlines()[1:]} == {"0.5", "1"}


# -- uncertainty ---------------------------------------------------------------------


def test_uncertainty_reference_numbers(capsys):
    code, stdout, _e = run(
        ["uncertainty", "--tau", "0.04", "--theta", "0.1", "--y-mean", "0"], capsys
    )
    assert code == EXIT_OK
    report = json.loads(stdout)
    assert report["delta_x_min"] == pytest.approx(0.02, abs=1e-9)
    assert report["delta_py_min"] == pytest.approx(0.2, abs=1e-9)
    assert report["squeezing_bound"] == pytest.approx(0.714285714285, abs=1e-9)


def test_uncertainty_flat_limit(capsys):
    code, stdout, _e = run(["uncertainty", "--theta", "0.1"], capsys)
    assert code == EXIT_OK
    report = json.loads(stdout)
    assert report["delta_x_min"] == 0.0
    assert report["delta_py_min"] == 0.0
    assert report["squeezing_bound"] == pytest.approx(0.7071067811865476, abs=1e-12)


def test_uncertainty_brute_force_block(capsys):
    code, stdout, _e = run(
        ["uncertainty", "--tau", "0.04", "--theta", "0.1", "--brute-force",
         "--sigma-steps", "40"],
        capsys,
    )
    assert code == EXIT_OK
    block = json.loads(stdout)["brute_force"]
    assert block["worst_bound_gap"] >= -1e-9
    assert block["momentum_floor"] == pytest.approx(0.2)
    assert block["states"] == 40


def test_uncertainty_brute_force_narrow_off_center_state(capsys):
    # The argmin packet (width 0.06 at 8) is narrow in the compactified
    # variable; its quadrature check must resolve it, not report a mismatch.
    code, stdout, err = run(
        ["uncertainty", "--tau", "0.04", "--theta", "0.1", "--brute-force",
         "--center", "8", "--sigma-min", "0.05", "--sigma-max", "0.06",
         "--sigma-steps", "2"],
        capsys,
    )
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(stdout)["brute_force"]["argmin"]["y_mean"] == pytest.approx(8.0, abs=1e-3)


def test_uncertainty_domain_error(capsys):
    code, _o, err = run(["uncertainty", "--tau", "1.0", "--hbar", "2.5"], capsys)
    assert code == EXIT_USAGE
    assert "below 2" in err


@pytest.mark.parametrize("flags", [
    # tau <Y>^2 overflows: theta = 0 times inf is NaN, the others inf.
    ["--hbar", "1e-20", "--tau", "1e10", "--y-mean", "1e150"],
    # <Y>^2 itself overflows, which Python's float power raises.
    ["--tau", "0.04", "--y-mean", "1e160"],
])
def test_uncertainty_overflowing_bound_is_a_numeric_failure(flags, capsys):
    code, stdout, err = run(["uncertainty", *flags], capsys)
    assert (code, stdout) == (EXIT_NUMERIC, "")
    assert err == "numeric failure: delta_x_min overflows at this parameter point\n"


def test_uncertainty_rejects_empty_sigma_grid(capsys):
    code, _o, err = run(
        ["uncertainty", "--tau", "0.04", "--brute-force", "--sigma-steps", "0"], capsys
    )
    assert code == EXIT_USAGE
    assert err.startswith("usage error:") and "--sigma-steps" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "tau", "--steps", "1000000000000", "--cutoff", "4"],
    ["uncertainty", "--brute-force", "--tau", "0.04", "--sigma-steps", "1000000000000"],
    ["uncertainty", "--brute-force", "--tau", "0.04", "--kick-steps", "1000000000000"],
], ids=["sweep-steps", "sigma-steps", "kick-steps"])
def test_unallocatable_grid_is_a_numeric_failure(argv, capsys):
    # A grid of 10^12 floats (7.28 TiB) fails to allocate at once; the
    # failure is one line, not a traceback.
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("numeric failure: MemoryError: Unable to allocate")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", ["5000", "7000", "10000"])
def test_wide_centred_packet_passes_its_quadrature_check(sigma, capsys):
    # At tau = 0 the first moment of a centred packet vanishes, with rounding
    # noise that grows with sigma^2; the quadrature re-check of the argmin
    # must still accept the closed form.
    code, out, err = run(["uncertainty", "--brute-force", "--tau", "0", "--sigma-min", sigma,
                          "--sigma-max", sigma, "--sigma-steps", "1"], capsys)
    assert (code, err) == (EXIT_OK, "")
    brute = json.loads(out)["brute_force"]
    # The grid takes sigma through exp(log(sigma)), which rounds it.
    argmin = brute["argmin"]["sigma"]
    assert argmin == pytest.approx(float(sigma), rel=1e-14)
    moments = gaussian_moments(Gaussian(sigma=argmin), ParameterPoint())
    assert brute["argmin"] == {"sigma": argmin, "kick": 0.0, "y_mean": moments[0]}
    assert brute["min_delta_py"] == pytest.approx(math.sqrt(moments[3] - moments[2] ** 2),
                                                  rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_numeric_failure_exit_code(capsys):
    # Absurdly wide packets spread their nodes over 4 sigma, far wider than
    # the weight's scale 1/sqrt(tau) = 5; the quadrature gives up and the
    # failure surfaces as exit code 3, with one line and no warning.  So do
    # a packet centred at 1e200, whose closed-form weighted norm leaves the
    # float range, and a kick of 1e200, which squares past it in <P_y^2>.
    base = ["uncertainty", "--tau", "0.04", "--brute-force"]
    for flags, message in (
        (["--theta", "0.1", "--sigma-min", "1000000", "--sigma-max", "10000000",
          "--sigma-steps", "2"], "numeric failure: quadrature did not converge"),
        (["--center", "1e200", "--sigma-steps", "3"], "numeric failure: weighted norm "),
        (["--kick-max", "1e200", "--kick-steps", "3", "--sigma-steps", "3"],
         "numeric failure: closed-form moments "),
    ):
        code, _o, err = run(base + flags, capsys)
        assert code == EXIT_NUMERIC
        assert err.startswith(message)
        assert err.count("\n") == 1


# -- exit-code contract ------------------------------------------------------------------

# Finite values of every scale, the float edge cases, and plain ones.
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-3.0, 3.0),
)


# Where --out points: unset, stdout, a writable file, and three paths that
# cannot be written (a missing directory, the empty path, a directory).
OUT_TARGETS = st.sampled_from([None, "-", "file", "missing-directory", "empty", "directory"])


def run_with_out(argv, out, tmp_path, capsys):
    """run() with --out set as ``out`` names it.  A written file is read back
    in place of stdout; it exists only after exit 0 or 1, and a path that
    cannot be written ends in exit 2 or 3 with nothing on stdout."""
    written = tmp_path / "out.txt"
    written.unlink(missing_ok=True)
    path = {"-": "-", "file": str(written), "missing-directory": str(tmp_path / "absent" / "x"),
            "empty": "", "directory": str(tmp_path)}.get(out)
    code, stdout, err = run(argv if out is None else [*argv, "--out", path], capsys)
    assert written.exists() == (out == "file" and code in (EXIT_OK, EXIT_VERIFY_FAILED))
    if out == "file":
        assert stdout == ""
        stdout = written.read_text() if written.exists() else ""
    elif out not in (None, "-"):
        assert code in (EXIT_USAGE, EXIT_NUMERIC) and stdout == ""
    return code, stdout, err


def assert_exit_contract(code, stdout, err, verdict=False):
    """0 with a strict-JSON report (no NaN or Infinity), or 2/3 with a
    one-line message, and never a traceback.  With ``verdict``, also 1 with
    a strict-JSON report and its one-line verdict."""
    assert "Traceback" not in err
    if verdict and code == EXIT_VERIFY_FAILED:
        assert err.startswith("first failing identity: ") and err.count("\n") == 1
    if code == EXIT_OK or (verdict and code == EXIT_VERIFY_FAILED):
        def non_finite(constant):
            raise AssertionError(f"{constant} is not JSON")

        json.loads(stdout, parse_constant=non_finite)
    else:
        assert code in (EXIT_USAGE, EXIT_NUMERIC)
        prefix = "usage error: " if code == EXIT_USAGE else "numeric failure: "
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    flags=st.fixed_dictionaries({}, optional={
        "--tau": NUMBERS, "--hbar": NUMBERS, "--y-mean": NUMBERS,
        "--sigma-min": NUMBERS, "--sigma-max": NUMBERS, "--kick-max": NUMBERS,
        "--center": NUMBERS, "--kick-steps": st.integers(-2, 2),
    }),
    sigma_steps=st.integers(-1, 3),
    out=OUT_TARGETS,
)
@example(flags={"--tau": 0.0}, sigma_steps=2, out=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_uncertainty_exit_code_contract(flags, sigma_steps, out, tmp_path, capsys):
    argv = ["uncertainty", "--brute-force", "--sigma-steps", str(sigma_steps)]
    for flag, value in flags.items():
        argv.append(f"{flag}={value!r}")
    assert_exit_contract(*run_with_out(argv, out, tmp_path, capsys))


# hbar^2/(2m) overflows at this mass, so the closed-form tau shift is inf;
# at tau = 0 no level may print 0 * inf = NaN.
TINY_MASS = 1.1125369292536007e-308


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    param=st.sampled_from(["tau", "theta"]),
    flags=st.fixed_dictionaries({}, optional={
        "--from": NUMBERS, "--to": NUMBERS, "--tau": NUMBERS, "--theta": NUMBERS,
        "--mass": NUMBERS, "--cutoff": st.integers(-1, 5),
    }),
    out=OUT_TARGETS,
)
@example(param="theta", flags={"--mass": TINY_MASS}, out=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_exit_code_contract(param, flags, out, tmp_path, capsys):
    argv = ["sweep", "--param", param, "--steps", "2", "--cutoff", "4", "--format", "json"]
    for flag, value in flags.items():
        argv.append(f"{flag}={value!r}")
    assert_exit_contract(*run_with_out(argv, out, tmp_path, capsys))


# Every parameter flag, each drawn from the edge values, and a cutoff around 4.
PARAMETER_FLAGS = st.fixed_dictionaries({}, optional={
    "--hbar": NUMBERS, "--mass": NUMBERS, "--omega": NUMBERS, "--theta": NUMBERS,
    "--eta": NUMBERS, "--tau": NUMBERS, "--cutoff": st.integers(-1, 6),
})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=PARAMETER_FLAGS, out=OUT_TARGETS)
@example(flags={"--mass": TINY_MASS}, out=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_exit_code_contract(flags, out, tmp_path, capsys):
    argv = ["spectrum", "--cutoff", "4", "--format", "json"]
    for flag, value in flags.items():
        argv.append(f"{flag}={value!r}")
    assert_exit_contract(*run_with_out(argv, out, tmp_path, capsys))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=PARAMETER_FLAGS, out=OUT_TARGETS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_exit_code_contract(flags, out, tmp_path, capsys):
    argv = ["verify", "--cutoff", "4"]
    for flag, value in flags.items():
        argv.append(f"{flag}={value!r}")
    code, stdout, err = run_with_out(argv, out, tmp_path, capsys)
    assert_exit_contract(code, stdout, err, verdict=True)
    if code in (EXIT_OK, EXIT_VERIFY_FAILED):
        # The diagonal residuals are text: each must be a finite measurement.
        for check in json.loads(stdout)["checks"]:
            if check["suite"] == "diagonal-identities":
                value = check["residual"].split()[0].removeprefix("max_rel_err=")
                assert math.isfinite(float(value)), check


def test_float_overflow_is_a_numeric_failure(capsys):
    # mass 5e-324 is positive and finite, but m^-1 overflows a float power.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _o, err = run(["spectrum", "--cutoff", "4", "--mass", "5e-324"], capsys)
    assert code == EXIT_NUMERIC
    assert err == "numeric failure: m^-1 overflows at this parameter point\n"
    assert [str(w.message) for w in caught] == []


def test_overflowing_matrix_is_a_numeric_failure(capsys):
    # At tau 1.7e308 the tau terms' entries overflow without a float power
    # error, as under the undeformed policy at hbar 1e308 the entries
    # hbar omega (n+ + n- + 1) do; with the tau terms, hbar^2 overflows a
    # float power first.  At mass 1e-310 the undeformed matrix is finite,
    # but the analytic level energies (tau hbar^2/2m) overflow in classify.
    for argv, message in (
        (["--tau", "1.7e308"], "numeric failure: matrix entries overflow at this parameter point\n"),
        (["--policy", "undeformed", "--hbar", "1e308"],
         "numeric failure: matrix entries overflow at this parameter point\n"),
        (["--hbar", "1e308"], "numeric failure: hbar^2 overflows at this parameter point\n"),
        (["--policy", "undeformed", "--mass", "1e-310", "--tau", "0.01"],
         "numeric failure: level energies overflow at this parameter point\n"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _o, err = run(["spectrum", "--cutoff", "4", *argv], capsys)
        assert code == EXIT_NUMERIC
        assert err == message
        assert [str(w.message) for w in caught] == []


def test_overflowing_residual_bound_is_a_numeric_failure(capsys):
    # tau 1e300, or hbar 1e300 under the undeformed policy, leaves every
    # entry finite, but ||H||_F and the residuals overflow.  (Under the
    # default policy hbar 1e300 overflows the tau terms' float power hbar^2.)
    for argv in (["--tau", "1e300"], ["--policy", "undeformed", "--hbar", "1e300"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(["spectrum", "--cutoff", "4", *argv], capsys)
        assert (code, stdout) == (EXIT_NUMERIC, "")
        assert err == "numeric failure: matrix norm overflows at this parameter point\n"
        assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv,message", [
    # ||H||_F underflows to 0, and so would every residual.
    (["spectrum", "--cutoff", "6", "--hbar", "1e-300"],
     "numeric failure: matrix norm underflows at this parameter point\n"),
    # hbar^2 underflows, so every closed form is 0 and would match vacuously.
    (["verify", "--cutoff", "6", "--hbar", "1e-300"],
     "numeric failure: diag(m omega^2 q2^2 q1^2) underflows at this parameter point\n"),
], ids=["spectrum", "verify"])
def test_underflowing_scale_is_a_numeric_failure(argv, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (EXIT_NUMERIC, "")
    assert err.startswith(message) and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


def test_tiny_scale_is_solved_not_rejected(capsys):
    # At hbar = 1e-140 every matrix entry is 1e-140 times its hbar = 1 value,
    # so the energies must scale with it rather than fail the residual check.
    levels = {}
    for hbar in ("1", "1e-140"):
        code, stdout, err = run(
            ["spectrum", "--cutoff", "6", "--hbar", hbar, "--format", "json"], capsys
        )
        assert (code, err) == (EXIT_OK, "")
        levels[hbar] = json.loads(stdout)["levels"]
    assert [(r["n_plus"], r["n_minus"]) for r in levels["1e-140"]] == [
        (r["n_plus"], r["n_minus"]) for r in levels["1"]
    ]
    for tiny, unit in zip(levels["1e-140"], levels["1"]):
        assert tiny["E_numeric_re"] == pytest.approx(1e-140 * unit["E_numeric_re"], rel=1e-10)
        assert tiny["E_analytic"] == pytest.approx(1e-140 * unit["E_analytic"], rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uncertainty_rejects_bad_scan_flags(capsys):
    base = ["uncertainty", "--tau", "0.04", "--brute-force", "--sigma-steps", "3"]
    for flags, named in (
        (["--sigma-min", "0"], "--sigma-min"),
        (["--sigma-max=-1"], "--sigma-max"),
        (["--sigma-min", "nan"], "--sigma-min"),
        (["--kick-max", "inf"], "--kick-max"),
        # The grid from -1e308 to 1e308 is 2e308 wide, which overflows.
        (["--kick-max", "1e308", "--kick-steps", "3"], "--kick-max"),
        (["--center=-inf"], "--center"),
        # sigma^2 underflows to 0 at the smaller bound.
        (["--sigma-min", "1e-320"], "--sigma-min"),
        (["--sigma-min", "1e-170", "--sigma-max", "1e-160"], "--sigma-min"),
        (["--sigma-min", "1", "--sigma-max", "1e-200"], "--sigma-max"),
        (["--kick-steps", "0"], "--kick-steps"),
        (["--y-mean", "nan"], "--y-mean"),
    ):
        code, _o, err = run(base + flags, capsys)
        assert code == EXIT_USAGE
        assert err.startswith("usage error: " + named) and err.count("\n") == 1
    # A single kick is 0 whatever --kick-max is.
    code, _o, err = run(base + ["--kick-max", "1e308", "--kick-steps", "1"], capsys)
    assert (code, err) == (0, "")


def test_sweep_checks_its_base_point_and_cutoff(capsys):
    code, _o, err = run(["sweep", "--param", "theta", "--tau", "nan", "--steps", "2"], capsys)
    assert (code, err) == (EXIT_USAGE, "usage error: tau must be finite\n")
    code, _o, err = run(["sweep", "--param", "tau", "--cutoff", "2", "--steps", "2"], capsys)
    spectrum_code, _o, spectrum_err = run(["spectrum", "--cutoff", "2"], capsys)
    assert (code, err) == (spectrum_code, spectrum_err) == (EXIT_USAGE, spectrum_err)
    assert "--cutoff" in err
    code, _o, err = run(["sweep", "--param", "tau", "--steps", "1"], capsys)
    assert (code, err) == (EXIT_USAGE, "usage error: --steps must be at least 2\n")
    code, _o, err = run(["sweep", "--param", "tau", "--to", "inf", "--steps", "2"], capsys)
    assert (code, err) == (EXIT_USAGE, "usage error: --to must be finite\n")
    code, _o, err = run(["sweep", "--param", "tau", "--from=-1.7976931348623157e+308",
                         "--to", "1e292", "--steps", "2"], capsys)
    assert (code, err) == (EXIT_USAGE, "usage error: --to minus --from must be finite\n")


# -- config file, misc ------------------------------------------------------------------


def test_config_file_fills_unset_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"theta": 0.02, "eta": 0.03, "cutoff": 6}))
    out_cfg, out_flag = tmp_path / "c.csv", tmp_path / "f.csv"
    run(["spectrum", "--config", str(config), "--out", str(out_cfg)], capsys)
    run(
        ["spectrum", "--theta", "0.02", "--eta", "0.03", "--cutoff", "6",
         "--out", str(out_flag)],
        capsys,
    )
    assert out_cfg.read_bytes() == out_flag.read_bytes()


def test_flags_win_over_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tau": 0.5, "theta": 0.1}))
    code, stdout, _e = run(
        ["uncertainty", "--config", str(config), "--tau", "0.04"], capsys
    )
    assert code == EXIT_OK
    report = json.loads(stdout)
    assert report["tau"] == 0.04  # flag beat the config
    assert report["theta"] == 0.1  # config filled the unset flag


def test_config_keys_are_flag_names(tmp_path, capsys):
    # The keys of --from, --to and --mass, not their argparse dests.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"from": 0, "to": 0.01, "steps": 3, "mass": 2}))
    sweep = ["sweep", "--param", "tau", "--cutoff", "6"]
    from_config = run(sweep + ["--config", str(config)], capsys)
    from_flags = run(sweep + ["--from", "0", "--to", "0.01", "--steps", "3", "--mass", "2"],
                     capsys)
    assert from_config == from_flags and from_config[0] == EXIT_OK
    config.write_text(json.dumps({"sweep_from": 0}))
    assert run(sweep + ["--config", str(config)], capsys) == (
        EXIT_USAGE, "", "usage error: unknown config key 'sweep_from'\n")


def test_config_key_repeated_under_both_spellings_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"y_mean": 0.5, "y-mean": 0.25}')
    code, stdout, err = run(["uncertainty", "--tau", "0.04", "--config", str(config)], capsys)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == "usage error: config keys 'y_mean' and 'y-mean' both set --y-mean\n"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"thtea": 0.1}))
    code, _o, err = run(["spectrum", "--config", str(config)], capsys)
    assert code == EXIT_USAGE
    assert "thtea" in err


@pytest.mark.parametrize("command,config,key", [
    (["uncertainty"], {"format": "csv", "policy": "cross"}, "format"),
    (["uncertainty"], {"cutoff": 8}, "cutoff"),
    (["verify"], {"policy": "cross"}, "policy"),
    (["spectrum"], {"sigma-min": 0.5}, "sigma-min"),
    (["sweep", "--param", "tau"], {"y_mean": 0.5}, "y_mean"),
])
def test_config_keys_the_subcommand_does_not_read_are_usage_errors(
        command, config, key, tmp_path, capsys):
    # The same keys as flags are argparse errors; from a file they are not ignored.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, stdout, err = run(command + ["--config", str(path)], capsys)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == f"usage error: {command[0]} does not read config key {key!r}\n"


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, _o, err = run(["spectrum", "--config", str(missing)], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("usage error:") and "absent.json" in err
    assert len(err.splitlines()) == 1


# Each subcommand at a small size.  The sweep's first point fails (hbar 0),
# so its CSV run also prints a "sweep point failed" line when --out works.
CHEAP_COMMANDS = {
    "verify": ["verify", "--cutoff", "4"],
    "spectrum": ["spectrum", "--cutoff", "4"],
    "sweep": ["sweep", "--param", "hbar", "--from", "0", "--to", "1", "--steps", "2",
              "--cutoff", "4"],
    "uncertainty": ["uncertainty", "--tau", "0.04"],
}


@pytest.mark.parametrize("command", sorted(CHEAP_COMMANDS))
@pytest.mark.parametrize("where,reason", [
    ("missing-directory", "No such file or directory"),
    ("empty", "No such file or directory"),
    ("directory", "Is a directory"),
], ids=["missing-directory", "empty", "directory"])
def test_unwritable_out_is_usage_error(command, where, reason, tmp_path, capsys):
    out = {"missing-directory": str(tmp_path / "absent" / "out.txt"), "empty": "",
           "directory": str(tmp_path)}[where]
    code, stdout, err = run([*CHEAP_COMMANDS[command], "--out", out], capsys)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == f"usage error: cannot write --out {out!r}: {reason}\n"


@pytest.mark.parametrize(
    "config,key",
    [({"cutoff": "16"}, "cutoff"), ({"tau": True}, "tau"), ({"policy": {}}, "policy"),
     ({"format": "xml"}, "format")],
)
def test_wrongly_typed_config_value_is_usage_error(config, key, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, _o, err = run(["spectrum", "--config", str(path)], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("usage error:") and repr(key) in err
    assert len(err.splitlines()) == 1


def test_policy_keyword_and_json(capsys):
    code, stdout, _e = run(
        ["spectrum", "--cutoff", "6", "--policy", "undeformed", "--tau", "0.01",
         "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    levels = json.loads(stdout)["levels"]
    ground = next(l for l in levels if (l["n_plus"], l["n_minus"]) == (0, 0))
    # undeformed policy: numeric spectrum ignores tau entirely
    assert ground["E_numeric_re"] == pytest.approx(1.0, abs=1e-10)
    code2, stdout2, _e = run(
        ["spectrum", "--cutoff", "6",
         "--policy", json.dumps({"caps": {"theta": 0, "eta": 0, "tau": 0}}),
         "--tau", "0.01", "--format", "json"],
        capsys,
    )
    assert code2 == EXIT_OK
    assert json.loads(stdout2)["levels"] == levels
    # Only an absent caps key means no caps.
    assert resolve_policy("{}") == resolve_policy('{"caps": {}}') == TruncationPolicy.of()


def test_bad_policy_is_usage_error(capsys):
    code, _o, err = run(["spectrum", "--policy", "nonsense"], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", [["spectrum"], ["sweep", "--param", "tau", "--steps", "2"]])
@pytest.mark.parametrize("policy", [
    "5",
    "[1]",
    '"default"',
    '{"caps": 3}',
    '{"caps": {"theta": "x"}}',
    '{"caps": {"theta": 1.5}}',
    '{"caps": {"theta": true}}',
    '{"caps": {"bogus": 1}}',
    '{"forbidden": {"theta": 1}}',
    '{"forbidden": [3]}',
    '{"forbidden": [{"bogus": 1}]}',
    '{"forbidden": [{"tau": "1"}]}',
    '{"cap": {"theta": 1}}',
    '{"forbidden": [{}]}',
    '{"caps": {"tau": -1}}',
    '{"caps": []}',
    '{"caps": null}',
    '{"caps": 0}',
    '{"caps": false}',
    '{"caps": ""}',
])
def test_malformed_policy_is_usage_error(command, policy, capsys):
    code, _o, err = run(command + ["--cutoff", "4", "--policy", policy], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("usage error: ") and err.count("\n") == 1


# The --policy and --config drill.  JSON values nest at most two deep, keys
# come from the parameter names and one unknown name, and every size stays
# small: the command line always sets a cutoff of at most 6, a sweep of at
# most 4 steps and JSON output (exit 0 must print strict JSON), so a config's
# cutoff, steps or format is type-checked, not used.
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(-2.0, 2.0),
                        st.sampled_from(["", "x", "1"]))
JSON_KEYS = st.sampled_from(["theta", "eta", "tau", "bogus"])
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(JSON_KEYS, inner, max_size=2),
    max_leaves=4,
)
POLICY_TEXT = st.one_of(
    st.sampled_from(["default", "cross", "undeformed", "", "nonsense", "{", "[1]", "null",
                     "{'caps': {}}", '{"caps": {"tau": 1}}']),
    st.fixed_dictionaries({}, optional={
        "caps": JSON_VALUES | st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=3),
        "forbidden": JSON_VALUES | st.lists(st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=2),
                                            max_size=2),
        "cap": JSON_VALUES,
    }).map(json.dumps),
    st.text(max_size=8),
)
# Each key a subcommand may read, with values of its type and of others.
WRONG_TYPES = st.one_of(st.booleans(), st.none(), st.text(max_size=2),
                        st.lists(st.integers(0, 2), max_size=1))
NUMBER_VALUES = st.floats(-2.0, 2.0) | st.integers(-1, 2) | st.sampled_from([math.nan, math.inf])
CONFIG_VALUES = {
    **{key: NUMBER_VALUES | WRONG_TYPES
       for key in ("hbar", "mass", "omega", "theta", "eta", "tau", "from", "to")},
    "cutoff": st.integers(3, 6) | st.just(5.0) | WRONG_TYPES,
    "steps": st.integers(-1, 4) | st.just(2.0) | WRONG_TYPES,
    "format": st.sampled_from(["csv", "json", "xml"]) | WRONG_TYPES,
    "policy": POLICY_TEXT | WRONG_TYPES,
}
CONFIG_ITEMS = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), CONFIG_VALUES[key]))
CONFIG_TEXT = st.one_of(
    st.lists(CONFIG_ITEMS, max_size=3).map(lambda items: json.dumps(dict(items))),
    # Unknown keys, both spellings of one flag, and keys another subcommand reads.
    st.dictionaries(st.sampled_from(["thtea", "sweep_from", "y_mean", "y-mean", "sigma-min",
                                     "kick_steps"]), JSON_LEAVES, max_size=2).map(json.dumps),
    st.lists(JSON_VALUES, max_size=2).map(json.dumps),
    st.sampled_from(["", "{", "[1,", "{'tau': 1}", "nan", '{"tau": NaN}', '{"tau": -Infinity}']),
)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["spectrum", "sweep", "verify"]),
    policy=st.none() | POLICY_TEXT,
    config=st.none() | CONFIG_TEXT,
    cutoff=st.integers(4, 6),
    steps=st.integers(2, 4),
)
@example(command="spectrum", policy='{"caps": {"theta": "x"}, "forbidden": [3]}',
         config='[1, {"tau": 0}]', cutoff=4, steps=2)
@example(command="sweep", policy="cross", config='{"tau": NaN}', cutoff=6, steps=4)
def test_policy_and_config_drill(command, policy, config, cutoff, steps, tmp_path, capsys):
    argv = [command, "--cutoff", str(cutoff)]
    if command == "sweep":
        argv += ["--param", "tau", "--steps", str(steps)]
    if command != "verify":  # verify prints JSON and reads no policy
        argv += ["--format", "json"] + ([f"--policy={policy}"] if policy is not None else [])
    if config is not None:
        path = tmp_path / "drill.json"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run(argv, capsys)
    # Exit 1 is verify's verdict only; assert_exit_contract rejects it elsewhere.
    assert_exit_contract(code, stdout, err, verdict=command == "verify")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv", [
    ["verify", "--format", "json"],
    ["verify", "--policy", "cross"],
    ["uncertainty", "--format", "csv"],
    ["uncertainty", "--policy", "cross"],
    ["uncertainty", "--cutoff", "8"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["sweep"])  # missing required --param
    assert info.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ncphase.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ncphase" in proc.stdout
