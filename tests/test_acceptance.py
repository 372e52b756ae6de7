"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion; each prints a single pass/fail line with the
measured quantity before asserting.  Four criteria (3, 4, 5 and the grid
clause of 7) encode closed forms whose reference values disagree with exact
computation; they are implemented exactly as stated and fail honestly.
See README "Known discrepancies" for the mathematics.
"""

import time
from fractions import Fraction

import numpy as np

from ncphase.algebra import (
    CANONICAL,
    DEFAULT_POLICY,
    NONCOMMUTATIVE,
    Expression,
    commutator,
    formal_adjoint,
    jacobi,
    normal_order,
)
from ncphase.fock import (
    FockBasis,
    ParameterPoint,
    compile_plan,
    diagonal_check,
    spectrum,
)
from ncphase.hamiltonian import build_hamiltonian, h_tau, h_theta_eta, reference_hamiltonian
from ncphase.maps import BOPP, named_operator, substitute
from ncphase.parsing import parse
from ncphase.rationals import GR_I
from ncphase.symmetry import (
    P_THETA_ETA_T,
    PT,
    check_algebra_invariance,
    is_invariant,
)
from ncphase.uncertainty import (
    Gaussian,
    brute_force_min_product,
    min_delta_x,
    min_delta_py,
    scan_state,
    squeezing_bound,
    verify_rho_hermiticity,
)


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def i_times(**powers):
    return Expression.from_scalar(GR_I, **powers)


def test_criterion_1_symbolic_algebra_suite():
    """Flat closure with the exact residue, deformed closure, Jacobi,
    adjoints; exact symbolic equality, zero tolerance, under 1 s."""
    start = time.perf_counter()
    failures = []

    flat = {name: substitute(parse(name), BOPP) for name in ("x", "y", "px", "py")}
    residue = i_times(theta=1, eta=1, hbar=-1) * Fraction(1, 4)
    flat_expected = {
        ("x", "y"): i_times(theta=1),
        ("x", "px"): i_times(hbar=1) + residue,
        ("y", "py"): i_times(hbar=1) + residue,
        ("px", "py"): i_times(eta=1),
        ("x", "py"): Expression.zero(),
        ("y", "px"): Expression.zero(),
    }
    for (a, b), expected in flat_expected.items():
        if commutator(flat[a], flat[b], CANONICAL) != expected:
            failures.append(f"flat [{a},{b}]")

    caps = {name: named_operator(name) for name in ("X", "Y", "Px", "Py")}
    one_plus = normal_order(parse("1 + tau*y^2"), NONCOMMUTATIVE)
    deformed_expected = {
        ("X", "Y"): normal_order(i_times(theta=1) * one_plus, NONCOMMUTATIVE),
        ("X", "Px"): normal_order(i_times(hbar=1) * one_plus, NONCOMMUTATIVE),
        ("Y", "Py"): normal_order(i_times(hbar=1) * one_plus, NONCOMMUTATIVE),
        ("X", "Py"): normal_order(parse("2*i*tau*Y*(theta*Py + hbar*X)"), NONCOMMUTATIVE),
        ("Px", "Py"): normal_order(i_times(eta=1) * one_plus, NONCOMMUTATIVE),
        ("Y", "Px"): Expression.zero(),
    }
    for (a, b), expected in deformed_expected.items():
        if commutator(caps[a], caps[b], NONCOMMUTATIVE) != expected:
            failures.append(f"deformed [{a},{b}]")

    names = ("X", "Y", "Px", "Py")
    for skip in range(4):
        triple = [caps[n] for k, n in enumerate(names) if k != skip]
        if not jacobi(*triple, NONCOMMUTATIVE).is_zero():
            failures.append(f"jacobi skip {names[skip]}")

    adjoint_expected = {
        "X": normal_order(caps["X"] + 2 * parse("i*tau*theta") * caps["Y"], NONCOMMUTATIVE),
        "Y": caps["Y"],
        "Px": caps["Px"],
        "Py": normal_order(caps["Py"] - 2 * parse("i*tau*hbar") * caps["Y"], NONCOMMUTATIVE),
    }
    for name, expected in adjoint_expected.items():
        got = normal_order(formal_adjoint(caps[name]), NONCOMMUTATIVE)
        if got != expected:
            failures.append(f"adjoint {name}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    assert report(1, ok, f"{len(failures)} identity failures, {elapsed:.2f}s"), failures


def test_criterion_2_hamiltonian_truncation():
    """The built Hamiltonian equals the three named pieces coefficient by
    coefficient; zero tolerance, under 5 s."""
    start = time.perf_counter()
    built = build_hamiltonian(DEFAULT_POLICY)
    expected = reference_hamiltonian()
    difference = built - expected
    elapsed = time.perf_counter() - start
    ok = difference.is_zero() and elapsed < 5.0
    assert report(2, ok, f"residual {difference}, {elapsed:.2f}s")


def test_criterion_3_diagonal_identities():
    """Three reference diagonal identities at N=16 on interior states,
    relative error at most 1e-10, under 5 s.

    Known defect: the quartic and squared reference forms are linear in the
    grade while the exact diagonals are quadratic; only the linear identity
    holds.  The criterion is asserted as stated and fails honestly.
    """
    start = time.perf_counter()
    result = diagonal_check(compile_plan(build_hamiltonian(), FockBasis(16)), ParameterPoint())
    elapsed = time.perf_counter() - start
    worst = max(row["max_rel_err"] for row in result["identities"])
    ok = all(row["pass"] for row in result["identities"]) and elapsed < 5.0
    assert report(3, ok, f"worst relative error {worst:.3e} (tol 1e-10), {elapsed:.2f}s")


ACCEPTANCE_POINT = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)


def test_criterion_4_spectrum_reproduction():
    """At the reference deformation, N=16: every classified level with
    n+ + n- <= 6 within 1e-3 of the closed form and imaginary part below
    1e-8; under 30 s.

    Known defect: the closed-form first-order shift is exact only for
    (1, 0) and (0, 1); all other levels differ at first order in tau, with
    the worst gap near 6e-2.  The reality clause does hold.  Asserted as
    stated; fails honestly.
    """
    start = time.perf_counter()
    table = spectrum(ACCEPTANCE_POINT, compile_plan(build_hamiltonian(), FockBasis(16)))
    elapsed = time.perf_counter() - start
    rows = [row for row in table.rows if row.n_plus + row.n_minus <= 6]
    lucky = table.row(1, 0)
    worst_abs = max(abs(row.e_numeric - row.e_analytic) for row in rows)
    worst_imag = max(abs(row.e_numeric.imag) for row in rows)
    ok = (
        lucky is not None
        and abs(lucky.e_numeric - 2.0325) <= 1e-3
        and worst_abs <= 1e-3
        and worst_imag <= 1e-8
        and elapsed < 30.0
    )
    assert report(
        4,
        ok,
        f"E(1,0)={lucky.e_numeric.real:.6f} (target 2.0325), worst |dE|={worst_abs:.3e} "
        f"(tol 1e-3), worst |Im|={worst_imag:.1e} (tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_5_second_order_scaling():
    """Log-log slope of the max classified level error against tau over
    {0.0025, 0.005, 0.01} at theta = eta = 0 must be 2 +/- 0.2.

    Known defect: the closed-form shift differs from the exact first-order
    diagonal, so the error is dominated by a term linear in tau and the
    slope sits near 1.  Asserted as stated; fails honestly.
    """
    taus = (0.0025, 0.005, 0.01)
    errors = []
    for tau in taus:
        point = ParameterPoint(tau=tau)
        table = spectrum(point, compile_plan(build_hamiltonian(), FockBasis(16)))
        rows = [row for row in table.rows if row.n_plus + row.n_minus <= 6]
        errors.append(max(abs(row.e_numeric - row.e_analytic) for row in rows))
    slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
    ok = abs(slope - 2.0) <= 0.2
    assert report(5, ok, f"slope {slope:.3f} (target 2 +/- 0.2), errors {errors}")


def test_criterion_6_pt_invariance():
    """Invariance booleans of the three transformation variants."""
    full = reference_hamiltonian()
    angular = normal_order(h_theta_eta(), CANONICAL)
    tau_piece = normal_order(h_tau(), CANONICAL)
    checks = [
        is_invariant(full, P_THETA_ETA_T) is True,
        is_invariant(angular, PT) is False,
        is_invariant(tau_piece, PT) is True,
        all(row["preserved"] for row in check_algebra_invariance(NONCOMMUTATIVE, P_THETA_ETA_T)),
    ]
    ok = all(checks)
    assert report(6, ok, f"booleans {checks}")


def test_criterion_7_uncertainty_formulas():
    """Closed-form bounds at (hbar=1, theta=0.1, tau=0.04, <Y>=0) to 1e-9,
    plus the Gaussian grid scan: no bound violation and an infimum within
    2% of the momentum floor 0.2; under 10 s.

    Known defect: the Gaussian-family infimum of Delta P_y is 0.2470, about
    23.5% above the floor (the saturating states are power-law profiles).
    The formula and no-violation clauses hold.  Asserted as stated; fails
    honestly.
    """
    start = time.perf_counter()
    p = ParameterPoint(theta=0.1, tau=0.04)
    formulas_ok = (
        abs(min_delta_x(p, 0.0) - 0.02) <= 1e-9
        and abs(min_delta_py(p, 0.0) - 0.2) <= 1e-9
        and abs(squeezing_bound(p, 0.0) - 0.714285714285714) <= 1e-9
    )
    sigmas = np.exp(np.linspace(np.log(0.2), np.log(30.0), 200))
    scan = brute_force_min_product(p, sigmas=[float(s) for s in sigmas])
    elapsed = time.perf_counter() - start
    no_violation = scan["worst_bound_gap"] >= -1e-9
    within_two_percent = abs(scan["min_delta_py_normalized"] - 0.2) <= 0.02 * 0.2
    ok = formulas_ok and no_violation and within_two_percent and elapsed < 10.0
    assert report(
        7,
        ok,
        f"formulas_ok={formulas_ok}, worst_gap={scan['worst_bound_gap']:.2e}, "
        f"min dPy={scan['min_delta_py_normalized']:.4f} (floor 0.2, tol 2%), {elapsed:.1f}s",
    )


def test_criterion_8_rho_hermiticity_and_flat_limit():
    """Adjointness defect of Y and P_y at most 1e-8 over ten Gaussian
    pairs; the flat limit reproduces the ordinary ground-state product."""
    p = ParameterPoint(tau=0.04)
    widths = [0.5, 0.7, 0.9, 1.1, 1.4, 1.8, 2.3, 0.6, 1.6, 2.9]
    pairs = [
        (Gaussian(sigma=s, center=0.2 * k - 0.9, kick=0.3 * (k % 3 - 1)),
         Gaussian(sigma=widths[(k + 4) % 10], center=0.15 * k))
        for k, s in enumerate(widths)
    ]
    defect_y = verify_rho_hermiticity("Y", pairs, p)["max_defect"]
    defect_py = verify_rho_hermiticity("Py", pairs, p)["max_defect"]
    flat = scan_state(Gaussian(sigma=1.0), ParameterPoint(tau=0.0))
    product = flat.delta_y * flat.delta_py
    ok = defect_y <= 1e-8 and defect_py <= 1e-8 and abs(product - 0.5) <= 1e-6
    assert report(
        8,
        ok,
        f"defects Y={defect_y:.1e}, Py={defect_py:.1e} (tol 1e-8), "
        f"flat product {product:.9f} (target 0.5 +/- 1e-6)",
    )
