"""Weighted inner product, sector Hermiticity, bounds and the grid scan."""

import math

import numpy as np
import pytest

from ncphase import uncertainty
from ncphase.cli import EXIT_NUMERIC, main
from ncphase.fock import ParameterPoint
from ncphase.uncertainty import (
    Gaussian,
    QuadratureError,
    brute_force_min_product,
    delta_y_solutions,
    expectation,
    gaussian_moments,
    min_delta_x,
    min_delta_py,
    rho_inner,
    rho_norm,
    robertson_lower_bound,
    scan_state,
    squeezing_bound,
    uncertainty_report,
    verify_rho_hermiticity,
)


def ten_gaussian_pairs():
    widths = [0.5, 0.8, 1.0, 1.3, 1.7, 2.2, 0.6, 1.1, 1.9, 2.8]
    pairs = []
    for k, sigma in enumerate(widths):
        phi = Gaussian(center=0.3 * (k % 3) - 0.2, sigma=sigma, kick=0.4 * (k % 2))
        psi = Gaussian(center=-0.25 * (k % 2), sigma=widths[(k + 3) % 10], kick=-0.3)
        pairs.append((phi, psi))
    return pairs


# -- inner product ---------------------------------------------------------------


def test_weight_only_integral():
    # The pure weight integrates to pi / sqrt(tau).
    got = rho_inner(lambda y: 1.0, lambda y: 1.0, 0.04)
    assert got.real == pytest.approx(math.pi / math.sqrt(0.04), abs=1e-9)
    assert abs(got.imag) <= 1e-12


def test_flat_limit_recovers_plain_overlap():
    g = Gaussian(sigma=1.0)
    got = rho_inner(g, g, 0.0)
    assert got.real == pytest.approx(math.sqrt(math.pi), abs=1e-10)
    assert rho_norm(g, 0.0) == pytest.approx(math.pi ** 0.25, abs=1e-10)


def test_conjugate_symmetry():
    p = 0.03
    for phi, psi in ten_gaussian_pairs()[:4]:
        left = rho_inner(phi, psi, p)
        right = rho_inner(psi, phi, p)
        assert left == pytest.approx(right.conjugate(), abs=1e-10)


def test_linear_in_first_argument():
    tau = 0.05
    phi1, phi2 = Gaussian(sigma=0.8), Gaussian(sigma=1.4, center=0.5)
    psi = Gaussian(sigma=1.1)
    combined = rho_inner(lambda y: 2 * phi1(y) + 1j * phi2(y), psi, tau)
    assert combined == pytest.approx(
        2 * rho_inner(phi1, psi, tau) + 1j * rho_inner(phi2, psi, tau), abs=1e-9
    )


def test_quadrature_error_reported_with_estimate():
    # A wildly oscillatory non-decaying integrand cannot reach the
    # tolerance; the failure must carry the achieved error estimate.
    with pytest.raises(QuadratureError) as info:
        rho_inner(lambda y: np.cos(50 * y * y), lambda y: 1.0, 0.0)
    assert info.value.estimate > 0


def test_non_finite_integrand_is_a_quadrature_error():
    # exp(y^2) overflows at the outer nodes: an infinite estimate, never NaN.
    with pytest.raises(QuadratureError) as info:
        rho_inner(lambda y: np.exp(y * y), lambda y: 1.0, 0.1)
    assert info.value.estimate == math.inf


# -- expectations -----------------------------------------------------------------


def test_parity_and_reality():
    p = ParameterPoint(tau=0.04)
    g = Gaussian(sigma=1.2)
    assert expectation("Y", g, p) == pytest.approx(0.0, abs=1e-10)
    assert expectation("Py", g, p) == pytest.approx(0.0, abs=1e-10)


def test_flat_second_moment_convention():
    p = ParameterPoint(tau=0.0)
    for sigma in (0.7, 1.0, 1.9):
        got = expectation("Y2", Gaussian(sigma=sigma), p)
        assert got == pytest.approx(sigma**2 / 2, rel=1e-10)


def test_unresolved_norm_is_a_quadrature_error():
    # The packet sits 1e-6 from the end of the compactified interval, between
    # the nodes of every level, so its weighted norm integrates to 0.
    with pytest.raises(QuadratureError, match="weighted norm 0.0"):
        expectation("Y", Gaussian(center=1e6, sigma=1.0), ParameterPoint(tau=0.0))


def test_sector_expectations_are_real():
    p = ParameterPoint(tau=0.03)
    psi = Gaussian(center=0.7, sigma=1.1, kick=0.8)
    norm = rho_inner(psi, psi, p.tau).real
    from ncphase.uncertainty import apply_operator

    for name in ("Y", "Py", "Y2", "Py2"):
        value = rho_inner(apply_operator(name, psi, p), psi, p.tau) / norm
        assert abs(value.imag) <= 1e-8


# -- closed-form moments ------------------------------------------------------------

MOMENT_NAMES = ("Y", "Y2", "Py", "Py2")


@pytest.mark.parametrize("tau", [0.0, 1e-8, 1e-4, 0.005, 0.04, 0.5])
def test_gaussian_moments_match_quadrature(tau):
    # Both branches of the Faddeeva sums are reached: the asymptotic series
    # for |zeta| >= 10 (tau = 0, 1e-8, 1e-4 and the narrow states at 0.005
    # and 0.04), wofz itself below.  A first moment is compared relative to
    # the root of its second moment, since it vanishes on centered states.
    p = ParameterPoint(tau=tau)
    for sigma in (0.2, 1.1, 5.0, 30.0):
        for center in (0.0, 0.5, -1.0, 2.0):
            for kick in (-1.0, 0.0, 0.5):
                psi = Gaussian(center=center, sigma=sigma, kick=kick)
                y, y2, py, py2 = gaussian_moments(psi, p)
                want = [expectation(name, psi, p) for name in MOMENT_NAMES]
                assert abs(y - want[0]) <= 1e-9 * math.sqrt(want[1])
                assert y2 == pytest.approx(want[1], rel=1e-9, abs=0)
                assert abs(py - want[2]) <= 1e-9 * math.sqrt(want[3])
                assert py2 == pytest.approx(want[3], rel=1e-9, abs=0)


def test_gaussian_moments_flat_limit_is_exact():
    p = ParameterPoint(hbar=0.7, tau=0.0)
    for center, sigma, kick in ((0.0, 1.0, 0.0), (-1.5, 0.3, 2.0), (4.0, 30.0, -0.5)):
        got = gaussian_moments(Gaussian(center=center, sigma=sigma, kick=kick), p)
        want = (center, center**2 + sigma**2 / 2, 0.7 * kick,
                0.49 * (kick**2 + 1 / (2 * sigma**2)))
        assert got == pytest.approx(want, rel=1e-15, abs=0)


def test_gaussian_moments_stay_accurate_at_tiny_tau():
    # (sigma sqrt(pi) - S0)/tau would lose about log10(1/(tau sigma^2))
    # digits here.  To first order, <Y^2> = m2 - tau (m4 - m2^2) with the
    # flat moments m2, m4 of a Gaussian of mean a and variance v = sigma^2/2.
    a = 0.5
    for sigma in (0.2, 3.0, 30.0):
        v = sigma**2 / 2
        m2, m4 = a**2 + v, a**4 + 6 * a**2 * v + 3 * v**2
        for tau in (1e-8, 1e-12, 1e-300):
            got = gaussian_moments(Gaussian(center=a, sigma=sigma), ParameterPoint(tau=tau))[1]
            assert got == pytest.approx(m2 - tau * (m4 - m2**2), rel=1e-9, abs=0)


def test_gaussian_moments_reject_negative_tau():
    with pytest.raises(ValueError, match="nonnegative"):
        gaussian_moments(Gaussian(), ParameterPoint(tau=-0.01))


def _off_by(index):
    """gaussian_moments with one moment off by 1e-6: a second moment
    relative to itself, a first moment relative to the root of its second."""
    exact = gaussian_moments

    def wrong(psi, p):
        moments = list(exact(psi, p))
        if index % 2:
            moments[index] *= 1 + 1e-6
        else:
            moments[index] += 1e-6 * math.sqrt(moments[index + 1])
        return tuple(moments)

    return wrong


@pytest.mark.parametrize("index", range(4), ids=MOMENT_NAMES)
def test_brute_force_cli_catches_a_wrong_closed_form(index, monkeypatch, capsys):
    monkeypatch.setattr(uncertainty, "gaussian_moments", _off_by(index))
    code = main(["uncertainty", "--tau", "0.04", "--theta", "0.1", "--brute-force",
                 "--sigma-steps", "20", "--center", "0.5"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    field = ("y_mean", "delta_y", "py_mean", "delta_py")[index]
    assert err.startswith("numeric failure: closed form and quadrature disagree")
    assert f": {field} " in err and err.count("\n") == 1 and err.endswith("\n")


# -- rho-Hermiticity ---------------------------------------------------------------


def test_position_and_momentum_are_rho_hermitian():
    p = ParameterPoint(tau=0.04)
    pairs = ten_gaussian_pairs()
    assert verify_rho_hermiticity("Y", pairs, p)["max_defect"] <= 1e-8
    assert verify_rho_hermiticity("Py", pairs, p)["max_defect"] <= 1e-8


def test_bare_derivative_is_flagged():
    p = ParameterPoint(tau=0.04)
    report = verify_rho_hermiticity("d/dy", ten_gaussian_pairs(), p)
    assert report["max_defect"] > 0.1


# -- closed-form bounds ---------------------------------------------------------------


def test_min_delta_x_values():
    p = ParameterPoint(theta=0.1, tau=0.04)
    assert min_delta_x(p, 0.0) == pytest.approx(0.02)
    assert min_delta_x(p, 5.0) == pytest.approx(0.1 * 0.2 * math.sqrt(2))
    assert min_delta_x(ParameterPoint(theta=0.1, tau=0.0), 3.0) == 0.0


def test_min_delta_py_values():
    p = ParameterPoint(tau=0.04)
    assert min_delta_py(p, 0.0) == pytest.approx(0.2)
    assert min_delta_py(p, 5.0) == pytest.approx(0.2 * math.sqrt(2))
    assert min_delta_py(ParameterPoint(tau=0.0), 1.0) == 0.0


def test_delta_y_solutions():
    p = ParameterPoint(tau=0.04)
    lo, hi = delta_y_solutions(0.25, p, 0.0)
    assert (lo, hi) == (pytest.approx(2.5), pytest.approx(10.0))
    floor = min_delta_py(p, 0.0)
    double_lo, double_hi = delta_y_solutions(floor, p, 0.0)
    expected = math.sqrt(1 / 0.04)
    assert double_lo == pytest.approx(expected)
    assert double_hi == pytest.approx(expected)
    with pytest.raises(ValueError):
        delta_y_solutions(0.1, p, 0.0)


def test_squeezing_bound_values():
    p = ParameterPoint(tau=0.04)
    assert squeezing_bound(p, 0.0) == pytest.approx(math.sqrt(1 / 1.96), abs=1e-12)
    assert squeezing_bound(p, 5.0) == pytest.approx(math.sqrt(2 / 1.96), abs=1e-12)
    assert squeezing_bound(ParameterPoint(tau=0.0), 0.0) == pytest.approx(
        math.sqrt(0.5)
    )
    with pytest.raises(ValueError):
        squeezing_bound(ParameterPoint(hbar=2.5, tau=0.9), 0.0)


def test_bounds_converge_linearly_in_tau():
    taus = [1e-3, 5e-4, 2.5e-4]
    flat = squeezing_bound(ParameterPoint(tau=0.0), 0.0)
    gaps = [squeezing_bound(ParameterPoint(tau=t), 0.0) - flat for t in taus]
    # halving tau halves the gap within 10%
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.1)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.1)


def test_inner_product_converges_linearly_in_tau():
    g = Gaussian(sigma=1.1, center=0.4)
    flat = rho_inner(g, g, 0.0).real
    gaps = [flat - rho_inner(g, g, t).real for t in (1e-3, 5e-4, 2.5e-4)]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.05)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.05)


# -- Robertson bound and the grid scan -------------------------------------------------


def test_robertson_bound_by_quadrature():
    p = ParameterPoint(tau=0.04)
    for psi in (Gaussian(sigma=0.8), Gaussian(sigma=1.6, center=1.0, kick=0.5)):
        scan = scan_state(psi, p)
        bound = robertson_lower_bound(psi, p)
        assert scan.delta_y * scan.delta_py >= bound - 1e-9
        # consistency with the closed commutator form
        y2 = expectation("Y2", psi, p)
        assert bound == pytest.approx(0.5 * p.hbar * (1 + p.tau * y2), rel=1e-8)


def test_flat_gaussians_saturate():
    p = ParameterPoint(tau=0.0)
    scan = scan_state(Gaussian(sigma=1.3), p)
    assert scan.delta_y * scan.delta_py == pytest.approx(0.5, abs=1e-6)


def test_grid_scan_finds_no_violation():
    p = ParameterPoint(tau=0.04)
    sigmas = np.exp(np.linspace(np.log(0.4), np.log(25), 60))
    report = brute_force_min_product(p, sigmas=[float(s) for s in sigmas])
    assert report["worst_bound_gap"] >= -1e-9
    assert report["states"] == 60


def test_grid_scan_momentum_floor_ratio_frozen():
    """The Gaussian-family infimum of the normalized momentum spread.

    An independent closed-form oracle (erfc-based variance formula, scanned
    densely over sigma) gives 0.2470 at tau = 0.04 against the theoretical
    floor 0.2: plain Gaussians stay about 23.5% above the bound, whose
    saturating states are power-law profiles, not Gaussians.
    """
    p = ParameterPoint(tau=0.04)
    sigmas = np.exp(np.linspace(np.log(0.5), np.log(25), 120))
    report = brute_force_min_product(p, sigmas=[float(s) for s in sigmas])
    assert report["min_delta_py_normalized"] == pytest.approx(0.2470, abs=2e-3)
    assert report["floor_ratio"] == pytest.approx(1.235, abs=0.01)


def test_shifted_family_tracks_the_scaling():
    """Centering the family at a = 5 raises the momentum floor.

    The weight drags the measured <Y> of wide members toward zero (the
    argmin state sits near <Y> = 2.3, not 5), so the raw infimum lands
    between the centered floor and the naive sqrt(1 + tau a^2) rescaling;
    the measured values are frozen from a dense-grid oracle run.
    """
    p = ParameterPoint(tau=0.04)
    sigmas = np.exp(np.linspace(np.log(0.5), np.log(20), 40))
    centered = brute_force_min_product(p, sigmas=[float(s) for s in sigmas])
    shifted = brute_force_min_product(p, sigmas=[float(s) for s in sigmas], center=5.0)
    assert shifted["min_delta_py"] > centered["min_delta_py"]
    assert shifted["min_delta_py"] == pytest.approx(0.2925, abs=3e-3)
    ratio = shifted["min_delta_py"] / centered["min_delta_py"]
    assert ratio == pytest.approx(1.184, abs=0.03)
    # no bound violations in the shifted family either
    assert shifted["worst_bound_gap"] >= -1e-9


def test_kick_does_not_lower_the_momentum_spread():
    p = ParameterPoint(tau=0.04)
    base = scan_state(Gaussian(sigma=2.0), p)
    kicked = scan_state(Gaussian(sigma=2.0, kick=0.7), p)
    assert kicked.delta_py >= base.delta_py - 1e-9


def test_parseval_consistency_on_ten_functions():
    # Quadrature bilinearity: the Gram matrix of ten Gaussians reproduces
    # inner products of arbitrary combinations to 1e-6.
    tau = 0.04
    funcs = [Gaussian(center=0.4 * k - 1.8, sigma=0.6 + 0.15 * k) for k in range(10)]
    gram = np.array(
        [[rho_inner(fj, fi, tau) for fj in funcs] for fi in funcs]
    )
    rng = np.random.default_rng(42)
    a = rng.normal(size=10) + 1j * rng.normal(size=10)
    b = rng.normal(size=10) + 1j * rng.normal(size=10)
    phi = lambda y: sum(ak * fk(y) for ak, fk in zip(a, funcs))
    psi = lambda y: sum(bk * fk(y) for bk, fk in zip(b, funcs))
    direct = rho_inner(phi, psi, tau)
    via_gram = np.conj(b) @ gram @ a
    assert direct == pytest.approx(via_gram, abs=1e-6)
    # the Gram matrix itself is Hermitian positive definite
    assert np.allclose(gram, gram.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(gram).min() > 0


def test_report_shape():
    p = ParameterPoint(theta=0.1, tau=0.04)
    report = uncertainty_report(p, 0.0)
    assert report["delta_x_min"] == pytest.approx(0.02)
    assert report["delta_py_min"] == pytest.approx(0.2)
    assert report["squeezing_bound"] == pytest.approx(5 / 7)
    assert "brute_force" not in report
