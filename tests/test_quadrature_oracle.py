"""The trapezoid rule of ``uncertainty._integrate`` against the QUADPACK
quadrature it replaced.

The reference below is the earlier implementation: scipy's adaptive ``quad``
on the real and imaginary parts of f(tan u)(1 + tan^2 u) over (-pi/2, pi/2),
one scalar node at a time.  Both rules accept a result at 1e-10 max(1, |I|),
and on every integrand of ``scan_state`` their results must agree to that.
QUADPACK integrates the integrands written out below with ``math`` and
``cmath``; the trapezoid rule integrates them as ncphase forms them, from
the packet's jet and the sector images.
``scan_state`` takes its five integrals in one sweep of stacked components;
the moments it derives from them must agree with QUADPACK's to the oracle
tolerance of the CLI.
"""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from ncphase.fock import ParameterPoint
from ncphase.uncertainty import (
    ORACLE_TOLERANCE,
    QUAD_TOLERANCE,
    SECTOR_IMAGES,
    Gaussian,
    QuadratureError,
    _integrate,
    _state_scan,
    apply_operator,
    scan_state,
)


def reference_integrate(f):
    """integral of f over the real line via y = tan(u), by QUADPACK."""

    def real_part(u):
        t = math.tan(u)
        return (f(t) * (1 + t * t)).real

    def imag_part(u):
        t = math.tan(u)
        return (f(t) * (1 + t * t)).imag

    half_pi = math.pi / 2
    value = 0.0j
    for part, picker in ((real_part, 1.0), (imag_part, 1.0j)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            integral, estimate = quad(
                part, -half_pi, half_pi, epsabs=1e-12, epsrel=1e-12, limit=400
            )
        if estimate > QUAD_TOLERANCE * max(1.0, abs(integral)):
            raise QuadratureError("quadrature did not converge", estimate)
        value += picker * integral
    return value


def weighted(phi, psi, tau):
    """The integrand of <phi | psi>_rho, as ``rho_inner`` forms it."""
    return lambda y: np.conj(psi(y)) * phi(y) / (1 + tau * y * y)


def scan_integrands(psi, p):
    """The five integrands of scan_state: the norm and the four sector moments."""
    return [weighted(psi, psi, p.tau)] + [
        weighted(apply_operator(name, psi, p), psi, p.tau) for name in SECTOR_IMAGES
    ]


def scalar_integrands(psi, p):
    """The integrands of ``scan_integrands`` at one float y, for QUADPACK.

    With e = |psi|^2 = exp(-(y - a)^2 / sigma^2), psi' = g psi for
    g = i k - (y - a) / sigma^2, psi'' = (g^2 - 1/sigma^2) psi and the weight
    w = 1 + tau y^2, they are e/w, y e/w, y^2 e/w, -i hbar g e and
    -hbar^2 (w (g^2 - 1/sigma^2) + 2 tau y g) e.
    """
    a, s2, k, tau, hbar = psi.center, psi.sigma**2, psi.kick, p.tau, p.hbar

    def terms(y):
        return math.exp(-((y - a) ** 2) / s2), complex(-(y - a) / s2, k), 1 + tau * y * y

    def integrand(form):
        return lambda y: form(y, *terms(y))

    return [integrand(form) for form in (
        lambda y, e, g, w: e / w,
        lambda y, e, g, w: y * e / w,
        lambda y, e, g, w: y * y * e / w,
        lambda y, e, g, w: -1j * hbar * g * e,
        lambda y, e, g, w: -(hbar**2) * (w * (g * g - 1 / s2) + 2 * tau * y * g) * e,
    )]


def assert_agree(scalar_f, f):
    """QUADPACK on ``scalar_f`` against ``_integrate`` on ``f``."""
    want = reference_integrate(scalar_f)
    got = _integrate(f)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (got, want)
    return want


def assert_scans_agree(got, want):
    """Two StateScans within the oracle tolerance of the CLI, relative to the
    root mean square of each sector."""
    y_scale = math.hypot(want.y_mean, want.delta_y)
    py_scale = math.hypot(want.py_mean, want.delta_py)
    for field, scale in (("y_mean", y_scale), ("delta_y", y_scale),
                         ("py_mean", py_scale), ("delta_py", py_scale)):
        assert abs(getattr(got, field) - getattr(want, field)) <= ORACLE_TOLERANCE * scale, field


GRID = [(sigma, center, kick) for sigma in (0.2, 1.1, 5.0, 30.0)
        for center in (0.0, 0.5, -1.0, 2.0, 5.0) for kick in (-1.0, 0.0, 0.5)]


@pytest.mark.parametrize("tau", [0.0, 1e-8, 1e-4, 0.005, 0.04, 0.5])
def test_scan_state_integrands_match_quadpack(tau):
    # Each of the five integrals alone, and the moments that the fused sweep
    # of scan_state takes, against their QUADPACK values.
    p = ParameterPoint(tau=tau)
    for sigma, center, kick in GRID:
        psi = Gaussian(center=center, sigma=sigma, kick=kick)
        pairs = zip(scalar_integrands(psi, p), scan_integrands(psi, p))
        norm, *sums = [assert_agree(scalar_f, f) for scalar_f, f in pairs]
        want = _state_scan(psi, p, *(s.real / norm.real for s in sums))
        assert_scans_agree(scan_state(psi, p), want)


# -- several components in one sweep -------------------------------------------


def test_stacked_integrand_matches_each_component_alone():
    for tau in (0.0, 0.04, 0.5):
        p = ParameterPoint(tau=tau)
        for sigma, center, kick in GRID[::7]:
            integrands = scan_integrands(Gaussian(center=center, sigma=sigma, kick=kick), p)
            stacked = _integrate(lambda y: np.stack([f(y) for f in integrands]))
            assert stacked.shape == (5,)
            for got, f in zip(stacked, integrands):
                alone = _integrate(f)
                assert abs(got - alone) <= 1e-12 * max(1.0, abs(alone)), (got, alone)


def test_stack_is_not_returned_before_its_slowest_component():
    # Alone, y^2 exp(-y^2/sigma^2) agrees at 0 over the first levels, whose
    # only node inside the packet is y = 0; stacked with the packet's norm,
    # it is taken only once the norm has resolved the packet.
    sigma = 1e-3
    packet = lambda y: np.exp(-((y / sigma) ** 2))
    second = lambda y: y * y * packet(y)
    assert abs(_integrate(second)) < 1e-100
    norm, moment = _integrate(lambda y: np.stack([packet(y), second(y)]))
    assert norm == pytest.approx(math.sqrt(math.pi) * sigma, rel=1e-12)
    assert moment == pytest.approx(math.sqrt(math.pi) * sigma**3 / 2, rel=1e-12)


def test_non_finite_component_raises_with_infinite_estimate():
    with pytest.raises(QuadratureError) as info:
        _integrate(lambda y: np.stack([np.exp(-y * y), np.exp(y * y)]))
    assert info.value.estimate == math.inf


def test_node_cap_reports_the_worst_component():
    # Of a converged Gaussian, a scaled-down copy of the too-sharp weight below
    # and the weight itself, the weight misses its tolerance by the most.
    weight = lambda y: 1.0 / (1 + 1e-8 * y * y)
    with pytest.raises(QuadratureError) as alone:
        _integrate(weight)
    with pytest.raises(QuadratureError) as stacked:
        _integrate(lambda y: np.stack([np.exp(-y * y), 1e-6 * weight(y), weight(y)]))
    assert stacked.value.estimate == alone.value.estimate


@pytest.mark.parametrize("tau", [1e-4, 0.005, 0.04, 0.5])
def test_pure_weight_matches_its_closed_form(tau):
    exact = math.pi / math.sqrt(tau)
    for rule in (_integrate, reference_integrate):
        got = rule(lambda y: 1.0 / (1 + tau * y * y))
        assert abs(got - exact) <= 1e-10 * exact, (rule, got)


def test_pure_weight_too_sharp_for_the_node_cap_raises():
    # At tau = 1e-8 the summand 1/(cos^2 u + tau sin^2 u) has poles 1e-4 off
    # the real axis, and 2^16 nodes leave an error near 1e-3 of the value.
    with pytest.raises(QuadratureError) as info:
        _integrate(lambda y: 1.0 / (1 + 1e-8 * y * y))
    assert 0 < info.value.estimate < math.inf


def test_slow_convergence_between_the_tolerances_raises():
    # exp(-|y|) has its kink at the node u = 0, so the rule converges only
    # as n^-2: at 2^16 nodes the last change, about 1.15e-9 of the integral
    # 2, lies above QUAD_TOLERANCE (1e-10) and below 1e-6, so the rule must
    # raise here rather than return 2.0000000004.
    with pytest.raises(QuadratureError) as info:
        _integrate(lambda y: np.exp(-np.abs(y)))
    assert 1e-10 < info.value.estimate < 1e-6


def test_import_does_not_load_scipy_integrate():
    code = "import sys, ncphase; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
