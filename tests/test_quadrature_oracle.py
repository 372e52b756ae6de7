"""The trapezoid rule of ``uncertainty._integrate`` against the QUADPACK
quadrature it replaced.

The reference below is the earlier implementation: scipy's adaptive ``quad``
on the real and imaginary parts of f(tan u)(1 + tan^2 u) over (-pi/2, pi/2),
one scalar node at a time.  Both rules accept a result at 1e-10 max(1, |I|),
and on every integrand of ``scan_state`` their results must agree to that.
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
    QUAD_TOLERANCE,
    Gaussian,
    QuadratureError,
    _integrate,
    apply_operator,
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


def assert_agree(f):
    want = reference_integrate(f)
    got = _integrate(f)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("tau", [0.0, 1e-8, 1e-4, 0.005, 0.04, 0.5])
def test_scan_state_integrands_match_quadpack(tau):
    # The five integrals of scan_state: the norm and the four sector moments.
    p = ParameterPoint(tau=tau)
    for sigma in (0.2, 1.1, 5.0, 30.0):
        for center in (0.0, 0.5, -1.0, 2.0, 5.0):
            for kick in (-1.0, 0.0, 0.5):
                psi = Gaussian(center=center, sigma=sigma, kick=kick)
                assert_agree(weighted(psi, psi, tau))
                for name in ("Y", "Y2", "Py", "Py2"):
                    assert_agree(weighted(apply_operator(name, psi, p), psi, tau))


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


def test_import_does_not_load_scipy_integrate():
    code = "import sys, ncphase; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
