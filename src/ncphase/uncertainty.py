"""Weighted inner product, sector expectations and uncertainty bounds.

The deformed inner product is

    <phi | psi>_rho = integral dy/(1 + tau y^2)  conj(psi)(y) phi(y),

linear in the first argument, conjugating the second.  Quadrature is the
trapezoid rule in y = tan(u), on arrays of nodes; the weight decays too
slowly for naive interval truncation.

The Gaussian test family is

    psi(y) = exp(-(y - a)^2 / (2 sigma^2) + i k y),

so that at tau = 0 the position variance of a centered member is
sigma^2 / 2.  That sigma convention is used by every closed-form oracle.
The grid scan takes its moments from the Faddeeva function in closed form
(``gaussian_moments``) and checks the state it reports against quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import wofz


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (error estimate {estimate:.3e})")
        self.estimate = estimate


class MomentError(RuntimeError):
    """Closed-form Gaussian moments out of range or off their quadrature."""


QUAD_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Gaussian:
    """Gaussian wave packet: center a, width sigma, momentum kick k."""

    center: float = 0.0
    sigma: float = 1.0
    kick: float = 0.0

    def __call__(self, y):
        z = (y - self.center) / self.sigma
        return np.exp(-0.5 * z * z + 1j * self.kick * y)

    def derivative(self, y):
        return (1j * self.kick - (y - self.center) / self.sigma**2) * self(y)

    def second_derivative(self, y):
        g = 1j * self.kick - (y - self.center) / self.sigma**2
        return (g * g - 1.0 / self.sigma**2) * self(y)


_FIRST_NODES = 64
_MAX_NODES = 2**16


def _integrate(f: Callable[[np.ndarray], np.ndarray]) -> complex:
    """integral of f over the real line by the trapezoid rule in y = tan(u).

    Nodes u_j = -pi/2 + j pi/n; the summand f(y)(1 + y^2) is smooth and
    pi-periodic in u, so the rule converges exponentially (Trefethen &
    Weideman, SIAM Review 56 (2014) 385).  n doubles from 64 (from 16, both
    first levels miss a packet of width 0.05 at 8), f called once per level
    on the new midpoints, until two sums agree to 1e-12 max(1, |I|).  At
    2^16 nodes a change above QUAD_TOLERANCE max(1, |I|) raises, as does,
    with estimate inf, a non-finite summand.
    """
    n, new = _FIRST_NODES, np.arange(_FIRST_NODES)  # indices j of the new nodes
    total, value = 0j, math.inf
    while n <= _MAX_NODES:
        y = np.tan(-math.pi / 2 + (math.pi / n) * new)
        with np.errstate(all="ignore"):
            total += complex(np.sum(f(y) * (1 + y * y)))
        if not np.isfinite(total):
            raise QuadratureError("integrand not finite at a node", math.inf)
        previous, value = value, total * math.pi / n
        change = abs(value - previous)
        if change <= 1e-12 * max(1.0, abs(value)):
            return value
        n, new = 2 * n, 2 * np.arange(n) + 1
    if change > QUAD_TOLERANCE * max(1.0, abs(value)):
        raise QuadratureError("quadrature did not converge", change)
    return value


def rho_inner(phi, psi, tau: float) -> complex:
    """<phi | psi>_rho; linear in phi, conjugating psi, both elementwise on arrays."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return _integrate(lambda y: np.conj(psi(y)) * phi(y) / (1 + tau * y * y))


def rho_norm(psi, tau: float) -> float:
    return math.sqrt(rho_inner(psi, psi, tau).real)


# -- sector operators in the y-representation --------------------------------


def apply_operator(name: str, psi, p) -> Callable[[np.ndarray], np.ndarray]:
    """Apply one of Y, P_y, Y^2, P_y^2 (or the bare d/dy detector) to psi.

    P_y acts as (1 + tau y^2)(-i hbar d/dy); psi must expose derivative()
    and second_derivative() (the Gaussian family does).
    """
    hbar, tau = p.hbar, p.tau
    if name == "Y":
        return lambda y: y * psi(y)
    if name == "Y2":
        return lambda y: y * y * psi(y)
    if name == "Py":
        return lambda y: (1 + tau * y * y) * (-1j * hbar) * psi.derivative(y)
    if name == "Py2":
        return lambda y: (
            -(hbar**2)
            * (1 + tau * y * y)
            * ((1 + tau * y * y) * psi.second_derivative(y) + 2 * tau * y * psi.derivative(y))
        )
    if name == "d/dy":
        # Not an observable; kept as a detector that the Hermiticity check
        # actually rejects non-Hermitian operators.
        return lambda y: psi.derivative(y)
    raise ValueError(f"unknown sector operator {name!r}")


def _normalized(o_psi, psi, tau: float) -> complex:
    """<psi | o_psi>_rho / <psi | psi>_rho, the norm checked before dividing."""
    norm = rho_inner(psi, psi, tau).real
    if not 0 < norm < math.inf:
        raise QuadratureError(f"weighted norm {norm!r} is not positive and finite", math.inf)
    return rho_inner(o_psi, psi, tau) / norm


def expectation(name: str, psi, p) -> float:
    """<psi | O psi>_rho / <psi | psi>_rho, returned as a real number."""
    return _normalized(apply_operator(name, psi, p), psi, p.tau).real


def verify_rho_hermiticity(name: str, pairs: Sequence, p) -> dict:
    """Max |<phi|O psi> - <O phi|psi>| over the test pairs."""
    worst = 0.0
    for phi, psi in pairs:
        left = rho_inner(apply_operator(name, psi, p), phi, p.tau)
        right = rho_inner(psi, apply_operator(name, phi, p), p.tau)
        worst = max(worst, abs(left - right))
    return {"operator": name, "max_defect": worst, "pairs": len(pairs)}


class _YTimes:
    """y * psi, as far as P_y reads it: its derivative."""

    def __init__(self, psi):
        self.psi = psi

    def derivative(self, y):
        return self.psi(y) + y * self.psi.derivative(y)


def robertson_lower_bound(psi, p) -> float:
    """(1/2) |<[Y, P_y]>_rho| evaluated entirely by quadrature.

    No closed form is substituted for the commutator: both operator orders
    are applied to the state and integrated.
    """
    py_psi = apply_operator("Py", psi, p)
    py_y_psi = apply_operator("Py", _YTimes(psi), p)
    return 0.5 * abs(_normalized(lambda y: y * py_psi(y) - py_y_psi(y), psi, p.tau))


# -- closed-form bounds -------------------------------------------------------


def min_delta_x(p, y_mean: float) -> float:
    """Smallest resolvable x-uncertainty at the given <Y>."""
    if p.tau < 0:
        raise ValueError("tau must be nonnegative")
    return p.theta * math.sqrt(p.tau) * math.sqrt(1 + p.tau * y_mean**2)


def min_delta_py(p, y_mean: float) -> float:
    """Smallest resolvable y-momentum uncertainty at the given <Y>."""
    if p.tau < 0:
        raise ValueError("tau must be nonnegative")
    return p.hbar * math.sqrt(p.tau) * math.sqrt(1 + p.tau * y_mean**2)


def delta_y_solutions(delta_py: float, p, y_mean: float):
    """The two Delta-Y roots of the saturated uncertainty relation."""
    hbar, tau = p.hbar, p.tau
    if tau <= 0:
        raise ValueError("tau must be positive for the root formula")
    discriminant = delta_py**2 - hbar**2 * tau * (1 + tau * y_mean**2)
    if discriminant < 0:
        raise ValueError(
            "delta_py below the minimal momentum: complex discriminant"
        )
    root = math.sqrt(discriminant) / (hbar * tau)
    base = delta_py / (hbar * tau)
    return (base - root, base + root)


def squeezing_bound(p, y_mean: float) -> float:
    """Upper edge of the squeezed Delta-Y interval."""
    if p.hbar * p.tau >= 2:
        raise ValueError("hbar * tau must be below 2")
    return math.sqrt(p.hbar * (1 + p.tau * y_mean**2) / (2 - p.hbar * p.tau))


# -- closed-form Gaussian moments -----------------------------------------------

_SQRT_PI = math.sqrt(math.pi)
# From |zeta| = 10 on, 16 terms of the asymptotic series give h to 4e-16
# relative at every phase of zeta, where 1 + i sqrt(pi) zeta wofz(zeta)
# cancels to about 1e-13.
_SERIES_RADIUS = 10.0
_SERIES_TERMS = 16
# Four Gauss-Hermite nodes and weights: they integrate exp(-x^2) times any
# polynomial of degree <= 7 exactly.
_HERMITE = [(float(x), float(w)) for x, w in zip(*np.polynomial.hermite.hermgauss(4))]


def _weighted_sums(a: float, sigma: float, tau: float) -> tuple:
    """(S0, S1, S2), S_n = integral of y^n exp(-(y-a)^2/sigma^2)/(1 + tau y^2).

    With zeta = (i/sqrt(tau) - a)/sigma and the Faddeeva function w
    (Poppe & Wijers, ACM TOMS 16 (1990) 38; scipy.special.wofz):

        S0 = pi Re w(zeta)/sqrt(tau),  S1 = -pi Im w(zeta)/tau,
        S2 = (sigma sqrt(pi) - S0)/tau      from y^2 = (1 + tau y^2 - 1)/tau.

    The difference in S2 cancels as tau -> 0, so for |zeta| >= 10 all three
    come from the asymptotic series h(zeta) = 1 + i sqrt(pi) zeta w(zeta)
    = -sum_{m>=1} (2m-1)!! q^m, q = 1/(2 zeta^2), written in
    alpha = a sqrt(tau) and beta = sigma sqrt(tau) so that no power of tau
    is divided out:

        S0 = L + sigma^3 tau Im K,  S1 = a L + sigma^3 sqrt(tau) Re K,
        S2 = a^2 L - sigma^3 Im K,  L = sqrt(pi) sigma/(1 + alpha^2),
        K = sqrt(pi) h/(zeta beta^3) = sqrt(pi) (h/q)/(2 (i - alpha)^3).

    This branch is exact at tau = 0: q = 0, h/q = -1, and the sums are the
    flat Gaussian moments sqrt(pi) sigma (1, a, a^2 + sigma^2/2).
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    root = math.sqrt(tau)
    alpha, beta = a * root, sigma * root
    pole = 1j - alpha  # (i - alpha)/beta = zeta
    if beta * _SERIES_RADIUS > abs(pole):
        w = complex(wofz(pole / beta))
        s0 = math.pi * w.real / root
        return s0, -math.pi * w.imag / tau, (_SQRT_PI * sigma - s0) / tau
    q = beta * beta / (2 * pole * pole)
    minus_h_over_q = 1.0  # 1 + 3 q + 15 q^2 + ..., by Horner's rule
    for m in range(_SERIES_TERMS, 1, -1):
        minus_h_over_q = 1 + (2 * m - 1) * q * minus_h_over_q
    k = -_SQRT_PI * minus_h_over_q / (2 * pole * pole * pole)
    lead = _SQRT_PI * sigma / (1 + alpha * alpha)
    cube = sigma * sigma * sigma
    return (lead + cube * tau * k.imag,
            a * lead + cube * root * k.real,
            a * a * lead - cube * k.imag)


def gaussian_moments(psi: Gaussian, p) -> tuple:
    """(<Y>, <Y^2>, <P_y>, <P_y^2>) of a Gaussian in closed form.

    The values ``expectation`` gives for "Y", "Y2", "Py" and "Py2", without
    quadrature.  The position moments are ratios of ``_weighted_sums``.  In
    the momentum moments the weight cancels: <psi|P_y psi>_rho is
    -i hbar integral conj(psi) psi' dy and, P_y being rho-symmetric,
    <psi|P_y^2 psi>_rho = hbar^2 integral (1 + tau y^2) |psi'|^2 dy.  Both
    are Gaussian integrals of polynomials of degree <= 4; the first is
    hbar kick sigma sqrt(pi), the second is taken exactly by Gauss-Hermite.
    """
    a, sigma, kick, tau = psi.center, psi.sigma, psi.kick, p.tau
    s0, s1, s2 = _weighted_sums(a, sigma, tau)
    if not 0 < s0 < math.inf:
        raise MomentError(
            f"weighted norm {s0!r} out of floating-point range at "
            f"sigma={sigma:.6g}, center={a:.6g}"
        )
    # At y = a + sigma x: |psi|^2 dy = sigma exp(-x^2) dx, psi'/psi = i kick - x/sigma.
    py2 = p.hbar * p.hbar * sigma * sum(
        weight * (1 + tau * (a + sigma * x) * (a + sigma * x))
        * (kick * kick + x * x / (sigma * sigma))
        for x, weight in _HERMITE
    )
    py = p.hbar * kick * sigma * _SQRT_PI
    moments = (s1 / s0, s2 / s0, py / s0, py2 / s0)
    if not all(math.isfinite(value) for value in moments):
        raise MomentError(
            f"closed-form moments {moments!r} not finite at sigma={sigma:.6g}, "
            f"center={a:.6g}, kick={kick:.6g}"
        )
    return moments


# -- brute-force confirmation -------------------------------------------------


@dataclass
class StateScan:
    sigma: float
    kick: float
    y_mean: float
    delta_y: float
    py_mean: float
    delta_py: float
    bound_gap: float  # Delta Y * Delta Py - (hbar/2)(1 + tau <Y^2>), >= 0


def _state_scan(psi: Gaussian, p, y_mean, y2, py_mean, py2) -> StateScan:
    delta_y = math.sqrt(max(y2 - y_mean * y_mean, 0.0))
    delta_py = math.sqrt(max(py2 - py_mean * py_mean, 0.0))
    bound = 0.5 * p.hbar * (1 + p.tau * y2)
    return StateScan(
        sigma=psi.sigma,
        kick=psi.kick,
        y_mean=y_mean,
        delta_y=delta_y,
        py_mean=py_mean,
        delta_py=delta_py,
        bound_gap=delta_y * delta_py - bound,
    )


def scan_state(psi: Gaussian, p) -> StateScan:
    """One state of the scan with every moment by quadrature."""
    return _state_scan(psi, p, *(expectation(name, psi, p) for name in ("Y", "Y2", "Py", "Py2")))


# The closed-form argmin state must match its quadrature to this, relative to
# the root mean square of the sector: sqrt<Y^2> for Y, sqrt<P_y^2> for P_y.
ORACLE_TOLERANCE = 1e-8


def _check_against_quadrature(best: StateScan, psi: Gaussian, p) -> None:
    oracle = scan_state(psi, p)
    y_scale = math.hypot(oracle.y_mean, oracle.delta_y)
    py_scale = math.hypot(oracle.py_mean, oracle.delta_py)
    for field, scale in (("y_mean", y_scale), ("delta_y", y_scale),
                         ("py_mean", py_scale), ("delta_py", py_scale)):
        closed, quadrature = getattr(best, field), getattr(oracle, field)
        if not abs(closed - quadrature) <= ORACLE_TOLERANCE * scale:
            raise MomentError(
                f"closed form and quadrature disagree at sigma={psi.sigma:.6g}, "
                f"center={psi.center:.6g}, kick={psi.kick:.6g}: {field} "
                f"{closed!r} vs {quadrature!r}"
            )


def brute_force_min_product(
    p,
    sigmas: Sequence[float],
    kicks: Sequence[float] = (0.0,),
    center: float = 0.0,
) -> dict:
    """Scan the Gaussian family for bound violations and the momentum floor.

    Asserts nothing itself: reports the worst (most negative) gap between
    Delta Y * Delta Py and the state-dependent lower bound, and the smallest
    normalized momentum spread  Delta Py / sqrt(1 + tau <Y>^2)  found, whose
    theoretical floor is hbar sqrt(tau).  Every state's moments come from
    ``gaussian_moments``; the reported argmin state is evaluated again by
    quadrature (``scan_state``), and a disagreement raises ``MomentError``.
    """
    scans = []
    for s in sigmas:
        for k in kicks:
            psi = Gaussian(center=center, sigma=s, kick=k)
            scans.append(_state_scan(psi, p, *gaussian_moments(psi, p)))
    worst_gap = min(scan.bound_gap for scan in scans)
    best = min(
        scans, key=lambda scan: scan.delta_py / math.sqrt(1 + p.tau * scan.y_mean * scan.y_mean)
    )
    _check_against_quadrature(best, Gaussian(center=center, sigma=best.sigma, kick=best.kick), p)
    min_normalized = best.delta_py / math.sqrt(1 + p.tau * best.y_mean * best.y_mean)
    floor = p.hbar * math.sqrt(p.tau)
    return {
        "states": len(scans),
        "worst_bound_gap": worst_gap,
        "min_delta_py": best.delta_py,
        "min_delta_py_normalized": min_normalized,
        "momentum_floor": floor,
        "floor_ratio": (min_normalized / floor) if floor > 0 else float("inf"),
        "argmin": {"sigma": best.sigma, "kick": best.kick, "y_mean": best.y_mean},
    }


def uncertainty_report(p, y_mean: float, brute_force: dict | None = None) -> dict:
    """JSON-ready report of the closed-form bounds at one <Y>."""
    report = {
        "hbar": p.hbar,
        "theta": p.theta,
        "tau": p.tau,
        "y_mean": y_mean,
        "delta_x_min": min_delta_x(p, y_mean),
        "delta_py_min": min_delta_py(p, y_mean),
        "squeezing_bound": squeezing_bound(p, y_mean),
    }
    if brute_force is not None:
        report["brute_force"] = brute_force
    return report
