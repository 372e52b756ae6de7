"""Weighted inner product, sector expectations and uncertainty bounds.

The deformed inner product is

    <phi | psi>_rho = integral dy/(1 + tau y^2)  conj(psi)(y) phi(y),

linear in the first argument, conjugating the second.  Quadrature is the
trapezoid rule in y = c + w tan(u), on arrays of nodes; the weight decays
too slowly for naive interval truncation.  A bare callable is integrated at
(c, w) = (0, 1); a state's moments on the state's own map, which for a
Gaussian is (center, 4 sigma), so its nodes resolve the packet wherever it
sits and however narrow or wide it is.

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


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (error estimate {estimate:.3e})")
        self.estimate = estimate


class MomentError(RuntimeError):
    """Closed-form Gaussian moments or bounds out of range, or moments off
    their quadrature."""


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

    def jet(self, y):
        """(psi, psi', psi'') at y, from one exp: psi' = g psi with
        g = i k - (y - a)/sigma^2, and psi'' = (g^2 - 1/sigma^2) psi."""
        psi = self(y)
        g = 1j * self.kick - (y - self.center) / self.sigma**2
        return psi, g * psi, (g * g - 1.0 / self.sigma**2) * psi

    @property
    def nodes(self) -> tuple:
        """(c, w) of the quadrature map y = c + w tan(u) that resolves the
        packet: |psi|^2 = exp(-16 tan(u)^2) whatever its center and width."""
        return self.center, 4 * self.sigma


# From 16, both first levels of the map (0, 1) miss a packet of width 0.05
# at 8; the packet's own map (8, 0.2) resolves it at 128.
_FIRST_NODES = 64
_MAX_NODES = 2**16


def _integrate(f: Callable[[np.ndarray], np.ndarray],
               nodes: tuple = (0.0, 1.0)) -> complex | np.ndarray:
    """integral of f over the real line by the trapezoid rule in y = c + w tan(u).

    nodes = (c, w), by default (0, 1).  Nodes u_j = -pi/2 + j pi/n; the
    summand f(y) w (1 + tan(u)^2) is pi-periodic in u, so where it is smooth
    the rule converges exponentially once the nodes resolve it (Trefethen &
    Weideman, SIAM Review 56 (2014) 385).  n doubles from 64, f called once
    per level on the new midpoints.  f may stack components on leading axes,
    its last axis running over the nodes; they share the nodes and an array
    of their integrals is returned (a complex for a single one).  Each
    component's scale is max(1, A_k), A_k the same rule's integral of |f_k|:
    |I_k| where f_k keeps one sign, and the size of the rounding noise where
    I_k cancels (the first moment of a centred packet vanishes, with noise
    that grows with its width squared).  The sweep stops when two sums of
    every component agree to 1e-12 times its scale at the same level, since
    a component can agree early by missing the state: at (0, 1), y^2 |psi|^2
    is 0 at the only node inside a narrow packet at 0.  At 2^16 nodes a
    change above QUAD_TOLERANCE times the scale raises with the change of
    the component furthest above it, as does, with estimate inf, a
    non-finite summand.
    """
    center, width = nodes
    n, new = _FIRST_NODES, np.arange(_FIRST_NODES)  # indices j of the new nodes
    total, size, value = 0j, 0.0, math.inf
    while n <= _MAX_NODES:
        t = np.tan(-math.pi / 2 + (math.pi / n) * new)
        with np.errstate(all="ignore"):
            summands = f(center + width * t) * width * (1 + t * t)
            total = total + np.sum(summands, axis=-1)
            size = size + np.sum(np.abs(summands), axis=-1)
        if not np.all(np.isfinite(total)):
            raise QuadratureError("integrand not finite at a node", math.inf)
        previous, value = value, total * math.pi / n
        change, scale = np.abs(value - previous), np.maximum(1.0, size * math.pi / n)
        if np.all(change <= 1e-12 * scale):
            break
        n, new = 2 * n, 2 * np.arange(n) + 1
    else:
        if np.any(change > QUAD_TOLERANCE * scale):
            worst = np.argmax(change / scale)
            raise QuadratureError("quadrature did not converge", float(np.ravel(change)[worst]))
    return complex(value) if np.ndim(value) == 0 else value


def rho_inner(phi, psi, tau: float, nodes: tuple = (0.0, 1.0)):
    """<phi | psi>_rho; linear in phi, conjugating psi, both elementwise on arrays.

    phi may stack components on leading axes; each is then paired with psi,
    all in one sweep, and an array of inner products is returned.  nodes is
    the (c, w) of ``_integrate``'s map.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return _integrate(lambda y: np.conj(psi(y)) * phi(y) / (1 + tau * y * y), nodes)


def rho_norm(psi, tau: float) -> float:
    return math.sqrt(rho_inner(psi, psi, tau).real)


# -- sector operators in the y-representation --------------------------------

# Y, Y^2, P_y and P_y^2 on psi, from its jet (psi, psi', psi'') at nodes y, in
# the order in which _state_scan takes their moments.  P_y acts as
# (1 + tau y^2)(-i hbar d/dy).
SECTOR_IMAGES = {
    "Y": lambda jet, y, p: y * jet[0],
    "Y2": lambda jet, y, p: y * y * jet[0],
    "Py": lambda jet, y, p: (1 + p.tau * y * y) * (-1j * p.hbar) * jet[1],
    "Py2": lambda jet, y, p: (
        -(p.hbar**2)
        * (1 + p.tau * y * y)
        * ((1 + p.tau * y * y) * jet[2] + 2 * p.tau * y * jet[1])
    ),
}


# The bare d/dy is not an observable; it is kept as a detector that the
# Hermiticity check actually rejects non-Hermitian operators.
_IMAGES = {**SECTOR_IMAGES, "d/dy": lambda jet, y, p: jet[1]}


def _image(name: str):
    if name not in _IMAGES:
        raise ValueError(f"unknown sector operator {name!r}")
    return _IMAGES[name]


def apply_operator(name: str, psi, p) -> Callable[[np.ndarray], np.ndarray]:
    """Apply one of Y, P_y, Y^2, P_y^2 (or the bare d/dy detector) to psi.

    psi must expose jet(y) = (psi, psi', psi'') (the Gaussian family does).
    """
    image = _image(name)
    return lambda y: image(psi.jet(y), y, p)


def _moments(psi, p, images) -> np.ndarray:
    """<psi | O psi>_rho / <psi | psi>_rho for the image of each O, one sweep.

    Each level takes one jet of psi and stacks psi with every image read
    from it; paired with the constant 1, ``rho_inner`` integrates
    conj(psi) times that stack on psi's own ``nodes`` map, so the norm is
    its first component.  A normalized moment that is not finite (a norm of
    0, or one so small that dividing by it overflows) raises
    ``QuadratureError``.
    """

    def stack(y):
        jet = psi.jet(y)
        return np.conj(jet[0]) * np.stack([jet[0], *(image(jet, y, p) for image in images)])

    norm, *values = rho_inner(stack, lambda y: 1, p.tau, psi.nodes)
    norm = float(norm.real)
    with np.errstate(all="ignore"):
        moments = np.array(values) / norm
    if not np.all(np.isfinite(moments)):
        raise QuadratureError(f"moments not finite at weighted norm {norm!r}", math.inf)
    return moments


def expectation(name: str, psi, p) -> float:
    """<psi | O psi>_rho / <psi | psi>_rho, returned as a real number."""
    return _moments(psi, p, (_image(name),))[0].real


def verify_rho_hermiticity(name: str, pairs: Sequence, p) -> dict:
    """Max |<phi|O psi> - <O phi|psi>| over the test pairs."""
    worst = 0.0
    for phi, psi in pairs:
        left = rho_inner(apply_operator(name, psi, p), phi, p.tau)
        right = rho_inner(psi, apply_operator(name, phi, p), p.tau)
        worst = max(worst, abs(left - right))
    return {"operator": name, "max_defect": worst, "pairs": len(pairs)}


def _commutator_image(jet, y, p):
    """[Y, P_y] psi = y P_y psi - P_y (y psi), with the jet of y psi."""
    psi, d1, d2 = jet
    py = SECTOR_IMAGES["Py"]
    return y * py(jet, y, p) - py((y * psi, psi + y * d1, 2 * d1 + y * d2), y, p)


def robertson_lower_bound(psi, p) -> float:
    """(1/2) |<[Y, P_y]>_rho| evaluated entirely by quadrature.

    No closed form is substituted for the commutator: both operator orders
    are applied to the state and integrated.
    """
    return 0.5 * abs(_moments(psi, p, (_commutator_image,))[0])


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
        # Imported here, so that only this branch loads scipy.
        from scipy.special import wofz

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
    """One state of the scan with every moment by quadrature: the norm and
    the moments of Y, Y^2, P_y and P_y^2, converged jointly in one sweep."""
    return _state_scan(psi, p, *_moments(psi, p, SECTOR_IMAGES.values()).real)


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
    theoretical floor is hbar sqrt(tau) (``min_delta_py`` at <Y> = 0).
    Every state's moments come from ``gaussian_moments``; the reported
    argmin state is evaluated again by quadrature (``scan_state``), and a
    disagreement raises ``MomentError``.
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
    floor = min_delta_py(p, 0.0)
    return {
        "states": len(scans),
        "worst_bound_gap": worst_gap,
        "min_delta_py": best.delta_py,
        "min_delta_py_normalized": min_normalized,
        "momentum_floor": floor,
        "floor_ratio": (min_normalized / floor) if floor > 0 else None,
        "argmin": {"sigma": best.sigma, "kick": best.kick, "y_mean": best.y_mean},
    }


def uncertainty_report(p, y_mean: float, brute_force: dict | None = None) -> dict:
    """JSON-ready report of the closed-form bounds at one <Y>.  A bound that
    overflows (``y_mean**2`` beyond the float range, or an infinite factor,
    which times theta = 0 is NaN) raises MomentError naming it, so every
    number of a report is finite."""
    report = {"hbar": p.hbar, "theta": p.theta, "tau": p.tau, "y_mean": y_mean}
    for name, bound in (("delta_x_min", min_delta_x), ("delta_py_min", min_delta_py),
                        ("squeezing_bound", squeezing_bound)):
        try:
            report[name] = bound(p, y_mean)
            if not math.isfinite(report[name]):
                raise OverflowError
        except OverflowError:
            raise MomentError(f"{name} overflows at this parameter point") from None
    if brute_force is not None:
        report["brute_force"] = brute_force
    return report
