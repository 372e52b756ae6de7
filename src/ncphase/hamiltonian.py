"""Symbolic oscillator Hamiltonians in the deformed phase space.

``build_hamiltonian`` expands the isotropic oscillator written in the
capital-letter operators, pushes it through the Bopp shift to canonical
variables, normal-orders, and truncates.  Under the default policy the
result coincides, coefficient by coefficient, with the three named pieces:

* ``h_core``       (pi1^2 + pi2^2)/2m + m omega^2 (q1^2 + q2^2)/2
* ``h_theta_eta``  (eta/2m hbar + m omega^2 theta/2 hbar)(q2 pi1 - q1 pi2)
* ``h_tau``        tau (m omega^2 q2^2 q1^2 - (i hbar/m) q2 pi2
                        + (1/m) q2^2 pi2^2)

``PIECES`` names the piece of each deformation order, and ``by_order``
splits any Hamiltonian by it.  Only ``reference_hamiltonian`` reads the
hand-written pieces; every numeric report reads the pieces of the built one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .algebra import (
    CANONICAL,
    DEFAULT_POLICY,
    PARAMS,
    Expression,
    TruncationPolicy,
    normal_order,
    truncate,
)
from .maps import BOPP, named_operator, substitute
from .rationals import GR_I


def h_core() -> Expression:
    """The undeformed isotropic oscillator."""
    q1, q2 = Expression.generator("q1"), Expression.generator("q2")
    pi1, pi2 = Expression.generator("pi1"), Expression.generator("pi2")
    kinetic = (pi1 * pi1 + pi2 * pi2) * Expression.from_scalar(Fraction(1, 2), m=-1)
    potential = (q1 * q1 + q2 * q2) * Expression.from_scalar(Fraction(1, 2), m=1, omega=2)
    return kinetic + potential


def h_theta_eta() -> Expression:
    """The angular-momentum coupling induced by the flat deformations."""
    q1, q2 = Expression.generator("q1"), Expression.generator("q2")
    pi1, pi2 = Expression.generator("pi1"), Expression.generator("pi2")
    angular = q2 * pi1 - q1 * pi2
    half = Fraction(1, 2)
    coefficient = Expression.from_scalar(half, eta=1, m=-1, hbar=-1) + Expression.from_scalar(
        half, m=1, omega=2, theta=1, hbar=-1
    )
    return coefficient * angular


def h_tau() -> Expression:
    """The first-order position-dependent (non-Hermitian) correction."""
    q1, q2 = Expression.generator("q1"), Expression.generator("q2")
    pi2 = Expression.generator("pi2")
    quartic = (q2 * q2 * q1 * q1) * Expression.from_scalar(1, tau=1, m=1, omega=2)
    linear = (q2 * pi2) * Expression.from_scalar(-GR_I, tau=1, hbar=1, m=-1)
    squared = (q2 * q2 * pi2 * pi2) * Expression.from_scalar(1, tau=1, m=-1)
    return quartic + linear + squared


def build_hamiltonian(
    policy: TruncationPolicy = DEFAULT_POLICY,
    bopp: Mapping[str, Expression] = BOPP,
) -> Expression:
    """(Px^2 + Py^2)/2m + m omega^2 (X^2 + Y^2)/2, reduced and truncated.

    The capitals expand to their noncommutative images, the Bopp shift maps
    the result to canonical variables, and the outcome is normal-ordered and
    truncated under ``policy``.  The ``bopp`` map is injectable so fault
    drills can exercise a wrong-sign convention.
    """
    X, Y = named_operator("X"), named_operator("Y")
    Px, Py = named_operator("Px"), named_operator("Py")
    kinetic = (Px * Px + Py * Py) * Expression.from_scalar(Fraction(1, 2), m=-1)
    potential = (X * X + Y * Y) * Expression.from_scalar(Fraction(1, 2), m=1, omega=2)
    canonical = substitute(kinetic + potential, bopp)
    return truncate(canonical, policy)


# The named piece of each (theta, eta, tau) exponent triple; a term of any
# other order belongs to no piece.
PIECES = {
    (0, 0, 0): "h_core",
    (1, 0, 0): "h_theta_eta",
    (0, 1, 0): "h_theta_eta",
    (0, 0, 1): "h_tau",
}

_DEFORMATIONS = slice(PARAMS.index("theta"), PARAMS.index("tau") + 1)


def piece_of(exponents: Sequence) -> Optional[str]:
    """The ``PIECES`` name of a term with these exponents over ``PARAMS``,
    or None: an Expression term's powers, or a compiled plan term's
    exponents, whose theta, eta and tau entries are the term's own."""
    return PIECES.get(tuple(exponents[_DEFORMATIONS]))


def by_order(h: Expression) -> dict:
    """The terms of ``h`` split by ``piece_of``: each piece name maps to the
    Expression of its terms (zero if none), and the other terms are dropped."""
    groups = {name: {} for name in PIECES.values()}
    for key, coef in h.terms.items():
        name = piece_of(key[1])
        if name is not None:
            groups[name][key] = coef
    return {name: Expression(h.alphabet, terms) for name, terms in groups.items()}


def reference_hamiltonian() -> Expression:
    """The normal-ordered sum of the three named pieces."""
    return normal_order(h_core() + h_theta_eta() + h_tau(), CANONICAL)
