"""The Bopp substitution map and the named capital-letter operators.

``BOPP`` realizes the flat noncommutative variables through canonical ones:
x = q1 - (theta/2 hbar) pi2,  y = q2 + (theta/2 hbar) pi1,
px = pi1 + (eta/2 hbar) q2,  py = pi2 - (eta/2 hbar) q1.
The antisymmetric-symbol convention is e_12 = +1, e_21 = -1; this choice
reproduces [x, y] = i theta and [px, py] = i eta with the right signs.
``flipped_bopp()`` builds the same map with the convention reversed.

``NAMED_OPERATORS`` defines the capital-letter operators through the
noncommutative alphabet:  X = (1 + tau y^2) x,  Y = y,  Px = px,
Py = (1 + tau y^2) py.  The capitals are not generators; they exist only as
these named expressions (the parser expands them on sight).
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .algebra import CANONICAL, Expression, MissingImageError, normal_order


def substitute(e: Expression, images: Mapping[str, Expression]) -> Expression:
    """Replace each generator g by ``images[g]`` and normal-order the result
    in the canonical table: the algebra homomorphism the images define.

    The images are multiplied in word by word while the product is kept
    normal-ordered, so the unordered expansion is never built.
    """
    return normal_order(e, CANONICAL, images)


def _make_bopp(sign: int = 1) -> Mapping[str, Expression]:
    q1 = Expression.generator("q1")
    q2 = Expression.generator("q2")
    pi1 = Expression.generator("pi1")
    pi2 = Expression.generator("pi2")
    theta_over_2hbar = Expression.from_scalar(Fraction(1, 2), theta=1, hbar=-1)
    eta_over_2hbar = Expression.from_scalar(Fraction(1, 2), eta=1, hbar=-1)
    return MappingProxyType({
        "x": q1 - pi2 * theta_over_2hbar * sign,
        "y": q2 + pi1 * theta_over_2hbar * sign,
        "px": pi1 + q2 * eta_over_2hbar * sign,
        "py": pi2 - q1 * eta_over_2hbar * sign,
    })


def flipped_bopp() -> Mapping[str, Expression]:
    """Bopp map with the antisymmetric-symbol convention reversed.

    A fault drill: the closure checks must catch the wrong sign.
    """
    return _make_bopp(sign=-1)


BOPP = _make_bopp()


def _make_named_operators() -> dict:
    x = Expression.generator("x")
    y = Expression.generator("y")
    px = Expression.generator("px")
    py = Expression.generator("py")
    deformation = Expression.from_scalar(1) + (y * y) * Expression.from_scalar(1, tau=1)
    return {"X": deformation * x, "Y": y, "Px": px, "Py": deformation * py}


# The named operators the parser exposes as X, Y, Px, Py.
NAMED_OPERATORS = _make_named_operators()


def named_operator(name: str) -> Expression:
    """The defining noncommutative expression of X, Y, Px or Py."""
    try:
        return NAMED_OPERATORS[name]
    except KeyError:
        raise MissingImageError(f"no named operator {name!r}") from None
