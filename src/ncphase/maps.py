"""Substitution maps between the generator alphabets.

Two maps are provided:

* ``BOPP`` realizes the flat noncommutative variables through canonical
  ones:  x = q1 - (theta/2 hbar) pi2,  y = q2 + (theta/2 hbar) pi1,
  px = pi1 + (eta/2 hbar) q2,  py = pi2 - (eta/2 hbar) q1.
  The antisymmetric-symbol convention is e_12 = +1, e_21 = -1; this choice
  reproduces [x, y] = i theta and [px, py] = i eta with the right signs.

* ``CAPITAL_MAP`` defines the capital-letter operators through the
  noncommutative alphabet:  X = (1 + tau y^2) x,  Y = y,  Px = px,
  Py = (1 + tau y^2) py.  The capitals are not generators; they exist only
  as these named expressions (the parser expands them on sight).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import (
    Expression,
    MissingImageError,
    Scalar,
    TABLES,
    normal_order,
)


@dataclass(frozen=True)
class SubstitutionMap:
    """Generator-wise images defining an algebra homomorphism."""

    name: str
    target: str  # target alphabet name
    images: Mapping[str, Expression]


def substitute(e: Expression, mapping: SubstitutionMap) -> Expression:
    """Homomorphic replacement followed by normal ordering in the target."""
    table = TABLES[mapping.target]
    out = Expression.zero()
    for (word, powers), coef in e.terms.items():
        factor = Expression.from_scalar(Scalar(coef, powers))
        for g in word:
            image = mapping.images.get(g)
            if image is None:
                raise MissingImageError(
                    f"map {mapping.name!r} has no image for generator {g!r}"
                )
            factor = factor * image
        out = out + factor
    return normal_order(out, table)


def _make_bopp(sign: int = 1) -> SubstitutionMap:
    q1 = Expression.generator("q1")
    q2 = Expression.generator("q2")
    pi1 = Expression.generator("pi1")
    pi2 = Expression.generator("pi2")
    theta_over_2hbar = Expression.from_scalar(Fraction(1, 2), theta=1, hbar=-1)
    eta_over_2hbar = Expression.from_scalar(Fraction(1, 2), eta=1, hbar=-1)
    return SubstitutionMap(
        name="bopp" if sign == 1 else "bopp-flipped",
        target="canonical",
        images={
            "x": q1 - pi2 * theta_over_2hbar * sign,
            "y": q2 + pi1 * theta_over_2hbar * sign,
            "px": pi1 + q2 * eta_over_2hbar * sign,
            "py": pi2 - q1 * eta_over_2hbar * sign,
        },
    )


def flipped_bopp() -> SubstitutionMap:
    """Bopp map with the antisymmetric-symbol convention reversed.

    A fault drill: the closure checks must catch the wrong sign.
    """
    return _make_bopp(sign=-1)


def _make_capital_map() -> SubstitutionMap:
    x = Expression.generator("x")
    y = Expression.generator("y")
    px = Expression.generator("px")
    py = Expression.generator("py")
    deformation = Expression.from_scalar(1) + (y * y) * Expression.from_scalar(1, tau=1)
    return SubstitutionMap(
        name="capitals",
        target="noncommutative",
        images={
            "X": deformation * x,
            "Y": y,
            "Px": px,
            "Py": deformation * py,
        },
    )


BOPP = _make_bopp()
CAPITAL_MAP = _make_capital_map()

# The named operators the parser exposes as X, Y, Px, Py.
NAMED_OPERATORS = dict(CAPITAL_MAP.images)


def named_operator(name: str) -> Expression:
    """The defining noncommutative expression of X, Y, Px or Py."""
    try:
        return NAMED_OPERATORS[name]
    except KeyError:
        raise MissingImageError(f"no named operator {name!r}") from None
