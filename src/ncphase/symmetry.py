"""Discrete parity-time transformations and invariance checks.

Every variant acts the same way on generators: position-type generators
flip sign, momenta are fixed, and coefficients are complex conjugated
(the time-reversal part).  The variants differ only in which deformation
parameters they flip:

* ``PT``                 no parameter flips
* ``P_THETA_T``          theta -> -theta
* ``P_THETA_ETA_T``      theta -> -theta and eta -> -eta

The combined table acts on both alphabets; on the canonical side it is the
push-forward of the noncommutative action through the Bopp shift (exact for
the variant that flips both parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraTable,
    Expression,
    PARAMS,
    POSITION_GENERATORS,
    TABLES,
    commutator,
    normal_order,
)


@dataclass(frozen=True)
class PTVariant:
    kind: str
    flips_theta: bool = False
    flips_eta: bool = False


PT = PTVariant("PT")
P_THETA_T = PTVariant("PthetaT", flips_theta=True)
P_THETA_ETA_T = PTVariant("PthetaetaT", flips_theta=True, flips_eta=True)

_THETA = PARAMS.index("theta")
_ETA = PARAMS.index("eta")


def apply(e: Expression, variant: PTVariant) -> Expression:
    """Term-wise sign map and conjugation, then normal ordering."""
    out = {}
    for (word, powers), coef in e.terms.items():
        sign = -1 if sum(1 for g in word if g in POSITION_GENERATORS) % 2 else 1
        if variant.flips_theta and powers[_THETA] % 2:
            sign = -sign
        if variant.flips_eta and powers[_ETA] % 2:
            sign = -sign
        value = coef.conjugate()
        out[(word, powers)] = value if sign == 1 else -value
    result = Expression(e.alphabet, out)
    if result.alphabet is None:
        return result
    return normal_order(result, TABLES[result.alphabet])


def is_invariant(e: Expression, variant: PTVariant) -> bool:
    """True iff the transformation fixes the normal-ordered expression."""
    if e.alphabet is None:
        return apply(e, variant) == e
    ordered = normal_order(e, TABLES[e.alphabet])
    return apply(ordered, variant) == ordered


def check_algebra_invariance(table: AlgebraTable, variant: PTVariant) -> list:
    """Compare the transform of each commutation relation with the
    commutator of the transformed generators.

    Returns one JSON-ready row per generator pair:
    ``{"relation", "preserved", "residual"}``.
    """
    rows = []
    for a, b in table.relation_pairs():
        lhs = apply(table.commutator_of(a, b), variant)
        rhs = commutator(
            apply(Expression.generator(a), variant),
            apply(Expression.generator(b), variant),
            table,
        )
        residual = lhs - rhs
        rows.append(
            {
                "relation": f"[{a}, {b}]",
                "preserved": residual.is_zero(),
                "residual": str(residual),
            }
        )
    return rows
