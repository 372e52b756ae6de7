"""Exact operator-identity suites: flat closure through the Bopp shift,
the deformed commutation table, Jacobi identities, and the adjoints."""

from fractions import Fraction

import pytest

from ncphase.algebra import (
    CANONICAL,
    NONCOMMUTATIVE,
    Expression,
    MissingImageError,
    commutator,
    formal_adjoint,
    jacobi,
    normal_order,
    powers_of,
)
from ncphase.maps import BOPP, named_operator, substitute
from ncphase.parsing import parse
from ncphase.rationals import GR_I, GaussianRational


def i_times(**powers):
    return Expression.from_scalar(GR_I, **powers)


def bopp(text: str) -> Expression:
    return substitute(parse(text), BOPP)


# -- flat closure under the Bopp shift ----------------------------------------


def test_position_position_commutator_survives():
    assert commutator(bopp("x"), bopp("y"), CANONICAL) == i_times(theta=1)


def test_momentum_momentum_commutator_survives():
    assert commutator(bopp("px"), bopp("py"), CANONICAL) == i_times(eta=1)


def test_cross_commutators_vanish():
    assert commutator(bopp("x"), bopp("py"), CANONICAL).is_zero()
    assert commutator(bopp("y"), bopp("px"), CANONICAL).is_zero()


@pytest.mark.parametrize("pos,mom", [("x", "px"), ("y", "py")])
def test_position_momentum_residue_is_exact(pos, mom):
    # The same-direction commutators deviate from i hbar by exactly
    # i theta eta / 4 hbar and nothing else.
    got = commutator(bopp(pos), bopp(mom), CANONICAL)
    residue = i_times(theta=1, eta=1, hbar=-1) * Fraction(1, 4)
    assert got == i_times(hbar=1) + residue
    assert got - i_times(hbar=1) == residue


def test_bopp_of_commutator_expression():
    # Substitution is a homomorphism, so it can be applied to the bracket.
    got = substitute(parse("[x, px]"), BOPP)
    assert got == i_times(hbar=1) + i_times(theta=1, eta=1, hbar=-1) * Fraction(1, 4)


def test_substitute_rejects_missing_image():
    half_map = {"x": Expression.generator("q1")}
    with pytest.raises(MissingImageError):
        substitute(parse("x*y"), half_map)


# -- deformed commutation table -------------------------------------------------


def nc(text: str) -> Expression:
    return normal_order(parse(text), NONCOMMUTATIVE)


def test_deformed_position_position():
    X, Y = named_operator("X"), named_operator("Y")
    assert commutator(X, Y, NONCOMMUTATIVE) == nc("i*theta*(1 + tau*y^2)")


def test_deformed_same_direction():
    X, Y = named_operator("X"), named_operator("Y")
    Px, Py = named_operator("Px"), named_operator("Py")
    expected = nc("i*hbar*(1 + tau*y^2)")
    assert commutator(X, Px, NONCOMMUTATIVE) == expected
    assert commutator(Y, Py, NONCOMMUTATIVE) == expected


def test_deformed_momentum_momentum():
    Px, Py = named_operator("Px"), named_operator("Py")
    assert commutator(Px, Py, NONCOMMUTATIVE) == nc("i*eta*(1 + tau*y^2)")


def test_deformed_y_px_vanishes():
    Y, Px = named_operator("Y"), named_operator("Px")
    assert commutator(Y, Px, NONCOMMUTATIVE).is_zero()


def test_deformed_x_py_matches_both_routes():
    # [X, Py] computed by the engine must equal the closed operator form
    # 2 i tau Y (theta Py + hbar X), each reduced to normal order.
    X, Py = named_operator("X"), named_operator("Py")
    direct = commutator(X, Py, NONCOMMUTATIVE)
    closed = nc("2*i*tau*Y*(theta*Py + hbar*X)")
    assert direct == closed
    assert not direct.is_zero()


def test_deformed_closure_is_exact_not_first_order():
    # The identity is exact, not merely first order: both tau orders match.
    X, Y = named_operator("X"), named_operator("Y")
    assert commutator(X, Y, NONCOMMUTATIVE) == nc("i*theta + i*theta*tau*y^2")


# -- Jacobi identities -----------------------------------------------------------


@pytest.mark.parametrize(
    "triple",
    [
        ("X", "Y", "Px"),
        ("X", "Y", "Py"),
        ("X", "Px", "Py"),
        ("Y", "Px", "Py"),
    ],
)
def test_jacobi_on_deformed_operators(triple):
    a, b, c = (named_operator(name) for name in triple)
    assert jacobi(a, b, c, NONCOMMUTATIVE).is_zero()


def test_jacobi_on_canonical_generators():
    q1, q2, pi1 = (Expression.generator(name) for name in ("q1", "q2", "pi1"))
    assert jacobi(q1, q2, pi1, CANONICAL).is_zero()


# -- adjoints ---------------------------------------------------------------------


def adjoint_nc(e: Expression) -> Expression:
    return normal_order(formal_adjoint(e), NONCOMMUTATIVE)


def test_adjoint_of_x_operator():
    X, Y = named_operator("X"), named_operator("Y")
    assert adjoint_nc(X) == normal_order(X + 2 * parse("i*tau*theta") * Y, NONCOMMUTATIVE)
    # the unreduced dagger is x (1 + tau y^2): pure word reversal
    expected = Expression(
        "noncommutative",
        {
            (("x",), powers_of()): GaussianRational(1),
            (("x", "y", "y"), powers_of(tau=1)): GaussianRational(1),
        },
    )
    assert formal_adjoint(X) == expected


def test_adjoint_of_y_and_px_fixed():
    assert adjoint_nc(named_operator("Y")) == named_operator("Y")
    assert adjoint_nc(named_operator("Px")) == named_operator("Px")


def test_adjoint_of_py_operator():
    Py, Y = named_operator("Py"), named_operator("Y")
    assert adjoint_nc(Py) == normal_order(Py - 2 * parse("i*tau*hbar") * Y, NONCOMMUTATIVE)


def test_named_operators_match_their_defining_products():
    # X = (1 + tau y^2) x and Py = (1 + tau y^2) py, written out term by term.
    def deformed(g):
        return Expression(
            "noncommutative",
            {
                ((g,), powers_of()): GaussianRational(1),
                (("y", "y", g), powers_of(tau=1)): GaussianRational(1),
            },
        )

    images = {
        "X": deformed("x"),
        "Y": Expression.generator("y"),
        "Px": Expression.generator("px"),
        "Py": deformed("py"),
    }
    for name, image in images.items():
        assert named_operator(name) == image
        assert parse(name) == image


def test_bopp_is_a_commutator_homomorphism_on_random_pairs():
    # substitute([a, b]) == [substitute(a), substitute(b)] exactly, for
    # random noncommutative polynomials: the algebra map respects brackets.
    import random

    from ncphase.algebra import powers_of
    from ncphase.rationals import GaussianRational

    rng = random.Random(17)
    names = ("x", "y", "px", "py")
    for _ in range(10):
        def rand_expr():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
                coef = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                if not coef.is_zero():
                    terms[(word, powers_of(tau=rng.randint(0, 1)))] = coef
            return Expression("noncommutative", terms)

        a, b = rand_expr(), rand_expr()
        if a.is_zero() or b.is_zero():
            continue
        left = substitute(a * b - b * a, BOPP)
        right = commutator(substitute(a, BOPP), substitute(b, BOPP), CANONICAL)
        assert left == right
