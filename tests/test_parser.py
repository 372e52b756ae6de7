import random
from fractions import Fraction

import pytest

from ncphase.algebra import CANONICAL, Expression, normal_order, powers_of
from ncphase.maps import named_operator
from ncphase.parsing import ParseError, UnknownSymbolError, parse
from ncphase.rationals import GR_I, GaussianRational


def test_commutator_bracket_expands_unreduced():
    e = parse("[x,y]")
    assert e == Expression.word(("x", "y")) - Expression.word(("y", "x"))
    assert normal_order(e, __import__("ncphase").NONCOMMUTATIVE) == Expression.from_scalar(
        GR_I, theta=1
    )


def test_like_terms_collect():
    assert parse("q1 + q1") == Expression.generator("q1") * 2


def test_product_distributes():
    e = parse("(1 + tau*y^2)*x")
    assert e.terms == {
        (("x",), powers_of()): GaussianRational(1),
        (("y", "y", "x"), powers_of(tau=1)): GaussianRational(1),
    }


def test_rational_literals_and_powers():
    e = parse("3/4*q1^2")
    assert e.terms == {(("q1", "q1"), powers_of()): GaussianRational(Fraction(3, 4))}


def test_unary_minus_chains():
    assert parse("--q1") == parse("q1")
    assert parse("-+-+q1") == parse("q1")
    assert parse("2 - -3") == Expression.from_scalar(5)


def test_imaginary_unit_and_parameters():
    e = parse("i*hbar*m*omega*theta*eta*tau")
    assert e.terms == {
        ((), powers_of(hbar=1, m=1, omega=1, theta=1, eta=1, tau=1)): GR_I
    }


def test_capitals_expand_to_named_operators():
    assert parse("X") == named_operator("X")
    assert parse("Y") == named_operator("Y")
    assert parse("Px") == named_operator("Px")
    assert parse("Py") == named_operator("Py")
    # and they are usable inside larger expressions
    assert parse("X*Y") == named_operator("X") * named_operator("Y")


def test_nested_commutators():
    e = parse("[q1, [q2, pi2]]")
    assert normal_order(e, CANONICAL).is_zero()


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("q1 + * q2")
    assert info.value.position == 5
    for text, message in (("1/", "expected digits after '/'"), ("1/0", "zero denominator")):
        with pytest.raises(ParseError, match=f"^{message} \\(at position 2\\)$") as info:
            parse(text)
        assert info.value.position == 2


@pytest.mark.parametrize("text, message, position", [
    ("\u00b2", "unexpected character '\u00b2'", 0),
    ("q1^\u00b2", "unexpected character '\u00b2'", 3),
    ("3/\u00b2", "expected digits after '/'", 2),
])
def test_superscript_digit_is_a_syntax_error(text, message, position):
    # A superscript two is a digit to str.isdigit but not to int().
    with pytest.raises(ParseError, match=f"^{message} \\(at position {position}\\)$") as info:
        parse(text)
    assert info.value.position == position


def test_unknown_symbol_error():
    with pytest.raises(UnknownSymbolError) as info:
        parse("q1 + frobnicate")
    assert info.value.name == "frobnicate"


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(q1 + q2")


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse("q1^(1/2)")
    with pytest.raises(ParseError):
        parse("q1^1/2")  # exponent must be a plain integer token


def test_division_not_in_grammar():
    with pytest.raises(ParseError):
        parse("q1/2")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("")


def test_serialize_parse_round_trip():
    # Round trip is possible whenever no negative dimensional exponents
    # appear (the grammar has only nonnegative powers).
    rng = random.Random(3)
    names = ("q1", "q2", "pi1", "pi2")
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
            powers = powers_of(
                hbar=rng.randint(0, 2), theta=rng.randint(0, 1), tau=rng.randint(0, 1)
            )
            coef = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            if not coef.is_zero():
                terms[(word, powers)] = coef
        e = Expression("canonical" if any(w for (w, _) in terms) else None, terms)
        assert parse(str(e)) == e
