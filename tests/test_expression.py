"""Core expression arithmetic, normal ordering, adjoints, truncation."""

import pickle
import random
from fractions import Fraction

import pytest

from ncphase.algebra import (
    ALPHABETS,
    CANONICAL,
    DEFAULT_POLICY,
    NONCOMMUTATIVE,
    TABLES,
    AlgebraError,
    Expression,
    MixedAlphabetError,
    TruncationPolicy,
    UNDEFORMED_POLICY,
    commutator,
    formal_adjoint,
    normal_order,
    powers_of,
    truncate,
)
from ncphase.parsing import parse
from ncphase.rationals import GR_I, GaussianRational


def i_times(**powers):
    return Expression.from_scalar(GR_I, **powers)


# -- construction and arithmetic ----------------------------------------------


def test_like_terms_collect_and_zeros_vanish():
    q1 = Expression.generator("q1")
    assert (q1 + q1) == q1 * 2
    assert (q1 - q1).is_zero()
    assert (q1 - q1) == Expression.zero()


def test_multiply_concatenates_words():
    q1, pi1 = Expression.generator("q1"), Expression.generator("pi1")
    prod = q1 * pi1
    assert prod.terms == {(("q1", "pi1"), powers_of()): GaussianRational(1)}


def test_multiply_distributes():
    x, y = Expression.generator("x"), Expression.generator("y")
    prod = (x + y) * x
    assert prod == Expression.word(("x", "x")) + Expression.word(("y", "x"))


def test_coefficient_exponents_add():
    y = Expression.generator("y")
    theta_y = y * Expression.from_scalar(1, theta=1)
    tau_y = y * Expression.from_scalar(1, tau=1)
    prod = theta_y * tau_y
    assert prod.terms == {(("y", "y"), powers_of(theta=1, tau=1)): GaussianRational(1)}


def test_init_cannot_rewrite_an_expression():
    q1 = Expression.generator("q1")
    q1.__init__(None, {})
    assert q1 == Expression.generator("q1") and not q1.is_zero()


def test_mixed_alphabet_rejected():
    with pytest.raises(MixedAlphabetError):
        Expression.generator("q1") * Expression.generator("x")


@pytest.mark.parametrize("powers, message", [
    ((0, 0, 0, -1, 0, 0), "negative exponent not allowed for theta"),
    ((0, 0, 0, 0, -1, 0), "negative exponent not allowed for eta"),
    ((0, 0, 0, 0, 0, -2), "negative exponent not allowed for tau"),
    ((0, 0, 0), "exponent vector must have one entry per parameter"),
])
def test_public_constructor_checks_every_exponent_vector(powers, message):
    with pytest.raises(AlgebraError, match=message):
        Expression("canonical", {(("q1",), powers): GR_I})


def test_public_constructor_checks_every_letter():
    with pytest.raises(MixedAlphabetError, match="generator 'x' does not belong"):
        Expression("canonical", {(("q1", "x"), powers_of()): GR_I})


def test_results_store_no_zero_and_a_scalar_has_no_alphabet():
    # Sums, commutators and normal ordering build their results without the
    # public checks, so they must still drop what cancels.
    x, y = Expression.generator("x"), Expression.generator("y")
    cancelled = [
        x - x,
        commutator(x, x, NONCOMMUTATIVE),
        normal_order(x * y - y * x - i_times(theta=1), NONCOMMUTATIVE),
        -(x * 0),
    ]
    for e in cancelled:
        assert e.terms == {} and e.alphabet is None
    # Only the scalar survives, so the result is alphabet-agnostic.
    scalar = normal_order(x * y - y * x, NONCOMMUTATIVE)
    assert scalar == i_times(theta=1) and scalar.alphabet is None
    partial = normal_order(y * x - x * y + x, NONCOMMUTATIVE)
    assert partial.alphabet == "noncommutative"
    assert all(not coef.is_zero() for coef in partial.terms.values())


def test_pickle_round_trip_goes_through_the_checks():
    e = normal_order(parse("Py*X*X + 1/2*theta*Y"), NONCOMMUTATIVE)
    assert pickle.loads(pickle.dumps(e)) == e
    # Unpickling calls the public constructor, so a term map that no
    # operation can produce is still rejected there.
    forged = normal_order(Expression.generator("q1"), CANONICAL)
    object.__setattr__(forged, "terms", {(("q1",), (0, 0, 0, -1, 0, 0)): GR_I})
    with pytest.raises(AlgebraError, match="negative exponent not allowed for theta"):
        pickle.loads(pickle.dumps(forged))


def test_negative_exponents_only_for_dimensional_parameters():
    Expression.from_scalar(1, hbar=-2, m=-1, omega=-1)  # fine
    with pytest.raises(AlgebraError):
        Expression.from_scalar(1, theta=-1)


def test_from_scalar_takes_a_parameter_monomial():
    assert Expression.from_scalar(GR_I, theta=1) == i_times(theta=1)
    assert Expression.from_scalar(Fraction(1, 2), m=1, omega=2) == parse("1/2*m*omega^2")
    # A zero coefficient is not stored, but its monomial is still checked.
    for value in (1, 0):
        with pytest.raises(AlgebraError):
            Expression.from_scalar(value, theta=-1)


def test_power_operator():
    y = Expression.generator("y")
    assert y ** 3 == Expression.word(("y", "y", "y"))
    assert y ** 0 == Expression.from_scalar(1)
    with pytest.raises(AlgebraError):
        y ** -1


# -- normal ordering -----------------------------------------------------------


def test_canonical_swap():
    e = Expression.word(("pi1", "q1"))
    expected = Expression.word(("q1", "pi1")) - i_times(hbar=1)
    assert normal_order(e, CANONICAL) == expected


def test_position_position_swap():
    e = Expression.word(("y", "x"))
    expected = Expression.word(("x", "y")) - i_times(theta=1)
    assert normal_order(e, NONCOMMUTATIVE) == expected


def test_double_swap_by_hand():
    # py y y = y y py - 2 i hbar y, two successive single swaps.
    e = Expression.word(("py", "y", "y"))
    expected = Expression.word(("y", "y", "py")) - 2 * i_times(hbar=1) * Expression.generator("y")
    assert normal_order(e, NONCOMMUTATIVE) == expected


def test_ordering_is_total_on_long_words():
    e = Expression.word(("pi2", "pi1", "q2", "q1"))
    ordered = normal_order(e, CANONICAL)
    for (word, _powers), _coef in ordered.terms.items():
        ranks = [ALPHABETS["canonical"].index(g) for g in word]
        assert ranks == sorted(ranks)


def _random_expression(rng, alphabet, max_terms=4, max_len=4):
    names = ALPHABETS[alphabet]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, max_len)))
        powers = powers_of(
            hbar=rng.randint(-1, 1),
            theta=rng.randint(0, 1),
            eta=rng.randint(0, 1),
            tau=rng.randint(0, 1),
        )
        coef = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )
        if not coef.is_zero():
            terms[(word, powers)] = coef
    return Expression(alphabet if any(w for (w, _p) in terms) else None, terms)


@pytest.mark.parametrize("alphabet", ["canonical", "noncommutative"])
def test_normal_order_idempotent(alphabet):
    rng = random.Random(7)
    table = TABLES[alphabet]
    for _ in range(25):
        e = _random_expression(rng, alphabet)
        once = normal_order(e, table)
        assert normal_order(once, table) == once


@pytest.mark.parametrize("alphabet", ["canonical", "noncommutative"])
def test_associativity_survives_reduction(alphabet):
    rng = random.Random(11)
    table = TABLES[alphabet]
    for _ in range(15):
        a = _random_expression(rng, alphabet, max_terms=2, max_len=3)
        b = _random_expression(rng, alphabet, max_terms=2, max_len=3)
        c = _random_expression(rng, alphabet, max_terms=2, max_len=3)
        left = normal_order((a * b) * c, table)
        right = normal_order(a * (b * c), table)
        assert left == right


def test_ordering_preserves_operator_identity():
    # Reordering must not change the operator: check associativity of the
    # reduction against a hand-reduced product.
    e = parse("[pi1, q1*q1]")
    assert normal_order(e, CANONICAL) == -2 * i_times(hbar=1) * Expression.generator("q1")


# -- formal adjoint -------------------------------------------------------------


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(13)
    for alphabet in ("canonical", "noncommutative"):
        for _ in range(15):
            a = _random_expression(rng, alphabet, max_terms=3, max_len=3)
            b = _random_expression(rng, alphabet, max_terms=3, max_len=3)
            assert formal_adjoint(formal_adjoint(a)) == a
            assert formal_adjoint(a * b) == formal_adjoint(b) * formal_adjoint(a)


def test_generators_self_adjoint():
    q1 = Expression.generator("q1")
    assert formal_adjoint(q1) == q1


def test_adjoint_conjugates_coefficients():
    e = i_times(hbar=1) * Expression.generator("q1")
    assert formal_adjoint(e) == -e


# -- truncation ------------------------------------------------------------------


def test_default_policy_drops_cross_terms():
    e = Expression.generator("q1") * Expression.from_scalar(1, theta=1, eta=1)
    assert truncate(e, DEFAULT_POLICY).is_zero()


def test_default_policy_keeps_linear_tau_quartic():
    e = parse("tau*q2^2*q1^2")
    assert truncate(e, DEFAULT_POLICY) == e


def test_default_policy_drops_tau_squared():
    e = parse("tau^2*q2")
    assert truncate(e, DEFAULT_POLICY).is_zero()


def test_caps_policy():
    zeroed = UNDEFORMED_POLICY
    assert truncate(parse("theta*q1 + q1"), zeroed) == parse("q1")
    custom = TruncationPolicy.of(caps={"tau": 1}, forbidden=[{"theta": 1, "eta": 1}])
    assert truncate(parse("tau*q1"), custom) == parse("tau*q1")
    assert truncate(parse("tau^2*q1"), custom).is_zero()
    assert truncate(parse("theta*eta*q1"), custom).is_zero()


def test_forbidden_patterns_ignore_dimensional_exponents():
    # A negative hbar power must not shield a forbidden theta-eta monomial.
    e = Expression.generator("q1") * Expression.from_scalar(1, theta=1, eta=1, hbar=-1)
    assert truncate(e, DEFAULT_POLICY).is_zero()


# -- serialization ---------------------------------------------------------------


def test_serialization_sorted_by_word_then_monomial():
    e = (
        parse("q2*pi1")
        + parse("theta*q1")
        + parse("q1")
        + Expression.from_scalar(2, hbar=1)
    )
    assert str(e) == "2*hbar + 1*q1 + 1*theta*q1 + 1*q2*pi1"


def test_serialization_is_deterministic_under_construction_order():
    a = parse("q1 + q2") + parse("pi1*pi2")
    b = parse("pi1*pi2") + parse("q2") + parse("q1")
    assert str(a) == str(b)


def test_zero_prints_as_zero():
    assert str(Expression.zero()) == "0"


def test_equality_is_term_map_identity():
    a = normal_order(parse("pi1*q1"), CANONICAL)
    b = normal_order(parse("q1*pi1 - i*hbar"), CANONICAL)
    assert a == b
    assert str(a) == str(b)
