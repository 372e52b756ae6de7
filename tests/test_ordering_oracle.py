"""The ordered prefix walk of ``normal_order`` and ``substitute`` against the
rewrite-stack reference they replaced, and ``commutator`` against ordering
a*b - b*a.

The reference below is the earlier implementation: ``reference_normal_order``
applies g_i g_j -> g_j g_i + [g_i, g_j] (rank g_i > rank g_j) until no word
has an inversion, and ``reference_substitute`` first expands every word into
the full product of its images and then orders that.  Both are exact, so the
term maps must be equal, not merely close.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ncphase.hamiltonian as hamiltonian
from ncphase.algebra import (
    ALPHABETS,
    CANONICAL,
    DEFAULT_POLICY,
    FIRST_ORDER_CROSS_POLICY,
    PARAMS,
    TABLES,
    UNDEFORMED_POLICY,
    AlgebraTable,
    Expression,
    MissingImageError,
    MixedAlphabetError,
    NONCOMMUTATIVE,
    commutator,
    normal_order,
    rank,
)
from ncphase.maps import BOPP, flipped_bopp, named_operator, substitute
from ncphase.parsing import parse
from ncphase.rationals import GaussianRational


def reference_normal_order(e, table):
    """The fixed point of the adjacent-swap rewrite, by an explicit stack."""
    out = {}
    stack = list(e.terms.items())
    while stack:
        (word, powers), coef = stack.pop()
        swap = next((i for i in range(len(word) - 1)
                     if rank(word[i]) > rank(word[i + 1])), None)
        if swap is None:
            acc = out.get((word, powers))
            out[(word, powers)] = coef if acc is None else acc + coef
            continue
        a, b = word[swap], word[swap + 1]
        stack.append(((word[:swap] + (b, a) + word[swap + 2:], powers), coef))
        rest = word[:swap] + word[swap + 2:]
        for (w2, p2), c2 in table.commutator_of(a, b).terms.items():
            stack.append(((rest + w2, tuple(x + y for x, y in zip(powers, p2))),
                          coef * c2))
    return Expression(e.alphabet, out)


def reference_substitute(e, mapping):
    """Expand every word into the product of its images, then order the sum."""
    out = Expression.zero()
    for (word, powers), coef in e.terms.items():
        factor = Expression.from_scalar(coef, **dict(zip(PARAMS, powers)))
        for g in word:
            factor = factor * mapping[g]
        out = out + factor
    return reference_normal_order(out, CANONICAL)


# -- random expressions ---------------------------------------------------------

_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_COEFFICIENTS = st.builds(GaussianRational, _FRACTIONS, _FRACTIONS)
# hbar, m and omega may carry negative powers; theta, eta and tau may not.
_POWERS = st.tuples(*(st.integers(-2 if name in ("hbar", "m", "omega") else 0, 2)
                      for name in PARAMS))


def _expressions(alphabet, max_length=8, max_terms=4):
    term = st.tuples(st.lists(st.sampled_from(ALPHABETS[alphabet]), max_size=max_length),
                     _POWERS, _COEFFICIENTS)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum((Expression(alphabet, {(tuple(w), p): c}) for w, p, c in terms),
                          Expression.zero()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALPHABETS)).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), _expressions(alphabet))))
def test_normal_order_matches_the_rewrite_stack(case):
    alphabet, e = case
    table = TABLES[alphabet]
    got = normal_order(e, table)
    assert got.terms == reference_normal_order(e, table).terms
    assert all(list(word) == sorted(word, key=rank) for word, _p in got.terms)


# Long runs of one letter, which the random words above rarely draw: moving a
# letter past a run of m equal letters adds m times one bracket.
_RUNS = {
    "canonical": ["pi2^5*q2", "q1*pi1^6*q1", "pi1^3*q1^3", "pi2^4*pi1^3*q2^2*q1",
                  "pi1^3*pi2^4*q1*q2*pi1"],
    "noncommutative": ["py^3*x*y^2", "y^4*x^2", "px^5*x", "py^6*px*y", "px^3*py^3*x^2*y"],
}


@pytest.mark.parametrize("alphabet, text",
                         [(a, text) for a in sorted(_RUNS) for text in _RUNS[a]])
def test_runs_of_equal_letters_match_the_rewrite_stack(alphabet, text):
    table = TABLES[alphabet]
    e = parse(text)
    assert normal_order(e, table).terms == reference_normal_order(e, table).terms
    for g in ALPHABETS[alphabet]:
        letter = Expression.generator(g)
        for a, b in ((e, letter), (letter, e)):
            assert commutator(a, b, table).terms == \
                reference_normal_order(a * b - b * a, table).terms


def _operands(alphabet):
    """Expressions of the alphabet, pure scalars and zero."""
    scalar = st.builds(lambda coef, powers: Expression.from_scalar(coef, **dict(zip(PARAMS, powers))),
                       _COEFFICIENTS, _POWERS)
    return st.one_of(_expressions(alphabet, max_length=5, max_terms=3), scalar,
                     st.just(Expression.zero()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALPHABETS)).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), _operands(alphabet),
                               st.one_of(st.none(), _operands(alphabet)))))
def test_commutator_matches_ordering_the_difference(case):
    alphabet, a, b = case
    b = a if b is None else b  # equal operands as well
    table = TABLES[alphabet]
    got = commutator(a, b, table)
    want = normal_order(a * b - b * a, table)
    assert got.terms == want.terms and got.alphabet == want.alphabet


def test_commutator_keeps_the_outcome_outside_the_alphabet():
    x, q1, q2 = (Expression.generator(g) for g in ("x", "q1", "q2"))
    with pytest.raises(MixedAlphabetError, match="^cannot mix alphabets 'noncommutative' and 'canonical'$"):
        commutator(x, q1, NONCOMMUTATIVE)
    with pytest.raises(MixedAlphabetError, match="^cannot mix alphabets 'canonical' and 'noncommutative'$"):
        commutator(q1, x, NONCOMMUTATIVE)
    # A plain number commutes with everything, whatever the table.
    for zero in (commutator(2, q1, NONCOMMUTATIVE), commutator(q1, Fraction(1, 2), NONCOMMUTATIVE)):
        assert zero.is_zero() and zero.alphabet is None
    # Operands of the other table's alphabet cannot be ordered, unless their
    # products cancel before ordering.
    with pytest.raises(MixedAlphabetError,
                       match="^expression over 'canonical' cannot be ordered by the 'noncommutative' table$"):
        commutator(q1, q2, NONCOMMUTATIVE)
    assert commutator(q1, q1, NONCOMMUTATIVE).is_zero()


_CAPITALS = st.lists(
    st.tuples(st.lists(st.sampled_from(("X", "Y", "Px", "Py")), min_size=1, max_size=3),
              _POWERS, _COEFFICIENTS),
    min_size=1, max_size=3,
)


def _capital_polynomial(terms):
    out = Expression.zero()
    for word, powers, coef in terms:
        product = Expression.from_scalar(coef, **dict(zip(PARAMS, powers)))
        for name in word:
            product = product * named_operator(name)
        out = out + product
    return out


@settings(max_examples=25, deadline=None)
@given(_CAPITALS, st.sampled_from(("bopp", "flipped")))
def test_substitute_matches_expand_then_order(terms, which):
    mapping = BOPP if which == "bopp" else flipped_bopp()
    e = _capital_polynomial(terms)
    assert substitute(e, mapping).terms == reference_substitute(e, mapping).terms


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, FIRST_ORDER_CROSS_POLICY,
                                    UNDEFORMED_POLICY])
def test_build_hamiltonian_matches_the_reference(policy, monkeypatch):
    got = hamiltonian.build_hamiltonian(policy)
    monkeypatch.setattr(hamiltonian, "substitute", reference_substitute)
    assert got.terms == hamiltonian.build_hamiltonian(policy).terms


def test_named_pieces_match_the_reference():
    for piece in (hamiltonian.h_core(), hamiltonian.h_theta_eta(), hamiltonian.h_tau()):
        assert normal_order(piece, CANONICAL).terms == \
            reference_normal_order(piece, CANONICAL).terms


def test_images_are_checked():
    x_only = {"x": Expression.generator("q1")}
    with pytest.raises(MissingImageError):
        normal_order(Expression.word(("x", "y")), CANONICAL, x_only)
    with pytest.raises(MixedAlphabetError):
        normal_order(Expression.word(("x",)), CANONICAL, {"x": Expression.generator("y")})
    # A scalar image and the empty word need no generator at all.
    half = Expression.from_scalar(Fraction(1, 2))
    assert normal_order(Expression.word(("x", "x"), 4), CANONICAL,
                        {"x": half}) == Expression.from_scalar(1)


# -- what the packed engine must keep exact ----------------------------------------

def _scalar(re, im=0, **powers):
    return Expression.from_scalar(GaussianRational(Fraction(re), Fraction(im)), **powers)


# Brackets that are not Gaussian integers: the engine carries the power of
# their common denominator.  One bracket has two terms.  _NUMERIC's brackets
# are pure numbers, so no exponent bounds its key fields, only its letters.
_FRACTIONAL = AlgebraTable("noncommutative", {
    ("y", "x"): _scalar(Fraction(1, 3), Fraction(-2, 5)),
    ("px", "x"): _scalar(Fraction(-3, 4), hbar=1) + _scalar(0, Fraction(1, 6), eta=1),
    ("py", "y"): _scalar(Fraction(2, 7), hbar=1),
    ("py", "px"): _scalar(0, Fraction(-5, 3), eta=1, tau=1),
})
_NUMERIC = AlgebraTable("canonical", {
    ("pi1", "q1"): _scalar(Fraction(1, 3), Fraction(-2, 5)),
    ("pi2", "q2"): _scalar(-1),
})


@settings(max_examples=30, deadline=None)
@given(_expressions("noncommutative", max_length=6, max_terms=3))
def test_fractional_brackets_match_the_rewrite_stack(e):
    assert normal_order(e, _FRACTIONAL).terms == reference_normal_order(e, _FRACTIONAL).terms


# Operands whose coefficients have different denominators.
_MIXED = [
    ("1/3*x*px + 2/7*i*theta*y", "(5/6-1/4*i)*py*x + 1/5*hbar*px"),
    ("(1/3-2/5*i)*y*y*x", "3/7*px*py + 1/9*eta*x"),
]


@pytest.mark.parametrize("table", [NONCOMMUTATIVE, _FRACTIONAL], ids=["integer", "fractional"])
@pytest.mark.parametrize("texts", _MIXED)
def test_commutator_with_mixed_denominators_in_both_orders(texts, table):
    a, b = (parse(text) for text in texts)
    for left, right in ((a, b), (b, a)):
        assert commutator(left, right, table).terms == \
            reference_normal_order(left * right - right * left, table).terms


# Images over the denominators 3 and 7, with a scalar term and a two-letter word.
_OVER_HBAR = _scalar(1, hbar=-1)
_IMAGES = {
    "x": parse("1/3*q1") + parse("2/7*pi2*q1") * _OVER_HBAR,
    "y": parse("q2 + 5/3*tau") - parse("1/7*theta*pi1") * _OVER_HBAR,
    "px": parse("pi1 + 1/3*i*eta*q2"),
    "py": parse("1/7*pi2*pi2 - q1"),
}


@settings(max_examples=25, deadline=None)
@given(_expressions("noncommutative", max_length=3, max_terms=3))
def test_images_with_denominators_match_expand_then_order(e):
    assert normal_order(e, CANONICAL, _IMAGES).terms == reference_substitute(e, _IMAGES).terms


# Exponents far beyond any fixed field width: each call sizes its own.
_HUGE = 10**30


@pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
def test_huge_exponents_match_the_references(alphabet):
    table = TABLES[alphabet]
    big = _scalar(Fraction(2, 3), 1, hbar=_HUGE, m=-_HUGE, omega=_HUGE)
    small = _scalar(Fraction(-1, 5), m=_HUGE, omega=-_HUGE, hbar=-_HUGE)
    names = ALPHABETS[alphabet]
    e = big * Expression.word(names[::-1]) + small * Expression.word(names[2:] + names[:2])
    assert normal_order(e, table).terms == reference_normal_order(e, table).terms
    partner = small * Expression.word(names[::-2]) + Expression.generator(names[1])
    for a, b in ((e, partner), (partner, e)):
        assert commutator(a, b, table).terms == \
            reference_normal_order(a * b - b * a, table).terms
    if alphabet == "noncommutative":
        assert substitute(e, BOPP).terms == reference_substitute(e, BOPP).terms


@pytest.mark.parametrize("table, text", [
    (_NUMERIC, "pi1^300*q1"),
    (_FRACTIONAL, "y^300*x"),
    (NONCOMMUTATIVE, "py^300*y"),
], ids=["numeric", "fractional", "noncommutative"])
def test_a_run_of_300_letters_matches_the_rewrite_stack(table, text):
    e = parse(text)
    assert normal_order(e, table).terms == reference_normal_order(e, table).terms
    run, letter = (parse(part) for part in text.split("*"))
    for a, b in ((run, letter), (letter, run)):
        assert commutator(a, b, table).terms == \
            reference_normal_order(a * b - b * a, table).terms
