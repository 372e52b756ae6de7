"""The ordered prefix walk of ``normal_order`` and ``substitute`` against the
rewrite-stack reference they replaced.

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
    Expression,
    MissingImageError,
    MixedAlphabetError,
    normal_order,
    rank,
)
from ncphase.maps import BOPP, flipped_bopp, named_operator, substitute
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
            factor = factor * mapping.images[g]
        out = out + factor
    return reference_normal_order(out, TABLES[mapping.target])


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
