"""``fock.evaluate`` of a compiled plan against two per-term references.

``reference_evaluate`` below rebuilds every term's word as a chain of
sparse products of the unit-scale matrices from the identity, scales the
term's coefficient times parameter monomial (``term_value``) by l_q once per
q letter and l_p once per pi letter, and sums the scaled products as complex
sparse matrices, densified once at the end.  The plan forms each prefix once,
keeps each word as a real matrix with its factor i in the coefficient, and
sums into a dense array, float64 where every scaled coefficient is real; but
it forms the same products, scales the same numbers and adds them in the
same order, so the matrices must be equal bit for bit, not merely close.

``scaled_products`` is the independent check of the scales: it multiplies
the phase-space matrices of ``build_phase_space(basis, p)`` at the point's
own (hbar, m, omega) and must agree with the plan to rounding.
"""

import pickle

import numpy as np
import pytest
import scipy.sparse

from ncphase.algebra import (
    DEFAULT_POLICY,
    FIRST_ORDER_CROSS_POLICY,
    PARAMS,
    UNDEFORMED_POLICY,
    TruncationPolicy,
)
from ncphase.fock import (
    FockBasis,
    NumericError,
    ParameterPoint,
    build_phase_space,
    compile_plan,
    evaluate,
    phase_space_scales,
)
from ncphase.hamiltonian import build_hamiltonian
from ncphase.parsing import parse

POLICIES = {
    "default": DEFAULT_POLICY,
    "cross": FIRST_ORDER_CROSS_POLICY,
    "undeformed": UNDEFORMED_POLICY,
}
# Only the untruncated Hamiltonian has theta^2, eta^2 and tau^2 terms.  Its
# bitwise check takes about half a second per cutoff, so it runs at three.
BITWISE_CASES = [(policy, cutoff) for policy in sorted(POLICIES) for cutoff in range(4, 17)]
BITWISE_CASES += [("untruncated", cutoff) for cutoff in (4, 9, 16)]

# Points at unit scales, then points at other (hbar, m, omega).
UNIT_POINTS = [
    ParameterPoint(theta=0.02, eta=0.03, tau=0.005),
    ParameterPoint(theta=0.02, eta=0.03, tau=0.0),
    ParameterPoint(tau=0.01),
    ParameterPoint(theta=-0.1, eta=0.05, tau=-0.02),
]
SCALED_POINTS = [
    ParameterPoint(hbar=0.7, m=1.9, omega=1.3, theta=0.05, eta=-0.04, tau=0.03),
    ParameterPoint(hbar=0.7, m=1.9, omega=1.3),
    ParameterPoint(hbar=2.0, m=0.5, omega=3.0, theta=0.02, eta=0.03, tau=0.005),
]


def _matrices(basis, p):
    return dict(zip(("q1", "q2", "pi1", "pi2"), build_phase_space(basis, p)))


def _word_product(mats, word, d):
    prod = scipy.sparse.identity(d, dtype=complex, format="csr")
    for g in word:
        prod = prod @ mats[g]
    return prod


def term_value(coef, powers, values):
    """complex(coef) times the parameter monomial, one nonzero exponent at a
    time in PARAMS order."""
    value = complex(coef)
    for pname, exp in zip(PARAMS, powers):
        if exp:
            value *= values[pname] ** exp
    return value


def reference_evaluate(e, basis, p):
    """Each term's unit-scale word from scratch, times its scaled
    coefficient, summed as sparse matrices."""
    values = p.values()
    ell_q, ell_p = phase_space_scales(p)
    d = basis.dimension
    out = scipy.sparse.csr_matrix((d, d), dtype=complex)
    mats = _matrices(basis, ParameterPoint())
    with np.errstate(over="ignore", invalid="ignore"):
        for (word, powers), coef in e.sorted_terms():
            value = term_value(coef, powers, values)
            for g in word:
                value *= ell_q if g.startswith("q") else ell_p
            out = out + value * _word_product(mats, word, d)
    if not np.isfinite(out.data).all():
        raise NumericError("matrix entries overflow at this parameter point")
    return out.toarray()


def scaled_products(e, basis, p):
    """Each term's word as products of the phase-space matrices at ``p``."""
    values = p.values()
    mats = _matrices(basis, p)
    return sum(
        term_value(coef, powers, values) * _word_product(mats, word, basis.dimension)
        for (word, powers), coef in e.sorted_terms()
    ).toarray()


@pytest.fixture(scope="module")
def hamiltonians():
    policies = dict(POLICIES, untruncated=TruncationPolicy.of())
    return {name: build_hamiltonian(policy) for name, policy in policies.items()}


@pytest.mark.parametrize("policy, cutoff", BITWISE_CASES)
def test_plan_matrix_equals_the_per_term_loop_bitwise(policy, cutoff, hamiltonians):
    h = hamiltonians[policy]
    basis = FockBasis(cutoff)
    # One plan serves every point, at unit scales or not.
    plan = compile_plan(h, basis)
    for p in UNIT_POINTS + SCALED_POINTS:
        got = evaluate(plan, p)
        # Every policy's Hamiltonian is real in the helicity basis.
        assert got.dtype == np.float64
        assert np.array_equal(got, reference_evaluate(h, basis, p))


def test_plan_matrix_is_complex_for_an_imaginary_coefficient():
    # i*hbar, i times the real q1, and q2 alone (imaginary at unit scales).
    basis = FockBasis(5)
    for text in ("i*hbar", "q1*q1 + i*hbar*q1", "theta*q2*pi1 + q2"):
        e = parse(text)
        plan = compile_plan(e, basis)
        for p in UNIT_POINTS + SCALED_POINTS:
            got = evaluate(plan, p)
            assert got.dtype == np.complex128 and got.imag.any()
            assert np.array_equal(got, reference_evaluate(e, basis, p))


@pytest.mark.parametrize("cutoff", (4, 9, 16))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_plan_scales_agree_with_products_at_the_point(policy, cutoff, hamiltonians):
    h = hamiltonians[policy]
    basis = FockBasis(cutoff)
    plan = compile_plan(h, basis)
    for p in SCALED_POINTS:
        got, want = evaluate(plan, p), scaled_products(h, basis, p)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_plan_pairs_scalars_with_words_formed_once(hamiltonians):
    h = hamiltonians["default"]
    words = [word for (word, _powers), _coef in h.sorted_terms()]
    assert (len(words), sum(map(len, words))) == (11, 26)
    assert len({word[:k] for word in words for k in range(1, len(word) + 1)}) == 15
    plan = compile_plan(h, FockBasis(6))
    # q2 and pi1 are imaginary at unit scales, q1 and pi2 real: a word with
    # an odd number of q2 and pi1 letters moves its factor i into the
    # coefficient, which leaves every coefficient real.
    assert [term[:4] for term in plan.terms] == [
        (complex(coef) * (1j if sum(g in ("q2", "pi1") for g in word) % 2 else 1), powers,
         sum(g.startswith("q") for g in word), sum(g.startswith("pi") for g in word))
        for (word, powers), coef in h.sorted_terms()
    ]
    assert [term[0] for term in plan.terms] == [0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1, 0.5, 0.5, 1, 1]
    assert all(term[4].dtype == np.float64 for term in plan.terms)
    # Terms with one word (q1 pi2 and q2 pi1 appear twice) share its product.
    for i, j in ((1, 2), (4, 5)):
        assert words[i] == words[j]
        assert np.shares_memory(plan.terms[i][4].data, plan.terms[j][4].data)


def test_plan_keeps_the_overflow_check(hamiltonians):
    # At hbar 1e308 hbar omega (n+ + n- + 1) overflows on every grade above 0,
    # whether the scales sit in the word matrices or in the coefficients; the
    # summed matrix is what is checked, and the check raises NumericError.
    h = hamiltonians["default"]
    basis = FockBasis(4)
    p = ParameterPoint(hbar=1e308)
    plan = compile_plan(h, basis)
    for call in (lambda: evaluate(plan, p), lambda: reference_evaluate(h, basis, p)):
        with pytest.raises(NumericError, match="matrix entries overflow"):
            call()


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_pickled_plan_evaluates_bitwise(policy, hamiltonians):
    # A plan can be sent to a worker process and gives the same matrices there.
    plan = compile_plan(hamiltonians[policy], FockBasis(8))
    back = pickle.loads(pickle.dumps(plan))
    assert [term[:4] for term in back.terms] == [term[:4] for term in plan.terms]
    for p in UNIT_POINTS + SCALED_POINTS:
        assert evaluate(back, p).tobytes() == evaluate(plan, p).tobytes()
