"""``fock.evaluate`` of a compiled plan against two per-term references.

``reference_evaluate`` below rebuilds every term's word as a chain of
sparse products of the complex unit-scale matrices from the identity,
multiplies the term's coefficient by its parameter monomial with the
letters' scales folded in (``folded_powers``: l_q = sqrt(hbar/(m omega))
per q letter, l_p = sqrt(hbar m omega) per pi letter), and sums the
products as complex sparse matrices, densified once at the end.  The plan
forms each distinct word once as a real chain, keeps it as a real matrix
with its factor i in the coefficient, and sums into a dense array, float64
where every scaled coefficient is real; but it forms the same products,
scales the same numbers and adds them in the same order, so the matrices
must be equal bit for bit, not merely close.

``scaled_products`` is the independent check of the scales: it multiplies
the phase-space matrices scaled to the point's own (hbar, m, omega) here,
each unit-scale q matrix times l_q and each pi matrix times l_p, and must
agree with the plan to rounding.

``two_d_evaluate`` is the per-term loop ``evaluate`` ran before the plan
had a layout: it adds each term into a 2-D array at its word's (row, col).
``evaluate`` adds the same numbers into a flat array at the plan's flat
indices, so the two must agree bit for bit.
"""

import math
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
    Plan,
    _letters,
    compile_plan,
    evaluate,
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
    """The phase-space matrices at ``p``: each unit-scale q matrix times l_q
    and each pi matrix times l_p."""
    ell_q, ell_p = math.sqrt(p.hbar / (p.m * p.omega)), math.sqrt(p.hbar * p.m * p.omega)
    scales = (ell_q, ell_q, ell_p, ell_p)
    return {name: ell * (m * 1j**k)
            for ell, (name, (m, k, _half)) in zip(scales, _letters(basis).items())}


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


def folded_powers(word, powers):
    """``powers`` times l_q^a l_p^b for the a q letters and b pi letters of
    ``word``: hbar^((a+b)/2) (m omega)^((b-a)/2)."""
    a = sum(g.startswith("q") for g in word)
    b = len(word) - a
    hbar, m, omega, *rest = powers
    return (hbar + (a + b) / 2, m + (b - a) / 2, omega + (b - a) / 2, *rest)


def reference_evaluate(e, basis, p):
    """Each term's unit-scale word from scratch, times its coefficient and
    folded monomial, summed as sparse matrices."""
    values = p.values()
    d = basis.dimension
    out = scipy.sparse.csr_matrix((d, d), dtype=complex)
    mats = _matrices(basis, ParameterPoint())
    with np.errstate(over="ignore", invalid="ignore"):
        for (word, powers), coef in e.sorted_terms():
            value = term_value(coef, folded_powers(word, powers), values)
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
    assert [term[0] for term in plan.terms] == [
        complex(coef) * (1j if sum(g in ("q2", "pi1") for g in word) % 2 else 1)
        for (word, _powers), coef in h.sorted_terms()
    ]
    assert [term[0] for term in plan.terms] == [0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1, 0.5, 0.5, 1, 1]
    # The letters' scales are folded into the exponents: hbar omega for the
    # core, eta/m and m omega^2 theta for the angular terms and hbar^2 tau/m
    # for the three tau terms.
    core, tau = (1, 0, 1, 0, 0, 0), (2, -1, 0, 0, 0, 1)
    eta, theta = (0, -1, 0, 0, 1, 0), (0, 1, 2, 1, 0, 0)
    assert [term[1] for term in plan.terms] == [
        core, eta, theta, core, eta, theta, tau, core, core, tau, tau]
    assert [term[1] for term in plan.terms] == [
        folded_powers(word, powers) for (word, powers), _coef in h.sorted_terms()]
    assert all(len(term) == 3 and term[2].dtype == np.float64 for term in plan.terms)
    # Terms with one word (q1 pi2 and q2 pi1 appear twice) share its product.
    for i, j in ((1, 2), (4, 5)):
        assert words[i] == words[j]
        assert np.shares_memory(plan.terms[i][2].data, plan.terms[j][2].data)


def complex_chain_terms(e, basis):
    """Each term's (coefficient, word) as the complex chain gives them: the
    word's product of the complex unit-scale matrices, kept as its real part
    or, with a factor i moved into the coefficient, its imaginary part."""
    mats = _matrices(basis, ParameterPoint())
    terms = []
    for (word, _powers), coef in e.sorted_terms():
        product = _word_product(mats, word, basis.dimension).tocoo()
        phase, part = (1j, product.data.imag) if product.data.imag.any() else (1, product.data.real)
        terms.append((complex(coef) * phase, product.row, product.col, part))
    return terms


@pytest.mark.parametrize("cutoff", (4, 9))
@pytest.mark.parametrize("policy", sorted(POLICIES) + ["untruncated"])
def test_real_letters_give_the_complex_chain_words_bitwise(policy, cutoff, hamiltonians):
    # The plan's real chains with their folded powers of i are the complex
    # chains' words and coefficients, byte for byte.
    h = hamiltonians[policy]
    plan = compile_plan(h, FockBasis(cutoff))
    want = complex_chain_terms(h, FockBasis(cutoff))
    assert len(plan.terms) == len(want)
    for (coef, _exponents, word), (want_coef, row, col, data) in zip(plan.terms, want):
        assert repr(coef) == repr(want_coef)
        assert word.row.tobytes() == row.tobytes() and word.col.tobytes() == col.tobytes()
        assert word.data.tobytes() == data.tobytes()


def test_plan_keeps_the_overflow_check(hamiltonians):
    # At tau 1.7e308 tau hbar^2/m is finite but the tau terms' entries
    # overflow; the summed matrix is what is checked, and the check raises
    # NumericError.  At hbar 1e308 the tau terms' hbar^2 overflows as a
    # float power first: the plan raises NumericError naming that power,
    # and the oracle Python's OverflowError.
    h = hamiltonians["default"]
    basis = FockBasis(4)
    plan = compile_plan(h, basis)
    for p, plan_match, error, match in (
        (ParameterPoint(tau=1.7e308), "matrix entries overflow",
         NumericError, "matrix entries overflow"),
        (ParameterPoint(hbar=1e308), r"^hbar\^2 overflows at this parameter point$",
         OverflowError, "out of range"),
    ):
        with pytest.raises(NumericError, match=plan_match):
            evaluate(plan, p)
        with pytest.raises(error, match=match):
            reference_evaluate(h, basis, p)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_pickled_plan_evaluates_bitwise(policy, hamiltonians):
    # A plan can be sent to a worker process and gives the same matrices there.
    plan = compile_plan(hamiltonians[policy], FockBasis(8))
    back = pickle.loads(pickle.dumps(plan))
    assert [term[:2] for term in back.terms] == [term[:2] for term in plan.terms]
    for p in UNIT_POINTS + SCALED_POINTS:
        assert evaluate(back, p).tobytes() == evaluate(plan, p).tobytes()


def two_d_evaluate(plan, p):
    """Each coefficient times its monomial, one nonzero exponent at a time
    in PARAMS order, and each term added into a 2-D array at its word's
    (row, col), in term order."""
    values = p.values()
    scaled = []
    for coef, exponents, _word in plan.terms:
        for pname, exp in zip(PARAMS, exponents):
            if exp:
                try:
                    coef *= values[pname] ** exp
                except OverflowError:
                    raise NumericError(
                        f"{pname}^{exp:g} overflows at this parameter point"
                    ) from None
        scaled.append(coef)
    real = all(coef.imag == 0 for coef in scaled)
    d = plan.basis.dimension
    out = np.zeros((d, d), dtype=float if real else complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for coef, (*_, word) in zip(scaled, plan.terms):
            out[word.row, word.col] += word.data * (coef.real if real else coef)
    if not np.isfinite(out).all():
        raise NumericError("matrix entries overflow at this parameter point")
    return out


@pytest.mark.parametrize("cutoff", (4, 12, 50))
@pytest.mark.parametrize("policy", sorted(POLICIES) + ["untruncated"])
def test_flat_layout_adds_as_the_two_d_loop_bitwise(policy, cutoff, hamiltonians):
    plan = compile_plan(hamiltonians[policy], FockBasis(cutoff))
    for p in UNIT_POINTS + SCALED_POINTS:
        got = evaluate(plan, p)
        want = two_d_evaluate(plan, p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_flat_layout_adds_a_complex_plan_as_the_two_d_loop_bitwise():
    plan = compile_plan(parse("q1*q1 + i*hbar*q1"), FockBasis(12))
    for p in UNIT_POINTS + SCALED_POINTS:
        got = evaluate(plan, p)
        assert got.dtype == np.complex128
        assert got.tobytes() == two_d_evaluate(plan, p).tobytes()


@pytest.mark.parametrize("p", [ParameterPoint(tau=1.7e308), ParameterPoint(hbar=1e308)],
                         ids=["entries", "power"])
def test_flat_layout_fails_an_overflow_as_the_two_d_loop(p, hamiltonians):
    plan = compile_plan(hamiltonians["default"], FockBasis(12))
    with pytest.raises(NumericError) as want:
        two_d_evaluate(plan, p)
    with pytest.raises(NumericError) as got:
        evaluate(plan, p)
    assert str(got.value) == str(want.value)


def test_layout_is_computed_once_per_plan(hamiltonians):
    plan = compile_plan(hamiltonians["default"], FockBasis(6))
    assert "layout" not in vars(plan)
    evaluate(plan, UNIT_POINTS[0])
    layout = plan.layout
    for p in UNIT_POINTS + SCALED_POINTS:
        evaluate(plan, p)
        assert plan.layout is layout
    assert len(layout) == len(plan.terms)
    # Terms with one word share its flat indices.
    assert layout[1][1] is layout[2][1] and layout[4][1] is layout[5][1]
    for (_coef, exponents, word), (powers, flat) in zip(plan.terms, layout):
        assert powers == tuple((name, exp) for name, exp in zip(PARAMS, exponents) if exp)
        assert flat.tolist() == (word.row * plan.basis.dimension + word.col).tolist()


def test_one_term_plan_gets_its_own_layout(hamiltonians):
    # diagonal_check evaluates one term of a plan as a plan of its own.
    plan = compile_plan(hamiltonians["default"], FockBasis(6))
    evaluate(plan, UNIT_POINTS[0])
    for k, term in enumerate(plan.terms):
        alone = Plan(plan.basis, (term,))
        assert alone.layout is not plan.layout
        assert alone.layout[0][0] == plan.layout[k][0]
        assert alone.layout[0][1].tolist() == plan.layout[k][1].tolist()
        p = SCALED_POINTS[0]
        assert evaluate(alone, p).tobytes() == two_d_evaluate(alone, p).tobytes()


def test_plan_pickled_after_evaluate_evaluates_bitwise(hamiltonians):
    plan = compile_plan(hamiltonians["cross"], FockBasis(8))
    evaluate(plan, UNIT_POINTS[0])
    back = pickle.loads(pickle.dumps(plan))
    assert len(back.layout) == len(plan.layout)
    for (powers, flat), (want_powers, want_flat) in zip(back.layout, plan.layout):
        assert powers == want_powers and flat.tobytes() == want_flat.tobytes()
    for p in UNIT_POINTS + SCALED_POINTS:
        assert evaluate(back, p).tobytes() == evaluate(plan, p).tobytes()
