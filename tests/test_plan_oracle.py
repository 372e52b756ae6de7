"""The compiled plan of ``fock.evaluate`` against the per-term loop it replaced.

``reference_evaluate`` below is the earlier implementation: every term
rebuilds its word as a chain of sparse products from the identity, and the
scaled products are summed as sparse matrices, densified once at the end.
The plan forms each prefix once and sums into a dense array, but it forms
the same products and adds them in the same order, so the matrices must be
equal bit for bit, not merely close.
"""

import numpy as np
import pytest
import scipy.sparse

from ncphase.algebra import (
    DEFAULT_POLICY,
    FIRST_ORDER_CROSS_POLICY,
    UNDEFORMED_POLICY,
    Scalar,
)
from ncphase.fock import (
    FockBasis,
    NumericError,
    ParameterPoint,
    build_phase_space,
    compile_plan,
    evaluate,
    spectrum,
)
from ncphase.hamiltonian import build_hamiltonian, h_tau

POLICIES = {
    "default": DEFAULT_POLICY,
    "cross": FIRST_ORDER_CROSS_POLICY,
    "undeformed": UNDEFORMED_POLICY,
}

# Points grouped by their scales (hbar, m, omega): one plan serves a group.
POINT_GROUPS = [
    [
        ParameterPoint(theta=0.02, eta=0.03, tau=0.005),
        ParameterPoint(theta=0.02, eta=0.03, tau=0.0),
        ParameterPoint(tau=0.01),
        ParameterPoint(theta=-0.1, eta=0.05, tau=-0.02),
    ],
    [
        ParameterPoint(hbar=0.7, m=1.9, omega=1.3, theta=0.05, eta=-0.04, tau=0.03),
        ParameterPoint(hbar=0.7, m=1.9, omega=1.3),
    ],
]


def reference_evaluate(e, basis, p):
    """Each term's word product from scratch, summed as sparse matrices."""
    values = p.values()
    d = basis.dimension
    out = scipy.sparse.csr_matrix((d, d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        mats = dict(zip(("q1", "q2", "pi1", "pi2"), build_phase_space(basis, p)))
        for (word, powers), coef in e.sorted_terms():
            prod = scipy.sparse.identity(d, dtype=complex, format="csr")
            for g in word:
                prod = prod @ mats[g]
            out = out + Scalar(coef, powers).evaluate(values) * prod
    if not np.isfinite(out.data).all():
        raise NumericError("matrix entries overflow at this parameter point")
    return out.toarray()


@pytest.fixture(scope="module")
def hamiltonians():
    return {name: build_hamiltonian(policy) for name, policy in POLICIES.items()}


@pytest.mark.parametrize("cutoff", range(4, 17))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_plan_matrix_equals_the_per_term_loop_bitwise(policy, cutoff, hamiltonians):
    h = hamiltonians[policy]
    basis = FockBasis(cutoff)
    for group in POINT_GROUPS:
        plan = compile_plan(h, basis, group[0])
        for p in group:
            assert np.array_equal(plan.matrix(p), reference_evaluate(h, basis, p))
        # evaluate is compile, then matrix
        assert np.array_equal(evaluate(h, basis, group[-1]), plan.matrix(group[-1]))


def test_plan_pairs_scalars_with_words_formed_once(hamiltonians):
    h = hamiltonians["default"]
    words = [word for (word, _powers), _coef in h.sorted_terms()]
    assert (len(words), sum(map(len, words))) == (11, 26)
    assert len({word[:k] for word in words for k in range(1, len(word) + 1)}) == 15
    plan = compile_plan(h, FockBasis(6), ParameterPoint())
    assert [scalar for scalar, _word in plan.terms] == [
        Scalar(coef, powers) for (_word, powers), coef in h.sorted_terms()
    ]
    # Terms with one word (q1 pi2 and q2 pi1 appear twice) share its product.
    for i, j in ((1, 2), (4, 5)):
        assert words[i] == words[j]
        assert np.shares_memory(plan.terms[i][1].data, plan.terms[j][1].data)


def test_plan_rejects_points_it_was_not_compiled_for(hamiltonians):
    h = hamiltonians["default"]
    plan = compile_plan(h, FockBasis(6), ParameterPoint(tau=0.01))
    for other in (ParameterPoint(hbar=2.0), ParameterPoint(m=0.5), ParameterPoint(omega=3.0)):
        assert not plan.admits(other)
        with pytest.raises(ValueError, match="hbar, m, omega"):
            plan.matrix(other)
        with pytest.raises(ValueError, match="hbar, m, omega"):
            spectrum(other, 6, plan)
    with pytest.raises(ValueError, match="cutoff 6, not 8"):
        spectrum(ParameterPoint(tau=0.01), 8, plan)


def test_plan_keeps_the_overflow_check():
    # hbar 1e300 already overflows the word matrices; as before, the summed
    # matrix is what is checked, and the check raises NumericError.
    basis = FockBasis(4)
    p = ParameterPoint(hbar=1e300)
    plan = compile_plan(h_tau(), basis, p)
    for call in (lambda: plan.matrix(p), lambda: reference_evaluate(h_tau(), basis, p)):
        with pytest.raises(NumericError, match="matrix entries overflow"):
            call()
