"""The symbolic Hamiltonian pipeline: capitals -> Bopp shift -> truncation."""

import copy
import pickle
from fractions import Fraction

import pytest

from ncphase.algebra import (
    CANONICAL,
    DEFAULT_POLICY,
    FIRST_ORDER_CROSS_POLICY,
    UNDEFORMED_POLICY,
    Expression,
    TruncationPolicy,
    normal_order,
    powers_of,
)
from ncphase.fock import FockBasis, _pieces, compile_plan
from ncphase.hamiltonian import (
    PIECES,
    build_hamiltonian,
    by_order,
    h_core,
    h_tau,
    h_theta_eta,
    reference_hamiltonian,
)
from ncphase.rationals import GaussianRational


def test_default_truncation_matches_named_pieces_exactly():
    assert build_hamiltonian(DEFAULT_POLICY) == reference_hamiltonian()


def test_core_piece_coefficients():
    e = normal_order(h_core(), CANONICAL)
    half = GaussianRational(Fraction(1, 2))
    assert e.terms[(("pi1", "pi1"), powers_of(m=-1))] == half
    assert e.terms[(("pi2", "pi2"), powers_of(m=-1))] == half
    assert e.terms[(("q1", "q1"), powers_of(m=1, omega=2))] == half
    assert e.terms[(("q2", "q2"), powers_of(m=1, omega=2))] == half
    assert len(e.terms) == 4


def test_angular_coupling_coefficients():
    e = normal_order(h_theta_eta(), CANONICAL)
    half = GaussianRational(Fraction(1, 2))
    assert e.terms[(("q2", "pi1"), powers_of(eta=1, m=-1, hbar=-1))] == half
    assert e.terms[(("q2", "pi1"), powers_of(theta=1, m=1, omega=2, hbar=-1))] == half
    assert e.terms[(("q1", "pi2"), powers_of(eta=1, m=-1, hbar=-1))] == -half
    assert e.terms[(("q1", "pi2"), powers_of(theta=1, m=1, omega=2, hbar=-1))] == -half
    assert len(e.terms) == 4


def test_tau_piece_coefficients():
    e = normal_order(h_tau(), CANONICAL)
    one = GaussianRational(1)
    assert e.terms[(("q1", "q1", "q2", "q2"), powers_of(tau=1, m=1, omega=2))] == one
    assert e.terms[(("q2", "q2", "pi2", "pi2"), powers_of(tau=1, m=-1))] == one
    assert e.terms[(("q2", "pi2"), powers_of(tau=1, hbar=1, m=-1))] == GaussianRational(0, -1)
    assert len(e.terms) == 3


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, FIRST_ORDER_CROSS_POLICY, TruncationPolicy.of()],
                         ids=["default", "cross", "untruncated"])
def test_by_order_recovers_the_named_pieces(policy):
    # One table names every piece: the built Hamiltonian's terms of orders
    # 1, theta, eta and tau are the hand-written pieces, whatever higher
    # orders the policy keeps beside them.
    pieces = by_order(build_hamiltonian(policy))
    assert list(pieces) == ["h_core", "h_theta_eta", "h_tau"]
    for name, written in zip(pieces, (h_core, h_theta_eta, h_tau)):
        assert pieces[name] == normal_order(written(), CANONICAL)


def test_by_order_drops_other_orders_and_keeps_empty_pieces():
    assert set(PIECES) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    pieces = by_order(build_hamiltonian(UNDEFORMED_POLICY))
    assert pieces["h_core"] == normal_order(h_core(), CANONICAL)
    assert pieces["h_theta_eta"].is_zero() and pieces["h_tau"].is_zero()
    cross = Expression.word(["q1", "pi2"]) * Expression.from_scalar(1, theta=1, tau=1)
    assert all(piece.is_zero() for piece in by_order(cross).values())


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, FIRST_ORDER_CROSS_POLICY, TruncationPolicy.of()],
                         ids=["default", "cross", "untruncated"])
def test_a_plan_splits_as_its_hamiltonian_does(policy):
    # The plan exponents keep theta, eta and tau as the term's own, so each
    # piece of a compiled plan is the compiled piece of the Hamiltonian.
    basis = FockBasis(5)
    plan_pieces = _pieces(compile_plan(build_hamiltonian(policy), basis))
    for name, piece in by_order(build_hamiltonian(policy)).items():
        alone = compile_plan(piece, basis).terms
        split = plan_pieces[name].terms
        assert [term[:2] for term in split] == [term[:2] for term in alone]
        for (*_, got), (*_, want) in zip(split, alone):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_zero_caps_policy_gives_core_only():
    assert build_hamiltonian(UNDEFORMED_POLICY) == normal_order(h_core(), CANONICAL)


def test_default_policy_serialization_golden():
    expected = (
        "1/2*m*omega^2*q1*q1 + -1/2*hbar^-1*m^-1*eta*q1*pi2"
        " + -1/2*hbar^-1*m*omega^2*theta*q1*pi2 + 1/2*m*omega^2*q2*q2"
        " + 1/2*hbar^-1*m^-1*eta*q2*pi1 + 1/2*hbar^-1*m*omega^2*theta*q2*pi1"
        " + -i*hbar*m^-1*tau*q2*pi2 + 1/2*m^-1*pi1*pi1 + 1/2*m^-1*pi2*pi2"
        " + 1*m*omega^2*tau*q1*q1*q2*q2 + 1*m^-1*tau*q2*q2*pi2*pi2"
    )
    assert str(build_hamiltonian(DEFAULT_POLICY)) == expected


def test_first_order_cross_policy_golden():
    # Frozen engine output for the caps-only policy (theta, eta, tau <= 1,
    # products allowed).  Two coefficients are certified by hand below.
    expected = (
        "1/4*m^-1*theta*eta*tau + 1/2*m*omega^2*q1*q1"
        " + 1/2*i*m^-1*eta*tau*q1*q2 + -i*m*omega^2*theta*tau*q1*q2"
        " + 1/4*i*hbar^-1*m^-1*theta*eta*tau*q1*pi1"
        " + -1/2*hbar^-1*m^-1*eta*q1*pi2 + -1/2*hbar^-1*m*omega^2*theta*q1*pi2"
        " + 1/2*m*omega^2*q2*q2 + 1/2*hbar^-1*m^-1*eta*q2*pi1"
        " + 1/2*hbar^-1*m*omega^2*theta*q2*pi1"
        " + 3/4*i*hbar^-1*m^-1*theta*eta*tau*q2*pi2 + -i*hbar*m^-1*tau*q2*pi2"
        " + 1/2*m^-1*pi1*pi1 + -1/2*i*m^-1*theta*tau*pi1*pi2 + 1/2*m^-1*pi2*pi2"
        " + 1*m*omega^2*tau*q1*q1*q2*q2 + 1*hbar^-1*m*omega^2*theta*tau*q1*q1*q2*pi1"
        " + -1*hbar^-1*m^-1*eta*tau*q1*q2*q2*pi2"
        " + -1*hbar^-1*m*omega^2*theta*tau*q1*q2*q2*pi2"
        " + -1*hbar^-2*m^-1*theta*eta*tau*q1*q2*pi1*pi2"
        " + 1*m^-1*tau*q2*q2*pi2*pi2 + 1*hbar^-1*m^-1*theta*tau*q2*pi1*pi2*pi2"
    )
    assert str(build_hamiltonian(FIRST_ORDER_CROSS_POLICY)) == expected


def test_sampled_cross_coefficients_match_hand_expansion():
    """Two cross coefficients re-derived by hand.

    eta-tau on the word q1 q2: only the -(i hbar tau / m) y p_y piece of the
    kinetic term can reach a two-letter q-word; its Bopp image contains
    (q2)(-eta/2hbar q1), giving +i eta tau / 2m.

    theta-tau on the word q1 q2: the potential contributes
    + i m omega^2 theta tau (y x -> q2 q1) from the reordering commutator of
    the squared deformed position, and -2 i m omega^2 theta tau from the
    theta-linear part of the quartic's normal ordering; net -i m omega^2.
    """
    h = build_hamiltonian(FIRST_ORDER_CROSS_POLICY)
    assert h.terms[(("q1", "q2"), powers_of(eta=1, tau=1, m=-1))] == GaussianRational(
        0, Fraction(1, 2)
    )
    assert h.terms[
        (("q1", "q2"), powers_of(theta=1, tau=1, m=1, omega=2))
    ] == GaussianRational(0, -1)
    # third sample: theta-tau on pi1 pi2 from the same kinetic piece
    assert h.terms[(("pi1", "pi2"), powers_of(theta=1, tau=1, m=-1))] == GaussianRational(
        0, Fraction(-1, 2)
    )


def test_no_pure_theta_eta_cross_terms_exist():
    # Positions and momenta never multiply at zeroth tau order, so allowing
    # the theta-eta monomial alone adds nothing beyond the default policy.
    h = build_hamiltonian(FIRST_ORDER_CROSS_POLICY)
    for (_word, powers) in h.terms:
        theta_exp, eta_exp, tau_exp = powers[3], powers[4], powers[5]
        if theta_exp and eta_exp:
            assert tau_exp >= 1


def test_injected_bopp_map_changes_the_result():
    from ncphase.maps import flipped_bopp

    assert build_hamiltonian(DEFAULT_POLICY, bopp=flipped_bopp()) != reference_hamiltonian()


def test_hamiltonian_survives_pickle_and_deepcopy():
    h = build_hamiltonian()
    for back in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
        assert back == h and back.alphabet == h.alphabet
        assert str(back) == str(h)
