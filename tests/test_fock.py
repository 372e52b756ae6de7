"""Ladder matrices, evaluation, spectra, classification and the
reference-identity reports.

The closed forms asserted under "exact diagonals" were obtained from an
independent matrix oracle (explicit ladder products, cross-checked against
Gaussian vacuum moments) and are frozen here; they are what the truncated
realization actually produces on interior states.
"""

import dataclasses
import inspect
import json
import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph

import ncphase.fock
from ncphase.algebra import (
    CANONICAL,
    DEFAULT_POLICY,
    FIRST_ORDER_CROSS_POLICY,
    PARAMS,
    UNDEFORMED_POLICY,
    Expression,
    TruncationPolicy,
    commutator,
    normal_order,
)
from ncphase.cli import EXIT_OK, EXIT_VERIFY_FAILED, main
from ncphase.fock import (
    Eigensystem,
    FockBasis,
    NumericError,
    ParameterPoint,
    Plan,
    _LevelWriter,
    analytic_energy,
    build_ladder,
    classify,
    commuting_check,
    compile_plan,
    diagonal_check,
    diagonalize,
    evaluate,
    level_table_csv,
    spectra,
    spectrum,
)
from ncphase.hamiltonian import build_hamiltonian, h_core, h_tau, h_theta_eta, piece_of
from ncphase.maps import BOPP, substitute
from ncphase.parsing import parse


# -- parameters ---------------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError):
        ParameterPoint(hbar=0.0)
    with pytest.raises(ValueError):
        ParameterPoint(m=-1.0)
    with pytest.raises(ValueError, match="theta must be finite"):
        ParameterPoint(theta=float("nan"))
    with pytest.raises(ValueError, match="hbar must be finite"):
        ParameterPoint(hbar=float("inf"))


# -- basis ----------------------------------------------------------------------


def test_basis_enumeration_graded_lex():
    basis = FockBasis(3)
    assert basis.labels.tolist() == [
        [0, 0],
        [0, 1], [1, 0],
        [0, 2], [1, 1], [2, 0],
        [0, 3], [1, 2], [2, 1], [3, 0],
    ]
    assert basis.dimension == 10
    assert basis.labels.dtype == np.int64
    assert basis.grades.tolist() == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]


def graded_lex(cutoff):
    """The reference enumeration: each (n+, n-) by grade, then by n+."""
    return [(n_plus, grade - n_plus) for grade in range(cutoff + 1) for n_plus in range(grade + 1)]


def test_basis_labels_and_position_match_the_nested_loop():
    for cutoff in range(1, 61):
        basis, states = FockBasis(cutoff), graded_lex(cutoff)
        assert basis.labels.tolist() == [list(state) for state in states]
        assert basis.grades.tolist() == [sum(state) for state in states]
        assert basis.dimension == len(states)
        # position inverts the enumeration, on ints and on arrays.
        assert [basis.position(*state) for state in states] == list(range(len(states)))
        assert basis.position(*basis.labels.T).tolist() == list(range(len(states)))


@pytest.mark.parametrize("cutoff", [1, 4, 9])
def test_basis_dimension_formula(cutoff):
    assert FockBasis(cutoff).dimension == (cutoff + 1) * (cutoff + 2) // 2


def test_basis_cutoff_validation():
    with pytest.raises(ValueError):
        FockBasis(0)
    with pytest.raises(TypeError):
        FockBasis(4.0)
    # (d x 2) labels of 71 PiB: the first allocation fails, before any other.
    with pytest.raises(MemoryError):
        FockBasis(10**8)


# -- ladders ---------------------------------------------------------------------


def _csr(triple, basis):
    """A (rows, cols, values) triple of ``build_ladder`` or ``_letters`` as
    a scipy CSR matrix."""
    rows, cols, values = triple
    return scipy.sparse.csr_matrix((values, (rows, cols)), shape=(basis.dimension,) * 2)


def test_ladder_matrix_elements():
    basis = FockBasis(6)
    a_plus, a_minus, a_plus_dag, a_minus_dag = (
        _csr(m, basis).toarray() for m in build_ladder(basis))
    assert a_plus[basis.position(0, 0), basis.position(1, 0)] == pytest.approx(1.0)
    assert a_plus_dag[basis.position(2, 1), basis.position(1, 1)] == pytest.approx(
        math.sqrt(2)
    )
    # vacuum annihilation: the (0, n-) columns of A+ vanish
    for n_minus in range(5):
        col = a_plus[:, basis.position(0, n_minus)]
        assert np.all(col == 0)


def test_daggers_are_conjugate_transposes():
    basis = FockBasis(5)
    a_plus, a_minus, a_plus_dag, a_minus_dag = (
        _csr(m, basis).toarray() for m in build_ladder(basis))
    assert np.array_equal(a_plus_dag, a_plus.conj().T)
    assert np.array_equal(a_minus_dag, a_minus.conj().T)
    assert np.allclose(a_plus @ a_minus, a_minus @ a_plus)


def _ladder_per_state(basis):
    """The reference ladders: each lowering matrix from a loop over the
    states, looking each lowered state up in a dict."""
    index = {state: k for k, state in enumerate(graded_lex(basis.cutoff))}
    d = len(index)

    def lowering(axis):
        rows, cols, values = [], [], []
        for state, col in index.items():
            if state[axis] >= 1:
                lowered = list(state)
                lowered[axis] -= 1
                rows.append(index[tuple(lowered)])
                cols.append(col)
                values.append(math.sqrt(state[axis]))
        return scipy.sparse.csr_matrix((values, (rows, cols)), shape=(d, d))

    a_plus, a_minus = lowering(0), lowering(1)
    return a_plus, a_minus, a_plus.T.tocsr(), a_minus.T.tocsr()


@pytest.mark.parametrize("cutoff", [1, 2, 5, 12, 16, 33, 50, 80])
def test_build_ladder_has_the_bytes_of_the_per_state_loop(cutoff):
    # Each ladder's (rows, cols, values) are the reference CSR matrix's
    # entries in its stored order.
    basis = FockBasis(cutoff)
    for got, want in zip(build_ladder(basis), _ladder_per_state(basis)):
        want = want.tocoo()
        for a, b in zip(got, (want.row, want.col, want.data)):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def scaled_phase_space(basis, p):
    """Dense (q1, q2, pi1, pi2) at ``p``: each unit-scale q matrix times l_q
    and each pi matrix times l_p, the scales applied here, not by ``evaluate``."""
    ell_q, ell_p = math.sqrt(p.hbar / (p.m * p.omega)), math.sqrt(p.hbar * p.m * p.omega)
    scales = (ell_q, ell_q, ell_p, ell_p)
    letters = ncphase.fock._letters(basis).values()
    return tuple(ell * (_csr(m, basis) * 1j**k).toarray()
                 for ell, (m, k, _half) in zip(scales, letters))


def test_canonical_commutators_on_interior():
    basis = FockBasis(8)
    p = ParameterPoint(hbar=1.7, m=0.8, omega=1.3)
    q1, q2, pi1, pi2 = scaled_phase_space(basis, p)
    keep = basis.interior(2)
    eye = np.eye(basis.dimension)[np.ix_(keep, keep)]
    for a, b in ((q1, pi1), (q2, pi2)):
        comm = (a @ b - b @ a)[np.ix_(keep, keep)]
        assert np.allclose(comm, 1j * p.hbar * eye, atol=1e-12)
    for a, b in ((q1, pi2), (q2, pi1), (q1, q2), (pi1, pi2)):
        comm = (a @ b - b @ a)[np.ix_(keep, keep)]
        assert np.allclose(comm, 0, atol=1e-12)


def test_vacuum_position_variance():
    basis = FockBasis(6)
    p = ParameterPoint(hbar=2.0, m=0.5, omega=3.0)
    q1, _q2, _pi1, _pi2 = scaled_phase_space(basis, p)
    got = (q1 @ q1)[0, 0]
    assert got == pytest.approx(p.hbar / (2 * p.m * p.omega), rel=1e-12)


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_core_hamiltonian_diagonal():
    basis = FockBasis(9)
    p = ParameterPoint(hbar=1.3, m=2.0, omega=0.7)
    h = evaluate(compile_plan(h_core(), basis), p)
    keep = basis.interior(2)
    diag = np.real(np.diag(h))
    for state, on, value in zip(basis.labels.tolist(), keep, diag):
        if on:
            expected = p.hbar * p.omega * (state[0] + state[1] + 1)
            assert value == pytest.approx(expected, rel=1e-12)


def test_evaluate_scalar_is_identity_multiple():
    basis = FockBasis(4)
    p = ParameterPoint(hbar=0.9)
    got = evaluate(compile_plan(parse("i*hbar"), basis), p)
    assert np.allclose(got, 0.9j * np.eye(basis.dimension))


def test_evaluate_angular_momentum_diagonal():
    basis = FockBasis(10)
    p = ParameterPoint(hbar=1.9)
    got = evaluate(compile_plan(parse("q2*pi1 - q1*pi2"), basis), p)
    keep = basis.interior(2)
    for state, on, value in zip(basis.labels.tolist(), keep, np.diag(got)):
        if on:
            assert value == pytest.approx(p.hbar * (state[0] - state[1]), abs=1e-12)
    # off-diagonal part vanishes everywhere, not only on the interior
    assert np.allclose(got - np.diag(np.diag(got)), 0, atol=1e-12)


def test_evaluate_rejects_noncommutative_alphabet():
    basis = FockBasis(4)
    with pytest.raises(Exception) as info:
        compile_plan(parse("x*y"), basis)
    assert "Bopp" in str(info.value)


def test_evaluate_accepts_bopp_image():
    basis = FockBasis(6)
    p = ParameterPoint(theta=0.05, eta=0.02)
    e = substitute(parse("[x, y]"), BOPP)
    got = evaluate(compile_plan(e, basis), p)
    assert np.allclose(got, 1j * p.theta * np.eye(basis.dimension))


def test_truncation_locality():
    # Interior matrix elements are independent of the cutoff.
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    h = build_hamiltonian()
    small, large = FockBasis(8), FockBasis(12)
    m_small = evaluate(compile_plan(h, small), p)
    m_large = evaluate(compile_plan(h, large), p)
    degree = 4
    keep_small = [
        i for i, s in enumerate(small.labels.tolist()) if s[0] + s[1] <= small.cutoff - degree
    ]
    keep_large = [large.position(*small.labels[i]) for i in keep_small]
    assert np.allclose(
        m_small[np.ix_(keep_small, keep_small)],
        m_large[np.ix_(keep_large, keep_large)],
        atol=1e-13,
    )


# -- analytic energies -------------------------------------------------------------


def test_analytic_energy_values():
    assert analytic_energy(0, 0, ParameterPoint()) == pytest.approx(1.0)
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    assert analytic_energy(1, 0, p) == pytest.approx(2.0325)
    assert analytic_energy(1, 1, p) == pytest.approx(3.015)


@pytest.mark.parametrize("tau", [0.005, 0.0], ids=["acceptance", "tau-zero"])
def test_analytic_energy_on_arrays_has_the_scalar_bits(tau):
    # classify calls it once on the claimed labels' integer arrays.
    p = ParameterPoint(theta=0.02, eta=0.03, tau=tau)
    basis = FockBasis(50)
    n_plus, n_minus = basis.labels.T
    got = analytic_energy(n_plus, n_minus, p)
    assert got.dtype == float
    assert repr(got.tolist()) == repr([analytic_energy(a, b, p) for a, b in graded_lex(50)])


# -- diagonalization ----------------------------------------------------------------


def test_diagonalize_core_spectrum():
    basis = FockBasis(6)
    p = ParameterPoint()
    h = evaluate(compile_plan(h_core(), basis), p)
    system = diagonalize(h)
    # the matrix is diagonal; interior labels carry the exact ladder values
    table = classify(system, basis, p)
    for row in table.rows:
        grade = row.n_plus + row.n_minus
        if grade <= basis.cutoff - 2:
            assert row.e_numeric.real == pytest.approx(grade + 1, abs=1e-10)
            assert row.overlap == pytest.approx(1.0)
    assert (system.residuals <= 1e-8 * np.linalg.norm(h)).all()


def test_diagonalize_sorts_by_real_part():
    basis = FockBasis(5)
    system = diagonalize(evaluate(compile_plan(h_core(), basis), ParameterPoint()))
    reals = system.values.real.tolist()
    assert reals == sorted(reals)


def _python_sorted_pairs(h):
    """Python's stable (Re, Im) sort of the pairs of h's blocks, taken in
    block order: the sorted values, residuals and best basis indices."""
    split = ncphase.fock._split(h)
    pairs = [
        (value, residual, int(support[best]))
        for support, (values, residuals, _overlap, bests) in zip(
            split[1], ncphase.fock._solve([split])[0])
        for value, residual, best in zip(values.tolist(), residuals.tolist(), bests)
    ]
    pairs.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    return [list(column) for column in zip(*pairs)]


@pytest.mark.parametrize("case", ["repeated-diagonal", "signed-zero-imaginary", "tau-zero-12"])
def test_diagonalize_orders_as_a_stable_python_sort(case):
    # Equal eigenvalues of different blocks keep their block order, and an
    # imaginary part of -0.0 ties with +0.0.
    if case == "repeated-diagonal":
        h = np.diag([3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0])
    elif case == "signed-zero-imaginary":
        # Two complex triangular blocks: eig gives the first block's values
        # +0.0 imaginary parts and the second's -0.0.
        h = np.zeros((4, 4), dtype=complex)
        h[0, 0] = h[1, 1] = 1.0
        h[2, 2] = h[3, 3] = complex(1.0, -0.0)
        h[0, 1] = h[2, 3] = 1j
    else:
        h = evaluate(compile_plan(build_hamiltonian(), FockBasis(12)),
                     ParameterPoint(theta=0.02, eta=0.03, tau=0.0))
    system = diagonalize(h)
    values, residuals, best = _python_sorted_pairs(h)
    assert repr(system.values.tolist()) == repr(values)
    assert system.residuals.tolist() == residuals
    assert system.best.tolist() == best
    if case == "repeated-diagonal":
        # Each state is its own block, so best is the sorted order.
        assert best == [1, 3, 6, 2, 5, 0, 4]
    elif case == "signed-zero-imaginary":
        assert [math.copysign(1.0, value.imag) for value in values] == [1.0, 1.0, -1.0, -1.0]


def test_diagonalize_rejects_nonsquare():
    with pytest.raises(ValueError):
        diagonalize(np.zeros((3, 4), dtype=complex))


def _permuted_blocks(rng, sizes, complex_entries):
    d = sum(sizes)
    h = np.zeros((d, d), dtype=complex)
    start = 0
    for size in sizes:
        block = rng.standard_normal((size, size))
        if complex_entries:
            block = block + 1j * rng.standard_normal((size, size))
        h[start:start + size, start:start + size] = block
        start += size
    perm = rng.permutation(d)
    return h[np.ix_(perm, perm)]


def _ix_split(h):
    """The oracle: the connected blocks of h's nonzero pattern, each
    gathered with its own np.ix_, from h.real where the whole matrix or the
    block has no imaginary part."""
    n_blocks, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(h != 0), directed=False
    )
    supports = [np.flatnonzero(labels == label) for label in range(n_blocks)]
    real = not np.iscomplexobj(h) or not h.imag.any()
    blocks = []
    for idx in supports:
        rows = np.ix_(idx, idx)
        blocks.append(h.real[rows] if real or not h.imag[rows].any() else h[rows])
    return supports, blocks


@pytest.mark.parametrize("case", ["mixed-complex", "real-as-complex", "real", "tau-zero-12",
                                  "sparse-one-way"])
def test_split_gathers_the_ix_blocks_bitwise(case):
    # A complex matrix with a block whose imaginary part is exactly zero
    # gives that block as float64 and the others as complex; each block has
    # the oracle's dtype and bytes, and the supports are its too.
    rng = np.random.default_rng(13)
    if case == "tau-zero-12":
        point = ParameterPoint(theta=0.02, eta=0.03, tau=0.0)
        h = evaluate(compile_plan(build_hamiltonian(), FockBasis(12)), point)
    elif case == "sparse-one-way":
        # Chains of entries without their transposes: 4 blocks, one of 56
        # states, which the block search joins over several rounds.
        h = rng.standard_normal((60, 60)) * (rng.random((60, 60)) < 0.03)
    else:
        h = _permuted_blocks(rng, (7, 1, 12, 5), False)
        if case == "mixed-complex":
            # The 7 x 7 and 12 x 12 blocks get an imaginary part.
            labels = scipy.sparse.csgraph.connected_components(h != 0, directed=False)[1]
            sizes = np.bincount(labels)[labels]
            h += 0.5j * (h != 0) * ((sizes == 7) | (sizes == 12))[:, None]
        elif case == "real":
            h = h.real.copy()
    supports, blocks = _ix_split(h)
    bound, got_supports, got_blocks = ncphase.fock._split(h)
    assert bound == ncphase.fock.RESIDUAL_FACTOR * np.linalg.norm(h)
    if case == "mixed-complex":
        assert {block.dtype for block in got_blocks} == {np.dtype(float), np.dtype(complex)}
    assert len(got_supports) == len(supports) and len(got_blocks) == len(blocks)
    for support, block, got_support, got_block in zip(supports, blocks, got_supports, got_blocks):
        assert got_support.tobytes() == support.tobytes()
        assert got_block.dtype == block.dtype and got_block.shape == block.shape
        assert got_block.tobytes() == block.tobytes()


@pytest.mark.parametrize("sizes", [(7, 1, 12, 5), (20,)], ids=["blocks", "coupled"])
@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
def test_diagonalize_matches_whole_matrix_eig(sizes, complex_entries):
    # The block-wise solve must reproduce the eigenvalues of one eig call on
    # the whole matrix, each pair's best basis label and overlap must be
    # those of the whole matrix's eigenvector of that value, and its residual
    # must pass the bound the whole matrix's vectors pass.  A real matrix
    # (zero imaginary part) takes the real LAPACK path, a complex one the
    # complex path.
    rng = np.random.default_rng(len(sizes) + 2 * complex_entries)
    h = _permuted_blocks(rng, sizes, complex_entries)
    system = diagonalize(h)
    got = system.values
    expected, vectors = scipy.linalg.eig(h)
    distance = np.abs(got[:, None] - expected[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(distance)
    assert len(got) == len(expected) == h.shape[0]
    assert distance[rows, cols].max() <= 1e-10
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    bound = 1e-10 * np.linalg.norm(h)
    assert np.linalg.norm(h @ vectors - vectors * expected, axis=0).max() <= bound
    assert system.residuals.max() <= bound
    weights = np.abs(vectors[:, cols]) ** 2
    assert system.best[rows].tolist() == weights.argmax(axis=0).tolist()
    assert system.overlap[rows] == pytest.approx(weights.max(axis=0), abs=1e-10)


def _scipy_block_system(h):
    """The oracle: one scipy.linalg.eig call per connected block, one after
    the other, sorted by Python's stable (Re, Im) sort of the pairs in
    block order, each pair's best label and overlap taken from its own
    eigenvector embedded at full length."""
    d = h.shape[0]
    n_blocks, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(h != 0), directed=False
    )
    pairs = []
    for label in range(n_blocks):
        idx = np.flatnonzero(labels == label)
        block = h[np.ix_(idx, idx)]
        if not block.imag.any():
            block = block.real
        values, vectors = scipy.linalg.eig(block)
        vectors = vectors / np.linalg.norm(vectors, axis=0)
        residuals = np.linalg.norm(block @ vectors - vectors * values, axis=0)
        embedded = np.zeros((len(idx), d), dtype=complex)
        embedded[:, idx] = vectors.T
        pairs.extend(zip(values.astype(complex).tolist(), residuals.tolist(), embedded))
    order = sorted(range(len(pairs)), key=lambda k: (pairs[k][0].real, pairs[k][0].imag))
    weights = [np.abs(pairs[k][2]) ** 2 for k in order]
    best = [int(np.argmax(w)) for w in weights]
    return Eigensystem(
        values=np.array([pairs[k][0] for k in order], dtype=complex),
        residuals=np.array([pairs[k][1] for k in order]),
        overlap=np.array([w[b] for w, b in zip(weights, best)]),
        best=np.array(best, dtype=int),
    )


ACCEPTANCE_POINT = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)


def _oracle_case(name):
    """(matrix, basis) of an oracle case.  A random matrix is labelled by the
    first states of a basis at least as large: classify reads labels only."""
    if name == "acceptance-16":
        basis = FockBasis(16)
        return evaluate(compile_plan(build_hamiltonian(), basis), ACCEPTANCE_POINT), basis
    sizes = (20,) if name.startswith("coupled") else (7, 1, 12, 5)
    complex_entries = name.endswith("complex")
    rng = np.random.default_rng(len(sizes) + 2 * complex_entries)
    return _permuted_blocks(rng, sizes, complex_entries), FockBasis(6)


@pytest.mark.parametrize("case", [
    "acceptance-16", "blocks-real", "blocks-complex", "coupled-real", "coupled-complex",
])
def test_diagonalize_matches_scipy_block_oracle(case):
    h, basis = _oracle_case(case)
    got, expected = diagonalize(h), _scipy_block_system(h)
    tolerance = 1e-12 * np.linalg.norm(h)
    distance = np.abs(got.values[:, None] - expected.values[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(distance)
    assert len(got) == len(expected) == h.shape[0]
    assert distance[rows, cols].max() <= tolerance
    # The oracle's argmax runs over every index, so this also checks that a
    # block-local argmax maps back to the same basis label.
    table, oracle = classify(got, basis, ACCEPTANCE_POINT), classify(expected, basis, ACCEPTANCE_POINT)
    assert [(r.n_plus, r.n_minus) for r in table.rows] == [
        (r.n_plus, r.n_minus) for r in oracle.rows
    ]
    assert len(table.unclassified) == len(oracle.unclassified)
    # The two wrappers may link different LAPACK builds, so the overlaps are
    # compared to roundoff rather than bit for bit.
    assert [r.overlap for r in table.rows] == pytest.approx(
        [r.overlap for r in oracle.rows], abs=1e-12
    )
    for row, reference in zip(table.rows, oracle.rows):
        assert abs(row.e_numeric - reference.e_numeric) <= tolerance


def test_diagonalize_repeats_bit_for_bit():
    h, _basis = _oracle_case("acceptance-16")
    first = diagonalize(h)
    for _ in range(19):
        _assert_same_systems([diagonalize(h)], [first])


def test_pooled_block_failure_reaches_the_caller(monkeypatch):
    # The caller solves the largest block, a 7x7 triangular one whose
    # residuals are exactly 0; the two random 6x6 blocks go to the pool,
    # where roundoff leaves a residual above a bound of 0.
    rng = np.random.default_rng(3)
    h = np.zeros((19, 19))
    h[:7, :7] = np.diag(np.arange(1.0, 8.0)) + np.triu(np.ones((7, 7)), 1)
    h[7:13, 7:13] = rng.standard_normal((6, 6))
    h[13:, 13:] = rng.standard_normal((6, 6))
    monkeypatch.setattr(ncphase.fock, "RESIDUAL_FACTOR", 0)
    assert not diagonalize(h[:7, :7]).residuals.any()
    with pytest.raises(NumericError, match=r"^eigenpair residual \S+ exceeds 0\.0e\+00 \* \|\|H\|\|$"):
        diagonalize(h)
    monkeypatch.undo()
    # The pool serves the next call as before.
    assert len(diagonalize(h)) == 19


class _CountingExecutor:
    """Forwards to an executor and counts the jobs submitted to it."""

    def __init__(self, executor):
        self.executor = executor
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return self.executor.submit(*args, **kwargs)


@pytest.mark.parametrize("case", ["permuted-blocks", "tau-zero-12"])
def test_each_call_submits_one_pool_job(case, monkeypatch):
    # At tau = 0 the N=12 Hamiltonian splits into 42 blocks; the pool still
    # gets one job, which solves all of them but the largest.
    if case == "permuted-blocks":
        h = _permuted_blocks(np.random.default_rng(5), (7, 1, 12, 5), True)
        n_blocks = 4
    else:
        point = ParameterPoint(theta=0.02, eta=0.03, tau=0.0)
        h = evaluate(compile_plan(build_hamiltonian(), FockBasis(12)), point)
        n_blocks = 42
    assert scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(h != 0), directed=False)[0] == n_blocks
    expected = diagonalize(h)
    counting = _CountingExecutor(ncphase.fock._pool())
    monkeypatch.setattr(ncphase.fock, "_pool", lambda: counting)
    got = diagonalize(h)
    assert counting.submitted == 1
    assert np.array_equal(got.values, expected.values)


def test_diagonalize_empty_matrix():
    assert len(diagonalize(np.zeros((0, 0)))) == 0


def test_concurrent_callers_share_the_pool():
    # More calling threads than CPUs, each with its own matrix, all queueing
    # blocks on the one pool: each gets exactly its serial result.
    matrices = [
        _permuted_blocks(np.random.default_rng(seed), (7, 1, 12, 5), seed % 2 == 0)
        for seed in range(6)
    ]
    serial = [diagonalize(h) for h in matrices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(matrices)) as callers:
            futures = [callers.submit(diagonalize, h) for h in matrices for _ in range(5)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    _assert_same_systems(results, [system for system in serial for _ in range(5)])


def test_pool_threads_call_no_public_function(monkeypatch):
    # perfbench's tracer wraps every public ncphase function and keeps one
    # span stack, so only the calling thread may enter them.
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name != "ncphase" and not module_name.startswith("ncphase."):
            continue
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and value.__module__.startswith("ncphase")
                    and not attr.startswith("_")):
                monkeypatch.setattr(module, attr, recorded(f"{value.__module__}.{attr}", value))
    monkeypatch.setattr(ncphase.fock, "_solve_block",
                        recorded("_solve_block", ncphase.fock._solve_block))
    h = _permuted_blocks(np.random.default_rng(5), (7, 1, 12, 5), True)
    ncphase.fock.diagonalize(h)
    assert ("ncphase.fock.diagonalize", True) in calls
    assert [name for name, on_main in calls if not on_main] == ["_solve_block"] * 3


class _SerialExecutor:
    """Runs each job at once on the calling thread."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def test_spectrum_drops_its_matrix_before_the_solve(monkeypatch):
    # The N=40 matrix is real and dropped once split, and the residuals are
    # taken a slab of columns at a time, so no dense complex d x d matrix is
    # held through the eigensolve: the traced peak of a spectrum call stays
    # within 1.5 of those (holding the complex matrix through the solve reads
    # 2.3-2.8).  The pool's job runs before the caller's solve, so the peak
    # does not depend on how the two solves overlap.
    monkeypatch.setattr(ncphase.fock, "_pool", _SerialExecutor)
    h = build_hamiltonian()
    # A first, small call keeps one-time costs (lazy imports) out.
    spectrum(ACCEPTANCE_POINT, compile_plan(h, FockBasis(6)))
    plan = compile_plan(h, FockBasis(40))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        spectrum(ACCEPTANCE_POINT, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    d = plan.basis.dimension
    assert peak <= 1.5 * np.dtype(complex).itemsize * d * d


def test_block_solve_copies_neither_vectors_nor_block():
    # The N=40 even block (441 states) is real with complex eigenvalues.  Its
    # solve holds eig's complex vectors and 512-KiB slabs (and their
    # weights) beside them, and copies neither the vectors (a Fortran-ordered
    # copy) nor the block (a complex copy for the residual product): the
    # traced peak above entry stays within 1.75 complex n x n arrays (with
    # either copy it reads 2.38-2.42).
    plan = compile_plan(build_hamiltonian(), FockBasis(40))
    bound, supports, blocks = ncphase.fock._split(evaluate(plan, ACCEPTANCE_POINT))
    (block,) = [block for block in blocks if len(block) == 441]
    assert block.dtype == float
    # A first, small solve keeps one-time costs (lazy imports) out.
    ncphase.fock._solve_block([block[:8, :8].copy()], [bound])
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        (result,) = ncphase.fock._solve_block([block], [bound])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    values, residuals, overlap, best = result
    assert values.dtype == complex and values.imag.any()
    assert residuals.max() <= bound
    assert len(overlap) == len(best) == len(block)
    assert peak <= 1.75 * np.dtype(complex).itemsize * len(block) ** 2


def _own_eig_overlaps(h):
    """The oracle: each connected block's own ``np.linalg.eig`` vectors (real
    arithmetic where the block is real), each whole column divided by its
    ``np.linalg.norm``, then the weights |v|^2 and their argmax at basis
    indices; the pairs sorted by Python's stable (Re, Im) sort in block
    order.  Each sorted pair's (value, overlap, best)."""
    n_blocks, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(h != 0), directed=False
    )
    pairs = []
    for label in range(n_blocks):
        idx = np.flatnonzero(labels == label)
        block = h[np.ix_(idx, idx)]
        values, vectors = np.linalg.eig(block if block.imag.any() else block.real)
        weights = np.abs(vectors / np.linalg.norm(vectors, axis=0)) ** 2
        best = weights.argmax(axis=0)
        pairs.extend(zip(values.astype(complex).tolist(), weights.max(axis=0).tolist(),
                         idx[best].tolist()))
    pairs.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    return [list(column) for column in zip(*pairs)]


@pytest.mark.parametrize("case", ["acceptance-26", "complex-eigenvalues-40", "random-complex"])
def test_block_solve_overlaps_match_each_blocks_own_vectors(case):
    # The solve reduces its vectors to weights a slab of columns at a time;
    # each pair's overlap and best label have the bits of its block's whole
    # normalized vector.  At N=26 each parity block (196 and 182 states) is
    # two slabs; the N=40 even block is real with complex eigenvalues, so
    # its vectors go through the interleaved real product.
    if case == "random-complex":
        h = _permuted_blocks(np.random.default_rng(11), (30,), True)
    else:
        cutoff = 26 if case == "acceptance-26" else 40
        h = evaluate(compile_plan(build_hamiltonian(), FockBasis(cutoff)), ACCEPTANCE_POINT)
        if cutoff == 40:
            (h,) = [block for block in ncphase.fock._split(h)[2] if len(block) == 441]
            assert not np.iscomplexobj(h) and np.linalg.eigvals(h).imag.any()
        else:
            assert sorted(map(len, ncphase.fock._split(h)[2])) == [182, 196]
    system = diagonalize(h)
    values, overlap, best = _own_eig_overlaps(h)
    assert system.values.tobytes() == np.array(values).tobytes()
    assert system.overlap.tobytes() == np.array(overlap).tobytes()
    assert system.best.tobytes() == np.array(best).tobytes()


# -- stacked sweeps ------------------------------------------------------------------


def _sweep_case(name):
    """(plan, points) of a 6-point sweep."""
    steps = [float(s) for s in np.linspace(0.0, 1.0, 6)]
    if name == "tau-from-zero-12":
        plan = compile_plan(build_hamiltonian(), FockBasis(12))
        points = [ParameterPoint(theta=0.02, eta=0.03, tau=0.01 * s) for s in steps]
    elif name.endswith("theta-8"):
        policy = UNDEFORMED_POLICY if name.startswith("undeformed") else DEFAULT_POLICY
        plan = compile_plan(build_hamiltonian(policy), FockBasis(8))
        points = [ParameterPoint(theta=0.05 * s, eta=0.03, tau=0.005) for s in steps]
    else:
        plan = compile_plan(build_hamiltonian(FIRST_ORDER_CROSS_POLICY), FockBasis(10))
        points = [ParameterPoint(hbar=1.3, m=0.7, omega=1.9, theta=0.02, eta=0.03,
                                 tau=0.02 * s) for s in steps]
    return plan, points


@pytest.fixture
def classified(monkeypatch):
    """The Eigensystem of each classify call, in call order."""
    calls = []
    original = ncphase.fock.classify

    def recording(system, basis, p):
        calls.append(system)
        return original(system, basis, p)

    monkeypatch.setattr(ncphase.fock, "classify", recording)
    return calls


def _taken(calls):
    """The calls recorded so far; the record is cleared."""
    taken = calls[:]
    calls.clear()
    return taken


def _point_by_point(points, plan):
    """spectrum at each point: its table, or the error it raised."""
    outcomes = []
    for p in points:
        try:
            outcomes.append(spectrum(p, plan))
        except (NumericError, ValueError, ArithmeticError) as exc:
            outcomes.append(exc)
    return outcomes


def _assert_same_systems(got, expected):
    assert len(got) == len(expected)
    for system, reference in zip(got, expected):
        assert system.values.tobytes() == reference.values.tobytes()
        assert system.residuals.tobytes() == reference.residuals.tobytes()
        assert system.overlap.tobytes() == reference.overlap.tobytes()
        assert system.best.tobytes() == reference.best.tobytes()


def _assert_same_outcomes(got, expected):
    assert len(got) == len(expected)
    for outcome, reference in zip(got, expected):
        if isinstance(reference, Exception):
            assert (type(outcome), str(outcome)) == (type(reference), str(reference))
            continue
        assert isinstance(outcome, ncphase.fock.LevelTable)
        assert outcome.rows.dtype == reference.rows.dtype
        assert outcome.rows.tobytes() == reference.rows.tobytes()
        assert outcome.unclassified == reference.unclassified


@pytest.mark.parametrize("case", ["tau-from-zero-12", "undeformed-theta-8", "cross-10"])
def test_spectra_gives_spectrum_bits(case, classified):
    # Every eigenpair, its overlap and best label, and every level row of
    # each point is spectrum's.
    plan, points = _sweep_case(case)
    expected = _point_by_point(points, plan)
    expected_systems = _taken(classified)
    got = list(spectra(points, plan))
    assert not any(isinstance(outcome, Exception) for outcome in expected)
    _assert_same_outcomes(got, expected)
    assert len(classified) == len(points)
    _assert_same_systems(classified, expected_systems)


def test_stacked_eig_gives_each_matrix_bits():
    # spectra solves its stacks in one numpy.linalg.eig call and relies on
    # each matrix getting the bits of its own solve: real spectra, complex
    # spectra in real arithmetic, and complex matrices.
    plan, points = _sweep_case("tau-from-zero-12")
    even = np.stack([ncphase.fock._split(evaluate(plan, p))[2][0] for p in points[1:]])
    rng = np.random.default_rng(7)
    real = rng.standard_normal((5, 20, 20))
    for stack in (even, real, real + 1j * rng.standard_normal((5, 20, 20))):
        values, vectors = np.linalg.eig(stack)
        for k, matrix in enumerate(stack):
            one_values, one_vectors = np.linalg.eig(matrix)
            assert values[k].astype(complex).tobytes() == one_values.astype(complex).tobytes()
            assert vectors[k].astype(complex).tobytes() == one_vectors.astype(complex).tobytes()


def test_spectra_solves_one_stack_per_block_support(monkeypatch):
    # At tau = 0 the N=12 matrix splits into 42 blocks, at every other point
    # into its two parity blocks: one eig call per block stack (point by
    # point: 42 + 5 * 2 calls) and one pool job.  The caller solves the
    # largest stack, the five even-parity blocks.
    plan, points = _sweep_case("tau-from-zero-12")
    counting = _CountingExecutor(ncphase.fock._pool())
    monkeypatch.setattr(ncphase.fock, "_pool", lambda: counting)
    shapes, solvers = [], []
    eig = np.linalg.eig
    solve_block = ncphase.fock._solve_block

    def recording(a):
        shapes.append(a.shape)
        return eig(a)

    def recording_solver(blocks, bounds):
        shape = (len(blocks), *blocks[0].shape)
        solvers.append((shape, threading.current_thread() is threading.main_thread()))
        return solve_block(blocks, bounds)

    monkeypatch.setattr(np.linalg, "eig", recording)
    monkeypatch.setattr(ncphase.fock, "_solve_block", recording_solver)
    assert len(list(spectra(points, plan))) == 6
    assert counting.submitted == 1
    assert len(shapes) == 42 + 2
    assert sorted(shapes)[-2:] == [(5, 42, 42), (5, 49, 49)]
    assert len(solvers) == 44
    assert [shape for shape, on_main in solvers if on_main] == [(5, 49, 49)]


def test_spectra_without_blocks_submits_no_pool_job(monkeypatch):
    # No points, or points that all fail before their solve, leave nothing
    # to stack.
    plan, _points = _sweep_case("theta-8")
    failing = [ParameterPoint(theta=1e300)] * 3
    expected = _point_by_point(failing, plan)
    counting = _CountingExecutor(ncphase.fock._pool())
    monkeypatch.setattr(ncphase.fock, "_pool", lambda: counting)
    assert list(spectra([], plan)) == []
    _assert_same_outcomes(list(spectra(failing, plan)), expected)
    assert all(isinstance(outcome, NumericError) for outcome in expected)
    assert counting.submitted == 0


def test_spectra_flushes_at_the_byte_budget(monkeypatch, classified):
    # With a budget of one byte every point is solved alone, one group and
    # one pool job per point, and gives the same tables and eigensystems.
    plan, points = _sweep_case("theta-8")
    expected = _point_by_point(points, plan)
    expected_systems = _taken(classified)
    monkeypatch.setattr(ncphase.fock, "STACK_BYTES", 1)
    counting = _CountingExecutor(ncphase.fock._pool())
    monkeypatch.setattr(ncphase.fock, "_pool", lambda: counting)
    _assert_same_outcomes(list(spectra(points, plan)), expected)
    _assert_same_systems(classified, expected_systems)
    assert counting.submitted == len(points)


def test_spectra_residual_failure_stays_with_its_point(monkeypatch, classified):
    # A bound between the points' relative residuals fails some matrices of
    # a stack; those points fail with spectrum's error and the others keep
    # their tables and eigensystems.  An overflowing point fails at
    # evaluation, in order.
    plan, points = _sweep_case("theta-8")
    points.insert(2, ParameterPoint(theta=1e300))
    ratios = []
    for p in points[:2] + points[3:]:
        h = evaluate(plan, p)
        ratios.append(diagonalize(h).residuals.max() / np.linalg.norm(h))
    low, high = sorted(set(ratios))[2:4]
    monkeypatch.setattr(ncphase.fock, "RESIDUAL_FACTOR", math.sqrt(low * high))
    expected = _point_by_point(points, plan)
    failed = [str(outcome) for outcome in expected if isinstance(outcome, Exception)]
    assert failed.count("matrix norm overflows at this parameter point") == 1
    residual_failures = sum(text.startswith("eigenpair residual") for text in failed)
    assert residual_failures == sum(ratio >= high for ratio in ratios) >= 2
    expected_systems = _taken(classified)
    _assert_same_outcomes(list(spectra(points, plan)), expected)
    _assert_same_systems(classified, expected_systems)


def _shift_first_value(monkeypatch, target, shift):
    """Wrap numpy.linalg.eig so that each stacked matrix equal to ``target``
    gets its first eigenvalue moved by ``shift``: that eigenpair's residual
    becomes |shift| to rounding, its unit vector being unchanged."""
    eig = np.linalg.eig

    def shifting(a):
        values, vectors = eig(a)
        for k, matrix in enumerate(a):
            if matrix.shape == target.shape and np.array_equal(matrix, target):
                values[k, 0] += shift
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", shifting)


_RESIDUAL_FAILURE = r"^eigenpair residual (\S+) exceeds 1\.0e-08 \* \|\|H\|\|$"


@pytest.mark.parametrize("ratio, fails", [(1e-7, True), (1e-9, False)])
def test_residual_gate_sits_at_its_factor(monkeypatch, ratio, fails):
    # An eigenpair with residual 1e-7 ||H|| fails the bound 1e-8 ||H||, and
    # one with 1e-9 ||H|| passes it: the gate is neither 100 times looser
    # nor 10,000 times tighter than documented.
    h = evaluate(compile_plan(build_hamiltonian(), FockBasis(8)), ACCEPTANCE_POINT)
    norm = np.linalg.norm(h)
    _shift_first_value(monkeypatch, ncphase.fock._split(h)[2][0], ratio * norm)
    if fails:
        with pytest.raises(NumericError, match=_RESIDUAL_FAILURE) as failure:
            diagonalize(h)
        worst = float(re.match(_RESIDUAL_FAILURE, str(failure.value)).group(1))
    else:
        worst = diagonalize(h).residuals.max()
    assert worst == pytest.approx(ratio * norm, rel=1e-3)


def test_spectra_residual_gate_fails_that_point_only(monkeypatch):
    # One pair of the fourth point's first block has residual 1e-7 ||H||:
    # that point fails as spectrum fails it, and the others keep the tables
    # they have without the shift.
    plan, points = _sweep_case("theta-8")
    h = evaluate(plan, points[3])
    clean = _point_by_point(points, plan)
    _shift_first_value(monkeypatch, ncphase.fock._split(h)[2][0], 1e-7 * np.linalg.norm(h))
    got = list(spectra(points, plan))
    assert [isinstance(outcome, Exception) for outcome in got] == [k == 3 for k in range(6)]
    assert re.match(_RESIDUAL_FAILURE, str(got[3]))
    _assert_same_outcomes(got, clean[:3] + [got[3]] + clean[4:])
    _assert_same_outcomes(_point_by_point(points, plan), got)


def test_spectra_resolves_a_failed_stack_matrix_by_matrix(monkeypatch, classified):
    # LAPACK failing on one point's blocks fails the whole stack; spectra
    # solves its matrices one at a time, so only that point fails, with
    # spectrum's error.
    plan, points = _sweep_case("theta-8")
    bad = ncphase.fock._split(evaluate(plan, points[3]))[2]
    eig = np.linalg.eig
    solved_shapes = []

    def failing(a):
        solved_shapes.append(a.shape)
        if any(m.shape == b.shape and np.array_equal(m, b) for m in a for b in bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", failing)
    expected = _point_by_point(points, plan)
    assert [str(outcome) for outcome in expected if isinstance(outcome, Exception)] == [
        "eigensolver did not converge: Eigenvalues did not converge"]
    assert isinstance(expected[3], NumericError)
    expected_systems = _taken(classified)
    solved_shapes.clear()
    _assert_same_outcomes(list(spectra(points, plan)), expected)
    _assert_same_systems(classified, expected_systems)
    # Two stacks of 6, then each of the two failed stacks one matrix at a time.
    assert sorted(shape[0] for shape in solved_shapes) == [1] * 12 + [6, 6]


def test_spectra_reuses_the_supports_of_an_unchanged_pattern(monkeypatch, classified):
    # The sweep from tau = 0 has three patterns: 42 blocks at tau = 0, the
    # two parity blocks after it, and at tau = 0.01 the same blocks with two
    # entries that cancel to exactly 0.  Only a changed pattern is split into
    # its connected components again; the point by point solve splits each.
    plan, points = _sweep_case("tau-from-zero-12")
    assert [int(np.count_nonzero(evaluate(plan, p))) for p in points] == [
        207, 1445, 1445, 1445, 1445, 1443]
    points = [*points, points[0], points[0], points[1]]
    expected = _point_by_point(points, plan)
    expected_systems = _taken(classified)
    calls = []
    components = ncphase.fock._components

    def counting(*args):
        calls.append(args)
        return components(*args)

    monkeypatch.setattr(ncphase.fock, "_components", counting)
    got = list(spectra(points[:6], plan))
    assert len(calls) == 3
    _assert_same_outcomes(got, expected[:6])
    _assert_same_systems(_taken(classified), expected_systems[:6])
    calls.clear()
    _assert_same_outcomes(list(spectra(points, plan)), expected)
    _assert_same_systems(classified, expected_systems)
    assert len(calls) == 5


def test_spectra_of_no_points_is_empty():
    plan, _points = _sweep_case("theta-8")
    assert list(spectra([], plan)) == []


@pytest.mark.parametrize(
    "point",
    [
        ParameterPoint(theta=0.02, eta=0.03, tau=0.005),
        ParameterPoint(hbar=1.3, m=0.7, omega=1.9, theta=-0.04, eta=0.05, tau=0.01),
    ],
)
def test_hamiltonian_matrix_is_exactly_real(point):
    # In the helicity basis the Hamiltonian is exactly real at every real
    # parameter point; diagonalize relies on it to use real arithmetic.
    h = evaluate(compile_plan(build_hamiltonian(), FockBasis(12)), point)
    assert isinstance(h, np.ndarray)
    assert not h.imag.any()


# -- classification ------------------------------------------------------------------


# The fields of a level table's rows, in order.
_LEVEL_FIELDS = [("n_plus", np.int64), ("n_minus", np.int64), ("e_analytic", np.float64),
                 ("e_numeric", np.complex128), ("residual", np.float64), ("overlap", np.float64)]


def _classify_pair_by_pair(system, basis, p):
    """The oracle: a greedy claim of each eigenpair's best label, one pair at
    a time, by descending overlap (a stable sort)."""
    states = graded_lex(basis.cutoff)
    values, residuals = system.values.tolist(), system.residuals.tolist()
    claims = list(zip(system.overlap.tolist(), system.best.tolist(), range(len(system))))
    claims.sort(key=lambda item: -item[0])
    taken, rows, unclassified = set(), [], []
    for overlap, best, k in claims:
        if overlap < ncphase.fock.OVERLAP_FLOOR or best in taken:
            unclassified.append(k)
            continue
        taken.add(best)
        n_plus, n_minus = states[best]
        rows.append((n_plus, n_minus, analytic_energy(n_plus, n_minus, p),
                     values[k], residuals[k], overlap))
    rows.sort(key=lambda row: (row[0] + row[1], row[0]))
    return ncphase.fock.LevelTable(np.rec.fromrecords(rows, dtype=_LEVEL_FIELDS), unclassified)


def _assert_classified_as_pair_by_pair(system, basis, p):
    expected = _classify_pair_by_pair(system, basis, p)
    table = classify(system, basis, p)
    assert table.rows.dtype == expected.rows.dtype
    assert table.rows.tobytes() == expected.rows.tobytes()
    assert table.unclassified == expected.unclassified


@pytest.mark.parametrize("case", ["tau-from-zero-12", "undeformed-theta-8", "cross-10"])
def test_classify_of_a_sweep_matches_the_pair_by_pair_oracle(case, classified):
    plan, points = _sweep_case(case)
    list(spectra(points, plan))
    assert len(classified) == len(points)
    for system, p in zip(classified, points):
        _assert_classified_as_pair_by_pair(system, plan.basis, p)


@pytest.mark.parametrize("case", [
    "acceptance-16", "tau-zero-12", "blocks-real", "blocks-complex",
])
def test_classify_matches_the_pair_by_pair_oracle(case):
    if case == "tau-zero-12":
        basis = FockBasis(12)
        h = evaluate(compile_plan(build_hamiltonian(), basis),
                     ParameterPoint(theta=0.02, eta=0.03, tau=0.0))
    else:
        h, basis = _oracle_case(case)
    _assert_classified_as_pair_by_pair(diagonalize(h), basis, ACCEPTANCE_POINT)
    # The scipy oracle's one block spans every index.
    _assert_classified_as_pair_by_pair(_scipy_block_system(h), basis, ACCEPTANCE_POINT)


def test_classify_breaks_ties_as_the_pair_by_pair_oracle():
    # Four pairs of one hand-made block on the basis indices 2, 4 and 7, with
    # the overlaps and block-local best indices of the columns (0.6, 0.8, 0),
    # (0.8, 0.8, 0.1), (0, 0.8, 0.6) and (0.1j, 0, 0.9).  Pairs 0 and 2
    # share the largest overlap and the label 4, and the earlier pair claims
    # it.
    basis = FockBasis(4)
    system = ncphase.fock._eigensystem(
        [np.array([2, 4, 7])],
        [(np.array([1.0, 2.0, 3.0, 4.0], dtype=complex), np.zeros(4),
          np.array([0.8, 0.8, 0.8, 0.9]) ** 2, np.array([1, 0, 1, 2]))],
    )
    _assert_classified_as_pair_by_pair(system, basis, ACCEPTANCE_POINT)
    table = classify(system, basis, ACCEPTANCE_POINT)
    assert [(basis.position(row.n_plus, row.n_minus), row.e_numeric) for row in table.rows] == [
        (2, 2.0), (4, 1.0), (7, 4.0)]
    assert table.unclassified == [2]


def test_block_solve_breaks_weight_ties_to_the_lower_label():
    # The eigenvector of 2 in the block on indices 0 and 2 is (1, 1)/sqrt(2):
    # its two weights are one float, and the lower label wins.
    h = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    system = diagonalize(h)
    assert system.values.tolist() == [1.0, 2.0, 2.0]
    assert system.best.tolist() == [0, 0, 1]
    assert system.overlap[1] == pytest.approx(0.5) and system.overlap[[0, 2]].tolist() == [1, 1]


# An amplitude whose weight |v|^2 is the floor when the floor is patched to
# it (no float squares to 0.5 exactly), and the amplitude below it.
_AT_FLOOR = math.sqrt(ncphase.fock.OVERLAP_FLOOR)
_BELOW_FLOOR = float(np.nextafter(_AT_FLOOR, 0.0))
assert _BELOW_FLOOR**2 < _AT_FLOOR**2
_AMPLITUDES = (0.0, _BELOW_FLOOR, _AT_FLOOR, -_AT_FLOOR, 0.6, 0.8j, 1.0)


@st.composite
def _random_systems(draw, dimension=10):
    """Eigensystems of up to three hand-made blocks of up to four pairs:
    few overlaps (weights of few amplitudes) and labels, so both repeat, and
    few values, so the sort meets ties."""
    supports, solved = [], []
    for _ in range(draw(st.integers(0, 3))):
        support = sorted(draw(st.sets(st.integers(0, dimension - 1), min_size=1, max_size=4)))
        width = draw(st.integers(0, 4))

        def pairs(strategy):
            return np.array(draw(st.lists(strategy, min_size=width, max_size=width)))

        values = pairs(st.sampled_from([1.0, 2.0, 2.0 + 0.5j, 2.0 - 0.5j])).astype(complex)
        residuals = pairs(st.sampled_from([0.0, 1e-15])).astype(float)
        overlap = np.abs(pairs(st.sampled_from(_AMPLITUDES)).astype(complex)) ** 2
        best = pairs(st.integers(0, len(support) - 1)).astype(int)
        supports.append(np.array(support))
        solved.append((values, residuals, overlap, best))
    return ncphase.fock._eigensystem(supports, solved)


@settings(max_examples=150, deadline=None)
@given(_random_systems(), st.sampled_from([ncphase.fock.OVERLAP_FLOOR, _AT_FLOOR**2]))
def test_classify_matches_the_pair_by_pair_oracle_on_random_systems(system, floor):
    # Repeated overlaps and labels, overlaps at, just above and just below
    # the floor, and systems without pairs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncphase.fock, "OVERLAP_FLOOR", floor)
        _assert_classified_as_pair_by_pair(system, FockBasis(3), ACCEPTANCE_POINT)


def test_classify_undeformed_is_perfect():
    p = ParameterPoint()
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(8)))
    for row in table.rows:
        assert row.overlap == pytest.approx(1.0)
        assert abs(row.e_numeric - row.e_analytic) <= 1e-8 or (
            row.n_plus + row.n_minus > 8 - 2
        )


def test_classify_assigns_each_label_once():
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(8)))
    labels = [(row.n_plus, row.n_minus) for row in table.rows]
    assert len(labels) == len(set(labels))


def test_lucky_level_matches_closed_form():
    # (1, 0) is the level whose closed-form first-order shift is exact.
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(12)))
    row = table.row(1, 0)
    assert row is not None
    assert abs(row.e_numeric - 2.0325) <= 1e-3
    assert abs(row.e_numeric.imag) <= 1e-8


def test_angular_splitting_at_tau_zero():
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.0)
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(8)))
    split = table.row(1, 0).e_numeric.real - table.row(0, 1).e_numeric.real
    assert split == pytest.approx(0.05, abs=1e-10)


def test_level_table_rows_are_one_record_array():
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(12)))
    assert isinstance(table.rows, np.recarray)
    assert table.rows.dtype == np.dtype(_LEVEL_FIELDS)
    # row() finds every label's own record, and None for a basis label that
    # no pair claimed (grade 6 mixes at this point) or one outside the basis.
    for record in table.rows:
        assert table.row(int(record.n_plus), int(record.n_minus)).tobytes() == record.tobytes()
    assert table.row(3, 3) is None
    assert table.row(12, 1) is None


def test_hermitian_limit():
    p = ParameterPoint(theta=0.04, eta=0.05, tau=0.0)
    basis = FockBasis(10)
    h = evaluate(compile_plan(build_hamiltonian(), basis), p)
    assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(h)
    table = classify(diagonalize(h), basis, p)
    for row in table.rows:
        if row.n_plus + row.n_minus <= basis.cutoff - 2:
            assert abs(row.e_numeric - row.e_analytic) <= 1e-8


@pytest.mark.parametrize(
    "theta,eta,tau",
    [(0.05, 0.05, 0.01), (-0.05, 0.05, 0.01), (0.05, -0.05, 0.005)],
)
def test_spectrum_reality_in_parameter_box(theta, eta, tau):
    # Every classified level within the truncation margin is real; rows
    # beyond cutoff - 4 are boundary-contaminated and excluded, as the
    # classification contract prescribes.  At corners where the angular
    # coefficient vanishes exactly, degenerate mixtures legitimately fail
    # to classify, so only the classified rows are constrained.
    p = ParameterPoint(theta=theta, eta=eta, tau=tau)
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(10)))
    checked = 0
    for row in table.rows:
        if row.n_plus + row.n_minus <= 10 - 4:
            assert abs(row.e_numeric.imag) <= 1e-8 * max(abs(row.e_numeric.real), 1.0)
            checked += 1
    assert checked >= 1  # the unique ground label always classifies


def test_interior_classification_coverage_at_generic_point():
    # Away from degenerate corners the low-lying labels all classify; the
    # mixing induced by the quartic correction grows with the grade, so the
    # overlap floor tightens toward the bottom of the spectrum.
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(12)))
    low = [row for row in table.rows if row.n_plus + row.n_minus <= 4]
    assert len(low) == 15
    assert all(row.overlap > 0.8 for row in low)
    lowest = [row for row in table.rows if row.n_plus + row.n_minus <= 2]
    assert all(row.overlap > 0.97 for row in lowest)


def test_level_table_csv_format():
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(6)))
    text = level_table_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "n_plus,n_minus,E_analytic,E_numeric_re,E_numeric_im,abs_err,residual,overlap"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == pytest.approx(1.005)



def test_level_table_csv_and_json_carry_the_same_fields():
    # Both formats come from one row formatter: the CSV text is each JSON
    # value printed to 12 significant digits.
    p = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    table = spectrum(p, compile_plan(build_hamiltonian(), FockBasis(6)))
    lines = level_table_csv(table).strip().split("\n")
    records = json.loads(_LevelWriter().to_json([(None, table.rows)]))
    assert len(lines) == len(records) + 1
    for line, record in zip(lines[1:], records):
        assert list(record) == lines[0].split(",")
        assert line == ",".join(f"{value:.12g}" for value in record.values())
        assert isinstance(record["n_plus"], int) and isinstance(record["overlap"], float)


def test_parameter_point_fields_follow_the_parameter_order():
    assert tuple(f.name for f in dataclasses.fields(ParameterPoint)) == PARAMS
    assert tuple(ParameterPoint().values()) == PARAMS


# -- exact diagonals of the tau-sector pieces (oracle-frozen closed forms) ----------


def _sector_diagonals(basis, p):
    q1, q2, pi1, pi2 = scaled_phase_space(basis, p)
    quartic = p.m * p.omega**2 * (q2 @ q2 @ q1 @ q1)
    linear = -(1j * p.hbar / p.m) * (q2 @ pi2)
    squared = (1 / p.m) * (q2 @ q2 @ pi2 @ pi2)
    return quartic, linear, squared


def test_true_quartic_diagonal():
    basis = FockBasis(10)
    p = ParameterPoint(hbar=1.7, m=2.3, omega=0.9)
    quartic, _linear, _squared = _sector_diagonals(basis, p)
    scale = p.hbar**2 / (8 * p.m)
    for state, on, value in zip(basis.labels.tolist(), basis.interior(4), np.diag(quartic)):
        if on:
            n_plus, n_minus = state
            s = n_plus + n_minus
            expected = scale * (2 * n_plus * n_minus + (s + 1) * (s + 2))
            assert value.real == pytest.approx(expected, rel=1e-12)
            assert abs(value.imag) <= 1e-12


def test_true_linear_diagonal():
    basis = FockBasis(10)
    p = ParameterPoint(hbar=0.8, m=1.9, omega=2.4)
    _quartic, linear, _squared = _sector_diagonals(basis, p)
    for on, value in zip(basis.interior(2), np.diag(linear)):
        if on:
            assert value.real == pytest.approx(p.hbar**2 / (2 * p.m), rel=1e-12)


def test_true_squared_diagonal():
    basis = FockBasis(10)
    p = ParameterPoint(hbar=1.1, m=0.6, omega=1.8)
    _quartic, _linear, squared = _sector_diagonals(basis, p)
    scale = p.hbar**2 / (8 * p.m)
    for state, on, value in zip(basis.labels.tolist(), basis.interior(4), np.diag(squared)):
        if on:
            n_plus, n_minus = state
            s = n_plus + n_minus
            expected = scale * (2 * n_plus * n_minus + (s + 1) * (s + 2) - 4)
            assert value.real == pytest.approx(expected, rel=1e-12)


def test_vacuum_quartic_matches_gaussian_moments():
    # <0,0| q2^2 q1^2 |0,0> factorizes over independent vacuum Gaussians.
    basis = FockBasis(8)
    p = ParameterPoint(hbar=1.4, m=2.2, omega=0.75)
    q1, q2, _pi1, _pi2 = scaled_phase_space(basis, p)
    got = (q2 @ q2 @ q1 @ q1)[0, 0]
    variance = p.hbar / (2 * p.m * p.omega)
    assert got.real == pytest.approx(variance**2, rel=1e-12)


# -- reference-identity reports ------------------------------------------------------


def default_plan(cutoff: int, policy=DEFAULT_POLICY) -> Plan:
    """The plan spectrum solves: the built Hamiltonian over FockBasis(cutoff)."""
    return compile_plan(build_hamiltonian(policy), FockBasis(cutoff))


def test_diagonal_check_detects_the_reference_mismatch():
    """The bundled closed forms disagree with the exact diagonals.

    The linear identity holds; the quartic and squared ones are off by a
    grade-dependent amount (the exact diagonals are quadratic in the grade,
    the reference forms linear), so the report must fail them honestly.
    """
    report = diagonal_check(default_plan(12), ParameterPoint())
    by_name = {row["identity"]: row for row in report["identities"]}
    assert by_name["diag(-(i hbar/m) q2 pi2)"]["pass"]
    assert not by_name["diag(m omega^2 q2^2 q1^2)"]["pass"]
    assert not by_name["diag((1/m) q2^2 pi2^2)"]["pass"]
    assert not by_name["diag sum vs closed-form level shift"]["pass"]
    # vacuum mismatch is exactly (3/8 - 2/8) / (3/8) = 1/3 for the quartic;
    # the worst interior state is grade-dependent and larger
    assert by_name["diag(m omega^2 q2^2 q1^2)"]["max_rel_err"] > 0.3


def test_diagonal_check_matches_the_hand_built_products():
    # The report reads the plan's pure-tau terms; the oracle multiplies the
    # scaled phase-space matrices by hand.  Where the bundled closed forms
    # fail, both measure the same errors.  States that tie in exact
    # arithmetic ((6, 0) and (0, 6)) may split by roundoff, so the reported
    # worst state is checked by the oracle's error there.
    basis = FockBasis(10)
    p = ParameterPoint(hbar=1.7, m=2.3, omega=0.9)
    quartic, linear, squared = (np.diag(m) for m in _sector_diagonals(basis, p))
    keep = basis.interior(4)
    n_plus, n_minus = basis.labels.T
    scale = p.hbar**2 / (4 * p.m)
    oracle = {
        "diag(m omega^2 q2^2 q1^2)": (
            quartic, scale * (2 * n_plus * n_minus + n_plus + n_minus + 1.5)),
        "diag((1/m) q2^2 pi2^2)": (
            squared, scale * (2 * n_plus * n_minus + n_plus + n_minus + 0.5)),
        "diag sum vs closed-form level shift": (
            quartic + linear + squared,
            p.hbar**2 / (2 * p.m) * (2 * n_plus * n_minus + n_plus + n_minus + 2)),
    }
    plan = compile_plan(build_hamiltonian(), basis)
    failing = [row for row in diagonal_check(plan, p)["identities"] if not row["pass"]]
    assert [row["identity"] for row in failing] == list(oracle)
    for row in failing:
        diag, expected = oracle[row["identity"]]
        errors = np.where(keep, abs(diag - expected) / expected, 0.0)
        assert row["max_rel_err"] == pytest.approx(errors.max(), rel=1e-12)
        # Python ints, so verify prints the state as (n+, n-).
        assert [type(n) for n in row["worst_state"]] == [int, int]
        at_worst = errors[basis.position(*row["worst_state"])]
        assert at_worst == pytest.approx(errors.max(), rel=1e-12)


@pytest.mark.parametrize("policy", [FIRST_ORDER_CROSS_POLICY, TruncationPolicy.of()],
                         ids=["cross", "untruncated"])
def test_diagonal_check_reads_the_same_tau_terms_under_every_deforming_policy(policy):
    # The plan exponents keep theta, eta and tau unscaled, so the pure-tau
    # terms are the same three under every policy that keeps them, and the
    # cross and second-order terms belong to no piece.
    p = ParameterPoint(hbar=1.3, m=0.7, theta=0.02, eta=0.03, tau=0.005)
    assert diagonal_check(default_plan(10, policy), p) == diagonal_check(default_plan(10), p)


def test_verify_then_spectrum_compile_the_letters_once(monkeypatch, capsys):
    # verify measures the plan spectrum solves, taken from the CLI's last
    # plan: in one process a spectrum at the same cutoff compiles nothing.
    ncphase.cli._plan.cache_clear()
    build, calls = ncphase.fock._letters, []

    def counting(basis):
        calls.append(basis.cutoff)
        return build(basis)

    monkeypatch.setattr(ncphase.fock, "_letters", counting)
    assert main(["verify", "--cutoff", "6"]) == EXIT_VERIFY_FAILED
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert sum(c["suite"] == "diagonal-identities" for c in checks) == 4
    assert main(["spectrum", "--cutoff", "6", "--tau", "0.005"]) == EXIT_OK
    assert capsys.readouterr().out
    assert calls == [6]


def test_commuting_check_report():
    point = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    report = commuting_check(default_plan(12), point)
    by_pair = {row["pair"]: row for row in report["pairs"]}
    core_angular = by_pair["[h_core, h_theta_eta]"]
    assert core_angular["pass"] and core_angular["relative_norm"] <= 1e-10
    tau_angular = by_pair["[h_tau, h_theta_eta]"]
    assert tau_angular["pass"] is False
    assert tau_angular["relative_norm"] > 1e-3  # genuinely nonzero
    core_tau = by_pair["[h_core, h_tau]"]
    assert core_tau["pass"] is None
    assert core_tau["relative_norm"] > 1e-3


def test_commuting_check_reports_the_discrepancy_where_the_pieces_vanish():
    # At theta = eta = tau = 0 the deformed pieces vanish at the point, but
    # the check divides their prefactors out: the tau/angular pair still
    # fails, with the relative norm measured by hand, on the hand-written
    # pieces, at the acceptance point, where no piece vanishes.
    basis = FockBasis(12)
    acceptance = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    keep = np.ix_(*[basis.interior(6)] * 2)
    a, b = (evaluate(compile_plan(piece(), basis), acceptance) for piece in (h_tau, h_theta_eta))
    want = np.linalg.norm((a @ b - b @ a)[keep]) / (np.linalg.norm(a[keep]) * np.linalg.norm(b[keep]))
    plan = compile_plan(build_hamiltonian(), basis)
    for point in (ParameterPoint(), ParameterPoint(theta=0.02, eta=0.03)):
        by_pair = {row["pair"]: row for row in commuting_check(plan, point)["pairs"]}
        tau_angular = by_pair["[h_tau, h_theta_eta]"]
        assert tau_angular["pass"] is False
        assert tau_angular["relative_norm"] == pytest.approx(want, rel=1e-12)
        assert by_pair["[h_core, h_tau]"]["relative_norm"] > 1e-3


def test_diagonal_check_needs_a_nonempty_interior():
    # Below cutoff 4 no state lies within the margin of the degree-4 words.
    with pytest.raises(ValueError, match="interior margin 4"):
        diagonal_check(default_plan(3), ParameterPoint())
    assert len(diagonal_check(default_plan(4), ParameterPoint())["identities"]) == 4


def test_the_reports_need_the_pieces_they_measure():
    # The undeformed policy keeps no pure-tau or angular term: each report
    # says so in one line instead of measuring an empty piece.
    plan = default_plan(6, UNDEFORMED_POLICY)
    with pytest.raises(ValueError) as diagonal:
        diagonal_check(plan, ParameterPoint())
    assert str(diagonal.value) == "the plan has 0 pure-tau terms, not the 3 of h_tau"
    with pytest.raises(ValueError) as commuting:
        commuting_check(plan, ParameterPoint())
    assert str(commuting.value) == "the plan has no h_theta_eta term"


def _reweighted(piece: str, word: tuple, factor: Fraction) -> Plan:
    """The N=12 default plan with one term's coefficient times ``factor``:
    the term of ``word`` in ``piece``."""
    h = build_hamiltonian()
    terms = dict(h.terms)
    (key,) = [key for key in terms if key[0] == word and piece_of(key[1]) == piece]
    terms[key] = terms[key] * factor
    return compile_plan(Expression(h.alphabet, terms), FockBasis(12))


def test_diagonal_tolerance_rejects_a_relative_error_of_1e_7():
    # The q2 pi2 coefficient off by 1e-7 gives a linear diagonal of
    # 0.50000005 where 1/2 is exact: its row must fail at 1e-10.
    plan = _reweighted("h_tau", ("q2", "pi2"), Fraction(10**7 + 1, 10**7))
    rows = {row["identity"]: row for row in diagonal_check(plan, ParameterPoint())["identities"]}
    linear = rows["diag(-(i hbar/m) q2 pi2)"]
    assert linear["max_rel_err"] == pytest.approx(1e-7, rel=1e-6)
    assert linear["pass"] is False


def test_commuting_tolerance_rejects_a_relative_norm_of_1e_7():
    # A q1^2 weight off by 1e-5 breaks the core's rotation symmetry: the
    # core/angular commutator's relative norm is 1.42e-7, which must fail
    # at 1e-8.
    plan = _reweighted("h_core", ("q1", "q1"), Fraction(10**5 + 1, 10**5))
    rows = {row["pair"]: row for row in commuting_check(plan, ParameterPoint())["pairs"]}
    core_angular = rows["[h_core, h_theta_eta]"]
    assert core_angular["relative_norm"] == pytest.approx(1.42e-7, rel=1e-2)
    assert core_angular["pass"] is False


def test_tau_terms_keep_their_scale_at_a_large_mass():
    # Each tau term's scale is the one monomial tau hbar^2/m, so at m = 1e200
    # no term underflows to 0: the failing rows read as at unit scales.
    plan = default_plan(8)
    unit, heavy = ParameterPoint(tau=0.005), ParameterPoint(m=1e200, tau=0.005)
    rows = [[row for row in diagonal_check(plan, p)["identities"] if not row["pass"]]
            for p in (unit, heavy)]
    assert [row["identity"] for row in rows[0]] == [row["identity"] for row in rows[1]]
    assert len(rows[0]) == 3
    for at_unit, at_heavy in zip(*rows):
        assert at_heavy["max_rel_err"] == pytest.approx(at_unit["max_rel_err"], rel=1e-12)
        assert at_heavy["worst_state"] == at_unit["worst_state"]
    tau_terms = [term for term in plan.terms if piece_of(term[1]) == "h_tau"]
    assert len(tau_terms) == 3
    for term in tau_terms:
        one = Plan(plan.basis, (term,))
        scale = heavy.tau * heavy.hbar**2 / heavy.m
        got, want = evaluate(one, heavy), scale * evaluate(one, ParameterPoint(tau=1.0))
        assert got.any()
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_evaluate_commutes_with_normal_ordering():
    # Dual route: reordering words symbolically must not change the matrix
    # realization on the interior block (the matrices satisfy the algebra
    # exactly there).
    import random

    from ncphase.algebra import CANONICAL, Expression, normal_order, powers_of
    from ncphase.rationals import GaussianRational

    rng = random.Random(21)
    basis = FockBasis(10)
    p = ParameterPoint(hbar=1.2, m=0.9, omega=1.4, theta=0.3, eta=0.2, tau=0.5)
    names = ("q1", "q2", "pi1", "pi2")
    for _ in range(8):
        terms = {}
        max_len = 0
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(names) for _ in range(rng.randint(1, 4)))
            max_len = max(max_len, len(word))
            coef = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            if not coef.is_zero():
                terms[(word, powers_of(theta=rng.randint(0, 1)))] = coef
        if not terms:
            continue
        e = Expression("canonical", terms)
        raw = evaluate(compile_plan(e, basis), p)
        ordered = evaluate(compile_plan(normal_order(e, CANONICAL), basis), p)
        keep = basis.interior(max_len)
        assert np.allclose(
            raw[np.ix_(keep, keep)], ordered[np.ix_(keep, keep)], atol=1e-10
        )


def test_commutator_facts_hold_symbolically_too():
    # Exact statements behind the numeric report: the core commutes with the
    # angular coupling, the tau piece does not.
    hc = normal_order(h_core(), CANONICAL)
    hth = normal_order(h_theta_eta(), CANONICAL)
    ht = normal_order(h_tau(), CANONICAL)
    assert commutator(hc, hth, CANONICAL).is_zero()
    assert not commutator(ht, hth, CANONICAL).is_zero()
    assert not commutator(hc, ht, CANONICAL).is_zero()
