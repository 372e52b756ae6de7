"""Ladder matrices, evaluation, spectra, classification and the
reference-identity reports.

The closed forms asserted under "exact diagonals" were obtained from an
independent matrix oracle (explicit ladder products, cross-checked against
Gaussian vacuum moments) and are frozen here; they are what the truncated
realization actually produces on interior states.
"""

import dataclasses
import inspect
import math
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
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
    commutator,
    normal_order,
)
from ncphase.fock import (
    EigenPair,
    FockBasis,
    NumericError,
    ParameterPoint,
    analytic_energy,
    build_ladder,
    build_phase_space,
    classify,
    commuting_check,
    compile_plan,
    diagonal_check,
    diagonalize,
    evaluate,
    level_table_csv,
    level_table_json,
    spectra,
    spectrum,
)
from ncphase.hamiltonian import build_hamiltonian, h_core, h_tau, h_theta_eta
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
    assert basis.states == [
        (0, 0),
        (0, 1), (1, 0),
        (0, 2), (1, 1), (2, 0),
        (0, 3), (1, 2), (2, 1), (3, 0),
    ]
    assert basis.dimension == 10


@pytest.mark.parametrize("cutoff", [1, 4, 9])
def test_basis_dimension_formula(cutoff):
    assert FockBasis(cutoff).dimension == (cutoff + 1) * (cutoff + 2) // 2


def test_basis_cutoff_validation():
    with pytest.raises(ValueError):
        FockBasis(0)


# -- ladders ---------------------------------------------------------------------


def test_ladder_matrix_elements():
    basis = FockBasis(6)
    a_plus, a_minus, a_plus_dag, a_minus_dag = (m.toarray() for m in build_ladder(basis))
    assert a_plus[basis.index[(0, 0)], basis.index[(1, 0)]] == pytest.approx(1.0)
    assert a_plus_dag[basis.index[(2, 1)], basis.index[(1, 1)]] == pytest.approx(
        math.sqrt(2)
    )
    # vacuum annihilation: the (0, n-) columns of A+ vanish
    for n_minus in range(5):
        col = a_plus[:, basis.index[(0, n_minus)]]
        assert np.all(col == 0)


def test_daggers_are_conjugate_transposes():
    basis = FockBasis(5)
    a_plus, a_minus, a_plus_dag, a_minus_dag = (m.toarray() for m in build_ladder(basis))
    assert np.array_equal(a_plus_dag, a_plus.conj().T)
    assert np.array_equal(a_minus_dag, a_minus.conj().T)
    assert np.allclose(a_plus @ a_minus, a_minus @ a_plus)


def test_canonical_commutators_on_interior():
    basis = FockBasis(8)
    p = ParameterPoint(hbar=1.7, m=0.8, omega=1.3)
    q1, q2, pi1, pi2 = (m.toarray() for m in build_phase_space(basis, p))
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
    q1, _q2, _pi1, _pi2 = (m.toarray() for m in build_phase_space(basis, p))
    got = (q1 @ q1)[0, 0]
    assert got == pytest.approx(p.hbar / (2 * p.m * p.omega), rel=1e-12)


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_core_hamiltonian_diagonal():
    basis = FockBasis(9)
    p = ParameterPoint(hbar=1.3, m=2.0, omega=0.7)
    h = evaluate(compile_plan(h_core(), basis), p)
    keep = basis.interior(2)
    diag = np.real(np.diag(h))
    for state, on, value in zip(basis.states, keep, diag):
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
    for state, on, value in zip(basis.states, keep, np.diag(got)):
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
        i for i, s in enumerate(small.states) if s[0] + s[1] <= small.cutoff - degree
    ]
    keep_large = [large.index[small.states[i]] for i in keep_small]
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


# -- diagonalization ----------------------------------------------------------------


def test_diagonalize_core_spectrum():
    basis = FockBasis(6)
    p = ParameterPoint()
    h = evaluate(compile_plan(h_core(), basis), p)
    pairs = diagonalize(h)
    # the matrix is diagonal; interior labels carry the exact ladder values
    table = classify(pairs, basis, p)
    for row in table.rows:
        grade = row.n_plus + row.n_minus
        if grade <= basis.cutoff - 2:
            assert row.e_numeric.real == pytest.approx(grade + 1, abs=1e-10)
            assert row.overlap == pytest.approx(1.0)
    assert all(pair.residual <= 1e-8 * np.linalg.norm(h) for pair in pairs)


def test_diagonalize_sorts_by_real_part():
    basis = FockBasis(5)
    pairs = diagonalize(evaluate(compile_plan(h_core(), basis), ParameterPoint()))
    reals = [pair.value.real for pair in pairs]
    assert reals == sorted(reals)


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


@pytest.mark.parametrize("sizes", [(7, 1, 12, 5), (20,)], ids=["blocks", "coupled"])
@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
def test_diagonalize_matches_whole_matrix_eig(sizes, complex_entries):
    # The block-wise solve must reproduce the eigenvalues of one eig call on
    # the whole matrix, and its embedded vectors must be eigenvectors of the
    # whole matrix.  A real matrix (zero imaginary part) takes the real
    # LAPACK path, a complex one the complex path.
    rng = np.random.default_rng(len(sizes) + 2 * complex_entries)
    h = _permuted_blocks(rng, sizes, complex_entries)
    pairs = diagonalize(h)
    got = np.array([pair.value for pair in pairs])
    expected = scipy.linalg.eig(h, right=False)
    distance = np.abs(got[:, None] - expected[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(distance)
    assert len(got) == len(expected) == h.shape[0]
    assert distance[rows, cols].max() <= 1e-10
    for pair in pairs:
        assert pair.vector.shape == (h.shape[0],)
        residual = np.linalg.norm(h @ pair.vector - pair.value * pair.vector)
        assert residual <= 1e-10 * np.linalg.norm(h)


def _scipy_block_pairs(h):
    """The oracle: one scipy.linalg.eig call per connected block, one after
    the other, each eigenvector embedded at full length."""
    d = h.shape[0]
    everywhere = np.arange(d)
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
        pairs.extend(
            EigenPair(complex(value), vector, everywhere, d, float(residual))
            for value, vector, residual in zip(values, embedded, residuals)
        )
    pairs.sort(key=lambda pair: (pair.value.real, pair.value.imag))
    return pairs


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
    got, expected = diagonalize(h), _scipy_block_pairs(h)
    tolerance = 1e-12 * np.linalg.norm(h)
    distance = np.abs(
        np.array([p.value for p in got])[:, None] - np.array([p.value for p in expected])[None, :]
    )
    rows, cols = scipy.optimize.linear_sum_assignment(distance)
    assert len(got) == len(expected) == h.shape[0]
    assert distance[rows, cols].max() <= tolerance
    # The oracle's pairs carry full-length vectors, so this also checks that
    # classify maps a block-local argmax back to the same basis label.
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
        again = diagonalize(h)
        assert np.array_equal([p.value for p in again], [p.value for p in first])
        assert np.array_equal([p.vector for p in again], [p.vector for p in first])
        assert np.array_equal([p.residual for p in again], [p.residual for p in first])


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
    assert all(pair.residual == 0 for pair in diagonalize(h[:7, :7]))
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
    assert np.array_equal([p.value for p in got], [p.value for p in expected])


def test_diagonalize_empty_matrix():
    assert diagonalize(np.zeros((0, 0))) == []


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
    for k, pairs in enumerate(results):
        expected = serial[k // 5]
        assert np.array_equal([p.value for p in pairs], [p.value for p in expected])
        assert np.array_equal([p.vector for p in pairs], [p.vector for p in expected])


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
    """The eigenpairs of each classify call, in call order."""
    calls = []
    original = ncphase.fock.classify

    def recording(pairs, basis, p):
        calls.append(pairs)
        return original(pairs, basis, p)

    monkeypatch.setattr(ncphase.fock, "classify", recording)
    return calls


def _point_by_point(points, plan):
    """spectrum at each point: its table, or the error it raised."""
    outcomes = []
    for p in points:
        try:
            outcomes.append(spectrum(p, plan))
        except (NumericError, ValueError, ArithmeticError) as exc:
            outcomes.append(exc)
    return outcomes


def _assert_same_pairs(got, expected):
    assert len(got) == len(expected)
    for pair, reference in zip(got, expected):
        assert repr((pair.value, pair.residual)) == repr((reference.value, reference.residual))
        assert pair.vector.tobytes() == reference.vector.tobytes()


def _assert_same_outcomes(got, expected):
    assert len(got) == len(expected)
    for outcome, reference in zip(got, expected):
        if isinstance(reference, Exception):
            assert (type(outcome), str(outcome)) == (type(reference), str(reference))
            continue
        assert isinstance(outcome, ncphase.fock.LevelTable)
        assert [repr(dataclasses.astuple(row)) for row in outcome.rows] == [
            repr(dataclasses.astuple(row)) for row in reference.rows]
        _assert_same_pairs(outcome.unclassified, reference.unclassified)


@pytest.mark.parametrize("case", ["tau-from-zero-12", "undeformed-theta-8", "cross-10"])
def test_spectra_gives_spectrum_bits(case, classified):
    # Every eigenpair, full vector and level row of each point is spectrum's.
    plan, points = _sweep_case(case)
    expected = _point_by_point(points, plan)
    expected_pairs = classified[:]
    classified.clear()
    got = list(spectra(points, plan))
    assert not any(isinstance(outcome, Exception) for outcome in expected)
    _assert_same_outcomes(got, expected)
    assert len(classified) == len(expected_pairs) == len(points)
    for pairs, reference in zip(classified, expected_pairs):
        _assert_same_pairs(pairs, reference)


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


def test_spectra_flushes_at_the_byte_budget(monkeypatch):
    # With a budget of one byte every point is solved alone, one group and
    # one pool job per point, and gives the same tables.
    plan, points = _sweep_case("theta-8")
    expected = _point_by_point(points, plan)
    monkeypatch.setattr(ncphase.fock, "STACK_BYTES", 1)
    counting = _CountingExecutor(ncphase.fock._pool())
    monkeypatch.setattr(ncphase.fock, "_pool", lambda: counting)
    _assert_same_outcomes(list(spectra(points, plan)), expected)
    assert counting.submitted == len(points)


def test_spectra_residual_failure_stays_with_its_point(monkeypatch):
    # A bound between the points' relative residuals fails some matrices of
    # a stack; those points fail with spectrum's error and the others keep
    # their tables.  An overflowing point fails at evaluation, in order.
    plan, points = _sweep_case("theta-8")
    points.insert(2, ParameterPoint(theta=1e300))
    ratios = []
    for p in points[:2] + points[3:]:
        h = evaluate(plan, p)
        ratios.append(max(pair.residual for pair in diagonalize(h)) / np.linalg.norm(h))
    low, high = sorted(set(ratios))[2:4]
    monkeypatch.setattr(ncphase.fock, "RESIDUAL_FACTOR", math.sqrt(low * high))
    expected = _point_by_point(points, plan)
    failed = [str(outcome) for outcome in expected if isinstance(outcome, Exception)]
    assert failed.count("matrix norm overflows at this parameter point") == 1
    residual_failures = sum(text.startswith("eigenpair residual") for text in failed)
    assert residual_failures == sum(ratio >= high for ratio in ratios) >= 2
    _assert_same_outcomes(list(spectra(points, plan)), expected)


def test_spectra_resolves_a_failed_stack_matrix_by_matrix(monkeypatch):
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
    solved_shapes.clear()
    _assert_same_outcomes(list(spectra(points, plan)), expected)
    # Two stacks of 6, then each of the two failed stacks one matrix at a time.
    assert sorted(shape[0] for shape in solved_shapes) == [1] * 12 + [6, 6]


def test_spectra_reuses_the_supports_of_an_unchanged_pattern(monkeypatch):
    # The sweep from tau = 0 has three patterns: 42 blocks at tau = 0, the
    # two parity blocks after it, and at tau = 0.01 the same blocks with two
    # entries that cancel to exactly 0.  Only a changed pattern is split into
    # its connected components again; the point by point solve splits each.
    plan, points = _sweep_case("tau-from-zero-12")
    assert [int(np.count_nonzero(evaluate(plan, p))) for p in points] == [
        207, 1445, 1445, 1445, 1445, 1443]
    points = [*points, points[0], points[0], points[1]]
    expected = _point_by_point(points, plan)
    calls = []
    connected_components = scipy.sparse.csgraph.connected_components

    def counting(*args, **kwargs):
        calls.append(args)
        return connected_components(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", counting)
    got = list(spectra(points[:6], plan))
    assert len(calls) == 3
    _assert_same_outcomes(got, expected[:6])
    calls.clear()
    _assert_same_outcomes(list(spectra(points, plan)), expected)
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


def _classify_pair_by_pair(pairs, basis, p):
    """The oracle: each eigenpair's weights |v_i|^2, argmax and overlap taken
    on its own vector, then the greedy claim of ``classify``."""
    claims = []
    for pair in pairs:
        weights = np.abs(pair.local) ** 2
        best = int(np.argmax(weights))
        claims.append((float(weights[best]), int(pair.support[best]), pair))
    claims.sort(key=lambda item: -item[0])
    taken, rows, unclassified = set(), [], []
    for overlap, best, pair in claims:
        if overlap < ncphase.fock.OVERLAP_FLOOR or best in taken:
            unclassified.append(pair)
            continue
        taken.add(best)
        n_plus, n_minus = basis.states[best]
        rows.append(ncphase.fock.LevelRow(n_plus, n_minus, analytic_energy(n_plus, n_minus, p),
                                          pair.value, pair.residual, overlap))
    rows.sort(key=lambda row: (row.n_plus + row.n_minus, row.n_plus))
    return ncphase.fock.LevelTable(rows, unclassified)


def _assert_classified_as_pair_by_pair(pairs, basis, p):
    expected = _classify_pair_by_pair(pairs, basis, p)
    # Pairs built elsewhere carry no precomputed claim, so they take the
    # per-pair path of classify; a solver's pairs take their block's.
    for given in (pairs, [dataclasses.replace(pair, _claim=None) for pair in pairs]):
        table = classify(given, basis, p)
        assert repr(table.rows) == repr(expected.rows)
        # Pairs compare by identity: their vectors are arrays.
        position = {id(pair): k for k, pair in enumerate(given)}
        reference = {id(pair): k for k, pair in enumerate(pairs)}
        assert [position[id(pair)] for pair in table.unclassified] == [
            reference[id(pair)] for pair in expected.unclassified]


@pytest.mark.parametrize("case", ["tau-from-zero-12", "undeformed-theta-8", "cross-10"])
def test_classify_of_a_sweep_matches_the_pair_by_pair_oracle(case, classified):
    plan, points = _sweep_case(case)
    list(spectra(points, plan))
    assert len(classified) == len(points)
    for pairs, p in zip(classified, points):
        _assert_classified_as_pair_by_pair(pairs, plan.basis, p)


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
    pairs = diagonalize(h)
    _assert_classified_as_pair_by_pair(pairs, basis, ACCEPTANCE_POINT)
    # The scipy oracle's pairs carry full-length vectors.
    _assert_classified_as_pair_by_pair(_scipy_block_pairs(h), basis, ACCEPTANCE_POINT)


def test_classify_breaks_ties_as_the_pair_by_pair_oracle():
    # Within a pair, two labels share the largest weight and the lower one
    # wins; across pairs, two share the largest overlap and the earlier pair
    # claims the label.
    basis = FockBasis(4)
    support = np.array([2, 4, 7])
    pairs = [
        EigenPair(1.0 + 0j, np.array([0.6, 0.8, 0.0]), support, basis.dimension, 0.0),
        EigenPair(2.0 + 0j, np.array([0.8, 0.8, 0.1]), support, basis.dimension, 0.0),
        EigenPair(3.0 + 0j, np.array([0.0, 0.8, 0.6]), support, basis.dimension, 0.0),
        EigenPair(4.0 + 0j, np.array([0.1j, 0.0, 0.9]), support, basis.dimension, 0.0),
    ]
    _assert_classified_as_pair_by_pair(pairs, basis, ACCEPTANCE_POINT)
    table = classify(pairs, basis, ACCEPTANCE_POINT)
    assert [(basis.index[(row.n_plus, row.n_minus)], row.e_numeric) for row in table.rows] == [
        (2, 2.0), (4, 1.0), (7, 4.0)]
    assert [pair is pairs[2] for pair in table.unclassified] == [True]


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
    records = level_table_json(table)
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
    q1, q2, pi1, pi2 = (m.toarray() for m in build_phase_space(basis, p))
    quartic = p.m * p.omega**2 * (q2 @ q2 @ q1 @ q1)
    linear = -(1j * p.hbar / p.m) * (q2 @ pi2)
    squared = (1 / p.m) * (q2 @ q2 @ pi2 @ pi2)
    return quartic, linear, squared


def test_true_quartic_diagonal():
    basis = FockBasis(10)
    p = ParameterPoint(hbar=1.7, m=2.3, omega=0.9)
    quartic, _linear, _squared = _sector_diagonals(basis, p)
    scale = p.hbar**2 / (8 * p.m)
    for state, on, value in zip(basis.states, basis.interior(4), np.diag(quartic)):
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
    for _state, on, value in zip(basis.states, basis.interior(2), np.diag(linear)):
        if on:
            assert value.real == pytest.approx(p.hbar**2 / (2 * p.m), rel=1e-12)


def test_true_squared_diagonal():
    basis = FockBasis(10)
    p = ParameterPoint(hbar=1.1, m=0.6, omega=1.8)
    _quartic, _linear, squared = _sector_diagonals(basis, p)
    scale = p.hbar**2 / (8 * p.m)
    for state, on, value in zip(basis.states, basis.interior(4), np.diag(squared)):
        if on:
            n_plus, n_minus = state
            s = n_plus + n_minus
            expected = scale * (2 * n_plus * n_minus + (s + 1) * (s + 2) - 4)
            assert value.real == pytest.approx(expected, rel=1e-12)


def test_vacuum_quartic_matches_gaussian_moments():
    # <0,0| q2^2 q1^2 |0,0> factorizes over independent vacuum Gaussians.
    basis = FockBasis(8)
    p = ParameterPoint(hbar=1.4, m=2.2, omega=0.75)
    q1, q2, _pi1, _pi2 = (m.toarray() for m in build_phase_space(basis, p))
    got = (q2 @ q2 @ q1 @ q1)[0, 0]
    variance = p.hbar / (2 * p.m * p.omega)
    assert got.real == pytest.approx(variance**2, rel=1e-12)


# -- reference-identity reports ------------------------------------------------------


def test_diagonal_check_detects_the_reference_mismatch():
    """The bundled closed forms disagree with the exact diagonals.

    The linear identity holds; the quartic and squared ones are off by a
    grade-dependent amount (the exact diagonals are quadratic in the grade,
    the reference forms linear), so the report must fail them honestly.
    """
    report = diagonal_check(FockBasis(12), ParameterPoint())
    by_name = {row["identity"]: row for row in report["identities"]}
    assert by_name["diag(-(i hbar/m) q2 pi2)"]["pass"]
    assert not by_name["diag(m omega^2 q2^2 q1^2)"]["pass"]
    assert not by_name["diag((1/m) q2^2 pi2^2)"]["pass"]
    assert not by_name["diag sum vs closed-form level shift"]["pass"]
    # vacuum mismatch is exactly (3/8 - 2/8) / (3/8) = 1/3 for the quartic;
    # the worst interior state is grade-dependent and larger
    assert by_name["diag(m omega^2 q2^2 q1^2)"]["max_rel_err"] > 0.3


def test_commuting_check_report():
    # Needs nonzero deformations: at theta = eta = tau = 0 the deformed
    # pieces evaluate to zero matrices and every commutator is trivially 0.
    point = ParameterPoint(theta=0.02, eta=0.03, tau=0.005)
    report = commuting_check(FockBasis(12), point)
    by_pair = {row["pair"]: row for row in report["pairs"]}
    core_angular = by_pair["[h_core, h_theta_eta]"]
    assert core_angular["pass"] and core_angular["relative_norm"] <= 1e-10
    tau_angular = by_pair["[h_tau, h_theta_eta]"]
    assert tau_angular["pass"] is False
    assert tau_angular["relative_norm"] > 1e-3  # genuinely nonzero
    core_tau = by_pair["[h_core, h_tau]"]
    assert core_tau["pass"] is None
    assert core_tau["relative_norm"] > 1e-3


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
