"""Truncated two-mode Fock-space realization and spectra.

The basis is the helicity basis |n+, n-> with graded cutoff n+ + n- <= N,
enumerated in graded lexicographic order (by grade, then by n+); that
enumeration order is part of the wire format.  Dimension is
(N+1)(N+2)/2.

Truncation locality: a polynomial of total degree d in (q, pi) has exact
matrix elements between states with n+ + n- <= N - d, because no
intermediate state of the word product can cross the cutoff.  All interior
assertions rely on that margin.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .algebra import PARAMS, POSITION_GENERATORS, Expression, MixedAlphabetError
from .hamiltonian import h_core, h_tau, h_theta_eta


class NumericError(RuntimeError):
    """Numeric-layer failure (eigensolver breakdown, bad residuals)."""


@dataclass(frozen=True)
class ParameterPoint:
    """Numeric values of the physical parameters.

    All six must be finite and hbar, m, omega positive; the deformation
    parameters theta, eta, tau are meant to be small.  The fields follow
    the parameter order of ``algebra.PARAMS``.
    """

    hbar: float = 1.0
    m: float = 1.0
    omega: float = 1.0
    theta: float = 0.0
    eta: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        for name, value in self.values().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        for name in ("hbar", "m", "omega"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def values(self) -> dict:
        return {name: getattr(self, name) for name in PARAMS}


class FockBasis:
    """All |n+, n-> with n+ + n- <= cutoff, in graded-lex order."""

    def __init__(self, cutoff: int):
        if cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        self.cutoff = cutoff
        self.states = [
            (n_plus, grade - n_plus)
            for grade in range(cutoff + 1)
            for n_plus in range(grade + 1)
        ]
        self.index = {state: k for k, state in enumerate(self.states)}
        self.grades = np.array([a + b for a, b in self.states])

    @property
    def dimension(self) -> int:
        return len(self.states)

    def interior(self, margin: int) -> np.ndarray:
        """Boolean mask of states with grade <= cutoff - margin."""
        return self.grades <= self.cutoff - margin


def build_ladder(basis: FockBasis):
    """The four helicity ladder matrices (A+, A-, A+dag, A-dag), sparse CSR.

    A+|n+, n-> = sqrt(n+) |n+-1, n->  and its three partners; the daggered
    matrices are exactly the conjugate transposes of the undaggered ones.
    """
    d = basis.dimension

    def lowering(axis: int) -> scipy.sparse.csr_matrix:
        rows, cols, values = [], [], []
        for state, col in basis.index.items():
            if state[axis] >= 1:
                lowered = list(state)
                lowered[axis] -= 1
                rows.append(basis.index[tuple(lowered)])
                cols.append(col)
                values.append(math.sqrt(state[axis]))
        return scipy.sparse.csr_matrix(
            (np.array(values, dtype=complex), (rows, cols)), shape=(d, d)
        )

    a_plus, a_minus = lowering(0), lowering(1)
    return a_plus, a_minus, a_plus.conj().T.tocsr(), a_minus.conj().T.tocsr()


def phase_space_scales(p: ParameterPoint) -> tuple:
    """(l_q, l_p) = (sqrt(hbar/(m omega)), sqrt(hbar m omega)): each q_i is l_q
    times its matrix at unit scales and each pi_i is l_p times its own."""
    return math.sqrt(p.hbar / (p.m * p.omega)), math.sqrt(p.hbar * p.m * p.omega)


def build_phase_space(basis: FockBasis, p: ParameterPoint):
    """Canonical phase-space matrices (q1, q2, pi1, pi2) over the basis, sparse:
    the matrices at hbar = m = omega = 1 times ``phase_space_scales(p)``."""
    a_plus, a_minus, a_plus_dag, a_minus_dag = build_ladder(basis)
    ell_q, ell_p = phase_space_scales(p)
    return (
        ell_q * (0.5 * (a_plus + a_minus + a_plus_dag + a_minus_dag)),
        ell_q * ((1 / 2j) * (a_plus - a_minus - a_plus_dag + a_minus_dag)),
        ell_p * ((1 / 2j) * (a_plus + a_minus - a_plus_dag - a_minus_dag)),
        ell_p * (-0.5 * (a_plus - a_minus + a_plus_dag - a_minus_dag)),
    )


@dataclass(frozen=True, eq=False)
class Plan:
    """An Expression compiled over a basis.

    ``terms`` holds, in ``Expression.sorted_terms`` order, one tuple per
    term: its coefficient as a complex number, its parameter exponent vector
    (in ``PARAMS`` order), its numbers of q and pi letters, and its real
    word matrix at unit scales (sparse COO, float64).  A word's factor of i
    sits in the coefficient (``compile_plan``).  The word matrices depend
    only on the basis, so one plan serves every parameter point:
    ``evaluate(plan, p)`` only evaluates and scales the coefficients and sums.
    """

    basis: FockBasis
    terms: tuple


def compile_plan(e: Expression, basis: FockBasis) -> Plan:
    """Compile a canonical-alphabet Expression over ``basis``.

    Each word becomes the chain of sparse products of the unit-scale
    phase-space matrices from the left, starting at the identity; words that
    share a prefix share its product, which is formed once.  q1 and pi2 are
    real there and q2 and pi1 imaginary, so each word's product is real or
    i times a real matrix: the factor i is moved into the term's coefficient
    (exactly, as i * (a + bi) = -b + ai) and the word is kept as float64.
    Noncommutative-alphabet input is rejected: push it through the Bopp
    shift first.
    """
    if e.alphabet == "noncommutative":
        raise MixedAlphabetError(
            "cannot evaluate a noncommutative-alphabet expression; "
            "substitute through the Bopp shift first"
        )
    mats = dict(zip(("q1", "q2", "pi1", "pi2"), build_phase_space(basis, ParameterPoint())))
    products = {(): scipy.sparse.identity(basis.dimension, dtype=complex, format="csr")}
    words, terms = {}, []
    for (word, powers), coef in e.sorted_terms():
        for k in range(1, len(word) + 1):
            if word[:k] not in products:
                products[word[:k]] = products[word[: k - 1]] @ mats[word[k - 1]]
        if word not in words:
            product = products[word].tocoo(copy=False)
            real, imag = product.data.real, product.data.imag
            # i times a real matrix where the word has an odd number of q2 and pi1
            phase, part = (1j, imag) if imag.any() else (1, real)
            assert phase == 1 or not real.any(), "a word is real or imaginary"
            words[word] = phase, scipy.sparse.coo_matrix(
                (part.copy(), (product.row, product.col)), shape=product.shape
            )
        phase, matrix = words[word]
        n_q = sum(letter in POSITION_GENERATORS for letter in word)
        terms.append((complex(coef) * phase, powers, n_q, len(word) - n_q, matrix))
    return Plan(basis, tuple(terms))


def evaluate(plan: Plan, p: ParameterPoint) -> np.ndarray:
    """The dense matrix of a compiled plan at ``p``: float64 when every
    scaled coefficient is real (every policy's Hamiltonian at every point),
    else complex.

    Each coefficient is multiplied by its parameter monomial, one nonzero
    exponent at a time in ``PARAMS`` order, then by l_q once per q letter and
    by l_p once per pi letter (``phase_space_scales``), so a zero coefficient
    stays zero for any finite scales.  Terms are added in order, entry by
    entry, so the result equals the sparse sum of the complex unit-scale
    word matrices times the scaled coefficients bit for bit.  An
    overflowing entry raises NumericError.  An Expression is realized as
    ``evaluate(compile_plan(e, basis), p)``.
    """
    values = p.values()
    ell_q, ell_p = phase_space_scales(p)
    scaled = []
    for coef, powers, n_q, n_pi, _word in plan.terms:
        for pname, exp in zip(PARAMS, powers):
            if exp:
                coef *= values[pname] ** exp
        for ell in (ell_q,) * n_q + (ell_p,) * n_pi:
            coef *= ell
        scaled.append(coef)
    real = all(coef.imag == 0 for coef in scaled)
    d = plan.basis.dimension
    out = np.zeros((d, d), dtype=float if real else complex)
    # Overflowing entries are caught below, so numpy need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        for coef, (*_, word) in zip(scaled, plan.terms):
            out[word.row, word.col] += word.data * (coef.real if real else coef)
    if not np.isfinite(out).all():
        raise NumericError("matrix entries overflow at this parameter point")
    return out


def analytic_energy(n_plus: int, n_minus: int, p: ParameterPoint) -> float:
    """Closed-form level energy: oscillator + angular splitting + tau shift."""
    core = p.hbar * p.omega * (n_plus + n_minus + 1)
    angular = (
        p.hbar
        * (p.eta / (2 * p.m) + p.m * p.omega**2 * p.theta / 2)
        * (n_plus - n_minus)
    )
    # At tau = 0 the shift is absent, also where its prefactor overflows.
    shift = p.tau * _tau_level_shift(n_plus, n_minus, p) if p.tau else 0.0
    return core + angular + shift


def _tau_level_shift(n_plus: int, n_minus: int, p: ParameterPoint) -> float:
    """The closed-form first-order level shift per unit tau."""
    return (p.hbar**2 / (2 * p.m)) * (2 * n_plus * n_minus + n_plus + n_minus + 2)


@dataclass
class EigenPair:
    """One eigenpair of a matrix of order ``dimension``.

    The eigenvector is kept on its block only: ``local`` holds its entries at
    the basis indices ``support`` (ascending), and every other entry is
    exactly zero.  ``_claim`` is the (overlap, basis index) that ``classify``
    reads, taken for a whole block at once by the solver; for a pair built
    without it, ``classify`` takes it from the pair alone.
    """

    value: complex
    local: np.ndarray
    support: np.ndarray
    dimension: int
    residual: float
    _claim: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def vector(self) -> np.ndarray:
        """The eigenvector at full length."""
        vector = np.zeros(self.dimension, dtype=complex)
        vector[self.support] = self.local
        return vector


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The one thread that solves every block stack but the largest, which
    the caller solves: with its tau term the Hamiltonian matrix has exactly
    two blocks, its even-grade and odd-grade states."""
    return ThreadPoolExecutor(max_workers=1)


def _solve_block(blocks: list, bounds: Sequence[float]) -> list:
    """Eigenvalues, unit eigenvectors (columns) and residuals of each n x n
    matrix of ``blocks``, or the NumericError that matrix raises: its
    residual exceeds its entry of ``bounds`` or LAPACK did not converge.

    The matrices form one stack (k x n x n; a single one as a view) and
    ``blocks`` is emptied, so the stack is held here only: a single real
    block is freed once promoted for its residuals.  ``numpy.linalg.eig``
    solves the whole stack in one call, looping in C; it releases the GIL
    while LAPACK runs, where ``scipy.linalg.eig`` holds it.  Each matrix
    gets the bits of its own two-dimensional solve, so the normalization
    and residuals below run per matrix.  It runs on pool threads, so it
    calls no public ncphase function: the tracer in perfbench keeps a
    single span stack.
    """
    stack = blocks[0][None] if len(blocks) == 1 else np.stack(blocks)
    blocks.clear()
    try:
        values, vectors = np.linalg.eig(stack)
    except np.linalg.LinAlgError as exc:
        if len(stack) == 1:
            return [NumericError(f"eigensolver did not converge: {exc}")]
        # Re-solve one matrix at a time, so only the ones at fault fail.
        return [
            result
            for block, bound in zip(stack, bounds)
            for result in _solve_block([block], (bound,))
        ]
    real = not np.iscomplexobj(stack)
    # One view per matrix, each dropped once copied below, so the last frees
    # the stack and its outputs.
    stack, values, vectors = list(stack), list(values), list(vectors)
    solved = []
    for bound in bounds:
        block = stack.pop(0)
        block_values, block_vectors = values.pop(0), vectors.pop(0)
        # The stack's output is complex when any of its matrices has a
        # complex eigenvalue; a real matrix's own solve is real unless it has one.
        if real and not block_values.imag.any():
            block_values, block_vectors = block_values.real, block_vectors.real
        # As scipy.linalg.eig returns them: complex values and Fortran-ordered
        # vectors, so the products below round as they did with scipy.
        block_values = block_values.astype(complex)
        block_vectors = np.asfortranarray(block_vectors)
        # Promoted once, as ``@`` would promote it for each slab.
        block = block.astype(block_vectors.dtype, copy=False)
        residuals = np.empty(len(block_values))
        # The vectors are normalized in place and their residuals taken a
        # slab of columns at a time, each column with the bits of the whole
        # product, so the temporaries are n x width, not n x n (a block's
        # complex vectors take 7.3 MB at N=50).
        width = max(1, 2**15 // len(block))  # columns per 512-KiB complex slab
        for start in range(0, len(block_values), width):
            cols = slice(start, start + width)
            slab = block_vectors[:, cols]
            slab /= np.linalg.norm(slab, axis=0)
            with np.errstate(over="ignore", invalid="ignore"):
                residuals[cols] = np.linalg.norm(block @ slab - slab * block_values[cols], axis=0)
        worst = float(residuals.max())
        if not worst <= bound:  # a NaN residual fails too
            solved.append(NumericError(
                f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_FACTOR:.1e} * ||H||"
            ))
        else:
            solved.append((block_values, block_vectors, residuals))
    return solved


def _supports(pattern: np.ndarray, last: Optional[list]) -> list:
    """The basis indices of each connected block of a nonzero pattern, each
    ascending, the blocks in the order of their lowest index.

    ``last``, if given, is [packed pattern, supports] of the pattern before
    (``numpy.packbits``, an eighth of its bytes, is kept while the blocks are
    solved): the same pattern gets the same supports back, and another one
    replaces them.
    """
    packed = None if last is None else np.packbits(pattern)
    if last is not None and np.array_equal(packed, last[0]):
        return last[1]
    # csgraph would copy a dense input as float, dropping imaginary parts.
    n_blocks, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(pattern), directed=False
    )
    # A stable sort groups the indices by label, each group ascending; the
    # piece after the last group's end is empty.
    ends = np.cumsum(np.bincount(labels, minlength=n_blocks))
    supports = np.split(np.argsort(labels, kind="stable"), ends)[:-1]
    if last is not None:
        last[:] = packed, supports
    return supports


def _split(h: np.ndarray, last: Optional[list] = None) -> tuple:
    """The residual bound of ``h``, the basis indices of each of its blocks
    and each block gathered (``diagonalize`` describes them).  ``last`` is
    ``_supports``'s, for a caller that splits matrices in turn.

    A float64 matrix, or a complex one whose imaginary part is exactly zero,
    gives real blocks, at half the memory of complex ones; only in a complex
    matrix is each block's imaginary part tested.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    # An overflowing norm or residual is reported below, not by numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(h)
        bound = RESIDUAL_FACTOR * norm
    if not math.isfinite(bound):
        raise NumericError("matrix norm overflows at this parameter point")
    # Else every residual would underflow to 0 too and pass the bound.
    if norm == 0 and h.any():
        raise NumericError("matrix norm underflows at this parameter point")
    supports = _supports(h != 0, last)
    # On a float array .imag would allocate a matrix of zeros.
    real = not np.iscomplexobj(h) or not h.imag.any()
    blocks = []
    for idx in supports:
        rows = np.ix_(idx, idx)
        blocks.append(h.real[rows] if real or not h.imag[rows].any() else h[rows])
    return bound, supports, blocks


def _pairs(dimension: int, supports: list, solved: list) -> list:
    """The eigenpairs of one matrix from its blocks' solves, sorted by real
    part; the first failed block's NumericError is raised."""
    pairs = []
    for idx, result in zip(supports, solved):
        if isinstance(result, NumericError):
            raise result
        values, vectors, residuals = result
        pairs.extend(
            EigenPair(value, vector, idx, dimension, residual, claim)
            for value, vector, residual, claim in zip(
                values.tolist(), vectors.T, residuals.tolist(), _claims(vectors, idx)
            )
        )
    pairs.sort(key=lambda pair: (pair.value.real, pair.value.imag))
    return pairs


def _claims(vectors: np.ndarray, support: np.ndarray) -> list:
    """The (overlap, basis index) of each column of ``vectors``, eigenvectors
    at the basis indices ``support``: the largest weight |v_i|^2 and its
    index, the lowest one on a tie.

    The weights are taken a slab of columns at a time, each entry with the
    bits of its own column's, so a large block holds no n x n float
    temporary.
    """
    claims = []
    width = max(1, 2**16 // len(vectors))  # columns per 512-KiB slab
    for start in range(0, vectors.shape[1], width):
        weights = np.abs(vectors[:, start:start + width]) ** 2
        best = weights.argmax(axis=0)
        claims.extend(zip(weights[best, np.arange(len(best))].tolist(), support[best].tolist()))
    return claims


def diagonalize(h: np.ndarray) -> list:
    """Block-wise non-symmetric eigensolve, sorted by real part.

    The matrix splits into the connected components of its exact nonzero
    pattern (for the Hamiltonian with its tau term: the even-grade and
    odd-grade blocks).  Off-block entries are exactly zero, so the union of
    the block spectra is the spectrum of the whole matrix.  A block whose
    imaginary part is exactly zero is solved in real arithmetic.  Each block
    is a stack of one matrix for the solver that ``spectra`` shares: the
    calling thread solves the largest block while one job on a shared
    one-thread pool solves the others.  Each eigenvector is kept on its
    block (``EigenPair.local``).

    Every returned pair satisfies ||H v - lambda v|| <= RESIDUAL_FACTOR
    times ||H||; a violation, a non-finite or underflowing norm, a
    non-finite residual, or LAPACK non-convergence raises NumericError.

    ``h`` is dropped once split, so a matrix the caller holds no reference
    to (``diagonalize(evaluate(plan, p))``) is freed before the eigensolve.
    """
    split, dimension = _split(h), h.shape[0]
    del h
    return _pairs(dimension, split[1], _solve([split])[0])


def _solve(splits: list) -> list:
    """The ``_solve_block`` result of each block of each ``_split`` result
    of ``splits``, in block order; each split's block list is emptied.

    Blocks of one dtype at the same basis indices form one stack (k x n x n),
    solved in one ``numpy.linalg.eig`` call.  The calling thread solves the
    largest stack while one job on the shared one-thread pool solves the
    others, largest first; without blocks no job is submitted.
    """
    stacks, keys = {}, []
    for bound, supports, blocks in splits:
        keys.append([(idx.tobytes(), block.dtype) for idx, block in zip(supports, blocks)])
        for key, block in zip(keys[-1], blocks):
            members, bounds = stacks.setdefault(key, ([], []))
            members.append(block)
            bounds.append(bound)
        blocks.clear()
    if not stacks:
        return [[] for _split in splits]
    order = sorted(stacks, key=lambda key: sum(b.nbytes for b in stacks[key][0]), reverse=True)
    job = _pool().submit(lambda: [_solve_block(*stacks[key]) for key in order[1:]])
    try:
        solved = [_solve_block(*stacks[order[0]])]
    finally:
        # No pooled solve outlives the call, also when the first stack raises.
        wait([job])
    results = {key: iter(result) for key, result in zip(order, solved + job.result())}
    return [[next(results[key]) for key in split_keys] for split_keys in keys]


@dataclass
class LevelRow:
    n_plus: int
    n_minus: int
    e_analytic: float
    e_numeric: complex
    residual: float
    overlap: float


@dataclass
class LevelTable:
    """Classified levels plus the eigenpairs no basis label could claim."""

    rows: list
    unclassified: list

    def row(self, n_plus: int, n_minus: int) -> Optional[LevelRow]:
        for row in self.rows:
            if (row.n_plus, row.n_minus) == (n_plus, n_minus):
                return row
        return None


# diagonalize rejects an eigenpair whose residual exceeds this times ||H||.
RESIDUAL_FACTOR = 1e-8

# spectra solves its stacks once the gathered blocks hold this many bytes:
# about 120 points at N=12, one point at N=50.
STACK_BYTES = 4 * 2**20

# Eigenvectors whose best basis overlap is below this are truncation junk.
OVERLAP_FLOOR = 0.5


def classify(pairs: Sequence[EigenPair], basis: FockBasis, p: ParameterPoint) -> LevelTable:
    """Assign each eigenpair to the basis label of maximal overlap.

    Assignment is greedy by descending overlap so that each label is claimed
    at most once; argmax ties resolve to the lower (grade, n+) label because
    that is the basis enumeration order, which each support ascends in.
    Pairs with best overlap below OVERLAP_FLOOR are reported as unclassified.
    """
    claims = []
    for pair in pairs:
        claim = pair._claim or _claims(pair.local[:, None], pair.support)[0]
        claims.append((*claim, pair))
    claims.sort(key=lambda item: -item[0])
    taken = set()
    rows, unclassified = [], []
    for overlap, best, pair in claims:
        if overlap < OVERLAP_FLOOR or best in taken:
            unclassified.append(pair)
            continue
        taken.add(best)
        n_plus, n_minus = basis.states[best]
        e_analytic = analytic_energy(n_plus, n_minus, p)
        # The level table prints both energies and their distance.
        if not math.isfinite(abs(pair.value - e_analytic)):
            raise NumericError("level energies overflow at this parameter point")
        rows.append(
            LevelRow(
                n_plus=n_plus,
                n_minus=n_minus,
                e_analytic=e_analytic,
                e_numeric=pair.value,
                residual=pair.residual,
                overlap=overlap,
            )
        )
    rows.sort(key=lambda row: (row.n_plus + row.n_minus, row.n_plus))
    return LevelTable(rows=rows, unclassified=unclassified)


def spectrum(p: ParameterPoint, plan: Plan) -> LevelTable:
    """Evaluate, diagonalize and classify in one step, over the plan's basis.

    The matrix is passed on without a name, so ``diagonalize`` frees it once
    split into its blocks, before the eigensolve: the path of ``spectra``
    at one point.
    """
    return classify(diagonalize(evaluate(plan, p)), plan.basis, p)


# The failures that belong to one parameter point, which spectra yields.
_POINT_ERRORS = (NumericError, ValueError, ArithmeticError)


def spectra(points: Iterable[ParameterPoint], plan: Plan) -> Iterator:
    """``spectrum`` of each point in order: its LevelTable, or the exception
    (NumericError, ValueError or ArithmeticError) that point raised.

    Each point's matrix is evaluated, checked as ``diagonalize`` checks it,
    split into its blocks and dropped; a point whose exact nonzero pattern
    is the previous point's reuses its block supports.  Blocks at the same
    basis indices form one stack (k x n x n) that ``numpy.linalg.eig``
    solves in one call: the calling thread solves the largest stack while
    one pool job solves the others.  The stacks are solved and their tables
    yielded whenever the gathered blocks reach STACK_BYTES, so memory does
    not grow with the number of points.  Every table has the bits of ``spectrum`` at its
    point, and a point that fails (a residual, LAPACK, an overflow) fails
    alone, with the same error.
    """
    batch, held, last = [], 0, [None, None]
    for p in points:
        try:
            split = _split(evaluate(plan, p), last)
            held += sum(block.nbytes for block in split[2])
        except _POINT_ERRORS as exc:
            split = exc
        batch.append((p, split))
        if held >= STACK_BYTES:
            yield from _tables(batch, plan.basis)
            batch, held = [], 0
    yield from _tables(batch, plan.basis)


def _tables(batch: list, basis: FockBasis) -> Iterator:
    """Solve a batch of (point, its split or the error it raised), then
    classify and yield each point's outcome in order."""
    solved = _solve([split for _p, split in batch if isinstance(split, tuple)])[::-1]
    for p, outcome in batch:
        if isinstance(outcome, tuple):
            try:  # a point's solves are popped, so they go once its table is built
                outcome = classify(_pairs(basis.dimension, outcome[1], solved.pop()), basis, p)
            except _POINT_ERRORS as exc:
                outcome = exc
        yield outcome


LEVEL_COLUMNS = (
    "n_plus",
    "n_minus",
    "E_analytic",
    "E_numeric_re",
    "E_numeric_im",
    "abs_err",
    "residual",
    "overlap",
)


# The wire precision: each number of a level row is printed to 12
# significant digits.
_WIRE = "%.12g"


def _wire(x: float) -> float:
    """``x`` rounded to the wire precision.  ``_WIRE % _wire(x)`` is
    ``_WIRE % x``, so CSV prints each raw number once."""
    return float(_WIRE % x)


def _fields(row: LevelRow) -> tuple:
    """One row's LEVEL_COLUMNS values: the two labels, then the numbers
    unrounded."""
    e, a = row.e_numeric, row.e_analytic
    return (row.n_plus, row.n_minus, a, e.real, e.imag, abs(e - a), row.residual, row.overlap)


class _LevelWriter:
    """The CSV and JSON text of level rows in one column set.

    ``columns`` is a prefix of LEVEL_COLUMNS that holds both labels; a
    ``lead`` names a column before them (a sweep's swept parameter).  Rows
    come in groups of (lead value, LevelRows); without a lead the value is
    not printed.  Each row is printed through one %-template, not a dict.
    """

    def __init__(self, columns: Sequence[str] = LEVEL_COLUMNS, lead: Optional[str] = None):
        self.lead, self.width = lead, len(columns)
        self.columns = ((lead,) if lead else ()) + tuple(columns)
        self.csv_row = ",".join(["%d", "%d"] + [_WIRE] * (self.width - 2))
        specs = ["%d", "%d"] + ["%r"] * (self.width - 2)
        self.json_row = ",\n".join(
            f"      {json.dumps(c)}: {spec}" for c, spec in zip(columns, specs)
        ) + "\n    }"

    def to_csv(self, groups: Iterable[tuple]) -> str:
        """A header line, then one line per row: each number, the lead
        value too, printed once with ``_WIRE``."""
        template, width = self.csv_row, self.width
        lines = [",".join(self.columns)]
        for value, rows in groups:
            head = _WIRE % value + "," if self.lead else ""
            lines.extend([head + template % _fields(row)[:width] for row in rows])
        return "\n".join(lines) + "\n"

    def to_json(self, groups: Iterable[tuple]) -> str:
        """The rows as ``json.dumps(..., indent=2)`` prints a list one level
        down (the value of a top-level key), each row an object of the
        columns: each number, the lead value too, as ``json.dumps`` prints
        its ``_wire`` value, so it reads back as the CSV text does."""
        template, width = self.json_row, self.width
        parts = []
        for value, rows in groups:
            lead = (_wire(value),) if self.lead else ()
            head = "    {\n"
            if self.lead:
                head += f"      {json.dumps(self.lead)}: {json.dumps(lead[0])},\n"
            for row in rows:
                fields = _fields(row)
                numbers = list(map(_wire, fields[2:width]))
                # NaN and +-inf print as json.dumps spells them.  A finite
                # sum rules them out; a sum that overflows only takes the
                # slower path, which prints finite numbers the same.
                if math.isfinite(sum(numbers)):
                    parts.append(head + template % (*fields[:2], *numbers))
                else:
                    record = dict(zip(self.columns, (*lead, *fields[:2], *numbers)))
                    parts.append("    " + json.dumps(record, indent=2).replace("\n", "\n    "))
        return "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"


def level_table_csv(table: LevelTable) -> str:
    return _LevelWriter().to_csv([(None, table.rows)])


def level_table_json(table: LevelTable) -> list:
    """Each row as a dict of LEVEL_COLUMNS, its numbers rounded to the wire
    precision."""
    rows = map(_fields, table.rows)
    return [dict(zip(LEVEL_COLUMNS, (*f[:2], *map(_wire, f[2:])))) for f in rows]


# ---------------------------------------------------------------------------
# Reference-identity reports
# ---------------------------------------------------------------------------

DIAGONAL_TOLERANCE = 1e-10


def diagonal_check(basis: FockBasis, p: ParameterPoint) -> dict:
    """Measure the three tau-sector diagonal identities on interior states.

    Each identity compares the measured diagonal of one term of the
    first-order correction (with the tau prefactor divided out) against its
    bundled closed form, on states with grade <= cutoff - 4 where degree-4
    products are truncation-exact.  The fourth row checks that the three
    diagonals sum to the closed-form level shift.
    """
    hbar, m, omega = p.hbar, p.m, p.omega
    # Overflowing entries are caught below, so numpy need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        q1, q2, pi1, pi2 = build_phase_space(basis, p)
        quartic = m * omega**2 * (q2 @ q2 @ q1 @ q1)
        linear = -(1j * hbar / m) * (q2 @ pi2)
        squared = (1 / m) * (q2 @ q2 @ pi2 @ pi2)
    interior = basis.interior(4)
    states = [s for s, keep in zip(basis.states, interior) if keep]
    idx = np.flatnonzero(interior)

    def closed_form_quartic(n_plus, n_minus):
        return (hbar**2 / (4 * m)) * (
            2 * n_plus * n_minus + n_plus + n_minus + 1.5
        )

    def closed_form_linear(n_plus, n_minus):
        return hbar**2 / (2 * m)

    def closed_form_squared(n_plus, n_minus):
        return (hbar**2 / (4 * m)) * (
            2 * n_plus * n_minus + n_plus + n_minus + 0.5
        )

    checks = [
        ("diag(m omega^2 q2^2 q1^2)", quartic.diagonal(), closed_form_quartic),
        ("diag(-(i hbar/m) q2 pi2)", linear.diagonal(), closed_form_linear),
        ("diag((1/m) q2^2 pi2^2)", squared.diagonal(), closed_form_squared),
        (
            "diag sum vs closed-form level shift",
            (quartic + linear + squared).diagonal(),
            lambda n_plus, n_minus: _tau_level_shift(n_plus, n_minus, p),
        ),
    ]
    rows = []
    for name, diag, formula in checks:
        worst = 0.0
        worst_state = None
        for state, k in zip(states, idx):
            expected = formula(*state)
            # Every closed form is positive in exact arithmetic, so 0 comes
            # from its divisor 2m or 4m overflowing (4m first), else underflow.
            if expected == 0:
                kind = "overflows" if math.isinf(4 * m) else "underflows"
                raise NumericError(f"{name} {kind} at this parameter point")
            err = abs(diag[k] - expected) / abs(expected)
            if not math.isfinite(err):
                raise NumericError(f"{name} overflows at this parameter point")
            if err > worst:
                worst, worst_state = err, state
        rows.append(
            {
                "identity": name,
                "max_rel_err": worst,
                "worst_state": worst_state,
                "tolerance": DIAGONAL_TOLERANCE,
                "pass": worst <= DIAGONAL_TOLERANCE,
            }
        )
    return {"cutoff": basis.cutoff, "interior_margin": 4, "identities": rows}


COMMUTING_TOLERANCE = 1e-8


def commuting_check(basis: FockBasis, p: ParameterPoint) -> dict:
    """Interior Frobenius norms of the pairwise piece commutators.

    The core/angular commutator vanishes identically; the tau/angular pair
    is claimed to vanish by the source material but does not (the measured
    relative norm is reported); the core/tau pair carries no claim and is
    recorded as observed.
    """
    pieces = {
        "h_core": (evaluate(compile_plan(h_core(), basis), p), 2),
        "h_theta_eta": (evaluate(compile_plan(h_theta_eta(), basis), p), 2),
        "h_tau": (evaluate(compile_plan(h_tau(), basis), p), 4),
    }
    combos = [
        ("h_core", "h_theta_eta", True),
        ("h_tau", "h_theta_eta", True),
        ("h_core", "h_tau", False),
    ]
    rows = []
    for left, right, claimed_zero in combos:
        a, deg_a = pieces[left]
        b, deg_b = pieces[right]
        margin = deg_a + deg_b
        keep = basis.interior(margin)
        comm = (a @ b - b @ a)[np.ix_(keep, keep)]
        norm_a = np.linalg.norm(a[np.ix_(keep, keep)])
        norm_b = np.linalg.norm(b[np.ix_(keep, keep)])
        scale = max(norm_a * norm_b, 1e-300)
        relative = float(np.linalg.norm(comm) / scale)
        rows.append(
            {
                "pair": f"[{left}, {right}]",
                "interior_margin": margin,
                "relative_norm": relative,
                "claimed_zero": claimed_zero,
                "pass": (relative <= COMMUTING_TOLERANCE) if claimed_zero else None,
            }
        )
    return {"cutoff": basis.cutoff, "pairs": rows}
