"""Truncated two-mode Fock-space realization and spectra.

The basis is the helicity basis |n+, n-> with graded cutoff n+ + n- <= N,
enumerated in graded lexicographic order (by grade, then by n+); that
enumeration order is part of the wire format.  |n+, n-> is state
s(s+1)/2 + n+ with s = n+ + n-, so the dimension is (N+1)(N+2)/2.

Truncation locality: a polynomial of total degree d in (q, pi) has exact
matrix elements between states with n+ + n- <= N - d, because no
intermediate state of the word product can cross the cutoff.  All interior
assertions rely on that margin.

The layer needs numpy alone.  Its sparse matrices (the ladders, the
letters and each plan's words) are (rows, cols, values) arrays in CSR
order, multiplied by ``_product`` with the bits and entry order of scipy's
sparse product, and a matrix splits into blocks by ``_components``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .algebra import PARAMS, Expression, MixedAlphabetError
from .hamiltonian import PIECES, piece_of


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
    """All |n+, n-> with n+ + n- <= cutoff, in graded-lex order (``position``)."""

    def __init__(self, cutoff: int):
        cutoff = operator.index(cutoff)
        if cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        self.cutoff, self.dimension = cutoff, self.position(0, cutoff + 1)
        # Row k is (n+, n-) of state k; allocated first, so a cutoff too large fails at once.
        self.labels = np.empty((self.dimension, 2), dtype=np.int64)
        self.grades = np.repeat(np.arange(cutoff + 1), np.arange(1, cutoff + 2))
        self.labels[:, 0] = np.arange(self.dimension) - self.position(0, self.grades)
        self.labels[:, 1] = self.grades - self.labels[:, 0]

    @staticmethod
    def position(n_plus, n_minus):
        """The index s(s+1)/2 + n+ of |n+, n->, s = n+ + n-: ints or int arrays."""
        grade = n_plus + n_minus
        return grade * (grade + 1) // 2 + n_plus

    def interior(self, margin: int) -> np.ndarray:
        """Boolean mask of states with grade <= cutoff - margin."""
        return self.grades <= self.cutoff - margin


def _index_dtype(largest: int):
    """int32 where ``largest`` fits in it, as scipy's sparse indices are, else intp."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.intp


def build_ladder(basis: FockBasis) -> tuple:
    """The four helicity ladder matrices (A+, A-, A+dag, A-dag), built from
    the basis labels and ``position`` by array operations.

    Each is a (rows, cols, values) triple of arrays in CSR order, by row and
    then by column: int32 indices (intp where the dimension exceeds int32)
    and float64 values.  A+|n+, n-> = sqrt(n+) |n+-1, n->  and its three
    partners; the daggered matrices are exactly the transposes of the
    undaggered ones.  Each matrix has at most one entry per row and column.
    """
    dtype = _index_dtype(basis.dimension)

    def lowering(axis: int) -> tuple:
        cols = np.flatnonzero(basis.labels[:, axis] >= 1)
        values = np.sqrt(basis.labels[cols, axis])
        lowered = basis.labels[cols]
        lowered[:, axis] -= 1
        return basis.position(*lowered.T).astype(dtype), cols.astype(dtype), values

    # A state's index and its lowered state's both ascend with it, so each
    # matrix and its transpose are in CSR order as built.
    (a_rows, a_cols, a_values), (b_rows, b_cols, b_values) = lowering(0), lowering(1)
    return ((a_rows, a_cols, a_values), (b_rows, b_cols, b_values),
            (a_cols, a_rows, a_values), (b_cols, b_rows, b_values))


def _letters(basis: FockBasis) -> dict:
    """The phase-space generators as real matrices: each name maps to (R, k,
    half), the generator being i^k R times its scale, with R a float64
    (rows, cols, values) triple in CSR order at unit scales and the scale's
    half-exponents over ``PARAMS``.

    Each letter is half a signed sum of the four ladders.  The ladders share
    no position, so the letters share one pattern, and each entry is one
    ladder's value times +-0.5, exactly.
    """
    ladders = build_ladder(basis)
    rows, cols, values = map(np.concatenate, zip(*ladders))
    sizes = [len(ladder[2]) for ladder in ladders]
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]

    def letter(signs: tuple) -> tuple:  # signs of (A+, A-, A+dag, A-dag), halved
        return rows, cols, (values * np.repeat(signs, sizes))[order]

    # l_q = sqrt(hbar/(m omega)) and l_p = sqrt(hbar m omega)
    l_q, l_p = (1, -1, -1, 0, 0, 0), (1, 1, 1, 0, 0, 0)
    return {
        "q1": (letter((0.5, 0.5, 0.5, 0.5)), 0, l_q),
        "q2": (letter((-0.5, 0.5, 0.5, -0.5)), 1, l_q),
        "pi1": (letter((-0.5, -0.5, 0.5, 0.5)), 1, l_p),
        "pi2": (letter((-0.5, 0.5, -0.5, 0.5)), 0, l_p),
    }


def _product(left: tuple, right: tuple, d: int) -> tuple:
    """left @ right for d x d (rows, cols, values) triples in CSR order, with
    the bits and the entry order of scipy's ``csr_matmat`` (SMMP; Bank &
    Douglas, Adv. Comput. Math. 1 (1993) 127).

    Each entry (i, k) is 0.0 plus its terms left[i, j] * right[j, k], added
    over the left entries of row i in their stored order and, for each, the
    right entries of row j in theirs.  Each product row stores its entries
    in reverse order of their first term, and entries that sum to exactly 0
    are dropped.  The indices keep the left factor's dtype.
    """
    l_rows, l_cols, l_values = left
    r_rows, r_cols, r_values = right
    r_ptr = np.zeros(d + 1, dtype=np.intp)
    np.cumsum(np.bincount(r_rows, minlength=d), out=r_ptr[1:])
    # Every term, in the order the SMMP loop visits it.
    counts = r_ptr[l_cols + 1] - r_ptr[l_cols]
    entry = np.repeat(np.arange(len(l_cols)), counts)
    through = np.arange(len(entry)) + np.repeat(r_ptr[l_cols] + counts - np.cumsum(counts), counts)
    keys = l_rows[entry].astype(np.int64) * d + r_cols[through]
    terms = l_values[entry] * r_values[through]
    # The terms of each entry side by side, in visiting order, added one
    # rank at a time across the entries.
    order = np.argsort(keys, kind="stable")
    keys, terms = keys[order], terms[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    lengths = np.diff(starts, append=len(keys))
    sums = np.zeros(len(starts))
    for rank in range(lengths.max(initial=0)):
        more = np.flatnonzero(lengths > rank)
        sums[more] += terms[starts[more] + rank]
    rows, cols = np.divmod(keys[starts], d)
    stored = np.lexsort((-order[starts], rows))
    stored = stored[sums[stored] != 0]
    return rows[stored].astype(l_rows.dtype), cols[stored].astype(l_rows.dtype), sums[stored]


class _Word(NamedTuple):
    """A plan's real word matrix at unit scales: its entries' rows and
    columns (``_index_dtype`` of d) and values (float64), in the order
    scipy's ``tocoo`` gives the same chain of CSR products."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray


@dataclass(frozen=True, eq=False)
class Plan:
    """An Expression compiled over a basis.

    ``terms`` holds, in ``Expression.sorted_terms`` order, one tuple per
    term: its coefficient as a complex number, its exponent vector over
    ``PARAMS`` with its letters' scales folded in (integers, or halves for
    an odd word), and its real word matrix at unit scales (``.row``,
    ``.col`` and ``.data`` arrays).  The word matrices depend only on the
    basis, so one plan serves every parameter point: ``evaluate(plan, p)``
    multiplies each coefficient by its monomial at ``p`` and sums.
    ``layout`` is what that sum needs of the terms beyond their numbers,
    computed on first use.
    """

    basis: FockBasis
    terms: tuple

    @functools.cached_property
    def layout(self) -> tuple:
        """One pair per term, in ``terms`` order: its nonzero exponents as
        (parameter, exponent) pairs in ``PARAMS`` order, and the flat indices
        row * d + col of its word's entries in a d x d array.  Terms with one
        word share its indices.  Nothing here depends on the point."""
        d = self.basis.dimension
        flat = {}
        layout = []
        for _coef, exponents, word in self.terms:
            if id(word) not in flat:
                # As intp, which numpy indexes with without converting per call.
                flat[id(word)] = word.row.astype(np.intp) * d + word.col
            powers = tuple((name, exp) for name, exp in zip(PARAMS, exponents) if exp)
            layout.append((powers, flat[id(word)]))
        return tuple(layout)


def compile_plan(e: Expression, basis: FockBasis) -> Plan:
    """Compile a canonical-alphabet Expression over ``basis``.

    Each word becomes the chain of real sparse products (``_product``) of
    its letters' matrices (``_letters``) from the left, starting at the
    identity, with the bits and entry order the same chain of scipy CSR
    products has; each distinct word is formed once, and each prefix that
    words share is multiplied once.  A word with k letters of power i is
    i^k times its chain: i^(k mod 2) goes into the term's coefficient and
    (-1)^(k div 2) into the word.  The letters' scales,
    l_q^a l_p^b = hbar^((a+b)/2) (m omega)^((b-a)/2), go into the term's
    exponents.  Noncommutative-alphabet input is rejected: push it through
    the Bopp shift first.

    ``spectrum``, ``diagonal_check`` and ``commuting_check`` all take their
    matrices from plans made here, which only ``evaluate`` scales: the two
    reports read the pieces of the very plan ``spectrum`` solves.
    """
    if e.alphabet == "noncommutative":
        raise MixedAlphabetError(
            "cannot evaluate a noncommutative-alphabet expression; "
            "substitute through the Bopp shift first"
        )
    letters = _letters(basis)
    d = basis.dimension
    index = np.arange(d, dtype=_index_dtype(d))
    chains, words, terms = {(): (index, index, np.ones(d))}, {}, []
    for (word, powers), coef in e.sorted_terms():
        if word not in words:
            for k in range(1, len(word) + 1):
                if word[:k] not in chains:
                    chains[word[:k]] = _product(chains[word[:k - 1]], letters[word[k - 1]][0], d)
            rows, cols, values = chains[word]
            turns = sum(letters[g][1] for g in word)
            words[word] = 1j if turns % 2 else 1, _Word(rows, cols, values * (-1) ** (turns // 2))
        phase, matrix = words[word]
        # Twice each exponent: the letters' half-exponents plus the term's own, doubled.
        half = map(sum, zip(*(letters[g][2] for g in word), [2 * exp for exp in powers]))
        exponents = tuple(h / 2 if h % 2 else h // 2 for h in half)
        terms.append((complex(coef) * phase, exponents, matrix))
    return Plan(basis, tuple(terms))


def evaluate(plan: Plan, p: ParameterPoint) -> np.ndarray:
    """The dense matrix of a compiled plan at ``p``: float64 when every
    scaled coefficient is real (every policy's Hamiltonian at every point),
    else complex.

    Each coefficient is multiplied by its monomial, one nonzero exponent at
    a time in ``PARAMS`` order, so a zero coefficient stays zero; a power
    that overflows raises NumericError naming it (``hbar^2 overflows at
    this parameter point``).  Terms are added in order into one flat d*d
    array at their ``Plan.layout`` indices, entry by entry, so the result
    equals the sparse sum of the complex unit-scale word matrices times the
    scaled coefficients bit for bit.  An overflowing entry raises
    NumericError.  An Expression is realized as
    ``evaluate(compile_plan(e, basis), p)``.
    """
    values = p.values()
    scaled = []
    for (coef, *_), (powers, _flat) in zip(plan.terms, plan.layout):
        for pname, exp in powers:
            try:
                coef *= values[pname] ** exp
            except OverflowError:
                raise NumericError(f"{pname}^{exp:g} overflows at this parameter point") from None
        scaled.append(coef)
    real = all(coef.imag == 0 for coef in scaled)
    d = plan.basis.dimension
    out = np.zeros(d * d, dtype=float if real else complex)
    # Overflowing entries are caught below, so numpy need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        for coef, (*_, word), (_powers, flat) in zip(scaled, plan.terms, plan.layout):
            out[flat] += word.data * (coef.real if real else coef)
    if not np.isfinite(out).all():
        raise NumericError("matrix entries overflow at this parameter point")
    return out.reshape(d, d)


def analytic_energy(n_plus, n_minus, p: ParameterPoint):
    """Closed-form level energy: oscillator + angular splitting + tau shift.

    ``n_plus`` and ``n_minus`` are ints, giving a float, or integer arrays
    of one shape, giving a float64 array (``classify`` passes the claimed
    labels' arrays); each entry has the bits of the call on its own two
    ints.
    """
    core = p.hbar * p.omega * (n_plus + n_minus + 1)
    angular = (
        p.hbar
        * (p.eta / (2 * p.m) + p.m * p.omega**2 * p.theta / 2)
        * (n_plus - n_minus)
    )
    # At tau = 0 the shift is absent, also where its prefactor overflows.
    shift = p.tau * _tau_level_shift(n_plus, n_minus, p) if p.tau else 0.0
    return core + angular + shift


def _tau_level_shift(n_plus, n_minus, p: ParameterPoint):
    """The closed-form first-order level shift per unit tau: a float of two
    ints, or a float64 array of two integer arrays of one shape, as in
    ``analytic_energy``."""
    return (p.hbar**2 / (2 * p.m)) * (2 * n_plus * n_minus + n_plus + n_minus + 2)


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """The eigenpairs of a matrix, sorted by (Re, Im) of their values, equal
    values in block order: each pair's eigenvalue, residual, and largest
    weight |v_i|^2 (``overlap``) of its unit eigenvector with that weight's
    basis index i (``best``), the lowest one on a tie.  The eigenvectors
    themselves are not kept: ``_solve_block`` reduces them to these.
    """

    values: np.ndarray
    residuals: np.ndarray
    overlap: np.ndarray
    best: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The one thread that solves every block stack but the largest, which
    the caller solves: with its tau term the Hamiltonian matrix has exactly
    two blocks, its even-grade and odd-grade states."""
    return ThreadPoolExecutor(max_workers=1)


def _solve_block(blocks: list, bounds: Sequence[float]) -> list:
    """(values, residuals, overlap, best) of each n x n matrix of ``blocks``,
    or the NumericError that matrix raises: its residual exceeds its entry
    of ``bounds`` or LAPACK did not converge.  ``values`` are the complex
    eigenvalues; ``overlap`` and ``best`` are each unit eigenvector's
    largest weight |v_i|^2 and its block-local index i, the lowest on a tie.

    The matrices form one stack (k x n x n; a single one as a view) and
    ``blocks`` is emptied, so the stack is held here only.
    ``numpy.linalg.eig`` solves the whole stack in one call, looping in C; it
    releases the GIL while LAPACK runs, where ``scipy.linalg.eig`` holds it.
    Each matrix gets the bits of its own two-dimensional solve, so the
    normalization, residuals and weights below run per matrix, on eig's own
    output: no block or vector array is copied, and no eigenvector outlives
    the call.  It runs on pool threads, so it calls no public ncphase
    function: the tracer in perfbench keeps a single span stack.
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
    solved = []
    for block, block_values, block_vectors, bound in zip(stack, values, vectors, bounds):
        # The stack's output is complex when any of its matrices has a
        # complex eigenvalue; a real matrix's own solve is real unless it has one.
        if real and not block_values.imag.any():
            block_values, block_vectors = block_values.real, block_vectors.real
        # A real block times complex vectors is one real product over the
        # vectors' interleaved real and imaginary parts, so the block is
        # never copied to complex.
        interleaved = real and np.iscomplexobj(block_vectors)
        residuals, overlap = np.empty(len(block_values)), np.empty(len(block_values))
        best = np.empty(len(block_values), dtype=int)
        # The vectors are normalized in place and their residuals and
        # weights taken a slab of columns at a time, each column with the
        # bits of the whole block's, so the temporaries are n x width, not
        # n x n (a block's complex vectors take 7.3 MB at N=50).
        width = max(1, 2**15 // len(block))  # columns per 512-KiB complex slab
        for start in range(0, len(block_values), width):
            cols = slice(start, start + width)
            slab = block_vectors[:, cols]
            slab /= np.linalg.norm(slab, axis=0)
            product = (block @ slab.view(float)).view(complex) if interleaved else block @ slab
            with np.errstate(over="ignore", invalid="ignore"):
                residuals[cols] = np.linalg.norm(product - slab * block_values[cols], axis=0)
            weights = np.abs(slab) ** 2
            best[cols], overlap[cols] = weights.argmax(axis=0), weights.max(axis=0)
        worst = float(residuals.max())
        if not worst <= bound:  # a NaN residual fails too
            solved.append(NumericError(
                f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_FACTOR:.1e} * ||H||"
            ))
        else:
            solved.append((block_values.astype(complex), residuals, overlap, best))
    return solved


def _components(rows: np.ndarray, cols: np.ndarray, d: int) -> np.ndarray:
    """The lowest node of each node's connected component in the undirected
    graph on d nodes whose edges join rows[e] and cols[e].

    Each round hooks, for every edge between two trees, the larger root onto
    the smaller one, and then jumps each node to its grandparent until every
    node points at its root.  A node points only at lower nodes, so each
    tree's root is its lowest node; edges inside one tree are dropped.
    """
    parent = np.arange(d)
    while True:
        a, b = parent[rows], parent[cols]
        between = a != b
        if not between.any():
            return parent
        rows, cols, a, b = rows[between], cols[between], a[between], b[between]
        parent[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _supports(pattern: np.ndarray, last: Optional[list]) -> list:
    """The connected blocks of a d x d nonzero pattern, in the order of
    their lowest basis index: each block's basis indices, ascending, with
    the flat indices row * d + col of its entries in row order (int32 where
    d * d fits), which gather the block from the flattened matrix.

    ``last``, if given, is [pattern, blocks] of the pattern before: the same
    pattern gets the same blocks back, and another one replaces them.
    """
    if last is not None and np.array_equal(pattern, last[0]):
        return last[1]
    d = len(pattern)
    dtype = _index_dtype(d * d)
    lowest = _components(*np.divmod(np.flatnonzero(pattern), d), d)
    # A stable sort groups the indices by their lowest one, each group
    # ascending; the piece after the last group's end is empty.
    sizes = np.bincount(lowest)
    blocks = []
    for support in np.split(np.argsort(lowest, kind="stable"), np.cumsum(sizes[sizes > 0]))[:-1]:
        gather = support.astype(dtype)
        blocks.append((support, (gather[:, None] * dtype(d) + gather).ravel()))
    if last is not None:
        last[:] = pattern, blocks
    return blocks


def _split(h: np.ndarray, last: Optional[list] = None) -> tuple:
    """The residual bound of ``h``, the basis indices of each of its blocks
    and each block gathered (``diagonalize`` describes them).  ``last`` is
    ``_supports``'s, for a caller that splits matrices in turn.

    Each block is gathered from the flattened matrix with one ``take`` at
    its ``_supports`` indices.  A real block, or a complex one whose
    imaginary part is exactly zero, is kept as float64, at half the memory
    of a complex one.
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
    supports, blocks, flat = [], [], h.ravel()
    for support, gather in _supports(h != 0, last):
        block = flat.take(gather).reshape(len(support), len(support))
        # On a float block .imag would allocate a matrix of zeros.
        if np.iscomplexobj(block) and not block.imag.any():
            block = block.real.copy()
        supports.append(support)
        blocks.append(block)
    return bound, supports, blocks


def _eigensystem(supports: list, solved: list) -> Eigensystem:
    """The eigensystem of one matrix from its blocks' basis indices and
    ``_solve_block`` results, each block-local ``best`` mapped to its basis
    index; the first failed block's NumericError is raised."""
    parts = [(np.empty(0, complex), np.empty(0), np.empty(0), np.empty(0, int))]
    for support, result in zip(supports, solved):
        if isinstance(result, NumericError):
            raise result
        values, residuals, overlap, best = result
        parts.append((values, residuals, overlap, support[best]))
    values, residuals, overlap, best = map(np.concatenate, zip(*parts))
    # lexsort is stable: equal values keep their block order.
    order = np.lexsort((values.imag, values.real))
    return Eigensystem(values[order], residuals[order], overlap[order], best[order])


def diagonalize(h: np.ndarray) -> Eigensystem:
    """Block-wise non-symmetric eigensolve: the Eigensystem of ``h``.

    The matrix splits into the connected components of its exact nonzero
    pattern (for the Hamiltonian with its tau term: the even-grade and
    odd-grade blocks).  Off-block entries are exactly zero, so the union of
    the block spectra is the spectrum of the whole matrix.  A block whose
    imaginary part is exactly zero is solved in real arithmetic.  Each block
    is a stack of one matrix for the solver that ``spectra`` shares: the
    calling thread solves the largest block while one job on a shared
    one-thread pool solves the others.  Each block's solve reduces its
    eigenvectors to their overlaps and best labels, which are mapped to the
    block's basis indices; no eigenvector is returned.

    Every returned pair satisfies ||H v - lambda v|| <= RESIDUAL_FACTOR
    times ||H||; a violation, a non-finite or underflowing norm, a
    non-finite residual, or LAPACK non-convergence raises NumericError.

    ``h`` is dropped once split, so a matrix the caller holds no reference
    to (``diagonalize(evaluate(plan, p))``) is freed before the eigensolve.
    """
    split = _split(h)
    del h
    return _eigensystem(split[1], _solve([split])[0])


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


@dataclass(eq=False)
class LevelTable:
    """Classified levels in basis order, plus the Eigensystem positions of
    the eigenpairs no basis label could claim, in ``classify``'s rank order.

    ``rows`` is one numpy record array with the fields ``n_plus`` and
    ``n_minus`` (int64), ``e_analytic`` (float64), ``e_numeric``
    (complex128), ``residual`` and ``overlap`` (float64); a row is a
    record, so ``table.rows[0].e_numeric`` reads one field.
    """

    rows: np.recarray
    unclassified: list

    def row(self, n_plus: int, n_minus: int) -> Optional[np.record]:
        """The level labelled (n_plus, n_minus), or None."""
        rows = self.rows
        hit = np.flatnonzero((rows["n_plus"] == n_plus) & (rows["n_minus"] == n_minus))
        return rows[hit[0]] if hit.size else None


# The record of one LevelTable row.
_LEVEL_ROW = np.dtype([("n_plus", np.int64), ("n_minus", np.int64), ("e_analytic", np.float64),
                       ("e_numeric", np.complex128), ("residual", np.float64),
                       ("overlap", np.float64)])

# diagonalize rejects an eigenpair whose residual exceeds this times ||H||.
RESIDUAL_FACTOR = 1e-8

# spectra solves its stacks once the gathered blocks hold this many bytes:
# about 120 points at N=12, one point at N=50.
STACK_BYTES = 4 * 2**20

# Eigenvectors whose best basis overlap is below this are truncation junk.
OVERLAP_FLOOR = 0.5


def classify(system: Eigensystem, basis: FockBasis, p: ParameterPoint) -> LevelTable:
    """Assign each eigenpair to the basis label of maximal overlap.

    The pairs are ranked by descending overlap, equal overlaps in their
    order in ``system``, and each label goes to the first ranked pair that
    has it as ``best``, so each is claimed at most once; argmax ties
    resolve to the lower (grade, n+) label because that is the basis
    enumeration order, which each support ascends in.  Pairs with best
    overlap below OVERLAP_FLOOR are reported as unclassified.  The claimed
    columns become the table's one record array, every number in it finite:
    the energies and their distance are checked here, the residuals by the
    solve, and the overlaps are weights of unit vectors.
    """
    ranked = np.argsort(-system.overlap, kind="stable")
    # A prefix of ranked, so an index into it is one into ranked too.
    eligible = ranked[system.overlap[ranked] >= OVERLAP_FLOOR]
    # The labels come out ascending, which is the rows' (grade, n+) order.
    labels, first = np.unique(system.best[eligible], return_index=True)
    claimed = eligible[first]
    n_plus, n_minus = basis.labels[labels].T
    values = system.values[claimed]
    # The level table prints both energies and their distance.  Overflowing
    # ones are caught here, so numpy need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        e_analytic = analytic_energy(n_plus, n_minus, p)
        if not np.isfinite(np.abs(values - e_analytic)).all():
            raise NumericError("level energies overflow at this parameter point")
    # Field by field into an empty array, which np.rec.fromarrays takes
    # four times as long to do.
    rows = np.empty(len(claimed), _LEVEL_ROW)
    columns = (n_plus, n_minus, e_analytic, values, system.residuals[claimed], system.overlap[claimed])
    for name, column in zip(_LEVEL_ROW.names, columns):
        rows[name] = column
    return LevelTable(rows=rows.view(np.recarray), unclassified=np.delete(ranked, first).tolist())


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
    is the previous point's reuses its block supports and their gather
    indices.  Blocks at the same
    basis indices form one stack (k x n x n) that ``numpy.linalg.eig``
    solves in one call: the calling thread solves the largest stack while
    one pool job solves the others.  The stacks are solved whenever the
    gathered blocks reach STACK_BYTES, so memory does not grow with the
    number of points; each point's Eigensystem is then built and classified
    and its table yielded.  Every table has the bits of ``spectrum`` at its
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
    classify and yield each point's outcome in order.  The solves hold no
    eigenvectors, so the whole batch's are kept until its last table."""
    solved = iter(_solve([split for _p, split in batch if isinstance(split, tuple)]))
    for p, outcome in batch:
        if isinstance(outcome, tuple):
            try:
                outcome = classify(_eigensystem(outcome[1], next(solved)), basis, p)
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


def _columns(rows: np.ndarray) -> list:
    """The LEVEL_COLUMNS values of level rows, one list of Python numbers
    per column: the two labels, then the numbers unrounded.  abs_err is
    Python's abs of each complex distance: np.abs differs from it in the last
    bit for some inputs, and that can change a printed digit."""
    e, a = rows["e_numeric"], rows["e_analytic"]
    return [rows["n_plus"].tolist(), rows["n_minus"].tolist(), a.tolist(), e.real.tolist(),
            e.imag.tolist(), list(map(abs, (e - a).tolist())), rows["residual"].tolist(),
            rows["overlap"].tolist()]


class _LevelWriter:
    """The CSV and JSON text of level rows in one column set.

    ``columns`` is a prefix of LEVEL_COLUMNS that holds both labels; a
    ``lead`` names a column before them (a sweep's swept parameter).  Rows
    come in groups of (lead value, a LevelTable's ``rows``); without a lead
    the value is not printed.  Each group is turned into columns of Python
    numbers once, and each row printed from them through one %-template.
    Every number of a row is finite, as ``classify`` ensures.
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
            lines.extend([head + template % row for row in zip(*_columns(rows)[:width])])
        return "\n".join(lines) + "\n"

    def to_json(self, groups: Iterable[tuple]) -> str:
        """The rows as ``json.dumps(..., indent=2)`` prints a list one level
        down (the value of a top-level key), each row an object of the
        columns: each number, the lead value too, as ``json.dumps`` prints
        its ``_wire`` value, so it reads back as the CSV text does."""
        template, width = self.json_row, self.width
        parts = []
        for value, rows in groups:
            head = "    {\n"
            if self.lead:
                head += f"      {json.dumps(self.lead)}: {json.dumps(_wire(value))},\n"
            columns = _columns(rows)[:width]
            numbers = (map(_wire, column) for column in columns[2:])
            parts.extend([head + template % row for row in zip(*columns[:2], *numbers)])
        return "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"


def level_table_csv(table: LevelTable) -> str:
    return _LevelWriter().to_csv([(None, table.rows)])


# ---------------------------------------------------------------------------
# Reference-identity reports
# ---------------------------------------------------------------------------


def _pieces(plan: Plan) -> dict:
    """The plan's terms split by ``hamiltonian.piece_of``, as ``by_order``
    splits an Expression: each piece name maps to a plan over the same
    basis, without terms if no term has its order."""
    groups = {name: [] for name in PIECES.values()}
    for term in plan.terms:
        name = piece_of(term[1])
        if name is not None:
            groups[name].append(term)
    return {name: Plan(plan.basis, tuple(terms)) for name, terms in groups.items()}


DIAGONAL_TOLERANCE = 1e-10


def diagonal_check(plan: Plan, p: ParameterPoint) -> dict:
    """Measure the three tau-sector diagonal identities on interior states.

    Each identity compares the diagonal of one of the plan's three pure-tau
    terms (its ``h_tau`` piece), evaluated alone at ``p`` with tau = 1
    (which divides the tau prefactor out exactly), against its bundled
    closed form, on states with grade <= cutoff - 4 where degree-4 words
    are truncation-exact.  The fourth row checks that the three diagonals
    sum to the closed-form level shift.  So a plan of ``build_hamiltonian``
    is measured on the very terms ``spectrum`` solves.  A row's worst state
    is the first of its largest error, None if every error is 0.  A cutoff
    below 4 (no interior), or a plan without the three pure-tau terms (the
    undeformed policy's), raises ValueError.
    """
    basis = plan.basis
    at_unit_tau = replace(p, tau=1.0)
    interior = np.flatnonzero(basis.interior(4))
    if not interior.size:
        raise ValueError(f"cutoff {basis.cutoff} leaves no state inside the interior margin 4")
    terms = _pieces(plan)["h_tau"].terms
    if len(terms) != 3:
        raise ValueError(f"the plan has {len(terms)} pure-tau terms, not the 3 of h_tau")
    # The terms in sorted order: q2 pi2, q1^2 q2^2, q2^2 pi2^2.
    linear, quartic, squared = (
        np.diagonal(evaluate(Plan(basis, (term,)), at_unit_tau))[interior] for term in terms
    )
    n_plus, n_minus = basis.labels[interior].T
    scale = p.hbar**2 / (4 * p.m)
    # Overflowing values are caught below, so numpy need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        checks = [
            ("diag(m omega^2 q2^2 q1^2)", quartic,
             scale * (2 * n_plus * n_minus + n_plus + n_minus + 1.5)),
            ("diag(-(i hbar/m) q2 pi2)", linear, np.full(len(interior), p.hbar**2 / (2 * p.m))),
            ("diag((1/m) q2^2 pi2^2)", squared,
             scale * (2 * n_plus * n_minus + n_plus + n_minus + 0.5)),
            ("diag sum vs closed-form level shift", quartic + linear + squared,
             _tau_level_shift(n_plus, n_minus, p)),
        ]
    rows = []
    for name, diag, expected in checks:
        # Every closed form is positive in exact arithmetic, so 0 comes
        # from its divisor 2m or 4m overflowing (4m first), else underflow.
        if not expected.all():
            kind = "overflows" if math.isinf(4 * p.m) else "underflows"
            raise NumericError(f"{name} {kind} at this parameter point")
        with np.errstate(over="ignore", invalid="ignore"):
            errors = abs(diag - expected) / abs(expected)
        if not np.isfinite(errors).all():
            raise NumericError(f"{name} overflows at this parameter point")
        worst = float(errors.max(initial=0.0))
        # Python ints, so the state prints as (n+, n-) whatever numpy's repr.
        state = tuple(basis.labels[interior[errors.argmax()]].tolist())
        rows.append(
            {
                "identity": name,
                "max_rel_err": worst,
                "worst_state": state if worst else None,
                "tolerance": DIAGONAL_TOLERANCE,
                "pass": worst <= DIAGONAL_TOLERANCE,
            }
        )
    return {"cutoff": basis.cutoff, "interior_margin": 4, "identities": rows}


COMMUTING_TOLERANCE = 1e-8


def commuting_check(plan: Plan, p: ParameterPoint) -> dict:
    """Interior Frobenius norms of the pairwise commutators of the plan's
    pieces (``_pieces``).

    The core/angular commutator vanishes identically; the tau/angular pair
    is claimed to vanish by the source material but does not (the measured
    relative norm is reported); the core/tau pair carries no claim and is
    recorded as observed.  The pieces are evaluated with theta = eta = tau
    = 1, which divides out their prefactors and leaves each relative norm.
    A plan that lacks a piece raises ValueError.
    """
    unit = replace(p, theta=1.0, eta=1.0, tau=1.0)
    degrees = {"h_core": 2, "h_theta_eta": 2, "h_tau": 4}  # each piece's word degree
    pieces = {}
    for name, piece in _pieces(plan).items():
        if not piece.terms:
            raise ValueError(f"the plan has no {name} term")
        pieces[name] = evaluate(piece, unit), degrees[name]
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
        keep = plan.basis.interior(margin)
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
    return {"cutoff": plan.basis.cutoff, "pairs": rows}
