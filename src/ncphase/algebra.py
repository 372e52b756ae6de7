"""Exact symbolic algebra over noncommuting generators with scalar commutators.

Expressions are finite sums of ordered generator words, each weighted by a
Gaussian-rational coefficient times a monomial in the physical parameters
(hbar, m, omega, theta, eta, tau).  All arithmetic is exact; equality of
normal-ordered expressions is literal equality of their term maps.

Two generator alphabets exist and never mix inside a word:

* ``canonical``:       q1 < q2 < pi1 < pi2   with [q_i, pi_i] = i*hbar
* ``noncommutative``:  x < y < px < py       with the deformed flat table
  [x, y] = i*theta, [x, px] = [y, py] = i*hbar, [px, py] = i*eta,
  [x, py] = [y, px] = 0

Normal ordering brings every word to nondecreasing generator rank by
building it letter by letter from a product that is already ordered: a new
letter goes into its sorted place, and passing each higher-ranked letter s
leaves the central [s, g] times the word without s, which is still sorted.
Passing a run of m equal letters s leaves one such word, m times.  Words that
share a prefix share its ordered product.  A commutator [a, b] is built from
the ordered operand N(a): [u, g] for a sorted word u is a sum of brackets
times shorter sorted words, and the Leibniz rule adds the other letters of
each word of b, so the leading words of a*b and b*a are never built.

A sorted word is fixed by its letter counts, so while one call orders, a
term is keyed by one int of biased fixed-width fields: the four letter
counts, the six exponents and the power of the table's bracket denominator,
with the width derived from the call's own operands.  Placing or dropping a
letter and multiplying by a monomial are each one int add, and the length of
a run is a shift and a mask.  Each coefficient is a pair of ints, a Gaussian
integer over one denominator for the whole call: the images and brackets are
scaled by the lcm of their denominators, and each input word's coefficient
to the lcm over the words of its denominator times its images'.  Each output
term is unpacked and reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .rationals import GR_I, GR_ONE, GaussianRational, _reduced

# Parameter alphabet; the exponent vector of every term follows this order.
PARAMS = ("hbar", "m", "omega", "theta", "eta", "tau")
_PARAM_INDEX = {name: k for k, name in enumerate(PARAMS)}
# Deformation parameters may not appear with negative exponents.
_NONNEGATIVE = ("theta", "eta", "tau")

ZERO_POWERS = (0, 0, 0, 0, 0, 0)

Word = tuple  # tuple[str, ...]
Powers = tuple  # tuple[int, int, int, int, int, int]

ALPHABETS = {
    "canonical": ("q1", "q2", "pi1", "pi2"),
    "noncommutative": ("x", "y", "px", "py"),
}
_GENERATOR_ALPHABET = {
    name: alpha for alpha, names in ALPHABETS.items() for name in names
}
_RANK = {
    name: rank for names in ALPHABETS.values() for rank, name in enumerate(names)
}
# Position-type generators (flip sign under parity); momenta are fixed.
POSITION_GENERATORS = frozenset({"q1", "q2", "x", "y"})


class AlgebraError(ValueError):
    """Base class for symbolic-layer usage errors."""


class MixedAlphabetError(AlgebraError):
    """Raised when an operation would mix generator alphabets."""


class MissingImageError(AlgebraError):
    """Raised by substitution when a generator has no image."""


def generator_alphabet(name: str) -> str:
    try:
        return _GENERATOR_ALPHABET[name]
    except KeyError:
        raise AlgebraError(f"unknown generator {name!r}") from None


def rank(name: str) -> int:
    return _RANK[name]


def powers_of(**exponents: int) -> Powers:
    """Build an exponent vector, e.g. ``powers_of(theta=1, hbar=-1)``."""
    vec = [0] * len(PARAMS)
    for pname, exp in exponents.items():
        if pname not in _PARAM_INDEX:
            raise AlgebraError(f"unknown parameter {pname!r}")
        vec[_PARAM_INDEX[pname]] = exp
    return tuple(vec)


def _add_powers(a: Powers, b: Powers) -> Powers:
    # Spelled out, one entry per parameter: four times faster than
    # tuple(map(add, a, b)), and it runs once per term of every product.
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4], a[5] + b[5])


def _validate_powers(powers: Powers) -> None:
    if len(powers) != len(PARAMS):
        raise AlgebraError("exponent vector must have one entry per parameter")
    for pname in _NONNEGATIVE:
        if powers[_PARAM_INDEX[pname]] < 0:
            raise AlgebraError(f"negative exponent not allowed for {pname}")


# The plain numbers accepted wherever a coefficient is expected.
_COEFFICIENT_TYPES = (int, Fraction, GaussianRational)


def _as_coefficient(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise AlgebraError(f"cannot interpret {value!r} as a scalar")


def _unify_alphabets(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise MixedAlphabetError(f"cannot mix alphabets {a!r} and {b!r}")


class Expression:
    """A finite sum of generator words with exact scalar coefficients.

    ``terms`` maps (word, parameter exponent vector) to a GaussianRational.
    Zero coefficients are never stored.  Instances are treated as immutable
    values; no method mutates an existing expression.
    """

    __slots__ = ("alphabet", "terms")

    # Built in __new__, with no __init__, so that an existing expression
    # cannot be re-initialised.
    def __new__(cls, alphabet: Optional[str], terms: Mapping):
        clean = {}
        for (word, powers), coef in terms.items():
            if coef.is_zero():
                continue
            _validate_powers(powers)
            for g in word:
                if generator_alphabet(g) != alphabet:
                    raise MixedAlphabetError(
                        f"generator {g!r} does not belong to alphabet {alphabet!r}"
                    )
            clean[(tuple(word), tuple(powers))] = coef
        return _trusted(alphabet, clean)

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    def __reduce__(self):
        return Expression, (self.alphabet, self.terms)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Expression":
        return Expression(None, {})

    @staticmethod
    def from_scalar(value, **exponents: int) -> "Expression":
        """A coefficient times a parameter monomial, e.g.
        ``Expression.from_scalar(GR_I, theta=1)`` for i*theta."""
        powers = powers_of(**exponents)
        _validate_powers(powers)  # also for a zero coefficient, which is not stored
        return Expression(None, {((), powers): _as_coefficient(value)})

    @staticmethod
    def generator(name: str) -> "Expression":
        return Expression(
            generator_alphabet(name), {((name,), ZERO_POWERS): GR_ONE}
        )

    @staticmethod
    def word(names: Iterable[str], coefficient=1) -> "Expression":
        names = tuple(names)
        alpha = None
        for g in names:
            alpha = _unify_alphabets(alpha, generator_alphabet(g))
        return Expression(alpha, {(names, ZERO_POWERS): _as_coefficient(coefficient)})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_word_length(self) -> int:
        return max((len(w) for (w, _p) in self.terms), default=0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Expression":
        other = _as_expression(other)
        alpha = _unify_alphabets(self.alphabet, other.alphabet)
        merged = dict(self.terms)
        for key, coef in other.terms.items():
            acc = merged.get(key)
            merged[key] = coef if acc is None else acc + coef
        return _trusted(alpha, merged)

    __radd__ = __add__

    def __sub__(self, other) -> "Expression":
        return self + (-_as_expression(other))

    def __rsub__(self, other) -> "Expression":
        return _as_expression(other) + (-self)

    def __neg__(self) -> "Expression":
        return _trusted(self.alphabet, {key: -coef for key, coef in self.terms.items()})

    def __mul__(self, other) -> "Expression":
        if isinstance(other, _COEFFICIENT_TYPES):
            c = _as_coefficient(other)
            return _trusted(self.alphabet, {key: coef * c for key, coef in self.terms.items()})
        other = _as_expression(other)
        alpha = _unify_alphabets(self.alphabet, other.alphabet)
        out: dict = {}
        for (wa, pa), ca in self.terms.items():
            for (wb, pb), cb in other.terms.items():
                key = (wa + wb, _add_powers(pa, pb))
                coef = ca * cb
                acc = out.get(key)
                out[key] = coef if acc is None else acc + coef
        return _trusted(alpha, out)

    def __rmul__(self, other) -> "Expression":
        if isinstance(other, _COEFFICIENT_TYPES):
            return self.__mul__(other)
        return _as_expression(other).__mul__(self)

    def __pow__(self, n: int) -> "Expression":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("expression powers must be nonnegative integers")
        out = Expression.from_scalar(1)
        for _ in range(n):
            out = out * self
        return out

    # -- equality and display --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        # Construction normalizes pure-scalar expressions to alphabet None,
        # so term-map plus alphabet equality is canonical.
        return self.terms == other.terms and (
            not self.terms or self.alphabet == other.alphabet
        )

    def sorted_terms(self) -> list:
        """Terms in the canonical order: by word, then by parameter monomial."""

        def key(item):
            (word, powers), _coef = item
            return (len(word), tuple(_RANK[g] for g in word), powers)

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            _format_term(coef, powers, word)
            for (word, powers), coef in self.sorted_terms()
        )

    __repr__ = __str__


_set_alphabet = Expression.alphabet.__set__
_set_terms = Expression.terms.__set__


def _trusted(alphabet: Optional[str], terms: dict) -> Expression:
    """An Expression over a term map that is valid by construction: tuple
    keys, every word over ``alphabet`` and every exponent vector allowed, as
    in the results of arithmetic on expressions and of normal ordering.

    The public constructor checks each term and then ends here.  Zero
    coefficients are dropped, and a purely scalar expression is
    alphabet-agnostic, so its alphabet is None.
    """
    clean = {key: coef for key, coef in terms.items() if not coef.is_zero()}
    if not any(word for (word, _p) in clean):
        alphabet = None
    self = object.__new__(Expression)
    _set_alphabet(self, alphabet)
    _set_terms(self, clean)
    return self


def _as_expression(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, _COEFFICIENT_TYPES):
        return Expression.from_scalar(value)
    raise AlgebraError(f"cannot interpret {value!r} as an expression")


def _format_term(coef: GaussianRational, powers: Powers, word: Word) -> str:
    parts = [str(coef)]
    for pname, exp in zip(PARAMS, powers):
        if exp == 1:
            parts.append(pname)
        elif exp:
            parts.append(f"{pname}^{exp}")
    parts.extend(word)
    return "*".join(parts)


# ---------------------------------------------------------------------------
# Commutator tables
# ---------------------------------------------------------------------------


class AlgebraTable:
    """Central commutator lookup for one alphabet.

    Entries are stored for pairs with rank(g_i) > rank(g_j) only; the
    antisymmetric partner and all unlisted pairs follow automatically.
    Every entry is a pure-scalar Expression, which is what guarantees that
    normal ordering terminates.
    """

    def __init__(self, name: str, entries: Mapping):
        if name not in ALPHABETS:
            raise AlgebraError(f"unknown alphabet {name!r}")
        self.name = name
        self.alphabet = ALPHABETS[name]
        checked = {}
        for (hi, lo), expr in entries.items():
            if rank(hi) <= rank(lo):
                raise AlgebraError("table keys must satisfy rank(g_i) > rank(g_j)")
            if expr.max_word_length() != 0:
                raise AlgebraError("commutators must be central (scalar-valued)")
            checked[(hi, lo)] = expr
        self.entries = checked
        # The brackets as the ordering engine reads them: over the lcm of
        # their denominators, one (powers, re, im) triple of Gaussian
        # integers per term of each [s, g] that is not zero; and the largest
        # exponent magnitude a bracket carries.
        self._denominator = lcm(*(coef._d for expr in checked.values()
                                  for coef in expr.terms.values()))
        brackets = {}
        for (hi, lo), expr in checked.items():
            scale = self._denominator
            terms = tuple((p, c._a * (scale // c._d), c._b * (scale // c._d))
                          for (_w, p), c in expr.terms.items())
            if terms:
                brackets[(hi, lo)] = terms
                brackets[(lo, hi)] = tuple((p, -re, -im) for p, re, im in terms)
        self._brackets = brackets
        self._exponent = max((abs(x) for terms in brackets.values()
                              for p, _re, _im in terms for x in p), default=0)
        # For each letter g, the (rank, pair) of each letter s that moving g
        # past leaves a bracket for: [s, g] for s of higher rank as g is
        # appended, [g, s] for s of lower rank as it is prepended, and
        # [s, g] for every s in [u, g].
        names = self.alphabet

        def passing(pairs):
            return tuple((rank(s), pair) for s, pair in pairs if pair in brackets)

        self._passes = (
            tuple(passing((s, (s, g)) for s in names[rank(g) + 1 :]) for g in names),
            tuple(passing((s, (g, s)) for s in names[: rank(g)]) for g in names),
            tuple(passing((s, (s, g)) for s in names if s != g) for g in names),
        )

    def commutator_of(self, a: str, b: str) -> Expression:
        """The scalar Expression [a, b]."""
        if a == b:
            return Expression.zero()
        if rank(a) > rank(b):
            return self.entries.get((a, b), Expression.zero())
        entry = self.entries.get((b, a))
        return Expression.zero() if entry is None else -entry

    def relation_pairs(self) -> list:
        """All generator pairs (a, b) with rank(a) < rank(b), in rank order."""
        names = self.alphabet
        return [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]


CANONICAL = AlgebraTable(
    "canonical",
    {
        ("pi1", "q1"): Expression.from_scalar(-GR_I, hbar=1),
        ("pi2", "q2"): Expression.from_scalar(-GR_I, hbar=1),
    },
)

NONCOMMUTATIVE = AlgebraTable(
    "noncommutative",
    {
        ("y", "x"): Expression.from_scalar(-GR_I, theta=1),
        ("px", "x"): Expression.from_scalar(-GR_I, hbar=1),
        ("py", "y"): Expression.from_scalar(-GR_I, hbar=1),
        ("py", "px"): Expression.from_scalar(-GR_I, eta=1),
    },
)

TABLES = {"canonical": CANONICAL, "noncommutative": NONCOMMUTATIVE}


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


# An exponent field of a packed key holds its exponent v, |v| < 2**(w - 1),
# as v + 2**(w - 1), so the width w is one bit more than the largest
# magnitude needs; the count and denominator fields hold their values as
# they are.
_SIGN_BIT = 1
# The fields of a packed key, from the lowest: the count of each of the four
# letters of the alphabet, the exponent of each parameter of PARAMS, and the
# power of the table's bracket denominator.
_EXPONENT_FIELD = 4
_DENOMINATOR_FIELD = _EXPONENT_FIELD + len(PARAMS)


class _Layout:
    """The packed keys of one ordering call.

    A normal-ordered word is fixed by its letter counts, so a term is keyed
    by one int of equal-width fields (see ``_EXPONENT_FIELD``).  ``letters``
    bounds the letters a term can hold and the brackets it can carry, and
    ``exponent`` the magnitude of any exponent it can reach, so no field
    leaves its width: placing a letter adds its unit, and multiplying by a
    monomial adds the monomial's packed delta.
    """

    def __init__(self, table: AlgebraTable, letters: int, exponent: int):
        width = max(letters, exponent).bit_length() + _SIGN_BIT
        bias = 1 << (width - 1)
        self.table = table
        self.width = width
        self.mask = (1 << width) - 1
        self.bias = bias
        self.units = units = (1, 1 << width, 1 << 2 * width, 1 << 3 * width)
        self.base = self.monomial((bias,) * len(PARAMS))
        carried = 1 << (width * _DENOMINATOR_FIELD) if table._denominator != 1 else 0
        # The (shift, unit, packed bracket terms) of each letter s in the
        # table's passes of each letter g (``AlgebraTable._passes``).
        monomial = self.monomial
        packed = {pair: tuple([(monomial(p) + carried, re, im) for p, re, im in terms])
                  for pair, terms in table._brackets.items()}
        self.after, self.before, self.commuted = [
            tuple([tuple([(width * r, units[r], packed[pair]) for r, pair in letter])
                   for letter in passes])
            for passes in table._passes]

    def monomial(self, powers: Powers) -> int:
        """The packed delta that multiplies a term by the monomial ``powers``."""
        w = self.width
        hbar, m, omega, theta, eta, tau = powers
        return ((((((((((tau << w) + eta) << w) + theta) << w) + omega) << w) + m) << w)
                + hbar) << (w * _EXPONENT_FIELD)


def _extent(e: Expression) -> tuple:
    """The length of the longest word of ``e`` and the largest magnitude of
    its exponents."""
    letters = exponent = 0
    for word, powers in e.terms:
        letters = max(letters, len(word))
        exponent = max(exponent, max(powers), -min(powers))
    return letters, exponent


def _insert(form: dict, unit: Optional[int], brackets: tuple, mask: int, out: dict,
            scale: Optional[tuple] = None) -> dict:
    """Add to ``out``, and return it, what moving a letter g into each term
    of the packed normal-ordered ``form`` leaves: the term with g placed
    (its key plus ``unit``) unless ``unit`` is None, and for each letter s
    of ``brackets`` that the word holds, the central bracket it maps s to
    times the word without s.  A ``scale`` (delta, re, im) first multiplies
    each term by (re + i*im) and the monomial of the packed ``delta``.

    Placing a letter is one add, so every word stays sorted.  Dropping any
    of the m letters of a run of s leaves the same word, so a run adds m
    times its bracket once; m is the count field of s.
    """
    get = out.get
    if scale is not None:
        delta, sr, si = scale
    for key, (a, b) in form.items():
        if scale is not None:
            key += delta
            a, b = a * sr - b * si, a * si + b * sr
        if unit is not None:
            placed = key + unit
            acc = get(placed)
            out[placed] = (a, b) if acc is None else (acc[0] + a, acc[1] + b)
        for shift, drop, pairs in brackets:
            m = key >> shift & mask
            if m:
                rest = key - drop
                ma, mb = a * m, b * m
                for delta_p, cr, ci in pairs:
                    k = rest + delta_p
                    re, im = ma * cr - mb * ci, ma * ci + mb * cr
                    acc = get(k)
                    out[k] = (re, im) if acc is None else (acc[0] + re, acc[1] + im)
    return out


def _image_of(images: Mapping[str, Expression], g: str, table: AlgebraTable) -> Expression:
    image = images.get(g)
    if image is None:
        raise MissingImageError(f"no image for generator {g!r}")
    if image.alphabet not in (None, table.name):
        raise MixedAlphabetError(
            f"image of {g!r} over {image.alphabet!r} cannot be ordered by the "
            f"{table.name!r} table"
        )
    return image


def _factors(e: Expression, images: Mapping[str, Expression], table: AlgebraTable) -> dict:
    """The image of each generator of ``e``, in the order of the prefix walk,
    over the lcm L of its denominators: g maps to (L, image terms), one
    (powers, re, im, letter ranks) tuple of Gaussian integers per term."""
    factors = {}
    for word, _powers in sorted(e.terms):
        for g in word:
            if g not in factors:
                image = _image_of(images, g, table)
                scale = lcm(*(c._d for c in image.terms.values()))
                factors[g] = scale, tuple(
                    (p, c._a * (scale // c._d), c._b * (scale // c._d),
                     tuple(_RANK[h] for h in w))
                    for (w, p), c in image.terms.items())
    return factors


def _times_image(form: dict, image: tuple, layout: _Layout) -> dict:
    """The packed normal-ordered product form * image, one image word at a
    time.  Each word scales ``form`` as its first letter moves in, and its
    last letter is placed straight into the result."""
    out: dict = {}
    units, after, mask = layout.units, layout.after, layout.mask
    for scale, ranks in image:
        if not ranks:
            _insert(form, 0, (), mask, out, scale)
            continue
        part = form
        for r in ranks[:-1]:
            part = _insert(part, units[r], after[r], mask, {}, scale)
            scale = None
        _insert(part, units[ranks[-1]], after[ranks[-1]], mask, out, scale)
    return out


def _ordered(e: Expression, layout: _Layout, factors: Optional[dict] = None) -> tuple:
    """(form, D): the packed term map of normal_order(e, table, images),
    with Gaussian-integer numerators over the common denominator D.

    ``factors`` holds the images as ``_factors`` returns them.  The words are
    walked in sorted order as a prefix trie: forms[k] is the normal-ordered
    product of the first k letters (or their scaled images) of the current
    word, shared by every word with that prefix.  A word ends by adding its
    form times the term's coefficient, over D, and its parameter powers.
    """
    terms = sorted(e.terms.items(), key=lambda item: item[0][0])
    # The denominator of each word's product: its coefficient's times its
    # images'.
    dens = []
    for (word, _powers), coef in terms:
        d = coef._d
        if factors is not None:
            for g in word:
                d *= factors[g][0]
        dens.append(d)
    denominator = lcm(*dens)
    if factors is not None:
        images = {g: tuple(((layout.monomial(p), re, im), ranks) for p, re, im, ranks in image)
                  for g, (_scale, image) in factors.items()}
    units, after, mask = layout.units, layout.after, layout.mask
    out: dict = {}
    forms = [{layout.base: (1, 0)}]
    previous: Word = ()
    for ((word, powers), coef), d in zip(terms, dens):
        k = 0
        while k < len(word) and k < len(previous) and word[k] == previous[k]:
            k += 1
        del forms[k + 1 :]
        for g in word[k:]:
            if factors is None:
                r = _RANK[g]
                forms.append(_insert(forms[-1], units[r], after[r], mask, {}))
            else:
                forms.append(_times_image(forms[-1], images[g], layout))
        f = denominator // d
        _insert(forms[-1], 0, (), mask, out, (layout.monomial(powers), coef._a * f, coef._b * f))
        previous = word
    return out, denominator


def _unpacked(form: dict, layout: _Layout, denominator: int) -> dict:
    """The Expression term map of a packed form whose numerators are over
    ``denominator``: each term's word from its counts, its powers from its
    exponent fields and its coefficient reduced once."""
    width, mask, bias = layout.width, layout.mask, layout.bias
    g0, g1, g2, g3 = layout.table.alphabet
    carried = layout.table._denominator
    counted = width * _EXPONENT_FIELD
    counts_mask = (1 << counted) - 1
    words: dict = {}
    monomials: dict = {}
    terms: dict = {}
    for key, (a, b) in form.items():
        if not a and not b:
            continue
        counts = key & counts_mask
        word = words.get(counts)
        if word is None:
            word = words[counts] = (
                (g0,) * (counts & mask) + (g1,) * (counts >> width & mask)
                + (g2,) * (counts >> 2 * width & mask) + (g3,) * (counts >> 3 * width))
        fields = key >> counted
        monomial = monomials.get(fields)
        if monomial is None:
            powers = (
                (fields & mask) - bias, (fields >> width & mask) - bias,
                (fields >> 2 * width & mask) - bias, (fields >> 3 * width & mask) - bias,
                (fields >> 4 * width & mask) - bias, (fields >> 5 * width & mask) - bias)
            monomial = monomials[fields] = (
                powers, denominator * carried ** (fields >> 6 * width))
        powers, d = monomial
        coef = _reduced(a, b, d)
        acc = terms.get((word, powers))
        terms[(word, powers)] = coef if acc is None else acc + coef
    return terms


def normal_order(e: Expression, table: AlgebraTable,
                 images: Optional[Mapping[str, Expression]] = None) -> Expression:
    """Rewrite every word to nondecreasing generator rank, after replacing
    each generator g by ``images[g]`` when a mapping is given."""
    if images is None and e.alphabet not in (None, table.name):
        raise MixedAlphabetError(
            f"expression over {e.alphabet!r} cannot be ordered by the "
            f"{table.name!r} table"
        )
    letters, exponent = _extent(e)
    factors = None
    if images is not None:
        factors = _factors(e, images, table)
        terms = [term for _scale, image in factors.values() for term in image]
        exponent += letters * max((abs(x) for p, *_ in terms for x in p), default=0)
        letters *= max((len(ranks) for *_, ranks in terms), default=0)
    layout = _Layout(table, letters, exponent + letters * table._exponent)
    form, denominator = _ordered(e, layout, factors)
    return _trusted(table.name, _unpacked(form, layout, denominator))


def commutator(a: Expression, b: Expression, table: AlgebraTable) -> Expression:
    """normal_order(a*b - b*a), built from the ordered operand N(a).

    For a sorted word u, [u, g] is the sum over the letters s of u of the
    central [s, g] times u without s, so [N(a), g] takes one pass and no
    product.  By the Leibniz rule [a, g_1...g_k] is the sum over j of
    g_1...g_{j-1} [a, g_j] g_{j+1}...g_k, so each word of b prepends and
    appends its other letters to [N(a), g_j].  The leading words of a*b and
    b*a, which cancel, are never built.  b is the operand with the shorter
    words, by [a, b] = -[b, a].
    """
    a, b = _as_expression(a), _as_expression(b)
    if _unify_alphabets(a.alphabet, b.alphabet) not in (None, table.name):
        # Operands over another alphabet fail to order, unless a*b - b*a
        # cancels before ordering; that route keeps both outcomes.
        return normal_order(a * b - b * a, table)
    swapped = b.max_word_length() > a.max_word_length()
    if swapped:
        a, b = b, a
    (a_letters, a_exponent), (b_letters, b_exponent) = _extent(a), _extent(b)
    letters = a_letters + b_letters
    layout = _Layout(table, letters, a_exponent + b_exponent + letters * table._exponent)
    ordered, denominator = _ordered(a, layout)
    units, after, before, mask = layout.units, layout.after, layout.before, layout.mask
    # b's coefficients over their common denominator, the sign of the swap
    # included.
    common = lcm(*(coef._d for coef in b.terms.values()))
    sign = -1 if swapped else 1
    commuted: dict = {}  # [N(a), g] per letter g
    out: dict = {}
    for (word, powers), coef in b.terms.items():
        f = sign * (common // coef._d)
        scale = (layout.monomial(powers), coef._a * f, coef._b * f)
        for j, g in enumerate(word):
            part = commuted.get(g)
            if part is None:
                part = commuted[g] = _insert(ordered, None, layout.commuted[_RANK[g]], mask, {})
            for h in word[j + 1 :]:
                r = _RANK[h]
                part = _insert(part, units[r], after[r], mask, {})
            for h in reversed(word[:j]):
                r = _RANK[h]
                part = _insert(part, units[r], before[r], mask, {})
            _insert(part, 0, (), mask, out, scale)
    return _trusted(table.name, _unpacked(out, layout, denominator * common))


def jacobi(a: Expression, b: Expression, c: Expression, table: AlgebraTable) -> Expression:
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]], normal ordered."""
    return (
        commutator(a, commutator(b, c, table), table)
        + commutator(b, commutator(c, a, table), table)
        + commutator(c, commutator(a, b, table), table)
    )


def formal_adjoint(e: Expression) -> Expression:
    """Reverse each word and conjugate each coefficient.

    All lowercase generators are self-adjoint and the parameters are real,
    so the formal dagger needs no further data.
    """
    return _trusted(
        e.alphabet,
        {
            (tuple(reversed(word)), powers): coef.conjugate()
            for (word, powers), coef in e.terms.items()
        },
    )


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def _exponent_map(mapping, what: str) -> dict:
    if not isinstance(mapping, Mapping):
        raise AlgebraError(f"{what} must map parameter names to integers")
    for pname, exp in mapping.items():
        if pname not in _PARAM_INDEX:
            raise AlgebraError(f"unknown parameter {pname!r} in {what}")
        if isinstance(exp, bool) or not isinstance(exp, int):
            raise AlgebraError(f"{what} must give {pname} an integer exponent")
    return dict(mapping)


@dataclass(frozen=True)
class TruncationPolicy:
    """Per-parameter exponent caps plus forbidden cross-monomial patterns.

    A term is dropped when some exponent exceeds its cap, or when its
    exponent vector dominates one of the forbidden patterns componentwise.
    Patterns and caps are given over parameter names.
    """

    caps: Mapping[str, int]
    forbidden: tuple  # tuple of exponent-vector patterns

    @staticmethod
    def of(caps: Mapping[str, int] = MappingProxyType({}),
           forbidden: Iterable[Mapping[str, int]] = ()) -> "TruncationPolicy":
        """Build a policy, checking that ``caps`` and every pattern map known
        parameter names to integers and that ``forbidden`` is a list.

        A cap below 0 on theta, eta or tau, whose exponents are never
        negative, and a pattern with no positive exponent, which every
        monomial dominates, would drop every term, so both are rejected.
        """
        if not isinstance(forbidden, (list, tuple)):
            raise AlgebraError("forbidden must be a list of exponent patterns")
        caps = _exponent_map(caps, "caps")
        for pname in _NONNEGATIVE:
            if caps.get(pname, 0) < 0:
                raise AlgebraError(f"the cap on {pname} must be at least 0")
        patterns = tuple(
            powers_of(**_exponent_map(pattern, "a forbidden pattern"))
            for pattern in forbidden
        )
        if not all(max(pattern) > 0 for pattern in patterns):
            raise AlgebraError("a forbidden pattern needs a positive exponent")
        return TruncationPolicy(caps, patterns)

    def keeps(self, powers: Powers) -> bool:
        for pname, cap in self.caps.items():
            if powers[_PARAM_INDEX[pname]] > cap:
                return False
        for pattern in self.forbidden:
            if all(p >= q for p, q in zip(powers, pattern) if q > 0):
                return False
        return True


# First order in each deformation parameter, no cross terms: the truncation
# that keeps exactly the undeformed part plus the three linear corrections.
DEFAULT_POLICY = TruncationPolicy.of(
    forbidden=[
        {"theta": 1, "eta": 1},
        {"tau": 1, "theta": 1},
        {"tau": 1, "eta": 1},
        {"tau": 2},
        {"eta": 2},
        {"theta": 2},
    ]
)

# Keeps theta, eta, tau up to first power each but allows their products.
FIRST_ORDER_CROSS_POLICY = TruncationPolicy.of(caps={"theta": 1, "eta": 1, "tau": 1})

# Kills every deformation parameter: the undeformed oscillator survives.
UNDEFORMED_POLICY = TruncationPolicy.of(caps={"theta": 0, "eta": 0, "tau": 0})


def truncate(e: Expression, policy: TruncationPolicy) -> Expression:
    return _trusted(
        e.alphabet,
        {
            (word, powers): coef
            for (word, powers), coef in e.terms.items()
            if policy.keeps(powers)
        },
    )
