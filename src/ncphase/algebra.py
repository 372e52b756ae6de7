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
Words that share a prefix share its ordered product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Optional

from .rationals import GR_I, GR_ONE, GaussianRational

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
    return tuple(map(add, a, b))


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
        # A purely scalar expression is alphabet-agnostic.
        if not any(word for (word, _p) in clean):
            alphabet = None
        self = object.__new__(cls)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "terms", clean)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    def __reduce__(self):
        return Expression, (self.alphabet, self.terms)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(alphabet: Optional[str] = None) -> "Expression":
        return Expression(alphabet, {})

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
        return Expression(alpha, merged)

    __radd__ = __add__

    def __sub__(self, other) -> "Expression":
        return self + (-_as_expression(other))

    def __rsub__(self, other) -> "Expression":
        return _as_expression(other) + (-self)

    def __neg__(self) -> "Expression":
        return Expression(
            self.alphabet, {key: -coef for key, coef in self.terms.items()}
        )

    def __mul__(self, other) -> "Expression":
        if isinstance(other, _COEFFICIENT_TYPES):
            c = _as_coefficient(other)
            return Expression(
                self.alphabet, {key: coef * c for key, coef in self.terms.items()}
            )
        other = _as_expression(other)
        alpha = _unify_alphabets(self.alphabet, other.alphabet)
        out: dict = {}
        for (wa, pa), ca in self.terms.items():
            for (wb, pb), cb in other.terms.items():
                key = (wa + wb, _add_powers(pa, pb))
                coef = ca * cb
                acc = out.get(key)
                out[key] = coef if acc is None else acc + coef
        return Expression(alpha, out)

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


def _accumulate(out: dict, key, coef: GaussianRational) -> None:
    acc = out.get(key)
    out[key] = coef if acc is None else acc + coef


def _add_scaled(out: dict, form: dict, coef: GaussianRational, powers: Powers) -> None:
    """Add coef * (parameter monomial) * form into ``out``, word by word."""
    if coef == GR_ONE and powers == ZERO_POWERS:  # e.g. the q1 of x = q1 - ...
        for key, c in form.items():
            _accumulate(out, key, c)
        return
    for (word, p), c in form.items():
        _accumulate(out, (word, _add_powers(p, powers)), c * coef)


def _append(form: dict, g: str, table: AlgebraTable) -> dict:
    """The normal-ordered product form * g, for a normal-ordered ``form``.

    g goes into its sorted place in each word u = s_1...s_k.  Moving it left
    past each letter s_i of higher rank leaves the central [s_i, g] times u
    without s_i, a word that is still sorted, so no term needs re-sorting.
    """
    r = _RANK[g]
    out: dict = {}
    for (word, powers), coef in form.items():
        j = len(word)
        while j and _RANK[word[j - 1]] > r:
            j -= 1
        _accumulate(out, (word[:j] + (g,) + word[j:], powers), coef)
        for i in range(j, len(word)):
            comm = table.entries.get((word[i], g))
            if comm is not None:
                rest = word[:i] + word[i + 1 :]
                for (_scalar, p), c in comm.terms.items():
                    _accumulate(out, (rest, _add_powers(powers, p)), coef * c)
    return out


def _times_image(form: dict, image: Expression, table: AlgebraTable) -> dict:
    """The normal-ordered product form * image, one image word at a time."""
    out: dict = {}
    for (word, powers), coef in image.terms.items():
        part = form
        for g in word:
            part = _append(part, g, table)
        _add_scaled(out, part, coef, powers)
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


def normal_order(e: Expression, table: AlgebraTable,
                 images: Optional[Mapping[str, Expression]] = None) -> Expression:
    """Rewrite every word to nondecreasing generator rank, after replacing
    each generator g by ``images[g]`` when a mapping is given.

    The words are walked in sorted order as a prefix trie: forms[k] is the
    normal-ordered product of the first k letters (or their images) of the
    current word, shared by every word with that prefix, and each letter is
    appended by ``_append``, which keeps the product ordered.  A word ends
    by adding its form times the term's coefficient and parameter powers.
    """
    if images is None and e.alphabet not in (None, table.name):
        raise MixedAlphabetError(
            f"expression over {e.alphabet!r} cannot be ordered by the "
            f"{table.name!r} table"
        )
    out: dict = {}
    forms = [{((), ZERO_POWERS): GR_ONE}]
    previous: Word = ()
    for (word, powers), coef in sorted(e.terms.items(), key=lambda item: item[0][0]):
        k = 0
        while k < len(word) and k < len(previous) and word[k] == previous[k]:
            k += 1
        del forms[k + 1 :]
        for g in word[k:]:
            if images is None:
                forms.append(_append(forms[-1], g, table))
            else:
                forms.append(_times_image(forms[-1], _image_of(images, g, table), table))
        _add_scaled(out, forms[-1], coef, powers)
        previous = word
    return Expression(table.name, out)


def commutator(a: Expression, b: Expression, table: AlgebraTable) -> Expression:
    """normal_order(a*b - b*a)."""
    return normal_order(a * b - b * a, table)


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
    return Expression(
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
    def of(caps: Optional[Mapping[str, int]] = None,
           forbidden: Iterable[Mapping[str, int]] = ()) -> "TruncationPolicy":
        """Build a policy, checking that ``caps`` and every pattern map known
        parameter names to integers and that ``forbidden`` is a list.

        A cap below 0 on theta, eta or tau, whose exponents are never
        negative, and a pattern with no positive exponent, which every
        monomial dominates, would drop every term, so both are rejected.
        """
        if not isinstance(forbidden, (list, tuple)):
            raise AlgebraError("forbidden must be a list of exponent patterns")
        caps = _exponent_map(caps or {}, "caps")
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
    return Expression(
        e.alphabet,
        {
            (word, powers): coef
            for (word, powers), coef in e.terms.items()
            if policy.keeps(powers)
        },
    )
