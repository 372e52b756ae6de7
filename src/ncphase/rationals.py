"""Exact complex rationals (Gaussian rationals).

All coefficients in the symbolic layer are elements of Q[i] so that
"equals zero" is decidable.  Floating point enters only when a value is
handed to the numeric layers.

A value is stored as one reduced integer triple (a + b*i)/d with d > 0 and
gcd(a, b, d) == 1.  That form is unique, so equality compares three ints,
and the arithmetic works on ints alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction]


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    # Built in __new__, with no __init__, so that calling __init__ again on a
    # shared constant such as GR_ONE cannot rewrite it.
    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        # Over the lcm of two reduced denominators the triple is reduced.
        return _triple(re.numerator * (d // p), im.numerator * (d // q), d)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return _triple, (self._a, self._b, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        f = other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    # -- conversions --------------------------------------------------------

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is.
        return complex(self._a / self._d, self._b / self._d)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # A real value hashes as the Fraction (or int) it equals.
        if not self._b:
            return hash(self.re)
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        """Grammar-compatible text form (parse(str(x)) recovers x)."""
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{_imag_str(abs(im))})"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i)/d of a triple already in reduced form."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i)/d for any d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _triple(a, b, d)


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


def _coerce(value) -> "GaussianRational":
    """An int or Fraction as a GaussianRational, else NotImplemented."""
    if isinstance(value, int):
        return _triple(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _triple(value.numerator, 0, value.denominator)
    return NotImplemented


GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
