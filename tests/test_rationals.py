import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncphase.rationals import GR_I, GR_ONE, GaussianRational


def test_arithmetic_is_exact():
    a = GaussianRational(Fraction(1, 3), Fraction(1, 2))
    b = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
    assert a + b == GaussianRational(1, 0)
    assert a - a == GaussianRational(0)
    assert (a * b).re == Fraction(1, 3) * Fraction(2, 3) + Fraction(1, 2) * Fraction(1, 2)


def test_i_squares_to_minus_one():
    assert GR_I * GR_I == GaussianRational(-1)
    assert GR_I.conjugate() == -GR_I


def test_division_inverts_multiplication():
    a = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    b = GaussianRational(Fraction(1, 2), Fraction(4, 3))
    assert (a * b) / b == a
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


def test_integer_coercion():
    assert GR_ONE + 1 == GaussianRational(2)
    assert 2 * GR_I == GaussianRational(0, 2)
    assert 1 - GR_I == GaussianRational(1, -1)


def test_reflected_division():
    assert 1 / GR_I == -GR_I
    assert Fraction(1, 2) / GR_I == GaussianRational(0, Fraction(-1, 2))
    assert 3 / GaussianRational(1, 1) == GaussianRational(Fraction(3, 2), Fraction(-3, 2))
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0)
    with pytest.raises(TypeError):
        1.0 / GR_I


def test_equal_values_hash_equal():
    assert 1 in {GR_ONE}
    assert GR_ONE in {1}
    assert Fraction(2, 3) in {GaussianRational(Fraction(2, 3))}
    assert hash(GaussianRational(Fraction(-5, 4))) == hash(Fraction(-5, 4))
    assert hash(GaussianRational(0)) == hash(0)
    assert len({GaussianRational(Fraction(1, 2), 1), GaussianRational(Fraction(2, 4), 1)}) == 1


def test_immutability():
    with pytest.raises(AttributeError):
        GR_ONE.re = Fraction(2)
    with pytest.raises(AttributeError):
        GR_ONE._a = 2


def test_init_cannot_rewrite_a_value():
    try:
        GR_ONE.__init__(5)
        assert GR_ONE == 1 and str(GR_ONE) == "1"
        assert GaussianRational(2) * GR_ONE == 2
    finally:
        # Where __init__ could rewrite it, put it back for the later tests.
        if GR_ONE != 1:
            GR_ONE.__init__(1)


def test_pickle_and_copy_round_trip():
    z = GaussianRational(Fraction(-3, 4), Fraction(5, 6))
    for back in (pickle.loads(pickle.dumps(z)), copy.deepcopy(z), copy.copy(z)):
        assert back == z and type(back) is GaussianRational
        assert repr(back) == repr(z)


def test_str_forms():
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(GR_I) == "i"
    assert str(-GR_I) == "-i"
    assert str(GaussianRational(0, Fraction(3, 4))) == "3/4*i"
    assert str(GaussianRational(1, Fraction(-2, 3))) == "(1-2/3*i)"


def test_repr_shows_fraction_parts():
    assert repr(GR_I) == "GaussianRational(Fraction(0, 1), Fraction(1, 1))"
    assert repr(GaussianRational(Fraction(1, 2), -3)) == (
        "GaussianRational(Fraction(1, 2), Fraction(-3, 1))"
    )


# -- oracle: a (Fraction, Fraction) pair as the reference -------------------

# Small denominators from one set make equal denominators (the shortcut in
# + and -) common; st.fractions() adds large and unrelated ones.
_PARTS = st.one_of(
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 12))),
    st.fractions(),
)
_PAIRS = st.tuples(_PARTS, _PARTS)
_SCALARS = st.one_of(st.integers(-50, 50), _PARTS)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return _mul(x, (y[0] / norm, -y[1] / norm))


def _str(re, im):
    """The text form: a real part, an i-multiple, or both in parentheses."""
    if im == 0:
        return str(re)
    imag = {1: "i", -1: "-i"}.get(im, f"{im}*i")
    if re == 0:
        return imag
    mag = {1: "i"}.get(abs(im), f"{abs(im)}*i")
    return f"({re}{'+' if im > 0 else '-'}{mag})"


def _matches(z, pair):
    """z equals the pair and is stored in the reduced form."""
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (z.re, z.im) == pair
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return True


@settings(max_examples=150, deadline=None)
@given(_PAIRS, _PAIRS)
def test_arithmetic_matches_the_fraction_pair(x, y):
    zx, zy = GaussianRational(*x), GaussianRational(*y)
    assert _matches(zx, x) and _matches(zy, y)
    assert _matches(zx + zy, _add(x, y))
    assert _matches(zx - zy, _sub(x, y))
    assert _matches(zx * zy, _mul(x, y))
    assert _matches(-zx, (-x[0], -x[1]))
    assert _matches(zx.conjugate(), (x[0], -x[1]))
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            zx / zy
    else:
        assert _matches(zx / zy, _div(x, y))
    assert (zx == zy) == (x == y)
    assert (zx != zy) == (x != y)


@settings(max_examples=100, deadline=None)
@given(_PAIRS, _SCALARS)
def test_mixed_operands_match_the_fraction_pair(x, s):
    z, r = GaussianRational(*x), (Fraction(s), Fraction(0))
    assert _matches(z + s, _add(x, r)) and _matches(s + z, _add(r, x))
    assert _matches(z - s, _sub(x, r)) and _matches(s - z, _sub(r, x))
    assert _matches(z * s, _mul(x, r)) and _matches(s * z, _mul(r, x))
    if s != 0:
        assert _matches(z / s, _div(x, r))
    if x != (0, 0):
        assert _matches(s / z, _div(r, x))
    assert (z == s) == (x == r) and (s == z) == (x == r)


@settings(max_examples=150, deadline=None)
@given(_PAIRS)
def test_conversions_match_the_fraction_pair(x):
    re, im = x
    z = GaussianRational(re, im)
    assert str(z) == _str(re, im)
    assert repr(z) == f"GaussianRational({re!r}, {im!r})"
    assert z.is_zero() == (x == (0, 0))
    c, ref = complex(z), complex(float(re), float(im))
    assert (c.real.hex(), c.imag.hex()) == (ref.real.hex(), ref.imag.hex())
    # Equal values hash equal: a real value hashes as its Fraction.
    same = (z * 7 + 1) / 7 - Fraction(1, 7)
    assert same == z and hash(same) == hash(z)
    if im == 0:
        assert hash(z) == hash(re) and z == re and re in {z}
