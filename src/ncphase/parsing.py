"""Mini-grammar for operator expressions.

Grammar (whitespace ignored)::

    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := ("+" | "-")* power
    power   := atom ("^" INT)?          # nonnegative integer exponents
    atom    := NUMBER | IDENT | "(" expr ")" | "[" expr "," expr "]"
    NUMBER  := INT ("/" INT)?           # integer or rational literal

Identifiers: the canonical generators q1 q2 pi1 pi2, the noncommutative
generators x y px py, the named operators X Y Px Py (which expand to their
defining noncommutative expressions), the imaginary unit i, and the
parameters hbar m omega theta eta tau.

Commutator brackets expand to a*b - b*a.  The result is unreduced: products
are distributed and like terms collected, but no normal ordering happens.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PARAMS, Expression
from .rationals import GR_I

_GENERATORS = ("q1", "q2", "pi1", "pi2", "x", "y", "px", "py")
_NAMED = ("X", "Y", "Px", "Py")


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol {name!r}", position)
        self.name = name


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()[],":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            numerator = int(text[start:i])
            if i < n and text[i] == "/":
                j = i + 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("expected digits after '/'", j)
                i = j
                while i < n and text[i].isdigit():
                    i += 1
                denominator = int(text[j:i])
                if denominator == 0:
                    raise ParseError("zero denominator", j)
                tokens.append(_Token("number", Fraction(numerator, denominator), start))
            else:
                tokens.append(_Token("number", Fraction(numerator), start))
            continue
        if c.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, named_operators):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.named_operators = named_operators

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.kind!r}", tok.pos)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek().kind in "+-":
            if self.advance().kind == "+":
                e = e + self.term()
            else:
                e = e - self.term()
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.peek().kind == "*":
            self.advance()
            e = e * self.factor()
        return e

    def factor(self) -> Expression:
        sign = 1
        while self.peek().kind in "+-":
            if self.advance().kind == "-":
                sign = -sign
        e = self.power()
        return e if sign == 1 else -e

    def power(self) -> Expression:
        e = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("number")
            if tok.value.denominator != 1 or tok.value < 0:
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            e = e ** int(tok.value)
        return e

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Expression.from_scalar(Fraction(tok.value))
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "[":
            self.advance()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return a * b - b * a
        if tok.kind == "ident":
            self.advance()
            return self.identifier(tok)
        raise ParseError(f"unexpected {tok.kind!r}", tok.pos)

    def identifier(self, tok: _Token) -> Expression:
        name = tok.value
        if name in _GENERATORS:
            return Expression.generator(name)
        if name == "i":
            return Expression.from_scalar(GR_I)
        if name in PARAMS:
            return Expression.from_scalar(1, **{name: 1})
        if name in _NAMED:
            return self.named_operators[name]
        raise UnknownSymbolError(name, tok.pos)


def parse(text: str) -> Expression:
    """Parse an expression string into an unreduced Expression."""
    # Imported here to avoid an import cycle: the named operators are
    # themselves expressions built from this module's grammar primitives.
    from .maps import NAMED_OPERATORS

    return _Parser(text, NAMED_OPERATORS).parse()
