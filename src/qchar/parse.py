"""Text expressions for ring elements.

Grammar, whitespace insensitive:

    expr     := ("+" | "-")? term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := base ("^" nat)?
    base     := rational | ident | "(" expr ")"
    rational := nat ("/" nat)?

There is no implicit multiplication and no division operator; "/" only
occurs inside a rational literal.  Exponents are nonnegative integers.
The grammar covers everything the canonical renderer emits, so
rendering and parsing round-trip.

Parsing and evaluation are one pass: each grammar rule returns the ring
element it denotes, and no parse tree is built.  A token is read only
when a rule looks at it, so errors are reported left to right: the
first problem in the text, lexical, syntactic or an identifier the ring
does not know, is the one raised.  `h3 + (` in a ring without h3 names
h3 at position 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .quotient import AlgebraElement, PresentedAlgebra


class ParseError(ValueError):
    """Lexical or syntax problem, with a 1-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (position %d)" % (message, position))
        self.position = position


_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^/()])")


def _tokenize(src: str) -> Iterator[Tuple[str, str, int]]:
    """(kind, text, 1-based position) for each token, read on demand, then
    the end token for good."""
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(src, i)
        if m is None:
            raise ParseError("unexpected character %r" % src[i], i + 1)
        kind = "num" if m.group(1) else "ident" if m.group(2) else m.group(3)
        yield (kind, m.group(), i + 1)
        i = m.end()
    while True:
        yield ("end", "", len(src) + 1)


class _Parser:
    """Recursive descent over the token stream; each rule returns its value."""

    def __init__(self, src: str, algebra: PresentedAlgebra):
        self.tokens = _tokenize(src)
        self.tok: Optional[Tuple[str, str, int]] = None  # lexed, not consumed
        self.algebra = algebra

    def peek(self) -> Tuple[str, str, int]:
        if self.tok is None:
            self.tok = next(self.tokens)
        return self.tok

    def advance(self) -> Tuple[str, str, int]:
        tok = self.peek()
        self.tok = None
        return tok

    def expect(self, kind: str, what: str) -> Tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected %s" % what, tok[2])
        return tok

    def parse(self) -> AlgebraElement:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected %r" % tok[1], tok[2])
        return value

    def expr(self) -> AlgebraElement:
        sign = None
        if self.peek()[0] in ("+", "-"):
            sign = self.advance()[0]
        value = self.term()
        if sign == "-":
            value = -value
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> AlgebraElement:
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> AlgebraElement:
        value = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num", "a nonnegative integer exponent")
            value = value ** int(tok[1])
        return value

    def base(self) -> AlgebraElement:
        tok = self.advance()
        if tok[0] == "num":
            value = Fraction(int(tok[1]))
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("num", "an integer denominator")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                value = value / int(den[1])
            return self.algebra.constant(value)
        if tok[0] == "ident":
            algebra, name = self.algebra, tok[1]
            if name in algebra.gens.names:
                return algebra.generator(name)
            if name in algebra.q_vars.names:
                return algebra.q_element(name)
            raise ParseError("unknown identifier %r for this ring" % name, tok[2])
        if tok[0] == "(":
            value = self.expr()
            self.expect(")", "a closing parenthesis")
            return value
        raise ParseError("expected a number, identifier or parenthesis",
                         tok[2])


def parse_element(src: str, algebra: PresentedAlgebra) -> AlgebraElement:
    """Parse src and evaluate it in algebra, in one left-to-right pass."""
    return _Parser(src, algebra).parse()
