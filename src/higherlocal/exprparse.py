"""Recursive-descent parser for the input expression grammar.

Expressions are built from integer literals, the tower variables, the four
arithmetic operations, integer powers and parentheses.  Evaluation is exact:
rationals stay rationals and division by a series produces a truncated
inverse at the working precision.  Syntax errors carry 1-based line/column
positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .errors import SpecSyntaxError
from .series import TowerElement, TowerField

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | an operator | "end"
    text: str
    line: int
    column: int


def tokenize(text: str, line: int = 1, column: int = 1) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    cur_line, cur_col = line, column
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            cur_line += 1
            cur_col = 1
            i += 1
            continue
        if ch.isspace():
            cur_col += 1
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("int", text[i:j], cur_line, cur_col))
            cur_col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], cur_line, cur_col))
            cur_col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(Token(ch, ch, cur_line, cur_col))
            cur_col += 1
            i += 1
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", cur_line, cur_col)
    tokens.append(Token("end", "", cur_line, cur_col))
    return tokens


class ExpressionParser:
    """Parses and evaluates one expression over a tower field."""

    def __init__(self, field: TowerField, prec: Optional[int] = None):
        self.field = field
        self.prec = prec
        self.vars = {name: field.gen(i + 1) for i, name in enumerate(field.names)}

    def parse(self, text: str, line: int = 1, column: int = 1) -> TowerElement:
        self._tokens = tokenize(text, line, column)
        self._pos = 0
        value = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise SpecSyntaxError(
                f"unexpected token {tok.text!r}", tok.line, tok.column
            )
        return value

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str) -> Token:
        tok = self._next()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise SpecSyntaxError(
                f"expected {kind!r}, found {shown!r}", tok.line, tok.column
            )
        return tok

    # -- grammar ---------------------------------------------------------------

    def _expr(self) -> TowerElement:
        value = self._term()
        while self._peek().kind in ("+", "-"):
            op = self._next().kind
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> TowerElement:
        value = self._unary()
        while self._peek().kind in ("*", "/"):
            op = self._next()
            rhs = self._unary()
            if op.kind == "*":
                value = value * rhs
            else:
                try:
                    value = value * rhs.invert(self.prec)
                except Exception as exc:
                    raise SpecSyntaxError(
                        f"division failed: {exc}", op.line, op.column
                    )
        return value

    def _unary(self) -> TowerElement:
        if self._peek().kind == "-":
            tok = self._next()
            return -self._unary()
        return self._power()

    def _power(self) -> TowerElement:
        base = self._atom()
        if self._peek().kind == "^":
            caret = self._next()
            sign = 1
            if self._peek().kind == "-":
                self._next()
                sign = -1
            tok = self._expect("int")
            exponent = sign * int(tok.text)
            if exponent < 0:
                return base.invert(self.prec) ** (-exponent)
            return base ** exponent
        return base

    def _atom(self) -> TowerElement:
        tok = self._next()
        if tok.kind == "int":
            return self.field.rational(Fraction(int(tok.text)))
        if tok.kind == "name":
            if tok.text not in self.vars:
                raise SpecSyntaxError(
                    f"unknown variable {tok.text!r}", tok.line, tok.column
                )
            return self.vars[tok.text]
        if tok.kind == "(":
            value = self._expr()
            closing = self._next()
            if closing.kind != ")":
                shown = closing.text if closing.kind != "end" else "end of input"
                raise SpecSyntaxError(
                    f"expected ')', found {shown!r}", closing.line, closing.column
                )
            return value
        shown = tok.text if tok.kind != "end" else "end of input"
        raise SpecSyntaxError(f"unexpected {shown!r}", tok.line, tok.column)
