"""Recursive-descent parser for the input expression grammar.

Expressions are built from integer literals, the tower variables, the four
arithmetic operations, integer powers and parentheses.  Each one is
evaluated in the exact series arithmetic of :mod:`series`: rationals stay
rationals, Laurent polynomials stay exact, and division by a series produces
a truncated inverse at the parser's precision.  Syntax errors carry 1-based
line/column positions, and so does nesting too deep for Python's recursion
limit.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .errors import HigherLocalError, SpecSyntaxError
from .series import TowerElement, TowerField, sum_of_products

# an integer literal may have at most this many digits: the default of
# Python's limit on str-to-int conversion, which is process-wide
MAX_LITERAL_DIGITS = 4300

_OPS = set("+-*/^()")


class Token(NamedTuple):
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
            if j - i > MAX_LITERAL_DIGITS:
                raise SpecSyntaxError(
                    f"integer literal of {j - i} digits, more than {MAX_LITERAL_DIGITS}",
                    cur_line,
                    cur_col,
                )
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
    """Parses and evaluates one expression over a tower field.

    Every literal and variable is a field element and every operation is
    exact :class:`TowerElement` arithmetic, so a Laurent polynomial is
    evaluated exactly.  A ``+``/``-`` chain is summed once, by
    :func:`series.sum_of_products`, which equals the chained sum in value,
    window and exactness.  Division by an element, or a negative power of
    it, inverts it at the parser's precision: exactly for a monomial, as a
    truncated series otherwise.
    """

    def __init__(self, field: TowerField, prec: Optional[int] = None):
        self.field = field
        self.prec = prec
        self.vars = {name: field.gen(i + 1) for i, name in enumerate(field.names)}

    def parse(self, text: str, line: int = 1, column: int = 1) -> TowerElement:
        self._tokens = tokenize(text, line, column)
        self._pos = 0
        try:
            value = self._expr()
        except RecursionError:
            # the token where the nesting ran past Python's recursion limit
            tok = self._tokens[self._pos - 1]
            raise SpecSyntaxError("expression nested too deeply", tok.line, tok.column) from None
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
        pairs = [(1, self._term())]
        while self._peek().kind in ("+", "-"):
            pairs.append((1 if self._next().kind == "+" else -1, self._term()))
        return pairs[0][1] if len(pairs) == 1 else sum_of_products(self.field.level, pairs)

    def _term(self) -> TowerElement:
        value = self._factor()
        while self._peek().kind in ("*", "/"):
            op = self._next()
            rhs = self._factor()
            if op.kind == "*":
                value = value * rhs
                continue
            try:
                value = value * rhs.invert(self.prec)
            except HigherLocalError as exc:
                raise SpecSyntaxError(f"division failed: {exc}", op.line, op.column)
        return value

    def _factor(self) -> TowerElement:
        """``-factor``, or an atom with an optional integer power."""
        tok = self._next()
        if tok.kind == "-":
            return -self._factor()
        if tok.kind == "int":
            value = TowerElement.constant(self.field.level, int(tok.text))
        elif tok.kind == "name":
            value = self.vars.get(tok.text)
            if value is None:
                raise SpecSyntaxError(
                    f"unknown variable {tok.text!r}", tok.line, tok.column
                )
        elif tok.kind == "(":
            value = self._expr()
            self._expect(")")
        else:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise SpecSyntaxError(f"unexpected {shown!r}", tok.line, tok.column)
        if self._peek().kind != "^":
            return value
        caret = self._next()
        sign = 1
        if self._peek().kind == "-":
            self._next()
            sign = -1
        exponent = sign * int(self._expect("int").text)
        if exponent < 0:
            try:
                value = value.invert(self.prec)
            except HigherLocalError as exc:
                raise SpecSyntaxError(
                    f"negative power failed: {exc}", caret.line, caret.column
                )
        return value ** abs(exponent)
