"""Recursive-descent parser for the input expression grammar.

Expressions are built from integer literals, the tower variables, the four
arithmetic operations, integer powers and parentheses.  Evaluation is exact:
rationals stay rationals and division by a series produces a truncated
inverse at the working precision.  Syntax errors carry 1-based line/column
positions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import HigherLocalError, SpecSyntaxError
from .series import TowerElement, TowerField, _element

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


# A Laurent polynomial: {exponents, innermost first: nonzero int or Fraction}.
Laurent = Dict[Tuple[int, ...], Union[int, Fraction]]


def _add(a: Laurent, b: Laurent, sign: int) -> Laurent:
    out = dict(a)
    for e, q in b.items():
        v = out.get(e, 0) + sign * q
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _by_outer(terms: Laurent) -> Dict[int, Laurent]:
    """``terms`` grouped by the outermost exponent, over the inner exponents."""
    out: Dict[int, Laurent] = {}
    for e, q in terms.items():
        out.setdefault(e[-1], {})[e[:-1]] = q
    return out


def _by_inner(terms: Laurent) -> Dict[Tuple[int, ...], Dict[int, Union[int, Fraction]]]:
    """``terms`` grouped by the outer exponents, over the int innermost exponent."""
    out: Dict[Tuple[int, ...], Dict[int, Union[int, Fraction]]] = {}
    for e, q in terms.items():
        out.setdefault(e[1:], {})[e[0]] = q
    return out


def _mul(a: Laurent, b: Laurent) -> Laurent:
    """The product: per pair of outer exponent tuples, one product of the
    innermost parts, keyed by int exponents."""
    out: Dict[Tuple[int, ...], Dict[int, Union[int, Fraction]]] = {}
    inner_b = [(kb, list(rb.items())) for kb, rb in _by_inner(b).items()]
    for ka, ra in _by_inner(a).items():
        for kb, rb in inner_b:
            acc = out.setdefault(tuple(x + y for x, y in zip(ka, kb)), {})
            get = acc.get
            for x, qa in ra.items():
                for y, qb in rb:
                    e = x + y
                    acc[e] = get(e, 0) + qa * qb
    return {(e,) + k: q for k, acc in out.items() for e, q in acc.items() if q}


def _pow(a: Laurent, n: int, level: int) -> Laurent:
    """``a^n``, for ``n >= 0`` or a single monomial ``a``."""
    if len(a) == 1:
        ((e, q),) = a.items()
        if n < 0 and abs(q) != 1:
            q = 1 / Fraction(q)
        return {tuple(x * n for x in e): q ** abs(n)}
    if n == 0:
        return {(0,) * level: 1}
    result = None
    while True:
        if n & 1:
            result = a if result is None else _mul(result, a)
        n >>= 1
        if not n:
            return result
        a = _mul(a, a)


def _laurent_element(level: int, terms: Laurent) -> TowerElement:
    """The exact element with the nonzero monomials ``terms``, built from its canonical
    parts: at level 1 the numerators over the lcm of the denominators."""
    if level == 1:
        den = lcm(*(q.denominator for q in terms.values()))
        nums = {e: q.numerator * (den // q.denominator) for (e,), q in terms.items()}
        return _element(1, nums, den, None)
    inner = {e: _laurent_element(level - 1, t) for e, t in _by_outer(terms).items()}
    return _element(level, inner, 1, None)


class ExpressionParser:
    """Parses and evaluates one expression over a tower field.

    Laurent polynomials are evaluated as maps from exponent tuples to
    rationals: sums, products, unary minus, nonnegative powers, and
    division by or negative powers of a single monomial stay on the map,
    and each parsed expression builds one :class:`TowerElement`.  Division
    by anything else, or a negative power of it, turns the partial value
    into an element and goes on in series arithmetic.  Exact arithmetic on
    exact elements gives the map's value again, with the same window and
    exactness, so every result is equal (and hash-equal) to evaluating the
    whole expression in series arithmetic.
    """

    def __init__(self, field: TowerField, prec: Optional[int] = None):
        self.field = field
        self.prec = prec
        n = field.level
        self.vars = {
            name: {tuple(int(k == i) for k in range(n)): 1} for i, name in enumerate(field.names)
        }

    def parse(self, text: str, line: int = 1, column: int = 1) -> TowerElement:
        self._tokens = tokenize(text, line, column)
        self._pos = 0
        value = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise SpecSyntaxError(
                f"unexpected token {tok.text!r}", tok.line, tok.column
            )
        return self._series(value)

    def _series(self, value) -> TowerElement:
        if isinstance(value, TowerElement):
            return value
        return _laurent_element(self.field.level, value)

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
    # each rule returns a Laurent map, or a TowerElement once a series is involved

    def _expr(self):
        value = self._term()
        while self._peek().kind in ("+", "-"):
            op = self._next().kind
            rhs = self._term()
            if isinstance(value, dict) and isinstance(rhs, dict):
                value = _add(value, rhs, 1 if op == "+" else -1)
            else:
                a, b = self._series(value), self._series(rhs)
                value = a + b if op == "+" else a - b
        return value

    def _term(self):
        value = self._unary()
        while self._peek().kind in ("*", "/"):
            op = self._next()
            rhs = self._unary()
            laurent = isinstance(value, dict) and isinstance(rhs, dict)
            if op.kind == "*":
                value = _mul(value, rhs) if laurent else self._series(value) * self._series(rhs)
            elif laurent and len(rhs) == 1:
                value = _mul(value, _pow(rhs, -1, self.field.level))
            else:
                try:
                    value = self._series(value) * self._series(rhs).invert(self.prec)
                except HigherLocalError as exc:
                    raise SpecSyntaxError(
                        f"division failed: {exc}", op.line, op.column
                    )
        return value

    def _unary(self):
        if self._peek().kind == "-":
            self._next()
            value = self._unary()
            if isinstance(value, dict):
                return {e: -q for e, q in value.items()}
            return -value
        return self._power()

    def _power(self):
        base = self._atom()
        if self._peek().kind == "^":
            caret = self._next()
            sign = 1
            if self._peek().kind == "-":
                self._next()
                sign = -1
            tok = self._expect("int")
            exponent = sign * int(tok.text)
            if isinstance(base, dict) and (exponent >= 0 or len(base) == 1):
                return _pow(base, exponent, self.field.level)
            base = self._series(base)
            if exponent < 0:
                try:
                    base = base.invert(self.prec)
                except HigherLocalError as exc:
                    raise SpecSyntaxError(
                        f"negative power failed: {exc}", caret.line, caret.column
                    )
                return base ** (-exponent)
            return base ** exponent
        return base

    def _atom(self):
        tok = self._next()
        if tok.kind == "int":
            q = int(tok.text)
            return {(0,) * self.field.level: q} if q else {}
        if tok.kind == "name":
            if tok.text not in self.vars:
                raise SpecSyntaxError(
                    f"unknown variable {tok.text!r}", tok.line, tok.column
                )
            return self.vars[tok.text]
        if tok.kind == "(":
            value = self._expr()
            self._expect(")")
            return value
        shown = tok.text if tok.kind != "end" else "end of input"
        raise SpecSyntaxError(f"unexpected {shown!r}", tok.line, tok.column)
