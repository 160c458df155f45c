"""Expression parser.

Grammar (whitespace insignificant, '*' always explicit):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := ('+' | '-')* power
    power    := atom ('^' ['-'] INT)?
    atom     := INT | NAME | 'sqrt' '(' NAME ')' | '(' expr ')'
    INT      := [0-9]+ (ASCII; field.INT)
    NAME     := [a-z][a-z0-9]* (context.NAME)

Exponents bind tighter than unary minus, so -x1^2 is -(x1^2), and may be
negative ("x1^-1" is 1/x1). Undeclared names raise UnknownSymbol; all
other lexical/syntactic trouble raises ParseError with a character
position.

Parsing evaluates as it reads, and keeps a polynomial subtree a Poly:
integers, names, specialized constants and sqrt(p) are Poly values, and
so are the sum, difference and product of two Polys, a Poly to a power
n >= 0 (Poly.__pow__), and a Poly divided by a nonzero constant (scaled
by its inverse). A RatFunc is formed only where a quotient needs one: a Poly
divided by a nonconstant Poly is RatFunc(num, den), one gcd.cancel. Any
operation with a RatFunc operand lifts the Poly operand (RatFunc.from_poly)
and uses the RatFunc operators, and a RatFunc whose denominator is one
is kept as its numerator. parse returns the canonical RatFunc of the
value; canonical parts are unique (qmi.ratfunc), so it is the RatFunc
that evaluating every node as a RatFunc would give.

An optional env maps extra names to already-parsed values; it is
consulted before the context's own symbols, letting callers thread local
abbreviations through long expressions.
"""

from __future__ import annotations

import re
from operator import add, mul, sub

from .context import NAME, Context
from .errors import DivisionByZero, ParseError, UnknownSymbol
from .field import INT
from .poly import Poly
from .ratfunc import RatFunc

# One token per match; finditer skips whitespace (\s is exactly str.isspace).
_TOKEN_RE = re.compile(rf"(?P<int>{INT})|(?P<name>{NAME})|(?P<op>[-+*/^()])|(?P<bad>\S)")

Value = Poly | RatFunc


def _lifted(v: Value) -> RatFunc:
    return v if isinstance(v, RatFunc) else RatFunc.from_poly(v)


def _lowered(r: RatFunc) -> Value:
    return r.num if r.den.is_one() else r


def _combine(op, a: Value, b: Value) -> Value:
    """a + b, a - b or a * b: a Poly when both operands are."""
    if isinstance(a, Poly) and isinstance(b, Poly):
        return op(a, b)
    return _lowered(op(_lifted(a), _lifted(b)))


def _quotient(a: Value, b: Value) -> Value:
    """a / b: a Poly when b is a nonzero constant, else one RatFunc."""
    if isinstance(a, Poly) and isinstance(b, Poly):
        if not b.is_constant():
            return _lowered(RatFunc(a, b))
        a._check(b)
        if b.is_zero():
            raise DivisionByZero("division by zero rational function")
        return a.scale(a.ctx.field.inv(next(iter(b.terms.values()))))
    return _lowered(_lifted(a) / _lifted(b))


def _power(v: Value, n: int) -> Value:
    if isinstance(v, Poly) and n >= 0:
        return v**n
    return _lowered(_lifted(v) ** n)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind  # "int" | "name" | "op" | "end"
        self.text = text
        self.pos = pos


def _lex(text: str) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        out.append(_Token(m.lastgroup, m[0], m.start()))
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, ctx: Context, text: str, env=None) -> None:
        self.ctx = ctx
        self.env = env or {}
        self.tokens = _lex(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    def parse(self) -> RatFunc:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return _lifted(value)

    def expr(self) -> Value:
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                rhs = self.term()
                value = _combine(add if tok.text == "+" else sub, value, rhs)
            else:
                return value

    def term(self) -> Value:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.take()
                rhs = self.unary()
                value = _combine(mul, value, rhs) if tok.text == "*" else _quotient(value, rhs)
            else:
                return value

    def unary(self) -> Value:
        sign = 1
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                if tok.text == "-":
                    sign = -sign
            else:
                break
        value = self.power()
        return -value if sign < 0 else value

    def power(self) -> Value:
        value = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            neg = False
            tok = self.peek()
            if tok.kind == "op" and tok.text == "-":
                self.take()
                neg = True
            tok = self.take()
            if tok.kind != "int":
                raise ParseError("expected integer exponent", tok.pos)
            n = int(tok.text)
            value = _power(value, -n if neg else n)
        return value

    def atom(self) -> Value:
        tok = self.take()
        if tok.kind == "int":
            return Poly.const(self.ctx, int(tok.text))
        if tok.kind == "name":
            if tok.text == "sqrt" and self.peek().kind == "op" and self.peek().text == "(":
                self.take()
                inner = self.take()
                if inner.kind != "name":
                    raise ParseError("expected a parameter name under sqrt", inner.pos)
                self.expect_op(")")
                idx = self.ctx.root_symbol_index(inner.text)
                return Poly.symbol(self.ctx, idx)
            return self._name(tok)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)

    def _name(self, tok: _Token) -> Value:
        name = tok.text
        if name in self.env:
            return _lowered(self.env[name])
        if name in self.ctx.constants:
            c = self.ctx.constants[name]
            return Poly(self.ctx, {(0,) * self.ctx.nsym: c} if c else {})
        if name in self.ctx.index:
            return Poly.named(self.ctx, name)
        raise UnknownSymbol(f"{name!r} is not declared in this context")


def parse(ctx: Context, text: str, env: "dict[str, RatFunc] | None" = None) -> RatFunc:
    """Parse an expression over the given context into a RatFunc."""
    return _Parser(ctx, text, env).parse()
