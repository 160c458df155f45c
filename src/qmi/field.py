"""Coefficient fields: the rationals and odd prime fields.

A field object bundles the callable arithmetic the polynomial layer needs,
so Poly never branches on the coefficient type. A rational coefficient is
an `int` when it is integral and a `fractions.Fraction` with denominator
above 1 otherwise (`rational`); prime-field coefficients are ints in
0..p-1. Since `Fraction(n) == n` and `hash(Fraction(n)) == hash(n)`, the
rule changes no equality or hash of a coefficient, term dict, Poly or
RatFunc; it makes each canonical value unique in type as well, and lets
most rational coefficients skip `Fraction` arithmetic.

A sum of integers over a positive scale becomes stored coefficients by
one rule, the field's `stored(scale, terms)`, so poly, gcd and ratfunc
read no characteristic but twice in gcd: `_div` reduces its remainder
mod p, and `_ElimInfo.integral` sends only Q without constant roots to
the heuristic gcd over Z.

Every number qmi reads goes through `read_rational`, which takes an int
(not a bool), a Fraction, or text matching the token RATIONAL whole; it
refuses floats, other scripts' digits, underscores, blanks and exponents.
`is_square` is the one square test, over Q and over F_p.

Characteristic 2 is rejected: root signs and the quadratic rewrite both
need 2 to be invertible.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Any, Callable

from .errors import FactorizationLimit

# The integer token of every reader of text (parser, matrix words, field
# names): ASCII digits only, though int() also reads other scripts' digits.
INT = "[0-9]+"
# Compiled by re.fullmatch at the first text read_rational reads, not at import.
RATIONAL = rf"-?{INT}(?:/{INT})?"
_PRIME_FIELD_RE = re.compile(f"F({INT})")


class BaseField:
    """Common interface; instantiate Rationals or PrimeField."""

    name: str
    char: int
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    inv: Callable[[Any], Any]
    stored: Callable[[int, dict], dict]  # the nonzero terms / scale, stored

    def of(self, value: Any) -> Any:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseField) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __reduce__(self) -> tuple:
        # By name: the arithmetic is lambdas, which pickle cannot write.
        return field_from_name, (self.name,)

    def __repr__(self) -> str:
        return self.name


def rational(c: int | Fraction) -> int | Fraction:
    """The stored form of a rational number: an integral Fraction becomes its numerator."""
    return c.numerator if c.denominator == 1 else c


def read_rational(value: Any) -> int | Fraction:
    """An int that is not a bool, a Fraction, or text that RATIONAL matches
    whole ("-3/4"), in rational's stored form. Anything else raises
    ValueError, and a zero denominator ZeroDivisionError."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return rational(value)
    if isinstance(value, str) and re.fullmatch(RATIONAL, value):
        return rational(Fraction(value))
    raise ValueError(f"{value!r} is not a rational number: an int, a Fraction or text such as \"-3/4\"")


def is_square(field: BaseField, value: Any) -> bool:
    """Whether the field value is a square: over F_p when value^((p-1)/2) is
    not -1 (Euler), over Q when n/d has n >= 0 and n and d squares."""
    if field.char:
        return pow(value, (field.char - 1) // 2, field.char) != field.char - 1
    n, d = value.numerator, value.denominator
    return n >= 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


class Rationals(BaseField):
    def __init__(self) -> None:
        self.name = "Q"
        self.char = 0
        self.zero = 0
        self.one = 1
        self.add = lambda a, b: rational(a + b)
        self.mul = lambda a, b: rational(a * b)
        self.neg = lambda a: -a

    def inv(self, a: int | Fraction) -> int | Fraction:
        if not a:
            raise ZeroDivisionError("inverse of 0")
        return rational(Fraction(1) / a)

    def of(self, value: Any) -> int | Fraction:
        if type(value) is int:
            return value
        return read_rational(value)

    def stored(self, scale: int, terms: dict) -> dict:
        """The nonzero terms / scale by rational's rule. The terms are ints,
        or Fractions, possibly integral, from a root fold by a
        non-integral constant (sqrt(1/2)^2 = 1/2)."""
        if scale == 1:
            return {e: v if type(v) is int else rational(v) for e, v in terms.items() if v}
        return {e: v // scale if not v % scale else Fraction(v, scale) for e, v in terms.items() if v}


# The largest integer that trial division factors or tests: at most about
# 16,000 odd divisors, a few milliseconds. PrimeField, the places of
# qmi.hilbert and hilbert.prime_support all stop here.
FACTOR_BOUND = 10**9


def least_prime_factor(n: int) -> int:
    """The least prime factor of the integer n >= 2, by trial division.

    The divisors tried are 2 and the odd d up to sqrt(n). An n above
    FACTOR_BOUND raises FactorizationLimit (a ValueError), so no call
    runs longer than the bound allows.
    """
    if n > FACTOR_BOUND:
        raise FactorizationLimit(f"{n} exceeds the factoring bound {FACTOR_BOUND}")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def is_prime(n: int) -> bool:
    """Whether n is prime; FactorizationLimit above FACTOR_BOUND."""
    return n >= 2 and least_prime_factor(n) == n


class PrimeField(BaseField):
    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1
        self.add = lambda a, b: (a + b) % p
        self.mul = lambda a, b: (a * b) % p
        self.neg = lambda a: (-a) % p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def of(self, value: Any) -> int:
        value = value if type(value) is int else read_rational(value)
        if type(value) is int:
            return value % self.p
        if value.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
        return value.numerator * self.inv(value.denominator % self.p) % self.p

    def stored(self, scale: int, terms: dict) -> dict:
        """The int terms mod p, zeros dropped. The scale is 1: every lift of
        residues by poly._lift_ints has scale 1."""
        p = self.p
        return {e: v % p for e, v in terms.items() if v % p}


QQ = Rationals()


def field_from_name(name: str) -> BaseField:
    """Resolve "Q", or "F" and an INT p (e.g. "F3"), to a field; else ValueError."""
    if name == "Q":
        return QQ
    if match := _PRIME_FIELD_RE.fullmatch(name):
        return PrimeField(int(match[1]))
    raise ValueError(f"unknown field name {name!r}")
