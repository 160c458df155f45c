"""Coefficient fields: the rationals and odd prime fields.

A field object bundles the callable arithmetic the polynomial layer needs,
so Poly never branches on the coefficient type. Rational coefficients are
`fractions.Fraction`; prime-field coefficients are ints in 0..p-1.

Characteristic 2 is rejected: root signs and the quadratic rewrite both
need 2 to be invertible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable


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

    def of(self, value: Any) -> Any:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseField) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


class Rationals(BaseField):
    def __init__(self) -> None:
        self.name = "Q"
        self.char = 0
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.add = lambda a, b: a + b
        self.mul = lambda a, b: a * b
        self.neg = lambda a: -a

    def inv(self, a: Fraction) -> Fraction:
        if not a:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a

    def of(self, value: Any) -> Fraction:
        return Fraction(value)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField(BaseField):
    def __init__(self, p: int) -> None:
        if not _is_prime(p):
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
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
            return value.numerator * self.inv(value.denominator % self.p) % self.p
        return int(value) % self.p


QQ = Rationals()


def field_from_name(name: str) -> BaseField:
    """Resolve "Q" or "F<p>" (e.g. "F3") to a field object."""
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field name {name!r}")
