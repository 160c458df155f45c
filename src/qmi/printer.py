"""Canonical text form for polynomials and rational functions.

The printer is the inverse of the parser on canonical values: parsing a
printed string reproduces the object exactly. Terms appear in descending
monomial order; factors inside a term in symbol order (roots, then
parameters, then variables). Rational coefficients print as n or n/d;
prime-field coefficients as their 0..p-1 representatives.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from .poly import Poly
from .ratfunc import RatFunc


def format_poly(p: Poly) -> str:
    return "".join(term_texts(p)) if not p.is_zero() else "0"


def term_texts(p: Poly, number: Callable[[Any], str] = str) -> Iterator[str]:
    """The text of each term of p in order, its sign included; format_poly
    joins them all. number writes the absolute value of a coefficient."""
    for i, (exps, coeff) in enumerate(p.sorted_terms()):
        # An int or a Fraction n/d (d > 1) prints as n or n/d; a residue
        # mod p is never negative.
        body = number(abs(coeff))
        mono = "*".join(s if k == 1 else f"{s}^{k}" for s, k in zip(p.ctx.symbols, exps) if k)
        if mono:
            body = mono if body == "1" else f"{body}*{mono}"
        sign = (" - " if coeff < 0 else " + ") if i else ("-" if coeff < 0 else "")
        yield sign + body


def format_ratfunc(f: RatFunc) -> str:
    if f.den.is_one():
        return format_poly(f.num)
    return f"({format_poly(f.num)})/({format_poly(f.den)})"
