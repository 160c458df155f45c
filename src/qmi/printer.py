"""Canonical text form for polynomials and rational functions.

The printer is the inverse of the parser on canonical values: parsing a
printed string reproduces the object exactly. Terms appear in descending
monomial order; factors inside a term in symbol order (roots, then
parameters, then variables). Rational coefficients print as n or n/d;
prime-field coefficients as their 0..p-1 representatives.
"""

from __future__ import annotations

from .poly import Poly
from .ratfunc import RatFunc


def _mono_text(p: Poly, exps: tuple[int, ...]) -> str:
    parts = []
    for idx, k in enumerate(exps):
        if k == 0:
            continue
        name = p.ctx.symbols[idx]
        parts.append(name if k == 1 else f"{name}^{k}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for exps, coeff in p.sorted_terms():
        # An int or a Fraction n/d (d > 1) prints as n or n/d; a residue
        # mod p is never negative.
        negative = coeff < 0
        body = str(abs(coeff))
        mono = _mono_text(p, exps)
        if mono:
            is_unit = body == "1"
            body = mono if is_unit else f"{body}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


def format_ratfunc(f: RatFunc) -> str:
    if f.den.is_one():
        return format_poly(f.num)
    return f"({format_poly(f.num)})/({format_poly(f.den)})"
