"""Sparse multivariate polynomials over a Context.

Representation: dict mapping exponent tuples (one slot per context symbol,
roots first, then parameters, then variables) to nonzero coefficients.
The quadratic root rewrite happens inside multiplication, so a stored
monomial never carries a root exponent above 1: whenever a product stacks
two copies of a root, the pair collapses to the underlying parameter (or
to the specialized constant).

Polynomials are immutable by convention; every operation returns a fresh
dict. Equality and hashing are structural.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from .context import Context


def _lift_ints(terms: dict) -> tuple[int, dict]:
    """Clear Fraction denominators: (common scale, integer terms)."""
    L = 1
    for c in terms.values():
        d = c.denominator
        if d != 1:
            L = L * d // math.gcd(L, d)
    return L, {e: c.numerator * (L // c.denominator) for e, c in terms.items()}


def _convolve_ints(a: dict, b: dict, folds) -> dict[tuple[int, ...], Any]:
    """Multiply two term dicts: the one loop over term pairs in qmi.

    Each fold (root slot, parameter slot, constant) halves a root
    exponent above 1, moving the pairs into the parameter slot, or, when
    the parameter slot is None, into the coefficient as a power of the
    constant. Coefficients may be any numbers; callers lift to ints where
    they can, which is what keeps the loop fast. Sums are left unreduced
    (zeros included, no modulus applied) for the caller to normalize.
    """
    out: dict[tuple[int, ...], Any] = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            c = c1 * c2
            merged = [x + y for x, y in zip(e1, e2)]
            for r, pidx, value in folds:
                if merged[r] > 1:
                    k, merged[r] = divmod(merged[r], 2)
                    if pidx is None:
                        c *= value**k
                    else:
                        merged[pidx] += k
            key = tuple(merged)
            out[key] = get(key, 0) + c
    return out


class Poly:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict[tuple[int, ...], Any]) -> None:
        self.ctx = ctx
        self.terms = terms

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, ctx: Context, value: Any) -> "Poly":
        c = ctx.field.of(value)
        if not c:
            return cls(ctx, {})
        return cls(ctx, {(0,) * ctx.nsym: c})

    @classmethod
    def symbol(cls, ctx: Context, idx: int) -> "Poly":
        exps = [0] * ctx.nsym
        exps[idx] = 1
        return cls(ctx, {tuple(exps): ctx.field.one})

    @classmethod
    def named(cls, ctx: Context, name: str) -> "Poly":
        return cls.symbol(ctx, ctx.symbol_index(name))

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        exps, coeff = next(iter(self.terms.items()))
        return not any(exps) and coeff == self.ctx.field.one

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, idx: int) -> int:
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], Any]:
        exps = max(self.terms, key=self.ctx.mono_key)
        return exps, self.terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Any]]:
        return sorted(self.terms.items(), key=lambda kv: self.ctx.mono_key(kv[0]), reverse=True)

    def uses(self) -> set[int]:
        """Indices of symbols that actually occur."""
        used: set[int] = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ctx != other.ctx:
            raise ValueError("mixed contexts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        add = self.ctx.field.add
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = add(terms[e], c)
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            else:
                terms[e] = c
        return Poly(self.ctx, terms)

    def __neg__(self) -> "Poly":
        neg = self.ctx.field.neg
        return Poly(self.ctx, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, coeff: Any) -> "Poly":
        if not coeff:
            return Poly(self.ctx, {})
        mul = self.ctx.field.mul
        return Poly(self.ctx, {e: mul(c, coeff) for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        p = ctx.field.char
        # Fraction/mod-p arithmetic normalizes on every operation, which
        # dominates large products.  Both fields embed in the integers
        # after clearing denominators, so convolve there and normalize
        # once per surviving term.
        if p:
            out = _convolve_ints(self.terms, other.terms, ctx.folds)
            return Poly(ctx, {e: v % p for e, v in out.items() if v % p})
        la, a = _lift_ints(self.terms)
        lb, b = _lift_ints(other.terms)
        out = _convolve_ints(a, b, ctx.folds)
        d = la * lb
        return Poly(ctx, {e: Fraction(v, d) for e, v in out.items() if v})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.terms.items())))

    def __str__(self) -> str:
        from .printer import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self})"
