"""Rational functions in canonical form, plus the raw substitution engine.

Canonical form: numerator and denominator share no factor (after gcd
reduction) and the denominator is normalized by gcd.unit_normal (its
leading coefficient is 1, read in the root extension when there are
constant roots). Equal rational functions therefore have equal parts and
equal hashes. Equality itself is decided by cross-multiplication.

The module-level *_raw helpers work on plain (num, den) polynomial pairs
without reduction. The verification engine composes large expressions
through them and only ever asks "is this identically zero", so no gcd is
paid on hot paths; the public RatFunc methods always return canonical
objects.
"""

from __future__ import annotations

from typing import Any, Mapping

from .context import Context
from .errors import DivisionByZero, SubstitutionPole, UnknownRoot
from .gcd import exact_div, poly_gcd, unit_normal
from .poly import Poly

Pair = tuple[Poly, Poly]


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly) -> None:
        """Canonicalizing constructor; use _make for pre-reduced parts."""
        num, den = _reduce(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, num: Poly, den: Poly) -> "RatFunc":
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls._make(p, Poly.const(p.ctx, 1))

    @classmethod
    def const(cls, ctx: Context, value: Any) -> "RatFunc":
        return cls.from_poly(Poly.const(ctx, value))

    @classmethod
    def named(cls, ctx: Context, name: str) -> "RatFunc":
        return cls.from_poly(Poly.named(ctx, name))

    @property
    def ctx(self) -> Context:
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc._make(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.num.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.num.is_zero():
                raise DivisionByZero("negative power of zero")
            inv = RatFunc(self.den, self.num)
            return inv ** (-n)
        # Parts stay coprime, but a constant-root collapse in den**n can
        # shift the leading coefficient, so renormalize through __init__.
        return RatFunc(self.num**n, self.den**n)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- substitution and root signs --------------------------------------

    def substitute(
        self,
        bindings: Mapping[str, "RatFunc"],
        target: Context | None = None,
    ) -> "RatFunc":
        """Replace variables by rational functions over `target`.

        Unbound variables map to their namesakes in the target context;
        parameters and roots are matched by name and must all exist there.
        Raises SubstitutionPole if the denominator collapses to zero.
        """
        num, den = substitute_raw((self.num, self.den), bindings, target)
        return RatFunc(num, den)

    def apply_root_signs(self, signs: Mapping[str, int]) -> "RatFunc":
        """Flip declared roots by the given +-1 signs (a field automorphism)."""
        den, num = unit_normal(
            apply_root_signs_poly(self.den, signs),
            apply_root_signs_poly(self.num, signs),
        )
        return RatFunc._make(num, den)

    def __str__(self) -> str:
        from .printer import format_ratfunc

        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _reduce(num: Poly, den: Poly) -> Pair:
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    ctx = num.ctx
    if num.is_zero():
        return num, Poly.const(ctx, 1)
    g = poly_gcd(num, den)
    if not g.is_one():
        num = exact_div(num, g)
        den = exact_div(den, g)
    den, num = unit_normal(den, num)
    return num, den


def _resolve_sign_keys(ctx: Context, signs: Mapping[str, int]) -> list[int]:
    """Root slots to flip. Keys may be "a", "sqrt(a)" or "sqrt_a"."""
    flips: list[int] = []
    for key, sign in signs.items():
        if sign not in (1, -1):
            raise ValueError(f"root sign must be +-1, got {sign!r}")
        name = key
        if name.startswith("sqrt(") and name.endswith(")"):
            name = name[5:-1]
        elif name.startswith("sqrt_"):
            name = name[5:]
        if name not in ctx.root_index:
            raise UnknownRoot(f"{key!r} does not name a declared root")
        if sign == -1:
            flips.append(ctx.root_index[name])
    return flips


def apply_root_signs_poly(p: Poly, signs: Mapping[str, int]) -> Poly:
    flips = _resolve_sign_keys(p.ctx, signs)
    if not flips:
        return p
    neg = p.ctx.field.neg
    out: dict[tuple[int, ...], Any] = {}
    for e, c in p.terms.items():
        parity = sum(e[r] for r in flips) & 1
        out[e] = neg(c) if parity else c
    return Poly(p.ctx, out)


# -- raw substitution engine ----------------------------------------------


def _binding_pairs(
    sctx: Context,
    bindings: Mapping[str, Any],
    target: Context,
) -> dict[int, Pair]:
    """Source variable index -> (num, den) over target."""
    out: dict[int, Pair] = {}
    bound: set[str] = set()
    for name, value in bindings.items():
        idx = sctx.symbol_index(name)
        if not sctx.is_variable(idx):
            raise ValueError(f"{name!r} is not a variable; only variables bind")
        if isinstance(value, RatFunc):
            pair = (value.num, value.den)
        else:
            pair = value
        if pair[0].ctx != target or pair[1].ctx != target:
            raise ValueError(f"binding for {name!r} lives in the wrong context")
        out[idx] = pair
        bound.add(name)
    for name in sctx.variables:
        if name not in bound:
            idx = target.symbol_index(name)
            out[sctx.symbol_index(name)] = (
                Poly.symbol(target, idx),
                Poly.const(target, 1),
            )
    return out


def compose_poly_raw(
    p: Poly,
    binds: dict[int, Pair],
    target: Context,
    const_map: dict[int, int],
) -> Pair:
    """p with variables substituted; returns an unreduced (num, den) pair."""
    ctx = p.ctx
    if p.is_zero():
        return Poly.const(target, 0), Poly.const(target, 1)
    maxdeg = {v: 0 for v in binds}
    for e in p.terms:
        for v in maxdeg:
            if e[v] > maxdeg[v]:
                maxdeg[v] = e[v]
    active = [v for v, d in maxdeg.items() if d > 0]
    # Power tables for each active variable's numerator and denominator.
    pw: dict[int, tuple[list[Poly], list[Poly]]] = {}
    for v in active:
        n, d = binds[v]
        pn = [Poly.const(target, 1)]
        pd = [Poly.const(target, 1)]
        for _ in range(maxdeg[v]):
            pn.append(pn[-1] * n)
            pd.append(pd[-1] * d)
        pw[v] = (pn, pd)

    num = Poly(target, {})
    for e, c in p.terms.items():
        mono = [0] * target.nsym
        for i, k in enumerate(e):
            if k and i in const_map:
                mono[const_map[i]] = k
        term = Poly(target, {tuple(mono): c})
        for v in active:
            pn, pd = pw[v]
            term = term * pn[e[v]] * pd[maxdeg[v] - e[v]]
        num = num + term
    den = Poly.const(target, 1)
    for v in active:
        den = den * pw[v][1][maxdeg[v]]
    return num, den


def substitute_raw(
    f: Pair,
    bindings: Mapping[str, Any],
    target: Context | None = None,
) -> Pair:
    """Unreduced substitution of a (num, den) pair; raises SubstitutionPole."""
    sctx = f[0].ctx
    tctx = target if target is not None else sctx
    if tctx.field != sctx.field:
        raise ValueError("substitution cannot change the coefficient field")
    const_map = sctx.constant_map_into(tctx)
    binds = _binding_pairs(sctx, bindings, tctx)
    pn, pd = compose_poly_raw(f[0], binds, tctx, const_map)
    qn, qd = compose_poly_raw(f[1], binds, tctx, const_map)
    if qn.is_zero():
        raise SubstitutionPole("denominator vanished under substitution")
    return pn * qd, pd * qn
