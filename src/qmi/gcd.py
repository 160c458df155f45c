"""Polynomial gcd and exact division.

The stored form keeps a rooted parameter and its root as separate symbols
with the rewrite (root)^2 -> parameter. That form is not a UFD presentation
(the rewrite hides common factors from naive term-by-term division), so
both gcd and exact division first pass to the *eliminated form*: the
parameter slot is folded into the root slot via

    exponent(root) := 2 * exponent(parameter) + exponent(root),

realizing the isomorphism k[p, r]/(r^2 - p) ~ k[r]. In eliminated form the
root behaves as a free symbol and ordinary primitive-PRS gcd applies.
Roots of *specialized* parameters (square roots of explicit constants)
cannot be eliminated; they keep exponent 0/1 with the constant fold and
are never chosen as PRS main symbols: their polynomials are elements of
the quadratic extension of the coefficient field.

There is one primitive PRS. It runs over a coefficient domain picked once
per context: the integers for Q without constant roots (denominators are
cleared once, which avoids per-operation Fraction normalization), and
otherwise the context's field. The domain supplies only what differs:
how a product or difference is reduced, the gcd when no main symbol is
left (the integer content over Z, 1 over a field), the exact quotient of
two coefficients, and the unit normalization (sign over Z, monic over a
field). Products go through poly._convolve_ints. Exact division always
runs over the field, since a quotient over Q need not be integral.

unit_normal fixes the one free unit of a canonical form: it divides by
the leading coefficient, taken with constant roots as the whole element
of the extension that multiplies the leading bare monomial. Associates
over the extension therefore share one normal form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from .context import Context
from .errors import DivisionByZero, NotDivisible
from .field import BaseField
from .poly import Poly, _convolve_ints, _lift_ints

EDict = dict[tuple[int, ...], Any]


class _ElimInfo:
    """Per-context tables for the eliminated form, and its domains."""

    __slots__ = (
        "ctx", "keep", "nslots", "root_pairs", "const_roots", "eligible",
        "croot_slots", "field", "prs",
    )

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        dropped = set()
        root_pairs = []  # (root slot, original parameter index)
        const_roots = []  # (root slot, constant value)
        for r, pidx, value in ctx.folds:
            if pidx is None:
                const_roots.append((r, value))
            else:
                root_pairs.append((r, pidx))
                dropped.add(pidx)
        self.keep = tuple(i for i in range(ctx.nsym) if i not in dropped)
        self.nslots = len(self.keep)
        pos = {orig: new for new, orig in enumerate(self.keep)}
        self.root_pairs = [(pos[r], orig_p) for r, orig_p in root_pairs]
        self.const_roots = [(pos[r], v) for r, v in const_roots]
        self.croot_slots = tuple(slot for slot, _ in self.const_roots)
        ineligible = set(self.croot_slots)
        self.eligible = tuple(i for i in range(self.nslots) if i not in ineligible)
        self.field = _Field(self, ctx.field)
        if ctx.field.char == 0 and not self.croot_slots:
            self.prs: _Domain = _Integers(self)
        else:
            self.prs = self.field


_ELIM_CACHE: dict[Context, _ElimInfo] = {}


def _elim_info(ctx: Context) -> _ElimInfo:
    info = _ELIM_CACHE.get(ctx)
    if info is None:
        info = _ElimInfo(ctx)
        _ELIM_CACHE[ctx] = info
    return info


def _to_elim(E: _ElimInfo, p: Poly) -> EDict:
    out: EDict = {}
    for e, c in p.terms.items():
        new = [e[i] for i in E.keep]
        for slot, orig_p in E.root_pairs:
            new[slot] += 2 * e[orig_p]
        out[tuple(new)] = c
    return out


def _from_elim(E: _ElimInfo, d: EDict) -> Poly:
    ctx = E.ctx
    out: dict[tuple[int, ...], Any] = {}
    for e, c in d.items():
        full = [0] * ctx.nsym
        for new, orig in enumerate(E.keep):
            full[orig] = e[new]
        for slot, orig_p in E.root_pairs:
            u = e[slot]
            full[E.keep[slot]] = u & 1
            full[orig_p] = u >> 1
        out[tuple(full)] = c
    return Poly(ctx, out)


# -- coefficient domains ------------------------------------------------------


class _Domain:
    """Coefficient arithmetic of the PRS over one context's eliminated form."""

    def __init__(self, E: _ElimInfo) -> None:
        self.E = E
        self.folds = [(slot, None, value) for slot, value in E.const_roots]
        self.unit: EDict = {(0,) * E.nslots: 1}

    def reduce(self, d: EDict) -> EDict:
        """Canonical terms of an unreduced sum or product."""
        return {e: c for e, c in d.items() if c}


class _Integers(_Domain):
    """Z; entered from Q by clearing denominators, which a gcd ignores."""

    def enter(self, d: EDict) -> EDict:
        return _lift_ints(d)[1]

    def leave(self, d: EDict) -> EDict:
        return {e: Fraction(c) for e, c in d.items()}

    def const_gcd(self, a: EDict, b: EDict) -> EDict:
        return {(0,) * self.E.nslots: math.gcd(*a.values(), *b.values())}

    def quo(self, a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise NotDivisible("integer division left a remainder")
        return q

    def normal(self, d: EDict) -> EDict:
        if _elead(d)[1] < 0:
            return {e: -c for e, c in d.items()}
        return d


class _Field(_Domain):
    """The context's field: Q (Fractions) or F_p (ints reduced mod p)."""

    def __init__(self, E: _ElimInfo, field: BaseField) -> None:
        super().__init__(E)
        self.f = field

    def enter(self, d: EDict) -> EDict:
        return d

    leave = enter

    def reduce(self, d: EDict) -> EDict:
        p = self.f.char
        if not p:
            return super().reduce(d)
        return {e: c % p for e, c in d.items() if c % p}

    def const_gcd(self, a: EDict, b: EDict) -> EDict:
        return self.unit

    def quo(self, a: Any, b: Any) -> Any:
        return self.f.mul(a, self.f.inv(b))

    def normal(self, d: EDict) -> EDict:
        lc = _elead(d)[1]
        if lc == 1:
            return d
        inv = self.f.inv(lc)
        return {e: self.f.mul(c, inv) for e, c in d.items()}


# -- arithmetic on eliminated dicts --------------------------------------


def _ekey(e: tuple[int, ...]):
    return (sum(e), e[::-1])


def _elead(d: EDict) -> tuple[tuple[int, ...], Any]:
    e = max(d, key=_ekey)
    return e, d[e]


def _mul(D: _Domain, a: EDict, b: EDict) -> EDict:
    return D.reduce(_convolve_ints(a, b, D.folds))


def _sub(D: _Domain, a: EDict, b: EDict) -> EDict:
    """a - b, reduced. a must be a fresh dict: it is consumed."""
    get = a.get
    for e, c in b.items():
        a[e] = get(e, 0) - c
    return D.reduce(a)


def _edeg_in(d: EDict, m: int) -> int:
    if not d:
        return -1
    return max(e[m] for e in d)


def _ecoeff_of(d: EDict, m: int, k: int) -> EDict:
    """Coefficient of m^k, with slot m zeroed (same width)."""
    out: EDict = {}
    for e, c in d.items():
        if e[m] == k:
            z = list(e)
            z[m] = 0
            out[tuple(z)] = c
    return out


def _eshift(d: EDict, m: int, k: int) -> EDict:
    out: EDict = {}
    for e, c in d.items():
        z = list(e)
        z[m] += k
        out[tuple(z)] = c
    return out


def _kinv(D: _Field, d: EDict) -> EDict:
    """Invert an element supported on the constant-root slots only.

    Works by conjugation: for d = u + v*r with r^2 a known constant,
    d^-1 = (u - v*r) / (u^2 - r^2 v^2), recursing on the remaining
    root slots.  A vanishing norm means the extension has zero
    divisors, which no valid context should produce.
    """
    if not d:
        raise DivisionByZero("inverting zero in a root extension")
    for slot, value in D.E.const_roots:
        if not any(e[slot] for e in d):
            continue
        u = _ecoeff_of(d, slot, 0)
        v = _ecoeff_of(d, slot, 1)
        vv = {e: c * value for e, c in _convolve_ints(v, v, D.folds).items()}
        norm = _sub(D, _convolve_ints(u, u, D.folds), vv)
        conj = dict(u)
        for e, c in v.items():
            z = list(e)
            z[slot] = 1
            conj[tuple(z)] = -c
        return _mul(D, conj, _kinv(D, norm))
    (e, c), = d.items()
    return {e: D.quo(1, c)}


def _mono_groups(E: _ElimInfo, d: EDict) -> dict[tuple[int, ...], EDict]:
    """Split terms by exponents outside the constant-root slots.

    Maps each bare monomial to its coefficient in the root extension,
    the latter kept as a same-width dict supported on root slots.
    """
    groups: dict[tuple[int, ...], EDict] = {}
    for e, c in d.items():
        z = list(e)
        root = [0] * len(e)
        for s in E.croot_slots:
            root[s] = z[s]
            z[s] = 0
        groups.setdefault(tuple(z), {})[tuple(root)] = c
    return groups


def _exact_div_rooted(D: _Field, num: EDict, den: EDict) -> EDict:
    """Division when the divisor involves roots of constants.

    Those symbols square to constants, so they are coefficient-field
    elements rather than true monomial slots; the leading coefficient
    is a whole element of the quadratic extension and has to be
    inverted as such, or exact quotients get missed.
    """
    dgroups = _mono_groups(D.E, den)
    lm = max(dgroups, key=_ekey)
    linv = _kinv(D, dgroups[lm])
    quot: EDict = {}
    rem = dict(num)
    while rem:
        rgroups = _mono_groups(D.E, rem)
        rm = max(rgroups, key=_ekey)
        qe = [a - b for a, b in zip(rm, lm)]
        if any(x < 0 for x in qe):
            raise NotDivisible("leading monomial not divisible")
        step = _mul(D, rgroups[rm], linv)
        step = {tuple(a + b for a, b in zip(qe, e)): c for e, c in step.items()}
        quot.update(step)
        rem = _sub(D, rem, _convolve_ints(step, den, D.folds))
    return quot


def _div(D: _Domain, num: EDict, den: EDict) -> EDict:
    """Exact long division in eliminated form; raises NotDivisible."""
    if D.E.croot_slots and any(e[s] for e in den for s in D.E.croot_slots):
        return _exact_div_rooted(D, num, den)
    le, lc = _elead(den)
    quot: EDict = {}
    rem = dict(num)
    while rem:
        re, rc = _elead(rem)
        qe = tuple(a - b for a, b in zip(re, le))
        if any(x < 0 for x in qe):
            raise NotDivisible("leading monomial not divisible")
        qc = D.quo(rc, lc)
        quot[qe] = qc
        rem = _sub(D, rem, _convolve_ints({qe: qc}, den, D.folds))
    return quot


# -- the primitive PRS --------------------------------------------------------


def _content_prim(D: _Domain, d: EDict, m: int) -> tuple[EDict, EDict]:
    """Content w.r.t. m (the gcd of the coefficients) and primitive part."""
    coeffs = [c for k in range(_edeg_in(d, m) + 1) if (c := _ecoeff_of(d, m, k))]
    cont = _gcd_list(D, coeffs)
    return cont, (d if cont == D.unit else _div(D, d, cont))


def _prim(D: _Domain, d: EDict, m: int) -> EDict:
    return D.normal(_content_prim(D, d, m)[1])


def _pseudo_rem(D: _Domain, f: EDict, g: EDict, m: int) -> EDict:
    dg = _edeg_in(g, m)
    lcg = _ecoeff_of(g, m, dg)
    r = f
    while r:
        dr = _edeg_in(r, m)
        if dr < dg:
            break
        lcr = _ecoeff_of(r, m, dr)
        r = _sub(
            D,
            _convolve_ints(lcg, r, D.folds),
            _convolve_ints(lcr, _eshift(g, m, dr - dg), D.folds),
        )
    return r


def _gcd(D: _Domain, a: EDict, b: EDict) -> EDict:
    """Gcd of two nonzero dicts, up to a unit of D."""
    used: set[int] = set()
    for d in (a, b):
        for e in d:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
    slots = [m for m in D.E.eligible if m in used]
    if not slots:
        return D.const_gcd(a, b)
    m = min(slots, key=lambda s: (max(_edeg_in(a, s), _edeg_in(b, s)), s))

    ca, pa = _content_prim(D, a, m)
    cb, pb = _content_prim(D, b, m)
    cont = _gcd(D, ca, cb)

    if _edeg_in(pa, m) < _edeg_in(pb, m):
        pa, pb = pb, pa
    f, g = pa, pb
    while True:
        r = _pseudo_rem(D, f, g, m)
        if not r:
            main = _prim(D, g, m)
            break
        if _edeg_in(r, m) == 0:
            return cont
        f, g = g, _prim(D, r, m)
    if main == D.unit:
        return cont
    if cont == D.unit:
        return main
    return _mul(D, cont, main)


def _gcd_list(D: _Domain, items: list[EDict]) -> EDict:
    if not items:
        return D.unit
    acc = items[0]
    for d in items[1:]:
        if acc == D.unit:
            return acc
        acc = _gcd(D, acc, d)
    return acc


# -- public entry points --------------------------------------------------


def unit_normal(p: Poly, *rest: Poly) -> tuple[Poly, ...]:
    """(p, *rest), all divided by the unit that normalizes p.

    That unit is p's leading coefficient (graded order). With constant
    roots it is the root-extension coefficient of p's leading bare
    monomial, inverted with _kinv. A zero p is returned as it is.
    """
    if p.is_zero():
        return (p, *rest)
    ctx = p.ctx
    if all(pidx is not None for _, pidx, _ in ctx.folds):
        _, lc = p.leading()
        if lc == ctx.field.one:
            return (p, *rest)
        inv = ctx.field.inv(lc)
        return tuple(q.scale(inv) for q in (p, *rest))
    E = _elim_info(ctx)
    groups = _mono_groups(E, _to_elim(E, p))
    lead = groups[max(groups, key=_ekey)]
    if lead == E.field.unit:
        return (p, *rest)
    inv = _from_elim(E, _kinv(E.field, lead))
    return tuple(q * inv for q in (p, *rest))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd, normalized by unit_normal."""
    if a.ctx != b.ctx:
        raise ValueError("mixed contexts")
    if a.is_zero():
        return unit_normal(b)[0]
    if b.is_zero():
        return unit_normal(a)[0]
    E = _elim_info(a.ctx)
    D = E.prs
    g = _gcd(D, D.enter(_to_elim(E, a)), D.enter(_to_elim(E, b)))
    return unit_normal(_from_elim(E, D.leave(g)))[0]


def exact_div(num: Poly, den: Poly) -> Poly:
    """Exact division; raises NotDivisible if a remainder is left."""
    if num.ctx != den.ctx:
        raise ValueError("mixed contexts")
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if num.is_zero():
        return num
    E = _elim_info(num.ctx)
    q = _div(E.field, _to_elim(E, num), _to_elim(E, den))
    return _from_elim(E, q)
