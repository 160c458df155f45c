"""Polynomial gcd, cofactors and exact division.

The stored form keeps a rooted parameter and its root as separate symbols
with the rewrite (root)^2 -> parameter. That form is not a UFD presentation
(the rewrite hides common factors from naive term-by-term division), so
both gcd and exact division first pass to the *eliminated form*: the
parameter slot is folded into the root slot in place,

    exponent(root) := 2 * exponent(parameter) + exponent(root),
    exponent(parameter) := 0,

realizing the isomorphism k[p, r]/(r^2 - p) ~ k[r]; divmod by 2 splits
it back. The exponent tuples keep Poly's width, and a context without
rooted parameters passes its terms through uncopied. An always-zero
slot changes neither the monomial order nor the choice of main slot.
In eliminated form the root behaves as a free symbol and ordinary
primitive-PRS gcd applies.
Roots of *specialized* parameters (square roots of explicit constants)
cannot be eliminated; they keep exponent 0/1 with the constant fold and
are never chosen as PRS main symbols: they are elements of the extension
k(sqrt(c_1), ...), a field because Context rejects constant roots whose
product over any nonempty subset is a square.

cancel yields the gcd g of two polynomials and both cofactors a/g and
b/g; poly_gcd keeps g. It has two algorithms. The PRS (_gcd) is one
primitive pseudo-remainder sequence over the context's field (F_p, or Q
with or without constant roots), in the field's stored form, made monic
at each step. The heuristic is the only code over the integers. It
runs in integral contexts (Q without constant roots, rooted parameters
included), where each part is lifted to integers once, which avoids
per-operation Fraction normalization, and each cofactor goes back over
its own part's scale. When either part is one term, the gcd is a
monomial and neither algorithm runs (_monomial_gcd).

Over the integers the heuristic gcd runs first (_heu_gcd, GCDHEU: Char,
Geddes & Gonnet 1989, in the recursive form of Liao & Fateman 1995). It
evaluates one slot at an integer xi, recurses down to math.gcd, and
interpolates the image gcd back from its balanced xi-adic digits. It
rests on this theorem. Let a, b be nonzero with integer content 1, let
xi >= 2*min(|a|, |b|) + 2 (|.| the largest absolute coefficient), let
a(xi) and b(xi) (slot m set to xi) be nonzero, and let h be the primitive
part of the interpolant H of their gcd. If h divides a and b, then h is
their gcd up to sign. Proof: h divides g = gcd(a, b); say g = h*q.
Since g(xi) divides H(xi) = c*h(xi), with c the content of H and h(xi)
nonzero, q(xi) divides c; so q(xi) is an integer, and |c| <= xi/2, as
every digit is. Write q, a and b as polynomials in the other slots with
coefficients in Z[x_m]; a root of a nonzero coefficient of a has
absolute value below 1 + |a| (Cauchy's bound), likewise for b, so below
xi/2 for the one of smaller norm. If q involved another slot, the
coefficient of its leading monomial there (any monomial order) would
vanish at xi, yet divide the leading coefficient of a and of b: a
contradiction. So q lies in Z[x_m] and divides every coefficient of a
and of b; if it had degree d >= 1, its roots would give |q(xi)| >
(xi/2)^d >= xi/2 >= |c|. Thus q is a constant, and +-1 as g is
primitive. The heuristic starts at xi = 2*min(|a|, |b|) + 29,
so the bound holds at every level, and every result it returns has
passed a check that h divides both primitive inputs. The recursion
also gives the image cofactors alpha = a(xi)/gamma and beta =
b(xi)/gamma of the image gcd gamma. With k = +-content(H), signed so
that h = H/k leads positive, h(xi) = gamma/k, so a/h takes the value
alpha*k at xi, and its interpolant qa is a/h whenever h divides a and
a/h has no coefficient beyond xi/2; likewise qb for b. The check is one
product each: h*qa == a proves that h divides a. Where a product
differs, the exact division (_div, over Q) decides at the same xi. As h
is primitive, Gauss's lemma makes h divide an integer polynomial over Q
exactly when it does over Z, with an integral quotient, so the
heuristic accepts exactly where division over Z would. The checked
quotients, scaled by the contents, are the cofactors, so the heuristic
returns (g, a/g, b/g) with nothing left to divide, and checks nothing
when h is the unit. It grows xi after a failed check, and after
_HEU_ATTEMPTS points in one slot it gives up; the PRS then runs on the
unlifted parts, and one _div of each part by its gcd gives the
cofactors. The choice follows from the context alone: no parameter or
setting selects it. Products go through poly._convolve_ints.

_div is the only long division. A divisor d that uses a constant root r
is first replaced by its norm d * conj_r(d) (conj_r flips the sign of r),
and the dividend is multiplied by the same conjugate: as the extension is
a field, conj_r(d) != 0, so the quotient is unchanged. The norm is free
of r and of every root done before it.

unit_normal fixes the one free unit of a canonical form: it divides by
the leading coefficient, taken with constant roots as the whole element
of the extension that multiplies the leading bare monomial, inverted
by _div through the same conjugates. Associates over the extension
therefore share one normal form.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import add, sub
from typing import Any

from .context import Context, mono_key
from .errors import DivisionByZero, NotDivisible
from .poly import Poly, _convolve_ints, _lift_ints, _lifted_product, _over

EDict = dict[tuple[int, ...], Any]


class _ElimInfo:
    """Per-context tables for the eliminated form, and its field arithmetic."""

    __slots__ = (
        "ctx", "nslots", "root_pairs", "folds", "croot_slots", "eligible",
        "f", "modulus", "unit", "integral",
    )

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.nslots = ctx.nsym
        # (root slot, parameter slot) of each rooted parameter, and the
        # constant folds, which the eliminated form keeps.
        self.root_pairs = [(r, pidx) for r, pidx, _ in ctx.folds if pidx is not None]
        self.folds = [f for f in ctx.folds if f[1] is None]
        self.croot_slots = tuple(r for r, _, _ in self.folds)
        self.eligible = tuple(i for i in range(self.nslots) if i not in self.croot_slots)
        self.f = ctx.field
        self.modulus = ctx.field.char  # p over F_p: sums are reduced mod p
        self.unit: EDict = {(0,) * self.nslots: 1}
        # Q without constant roots: cancel runs the heuristic over Z first.
        self.integral = not self.modulus and not self.croot_slots


_ELIM_CACHE: dict[Context, _ElimInfo] = {}


def _elim_info(ctx: Context) -> _ElimInfo:
    info = _ELIM_CACHE.get(ctx)
    if info is None:
        info = _ElimInfo(ctx)
        _ELIM_CACHE[ctx] = info
    return info


def _to_elim(E: _ElimInfo, p: Poly) -> EDict:
    """p's terms with each rooted parameter folded into its root slot."""
    if not E.root_pairs:
        return p.terms
    out: EDict = {}
    for e, c in p.terms.items():
        new = list(e)
        for r, q in E.root_pairs:
            new[r] += 2 * new[q]
            new[q] = 0
        out[tuple(new)] = c
    return out


def _from_elim(E: _ElimInfo, d: EDict) -> Poly:
    """The Poly of an eliminated dict: each root slot split by divmod 2."""
    if not E.root_pairs:
        return Poly(E.ctx, d)
    out: EDict = {}
    for e, c in d.items():
        full = list(e)
        for r, q in E.root_pairs:
            full[q], full[r] = divmod(e[r], 2)
        out[tuple(full)] = c
    return Poly(E.ctx, out)


# -- arithmetic on eliminated dicts --------------------------------------


def _elead(d: EDict) -> tuple[tuple[int, ...], Any]:
    e = max(d, key=mono_key)
    return e, d[e]


def _reduce(E: _ElimInfo, d: EDict) -> EDict:
    """Canonical terms of an unreduced sum or product, in the field's stored form.

    Over Q a coefficient is an int when integral, else a Fraction
    (field.rational); the raw sums of _sub can make Fractions meet in an
    integer. Over F_p coefficients are ints reduced mod p.
    """
    p = E.modulus
    if not p:
        return _over(1, d)
    return {e: c % p for e, c in d.items() if c % p}


def _normal(E: _ElimInfo, d: EDict) -> EDict:
    """d divided by its leading coefficient."""
    lc = _elead(d)[1]
    if lc == 1:
        return d
    inv = E.f.inv(lc)
    return {e: E.f.mul(c, inv) for e, c in d.items()}


def _mul(E: _ElimInfo, a: EDict, b: EDict) -> EDict:
    """a * b, reduced; over Q through integers, as in Poly.__mul__."""
    if E.modulus:
        return _reduce(E, _convolve_ints(a, b, E.folds))
    return _over(*_lifted_product(a, b, E.folds))


def _sub(E: _ElimInfo, a: EDict, b: EDict) -> EDict:
    """a - b, reduced. a must be a fresh dict: it is consumed."""
    get = a.get
    for e, c in b.items():
        a[e] = get(e, 0) - c
    return _reduce(E, a)


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


def _div(E: _ElimInfo, num: EDict, den: EDict) -> EDict:
    """Exact long division in eliminated form; raises NotDivisible.

    A den that uses constant roots is first made free of them by its
    conjugates (module docstring). Then the degree of each slot adds up
    in a product, so a quotient term above deg(num) - deg(den) in some
    slot proves a remainder; this stops a failed division early.
    """
    for s in E.croot_slots:
        if any(e[s] for e in den):
            conj = {e: -c if e[s] else c for e, c in den.items()}
            num, den = _mul(E, num, conj), _mul(E, den, conj)
    le, lc = _elead(den)
    inv, mul = E.f.inv(lc), E.f.mul
    rest = [(e, c) for e, c in den.items() if e != le]
    room = [x - y for x, y in zip(map(max, zip(*num)), map(max, zip(*den)))]
    p = E.modulus
    quot: EDict = {}
    rem = dict(num)
    # The remainder's monomials in a heap, largest first; an entry whose
    # monomial has since cancelled is skipped when it comes up.
    heap = [(_heap_key(e), e) for e in rem]
    heapify(heap)
    while heap:
        re = heappop(heap)[1]
        rc = rem.pop(re, 0)
        if not rc:
            continue
        qe = tuple(map(sub, re, le))
        if any(x < 0 or x > r for x, r in zip(qe, room)):
            raise NotDivisible("leading monomial not divisible")
        qc = mul(rc, inv)
        quot[qe] = qc
        for e, c in rest:
            key = tuple(map(add, qe, e))
            v = rem.get(key, 0) - qc * c
            if p:
                v %= p
            if not v:
                del rem[key]
                continue
            if key not in rem:
                heappush(heap, (_heap_key(key), key))
            rem[key] = v
    return quot


def _heap_key(e: tuple[int, ...]) -> tuple:
    """Sorts as mono_key in reverse, so heapq pops the leading monomial."""
    return (-sum(e), tuple(-x for x in reversed(e)))


# -- the primitive PRS --------------------------------------------------------


def _content_prim(E: _ElimInfo, d: EDict, m: int) -> tuple[EDict, EDict]:
    """Content w.r.t. m (the gcd of the coefficients) and primitive part."""
    coeffs = [c for k in range(_edeg_in(d, m) + 1) if (c := _ecoeff_of(d, m, k))]
    cont = _gcd_list(E, coeffs)
    return cont, (d if cont == E.unit else _div(E, d, cont))


def _prim(E: _ElimInfo, d: EDict, m: int) -> EDict:
    return _normal(E, _content_prim(E, d, m)[1])


def _pseudo_rem(E: _ElimInfo, f: EDict, g: EDict, m: int) -> EDict:
    dg = _edeg_in(g, m)
    lcg = _ecoeff_of(g, m, dg)
    r = f
    while r:
        dr = _edeg_in(r, m)
        if dr < dg:
            break
        lcr = _ecoeff_of(r, m, dr)
        r = _sub(
            E,
            _convolve_ints(lcg, r, E.folds),
            _convolve_ints(lcr, _eshift(g, m, dr - dg), E.folds),
        )
    return r


def _gcd(E: _ElimInfo, a: EDict, b: EDict) -> EDict:
    """Gcd of two nonzero dicts over the context's field, up to a unit."""
    used: set[int] = set()
    for d in (a, b):
        for e in d:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
    slots = [m for m in E.eligible if m in used]
    if not slots:
        return E.unit
    m = min(slots, key=lambda s: (max(_edeg_in(a, s), _edeg_in(b, s)), s))

    ca, pa = _content_prim(E, a, m)
    cb, pb = _content_prim(E, b, m)
    cont = _gcd(E, ca, cb)

    if _edeg_in(pa, m) < _edeg_in(pb, m):
        pa, pb = pb, pa
    f, g = pa, pb
    while True:
        r = _pseudo_rem(E, f, g, m)
        if not r:
            main = _prim(E, g, m)
            break
        if _edeg_in(r, m) == 0:
            return cont
        f, g = g, _prim(E, r, m)
    if main == E.unit:
        return cont
    if cont == E.unit:
        return main
    return _mul(E, cont, main)


# -- the heuristic gcd over Z -------------------------------------------------

# Evaluation points the heuristic tries in each slot before it gives up.
_HEU_ATTEMPTS = 6


def _heu_gcd(E: _ElimInfo, a: EDict, b: EDict) -> tuple[EDict, EDict, EDict] | None:
    """GCDHEU: (g, a/g, b/g) for two nonzero integer dicts, or None.

    g is the gcd of a and b, with a positive leading coefficient; None
    means the heuristic gave up. Splits off the integer contents (if
    either primitive part is a constant, the gcd c of the contents is the
    answer), evaluates them at x_m = xi in their lowest used slot m,
    recurses on the images, and interpolates the image gcd back in slot m
    from its balanced xi-adic digits, and the image cofactors, times the
    signed content k of that interpolant, likewise. The primitive part
    h = H/k is accepted only if it divides both primitive parts exactly:
    the product of h and each interpolated cofactor must equal its part,
    and where it does not, _div decides. Then, since xi is at least
    2*min(|a|, |b|) + 2 (see the module docstring), h is their gcd, and
    the two checked quotients, scaled by ca/c and cb/c, are the
    cofactors. A unit h divides with no check: the quotients are the
    primitive parts. Otherwise xi grows, _HEU_ATTEMPTS times at most.
    """
    zero = (0,) * E.nslots
    ca = math.gcd(*a.values())
    cb = math.gcd(*b.values())
    c = math.gcd(ca, cb)
    if (len(a) == 1 and zero in a) or (len(b) == 1 and zero in b):
        return {zero: c}, _scale_down(a, c), _scale_down(b, c)
    a = _scale_down(a, ca)
    b = _scale_down(b, cb)
    m = next(i for i, col in enumerate(zip(*a, *b)) if any(col))
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(_HEU_ATTEMPTS):
        ea = _eval_slot(a, m, xi)
        eb = _eval_slot(b, m, xi)
        if ea and eb:
            found = _heu_gcd(E, ea, eb)
            if found is None:
                return None
            gamma, alpha, beta = found
            H = _interpolate(gamma, m, xi)
            k = math.gcd(*H.values())
            if _elead(H)[1] < 0:
                k = -k
            h = _scale_down(H, k)
            if h == E.unit:
                qa, qb = a, b
            else:
                # h(xi) = gamma/k, so a/h and b/h take alpha*k and beta*k at xi.
                qa, qb = (_interpolate(_scale_up(q, k), m, xi) for q in (alpha, beta))
                qa = _cofactor(E, a, h, qa)
                qb = None if qa is None else _cofactor(E, b, h, qb)
            if qb is not None:
                return _scale_up(h, c), _scale_up(qa, ca // c), _scale_up(qb, cb // c)
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _scale_down(d: EDict, c: int) -> EDict:
    return d if c == 1 else {e: v // c for e, v in d.items()}


def _scale_up(d: EDict, c: int) -> EDict:
    return d if c == 1 else {e: v * c for e, v in d.items()}


def _eval_slot(d: EDict, m: int, xi: int) -> EDict:
    """d at x_m = xi: same width, slot m zeroed."""
    powers = [1]
    out: EDict = {}
    get = out.get
    for e, c in d.items():
        k = e[m]
        if k:
            while len(powers) <= k:
                powers.append(powers[-1] * xi)
            c *= powers[k]
            e = e[:m] + (0,) + e[m + 1:]
        out[e] = get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _interpolate(g: EDict, m: int, xi: int) -> EDict:
    """The dict in slot m whose balanced xi-adic digits spell g's values."""
    half = xi // 2
    out: EDict = {}
    for e, v in g.items():
        z = list(e)
        k = 0
        while v:
            v, digit = divmod(v, xi)
            if digit > half:
                digit -= xi
                v += 1
            if digit:
                z[m] = k
                out[tuple(z)] = digit
            k += 1
    return out


def _cofactor(E: _ElimInfo, d: EDict, h: EDict, guess: EDict) -> EDict | None:
    """d / h if h divides d exactly, else None; guess is tried first.

    One product checks the guess; only when it fails does _quotient
    divide, since a wrong guess does not show that h fails to divide.
    """
    if _mul(E, h, guess) == d:
        return guess
    return _quotient(E, d, h)


def _quotient(E: _ElimInfo, d: EDict, h: EDict) -> EDict | None:
    """d / h if h divides d exactly, else None."""
    try:
        return _div(E, d, h)
    except NotDivisible:
        return None


def _gcd_list(E: _ElimInfo, items: list[EDict]) -> EDict:
    if not items:
        return E.unit
    acc = items[0]
    for d in items[1:]:
        if acc == E.unit:
            return acc
        acc = _gcd(E, acc, d)
    return acc


# -- public entry points --------------------------------------------------


def unit_normal(p: Poly, *rest: Poly) -> tuple[Poly, ...]:
    """(p, *rest), all divided by the unit that normalizes p.

    That unit is p's leading coefficient (graded order). With constant
    roots it is the root-extension coefficient of p's leading bare
    monomial (exponents with the constant-root slots zeroed), whose
    inverse is one _div of 1 by it. A zero p is returned as it is.
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
    d = _to_elim(E, p)
    bare = {e: tuple(0 if i in E.croot_slots else k for i, k in enumerate(e)) for e in d}
    lm = max(bare.values(), key=mono_key)
    lead = {tuple(map(sub, e, lm)): c for e, c in d.items() if bare[e] == lm}
    if lead == E.unit:
        return (p, *rest)
    inv = _from_elim(E, _div(E, E.unit, lead))
    return tuple(q * inv for q in (p, *rest))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd, normalized by unit_normal."""
    if a.ctx != b.ctx:
        raise ValueError("mixed contexts")
    if a.is_zero():
        return unit_normal(b)[0]
    if b.is_zero():
        return unit_normal(a)[0]
    return unit_normal(cancel(a, b)[0])[0]


def cancel(num: Poly, den: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, num/g, den/g) with g a gcd of num and den, up to a unit.

    The quotients are exact for the g returned: num/den equals their
    ratio, and they are coprime. A zero num gives (den, num, 1). When
    either part is a nonzero constant, g is a unit: (1, num, den) comes
    back with no gcd computed. Otherwise, in an integral context, each
    part is lifted to integers once (one lift that clears its
    denominators) and the heuristic gives all three. If it gives up, or
    the context is not integral, the PRS over the field gives g and one
    _div of each part gives the cofactors (none for a unit g). When
    either part is one term, the gcd is a monomial and neither runs
    (_monomial_gcd).
    """
    if num.ctx != den.ctx:
        raise ValueError("mixed contexts")
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return den, num, Poly.const(num.ctx, 1)
    if num.is_constant() or den.is_constant():
        return Poly.const(num.ctx, 1), num, den
    E = _elim_info(num.ctx)
    a, b = _to_elim(E, num), _to_elim(E, den)
    found = _monomial_gcd(E, a, b)
    if found is not None:
        return found
    if E.integral:
        (sa, ia), (sb, ib) = _lift_ints(a), _lift_ints(b)
        found = _heu_gcd(E, ia, ib)
        if found is not None:
            g, qa, qb = found
            return (
                _from_elim(E, _over(1, g)),
                _from_elim(E, _over(sa, qa)),
                _from_elim(E, _over(sb, qb)),
            )
    g = _gcd(E, a, b)
    if g == E.unit:
        return Poly.const(num.ctx, 1), num, den
    return _from_elim(E, g), _from_elim(E, _div(E, a, g)), _from_elim(E, _div(E, b, g))


def _monomial_gcd(E: _ElimInfo, a: EDict, b: EDict) -> tuple[Poly, Poly, Poly] | None:
    """cancel's (g, a/g, b/g) for eliminated parts a and b when one of them
    is one term; None when neither is.

    In eliminated form the ring is a polynomial ring over a field K (k,
    or k with the constant roots adjoined), so the divisors of a monomial
    c * x^m are the monomials x^j, j <= m slot-wise, up to a unit. So g
    is x^k, with k the slot-wise minimum over the terms of both parts;
    a constant-root slot is part of the coefficient in K, and its k is 0.
    The cofactors are the parts with every exponent shifted down by k.
    """
    if len(a) > 1 and len(b) > 1:
        return None
    k = [min(col) for col in zip(*a, *b)]
    for r in E.croot_slots:
        k[r] = 0
    if not any(k):
        return Poly.const(E.ctx, 1), _from_elim(E, a), _from_elim(E, b)
    return (
        _from_elim(E, {tuple(k): E.f.one}),
        _from_elim(E, {tuple(map(sub, e, k)): c for e, c in a.items()}),
        _from_elim(E, {tuple(map(sub, e, k)): c for e, c in b.items()}),
    )


def exact_div(num: Poly, den: Poly) -> Poly:
    """Exact division; raises NotDivisible if a remainder is left."""
    if num.ctx != den.ctx:
        raise ValueError("mixed contexts")
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if num.is_zero():
        return num
    E = _elim_info(num.ctx)
    return _from_elim(E, _div(E, _to_elim(E, num), _to_elim(E, den)))
