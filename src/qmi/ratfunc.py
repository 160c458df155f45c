"""Rational functions in canonical form, plus the raw substitution engine.

Canonical form: numerator and denominator share no factor (gcd.cancel
divides both by their gcd, with the cofactors the gcd computation
yields) and the denominator is normalized by gcd.unit_normal (its
leading coefficient is 1, read in the root extension when there are
constant roots). When either part is a nonzero constant the gcd is a
unit, and gcd.cancel computes none. Equal rational functions therefore
have equal parts, so equality and the hash both read the canonical
parts, and nothing is multiplied to compare. The check_* functions of
qmi.actions compare raw pairs, which are not canonical, by the
cross-multiplied zero test _raw_difference.

The operators cancel across their operands before they multiply, as in
Henrici (1956; Knuth, TAOCP Vol. 2, 4.5.1), so the full product or sum
is never formed and then reduced. Take f = a/b and g = c/d canonical;
gcd.cancel gives cofactors that are exact for the gcd it returns.

- f * g cancels (a, d) to (a', d') and (c, b) to (c', b'); the result
  is a'c' / (b'd'). The cancels make a' prime to d' and c' to b'; a'
  and b' divide the coprime a and b, and c' and d' the coprime c and d.
  f / g is f * (d/c).
- f + g adds the numerators when b = d = 1. Otherwise it cancels (b, d)
  to (g0, b', d'), so that f + g = t / (g0 b'd') with t = a d' + c b'.
  Modulo b', t is a d', a product of two factors prime to b'; so t is
  prime to b', and likewise to d'. Only g0 can share a factor with t:
  cancelling (t, g0) to (t', g0') gives t' / (g0' b'd'), coprime. f - g
  is f + (-c/d).
- f ** n takes the n-th powers of the coprime parts (for n < 0, of the
  swapped parts), which stay coprime.

Each result ends with unit_normal of its denominator. A sum or product
of two polynomials, and any operation with a constant operand, takes no
gcd at all.

The module-level *_raw helpers work on plain (num, den) polynomial pairs
without reduction. The verification engine composes large expressions
through them and only ever asks "is this identically zero", so no gcd is
paid on hot paths; the public RatFunc methods always return canonical
objects.

substitute_raw builds the powers of every binding's numerator and
denominator once per call, as integer term dicts shared by both parts,
and expands both parts over one common denominator. So the pair carries
no power of a binding denominator that both parts share and that the
degrees do not need. compose_poly_raw sums the terms in place over the
integers and normalizes each coefficient once.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from .context import Context
from .errors import DivisionByZero, SubstitutionPole, UnknownRoot
from .gcd import cancel, unit_normal
from .poly import Poly, _convolve_ints, _from_ints, _lift_ints, _lifted_product

Pair = tuple[Poly, Poly]
# Variable index -> {exponent k: (scale, integer term dict)}; see _power_tables.
Tables = dict[int, dict[int, tuple[int, dict]]]


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
        return _sum(self, other.num, other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return _sum(self, -other.num, other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc._make(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return _product(self, other.num, other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return _product(self, other.den, other.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n >= 0:
            return _coprime(self.num**n, self.den**n)
        if self.num.is_zero():
            raise DivisionByZero("negative power of zero")
        return _coprime(self.den**-n, self.num**-n)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("mixed contexts")
        return self.num == other.num and self.den == other.den

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
        """Flip declared roots by the given +-1 signs (a field automorphism).

        Keys are rooted parameter names, e.g. {"a": -1} flips sqrt(a).
        """
        flips = _resolve_sign_keys(self.ctx, signs)
        den, num = unit_normal(
            apply_root_signs_poly(self.den, flips),
            apply_root_signs_poly(self.num, flips),
        )
        return RatFunc._make(num, den)

    def __str__(self) -> str:
        from .printer import format_ratfunc

        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _reduce(num: Poly, den: Poly) -> Pair:
    """Canonical parts of num / den: gcd.cancel, then unit_normal."""
    _, num, den = cancel(num, den)
    return _normal(num, den)


def _normal(num: Poly, den: Poly) -> Pair:
    """Canonical parts of num / den for coprime num and den."""
    if num.is_zero():
        return num, Poly.const(num.ctx, 1)
    den, num = unit_normal(den, num)
    return num, den


def _coprime(num: Poly, den: Poly) -> RatFunc:
    """The RatFunc of coprime num and den."""
    return RatFunc._make(*_normal(num, den))


def _sum(f: RatFunc, c: Poly, d: Poly) -> RatFunc:
    """f + c/d, for coprime c and d: Henrici's sum (module docstring)."""
    a, b = f.num, f.den
    if a.ctx != c.ctx:
        raise ValueError("mixed contexts")
    if b.is_one() and d.is_one():
        return RatFunc._make(a + c, b)
    g0, b1, d1 = cancel(b, d)
    t = a * d1 + c * b1
    _, t1, g1 = cancel(t, g0)
    return _coprime(t1, g1 * b1 * d1)


def _product(f: RatFunc, c: Poly, d: Poly) -> RatFunc:
    """f * c/d, for coprime c and d: Henrici's product."""
    a, b = f.num, f.den
    if a.ctx != c.ctx:
        raise ValueError("mixed contexts")
    if d.is_zero():
        raise DivisionByZero("division by zero rational function")
    _, a1, d1 = cancel(a, d)
    _, c1, b1 = cancel(c, b)
    return _coprime(a1 * c1, b1 * d1)


def _resolve_sign_keys(ctx: Context, signs: Mapping[str, int]) -> list[int]:
    """Root slots to flip; each key is a rooted parameter's name."""
    flips: list[int] = []
    for name, sign in signs.items():
        if sign not in (1, -1):
            raise ValueError(f"root sign must be +-1, got {sign!r}")
        if name not in ctx.root_index:
            raise UnknownRoot(f"{name!r} does not name a declared root")
        if sign == -1:
            flips.append(ctx.root_index[name])
    return flips


def apply_root_signs_poly(p: Poly, flips: Sequence[int]) -> Poly:
    """p with the sign of each root slot in flips reversed."""
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


def _times(a: dict, b: dict, folds, char: int) -> dict:
    """Integer product of two term dicts, reduced mod char over F_p."""
    out = _convolve_ints(a, b, folds)
    if char:
        return {e: v % char for e, v in out.items() if v % char}
    return {e: v for e, v in out.items() if v}


def _power_tables(
    parts: tuple[Poly, ...],
    binds: dict[int, Pair],
    target: Context,
) -> Tables:
    """Variable -> {k: (scale, ints)} with ints / scale = n^k * d^(M - k).

    (n, d) is the variable's binding and M its largest exponent in any
    of the parts; only the exponents k that occur are tabulated. Each
    binding part is lifted to integers once (_lift_ints) and its powers
    are taken over the integers, reduced mod p over F_p.
    """
    folds = target.folds
    char = target.field.char
    one = {(0,) * target.nsym: 1}
    tables: Tables = {}
    for v, (n, d) in binds.items():
        used = {e[v] for part in parts for e in part.terms}
        top = max(used, default=0)
        if not top:
            continue
        powers = []
        for base, upto in ((n, top), (d, top - min(used))):
            scale, ints = _lift_ints(base.terms)
            row = [(1, one)]
            for _ in range(upto):
                s, t = row[-1]
                row.append((s * scale, _times(t, ints, folds, char)))
            powers.append(row)
        npow, dpow = powers
        table = {}
        for k in used:
            (sn, tn), (sd, td) = npow[k], dpow[top - k]
            table[k] = (sn * sd, _times(tn, td, folds, char))
        tables[v] = table
    return tables


def compose_poly_raw(
    p: Poly,
    tables: Tables,
    target: Context,
    const_map: dict[int, int],
) -> Poly:
    """p with its variables substituted, times the tables' denominator.

    With (n_v, d_v) the binding of v and M_v the top of its table, the
    result is the sum over the terms c * x^e of p of c * x^e' times the
    product over v of n_v^e_v * d_v^(M_v - e_v), where e' keeps the roots
    and parameters of e (mapped by const_map). One common scale is taken
    up front from the term exponents, so every term becomes an integer
    leaf; the leaves accumulate in place over the integers (_horner), and
    each surviving coefficient is normalized once at the end.
    """
    items = list(tables.items())
    scales = []
    for e, c in p.terms.items():
        s = c.denominator
        for v, table in items:
            s *= table[e[v]][0]
        scales.append(s)
    common = 1
    for s in scales:
        common = common * s // math.gcd(common, s)
    leaves = []
    for (e, c), s in zip(p.terms.items(), scales):
        mono = [0] * target.nsym
        for i, j in const_map.items():
            mono[j] = e[i]
        leaves.append((e, tuple(mono), c.numerator * (common // s)))
    return _from_ints(target, common, _horner(leaves, items, target.folds))


def _horner(leaves: list, items: list, folds) -> dict[tuple[int, ...], Any]:
    """Sum of k * x^mono * prod of table[e[v]] over the leaves (e, mono, k).

    The sum is nested by variable: the leaves are grouped by their
    exponent of the first variable, and each group's sum over the other
    variables is multiplied by that variable's table entry once. Products
    are added into one dict per level; nothing is normalized.
    """
    acc: dict[tuple[int, ...], Any] = {}
    get = acc.get
    if not items:
        for _, mono, k in leaves:
            acc[mono] = get(mono, 0) + k
        return acc
    (v, table), rest = items[0], items[1:]
    groups: dict[int, list] = {}
    for leaf in leaves:
        groups.setdefault(leaf[0][v], []).append(leaf)
    for ev, group in groups.items():
        inner = _horner(group, rest, folds)
        for key, val in _convolve_ints(table[ev][1], inner, folds).items():
            acc[key] = get(key, 0) + val
    return acc


def substitute_raw(
    f: Pair,
    bindings: Mapping[str, Any],
    target: Context | None = None,
) -> Pair:
    """Unreduced substitution of a (num, den) pair; raises SubstitutionPole.

    Both parts are expanded over one common denominator, the product of
    d_v^M_v with M_v the larger of the two parts' degrees in v, from
    power tables built once per call. The pair is therefore
    (P * prod d_v^(M_q,v - M_p,v)+, Q * prod d_v^(M_p,v - M_q,v)+) for P
    and Q each over its own prod d_v^M: no power of d_v common to both
    parts is formed.
    """
    sctx = f[0].ctx
    tctx = target if target is not None else sctx
    if tctx.field != sctx.field:
        raise ValueError("substitution cannot change the coefficient field")
    const_map = sctx.constant_map_into(tctx)
    binds = _binding_pairs(sctx, bindings, tctx)
    tables = _power_tables(f, binds, tctx)
    num = compose_poly_raw(f[0], tables, tctx, const_map)
    den = compose_poly_raw(f[1], tables, tctx, const_map)
    if den.is_zero():
        raise SubstitutionPole("denominator vanished under substitution")
    return num, den


def _raw_difference(a: Pair, b: Pair) -> Poly:
    """a[0]*b[1] - b[0]*a[1], subtracted over the integers.

    Both products are lifted to integers (denominators cleared, as in
    Poly.__mul__) and brought to one common scale, so only the surviving
    coefficients are normalized, once each.
    """
    ctx = a[0].ctx
    sl, left = _lifted_product(a[0].terms, b[1].terms, ctx.folds)
    sr, right = _lifted_product(b[0].terms, a[1].terms, ctx.folds)
    scale = math.lcm(sl, sr)
    ml, mr = scale // sl, scale // sr
    if ml != 1:
        left = {e: v * ml for e, v in left.items()}
    get = left.get
    for e, v in right.items():
        left[e] = get(e, 0) - v * mr
    return _from_ints(ctx, scale, left)
