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
and expands both parts over one common denominator. The bound variables
are grouped by binding denominator: variables bound over one and the same
nonconstant d form a group, and every other variable is a group of one.
A group g is expanded over d_g^M_g, with M_g the largest sum of its
variables' exponents in a term of either part. So the pair carries no
power of a binding denominator that both parts share and that the
degrees do not need, also when several variables share it: x1 -> a/d,
x2 -> b/d takes x1 + x2 to (a + b, d), not to ((a + b) d, d^2).

The expansion runs on exponent words. A call fixes one mixed-radix
layout over the target's symbol slots, last slot fastest as in
poly._convolve_packed: slot j has radix 1 + B_j, and a monomial's word
is its exponent vector read in that radix. B_j is the largest slot-j
exponent of the parts' roots and parameters (mapped into the target),
plus one term per group. For a group of one, a variable v with binding
n_v / d_v, the term is

    max(top_v * deg_j n_v, lo_v * deg_j n_v + (top_v - lo_v) * deg_j d_v),

where lo_v and top_v (= M_g) are the smallest and largest exponents of
v in the parts. Slot j of the table entry n_v^k * d_v^(top_v - k) is at
most k * deg_j n_v + (top_v - k) * deg_j d_v, which is linear in k, so
it is largest at k = lo_v or k = top_v. For a larger group the entry of
a key (e_v) is prod n_v^e_v * d_g^(M_g - sum e_v), whose slot j is at
most sum e_v * deg_j n_v + (M_g - sum e_v) * deg_j d_g; the term is the
largest of these over the keys that occur. Every power of n_v or d_v,
and every partial product, that a table needs divides some table entry,
so every such factor, every table entry and every partial sum of a part's expansion stays within
B_j in slot j, and the word of a product monomial is the sum of its
factors' words: no slot carries into the next. The products are
unfolded (a root exponent may exceed 1). A root fold is the ring map
r^2 -> a (or r^2 -> a constant), so folding a part's sum once gives
what folding every product would: each part's sum is decoded into
exponent tuples once, folded once, and each surviving coefficient is
normalized once.

Most calls need none of this. When every bound variable that occurs in
either part has a one-term numerator and a one-term denominator, as
under the quasi-monomial actions sigma(x_j) = c_j * prod x_i^a_ij,
sign flips and renamings, each table entry prod n_v^e_v *
d_g^(M_g - sum e_v) is one monomial, so a term c * x^e maps to one
term. substitute_raw then maps each part term by term (_termwise),
with the groups and M_g read from the same occurrence sets. The terms
are the engine's products, summed over the integers at one common
scale, folded once and normalized once, as _expand does: the pair is
the engine's pair, term for term, so zero tests, poles and witnesses
do not depend on which path ran.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul
from typing import Any, Callable, Mapping, Sequence

from .context import Context
from .errors import DivisionByZero, SubstitutionPole, UnknownRoot
from .gcd import cancel, unit_normal
from .poly import Poly, _convolve_words, _fold, _from_ints, _lift_ints, _lifted_product

Pair = tuple[Poly, Poly]
# (keys, levels): one itemgetter per group of two or more bound variables,
# whose values _expand appends to each exponent tuple, and one (position,
# table) per group, the table keyed by the value at that position of the
# extended tuple; see _word_tables.
Tables = tuple[list[Callable], list[tuple[int, dict[Any, tuple[int, dict[int, int]]]]]]


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


def substitute_raw(
    f: Pair,
    bindings: Mapping[str, Any],
    target: Context | None = None,
) -> Pair:
    """Unreduced substitution of a (num, den) pair; raises SubstitutionPole.

    Both parts are expanded over one common denominator, the product
    over the groups g of bound variables of d_g^M_g, from power tables
    built once per call. Variables whose binding denominators are equal
    (Poly equality) and nonconstant form one group over that d_g; every
    other variable is a group of one. M_g is the largest sum of the
    group's exponents in a term of either part. The pair is therefore
    (P * prod d_g^(M_g - M_p,g), Q * prod d_g^(M_g - M_q,g)) for P and Q
    each over its own prod d_g^M: no power of d_g common to both parts
    is formed. Both parts are multiplied by the same nonzero factor, so
    the pair's ratio, its zero tests and the pole condition do not
    depend on the grouping.

    The expansion runs on int exponent words in one mixed-radix layout
    per call (_word_tables): slot j has radix 1 + B_j, where B_j adds
    the parts' largest slot-j constant exponent and, per group, the
    largest slot-j bound of its table entries: for a group of one, the
    larger of the bounds at k = lo and k = top (that bound is linear in
    k); for a larger group, the largest over its keys that occur. So
    words add without carries. Each part's sum is decoded and
    root-folded once (_expand); the module docstring has the argument.

    When every binding of a variable that occurs is a monomial over a
    monomial (any coefficient, any root and parameter exponents), both
    parts are mapped term by term instead (_termwise), to the same pair.
    The dispatch reads the groups the engine needs anyway.
    """
    sctx = f[0].ctx
    tctx = target if target is not None else sctx
    if tctx.field != sctx.field:
        raise ValueError("substitution cannot change the coefficient field")
    const_map = sctx.constant_map_into(tctx)
    binds = _binding_pairs(sctx, bindings, tctx)
    cols = [list(zip(*part.terms)) for part in f if part.terms]
    groups = _groups(cols, binds)
    factors = _monomial_factors(groups, binds)
    if factors is not None:
        num, den = (_termwise(part, factors, tctx, const_map) for part in f)
    else:
        radices, weights, tables = _word_tables(cols, groups, binds, tctx, const_map)
        num, den = (_expand(part, tables, tctx, const_map, radices, weights) for part in f)
    if den.is_zero():
        raise SubstitutionPole("denominator vanished under substitution")
    return num, den


def _word_tables(
    cols: list,
    groups: list[list],
    binds: dict[int, Pair],
    target: Context,
    const_map: dict[int, int],
) -> tuple[list[int], list[int], Tables]:
    """(radices, weights, tables): the call's layout and power tables.

    cols holds the exponent columns of the nonzero parts, and groups the
    bound variables that occur in them, grouped by their binding
    denominator (_groups); each group g has one level (pos, table) and a
    top M_g. A group of one, v bound to n / d, is read at pos = v: M_g
    is v's largest exponent in either part, and table[k] =
    n^k * d^(M_g - k) for each exponent k of v that occurs. A larger
    group is read at a position after the source slots, where _expand
    appends the tuple of its variables' exponents (its key): M_g is the
    largest sum of a key over the terms of both parts, and table[key] =
    prod n_v^e_v * d^(M_g - sum e_v) for each key that occurs. Entries
    are (scale, words) with words / scale the entry, unfolded.

    Slot j has radix 1 + B_j and weight the product of the radices after
    it. B_j (module docstring) bounds slot j of every table entry and of
    every partial sum of _expand. Each binding part is lifted to integers
    (_lift_ints) and encoded once; its powers are taken over the
    integers, reduced mod p over F_p.
    """
    nsym = target.nsym
    width = len(cols[0])
    bound = [0] * nsym
    for i, j in const_map.items():
        bound[j] = max((max(c[i]) for c in cols), default=0)
    keys: list[Callable] = []
    lifted = []
    for vs, d, used in groups:
        sd, td = _lift_ints(d.terms)
        ddeg = _slot_degrees(td, nsym)
        if len(vs) > 1:
            pos = width + len(keys)
            keys.append(itemgetter(*vs))
            used = {k: sum(k) for k in used}
            top, lo = max(used.values()), min(used.values())
            ns = [_lift_ints(binds[v][0].terms) for v in vs]
            ndeg = list(zip(*(_slot_degrees(tn, nsym) for _, tn in ns)))
            for j, dd in enumerate(ddeg):
                bound[j] += max(sum(map(mul, k, ndeg[j])) + (top - s) * dd for k, s in used.items())
            highs = [max(col) for col in zip(*used)]
            bases = [(sn, tn, h) for (sn, tn), h in zip(ns, highs)]
            lifted.append((pos, used, top, [*bases, (sd, td, top - lo)]))
            continue
        v = vs[0]
        top, lo = max(used), min(used)
        sn, tn = _lift_ints(binds[v][0].terms)
        for j, (dn, dd) in enumerate(zip(_slot_degrees(tn, nsym), ddeg)):
            bound[j] += max(top * dn, lo * dn + (top - lo) * dd)
        lifted.append((v, used, top, ((sn, tn, top), (sd, td, top - lo))))
    radices = [b + 1 for b in bound]
    weights = [1] * nsym
    for j in range(nsym - 1, 0, -1):
        weights[j - 1] = weights[j] * radices[j]
    char = target.field.char
    levels = []
    for pos, used, top, bases in lifted:
        rows = []
        for scale, ints, upto in bases:
            base = {sum(map(mul, e, weights)): c for e, c in ints.items()}
            row = [(1, {0: 1}), (scale, base)][: upto + 1]
            for _ in range(upto - 1):
                s, t = row[-1]
                row.append((s * scale, _reduced(_convolve_words(t, base), char)))
            rows.append(row)
        table = {}
        if pos < width:
            npow, dpow = rows
            for k in used:
                if k == top:
                    table[k] = npow[k]
                elif k == 0:
                    table[k] = dpow[top]
                else:
                    (sn, tn), (sd, td) = npow[k], dpow[top - k]
                    table[k] = (sn * sd, _reduced(_convolve_words(tn, td), char))
        else:
            *npows, dpow = rows
            for k, s in used.items():
                factors = [row[e] for row, e in zip(npows, k) if e]
                if s < top:
                    factors.append(dpow[top - s])
                scale, words = factors[0]
                for sf, tf in factors[1:]:
                    scale *= sf
                    words = _reduced(_convolve_words(words, tf), char)
                table[k] = (scale, words)
        levels.append((pos, table))
    return radices, weights, (keys, levels)


def _groups(cols: list, binds: dict[int, Pair]) -> list[list]:
    """The bound variables that occur in cols, grouped by denominator.

    Variables whose binding denominators are equal and nonconstant form
    one group; every other variable is a group of one. Each group is
    [its variables, their denominator, the exponents that occur], in the
    order of binds: a group of one has the set of its variable's
    exponents, a larger group the set of its variables' exponent tuples.
    """
    groups: list = []
    for v, (_, d) in binds.items():
        used = set().union(*(c[v] for c in cols))
        if not max(used, default=0):
            continue
        for group in groups:
            # Equal monomials first: Poly equality compares Fractions.
            if group[1].terms.keys() == d.terms.keys() and not d.is_constant() and group[1] == d:
                group[0].append(v)
                break
        else:
            groups.append([[v], d, used])
    for group in groups:
        if len(group[0]) > 1:
            key = itemgetter(*group[0])
            group[2] = set().union(*(zip(*key(c)) for c in cols))
    return groups


def _monomial_factors(groups: list[list], binds: dict[int, Pair]) -> list | None:
    """The groups' binding monomials, for _termwise; None unless all are.

    Returns None as soon as a group's denominator, or the numerator of
    one of its variables, has more than one term. Otherwise each group
    becomes ([(v, n_v)], d_g, M_g), every monomial given as (its nonzero
    (slot, exponent) pairs, coefficient numerator, coefficient
    denominator), and M_g the top _word_tables would give the group.
    """
    factors = []
    for vs, d, used in groups:
        if len(d.terms) != 1:
            return None
        nums = []
        for v in vs:
            n = binds[v][0]
            if len(n.terms) != 1:
                return None
            nums.append((v, _monomial(n)))
        top = max(used) if len(vs) == 1 else max(map(sum, used))
        factors.append((nums, _monomial(d), top))
    return factors


def _monomial(p: Poly) -> tuple[list[tuple[int, int]], int, int]:
    """(nonzero (slot, exponent) pairs, numerator, denominator) of a one-term p."""
    ((e, c),) = p.terms.items()
    return [(j, k) for j, k in enumerate(e) if k], c.numerator, c.denominator


def _termwise(
    p: Poly,
    factors: list,
    target: Context,
    const_map: dict[int, int],
) -> Poly:
    """What _expand gives for p when every binding is a monomial.

    The engine's factor prod n_v^e_v * d_g^(M_g - sum e_v) of a term
    c * x^e is then one monomial, so each term maps to one term: its
    exponents add e_v times those of n_v and M_g - sum e_v times those
    of d_g to the roots and parameters of e (mapped by const_map), and
    its coefficient is c times the same powers of their coefficients.
    Terms that meet are summed over the integers at one common scale,
    root-folded once and normalized once, as in _expand, so the Poly is
    the one _expand returns.
    """
    nsym = target.nsym
    common = 1
    leaves = []
    for e, c in p.terms.items():
        out = [0] * nsym
        for i, j in const_map.items():
            out[j] = e[i]
        num, den = c.numerator, c.denominator
        for nums, (dexp, dnum, dden), top in factors:
            rest = top
            for v, (nexp, nnum, nden) in nums:
                k = e[v]
                if k:
                    rest -= k
                    for j, a in nexp:
                        out[j] += k * a
                    num *= nnum**k
                    den *= nden**k
            if rest:
                for j, a in dexp:
                    out[j] += rest * a
                num *= dnum**rest
                den *= dden**rest
        if den != 1:
            common = common * den // math.gcd(common, den)
        leaves.append((tuple(out), num, den))
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for key, num, den in leaves:
        acc[key] = get(key, 0) + num * (common // den)
    return _from_ints(target, common, _fold(acc, target.folds))


def _slot_degrees(terms: dict, nsym: int) -> list[int]:
    """The largest exponent of each slot in terms (0 for no terms)."""
    return [max(col) for col in zip(*terms)] if terms else [0] * nsym


def _reduced(words: dict[int, int], char: int) -> dict[int, int]:
    """words without zero coefficients, reduced mod char over F_p."""
    if char:
        return {k: v % char for k, v in words.items() if v % char}
    return {k: v for k, v in words.items() if v}


def _expand(
    p: Poly,
    tables: Tables,
    target: Context,
    const_map: dict[int, int],
    radices: list[int],
    weights: list[int],
) -> Poly:
    """p with its variables substituted, times the tables' denominator.

    With M_g the top of group g's table, the result is the sum over the
    terms c * x^e of p of c * x^e' times the product over the groups of
    prod n_v^e_v * d_g^(M_g - sum e_v), where e' keeps the roots and
    parameters of e (mapped by const_map). Each exponent tuple is
    extended once by the keys of the larger groups, so every level reads
    its key by position. One common scale is taken up front from the
    term exponents, so every term becomes an integer leaf; the leaves
    accumulate in place over the integers (_horner). The sum's root
    folds are applied once, after each surviving word is decoded into an
    exponent tuple, and each surviving coefficient is normalized once.
    """
    keys, levels = tables
    terms = p.terms.items()
    if keys:
        terms = [(e + tuple([key(e) for key in keys]), c) for e, c in terms]
    scales = []
    for e, c in terms:
        s = c.denominator
        for pos, table in levels:
            s *= table[e[pos]][0]
        scales.append(s)
    common = 1
    for s in scales:
        common = common * s // math.gcd(common, s)
    leaves = [
        (e, sum(e[i] * weights[j] for i, j in const_map.items()), c.numerator * (common // s))
        for (e, c), s in zip(terms, scales)
    ]
    words = _horner(leaves, levels)
    decoded = {
        tuple([k // w % r for w, r in zip(weights, radices)]): c
        for k, c in words.items()
        if c
    }
    return _from_ints(target, common, _fold(decoded, target.folds))


def _horner(leaves: list, levels: list) -> dict[int, int]:
    """Sum of k * x^word * prod of table[e[pos]] over the leaves (e, word, k).

    The sum is nested by level: the leaves are grouped by their key at
    the first level's position, and each group's sum over the other
    levels is multiplied by that level's table entry once. Products are
    added into the first product; nothing is normalized or folded.
    """
    acc: dict[int, int] = {}
    if not levels:
        get = acc.get
        for _, word, k in leaves:
            acc[word] = get(word, 0) + k
        return acc
    (pos, table), rest = levels[0], levels[1:]
    groups: dict[Any, list] = {}
    for leaf in leaves:
        groups.setdefault(leaf[0][pos], []).append(leaf)
    for ev, group in groups.items():
        term = _convolve_words(table[ev][1], _horner(group, rest))
        if not acc:
            acc = term
            continue
        get = acc.get
        for key, val in term.items():
            acc[key] = get(key, 0) + val
    return acc


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
