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
poly._weights: slot j has radix 1 + B_j, and a monomial's word
is its exponent vector read in that radix. B_j is the largest slot-j
exponent of the parts' roots and parameters (mapped into the target),
plus one term per group g, a group of one included. A key of g is the
tuple (e_v) of its variables' exponents in a term; its table entry is
prod n_v^e_v * d_g^(M_g - sum e_v), whose slot j is at most

    sum e_v * deg_j n_v + (M_g - sum e_v) * deg_j d_g,

and the term is the largest of these over the keys that occur. (For a
group of one this is linear in its exponent k, so it peaks at the
smallest or the largest k that occurs, not always at the top.) Every
power of n_v or d_g, and every partial product, that a table needs
divides some table entry, so every such factor, every table entry and
every partial sum of a part's expansion stays within B_j in slot j,
and the word of a product monomial is the sum of its factors' words:
no slot carries into the next. A part's expansion is nested by group
(_horner): each level is one sum over its keys of the table entry times
the key's sum over the later levels, added in one big integer where
poly._packed takes the sum. The products are unfolded (a root
exponent may exceed 1). A root fold is the ring map r^2 -> a (or
r^2 -> a constant), so folding a part's sum once gives what folding
every product would: each part's sum is decoded into exponent tuples
once, folded once, and each surviving coefficient is normalized once.

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
do not depend on which path ran. A bare variable, f = (x_v, 1) with
coefficient one, maps to its binding pair (n_v, d_v) as it stands:
that is the engine's pair (a group of one with top 1, whose table entry
is n_v over d_v^1), and its parts are already folded and normalized.

The zero test of two raw pairs a and b (actions._witness) decides
whether a[0]*b[1] - b[0]*a[1] is zero in two steps, each exact:

1. Equal pairs. a[0] == b[0] and a[1] == b[1] make the two products
   equal, so the difference is zero and nothing is multiplied.
2. The difference. _raw_difference lifts the four parts to integer
   terms A0, B1, B0, A1 once, with ml and mr the scales that bring both
   products to one, and poly._difference_ints forms the unfolded
   ml*A0*B1 - mr*B0*A1 (as one packed sum where poly._packed takes the
   pair, which is zero exactly when the difference is). The
   root folds (a ring map) are applied once and each surviving
   coefficient is normalized once, mod p over F_p; the test reads the
   Poly, which is the witness when it is nonzero.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul
from typing import Any, Callable, Mapping, Sequence

from .context import Context
from .errors import DivisionByZero, SubstitutionPole, UnknownRoot
from .gcd import cancel, unit_normal
from .poly import (
    Poly, _decode, _difference_ints, _fold, _from_ints, _lift_ints, _weights, _word_sum,
)

Pair = tuple[Poly, Poly]
# One level (key, table) per group of bound variables: key, an itemgetter
# over the group's variables, reads its key from an exponent tuple, and
# table maps each key that occurs to its entry (scale, words); see
# _word_tables.
Tables = list[tuple[Callable, dict[Any, tuple[int, dict[int, int]]]]]


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
    largest slot-j bound of its table entries over the keys that occur.
    So words add without carries. Each part's sum is decoded and
    root-folded once (_expand); the module docstring has the argument.

    When every binding of a variable that occurs is a monomial over a
    monomial (any coefficient, any root and parameter exponents), both
    parts are mapped term by term instead (_termwise), to the same pair.
    The dispatch reads the groups the engine needs anyway.

    A bare variable, f = (x_v, 1) with coefficient one, returns the
    binding pair of v itself, after the bindings are validated and with
    the pole check: that is the engine's pair (module docstring).
    """
    sctx = f[0].ctx
    tctx = target if target is not None else sctx
    if tctx.field != sctx.field:
        raise ValueError("substitution cannot change the coefficient field")
    const_map = sctx.constant_map_into(tctx)
    binds = _binding_pairs(sctx, bindings, tctx)
    v = _bare_variable(f)
    if v is not None:
        num, den = binds[v]
        if den.is_zero():
            raise SubstitutionPole("denominator vanished under substitution")
        return num, den
    terms = [*f[0].terms, *f[1].terms]
    cols = list(zip(*terms))
    groups = _groups(terms, cols, binds)
    factors = _monomial_factors(groups, binds)
    if factors is not None:
        num, den = (_termwise(part, factors, tctx, const_map) for part in f)
    else:
        radices, weights, tables = _word_tables(cols, groups, binds, tctx, const_map)
        num, den = (_expand(part, tables, tctx, const_map, radices, weights) for part in f)
    if den.is_zero():
        raise SubstitutionPole("denominator vanished under substitution")
    return num, den


def _bare_variable(f: Pair) -> int | None:
    """v when f is (x_v, 1), the bare variable with coefficient one, else None."""
    if len(f[0].terms) != 1 or not f[1].is_one():
        return None
    ((e, c),) = f[0].terms.items()
    if c != 1 or sum(e) != 1:
        return None
    v = e.index(1)
    return v if f[0].ctx.is_variable(v) else None


def _word_tables(
    cols: list,
    groups: list[tuple],
    binds: dict[int, Pair],
    target: Context,
    const_map: dict[int, int],
) -> tuple[list[int], list[int], Tables]:
    """(radices, weights, tables): the call's layout and power tables.

    cols holds the exponent columns of both parts, and groups the bound
    variables that occur in them, grouped by their binding denominator
    (_groups). A group g over d_g with top M_g has one level (key, table):
    table[key(e)] = prod n_v^e_v * d_g^(M_g - sum e_v) for each key that
    occurs, the product of one power of each base (n_v, ..., d_g).
    Entries are (scale, words) with words / scale the entry, unfolded.

    Slot j has radix 1 + B_j and weight the product of the radices after
    it. B_j (module docstring) is the largest slot-j root or parameter
    exponent of the parts plus, per group, the largest over its keys of
    sum over the bases of (power * slot-j degree): it bounds slot j of
    every table entry and of every partial sum of _expand. A slot in
    which no base of a group has a positive degree adds 0. Each base is
    lifted to integers (_lift_ints) and encoded once; its powers are
    taken over the integers, reduced mod p over F_p.
    """
    nsym = target.nsym
    bound = [0] * nsym
    for i, j in const_map.items():
        bound[j] = max(cols[i])
    lifted = []
    for key, vs, d, used, top in groups:
        # The bases n_v, ..., d_g, and for each key the powers they take.
        bases = [_lift_ints(binds[v][0].terms) for v in vs]
        bases.append(_lift_ints(d.terms))
        powers = [(*es, top - sum(es)) for es in used.values()]
        degs = zip(*[_slot_degrees(t, nsym) for _, t in bases])
        for j, dj in enumerate(degs):
            if any(dj):
                bound[j] += max([sum(map(mul, x, dj)) for x in powers])
        lifted.append((key, used, powers, zip(bases, map(max, zip(*powers)))))
    radices = [b + 1 for b in bound]
    weights = _weights(radices)
    char = target.field.char
    levels = []
    for key, used, powers, bases in lifted:
        rows = []
        for (scale, ints), upto in bases:
            base = {sum(map(mul, e, weights)): c for e, c in ints.items()}
            row = [(1, {0: 1}), (scale, base)][: upto + 1]
            for _ in range(upto - 1):
                s, t = row[-1]
                row.append((s * scale, _reduced(_word_sum(((t, base),)), char)))
            rows.append(row)
        table = {}
        for k, x in zip(used, powers):
            scale, words = 1, None
            for row, e in zip(rows, x):
                if e:
                    s, t = row[e]
                    scale *= s
                    words = t if words is None else _reduced(_word_sum(((words, t),)), char)
            table[k] = (scale, words)
        levels.append((key, table))
    return radices, weights, levels


def _groups(terms: list, cols: list, binds: dict[int, Pair]) -> list[tuple]:
    """The bound variables that occur in terms, grouped by denominator.

    terms lists the exponent tuples of both parts' terms, and cols their
    columns. Variables whose binding denominators are equal and
    nonconstant form one group; every other variable is a group of one.
    Each group is (key, its variables vs, their denominator, used, top),
    in the order of binds: key = itemgetter(*vs) reads the group's key
    from an exponent tuple, used maps each key that occurs to the tuple
    of the group's exponents in a term with that key, and top, M_g, is
    the largest sum of such a tuple.
    """
    found: list = []
    for v, (_, d) in binds.items():
        if not max(cols[v]):
            continue
        for vs, dg in found:
            # Equal monomials first: Poly equality compares coefficients.
            if dg.terms.keys() == d.terms.keys() and not d.is_constant() and dg == d:
                vs.append(v)
                break
        else:
            found.append(([v], d))
    groups = []
    for vs, d in found:
        key = itemgetter(*vs)
        # A key of one variable is its exponent, of several their tuple.
        keys = dict.fromkeys(map(key, terms))
        used = {k: (k,) for k in keys} if len(vs) == 1 else {k: k for k in keys}
        groups.append((key, vs, d, used, max(map(sum, used.values()))))
    return groups


def _monomial_factors(groups: list[tuple], binds: dict[int, Pair]) -> list | None:
    """The groups' binding monomials, for _termwise; None unless all are.

    Returns None as soon as a group's denominator, or the numerator of
    one of its variables, has more than one term. Otherwise each group
    becomes ([(v, n_v)], d_g, M_g), every monomial given as (its nonzero
    (slot, exponent) pairs, coefficient numerator, coefficient
    denominator), and M_g the group's top.
    """
    factors = []
    for _, vs, d, _, top in groups:
        if len(d.terms) != 1:
            return None
        nums = []
        for v in vs:
            n = binds[v][0]
            if len(n.terms) != 1:
                return None
            nums.append((v, _monomial(n)))
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
    parameters of e (mapped by const_map). Every level reads its key
    from the exponent tuple. One common scale is taken up front from the
    term exponents, so every term becomes an integer leaf; the leaves
    are summed over the integers, one sum per level (_horner). The
    sum's words are decoded into exponent tuples column by column
    (poly._decode), its root folds are applied once, and each surviving
    coefficient is normalized once.
    """
    terms = p.terms.items()
    scales = []
    for e, c in terms:
        s = c.denominator
        for key, table in tables:
            s *= table[key(e)][0]
        scales.append(s)
    common = math.lcm(*scales)
    leaves = [
        (e, sum(e[i] * weights[j] for i, j in const_map.items()), c.numerator * (common // s))
        for (e, c), s in zip(terms, scales)
    ]
    decoded = _decode(_horner(leaves, tables), weights, radices)
    return _from_ints(target, common, _fold(decoded, target.folds))


def _horner(leaves: list, levels: list) -> dict[int, int]:
    """Sum of k * x^word * prod of table[key(e)] over the leaves (e, word, k).

    The sum is nested by level: the leaves are grouped by the first
    level's key, and the level is one sum (poly._word_sum) over its keys
    of the table entry times the group's sum over the other levels, so
    where poly._packed takes it, a level is one big-int sum; else its
    products pack or loop one by one. Nothing is normalized or folded,
    and zeros may remain.
    """
    if not levels:
        acc: dict[int, int] = {}
        get = acc.get
        for _, word, k in leaves:
            acc[word] = get(word, 0) + k
        return acc
    (key, table), rest = levels[0], levels[1:]
    groups: dict[Any, list] = {}
    for leaf in leaves:
        groups.setdefault(key(leaf[0]), []).append(leaf)
    return _word_sum([(table[ev][1], _horner(group, rest)) for ev, group in groups.items()])


def _raw_difference(a: Pair, b: Pair) -> Poly:
    """a[0]*b[1] - b[0]*a[1], subtracted over the integers.

    The four parts are lifted to integers (denominators cleared, as in
    Poly.__mul__) and both products brought to one common scale; the
    unfolded difference (poly._difference_ints) is folded once, and
    only the surviving coefficients are normalized, once each.
    """
    ctx = a[0].ctx
    (s0, a0), (s1, b1), (s2, b0), (s3, a1) = (_lift_ints(p.terms) for p in (a[0], b[1], b[0], a[1]))
    sl, sr = s0 * s1, s2 * s3
    scale = math.lcm(sl, sr)
    diff = _difference_ints(a0, b1, b0, a1, scale // sl, scale // sr)
    return _from_ints(ctx, scale, _fold(diff, ctx.folds))
