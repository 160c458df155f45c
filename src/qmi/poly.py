"""Sparse multivariate polynomials over a Context.

Representation: dict mapping exponent tuples (one slot per context symbol,
roots first, then parameters, then variables) to nonzero coefficients.
The quadratic root rewrite happens inside multiplication, so a stored
monomial never carries a root exponent above 1: whenever a product stacks
two copies of a root, the pair collapses to the underlying parameter (or
to the specialized constant).

Every large dense integer product goes through one routine, _packed
(Kronecker substitution: one big-int multiply per product, in one
byte-aligned slot per exponent word), which states the packing rule once
and declines where a loop over term pairs is cheaper, for the whole sum
or for any one product in it. It sums m*a*b over products of int term
dicts keyed by exponent words. Its callers are _word_sum, the one
word-product routine of ratfunc.substitute_raw (whose words it lays out
per call): one sum per level of ratfunc._horner, and one product per
power-table entry, each product of a level that does not pack as a
whole also packing alone where _packed takes it; and, through
_packed_tuples, which reads exponent tuples as words of the products'
exponent box, _convolve_ints (Poly.__mul__ and the gcd layer) and
_difference_ints (ratfunc's zero test, ml*A0*B1 - mr*B0*A1). _decode
turns summed words back into exponent tuples, column by column, for
_packed_tuples and ratfunc.

Coefficients are stored as the field stores them (field.py): over Q an
int when integral, else a Fraction with denominator above 1; over F_p an
int in 0..p-1. Products and sums leave the integers through _from_ints,
which applies that rule once per surviving term, so integral
coefficients never pass through Fraction arithmetic. As Fraction(n) == n
and hash(Fraction(n)) == hash(n), the rule changes no equality or hash.

Polynomials are immutable by convention; every operation returns a fresh
dict. Equality and hashing are structural.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count
from operator import add, mul
from typing import Any

from .context import Context, mono_key
from .field import rational


def _lift_ints(terms: dict) -> tuple[int, dict]:
    """Clear denominators: (common scale, integer terms).

    Over Q an integral coefficient is already an int (field.rational),
    so a dict of ints only is copied. The integer terms are always a
    fresh dict, which callers such as gcd._sub may consume.
    """
    for c in terms.values():
        if type(c) is not int:
            break
    else:
        return 1, dict(terms)
    L = math.lcm(*[c.denominator for c in terms.values()])
    return L, {e: c.numerator * (L // c.denominator) for e, c in terms.items()}


def _lifted_product(a: dict, b: dict, folds) -> tuple[int, dict]:
    """(scale, integer terms) of a*b: the product is the terms over scale."""
    la, ia = _lift_ints(a)
    lb, ib = _lift_ints(b)
    return la * lb, _convolve_ints(ia, ib, folds)


def _from_ints(ctx: Context, scale: int, terms: dict) -> "Poly":
    """The Poly of terms / scale, each surviving coefficient normalized once.

    Over F_p the terms are integers with scale 1, reduced mod p here.
    Over Q each coefficient is stored by field.rational's rule: an int
    when integral, else a Fraction. The terms are ints, except where a
    root fold by a non-integral constant (sqrt(1/2)^2 = 1/2) made some
    of them Fractions, which may be integral.
    """
    p = ctx.field.char
    if p:
        return Poly(ctx, {e: v % p for e, v in terms.items() if v % p})
    return Poly(ctx, _over(scale, terms))


def _over(scale: int, terms: dict) -> dict:
    """The nonzero terms / scale over Q, stored by field.rational's rule.

    The terms are ints or Fractions, and scale a positive int.
    """
    if scale == 1:
        return {e: v if type(v) is int else rational(v) for e, v in terms.items() if v}
    return {e: v // scale if not v % scale else Fraction(v, scale) for e, v in terms.items() if v}


# The packed path (_packed) pays off from about this many term pairs, and
# only while the packed sum has at most this many bytes per term pair (the
# density guard): its multiply and decode cost grow with the bytes, the
# loop's with the pairs.
_PACK_MIN_PAIRS = 300
_PACK_MAX_BYTES_PER_PAIR = 6


def _convolve_ints(a: dict, b: dict, folds) -> dict[tuple[int, ...], Any]:
    """Multiply two term dicts keyed by exponent tuples.

    Each fold (root slot, parameter slot, constant) halves a root
    exponent above 1, moving the pairs into the parameter slot, or, when
    the parameter slot is None, into the coefficient as a power of the
    constant. Coefficients may be any numbers; callers lift to ints where
    they can. Sums are left unreduced (zeros may remain, no modulus is
    applied) for the caller to normalize. Exponents are nonnegative.

    The unfolded product goes through _packed_tuples where every
    coefficient is an int and _packed takes it, else through the loop
    over term pairs (_convolve_loop); the sums are equal. The folds act
    on the result.
    """
    if (
        len(a) * len(b) >= _PACK_MIN_PAIRS
        and all(type(c) is int for c in a.values())
        and all(type(c) is int for c in b.values())
    ):
        out = _packed_tuples(((1, a, b),))
        if out is not None:
            return _fold(out, folds)
    return _fold(_convolve_loop(a, b), folds)


def _fold(terms: dict, folds) -> dict[tuple[int, ...], Any]:
    """Apply the root folds to a product; terms that meet are summed."""
    if not folds:
        return terms
    out: dict[tuple[int, ...], Any] = {}
    get = out.get
    for e, c in terms.items():
        merged = list(e)
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


def _convolve_loop(a: dict, b: dict) -> dict[tuple[int, ...], Any]:
    """The unfolded product, one step per term pair (any coefficients)."""
    out: dict[tuple[int, ...], Any] = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return out


def _difference_ints(a0: dict, b1: dict, b0: dict, a1: dict, ml: int, mr: int) -> dict:
    """The unfolded terms of ml*a0*b1 - mr*b0*a1, for int term dicts.

    The pair goes through one big-int multiply where _packed takes it
    (_packed_tuples): its slots hold the sum of ml * _coeff_bound(a0, b1)
    and mr * _coeff_bound(b0, a1), which bounds every coefficient of the
    difference, so the packed integer is zero exactly when the
    difference is, and decodes exactly when it is not. Otherwise the two
    products of _convolve_ints, each of which may pack on its own, are
    subtracted over the integers. Zeros may remain.
    """
    if len(a0) * len(b1) + len(b0) * len(a1) >= _PACK_MIN_PAIRS:
        out = _packed_tuples(((ml, a0, b1), (-mr, b0, a1)))
        if out is not None:
            return out
    out = _convolve_ints(a0, b1, ())
    if ml != 1:
        out = {e: v * ml for e, v in out.items()}
    get = out.get
    for e, v in _convolve_ints(b0, a1, ()).items():
        out[e] = get(e, 0) - v * mr
    return out


def _packed_tuples(products) -> dict[tuple[int, ...], int] | None:
    """_packed over int term dicts keyed by exponent tuples, or None.

    The operands are read as words of one mixed-radix layout (last slot
    fastest), whose radix in a slot is one more than the largest
    exponent sum there of any product, so the word of a product monomial
    is the sum of its factors' words. The summed words decode back into
    exponent tuples.
    """
    radices = [
        max(cols) + 1
        for cols in zip(*[map(add, map(max, zip(*a)), map(max, zip(*b))) for _, a, b in products])
    ]
    weights = _weights(radices)
    out = _packed([
        (
            m,
            {sum(map(mul, e, weights)): c for e, c in a.items()},
            {sum(map(mul, e, weights)): c for e, c in b.items()},
        )
        for m, a, b in products
    ])
    return out if out is None else _decode(out, weights, radices)


def _decode(words: dict[int, int], weights: list[int], radices: list[int]) -> dict:
    """words keyed by exponent tuples instead: decoded column by column.

    With no slots every word is 0, the empty tuple.
    """
    cols = [[k // w % r for k in words] for w, r in zip(weights, radices)]
    exps = zip(*cols) if cols else [()] * len(words)
    return dict(zip(exps, words.values()))


def _weights(radices: list[int]) -> list[int]:
    """Slot weights of a mixed-radix layout, last slot fastest."""
    weights = [1] * len(radices)
    for j in range(len(radices) - 1, 0, -1):
        weights[j - 1] = weights[j] * radices[j]
    return weights


def _word_sum(products) -> dict[int, int]:
    """The sum of a*b over products (a, b) of int term dicts keyed by
    exponent words.

    A word is an exponent vector read in a mixed-radix layout that no
    sum of exponents in the sum overflows, so the word of a product
    monomial is the sum of its factors' words; nothing is folded. A sum
    of several products goes through _packed where it takes the whole
    sum. Otherwise each product goes through _packed alone where it has
    _PACK_MIN_PAIRS term pairs and _packed takes it, else through a loop
    over its term pairs, and the products are added into one dict.
    Zeros may remain.
    """
    if len(products) > 1 and sum(len(a) * len(b) for a, b in products) >= _PACK_MIN_PAIRS:
        out = _packed([(1, a, b) for a, b in products])
        if out is not None:
            return out
    out: dict[int, int] = {}
    for a, b in products:
        term = _packed(((1, a, b),)) if len(a) * len(b) >= _PACK_MIN_PAIRS else None
        if term is None:
            get = out.get
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
        elif not out:
            out = term
        else:
            get = out.get
            for key, val in term.items():
                out[key] = get(key, 0) + val
    return out


def _packed(products) -> dict[int, int] | None:
    """The sum of m*a*b over products (m, a, b) of int term dicts keyed by
    exponent words, through one big-int multiply; None when it declines.

    This is Kronecker substitution, and the only packing rule: it packs
    when every operand has at least 2 terms, the products have at least
    _PACK_MIN_PAIRS term pairs together, and span * w is at most
    _PACK_MAX_BYTES_PER_PAIR times the term pairs, both for the whole sum
    and for each product alone, so that no sparse product rides on the
    density of the others. The sum has one slot per word from its
    smallest to its largest, the span, of w bytes each; a product's own
    span runs from its smallest word to its largest. A slot holds
    sum |m| * _coeff_bound(a, b), which bounds every coefficient of the
    sum and of every operand, plus a sign bit (_slot_bytes): no slot
    spills into the next. Each operand packs
    once (_pack) with slot index its word minus its smallest word; a
    product is shifted by the offset of its smallest word against the
    sum's, and a nonzero sum decodes once (_unpack).
    """
    pairs = 0
    for _, a, b in products:
        if len(a) < 2 or len(b) < 2:
            return None
        pairs += len(a) * len(b)
    if pairs < _PACK_MIN_PAIRS:
        return None
    lows = [(min(a), min(b)) for _, a, b in products]
    spans = [max(a) + max(b) - la - lb + 1 for (_, a, b), (la, lb) in zip(products, lows)]
    lo = min(map(sum, lows))
    span = max([la + lb + s for (la, lb), s in zip(lows, spans)]) - lo
    w = _slot_bytes(sum(abs(m) * _coeff_bound(a.values(), b.values()) for m, a, b in products))
    limit = _PACK_MAX_BYTES_PER_PAIR
    if span * w > limit * pairs or any(
        s * w > limit * len(a) * len(b) for s, (_, a, b) in zip(spans, products)
    ):
        return None
    total = 0
    for (m, a, b), (la, lb) in zip(products, lows):
        pa = _pack([k - la for k in a], a.values(), w)
        pb = _pack([k - lb for k in b], b.values(), w)
        total += m * pa * pb << 8 * w * (la + lb - lo)
    if not total:
        return {}
    flags, values = _unpack(total, span, w)
    return dict(zip(compress(count(lo), flags), values))


def _slot_bytes(bound: int) -> int:
    """Bytes per packed slot: the fewest that hold bound, plus a sign bit."""
    return (bound.bit_length() + 8) // 8


def _coeff_bound(av, bv) -> int:
    """A bound on every coefficient of the product and of either operand.

    A product coefficient sums at most one pair per term of either
    operand, so its size is at most min(max|a|*sum|b|, max|b|*sum|a|),
    which is at most max|a|*max|b|*min(|a|, |b|).
    """
    ma, mb = max(map(abs, av)), max(map(abs, bv))
    return max(ma, mb, min(ma * sum(map(abs, bv)), mb * sum(map(abs, av))))


def _unpack(n: int, nslots: int, w: int) -> tuple[bytes, list[int]]:
    """Decode n = sum of c_k * 256^(w*k) over nslots slots, |c_k| < 2^(8w-1).

    Slot k owns bytes [k*w, (k+1)*w) of an integer. Adding half a slot
    to every slot leaves each slot in [0, 2^(8w)) with no borrow from
    its neighbours. A slot equal to that bias is a zero: such slots are
    found with whole-integer operations and skipped, and each other slot
    decodes from one byte slice. Returns one flag byte per slot, nonzero
    for a nonzero coefficient, and the coefficients of the flagged slots
    in slot order.
    """
    size = nslots * w
    bias = 1 << (8 * w - 1)
    biases = int.from_bytes(bias.to_bytes(w, "little") * nslots, "little")
    lows = int.from_bytes((bias - 1).to_bytes(w, "little") * nslots, "little")
    shifted = n + biases
    buf = shifted.to_bytes(size, "little")
    # Per slot x = shifted ^ bias, which is 0 exactly for a zero
    # coefficient: ((x & low) + low) | x has its top bit set iff x != 0,
    # and no slot carries into the next. The top bytes are the flags.
    changed = shifted ^ biases
    marks = (((changed & lows) + lows) | changed) & biases
    flags = marks.to_bytes(size, "little")[w - 1 :: w]
    from_bytes = int.from_bytes
    return flags, [
        from_bytes(buf[i : i + w], "little") - bias for i in compress(range(0, size, w), flags)
    ]


def _pack(index: list[int], coeffs, w: int) -> int:
    """One operand as the sum of c * 256^(w * k) over its slots k."""
    size = (max(index) + 1) * w
    pos = bytearray(size)
    neg = bytearray(size)
    for k, c in zip(index, coeffs):
        i = k * w
        if c > 0:
            pos[i : i + w] = c.to_bytes(w, "little")
        else:
            neg[i : i + w] = (-c).to_bytes(w, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


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
        exps = max(self.terms, key=mono_key)
        return exps, self.terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Any]]:
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]), reverse=True)

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
        if coeff == self.ctx.field.one:
            return Poly(self.ctx, dict(self.terms))
        mul = self.ctx.field.mul
        return Poly(self.ctx, {e: mul(c, coeff) for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if len(other.terms) <= 1 and other.is_constant():
            return self.scale(next(iter(other.terms.values()), 0))
        if len(self.terms) <= 1 and self.is_constant():
            return other.scale(next(iter(self.terms.values()), 0))
        # Fraction/mod-p arithmetic normalizes on every operation, which
        # dominates large products.  Both fields embed in the integers
        # after clearing denominators, so convolve there and normalize
        # once per surviving term.
        return _from_ints(self.ctx, *_lifted_product(self.terms, other.terms, self.ctx.folds))

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
