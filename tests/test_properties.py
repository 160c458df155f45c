"""Property-based invariants of the arithmetic layer.

Sizes are kept small: gcd cost grows quickly with degree and these run on
every test invocation. The sympy oracle file covers bigger inputs.
"""

from __future__ import annotations

import contextlib
import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, assume, given, seed, settings
from hypothesis import strategies as st

from qmi import QQ, Context, Poly, PrimeField, RatFunc, SubstitutionPole, exact_div, gcd, parse, poly_gcd, ratfunc
from qmi.errors import DivisionByZero, QmiError
from qmi.actions import Automorphism
from qmi.catalog import builtin_catalog
from qmi.gcd import unit_normal
from qmi.poly import _lift_ints, _over
from qmi.runner import run_case

CTX = Context(QQ, variables=["x1", "x2"], parameters=["a"], roots=["a"])
F3CTX = Context(PrimeField(3), variables=["s", "t"])
# A constant root: sqrt(m) is an element of Q(sqrt(-3)), not a free symbol.
M3CTX = Context(QQ, variables=["x1", "x2"], parameters=["m"], roots=["m"], specialize={"m": -3})
# A constant root whose square is not an integer: products carry Fractions.
MHALFCTX = Context(QQ, variables=["x1", "x2"], parameters=["m"], roots=["m"], specialize={"m": "1/2"})
F7CTX = Context(PrimeField(7), variables=["x1", "x2"], parameters=["a"], roots=["a"])
# Two constant roots at once: Q(sqrt(5), sqrt(-3)), a field of degree 4 over Q.
C5M3CTX = Context(
    QQ, variables=["x1", "x2"], parameters=["c", "m"], roots=["c", "m"], specialize={"c": 5, "m": -3}
)
# A constant root over F_7: 3 is a nonsquare mod 7, so this is F_49.
F7M3CTX = Context(PrimeField(7), variables=["x1", "x2"], parameters=["m"], roots=["m"], specialize={"m": 3})
# A live rooted parameter beside a constant root: the eliminated form folds
# sqrt(a) and a into one slot and keeps sqrt(m) out of the PRS main slots.
MIXEDCTX = Context(
    QQ, variables=["x1", "x2"], parameters=["a", "m"], roots=["a", "m"], specialize={"m": -3}
)
F7MIXEDCTX = Context(
    PrimeField(7), variables=["x1", "x2"], parameters=["a", "m"], roots=["a", "m"], specialize={"m": 3}
)
# Q(sqrt(5)): one constant root, whose square is an integer.
C5CTX = Context(QQ, variables=["x1", "x2"], parameters=["c"], roots=["c"], specialize={"c": 5})
QCTX = Context(QQ, variables=["x1", "x2"])
ZCTX = Context(QQ, variables=["x1", "x2", "x3"])

# Every context of this file, by test id.
CONTEXTS = {
    "Q": QCTX,
    "Q-three-variables": ZCTX,
    "rooted-parameter": CTX,
    "F3": F3CTX,
    "F7": F7CTX,
    "root-of-minus-3": M3CTX,
    "root-of-half": MHALFCTX,
    "constant-root-5": C5CTX,
    "two-constant-roots": C5M3CTX,
    "F7-constant-root": F7M3CTX,
    "mixed-roots": MIXEDCTX,
    "F7-mixed-roots": F7MIXEDCTX,
}

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _mono(ctx: Context, exps) -> Poly:
    out = Poly.const(ctx, 1)
    for idx, k in enumerate(exps):
        if k:
            out = out * Poly.symbol(ctx, idx) ** k
    return out


@st.composite
def polys(draw, ctx=CTX, max_terms=3, max_exp=2):
    n = draw(st.integers(0, max_terms))
    p = Poly.const(ctx, 0)
    for _ in range(n):
        exps = []
        for idx in range(ctx.nsym):
            hi = 1 if idx < len(ctx.rooted) else max_exp
            exps.append(draw(st.integers(0, hi)))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        if ctx.field.char and den % ctx.field.char == 0:
            den = 1
        p = p + _mono(ctx, exps).scale(ctx.field.of(Fraction(num, den)))
    return p


@st.composite
def ratfuncs(draw, ctx=CTX):
    num = draw(polys(ctx, max_terms=2))
    den = draw(polys(ctx, max_terms=2))
    assume(not den.is_zero())
    return RatFunc(num, den)


@given(polys(), polys(), polys())
@RELAXED
def test_ring_laws(p, q, r):
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@pytest.mark.parametrize(
    "ctx",
    [CTX, C5M3CTX, F7M3CTX, MIXEDCTX, F7MIXEDCTX],
    ids=["rooted-parameter", "two-constant-roots", "F7-constant-root", "mixed-roots", "F7-mixed-roots"],
)
@given(data=st.data())
@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
def test_gcd_divisible_by_planted_factor(ctx, data):
    p, q, h = (data.draw(polys(ctx, max_terms=2, max_exp=1)) for _ in range(3))
    assume(not h.is_zero() and h.degree() >= 1)
    assume(not p.is_zero() and not q.is_zero())
    g = poly_gcd(p * h, q * h)
    quot = exact_div(g, h)  # raises NotDivisible on failure
    assert quot * h == g
    assert exact_div(p * h, h) == p
    # Canonical parts are unique, so the planted factor leaves no trace;
    # with constant roots this runs unit_normal in the extension.
    planted, plain = RatFunc(p * h, q * h), RatFunc(p, q)
    assert (planted.num, planted.den) == (plain.num, plain.den)


def _reduce_by_gcd(num, den):
    """Canonical parts by the gcd, two exact divisions, then unit_normal."""
    g = poly_gcd(num, den)
    num, den = exact_div(num, g), exact_div(den, g)
    den, num = unit_normal(den, num)
    return num, den


@pytest.mark.parametrize(
    "ctx",
    [QCTX, CTX, F7CTX, C5CTX, MIXEDCTX, F7MIXEDCTX],
    ids=["Q", "rooted-parameter", "F7", "constant-root-5", "mixed-roots", "F7-mixed-roots"],
)
@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
def test_canonical_parts_match_gcd_and_division(ctx, data):
    p, q, h = (data.draw(polys(ctx, max_terms=3, max_exp=2)) for _ in range(3))
    assume(not p.is_zero() and not q.is_zero() and not h.is_zero())
    f = RatFunc(p * h, q * h)
    assert (f.num, f.den) == _reduce_by_gcd(p * h, q * h)
    # Over the field, the PRS and its two divisions give the same parts.
    with mock.patch.object(gcd, "_HEU_ATTEMPTS", 0):
        g = RatFunc(p * h, q * h)
    assert (g.num, g.den) == (f.num, f.den)


@pytest.mark.parametrize(
    "num, den, parts",
    [
        ("6*x1+4", "2", ("3*x1+2", "1")),
        ("2", "4*x1", ("1/2", "x1")),
        ("-3", "6*x1*x2-3", ("-1/2", "x1*x2-1/2")),
        ("0", "x1+1", ("0", "1")),
    ],
)
def test_canonical_parts_with_a_constant_part(num, den, parts):
    def P(text):
        return parse(QCTX, text).num

    f = RatFunc(P(num), P(den))
    assert (f.num, f.den) == tuple(map(P, parts))
    if num != "0":
        assert (f.num, f.den) == _reduce_by_gcd(P(num), P(den))


@pytest.mark.parametrize("ctx", list(CONTEXTS.values()), ids=list(CONTEXTS))
@given(data=st.data())
@settings(max_examples=40, deadline=None, phases=[Phase.generate], derandomize=True,
          suppress_health_check=list(HealthCheck))
def test_one_term_part_cancels_as_the_heuristic_or_the_prs(ctx, data):
    """gcd.cancel with a one-term part (gcd._monomial_gcd) gives the canonical
    parts that the heuristic or the PRS gives, and where the PRS runs (over
    F_p or with constant roots), their very triple. Both parts carry a
    common monomial h, which may hold a constant root."""
    m = data.draw(polys(ctx, max_terms=1).filter(lambda p: len(p.terms) == 1))
    p = data.draw(polys(ctx, max_terms=4).filter(lambda p: not p.is_zero()))
    h = data.draw(polys(ctx, max_terms=1).filter(lambda p: not p.is_zero()))
    m, p = m * h, p * h
    assume(not m.is_constant() and not p.is_constant())
    for num, den in ((m, p), (p, m)):
        found = gcd.cancel(num, den)
        parts = ratfunc._reduce(num, den)
        with mock.patch.object(gcd, "_monomial_gcd", lambda E, a, b: None):
            assert ratfunc._reduce(num, den) == parts
            if not gcd._elim_info(ctx).integral:
                assert gcd.cancel(num, den) == found


@given(ratfuncs(), ratfuncs(), ratfuncs())
@RELAXED
def test_field_laws(f, g, h):
    assert f + g == g + f
    assert f * (g + h) == f * g + f * h
    assume(not g.is_zero())
    assert (f / g) * g == f


@given(data=st.data())
@settings(RELAXED, max_examples=100)
def test_print_parse_roundtrip(data):
    ctx = CONTEXTS[data.draw(st.sampled_from(list(CONTEXTS)))]
    f = data.draw(ratfuncs(ctx))
    again = parse(ctx, str(f))
    assert again.num == f.num and again.den == f.den
    assert _parts(again) == _parts(f)


# ASCII tokens, and three characters that str.isdigit accepts but INT does
# not: an Arabic-Indic 3, a superscript 2 and a circled 1. Ten characters
# keep every power small enough to compute.
@given(st.text(alphabet="x1 2+-*/^()\u0663\u00b2\u2460", max_size=10))
@settings(max_examples=200, deadline=None)
def test_parse_returns_a_value_or_raises_a_qmi_error(text):
    try:
        assert parse(QCTX, text).ctx == QCTX
    except QmiError:
        pass


@pytest.mark.parametrize("ctx", [QCTX, MHALFCTX], ids=["Q", "root-of-half"])
def test_negative_coefficients_print_with_one_sign(ctx):
    x1 = Poly.named(ctx, "x1")
    assert str(x1.scale(ctx.field.of(-3))) == "-3*x1"
    assert str(x1.scale(ctx.field.of(Fraction(-1, 2)))) == "-1/2*x1"
    f = parse(ctx, "-3*x1 - 1/2*x2 - 4/2")
    assert str(f) == "-1/2*x2 - 3*x1 - 2"
    assert str(-f) == "1/2*x2 + 3*x1 + 2"
    assert str(RatFunc(f.num, (x1 + x1).scale(-1))) == "(1/4*x2 + 3/2*x1 + 1)/(x1)"


def test_prime_field_coefficients_print_as_residues():
    f = parse(F7CTX, "-3*x1 - 1/2*x2")
    assert str(f) == "3*x2 + 4*x1"


def _raw_eq(a, b):
    """Equality of unreduced (num, den) pairs by cross-multiplication."""
    return (a[0] * b[1] - b[0] * a[1]).is_zero()


@given(ratfuncs(), ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=20, deadline=None, suppress_health_check=list(HealthCheck))
def test_substitute_is_a_homomorphism(f, g, b1, b2):
    # Raw-pair engine: canonicalizing the composed results would spend the
    # whole test budget on gcd, and the verification paths use raw pairs.
    from qmi.ratfunc import substitute_raw

    binds = {"x1": b1, "x2": b2}
    try:
        lhs_add = substitute_raw(((f + g).num, (f + g).den), binds)
        lhs_mul = substitute_raw(((f * g).num, (f * g).den), binds)
        fs = substitute_raw((f.num, f.den), binds)
        gs = substitute_raw((g.num, g.den), binds)
    except SubstitutionPole:
        assume(False)
    rhs_add = (fs[0] * gs[1] + gs[0] * fs[1], fs[1] * gs[1])
    rhs_mul = (fs[0] * gs[0], fs[1] * gs[1])
    assert _raw_eq(lhs_add, rhs_add)
    assert _raw_eq(lhs_mul, rhs_mul)


@given(ratfuncs())
@RELAXED
def test_root_sign_involution(f):
    flipped = f.apply_root_signs({"a": -1})
    assert flipped.apply_root_signs({"a": -1}) == f


@given(ratfuncs(), ratfuncs())
@RELAXED
def test_root_sign_multiplicative(f, g):
    signs = {"a": -1}
    assert (f * g).apply_root_signs(signs) == f.apply_root_signs(signs) * g.apply_root_signs(signs)


@given(polys(F3CTX), polys(F3CTX))
@RELAXED
def test_frobenius_in_char3(p, q):
    assert (p + q) ** 3 == p**3 + q**3


@pytest.mark.parametrize("ctx", list(CONTEXTS.values()), ids=list(CONTEXTS))
@given(data=st.data())
@settings(max_examples=20, deadline=None, suppress_health_check=list(HealthCheck))
def test_equal_implies_equal_hash(ctx, data):
    from qmi.ratfunc import _raw_difference

    f = data.draw(ratfuncs(ctx))
    h = data.draw(polys(ctx, max_terms=2, max_exp=1))
    assume(not f.is_zero() and not h.is_zero())
    g = RatFunc(f.num * h, f.den * h)
    assert g == f
    assert hash(g) == hash(f)
    rest = [RatFunc.named(ctx, v) for v in ctx.variables[1:]]
    a = Automorphism(ctx, [f, *rest])
    b = Automorphism(ctx, [g, *rest])
    assert a == b and hash(a) == hash(b)
    # Equality reads canonical parts; it must agree with the zero test of
    # the cross-multiplied difference, which needs no canonical form.
    other = data.draw(ratfuncs(ctx))
    for u, v in ((f, g), (f, other), (g, other), (-other, other)):
        assert (u == v) == _raw_difference((u.num, u.den), (v.num, v.den)).is_zero()


# -- the substitution engine against the per-part formula ---------------------


def _per_part_substitute(f, binds, target=None):
    """(pn * qd, pd * qn): each part expanded over its own power of d.

    pn / pd is f[0] with x_v -> n_v / d_v, as the sum over its terms of
    c * x^e' * prod n_v^e_v * d_v^(M_v - e_v) over prod d_v^M_v, with M_v
    the part's own degree in v; likewise qn / qd for f[1]. e' keeps the
    roots and parameters of e, moved by name into the target context; an
    unbound variable maps to its namesake there.
    """
    src = f[0].ctx
    ctx = target if target is not None else src
    pairs = {src.symbol_index(x): b for x, b in binds.items()}
    for x in src.variables:
        if x not in binds:
            pairs[src.symbol_index(x)] = (Poly.named(ctx, x), Poly.const(ctx, 1))

    def expand(p):
        top = {v: max(p.degree_in(v), 0) for v in pairs}
        num = Poly.const(ctx, 0)
        for e, c in p.terms.items():
            mono = [0] * ctx.nsym
            for i, k in enumerate(e):
                if not src.is_variable(i):
                    mono[ctx.symbol_index(src.symbols[i])] = k
            term = Poly(ctx, {tuple(mono): c})
            for v, (n, d) in pairs.items():
                term = term * n ** e[v] * d ** (top[v] - e[v])
            num = num + term
        den = Poly.const(ctx, 1)
        for v, (n, d) in pairs.items():
            den = den * d ** top[v]
        return num, den

    pn, pd = expand(f[0])
    qn, qd = expand(f[1])
    return pn * qd, pd * qn


@pytest.mark.parametrize("ctx", list(CONTEXTS.values()), ids=list(CONTEXTS))
@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
def test_substitute_raw_matches_per_part_formula(ctx, data):
    from qmi.ratfunc import substitute_raw

    nonzero = polys(ctx).filter(lambda p: not p.is_zero())
    f = (data.draw(polys(ctx)), data.draw(nonzero))
    # Raw binding pairs: denominators are not made monic and keep their
    # Fraction coefficients.
    binds = {x: (data.draw(polys(ctx, max_terms=2)), data.draw(nonzero)) for x in ctx.variables}
    ref = _per_part_substitute(f, binds)
    if ref[1].is_zero():
        with pytest.raises(SubstitutionPole):
            substitute_raw(f, binds)
        return
    num, den = substitute_raw(f, binds)
    assert _raw_eq((num, den), ref)
    # The pair is the reference with a common polynomial factor divided out.
    common = exact_div(ref[1], den)
    assert num * common == ref[0]


# Source -> target pairs where the target has symbols the source lacks, as
# in check_induced_action: extra variables and parameters, roots in other
# slots, and (where the target keeps x2) an unbound variable that maps to
# its namesake.
CROSS_CONTEXTS = {
    "rooted-parameter": (
        CTX, Context(QQ, variables=["y1", "x2", "y3"], parameters=["b", "a"], roots=["b", "a"])),
    "mixed-roots": (
        MIXEDCTX, Context(QQ, variables=["y1", "y2"], parameters=["m", "b", "a"], roots=["m", "a"],
                          specialize={"m": -3})),
    "F7-mixed-roots": (
        F7MIXEDCTX, Context(PrimeField(7), variables=["x2", "y2", "y3"], parameters=["a", "b", "m"],
                            roots=["a", "m"], specialize={"m": 3})),
}


@pytest.mark.parametrize("src,tgt", list(CROSS_CONTEXTS.values()), ids=list(CROSS_CONTEXTS))
@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
def test_substitute_raw_into_a_larger_context(src, tgt, data):
    from qmi.ratfunc import substitute_raw

    f = (data.draw(polys(src)), data.draw(polys(src).filter(lambda p: not p.is_zero())))
    nonzero = polys(tgt).filter(lambda p: not p.is_zero())
    binds = {
        x: (data.draw(polys(tgt, max_terms=2)), data.draw(nonzero))
        for x in src.variables
        if x not in tgt.variables or data.draw(st.booleans())
    }
    ref = _per_part_substitute(f, binds, tgt)
    if ref[1].is_zero():
        with pytest.raises(SubstitutionPole):
            substitute_raw(f, binds, tgt)
        return
    num, den = substitute_raw(f, binds, tgt)
    assert num.ctx == den.ctx == tgt
    assert _raw_eq((num, den), ref)
    assert num * exact_div(ref[1], den) == ref[0]


def test_substitute_raw_reaches_the_layout_bound_in_every_slot():
    """Every slot of the result meets its radix bound B_j.

    Slots (a, x1, x2). x1 -> x1 / (x2^2 + 1) has deg n != deg d, and x1
    occurs to the powers lo = 0 and top = 2, so its table entries reach
    (0, 2, 0) at k = top and (0, 0, 4) at k = lo; x2 -> x2 / (x1 + 1)
    reaches (0, 0, 1) and (0, 1, 0). With a to the power 1, B = (1, 3, 5):
    the numerator's terms a * x1^2 * (x1 + 1) and x2 * (x2^2 + 1)^2 meet
    it in every slot, and in x1 and x2 only through the (top - lo) * deg d
    term of the bound.
    """
    from qmi.ratfunc import substitute_raw

    ctx = Context(QQ, variables=["x1", "x2"], parameters=["a"])
    a, x1, x2 = (parse(ctx, s) for s in ("a", "x1", "x2"))
    one = Poly.const(ctx, 1)
    n1, d1 = x1.num, (x2 * x2 + RatFunc.const(ctx, 1)).num
    n2, d2 = x2.num, (x1 + RatFunc.const(ctx, 1)).num
    f = ((a * x1 * x1 + x2).num, one)
    num, den = substitute_raw(f, {"x1": (n1, d1), "x2": (n2, d2)})
    assert num == a.num * n1 * n1 * d2 + d1 * d1 * n2
    assert den == d1 * d1 * d2
    assert [num.degree_in(j) for j in range(ctx.nsym)] == [1, 3, 5]


# -- monomial bindings: the termwise map against the general engine -----------


def _typed(pair):
    return [{e: (type(c).__name__, c) for e, c in part.terms.items()} for part in pair]


def _both_paths(f, binds, target=None):
    """[termwise result, general result] of one call: typed pairs, or
    SubstitutionPole. The first call must take the termwise path."""
    from qmi.ratfunc import substitute_raw

    out = []
    for general in (False, True):
        if general:
            patch = mock.patch.object(ratfunc, "_monomial_factors", lambda *_: None)
        else:
            patch = mock.patch.object(ratfunc, "_termwise", wraps=ratfunc._termwise)
        with patch as spy:
            try:
                out.append(_typed(substitute_raw(f, binds, target)))
            except SubstitutionPole:
                out.append(SubstitutionPole)
            if not general:
                assert spy.call_count == 2
    return out


@st.composite
def monomials(draw, ctx, constant=False):
    """c * m: c = +-(1..6)/(1..4), m a monomial (root exponents at most 1)."""
    exps = tuple(
        0 if constant else draw(st.integers(0, 1 if i < len(ctx.rooted) else 2)) for i in range(ctx.nsym)
    )
    c = Fraction(draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1])), draw(st.integers(1, 4)))
    return Poly(ctx, {exps: ctx.field.of(c)})


# (source, target): a constant root beside a live rooted parameter, over Q
# and F_7; a constant root whose square is 1/2; three variables; and the
# cross-context targets above.
MONOMIAL_CONTEXTS = {
    "mixed-roots": (MIXEDCTX, MIXEDCTX),
    "F7-mixed-roots": (F7MIXEDCTX, F7MIXEDCTX),
    "root-of-half": (MHALFCTX, MHALFCTX),
    "Q-three-variables": (ZCTX, ZCTX),
    "cross-mixed-roots": CROSS_CONTEXTS["mixed-roots"],
    "cross-F7-mixed-roots": CROSS_CONTEXTS["F7-mixed-roots"],
}


@pytest.mark.parametrize("src,tgt", list(MONOMIAL_CONTEXTS.values()), ids=list(MONOMIAL_CONTEXTS))
@given(data=st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=list(HealthCheck))
def test_termwise_substitution_is_the_general_engines_pair(src, tgt, data):
    f = (data.draw(polys(src, max_terms=4)), data.draw(polys(src).filter(lambda p: not p.is_zero())))
    # Each bound variable goes to c * m / d: d a constant, a monomial of its
    # own (negative exponents), or one nonconstant monomial that every
    # binding shares, so that the variables form one group.
    shared = data.draw(monomials(tgt))
    if shared.is_constant():
        shared = shared * Poly.named(tgt, tgt.variables[0])
    binds = {}
    for x in src.variables:
        if x in tgt.variables and data.draw(st.booleans()):
            continue
        den = data.draw(st.sampled_from(["constant", "own", "shared"]))
        d = shared if den == "shared" else data.draw(monomials(tgt, constant=den == "constant"))
        binds[x] = (data.draw(monomials(tgt)), d)
    termwise, general = _both_paths(f, binds, tgt)
    assert termwise == general


def test_termwise_substitution_raises_the_engines_pole():
    ctx = ZCTX
    f = (Poly.const(ctx, 1), (parse(ctx, "x1 + 2*x2")).num)
    binds = {"x1": (parse(ctx, "-6*x3").num, Poly.const(ctx, 3)), "x2": (parse(ctx, "x3").num, Poly.const(ctx, 1))}
    assert _both_paths(f, binds) == [SubstitutionPole, SubstitutionPole]


# -- the multiplication kernel: packed path against the pair loop -------------

KERNEL_PRIME = 10007
# (folds, modulus) on term dicts whose slot 0 is a root: no fold; the root
# folding into parameter slot 1; into the integral constant -3; into 1/2;
# and into the constant 5 over F_p, with residue coefficients.
KERNEL_CASES = [
    ([], 0),
    ([(0, 1, None)], 0),
    ([(0, None, -3)], 0),
    ([(0, None, Fraction(1, 2))], 0),
    ([(0, None, 5)], KERNEL_PRIME),
]


@st.composite
def packed_sums(draw, nsym=st.integers(1, 4)):
    """A product (1, a, b), or a difference (ml, a0, b1), (-mr, b0, a1),
    of int term dicts keyed by exponent tuples; the root folds; a modulus.

    With one slot the exponents are the words of poly._word_sum:
    each operand's in its own range above 0. Otherwise slot 0 is a root.
    """
    folds, p = draw(st.sampled_from(KERNEL_CASES))
    nsym = draw(nsym)
    if nsym == 1:
        folds = []
        exps = [
            st.integers(1, 200).map(lambda k, o=draw(st.integers(1, 10**6)): (o + k,))
            for _ in range(4)
        ]
    else:
        exps = [st.tuples(st.integers(0, 1), *[st.integers(0, 3)] * (nsym - 1))] * 4
    if p:
        coeffs = st.integers(0, p - 1)
    else:
        # Small values (zeros included) and values far above 64 bits.
        coeffs = st.one_of(st.integers(-6, 6), st.integers(-(2**100), 2**100))
    a, b, b0, a1 = (draw(st.dictionaries(e, coeffs, min_size=1, max_size=12)) for e in exps)
    if draw(st.booleans()):
        # b is a with some signs flipped, and shifted by one in the last
        # slot, so that products cancel, as in (x + y) * (x - y); an
        # all-zero operand cancels the whole product.
        flips = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
        b = {
            (*e[:-1], e[-1] + 1): (-c % p if p else -c) if f else c
            for (e, c), f in zip(a.items(), flips)
        }
    if not draw(st.booleans()):
        return [(1, a, b)], folds, p
    ml, mr = draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 3]))
    # The second product is the first or another, so the difference
    # cancels, wholly or in part, or not at all.
    if draw(st.booleans()):
        b0, a1 = dict(a), dict(b)
    return [(ml, a, b), (-mr, b0, a1)], folds, p


def _nonzero(terms, p):
    return {e: c % p if p else c for e, c in terms.items() if (c % p if p else c)}


@given(packed_sums())
@settings(max_examples=300, deadline=None)
def test_packed_product_equals_pair_loop(case):
    """poly._packed, under its rule with the thresholds off, sums what the pair loop does."""
    from qmi import poly

    products, folds, p = case
    with mock.patch.object(poly, "_PACK_MIN_PAIRS", 0), \
            mock.patch.object(poly, "_PACK_MAX_BYTES_PER_PAIR", float("inf")):
        packed = poly._packed_tuples(products)
    if any(len(a) < 2 or len(b) < 2 for _, a, b in products):
        assert packed is None
        return
    loop: dict = {}
    for m, a, b in products:
        for e, c in poly._convolve_loop(a, b).items():
            loop[e] = loop.get(e, 0) + m * c
    assert _nonzero(poly._fold(packed, folds), p) == _nonzero(poly._fold(loop, folds), p)


@given(packed_sums(nsym=st.just(1)))
@settings(max_examples=200, deadline=None)
def test_packed_word_product_equals_pair_loop(case):
    """poly._word_sum of one product packs through poly._packed, and agrees
    with its pair loop."""
    from qmi import poly

    products, _, p = case
    a, b = ({e[0]: c for e, c in t.items()} for t in products[0][1:])
    packs = [0]
    packed_fn = poly._packed

    def counted(prods):
        out = packed_fn(prods)
        packs[0] += out is not None
        return out

    with mock.patch.object(poly, "_PACK_MIN_PAIRS", 0), \
            mock.patch.object(poly, "_PACK_MAX_BYTES_PER_PAIR", float("inf")), \
            mock.patch.object(poly, "_packed", counted):
        packed = poly._word_sum(((a, b),))
    assert packs[0] == (len(a) >= 2 and len(b) >= 2)
    with mock.patch.object(poly, "_PACK_MIN_PAIRS", float("inf")):
        loop = poly._word_sum(((a, b),))
    assert _nonzero(packed, p) == _nonzero(loop, p)


@st.composite
def word_sums(draw):
    """2 to 4 dense word products (a, b), each operand a run of 18 to 30
    consecutive words from its own offset, with signed coefficients, and
    a sparse product (2 x 2 terms, 62 words from end to end) inside their
    span.

    Each dense product has at least 324 term pairs, and it and the sum
    stay within _PACK_MAX_BYTES_PER_PAIR bytes per pair, so the dense
    products pack as one sum. The sparse product alone is far above that
    density; the whole sum with it stays within it.
    """
    coeffs = st.integers(-(2**40), 2**40).filter(bool)

    def run():
        offset, n = draw(st.integers(0, 30)), draw(st.integers(18, 30))
        return {offset + i: draw(coeffs) for i in range(n)}

    dense = [(run(), run()) for _ in range(draw(st.integers(2, 4)))]
    lo, hi = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    sparse = ({lo: draw(coeffs), lo + 60: draw(coeffs)}, {hi: draw(coeffs), hi + 1: draw(coeffs)})
    return dense, sparse


@given(word_sums())
@settings(max_examples=60, deadline=None, phases=[Phase.generate], derandomize=True)
def test_word_sum_equals_the_loop_and_packs_only_dense_products(case):
    """poly._word_sum of several products with their own offsets is the loop's
    sum: one packed sum for dense products. Once a sparse product joins
    them, though the whole sum stays dense enough, the sum declines, each
    dense product packs alone and the sparse one loops."""
    from qmi import poly

    dense, sparse = case
    packs = []
    packed_fn = poly._packed

    def counted(prods):
        out = packed_fn(prods)
        packs.append(out is not None)
        return out

    for products, packed in ((dense, [True]), ([*dense, sparse], [False] + [True] * len(dense))):
        packs.clear()
        with mock.patch.object(poly, "_packed", counted):
            out = poly._word_sum(products)
        assert packs == packed
        loop: dict = {}
        for a, b in products:
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    loop[k1 + k2] = loop.get(k1 + k2, 0) + c1 * c2
        assert _nonzero(out, 0) == _nonzero(loop, 0)


# -- the zero test: equal pairs, then the difference -------------------------------


@st.composite
def dense_polys(draw, ctx):
    """18 to 24 terms of a small box: two of them give _PACK_MIN_PAIRS term pairs."""
    top = 4 if len(ctx.variables) == 2 else 2
    exps = st.tuples(*[st.integers(0, top if ctx.is_variable(i) else 1) for i in range(ctx.nsym)])
    keys = draw(st.lists(exps, min_size=18, max_size=24, unique=True))
    p = ctx.field.char
    if p:
        coeffs = st.integers(1, p - 1)
    else:
        coeffs = st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 4))
    return Poly(ctx, {e: ctx.field.of(draw(coeffs)) for e in keys})


def _box(ctx, coeff):
    """Every monomial x1^i * x2^j, i and j below 5, with coefficient coeff(i, j)."""
    x1, x2 = ctx.symbol_index("x1"), ctx.symbol_index("x2")
    terms = {}
    for i in range(5):
        for j in range(5):
            e = [0] * ctx.nsym
            e[x1], e[x2] = i, j
            terms[tuple(e)] = ctx.field.of(coeff(i, j))
    return Poly(ctx, terms)


@contextlib.contextmanager
def _packed_differences():
    """Count the differences (sums of two products) that poly._packed packs."""
    from qmi import poly

    count = [0]
    packed = poly._packed

    def counted(products):
        out = packed(products)
        count[0] += len(products) == 2 and out is not None
        return out

    with mock.patch.object(poly, "_packed", counted):
        yield count


@pytest.mark.parametrize("ctx", list(CONTEXTS.values()), ids=list(CONTEXTS))
@given(data=st.data())
@settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
def test_witness_is_none_exactly_when_the_raw_difference_is_zero(ctx, data):
    """The difference equals the one the pair loop forms, and the witness reads it."""
    from qmi import poly
    from qmi.actions import _witness
    from qmi.ratfunc import _raw_difference

    p, q = data.draw(dense_polys(ctx)), data.draw(dense_polys(ctx))
    h = data.draw(polys(ctx, max_terms=2, max_exp=1).filter(lambda p: not p.is_zero()))
    half = Poly.const(ctx, Fraction(1, 2))
    kind = data.draw(st.sampled_from(["copy", "scaled", "perturbed", "halved", "half-numerator", "other"]))
    if kind == "copy":
        b = (Poly(ctx, dict(p.terms)), Poly(ctx, dict(q.terms)))
    elif kind == "scaled":
        b = (p * h, q * h)
    elif kind == "perturbed":
        b = (p * h + _mono(ctx, [0] * ctx.nsym), q * h)
    elif kind == "halved":
        # Over Q the lift scales of the two products differ.
        b = (p * half, q * half)
    elif kind == "half-numerator":
        b = (p * half, q)
    else:
        b = (data.draw(dense_polys(ctx)), data.draw(dense_polys(ctx)))
    a = (p, q)
    for left, right in ((a, b), (b, a)):
        diff = _raw_difference(left, right)
        with mock.patch.object(poly, "_PACK_MIN_PAIRS", float("inf")):
            assert _raw_difference(left, right) == diff
        assert (_witness(left, right) is None) == diff.is_zero()


# Contexts with x1 and x2 over Q, where the box coefficients below are
# distinct and nonzero.
Q_CONTEXTS = {name: c for name, c in CONTEXTS.items() if not c.field.char and len(c.variables) == 2}


@pytest.mark.parametrize("ctx", list(Q_CONTEXTS.values()), ids=list(Q_CONTEXTS))
def test_packed_proof_passes_a_pair_scaled_by_a_common_factor(ctx):
    from qmi.actions import _witness

    p = _box(ctx, lambda i, j: Fraction((-1) ** j * (i + 2 * j + 1), j + 1))
    q = _box(ctx, lambda i, j: (-1) ** i * (3 * j + 1))
    h = parse(ctx, "x1 + 2").num
    a, b = (p, q), (p * h, q * h)
    with _packed_differences() as packed:
        assert _witness(a, b) is None
        assert _witness(b, a) is None
        assert _witness(a, (p * h + h, q * h)) is not None
    assert packed[0] == 3


@pytest.mark.parametrize("dense", [False, True], ids=["over-1", "over-a-box"])
def test_a_difference_that_only_the_root_fold_zeroes_passes(dense):
    """(sqrt(a)*p, q) against (a*p, sqrt(a)*q): sqrt(a)^2 * p*q - a * p*q
    is nonzero unfolded and zero once sqrt(a)^2 folds to a."""
    from qmi.actions import _witness
    from qmi.ratfunc import _raw_difference

    ctx = CTX
    r, a = Poly.named(ctx, "sqrt(a)"), Poly.named(ctx, "a")
    p = _box(ctx, lambda i, j: i + j + 1)
    q = _box(ctx, lambda i, j: (-1) ** j * (2 * i + j + 1)) if dense else Poly.const(ctx, 1)
    left, right = (r * p, q), (a * p, r * q)
    with _packed_differences() as packed:
        assert _raw_difference(left, right).is_zero()
        assert _witness(left, right) is None
    # Over a box both products are packed, and the packed difference is
    # nonzero until it is decoded and folded.
    assert packed[0] == (2 if dense else 0)


def test_packed_difference_reaches_its_coefficient_bound():
    """(A, B) against (-A, B) is 2*A*B. A is a 10x10 box of ones and B a 2x2
    box of 16s, so A*B and -A*B peak at +-64, their coefficient bounds, and
    the difference at 128, the sum of the bounds: its slot needs the sign
    bit beyond those 8 bits."""
    from qmi.ratfunc import _raw_difference

    ctx = QCTX
    box = parse(ctx, "(1 + x1 + x1^2 + x1^3 + x1^4 + x1^5 + x1^6 + x1^7 + x1^8 + x1^9)"
                     " * (1 + x2 + x2^2 + x2^3 + x2^4 + x2^5 + x2^6 + x2^7 + x2^8 + x2^9)").num
    small = parse(ctx, "16 * (1 + x1) * (1 + x2)").num
    with _packed_differences() as packed:
        diff = _raw_difference((box, small), (-box, small))
    assert packed[0] == 1
    product = box * small
    assert max(product.terms.values()) == 64
    assert diff == product + product


# Q(sqrt(5)) with three variables: the lift scales must reach the packed difference there too.
C5ZCTX = Context(QQ, variables=["x1", "x2", "x3"], parameters=["c"], roots=["c"], specialize={"c": 5})


@pytest.mark.parametrize("ctx", [ZCTX, C5ZCTX], ids=["Q", "constant-root-5"])
def test_packed_difference_keeps_the_lift_scales(ctx):
    """(p/2, q) against (p, q) is p*q/2 - p*q, nonzero. The lifted products
    are equal, p*q and p*q, over scales 2 and 1: a difference that dropped
    the scales would be zero."""
    from qmi.actions import _witness

    p = parse(ctx, "(1 + x1 + x2 + x3)^6").num
    q = parse(ctx, "(2 + x1 - x2 + x3)^5").num
    assert (len(p.terms), len(q.terms)) == (84, 56)
    half = Poly.const(ctx, Fraction(1, 2))
    with _packed_differences() as packed:
        assert _witness((p * half, q), (p, q)) is not None
        assert _witness((p, q), (p * half, q)) is not None
    assert packed[0] == 2


# -- a bare variable maps to its binding ------------------------------------------

# (source, target): every context of this file into itself, and the cross
# contexts.
BARE_CONTEXTS = {
    **{name: (ctx, ctx) for name, ctx in CONTEXTS.items()},
    **{f"cross-{name}": pair for name, pair in CROSS_CONTEXTS.items()},
}


def _bare_and_engine(f, binds, target):
    """[result, engine's result] of one call: typed pairs, or the error's type.
    The first call must return the binding as it stands."""
    from qmi.ratfunc import substitute_raw

    out = []
    for engine in (False, True):
        if engine:
            patch = mock.patch.object(ratfunc, "_bare_variable", lambda *_: None)
        else:
            patch = mock.patch.object(ratfunc, "_groups", side_effect=AssertionError("engine ran"))
        with patch:
            try:
                out.append(_typed(substitute_raw(f, binds, target)))
            except (SubstitutionPole, ValueError) as exc:
                out.append(type(exc))
    return out


@pytest.mark.parametrize("src,tgt", list(BARE_CONTEXTS.values()), ids=list(BARE_CONTEXTS))
@given(data=st.data())
@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
def test_bare_variable_is_the_engines_pair(src, tgt, data):
    nonzero = polys(tgt).filter(lambda p: not p.is_zero())
    binds = {
        x: (data.draw(polys(tgt)), data.draw(nonzero))
        for x in src.variables
        if x not in tgt.variables or data.draw(st.booleans())
    }
    v = data.draw(st.sampled_from(src.variables))
    bare, engine = _bare_and_engine((Poly.named(src, v), Poly.const(src, 1)), binds, tgt)
    assert bare == engine


@pytest.mark.parametrize("src,tgt", list(BARE_CONTEXTS.values()), ids=list(BARE_CONTEXTS))
def test_bare_variable_keeps_the_engines_errors(src, tgt):
    v = src.variables[0]
    f = (Poly.named(src, v), Poly.const(src, 1))
    n, one = Poly.named(tgt, tgt.variables[-1]), Poly.const(tgt, 1)
    # Variables that the target lacks must be bound.
    rest = {x: (n, one) for x in src.variables if x not in tgt.variables}
    # A zero binding denominator is a pole.
    pole = {**rest, v: (n, Poly.const(tgt, 0))}
    assert _bare_and_engine(f, pole, tgt) == [SubstitutionPole] * 2
    # A binding in another context, or of a name that is not a variable.
    other = Context(tgt.field, variables=["w"])
    wrong = {**rest, v: (Poly.named(other, "w"), Poly.const(other, 1))}
    assert _bare_and_engine(f, wrong, tgt) == [ValueError] * 2
    if src.var_start:
        constant = {**rest, src.symbols[0]: (n, one)}
        assert _bare_and_engine(f, constant, tgt) == [ValueError] * 2


# -- the heuristic gcd against the PRS ----------------------------------------


@st.composite
def gcd_factors(draw, ctx):
    """A small polynomial with int coefficients, some far above 64 bits."""
    coeffs = st.one_of(st.integers(-6, 6), st.integers(-(2**80), 2**80)).filter(bool)
    exps = st.tuples(*[st.integers(0, 1 if i < len(ctx.rooted) else 2) for i in range(ctx.nsym)])
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
    return Poly(ctx, {e: Fraction(c) for e, c in terms.items()})


def _normal_gcd(ctx, g):
    from qmi.gcd import _elim_info, _from_elim, unit_normal

    E = _elim_info(ctx)
    return unit_normal(_from_elim(E, _over(1, g)))[0]


@pytest.mark.parametrize("ctx", [ZCTX, CTX], ids=["Z", "rooted-parameter"])
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
def test_heuristic_gcd_matches_prs(ctx, data):
    f, g, h = (data.draw(gcd_factors(ctx)) for _ in range(3))
    a, b = f * g, f * h
    E = gcd._elim_info(ctx)
    (_, ea), (_, eb) = _lift_ints(gcd._to_elim(E, a)), _lift_ints(gcd._to_elim(E, b))
    heu = gcd._heu_gcd(E, ea, eb)
    assert heu is not None
    eg, qa, qb = heu
    # The cofactors are exact over Z: g * (a/g) is a, term for term.
    assert gcd._mul(E, eg, qa) == ea and gcd._mul(E, eg, qb) == eb
    common = _normal_gcd(ctx, eg)
    assert common == _normal_gcd(ctx, gcd._gcd(E, ea, eb))
    exact_div(common, f)  # the built-in common factor divides the gcd
    assert poly_gcd(a, b) == common
    with mock.patch.object(gcd, "_HEU_ATTEMPTS", 0):
        assert poly_gcd(a, b) == common


def test_field_laws_seed_9_input_without_fallback(monkeypatch):
    # Hypothesis seed 9 drew this input for test_field_laws; the PRS alone
    # did not reduce f * (g + h) within minutes.
    def no_fallback(*args):
        raise AssertionError("the heuristic gcd fell back to the PRS")

    monkeypatch.setattr(gcd, "_gcd", no_fallback)
    f = parse(CTX, "(-9/4*sqrt(a)*x2^2 - 1/2*sqrt(a)*x1^2)/(sqrt(a)*a*x1^2*x2 + 5/4*x2^2)")
    g = parse(CTX, "(-4/3*a^2*x1*x2^2 - 10/3)/(sqrt(a)*a^2*x2 + 4/9*sqrt(a)*x1)")
    h = parse(CTX, "(-5/4*x1)/(a*x2 + 3/16*x1)")
    lhs = f * (g + h)
    rhs = f * g + f * h
    assert lhs == rhs
    assert (lhs.num, lhs.den) == (rhs.num, rhs.den)


def test_heuristic_gcd_accepts_actg_pair_by_products(monkeypatch):
    # The largest pair (by total terms) with a nonconstant gcd that
    # sys7iii_case1_actg hands ratfunc.cancel: every level of the heuristic
    # accepts its candidate by the product check, so no long division runs.
    with mock.patch.object(ratfunc, "cancel", wraps=ratfunc.cancel) as record:
        assert run_case(builtin_catalog(), "sys7iii_case1_actg").status == "Pass"
    a, b, common = max(
        ((a, b, poly_gcd(a, b)) for a, b in (call.args for call in record.call_args_list)),
        key=lambda abg: (not abg[2].is_constant(), len(abg[0].terms) + len(abg[1].terms)),
    )
    assert not common.is_constant()
    E = gcd._elim_info(a.ctx)
    (_, ea), (_, eb) = _lift_ints(gcd._to_elim(E, a)), _lift_ints(gcd._to_elim(E, b))

    def no_division(*args):
        raise AssertionError("the heuristic gcd ran a long division")

    monkeypatch.setattr(gcd, "_div", no_division)
    eg, qa, qb = gcd._heu_gcd(E, ea, eb)
    assert gcd._mul(E, eg, qa) == ea and gcd._mul(E, eg, qb) == eb
    assert len(eg) == len(common.terms)


def _outgrowing_pair():
    """(f, f*g, f*h): the cofactor h has a 2**80 coefficient, g does not."""
    f = Poly(QCTX, {(2, 1): 3, (0, 1): -5, (0, 0): 2})
    g = Poly(QCTX, {(1, 0): 1, (0, 2): -6, (0, 0): 4})
    h = Poly(QCTX, {(1, 1): 1, (0, 1): 2**80, (0, 0): -1})
    return f, f * g, f * h


def test_heuristic_gcd_divides_when_a_cofactor_outgrows_xi(monkeypatch):
    # xi follows the smaller norm, that of a = f*g, so the 2**80
    # coefficient of b's cofactor h has no balanced digit at xi: the
    # product check fails for b and the exact division accepts instead.
    f, a, b = _outgrowing_pair()

    def no_prs(*args):
        raise AssertionError("the heuristic gcd fell back to the PRS")

    monkeypatch.setattr(gcd, "_gcd", no_prs)
    with mock.patch.object(gcd, "_quotient", wraps=gcd._quotient) as spy:
        common, qa, qb = gcd.cancel(a, b)
    assert common * qa == a and common * qb == b
    assert unit_normal(common)[0] == unit_normal(f)[0]
    assert spy.called


# The heuristic's exact division runs over Q. Gauss's lemma makes it agree
# with division over Z only for a divisor of integer content 1.


def _divisor_contents(spy) -> set[int]:
    """The integer content of every divisor the spy on gcd._quotient saw."""
    return {math.gcd(*call.args[2].values()) for call in spy.call_args_list}


@pytest.mark.parametrize("ctx", [ZCTX, CTX], ids=["Z", "rooted-parameter"])
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
def test_heuristic_divides_only_by_primitive_divisors_on_drawn_pairs(ctx, data):
    f, g, h = (data.draw(gcd_factors(ctx)) for _ in range(3))
    with mock.patch.object(gcd, "_quotient", wraps=gcd._quotient) as spy:
        gcd.cancel(f * g, f * h)
    assert _divisor_contents(spy) <= {1}


@pytest.mark.parametrize("source", ["outgrowing-pair", "actg"])
def test_heuristic_divides_only_by_primitive_divisors(source):
    with mock.patch.object(gcd, "_quotient", wraps=gcd._quotient) as spy:
        if source == "actg":
            assert run_case(builtin_catalog(), "sys7iii_case1_actg").status == "Pass"
        else:
            gcd.cancel(*_outgrowing_pair()[1:])
    assert _divisor_contents(spy) == {1}


# -- Henrici arithmetic against the product-then-cancel pair ------------------


@st.composite
def henrici_operand(draw, ctx):
    """Zero, a constant, a polynomial, a constant over a polynomial, or a fraction."""
    kind = draw(st.sampled_from(["zero", "constant", "polynomial", "reciprocal", "fraction"]))
    if kind == "zero":
        return RatFunc.const(ctx, 0)
    nonzero = polys(ctx, max_terms=2).filter(lambda p: not p.is_zero())
    num = draw(nonzero)
    den = draw(nonzero)
    if kind == "constant":
        return RatFunc.const(ctx, draw(st.integers(-5, 5).filter(bool)))
    if kind == "polynomial":
        return RatFunc(num, Poly.const(ctx, 1))
    if kind == "reciprocal":
        return RatFunc(Poly.const(ctx, draw(st.integers(-5, 5).filter(bool))), den)
    return RatFunc(num, den)


def _parts(f):
    """The parts of f term by term, with the type of every coefficient."""
    return tuple(
        sorted((e, type(c).__name__, c) for e, c in part.terms.items()) for part in (f.num, f.den)
    )


@pytest.mark.parametrize(
    "ctx",
    [QCTX, CTX, F7CTX, C5CTX, C5M3CTX],
    ids=["Q", "rooted-parameter", "F7", "constant-root-5", "two-constant-roots"],
)
@given(data=st.data())
@settings(max_examples=20, deadline=None, suppress_health_check=list(HealthCheck))
@seed(1956)
def test_henrici_arithmetic_matches_product_then_cancel(ctx, data):
    f = data.draw(henrici_operand(ctx))
    other = data.draw(henrici_operand(ctx))
    # g may share a denominator factor with f, or cancel across f, or be
    # +-f itself, so that sums and differences come out zero; with
    # g = other - f, the sum f + g cancels a factor of the gcd of the
    # denominators.
    g = data.draw(st.sampled_from([
        other,
        f,
        -f,
        RatFunc(other.num, other.den * f.den),
        RatFunc(other.num * f.den - f.num * other.den, other.den * f.den),
        RatFunc(other.num * f.den, other.den * (f.num if not f.is_zero() else f.den)),
    ]))
    a, b, c, d = f.num, f.den, g.num, g.den
    naive = {
        "+": (f + g, a * d + c * b, b * d),
        "-": (f - g, a * d - c * b, b * d),
        "*": (f * g, a * c, b * d),
    }
    if not g.is_zero():
        naive["/"] = (f / g, a * d, b * c)
    for n in range(-3, 4):
        if n >= 0:
            naive[n] = (f**n, a**n, b**n)
        elif not f.is_zero():
            naive[n] = (f**n, b**-n, a**-n)
    for op, (result, num, den) in naive.items():
        assert _parts(result) == _parts(RatFunc(num, den)), op


# -- the stored form of a coefficient -------------------------------------------


def _assert_stored(label, *parts):
    """Every coefficient is nonzero and stored in its field's form: over Q an
    int, or a Fraction whose denominator is above 1; over F_p an int in
    0..p-1."""
    for part in parts:
        char = part.ctx.field.char
        for e, c in part.terms.items():
            if char:
                ok = type(c) is int and 0 < c < char
            else:
                ok = c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
            assert ok, f"{label}: {e} has {type(c).__name__} {c!r}"


@pytest.mark.parametrize("ctx", list(CONTEXTS.values()), ids=list(CONTEXTS))
@given(data=st.data())
@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
def test_every_result_stores_its_coefficients_in_the_fields_form(ctx, data):
    from qmi.ratfunc import _raw_difference, substitute_raw

    nonzero = polys(ctx, max_terms=2).filter(lambda p: not p.is_zero())
    p, q = data.draw(polys(ctx)), data.draw(polys(ctx))
    r, s, h = data.draw(nonzero), data.draw(nonzero), data.draw(nonzero)
    c = ctx.field.of(Fraction(data.draw(st.integers(-6, 6)), data.draw(st.sampled_from([1, 2, 4]))))
    f, g = data.draw(ratfuncs(ctx)), data.draw(ratfuncs(ctx))
    results = {
        "p + q": [p + q],
        "p - q": [p - q],
        "p * q": [p * q],
        "p ** 3": [p**3],
        "p.scale(c)": [p.scale(c)],
        "f + g": [(f + g).num, (f + g).den],
        "f - g": [(f - g).num, (f - g).den],
        "f * g": [(f * g).num, (f * g).den],
        "f ** 2": [(f**2).num, (f**2).den],
        "unit_normal": unit_normal(r, p, q),
        "cancel": gcd.cancel(p * h, r * h),
        "_raw_difference": [_raw_difference((p, r), (q, s))],
        "parse": [part for t in (str(f), f"4/2*({p}) - 6/4") for part in (parse(ctx, t).num, parse(ctx, t).den)],
    }
    if not g.is_zero():
        results["f / g"] = [(f / g).num, (f / g).den]
        results["g ** -2"] = [(g**-2).num, (g**-2).den]
    binds = {x: (data.draw(polys(ctx, max_terms=2)), data.draw(nonzero)) for x in ctx.variables}
    try:
        results["substitute_raw"] = substitute_raw((p, r), binds)
    except SubstitutionPole:
        pass
    for label, parts in results.items():
        _assert_stored(label, *parts)


def test_a_fold_by_one_half_leaves_int_coefficients():
    """In Q(sqrt(1/2)), sqrt(m)^2 folds to Fraction(1, 2), so the squares
    below meet integers only as Fractions with denominator 1."""
    from qmi.ratfunc import _raw_difference, substitute_raw

    ctx = MHALFCTX
    f = parse(ctx, "(4*sqrt(m)*x1 + 2*sqrt(m)*x2)^2")
    square = parse(ctx, "8*x1^2 + 8*x1*x2 + 2*x2^2").num
    assert f.num == square and f.den.is_one()
    assert sorted(map(type, f.num.terms.values()), key=str) == [int] * 3
    p = parse(ctx, "4*sqrt(m)*x1 + 2*sqrt(m)*x2").num
    one, zero = Poly.const(ctx, 1), Poly.const(ctx, 0)
    x1 = Poly.named(ctx, "x1")
    results = {
        "p * p": [p * p],
        "p ** 2": [p**2],
        "_raw_difference": [_raw_difference((p * p, one), (zero, one))],
        "substitute_raw": substitute_raw((x1 * x1, one), {"x1": (p, one)}),
        "cancel": gcd.cancel(p * p, p * x1),
        "unit_normal": unit_normal(p * p, p),
        "sqrt(m)^2": [parse(ctx, "sqrt(m)^2").num, parse(ctx, "(2*sqrt(m))^2").num],
    }
    assert results["p * p"] == results["p ** 2"] == results["_raw_difference"] == [square]
    assert results["substitute_raw"] == (square, one)
    for label, parts in results.items():
        _assert_stored(label, *parts)
    assert parse(ctx, "(2*sqrt(m))^2").num == Poly.const(ctx, 2)


@pytest.mark.parametrize("ctx", [QCTX, F7CTX], ids=["Q", "F7"])
def test_lift_ints_returns_a_fresh_dict(ctx):
    from qmi.poly import _lift_ints

    p = parse(ctx, "3*x1 - 2*x2 + 1").num
    scale, ints = _lift_ints(p.terms)
    assert scale == 1 and ints == p.terms and ints is not p.terms


# -- the parser against a RatFunc evaluator ------------------------------------


@st.composite
def expr_trees(draw, ctx, depth=4):
    """A small expression tree over ctx: integers, names, sqrt, + - * /,
    unary minus, ^ with negative exponents, and division by an integer."""
    if depth == 0 or not draw(st.integers(0, 3)):
        names = [n for n in ctx.index if n.isalnum()] + list(ctx.constants)
        kinds = ["int", "name"] + (["sqrt"] if ctx.root_index else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            return ("int", draw(st.integers(0, 6)))
        return (kind, draw(st.sampled_from(names if kind == "name" else list(ctx.root_index))))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg", "/int"]))
    a = draw(expr_trees(ctx, depth - 1))
    if op == "^":
        return (op, a, draw(st.integers(-2, 3)))
    if op == "neg":
        return (op, a)
    if op == "/int":
        return ("/", a, ("int", draw(st.integers(0, 6))))
    return (op, a, draw(expr_trees(ctx, depth - 1)))


def _text(tree) -> str:
    kind = tree[0]
    if kind in ("int", "name"):
        return str(tree[1])
    if kind == "sqrt":
        return f"sqrt({tree[1]})"
    if kind == "neg":
        return f"-({_text(tree[1])})"
    if kind == "^":
        return f"({_text(tree[1])})^{tree[2]}"
    return f"({_text(tree[1])} {kind} {_text(tree[2])})"


_RATFUNC_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _evaluate(ctx, tree) -> RatFunc:
    """The tree evaluated with RatFunc values and operators at every node."""
    kind = tree[0]
    if kind == "int":
        return RatFunc.const(ctx, tree[1])
    if kind == "name":
        name = tree[1]
        return RatFunc.const(ctx, ctx.constants[name]) if name in ctx.constants else RatFunc.named(ctx, name)
    if kind == "sqrt":
        return RatFunc.from_poly(Poly.symbol(ctx, ctx.root_symbol_index(tree[1])))
    if kind == "neg":
        return -_evaluate(ctx, tree[1])
    if kind == "^":
        return _evaluate(ctx, tree[1]) ** tree[2]
    return _RATFUNC_OPS[kind](_evaluate(ctx, tree[1]), _evaluate(ctx, tree[2]))


@pytest.mark.parametrize("ctx", CONTEXTS.values(), ids=CONTEXTS.keys())
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
def test_parse_matches_the_ratfunc_evaluator(ctx, data):
    tree = data.draw(expr_trees(ctx))
    text = _text(tree)
    try:
        want = _evaluate(ctx, tree)
    except DivisionByZero as err:
        with pytest.raises(DivisionByZero) as raised:
            parse(ctx, text)
        assert str(raised.value) == str(err)
        return
    got = parse(ctx, text)
    assert _typed((got.num, got.den)) == _typed((want.num, want.den))
