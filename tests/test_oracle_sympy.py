"""Randomized cross-checks of the arithmetic core against sympy.

sympy is used strictly as an independent oracle; the package itself never
imports it. Random inputs are generated from a fixed seed so failures
reproduce. Contexts here are root-free (sympy has no native analogue of
the formal-root rewrite; rooted behavior is covered by identity-based
tests elsewhere), except for the substitution check: there a rooted
parameter a maps to r**2 and its root to r, an isomorphism of
Q[sqrt(a), a]/(sqrt(a)^2 - a) onto Q[r], so identities carry over.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy

import pytest

from qmi import QQ, Context, Poly, SubstitutionPole, exact_div, poly_gcd
from qmi.ratfunc import substitute_raw

NAMES = ["a", "x1", "x2", "x3"]
SYMS = sympy.symbols("a x1 x2 x3")


def make_ctx() -> Context:
    return Context(QQ, variables=["x1", "x2", "x3"], parameters=["a"])


def random_poly(ctx: Context, rng: random.Random, nterms: int = 5, maxdeg: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exps = tuple(rng.randint(0, maxdeg) for _ in range(ctx.nsym))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if coeff:
            terms[exps] = coeff
    p = Poly(ctx, {})
    for exps, coeff in terms.items():
        p = p + Poly(ctx, {exps: coeff})
    return p


def to_sympy(p: Poly):
    total = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, k in zip(SYMS, exps):
            term *= s**k
        total += term
    return sympy.expand(total)


def from_sympy(ctx: Context, expr) -> Poly:
    sp = sympy.Poly(expr, *SYMS)
    out = Poly(ctx, {})
    for exps, coeff in sp.terms():
        q = sympy.Rational(coeff)
        out = out + Poly(ctx, {tuple(exps): Fraction(int(q.p), int(q.q))})
    return out


def test_ring_ops_match_sympy():
    ctx = make_ctx()
    rng = random.Random(20240817)
    for _ in range(60):
        p = random_poly(ctx, rng)
        q = random_poly(ctx, rng)
        assert to_sympy(p + q) == sympy.expand(to_sympy(p) + to_sympy(q))
        assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))
        assert to_sympy(p - q) == sympy.expand(to_sympy(p) - to_sympy(q))
    p = random_poly(ctx, rng)
    assert to_sympy(p**3) == sympy.expand(to_sympy(p) ** 3)


def test_gcd_matches_sympy_up_to_scalar():
    ctx = make_ctx()
    rng = random.Random(77)
    hits = 0
    for _ in range(40):
        # Build inputs with a planted common factor so gcds are nontrivial.
        def nonzero(min_deg=0):
            while True:
                cand = random_poly(ctx, rng, nterms=3, maxdeg=2)
                if not cand.is_zero() and cand.degree() >= min_deg:
                    return cand

        f = nonzero(min_deg=1)
        p = nonzero() * f
        q = nonzero() * f
        mine = poly_gcd(p, q)
        theirs = sympy.gcd(to_sympy(p), to_sympy(q))
        theirs_poly = from_sympy(ctx, theirs)
        # Both results are defined up to a rational scalar; compare monic forms.
        _, lc = theirs_poly.leading()
        theirs_monic = theirs_poly.scale(QQ.inv(lc))
        assert mine == theirs_monic
        if not mine.is_one():
            hits += 1
    assert hits > 20  # the planted factors must actually be exercised


def test_exact_div_matches_sympy_quotient():
    ctx = make_ctx()
    rng = random.Random(99)
    for _ in range(30):
        f = random_poly(ctx, rng, nterms=3, maxdeg=2)
        g = random_poly(ctx, rng, nterms=3, maxdeg=2)
        if f.is_zero() or g.is_zero():
            continue
        prod = f * g
        assert exact_div(prod, f) == g
        quo = sympy.div(to_sympy(prod), to_sympy(f), *SYMS)[0]
        assert from_sympy(ctx, sympy.expand(quo)) == g


R, D, E = sympy.symbols("r D E")
SUBST_CONTEXTS = {
    "Q": (Context(QQ, variables=["x1", "x2", "x3"], parameters=["a"]), list(SYMS)),
    "rooted-parameter": (
        Context(QQ, variables=["x1", "x2", "x3"], parameters=["a"], roots=["a"]),
        [R, R**2, *SYMS[1:]],
    ),
}


def canonical_poly(ctx: Context, rng: random.Random, nterms: int, maxdeg: int) -> Poly:
    """A random polynomial with root exponents at most 1."""
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exps = tuple(rng.randint(0, 1 if i < len(ctx.rooted) else maxdeg) for i in range(ctx.nsym))
        terms[exps] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
    return Poly(ctx, terms)


def sympy_of(p: Poly, images: list):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(images, e)))
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )


@pytest.mark.parametrize("name", list(SUBST_CONTEXTS))
def test_substitution_over_a_shared_denominator_matches_sympy(name):
    # x1 and x2 (and, every other time, x3) are bound over one denominator
    # d; the raw pair must be the composed rational function. sympy forms
    # each part of f(n/d) times prod dens^T, T the largest exponent of
    # the variable in f, and the pair must cross-multiply to them.
    ctx, images = SUBST_CONTEXTS[name]
    xs = images[-3:]
    rng = random.Random(1501)
    for trial in range(12):
        f = (canonical_poly(ctx, rng, 4, 2), canonical_poly(ctx, rng, 3, 2))
        d = canonical_poly(ctx, rng, 2, 1)
        if d.is_constant():
            d = d + Poly.named(ctx, "x3")
        nums = [canonical_poly(ctx, rng, 2, 1) for _ in xs]
        dens = [d, d, d if trial % 2 else canonical_poly(ctx, rng, 2, 1)]
        binds = {f"x{i + 1}": pair for i, pair in enumerate(zip(nums, dens))}
        # One symbol per distinct denominator keeps f(n/d) * scale a
        # polynomial in it before the denominator's value is put in.
        marks = [D, D, D if dens[2] is d else E]
        values = {x: sympy_of(n, images) / m for x, n, m in zip(xs, nums, marks)}
        scale = sympy.Mul(*(
            m ** max(p.degree_in(ctx.index[f"x{i + 1}"]) for p in f) for i, m in enumerate(marks)
        ))
        marked = {D: sympy_of(d, images), E: sympy_of(dens[2], images)}
        top, bottom = (
            sympy.expand(sympy.expand(sympy_of(p, images).xreplace(values) * scale).xreplace(marked))
            for p in f
        )
        if bottom == 0:
            with pytest.raises(SubstitutionPole):
                substitute_raw(f, binds)
            continue
        num, den = substitute_raw(f, binds)
        assert sympy.expand(sympy_of(num, images) * bottom - sympy_of(den, images) * top) == 0


def test_monomial_substitution_matches_sympy():
    # Monomial bindings take the termwise path of substitute_raw: x1 and x2
    # over one monomial denominator, x3 over a constant, coefficients and
    # root powers in both parts. The pair must be the composed function.
    ctx, images = SUBST_CONTEXTS["rooted-parameter"]
    xs = images[-3:]
    rng = random.Random(3558)
    for _ in range(12):
        f = (canonical_poly(ctx, rng, 4, 2), canonical_poly(ctx, rng, 3, 2))
        d = canonical_poly(ctx, rng, 1, 1) * Poly.named(ctx, "x2")
        dens = [d, d, canonical_poly(ctx, rng, 1, 0)]
        nums = [canonical_poly(ctx, rng, 1, 2) for _ in xs]
        binds = {f"x{i + 1}": pair for i, pair in enumerate(zip(nums, dens))}
        values = {x: sympy_of(n, images) / sympy_of(m, images) for x, n, m in zip(xs, nums, dens)}
        top, bottom = (sympy_of(p, images).xreplace(values) for p in f)
        if sympy.simplify(bottom) == 0:
            with pytest.raises(SubstitutionPole):
                substitute_raw(f, binds)
            continue
        num, den = substitute_raw(f, binds)
        assert sympy.cancel(sympy_of(num, images) / sympy_of(den, images) - top / bottom) == 0
