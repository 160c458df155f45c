"""Microbenchmarks of the heuristic gcd against the primitive PRS.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_gcd.py --benchmark-only

Both algorithms take the eliminated integer form that the gcd path hands
the heuristic and give (g, a/g, b/g): gcd._heu_gcd directly, and gcd._gcd
over the context's field followed by one _div of each input, as when the
heuristic gives up.
actg-largest: the largest reduction of sys7iii_case1_actg, by the sum of
the term counts, whose gcd is nonconstant (27 and 24 terms, gcd 9 terms).
actg-trivial: the largest reduction of that case, by the sum of the term
counts, whose gcd is 1 and whose parts are both nonconstant (19 and 3
terms).
fifty: the pair of test_fifty_term_polynomial over Q (525 and 25 terms
in sqrt(a), a, x1, x2; gcd 1). The PRS is left out there: it runs for
minutes on this pair.
two-roots: exact_div and unit_normal over Q(sqrt(5), sqrt(-3)), the
context with two constant roots, on seeded random polynomials whose
leading coefficients use both roots.
reduce: ratfunc._reduce over every (num, den) pair that
sys7iii_case1_actg hands ratfunc.cancel, in order; it needs only
ratfunc._reduce and ratfunc.cancel, so it runs on older checkouts too
(-k reduce).
The file name keeps these out of the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from random import Random

import pytest

from qmi import QQ, Context, Poly, exact_div, gcd, parse, poly_gcd, ratfunc
from qmi.catalog import builtin_catalog
from qmi.poly import _lift_ints
from qmi.ratfunc import substitute_raw
from qmi.runner import run_case


@cache
def actg_pairs() -> tuple:
    """(num, den) of every ratfunc.cancel call of sys7iii_case1_actg, in order."""
    pairs = []
    inner = ratfunc.cancel

    def record(num, den):
        pairs.append((num, den))
        return inner(num, den)

    ratfunc.cancel = record
    try:
        assert run_case(builtin_catalog(), "sys7iii_case1_actg").status == "Pass"
    finally:
        ratfunc.cancel = inner
    return tuple(pairs)


def actg_largest():
    shared = [
        (a, b, g) for a, b in actg_pairs()
        if not (g := poly_gcd(a, b)).is_constant()
    ]
    return max(shared, key=lambda abg: len(abg[0].terms) + len(abg[1].terms))


def actg_trivial():
    one = Poly.const(actg_pairs()[0][0].ctx, 1)
    coprime = [
        (a, b) for a, b in actg_pairs()
        if not (a.is_constant() or b.is_constant()) and poly_gcd(a, b) == one
    ]
    a, b = max(coprime, key=lambda pair: len(pair[0].terms) + len(pair[1].terms))
    return a, b, one


def fifty_pair():
    ctx = Context(QQ, variables=["x1", "x2"], parameters=["a"], roots=["a"])
    rnd = Random(50)
    exps = list(product(range(2), range(2), range(5), range(5)))[::2]
    p = Poly(ctx, {e: Fraction(rnd.choice([-7, -2, 1, 3, 5]), rnd.randint(1, 6)) for e in exps})
    binds = {
        "x1": (parse(ctx, "x1+sqrt(a)").num, parse(ctx, "2/3*x2-1/5").num),
        "x2": (parse(ctx, "a*x1-x2").num, parse(ctx, "3/4*x1*x2+7").num),
    }
    num, den = substitute_raw((p, Poly.const(ctx, 1)), binds)
    return num, den, Poly.const(ctx, 1)


INPUTS = {
    "actg-largest": actg_largest,
    "actg-trivial": actg_trivial,
    "fifty": fifty_pair,
}
def prs_cofactors(E, a, b):
    g = gcd._gcd(E, a, b)
    return g, gcd._div(E, a, g), gcd._div(E, b, g)


ALGORITHMS = {"heuristic": gcd._heu_gcd, "prs": prs_cofactors}


@pytest.mark.parametrize(
    "name, algorithm",
    [(n, g) for n in INPUTS for g in ALGORITHMS if (n, g) != ("fifty", "prs")],
)
def test_gcd(benchmark, name, algorithm):
    a, b, expected = INPUTS[name]()
    E = gcd._elim_info(a.ctx)
    (_, ea), (_, eb) = _lift_ints(gcd._to_elim(E, a)), _lift_ints(gcd._to_elim(E, b))
    g, qa, qb = benchmark(ALGORITHMS[algorithm], E, ea, eb)
    assert gcd.unit_normal(gcd._from_elim(E, QQ.stored(1, g)))[0] == expected
    assert gcd._mul(E, g, qa) == ea and gcd._mul(E, g, qb) == eb


def test_reduce(benchmark):
    pairs = actg_pairs()
    reduce = ratfunc._reduce
    parts = benchmark(lambda: [reduce(num, den) for num, den in pairs])
    assert all(den * n == num * d for (num, den), (n, d) in zip(pairs, parts))


def two_root_polys():
    """(f, g, h) over Q(sqrt(5), sqrt(-3)): 24, 24 and 8 terms in x1, x2."""
    ctx = Context(QQ, variables=["x1", "x2"], parameters=["c", "m"], roots=["c", "m"],
                  specialize={"c": 5, "m": -3})
    rnd = Random(53)

    def box(*sides):
        """Every monomial in both roots and below `sides` in x1, x2."""
        exps = product(range(2), range(2), *map(range, sides))
        return Poly(ctx, {e: Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 5)) for e in exps})

    return box(2, 3), box(3, 2), box(2, 1)


@pytest.mark.parametrize("op", ["exact_div", "unit_normal"])
def test_two_roots(benchmark, op):
    f, g, h = two_root_polys()
    if op == "exact_div":
        assert benchmark(exact_div, f * h, h) == f
    else:
        u, v = benchmark(gcd.unit_normal, g, f)
        assert u * f == v * g and gcd.unit_normal(u)[0] == u
