"""Microbenchmarks of ratfunc.substitute_raw on four inputs from the builtin catalog.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_substitute.py --benchmark-only

Each input names the path substitute_raw takes for it: the termwise map,
or the word engine over groups of bound variables that share a binding
denominator, each of them a group of one or a larger (shared) group.

compose (shared group): the third substitution of cb.compose(mbe3), the
product of the two generators of the orbit-sum group of
sys7iii_case1_actg: mbe3's image of t3 (5 over 4 terms) with t1, t2, t3
replaced by cb's images. This is a substitution of the same size as the
ones close_action makes, but not one of them: close_action composes
nothing, it applies each generator to the points of the variable orbits.
backward (shared group): the backward-after-forward substitution of v3
in sys7iii_case1_vt (14 over 12 terms in t1, t2, t3), with every t
replaced by its forward expression in v1, v2, v3 (8 or 9 terms over 8
or 9).
monomial (termwise): the word action cb of sys7iii_case1_tact (v1 -> v2,
v2 -> v3, v3 -> v1, stored as bindings) applied to ta3's image of the
forward expression of t1 (92 terms over 84), as check_induced_action
applies actions to forward images. Every binding is a monomial.
own-denominators (groups of one): of the substitute_raw calls that
checking the InversePair prop1_1_st makes, the one with the most terms
in its two parts among those in which no two bound variables that occur
share a nonconstant binding denominator and not every such binding is a
monomial over a monomial. The rule reads only the call's arguments, so
it picks the same call on older checkouts. That call is a
backward-after-forward one (a backward expression in t1, t2, t3 with
the forward expressions bound), the direction check_inverse_pair always
runs; so checkouts that skip the converse direction pick it too.
The file name keeps these out of the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

import pytest

from qmi import actions, ratfunc
from qmi.catalog import build_action, build_context, build_env, builtin_catalog
from qmi.parser import parse
from qmi.ratfunc import RatFunc, substitute_raw
from qmi.runner import run_case


def compose_step():
    p = builtin_catalog().case("sys7iii_case1_actg").payload
    ctx = build_context(p["context"])
    cb, mbe3 = (build_action(ctx, p["actions"][n]) for n in ("cb", "mbe3"))
    image = mbe3.bindings[2]
    return (image.num, image.den), dict(zip(ctx.variables, cb.bindings)), None


def backward_step():
    p = builtin_catalog().case("sys7iii_case1_vt").payload
    src, tgt = build_context(p["source"]), build_context(p["target"])
    env_f = build_env(src, p.get("where_forward"))
    env_b = build_env(tgt, p.get("where_backward"))
    forward = {u: parse(src, t, env_f) for u, t in p["forward"].items()}
    v3 = parse(tgt, p["backward"]["v3"], env_b)
    return (v3.num, v3.den), forward, src


def monomial_step():
    p = builtin_catalog().case("sys7iii_case1_tact").payload
    ctx = build_context(p["context"])
    env = build_env(ctx, p.get("where"))
    cb, ta3 = (build_action(ctx, p["actions"][n]) for n in ("cb", "ta3"))
    t1 = parse(ctx, p["forward"]["t1"], env)
    image = ta3.apply_raw((t1.num, t1.den))
    return image, dict(zip(ctx.variables, cb.bindings)), None


def _own_denominators(f, bindings) -> bool:
    """Is every bound variable that occurs in f a group of one (no two
    share a nonconstant binding denominator), not every binding a
    monomial over a monomial?"""
    ctx = f[0].ctx
    occurs = {i for part in f for e in part.terms for i, k in enumerate(e) if k}
    pairs = [
        (b.num, b.den) if isinstance(b, RatFunc) else b
        for name, b in bindings.items()
        if ctx.symbol_index(name) in occurs
    ]
    dens = [d for _, d in pairs if not d.is_constant()]
    monomial = all(len(n.terms) == 1 and len(d.terms) == 1 for n, d in pairs)
    return not monomial and all(d != e for i, d in enumerate(dens) for e in dens[:i])


def own_denominators_step():
    calls = []

    def record(f, bindings, target=None):
        calls.append((f, bindings, target))
        return inner(f, bindings, target)

    inner = ratfunc.substitute_raw
    ratfunc.substitute_raw = actions.substitute_raw = record
    try:
        assert run_case(builtin_catalog(), "prop1_1_st").status == "Pass"
    finally:
        ratfunc.substitute_raw = actions.substitute_raw = inner
    calls = [c for c in calls if _own_denominators(c[0], c[1])]
    return max(calls, key=lambda c: len(c[0][0].terms) + len(c[0][1].terms))


INPUTS = {
    "compose": compose_step,
    "backward": backward_step,
    "monomial": monomial_step,
    "own-denominators": own_denominators_step,
}


@pytest.mark.parametrize("name", INPUTS)
def test_substitute_raw(benchmark, name):
    f, bindings, target = INPUTS[name]()
    num, den = benchmark(substitute_raw, f, bindings, target)
    assert not num.is_zero() and not den.is_zero()
