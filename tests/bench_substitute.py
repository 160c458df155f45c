"""Microbenchmarks of ratfunc.substitute_raw on three inputs from the builtin catalog.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_substitute.py --benchmark-only

compose: the third substitution of cb.compose(mbe3), the product of the
two generators of the orbit-sum group of sys7iii_case1_actg: mbe3's image
of t3 (5 over 4 terms) with t1, t2, t3 replaced by cb's images. This is a
substitution of the same size as the ones close_action makes, but not one
of them: close_action composes nothing, it applies each generator to the
points of the variable orbits.
backward: the backward-after-forward substitution of v3 in
sys7iii_case1_vt (14 over 12 terms in t1, t2, t3), with every t replaced
by its forward expression in v1, v2, v3 (8 or 9 terms over 8 or 9).
monomial: the word action cb of sys7iii_case1_tact (v1 -> v2, v2 -> v3,
v3 -> v1, stored as bindings) applied to ta3's image of the forward
expression of t1 (92 terms over 84), as check_induced_action applies
actions to forward images. Every binding is a monomial, so this call
takes the termwise path.
The file name keeps these out of the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

import pytest

from qmi.catalog import build_action, build_context, build_env, builtin_catalog
from qmi.catalog_data import MATRICES
from qmi.parser import parse
from qmi.ratfunc import substitute_raw


def compose_step():
    p = builtin_catalog().case("sys7iii_case1_actg").payload
    ctx = build_context(p["context"])
    cb, mbe3 = (build_action(ctx, p["actions"][n], MATRICES) for n in ("cb", "mbe3"))
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
    cb, ta3 = (build_action(ctx, p["actions"][n], MATRICES) for n in ("cb", "ta3"))
    t1 = parse(ctx, p["forward"]["t1"], env)
    image = ta3.apply_raw((t1.num, t1.den))
    return image, dict(zip(ctx.variables, cb.bindings)), None


INPUTS = {"compose": compose_step, "backward": backward_step, "monomial": monomial_step}


@pytest.mark.parametrize("name", INPUTS)
def test_substitute_raw(benchmark, name):
    f, bindings, target = INPUTS[name]()
    num, den = benchmark(substitute_raw, f, bindings, target)
    assert not num.is_zero() and not den.is_zero()
