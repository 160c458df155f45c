"""Microbenchmarks of RatFunc arithmetic on the catalog's own expressions.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_arith.py --benchmark-only

where-t1, where-t2, where-t3: build_env of the where-list of
sys7iii_case1_t1, _t2 and _t3. Each list is a nested rational change of
generators (u_i, then v_i = (u_i+1)/(u_i-1), then one t_j), parsed into
canonical RatFuncs one operator at a time.
actg-orbit-sum: the additions of the naive orbit sum in
sys7iii_case1_actg, one per group element: the images of its seed under
every element of the group that close_action builds are found once,
outside the timing, and one call adds all 24 up from left to right.
actions.orbit_sum adds only the 6 distinct ones and scales the sum by 4.

parse-light: one call parses every expression text that a light case
(every case but sys7iii_case1_actg, _vt and _tact) parses with no
where-list, in its context, once per distinct (context, text) pair, as
the runner's memo does: action bindings, claimed images, and the
expressions of the cases that have no where-list. It times the parse
layer alone, coefficient arithmetic and canonical forms included.

zero-tests: every actions._witness call that one run_case of
sys7iii_case1_vt and one of _tact make, recorded once outside the
timing, replayed in order by one call. It times the cross-multiplied
zero test alone, equal pairs, products and decode included.

lex-catalog: one call runs parser._lex over every expression text of the
builtin catalog (bindings, claimed images, exprs, lhs and rhs, forward
and backward maps, orbit-sum seeds and where-list entries), repeats
included: 1547 texts. It times the lexer alone.

All of these use only build_context, build_env, parse, parser._lex,
close_action, Automorphism.apply, RatFunc.__add__, run_case and
actions._witness, so the file runs on older checkouts too. The file name
keeps these out of the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import add

import pytest

from qmi import actions, parse, parser
from qmi.actions import close_action
from qmi.catalog import build_action, build_context, build_env, builtin_catalog
from qmi.runner import run_case


@pytest.mark.parametrize("case_id", ["sys7iii_case1_t1", "sys7iii_case1_t2", "sys7iii_case1_t3"])
def test_where(benchmark, case_id):
    payload = builtin_catalog().case(case_id).payload
    ctx = build_context(payload["context"])
    env = benchmark(build_env, ctx, payload["where"])
    assert env[payload["lhs"]] == parse(ctx, payload["rhs"])


@cache
def actg_orbit():
    """(seed, the seed's images under the group) of sys7iii_case1_actg."""
    payload = builtin_catalog().case("sys7iii_case1_actg").payload
    ctx = build_context(payload["context"])
    spec = payload["forward"]["p1"]["orbit_sum"]
    actions = {n: build_action(ctx, payload["actions"][n]) for n in spec["group"]}
    seed = parse(ctx, spec["of"])
    return seed, tuple(sigma.apply(seed) for sigma in close_action(list(actions.values())))


def test_actg_orbit_sum(benchmark):
    seed, images = actg_orbit()
    total = benchmark(reduce, add, images)
    assert total == reduce(add, images[::-1])
    assert not total.is_zero() and total != seed


HEAVY_CASES = ("sys7iii_case1_actg", "sys7iii_case1_vt", "sys7iii_case1_tact")


def _case_texts(p: dict):
    """(context spec, text) of each expression a case parses with no where-list."""
    if "source" in p:
        if "where_forward" not in p:
            yield from ((p["source"], t) for t in p["forward"].values())
        if "where_backward" not in p:
            yield from ((p["target"], t) for t in p["backward"].values())
        return
    ctx = p.get("context")
    for spec in p.get("actions", {}).values():
        yield from ((ctx, t) for t in spec.get("bindings", {}).values())
    for table in p.get("claimed", {}).values():
        yield from ((p["claimed_context"], t) for t in table.values())
    if "where" in p:
        return
    texts = [*p.get("exprs", {}).values(), *(p[k] for k in ("lhs", "rhs") if k in p)]
    for entry in (p.get("forward") or {}).values():
        texts.append(entry if isinstance(entry, str) else entry["orbit_sum"]["of"])
    yield from ((ctx, t) for t in texts)


@cache
def light_texts() -> tuple:
    """The distinct (context, text) pairs of the light cases, in catalog order."""
    contexts = {}
    out = {}
    for case in builtin_catalog().cases:
        if case.id in HEAVY_CASES:
            continue
        for spec, text in _case_texts(case.payload):
            key = repr(spec)
            if key not in contexts:
                contexts[key] = build_context(spec)
            out[(contexts[key], text)] = None
    return tuple(out)


def parse_all(items) -> list:
    return [parse(ctx, text) for ctx, text in items]


def test_parse_light(benchmark):
    items = light_texts()
    parsed = benchmark(parse_all, items)
    assert len(parsed) == len(items) > 300
    assert all(f.ctx == ctx for f, (ctx, _) in zip(parsed, items))


def _expression_texts(p: dict):
    """Every expression text of a payload, where-list entries included."""
    for spec in p.get("actions", {}).values():
        yield from spec.get("bindings", {}).values()
    for table in p.get("claimed", {}).values():
        yield from table.values()
    yield from p.get("exprs", {}).values()
    yield from (p[k] for k in ("lhs", "rhs") if k in p)
    for key in ("forward", "backward"):
        for entry in (p.get(key) or {}).values():
            yield entry if isinstance(entry, str) else entry["orbit_sum"]["of"]
    for key in ("where", "where_forward", "where_backward"):
        yield from (text for _, text in p.get(key) or ())


def lex_all(texts) -> list:
    return [parser._lex(text) for text in texts]


def test_lex_catalog(benchmark):
    texts = [t for case in builtin_catalog().cases for t in _expression_texts(case.payload)]
    tokens = benchmark(lex_all, texts)
    assert len(tokens) == len(texts) > 1500
    assert all(toks[-1].kind == "end" for toks in tokens)


@cache
def witness_calls() -> tuple:
    """((args, kwargs, result), ...) of the _witness calls of sys7iii_case1_vt and _tact."""
    calls = []
    inner = actions._witness

    def record(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    actions._witness = record
    try:
        for case_id in ("sys7iii_case1_vt", "sys7iii_case1_tact"):
            assert run_case(builtin_catalog(), case_id).status == "Pass"
    finally:
        actions._witness = inner
    return tuple(calls)


def replay_witnesses(calls) -> list:
    witness = actions._witness
    return [witness(*args, **kwargs) for args, kwargs, _ in calls]


def test_zero_tests(benchmark):
    calls = witness_calls()
    results = benchmark(replay_witnesses, calls)
    assert len(calls) > 10
    assert results == [result for _, _, result in calls]
