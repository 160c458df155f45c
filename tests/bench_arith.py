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

Both use only build_env, parse, close_action, Automorphism.apply and
RatFunc.__add__, so the file runs on older checkouts too. The file name
keeps these out of the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import add

import pytest

from qmi import parse
from qmi.actions import close_action
from qmi.catalog import build_action, build_context, build_env, builtin_catalog
from qmi.catalog_data import MATRICES


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
    actions = {n: build_action(ctx, payload["actions"][n], MATRICES) for n in spec["group"]}
    seed = parse(ctx, spec["of"])
    return seed, tuple(sigma.apply(seed) for sigma in close_action(list(actions.values())))


def test_actg_orbit_sum(benchmark):
    seed, images = actg_orbit()
    total = benchmark(reduce, add, images)
    assert total == reduce(add, images[::-1])
    assert not total.is_zero() and total != seed
