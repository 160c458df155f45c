"""Microbenchmarks of actions.close_action on the catalog's own generators.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_closure.py --benchmark-only

actg: the group of the orbit sum of sys7iii_case1_actg, generated by the
cycle cb and the signed swap mbe3 over that case's context (the variables
t1, t2, t3, with no parameters or roots); 24 elements.
catalog-73: all 73 groups of the builtin catalog, each closed as the
monomial action of its generator matrices on x1, x2, x3, in one call.
orbit_sum: the orbit sum of sys7iii_case1_actg, its group closed and the
seed's orbit (6 points) summed with weight 4.
Each round closes afresh; the actions and the seed are built once,
outside the timing.

All use only build_action, Automorphism.monomial, close_action, parse
and orbit_sum, so the file runs on older checkouts too. The file name
keeps these out of the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

import pytest

from qmi import QQ, Context, parse
from qmi.actions import Automorphism, close_action, orbit_sum
from qmi.catalog import build_action, build_context, builtin_catalog, word_matrix


def actg_orbit_sum():
    """(seed, generators) of the orbit sum of sys7iii_case1_actg."""
    payload = builtin_catalog().case("sys7iii_case1_actg").payload
    ctx = build_context(payload["context"])
    spec = payload["forward"]["p1"]["orbit_sum"]
    gens = [build_action(ctx, payload["actions"][n]) for n in spec["group"]]
    return parse(ctx, spec["of"]), gens


def catalog_generators():
    ctx = Context(QQ, variables=["x1", "x2", "x3"])
    catalog = builtin_catalog()
    return [
        [Automorphism.monomial(ctx, word_matrix(w)) for w in catalog.group(gid)["generators"]]
        for gid in sorted(catalog.groups)
    ]


def test_actg(benchmark):
    _, gens = actg_orbit_sum()
    assert len(benchmark(close_action, gens)) == 24


def test_catalog_73(benchmark):
    groups = catalog_generators()
    orders = benchmark(lambda: [len(close_action(gens)) for gens in groups])
    assert len(orders) == 73 and max(orders) == 48


def test_orbit_sum(benchmark):
    seed, gens = actg_orbit_sum()
    assert not benchmark(orbit_sum, seed, gens).is_zero()
