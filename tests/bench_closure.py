"""Microbenchmarks of actions.close_action on the catalog's own generators.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_closure.py --benchmark-only

actg: the group of the orbit sum of sys7iii_case1_actg, generated by the
cycle cb and the signed swap mbe3 over that case's context (the variables
t1, t2, t3, with no parameters or roots); 24 elements.
catalog-73: all 73 groups of the builtin catalog, each closed as the
monomial action of its generator matrices on x1, x2, x3, in one call.
Each round closes afresh; the actions are built once, outside the timing.

Both use only build_action, Automorphism.monomial and close_action, so
the file runs on older checkouts too. The file name keeps these out of
the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

import pytest

from qmi import QQ, Context
from qmi.actions import Automorphism, close_action
from qmi.catalog import build_action, build_context, builtin_catalog, word_matrix
from qmi.catalog_data import MATRICES


def actg_generators():
    payload = builtin_catalog().case("sys7iii_case1_actg").payload
    ctx = build_context(payload["context"])
    group = payload["forward"]["p1"]["orbit_sum"]["group"]
    return [build_action(ctx, payload["actions"][n], MATRICES) for n in group]


def catalog_generators():
    ctx = Context(QQ, variables=["x1", "x2", "x3"])
    catalog = builtin_catalog()
    return [
        [Automorphism.monomial(ctx, word_matrix(w, MATRICES)) for w in catalog.group(gid)["generators"]]
        for gid in sorted(catalog.groups)
    ]


def test_actg(benchmark):
    gens = actg_generators()
    assert len(benchmark(close_action, gens)) == 24


def test_catalog_73(benchmark):
    groups = catalog_generators()
    orders = benchmark(lambda: [len(close_action(gens)) for gens in groups])
    assert len(orders) == 73 and max(orders) == 48
