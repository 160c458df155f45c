"""Microbenchmarks of the matrix-group layer: closure, conjugation, recognition,
normal subgroups, subgroup closure and q_reducible.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_matgroup.py --benchmark-only

close_group closes every catalog group from its generator words in one
timed call (the words are evaluated outside it). verify_conjugation runs
the catalog's Conjugacy cases in one timed call, on groups closed
beforehand, so it times the conjugation test alone. subgroup closes the
98 subgroups that the catalog's NormalSubgroups cases list, in one timed
call, each in the index table of its group, closed and tabulated
beforehand.

The four order-48 groups are the catalog groups G_7_5_1, G_7_5_2 and
G_7_5_3 and the model S4xC2 of identify_iso_type. identify_iso_type and
normal_subgroups run on a group closed afresh before each round, outside
the timed call, so every round pays for the structure it reads (the first
structure call of a catalog run does too). A warmup round closes the
models of identify_iso_type, once per process. q_reducible runs on a closed
group; it decides dimension <= 3 only, so the 4-dimensional S4xC2 gives
way there to the 3-dimensional D4xC2, a reducible block sum of order 16.
The file name keeps these out of the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

import pytest

from qmi.catalog import builtin_catalog, word_matrix
from qmi.matgroup import (
    _MODEL_GENERATORS,
    MatrixGroup,
    close_group,
    identify_iso_type,
    mat,
    q_reducible,
    verify_conjugation,
)
from qmi.runner import build_group

GROUPS = ["G_7_5_1", "G_7_5_2", "G_7_5_3", "S4xC2"]
ROUNDS = 20


def generators(name: str) -> list:
    if name in _MODEL_GENERATORS:
        return list(_MODEL_GENERATORS[name])
    words = builtin_catalog().group(name)["generators"]
    return [word_matrix(w) for w in words]


def test_close_group(benchmark):
    catalog = builtin_catalog()
    gens = [generators(gid) for gid in sorted(catalog.groups)]
    groups = benchmark(lambda: [close_group(g) for g in gens])
    assert len(groups) == 73


def test_verify_conjugation(benchmark):
    catalog = builtin_catalog()
    cases = []
    for case in catalog.cases:
        if case.kind == "Conjugacy":
            p = case.payload
            via = p["via"]
            m = mat(via) if isinstance(via, list) else word_matrix(via)
            cases.append((build_group(catalog, p["left"]), build_group(catalog, p["right"]), m))
    verdicts = benchmark(lambda: [verify_conjugation(*case) for case in cases])
    assert len(verdicts) == 19 and all(verdicts)


def test_subgroups(benchmark):
    catalog = builtin_catalog()
    listed = []
    for case in catalog.cases:
        if case.kind == "NormalSubgroups":
            g = build_group(catalog, case.payload["group"])
            g._table()
            listed += [(g, [word_matrix(w) for w in words]) for words in case.payload["subgroups"]]
    subgroups = benchmark(lambda: [g.subgroup(mats) for g, mats in listed])
    assert len(subgroups) == 98


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize(
    "query", [identify_iso_type, MatrixGroup.normal_subgroups],
    ids=["identify_iso_type", "normal_subgroups"],
)
def test_structure(benchmark, name, query):
    gens = generators(name)

    def fresh_group():
        return (close_group(gens),), {}

    result = benchmark.pedantic(query, setup=fresh_group, rounds=ROUNDS, warmup_rounds=1)
    assert result


@pytest.mark.parametrize("name", GROUPS[:3] + ["D4xC2"])
def test_q_reducible(benchmark, name):
    reducible, _ = benchmark(q_reducible, close_group(generators(name)))
    # The catalog groups act irreducibly on Q^3; the model is a block sum.
    assert reducible == (name == "D4xC2")
