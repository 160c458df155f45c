"""Transport of structure: every algebraic claim restated in new coordinates.

A monomial change of coordinates theta: x_j -> prod_i x_i^P_ij, with P
in GL_n(Z), does not change a rationality problem. Each action sigma
becomes sigma' = theta^-1 sigma theta, and each forward entry or
invariant f becomes f' = theta^-1(f). Then sigma'(f') = theta^-1(sigma(f)),
and theta^-1 fixes the constants, so every claimed table holds in the
new coordinates exactly when it holds in the old: a true case stays
true and a false one stays false, with other degrees, denominators and
word layouts than the catalog gives the substitution engine.

P is a fixed, seeded product of two column operations e_j += +-e_i per
context size. The cost of a transported case depends steeply on P: of
34 distinct such P tried, 7 made the sweep of the 3-variable cases run
past 8 s (sys7iii_case1_actg alone about a minute at [[1, 1, 0],
[0, 1, 0], [0, 1, 1]]), while the P used here transports all of them in
about 0.4 s. The test uses only public operations of qmi.
"""

from __future__ import annotations

from random import Random

import pytest

from qmi import parse
from qmi.actions import Automorphism, check_induced_action, check_invariance, orbit_sum
from qmi.catalog import build_action, build_context, build_env, builtin_catalog
from qmi.matgroup import identity, mat_mul
from qmi.ratfunc import RatFunc

KINDS = ("InducedAction", "Invariance")
CASES = [case for case in builtin_catalog().cases if case.kind in KINDS]


def _elementary(n: int, i: int, j: int, s: int) -> list[list[int]]:
    """I + s*e_i*e_j^T: adds s times column i to column j."""
    return [[int(r == c) + s * (r == i and c == j) for c in range(n)] for r in range(n)]


def _column_ops(n: int, k: int, seed: int) -> tuple:
    """(P, P^-1) for P the product of k seeded column operations e_j += s*e_i.

    Each operation is E = I + s*e_i*e_j^T (i != j), whose inverse is
    I - s*e_i*e_j^T, so P^-1 is the product of the inverses in reverse.
    """
    rng = Random(seed)
    p = q = identity(n)
    for _ in range(k):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        p, q = mat_mul(p, _elementary(n, i, j, s)), mat_mul(_elementary(n, i, j, -s), q)
    assert mat_mul(p, q) == identity(n)
    return p, q


# One P per context size (2 and 3 variables), and a second one for the
# negative control.
MOVES = {2: _column_ops(2, 2, 1503), 3: _column_ops(3, 2, 1538)}
OTHER_MOVES = {n: _column_ops(n, 2, 3561) for n in (2, 3)}


def _first_claim_plus_one(p: dict) -> dict:
    name, table = next(iter(p["claimed"].items()))
    u, text = next(iter(table.items()))
    return {**p, "claimed": {**p["claimed"], name: {**table, u: f"({text})+1"}}}


def _expr_plus_a_moved_variable(p: dict) -> tuple[dict, list[dict]]:
    """The first expression plus the first variable some action moves, and
    the (action, expr) records it must give: one per action moving it."""
    ctx = build_context(p["context"])
    actions = {name: build_action(ctx, spec) for name, spec in p["actions"].items()}
    for v in ctx.variables:
        x = RatFunc.named(ctx, v)
        movers = [name for name, sigma in actions.items() if sigma.apply(x) != x]
        if movers:
            break
    e, text = next(iter(p["exprs"].items()))
    moved = {**p, "exprs": {**p["exprs"], e: f"({text})+{v}"}}
    return moved, [{"action": name, "expr": e} for name in movers]


def _transported(kind: str, p: dict, action_moves: dict, forward_moves: dict) -> list[dict]:
    """The failure records of the case p with its actions conjugated by the
    theta of action_moves and its forward map or invariants moved by the
    theta^-1 of forward_moves; the witnesses are dropped."""
    ctx = build_context(p["context"])
    n = len(ctx.variables)
    theta, theta_inv = (Automorphism.monomial(ctx, m) for m in action_moves[n])
    back = Automorphism.monomial(ctx, forward_moves[n][1])
    env = build_env(ctx, p.get("where"))
    actions = {name: build_action(ctx, spec) for name, spec in p["actions"].items()}
    moved = {name: theta_inv.compose(sigma.compose(theta)) for name, sigma in actions.items()}
    if kind == "Invariance":
        exprs = {name: back.apply(parse(ctx, text, env)) for name, text in p["exprs"].items()}
        records = check_invariance(moved, exprs)
    else:
        forward = None
        if p["forward"] is not None:
            forward = {}
            for u, entry in p["forward"].items():
                if isinstance(entry, str):
                    f = parse(ctx, entry, env)
                else:
                    spec = entry["orbit_sum"]
                    f = orbit_sum(parse(ctx, spec["of"], env), [actions[g] for g in spec["group"]])
                forward[u] = back.apply(f)
        cctx = build_context(p["claimed_context"])
        images = None if forward is None else {}
        records = []
        for name, table in p["claimed"].items():
            claimed = {u: parse(cctx, text) for u, text in table.items()}
            # A null forward map is x_u -> x_u, moved to x_u -> theta^-1(x_u).
            fw = forward or {u: back.apply(RatFunc.named(ctx, u)) for u in table}
            found = check_induced_action(moved[name], fw, claimed, images)
            records += [{"action": name, **r} for r in found]
    return [{k: v for k, v in r.items() if k != "witness"} for r in records]


def test_the_sweep_covers_every_algebraic_case():
    assert len(CASES) == 69
    assert sum(case.kind == "Invariance" for case in CASES) == 9
    assert sum(case.payload.get("forward", 0) is None for case in CASES) == 5
    for n in (2, 3):
        assert identity(n) != MOVES[n][0] != OTHER_MOVES[n][0] != identity(n)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_transported_case_passes_and_its_control_fails(case):
    p = case.payload
    assert _transported(case.kind, p, MOVES, MOVES) == []
    if case.kind == "Invariance":
        control, expected = _expr_plus_a_moved_variable(p)
    else:
        control = _first_claim_plus_one(p)
        name, table = next(iter(p["claimed"].items()))
        expected = [{"action": name, "generator": next(iter(table))}]
    assert _transported(case.kind, control, MOVES, MOVES) == expected


def test_actions_and_forward_maps_moved_apart_fail():
    # Actions conjugated by one P and forward maps moved by another: the
    # transport is wrong, and the sweep must see it.
    assert any(_transported(case.kind, case.payload, MOVES, OTHER_MOVES) for case in CASES)
