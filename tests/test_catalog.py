"""The paper's claims: every builtin case must verify.

The full run is the reproduction itself, so it is not sampled. The jobs
check uses a false claim whose witness lists several failures, because
their order is the part of the report a worker pool could disturb.
"""

from __future__ import annotations

import copy
import json
import math
from collections import Counter

import pytest

from qmi.actions import close_action
from qmi.catalog import KINDS, Catalog, CaseRecord, build_action, build_context, builtin_catalog
from qmi.catalog_data import MATRICES
from qmi.runner import run_all, run_case, summarize, to_jsonl


def test_every_builtin_case_passes():
    catalog = builtin_catalog()
    reports = run_all(catalog)
    assert len(reports) == 360
    failed = [(r.case_id, r.status, r.witness) for r in reports if r.status != "Pass"]
    assert failed == []
    assert summarize(reports)["Pass"] == 360


def test_jsonl_bytes_do_not_depend_on_jobs():
    base = builtin_catalog()
    case = base.case("lemma_xy_invariance")
    payload = copy.deepcopy(case.payload)
    payload["actions"]["flip"]["bindings"]["x1"] = "-x1"
    control = CaseRecord("lemma_xy_invariance_flipped", case.kind, case.section,
                         case.source, payload)
    catalog = Catalog(base.groups, [control])
    serial = to_jsonl(run_all(catalog, jobs=1))
    assert '"status": "Fail"' in serial
    assert serial.index("expr xn") < serial.index("expr yn") < serial.index("expr x1fix")
    assert to_jsonl(run_all(catalog, jobs=2)) == serial


def test_every_action_is_an_automorphism():
    # The InducedAction and Invariance claims assume each substitution is
    # invertible. Closing an action alone proves it has finite order.
    specs = {}
    for case in builtin_catalog().cases:
        if case.kind in ("InducedAction", "Invariance"):
            ctx_spec = case.payload["context"]
            for spec in case.payload["actions"].values():
                specs[json.dumps([ctx_spec, spec], sort_keys=True)] = (ctx_spec, spec)
    orders = Counter()
    for ctx_spec, spec in specs.values():
        ctx = build_context(ctx_spec)
        orders[len(close_action([build_action(ctx, spec, MATRICES)]))] += 1
    assert orders == {2: 103, 3: 10, 4: 4}


def _neg(text: str) -> str:
    return f"-({text})"


def _bump(via: list) -> list:
    return [[via[0][0] + 1] + via[0][1:]] + via[1:]


# One light builtin case per kind, the payload path to perturb, and how.
NEGATIVE_CONTROLS = [
    ("lemma_tau1", ("actions", "tau", "bindings", "x1"), _neg),
    ("sys3_xtable", ("claimed", "tau1", "x1"), _neg),
    ("sys7iii_case2", ("backward", "u1"), _neg),
    ("sys7iii_case6_b", ("rhs",), _neg),
    ("order_G_2_1_1", ("order",), lambda n: n + 1),
    ("iso_G_2_1_1", ("label",), lambda label: "C1"),
    # The right order but the wrong group.
    ("iso_G_2_3_1", ("label",), lambda label: "C4"),
    ("normals_G_4_3_1", ("subgroups",), lambda subgroups: subgroups[:-1]),
    ("conj_G_3_1_1_G_3_1_3", ("via",), _bump),
    ("qred_G_1_1_1", ("reducible",), lambda b: not b),
    ("crit_c4_neg", ("expect_rational",), lambda b: not b),
]


def test_negative_controls_cover_every_kind():
    base = builtin_catalog()
    kinds = {base.case(cid).kind for cid, _, _ in NEGATIVE_CONTROLS}
    assert kinds == set(KINDS)


@pytest.mark.parametrize("case_id,path,change", NEGATIVE_CONTROLS,
                         ids=[c[0] for c in NEGATIVE_CONTROLS])
def test_negative_control_fails(case_id, path, change):
    base = builtin_catalog()
    case = base.case(case_id)
    payload = copy.deepcopy(case.payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = change(old)
    assert node[path[-1]] != old
    control = CaseRecord(case_id + "_control", case.kind, case.section, case.source, payload)
    report = run_case(Catalog(base.groups, [control]), control.id)
    assert report.status == "Fail", report.witness
    assert report.witness


def test_iso_label_of_the_right_order_names_the_group_found():
    base = builtin_catalog()
    case = base.case("iso_G_2_3_1")
    assert case.payload["label"] == "C2xC2"
    payload = dict(case.payload, label="C4")
    control = CaseRecord("iso_G_2_3_1_c4", case.kind, case.section, case.source, payload)
    report = run_case(Catalog(base.groups, [control]), control.id)
    assert report.status == "Fail"
    assert report.witness == "recognized C2xC2, catalog says C4"


@pytest.mark.parametrize("timeout", [-0.05, math.inf, math.nan])
def test_bad_timeout_is_a_value_error(timeout):
    catalog = builtin_catalog()
    with pytest.raises(ValueError, match="timeout"):
        run_case(catalog, "order_G_2_1_1", timeout=timeout)
    with pytest.raises(ValueError, match="timeout"):
        run_all(catalog, {"id": "order_G_2_1_1"}, timeout=timeout)


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_is_a_value_error(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_all(builtin_catalog(), {"id": "order_G_2_1_1"}, jobs=jobs)


@pytest.mark.parametrize("timeout", [0, None])
def test_zero_or_no_timeout_means_no_limit(timeout):
    assert run_case(builtin_catalog(), "order_G_2_1_1", timeout=timeout).status == "Pass"


def test_non_injective_orbit_sum_group_is_an_error():
    # Without the group check the orbit sum of x1 over {id, collapse} is
    # 2*x1, which collapse fixes, so the claim below would wrongly Pass.
    payload = {
        "context": {"variables": ["x1", "x2"]},
        "actions": {"collapse": {"bindings": {"x1": "x1", "x2": "x1"}}},
        "forward": {"u": {"orbit_sum": {"of": "x1", "group": ["collapse"]}}},
        "claimed": {"collapse": {"u": "u"}},
        "claimed_context": {"variables": ["u"]},
    }
    case = CaseRecord("collapse_orbit_sum", "InducedAction", "test",
                      "non-injective substitution in an orbit sum", payload)
    report = run_case(Catalog({}, [case]), case.id)
    assert report.status == "Error"
    assert "InconsistentAction" in report.witness
