"""The paper's claims: every builtin case must verify.

The full run is the reproduction itself, so it is not sampled. The jobs
check uses a false claim whose witness lists several failures, because
their order is the part of the report a worker pool could disturb.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import pickle
import threading
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qmi import runner
from qmi.actions import close_action
from qmi.catalog import (
    KINDS,
    Catalog,
    CaseRecord,
    build_action,
    build_context,
    builtin_catalog,
    load_catalog,
    validate_catalog,
    word_matrix,
)
from qmi.errors import SchemaError
from qmi.hilbert import CRITERIA
from qmi.matgroup import _models, mat, mat_det
from qmi.ratfunc import RatFunc
from qmi.runner import STATUSES, run_all, run_case, summarize, to_jsonl


def test_every_builtin_case_passes():
    catalog = builtin_catalog()
    reports = run_all(catalog)
    assert len(reports) == 360
    failed = [(r.case_id, r.status, r.witness) for r in reports if r.status != "Pass"]
    assert failed == []
    assert summarize(reports)["Pass"] == 360
    assert _digest(reports) == (
        "4ebe881c309c3c997f07b5a85ffeed5e46c42b47d4d54ee87220a541816272cc")


def _digest(reports) -> str:
    """sha256 of the reports' to_jsonl bytes."""
    return hashlib.sha256(to_jsonl(reports).encode()).hexdigest()


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


def test_every_kind_has_a_runner():
    assert set(runner._DISPATCH) == set(KINDS)


def test_group_filter_matches_the_payload_group_keys():
    catalog = builtin_catalog()
    for gid in catalog.groups:
        naming = [c.id for c in catalog.cases
                  if gid in (c.payload.get(key) for key in ("group", "left", "right"))]
        assert [c.id for c in catalog.select({"group": gid})] == naming


def test_editing_a_case_dict_leaves_the_catalog_alone():
    case = builtin_catalog().case("lemma_xy_invariance")
    before = copy.deepcopy(case.payload)
    case.to_dict()["payload"]["actions"]["flip"] = {"word": "cb"}
    assert builtin_catalog().case("lemma_xy_invariance").payload == before


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
        orders[len(close_action([build_action(ctx, spec)]))] += 1
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


def _controls(kind: str, perturb):
    """One control per (case of kind, perturbed payload) pair perturb yields."""
    base = builtin_catalog()
    controls = [
        CaseRecord(f"{case.id}_control_{n}", kind, case.section, case.source, payload)
        for case in base.cases if case.kind == kind
        for n, payload in enumerate(perturb(case.payload))
    ]
    return controls, run_all(Catalog(base.groups, controls))


def _via_moved_by_one(payload: dict):
    for i, j, step in product(range(3), range(3), (1, -1)):
        via = copy.deepcopy(payload["via"])
        via[i][j] += step
        yield {**payload, "via": via}


def test_every_via_entry_moved_by_one_fails():
    # 19 Conjugacy cases, 9 entries each, +1 and -1: a singular via stops
    # at the determinant, every other one reaches the membership test.
    controls, reports = _controls("Conjugacy", _via_moved_by_one)
    assert len(reports) == 342
    assert [r.case_id for r in reports if r.status != "Fail"] == []
    assert sum(mat_det(mat(c.payload["via"])) == 0 for c in controls) == 8


def test_every_criterion_with_its_claim_flipped_fails():
    controls, reports = _controls(
        "RationalityCriterion",
        lambda p: [{**p, "expect_rational": not p["expect_rational"]}])
    assert len(reports) == 5
    assert {c.payload["case"] for c in controls} == set(CRITERIA)
    assert [r.case_id for r in reports if r.status != "Fail"] == []


def _plus(text: str, term: str = "1") -> str:
    return f"({text})+{term}"


def _claimed_plus_one(p: dict):
    for name, table in p["claimed"].items():
        for u, text in table.items():
            yield {**p, "claimed": {**p["claimed"], name: {**table, u: _plus(text)}}}


def _backward_plus_one(p: dict):
    for x, text in p["backward"].items():
        yield {**p, "backward": {**p["backward"], x: _plus(text)}}


def _moved_variable(p: dict) -> str:
    """The first variable of the context that some action of the case moves."""
    ctx = build_context(p["context"])
    actions = [build_action(ctx, spec) for spec in p["actions"].values()]
    for v in ctx.variables:
        x = RatFunc.named(ctx, v)
        if any(sigma.apply(x) != x for sigma in actions):
            return v
    raise AssertionError("no action moves a variable")


def _exprs_plus_a_moved_variable(p: dict):
    v = _moved_variable(p)
    for e, text in p["exprs"].items():
        yield {**p, "exprs": {**p["exprs"], e: _plus(text, v)}}


ALGEBRAIC_PERTURBATIONS = {
    "InducedAction": _claimed_plus_one,
    "Identity": lambda p: [{**p, "rhs": _plus(p["rhs"])}],
    "InversePair": _backward_plus_one,
    "Invariance": _exprs_plus_a_moved_variable,
}


def test_every_algebraic_claim_moved_fails():
    # Each claimed image, Identity rhs and backward entry plus 1, and each
    # invariant plus a variable that an action moves: one false claim per
    # control. The digest pins every witness, the 400-character cut of
    # the long ones included.
    reports = []
    for kind, perturb in ALGEBRAIC_PERTURBATIONS.items():
        reports += _controls(kind, perturb)[1]
    assert len(reports) == 749
    assert [r.case_id for r in reports if r.status != "Fail"] == []
    assert _digest(reports) == (
        "61ea4cdbf9b68b95404cafd44605e5a3e2cc7c45ab0e450876b84cd350f624dd")


CAPPED_CASES = ("sys7iii_case1_v", "sys7_case1_y", "prop1_1_v", "prop1_1_t")


def test_every_claimed_entry_moved_at_once_fills_the_witness_cap():
    base = builtin_catalog()
    controls = []
    for cid in CAPPED_CASES:
        case = base.case(cid)
        payload = copy.deepcopy(case.payload)
        for table in payload["claimed"].values():
            for u in table:
                table[u] = _plus(table[u])
        controls.append(CaseRecord(cid + "_all_moved", case.kind, case.section,
                                   case.source, payload))
    reports = run_all(Catalog(base.groups, controls))
    assert [(r.status, len(r.witness)) for r in reports] == [("Fail", 2000)] * 4
    assert _digest(reports) == (
        "0e619af2c532d7a9a831195387d46b0dc4e3dab87e5fd235d573c9a3139a354f")


def _iso_labels_of_the_same_order(p: dict):
    order = {label: model.order for label, _, model in _models()}
    for label in order:
        if label != p["label"] and order[label] == order[p["label"]]:
            yield {**p, "label": label}


def _each_subgroup_dropped(p: dict):
    subgroups = p["subgroups"]
    for i in range(len(subgroups)):
        yield {**p, "subgroups": subgroups[:i] + subgroups[i + 1:]}


GROUP_PERTURBATIONS = {
    "GroupOrder": lambda p: [{**p, "order": n} for n in (p["order"] + 1, p["order"] - 1) if n],
    "NormalSubgroups": _each_subgroup_dropped,
    "IsoType": _iso_labels_of_the_same_order,
    "QReducibility": lambda p: [{**p, "reducible": not p["reducible"]}],
}


def test_every_group_claim_moved_fails():
    sizes = {}
    for kind, perturb in GROUP_PERTURBATIONS.items():
        _, reports = _controls(kind, perturb)
        sizes[kind] = len(reports)
        assert [r.case_id for r in reports if r.status != "Fail"] == []
    assert sizes == {"GroupOrder": 145, "NormalSubgroups": 98, "IsoType": 95,
                     "QReducibility": 73}


@pytest.mark.parametrize("lhs,rhs,witness", [
    ("2^3000000", "1", "<3000000-bit integer>"),
    ("x1/3^10000", "x1", "-<15850-bit integer>/<15850-bit integer>*x1"),
], ids=["int", "fraction"])
def test_a_coefficient_past_the_str_limit_still_fails(lhs, rhs, witness):
    # str() refuses an integer of more than 4300 digits, so the witness
    # writes such a coefficient by its size: the false claim is a Fail.
    control = CaseRecord("huge_identity", "Identity", "test", "test",
                         {"context": {"variables": ["x1"]}, "lhs": lhs, "rhs": rhs})
    catalog = Catalog(builtin_catalog().groups, [control])
    reports = run_all(catalog)
    assert [(r.status, r.witness) for r in reports] == [("Fail", witness)]
    assert to_jsonl(run_all(catalog, jobs=2)) == to_jsonl(reports)


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


def _on_another_thread(call):
    """call() run on a thread other than the main one: its result, or what it raised."""
    out = []

    def target():
        try:
            out.append(call())
        except Exception as exc:
            out.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


def _run_both_ways(catalog, timeout):
    """run_case and run_all(jobs=1) of one case, each on another thread."""
    return [
        _on_another_thread(lambda: run_case(catalog, "order_G_2_1_1", timeout=timeout)),
        _on_another_thread(lambda: run_all(catalog, {"id": "order_G_2_1_1"}, jobs=1, timeout=timeout)[0]),
    ]


def test_a_timeout_off_the_main_thread_is_a_value_error():
    """Only the main thread can arm the alarm, so a limit there would not hold."""
    for got in _run_both_ways(builtin_catalog(), 0.2):
        assert isinstance(got, ValueError) and "main thread" in str(got)


@pytest.mark.parametrize("timeout", [None, 0])
def test_no_limit_runs_off_the_main_thread(timeout):
    assert [r.status for r in _run_both_ways(builtin_catalog(), timeout)] == ["Pass", "Pass"]


# -- the per-catalog memo of the runner ---------------------------------------


@pytest.mark.parametrize("control_first", [True, False], ids=["control-first", "base-first"])
def test_memo_keeps_a_negated_claim_apart_from_its_base(control_first):
    base = builtin_catalog()
    case = base.case("sys3_xtable")
    payload = copy.deepcopy(case.payload)
    table = payload["claimed"]["tau1"]
    table["x1"] = _neg(table["x1"])
    control = CaseRecord("sys3_xtable_control", case.kind, case.section, case.source, payload)
    catalog = Catalog(base.groups, [case, control])
    order = [control.id, case.id] if control_first else [case.id, control.id]
    status = {cid: run_case(catalog, cid).status for cid in order}
    assert status == {case.id: "Pass", control.id: "Fail"}


def test_pool_run_after_a_serial_run_gives_the_serial_bytes():
    catalog = builtin_catalog()
    filters = {"kind": "InducedAction"}
    serial = to_jsonl(run_all(catalog, filters))
    assert to_jsonl(run_all(catalog, filters, jobs=2)) == serial


def test_a_catalog_pickles_with_its_memo():
    catalog = builtin_catalog()
    filters = {"kind": "InducedAction"}
    serial = to_jsonl(run_all(catalog, filters))
    copied = pickle.loads(pickle.dumps(catalog))
    assert copied == catalog and copied.memo.keys() == catalog.memo.keys()
    assert to_jsonl(run_all(copied, filters)) == serial


def test_timed_out_case_leaves_nothing_half_built():
    catalog = builtin_catalog()
    report = run_case(catalog, "sys7iii_case1_actg", timeout=0.005)
    assert report.status == "Error", report.witness
    assert run_case(catalog, "sys7iii_case1_actg", timeout=None).status == "Pass"


def test_a_run_after_loading_evaluates_no_word():
    """Validation evaluated every word of the catalog; the run only looks them up."""
    catalog = builtin_catalog()
    misses = word_matrix.cache_info().misses
    assert summarize(run_all(catalog))["Pass"] == len(catalog.cases)
    assert word_matrix.cache_info().misses == misses


def test_group_is_built_once_per_catalog():
    catalog = builtin_catalog()
    group = runner.build_group(catalog, "G_4_3_1")
    assert runner.build_group(catalog, "G_4_3_1") is group
    assert runner.build_group(builtin_catalog(), "G_4_3_1") is not group


def test_listed_normal_subgroups_close_in_the_groups_table(monkeypatch):
    """Once its group is built, a NormalSubgroups case multiplies no
    matrices: each listed subgroup closes in the group's index table."""
    from qmi import matgroup

    catalog = builtin_catalog()
    cases = [c for c in catalog.cases if c.kind == "NormalSubgroups"]
    for case in cases:
        g = runner.build_group(catalog, case.payload["group"])
        for words in case.payload["subgroups"]:
            mats = [word_matrix(w) for w in words]
            assert g.subgroup(mats) == matgroup.close_group(mats).elements
    products = []
    mat_mul = matgroup.mat_mul
    monkeypatch.setattr(matgroup, "mat_mul", lambda a, b: products.append((a, b)) or mat_mul(a, b))
    assert all(run_case(catalog, c.id).status == "Pass" for c in cases)
    assert products == []


@pytest.mark.parametrize("extra,status,witness", [
    (["ca"], "Fail", "listed generator ca is not an element of G_4_3_1"),
    (["-i3", "ca"], "Fail", "listed generator ca is not an element of G_4_3_1"),
], ids=["outside-alone", "outside-beside-an-element"])
def test_listed_subgroup_with_a_generator_outside_the_group(extra, status, witness):
    # ca is not in G_4_3_1 (order 8); -i3 is. A subgroup of G lies in G, so
    # a listed generator outside G makes the claim false, and the witness
    # names that generator.
    base = builtin_catalog()
    case = base.case("normals_G_4_3_1")
    payload = copy.deepcopy(case.payload)
    payload["subgroups"].append(extra)
    control = CaseRecord("normals_outside", case.kind, case.section, case.source, payload)
    report = run_case(Catalog(base.groups, [control]), control.id)
    assert (report.status, report.witness) == (status, witness)


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


def test_identity_with_a_digit_of_another_script_is_an_error():
    # "\u0663" is an Arabic-Indic 3; read as 3, the claim x1 + 3 = x1 + 3 would Pass.
    payload = {"context": {"variables": ["x1"]}, "lhs": "x1 + \u0663", "rhs": "x1 + 3"}
    case = CaseRecord("arabic_indic_three", "Identity", "test", "a digit outside INT", payload)
    report = run_case(Catalog({}, [case]), case.id)
    assert report.status == "Error"
    assert report.witness.startswith("ParseError: unexpected character")


@pytest.mark.parametrize("lhs,status", [
    ("(v-w)/(v-w)", "Error"),
    ("(v-w)^-1*(v-w)", "Error"),
    ("v/w", "Pass"),
], ids=["quotient", "inverse", "ratio"])
def test_where_names_with_equal_values_divide_as_those_values(lhs, status):
    # v and w name one value, so v - w is zero and dividing by it is an
    # Error, whichever way the quotient is written; v / w is 1.
    where = [["v", "(x1+1)/(x2-1)"], ["w", "(x1+1)/(x2-1)"]]
    payload = {"context": {"variables": ["x1", "x2"]}, "where": where, "lhs": lhs, "rhs": "1"}
    case = CaseRecord("where_division", "Identity", "test", "where-list division", payload)
    report = run_case(Catalog({}, [case]), case.id)
    assert report.status == status
    if status == "Error":
        assert report.witness.startswith("DivisionByZero")


# -- schema validation of catalog files ---------------------------------------


def _case(cid: str, kind: str, payload: dict) -> dict:
    return {"id": cid, "kind": kind, "section": "test", "source": "test", "payload": payload}


# A small valid document: cases 0-4 are a group order, an induced action
# with an orbit sum, an inverse pair, a conjugacy and a root-sign flip.
VALID_DOCUMENT = {
    "groups": {"G": {"generators": ["la1"], "label": "C2", "system": "2", "star": False}},
    "cases": [
        _case("order", "GroupOrder", {"group": "G", "order": 2}),
        _case("induced", "InducedAction", {
            "context": {"variables": ["x1", "x2"]},
            "actions": {"swap": {"bindings": {"x1": "x2", "x2": "x1"}}},
            "forward": {"u": {"orbit_sum": {"of": "x1", "group": ["swap"]}}, "v": "x1*x2"},
            "claimed": {"swap": {"u": "u", "v": "v"}},
            "claimed_context": {"variables": ["u", "v"]},
        }),
        _case("inverse", "InversePair", {
            "source": {"variables": ["x1"]},
            "target": {"variables": ["y1"]},
            "forward": {"y1": "1/x1"},
            "backward": {"x1": "1/y1"},
        }),
        _case("conj", "Conjugacy", {"left": "G", "right": "G", "via": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        _case("flip", "Invariance", {
            "context": {"variables": ["x1"], "parameters": ["d"], "roots": ["d"]},
            "actions": {"s": {"bindings": {"x1": "x1"}, "signs": {"d": -1}}},
            "exprs": {"f": "x1"},
        }),
    ],
}


def _set(path: tuple, value):
    def change(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return change


def _delete(path: tuple):
    def change(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return change


def _flip_twins(doc):
    """Give case 4 a specialized parameter e = 1, and append its twin with e = true."""
    context = doc["cases"][4]["payload"]["context"]
    context["parameters"] = ["d", "e"]
    context["specialize"] = {"e": 1}
    twin = copy.deepcopy(doc["cases"][4])
    twin["id"] = "flip_twin"
    twin["payload"]["context"]["specialize"] = {"e": True}
    doc["cases"].append(twin)


def _claim_w9(doc):
    """Forward and claim a generator w9 in case 1 that its claimed_context lacks."""
    p = doc["cases"][1]["payload"]
    p["forward"]["w9"] = "x1"
    p["claimed"]["swap"]["w9"] = "u"


def _claim_x3_without_forward(doc):
    """Case 1 with no forward map and a claimed key x3 that only claimed_context declares."""
    p = doc["cases"][1]["payload"]
    p["forward"] = None
    p["claimed_context"] = {"variables": ["x1", "x2", "x3"]}
    p["claimed"]["swap"] = {"x1": "x2", "x2": "x1", "x3": "x3"}


def _specialize_e(value):
    """Give case 4 a second, unrooted parameter e specialized to value."""
    def change(doc):
        context = doc["cases"][4]["payload"]["context"]
        context["parameters"] = ["d", "e"]
        context["specialize"] = {"e": value}
    return change


def _criterion(payload: dict):
    """Replace case 0 by a RationalityCriterion case with this payload."""
    return _set(("cases", 0), _case("order", "RationalityCriterion", {**payload, "expect_rational": True}))


# (id, change to VALID_DOCUMENT, the path SchemaError must report).
MALFORMED = [
    ("unknown-kind", _set(("cases", 0, "kind"), "Order"), "/cases/0/kind"),
    ("missing-payload-key", _delete(("cases", 0, "payload", "order")), "/cases/0/payload"),
    ("extra-payload-key", _set(("cases", 0, "payload", "extra"), 1), "/cases/0/payload"),
    ("duplicate-case-id", _set(("cases", 1, "id"), "order"), "/cases/1/id"),
    ("unknown-group", _set(("cases", 0, "payload", "group"), "H"), "/cases/0/payload/group"),
    ("claimed-undeclared-action", _set(("cases", 1, "payload", "claimed", "rot"), {"u": "u", "v": "v"}),
     "/cases/1/payload/claimed/rot"),
    ("claimed-misses-forward", _delete(("cases", 1, "payload", "claimed", "swap", "v")),
     "/cases/1/payload/claimed/swap"),
    ("inverse-forward-keys", _set(("cases", 2, "payload", "forward"), {"y2": "1/x1"}),
     "/cases/2/payload/forward"),
    ("orbit-sum-undeclared-action", _set(("cases", 1, "payload", "forward", "u", "orbit_sum", "group"), ["rot"]),
     "/cases/1/payload/forward/u/orbit_sum/group"),
    ("via-not-3x3", _set(("cases", 3, "payload", "via"), [[1, 0], [0, 1]]), "/cases/3/payload/via"),
    # JSON true and false are Python ints; they are not integers here.
    ("order-is-a-boolean", _set(("cases", 0, "payload", "order"), True), "/cases/0/payload/order"),
    ("via-entry-is-a-boolean",
     _set(("cases", 3, "payload", "via"), [[True, False, False], [False, True, False], [False, False, True]]),
     "/cases/3/payload/via"),
    ("sign-not-unit", _set(("cases", 4, "payload", "actions", "s", "signs", "d"), 2),
     "/cases/4/payload/actions/s/signs"),
    ("sign-is-a-boolean", _set(("cases", 4, "payload", "actions", "s", "signs", "d"), True),
     "/cases/4/payload/actions/s/signs"),
    ("sign-is-a-float", _set(("cases", 4, "payload", "actions", "s", "signs", "d"), -1.0),
     "/cases/4/payload/actions/s/signs"),
    ("specialized-value-is-a-boolean",
     _set(("cases", 4, "payload", "context", "specialize"), {"d": True}),
     "/cases/4/payload/context/specialize/d"),
    # Words that word_matrix cannot evaluate, and sign keys that name no
    # rooted parameter, are rejected at load time, not as per-case Errors.
    ("unknown-generator-name", _set(("groups", "G", "generators"), ["la1", "zz"]),
     "/groups/G/generators/1"),
    ("zero-generator-exponent", _set(("groups", "G", "generators"), ["la1^0"]), "/groups/G/generators/0"),
    # Every finite order in GL_3(Z) is at most 6; powers above MAX_ORDER are refused.
    ("generator-exponent-above-the-order-bound", _set(("groups", "G", "generators"), ["cb^13"]),
     "/groups/G/generators/0"),
    # A power is ASCII digits only (field.INT), which int() alone does not check:
    # these would load as cb^12, cb^2 and cb^2 ("\u0662" is an Arabic-Indic 2).
    ("generator-exponent-with-an-underscore", _set(("groups", "G", "generators"), ["cb^1_2"]),
     "/groups/G/generators/0"),
    ("generator-exponent-with-a-sign", _set(("groups", "G", "generators"), ["cb^+2"]),
     "/groups/G/generators/0"),
    ("generator-exponent-in-another-script", _set(("groups", "G", "generators"), ["cb^\u0662"]),
     "/groups/G/generators/0"),
    ("unknown-subgroup-word",
     _set(("cases", 0), _case("order", "NormalSubgroups", {"group": "G", "subgroups": [["la1"], ["zz"]]})),
     "/cases/0/payload/subgroups/1/0"),
    ("unknown-action-word", _set(("cases", 4, "payload", "actions", "s"), {"word": "qq"}),
     "/cases/4/payload/actions/s/word"),
    ("unknown-orbit-sum-generator-word", _set(("cases", 1, "payload", "actions", "swap"), {"word": "cb^x"}),
     "/cases/1/payload/actions/swap/word"),
    ("unknown-via-word", _set(("cases", 3, "payload", "via"), "zz"), "/cases/3/payload/via"),
    ("blank-generator-word", _set(("groups", "G", "generators"), ["la1", " "]), "/groups/G/generators/1"),
    ("empty-word-factor", _set(("cases", 3, "payload", "via"), "la1*"), "/cases/3/payload/via"),
    # A 3x3 word in a one-variable context, and a binding of an undeclared variable.
    ("word-does-not-fit-context", _set(("cases", 4, "payload", "actions", "s"), {"word": "cb"}),
     "/cases/4/payload/actions/s/word"),
    ("binding-of-undeclared-variable",
     _set(("cases", 4, "payload", "actions", "s", "bindings"), {"x1": "x1", "x9": "x1"}),
     "/cases/4/payload/actions/s/bindings/x9"),
    ("partial-bindings", _set(("cases", 1, "payload", "actions", "swap", "bindings"), {"x1": "x2"}),
     "/cases/1/payload/actions/swap/bindings"),
    # Claimed keys are variables of claimed_context, and of context too
    # when forward is null.
    ("claimed-key-not-a-claimed-variable", _claim_w9, "/cases/1/payload/claimed/swap/w9"),
    ("claimed-key-not-a-variable-without-forward", _claim_x3_without_forward,
     "/cases/1/payload/claimed/swap/x3"),
    ("sign-of-unrooted-parameter", _delete(("cases", 4, "payload", "context", "roots")),
     "/cases/4/payload/actions/s/signs/d"),
    ("sign-of-undeclared-name", _set(("cases", 4, "payload", "actions", "s", "signs"), {"e": -1}),
     "/cases/4/payload/actions/s/signs/e"),
    # The checks shared by key: a second group reference, a context key
    # other than "context", and a where-list other than "where".
    ("unknown-right-group", _set(("cases", 3, "payload", "right"), "H"), "/cases/3/payload/right"),
    ("missing-claimed-context", _delete(("cases", 1, "payload", "claimed_context")), "/cases/1/payload"),
    ("where-backward-entry-not-a-pair", _set(("cases", 2, "payload", "where_backward"), [["dd"]]),
     "/cases/2/payload/where_backward/0"),
    # Where names the parser does not read as names, "sqrt", and names that
    # would shadow a symbol of the context the list is parsed in: with
    # x1 := x2, the claim x1 = x2 would pass.
    ("where-name-not-a-symbol-name", _set(("cases", 2, "payload", "where_forward"), [["X1", "x1"]]),
     "/cases/2/payload/where_forward/0"),
    ("where-name-is-sqrt", _set(("cases", 1, "payload", "where"), [["dd", "x1"], ["sqrt", "x2"]]),
     "/cases/1/payload/where/1"),
    ("where-name-is-a-variable", _set(("cases", 2, "payload", "where_backward"), [["y1", "2*y1"]]),
     "/cases/2/payload/where_backward/0"),
    ("where-name-is-a-parameter", _set(("cases", 4, "payload", "where"), [["d", "x1"]]),
     "/cases/4/payload/where/0"),
    # Contexts that Context would reject when the case runs.
    ("variable-name-not-a-symbol-name", _set(("cases", 4, "payload", "context", "variables"), ["X1"]),
     "/cases/4/payload/context/variables/0"),
    ("duplicate-variable", _set(("cases", 1, "payload", "context", "variables"), ["x1", "x1"]),
     "/cases/1/payload/context/variables/1"),
    ("root-of-undeclared-parameter", _set(("cases", 4, "payload", "context", "roots"), ["e"]),
     "/cases/4/payload/context/roots/0"),
    ("specialization-of-undeclared-parameter", _set(("cases", 4, "payload", "context", "specialize"), {"e": 2}),
     "/cases/4/payload/context/specialize/e"),
    ("field-of-composite-order", _set(("cases", 4, "payload", "context", "field"), "F4"),
     "/cases/4/payload/context/field"),
    # "\u0663" is an Arabic-Indic 3, which str.isdigit accepts.
    ("field-order-in-another-script", _set(("cases", 4, "payload", "context", "field"), "F\u0663"),
     "/cases/4/payload/context/field"),
    ("field-of-characteristic-two", _set(("cases", 4, "payload", "context", "field"), "F2"),
     "/cases/4/payload/context/field"),
    ("specialized-value-not-a-number", _set(("cases", 4, "payload", "context", "specialize"), {"d": "x"}),
     "/cases/4/payload/context/specialize/d"),
    ("specialized-value-divides-by-zero", _set(("cases", 4, "payload", "context", "specialize"), {"d": "1/0"}),
     "/cases/4/payload/context/specialize/d"),
    ("specialized-denominator-is-zero-mod-p",
     _set(("cases", 4, "payload", "context"),
          {"field": "F7", "variables": ["x1"], "parameters": ["d"], "roots": ["d"], "specialize": {"d": "1/7"}}),
     "/cases/4/payload/context/specialize/d"),
    ("rooted-parameter-specialized-to-a-square", _set(("cases", 4, "payload", "context", "specialize"), {"d": 4}),
     "/cases/4/payload/context/specialize/d"),
    ("rooted-parameter-specialized-to-zero", _set(("cases", 4, "payload", "context", "specialize"), {"d": 0}),
     "/cases/4/payload/context/specialize/d"),
    # Each context spec object is checked once; the e = true twin is another object.
    ("boolean-twin-of-a-checked-context", _flip_twins, "/cases/5/payload/context/specialize/e"),
    # Numbers are ints or field.RATIONAL text. Fraction reads these as 3, 10, 3,
    # 100, 20 and 3/2 ("\u0663" is an Arabic-Indic 3, "\u0662" a 2).
    ("specialized-value-in-another-script", _specialize_e("\u0663"), "/cases/4/payload/context/specialize/e"),
    ("specialized-value-with-an-underscore", _specialize_e("1_0"), "/cases/4/payload/context/specialize/e"),
    ("specialized-value-with-a-blank", _specialize_e(" 3"), "/cases/4/payload/context/specialize/e"),
    ("specialized-value-with-an-exponent", _specialize_e("1e2"), "/cases/4/payload/context/specialize/e"),
    ("criterion-a-in-another-script-with-an-underscore", _criterion({"case": "c4", "a": "\u0662_0"}),
     "/cases/0/payload/a"),
    ("criterion-coefficient-with-a-decimal-point", _criterion({"case": "quadric", "coeffs": [1, "1.5", -1]}),
     "/cases/0/payload/coeffs/1"),
    # Criterion numbers: an int that is not a bool, or RATIONAL text; a and b nonzero.
    ("criterion-quadric-without-coefficients", _criterion({"case": "quadric", "coeffs": []}),
     "/cases/0/payload/coeffs"),
    ("criterion-a-is-a-boolean", _criterion({"case": "c4", "a": True}), "/cases/0/payload/a"),
    ("criterion-coefficient-is-a-boolean", _criterion({"case": "quadric", "coeffs": [True, 1, -1]}),
     "/cases/0/payload/coeffs/0"),
    ("criterion-a-not-a-number", _criterion({"case": "c4", "a": "x"}), "/cases/0/payload/a"),
    ("criterion-coefficient-not-a-number", _criterion({"case": "quadric", "coeffs": [1, 1, "-"]}),
     "/cases/0/payload/coeffs/2"),
    ("criterion-b-divides-by-zero", _criterion({"case": "d4", "a": 2, "b": "1/0"}), "/cases/0/payload/b"),
    ("criterion-a-is-zero", _criterion({"case": "c4", "a": 0}), "/cases/0/payload/a"),
    ("criterion-b-is-zero", _criterion({"case": "d4", "a": 2, "b": "0/3"}), "/cases/0/payload/b"),
    # A case holds only the numbers it reads: c4 reads a, d4 a and b, quadric coeffs.
    ("criterion-c4-with-b-and-coefficients", _criterion({"case": "c4", "a": 5, "b": 5, "coeffs": [1, 2, 3]}),
     "/cases/0/payload/b"),
    ("criterion-d4-with-coefficients", _criterion({"case": "d4", "a": 2, "b": 2, "coeffs": [1, 1]}),
     "/cases/0/payload/coeffs"),
    ("criterion-quadric-with-a", _criterion({"case": "quadric", "coeffs": [1, 1, -2], "a": 3}),
     "/cases/0/payload/a"),
    ("criterion-unknown-case", _criterion({"case": "c8", "a": 2}), "/cases/0/payload/case"),
    ("criterion-case-is-a-list", _criterion({"case": ["c4"], "a": 2}), "/cases/0/payload/case"),
    ("criterion-d4-without-b", _criterion({"case": "d4", "a": 2}), "/cases/0/payload"),
]


def _write(tmp_path, doc) -> str:
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_where_names_that_shadow_nothing_load():
    doc = copy.deepcopy(VALID_DOCUMENT)
    doc["cases"][1]["payload"]["where"] = [["dd", "x1*x2"]]
    doc["cases"][1]["payload"]["forward"]["v"] = "dd"
    doc["cases"][2]["payload"]["where_backward"] = [["x1", "1/y1"]]
    validate_catalog(doc)


@pytest.mark.parametrize("payload", [
    {"case": "c4", "a": "-3/4"},
    {"case": "d4", "a": -1, "b": "2"},
    {"case": "quadric", "coeffs": [0, 1, "-1/2"]},
], ids=["c4-string", "d4-int-and-string", "quadric-with-a-zero"])
def test_criterion_numbers_that_load(payload):
    doc = copy.deepcopy(VALID_DOCUMENT)
    _criterion(payload)(doc)
    validate_catalog(doc)


def test_each_context_spec_object_is_checked_once(monkeypatch):
    from qmi import catalog, catalog_data

    checked = []
    monkeypatch.setattr(catalog, "_check_context", lambda spec, path: checked.append(spec))
    validate_catalog({"groups": catalog_data.GROUPS, "cases": catalog_data.CASES})
    specs = [
        p[key]
        for p in (c["payload"] for c in catalog_data.CASES)
        for key in ("context", "claimed_context", "source", "target")
        if key in p
    ]
    assert len(checked) == len({id(s) for s in specs}) < len(specs)
    assert {id(s) for s in checked} == {id(s) for s in specs}


def test_field_above_the_factoring_bound_is_a_schema_error(tmp_path):
    doc = {"groups": {}, "cases": [copy.deepcopy(VALID_DOCUMENT["cases"][4])]}
    doc["cases"][0]["payload"]["context"]["field"] = "F1000000000000000000000000000057"
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="exceeds the factoring bound") as err:
        load_catalog(_write(tmp_path, doc))
    assert err.value.path == "/cases/0/payload/context/field"
    assert time.perf_counter() - start < 1.0


def test_valid_document_loads_and_passes(tmp_path):
    catalog = load_catalog(_write(tmp_path, VALID_DOCUMENT))
    assert [c.id for c in catalog.cases] == [c["id"] for c in VALID_DOCUMENT["cases"]]
    assert summarize(run_all(catalog))["Pass"] == 5


@pytest.mark.parametrize("change,path", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_document_is_a_schema_error(tmp_path, change, path):
    doc = copy.deepcopy(VALID_DOCUMENT)
    change(doc)
    with pytest.raises(SchemaError) as err:
        load_catalog(_write(tmp_path, doc))
    assert err.value.path == path


# VALID_DOCUMENT and a criterion case with a number as text; mutated below.
FUZZ_DOCUMENT = {
    "groups": VALID_DOCUMENT["groups"],
    "cases": [*VALID_DOCUMENT["cases"], _case("criterion", "RationalityCriterion", {
        "case": "d4", "a": "-3/4", "b": 5, "expect_rational": False})],
}
# Numbers that Fraction reads and field.RATIONAL does not, and other bad leaves.
FUZZ_POOL = ["\u0663", " 3", "1_0", "1.5", "1e2", True, 2.5, "\u0662_0", " 1.5e1 ", 0.1, 2.9,
             None, [], {}, "", 10**40, "cb^13", "1/0"]
FUZZ_KEYS = ["extra", "a", "b", "coeffs", "roots", "specialize", "e", "x1"]


def _slots(node):
    """(container, key) of every leaf below node: a scalar or an empty container."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        if isinstance(node[key], (dict, list)) and node[key]:
            yield from _slots(node[key])
        else:
            yield node, key


def _dicts(node):
    """node and every object below it, depth first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    for value in node if isinstance(node, list) else ():
        yield from _dicts(value)


# Generation only: shrinking dense failing examples can run for many minutes.
@settings(max_examples=200, deadline=None, phases=[Phase.generate], derandomize=True)
@given(data=st.data())
def test_a_mutated_document_loads_or_is_a_schema_error(tmp_path_factory, data):
    """One to three leaves deleted, added or replaced from FUZZ_POOL: the
    document loads or raises SchemaError, and each case of a loaded one
    ends in a status within its timeout."""
    doc = copy.deepcopy(FUZZ_DOCUMENT)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        op = data.draw(st.sampled_from(["add", "delete", "replace"] if slots else ["add"]))
        value = copy.deepcopy(data.draw(st.sampled_from(FUZZ_POOL)))
        if op == "add":
            node = data.draw(st.sampled_from(list(_dicts(doc))))
            node[data.draw(st.sampled_from(FUZZ_KEYS))] = value
            continue
        node, key = data.draw(st.sampled_from(slots))
        if op == "delete":
            del node[key]
        else:
            node[key] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        catalog = load_catalog(str(path))
    except SchemaError:
        return
    for case in catalog.cases:
        start = time.perf_counter()
        assert run_case(catalog, case.id, timeout=2).status in STATUSES
        assert time.perf_counter() - start < 3
