"""Checks of the catalog benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection:
the traced runs of `closure` and `products` take about two minutes on a
2-core box.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import LAYERS  # noqa: E402

from qmi.catalog import Catalog, builtin_catalog  # noqa: E402
from qmi.poly import Poly  # noqa: E402
from qmi.runner import run_all, run_case, to_jsonl  # noqa: E402

# Layers each workload is meant to exercise.
EXERCISED = {
    "closure": [
        "gcd.poly_gcd", "gcd.exact_div", "actions.close_action",
        "actions.Automorphism.compose", "poly.Poly.__mul__",
        "ratfunc.substitute_raw", "actions.check_induced_action",
    ],
    "products": [
        "poly.Poly.__mul__", "ratfunc.substitute_raw",
        "actions.check_induced_action", "actions.check_inverse_pair",
    ],
    "catalog-light": [
        "matgroup.close_group", "matgroup.identify_iso_type",
        "matgroup.MatrixGroup.normal_subgroups", "matgroup.q_reducible",
        "matgroup.verify_conjugation", "parser.parse", "catalog.build_action",
        "catalog.build_env", "hilbert.decide_rationality",
        "actions.check_invariance", "actions.check_identity", "runner.run_case",
    ],
    "catalog-light-jobs2": [
        "matgroup.identify_iso_type", "poly.Poly.__mul__", "runner.run_case",
    ],
}
ALGEBRAIC_KINDS = ("Invariance", "InducedAction", "InversePair", "Identity")


def bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def traced():
    """Last-line results of one traced run per workload."""
    out = {}
    for name in W.WORKLOADS:
        code, lines = bench("--workload", name, "--seed", "11", "--seconds", "1", "--trace", "1")
        assert code == 0, lines
        out[name] = json.loads(lines[-1])
    return out


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_traced_run_is_correct_and_exercises_its_layers(traced, name):
    # correct covers: every verdict is the known answer, and the traced
    # passes give the same to_jsonl bytes as the untraced one.
    result = traced[name]
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for layer in EXERCISED[name]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer


def test_closure_only_on_closure(traced):
    for name in ("products", "catalog-light", "catalog-light-jobs2"):
        assert traced[name]["metrics"]["actions.close_action.calls"]["value"] == 0


def test_every_layer_is_exercised_somewhere(traced):
    for layer in LAYERS:
        assert any(r["metrics"][f"{layer}.calls"]["value"] > 0 for r in traced.values()), layer


def test_metric_names_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(W.BENCHMARKED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {n: m["unit"] for n, m in traced["closure"]["metrics"].items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units


def test_untraced_run_reports_every_end_to_end_metric():
    code, lines = bench("--workload", "catalog-light", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "closure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_scales_to_the_reference():
    assert probe.speed([]) == 1.0
    assert probe.speed([2 * probe.PROBE_REF_S] * 3) == 0.5


def test_seed_fixes_the_inputs():
    base = builtin_catalog()
    for name in W.WORKLOADS:
        a, exp_a = W.build(name, 3, base)
        b, exp_b = W.build(name, 3, base)
        assert a == b and exp_a == exp_b
    c, _ = W.build("catalog-light", 4, base)
    assert [x.id for x in c.cases] != [x.id for x in a.cases]
    assert builtin_catalog() == base  # controls are built from deep copies


def test_light_controls_cover_every_kind():
    catalog, expected = W.build("catalog-light", 8)
    kinds = {c.kind for c in catalog.cases if expected[c.id] == "Fail"}
    assert kinds == {c.kind for c in catalog.cases if expected[c.id] == "Pass"}


def test_every_light_perturbation_fails():
    """Whatever the seed picks, a control must come out Fail with a witness."""
    base = builtin_catalog()
    labels = sorted({g["label"] for g in base.groups.values()})
    bad = []
    for case in base.cases:
        if case.id in W.SLOW_CASES or case.id in W.HEAVY_CASES:
            continue
        for n, (desc, payload) in enumerate(W.perturbations(case, labels)):
            control = W._control(case, n, desc, payload)
            report = run_case(Catalog(base.groups, [control]), control.id)
            if report.status != "Fail" or not report.witness:
                bad.append((case.id, desc, report.status))
    assert not bad


@pytest.mark.xfail(strict=True, reason=(
    "qmi orders a multi-failure witness by payload dict order, and run_all(jobs>1) "
    "ships the catalog through serialize_catalog, which sorts the keys"))
def test_witness_bytes_do_not_depend_on_jobs():
    base = builtin_catalog()
    case = base.case("lemma_xy_invariance")
    desc, payload = W.perturbations(case, [])[0]  # flip: x1 breaks xn and x1fix
    control = W._control(case, 0, desc, payload)
    catalog = Catalog(base.groups, [control])
    assert to_jsonl(run_all(catalog, jobs=1)) == to_jsonl(run_all(catalog, jobs=2))


@pytest.mark.parametrize("name", ["closure", "products", "catalog-light"])
def test_is_zero_always_true_trips_the_gate(monkeypatch, name):
    monkeypatch.setattr(Poly, "is_zero", lambda self: True)
    result = W.run_pass(name, 2)
    catalog, expected = W.build(name, 2)
    algebraic = {c.id for c in catalog.cases
                 if expected[c.id] == "Fail" and c.kind in ALGEBRAIC_KINDS}
    assert algebraic and algebraic <= set(result["wrong"])
