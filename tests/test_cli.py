"""The `qmi` command, run as a separate process through `python -m qmi.cli`."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmi.catalog import builtin_catalog

SRC = Path(__file__).resolve().parent.parent / "src"


def qmi(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qmi.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def flipped_catalog(tmp_path_factory) -> str:
    """A one-case JSON catalog whose claim is false: x1 -> -x1 moves the invariants."""
    case = copy.deepcopy(builtin_catalog().case("lemma_xy_invariance").to_dict())
    case["id"] = "lemma_xy_invariance_flipped"
    case["payload"]["actions"]["flip"]["bindings"]["x1"] = "-x1"
    path = tmp_path_factory.mktemp("catalog") / "flipped.json"
    path.write_text(json.dumps({"groups": {}, "cases": [case]}))
    return str(path)


def test_filtered_builtin_run_passes():
    out = qmi("run", "--filter", "kind=GroupOrder", "--filter", "prefix=order_G_2")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "6 case(s): 6 pass"


def test_flipped_claim_fails_with_the_same_jsonl_for_any_jobs(flipped_catalog):
    runs = [qmi("run", "--catalog", flipped_catalog, "--format", "jsonl", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert [r.returncode for r in runs] == [1, 1]
    serial, pooled = (r.stdout for r in runs)
    assert json.loads(serial)["status"] == "Fail"
    assert pooled == serial


def test_case_that_runs_out_of_time_is_an_error():
    out = qmi("run", "--filter", "id=sys7iii_case1_actg", "--timeout", "0.005")
    assert out.returncode == 2
    assert out.stdout.startswith("ERROR   sys7iii_case1_actg")
    assert "timed out after 0.005s" in out.stdout


def test_list_prints_the_selected_cases():
    out = qmi("list", "--filter", "kind=IsoType")
    assert out.returncode == 0
    ids = [line.split("\t")[0] for line in out.stdout.splitlines()]
    assert ids == [c.id for c in builtin_catalog().select({"kind": "IsoType"})]


def test_show_prints_the_case_and_its_groups():
    out = qmi("show", "order_G_2_1_1")
    assert out.returncode == 0
    record = json.loads(out.stdout)
    assert record["payload"] == {"group": "G_2_1_1", "order": 2}
    assert record["groups"]["G_2_1_1"]["label"] == "C2"


@pytest.mark.parametrize(
    "args",
    [
        ("show", "no_such_case"),
        ("run", "--filter", "colour=red"),
        ("run", "--filter", "prefix"),
        ("list", "--filter", "prefix=no_such_prefix"),
        ("run", "--catalog", "no_such_file.json"),
        ("run", "--timeout", "-5"),
        ("run", "--jobs", "0"),
        ("run", "--jobs", "-2"),
    ],
)
def test_bad_requests_exit_2_with_a_message(args):
    out = qmi(*args)
    assert out.returncode == 2
    assert out.stderr.startswith(f"qmi {args[0]}: ")


def test_malformed_catalog_exits_2_with_the_path(tmp_path):
    case = builtin_catalog().case("order_G_2_1_1").to_dict()
    path = tmp_path / "unknown_group.json"
    path.write_text(json.dumps({"groups": {}, "cases": [case]}))
    out = qmi("run", "--catalog", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmi run: unknown group 'G_2_1_1' [/cases/0/payload/group]")


def test_boolean_group_order_exits_2_with_the_path(tmp_path):
    case = copy.deepcopy(builtin_catalog().case("order_G_2_1_1").to_dict())
    case["payload"]["order"] = True
    group = {"generators": ["la1"], "label": "C2", "system": "2", "star": False}
    path = tmp_path / "boolean_order.json"
    path.write_text(json.dumps({"groups": {"G_2_1_1": group}, "cases": [case]}))
    out = qmi("run", "--catalog", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmi run: order must be a positive integer [/cases/0/payload/order]")


def test_unevaluable_generator_word_exits_2_with_the_path(tmp_path):
    case = builtin_catalog().case("order_G_2_1_1").to_dict()
    path = tmp_path / "unknown_word.json"
    group = {"generators": ["zz"], "label": "C2", "system": "2", "star": False}
    path.write_text(json.dumps({"groups": {"G_2_1_1": group}, "cases": [case]}))
    out = qmi("run", "--catalog", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmi run: unknown matrix name 'zz' [/groups/G_2_1_1/generators/0]")


def test_word_that_does_not_fit_the_context_exits_2_with_the_path(tmp_path):
    case = copy.deepcopy(builtin_catalog().case("lemma_xy_invariance").to_dict())
    case["payload"]["actions"]["flip"] = {"word": "cb"}
    path = tmp_path / "misfit_word.json"
    path.write_text(json.dumps({"groups": {}, "cases": [case]}))
    out = qmi("run", "--catalog", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmi run: word gives a 3x3 matrix")
    assert "[/cases/0/payload/actions/flip/word]" in out.stderr
