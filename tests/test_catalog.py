"""The paper's claims: every builtin case must verify.

The full run is the reproduction itself, so it is not sampled. The jobs
check uses a false claim whose witness lists several failures, because
their order is the part of the report a worker pool could disturb.
"""

from __future__ import annotations

import copy

from qmi.catalog import Catalog, CaseRecord, builtin_catalog
from qmi.runner import run_all, summarize, to_jsonl


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
