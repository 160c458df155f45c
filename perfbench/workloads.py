"""Workloads of the catalog benchmark, and one timed pass of a workload.

Run as a script, this file is one pass in a fresh interpreter:

    PYTHONPATH=src python3 perfbench/workloads.py <workload> <seed> <trace 0|1>
    PYTHONPATH=src python3 perfbench/workloads.py --setup

and prints one JSON line. A fresh interpreter per pass means every pass
pays what a `qmi run` user pays: the per-catalog group cache and the
first-use fingerprint models of `identify_iso_type`.

The seed sets the case order and picks each negative control's
perturbation; `qmi` only receives the resulting cases. Cases run closed
loop, one at a time, through `run_case` on the main thread, so the
per-case alarm timeout is armed. `catalog-light-jobs2` is the exception:
it goes through `run_all(jobs=2)`.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import sys
import threading
import time

from probe import probed, speed, time_snippet
from tracer import Tracer, layer_metrics, merge

_T0 = time.perf_counter()
from qmi.catalog import Catalog, CaseRecord, builtin_catalog  # noqa: E402
from qmi import runner  # noqa: E402

# The workloads BENCHMARK.json lists. catalog-light-jobs2 is run by hand
# only: a qmi defect (see README.md) fails its bytes gate on some seeds.
BENCHMARKED = ("closure", "products", "catalog-light")
WORKLOADS = BENCHMARKED + ("catalog-light-jobs2",)
JOBS = 2  # nproc of the reference box

# The only case that calls close_action (through its orbit sum): gcd-bound.
CLOSURE_CASES = ("sys7iii_case1_actg",)
# Multiplication-bound: many mid-size products, and a few huge ones.
PRODUCT_CASES = ("sys7iii_case1_vt", "sys7iii_case1_tact")

HEAVY_CASES = CLOSURE_CASES + PRODUCT_CASES

# Light cases that took over 40 ms each on the reference box. They are
# never turned into controls, so that the seed does not move the cost of
# a catalog-light pass.
SLOW_CASES = frozenset({
    "prop1_4_st", "prop1_1_v", "prop1_1_t", "prop1_1_st", "prop1_3_p",
    "prop1_3_vp", "sys7iii_case1_pp", "sys7iii_case1_v", "sys7iii_case1_t1",
    "sys7iii_case1_t2", "sys7iii_case1_t3", "iso_G_7_5_1", "iso_G_7_5_2",
    "iso_G_7_5_3",
})


def _copy(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def _neg(text: str) -> str:
    return f"-({text})"


def perturbations(case: CaseRecord, labels: list[str]) -> list[tuple[str, dict]]:
    """Every (description, payload) that turns a true claim into a false one.

    Each payload is a deep copy made through JSON, so that a table the
    catalog shares between two claims is flipped in one of them only.
    """
    kind, base = case.kind, case.payload
    out = []

    def variant(desc, path, change):
        p = _copy(base)
        node = p
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        out.append((desc, p))

    if kind == "InducedAction":
        for a, table in base["claimed"].items():
            for u in table:
                variant(f"flip the sign of claimed {a}: {u}", ("claimed", a, u), _neg)
    elif kind == "InversePair":
        for x in base["backward"]:
            variant(f"flip the sign of backward {x}", ("backward", x), _neg)
    elif kind == "Identity":
        variant("flip the sign of the right-hand side", ("rhs",), _neg)
    elif kind == "Invariance":
        for a, spec in base["actions"].items():
            for v in spec.get("bindings", {}):
                variant(f"flip the sign of binding {a}: {v}", ("actions", a, "bindings", v), _neg)
    elif kind == "GroupOrder":
        variant("order off by one", ("order",), lambda n: n + 1)
    elif kind == "IsoType":
        for label in labels:
            if label != base["label"]:
                variant(f"swap the iso label to {label}", ("label",), lambda _, new=label: new)
    elif kind == "NormalSubgroups":
        for i in range(len(base["subgroups"])):
            variant(f"drop listed subgroup {i}", ("subgroups",),
                    lambda subs, i=i: subs[:i] + subs[i + 1:])
    elif kind == "Conjugacy":
        for r in range(3):
            for c in range(3):
                variant(f"conjugator entry ({r},{c}) plus one", ("via", r, c), lambda v: v + 1)
    elif kind == "QReducibility":
        variant("negate reducible", ("reducible",), lambda b: not b)
    elif kind == "RationalityCriterion":
        variant("negate expect_rational", ("expect_rational",), lambda b: not b)
    return out


def _control(case: CaseRecord, n: int, desc: str, payload: dict) -> CaseRecord:
    return CaseRecord(f"negative_control_{n}_{case.id}", case.kind, case.section,
                      f"negative control: {desc}", payload)


def light_controls(base: Catalog, rng: random.Random) -> list[CaseRecord]:
    """One control per kind, from a light case the seed picks."""
    labels = sorted({g["label"] for g in base.groups.values()})
    pools: dict[str, list] = {}
    for c in base.cases:
        if c.id not in SLOW_CASES and c.id not in HEAVY_CASES:
            options = perturbations(c, labels)
            if options:
                pools.setdefault(c.kind, []).append((c, options))
    controls = []
    for n, kind in enumerate(sorted(pools)):
        case, options = rng.choice(pools[kind])
        desc, payload = rng.choice(options)
        controls.append(_control(case, n, desc, payload))
    return controls


def closure_control(base: Catalog, rng: random.Random) -> CaseRecord:
    """actg restricted to one generator: the orbit sum runs close_action on
    the cyclic group of `cb`, and its products are as large as the full
    case's (about 8,000 term pairs at most)."""
    case = base.case("sys7iii_case1_actg")
    p = _copy(case.payload)
    p["forward"]["p1"]["orbit_sum"]["group"] = ["cb"]
    table = p["claimed"]["cb"]
    u = rng.choice(sorted(table))
    table[u] = _neg(table[u])
    p["claimed"] = {"cb": table}
    return _control(case, 0, f"one generator (cb), flip the sign of claimed cb: {u}", p)


def products_control(base: Catalog, rng: random.Random) -> CaseRecord:
    """tact restricted to one generator, whose products are as large as the
    full case's (1.6 million term pairs at most)."""
    case = base.case("sys7iii_case1_tact")
    p = _copy(case.payload)
    a = "cb"
    table = p["claimed"][a]
    u = rng.choice(sorted(table))
    table[u] = _neg(table[u])
    p["actions"] = {a: p["actions"][a]}
    p["claimed"] = {a: table}
    return _control(case, 0, f"one generator ({a}), flip the sign of claimed {a}: {u}", p)


def build(name: str, seed: int, base: Catalog | None = None) -> tuple[Catalog, dict[str, str]]:
    """The workload's catalog, in seeded order, and each case's known answer."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    base = base if base is not None else builtin_catalog()
    rng = random.Random(seed)
    if name == "closure":
        real = [base.case(i) for i in CLOSURE_CASES]
        controls = [closure_control(base, rng)]
    elif name == "products":
        real = [base.case(i) for i in PRODUCT_CASES]
        controls = [products_control(base, rng)]
    else:
        real = [c for c in base.cases if c.id not in HEAVY_CASES]
        controls = light_controls(base, rng)
    cases = real + controls
    rng.shuffle(cases)
    expected = {c.id: "Pass" for c in real}
    expected.update({c.id: "Fail" for c in controls})
    return Catalog(base.groups, cases), expected


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that has
    at least ten samples beyond it; the maximum when there are too few."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def run_pass(name: str, seed: int, trace: bool = False, base: Catalog | None = None) -> dict:
    """Run every case of one workload once and return its figures.

    Untraced, times are scaled to the reference box (see probe.py); the
    measured wall time is kept as wall_raw_s.
    """
    catalog, expected = build(name, seed, base)
    jobs = JOBS if name == "catalog-light-jobs2" else 1
    tracer = Tracer() if trace else None
    plain_run_case = runner.run_case
    if tracer is not None:
        tracer.install()
    else:
        runner.run_case = probed(plain_run_case)
    try:
        start = time.perf_counter()
        if jobs > 1:
            reports = runner.run_all(catalog, jobs=jobs)
        else:
            reports = [runner.run_case(catalog, c.id) for c in catalog.cases]
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            runner.run_case.stop()
            runner.run_case = plain_run_case
    who = resource.RUSAGE_CHILDREN if jobs > 1 else resource.RUSAGE_SELF
    wrong = [r.case_id for r in reports if r.status != expected[r.case_id]]
    probes = [getattr(r, "probe_samples", []) for r in reports]
    k = speed([t for p in probes for t in p])
    wall_net = wall - sum(map(sum, probes)) / jobs
    elapsed = [(r.elapsed - sum(p)) * k for r, p in zip(reports, probes)]
    jsonl = runner.to_jsonl(reports)
    tail_s, tail_pct, tail_beyond = tail(elapsed)
    out = {
        "workload": name,
        "seed": seed,
        "jobs": jobs,
        "wall_s": wall_net * k,
        "wall_raw_s": wall,
        "wall_net_s": wall_net,
        "speed": k,
        "case_p50_s": statistics.median(elapsed),
        "case_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "tail_beyond": tail_beyond,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": len(reports),
        "wrong": wrong,
        "controls": sum(1 for v in expected.values() if v == "Fail"),
        "jsonl_sha256": hashlib.sha256(jsonl.encode()).hexdigest(),
        "timeout_s": runner.DEFAULT_TIMEOUT,
        # Off the main thread run_case silently runs without a limit. Pool
        # workers cannot be observed untraced, hence None there.
        "timeout_armed": (threading.current_thread() is threading.main_thread()
                          if jobs == 1 else None),
    }
    if tracer is not None:
        per_case = [getattr(r, "layer_stats", None) for r in reports]
        traced = [s for s in per_case if s is not None]
        out["untraced_cases"] = len(per_case) - len(traced)
        out["timeout_armed"] = bool(traced) and all(s["main_thread"] for s in traced)
        out["layers"] = layer_metrics(merge(traced), sum(elapsed), wall, jobs)
    return out


def main(argv: list[str]) -> int:
    base = builtin_catalog()
    setup = time.perf_counter() - _T0
    # Set-up is too short to probe inside; probe right after it instead.
    figures = {"setup_raw_s": setup,
               "setup_s": setup * speed([time_snippet() for _ in range(25)])}
    if argv == ["--setup"]:
        print(json.dumps(figures))
        return 0
    name, seed, trace = argv
    out = run_pass(name, int(seed), trace == "1", base)
    out.update(figures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
