"""Case execution: run catalog entries and report outcomes.

A report's status is one of Pass, Fail, Error. Fail means the
mathematical check ran and produced a nonzero witness; Error means the
case never got to a verdict (bad data, a resource cap, a timeout).

Reports keep wall-clock time for humans, but the machine-readable form
omits it so that identical runs serialize to identical bytes no matter
how many workers produced them.

Each catalog has one memo, its attribute `memo`, which goes with it. It
holds the closed MatrixGroup of each group id, the Context of each
context spec, the RatFunc of each (context, text) parsed without a
where-list, and the Automorphism of each (context, action spec); the
binding texts of an action go through the same expression entries, so a
chain step that re-declares its predecessor's claimed tables as actions
reuses their parses. Keys are built from the payload's own strings and
numbers. Where-list parses are not memoized, and a build that raises, or
that a timeout interrupts, stores nothing. This is sound because each
value is a pure function of its key and is never mutated: no code in qmi
writes to a Context, RatFunc, Automorphism or MatrixGroup after building
it. A pool worker gets the catalog by fork or by pickle, memo included
either way. Generator words have no memo entry: catalog.word_matrix
caches them, and validating the catalog evaluated each.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
from itertools import accumulate
from typing import Any, Callable, Mapping, Sequence

from .actions import (
    Automorphism,
    check_identity,
    check_induced_action,
    check_invariance,
    check_inverse_pair,
    orbit_sum,
)
from .catalog import (
    Catalog,
    build_action,
    build_context,
    build_env,
    word_matrix,
)
from .context import Context
from .errors import UnknownCase
from .hilbert import decide_rationality
from .matgroup import (
    close_group,
    identify_iso_type,
    mat,
    q_reducible,
    verify_conjugation,
)
from .parser import parse
from .poly import Poly
from .ratfunc import RatFunc

DEFAULT_TIMEOUT = 60.0

STATUSES = ("Pass", "Fail", "Error")


class VerificationReport:
    """Outcome of running one case."""

    def __init__(
        self,
        case_id: str,
        status: str,
        witness: str | None = None,
        elapsed: float = 0.0,
        source: str = "",
    ) -> None:
        if status not in STATUSES:
            raise ValueError(f"bad status {status!r}")
        if status == "Fail" and not witness:
            raise ValueError("a Fail report must carry a witness")
        self.case_id = case_id
        self.status = status
        self.witness = witness
        self.elapsed = elapsed
        self.source = source

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "case_id": self.case_id,
            "source": self.source,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def __repr__(self) -> str:
        return f"VerificationReport({self.case_id!r}, {self.status!r})"


# -- shared construction helpers ---------------------------------------------


def _memoized(catalog: Catalog, key: tuple, build: Callable[[], Any]) -> Any:
    """The catalog's memo entry for key, made by build() on the first call.

    Nothing is stored when build raises, a timeout included.
    """
    memo = catalog.memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _frozen(value: Any) -> Any:
    """A hashable key of a JSON value: equal keys, equal values of equal types.

    Scalars other than strings carry their type, because 1, 1.0 and True
    are equal and the schema accepts only some of them.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return dict, tuple([(k, _frozen(v)) for k, v in value.items()])
    if isinstance(value, list):
        return tuple([_frozen(v) for v in value])
    return type(value), value


def build_group(catalog: Catalog, gid: str):
    """Close the named generator words into a MatrixGroup, once per catalog.

    The catalog's memo (module docstring) holds the group under its id.
    """

    def build():
        words = catalog.group(gid)["generators"]
        return close_group([word_matrix(w) for w in words])

    return _memoized(catalog, ("group", gid), build)


def _context(catalog: Catalog, spec: Mapping) -> Context:
    return _memoized(catalog, ("context", _frozen(spec)), lambda: build_context(spec))


def _expr(catalog: Catalog, ctx: Context, text: str, env: dict | None = None) -> RatFunc:
    """parse(ctx, text, env); memoized when there is no where-list."""
    if env:
        return parse(ctx, text, env)
    return _memoized(catalog, ("expr", ctx, text), lambda: parse(ctx, text))


def _action(catalog: Catalog, ctx: Context, spec: Mapping) -> Automorphism:
    """build_action(ctx, spec), with binding texts parsed by _expr."""

    def build():
        if "word" in spec:
            return build_action(ctx, spec)
        bindings = {v: _expr(catalog, ctx, text) for v, text in spec["bindings"].items()}
        return Automorphism(ctx, bindings, signs=spec.get("signs"))

    return _memoized(catalog, ("action", ctx, _frozen(spec)), build)


def _mismatch(differs: bool, text: str) -> list[dict]:
    """The one record of a group kind's claim: text when the claim differs."""
    return [{"witness": text}] if differs else []


# -- per-kind checks -----------------------------------------------------------


def _run_invariance(catalog: Catalog, p: Mapping) -> list[dict]:
    ctx = _context(catalog, p["context"])
    env = build_env(ctx, p.get("where"))
    actions = {n: _action(catalog, ctx, s) for n, s in p["actions"].items()}
    exprs = {n: _expr(catalog, ctx, t, env) for n, t in p["exprs"].items()}
    return check_invariance(actions, exprs)


def _run_induced_action(catalog: Catalog, p: Mapping) -> list[dict]:
    ctx = _context(catalog, p["context"])
    env = build_env(ctx, p.get("where"))
    actions = {n: _action(catalog, ctx, s) for n, s in p["actions"].items()}
    cctx = _context(catalog, p["claimed_context"])
    fw_spec = p["forward"]
    forward = None
    if fw_spec is not None:
        forward = {}
        for u, entry in fw_spec.items():
            if isinstance(entry, str):
                forward[u] = _expr(catalog, ctx, entry, env)
            else:
                spec = entry["orbit_sum"]
                seed = _expr(catalog, ctx, spec["of"], env)
                forward[u] = orbit_sum(seed, [actions[n] for n in spec["group"]])
    failures = []
    # One forward map serves every table, so each claimed expression's
    # image under it is computed once per case.
    images = None if forward is None else {}
    for name, table in p["claimed"].items():
        claimed = {u: _expr(catalog, cctx, t) for u, t in table.items()}
        fw = forward if forward is not None else {u: RatFunc.named(ctx, u) for u in table}
        for f in check_induced_action(actions[name], fw, claimed, images):
            failures.append({"action": name, **f})
    return failures


def _run_inverse_pair(catalog: Catalog, p: Mapping) -> list[dict]:
    src = _context(catalog, p["source"])
    tgt = _context(catalog, p["target"])
    env_f = build_env(src, p.get("where_forward"))
    env_b = build_env(tgt, p.get("where_backward"))
    forward = {u: _expr(catalog, src, t, env_f) for u, t in p["forward"].items()}
    backward = {x: _expr(catalog, tgt, t, env_b) for x, t in p["backward"].items()}
    return check_inverse_pair(forward, backward, src, tgt)


def _run_identity(catalog: Catalog, p: Mapping) -> list[dict]:
    ctx = _context(catalog, p["context"])
    env = build_env(ctx, p.get("where"))
    lhs = _expr(catalog, ctx, p["lhs"], env)
    rhs = _expr(catalog, ctx, p["rhs"], env)
    return check_identity(lhs, rhs)


def _run_group_order(catalog: Catalog, p: Mapping) -> list[dict]:
    g = build_group(catalog, p["group"])
    return _mismatch(
        g.order != p["order"], f"closure has order {g.order}, catalog says {p['order']}"
    )


def _run_iso_type(catalog: Catalog, p: Mapping) -> list[dict]:
    label = identify_iso_type(build_group(catalog, p["group"]))
    if label is None:
        return _mismatch(True, f"no built-in model is isomorphic, catalog says {p['label']}")
    return _mismatch(label != p["label"], f"recognized {label}, catalog says {p['label']}")


def _run_normal_subgroups(catalog: Catalog, p: Mapping) -> list[dict]:
    g = build_group(catalog, p["group"])
    computed = [s for s in g.normal_subgroups() if 1 < len(s) < g.order]
    expected = []
    for words in p["subgroups"]:
        mats = [word_matrix(w) for w in words]
        for w, m in zip(words, mats):
            if m not in g:
                # A subgroup of g lies in g: the claim is false, not undecided.
                return _mismatch(True, f"listed generator {w} is not an element of {p['group']}")
        expected.append(g.subgroup(mats))
    expected.sort(key=lambda s: (len(s), s))
    extra = [len(s) for s in computed if s not in expected]
    missing = [len(s) for s in expected if s not in computed]
    return _mismatch(
        computed != expected,
        f"proper nontrivial normal subgroups of orders {[len(s) for s in computed]}, "
        f"catalog lists orders {[len(s) for s in expected]}; "
        f"unlisted orders {extra}, unrealized orders {missing}",
    )


def _run_conjugacy(catalog: Catalog, p: Mapping) -> list[dict]:
    left = build_group(catalog, p["left"])
    right = build_group(catalog, p["right"])
    via = p["via"]
    m = mat(via) if isinstance(via, list) else word_matrix(via)
    return _mismatch(
        not verify_conjugation(left, right, m),
        f"conjugation by {via} does not carry {p['left']} onto {p['right']}",
    )


def _run_q_reducibility(catalog: Catalog, p: Mapping) -> list[dict]:
    got, _ = q_reducible(build_group(catalog, p["group"]))
    return _mismatch(
        got != p["reducible"],
        f"representation is {'' if got else 'ir'}reducible over Q, "
        f"catalog says {'' if p['reducible'] else 'ir'}reducible",
    )


def _run_rationality(catalog: Catalog, p: Mapping) -> list[dict]:
    verdict = decide_rationality(p["case"], a=p.get("a"), b=p.get("b"), coeffs=p.get("coeffs"))
    return _mismatch(
        verdict.rational != p["expect_rational"],
        f"decided {'rational' if verdict.rational else 'not rational'}, "
        f"catalog expects the opposite; {verdict.criterion}",
    )


_DISPATCH = {
    "Invariance": _run_invariance,
    "InducedAction": _run_induced_action,
    "InversePair": _run_inverse_pair,
    "Identity": _run_identity,
    "GroupOrder": _run_group_order,
    "IsoType": _run_iso_type,
    "NormalSubgroups": _run_normal_subgroups,
    "Conjugacy": _run_conjugacy,
    "QReducibility": _run_q_reducibility,
    "RationalityCriterion": _run_rationality,
}

_WITNESS_LIMIT = 400
_WITNESS_CAP = 2000


def _format_failures(failures: Sequence[Mapping]) -> str:
    """The witness text of a Fail; no other code writes one.

    A record reads "key value, ...: witness" over its labels; a message
    string stands as it is. A difference Poly is written term by term in
    printer order until the text passes _WITNESS_LIMIT, then cut to its
    first _WITNESS_LIMIT - 3 characters and "...". A coefficient str()
    refuses (past sys.get_int_max_str_digits()) is written by its size.
    The records join with " ;; ", cut the same way at _WITNESS_CAP.
    """
    from .printer import term_texts  # here: a run with no Fail never loads it

    def cut(text: str, limit: int) -> str:
        return text if len(text) <= limit else text[: limit - 3] + "..."

    def number(c) -> str:
        try:
            return str(c)
        except ValueError:
            ends = (c.numerator, c.denominator) if c.denominator > 1 else (c,)
            return "/".join(f"<{k.bit_length()}-bit integer>" for k in ends)

    parts = []
    for f in failures:
        witness = f["witness"]
        if isinstance(witness, Poly):
            for witness in accumulate(term_texts(f["witness"], number)):
                if len(witness) > _WITNESS_LIMIT:
                    break
            witness = cut(witness, _WITNESS_LIMIT)
        head = ", ".join(f"{k} {v}" for k, v in f.items() if k != "witness")
        parts.append(f"{head}: {witness}" if head else witness)
    return cut(" ;; ".join(parts), _WITNESS_CAP)


# -- running -------------------------------------------------------------------


class _Timeout(Exception):
    pass


def _check_limits(timeout: float | None, jobs: int = 1) -> None:
    """ValueError unless timeout is None or a finite number of seconds >= 0
    (None and 0 mean no limit), jobs is at least 1, and a nonzero timeout
    with jobs == 1 runs on the main thread, the only one that can arm the
    alarm."""
    if timeout is not None and not 0 <= timeout < math.inf:
        raise ValueError(f"timeout must be a finite number of seconds >= 0, got {timeout:g}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if timeout and jobs == 1 and threading.current_thread() is not threading.main_thread():
        raise ValueError("a timeout is armed by an alarm, which only the main thread can set")


def _call_with_timeout(fn, seconds: float | None):
    """Run fn under a real-time alarm (the main thread's; see _check_limits)."""
    if not seconds:
        return fn()

    def on_alarm(signum, frame):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_case(
    catalog: Catalog, case_id: str, timeout: float | None = DEFAULT_TIMEOUT
) -> VerificationReport:
    """Run one case by id.

    Raises UnknownCase for an id not in the catalog, and ValueError for a
    negative or non-finite timeout and for a nonzero timeout off the main
    thread, where no alarm can be armed.
    """
    _check_limits(timeout)
    case = catalog.case(case_id)
    start = time.perf_counter()
    try:
        failures = _call_with_timeout(lambda: _DISPATCH[case.kind](catalog, case.payload), timeout)
        status, witness = ("Fail", _format_failures(failures)) if failures else ("Pass", None)
    except _Timeout:
        status = "Error"
        witness = f"timed out after {timeout:g}s"
    except UnknownCase:
        raise
    except Exception as exc:
        status = "Error"
        witness = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return VerificationReport(case.id, status, witness, elapsed, case.source)


_WORKER_CATALOG: Catalog | None = None


def _init_worker(catalog: Catalog) -> None:
    global _WORKER_CATALOG
    _WORKER_CATALOG = catalog


def _worker_run(case_id: str, timeout: float | None) -> VerificationReport:
    assert _WORKER_CATALOG is not None
    return run_case(_WORKER_CATALOG, case_id, timeout)


def run_all(
    catalog: Catalog,
    filters: Mapping[str, str] | None = None,
    jobs: int = 1,
    timeout: float | None = DEFAULT_TIMEOUT,
) -> list[VerificationReport]:
    """Run every case matching the filters, reports in catalog order.

    The report list is the same for any jobs value; only wall-clock
    times differ. Raises ValueError for jobs < 1, for a negative or
    non-finite timeout, and for a nonzero timeout with jobs == 1 off the
    main thread; pool workers arm the alarm on their own main threads.
    """
    _check_limits(timeout, jobs)
    cases = catalog.select(filters)
    if jobs == 1:
        return [run_case(catalog, c.id, timeout) for c in cases]
    # Imported here: multiprocessing is most of the package's import time.
    from concurrent.futures import ProcessPoolExecutor

    # The catalog itself travels to the workers: payload dict order, which
    # orders multi-failure witnesses, must survive the trip.
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(catalog,)
    ) as pool:
        futures = [pool.submit(_worker_run, c.id, timeout) for c in cases]
        return [f.result() for f in futures]


# -- report serialization --------------------------------------------------------


def summarize(reports: Sequence[VerificationReport]) -> dict[str, int]:
    out = {s: 0 for s in STATUSES}
    for r in reports:
        out[r.status] += 1
    return out


def to_jsonl(reports: Sequence[VerificationReport]) -> str:
    """One JSON object per line, deterministic bytes for a given outcome."""
    return "".join(
        json.dumps(r.to_json(), sort_keys=True) + "\n" for r in reports
    )


def to_text(reports: Sequence[VerificationReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"{r.status.upper():<7} {r.case_id}  [{r.elapsed:.3f}s]")
        if r.status in ("Fail", "Error"):
            lines.append(f"        note: {r.source}")
            lines.append(f"        witness: {r.witness}")
    counts = summarize(reports)
    total = len(reports)
    lines.append(
        f"{total} case(s): "
        + ", ".join(f"{v} {k.lower()}" for k, v in counts.items() if v)
    )
    return "\n".join(lines) + "\n"


def exit_code(reports: Sequence[VerificationReport]) -> int:
    """0 all passed, 1 at least one Fail, 2 at least one Error."""
    counts = summarize(reports)
    if counts["Error"]:
        return 2
    if counts["Fail"]:
        return 1
    return 0
