"""Per-layer attribution for the catalog benchmark, from outside the program.

A Tracer wraps public `qmi` functions at runtime, in the benchmark's own
process, and counts calls, self time and a few layer counters. Nothing
under `src/` is changed. A function is wrapped everywhere it is looked
up: every `qmi` module whose namespace holds the original object gets
the wrapper (the runner imports `close_action`, actions imports
`substitute_raw`, ratfunc imports `poly_gcd`, and `_model_fingerprints`
looks up `close_group` in matgroup). Methods are wrapped on their class.

Self time is a span's duration minus the time covered by the traced
spans it caused. Each wrapped `run_case` attaches the stats of its own
case to the report (`report.layer_stats`); the attribute travels with
the pickled report, so a process pool started by fork reports its
workers' layers as well.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, qualified name) of every traced function.
TARGETS = (
    ("gcd", "poly_gcd"),
    ("gcd", "exact_div"),
    ("actions", "close_action"),
    ("actions", "Automorphism.compose"),
    ("poly", "Poly.__mul__"),
    ("ratfunc", "substitute_raw"),
    ("actions", "check_invariance"),
    ("actions", "check_induced_action"),
    ("actions", "check_inverse_pair"),
    ("actions", "check_identity"),
    ("matgroup", "close_group"),
    ("matgroup", "identify_iso_type"),
    ("matgroup", "MatrixGroup.normal_subgroups"),
    ("matgroup", "q_reducible"),
    ("matgroup", "verify_conjugation"),
    ("parser", "parse"),
    ("catalog", "build_action"),
    ("catalog", "build_env"),
    ("hilbert", "decide_rationality"),
    ("runner", "run_case"),
)

LAYERS = tuple(f"{mod}.{name}" for mod, name in TARGETS)

# Counters that hold a running maximum instead of a sum.
MAX_KEYS = ("poly.Poly.__mul__.max_product_terms",)


def _count_mul(stats, args, result):
    a, b = args
    stats["poly.Poly.__mul__.term_pairs"] += len(a.terms) * len(b.terms)
    n = len(result.terms)
    if n > stats["poly.Poly.__mul__.max_product_terms"]:
        stats["poly.Poly.__mul__.max_product_terms"] = n


def _count_gcd(stats, args, result):
    if result.is_one():
        stats["gcd.poly_gcd.trivial"] += 1


def _count_closure(stats, args, result):
    stats["actions.close_action.elements"] += len(result)


COUNTERS = {
    "poly.Poly.__mul__": (_count_mul, ("term_pairs", "max_product_terms")),
    "gcd.poly_gcd": (_count_gcd, ("trivial",)),
    "actions.close_action": (_count_closure, ("elements",)),
}


class Tracer:
    """Installs and removes the wrappers; holds the running totals."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter
        k_calls, k_self = layer + ".calls", layer + ".self_s"
        stats[k_calls] = 0
        stats[k_self] = 0.0
        count = None
        if layer in COUNTERS:
            count, names = COUNTERS[layer]
            for n in names:
                stats[f"{layer}.{n}"] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stats[k_self] += t1 - t0 - stack.pop()
                stats[k_calls] += 1
                if stack:
                    stack[-1] += t1 - t_in
            if count is not None:
                count(stats, args, result)
            return result

        return traced

    def _wrap_run_case(self, traced):
        tracer = self

        @functools.wraps(traced)
        def run_case(*args, **kwargs):
            before = dict(tracer.stats)
            report = traced(*args, **kwargs)
            report.layer_stats = tracer.delta(before)
            report.layer_stats["main_thread"] = (
                threading.current_thread() is threading.main_thread()
            )
            return report

        return run_case

    def install(self) -> None:
        import qmi.runner  # noqa: F401  (loads every traced module)

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "qmi" or name.startswith("qmi.")
        ]
        for mod_name, qual in TARGETS:
            layer = f"{mod_name}.{qual}"
            owner = sys.modules[f"qmi.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(layer, original))
                continue
            original = getattr(owner, qual)
            wrapper = self._wrap(layer, original)
            if layer == "runner.run_case":
                wrapper = self._wrap_run_case(wrapper)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, obj, attr: str, wrapper) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def delta(self, before: dict[str, float]) -> dict[str, float]:
        return {
            k: v if k in MAX_KEYS else v - before.get(k, 0)
            for k, v in self.stats.items()
        }


def merge(per_case: list[dict]) -> dict[str, float]:
    """Sum per-case layer stats (running maxima are combined by max)."""
    out: dict[str, float] = {}
    for stats in per_case:
        for k, v in stats.items():
            if k == "main_thread":
                continue
            if k in MAX_KEYS:
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


def layer_metrics(totals: dict[str, float], busy_s: float, wall_s: float,
                  jobs: int) -> dict[str, float]:
    """Per-layer metric values of one traced pass.

    busy_s is the summed case time of the pass, wall_s its wall time.
    """
    def get(key):
        return totals.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = get(f"{layer}.calls")
        out[f"{layer}.self_s"] = get(f"{layer}.self_s")
    mul = "poly.Poly.__mul__"
    out[f"{mul}.term_pairs"] = get(f"{mul}.term_pairs")
    out[f"{mul}.max_product_terms"] = get(f"{mul}.max_product_terms")
    out[f"{mul}.term_pairs_per_s"] = ratio(get(f"{mul}.term_pairs"), get(f"{mul}.self_s"))
    out[f"{mul}.self_share"] = ratio(get(f"{mul}.self_s"), busy_s)
    out["gcd.poly_gcd.trivial_share"] = ratio(get("gcd.poly_gcd.trivial"), get("gcd.poly_gcd.calls"))
    out["gcd.poly_gcd.self_share"] = ratio(get("gcd.poly_gcd.self_s"), busy_s)
    out["actions.close_action.elements"] = get("actions.close_action.elements")
    out["actions.close_action.elements_per_compose"] = ratio(
        get("actions.close_action.elements"), get("actions.Automorphism.compose.calls")
    )
    out["runner.pool.busy_share"] = ratio(busy_s, jobs * wall_s)
    return out
