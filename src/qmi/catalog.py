"""Claim catalog: verification targets stored as data.

A Catalog holds two things. First, a table of named integer matrix
groups (generators given as words over MATRICES, a fixed alphabet of
named 3x3 matrices) with their expected structure labels. Second, an
ordered list of CaseRecords, each a self-contained verifiable claim: an
invariance statement, an induced-action table, a mutually-inverse
substitution pair, a plain identity, a group fact, or a
rationality-criterion instance.

word_matrix is the one reader of word notation, and caches by word. The
schema check evaluates every word with it, so once a catalog is loaded
each use of one of its words is a cache lookup.

Expressions are stored as strings in the toolkit grammar rather than as
trees, so a catalog file can be audited line by line against its source
material. Every case carries a `source` string saying, in words, which
displayed claim it encodes.

_PAYLOAD_KEYS states, per kind, the keys its payload may hold, and
_GROUP_KEYS which of them name a group; KINDS, the groups a case uses
(and so the "group" filter) derive from these two tables. Which of a, b
and coeffs a RationalityCriterion case reads is hilbert.CRITERIA, the
table decide_rationality reads.
validate_catalog runs the checks shared by key (contexts, group
references, actions, where-lists) before the checks unique to a kind,
and reports a JSON-pointer-ish path with every complaint.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from typing import Any, Mapping, Sequence

from .catalog_data import MATRICES
from .context import _NAME_RE, NAME, Context, ContextError, check_symbols
from .errors import SchemaError, UnknownCase
from .field import INT, field_from_name, read_rational
from .hilbert import CRITERIA
from .matgroup import MAX_ORDER, Matrix, identity, mat, mat_mul, mat_neg

_PAYLOAD_KEYS = {
    "Invariance": {"context", "actions", "exprs", "where"},
    "InducedAction": {"context", "actions", "forward", "claimed", "claimed_context", "where"},
    "InversePair": {"source", "target", "forward", "backward", "where_forward", "where_backward"},
    "Identity": {"context", "lhs", "rhs", "where"},
    "GroupOrder": {"group", "order"},
    "IsoType": {"group", "label"},
    "NormalSubgroups": {"group", "subgroups"},
    "Conjugacy": {"left", "right", "via"},
    "QReducibility": {"group", "reducible"},
    "RationalityCriterion": {"case", "a", "b", "coeffs", "expect_rational"},
}

_GROUP_KEYS = {
    "GroupOrder": ("group",),
    "IsoType": ("group",),
    "NormalSubgroups": ("group",),
    "Conjugacy": ("left", "right"),
    "QReducibility": ("group",),
}

KINDS = tuple(_PAYLOAD_KEYS)


class CaseRecord:
    """One verifiable claim."""

    __slots__ = ("id", "kind", "section", "source", "payload")

    def __init__(self, id: str, kind: str, section: str, source: str, payload: dict) -> None:
        self.id = id
        self.kind = kind
        self.section = section
        self.source = source
        self.payload = payload

    def to_dict(self) -> dict:
        """A deep copy: editing it leaves the catalog's payloads alone."""
        import copy  # only `qmi show` needs it; kept off the import path

        return copy.deepcopy({
            "id": self.id,
            "kind": self.kind,
            "section": self.section,
            "source": self.source,
            "payload": self.payload,
        })

    def groups_used(self) -> list[str]:
        return [self.payload[key] for key in _GROUP_KEYS.get(self.kind, ())]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CaseRecord) and (
            self.id, self.kind, self.section, self.source, self.payload
        ) == (other.id, other.kind, other.section, other.source, other.payload)

    def __repr__(self) -> str:
        return f"CaseRecord({self.id!r}, {self.kind})"


class Catalog:
    """Immutable bundle of groups and cases."""

    def __init__(self, groups: Mapping[str, dict], cases: Sequence[CaseRecord]) -> None:
        self.groups = dict(groups)
        self.cases = list(cases)
        self.by_id = {c.id: c for c in self.cases}
        self.memo: dict = {}  # runner._memoized's; not part of equality

    def case(self, case_id: str) -> CaseRecord:
        try:
            return self.by_id[case_id]
        except KeyError:
            raise UnknownCase(f"no case named {case_id!r}") from None

    def group(self, group_id: str) -> dict:
        try:
            return self.groups[group_id]
        except KeyError:
            raise UnknownCase(f"no group named {group_id!r}") from None

    def select(self, filters: Mapping[str, str] | None = None) -> list[CaseRecord]:
        """Cases matching every given filter, in catalog order.

        Keys: kind, section, group (any group the case references),
        id (exact), prefix (id prefix).
        """
        if not filters:
            return list(self.cases)
        for key in filters:
            if key not in _FILTERS:
                raise ValueError(
                    f"unknown filter key {key!r}; known keys: {', '.join(_FILTERS)}"
                )
        return [
            c for c in self.cases
            if all(_FILTERS[key](c, want) for key, want in filters.items())
        ]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Catalog)
            and self.groups == other.groups
            and self.cases == other.cases
        )


_FILTERS = {
    "kind": lambda c, want: c.kind == want,
    "section": lambda c, want: c.section == want,
    "group": lambda c, want: want in c.groups_used(),
    "id": lambda c, want: c.id == want,
    "prefix": lambda c, want: c.id.startswith(want),
}


# -- matrix words ------------------------------------------------------------

_FACTOR_RE = re.compile(rf"(-?)({NAME}|1)(?:\^({INT}))?")


@lru_cache(maxsize=1024)
def word_matrix(word: str) -> Matrix:
    """The matrix of a generator word over MATRICES; the only reader of words.

    Grammar: '*'-joined factors, each [-](NAME|1)[^k] matched whole, with
    NAME and the integer k the parser's tokens (context.NAME, field.INT)
    and 1 <= k <= MAX_ORDER (a higher power of a finite-order name repeats
    a lower one); "1" is the 3x3 identity. The leading '-' negates the
    powered factor: "-x^2" is -(x^2), not (-x)^2. Raises ValueError for a
    word it cannot evaluate. Cached by word (the builtin catalog states
    449 words, 31 distinct); a Matrix is immutable.
    """
    acc: Matrix | None = None
    for factor in map(str.strip, word.split("*")):
        match = _FACTOR_RE.fullmatch(factor)
        if match is None:
            raise ValueError(f"bad word factor {factor!r}")
        neg, base, exp = match.groups()
        k = int(exp or 1)
        if not 1 <= k <= MAX_ORDER:
            raise ValueError(f"bad exponent in word factor {factor!r}")
        if base != "1" and base not in MATRICES:
            raise ValueError(f"unknown matrix name {base!r}")
        m = identity(3) if base == "1" else mat(MATRICES[base])
        step = m
        for _ in range(k - 1):
            step = mat_mul(step, m)
        if neg:
            step = mat_neg(step)
        acc = step if acc is None else mat_mul(acc, step)
    return acc


# -- construction helpers (used by the runner) --------------------------------


def build_context(spec: Mapping[str, Any]) -> Context:
    return Context(
        field_from_name(spec.get("field", "Q")),
        variables=spec.get("variables", ()),
        parameters=spec.get("parameters", ()),
        roots=spec.get("roots", ()),
        specialize=spec.get("specialize"),
    )


def build_env(ctx: Context, where: Sequence[Sequence[str]] | None) -> dict:
    """Evaluate a where-list (ordered [name, expr] pairs) into an env."""
    from .parser import parse

    env: dict = {}
    for name, text in where or ():
        env[name] = parse(ctx, text, env)
    return env


def build_action(ctx: Context, spec: Mapping[str, Any]):
    """An actionspec is either {"word": w} or {"bindings": {var: expr}},
    optionally with {"signs": {rooted param: -1}}."""
    from .actions import Automorphism
    from .parser import parse

    signs = spec.get("signs")
    if "word" in spec:
        return Automorphism.monomial(ctx, word_matrix(spec["word"]), signs=signs)
    bindings = {v: parse(ctx, text) for v, text in spec["bindings"].items()}
    return Automorphism(ctx, bindings, signs=signs)


# -- schema validation --------------------------------------------------------


def _need(obj: Mapping, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", path)
    return obj[key]


def _check_str(value: Any, path: str) -> None:
    if not isinstance(value, str) or not value:
        raise SchemaError("expected a nonempty string", path)


def _check_keys(obj: Mapping, allowed: set[str], path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise SchemaError(f"unexpected keys {sorted(extra)}", path)


def _check_context(spec: Any, path: str) -> None:
    """A context spec that Context accepts, checked without building one.

    The JSON shape is checked here: an object with known keys, a field
    that resolves, and lists of names. The symbol rules, and the reading
    of specialized values, are context.check_symbols, Context's own.
    """
    if not isinstance(spec, dict):
        raise SchemaError("context must be an object", path)
    _check_keys(spec, {"field", "variables", "parameters", "roots", "specialize"}, path)
    field = spec.get("field", "Q")
    _check_str(field, path + "/field")
    try:
        base = field_from_name(field)
    except ValueError as err:
        raise SchemaError(f"unknown field {field!r}: {err}", path + "/field") from None
    for key in ("variables", "parameters", "roots"):
        if key in spec:
            if not isinstance(spec[key], list) or not all(
                isinstance(s, str) and s for s in spec[key]
            ):
                raise SchemaError("expected a list of names", f"{path}/{key}")
    specialize = spec.get("specialize", {})
    if not isinstance(specialize, dict):
        raise SchemaError("specialize must map parameter to value", path + "/specialize")
    try:
        check_symbols(
            base, spec.get("variables", ()), spec.get("parameters", ()), spec.get("roots", ()), specialize
        )
    except ContextError as err:
        raise SchemaError(str(err), f"{path}/{err.key}/{err.where}") from None


def _check_exprmap(value: Any, path: str) -> None:
    if not isinstance(value, dict) or not value:
        raise SchemaError("expected a nonempty object of expressions", path)
    for k, v in value.items():
        _check_str(v, f"{path}/{k}")


def _check_where(value: Any, path: str, context: Mapping) -> None:
    """A where-list parsed in the context whose spec is `context` (checked).

    A name must be one the parser reads as a name, and neither "sqrt"
    (sqrt(p) names a root) nor a variable or parameter of the context:
    the parser reads a where name before the context's symbols, so a
    name that shadowed one would change what the case claims.
    """
    if not isinstance(value, list):
        raise SchemaError("where must be a list of [name, expr] pairs", path)
    symbols = {*context.get("variables", ()), *context.get("parameters", ())}
    seen = set()
    for i, item in enumerate(value):
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(s, str) for s in item)):
            raise SchemaError("where entry must be [name, expr]", f"{path}/{i}")
        name = item[0]
        if not _NAME_RE.fullmatch(name):
            raise SchemaError(f"where name {name!r} is not of the form {NAME}", f"{path}/{i}")
        if name == "sqrt" or name in symbols:
            raise SchemaError(f"where name {name!r} shadows sqrt or a symbol of the context", f"{path}/{i}")
        if name in seen:
            raise SchemaError(f"duplicate where name {name!r}", f"{path}/{i}")
        seen.add(name)


def _check_actionspec(spec: Any, path: str, context: Mapping) -> None:
    """An action of a case whose context spec is `context` (checked)."""
    if not isinstance(spec, dict):
        raise SchemaError("action must be an object", path)
    _check_keys(spec, {"word", "bindings", "signs"}, path)
    if ("word" in spec) == ("bindings" in spec):
        raise SchemaError("action needs exactly one of word/bindings", path)
    variables = context.get("variables", ())
    if "word" in spec:
        size = len(_check_matrix_word(spec["word"], path + "/word"))
        if size != len(variables):
            raise SchemaError(
                f"word gives a {size}x{size} matrix, the context has {len(variables)} variables",
                path + "/word",
            )
    else:
        _check_exprmap(spec["bindings"], path + "/bindings")
        for name in spec["bindings"]:
            if name not in variables:
                raise SchemaError(
                    f"{name!r} is not a variable of the context", f"{path}/bindings/{name}"
                )
        unbound = [v for v in variables if v not in spec["bindings"]]
        if unbound:
            raise SchemaError(f"no binding for variables {unbound}", path + "/bindings")
    if "signs" in spec:
        if not isinstance(spec["signs"], dict) or not all(
            type(v) is int and v in (1, -1) for v in spec["signs"].values()
        ):
            raise SchemaError("signs must map rooted parameter to +-1", path + "/signs")
        roots = context.get("roots", ())
        for name in spec["signs"]:
            if name not in roots:
                raise SchemaError(f"{name!r} is not a rooted parameter", f"{path}/signs/{name}")


def _check_word_list(value: Any, path: str) -> None:
    if not isinstance(value, list) or not value or not all(isinstance(w, str) and w for w in value):
        raise SchemaError("expected a nonempty list of words", path)


def _check_matrix_word(word: Any, path: str) -> Matrix:
    """word_matrix(word), its complaint raised as the SchemaError at path."""
    _check_str(word, path)
    try:
        return word_matrix(word)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from None


def _check_matrix_words(value: Any, path: str) -> None:
    _check_word_list(value, path)
    for i, word in enumerate(value):
        _check_matrix_word(word, f"{path}/{i}")


def _check_payload(kind: str, p: Any, path: str, group_ids: set[str], contexts: set) -> None:
    """Check one payload; contexts holds the ids of the context specs checked so far."""
    if not isinstance(p, dict):
        raise SchemaError("payload must be an object", path)
    keys = _PAYLOAD_KEYS[kind]
    _check_keys(p, keys, path)
    for key in ("context", "claimed_context", "source", "target"):
        if key in keys:
            spec = _need(p, key, path)
            if id(spec) not in contexts:
                _check_context(spec, f"{path}/{key}")
                contexts.add(id(spec))
    for key in _GROUP_KEYS.get(kind, ()):
        gid = _need(p, key, path)
        _check_str(gid, f"{path}/{key}")
        if gid not in group_ids:
            raise SchemaError(f"unknown group {gid!r}", f"{path}/{key}")
    if "actions" in keys:
        actions = _need(p, "actions", path)
        if not isinstance(actions, dict) or not actions:
            raise SchemaError("actions must be a nonempty object", path + "/actions")
        for name, spec in actions.items():
            _check_actionspec(spec, f"{path}/actions/{name}", p["context"])
    for key, context in (("where", "context"), ("where_forward", "source"), ("where_backward", "target")):
        if key in p:
            _check_where(p[key], f"{path}/{key}", p[context])

    if kind == "Invariance":
        _check_exprmap(_need(p, "exprs", path), path + "/exprs")

    elif kind == "InducedAction":
        fw = _need(p, "forward", path)
        if fw is not None:
            if not isinstance(fw, dict) or not fw:
                raise SchemaError("forward must be null or a nonempty object", path + "/forward")
            for k, v in fw.items():
                fpath = f"{path}/forward/{k}"
                if isinstance(v, str):
                    _check_str(v, fpath)
                elif isinstance(v, dict):
                    _check_keys(v, {"orbit_sum"}, fpath)
                    os_spec = _need(v, "orbit_sum", fpath)
                    if not isinstance(os_spec, dict):
                        raise SchemaError("orbit_sum must be an object", fpath + "/orbit_sum")
                    _check_keys(os_spec, {"of", "group"}, fpath + "/orbit_sum")
                    _check_str(_need(os_spec, "of", fpath + "/orbit_sum"), fpath + "/orbit_sum/of")
                    names = _need(os_spec, "group", fpath + "/orbit_sum")
                    _check_word_list(names, fpath + "/orbit_sum/group")
                    for n in names:
                        if n not in actions:
                            raise SchemaError(
                                f"orbit_sum generator {n!r} is not a declared action",
                                fpath + "/orbit_sum/group",
                            )
                else:
                    raise SchemaError("forward entry must be an expression or orbit_sum", fpath)
        claimed = _need(p, "claimed", path)
        if not isinstance(claimed, dict) or not claimed:
            raise SchemaError("claimed must be a nonempty object", path + "/claimed")
        for name, table in claimed.items():
            cpath = f"{path}/claimed/{name}"
            if name not in actions:
                raise SchemaError(f"claimed table for undeclared action {name!r}", cpath)
            _check_exprmap(table, cpath)
            if fw is not None and set(table) != set(fw):
                raise SchemaError("claimed table must cover exactly the forward generators", cpath)
            # A key is a variable of claimed_context; with no forward map
            # it also stands for itself as a variable of context.
            homes = ("claimed_context",) if fw is not None else ("claimed_context", "context")
            for key in table:
                for home in homes:
                    if key not in p[home].get("variables", ()):
                        raise SchemaError(f"{key!r} is not a variable of {home}", f"{cpath}/{key}")

    elif kind == "InversePair":
        _check_exprmap(_need(p, "forward", path), path + "/forward")
        _check_exprmap(_need(p, "backward", path), path + "/backward")
        src_vars = set(p["source"].get("variables", ()))
        tgt_vars = set(p["target"].get("variables", ()))
        if set(p["forward"]) != tgt_vars:
            raise SchemaError("forward must bind exactly the target variables", path + "/forward")
        if set(p["backward"]) != src_vars:
            raise SchemaError("backward must bind exactly the source variables", path + "/backward")

    elif kind == "Identity":
        _check_str(_need(p, "lhs", path), path + "/lhs")
        _check_str(_need(p, "rhs", path), path + "/rhs")

    elif kind == "GroupOrder":
        order = _need(p, "order", path)
        if type(order) is not int or order < 1:
            raise SchemaError("order must be a positive integer", path + "/order")

    elif kind == "IsoType":
        _check_str(_need(p, "label", path), path + "/label")

    elif kind == "NormalSubgroups":
        subs = _need(p, "subgroups", path)
        if not isinstance(subs, list):
            raise SchemaError("subgroups must be a list of word lists", path + "/subgroups")
        for i, gens in enumerate(subs):
            _check_matrix_words(gens, f"{path}/subgroups/{i}")

    elif kind == "Conjugacy":
        via = _need(p, "via", path)
        if isinstance(via, str):
            _check_matrix_word(via, path + "/via")
        elif not (
            isinstance(via, list)
            and len(via) == 3
            and all(isinstance(r, list) and len(r) == 3 and all(type(x) is int for x in r) for r in via)
        ):
            raise SchemaError("via must be a matrix name or a 3x3 integer matrix", path + "/via")

    elif kind == "QReducibility":
        if not isinstance(_need(p, "reducible", path), bool):
            raise SchemaError("reducible must be a boolean", path + "/reducible")

    elif kind == "RationalityCriterion":
        case = _need(p, "case", path)
        _check_str(case, path + "/case")
        if case not in CRITERIA:
            raise SchemaError(f"unknown criterion case {case!r}", path + "/case")
        for key in ("a", "b", "coeffs"):
            if key in p and key not in CRITERIA[case]:
                raise SchemaError(f"a {case} criterion does not read {key}", f"{path}/{key}")
        if not isinstance(_need(p, "expect_rational", path), bool):
            raise SchemaError("expect_rational must be a boolean", path + "/expect_rational")
        if case == "quadric":
            coeffs = _need(p, "coeffs", path)
            if not isinstance(coeffs, list) or not coeffs:
                raise SchemaError("coeffs must be a nonempty list of rationals", path + "/coeffs")
            for i, c in enumerate(coeffs):
                _rational(c, f"{path}/coeffs/{i}")
        else:
            for key in CRITERIA[case]:
                if not _rational(_need(p, key, path), f"{path}/{key}"):
                    raise SchemaError(f"{key} must be nonzero", f"{path}/{key}")


def _rational(value: Any, path: str) -> Any:
    """read_rational(value), its complaint a SchemaError at path."""
    try:
        return read_rational(value)
    except (ValueError, ZeroDivisionError) as err:
        raise SchemaError(str(err), path) from None


def validate_catalog(data: Any) -> None:
    """Validate raw {groups, cases} data; raises SchemaError with a path."""
    if not isinstance(data, dict):
        raise SchemaError("catalog must be an object", "")
    _check_keys(data, {"groups", "cases"}, "")
    groups = data.get("groups", {})
    if not isinstance(groups, dict):
        raise SchemaError("groups must map id to group record", "/groups")
    for gid, g in groups.items():
        path = f"/groups/{gid}"
        if not isinstance(g, dict):
            raise SchemaError("group record must be an object", path)
        _check_keys(g, {"generators", "label", "system", "star"}, path)
        _check_matrix_words(_need(g, "generators", path), path + "/generators")
        _check_str(_need(g, "label", path), path + "/label")
        _check_str(_need(g, "system", path), path + "/system")
        if not isinstance(_need(g, "star", path), bool):
            raise SchemaError("star must be a boolean", path + "/star")
    cases = data.get("cases", [])
    if not isinstance(cases, list):
        raise SchemaError("cases must be a list", "/cases")
    group_ids = set(groups)
    seen: set[str] = set()
    contexts: set = set()
    for i, c in enumerate(cases):
        path = f"/cases/{i}"
        if not isinstance(c, dict):
            raise SchemaError("case must be an object", path)
        _check_keys(c, {"id", "kind", "section", "source", "payload"}, path)
        cid = _need(c, "id", path)
        _check_str(cid, path + "/id")
        if cid in seen:
            raise SchemaError(f"duplicate case id {cid!r}", path + "/id")
        seen.add(cid)
        kind = _need(c, "kind", path)
        if kind not in KINDS:
            raise SchemaError(f"unknown kind {kind!r}", path + "/kind")
        _check_str(_need(c, "section", path), path + "/section")
        _check_str(_need(c, "source", path), path + "/source")
        _check_payload(kind, _need(c, "payload", path), path + "/payload", group_ids, contexts)


# -- building and loading -----------------------------------------------------


def _catalog_from_data(data: Mapping[str, Any]) -> Catalog:
    validate_catalog(data)
    cases = [
        CaseRecord(c["id"], c["kind"], c["section"], c["source"], c["payload"])
        for c in data.get("cases", [])
    ]
    return Catalog(data.get("groups", {}), cases)


def builtin_catalog() -> Catalog:
    """The embedded catalog; validated on construction."""
    from . import catalog_data

    return _catalog_from_data({"groups": catalog_data.GROUPS, "cases": catalog_data.CASES})


def load_catalog(path: str) -> Catalog:
    """Load a JSON catalog file; it declares every group its cases use."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}", "") from None
    return _catalog_from_data(data)

