"""Command line: list, show and run the cases of a catalog.

    qmi list [--filter k=v ...]
    qmi show CASE
    qmi run [--catalog FILE] [--filter k=v ...] [--jobs N]
            [--format text|jsonl] [--timeout S]

list and show read the builtin catalog, and so does run without
--catalog; a catalog file stands on its own (it declares the groups its
cases use). Filter keys are those of Catalog.select: kind, section,
group, id and prefix; repeated filters must all match. `run` exits with
runner.exit_code: 0 when every case passes, 1 when one fails, 2 when
one ends in Error. Bad arguments (a --jobs below 1 or a negative
--timeout among them), an unreadable catalog, an unknown case or a
filter that matches nothing exit with 2 and a message on standard
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .catalog import Catalog, builtin_catalog, load_catalog
from .errors import QmiError
from .runner import DEFAULT_TIMEOUT, exit_code, run_all, to_jsonl, to_text


class _UsageError(Exception):
    pass


def _filters(items: Sequence[str] | None) -> dict[str, str]:
    out = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise _UsageError(f"filter {item!r} is not of the form key=value")
        out[key] = value
    return out


def _select(catalog: Catalog, items: Sequence[str] | None):
    filters = _filters(items)
    try:
        cases = catalog.select(filters)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if not cases:
        raise _UsageError("no case matches the filters")
    return filters, cases


def _list(args) -> int:
    _, cases = _select(builtin_catalog(), args.filter)
    for c in cases:
        print(f"{c.id}\t{c.kind}\t{c.section}")
    return 0


def _show(args) -> int:
    catalog = builtin_catalog()
    case = catalog.case(args.case)
    record = case.to_dict()
    record["groups"] = {g: catalog.group(g) for g in case.groups_used()}
    print(json.dumps(record, indent=2))
    return 0


def _run(args) -> int:
    catalog = load_catalog(args.catalog) if args.catalog else builtin_catalog()
    filters, _ = _select(catalog, args.filter)
    try:
        reports = run_all(catalog, filters, jobs=args.jobs, timeout=args.timeout)
    except ValueError as exc:
        # run_all checks jobs and timeout before any case runs; a case's
        # own exceptions end in its report.
        raise _UsageError(str(exc)) from None
    sys.stdout.write(to_jsonl(reports) if args.format == "jsonl" else to_text(reports))
    return exit_code(reports)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qmi", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="print id, kind and section of the selected cases")
    p.set_defaults(func=_list)
    p.add_argument("--filter", action="append", metavar="k=v")
    p = sub.add_parser("show", help="print one case and the groups it uses as JSON")
    p.set_defaults(func=_show)
    p.add_argument("case", metavar="CASE")
    p = sub.add_parser("run", help="verify the selected cases and report")
    p.set_defaults(func=_run)
    p.add_argument("--catalog", metavar="FILE", help="JSON catalog instead of the builtin one")
    p.add_argument("--filter", action="append", metavar="k=v")
    p.add_argument("--jobs", type=int, default=1, metavar="N")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT, metavar="S",
                   help=f"seconds per case, 0 for no limit (default {DEFAULT_TIMEOUT:g})")
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, QmiError, OSError) as exc:
        print(f"qmi {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
