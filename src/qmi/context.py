"""Symbol contexts.

A Context fixes, once, everything a polynomial needs to interpret its
exponent tuples: the coefficient field, the declared variables and
parameters, which parameters carry a formal square root, and which
parameters are specialized to explicit constants.

Symbol order (used by the monomial order and the printer):

    roots < parameters < variables,

each class in declaration order, later-declared symbols being larger.
Monomials are compared by total degree first, ties broken reading
exponents from the largest symbol down.

A specialized parameter is not a symbol: occurrences of its name parse to
the constant. Its declared root, however, stays a formal symbol whose
square rewrites to the constant, so e.g. a root of 5 squares to 5 while
remaining exact.

Specialized values are read by field.of (field.read_rational) into one
table, `constants`; contexts with equal fields, names, roots and
constants are equal, so over F_7, m = 3 and m = 10 give equal contexts.
"""

from __future__ import annotations

import re
from typing import Any, Mapping, Sequence

from .errors import UnknownSymbol
from .field import BaseField, is_square

NAME = "[a-z][a-z0-9]*"  # a symbol or where name; the parser's name token
_NAME_RE = re.compile(NAME)


def mono_key(exps: tuple[int, ...]) -> tuple:
    """Sort key realizing the monomial order described in the module doc."""
    return (sum(exps), exps[::-1])


class ContextError(ValueError):
    """A context spec that Context rejects, at spec[key][where].

    key is "variables", "parameters", "roots" or "specialize"; where is
    the index into that list, or the parameter's name under "specialize".
    """

    def __init__(self, key: str, where: int | str, message: str) -> None:
        super().__init__(message)
        self.key = key
        self.where = where


def check_symbols(
    field: BaseField,
    variables: Sequence[str],
    parameters: Sequence[str],
    roots: Sequence[str],
    specialize: Mapping[str, Any],
) -> dict[str, Any]:
    """The symbol rules of a Context; the specialized values in the field, by name.

    Variable and parameter names are of the form NAME and no name is
    declared twice; roots and specializations name declared parameters; a
    specialized value is one that field.of reads, with a denominator that
    is not 0 in the field. A rooted parameter's value must not be 0 or a
    square, alone or times the values of other rooted parameters: every
    nonempty subset of the rooted values must multiply to a nonsquare,
    because if c*d = s^2, sqrt(c)*sqrt(d) - s is a zero divisor. Over F_p
    this allows at most one specialized root. Raises ContextError.
    """
    seen: set[str] = set()
    for key, names in (("variables", variables), ("parameters", parameters)):
        for i, name in enumerate(names):
            if not _NAME_RE.fullmatch(name):
                raise ContextError(key, i, f"name {name!r} is not of the form {NAME}")
            if name in seen:
                raise ContextError(key, i, f"duplicate symbol name {name!r}")
            seen.add(name)
    for i, name in enumerate(roots):
        if name not in parameters:
            raise ContextError("roots", i, f"root of {name!r}, which is not a parameter")
    values = {}
    for name, v in specialize.items():
        if name not in parameters:
            raise ContextError("specialize", name, f"{name!r} is not a parameter")
        try:
            values[name] = field.of(v)
        except (ValueError, ZeroDivisionError) as err:
            raise ContextError("specialize", name, f"value of {name!r}: {err}") from None
    subset_products: list[Any] = []
    for p in parameters:
        if p not in roots or p not in values:
            continue
        value = values[p]
        if value == field.zero:
            raise ContextError("specialize", p, f"rooted parameter {p!r} specialized to 0 in {field.name}")
        new = [value] + [field.mul(value, q) for q in subset_products]
        if any(is_square(field, v) for v in new):
            raise ContextError(
                "specialize",
                p,
                f"rooted parameter {p!r} specialized to a square in {field.name}, "
                "alone or times other specialized roots; its root ring has zero divisors",
            )
        subset_products += new
    return values


class Context:
    __slots__ = (
        "field",
        "variables",
        "parameters",
        "rooted",
        "symbols",
        "nsym",
        "index",
        "root_index",
        "constants",
        "folds",
        "var_start",
        "_key",
    )

    def __init__(
        self,
        field: BaseField,
        variables: Sequence[str] = (),
        parameters: Sequence[str] = (),
        roots: Sequence[str] = (),
        specialize: Mapping[str, Any] | None = None,
    ) -> None:
        self.field = field
        self.variables = tuple(variables)
        self.parameters = tuple(parameters)
        self.rooted = tuple(name for name in parameters if name in set(roots))
        # Bare names of specialized parameters resolve to field constants.
        self.constants = check_symbols(field, variables, parameters, roots, specialize or {})

        live_params = tuple(p for p in parameters if p not in self.constants)
        names: list[str] = [f"sqrt({p})" for p in self.rooted]
        names += list(live_params)
        self.var_start = len(names)
        names += list(self.variables)
        self.symbols = tuple(names)
        self.nsym = len(names)

        self.index = {name: i for i, name in enumerate(names)}
        self.root_index = {p: i for i, p in enumerate(self.rooted)}

        # folds[i] for root symbol i: (i, parameter index, None) when its
        # square folds into the parameter, (i, None, constant) when the
        # parameter is specialized. An integral constant is an int (as the
        # field stores it), so products lifted to integer coefficients stay
        # integral.
        self.folds: list[tuple[int, int | None, Any]] = []
        for i, p in enumerate(self.rooted):
            if p in self.constants:
                self.folds.append((i, None, self.constants[p]))
            else:
                self.folds.append((i, self.index[p], None))

        self._key = (
            field.name,
            self.variables,
            self.parameters,
            self.rooted,
            tuple(sorted(self.constants.items())),
        )

    # -- lookups ---------------------------------------------------------

    def symbol_index(self, name: str) -> int:
        """Index of a live symbol; root symbols are named "sqrt(p)"."""
        try:
            return self.index[name]
        except KeyError:
            raise UnknownSymbol(f"{name!r} is not declared in this context") from None

    def root_symbol_index(self, param: str) -> int:
        if param not in self.root_index:
            raise UnknownSymbol(f"no root declared for {param!r}")
        return self.root_index[param]

    def is_variable(self, idx: int) -> bool:
        return idx >= self.var_start

    # -- compatibility ---------------------------------------------------

    def constant_map_into(self, other: "Context") -> dict[int, int]:
        """Map this context's non-variable symbol indices into `other`.

        Used when substituting across contexts: every root and live
        parameter here must exist in `other` under the same name (roots
        keep their underlying parameter name).
        """
        mapping: dict[int, int] = {}
        for i, p in enumerate(self.rooted):
            mapping[i] = other.root_symbol_index(p)
        for i in range(len(self.rooted), self.var_start):
            mapping[i] = other.symbol_index(self.symbols[i])
        return mapping

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Context) and self._key == other._key)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        parts = [self.field.name]
        if self.parameters:
            parts.append("params=" + ",".join(self.parameters))
        if self.variables:
            parts.append("vars=" + ",".join(self.variables))
        return f"Context({'; '.join(parts)})"
