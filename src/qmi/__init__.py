"""Exact verification toolkit for quasi-monomial actions on rational
function fields.

Layered design: exact arithmetic (Context/Poly/RatFunc), matrix lattice
groups, substitution automorphisms and their generic checks, local-global
rationality criteria, and a data-driven catalog of verification cases with
a runner and CLI on top.
"""

from .context import Context
from .errors import (
    DivisionByZero,
    FactorizationLimit,
    InconsistentAction,
    NotDivisible,
    NotFiniteOrder,
    OrderCapExceeded,
    ParseError,
    QmiError,
    SchemaError,
    SubstitutionPole,
    UnknownCase,
    UnknownRoot,
    UnknownSymbol,
)
from .field import QQ, BaseField, PrimeField, Rationals, field_from_name
from .gcd import exact_div, poly_gcd
from .parser import parse
from .poly import Poly
from .ratfunc import RatFunc

__all__ = [
    "Context",
    "Poly",
    "RatFunc",
    "parse",
    "poly_gcd",
    "exact_div",
    "QQ",
    "BaseField",
    "PrimeField",
    "Rationals",
    "field_from_name",
    "QmiError",
    "DivisionByZero",
    "NotDivisible",
    "SubstitutionPole",
    "UnknownRoot",
    "UnknownSymbol",
    "ParseError",
    "OrderCapExceeded",
    "NotFiniteOrder",
    "InconsistentAction",
    "SchemaError",
    "UnknownCase",
    "FactorizationLimit",
]
