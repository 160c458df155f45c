"""Microbenchmarks of Poly.__mul__ on dense operands of the hot product shapes.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_poly_mul.py --benchmark-only

The largest products of sys7iii_case1_tact and _vt pair about 400 with
3900 terms and 1600 with 320 terms. The operands here have those sizes,
are dense in their exponent boxes, carry a square root whose square folds
into its parameter, and have fixed pseudo-random 20-bit coefficients,
stored as the field stores them (an int over Q when integral).
The file name keeps these out of the tier-1 run, which collects test_*.py.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from qmi import QQ, Context, Poly

CTX = Context(QQ, variables=["x1", "x2", "x3"], parameters=["a"], roots=["a"])

# Exponent box of each operand in (x1, x2, x3); the root slot adds a factor 2.
SHAPES = {
    "400x3900": ((10, 10, 2), (15, 13, 10)),
    "1600x320": ((10, 10, 8), (8, 5, 4)),
}


def dense(sides: tuple[int, int, int], seed: int) -> Poly:
    rnd = random.Random(seed)
    terms = {}
    for root, *xs in product(range(2), *(range(s) for s in sides)):
        terms[(root, 0, *xs)] = CTX.field.of(rnd.randint(-(2**20), 2**20) or 1)
    return Poly(CTX, terms)


@pytest.mark.parametrize("shape", SHAPES)
def test_mul(benchmark, shape):
    f, g = (dense(sides, seed) for seed, sides in enumerate(SHAPES[shape]))
    result = benchmark(f.__mul__, g)
    assert result.degree_in(CTX.symbol_index("a")) == 1
