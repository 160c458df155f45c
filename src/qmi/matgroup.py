"""Finite subgroups of GL_n(Z): closure, structure, and recognition.

Matrices are immutable tuples of tuples of ints, and every computation
here stays in the integers. Group closure is breadth-first, and its
routine `_closure` is the only breadth-first search in qmi: it also
closes `MatrixGroup.subgroup` in the index table, and the variable
orbits, automorphism groups and seed orbits of `actions.close_action`
and `actions.orbit_sum`. Element ordering inside a group is
lexicographic on the flattened entries, which keeps every downstream
listing deterministic. One fraction-free Gauss–Jordan pass over Z,
`_row_reduce`, gives exact determinants and primitive kernel vectors,
with no rational arithmetic.

Structure (inverses, element orders, conjugacy classes, normal
subgroups) is read from integer index tables, not from further matrix
products. The closure forms m·g for every element m and generator g
anyway; MatrixGroup keeps those products as one permutation of element
indices per generator, and keeps each element's BFS parent p and letter
i, with element = p·g_i. The multiplication table follows column by
column down the BFS tree: a·(p·g_i) = (a·p)·g_i, so column b is column p
looked up in generator i's permutation. Every entry therefore names a
product that mat_mul formed exactly during the closure, chained by
associativity alone; no entry is guessed or hashed. The table costs |G|²
list lookups, once per group and only when structure is asked.

Rational reducibility is decided in dimension <= 3, where by Maschke's
theorem a reducible finite group keeps a line. Conjugacy of two groups is
decided from the generators of one and the two orders.

Isomorphism types are recognized by an explicit isomorphism. Each
candidate label owns a small built-in model group. `isomorphism` tries
every tuple of images for the model's generators among group elements of
the same orders, and extends each tuple along every edge a -> a·g_i of
the model's closure, in BFS order: the first visit of an edge sets the
image of a·g_i to phi(a)·phi(g_i), and every later visit must agree with
the group's table. Agreement on every edge gives phi(x·g_i) =
phi(x)·phi(g_i) for all x and i, so phi(x·y) = phi(x)·phi(y) by
induction on a word for y: phi is a homomorphism, and an isomorphism
when it is injective. The search is exhaustive, so no isomorphism means
none exists. `identify_iso_type` skips a model whose sorted element
orders differ from the group's; equal orders are necessary, not
sufficient, and the verdict rests on the checked map alone.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import mul
from typing import Any, Callable, Iterable, Sequence

from .errors import NotFiniteOrder, OrderCapExceeded

Matrix = tuple[tuple[Any, ...], ...]


def mat(rows: Iterable[Iterable[Any]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def _row_reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss–Jordan over Z.

    An entry f is cleared against the pivot p of its column by
    row_i <- (p/g)·row_i - (f/g)·row_p with g = gcd(p, f), so every row
    stays integral. Returns (rows, pivots, det): row r holds its pivot in
    column pivots[r] and zeros in every other pivot column. det is the
    product of the pivots over the product of the row scalings p/g, times
    the sign of the row swaps: the exact determinant at full rank. Stops
    once every row holds a pivot.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    sign = scale = 1
    for c in range(len(m[0])):
        r = len(pivots)
        if r == len(m):
            break
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                scale *= a
                m[i] = [a * x - b * y for x, y in zip(row, top)]
        pivots.append(c)
    return m, pivots, sign * prod(m[r][c] for r, c in enumerate(pivots)) // scale


def mat_det(a: Matrix) -> int:
    _, pivots, det = _row_reduce(a)
    return det if len(pivots) == len(a) else 0


# Finite-order integer matrices in dimension 3 have order in {1,2,3,4,6}:
# this bound leaves slack without looping long on an infinite-order one.
MAX_ORDER = 12


def element_order(m: Matrix, guard: int = MAX_ORDER) -> int:
    """Multiplicative order; NotFiniteOrder if it exceeds the guard."""
    e = identity(len(m))
    acc = m
    for k in range(1, guard + 1):
        if acc == e:
            return k
        acc = mat_mul(acc, m)
    raise NotFiniteOrder(f"no finite order within guard {guard}")


class MatrixGroup:
    """A finite matrix group produced by close_group.

    `bfs`, `products` and `parents` are the output of `_closure`. Every
    parent comes before its children. All structure is read from the
    products through the index table of `_table`.
    """

    def __init__(
        self,
        generators: Sequence[Matrix],
        bfs: Sequence[Matrix],
        products: Sequence[Sequence[int]],
        parents: Sequence[tuple[int, int] | None],
    ) -> None:
        self.generators = tuple(generators)
        self.elements = tuple(sorted(bfs))
        self.order = len(self.elements)
        self.dim = len(self.elements[0])
        self._index = {m: i for i, m in enumerate(self.elements)}
        pos = [self._index[m] for m in bfs]
        self._e = pos[0]
        # _right[i][a]: index of elements[a]·generators[i].
        self._right: list[list[int]] = []
        for col in products:
            row = [0] * self.order
            for j, k in enumerate(col):
                row[pos[j]] = pos[k]
            self._right.append(row)
        # BFS tree edges (b, a, i) with elements[b] = elements[a]·generators[i],
        # parents first.
        self._tree = [(pos[b], pos[a], i) for b, (a, i) in enumerate(parents[1:], 1)]
        self._mul: tuple[tuple[int, ...], ...] | None = None
        self._inv: list[int] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._orders: list[int] | None = None

    def __contains__(self, m: Matrix) -> bool:
        return m in self._index

    def __len__(self) -> int:
        return self.order

    # -- index tables ----------------------------------------------------

    def _table(self) -> tuple[tuple[int, ...], ...]:
        """table[a][b]: index of elements[a]·elements[b].

        Column b is built from its parent's: if b = p·g_i then
        a·b = (a·p)·g_i, one lookup in _right[i] per entry.
        """
        if self._mul is None:
            cols: list[list[int]] = [[]] * self.order
            cols[self._e] = list(range(self.order))
            for b, a, i in self._tree:
                right = self._right[i]
                cols[b] = [right[x] for x in cols[a]]
            self._mul = tuple(zip(*cols))
        return self._mul

    def _inverses(self) -> list[int]:
        if self._inv is None:
            e = self._e
            self._inv = [row.index(e) for row in self._table()]
        return self._inv

    def _generator_indices(self) -> list[int]:
        return [right[self._e] for right in self._right]

    def _class_indices(self) -> tuple[tuple[int, ...], ...]:
        if self._classes is None:
            table, inv = self._table(), self._inverses()
            seen: set[int] = set()
            classes: list[tuple[int, ...]] = []
            for m in range(self.order):
                if m in seen:
                    continue
                orbit = {table[table[g][m]][inv[g]] for g in range(self.order)}
                seen |= orbit
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return self._classes

    # -- structure -------------------------------------------------------

    def inverse(self, m: Matrix) -> Matrix:
        return self.elements[self._inverses()[self._index[m]]]

    def element_orders(self) -> list[int]:
        """orders[a]: the multiplicative order of elements[a]."""
        if self._orders is None:
            table, e = self._table(), self._e
            orders = []
            for a in range(self.order):
                k, power = 1, a
                while power != e:
                    power = table[power][a]
                    k += 1
                orders.append(k)
            self._orders = orders
        return self._orders

    def subgroup(self, generators: Sequence[Matrix]) -> tuple[Matrix, ...]:
        """The sorted elements of the subgroup that generators, all in self, generate.

        `_closure` in the index table: the elements reached from the
        identity by right multiplication with the generators. In a finite
        group that monoid is the subgroup, and its elements sorted are the
        elements of close_group(generators). KeyError for a generator
        outside self.
        """
        table = self._table()
        gens = [self._index[m] for m in generators]
        members, _, _ = _closure(self._e, gens, lambda a, i: table[a][i], self.order)
        return tuple(self.elements[i] for i in sorted(members))

    def normal_subgroups(self) -> list[tuple[Matrix, ...]]:
        """All normal subgroups (trivial and full group included).

        A normal subgroup is a union of conjugacy classes containing the
        identity whose size divides the group order and which is closed
        under multiplication; with at most ~2^16 candidate unions this is
        a plain filter.
        """
        classes = self._class_indices()
        e = self._e
        rest = [c for c in classes if e not in c]
        if len(rest) > 16:
            raise OrderCapExceeded(
                f"too many conjugacy classes ({len(classes)}) for subset enumeration"
            )
        table = self._table()
        found: list[tuple[Matrix, ...]] = []
        for r in range(len(rest) + 1):
            for combo in combinations(rest, r):
                size = 1 + sum(len(c) for c in combo)
                if self.order % size:
                    continue
                members = {e}
                for c in combo:
                    members.update(c)
                if all(table[a][b] in members for a in members for b in members):
                    found.append(tuple(self.elements[i] for i in sorted(members)))
        found.sort(key=lambda s: (len(s), s))
        return found


def _closure(
    ident: Any, generators: Sequence[Any], multiply: Callable, cap: int
) -> tuple[list, list[list[int]], list[tuple[int, int] | None]]:
    """Breadth-first closure of `ident` under right multiplication by `generators`.

    The one breadth-first search of qmi: it closes matrix groups, the
    automorphism groups and variable orbits of `actions.close_action`,
    the seed orbit of `actions.orbit_sum` and `MatrixGroup.subgroup`.
    Elements must be hashable, and equal elements are the same element.
    Returns (elements, products, parents): the elements in BFS order,
    `ident` first; products[i][j], the position of
    multiply(elements[j], generators[i]); and parents[j], the pair (k, i)
    that first formed elements[j] (None for `ident`). Raises
    OrderCapExceeded past `cap` elements.
    """
    found = {ident: 0}
    elements = [ident]
    parents: list[tuple[int, int] | None] = [None]
    products: list[list[int]] = [[] for _ in generators]
    for j, a in enumerate(elements):
        for i, g in enumerate(generators):
            b = multiply(a, g)
            k = found.get(b)
            if k is None:
                k = found[b] = len(elements)
                elements.append(b)
                parents.append((j, i))
                if len(elements) > cap:
                    raise OrderCapExceeded(f"closure exceeded cap of {cap} elements")
            products[i].append(k)
    return elements, products, parents


def close_group(generators: Sequence[Matrix], cap: int = 10000) -> MatrixGroup:
    """Breadth-first closure of integer generators under multiplication.

    Raises OrderCapExceeded past `cap` elements and NotFiniteOrder if a
    generator alone fails to have finite order.
    """
    given = [mat(g) for g in generators]
    gens = [mat(map(int, row) for row in g) for g in given]
    if gens != given:
        raise ValueError("generators must have integer entries")
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0])
    if any(len(g) != n or any(len(row) != n for row in g) for g in gens):
        raise ValueError("generators must be square matrices of equal size")
    for g in gens:
        if mat_det(g) not in (1, -1):
            raise ValueError("generator is not invertible over the integers")
        element_order(g)

    bfs, products, parents = _closure(identity(n), gens, mat_mul, cap)
    return MatrixGroup(gens, bfs, products, parents)


# -- rational reducibility -------------------------------------------------


def _kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of the stacked integer rows.

    One vector per non-pivot column c of `_row_reduce`: the kernel vector
    that is zero on the other non-pivot columns, as a primitive integer
    vector whose first nonzero entry is positive.
    """
    m, pivots, _ = _row_reduce(rows)
    common = lcm(*(row[pc] for row, pc in zip(m, pivots)))
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[fc] = common
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc] * (common // row[pc])
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append(tuple(x // g for x in v))
    return basis


def q_reducible(group: MatrixGroup) -> tuple[bool, dict | None]:
    """Decide reducibility of the rational representation of a finite group.

    By Maschke's theorem a proper invariant subspace has an invariant
    complement; in dimension 2 or 3 one of them is a line, spanned by a
    common eigenvector of the generators with rational eigenvalues, so
    +-1. A line has no proper nonzero subspace, and above dimension 3 both
    parts can be planes (ValueError). Returns (True, witness) or
    (False, None).
    """
    n, gens = group.dim, group.generators
    if n > 3:
        raise ValueError(f"q_reducible decides dimension <= 3, not {n}")
    if n == 1:
        return False, None

    def descend(rows: list[list[int]], depth: int):
        """First sign tuple, in the order of product((1, -1), ...), whose
        stacked rows g - s*I have a common kernel.

        Depth first over the generators, +1 before -1. More rows only
        shrink a kernel, so a prefix whose rows already have a trivial
        kernel is dropped with all its extensions.
        """
        g = gens[depth]
        for s in (1, -1):
            stacked = rows + [
                [g[i][j] - (s if i == j else 0) for j in range(n)] for i in range(n)
            ]
            basis = _kernel_basis(stacked, n)
            if not basis:
                continue
            if depth + 1 == len(gens):
                return (s,), basis[0]
            hit = descend(stacked, depth + 1)
            if hit is not None:
                return (s,) + hit[0], hit[1]
        return None

    hit = descend([], 0)
    if hit is None:
        return False, None
    signs, vec = hit
    return True, {"dim": 1, "vector": vec, "signs": signs}


def verify_conjugation(
    left: MatrixGroup, right: MatrixGroup, p: Matrix
) -> bool:
    """Does P^-1 * left * P equal right as a set?

    Conjugation by P is an injective homomorphism, so the image of left is
    generated by the conjugates of left's generators. If those lie in
    right and the orders agree, the image is all of right. For a
    nonsingular P, P^-1·g·P = h exactly when g·P = P·h, so a generator's
    conjugate lies in right exactly when g·P is among the products P·h,
    h in right; P may be integer or rational, and no inverse is formed.
    A singular P makes the answer False (not an error), as does a
    conjugate outside right: the matrix simply fails to carry one lattice
    group onto the other.
    """
    if left.order != right.order:
        return False
    d = lcm(*(x.denominator for row in p for x in row))
    if mat_det(mat((int(x * d) for x in row) for row in p)) == 0:
        return False
    images = {mat_mul(p, h) for h in right.elements}
    return all(mat_mul(g, p) in images for g in left.generators)


# -- isomorphism-type recognition ------------------------------------------

_C1 = [identity(1)]
_C2 = [mat([[-1]])]
_C3 = [mat([[0, -1], [1, -1]])]
_C4 = [mat([[0, -1], [1, 0]])]
_C6 = [mat([[1, -1], [1, 0]])]
_S3 = [mat([[0, -1], [1, -1]]), mat([[0, 1], [1, 0]])]
_D4 = [mat([[0, -1], [1, 0]]), mat([[1, 0], [0, -1]])]
_A4 = [
    mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
]
_S4 = [
    mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
]


def _direct(*factor_gens: list[Matrix]) -> list[Matrix]:
    """Generators of a direct product as block-diagonal extensions."""
    dims = [len(f[0]) for f in factor_gens]
    total = sum(dims)
    out: list[Matrix] = []
    offset = 0
    for f, d in zip(factor_gens, dims):
        for g in f:
            rows = [[1 if i == j else 0 for j in range(total)] for i in range(total)]
            for i in range(d):
                for j in range(d):
                    rows[offset + i][offset + j] = g[i][j]
            out.append(mat(rows))
        offset += d
    return out


_MODEL_GENERATORS: dict[str, list[Matrix]] = {
    "C1": _C1,
    "C2": _C2,
    "C3": _C3,
    "C4": _C4,
    "C6": _C6,
    "C2xC2": _direct(_C2, _C2),
    "C4xC2": _direct(_C4, _C2),
    "C6xC2": _direct(_C6, _C2),
    "C2xC2xC2": _direct(_C2, _C2, _C2),
    "S3": _S3,
    "D4": _D4,
    "D6": _direct(_S3, _C2),
    "A4": _A4,
    "S4": _S4,
    "D4xC2": _direct(_D4, _C2),
    "D6xC2": _direct(_S3, _C2, _C2),
    "A4xC2": _direct(_A4, _C2),
    "S4xC2": _direct(_S4, _C2),
}

def isomorphism(model: MatrixGroup, group: MatrixGroup) -> list[int] | None:
    """An isomorphism from model onto group, or None when there is none.

    phi[a] is the index in group of the image of model.elements[a]. Each
    tuple of generator images of matching orders is extended along the
    edges a -> a·g_i of model, parents first, and abandoned at the first
    edge that disagrees with group's table (see the module docstring).
    """
    if model.order != group.order:
        return None
    model_orders, group_orders = model.element_orders(), group.element_orders()
    candidates = [
        [x for x in range(group.order) if group_orders[x] == model_orders[g]]
        for g in model._generator_indices()
    ]
    table = group._table()
    walk = [model._e] + [b for b, _, _ in model._tree]

    def extend(images: tuple[int, ...]) -> list[int] | None:
        phi = [-1] * model.order
        phi[model._e] = group._e
        for a in walk:
            row = table[phi[a]]
            for right, image in zip(model._right, images):
                b, pb = right[a], row[image]
                if phi[b] < 0:
                    phi[b] = pb
                elif phi[b] != pb:
                    return None
        return phi

    for images in product(*candidates):
        phi = extend(images)
        if phi is not None and len(set(phi)) == model.order:
            return phi
    return None


@cache
def _models() -> list[tuple[str, list[int], MatrixGroup]]:
    """(label, sorted element orders, closed model) for each model, once."""
    out = []
    for label, gens in _MODEL_GENERATORS.items():
        model = close_group(gens, cap=200)
        out.append((label, sorted(model.element_orders()), model))
    return out


def identify_iso_type(group: MatrixGroup) -> str | None:
    """Label of the first built-in model isomorphic to group, or None."""
    orders = sorted(group.element_orders())
    for label, model_orders, model in _models():
        if model_orders == orders and isomorphism(model, group) is not None:
            return label
    return None
