"""Lattice-group closure, structure computations, and recognition by isomorphism."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.group_constructs import DirectProduct
from sympy.combinatorics.named_groups import (
    AlternatingGroup,
    CyclicGroup,
    DihedralGroup,
    SymmetricGroup,
)

from qmi import NotFiniteOrder, OrderCapExceeded
import qmi.catalog
from qmi.catalog import Catalog, CaseRecord, builtin_catalog, word_matrix
from qmi.catalog_data import MATRICES
from qmi.matgroup import (
    close_group,
    element_order,
    identify_iso_type,
    identity,
    isomorphism,
    mat,
    mat_det,
    mat_mul,
    q_reducible,
    verify_conjugation,
    _kernel_basis,
    _MODEL_GENERATORS,
)
from qmi.runner import build_group, run_case

ROT4 = mat([[0, -1], [1, 0]])
FLIP = mat([[1, 0], [0, -1]])
SHEAR = mat([[1, 1], [0, 1]])


@cache
def catalog():
    return builtin_catalog()


CATALOG_GROUPS = sorted(catalog().groups)
# One catalog group of each order 16, 24 and 48.
LARGE_CATALOG_GROUPS = ["G_4_7_1", "G_6_7_1", "G_7_5_1"]


@cache
def sympy_inverse(m):
    """The inverse of m by sympy, with Fraction entries."""
    return mat((Fraction(int(x.p), int(x.q)) for x in row) for row in Matrix(m).inv().tolist())


def primitive(v) -> tuple[int, ...]:
    """The rational vector v scaled to a primitive integer vector, first nonzero entry positive."""
    scale = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * scale) for x in v]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def group_for(name: str):
    """A catalog group by id, or a model group by its label."""
    if name in _MODEL_GENERATORS:
        return close_group(_MODEL_GENERATORS[name], cap=200)
    return build_group(catalog(), name)


def generators_for(name: str) -> list:
    if name in _MODEL_GENERATORS:
        return list(_MODEL_GENERATORS[name])
    return [word_matrix(w) for w in catalog().group(name)["generators"]]


def regular_permutations(g) -> PermutationGroup:
    """The right regular representation, formed by mat_mul on the elements."""
    index = {m: i for i, m in enumerate(g.elements)}
    return PermutationGroup(
        [Permutation([index[mat_mul(m, s)] for m in g.elements]) for s in g.generators]
    )


def perm_group_profile(g: PermutationGroup):
    """(order, element-order multiset, abelian, |center|, |derived|)."""
    orders: dict[int, int] = {}
    for p in g.elements:
        k = p.order()
        orders[k] = orders.get(k, 0) + 1
    return (
        g.order(),
        tuple(sorted(orders.items())),
        g.is_abelian,
        g.center().order(),
        g.derived_subgroup().order(),
    )


def _oracle(label: str) -> PermutationGroup:
    """The sympy group a model label names, factor by factor."""
    named = {"S4": SymmetricGroup(4), "A4": AlternatingGroup(4), "S3": SymmetricGroup(3),
             "D4": DihedralGroup(4), "D6": DihedralGroup(6)}
    factors = [named[f] if f in named else CyclicGroup(int(f[1:])) for f in label.split("x")]
    return factors[0] if len(factors) == 1 else DirectProduct(*factors)


NAMED_ORACLES = {label: _oracle(label) for label in _MODEL_GENERATORS}


class TestClosure:
    def test_cyclic_four(self):
        g = close_group([ROT4])
        assert g.order == 4
        assert sorted(g.element_orders()) == [1, 2, 4, 4]

    def test_shortest_words(self):
        # Depth in the BFS tree that isomorphism walks is word length.
        g = close_group([ROT4, FLIP])
        assert g.order == 8
        depth = {g._e: 0}
        for b, a, _ in g._tree:
            depth[b] = depth[a] + 1
        assert sorted(depth.values()) == [0, 1, 1, 2, 2, 2, 3, 3]

    def test_infinite_generator_rejected(self):
        with pytest.raises(NotFiniteOrder):
            close_group([SHEAR])

    def test_cap(self):
        with pytest.raises(OrderCapExceeded):
            close_group([ROT4], cap=3)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            close_group([mat([[2, 0], [0, 1]])])

    def test_element_order_guard(self):
        assert element_order(ROT4) == 4
        with pytest.raises(NotFiniteOrder):
            element_order(SHEAR, guard=20)


def c5_permutation_matrix():
    """A 5-cycle as a permutation matrix: C5 is none of the built-in models."""
    c5 = Permutation([1, 2, 3, 4, 0])
    return mat([[1 if c5(i) == j else 0 for i in range(5)] for j in range(5)])


def assert_isomorphism_by_matrix_products(model, group, phi):
    """phi is a bijection with phi(a·b) = phi(a)·phi(b), by mat_mul on all pairs."""
    assert sorted(phi) == list(range(group.order))
    image = {m: group.elements[phi[a]] for a, m in enumerate(model.elements)}
    for x in model.elements:
        for y in model.elements:
            assert image[mat_mul(x, y)] == mat_mul(image[x], image[y])


class TestRecognition:
    @pytest.mark.parametrize("gid", CATALOG_GROUPS)
    def test_catalog_group_has_a_checked_isomorphism(self, gid):
        g = group_for(gid)
        label = identify_iso_type(g)
        assert label == catalog().group(gid)["label"]
        model = group_for(label)
        phi = isomorphism(model, g)
        assert phi is not None
        assert_isomorphism_by_matrix_products(model, g, phi)

    def test_all_models_distinct_and_self_identifying(self):
        assert len(_MODEL_GENERATORS) == 18
        models = {label: group_for(label) for label in _MODEL_GENERATORS}
        for label, model in models.items():
            assert identify_iso_type(model) == label
        # Distinct by the search alone, without identify_iso_type's
        # element-order filter.
        pairs = 0
        for (l1, m1), (l2, m2) in combinations(models.items(), 2):
            if m1.order == m2.order:
                assert isomorphism(m1, m2) is None, (l1, l2)
                assert isomorphism(m2, m1) is None, (l2, l1)
                pairs += 1
        assert pairs == 11

    @pytest.mark.parametrize("name", list(_MODEL_GENERATORS) + LARGE_CATALOG_GROUPS)
    def test_model_profile_matches_sympy(self, name):
        g = group_for(name)
        label = name if name in _MODEL_GENERATORS else catalog().group(name)["label"]
        profile = perm_group_profile(regular_permutations(g))
        assert profile == perm_group_profile(NAMED_ORACLES[label])
        assert profile[:2] == (g.order, tuple(sorted(Counter(g.element_orders()).items())))

    def test_group_without_a_model_is_not_recognized(self, monkeypatch):
        g = close_group([c5_permutation_matrix()], cap=200)
        assert identify_iso_type(g) is None
        assert all(isomorphism(group_for(label), g) is None for label in _MODEL_GENERATORS)
        word_matrix.cache_clear()
        monkeypatch.setitem(qmi.catalog.MATRICES, "p5", c5_permutation_matrix())
        groups = {"G_C5": {"generators": ["p5"], "label": "C5"}}
        case = CaseRecord("iso_G_C5", "IsoType", "test", "a 5-cycle", {"group": "G_C5", "label": "C5"})
        report = run_case(Catalog(groups, [case]), case.id)
        word_matrix.cache_clear()
        assert report.status == "Fail"
        assert report.witness == "no built-in model is isomorphic, catalog says C5"


class TestStructure:
    def test_normal_subgroup_sizes_of_s4(self):
        g = close_group(_MODEL_GENERATORS["S4"], cap=200)
        sizes = [len(s) for s in g.normal_subgroups()]
        assert sizes == [1, 4, 12, 24]

    def test_normal_subgroups_of_v4_all_subgroups(self):
        g = close_group(_MODEL_GENERATORS["C2xC2"], cap=200)
        sizes = [len(s) for s in g.normal_subgroups()]
        assert sizes == [1, 2, 2, 2, 4]

    def test_normal_subgroups_of_d4(self):
        # center, the cyclic C4 and both Klein subgroups, plus the trivial pair
        g = close_group(_MODEL_GENERATORS["D4"], cap=200)
        sizes = sorted(len(s) for s in g.normal_subgroups())
        assert sizes == [1, 2, 4, 4, 4, 8]

    def test_conjugacy_class_count_matches_sympy_s4(self):
        g = close_group(_MODEL_GENERATORS["S4"], cap=200)
        assert len(g._class_indices()) == len(SymmetricGroup(4).conjugacy_classes())


class TestConjugation:
    def test_identity_conjugation(self):
        g = close_group([ROT4, FLIP])
        assert verify_conjugation(g, g, identity(2))

    def test_unimodular_conjugation(self):
        g = close_group([ROT4, FLIP])
        p = mat([[1, 1], [0, 1]])
        # Fraction entries: verify_conjugation clears denominators, and
        # close_group takes integral Fractions.
        pinv = sympy_inverse(p)
        gens = [mat_mul(mat_mul(pinv, m), p) for m in (ROT4, FLIP)]
        h = close_group(gens)
        assert verify_conjugation(g, h, p)
        assert verify_conjugation(h, g, pinv)

    def test_wrong_target_fails(self):
        g = close_group([ROT4, FLIP])
        h = close_group([ROT4])
        assert not verify_conjugation(g, h, identity(2))

    def test_smaller_left_group_fails(self):
        # Every generator of <ROT4> lies in <ROT4, FLIP>, but the image is
        # only half of it.
        g = close_group([ROT4])
        h = close_group([ROT4, FLIP])
        assert not verify_conjugation(g, h, identity(2))

    def test_nonintegral_conjugate_is_false_not_error(self):
        g = close_group([mat([[0, 1], [1, 0]])])
        p = mat([[1, 1], [1, -1]])  # inverse has halves; conjugates stay integral
        q = mat([[2, 0], [0, 1]])  # conjugate of the swap is non-integral
        assert not verify_conjugation(g, g, q)
        assert verify_conjugation(g, close_group([mat([[1, 0], [0, -1]])]), p)
        # The conjugate of r is [[-1, 0], [-1/2, 1]]; rounded down, it would
        # be r itself, so only an exact test says False.
        r = close_group([mat([[-1, 0], [-1, 1]])])
        assert not verify_conjugation(r, r, mat([[-1, 0], [-1, 2]]))

    def test_singular_matrix_is_false(self):
        # g·P = P·h holds here for every generator g (with h = g), but a
        # singular P conjugates nothing.
        g = close_group([mat([[0, 1], [1, 0]])])
        for p in (mat([[1, 1], [1, 1]]), mat([[0, 0], [0, 0]])):
            assert mat_mul(g.generators[0], p) == p
            assert not verify_conjugation(g, g, p)

    def test_every_generator_of_left_is_checked(self):
        # Equal orders, and the first generator of left lies in right; the
        # second does not.
        def diag(*signs):
            return mat([[s if i == j else 0 for j in range(3)] for i, s in enumerate(signs)])

        left = close_group([diag(-1, 1, 1), diag(1, -1, 1)])
        right = close_group([diag(-1, 1, 1), diag(1, 1, -1)])
        assert left.order == right.order == 4
        assert not verify_conjugation(left, right, identity(3))
        assert verify_conjugation(left, left, identity(3))


class TestReducibility:
    def test_diagonal_group_has_invariant_line(self):
        red, wit = q_reducible(close_group([FLIP]))
        assert red and wit["dim"] == 1

    def test_c3_rotation_plane_is_irreducible(self):
        red, wit = q_reducible(close_group([mat([[0, -1], [1, -1]])]))
        assert not red and wit is None

    def test_dimension_one_is_irreducible(self):
        assert q_reducible(close_group([mat([[-1]])])) == (False, None)
        assert q_reducible(close_group([mat([[1]])])) == (False, None)

    def test_dimension_four_rejected(self):
        # A quarter turn plus an order-3 rotation: reducible, but into two
        # planes, which a search for invariant lines cannot see.
        g = close_group([mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]])])
        with pytest.raises(ValueError):
            q_reducible(g)

    def test_witness_is_actual_eigenvector(self):
        gens = [
            mat([[0, 1, -1], [1, 0, -1], [0, 0, -1]]),
            mat([[0, -1, 1], [0, -1, 0], [1, -1, 0]]),
        ]
        red, wit = q_reducible(close_group(gens))
        assert red and wit["dim"] == 1
        v = wit["vector"]
        for s, g in zip(wit["signs"], gens):
            gv = tuple(sum(g[i][j] * v[j] for j in range(3)) for i in range(3))
            assert gv == tuple(s * x for x in v)

    def test_full_cube_group_irreducible(self):
        red, wit = q_reducible(close_group(_MODEL_GENERATORS["S4"]))
        assert not red


# -- reference structure by matrix products ----------------------------------
# These are the mat_mul / matrix inverse computations that the index
# tables of MatrixGroup replace, kept here as an independent reference
# (inverses by sympy).


def ref_inverses(g):
    out = {}
    for m in g.elements:
        inv = sympy_inverse(m)
        assert all(x.denominator == 1 for row in inv for x in row)
        h = mat(map(int, row) for row in inv)
        assert h in g
        out[m] = h
    return out


def ref_element_orders(g):
    return [element_order(m, guard=g.order) for m in g.elements]


def ref_conjugacy_classes(g):
    inv = ref_inverses(g)
    seen: set = set()
    classes = []
    for m in g.elements:
        if m in seen:
            continue
        orbit = {mat_mul(mat_mul(x, m), inv[x]) for x in g.elements}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def ref_cayley(g):
    idx = {m: i for i, m in enumerate(g.elements)}
    return [[idx[mat_mul(a, b)] for b in g.elements] for a in g.elements]


def ref_normal_subgroups(g):
    e = identity(g.dim)
    rest = [c for c in ref_conjugacy_classes(g) if e not in c]
    found = []
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            members = {e}.union(*combo)
            if g.order % len(members):
                continue
            if all(mat_mul(a, b) in members for a in members for b in members):
                found.append(tuple(sorted(members)))
    found.sort(key=lambda s: (len(s), s))
    return found


@pytest.mark.parametrize("name", CATALOG_GROUPS + list(_MODEL_GENERATORS))
def test_index_tables_match_matrix_products(name):
    g = group_for(name)
    assert {m: g.inverse(m) for m in g.elements} == ref_inverses(g)
    assert g.element_orders() == ref_element_orders(g)
    classes = tuple(tuple(g.elements[i] for i in c) for c in g._class_indices())
    assert classes == ref_conjugacy_classes(g)
    assert [list(row) for row in g._table()] == ref_cayley(g)
    assert g.normal_subgroups() == ref_normal_subgroups(g)


def test_table_is_associative_on_order_48():
    g = group_for("G_7_5_1")
    t = g._table()
    assert g.order == 48
    n = range(g.order)
    assert all(t[t[a][b]][c] == t[a][t[b][c]] for a in n for b in n for c in n)


# -- pruned sign search against the exhaustive one ---------------------------


def exhaustive_q_reducible(generators):
    """q_reducible with every sign tuple tried in product((1, -1), ...) order.

    Kernels come from sympy's nullspace, whose first vector (from the first
    free column of the rref) spans the same line as q_reducible's witness.
    """
    gens = [mat(g) for g in generators]
    n = len(gens[0])
    if n == 1:
        return False, None
    for signs in product((1, -1), repeat=len(gens)):
        rows = []
        for s, g in zip(signs, gens):
            for i in range(n):
                rows.append([g[i][j] - (s if i == j else 0) for j in range(n)])
        basis = Matrix(rows).nullspace()
        if basis:
            return True, {"dim": 1, "vector": primitive(list(basis[0])), "signs": signs}
    return False, None


def test_pruned_sign_search_matches_exhaustive():
    names = CATALOG_GROUPS + [
        name for name, gens in _MODEL_GENERATORS.items() if len(gens[0]) <= 3
    ]
    seen = set()
    for name in names:
        got = q_reducible(group_for(name))
        assert got == exhaustive_q_reducible(generators_for(name))
        seen.add(got[0])
    assert seen == {True, False}


# -- the integer layer against sympy -------------------------------------------


@st.composite
def int_matrices(draw, rows=None):
    """An integer matrix, 2x2 to 4x4 (or rows x n), of rank at most r, r drawn from 0..n.

    It is the product of a rows x r and an r x n matrix, so singular and
    rank-deficient inputs are common, not a rarity of random entries.
    """
    n = draw(st.integers(2, 4))
    m = rows if rows is not None else n
    r = draw(st.integers(0, n))
    entries = st.integers(-3, 3)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(m)]


@given(int_matrices())
@settings(max_examples=200, deadline=None)
def test_det_matches_sympy(a):
    det = mat_det(mat(a))
    assert type(det) is int
    assert det == Matrix(a).det()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_basis_is_a_primitive_basis_of_the_nullspace(data):
    rows = data.draw(int_matrices(rows=data.draw(st.integers(1, 6))))
    width = len(rows[0])
    basis = _kernel_basis(rows, width)
    assert len(basis) == len(Matrix(rows).nullspace())
    for v in basis:
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1 and next(x for x in v if x) > 0
        assert all(sum(map(mul, row, v)) == 0 for row in rows)
    if basis:
        assert Matrix(basis).rank() == len(basis)


# Conjugators of determinant +-2; the property test multiplies them on the
# left by words in the unimodular catalog matrices.
HALVINGS = [
    mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
    mat([[1, 1, 0], [-1, 1, 0], [0, 0, 1]]),
    mat([[1, 0, 1], [0, 1, 1], [1, 1, 0]]),
    mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
]
UNIMODULAR = sorted(name for name, m in MATRICES.items() if abs(Matrix(m).det()) == 1)


def sympy_conjugates(group, p):
    """P.inv()·g·P by sympy for each generator g, or None if one is non-integral."""
    pinv, pm = Matrix(p).inv(), Matrix(p)
    out = []
    for g in group.generators:
        h = pinv * Matrix(g) * pm
        if not all(x.is_integer for x in h):
            return None
        out.append(mat(map(int, row) for row in h.tolist()))
    return out


def ref_conjugation(left, right, conjugates) -> bool:
    """verify_conjugation's verdict from left's sympy conjugates."""
    if left.order != right.order or conjugates is None:
        return False
    return all(h in right for h in conjugates)


@given(
    st.sampled_from(CATALOG_GROUPS),
    st.sampled_from(CATALOG_GROUPS),
    st.sampled_from(HALVINGS),
    st.lists(st.sampled_from(UNIMODULAR), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_conjugation_by_a_det_two_matrix_matches_sympy(gid, other, halving, word):
    p = halving
    for name in word:
        p = mat_mul(MATRICES[name], p)
    left = group_for(gid)
    conjugates = sympy_conjugates(left, p)
    targets = [left, group_for(other)]
    if conjugates is not None:
        targets.append(close_group(conjugates))
        assert verify_conjugation(left, targets[-1], p)
    for right in targets:
        assert verify_conjugation(left, right, p) == ref_conjugation(left, right, conjugates)


def test_det_two_conjugation_both_ways():
    # One conjugator carries some catalog groups onto integral images and
    # not others.
    p = HALVINGS[1]
    integral = set()
    for gid in CATALOG_GROUPS:
        left = group_for(gid)
        conjugates = sympy_conjugates(left, p)
        integral.add(conjugates is not None)
        right = left if conjugates is None else close_group(conjugates)
        assert verify_conjugation(left, right, p) == (conjugates is not None)
    assert integral == {True, False}
