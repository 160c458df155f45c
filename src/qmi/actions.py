"""Field automorphisms acting on rational function fields.

An Automorphism is a pair (root signs, variable bindings): it first flips
the declared roots by the signs, then substitutes each variable by its
binding. Flipping happens to the *argument*, never to the bindings
themselves, so composition reads (sigma tau)(f) = sigma(tau(f)) and the
matrix of a composed quasi-monomial action is the product of matrices.
Equality and the hash read (context, signs, bindings); the bindings are
canonical RatFuncs, so equal automorphisms have equal triples.

Quasi-monomial actions come from an integer matrix whose column j is the
exponent vector of the image of variable j, an optional sign per root,
and an optional constant multiplier per variable.

`close_action` closes a finite group of automorphisms without composing
any of them. sigma is determined by its signs and the images sigma(x_j),
so a group G acts faithfully on O, the union of the G-orbits of the
variables, and sigma is stored as the pair (permutation of O, signs).
Only the orbits cost substitutions: |O| applications per generator.
`orbit_sum` sums a seed over G the same way: it closes the seed's orbit
and weights its points by the stabilizer's order. Every orbit and the
group itself are closed by the one breadth-first search,
`matgroup._closure`.

The check_* functions are the verification primitives. They work on raw
(num, den) pairs and decide everything by cross-multiplied zero tests;
nothing on these paths computes a gcd. Each names what it compares;
`_failures` returns one record per unequal comparison (none: verified),
whose `witness` is the difference Poly. `runner._format_failures` writes text.

`check_inverse_pair` proves a birational change of generators from one
direction when the converse follows from it. Let phi: v_y -> F_y(t) and
psi: t_x -> B_x(v) be the two substitutions, over one constant field K
with n variables on each side. If phi(B_x) = t_x for every source
variable t_x, then K(F_1, ..., F_n) contains every t_x, so it is K(t),
of transcendence degree n; its n generators are therefore algebraically
independent. So phi is a K-isomorphism K(v) -> K(t), psi = phi^-1, and
F_y(B) = psi(phi(v_y)) = v_y holds with no pole. The variable counts
and the constants must both agree: t -> (t, t^2) with v1 -> t passes
the first direction and fails the second, and a parameter that only the
source declares makes the second direction raise UnknownSymbol.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .context import Context
from .errors import InconsistentAction, OrderCapExceeded
from .matgroup import _closure, mat, mat_det
from .poly import Poly
from .ratfunc import (
    Pair,
    RatFunc,
    _raw_difference,
    _resolve_sign_keys,
    apply_root_signs_poly,
    substitute_raw,
)


class Automorphism:
    __slots__ = ("ctx", "signs", "bindings")

    def __init__(
        self,
        ctx: Context,
        bindings: Mapping[str, RatFunc] | Sequence[RatFunc],
        signs: Mapping[str, int] | Sequence[int] | None = None,
    ) -> None:
        if isinstance(bindings, Mapping):
            missing = [v for v in ctx.variables if v not in bindings]
            if missing:
                raise ValueError(f"no binding for variables {missing}")
            unknown = [v for v in bindings if v not in ctx.variables]
            if unknown:
                raise ValueError(f"bindings for names that are not variables: {unknown}")
            seq = [bindings[v] for v in ctx.variables]
        else:
            seq = list(bindings)
            if len(seq) != len(ctx.variables):
                raise ValueError("one binding per variable required")
        for b in seq:
            if b.ctx != ctx:
                raise ValueError("bindings must live in the same context")
            if b.is_zero():
                raise ValueError("a variable cannot map to 0")
        self.ctx = ctx
        self.bindings = tuple(seq)
        if signs is None:
            self.signs = (1,) * len(ctx.rooted)
        elif isinstance(signs, Mapping):
            flips = set(_resolve_sign_keys(ctx, signs))
            self.signs = tuple(-1 if i in flips else 1 for i in range(len(ctx.rooted)))
        else:
            if len(signs) != len(ctx.rooted) or any(s not in (1, -1) for s in signs):
                raise ValueError("signs must be one +-1 per declared root")
            self.signs = tuple(signs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, ctx: Context) -> "Automorphism":
        return cls(ctx, [RatFunc.named(ctx, v) for v in ctx.variables])

    @classmethod
    def monomial(
        cls,
        ctx: Context,
        matrix: Sequence[Sequence[int]],
        signs: Mapping[str, int] | Sequence[int] | None = None,
        multipliers: Sequence[RatFunc] | None = None,
    ) -> "Automorphism":
        """Quasi-monomial action; column j is the image exponents of var j."""
        n = len(ctx.variables)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"matrix must be {n}x{n}")
        matrix = mat(matrix)
        integral = all(isinstance(e, int) for row in matrix for e in row)
        if not integral or mat_det(matrix) not in (1, -1):
            raise ValueError("exponent matrix must lie in GL_n(Z)")
        if multipliers is not None:
            if len(multipliers) != n:
                raise ValueError("one multiplier per variable required")
            for m in multipliers:
                if m.is_zero():
                    raise ValueError("multipliers must be nonzero")
                if any(m.ctx.is_variable(i) for i in m.num.uses() | m.den.uses()):
                    raise ValueError("multipliers must be constants")
        bindings = []
        for j in range(n):
            image = RatFunc.const(ctx, 1) if multipliers is None else multipliers[j]
            for i in range(n):
                e = matrix[i][j]
                if e:
                    image = image * RatFunc.named(ctx, ctx.variables[i]) ** e
            bindings.append(image)
        return cls(ctx, bindings, signs)

    # -- application and composition ----------------------------------------

    def apply_raw(self, f: Pair) -> Pair:
        num, den = f
        flips = [r for r, s in enumerate(self.signs) if s < 0]
        if flips:
            num = apply_root_signs_poly(num, flips)
            den = apply_root_signs_poly(den, flips)
        binds = {v: b for v, b in zip(self.ctx.variables, self.bindings)}
        return substitute_raw((num, den), binds)

    def apply(self, f: RatFunc) -> RatFunc:
        num, den = self.apply_raw((f.num, f.den))
        return RatFunc(num, den)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other))(f) = self(other(f))."""
        if self.ctx != other.ctx:
            raise ValueError("mixed contexts")
        new_bindings = [self.apply(b) for b in other.bindings]
        new_signs = tuple(a * b for a, b in zip(self.signs, other.signs))
        return Automorphism(self.ctx, new_bindings, new_signs)

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        return self.compose(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        # ctx first: bindings of different contexts are never compared.
        return (self.ctx, self.signs, self.bindings) == (other.ctx, other.signs, other.bindings)

    def __hash__(self) -> int:
        return hash((self.ctx, self.signs, self.bindings))

    def __repr__(self) -> str:
        parts = [f"{v} -> {b}" for v, b in zip(self.ctx.variables, self.bindings)]
        for p, s in zip(self.ctx.rooted, self.signs):
            if s < 0:
                parts.append(f"sqrt({p}) -> -sqrt({p})")
        return "Automorphism(" + "; ".join(parts) + ")"


def close_action(
    generators: Sequence[Automorphism], cap: int = 10000
) -> list[Automorphism]:
    """Closure under composition, identity first, breadth-first order.

    An automorphism sigma is determined by its root signs and the images
    sigma(x_j), so the group G acts faithfully on O, the union of the
    G-orbits of the variables. Each variable not yet in O gets its orbit
    from `matgroup._closure`, multiplying a point by a generator with
    `Automorphism.apply` (a RatFunc is its own key: equal values have
    equal canonical parts, so equal hashes). The orbit's `products`,
    offset by its start in O, are the generators' index maps on O.
    It then closes the pairs (permutation of O, signs) with `_closure`:
    the product is (pi_a . pi_g, s_a * s_g), since (a g)(p) = a(g(p)).
    Element j is read back as x_k -> O[pi_j(x_k)] with signs s_j. No
    symbolic compose runs.

    The pairs of two elements are equal exactly when their signs and
    variable images are, which is when the automorphisms are equal, so
    the elements and their BFS order are those of closing under
    `Automorphism.compose` with `_closure`.

    Raises InconsistentAction if an orbit reaches a point of an earlier
    orbit (orbits of a group are disjoint or equal) or a generator is
    not injective on O. Otherwise each generator g permutes the finite
    O, so g^m fixes every point of O and every sign for m twice the
    order of that permutation: g^m = id, g has finite order, and the
    closure is a group. Raises OrderCapExceeded once one orbit exceeds
    `cap` points (an orbit of G has at most |G| points, so an
    infinite-order generator stops there) or the closure exceeds `cap`
    elements.
    """
    if not generators:
        raise ValueError("no generators")
    ctx = generators[0].ctx
    if any(g.ctx != ctx for g in generators):
        raise ValueError("mixed contexts")
    points: list[RatFunc] = []
    index: dict[RatFunc, int] = {}
    maps: list[list[int]] = [[] for _ in generators]
    where = []
    for v in ctx.variables:
        x = RatFunc.named(ctx, v)
        if x not in index:
            start = len(points)
            orbit, products, _ = _closure(x, generators, _image, cap)
            for p in orbit:
                if p in index:
                    raise InconsistentAction(f"the orbit of {v} meets an earlier variable orbit")
                index[p] = len(points)
                points.append(p)
            for m, col in zip(maps, products):
                m.extend(k + start for k in col)
        where.append(index[x])
    if any(len(set(m)) != len(points) for m in maps):
        raise InconsistentAction("a generator does not act injectively on the variable orbits")
    ident = (tuple(range(len(points))), (1,) * len(ctx.rooted))
    gens = [(tuple(m), g.signs) for m, g in zip(maps, generators)]
    pairs, _, _ = _closure(ident, gens, _pair_product, cap)
    return [
        Automorphism(ctx, [points[perm[k]] for k in where], signs) for perm, signs in pairs
    ]


def _image(point: RatFunc, g: Automorphism) -> RatFunc:
    """g(point): the orbit step of `_closure`."""
    return g.apply(point)


def _pair_product(a, g):
    """(pi_a . pi_g, s_a * s_g): the pair of a after g."""
    (pa, sa), (pg, sg) = a, g
    return tuple(pa[k] for k in pg), tuple(x * y for x, y in zip(sa, sg))


def orbit_sum(seed: RatFunc, generators: Sequence[Automorphism]) -> RatFunc:
    """The sum of sigma(seed) over the group G the generators generate.

    By orbit-stabilizer, each point t of the orbit G.seed is sigma(seed)
    for exactly |G_seed| = |G| / |G.seed| elements sigma, so the sum is
    |G| / |G.seed| times the sum of the orbit's points. |G| comes from
    `close_action`, with its cap and injectivity checks. The orbit is
    `matgroup._closure` of the seed under `Automorphism.apply`, capped at
    |G|, as in `close_action`: |G.seed| * |gens| applications and
    |G.seed| - 1 additions, where the sum over G takes |G| of each.

    Raises InconsistentAction if the orbit outgrows |G| or its size does
    not divide |G|; a group action never gets there.
    """
    order = len(close_action(generators))
    try:
        points, _, _ = _closure(seed, generators, _image, order)
    except OrderCapExceeded:
        raise InconsistentAction(f"orbit of the seed exceeds the group order {order}") from None
    if order % len(points):
        raise InconsistentAction(
            f"orbit of {len(points)} points does not divide the group order {order}"
        )
    total = points[0]
    for t in points[1:]:
        total = total + t
    return total * RatFunc.const(seed.ctx, order // len(points))


# -- verification primitives ----------------------------------------------


def _witness(a: Pair, b: Pair) -> Poly | None:
    """None when a and b are equal; else their nonzero raw difference.

    The zero test of a[0]*b[1] - b[0]*a[1] runs in the two steps of the
    ratfunc module docstring: equal pairs pass with nothing multiplied;
    otherwise the folded difference is formed (ratfunc._raw_difference,
    in one packed integer where both products would be packed) and
    read.
    """
    if a[1] == b[1] and a[0] == b[0]:
        return None
    diff = _raw_difference(a, b)
    return None if diff.is_zero() else diff


def _failures(comparisons: Iterable[tuple[dict, Pair, Pair]]) -> list[dict]:
    """{**labels, "witness": difference} for each (labels, a, b) whose pairs differ."""
    diffs = ((labels, _witness(a, b)) for labels, a, b in comparisons)
    return [{**labels, "witness": diff} for labels, diff in diffs if diff is not None]


def check_invariance(
    actions: Mapping[str, Automorphism],
    exprs: Mapping[str, RatFunc],
) -> list[dict]:
    """Is every expression fixed by every action?"""
    return _failures(
        ({"action": aname, "expr": ename}, sigma.apply_raw((f.num, f.den)), (f.num, f.den))
        for aname, sigma in actions.items()
        for ename, f in exprs.items()
    )


def check_induced_action(
    sigma: Automorphism,
    forward: Mapping[str, RatFunc],
    claimed: Mapping[str, RatFunc],
    images: dict[RatFunc, Pair] | None = None,
) -> list[dict]:
    """Does sigma induce the claimed action on the image generators?

    forward: new generator name -> expression over the source context.
    claimed: new generator name -> expression over the *new* context (its
    variables are the new generator names).

    Verified relation, for each name u: sigma(forward[u]) equals
    claimed[u] with every new variable replaced by its forward expression.

    images, when given, maps each claimed expression already substituted
    by this forward map to its image, and gains the images computed here:
    a caller that checks several actions against one forward map passes
    one dict to all of them, so each distinct claimed expression is
    substituted once. The image depends only on the expression and the
    forward map, so the records are those of substituting every time.
    """
    fw_pairs = {u: (f.num, f.den) for u, f in forward.items()}
    if images is None:
        images = {}

    def image(claim: RatFunc) -> Pair:
        if claim not in images:
            images[claim] = substitute_raw((claim.num, claim.den), fw_pairs, target=sigma.ctx)
        return images[claim]

    return _failures(
        ({"generator": u}, sigma.apply_raw(pair), image(claimed[u]))
        for u, pair in fw_pairs.items()
    )


def check_inverse_pair(
    forward: Mapping[str, RatFunc],
    backward: Mapping[str, RatFunc],
    source: Context,
    target: Context,
) -> list[dict]:
    """Are the two substitution families mutually inverse?

    forward: target variable name -> expression over `source`.
    backward: source variable name -> expression over `target`.
    Checks backward-then-forward on every source variable, then
    forward-then-backward on every target variable, unless the first
    direction proved the second. It does when it found no failure,
    backward binds every source variable and its expressions live in
    `target`, the two contexts have equal variable counts, and they have
    the same constants (field, parameters, roots and specialized values).
    Then forward and backward are the isomorphisms phi and phi^-1 of the
    module docstring, so every F_y(B) equals y with no pole. Otherwise
    the second direction runs, so its failure records, their order and
    any error it raises are those of checking both directions.
    """
    failures = _composition_failures("backward-after-forward", backward, forward, source)
    if failures or not _converse_follows(backward, source, target):
        failures += _composition_failures("forward-after-backward", forward, backward, target)
    return failures


def _composition_failures(
    direction: str,
    outer: Mapping[str, RatFunc],
    inner: Mapping[str, RatFunc],
    ctx: Context,
) -> list[dict]:
    """One record per outer name whose expression, with inner substituted, is not it."""
    pairs = {name: (f.num, f.den) for name, f in inner.items()}
    one = Poly.const(ctx, 1)
    return _failures(
        ({"variable": name, "direction": direction},
         substitute_raw((expr.num, expr.den), pairs, target=ctx), (Poly.named(ctx, name), one))
        for name, expr in outer.items()
    )


def _converse_follows(backward: Mapping[str, RatFunc], source: Context, target: Context) -> bool:
    """Does a passing backward-after-forward prove forward-after-backward?"""
    return (
        backward.keys() == set(source.variables)
        and len(source.variables) == len(target.variables)
        and all(b.ctx == target for b in backward.values())
        and _constants(source) == _constants(target)
    )


def _constants(ctx: Context) -> tuple:
    return ctx.field, ctx.parameters, ctx.rooted, ctx.constants


def check_identity(lhs: RatFunc, rhs: RatFunc) -> list[dict]:
    """Is lhs equal to rhs?"""
    return _failures([({}, (lhs.num, lhs.den), (rhs.num, rhs.den))])
