"""Automorphism semantics and the generic verification checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qmi import QQ, Context, InconsistentAction, OrderCapExceeded, RatFunc, UnknownSymbol, actions, parse
from qmi.actions import (
    Automorphism,
    check_identity,
    check_induced_action,
    check_invariance,
    check_inverse_pair,
    close_action,
    orbit_sum,
)
from qmi.catalog import build_action, build_context, builtin_catalog, word_matrix
from qmi.matgroup import _closure, close_group, mat, mat_mul
from qmi.ratfunc import substitute_raw

CTX3 = Context(QQ, variables=["x1", "x2", "x3"])

CAA = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
CB = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
NEG_BETA3 = [[-1, 0, 1], [0, -1, 1], [0, 0, 1]]


class TestMonomial:
    def test_columns_are_image_exponents(self):
        sigma = Automorphism.monomial(CTX3, CAA)
        assert sigma.bindings[0] == parse(CTX3, "x2")
        assert sigma.bindings[1] == parse(CTX3, "1/x1")
        assert sigma.bindings[2] == parse(CTX3, "x3")

    def test_order_four_twist(self):
        sigma = Automorphism.monomial(CTX3, CAA)
        t = parse(CTX3, "(x1*x2-1)/(x1-x2)")
        assert sigma.apply(t) == -(t**-1)

    def test_compose_matches_matrix_product(self):
        a = Automorphism.monomial(CTX3, CAA)
        b = Automorphism.monomial(CTX3, CB)
        ab = Automorphism.monomial(CTX3, mat_mul(mat(CAA), mat(CB)))
        assert a.compose(b) == ab

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            Automorphism.monomial(CTX3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5], ids=["fraction", "float"])
    def test_non_integer_exponent_rejected(self, entry):
        # det = 1, so only the entry check can reject it.
        ctx = Context(QQ, variables=["x1", "x2"])
        with pytest.raises(ValueError, match="GL_n"):
            Automorphism.monomial(ctx, [[entry, 0], [0, 2]])

    def test_binding_of_a_name_that_is_not_a_variable_rejected(self):
        ctx = Context(QQ, variables=["x1"])
        with pytest.raises(ValueError, match="x9"):
            Automorphism(ctx, {"x1": parse(ctx, "x1"), "x9": parse(ctx, "x1")})

    def test_multiplier_must_be_constant(self):
        ctx = Context(QQ, variables=["x1"], parameters=["c"])
        Automorphism.monomial(ctx, [[1]], multipliers=[parse(ctx, "c")])
        with pytest.raises(ValueError):
            Automorphism.monomial(ctx, [[1]], multipliers=[parse(ctx, "x1")])
        with pytest.raises(ValueError):
            Automorphism.monomial(ctx, [[1]], multipliers=[parse(ctx, "0")])


class TestSignsFirst:
    CTX = Context(QQ, variables=["x1"], parameters=["a"], roots=["a"])

    def sigma(self):
        return Automorphism(
            self.CTX,
            {"x1": parse(self.CTX, "sqrt(a)*x1")},
            {"a": -1},
        )

    def test_signs_apply_to_argument_not_bindings(self):
        s = self.sigma()
        assert s.apply(parse(self.CTX, "sqrt(a)")) == parse(self.CTX, "-sqrt(a)")
        assert s.apply(parse(self.CTX, "x1")) == parse(self.CTX, "sqrt(a)*x1")
        # flip happens before substitution: sqrt(a)*x1 -> -sqrt(a)*(sqrt(a)*x1)
        assert s.apply(parse(self.CTX, "sqrt(a)*x1")) == parse(self.CTX, "-a*x1")

    def test_square_has_trivial_signs(self):
        s = self.sigma()
        sq = s.compose(s)
        assert sq.signs == (1,)
        assert sq.apply(parse(self.CTX, "x1")) == parse(self.CTX, "-a*x1")


class TestClosure:
    def test_action_closure_matches_matrix_closure(self):
        gens_m = [mat(CB), mat(NEG_BETA3)]
        expected = close_group(gens_m).order
        auts = [Automorphism.monomial(CTX3, g) for g in gens_m]
        got = close_action(auts)
        assert len(got) == expected
        assert got[0] == Automorphism.identity(CTX3)

    def test_identity_alone(self):
        assert len(close_action([Automorphism.identity(CTX3)])) == 1

    def test_cap(self):
        sigma = Automorphism.monomial(CTX3, CAA)  # order 4
        assert len(close_action([sigma], cap=4)) == 4
        with pytest.raises(OrderCapExceeded):
            close_action([sigma], cap=3)

    def test_non_injective_generator_raises(self):
        ctx = Context(QQ, variables=["x1", "x2"])
        collapse = Automorphism(ctx, {"x1": parse(ctx, "x1"), "x2": parse(ctx, "x1")})
        # {id, collapse} is closed, but collapse.compose(collapse) == collapse.
        with pytest.raises(InconsistentAction):
            close_action([collapse])
        collapse3 = Automorphism(CTX3, [parse(CTX3, v) for v in ("x1", "x1", "x3")])
        with pytest.raises(InconsistentAction):
            close_action([Automorphism.monomial(CTX3, CB), collapse3])

    def test_orbit_that_meets_an_earlier_orbit_raises(self):
        # The orbit of x1 is {x1}, and collapse sends x2 into it; the orbits
        # of a group are disjoint or equal.
        ctx = Context(QQ, variables=["x1", "x2"])
        collapse = Automorphism(ctx, {"x1": parse(ctx, "x1"), "x2": parse(ctx, "x1")})
        with pytest.raises(InconsistentAction, match="orbit of x2 meets an earlier variable orbit"):
            close_action([collapse])

    def test_root_sign_flip_of_finite_order(self):
        ctx = Context(QQ, variables=["x1", "x2"], parameters=["a"], roots=["a"])
        # x1 -> sqrt(a)/x1 with sqrt(a) -> -sqrt(a): its square is x1 -> -x1.
        sigma = Automorphism(ctx, {"x1": parse(ctx, "sqrt(a)/x1"), "x2": parse(ctx, "x2")},
                             {"a": -1})
        tau = Automorphism.monomial(ctx, [[1, 0], [0, -1]])  # x2 -> 1/x2, commutes
        assert len(close_action([sigma])) == 4
        got = close_action([sigma, tau])
        assert len(got) == 8

    def test_sign_flip_alone_has_order_two(self):
        ctx = Context(QQ, variables=["x1"], parameters=["a"], roots=["a"])
        flip = Automorphism(ctx, {"x1": parse(ctx, "x1")}, {"a": -1})
        got = close_action([flip])
        assert [g.signs for g in got] == [(1,), (-1,)]
        assert all(g.bindings == (parse(ctx, "x1"),) for g in got)

    def test_infinite_order_generator_hits_the_cap(self):
        ctx = Context(QQ, variables=["x1"])
        double = Automorphism(ctx, {"x1": parse(ctx, "2*x1")})
        with pytest.raises(OrderCapExceeded):
            close_action([double], cap=5)

    def test_mixed_contexts_rejected(self):
        other = Context(QQ, variables=["y1", "y2", "y3"])
        with pytest.raises(ValueError):
            close_action([Automorphism.monomial(CTX3, CB), Automorphism.monomial(other, CB)])

    @pytest.mark.parametrize("gid", ["G_5_2_1", "G_5_5_1", "G_4_7_1", "G_6_7_1", "G_7_5_1"])
    def test_builtin_groups_close_with_one_compose_per_element_and_generator(
        self, gid, monkeypatch
    ):
        # The composes are of (permutation, signs) pairs, none symbolic.
        calls = {"pair": 0, "symbolic": 0}
        pair_product = actions._pair_product
        symbolic = Automorphism.compose

        def counting_pair(a, g):
            calls["pair"] += 1
            return pair_product(a, g)

        def counting_symbolic(self, other):
            calls["symbolic"] += 1
            return symbolic(self, other)

        monkeypatch.setattr(actions, "_pair_product", counting_pair)
        monkeypatch.setattr(Automorphism, "compose", counting_symbolic)
        mats = [word_matrix(w) for w in builtin_catalog().group(gid)["generators"]]
        gens = [Automorphism.monomial(CTX3, m) for m in mats]
        got = close_action(gens)
        assert len(got) == close_group(mats).order
        assert calls == {"pair": len(got) * len(gens), "symbolic": 0}

    @pytest.mark.parametrize("gid", sorted(builtin_catalog().groups))
    def test_builtin_groups_close_without_compose(self, gid, monkeypatch):
        mats = [word_matrix(w) for w in builtin_catalog().group(gid)["generators"]]
        gens = [Automorphism.monomial(CTX3, m) for m in mats]
        ident = Automorphism.identity(CTX3)
        reference, _, _ = _closure(ident, gens, Automorphism.compose, 10000)
        # O, the union of the variable orbits: every point is some sigma(x_j).
        points = {b for sigma in reference for b in sigma.bindings}
        counts = {"compose": 0, "apply": 0}

        def counted(name):
            original = getattr(Automorphism, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(Automorphism, name, counted(name))
        got = close_action(gens)
        assert got == reference
        assert len(got) == close_group(mats).order
        assert counts == {"compose": 0, "apply": len(points) * len(gens)}


def actg_orbit_sum_spec():
    """(seed, [cb, mbe3]) of the orbit sum in sys7iii_case1_actg."""
    payload = builtin_catalog().case("sys7iii_case1_actg").payload
    ctx = build_context(payload["context"])
    spec = payload["forward"]["p1"]["orbit_sum"]
    gens = [build_action(ctx, payload["actions"][n]) for n in spec["group"]]
    return parse(ctx, spec["of"]), gens


def naive_orbit_sum(seed, gens):
    """The sum over the group of sigma(seed), with the images."""
    images = [sigma.apply(seed) for sigma in close_action(gens)]
    total = images[0]
    for image in images[1:]:
        total = total + image
    return total, images


class TestOrbitSum:
    def test_actg_seed_has_a_stabilizer_of_order_four(self):
        seed, gens = actg_orbit_sum_spec()
        expected, images = naive_orbit_sum(seed, gens)
        assert (len(images), len(set(images))) == (24, 6)
        assert orbit_sum(seed, gens) == expected

    def test_trivial_stabilizer(self):
        gens = [Automorphism.monomial(CTX3, CB), Automorphism.monomial(CTX3, NEG_BETA3)]
        seed = parse(CTX3, "x1 + 2*x2^2")
        expected, images = naive_orbit_sum(seed, gens)
        assert len(set(images)) == len(images) > 1
        assert orbit_sum(seed, gens) == expected

    def test_invariant_seed_is_multiplied_by_the_group_order(self):
        swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        gens = [Automorphism.monomial(CTX3, CB), Automorphism.monomial(CTX3, swap)]
        seed = parse(CTX3, "x1 + x2 + x3")
        expected, images = naive_orbit_sum(seed, gens)
        assert set(images) == {seed}
        assert orbit_sum(seed, gens) == expected == seed * RatFunc.const(CTX3, len(images))

    def test_actg_applies_each_generator_once_per_orbit_point(self, monkeypatch):
        seed, gens = actg_orbit_sum_spec()
        calls = {"apply": 0}
        apply = Automorphism.apply

        def counting(self, f):
            calls["apply"] += 1
            return apply(self, f)

        monkeypatch.setattr(Automorphism, "apply", counting)
        close_action(gens)
        closing = calls["apply"]
        orbit_sum(seed, gens)
        # 6 orbit points times 2 generators, on top of the closure's own.
        assert calls["apply"] - 2 * closing == 12

    @pytest.mark.parametrize("order", [2, 5])
    def test_orbit_that_does_not_fit_the_group_order_is_inconsistent(self, order, monkeypatch):
        # x1 has an orbit of 3 points under CB; a group of order 2 cannot
        # hold it, and 3 does not divide 5.
        gens = [Automorphism.monomial(CTX3, CB)]
        monkeypatch.setattr(actions, "close_action", lambda gens: [None] * order)
        with pytest.raises(InconsistentAction):
            orbit_sum(parse(CTX3, "x1"), gens)


class TestChecks:
    def test_invariance_pass_and_fail(self):
        sigma = Automorphism.monomial(CTX3, CAA)
        t = parse(CTX3, "(x1*x2-1)/(x1-x2)")
        fixed = t * sigma.apply(t)  # t maps to -1/t, so the product is fixed
        assert check_invariance({"s": sigma}, {"c": fixed}) == []
        failures = check_invariance({"s": sigma}, {"t": t})
        assert len(failures) == 1 and failures[0]["witness"]

    def test_induced_action(self):
        ctx = Context(QQ, variables=["x1"])
        new = Context(QQ, variables=["u"])
        sigma = Automorphism.monomial(ctx, [[-1]])  # x -> 1/x
        forward = {"u": parse(ctx, "x1+1/x1")}
        claimed_ok = {"u": parse(new, "u")}
        claimed_bad = {"u": parse(new, "u+1")}
        assert check_induced_action(sigma, forward, claimed_ok) == []
        assert check_induced_action(sigma, forward, claimed_bad)

    def test_inverse_pair(self):
        src = Context(QQ, variables=["x1"])
        tgt = Context(QQ, variables=["u"])
        forward = {"u": parse(src, "(1+x1)/(1-x1)")}
        backward = {"x1": parse(tgt, "(u-1)/(u+1)")}
        assert check_inverse_pair(forward, backward, src, tgt) == []
        broken = {"x1": parse(tgt, "(u+1)/(u-1)")}
        fails = check_inverse_pair(forward, broken, src, tgt)
        # A failed first direction does not prove the second: both run.
        assert [(f["variable"], f["direction"]) for f in fails] == [
            ("x1", "backward-after-forward"),
            ("u", "forward-after-backward"),
        ]
        assert all(f["witness"] for f in fails)

    def test_inverse_pair_checks_one_direction_when_it_proves_the_other(self, monkeypatch):
        src = Context(QQ, variables=["x1", "x2"], parameters=["a"], roots=["a"])
        tgt = Context(QQ, variables=["u1", "u2"], parameters=["a"], roots=["a"])
        forward = {"u1": parse(src, "sqrt(a)*x1"), "u2": parse(src, "x2/(1+x1)")}
        backward = {"x1": parse(tgt, "u1/sqrt(a)"), "x2": parse(tgt, "u2*(1+u1/sqrt(a))")}
        calls = []

        def counting(f, bindings, target=None):
            calls.append(target)
            return substitute_raw(f, bindings, target)

        monkeypatch.setattr(actions, "substitute_raw", counting)
        assert check_inverse_pair(forward, backward, src, tgt) == []
        assert calls == [src, src]

    def test_inverse_pair_with_unequal_variable_counts_checks_both_directions(self):
        # t -> (t, t^2) with v1 -> t is a left inverse only.
        src = Context(QQ, variables=["t"])
        tgt = Context(QQ, variables=["v1", "v2"])
        forward = {"v1": parse(src, "t"), "v2": parse(src, "t^2")}
        backward = {"t": parse(tgt, "v1")}
        fails = check_inverse_pair(forward, backward, src, tgt)
        assert [(f["variable"], f["direction"]) for f in fails] == [("v2", "forward-after-backward")]

    def test_inverse_pair_that_misses_its_contexts_checks_both_directions(self):
        # Backward binds only x1 of x1, x2: the second direction sends x2
        # to a target that does not declare it.
        src = Context(QQ, variables=["x1", "x2"])
        tgt = Context(QQ, variables=["u1", "u2"])
        forward = {"u1": parse(src, "x1"), "u2": parse(src, "x2")}
        with pytest.raises(UnknownSymbol):
            check_inverse_pair(forward, {"x1": parse(tgt, "u1")}, src, tgt)
        # Backward lives in a context other than the target.
        src = Context(QQ, variables=["x1"], parameters=["a"])
        tgt = Context(QQ, variables=["u"], parameters=["a"])
        other = Context(QQ, variables=["u"])
        with pytest.raises(ValueError, match="wrong context"):
            check_inverse_pair({"u": parse(src, "x1")}, {"x1": parse(other, "u")}, src, tgt)

    def test_inverse_pair_with_other_constants_checks_both_directions(self):
        # The second direction maps the source's parameter into a target
        # that does not declare it.
        src = Context(QQ, variables=["x1"], parameters=["a"])
        tgt = Context(QQ, variables=["u"])
        forward = {"u": parse(src, "x1")}
        backward = {"x1": parse(tgt, "u")}
        with pytest.raises(UnknownSymbol):
            check_inverse_pair(forward, backward, src, tgt)

    def test_identity_check_with_bindings(self):
        ctx = Context(QQ, variables=["x1", "x2"])
        lhs = parse(ctx, "(x1+x2)^2")
        rhs = parse(ctx, "x1^2+2*x1*x2+x2^2")
        assert check_identity(lhs, rhs) == []
        lhs2 = parse(ctx, "(x1+x2)^2-x1^2-x2^2")
        rhs2 = parse(ctx, "2")
        assert check_identity(lhs2, rhs2) != []

    @pytest.mark.parametrize("lhs", ["2^20000*x1", "x1/3^10000"], ids=["int", "fraction"])
    def test_identity_with_a_coefficient_past_the_str_limit_returns_its_record(self, lhs):
        # str() refuses integers past 4300 digits; a check never calls it.
        ctx = Context(QQ, variables=["x1"])
        failures = check_identity(parse(ctx, lhs), parse(ctx, "x1"))
        assert len(failures) == 1 and list(failures[0]) == ["witness"]
        assert not failures[0]["witness"].is_zero()

    # Three tables over one forward map: "u1" and "1/u2" are claimed twice,
    # and inv's u1 and neg's u2 are wrong.
    SHARED_CLAIMS = {
        "context": {"variables": ["x1", "x2"]},
        "actions": {
            "swap": {"bindings": {"x1": "x2", "x2": "x1"}},
            "inv": {"bindings": {"x1": "1/x1", "x2": "1/x2"}},
            "neg": {"bindings": {"x1": "-x1", "x2": "-x2"}},
        },
        "forward": {"u1": "x1+x2", "u2": "x1*x2"},
        "claimed": {
            "swap": {"u1": "u1", "u2": "u2"},
            "inv": {"u1": "u1", "u2": "1/u2"},
            "neg": {"u1": "-u1", "u2": "1/u2"},
        },
        "claimed_context": {"variables": ["u1", "u2"]},
    }

    def test_induced_action_substitutes_each_claimed_expression_once_per_case(self, monkeypatch):
        from qmi.catalog import Catalog, CaseRecord
        from qmi.runner import run_case

        claimed_ctx = build_context(self.SHARED_CLAIMS["claimed_context"])
        images = []

        def counting(f, bindings, target=None):
            if f[0].ctx == claimed_ctx:
                images.append(RatFunc(*f))
            return substitute_raw(f, bindings, target)

        monkeypatch.setattr(actions, "substitute_raw", counting)
        case = CaseRecord("shared", "InducedAction", "test", "test", self.SHARED_CLAIMS)
        report = run_case(Catalog(builtin_catalog().groups, [case]), "shared")
        assert report.status == "Fail"
        assert report.witness == (
            "action inv, generator u1: -x1*x2^2 - x1^2*x2 + x2 + x1 ;; "
            "action neg, generator u2: x1^2*x2^2 - 1"
        )
        # One image per distinct claimed expression, in order of first use.
        assert images == [parse(claimed_ctx, t) for t in ("u1", "u2", "1/u2", "-u1")]

    def test_shared_images_give_the_records_of_substituting_every_time(self):
        p = self.SHARED_CLAIMS
        ctx, new = build_context(p["context"]), build_context(p["claimed_context"])
        forward = {u: parse(ctx, t) for u, t in p["forward"].items()}
        images = {}
        for name, table in p["claimed"].items():
            sigma = build_action(ctx, p["actions"][name])
            claimed = {u: parse(new, t) for u, t in table.items()}
            alone = check_induced_action(sigma, forward, claimed)
            assert check_induced_action(sigma, forward, claimed, images) == alone
        assert len(images) == 4
