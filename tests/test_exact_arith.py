"""Pinned behavior of contexts, polynomials, rational functions, parsing."""

from __future__ import annotations

import operator
import time
from fractions import Fraction

import pytest

from qmi import (
    QQ,
    Context,
    DivisionByZero,
    NotDivisible,
    ParseError,
    Poly,
    PrimeField,
    RatFunc,
    SubstitutionPole,
    UnknownRoot,
    UnknownSymbol,
    exact_div,
    parse,
    poly_gcd,
)
from qmi import gcd, ratfunc
from qmi.actions import Automorphism
from qmi.field import field_from_name, is_square, read_rational
from qmi.ratfunc import substitute_raw


@pytest.fixture()
def ctx():
    return Context(QQ, variables=["x1", "x2", "x3"], parameters=["a", "b"], roots=["a"])


def P(ctx, text):
    f = parse(ctx, text)
    assert f.den.is_constant()
    return f.num


class TestContext:
    def test_symbol_order_roots_then_params_then_vars(self, ctx):
        assert ctx.symbols == ("sqrt(a)", "a", "b", "x1", "x2", "x3")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Context(QQ, variables=["x1"], parameters=["x1"])

    def test_root_requires_declared_parameter(self):
        with pytest.raises(ValueError):
            Context(QQ, variables=["x1"], roots=["a"])

    def test_char2_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_field_above_the_factoring_bound_is_refused_at_once(self):
        # 10**30 + 57 is prime; trial division to its square root would not end
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the factoring bound"):
            field_from_name("F1000000000000000000000000000057")
        assert time.perf_counter() - start < 1.0

    def test_specialized_parameter_is_constant(self):
        c = Context(QQ, variables=["u"], parameters=["e"], specialize={"e": 5})
        assert parse(c, "e") == parse(c, "5")
        assert "e" not in c.index

    def test_rooted_parameter_cannot_specialize_to_zero_mod_p(self):
        with pytest.raises(ValueError):
            Context(PrimeField(3), parameters=["m"], roots=["m"], specialize={"m": -3})

    @pytest.mark.parametrize("field,value", [(QQ, 4), (QQ, "9/4"), (PrimeField(7), 2)])
    def test_rooted_parameter_cannot_specialize_to_square(self, field, value):
        # sqrt(4) - 2 would be a zero divisor: (sqrt(m)-2)*(sqrt(m)+2) == 0.
        with pytest.raises(ValueError, match="square"):
            Context(field, parameters=["m"], roots=["m"], specialize={"m": value})

    @pytest.mark.parametrize("field,c,d", [(QQ, 2, 8), (PrimeField(7), 3, 5)])
    def test_constant_roots_cannot_multiply_to_square(self, field, c, d):
        # Both are nonsquares, but c*d is a square (16; 15 = 1 mod 7), so
        # sqrt(c)*sqrt(d) - 4 (resp. - 1) would be a zero divisor.
        with pytest.raises(ValueError, match="square"):
            Context(field, variables=["x"], parameters=["c", "d"], roots=["c", "d"],
                    specialize={"c": c, "d": d})

    @pytest.mark.parametrize("kwargs,key,where", [
        ({"variables": ["x1", "X2"]}, "variables", 1),
        ({"variables": ["x1"], "parameters": ["a", "x1"]}, "parameters", 1),
        ({"parameters": ["a"], "roots": ["a", "b"]}, "roots", 1),
        ({"parameters": ["a"], "specialize": {"b": 2}}, "specialize", "b"),
        ({"parameters": ["a"], "specialize": {"a": "1/0"}}, "specialize", "a"),
        ({"parameters": ["a"], "roots": ["a"], "specialize": {"a": "9/4"}}, "specialize", "a"),
        # Values outside field.RATIONAL; Fraction reads each ("٣" is an Arabic-Indic 3).
        *[({"parameters": ["a"], "specialize": {"a": v}}, "specialize", "a")
          for v in ["٣", " 3", "3 ", "1_0", "1.5", "1e2", "+3", True, 2.5]],
    ], ids=["name", "repeat", "root", "specialization", "value", "square", "other-script",
            "leading-blank", "trailing-blank", "underscore", "decimal-point", "exponent",
            "plus-sign", "boolean", "float"])
    def test_rejected_spec_names_its_place(self, kwargs, key, where):
        # The catalog reports the same place as the path .../key/where.
        from qmi.context import ContextError

        with pytest.raises(ContextError) as err:
            Context(QQ, **kwargs)
        assert (err.value.key, err.value.where) == (key, where)

    def test_two_constant_roots_with_nonsquare_product(self):
        c = Context(QQ, variables=["x"], parameters=["c", "m"], roots=["c", "m"],
                    specialize={"c": 5, "m": -3})
        r = P(c, "sqrt(c)*sqrt(m)")
        assert r * r == P(c, "-15")
        f = parse(c, "1/(sqrt(c)*sqrt(m) - 4)")
        assert f * parse(c, "sqrt(c)*sqrt(m) - 4") == parse(c, "1")

    def test_rooted_parameter_may_specialize_to_nonresidue(self):
        c = Context(PrimeField(7), variables=["x"], parameters=["m"], roots=["m"],
                    specialize={"m": 3})
        r = P(c, "sqrt(m)")
        assert r * r == P(c, "3")

    def test_rational_inverse_of_int_is_exact(self):
        inv = QQ.inv(2)
        assert inv == Fraction(1, 2) and isinstance(inv, Fraction)

    def test_congruent_specializations_give_equal_contexts(self):
        def spec(m):
            return Context(PrimeField(7), variables=["x"], parameters=["m"], roots=["m"], specialize={"m": m})

        assert spec(3) == spec(10) and hash(spec(3)) == hash(spec(10))
        assert spec(3) == spec("-4") and spec(3) != spec(5)
        assert spec(3).constants == {"m": 3}


class TestReadRational:
    @pytest.mark.parametrize("value", [2.9, 0.1, True, "3 ", "٣", "1_0", "1e2", "3/-4", "", None, [1]])
    def test_anything_but_an_int_a_fraction_or_the_token_is_refused(self, value):
        for read in (read_rational, QQ.of, PrimeField(7).of):
            with pytest.raises(ValueError):
                read(value)

    @pytest.mark.parametrize("value,expected", [
        ("-3/4", Fraction(-3, 4)), ("0/3", 0), ("6/3", 2), ("-0", 0), ("007", 7),
        (Fraction(6, 3), 2), (Fraction(1, 2), Fraction(1, 2)), (-5, -5), (10**40, 10**40),
    ])
    def test_a_number_reads_in_its_stored_form(self, value, expected):
        got = read_rational(value)
        assert got == expected and type(got) is type(expected)
        assert QQ.of(value) == got and type(QQ.of(value)) is type(got)

    def test_a_prime_field_reads_through_the_same_rule(self):
        f = PrimeField(7)
        assert [f.of(v) for v in (10, -4, "10", "-3/4", Fraction(1, 2))] == [3, 3, 3, 1, 4]
        with pytest.raises(ZeroDivisionError):
            f.of("1/7")
        for read in (read_rational, QQ.of, f.of):
            with pytest.raises(ZeroDivisionError):
                read("1/0")

    @pytest.mark.parametrize("field,squares,nonsquares", [
        (QQ, [0, 1, 4, Fraction(9, 4)], [-1, 2, Fraction(1, 2), Fraction(-4, 9)]),
        (PrimeField(7), [0, 1, 2, 4], [3, 5, 6]),
    ], ids=["Q", "F7"])
    def test_one_square_test(self, field, squares, nonsquares):
        assert all(is_square(field, v) for v in squares)
        assert not any(is_square(field, v) for v in nonsquares)


class TestArithmetic:
    def test_add_zero_is_identity(self, ctx):
        x1 = P(ctx, "x1")
        assert x1 + Poly.const(ctx, 0) == x1

    def test_root_squares_to_parameter(self, ctx):
        r = P(ctx, "sqrt(a)")
        assert r * r == P(ctx, "a")

    def test_root_fourth_power(self, ctx):
        r = P(ctx, "sqrt(a)")
        assert r**4 == P(ctx, "a^2")
        assert r**5 == P(ctx, "a^2*sqrt(a)")

    def test_constant_root_squares_to_value(self):
        c = Context(QQ, parameters=["e"], roots=["e"], specialize={"e": 5})
        r = P(c, "sqrt(e)")
        assert r * r == Poly.const(c, 5)

    @pytest.mark.parametrize("left, right", [("x1+1", "2"), ("x1+1", "1"), ("x1+1", "0"), ("3", "2")])
    def test_product_with_a_constant_across_contexts_rejected(self, ctx, left, right):
        other = Context(QQ, variables=["x1", "x2", "x3"], parameters=["a", "b"])
        with pytest.raises(ValueError, match="mixed contexts"):
            P(ctx, left) * P(other, right)
        with pytest.raises(ValueError, match="mixed contexts"):
            P(other, right) * P(ctx, left)

    def test_product_with_a_constant_is_a_scaling(self, ctx):
        p = P(ctx, "1/2*x1*sqrt(a)+3")
        assert p * Poly.const(ctx, 4) == P(ctx, "2*x1*sqrt(a)+12")
        assert Poly.const(ctx, 1) * p == p and (Poly.const(ctx, 1) * p).terms is not p.terms
        assert (p * Poly.const(ctx, 0)).is_zero()

    def test_exact_division(self, ctx):
        assert exact_div(P(ctx, "x1^2-1"), P(ctx, "x1-1")) == P(ctx, "x1+1")

    def test_exact_division_with_root(self, ctx):
        assert exact_div(P(ctx, "x1^2-a"), P(ctx, "x1-sqrt(a)")) == P(ctx, "x1+sqrt(a)")

    def test_inexact_division_raises(self, ctx):
        with pytest.raises(NotDivisible):
            exact_div(P(ctx, "x1^2+1"), P(ctx, "x1-1"))

    def test_division_by_zero_poly(self, ctx):
        with pytest.raises(DivisionByZero):
            exact_div(P(ctx, "x1"), Poly.const(ctx, 0))

    def test_gcd_with_root_factor(self, ctx):
        g = poly_gcd(P(ctx, "x1^2-a"), P(ctx, "x1-sqrt(a)"))
        assert g == P(ctx, "x1-sqrt(a)")

    def test_gcd_plain(self, ctx):
        assert poly_gcd(P(ctx, "x1*x2+x2"), P(ctx, "x1*x3+x3")) == P(ctx, "x1+1")

    def test_gcd_with_zero_normalizes(self, ctx):
        assert poly_gcd(P(ctx, "2*x1+2"), Poly.const(ctx, 0)) == P(ctx, "x1+1")

    def test_gcd_of_constants_is_one(self, ctx):
        assert poly_gcd(Poly.const(ctx, 6), Poly.const(ctx, 4)).is_one()

    def test_gcd_and_division_over_constant_root(self):
        c = Context(QQ, variables=["x", "y"], parameters=["m"], roots=["m"], specialize={"m": -3})
        f, g, h = P(c, "x+sqrt(m)"), P(c, "x*y+2"), P(c, "y-1")
        common = poly_gcd(f * g, f * h)
        assert common == f
        assert exact_div(f * g, common) * common == f * g
        d, q = P(c, "sqrt(m)*x+1"), P(c, "x^2+y")
        assert exact_div(d * q, d) == q
        with pytest.raises(NotDivisible):
            exact_div(d * q + Poly.const(c, 1), d)

    def test_product_with_non_integer_constant_root(self):
        c = Context(QQ, variables=["x"], parameters=["m"], roots=["m"], specialize={"m": "1/2"})
        # Symbols are (sqrt(m), x); sqrt(m)^2 = 1/2 and sqrt(m)^3 = sqrt(m)/2.
        expected = Poly(c, {
            (1, 3): Fraction(1, 2), (0, 2): Fraction(3, 2), (1, 1): Fraction(3), (0, 0): Fraction(1),
        })
        assert P(c, "sqrt(m)*x+1") ** 3 == expected

    def test_mod3_arithmetic(self):
        c = Context(PrimeField(3), variables=["s"])
        assert parse(c, "s^3+s^3") == parse(c, "2*s^3")
        assert parse(c, "3*s").is_zero()
        assert parse(c, "(s+1)^3") == parse(c, "s^3+1")


class TestRatFunc:
    def test_reduction_to_canonical_form(self, ctx):
        f = parse(ctx, "(x1^2-1)/(x1-1)")
        assert f.den.is_constant()
        assert f == parse(ctx, "x1+1")

    def test_denominator_made_monic(self, ctx):
        f = parse(ctx, "x1/(2*x2-2)")
        assert str(f) == "(1/2*x1)/(x2 - 1)"

    def test_zero_denominator(self, ctx):
        with pytest.raises(DivisionByZero):
            parse(ctx, "x1/(x2-x2)")

    def test_negative_exponent(self, ctx):
        assert parse(ctx, "x1^-1") == parse(ctx, "1/x1")

    def test_pow_negative(self, ctx):
        f = parse(ctx, "(x1+1)/x2")
        assert f**-2 == parse(ctx, "x2^2/(x1+1)^2")

    def test_equality_by_cross_multiplication(self, ctx):
        assert parse(ctx, "(x1^2-1)/(x1+1)") == parse(ctx, "x1-1")

    def test_equality_across_contexts_rejected(self, ctx):
        other = Context(QQ, variables=["x1", "x2", "x3"], parameters=["a", "b"])
        with pytest.raises(ValueError, match="mixed contexts"):
            parse(ctx, "x1") == parse(other, "x1")

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    @pytest.mark.parametrize(
        "left, right",
        [("x1", "x2"), ("2", "3"), ("0", "x1"), ("x1", "1/2"), ("1/x1", "(x1+1)/(x2-1)")],
    )
    def test_arithmetic_across_contexts_rejected(self, ctx, op, left, right):
        # Polynomial, constant and zero operands skip the gcd; they must
        # not skip the context check.
        other = Context(QQ, variables=["x1", "x2", "x3"], parameters=["a", "b"])
        with pytest.raises(ValueError, match="mixed contexts"):
            op(parse(ctx, left), parse(other, right))
        with pytest.raises(ValueError, match="mixed contexts"):
            op(parse(other, right), parse(ctx, left))

    def test_substitute_identity_fixed_point(self, ctx):
        t1 = parse(ctx, "(x1*x2+1)/(x1+x2)")
        flip = {"x1": parse(ctx, "1/x1"), "x2": parse(ctx, "1/x2")}
        assert t1.substitute(flip) == t1

    def test_substitute_pole(self, ctx):
        with pytest.raises(SubstitutionPole):
            parse(ctx, "1/(x1-1)").substitute({"x1": parse(ctx, "1")})

    def test_substitute_into_other_context(self, ctx):
        tgt = Context(QQ, variables=["y1"], parameters=["a", "b"], roots=["a"])
        f = parse(ctx, "sqrt(a)*x1+b")
        g = f.substitute({"x1": parse(tgt, "y1^2"), "x2": parse(tgt, "1"), "x3": parse(tgt, "1")}, tgt)
        assert g == parse(tgt, "sqrt(a)*y1^2+b")

    def test_substitute_missing_target_symbol(self, ctx):
        tgt = Context(QQ, variables=["y1"])
        with pytest.raises(UnknownSymbol):
            parse(ctx, "a*x1").substitute({"x1": parse(tgt, "y1")}, tgt)

    def test_substitute_zero_into_symbol_free_context(self, ctx):
        """A zero binding into a target with no symbols: the one word is the
        empty exponent tuple."""
        src, tgt = Context(QQ, variables=["x"]), Context(QQ)
        zero = {"x": parse(tgt, "0")}
        assert parse(src, "x+1").substitute(zero, tgt) == parse(tgt, "1")
        assert parse(src, "(x+2)/(x-1)").substitute(zero, tgt) == parse(tgt, "-2")

    def test_binding_non_variable_rejected(self, ctx):
        with pytest.raises(ValueError):
            parse(ctx, "x1").substitute({"a": parse(ctx, "1")})


class TestSubstituteRaw:
    """The raw substitution engine: one power table, one common denominator."""

    @pytest.fixture()
    def qx(self):
        return Context(QQ, variables=["x1"])

    def test_no_spurious_denominator_power(self, qx):
        f = parse(qx, "(x1^2+1)/(x1+2)")
        num, den = substitute_raw((f.num, f.den), {"x1": parse(qx, "x1/(x1+1)")})
        # Both parts are taken over (x1+1)^2, the power that the degree 2
        # of the numerator needs, and not multiplied by each other's.
        assert den.degree() == 2
        with pytest.raises(NotDivisible):
            exact_div(den, P(qx, "(x1+1)^2"))
        assert RatFunc(num, den) == parse(qx, "(2*x1^2+2*x1+1)/((x1+1)*(3*x1+2))")

    def test_shared_denominator_is_taken_once(self):
        # x1 and x2 are bound over the same d, so x1 + x2 is expanded over
        # d^max(e1 + e2) = d, not over d^1 * d^1.
        ctx = Context(QQ, variables=["x1", "x2"])
        a, b, d = P(ctx, "x1+2*x2"), P(ctx, "x2-1"), P(ctx, "x1*x2+3")
        num, den = substitute_raw((P(ctx, "x1+x2"), Poly.const(ctx, 1)), {"x1": (a, d), "x2": (b, d)})
        assert num * d == (a + b) * den
        assert exact_div(den, d).is_constant()

    @pytest.mark.parametrize("low", [0, 2])
    def test_slot_bound_at_the_lowest_exponent(self, low):
        # x1 -> x2/(x2^3 + 1) on (x1^2 + x1^5) / x1^low: the table entry
        # n^k * d^(5 - k) has x2-degree k + 3 * (5 - k), largest at the
        # lowest exponent k = low that occurs, not at the top k = 5. A
        # layout sized at the top would carry from slot x2 into slot x1.
        ctx = Context(QQ, variables=["x1", "x2"])
        t = parse(ctx, "x2/(x2^3+1)")
        f = (P(ctx, "x1^2+x1^5"), P(ctx, f"x1^{low}"))
        num, den = substitute_raw(f, {"x1": t})
        assert RatFunc(num, den) == (t**2 + t**5) / t**low

    def test_zero_numerator(self, qx):
        num, den = substitute_raw((Poly.const(qx, 0), P(qx, "x1+2")), {"x1": parse(qx, "x1/(x1+1)")})
        assert num.is_zero()
        assert not den.is_zero()

    def test_pole_through_binding_denominator(self):
        ctx = Context(QQ, variables=["x1", "x2"])
        f = parse(ctx, "x2/(x1^2-1)")
        one = (P(ctx, "x2+1"), P(ctx, "x2+1"))
        with pytest.raises(SubstitutionPole):
            substitute_raw((f.num, f.den), {"x1": one})

    @pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "F10007"])
    def test_fifty_term_polynomial(self, field):
        from itertools import product
        from random import Random

        ctx = Context(field, variables=["x1", "x2"], parameters=["a"], roots=["a"])
        rnd = Random(50)
        exps = list(product(range(2), range(2), range(5), range(5)))[::2]
        p = Poly(ctx, {
            e: field.of(Fraction(rnd.choice([-7, -2, 1, 3, 5]), rnd.randint(1, 6))) for e in exps
        })
        assert len(p.terms) == 50
        n1, d1 = P(ctx, "x1+sqrt(a)"), P(ctx, "2/3*x2-1/5")
        n2, d2 = P(ctx, "a*x1-x2"), P(ctx, "3/4*x1*x2+7")
        binds = {"x1": (n1, d1), "x2": (n2, d2)}
        num, den = substitute_raw((p, Poly.const(ctx, 1)), binds)
        # A polynomial has degree 0 in its denominator, so the pair is
        # exactly the term-by-term expansion over d1^4 * d2^4.
        expected = Poly.const(ctx, 0)
        for (r, s, i, j), c in p.terms.items():
            mono = Poly(ctx, {(r, s, 0, 0): c})
            expected = expected + mono * n1**i * d1 ** (4 - i) * n2**j * d2 ** (4 - j)
        assert num == expected
        assert den == d1**4 * d2**4
        if field.char == 0:
            # Over Q the reduced pair is the canonical substitution result.
            # Over F_p the gcd is still the PRS, which does not reduce this
            # pair in reasonable time.
            reduced = RatFunc(num, den)
            canonical = RatFunc(p, Poly.const(ctx, 1)).substitute(
                {"x1": RatFunc(n1, d1), "x2": RatFunc(n2, d2)}
            )
            assert (reduced.num, reduced.den) == (canonical.num, canonical.den)


class TestRootSigns:
    def test_flip_moves_sign_onto_root_terms(self, ctx):
        f = parse(ctx, "sqrt(a)*x1")
        assert f.apply_root_signs({"a": -1}) == parse(ctx, "-sqrt(a)*x1")

    def test_parameter_itself_fixed(self, ctx):
        f = parse(ctx, "a*x1")
        assert f.apply_root_signs({"a": -1}) == f

    def test_double_flip_product_fixed(self):
        c = Context(QQ, parameters=["a", "b"], roots=["a", "b"])
        f = parse(c, "sqrt(a)*sqrt(b)")
        assert f.apply_root_signs({"a": -1, "b": -1}) == f

    def test_flip_is_involution(self, ctx):
        f = parse(ctx, "(sqrt(a)*x1+1)/(x2-sqrt(a))")
        flipped = f.apply_root_signs({"a": -1})
        assert flipped != f
        assert flipped.apply_root_signs({"a": -1}) == f

    def test_unknown_root_rejected(self, ctx):
        with pytest.raises(UnknownRoot):
            parse(ctx, "x1").apply_root_signs({"b": -1})

    def test_sqrt_key_spellings(self, ctx):
        # A sign is keyed by the rooted parameter's bare name only.
        f = parse(ctx, "sqrt(a)")
        x = [parse(ctx, v) for v in ctx.variables]
        for key in ("sqrt(a)", "sqrt_a"):
            with pytest.raises(UnknownRoot):
                f.apply_root_signs({key: -1})
            with pytest.raises(UnknownRoot):
                Automorphism(ctx, x, {key: -1})
        assert f.apply_root_signs({"a": -1}) == -f


class TestParsing:
    # Digits of other scripts are not INT tokens: "\u0663" is an Arabic-Indic
    # 3 and "\u00b2" a superscript 2, both str.isdigit.
    @pytest.mark.parametrize(
        "text,position",
        [("x1 + @", 5), ("x1 + \u0663", 5), ("x1^\u00b2", 3)],
        ids=["ascii-symbol", "arabic-indic-digit", "superscript-digit"],
    )
    def test_position_in_errors(self, ctx, text, position):
        with pytest.raises(ParseError) as err:
            parse(ctx, text)
        assert err.value.position == position

    def test_unexpected_end(self, ctx):
        with pytest.raises(ParseError):
            parse(ctx, "x1 + ")

    def test_juxtaposition_is_rejected(self, ctx):
        with pytest.raises(ParseError):
            parse(ctx, "2 x1")

    def test_unknown_symbol(self, ctx):
        with pytest.raises(UnknownSymbol):
            parse(ctx, "x9")

    def test_sqrt_of_rootless_parameter(self, ctx):
        with pytest.raises(UnknownSymbol):
            parse(ctx, "sqrt(b)")

    def test_unary_minus_binds_looser_than_pow(self, ctx):
        assert parse(ctx, "-x1^2") == -parse(ctx, "x1^2")

    def test_whitespace_insignificant(self, ctx):
        assert parse(ctx, " ( x1 + 1 ) / x2 ") == parse(ctx, "(x1+1)/x2")

    def test_integer_exponent_required(self, ctx):
        with pytest.raises(ParseError):
            parse(ctx, "x1^x2")

    @pytest.mark.parametrize(
        "text",
        [
            "(x1*x2+1)/(x1+x2)",
            "sqrt(a)*(x3-1)/(x3+1)",
            "-x1^2 + 2/3*x2 - 1",
            "(a*x1+sqrt(a))/(b*x3^4-x2)",
            "1/x1/x2",
        ],
    )
    def test_print_parse_roundtrip(self, ctx, text):
        f = parse(ctx, text)
        again = parse(ctx, str(f))
        assert again.num == f.num and again.den == f.den

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1/0", "division by zero rational function"),
            ("x1/(x1-x1)", "division by zero rational function"),
            ("(x1+1)/x2/(x3-x3)", "division by zero rational function"),
            ("0^-1", "negative power of zero"),
            ("(x1-x1)^-2", "negative power of zero"),
        ],
    )
    def test_zero_divisors_raise(self, ctx, text, message):
        with pytest.raises(DivisionByZero, match=message):
            parse(ctx, text)

    def test_constants_over_f3(self):
        c = Context(PrimeField(3), variables=["x1"])
        x1 = RatFunc.named(c, "x1")
        with pytest.raises(DivisionByZero, match="division by zero rational function"):
            parse(c, "x1/3")
        assert parse(c, "x1/2") == parse(c, "2*x1") == x1 / RatFunc.const(c, 2)
        with pytest.raises(DivisionByZero, match="negative power of zero"):
            parse(c, "3^-1")

    def test_constant_powers_over_q(self, ctx):
        x1 = RatFunc.named(ctx, "x1")
        assert parse(ctx, "2^-1*x1") == parse(ctx, "x1/2") == x1 / RatFunc.const(ctx, 2)
        assert parse(ctx, "x1^-0") == parse(ctx, "0^0") == RatFunc.const(ctx, 1)

    def test_a_quotient_of_polynomials_cancels_once(self, ctx, monkeypatch):
        calls = []
        cancel = gcd.cancel

        def counted(num, den):
            calls.append((num, den))
            return cancel(num, den)

        monkeypatch.setattr(gcd, "cancel", counted)
        monkeypatch.setattr(ratfunc, "cancel", counted)
        f = parse(ctx, "(x1+1)*(x2-2)^3 - 5*x3/2")
        assert calls == [] and f.den.is_one()
        f = parse(ctx, "(x1*x2+1)/(x1+x2)")
        assert len(calls) == 1
        assert (f.num, f.den) == calls[0]


def _count_packed(monkeypatch, counts):
    """Count the sums that poly._packed packs (it returns None where it declines)."""
    from qmi import poly

    packed = poly._packed

    def counted(products):
        out = packed(products)
        counts["packed"] += out is not None
        return out

    monkeypatch.setattr(poly, "_packed", counted)
    return counts


class TestKernelDispatch:
    """Which path of poly._convolve_ints a product takes: packed by
    poly._packed, or the loop, counted by call."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        from qmi import poly

        counts = _count_packed(monkeypatch, {"packed": 0, "loop": 0})
        loop = poly._convolve_loop

        def counted(*args):
            counts["loop"] += 1
            return loop(*args)

        monkeypatch.setattr(poly, "_convolve_loop", counted)
        return counts

    @staticmethod
    def box(ctx, sides, coeff):
        """Dense operand: every monomial below `sides`, in the last slots."""
        from itertools import product

        pad = (0,) * (ctx.nsym - len(sides))
        return Poly(ctx, {
            pad + e: ctx.field.of(coeff(i))
            for i, e in enumerate(product(*(range(s) for s in sides)))
        })

    @pytest.mark.parametrize("ctx", [
        Context(QQ, variables=["x", "y", "z"]),
        # Root folds into a parameter slot, into a constant, and mod p.
        Context(QQ, variables=["x", "y"], parameters=["a"], roots=["a"]),
        Context(QQ, variables=["x", "y"], parameters=["m"], roots=["m"], specialize={"m": -3}),
        Context(PrimeField(10007), variables=["x", "y"], parameters=["m"], roots=["m"],
                specialize={"m": 5}),
    ], ids=["plain", "root-to-parameter", "root-to-constant", "mod-p"])
    def test_dense_product_is_packed(self, ctx, calls, monkeypatch):
        from qmi import poly

        sides = (3, 5, 5) if ctx.nsym == 3 else (2, 5, 5, 3)[-ctx.nsym :]
        f = self.box(ctx, sides, lambda i: Fraction((-1) ** i * (i + 2**70), 3))
        g = self.box(ctx, sides, lambda i: i % 7 - 3)
        packed = f * g
        assert calls == {"packed": 1, "loop": 0}
        monkeypatch.setattr(poly, "_PACK_MIN_PAIRS", float("inf"))
        assert f * g == packed
        assert calls == {"packed": 1, "loop": 1}

    def test_one_term_operand_stays_on_the_loop(self, calls):
        ctx = Context(QQ, variables=["x", "y", "z"])
        big = self.box(ctx, (11, 11, 11), lambda i: i + 1)
        Poly(ctx, {(1, 0, 0): Fraction(2)}) * big
        assert calls == {"packed": 0, "loop": 1}

    def test_sparse_pair_stays_on_the_loop(self, calls):
        from qmi import poly

        ctx = Context(QQ, variables=["x", "y"])
        f = Poly(ctx, {(100 * i, 0): Fraction(i + 1) for i in range(40)})
        g = Poly(ctx, {(0, 100 * j): Fraction(j + 1) for j in range(40)})
        assert len(f.terms) * len(g.terms) >= poly._PACK_MIN_PAIRS
        f * g
        assert calls == {"packed": 0, "loop": 1}

    def test_fraction_coefficients_stay_on_the_loop(self, calls):
        # The PRS over Q with constant roots runs over Fractions (not integral):
        # its pseudo-remainders call the kernel on Fraction coefficients.
        from qmi import gcd, poly

        ctx = Context(QQ, variables=["x", "y"], parameters=["m"], roots=["m"], specialize={"m": -3})
        E = gcd._elim_info(ctx)
        assert not E.integral
        f = self.box(ctx, (2, 6, 6), lambda i: Fraction(i + 1, 2))
        g = self.box(ctx, (2, 6, 6), lambda i: Fraction(1, i + 1))
        assert len(f.terms) * len(g.terms) >= poly._PACK_MIN_PAIRS
        terms = gcd._reduce(E, poly._convolve_ints(f.terms, g.terms, E.folds))
        assert calls == {"packed": 0, "loop": 1}
        assert Poly(ctx, terms) == f * g


class TestWordKernelDispatch:
    """Which path of poly._word_sum a product takes, counted at poly._packed."""

    @pytest.fixture()
    def packed(self, monkeypatch):
        return _count_packed(monkeypatch, {"packed": 0})

    def test_backward_substitution_takes_the_packed_path(self, packed, monkeypatch):
        from bench_substitute import backward_step

        from qmi import poly

        f, bindings, target = backward_step()
        packed["packed"] = 0
        result = substitute_raw(f, bindings, target)
        assert packed["packed"] >= 1
        # The same pair through the loop alone.
        monkeypatch.setattr(poly, "_PACK_MIN_PAIRS", float("inf"))
        before = packed["packed"]
        assert substitute_raw(f, bindings, target) == result
        assert packed["packed"] == before

    def test_one_term_operand_stays_on_the_loop(self, packed):
        from qmi import poly

        big = {w: w % 5 - 2 or 1 for w in range(3, 1000, 3)}
        assert len(big) >= poly._PACK_MIN_PAIRS
        assert poly._word_sum((({7: -2}, big),)) == {w + 7: -2 * c for w, c in big.items()}
        assert packed["packed"] == 0

    def test_a_tact_level_is_one_packed_sum(self, monkeypatch):
        """la3 of sys7iii_case1_tact on the forward expression of t1: v1 and
        v2 share one binding denominator, so each part expands in one level
        of four products, and each level is one packed sum."""
        from qmi import poly
        from qmi.catalog import build_action, build_context, build_env, builtin_catalog

        p = builtin_catalog().case("sys7iii_case1_tact").payload
        c = build_context(p["context"])
        la3 = build_action(c, p["actions"]["la3"])
        t1 = parse(c, p["forward"]["t1"], build_env(c, p.get("where")))
        sums = []
        packed = poly._packed

        def counted(products):
            out = packed(products)
            sums.append((len(products), out is not None))
            return out

        monkeypatch.setattr(poly, "_packed", counted)
        image = la3.apply_raw((t1.num, t1.den))
        assert sums == [(4, True), (4, True)]
        monkeypatch.setattr(poly, "_PACK_MIN_PAIRS", float("inf"))
        assert la3.apply_raw((t1.num, t1.den)) == image
