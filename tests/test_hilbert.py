"""Symbol calculus tests.

Expected values come from three independent sources: hand derivations
pinned below (each annotated with its elementary argument), a brute
local-solvability check modulo prime powers, and a global search for
small zeros of z^2 = a*x^2 + b*y^2.  A found zero forces triviality of
every local symbol; absence of small zeros for small inputs forces a
local obstruction somewhere.
"""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from qmi.errors import FactorizationLimit
from qmi.field import PrimeField, is_prime, least_prime_factor
from qmi.hilbert import (
    CRITERIA,
    FACTOR_BOUND,
    decide_rationality,
    hilbert_global_trivial,
    hilbert_local,
    hilbert_profile,
    is_local_square,
    is_rational_square,
    places,
    prime_support,
    quadric_isotropic,
    valuation,
)

INF = None  # the real place


def sym(a, b, v):
    return hilbert_local(Fraction(a), Fraction(b), v)


def search_zero(a, b, height):
    """Nontrivial integer zero of z^2 = a x^2 + b y^2, or None.

    Scans 0 <= x, y <= height; signs are immaterial because only squares
    enter.  z = 0 counts as long as (x, y) != (0, 0).
    """
    for x in range(height + 1):
        ax = a * x * x
        for y in range(height + 1):
            if x == 0 and y == 0:
                continue
            val = ax + b * y * y
            if val < 0:
                continue
            r = isqrt(val)
            if r * r == val:
                return (x, y, r)
    return None


def brute_local(a, b, p, n):
    """Symbol at p by exhausting primitive solutions modulo p**n.

    Values of a*x^2 and b*y^2 modulo p**n are collected per class of x
    (unit or divisible), and a primitive solution needs a unit among
    x, y, z.  n must be generous enough for lifting; callers keep the
    coefficient valuations small relative to n.
    """
    mod = p ** n
    squares = {t * t % mod for t in range(mod)}
    unit_squares = {t * t % mod for t in range(mod) if t % p}
    a %= mod
    b %= mod
    ax_unit = {a * t * t % mod for t in range(mod) if t % p}
    ax_div = {a * t * t % mod for t in range(mod) if t % p == 0}
    by_unit = {b * t * t % mod for t in range(mod) if t % p}
    by_div = {b * t * t % mod for t in range(mod) if t % p == 0}
    cases = (
        (ax_unit, by_unit, squares),
        (ax_unit, by_div, squares),
        (ax_div, by_unit, squares),
        (ax_div, by_div, unit_squares),
    )
    for xs, ys, ok in cases:
        for u in xs:
            for v in ys:
                if (u + v) % mod in ok:
                    return 1
    return -1


class TestPlaces:
    def test_composite_rejected(self):
        for p in (6, 9, 1, 0, -3):
            with pytest.raises(ValueError, match="not a prime"):
                hilbert_local(2, 3, p)
            with pytest.raises(ValueError, match="not a prime"):
                is_local_square(2, p)

    def test_nonzero_arguments_required(self):
        for place in (2, 3, INF):
            with pytest.raises(ValueError):
                hilbert_local(0, 3, place)
            with pytest.raises(ValueError):
                hilbert_local(3, 0, place)
        with pytest.raises(ValueError):
            hilbert_profile(0, 3)

    def test_valuation(self):
        assert valuation(Fraction(12), 2) == 2
        assert valuation(Fraction(5, 8), 2) == -3
        assert valuation(Fraction(-9, 7), 3) == 2

    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_valuation_needs_p_at_least_two(self, p):
        # p = 1 and p = -1 divide everything, so the loop would not end
        with pytest.raises(ValueError):
            valuation(5, p)


class TestPinnedLocalValues:
    # each entry: (a, b, place, value) with the argument in the comment
    def test_minus_one_minus_one(self):
        # sum of two squares is nonnegative, so no real zero
        assert sym(-1, -1, INF) == -1
        # z^2+x^2+y^2 = 0 mod 4 forces all even
        assert sym(-1, -1, 2) == -1
        # odd p: units with even exponents never obstruct
        assert sym(-1, -1, 3) == 1
        assert sym(-1, -1, 7) == 1

    def test_one_is_always_trivial(self):
        # z = x = 1, y = 0
        for place in (INF, 2, 3, 13):
            assert sym(1, -5, place) == 1
            assert sym(-7, 1, place) == 1

    def test_two_three_at_three(self):
        # mod 3: z^2 = 2x^2 needs 3 | x, z, then 3 | y; no primitive zero
        assert sym(2, 3, 3) == -1

    def test_three_minus_one_at_three(self):
        # z^2 + y^2 = 3x^2: -1 is not a square mod 3
        assert sym(3, -1, 3) == -1

    def test_five_minus_one_at_five(self):
        # 2^2 + 1^2 = 5: explicit zero
        assert sym(5, -1, 5) == 1

    def test_two_seven_at_two(self):
        # 3^2 = 2*1 + 7*1: explicit zero
        assert sym(2, 7, 2) == 1

    def test_two_minus_one_at_two(self):
        # 1^2 = 2*1^2 - 1^2: explicit zero
        assert sym(2, -1, 2) == 1

    def test_half_three_at_two(self):
        # odd-exponent 2 against 3 (omega(3) = 1) obstructs
        assert sym(Fraction(1, 2), 3, 2) == -1
        assert sym(2, 3, 2) == -1

    def test_sign_rule_at_infinity(self):
        assert sym(-2, -3, INF) == -1
        assert sym(-2, 3, INF) == 1
        assert sym(2, -3, INF) == 1


class TestBruteLocalAgreement:
    def test_at_two(self):
        rng = random.Random(7)
        vals = [v for v in range(-10, 11) if v != 0]
        for _ in range(25):
            a, b = rng.choice(vals), rng.choice(vals)
            assert sym(a, b, 2) == brute_local(a, b, 2, 9), (a, b)

    def test_at_three(self):
        rng = random.Random(8)
        vals = [v for v in range(-10, 11) if v != 0]
        for _ in range(25):
            a, b = rng.choice(vals), rng.choice(vals)
            assert sym(a, b, 3) == brute_local(a, b, 3, 5), (a, b)

    def test_at_five(self):
        rng = random.Random(9)
        vals = [v for v in range(-10, 11) if v != 0]
        for _ in range(20):
            a, b = rng.choice(vals), rng.choice(vals)
            assert sym(a, b, 5) == brute_local(a, b, 5, 4), (a, b)


class TestGlobal:
    def test_pinned(self):
        assert hilbert_global_trivial(1, 7)
        assert not hilbert_global_trivial(-1, -1)
        assert hilbert_global_trivial(2, -1)

    def test_profile_lists_candidate_places(self):
        profile = hilbert_profile(Fraction(5, 3), -14)
        assert [v for v, _ in profile] == [2, 3, 5, 7, INF]

    def test_zero_search_agreement(self):
        # |a|, |b| <= 20: reduction bounds keep any existing zero tiny,
        # so height 200 is exhaustive for the negative direction too
        rng = random.Random(31)
        vals = [v for v in range(-20, 21) if v != 0]
        for _ in range(40):
            a, b = rng.choice(vals), rng.choice(vals)
            found = search_zero(a, b, 200) is not None
            assert hilbert_global_trivial(a, b) == found, (a, b)

    def test_found_zero_forces_triviality(self):
        # the cheap direction, run on a denser sweep
        for a in range(-12, 13):
            for b in range(-12, 13):
                if a == 0 or b == 0:
                    continue
                if search_zero(a, b, 20) is not None:
                    assert hilbert_global_trivial(a, b), (a, b)


class TestAlgebraicLaws:
    PLACES = [2, 3, 5, 7, INF]

    def rand_nonzero(self, rng, span=60):
        v = 0
        while v == 0:
            v = rng.randint(-span, span)
        return Fraction(v, rng.randint(1, 12))

    def test_symmetry(self):
        rng = random.Random(101)
        for _ in range(60):
            a, b = self.rand_nonzero(rng), self.rand_nonzero(rng)
            for v in self.PLACES:
                assert sym(a, b, v) == sym(b, a, v)

    def test_bimultiplicative(self):
        rng = random.Random(102)
        for _ in range(60):
            a1 = self.rand_nonzero(rng)
            a2 = self.rand_nonzero(rng)
            b = self.rand_nonzero(rng)
            for v in self.PLACES:
                assert sym(a1 * a2, b, v) == sym(a1, b, v) * sym(a2, b, v)

    def test_square_invariance(self):
        rng = random.Random(103)
        for _ in range(60):
            a = self.rand_nonzero(rng)
            b = self.rand_nonzero(rng)
            c = self.rand_nonzero(rng)
            for v in self.PLACES:
                assert sym(a * c * c, b, v) == sym(a, b, v)

    def test_product_formula(self):
        rng = random.Random(104)
        for _ in range(60):
            a = Fraction(rng.randint(1, 10 ** 4) * rng.choice((1, -1)),
                         rng.randint(1, 10 ** 4))
            b = Fraction(rng.randint(1, 10 ** 4) * rng.choice((1, -1)),
                         rng.randint(1, 10 ** 4))
            prod = 1
            for _, s in hilbert_profile(a, b):
                prod *= s
            assert prod == 1, (a, b)


class TestSupportAndBounds:
    def test_prime_support(self):
        assert prime_support(360) == {2, 3, 5}
        assert prime_support(1) == set()
        # the largest prime below the bound: trial division runs to the end
        assert prime_support(999999937) == {999999937}
        assert prime_support(FACTOR_BOUND) == {2, 5}

    def test_factoring_bound(self):
        with pytest.raises(FactorizationLimit):
            prime_support(10 ** 9 + 7)
        with pytest.raises(FactorizationLimit):
            prime_support(FACTOR_BOUND + 1)
        with pytest.raises(FactorizationLimit):
            hilbert_global_trivial(10 ** 9 + 7, 3)
        with pytest.raises(FactorizationLimit):
            decide_rationality("c4", a=Fraction(1, 10 ** 9 + 7))

    def test_one_error_past_the_bound(self):
        # least_prime_factor alone checks the bound; a place and a prime
        # field's order meet the same FactorizationLimit, a ValueError too.
        assert issubclass(FactorizationLimit, ValueError)
        for call in (least_prime_factor, is_prime, PrimeField, lambda n: hilbert_local(2, 3, n)):
            with pytest.raises(FactorizationLimit, match="exceeds the factoring bound"):
                call(FACTOR_BOUND + 1)

    def test_places_order(self):
        assert places((Fraction(15, 2), Fraction(-7))) == [2, 3, 5, 7, INF]

    def test_a_place_above_the_bound_is_refused_at_once(self):
        # 10**30 + 57 is prime; trial division to its square root would not end
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the factoring bound"):
            hilbert_local(2, 3, 10 ** 30 + 57)
        with pytest.raises(ValueError, match="exceeds the factoring bound"):
            is_local_square(2, 10 ** 30 + 57)
        assert time.perf_counter() - start < 1.0

    def test_primality_matches_a_sieve(self):
        n = 5000
        sieve = [False, False] + [True] * (n - 1)
        for d in range(2, isqrt(n) + 1):
            if sieve[d]:
                sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
        assert [k for k in range(n + 1) if is_prime(k)] == [k for k in range(n + 1) if sieve[k]]
        assert is_prime(999999937) and not is_prime(FACTOR_BOUND)
        assert least_prime_factor(31607 * 31627) == 31607
        with pytest.raises(ValueError, match="exceeds the factoring bound"):
            is_prime(FACTOR_BOUND + 1)


class TestSquareTests:
    def test_rational(self):
        assert is_rational_square(Fraction(4, 9))
        assert not is_rational_square(2)
        assert not is_rational_square(-4)

    def test_local(self):
        assert is_local_square(17, 2)     # 17 = 1 mod 8
        assert not is_local_square(3, 2)
        assert is_local_square(68, 2)     # 4 * 17
        assert not is_local_square(8, 2)  # odd exponent
        assert is_local_square(-1, 5)     # -1 = 2^2 mod 5
        assert not is_local_square(-1, 7)
        assert is_local_square(2, INF)
        assert not is_local_square(-2, INF)


def quadric_search(coeffs, height):
    """Small integer zero of a rank-3 diagonal form, or None."""
    c0, c1, c2 = coeffs
    for x in range(height + 1):
        for y in range(height + 1):
            if x == 0 and y == 0:
                continue
            t = -(c0 * x * x + c1 * y * y)
            if t % c2:
                continue
            t //= c2
            if t < 0:
                continue
            r = isqrt(t)
            if r * r == t:
                return (x, y, r)
    return None


class TestQuadrics:
    def test_low_rank(self):
        assert not quadric_isotropic([])
        assert not quadric_isotropic([5])
        assert quadric_isotropic([1, -4])        # x = 2y
        assert not quadric_isotropic([1, -2])
        assert not quadric_isotropic([1, 1])
        assert quadric_isotropic([0, 3])         # axis point

    def test_rank_three(self):
        assert quadric_isotropic([1, 1, -2])     # 1 + 1 = 2
        assert not quadric_isotropic([1, 1, -3]) # obstruction at 3
        assert not quadric_isotropic([1, 1, 1])

    def test_rank_three_matches_search(self):
        rng = random.Random(55)
        vals = [v for v in range(-9, 10) if v != 0]
        for _ in range(40):
            cs = [rng.choice(vals) for _ in range(3)]
            found = quadric_search(cs, 60) is not None
            assert quadric_isotropic(cs) == found, cs

    def test_rank_four(self):
        assert not quadric_isotropic([1, 1, 1, 1])    # definite
        assert quadric_isotropic([1, 1, -1, -1])
        # x^2+y^2+z^2 = 7w^2 fails 2-adically (7w^2 is never a sum of
        # three squares: 7 mod 8 survives scaling by 4)
        assert not quadric_isotropic([1, 1, 1, -7])
        assert quadric_isotropic([1, 1, 1, -3])       # 1+1+1 = 3

    def test_rank_five_and_up(self):
        assert quadric_isotropic([1, 1, 1, 1, -7])
        assert not quadric_isotropic([1, 2, 3, 4, 5])
        assert quadric_isotropic([2, 3, 5, 7, -1, -11])


class TestVerdicts:
    def test_c4_negative(self):
        v = decide_rationality("c4", a=-1)
        assert v.rational is False
        assert "(-1, -1)" in v.criterion
        assert "-1 at place(s) 2, inf;" in v.criterion

    def test_c4_positive(self):
        v = decide_rationality("c4", a=5)
        assert v.rational is True
        assert "every place" in v.criterion
        assert "nonsquare" in v.criterion

    def test_d4(self):
        v = decide_rationality("d4", a=2, b=2)
        assert v.rational is True
        # criterion records the pair actually tested, (2, -2)
        assert "(2, -2)" in v.criterion

    def test_d4_negative(self):
        # (3, -(-1)) = (3, 1) is trivial; pick a real obstruction
        v = decide_rationality("d4", a=3, b=-3)
        # symbol (3, 3): (3,3)_3 = (3,-1)_3 = -1
        assert v.rational is False
        assert "(3, 3) is -1 at place(s) 2, 3;" in v.criterion

    def test_quadric_spec_shape(self):
        # coefficient pattern (1, -d, -2, -2, 2d) at d = -1
        d = -1
        v = decide_rationality("quadric", coeffs=[1, -d, -2, -2, 2 * d])
        assert v.rational is True
        assert "rank 5" in v.criterion

    def test_quadric_negative(self):
        v = decide_rationality("quadric", coeffs=[1, 1, 3])
        assert v.rational is False
        assert "rank 3" in v.criterion

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            decide_rationality("c4")
        with pytest.raises(ValueError):
            decide_rationality("d4", a=2)
        with pytest.raises(ValueError):
            decide_rationality("quadric")
        with pytest.raises(ValueError):
            decide_rationality("quadric", coeffs=[])
        with pytest.raises(ValueError):
            decide_rationality("dihedral", a=1, b=1)
        with pytest.raises(ValueError):
            decide_rationality("c4", a=0)

    @pytest.mark.parametrize("case", sorted(CRITERIA))
    def test_each_key_a_case_reads_is_required(self, case):
        given = {"a": 2, "b": 2, "coeffs": [1, -1]}
        for key in CRITERIA[case]:
            with pytest.raises(ValueError, match=f"needs {key}"):
                decide_rationality(case, **{k: v for k, v in given.items() if k != key})
        assert decide_rationality(case, **{k: given[k] for k in CRITERIA[case]}).rational


class TestNumbers:
    """Every public function reads its numbers by field.read_rational."""

    CALLS = {
        "valuation": lambda v: valuation(v, 2),
        "hilbert_local": lambda v: hilbert_local(v, 3, 2),
        "hilbert_profile": lambda v: hilbert_profile(3, v),
        "hilbert_global_trivial": lambda v: hilbert_global_trivial(v, 3),
        "is_rational_square": is_rational_square,
        "is_local_square": lambda v: is_local_square(v, 3),
        "places": lambda v: places([v]),
        "prime_support": prime_support,
        "quadric_isotropic": lambda v: quadric_isotropic([1, v, -1]),
        "c4": lambda v: decide_rationality("c4", a=v),
        "d4": lambda v: decide_rationality("d4", a=2, b=v),
    }

    # "٣" is an Arabic-Indic 3 and "٢" a 2: Fraction reads both.
    @pytest.mark.parametrize("value", ["٣", " 3", "1_0", "1.5", "1e2", True, 2.5, "٢_0", 0.1])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_a_number_outside_the_rational_token_is_refused(self, call, value):
        with pytest.raises(ValueError):
            self.CALLS[call](value)

    def test_prime_support_needs_an_integer(self):
        assert prime_support("360") == {2, 3, 5}
        with pytest.raises(ValueError, match="positive integer"):
            prime_support("7/2")

    @pytest.mark.parametrize("case,text,values", [
        ("c4", {"a": "-3/4"}, {"a": Fraction(-3, 4)}),
        ("d4", {"a": "2", "b": "-7/3"}, {"a": 2, "b": Fraction(-7, 3)}),
        ("quadric", {"coeffs": ["1", "1/2", "-3"]}, {"coeffs": [1, Fraction(1, 2), -3]}),
        ("quadric", {"coeffs": ["1", "-2"]}, {"coeffs": [1, -2]}),
    ], ids=["c4", "d4", "quadric-rank-3", "quadric-rank-2"])
    def test_text_decides_as_its_value(self, case, text, values):
        assert decide_rationality(case, **text) == decide_rationality(case, **values)
