"""Hilbert symbols over Q and the rationality criteria built on them.

The local symbol (a,b)_p is +1 when z^2 = a*x^2 + b*y^2 has a nontrivial
solution over the completion of Q at the place p, and -1 otherwise.  A
place is a prime int, or None for the real place; criterion text prints
the real place as "inf".  Classical texts also write the global condition
additively, "(a,b) = 0"; here trivial means +1 at every place.

Only finitely many places can give -1: the prime 2, the real place, and
the odd primes dividing a numerator or denominator of either argument.
Factoring, and the primality test of a given place, are plain trial
division (field.least_prime_factor) up to FACTOR_BOUND, so desk-scale
inputs stay cheap and oversized ones, an argument or a place, fail
loudly with FactorizationLimit, which is also a ValueError.

Each public function reads its numbers through field.read_rational, the
rule of the catalog's schema check; the helpers take values already read.

CRITERIA names the arguments each case of decide_rationality reads; the
catalog's schema check reads the same table.
"""

from typing import NamedTuple

from .field import FACTOR_BOUND, QQ, is_prime, is_square, least_prime_factor, read_rational

CRITERIA = {"c4": ("a",), "d4": ("a", "b"), "quadric": ("coeffs",)}


def valuation(x, p):
    """Exponent of the prime p in the nonzero rational x."""
    if p < 2:
        raise ValueError(f"valuation needs a prime, not {p!r}")
    x = read_rational(x)
    if x == 0:
        raise ValueError("valuation of zero")
    n, d = abs(x.numerator), x.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _unit_part(x, p, v):
    # The unit u = x/p^v = n/d, v the valuation, as n*d = u*d^2: the same
    # square class. p^|v| divides one of x's numerator and denominator.
    return x.numerator * x.denominator // p ** abs(v)


def _legendre(n, p):
    # n prime to p, p odd
    return 1 if pow(n % p, (p - 1) // 2, p) == 1 else -1


def _eps(t):
    # class of (u-1)/2 mod 2 of an odd unit u = n/d, multiplicative: t = n*d
    return ((t - 1) // 2) % 2


def _omega(t):
    # class of (u^2-1)/8 mod 2 of an odd unit u = n/d, multiplicative: t = n*d
    return ((t * t - 1) // 8) % 2


def _check_place(p):
    if p is not None and not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")


def hilbert_local(a, b, p):
    """The local symbol (a, b)_p of nonzero rationals, as +1 or -1.

    p is a prime, or None for the real place; a p that is not a prime,
    or exceeds FACTOR_BOUND, is a ValueError.
    """
    _check_place(p)
    return _symbol(read_rational(a), read_rational(b), p)


def _symbol(a, b, p):
    # hilbert_local on read values, unchecked places from places()
    if a == 0 or b == 0:
        raise ValueError("symbol arguments must be nonzero")
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    al = valuation(a, p)
    be = valuation(b, p)
    u = _unit_part(a, p, al)
    w = _unit_part(b, p, be)
    if p == 2:
        e = _eps(u) * _eps(w) + al * _omega(w) + be * _omega(u)
        return -1 if e % 2 else 1
    s = -1 if (al * be * ((p - 1) // 2)) % 2 else 1
    if be % 2:
        s *= _legendre(u, p)
    if al % 2:
        s *= _legendre(w, p)
    return s


def prime_support(n):
    """Set of primes dividing the positive integer n, by trial division.

    Each least prime factor is found and divided out in turn;
    least_prime_factor raises FactorizationLimit when n exceeds FACTOR_BOUND.
    """
    n = read_rational(n)
    if type(n) is not int or n <= 0:
        raise ValueError("need a positive integer")
    found = set()
    while n > 1:
        d = least_prime_factor(n)
        found.add(d)
        while n % d == 0:
            n //= d
    return found


def places(numbers):
    """2, the odd primes of the numerators and denominators, then None."""
    odd = set()
    for x in map(read_rational, numbers):
        for n in (abs(x.numerator), x.denominator):
            if n > 1:
                odd |= prime_support(n)
    odd.discard(2)
    return [2, *sorted(odd), None]


def hilbert_profile(a, b):
    """List of (place, local symbol) over the places where it can be -1."""
    a, b = read_rational(a), read_rational(b)
    return [(p, _symbol(a, b, p)) for p in places((a, b))]


def hilbert_global_trivial(a, b):
    """True when the symbol is +1 at every place of Q."""
    return all(s == 1 for _, s in hilbert_profile(a, b))


def is_rational_square(x):
    return is_square(QQ, read_rational(x))


def is_local_square(x, p):
    """Whether the nonzero rational x is a square in the completion at p.

    p is a prime, or None for the real place, as in hilbert_local.
    """
    _check_place(p)
    x = read_rational(x)
    if x == 0:
        raise ValueError("need a nonzero rational")
    if p is None:
        return x > 0
    val = valuation(x, p)
    if val % 2:
        return False
    u = _unit_part(x, p, val)
    if p == 2:
        return u % 8 == 1
    return _legendre(u, p) == 1


def _hasse_invariant(coeffs, p):
    s = 1
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            s *= _symbol(coeffs[i], coeffs[j], p)
    return s


def quadric_isotropic(coeffs):
    """Whether sum(c_i * x_i^2) = 0 has a nontrivial rational solution.

    Diagonal forms only.  A zero coefficient gives an axis point at once.
    Otherwise the rank decides the test: rank 1 never, rank 2 by a square
    test, rank 3 by one global symbol, rank 4 by the local discriminant
    and Hasse-invariant comparison at the candidate places, and rank 5 or
    more by indefiniteness alone (every finite place is automatic there).
    """
    cs = [read_rational(c) for c in coeffs]
    if not cs:
        return False
    if any(c == 0 for c in cs):
        return True
    n = len(cs)
    if n == 1:
        return False
    if n == 2:
        return is_square(QQ, QQ.mul(-cs[1], QQ.inv(cs[0])))
    if n == 3:
        inv = QQ.inv(cs[2])
        return hilbert_global_trivial(QQ.mul(-cs[0], inv), QQ.mul(-cs[1], inv))
    if n == 4:
        d = cs[0] * cs[1] * cs[2] * cs[3]
        for p in places(cs):
            if is_local_square(d, p) and \
                    _hasse_invariant(cs, p) != _symbol(-1, -1, p):
                return False
        return True
    return any(c > 0 for c in cs) and any(c < 0 for c in cs)


_QUADRIC_REGIME = {
    1: "rank 1: no nontrivial zero exists",
    2: "rank 2: ratio must be a rational square",
    3: "rank 3: one global symbol decides",
    4: "rank 4: local discriminant and Hasse invariant at candidate places",
}


class Verdict(NamedTuple):
    """Outcome of a rationality decision: the boolean, and which test ran
    and what it returned."""

    rational: bool
    criterion: str


def decide_rationality(case, a=None, b=None, coeffs=None):
    """Decide a rationality criterion; CRITERIA names what each case reads.

    case "c4"      -- reads a; tests the symbol (a, -1)
    case "d4"      -- reads a and b; tests the symbol (a, -b)
    case "quadric" -- reads a nonempty coeffs; tests the diagonal form for
                      a nontrivial rational zero

    A trivial symbol means the invariant field is rational over the base
    field; a nontrivial one, that it is not rational and not even
    unirational over the base field, which must then be infinite with
    nontrivial Brauer group.  A form with a nontrivial rational zero means
    the function field of the quadric is rational over the base field;
    without one, it is neither rational nor unirational over it.
    """
    if case not in CRITERIA:
        raise ValueError(f"unknown case: {case!r}")
    given = {"a": a, "b": b, "coeffs": coeffs or None}
    missing = [key for key in CRITERIA[case] if given[key] is None]
    if missing:
        raise ValueError(f"case {case} needs {' and '.join(missing)}")
    if case == "quadric":
        cs = [read_rational(c) for c in coeffs]
        regime = _QUADRIC_REGIME.get(
            len(cs), "rank 5 or more: indefinite forms are isotropic over Q")
        shape = " + ".join(f"({c})*x{i}^2" for i, c in enumerate(cs))
        return Verdict(quadric_isotropic(cs), f"diagonal form {shape}; {regime}")
    a = read_rational(a)
    if case == "c4":
        label, b = "order-4 cyclic case", -1
    else:
        label, b = "order-8 dihedral case", -read_rational(b)
    failing = ["inf" if p is None else str(p)
               for p, s in hilbert_profile(a, b) if s == -1]
    if failing:
        note = f"symbol ({a}, {b}) is -1 at place(s) " + ", ".join(failing)
    else:
        note = (f"symbol ({a}, {b}) is +1 at every place of Q"
                " (additively: the symbol vanishes)")
    criterion = (label + ": " + note
                 + "; meaningful when the constants are nonsquares in the base field")
    return Verdict(not failing, criterion)
