"""Hilbert symbols over Q and the rationality criteria built on them.

The local symbol (a,b)_v is +1 when z^2 = a*x^2 + b*y^2 has a nontrivial
solution over the completion of Q at v, and -1 otherwise.  Places are the
finite primes and the real place "inf".  Classical texts also write the
global condition additively, "(a,b) = 0"; here trivial means +1 at every
place.

Only finitely many places can give -1: the prime 2, the real place, and
the odd primes dividing a numerator or denominator of either argument.
Factoring is plain trial division with a hard input bound, so desk-scale
inputs stay cheap and oversized ones fail loudly (FactorizationLimit).
"""

from fractions import Fraction
from math import isqrt

from .errors import FactorizationLimit
from .field import _is_prime

DEFAULT_FACTOR_BOUND = 10 ** 9


class Place:
    """A completion of Q: Place(p) for a finite prime, Place() for inf."""

    def __init__(self, p=None):
        if p is not None:
            if not _is_prime(p):
                raise ValueError(f"not a prime: {p!r}")
        self.p = p

    @property
    def is_infinite(self):
        return self.p is None

    @classmethod
    def parse(cls, text):
        t = str(text).strip().lower()
        if t in ("inf", "infinity", "real", "oo"):
            return cls()
        try:
            p = int(t)
        except ValueError:
            raise ValueError(f"bad place: {text!r}")
        return cls(p)

    def __eq__(self, other):
        return isinstance(other, Place) and self.p == other.p

    def __hash__(self):
        return hash(("place", self.p))

    def __str__(self):
        return "inf" if self.p is None else str(self.p)

    def __repr__(self):
        return "Place()" if self.p is None else f"Place({self.p})"


class SymbolQuery:
    """An ordered pair of nonzero rationals, the arguments of a symbol."""

    def __init__(self, a, b):
        a = Fraction(a)
        b = Fraction(b)
        if a == 0 or b == 0:
            raise ValueError("symbol arguments must be nonzero")
        self.a = a
        self.b = b

    def __repr__(self):
        return f"SymbolQuery({self.a}, {self.b})"


def valuation(x, p):
    """Exponent of the prime p in the nonzero rational x."""
    x = Fraction(x)
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
    return Fraction(x) / Fraction(p) ** v


def _legendre(n, p):
    # n prime to p, p odd
    return 1 if pow(n % p, (p - 1) // 2, p) == 1 else -1


def _legendre_unit(u, p):
    # quadratic class of a p-adic unit written as a fraction;
    # 1/d and d agree up to squares, so numerator*denominator works
    return _legendre(u.numerator * u.denominator, p)


def _eps(u):
    # class of (u-1)/2 mod 2 for an odd unit; multiplicative in u,
    # so a fraction n/d reduces to the odd integer n*d
    t = u.numerator * u.denominator
    return ((t - 1) // 2) % 2


def _omega(u):
    # class of (u^2-1)/8 mod 2 for an odd unit
    t = u.numerator * u.denominator
    return ((t * t - 1) // 8) % 2


def hilbert_local(q, v):
    """The local symbol of q = (a, b) at the place v, as +1 or -1."""
    a, b = q.a, q.b
    if v.is_infinite:
        return -1 if a < 0 and b < 0 else 1
    p = v.p
    al = valuation(a, p)
    be = valuation(b, p)
    u = _unit_part(a, p, al)
    w = _unit_part(b, p, be)
    if p == 2:
        e = _eps(u) * _eps(w) + al * _omega(w) + be * _omega(u)
        return -1 if e % 2 else 1
    s = -1 if (al * be * ((p - 1) // 2)) % 2 else 1
    if be % 2:
        s *= _legendre_unit(u, p)
    if al % 2:
        s *= _legendre_unit(w, p)
    return s


def prime_support(n, bound=DEFAULT_FACTOR_BOUND):
    """Set of primes dividing the positive integer n, by trial division.

    Raises FactorizationLimit when n exceeds the bound; below it the
    residue left after dividing out everything up to sqrt(n) is prime.
    """
    if n <= 0:
        raise ValueError("need a positive integer")
    if n > bound:
        raise FactorizationLimit(f"{n} exceeds the factoring bound {bound}")
    found = set()
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            found.add(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        found.add(m)
    return found


def _candidate_places(numbers, bound):
    """2, the odd primes of the numerators and denominators, then infinity."""
    odd = set()
    for x in numbers:
        for n in (abs(x.numerator), x.denominator):
            if n > 1:
                odd |= prime_support(n, bound)
    odd.discard(2)
    places = [Place(2)]
    places.extend(Place(p) for p in sorted(odd))
    places.append(Place())
    return places


def bad_places(q, bound=DEFAULT_FACTOR_BOUND):
    """Places where the symbol could be -1: 2, odd support of a and b, inf."""
    return _candidate_places((q.a, q.b), bound)


def hilbert_profile(q, bound=DEFAULT_FACTOR_BOUND):
    """List of (place, local symbol) over the finitely many candidate places."""
    return [(v, hilbert_local(q, v)) for v in bad_places(q, bound)]


def hilbert_global_trivial(q, bound=DEFAULT_FACTOR_BOUND):
    """True when the symbol is +1 at every place of Q."""
    return all(s == 1 for _, s in hilbert_profile(q, bound))


def is_rational_square(x):
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def is_local_square(x, v):
    """Whether the nonzero rational x is a square in the completion at v."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("need a nonzero rational")
    if v.is_infinite:
        return x > 0
    p = v.p
    val = valuation(x, p)
    if val % 2:
        return False
    u = _unit_part(x, p, val)
    if p == 2:
        return (u.numerator * u.denominator) % 8 == 1
    return _legendre_unit(u, p) == 1


def _hasse_invariant(coeffs, v):
    s = 1
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            s *= hilbert_local(SymbolQuery(coeffs[i], coeffs[j]), v)
    return s


def quadric_isotropic(coeffs, bound=DEFAULT_FACTOR_BOUND):
    """Whether sum(c_i * x_i^2) = 0 has a nontrivial rational solution.

    Diagonal forms only.  A zero coefficient gives an axis point at once.
    Otherwise the rank decides the test: rank 1 never, rank 2 by a square
    test, rank 3 by one global symbol, rank 4 by the local discriminant
    and Hasse-invariant comparison at the candidate places, and rank 5 or
    more by indefiniteness alone (every finite place is automatic there).
    """
    cs = [Fraction(c) for c in coeffs]
    if not cs:
        return False
    if any(c == 0 for c in cs):
        return True
    n = len(cs)
    if n == 1:
        return False
    if n == 2:
        return is_rational_square(-cs[1] / cs[0])
    if n == 3:
        q = SymbolQuery(-cs[0] / cs[2], -cs[1] / cs[2])
        return hilbert_global_trivial(q, bound)
    if n == 4:
        d = Fraction(1)
        for c in cs:
            d *= c
        minus_one = SymbolQuery(-1, -1)
        for v in _candidate_places(cs, bound):
            if is_local_square(d, v) and \
                    _hasse_invariant(cs, v) != hilbert_local(minus_one, v):
                return False
        return True
    return any(c > 0 for c in cs) and any(c < 0 for c in cs)


_QUADRIC_REGIME = {
    1: "rank 1: no nontrivial zero exists",
    2: "rank 2: ratio must be a rational square",
    3: "rank 3: one global symbol decides",
    4: "rank 4: local discriminant and Hasse invariant at candidate places",
}


class Verdict:
    """Outcome of a rationality decision.

    rational     -- the decided boolean
    criterion    -- which test ran and what it returned
    consequence  -- what the outcome means for the invariant field
    details      -- optional mapping with the per-place symbols
    """

    def __init__(self, rational, criterion, consequence, details=None):
        self.rational = bool(rational)
        self.criterion = criterion
        self.consequence = consequence
        self.details = dict(details) if details else {}

    def to_json(self):
        return {
            "rational": self.rational,
            "criterion": self.criterion,
            "consequence": self.consequence,
        }

    def __repr__(self):
        flag = "rational" if self.rational else "not rational"
        return f"Verdict({flag}: {self.criterion})"


def _symbol_verdict(label, q, bound):
    profile = hilbert_profile(q, bound)
    failing = [str(v) for v, s in profile if s == -1]
    trivial = not failing
    note = ("symbol ({}, {}) is +1 at every place of Q"
            " (additively: the symbol vanishes)"
            if trivial else
            "symbol ({}, {}) is -1 at place(s) " + ", ".join(failing))
    criterion = (label + ": " + note.format(q.a, q.b)
                 + "; meaningful when the constants are nonsquares in the base field")
    if trivial:
        consequence = "the invariant field is rational over the base field"
    else:
        consequence = ("the invariant field is not rational and not even"
                       " unirational over the base field, which must be"
                       " infinite with nontrivial Brauer group")
    details = {str(v): s for v, s in profile}
    return Verdict(trivial, criterion, consequence, details)


def decide_rationality(case, a=None, b=None, coeffs=None,
                       bound=DEFAULT_FACTOR_BOUND):
    """Decide a rationality criterion.

    case "c4"      -- needs a; tests the symbol (a, -1)
    case "d4"      -- needs a and b; tests the symbol (a, -b)
    case "quadric" -- needs nonempty coeffs; tests the diagonal form for
                      a nontrivial rational zero
    """
    if case == "c4":
        if a is None:
            raise ValueError("case c4 needs a")
        return _symbol_verdict("order-4 cyclic case", SymbolQuery(a, -1), bound)
    if case == "d4":
        if a is None or b is None:
            raise ValueError("case d4 needs a and b")
        return _symbol_verdict("order-8 dihedral case",
                               SymbolQuery(a, Fraction(-1) * Fraction(b)), bound)
    if case == "quadric":
        if not coeffs:
            raise ValueError("case quadric needs a nonempty coeffs list")
        cs = [Fraction(c) for c in coeffs]
        zero = quadric_isotropic(cs, bound)
        regime = _QUADRIC_REGIME.get(
            len(cs), "rank 5 or more: indefinite forms are isotropic over Q")
        shape = " + ".join(f"({c})*x{i}^2" for i, c in enumerate(cs))
        criterion = f"diagonal form {shape}; {regime}"
        if zero:
            consequence = ("the form has a nontrivial rational zero, so the"
                           " function field of the quadric is rational over"
                           " the base field")
        else:
            consequence = ("the form has no nontrivial rational zero, so the"
                           " function field of the quadric is neither rational"
                           " nor unirational over the base field")
        return Verdict(zero, criterion, consequence)
    raise ValueError(f"unknown case: {case!r}")
