"""Quadratic-character existence checks over small finite fields.

Decides statements of the form "some x in F_q has chi(c*x^degree + d) = 1"
by direct enumeration, and scans entire (c, d) ranges for exceptions.
Also provides the residue-field model (including F_{p^2} with a custom
quadratic modulus), which serves only `verify charsum` and the local
solvability predicates at inert places; elsewhere the predicates, and the
search oracle everywhere, use their own arithmetic.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd

from . import arith
from .errors import DomainError, InternalInconsistency, InvalidModulus, ZeroCoefficient
from .quadfield import legendre_symbol

Element = "int | tuple[int, ...]"

# highest extension degree k of a residue field F_{p^k}
MAX_DEGREE = 4
# largest field order: the square set of F_q is enumerated on first use
MAX_ORDER = 10**8


def _least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if legendre_symbol(n, p) == -1:
            return n
    raise InternalInconsistency(f"no quadratic nonresidue mod {p}")


@lru_cache(maxsize=None)
def _lex_least_irreducible(p: int, k: int) -> tuple[int, ...]:
    # monic z^k + a_{k-1} z^{k-1} + ... + a_0, coefficient vectors tried in
    # lexicographic order on (a_{k-1}, ..., a_0)
    for tail in product(range(p), repeat=k):
        f = (1, *tail)
        if arith.is_irreducible(f, p):
            return f
    raise InternalInconsistency(f"no irreducible of degree {k} over F_{p}")


class ResidueField:
    """F_q, q = p^k odd, as F_p[z]/(modulus); elements are ints (k=1)
    or ascending-coefficient tuples (k >= 2).

    modulus is monic with descending coefficients; the default is z^2 - n
    with n the least positive nonresidue for k = 2 and the lex-least
    irreducible for k in {3, 4}.  A custom quadratic modulus (e.g.
    z^2 - z + c so that omega maps to z) may be supplied.
    """

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if not arith.isprime(p) or p == 2:
            raise InvalidModulus(f"characteristic must be an odd prime, got {p}")
        if not 1 <= k <= MAX_DEGREE:
            raise InvalidModulus(f"extension degree must be 1..{MAX_DEGREE}, got {k}")
        if p**k > MAX_ORDER:
            raise DomainError(f"F_{p}^{k} has more than {MAX_ORDER} elements to enumerate")
        self.p = p
        self.k = k
        self.q = p**k
        if k == 1:
            self.modulus = (1, 0)
        elif modulus is not None:
            if len(modulus) != k + 1 or modulus[0] % p != 1:
                raise InvalidModulus(f"{modulus} is not a monic polynomial of degree {k}")
            mod = tuple(c % p for c in modulus)
            if not arith.is_irreducible(mod, p):
                raise InvalidModulus(f"{modulus} is reducible over F_{p}")
            self.modulus = mod
        elif k == 2:
            self.modulus = (1, 0, (-_least_nonresidue(p)) % p)
        else:
            self.modulus = _lex_least_irreducible(p, k)
        # z^k = sum(reduction[i] * z^i), ascending
        self._reduction = tuple((-c) % p for c in reversed(self.modulus[1:]))
        self.zero = 0 if k == 1 else (0,) * k
        self.one = 1 if k == 1 else (1,) + (0,) * (k - 1)

    def coerce(self, x) -> "int | tuple[int, ...]":
        if isinstance(x, int):
            return x % self.p if self.k == 1 else (x % self.p,) + (0,) * (self.k - 1)
        if self.k == 1 or not isinstance(x, tuple) or len(x) != self.k:
            raise DomainError(f"{x!r} is not an element of F_{self.q}")
        return tuple(c % self.p for c in x)

    def add(self, x, y):
        if self.k == 1:
            return (x + y) % self.p
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        if self.k == 1:
            return (-x) % self.p
        return tuple((-a) % self.p for a in x)

    def mul(self, x, y):
        p, k = self.p, self.k
        if k == 1:
            return (x * y) % p
        raw = [0] * (2 * k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    raw[i + j] += a * b
        for deg in range(2 * k - 2, k - 1, -1):
            coeff = raw[deg] % p
            if coeff:
                raw[deg] = 0
                for i, r in enumerate(self._reduction):
                    raw[deg - k + i] += coeff * r
        return tuple(c % p for c in raw[:k])

    def pow(self, x, n: int):
        if n < 0:
            raise DomainError(f"negative exponent {n}; use inv")
        out, base = self.one, x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, x):
        if x == self.zero:
            raise ZeroCoefficient(f"0 has no inverse in F_{self.q}")
        return self.pow(x, self.q - 2)

    def elements(self):
        if self.k == 1:
            yield from range(self.p)
        else:
            for coeffs in product(range(self.p), repeat=self.k):
                yield coeffs

    @property
    def _square_set(self) -> frozenset:
        cached = getattr(self, "_sq_cache", None)
        if cached is None:
            cached = frozenset(self.mul(x, x) for x in self.elements())
            self._sq_cache = cached
        return cached

    def chi(self, x) -> int:
        x = self.coerce(x)
        if x == self.zero:
            return 0
        return 1 if x in self._square_set else -1

    def is_fourth_power(self, x) -> bool:
        """x != 0 and x = y^4 for some y (chi_4(x) = 1)."""
        x = self.coerce(x)
        if x == self.zero:
            return False
        e = (self.q - 1) // gcd(4, self.q - 1)
        return self.pow(x, e) == self.one


@lru_cache(maxsize=None)
def default_field(q: int) -> ResidueField:
    fac = arith.factorint(q)
    if q < 2 or len(fac) != 1:
        raise InvalidModulus(f"{q} is not a prime power")
    ((p, k),) = fac.items()
    return ResidueField(p, k)


def chi_exists(c, d, degree: int, F: ResidueField) -> bool:
    """Whether some x in F_q satisfies chi(c*x^degree + d) = 1."""
    if degree not in (2, 4):
        raise DomainError(f"degree must be 2 or 4, got {degree}")
    c, d = F.coerce(c), F.coerce(d)
    if c == F.zero or d == F.zero:
        raise ZeroCoefficient(f"need c*d != 0, got c={c}, d={d}")
    for x in F.elements():
        if F.chi(F.add(F.mul(c, F.pow(x, degree)), d)) == 1:
            return True
    return False


def exception_scan(degree: int, q: int) -> tuple:
    """All (c, d) with c*d != 0 for which chi_exists fails, sorted."""
    if degree not in (2, 4):
        raise DomainError(f"degree must be 2 or 4, got {degree}")
    F = default_field(q)
    chi_table = {x: F.chi(x) for x in F.elements()}
    powers = {F.pow(x, degree) for x in F.elements()}
    bad = []
    for c in F.elements():
        if c == F.zero:
            continue
        scaled = [F.mul(c, v) for v in powers]
        for d in F.elements():
            if d == F.zero:
                continue
            if not any(chi_table[F.add(v, d)] == 1 for v in scaled):
                bad.append((c, d))
    return tuple(sorted(bad))
