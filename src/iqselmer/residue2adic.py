"""Residue arithmetic for the 2-adic completion.

Every supported discriminant has D = 5 mod 8, so 2 is inert and the
completion at 2 is the unramified quadratic extension Q2(zeta), where
zeta is a primitive cube root of unity satisfying z^2 + z + 1 = 0.
Squareness of a unit is decided by its residue mod 8; the homogeneous-
space machinery additionally needs squares mod 32, so the tables for
both moduli live here.

Elements are coordinate pairs (c0, c1) meaning c0 + c1*zeta.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .quadfield import FieldCtx, QuadInt

Pair = tuple[int, int]


def zmul(x: Pair, y: Pair, m: int) -> Pair:
    # (a0 + a1 z)(b0 + b1 z) with z^2 = -z - 1
    a0, a1 = x
    b0, b1 = y
    return ((a0 * b0 - a1 * b1) % m, (a0 * b1 + a1 * b0 - a1 * b1) % m)


def zpow(x: Pair, n: int, m: int) -> Pair:
    if n < 0:
        raise DomainError(f"negative exponent {n} in Z_2[zeta3]")
    out: Pair = (1 % m, 0)
    base = (x[0] % m, x[1] % m)
    while n:
        if n & 1:
            out = zmul(out, base, m)
        base = zmul(base, base, m)
        n >>= 1
    return out


def zadd(x: Pair, y: Pair, m: int) -> Pair:
    return ((x[0] + y[0]) % m, (x[1] + y[1]) % m)


def is_unit_pair(x: Pair) -> bool:
    # nonzero image in the residue field F4 = R/2R
    return x[0] % 2 == 1 or x[1] % 2 == 1


@dataclass(frozen=True)
class R8Elem:
    """c0 + c1*zeta with both coordinates reduced mod 8."""

    c0: int
    c1: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", self.c0 % 8)
        object.__setattr__(self, "c1", self.c1 % 8)

    @property
    def pair(self) -> Pair:
        return (self.c0, self.c1)

    def is_unit(self) -> bool:
        return is_unit_pair(self.pair)

    def __add__(self, other: R8Elem) -> R8Elem:
        if not isinstance(other, R8Elem):
            return NotImplemented
        return R8Elem(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: R8Elem) -> R8Elem:
        if not isinstance(other, R8Elem):
            return NotImplemented
        return R8Elem(self.c0 - other.c0, self.c1 - other.c1)

    def __mul__(self, other: R8Elem) -> R8Elem:
        if not isinstance(other, R8Elem):
            return NotImplemented
        return R8Elem(*zmul(self.pair, other.pair, 8))

    def __neg__(self) -> R8Elem:
        return R8Elem(-self.c0, -self.c1)

    def __pow__(self, n: int) -> R8Elem:
        return R8Elem(*zpow(self.pair, n, 8))

    def conj(self) -> R8Elem:
        # zeta -> zeta^2 = -1 - zeta
        return R8Elem(self.c0 - self.c1, -self.c1)

    def norm(self) -> int:
        return (self.c0 * self.c0 - self.c0 * self.c1 + self.c1 * self.c1) % 8

    def trace(self) -> int:
        return (2 * self.c0 - self.c1) % 8

    def __str__(self) -> str:
        if self.c1 == 0:
            return str(self.c0)
        return f"{self.c0}+{self.c1}*zeta"


ZETA = R8Elem(0, 1)

# The three fourth powers and six squares among the 48 units mod 8:
# 1, zeta, zeta^2 and additionally 5, 5*zeta, 5*zeta^2.
FOURTH_POWERS_MOD8 = frozenset({R8Elem(1, 0), R8Elem(0, 1), R8Elem(7, 7)})
UNIT_SQUARES_MOD8 = FOURTH_POWERS_MOD8 | frozenset(
    {R8Elem(5, 0), R8Elem(0, 5), R8Elem(3, 3)}
)


def is_square_unit_mod8(x: Pair) -> bool:
    """Unit-square test on a coordinate pair (any lift; reduced mod 8 here)."""
    return R8Elem(x[0], x[1]) in UNIT_SQUARES_MOD8


@lru_cache(maxsize=None)
def unit_squares_mod32() -> frozenset[Pair]:
    out = set()
    for a in range(32):
        for b in range(32):
            if is_unit_pair((a, b)):
                out.add(zmul((a, b), (a, b), 32))
    return frozenset(out)


def embed_pair(x: QuadInt | int, F: FieldCtx, m: int) -> Pair:
    """Coordinates of x in Z2[zeta] mod m, for m | 32.

    sqrt(D) maps to u*(2*zeta+1) where u^2 = -D/3 in Z2, u = 1 mod 4;
    hence omega = (1+sqrt(D))/2 maps to (1+u)/2 + u*zeta.  The seed u is
    stored mod 64, which pins the image mod 32.
    """
    if m < 1 or 32 % m:
        raise DomainError(f"modulus {m} does not divide 32: the seed fixes the image mod 32 only")
    if isinstance(x, int):
        return (x % m, 0)
    u = F.seed
    w0 = (1 + u) // 2
    return ((x.a + x.b * w0) % m, (x.b * u) % m)


def embed_mod8(x: QuadInt | int, F: FieldCtx) -> R8Elem:
    return R8Elem(*embed_pair(x, F, 8))


def embed_mod32(x: QuadInt | int, F: FieldCtx) -> Pair:
    return embed_pair(x, F, 32)


@dataclass(frozen=True)
class CharPoly:
    """x^2 - t*x + s together with membership in the relevant residue list."""

    s: R8Elem
    t: R8Elem
    member: bool


def _rat(n: int) -> R8Elem:
    return R8Elem(n, 0)


# Admissible (t, s) for the characteristic polynomial of a conjugate pair
# of cubes (x - b1^3)(x - b2^3): the polynomials x^2 -/+ 2x + 1, x^2 + 3,
# x^2 -/+ 2x + 5, x^2 + 4x + 7.
MINUS_LIST = frozenset(
    {
        (_rat(2), _rat(1)),
        (_rat(6), _rat(1)),
        (_rat(0), _rat(3)),
        (_rat(2), _rat(5)),
        (_rat(6), _rat(5)),
        (_rat(4), _rat(7)),
    }
)

# Admissible (t, s) for the twisted pair (x - b1^3)(x + b2^3): the
# polynomials x^2 + 7, x^2 + (4*zeta -/+ 2)x + 5, x^2 + 4x + 3,
# x^2 + (4*zeta -/+ 2)x + 1.
PLUS_LIST = frozenset(
    {
        (_rat(0), _rat(7)),
        (R8Elem(6, 4), _rat(5)),
        (R8Elem(2, 4), _rat(5)),
        (_rat(4), _rat(3)),
        (R8Elem(6, 4), _rat(1)),
        (R8Elem(2, 4), _rat(1)),
    }
)


def pair_charpoly_mod8(b1: R8Elem, b2: R8Elem, sign: str) -> CharPoly:
    """Characteristic data of the cube pair (b1^3, +/- b2^3) mod 8.

    sign "-" gives (x - b1^3)(x - b2^3) = x^2 - t x + s with t = b1^3 + b2^3,
    s = b1^3 b2^3; sign "+" gives (x - b1^3)(x + b2^3), t = b1^3 - b2^3,
    s = -b1^3 b2^3.  member reports whether (t, s) lies in the admissible
    list for that sign.
    """
    if sign not in ("+", "-"):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    c1, c2 = b1**3, b2**3
    if sign == "-":
        t = c1 + c2
        s = c1 * c2
        return CharPoly(s=s, t=t, member=(t, s) in MINUS_LIST)
    t = c1 - c2
    s = -(c1 * c2)
    return CharPoly(s=s, t=t, member=(t, s) in PLUS_LIST)
