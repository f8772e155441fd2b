"""Exact arithmetic in the six imaginary quadratic fields with 2 inert.

K = Q(sqrt(D)) for D in {-3, -11, -19, -43, -67, -163}: exactly the
class-number-one imaginary quadratic fields with D = 5 mod 8, so 2 stays
prime in O_K.  Ring of integers O_K = Z[w] with w = (1+sqrt(D))/2, which
satisfies w^2 = w - c where c = (1-D)/4.  Everything here is exact integer
arithmetic on coordinates in the basis {1, w}.

On top of the arithmetic sit the places of K, the curve (CurveSpec, b
factored once) and its descent classes.  A descent class is one HomSpace,
v^2 = b1*u^4 + b2*w^4, from candidate (selmer_candidates) to local verdict
(localsolve) to Selmer basis (descent).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import arith
from .errors import (
    DomainError,
    InternalInconsistency,
    InvalidModulus,
    NotSplit,
    UnsupportedField,
    ZeroCoefficient,
)

SUPPORTED_DISCS = (-3, -11, -19, -43, -67, -163)


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    if p < 3 or not arith.isprime(p):
        raise InvalidModulus(f"modulus {p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@dataclass(frozen=True)
class QuadInt:
    """a + b*w with w = (1+sqrt(D))/2; cw = norm(w) = (1-D)/4 tags the ring."""

    a: int
    b: int
    cw: int

    def _coerce(self, other: "QuadInt | int") -> "QuadInt | None":
        if isinstance(other, int):
            return QuadInt(other, 0, self.cw)
        if isinstance(other, QuadInt):
            if other.cw != self.cw:
                raise DomainError(f"mixed fields: w^2 = w - {self.cw} and w^2 = w - {other.cw}")
            return other
        return None

    def __add__(self, other: "QuadInt | int") -> "QuadInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.a + o.a, self.b + o.b, self.cw)

    __radd__ = __add__

    def __sub__(self, other: "QuadInt | int") -> "QuadInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.a - o.a, self.b - o.b, self.cw)

    def __rsub__(self, other: "QuadInt | int") -> "QuadInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: "QuadInt | int") -> "QuadInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a+bw)(a'+b'w) with w^2 = w - cw
        a, b, c, d = self.a, self.b, o.a, o.b
        return QuadInt(a * c - b * d * self.cw, a * d + b * c + b * d, self.cw)

    __rmul__ = __mul__

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.cw)

    def __pow__(self, n: int) -> "QuadInt":
        if n < 0:
            raise DomainError(f"negative exponent {n} in O_K")
        out = QuadInt(1, 0, self.cw)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "QuadInt":
        # conj(w) = 1 - w
        return QuadInt(self.a + self.b, -self.b, self.cw)

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b + self.b * self.b * self.cw

    def trace(self) -> int:
        return 2 * self.a + self.b

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def divide_exact(self, other: "QuadInt | int") -> "QuadInt":
        """Exact division; raises unless the quotient lies in O_K."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot divide {self} by {other!r}")
        if o.is_zero:
            raise ZeroCoefficient(f"cannot divide {self} by 0")
        n = o.norm()
        num = self * o.conj()
        if num.a % n or num.b % n:
            raise DomainError(f"{self} is not divisible by {o}")
        return QuadInt(num.a // n, num.b // n, self.cw)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        bpart = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}*w")
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{bpart}"


class PlaceKind(Enum):
    INERT = "inert"
    SPLIT = "split"
    RAMIFIED = "ramified"
    TWO_ADIC = "two-adic"


@dataclass(frozen=True)
class FieldCtx:
    """Immutable context for one of the six supported fields.

    seed is the 2-adic square root u of -D/3 with u = 1 mod 4, stored mod 64:
    enough precision that w -> (1+u)/2 + u*zeta3 is well defined mod 32 in the
    2-adic model Z_2[zeta3].
    """

    D: int
    omega_norm: int
    seed: int

    def of(self, x: "QuadInt | int") -> QuadInt:
        if isinstance(x, QuadInt):
            if x.cw != self.omega_norm:
                raise DomainError(f"{x} (w^2 = w - {x.cw}) is not in Q(sqrt({self.D}))")
            return x
        return QuadInt(x, 0, self.omega_norm)

    def omega(self) -> QuadInt:
        return QuadInt(0, 1, self.omega_norm)

    def sqrt_disc(self) -> QuadInt:
        # sqrt(D) = 2w - 1
        return QuadInt(-1, 2, self.omega_norm)

    def units(self) -> tuple[QuadInt, ...]:
        one = QuadInt(1, 0, self.omega_norm)
        if self.D == -3:
            # w = zeta6 generates the unit group of Z[zeta3]
            w = self.omega()
            us = [one]
            for _ in range(5):
                us.append(us[-1] * w)
            return tuple(us)
        return (one, -one)


def make_field(D: int) -> FieldCtx:
    if D not in SUPPORTED_DISCS:
        raise UnsupportedField(
            f"D={D} unsupported; need D in {SUPPORTED_DISCS} (2 inert, class number 1)"
        )
    c = (1 - D) // 4
    # u^2 = -D/3 in Z_2; solving mod 2^8 pins u mod 64 once we fix u = 1 mod 4.
    target = (-D * pow(3, -1, 256)) % 256
    roots = [r for r in range(1, 256, 4) if r * r % 256 == target]
    if not roots or any(r % 64 != roots[0] % 64 for r in roots):
        raise InternalInconsistency(f"D={D}: roots {roots} of u^2 = -D/3 mod 256 do not fix u mod 64")
    return FieldCtx(D=D, omega_norm=c, seed=roots[0] % 64)


def canonical_associate(x: QuadInt, F: FieldCtx) -> QuadInt:
    """Deterministic representative of x among its unit multiples.

    Positive trace, then minimal trace, ties broken by larger a-coordinate.
    If every associate has trace 0 (rational multiples of sqrt(D)), the one
    with b > 0 is chosen.
    """
    if x.is_zero:
        raise ZeroCoefficient("0 has no canonical associate")
    assocs = [x * u for u in F.units()]
    positive = [y for y in assocs if y.trace() > 0]
    if positive:
        return min(positive, key=lambda y: (y.trace(), -y.a))
    zero = [y for y in assocs if y.trace() == 0 and y.b > 0]
    if not zero:
        raise InternalInconsistency(f"no associate of {x} has positive trace or b > 0")
    return max(zero, key=lambda y: y.a)


@dataclass(frozen=True)
class SplitData:
    """Splitting of a rational prime p in O_K.

    For split p: alpha is the canonical prime element above p and t its
    trace.
    """

    p: int
    kind: PlaceKind
    alpha: QuadInt | None = None
    t: int | None = None


def _norm_equation_lattice(p: int, F: FieldCtx) -> QuadInt:
    # Lagrange-Gauss reduction on the ideal lattice (p, w - r) where r is a
    # root of x^2 - x + c mod p; the shortest vector generates the ideal.
    c = F.omega_norm
    s = arith.sqrt_mod(F.D, p)  # disc of x^2 - x + c is D
    if s is None:
        raise InternalInconsistency(f"D={F.D} has no square root mod the split prime {p}")
    root = ((1 + s) * pow(2, -1, p)) % p
    if (root * root - root + c) % p:
        raise InternalInconsistency(f"{root} is not a root of x^2 - x + {c} mod {p}")
    v1 = QuadInt(p, 0, c)
    v2 = QuadInt(-root, 1, c)

    def bilinear(x: QuadInt, y: QuadInt) -> int:
        return ((x + y).norm() - x.norm() - y.norm()) // 2

    while True:
        if v1.norm() < v2.norm():
            v1, v2 = v2, v1
        n2 = v2.norm()
        m = (2 * bilinear(v1, v2) + n2) // (2 * n2)  # round to nearest
        v1 = v1 - m * v2
        if v1.norm() >= v2.norm():
            break
    if v2.norm() != p:
        raise InternalInconsistency(f"reduced lattice vector {v2} has norm {v2.norm()}, not {p}")
    return v2


@lru_cache(maxsize=None)
def splitting_type(p: int, F: FieldCtx) -> SplitData:
    """How p splits in O_K; decided once per (p, field) and cached."""
    if not arith.isprime(p):
        raise InvalidModulus(f"{p} is not a prime")
    if p == 2:
        # D = 5 mod 8 for every supported field, so 2 is always inert.
        return SplitData(p=2, kind=PlaceKind.INERT)
    if F.D % p == 0:
        return SplitData(p=p, kind=PlaceKind.RAMIFIED)
    if legendre_symbol(F.D, p) == 1:
        raw = _norm_equation_lattice(p, F)
        # The two primes above p have the same trace multiset (conjugation
        # preserves traces), so the associate rule alone cannot distinguish
        # them; extend the a-coordinate tie-break across both so the choice
        # does not depend on which one the norm-equation solver found.
        cand1 = canonical_associate(raw, F)
        cand2 = canonical_associate(raw.conj(), F)
        alpha = cand1 if cand1.a >= cand2.a else cand2
        if cand1.trace() != cand2.trace() or alpha.norm() != p:
            raise InternalInconsistency(f"{cand1} and {cand2} are not conjugate primes above {p}")
        return SplitData(p=p, kind=PlaceKind.SPLIT, alpha=alpha, t=alpha.trace())
    return SplitData(p=p, kind=PlaceKind.INERT)


def trace_character(s: SplitData) -> int:
    if s.kind is not PlaceKind.SPLIT:
        raise NotSplit(f"p={s.p} does not split")
    return legendre_symbol(s.t, s.p)


@dataclass(frozen=True)
class Place:
    """A finite place of K: residue field size q and uniformizer pi.

    Split odd primes give two places (one per conjugate prime element);
    omega_image is the image of w in the residue field F_p when that field
    is prime (split and ramified places).
    """

    kind: PlaceKind
    p: int
    q: int
    pi: QuadInt
    omega_image: int | None = None

    def __str__(self) -> str:
        if self.kind is PlaceKind.SPLIT:
            return f"({self.pi}) over {self.p}"
        return f"({self.p})" if self.kind is PlaceKind.INERT else f"({self.pi})"


def places_above(p: int, F: FieldCtx) -> tuple[Place, ...]:
    if p == 2:
        return (Place(PlaceKind.TWO_ADIC, 2, 4, F.of(2)),)
    data = splitting_type(p, F)
    if data.kind is PlaceKind.INERT:
        return (Place(PlaceKind.INERT, p, p * p, F.of(p)),)
    if data.kind is PlaceKind.RAMIFIED:
        # w = (1 + sqrt(D))/2 maps to 1/2 in the residue field
        return (Place(PlaceKind.RAMIFIED, p, p, F.sqrt_disc(), pow(2, -1, p)),)
    out = []
    for alpha in (data.alpha, data.alpha.conj()):
        # alpha | (w - r): r = -a/b mod p in the basis alpha = a + b*w
        if alpha.b % p == 0:
            raise InternalInconsistency(f"prime element {alpha} above {p} has b divisible by {p}")
        r = (-alpha.a * pow(alpha.b, -1, p)) % p
        if (r * r - r + F.omega_norm) % p:
            raise InternalInconsistency(f"{r} is not a root of x^2 - x + {F.omega_norm} mod {p}")
        out.append(Place(PlaceKind.SPLIT, p, p, alpha, r))
    return tuple(out)


def val_unit(x: "QuadInt | int", place: Place, F: FieldCtx) -> tuple[int, QuadInt]:
    """x = pi^val * unit at the given place; exact on all of O_K - {0}.

    A residue test, then one loop.  Where pi is the rational prime p (inert
    places and 2), pi divides y exactly when p divides both coordinates.
    Elsewhere the residue field is F_p, and a nonzero image of x there
    makes x a unit; otherwise pi divides y exactly when N(pi) divides both
    coordinates of y*conj(pi), and then y/pi = y*conj(pi)/N(pi).
    """
    x = F.of(x)
    if x.is_zero:
        raise ZeroCoefficient(f"0 has no valuation at {place}")
    a, b, c, k = x.a, x.b, x.cw, 0
    r = place.omega_image
    if r is None:
        p = place.p
        while a % p == 0 and b % p == 0:
            a, b, k = a // p, b // p, k + 1
        return (0, x) if k == 0 else (k, QuadInt(a, b, c))
    if (a + b * r) % place.p:
        return 0, x
    pi = place.pi
    ca, cb, n = pi.a + pi.b, -pi.b, pi.norm()  # conj(pi) = ca + cb*w
    while True:
        # (a + b*w)(ca + cb*w) with w^2 = w - c
        s, t = a * ca - b * cb * c, a * cb + b * ca + b * cb
        if s % n or t % n:
            return k, QuadInt(a, b, c)
        a, b, k = s // n, t // n, k + 1


def residue_image(x: QuadInt, place: Place) -> int:
    """Image of x in the residue field F_p at a split or ramified place."""
    if place.omega_image is None:
        raise DomainError(f"the residue field at {place} is not F_p")
    return (x.a + x.b * place.omega_image) % place.p


class Side(Enum):
    PHI = "phi"
    PHIHAT = "phihat"


@dataclass(frozen=True)
class HomSpace:
    """v^2 = b1*u^4 + a*u^2*w^2 + b2*w^4 over O_K; b1*b2 != 0.

    A descent class is such a space with a = 0 and b1*b2 fixed by side;
    torsion marks the class of a rational 2-torsion point, and mask records
    which generators divide b1 (bit i = generator i), so classes multiply
    modulo squares by xor of masks.
    """

    a: QuadInt
    b1: QuadInt
    b2: QuadInt
    side: Side | None = None
    torsion: bool = False
    mask: int = 0

    def __post_init__(self) -> None:
        if self.b1.is_zero or self.b2.is_zero:
            raise ZeroCoefficient("homogeneous space needs b1*b2 != 0")

    @classmethod
    def make(
        cls,
        b1: QuadInt | int,
        b2: QuadInt | int,
        F: FieldCtx,
        a: QuadInt | int = 0,
        side: Side | None = None,
        torsion: bool = False,
    ) -> "HomSpace":
        return cls(a=F.of(a), b1=F.of(b1), b2=F.of(b2), side=side, torsion=torsion)


def squarefree_factors(n: int) -> dict[int, int] | None:
    """The prime factorization of n if n is a positive squarefree integer, else None."""
    if n < 1:
        return None
    fac = arith.factorint(n)
    return fac if all(e == 1 for e in fac.values()) else None


@dataclass(frozen=True)
class CurveSpec:
    """E: y^2 = x^3 + b*x over Q(sqrt(D)), b nonzero and fourth-power-free.

    factors is the factorization of |b|, (prime, exponent) pairs with
    ascending primes.  Generators, candidates, torsion classes, bad places
    and closed forms all read it, so b is factored once per curve; when it
    is left out it is computed here.
    """

    b: int
    F: FieldCtx
    factors: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.b == 0:
            raise ZeroCoefficient("b must be nonzero")
        if self.factors is None:
            object.__setattr__(self, "factors", tuple(sorted(arith.factorint(abs(self.b)).items())))
        elif math.prod(p**e for p, e in self.factors) != abs(self.b):
            raise DomainError(f"factors {self.factors} do not multiply to |b| = {abs(self.b)}")
        if any(e >= 4 for _, e in self.factors):
            raise DomainError(f"b must be fourth-power-free, got {self.b}")

    @property
    def odd_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors if p != 2)


def curve_spec(b: int, F: FieldCtx) -> CurveSpec:
    """CurveSpec for b with fourth powers stripped (same curve class)."""
    if b == 0:
        raise ZeroCoefficient("b must be nonzero")
    factors = tuple((p, e % 4) for p, e in sorted(arith.factorint(abs(b)).items()) if e % 4)
    reduced = math.prod(p**e for p, e in factors)
    return CurveSpec(reduced if b > 0 else -reduced, F, factors)


def descent_generators(spec: CurveSpec) -> tuple[QuadInt, ...]:
    """Multiplicative generators of the candidate class group of the curve.

    -1 and 2 first, then one or two prime elements per ascending odd prime
    divisor of b (two for split primes: conjugates).
    """
    F = spec.F
    gens: list[QuadInt] = [F.of(-1), F.of(2)]
    for p in spec.odd_primes:
        data = splitting_type(p, F)
        if data.kind is PlaceKind.SPLIT:
            gens.append(data.alpha)
            gens.append(data.alpha.conj())
        elif data.kind is PlaceKind.RAMIFIED:
            gens.append(F.sqrt_disc())
        else:
            gens.append(F.of(p))
    return tuple(gens)


def torsion_mask(spec: CurveSpec, side: Side) -> int:
    """Generator mask of the class of -4b (side PHI) or of b (side PHIHAT).

    Read from exponent parities in the order of descent_generators: the sign
    is bit 0 and 2 is bit 1; an odd power of a split prime sets the bits of
    both conjugates, and one of an inert prime its single bit.  A ramified
    p = -sqrt(D)^2 is a square up to sign, so it only flips the sign.
    """
    negative = spec.b > 0 if side is Side.PHI else spec.b < 0
    mask, bit = 0, 2
    for p, e in spec.factors:
        if p == 2:
            mask |= (e % 2) << 1
            continue
        kind = splitting_type(p, spec.F).kind
        width = 2 if kind is PlaceKind.SPLIT else 1
        if e % 2 and kind is PlaceKind.RAMIFIED:
            negative = not negative
        elif e % 2:
            mask |= ((1 << width) - 1) << bit
        bit += width
    return mask | int(negative)


def selmer_candidates(
    spec: CurveSpec | int, side: Side, F: FieldCtx | None = None
) -> tuple[HomSpace, ...]:
    """The spaces of all 2^(g+1) candidate classes for the given side, in
    mask order.

    Side PHI pairs satisfy b1*b2 = -4b; side PHIHAT pairs satisfy
    b1*b2 = 16b with factors of 16 stripped from b2 (same class as
    b1*b2 = b, kept integral).  An int b with its field F stands for
    CurveSpec(b, F), the form the benchmark worker calls.
    """
    if not isinstance(spec, CurveSpec):
        spec = CurveSpec(spec, F)
    F = spec.F
    gens = descent_generators(spec)
    product = F.of(-4 * spec.b) if side is Side.PHI else F.of(16 * spec.b)
    tmask = torsion_mask(spec, side)

    # doubling keeps mask order: bit i of the index is set iff g_i divides b1
    b1s = [F.of(1)]
    for g in gens:
        b1s += [x * g for x in b1s]
    zero = F.of(0)
    out = []
    for mask, b1 in enumerate(b1s):
        b2 = product.divide_exact(b1)
        if side is Side.PHIHAT:
            while b2.a % 16 == 0 and b2.b % 16 == 0:
                b2 = QuadInt(b2.a // 16, b2.b // 16, b2.cw)
        out.append(HomSpace(zero, b1, b2, side, torsion=mask in (0, tmask), mask=mask))
    return tuple(out)
