"""Local solvability of v^2 = b1*u^4 + a*u^2*w^2 + b2*w^4 at finite places.

The space is quadfield.HomSpace, imported here; with a = 0 it is a descent
class, and everywhere_verdicts decides it at the bad places of its curve.

Two independent routes decide whether the homogeneous space has a point
over the completion K_v:

* closed-form predicates, which inspect valuations and residue characters
  of the coefficients (complete for a = 0; partial criteria for a != 0);
* a brute-force residue search (oracle_search), which shares no logic with
  the predicates and is used to validate them.  It searches the chart w = 1
  over O and the chart u = 1 over pi O, which together cover P^1, after
  dividing out the content exactly in its own arithmetic.  It refines
  residue classes x0 + pi^j O of each chart's quartic f and decides a class
  by one of two certificates: Hensel's lemma (nu(f(x0)) > 2 nu(f'(x0))
  gives a root), or a Taylor-precision bound: the expansion f(x0 + h) -
  f(x0) = t1 h + t2 h^2 + t3 h^3 + c4 h^4 has valuation at least
  P = min(j + nu(t1), 2j + nu(t2), 3j + nu(t3), 4j + nu(c4)) for h in
  pi^j O, so when nu(f(x0)) + e <= P every member of the class has the
  valuation of f(x0) and its unit mod pi^e.  The certificate asks only for
  the e its verdict needs: e = 1 for an odd total valuation, at 2 e = 2 for
  a unit that is no square mod 4, and e = need (3 at 2, else 1) otherwise.
  The class of 0 at every depth reuses the chart's coefficients, with no
  evaluation of f.  Conjugation swaps the two places above a split p and
  maps the spaces of an integer b onto themselves, so a pass decided at one
  of them is kept in a small memo (_SPLIT_MEMO, at most _SPLIT_MEMO_CAP
  entries) under all that it reads, and answers the conjugate search once.

The predicates read quadfield.val_unit and residue_image, and
charsums.ResidueField (an enumerated F_{p^2}) for characters at inert
places.  The oracle reads none of them: its adapters compute valuations,
residue images and squares with their own arithmetic at every place.  Each
adapter is built from its Place and a precision M alone: integers mod p^M
at a split place, and one ring of residue pairs a + b*w mod p^M (w^2 = w - c)
at the inert, 2-adic and ramified places, which differ only in valuations,
division by powers of pi, the children of a class and squares.

Callers must never treat Unknown as either boolean: it means "this route
cannot decide", and the other route should be consulted.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, repeat
from math import gcd

from . import arith
from .charsums import ResidueField
from .errors import DomainError, EvenPlace, InternalInconsistency, UnknownVerdict
from .quadfield import (
    FieldCtx,
    HomSpace,
    Place,
    PlaceKind,
    QuadInt,
    make_field,
    places_above,
    residue_image,
    val_unit,
)
from .residue2adic import (
    FOURTH_POWERS_MOD8,
    Pair,
    embed_mod32,
    is_square_unit_mod8,
    unit_squares_mod32,
    zadd,
    zmul,
    zpow,
)


class VerdictTag(Enum):
    Solvable = "solvable"
    Insolvable = "insolvable"
    Unknown = "unknown"


@dataclass(frozen=True)
class SolveWitness:
    """Residue data certifying a point: (u : w : v) known mod pi^precision."""

    u: str
    w: str
    v: str | None
    precision: int


@dataclass(frozen=True)
class Verdict:
    tag: VerdictTag
    witness: SolveWitness | None
    reason: str


def _solvable(reason: str, witness: SolveWitness | None = None) -> Verdict:
    return Verdict(VerdictTag.Solvable, witness, reason)


def _insolvable(reason: str) -> Verdict:
    return Verdict(VerdictTag.Insolvable, None, reason)


def _unknown(reason: str) -> Verdict:
    return Verdict(VerdictTag.Unknown, None, reason)


@lru_cache(maxsize=None)
def _field_for_cw(cw: int) -> FieldCtx:
    return make_field(1 - 4 * cw)


@lru_cache(maxsize=None)
def _inert_field(p: int, c: int) -> ResidueField:
    # kappa_v = F_{p^2} presented so that omega maps to z (z^2 = z - c)
    return ResidueField(p, 2, modulus=(1, -1, c))


def _chi_unit(x: QuadInt, pl: Place) -> int:
    """Quadratic character of a unit on the residue field of pl."""
    if pl.kind is PlaceKind.INERT:
        val = _inert_field(pl.p, pl.pi.cw).chi((x.a, x.b))
    else:
        # pl.p is prime: Euler's criterion, without legendre_symbol's primality test
        val = pow(residue_image(x, pl), (pl.p - 1) // 2, pl.p)
        val = -1 if val == pl.p - 1 else val
    if val == 0:
        raise DomainError(f"{x} is not a unit at {pl}")
    return val


def _quartic_ratio_ok(beta1: QuadInt, beta2: QuadInt, pl: Place) -> bool:
    """Whether -beta2/beta1 is a fourth power in the residue field."""
    if pl.kind is PlaceKind.INERT:
        K = _inert_field(pl.p, pl.pi.cw)
        e1, e2 = K.coerce((beta1.a, beta1.b)), K.coerce((beta2.a, beta2.b))
        return K.is_fourth_power(K.neg(K.mul(e2, K.inv(e1))))
    # F_p^* is cyclic: r is a fourth power iff r^((p-1)/gcd(4, p-1)) = 1
    p = pl.p
    ratio = -residue_image(beta2, pl) * pow(residue_image(beta1, pl), -1, p)
    return pow(ratio % p, (p - 1) // gcd(4, p - 1), p) == 1


def predicate_odd_place(s: HomSpace, pl: Place) -> Verdict:
    """Closed-form solvability test at an odd place.

    For a = 0 this is a complete decision; for a != 0 it decides exactly
    when one of the degenerate-reduction criteria applies and returns
    Unknown otherwise.
    """
    if pl.kind is PlaceKind.TWO_ADIC:
        raise EvenPlace("odd-place predicate called at the 2-adic place")
    F = _field_for_cw(pl.pi.cw)
    v1, beta1 = val_unit(s.b1, pl, F)
    v2, beta2 = val_unit(s.b2, pl, F)

    if s.a.is_zero:
        # complete case analysis on the pair of valuations
        if v1 % 2 == 0 and _chi_unit(beta1, pl) == 1:
            return _solvable("odd:square-unit-coefficient")
        if v2 % 2 == 0 and _chi_unit(beta2, pl) == 1:
            return _solvable("odd:square-unit-coefficient")
        if v1 % 2 == 0 and v2 % 2 == 0:
            if (v1 - v2) % 4 == 0:
                return _solvable("odd:even-valuations-matched")
            return _insolvable("odd:no-square-combination")
        if v1 % 2 == 1 and v2 % 2 == 1 and (v1 - v2) % 4 == 0:
            if _quartic_ratio_ok(beta1, beta2, pl):
                return _solvable("odd:odd-valuations-quartic-ratio")
        return _insolvable("odd:no-square-combination")

    # a != 0: degenerate-reduction criteria, each an iff on its own domain
    va, alpha = val_unit(s.a, pl, F)
    b = s.b1 * s.b2
    vb = v1 + v2
    disc = s.a * s.a - 4 * b
    mu = None if disc.is_zero else val_unit(disc, pl, F)[0]

    # the same criteria at q = 3 and q > 3; only the reason's prefix differs
    tag = "odd3" if pl.q == 3 else "odd"
    if mu is not None and mu > 0 and vb == 0:
        # the reduction has a double root; at q = 3, p = 3 and the target is -1
        target = 1 if (pl.p % 8 in (5, 7) and pl.kind is PlaceKind.SPLIT) else -1
        ok = (
            _chi_unit(beta1, pl) == 1
            or _chi_unit(beta2, pl) == 1
            or (mu % 2 == 0 and _chi_unit(alpha, pl) == target)
        )
        reason = f"{tag}:degenerate-discriminant"
        return _solvable(reason) if ok else _insolvable(reason)

    if vb > 0 and va == 0:
        # constant term of the reduction vanishes
        ssum = s.b1 + s.b2
        sum_unit = (not ssum.is_zero) and val_unit(ssum, pl, F)[0] == 0
        ok = sum_unit or (
            _chi_unit(alpha, pl) == 1 or v1 % 2 == 0 or v2 % 2 == 0
        )
        reason = f"{tag}:vanishing-product"
        return _solvable(reason) if ok else _insolvable(reason)

    return _unknown("odd:outside-criteria")


# ---------------------------------------------------------------------------
# 2-adic predicate


def _scaled(scale: int, squares) -> frozenset:
    return frozenset(((scale * a) % 32, (scale * b) % 32) for a, b in squares)


@lru_cache(maxsize=None)
def _accept_sets() -> tuple[frozenset, frozenset]:
    sq = unit_squares_mod32()
    zero = frozenset({(0, 0)})
    even = _scaled(1, sq) | _scaled(4, sq) | _scaled(16, sq) | zero
    odd = _scaled(2, sq) | _scaled(8, sq) | zero
    return even, odd


# x^4 mod 32 depends only on x mod 8 (4*3 >= 5 bits): 28 values
_FOURTH_POWERS_MOD32 = frozenset(zpow((x0, x1), 4, 32) for x0 in range(8) for x1 in range(8))

_GAP_REASONS = {1: "two:valuation-gap-one", 2: "two:valuation-gap-two"}


# the 2-adic place of each field, built once and keyed by the int
# F.omega_norm, as a FieldCtx hashes through Python-level dataclass methods
_TWO_ADIC_PLACES: dict[int, Place] = {}


def _two_adic_place(F: FieldCtx) -> Place:
    pl = _TWO_ADIC_PLACES.get(F.omega_norm)
    if pl is None:
        (pl,) = places_above(2, F)
        _TWO_ADIC_PLACES[F.omega_norm] = pl
    return pl


def predicate_two_adic(s: HomSpace, F: FieldCtx) -> Verdict:
    """Solvability over the (inert) 2-adic completion.

    Complete decision for a = 0 by case analysis on the valuation pair
    mod 4 with residue searches mod 32; for a != 0 only sufficient
    conditions exist, so the fall-through answer is Unknown.
    """
    pl = _two_adic_place(F)
    v1, u1 = val_unit(s.b1, pl, F)
    v2, u2 = val_unit(s.b2, pl, F)
    B1, B2 = embed_mod32(u1, F), embed_mod32(u2, F)
    if (v1 % 2 == 0 and is_square_unit_mod8(B1)) or (v2 % 2 == 0 and is_square_unit_mod8(B2)):
        return _solvable("two:square-unit-coefficient")

    if s.a.is_zero:
        for vi, bi, vj, bj in ((v1, B1, v2, B2), (v2, B2, v1, B1)):
            if vi % 2 != 0:
                continue
            gap = (vj - vi) % 4
            if gap in _GAP_REASONS:
                # points with nu(u) and nu(w) a half-step (gap 1) or a step
                # (gap 2) apart: beta_i*x^4 + 2^gap*beta_j*g must be a square
                # for some fourth-power unit g; squares are decided mod 8
                for g in FOURTH_POWERS_MOD8:
                    shifted = zadd(bi, zmul((2**gap, 0), zmul(bj, g.pair, 8), 8), 8)
                    if is_square_unit_mod8(shifted):
                        return _solvable(_GAP_REASONS[gap])
        if (v1 - v2) % 4 == 0:
            accept_even, accept_odd = _accept_sets()
            accept = accept_even if v1 % 2 == 0 else accept_odd
            for ba, bb in ((B1, B2), (B2, B1)):
                for x4 in _FOURTH_POWERS_MOD32:
                    if zadd(zmul(ba, x4, 32), bb, 32) in accept:
                        return _solvable("two:matched-valuations")
        return _insolvable("two:no-square-combination")

    # a != 0: sufficient conditions only
    va, ua = val_unit(s.a, pl, F)
    if va > 0:
        A = embed_mod32(ua, F)
        if min(v1, v2) - va >= 3 and va % 2 == 0 and is_square_unit_mod8(A):
            return _solvable("two:dominant-middle-term")
        if v1 + v2 - 2 * va >= 3 and va % 2 == 0:
            for vi, bi in ((v1, B1), (v2, B2)):
                if vi % 2 == 0 and is_square_unit_mod8(zadd(A, bi, 32)):
                    return _solvable("two:balanced-middle-term")
    return _unknown("two:outside-criteria")


# ---------------------------------------------------------------------------
# Independent oracle: residue search with Hensel certificates


class _SplitLocal:
    """Completion at a split odd place: Z_p with omega mapped to a lifted
    root of x^2 - x + c."""

    need = 1

    def __init__(self, pl: Place, M: int):
        self.p = pl.p
        self.M = M
        self.mod = pl.p**M
        c = pl.pi.cw
        r, m = pl.omega_image, 1
        while m < M:
            m = min(2 * m, M)
            pm = pl.p**m
            r = (r - (r * r - r + c) * pow((2 * r - 1) % pm, -1, pm)) % pm
        if (r * r - r + c) % self.mod:
            raise InternalInconsistency(f"Hensel lift of omega at {pl} is not a root")
        self.root = r
        self.zero = 0

    def coeff(self, x: QuadInt) -> int:
        return (x.a + x.b * self.root) % self.mod

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.mod

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.mod

    def quartic(self, c4: int, c2: int, c0: int):
        """x -> (f, t1, t2, t3): f(x) = c4*x^4 + c2*x^2 + c0 and its Taylor
        coefficients (4c4x^3 + 2c2x, 6c4x^2 + c2, 4c4x), all mod p^M."""
        mod = self.mod
        d4, d2, e4 = 4 * c4, 2 * c2, 6 * c4

        def f(x: int) -> tuple[int, int, int, int]:
            x2 = x * x
            t3 = d4 * x
            return (
                (c4 * x2 * x2 + c2 * x2 + c0) % mod,
                (t3 * x2 + d2 * x) % mod,
                (e4 * x2 + c2) % mod,
                t3 % mod,
            )

        return f

    def nu(self, x: int) -> int:
        return _vp(x, self.p, self.M)

    def shift_down(self, x: int, k: int) -> int:
        return x // self.p**k

    def is_unit_square(self, u: int) -> bool:
        return pow(u % self.p, (self.p - 1) // 2, self.p) == 1

    def children(self, x0: int, j: int):
        # x0 < p^j, so every child stays below p^(j+1) <= p^M
        step = self.p**j
        return range(x0, x0 + self.p * step, step)

    def describe(self, x0: int, j: int) -> str:
        return f"{x0 % self.p ** j} mod {self.p}^{j}"

    def sqrt_hint(self, u: int) -> str | None:
        r = arith.sqrt_mod(u, self.p)
        return None if r is None else str(r)


class _PairLocal:
    """O_K tensor Z_p as residue pairs (x + y*omega) mod p^M, w^2 = w - c:
    the completion at an inert odd place, and the ring of the 2-adic and
    ramified adapters below."""

    need = 1

    def __init__(self, pl: Place, M: int):
        self.p = pl.p
        self.c = pl.pi.cw
        self.M = M
        self.mod = pl.p**M
        self.zero = (0, 0)

    def coeff(self, x: QuadInt) -> Pair:
        return (x.a % self.mod, x.b % self.mod)

    def add(self, x: Pair, y: Pair) -> Pair:
        return ((x[0] + y[0]) % self.mod, (x[1] + y[1]) % self.mod)

    def mul(self, x: Pair, y: Pair) -> Pair:
        a, b = x
        cc, d = y
        return (
            (a * cc - b * d * self.c) % self.mod,
            (a * d + b * cc + b * d) % self.mod,
        )

    def quartic(self, c4: Pair, c2: Pair, c0: Pair):
        """x -> (f, t1, t2, t3): f(x) = c4*x^4 + c2*x^2 + c0 and its Taylor
        coefficients (4c4x^3 + 2c2x, 6c4x^2 + c2, 4c4x) on pairs mod p^M,
        from (a + b*w)(x + y*w) = (ax - c*by) + (ay + bx + by)*w as
        w^2 = w - c."""
        mod, c = self.mod, self.c
        a4, b4 = c4
        a2, b2 = c2
        a0, b0 = c0
        d4a, d4b, d2a, d2b, e4a, e4b = 4 * a4, 4 * b4, 2 * a2, 2 * b2, 6 * a4, 6 * b4

        def f(x: Pair) -> tuple[Pair, Pair, Pair, Pair]:
            a, b = x
            s, t = a * a - c * b * b, b * (2 * a + b)  # x^2
            g, h = s * a - c * t * b, s * b + t * (a + b)  # x^3
            u, v = s * s - c * t * t, t * (2 * s + t)  # x^4
            return (
                (
                    (a4 * u - c * b4 * v + a2 * s - c * b2 * t + a0) % mod,
                    (a4 * v + b4 * (u + v) + a2 * t + b2 * (s + t) + b0) % mod,
                ),
                (
                    (d4a * g - c * d4b * h + d2a * a - c * d2b * b) % mod,
                    (d4a * h + d4b * (g + h) + d2a * b + d2b * (a + b)) % mod,
                ),
                (
                    (e4a * s - c * e4b * t + a2) % mod,
                    (e4a * t + e4b * (s + t) + b2) % mod,
                ),
                ((d4a * a - c * d4b * b) % mod, (d4a * b + d4b * (a + b)) % mod),
            )

        return f

    def nu(self, x: Pair) -> int:
        return min(_vp(x[0], self.p, self.M), _vp(x[1], self.p, self.M))

    def shift_down(self, x: Pair, k: int) -> Pair:
        q = self.p**k
        return (x[0] // q, x[1] // q)

    def is_unit_square(self, u: Pair) -> bool:
        # Euler's criterion in F_{p^2} through the norm: u^((p^2-1)/2) =
        # N(u)^((p-1)/2), with N(a + b*w) = a^2 + ab + c*b^2
        p, (a, b) = self.p, u
        return pow((a * a + a * b + self.c * b * b) % p, (p - 1) // 2, p) == 1

    def children(self, x0: Pair, j: int):
        # both coordinates of x0 are below p^j, so those of every child stay
        # below p^(j+1) <= p^M
        steps = range(0, self.p ** (j + 1), self.p**j)
        a, b = x0
        return ((a + s, b + t) for s in steps for t in steps)

    def describe(self, x0: Pair, j: int) -> str:
        q = self.p**j
        return f"{x0[0] % q}+{x0[1] % q}*w mod {self.p}^{j}"

    def sqrt_hint(self, u: Pair) -> str | None:
        return None


class _TwoAdicLocal(_PairLocal):
    """The inert 2-adic place: residue pairs mod 2^M.  Units mod 8 decide
    squares, so a value is certified only when known three binary digits
    past its valuation (need = 3); a unit that is no square mod 4 is none
    mod 8, so two digits decide it (square_mod4)."""

    need = 3

    def __init__(self, pl: Place, M: int):
        super().__init__(pl, M)
        self.squares = _two_adic_unit_squares(self.c)
        self.squares4 = frozenset((a & 3, b & 3) for a, b in self.squares)

    def nu(self, x: Pair) -> int:
        # the 2-adic valuation of a + b*w is the lowest set bit of a | b
        m = x[0] | x[1]
        return (m & -m).bit_length() - 1 if m else self.M

    def shift_down(self, x: Pair, k: int) -> Pair:
        return (x[0] >> k, x[1] >> k)

    def is_unit_square(self, u: Pair) -> bool:
        return (u[0] & 7, u[1] & 7) in self.squares

    def square_mod4(self, x: Pair, k: int) -> bool:
        """Whether the unit x / 2^k is a square mod 4."""
        return (x[0] >> k & 3, x[1] >> k & 3) in self.squares4

    def children(self, x0: Pair, j: int):
        a, b = x0
        step = 1 << j
        return ((a, b), (a, b + step), (a + step, b), (a + step, b + step))


class _RamifiedLocal(_PairLocal):
    """The ramified place, on the one ring of pairs mod p^M that also serves
    the inert and 2-adic places, built like every adapter from its Place and
    M alone.  Pairs mod p^M pin x mod pi^(2M), with pi = sqrt(D) = 2w - 1 and
    pi^2 = D = -p; valuations are capped at M, the pi-adic precision."""

    def __init__(self, pl: Place, M: int):
        super().__init__(pl, M)
        self.root = pl.omega_image  # a + b*w maps to a + b*root in F_p

    def nu(self, x: Pair) -> int:
        # a + b*w = ((2a + b) + b*pi) / 2, and 2 is a unit
        p, M = self.p, self.M
        return min(2 * _vp(2 * x[0] + x[1], p, M), 2 * _vp(x[1], p, M) + 1, M)

    def shift_down(self, x: Pair, k: int) -> Pair:
        # x / pi^k = x * pi^(k mod 2) / D^ceil(k/2), exact on the
        # representatives; x * pi is not reduced, so x / pi^k stays known
        # mod pi^(2M - k)
        a, b = x
        if k & 1:
            a, b = -a - 2 * self.c * b, 2 * a + b
        d = (-self.p) ** ((k + 1) // 2)
        return (a // d, b // d)

    def is_unit_square(self, u: Pair) -> bool:
        return pow(u[0] + u[1] * self.root, (self.p - 1) // 2, self.p) == 1

    def children(self, x0: Pair, j: int):
        # pi^j = D^(j//2) * pi^(j mod 2)
        d = (-self.p) ** (j // 2)
        sa, sb = (-d, 2 * d) if j & 1 else (d, 0)
        a, b, mod = x0[0], x0[1], self.mod
        return [((a + t * sa) % mod, (b + t * sb) % mod) for t in range(self.p)]

    def describe(self, x0: Pair, j: int) -> str:
        # p^ceil(j/2) O lies in pi^j O
        q = self.p ** ((j + 1) // 2)
        return f"{x0[0] % q}+{x0[1] % q}*w mod pi^{j}"

    def sqrt_hint(self, u: Pair) -> str | None:
        r = arith.sqrt_mod((u[0] + u[1] * self.root) % self.p, self.p)
        return None if r is None else str(r)


def _vp(n: int, p: int, top: int) -> int:
    """The exponent of p in the integer n, or top when n = 0."""
    if n == 0:
        return top
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@lru_cache(maxsize=None)
def _two_adic_unit_squares(c: int) -> frozenset[Pair]:
    """The omega-pairs mod 8 (w^2 = w - c) that are unit squares: the squares
    of the 48 unit pairs, as a unit is a square in O_2 iff it is one mod 8.
    One table per field, of six pairs."""
    return frozenset(
        ((a * a - c * b * b) % 8, b * (2 * a + b) % 8)
        for a in range(8)
        for b in range(8)
        if a % 2 or b % 2
    )


_ADAPTER_KINDS = {
    PlaceKind.SPLIT: _SplitLocal,
    PlaceKind.INERT: _PairLocal,
    PlaceKind.TWO_ADIC: _TwoAdicLocal,
    PlaceKind.RAMIFIED: _RamifiedLocal,
}
_ADAPTERS: dict[tuple[int, int, int, int, int], object] = {}
_ADAPTERS_CAP = 256


def _local_adapter(pl: Place, M: int):
    """The adapter of pl with valuations known to pi^M, built once from the
    place alone (the split place lifts omega's root).  Cached by ints: a
    Place hashes through Python-level dataclass and Enum methods."""
    key = (pl.p, pl.pi.a, pl.pi.b, pl.pi.cw, M)
    ad = _ADAPTERS.get(key)
    if ad is None:
        if len(_ADAPTERS) >= _ADAPTERS_CAP:
            _ADAPTERS.clear()
        ad = _ADAPTERS[key] = _ADAPTER_KINDS[pl.kind](pl, M)
    return ad


# Verdicts decided by a pass at a split place, keyed by all that the pass
# reads there: (p, M, cap, stripped b1, a, b2, content mod 2), as
# _decide_chart reads the content only by its parity and never reads the
# lifted root.  The place above p conjugate to pl reads the images of the
# conjugate space, so a sweep over a conjugation-stable set of spaces asks
# each key twice; an entry is dropped when it is hit, and a full memo is
# emptied.
_SPLIT_MEMO: dict[tuple, Verdict] = {}
_SPLIT_MEMO_CAP = 1024

_CHART_SOLVED = "solved"
_CHART_DEAD = "dead"
_CHART_EXHAUSTED = "exhausted"


def _decide_chart(adapter, c4, c2, c0, shift: int, cap: int, start: int):
    """Breadth-first refinement of residue classes x mod pi^j for
    f(x) = c4 x^4 + c2 x^2 + c0 (content already stripped; shift = removed
    content, so total valuation = shift + nu(f)), one depth j at a time,
    from the root class 0 + pi^start O (start 0 covers all of O).

    Certificate: the class x0 + pi^j O, with k = nu(f(x0)), is decided once
    k + e <= P = min(M, j + nu(t1), 2j + nu(t2), 3j + nu(t3), 4j + nu(c4)),
    where (f(x0), t1, t2, t3) come from adapter.quartic.  Proof: for h in
    pi^j O, f(x0 + h) - f(x0) = t1 h + t2 h^2 + t3 h^3 + c4 h^4 has valuation
    at least P (values are known mod pi^M), so every member of the class has
    valuation k and the unit class of f(x0) mod pi^e.  The precision e is
    graded by what the verdict needs: e = 1 when shift + k is odd (every
    member has odd total valuation, so none is a square or zero); at 2,
    e = 2 when the unit f(x0) / 2^k is no square mod 4 (a unit square mod 8
    is one mod 4); otherwise e = need.  P >= j, and the case P = j
    (k + e <= j) is tried first.  A class with k >= j > 2 nu(t1) gives a
    root by Hensel's lemma, as t1 = f'(x0), within pi^(k - nu(t1)) of x0, so
    its witness is x0 mod pi^min(j, k - nu(t1)); it cannot also be decided
    at P = j, and is tested first otherwise.  The
    class of 0, at every depth, is read from the coefficients: f(0) = c0,
    (t1, t2, t3) = (0, c2, 0).

    Returns (_CHART_SOLVED, witness) / (_CHART_DEAD, None) /
    (_CHART_EXHAUSTED, live_count).
    """
    nu, need, M, zero = adapter.nu, adapter.need, adapter.M, adapter.zero
    n4 = nu(c4)
    root = (c0, zero, c2, zero)
    f = None  # the quartic is built only if the root class is refined
    level = [zero]
    for j in range(start, cap + 1):
        live = []
        for x0 in level:
            val, t1, t2, t3 = root if x0 == zero else f(x0)
            k = nu(val)
            e = k + 1 if (shift + k) & 1 else k + need
            if e > j and e > k + 2 and not adapter.square_mod4(val, k):  # even, at 2
                e = k + 2
            if e > j:
                kd = nu(t1)
                if k >= j > 2 * kd:
                    # Hensel: f has a root within pi^(k - kd) of x0; v = 0 point
                    h = min(j, k - kd)
                    wit = SolveWitness(u=adapter.describe(x0, h), w="1", v="0", precision=h)
                    return _CHART_SOLVED, wit
                if e > j + kd or e > 2 * j + nu(t2) or e > 3 * j + nu(t3) or e > 4 * j + n4 or e > M:
                    live.append(x0)
                    continue
            # the whole class has valuation exactly k and the unit class of val
            if (shift + k) % 2 == 0:
                unit = adapter.shift_down(val, k)
                if adapter.is_unit_square(unit):
                    hint = adapter.sqrt_hint(unit) if k == 0 else None
                    wit = SolveWitness(u=adapter.describe(x0, j), w="1", v=hint, precision=j)
                    return _CHART_SOLVED, wit
            # otherwise certified non-square for every member
        if not live:
            return _CHART_DEAD, None
        if j == cap:
            return _CHART_EXHAUSTED, len(live)
        if j == start:
            f = adapter.quartic(c4, c2, c0)
        # the children of depth j + 1, made as they are read
        level = chain.from_iterable(map(adapter.children, live, repeat(j)))


def _strip_content(s: HomSpace, pl: Place, ad):
    """(b1, a, b2) divided by pi^c, each known mod pi^M (M = ad.M), and their
    content c.

    The valuations of the images mod pi^M are exact below M.  When all three
    vanish there, v_pi(x) <= v_p(N(x)) bounds c, and a deeper reading finds
    it.  The coefficients are then read mod pi^(M + c) before the shift.  A
    zero a is neither read nor shifted.
    """
    M, coeffs = ad.M, ((s.b1, s.b2) if s.a.is_zero else (s.b1, s.b2, s.a))
    images = [ad.coeff(x) for x in coeffs]
    c = min(map(ad.nu, images))
    if c >= M:
        ad = _local_adapter(pl, M + min(_vp(x.norm(), pl.p, 0) for x in (s.b1, s.b2)))
        c = min(ad.nu(ad.coeff(x)) for x in coeffs)
    if c:
        ad = _local_adapter(pl, M + c)
        images = [ad.shift_down(ad.coeff(x), c) for x in coeffs]
    return (images[0], images[2] if len(images) == 3 else ad.zero, images[1]), c


_EXHAUSTED = _insolvable("oracle:exhausted-classes")


def oracle_search(s: HomSpace, pl: Place, max_precision: int | None = None) -> Verdict:
    """Decide solvability at pl by enumerating residue classes.

    Searches the chart w = 1 over O and the chart u = 1 over pi O, which
    together cover P^1 (a point has u/w in O or w/u in pi O), with increasing
    pi-adic depth.  The content is divided out in the adapter's own
    arithmetic, exactly at any size (_strip_content).  A class is certified
    a square or a non-square once the Taylor bound of _decide_chart pins f's
    valuation and unit class on all of it, and certified to hold a root by
    the Hensel criterion.  A space whose coefficients' valuations differ is
    thus decided within a few depths, not after about q^|v1 - v2| classes.
    Shares no local helper with the predicate route.
    """
    kind = pl.kind
    base = 7 if kind is PlaceKind.TWO_ADIC else (12 if kind is PlaceKind.RAMIFIED else 6)
    if max_precision is None:
        caps = (base, 2 * base)
    elif max_precision < 1:
        raise DomainError(f"search precision must be at least 1, got {max_precision}")
    else:
        caps = (max_precision,) if max_precision <= base else (base, max_precision)

    memo = _SPLIT_MEMO if kind is PlaceKind.SPLIT else None
    last_live = 0
    for cap in caps:
        # each pass works mod pi^(2 * cap + 8)
        adapter = _local_adapter(pl, 2 * cap + 8)
        (b1, a, b2), content = _strip_content(s, pl, adapter)
        if memo is not None:
            key = (pl.p, adapter.M, cap, b1, a, b2, content & 1)
            verdict = memo.pop(key, None)
            if verdict is not None:
                return verdict
        verdict = None
        dead = 0
        live = 0
        for c4, c0, start, chart in ((b1, b2, 0, "u"), (b2, b1, 1, "w")):
            status, info = _decide_chart(adapter, c4, a, c0, content, cap, start)
            if status == _CHART_SOLVED:
                wit = info
                if chart == "w":
                    wit = SolveWitness(u=wit.w, w=wit.u, v=wit.v, precision=wit.precision)
                verdict = _solvable("oracle:residue-search", wit)
                break
            if status == _CHART_DEAD:
                dead += 1
            else:
                live += info
        if dead == 2:
            verdict = _EXHAUSTED
        if verdict is not None:
            if memo is not None:
                if len(memo) >= _SPLIT_MEMO_CAP:
                    memo.clear()
                memo[key] = verdict
            return verdict
        last_live = live
    return _unknown(f"oracle:precision-exhausted(cap={caps[-1]},live={last_live})")


# ---------------------------------------------------------------------------
# Pipeline helpers


def bad_places(odd_primes: Iterable[int] | HomSpace, F: FieldCtx) -> tuple[Place, ...]:
    """The 2-adic place, then the places above each odd prime, ascending.

    For a curve the primes are CurveSpec.odd_primes, and the list is the same
    for every candidate space, as b1*b2 is -4b or b up to powers of 2.  A
    lone HomSpace stands for the primes of N(b1*b2), factored here; the
    benchmark worker's oracle check calls that form.
    """
    if isinstance(odd_primes, HomSpace):
        odd_primes = arith.factorint(abs((odd_primes.b1 * odd_primes.b2).norm()))
    out = list(places_above(2, F))
    for p in sorted(odd_primes):
        if p != 2:
            out.extend(places_above(p, F))
    return tuple(out)


def everywhere_verdicts(
    s: HomSpace, F: FieldCtx, places: tuple[Place, ...]
) -> tuple[tuple[Place, Verdict], ...]:
    """The verdict at each of places, which must be bad_places(s, F)."""
    if not s.a.is_zero:
        raise DomainError("everywhere_verdicts decides only spaces with a = 0")
    out = []
    for pl in places:
        if pl.kind is PlaceKind.TWO_ADIC:
            out.append((pl, predicate_two_adic(s, F)))
        else:
            out.append((pl, predicate_odd_place(s, pl)))
    return tuple(out)


def all_solvable(verdicts: tuple[tuple[Place, Verdict], ...]) -> bool:
    """True iff no verdict is Insolvable; an Unknown met first raises."""
    for pl, verdict in verdicts:
        if verdict.tag is VerdictTag.Unknown:
            raise UnknownVerdict(f"undecided at {pl}: {verdict.reason}")
        if verdict.tag is VerdictTag.Insolvable:
            return False
    return True
