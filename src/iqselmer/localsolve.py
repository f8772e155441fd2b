"""Local solvability of v^2 = b1*u^4 + a*u^2*w^2 + b2*w^4 at finite places.

Two independent routes decide whether the homogeneous space has a point
over the completion K_v:

* closed-form predicates, which inspect valuations and residue characters
  of the coefficients (complete for a = 0; partial criteria for a != 0);
* a brute-force residue search with Hensel certificates (oracle_search),
  which shares no logic with the predicates and is used to validate them.

Callers must never treat Unknown as either boolean: it means "this route
cannot decide", and the other route should be consulted.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd

import sympy

from .charsums import ResidueField
from .errors import DomainError, EvenPlace, UnknownVerdict, ZeroCoefficient
from .quadfield import (
    CandidatePair,
    FieldCtx,
    Place,
    PlaceKind,
    QuadInt,
    Side,
    legendre_symbol,
    make_field,
    places_above,
    residue_image,
    val_unit,
)
from .residue2adic import (
    Pair,
    embed_mod8,
    embed_mod32,
    is_square_unit_mod8,
    unit_squares_mod32,
    zadd,
    zmul,
)


@dataclass(frozen=True)
class HomSpace:
    """v^2 = b1*u^4 + a*u^2*w^2 + b2*w^4 over O_K; b1*b2 != 0."""

    a: QuadInt
    b1: QuadInt
    b2: QuadInt
    side: Side | None = None
    torsion_flag: bool = False

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
        coerce = lambda x: F.of(x) if isinstance(x, int) else x
        return cls(a=coerce(a), b1=coerce(b1), b2=coerce(b2), side=side, torsion_flag=torsion)

    @classmethod
    def of_candidate(cls, c: CandidatePair, F: FieldCtx) -> "HomSpace":
        """The space v^2 = b1*u^4 + b2*w^4 of one descent class."""
        return cls(a=F.of(0), b1=c.b1, b2=c.b2, side=c.side, torsion_flag=c.torsion)


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
        val = legendre_symbol(residue_image(x, pl), pl.p)
    assert val != 0, f"{x} is not a unit at {pl}"
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

    if pl.q == 3:
        if mu is not None and mu > 0 and vb == 0:
            ok = (
                _chi_unit(beta1, pl) == 1
                or _chi_unit(beta2, pl) == 1
                or (mu % 2 == 0 and _chi_unit(alpha, pl) == -1)
            )
            reason = "odd3:degenerate-discriminant"
            return _solvable(reason) if ok else _insolvable(reason)
        if vb > 0 and va == 0:
            ssum = s.b1 + s.b2
            sum_unit = (not ssum.is_zero) and val_unit(ssum, pl, F)[0] == 0
            ok = sum_unit or (
                _chi_unit(alpha, pl) == 1 or v1 % 2 == 0 or v2 % 2 == 0
            )
            reason = "odd3:vanishing-product"
            return _solvable(reason) if ok else _insolvable(reason)
        return _unknown("odd:outside-criteria")

    if mu is not None and mu > 0 and vb == 0:
        # reduction has a double root; q > 3
        if _chi_unit(beta1, pl) == 1 or _chi_unit(beta2, pl) == 1:
            return _solvable("odd:degenerate-discriminant")
        target = 1 if (pl.p % 8 in (5, 7) and pl.kind is PlaceKind.SPLIT) else -1
        ok = mu % 2 == 0 and _chi_unit(alpha, pl) == target
        reason = "odd:degenerate-discriminant"
        return _solvable(reason) if ok else _insolvable(reason)

    if vb > 0 and va == 0:
        # constant term of the reduction vanishes; q > 3
        ssum = s.b1 + s.b2
        sum_unit = (not ssum.is_zero) and val_unit(ssum, pl, F)[0] == 0
        ok = sum_unit or (
            _chi_unit(alpha, pl) == 1 or v1 % 2 == 0 or v2 % 2 == 0
        )
        reason = "odd:vanishing-product"
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


_FOURTH_UNITS_MOD32: tuple[Pair, ...] = ((1, 0), (0, 1), (31, 31))  # 1, z, z^2


def _two_adic_place(F: FieldCtx) -> Place:
    (pl,) = places_above(2, F)
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

    if s.a.is_zero:
        if v1 % 2 == 0 and is_square_unit_mod8(B1):
            return _solvable("two:square-unit-coefficient")
        if v2 % 2 == 0 and is_square_unit_mod8(B2):
            return _solvable("two:square-unit-coefficient")
        for vi, bi, vj, bj in ((v1, B1, v2, B2), (v2, B2, v1, B1)):
            if vi % 2 != 0:
                continue
            gap = (vj - vi) % 4
            if gap == 1:
                # points with nu(u) and nu(w) differing by a half-step:
                # beta_i*x^4 + 2*beta_j*g must be a square for some
                # fourth-power unit g
                for g in _FOURTH_UNITS_MOD32:
                    shifted = zadd(bi, zmul((2, 0), zmul(bj, g, 32), 32), 32)
                    if is_square_unit_mod8(shifted):
                        return _solvable("two:valuation-gap-one")
            elif gap == 2:
                for g in _FOURTH_UNITS_MOD32:
                    shifted = zadd(bi, zmul((4, 0), zmul(bj, g, 32), 32), 32)
                    if is_square_unit_mod8(shifted):
                        return _solvable("two:valuation-gap-two")
        if (v1 - v2) % 4 == 0:
            accept_even, accept_odd = _accept_sets()
            accept = accept_even if v1 % 2 == 0 else accept_odd
            for ba, bb in ((B1, B2), (B2, B1)):
                for x0 in range(8):
                    for x1 in range(8):
                        x4 = zpow4((x0, x1))
                        val = zadd(zmul(ba, x4, 32), bb, 32)
                        if val in accept:
                            return _solvable("two:matched-valuations")
        return _insolvable("two:no-square-combination")

    # a != 0: sufficient conditions only
    if v1 % 2 == 0 and is_square_unit_mod8(B1):
        return _solvable("two:square-unit-coefficient")
    if v2 % 2 == 0 and is_square_unit_mod8(B2):
        return _solvable("two:square-unit-coefficient")
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


@lru_cache(maxsize=None)
def zpow4(x: Pair) -> Pair:
    """x^4 mod 32 as a function of x mod 8 (well-defined: 4*3 >= 5 bits)."""
    sq = zmul(x, x, 32)
    return zmul(sq, sq, 32)


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
        assert (r * r - r + c) % self.mod == 0
        self.root = r
        self.zero = 0

    def coeff(self, x: QuadInt) -> int:
        return (x.a + x.b * self.root) % self.mod

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.mod

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.mod

    def nu(self, x: int) -> int:
        if x == 0:
            return self.M
        k = 0
        while x % self.p == 0:
            x //= self.p
            k += 1
        return k

    def shift_down(self, x: int, k: int) -> int:
        return x // self.p**k

    def is_unit_square(self, u: int) -> bool:
        return legendre_symbol(u % self.p, self.p) == 1

    def children(self, x0: int, j: int):
        step = self.p**j
        return (self.add(x0, t * step) for t in range(self.p))

    def describe(self, x0: int, j: int) -> str:
        return f"{x0 % self.p ** j} mod {self.p}^{j}"

    def sqrt_hint(self, u: int) -> str | None:
        r = sympy.ntheory.sqrt_mod(u % self.p, self.p)
        return None if r is None else str(r)


class _PairLocal:
    """Completion with residue pairs (x + y*omega): inert odd places and the
    2-adic place (p = 2)."""

    def __init__(self, pl: Place, F: FieldCtx, M: int):
        self.p = pl.p
        self.c = F.omega_norm
        self.F = F
        self.M = M
        self.mod = pl.p**M
        self.zero = (0, 0)
        self.need = 3 if pl.kind is PlaceKind.TWO_ADIC else 1
        self.two_adic = pl.kind is PlaceKind.TWO_ADIC
        self.pl = pl

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

    def nu(self, x: Pair) -> int:
        k = 0
        a, b = x
        if a == 0 and b == 0:
            return self.M
        while a % self.p == 0 and b % self.p == 0:
            a //= self.p
            b //= self.p
            k += 1
        return k

    def shift_down(self, x: Pair, k: int) -> Pair:
        q = self.p**k
        return (x[0] // q, x[1] // q)

    def is_unit_square(self, u: Pair) -> bool:
        if self.two_adic:
            # convert the omega-pair to zeta coordinates; mod-8 data decides
            return is_square_unit_mod8(
                embed_mod8(QuadInt(u[0] % 32, u[1] % 32, self.c), self.F).pair
            )
        return _inert_field(self.p, self.c).chi((u[0] % self.p, u[1] % self.p)) == 1

    def children(self, x0: Pair, j: int):
        step = self.p**j
        return (
            ((x0[0] + s * step) % self.mod, (x0[1] + t * step) % self.mod)
            for s in range(self.p)
            for t in range(self.p)
        )

    def describe(self, x0: Pair, j: int) -> str:
        q = self.p**j
        return f"{x0[0] % q}+{x0[1] % q}*w mod {self.p}^{j}"

    def sqrt_hint(self, u: Pair) -> str | None:
        return None


class _RamifiedLocal:
    """Completion at the ramified place: exact arithmetic, pi = sqrt(D),
    valuations from the closed form nu(x) = min(2*vp(2a+b), 2*vp(b)+1)."""

    need = 1

    def __init__(self, pl: Place, F: FieldCtx, M: int):
        self.p = pl.p
        self.F = F
        self.pl = pl
        self.M = M
        self.pi = F.sqrt_disc()
        self.zero = F.of(0)
        self._pi_pows = [F.of(1)]
        for _ in range(M + 1):
            self._pi_pows.append(self._pi_pows[-1] * self.pi)

    def coeff(self, x: QuadInt) -> QuadInt:
        return x

    def add(self, x: QuadInt, y: QuadInt) -> QuadInt:
        return x + y

    def mul(self, x: QuadInt, y: QuadInt) -> QuadInt:
        return x * y

    def _vp(self, n: int) -> int:
        if n == 0:
            return self.M
        k = 0
        while n % self.p == 0:
            n //= self.p
            k += 1
        return k

    def nu(self, x: QuadInt) -> int:
        if x.is_zero:
            return self.M
        return min(2 * self._vp(2 * x.a + x.b), 2 * self._vp(x.b) + 1, self.M)

    def shift_down(self, x: QuadInt, k: int) -> QuadInt:
        for _ in range(k):
            x = (x * self.pi).divide_exact(self.F.D)
        return x

    def is_unit_square(self, u: QuadInt) -> bool:
        return legendre_symbol(residue_image(u, self.pl), self.p) == 1

    def children(self, x0: QuadInt, j: int):
        step = self._pi_pows[j]
        return (x0 + t * step for t in range(self.p))

    def describe(self, x0: QuadInt, j: int) -> str:
        return f"{x0} mod pi^{j}"

    def sqrt_hint(self, u: QuadInt) -> str | None:
        r = sympy.ntheory.sqrt_mod(residue_image(u, self.pl), self.p)
        return None if r is None else str(r)


def _local_adapter(pl: Place, F: FieldCtx, M: int):
    if pl.kind is PlaceKind.SPLIT:
        return _SplitLocal(pl, M)
    if pl.kind is PlaceKind.RAMIFIED:
        return _RamifiedLocal(pl, F, M)
    return _PairLocal(pl, F, M)


_CHART_SOLVED = "solved"
_CHART_DEAD = "dead"
_CHART_EXHAUSTED = "exhausted"


def _decide_chart(adapter, c4, c2, c0, shift: int, cap: int):
    """Breadth-first refinement of residue classes x mod pi^j for
    f(x) = c4 x^4 + c2 x^2 + c0 (content already stripped; shift = removed
    content, so total valuation = shift + nu(f)).

    Returns (_CHART_SOLVED, witness) / (_CHART_DEAD, None) /
    (_CHART_EXHAUSTED, live_count).
    """
    mul, add, nu = adapter.mul, adapter.add, adapter.nu

    def f(x):
        x2 = mul(x, x)
        x4 = mul(x2, x2)
        return add(add(mul(c4, x4), mul(c2, x2)), c0)

    def fprime(x):
        x2 = mul(x, x)
        x3 = mul(x2, x)
        four = add(add(c4, c4), add(c4, c4))
        two = add(c2, c2)
        return add(mul(four, x3), mul(two, x))

    queue = deque([(adapter.zero, 0)])
    exhausted = 0
    while queue:
        x0, j = queue.popleft()
        val = f(x0)
        k = nu(val)
        if k < j:
            # the whole class has valuation exactly k
            if j - k >= adapter.need:
                if (shift + k) % 2 == 0 and adapter.is_unit_square(
                    adapter.shift_down(val, k)
                ):
                    hint = adapter.sqrt_hint(adapter.shift_down(val, k)) if k == 0 else None
                    wit = SolveWitness(
                        u=adapter.describe(x0, j), w="1", v=hint, precision=j
                    )
                    return _CHART_SOLVED, wit
                continue  # certified non-square for every member
        else:
            kd = nu(fprime(x0))
            if kd < j and j > 2 * kd:
                # Hensel: f has an exact root in this class; v = 0 point
                wit = SolveWitness(u=adapter.describe(x0, j), w="1", v="0", precision=j)
                return _CHART_SOLVED, wit
        if j >= cap:
            exhausted += 1
            continue
        for child in adapter.children(x0, j):
            queue.append((child, j + 1))
    if exhausted:
        return _CHART_EXHAUSTED, exhausted
    return _CHART_DEAD, None


def oracle_search(s: HomSpace, pl: Place, max_precision: int | None = None) -> Verdict:
    """Decide solvability at pl by enumerating residue classes.

    Searches both dehomogenized charts (w = 1 and u = 1) with increasing
    pi-adic depth, certifying squares by unit-part residues and roots by
    the Hensel criterion.  Independent of the predicate route.
    """
    if max_precision is not None and max_precision < 1:
        raise DomainError(f"search precision must be at least 1, got {max_precision}")
    F = _field_for_cw(pl.pi.cw)
    base = 7 if pl.kind is PlaceKind.TWO_ADIC else (12 if pl.kind is PlaceKind.RAMIFIED else 6)
    if max_precision is None:
        caps = [base, 2 * base]
    elif max_precision <= base:
        caps = [max_precision]
    else:
        caps = [base, max_precision]

    # content of the coefficient triple, from exact valuations
    vals = [val_unit(s.b1, pl, F)[0], val_unit(s.b2, pl, F)[0]]
    if not s.a.is_zero:
        vals.append(val_unit(s.a, pl, F)[0])
    content = min(vals)

    last_live = 0
    for cap in caps:
        M = 2 * cap + 8
        adapter = _local_adapter(pl, F, M)
        b1 = adapter.coeff(s.b1)
        b2 = adapter.coeff(s.b2)
        a = adapter.coeff(s.a)
        if content:
            b1 = adapter.shift_down(b1, content)
            b2 = adapter.shift_down(b2, content)
            a = adapter.shift_down(a, content) if not s.a.is_zero else a
        dead = 0
        live = 0
        for c4, c0, chart in ((b1, b2, "u"), (b2, b1, "w")):
            status, info = _decide_chart(adapter, c4, a, c0, content, cap)
            if status == _CHART_SOLVED:
                wit = info
                if chart == "w":
                    wit = SolveWitness(u=wit.w, w=wit.u, v=wit.v, precision=wit.precision)
                return _solvable("oracle:residue-search", wit)
            if status == _CHART_DEAD:
                dead += 1
            else:
                live += info
        if dead == 2:
            return _insolvable("oracle:exhausted-classes")
        last_live = live
    return _unknown(f"oracle:precision-exhausted(cap={caps[-1]},live={last_live})")


# ---------------------------------------------------------------------------
# Pipeline helpers


def bad_places(s: HomSpace, F: FieldCtx) -> tuple[Place, ...]:
    """The 2-adic place plus every odd place dividing b1*b2: the same list for
    every candidate space of a curve, as b1*b2 is -4b or b up to powers of 2."""
    out = list(places_above(2, F))
    n = abs((s.b1 * s.b2).norm())
    for p in sorted(sympy.factorint(n)):
        if p == 2:
            continue
        out.extend(places_above(p, F))
    return tuple(out)


def everywhere_verdicts(
    s: HomSpace, F: FieldCtx, places: tuple[Place, ...]
) -> tuple[tuple[Place, Verdict], ...]:
    """The verdict at each of places, which must be bad_places(s, F)."""
    assert s.a.is_zero
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


def everywhere_solvable(s: HomSpace, F: FieldCtx) -> bool:
    """True iff the space is solvable at the 2-adic place and every odd
    place of bad reduction (good odd places and the archimedean place are
    automatically solvable)."""
    return all_solvable(everywhere_verdicts(s, F, bad_places(s, F)))
