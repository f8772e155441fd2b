"""Ring arithmetic, splitting, norm equations, and candidate enumeration."""
from __future__ import annotations

import random
import functools
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, strategies as st

from iqselmer.errors import DomainError, InvalidModulus, NotSplit, UnsupportedField, ZeroCoefficient
from iqselmer.descent import closed_form_rank
from iqselmer.localsolve import HomSpace, bad_places
from iqselmer.quadfield import (
    SUPPORTED_DISCS,
    CurveSpec,
    PlaceKind,
    QuadInt,
    Side,
    canonical_associate,
    curve_spec,
    descent_generators,
    legendre_symbol,
    make_field,
    places_above,
    residue_image,
    selmer_candidates,
    splitting_type,
    torsion_mask,
    trace_character,
    val_unit,
)

FIELDS = {D: make_field(D) for D in SUPPORTED_DISCS}
F3 = FIELDS[-3]


def test_make_field_whitelist():
    assert F3.omega_norm == 1
    assert FIELDS[-11].omega_norm == 3
    assert FIELDS[-163].omega_norm == 41
    for bad in (-1, -2, -7, -5, 5, 0, -15):
        with pytest.raises(UnsupportedField):
            make_field(bad)


def test_two_adic_seed():
    # u^2 = -D/3 with u = 1 mod 4; frozen low-precision values
    assert F3.seed == 1
    assert FIELDS[-11].seed % 32 == 5
    for D, F in FIELDS.items():
        assert F.seed % 4 == 1
        assert (3 * F.seed * F.seed + D) % 64 == 0  # u^2 = -D/3 mod 64 at least


coord = st.integers(min_value=-50, max_value=50)


@given(coord, coord, coord, coord, coord, coord, st.sampled_from(SUPPORTED_DISCS))
def test_ring_axioms(a1, b1, a2, b2, a3, b3, D):
    F = FIELDS[D]
    x, y, z = QuadInt(a1, b1, F.omega_norm), QuadInt(a2, b2, F.omega_norm), QuadInt(a3, b3, F.omega_norm)
    assert x * (y * z) == (x * y) * z
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x.norm() * y.norm() == (x * y).norm()
    assert (x * y).conj() == x.conj() * y.conj()
    assert x + x.conj() == F.of(x.trace())
    assert x * x.conj() == F.of(x.norm())


def test_norm_trace_conj_frozen():
    for x, want in (
        (F3.omega(), (1, 1, QuadInt(1, -1, 1))),
        (QuadInt(1, 3, 1), (13, 5, QuadInt(4, -3, 1))),
        (QuadInt(2, 1, 1), (7, 5, QuadInt(3, -1, 1))),
    ):
        assert (x.norm(), x.trace(), x.conj()) == want


def test_omega_satisfies_its_polynomial():
    for F in FIELDS.values():
        w = F.omega()
        assert w * w == w - F.omega_norm
        s = F.sqrt_disc()
        assert s * s == F.of(F.D)


def test_units():
    assert len(F3.units()) == 6
    for u in F3.units():
        assert u.norm() == 1
    for D in SUPPORTED_DISCS[1:]:
        assert len(FIELDS[D].units()) == 2


def test_legendre_symbol():
    assert legendre_symbol(5, 13) == -1
    assert legendre_symbol(13, 13) == 0
    assert legendre_symbol(-3, 17) == -1
    assert legendre_symbol(4, 13) == 1
    with pytest.raises(InvalidModulus):
        legendre_symbol(3, 15)
    with pytest.raises(InvalidModulus):
        legendre_symbol(3, 2)


def test_splitting_classification():
    assert splitting_type(17, F3).kind is PlaceKind.INERT
    assert splitting_type(3, F3).kind is PlaceKind.RAMIFIED
    assert splitting_type(13, F3).kind is PlaceKind.SPLIT
    assert splitting_type(2, F3).kind is PlaceKind.INERT
    # agreement with the Legendre classification across all fields
    import sympy

    for D, F in FIELDS.items():
        for p in sympy.primerange(3, 300):
            data = splitting_type(p, F)
            if p == -D:
                assert data.kind is PlaceKind.RAMIFIED
            elif legendre_symbol(D, p) == 1:
                assert data.kind is PlaceKind.SPLIT
                assert data.alpha is not None and data.alpha.norm() == p
            else:
                assert data.kind is PlaceKind.INERT


def test_canonical_alpha_13():
    # all associates of norm 13 considered; trace-positive-minimal wins
    data = splitting_type(13, F3)
    assert data.alpha == QuadInt(3, -4, 1)
    assert data.t == 2
    # 1+3w generates the same prime: the ratio is a unit
    ratio_num = QuadInt(1, 3, 1) * data.alpha.conj()
    assert ratio_num.a % 13 == 0 and ratio_num.b % 13 == 0
    u = QuadInt(ratio_num.a // 13, ratio_num.b // 13, 1)
    assert u.norm() == 1


def test_canonical_associate_rule():
    # among trace-positive associates the trace is minimal, ties by larger a
    for D, F in FIELDS.items():
        for p in (29, 31, 47, 101, 103):
            data = splitting_type(p, F)
            if data.kind is not PlaceKind.SPLIT:
                continue
            alpha = data.alpha
            traces = sorted(
                {(alpha * u).trace() for u in F.units() if (alpha * u).trace() > 0}
            )
            assert alpha.trace() == traces[0]


def _norm_equation_exhaustive(p, F):
    # reference solver: the first (a, b) in a box that holds every solution
    bound = isqrt(4 * p) + 1
    c = F.omega_norm
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * a + a * b + b * b * c == p:
                return QuadInt(a, b, c)
    raise AssertionError(f"norm equation unsolvable for split p={p}?")


def test_norm_equation_matches_exhaustive_rule():
    # the lattice solver must give the canonical generator that an exhaustive
    # search gives, for every split p < 450: canonical associate, with ties
    # between the two conjugates broken by the larger a-coordinate
    import sympy

    for D, F in FIELDS.items():
        count = 0
        for p in sympy.primerange(3, 450):
            if splitting_type(p, F).kind is not PlaceKind.SPLIT:
                continue
            raw = _norm_equation_exhaustive(p, F)
            cands = (canonical_associate(raw, F), canonical_associate(raw.conj(), F))
            want = max(cands, key=lambda y: y.a)
            assert splitting_type(p, F).alpha == want, (D, p)
            count += 1
        assert count > 15


def test_trace_character():
    data = splitting_type(13, F3)
    assert trace_character(data) == -1
    # generator 1+3w has trace 5, also a nonresidue: associate-invariant here
    assert legendre_symbol(QuadInt(1, 3, 1).trace(), 13) == -1
    d7 = splitting_type(7, F3)
    assert trace_character(d7) == 1  # canonical associate has t = 1
    # the associate 2+w has trace 5, a nonresidue mod 7 - the flipped sign
    assert legendre_symbol(QuadInt(2, 1, 1).trace(), 7) == -1
    with pytest.raises(NotSplit):
        trace_character(splitting_type(17, F3))


def test_trace_character_associate_invariance_p1mod4():
    for D, F in FIELDS.items():
        for p in (13, 29, 37, 41, 53, 61):
            data = splitting_type(p, F)
            if data.kind is not PlaceKind.SPLIT or p % 4 != 1:
                continue
            vals = set()
            for u in F.units():
                t = (data.alpha * u).trace()
                if t % p:
                    vals.add(legendre_symbol(t, p))
            assert vals == {trace_character(data)}


# ---------------------------------------------------------------------------
# Reference: the descent's factoring before CurveSpec carried the
# factorization.  Each function factors b again; the differential tests below
# compare CurveSpec's readings against these.


@functools.lru_cache(maxsize=None)
def _factorint(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(sympy.factorint(n).items()))


def factor_rational(n: int, F) -> tuple[int, tuple[tuple[QuadInt, int], ...]]:
    """n = unit * prod(pi^e) over prime elements of O_K, unit in {1, -1}:
    inert primes stay rational, split primes give their conjugate pair, and
    the ramified prime |D| gives sqrt(D)^2 per power, soaking -1 into the unit."""
    unit = 1 if n > 0 else -1
    factors: list[tuple[QuadInt, int]] = []
    for p, e in _factorint(abs(n)):
        data = splitting_type(p, F)
        if data.kind is PlaceKind.SPLIT:
            factors.append((data.alpha, e))
            factors.append((data.alpha.conj(), e))
        elif data.kind is PlaceKind.RAMIFIED:
            factors.append((F.sqrt_disc(), 2 * e))  # p = -sqrt(D)^2
            if e % 2:
                unit = -unit
        else:
            factors.append((F.of(p), e))
    return unit, tuple(factors)


def _class_bits(n: int, gens, F) -> int:
    """Bitmask of the class of rational n over the generator list."""
    unit, factors = factor_rational(n, F)
    mask = 1 if unit < 0 else 0  # gens[0] is -1
    lookup = {(g.a, g.b): i for i, g in enumerate(gens)}
    for pi, e in factors:
        if e % 2:
            mask ^= 1 << lookup[(pi.a, pi.b)]
    return mask


def _ref_generators(b: int, F) -> tuple[QuadInt, ...]:
    gens = [F.of(-1), F.of(2)]
    for p, _ in _factorint(abs(b)):
        if p == 2:
            continue
        data = splitting_type(p, F)
        if data.kind is PlaceKind.SPLIT:
            gens += [data.alpha, data.alpha.conj()]
        elif data.kind is PlaceKind.RAMIFIED:
            gens.append(F.sqrt_disc())
        else:
            gens.append(F.of(p))
    return tuple(gens)


def _ref_candidates(b: int, side: Side, F) -> list[tuple]:
    gens = _ref_generators(b, F)
    product = F.of(-4 * b) if side is Side.PHI else F.of(16 * b)
    tmask = _class_bits(-4 * b if side is Side.PHI else b, gens, F)
    out = []
    for mask in range(1 << len(gens)):
        b1 = F.of(1)
        for i, g in enumerate(gens):
            if mask >> i & 1:
                b1 = b1 * g
        b2 = product.divide_exact(b1)
        while side is Side.PHIHAT and b2.a % 16 == 0 and b2.b % 16 == 0:
            b2 = QuadInt(b2.a // 16, b2.b // 16, b2.cw)
        out.append((b1, b2, mask in (0, tmask), mask))
    return out


def _ref_bad_places(b: int, F):
    # the odd primes of N(b1*b2) for the candidate (1, -4b)
    out = list(places_above(2, F))
    for p, _ in _factorint(abs(F.of(-4 * b).norm())):
        if p != 2:
            out.extend(places_above(p, F))
    return tuple(out)


def _ref_closed_form_rank(b: int, F) -> int | None:
    ab = abs(b)
    fac = dict(_factorint(ab))
    kinds = {p: splitting_type(p, F).kind for p in fac if p != 2}
    if fac and ab % 2 == 1 and all(e == 1 for e in fac.values()) and all(
        k is PlaceKind.INERT for k in kinds.values()
    ):
        n = len(fac)
        if b % 8 == 1:
            return 2 * n + 1
        if b % 4 == 3:
            return 2 * n
        return 2 * n - 1
    if ab % 2 == 1 and fac == {ab: 1} and kinds.get(ab) is PlaceKind.SPLIT:
        p, t = ab, trace_character(splitting_type(ab, F))
        if b < 0:
            if p % 8 == 1:
                return 3 + t
            return 2 if p % 8 == 5 else 1
        if p % 8 == 1:
            return 4 + t
        return 2 + t if p % 8 == 5 else 2
    if b < 0:
        n, exact = sympy.integer_nthroot(ab, 2)
        if exact:
            nfac = dict(_factorint(int(n)))
            if (
                all(e == 1 for e in nfac.values())
                and gcd(int(n), abs(F.D)) == 1
                and all(splitting_type(p, F).kind is PlaceKind.INERT for p in nfac if p != 2)
            ):
                k = len(nfac)
                return 2 * k if n % 2 else 2 * k - 1
    return None


def test_factor_rational():
    unit, factors = factor_rational(12, F3)
    # 12 = unit * 2^2 * sqrt(-3)^2 with unit absorbing 3 = -sqrt(-3)^2
    d = dict(((g.a, g.b), e) for g, e in factors)
    assert d[(2, 0)] == 2 and d[(-1, 2)] == 2
    assert unit == -1

    unit, factors = factor_rational(13, F3)
    assert unit == 1
    assert sorted(g.norm() for g, _ in factors) == [13, 13]

    unit, factors = factor_rational(-1, FIELDS[-19])
    assert unit == -1 and factors == ()


def test_factor_rational_reconstructs():
    rng = random.Random(7)
    for D, F in FIELDS.items():
        for _ in range(40):
            n = rng.randint(2, 10**4) * rng.choice((1, -1))
            unit, factors = factor_rational(n, F)
            prod = F.of(unit)
            for g, e in factors:
                prod = prod * g**e
            assert prod == F.of(n)


def test_places_and_valuations():
    (pl2,) = places_above(2, F3)
    assert pl2.kind is PlaceKind.TWO_ADIC and pl2.q == 4
    v, u = val_unit(F3.of(48), pl2, F3)
    assert v == 4 and u == F3.of(3)

    (pl17,) = places_above(17, F3)
    assert pl17.q == 17 * 17
    v, u = val_unit(F3.of(17 * 17 * 5), pl17, F3)
    assert v == 2 and u == F3.of(5)

    (pl3,) = places_above(3, F3)
    assert pl3.kind is PlaceKind.RAMIFIED and pl3.q == 3
    v, u = val_unit(F3.of(3), pl3, F3)
    assert v == 2  # 3 ramifies: nu(3) = 2
    v, u = val_unit(F3.sqrt_disc(), pl3, F3)
    assert v == 1 and u.is_unit()
    # omega_image is a root of x^2-x+c mod p
    assert (pow(pl3.omega_image, 2) - pl3.omega_image + 1) % 3 == 0

    pls = places_above(13, F3)
    assert len(pls) == 2
    for pl in pls:
        assert pl.q == 13
        assert (pow(pl.omega_image, 2) - pl.omega_image + 1) % 13 == 0
        v, u = val_unit(pl.pi, pl, F3)
        assert v == 1 and u.is_unit()
        # the conjugate generator is a unit at the other place
        v, u = val_unit(pl.pi.conj(), pl, F3)
        assert v == 0
    v, _ = val_unit(F3.of(13), pls[0], F3)
    assert v == 1
    # residue images of a sample element are consistent with omega_image
    x = QuadInt(5, 9, 1)
    for pl in pls:
        assert residue_image(x, pl) == (5 + 9 * pl.omega_image) % 13


@given(coord.filter(lambda n: n != 0), st.sampled_from(SUPPORTED_DISCS))
def test_val_unit_roundtrip(n, D):
    F = FIELDS[D]
    for p in (2, 5, 13, 3):
        for pl in places_above(p, F):
            v, u = val_unit(F.of(n), pl, F)
            assert (pl.pi**v * u) == F.of(n)
            assert val_unit(u, pl, F)[0] == 0


def _reference_val_unit(x: QuadInt, place, F) -> tuple[int, QuadInt]:
    # the replaced three-branch val_unit: coordinate division at inert and
    # 2-adic places, a closed-form count at the ramified place, conjugate
    # multiplication at split places
    x = F.of(x)
    if place.kind in (PlaceKind.INERT, PlaceKind.TWO_ADIC):
        p = place.p
        k = 0
        a, b = x.a, x.b
        while a % p == 0 and b % p == 0:
            a //= p
            b //= p
            k += 1
        return k, QuadInt(a, b, x.cw)
    if place.kind is PlaceKind.RAMIFIED:
        p = place.p
        s, t = 2 * x.a + x.b, x.b

        def vp(m: int) -> int:
            if m == 0:
                return 10**9
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            return k

        k = min(2 * vp(s), 2 * vp(t) + 1)
        unit = x
        for _ in range(k):
            unit = (unit * place.pi).divide_exact(F.D)
        return k, unit
    k = 0
    unit = x
    while True:
        num = unit * place.pi.conj()
        if num.a % place.p == 0 and num.b % place.p == 0:
            unit = QuadInt(num.a // place.p, num.b // place.p, x.cw)
            k += 1
        else:
            return k, unit


def test_val_unit_matches_the_three_branch_reference():
    # x * pi^e for small x and e <= 6 at every place above 2 and above each
    # odd p < 200, on all six fields
    xs = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    checked = 0
    for F in FIELDS.values():
        for p in sympy.primerange(2, 200):
            for pl in places_above(p, F):
                powers = [F.of(1)]
                for _ in range(6):
                    powers.append(powers[-1] * pl.pi)
                for a, b in xs:
                    x = QuadInt(a, b, F.omega_norm)
                    for pe in powers:
                        y = x * pe
                        assert val_unit(y, pl, F) == _reference_val_unit(y, pl, F), (y, pl)
                        checked += 1
    assert checked > 100000


def _powers(pi: QuadInt, top: int) -> list[QuadInt]:
    out = [QuadInt(1, 0, pi.cw)]
    for _ in range(top):
        out.append(out[-1] * pi)
    return out


def test_val_unit_fast_paths_match_the_reference():
    # val_unit returns a unit at once from its residue, and at inert places
    # and at 2 divides the coordinates by p; each against the reference on
    # large random units, on x * pi^e for e <= 12 at 2, at inert places and
    # at the ramified place, and on elements that only the conjugate of a
    # split prime divides, on all six fields
    rng = random.Random(27)
    big = 10**12

    def rand(F):
        return QuadInt(rng.randint(-big, big), rng.randint(-big, big), F.omega_norm)

    checked = 0
    for F in FIELDS.values():
        ramified = -F.D
        inert = [p for p in sympy.primerange(3, 60) if splitting_type(p, F).kind is PlaceKind.INERT]
        split = [p for p in sympy.primerange(3, 60) if splitting_type(p, F).kind is PlaceKind.SPLIT]
        for p in [2, ramified] + inert + split:
            for pl in places_above(p, F):
                for _ in range(40):
                    x = rand(F)
                    if x.is_zero:
                        continue
                    assert val_unit(x, pl, F) == _reference_val_unit(x, pl, F), (x, pl)
                    checked += 1
        for p in [2, ramified] + inert:
            (pl,) = places_above(p, F)
            for e, pe in enumerate(_powers(pl.pi, 12)):
                for _ in range(4):
                    y = rand(F) * pe
                    if y.is_zero:
                        continue
                    got = val_unit(y, pl, F)
                    assert got == _reference_val_unit(y, pl, F), (y, pl)
                    assert got[0] >= e
                    checked += 1
        for p in split:
            pl, other = places_above(p, F)
            for e, pe in enumerate(_powers(other.pi, 6)):
                for _ in range(4):
                    x = rand(F)
                    if residue_image(x, pl) == 0 or residue_image(x, other) == 0:
                        continue
                    y = x * pe  # divisible by the conjugate prime alone
                    assert val_unit(y, pl, F) == _reference_val_unit(y, pl, F) == (0, y)
                    assert val_unit(y, other, F) == _reference_val_unit(y, other, F)
                    assert val_unit(y, other, F)[0] == e
                    checked += 1
    assert checked > 5000, checked


def test_strip_fourth_powers():
    assert curve_spec(16, F3).b == 1
    assert curve_spec(32, F3).b == 2
    assert curve_spec(-81 * 5, F3).b == -5
    assert curve_spec(-16, F3).b == -1
    assert curve_spec(17, F3).b == 17
    assert curve_spec(-81 * 5, F3).factors == ((5, 1),)
    assert curve_spec(2**7 * 3**5 * 7, F3).factors == ((2, 3), (3, 1), (7, 1))


def test_selmer_candidates_b17():
    cands = selmer_candidates(CurveSpec(17, F3), Side.PHI)
    assert len(cands) == 8  # 2^(g+1) with g = 2 distinct prime classes
    b1s = sorted(c.b1.a for c in cands)
    assert b1s == sorted([1, -1, 2, -2, 17, -17, 34, -34])
    for c in cands:
        assert c.b1 * c.b2 == F3.of(-4 * 17)
    # torsion classes: trivial (1, -68) and the class of -4b = [-17]
    tor = {c.b1.a for c in cands if c.torsion}
    assert tor == {1, -17}

    cands_hat = selmer_candidates(CurveSpec(17, F3), Side.PHIHAT)
    assert len(cands_hat) == 8
    assert sorted(c.b1.a for c in cands_hat) == sorted([1, -1, 2, -2, 17, -17, 34, -34])
    for c in cands_hat:
        prod = c.b1 * c.b2
        # product is 16*17 with factors of 16 stripped: the class of b
        assert prod.b == 0 and prod.a in (17, 17 * 16)
        v2 = 0
        a = c.b2.a if c.b2.b == 0 else min(c.b2.a, c.b2.b)
        assert not (c.b2.a % 16 == 0 and c.b2.b % 16 == 0)
    assert {c.b1.a for c in cands_hat if c.torsion} == {1, 17}


def test_selmer_candidates_split_13():
    cands = selmer_candidates(CurveSpec(13, F3), Side.PHIHAT)
    assert len(cands) == 16  # gens -1, 2, alpha, conj(alpha)
    alpha = splitting_type(13, F3).alpha
    b1set = {(c.b1.a, c.b1.b) for c in cands}
    assert (alpha.a, alpha.b) in b1set
    assert ((-alpha).a, (-alpha).b) in b1set
    assert (alpha.conj().a, alpha.conj().b) in b1set
    # each candidate's product lies in the class of b = 13
    for c in cands:
        assert not c.b1.is_zero and not c.b2.is_zero


def test_selmer_candidates_ramified():
    cands = selmer_candidates(CurveSpec(15, F3), Side.PHI)  # 3 ramifies, 5 inert
    assert len(cands) == 16
    s = F3.sqrt_disc()
    assert any(c.b1 == s for c in cands)
    for c in cands:
        assert c.b1 * c.b2 == F3.of(-60)


# ---------------------------------------------------------------------------
# CurveSpec: one factorization per curve, read by every layer


def _fourth_power_free(limit: int) -> list[int]:
    return [n for n in range(1, limit + 1) if all(e < 4 for _, e in _factorint(n))]


def test_curve_spec_readings_match_the_reference():
    # generators, both torsion masks, bad places and the closed form for every
    # fourth-power-free 0 < |b| <= 3000, both signs, on all six fields
    checked = 0
    for n in _fourth_power_free(3000):
        for b in (n, -n):
            for F in FIELDS.values():
                spec = CurveSpec(b, F, _factorint(n))
                gens = descent_generators(spec)
                assert gens == _ref_generators(b, F), (b, F.D)
                assert torsion_mask(spec, Side.PHI) == _class_bits(-4 * b, gens, F), (b, F.D)
                assert torsion_mask(spec, Side.PHIHAT) == _class_bits(b, gens, F), (b, F.D)
                assert bad_places(spec.odd_primes, F) == _ref_bad_places(b, F), (b, F.D)
                assert closed_form_rank(spec) == _ref_closed_form_rank(b, F), (b, F.D)
                checked += 1
    assert checked > 30000


def test_selmer_candidates_match_the_reference():
    for n in _fourth_power_free(200):
        for b in (n, -n):
            for F in FIELDS.values():
                spec = curve_spec(b, F)
                for side in Side:
                    got = [(c.b1, c.b2, c.torsion, c.mask) for c in selmer_candidates(spec, side)]
                    assert got == _ref_candidates(b, side, F), (b, F.D, side)


def test_curve_spec_checks_b_and_its_factorization():
    assert CurveSpec(-60, F3).factors == ((2, 2), (3, 1), (5, 1))
    assert CurveSpec(-60, F3).odd_primes == (3, 5)
    assert CurveSpec(-1, F3).factors == () and CurveSpec(-1, F3).odd_primes == ()
    with pytest.raises(DomainError):
        CurveSpec(-405, F3)  # 3^4 * 5
    with pytest.raises(DomainError):
        CurveSpec(-405, F3, ((3, 4), (5, 1)))
    with pytest.raises(DomainError):
        CurveSpec(15, F3, ((3, 1),))  # does not multiply to 15
    with pytest.raises(ZeroCoefficient):
        curve_spec(0, F3)


def test_int_and_space_call_forms_agree():
    # the benchmark worker (perfbench/worker.py, _oracle_dims) calls
    # selmer_candidates(b, side, F) and bad_places(space, F), building each
    # space by keyword from the HomSpace that iqselmer.localsolve exports
    for b in (17, 13, -6916):
        spec = CurveSpec(b, F3)
        for side in Side:
            cands = selmer_candidates(b, side, F3)
            assert cands == selmer_candidates(spec, side)
            for c in cands:
                space = HomSpace(a=F3.of(0), b1=c.b1, b2=c.b2, side=side)
                assert (space.a, space.b1, space.b2, space.side) == (c.a, c.b1, c.b2, c.side)
                assert bad_places(space, F3) == bad_places(spec.odd_primes, F3)
