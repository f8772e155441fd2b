"""Ring arithmetic, splitting, norm equations, and candidate enumeration."""
from __future__ import annotations

import random
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from iqselmer.errors import InvalidModulus, NotSplit, UnsupportedField
from iqselmer.quadfield import (
    SUPPORTED_DISCS,
    PlaceKind,
    QuadInt,
    Side,
    canonical_associate,
    element_invariants,
    factor_rational,
    legendre_symbol,
    make_field,
    places_above,
    residue_image,
    selmer_candidates,
    splitting_type,
    strip_fourth_powers,
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


def test_element_invariants_frozen():
    w = F3.omega()
    assert element_invariants(w, F3) == (1, 1, QuadInt(1, -1, 1))
    assert element_invariants(QuadInt(1, 3, 1), F3) == (13, 5, QuadInt(4, -3, 1))
    assert element_invariants(QuadInt(2, 1, 1), F3) == (7, 5, QuadInt(3, -1, 1))


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
    assert data.t_chars == (-1, -1)  # p = 1 mod 4: both signs agree
    # generator 1+3w has trace 5, also a nonresidue: associate-invariant here
    assert legendre_symbol(QuadInt(1, 3, 1).trace(), 13) == -1
    d7 = splitting_type(7, F3)
    assert trace_character(d7) == 1  # canonical associate has t = 1
    assert d7.t_chars == (1, -1)  # p = 3 mod 4: both signs recorded
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


def test_strip_fourth_powers():
    assert strip_fourth_powers(16) == 1
    assert strip_fourth_powers(32) == 2
    assert strip_fourth_powers(-81 * 5) == -5
    assert strip_fourth_powers(-16) == -1
    assert strip_fourth_powers(17) == 17


def test_selmer_candidates_b17():
    cands = selmer_candidates(17, Side.PHI, F3)
    assert len(cands) == 8  # 2^(g+1) with g = 2 distinct prime classes
    b1s = sorted(c.b1.a for c in cands)
    assert b1s == sorted([1, -1, 2, -2, 17, -17, 34, -34])
    for c in cands:
        assert c.b1 * c.b2 == F3.of(-4 * 17)
    # torsion classes: trivial (1, -68) and the class of -4b = [-17]
    tor = {c.b1.a for c in cands if c.torsion}
    assert tor == {1, -17}

    cands_hat = selmer_candidates(17, Side.PHIHAT, F3)
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
    cands = selmer_candidates(13, Side.PHIHAT, F3)
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
    cands = selmer_candidates(15, Side.PHI, F3)  # 3 ramifies, 5 inert
    assert len(cands) == 16
    s = F3.sqrt_disc()
    assert any(c.b1 == s for c in cands)
    for c in cands:
        assert c.b1 * c.b2 == F3.of(-60)
