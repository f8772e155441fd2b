"""Mod-8/32 square classes, the 2-adic embedding, and cube charpoly lists."""
from __future__ import annotations

from enum import Enum

import pytest
from hypothesis import given, strategies as st

from iqselmer.quadfield import (
    SUPPORTED_DISCS,
    PlaceKind,
    QuadInt,
    make_field,
    splitting_type,
)
from iqselmer.residue2adic import (
    FOURTH_POWERS_MOD8,
    MINUS_LIST,
    PLUS_LIST,
    R8Elem,
    UNIT_SQUARES_MOD8,
    ZETA,
    embed_mod8,
    embed_mod32,
    is_square_unit_mod8,
    is_unit_pair,
    pair_charpoly_mod8,
    unit_squares_mod32,
    zmul,
    zpow,
)

FIELDS = {D: make_field(D) for D in SUPPORTED_DISCS}
F3 = FIELDS[-3]

ALL_MOD8 = [R8Elem(a, b) for a in range(8) for b in range(8)]
UNITS_MOD8 = [r for r in ALL_MOD8 if r.is_unit()]


# Reference tables the program does not need: the finer square classes of a
# residue mod 8, and the unit squares mod 4.


class SquareClass(Enum):
    FourthPower = "fourth_power"
    SquareNotFourth = "square_not_fourth"
    NonSquare = "non_square"
    NonUnit = "non_unit"


def square_class_mod8(r: R8Elem) -> SquareClass:
    if not r.is_unit():
        return SquareClass.NonUnit
    if r in FOURTH_POWERS_MOD8:
        return SquareClass.FourthPower
    if r in UNIT_SQUARES_MOD8:
        return SquareClass.SquareNotFourth
    return SquareClass.NonSquare


UNIT_SQUARES_MOD4 = frozenset({(1, 0), (0, 1), (3, 3)})


def test_ring_size():
    assert len(ALL_MOD8) == 64
    assert len(UNITS_MOD8) == 48
    assert ZETA * ZETA * ZETA == R8Elem(1, 0)
    assert ZETA * ZETA == R8Elem(-1, -1)


def test_unit_squares_exhaustive():
    squares = {r * r for r in UNITS_MOD8}
    assert squares == UNIT_SQUARES_MOD8
    assert len(squares) == 6
    fourths = {r**4 for r in UNITS_MOD8}
    assert fourths == FOURTH_POWERS_MOD8
    assert len(fourths) == 3


def test_square_class_examples():
    assert square_class_mod8(R8Elem(0, 5)) is SquareClass.SquareNotFourth
    assert square_class_mod8(R8Elem(7, 0)) is SquareClass.NonSquare
    assert square_class_mod8(ZETA) is SquareClass.FourthPower
    assert square_class_mod8(R8Elem(2, 0)) is SquareClass.NonUnit
    assert square_class_mod8(R8Elem(2, 4)) is SquareClass.NonUnit


def test_square_class_cube_criterion():
    one, five = R8Elem(1, 0), R8Elem(5, 0)
    for r in UNITS_MOD8:
        cls = square_class_mod8(r)
        assert (cls is not SquareClass.NonSquare) == (r**3 in (one, five))
        assert (cls is SquareClass.FourthPower) == (r**3 == one)
        assert is_square_unit_mod8(r.pair) == (cls is not SquareClass.NonSquare)


def test_unit_squares_mod32_is_exact_preimage():
    sq32 = unit_squares_mod32()
    preimage = {
        (a, b)
        for a in range(32)
        for b in range(32)
        if is_unit_pair((a, b)) and R8Elem(a, b) in UNIT_SQUARES_MOD8
    }
    assert sq32 == preimage
    assert len(sq32) == 96


def test_unit_squares_mod4():
    by_enum = {
        zmul((a, b), (a, b), 4)
        for a in range(4)
        for b in range(4)
        if is_unit_pair((a, b))
    }
    assert by_enum == UNIT_SQUARES_MOD4


def test_embed_examples():
    w3 = embed_mod8(F3.omega(), F3)
    assert w3 == R8Elem(1, 1)
    assert w3.norm() == 1 and w3.trace() == 1

    F11 = FIELDS[-11]
    w11 = embed_mod8(F11.omega(), F11)
    assert w11 == R8Elem(3, 5)
    assert w11.norm() == 3 and w11.trace() == 1
    assert embed_mod32(F11.omega(), F11) == (19, 5)

    for F in FIELDS.values():
        assert embed_mod8(5, F) == R8Elem(5, 0)
        assert embed_mod8(F.of(5), F) == R8Elem(5, 0)


def test_embed_respects_defining_relations():
    for D, F in FIELDS.items():
        w = embed_mod32(F.omega(), F)
        assert zmul(w, w, 32) == zpow(w, 2, 32)
        w2 = zmul(w, w, 32)
        want = ((w[0] - F.omega_norm) % 32, w[1])  # omega^2 = omega - c
        assert w2 == want
        s = embed_mod32(F.sqrt_disc(), F)
        assert zmul(s, s, 32) == (D % 32, 0)


small = st.integers(min_value=-40, max_value=40)


@given(small, small, small, small, st.sampled_from(SUPPORTED_DISCS))
def test_embed_is_ring_hom(a1, b1, a2, b2, D):
    F = FIELDS[D]
    x, y = QuadInt(a1, b1, F.omega_norm), QuadInt(a2, b2, F.omega_norm)
    ex, ey = embed_mod8(x, F), embed_mod8(y, F)
    assert embed_mod8(x * y, F) == ex * ey
    assert embed_mod8(x + y, F) == ex + ey
    assert ex.norm() == x.norm() % 8
    assert ex.trace() == x.trace() % 8
    # field conjugation commutes with the embedding (zeta -> zeta^2)
    assert embed_mod8(x.conj(), F) == ex.conj()


def test_charpoly_frozen_cases():
    one = R8Elem(1, 0)
    res = pair_charpoly_mod8(one, one, "-")
    assert (res.t, res.s, res.member) == (R8Elem(2, 0), one, True)
    res = pair_charpoly_mod8(one, one, "+")
    assert (res.t, res.s, res.member) == (R8Elem(0, 0), R8Elem(7, 0), True)

    b1 = embed_mod8(QuadInt(2, 1, 1), F3)
    b2 = embed_mod8(QuadInt(3, -1, 1), F3)
    assert b1 == R8Elem(3, 1) and b2 == R8Elem(2, -1)
    res = pair_charpoly_mod8(b1, b2, "-")
    assert (res.t, res.s, res.member) == (R8Elem(4, 0), R8Elem(7, 0), True)


def test_charpoly_lists_are_disjoint_encodings():
    assert len(MINUS_LIST) == 6 and len(PLUS_LIST) == 6
    for t, s in MINUS_LIST:
        assert s.c1 == 0 and t.c1 == 0
    for t, s in PLUS_LIST:
        assert s.c1 == 0


@given(small, small)
def test_charpoly_closed_forms(a, b):
    # for a conjugate pair (r, conj r) with r = a + b*zeta:
    #   minus-trace  = 2(a^3+b^3) - 3ab(a+b)
    #   plus-trace   = 3ab(a-b)(2*zeta+1)
    r = R8Elem(a, b)
    minus = pair_charpoly_mod8(r, r.conj(), "-")
    assert minus.t == R8Elem(2 * (a**3 + b**3) - 3 * a * b * (a + b), 0)
    plus = pair_charpoly_mod8(r, r.conj(), "+")
    coeff = 3 * a * b * (a - b)
    assert plus.t == R8Elem(coeff, 2 * coeff)
    # the norms: s_minus = (norm r)^3, s_plus = -(norm r)^3
    n3 = (a * a - a * b + b * b) ** 3
    assert minus.s == R8Elem(n3, 0)
    assert plus.s == R8Elem(-n3, 0)


@pytest.mark.parametrize("D", SUPPORTED_DISCS)
def test_trace_lemma_split_primes(D):
    # every split prime <= 300: the conjugate cube pair lands in the first
    # list, the twisted pair in the second, and squareness of alpha matches
    # the x^2-2x+1 reading exactly
    import sympy

    F = FIELDS[D]
    hits = 0
    for p in sympy.primerange(3, 300):
        data = splitting_type(p, F)
        if data.kind is not PlaceKind.SPLIT:
            continue
        hits += 1
        b1 = embed_mod8(data.alpha, F)
        b2 = embed_mod8(data.alpha.conj(), F)
        assert b2 == b1.conj()
        minus = pair_charpoly_mod8(b1, b2, "-")
        plus = pair_charpoly_mod8(b1, b2, "+")
        assert minus.member and plus.member
        is_sq = square_class_mod8(b1) in (
            SquareClass.FourthPower,
            SquareClass.SquareNotFourth,
        )
        assert is_sq == ((minus.t, minus.s) == (R8Elem(2, 0), R8Elem(1, 0)))
    assert hits > 10
