"""Local solvability: predicates vs the independent residue-search oracle."""
from __future__ import annotations

import copy
import dataclasses
import functools
import random
import time
from collections import deque

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from iqselmer import localsolve, quadfield
from iqselmer.charsums import ResidueField
from iqselmer.errors import DomainError, EvenPlace, InternalInconsistency, UnknownVerdict
from iqselmer.localsolve import (
    HomSpace,
    SolveWitness,
    VerdictTag,
    all_solvable,
    bad_places,
    everywhere_verdicts,
    oracle_search,
    predicate_odd_place,
    predicate_two_adic,
    _chi_unit,
    _quartic_ratio_ok,
    _CHART_DEAD,
    _CHART_EXHAUSTED,
    _CHART_SOLVED,
    _PairLocal,
    _RamifiedLocal,
    _SplitLocal,
    _FOURTH_POWERS_MOD32,
    _TwoAdicLocal,
    _local_adapter,
    _two_adic_unit_squares,
)
from iqselmer.quadfield import (
    SUPPORTED_DISCS,
    CurveSpec,
    PlaceKind,
    QuadInt,
    Side,
    legendre_symbol,
    make_field,
    places_above,
    residue_image,
    selmer_candidates,
    splitting_type,
    squarefree_factors,
    val_unit,
)
from iqselmer.residue2adic import embed_mod8, is_square_unit_mod8, zpow

F3 = make_field(-3)
F11 = make_field(-11)
F19 = make_field(-19)


def _place(p, F, index=0):
    return places_above(p, F)[index]


def ql(a, b, F):
    return QuadInt(a, b, F.omega_norm)


# ---------------------------------------------------------------------------
# odd-place predicate: frozen cases


def test_odd_frozen_examples():
    pl17 = _place(17, F3)
    # (p, p*n^2): both valuations odd and equal; the quartic-ratio condition
    # holds automatically for rational coefficients at p = 3 mod 4
    s = HomSpace.make(17, 17 * 4, F3)
    assert predicate_odd_place(s, pl17).tag is VerdictTag.Solvable

    # (p, u) with u a nonsquare unit of the residue field: valuations 1, 0
    # with a nonsquare unit coefficient -> insolvable
    u = ql(1, 2, F3)  # 1 + 2w; check it is a nonsquare unit at 17
    assert _chi_unit(u, pl17) == -1
    s = HomSpace.make(17, u, F3)
    assert predicate_odd_place(s, pl17).tag is VerdictTag.Insolvable

    # both coefficients units -> always solvable
    s = HomSpace.make(5, 7, F3)
    v = predicate_odd_place(s, pl17)
    assert v.tag is VerdictTag.Solvable
    s = HomSpace.make(u, u * u * u, F3)  # nonsquare units, equal valuations
    assert predicate_odd_place(s, pl17).tag is VerdictTag.Solvable

    with pytest.raises(EvenPlace):
        predicate_odd_place(s, _place(2, F3))


def test_quartic_ratio_subcases():
    # split or ramified place with p = 3 mod 4: the ratio condition is
    # equivalent to the two units having opposite characters
    pl7 = _place(7, F3)  # 7 splits in Q(sqrt(-3))
    assert pl7.kind is PlaceKind.SPLIT and pl7.p % 4 == 3
    units = [ql(a, b, F3) for a in range(-3, 4) for b in range(-3, 4)]
    units = [x for x in units if not x.is_zero and x.norm() % 7 != 0]
    for x in units[:20]:
        for y in units[:20]:
            lhs = _quartic_ratio_ok(x, y, pl7)
            rhs = _chi_unit(x, pl7) == -_chi_unit(y, pl7)
            assert lhs == rhs

    # inert place with p = 1 mod 4, rational units: ratio condition holds
    # exactly when the rational Legendre characters agree
    pl13 = _place(13, F19)
    assert pl13.kind is PlaceKind.INERT
    for a in range(1, 13):
        for b in range(1, 13):
            lhs = _quartic_ratio_ok(F19.of(a), F19.of(b), pl13)
            rhs = legendre_symbol(a, 13) == legendre_symbol(b, 13)
            assert lhs == rhs

    # inert place with p = 3 mod 4, rational units: automatic
    pl11 = _place(11, F3)
    assert pl11.kind is PlaceKind.INERT and pl11.p % 4 == 3
    for a in range(1, 11):
        for b in range(1, 11):
            assert _quartic_ratio_ok(F3.of(a), F3.of(b), pl11)


def test_euler_characters_match_the_residue_field():
    # Euler's criterion in F_p against the enumerated field F_p, for every
    # nonzero residue at every split and ramified place with p < 60; units
    # a + w hit each residue through the image of w
    checked = 0
    for D in SUPPORTED_DISCS:
        F = make_field(D)
        for p in sympy.primerange(3, 60):
            for pl in places_above(p, F):
                if pl.kind is PlaceKind.INERT:
                    continue
                K = ResidueField(p)
                unit = {r: ql((r - pl.omega_image) % p, 1, F) for r in range(1, p)}
                for r1, x in unit.items():
                    assert _chi_unit(x, pl) == K.chi(r1), (D, p, r1)
                    for r2, y in unit.items():
                        want = K.is_fourth_power(K.neg(K.mul(r2, K.inv(r1))))
                        assert _quartic_ratio_ok(x, y, pl) == want, (D, p, r1, r2)
                checked += 1
    assert checked > 50


@functools.lru_cache(maxsize=None)
def _enumerated_inert_field(p: int, c: int) -> ResidueField:
    # F_{p^2} with omega mapped to z, z^2 = z - c
    return ResidueField(p, 2, modulus=(1, -1, c))


def test_oracle_inert_squares_match_the_residue_field():
    # the oracle's Euler test on pairs against the enumerated F_{p^2}, for
    # every unit at every inert place with p < 60
    checked = 0
    for D in SUPPORTED_DISCS:
        F = make_field(D)
        for p in sympy.primerange(3, 60):
            pl = places_above(p, F)[0]
            if pl.kind is not PlaceKind.INERT:
                continue
            adapter = _PairLocal(pl, 1)
            K = _enumerated_inert_field(p, F.omega_norm)
            for a in range(p):
                for b in range(p):
                    if (a, b) != (0, 0):
                        assert adapter.is_unit_square((a, b)) == (K.chi((a, b)) == 1), (D, p, a, b)
                        checked += 1
    assert checked > 40000


def test_oracle_two_adic_squares_match_the_embedding():
    # the squares of the unit omega-pairs mod 8 are the pairs whose image in
    # Z2[zeta] is a unit square
    for D in SUPPORTED_DISCS:
        F = make_field(D)
        embedded = {
            (a, b)
            for a in range(8)
            for b in range(8)
            if is_square_unit_mod8(embed_mod8(QuadInt(a, b, F.omega_norm), F).pair)
        }
        assert _two_adic_unit_squares(F.omega_norm) == embedded, D
        assert len(embedded) == 6


@functools.lru_cache(maxsize=None)
def _unit_squares(c: int, n: int) -> frozenset:
    # the squares of the unit omega-pairs mod n = 4 or 8, as w^2 = w - c
    return frozenset(
        ((a * a - c * b * b) % n, b * (2 * a + b) % n) for a in range(n) for b in range(n) if a % 2 or b % 2
    )


def test_oracle_two_adic_squares_mod4_are_the_squares_mod8_reduced():
    # the kernel kills a class whose unit is no square mod 4 two binary digits
    # past its valuation: by brute force over the unit pairs mod 4 and mod 8,
    # the adapter's table mod 4 is the set of unit squares mod 4, a unit pair
    # mod 8 outside it is no square mod 8, and square_mod4 reads the unit of
    # 2^k u for every unit pair u mod 8
    for D in SUPPORTED_DISCS:
        F = make_field(D)
        ad = _local_adapter(places_above(2, F)[0], 22)
        squares4, squares8 = _unit_squares(F.omega_norm, 4), _unit_squares(F.omega_norm, 8)
        assert ad.squares4 == squares4 and len(squares4) == 3, D
        assert ad.squares == squares8, D
        for u in ((a, b) for a in range(8) for b in range(8) if a % 2 or b % 2):
            if (u[0] % 4, u[1] % 4) not in squares4:
                assert u not in squares8 and not ad.is_unit_square(u), (D, u)
            for k in range(4):
                x = (u[0] << k, u[1] << k)
                assert ad.square_mod4(x, k) == ((u[0] % 4, u[1] % 4) in squares4), (D, u, k)


def test_fourth_powers_mod32_are_read_mod_8():
    assert _FOURTH_POWERS_MOD32 == {zpow((a, b), 4, 32) for a in range(32) for b in range(32)}
    assert len(_FOURTH_POWERS_MOD32) == 28


# ---------------------------------------------------------------------------
# 2-adic predicate: frozen cases


def test_two_adic_frozen_insolvable():
    # (8, 2b) with b odd: valuations 3 and 1, no square combination
    for b in (1, 3, 5, 7, -3):
        s = HomSpace.make(8, 2 * b, F3)
        assert predicate_two_adic(s, F3).tag is VerdictTag.Insolvable
    # (2, -10): the residue-5 pattern of curves y^2 = x^3 + bx, b = 5 mod 8
    s = HomSpace.make(2, -10, F3)
    assert predicate_two_adic(s, F3).tag is VerdictTag.Insolvable


def test_two_adic_frozen_solvable():
    # rational inert pair with product 1 mod 8
    s = HomSpace.make(17, 41, F3)
    v = predicate_two_adic(s, F3)
    assert v.tag is VerdictTag.Solvable and v.reason == "two:square-unit-coefficient"
    # solvable only through a residue with a nontrivial omega-component
    s = HomSpace.make(3, 11, F3)
    v = predicate_two_adic(s, F3)
    assert v.tag is VerdictTag.Solvable and v.reason == "two:matched-valuations"
    # squares are instantly solvable
    s = HomSpace.make(1, ql(7, -2, F3), F3)
    assert predicate_two_adic(s, F3).tag is VerdictTag.Solvable


def test_two_adic_half_step_gap():
    # valuation gap 1 with a nonsquare even-side unit: solvable through the
    # shifted residue -1 + 2*1 = 1 (witness (u,w,v) = (1,1,1))
    s = HomSpace.make(-1, 2, F3)
    v = predicate_two_adic(s, F3)
    assert v.tag is VerdictTag.Solvable and v.reason == "two:valuation-gap-one"
    o = oracle_search(s, _place(2, F3))
    assert o.tag is VerdictTag.Solvable


def test_two_adic_gap_two_needs_nontrivial_unit():
    # beta1 = 1+4*zeta (= -3+4w under the embedding), beta2 = 7: the shifted
    # residues beta_i + 4*beta_j fail for the trivial twist but succeed for
    # the twist by zeta; the oracle confirms the space is solvable
    b1 = ql(-3, 4, F3)
    s = HomSpace.make(b1, 28, F3)
    v = predicate_two_adic(s, F3)
    assert v.tag is VerdictTag.Solvable and v.reason == "two:valuation-gap-two"
    from iqselmer.residue2adic import embed_mod32, is_square_unit_mod8, zadd, zmul

    B1 = embed_mod32(b1, F3)
    assert B1 == (1, 4)
    # the single-twist tests fail in both orientations
    assert not is_square_unit_mod8(zadd(B1, (28, 0), 32))
    assert not is_square_unit_mod8(zadd((7, 0), zmul((4, 0), B1, 32), 32))
    o = oracle_search(s, _place(2, F3))
    assert o.tag is VerdictTag.Solvable


# ---------------------------------------------------------------------------
# oracle: basic behavior


def test_oracle_trivial_square():
    for F, pspec in ((F3, 5), (F3, 2), (F11, 3)):
        pl = _place(pspec, F)
        s = HomSpace.make(1, ql(3, 1, F), F)
        v = oracle_search(s, pl)
        assert v.tag is VerdictTag.Solvable
        assert v.witness is not None


def test_oracle_two_adic_insolvable():
    s = HomSpace.make(8, 6, F3)
    v = oracle_search(s, _place(2, F3))
    assert v.tag is VerdictTag.Insolvable


def test_oracle_scaling_invariance():
    # (pi^e b1, pi^e b2) has the verdict of (b1, b2) for even e and of
    # (pi b1, pi b2) for odd e; e runs past M = 4 * base + 8 of the second
    # pass, so the content is read past both passes' working precision, at
    # the 2-adic, ramified, inert and split places of Q(sqrt(-3))
    for p, top in ((2, 36), (3, 56), (5, 32), (7, 32)):
        pl = _place(p, F3)
        for b1, b2 in ((5, 7), (10, -15), (3, 5 * 5 * 2), (1, -3)):
            tags = [
                oracle_search(HomSpace.make(pl.pi**e * b1, pl.pi**e * b2, F3), pl).tag
                for e in range(top + 3)
            ]
            assert VerdictTag.Unknown not in tags, (p, b1, b2)
            assert tags == [tags[e % 2] for e in range(top + 3)], (p, b1, b2, tags)


def test_oracle_reads_a_large_content_exactly():
    # (2^21, 3*2^21) is (2, 6) times the fourth power 2^20 at the 2-adic
    # place of Q(sqrt(-3)); divided out of images mod 2^22, the content left
    # (1, 1) instead of (1, 3), and the search found a point
    pl = _place(2, F3)
    for b1, b2 in ((2, 6), (2**21, 3 * 2**21)):
        s = HomSpace.make(b1, b2, F3)
        assert oracle_search(s, pl).tag is VerdictTag.Insolvable
        assert predicate_two_adic(s, F3).tag is VerdictTag.Insolvable


def test_oracle_decides_a_content_past_the_working_precision():
    # contents 20 and 21 at the inert 5 of Q(sqrt(-3)), past the first pass's
    # M = 20: the content is bounded by the norm and read exactly, not
    # searched class by class
    pl = _place(5, F3)
    for b1, b2 in ((5**20, 5**22), (5**21, 3 * 5**23)):
        s = HomSpace.make(b1, b2, F3)
        t0 = time.perf_counter()
        orc = oracle_search(s, pl)
        assert time.perf_counter() - t0 < 1, (b1, b2)
        assert orc.tag is predicate_odd_place(s, pl).tag, (b1, b2, orc.reason)


def test_oracle_reads_no_predicate_helper(monkeypatch):
    # the oracle shares no local helper with the predicates: with val_unit
    # and residue_image refusing, it still agrees with the predicates at all
    # four kinds of place, for contents 0, 1 and 25 (past the first pass's M
    # except at the ramified place, where M = 32); its adapters are built
    # from the place alone, with no field looked up, even on empty caches
    spaces = [
        (HomSpace.make(pl.pi**e * b1, pl.pi**e * b2, F3), pl)
        for pl in (_place(p, F3) for p in (2, 3, 5, 7))
        for b1, b2 in ((1, 3), (5, -7), (2, 6), (3, 50))
        for e in (0, 1, 25)
    ]
    assert {pl.kind for _, pl in spaces} == set(PlaceKind)
    want = [predicate_two_adic(s, F3) if pl.p == 2 else predicate_odd_place(s, pl) for s, pl in spaces]

    def refuse(*args):
        raise AssertionError("the oracle read a predicate helper")

    for module in (localsolve, quadfield):
        monkeypatch.setattr(module, "val_unit", refuse)
        monkeypatch.setattr(module, "residue_image", refuse)
        monkeypatch.setattr(module, "make_field", refuse)
    monkeypatch.setattr(localsolve, "_field_for_cw", refuse)
    localsolve._ADAPTERS.clear()
    localsolve._SPLIT_MEMO.clear()
    for (s, pl), pred in zip(spaces, want):
        assert oracle_search(s, pl).tag is pred.tag, (str(s.b1), str(s.b2), str(pl))
    # the adapters are cached per (place, precision), and the split-place
    # verdicts kept for the conjugate place, in caches of a finite cap
    assert isinstance(localsolve._ADAPTERS_CAP, int) and localsolve._ADAPTERS_CAP > 0
    assert isinstance(localsolve._SPLIT_MEMO_CAP, int) and localsolve._SPLIT_MEMO_CAP > 0
    assert 0 < len(localsolve._ADAPTERS) <= localsolve._ADAPTERS_CAP
    assert 0 < len(localsolve._SPLIT_MEMO) <= localsolve._SPLIT_MEMO_CAP


def test_split_memo_is_emptied_when_full(monkeypatch):
    # searches at one split place whose conjugates are never asked: the memo
    # keeps at most its cap, starting over when full, with every verdict
    # that of the search with the memo patched out
    pl = _place(7, F3)
    spaces = [HomSpace.make(b1, b2, F3) for b1, b2 in ((1, 3), (5, -7), (2, 6), (3, 50), (-1, 7))]
    monkeypatch.setattr(localsolve, "_SPLIT_MEMO", None)
    want = [oracle_search(s, pl) for s in spaces]
    memo = {}
    monkeypatch.setattr(localsolve, "_SPLIT_MEMO", memo)
    monkeypatch.setattr(localsolve, "_SPLIT_MEMO_CAP", 2)
    sizes = []
    for s, v in zip(spaces, want):
        assert oracle_search(s, pl) == v, (str(s.b1), str(s.b2))
        sizes.append(len(memo))
    assert sizes == [1, 2, 1, 2, 1]


def test_oracle_honest_unknown_on_degenerate_quartic():
    # 3*(x^2-1)^2 has only square values and exact double roots; the only
    # certificates are the roots themselves, which the residue search cannot
    # separate from their neighborhoods at finite depth
    s = HomSpace.make(3, 3, F3, a=-6)
    v = oracle_search(s, _place(7, F3), max_precision=4)
    assert v.tag is VerdictTag.Unknown
    assert "precision-exhausted" in v.reason
    # the closed-form predicates are honest here too
    assert predicate_odd_place(s, _place(7, F3)).tag is VerdictTag.Unknown


# ---------------------------------------------------------------------------
# the core contract: predicate == oracle on descent candidate spaces


AGREEMENT_RANGES = [
    # the ramified prime to exponents 1, 2 and 3 on D = -3, and 2 on D = -11
    (F3, (-10, -7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10, 15, -15, 9, -9, 18, -18, 27, -27, -54)),
    (F11, (-5, -3, 3, 5, 6, 121, -121, 242)),
    (F19, (3, -6)),  # 3 is inert here: exercises the 9-element residue field
]


@pytest.mark.parametrize("F,bs", AGREEMENT_RANGES, ids=("D-3", "D-11", "D-19"))
def test_predicate_oracle_agreement(F, bs):
    checked = 0
    for b in bs:
        spec = CurveSpec(b, F)
        places = bad_places(spec.odd_primes, F)
        for side in (Side.PHI, Side.PHIHAT):
            for s in selmer_candidates(spec, side):
                for pl in places:
                    if pl.kind is PlaceKind.TWO_ADIC:
                        pred = predicate_two_adic(s, F)
                    else:
                        pred = predicate_odd_place(s, pl)
                    orc = oracle_search(s, pl)
                    assert pred.tag is not VerdictTag.Unknown
                    assert orc.tag is not VerdictTag.Unknown, (b, side, s, str(pl), orc.reason)
                    assert pred.tag is orc.tag, (
                        b,
                        side,
                        str(s.b1),
                        str(s.b2),
                        str(pl),
                        pred.reason,
                        orc.reason,
                    )
                    checked += 1
    assert checked > 50


def test_chart_symmetry():
    for b1, b2 in ((17, -4), (ql(1, 2, F3), 5), (8, 6), (2, -10)):
        s = HomSpace.make(b1, b2, F3)
        t = HomSpace.make(b2, b1, F3)
        assert predicate_two_adic(s, F3).tag is predicate_two_adic(t, F3).tag
        for p in (5, 17):
            pl = _place(p, F3)
            assert predicate_odd_place(s, pl).tag is predicate_odd_place(t, pl).tag


# ---------------------------------------------------------------------------
# a != 0 criteria vs oracle


def _hypothesis_grid(F, p, kind_filter=None):
    pl = _place(p, F)
    if kind_filter:
        assert pl.kind is kind_filter
    vals = [-3, -2, -1, 1, 2, 3, 5, 7]
    for b1 in vals:
        for b2 in vals:
            for a in (1, 2, 3, 4, 6, 12, p, 2 * p, p * p):
                yield pl, HomSpace.make(b1, b2, F, a=a)


def test_degenerate_discriminant_criterion_vs_oracle():
    # places with residue fields F_13 (split, 13 = 5 mod 8), F_289 (inert),
    # and F_9 (inert 3), where the reasons keep the "odd:" prefix
    hits = 0
    for p, F in ((13, F3), (17, F3), (7, F3), (3, F19)):
        pl = _place(p, F)
        for _, s in _hypothesis_grid(F, p):
            disc = s.a * s.a - 4 * s.b1 * s.b2
            if disc.is_zero:
                continue
            mu = val_unit(disc, pl, F)[0]
            vb = val_unit(s.b1 * s.b2, pl, F)[0]
            if not (mu > 0 and vb == 0):
                continue
            verdict = predicate_odd_place(s, pl)
            assert verdict.tag is not VerdictTag.Unknown
            assert verdict.reason == "odd:degenerate-discriminant"
            assert oracle_search(s, pl).tag is verdict.tag, (str(s.b1), str(s.b2), str(s.a), p)
            hits += 1
    assert hits >= 20


def test_vanishing_product_criterion_vs_oracle():
    hits = 0
    for p, F in ((5, F3), (17, F3), (3, F19)):  # F_9 at inert 3 keeps "odd:"
        pl = _place(p, F)
        for b1 in (5 * 1, 5 * 2, 17, -17, 5 * 5 * 3):
            for b2 in (1, 2, 3, -1, 5, 10):
                for a in (1, 2, 3, 7, 9):
                    s = HomSpace.make(b1, b2, F, a=a)
                    va = val_unit(s.a, pl, F)[0]
                    vb = val_unit(s.b1 * s.b2, pl, F)[0]
                    if not (vb > 0 and va == 0):
                        continue
                    verdict = predicate_odd_place(s, pl)
                    if verdict.tag is VerdictTag.Unknown:
                        continue
                    assert verdict.reason == "odd:vanishing-product"
                    assert oracle_search(s, pl).tag is verdict.tag, (b1, b2, a, p)
                    hits += 1
    assert hits >= 20


def test_residue_three_criteria_vs_oracle():
    hits = 0
    # ramified 3 in Q(sqrt(-3)) and split 3 in Q(sqrt(-11)): both have q = 3
    for F in (F3, F11):
        pl = _place(3, F)
        assert pl.q == 3
        for b1 in (1, 2, -1, 3, 6, ql(0, 1, F) if F is F3 else 1):
            for b2 in (1, 2, -2, 3, -3):
                for a in (1, 2, 3, 4, 6, 9, 12):
                    s = HomSpace.make(b1, b2, F, a=a)
                    verdict = predicate_odd_place(s, pl)
                    if verdict.tag is VerdictTag.Unknown:
                        continue
                    orc = oracle_search(s, pl)
                    assert orc.tag is verdict.tag, (str(b1), b2, a, F.D, verdict.reason, orc.reason)
                    hits += 1
    assert hits >= 25


def test_two_adic_sufficient_conditions_vs_oracle():
    confirmed = {"two:square-unit-coefficient": 0, "two:dominant-middle-term": 0, "two:balanced-middle-term": 0}
    # the third condition needs alpha + beta_i to be a unit, which forces a
    # nontrivial omega-component of even rational part (odd + odd is even)
    pool = [1, 3, 5, 7, -1, -3, 9, 17, ql(1, 2, F3), ql(6, 1, F3), ql(2, 1, F3)]
    for base1 in pool:
        for v1 in (0, 2, 4, 5):
            for base2 in (1, 3, 7, -5):
                for v2 in (0, 2, 4, 5, 6):
                    for a in (2, 4, 8, 12, 2 * 9, ql(0, 2, F3)):
                        b1 = (F3.of(base1) if isinstance(base1, int) else base1) * 2**v1
                        b2 = F3.of(base2) * 2**v2
                        s = HomSpace.make(b1, b2, F3, a=a)
                        verdict = predicate_two_adic(s, F3)
                        if verdict.tag is VerdictTag.Unknown:
                            continue
                        assert verdict.tag is VerdictTag.Solvable
                        if confirmed[verdict.reason] >= 8:
                            continue  # cap the oracle workload per branch
                        orc = oracle_search(s, _place(2, F3))
                        assert orc.tag is VerdictTag.Solvable, (str(b1), str(b2), str(a), verdict.reason)
                        confirmed[verdict.reason] += 1
    assert all(n >= 3 for n in confirmed.values()), confirmed


# ---------------------------------------------------------------------------
# the oracle kernel against the generic kernel it replaced


def _reference_decide_chart(adapter, c4, c2, c0, shift: int, cap: int, root=None):
    """Breadth-first refinement of residue classes x mod pi^j for
    f(x) = c4 x^4 + c2 x^2 + c0 (content already stripped; shift = removed
    content, so total valuation = shift + nu(f)), from the class
    root = (x0, j) (all of O by default).

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

    queue = deque([root or (adapter.zero, 0)])
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


def _ungraded_decide_chart(adapter, c4, c2, c0, shift: int, cap: int, start: int):
    """The Taylor-certified kernel before its certificate was graded: every
    class waits for nu(f(x0)) + need <= P, whatever its parity or its unit
    mod 4, and the children of a depth are listed before they are read."""
    f = adapter.quartic(c4, c2, c0)
    nu, need, children, M, zero = adapter.nu, adapter.need, adapter.children, adapter.M, adapter.zero
    n4 = nu(c4)
    level = [zero]
    for j in range(start, cap + 1):
        live = []
        for x0 in level:
            val, t1, t2, t3 = f(x0) if j > start else (c0, zero, c2, zero)
            k = nu(val)
            if k + need > j:
                kd = nu(t1)
                if k >= j > 2 * kd:
                    h = min(j, k - kd)  # the root is known only mod pi^(k - kd)
                    wit = SolveWitness(u=adapter.describe(x0, h), w="1", v="0", precision=h)
                    return _CHART_SOLVED, wit
                e = k + need
                if e > j + kd or e > 2 * j + nu(t2) or e > 3 * j + nu(t3) or e > 4 * j + n4 or e > M:
                    live.append(x0)
                    continue
            if (shift + k) % 2 == 0:
                unit = adapter.shift_down(val, k)
                if adapter.is_unit_square(unit):
                    hint = adapter.sqrt_hint(unit) if k == 0 else None
                    wit = SolveWitness(u=adapter.describe(x0, j), w="1", v=hint, precision=j)
                    return _CHART_SOLVED, wit
        if not live:
            return _CHART_DEAD, None
        if j == cap:
            return _CHART_EXHAUSTED, len(live)
        level = [child for x0 in live for child in children(x0, j)]


class _RefSplit(_SplitLocal):
    def is_unit_square(self, u: int) -> bool:
        return legendre_symbol(u % self.p, self.p) == 1

    def children(self, x0: int, j: int):
        step = self.p**j
        return (self.add(x0, t * step) for t in range(self.p))


class _RefPair(_PairLocal):
    def is_unit_square(self, u) -> bool:
        K = _enumerated_inert_field(self.p, self.c)
        return K.chi((u[0] % self.p, u[1] % self.p)) == 1

    def children(self, x0, j: int):
        step = self.p**j
        return (
            ((x0[0] + s * step) % self.mod, (x0[1] + t * step) % self.mod)
            for s in range(self.p)
            for t in range(self.p)
        )


class _RefTwoAdic(_RefPair, _TwoAdicLocal):
    def nu(self, x) -> int:
        return _PairLocal.nu(self, x)

    def is_unit_square(self, u) -> bool:
        # convert the omega-pair to zeta coordinates; mod-8 data decides
        F = localsolve._field_for_cw(self.c)
        return is_square_unit_mod8(embed_mod8(QuadInt(u[0] % 32, u[1] % 32, self.c), F).pair)


class _RefRamified(_RamifiedLocal):
    def is_unit_square(self, u) -> bool:
        (pl,) = places_above(self.p, localsolve._field_for_cw(self.c))
        return legendre_symbol(residue_image(QuadInt(u[0], u[1], self.c), pl), self.p) == 1


# The adapters' methods as the replaced kernel used them: the valuation loop
# at 2, the QuadInt embedding for 2-adic squares, the enumerated F_{p^2} for
# inert squares, Euler's criterion through legendre_symbol, and children
# reduced mod p^M.  Ring arithmetic (add, mul)
# and everything else are the adapters' own.
_REFERENCE_ADAPTER = {
    _SplitLocal: _RefSplit,
    _PairLocal: _RefPair,
    _TwoAdicLocal: _RefTwoAdic,
    _RamifiedLocal: _RefRamified,
}


def _as_reference(adapter):
    ref = object.__new__(_REFERENCE_ADAPTER[type(adapter)])
    ref.__dict__ = adapter.__dict__
    return ref


def _ring_quartic(ad, c4, c2, c0):
    """f and its Taylor coefficients (t1, t2, t3) = (4c4x^3 + 2c2x,
    6c4x^2 + c2, 4c4x) from the adapter's own add and mul."""
    mul, add = ad.mul, ad.add

    def times(n, x):
        out = ad.zero
        for _ in range(n):
            out = add(out, x)
        return out

    def f(x):
        x2 = mul(x, x)
        return add(add(mul(c4, mul(x2, x2)), mul(c2, x2)), c0)

    def taylor(x):
        x2 = mul(x, x)
        t3 = mul(times(4, c4), x)
        return add(mul(t3, x2), mul(times(2, c2), x)), add(mul(times(6, c4), x2), c2), t3

    return f, taylor


def test_quartic_matches_ring_arithmetic():
    # each adapter's quartic closure against its own add/mul, at 2, an
    # inert, a split and the ramified place of two fields, and the Taylor
    # identity f(x + h) = f(x) + t1 h + t2 h^2 + t3 h^3 + c4 h^4
    rng = random.Random(9)
    for F, ps in ((F3, (2, 3, 5, 7)), (F11, (2, 3, 7, 11))):
        for p in ps:
            for pl in places_above(p, F):
                ad = _local_adapter(pl, 10)
                mul, add = ad.mul, ad.add
                for _ in range(25):
                    c4, c2, c0, x, h = (
                        ad.coeff(ql(rng.randint(-999, 999), rng.randint(-999, 999), F))
                        for _ in range(5)
                    )
                    val, t1, t2, t3 = ad.quartic(c4, c2, c0)(x)
                    ring_f, ring_taylor = _ring_quartic(ad, c4, c2, c0)
                    assert val == ring_f(x), (p, str(pl))
                    assert (t1, t2, t3) == ring_taylor(x), (p, str(pl))
                    h2 = mul(h, h)
                    moved = add(add(mul(t1, h), mul(t2, h2)), add(mul(t3, mul(h2, h)), mul(c4, mul(h2, h2))))
                    assert ring_f(add(x, h)) == add(val, moved), (p, str(pl))


def _assert_certified(ref, c4, c2, c0, shift, x0, wit):
    # at the class representative itself: an even-valuation square, or
    # Hensel's nu(f) > 2 nu(f') with the root's class no finer than
    # pi^(nu(f) - nu(f')), where Hensel's lemma places it
    f, taylor = _ring_quartic(ref, c4, c2, c0)
    val = f(x0)
    k = ref.nu(val)
    where = (type(ref).__name__, str(ref.p), x0, wit)
    if wit.v == "0":
        kd = ref.nu(taylor(x0)[0])
        assert k > 2 * kd and wit.precision <= k - kd, where
    else:
        assert (shift + k) % 2 == 0 and k + ref.need <= ref.M, where
        assert ref.is_unit_square(ref.shift_down(val, k)), where


class _ChartLog(list):
    """(adapter kind, status) per chart; .reference has the reference
    kernel's status of each chart.  .decide is _reference_decide_chart run
    once per chart: the fixture and _reference_oracle ask for the same chart
    over O whenever their coefficients agree."""

    def __init__(self):
        super().__init__()
        self.reference = []
        self.evaluated = None
        self._runs = {}

    def decide(self, ref, c4, c2, c0, shift, cap):
        # the adapter's kind, place and precision, then the chart
        key = (type(ref), ref.p, ref.M, getattr(ref, "root", None), getattr(ref, "c", None),
               c4, c2, c0, shift, cap)
        if key not in self._runs:
            self._runs[key] = _reference_decide_chart(ref, c4, c2, c0, shift, cap)
        return self._runs[key]


def _reference_oracle(s, pl, decide):
    """The search that the chart cover replaced, at the default depths: both
    charts over all of O through decide (_reference_decide_chart), with the
    content from val_unit.  The coefficients are read mod pi^(M + content)
    before the shift, so each is known mod pi^M."""
    F = localsolve._field_for_cw(pl.pi.cw)
    content = min(val_unit(x, pl, F)[0] for x in (s.b1, s.a, s.b2) if not x.is_zero)
    base = 7 if pl.kind is PlaceKind.TWO_ADIC else (12 if pl.kind is PlaceKind.RAMIFIED else 6)
    for cap in (base, 2 * base):
        M = 2 * cap + 8
        ref = _as_reference(_local_adapter(pl, M))
        wide = _local_adapter(pl, M + content)
        b1, a, b2 = (wide.shift_down(wide.coeff(x), content) for x in (s.b1, s.a, s.b2))
        dead = 0
        for c4, c0 in ((b1, b2), (b2, b1)):
            status = decide(ref, c4, a, c0, content, cap)[0]
            if status == _CHART_SOLVED:
                return VerdictTag.Solvable
            dead += status == _CHART_DEAD
        if dead == 2:
            return VerdictTag.Insolvable
    return VerdictTag.Unknown


def _uniformiser(ad):
    # the element whose powers the adapter's classes step by (p, or sqrt(D)
    # = 2w - 1 at the ramified place); coeff reads only the coordinates of
    # the QuadInt
    return ad.coeff(QuadInt(-1, 2, ad.c) if isinstance(ad, _RamifiedLocal) else QuadInt(ad.p, 0, 1))


@pytest.fixture
def chart_log(monkeypatch):
    """Run every chart oracle_search decides through three kernels and log
    (adapter kind, status).  A chart over pi O (start depth 1) goes to the
    reference as the chart over O of f(pi y), one depth shallower, so both
    visit the same classes.  Where the reference decides, the status is the
    same; where it runs out of depth, the kernel decides or ends with no
    more live classes.  Where the ungraded kernel decides, the status and
    the witness are the same; where it runs out of depth, the kernel ends
    dead or with no more live classes.  Every solved witness is re-checked
    exactly at the class representative it names.  With log.evaluated set
    to a list, each chart's classes are kept as (x0, j, (f, t1, t2, t3)),
    the class of 0 with the values read from the coefficients.  The memo
    of split-place verdicts is patched out, so no chart is skipped."""
    fast = localsolve._decide_chart
    log = _ChartLog()

    def both(adapter, c4, c2, c0, shift, cap, start):
        named = []
        zero = adapter.zero
        classes = [(zero, start, (c0, zero, c2, zero))]
        depth = [start]

        def children(x0, j):
            depth[0] = j + 1
            if x0 == zero:  # the first child, 0 again
                classes.append((zero, j + 1, classes[0][2]))
            return adapter.children(x0, j)

        def quartic(*coeffs):
            f = adapter.quartic(*coeffs)
            return lambda x: classes.append((x, depth[0], f(x))) or classes[-1][2]

        recorder = copy.copy(adapter)
        recorder.describe = lambda x0, j: named.append(x0) or adapter.describe(x0, j)
        recorder.children, recorder.quartic = children, quartic
        got = fast(recorder, c4, c2, c0, shift, cap, start)
        ungraded = _ungraded_decide_chart(adapter, c4, c2, c0, shift, cap, start)
        if ungraded[0] == _CHART_EXHAUSTED:
            assert got[0] == _CHART_DEAD or (got[0] == _CHART_EXHAUSTED and got[1] <= ungraded[1]), (got, ungraded)
        else:
            assert got == ungraded, (type(adapter).__name__, str(adapter.p), cap, got, ungraded)
        ref = _as_reference(adapter)
        r4, r2, rcap = c4, c2, cap
        if start:
            pi = _uniformiser(ref)
            pi2 = ref.mul(pi, pi)
            r4, r2, rcap = ref.mul(c4, ref.mul(pi2, pi2)), ref.mul(c2, pi2), cap - 1
        want = log.decide(ref, r4, r2, c0, shift, rcap)
        where = (type(adapter).__name__, str(adapter.p), cap, got, want)
        if want[0] == _CHART_EXHAUSTED:
            assert got[0] != _CHART_EXHAUSTED or got[1] <= want[1], where
        else:
            assert got[0] == want[0], where
        if got[0] == _CHART_SOLVED:
            _assert_certified(ref, c4, c2, c0, shift, named[-1], got[1])
        log.append((type(adapter).__name__, got[0]))
        log.reference.append(want[0])
        if log.evaluated is not None:
            log.evaluated.append((ref, c4, c2, c0, shift, cap, classes))
        return got

    monkeypatch.setattr(localsolve, "_decide_chart", both)
    monkeypatch.setattr(localsolve, "_SPLIT_MEMO", None)
    return log


def test_oracle_kernel_matches_reference_on_candidate_spaces(chart_log):
    # every candidate space of squarefree |b| <= 30, at every bad place of
    # its curve, on all six fields; the verdict is that of the reference
    # oracle with two full charts
    for D in SUPPORTED_DISCS:
        F = make_field(D)
        for n in range(1, 31):
            if squarefree_factors(n) is None:
                continue
            for b in (n, -n):
                spec = CurveSpec(b, F)
                places = bad_places(spec.odd_primes, F)
                for side in (Side.PHI, Side.PHIHAT):
                    for c in selmer_candidates(spec, side):
                        for pl in places:
                            got = oracle_search(c, pl).tag
                            want = _reference_oracle(c, pl, chart_log.decide)
                            assert got is want, (D, b, str(c.b1), str(pl))
    kinds = {kind for kind, _ in chart_log}
    assert kinds == {"_SplitLocal", "_PairLocal", "_TwoAdicLocal", "_RamifiedLocal"}
    assert {status for _, status in chart_log} == {_CHART_SOLVED, _CHART_DEAD}
    assert len(chart_log) > 20000


def _killed_by_grading(ref, c4, shift, x0, j, values):
    """Whether the graded certificate kills the class x0 + pi^j O where the
    ungraded one leaves it live: k + e <= P < k + need, with e = 1 for an
    odd total valuation and, at 2, e = 2 for a unit that is no square mod 4
    (the unit squares mod 4 by brute force), and no Hensel root first."""
    nu = ref.nu
    val, t1, t2, t3 = values
    k = nu(val)
    P = min(ref.M, j + nu(t1), 2 * j + nu(t2), 3 * j + nu(t3), 4 * j + nu(c4))
    if (shift + k) % 2:
        e = 1
    elif ref.need == 3 and (val[0] >> k & 3, val[1] >> k & 3) not in _unit_squares(ref.c, 4):
        e = 2
    else:
        return False
    hensel = k + e > j and k >= j > 2 * nu(t1)
    return k + e <= P < k + ref.need and not hensel


def _assert_no_witness_in_class(ref, c4, c2, c0, shift, depth, x0, j):
    # the reference searching x0 + pi^j O to the given depth finds no square;
    # a Hensel witness at x' (nu(f) >= j' > 2 nu(f')) places a root only
    # within pi^(nu(f) - nu(f')) of x', and that must not be inside the class
    named = []
    probe = copy.copy(ref)
    probe.describe = lambda x, jj: named.append(x) or ref.describe(x, jj)
    status, wit = _reference_decide_chart(probe, c4, c2, c0, shift, depth, root=(x0, j))
    if status == _CHART_SOLVED:
        f, taylor = _ring_quartic(ref, c4, c2, c0)
        k, kd = ref.nu(f(named[-1])), ref.nu(taylor(named[-1])[0])
        assert wit.v == "0" and k - kd < j, (str(ref.p), x0, j, wit, k, kd)


def test_oracle_kernel_grading_at_every_cap(chart_log):
    # depth caps 1 to 5 on every candidate space of squarefree |b| <= 12, at
    # every bad place of its curve, on all six fields: the fixture compares
    # each chart with the reference and the ungraded kernel, and every class
    # that the graded certificate kills while the ungraded one leaves it live
    # holds no witness for the reference searching it to depth cap + 4: no
    # square, and no Hensel root that Hensel's lemma places inside it
    chart_log.evaluated = []
    checked = set()  # a class killed at several caps is searched at the first
    for D in SUPPORTED_DISCS:
        F = make_field(D)
        for n in range(1, 13):
            if squarefree_factors(n) is None:
                continue
            for b in (n, -n):
                spec = CurveSpec(b, F)
                places = bad_places(spec.odd_primes, F)
                for c in (c for side in Side for c in selmer_candidates(spec, side)):
                    for pl in places:
                        for cap in range(1, 6):
                            oracle_search(c, pl, max_precision=cap)
                for ref, c4, c2, c0, shift, cap, classes in chart_log.evaluated:
                    for x0, j, values in classes:
                        key = (type(ref), ref.p, getattr(ref, "root", None), c4, c2, c0, shift, x0, j)
                        if key not in checked and _killed_by_grading(ref, c4, shift, x0, j, values):
                            checked.add(key)
                            _assert_no_witness_in_class(ref, c4, c2, c0, shift, cap + 4, x0, j)
                chart_log.evaluated.clear()
    assert {status for _, status in chart_log} == {_CHART_SOLVED, _CHART_DEAD, _CHART_EXHAUSTED}
    assert len(checked) > 1000, len(checked)


def test_oracle_kernel_matches_reference_with_middle_term(chart_log):
    # a != 0 at every place over p <= 13, the ramified places included, with
    # a depth cap low enough that the reference ends some charts exhausted;
    # the kernel decides every one of them, with the verdict of the
    # reference oracle at the default depths
    for D in (-3, -11):
        F = make_field(D)
        for p in (2, 3, 5, 7, 11, 13):
            for pl in places_above(p, F):
                for b1 in (-3, 1, 2, 5):
                    for b2 in (-2, 1, 3, 7):
                        for a in (1, 2, 3, 6, p):
                            s = HomSpace.make(b1, b2, F, a=a)
                            got = oracle_search(s, pl, max_precision=3).tag
                            assert got is _reference_oracle(s, pl, chart_log.decide), (D, str(pl), b1, b2, a)
    kinds = {kind for kind, _ in chart_log}
    assert kinds == {"_SplitLocal", "_PairLocal", "_TwoAdicLocal", "_RamifiedLocal"}
    assert set(chart_log.reference) == {_CHART_SOLVED, _CHART_DEAD, _CHART_EXHAUSTED}
    assert {status for _, status in chart_log} == {_CHART_SOLVED, _CHART_DEAD}


def test_oracle_kernel_matches_reference_when_precision_runs_out(chart_log):
    # c*(x^2-1)^2 with c a nonsquare unit only certifies at its exact double
    # roots +-1, so the chart over O ends exhausted and its live counts are
    # compared; on the chart over pi O, c*(x^2-1)^2 is c times a unit square
    # and dies: c = 3 at 2 and at the split 7, c = 1+w at the inert 5
    c = ql(1, 1, F3)
    assert _chi_unit(c, _place(5, F3)) == -1
    for s, p in ((HomSpace.make(3, 3, F3, a=-6), 2), (HomSpace.make(3, 3, F3, a=-6), 7),
                 (HomSpace.make(c, c, F3, a=-2 * c), 5)):
        v = oracle_search(s, _place(p, F3), max_precision=4)
        assert v.tag is VerdictTag.Unknown, p
    assert [status for _, status in chart_log] == [_CHART_EXHAUSTED, _CHART_DEAD] * 3
    assert [kind for kind, _ in chart_log[::2]] == ["_TwoAdicLocal", "_SplitLocal", "_PairLocal"]


def test_hensel_witness_names_a_class_that_holds_the_root():
    # at the split 7 of Q(sqrt(-3)), content 1, cap 6: nu(f(15)) = 3 and
    # nu(f'(15)) = 1, so Hensel's lemma places the root within 7^2 of 15,
    # and the witness is 15 mod 7^2; the root is 162 mod 7^3, and no member
    # of 15 + 7^3 Z_7 is a root (f is nonzero mod 7^4 on the whole class)
    c2, c0, mod = 79792129930222371, 11766646847061734, 7**20
    ad = _local_adapter(_place(7, F3), 20)
    status, wit = localsolve._decide_chart(ad, 61, c2, c0, 1, 6, 0)
    assert (status, wit) == (_CHART_SOLVED, SolveWitness(u="15 mod 7^2", w="1", v="0", precision=2))
    f = lambda x: (61 * x**4 + c2 * x * x + c0) % mod
    df = lambda x: (244 * x**3 + 2 * c2 * x) % mod
    root = 15
    for _ in range(6):  # Newton's step on f / 7 and f' / 7, 7 | f' to order 1
        root = (root - f(root) // 7 * pow(df(root) // 7, -1, mod // 7)) % (mod // 7)
    assert f(root) % 7**16 == 0 and root % 7**2 == 15 and root % 7**3 == 162
    assert all(f(15 + 7**3 * t) % 7**4 for t in range(7))


def test_ramified_pairs_match_exact_arithmetic():
    # the ramified adapter works on pairs mod p^M; at the ramified place of
    # each field, x = pi^e * u for random units u and e <= M + 2 against the
    # exact QuadInt arithmetic: valuation, division by pi^e to the precision
    # left, the children x0 + t*pi^j, squares by Euler's criterion on the
    # residue image, and the quartic against the exact closure
    rng = random.Random(24)

    def exact_quartic(c4, c2, c0):
        d4, d2, e4 = 4 * c4, 2 * c2, 6 * c4

        def f(x):
            x2 = x * x
            t3 = d4 * x
            return c4 * (x2 * x2) + c2 * x2 + c0, t3 * x2 + d2 * x, e4 * x2 + c2, t3

        return f

    for D in SUPPORTED_DISCS:
        F = make_field(D)
        (pl,) = places_above(-D, F)
        assert pl.kind is PlaceKind.RAMIFIED
        p, pi = pl.p, F.sqrt_disc()
        for M in (5, 32):
            ad = _local_adapter(pl, M)
            for _ in range(60):
                u = ql(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), F)
                if residue_image(u, pl) == 0:
                    continue
                e = rng.randint(0, M + 2)
                x = pi**e * u
                assert ad.nu(ad.coeff(x)) == min(e, M), (D, M, e, str(u))
                diff = ad.shift_down(ad.coeff(x), e)
                diff = QuadInt(diff[0], diff[1], F.omega_norm) - u
                assert diff.is_zero or val_unit(diff, pl, F)[0] >= 2 * M - e, (D, M, e, str(u))
                euler = pow(residue_image(u, pl), (p - 1) // 2, p) == 1
                assert ad.is_unit_square(ad.coeff(u)) == euler, (D, str(u))
                j = rng.randint(0, M - 1)
                want = [ad.coeff(u + t * pi**j) for t in range(p)]
                assert list(ad.children(ad.coeff(u), j)) == want, (D, M, j, str(u))
                c4, c2, c0 = (ql(rng.randint(-999, 999), rng.randint(-999, 999), F) for _ in range(3))
                got = ad.quartic(ad.coeff(c4), ad.coeff(c2), ad.coeff(c0))(ad.coeff(x))
                assert got == tuple(map(ad.coeff, exact_quartic(c4, c2, c0)(x))), (D, M, e)


def test_split_adapter_rejects_a_wrong_omega_image():
    pl = _place(7, F3)
    wrong = dataclasses.replace(pl, omega_image=0)  # 0 is no root of x^2 - x + 1
    with pytest.raises(InternalInconsistency):
        _SplitLocal(wrong, 8)


# ---------------------------------------------------------------------------
# property: predicate == oracle on a = 0 spaces at odd places


def _property_places():
    # inert places stay below 60: the predicate's characters there enumerate F_{p^2}
    out = []
    for D in SUPPORTED_DISCS:
        F = make_field(D)
        for p in sympy.primerange(3, 10**4):
            for pl in places_above(p, F):
                if pl.kind is PlaceKind.SPLIT or (pl.kind is PlaceKind.INERT and p < 60):
                    out.append((F, pl))
    return out


_PROPERTY_PLACES = _property_places()
_coord = st.integers(-60, 60)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    st.sampled_from(_PROPERTY_PLACES),
    _coord, _coord, st.integers(0, 3),
    _coord, _coord, st.integers(0, 3),
)
def test_predicate_matches_oracle_on_unit_uniformiser_products(where, a1, b1, e1, a2, b2, e2):
    F, pl = where
    u1, u2 = ql(a1, b1, F), ql(a2, b2, F)
    assume(not u1.is_zero and not u2.is_zero)
    assume(val_unit(u1, pl, F)[0] == 0 and val_unit(u2, pl, F)[0] == 0)
    s = HomSpace.make(u1 * pl.pi**e1, u2 * pl.pi**e2, F)
    pred = predicate_odd_place(s, pl)
    orc = oracle_search(s, pl)
    assert orc.tag is not VerdictTag.Unknown, orc.reason
    assert pred.tag is orc.tag, (F.D, str(pl), str(s.b1), str(s.b2), pred.reason, orc.reason)


# ---------------------------------------------------------------------------
# valuation gaps: coefficients whose valuations differ


@pytest.mark.parametrize("D,p,pi", [(-19, 191, (6, 5)), (-67, 173, (13, -1))])
def test_oracle_decides_a_valuation_gap_in_one_depth(monkeypatch, D, p, pi):
    # b1 a nonsquare unit and b2 = pi^3 (times a unit): f(x) = b1 x^4 + b2
    # keeps the valuation 3 of b2 on x in pi O, so a kernel that waits for
    # depth nu(f) + 1 refines about q^3 classes; the Taylor bound 4j + nu(c4)
    # decides them at depth 1, so a search evaluates f at most on the q
    # classes mod pi and the root class in each chart; b1 = u^2 is the
    # solvable control
    F = make_field(D)
    pl = next(pl for pl in places_above(p, F) if (pl.pi.a, pl.pi.b) == pi)
    assert pl.kind is PlaceKind.SPLIT
    u = next(F.of(n) for n in range(2, 50) if _chi_unit(F.of(n), pl) == -1)
    count = [0]

    def counted(self, c4, c2, c0, _quartic=_SplitLocal.quartic):
        f = _quartic(self, c4, c2, c0)

        def f_counted(x):
            count[0] += 1
            return f(x)

        return f_counted

    monkeypatch.setattr(_SplitLocal, "quartic", counted)
    for b1, b2 in ((u, pl.pi**3), (pl.pi**3, u), (u, u * pl.pi**3), (u * u, pl.pi**3)):
        s = HomSpace.make(b1, b2, F)
        count[0] = 0
        orc = oracle_search(s, pl)
        assert orc.tag is predicate_odd_place(s, pl).tag, (str(b1), str(b2), orc.reason)
        assert count[0] <= 2 * (p + 1), (str(b1), str(b2), count[0])


@pytest.mark.parametrize("e", range(19, 25))
def test_oracle_gap_past_the_working_precision(e):
    # at the split 7 of Q(sqrt(-3)) the first pass computes mod 7^20, so the
    # class 0 mod 7^j of the chart 3x^4 + 7^e keeps a value that vanishes
    # there; it stays live until the second pass pins it (P is capped at M)
    pl = _place(7, F3)
    assert _chi_unit(F3.of(3), pl) == -1
    s = HomSpace.make(3, 7**e, F3)
    orc = oracle_search(s, pl)
    assert orc.tag is predicate_odd_place(s, pl).tag, (e, orc.reason)
    assert orc.tag is (VerdictTag.Solvable if e % 2 == 0 else VerdictTag.Insolvable)


def test_ramified_cube_coefficients_match_the_oracle():
    # b = +-1331 = +-11^3 on D = -11: the ramified prime to exponent 3, with
    # valuation gaps of up to 6 at the ramified place
    F = F11
    checked = 0
    for b in (1331, -1331):
        spec = CurveSpec(b, F)
        places = bad_places(spec.odd_primes, F)
        assert [pl.kind for pl in places] == [PlaceKind.TWO_ADIC, PlaceKind.RAMIFIED]
        for side in (Side.PHI, Side.PHIHAT):
            for s in selmer_candidates(spec, side):
                for pl in places:
                    if pl.kind is PlaceKind.TWO_ADIC:
                        pred = predicate_two_adic(s, F)
                    else:
                        pred = predicate_odd_place(s, pl)
                    orc = oracle_search(s, pl)
                    assert orc.tag is not VerdictTag.Unknown, (b, str(s.b1), str(pl), orc.reason)
                    assert pred.tag is orc.tag, (b, str(s.b1), str(s.b2), str(pl), pred.reason, orc.reason)
                    checked += 1
    assert checked == 64


# ---------------------------------------------------------------------------
# pipeline wrapper


def test_charpoly_tables_match_decision_procedure():
    """The residue tables for cube pairs agree with the 2-adic procedure.

    Domain: exact Z[zeta] unit pairs (c0 + c1*zeta, d0 + d1*zeta) with
    0 <= c, d < 16 whose exact product is rational, covering the equal-
    valuation, gap-two, and odd-valuation configurations.
    """
    import itertools

    from iqselmer.residue2adic import (
        R8Elem,
        is_square_unit_mod8,
        is_unit_pair,
        pair_charpoly_mod8,
        zadd,
        zmul,
    )

    T2A = {(6, 1), (0, 3), (2, 5), (4, 7)}
    T2B = {(0, 3), (4, 3), (0, 7), (4, 7)}
    T3B = {(2, 1), (4, 3), (6, 5), (0, 7)}
    T4 = {(2, 1), (0, 3), (2, 5), (0, 7)}

    def lift(pair):
        c0, c1 = pair
        return QuadInt((c0 - c1) % 32, c1 % 32, F3.omega_norm)

    def charpoly_ts(p1, p2):
        # an irrational t or s never matches the (rational) tables
        cp = pair_charpoly_mod8(R8Elem(*p1), R8Elem(*p2), "-")
        t = cp.t.c0 if cp.t.c1 == 0 else (cp.t.c0, cp.t.c1)
        s = cp.s.c0 if cp.s.c1 == 0 else (cp.s.c0, cp.s.c1)
        return (t, s)

    domain = []
    for c0, c1, d0, d1 in itertools.product(range(16), repeat=4):
        if not is_unit_pair((c0, c1)) or not is_unit_pair((d0, d1)):
            continue
        if c0 * d1 + c1 * d0 - c1 * d1 != 0:
            continue
        domain.append(((c0, c1), (d0, d1)))
    assert len(domain) > 300

    for p1, p2 in domain:
        b1, b2 = lift(p1), lift(p2)
        case1 = is_square_unit_mod8(p1) or is_square_unit_mod8(p2)
        irr1, irr2 = p1[1] % 8 != 0, p2[1] % 8 != 0

        # equal even valuations
        lhs = predicate_two_adic(HomSpace.make(b1, b2, F3), F3).tag is VerdictTag.Solvable
        rhs = case1
        if not rhs:
            ts = charpoly_ts(p1, p2)
            if ((p1[0] - p1[1]) % 8, (-p1[1]) % 8) == (p2[0] % 8, p2[1] % 8):
                rhs = ts in T2A
            if zadd(p1, p2, 16)[1] % 16 == 0 and zmul(p1, p2, 32)[1] % 32 == 0:
                rhs = rhs or ts in T2B
        assert lhs == rhs, ("equal", p1, p2)

        # valuation gap two
        lhs = predicate_two_adic(HomSpace.make(b1, b2 * 4, F3), F3).tag is VerdictTag.Solvable
        rhs = case1
        if not rhs and irr1 and irr2:
            rhs = charpoly_ts(p1, p2) in T3B
        assert lhs == rhs, ("gap2", p1, p2)

        # equal odd valuations
        lhs = predicate_two_adic(HomSpace.make(b1 * 2, b2 * 2, F3), F3).tag is VerdictTag.Solvable
        if not irr1 and not irr2:
            rhs = (p1[0] + p2[0]) % 8 in (0, 2)
        else:
            rhs = zmul(p1, p2, 32)[1] % 32 == 0 and charpoly_ts(p1, p2) in T4
        assert lhs == rhs, ("odd", p1, p2)


def test_everywhere_solvable_examples():
    # torsion pairs always pass
    for b in (17, -5, 13):
        cands = selmer_candidates(CurveSpec(b, F3), Side.PHIHAT)
        tors = [c for c in cands if c.torsion and not c.b1.is_unit()]
        for s in tors:
            assert all_solvable(everywhere_verdicts(s, F3, bad_places(s, F3)))

    # the (-1, 68) member of the b = 17 descent is everywhere solvable
    cands = selmer_candidates(CurveSpec(17, F3), Side.PHI)
    s = next(c for c in cands if c.b1 == F3.of(-1))
    assert all_solvable(everywhere_verdicts(s, F3, bad_places(s, F3)))

    # residue-5 pattern: (2b_i, -2p_i) with b = b_i*p_i = 5 mod 8 fails at 2
    s = HomSpace.make(2, -10, F3)
    assert not all_solvable(everywhere_verdicts(s, F3, bad_places(s, F3)))


def test_bad_places_cover_divisors():
    pls = bad_places((17, 3, 5), F3)
    assert pls[0].kind is PlaceKind.TWO_ADIC
    assert [pl.p for pl in pls] == [2, 3, 5, 17]
    # a lone space stands for the odd primes of N(b1*b2)
    assert bad_places(HomSpace.make(17, -4 * 15, F3), F3) == pls


def test_everywhere_verdicts_rejects_a_middle_term():
    s = HomSpace.make(1, -4 * 17, F3, a=2)
    with pytest.raises(DomainError):
        everywhere_verdicts(s, F3, bad_places(s, F3))


def test_everywhere_verdicts_reasons():
    s = HomSpace.make(1, -4 * 17, F3)
    vs = everywhere_verdicts(s, F3, bad_places(s, F3))
    assert all(v.tag is VerdictTag.Solvable for _, v in vs)
    assert any(v.reason.startswith("two:") for _, v in vs)
    assert any(v.reason.startswith("odd:") for _, v in vs)
