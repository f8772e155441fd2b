"""Congruent number classification over Q and over the quadratic field."""
from __future__ import annotations

import pytest
import sympy

import iqselmer.congruent
from iqselmer.congruent import (
    Criterion,
    KStatus,
    QStatus,
    SHA_HYPOTHESIS,
    congruent_verdict,
    k_congruence,
    q_noncongruence,
    scan_new_congruent,
    scan_verdicts,
)
from iqselmer.descent import selmer_rank2
from iqselmer.errors import InternalInconsistency, NotSquarefree
from iqselmer.quadfield import PlaceKind, curve_spec, legendre_symbol, make_field, splitting_type

F3 = make_field(-3)
F11 = make_field(-11)


def test_q_criteria_frozen():
    assert q_noncongruence(10) == (QStatus.NOT_CONGRUENT, Criterion.GENOCCHI)
    assert q_noncongruence(82) == (QStatus.NOT_CONGRUENT, Criterion.BASTIEN)
    # 170 = 2*5*17: 17 = 1 mod 8, 5 = 5 mod 8, (17/5) = (2/5) = -1
    assert q_noncongruence(170) == (QStatus.NOT_CONGRUENT, Criterion.LAGRANGE)
    assert q_noncongruence(6) == (QStatus.UNKNOWN, None)
    assert q_noncongruence(1) == (QStatus.UNKNOWN, None)
    assert q_noncongruence(2) == (QStatus.UNKNOWN, None)
    # 130 = 2*5*13: both 5 mod 8 -> Genocchi precedes Lagrange
    assert q_noncongruence(130) == (QStatus.NOT_CONGRUENT, Criterion.GENOCCHI)


def test_k_congruence_self_check_raises(monkeypatch):
    # the factor-count rank is checked against the general closed form
    assert k_congruence(5, F3)[2] == 2
    monkeypatch.setattr(iqselmer.congruent, "closed_form_rank", lambda spec: 3)
    with pytest.raises(InternalInconsistency):
        k_congruence(5, F3)


def test_not_squarefree():
    for bad in (12, 50, 0, -5):
        with pytest.raises(NotSquarefree):
            q_noncongruence(bad)
    with pytest.raises(NotSquarefree):
        k_congruence(18, F3)


def test_k_congruence_frozen():
    status, reason, rank, k = k_congruence(82, F3)
    assert status is KStatus.CONDITIONAL_CONGRUENT and reason is None
    assert rank == 3 and k == 2

    status, reason, rank, k = k_congruence(5, F3)
    assert status is KStatus.UNDETERMINED and rank == 2 and k == 1

    status, reason, rank, k = k_congruence(15, F3)
    assert status is KStatus.INAPPLICABLE and rank is None
    assert "gcd" in reason

    status, reason, rank, k = k_congruence(10, F11)
    assert status is KStatus.INAPPLICABLE and "5 split" in reason

    status, _, rank, k = k_congruence(1, F3)
    assert status is KStatus.UNDETERMINED and rank == 0 and k == 0

    status, _, rank, k = k_congruence(2, F3)
    assert status is KStatus.CONDITIONAL_CONGRUENT and rank == 1 and k == 1


def test_k_congruence_matches_descent_pipeline():
    for F in (F3, F11):
        checked = 0
        for n in range(1, 43):
            if any(e > 1 for e in sympy.factorint(n).values()):
                continue
            status, _, rank, _ = k_congruence(n, F)
            if status is KStatus.INAPPLICABLE:
                continue
            assert selmer_rank2(curve_spec(-n * n, F)).sel_rank2 == rank, (n, F.D)
            checked += 1
        assert checked >= 10


def test_verdict_rendering_carries_hypothesis():
    v = congruent_verdict(82, F3)
    assert v.conditional_on == SHA_HYPOTHESIS
    assert SHA_HYPOTHESIS in str(v)
    assert "Bastien" in str(v)

    v = congruent_verdict(5, F3)
    assert v.conditional_on is None
    assert "UndeterminedK" in str(v)


def test_scan_frozen_examples():
    out = scan_new_congruent(100, F3)
    ns = [v.n for v in out]
    assert 10 in ns and 82 in ns
    assert ns == sorted(ns)

    assert scan_new_congruent(5, F3) == ()

    ns11 = [v.n for v in scan_new_congruent(100, F11)]
    assert 10 not in ns11  # 5 splits in Q(sqrt(-11))


def test_scan_self_audit():
    for v in scan_new_congruent(200, F3):
        n = v.n
        assert n % 2 == 0
        assert v.sel_rank is not None and v.sel_rank % 2 == 1
        fac = sympy.factorint(n)
        assert all(e == 1 for e in fac.values())
        for p in fac:
            if p != 2:
                assert splitting_type(p, F3).kind is PlaceKind.INERT
        odd = sorted(p for p in fac if p != 2)
        crit = v.q_criterion
        if crit is Criterion.GENOCCHI:
            assert all(p % 8 == 5 for p in odd) and len(odd) in (1, 2)
        elif crit is Criterion.BASTIEN:
            assert len(odd) == 1 and odd[0] % 16 == 9
        else:
            assert crit is Criterion.LAGRANGE and len(odd) == 2
            assert any(
                x % 8 == 1 and y % 8 == 5 and legendre_symbol(x, y) == -1
                for x, y in ((odd[0], odd[1]), (odd[1], odd[0]))
            )


def test_prime_family_41_mod_48_appears():
    found = {v.n for v in scan_new_congruent(300, F3)}
    for p in (41, 89, 137):
        assert p % 48 == 41 and sympy.isprime(p)
        assert 2 * p in found


def test_scan_verdicts_cover_all_squarefree():
    out = scan_verdicts(30, F3)
    ns = [v.n for v in out]
    expected = [n for n in range(1, 31) if all(e == 1 for e in sympy.factorint(n).values())]
    assert ns == expected
