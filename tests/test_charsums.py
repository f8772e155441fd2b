"""Character existence checks and exception scans over small fields."""
from __future__ import annotations

import tracemalloc

import pytest

from iqselmer import arith
from iqselmer.charsums import (
    ResidueField,
    chi_exists,
    default_field,
    exception_scan,
)
from iqselmer.errors import DomainError, InvalidModulus, ZeroCoefficient
from iqselmer.quadfield import SUPPORTED_DISCS, legendre_symbol


def test_chi_prime_field():
    F13 = default_field(13)
    assert F13.chi(4) == 1
    assert F13.chi(5) == -1
    assert F13.chi(0) == 0
    for x in range(1, 13):
        assert F13.chi(x) == legendre_symbol(x, 13)


def test_chi_f9():
    F9 = default_field(9)
    assert F9.p == 3 and F9.k == 2 and F9.q == 9
    assert F9.chi((0, 0)) == 0
    # chi is identically 1 on the prime subfield's nonzero part
    assert F9.chi((1, 0)) == 1
    assert F9.chi((2, 0)) == 1
    # exactly (q-1)/2 = 4 nonsquares
    vals = [F9.chi(x) for x in F9.elements()]
    assert vals.count(1) == 4 and vals.count(-1) == 4 and vals.count(0) == 1


def test_prime_subfield_squares_in_quadratic_extension():
    for p in (5, 13, 17):
        F = default_field(p * p)
        for t in range(1, p):
            assert F.chi(t) == 1


def test_chi_exists_examples():
    assert chi_exists(1, 1, 2, default_field(5)) is True
    assert chi_exists(1, 2, 4, default_field(5)) is False
    assert chi_exists(1, -1, 2, default_field(3)) is False
    with pytest.raises(ZeroCoefficient):
        chi_exists(0, 1, 2, default_field(5))
    with pytest.raises(ZeroCoefficient):
        chi_exists(3, 0, 2, default_field(5))


def test_quadratic_existence_exceptions_q3():
    # degree 2 at q = 3: the single failing pair is c = 1, d = -1
    assert exception_scan(2, 3) == ((1, 2),)
    F3 = default_field(3)
    for c in (1, 2):
        for d in (1, 2):
            assert chi_exists(c, d, 2, F3) == (not (c == 1 and d == 2))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_quadratic_existence_no_exceptions_beyond_3(q):
    assert exception_scan(2, q) == ()


def test_quartic_exceptions_q5():
    assert exception_scan(4, 5) == ((1, 2), (2, 3), (3, 2), (4, 3))


@pytest.mark.parametrize("q", [7, 11, 13, 25, 27, 49])
def test_quartic_existence_no_exceptions(q):
    assert exception_scan(4, q) == ()


def test_quartic_exceptions_q9():
    # the eight genuine failures at q = 9: c = +/- d with d a nonsquare
    F9 = default_field(9)
    nonsquares = [x for x in F9.elements() if F9.chi(x) == -1]
    assert len(nonsquares) == 4
    expect = set()
    for d in nonsquares:
        expect.add((d, d))
        expect.add((F9.neg(d), d))
    got = exception_scan(4, 9)
    assert set(got) == expect
    assert len(got) == 8
    # spot-check one member end to end
    d = nonsquares[0]
    assert chi_exists(d, d, 4, F9) is False


def test_custom_quadratic_modulus():
    # z^2 - z + 1 is irreducible mod 17 (its discriminant -3 is a nonresidue)
    F = ResidueField(17, 2, modulus=(1, -1, 1))
    z = (0, 1)
    assert F.mul(z, z) == F.add(z, F.neg(F.one))  # z^2 = z - 1
    assert F.chi((3, 0)) == 1
    with pytest.raises(InvalidModulus):
        ResidueField(13, 2, modulus=(1, -1, 1))  # -3 is a square mod 13
    with pytest.raises(InvalidModulus):
        ResidueField(15)
    with pytest.raises(InvalidModulus):
        ResidueField(2)


def test_fourth_power_predicate():
    F13 = default_field(13)
    brute = {F13.pow(x, 4) for x in range(1, 13)}
    for x in range(13):
        assert F13.is_fourth_power(x) == (x in brute and x != 0)
    # q = 3 mod 4: fourth powers are exactly the squares
    F7 = default_field(7)
    for x in range(1, 7):
        assert F7.is_fourth_power(x) == (F7.chi(x) == 1)
    F27 = default_field(27)
    brute27 = {F27.pow(x, 4) for x in F27.elements() if x != F27.zero}
    fp27 = {x for x in F27.elements() if F27.is_fourth_power(x)}
    assert fp27 == brute27


def test_field_arithmetic_consistency():
    F25 = default_field(25)
    xs = list(F25.elements())
    assert len(xs) == 25
    for x in xs[3:10]:
        if x == F25.zero:
            continue
        assert F25.mul(x, F25.inv(x)) == F25.one
        assert F25.pow(x, 24) == F25.one


def test_residue_field_refuses_an_order_past_1e8():
    # F_{4019^2} (about 1.6e7 elements) is still built; F_{10007^2} and
    # F_{101^4} are refused before their square sets are enumerated
    assert ResidueField(4019, 2).q == 4019**2
    assert ResidueField(97, 4).q == 97**4
    for p, k in ((10007, 2), (101, 4), (1000000000039, 2)):
        with pytest.raises(DomainError):
            ResidueField(p, k)


def test_chi_is_euler_on_the_norm_at_every_inert_prime_below_60():
    # F_{p^2} = F_p[z]/(z^2 - z + c) as at the inert places of localsolve:
    # a + b*z has norm a^2 + ab + c*b^2, and x^((p^2-1)/2) = N(x)^((p-1)/2)
    units = 0
    for D in SUPPORTED_DISCS:
        c = (1 - D) // 4
        for p in arith.primes_upto(59):
            if p == 2 or legendre_symbol(D, p) != -1:
                continue
            F = ResidueField(p, 2, modulus=(1, -1, c))
            for a in range(p):
                for b in range(p):
                    if a or b:
                        units += 1
                        assert F.chi((a, b)) == legendre_symbol(a * a + a * b + c * b * b, p), (D, p, a, b)
    assert units == 47024


def test_chi_matches_the_enumerated_squares_below_243():
    for q in range(3, 243, 2):
        try:
            F = default_field(q)
        except InvalidModulus:
            continue  # not a prime power
        squares = {F.mul(x, x) for x in F.elements()}
        for x in F.elements():
            want = 0 if x == F.zero else (1 if x in squares else -1)
            assert F.chi(x) == want, (q, x)


def test_inert_field_keeps_a_table_not_a_set():
    # F_{211^2} as localsolve presents it over Q(sqrt(-11)): a set of its
    # squares would peak about 3.7 MB here, the q-byte table needs 45 kB
    tracemalloc.start()
    try:
        F = ResidueField(211, 2, modulus=(1, -1, 3))
        assert F.chi((1, 1)) == legendre_symbol(5, 211)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert not any(isinstance(v, (set, frozenset, dict)) for v in vars(F).values())
