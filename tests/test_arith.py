"""Exact integer arithmetic against sympy, the reference it replaces."""
from __future__ import annotations

import random
from itertools import product

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from iqselmer import arith
from iqselmer.errors import InternalInconsistency
from iqselmer.quadfield import make_field, splitting_type

# the least strong pseudoprimes to the prime bases 2; 2..7; 2..23; 2..37; 2..41
# (the last is PROVEN_BOUND, where isprime hands over to sympy)
PSEUDOPRIMES = (
    2047,
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    arith.PROVEN_BOUND,
)


def test_factorint_every_n_up_to_1e5():
    for n in range(-30, 100_001):
        assert arith.factorint(n) == sympy.factorint(n), n


def test_factorint_random_n_below_1e22():
    rng = random.Random(20170101)
    for _ in range(300):
        n = rng.randrange(2, 10**22)
        assert arith.factorint(n) == sympy.factorint(n), n


def test_factorint_keeps_primes_ascending():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(-(10**18), 10**18)
        keys = list(arith.factorint(n))
        assert keys == sorted(keys), n


def test_factorint_rho_on_prime_powers_and_semiprimes():
    # cofactors past the trial bound: squares and cubes of primes, and
    # products of two primes of about 10^6 and 10^9
    for n in (1009**2, 1013**3 * 7, 999983 * 1000003, 999999937 * 1000000007, 2**61 - 1):
        assert arith.factorint(n) == sympy.factorint(n), n


@pytest.mark.parametrize("offset", [-3, -2, -1, 0, 1, 2, 3])
def test_factorint_and_isprime_across_the_proven_bound(offset):
    n = arith.PROVEN_BOUND + offset
    assert arith.factorint(n) == sympy.factorint(n)
    assert arith.isprime(n) == sympy.isprime(n)


def test_isprime_every_n_below_3e5():
    for n in range(-5, 300_000):
        assert arith.isprime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_isprime_rejects_strong_pseudoprimes(n):
    assert not arith.isprime(n)
    assert not sympy.isprime(n)


def test_isprime_large_primes():
    for p in (2**61 - 1, 2**64 - 59, 10**21 + 117, sympy.prevprime(arith.PROVEN_BOUND)):
        assert arith.isprime(p), p
        assert arith.isprime(p * 3) is False


def test_sqrt_mod_matches_sympy_root():
    for p in sympy.primerange(3, 400):
        for a in range(-p, 2 * p):
            assert arith.sqrt_mod(a, p) == sympy.ntheory.sqrt_mod(a, p), (a, p)


def test_primes_upto_matches_primerange():
    for n in (-1, 0, 1, 2, 3, 4, 24, 25, 1000, 1021, 32768, 32771, 70_000, 200_003):
        assert list(arith.primes_upto(n)) == list(sympy.primerange(0, n + 1)), n


def _gf_irreducible(f: tuple[int, ...], p: int) -> bool:
    return bool(gf_irreducible_p(list(f), p, ZZ))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_is_irreducible_every_monic_of_degree_2_to_4(p):
    for k in (2, 3, 4):
        for tail in product(range(p), repeat=k):
            f = (1, *tail)
            assert arith.is_irreducible(f, p) == _gf_irreducible(f, p), (f, p)


def test_is_irreducible_every_monic_quadratic_below_50():
    for p in sympy.primerange(2, 50):
        for tail in product(range(p), repeat=2):
            f = (1, *tail)
            assert arith.is_irreducible(f, p) == _gf_irreducible(f, p), (f, p)


def test_split_prime_without_square_root_raises(monkeypatch):
    # python -O drops asserts; tests/test_descent.py runs this case under -O too
    monkeypatch.setattr(arith, "sqrt_mod", lambda a, p: None)
    with pytest.raises(InternalInconsistency):
        splitting_type.__wrapped__(31, make_field(-3))  # 31 splits in Q(sqrt(-3))
