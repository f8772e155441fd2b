"""Exact integer arithmetic for the small numbers iqselmer meets, with no dependencies.

Primality is Miller-Rabin with the first 13 primes as bases, which is proven
deterministic below PROVEN_BOUND = 3317044064679887385961981 (Sorenson and
Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
Factorization divides out those 13 primes, then splits what is left with
Pollard-Brent rho until isprime accepts every factor.  isprime and factorint
hand an integer at or above the bound to sympy, which is imported only then,
so a run on smaller integers never loads it.
"""
from __future__ import annotations

from itertools import product
from math import gcd, isqrt

PROVEN_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RHO_BATCH = 128  # rho steps per gcd
_SEGMENT = 1 << 15  # numbers per sieve segment


def _sieve(n: int) -> list[int]:
    """The primes p <= n, n >= 0 (sieve of Eratosthenes in one bytearray)."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = bytes(min(2, n + 1))
    for i in range(2, isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, alive in enumerate(flags) if alive]


def primes_upto(n: int):
    """The primes p <= n in ascending order.  Past sqrt(n) they are sieved one
    segment at a time as the caller iterates, so an unbounded n costs memory
    only for the primes the caller keeps."""
    root = isqrt(max(n, 0))
    small = _sieve(root)
    yield from small
    for lo in range(root + 1, n + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, n + 1)
        flags = bytearray([1]) * (hi - lo)
        for p in small:
            start = max(p * p, -(-lo // p) * p)
            flags[start - lo :: p] = bytes(len(range(start, hi, p)))
        yield from (lo + i for i, alive in enumerate(flags) if alive)


def isprime(n: int) -> bool:
    """Whether the integer n is prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # composites below 43^2 have a prime factor up to 41
        return True
    if n >= PROVEN_BOUND:
        import sympy

        return bool(sympy.isprime(n))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n (Brent's form of Pollard rho);
    a polynomial x^2 + c whose cycle closes on n itself is replaced by the next c."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no divisor of {n} found")


def _add_prime_factors(n: int, out: dict[int, int]) -> None:
    """Count the prime factors of n > 1, which has none up to 41, into out."""
    if isprime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _rho_divisor(n)
    _add_prime_factors(d, out)
    _add_prime_factors(n // d, out)


def factorint(n: int) -> dict[int, int]:
    """The prime factorization of n as {prime: exponent}, primes ascending,
    in sympy's shape: {} for 1, {0: 1} for 0, and -1: 1 first for n < 0."""
    out: dict[int, int] = {}
    if n < 0:
        out[-1] = 1
        n = -n
    if n == 0:
        return {0: 1}
    if n >= PROVEN_BOUND:
        import sympy

        out.update(sorted(sympy.factorint(n).items()))
        return out
    for p in _MR_BASES:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out[p] = e
    if n > 1:
        big: dict[int, int] = {}
        _add_prime_factors(n, big)
        out.update(sorted(big.items()))
    return out


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None if a is a nonresidue.

    Of the roots r and p - r the one <= p // 2 is returned (0 for a = 0 mod p),
    so the answer does not depend on how it was found (Tonelli-Shanks here).
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def _divides(g: tuple[int, ...], f: tuple[int, ...], p: int) -> bool:
    """Whether the monic g divides f over F_p; descending coefficients."""
    rem, dg = list(f), len(g) - 1
    for i in range(len(f) - dg):
        lead = rem[i] % p
        if lead:
            for j in range(1, dg + 1):
                rem[i + j] -= lead * g[j]
    return all(x % p == 0 for x in rem[len(f) - dg :])


def is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Whether the monic f of degree 1 to 4 (descending coefficients) is
    irreducible over F_p, p prime.

    A quadratic over an odd p is irreducible iff its discriminant is a
    nonresidue; otherwise f of degree k <= 4 is reducible iff it has a monic
    divisor of degree 1 to k // 2, which is searched for.
    """
    k = len(f) - 1
    if k == 2 and p != 2:
        disc = (f[1] * f[1] - 4 * f[2]) % p
        return pow(disc, (p - 1) // 2, p) == p - 1
    return not any(
        _divides((1, *tail), f, p) for d in range(1, k // 2 + 1) for tail in product(range(p), repeat=d)
    )
