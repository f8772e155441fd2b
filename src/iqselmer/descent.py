"""Descent through the degree-2 isogeny pair for y^2 = x^3 + b*x.

The curve E: y^2 = x^3 + b*x and its partner E': y^2 = x^3 - 4*b*x are
connected by dual isogenies; the classes (b1, b2) with b1*b2 = -4b measure
one direction and those with b1*b2 = b the other.  Each class is the
HomSpace v^2 = b1*u^4 + b2*w^4; the everywhere-locally solvable ones form
two F_2-vector spaces whose dimensions combine into the 2-Selmer rank, and
their bases are returned as the spaces themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InternalInconsistency
from .localsolve import all_solvable, bad_places, everywhere_verdicts
from .quadfield import (
    CurveSpec,
    HomSpace,
    PlaceKind,
    Side,
    selmer_candidates,
    splitting_type,
    trace_character,
)


@dataclass(frozen=True)
class SelmerReport:
    b: int
    D: int
    dim_phi: int
    dim_phihat: int
    gens_phi: tuple[HomSpace, ...]
    gens_phihat: tuple[HomSpace, ...]
    sel_rank2: int
    torsion_full: bool
    # sorted reasons of every local verdict that decided a candidate, both sides
    cases_fired: tuple[str, ...]


def _rref_basis(masks: set[int]) -> list[int]:
    """Reduced-echelon basis of a set of F_2 vectors (canonical for the span)."""
    pivots: dict[int, int] = {}  # leading bit -> vector
    for m in sorted(masks):
        r = m
        for lead in sorted(pivots, reverse=True):
            if r >> lead & 1:
                r ^= pivots[lead]
        if r:
            pivots[r.bit_length() - 1] = r
    for lead in sorted(pivots):
        for other in pivots:
            if other > lead and pivots[other] >> lead & 1:
                pivots[other] ^= pivots[lead]
    return [pivots[lead] for lead in sorted(pivots)]


def selmer_group(
    spec: CurveSpec, side: Side
) -> tuple[int, tuple[HomSpace, ...], frozenset[str]]:
    """F_2-dimension and a canonical basis of the solvable classes, with the
    reasons of the local verdicts that decided the candidates."""
    F = spec.F
    spaces = selmer_candidates(spec, side)
    places = bad_places(spec.odd_primes, F)  # those of every candidate

    masks: set[int] = set()
    reasons: set[str] = set()
    for s in spaces:
        verdicts = everywhere_verdicts(s, F, places)
        reasons.update(v.reason for _, v in verdicts if v.reason)
        if all_solvable(verdicts):
            masks.add(s.mask)

    # self-checks that a predicate bug would break; raised, so python -O keeps them
    torsion_masks = {s.mask for s in spaces if s.torsion}
    if not torsion_masks <= masks:
        raise InternalInconsistency("torsion classes must be locally solvable")
    # masks lies in the span of its basis, so it is a subgroup under
    # multiplication modulo squares (closed under xor) iff it fills the span
    basis = _rref_basis(masks)
    dim = len(basis)
    if len(masks) != 1 << dim:
        raise InternalInconsistency(f"classes not closed: {len(masks)} solvable classes span 2^{dim}")
    # spaces is in mask order, so spaces[v] is the class of v's generators
    return dim, tuple(spaces[v] for v in basis), frozenset(reasons)


def full_two_torsion(b: int, D: int) -> bool:
    """Whether x^3 + b*x splits completely over Q(sqrt(D)): -b a square in K."""
    if b < 0 and isqrt(-b) ** 2 == -b:
        return True
    return b > 0 and isqrt(b * abs(D)) ** 2 == b * abs(D)


def selmer_rank2(spec: CurveSpec) -> SelmerReport:
    dim_phi, gens_phi, cases_phi = selmer_group(spec, Side.PHI)
    dim_phihat, gens_phihat, cases_phihat = selmer_group(spec, Side.PHIHAT)
    # one dimension per side is torsion bookkeeping, never rank
    rank = dim_phi + dim_phihat - 2
    if rank < 0:
        raise InternalInconsistency(
            f"negative Selmer rank {rank} for b={spec.b}, D={spec.F.D}"
        )
    return SelmerReport(
        b=spec.b,
        D=spec.F.D,
        dim_phi=dim_phi,
        dim_phihat=dim_phihat,
        gens_phi=gens_phi,
        gens_phihat=gens_phihat,
        sel_rank2=rank,
        torsion_full=full_two_torsion(spec.b, spec.F.D),
        cases_fired=tuple(sorted(cases_phi | cases_phihat)),
    )


def closed_form_rank(spec: CurveSpec) -> int | None:
    """Rank by the congruence formulas, when b has a covered shape.

    Covered shapes: +/- a product of distinct odd inert primes; +/- p with
    p an odd split prime; -n^2 with n squarefree, odd factors inert,
    gcd(n, D) = 1.  Returns None otherwise.  Reads the shape from the
    factorization in spec.
    """
    b, F, factors = spec.b, spec.F, spec.factors
    kinds = [splitting_type(p, F).kind for p in spec.odd_primes]
    exponents = {e for _, e in factors}
    all_inert = all(k is PlaceKind.INERT for k in kinds)

    if factors and b % 2 == 1 and exponents == {1} and all_inert:
        n = len(factors)
        if b % 8 == 1:
            return 2 * n + 1
        if b % 4 == 3:
            return 2 * n
        return 2 * n - 1  # b = 5 mod 8

    if b % 2 == 1 and len(factors) == 1 and exponents == {1} and kinds == [PlaceKind.SPLIT]:
        p, t = abs(b), trace_character(splitting_type(abs(b), F))
        if b < 0:
            if p % 8 == 1:
                return 3 + t
            return 2 if p % 8 == 5 else 1
        if p % 8 == 1:
            return 4 + t
        return 2 + t if p % 8 == 5 else 2

    # b = -n^2 with n squarefree: every exponent is 2; the one ramified
    # prime |D| is not inert, so all_inert also gives gcd(n, D) = 1
    if b < 0 and exponents <= {2} and all_inert:
        k = len(factors)
        return 2 * k if b % 2 else 2 * k - 1

    return None
