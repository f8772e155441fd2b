"""The congruent number problem over the quadratic field.

A positive squarefree n is congruent over a field exactly when the curve
E_n: y^2 = x^3 - n^2 x has a point of infinite order.  Classical congruence
criteria settle non-congruence over Q for certain shapes of n; over K an odd
2-Selmer rank forces positive rank provided the 2-primary part of Sha is
finite, so such n become congruent conditionally.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .descent import closed_form_rank
from .errors import InternalInconsistency, NotSquarefree
from .quadfield import (
    FieldCtx,
    PlaceKind,
    curve_spec,
    legendre_symbol,
    splitting_type,
    squarefree_factors,
)

SHA_HYPOTHESIS = "Sha(E_n/K)[2^∞] finite"


class Criterion(Enum):
    GENOCCHI = "Genocchi"
    BASTIEN = "Bastien"
    LAGRANGE = "Lagrange"


class QStatus(Enum):
    NOT_CONGRUENT = "NotCongruentQ"
    UNKNOWN = "UnknownQ"


class KStatus(Enum):
    CONDITIONAL_CONGRUENT = "CongruentConditionalK"
    UNDETERMINED = "UndeterminedK"
    INAPPLICABLE = "Inapplicable"


@dataclass(frozen=True)
class CongruentVerdict:
    n: int
    q_status: QStatus
    q_criterion: Criterion | None
    k_status: KStatus
    k_reason: str | None
    sel_rank: int | None
    k: int | None

    @property
    def conditional_on(self) -> str | None:
        if self.k_status is KStatus.CONDITIONAL_CONGRUENT:
            return SHA_HYPOTHESIS
        return None

    def __str__(self) -> str:
        q = self.q_status.value
        if self.q_criterion is not None:
            q = f"{q}({self.q_criterion.value})"
        k = self.k_status.value
        if self.k_status is KStatus.CONDITIONAL_CONGRUENT:
            k = f"{k} assuming {SHA_HYPOTHESIS}"
        if self.k_reason:
            k = f"{k}: {self.k_reason}"
        tail = "" if self.sel_rank is None else f", Selmer rank {self.sel_rank}"
        return f"n={self.n}: {q}, {k}{tail}"


def _checked_squarefree(n: int) -> dict[int, int]:
    fac = squarefree_factors(n)
    if fac is None:
        raise NotSquarefree(
            f"n must be a positive squarefree integer, got {n}" if n < 1 else f"{n} is not squarefree"
        )
    return fac


def q_noncongruence(n: int) -> tuple[QStatus, Criterion | None]:
    """Classical non-congruence criteria over Q, chronological precedence."""
    fac = _checked_squarefree(n)
    if n % 2 == 0:
        odd = sorted(p for p in fac if p != 2)
        if len(odd) == 1:
            (p,) = odd
            if p % 8 == 5:
                return QStatus.NOT_CONGRUENT, Criterion.GENOCCHI
            if p % 16 == 9:
                return QStatus.NOT_CONGRUENT, Criterion.BASTIEN
        elif len(odd) == 2:
            p, q = odd
            if p % 8 == 5 and q % 8 == 5:
                return QStatus.NOT_CONGRUENT, Criterion.GENOCCHI
            for x, y in ((p, q), (q, p)):
                if x % 8 == 1 and y % 8 == 5 and legendre_symbol(x, y) == -1:
                    return QStatus.NOT_CONGRUENT, Criterion.LAGRANGE
    return QStatus.UNKNOWN, None


def rank_formula_obstruction(n: int, fac: dict[int, int], F: FieldCtx) -> str | None:
    """Why the Selmer rank formula for E_n over K does not apply, or None.

    n is squarefree with prime factorization fac; the formula needs
    gcd(n, D) = 1 and every odd prime factor of n inert in K.
    """
    g = gcd(n, abs(F.D))
    if g != 1:
        return f"gcd(n, {abs(F.D)}) = {g} > 1"
    for p in sorted(fac):
        if p == 2:
            continue
        kind = splitting_type(p, F).kind
        if kind is not PlaceKind.INERT:
            return f"{p} {kind.value}s in Q(sqrt({F.D}))"
    return None


def k_congruence(n: int, F: FieldCtx) -> tuple[KStatus, str | None, int | None, int | None]:
    """Conditional congruence of n over K = Q(sqrt(D)).

    Returns (status, reason, sel_rank, k).  The Selmer rank of E_n over K is
    2k for odd n and 2k-1 for even n when rank_formula_obstruction finds
    none; odd rank makes n congruent over K whenever the 2-primary part of
    Sha(E_n/K) is finite.
    """
    fac = _checked_squarefree(n)
    reason = rank_formula_obstruction(n, fac, F)
    if reason is not None:
        return KStatus.INAPPLICABLE, reason, None, None
    k = len(fac)
    sel_rank = 2 * k - 1 if n % 2 == 0 else 2 * k
    # same rank via the general closed form for b = -n^2 (shape detection check)
    general = closed_form_rank(curve_spec(-n * n, F))
    if general != sel_rank:
        raise InternalInconsistency(
            f"n={n}: Selmer rank {sel_rank} from the factor count, {general} from the closed form"
        )
    if sel_rank % 2 == 1:
        return KStatus.CONDITIONAL_CONGRUENT, None, sel_rank, k
    return KStatus.UNDETERMINED, None, sel_rank, k


def congruent_verdict(n: int, F: FieldCtx) -> CongruentVerdict:
    q_status, criterion = q_noncongruence(n)
    k_status, reason, sel_rank, k = k_congruence(n, F)
    return CongruentVerdict(
        n=n,
        q_status=q_status,
        q_criterion=criterion,
        k_status=k_status,
        k_reason=reason,
        sel_rank=sel_rank,
        k=k,
    )


def scan_verdicts(n_max: int, F: FieldCtx) -> tuple[CongruentVerdict, ...]:
    """Verdicts for every squarefree 1 <= n <= n_max, ascending."""
    ns = [n for n in range(1, n_max + 1) if squarefree_factors(n) is not None]
    return tuple(congruent_verdict(n, F) for n in ns)


def scan_new_congruent(n_max: int, F: FieldCtx) -> tuple[CongruentVerdict, ...]:
    """Squarefree n <= n_max not congruent over Q yet conditionally congruent over K."""
    return tuple(
        v
        for v in scan_verdicts(n_max, F)
        if v.q_status is QStatus.NOT_CONGRUENT
        and v.k_status is KStatus.CONDITIONAL_CONGRUENT
    )
