"""Exception hierarchy shared across the package.

Everything user-facing derives from DomainError so the CLI can map any
domain failure to exit code 1 with a structured report.
"""
from __future__ import annotations


class DomainError(Exception):
    """Base class for all anticipated domain failures."""


class UnsupportedField(DomainError):
    """Discriminant outside the six supported fields."""


class InvalidModulus(DomainError):
    """Modulus passed to a residue computation is not an odd prime (power)."""


class NotSplit(DomainError):
    """Operation requires a split prime."""


class NotSquarefree(DomainError):
    """Congruent-number routines require squarefree n."""


class EvenPlace(DomainError):
    """Odd-place predicate called at residue characteristic 2."""


class ZeroCoefficient(DomainError):
    """A coefficient that must be nonzero vanished."""


class UnknownVerdict(DomainError):
    """A tri-state verdict was Unknown where a boolean answer is required."""


class InternalInconsistency(DomainError):
    """A cross-check that should be impossible to violate failed; never clamped."""
