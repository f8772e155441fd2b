"""2-isogeny descent and 2-Selmer ranks of y^2 = x^3 + bx over the six
imaginary quadratic fields Q(sqrt(D)), D in {-3,-11,-19,-43,-67,-163}."""
from __future__ import annotations

from .errors import (
    DomainError,
    EvenPlace,
    InternalInconsistency,
    InvalidModulus,
    NotSplit,
    NotSquarefree,
    UnknownVerdict,
    UnsupportedField,
    ZeroCoefficient,
)
from .quadfield import (
    SUPPORTED_DISCS,
    CurveSpec,
    FieldCtx,
    Place,
    PlaceKind,
    QuadInt,
    Side,
    SplitData,
    curve_spec,
    legendre_symbol,
    make_field,
    places_above,
    selmer_candidates,
    splitting_type,
    trace_character,
)

__version__ = "0.1.0"
