"""Exact-arithmetic toolkit for the six Painlevé families.

Classifies every equation in the families (Morley rank/degree, strong
minimality, stratum, component structure, algebraic-solution counts),
decides transformation-orbit and orthogonality relations between equations,
and machine-verifies the underlying symbolic identities both symbolically
and numerically.
"""

from .catalog import EquationId, Family
from .classify import ClassificationReport, classify, stratum
from .exactnum import ParamValue, TriBool, parse_param

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "cross_family_verdict":
        from . import ortho

        return ortho.cross_family_verdict
    if name in ("generator_word", "orbit_decide"):
        from . import weyl

        return getattr(weyl, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClassificationReport",
    "EquationId",
    "Family",
    "ParamValue",
    "TriBool",
    "classify",
    "cross_family_verdict",
    "generator_word",
    "orbit_decide",
    "parse_param",
    "stratum",
    "__version__",
]
