"""The displayed ODE systems, as exact differential-polynomial right-hand
sides built once at import, and the order-one Riccati locus of the second
family."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .catalog import PIV_SCALAR_NOTE, Family, UnsupportedFamilyError, family_space
from .diffpoly import DiffExpr, RelationSet, Var, jet, relations_for_system, sym

_T = DiffExpr.t()


def _state(name: str) -> DiffExpr:
    return DiffExpr.var(jet(name, 0))


def _param(name: str) -> DiffExpr:
    return DiffExpr.var(sym(name))


class OdeSystem(namedtuple(
    "OdeSystem", "family form state_vars order rhs param_names singular_t notes", defaults=((), ())
)):
    """Exact symbolic right-hand sides for one chart of a family.

    ``form`` is "scalar", "system" or "QP".  ``order == 1`` systems store
    one rhs per state variable (x' = rhs); ``order == 2`` scalars store the
    single rhs for the top derivative.
    """

    __slots__ = ()

    def relations(self) -> RelationSet:
        return relations_for_system(self.state_vars, self.order, self.rhs)


PI_FORM_NOTE = (
    "literature-standard form, included so the family enumeration is total;"
    " it is not among the verified source displays"
)


def _build_pi() -> OdeSystem:
    y = _state("y")
    return OdeSystem(
        family=Family.PI,
        form="scalar",
        state_vars=("y",),
        order=2,
        rhs=(6 * y.power(2) + _T,),
        param_names=(),
        notes=(PI_FORM_NOTE,),
    )


def _build_pii() -> OdeSystem:
    y = _state("y")
    alpha = _param("alpha")
    return OdeSystem(
        family=Family.PII,
        form="scalar",
        state_vars=("y",),
        order=2,
        rhs=(2 * y.power(3) + _T * y + alpha,),
        param_names=("alpha",),
    )


def _build_piii() -> OdeSystem:
    q, p = _state("q"), _state("p")
    v1, v2 = _param("v1"), _param("v2")
    rhs_q = (2 * q.power(2) * p - q.power(2) - v1 * q + _T) / _T
    rhs_p = (-2 * q * p.power(2) + 2 * q * p - v1 * p + Fraction(1, 2) * (v1 + v2)) / _T
    return OdeSystem(
        family=Family.PIII,
        form="system",
        state_vars=("q", "p"),
        order=1,
        rhs=(rhs_q, rhs_p),
        param_names=("v1", "v2"),
        singular_t=(Fraction(0),),
    )


def _build_piv_system() -> OdeSystem:
    q, p = _state("q"), _state("p")
    v1, v2, v3 = _param("v1"), _param("v2"), _param("v3")
    rhs_q = 2 * p * q - q.power(2) - 2 * _T * q + 2 * (v1 - v2)
    rhs_p = 2 * p * q - p.power(2) + 2 * _T * p + 2 * (v1 - v3)
    return OdeSystem(
        family=Family.PIV,
        form="system",
        state_vars=("q", "p"),
        order=1,
        rhs=(rhs_q, rhs_p),
        param_names=("v1", "v2", "v3"),
    )


def _build_piv_scalar() -> OdeSystem:
    y = _state("y")
    y1 = DiffExpr.var(jet("y", 1))
    alpha, beta = _param("alpha"), _param("beta")
    rhs = (
        y1.power(2) / (2 * y)
        + Fraction(3, 2) * y.power(3)
        + 4 * _T * y.power(2)
        + 2 * (_T.power(2) - alpha) * y
        + beta / y
    )
    return OdeSystem(
        family=Family.PIV,
        form="scalar",
        state_vars=("y",),
        order=2,
        rhs=(rhs,),
        param_names=("alpha", "beta"),
        notes=(PIV_SCALAR_NOTE,),
    )


def _build_pv_qp() -> OdeSystem:
    q, p = _state("q"), _state("p")
    v1, v2, v3, v4 = (_param(f"v{i}") for i in range(1, 5))
    c = v1 - v2 - v3 + v4
    rhs_q = (
        2 * q.power(2) * p - 2 * q * p + _T * q.power(2) - _T * q + c * q + v2 - v1
    ) / _T
    rhs_p = (
        -2 * q * p.power(2) + p.power(2) - 2 * _T * p * q + _T * p - c * p + (v3 - v1) * _T
    ) / _T
    return OdeSystem(
        family=Family.PV,
        form="system",
        state_vars=("q", "p"),
        order=1,
        rhs=(rhs_q, rhs_p),
        param_names=("v1", "v2", "v3", "v4"),
        singular_t=(Fraction(0),),
    )


def _build_pv_QP() -> OdeSystem:
    Q, P = _state("Q"), _state("P")
    v1, v2, v3, v4 = (_param(f"v{i}") for i in range(1, 5))
    one = DiffExpr.const(1)
    rhs_Q = (
        2 * Q * (Q - one).power(2) * P
        + (3 * v1 + v2) * Q.power(2)
        - (_T + 4 * v1) * Q
        + v1
        - v2
    ) / _T
    rhs_P = (
        (-3 * Q.power(2) + 4 * Q - one) * P.power(2)
        - 2 * (3 * v1 + v2) * Q * P
        + (_T + 4 * v1) * P
        - (v3 - v1) * (v4 - v1)
    ) / _T
    return OdeSystem(
        family=Family.PV,
        form="QP",
        state_vars=("Q", "P"),
        order=1,
        rhs=(rhs_Q, rhs_P),
        param_names=("v1", "v2", "v3", "v4"),
        singular_t=(Fraction(0),),
    )


_SYSTEMS: dict[tuple[Family, str], OdeSystem] = {(s.family, s.form): s for s in (
    _build_pi(), _build_pii(), _build_piii(), _build_piv_system(), _build_piv_scalar(), _build_pv_qp(), _build_pv_QP(),
)}


def ode_system(family: Family, form: str | None = None) -> OdeSystem:
    """The exact symbolic system for a family.

    ``form`` selects a chart where more than one is cataloged: the fourth
    family has "system" (default) and "scalar"; the fifth has "system"
    (the (q, p) chart, default) and "QP".  The sixth family is rejected:
    it is classification-only here.
    """
    default_form = family_space(family).default_form
    if default_form is None:
        raise UnsupportedFamilyError("no explicit equation is cataloged for the sixth family")
    form = form or default_form
    try:
        return _SYSTEMS[(family, form)]
    except KeyError:
        valid = sorted(f for fam, f in _SYSTEMS if fam is family)
        raise UnsupportedFamilyError(
            f"family {family.value} has no {form!r} form (available: {valid})"
        ) from None


def riccati_rules(sign: int) -> dict[Var, DiffExpr]:
    """Rewrite rule y' -> sign*(y^2 + t/2) as a relation-set seed."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    y = _state("y")
    return {jet("y", 1): sign * (y.power(2) + Fraction(1, 2) * _T)}
