"""Static definitions of the six Painlevé families.

One spec per family (parameter space and its exact linear constraint,
strata with their Morley degrees and citation keys, orbit generators,
default chart), the equation identifier, and the input errors of the
toolkit.  Everything here is immutable data, constructed once; the ODE
systems themselves are in ``odes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .citations import PVI_LDEG_AMBIGUITY, RICCATI_SIGN_NOTE, Ambiguity
from .exactnum import ParamValue, Rational


class Family(Enum):
    PI = "I"
    PII = "II"
    PIII = "III"
    PIV = "IV"
    PV = "V"
    PVI = "VI"

    @staticmethod
    def from_name(name: str) -> "Family":
        name = name.strip().upper()
        for fam in Family:
            if name in (fam.value, fam.name, f"P{fam.value}"):
                return fam
        raise UnknownFamilyError(f"unknown family {name!r}; expected one of I, II, III, IV, V, VI")


class UnknownFamilyError(ValueError):
    pass


class UnsupportedFamilyError(ValueError):
    """Raised for operations the sixth family does not support (it is
    classification-only: no explicit equation is cataloged for it)."""


class InvalidEquationError(ValueError):
    pass


class NumericInputError(ValueError):
    """A number, step, interval or initial state that integration rejects."""


class SingularIntervalError(NumericInputError):
    """The requested time interval touches a fixed singularity of the system."""


class StepBudgetError(NumericInputError):
    """The interval needs more than numint.MAX_STEPS steps of the requested size."""


class MissingAtomError(NumericInputError):
    """A symbolic atom in the parameters has no numeric assignment."""


PIV_SCALAR_NOTE = Ambiguity(
    "The displayed scalar fourth-family equation contains the term 4tq^2;"
    " q is read as a typo for y and the implemented form uses 4ty^2"
    " (dimensionally consistent with the standard fourth-family equation)."
    " The reading is surfaced here rather than silently fixed."
)


@dataclass(frozen=True)
class StratumRow:
    """One parameter stratum of a family.

    ``degree`` is the Morley degree on the stratum, or None where
    ``classify`` decides it fiber by fiber.  ``stratum_key`` cites the
    stratum verdict; ``degree_keys[0]`` cites the degree verdict and the
    rest are its supporting statements.  ``note`` goes with every fiber in
    the stratum.
    """

    label: str
    degree: int | None
    stratum_key: str
    degree_keys: tuple[str, ...]
    note: str | None = None


@dataclass(frozen=True)
class FamilySpec:
    """Everything the toolkit tabulates per family.

    ``default_form`` is the ODE chart used when none is named (None: no
    equation is cataloged).  ``orbit_generators`` generate the orbit group;
    for the fourth family tminus is auxiliary only (it defines s0 but is not
    itself a member of the orbit group H).  ``backlund_key`` and
    ``same_family_question_key`` cite the family's transformation group and
    its open same-family question.  ``strata`` lists the strata deepest
    first, and ``notes`` go with every classification of the family.
    """

    family: Family
    arity: int
    sum_zero: bool
    default_form: str | None
    orbit_generators: tuple[str, ...]
    backlund_key: str
    same_family_question_key: str | None
    strata: tuple[StratumRow, ...]
    notes: tuple[str, ...] = ()

    @property
    def dimension(self) -> int:
        """Dimension of the parameter space; a parameter tuple is generic
        when its transcendence degree reaches it."""
        return self.arity - self.sum_zero

    def row(self, label: str) -> StratumRow:
        return next(r for r in self.strata if r.label == label)


_SPECS = {
    spec.family: spec
    for spec in (
        FamilySpec(
            Family.PI, arity=0, sum_zero=False, default_form="scalar",
            orbit_generators=(), backlund_key="backlund_maps", same_family_question_key=None,
            strata=(StratumRow("generic", 1, "generic_sm_trivial", ("generic_sm_trivial",)),),
        ),
        FamilySpec(
            Family.PII, arity=1, sum_zero=False, default_form="scalar",
            orbit_generators=("reflect", "shift_up", "shift_down"),
            backlund_key="pii_backlund", same_family_question_key="q_ortho2",
            strata=(
                StratumRow(
                    "half-integer", 2, "pii_halfinteger_backlund",
                    ("pii_degree_two", "pii_halfinteger_backlund", "pii_riccati", "pii_riccati_subvariety"),
                    RICCATI_SIGN_NOTE,
                ),
                StratumRow("generic", 1, "pii_sm_nonhalf", ("pii_sm_nonhalf",)),
            ),
        ),
        FamilySpec(
            Family.PIII, arity=2, sum_zero=False, default_form="system",
            orbit_generators=("s1", "s2", "s3", "s4"),
            backlund_key="piii_backlund", same_family_question_key="q_p3orth_nongen",
            strata=(
                StratumRow("D1", 3, "piii_d1", ("piii_deg3",)),
                StratumRow("W1", 2, "piii_w1", ("piii_deg2",)),
                StratumRow("generic", 1, "piii_sm", ("piii_sm",)),
            ),
        ),
        FamilySpec(
            Family.PIV, arity=3, sum_zero=True, default_form="system",
            orbit_generators=("s0", "s1", "s2"),
            backlund_key="piv_backlund", same_family_question_key="q_p4orth_nongen",
            strata=(
                StratumRow("D", 3, "piv_d", ("piv_deg3",)),
                StratumRow("W", 2, "piv_w", ("piv_deg2",)),
                StratumRow("generic", 1, "piv_sm", ("piv_sm",)),
            ),
            notes=(PIV_SCALAR_NOTE,),
        ),
        FamilySpec(
            Family.PV, arity=4, sum_zero=True, default_form="system",
            orbit_generators=("s1", "s2", "s3", "tminus"),
            backlund_key="pv_backlund", same_family_question_key="q_ques5",
            strata=(
                StratumRow("D", 4, "pv_d", ("pv_deg4",)),
                StratumRow("S1", 3, "pv_s1", ("pv_deg3",)),
                StratumRow("S2", 3, "pv_s2", ("pv_deg3",)),
                StratumRow("W", 2, "pv_w", ("pv_deg2",)),
                StratumRow("generic", 1, "pv_sm", ("pv_sm",)),
            ),
        ),
        FamilySpec(
            Family.PVI, arity=4, sum_zero=False, default_form=None,
            orbit_generators=("s1", "s2", "s3", "s4", "s5"),
            backlund_key="pvi_backlund", same_family_question_key="q_pvi_orbit",
            strata=(
                StratumRow("D", 5, "pvi_roots", ("pvi_d_deg",)),
                StratumRow("L", 3, "pvi_roots", ("pvi_l_deg3",), PVI_LDEG_AMBIGUITY),
                StratumRow("P", 3, "pvi_roots", ("pvi_p_deg",)),
                StratumRow("M", None, "pvi_roots", ("pvi_m_deg",)),
                StratumRow("generic", 1, "pvi_sm", ("pvi_sm",)),
            ),
        ),
    )
}


def family_space(family: Family) -> FamilySpec:
    return _SPECS[family]


def _as_param(x) -> ParamValue:
    if isinstance(x, ParamValue):
        return x
    if isinstance(x, (int, Fraction)):
        return ParamValue(x)
    raise InvalidEquationError(f"parameter {x!r} is not an exact value")


@dataclass(frozen=True)
class EquationId:
    """A family tag plus a parameter vector valid for that family."""

    family: Family
    params: tuple[ParamValue, ...]

    def __init__(self, family: Family, params: Sequence[ParamValue | Rational] = ()):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", tuple(_as_param(p) for p in params))
        space = family_space(family)
        if len(self.params) != space.arity:
            raise InvalidEquationError(
                f"family {family.value} takes {space.arity} parameter(s), got {len(self.params)}"
            )
        if space.sum_zero:
            total = ParamValue(0)
            for p in self.params:
                total = total + p
            if total != ParamValue(0):
                raise InvalidEquationError(
                    f"family {family.value} parameters must sum to zero exactly (got {total})"
                )

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.params)
        return f"P{self.family.value}({inner})"
