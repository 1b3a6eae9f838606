"""Orthogonality verdicts within and across the families.

Within a family, nonorthogonality comes from the Bäcklund transformations,
which ``weyl`` decides.  Across families every proved statement is a
genericity clause that consults no group, so a distinct-family query never
loads ``weyl``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .catalog import EquationId, Family, family_space
from .citations import cite
from .classify import is_generic
from .exactnum import TriBool, decide_coset


class Verdict(Enum):
    ORTHOGONAL = "orthogonal"
    NONORTHOGONAL = "nonorthogonal"
    OPEN = "open"


# ``question`` is the open question behind an Open verdict.
OrthoVerdict = namedtuple("OrthoVerdict", "verdict citation applicability question notes", defaults=(None, ()))


def cross_family_verdict(eq1: EquationId, eq2: EquationId) -> OrthoVerdict:
    """Match a pair of equations against the hypothesis clauses of the proved
    orthogonality statements; fall through to Open when none applies."""
    if eq1.family is eq2.family:
        return _same_family_verdict(eq1, eq2)
    return _distinct_family_verdict(eq1, eq2)


def _same_family_verdict(eq1: EquationId, eq2: EquationId) -> OrthoVerdict:
    from . import weyl

    family = eq1.family
    verdict = weyl.orbit_decide(family, eq1.params, eq2.params, checked=True)
    if verdict.related is TriBool.YES:
        return OrthoVerdict(Verdict.NONORTHOGONAL, cite(family_space(family).backlund_key),
                            "parameters related by the family's transformation group")
    if family is Family.PII and eq1.params[0].has_transcendental is not eq2.params[0].has_transcendental:
        return OrthoVerdict(Verdict.ORTHOGONAL, cite("kernel1"),
                            "one parameter algebraic over Q, the other transcendental")
    if verdict.related is TriBool.NO and verdict.hypothesis_status is weyl.HypothesisStatus.PROVED:
        return OrthoVerdict(Verdict.ORTHOGONAL, verdict.criterion_citation,
                            "genericity hypotheses hold and the orbit criterion fails")
    notes = ()
    if verdict.related is TriBool.UNKNOWN:
        notes = ("the orbit criterion is undecided (Unknown congruence on algebraic-irrational atoms)",)
    return OrthoVerdict(Verdict.OPEN, None, "no proved clause covers this same-family pair",
                        cite(family_space(family).same_family_question_key), notes)


# The distinct-family pairs whose clause has a statement of its own: pair ->
# (citation key, the families whose parameters must be generic, applicability,
# the open question when they are not).  Every other pair takes _NAGGY, which
# needs both families generic.  For the second family's one parameter,
# generic means transcendental.
_CLAUSES = {
    frozenset((Family.PII, Family.PIII)): (
        "orthofam3", (Family.PIII,), "third-family parameters independent transcendental", "q_nongen3orth",
    ),
    frozenset((Family.PII, Family.PIV)): (
        "naggy1", (Family.PII, Family.PIV),
        "second-family parameter transcendental, fourth-family parameters generic", "q_np2",
    ),
    frozenset((Family.PIII, Family.PV)): (
        "naggy2", (Family.PIII, Family.PV),
        "third-family parameters independent transcendental, fifth-family parameters generic", "q_np2",
    ),
}
_NAGGY = ("naggy", None, "distinct families, both parameter tuples generic", "q_np2")

# What orthofam3 covers, by whether the second-family parameter is a half-integer.
_HALF_INTEGER_SUFFIX = {
    TriBool.YES: "; the second-family parameter is half-integer, so the statement covers the strongly "
        "minimal part X_II(alpha) \\ R(alpha) (its order-one locus R(alpha) is orthogonal by the dimension "
        "argument in the proof)",
    TriBool.UNKNOWN: "; whether the second-family parameter is half-integer is undecided, but both "
        "clauses of the statement yield orthogonality",
    TriBool.NO: "",
}


def _distinct_family_verdict(eq1: EquationId, eq2: EquationId) -> OrthoVerdict:
    key, generic, applicability, question = _CLAUSES.get(frozenset((eq1.family, eq2.family)), _NAGGY)
    by_family = {eq1.family: eq1, eq2.family: eq2}
    if not all(is_generic(by_family[fam]) for fam in generic or by_family):
        return OrthoVerdict(Verdict.OPEN, None, "no proved clause covers this distinct-family pair", cite(question))
    if key == "orthofam3":
        applicability += _HALF_INTEGER_SUFFIX[decide_coset(by_family[Family.PII].params[0], Fraction(1, 2), 1)]
    return OrthoVerdict(Verdict.ORTHOGONAL, cite(key), applicability)
