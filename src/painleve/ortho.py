"""Orthogonality verdicts within and across the families.

Every verdict reads one integer form of the pair (``exactnum.scale``):
params1 then params2, over a denominator that clears every offset the
pair's tests use.  Within a family, nonorthogonality comes from the
Bäcklund transformations, which ``weyl`` decides on that form.  Across
families every proved statement is a genericity clause (the rank of the
transcendental columns of each tuple's rows) that consults no group, plus
the second family's half-integer row for ``orthofam3``; so a
distinct-family pair never loads ``weyl``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .catalog import EquationId, Family, check_params, family_space
from .citations import cite
from .classify import is_generic
from .exactnum import IntValue, ParamValue, Scaled, TriBool, coset, scale


class Verdict(Enum):
    ORTHOGONAL = "orthogonal"
    NONORTHOGONAL = "nonorthogonal"
    OPEN = "open"


# ``question`` is the open question behind an Open verdict.
OrthoVerdict = namedtuple("OrthoVerdict", "verdict citation applicability question notes", defaults=(None, ()))


def cross_family_verdict(eq1: EquationId, eq2: EquationId) -> OrthoVerdict:
    """``pair_verdict`` on two equations' parameters."""
    return pair_verdict(eq1.family, eq1.params, eq2.family, eq2.params)


def pair_verdict(
    family1: Family, params1: Sequence[ParamValue | IntValue], family2: Family, params2: Sequence[ParamValue | IntValue]
) -> OrthoVerdict:
    """Match a pair of equations against the hypothesis clauses of the proved
    orthogonality statements; fall through to Open when none applies.  The
    two tuples are scaled into one form and checked against their families
    on it, params1's error first."""
    if family1 is family2:
        return _same_family_verdict(family1, params1, params2)
    # orthofam3's half-integer row needs an even denominator.
    form = scale((*params1, *params2), 2 if Family.PII in (family1, family2) else 1)
    check_params(family1, params1, form)
    check_params(family2, params2, form, len(params1))
    return _distinct_family_verdict(family1, family2, form)


def _same_family_verdict(family: Family, v: Sequence, w: Sequence) -> OrthoVerdict:
    from . import weyl

    form = weyl.checked_form(family, v, w)
    verdict = weyl.orbit_decide(family, v, w, checked=True, form=form)
    if verdict.related is TriBool.YES:
        return OrthoVerdict(Verdict.NONORTHOGONAL, cite(family_space(family).backlund_key),
                            "parameters related by the family's transformation group")
    # For the second family's one parameter, generic means transcendental.
    if family is Family.PII and is_generic(family, form, 0, 1) is not is_generic(family, form, 1):
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
_HALF = Fraction(1, 2)


def _distinct_family_verdict(family1: Family, family2: Family, form: Scaled) -> OrthoVerdict:
    """The clause of two distinct families on ``form``, whose values are
    family1's parameters then family2's, over an even denominator when one
    family is the second."""
    key, generic, applicability, question = _CLAUSES.get(frozenset((family1, family2)), _NAGGY)
    n1 = family_space(family1).arity
    start = {family1: 0, family2: n1}
    stop = {family1: n1, family2: None}
    if not all(is_generic(fam, form, start[fam], stop[fam]) for fam in generic or start):
        return OrthoVerdict(Verdict.OPEN, None, "no proved clause covers this distinct-family pair", cite(question))
    if key == "orthofam3":
        at = start[Family.PII]
        half = coset(form, [int(i == at) for i in range(len(form.consts))], _HALF, 1)
        applicability += _HALF_INTEGER_SUFFIX[half]
    return OrthoVerdict(Verdict.ORTHOGONAL, cite(key), applicability)
