"""Static definitions of the six Painlevé families.

One spec per family (parameter space and its exact linear constraint,
strata with their Morley degrees and citation keys, the transformation
group's generators, orbit criterion, lattice scan and alcove, default
chart), the equation identifier, and the input errors of the toolkit.
Everything here is immutable data, constructed once; the ODE systems
themselves are in ``odes`` and the group algorithms in ``weyl``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .citations import PVI_LDEG_AMBIGUITY, RICCATI_SIGN_NOTE, Ambiguity
from .exactnum import InputError, IntValue, ParamValue, Rational, Scaled, scale


class Family(Enum):
    PI = "I"
    PII = "II"
    PIII = "III"
    PIV = "IV"
    PV = "V"
    PVI = "VI"

    # Members are singletons, so identity hashing keeps every dict and
    # lru_cache keyed by a family in C, where Enum's hash is a Python call.
    __hash__ = object.__hash__

    @staticmethod
    def from_name(name: str) -> "Family":
        name = name.strip().upper()
        try:
            return _FAMILY_NAMES[name]
        except KeyError:
            raise UnknownFamilyError(f"unknown family {name!r}; expected one of I, II, III, IV, V, VI") from None


# Each family's spellings: its numeral and its member name, e.g. "II" and "PII".
_FAMILY_NAMES = {spelling: fam for fam in Family for spelling in (fam.value, fam.name)}


class UnknownFamilyError(InputError):
    pass


class UnsupportedFamilyError(InputError):
    """Raised for operations the sixth family does not support (it is
    classification-only: no explicit equation is cataloged for it)."""


class InvalidEquationError(InputError):
    pass


class NumericInputError(InputError):
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


class StratumRow(namedtuple("StratumRow", "label degree stratum_key degree_keys note", defaults=(None,))):
    """One parameter stratum of a family.

    ``degree`` is the Morley degree on the stratum, or None where
    ``classify`` decides it fiber by fiber.  ``stratum_key`` cites the
    stratum verdict; ``degree_keys[0]`` cites the degree verdict and the
    rest are its supporting statements.  ``note`` goes with every fiber in
    the stratum.
    """

    __slots__ = ()


# The fifth family's affine simple reflection, as a word in its generators.
PV_AFFINE_REFLECTION = ("tminus", "s3", "s1", "s2", "s1", "s3", "tminus^-1")


def _q(*values: str) -> tuple[Fraction, ...]:
    """Exact rationals from their "p/q" spellings."""
    return tuple(Fraction(x) for x in values)


# The transformation-group entries of a FamilySpec row (described there).
Generator = namedtuple("Generator", "name perm signs translation", defaults=(None, None))
OrbitCriterion = namedtuple("OrbitCriterion", "text key notes", defaults=((),))
LatticeScan = namedtuple("LatticeScan", "sign_patterns offsets named even_sum")
Alcove = namedtuple("Alcove", "reflections point")


class FamilySpec(namedtuple(
    "FamilySpec",
    "family arity sum_zero default_form strata criterion backlund_key same_family_question_key"
    " generators orbit_generators scan alcove notes",
    defaults=(None, (), (), None, None, ()),
)):
    """Everything the toolkit tabulates per family.

    ``default_form`` is the ODE chart used when none is named (None: no
    equation is cataloged).  ``strata`` lists the strata deepest first, and
    ``notes`` go with every classification of the family.

    The rest is the family's transformation group, an affine Weyl group on
    parameters (Noumi–Yamada, CMP 199, 1998).  Each of its ``generators``
    maps v to ``result[j] = signs[j]*v[perm[j]] + translation[j]`` (None: all
    +1, or all 0).  ``orbit_generators`` generate the orbit group (the fourth
    family's tminus only defines s0).  ``criterion`` is the cited orbit
    criterion, its citation key and the notes every verdict carries;
    ``backlund_key`` and ``same_family_question_key`` cite the group and the
    open same-family question.  ``alcove`` (None for I and II) gives words
    for the simple reflections and a rational point strictly inside the
    alcove their walls bound.

    ``scan`` (None for I and III) is the orbit criterion as one lattice scan:
    is there a signed permutation g of the finite Weyl group and an offset c
    with w - g(v) - c integral?  Its linear parts are the permutations in
    ``itertools.permutations`` order, each with every sign pattern in turn
    (II: +1, then -1; IV: the 6 permutations; V: the 24; VI: the 24, each
    with the 8 even sign patterns).  Then come the offsets c (V: a/4 for
    a = 0..3; else 0), how many coordinates the criterion names (the
    ``integer_shift`` length) and whether the shift must have even sum (VI).
    The first candidate with an all-Yes test is the witness; otherwise the
    verdict is Unknown if some candidate was undecided, else No.
    """

    __slots__ = ()

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
            strata=(StratumRow("generic", 1, "generic_sm_trivial", ("generic_sm_trivial",)),),
            criterion=OrbitCriterion("the first family has a single equation; any two coincide", "backlund_maps"),
            backlund_key="backlund_maps",
        ),
        FamilySpec(
            Family.PII, arity=1, sum_zero=False, default_form="scalar",
            strata=(
                StratumRow(
                    "half-integer", 2, "pii_halfinteger_backlund",
                    ("pii_degree_two", "pii_halfinteger_backlund", "pii_riccati", "pii_riccati_subvariety"),
                    RICCATI_SIGN_NOTE,
                ),
                StratumRow("generic", 1, "pii_sm_nonhalf", ("pii_sm_nonhalf",)),
            ),
            criterion=OrbitCriterion("beta - alpha in Z or beta + alpha in Z", "genone"),
            backlund_key="pii_backlund", same_family_question_key="q_ortho2",
            generators=(
                Generator("reflect", (0,), (-1,), (-1,)), Generator("shift_up", (0,), translation=(1,)),
                Generator("shift_down", (0,), translation=(-1,)),
            ),
            orbit_generators=("reflect", "shift_up", "shift_down"),
            scan=LatticeScan(((1,), (-1,)), _q("0"), named=1, even_sum=False),
        ),
        FamilySpec(
            Family.PIII, arity=2, sum_zero=False, default_form="system",
            strata=(
                StratumRow("D1", 3, "piii_d1", ("piii_deg3",)),
                StratumRow("W1", 2, "piii_w1", ("piii_deg2",)),
                StratumRow("generic", 1, "piii_sm", ("piii_sm",)),
            ),
            criterion=OrbitCriterion(
                "{pi(v2-v1), pi(v1-v2)} = {pi(w2-w1), pi(w1-w2)} where pi is reduction mod 2Z", "p3orth"
            ),
            backlund_key="piii_backlund", same_family_question_key="q_p3orth_nongen",
            generators=(
                Generator("s1", (1, 0)), Generator("s2", (1, 0), (-1, -1)),
                Generator("s3", (1, 0), translation=(1, -1)), Generator("s4", (1, 0), (-1, -1), (1, 1)),
            ),
            orbit_generators=("s1", "s2", "s3", "s4"),
            alcove=Alcove((("s1",), ("s2",), ("s3",), ("s4",)), _q("1/2", "1/4")),
        ),
        FamilySpec(
            Family.PIV, arity=3, sum_zero=True, default_form="system",
            strata=(
                StratumRow("D", 3, "piv_d", ("piv_deg3",)),
                StratumRow("W", 2, "piv_w", ("piv_deg2",)),
                StratumRow("generic", 1, "piv_sm", ("piv_sm",)),
            ),
            criterion=OrbitCriterion("some permutation sigma of {1,2,3} has v_i - w_sigma(i) in Z for all i", "p4orth"),
            backlund_key="piv_backlund", same_family_question_key="q_p4orth_nongen",
            generators=(
                Generator("s0", (0, 2, 1), translation=(0, 1, -1)), Generator("s1", (1, 0, 2)),
                Generator("s2", (2, 1, 0)), Generator("tminus", (0, 1, 2), translation=_q("-1/3", "-1/3", "2/3")),
            ),
            orbit_generators=("s0", "s1", "s2"),
            scan=LatticeScan(((1, 1, 1),), _q("0"), named=3, even_sum=False),
            alcove=Alcove((("s0",), ("s1",), ("s2",)), _q("0", "1/3", "-1/3")),
            notes=(PIV_SCALAR_NOTE,),
        ),
        FamilySpec(
            Family.PV, arity=4, sum_zero=True, default_form="system",
            strata=(
                StratumRow("D", 4, "pv_d", ("pv_deg4",)),
                StratumRow("S1", 3, "pv_s1", ("pv_deg3",)),
                StratumRow("S2", 3, "pv_s2", ("pv_deg3",)),
                StratumRow("W", 2, "pv_w", ("pv_deg2",)),
                StratumRow("generic", 1, "pv_sm", ("pv_sm",)),
            ),
            criterion=OrbitCriterion(
                "a/4*(1,1,1) + (v_sigma(1), v_sigma(2), v_sigma(3)) - (w_1, w_2, w_3) in Z^3 "
                "for some sigma in S_4 and a in Z (a taken mod 4)", "pv_orbit",
            ),
            backlund_key="pv_backlund", same_family_question_key="q_ques5",
            generators=(
                Generator("s1", (1, 0, 2, 3)), Generator("s2", (2, 1, 0, 3)), Generator("s3", (0, 1, 3, 2)),
                Generator("tminus", (0, 1, 2, 3), translation=_q("-1/4", "-1/4", "-1/4", "3/4")),
            ),
            orbit_generators=("s1", "s2", "s3", "tminus"),
            scan=LatticeScan(((1, 1, 1, 1),), _q("0", "1/4", "1/2", "3/4"), named=3, even_sum=False),
            alcove=Alcove((("s1",), ("s2",), ("s3",), PV_AFFINE_REFLECTION), _q("1/8", "3/8", "-1/8", "-3/8")),
        ),
        FamilySpec(
            Family.PVI, arity=4, sum_zero=False, default_form=None,
            strata=(
                StratumRow("D", 5, "pvi_roots", ("pvi_d_deg",)),
                StratumRow("L", 3, "pvi_roots", ("pvi_l_deg3",), PVI_LDEG_AMBIGUITY),
                StratumRow("P", 3, "pvi_roots", ("pvi_p_deg",)),
                StratumRow("M", None, "pvi_roots", ("pvi_m_deg",)),
                StratumRow("generic", 1, "pvi_sm", ("pvi_sm",)),
            ),
            criterion=OrbitCriterion(
                "w = signed permutation of v (even sign weight) plus an integer vector with even coordinate sum",
                "pvi_orbit_criterion", ("the converse direction is an open question for the sixth family",),
            ),
            backlund_key="pvi_backlund", same_family_question_key="q_pvi_orbit",
            generators=(
                Generator("s1", (1, 0, 2, 3)), Generator("s2", (0, 2, 1, 3)), Generator("s3", (0, 1, 3, 2)),
                Generator("s4", (0, 1, 3, 2), (1, 1, -1, -1)),
                Generator("s5", (1, 0, 2, 3), (-1, -1, 1, 1), (1, 1, 0, 0)),
            ),
            orbit_generators=("s1", "s2", "s3", "s4", "s5"),
            scan=LatticeScan(
                ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1),
                 (-1, 1, 1, -1), (-1, 1, -1, 1), (-1, -1, 1, 1), (-1, -1, -1, -1)),
                _q("0"), named=4, even_sum=True,
            ),
            alcove=Alcove((("s1",), ("s2",), ("s3",), ("s4",), ("s5",)), _q("2/5", "3/10", "1/5", "1/10")),
        ),
    )
}


# The relations ``verify --target group-relations`` checks, in its output
# order: ``word``, applied left to right, is the map of ``expected``.
GroupRelation = namedtuple("GroupRelation", "name family word expected key")
GROUP_RELATIONS = (
    GroupRelation("piv-s0-composite", Family.PIV, ("tminus", "s1", "s2", "s1", "tminus^-1"),
                  next(g for g in _SPECS[Family.PIV].generators if g.name == "s0"), "piv_s0_display"),
    GroupRelation("pv-composite", Family.PV, PV_AFFINE_REFLECTION,
                  Generator("s0", (0, 3, 2, 1), translation=(0, 1, 0, -1)), "pv_composite_display"),
    GroupRelation("piii-s1-involution", Family.PIII, ("s1", "s1"), Generator("identity", (0, 1)), "piii_backlund"),
)


def family_space(family: Family) -> FamilySpec:
    return _SPECS[family]


def as_param(x) -> ParamValue:
    if isinstance(x, ParamValue):
        return x
    if isinstance(x, (int, Fraction)):
        return ParamValue(x)
    raise InvalidEquationError(f"parameter {x!r} is not an exact value")


def check_params(
    family: Family, params: Sequence[ParamValue | IntValue], form: Scaled | None = None, start: int = 0
) -> None:
    """Raise InvalidEquationError unless ``params`` have ``family``'s arity and,
    where it asks, sum to zero, read from the integer form ``form`` (by
    default ``scale(params)``) whose values from ``start`` on are ``params``."""
    space, n = family_space(family), len(params)
    if n != space.arity:
        raise InvalidEquationError(f"family {family.value} takes {space.arity} parameter(s), got {n}")
    if space.sum_zero:
        form = form or scale(params)
        const, coeffs = sum(form.consts[start:start + n]), [sum(c) for c in zip(*form.rows[start:start + n])]
        if const or any(coeffs):
            total = ParamValue(const, dict(zip(form.atoms, coeffs))) / form.den
            raise InvalidEquationError(f"family {family.value} parameters must sum to zero exactly (got {total})")


class EquationId(namedtuple("EquationId", "family params")):
    """A family tag plus a parameter vector valid for that family.

    ``__new__`` makes each parameter a ``ParamValue``; ``__init__`` checks
    the vector against the family (``perfbench/tracer.py`` wraps ``__init__``).
    """

    __slots__ = ()

    def __new__(cls, family: Family, params: Sequence[ParamValue | Rational] = ()) -> "EquationId":
        return super().__new__(cls, family, tuple(map(as_param, params)))

    def __init__(self, family: Family, params: Sequence[ParamValue | Rational] = ()):
        check_params(family, self.params)

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.params)
        return f"P{self.family.value}({inner})"
