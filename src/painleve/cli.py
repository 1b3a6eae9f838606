"""Command-line front end with machine-readable JSON output.

Every response follows one schema::

    {"query": {...}, "verdicts": [...], "citations": [...],
     "notes": [...], "ambiguities": [...]}

Each verdict carries either a citation object (source label plus verbatim
statement) or the literal tag "open-question".  Exact values are emitted as
"p/q" strings; classify/orbit/orthogonal responses contain no floats.

An ``orbit`` or ``orthogonal`` record is spliced: the compact JSON of its
verdict class, made once per class, with the line's own fields put in.

Exit codes: 0 success, 2 input error, 3 verdict dominated by Unknown/Open
(distinguishable for scripting; ``verify`` exits 3 when any of its checks
fails), 4 internal error (a bug, reported as "error: internal error: ..."
rather than as an input error).  ``--batch`` goes on past a failed line and
exits with the worst code of its lines, ranked 4, then 2, then 3, then 0; a
line asking for -h/--help is an input error there, since stdout carries
only JSON records.

The command line is stated once, in the table ``_COMMANDS``: per
subcommand its handler, help and options.  Every query, single or in a
``--batch`` file, is read from that table when it is a subcommand followed
by exact ``--opt value``/``--opt=value`` pairs.  argparse, built from the
same table on first need, prints help and usage, and answers every other
argv (abbreviations, repeats, unknown or missing options, bad values), so
its messages and exit codes are the command line's.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import re
import shlex
import sys
from types import SimpleNamespace
from typing import Sequence

from .catalog import GROUP_RELATIONS, EquationId, Family, check_params
from .citations import RICCATI_SIGN_NOTE, Ambiguity, Citation, cite
from .classify import ClassificationReport, classify
from .exactnum import (
    AtomKind, InputError, ParamSyntaxError, ParamValue, TriBool, format_fraction, format_param, parse_param,
)

# What the handlers use from the modules a classify query never needs.  A
# handler binds its modules and their names into this module's globals on
# first use, keeping any name already set here (a wrapper, say).  No handler
# calls named_generators, word_map or cross_family_verdict; they stay
# because perfbench/tracer.py wraps them on this module (ROADMAP item 1b).
_LAZY = {
    "weyl": ("HypothesisStatus", "named_generators", "orbit_with_word", "word_map"),
    "ortho": ("Verdict", "cross_family_verdict", "pair_verdict"),
    "diffpoly": ("pv_random_point_check", "verify_group_relation", "verify_pv_change_of_variables",
                 "verify_riccati"),
    "numint": ("NumericAssignment",),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def _load(*modules: str) -> None:
    namespace = globals()
    for module in (m for m in modules if m not in namespace):
        mod = importlib.import_module(f"{__package__}.{module}")
        for name in _LAZY[module]:
            namespace.setdefault(name, getattr(mod, name))
        namespace[module] = mod


def __getattr__(name: str):
    if name not in _LAZY_OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_LAZY_OWNER[name])
    return globals()[name]


OPEN_TAG = "open-question"
# json.dumps(..., sort_keys=True), with its encoder built once.
_dumps = json.JSONEncoder(sort_keys=True).encode

# -- serialization helpers ---------------------------------------------------------


def _tri(value: TriBool) -> str:
    return value._value_  # the member's value, read without the ``value`` property


def _citation_json(c: Citation | None):
    return c.as_json() if c is not None else OPEN_TAG


def _verdict(kind: str, value, citation: Citation | None):
    return {"kind": kind, "value": value, "citation": _citation_json(citation)}


def _response(query: dict, verdicts: list, citations: list[Citation], notes: Sequence[str] = ()) -> dict:
    seen, cites = set(), []
    for c in citations:
        if c.key not in seen:
            seen.add(c.key)
            cites.append(c.as_json())
    return {
        "query": query,
        "verdicts": verdicts,
        "citations": cites,
        "notes": [n for n in notes if not isinstance(n, Ambiguity)],
        "ambiguities": [n for n in notes if isinstance(n, Ambiguity)],
    }


def _parse_params(text: str, start: int = 0) -> list[ParamValue]:
    """The comma-separated values of an option value found at ``start``,
    each read by ``parse_param``, the one reader of every subcommand; a
    syntax error's position counts from the start of the value."""
    values = []
    for chunk in text.split(",") if text.strip() else ():
        try:
            values.append(parse_param(chunk))
        except ParamSyntaxError as err:
            raise ParamSyntaxError(err.message, start + err.position) from None
        start += len(chunk) + 1
    return values


def _equation(family: str, params: str) -> EquationId:
    return EquationId(Family.from_name(family), _parse_params(params))


# -- classify ---------------------------------------------------------------------


def _classification_payload(report: ClassificationReport) -> tuple[dict, int]:
    eq = report.equation
    degree_cite = report.degree_citation
    unknown = "unknown"
    verdicts = [
        _verdict("morley-rank", report.rank, cite("rank_one")),
        _verdict("morley-degree", report.degree if report.degree is not None else unknown, degree_cite),
        _verdict("strongly-minimal", _tri(report.strongly_minimal), degree_cite),
        _verdict(
            "stratum",
            report.stratum.label if report.stratum.label is not None else unknown,
            report.stratum_citation,
        ),
        _verdict(
            "components",
            [{"label": c.label, "order": c.order} for c in report.components],
            degree_cite,
        ),
        _verdict(
            "algebraic-solutions",
            report.algebraic_solutions if report.algebraic_solutions is not None else unknown,
            report.count_citation,
        ),
        _verdict("geometrically-trivial", _tri(report.geometrically_trivial), report.triviality_citation),
    ]
    if eq.family is Family.PVI and report.stratum.label == "M":
        verdicts.append(
            _verdict(
                "half-integer-special",
                _tri(report.stratum.half_integer_special),
                degree_cite,
            )
        )
    query = {
        "subcommand": "classify",
        "family": eq.family._value_,
        "params": [format_param(p) for p in eq.params],
    }
    payload = _response(query, verdicts, list(report.citations), report.notes)
    exit_code = 0
    if report.degree is None or report.stratum.label is None:
        exit_code = 3
    return payload, exit_code


def _cmd_classify(args) -> tuple[dict, int]:
    report = classify(_equation(args.family, args.params))
    return _classification_payload(report)


# -- records ---------------------------------------------------------------------------

# The compact JSON text of each verdict class's record, split where a line's
# own fields go.  A class is drawn from catalog data (family, verdict, status,
# clause), never from input text, so the memo holds one entry per class met.
_FRAGMENTS: dict[tuple, list[str]] = {}
_HOLE = "\0"  # a field's value while its class's text is made


def _record(key: tuple, payload, *fields: str) -> str:
    """The compact record ``_dumps(payload(*values))`` of a line of class
    ``key``, where ``fields`` are the JSON texts of the line's own values,
    in the order of their keys: they are spliced between the class's
    fragments, which are made once, from ``payload(_HOLE, ...)``."""
    pieces = _FRAGMENTS.get(key)
    if pieces is None:
        text = _dumps(payload(*[_HOLE] * len(fields)))
        pieces = _FRAGMENTS[key] = text.split(json.dumps(_HOLE))
    out = pieces[0]
    for field, piece in zip(fields, pieces[1:]):
        out += field + piece
    return out


def _texts(values: list[ParamValue]) -> str:
    """The JSON list of the values' canonical texts, which need no escaping."""
    return "[" + ", ".join([f'"{format_param(v)}"' for v in values]) + "]"


# -- orbit -----------------------------------------------------------------------------


def _witness_json(verdict: OrbitVerdict):
    w = verdict.witness
    if w is None:
        return None
    out: dict = {}
    if w.perm is not None:
        out["perm"] = list(w.perm)
    if w.signs is not None:
        out["signs"] = list(w.signs)
    if w.shift is not None:
        out["shift"] = [format_fraction(x) for x in w.shift]
    if w.quarter_shift is not None:
        out["quarter_shift"] = w.quarter_shift
    if w.integer_shift is not None:
        out["integer_shift"] = list(w.integer_shift)
    if w.note:
        out["note"] = w.note
    out["convention"] = "w[j] = signs[j] * v[perm[j]] + shift[j] (0-based)"
    return out


def _orbit_payload(verdict: OrbitVerdict, query, witness, word) -> dict:
    status_cite = verdict.criterion_citation if verdict.hypothesis_status is not HypothesisStatus.OPEN else None
    verdicts = [
        _verdict("related", _tri(verdict.related), verdict.criterion_citation),
        _verdict("hypothesis-status", verdict.hypothesis_status._value_, status_cite),
    ]
    payload = _response(query, verdicts, [verdict.criterion_citation], verdict.notes)
    payload["criterion"] = verdict.criterion
    payload["witness"] = witness
    payload["word"] = word
    if verdict.word_reason:
        payload["word_reason"] = verdict.word_reason
    return payload


def _cmd_orbit(args) -> tuple[str, int]:
    _load("weyl")
    family = Family.from_name(args.family)
    v = _parse_params(args.v)
    w = _parse_params(args.w)
    verdict = orbit_with_word(family, v, w)
    key = ("orbit", family, verdict.related, verdict.hypothesis_status, verdict.word_reason)
    query = f'{{"family": "{family._value_}", "subcommand": "orbit", "v": {_texts(v)}, "w": {_texts(w)}}}'
    witness = _dumps(_witness_json(verdict))
    record = _record(key, functools.partial(_orbit_payload, verdict), query, witness, json.dumps(verdict.word))
    return record, (3 if verdict.related is TriBool.UNKNOWN else 0)


# -- orthogonal --------------------------------------------------------------------------


def _orthogonal_payload(verdict: OrthoVerdict, query) -> dict:
    verdicts = [_verdict("orthogonality", verdict.verdict._value_, verdict.citation)]
    notes = list(verdict.notes)
    citations = [c for c in (verdict.citation, verdict.question) if c is not None]
    if verdict.question is not None:
        notes.append(f'open question ({verdict.question.where}): "{verdict.question.quote}"')
    payload = _response(query, verdicts, citations, notes)
    payload["applicability"] = verdict.applicability
    return payload


def _cmd_orthogonal(args) -> tuple[str, int]:
    _load("ortho")
    family1 = Family.from_name(args.family1)
    params1 = _parse_params(args.params1)
    try:
        family2 = Family.from_name(args.family2)
        params2 = _parse_params(args.params2)
    except InputError:
        check_params(family1, params1)  # params1's own error comes first
        raise
    verdict = pair_verdict(family1, params1, family2, params2)
    query = (
        f'{{"family1": "{family1._value_}", "family2": "{family2._value_}", "params1": {_texts(params1)}, '
        f'"params2": {_texts(params2)}, "subcommand": "orthogonal"}}'
    )
    record = _record(("orthogonal", verdict), functools.partial(_orthogonal_payload, verdict), query)
    return record, (3 if verdict.verdict is Verdict.OPEN else 0)


# -- verify -----------------------------------------------------------------------------


def _riccati_rows():
    rows = [(f"riccati-matched-alpha-{name}", format_fraction(verify_riccati(sign)), "pii_riccati", True)
            for name, sign in (("plus", 1), ("minus", -1))]
    return rows, [RICCATI_SIGN_NOTE]


def _pv_change_rows():
    report = verify_pv_change_of_variables()
    points, all_zero = pv_random_point_check()
    rows = [
        ("chart-identity-q", report.identity_q, "pv_backlund", report.identity_q),
        ("chart-identity-p", report.identity_p, "pv_backlund", report.identity_p),
        ("random-point-check", {"points": points, "all_zero": all_zero}, "pv_backlund", all_zero),
    ]
    return rows, [*report.notes, f"excluded loci: {', '.join(report.excluded_loci)}"]


def _group_relation_rows():
    holds = [verify_group_relation(r.family, r.word, r.expected) for r in GROUP_RELATIONS]
    return [(r.name, ok, r.key, ok) for r, ok in zip(GROUP_RELATIONS, holds)], []


# Each target's checks: rows of (verdict kind, value, citation key, whether
# the check holds), and notes.  The computed Riccati alphas are reported,
# not compared (RICCATI_SIGN_NOTE), so those rows always hold.
VERIFY_TARGETS = {"riccati": _riccati_rows, "pv-change": _pv_change_rows, "group-relations": _group_relation_rows}


def _cmd_verify(args) -> tuple[dict, int]:
    _load("diffpoly")
    rows, notes = VERIFY_TARGETS[args.target]()
    verdicts = [_verdict(kind, value, cite(key)) for kind, value, key, _ in rows]
    citations = [cite(key) for _, _, key, _ in rows]
    payload = _response({"subcommand": "verify", "target": args.target}, verdicts, citations, notes)
    return payload, (0 if all(holds for *_, holds in rows) else 3)


# -- integrate -------------------------------------------------------------------------------


def _parse_assignment(text: str) -> NumericAssignment:
    values, start = {}, 0
    if text:
        for chunk in text.split(","):
            name, _, raw = chunk.partition("=")
            at = start + len(name) - len(name.lstrip())
            start += len(chunk) + 1
            name = name.strip()
            if not _ or not name:
                raise InputError(f"bad atom assignment {chunk!r}; expected name=value")
            (atom_value,) = _parse_params(name, at)
            if atom_value.num or [(n, d) for _, n, d in atom_value.parts] != [(1, 1)]:
                raise InputError(f"{name!r} is not a bare atom")
            atom = atom_value.parts[0][0]
            if atom in values:
                raise InputError(f"atom {atom.name} is assigned twice")
            values[atom] = _float(raw)
    return NumericAssignment(values)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise InputError(err) from None


def _cmd_integrate(args) -> tuple[dict, int]:
    _load("numint")
    for option, value in (("--t0", args.t0), ("--t1", args.t1), ("--step", args.step)):
        if not math.isfinite(value):
            raise InputError(f"{option} must be a finite number, got {value}")
    eq = _equation(args.family, args.params)
    assign = _parse_assignment(args.assign)
    initial = [_float(x) for x in args.initial.split(",")] if args.initial else []
    traj = numint.integrate(eq, assign, initial, args.t0, args.t1, args.step, form=args.form)
    residual = numint.residual_norm(traj)
    if args.out:
        try:
            rows = numint.write_csv(traj, args.out)
            numint.write_json(traj, args.out + ".json", rows)
        except OSError as err:
            raise InputError(f"cannot write --out {args.out!r}: {err.strerror or err}") from err
    payload = {
        "query": {
            "subcommand": "integrate",
            "family": eq.family._value_,
            "params": [format_param(p) for p in eq.params],
            "t0": args.t0,
            "t1": args.t1,
            "step": args.step,
            "form": traj.form,
        },
        "status": traj.status.value,
        "blowup_t": traj.blowup_t,
        "samples": len(traj.samples),
        "state": list(traj.state_names),
        "final": [traj.samples[-1][0], *traj.samples[-1][1]],
        "residual": {
            "value": residual.value,
            "discretization_order": residual.discretization_order,
            "warning": residual.warning,
        },
        "csv": args.out or None,
    }
    return payload, 0


# -- atoms ------------------------------------------------------------------------------------


_ATOM_KINDS = {AtomKind.TRANSCENDENTAL: "transcendental", AtomKind.ALGEBRAIC_IRRATIONAL: "algebraic-irrational"}


def _cmd_atoms(args) -> tuple[dict, int]:
    atoms = {}
    for p in _parse_params(args.params):
        for atom, _, _ in p.parts:
            atoms[atom.name] = {"name": atom.name, "kind": _ATOM_KINDS[atom.kind]}
    payload = {
        "query": {"subcommand": "atoms", "params": args.params},
        "atoms": [atoms[k] for k in sorted(atoms)],
    }
    return payload, 0


# -- the command line ---------------------------------------------------------------------------


def _option(option: str, help: str | None = None, *, required=False, default=None, type=None, choices=None):
    return option, option[2:], required, default, type, choices, help


# Per subcommand: (handler, help, description, options), each option a row
# of (option string, dest, required, default, type, choices, help).
_COMMANDS = {
    "classify": (_cmd_classify, "full classification report for one equation", None, (
        _option("--family", "I, II, III, IV, V, or VI", required=True),
        _option("--params", "comma-separated exact parameters, e.g. '1/2,tau1'", default=""),
    )),
    "orbit": (_cmd_orbit, "transformation-orbit relation between two parameter tuples", None, (
        _option("--family", required=True),
        _option("--v", "first parameter tuple", required=True),
        _option("--w", "second parameter tuple", required=True),
    )),
    "orthogonal": (_cmd_orthogonal, "orthogonality verdict for two equations", None, (
        _option("--family1", required=True), _option("--params1", default=""),
        _option("--family2", required=True), _option("--params2", default=""),
    )),
    "verify": (_cmd_verify, "machine verification of the symbolic identities", None, (
        _option("--target", required=True, choices=tuple(VERIFY_TARGETS)),
    )),
    "integrate": (
        _cmd_integrate, "fixed-step RK4 integration of a cataloged equation",
        "Fixed-step RK4 integration. The CSV written by --out has columns: t, then one column per state "
        "component (e.g. t,y,y' for scalar charts, t,q,p for first-order systems); --out also writes the "
        "same trajectory as <out>.json.",
        (
            _option("--family", required=True),
            _option("--params", default=""),
            _option("--initial", "comma-separated initial state", required=True),
            _option("--t0", type=float, required=True),
            _option("--t1", type=float, required=True),
            _option("--step", type=float, required=True),
            _option("--form", "chart: system (default), scalar, or QP"),
            _option("--assign", "numeric atom values, e.g. 'tau1=3.14'", default=""),
            _option("--out", "write trajectory CSV here (plus .json)"),
        ),
    ),
    "atoms": (_cmd_atoms, "echo the atom environment of parameter strings", None, (_option("--params", default=""),)),
}

# Per subcommand, as the reader looks it up: option string -> row, the
# namespace of defaults argparse would give, and the required option strings.
_READER = {
    name: (
        {row[0]: row for row in options},
        {"batch": None, "subcommand": name, **{dest: default for _, dest, _, default, *_ in options}},
        {option for option, _, required, *_ in options if required},
    )
    for name, (*_, options) in _COMMANDS.items()
}


@functools.cache
def _build_parser():
    """The argparse parser of ``_COMMANDS``; built once per process, on the
    first help request or argv that ``_read_args`` declines."""
    import argparse

    class Store(argparse.Action):  # "--opt=--" is the text "--", as on 3.13; earlier versions pass []
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                values = parser._get_value(self, "--")
                parser._check_value(self, values)
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="painleve",
        description="Exact classification, transformation-orbit, and verification "
        "queries for the six Painlevé families (JSON output).",
    )
    parser.add_argument("--batch", metavar="FILE", help="run one query per line of FILE")
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, help, description, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help, description=description)
        for option, dest, required, default, type, choices, text in options:
            p.add_argument(option, action=Store, dest=dest, required=required, default=default, type=type,
                           choices=choices, help=text)
    return parser


# Options whose value may start with a minus sign ("--params -1/2,...").
_SIGNED_VALUE_OPTIONS = frozenset(
    {"--params", "--params1", "--params2", "--v", "--w", "--initial", "--t0", "--t1", "--step"}
)


def _is_negative_value(text: str) -> bool:
    """A leading '-' followed by a digit or '.', or a float such as ``-inf``."""
    if text[:1] != "-":
        return False
    if text[1:2].isdigit() or text[1:2] == ".":
        return True
    try:
        float(text)
    except ValueError:
        return False
    return True


def _bind_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--params -1/2`` as ``--params=-1/2``.

    argparse reads a separate argument that starts with '-' and is not a
    plain negative number as an option, so a fraction, a list with a
    leading negative value or ``-inf`` would otherwise be rejected.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and _is_negative_value(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv``, read from ``_COMMANDS`` for a
    subcommand and exact ``--opt value``/``--opt=value`` pairs that argparse
    takes as they are; None leaves any other argv to argparse."""
    options, defaults, required = _READER.get(argv[0] if argv else None, (None, None, None))
    if options is None:
        return None
    args, given, tokens = dict(defaults), set(), iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        row = options.get(option)
        if row is None or option in given:
            return None
        if not eq:
            value = next(tokens, "-")  # a missing value declines like a '-' one
            if value[:1] == "-" and not (option in _SIGNED_VALUE_OPTIONS and _is_negative_value(value)):
                return None
        _, dest, _, _, type, choices, _ = row
        if type is not None:
            try:
                value = type(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        given.add(option)
        args[dest] = value
    return SimpleNamespace(**args) if required <= given else None


def _parse_args(argv: Sequence[str]):
    """``parse_args`` of the top-level parser, on ``argv`` with its negative values bound."""
    return _read_args(argv) or _build_parser().parse_args(_bind_negative_values(argv))


def _run_single(argv: Sequence[str]) -> tuple[dict | str | None, int]:
    """A handler's payload, a dict or its record as compact JSON text, and
    the exit code; None in place of the payload when the query failed."""
    args = _parse_args(argv)
    if args.subcommand is None:
        _build_parser().print_usage(sys.stderr)
        return None, 2
    try:
        return _COMMANDS[args.subcommand][0](args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return None, 2
    except Exception as err:  # a bug, not bad input: report it with its traceback and go on
        import traceback

        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc()
        return None, 4


_SHELL_QUOTING = re.compile(r"['\"\\]")
_WORD = re.compile(r"[^ \t\r\n]+")


def _split(line: str) -> list[str]:
    r"""``shlex.split(line)``, which splits a line with no quote or escape at runs of ' \t\r\n' only."""
    return shlex.split(line) if _SHELL_QUOTING.search(line) else _WORD.findall(line)


def run(argv: Sequence[str]) -> int:
    """Entry point; returns the exit code and prints JSON to stdout."""
    argv = list(argv)
    option, eq, path = argv[0].partition("=") if argv else ("", "", "")
    # --batch, or --b to --batc as argparse abbreviates it, then "=FILE" or FILE
    if not (len(option) > 2 and "--batch".startswith(option) and (eq or argv[1:2] and argv[1][:1] != "-")):
        payload, code = _run_single(argv)  # a query, or a --batch without its FILE, which argparse reports
        if payload is not None:
            payload = json.loads(payload) if type(payload) is str else payload
            print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    path, rest = (path, argv[1:]) if eq else (argv[1], argv[2:])
    if rest:
        print("error: --batch takes no further arguments", file=sys.stderr)
        return 2
    worst = 0
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for line in lines:
        if not line or line.startswith("#"):
            continue
        try:
            tokens = _split(line)
            # Help would go to stdout, which carries only JSON records here;
            # a help token contains "-h", which the joined tokens show at once.
            if "-h" in " ".join(tokens) and any(t[:2] == "-h" or len(t) > 2 and "--help".startswith(t) for t in tokens):
                raise InputError("-h/--help is not accepted in a --batch line")
            payload, code = _run_single(tokens)
        except SystemExit as exc:  # argparse rejected the line
            payload, code = None, int(exc.code or 2)
        except ValueError as err:  # that help request, or an unclosed quote
            print(f"error: {err}", file=sys.stderr)
            payload, code = None, 2
        if payload is not None:
            print(payload if type(payload) is str else _dumps(payload))
        worst = 2 if 2 in (worst, code) and 4 not in (worst, code) else max(worst, code)
    return worst


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
