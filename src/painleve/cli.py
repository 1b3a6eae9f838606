"""Command-line front end with machine-readable JSON output.

Every response follows one schema::

    {"query": {...}, "verdicts": [...], "citations": [...],
     "notes": [...], "ambiguities": [...]}

Each verdict carries either a citation object (source label plus verbatim
statement) or the literal tag "open-question".  Exact values are emitted as
"p/q" strings; classify/orbit/orthogonal responses contain no floats.

Exit codes: 0 success, 2 input error, 3 verdict dominated by Unknown/Open
(distinguishable for scripting; ``verify`` exits 3 when any of its checks
fails), 4 internal error (a bug, reported as "error: internal error: ..."
rather than as an input error).  ``--batch`` goes on past a failed line and
exits with the worst code of its lines, ranked 4, then 2, then 3, then 0; a
line asking for -h/--help is an input error there, since stdout carries
only JSON records.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import re
import shlex
import sys
from typing import Sequence

from .catalog import GROUP_RELATIONS, EquationId, Family
from .citations import RICCATI_SIGN_NOTE, Ambiguity, Citation, cite
from .classify import ClassificationReport, classify
from .exactnum import AtomKind, InputError, ParamValue, TriBool, format_fraction, format_param, parse_param

# What the handlers use from the modules a classify query never needs.  A
# handler binds its modules and their names into this module's globals on
# first use, keeping any name already set here (a wrapper, say).  No handler
# calls named_generators or word_map; they stay because perfbench/tracer.py
# wraps them on this module (ROADMAP item 1b).
_LAZY = {
    "weyl": ("HypothesisStatus", "named_generators", "orbit_with_word", "word_map"),
    "ortho": ("Verdict", "cross_family_verdict"),
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

# -- serialization helpers ---------------------------------------------------------


def _tri(value: TriBool) -> str:
    return value.value


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


def _parse_params(text: str) -> list[ParamValue]:
    text = text.strip()
    if not text:
        return []
    return [parse_param(chunk) for chunk in text.split(",")]


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
        "family": eq.family.value,
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


def _cmd_orbit(args) -> tuple[dict, int]:
    _load("weyl")
    family = Family.from_name(args.family)
    v = _parse_params(args.v)
    w = _parse_params(args.w)
    verdict = orbit_with_word(family, v, w)
    status_cite = verdict.criterion_citation if verdict.hypothesis_status is not HypothesisStatus.OPEN else None
    verdicts = [
        _verdict("related", _tri(verdict.related), verdict.criterion_citation),
        _verdict("hypothesis-status", verdict.hypothesis_status.value, status_cite),
    ]
    query = {
        "subcommand": "orbit",
        "family": family.value,
        "v": [format_param(p) for p in v],
        "w": [format_param(p) for p in w],
    }
    payload = _response(query, verdicts, [verdict.criterion_citation], verdict.notes)
    payload["criterion"] = verdict.criterion
    payload["witness"] = _witness_json(verdict)
    payload["word"] = list(verdict.word) if verdict.word is not None else None
    if verdict.word_reason:
        payload["word_reason"] = verdict.word_reason
    return payload, (3 if verdict.related is TriBool.UNKNOWN else 0)


# -- orthogonal --------------------------------------------------------------------------


def _cmd_orthogonal(args) -> tuple[dict, int]:
    _load("ortho")
    eq1 = _equation(args.family1, args.params1)
    eq2 = _equation(args.family2, args.params2)
    verdict = cross_family_verdict(eq1, eq2)
    verdicts = [_verdict("orthogonality", verdict.verdict.value, verdict.citation)]
    notes = list(verdict.notes)
    citations = [c for c in (verdict.citation, verdict.question) if c is not None]
    if verdict.question is not None:
        notes.append(f'open question ({verdict.question.where}): "{verdict.question.quote}"')
    query = {
        "subcommand": "orthogonal",
        "family1": eq1.family.value,
        "params1": [format_param(p) for p in eq1.params],
        "family2": eq2.family.value,
        "params2": [format_param(p) for p in eq2.params],
    }
    payload = _response(query, verdicts, citations, notes)
    payload["applicability"] = verdict.applicability
    return payload, (3 if verdict.verdict is Verdict.OPEN else 0)


# -- verify -----------------------------------------------------------------------------


def _riccati_rows():
    rows = [(f"riccati-matched-alpha-{name}", format_fraction(verify_riccati(sign)), "pii_riccati", True)
            for name, sign in (("plus", 1), ("minus", -1))]
    return rows, [RICCATI_SIGN_NOTE]


def _pv_change_rows():
    report = verify_pv_change_of_variables()
    points, all_zero = pv_random_point_check(residuals=report.residuals)
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
    values = {}
    if text:
        for chunk in text.split(","):
            name, _, raw = chunk.partition("=")
            name = name.strip()
            if not _ or not name:
                raise InputError(f"bad atom assignment {chunk!r}; expected name=value")
            atom_value = parse_param(name)
            if atom_value.const != 0 or [c for _, c in atom_value.terms] != [1]:
                raise InputError(f"{name!r} is not a bare atom")
            atom = atom_value.terms[0][0]
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
            "family": eq.family.value,
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
        for atom, _ in p.terms:
            atoms[atom.name] = {"name": atom.name, "kind": _ATOM_KINDS[atom.kind]}
    payload = {
        "query": {"subcommand": "atoms", "params": args.params},
        "atoms": [atoms[k] for k in sorted(atoms)],
    }
    return payload, 0


# -- argument parsing ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple[argparse.ArgumentParser, set[str]]]]:
    """The parser, and each subcommand's own parser with its option strings;
    built once per process (parsing leaves the parsers unchanged)."""
    parser = argparse.ArgumentParser(
        prog="painleve",
        description="Exact classification, transformation-orbit, and verification "
        "queries for the six Painlevé families (JSON output).",
    )
    parser.add_argument("--batch", metavar="FILE", help="run one query per line of FILE")
    sub = parser.add_subparsers(dest="subcommand")
    subcommands = {}

    def add_parser(name: str, **kwargs):
        p, options = sub.add_parser(name, **kwargs), set()
        subcommands[name] = p, options
        return lambda *names, **kw: options.update(p.add_argument(*names, **kw).option_strings)

    arg = add_parser("classify", help="full classification report for one equation")
    arg("--family", required=True, help="I, II, III, IV, V, or VI")
    arg("--params", default="", help="comma-separated exact parameters, e.g. '1/2,tau1'")

    arg = add_parser("orbit", help="transformation-orbit relation between two parameter tuples")
    arg("--family", required=True)
    arg("--v", required=True, help="first parameter tuple")
    arg("--w", required=True, help="second parameter tuple")

    arg = add_parser("orthogonal", help="orthogonality verdict for two equations")
    arg("--family1", required=True)
    arg("--params1", default="")
    arg("--family2", required=True)
    arg("--params2", default="")

    arg = add_parser("verify", help="machine verification of the symbolic identities")
    arg("--target", required=True, choices=list(VERIFY_TARGETS))

    arg = add_parser(
        "integrate",
        help="fixed-step RK4 integration of a cataloged equation",
        description="Fixed-step RK4 integration. The CSV written by --out has "
        "columns: t, then one column per state component (e.g. t,y,y' for "
        "scalar charts, t,q,p for first-order systems); --out also writes the "
        "same trajectory as <out>.json.",
    )
    arg("--family", required=True)
    arg("--params", default="")
    arg("--initial", required=True, help="comma-separated initial state")
    arg("--t0", type=float, required=True)
    arg("--t1", type=float, required=True)
    arg("--step", type=float, required=True)
    arg("--form", default=None, help="chart: system (default), scalar, or QP")
    arg("--assign", default="", help="numeric atom values, e.g. 'tau1=3.14'")
    arg("--out", default=None, help="write trajectory CSV here (plus .json)")

    arg = add_parser("atoms", help="echo the atom environment of parameter strings")
    arg("--params", default="")

    return parser, subcommands


_DISPATCH = {
    "classify": _cmd_classify,
    "orbit": _cmd_orbit,
    "orthogonal": _cmd_orthogonal,
    "verify": _cmd_verify,
    "integrate": _cmd_integrate,
    "atoms": _cmd_atoms,
}


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
    i = 0
    while i < len(argv):
        arg = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if arg in _SIGNED_VALUE_OPTIONS and _is_negative_value(nxt):
            out.append(f"{arg}={nxt}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def _parse_args(argv: list[str], parser: argparse.ArgumentParser, subcommands: dict):
    """``parser.parse_args(argv)``; a subcommand given only its exact option strings goes to its own parser."""
    if argv and argv[0] in subcommands:
        sub, options = subcommands[argv[0]]
        if all(tok.partition("=")[0] in options for tok in argv[1:] if tok[:1] == "-"):
            args, extra = sub.parse_known_args(argv[1:])
            if not extra:
                args.subcommand = argv[0]
                return args
    return parser.parse_args(argv)


def _run_single(argv: Sequence[str], parser: argparse.ArgumentParser, subcommands: dict) -> tuple[dict | None, int]:
    args = _parse_args(_bind_negative_values(argv), parser, subcommands)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return None, 2
    try:
        return _DISPATCH[args.subcommand](args)
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
    parser, subcommands = _build_parser()
    if argv and argv[0] == "--batch":
        ns, rest = parser.parse_known_args(argv[:2])
        if rest:
            print("error: --batch takes no further arguments", file=sys.stderr)
            return 2
        worst = 0
        try:
            with open(ns.batch, encoding="utf-8") as fh:
                lines = [line.strip() for line in fh]
        except (OSError, UnicodeDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        for line in lines:
            if not line or line.startswith("#"):
                continue
            try:
                tokens = _split(line)
                # Help would go to stdout, which carries only JSON records here.
                if any(tok[:2] == "-h" or (len(tok) > 2 and "--help".startswith(tok)) for tok in tokens):
                    raise InputError("-h/--help is not accepted in a --batch line")
                payload, code = _run_single(tokens, parser, subcommands)
            except SystemExit as exc:  # argparse rejected the line
                payload, code = None, int(exc.code or 2)
            except ValueError as err:  # that help request, or an unclosed quote
                print(f"error: {err}", file=sys.stderr)
                payload, code = None, 2
            if payload is not None:
                print(json.dumps(payload, sort_keys=True))
            worst = 2 if 2 in (worst, code) and 4 not in (worst, code) else max(worst, code)
        return worst
    payload, code = _run_single(list(argv), parser, subcommands)
    if payload is not None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
