import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from oracles import dict_run, of_atom
from painleve import catalog, cli, diffpoly, numint, ortho, weyl
from painleve.catalog import Family, family_space
from painleve.cli import run
from painleve.exactnum import ParamValue, TriBool, alg, format_param, parse_param, tau

GOLDEN_DIR = Path(__file__).parent / "goldens"

# Query catalog for the golden-file suite: name -> argv.
GOLDEN_QUERIES = {
    "classify_pi": ["classify", "--family", "I", "--params", ""],
    "classify_pii_half": ["classify", "--family", "II", "--params", "1/2"],
    "classify_pii_generic": ["classify", "--family", "II", "--params", "tau1"],
    "classify_pii_integer": ["classify", "--family", "II", "--params", "3"],
    "classify_pii_unknown": ["classify", "--family", "II", "--params", "alg1 + alg2"],
    "classify_piii_d1": ["classify", "--family", "III", "--params", "0,0"],
    "classify_piii_generic": ["classify", "--family", "III", "--params", "2,1"],
    "classify_piii_murata4": ["classify", "--family", "III", "--params", "1,0"],
    "classify_piv_d": ["classify", "--family", "IV", "--params", "0,0,0"],
    "classify_piv_w": ["classify", "--family", "IV", "--params", "1/2,-1/2,0"],
    "classify_pv_d": ["classify", "--family", "V", "--params", "0,0,0,0"],
    "classify_pv_s2": ["classify", "--family", "V", "--params", "1/3,1/3,1/3,-1"],
    "classify_pvi_d": ["classify", "--family", "VI", "--params", "0,0,0,0"],
    "classify_pvi_l": ["classify", "--family", "VI", "--params", "1/3,0,0,0"],
    "classify_pvi_m_special": ["classify", "--family", "VI", "--params", "1/2,0,1/4,1/4"],
    "orbit_pii_quarter": ["orbit", "--family", "II", "--v", "1/4", "--w", "7/4"],
    "orbit_pii_generic_no": ["orbit", "--family", "II", "--v", "tau1", "--w", "tau2"],
    "orbit_piii_half_shift": [
        "orbit", "--family", "III", "--v", "tau1,tau2", "--w", "tau1 + 1/2, tau2 + 1/2",
    ],
    "orbit_pv_quarter": ["orbit", "--family", "V", "--v", "0,0,0,0", "--w", "1/4,1/4,1/4,-3/4"],
    "orbit_pvi_s5": [
        "orbit", "--family", "VI", "--v", "tau1,tau2,tau3,tau4",
        "--w", "-1*tau2 + 1, -1*tau1 + 1, tau3, tau4",
    ],
    "orthogonal_naggy1": [
        "orthogonal", "--family1", "II", "--params1", "tau1",
        "--family2", "IV", "--params2", "tau2,tau3,-1*tau2 - tau3",
    ],
    "orthogonal_naggy2": [
        "orthogonal", "--family1", "III", "--params1", "tau1,tau2",
        "--family2", "V", "--params2", "tau1,tau2,tau3,-1*tau1 - tau2 - tau3",
    ],
    "orthogonal_kernel1": [
        "orthogonal", "--family1", "II", "--params1", "3", "--family2", "II", "--params2", "tau1",
    ],
    "orthogonal_naggy_generic": [
        "orthogonal", "--family1", "II", "--params1", "tau1",
        "--family2", "VI", "--params2", "tau1,tau2,tau3,tau4",
    ],
    "orthogonal_orthofam3_half": [
        "orthogonal", "--family1", "II", "--params1", "1/2", "--family2", "III", "--params2", "tau1,tau2",
    ],
    "orthogonal_open": [
        "orthogonal", "--family1", "II", "--params1", "1/4", "--family2", "III", "--params2", "1/2,0",
    ],
    "verify_riccati": ["verify", "--target", "riccati"],
    "verify_group_relations": ["verify", "--target", "group-relations"],
    "verify_pv_change": ["verify", "--target", "pv-change"],
    "atoms_echo": ["atoms", "--params", "tau1 + 2*alg3, 1/2"],
}


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return (json.loads(out) if out.strip() else None), code


@pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
def test_golden_queries(name, capsys):
    payload, _ = run_json(GOLDEN_QUERIES[name], capsys)
    assert payload is not None
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REGEN_GOLDENS"):
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert path.exists(), f"golden file missing; run with REGEN_GOLDENS=1 to create {path}"
    assert payload == json.loads(path.read_text())


def _walk(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _walk(v)
    elif isinstance(value, list):
        for v in value:
            yield from _walk(v)
    else:
        yield value


@pytest.mark.parametrize(
    "name",
    sorted(n for n in GOLDEN_QUERIES if n.split("_")[0] in ("classify", "orbit", "orthogonal")),
)
def test_exact_outputs_contain_no_floats(name, capsys):
    payload, _ = run_json(GOLDEN_QUERIES[name], capsys)
    assert not any(isinstance(leaf, float) for leaf in _walk(payload))


@pytest.mark.parametrize(
    "name",
    sorted(n for n in GOLDEN_QUERIES if n.split("_")[0] in ("classify", "orbit", "orthogonal")),
)
def test_every_verdict_carries_citation_or_open_tag(name, capsys):
    payload, _ = run_json(GOLDEN_QUERIES[name], capsys)
    assert payload["verdicts"], "response must carry verdicts"
    for verdict in payload["verdicts"]:
        citation = verdict["citation"]
        if citation == "open-question":
            continue
        assert isinstance(citation, dict)
        assert citation["quote"]
        assert citation["where"]


def test_schema_top_level_fields(capsys):
    payload, code = run_json(GOLDEN_QUERIES["classify_pii_half"], capsys)
    assert code == 0
    for field in ("query", "verdicts", "citations", "notes", "ambiguities"):
        assert field in payload


# -- exit codes ---------------------------------------------------------------------


def test_exit_code_success(capsys):
    _, code = run_json(["classify", "--family", "II", "--params", "1/2"], capsys)
    assert code == 0


def test_exit_code_input_error(capsys):
    code = run(["classify", "--family", "IV", "--params", "1,1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "sum to zero" in captured.err


def test_exit_code_syntax_error_position(capsys):
    code = run(["classify", "--family", "II", "--params", "1//2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "position" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--family", "IV", "--params", "1/2,1/3,x"], "unexpected character 'x' (at position 8)"),
        (["classify", "--family", "IV", "--params", " 1/2, x,0"], "unexpected character 'x' (at position 6)"),
        (["orbit", "--family", "II", "--v", "1/3", "--w", "1//2"], "expected a denominator (at position 2)"),
        (["classify", "--family", "IV", "--params", "1/2,1/3,"], "empty parameter expression (at position 8)"),
        (["integrate", "--family", "II", "--params", "tau1", "--assign", "tau1=1, x2=3", "--initial", "0.1,0.2",
          "--t0", "1", "--t1", "1.1", "--step", "0.05"], "unexpected character 'x' (at position 8)"),
    ],
)
def test_syntax_error_position_counts_from_the_option_value(argv, message, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_syntax_error_position_in_a_batch_line(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text('classify --family IV --params "1/2,1/3,x"\norbit --family II --v=1/3 --w=tau1+y\n')
    assert run(["--batch", str(batch)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unexpected character 'x' (at position 8)",
        "error: unexpected character 'y' (at position 5)",
    ]


def test_failed_word_check_is_an_internal_error(monkeypatch, capsys):
    # A walk that spells a wrong word is a bug, not a proof that no word exists.
    from painleve import weyl

    monkeypatch.setattr(weyl, "_alcove_word", lambda *args: ("s1",))
    assert run(["orbit", "--family", "IV", "--v", "0,0,0", "--w", "0,1,-1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: WordCheckError: ")


def test_exit_code_unknown_dominated(capsys):
    _, code = run_json(["classify", "--family", "II", "--params", "alg1 + alg2"], capsys)
    assert code == 3
    _, code = run_json(["orbit", "--family", "II", "--v", "alg1", "--w", "alg2"], capsys)
    assert code == 3
    _, code = run_json(GOLDEN_QUERIES["orthogonal_open"], capsys)
    assert code == 3


def test_exit_code_missing_subcommand(capsys):
    assert run([]) == 2


# -- semantic spot checks on the JSON ----------------------------------------------------


def test_classify_pii_half_json_values(capsys):
    payload, _ = run_json(GOLDEN_QUERIES["classify_pii_half"], capsys)
    verdicts = {v["kind"]: v for v in payload["verdicts"]}
    assert verdicts["morley-degree"]["value"] == 2
    assert [c["label"] for c in verdicts["components"]["value"]] == ["generic", "riccati R(alpha)"]
    assert verdicts["algebraic-solutions"]["value"] == 0
    assert "Morley rank one and Morley degree two" in verdicts["morley-degree"]["citation"]["quote"]


def test_orbit_pv_json_values(capsys):
    payload, _ = run_json(GOLDEN_QUERIES["orbit_pv_quarter"], capsys)
    verdicts = {v["kind"]: v for v in payload["verdicts"]}
    assert verdicts["related"]["value"] == "yes"
    assert payload["witness"]["quarter_shift"] == 1
    assert payload["word"] is not None
    assert any("tminus" in token for token in payload["word"])
    assert payload["witness"]["shift"] == ["1/4", "1/4", "1/4", "-3/4"]


def test_orbit_piii_reports_missing_word(capsys):
    payload, _ = run_json(GOLDEN_QUERIES["orbit_piii_half_shift"], capsys)
    assert payload["word"] is None
    assert payload["word_reason"] == "NoWordFound"
    assert {v["kind"]: v["value"] for v in payload["verdicts"]}["related"] == "yes"


def test_orthogonal_citations(capsys):
    payload, _ = run_json(GOLDEN_QUERIES["orthogonal_naggy1"], capsys)
    assert payload["verdicts"][0]["value"] == "orthogonal"
    assert payload["verdicts"][0]["citation"]["key"] == "naggy1"
    payload, _ = run_json(GOLDEN_QUERIES["orthogonal_open"], capsys)
    assert payload["verdicts"][0]["value"] == "open"
    assert payload["verdicts"][0]["citation"] == "open-question"


def test_verify_riccati_json(capsys):
    payload, code = run_json(GOLDEN_QUERIES["verify_riccati"], capsys)
    assert code == 0
    values = {v["kind"]: v["value"] for v in payload["verdicts"]}
    assert values["riccati-matched-alpha-plus"] == "1/2"
    assert values["riccati-matched-alpha-minus"] == "-1/2"
    assert payload["ambiguities"]


def test_verify_pv_change_json(capsys):
    payload, code = run_json(GOLDEN_QUERIES["verify_pv_change"], capsys)
    assert code == 0
    values = {v["kind"]: v["value"] for v in payload["verdicts"]}
    assert values["chart-identity-q"] is True
    assert values["chart-identity-p"] is True
    assert values["random-point-check"] == {"points": 25, "all_zero": True}


def test_verify_pv_change_failed_random_point_check_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "pv_random_point_check", lambda: (25, False))
    payload, code = run_json(GOLDEN_QUERIES["verify_pv_change"], capsys)
    assert code == 3
    values = {v["kind"]: v["value"] for v in payload["verdicts"]}
    assert values["random-point-check"] == {"points": 25, "all_zero": False}
    assert values["chart-identity-q"] is True


def test_verify_pv_change_failed_chart_identity_exits_3(monkeypatch, capsys):
    verify = cli.verify_pv_change_of_variables
    monkeypatch.setattr(cli, "verify_pv_change_of_variables", lambda: verify()._replace(identity_q=False))
    payload, code = run_json(GOLDEN_QUERIES["verify_pv_change"], capsys)
    assert code == 3
    values = {v["kind"]: v["value"] for v in payload["verdicts"]}
    assert values["chart-identity-q"] is False
    assert values["chart-identity-p"] is True


def test_verify_group_relations_failed_relation_exits_3(monkeypatch, capsys):
    last = catalog.GROUP_RELATIONS[-1]
    monkeypatch.setattr(cli, "verify_group_relation", lambda family, word, expected: word != last.word)
    payload, code = run_json(GOLDEN_QUERIES["verify_group_relations"], capsys)
    assert code == 3
    assert [v["value"] for v in payload["verdicts"]] == [True, True, False]


def _overwrite(expr, new):
    """Give a cached ``DiffExpr`` the value of ``new``, in place."""
    expr.num, expr.den = new.num, new.den


@pytest.fixture
def verify_tables():
    """Clears diffpoly's per-process verify tables after a test overwrites them."""
    yield
    for table in (diffpoly._pv_residuals, diffpoly._pv_plans, diffpoly._riccati_tables):
        table.cache_clear()


def test_pv_change_checks_the_cached_residuals_on_every_query(verify_tables, tmp_path, capsys):
    # A clean query first, so that every table (and any memo of a row or a
    # record) is built from the true residuals; then the cached q residual
    # becomes residual + 1, and the random-point plans are rebuilt from it.
    assert run_json(GOLDEN_QUERIES["verify_pv_change"], capsys)[1] == 0
    res_q = diffpoly._pv_residuals()[0]
    _overwrite(res_q, res_q + 1)
    diffpoly._pv_plans.cache_clear()
    payload, code = run_json(GOLDEN_QUERIES["verify_pv_change"], capsys)
    assert code == 3
    values = {v["kind"]: v["value"] for v in payload["verdicts"]}
    assert values == {
        "chart-identity-q": False, "chart-identity-p": True, "random-point-check": {"points": 25, "all_zero": False},
    }
    batch = tmp_path / "verify.txt"
    batch.write_text("verify --target pv-change\n" * 2)
    assert run(["--batch", str(batch)]) == 3
    records = capsys.readouterr().out.splitlines()
    assert len(records) == 2 and json.loads(records[1]) == payload


def test_riccati_reduces_the_cached_target_on_every_query(verify_tables, capsys):
    assert run_json(GOLDEN_QUERIES["verify_riccati"], capsys)[1] == 0
    _, target = diffpoly._riccati_tables(1)
    _overwrite(target, target + 1)
    payload, code = run_json(GOLDEN_QUERIES["verify_riccati"], capsys)
    assert code == 0  # the alphas are reported, not compared (RICCATI_SIGN_NOTE)
    values = {v["kind"]: v["value"] for v in payload["verdicts"]}
    assert values == {"riccati-matched-alpha-plus": "3/2", "riccati-matched-alpha-minus": "-1/2"}


def test_repeated_verify_lines_give_their_golden_records(tmp_path, capsys):
    batch = tmp_path / "verify.txt"
    batch.write_text("".join(f"verify --target {name}\n" * 3 for name in cli.VERIFY_TARGETS))
    assert run(["--batch", str(batch)]) == 0
    records = capsys.readouterr().out.splitlines()
    assert len(records) == 3 * len(cli.VERIFY_TARGETS)
    for k, name in enumerate(cli.VERIFY_TARGETS):
        golden = json.loads((GOLDEN_DIR / f"verify_{name.replace('-', '_')}.json").read_text())
        assert records[3 * k:3 * k + 3] == [json.dumps(golden, sort_keys=True)] * 3


def _subparsers():
    """Each subcommand's argparse parser, from the parser built off the table."""
    (action,) = [a for a in cli._build_parser()._actions if a.dest == "subcommand"]
    return action.choices


def test_verify_targets_are_the_parser_choices_and_have_goldens():
    (target,) = [a for a in _subparsers()["verify"]._actions if "--target" in a.option_strings]
    assert list(target.choices) == list(cli.VERIFY_TARGETS)
    for name in cli.VERIFY_TARGETS:
        assert GOLDEN_QUERIES[f"verify_{name.replace('-', '_')}"] == ["verify", "--target", name]


def test_input_errors_share_one_base_class():
    from painleve import diffpoly, exactnum, weyl

    for error in (exactnum.ParamSyntaxError, catalog.UnknownFamilyError, catalog.UnsupportedFamilyError,
                  catalog.InvalidEquationError, catalog.NumericInputError, catalog.SingularIntervalError,
                  catalog.StepBudgetError, catalog.MissingAtomError):
        assert issubclass(error, exactnum.InputError), error
    for error in (diffpoly.ExponentOverflowError, diffpoly.RedrawBudgetError, weyl.NoGeneratorsError):
        assert not issubclass(error, exactnum.InputError), error


def test_every_atom_kind_has_an_atoms_label():
    from painleve.exactnum import AtomKind

    assert set(cli._ATOM_KINDS) == set(AtomKind)


def test_integrate_cli(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(
        [
            "integrate", "--family", "II", "--params=-1/2",
            "--initial", "0.3,-0.59", "--t0", "1.0", "--t1", "1.5",
            "--step", "0.001", "--out", str(out),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "completed"
    assert payload["samples"] == 501
    assert payload["residual"]["value"] < 1e-6
    assert out.exists()
    assert (tmp_path / "traj.csv.json").exists()


def test_integrate_with_atom_assignment(capsys):
    code = run(
        [
            "integrate", "--family", "II", "--params", "tau1",
            "--initial", "0.1,0.0", "--t0", "1.0", "--t1", "1.2",
            "--step", "0.01", "--assign", "tau1=0.25",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "completed"


def test_integrate_singular_interval_is_input_error(capsys):
    code = run(
        [
            "integrate", "--family", "III", "--params", "1,0",
            "--initial", "1.0,1.0", "--t0", "-1.0", "--t1", "1.0", "--step", "0.01",
        ]
    )
    assert code == 2
    assert "singular" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("option", ["--t0", "--t1", "--step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_integrate_non_finite_interval_is_input_error(option, value, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("integrate ran on a non-finite interval")

    monkeypatch.setattr(numint, "integrate", no_work)
    times = {"--t0": "1.0", "--t1": "1.5", "--step": "0.01"}
    times[option] = value
    argv = ["integrate", "--family", "II", "--params", "0", "--initial", "0.1,0.2"]
    for name, text in times.items():
        argv.append(f"{name}={text}")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be a finite number")


def test_integrate_unwritable_out_is_input_error_in_batch(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    missing = tmp_path / "missing" / "traj.csv"
    batch.write_text(
        "integrate --family II --params 0 --initial 0.1,0.2 --t0 1.0 --t1 1.1 --step 0.01"
        f" --out {missing}\n"
        'classify --family II --params "1/2"\n'
    )
    code = run(["--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2
    records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    assert [r["query"]["subcommand"] for r in records] == ["classify"]
    assert captured.err.startswith("error: cannot write --out")
    assert "Traceback" not in captured.err


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "\n".join(
            [
                "# comment lines and blanks are skipped",
                "",
                'classify --family II --params "1/2"',
                'orbit --family II --v "1/4" --w "7/4"',
                'orthogonal --family1 II --params1 "1/4" --family2 III --params2 "1/2,0"',
            ]
        )
    )
    code = run(["--batch", str(batch)])
    out_lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert len(out_lines) == 3
    parsed = [json.loads(line) for line in out_lines]
    assert parsed[0]["query"]["subcommand"] == "classify"
    assert code == 3  # the open verdict dominates


def test_batch_mode_reports_input_errors(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text('classify --family IV --params "1,1,1"\nclassify --family II --params "0"\n')
    code = run(["--batch", str(batch)])
    assert code == 2
    out_lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert len(out_lines) == 1  # the valid line still ran


LONG_NUMERAL = "1" * 5000
# Five runs of 1,000 digits whose sum has a 5,000-digit reduced denominator.
LONG_SUM = " + ".join(f"1/{10**999 + k}" for k in (1, 3, 7, 9, 13))


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--family", "II", "--params", LONG_NUMERAL],
        ["atoms", "--params", "tau" + LONG_NUMERAL],
        ["integrate", "--family", "II", "--params", "tau1", "--assign", f"tau{LONG_NUMERAL}=1",
         "--initial", "0.1,0.2", "--t0", "1", "--t1", "1.1", "--step", "0.05"],
        ["classify", "--family", "II", "--params", LONG_SUM],
        ["orbit", "--family", "II", "--v", LONG_SUM, "--w", "0"],
    ],
)
def test_long_numeral_is_input_error(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: more than 1000 digits (at position ")


def test_long_numeral_in_batch_is_input_error(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    for params in (LONG_NUMERAL, f"'{LONG_SUM}'"):
        batch.write_text(f"classify --family II --params {params}\natoms --params tau1\n")
        assert run(["--batch", str(batch)]) == 2
        captured = capsys.readouterr()
        assert [json.loads(r)["query"]["subcommand"] for r in captured.out.splitlines()] == ["atoms"]
        assert captured.err == "error: more than 1000 digits (at position 0)\n"


def test_many_atoms_answer_in_bounded_time(capsys):
    # Scaling values into integer rows is linear in their distinct atoms;
    # with a list lookup per atom these two queries took most of a minute.
    start = time.perf_counter()
    params = " + ".join(f"tau{k}" for k in range(1, 20_001))
    payload, code = run_json(["classify", "--family", "II", "--params", params], capsys)
    assert code == 0
    assert {v["kind"]: v["value"] for v in payload["verdicts"]}["stratum"] == "generic"
    taus = " + ".join(f"tau{k}" for k in range(1, 8_001))
    rest = "-1*alg1 - " + taus.replace(" + ", " - ")
    payload, code = run_json(["orbit", "--family", "IV", "--v", f"{taus},alg1,{rest}",
                              "--w", f"{taus} + 1,alg1 - 1,{rest}"], capsys)
    assert code == 0
    assert payload["witness"]["integer_shift"] == [1, -1, 0]
    assert time.perf_counter() - start < 10.0


def test_batch_missing_file(capsys):
    assert run(["--batch", "/nonexistent/queries.txt"]) == 2


@pytest.mark.parametrize("extra", [["extra"], ["classify", "--family", "II"], ["--batch", "other.txt"]])
def test_batch_takes_no_further_arguments(extra, tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text("atoms --params tau1\n")
    for argv in (["--batch", str(batch), *extra], [f"--batch={batch}", *extra]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: --batch takes no further arguments\n")


def test_batch_equals_file_runs_like_batch_file(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text("classify --family II --params 1/2\norbit --family II --v 1/4 --w 7/4\n")
    assert run(["--batch", str(batch)]) == 0
    separate = capsys.readouterr()
    assert run([f"--batch={batch}"]) == 0
    assert capsys.readouterr() == separate
    assert len(separate.out.splitlines()) == 2


@pytest.mark.parametrize("option", ["--b", "--ba", "--bat", "--batc"])
def test_batch_abbreviations_run_like_batch(option, tmp_path, capsys):
    # argparse reads each of these as --batch; so does run().
    batch = tmp_path / "queries.txt"
    batch.write_text("classify --family II --params 1/2\norbit --family II --v 1/4 --w 7/4\n")
    assert run(["--batch", str(batch)]) == 0
    full = capsys.readouterr()
    assert len(full.out.splitlines()) == 2
    for argv in ([option, str(batch)], [f"{option}={batch}"]):
        assert cli._build_parser().parse_args(argv).batch == str(batch)
        assert run(argv) == 0
        assert capsys.readouterr() == full
    assert run([option, str(batch), "extra"]) == 2
    assert capsys.readouterr() == ("", "error: --batch takes no further arguments\n")


# Each "--opt=--" takes the text "--" as its value on every Python, as
# argparse 3.13 does (earlier versions store []): answered by the table
# reader, by argparse for an argv the reader declines, and in a --batch line.
DOUBLE_DASH_VALUES = {
    "params": (["classify", "--family", "II", "--params=--"], "expected a number (at position 1)"),
    "atoms": (["atoms", "--params=--"], "expected a number (at position 1)"),
    "v": (["orbit", "--family", "II", "--v=--", "--w", "1"], "expected a number (at position 1)"),
    "family": (["classify", "--family=--"], "unknown family '--'; expected one of I, II, III, IV, V, VI"),
    "repeated": (["classify", "--family", "II", "--params", "1", "--params=--"], "expected a number (at position 1)"),
}


@pytest.mark.parametrize("name", DOUBLE_DASH_VALUES)
def test_option_equals_double_dash_is_the_text(name, tmp_path, capsys):
    argv, message = DOUBLE_DASH_VALUES[name]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    batch = tmp_path / "queries.txt"
    batch.write_text(shlex.join(argv) + "\natoms --params tau1\n")
    assert run(["--batch", str(batch)]) == 2
    out, err = capsys.readouterr()
    assert (len(out.splitlines()), err) == (1, f"error: {message}\n")


INTEGRATE_ARGV = [
    "integrate", "--family", "II", "--params", "1/2", "--initial", "0.2,0.1", "--t0", "1", "--t1", "1.1", "--step", "0.01",
]


@pytest.mark.parametrize("argv", [["verify", "--target=--"], [*INTEGRATE_ARGV[:7], "--t0=--", *INTEGRATE_ARGV[9:]]])
def test_typed_option_equals_double_dash_is_rejected(argv, capsys):
    # argparse before 3.13 stored [] here unchecked; now '--' fails its type or choices.
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "'--'" in capsys.readouterr().err.splitlines()[-1]


def test_out_equals_double_dash_writes_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run([*INTEGRATE_ARGV, "--out=--"]) == 0
    assert json.loads(capsys.readouterr().out)["csv"] == "--"
    assert (tmp_path / "--").read_text().startswith("t,")
    assert (tmp_path / "--.json").exists()


def test_valid_queries_do_not_import_argparse(tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "classify --family II --params 1/2\norbit --family II --v -1/4 --w=7/4\n"
        "orthogonal --family1 II --params1 tau1 --family2 IV --params2 'tau2,tau3,-1*tau2 - tau3'\n"
        "verify --target riccati\natoms --params tau1\n"
        f"integrate --family II --params 1/2 --initial 0.2,0.1 --t0 1 --t1 1.1 --step 0.01 --out {tmp_path / 't.csv'}\n"
    )
    out = _run_python(
        "import contextlib, io, sys\n"
        "from painleve import cli\n"
        "records = io.StringIO()\n"
        "with contextlib.redirect_stdout(records):\n"
        f"    assert cli.run(['--batch', {str(batch)!r}]) == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['classify', '--family', 'VI', '--params', '1/2,0,1/4,1/4']) == 0\n"
        "print(len(records.getvalue().splitlines()), 'argparse' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['classify', '--fam', 'II', '--par', '1/2']) == 0\n"
        "print('argparse' in sys.modules)\n"
    )
    # An abbreviated option still works, through argparse.
    assert out.splitlines()[-2:] == ["6 False", "True"]


@pytest.mark.parametrize("line", ["classify --help", "orbit -h", "--help", "integrate --he",
                                  "classify --family II --params 1/2 -h", "classify '-'h", "atoms \"--\"he\\lp"])
def test_batch_help_line_is_input_error(line, tmp_path, capsys):
    # argparse would print the help text, which is not JSON, to stdout.
    batch = tmp_path / "queries.txt"
    batch.write_text(f"{line}\natoms --params tau1\n")
    assert run(["--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert [json.loads(r)["query"]["subcommand"] for r in captured.out.splitlines()] == ["atoms"]
    assert captured.err == "error: -h/--help is not accepted in a --batch line\n"


def test_help_outside_batch_still_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: painleve classify")


def test_batch_line_with_unclosed_quote_is_input_error(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text('classify --family II --params "1/2\natoms --params tau1\n')
    assert run(["--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert [json.loads(r)["query"]["subcommand"] for r in captured.out.splitlines()] == ["atoms"]
    assert captured.err == "error: No closing quotation\n"


def test_batch_file_not_utf8_is_input_error(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_bytes(b"classify --family II --params 1/3\n\xff\n")
    assert run(["--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in captured.err


# -- the batch front end against shlex and the top-level parser ---------------------------------

_LINE_CHARS = st.sampled_from([" ", "\t", "\r", "\x0b", "\x0c", "\xa0", "#", "=", "-", "a", "1", "/", ",", "é"])
_QUOTE_CHARS = st.sampled_from(["'", '"', "\\"])


def _shlex_outcome(split, line):
    try:
        return split(line)
    except ValueError as err:
        return f"ValueError: {err}"


@given(st.lists(_LINE_CHARS, max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_split_matches_shlex_on_quote_free_lines(line):
    assert cli._split(line) == shlex.split(line)


@given(st.lists(st.one_of(_LINE_CHARS, _QUOTE_CHARS), max_size=20).map("".join))
@settings(max_examples=200, deadline=None)
def test_split_matches_shlex_on_any_line(line):
    assert _shlex_outcome(cli._split, line) == _shlex_outcome(shlex.split, line)


def test_shlex_runs_only_for_lines_with_quotes_or_escapes(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "classify --family VI --params 1/2,0,1/4,1/4\n"
        'classify --family VI --params "1/2,0,1/4,1/4"\n'
        "atoms --params tau1\\ +\\ tau2\n"
        "classify --family II --params '1/2\n"
    )
    with mock.patch.object(cli.shlex, "split", wraps=shlex.split) as split:
        assert run(["--batch", str(batch)]) == 2
    assert [c.args[0] for c in split.call_args_list] == [
        'classify --family VI --params "1/2,0,1/4,1/4"', "atoms --params tau1\\ +\\ tau2",
        "classify --family II --params '1/2",
    ]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[0] == out[1]


def test_plain_batch_lines_skip_the_top_level_parse(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "classify --family II --params=1/2\norbit --family II --v -1/2 --w 3/2\n"
        "orthogonal --family1 II --params1 tau1 --family2 III --params2 tau1,tau2\n"
        "classify --fam I\n"
    )
    parse_args = argparse.ArgumentParser.parse_args
    with mock.patch.object(argparse.ArgumentParser, "parse_args", autospec=True, side_effect=parse_args) as top:
        assert run(["--batch", str(batch)]) == 0
    # Only the abbreviated option needs the top-level parser.
    assert [c.args[1] for c in top.call_args_list] == [["classify", "--fam", "I"]]
    assert len(capsys.readouterr().out.splitlines()) == 4


_SUBCOMMAND_OPTIONS = {
    "classify": ["--family", "--params"],
    "orbit": ["--family", "--v", "--w"],
    "orthogonal": ["--family1", "--params1", "--family2", "--params2"],
    "verify": ["--target"],
    "integrate": ["--family", "--params", "--initial", "--t0", "--t1", "--step", "--form", "--assign", "--out"],
    "atoms": ["--params"],
}
_ALL_OPTIONS = sorted({o for opts in _SUBCOMMAND_OPTIONS.values() for o in opts})
_ODD_OPTIONS = ["--fam", "--par", "--t", "--", "-x", "--=x", "--batch", "--batch=x", "-", "-h", "--help", "--he",
                "--family3"]
# "--" as a value: argparse before 3.13 reads "--opt=--" as an empty list.
_VALUES = ["II", "VI", "1/2", "-1/2", "tau1,alg1", "riccati", "bogus", "0.5", "-inf", "x y", "", "o/t.csv", "--"]
_REQUIRED = {name: [row[0] for row in rows if row[2]] for name, (*_, rows) in cli._COMMANDS.items()}
# Values the reader must take or leave exactly as argparse does: floats that
# overflow, are not a number or carry an underscore, and a value outside the
# choices.
_PAIRS = [["--t0", "1e400"], ["--t0", "nan"], ["--t0", "1_0"], ["--t0=1_0"], ["--target", "bogus"]]
_WHOLE_QUERY_VALUES = {
    "--target": ["riccati", "bogus"],
    **dict.fromkeys(["--t0", "--t1", "--step"], ["0.5", "1e400", "nan", "1_0", "-1e-3", "x"]),
}


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    # repr, so that a nan value equals itself
    return "args", {k: repr(v) for k, v in vars(args).items() if k != "batch"}, out.getvalue(), err.getvalue()


@st.composite
def _argv(draw):
    subcommand = draw(st.sampled_from([*_SUBCOMMAND_OPTIONS, "nosuch", "-x", "--batch", "--batch=x"]))
    own = _SUBCOMMAND_OPTIONS.get(subcommand, _ALL_OPTIONS)
    tokens, extra = [subcommand], 8
    if subcommand in _REQUIRED and draw(st.booleans()):  # a whole query, then a few more tokens
        for option in draw(st.permutations(_REQUIRED[subcommand])):
            value = draw(st.sampled_from(_WHOLE_QUERY_VALUES.get(option, ["II", "-1/2", "tau1,alg1", "--"])))
            tokens += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
        extra = 2
    for _ in range(draw(st.integers(0, extra))):
        kind = draw(st.integers(0, 17))
        if kind < 8:  # an option of this subcommand with its value
            tokens += [draw(st.sampled_from(own)), draw(st.sampled_from(_VALUES))]
        elif kind < 11:
            tokens.append(f"{draw(st.sampled_from(own))}={draw(st.sampled_from(_VALUES))}")
        elif kind < 13:  # a value missing, or an extra positional
            tokens.append(draw(st.sampled_from(_VALUES + own)))
        elif kind == 13:
            tokens.append(draw(st.sampled_from(_ALL_OPTIONS)))
        elif kind == 14 and len(tokens) > 1:  # a repeated option
            option = draw(st.sampled_from([t for t in tokens[1:] if t in own] or own))
            tokens += [option, draw(st.sampled_from(_VALUES))]
        elif kind == 15:
            tokens += draw(st.sampled_from(_PAIRS))
        else:
            tokens.append(draw(st.sampled_from(_ODD_OPTIONS)))
    return tokens


@given(_argv())
@settings(max_examples=400, deadline=None)
def test_direct_dispatch_matches_top_level_parser(argv):
    # The table reader, with argparse for what it declines, against argparse alone.
    parser = cli._build_parser()
    reference = _parse_outcome(lambda a: parser.parse_args(cli._bind_negative_values(a)), argv)
    assert _parse_outcome(cli._parse_args, argv) == reference
    if cli._read_args(argv) is not None:
        assert reference[0] == "args"


def test_subcommand_option_strings_match_the_parsers():
    table = {name: sorted(row[0] for row in options) for name, (*_, options) in cli._COMMANDS.items()}
    assert table == {name: sorted(options) for name, options in _SUBCOMMAND_OPTIONS.items()}
    assert {
        name: sorted(o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, sub in _subparsers().items()
    } == table


SRC_DIR = Path(__file__).parent.parent / "src"


def run_subprocess(argv, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC_DIR))
    return subprocess.run(
        [sys.executable, "-m", "painleve.cli", *argv], env=env, capture_output=True, timeout=60
    )


def test_parser_is_built_once_and_answers_like_a_fresh_process(monkeypatch, capsys):
    # A rejected line, then a valid one, from the parser every call shares.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._build_parser() is cli._build_parser()
    rejected = ["classify", "--family"]
    valid = ["orbit", "--family", "V", "--v", "0,0,0,0", "--w", "1/4,1/4,1/4,-3/4"]
    with pytest.raises(SystemExit) as exc:
        cli.run(rejected)
    outcomes = [(exc.value.code, *capsys.readouterr())]
    outcomes.append((cli.run(valid), *capsys.readouterr()))
    fresh = [run_subprocess(argv) for argv in (rejected, valid)]
    assert outcomes == [(p.returncode, p.stdout.decode(), p.stderr.decode()) for p in fresh]
    assert outcomes[0][0] == 2 and outcomes[1][0] == 0


# Each query with its leading negative value written as a separate argument;
# the "--opt=value" form of the same query is the reference.
SEPARATE_NEGATIVE_VALUES = {
    "params": ["classify", "--family", "II", "--params", "-1/2"],
    "params-atom": ["classify", "--family", "VI", "--params", "-1*tau1,-1/2,1/3,1/5"],
    "v-w": ["orbit", "--family", "IV", "--v", "-1/3,1/3,0", "--w", "-2/3,1/3,1/3"],
    "params1-params2": [
        "orthogonal", "--family1", "II", "--params1", "-1/3", "--family2", "II", "--params2", "-4/3",
    ],
    "initial": [
        "integrate", "--family", "II", "--params", "1/4", "--initial", "-0.1,0.2",
        "--t0", "1.0", "--t1", "1.1", "--step", "0.01",
    ],
    "t0-t1": [
        "integrate", "--family", "II", "--params", "0", "--initial", "0.1,0.2",
        "--t0", "-1e-3", "--t1", "-1e-4", "--step", "1e-5",
    ],
    "t0": [
        "integrate", "--family", "II", "--params", "0", "--initial", "0.1,0.2",
        "--t0", "-1e-3", "--t1", "0.1", "--step", "0.01",
    ],
}


def _joined(argv):
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize("name", sorted(SEPARATE_NEGATIVE_VALUES))
def test_separate_negative_value(name, capsys):
    argv = SEPARATE_NEGATIVE_VALUES[name]
    payload, code = run_json(argv, capsys)
    assert code in (0, 3)
    assert (payload, code) == run_json(_joined(argv), capsys)


def test_separate_negative_step_reaches_the_step_check(capsys):
    code = run([
        "integrate", "--family", "II", "--params", "0", "--initial", "0.1,0.2",
        "--t0", "0", "--t1", "0.1", "--step", "-1e-2",
    ])
    assert code == 2
    assert "step must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--t0", "--t1"])
def test_separate_negative_infinity_reaches_the_finite_check(option, capsys):
    times = {"--t0": "0", "--t1": "0.1", "--step": "0.01"}
    times[option] = "-inf"
    argv = ["integrate", "--family", "II", "--params", "0", "--initial", "0.1,0.2"]
    for name, text in times.items():
        argv += [name, text]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} must be a finite number, got -inf\n"


def test_separate_negative_infinity_in_batch(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "integrate --family II --params 0 --initial 0.1,0.2 --t0 -inf --t1 0.1 --step 0.01\n"
        "classify --family II --params -1/2\n"
    )
    assert run(["--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    assert [r["query"]["subcommand"] for r in records] == ["classify"]
    assert captured.err == "error: --t0 must be a finite number, got -inf\n"


@pytest.mark.parametrize(
    "options, message",
    [
        (["--params", "tau1", "--assign", "tau1=nan", "--initial", "0.1,0.2"], "atom tau1 must be a finite number, got nan"),
        (["--params", "tau1", "--assign", "tau1=inf", "--initial", "0.1,0.2"], "atom tau1 must be a finite number, got inf"),
        (["--params", "0", "--initial", "nan,0"], "initial state must be finite, got [nan, 0.0]"),
        (["--params", "0", "--initial", "inf,0"], "initial state must be finite, got [inf, 0.0]"),
    ],
)
def test_non_finite_integrate_values_exit_2(options, message, capsys):
    argv = ["integrate", "--family", "II", *options, "--t0", "0", "--t1", "0.1", "--step", "0.01"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("assign", ["2*tau1=0.5", "-1*tau1=0.5"])
def test_assign_with_a_coefficient_is_not_a_bare_atom(assign, tmp_path, capsys):
    query = ["integrate", "--family", "II", "--params", "tau1", "--initial", "0.1,0.2",
             "--t0", "0", "--t1", "0.1", "--step", "0.01", f"--assign={assign}"]
    assert run(query) == 2
    batch = tmp_path / "queries.txt"
    batch.write_text(shlex.join(query) + "\n")
    assert run(["--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {assign.partition('=')[0]!r} is not a bare atom\n" * 2


@pytest.mark.parametrize("assign", ["tau1=0.5,tau1=3", "tau1=0.5, tau1=0.5"])
def test_assign_repeating_an_atom_is_an_input_error(assign, tmp_path, capsys):
    query = ["integrate", "--family", "II", "--params", "tau1", "--initial", "0.1,0.2",
             "--t0", "0", "--t1", "0.1", "--step", "0.01", "--assign", assign]
    assert run(query) == 2
    batch = tmp_path / "queries.txt"
    batch.write_text(shlex.join(query) + "\n")
    assert run(["--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: atom tau1 is assigned twice\n" * 2


def test_non_finite_integrate_values_in_batch(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "integrate --family II --params tau1 --assign tau1=nan --initial 0.1,0.2 --t0 0 --t1 0.1 --step 0.01\n"
        "integrate --family II --params 0 --initial nan,0 --t0 0 --t1 0.1 --step 0.01\n"
        "classify --family II --params -1/2\n"
    )
    assert run(["--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    assert [r["query"]["subcommand"] for r in records] == ["classify"]
    assert captured.err.count("error: ") == 2


def test_separate_negative_value_in_batch(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "classify --family II --params -1/2\n"
        "orbit --family II --v -1/4 --w 7/4\n"
        "orthogonal --family1 II --params1 -1/3 --family2 II --params2 -4/3\n"
        "integrate --family II --params 1/4 --initial -0.1,0.2 --t0 1.0 --t1 1.1 --step 0.01\n"
        "integrate --family II --params 0 --initial 0.1,0.2 --t0 -1e-3 --t1 0.1 --step 0.01\n"
    )
    code = run(["--batch", str(batch)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert code == 0
    assert [r["query"]["subcommand"] for r in records] == [
        "classify", "orbit", "orthogonal", "integrate", "integrate",
    ]
    assert records[0]["query"]["params"] == ["-1/2"]
    assert records[1]["query"]["v"] == ["-1/4"]
    assert records[2]["query"]["params1"] == ["-1/3"]
    assert records[4]["query"]["t0"] == -1e-3


def test_integrate_step_budget_is_input_error():
    proc = run_subprocess(
        ["integrate", "--family", "II", "--params", "0", "--initial", "0.1,0.2",
         "--t0", "1", "--t1", "2", "--step", "1e-300"]
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"steps" in proc.stderr


def test_orbit_word_is_independent_of_hash_seed():
    # Atoms hash differently between runs; the word must not follow the
    # hashes.  Both s1 s4 and s4 s1 are shortest here.
    argv = ["orbit", "--family", "VI", "--v", "1/4,alg3 + 9/4,-1*tau1 + 7/5,-9/2",
            "--w", "alg3 + 9/4,1/4,9/2,tau1 - 7/5"]
    first, second = (run_subprocess(argv, hash_seed=seed) for seed in ("1", "2"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["word"] == ["s4", "s1"]


# One fixture per strata row of every family: (family, params, stratum
# label, Morley degree, stratum-verdict citation key, degree-verdict key).
STRATA_ROWS = [
    ("I", "", "generic", 1, "generic_sm_trivial", "generic_sm_trivial"),
    ("II", "1/2", "half-integer", 2, "pii_halfinteger_backlund", "pii_degree_two"),
    ("II", "tau1", "generic", 1, "pii_sm_nonhalf", "pii_sm_nonhalf"),
    ("III", "0,0", "D1", 3, "piii_d1", "piii_deg3"),
    ("III", "1/2,1/2", "W1", 2, "piii_w1", "piii_deg2"),
    ("III", "1/3,1/5", "generic", 1, "piii_sm", "piii_sm"),
    ("IV", "0,0,0", "D", 3, "piv_d", "piv_deg3"),
    ("IV", "1/2,-1/2,0", "W", 2, "piv_w", "piv_deg2"),
    ("IV", "1/3,1/5,-8/15", "generic", 1, "piv_sm", "piv_sm"),
    ("V", "0,0,0,0", "D", 4, "pv_d", "pv_deg4"),
    ("V", "2/3,-1/3,1/3,-2/3", "S1", 3, "pv_s1", "pv_deg3"),
    ("V", "1/3,1/3,1/3,-1", "S2", 3, "pv_s2", "pv_deg3"),
    ("V", "1/2,-1/2,1/3,-1/3", "W", 2, "pv_w", "pv_deg2"),
    ("V", "1/3,1/5,1/7,-71/105", "generic", 1, "pv_sm", "pv_sm"),
    ("VI", "0,0,0,0", "D", 5, "pvi_roots", "pvi_d_deg"),
    ("VI", "1/3,0,0,0", "L", 3, "pvi_roots", "pvi_l_deg3"),
    ("VI", "1/3,1/3,1/4,-3/4", "P", 3, "pvi_roots", "pvi_p_deg"),
    ("VI", "1/3,1/3,1/5,1/7", "M", 2, "pvi_roots", "pvi_m_deg"),
    ("VI", "1/2,0,1/4,1/4", "M", 4, "pvi_roots", "pvi_m_deg"),
    ("VI", "1/3,1/5,2/7,3/11", "generic", 1, "pvi_sm", "pvi_sm"),
]


@pytest.mark.parametrize("family,params,label,degree,stratum_key,degree_key", STRATA_ROWS)
def test_every_strata_row_in_classify_payload(family, params, label, degree, stratum_key, degree_key, capsys):
    payload, code = run_json(["classify", "--family", family, "--params", params], capsys)
    assert code == 0
    verdicts = {v["kind"]: v for v in payload["verdicts"]}
    assert verdicts["stratum"]["value"] == label
    assert verdicts["stratum"]["citation"]["key"] == stratum_key
    assert verdicts["morley-degree"]["value"] == degree
    assert verdicts["morley-degree"]["citation"]["key"] == degree_key


def test_orbit_query_echoes_the_parsed_values(monkeypatch, capsys):
    # orbit_with_word validates v and w on one integer form of the pair,
    # which orbit_decide and generator_word read; the echo reuses the parsed
    # values.  Every module that binds exactnum.scale counts its calls.
    from painleve import exactnum, weyl

    scale, calls = exactnum.scale, []

    def counting(*args, **kwargs):
        calls.append(args)
        return scale(*args, **kwargs)

    for module in (exactnum, catalog, weyl, importlib.import_module("painleve.classify")):
        assert module.scale is scale
        monkeypatch.setattr(module, "scale", counting)
    for family, v, w in [
        ("IV", "1/3,1/6,-1/2", "4/3,-5/6,-1/2"),
        ("V", "0,0,0,0", "1/4,1/4,1/4,-3/4"),
        ("VI", "1/3,1/5,2/7,3/11", "181/3,301/5,2/7,3/11"),
    ]:
        calls.clear()
        payload, code = run_json(["orbit", "--family", family, "--v", v, "--w", w], capsys)
        assert code == 0 and payload["word"]
        assert (payload["query"]["v"], payload["query"]["w"]) == (v.split(","), w.split(","))
        assert len(calls) == 1, family


def test_orbit_bound_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        run(["orbit", "--family", "II", "--v", "1/4", "--w", "7/4", "--bound", "16"])
    assert exc.value.code == 2


def test_orbit_words_are_not_capped_by_a_search_bound():
    # A related sixth-family pair whose word the bounded search never found.
    proc = run_subprocess(["orbit", "--family", "VI", "--v", "1/3,1/5,2/7,3/11", "--w", "181/3,301/5,2/7,3/11"])
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["word"]) == 600
    # A word past MAX_WORD_TOKENS is withheld; the verdict stands.
    proc = run_subprocess(["orbit", "--family", "II", "--v", "0", "--w", "1000000000"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert (payload["word"], payload["word_reason"]) == (None, "WordTooLong")
    assert payload["witness"]["shift"] == ["1000000000"]


def test_missing_atom_error_is_not_quoted(capsys):
    code = run(["integrate", "--family", "II", "--params", "tau1", "--initial", "0.1,0.2",
                "--t0", "1", "--t1", "2", "--step", "0.1"])
    assert code == 2
    assert capsys.readouterr().err == "error: atom tau1 has no numeric assignment\n"


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_internal_errors_exit_4_and_batch_goes_on(error, tmp_path, monkeypatch, capsys):
    def broken(args):
        raise error("a bug")

    monkeypatch.setitem(cli._COMMANDS, "classify", (broken, *cli._COMMANDS["classify"][1:]))
    assert run(["classify", "--family", "II", "--params", "0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: internal error: {error.__name__}: ")
    assert "Traceback" in err and "a bug" in err.splitlines()[-1]
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "classify --family II --params 0\n"
        "orbit --family IV --v 1,1,1 --w 0,0,0\n"
        "atoms --params tau1\n"
    )
    assert run(["--batch", str(batch)]) == 4  # worse than the input error on line 2
    captured = capsys.readouterr()
    assert [json.loads(line)["query"]["subcommand"] for line in captured.out.splitlines()] == ["atoms"]
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert errors[0].startswith("error: internal error: ")
    assert errors[1].startswith("error: family IV parameters must sum to zero")


def test_malformed_float_is_input_error(capsys):
    base = ["integrate", "--family", "II", "--params", "tau1", "--t0", "1", "--t1", "1.1", "--step", "0.01"]
    assert run([*base, "--initial", "x,0.2", "--assign", "tau1=0.5"]) == 2
    assert run([*base, "--initial", "0.1,0.2", "--assign", "tau1=x"]) == 2
    assert capsys.readouterr().err == "error: could not convert string to float: 'x'\n" * 2


# -- fuzz of --batch over every subcommand -------------------------------------------

_GOOD = ["0", "1", "-2", "1/2", "-1/3", "7/4", "tau1", "tau2", "alg1", "-1*tau2 + 1/3", "2*alg1 + tau3"]
_BAD = ["1/0", "-0/0", "nan", "inf", "-inf", "", "x", "1e5", "tau", "1/2/3"]
_ARITY = {"I": 0, "II": 1, "III": 2, "IV": 3, "V": 4, "VI": 4}


@st.composite
def _equation(draw, families=tuple(_ARITY)):
    """(family, params): mostly well formed, else with one fault."""
    family = draw(st.sampled_from(families))
    params = draw(st.lists(st.sampled_from(_GOOD), min_size=_ARITY[family], max_size=_ARITY[family]))
    if family in ("IV", "V"):  # close the exact sum to zero
        params[-1] = format_param(-sum((parse_param(p) for p in params[:-1]), ParamValue(0)))
    family = draw(st.sampled_from([family, f"P{family}", family.lower()]))
    fault = draw(st.sampled_from([None, None, None, "arity", "sum", "token", "family"]))
    if fault == "arity":
        params = params[1:] if params and draw(st.booleans()) else [*params, "1/3"]
    elif fault == "sum":
        params = [*params[:-1], "5/7"]
    elif fault == "token":
        params = [*params[1:], draw(st.sampled_from(_BAD))]
    elif fault == "family":
        family = draw(st.sampled_from(["VII", "", "0", "P7"]))
    return family, ",".join(params)


def _line(*options):
    return " ".join(name if value is None else f"{name} {shlex.quote(value)}" for name, value in options)


def _time(usual):
    return st.sampled_from([usual, usual, usual, "-0.5", "0", "1e-300", "nan", "inf", "-inf", "x"])


@st.composite
def _query(draw):
    kind = draw(st.sampled_from(["classify", "orbit", "orthogonal", "verify", "integrate", "atoms"]))
    if kind == "classify":
        family, params = draw(_equation())
        return _line((kind, None), ("--family", family), ("--params", params))
    if kind == "orbit":
        base = draw(st.sampled_from(tuple(_ARITY)))
        (family, v), (_, w) = draw(_equation((base,))), draw(_equation((base,)))
        return _line((kind, None), ("--family", family), ("--v", v), ("--w", w))
    if kind == "orthogonal":
        (family1, params1), (family2, params2) = draw(_equation()), draw(_equation())
        return _line((kind, None), ("--family1", family1), ("--params1", params1),
                     ("--family2", family2), ("--params2", params2))
    if kind == "verify":
        return _line((kind, None), ("--target", draw(st.sampled_from(["riccati", "group-relations", "bogus"]))))
    if kind == "atoms":
        params = draw(st.lists(st.sampled_from(_GOOD + _BAD), max_size=4))
        return _line((kind, None), ("--params", ",".join(params)))
    family, params = draw(_equation())
    initial = draw(st.sampled_from(["0.1,0.2", "0.1,0.2", "-0.1,0.3", "0.1", "nan,0", "inf,0", "x,0", ""]))
    assign = draw(st.sampled_from(["tau1=0.5,tau2=-1,tau3=0.25,alg1=2", "tau1=0.5,tau2=-1,tau3=0.25,alg1=2",
                                   "", "tau1=nan", "tau3=inf", "tau1=x", "x", "1=2", "=1"]))
    return _line((kind, None), ("--family", family), ("--params", params), ("--initial", initial),
                 ("--t0", draw(_time("1"))), ("--t1", draw(_time("1.1"))), ("--step", draw(_time("0.01"))),
                 ("--assign", assign))


@st.composite
def _batch_line(draw):
    """A query, sometimes asking for help or with an unclosed quote."""
    return draw(_query()) + draw(st.sampled_from(["", "", "", "", "", " --help", " -h", " --he", " '"]))


@given(st.lists(_batch_line(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_batch_fuzz_exits_0_2_or_3_with_json_records(lines):
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp) / "queries.txt"
        batch.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--batch", str(batch)])
    assert code in (0, 2, 3), err.getvalue()
    assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()
    for line in out.getvalue().splitlines():
        json.loads(line)


# -- import boundary ------------------------------------------------------------------

_LAZY_MODULES = ("painleve.weyl", "painleve.diffpoly", "painleve.numint")
# Standard-library modules no subcommand has a use for; ``dataclasses``
# alone pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``.
_UNUSED_STDLIB = ("dataclasses", "inspect")


def _run_python(code):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_classify_imports_no_weyl_diffpoly_or_numint():
    out = _run_python(
        "import sys\n"
        "from painleve import cli\n"
        "assert cli.run(['classify', '--family', 'VI', '--params', '1/2,0,1/4,1/4']) == 0\n"
        f"print([m for m in {_LAZY_MODULES!r} if m in sys.modules], file=sys.stderr)\n"
        "print('loaded', [m for m in sys.modules if m.startswith('painleve.')])\n"
        f"print('stdlib', [m for m in {_UNUSED_STDLIB!r} if m in sys.modules])\n"
    )
    *_, painleve_line, stdlib_line = out.splitlines()
    loaded = json.loads(painleve_line.removeprefix("loaded ").replace("'", '"'))
    assert not set(loaded) & set(_LAZY_MODULES)
    assert "painleve.classify" in loaded
    assert stdlib_line == "stdlib []"


@pytest.mark.parametrize("target", ["riccati", "pv-change"])
def test_verify_imports_no_weyl_or_numint(target):
    out = _run_python(
        "import sys\n"
        "from painleve import cli\n"
        f"assert cli.run(['verify', '--target', {target!r}]) == 0\n"
        "print('loaded', [m for m in sys.modules if m.startswith('painleve.')])\n"
    )
    loaded = json.loads(out.splitlines()[-1].removeprefix("loaded ").replace("'", '"'))
    assert not {"painleve.weyl", "painleve.numint"} & set(loaded)
    assert "painleve.diffpoly" in loaded


# One query per subcommand path that loads weyl, ortho, diffpoly, odes or numint.
_FULL_SESSION = [
    ["orbit", "--family", "II", "--v", "1/3", "--w", "4/3"],
    ["orbit", "--family", "III", "--v", "1/3,1/5", "--w", "1/5,1/3"],
    ["orbit", "--family", "IV", "--v", "1/3,1/5,-8/15", "--w", "4/3,-4/5,-8/15"],
    ["orbit", "--family", "V", "--v", "1/3,1/5,1/7,-71/105", "--w", "4/3,-4/5,1/7,-71/105"],
    ["orbit", "--family", "VI", "--v", "1/3,1/5,2/7,3/11", "--w", "4/3,6/5,2/7,3/11"],
    ["orthogonal", "--family1", "IV", "--params1", "tau1,tau2,-1*tau1 - tau2", "--family2", "IV",
     "--params2", "tau1 + 1,tau2 - 1,-1*tau1 - tau2"],
    *(["verify", "--target", target] for target in cli.VERIFY_TARGETS),
    ["integrate", "--family", "II", "--params", "1/2", "--initial", "0.2,0", "--t0", "1", "--t1", "1.1",
     "--step", "0.01"],
]


def test_no_subcommand_imports_dataclasses():
    out = _run_python(
        "import contextlib, io, json, sys\n"
        "from painleve import cli\n"
        "words = []\n"
        f"for argv in {_FULL_SESSION!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as record:\n"
        "        assert cli.run(argv) == 0, argv\n"
        "    if argv[0] == 'orbit':\n"
        "        words.append(json.loads(record.getvalue())['word'])\n"
        "print(json.dumps(words))\n"
        f"print('stdlib', [m for m in {_UNUSED_STDLIB!r} if m in sys.modules])\n"
    )
    words_line, stdlib_line = out.splitlines()
    words = json.loads(words_line)
    assert len(words) == 5 and all(words)
    assert stdlib_line == "stdlib []"


def test_orthogonal_loads_weyl_for_same_family_pairs_only():
    out = _run_python(
        "import sys\n"
        "from painleve import cli\n"
        "assert cli.run(['orthogonal', '--family1', 'II', '--params1', 'tau1',"
        " '--family2', 'IV', '--params2', 'tau2,tau3,-1*tau2 - tau3']) == 0\n"
        f"print('distinct', [m for m in ('painleve.weyl', *{_UNUSED_STDLIB!r}) if m in sys.modules])\n"
        "assert cli.run(['orthogonal', '--family1', 'II', '--params1', '3', '--family2', 'II', '--params2', 'tau1']) == 0\n"
        "print('same', 'painleve.weyl' in sys.modules)\n"
    )
    lines = out.splitlines()
    assert "distinct []" in lines
    assert "same True" in lines


def test_tracer_names_resolve_on_cli():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", SRC_DIR.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len([module for module, _, _ in tracer.WRAPPED if module == "cli"]) == 11
    for module, attr, _ in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(f"painleve.{module}"), attr)), (module, attr)
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_wrapper_set_before_first_orbit_query_is_called():
    out = _run_python(
        "from painleve import cli\n"
        "from painleve.weyl import orbit_with_word\n"
        "calls = []\n"
        "def wrapper(*args):\n"
        "    calls.append(args)\n"
        "    return orbit_with_word(*args)\n"
        "cli.orbit_with_word = wrapper\n"
        "assert cli.run(['orbit', '--family', 'II', '--v', '1/4', '--w', '7/4']) == 0\n"
        "print('calls', len(calls), cli.orbit_with_word is wrapper)\n"
    )
    assert out.splitlines()[-1] == "calls 1 True"


# -- orbit and orthogonal records against the payload-dict oracle ------------------------


_FAMILIES = ("II", "III", "IV", "V", "VI")
_ATOMS = (tau(1), tau(2), tau(3), alg(1), alg(2))
# Text that fails to read, by fault.  The last digits fault is five
# 1,000-digit denominators whose sum's reduced denominator is past the bound.
_UNREADABLE = {
    "syntax": ["x", "1/2/3", "tau", "", "1e5", "2x", "tau1 +", "* tau1"],
    "zero denominator": ["1/0", "tau1 + 2/0", "-3/00*alg1", "1/٠"],
    "digits": ["1" * 1001, "tau1 + 2/" + "3" * 1001, " + ".join(f"1/{10**999 + k}" for k in (1, 3, 7, 9, 13))],
}


def _random_value(rng, family: str) -> ParamValue:
    """A rational, an atom term plus a rational, or (II and VI) a half-integer."""
    if family in ("II", "VI") and rng.random() < 0.25:
        value = ParamValue(Fraction(2 * rng.randint(-4, 4) + 1, 2))
    else:
        value = ParamValue(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6))))
    for _ in range(rng.choice((0, 0, 1, 2))):
        value += rng.randint(-2, 2) * of_atom(rng.choice(_ATOMS))
    return value


def _random_tuple(rng, family: str) -> list[ParamValue]:
    """Random values, or a quarter of the time generic ones: a fresh tau atom plus each value."""
    values = [_random_value(rng, family) for _ in range(_ARITY[family])]
    if rng.random() < 0.25:
        first = rng.randint(1, 5)
        values = [v + of_atom(tau(first + i)) for i, v in enumerate(values)]
    if family in ("IV", "V"):  # close the exact sum to zero
        values[-1] = -sum(values[:-1], ParamValue(0))
    return values


def _text(rng, value: ParamValue) -> str:
    """The value's canonical text, that text without spaces, or with spaces between all tokens."""
    text = format_param(value)
    spacing = rng.choice(("canonical", "unspaced", "spaced"))
    if spacing == "unspaced":
        return text.replace(" ", "")
    if spacing == "spaced":
        return " " + " ".join(text.replace("*", " * ").replace("/", " / ").split()) + " "
    return text


def _option_text(rng, family: str, values: list[ParamValue], fault: str | None) -> str:
    texts = [_text(rng, v) for v in values]
    if fault == "arity":
        texts = texts[:-1] if texts and rng.random() < 0.5 else [*texts, "1/3"]
    elif fault == "sum":
        texts = [*texts[:-1], "5/7"]
    elif fault in _UNREADABLE:
        texts = texts or ["0"]
        texts[rng.randrange(len(texts))] = rng.choice(_UNREADABLE[fault])
    return ",".join(texts)


def _fault(rng, family: str) -> str | None:
    faults = ["arity", *_UNREADABLE, *(["sum"] if family in ("IV", "V") else [])]
    return rng.choice(faults) if rng.random() < 0.2 else None


def _random_pair_line(rng) -> list[str]:
    """An orbit or orthogonal query on the second to sixth families, as argv:
    w is an image of v under a random word half the time; a fault may sit
    in either tuple, or in both."""
    family = rng.choice(_FAMILIES)
    v = _random_tuple(rng, family)
    if rng.random() < 0.5:
        generators = family_space(Family.from_name(family)).orbit_generators
        w = list(weyl.apply_word(Family.from_name(family), rng.choices(generators, k=rng.randint(0, 6)), v))
    else:
        w = _random_tuple(rng, family)
    if rng.random() < 0.5:
        return ["orbit", "--family", family, f"--v={_option_text(rng, family, v, _fault(rng, family))}",
                f"--w={_option_text(rng, family, w, _fault(rng, family))}"]
    family2 = family if rng.random() < 0.5 else rng.choice(_FAMILIES)
    if family2 != family:
        w = _random_tuple(rng, family2)
    return ["orthogonal", "--family1", family, f"--params1={_option_text(rng, family, v, _fault(rng, family))}",
            "--family2", family2, f"--params2={_option_text(rng, family2, w, _fault(rng, family2))}"]


def _run_batch(lines: list[list[str]]) -> tuple[str, str, int]:
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp) / "queries.txt"
        batch.write_text("".join(" ".join(map(shlex.quote, argv)) + "\n" for argv in lines), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--batch", str(batch)])
    return out.getvalue(), err.getvalue(), code


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_orbit_and_orthogonal_records_match_the_dict_oracle(rng):
    lines = [_random_pair_line(rng) for _ in range(3)]
    expected = [dict_run(argv) for argv in lines]
    codes = [code for *_, code in expected]
    worst = 2 if 2 in codes else max(codes)
    assert _run_batch(lines) == ("".join(o for o, _, _ in expected), "".join(e for _, e, _ in expected), worst)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(lines[0])
    assert (out.getvalue(), err.getvalue(), code) == dict_run(lines[0], indent=2)


@pytest.mark.parametrize("argv,message", [
    (["orbit", "--family", "IV", "--v", "1,2", "--w", "1,2,x"], "unexpected character 'x' (at position 4)"),
    (["orthogonal", "--family1", "IV", "--params1", "1,2", "--family2", "IV", "--params2", "x"],
     "family IV takes 3 parameter(s), got 2"),
    (["orthogonal", "--family1", "IV", "--params1", "1,2,-4", "--family2", "VII", "--params2", "x"],
     "family IV parameters must sum to zero exactly (got -1)"),
    (["orbit", "--family", "IV", "--v=1,2,-3", "--w=1,2x,-3"], "unexpected character 'x' (at position 3)"),
])
def test_pair_error_precedence(argv, message, capsys):
    # orbit reads v and w before checking either; orthogonal checks params1
    # before it reads family2 or params2.
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert dict_run(argv) == ("", f"error: {message}\n", 2)


def _verdict_classes() -> int:
    """How many record classes the catalog allows: an orbit class is a
    family, a related verdict, a hypothesis status and a word reason (none,
    NoWordFound or WordTooLong); a same-family orthogonality class is one
    of four verdicts per family (the group relates the pair, the criterion's
    converse, open with or without the Unknown note) or the second family's
    kernel1; a distinct pair is open or its clause, in three kinds for
    orthofam3's half-integer suffix."""
    orbit = len(Family) * len(TriBool) * len(weyl.HypothesisStatus) * 3
    same = 4 * len(Family) + 1
    distinct = 0
    for pair in itertools.combinations(Family, 2):
        key = ortho._CLAUSES.get(frozenset(pair), ortho._NAGGY)[0]
        distinct += 1 + (len(ortho._HALF_INTEGER_SUFFIX) if key == "orthofam3" else 1)
    return orbit + same + distinct


def test_record_fragments_stay_within_the_verdict_classes():
    rng = random.Random(20261021)
    out, _, _ = _run_batch([_random_pair_line(rng) for _ in range(2000)])
    assert len(out.splitlines()) > 1000
    assert all(isinstance(key[0], str) and key[0] in ("orbit", "orthogonal") for key in cli._FRAGMENTS)
    assert len(cli._FRAGMENTS) <= _verdict_classes()
