import csv
import io
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import example, given, settings

import tautring
import oracles
from tautring import cli
from tautring.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    with resources.files("tautring").joinpath("schema/report.schema.json").open() as fh:
        return json.load(fh)


BASE = ["--profile", "custom", "--n", "2", "--d", "8", "--b", "3", "--no-timing"]

COMMANDS = [
    ["basis", "--m", "2", "--codim", "2"] + BASE,
    ["mul", "t(1,2)", "t(1,2)"] + BASE,
    ["pair", "t(1,2)", "t(1,2)"] + BASE,
    ["gram", "--m", "2", "--codim", "2"] + BASE,
    ["verify-ck"] + BASE,
    ["verify-mck"] + BASE,
    ["lemma-ok"] + BASE,
    ["gamma3"] + BASE,
    ["euler"] + BASE,
    ["kimura", "--profile", "custom", "--n", "2", "--d", "8", "--b", "2", "--no-timing"],
    ["scan", "--m-max", "2"] + BASE,
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_commands_pass_and_emit_valid_json(capsys, argv):
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema())
    assert report["status"] == "pass"
    assert "timing_ms" not in report


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_reports_are_byte_identical_across_runs(capsys, argv, fmt):
    code1, out1, _ = run_cli(capsys, argv + ["--format", fmt])
    code2, out2, _ = run_cli(capsys, argv + ["--format", fmt])
    assert code1 == code2
    assert out1 == out2


def test_timing_present_without_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["euler", "--n", "2", "--d", "8", "--b", "22", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert "timing_ms" in report
    jsonschema.validate(report, load_schema())


def test_gram_report_values(capsys):
    code, out, _ = run_cli(
        capsys,
        ["gram", "--m", "2", "--codim", "2", "--format", "json"] + BASE,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["rank"] == 4
    assert results["kernel"] == []
    assert results["basis"] == ["h1*h2", "o1", "o2", "t(1,2)"]


def test_verify_mck_three_quadrics_profile(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify-mck", "--profile", "three-quadrics", "--n", "2", "--b", "22",
         "--format", "json", "--no-timing"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["params"]["d"] == 8
    assert report["results"]["passed"] is True


def test_kimura_vanishing_and_delta_override(capsys):
    base = ["kimura", "--n", "2", "--d", "8", "--b", "2", "--format", "json", "--no-timing"]
    code, out, _ = run_cli(capsys, base)
    assert code == 0
    assert json.loads(out)["results"]["vanishing"] is True
    code, out, _ = run_cli(capsys, base + ["--delta", "2"])
    assert code == 1
    report = json.loads(out)
    assert report["results"]["vanishing"] is False
    assert report["status"] == "fail"


def test_scan_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        ["scan", "--m-max", "1", "--format", "csv"] + BASE,
    )
    assert code == 0
    assert out == (
        "m,codim,basis_size,rank,deficiency\n"
        "1,0,1,1,0\n"
        "1,1,1,1,0\n"
        "1,2,1,1,0\n"
    )


def test_scan_resource_limit_exits_3_with_partial_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        ["scan", "--m-max", "4", "--cap-gram", "5", "--format", "json"] + BASE,
    )
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["results"]["rows"]
    assert "error" in report["results"]
    jsonschema.validate(report, load_schema())


def test_kimura_cap_exits_3(capsys):
    code, out, _ = run_cli(
        capsys,
        ["kimura", "--n", "2", "--d", "8", "--b", "8", "--format", "json", "--no-timing"],
    )
    assert code == 3
    assert json.loads(out)["status"] == "error"


KIMURA_CAP_ERROR = "b=9 exceeds the cap 7 (9! terms)"
KIMURA_HEADER = "b,delta,vanishing,crosscheck_ok,dual_count"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_kimura_cap_reports_in_every_format(capsys, fmt):
    argv = ["kimura", "--n", "2", "--d", "8", "--b", "9", "--format", fmt, "--no-timing"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and err == (f"error: {KIMURA_CAP_ERROR}\n" if fmt == "csv" else "")
    if fmt == "json":
        report = json.loads(out)
        assert report["status"] == "error"
        assert report["results"] == {"error": KIMURA_CAP_ERROR}
        jsonschema.validate(report, load_schema())
    elif fmt == "csv":
        assert out == KIMURA_HEADER + "\n"
    else:
        assert out.splitlines()[-3:] == [
            KIMURA_HEADER.replace(",", "  "),
            f"error: {KIMURA_CAP_ERROR}",
            "status: error",
        ]


def test_kimura_reaches_b6_with_a_raised_cap(capsys):
    argv = ["kimura", "--n", "2", "--d", "8", "--b", "6", "--cap-gram", "10000000",
            "--format", "csv", "--no-timing"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (0, KIMURA_HEADER + "\n6,5,True,True,5447872\n", "")


def _no_cancellation(params):
    raise ArithmeticError("no polynomial in h cancels the residual")


def test_arithmetic_error_ends_in_one_line_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_gamma3", _no_cancellation)
    code, out, err = run_cli(capsys, ["gamma3"] + BASE)
    assert (code, out) == (1, "")
    assert err == "error: no polynomial in h cancels the residual\n"


def _first_check_fails(verify_ck):
    def patched(projectors):
        report = verify_ck(projectors)
        check = report.checks[0]._replace(ok=False, detail="broken")
        return report._replace(checks=(check, *report.checks[1:]), passed=False)
    return patched


def _a_required_zero_fails(verify_mck):
    def patched(params):
        report = verify_mck(params)
        cases = list(report.cases)
        at = next(i for i, case in enumerate(cases) if case.required_zero)
        cases[at] = cases[at]._replace(zero=False, ok=False, detail="h1")
        return report._replace(cases=tuple(cases), passed=False)
    return patched


def _factor_2_fails(expand_diagonal_times_h):
    def patched(params, factor):
        if factor == 2:
            raise ArithmeticError("the expansion does not close")
        return expand_diagonal_times_h(params, factor)
    return patched


def _asymmetric(key):
    def patch(solve_gamma3):
        def patched(params):
            solution = solve_gamma3(params)
            coefficients = dict(solution.coefficients)
            coefficients[key] += 1
            return solution._replace(coefficients=coefficients)
        return patched
    return patch


# command, the library call it makes, a patch of that call that makes
# exactly one check false, the failing JSON record (results key, index)
# and the failing CSV row
FAIL_CASES = [
    ("verify-ck", "verify_ck", _first_check_fails, ("checks", 0), "idempotent[0],False,broken"),
    ("verify-mck", "verify_mck", _a_required_zero_fails, ("cases", 1), "0,0,2,True,False,False"),
    ("lemma-ok", "expand_diagonal_times_h", _factor_2_fails, ("checks", 1), "2,False"),
    ("gamma3", "solve_gamma3", _asymmetric((0, 2, 2)), None, "0,2,2,65/64"),
    # an unsorted key: its sorted key (0, 2, 2) is the one it must agree with
    ("gamma3", "solve_gamma3", _asymmetric((2, 2, 0)), None, "2,2,0,65/64"),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command, call, patch, record, row", FAIL_CASES,
                         ids=["verify-ck", "verify-mck", "lemma-ok", "gamma3", "gamma3-unsorted-key"])
def test_one_false_check_fails_the_command(capsys, monkeypatch, command, call, patch, record,
                                           row, fmt):
    monkeypatch.setattr(cli, call, patch(getattr(cli, call)))
    code, out, err = run_cli(capsys, [command, "--format", fmt] + BASE)
    assert (code, err) == (1, "")
    if fmt == "json":
        report = json.loads(out)
        jsonschema.validate(report, load_schema())
        assert report["status"] == "fail"
        # the declared pass rule: exactly one of the command's checks is false
        checks = [report["results"][key] for key in cli.COMMANDS[command].checks]
        assert checks.count(False) == 1 and checks.count(True) == len(checks) - 1
        if record is not None:
            key, at = record
            assert False in report["results"][key][at].values()
    elif fmt == "csv":
        assert row in out.splitlines()
    else:
        assert "  ".join(row.split(",")) in out.splitlines()
        assert out.endswith("status: fail\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_gamma3_reports_a_residual_no_polynomial_cancels(capsys, monkeypatch, fmt):
    # a stray t(1,2)*o3 in the small diagonal is left over by every
    # h-polynomial; the report shows it and fails
    import tautring.motives as motives

    small_diagonal = motives.small_diagonal
    stray = tautring.TautClass.from_monomial(tautring.TautMonomial(3, ((1, 2),), opoints=(3,)))
    monkeypatch.setattr(motives, "small_diagonal", lambda params: small_diagonal(params) + stray)
    code, out, err = run_cli(capsys, ["gamma3", "--format", fmt] + BASE)
    assert (code, err) == (1, "")
    if fmt == "json":
        report = json.loads(out)
        jsonschema.validate(report, load_schema())
        assert report["status"] == "fail"
        assert report["results"]["residual_zero"] is False
        assert report["results"]["residual"] == "t(1,2)*o3"
    elif fmt == "csv":
        assert out.startswith("i,j,k,coefficient\n")
    else:
        assert out.splitlines()[-1] == "status: fail"


# commands whose results are one library record, and the call that makes it
RECORD_CALLS = [
    ("verify-ck", lambda params: tautring.verify_ck(tautring.ck_projectors(params))),
    ("verify-mck", tautring.verify_mck),
    ("kimura", tautring.verify_kimura_vanishing),
]


@pytest.mark.parametrize("command, call", RECORD_CALLS, ids=[case[0] for case in RECORD_CALLS])
def test_a_record_holds_exactly_the_results_of_its_report(capsys, command, call):
    argv = [command, "--n", "2", "--d", "8", "--b", "2", "--no-timing", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    results = json.loads(out)["results"]
    record = call(tautring.ModelParams(2, 8, 2))
    assert list(results) == list(record._fields)
    assert json.loads(cli._to_json(record)) == oracles.report_values(record) == results


def test_scan_returns_rows_whose_fields_are_the_report_columns():
    rows = tautring.scan_injectivity(tautring.ModelParams(2, 8, 3), 2)
    assert rows and all(type(row) is tautring.ScanRow for row in rows)
    assert tautring.ScanRow._fields == cli.COMMANDS["scan"].columns


def test_no_exported_record_echoes_its_params():
    records = [value for value in map(vars(tautring).get, tautring.__all__)
               if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")]
    assert tautring.ScanRow in records and tautring.GramReport in records
    assert [record.__name__ for record in records if "params" in record._fields] == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Each command is its own process, so what `import tautring.cli` loads is
    # paid on every run; dataclasses alone pulls in inspect, ast, dis and tokenize.
    src = str(Path(tautring.__file__).resolve().parents[1])
    code = "import sys, tautring.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_import_loads_every_layer_and_no_renderer_or_typing():
    # the benchmark tracer reads every layer from sys.modules after this
    # import; csv loads only when a report is rendered in it, no path loads
    # argparse or gettext, and JSON is written without the json package.
    src = str(Path(tautring.__file__).resolve().parents[1])
    code = (
        "import sys, tautring.cli\n"
        "roots = ('tautring', 'json', 'csv', 'typing', 'argparse', 'gettext')\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in roots)\n"
        "before = loaded()\n"
        "tautring.cli.main(['euler', '--n', '2', '--d', '8', '--b', '3', '--format', 'json'])\n"
        "print(before, loaded(), sep='\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    layers = ("algebra", "calculus", "cli", "grammar", "kimura", "linalg", "motives")
    expected = str(["tautring"] + [f"tautring.{layer}" for layer in layers])
    assert out.splitlines()[-2:] == [expected, expected]


SMALL = ["--n", "2", "--d", "8", "--b", "3"]
ERROR_LINE = re.compile(r"error: [^\n]*\n")  # the whole of stderr, with fullmatch
PARSE_CASES = (
    [[name, "--help"] for name in cli.COMMANDS]
    + [[name, "--n", "two"] for name in cli.COMMANDS]
    + [[name, "--bogus", "--no-timing"] + SMALL for name in cli.COMMANDS]
    + [
        [],
        ["-h"],
        ["--help", "euler"],
        ["no-such-command"],
        ["eul"] + SMALL,
        ["basis", "--codim", "2"] + SMALL,
        ["basis", "--m", "2"] + SMALL,
        ["gram", "--m", "2"] + SMALL,
        ["mul", "t(1,2)"] + SMALL,
        ["mul", "t(1,2)", "1", "1"] + SMALL,
        ["mul", "h1", "h2", "--normalize-input"] + SMALL,  # the default has no flag of its own
        ["pair"] + SMALL,
        ["scan"] + SMALL,
        ["scan", "--m", "2", "--no-timing"] + SMALL,  # an abbreviation of --m-max
        ["scan", "--m-max", "x"] + SMALL,
        ["kimura", "--cap-b", "many"] + SMALL,
        ["euler", "--delta", "-7/3"] + SMALL,  # a value starting with '-'
        ["euler", "--n", "-2", "--d", "8", "--b", "3"],
        ["euler", "--format", "yaml"] + SMALL,
        ["euler", "--format=yaml"] + SMALL,
        ["euler", "--no-timing=yes"] + SMALL,
        ["euler", "--b"],
        ["euler", "--bogus", "--help"],  # help still answers after an unknown option
        ["euler", "--no-timing", "--", "--help"] + SMALL,  # after '--', operands
    ]
)


def _read(argv):
    """The parser's answer: the namespace as a dict, "help" or "error"."""
    try:
        args = cli._parse(argv)
    except cli.UsageError:
        return "error"
    return "help" if isinstance(args, str) else vars(args)


def _oracle(argv):
    """argparse's answer, in the same terms."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(oracles.argparse_parser().parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code in (None, 0) else "error"


def _read_otherwise(argv):
    """Whether argparse may read argv otherwise than the table: a token
    before '--' that starts with '-' and is no flag of the command (an
    abbreviation, or a value or operand starting with '-', which argparse
    may take for a negative number), or a value given as '=--' (read as []
    before Python 3.13)."""
    if not argv or argv[0] not in cli.COMMANDS:
        return False
    flags = {"-h", "--help"} | {flag for flag, _ in cli._COMMON + cli.COMMANDS[argv[0]].options}
    for token in argv[1:]:
        if token == "--":
            return False
        name, eq, value = token.partition("=")
        if token[:1] == "-" and (name not in flags or eq and value == "--"):
            return True
    return False


def _without_spare_separator(argv):
    """argv without its first '--' when no later token starts with '-':
    argparse refuses a '--' that no operand follows, and reads such a tail
    as operands anyway."""
    if "--" in argv[1:]:
        at = argv.index("--", 1)
        if all(token[:1] != "-" for token in argv[at + 1 :]):
            return argv[:at] + argv[at + 1 :]
    return argv


def _agrees_with_the_oracle(argv, ours):
    theirs = _oracle(argv)
    if ours != theirs:
        theirs = _oracle(_without_spare_separator(argv))
    return ours == theirs or _read_otherwise(argv)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "(empty)")
def test_help_and_malformed_argv_answer_in_one_line(capsys, argv):
    # help goes to stdout with exit 0; a usage error is one line on stderr
    # with exit 2 and nothing on stdout.  argparse answers the same way
    # except where it reads an abbreviation or a value starting with '-'.
    code, out, err = run_cli(capsys, argv)
    if code == 0:
        assert out.startswith("usage: tautring ") and err == ""
    else:
        assert (code, out) == (2, "") and ERROR_LINE.fullmatch(err)
    assert _read(argv) == ("help" if code == 0 else "error")
    assert _agrees_with_the_oracle(argv, _read(argv))


def test_help_page_names_every_command_option_and_choice(capsys):
    code, page, err = run_cli(capsys, ["--help"])
    assert (code, err) == (0, "")
    for name, command in cli.COMMANDS.items():
        assert f"\n  {name}" in page and command.help in page
        for flag, kwargs in cli._COMMON + command.options:
            assert (flag if flag[0] == "-" else flag.upper()) in page
            assert all(choice in page for choice in kwargs.get("choices", ()))
    assert "--no-normalize-input" in page
    # a command's page lists its own options and the common ones
    code, page, err = run_cli(capsys, ["scan", "-h"])
    assert (code, err) == (0, "")
    assert "--m-max" in page and "--profile" in page and "--cap-b" not in page
    code, page, err = run_cli(capsys, ["mul", "-h"])
    assert (code, err) == (0, "") and page.count("--no-normalize-input") == 1
    assert "      --no-normalize-input  operands must be in normal form\n" in page


def test_help_and_usage_errors_load_no_argparse():
    src = str(Path(tautring.__file__).resolve().parents[1])
    code = (
        "import sys, tautring.cli\n"
        "tautring.cli.main(['scan', '--help']); tautring.cli.main(['scan', '--m-max', 'x'])\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stderr.splitlines()[-1] == "[]"


def test_gram_codimension_out_of_range_is_named(capsys):
    for codim in ("99", "-1"):
        code, out, err = run_cli(capsys, ["gram", "--m", "2", f"--codim={codim}"] + BASE)
        assert code == 2 and out == ""
        assert err == f"error: codimension {codim} is not in 0..m*n = 0..4\n"


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, ["euler", "--n", "3", "--d", "8", "--b", "2"])
    assert code == 2 and "even" in err
    code, _, err = run_cli(capsys, ["euler", "--profile", "three-quadrics", "--n", "2", "--d", "7", "--b", "2"])
    assert code == 2 and "fixes d = 8" in err
    code, _, err = run_cli(capsys, ["euler", "--profile", "double-plane", "--n", "4", "--b", "2"])
    assert code == 2 and "fixes n = 2" in err
    # three-quadrics reads b from n; the double plane's b_2 needs a branch degree it is not given
    for profile in (["--n", "2", "--d", "8"], ["--profile", "double-plane"]):
        code, _, err = run_cli(capsys, ["euler", *profile])
        assert (code, err) == (2, "error: --b is required (no default Betti number is assumed)\n")
    code, _, _ = run_cli(capsys, ["euler", "--bogus-flag"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["no-such-command"])
    assert code == 2


def test_an_operand_that_begins_with_a_dash_is_sent_after_double_dash(capsys):
    code, out, err = run_cli(capsys, ["pair", "-5*h1*h2", "o1*o2"] + SMALL)
    assert code == 2 and out == "" and ERROR_LINE.fullmatch(err)
    assert err.startswith("error: pair has no option '-5*h1*h2'; ") and "after '--'" in err
    long = "-" + "h1*" * 17_000 + "h1"  # about 53 kB, quoted only in part
    code, out, err = run_cli(capsys, ["pair", long, "o1"] + SMALL)
    assert code == 2 and out == "" and ERROR_LINE.fullmatch(err)
    assert len(err) < 200 and "'--'" in err and f"({len(long)} characters)" in err
    code, out, err = run_cli(capsys, ["pair"] + SMALL + ["--no-timing", "--", "-5*h1*h2", "o1*o2"])
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, ["pair", "--bogus", "o1", "o2"] + SMALL)  # a -- flag gets no hint
    assert err == "error: pair has no option '--bogus'\n"


# An n whose b(n) = n*n + 5*n + 8 has 4,399 digits, over the int-string limit.
HUGE_N = "2" * 2200
_HAS_STR_LIMIT = 0 < getattr(sys, "get_int_max_str_digits", int)() < 4399


@pytest.mark.skipif(not _HAS_STR_LIMIT, reason="b(HUGE_N) is under the int-string limit")
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_b_made_from_n_over_the_int_string_limit_is_a_usage_error(capsys, command, fmt):
    # refused as the params are read, before any work; the message names the
    # limit and does not echo the 2,200-digit n
    operands = {"mul": ["1", "1"], "pair": ["1", "1"]}.get(command, [])
    options = {"basis": ["--m", "1", "--codim", "0"], "gram": ["--m", "1", "--codim", "0"],
               "scan": ["--m-max", "1"]}.get(command, [])
    argv = [command, *operands, *options, "--profile", "three-quadrics", "--n", HUGE_N, "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: b = n*n + 5*n + 8 is over the {limit}-digit int-string limit\n"


def test_zero_denominator_delta_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, ["euler", "--delta", "1/0"] + BASE)
    assert code == 2 and out == ""
    assert err == "error: --delta 1/0 has a zero denominator\n"


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", int)() < 5000, reason="5000 digits are under the int-string limit"
)
def test_a_coefficient_over_the_int_string_limit_is_one_positioned_error(capsys):
    code, out, err = run_cli(capsys, ["mul", "1" * 5000, "1"] + BASE)
    assert code == 2 and out == ""
    assert err == "error: integer of 5000 digits is too long (at position 0)\n"


NINES = "9" * 4000
LIMIT_CASES = [("mul", [NINES, NINES], "product,codim"), ("pair", [f"{NINES}*o1", NINES], "value")]


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", int)() < 8000, reason="8000 digits are under the int-string limit"
)
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command, operands, header", LIMIT_CASES, ids=[case[0] for case in LIMIT_CASES])
def test_a_value_over_the_int_string_limit_is_a_resource_limit(capsys, command, operands, header, fmt):
    # both operands are read; their product has 8000 digits, which str() refuses to write
    code, out, err = run_cli(capsys, [command, *operands, "--format", fmt] + BASE)
    error = f"a value is over the int-string limit of {sys.get_int_max_str_digits()} digits"
    assert code == 3 and err == (f"error: {error}\n" if fmt == "csv" else "")
    if fmt == "json":
        report = json.loads(out)
        assert report["status"] == "error" and report["results"] == {"error": error}
        assert report["inputs"] == {"x": operands[0], "y": operands[1], "m": 1}
        jsonschema.validate(report, load_schema())
    elif fmt == "csv":
        assert out == header + "\n"
    else:
        assert out.splitlines()[-3:] == [header.replace(",", "  "), f"error: {error}", "status: error"]


def test_mul_strict_mode_rejects_non_normal_input(capsys):
    argv = ["mul", "h1^2", "1", "--no-normalize-input"] + BASE
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "exponent" in err
    code, out, _ = run_cli(capsys, ["mul", "h1^2", "1"] + BASE + ["--format", "json"])
    assert code == 0
    assert json.loads(out)["results"]["product"] == "8*o1"


def test_double_plane_profile_defaults(capsys):
    code, out, _ = run_cli(
        capsys,
        ["euler", "--profile", "double-plane", "--b", "44", "--format", "json", "--no-timing"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["params"]["n"] == 2 and report["params"]["d"] == 2
    assert report["results"]["value"] == "46"


BASIS_CAP_ERROR = "basis at m=14, codim=14 has 149487040 monomials, over the cap 1000000"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "command, header", [("basis", "monomial"), ("gram", "basis_size,dual_size,rank,deficiency")]
)
def test_basis_cap_reports_in_every_format(capsys, command, header, fmt):
    argv = [command, "--m", "14", "--codim", "14", "--format", fmt] + BASE
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and err == (f"error: {BASIS_CAP_ERROR}\n" if fmt == "csv" else "")
    if fmt == "json":
        report = json.loads(out)
        assert report["status"] == "error"
        assert report["inputs"] == {"m": 14, "codim": 14}
        assert report["results"] == {"error": BASIS_CAP_ERROR}
        jsonschema.validate(report, load_schema())
    elif fmt == "csv":
        assert out == header + "\n"
    else:
        assert out.splitlines()[-3:] == [
            header.replace(",", "  "),
            f"error: {BASIS_CAP_ERROR}",
            "status: error",
        ]


def test_basis_cap_is_checked_before_building(monkeypatch, capsys):
    monkeypatch.setattr(cli, "BASIS_CAP", 5)
    code, out, _ = run_cli(capsys, ["gram", "--m", "2", "--codim", "2", "--format", "json"] + BASE)
    assert code == 0 and json.loads(out)["results"]["basis_size"] == 4
    code, out, _ = run_cli(capsys, ["basis", "--m", "3", "--codim", "2", "--format", "json"] + BASE)
    assert code == 3
    assert json.loads(out)["results"]["error"] == (
        "basis at m=3, codim=2 has 9 monomials, over the cap 5"
    )


FACTOR_CAP_CASES = [
    ("basis", ["--m", "2000", "--codim", "0"], 2000, ["monomial"]),
    ("gram", ["--m", "2000", "--codim", "0"], 2000,
     ["basis_size", "dual_size", "rank", "deficiency"]),
    ("mul", ["h30000000", "o1"], 30000000, ["product", "codim"]),
    ("pair", ["h30000000", "o1"], 30000000, ["value"]),
]


@pytest.mark.parametrize("command, args, m, header", FACTOR_CAP_CASES,
                         ids=[case[0] for case in FACTOR_CAP_CASES])
def test_factor_cap_is_checked_before_any_work(capsys, command, args, m, header):
    code, out, err = run_cli(capsys, [command, *args, "--format", "json"] + BASE)
    assert code == 3 and err == ""
    report = json.loads(out)
    assert report["status"] == "error" and report["inputs"]["m"] == m
    assert report["results"] == {"error": f"m={m} is over the factor cap {cli.FACTOR_CAP}"}
    jsonschema.validate(report, load_schema())
    code, out, _ = run_cli(capsys, [command, *args, "--format", "text"] + BASE)
    assert code == 3 and out.splitlines()[-3:] == [
        "  ".join(header), f"error: m={m} is over the factor cap {cli.FACTOR_CAP}", "status: error"
    ]


@pytest.mark.parametrize(
    "argv, count",
    [(["basis", "--m", "60", "--codim", "2"], 3601), (["gram", "--m", "40", "--codim", "0"], 2)],
    ids=["basis", "gram"],
)
def test_basis_work_grows_with_the_output(argv, count):
    # the enumeration visits only pair counts and local degrees that can
    # reach the codimension, so a small basis on many factors answers at once
    src = str(Path(tautring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "tautring.cli", *argv, "--format", "csv",
                           "--no-timing"] + SMALL, env=env, capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.splitlines()) == count


# Every value type a report holds; the float is timing_ms.
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@given(value=REPORT_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(value):
    assert cli._to_json(value) == json.dumps(value, indent=2)


Single = namedtuple("Single", "value")
Pair = namedtuple("Pair", "left right")
Empty = namedtuple("Empty", "")

# Library records among report values: namedtuples, tuples and Fractions.
RECORD_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.fractions(),
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple) | st.builds(Single, inner)
                   | st.builds(Pair, inner, inner) | st.just(Empty())),
    max_leaves=24,
)


@given(value=RECORD_TREES)
@settings(max_examples=300, deadline=None)
def test_json_writer_reads_records_as_their_report_values(value):
    assert cli._to_json(value) == json.dumps(oracles.report_values(value), indent=2)


def test_json_writer_refuses_what_json_cannot_write():
    with pytest.raises(TypeError):
        cli._to_json({"value": object()})


@pytest.mark.parametrize("verb", ["mul", "pair"])
@pytest.mark.parametrize("x", ["t(1,2)\t", "\u3000t(1,2)\n", "t(\u0661,2)", "\x1ct(1,2)\x1f"])
def test_json_reports_of_unusual_operands_match_json_dumps(capsys, verb, x):
    # timing is kept, so the float timing_ms is written too
    code, out, _ = run_cli(capsys, [verb, x, "t(1,2)", "--format", "json"] + SMALL)
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["x"] == x and "timing_ms" in report
    assert out == json.dumps(report, indent=2) + "\n"


def _report_stderr_is_right(args, code, err):
    """A report leaves stderr empty, except that a capped CSV report gives
    its reason there in one line."""
    if code == 3 and args["format"] == "csv":
        return ERROR_LINE.fullmatch(err) is not None
    return err == ""


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


_INTS = ("0", "1", "2", "3", "-1", "-2", "+2", " 2", "two", "2.0", "")
_TEXT = ("t(1,2)", "o1", "1", "-7/3", "1/2", "-", "--", "-h", "--help", "--bogus", "")


@st.composite
def _pieces(draw, options):
    """One to two argv tokens built from a command's options: a flag and a
    value (good or bad), a flag alone, --flag=value, an abbreviated flag, a
    stray positional, or help and other dashes."""
    flag, kwargs = draw(st.sampled_from(options))
    values = tuple(kwargs.get("choices", ())) + (_INTS if kwargs.get("type") is int else _TEXT)
    value = draw(st.sampled_from(values + _INTS + _TEXT))
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0 or flag[0] != "-":
        return [flag, value]
    if kind == 1:
        return [flag]
    if kind == 2:
        return [f"{flag}={value}"]
    if kind == 3:
        return [flag[: draw(st.integers(min_value=1, max_value=len(flag) - 1))], value]
    if kind == 4:
        return [value]
    return [draw(st.sampled_from(("-h", "--help", "--", "--no-timing", "--no-normalize-input")))]


@st.composite
def _argvs(draw):
    """Mostly well-formed argv for one command, with a few pieces that may
    break it: every option gets a good value, some are dropped, random
    pieces are added, and the order is shuffled."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    options = cli._COMMON + cli.COMMANDS[name].options
    good = {"--n": "2", "--d": "8", "--b": "3", "--m": "2", "--codim": "2", "--m-max": "2",
            "--cap-gram": "100", "--cap-b": "3", "--profile": "custom", "--format": "json"}
    pieces = [["--no-timing"]]
    for flag, kwargs in options:
        if flag[0] != "-":
            pieces.append([draw(st.sampled_from(("t(1,2)", "o1*h2", "1", "-1", "h1^2")))])
        elif flag in good and draw(st.integers(min_value=0, max_value=5)):
            pieces.append([flag, good[flag]])
    pieces += draw(st.lists(_pieces(options), max_size=3))
    return [name] + [token for piece in draw(st.permutations(pieces)) for token in piece]


@given(argv=_argvs())
@example(argv=["euler", "--delta=--"] + SMALL)  # argparse before 3.13 reads the value as []
@example(argv=["euler", "--no-timing"] + SMALL + ["--"])  # argparse refuses a spare '--'
@settings(max_examples=250, deadline=None)
def test_parser_agrees_with_the_argparse_oracle(argv):
    ours = _read(argv)
    assert _agrees_with_the_oracle(argv, ours)
    # main answers with the help page, a report, or one error line
    code, out, err = _main_output(argv)
    if ours == "help":
        assert (code, err) == (0, "") and out.startswith("usage: tautring ")
    elif out:
        assert ours != "error" and code != 2 and _report_stderr_is_right(ours, code, err)
    else:
        assert code == 2 if ours == "error" else code in (1, 2)
        assert ERROR_LINE.fullmatch(err)


# Small values for each option that takes one, caps of 0 and below included.
_SMALL_VALUES = {
    "--profile": ("custom", "three-quadrics", "double-plane"),
    "--n": ("2", "4") + ((HUGE_N,) if _HAS_STR_LIMIT else ()),
    "--d": ("2", "8"),
    "--b": ("1", "2", "3", "4"),
    "--delta": ("0", "1/2", "2", "1/0", "1e5000"),
    "--format": ("json", "csv", "text"),
    "--m": ("0", "1", "2", "3", "4"),
    "--codim": ("-1", "0", "2", "4", "9"),
    "--m-max": ("-1", "0", "1", "2", "3"),
    "--cap-gram": ("-1", "0", "100", "2000"),
    "--cap-b": ("-1", "0", "3", "7"),
}
_OPERANDS = ("t(1,2)", "o1*h2", "1", "h1^2", "t(1,3)*o2", "2*t(1,2)-o1/3", "t(1", "x")


@st.composite
def _small_argvs(draw):
    """argv for one command: the options a run needs given a small value,
    the others left out or given one, operands from a short list, and at
    most one malformed piece, in any order."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    options = cli._COMMON + cli.COMMANDS[name].options
    n = draw(st.sampled_from(_SMALL_VALUES["--n"]))
    # b is made from HUGE_N only under three-quadrics without --b; with any
    # other b the command would start work that grows with n
    fixed = {"--n": n, "--profile": "three-quadrics", "--b": None} if n == HUGE_N else {"--n": n}
    pieces = []
    for flag, kwargs in options:
        if flag in fixed:
            pieces += [] if fixed[flag] is None else [[flag, fixed[flag]]]
        elif flag[0] != "-":
            pieces.append([draw(st.sampled_from(_OPERANDS))])
        elif flag in ("--d", "--b") or kwargs.get("required") or draw(st.booleans()):
            values = _SMALL_VALUES.get(flag)
            pieces.append([flag] if values is None else _given(flag, draw(st.sampled_from(values))))
    if n != HUGE_N:  # a malformed piece might give --b, or another profile
        pieces += draw(st.lists(_pieces(options), max_size=1))
    return [name] + [token for piece in draw(st.permutations(pieces)) for token in piece]


def _given(flag, value):
    """A flag and its value, joined by '=' when the value starts with '-'."""
    return [f"{flag}={value}"] if value[:1] == "-" else [flag, value]


@given(argv=_small_argvs())
@settings(max_examples=500, deadline=None)
def test_every_argv_ends_in_a_report_or_one_error_line(argv):
    # help and reports (a failed check exits 1, a cap 3) go to stdout, a
    # capped CSV report's reason to stderr; anything else exits 1 or 2 with
    # one error line on stderr
    code, out, err = _main_output(argv)
    assert code in (0, 1, 2, 3)
    if out:
        assert code != 2 and _report_stderr_is_right(_read(argv), code, err)
    else:
        assert code in (1, 2) and ERROR_LINE.fullmatch(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "--no-timing"] + SMALL,
        ["mul", "t(1,2)", "--m", "3", "o3", "--no-normalize-input"] + SMALL,
        ["scan", "--m-max", "2", "--format", "csv", "--cap-gram", "7", "--profile", "custom"]
        + SMALL,
        ["verify-mck", "--profile", "double-plane", "--b", "4", "--delta", "1/2"],
        ["euler", "--n", "4", "--format", "csv", "--format", "json"] + SMALL,  # repeats
        ["euler", "--delta=-7/3"] + SMALL,  # --flag=value
        ["euler", "--n=2", "--d=8", "--b=3", "--format=csv", "--profile=custom"],
        ["mul"] + SMALL + ["--", "-1", "t(1,2)"],  # after '--', operands
        ["mul", "t(1,2)"] + SMALL + ["--", "o1"],
    ],
    ids=" ".join,
)
def test_parser_reads_well_formed_argv_as_the_oracle(argv):
    assert isinstance(_read(argv), dict)
    assert _read(argv) == _oracle(argv)


# The line the console script runs; main() without argv is the program.
PROGRAM = "import sys; from tautring.cli import main; sys.exit(main())"
PROGRAM_CASES = [
    ["euler", "--no-timing"] + SMALL,  # a pass
    ["euler", "--n", "2", "--d", "8", "--no-timing"],  # a usage error, exit 2
    ["scan", "--m-max", "x"] + SMALL,  # a bad value, exit 2
    ["kimura", "--n", "2", "--d", "8", "--b", "9", "--no-timing", "--format", "json"],  # a cap
    ["scan", "--help"],
    ["verify-mck", "--profile", "three-quadrics", "--n", "12", "--b", "22", "--no-timing",
     "--format", "json"],  # a 370 kB report
]


@pytest.mark.parametrize("argv", PROGRAM_CASES, ids=" ".join)
def test_program_answers_as_main_in_process(argv):
    # stdout is a pipe and block-buffered, so a report left unflushed at the
    # early exit would be lost
    src = str(Path(tautring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", PROGRAM, *argv], env=env, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == _main_output(argv)


def _exit_refused(code):
    raise AssertionError(f"os._exit({code}) was called")


def test_main_with_argv_returns_its_code(monkeypatch):
    monkeypatch.setattr(cli.os, "_exit", _exit_refused)
    assert _main_output(["euler", "--no-timing"] + SMALL)[0] == 0
    assert _main_output(["kimura", "--n", "2", "--d", "8", "--b", "9"])[0] == 3


class _Exited(Exception):
    pass


def test_program_flushes_then_ends_the_process(monkeypatch):
    flushed, codes = [], []

    def record_exit(code):
        codes.append(code)
        raise _Exited

    out, err = io.StringIO(), io.StringIO()
    out.flush = lambda: flushed.append("stdout")
    err.flush = lambda: flushed.append("stderr")
    monkeypatch.setattr(sys, "argv", ["tautring", "euler", "--n", "2", "--d", "8"])
    monkeypatch.setattr(cli.os, "_exit", record_exit)
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(_Exited):
        main()
    assert (codes, flushed) == ([2], ["stdout", "stderr"])
    assert err.getvalue() == "error: --b is required (no default Betti number is assumed)\n"


def test_program_takes_the_normal_exit_when_a_flush_fails(monkeypatch):
    def closed_pipe():
        raise BrokenPipeError

    out = io.StringIO()
    out.flush = closed_pipe
    monkeypatch.setattr(sys, "argv", ["tautring", "euler", "--no-timing"] + SMALL)
    monkeypatch.setattr(cli.os, "_exit", _exit_refused)
    with redirect_stdout(out):
        assert main() == 0
    assert out.getvalue().startswith("command: euler\n")


def test_program_takes_the_normal_exit_when_a_command_raises(monkeypatch):
    def crash(params):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "euler_char", crash)
    monkeypatch.setattr(sys, "argv", ["tautring", "euler", "--no-timing"] + SMALL)
    monkeypatch.setattr(cli.os, "_exit", _exit_refused)
    with pytest.raises(RuntimeError, match="unexpected"):
        main()


# The report contract, one row per command and exit code that it can reach:
# argv, a patch of one library call in `cli` as (name, wrap) or None, and the
# exit code.  basis, mul, pair and gram check nothing, so they never exit 1;
# the verifiers, lemma-ok, gamma3 and euler take no cap, so they never exit 3.
HELP_ARGVS = [[name, "--help"] for name in cli.COMMANDS] + [
    ["-h"], ["--help", "euler"], ["euler", "--bogus", "--help"]]
_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", int)() < 8000
CONTRACT_CASES = (
    [(argv, None, 0) for argv in COMMANDS]
    + [(argv, None, 0 if argv in HELP_ARGVS else 2) for argv in PARSE_CASES]
    + [([command] + BASE, (call, patch), 1) for command, call, patch, _, _ in FAIL_CASES]
    + [
        (["euler"] + BASE, ("euler_char", lambda euler_char: lambda params: euler_char(params) + 1), 1),
        (["kimura", "--n", "2", "--d", "8", "--b", "2", "--delta", "2", "--no-timing"], None, 1),
        (["gamma3"] + BASE, ("solve_gamma3", lambda _: _no_cancellation), 1),  # an error line
        (["basis", "--m", "0", "--codim", "0"] + BASE, None, 2),
        (["gram", "--m", "2", "--codim=99"] + BASE, None, 2),
        (["mul", "t(1", "1"] + BASE, None, 2),
        (["pair", "h1^2", "1", "--no-normalize-input"] + BASE, None, 2),
        (["scan", "--m-max", "0"] + BASE, None, 2),
        (["kimura", "--cap-b", "2.5"] + BASE, None, 2),
        (["verify-ck", "--delta", "1/0"] + BASE, None, 2),
        (["verify-mck", "--n", "3", "--d", "8", "--b", "3"], None, 2),
        (["lemma-ok", "--profile", "double-plane", "--n", "4", "--b", "3"], None, 2),
        (["gamma3", "--n", "2", "--d", "8"], None, 2),
    ]
    + [([command, "--m", "14", "--codim", "14"] + BASE, None, 3) for command in ("basis", "gram")]
    + [([command, *args] + BASE, None, 3) for command, args, _, _ in FACTOR_CAP_CASES]
    + [
        (["scan", "--m-max", "4", "--cap-gram", "5"] + BASE, None, 3),
        (["kimura", "--n", "2", "--d", "8", "--b", "9", "--no-timing"], None, 3),  # --cap-b
        (["kimura", "--n", "2", "--d", "8", "--b", "4", "--no-timing"], None, 3),  # --cap-gram
    ]
    + [([command, *operands] + BASE, None, 3) for command, operands, _ in (LIMIT_CASES if _LIMITED else ())]
)


def _contract_id(case):
    argv, _, code = case
    text = " ".join(argv) or "(empty)"
    return f"exit{code}: " + (text if len(text) <= 60 else text[:60] + "...")


@pytest.mark.parametrize("argv, patch, code", CONTRACT_CASES, ids=map(_contract_id, CONTRACT_CASES))
def test_every_command_meets_the_report_contract(monkeypatch, argv, patch, code):
    # a report on stdout or one error line on stderr, never both and never a
    # traceback, except that a stopped CSV report gives its reason on stderr;
    # a stopped report carries its reason in JSON and text, and in CSV is the
    # header alone or a scan's finished rows; the documented code
    if patch is not None:
        name, wrap = patch
        monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
    reasons = []
    for fmt in ("json", "csv", "text"):
        got, out, err = _main_output(argv + ["--format", fmt])
        assert got == code and "Traceback" not in out + err, fmt
        if not out:
            assert code in (1, 2) and ERROR_LINE.fullmatch(err), fmt
            continue
        if fmt == "csv" and code == 3:
            assert ERROR_LINE.fullmatch(err), fmt
            reasons.append(err.removeprefix("error: ").removesuffix("\n"))
        else:
            assert err == "", fmt
        if code == 0 and out.startswith("usage: tautring "):
            continue  # the help page
        assert code != 2, fmt
        status = {0: "pass", 1: "fail", 3: "error"}[code]
        if fmt == "json":
            report = json.loads(out)
            jsonschema.validate(report, load_schema())
            assert report["status"] == status
            assert ("error" in report["results"]) == (code == 3)
            reasons += [report["results"]["error"]] if code == 3 else []
        elif fmt == "text":
            lines = out.splitlines()
            assert lines[-1] == f"status: {status}"
            stops = [line for line in lines if line.startswith("error: ")]
            assert stops == ([lines[-2]] if code == 3 else [])
            reasons += [line[len("error: "):] for line in stops]
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == list(cli.COMMANDS[argv[0]].columns)
            if code == 3 and argv[0] == "scan":  # the rows finished, a prefix of the whole scan
                whole = _main_output(argv + ["--format", "csv", f"--cap-gram={10**80}"])[1]
                assert len(rows) > 1 and whole.startswith(out) and len(whole) > len(out)
            elif code == 3:
                assert len(rows) == 1
    # the one reason, the same in JSON, text and CSV
    assert len(reasons) == (3 if code == 3 else 0) and len(set(reasons)) <= 1
