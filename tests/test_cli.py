import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import example, given, settings

import tautring
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
    assert code == 3 and err == ""
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


def test_arithmetic_error_ends_in_one_line_with_exit_1(capsys, monkeypatch):
    def no_cancellation(params):
        raise ArithmeticError("no polynomial in h cancels the residual")

    monkeypatch.setattr(cli, "solve_gamma3", no_cancellation)
    code, out, err = run_cli(capsys, ["gamma3"] + BASE)
    assert (code, out) == (1, "")
    assert err == "error: no polynomial in h cancels the residual\n"


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
    # import; csv loads only when a report is rendered in it, and argparse
    # (with gettext) only for help and usage errors.  A well-formed command
    # needs neither, and JSON is written without the json package.
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
PARSE_CASES = (
    [[name, "--help"] for name in cli.COMMANDS]
    + [[name, "--n", "two"] for name in cli.COMMANDS]
    + [[name, "--bogus", "--no-timing"] + SMALL for name in cli.COMMANDS]
    + [
        ["basis", "--codim", "2"] + SMALL,
        ["gram", "--m", "2"] + SMALL,
        ["mul", "t(1,2)"] + SMALL,
        ["pair"] + SMALL,
        ["scan"] + SMALL,
        ["scan", "--m", "2", "--no-timing"] + SMALL,
        ["kimura", "--cap-b", "many"] + SMALL,
    ]
)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    one_command = run_cli(capsys, argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert run_cli(capsys, argv) == one_command


def test_build_parser_without_a_command_lists_every_command():
    full, scan_only = cli.build_parser().format_help(), cli.build_parser("scan").format_help()
    for name, (helptext, *_) in cli.COMMANDS.items():
        assert helptext in full
        assert (helptext in scan_only) == (name == "scan")


def test_gram_codimension_out_of_range_is_named(capsys):
    for codim in ("99", "-1"):
        code, out, err = run_cli(capsys, ["gram", "--m", "2", "--codim", codim] + BASE)
        assert code == 2 and out == ""
        assert err == f"error: codimension {codim} is not in 0..m*n = 0..4\n"


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, ["euler", "--n", "3", "--d", "8", "--b", "2"])
    assert code == 2 and "even" in err
    code, _, err = run_cli(capsys, ["euler", "--profile", "three-quadrics", "--n", "2", "--d", "7", "--b", "2"])
    assert code == 2 and "fixes d = 8" in err
    code, _, err = run_cli(capsys, ["euler", "--profile", "double-plane", "--n", "4", "--b", "2"])
    assert code == 2 and "fixes n = 2" in err
    code, _, err = run_cli(capsys, ["euler", "--n", "2", "--d", "8"])
    assert code == 2 and "--b" in err
    code, _, _ = run_cli(capsys, ["euler", "--bogus-flag"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["no-such-command"])
    assert code == 2


def test_zero_denominator_delta_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, ["euler", "--delta", "1/0"] + BASE)
    assert code == 2 and out == ""
    assert err == "error: --delta 1/0 has a zero denominator\n"


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
    assert code == 3 and err == ""
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
    options = cli._COMMON + cli.COMMANDS[name][1]
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
@example(argv=["euler", "--delta=--"] + SMALL)  # argparse reads the value as []
@settings(max_examples=250, deadline=None)
def test_table_parser_agrees_with_argparse(argv):
    table = cli._parse_table(argv)
    if table is not None:
        assert vars(table) == vars(cli.build_parser(argv[0]).parse_args(argv))
    # whether the table accepts or declines, main answers as it does through argparse alone
    with mock.patch.object(cli, "_parse_table", lambda argv: None):
        expected = _main_output(argv)
    assert _main_output(argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "--no-timing"] + SMALL,
        ["mul", "t(1,2)", "--m", "3", "o3", "--no-normalize-input"] + SMALL,
        ["scan", "--m-max", "2", "--format", "csv", "--cap-gram", "7", "--profile", "custom"]
        + SMALL,
        ["verify-mck", "--profile", "double-plane", "--b", "4", "--delta", "1/2"],
        ["euler", "--n", "4", "--format", "csv", "--format", "json"] + SMALL,  # repeats
    ],
    ids=" ".join,
)
def test_table_parser_accepts_well_formed_argv(argv):
    table = cli._parse_table(argv)
    assert table is not None
    assert vars(table) == vars(cli.build_parser(argv[0]).parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "--delta=-7/3"] + SMALL,  # --x=y
        ["euler", "--delta", "-7/3"] + SMALL,  # a value starting with '-'
        ["euler", "--n", "-2", "--d", "8", "--b", "3"],
        ["scan", "--m", "2"] + SMALL,  # an abbreviation of --m-max
        ["euler", "--no-timing", "--"] + SMALL,
        ["euler", "-h"],
        ["mul", "t(1,2)"] + SMALL,
        ["mul", "t(1,2)", "1", "1"] + SMALL,
        ["scan", "--m-max", "x"] + SMALL,
        ["euler", "--format", "yaml"] + SMALL,
        ["euler", "--b"],
        ["basis", "--m", "2"] + SMALL,
        ["eul"] + SMALL,
        [],
    ],
    ids=lambda argv: " ".join(argv) or "(empty)",
)
def test_table_parser_leaves_the_rest_to_argparse(argv):
    assert cli._parse_table(argv) is None


# The line the console script runs; main() without argv is the program.
PROGRAM = "import sys; from tautring.cli import main; sys.exit(main())"
PROGRAM_CASES = [
    ["euler", "--no-timing"] + SMALL,  # a pass
    ["euler", "--n", "2", "--d", "8", "--no-timing"],  # a usage error, exit 2
    ["scan", "--m-max", "x"] + SMALL,  # an argparse error, exit 2
    ["kimura", "--n", "2", "--d", "8", "--b", "9", "--no-timing", "--format", "json"],  # a cap
    ["scan", "--help"],
    ["verify-mck", "--profile", "three-quadrics", "--n", "12", "--b", "22", "--no-timing",
     "--format", "json"],  # a 370 kB report
]


@pytest.mark.parametrize("argv", PROGRAM_CASES, ids=" ".join)
def test_program_answers_as_main_in_process(monkeypatch, argv):
    # stdout is a pipe and block-buffered, so a report left unflushed at the
    # early exit would be lost; COLUMNS fixes the width of argparse's help
    monkeypatch.setenv("COLUMNS", "80")
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
