import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

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
    # import; json and csv load only when a report is rendered in them
    src = str(Path(tautring.__file__).resolve().parents[1])
    code = (
        "import sys, tautring.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('tautring', 'json', 'csv', 'typing')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    layers = ("algebra", "calculus", "cli", "grammar", "kimura", "linalg", "motives")
    assert out == str(["tautring"] + [f"tautring.{layer}" for layer in layers]) + "\n"


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
    for name, (helptext, _, _) in cli.COMMANDS.items():
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
