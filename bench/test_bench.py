"""Tests of the benchmark harness itself (run with the rest of the suite)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from tautring import ModelParams, enumerate_basis

BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n,m_max", [(2, 6), (4, 4)])
def test_closed_form_matches_enumerate_basis(n, m_max):
    params = ModelParams(n=n, d=8, b=3)
    for m in range(1, m_max + 1):
        for codim in range(m * n + 1):
            assert checks.basis_count(n, m, codim) == len(enumerate_basis(params, m, codim))


def test_closed_form_gives_the_kimura_dual_count():
    assert checks.basis_count(2, 8, 8) == 10410


def _tautring_attributes() -> dict[tuple[str, str], int]:
    return {(mod.__name__, attr): id(value)
            for mod in tracing._modules() for attr, value in vars(mod).items()}


def test_wrapping_then_restoring_leaves_every_attribute_identical():
    import tautring.calculus
    import tautring.cli  # noqa: F401

    before = _tautring_attributes()
    original = tautring.calculus.rank_kernel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tautring.calculus.rank_kernel is not original
        assert tautring.linalg.rank_kernel is tautring.calculus.rank_kernel
    finally:
        tracer.restore()
    assert _tautring_attributes() == before


def _result(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_pass_has_no_failures(capsys, workload):
    result = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--short",
                     "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_short_runs_repeat_their_counts(capsys):
    argv = ("--workload", "cli_batch", "--seed", "5", "--seconds", "0", "--short", "--trace", "1")
    first, second = _result(capsys, *argv), _result(capsys, *argv)
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] != "s" and k != "trace.overhead_ratio"}

    assert counts(first) == counts(second)
    assert first["metrics"]["algebra.multiply.calls"]["value"] > 0


def test_workloads_follow_the_seed():
    assert workloads.build("cli_batch", 7) == workloads.build("cli_batch", 7)
    assert workloads.build("cli_batch", 7) != workloads.build("cli_batch", 8)
    assert workloads.build("scan", 7) == workloads.build("scan", 8)


def test_every_fixed_command_has_a_digest():
    digests = checks.load_digests()
    assert {c.key for c in workloads.fixed_commands()} <= digests.keys()


def test_checks_reject_wrong_outputs():
    scan = workloads.build("scan", 1, short=True)[0]
    rows = [{"m": m, "codim": c, "basis_size": checks.basis_count(2, m, c),
             "rank": checks.basis_count(2, m, c), "deficiency": 0}
            for m in range(1, 4) for c in range(2 * m + 1)]
    report = {"status": "pass", "results": {"rows": rows}}
    assert checks._check_json(scan, report) is None
    rows[4]["rank"] -= 1
    assert "rank" in checks._check_json(scan, report)
    del rows[4]
    assert "cover" in checks._check_json(scan, report)
    assert checks.check_command(scan, 0, b"{}", checks.load_digests()) is not None
    assert checks.check_command(scan, 1, b"", {}) == "exit code 1"


def test_group_check_compares_mul_and_pair():
    def out(results):
        return json.dumps({"status": "pass", "results": results}).encode()

    cmd = workloads.Command(("mul", "x", "y", "--m", "2"), workloads.OPERAND_GROUPS[0], "mul_xy")
    members = {
        "pair_xy": (cmd, out({"value": "3/2"})),
        "pair_yx": (cmd, out({"value": "3/2"})),
        "mul_xy": (cmd, out({"product": "3/2*o1*o2", "codim": 4})),
        "mul_xz": (cmd, out({"product": "h1", "codim": 1})),
        "mul_zx": (cmd, out({"product": "h1", "codim": 1})),
    }
    assert checks.check_group(members) is None
    members["pair_yx"] = (cmd, out({"value": "2"}))
    assert checks.check_group(members) == "pair is not symmetric"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *CONFIG["command"][1:], "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
