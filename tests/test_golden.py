"""Golden outputs: `--no-timing` reports stay byte-identical.

Two sets of reference sha256 digests, both only read here:

- bench/digests.json holds the standard output of every seed-independent
  benchmark command (all exit 0);
- tests/golden_digests.json holds the exit code and the digests of the
  standard output and error of GOLDEN_ARGV: every subcommand in every
  format, each resource cap in every format, `mul`/`pair` on fixed
  operands, a value over the int-string limit, and usage errors.

To re-record the second set after an intended change of output, run
`python tests/test_golden.py` with the package on PYTHONPATH.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tautring.cli import main

HERE = Path(__file__).resolve().parent
BENCH_DIGESTS = json.loads((HERE.parent / "bench" / "digests.json").read_text())
GOLDEN_FILE = HERE / "golden_digests.json"

SMALL = "--n 2 --d 8 --b 3"
NINES = "9" * 4000
_PER_FORMAT = [
    f"basis --m 2 --codim 2 {SMALL}",
    f"basis --m 3 --codim 4 {SMALL} --delta 1/2",
    f"mul t(1,2) t(1,2) {SMALL}",
    f"pair t(1,2) t(1,2) {SMALL}",
    f"gram --m 2 --codim 2 {SMALL}",
    f"gram --m 3 --codim 3 {SMALL} --delta 2",
    f"verify-ck {SMALL}",
    f"verify-ck --profile double-plane --b 4 --delta 1/2",
    f"verify-mck {SMALL}",
    "verify-mck --profile three-quadrics --n 4 --b 22 --delta 3",
    f"lemma-ok {SMALL}",
    f"gamma3 {SMALL}",
    "gamma3 --profile three-quadrics --n 12 --b 22",  # text/CSV rows sort as strings
    *(f"{command} {profile}" for profile in ("--n 6 --d 5 --b 2 --delta 1/2", "--n 4 --d 1 --b 5")
      for command in ("gamma3", "lemma-ok", "verify-mck")),
    f"euler {SMALL}",
    f"euler {SMALL} --delta 7/3",
    "euler --profile three-quadrics --n 40 --b 22",
    "lemma-ok --profile three-quadrics --n 40 --b 22 --delta 1/2",
    "verify-ck --profile three-quadrics --n 20 --b 22",
    "kimura --n 2 --d 8 --b 2",
    "kimura --n 2 --d 8 --b 2 --delta 2",
    "kimura --n 2 --d 8 --b 3 --cap-b 5 --cap-gram 100000",
    *(f"kimura --n 2 --d 8 --b {b} --cap-gram 1000000{delta}"
      for b in (3, 4, 5) for delta in ("", " --delta 0", " --delta 7/3", " --delta=-7/3")),
    "kimura --n 4 --d 8 --b 3 --cap-gram 1000000",
    "kimura --n 4 --d 8 --b 4 --cap-gram 1000000",
    f"scan --m-max 2 {SMALL}",
    "scan --n 4 --d 8 --b 3 --m-max 3 --cap-gram 100000",
    # two-digit factors: the text sort puts h1*h10 before h1*h2
    f"basis --m 10 --codim 2 {SMALL}",
    f"gram --m 10 --codim 2 {SMALL}",
    # Y's own middle Betti number b(n) = n^2 + 5n + 8 at n = 4 and 6
    *(f"{command} --profile three-quadrics {profile}" for profile in ("--n 4 --b 44", "--n 6 --b 74")
      for command in ("verify-ck", "verify-mck", "lemma-ok", "gamma3", "euler")),
    # resource caps
    f"basis --m 14 --codim 14 {SMALL}",
    f"gram --m 14 --codim 14 {SMALL}",
    "kimura --n 2 --d 8 --b 9",
    "kimura --n 2 --d 8 --b 4",
    f"scan --m-max 4 --cap-gram 5 {SMALL}",
    f"scan --m-max 1 --cap-gram 0 {SMALL}",
    # operands: pulled back to a common m, given --m, strict, inhomogeneous
    f"mul h1 t(1,2) {SMALL}",
    f"mul 2*t(1,2)+h1*h2 1/3*o3 {SMALL}",
    f"mul h1^2 1 --m 3 {SMALL}",
    f"mul 1+h1 h2 {SMALL} --no-normalize-input",
    f"mul 3*o1*o2+t(1,2) 1-h1 --m 2 {SMALL}",
    f"mul 2*h1-h1+o2-o2 h2+3*h2-3*h2 {SMALL}",  # terms cancel while summed
    f"gram --m 3 --codim 2 {SMALL}",  # off the middle: the dual is enumerated
    f"pair h1 h1 {SMALL}",
    f"pair t(1,2)*h3 h1*h2*h3 --m 3 {SMALL} --no-normalize-input",
    f"pair 2*o1-h1*h2 5/2*o2+t(1,2) --profile three-quadrics --n 2 --b 22",
    # a value of 8000 digits, over the int-string limit
    f"mul {NINES} {NINES} {SMALL}",
    f"pair {NINES}*o1 {NINES} {SMALL}",
]
GOLDEN_ARGV = [f"{command} --format {fmt} --no-timing"
               for command in _PER_FORMAT for fmt in ("json", "csv", "text")] + [
    # usage and structural errors
    f"euler {SMALL} --delta 1/0 --no-timing",
    f"euler {SMALL} --delta x --no-timing",
    f"pair h1 h1 --m=1 --delta=1e5000 {SMALL} --no-timing",  # not read as 10**5000
    "euler --n 3 --d 8 --b 2 --no-timing",
    f"gram --m 2 --codim 9 {SMALL} --no-timing",
    f"mul h1^9 1 {SMALL} --no-normalize-input --no-timing",
    f"mul t(1,1) 1 {SMALL} --no-timing",
    f"scan --m-max 0 {SMALL} --no-timing",
    f"scan --m-max x {SMALL}",
    f"basis --codim 2 {SMALL}",
    "no-such-command",
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: str) -> dict:
    """Exit code and sha256 of stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv.split())
    return {"code": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


@pytest.mark.parametrize("command", sorted(BENCH_DIGESTS))
def test_output_digest_is_unchanged(command):
    assert run(command) == {"code": 0, "stdout": BENCH_DIGESTS[command], "stderr": _sha256("")}


@pytest.mark.parametrize("argv", GOLDEN_ARGV)
def test_golden_output_is_unchanged(argv):
    assert run(argv) == json.loads(GOLDEN_FILE.read_text())[argv]


def test_golden_file_covers_exactly_the_golden_argv():
    assert sorted(json.loads(GOLDEN_FILE.read_text())) == sorted(GOLDEN_ARGV)


if __name__ == "__main__":
    GOLDEN_FILE.write_text(json.dumps({argv: run(argv) for argv in GOLDEN_ARGV},
                                      indent=1, sort_keys=True) + "\n")
    print(f"{len(GOLDEN_ARGV)} digests written to {GOLDEN_FILE}", file=sys.stderr)
