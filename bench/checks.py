"""Output checks for benchmark commands.

Each check uses a route independent of the code under test where one
exists: the closed-form basis count, rank + deficiency = basis size,
Euler = n + b, symmetry of the pairing, commutativity of the product.
Every command whose output does not depend on the seed is also checked
byte for byte against a digest of its `--no-timing` output at the seed
commit (`digests.json`, written by `record_digests.py`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

from workloads import Command

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@lru_cache(maxsize=None)
def local_assignments(factors: int, total: int, n: int) -> int:
    """Ways to give each of `factors` factors a local degree in 0..n
    (unit, h powers below n, the point class at n) summing to `total`."""
    if factors == 0:
        return 1 if total == 0 else 0
    return sum(local_assignments(factors - 1, total - deg, n) for deg in range(min(n, total) + 1))


def basis_count(n: int, m: int, codim: int) -> int:
    """Closed form for the normal-form basis size on m factors:
    sum over k of C(m, 2k) * (2k-1)!! * A(m - 2k, codim - n k)."""
    total = 0
    for k in range(m // 2 + 1):
        rest = codim - n * k
        if rest < 0:
            break
        total += comb(m, 2 * k) * _double_factorial(2 * k - 1) * local_assignments(m - 2 * k, rest, n)
    return total


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def load_digests() -> dict[str, str]:
    with DIGESTS.open() as fh:
        return json.load(fh)


def _gram_row(n: int, m: int, codim: int, row: dict) -> str | None:
    basis_size, rank, deficiency = (int(row[k]) for k in ("basis_size", "rank", "deficiency"))
    expected = basis_count(n, m, codim)
    if basis_size != expected:
        return f"m={m} codim={codim}: basis_size {basis_size}, closed form gives {expected}"
    if rank + deficiency != basis_size:
        return f"m={m} codim={codim}: rank {rank} + deficiency {deficiency} != {basis_size}"
    if "dual_size" in row and int(row["dual_size"]) != basis_count(n, m, m * n - codim):
        return f"m={m} codim={codim}: dual_size disagrees with the closed form"
    return None


def _scan_rows(cmd: Command, rows: list[dict]) -> str | None:
    n, m_max = cmd.n, int(cmd.option("--m-max"))
    cells = [(m, c) for m in range(1, m_max + 1) for c in range(m * n + 1)]
    if [(int(r["m"]), int(r["codim"])) for r in rows] != cells:
        return "scan rows do not cover every (m, codim) in order"
    for row in rows:
        err = _gram_row(n, int(row["m"]), int(row["codim"]), row)
        if err:
            return err
    return None


def _check_json(cmd: Command, report: dict) -> str | None:
    if report.get("status") != "pass":
        return f"status {report.get('status')!r}"
    res, name, n = report["results"], cmd.name, cmd.n
    if name == "scan":
        return _scan_rows(cmd, res["rows"])
    if name == "gram":
        m, codim = int(cmd.option("--m")), int(cmd.option("--codim"))
        if len(res["basis"]) != res["basis_size"] or len(res["kernel"]) != res["deficiency"]:
            return "gram lists disagree with their sizes"
        return _gram_row(n, m, codim, res)
    if name == "basis":
        m, codim = int(cmd.option("--m")), int(cmd.option("--codim"))
        expected = basis_count(n, m, codim)
        if not res["count"] == len(res["monomials"]) == len(set(res["monomials"])) == expected:
            return f"basis count {res['count']}, closed form gives {expected}"
        return None
    if name == "kimura":
        b = cmd.b
        if not (res["vanishing"] and res["crosscheck_ok"]):
            return "alternating element does not vanish or the crosscheck failed"
        if res["dual_count"] != basis_count(n, 2 * b, b * n):
            return f"dual_count {res['dual_count']}, closed form gives {basis_count(n, 2 * b, b * n)}"
        return None
    if name in ("verify-ck", "verify-mck", "lemma-ok"):
        return None if res["passed"] is True else "verifier did not pass"
    if name == "gamma3":
        return None if res["residual_zero"] and res["symmetric"] else "gamma3 residual or symmetry"
    if name == "euler":
        expected = str(n + cmd.b)
        return None if res["value"] == expected else f"euler {res['value']}, expected n + b = {expected}"
    return None  # mul and pair are checked against each other in check_group


_TRUE_COLUMNS = ("ok", "match", "equal")


def _check_csv(cmd: Command, text: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return "empty CSV"
    for col in _TRUE_COLUMNS:
        if col in rows[0] and any(r[col] != "True" for r in rows):
            return f"CSV column {col} is not all True"
    if cmd.name == "scan":
        return _scan_rows(cmd, rows)
    if cmd.name == "gram":
        return _gram_row(cmd.n, int(cmd.option("--m")), int(cmd.option("--codim")), rows[0])
    return None


def check_command(cmd: Command, code: int, output: bytes, digests: dict[str, str]) -> str | None:
    """None when the output is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    if cmd.group is None:
        expected = digests.get(cmd.key)
        if expected is None:
            return "no recorded digest for this command"
        if digest(output) != expected:
            return "output differs from the recorded digest"
    try:
        text = output.decode()
        if cmd.fmt == "json":
            return _check_json(cmd, json.loads(text))
        if cmd.fmt == "csv":
            return _check_csv(cmd, text)
        lines = text.rstrip("\n").split("\n")
        return None if lines[-1] == "status: pass" else f"last line {lines[-1]!r}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _top_coefficient(product: str, m: int) -> Fraction:
    """Coefficient of a class that must be a multiple of o1*...*om."""
    top = "*".join(f"o{f}" for f in range(1, m + 1))
    if product == "0":
        return Fraction(0)
    sign = -1 if product.startswith("-") else 1
    body = product.lstrip("-")
    if body == top:
        return Fraction(sign)
    coeff, star, rest = body.partition("*")
    if not star or rest != top:
        raise ValueError(f"{product!r} is not a multiple of {top}")
    return sign * Fraction(coeff)


def check_group(members: dict[str, tuple[Command, bytes]]) -> str | None:
    """Cross-check the mul/pair commands of one operand group.

    pair(x,y) = pair(y,x); mul(x,y) is pair(x,y) times the point class;
    mul(x,z) = mul(z,x).
    """
    try:
        res = {role: json.loads(out.decode())["results"] for role, (_, out) in members.items()}
        m = int(members["mul_xy"][0].option("--m"))
        if res["pair_xy"]["value"] != res["pair_yx"]["value"]:
            return "pair is not symmetric"
        if _top_coefficient(res["mul_xy"]["product"], m) != Fraction(res["pair_xy"]["value"]):
            return "pair differs from the top coefficient of the product"
        if res["mul_xz"] != res["mul_zx"]:
            return "product is not commutative"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def check_pass(commands: list[Command], codes: list[int], outputs: list[bytes],
               digests: dict[str, str]) -> list[str | None]:
    """Per-command failure reasons, naming the command, for one pass; group
    checks included."""
    reasons = [check_command(c, code, out, digests) for c, code, out in zip(commands, codes, outputs)]
    groups: dict[str, dict[str, tuple[Command, bytes]]] = {}
    for cmd, out in zip(commands, outputs):
        if cmd.group is not None:
            groups.setdefault(cmd.group, {})[cmd.role] = (cmd, out)
    for name, members in groups.items():
        err = check_group(members)
        if err:
            for i, cmd in enumerate(commands):
                if cmd.group == name and reasons[i] is None:
                    reasons[i] = f"group {name}: {err}"
    return [r and f"{cmd.key}: {r}" for cmd, r in zip(commands, reasons)]
