"""The paper's Y at its own middle Betti number.

Y is a smooth intersection of three quadrics in P^(n+3), of even
dimension n and degree 8.  Its middle Betti number is b(n) = n^2 + 5n + 8
(22 only at n = 2, the K3 surface), by two routes that share nothing:

- Hirzebruch: c(TY) = (1 + h)^(n+4) (1 + 2h)^(-3), so
  chi(Y) = 8 [h^n] (1 + h)^(n+4) (1 + 2h)^(-3); by Lefschetz every other
  Betti number is 1 in even degree and 0 in odd degree, so b = chi(Y) - n;
- Riemann-Hurwitz: the double plane branched along the discriminant
  curve, of degree e = n + 4, has chi = 2 chi(P^2) - chi(curve), so
  b_2 = e^2 - 3e + 4.

The verifiers then run at (n, b(n)), and `euler_char` gives chi(Y): a
third route.  `--profile three-quadrics` reads b(n) from n when `--b` is
omitted, and `euler` there reports chi(Y).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest

from tautring import (
    ModelParams,
    ck_projectors,
    class_codim,
    euler_char,
    expand_diagonal_times_h,
    solve_gamma3,
    verify_ck,
    verify_mck,
)
from tautring.cli import main

EVEN_N = range(2, 21, 2)


def euler_by_hirzebruch(n: int) -> int:
    """8 times the h^n coefficient of (1 + h)^(n+4) (1 + 2h)^(-3)."""
    # (1 + 2h)^(-3) = sum_j C(j + 2, 2) (-2h)^j
    return 8 * sum(comb(n + 4, n - j) * comb(j + 2, 2) * (-2) ** j for j in range(n + 1))


def betti_by_hirzebruch(n: int) -> int:
    return euler_by_hirzebruch(n) - n


def betti_of_double_plane(e: int) -> int:
    """b_2 of the double cover of P^2 branched along a smooth curve of degree e."""
    genus = (e - 1) * (e - 2) // 2
    chi_surface = 2 * 3 - (2 - 2 * genus)  # two sheets of P^2, glued along the curve
    return chi_surface - 2  # b_0 = b_4 = 1, b_1 = b_3 = 0


@pytest.mark.parametrize("n", EVEN_N)
def test_betti_number_by_hirzebruch_and_by_riemann_hurwitz(n):
    assert betti_by_hirzebruch(n) == betti_of_double_plane(n + 4) == n * n + 5 * n + 8


def test_betti_numbers_of_the_first_ten_even_dimensions():
    assert [betti_by_hirzebruch(n) for n in EVEN_N] == [22, 44, 74, 112, 158, 212, 274, 344, 422, 508]


REAL = [ModelParams(n, 8, n * n + 5 * n + 8) for n in (4, 6)]


@pytest.mark.parametrize("params", REAL, ids=lambda p: f"n{p.n}b{p.b}")
def test_euler_char_is_the_euler_number_of_y(params):
    assert euler_char(params) == euler_by_hirzebruch(params.n) == {4: 48, 6: 80}[params.n]


@pytest.mark.parametrize("params", REAL, ids=lambda p: f"n{p.n}b{p.b}")
def test_verifiers_pass_at_the_real_betti_number(params):
    ck = verify_ck(ck_projectors(params))
    assert ck.passed, [c for c in ck.checks if not c.ok]
    mck = verify_mck(params)
    assert mck.passed, [c for c in (*mck.cases, *mck.partition) if not c.ok]
    for factor in (1, 2):
        assert class_codim(expand_diagonal_times_h(params, factor), params) == params.n + 1
    assert solve_gamma3(params).residual.is_zero


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("n", EVEN_N)
def test_euler_without_b_is_the_euler_number_of_y(n):
    code, out, err = _cli(["euler", "--profile", "three-quadrics", "--n", str(n), "--format", "json",
                           "--no-timing"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["params"]["b"] == n * n + 5 * n + 8
    chi = str(euler_by_hirzebruch(n))
    assert report["results"] == {"value": chi, "expected": chi, "match": True}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("command", ["verify-ck", "verify-mck", "lemma-ok", "gamma3", "euler"])
def test_an_omitted_b_is_the_betti_number_of_y(command, n, fmt):
    argv = [command, "--profile", "three-quadrics", "--n", str(n), "--format", fmt, "--no-timing"]
    omitted = _cli(argv)
    assert omitted[0] == 0
    assert omitted == _cli(argv + ["--b", str(n * n + 5 * n + 8)])
