"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line with its runtime; the stated time
budgets are asserted together with the mathematical content.
"""

import itertools
import json
import time
from fractions import Fraction
from random import Random

import pytest

from tautring import (
    ModelParams,
    RationalMatrix,
    TautClass,
    ck_projectors,
    euler_char,
    expand_diagonal_times_h,
    falling_factorial_pairing,
    gram,
    h_class,
    is_zero_in_cohomology,
    kimura_element,
    multiply,
    o_class,
    scan_injectivity,
    solve_gamma3,
    solve_linear,
    tau_class,
    unit_class,
    verify_ck,
    verify_mck,
)
from tautring.cli import main as cli_main
from strategies import random_monomial

FIVE_PROFILES = [
    ModelParams(2, 8, 2),
    ModelParams(2, 8, 3),
    ModelParams(2, 8, 22),
    ModelParams(4, 8, 5),
    ModelParams(2, 2, 44),
]


def _finish(number, name, start, budget):
    elapsed = time.monotonic() - start
    print(f"CRITERION {number} {name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_relation_suite_and_ring_laws():
    start = time.monotonic()
    for n in (2, 4):
        for b in (2, 3, 22):
            p = ModelParams(n, 8, b)
            # generating relations as rewriting fixpoints, on 4 factors
            o1, o2 = o_class(4, 1), o_class(4, 2)
            h1 = h_class(p, 4, 1)
            t12, t13, t23 = tau_class(4, 1, 2), tau_class(4, 1, 3), tau_class(4, 2, 3)
            assert multiply(o1, o1, p).is_zero
            assert multiply(h1, o1, p).is_zero
            hn = unit_class(4)
            for _ in range(n):
                hn = multiply(hn, h1, p)
            assert hn == o1.scale(8)
            assert multiply(t12, o1, p).is_zero
            assert multiply(t12, h1, p).is_zero
            assert multiply(t12, t12, p) == multiply(o1, o2, p).scale(b - 1)
            assert multiply(t12, t13, p) == multiply(t23, o1, p)
    rng = Random(0xA11CE)
    profiles = [ModelParams(n, 8, b) for n in (2, 4) for b in (2, 3, 22)]
    triples = 0
    while triples < 1000:
        p = profiles[rng.randrange(len(profiles))]
        m = rng.randint(1, 4)
        x = TautClass.from_monomial(random_monomial(rng, m, p.n))
        y = TautClass.from_monomial(random_monomial(rng, m, p.n))
        z = TautClass.from_monomial(random_monomial(rng, m, p.n))
        assert multiply(x, y, p) == multiply(y, x, p)
        assert multiply(multiply(x, y, p), z, p) == multiply(x, multiply(y, z, p), p)
        triples += 1
    _finish(1, "relation suite", start, 10)


def test_criterion_2_ck_axioms():
    start = time.monotonic()
    for p in FIVE_PROFILES:
        report = verify_ck(ck_projectors(p))
        assert report.passed, [c.name for c in report.checks if not c.ok]
    _finish(2, "CK axioms", start, 5)


def test_criterion_3_mck_condition():
    start = time.monotonic()
    for p in FIVE_PROFILES:
        report = verify_mck(p)
        assert report.passed
        for case in report.cases:
            if case.i + case.j != case.k:
                assert case.zero
        assert all(check.ok for check in report.partition)
    _finish(3, "MCK condition", start, 60)


def test_criterion_4_diagonal_times_h():
    start = time.monotonic()
    from tautring import TautMonomial

    expected_by_n = {
        2: TautClass(
            2,
            {
                TautMonomial(2, opoints=(1,), hpows=((2, 1),)): Fraction(1),
                TautMonomial(2, opoints=(2,), hpows=((1, 1),)): Fraction(1),
            },
        ),
        4: TautClass(
            2,
            {
                TautMonomial(2, opoints=(1,), hpows=((2, 1),)): Fraction(1),
                TautMonomial(2, opoints=(2,), hpows=((1, 1),)): Fraction(1),
                TautMonomial(2, hpows=((1, 2), (2, 3))): Fraction(1, 8),
                TautMonomial(2, hpows=((1, 3), (2, 2))): Fraction(1, 8),
            },
        ),
    }
    for n, expected in expected_by_n.items():
        p = ModelParams(n, 8, 3)
        for factor in (1, 2):
            assert expand_diagonal_times_h(p, factor) == expected
    _finish(4, "diagonal-times-h expansion", start, 1)


def test_criterion_5_modified_small_diagonal():
    start = time.monotonic()
    for n in (2, 4):
        p = ModelParams(n, 8, 3)
        solution = solve_gamma3(p)
        assert solution.residual.is_zero
        for (i, j, k), value in solution.coefficients.items():
            for perm in itertools.permutations((i, j, k)):
                assert solution.coefficients[perm] == value
    _finish(5, "modified small diagonal", start, 5)


def test_criterion_6_euler_identity():
    start = time.monotonic()
    for p in FIVE_PROFILES:
        assert euler_char(p) == p.n + p.b
    assert euler_char(ModelParams(2, 8, 22)) == 24
    _finish(6, "Euler identity", start, 1)


def test_criterion_7_injectivity_threshold():
    start = time.monotonic()
    table2 = scan_injectivity(ModelParams(2, 8, 2), 3)
    assert all(row.deficiency == 0 for row in table2)
    table3 = scan_injectivity(ModelParams(2, 8, 3), 5)
    assert all(row.deficiency == 0 for row in table3)
    _finish(7, "injectivity threshold", start, 600)


def test_criterion_8_kimura_relation():
    start = time.monotonic()
    p2 = ModelParams(2, 8, 2)
    element = kimura_element(p2)
    assert is_zero_in_cohomology(element, p2)
    report = gram(p2, 4, 4)
    assert len(report.kernel_basis) >= 1
    matrix = RationalMatrix(
        [[kernel.coefficient(mono) for kernel in report.kernel_basis] for mono in report.basis],
        cols=len(report.kernel_basis),
    )
    assert solve_linear(matrix, [element.coefficient(mono) for mono in report.basis]) is not None
    shifted = ModelParams(2, 8, 2, delta=Fraction(2))
    assert not is_zero_in_cohomology(kimura_element(shifted), shifted)
    deltas = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2)]
    for b in range(1, 7):
        for delta in deltas:
            brute = Fraction(0)
            for perm in itertools.permutations(range(b)):
                seen = set()
                cycles = 0
                for v in range(b):
                    if v in seen:
                        continue
                    cycles += 1
                    cur = v
                    while cur not in seen:
                        seen.add(cur)
                        cur = perm[cur]
                inversions = sum(
                    1
                    for a in range(b)
                    for c in range(a + 1, b)
                    if perm[a] > perm[c]
                )
                brute += (-1 if inversions % 2 else 1) * delta**cycles
            assert falling_factorial_pairing(b, delta) == brute
    _finish(8, "Kimura relation", start, 120)


def test_criterion_9_cli_determinism(capsys):
    start = time.monotonic()
    base = ["--profile", "custom", "--n", "2", "--d", "8", "--b", "3", "--no-timing"]
    commands = [
        ["basis", "--m", "2", "--codim", "2"] + base,
        ["mul", "t(1,2)", "t(1,2)"] + base,
        ["pair", "t(1,2)", "t(1,2)"] + base,
        ["gram", "--m", "2", "--codim", "2"] + base,
        ["verify-ck"] + base,
        ["verify-mck"] + base,
        ["lemma-ok"] + base,
        ["gamma3"] + base,
        ["euler"] + base,
        ["kimura", "--n", "2", "--d", "8", "--b", "2", "--no-timing"],
        ["scan", "--m-max", "3"] + base,
    ]
    for argv in commands:
        for fmt in ("json", "csv", "text"):
            code1 = cli_main(argv + ["--format", fmt])
            out1 = capsys.readouterr().out
            code2 = cli_main(argv + ["--format", fmt])
            out2 = capsys.readouterr().out
            assert code1 == code2 == 0
            assert out1 == out2
            if fmt == "json":
                json.loads(out1)
    _finish(9, "CLI determinism", start, 120)
