import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tautring import RationalMatrix, rank_kernel, solve_linear
from oracles import mat_vec, rank, two_phase_rank_kernel


def test_identity_has_full_rank_and_empty_kernel():
    m = RationalMatrix([[1, 0], [0, 1]])
    rank, kernel = rank_kernel(m)
    assert rank == 2
    assert kernel == []


def test_zero_matrix_kernel_is_canonical_identity_basis():
    m = RationalMatrix([[0, 0, 0], [0, 0, 0]])
    rank, kernel = rank_kernel(m)
    assert rank == 0
    assert kernel == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_proportional_rows_kernel():
    m = RationalMatrix([[1, 2], [2, 4]])
    rank, kernel = rank_kernel(m)
    assert rank == 1
    assert kernel == [(Fraction(-2), Fraction(1))]


def test_empty_shapes():
    rank, kernel = rank_kernel(RationalMatrix([], cols=3))
    assert rank == 0 and len(kernel) == 3
    rank, kernel = rank_kernel(RationalMatrix([[], []], cols=0))
    assert rank == 0 and kernel == []


def test_non_rectangular_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])


def test_solve_identity():
    m = RationalMatrix([[1, 0], [0, 1]])
    assert solve_linear(m, [3, 5]) == (Fraction(3), Fraction(5))


def test_solve_underdetermined_picks_echelon_solution():
    m = RationalMatrix([[1, 1]])
    assert solve_linear(m, [2]) == (Fraction(2), Fraction(0))


def test_solve_inconsistent():
    m = RationalMatrix([[1], [1]])
    assert solve_linear(m, [0, 1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(RationalMatrix([[1, 2]]), [1, 2])


def _brute_rank(matrix: RationalMatrix) -> int:
    """Independent oracle: largest size of a nonzero square minor."""

    def det(rows, cols):
        if not rows:
            return Fraction(1)
        total = Fraction(0)
        r = rows[0]
        for idx, c in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = matrix.entries[r][c] * minor
            total += term if idx % 2 == 0 else -term
        return total

    for size in range(min(matrix.rows, matrix.cols), 0, -1):
        for rows in itertools.combinations(range(matrix.rows), size):
            for cols in itertools.combinations(range(matrix.cols), size):
                if det(list(rows), list(cols)):
                    return size
    return 0


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    entries = [
        [
            Fraction(draw(small_entries), draw(st.integers(min_value=1, max_value=3)))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return RationalMatrix(entries)


@given(small_matrices())
@settings(max_examples=150)
def test_rank_matches_minor_oracle_and_transpose(matrix):
    rank, kernel = rank_kernel(matrix)
    assert rank == _brute_rank(matrix)
    rank_t, _ = rank_kernel(matrix.transpose())
    assert rank == rank_t
    assert rank + len(kernel) == matrix.cols
    zero = tuple(Fraction(0) for _ in range(matrix.rows))
    for vec in kernel:
        assert mat_vec(matrix, vec) == zero


@given(small_matrices(), st.data())
@settings(max_examples=100)
def test_solve_is_exact_when_consistent(matrix, data):
    x = [
        Fraction(data.draw(small_entries), data.draw(st.integers(min_value=1, max_value=3)))
        for _ in range(matrix.cols)
    ]
    rhs = mat_vec(matrix, x)
    solution = solve_linear(matrix, rhs)
    assert solution is not None
    assert mat_vec(matrix, solution) == rhs


@st.composite
def matrices_with_zero_lines(draw):
    """Up to 5 x 5, empty shapes included, with some whole rows and columns zero."""
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=4)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=4)))
    entries = [
        [
            Fraction(0)
            if r in zero_rows or c in zero_cols
            else Fraction(draw(small_entries), draw(st.integers(min_value=1, max_value=3)))
            for c in range(cols)
        ]
        for r in range(rows)
    ]
    return RationalMatrix(entries, cols=cols)


@given(matrices_with_zero_lines())
@settings(max_examples=150)
def test_rank_matches_rank_kernel(matrix):
    assert rank(matrix) == rank_kernel(matrix)[0]


@given(matrices_with_zero_lines())
@settings(max_examples=150)
def test_rank_kernel_matches_the_two_phase_oracle(matrix):
    assert rank_kernel(matrix) == two_phase_rank_kernel(matrix)


def test_kernel_matches_sympy_nullspace():
    # sympy's nullspace is the same canonical basis: one vector per free
    # column in ascending order, 1 at that column and 0 at the other free ones
    sympy = pytest.importorskip("sympy")

    @given(matrices_with_zero_lines())
    @settings(max_examples=100, deadline=None)
    def check(matrix):
        values = [sympy.Rational(x.numerator, x.denominator) for row in matrix.entries for x in row]
        expected = [
            tuple(Fraction(int(v.p), int(v.q)) for v in vec)
            for vec in sympy.Matrix(matrix.rows, matrix.cols, values).nullspace()
        ]
        assert rank_kernel(matrix)[1] == expected

    check()


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @given(matrices_with_zero_lines())
    @settings(max_examples=100, deadline=None)
    def check(matrix):
        values = [sympy.Rational(x.numerator, x.denominator) for row in matrix.entries for x in row]
        assert rank(matrix) == sympy.Matrix(matrix.rows, matrix.cols, values).rank()

    check()


def test_solve_matches_sympy():
    # sympy's free parameters set to 0 give the echelon solution; sympy
    # raises "no solution" exactly where solve_linear returns None
    sympy = pytest.importorskip("sympy")

    @given(matrices_with_zero_lines(), st.data())
    @settings(max_examples=100, deadline=None)
    def check(matrix, data):
        rhs = [
            Fraction(data.draw(small_entries), data.draw(st.integers(min_value=1, max_value=3)))
            for _ in range(matrix.rows)
        ]
        rational = lambda x: sympy.Rational(x.numerator, x.denominator)
        a = sympy.Matrix(matrix.rows, matrix.cols, [rational(x) for row in matrix.entries for x in row])
        b = sympy.Matrix(matrix.rows, 1, [rational(x) for x in rhs])
        try:
            solution, params = a.gauss_jordan_solve(b)
        except ValueError as exc:
            assert "no solution" in str(exc).lower()
            expected = None
        else:
            solution = solution.subs({t: 0 for t in params})
            expected = tuple(Fraction(int(v.p), int(v.q)) for v in solution)
        assert solve_linear(matrix, rhs) == expected

    check()


@pytest.mark.parametrize("build, kind", [
    (lambda: RationalMatrix([[1, 0.5]]), "float"),
    (lambda: solve_linear(RationalMatrix([[1]]), [0.1]), "float"),
    (lambda: RationalMatrix([[1, True]]), "bool"),
    (lambda: solve_linear(RationalMatrix([[1]]), [False]), "bool"),
], ids=["RationalMatrix", "solve_linear", "RationalMatrix-bool", "solve_linear-bool"])
def test_matrix_entries_and_rhs_refuse_floats(build, kind):
    with pytest.raises(ValueError, match=f"is a {kind};"):
        build()
