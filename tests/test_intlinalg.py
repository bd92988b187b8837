from fractions import Fraction

from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selgrowth.intlinalg import hermite_normal_form_rows, integer_kernel_basis

from oracle import lattice_coordinates


def rational_echelon(A):
    """Independent oracle: reduced row echelon form over Q, and its pivot columns."""
    M = [[Fraction(x) for x in row] for row in A]
    cols = len(M[0]) if M else 0
    pivots = []
    for col in range(cols):
        row = len(pivots)
        piv = next((r for r in range(row, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        M[row] = [a / M[row][col] for a in M[row]]
        for r in range(len(M)):
            if r != row and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[row])]
        pivots.append(col)
    return M[:len(pivots)], pivots


def rational_rank(A):
    return len(rational_echelon(A)[1])


def rational_kernel(A):
    """A basis of {x in Q^n : A x = 0}, one vector per free column."""
    n = len(A[0])
    M, pivots = rational_echelon(A)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = [Fraction(int(c == f)) for c in range(n)]
        for row, pc in zip(M, pivots):
            x[pc] = -row[f]
        basis.append(x)
    return basis


def rational_coordinates(rows, target):
    """The c with sum_i c_i rows[i] = target over Q (rows independent), or None."""
    n = len(target)
    aug = [[r[j] for r in rows] + [target[j]] for j in range(n)]
    M, pivots = rational_echelon(aug)
    if len(rows) in pivots:  # the target column is a pivot: no solution
        return None
    return [row[-1] for row in M]


def is_echelon(rows):
    pivots = [next((k for k, x in enumerate(r) if x), None) for r in rows]
    return None not in pivots and all(a < b for a, b in zip(pivots, pivots[1:]))

# reproducible examples: the same inputs on every run
PINNED = settings(derandomize=True, max_examples=150, deadline=None)

matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_is_kernel_and_complete(A):
    basis = integer_kernel_basis(A)
    n = len(A[0])
    for vec in basis:
        assert all(sum(row[j] * vec[j] for j in range(n)) == 0 for row in A)
    assert len(basis) == n - rational_rank(A)


def test_hnf_single_row_sign():
    assert hermite_normal_form_rows([[-1, 2, -3]]) == [[1, -2, 3]]
    assert hermite_normal_form_rows([[0, -2, 4]]) == [[0, 2, -4]]


def test_empty_matrices():
    # a matrix with no rows has no columns to name, so its kernel basis is
    # empty; a matrix of zero rows has no Hermite rows
    assert integer_kernel_basis([]) == []
    assert hermite_normal_form_rows([]) == []
    assert hermite_normal_form_rows([[0, 0], [0, 0]]) == []


def test_hnf_echelon_shape():
    rows = [[2, 0, 1], [4, 2, 0], [2, 2, -1]]
    h = hermite_normal_form_rows(rows)
    pivots = [next(i for i, x in enumerate(r) if x) for r in h]
    assert pivots == sorted(pivots)
    for r in h:
        assert r[next(i for i, x in enumerate(r) if x)] > 0


def test_solve_integer_combination():
    # the membership oracle of tests/oracle.py, which the lattice tests use
    basis = [[1, -1, 0], [0, 2, -2]]
    target = [2, 0, -2]
    sol = lattice_coordinates(basis, target)
    assert sol == [2, 1]
    assert lattice_coordinates(basis, [1, 0, 0]) is None
    assert lattice_coordinates([], [0, 0]) == []


small_coeffs = st.lists(st.integers(-4, 4), min_size=6, max_size=6)


@given(matrices, small_coeffs)
@PINNED
def test_kernel_is_saturated(A, coeffs):
    # a primitive integer vector of the rational kernel is an integer
    # combination of the basis: the basis spans the whole integer kernel,
    # not a sublattice of finite index
    basis = integer_kernel_basis(A)
    x = [sum((c * v[j] for c, v in zip(coeffs, rational_kernel(A))), Fraction(0)) for j in range(len(A[0]))]
    if not any(x):
        return
    den = lcm(*(a.denominator for a in x))
    g = gcd(*(int(a * den) for a in x))
    primitive = [int(a * den) // g for a in x]
    coords = rational_coordinates(basis, primitive)
    assert coords is not None
    assert all(c.denominator == 1 for c in coords)


@given(matrices, small_coeffs, st.lists(st.integers(-2, 2), min_size=5, max_size=5))
@PINNED
def test_solve_recovers_combinations_of_hnf_bases(A, coeffs, shift):
    # Hermite rows are echelon, so reading each coordinate at its row's pivot
    # (tests/oracle.py) recovers every integer combination of them
    basis = hermite_normal_form_rows(A)
    n = len(A[0])
    coeffs = coeffs[:len(basis)]
    member = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
    assert lattice_coordinates(basis, member) == coeffs
    # a shifted target is a member exactly when its rational coordinates are integers
    target = [t + s for t, s in zip(member, shift + [0] * n)]
    coords = rational_coordinates(basis, target)
    expected = coords if coords is not None and all(c.denominator == 1 for c in coords) else None
    assert lattice_coordinates(basis, target) == expected


@given(matrices)
@PINNED
def test_solve_refuses_rows_not_in_echelon_form(A):
    basis = hermite_normal_form_rows(A)
    target = [0] * len(A[0])
    for rows in (basis[::-1], basis + [target], [target] + basis, basis + basis[-1:]):
        if not is_echelon(rows):
            with pytest.raises(ValueError, match="echelon"):
                lattice_coordinates(rows, target)
    if basis:
        with pytest.raises(ValueError, match="length"):
            lattice_coordinates(basis, target + [0])
