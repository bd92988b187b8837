"""Exact integer linear algebra: Smith and Hermite normal forms, kernels.

Everything works on lists of lists of Python ints, so there is no overflow
and no floating point. Matrices here are tiny (tens of rows), so the
classical elimination algorithms are the right tool.
"""

from __future__ import annotations


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(M, i, j):
    M[i], M[j] = M[j], M[i]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


def _add_row(M, dst, src, q):
    """row dst += q * row src"""
    M[dst] = [a + q * b for a, b in zip(M[dst], M[src])]


def _add_col(M, dst, src, q):
    for row in M:
        row[dst] += q * row[src]


def _scale_row(M, i, s):
    M[i] = [s * a for a in M[i]]


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal.

    The diagonal entries are non-negative and satisfy d_i | d_{i+1}.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, row)) for row in A]
    U = _identity(m)
    V = _identity(n)

    t = 0
    while t < min(m, n):
        # locate the nonzero entry of least absolute value in the trailing block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap_rows(D, t, pi)
            _swap_rows(U, t, pi)
        if pj != t:
            _swap_cols(D, t, pj)
            _swap_cols(V, t, pj)

        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    _add_row(D, i, t, -q)
                    _add_row(U, i, t, -q)
                    if D[i][t] != 0:
                        _swap_rows(D, t, i)
                        _swap_rows(U, t, i)
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    _add_col(D, j, t, -q)
                    _add_col(V, j, t, -q)
                    if D[t][j] != 0:
                        _swap_cols(D, t, j)
                        _swap_cols(V, t, j)
                        dirty = True
            if not dirty:
                break

        # enforce divisibility of the remaining block by the pivot
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    _add_row(D, t, i, 1)
                    _add_row(U, t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue

        if D[t][t] < 0:
            _scale_row(D, t, -1)
            _scale_row(U, t, -1)
        t += 1

    return U, D, V


def matmul(A, B):
    n = len(B)
    cols = len(B[0]) if n else 0
    return [[sum(row[k] * B[k][j] for k in range(n)) for j in range(cols)] for row in A]


def snf_rank(D) -> int:
    r = 0
    for i in range(min(len(D), len(D[0]) if D else 0)):
        if D[i][i] != 0:
            r += 1
    return r


def integer_kernel_basis(A):
    """Basis of the right integer kernel {x : A x = 0}, as HNF-normalized rows."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return hermite_normal_form_rows(_identity(n))
    _, D, V = smith_normal_form(A)
    r = snf_rank(D)
    vectors = [[V[i][j] for i in range(n)] for j in range(r, n)]
    return hermite_normal_form_rows(vectors)


def hermite_normal_form_rows(rows):
    """Row-style Hermite normal form: echelon, positive pivots, reduced above."""
    work = [list(map(int, r)) for r in rows if any(r)]
    n = len(work[0]) if work else 0
    h = []
    col = 0
    while work and col < n:
        cand = [r for r in work if r[col] != 0]
        if not cand:
            col += 1
            continue
        while True:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            done = True
            for r in cand[1:]:
                q = r[col] // piv[col]
                for k in range(n):
                    r[k] -= q * piv[k]
                if r[col] != 0:
                    done = False
            cand = [piv] + [r for r in cand[1:] if r[col] != 0]
            if done or len(cand) == 1:
                break
        if piv[col] < 0:
            for k in range(n):
                piv[k] = -piv[k]
        h.append(piv)
        work = [r for r in work if r is not piv and any(r)]
        col += 1
    # reduce entries above each pivot
    for i in range(len(h)):
        pc = next(k for k in range(n) if h[i][k] != 0)
        for j in range(i):
            q = h[j][pc] // h[i][pc]
            if q:
                for k in range(n):
                    h[j][k] -= q * h[i][k]
    return h


def solve_integer_combination(basis_rows, target):
    """Solve sum_i x_i * basis_rows[i] = target over the integers.

    Returns the coefficient list, or None if no integral solution exists.
    """
    k = len(basis_rows)
    if k == 0:
        return [] if not any(target) else None
    n = len(basis_rows[0])
    # B^T y = t with y in Z^k
    Bt = [[basis_rows[i][j] for i in range(k)] for j in range(n)]
    U, D, V = smith_normal_form(Bt)
    t = [sum(U[i][j] * target[j] for j in range(n)) for i in range(n)]
    r = snf_rank(D)
    z = [0] * k
    for i in range(n):
        if i < r:
            if t[i] % D[i][i] != 0:
                return None
            z[i] = t[i] // D[i][i]
        elif t[i] != 0:
            return None
    y = [sum(V[i][j] * z[j] for j in range(k)) for i in range(k)]
    # verify (guards against any rank corner case)
    for j in range(n):
        if sum(y[i] * basis_rows[i][j] for i in range(k)) != target[j]:
            return None
    return y
