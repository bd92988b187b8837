"""Exact integer linear algebra: Hermite normal form and integer kernels.

Everything works on lists of lists of Python ints, so there is no overflow
and no floating point. Matrices here are tiny (tens of rows), so one
classical elimination, the row-style Hermite normal form, serves both
(Cohen, A Course in Computational Algebraic Number Theory, section 2.4).
"""

from __future__ import annotations


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


def integer_kernel_basis(A):
    """Basis of the right integer kernel {x : A x = 0}, as HNF-normalized rows.

    The Hermite form of the rows of [A^T | I] is [U A^T | U] with U
    unimodular. Its rows with a zero A^T part are the rows u of U with
    A u = 0, and they span the kernel because U is invertible over Z. They
    are the last rows of an echelon form that is reduced above its pivots,
    so their I parts are already the Hermite form of the kernel.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [[A[i][j] for i in range(m)] + [int(i == j) for i in range(n)] for j in range(n)]
    return [r[m:] for r in hermite_normal_form_rows(rows) if not any(r[:m])]
