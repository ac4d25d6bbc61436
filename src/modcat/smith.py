"""Exact integer Smith normal form of a small dense matrix.

``cohomology._h2_basis`` eliminates the relation matrix of H^2 sparsely on
unit pivots, hands the few rows and columns left to ``smith_normal_form``, and
takes the class generators of H^2 from the columns of V and their dual cycles
from the rows of V^-1, kept beside V: each column operation on V is matched by
its inverse row operation on V^-1 (M. Newman, *Integral Matrices*, 1972,
ch. II).  Nothing reads the row transform U, so it is not tracked.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple


class SNF(NamedTuple):
    """U * A * V = D for some unimodular U, a unimodular V and a diagonal D
    with d_i | d_{i+1}; U is not kept, and Vinv is V^-1.

    ``diag`` lists the diagonal of D (nonzero invariant factors first, then
    zeros), and the columns of A V past the nonzero ones are zero.
    """

    diag: List[int]
    V: List[List[int]]
    Vinv: List[List[int]]


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def smith_normal_form(A: List[List[int]], nrows: int, ncols: int) -> SNF:
    """Exact integer Smith normal form of the nrows x ncols matrix A, with the
    column transform V and its inverse.

    >>> snf = smith_normal_form([[2, 3]], 1, 2)
    >>> snf.diag, snf.V, snf.Vinv
    ([1], [[-1, -3], [1, 2]], [[2, 3], [-1, -1]])
    """
    D = [list(row) for row in A]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    W = [list(row) for row in V]  # V^-1: each column operation on V, undone on its rows

    def swap_rows(i1, i2):
        if i1 != i2:
            D[i1], D[i2] = D[i2], D[i1]

    def swap_cols(j1, j2):
        if j1 == j2:
            return
        for M in (D, V):
            for row in M:
                row[j1], row[j2] = row[j2], row[j1]
        W[j1], W[j2] = W[j2], W[j1]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        rd, rs = D[dst], D[src]
        for j in range(ncols):
            if rs[j]:
                rd[j] += q * rs[j]

    def add_col(dst, src, q):
        for M in (D, V):
            for row in M:
                if row[src]:
                    row[dst] += q * row[src]
        W[src] = [s - q * d for s, d in zip(W[src], W[dst])]

    def combine_rows(i1, i2, j):
        # make D[i1][j] = gcd, D[i2][j] = 0, via a unimodular 2x2 transform
        a, b = D[i1][j], D[i2][j]
        if b == 0:
            return
        if a and b % a == 0:
            add_row(i2, i1, -(b // a))
            return
        if a == 0:
            swap_rows(i1, i2)
            return
        x, y, g = _xgcd(a, b)
        mbg, ag = -b // g, a // g
        r1, r2 = D[i1], D[i2]
        for jj in range(ncols):
            aa, bb = r1[jj], r2[jj]
            if aa or bb:
                r1[jj] = x * aa + y * bb
                r2[jj] = mbg * aa + ag * bb

    def combine_cols(j1, j2, i):
        a, b = D[i][j1], D[i][j2]
        if b == 0:
            return
        if a and b % a == 0:
            add_col(j2, j1, -(b // a))
            return
        if a == 0:
            swap_cols(j1, j2)
            return
        x, y, g = _xgcd(a, b)
        mbg, ag = -b // g, a // g
        for M in (D, V):
            for row in M:
                aa, bb = row[j1], row[j2]
                if aa or bb:
                    row[j1] = x * aa + y * bb
                    row[j2] = mbg * aa + ag * bb
        w1, w2 = W[j1], W[j2]  # the inverse of [[x, mbg], [y, ag]], whose determinant is 1
        W[j1] = [ag * u - mbg * v for u, v in zip(w1, w2)]
        W[j2] = [x * v - y * u for u, v in zip(w1, w2)]

    def find_pivot(k):
        best = None
        for i in range(k, nrows):
            row = D[i]
            for j in range(k, ncols):
                v = row[j]
                if v:
                    if v == 1 or v == -1:
                        return i, j
                    if best is None or abs(v) < abs(D[best[0]][best[1]]):
                        best = (i, j)
        return best

    rank = 0
    for k in range(min(nrows, ncols)):
        piv = find_pivot(k)
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        while True:
            for i in range(k + 1, nrows):
                if D[i][k]:
                    combine_rows(k, i, k)
            if all(D[k][j] == 0 for j in range(k + 1, ncols)):
                break
            for j in range(k + 1, ncols):
                if D[k][j]:
                    combine_cols(k, j, k)
            if all(D[i][k] == 0 for i in range(k + 1, nrows)):
                break
        rank = k + 1

    for i in range(rank):
        if D[i][i] < 0:
            D[i] = [-v for v in D[i]]

    # enforce d_i | d_{i+1} by repeated 2x2 fixes
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if b % a:
                add_col(i, i + 1, 1)          # block [[a, 0], [b, b]]
                combine_rows(i, i + 1, i)     # diag gcd, fill at (i, i+1)
                if D[i][i + 1]:
                    add_col(i + 1, i, -(D[i][i + 1] // D[i][i]))
                for r in (i, i + 1):
                    if D[r][r] < 0:
                        D[r] = [-v for v in D[r]]
                changed = True

    diag = [D[i][i] for i in range(min(nrows, ncols))]
    return SNF(diag, V, W)

