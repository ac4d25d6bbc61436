"""Exact integer Smith normal form of a small dense matrix.

``cohomology._h2_basis`` eliminates the relation matrix of H^2 sparsely on
unit pivots, hands the few rows and columns left to ``smith_normal_form``, and
takes the class generators of H^2 from the columns of V and their dual cycles
from the rows of V^-1.  Every step is one unimodular 2x2 matrix m from
``_step``, applied to two rows or two columns; a column step is undone on the
rows of V^-1 by adj(m) det(m), as det(m) = +-1 (M. Newman, *Integral
Matrices*, 1972, ch. II).  The row transform U is not tracked.  The sparse
echelon form (``cohomology._eliminate``) takes its Bezout steps from
``_step`` too; its elementary steps, where the pivot divides the entry, it
applies in place.
"""

from __future__ import annotations

from itertools import product
from typing import List, NamedTuple, Tuple

Step = Tuple[Tuple[int, int], Tuple[int, int]]
SWAP: Step = ((0, 1), (1, 0))


class SNF(NamedTuple):
    """U * A * V = D for some unimodular U, a unimodular V and a diagonal D
    with d_i | d_{i+1}; U is not kept, and Vinv = V^-1 moves with V.

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


def _step(a: int, b: int) -> Step:
    """The unimodular [[x, y], [u, v]] taking (a, b), not both zero, to
    (x a + y b, u a + v b) = (+-gcd(a, b), 0): elementary when a divides b,
    which keeps a, else the Bezout combine of ``_xgcd``."""
    if a and b % a == 0:
        return (1, 0), (-(b // a), 1)
    x, y, g = _xgcd(a, b)
    return (x, y), (-b // g, a // g)


def smith_normal_form(A: List[List[int]], nrows: int, ncols: int) -> SNF:
    """Exact integer Smith normal form of the nrows x ncols matrix A, with the
    column transform V and its inverse.

    >>> snf = smith_normal_form([[2, 3]], 1, 2)
    >>> snf.diag, snf.V, snf.Vinv
    ([1], [[-1, -3], [1, 2]], [[2, 3], [-1, -1]])
    """
    D = [list(row) for row in A]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    W = [list(row) for row in V]  # V^-1

    def rows(i1: int, i2: int, m: Step) -> None:
        (x, y), (u, v) = m
        r1, r2 = D[i1], D[i2]
        for j in range(ncols):
            a, b = r1[j], r2[j]
            if a or b:
                r1[j], r2[j] = x * a + y * b, u * a + v * b

    def cols(j1: int, j2: int, m: Step) -> None:
        (x, y), (u, v) = m
        for M in (D, V):
            for row in M:
                a, b = row[j1], row[j2]
                if a or b:
                    row[j1], row[j2] = x * a + y * b, u * a + v * b
        W[j1], W[j2] = [[(x * v - y * u) * (c * p + d * q) for p, q in zip(W[j1], W[j2])]
                        for c, d in ((v, -u), (-y, x))]

    def clear(k: int) -> None:
        # column k below the diagonal, then row k right of it, until both are zero
        while True:
            for i in range(k + 1, nrows):
                if D[i][k]:
                    rows(k, i, _step(D[k][k], D[i][k]))
            if not any(D[k][k + 1:]):
                return
            for j in range(k + 1, ncols):
                if D[k][j]:
                    cols(k, j, _step(D[k][k], D[k][j]))
            if not any(D[i][k] for i in range(k + 1, nrows)):
                return

    rank = 0
    for k in range(min(nrows, ncols)):
        # the pivot: the first entry of least magnitude, in row-major order
        pivot = None
        for i, j in product(range(k, nrows), range(k, ncols)):
            if D[i][j] and (pivot is None or abs(D[i][j]) < pivot[0]):
                pivot = abs(D[i][j]), i, j
                if pivot[0] == 1:
                    break
        if pivot is None:
            break
        if pivot[1] != k:
            rows(k, pivot[1], SWAP)
        if pivot[2] != k:
            cols(k, pivot[2], SWAP)
        clear(k)
        rank = k + 1

    for i in range(rank):
        if D[i][i] < 0:
            D[i] = [-v for v in D[i]]

    # d_i | d_{i+1}: [[a, 0], [0, b]] -> [[a, 0], [b, b]], cleared again to
    # gcd(a, b) and ab / gcd(a, b), both positive
    while any(D[i + 1][i + 1] % D[i][i] for i in range(rank - 1)):
        for i in range(rank - 1):
            if D[i + 1][i + 1] % D[i][i]:
                cols(i, i + 1, ((1, 1), (0, 1)))
                clear(i)

    return SNF([D[i][i] for i in range(min(nrows, ncols))], V, W)
