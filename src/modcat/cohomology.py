"""Coboundary solving and H^2 enumeration by exact integer linear algebra.

The coboundary operator on normalized cochains is an integer matrix A once
tuples are flattened in a fixed order.  Solving A x = b over the divisible
coefficients Q/Z goes through one sparse echelon form per (group, degree):
unimodular row operations T with T A = E, where E is in row echelon form.
The rows of T whose E row is zero form an integer basis of the kernel
functionals {z : z A = 0}, and because Q/Z is divisible, b is a coboundary
exactly when z . b = 0 in Q/Z for every one of them.  A witness then comes
from back-substitution on the nonzero rows of E, dividing by each pivot in
Q/Z.  Every answer is re-checked without trusting the factorization, by
sparse integer products on numerators over a common denominator D: a witness
x must satisfy A x = b mod D (``integer_coboundary``, which also checks pair
conditions and H^2 representatives), and the functional z behind a "no" must
satisfy z A = 0.  Q/Z values appear only where cochains enter and leave.

Questions about degree-3 targets and H^2 are decided on A_S, the rows of
A = d^2 whose first argument lies in the generating set S = ``generators(G)``,
by a lemma.  Let e be a normalized k-cochain, k >= 2, with de = 0, and
suppose e(s, x_2, ..., x_k) = 0 for every s in S.  The cocycle identity at
(s, b, x_3, ...) reads e(sb, x_3, ...) = e(b, x_3, ...) + (terms whose first
argument is s) = e(b, x_3, ...), so e(x, ...) does not change when x is
multiplied on the left by a generator; every x is a product of generators,
so e(x, ...) = e(1, ...) = 0.  Applied to e = A x, always a cocycle, this
gives ker A_S = ker A over any coefficients; applied to e = A x - b for a
cocycle target b, it shows that A_S x = b_S implies A x = b.  A target that
is not a cocycle is caught by a row of d^3 with first argument in S.  A_S
holds |S| / (|G| - 1) of the rows of A (2 of 15 for the dihedral group of
order 16).

H^2 comes from the degree-2 matrix by sparse elimination on unit pivots,
which splits a 1 off the Smith form per pivot, followed by a dense Smith
normal form (V only) of the few rows and columns that are left.  Its
invariant factors give the order of H^2(G, Q/Z); its V columns, lifted back
through the unit pivots, give one 2-cocycle per cyclic factor.  The kernel
functionals of the degree-1 matrix tell the H^2 classes apart.

Factorizations are memoized per (group, kind, degree) on the group object.
"""

from __future__ import annotations

import heapq
from itertools import product
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .cochains import Cochain, combine, nonidentity_tuples, zero_cochain
from .errors import DegreeMismatch, InternalInvariantBroken
from .groups import Group, generators
from .qz import QZ

__all__ = [
    "ClassSignature",
    "CoboundaryMatrix",
    "SNF",
    "Echelon",
    "smith_normal_form",
    "echelon_form",
    "coboundary_matrix",
    "numerators",
    "integer_coboundary",
    "solve_coboundary",
    "image_obstruction",
    "is_cohomologous",
    "h2_order",
    "h2_representatives",
]

# no longer read by the package; bench/workloads.py still sets it by this name
CACHE_ENV = "MODCAT_SNF_CACHE"

# a sparse integer vector: (index, nonzero coefficient) pairs in index order
Sparse = Tuple[Tuple[int, int], ...]


class CoboundaryMatrix:
    """Integer matrix of d^n: rows are (n+1)-tuples, columns are n-tuples.

    Tuples run over non-identity elements in lexicographic order; entries are
    the signed incidence coefficients, with terms that hit the identity
    dropped (normalization).  ``sparse`` holds each row as a sparse vector;
    ``entries`` is the dense form, built on first use.
    """

    __slots__ = ("group", "degree", "rows", "cols", "sparse", "_entries")

    def __init__(self, group: Group, degree: int):
        self.group = group
        self.degree = degree
        self.rows = list(nonidentity_tuples(group, degree + 1))
        self.cols = list(nonidentity_tuples(group, degree))
        col_index = {t: i for i, t in enumerate(self.cols)}
        self.sparse = _coboundary_rows(group, degree, self.rows, col_index)
        self._entries = None

    @property
    def entries(self) -> List[List[int]]:
        if self._entries is None:
            self._entries = [[dict(row).get(j, 0) for j in range(len(self.cols))]
                             for row in self.sparse]
        return self._entries


def _coboundary_rows(group: Group, degree: int, tuples, col_index) -> List[Sparse]:
    """The sparse rows of d^degree at these (degree+1)-tuples, with columns
    numbered by ``col_index``."""
    e, table, n = group.identity, group.table, degree
    sparse, shared = [], {}  # equal (col, coeff) entries share one tuple
    for args in tuples:
        row = {}
        terms = [(args[1:], 1)]
        sign = 1
        for i in range(n):
            sign = -sign
            merged = args[:i] + (table[args[i]][args[i + 1]],) + args[i + 2:]
            if e not in merged:
                terms.append((merged, sign))
        terms.append((args[:n], -sign))  # (-1)^{n+1}
        for t, c in terms:
            j = col_index[t]
            row[j] = row.get(j, 0) + c
        sparse.append(tuple(sorted(shared.setdefault(jc, jc)
                                   for jc in row.items() if jc[1])))
    return sparse


def _generator_rows(mat: CoboundaryMatrix) -> List[int]:
    """Indices, in order, of the rows of mat whose first argument is one of
    ``generators(mat.group)``.  By the lemma in the module docstring they
    decide, for degree >= 1, which cochains x have A x = 0 and, for cocycle
    targets b, which have A x = b."""
    G = mat.group
    size = (G.order - 1) ** mat.degree  # the rows with one first argument
    rows = []
    for s in generators(G):
        start = _tuple_index(G, (s,)) * size
        rows.extend(range(start, start + size))
    return rows


class SNF:
    """U * A * V = D with U, V unimodular and diagonal d_i | d_{i+1}.

    ``diag`` lists the diagonal of D (nonzero invariant factors first, then
    zeros).  U or V may be None when the factorization was computed without
    tracking that side.
    """

    __slots__ = ("nrows", "ncols", "diag", "U", "V")

    def __init__(self, nrows, ncols, diag, U, V):
        self.nrows = nrows
        self.ncols = ncols
        self.diag = diag
        self.U = U
        self.V = V


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


def smith_normal_form(A: List[List[int]], nrows: int, ncols: int,
                      need_U: bool = True, need_V: bool = True) -> SNF:
    """Exact integer Smith normal form with optional transform tracking."""
    D = [list(row) for row in A]
    U = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if need_U else None
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if need_V else None

    def swap_rows(i1, i2):
        if i1 == i2:
            return
        D[i1], D[i2] = D[i2], D[i1]
        if U is not None:
            U[i1], U[i2] = U[i2], U[i1]

    def swap_cols(j1, j2):
        if j1 == j2:
            return
        for row in D:
            row[j1], row[j2] = row[j2], row[j1]
        if V is not None:
            for row in V:
                row[j1], row[j2] = row[j2], row[j1]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        rd, rs = D[dst], D[src]
        for j in range(ncols):
            if rs[j]:
                rd[j] += q * rs[j]
        if U is not None:
            ud, us = U[dst], U[src]
            for j in range(nrows):
                if us[j]:
                    ud[j] += q * us[j]

    def add_col(dst, src, q):
        for row in D:
            if row[src]:
                row[dst] += q * row[src]
        if V is not None:
            for row in V:
                if row[src]:
                    row[dst] += q * row[src]

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
        if U is not None:
            u1, u2 = U[i1], U[i2]
            for jj in range(nrows):
                aa, bb = u1[jj], u2[jj]
                if aa or bb:
                    u1[jj] = x * aa + y * bb
                    u2[jj] = mbg * aa + ag * bb

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
        for row in D:
            aa, bb = row[j1], row[j2]
            if aa or bb:
                row[j1] = x * aa + y * bb
                row[j2] = mbg * aa + ag * bb
        if V is not None:
            for row in V:
                aa, bb = row[j1], row[j2]
                if aa or bb:
                    row[j1] = x * aa + y * bb
                    row[j2] = mbg * aa + ag * bb

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
            for j in range(ncols):
                D[i][j] = -D[i][j]
            if U is not None:
                for j in range(nrows):
                    U[i][j] = -U[i][j]

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
                if D[i][i] < 0 or D[i + 1][i + 1] < 0:
                    for (r, neg) in ((i, D[i][i] < 0), (i + 1, D[i + 1][i + 1] < 0)):
                        if neg:
                            for j in range(ncols):
                                D[r][j] = -D[r][j]
                            if U is not None:
                                for j in range(nrows):
                                    U[r][j] = -U[r][j]
                changed = True

    diag = [D[i][i] for i in range(min(nrows, ncols))]
    return SNF(nrows, ncols, diag, U, V)


class Echelon:
    """T * A = E for a unimodular T, kept sparse; T is never built densely.

    ``pivots`` lists the nonzero rows of E in elimination order as tuples
    (col, pivot, rest, u): the row is ``pivot`` at column ``col`` plus the
    sparse entries ``rest``, and ``u`` is the row of T that produced it.
    Column ``col`` is zero in every later pivot row, so back-substitution in
    reverse order solves E x = T b.  ``kernel`` holds the rows of T whose E row
    is zero, in original row order: an integer basis of {z : z A = 0}.

    A factorization of the rows of A indexed by ``keep`` is written in the row
    indices of A all the same, so z A = 0 and u A = E still hold for the full
    A.  The "echelon" factorization of d^2 is of this kind, on the rows whose
    first argument is a generator; ``_solve`` may later append to its
    ``kernel`` the functionals of ``_cocycle_functionals``, and then sets
    ``extended``.
    """

    __slots__ = ("nrows", "ncols", "pivots", "kernel", "extended")

    def __init__(self, nrows: int, ncols: int, pivots, kernel):
        self.nrows = nrows
        self.ncols = ncols
        self.pivots = pivots
        self.kernel = kernel
        self.extended = False


# columns with a unit entry examined per pivot choice (a Markowitz search
# limited to the sparsest columns, as in Zlatev's strategy)
_SEARCH_COLUMNS = 3


class _Columns:
    """The row sets of a sparse matrix's columns during elimination, with a
    lazy heap of (count, column) entries for visiting them sparsest first.

    Elimination marks every column whose count it may change as dirty, and
    ``ascending`` pushes the true count of each dirty column before it pops.
    So every nonempty column has an entry at its true place; entries whose
    count is no longer true are dropped as they surface.
    """

    __slots__ = ("rows", "heap", "dirty")

    def __init__(self, rows: List[set]):
        self.rows = rows
        self.heap = [(len(rs), c) for c, rs in enumerate(rows) if rs]
        heapq.heapify(self.heap)
        self.dirty = set()

    def ascending(self):
        """Nonempty columns as (count, col) in ascending order, each once.

        Each column visited must be pushed back with ``restore``.
        """
        heap, rows, seen = self.heap, self.rows, set()
        for c in self.dirty:
            if rows[c]:
                heapq.heappush(heap, (len(rows[c]), c))
        self.dirty.clear()
        while heap:
            count, c = heapq.heappop(heap)
            if count == len(rows[c]) and c not in seen:
                seen.add(c)
                yield count, c

    def restore(self, visited) -> None:
        for item in visited:
            heapq.heappush(self.heap, item)


def _axpy(dst: dict, src: dict, q: int, cols: Optional[_Columns] = None,
          rid=None) -> None:
    """dst += q * src on sparse dict rows, keeping column occupancy current."""
    if cols is not None:
        cols.dirty.update(src)
        colrows = cols.rows
    for j, v in src.items():
        nv = dst.get(j, 0) + q * v
        if nv:
            if cols is not None and j not in dst:
                colrows[j].add(rid)
            dst[j] = nv
        elif j in dst:
            del dst[j]
            if cols is not None:
                colrows[j].discard(rid)


def _mix(d1: dict, d2: dict, x: int, y: int, s: int, t: int,
         cols: Optional[_Columns] = None, r1=None, r2=None) -> None:
    """(d1, d2) <- (x d1 + y d2, s d1 + t d2) on sparse dict rows."""
    touched = sorted(set(d1) | set(d2))
    if cols is not None:
        cols.dirty.update(touched)
    for j in touched:
        a, b = d1.get(j, 0), d2.get(j, 0)
        for d, v, rid in ((d1, x * a + y * b, r1), (d2, s * a + t * b, r2)):
            if v:
                if cols is not None and j not in d:
                    cols.rows[j].add(rid)
                d[j] = v
            elif j in d:
                del d[j]
                if cols is not None:
                    cols.rows[j].discard(rid)


def _choose_pivot(work, cols: _Columns, urow=None):
    """(row, col, unit) for the next pivot.

    Unit entries come first, chosen by the Markowitz cost (row length - 1) *
    (column count - 1), then the length of the row's T row (when T is
    tracked), then row index, among the sparsest columns (count, then column
    index).  Without any unit entry, the sparsest column is taken with its
    entry of least magnitude.
    """
    colrows = cols.rows
    best, seen, visited = None, 0, []
    for count, c in cols.ascending():
        visited.append((count, c))
        found = False
        for r in colrows[c]:
            row = work[r]
            if row[c] == 1 or row[c] == -1:
                tlen = 0 if urow is None else len(urow[r])
                key = ((len(row) - 1) * (count - 1), tlen, r)
                if best is None or key < best[0]:
                    best = (key, r, c)
                found = True
        if found:
            seen += 1
            if seen == _SEARCH_COLUMNS or best[0][0] == 0:
                break
    cols.restore(visited)
    if best is not None:
        return best[1], best[2], True
    c = visited[0][1]
    r = min(colrows[c], key=lambda r: (abs(work[r][c]), len(work[r]),
                                       0 if urow is None else len(urow[r]), r))
    return r, c, False


def _eliminate(rows: Sequence[Sparse], ncols: int, track: bool = True,
               keep: Optional[Sequence[int]] = None):
    """(pivots, work, colrows, kernel) for echelon_form, or, without ``track``
    (no T, u empty in the pivots), for _h2_basis: then elimination stops at the
    first column without a unit entry, leaving the rows in ``work``.  Only the
    rows indexed by ``keep`` take part (all by default); rows keep their
    indices, in ``work`` and in T."""
    work, urow = {}, {}
    colrows = [set() for _ in range(ncols)]
    zero = []
    for i in range(len(rows)) if keep is None else keep:
        if track:
            urow[i] = {i: 1}
        entries = {j: v for j, v in rows[i] if v}
        if entries:
            work[i] = entries
            for j in entries:
                colrows[j].add(i)
        else:
            zero.append(i)
    cols = _Columns(colrows)
    pivots = []
    while work:
        r, c, unit = _choose_pivot(work, cols, urow if track else None)
        if not unit:
            if not track:
                break
            for r2 in sorted(colrows[c] - {r}):
                a, b = work[r][c], work[r2][c]
                if b % a == 0:
                    _axpy(work[r2], work[r], -(b // a), cols, r2)
                    _axpy(urow[r2], urow[r], -(b // a))
                else:
                    x, y, g = _xgcd(a, b)
                    _mix(work[r], work[r2], x, y, -b // g, a // g, cols, r, r2)
                    _mix(urow[r], urow[r2], x, y, -b // g, a // g)
                if not work[r2]:
                    del work[r2]
                    zero.append(r2)
        prow, pu = work.pop(r), urow.pop(r, {})
        p = prow[c]
        for j in prow:
            colrows[j].discard(r)
        cols.dirty.update(prow)
        for r2 in sorted(colrows[c]):  # none left after the gcd combines
            q = work[r2][c] * p
            _axpy(work[r2], prow, -q, cols, r2)
            if track:
                _axpy(urow[r2], pu, -q)
            if not work[r2]:
                del work[r2]
                zero.append(r2)
        rest = tuple(sorted((j, v) for j, v in prow.items() if j != c))
        pivots.append((c, p, rest, tuple(sorted(pu.items()))))
    kernel = [tuple(sorted(urow[i].items())) for i in sorted(zero)] if track else []
    return pivots, work, colrows, kernel


def echelon_form(rows: Sequence[Sparse], ncols: int,
                 keep: Optional[Sequence[int]] = None) -> Echelon:
    """Sparse unimodular row echelon form of the matrix with these sparse rows,
    or of its rows indexed by ``keep``, with T still indexed by all the rows.

    Pivots are unit entries where any exist, chosen Markowitz-style as in
    Dumas, Saunders and Villard, "On efficient sparse integer matrix Smith
    normal form computations" (J. Symbolic Comput. 32, 2001); a column
    without one is reduced to a single entry, its gcd, by 2x2 extended-gcd
    combines of its rows.  Every tie is broken by index, so the result is
    deterministic.
    """
    pivots, _, _, kernel = _eliminate(rows, ncols, keep=keep)
    return Echelon(len(rows), ncols, pivots, kernel)


class H2Basis:
    """H^2(G, Q/Z) of a group of order M, from its degree-2 coboundary matrix.

    ``torsion`` lists the invariant factors d_k > 1 of the matrix, each
    dividing M, and ``generators[k]`` is a sparse 2-cocycle, numerators over M
    reduced mod M and all multiples of M / d_k, whose class has order d_k:
    H^2 is the direct sum of the cyclic groups they generate.
    """

    __slots__ = ("torsion", "generators")

    def __init__(self, torsion, generators):
        self.torsion = torsion
        self.generators = generators


def _h2_basis(mat: CoboundaryMatrix) -> H2Basis:
    """Invariant factors and class generators of H^2 from d^2, kept sparse.

    Only the rows A_S of d^2 whose first argument is a generator are
    eliminated.  By the lemma in the module docstring, a 2-cochain x with
    A_S x = 0 has A x = 0, over Q/Z and over Z alike, so A_S and A have the
    same kernel over Q/Z, hence the same invariant factors above 1, and every
    generator below is a cocycle of the full A.

    The unit pivots of _eliminate, without T, each split a 1 off the Smith
    form, so Smith(A_S) = 1^u + Smith(S) for the rows S left (Dumas, Saunders
    and Villard, 2001).  Only S, nonzero on a few columns, goes through the
    dense smith_normal_form, with V.  For each invariant factor d_j > 1 of S,
    V_S[:, j] * (M / d_j) solves S x = 0 mod M and is lifted to the pivot
    columns by back-substitution in reverse pivot order.  Columns with d_j = 0,
    and columns left free, give integer cocycles: coboundaries over Q/Z, since
    H^2(G, Q) = 0, so they are not kept.
    """
    M = mat.group.order
    pivots, work, colrows, _ = _eliminate(mat.sparse, len(mat.cols), track=False,
                                          keep=_generator_rows(mat))
    # the residual, on its own columns, with repeated rows (up to sign) dropped
    live = sorted(c for c, rs in enumerate(colrows) if rs)
    residual = set()
    for row in work.values():
        dense = [row.get(c, 0) for c in live]
        if next(v for v in dense if v) < 0:
            dense = [-v for v in dense]
        residual.add(tuple(dense))
    residual = sorted(residual)
    snf = smith_normal_form(residual, len(residual), len(live),
                            need_U=False, need_V=True)

    torsion, gens = [], []
    for k, d in enumerate(snf.diag):
        if d <= 1:
            continue
        if M % d:
            raise InternalInvariantBroken(f"invariant factor {d} does not divide {M}")
        x = {c: snf.V[i][k] * (M // d) % M for i, c in enumerate(live)}
        for c, p, rest, _ in reversed(pivots):
            x[c] = -p * sum(v * x.get(j, 0) for j, v in rest) % M
        torsion.append(d)
        gens.append(tuple((j, v) for j, v in sorted(x.items()) if v))
    return H2Basis(torsion, gens)


def _dot(z: Sparse, vec: Sequence[int]) -> int:
    """Integer dot product of a sparse vector with a dense one."""
    s = 0
    for k, c in z:  # a plain loop: about twice as fast as sum() on a generator
        s += c * vec[k]
    return s


def _tuple_index(group: Group, args: tuple) -> int:
    """Lexicographic index of an identity-free tuple among those of its length."""
    e, base, i = group.identity, group.order - 1, 0
    for a in args:
        i = i * base + a - (a > e)
    return i


def numerators(c: Cochain, D: int) -> List[int]:
    """c as integer numerators over D, a multiple of its denominators, indexed
    like the columns of ``coboundary_matrix(c.group, c.degree)``."""
    vec = [0] * (c.group.order - 1) ** c.degree
    for t, v in c.values.items():
        vec[_tuple_index(c.group, t)] = v.num * (D // v.den)
    return vec


def integer_coboundary(mat: CoboundaryMatrix, x: Sequence[int]) -> List[int]:
    """A x: the coboundary of numerators x over some D, indexed like
    ``mat.cols``, as exact numerators over the same D, indexed like ``mat.rows``.
    On the cyclic group of order 3, df(a, b) = f(b) - f(ab) + f(a), and a term
    at the identity vanishes:

    >>> from modcat.groups import cyclic_group
    >>> mat = coboundary_matrix(cyclic_group(3), 1)
    >>> mat.cols, mat.rows
    ([(1,), (2,)], [(1, 1), (1, 2), (2, 1), (2, 2)])
    >>> integer_coboundary(mat, [1, 0])
    [2, 1, 1, -1]
    """
    return [_dot(row, x) for row in mat.sparse]


def _in_left_kernel(z: Sparse, mat: CoboundaryMatrix) -> bool:
    """z A = 0, by one sparse vector-matrix product."""
    acc = {}
    for k, c in z:
        for j, v in mat.sparse[k]:
            acc[j] = acc.get(j, 0) + c * v
    return not any(acc.values())


# ----------------------------------------------------------------------------
# memoized factorizations

def coboundary_matrix(group: Group, degree: int) -> CoboundaryMatrix:
    """The (memoized) matrix of d^degree on this group."""
    key = ("dmat", degree)
    mat = group._cache.get(key)
    if mat is None:
        mat = CoboundaryMatrix(group, degree)
        group._cache[key] = mat
    return mat


def _factor(group: Group, degree: int, kind: str):
    """The memoized factorization of d^degree: "echelon" (an Echelon, of the
    generator rows from degree 2 on) or "smith" (an H2Basis, for degree 2)."""
    key = (kind, degree)
    got = group._cache.get(key)
    if got is None:
        mat = coboundary_matrix(group, degree)
        if kind == "echelon":
            keep = _generator_rows(mat) if degree >= 2 else None
            got = echelon_form(mat.sparse, len(mat.cols), keep)
        else:
            got = _h2_basis(mat)
        group._cache[key] = got
    return got


# ----------------------------------------------------------------------------
# solving

def _cocycle_functionals(group: Group, n: int) -> List[Sparse]:
    """The rows of d^n whose first argument is a generator, derived from the
    table, as functionals on the rows of d^(n-1).  Each satisfies z A = 0 for
    A = d^(n-1), because d d = 0, and by the lemma in the module docstring
    they all vanish on an n-cochain exactly when it is a cocycle."""
    cols = coboundary_matrix(group, n - 1).rows
    elems = [x for x in group.elements() if x != group.identity]
    return _coboundary_rows(group, n, product(generators(group), *[elems] * n),
                            {t: i for i, t in enumerate(cols)})


def _first_obstruction(kernel: Sequence[Sparse], b: Sequence[int], D: int,
                       start: int = 0) -> Optional[int]:
    """Index of the first functional from ``start`` on with z . b != 0 mod D."""
    for i in range(start, len(kernel)):
        if _dot(kernel[i], b) % D:
            return i
    return None


def _back_substitute(ech: Echelon, b: Sequence[int], D: int) -> Tuple[List[int], int]:
    """(x, den): x solves E x = T b in Q/Z, as numerators over den, a multiple
    of D, given b as numerators over D."""
    den = D
    x = [0] * ech.ncols
    for c, p, rest, u in reversed(ech.pivots):
        s = (_dot(u, b) * (den // D) - _dot(rest, x)) % den
        m = abs(p) // gcd(s, p)
        if m > 1:
            den *= m
            x = [v * m for v in x]
            s *= m
        x[c] = (s // p) % den
    return x, den


def _solve(group: Group, n: int, b: Sequence[int], D: int):
    """(witness or None, obstruction index or None) for a degree-n target,
    n in (2, 3), given as numerators b over D like the rows of
    ``coboundary_matrix(group, n - 1)``.  A witness is returned only after
    A x = b in Q/Z is checked by the integer product; None only after the
    obstruction functional z, ``_factor(group, n - 1, "echelon").kernel[i]``
    for the index i returned, is checked to satisfy z A = 0.

    For n = 3 the factorization covers only the rows of A whose first
    argument is a generator, so its kernel and back-substitution give
    A x = b on those rows.  When b is a cocycle, A x - b is a cocycle that
    vanishes there, hence zero (the lemma in the module docstring).  So a
    witness that fails the check proves b is not a cocycle, and a row of d^3
    from ``_cocycle_functionals`` that does not vanish on b is the
    obstruction; those rows are appended to the kernel, once, to name it.
    """
    if not any(v % D for v in b):
        return zero_cochain(group, n - 1), None

    mat = coboundary_matrix(group, n - 1)
    ech = _factor(group, n - 1, "echelon")
    i = _first_obstruction(ech.kernel, b, D)
    if i is None:
        x, den = _back_substitute(ech, b, D)
        scale = den // D
        if not any((v - t * scale) % den
                   for v, t in zip(integer_coboundary(mat, x), b)):
            return Cochain(group, n - 1, {mat.cols[j]: QZ(v, den)
                                          for j, v in enumerate(x) if v}), None
        if n >= 3 and not ech.extended:
            start = len(ech.kernel)
            ech.kernel.extend(_cocycle_functionals(group, n))
            ech.extended = True
            i = _first_obstruction(ech.kernel, b, D, start)
        if i is None:  # b passes every functional: a corrupt factorization
            raise InternalInvariantBroken("coboundary witness failed verification")
    if not _in_left_kernel(ech.kernel[i], mat):
        raise InternalInvariantBroken("obstruction functional failed verification")
    return None, i


def _solve_cochain(target: Cochain):
    """_solve on a target given as a cochain of degree 2 or 3."""
    if target.degree not in (2, 3):
        raise DegreeMismatch("coboundary solving supports target degrees 2 and 3")
    D = lcm(*(v.den for v in target.values.values()))
    return _solve(target.group, target.degree, numerators(target, D), D)


def solve_coboundary(target: Cochain) -> Optional[Cochain]:
    """A cochain f with df = target, or None when the class is nontrivial.

    Witnesses are re-verified by the integer coboundary product before being
    returned, and obstructions are checked against the coboundary matrix.
    """
    witness, _ = _solve_cochain(target)
    return witness


class ClassSignature:
    """An exact invariant of 2-cochains on a group, modulo coboundaries.

    A cochain is given as integer numerators over a common denominator D,
    indexed like ``matrix.rows`` (the rows of the degree-1 coboundary matrix
    A).  Its signature pairs it with every kernel functional z of the
    degree-1 echelon form, mod D.  Because Q/Z is divisible, two cochains have
    equal signatures exactly when their difference is a coboundary: the test
    _solve applies.  Every functional is checked to satisfy z A = 0 before it
    is used, so a corrupt factorization can raise here but never tell a
    coboundary apart from zero.
    """

    __slots__ = ("matrix", "kernel")

    def __init__(self, group: Group):
        self.matrix = coboundary_matrix(group, 1)
        self.kernel = _factor(group, 1, "echelon").kernel if group.order > 1 else []
        for z in self.kernel:
            if not _in_left_kernel(z, self.matrix):
                raise InternalInvariantBroken("kernel functional failed verification")

    def __call__(self, vec: Sequence[int], D: int) -> Tuple[int, ...]:
        return tuple(_dot(z, vec) % D for z in self.kernel)


def image_obstruction(target: Cochain) -> Optional[int]:
    """Index of the functional certifying target is not a coboundary (None if
    it is one): a kernel row of the factorization that _solve uses, or, for a
    degree-3 target that is not a cocycle, possibly a row of d^3 appended
    after them (see _solve)."""
    _, row = _solve_cochain(target)
    return row


def is_cohomologous(a: Cochain, b: Cochain) -> Optional[Cochain]:
    """Witness f with df = a - b, or None when the classes differ."""
    return solve_coboundary(combine(a, b, (1, -1)))


def h2_order(group: Group) -> int:
    """Order of the second cohomology group with Q/Z coefficients.

    Equals the torsion order of the cokernel of the degree-3 boundary map,
    read off the invariant factors of the degree-2 coboundary matrix.
    """
    if group.order == 1:
        return 1
    out = 1
    for d in _factor(group, 2, "smith").torsion:
        out *= d
    return out


def h2_representatives(group: Group) -> List[Cochain]:
    """One normalized 2-cocycle per class of H^2(group, Q/Z), zero first.

    The candidates are the sums of multiples m_k < d_k of the class generators
    of the degree-2 "smith" factorization, numerators over M = |group|, each
    checked to be a cocycle by the integer product mod M.  Their
    ClassSignatures (checked functionals) must all differ, which proves no two
    cohomologous, and count the order of H^2, which proves the list complete.
    """
    if group.order == 1:
        return [zero_cochain(group, 2)]
    M = group.order
    sig = ClassSignature(group)
    pairs = sig.matrix.rows  # == coboundary_matrix(group, 2).cols
    basis = _factor(group, 2, "smith")
    classes = [((0,) * len(pairs), sig((0,) * len(pairs), M))]
    for gen, d in zip(basis.generators, basis.torsion):
        g = [dict(gen).get(p, 0) for p in range(len(pairs))]
        gsig = sig(g, M)
        classes = [(tuple((a + m * b) % M for a, b in zip(vec, g)),
                    tuple((a + m * b) % M for a, b in zip(vsig, gsig)))
                   for vec, vsig in classes for m in range(d)]
    found, expected = len({vsig for _, vsig in classes}), h2_order(group)
    if found != expected:
        raise InternalInvariantBroken(
            f"found {found} cohomology classes, invariant factors give {expected}")

    d2 = coboundary_matrix(group, 2)
    reps = []
    # numerators in [0, M) order like the QZ values they stand for
    for vec, _ in sorted(classes, key=lambda c: (any(c[0]), c[0])):
        if any(v % M for v in integer_coboundary(d2, vec)):
            raise InternalInvariantBroken("candidate representative is not a cocycle")
        reps.append(Cochain(group, 2, {t: QZ(v, M) for t, v in zip(pairs, vec) if v}))
    return reps
