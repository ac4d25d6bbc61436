"""Coboundary solving and H^2 enumeration by exact integer linear algebra.

The coboundary operator on normalized cochains is an integer matrix A once
tuples are flattened in a fixed order.  Solving A x = b over the divisible
coefficients Q/Z goes through one sparse echelon form per (group, degree):
unimodular row operations T with T A = E, where E is in row echelon form,
each an added multiple of the pivot row or a Bezout step (``_rows``).
The rows of T whose E row is zero form an integer basis of the kernel
functionals {z : z A = 0}, and because Q/Z is divisible, b is a coboundary
exactly when z . b = 0 in Q/Z for every one of them.  A witness then comes
from back-substitution on the nonzero rows of E, dividing by each pivot in
Q/Z.  Every answer is re-checked without trusting the factorization, on
integer numerators over a common denominator D: a witness x must satisfy
A x = b mod D on every row, computed by the matrix-free
``cochains._coboundary_numerators`` from degree 2 on (which also checks pair
conditions) and by the memoized rows of d^1 at degree 1, and the functional
z behind a "no" must satisfy z A = 0.

Questions about degree-3 targets and H^2 are decided on A_S, the rows of
A = d^2 whose first argument lies in the generating set S = ``generators(G)``,
by the lemma in ``cochains._cocycle_on``: a normalized k-cochain e, k >= 2,
with de = 0 that vanishes wherever its first argument lies in S is zero.
Applied to e = A x, always a cocycle, this gives ker A_S = ker A over any
coefficients; applied to e = A x - b for a cocycle target b, it shows that
A_S x = b_S implies A x = b.  A target that is not a cocycle is caught by a
row of d^3 with first argument in S, built alone when needed.  Each H^2
class generator r is checked to be a cocycle by A_S r = 0 mod |G| alone
(``_check_h2``), as e = A r mod |G| is a cocycle whatever r is.  A_S holds
|S| / (|G| - 1) of the rows of A (2 of 15 for the dihedral group of order
16), and it is never eliminated as a whole.

A breadth-first spanning tree of the Cayley graph of (G, S) gives every
column (g, b) with g outside S u {e} a unit pivot in a known row of A_S,
its tree row, so a normalized 2-cocycle is fixed by its values on the
|S|(|G| - 1) edge columns (s, b), s in S.  Only R, the other rows of A_S
rewritten on those columns, is eliminated (for the dihedral group of order
16, 255 rows on 30 columns).  The degree-3 solves use the tree rows as
pivots as they stand, followed by the echelon form of R, its T lifted back
to rows of A_S along the tree (``_d2_echelon``).  H^2 takes the distinct
rows of R: sparse elimination on unit pivots splits a 1 off the Smith form
per pivot, and a dense Smith normal form (V, and V^-1 kept beside it) takes
the few rows and columns that are left (1 x 15 for the dihedral group of
order 16).  Its invariant factors give the order of H^2(G, Q/Z); its V
columns, lifted back through the unit pivots, then along the tree by its
recurrence, give one 2-cocycle per cyclic factor, and the matching rows of
V^-1 one dual integer 2-cycle each: as H^2(G, Q/Z) = Hom(H_2(G, Z), Q/Z),
pairing with them tells the classes apart.

The echelon forms, the rows of d^1, the Schreier tree and H^2 are memoized,
write-once, per table: they are pure functions of the multiplication table,
so subgroup views of one group with equal tables share them through a store
on that group (``groups._table_memo``).  H^2 is one entry, "h2"
(``_h2_classes``): the class generators and their dual cycles, checked
together (``_check_h2``); the Smith form they come from is not kept.  The
order of H^2 is the product of the generators' orders, and the prod(d_k)
class vectors are built only where each class is needed, by
``h2_representatives`` and ``classify`` (``_class_vectors``).
"""

from __future__ import annotations

from itertools import islice, product
from math import gcd, prod
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cochains import (Cochain, _coboundary_numerators, _cocycle_on, _index_tuple, _of,
                       _tuple_index, combine, nonidentity_tuples, numerators, zero_cochain)
from .errors import DegreeMismatch, InternalInvariantBroken
from .groups import Group, _table_memo, generators
from .smith import SNF, Step, _step, smith_normal_form

__all__ = [
    "SNF",
    "Echelon",
    "smith_normal_form",
    "echelon_form",
    "numerators",
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


def _coboundary_rows(group: Group, degree: int, tuples) -> Dict[int, Sparse]:
    """The sparse rows of d^degree at these (degree+1)-tuples, keyed by row
    index; rows and columns are numbered by ``_tuple_index``."""
    e, table, n = group.identity, group.table, degree
    sparse, shared = {}, {}  # equal (col, coeff) entries share one tuple
    if n == 1:  # df(a, b) = f(b) - f(ab) + f(a); ab differs from a and b
        col, base = [x - (x > e) for x in group.elements()], group.order - 1
        one, two, minus = ([(j, c) for j in range(base)] for c in (1, 2, -1))
        for a, b in tuples:
            i, j, ab = col[a], col[b], table[a][b]
            row = [two[i]] if i == j else [one[i], one[j]]
            sparse[i * base + j] = tuple(sorted(row + [minus[col[ab]]] if ab != e else row))
        return sparse
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
            j = _tuple_index(group, t)
            row[j] = row.get(j, 0) + c
        sparse[_tuple_index(group, args)] = tuple(sorted(
            shared.setdefault(jc, jc) for jc in row.items() if jc[1]))
    return sparse


class Echelon(NamedTuple):
    """T * A = E for a unimodular T, kept sparse; T is never built densely.

    ``pivots`` lists the nonzero rows of E in elimination order as tuples
    (col, pivot, rest, u): the row is ``pivot`` at column ``col`` plus the
    sparse entries ``rest``, and ``u`` is the row of T that produced it.
    Column ``col`` is zero in every later pivot row, so back-substitution in
    reverse order solves E x = T b.  ``kernel`` holds the rows of T whose E row
    is zero, in the order of the rows they came from: an integer basis of
    {z : z A = 0}.

    A factorization of some rows of A, given by row index, keeps A's row
    indices, so z A = 0 and u A = E hold for the full A.  That of A_S for d^2
    is one (``_d2_echelon``).  Nothing changes an Echelon after it is built:
    a memoized one answers every later solve the same way.
    """

    nrows: int
    ncols: int
    pivots: list
    kernel: List[Sparse]


# columns with a unit entry examined per pivot choice (a Markowitz search
# limited to the sparsest columns, as in Zlatev's strategy)
_SEARCH_COLUMNS = 3


def _rows(d1: dict, d2: dict, m: Step, colrows=None, r1=None, r2=None) -> None:
    """(d1, d2) <- (x d1 + y d2, u d1 + v d2) on sparse dict rows for a Bezout
    step m = [[x, y], [u, v]] of ``smith._step``, keeping column occupancy
    current; both rows are written from copies, as y != 0."""
    (x, y), (u, v) = m
    old1, old2 = dict(d1), dict(d2)
    for d, s, t, rid in ((d1, x, y, r1), (d2, u, v, r2)):
        for j in old1.keys() | old2.keys():
            nv = s * old1.get(j, 0) + t * old2.get(j, 0)
            if nv:
                if colrows is not None and j not in d:
                    colrows[j].add(rid)
                d[j] = nv
            elif j in d:
                del d[j]
                if colrows is not None:
                    colrows[j].discard(rid)


def _choose_pivot(work, colrows, urow=None):
    """(row, col) for the next pivot.

    Unit entries come first, chosen by the Markowitz cost (row length - 1) *
    (column count - 1), then the length of the row's T row (when T is
    tracked), then row index, among the sparsest columns (count, then column
    index); a key is built only for a cost that can tie or beat the best.
    Without any unit entry, the sparsest column is taken with its entry of
    least magnitude, or None is returned when T is not tracked.
    """
    cands = sorted((len(rs), c) for c, rs in enumerate(colrows) if rs)
    best, seen = None, 0
    for count, c in cands:
        found = False
        for r in colrows[c]:
            row = work[r]
            if row[c] == 1 or row[c] == -1:
                found = True
                cost = (len(row) - 1) * (count - 1)
                if best is None or cost <= best[0][0]:
                    key = (cost, 0 if urow is None else len(urow[r]), r)
                    if best is None or key < best[0]:
                        best = (key, r, c)
        if found:
            seen += 1
            if seen == _SEARCH_COLUMNS or best[0][0] == 0:
                break
    if best is not None or urow is None:
        return best and best[1:]
    c = cands[0][1]
    return min(colrows[c], key=lambda r: (abs(work[r][c]), len(work[r]), len(urow[r]), r)), c


def _eliminate(rows: Dict[int, Sparse], ncols: int, track: bool = True):
    """(pivots, work, colrows, kernel) for echelon_form, or, without ``track``
    (no T, u empty in the pivots), for _h2_basis: then elimination stops at the
    first column without a unit entry, leaving the rows in ``work``.  Rows are
    given by index and keep it, in ``work`` and in T."""
    work, urow = {}, {}
    colrows = [set() for _ in range(ncols)]
    zero = []
    for i, row in rows.items():
        if track:
            urow[i] = {i: 1}
        entries = {j: v for j, v in row if v}
        if entries:
            work[i] = entries
            for j in entries:
                colrows[j].add(i)
        else:
            zero.append(i)
    pivots = []
    while work and (pick := _choose_pivot(work, colrows, urow if track else None)):
        r, c = pick
        prow, pu = work.pop(r), urow.pop(r, {})
        for r2 in sorted(colrows[c] - {r}):
            row, p = work[r2], prow[c]
            if row[c] % p:
                m = _step(p, row[c])
                _rows(prow, row, m, colrows, r, r2)
                if track:
                    _rows(pu, urow[r2], m)
            else:
                q = -(row[c] // p)
                for j, v in prow.items():
                    if j not in row:
                        row[j] = q * v
                        colrows[j].add(r2)
                    elif row[j] + q * v:
                        row[j] += q * v
                    else:
                        del row[j]
                        colrows[j].discard(r2)
                if track:
                    t = urow[r2]
                    for j, v in pu.items():
                        if j not in t:
                            t[j] = q * v
                        elif t[j] + q * v:
                            t[j] += q * v
                        else:
                            del t[j]
            if not row:
                del work[r2]
                zero.append(r2)
        for j in prow:
            colrows[j].discard(r)
        rest = tuple(sorted((j, v) for j, v in prow.items() if j != c))
        pivots.append((c, prow[c], rest, tuple(sorted(pu.items()))))
    kernel = [tuple(sorted(urow[i].items())) for i in sorted(zero)] if track else []
    return pivots, work, colrows, kernel


def echelon_form(rows, ncols: int) -> Echelon:
    """Sparse unimodular row echelon form of the matrix with these sparse rows,
    given as a sequence, or as a dict from row index to row when only some
    rows of a matrix are factored; T is indexed by row index either way.

    Pivots are unit entries where any exist, chosen Markowitz-style as in
    Dumas, Saunders and Villard, "On efficient sparse integer matrix Smith
    normal form computations" (J. Symbolic Comput. 32, 2001).  One pass
    clears the pivot column below the pivot row: where the pivot divides the
    entry (always, for a unit pivot) the row, and its row of T, take a
    multiple of the pivot's in place, else both rows and their rows of T
    take the Bezout step of ``smith._step``, which leaves their gcd in the
    pivot row.  Every tie is broken by index, so the result is deterministic.
    """
    rows = rows if isinstance(rows, dict) else dict(enumerate(rows))
    pivots, _, _, kernel = _eliminate(rows, ncols)
    return Echelon(len(rows), ncols, pivots, kernel)


class H2Basis:
    """H^2(G, Q/Z) of a group of order M, from its degree-2 coboundary matrix.

    ``torsion`` lists the invariant factors d_k > 1 of the matrix, each
    dividing M, and ``generators[k]`` is a sparse 2-cocycle, numerators over M
    reduced mod M and all multiples of M / d_k, whose class has order d_k:
    H^2 is the direct sum of the cyclic groups they generate.  ``cycles[k]``
    is a sparse integer 2-cycle z_k, by ``_tuple_index`` of the pairs, with
    <z_k, generators[j]> = M / d_k if j = k and 0 otherwise, mod M.
    """

    __slots__ = ("torsion", "generators", "cycles")

    def __init__(self, torsion, generators, cycles):
        self.torsion, self.generators, self.cycles = torsion, generators, cycles


def _schreier_tree(group: Group) -> Dict[int, Tuple[int, int]]:
    """{g: (s, a)} with s a generator and s a = g, for every g outside
    S u {e}, S = ``generators(G)``: the edges of a breadth-first spanning
    tree of the Cayley graph, grown from e by left multiplication, visiting
    the a in breadth-first order and the s in order of S.  Each a is e, in S,
    or a key earlier in the dict (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, section 4.1).  Memoized per table
    (``groups._table_memo``), as S is.  Raises unless S generates G."""
    def make():
        table, S = group.table, generators(group)
        seen, layer, tree = {group.identity, *S}, list(S), {}
        while layer:
            grown = []
            for a in layer:
                for s in S:
                    g = table[s][a]
                    if g not in seen:
                        seen.add(g)
                        tree[g] = (s, a)
                        grown.append(g)
            layer = grown
        if len(seen) != group.order:
            raise InternalInvariantBroken("the generators do not generate the group")
        return tree
    return _table_memo(group, "schreier_tree", make)


def _relations(group: Group) -> Dict[int, Sparse]:
    """R for the Schreier tree (``_schreier_tree``), built from the table and
    not memoized.  For each tree edge (s, a) of g, the row (s, a, b) of A_S is
    -1 at column (g, b), and on the kernel

        psi(g, b) = psi(a, b) + psi(s, ab) - psi(s, a),

    terms at e dropped.  Taking the a in breadth-first order, as the tree
    does, this writes each column (g, b) as an integer combination of the
    |S|(M - 1) edge columns (s, b), s in S, numbered s-major, before any row
    reads it.  R maps the index of every other row of A_S to that row so
    substituted, zero rows included: as rows of A, R's row (s, a, b) is row
    (s, a, b) plus the tree rows at last argument b on a's path back to S,
    less those on sa's path.
    """
    M, e, table = group.order, group.identity, group.table
    S, tree = generators(group), _schreier_tree(group)
    n, elems = M - 1, [x for x in group.elements() if x != e]
    # col[s][x]: the edge column (s, x), None at x = e, where psi vanishes
    col = {s: [None if x == e else i * n + x - (x > e) for x in group.elements()]
           for i, s in enumerate(S)}
    # sub[g][j]: the column (g, elems[j]) on the edge columns; psi(e, b) = 0
    sub = {e: [{}] * n, **{s: [{c: 1} for c in col[s] if c is not None] for s in S}}
    R = {}
    for a in (*S, *tree):
        sub_a, row_a = sub[a], table[a]
        for s in S:
            cs, g = col[s], table[s][a]
            ca, rows = cs[a], []
            for j, b in enumerate(elems):  # psi(a, b) + psi(s, ab) - psi(s, a)
                x = dict(sub_a[j])
                x[ca] = x.get(ca, 0) - 1
                c = cs[row_a[b]]
                if c is not None:
                    x[c] = x.get(c, 0) + 1
                rows.append(x)
            if tree.get(g) == (s, a):
                sub[g] = rows
                continue
            first = _tuple_index(group, (s, a)) * n  # the index of row (s, a, elems[0])
            for j, (x, sub_g) in enumerate(zip(rows, sub[g])):
                for c, v in sub_g.items():
                    x[c] = x.get(c, 0) - v
                R[first + j] = tuple(sorted(filter(itemgetter(1), x.items())))
    return R


def _d2_echelon(group: Group) -> Echelon:
    """The echelon form of A_S, by row indices of A = d^2.  The tree rows
    (``_relations``) come first, in reverse breadth-first order, each its own
    pivot row, -1 at (g, b); then the pivot rows of R.  R's T rows, pivot and
    kernel, are lifted to rows of A_S, so u A = E and z A = 0 hold for A, and
    the kernel has |S|(M - 1)^2 - rank A rows.  Back-substitution, in
    reverse, solves the edge columns from R, then each (g, b) in breadth-first
    order from columns already solved.
    """
    e, table, S, tree = group.identity, group.table, generators(group), _schreier_tree(group)
    n, elems = group.order - 1, [x for x in group.elements() if x != e]
    pivots = []
    tree_rows = _coboundary_rows(group, 2, (
        (s, a, b) for s, a in reversed(tree.values()) for b in elems))
    for k, row in tree_rows.items():
        s, a, b = _index_tuple(group, k, 3)
        c = _tuple_index(group, (table[s][a], b))
        pivots.append((c, -1, tuple(jv for jv in row if jv[0] != c), ((k, 1),)))

    paths = {}  # g: the index of each tree row (s, a, elems[0]) on g's path back to S
    for g, (s, a) in tree.items():
        paths[g] = [_tuple_index(group, (s, a)) * n, *paths.get(a, ())]
    R = _relations(group)
    lifted = {}  # R's row k = (s, a, elems[j]) as rows of A_S
    for k in R:
        (s, a), j = _index_tuple(group, k // n, 2), k % n
        lifted[k] = [(k, 1), *((p + j, 1) for p in paths.get(a, ())),
                     *((p + j, -1) for p in paths.get(table[s][a], ()))]

    def lift(u: Sparse) -> Sparse:
        acc = {}
        for k, c in u:
            for r, v in lifted[k]:
                acc[r] = acc.get(r, 0) + c * v
        return tuple(sorted((r, v) for r, v in acc.items() if v))

    column = [_tuple_index(group, (s, b)) for s in S for b in elems]  # R's, in A
    ech = echelon_form(R, len(S) * n)
    for c, p, rest, u in ech.pivots:
        pivots.append((column[c], p, tuple((column[j], v) for j, v in rest), lift(u)))
    return Echelon(len(S) * n * n, n * n, pivots, [lift(z) for z in ech.kernel])


def _h2_basis(group: Group) -> H2Basis:
    """Invariant factors and class generators of H^2 from d^2, kept sparse.

    Only A_S is used: it has the kernel of A over Q/Z (module docstring),
    hence the same invariant factors above 1, and every generator below is a
    cocycle of the full A.  It is never built.  Its tree rows (``_relations``),
    on the columns (g, b), form a triangular block with -1 on its diagonal,
    so eliminating them is unimodular: Smith(A_S) = 1^((M-1)(M-1-|S|)) +
    Smith(R), and only R's distinct nonzero rows, up to sign, are factored.

    The unit pivots of _eliminate on R, without T, each split a 1 off the
    Smith form (Dumas, Saunders and Villard, 2001), and only the rows left,
    nonzero on a few columns, go through the dense smith_normal_form, with
    V and V^-1 kept beside it.  For each invariant factor d_j > 1 there,
    V[:, j] * (M / d_j) solves the residual mod M; back-substitution in
    reverse pivot order lifts it to R's pivot columns, so to every edge value
    psi(s, b), and the tree, in breadth-first order, to every column by the
    recurrence of ``_relations``, psi(g, b) = psi(a, b) + psi(s, ab) -
    psi(s, a) mod M.  Columns
    with d_j = 0, and columns left free, give integer cocycles: coboundaries
    over Q/Z, since H^2(G, Q) = 0, so they are not kept.  For the same
    reason rank R = (|S| - 1)(M - 1), the rank of A_S over Q less the tree
    pivots; a factorization that misses it raises.

    Row k of V^-1, kept beside V (``snf.Vinv``), on the live edge columns
    (s, b) is the cycle z_k: the edge values x of a coboundary lie in ker R,
    so (V^-1 x_live)_k = 0 wherever d_k != 0, and V^-1 V = I gives
    <z_k, r_j> = delta_jk M / d_k mod M.
    """
    M, e, table = group.order, group.identity, group.table
    S, n = generators(group), M - 1
    elems = [x for x in group.elements() if x != e]
    R = _relations(group)
    rows = {row if row[0][1] > 0 else tuple((c, -v) for c, v in row)
            for row in R.values() if row}
    pivots, work, colrows, _ = _eliminate(dict(enumerate(sorted(rows))), len(S) * n,
                                          track=False)
    # the residual, on its own columns, with repeated rows (up to sign) dropped
    live = sorted(c for c, rs in enumerate(colrows) if rs)
    residual = set()
    for row in work.values():
        dense = [row.get(c, 0) for c in live]
        if next(v for v in dense if v) < 0:
            dense = [-v for v in dense]
        residual.add(tuple(dense))
    residual = sorted(residual)
    snf = smith_normal_form(residual, len(residual), len(live))
    rank = len(pivots) + sum(1 for d in snf.diag if d)
    if rank != (len(S) - 1) * n:
        raise InternalInvariantBroken(
            f"relation matrix has rank {rank}, expected {(len(S) - 1) * n}")

    torsion, gens, cycles = [], [], []
    tree = _schreier_tree(group)
    for k, d in enumerate(snf.diag):
        if d <= 1:
            continue
        if M % d:
            raise InternalInvariantBroken(f"invariant factor {d} does not divide {M}")
        x = [0] * (len(S) * n)
        for i, c in enumerate(live):
            x[c] = snf.V[i][k] * (M // d) % M
        for c, p, rest, _ in reversed(pivots):
            x[c] = -p * _dot(rest, x) % M
        psi = {s: [0 if b == e else x[i * n + b - (b > e)] for b in group.elements()]
               for i, s in enumerate(S)}
        for g, (s, a) in tree.items():  # psi(g, b) = psi(a, b) + psi(s, ab) - psi(s, a)
            psi_a, psi_s, row_a = psi[a], psi[s], table[a]
            psi[g] = [(psi_a[b] + psi_s[row_a[b]] - psi_s[a]) % M for b in group.elements()]
        torsion.append(d)
        gens.append(tuple((i * n + j, psi[g][b]) for i, g in enumerate(elems)
                          for j, b in enumerate(elems) if psi[g][b]))
        cycles.append(tuple((_tuple_index(group, (S[c // n], elems[c % n])), v)
                            for c, v in zip(live, snf.Vinv[k]) if v))
    return H2Basis(torsion, gens, cycles)


def _dot(z: Sparse, vec: Sequence[int]) -> int:
    """Integer dot product of a sparse vector with a dense one."""
    s = 0
    for k, c in z:  # a plain loop: about twice as fast as sum() on a generator
        s += c * vec[k]
    return s


def _in_left_kernel(z: Sparse, rows) -> bool:
    """z A = 0, by one sparse vector-matrix product; ``rows[k]`` is row k of A."""
    acc = {}
    for k, c in z:
        for j, v in rows[k]:
            acc[j] = acc.get(j, 0) + c * v
    return not any(acc.values())


# ----------------------------------------------------------------------------
# memoized factorizations

def _factored_rows(group: Group) -> Dict[int, Sparse]:
    """The memoized rows of d^1, by row index, built from the table: all of
    them, as its echelon form eliminates them.  On the cyclic group of order
    3, df(a, b) = f(b) - f(ab) + f(a), and a term at the identity vanishes:

    >>> from modcat.groups import cyclic_group
    >>> G = cyclic_group(3)
    >>> list(nonidentity_tuples(G, 1)), list(nonidentity_tuples(G, 2))
    ([(1,), (2,)], [(1, 1), (1, 2), (2, 1), (2, 2)])
    >>> _factored_rows(G)
    {0: ((0, 2), (1, -1)), 1: ((0, 1), (1, 1)), 2: ((0, 1), (1, 1)), 3: ((0, -1), (1, 2))}
    """
    def make():
        elems = [x for x in group.elements() if x != group.identity]
        return _coboundary_rows(group, 1, product(elems, elems))
    return _table_memo(group, ("rows", 1), make)


def _factor(group: Group, degree: int) -> Echelon:
    """The memoized echelon form of d^degree: of ``_factored_rows`` for degree
    1 and of A_S for degree 2 (``_d2_echelon``)."""
    def make():
        if degree == 1:
            return echelon_form(_factored_rows(group), group.order - 1)
        return _d2_echelon(group)
    return _table_memo(group, ("echelon", degree), make)


# ----------------------------------------------------------------------------
# solving

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
    n in (2, 3), given as numerators b over D like the rows of d^(n-1).  A
    witness x is returned only after A x = b in Q/Z is checked on every row
    (module docstring); None only after the obstruction functional z named by
    the index i returned, ``_factor(group, n - 1).kernel[i]`` or a
    row of d^3 (below), is checked to satisfy z A = 0 on the rows of A that
    z reaches.

    For n = 3 back-substitution gives A_S x = b_S, hence A x = b when b is a
    cocycle.  So a witness that fails the check proves b is not a cocycle,
    and the first row of d^3 with first argument in S that does not vanish
    on b is the obstruction (z A = 0 as d d = 0, and by the lemma they all
    vanish exactly on cocycles).  The matrix-free core finds it; the k-th
    such row, in ``product(S, elems, elems, elems)`` order, has index
    ``len(kernel) + k``, and only it and the at most n + 2 rows of d^2 it
    reaches are built to check it.
    """
    if D == 1 or not any(v % D for v in b):  # over D = 1 every numerator is 0 in Q/Z
        return zero_cochain(group, n - 1), None

    ech = _factor(group, n - 1)
    i = next((i for i, z in enumerate(ech.kernel) if _dot(z, b) % D), None)
    if i is None:
        x, den = _back_substitute(ech, b, D)
        scale = den // D
        dx = [_dot(row, x) for row in _factored_rows(group).values()] if n == 2 else \
            _coboundary_numerators(group, 2, x)
        if not any((v - t * scale) % den for v, t in zip(dx, b)):
            return _of(group, n - 1, x, den), None
        # a failed witness for a cocycle b (any b if n = 2): a corrupt factorization
        S = generators(group)
        db = _coboundary_numerators(group, n, b, S) if n == 3 else ()
        k = next((k for k, v in enumerate(db) if v % D), None)
        if k is None:
            raise InternalInvariantBroken("coboundary witness failed verification")
        elems = [a for a in group.elements() if a != group.identity]
        [z] = _coboundary_rows(group, n, islice(product(S, *[elems] * n), k, k + 1)).values()
        i = len(ech.kernel) + k
    else:
        z = ech.kernel[i]
    rows = _factored_rows(group) if n == 2 else _coboundary_rows(
        group, 2, (_index_tuple(group, j, 3) for j, _ in z))
    if not _in_left_kernel(z, rows):
        raise InternalInvariantBroken("obstruction functional failed verification")
    return None, i


def _solve_cochain(target: Cochain):
    """_solve on a target given as a cochain of degree 2 or 3."""
    if target.degree not in (2, 3):
        raise DegreeMismatch("coboundary solving supports target degrees 2 and 3")
    return _solve(target.group, target.degree, target.nums, target.den)


def solve_coboundary(target: Cochain) -> Optional[Cochain]:
    """A cochain f with df = target, or None when the class is nontrivial.

    Witnesses are re-verified by the integer coboundary product before being
    returned, and obstructions are checked against the rows of d they read.
    """
    witness, _ = _solve_cochain(target)
    return witness


def image_obstruction(target: Cochain) -> Optional[int]:
    """Index of the functional certifying target is not a coboundary (None if
    it is one): a kernel row of the factorization that _solve uses (for a
    degree-3 target, of the echelon form of A_S that the Schreier tree gives,
    ``_d2_echelon``), or, for a degree-3 target that is not a cocycle,
    len(kernel) + k for the k-th row of d^3 with first argument in
    ``generators(G)``, in lexicographic order."""
    _, row = _solve_cochain(target)
    return row


def is_cohomologous(a: Cochain, b: Cochain) -> Optional[Cochain]:
    """Witness f with df = a - b, or None when the classes differ."""
    return solve_coboundary(combine(a, b, (1, -1)))


def h2_order(group: Group) -> int:
    """Order of the second cohomology group with Q/Z coefficients: the product
    of the orders d_k of the class generators that _h2_classes checked, the
    invariant factors of the degree-2 coboundary matrix."""
    return prod(d for _, d in _h2_classes(group).gens)


class H2:
    """H^2(group, Q/Z) as _check_h2 checks it: the "h2" entry of a table.

    ``gens`` pairs each class generator r_k, as dense numerators over M =
    |group| laid out like ``numerators`` and checked to be a cocycle mod M on
    the generator rows, with its order d_k: H^2 is the direct sum of the
    cyclic groups they generate.  ``cycles`` holds the dual integer 2-cycles
    z_k, each checked from the table to satisfy z A = 0 for A = d^1, as
    df(a, b) = f(b) - f(ab) + f(a), with <z_k, r_j> = M / d_k if j = k and 0
    otherwise, mod M.

    Called on a 2-cochain, given as numerators over D laid out like the r_k,
    it gives its signature: its pairings with the z_k, mod D.  A cycle pairs
    every coboundary to 0, and as H^2(G, Q/Z) = Hom(H_2(G, Z), Q/Z) the z_k
    tell every class apart: the class sum_k m_k r_k has signature
    (m_k M / d_k)_k over M.  An H2 is immutable: the signature filter of
    ``equivalent_pairs`` trusts its cycles to skip a g.
    """

    __slots__ = ("gens", "cycles")

    def __init__(self, gens: tuple, cycles: Tuple[Sparse, ...]):
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "cycles", cycles)

    def __setattr__(self, name, value):
        raise AttributeError("H2 objects are immutable")

    def __call__(self, vec: Sequence[int], D: int) -> Tuple[int, ...]:
        return tuple(_dot(z, vec) % D for z in self.cycles)

    def moved(self, vec: Sequence[int], perm: Sequence[int], twist, s: int,
              D: int) -> Tuple[int, ...]:
        """self(v, D) for v[k] = vec[perm[k]] + s * twist[k] (twist None for
        zero), read through perm without building v."""
        out = []
        for z in self.cycles:
            t = 0
            if twist is None:
                for k, c in z:
                    t += c * vec[perm[k]]
            else:
                for k, c in z:
                    t += c * (vec[perm[k]] + s * twist[k])
            out.append(t % D)
        return tuple(out)


def _check_h2(group: Group, basis: H2Basis) -> H2:
    """H^2 from this basis, each part checked.

    The basis must give one generator r_k and one cycle z_k per invariant
    factor d_k, each d_k dividing M.  Each r_k is checked to be a cocycle mod
    M on the generator rows, which decides it (``cochains._cocycle_on``), so
    every sum of multiples m_k < d_k of them is one.  Each z_k is checked to
    be a cycle on the rows of d^1 it reaches, and the pairing table <z_k, r_j>
    mod M to be M / d_k if j = k and 0 otherwise.  So the sum m pairs with z_k
    as m_k M / d_k, and no two of the prod(d_k) sums are cohomologous; that
    there are no more classes is the invariant factors' claim.
    """
    M, ncols, torsion = group.order, (group.order - 1) ** 2, list(basis.torsion)
    if not len(basis.generators) == len(basis.cycles) == len(torsion):
        raise InternalInvariantBroken(
            f"{len(basis.generators)} generators and {len(basis.cycles)} cycles for "
            f"{len(torsion)} invariant factors do not split the cohomology classes")
    if any(d < 1 or M % d for d in torsion):
        raise InternalInvariantBroken(f"invariant factors {torsion} do not all divide {M}")
    gens = []
    for gen, d in zip(basis.generators, torsion):
        entries = dict(gen)
        g = tuple(entries.get(j, 0) for j in range(ncols))
        if not _cocycle_on(group, 2, g, M, generators(group)):
            raise InternalInvariantBroken("candidate representative is not a cocycle")
        gens.append((g, d))
    for z in basis.cycles:
        if not _in_left_kernel(z, _coboundary_rows(
                group, 1, (_index_tuple(group, k, 2) for k, _ in z))):
            raise InternalInvariantBroken("kernel functional failed verification")
    h2 = H2(tuple(gens), tuple(basis.cycles))
    for j, (g, _) in enumerate(gens):
        if h2(g, M) != tuple(M // d if k == j else 0 for k, d in enumerate(torsion)):
            raise InternalInvariantBroken(
                "the cycles and generators do not pair as dual bases, so they do "
                "not tell the cohomology classes apart")
    return h2


def _h2_classes(group: Group) -> H2:
    """The checked H^2(group, Q/Z) (_check_h2), memoized write-once per table
    (``groups._table_memo``) as "h2"; the Smith form it comes from is computed
    only to check it."""
    return _table_memo(group, "h2", lambda: _check_h2(group, _h2_basis(group)))


def _class_vectors(group: Group) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """One (m, vec) per class of H^2(group, Q/Z): m_k < d_k, and vec = sum_k
    m_k r_k mod M, M = |group|, its representative, laid out like the r_k.
    The zero class comes first, then the others in the order of vec, which
    orders them as their QZ values do.  Built afresh on each call."""
    M = group.order
    classes = [((), (0,) * (M - 1) ** 2)]
    for g, d in _h2_classes(group).gens:
        classes = [(m + (k,), tuple((a + k * b) % M for a, b in zip(vec, g)))
                   for m, vec in classes for k in range(d)]
    classes.sort(key=lambda c: (any(c[1]), c[1]))
    return classes


def h2_representatives(group: Group) -> List[Cochain]:
    """One normalized 2-cocycle per class of H^2(group, Q/Z), zero first."""
    return [_of(group, 2, vec, group.order) for _, vec in _class_vectors(group)]
