"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the production solver paths: subgroup
enumeration by raw subset filtering, coboundary matrices built from the group
table by their defining formula, coboundary solving by exhaustive search over
bounded denominators, homology orders from a kernel-basis computation, and a
no-twist classifier for the trivial-cocycle reduction.  The exceptions are
``h2_torsion_by_generator_rows``, the earlier H^2 algorithm of the package,
kept as the reference that the Schreier-tree one is compared against, and
``restrict_qz`` and ``big_omega_qz``, the package's earlier Q/Z restriction
and twist, kept as references for the integer ones read by index, and
``DictCochain``, its earlier cochain layout, kept as the reference for the
integer numerators it stores now, ``solve_every_g``, its earlier
``equivalent_pairs`` scan, kept as the reference for the one that skips a g
by its H^2 signature, ``omega_fingerprint_qz``, its earlier report hash
of omega, read through one QZ per value, and ``solve_every_subgroup``, its
earlier ``admissible_subgroups``, kept as the reference for the one that
refuses a subgroup unsolved when it contains a refused one, with
``pushed_obstruction``, which moves a solve's obstruction up an inclusion.
"""

import hashlib
from fractions import Fraction
from itertools import combinations, islice, product
from math import lcm

from modcat import (ZERO, Cochain, NotASubgroup, QZ, coboundary, from_table, generators,
                    is_cohomologous, nonidentity_tuples, qz, smith_normal_form, subgroups)
from modcat import cohomology
from modcat.classify import EquivalenceWitness, _criterion, _move
from modcat.cochains import _index_tuple, _numerators_on, _tuple_index


def coboundary_incidence(G, n):
    """(rows, cols, sparse) of the integer matrix of d^n on normalized
    cochains: rows are the identity-free (n+1)-tuples and cols the n-tuples,
    both in lexicographic order, and sparse[i] is row i as (col, coeff) pairs
    with nonzero coefficients, in column order.  Row (g_1, ..., g_{n+1}) sums
    the faces of
        (df)(g_1, ..., g_{n+1}) = f(g_2, ..., g_{n+1})
            + sum_i (-1)^i f(g_1, ..., g_i g_{i+1}, ..., g_{n+1})
            + (-1)^{n+1} f(g_1, ..., g_n),
    dropping the faces that hold the identity, where f vanishes."""
    e = G.identity
    elems = [x for x in G.elements() if x != e]
    cols = list(product(elems, repeat=n))
    col = {t: j for j, t in enumerate(cols)}
    rows, sparse = list(product(elems, repeat=n + 1)), []
    for args in rows:
        faces = [(args[1:], 1), (args[:n], (-1) ** (n + 1))] + [
            (args[:i] + (G.table[args[i]][args[i + 1]],) + args[i + 2:], (-1) ** (i + 1))
            for i in range(n)]
        row = {}
        for t, sign in faces:
            if e not in t:
                row[col[t]] = row.get(col[t], 0) + sign
        sparse.append(tuple((j, c) for j, c in sorted(row.items()) if c))
    return rows, cols, sparse


def dense(sparse, ncols):
    """The dense rows of a matrix given by sparse rows."""
    out = []
    for row in sparse:
        full = [0] * ncols
        for j, c in row:
            full[j] = c
        out.append(full)
    return out


def incidence_product(sparse, x):
    """A x for the matrix A with these sparse rows."""
    return [sum(c * x[j] for j, c in row) for row in sparse]


def brute_subgroups(G):
    """All subgroups by filtering every subset; feasible for |G| <= 8."""
    elems = list(G.elements())
    out = []
    for r in range(1, G.order + 1):
        for subset in combinations(elems, r):
            s = set(subset)
            if G.identity not in s:
                continue
            if any(G.inverse[a] not in s for a in s):
                continue
            if any(G.table[a][b] not in s for a in s for b in s):
                continue
            out.append(tuple(sorted(s)))
    return sorted(out, key=lambda m: (len(m), m))


def lagrange_subgroups(G):
    """All subgroups by filtering the subsets that hold the identity and whose
    size divides |G| (Lagrange): 6,907 subsets at order 16, all closure-checked."""
    others = [x for x in G.elements() if x != G.identity]
    out = []
    for r in range(1, G.order + 1):
        if G.order % r:
            continue
        for rest in combinations(others, r - 1):
            s = set(rest) | {G.identity}
            if all(G.inverse[a] in s for a in s) and \
                    all(G.table[a][b] in s for a in s for b in s):
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda m: (len(m), m))


def brute_coboundary_witness(target, den):
    """Search all 1-cochains with values k/den for one whose coboundary is target.

    The search runs on integer vectors against a first-principles incidence
    of df(a, b) = f(b) - f(ab) + f(a); a Cochain is built only for the hit,
    and the hit is re-verified through the production coboundary.
    """
    G = target.group
    e = G.identity
    slots = [x for x in G.elements() if x != e]
    pos = {x: i for i, x in enumerate(slots)}
    rows = []
    for a in slots:
        for b in slots:
            ab = G.table[a][b]
            row = {pos[b]: 1}
            if ab != e:
                row[pos[ab]] = row.get(pos[ab], 0) - 1
            row[pos[a]] = row.get(pos[a], 0) + 1
            try:
                t = target.value((a, b)).scaled_num(den)
            except ValueError:
                return None  # target value not expressible over 1/den
            rows.append((tuple((j, c) for j, c in sorted(row.items()) if c), t))
    rows = [(r, t) for r, t in rows if r or t % den]
    for choice in product(range(den), repeat=len(slots)):
        for r, t in rows:
            if (sum(c * choice[j] for j, c in r) - t) % den:
                break
        else:
            vals = {(x,): QZ(k, den) for x, k in zip(slots, choice) if k % den}
            f = Cochain(G, 1, vals)
            assert coboundary(f) == target
            return f
    return None


def enumerate_2cocycles_int(G, den):
    """All 2-cochains with values k/den whose coboundary vanishes.

    Returns (pairs, vectors): the identity-free pair tuples in lexicographic
    order and one integer vector (numerators over den) per cocycle.  Built on
    a first-principles incidence of the degree-2 coboundary with early
    pruning, so it stays fast even at den**len(pairs) candidate scale.
    """
    e = G.identity
    elems = [a for a in G.elements() if a != e]
    pairs = [(a, b) for a in elems for b in elems]
    pair_idx = {p: i for i, p in enumerate(pairs)}
    sparse_rows = []
    for a in elems:
        for b in elems:
            for c in elems:
                row = {}

                def bump(key, s):
                    if key is not None:
                        row[key] = row.get(key, 0) + s

                bump(pair_idx[(b, c)], 1)
                ab, bc = G.table[a][b], G.table[b][c]
                bump(pair_idx[(ab, c)] if ab != e else None, -1)
                bump(pair_idx[(a, bc)] if bc != e else None, 1)
                bump(pair_idx[(a, b)], -1)
                row = tuple((j, cf) for j, cf in sorted(row.items()) if cf)
                if row:
                    sparse_rows.append(row)
    out = []
    for vec in product(range(den), repeat=len(pairs)):
        for row in sparse_rows:
            if sum(cf * vec[j] for j, cf in row) % den:
                break
        else:
            out.append(vec)
    return pairs, out


def random_cochain(G, degree, rng, den=None):
    """A random normalized cochain with denominators dividing den."""
    den = den or 2 * G.order
    vals = {}
    for args in nonidentity_tuples(G, degree):
        vals[args] = QZ(rng.randrange(den), den)
    return Cochain(G, degree, vals)


def h2_order_homology(G):
    """|H_2| via an explicit kernel basis, independent of the production shortcut.

    Chain complex boundary maps are the transposes of the coboundary matrices.
    H_2 = ker(boundary_2) / im(boundary_3): take the integer kernel basis K
    that the column transform V of boundary_2's Smith form gives, write each
    image column in K-coordinates by an exact rational solve that must come
    out integral, and multiply the invariant factors of that coordinate
    matrix.
    """
    if G.order == 1:
        return 1
    rows1, cols1, sparse1 = coboundary_incidence(G, 1)
    _, _, sparse2 = coboundary_incidence(G, 2)
    P, S = len(rows1), len(cols1)
    D1 = dense(sparse1, S)

    b2 = [[D1[p][s] for p in range(P)] for s in range(S)]  # S x P
    snf_b2 = smith_normal_form(b2, S, P)
    rank_b2 = sum(1 for d in snf_b2.diag if d)
    kernel = [snf_b2.V[p][rank_b2:] for p in range(P)]  # P x k, a basis of ker(boundary_2)
    k = P - rank_b2
    inverse = left_inverse(kernel, k)
    columns = [[(p, row[j]) for p, row in enumerate(kernel) if row[j]] for j in range(k)]

    Y = []  # T x k: the columns of boundary_3, rows of d^2, in kernel coordinates
    for col in sparse2:
        y = [Fraction(0)] * k
        for p, c in col:
            for j, v in inverse[p]:
                y[j] += v * c
        assert all(v.denominator == 1 for v in y), "inexact division in kernel solve"
        y = [int(v) for v in y]
        back = {}
        for j, v in enumerate(y):
            if v:
                for p, c in columns[j]:
                    back[p] = back.get(p, 0) + c * v
        assert {p: c for p, c in back.items() if c} == dict(col), "column outside the kernel"
        Y.append(y)
    # the transpose of the coordinate matrix: the same invariant factors
    snf_y = smith_normal_form(Y, len(Y), k)
    order = 1
    for i in range(k):
        d = snf_y.diag[i] if i < len(snf_y.diag) else 0
        assert d != 0, "second homology of a finite group must be finite"
        order *= d
    return order


def left_inverse(K, k):
    """L with L K = I for an integer matrix K of k independent columns, by
    exact Gauss-Jordan elimination over the rationals on the rows of [K | I],
    given by column: L[p] lists the (j, L[j][p]) that are nonzero."""
    work = [({j: Fraction(v) for j, v in enumerate(row) if v}, {p: Fraction(1)})
            for p, row in enumerate(K)]
    pivots = []
    for j in range(k):
        r = min((p for p, (row, _) in enumerate(work) if j in row and p not in pivots),
                key=lambda p: (len(work[p][0]), p))
        pivots.append(r)
        f = work[r][0][j]
        work[r] = tuple({c: v / f for c, v in part.items()} for part in work[r])
        for p, part in enumerate(work):
            q = part[0].get(j) if p != r else None
            if q:
                for dst, src in zip(part, work[r]):
                    for c, v in src.items():
                        dst[c] = dst.get(c, 0) - q * v
                        if not dst[c]:
                            del dst[c]
    L = [[] for _ in K]
    for j, r in enumerate(pivots):
        for p, v in sorted(work[r][1].items()):
            L[p].append((j, v))
    return L


def brute_trivial_omega_classes(cat, pairs):
    """Partition pairs of a trivial-cocycle category by plain conjugation.

    a = (H, psi) and b = (L, xi) merge exactly when some g maps L onto H with
    psi(g . g^{-1}) cohomologous to xi.  No twist terms anywhere.
    """
    from modcat import conjugate_cochain, conjugate_subgroup

    G = cat.group
    assert cat.omega.is_zero()
    n = len(pairs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            a, b = pairs[i], pairs[j]
            if a.H.order != b.H.order:
                continue
            for g in G.elements():
                if conjugate_subgroup(G, b.H, g).members != a.H.members:
                    continue
                moved = conjugate_cochain(a.psi, g)
                if is_cohomologous(moved, b.psi) is not None:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
                    break
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return sorted(sorted(v) for v in blocks.values())


def bareiss_det(A):
    """Fraction-free determinant of a square integer matrix."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def relabel(G, rng):
    """G with its elements renumbered by a random permutation."""
    perm = list(G.elements())
    rng.shuffle(perm)
    inv = [0] * G.order
    for i, p in enumerate(perm):
        inv[p] = i
    return from_table(G.order, [[inv[G.table[perm[i]][perm[j]]] for j in range(G.order)]
                                for i in range(G.order)])


def h2_torsion_by_generator_rows(G):
    """The invariant factors above 1 of d^2, found as the package found them
    before its Schreier tree: unit-pivot elimination, without a transform, of
    every row of d^2 whose first argument is a generator (A_S, built here by
    ``coboundary_incidence``), then a dense Smith form of the distinct rows
    (up to sign) left on the columns left."""
    S = set(generators(G))
    tuples, cols, sparse = coboundary_incidence(G, 2)
    A_S = {k: row for k, (t, row) in enumerate(zip(tuples, sparse)) if t[0] in S}
    _, work, colrows, _ = cohomology._eliminate(A_S, len(cols), track=False)
    live = sorted(c for c, rs in enumerate(colrows) if rs)
    residual = set()
    for row in work.values():
        dense = [row.get(c, 0) for c in live]
        if next(v for v in dense if v) < 0:
            dense = [-v for v in dense]
        residual.add(tuple(dense))
    snf = smith_normal_form(sorted(residual), len(residual), len(live))
    return [d for d in snf.diag if d > 1]


def restrict_qz(f, H):
    """Restriction of f to the subgroup H, reindexed to H's own element
    indices, as the package computed it on Q/Z values before it read
    cochains by index as integers."""
    if H.parent != f.group:
        raise NotASubgroup("subgroup does not live in the cochain's group")
    view = H.as_group()
    memset = frozenset(H.members)
    pos = {p: i for i, p in enumerate(H.members)}
    out = {}
    for args, v in f.values.items():
        if all(a in memset for a in args):
            out[tuple(pos[a] for a in args)] = v
    return Cochain(view, f.degree, out)


def big_omega_qz(cat, g):
    """big_omega(g)(a, b) = omega(gag', gbg', g) + omega(g, a, b) - omega(gag', g, b)
    on all of G, summed on Q/Z values as the package did before it read omega
    by index as integers.  Reads only ``cat.group`` and ``cat.omega``."""
    G, om = cat.group, cat.omega
    val = om.value
    conj = G.conj
    out = {}
    for a, b in nonidentity_tuples(G, 2) if om.values else ():  # zero omega: zero twist
        ca, cb = conj(g, a), conj(g, b)
        v = val((ca, cb, g)) + val((g, a, b)) - val((ca, g, b))
        if v:
            out[(a, b)] = v
    return Cochain(G, 2, out)


class DictCochain:
    """A cochain as the package stored it before it kept integer numerators
    over one denominator: a dict of the nonzero QZ values, keyed by
    identity-free argument tuples, with every other tuple zero.  Takes only
    valid input; the read methods are those of ``Cochain``."""

    def __init__(self, group, degree, values):
        self.group, self.degree = group, degree
        self.values = {tuple(t): qz(v) for t, v in values.items() if qz(v)}

    def value(self, args):
        return self.values.get(tuple(args), ZERO)

    def __call__(self, *args):
        return self.values.get(args, ZERO)

    def is_zero(self):
        return not self.values

    def items(self):
        return sorted(self.values.items())

    def __eq__(self, other):
        return (self.degree == other.degree and self.group == other.group
                and self.values == other.values)

    def __hash__(self):
        return hash((self.degree, frozenset(self.values.items())))

    def json_values(self):
        return [{"args": list(args), "val": str(v)} for args, v in self.items()]


def solve_every_g(a, b):
    """The first g in index order that carries b's subgroup L onto a's, with
    the coboundary witness a full degree-2 solve of the criterion finds there,
    or None: one solve at every such g, as ``equivalent_pairs`` scanned
    before it skipped a g by the H^2 signature."""
    cat = a.category
    if a.H.order != b.H.order:
        return None
    L = b.H.as_group()
    D = lcm(cat.den, a.psi.den, b.psi.den)
    psi, xi = cohomology.numerators(a.psi, D), cohomology.numerators(b.psi, D)
    for g in cat.group.elements():
        move = _move(cat, a.H, g)
        if move.L == b.H.members:
            witness, _ = cohomology._solve(L, 2, _criterion(move, cat.den, psi, xi, D), D)
            if witness is not None:
                return EquivalenceWitness(g, witness)
    return None


def omega_fingerprint_qz(omega):
    """The report hash of omega as the package computed it through one QZ and
    one str per nonzero value."""
    h = hashlib.sha256()
    h.update(repr((omega.group.table, omega.group.names)).encode())
    h.update(repr([(args, str(v)) for args, v in omega.items()]).encode())
    return h.hexdigest()


def solve_every_subgroup(cat):
    """[(H, psi0, i)] for every subgroup H of the category's group, in the
    order of subgroups(G), by one degree-3 _solve of omega|_H on each: psi0
    the witness to d(psi0) = omega|_H or None, i the index of the checked
    obstruction or None, as ``admissible_subgroups`` solved before it
    refused a subgroup by inclusion."""
    D = cat.den
    return [(H, *cohomology._solve(H.as_group(), 3, _numerators_on(cat.omega, H.members, D), D))
            for H in subgroups(cat.group)]


def pushed_obstruction(K, i, H):
    """The obstruction z with index i of _solve on K's view, a sparse functional
    on identity-free 3-tuples, re-indexed along the inclusion K -> H onto the
    3-tuples of H's view: ``_factor(K, 2).kernel[i]``, or, past the kernel,
    the row of d^3 with first argument in generators(K) that _solve names."""
    Kv, Hv = K.as_group(), H.as_group()
    kernel = cohomology._factor(Kv, 2).kernel
    if i < len(kernel):
        z = kernel[i]
    else:
        k, elems = i - len(kernel), [a for a in Kv.elements() if a != Kv.identity]
        tuples = islice(product(generators(Kv), elems, elems, elems), k, k + 1)
        [z] = cohomology._coboundary_rows(Kv, 3, tuples).values()
    pos = {x: k for k, x in enumerate(H.members)}
    return sorted((_tuple_index(Hv, tuple(pos[K.members[a]] for a in _index_tuple(Kv, j, 3))), c)
                  for j, c in z)
