import hashlib
import linecache
import random
import sys
from collections import Counter
from itertools import combinations
from math import gcd, lcm

import pytest

import modcat.cochains as cochains
import modcat.cohomology as cohomology
from modcat import (Cochain, InternalInvariantBroken, QZ, classify, coboundary, combine,
                    cyclic_group, dihedral_group, direct_product, from_table,
                    generators, h2_order, h2_representatives, is_cocycle,
                    is_cohomologous,
                    kp_category, kp_group, nonidentity_tuples, restrict,
                    smith_normal_form, solve_coboundary, subgroups, zero_cochain)
from modcat.cochains import _coboundary_numerators, _tuple_index
from modcat.groups import _table_peek
from modcat.cohomology import image_obstruction, numerators
from oracles import (bareiss_det, brute_coboundary_witness, coboundary_incidence,
                     enumerate_2cocycles_int, h2_order_homology, h2_torsion_by_generator_rows,
                     incidence_product, random_cochain, relabel)
from test_classifier import ORACLE_CASES, unrefused_subgroups
from test_solver import check_with_basis, obstruction_holds


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


def kp_klein_view():
    kp = kp_category()
    return kp, kp.L.as_group()


def nontrivial_klein_cocycle(view):
    """beta(z^i t^j, z^i' t^j') = (-1)^(j i') on the Klein view of the fixture."""
    def decode(a):
        return a & 1, a >> 1  # fixture packing: local index 2j + i
    vals = {}
    for a in range(1, 4):
        for b in range(1, 4):
            _, ja = decode(a)
            ib, _ = decode(b)
            if ja * ib:
                vals[(a, b)] = QZ(1, 2)
    return Cochain(view, 2, vals)


# --- coboundary rows ----------------------------------------------------------

@pytest.mark.parametrize("G,degree", [
    (cyclic_group(4), 1), (cyclic_group(4), 2),
    (dihedral_group(6), 1), (dihedral_group(6), 2),
    (kp_group(), 1), (kp_group(), 2),
])
def test_matrix_reproduces_coboundary(G, degree):
    """The rows of d^degree, the memoized ones at degree 1 and those built for
    every tuple at degree 2, are the oracle's rows under the same index, and
    their product reproduces the coboundary there."""
    rng = random.Random(degree + G.order)
    tuples, _, sparse = coboundary_incidence(G, degree)
    rows = cohomology._factored_rows(G) if degree == 1 else \
        cohomology._coboundary_rows(G, degree, tuples)
    assert list(rows) == list(range(len(tuples)))
    assert all(row == sparse[k] for k, row in rows.items())
    f = random_cochain(G, degree, rng)
    df = coboundary(f)
    D = lcm(*(v.den for v in f.values.values()))
    applied = incidence_product(rows.values(), numerators(f, D))
    for k, got in zip(rows, applied):
        assert QZ(got, D) == df.value(tuples[k])


def mixed_denominator_cochain(G, degree, rng):
    """A random cochain whose values have different denominators."""
    vals = {}
    for args in nonidentity_tuples(G, degree):
        den = rng.choice((1, 2, 3, 4, 5, 6, 8, 12))
        if rng.random() < 0.7:
            vals[args] = QZ(rng.randrange(den), den)
    return Cochain(G, degree, vals)


@pytest.mark.parametrize("G", [kp_group(), dihedral_group(6),
                               direct_product(klein_group(), cyclic_group(2))],
                         ids=["kp", "D6", "Z2^3"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_integer_coboundary_matches_coboundary(G, degree):
    """The matrix-free integer coboundary, on all rows and on the generator
    rows, and coboundary() and is_cocycle() built on it, against the product
    with the oracle's d^degree, built from the group table."""
    rng = random.Random(17 * degree + G.order)
    rows, cols, sparse = coboundary_incidence(G, degree)
    S = generators(G)
    for _ in range(3):
        f = mixed_denominator_cochain(G, degree, rng)
        D = lcm(*(v.den for v in f.values.values()))
        x = numerators(f, D)
        assert x == [f.value(t).scaled_num(D) for t in cols]
        dx = incidence_product(sparse, x)
        assert _coboundary_numerators(G, degree, x) == dx
        assert _coboundary_numerators(G, degree, x, S) == [
            v for t, v in zip(rows, dx) if t[0] in S]
        got = Cochain(G, degree + 1, {t: QZ(v, D) for t, v in zip(rows, dx)})
        assert got == coboundary(f)
        assert is_cocycle(f) == (not any(v % D for v in dx))


def test_tampered_smith_generator_makes_h2_representatives_raise(monkeypatch):
    view = kp_klein_view()[1]
    assert len(h2_representatives(view)) == 2
    basis = cohomology._h2_basis(view)
    [gen], [d] = basis.generators, basis.torsion
    M, (_, cols, d2) = view.order, coboundary_incidence(view, 2)
    messages = set()
    for p in range(len(cols)):
        # the generator plus (M/d) at one pair: still a multiple of M/d below M,
        # like a true generator, but never a cocycle
        bad = dict(gen)
        bad[p] = (bad.get(p, 0) + M // d) % M
        x = [bad.get(j, 0) for j in range(len(cols))]
        assert any(v % M for v in incidence_product(d2, x))
        check_with_basis(monkeypatch, view, cohomology.H2Basis(
            [d], [tuple((j, bad[j]) for j in sorted(bad) if bad[j])], basis.cycles))
        with pytest.raises(InternalInvariantBroken) as exc:
            h2_representatives(view)
        messages.add(str(exc.value))
    # some of these keep two distinct signatures and reach the cocycle check
    assert "candidate representative is not a cocycle" in messages


# --- Smith normal form ------------------------------------------------------

def random_int_matrix(rng, nrows, ncols):
    return [[rng.randrange(-5, 6) for _ in range(ncols)] for _ in range(nrows)]


def invariant_factors(A, nrows, ncols):
    """The diagonal of the Smith form of A from its determinantal divisors:
    d_i = D_i / D_(i-1), with D_i the gcd of the i x i minors, zero past the
    rank."""
    out, prev = [], 1
    for i in range(1, min(nrows, ncols) + 1):
        D = 0
        for rows in combinations(range(nrows), i):
            for cols in combinations(range(ncols), i):
                D = gcd(D, bareiss_det([[A[r][c] for c in cols] for r in rows]))
        out.append(D // prev if D else 0)
        prev = D or prev
    return out


def snf_case(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
    return random_int_matrix(rng, nrows, ncols), nrows, ncols


def matmul(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]


@pytest.mark.parametrize("seed", range(12))
def test_snf_reconstruction_and_unimodularity(seed):
    A, nrows, ncols = snf_case(seed)
    snf = smith_normal_form(A, nrows, ncols)
    V = snf.V
    assert abs(bareiss_det(V)) == 1
    identity = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    assert matmul(snf.Vinv, V) == identity and matmul(V, snf.Vinv) == identity
    assert snf.diag == invariant_factors(A, nrows, ncols)
    # A V is U^-1 D: its columns past the rank are zero
    rank = sum(1 for d in snf.diag if d)
    assert all(row[j] == 0 for row in matmul(A, V) for j in range(rank, ncols))
    nonzero = [d for d in snf.diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert nonzero == snf.diag[:len(nonzero)]  # zeros trail


def test_snf_seeds_reach_the_gcd_column_combine_and_the_divisibility_fix():
    # the V^-1 check above tests the inverse of every column operation only
    # if some seed runs it: the 2x2 gcd combine of two columns, and the
    # d_i | d_{i+1} fix; the lines each seed runs in smith.py are recorded
    source = smith_normal_form.__code__.co_filename
    reached = {}

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != source:
            return None
        if event == "line":
            line = linecache.getline(source, frame.f_lineno).split("#")[0].strip()
            reached.setdefault((frame.f_code.co_name, line), set()).add(seed)
        return tracer

    previous = sys.gettrace()
    for seed in range(12):
        sys.settrace(tracer)
        try:
            smith_normal_form(*snf_case(seed))
        finally:
            sys.settrace(previous)
    combine = reached.get(("combine_cols", "x, y, g = _xgcd(a, b)"))
    fix = reached.get(("smith_normal_form", "add_col(i, i + 1, 1)"))
    assert combine and fix  # today seeds 1, 3, 4, 8, 9 and 11, and seed 9


# --- solve_coboundary -------------------------------------------------------

def test_solve_zero_target():
    G = dihedral_group(8)
    for degree in (2, 3):
        w = solve_coboundary(zero_cochain(G, degree))
        assert w is not None and w.is_zero() and w.degree == degree - 1


def test_solve_z2_halving():
    G = cyclic_group(2)
    target = Cochain(G, 2, {(1, 1): QZ(1, 2)})
    w = solve_coboundary(target)
    assert w == Cochain(G, 1, {(1,): QZ(1, 4)})


def test_solve_klein_nontrivial_class():
    kp, view = kp_klein_view()
    beta = nontrivial_klein_cocycle(view)
    assert is_cocycle(beta)
    # beta is exactly the conjugation twist of x restricted to L
    from modcat import big_omega
    assert beta == restrict(big_omega(kp.category, kp.x), kp.L)
    assert solve_coboundary(beta) is None
    assert image_obstruction(beta) is not None
    # independent exhaustive search, denominators dividing 8
    assert brute_coboundary_witness(beta, 8) is None


def test_solve_of_coboundary_always_succeeds():
    rng = random.Random(13)
    for G in (cyclic_group(5), dihedral_group(6), kp_group()):
        for degree in (1, 2):
            f = random_cochain(G, degree, rng)
            target = coboundary(f)
            w = solve_coboundary(target)
            assert w is not None
            assert coboundary(w) == target  # witness may differ from f


def test_solver_agrees_with_brute_force_small_groups():
    # on cocycle inputs with denominators dividing |H|, brute search over
    # 1-cochains with denominators dividing |H|^2 must reach the same verdict
    rng = random.Random(17)
    for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group()):
        n = G.order
        reps = h2_representatives(G)
        for trial in range(6):
            rep = reps[trial % len(reps)]
            f = random_cochain(G, 1, rng, den=n)
            cand = combine(coboundary(f), rep, (1, 1))
            assert is_cocycle(cand)
            fast = solve_coboundary(cand)
            slow = brute_coboundary_witness(cand, n * n)
            assert (fast is None) == (slow is None) == (not rep.is_zero())
            if slow is not None:
                assert coboundary(slow) == cand


def test_is_cohomologous():
    G = klein_group()
    rng = random.Random(19)
    a = random_cochain(G, 2, rng)
    w = is_cohomologous(a, a)
    assert w is not None and w.is_zero()
    f = random_cochain(G, 1, rng)
    b = combine(a, coboundary(f), (1, 1))
    w = is_cohomologous(a, b)
    assert w is not None
    assert coboundary(w) == combine(a, b, (1, -1))
    _, view = kp_klein_view()
    beta = nontrivial_klein_cocycle(view)
    assert is_cohomologous(zero_cochain(view, 2), beta) is None


# --- H^2 enumeration --------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 7))
def test_h2_cyclic_trivial(n):
    G = cyclic_group(n)
    reps = h2_representatives(G)
    assert len(reps) == 1 and reps[0].is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h2_cyclic_exhaustive_cross_check(n):
    # every 2-cocycle with denominators dividing n is a coboundary
    G = cyclic_group(n)
    pairs, vectors = enumerate_2cocycles_int(G, n)
    assert vectors, "the zero cocycle must always appear"
    for vec in vectors:
        c = Cochain(G, 2, {p: QZ(k, n) for p, k in zip(pairs, vec) if k})
        assert is_cocycle(c)
        assert brute_coboundary_witness(c, n * n) is not None


def test_h2_trivial_group():
    G = from_table(1, [[0]])
    reps = h2_representatives(G)
    assert len(reps) == 1 and reps[0].is_zero()
    assert h2_order(G) == 1


def test_h2_klein_two_classes():
    _, view = kp_klein_view()
    reps = h2_representatives(view)
    assert len(reps) == 2
    assert reps[0].is_zero() and not reps[1].is_zero()
    assert is_cocycle(reps[1])
    assert is_cohomologous(reps[0], reps[1]) is None
    beta = nontrivial_klein_cocycle(view)
    assert is_cohomologous(reps[1], beta) is not None


def test_h2_klein_exhaustive_quarter_lattice():
    """Enumerate all 2-cocycles with values in (1/4)Z/Z on the Klein group and
    sort every one of them into a class of {0, beta} by bounded witness search.
    Exactly two classes must appear, matching h2_representatives."""
    _, view = kp_klein_view()
    beta = nontrivial_klein_cocycle(view)
    den = 4
    pairs, cocycles = enumerate_2cocycles_int(view, den)
    assert len(cocycles) == 128  # |B^2_(1/4)| * |H^2 with Z/4 coefficients|

    counts = {0: 0, 1: 0}
    for vec in cocycles:
        c = Cochain(view, 2, {p: QZ(k, den) for p, k in zip(pairs, vec) if k})
        in_zero = brute_coboundary_witness(c, 16) is not None
        in_beta = brute_coboundary_witness(combine(c, beta, (1, -1)), 16) is not None
        assert in_zero != in_beta  # exactly one class fits
        counts[0 if in_zero else 1] += 1
    assert counts[0] == counts[1] == 64


@pytest.mark.parametrize("G,expected", [
    (cyclic_group(6), 1),
    (cyclic_group(8), 1),
    (klein_group(), 2),
    (direct_product(direct_product(cyclic_group(2), cyclic_group(2)),
                    cyclic_group(2)), 8),
    (kp_group(), 2),
    (dihedral_group(6), 1),
    (direct_product(cyclic_group(2), cyclic_group(4)), 2),
    (direct_product(cyclic_group(3), cyclic_group(3)), 3),
    (dihedral_group(8), 2),
])
def test_h2_order_known_values_and_homology_oracle(G, expected):
    assert h2_order(G) == expected
    assert h2_order_homology(G) == expected


def assert_complete_representatives(G):
    reps = h2_representatives(G)
    assert len(reps) == h2_order(G)
    assert reps[0].is_zero()
    assert all(is_cocycle(r) for r in reps)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert is_cohomologous(reps[i], reps[j]) is None


@pytest.mark.parametrize("G,schur", [
    (direct_product(dihedral_group(8), cyclic_group(2)), 8),
    (direct_product(cyclic_group(4), cyclic_group(4)), 4),
], ids=["D8xZ2", "Z4xZ4"])
def test_h2_representatives_on_every_subgroup_view(G, schur):
    checked = set()
    for H in subgroups(G):
        view = H.as_group()
        assert_complete_representatives(view)
        if view.order <= 8 and view.table not in checked:  # the oracle is slow beyond
            checked.add(view.table)
            assert h2_order(view) == h2_order_homology(view)
    assert h2_order(G) == schur


@pytest.mark.parametrize("G,order,residual", [
    (cyclic_group(16), 1, False),
    (direct_product(dihedral_group(8), cyclic_group(2)), 8, True),
], ids=["cyclic16-empty", "D8xZ2-nonempty"])
def test_h2_with_and_without_a_residual_smith_form(monkeypatch, G, order, residual):
    shapes = []
    real = cohomology.smith_normal_form

    def recorded(A, nrows, ncols, **kwargs):
        shapes.append((nrows, ncols))
        return real(A, nrows, ncols, **kwargs)

    monkeypatch.setattr(cohomology, "smith_normal_form", recorded)
    assert h2_order(G) == order
    [(nrows, ncols)] = shapes  # one Smith form, on what unit pivots leave
    assert (nrows * ncols > 0) == residual
    assert nrows < (G.order - 1) ** 3 // 10 and ncols < (G.order - 1) ** 2 // 10
    assert_complete_representatives(G)


def test_h2_representatives_contract():
    for G in (klein_group(), kp_group(), dihedral_group(6)):
        reps = h2_representatives(G)
        assert len(reps) == h2_order(G)
        assert reps[0].is_zero()
        for r in reps:
            assert is_cocycle(r)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert is_cohomologous(reps[i], reps[j]) is None


def test_h2_count_invariant_under_relabeling():
    rng = random.Random(23)
    for G in (klein_group(), kp_group()):
        assert len(h2_representatives(relabel(G, rng))) == len(h2_representatives(G))


# --- the generator-row lemma --------------------------------------------------
# A normalized k-cochain e (k >= 2) with de = 0 that vanishes whenever its first
# argument is a generator is zero.  is_cocycle, H^2 and the degree-3 solves rest
# on it.

def z2_to_the_4():
    return direct_product(direct_product(cyclic_group(2), cyclic_group(2)),
                          direct_product(cyclic_group(2), cyclic_group(2)))


def span(G, gens):
    """The subgroup generated by gens, by a search over right multiplication
    (positive words suffice in a finite group)."""
    seen, todo = {G.identity}, [G.identity]
    while todo:
        x = todo.pop()
        for s in gens:
            y = G.table[x][s]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@pytest.mark.parametrize("G", [kp_group(), direct_product(dihedral_group(8), cyclic_group(2)),
                               z2_to_the_4(), dihedral_group(24)],
                         ids=["kp", "D8xZ2", "Z2^4", "dihedral24"])
def test_generators_generate_every_subgroup_view(G):
    for H in subgroups(G):
        view = H.as_group()
        S = generators(view)
        assert list(S) == sorted(set(S)) and view.identity not in S
        assert span(view, S) == set(view.elements())
        assert generators(view) is S  # cached
    assert generators(cyclic_group(16)) == (1,)
    assert generators(dihedral_group(16)) == (1, 8)


@pytest.mark.parametrize("G", [kp_group(), dihedral_group(6),
                               direct_product(klein_group(), cyclic_group(2)),
                               direct_product(cyclic_group(4), cyclic_group(4))],
                         ids=["kp", "D6", "Z2^3", "Z4xZ4"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_is_cocycle_matches_the_full_coboundary(G, degree):
    rng = random.Random(31 * degree + G.order)
    S = set(generators(G))
    cocycle = (coboundary(random_cochain(G, degree - 1, rng, den=4)) if degree > 1
               else zero_cochain(G, 1))
    # a cocycle changed at one tuple whose first argument is not a generator
    outside = [t for t in nonidentity_tuples(G, degree) if t[0] not in S]
    bumped = [combine(cocycle, Cochain(G, degree, {t: QZ(1, 4)}), (1, 1))
              for t in rng.sample(outside, 3)]
    cases = [zero_cochain(G, degree), cocycle, random_cochain(G, degree, rng, den=4)]
    verdicts = [is_cocycle(f) for f in cases + bumped]
    assert verdicts == [coboundary(f).is_zero() for f in cases + bumped]
    assert verdicts[:2] == [True, True] and not any(verdicts[2:])


@pytest.mark.parametrize("G", [kp_group(), z2_to_the_4(), dihedral_group(24)],
                         ids=["kp", "Z2^4", "dihedral24"])
def test_h2_order_matches_the_homology_oracle_on_small_views(G):
    checked = set()
    for H in subgroups(G):
        view = H.as_group()
        if view.order <= 8 and view.table not in checked:
            checked.add(view.table)
            assert h2_order(view) == h2_order_homology(view)
    assert len(checked) > 3


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_generator_rows_decide_a_2_cocycle_mod_the_order(name):
    """The lemma at degree 2 over Z/M, M = |H|, on every subgroup view: H^2
    class generators, random coboundaries mod M, and each changed at one
    pair whose first argument is not a generator, are cocycles mod M on the
    generator rows exactly when they are on every row of the incidence
    matrix of d^2."""
    G, rng, incidence, verdicts = ORACLE_CASES[name]().group, random.Random(11), {}, []
    for H in subgroups(G):
        view, M = H.as_group(), H.order
        if M == 1:
            continue
        S = generators(view)
        d2 = incidence.setdefault(view.table, coboundary_incidence(view, 2)[2])
        cases = [[dict(r).get(j, 0) for j in range((M - 1) ** 2)]
                 for r in cohomology._h2_basis(view).generators]
        cases += [numerators(coboundary(random_cochain(view, 1, rng, den=M)), M)
                  for _ in range(2)]
        outside = [k for k, (a, _) in enumerate(nonidentity_tuples(view, 2)) if a not in S]
        for x in list(cases):
            for k in rng.sample(outside, min(2, len(outside))):
                cases.append([(v + rng.randrange(1, M)) % M if j == k else v
                              for j, v in enumerate(x)])
        for x in cases:
            full = not any(v % M for v in incidence_product(d2, x))
            assert cochains._cocycle_on(view, 2, x, M, S) == full
            verdicts.append(full)
    assert True in verdicts and False in verdicts


# the obstruction indices below are those the solver gave when it still
# appended every generator row of d^3 to the memoized degree-2 kernel
@pytest.mark.parametrize("G, pinned", [(kp_group(), [0, 62, 252, 268]),
                                       (cyclic_group(12), [0, 607, 995, 468]),
                                       (dihedral_group(12), [0, 849, 1237, 589])],
                         ids=["kp", "Z12", "D12"])
def test_non_cocycle_degree_3_targets_are_certified_non_coboundaries(G, pinned):
    rng = random.Random(G.order + 3)
    S = set(generators(G))
    eliminated = len(cohomology._factor(G, 2).kernel)
    # a coboundary changed at one tuple whose first argument is not a
    # generator agrees with a coboundary on every generator row, so it passes
    # every kernel functional of the generator rows
    base = coboundary(random_cochain(G, 2, rng, den=6))
    outside = [t for t in nonidentity_tuples(G, 3) if t[0] not in S]
    targets = [random_cochain(G, 3, rng, den=6)]
    targets += [combine(base, Cochain(G, 3, {t: QZ(1, 6)}), (1, 1))
                for t in rng.sample(outside, 3)]
    rows = []
    for target in targets:
        assert not is_cocycle(target)
        assert solve_coboundary(target) is None
        rows.append(image_obstruction(target))
        assert obstruction_holds(target, rows[-1])
    # the changed coboundaries were caught by rows of d^3, after the kernel
    assert all(row >= eliminated for row in rows[1:])
    assert rows == pinned


def test_non_cocycle_targets_leave_the_memoized_kernel_as_it_was():
    G = direct_product(dihedral_group(8), cyclic_group(2))
    exact = coboundary(random_cochain(G, 2, random.Random(5), den=4))
    witness = solve_coboundary(exact)
    assert len(cohomology._factor(G, 2).kernel) == 465
    S = set(generators(G))
    t = next(t for t in nonidentity_tuples(G, 3) if t[0] not in S)
    bad = combine(exact, Cochain(G, 3, {t: QZ(1, 4)}), (1, 1))
    assert not is_cocycle(bad) and image_obstruction(bad) >= 465
    assert len(cohomology._factor(G, 2).kernel) == 465
    assert solve_coboundary(exact) == witness and coboundary(witness) == exact
    # the d^3 row and the d^2 rows it reaches were built alone, and no rows
    # of d^2 are memoized
    assert [k for k in G._cache if isinstance(k, tuple) and k[0] == "rows"] == []


# --- H^2 at its true size ------------------------------------------------------
# Each class generator is checked once (a sum of integer cocycles mod M is a
# cocycle), and a view's signature is the dual cycles of its Smith form.

def assert_dual_cycles(view):
    """The Smith form of view has one cycle z_k per invariant factor d_k:
    z_k A = 0 on the oracle's rows A of d^1, and <z_k, r_j> = M / d_k if
    j = k and 0 otherwise, mod M, on the class generators r_j."""
    basis, M = cohomology._h2_basis(view), view.order
    _, _, d1 = coboundary_incidence(view, 1)
    assert len(basis.cycles) == len(basis.torsion) == len(basis.generators)
    for k, (z, d) in enumerate(zip(basis.cycles, basis.torsion)):
        acc = {}
        for j, c in z:
            for col, v in d1[j]:
                acc[col] = acc.get(col, 0) + c * v
        assert z and not any(acc.values())
        for i, gen in enumerate(basis.generators):
            g = dict(gen)
            assert sum(c * g.get(j, 0) for j, c in z) % M == (M // d if i == k else 0)


@pytest.mark.parametrize("G", [kp_group(), direct_product(dihedral_group(8), cyclic_group(2)),
                               direct_product(cyclic_group(4), cyclic_group(4)), z2_to_the_4(),
                               dihedral_group(16)],
                         ids=["kp", "D8xZ2", "Z4xZ4", "Z2^4", "dihedral16"])
def test_smith_cycles_are_a_dual_basis_of_h2(G):
    for H in subgroups(G):
        assert_dual_cycles(H.as_group())


def test_h2_representatives_check_each_generator_once(monkeypatch):
    G = z2_to_the_4()
    basis = cohomology._h2_basis(G)
    real, calls = cochains._coboundary_numerators, []

    def counted(group, n, x, firsts=None):
        out = real(group, n, x, firsts)
        calls.append((n, firsts, len(out)))
        return out

    monkeypatch.setattr(cochains, "_coboundary_numerators", counted)  # as _cocycle_on reads it
    assert len(h2_representatives(G)) == h2_order(G) == 64
    # each generator is checked on the generator rows alone: |S| (|G| - 1)^2
    # of the (|G| - 1)^3 rows, 900 of 3,375
    S = generators(G)
    assert calls == [(2, S, 900)] * len(basis.generators) == [(2, S, len(S) * 15 ** 2)] * 6
    # the first generator plus M/d at one pair is no cocycle, and is caught
    # though no candidate is checked on its own
    M, d = G.order, basis.torsion[0]
    bad = dict(basis.generators[0])
    bad[0] = (bad.get(0, 0) + M // d) % M
    check_with_basis(monkeypatch, G, cohomology.H2Basis(basis.torsion, [
        tuple((j, v) for j, v in sorted(bad.items()) if v), *basis.generators[1:]],
        basis.cycles))
    with pytest.raises(InternalInvariantBroken, match="candidate representative is not a cocycle"):
        h2_representatives(G)


@pytest.mark.parametrize("G", [kp_group(), direct_product(dihedral_group(8), cyclic_group(2)),
                               direct_product(cyclic_group(4), cyclic_group(4)), z2_to_the_4()],
                         ids=["kp", "D8xZ2", "Z4xZ4", "Z2^4"])
def test_signatures_keep_only_cycles_that_split_h2(G):
    for H in subgroups(G):
        view = H.as_group()
        kept = cohomology._h2_classes(view).cycles
        assert 2 ** len(kept) <= h2_order(view) and bool(kept) == (h2_order(view) > 1)
        basis = cohomology._h2_basis(view)
        assert kept == tuple(basis.cycles)  # cycles, dual to the generators
        assert_dual_cycles(view)
        for i in range(len(kept)):
            # one cycle too few, or one cycle that pairs with nothing, no
            # longer tells H^2 apart
            for cycles in (kept[:i] + kept[i + 1:], kept[:i] + ((),) + kept[i + 1:]):
                # checked afresh, past the memo, which the failure leaves as it was
                with pytest.raises(InternalInvariantBroken, match="cohomology classes"):
                    cohomology._check_h2(view, cohomology.H2Basis(
                        basis.torsion, basis.generators, list(cycles)))
        assert cohomology._h2_classes(view).cycles is kept  # memoized, write-once


def test_h2_order_builds_no_class_vector(monkeypatch):
    def forbidden(group):
        raise AssertionError("h2_order built the class vectors")

    monkeypatch.setattr(cohomology, "_class_vectors", forbidden)
    G = z2_to_the_4()
    assert h2_order(G) == h2_order_homology(G) == 64
    # the "h2" entry keeps generators and cycles, and no list of classes
    h2 = G._cache["h2"]
    assert type(h2).__slots__ == ("gens", "cycles") and not hasattr(h2, "__dict__")
    assert [d for _, d in h2.gens] == [2] * 6 and len(h2.cycles) == 6
    monkeypatch.undo()
    assert len(cohomology._class_vectors(G)) == 64


@pytest.mark.parametrize("G", [dihedral_group(8), z2_to_the_4()], ids=["dihedral8", "Z2^4"])
def test_tampered_cycle_is_caught_by_check_h2(G):
    basis = cohomology._h2_basis(G)
    assert basis.cycles
    for k, z in enumerate(basis.cycles):
        (j, c), *rest = z
        # plus a unit 2-chain, never a cycle; plus M times one, which pairs
        # with every generator as z does, mod M
        for bad in (((j, c + 1), *rest), ((j, c + G.order), *rest)):
            cycles = list(basis.cycles)
            cycles[k] = bad
            with pytest.raises(InternalInvariantBroken, match="kernel functional") as exc:
                cohomology._check_h2(G, cohomology.H2Basis(basis.torsion, basis.generators,
                                                           cycles))
            assert exc.traceback[-1].name == "_check_h2"


# --- H^2 on a Schreier tree -----------------------------------------------------
# The columns (g, b) of d^2 with g outside S u {e} are substituted away along a
# breadth-first spanning tree of the Cayley graph; only the relations among the
# edge columns (s, b), s in S, are factored.

def d8xz2():
    return direct_product(dihedral_group(8), cyclic_group(2))


@pytest.mark.parametrize("G", [kp_group(), d8xz2(), dihedral_group(12), z2_to_the_4(),
                               cyclic_group(9)],
                         ids=["kp", "D8xZ2", "dihedral12", "Z2^4", "cyclic9"])
def test_schreier_tree_rows_pivot_on_their_columns(G):
    e, S, tree = G.identity, generators(G), cohomology._schreier_tree(G)
    assert set(tree) == set(G.elements()) - set(S) - {e}
    earlier = {e, *S}
    for g, (s, a) in tree.items():
        assert s in S and G.table[s][a] == g and a in earlier
        earlier.add(g)
        for b in G.elements():
            if b != e:
                [row] = cohomology._coboundary_rows(G, 2, [(s, a, b)]).values()
                assert dict(row)[_tuple_index(G, (g, b))] == -1


@pytest.mark.parametrize("name", ["kp", "D8xZ2", "dihedral16"])
def test_classify_builds_one_schreier_tree_per_table(monkeypatch, name):
    # the relations, the echelon form of d^2 (which the admissibility solves
    # read) and the H^2 basis of a table all read its tree, and subgroup views
    # with equal tables share it; a subgroup that contains a refused one is
    # never solved, so its table is read only if another subgroup's is equal
    solved = unrefused_subgroups(ORACLE_CASES[name])
    built, real = Counter(), cohomology._table_memo

    def counted(group, key, make):
        if key != "schreier_tree":
            return real(group, key, make)

        def build():
            built[group.table] += 1
            return make()
        return real(group, key, build)

    monkeypatch.setattr(cohomology, "_table_memo", counted)
    cat = ORACLE_CASES[name]()
    classify(cat)
    read = {S.as_group().table for S in subgroups(cat.group) if S.members in solved}
    assert built == Counter(read)
    if name == "kp":  # its order-4 subgroups refuse the whole group
        assert subgroups(cat.group)[-1].as_group().table not in built


def test_h2_builds_no_rows_of_d2():
    G = d8xz2()
    assert h2_order(G) == 8
    assert ("rows", 2) not in G._cache


H2_GROUPS = {"D8xZ2": d8xz2(), "Z4xZ4": direct_product(cyclic_group(4), cyclic_group(4)),
             "dihedral16": dihedral_group(16), "cyclic16": cyclic_group(16),
             "Z2^4": z2_to_the_4(), "kp": kp_group(), "dihedral12": dihedral_group(12),
             "Z3xZ6": direct_product(cyclic_group(3), cyclic_group(6)),
             "Z6xZ6": direct_product(cyclic_group(6), cyclic_group(6))}


@pytest.mark.parametrize("G", H2_GROUPS.values(), ids=H2_GROUPS.keys())
def test_h2_torsion_matches_the_generator_row_elimination(monkeypatch, G):
    relations, real = [], cohomology._eliminate

    def recorded(rows, ncols, track=True):
        relations.append(len(rows))
        return real(rows, ncols, track)

    monkeypatch.setattr(cohomology, "_eliminate", recorded)
    rng = random.Random(G.order)
    tables = {v.table: v for v in (H.as_group() for H in subgroups(G))}
    groups = list(tables.values()) + [relabel(G, rng) for _ in range(3)]
    for view in groups:
        relations.clear()
        torsion = cohomology._h2_basis(view).torsion
        # the trivial group and cyclic groups have no relations at all
        assert (relations == [0]) == (len(generators(view)) < 2)
        assert torsion == h2_torsion_by_generator_rows(view)
    assert any(len(generators(v)) == 1 for v in groups)
    assert any(v.order == 1 for v in groups)


# sha256 of repr((torsion, generators, cycles)) of _h2_basis, one line per
# view: every distinct subgroup table, then three relabelled copies made as
# test_h2_torsion_matches_the_generator_row_elimination makes them
H2_BASIS_SHA256 = {
    "D8xZ2": "597cfd229270873fa4b2625e114a5461346f6c5f147fa1ac23c74527db2c4978",
    "Z4xZ4": "1794c1408f9c2a56dd33bd2e44ec05f5ff9d60f91e02719d008808ac83cdd3d7",
    "dihedral16": "4638cfab0322c1b18b1cd0a73b88defe7a9a9c189d100f3c5b4908ace5c7bcff",
    "cyclic16": "490c5f9a0c98ab1f3adf487a0f4bf9a231beb56ebac584af5cbcf183c25ed891",
    "Z2^4": "26cc3ff07faa97e7db65352fc312b4f7271eac6314ed5d62ab11e01f1a2a90c2",
    "kp": "1698576b8b37e4187378c17719fcf9d68b08b109788cca9a4d46c5b5d0c1c365",
    "dihedral12": "ae834d98b4909a844e4550de0f4bcb05c9235439d148a71b860603d115e673d2",
    "D8xZ2xZ2": "567dac2e765570acf03d7bd8e874476531975e1b7111dc88858e9d7082b3ebe1",
    "Z3xZ6": "5c9eadc13294122bb99d0e868b3dcaef5b9f3cd47d044565d013924b642bcaae",
    "Z6xZ6": "52e0985b774f5d49c7f5b1a64e9d482116842074dd7d02c1dcce246d0a1e3479",
}


@pytest.mark.pinned
@pytest.mark.parametrize("name", H2_BASIS_SHA256)
def test_h2_basis_bytes_are_pinned(name):
    G = H2_GROUPS.get(name) or direct_product(d8xz2(), cyclic_group(2))
    rng = random.Random(G.order)
    tables = {v.table: v for v in (H.as_group() for H in subgroups(G))}
    digest = hashlib.sha256()
    for view in list(tables.values()) + [relabel(G, rng) for _ in range(3)]:
        basis = cohomology._h2_basis(view)
        digest.update((repr((basis.torsion, basis.generators, basis.cycles)) + "\n").encode())
    assert digest.hexdigest() == H2_BASIS_SHA256[name]


@pytest.mark.parametrize("n", [2, 3])
def test_solve_over_one_is_zero_and_factors_nothing(n):
    # every numerator over D = 1 is 0 in Q/Z, so the target is the zero class
    # and the witness is the zero cochain; no echelon form is built for it
    rng = random.Random(n)
    G = d8xz2()
    view = next(H for H in subgroups(G) if H.order == 8).as_group()
    for group in (G, view):
        b = [rng.randrange(-6, 7) for _ in range((group.order - 1) ** n)]
        assert any(b)
        assert cohomology._solve(group, n, b, 1) == (zero_cochain(group, n - 1), None)
        assert ("echelon", n - 1) not in group._cache
        assert _table_peek(group, ("echelon", n - 1)) is None


def test_relation_matrix_of_the_wrong_rank_raises(monkeypatch):
    real = cohomology.smith_normal_form

    def lossy(*args, **kwargs):
        snf = real(*args, **kwargs)
        k = max(i for i, d in enumerate(snf.diag) if d)
        snf.diag[k] = 0
        return snf

    G = d8xz2()
    monkeypatch.setattr(cohomology, "smith_normal_form", lossy)
    with pytest.raises(InternalInvariantBroken, match="rank"):
        cohomology._h2_basis(G)
    monkeypatch.setattr(cohomology, "smith_normal_form", real)
    assert cohomology._h2_basis(G).torsion == [2, 2, 2]


# --- the echelon form of A_S from the Schreier tree -----------------------------
# Tree rows are unit pivots of their own, and the T rows of the relation matrix
# are lifted back along the tree to rows of d^2.

ECHELON_GROUPS = {"kp": kp_group(), "dihedral12": dihedral_group(12), "D8xZ2": d8xz2(),
                  "Z4xZ4": direct_product(cyclic_group(4), cyclic_group(4)),
                  "cyclic9": cyclic_group(9), "Z2^4": z2_to_the_4()}


@pytest.mark.parametrize("G", ECHELON_GROUPS.values(), ids=ECHELON_GROUPS.keys())
def test_d2_echelon_against_the_full_matrix(G):
    """On every distinct subgroup table, against the oracle's full d^2: each
    pivot row is u A, its column cleared in every later pivot row; each
    kernel row z has z A = 0; and there are |S| (M - 1)^2 - rank of them,
    rank d^2 = (M - 1)(M - 2) over Q as H^1(G, Q) = H^2(G, Q) = 0."""
    tables = {v.table: v for v in (H.as_group() for H in subgroups(G))}
    for view in tables.values():
        M, S = view.order, generators(view)
        tuples, cols, sparse = coboundary_incidence(view, 2)
        ech = cohomology._factor(view, 2)

        def times_A(z):
            acc = [0] * len(cols)
            for k, c in z:
                assert tuples[k][0] in S  # a combination of rows of A_S
                for j, v in sparse[k]:
                    acc[j] += c * v
            return acc

        done = set()
        for c, p, rest, u in ech.pivots:
            row = [0] * len(cols)
            row[c] = p
            for j, v in rest:
                row[j] = v
            assert times_A(u) == row
            assert p and c not in done and not done & {j for j, _ in rest}
            done.add(c)
        for z in ech.kernel:
            assert z and not any(times_A(z))
        rank = (M - 1) * (M - 2)
        assert len(ech.pivots) == rank
        assert len(ech.kernel) == len(S) * (M - 1) ** 2 - rank
    assert len(tables) > 2
