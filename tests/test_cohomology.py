import random
from math import lcm

import pytest

import modcat.cohomology as cohomology
from modcat import (Cochain, InternalInvariantBroken, QZ, coboundary, combine,
                    cyclic_group, dihedral_group, direct_product, from_table,
                    generators, h2_order, h2_representatives, is_cocycle,
                    is_cohomologous,
                    kp_category, kp_group, nonidentity_tuples, restrict,
                    smith_normal_form, solve_coboundary, subgroups, zero_cochain)
from modcat.cohomology import (coboundary_matrix, image_obstruction,
                               integer_coboundary, numerators)
from oracles import (bareiss_det, brute_coboundary_witness,
                     enumerate_2cocycles_int, h2_order_homology, random_cochain)
from test_solver import obstruction_holds


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


# --- coboundary matrix ------------------------------------------------------

@pytest.mark.parametrize("G,degree", [
    (cyclic_group(4), 1), (cyclic_group(4), 2),
    (dihedral_group(6), 1), (dihedral_group(6), 2),
    (kp_group(), 1), (kp_group(), 2),
])
def test_matrix_reproduces_coboundary(G, degree):
    rng = random.Random(degree + G.order)
    mat = coboundary_matrix(G, degree)
    f = random_cochain(G, degree, rng)
    df = coboundary(f)
    D = lcm(*(v.den for v in f.values.values()))
    applied = [QZ(v, D) for v in integer_coboundary(mat, numerators(f, D))]
    for row_tuple, got in zip(mat.rows, applied):
        assert got == df.value(row_tuple)


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
    rng = random.Random(17 * degree + G.order)
    mat = coboundary_matrix(G, degree)
    for _ in range(3):
        f = mixed_denominator_cochain(G, degree, rng)
        D = lcm(*(v.den for v in f.values.values()))
        x = numerators(f, D)
        assert x == [f.value(t).scaled_num(D) for t in mat.cols]
        got = Cochain(G, degree + 1, {t: QZ(v, D) for t, v in
                                      zip(mat.rows, integer_coboundary(mat, x))})
        assert got == coboundary(f)
        assert is_cocycle(f) == (not any(v % D for v in integer_coboundary(mat, x)))


def test_tampered_smith_generator_makes_h2_representatives_raise():
    view = kp_klein_view()[1]
    assert len(h2_representatives(view)) == 2
    basis = cohomology._factor(view, 2, "smith")
    [gen], [d] = basis.generators, basis.torsion
    M, mat = view.order, coboundary_matrix(view, 2)
    messages = set()
    for p in range(len(mat.cols)):
        # the generator plus (M/d) at one pair: still a multiple of M/d below M,
        # like a true generator, but never a cocycle
        bad = dict(gen)
        bad[p] = (bad.get(p, 0) + M // d) % M
        x = [bad.get(j, 0) for j in range(len(mat.cols))]
        assert any(v % M for v in integer_coboundary(mat, x))
        view._cache[("smith", 2)] = cohomology.H2Basis(
            [d], [tuple((j, bad[j]) for j in sorted(bad) if bad[j])])
        with pytest.raises(InternalInvariantBroken) as exc:
            h2_representatives(view)
        messages.add(str(exc.value))
    # some of these keep two distinct signatures and reach the cocycle check
    assert "candidate representative is not a cocycle" in messages


# --- Smith normal form ------------------------------------------------------

def random_int_matrix(rng, nrows, ncols):
    return [[rng.randrange(-5, 6) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("seed", range(12))
def test_snf_reconstruction_and_unimodularity(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
    A = random_int_matrix(rng, nrows, ncols)
    snf = smith_normal_form(A, nrows, ncols)
    U, V = snf.U, snf.V
    UA = [[sum(U[i][k] * A[k][j] for k in range(nrows)) for j in range(ncols)]
          for i in range(nrows)]
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(ncols)) for j in range(ncols)]
           for i in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            expect = snf.diag[i] if i == j and i < len(snf.diag) else 0
            assert UAV[i][j] == expect
    assert abs(bareiss_det(U)) == 1
    assert abs(bareiss_det(V)) == 1
    nonzero = [d for d in snf.diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert nonzero == snf.diag[:len(nonzero)]  # zeros trail


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
    mat = coboundary_matrix(G, 2)
    assert (nrows * ncols > 0) == residual
    assert nrows < len(mat.rows) // 10 and ncols < len(mat.cols) // 10
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
        perm = list(G.elements())
        rng.shuffle(perm)
        inv = [0] * G.order
        for i, p in enumerate(perm):
            inv[p] = i
        table = [[inv[G.table[perm[i]][perm[j]]] for j in range(G.order)]
                 for i in range(G.order)]
        H = from_table(G.order, table)
        assert len(h2_representatives(H)) == len(h2_representatives(G))


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


@pytest.mark.parametrize("G", [kp_group(), cyclic_group(12), dihedral_group(12)],
                         ids=["kp", "Z12", "D12"])
def test_non_cocycle_degree_3_targets_are_certified_non_coboundaries(G):
    rng = random.Random(G.order + 3)
    S = set(generators(G))
    eliminated = len(cohomology._factor(G, 2, "echelon").kernel)
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
