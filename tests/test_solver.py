"""The sparse echelon solver and its certified answers."""

import random

import pytest

import modcat.cohomology as cohomology
from modcat import (Cochain, InternalInvariantBroken, ModcatError,
                    PointedCategory, QZ, big_omega, classify, coboundary, combine,
                    conjugate_subgroup, cyclic_3cocycle, cyclic_group,
                    dihedral_group, direct_product, echelon_form, from_table,
                    h2_order, h2_representatives, image_obstruction, is_cocycle,
                    kp_category, kp_group, restrict, smith_normal_form,
                    solve_coboundary, subgroups, zero_cochain)
from modcat.cohomology import coboundary_matrix
from oracles import bareiss_det, brute_coboundary_witness, random_cochain


def left_product(z, A, ncols):
    """z A for a sparse z and a dense A."""
    out = [0] * ncols
    for k, c in z:
        for j in range(ncols):
            out[j] += c * A[k][j]
    return out


def obstruction_holds(target, index):
    """The kernel functional behind a "no": z A = 0 and z . target != 0."""
    mat = coboundary_matrix(target.group, target.degree - 1)
    z = cohomology._factor(target.group, target.degree - 1, "echelon").kernel[index]
    assert not any(left_product(z, mat.entries, len(mat.cols)))
    acc = QZ(0)
    for k, c in z:
        acc = acc + c * target.value(mat.rows[k])
    return bool(acc)


# --- solver verdicts against independent facts -------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_3cocycle_is_coboundary_exactly_when_q_divisible(n):
    # H^3(Z_n, Q/Z) is cyclic of order n, generated by the standard cocycle
    G = cyclic_group(n)
    for q in range(n):
        omega = cyclic_3cocycle(G, q)
        w = solve_coboundary(omega)
        assert (w is None) == (q % n != 0)
        if w is None:
            assert obstruction_holds(omega, image_obstruction(omega))
        else:
            assert coboundary(w) == omega


def random_sparse_matrix(rng, units):
    nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
    values = [0, 0, 0, 1, -1, 2, -3, 4, 5] if units else [0, 0, 0, 2, -2, 3, 4, -6, 9]
    return [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)], nrows, ncols


@pytest.mark.parametrize("seed", range(40))
def test_echelon_form_of_random_matrices(seed):
    rng = random.Random(seed)
    A, nrows, ncols = random_sparse_matrix(rng, units=seed % 2 == 0)
    rows = [tuple((j, v) for j, v in enumerate(row) if v) for row in A]
    ech = echelon_form(rows, ncols)
    # every kernel functional annihilates A, and there are nrows - rank of them
    rank = sum(1 for d in smith_normal_form(A, nrows, ncols, need_U=False,
                                            need_V=False).diag if d)
    assert len(ech.kernel) == nrows - rank == nrows - len(ech.pivots)
    for z in ech.kernel:
        assert z and not any(left_product(z, A, ncols))
    # each pivot row is u A, and its pivot column is cleared in every later one
    done = set()
    for c, p, rest, u in ech.pivots:
        row = [0] * ncols
        row[c] = p
        for j, v in rest:
            row[j] = v
        assert left_product(u, A, ncols) == row
        assert p != 0 and c not in done and not done & {j for j, _ in rest}
        done.add(c)
    # the pivot and kernel rows together form a unimodular T
    T = []
    for z in [u for _, _, _, u in ech.pivots] + ech.kernel:
        dense = [0] * nrows
        for k, v in z:
            dense[k] = v
        T.append(dense)
    assert abs(bareiss_det(T)) == 1


@pytest.mark.parametrize("G", [dihedral_group(6), kp_group(), cyclic_group(12)],
                         ids=["D6", "kp", "Z12"])
def test_random_coboundaries_are_always_solved(G):
    rng = random.Random(G.order)
    for degree in (1, 2):
        for _ in range(3):
            target = coboundary(random_cochain(G, degree, rng))
            w = solve_coboundary(target)
            assert w is not None and coboundary(w) == target
            assert image_obstruction(target) is None


def test_solver_agrees_with_brute_force_on_the_klein_view():
    kp = kp_category()
    G, L = kp.category.group, kp.L
    view = L.as_group()
    rng = random.Random(29)
    twists = [restrict(big_omega(kp.category, g), L) for g in G.elements()
              if conjugate_subgroup(G, L, g) == L]
    cases = twists + [kp.xi_nontrivial, zero_cochain(view, 2)]
    cases += [combine(c, coboundary(random_cochain(view, 1, rng, den=4)), (1, 1))
              for c in list(cases)]
    assert any(solve_coboundary(c) is None for c in cases)
    assert any(solve_coboundary(c) is not None for c in cases)
    for c in cases:
        fast = solve_coboundary(c)
        slow = brute_coboundary_witness(c, 16)
        assert (fast is None) == (slow is None)
        if fast is None:
            assert obstruction_holds(c, image_obstruction(c))


# --- the pivot choice --------------------------------------------------------

def sorting_choose_pivot(work, colrows, urow=None):
    """The pivot choice as first written, re-sorting every nonempty column by
    count on each call: the reference for the heap-ordered choice."""
    cands = sorted((len(rs), c) for c, rs in enumerate(colrows) if rs)
    best, seen = None, 0
    for count, c in cands:
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
            if seen == 3 or best[0][0] == 0:
                break
    if best is not None:
        return best[1], best[2], True
    c = cands[0][1]
    r = min(colrows[c], key=lambda r: (abs(work[r][c]), len(work[r]),
                                       0 if urow is None else len(urow[r]), r))
    return r, c, False


def test_pivot_choice_matches_the_sorting_reference(monkeypatch):
    real, choices = cohomology._choose_pivot, []

    def checked(work, cols, urow=None):
        want = sorting_choose_pivot(work, cols.rows, urow)
        got = real(work, cols, urow)
        assert got == want
        choices.append(got)
        return got

    monkeypatch.setattr(cohomology, "_choose_pivot", checked)
    rng = random.Random(71)
    for k in range(60):
        A, _, ncols = random_sparse_matrix(rng, units=k % 3 != 0)
        echelon_form([tuple((j, v) for j, v in enumerate(row) if v) for row in A], ncols)
    G = direct_product(dihedral_group(8), cyclic_group(2))
    for H in subgroups(G):
        mat = coboundary_matrix(H.as_group(), 2)
        echelon_form(mat.sparse, len(mat.cols))
        cohomology._h2_basis(mat)
    # both kinds of pivot were chosen, many times
    assert sum(unit for _, _, unit in choices) > 1000
    assert sum(not unit for _, _, unit in choices) > 50


# --- one factorization per (view, degree) ------------------------------------

def test_classify_factors_each_view_and_degree_at_most_once(monkeypatch):
    computed, calls = [], []
    real_factor = cohomology._factor
    real_snf, real_ech = cohomology.smith_normal_form, cohomology.echelon_form

    def factor(group, degree, kind):
        if (kind, degree) not in group._cache:
            computed.append((id(group), degree))
        return real_factor(group, degree, kind)

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cohomology, "_factor", factor)
    monkeypatch.setattr(cohomology, "smith_normal_form", counted(real_snf))
    monkeypatch.setattr(cohomology, "echelon_form", counted(real_ech))
    G = direct_product(dihedral_group(8), cyclic_group(2))
    classify(PointedCategory(G, zero_cochain(G, 3)))
    # every factorization computed went through a cache miss, and no
    # (view, degree) missed twice, whatever the kind of factorization
    assert len(calls) == len(computed) > 0
    assert len(computed) == len(set(computed))
    assert real_ech in calls and real_snf in calls


# --- certified answers from a tampered factorization --------------------------

def tampered(target, change):
    """target on a new D6 object whose degree-1 echelon form is the true one
    after change(pivots, kernel), which edits those two lists in place."""
    G = dihedral_group(6)
    ech = cohomology._factor(G, 1, "echelon")
    pivots, kernel = list(ech.pivots), list(ech.kernel)
    change(pivots, kernel)
    G._cache[("echelon", 1)] = cohomology.Echelon(ech.nrows, ech.ncols, pivots, kernel)
    return Cochain(G, target.degree, target.values)


def d6_coboundary():
    return coboundary(random_cochain(dihedral_group(6), 1, random.Random(31)))


def test_altered_kernel_row_raises_instead_of_answering_no():
    target = d6_coboundary()
    mat = coboundary_matrix(target.group, 1)
    k = next(i for i, t in enumerate(mat.rows) if target.value(t))
    # the unit functional at a row where the target is nonzero is not in the kernel
    bad = tampered(target, lambda pivots, kernel: kernel.__setitem__(0, ((k, 1),)))
    with pytest.raises(InternalInvariantBroken, match="obstruction"):
        solve_coboundary(bad)


def test_dropped_kernel_rows_never_give_a_wrong_answer():
    target = tampered(d6_coboundary(), lambda pivots, kernel: kernel.clear())
    w = solve_coboundary(target)  # a real coboundary still solves
    assert w is not None and coboundary(w) == target
    # a nonzero class now passes every remaining functional, and its
    # back-substituted witness fails verification
    bad = Cochain(target.group, 2, {(1, 1): QZ(1, 3)})
    with pytest.raises(InternalInvariantBroken, match="witness"):
        solve_coboundary(bad)


def test_any_tampered_pivot_row_raises_or_solves():
    target = d6_coboundary()
    npivots = len(cohomology._factor(target.group, 1, "echelon").pivots)
    tampers = [lambda c, p, rest, u: (c, 2 * p, rest, u),  # scale the pivot
               lambda c, p, rest, u: (c, p, rest, ((0, 1),))]  # replace its T row
    raised = 0
    for i in range(npivots):
        for tamper in tampers:
            try:
                w = solve_coboundary(tampered(target, lambda pivots, kernel: pivots.__setitem__(
                    i, tamper(*pivots[i]))))
            except ModcatError:
                raised += 1
                continue
            assert w is not None and coboundary(w) == target
    assert raised


def test_renamed_elements_keep_the_h2_representatives():
    G = dihedral_group(6)
    renamed = from_table(6, G.table, [f"x{i}" for i in range(6)])
    assert renamed.names != G.names
    assert [c.items() for c in h2_representatives(renamed)] == [
        c.items() for c in h2_representatives(G)]


# --- entries in the full-row layout of earlier versions ------------------------

def full_rows(monkeypatch):
    """Factor all rows of every matrix, as earlier versions did: with every
    non-identity element taken as a generator, the generator rows are all the
    rows, in their order, and the factorizations are the full-row ones."""
    monkeypatch.setattr(cohomology, "generators", lambda G: tuple(
        x for x in G.elements() if x != G.identity))


def degree_3_targets(G):
    """Cocycles that are and are not coboundaries, and non-cocycles."""
    rng = random.Random(41)
    base = coboundary(random_cochain(G, 2, rng, den=4))
    return [kp_category().category.omega if G == kp_group() else zero_cochain(G, 3),
            base, random_cochain(G, 3, rng, den=4),
            combine(base, Cochain(G, 3, {(G.order - 1,) * 3: QZ(1, 4)}), (1, 1))]


def verdicts(targets):
    """For each target, whether it is not a coboundary, solved on a fresh
    group object; every witness and obstruction is checked."""
    out = []
    for t in targets:
        t = Cochain(from_table(t.group.order, t.group.table), 3, t.values)
        w = solve_coboundary(t)
        if w is None:
            assert obstruction_holds(t, image_obstruction(t))
        else:
            assert coboundary(w) == t
        out.append(w is None)
    return out


def test_generator_rows_answer_as_the_full_rows(monkeypatch):
    for G in (kp_group(), cyclic_group(12), dihedral_group(12)):
        targets = degree_3_targets(G)
        with monkeypatch.context() as m:
            full_rows(m)
            want = verdicts(targets)
        assert verdicts(targets) == want
        assert want[1] is False and want[2] is want[3] is True


# --- the "smith" factorization: invariant factors and sparse class generators --

def test_smith_entry_holds_only_invariant_factors_and_generators():
    G = direct_product(cyclic_group(2), cyclic_group(4))
    reps = h2_representatives(G)
    basis = cohomology._factor(G, 2, "smith")
    mat = coboundary_matrix(G, 2)
    assert cohomology.H2Basis.__slots__ == ("torsion", "generators")
    assert basis.torsion == [2] and len(reps) == 2
    # one generator, a 2-cocycle with values in (1/2)Z/Z: A g = 0 mod 8
    [gen] = basis.generators
    g = dict(gen)
    assert g and set(g.values()) == {4}
    assert all(sum(c * g.get(j, 0) for j, c in row) % 8 == 0 for row in mat.sparse)


def flat_form(basis):
    """An H2Basis as {"torsion", "generators"}, each generator a flat
    [index, value, index, value, ...] list, for the tampers below."""
    return {"torsion": list(basis.torsion),
            "generators": [[v for pair in g for v in pair] for g in basis.generators]}


def from_flat(d):
    return cohomology.H2Basis(d["torsion"], [tuple(zip(f[::2], f[1::2]))
                                             for f in d["generators"]])


def bump(i, k):
    """Change the k-th number of generator i to another value in 1..7."""
    return lambda d: d["generators"][i].__setitem__(k, d["generators"][i][k] % 7 + 1)


def add_coboundary(d):
    """Add to generator 0 of D8 the coboundary of the 1-cochain that is 1/2 at
    the first non-identity element: same class, other values."""
    g = dict(zip(d["generators"][0][::2], d["generators"][0][1::2]))
    for p, row in enumerate(coboundary_matrix(dihedral_group(8), 1).sparse):
        g[p] = (g.get(p, 0) + 4 * dict(row).get(0, 0)) % 8
    d["generators"][0] = [x for p in sorted(g) if g[p] for x in (p, g[p])]


SMITH_TAMPERS = {
    "plus-coboundary": add_coboundary,
    "torsion-4": lambda d: d.__setitem__("torsion", [4]),
    "torsion-2-2": lambda d: d.__setitem__("torsion", [2, 2]),
    "torsion-3": lambda d: d.__setitem__("torsion", [3]),
    "no-generators": lambda d: d.__setitem__("generators", []),
    "drop-generator": lambda d: d["generators"].pop(),
    "unreduced": lambda d: d["generators"].__setitem__(0, [0, 8]),
    "unsorted": lambda d: d["generators"].__setitem__(0, [1, 1, 0, 1]),
    "extra-generator": lambda d: d["generators"].append(d["generators"][0]),
    "doubled-generator": lambda d: d["generators"].__setitem__(
        0, [v if i % 2 == 0 else 2 * v % 8 for i, v in enumerate(d["generators"][0])]),
    **{f"index-{k}": bump(0, k) for k in (0, 2, 4)},
    **{f"coefficient-{k}": bump(0, k) for k in (1, 3, 5)},
}


@pytest.mark.parametrize("tamper", SMITH_TAMPERS.values(), ids=SMITH_TAMPERS.keys())
def test_tampered_smith_entry_never_gives_a_wrong_class_count(tamper):
    G = dihedral_group(8)
    assert len(h2_representatives(G)) == 2
    d = flat_form(cohomology._factor(G, 2, "smith"))
    tamper(d)
    G._cache[("smith", 2)] = from_flat(d)
    try:
        again = h2_representatives(G)
    except InternalInvariantBroken:
        return
    assert len(again) == 2 and all(is_cocycle(c) for c in again)
    assert h2_order(G) == 2
