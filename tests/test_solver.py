"""The sparse echelon solver and its certified answers."""

import hashlib
import random
import re
from itertools import islice, product

import pytest

import modcat.cohomology as cohomology
from modcat import (Cochain, InternalInvariantBroken, ModcatError,
                    PointedCategory, QZ, big_omega, classify, coboundary, combine,
                    conjugate_subgroup, cyclic_3cocycle, cyclic_group,
                    dihedral_group, direct_product, echelon_form, from_table, generators,
                    h2_order, h2_representatives, image_obstruction, is_cocycle,
                    kp_category, kp_group, nonidentity_tuples, restrict,
                    smith_normal_form, solve_coboundary, subgroups, zero_cochain)
from oracles import (bareiss_det, brute_coboundary_witness, coboundary_incidence,
                     random_cochain)


def left_product(z, A, ncols):
    """z A for a sparse z and a dense A."""
    out = [0] * ncols
    for k, c in z:
        for j in range(ncols):
            out[j] += c * A[k][j]
    return out


def obstruction_holds(target, index):
    """The functional behind a "no": z A = 0 and z . target != 0.  Below the
    kernel's length z is a kernel row; past it, for a degree-3 target, z is
    the (index - len(kernel))-th row of d^3 with first argument in
    ``generators(G)``, rows in lexicographic order, taken from the full d^3.
    Both matrices come from the oracle, built from the group table."""
    G, n = target.group, target.degree
    rows, cols, sparse = coboundary_incidence(G, n - 1)
    kernel = cohomology._factor(G, n - 1).kernel
    if index < len(kernel):
        z = kernel[index]
    else:
        assert n == 3
        d3_rows, _, d3 = coboundary_incidence(G, 3)
        at = dict(zip(d3_rows, d3))
        elems = [x for x in G.elements() if x != G.identity]
        firsts = product(cohomology.generators(G), elems, elems, elems)
        z = at[next(islice(firsts, index - len(kernel), None))]
    zA = [0] * len(cols)
    for k, c in z:
        for j, v in sparse[k]:
            zA[j] += c * v
    assert not any(zA)
    acc = QZ(0)
    for k, c in z:
        acc = acc + c * target.value(rows[k])
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
    rank = sum(1 for d in smith_normal_form(A, nrows, ncols).diag if d)
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


def divisor_rich_rows(rng):
    # entries sharing factors 2 and 3 beside a few units, so that columns
    # without a unit entry are common and are cleared by both kinds of step
    nrows, ncols = rng.randrange(1, 10), rng.randrange(1, 10)
    values = (0, 0, 0, 0, 1, 2, 3, 4, 6, 8, 9, 12)
    rows = [tuple((j, v) for j in range(ncols)
                  for v in [rng.choice(values) * rng.choice((1, -1))] if v)
            for _ in range(nrows)]
    return rows, ncols


def test_echelon_seeds_reach_the_divisible_and_the_bezout_step_without_a_unit(monkeypatch):
    # a column without a unit entry is cleared below its pivot a by an
    # elementary step where a divides the entry b and by a Bezout step where
    # it does not; divisible steps leave a as it is, so the first step on
    # the column is divisible when the first other entry is, and some step
    # is a Bezout step when any other entry is not divisible by a
    real, reached = cohomology._choose_pivot, set()

    def recorded(work, colrows, urow=None):
        r, c = real(work, colrows, urow)
        a, others = work[r][c], [work[r2][c] for r2 in sorted(colrows[c] - {r})]
        if abs(a) != 1:
            if others and others[0] % a == 0:
                reached.add("divisible")
            if any(b % a for b in others):
                reached.add("bezout")
        return r, c

    monkeypatch.setattr(cohomology, "_choose_pivot", recorded)
    rng = random.Random(31)
    for _ in range(300):
        echelon_form(*divisor_rich_rows(rng))
    assert reached == {"divisible", "bezout"}


def test_only_bezout_steps_reach_the_row_operation(monkeypatch):
    # _eliminate clears an entry that the pivot divides in place, so every
    # step handed to _rows is a Bezout step, y != 0; a bypassed in-place path
    # would send elementary steps there and still give the pinned bytes
    real, steps = cohomology._rows, []

    def recorded(d1, d2, m, *occupancy):
        steps.append(m)
        return real(d1, d2, m, *occupancy)

    monkeypatch.setattr(cohomology, "_rows", recorded)
    rng = random.Random(31)
    for _ in range(300):
        echelon_form(*divisor_rich_rows(rng))
    assert steps and all(y for (_, y), _ in steps)
    steps.clear()
    groups = echelon_pin_groups()
    del groups["D8xZ2xZ2"]  # the benchmark's seven groups
    for G in groups.values():
        for view in {v.table: v for v in views_of(G)}.values():
            cohomology._factor(view, 1), cohomology._factor(view, 2), cohomology._h2_basis(view)
    assert all(y for (_, y), _ in steps)


def echelon_pin_groups():
    d8xz2 = direct_product(dihedral_group(8), cyclic_group(2))
    return {"D8xZ2": d8xz2, "Z4xZ4": direct_product(cyclic_group(4), cyclic_group(4)),
            "dihedral16": dihedral_group(16), "cyclic16": cyclic_group(16),
            "kp": kp_group(), "cyclic12": cyclic_group(12), "dihedral12": dihedral_group(12),
            "D8xZ2xZ2": direct_product(d8xz2, cyclic_group(2))}


# sha256 of repr((pivots, kernel)) of the echelon forms, one line each: of
# _factor(view, 1) and _factor(view, 2) for every distinct subgroup table of
# the benchmark's seven groups and D8xZ2xZ2, and of echelon_form on 300
# divisor-rich matrices
ECHELON_SHA256 = {
    "divisor-rich": "e50ba6e178637d90478fe20cb63c111e2c4209f5a94641950a06d163728e268a",
    "D8xZ2": "ec482c598ef68f4123270f582c91567ed0d49ff9ec9dfaf380925661205b29c0",
    "Z4xZ4": "2c61e5d4a230d76f32e74e73759ac1b52b394d0113a93965fafa542b6710e7f1",
    "dihedral16": "4abee273cd3cd1749ad9ad1ee2459f584e46ae5a32275b73ae2b8e74e76e21cb",
    "cyclic16": "5a28432c2501f169e642ec79b6df7a319cded586110f0bda9fcf823f4d2ca479",
    "kp": "0cfce9a3c36c52d39eb15d14c95abc07bf119004aee3263ec295fbca6e6ce3bf",
    "cyclic12": "ad2b709e3264e760ca027781ee4412835bf4343a2699e1dee59e9ca50366284b",
    "dihedral12": "32e9e430855157fea94d7cfa82f1f89b23a6baadeb2f88c7851c57220b554df6",
    "D8xZ2xZ2": "a004efafd5178808d336d484d933292f7065d4d4b1b222f707aa302381d67027",
}


@pytest.mark.pinned
@pytest.mark.parametrize("name", ECHELON_SHA256)
def test_echelon_form_bytes_are_pinned(name):
    if name == "divisor-rich":
        rng = random.Random(31)
        forms = [echelon_form(*divisor_rich_rows(rng)) for _ in range(300)]
    else:
        tables = {v.table: v for v in views_of(echelon_pin_groups()[name])}
        forms = [cohomology._factor(v, n) for v in tables.values() for n in (1, 2)]
    digest = hashlib.sha256()
    for ech in forms:
        digest.update((repr((ech.pivots, ech.kernel)) + "\n").encode())
    assert digest.hexdigest() == ECHELON_SHA256[name]


# sha256 of repr((pivots, residual rows, live columns)) of _eliminate without
# T, one line per matrix, on the 300 divisor-rich matrices of the echelon pin
UNTRACKED_SHA256 = "101646024f261115df1a1913982cc7a9d95cb98b7e9bf7893512b0f9d64893c3"


@pytest.mark.pinned
def test_untracked_elimination_bytes_are_pinned():
    # the mode _h2_basis runs: unit pivots only, the rest left in ``work``,
    # whose rows colrows must index exactly
    rng = random.Random(31)
    digest = hashlib.sha256()
    for _ in range(300):
        rows, ncols = divisor_rich_rows(rng)
        pivots, work, colrows, kernel = cohomology._eliminate(dict(enumerate(rows)), ncols,
                                                              track=False)
        assert kernel == [] and all(u == () for *_, u in pivots)
        assert colrows == [{r for r, row in work.items() if c in row} for c in range(ncols)]
        residual = sorted((r, sorted(row.items())) for r, row in work.items())
        live = [c for c, rs in enumerate(colrows) if rs]
        digest.update((repr((pivots, residual, live)) + "\n").encode())
    assert digest.hexdigest() == UNTRACKED_SHA256


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


# --- one factorization per table ---------------------------------------------
# Subgroup views of one group with equal multiplication tables share every
# entry that the table determines, through a store on the parent group.

TABLE_KEYS = [("rows", 1), ("echelon", 1), ("echelon", 2), "h2", "generators"]
REAL_H2_BASIS = cohomology._h2_basis


def check_with_basis(monkeypatch, group, basis):
    """Make _h2_basis give ``basis`` for group's table, and drop the "h2"
    entry that group reads, so that its next H^2 question checks ``basis``."""
    monkeypatch.setattr(cohomology, "_h2_basis", lambda g: basis if g.table == group.table
                        else REAL_H2_BASIS(g))
    group._cache.pop("h2", None)
    if group.parent is not None:
        group.parent._cache.get("tables", {}).get(group.table, {}).pop("h2", None)


def trivial_d8xz2():
    G = direct_product(dihedral_group(8), cyclic_group(2))
    return PointedCategory(G, zero_cochain(G, 3))


def views_of(G):
    return [H.as_group() for H in subgroups(G)]


def test_classify_factors_each_table_kind_and_degree_once(monkeypatch):
    computed, calls = [], []
    real_factor, real_basis = cohomology._factor, cohomology._h2_basis
    real_snf, real_ech = cohomology.smith_normal_form, cohomology.echelon_form

    def factor(group, degree):
        before = len(calls)
        got = real_factor(group, degree)
        if len(calls) > before:
            computed.append((group.table, "echelon", degree, len(calls) - before))
        return got

    def basis(group):
        before = len(calls)
        got = real_basis(group)
        computed.append((group.table, "smith", 2, len(calls) - before))
        return got

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cohomology, "_factor", factor)
    monkeypatch.setattr(cohomology, "_h2_basis", basis)
    monkeypatch.setattr(cohomology, "smith_normal_form", counted(real_snf))
    monkeypatch.setattr(cohomology, "echelon_form", counted(real_ech))
    cat = trivial_d8xz2()
    classify(cat)
    views = views_of(cat.group)
    # a Smith form is not kept: its "h2" entry, the classes checked from it,
    # stands for it
    used = [(v.table, *(("smith", 2) if key == "h2" else key)) for v in views
            for key in v._cache if key == "h2" or key[0] == "echelon"]
    # each factorization computed was one echelon or Smith form, and no
    # (table, kind, degree) was computed twice: exactly one per distinct
    # triple among the views, far fewer than the views that read one.  The
    # H^2 cycles come with the Smith forms, so a degree-1 echelon form is
    # built only where a degree-2 solve has a nonzero target
    assert all(n == 1 for *_, n in computed) and len(calls) == len(computed)
    triples = [t[:3] for t in computed]
    assert len(triples) == len(set(triples)) == len(set(used)) == 10
    assert set(triples) == set(used) and len(used) == 39
    assert sorted(t[1:] for t in triples) == [("echelon", 1)] * 2 + [("smith", 2)] * 8
    assert len({v.table for v in views}) == 8 < len(views) == 35
    assert real_ech in calls and real_snf in calls


def test_trivial_classify_factors_d1_only_for_nonzero_solves(monkeypatch):
    """H^2's cycles come with its Smith entry: classifying the groups of the
    trivial-omega benchmark, each once, builds an echelon form only for the
    degree-2 solves with a nonzero target, and _check_h2 checks its cycles
    from the table without reading the memoized rows of d^1."""
    real_ech, real_rows, real_check = (cohomology.echelon_form, cohomology._factored_rows,
                                       cohomology._check_h2)
    echelons, inside, rows_read, built = [], [], [], []

    def echelon(rows, ncols):
        echelons.append(ncols)
        return real_ech(rows, ncols)

    def factored_rows(group):
        rows_read.append(bool(inside))
        return real_rows(group)

    def check(group, basis):
        inside.append(group)
        built.append(group)
        try:
            return real_check(group, basis)
        finally:
            inside.pop()

    monkeypatch.setattr(cohomology, "echelon_form", echelon)
    monkeypatch.setattr(cohomology, "_factored_rows", factored_rows)
    monkeypatch.setattr(cohomology, "_check_h2", check)
    for G in (direct_product(dihedral_group(8), cyclic_group(2)),
              direct_product(cyclic_group(4), cyclic_group(4)),
              dihedral_group(16), cyclic_group(16)):
        classify(PointedCategory(G, zero_cochain(G, 3)))
    assert len(echelons) == 2
    assert built and rows_read and not any(rows_read)


def test_views_with_equal_tables_share_their_entries():
    cat = trivial_d8xz2()
    classify(cat)
    views = views_of(cat.group)
    for v in views:  # fill every entry on every view
        cohomology._factored_rows(v)
        for degree in (1, 2):
            cohomology._factor(v, degree)
        generators(v)
        cohomology._h2_classes(v)
        subgroups(v)
    for a in views:
        for b in views:
            for key in TABLE_KEYS:
                assert (a._cache[key] is b._cache[key]) == (a.table == b.table), key
            # subgroups of a view have the view as parent: never shared
            assert (a._cache["subgroups"] is b._cache["subgroups"]) == (a is b)


@pytest.mark.parametrize("G", [direct_product(dihedral_group(8), cyclic_group(2)),
                               dihedral_group(16)], ids=["D8xZ2", "dihedral16"])
def test_shared_h2_representatives_match_a_standalone_group(G):
    for v in views_of(G):
        alone = from_table(v.order, v.table)
        assert [c.values for c in h2_representatives(v)] == \
            [c.values for c in h2_representatives(alone)]
        assert cohomology._h2_classes(v).cycles == cohomology._h2_classes(alone).cycles


def klein_store(G):
    """A Klein four view of G whose table other views share, and the empty
    store its parent keeps for that table."""
    views = views_of(G)
    view = next(v for v in views if v.order == 4 and not v._cache
                and sum(w.table == v.table for w in views) > 1
                and h2_order(from_table(4, v.table)) == 2)
    return view, G._cache.setdefault("tables", {}).setdefault(view.table, {})


def off_cocycle_smith(alone):
    basis = cohomology._h2_basis(alone)
    [gen], [d] = basis.generators, basis.torsion
    bad = dict(gen)
    bad[0] = (bad.get(0, 0) + alone.order // d) % alone.order
    return cohomology.H2Basis([d], [tuple(sorted((j, v) for j, v in bad.items() if v))],
                              basis.cycles)


def non_cycle_smith(alone):
    basis = cohomology._h2_basis(alone)
    return cohomology.H2Basis(basis.torsion, basis.generators,
                              [((0, 1),)] + list(basis.cycles[1:]))


def blind_signature(h2):
    """This checked H^2 with no cycles: a signature that tells no class apart."""
    return cohomology.H2(h2.gens, ())


# each is injected where the store of a table reads it: a basis as what
# _h2_basis gives for that table, checked when the table's "h2" entry is
# made, and H^2 classes as that entry itself
SHARED_TAMPERS = {
    "smith-not-a-cocycle": ("_h2_basis", off_cocycle_smith),
    "smith-non-cycle": ("_h2_basis", non_cycle_smith),
    "signature-without-cycles": ("h2", lambda alone: blind_signature(
        cohomology._h2_classes(alone))),
}


@pytest.mark.parametrize("key, make", SHARED_TAMPERS.values(), ids=SHARED_TAMPERS.keys())
def test_tampered_shared_entry_makes_classify_raise(monkeypatch, key, make):
    cat = trivial_d8xz2()
    view, store = klein_store(cat.group)
    bad = make(from_table(4, view.table))
    if key == "h2":
        store[key] = bad
    else:
        check_with_basis(monkeypatch, view, bad)
    with pytest.raises(InternalInvariantBroken):
        classify(cat)
    # the view had no entry of its own: a tampered entry reached it through
    # the store, and a tampered basis left none, caught instead of deciding
    # a class
    assert view._cache.get("h2") is store.get("h2") is (bad if key == "h2" else None)


def test_h2_classes_are_checked_once_per_table(monkeypatch):
    cat = trivial_d8xz2()
    real, checked = cohomology._cocycle_on, []

    def counted(group, n, x, *args):
        checked.append(group.table)
        return real(group, n, x, *args)

    monkeypatch.setattr(cohomology, "_cocycle_on", counted)  # as _check_h2 reads it
    classify(cat)
    views = views_of(cat.group)
    gens = {v.table: len(cohomology._h2_basis(v).torsion) for v in views}
    # each class generator of each distinct table once, not once per view
    assert sorted(checked) == sorted(t for t, k in gens.items() for _ in range(k))
    assert len(checked) < sum(len(cohomology._h2_basis(v).torsion) for v in views)


def test_fresh_copies_of_a_group_share_nothing():
    cats = [trivial_d8xz2(), trivial_d8xz2()]
    for cat in cats:
        classify(cat)
    a, b = [cat.group for cat in cats]
    assert a._cache["tables"] is not b._cache["tables"]
    ids = [{id(v._cache[k]) for v in views_of(G) for k in TABLE_KEYS
            if v._cache.get(k, ()) != ()} for G in (a, b)]
    assert ids[0] and not ids[0] & ids[1]


# --- certified answers from a tampered factorization --------------------------

def tampered(target, change):
    """target on a new D6 object whose degree-1 echelon form is the true one
    after change(pivots, kernel), which edits those two lists in place."""
    G = dihedral_group(6)
    ech = cohomology._factor(G, 1)
    pivots, kernel = list(ech.pivots), list(ech.kernel)
    change(pivots, kernel)
    G._cache[("echelon", 1)] = cohomology.Echelon(ech.nrows, ech.ncols, pivots, kernel)
    return Cochain(G, target.degree, target.values)


def d6_coboundary():
    return coboundary(random_cochain(dihedral_group(6), 1, random.Random(31)))


def test_altered_kernel_row_raises_instead_of_answering_no():
    target = d6_coboundary()
    k = next(i for i, t in enumerate(nonidentity_tuples(target.group, 2)) if target.value(t))
    # the unit functional at a row where the target is nonzero is not in the kernel
    bad = tampered(target, lambda pivots, kernel: kernel.__setitem__(0, ((k, 1),)))
    with pytest.raises(InternalInvariantBroken, match="obstruction"):
        solve_coboundary(bad)


def test_altered_degree_3_kernel_row_raises_instead_of_answering_no():
    kp = kp_category().category
    G = from_table(8, kp.group.table)
    omega = Cochain(G, 3, kp.omega.values)
    ech = cohomology._factor(G, 2)
    i = image_obstruction(omega)
    assert i < len(ech.kernel)
    # the unit functional at a generator row of d^2 where omega is nonzero:
    # it pairs nonzero with omega, but is not in the kernel
    S = generators(G)
    k = next(k for k, t in enumerate(nonidentity_tuples(G, 3)) if t[0] in S and omega.value(t))
    kernel = list(ech.kernel)
    kernel[i] = ((k, 1),)
    G._cache[("echelon", 2)] = cohomology.Echelon(ech.nrows, ech.ncols, ech.pivots, kernel)
    with pytest.raises(InternalInvariantBroken, match="obstruction"):
        solve_coboundary(omega)


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
    npivots = len(cohomology._factor(target.group, 1).pivots)
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
    """For each target, solved on a fresh group object, the obstruction index
    behind a "no", or None for a coboundary; every witness and obstruction is
    checked."""
    out = []
    for t in targets:
        t = Cochain(from_table(t.group.order, t.group.table), 3, t.values)
        w, row = solve_coboundary(t), image_obstruction(t)
        assert (w is None) == (row is not None)
        if w is None:
            assert obstruction_holds(t, row)
        else:
            assert coboundary(w) == t
        out.append(row)
    return out


def test_generator_rows_answer_as_the_full_rows(monkeypatch):
    # the indices on the generator rows: kernel rows of the echelon form that
    # the Schreier tree gives A_S, then rows of d^3 past the kernel's length
    pinned = ([0, None, 0, 300], [None, None, 0, 1220], [None, None, 0, 1341])
    for G, rows in zip((kp_group(), cyclic_group(12), dihedral_group(12)), pinned):
        targets = degree_3_targets(G)
        with monkeypatch.context() as m:
            full_rows(m)
            want = [row is not None for row in verdicts(targets)]
        got = verdicts(targets)
        assert [row is not None for row in got] == want
        assert got == rows
        assert want[1] is False and want[2] is want[3] is True


# --- the Smith form of H^2: invariant factors, class generators, dual cycles ---

def test_smith_entry_holds_only_invariant_factors_and_generators():
    G = direct_product(cyclic_group(2), cyclic_group(4))
    reps = h2_representatives(G)
    basis = cohomology._h2_basis(G)
    _, _, d2 = coboundary_incidence(G, 2)
    assert cohomology.H2Basis.__slots__ == ("torsion", "generators", "cycles")
    assert basis.torsion == [2] and len(reps) == 2
    # one generator, a 2-cocycle with values in (1/2)Z/Z: A g = 0 mod 8
    [gen] = basis.generators
    g = dict(gen)
    assert g and set(g.values()) == {4}
    assert all(sum(c * g.get(j, 0) for j, c in row) % 8 == 0 for row in d2)
    # and one cycle, which pairs with it as 8 / 2 = 4 mod 8
    [z] = basis.cycles
    assert sum(c * g.get(j, 0) for j, c in z) % 8 == 4


def flat_form(basis):
    """An H2Basis as {"torsion", "generators", "cycles"}, each generator a
    flat [index, value, index, value, ...] list, for the tampers below; the
    cycles are carried as they are."""
    return {"torsion": list(basis.torsion),
            "generators": [[v for pair in g for v in pair] for g in basis.generators],
            "cycles": list(basis.cycles)}


def from_flat(d):
    return cohomology.H2Basis(d["torsion"], [tuple(zip(f[::2], f[1::2]))
                                             for f in d["generators"]], d["cycles"])


def bump(i, k):
    """Change the k-th number of generator i to another value in 1..7."""
    return lambda d: d["generators"][i].__setitem__(k, d["generators"][i][k] % 7 + 1)


def add_coboundary(d):
    """Add to generator 0 of D8 the coboundary of the 1-cochain that is 1/2 at
    the first non-identity element: same class, other values."""
    g = dict(zip(d["generators"][0][::2], d["generators"][0][1::2]))
    for p, row in enumerate(coboundary_incidence(dihedral_group(8), 1)[2]):
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
def test_tampered_smith_entry_never_gives_a_wrong_class_count(monkeypatch, tamper):
    G = dihedral_group(8)
    assert len(h2_representatives(G)) == 2
    d = flat_form(cohomology._h2_basis(G))
    tamper(d)
    check_with_basis(monkeypatch, G, from_flat(d))
    try:
        again = h2_representatives(G)
    except InternalInvariantBroken as exc:
        # h2_order reads the same check, and the failed check memoized nothing
        with pytest.raises(InternalInvariantBroken, match=re.escape(str(exc))):
            h2_order(G)
        return
    # only a change of generator within its class keeps the basis: an extra
    # generator, beyond the invariant factors, is no longer dropped unread
    assert tamper is add_coboundary
    assert len(again) == 2 and all(is_cocycle(c) for c in again)
    assert h2_order(G) == 2


CYCLE_TAMPERS = {
    # one more at its first pair: never a cycle, as no unit 2-chain is one
    "non-cycle": ("kernel functional", lambda zs: [((zs[0][0][0], zs[0][0][1] + 1),
                                                    *zs[0][1:])]),
    "dropped": ("cohomology classes", lambda zs: []),
    # a cycle still, but it pairs with the generator as 2 * 4 = 0 mod 8
    "doubled": ("cohomology classes", lambda zs: [tuple((j, 2 * c) for j, c in zs[0])]),
}


@pytest.mark.parametrize("match, tamper", CYCLE_TAMPERS.values(), ids=CYCLE_TAMPERS.keys())
def test_tampered_smith_cycles_make_h2_representatives_raise(monkeypatch, match, tamper):
    G = dihedral_group(8)
    basis = cohomology._h2_basis(G)
    assert len(basis.cycles) == 1 and len(h2_representatives(G)) == 2
    check_with_basis(monkeypatch, G, cohomology.H2Basis(basis.torsion, basis.generators,
                                                        tamper(list(basis.cycles))))
    with pytest.raises(InternalInvariantBroken, match=match):
        h2_representatives(G)
