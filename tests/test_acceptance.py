"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every equality is exact (QZ arithmetic); the only tolerances are wall-clock
budgets.
"""

import random
from contextlib import contextmanager
from itertools import product
from time import perf_counter

from modcat import (PointedCategory, QZ, Subgroup, ZERO, big_omega, classify,
                    coboundary, combine, conjugate_cochain, cyclic_group,
                    dihedral_group, direct_product, enumerate_pairs,
                    equivalent_pairs, is_cohomologous, kp_category,
                    restrict, solve_coboundary, subgroup_conjugacy_classes,
                    validate_pair, zero_cochain)
from modcat.classify import admissible_subgroups
from oracles import brute_trivial_omega_classes, random_cochain


@contextmanager
def criterion(number, description, budget_s):
    t0 = perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = perf_counter() - t0
        status = "FAIL" if (failed or dt >= budget_s) else "PASS"
        print(f"criterion {number} ({description}): {status} "
              f"in {dt:.2f} s (budget {budget_s} s)")
    assert dt < budget_s, f"criterion {number} exceeded its {budget_s} s budget"


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


def test_criterion_1_kp_twist_formula():
    with criterion(1, "KP twist formula on L x L", 1.0):
        kp = kp_category()
        tw = restrict(big_omega(kp.category, kp.x), kp.L)
        for a in range(4):
            for b in range(4):
                j_first, i_second = (a >> 1) & 1, b & 1
                assert tw.value((a, b)) == QZ(j_first * i_second, 2)


def test_criterion_2_kp_cocycle_validity():
    with criterion(2, "KP 3-cocycle validity and Klein restriction", 1.0):
        kp = kp_category()
        om = kp.category.omega
        G = kp.category.group
        for a, b, c, d in product(G.elements(), repeat=4):
            v = (om.value((b, c, d)) - om.value((G.mul(a, b), c, d))
                 + om.value((a, G.mul(b, c), d))
                 - om.value((a, b, G.mul(c, d))) + om.value((a, b, c)))
            assert v == ZERO
        assert restrict(om, kp.L).is_zero()


def test_criterion_3_kp_merging_witness():
    with criterion(3, "KP pairs (L,0) and (L,xi) merge with g outside L", 5.0):
        kp = kp_category()
        a = validate_pair(kp.category, kp.L, zero_cochain(kp.L.as_group(), 2))
        b = validate_pair(kp.category, kp.L, kp.xi_nontrivial)
        w = equivalent_pairs(a, b)
        assert w is not None
        assert w.g not in kp.L.members
        from modcat import criterion_cochain
        assert coboundary(w.coboundary_witness) == criterion_cochain(a, b, w.g)


def test_criterion_4_kp_classification_bijection():
    with criterion(4, "KP classes = admissible subgroup conjugacy classes", 30.0):
        kp = kp_category()
        cat = kp.category
        report = classify(cat, omega_source="kp")
        admissible = {H.members for H, _ in admissible_subgroups(cat)}
        admissible_classes = [blk for blk in subgroup_conjugacy_classes(cat.group)
                              if blk[0].members in admissible]
        report_sets = sorted(
            sorted({report.pairs[i].H.members for i in blk["members"]})
            for blk in report.classes)
        admissible_sets = sorted(sorted({S.members for S in blk})
                                 for blk in admissible_classes)
        assert report_sets == admissible_sets
        for members in admissible:
            holders = {id(blk) for blk in report.classes
                       for i in blk["members"]
                       if report.pairs[i].H.members == members}
            assert len(holders) == 1  # all psi choices on H merged


def test_criterion_5_trivial_omega_counts():
    with criterion(5, "trivial-omega class counts", 5.0 * 12):
        for n in range(2, 13):
            t0 = perf_counter()
            G = cyclic_group(n)
            report = classify(PointedCategory(G, zero_cochain(G, 3)))
            ndiv = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert report.class_count == ndiv
            assert perf_counter() - t0 < 5.0
        t0 = perf_counter()
        V = klein_group()
        report = classify(PointedCategory(V, zero_cochain(V, 3)))
        assert report.class_count == 6
        assert perf_counter() - t0 < 5.0


def test_criterion_6_property_suites():
    with criterion(6, "exhaustive property suites", 120.0):
        rng = random.Random(2024)
        kp = kp_category()
        cat = kp.category
        G = cat.group
        om = cat.omega

        # d(d(f)) = 0 on every group of order <= 8 we ship, both degrees
        for grp in (cyclic_group(6), dihedral_group(6), dihedral_group(8),
                    klein_group(), G):
            for degree in (1, 2):
                for _ in range(3):
                    f = random_cochain(grp, degree, rng)
                    assert coboundary(coboundary(f)).is_zero()

        # d(big_omega(g)) = omega - omega^g, exhaustively over g
        for g in G.elements():
            assert coboundary(big_omega(cat, g)) == \
                combine(om, conjugate_cochain(om, g), (1, -1))

        # big_omega(g1 g2) = big_omega(g1)^g2 + big_omega(g2) + d(gamma)
        from modcat import gamma_cochain
        for g1, g2 in product(G.elements(), repeat=2):
            lhs = big_omega(cat, G.mul(g1, g2))
            rhs = combine(combine(conjugate_cochain(big_omega(cat, g1), g2),
                                  big_omega(cat, g2), (1, 1)),
                          coboundary(gamma_cochain(cat, g1, g2)), (1, 1))
            assert lhs == rhs

        # alpha_g conjugate lands in the class of the equivalence criterion
        from modcat import alpha_g
        L_view = kp.L.as_group()
        choices = [validate_pair(cat, kp.L, c)
                   for c in (zero_cochain(L_view, 2), kp.xi_nontrivial)]
        for pa, pb in product(choices, repeat=2):
            for g in G.elements():
                a = alpha_g(pa, pb, g)
                moved = conjugate_cochain(a, g)
                S = Subgroup(G, moved.group.members)
                spos = {p: i for i, p in enumerate(S.members)}
                lpos = {p: i for i, p in enumerate(kp.L.members)}
                crit_vals = {}
                for x in S.members:
                    for y in S.members:
                        if G.identity in (x, y):
                            continue
                        v = (-pb.psi.value((lpos[x], lpos[y]))
                             + pa.psi.value((lpos[G.conj(g, x)],
                                             lpos[G.conj(g, y)]))
                             + big_omega(cat, g).value((x, y)))
                        if v:
                            crit_vals[(spos[x], spos[y])] = v
                from modcat import Cochain
                crit = Cochain(S.as_group(), 2, crit_vals)
                assert is_cohomologous(moved, crit) is not None

        # the five-factor identity behind the twist, pointwise over all triples
        val = om.value
        for g in G.elements():
            tw = big_omega(cat, g)
            for x, y in product(G.elements(), repeat=2):
                xinv, yinv = G.inverse[x], G.inverse[y]
                cx, cy = G.conj(g, x), G.conj(g, y)
                lhs = (val((y, yinv, xinv)) - val((x, y, G.mul(yinv, xinv)))
                       + val((cx, cy, g)) + val((cx, G.mul(cy, g), yinv))
                       - val((G.mul(G.mul(cx, cy), g), yinv, xinv)))
                theta = lambda z: -val((g, z, G.inverse[z]))
                rhs = tw.value((x, y)) + theta(y) - theta(G.mul(x, y)) + theta(x)
                assert lhs == rhs

        # the inverse-argument relation for every valid pair on L
        for pair in choices:
            pos = {p: i for i, p in enumerate(kp.L.members)}
            xi = pair.psi.value
            f = lambda h: xi((pos[h], pos[G.inverse[h]]))
            for h, hp in product(kp.L.members, repeat=2):
                hinv, hpinv = G.inverse[h], G.inverse[hp]
                lhs = xi((pos[hpinv], pos[hinv])) + xi((pos[h], pos[hp]))
                rhs = (f(hp) - f(G.mul(h, hp)) + f(h)
                       + val((hp, hpinv, hinv))
                       - val((h, hp, G.mul(hpinv, hinv))))
                assert lhs == rhs

        # solve round-trips on random coboundaries
        for grp in (cyclic_group(6), dihedral_group(8), G):
            for degree in (1, 2):
                f = random_cochain(grp, degree, rng)
                target = coboundary(f)
                w = solve_coboundary(target)
                assert w is not None and coboundary(w) == target

        # equivalence axioms on all enumerated pairs
        pairs = enumerate_pairs(cat)
        n = len(pairs)
        rel = [[equivalent_pairs(pairs[i], pairs[j]) is not None
                for j in range(n)] for i in range(n)]
        for i in range(n):
            assert rel[i][i]
            for j in range(n):
                assert rel[i][j] == rel[j][i]
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]

        # class count is invariant under twisting omega by a coboundary
        kappa = random_cochain(G, 2, rng)
        twisted = PointedCategory(G, combine(om, coboundary(kappa), (1, 1)))
        assert classify(twisted).class_count == classify(cat).class_count

        # with omega = 0 the classifier reduces to plain conjugation of pairs
        for grp in (klein_group(), dihedral_group(6), dihedral_group(8)):
            tcat = PointedCategory(grp, zero_cochain(grp, 3))
            tpairs = enumerate_pairs(tcat)
            got = sorted(sorted(blk["members"])
                         for blk in classify(tcat).classes)
            assert got == brute_trivial_omega_classes(tcat, tpairs)


def test_criterion_7_order_32_trivial_omega():
    with criterion(7, "D8xZ2xZ2 with trivial omega", 5.0):
        z2 = cyclic_group(2)
        G = direct_product(direct_product(dihedral_group(8), z2), z2)
        report = classify(PointedCategory(G, zero_cochain(G, 3)), size_limit=32)
        assert (len(report.pairs), report.class_count) == (726, 534)
