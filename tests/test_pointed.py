import random

import pytest

from modcat import (CategoryMismatch, Cochain, NotCompatible,
                    PointedCategory, QZ, Subgroup, alpha_g, big_omega,
                    builtin_group, coboundary, combine, conjugate_cochain,
                    conjugate_pair, cyclic_3cocycle, cyclic_group,
                    dihedral_group, gamma_cochain, h2_representatives,
                    is_cocycle, is_cohomologous, kp_category, restrict,
                    solve_coboundary, validate_pair, zero_cochain)
from oracles import random_cochain


def trivial_category(G):
    return PointedCategory(G, zero_cochain(G, 3))


def coboundary_category(G, rng, den=None):
    """A category whose 3-cocycle is d(kappa), nontrivial values, trivial class."""
    kappa = random_cochain(G, 2, rng, den=den)
    return PointedCategory(G, coboundary(kappa))


@pytest.fixture(scope="module")
def kp():
    return kp_category()


# --- big_omega and gamma ----------------------------------------------------

def test_big_omega_trivial_omega(monkeypatch):
    G = dihedral_group(8)
    cat = trivial_category(G)
    # a zero omega gives zero twists without reading a single omega value
    monkeypatch.setattr(Cochain, "value", lambda self, args: pytest.fail(
        "big_omega read a value of the zero omega"))
    for g in G.elements():
        assert big_omega(cat, g).is_zero()
        assert big_omega(cat, g) is big_omega(cat, g)  # memoized


def test_big_omega_identity_element(kp):
    assert big_omega(kp.category, kp.category.group.identity).is_zero()


def test_big_omega_kp_values_on_klein(kp):
    tw = restrict(big_omega(kp.category, kp.x), kp.L)
    # L-local index 2j + i for z^i t^j; value is (j of first) * (i of second) / 2
    t_loc, z_loc = 2, 1
    assert tw.value((t_loc, z_loc)) == QZ(1, 2)
    assert tw.value((z_loc, t_loc)) == QZ(0, 1)
    for a in range(4):
        for b in range(4):
            expect = QZ(((a >> 1) & 1) * (b & 1), 2)
            assert tw.value((a, b)) == expect


def test_gamma_trivial_cases(kp):
    G = dihedral_group(8)
    cat = trivial_category(G)
    for g1 in G.elements():
        for g2 in G.elements():
            assert gamma_cochain(cat, g1, g2).is_zero()
    e = kp.category.group.identity
    assert gamma_cochain(kp.category, e, e).is_zero()


def _check_twist_coboundary_relation(cat):
    # d(big_omega(g)) = omega - omega conjugated by g, for every g
    G, om = cat.group, cat.omega
    for g in G.elements():
        lhs = coboundary(big_omega(cat, g))
        rhs = combine(om, conjugate_cochain(om, g), (1, -1))
        assert lhs == rhs


def _check_twist_product_relation(cat):
    # big_omega(g1 g2) = big_omega(g1)^g2 + big_omega(g2) + d(gamma(g1, g2))
    G = cat.group
    for g1 in G.elements():
        for g2 in G.elements():
            lhs = big_omega(cat, G.mul(g1, g2))
            rhs = combine(
                combine(conjugate_cochain(big_omega(cat, g1), g2),
                        big_omega(cat, g2), (1, 1)),
                coboundary(gamma_cochain(cat, g1, g2)), (1, 1))
            assert lhs == rhs


def test_twist_relations_on_kp(kp):
    _check_twist_coboundary_relation(kp.category)
    _check_twist_product_relation(kp.category)


def test_twist_relations_on_random_coboundary_categories():
    rng = random.Random(31)
    for G in (cyclic_group(6), dihedral_group(6)):
        cat = coboundary_category(G, rng)
        _check_twist_coboundary_relation(cat)
        _check_twist_product_relation(cat)


def test_twist_relations_on_nontrivial_cyclic_cocycle():
    from modcat import cyclic_3cocycle
    G = cyclic_group(8)
    cat = PointedCategory(G, cyclic_3cocycle(G, 3))
    _check_twist_coboundary_relation(cat)
    _check_twist_product_relation(cat)


def test_twist_relations_on_twisted_kp(kp):
    rng = random.Random(37)
    G = kp.category.group
    kappa = random_cochain(G, 2, rng)
    cat = PointedCategory(G, combine(kp.category.omega, coboundary(kappa), (1, 1)))
    _check_twist_coboundary_relation(cat)
    _check_twist_product_relation(cat)


# --- validate_pair ----------------------------------------------------------

def test_validate_pair_trivial_omega():
    G = dihedral_group(8)
    cat = trivial_category(G)
    from modcat import subgroups
    for H in subgroups(G):
        pair = validate_pair(cat, H, zero_cochain(H.as_group(), 2))
        assert pair.rank == G.order // H.order


def test_validate_pair_kp(kp):
    pair = validate_pair(kp.category, kp.L, zero_cochain(kp.L.as_group(), 2))
    assert pair.rank == 2


def corrupted(psi, args, delta):
    vals = dict(psi.values)
    vals[args] = psi.value(args) + delta
    return Cochain(psi.group, 2, vals)


def test_validate_pair_reports_the_least_failing_triple(kp):
    # each witness is the lexicographically least triple where d(psi) and
    # omega|_H differ, pinned to what the Q/Z check reported
    cat, L = kp.category, kp.L
    cases = [(cat, L, corrupted(kp.xi_nontrivial, (3, 1), QZ(1, 3)), (1, 2, 1)),
             (cat, Subgroup(cat.group, range(8)), None, (4, 2, 1))]
    d16 = builtin_group("dihedral:16")
    full = Subgroup(d16, range(16))
    xi = h2_representatives(full.as_group())[1]
    cases.append((PointedCategory(d16, zero_cochain(d16, 3)), full,
                  corrupted(xi, (5, 9), QZ(1, 8)), (1, 4, 9)))
    c16 = builtin_group("cyclic:16")
    cases.append((PointedCategory(c16, cyclic_3cocycle(c16, 1)),
                  Subgroup(c16, range(16)), None, (1, 1, 15)))
    for cat, H, psi, triple in cases:
        with pytest.raises(NotCompatible) as exc:
            validate_pair(cat, H, psi or zero_cochain(H.as_group(), 2))
        assert exc.value.witness == triple


def test_validate_pair_rejects_full_kp_group(kp):
    G = kp.category.group
    full = Subgroup(G, range(G.order))
    with pytest.raises(NotCompatible) as exc:
        validate_pair(kp.category, full, zero_cochain(full.as_group(), 2))
    assert exc.value.witness is not None
    # omega itself is nonzero at (x, x, t), so no psi with d(psi) = 0 can work
    assert kp.category.omega.value((4, 4, 2)) == QZ(1, 4)


# --- conjugate_pair ---------------------------------------------------------

def test_conjugate_pair_identity(kp):
    pair = validate_pair(kp.category, kp.L, zero_cochain(kp.L.as_group(), 2))
    same = conjugate_pair(pair, kp.category.group.identity)
    assert same.H == pair.H and same.psi == pair.psi


def test_conjugate_pair_trivial_omega_abelian():
    G = cyclic_group(6)
    cat = trivial_category(G)
    from modcat import subgroups
    for H in subgroups(G):
        pair = validate_pair(cat, H, zero_cochain(H.as_group(), 2))
        for g in G.elements():
            moved = conjugate_pair(pair, g)
            assert moved.H == pair.H and moved.psi == pair.psi


def test_conjugate_pair_kp_klein(kp):
    cat = kp.category
    G = cat.group
    pair = validate_pair(cat, kp.L, zero_cochain(kp.L.as_group(), 2))
    moved = conjugate_pair(pair, kp.x)
    assert moved.H == kp.L  # L is normal
    xinv = G.inverse[kp.x]
    assert moved.psi == restrict(big_omega(cat, xinv), kp.L)
    # that twist restriction is a valid cochain for the pair: d = 0 = omega|_L
    assert coboundary(moved.psi).is_zero()


# --- alpha_g ----------------------------------------------------------------

def _klein_pairs(kp):
    """All four (psi, xi) choices on L: zero and the nontrivial representative."""
    cat = kp.category
    out = []
    for c in (zero_cochain(kp.L.as_group(), 2), kp.xi_nontrivial):
        out.append(validate_pair(cat, kp.L, c))
    return out


def test_alpha_trivial_omega_identity_is_psi_minus_xi():
    G = dihedral_group(8)
    cat = trivial_category(G)
    from modcat import h2_representatives, subgroups
    subs = subgroups(G)
    H, L = subs[6], subs[7]
    psi = h2_representatives(H.as_group())[-1]
    xi = h2_representatives(L.as_group())[-1]
    pa = validate_pair(cat, H, psi)
    pb = validate_pair(cat, L, xi)
    a = alpha_g(pa, pb, G.identity)
    inter = sorted(set(H.members) & set(L.members))
    hpos = {p: i for i, p in enumerate(H.members)}
    lpos = {p: i for i, p in enumerate(L.members)}
    ipos = {p: i for i, p in enumerate(inter)}
    for x in inter:
        for y in inter:
            if G.identity in (x, y):
                continue
            expect = psi.value((hpos[x], hpos[y])) - xi.value((lpos[x], lpos[y]))
            assert a.value((ipos[x], ipos[y])) == expect


def test_alpha_same_pair_trivial_omega_identity_is_zero():
    G = dihedral_group(8)
    cat = trivial_category(G)
    from modcat import subgroups
    for H in subgroups(G):
        pair = validate_pair(cat, H, zero_cochain(H.as_group(), 2))
        assert alpha_g(pair, pair, G.identity).is_zero()


def test_alpha_kp_x_on_klein_is_nontrivial(kp):
    pzero, _ = _klein_pairs(kp)
    a = alpha_g(pzero, pzero, kp.x)
    assert a.group.order == 4  # L meets its conjugate in all of L
    assert is_cocycle(a)
    view = kp.L.as_group()
    assert is_cohomologous(a, kp.xi_nontrivial) is not None
    assert is_cohomologous(a, zero_cochain(view, 2)) is None


def test_alpha_category_mismatch(kp):
    G = dihedral_group(8)
    cat = trivial_category(G)
    from modcat import subgroups
    other = validate_pair(cat, subgroups(G)[0],
                          zero_cochain(subgroups(G)[0].as_group(), 2))
    mine = _klein_pairs(kp)[0]
    with pytest.raises(CategoryMismatch):
        alpha_g(mine, other, 0)


def test_alpha_matches_criterion_class_all_g(kp):
    # the conjugate of alpha_g lands in the class of -xi + psi^g + big_omega(g)
    # restricted to the intersection on the L side
    cat = kp.category
    G = cat.group
    pairs = _klein_pairs(kp)
    for pa in pairs:
        for pb in pairs:
            for g in G.elements():
                a = alpha_g(pa, pb, g)
                ginv = G.inverse[g]
                moved = conjugate_cochain(a, g)
                inter_members = moved.group.members
                S = Subgroup(G, inter_members)
                crit = combine(
                    combine(restrict_to(pb.psi, G, S),
                            restrict_to(conjugate_cochain(pa.psi, g), G, S),
                            (-1, 1)),
                    restrict(big_omega(cat, g), S), (1, 1))
                assert is_cohomologous(moved, crit) is not None


def restrict_to(cochain_on_sub, parent, S):
    """Restrict a cochain living on one subgroup view to a smaller subgroup S
    of the parent (S's members must lie inside the view's members)."""
    view = cochain_on_sub.group
    pos = {p: i for i, p in enumerate(view.members)}
    local_members = [pos[m] for m in S.members]
    sub_of_view = Subgroup(view, local_members)
    out = restrict(cochain_on_sub, sub_of_view)
    # relabel onto S.as_group() of the parent (same elements, same order)
    target = S.as_group()
    assert target.names == out.group.names
    return Cochain(target, out.degree, dict(out.values))


def test_alpha_across_different_subgroups(kp):
    cat = kp.category
    G = cat.group
    K = Subgroup(G, [0, 1, 4, 5])
    pk = validate_pair(cat, K, zero_cochain(K.as_group(), 2))
    for pb in _klein_pairs(kp):
        for g in G.elements():
            a = alpha_g(pk, pb, g)
            assert is_cocycle(a)


def test_alpha_matches_criterion_class_across_subgroups(kp):
    # same congruence as above, but with distinct subgroups so the
    # intersection is proper: H = the other Klein subgroup, L = the fixture's
    cat = kp.category
    G = cat.group
    K = Subgroup(G, [0, 1, 4, 5])
    pk = validate_pair(cat, K, zero_cochain(K.as_group(), 2))
    kpos = {p: i for i, p in enumerate(K.members)}
    lpos = {p: i for i, p in enumerate(kp.L.members)}
    for pb in _klein_pairs(kp):
        for g in G.elements():
            a = alpha_g(pk, pb, g)
            moved = conjugate_cochain(a, g)
            S = Subgroup(G, moved.group.members)
            spos = {p: i for i, p in enumerate(S.members)}
            vals = {}
            for x in S.members:
                for y in S.members:
                    if G.identity in (x, y):
                        continue
                    v = (-pb.psi.value((lpos[x], lpos[y]))
                         + pk.psi.value((kpos[G.conj(g, x)], kpos[G.conj(g, y)]))
                         + big_omega(cat, g).value((x, y)))
                    if v:
                        vals[(spos[x], spos[y])] = v
            crit = Cochain(S.as_group(), 2, vals)
            assert is_cohomologous(moved, crit) is not None


def test_alpha_identity_only_intersection(kp):
    # <x> meets every conjugate of L in the identity alone; the result is the
    # (empty) cochain on the one-element view
    cat = kp.category
    G = cat.group
    X = Subgroup(G, [0, 4])
    px = validate_pair(cat, X, zero_cochain(X.as_group(), 2))
    for pb in _klein_pairs(kp):
        for g in G.elements():
            a = alpha_g(px, pb, g)
            assert a.group.order == 1 and a.is_zero()


def test_theta_identity_pointwise(kp):
    # five-factor product of omega values equals big_omega(g) + d(theta_g)
    # with theta_g(x) = -omega(g, x, x^{-1}); checked at every (x, y, g)
    cat = kp.category
    G, om = cat.group, cat.omega
    val = om.value
    for g in G.elements():
        tw = big_omega(cat, g)

        def theta(z):
            return -val((g, z, G.inverse[z]))

        for x in G.elements():
            for y in G.elements():
                xinv, yinv = G.inverse[x], G.inverse[y]
                cx, cy = G.conj(g, x), G.conj(g, y)
                lhs = (val((y, yinv, xinv))
                       - val((x, y, G.mul(yinv, xinv)))
                       + val((cx, cy, g))
                       + val((cx, G.mul(cy, g), yinv))
                       - val((G.mul(G.mul(cx, cy), g), yinv, xinv)))
                rhs = tw.value((x, y)) + theta(y) - theta(G.mul(x, y)) + theta(x)
                assert lhs == rhs


def _check_inverse_pair_relation(cat, pair):
    # xi(h'^-1, h^-1) + xi(h, h') = d f (h, h') + omega(h', h'^-1, h^-1)
    #                               - omega(h, h', h'^-1 h^-1),  f(h) = xi(h, h^-1)
    G, om = cat.group, cat.omega
    val = om.value
    L = pair.H
    pos = {p: i for i, p in enumerate(L.members)}
    xi = pair.psi.value

    def f(h):
        return xi((pos[h], pos[G.inverse[h]]))

    for h in L.members:
        for hp in L.members:
            hinv, hpinv = G.inverse[h], G.inverse[hp]
            lhs = xi((pos[hpinv], pos[hinv])) + xi((pos[h], pos[hp]))
            df = f(hp) - f(G.mul(h, hp)) + f(h)
            rhs = df + val((hp, hpinv, hinv)) \
                - val((h, hp, G.mul(hpinv, hinv)))
            assert lhs == rhs


def test_inverse_pair_relation_kp(kp):
    for pair in _klein_pairs(kp):
        _check_inverse_pair_relation(kp.category, pair)


def test_inverse_pair_relation_nonzero_omega():
    # exercise the omega terms: a coboundary 3-cocycle is nonzero pointwise
    rng = random.Random(43)
    G = dihedral_group(6)
    cat = coboundary_category(G, rng)
    full = Subgroup(G, range(G.order))
    psi0 = solve_coboundary(restrict(cat.omega, full))
    assert psi0 is not None
    pair = validate_pair(cat, full, psi0)
    _check_inverse_pair_relation(cat, pair)
    _check_twist_coboundary_relation(cat)
