from itertools import product

from modcat import (QZ, ZERO, big_omega, classify, is_cocycle, is_cohomologous,
                    kp_category, kp_group, kp_omega, kp_sigma, kp_tau, restrict,
                    validate_pair, zero_cochain)


def test_tau_values():
    assert kp_tau(1, 0, 1, 1, 0) == QZ(1, 2)  # exponent n*j*i' = 1
    for rest in product(range(2), repeat=4):
        assert kp_tau(0, *rest) == ZERO
    assert kp_tau(1, 0, 0, 1, 1) == ZERO  # j = 0 kills it


def test_sigma_values():
    assert kp_sigma(0, 1, 1, 1) == QZ(1, 4)  # a genuine quarter turn
    for i, n, n2 in product(range(2), repeat=3):
        assert kp_sigma(i, 0, n, n2) == ZERO
    assert kp_sigma(0, 1, 1, 0) == ZERO  # n + n' = 1 floors to zero


def test_group_shape():
    G = kp_group()
    assert G.order == 8 and not G.is_abelian()
    assert G.names[0] == "e" and G.names[4] == "x"
    orders = sorted(G.element_order(a) for a in G.elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_omega_is_normalized_cocycle_exhaustively():
    G = kp_group()
    om = kp_omega(G)
    # normalization: identity anywhere gives zero
    for b, c in product(G.elements(), repeat=2):
        assert om.value((0, b, c)) == ZERO
        assert om.value((b, 0, c)) == ZERO
        assert om.value((b, c, 0)) == ZERO
    # full coboundary check over all 8^4 tuples
    for a, b, c, d in product(G.elements(), repeat=4):
        v = (om.value((b, c, d)) - om.value((G.mul(a, b), c, d))
             + om.value((a, G.mul(b, c), d)) - om.value((a, b, G.mul(c, d)))
             + om.value((a, b, c)))
        assert v == ZERO
    assert is_cocycle(om)


def test_hand_evaluated_entry():
    kp = kp_category()
    # (x, x, t): tau factor dies on the identity middle argument,
    # sigma_t(x, x) contributes a quarter turn
    assert kp.category.omega.value((4, 4, 2)) == QZ(1, 4)


def test_omega_restricts_to_zero_on_klein():
    kp = kp_category()
    assert restrict(kp.category.omega, kp.L).is_zero()


def test_twist_of_x_is_the_nontrivial_class():
    kp = kp_category()
    tw = restrict(big_omega(kp.category, kp.x), kp.L)
    assert is_cocycle(tw)
    assert is_cohomologous(tw, kp.xi_nontrivial) is not None
    assert is_cohomologous(tw, zero_cochain(kp.L.as_group(), 2)) is None


def test_twist_table_on_klein():
    kp = kp_category()
    tw = restrict(big_omega(kp.category, kp.x), kp.L)
    for a in range(4):
        for b in range(4):
            i_a, j_a = a & 1, a >> 1
            i_b, j_b = b & 1, b >> 1
            assert tw.value((a, b)) == QZ(j_a * i_b, 2)


def test_classification_merges_both_klein_choices():
    kp = kp_category()
    report = classify(kp.category, omega_source="kp")
    pair_zero = validate_pair(kp.category, kp.L, zero_cochain(kp.L.as_group(), 2))
    pair_xi = validate_pair(kp.category, kp.L, kp.xi_nontrivial)
    i0, i1 = report.pairs.index(pair_zero), report.pairs.index(pair_xi)
    blocks = {i: tuple(blk["members"]) for blk in report.classes
              for i in blk["members"]}
    assert blocks[i0] == blocks[i1]
