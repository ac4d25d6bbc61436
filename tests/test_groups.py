import random

import pytest

from modcat import (BadDimensions, NotAGroup, NotAnAction, ParseError, Subgroup,
                    builtin_group, conjugate_subgroup, cyclic_group,
                    dihedral_group, direct_product, from_table,
                    group_from_json, group_to_json, kp_group,
                    semidirect_product, subgroup_conjugacy_classes, subgroups)
from oracles import brute_subgroups, lagrange_subgroups


def test_trivial_group():
    G = from_table(1, [[0]])
    assert G.order == 1 and G.identity == 0 and G.inverse == (0,)


def test_z2_from_table():
    G = from_table(2, [[0, 1], [1, 0]])
    assert G.identity == 0
    assert G.inverse[1] == 1


def test_corrupted_klein_table_rejected():
    # Klein table with one entry patched so associativity fails
    table = [[0, 1, 2, 3],
             [1, 0, 3, 2],
             [2, 3, 0, 1],
             [3, 2, 1, 1]]  # last row corrupted
    with pytest.raises(NotAGroup) as exc:
        from_table(4, table)
    assert exc.value.witness is not None


def test_bad_dimensions():
    with pytest.raises(BadDimensions):
        from_table(2, [[0, 1]])
    with pytest.raises(BadDimensions):
        from_table(2, [[0, 1], [1, 5]])
    with pytest.raises(BadDimensions):
        from_table(2, [[0, 1], [1, 0]], names=["a"])
    with pytest.raises(BadDimensions):
        from_table(2, [[0, 1], [1, 0]], names=["a", "a"])


def test_cyclic_four():
    G = cyclic_group(4)
    assert G.order == 4
    assert G.names == ("e", "a", "a^2", "a^3")
    assert G.mul(1, 3) == 0
    assert G.inverse[1] == 3


def test_element_index_reads_names_and_decimal_indices_only():
    G = cyclic_group(4)
    assert [G.element_index(s) for s in ("a^2", "3", "0")] == [2, 3, 0]
    # "²" and "④" are digits to str.isdigit, but int() reads neither
    for name in ("4", "²", "④", "a^4", "-1"):
        with pytest.raises(ParseError, match="no element"):
            G.element_index(name)


def test_dihedral_eight_structure():
    G = dihedral_group(8)
    assert G.order == 8 and not G.is_abelian()
    orders = sorted(G.element_order(a) for a in G.elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_semidirect_kp_action_gives_dihedral_signature():
    V = direct_product(cyclic_group(2), cyclic_group(2))
    C = cyclic_group(2)

    # x |> z = z, x |> t = zt with V packed as (z-bit, t-bit) -> 2*z + t
    def action(c, n):
        if c == 0:
            return n
        z, t = divmod(n, 2)
        return 2 * ((z + t) % 2) + t

    G = semidirect_product(V, C, action)
    assert G.order == 8 and not G.is_abelian()
    orders = sorted(G.element_order(a) for a in G.elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]  # dihedral, not quaternion


def test_semidirect_trivial_action_is_direct_product():
    A, B = cyclic_group(3), cyclic_group(2)
    direct = direct_product(A, B)
    semi = semidirect_product(A, B, lambda c, n: n)
    assert direct.table == semi.table


def test_not_an_action():
    V = direct_product(cyclic_group(2), cyclic_group(2))
    C = cyclic_group(2)
    with pytest.raises(NotAnAction):
        # swapping identity with a nonidentity element is not an automorphism
        semidirect_product(V, C, lambda c, n: (n + 1) % 4 if c else n)


def test_builtin_specs():
    assert builtin_group("cyclic:4").order == 4
    assert builtin_group("builtin:dihedral:8").order == 8
    assert builtin_group("kp") == kp_group()


def test_subgroup_counts():
    assert len(subgroups(cyclic_group(2))) == 2
    V = direct_product(cyclic_group(2), cyclic_group(2))
    assert len(subgroups(V)) == 5
    assert len(subgroups(dihedral_group(8))) == 10


@pytest.mark.parametrize("G", [cyclic_group(6), dihedral_group(8),
                               dihedral_group(6), kp_group()])
def test_subgroups_match_brute_force(G):
    got = [S.members for S in subgroups(G)]
    assert got == brute_subgroups(G)


def z2_to_the_4():
    Z2 = cyclic_group(2)
    return direct_product(direct_product(Z2, Z2), direct_product(Z2, Z2))


@pytest.mark.parametrize("G", [direct_product(dihedral_group(8), cyclic_group(2)),
                               direct_product(cyclic_group(4), cyclic_group(4)),
                               dihedral_group(16), z2_to_the_4()],
                         ids=["D8xZ2", "Z4xZ4", "dihedral16", "Z2^4"])
def test_subgroups_match_the_lagrange_oracle_at_order_16(G):
    got = [S.members for S in subgroups(G)]
    assert got == lagrange_subgroups(G)


@pytest.mark.parametrize("n, count", [(16, 36), (32, 69)])
def test_dihedral_subgroup_count_is_tau_plus_sigma(n, count):
    """The dihedral group of order 2n has tau(n) + sigma(n) subgroups: one
    cyclic subgroup per divisor d of n, and n/d dihedral ones of order 2d."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert len(divisors) + sum(divisors) == count
    assert len(subgroups(dihedral_group(2 * n))) == count


def test_lagrange(_groups=(cyclic_group(12), dihedral_group(8), kp_group())):
    for G in _groups:
        for S in subgroups(G):
            assert G.order % S.order == 0


def test_conjugate_subgroup_identity_and_abelian():
    G = cyclic_group(6)
    for S in subgroups(G):
        for g in G.elements():
            assert conjugate_subgroup(G, S, g) == S
    D = dihedral_group(8)
    for S in subgroups(D):
        assert conjugate_subgroup(D, S, D.identity) == S


def test_conjugate_reflection_subgroup_in_dihedral():
    D = dihedral_group(8)  # rotations 0..3, reflections 4..7
    refl = Subgroup(D, [0, 4])
    out = conjugate_subgroup(D, refl, 1)  # conjugate by the rotation r
    assert out != refl
    assert out.order == 2 and out.members[1] >= 4


def test_conjugation_round_trip():
    D = kp_group()
    rng = random.Random(7)
    subs = subgroups(D)
    for _ in range(50):
        S = rng.choice(subs)
        g = rng.randrange(D.order)
        back = conjugate_subgroup(D, conjugate_subgroup(D, S, g), D.inverse[g])
        assert back == S


def test_conjugacy_classes():
    triv = from_table(1, [[0]])
    assert len(subgroup_conjugacy_classes(triv)) == 1
    G = cyclic_group(8)
    assert len(subgroup_conjugacy_classes(G)) == len(subgroups(G))
    blocks = subgroup_conjugacy_classes(dihedral_group(8))
    assert len(blocks) == 8
    sizes = sorted(len(b) for b in blocks)
    assert sizes == [1, 1, 1, 1, 1, 1, 2, 2]  # the two reflection pairs merge


def test_subgroup_count_invariant_under_relabeling():
    G = dihedral_group(8)
    rng = random.Random(3)
    perm = list(G.elements())
    rng.shuffle(perm)
    inv = [0] * G.order
    for i, p in enumerate(perm):
        inv[p] = i
    table = [[inv[G.table[perm[i]][perm[j]]] for j in range(G.order)]
             for i in range(G.order)]
    H = from_table(G.order, table)
    assert len(subgroups(H)) == len(subgroups(G))
    assert len(subgroup_conjugacy_classes(H)) == len(subgroup_conjugacy_classes(G))


def test_closure_of_random_subsets_is_subgroup():
    G = kp_group()
    rng = random.Random(11)
    for _ in range(20):
        seed = rng.sample(range(G.order), rng.randrange(1, 4))
        from modcat.groups import _closure
        members = _closure(G, seed)
        Subgroup(G, members)  # constructor validates closure


def test_group_json_round_trip():
    G = dihedral_group(6)
    data = group_to_json(G)
    H = group_from_json(data)
    assert H == G


@pytest.mark.parametrize("order", [3.9, 3.0, "3", True, None],
                         ids=["float", "integral-float", "string", "bool", "null"])
def test_group_json_order_must_be_an_integer(order):
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    assert group_from_json({"order": 3, "table": table}).order == 3
    with pytest.raises(ParseError, match="integer"):
        group_from_json({"order": order, "table": table})
    with pytest.raises(ParseError, match="integer"):
        group_from_json({"order": order, "table": [[0]]})


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 0.5]], [[0, 1], [1, 0.0]], [[0, True], [1, "0"]], [[0, 1], [1, None]],
    [(0, 1), (1, 0)], [[0, 1], "10"], {"0": [0, 1]}, None,
], ids=["float", "integral-float", "bool-and-string", "null", "row-not-list",
        "row-string", "table-object", "no-table"])
def test_group_json_table_entries_must_be_integers(table):
    assert group_from_json({"order": 2, "table": [[0, 1], [1, 0]]}).order == 2
    with pytest.raises(ParseError, match="table"):
        group_from_json({"order": 2, "table": table})


@pytest.mark.parametrize("names", [
    "ab", {"x": 1, "y": 2}, [1, 2], [None, [0]], [True, False], None,
], ids=["string", "object", "ints", "null-and-list", "bools", "null"])
def test_group_json_names_must_be_json_strings(names):
    table = [[0, 1], [1, 0]]
    assert group_from_json({"order": 2, "table": table, "names": ["e", "a"]}).names == ("e", "a")
    with pytest.raises(ParseError, match="names"):
        group_from_json({"order": 2, "table": table, "names": names})


def test_subgroup_view_indexing():
    G = kp_group()
    L = Subgroup(G, [0, 1, 2, 3])
    view = L.as_group()
    assert view.order == 4
    assert view.identity == 0
    assert view.names == tuple(G.names[a] for a in L.members)
    assert view.parent is G and view.members == (0, 1, 2, 3)
    # same object on repeat (cached canonical view)
    assert L.as_group() is view
