import random
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from modcat import (Cochain, DegreeMismatch, GroupMismatch, NotASubgroup,
                    ParseError, QZ, ZERO, Subgroup, coboundary,
                    cochain_from_json, cochain_to_json, combine,
                    conjugate_cochain, cyclic_group, cyclic_3cocycle,
                    dihedral_group, direct_product, is_cocycle, kp_category,
                    kp_group, nonidentity_tuples, restrict, zero_cochain)
from modcat.cochains import _of, numerators
from oracles import DictCochain, random_cochain, relabel


def test_normalization_enforced():
    G = cyclic_group(3)
    with pytest.raises(ParseError):
        Cochain(G, 1, {(0,): QZ(1, 2)})
    # zero at identity slots is fine and dropped
    c = Cochain(G, 1, {(0,): ZERO, (1,): QZ(1, 3)})
    assert c.value((0,)) == ZERO and c.value((1,)) == QZ(1, 3)


@pytest.mark.parametrize("args, match", [
    ((1.5,), "non-integer"), (("a",), "non-integer"), ((True,), "non-integer"),
    ((1.0,), "non-integer"), ((None,), "non-integer"), (1, "not a tuple"),
    ("1", "not a tuple")],
    ids=["float", "string", "bool", "integral-float", "null", "bare-int", "bare-string"])
def test_non_integer_arguments_are_parse_errors(args, match):
    with pytest.raises(ParseError, match=match):
        Cochain(cyclic_group(4), 1, {args: QZ(1, 2)})
    if not isinstance(args, tuple):  # a bare key on a large group as well
        with pytest.raises(ParseError, match=match):
            Cochain(cyclic_group(64), 1, {args: QZ(1, 2)})


def test_degree_checked():
    G = cyclic_group(3)
    with pytest.raises(DegreeMismatch):
        Cochain(G, 2, {(1,): QZ(1, 2)})


def test_coboundary_of_zero():
    G = dihedral_group(8)
    for n in (0, 1, 2):
        assert coboundary(zero_cochain(G, n)).is_zero()


def test_coboundary_degree1_z2():
    G = cyclic_group(2)
    f = Cochain(G, 1, {(1,): QZ(1, 4)})
    df = coboundary(f)
    # df(a, a) = f(a) - f(a*a = e) + f(a) = 1/2
    assert df.value((1, 1)) == QZ(1, 2)
    assert len(df.values) == 1


def test_coboundary_degree2_z2_always_zero():
    G = cyclic_group(2)
    rng = random.Random(0)
    for _ in range(5):
        psi = random_cochain(G, 2, rng)
        assert coboundary(psi).is_zero()


def test_d_after_d_is_zero():
    rng = random.Random(1)
    for G in (cyclic_group(4), cyclic_group(6), dihedral_group(6),
              dihedral_group(8), kp_group()):
        for degree in (1, 2):
            for _ in range(3):
                f = random_cochain(G, degree, rng)
                assert coboundary(coboundary(f)).is_zero()


def test_combine():
    G = cyclic_group(2)
    psi = Cochain(G, 2, {(1, 1): QZ(1, 2)})
    xi = Cochain(G, 2, {(1, 1): QZ(1, 4)})
    assert combine(psi, psi, (1, -1)).is_zero()
    assert combine(zero_cochain(G, 2), xi, (1, 1)) == xi
    assert combine(psi, xi, (-1, 1)).value((1, 1)) == QZ(3, 4)


def test_combine_mismatches():
    G, H = cyclic_group(2), cyclic_group(3)
    with pytest.raises(DegreeMismatch):
        combine(zero_cochain(G, 1), zero_cochain(G, 2), (1, 1))
    with pytest.raises(GroupMismatch):
        combine(zero_cochain(G, 1), zero_cochain(H, 1), (1, 1))


def test_combine_pointwise_laws():
    G = dihedral_group(6)
    rng = random.Random(2)
    a, b, c = (random_cochain(G, 2, rng) for _ in range(3))
    assert combine(a, b, (1, 1)) == combine(b, a, (1, 1))
    assert combine(combine(a, b, (1, 1)), c, (1, 1)) == \
        combine(a, combine(b, c, (1, 1)), (1, 1))


def test_restrict():
    kp = kp_category()
    om = kp.category.omega
    assert restrict(om, kp.L).is_zero()  # the Klein subgroup sees trivial omega
    G = kp.category.group
    triv = Subgroup(G, [G.identity])
    r = restrict(om, triv)
    assert r.is_zero() and r.group.order == 1
    assert restrict(zero_cochain(G, 2), kp.L).is_zero()


def test_restrict_wrong_parent():
    G, H = cyclic_group(4), cyclic_group(2)
    with pytest.raises(NotASubgroup):
        restrict(zero_cochain(G, 2), Subgroup(H, [0, 1]))


def test_conjugate_identity_and_abelian():
    G = cyclic_group(6)
    rng = random.Random(3)
    f = random_cochain(G, 2, rng)
    for g in G.elements():
        assert conjugate_cochain(f, g) == f
    D = kp_group()
    f = random_cochain(D, 2, rng)
    assert conjugate_cochain(f, D.identity) == f


def test_conjugate_round_trip_on_subgroups():
    D = kp_group()
    rng = random.Random(4)
    L = Subgroup(D, [0, 1, 2, 3])
    f = random_cochain(L.as_group(), 2, rng)
    for g in D.elements():
        back = conjugate_cochain(conjugate_cochain(f, g), D.inverse[g])
        assert back == f


def test_conjugate_commutes_with_coboundary():
    D = kp_group()
    rng = random.Random(5)
    L = Subgroup(D, [0, 1, 4, 5])
    for degree in (1, 2):
        f = random_cochain(L.as_group(), degree, rng)
        for g in D.elements():
            assert conjugate_cochain(coboundary(f), g) == \
                coboundary(conjugate_cochain(f, g))


def test_is_cocycle():
    G = dihedral_group(6)
    rng = random.Random(6)
    assert is_cocycle(zero_cochain(G, 2))
    f = random_cochain(G, 1, rng)
    assert is_cocycle(coboundary(f))
    kp = kp_category()
    assert is_cocycle(kp.category.omega)


def test_cyclic_3cocycle():
    G = cyclic_group(4)
    c = cyclic_3cocycle(G, 1)
    assert is_cocycle(c)
    assert c.value((1, 3, 3)) == QZ(1, 4)  # floor((3+3)/4) = 1
    assert c.value((1, 1, 1)) == ZERO
    with pytest.raises(ParseError):
        cyclic_3cocycle(dihedral_group(8), 1)


def test_json_round_trip():
    kp = kp_category()
    om = kp.category.omega
    data = cochain_to_json(om)
    back = cochain_from_json(data)
    assert back == om


def test_json_parse_errors():
    G = cyclic_group(2)
    with pytest.raises(ParseError):
        cochain_from_json({"degree": 2, "values": [
            {"args": [1, 1], "val": 0.5}]}, group=G)
    with pytest.raises(ParseError):
        cochain_from_json({"degree": 2, "values": [
            {"args": [0, 1], "val": "1/2"}]}, group=G)
    with pytest.raises(ParseError):
        cochain_from_json({"degree": 2, "values": [
            {"args": [1, 1], "val": "1/2"},
            {"args": [1, 1], "val": "1/2"}]}, group=G)
    with pytest.raises(DegreeMismatch):
        cochain_from_json({"degree": 1, "values": []}, group=G, expect_degree=2)
    with pytest.raises(ParseError):
        cochain_from_json({"degree": 1, "values": []})  # no group anywhere


@pytest.mark.parametrize("degree", [2.7, 2.0, "2", True, None],
                         ids=["float", "integral-float", "string", "bool", "null"])
def test_json_degree_must_be_an_integer(degree):
    G = cyclic_group(2)
    values = [{"args": [1, 1], "val": "1/2"}]
    assert cochain_from_json({"degree": 2, "values": values}, group=G).degree == 2
    with pytest.raises(ParseError, match="integer"):
        cochain_from_json({"degree": degree, "values": values}, group=G)
    with pytest.raises(ParseError, match="integer"):
        cochain_from_json({"group": "cyclic:2", "degree": degree, "values": values})


@pytest.mark.parametrize("order", [2.0, 2.5, "2", True])
def test_json_embedded_group_order_must_be_an_integer(order):
    G = cyclic_group(2)
    data = {"group": {"order": 2}, "degree": 2, "values": []}
    assert cochain_from_json(data, group=G).degree == 2
    data["group"]["order"] = order
    with pytest.raises(ParseError, match="integer"):
        cochain_from_json(data, group=G)


# groups of order 1 to 8; relabelled below, so the identity is anywhere
SMALL_GROUPS = ([cyclic_group(n) for n in range(1, 9)]
                + [dihedral_group(n) for n in (4, 6, 8)]
                + [kp_group(), direct_product(cyclic_group(2), cyclic_group(2))])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_layout_matches_a_dict_of_qz_values(data):
    G = relabel(data.draw(st.sampled_from(SMALL_GROUPS)),
                random.Random(data.draw(st.integers(0, 999))))
    degree = data.draw(st.integers(0, 3))
    tuples = list(nonidentity_tuples(G, degree))
    qzs = st.builds(QZ, st.integers(-40, 40), st.integers(1, 12))
    vals = data.draw(st.dictionaries(st.sampled_from(tuples), qzs, max_size=8)
                     if tuples else st.just({}))
    c, ref = Cochain(G, degree, vals), DictCochain(G, degree, vals)

    assert c.values == ref.values and c.items() == ref.items()
    assert list(c.values) == [t for t, _ in ref.items()]
    assert c.is_zero() == ref.is_zero() == (c.den == 1)
    assert c.den == lcm(*(v.den for v in ref.values.values()))
    assert all(0 <= v < c.den for v in c.nums)
    # reads off the identity-free tuples of G are zero, never a wrapped index
    e, n = G.identity, G.order
    probes = tuples + [(e,) * max(degree, 1), (1,) * (degree + 1), (-1,) * max(degree, 1),
                       (n,) * max(degree, 1), (n + 5,) * max(degree, 1), (-n,) * max(degree, 1)]
    if degree:
        probes += [t[:-1] + (e,) for t in tuples[:3]] + [t[:-1] + (-1,) for t in tuples[:3]]
    for t in probes:
        assert c.value(t) == ref.value(t) == c(*t) == ref(*t)

    same = Cochain(G, degree, dict(reversed(vals.items())))
    assert same == c and hash(same) == hash(c)
    if tuples:
        t, delta = data.draw(st.sampled_from(tuples)), data.draw(qzs)
        c2 = Cochain(G, degree, {**vals, t: c.value(t) + delta})
        ref2 = DictCochain(G, degree, {**vals, t: ref.value(t) + delta})
        assert (c == c2) == (ref == ref2) == (not delta)
        assert c != c2 or hash(c) == hash(c2)

    data_json = cochain_to_json(c)
    assert data_json["values"] == ref.json_values()
    assert cochain_from_json(data_json) == c

    for k in (1, 2, 6):
        D = k * c.den
        nums = numerators(c, D)
        assert nums == [c.value(t).scaled_num(D) for t in tuples]
        for m in (1, 3):
            again = _of(G, degree, [m * v for v in nums], m * D)
            assert again == c and hash(again) == hash(c)
    if c.den > 1:
        with pytest.raises(ValueError):
            numerators(c, c.den + 1)
