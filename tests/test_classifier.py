import importlib
import json
import random
from math import gcd

import pytest

from modcat import (QZ, Cochain, InternalInvariantBroken, ParseError,
                    PointedCategory, SizeLimitExceeded, Subgroup,
                    admissible_subgroups, classify, coboundary, combine,
                    cyclic_group, cyclic_3cocycle, dihedral_group,
                    direct_product, enumerate_pairs, equivalent_pairs,
                    kp_category, report_from_json, report_to_json, restrict,
                    subgroup_conjugacy_classes, subgroups, validate_pair,
                    zero_cochain)
from modcat import NotCompatible, cohomology, qz
from modcat.classify import DEFAULT_SIZE_LIMIT
from oracles import brute_trivial_omega_classes, random_cochain


def trivial_category(G):
    return PointedCategory(G, zero_cochain(G, 3))


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


# --- admissible subgroups and pair enumeration ------------------------------

def test_admissible_trivial_omega_is_everything():
    G = dihedral_group(8)
    adm = admissible_subgroups(trivial_category(G))
    assert [H.members for H, _ in adm] == [S.members for S in subgroups(G)]
    assert all(psi0.is_zero() for _, psi0 in adm)


def test_admissible_kp():
    kp = kp_category()
    adm = {H.members: psi0 for H, psi0 in admissible_subgroups(kp.category)}
    G = kp.category.group
    assert (G.identity,) in adm
    assert kp.L.members in adm
    assert tuple(range(G.order)) not in adm  # the full group is excluded
    assert adm[kp.L.members].is_zero()


def test_trivial_subgroup_always_admissible():
    rng = random.Random(47)
    G = dihedral_group(6)
    cat = PointedCategory(G, coboundary(random_cochain(G, 2, rng)))
    adm = admissible_subgroups(cat)
    assert adm[0][0].members == (G.identity,)


def test_enumerate_pairs_counts():
    cat = trivial_category(cyclic_group(4))
    assert len(enumerate_pairs(cat)) == 3  # one per subgroup, cyclic H^2 trivial
    cat = trivial_category(klein_group())
    assert len(enumerate_pairs(cat)) == 6  # 5 subgroups, the full group twice
    kp = kp_category()
    pairs_on_L = [p for p in enumerate_pairs(kp.category)
                  if p.H.members == kp.L.members]
    assert len(pairs_on_L) == 2


# --- equivalent_pairs -------------------------------------------------------

def test_reflexivity_gives_identity_witness():
    kp = kp_category()
    for p in enumerate_pairs(kp.category):
        w = equivalent_pairs(p, p)
        assert w is not None
        assert w.g == kp.category.group.identity
        assert w.coboundary_witness.is_zero()


def test_coboundary_twisted_psi_is_equivalent():
    G = klein_group()
    cat = trivial_category(G)
    full = Subgroup(G, range(G.order))
    rng = random.Random(53)
    rho = random_cochain(full.as_group(), 1, rng)
    a = validate_pair(cat, full, zero_cochain(full.as_group(), 2))
    b = validate_pair(cat, full, coboundary(rho))
    w = equivalent_pairs(a, b)
    assert w is not None and w.g == G.identity


def test_kp_merging_witness_is_x():
    kp = kp_category()
    a = validate_pair(kp.category, kp.L, zero_cochain(kp.L.as_group(), 2))
    b = validate_pair(kp.category, kp.L, kp.xi_nontrivial)
    w = equivalent_pairs(a, b)
    assert w is not None
    assert w.g == kp.x  # first success in scan order: no g inside L works
    assert w.g not in kp.L.members


def test_equivalent_pairs_rejects_mixed_categories():
    from modcat import CategoryMismatch
    kp = kp_category()
    a = enumerate_pairs(kp.category)[0]
    b = enumerate_pairs(trivial_category(klein_group()))[0]
    with pytest.raises(CategoryMismatch):
        equivalent_pairs(a, b)


def test_different_orders_never_equivalent():
    kp = kp_category()
    pairs = enumerate_pairs(kp.category)
    small = next(p for p in pairs if p.H.order == 1)
    big = next(p for p in pairs if p.H.order == 4)
    assert equivalent_pairs(small, big) is None


# --- classify ---------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 12])
def test_classify_cyclic_trivial_counts(n):
    ndiv = sum(1 for d in range(1, n + 1) if n % d == 0)
    report = classify(trivial_category(cyclic_group(n)))
    assert report.class_count == ndiv


def test_classify_klein_trivial_six_classes():
    report = classify(trivial_category(klein_group()))
    assert report.class_count == 6
    # nothing merges: every class is a singleton
    assert all(len(blk["members"]) == 1 for blk in report.classes)


def test_classify_kp_matches_conjugacy_classes_of_admissible_subgroups():
    kp = kp_category()
    cat = kp.category
    report = classify(cat, omega_source="kp")
    admissible = {H.members for H, _ in admissible_subgroups(cat)}
    admissible_classes = [blk for blk in subgroup_conjugacy_classes(cat.group)
                          if blk[0].members in admissible]
    # admissibility is conjugation-invariant, so classes are all-or-nothing
    for blk in subgroup_conjugacy_classes(cat.group):
        flags = {S.members in admissible for S in blk}
        assert len(flags) == 1
    # bijection: the subgroups appearing in each report class are exactly one
    # admissible conjugacy class, and every admissible class appears once
    report_sets = sorted(
        sorted({report.pairs[i].H.members for i in blk["members"]})
        for blk in report.classes)
    admissible_sets = sorted(sorted({S.members for S in blk})
                             for blk in admissible_classes)
    assert report_sets == admissible_sets
    assert report.class_count == len(admissible_classes)
    # in particular all psi choices on one admissible subgroup merge
    for members in admissible:
        hits = {id(blk) for blk in report.classes
                for i in blk["members"]
                if report.pairs[i].H.members == members}
        assert len(hits) == 1


def test_classes_share_order_and_rank():
    kp = kp_category()
    report = classify(kp.category, omega_source="kp")
    G = kp.category.group
    for blk in report.classes:
        ranks = {report.pairs[i].rank for i in blk["members"]}
        orders = {report.pairs[i].H.order for i in blk["members"]}
        assert len(ranks) == 1 and len(orders) == 1
        assert blk["rank"] == ranks.pop() == G.order // orders.pop()


def test_equivalence_axioms_empirically():
    kp = kp_category()
    cats = [kp.category, trivial_category(klein_group())]
    for cat in cats:
        pairs = enumerate_pairs(cat)
        n = len(pairs)
        table = [[equivalent_pairs(pairs[i], pairs[j]) is not None
                  for j in range(n)] for i in range(n)]
        for i in range(n):
            assert table[i][i]
            for j in range(n):
                assert table[i][j] == table[j][i]
                for k in range(n):
                    if table[i][j] and table[j][k]:
                        assert table[i][k]


def test_cohomologous_omega_gives_same_class_count():
    rng = random.Random(59)
    kp = kp_category()
    G = kp.category.group
    kappa = random_cochain(G, 2, rng)
    twisted = PointedCategory(G, combine(kp.category.omega,
                                         coboundary(kappa), (1, 1)))
    base = classify(kp.category)
    other = classify(twisted)
    assert len(base.pairs) == len(other.pairs)
    assert base.class_count == other.class_count
    # psi -> psi + kappa|_H maps valid pairs to valid pairs and preserves the
    # equivalence relation, pair by pair
    moved = [validate_pair(twisted, p.H,
                           combine(p.psi, restrict(kappa, p.H), (1, 1)))
             for p in base.pairs]
    for i in range(len(base.pairs)):
        for j in range(i + 1, len(base.pairs)):
            before = equivalent_pairs(base.pairs[i], base.pairs[j]) is not None
            after = equivalent_pairs(moved[i], moved[j]) is not None
            assert before == after


@pytest.mark.parametrize("G", [klein_group(), dihedral_group(6),
                               cyclic_group(6), dihedral_group(8)])
def test_trivial_omega_reduces_to_plain_conjugation(G):
    cat = trivial_category(G)
    pairs = enumerate_pairs(cat)
    report = classify(cat)
    got = sorted(sorted(blk["members"]) for blk in report.classes)
    assert got == brute_trivial_omega_classes(cat, pairs)


def test_nontrivial_cyclic_omega_classification():
    # on Z4 with the standard generator cocycle, only the trivial subgroup
    # admits a pair: the restriction to Z2 is nonzero at (a, a, a) but every
    # 2-cochain there has zero coboundary, and the full class is nontrivial
    G = cyclic_group(4)
    cat = PointedCategory(G, cyclic_3cocycle(G, 1))
    adm = admissible_subgroups(cat)
    assert [list(H.members) for H, _ in adm] == [[0]]
    report = classify(cat)
    assert report.class_count == 1
    assert report.classes[0]["rank"] == 4


def test_size_limit():
    G = cyclic_group(17)
    with pytest.raises(SizeLimitExceeded):
        classify(trivial_category(G))
    report = classify(trivial_category(G), size_limit=17)
    assert report.class_count == 2


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_order_24_classifies_with_a_raised_size_limit():
    assert DEFAULT_SIZE_LIMIT == 16
    G = cyclic_group(24)
    cat = PointedCategory(G, cyclic_3cocycle(G, 1))
    with pytest.raises(SizeLimitExceeded):
        classify(cat)
    assert classify(cat, size_limit=24).class_count == 1 == divisor_count(gcd(24, 1))
    D = dihedral_group(24)
    report = classify(trivial_category(D), size_limit=24)
    assert {p.H.members for p in report.pairs} == {H.members for H in subgroups(D)}
    report.verify()


def test_report_json_round_trip_and_determinism():
    kp = kp_category()
    r1 = classify(kp.category, omega_source="kp")
    r2 = classify(kp.category, omega_source="kp", jobs=3)
    j1, j2 = report_to_json(r1), report_to_json(r2)
    assert j1 == j2
    rebuilt = report_from_json(j1, kp.category)
    assert report_to_json(rebuilt) == j1


def test_report_verify_catches_tampering():
    from modcat import InternalInvariantBroken
    kp = kp_category()
    report = classify(kp.category, omega_source="kp")
    data = report_to_json(report)
    tampered = False
    for blk in data["classes"]:
        for w in blk["witnesses"]:
            if w["f"]:
                w["f"][0]["val"] = "1/3"
                tampered = True
                break
        if tampered:
            break
    assert tampered
    with pytest.raises(InternalInvariantBroken):
        report_from_json(data, kp.category)


def test_report_with_an_altered_psi_value_fails():
    kp = kp_category()
    data = report_to_json(classify(kp.category, omega_source="kp"))
    # on a Klein subgroup, shifting one value of psi breaks d(psi) = omega|_H
    entry = next(p for p in data["pairs"] if len(p["H"]) == 4 and p["psi"])["psi"][0]
    entry["val"] = str(qz(entry["val"]) + QZ(1, 3))
    with pytest.raises(NotCompatible):
        report_from_json(data, kp.category)


def test_checks_use_no_qz_cochain_arithmetic(monkeypatch):
    kp = kp_category()
    report = classify(kp.category)
    queries = [(report.pairs[m], report.pairs[blk["representative"]])
               for blk in report.classes for m in blk["members"]]
    fresh_view = kp_category().L.as_group()

    def forbidden(*args, **kwargs):
        raise AssertionError("a check ran Q/Z cochain arithmetic")

    # by module name: the package attribute ``modcat.classify`` is the function
    for name in ("classify", "pointed", "cohomology"):
        module = importlib.import_module(f"modcat.{name}")
        for attr in ("coboundary", "combine", "conjugate_cochain"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    report.verify()
    assert all(equivalent_pairs(a, b) is not None for a, b in queries)
    assert len(cohomology.h2_representatives(fresh_view)) == 2


@pytest.mark.parametrize("key", ["group", "omega", "pairs", "classes"])
def test_report_from_json_missing_or_mistyped_key_is_parse_error(key):
    from modcat import ParseError
    kp = kp_category()
    data = report_to_json(classify(kp.category, omega_source="kp"))
    missing = {k: v for k, v in data.items() if k != key}
    with pytest.raises(ParseError, match=key):
        report_from_json(missing, kp.category)
    with pytest.raises(ParseError, match=key):
        report_from_json(dict(data, **{key: 7}), kp.category)


def test_report_from_json_malformed_nested_fields_are_parse_errors():
    from modcat import ParseError
    kp = kp_category()
    data = report_to_json(classify(kp.category, omega_source="kp"))
    cases = [
        lambda d: d["omega"].pop("hash"),
        lambda d: d["pairs"][0].pop("psi"),
        lambda d: d["pairs"][0].update(H="0,1"),
        lambda d: d["classes"][0].update(representative="0"),
        lambda d: d["classes"][0].update(representative=len(d["pairs"])),
        lambda d: d["classes"][0].update(members=[0, -1]),
        lambda d: d["classes"][0].pop("rank"),
        lambda d: d["classes"][0].update(witnesses=None),
    ]
    for tamper in cases:
        bad = json.loads(json.dumps(data))
        tamper(bad)
        with pytest.raises(ParseError):
            report_from_json(bad, kp.category)
    blk = next(b for b in data["classes"] if b["witnesses"])
    for field, value in (("from", None), ("g", 99), ("f", {})):
        bad = json.loads(json.dumps(data))
        bad["classes"][data["classes"].index(blk)]["witnesses"][0][field] = value
        with pytest.raises(ParseError):
            report_from_json(bad, kp.category)


@pytest.mark.parametrize("args", [5, [1, "x"], None, [True, 1]],
                         ids=["int", "str-index", "null", "bool-index"])
def test_report_from_json_malformed_psi_args_are_parse_errors(args):
    from modcat import ParseError
    kp = kp_category()
    data = report_to_json(classify(kp.category, omega_source="kp"))
    i = next(i for i, p in enumerate(data["pairs"]) if p["psi"])
    data["pairs"][i]["psi"][0]["args"] = args
    with pytest.raises(ParseError):
        report_from_json(data, kp.category)


# --- the orbit partition against a pairwise search ---------------------------

def sign_category(n):
    """D_n with the nontrivial 3-cocycle of Z_2 pulled back along the
    reflection sign: 1/2 on every triple of reflections."""
    G = dihedral_group(n)
    refl = range(n // 2, n)
    return PointedCategory(G, Cochain(G, 3, {(a, b, c): QZ(1, 2) for a in refl
                                             for b in refl for c in refl}))


def pairwise_classes(cat, pairs):
    """equivalent_pairs on every two pairs over conjugate subgroups, closed
    transitively."""
    block_of = {S.members: k for k, blk in enumerate(subgroup_conjugacy_classes(cat.group))
                for S in blk}
    label = list(range(len(pairs)))
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if block_of[pairs[i].H.members] == block_of[pairs[j].H.members] \
                    and equivalent_pairs(pairs[i], pairs[j]) is not None:
                old, new = sorted((label[i], label[j]), reverse=True)
                label = [new if x == old else x for x in label]
    classes = {}
    for i, x in enumerate(label):
        classes.setdefault(x, []).append(i)
    return sorted(classes.values())


ORACLE_CASES = {
    "kp": lambda: kp_category().category,
    "dihedral8": lambda: trivial_category(dihedral_group(8)),
    "dihedral12-sign": lambda: sign_category(12),
    "cyclic12-2": lambda: PointedCategory(cyclic_group(12),
                                          cyclic_3cocycle(cyclic_group(12), 2)),
    "D8xZ2": lambda: trivial_category(direct_product(dihedral_group(8), cyclic_group(2))),
    "dihedral16": lambda: trivial_category(dihedral_group(16)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_orbit_partition_matches_pairwise_search(name):
    cat = ORACLE_CASES[name]()
    report = classify(cat)
    got = sorted(blk["members"] for blk in report.classes)
    assert got == pairwise_classes(cat, report.pairs)
    subgroups_of = [{report.pairs[i].H.members for i in c} for c in got]
    if name == "kp":  # two psi on one subgroup merge
        assert any(len(c) > len(s) for c, s in zip(got, subgroups_of))
    if name == "dihedral16":  # pairs on conjugate subgroups merge
        assert any(len(s) > 1 for s in subgroups_of)


def test_tampered_kernel_functional_makes_classify_raise(monkeypatch):
    kp = kp_category()
    assert classify(kp.category).class_count == 6
    view = kp.L.as_group()
    mat = cohomology.coboundary_matrix(view, 1)
    kernel = cohomology._factor(view, 1, "echelon").kernel
    assert kernel
    real = cohomology.echelon_form
    for k, z in enumerate(kernel):
        (j, c), *rest = z
        bad = ((j, c + (1 if c > 0 else -1)), *rest)  # z A + (row j of A), never 0
        assert not cohomology._in_left_kernel(bad, mat)

        def tampered(rows, ncols, keep=None, k=k, bad=bad):
            ech = real(rows, ncols, keep)
            if rows == mat.sparse:  # d^1 of every group with L's table
                ech.kernel[k] = bad
            return ech
        monkeypatch.setattr(cohomology, "echelon_form", tampered)
        with pytest.raises(InternalInvariantBroken):
            classify(kp_category().category)


# --- verify() checks the partition -------------------------------------------

def move_member_to_another_class(d):
    blk = next(b for b in d["classes"] if b["witnesses"])
    other = next(b for b in d["classes"] if b is not blk)
    other["members"].append(blk["witnesses"][0]["from"])


def drop_member_keep_witness(d):
    blk = next(b for b in d["classes"] if b["witnesses"])
    blk["members"].remove(blk["witnesses"][0]["from"])


def drop_class(d):
    d["classes"].pop()
    d["class_count"] -= 1


def set_rank(d):
    d["classes"][0]["rank"] = 99


def miscount(d):
    d["class_count"] += 1


@pytest.mark.parametrize("tamper, error", [
    (move_member_to_another_class, InternalInvariantBroken),
    (drop_member_keep_witness, InternalInvariantBroken),
    (drop_class, InternalInvariantBroken),
    (set_rank, InternalInvariantBroken),
    (miscount, ParseError),
], ids=["pair-in-two-classes", "member-dropped-witness-kept", "class-dropped",
        "rank-99", "class-count"])
def test_verify_rejects_a_tampered_partition(tamper, error):
    kp = kp_category()
    data = report_to_json(classify(kp.category, omega_source="kp"))
    report_from_json(json.loads(json.dumps(data)), kp.category)
    tamper(data)
    with pytest.raises(error):
        report_from_json(data, kp.category)


def test_z2_to_the_4_with_trivial_omega_has_one_class_per_pair():
    # every subgroup of Z2^4 is elementary abelian of some rank k, with Schur
    # multiplier of order 2^(k(k-1)/2); G is abelian and omega trivial, so
    # nothing merges: 1 + 15*1 + 35*2 + 15*8 + 1*64 = 270 classes of one pair
    z2 = cyclic_group(2)
    G = direct_product(direct_product(z2, z2), direct_product(z2, z2))
    schur = sum(2 ** (k * (k - 1) // 2) for k in
                (S.order.bit_length() - 1 for S in subgroups(G)))
    report = classify(trivial_category(G))
    assert len(report.pairs) == report.class_count == schur == 270
