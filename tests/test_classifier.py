import hashlib
import importlib
import json
import random
from collections import Counter
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from modcat import (QZ, AlgebraPair, Cochain, InternalInvariantBroken, ParseError,
                    PointedCategory, SizeLimitExceeded, Subgroup,
                    admissible_subgroups, classify, coboundary, criterion_cochain,
                    combine, conjugate_cochain, cyclic_group, cyclic_3cocycle,
                    dihedral_group, direct_product, enumerate_pairs, equivalent_pairs,
                    from_table, generators, is_cocycle, kp_category, nonidentity_tuples,
                    omega_fingerprint, report_from_json,
                    report_to_json, restrict,
                    subgroup_conjugacy_classes, subgroups, validate_pair,
                    zero_cochain)
from modcat import NotCompatible, cohomology, qz
from modcat.classify import DEFAULT_SIZE_LIMIT, _action, _criterion, _move
from modcat.cochains import _index_tuple, _numerators_on
from modcat.cohomology import _h2_classes, numerators
from modcat.pointed import _twist
from oracles import (big_omega_qz, brute_trivial_omega_classes, omega_fingerprint_qz,
                     pushed_obstruction, random_cochain, relabel, restrict_qz, solve_every_g,
                     solve_every_subgroup)
from test_solver import blind_signature, check_with_basis


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


@pytest.mark.parametrize("query", [equivalent_pairs,
                                   lambda a, b: criterion_cochain(a, b, a.H.parent.identity)],
                         ids=["equivalent_pairs", "criterion_cochain"])
def test_pairs_over_two_omegas_on_one_group_are_not_mixed(query):
    from modcat import CategoryMismatch
    G = cyclic_group(4)
    a, b = (next(p for p in enumerate_pairs(cat) if p.H.order == 2)
            for cat in (trivial_category(G), PointedCategory(G, cyclic_3cocycle(G, 2))))
    with pytest.raises(CategoryMismatch):
        query(a, b)


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
        for attr in ("coboundary", "combine", "conjugate_cochain", "restrict", "big_omega"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    report.verify()
    assert all(equivalent_pairs(a, b) is not None for a, b in queries)
    assert len(cohomology.h2_representatives(fresh_view)) == 2


def test_report_from_json_checks_each_pair_once(monkeypatch):
    kp = kp_category()
    data = report_to_json(classify(kp.category, omega_source="kp"))
    module, calls = importlib.import_module("modcat.classify"), []
    real = module.validate_pair

    def counted(cat, H, psi):
        calls.append(H.members)
        return real(cat, H, psi)

    monkeypatch.setattr(module, "validate_pair", counted)
    report = report_from_json(data, kp.category)
    assert len(calls) == len(report.pairs) == 10


# --- verify by linearity -------------------------------------------------------
# classify keeps each pair as psi0 + sum_k m_k r_k over its subgroup's entry;
# verify checks psi0 and every r_k on every row, once, and each pair against
# its decomposition exactly.

def kp_report_and_split_pair():
    """A fresh kp report and the index of a pair with m != 0, on an entry
    with a class generator."""
    report = classify(kp_category().category)
    return report, next(i for i, (_, m) in enumerate(report.parts) if any(m))


def replace_entry(report, i, **fields):
    """Give every pair sharing pair i's entry that entry with these fields."""
    old = report.parts[i][0]
    new = old._replace(**fields)
    report.parts = [(new if e is old else e, m) for e, m in report.parts]


def shifted(c, k, delta):
    """The cochain c with delta added to its k-th value in tuple order."""
    t = list(nonidentity_tuples(c.group, c.degree))[k]
    return Cochain(c.group, c.degree, {**c.values, t: c.value(t) + delta})


def test_verify_rejects_a_tampered_psi0():
    report, i = kp_report_and_split_pair()
    entry = report.parts[i][0]
    view = entry.H.as_group()
    # off the cocycle condition: d(psi0) != omega|_H
    replace_entry(report, i, psi0=shifted(entry.psi0, 0, QZ(1, 3)))
    with pytest.raises(NotCompatible):
        report.verify()
    # a valid psi0 the pairs were not built from
    report, i = kp_report_and_split_pair()
    f = Cochain(view, 1, {(1,): QZ(1, 4)})
    replace_entry(report, i, psi0=combine(entry.psi0, coboundary(f), (1, 1)))
    with pytest.raises(InternalInvariantBroken, match="psi0 \\+ sum"):
        report.verify()


def test_verify_rejects_a_tampered_class_generator():
    report, i = kp_report_and_split_pair()
    entry = report.parts[i][0]
    [(r, d)] = entry.gens
    M, view = entry.H.order, entry.H.as_group()
    # a multiple of M/d below M, like a true generator, but no cocycle
    replace_entry(report, i, gens=((((r[0] + M // d) % M, *r[1:]), d),))
    with pytest.raises(InternalInvariantBroken, match="class generator is not a cocycle"):
        report.verify()
    # a cocycle, but not the generator the pairs were built from
    report, i = kp_report_and_split_pair()
    shift = numerators(coboundary(Cochain(view, 1, {(1,): QZ(1, 2)})), M)
    replace_entry(report, i, gens=((tuple((a + b) % M for a, b in zip(r, shift)), d),))
    with pytest.raises(InternalInvariantBroken, match="psi0 \\+ sum"):
        report.verify()


def tamper_generators(G, table, bad):
    """Give the memoized generators of G's views with this table, in the store
    they share and in each view's own entries, the tuple ``bad``."""
    G._cache["tables"][table]["generators"] = bad
    for view in G._cache["views"].values():
        if view.table == table:
            view._cache["generators"] = bad


@pytest.mark.parametrize("smith_first", [False, True], ids=["cold", "smith-first"])
@pytest.mark.parametrize("bad", [(), "one"])
def test_generators_that_do_not_generate_are_caught(monkeypatch, bad, smith_first):
    """A memoized generating set that does not generate its view: factoring
    H^2 with it raises, as its Schreier tree misses elements, and when the
    Smith form was built before, the class-generator check raises on its
    own closure check."""
    for call in (classify, lambda cat: cohomology.h2_representatives(view)):
        cat = ORACLE_CASES["D8xZ2"]()
        view = next(S.as_group() for S in subgroups(cat.group)
                    if len(S.members) == 8 and not S.as_group().is_abelian())
        S = generators(view)  # fills the store of view's table
        if smith_first:
            basis = cohomology._h2_basis(view)
            assert basis.torsion == [2]
            check_with_basis(monkeypatch, view, basis)
        tamper_generators(cat.group, view.table, S[:1] if bad == "one" else bad)
        with pytest.raises(InternalInvariantBroken):
            call(cat)
    # is_cocycle raises for every nonzero cochain, cocycle or not
    cocycle = coboundary(Cochain(view, 1, {(1,): QZ(1, 4)}))
    for f in (cocycle, combine(cocycle, Cochain(view, 2, {(1, 1): QZ(1, 4)}), (1, 1))):
        with pytest.raises(InternalInvariantBroken, match="generating set"):
            is_cocycle(f)
    assert is_cocycle(zero_cochain(view, 2))


def test_verify_chooses_its_own_generators():
    # verify never reads the generators memo: with every table's memo made
    # () it still accepts the report and still rejects a class generator that
    # is not a cocycle
    report, i = kp_report_and_split_pair()
    G = report.category.group
    for table in G._cache["tables"]:
        tamper_generators(G, table, ())
    report.verify()
    entry = report.parts[i][0]
    [(r, d)] = entry.gens
    M = entry.H.order
    replace_entry(report, i, gens=((((r[0] + M // d) % M, *r[1:]), d),))
    with pytest.raises(InternalInvariantBroken, match="class generator is not a cocycle"):
        report.verify()


# 1/5 at an entry where psi is 0 has no numerator over psi's denominator 4
@pytest.mark.parametrize("delta", [QZ(1, 4), QZ(1, 3), QZ(1, 2), QZ(1, 5)])
def test_verify_rejects_a_psi_entry_off_its_decomposition(delta):
    report, i = kp_report_and_split_pair()
    pair = report.pairs[i]
    for k in range(len(list(nonidentity_tuples(pair.H.as_group(), 2)))):
        report.pairs[i] = AlgebraPair(pair.category, pair.H, shifted(pair.psi, k, delta))
        with pytest.raises(InternalInvariantBroken, match="psi0 \\+ sum"):
            report.verify()
    report.pairs[i] = pair
    report.verify()


def test_verify_rejects_an_altered_m():
    report, i = kp_report_and_split_pair()
    entry, m = report.parts[i]
    d = [d for _, d in entry.gens]
    # zero; the same class with m_k out of range; too long; too short
    for bad in ((0,) * len(m), tuple(a + b for a, b in zip(m, d)), m + (0,), ()):
        report.parts[i] = (entry, bad)
        with pytest.raises(InternalInvariantBroken):
            report.verify()
    report.parts[i] = (entry, m)
    report.verify()


def test_verify_checks_each_entry_and_generator_once(monkeypatch):
    cat = ORACLE_CASES["D8xZ2"]()
    report = classify(cat)
    module, checked, rows = importlib.import_module("modcat.classify"), [], []
    cochains = importlib.import_module("modcat.cochains")
    real_pair, real_rows = module.validate_pair, cochains._coboundary_numerators

    def pair_check(cat, H, psi):
        checked.append(H.members)
        return real_pair(cat, H, psi)

    def full_rows(group, n, x, firsts=None):
        out = real_rows(group, n, x, firsts)
        rows.append((group.table, n, tuple(x), firsts, len(out)))
        return out

    monkeypatch.setattr(module, "validate_pair", pair_check)
    monkeypatch.setattr(module, "_coboundary_numerators", full_rows)  # the witnesses
    monkeypatch.setattr(cochains, "_coboundary_numerators", full_rows)  # _cocycle_on
    report.verify()
    # one psi0 check per subgroup, far fewer than the pairs
    assert sorted(checked) == sorted(S.members for S in subgroups(cat.group))
    assert len(checked) == 35 < len(report.pairs) == 74
    # one cocycle check per distinct (table, generator), and the witnesses'
    # degree-1 checks
    gens = [r[:3] for r in rows if r[1] == 2]
    assert len(gens) == len(set(gens)) == len({
        (e.H.as_group().table, r) for e, _ in report.parts for r, _ in e.gens})
    witnesses = sum(len(blk["witnesses"]) for blk in report.classes)
    assert len(rows) - len(gens) == witnesses
    # each generator check reads the |S| (|H| - 1)^2 generator rows alone, S
    # chosen from the table as generators() chooses it; the witnesses, all rows
    views = {S.as_group().table: S.as_group() for S in subgroups(cat.group)}
    for table, n, _, firsts, read in rows:
        view = views[table]
        if n == 2:
            assert firsts == generators(view)
            assert read == len(firsts) * (view.order - 1) ** 2
        else:
            assert firsts is None and read == (view.order - 1) ** 2
    assert any(n == 2 and len(firsts) < len(t) - 1 for t, n, _, firsts, _ in rows)


@pytest.mark.parametrize("name", ["kp", "D8xZ2"])
def test_parsed_pairs_are_their_own_entries(name):
    cat = ORACLE_CASES[name]()
    data = report_to_json(classify(cat))
    parsed = report_from_json(json.loads(json.dumps(data)), cat)
    assert all(e.psi0 is p.psi and e.gens == () and m == ()
               for p, (e, m) in zip(parsed.pairs, parsed.parts))
    parsed.verify()
    assert report_to_json(parsed) == data
    # one value of one psi off, on a subgroup where that breaks d(psi) = omega|_H
    entry = next(p for p in data["pairs"] if len(p["H"]) >= 4 and p["psi"])["psi"][0]
    entry["val"] = str(qz(entry["val"]) + QZ(1, 3))
    with pytest.raises(NotCompatible):
        report_from_json(data, cat)


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
        lambda d: next(p for p in d["pairs"] if p["psi"])["psi"][0].update(val="1/0"),
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


def test_the_orbit_walk_moves_pairs_by_generators_alone(monkeypatch):
    # D8xZ2 with its elements numbered backwards: generators(G) picks other
    # elements, yet the orbits closed under them are the classes that a
    # pairwise search finds
    G0, module = ORACLE_CASES["D8xZ2"]().group, importlib.import_module("modcat.classify")
    back = [G0.order - 1 - x for x in G0.elements()]  # an involution
    G = from_table(G0.order, [[back[G0.table[back[x]][back[y]]] for y in G0.elements()]
                              for x in G0.elements()])
    assert {back[s] for s in generators(G)} != set(generators(G0))
    cat, walked, real = trivial_category(G), [], module._move

    def recorded(cat, H, g):
        walked.append(g)
        return real(cat, H, g)

    D, decomposed = module._decomposed_pairs(cat)
    pairs, vecs = [pair for pair, *_ in decomposed], [psi for *_, psi in decomposed]
    monkeypatch.setattr(module, "_move", recorded)
    orbits = module._orbits(cat, pairs, vecs, D)
    assert walked and set(walked) <= set(generators(G))
    monkeypatch.undo()
    report = classify(cat)
    assert [members for _, members in orbits] == [blk["members"] for blk in report.classes]
    assert sorted(blk["members"] for blk in report.classes) == pairwise_classes(cat, report.pairs)
    assert report.class_count == 58


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_representatives_and_blocks_follow_the_qz_order(name):
    # each class's representative is its least member by (H.members, psi's
    # Q/Z values at the identity-free tuples), and the blocks are sorted by
    # their representatives in that order
    report = classify(ORACLE_CASES[name]())

    def key(i):
        p = report.pairs[i]
        return p.H.members, tuple(p.psi.value(t) for t in nonidentity_tuples(p.H.as_group(), 2))

    reps = [blk["representative"] for blk in report.classes]
    assert reps == [min(blk["members"], key=key) for blk in report.classes]
    assert [key(i) for i in reps] == sorted(key(i) for i in reps)


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_stored_witnesses_are_those_equivalent_pairs_finds(name):
    report = classify(ORACLE_CASES[name]())
    pairs, checked = report.pairs, 0
    for blk in report.classes:
        rep = pairs[blk["representative"]]
        for m, w in blk["witnesses"]:
            want = equivalent_pairs(pairs[m], rep)
            assert (w.g, w.coboundary_witness) == (want.g, want.coboundary_witness)
            checked += 1
    assert checked == len(pairs) - report.class_count


def unrefused_subgroups(make):
    """The members of each subgroup of make()'s group that contains no subgroup
    that a degree-3 solve refuses (``solve_every_subgroup``, on a category of
    its own), in the order of subgroups(G): those that admissible_subgroups
    solves."""
    every = solve_every_subgroup(make())
    refused = [set(K.members) for K, psi0, _ in every if psi0 is None]
    return [H.members for H, *_ in every if not any(K < set(H.members) for K in refused)]


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_classify_solves_once_per_subgroup_and_per_witness(monkeypatch, name):
    # one admissibility solve per subgroup that contains no subgroup a solve
    # refused, and one solve per non-representative member, at the element
    # the orbit walk found: no trial solves, and no equivalent_pairs search
    module, calls = importlib.import_module("modcat.classify"), []
    real = module._solve

    def counted(*args):
        calls.append((args[1], args[0].members))
        return real(*args)

    def forbidden(*args):
        raise AssertionError("classify searched for a witness")

    solved = unrefused_subgroups(ORACLE_CASES[name])
    monkeypatch.setattr(module, "_solve", counted)
    monkeypatch.setattr(module, "equivalent_pairs", forbidden)
    cat = ORACLE_CASES[name]()
    report = classify(cat)
    others = len(report.pairs) - report.class_count
    assert [n for n, _ in calls] == [3] * len(solved) + [2] * others
    assert [members for n, members in calls if n == 3] == solved
    assert len(solved) == {"kp": 9, "cyclic12-2": 4, "dihedral12-sign": 10}.get(
        name, len(subgroups(cat.group)))
    if name == "D8xZ2":
        assert len(calls) == 51


def cyclic_category(n, q):
    return PointedCategory(cyclic_group(n), cyclic_3cocycle(cyclic_group(n), q))


INFERENCE_CASES = {
    **ORACLE_CASES,
    "dihedral8-sign": lambda: sign_category(8),
    "dihedral16-sign": lambda: sign_category(16),
    **{f"cyclic{n}-{q}": (lambda n=n, q=q: cyclic_category(n, q))
       for n, qs in ((12, (1, 3, 6)), (16, (1, 2, 8)), (32, (1, 4, 16))) for q in qs},
    # a 3-cochain that is no cocycle, which no PointedCategory accepts, though
    # admissible_subgroups reads only these fields and the inference holds for
    # any omega: the rotations of D_8 are refused by a row of d^3, and D_8
    # unsolved
    "dihedral8-noncocycle": lambda: SimpleNamespace(
        group=dihedral_group(8), den=2,
        omega=Cochain(dihedral_group(8), 3, {(2, 1, 1): QZ(1, 2)})),
}


@pytest.mark.parametrize("name", sorted(INFERENCE_CASES))
def test_refusal_by_inclusion_matches_a_solve_on_every_subgroup(monkeypatch, name):
    # admissible_subgroups solves only the subgroups that contain no refused
    # one, and gives what a solve on every subgroup gives; the obstruction of
    # a refused K inside a skipped H, moved up the inclusion, refuses H: it is
    # in the left kernel of d^2 on H and does not vanish on omega|_H
    module, solved = importlib.import_module("modcat.classify"), set()
    real = module._solve

    def recorded(group, n, b, D):
        solved.add(group.members)
        return real(group, n, b, D)

    cat = INFERENCE_CASES[name]()
    monkeypatch.setattr(module, "_solve", recorded)
    got = admissible_subgroups(cat)
    monkeypatch.undo()
    every = solve_every_subgroup(cat)
    assert [(H.members, psi0.values) for H, psi0 in got] == \
        [(H.members, psi0.values) for H, psi0, _ in every if psi0 is not None]
    refused = [(K, i) for K, psi0, i in every if psi0 is None]
    skipped = [H for H, *_ in every if H.members not in solved]
    assert skipped == [H for H, _ in refused
                       if any(set(K.members) < set(H.members) for K, _ in refused)]
    if name in ("kp", "dihedral12-sign", "cyclic12-2"):
        assert skipped
    D, rows_of_d3 = cat.den, 0
    for H in skipped:
        view, omega = H.as_group(), _numerators_on(cat.omega, H.members, D)
        below = [(K, i) for K, i in refused
                 if K.members in solved and set(K.members) < set(H.members)]
        assert below
        for K, i in below:
            rows_of_d3 += i >= len(cohomology._factor(K.as_group(), 2).kernel)
            z = pushed_obstruction(K, i, H)
            rows = cohomology._coboundary_rows(view, 2, (_index_tuple(view, j, 3) for j, _ in z))
            zA = Counter()
            for j, c in z:
                for col, v in rows[j]:
                    zA[col] += c * v
            assert not any(zA.values())
            assert sum(c * omega[j] for j, c in z) % D
    assert bool(rows_of_d3) == (name == "dihedral8-noncocycle")


@pytest.mark.parametrize("make, orders", [
    (lambda: cyclic_category(64, 1), [2]),
    (ORACLE_CASES["dihedral12-sign"], [2]),
    (ORACLE_CASES["kp"], [4]),
], ids=["cyclic64-1", "dihedral12-sign", "kp"])
def test_only_solved_subgroups_factor_d2(make, orders):
    # the echelon form of d^2 is built for a table only where a solve reads
    # it: none above a refused subgroup, and none where omega restricts to
    # zero.  Solving every subgroup built it for the tables of orders 2, 4,
    # 8, 16, 32 and 64, of 2, 4, 6 and 12, and of 4 and 8
    cat = make()
    classify(cat, size_limit=64)
    tables = cat.group._cache["tables"]
    assert sorted(len(t) for t, store in tables.items() if ("echelon", 2) in store) == orders
    assert ("echelon", 2) not in cat.group._cache


def test_tampered_kernel_functional_makes_classify_raise(monkeypatch):
    kp = kp_category()
    assert classify(kp.category).class_count == 6
    view = kp.L.as_group()
    d1 = cohomology._factored_rows(view)
    kernel = cohomology._factor(view, 1).kernel
    assert kernel
    real = cohomology.echelon_form
    for k, z in enumerate(kernel):
        (j, c), *rest = z
        bad = ((j, c + (1 if c > 0 else -1)), *rest)  # z A + (row j of A), never 0
        assert not cohomology._in_left_kernel(bad, d1)

        def tampered(rows, ncols, k=k, bad=bad):
            ech = real(rows, ncols)
            if rows == d1:  # d^1 of every group with L's table
                ech.kernel[k] = bad
            return ech
        monkeypatch.setattr(cohomology, "echelon_form", tampered)
        with pytest.raises(InternalInvariantBroken):
            classify(kp_category().category)


KEPT_CYCLE_CASES = {
    "kp": lambda: kp_category().category,
    "D8xZ2": lambda: trivial_category(direct_product(dihedral_group(8), cyclic_group(2))),
    "Z4xZ4": lambda: trivial_category(direct_product(cyclic_group(4), cyclic_group(4))),
    "Z2^4": lambda: trivial_category(direct_product(klein_group(), klein_group())),
}


@pytest.mark.parametrize("name", sorted(KEPT_CYCLE_CASES))
def test_tampered_kept_cycle_makes_classify_raise(monkeypatch, name):
    """A kept cycle z of a view's signature plus |H| times a unit vector pairs
    with every H^2 candidate like z, mod |H|, so it still tells the classes
    apart; it is not a cycle, and classify must raise, for every cycle of the
    shared Smith entry of every view that carries pairs (one per table)."""
    cases = {}
    for H in {p.H for p in classify(KEPT_CYCLE_CASES[name]()).pairs}:
        view = H.as_group()
        for k, z in enumerate(cohomology._h2_classes(view).cycles):
            cases.setdefault((view.table, k), (view, z))
    assert cases
    real = cohomology._h2_basis
    for (table, k), (view, z) in cases.items():
        (j, c), *rest = z
        bad = ((j, c + view.order), *rest)
        assert not cohomology._in_left_kernel(bad, cohomology._factored_rows(view))

        def tampered(group, k=k, bad=bad, table=table):
            basis = real(group)
            if group.table == table:  # the Smith entry of every view with this table
                basis.cycles[k] = bad
            return basis
        monkeypatch.setattr(cohomology, "_h2_basis", tampered)
        with pytest.raises(InternalInvariantBroken, match="kernel functional"):
            classify(KEPT_CYCLE_CASES[name]())


def test_no_coboundary_matrix_above_degree_1_is_built(monkeypatch):
    """Factorizations of d^2 eliminate only the relation matrix, and every
    full-row check runs matrix-free, so classify, verify, H^2 and solves never
    build as many as |S| (|G| - 1)^n rows of d^n for n >= 2, S = generators(G),
    in one call, not even for a target that is not a cocycle, unless that is
    one row: on a group of order 2 the one kernel functional of d^2 is its
    one row."""
    real, built = cohomology._coboundary_rows, []

    def rows(group, degree, tuples):
        tuples = list(tuples)
        bound = len(generators(group)) * (group.order - 1) ** degree
        if degree >= 2 and len(tuples) >= bound > 1:
            raise AssertionError(f"{len(tuples)} rows of d^{degree} were built")
        built.append(degree)
        return real(group, degree, tuples)

    monkeypatch.setattr(cohomology, "_coboundary_rows", rows)
    rng = random.Random(3)
    for name in ("kp", "cyclic12-2", "dihedral12-sign", "D8xZ2"):
        cat = ORACLE_CASES[name]()
        classify(cat).verify()
        G = cat.group
        assert len(cohomology.h2_representatives(G)) == cohomology.h2_order(G)
        exact = coboundary(random_cochain(G, 2, rng))
        targets = (cat.omega, exact, combine(cat.omega, exact, (1, 1)))
        witnesses = [cohomology.solve_coboundary(t) for t in targets]
        assert witnesses[1] is not None and (witnesses[0] is None) == (witnesses[2] is None)
        assert all(w is None or coboundary(w) == t for w, t in zip(witnesses, targets))
        # changed at a tuple whose first argument is not a generator, so it
        # passes every kernel functional and is caught by a row of d^3
        S = set(generators(G))
        t = next(t for t in nonidentity_tuples(G, 3) if t[0] not in S)
        bad = combine(exact, Cochain(G, 3, {t: QZ(1, 2)}), (1, 1))
        row = cohomology.image_obstruction(bad)
        assert row >= len(cohomology._factor(G, 2).kernel)
    # rows of d^2 were built, the tree rows and those an obstruction reads,
    # and single rows of d^3
    assert 2 in built and 3 in built


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



# sha256 of the report JSON, as ``classify --format json`` writes it, of the
# benchmark's fixtures that no command line in test_cli names; their groups
# are built from bare tables, with element names g0, g1, ...
BENCH_REPORT_SHA256 = {
    "D8xZ2": "ea1f617179aa66441708da0d613331a46e785630762238aa69958184530d46bb",
    "Z4xZ4": "b8823e8aab1766420d8f42a158a66d5a95dbdfd44c831e46e629d71bfba35c2c",
    "dihedral:12 sign": "99e75f65191ba1cfad9c2dfd9a9fda30dfa359b13eeb0841949d18055b4ca656",
}


# the same for D8 x Z2 x Z2 with a trivial omega (order 32: 726 pairs in 534
# classes), where checking the H^2 class generators on the generator rows
# alone saves most
D8XZ2XZ2_REPORT_SHA256 = "cca61b49db26e69e16c61bd207e74e43f40b3a3ff10ea63ffa0d7b75f1a12ce6"


@pytest.mark.pinned
def test_d8xz2xz2_report_bytes_are_pinned():
    G = direct_product(direct_product(dihedral_group(8), cyclic_group(2)), cyclic_group(2))
    G = from_table(G.order, G.table)
    report = classify(trivial_category(G), size_limit=32)
    assert (len(report.pairs), report.class_count) == (726, 534)
    text = json.dumps(report_to_json(report), sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == D8XZ2XZ2_REPORT_SHA256


@pytest.mark.pinned
@pytest.mark.parametrize("name", sorted(BENCH_REPORT_SHA256))
def test_bench_fixture_report_bytes_are_pinned(name):
    if name == "dihedral:12 sign":  # the sign of D_12 pulled back from Z_2
        G, refl = dihedral_group(12), range(6, 12)
        omega = {(a, b, c): QZ(1, 2) for a in refl for b in refl for c in refl}
    else:
        a, b = (dihedral_group(8), cyclic_group(2)) if name == "D8xZ2" else \
            (cyclic_group(4), cyclic_group(4))
        G, omega = direct_product(a, b), {}
    G = from_table(G.order, G.table)
    report = classify(PointedCategory(G, Cochain(G, 3, omega)))
    text = json.dumps(report_to_json(report), sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_REPORT_SHA256[name]


# --- the category's table of moves -------------------------------------------

MOVE_CASES = {
    "kp": ORACLE_CASES["kp"],
    "cyclic12-2": ORACLE_CASES["cyclic12-2"],
    "dihedral12-sign": ORACLE_CASES["dihedral12-sign"],
    "D8xZ2": ORACLE_CASES["D8xZ2"],
}


@pytest.mark.parametrize("name", sorted(MOVE_CASES))
def test_memoized_moves_match_the_qz_definition(name):
    # each pair's psi, and one random 2-cochain per subgroup so that psi = 0
    # does not hide the permutation; D is twice a common denominator so that
    # the twist, stored over cat.den, has to be scaled
    cat, rng = MOVE_CASES[name](), random.Random(11)
    G = cat.group
    cochains = [(p.H, p.psi) for p in enumerate_pairs(cat)]
    cochains += [(H, random_cochain(H.as_group(), 2, rng, 6))
                 for H in {H.members: H for H, _ in cochains}.values()]
    for H, psi in cochains:
        D = 2 * lcm(cat.den, *(v.den for v in psi.values.values()))
        x = numerators(psi, D)
        for g in G.elements():
            move = _move(cat, H, g)
            assert cat._moves[H.members, g] is move
            L, perm, twist, fixed = move
            moved = conjugate_cochain(psi, g)
            assert moved.group.members == L
            twist_on_L = restrict_qz(big_omega_qz(cat, g), Subgroup(G, L))
            want = combine(moved, twist_on_L, (1, 1))
            assert [v % D for v in _criterion(move, cat.den, x, [0] * len(move.perm), D)] == \
                [v % D for v in numerators(want, D)]
            assert (twist is None) == twist_on_L.is_zero()
            assert fixed == (L == H.members and twist is None
                             and list(perm) == sorted(perm))


def qz_numerators(c, D):
    """c's Q/Z values at the identity-free tuples of its group, in
    lexicographic order, as numerators over D."""
    return [c.value(t).scaled_num(D) for t in nonidentity_tuples(c.group, c.degree)]


def random_3cochain_on_z4xz4():
    """A random normalized 3-cochain on Z4xZ4, not a cocycle, so no category:
    ``_twist`` and ``big_omega_qz`` read only the group, omega and den."""
    G = direct_product(cyclic_group(4), cyclic_group(4))
    omega = random_cochain(G, 3, random.Random(5), den=8)
    return SimpleNamespace(group=G, omega=omega,
                           den=lcm(*(v.den for v in omega.values.values())))


@pytest.mark.parametrize("name", sorted(MOVE_CASES) + ["Z4xZ4-random"])
def test_reads_by_index_match_the_qz_oracles(name):
    # omega and a random 2-cochain restricted to every subgroup, over twice a
    # common denominator, and every twist on every subgroup, over cat.den and
    # in [0, den), against the package's earlier Q/Z restriction and twist
    cat = MOVE_CASES.get(name, random_3cochain_on_z4xz4)()
    G = cat.group
    for c in (random_cochain(G, 2, random.Random(13), den=6), cat.omega):
        D = 2 * lcm(*(v.den for v in c.values.values()))
        for H in subgroups(G):
            assert _numerators_on(c, H.members, D) == qz_numerators(restrict_qz(c, H), D)
    for g in G.elements():
        twist = big_omega_qz(cat, g)
        for H in subgroups(G):
            assert _twist(cat, g, H.members) == \
                qz_numerators(restrict_qz(twist, H), cat.den)


def witness_moves(report):
    """The table keys of the moves each stored witness was found with."""
    return [(report.pairs[m].H, w.g) for blk in report.classes
            for m, w in blk["witnesses"]]


def test_tampered_move_twist_is_caught_by_verify():
    # on a subgroup of order 2 every 2-cochain is a coboundary, so a changed
    # twist numerator still gives the witness search an answer, and only
    # verify, which builds each move afresh from the group table and omega,
    # can see that the witness is wrong
    cat = kp_category().category
    report = classify(cat)
    H, g = next((H, g) for H, g in witness_moves(report) if H.order == 2)
    entry = cat._moves[H.members, g]
    bad = list(entry.twist or [0] * len(entry.perm))
    bad[0] += 1
    cat._moves[H.members, g] = entry._replace(twist=tuple(bad), fixed=False)
    with pytest.raises(InternalInvariantBroken, match="witness coboundary mismatch"):
        classify(cat)


def test_swapped_move_entries_never_give_a_wrong_report():
    cat = kp_category().category
    clean = classify(cat)
    partition = [blk["members"] for blk in clean.classes]
    H, g = next((H, g) for H, g in witness_moves(clean) if H.order == 4)
    entry = cat._moves[H.members, g]
    outcomes = set()
    for i in range(len(entry.perm)):
        for j in range(i + 1, len(entry.perm)):
            swapped = list(entry.perm)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            cat._moves[H.members, g] = entry._replace(perm=tuple(swapped), fixed=False)
            try:
                report = classify(cat)
            except InternalInvariantBroken:
                outcomes.add("raised")
                continue
            assert [blk["members"] for blk in report.classes] == partition
            # a category with its own, untampered table re-checks every witness
            report_from_json(report_to_json(report), kp_category().category)
            outcomes.add("same" if report_to_json(report) == report_to_json(clean)
                         else "other witnesses")
    cat._moves[H.members, g] = entry
    assert "raised" in outcomes  # the swaps did reach the witness solve


def tamper_generator_moves(cat, H, change):
    """Fill the move table of a category at H and each of generators(G) with
    change(move), marked as moving something."""
    for s in generators(cat.group):
        cat._moves[H.members, s] = change(_action(cat, H, s))._replace(fixed=False)


def test_an_image_that_matches_no_pair_makes_classify_raise():
    # a twist of 1/4 at a row that the cycle of L's H^2 reads an odd number of
    # times moves the signature of every image by a quarter of its range, and
    # the two classes on L lie half the range apart
    kp = kp_category()
    cat, [z] = kp.category, _h2_classes(kp.L.as_group()).cycles
    assert cat.den == 4
    k = next(k for k, c in z if c % 2)

    def shifted(move):
        twist = list(move.twist or [0] * len(move.perm))
        twist[k] = (twist[k] + 1) % cat.den
        return move._replace(twist=tuple(twist))

    tamper_generator_moves(cat, kp.L, shifted)
    with pytest.raises(InternalInvariantBroken, match="an image matches no pair"):
        classify(cat)


def test_an_image_in_another_orbit_makes_classify_raise():
    # moves that carry a Klein four-group of D8xZ2 onto a cyclic subgroup of
    # order 4 send its pairs onto the pair of another conjugacy class
    cat = ORACLE_CASES["D8xZ2"]()
    G = cat.group

    def cyclic(S):
        return any(G.element_order(x) == S.order for x in S.members)

    klein = next(blk[0] for blk in subgroup_conjugacy_classes(G)
                 if blk[0].order == 4 and not cyclic(blk[0]))
    C4 = next(S for S in subgroups(G) if S.order == 4 and cyclic(S))
    tamper_generator_moves(cat, klein, lambda move: move._replace(L=C4.members))
    with pytest.raises(InternalInvariantBroken, match="the orbits of two pairs overlap"):
        classify(cat)


def fresh_pair(pair):
    """The same pair over a newly built category, whose move table is empty."""
    cat = PointedCategory(pair.category.group, pair.category.omega)
    return validate_pair(cat, pair.H, pair.psi)


@pytest.mark.parametrize("name", ["kp", "dihedral16"])
def test_warm_and_fresh_tables_give_the_same_witnesses(name):
    cat = ORACLE_CASES[name]()
    report = classify(cat)
    assert cat._moves
    block_of = {S.members: k for k, blk in enumerate(subgroup_conjugacy_classes(cat.group))
                for S in blk}
    pairs = report.pairs
    found = 0
    for a in pairs:
        for b in pairs:
            if block_of[a.H.members] != block_of[b.H.members]:
                continue
            warm, fresh = equivalent_pairs(a, b), equivalent_pairs(fresh_pair(a), fresh_pair(b))
            assert (warm is None) == (fresh is None)
            if warm is not None:
                assert (warm.g, warm.coboundary_witness) == (fresh.g, fresh.coboundary_witness)
                found += 1
    assert found > len(pairs)


# --- equivalence queries filtered by the H^2 signature ------------------------

def conjugacy_blocks(G):
    """{subgroup members: the index of its conjugacy class}."""
    return {S.members: k for k, blk in enumerate(subgroup_conjugacy_classes(G)) for S in blk}


def scan_queries(cat, rng):
    """Every ordered two of the enumerated pairs over conjugate subgroups, and
    each pair over a nontrivial subgroup against a copy of it moved by a random
    g and shifted by a random coboundary, (g^-1 H g, psi^g + big_omega(g) +
    df), in both orders: the copy is equivalent to the pair."""
    G, pairs = cat.group, enumerate_pairs(cat)
    block_of = conjugacy_blocks(G)
    queries = [(a, b) for a in pairs for b in pairs
               if block_of[a.H.members] == block_of[b.H.members]]
    for a in pairs:
        if a.H.order > 1:
            g = rng.randrange(G.order)
            L = Subgroup(G, conjugate_cochain(a.psi, g).group.members)
            moved = combine(conjugate_cochain(a.psi, g), restrict_qz(big_omega_qz(cat, g), L),
                            (1, 1))
            df = coboundary(random_cochain(L.as_group(), 1, rng, 6))
            copy = validate_pair(cat, L, combine(moved, df, (1, 1)))
            queries += [(a, copy), (copy, a)]
    return queries


def answer(w):
    """A query's answer as g and the witness numerators over its denominator."""
    return None if w is None else (w.g, w.coboundary_witness.den,
                                   tuple(w.coboundary_witness.nums))


def table_stores(G):
    """Every table store of G and the own entries of each of its views."""
    return [*G._cache.get("tables", {}).values(),
            *(v._cache for v in G._cache.get("views", {}).values())]


@pytest.mark.pinned
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_signature_scan_answers_as_the_solve_every_g_scan(name):
    cat = ORACLE_CASES[name]()
    queries = scan_queries(cat, random.Random(5))
    want = [answer(solve_every_g(a, b)) for a, b in queries]
    assert any(want)
    if name in ("D8xZ2", "dihedral16", "dihedral8"):  # two classes on one block
        assert None in want
    if name == "kp":  # some answer's g has a twist on the subgroup it moves
        assert any(cat._moves[a.H.members, w[0]].twist for (a, _), w in zip(queries, want)
                   if w and w[0])
    # after enumerate_pairs (in scan_queries) the checked H^2 classes are
    # memoized, and the queries read their signature
    assert any("h2" in store for store in table_stores(cat.group))
    assert [answer(equivalent_pairs(a, b)) for a, b in queries] == want
    classify(cat)  # reads the same "h2" entries, and memoizes no other H^2 entry
    assert not any(key in store for store in table_stores(cat.group)
                   for key in (("smith", 2), "signature"))
    assert [answer(equivalent_pairs(a, b)) for a, b in queries] == want


@pytest.mark.parametrize("name", ["kp", "dihedral12-sign", "D8xZ2"])
def test_signature_without_cycles_changes_no_answer(name):
    # a blind signature, kernel (), lets every g through to the solve
    cat = ORACLE_CASES[name]()
    classify(cat)
    queries = scan_queries(cat, random.Random(7))
    want = [answer(solve_every_g(a, b)) for a, b in queries]
    for store in table_stores(cat.group):
        if "h2" in store:
            store["h2"] = blind_signature(store["h2"])
    assert [answer(equivalent_pairs(a, b)) for a, b in queries] == want


def test_warm_query_solves_only_where_it_finds_a_witness(monkeypatch):
    module, calls = importlib.import_module("modcat.classify"), []
    real = module._solve

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    cat = ORACLE_CASES["D8xZ2"]()
    classify(cat)
    queries = scan_queries(cat, random.Random(5))
    monkeypatch.setattr(module, "_solve", counted)
    found = 0
    for a, b in queries:
        calls.clear()
        w = equivalent_pairs(a, b)
        assert calls == ([] if w is None else [2])
        found += w is not None
    assert 0 < found < len(queries)


def test_query_after_enumerate_pairs_reads_the_h2_signature(monkeypatch):
    # enumerate_pairs memoizes the checked H^2 classes of every view's table;
    # a query reads their signature, so a "no" makes no solve; once those
    # entries are dropped, the queries are cold and compute none again
    module, calls = importlib.import_module("modcat.classify"), []
    real = module._solve

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    cat = ORACLE_CASES["D8xZ2"]()
    queries = scan_queries(cat, random.Random(5))
    want = [answer(solve_every_g(a, b)) for a, b in queries]
    assert None in want and not any("signature" in s for s in table_stores(cat.group))
    monkeypatch.setattr(module, "_solve", counted)
    for (a, b), w in zip(queries, want):
        calls.clear()
        assert answer(equivalent_pairs(a, b)) == w
        assert calls == ([] if w is None else [2])
    for store in table_stores(cat.group):
        store.pop("h2", None)
    cold = 0
    for (a, b), w in zip(queries, want):
        calls.clear()
        assert answer(equivalent_pairs(a, b)) == w
        cold += w is None and len(calls) > 0
    assert cold and h2_entries(cat.group) == []


def h2_entries(G):
    return [(id(store), key) for store in table_stores(G) for key in store
            if key in (("smith", 2), "signature", "h2")]


def test_cold_query_computes_no_h2():
    # D8xZ2, pairs built by hand: psi = 0 and a coboundary on every subgroup,
    # queried against each other over conjugate subgroups; nothing asked for
    # H^2, and no query does
    cat, rng = ORACLE_CASES["D8xZ2"](), random.Random(3)
    G = cat.group
    pairs = [AlgebraPair(cat, H, psi) for H in subgroups(G) if H.order > 1
             for psi in (zero_cochain(H.as_group(), 2),
                         coboundary(random_cochain(H.as_group(), 1, rng, 4)))]
    block_of = conjugacy_blocks(G)
    found = [equivalent_pairs(a, b) for a in pairs for b in pairs
             if block_of[a.H.members] == block_of[b.H.members]]
    assert all(found) and h2_entries(G) == []
    # kp: the fixture checks the Klein subgroup's H^2 itself, so its table
    # holds an "h2" entry; the twist by x merges xi with 0, and no query adds
    # an entry
    kp = kp_category()
    before = h2_entries(kp.category.group)
    zero = AlgebraPair(kp.category, kp.L, zero_cochain(kp.L.as_group(), 2))
    assert equivalent_pairs(zero, AlgebraPair(kp.category, kp.L, kp.xi_nontrivial)).g == kp.x
    assert h2_entries(kp.category.group) == before


@pytest.mark.parametrize("name", ["kp", "cyclic12-2", "cyclic64-1", "dihedral12-sign"])
def test_omega_fingerprint_matches_the_qz_formula(name):
    omega = {"kp": lambda: kp_category().category.omega,
             "cyclic12-2": lambda: cyclic_3cocycle(cyclic_group(12), 2),
             "cyclic64-1": lambda: cyclic_3cocycle(cyclic_group(64), 1),
             "dihedral12-sign": lambda: sign_category(12).omega}[name]()
    assert omega_fingerprint(omega) == omega_fingerprint_qz(omega)


# --- subgroup classes and moves, against the table --------------------------

def conjugation_orbits(G):
    """The blocks of subgroup_conjugacy_classes as member tuples, each orbit
    taken under conjugation by every element of G, from the table."""
    seen, blocks = set(), []
    for S in subgroups(G):
        if S.members not in seen:
            orbit = sorted({tuple(sorted(G.table[G.table[g][x]][G.inverse[g]]
                                         for x in S.members)) for g in G.elements()})
            seen.update(orbit)
            blocks.append(orbit)
    return blocks


@pytest.mark.parametrize("name", sorted(ORACLE_CASES) + ["D8xZ2-relabelled"])
def test_subgroup_classes_are_the_orbits_under_all_of_g(name):
    if name == "D8xZ2-relabelled":
        G = relabel(ORACLE_CASES["D8xZ2"]().group, random.Random(7))
    else:
        G = ORACLE_CASES[name]().group
    blocks = [[S.members for S in blk] for blk in subgroup_conjugacy_classes(G)]
    assert blocks == conjugation_orbits(G)
    if name != "cyclic12-2":  # an abelian group has one subgroup per block
        assert any(len(blk) > 1 for blk in blocks)


def table_move(G, H, g):
    """g's move on 2-cochains on H for a zero omega, from the table: L = g^-1
    H g, and row (x, y) of L reads row (g x g^-1, g y g^-1) of H."""
    def conj(g, x):
        return G.table[G.table[g][x]][G.inverse[g]]

    Lm = tuple(sorted(conj(G.inverse[g], h) for h in H.members))
    ids = [x for x in Lm if x != G.identity]
    hids = [h for h in H.members if h != G.identity]
    perm = tuple(hids.index(conj(g, x)) * len(hids) + hids.index(conj(g, y))
                 for x in ids for y in ids)
    return Lm, perm, None, Lm == H.members and perm == tuple(range(len(perm)))


def test_trivial_omega_moves_match_the_table():
    cat = ORACLE_CASES["D8xZ2"]()
    G, fixed = cat.group, []
    for H in subgroups(G):
        for g in G.elements():
            move = _action(cat, H, g)
            assert tuple(move) == table_move(G, H, g)
            if move.fixed:
                fixed.append((H, g))
    assert fixed == [(H, g) for H in subgroups(G) for g in G.elements()
                     if all(G.conj(g, x) == x for x in H.members)]
    assert len(fixed) < len(subgroups(G)) * G.order


def test_a_centralizing_g_keeps_its_twist():
    # kp's omega is nonzero: a g that centralizes H moves no row of H, yet its
    # twist big_omega(g)|_H can be nonzero, and then the move is not fixed
    cat = kp_category().category
    G, twisted = cat.group, 0
    for H in subgroups(G):
        for g in G.elements():
            if all(G.conj(g, x) == x for x in H.members):
                move, twist = _action(cat, H, g), tuple(_twist(cat, g, H.members))
                assert move.L == H.members and move.perm == tuple(range(len(move.perm)))
                assert move.twist == (twist if any(twist) else None)
                assert move.fixed == (not any(twist))
                twisted += any(twist)
    assert twisted
