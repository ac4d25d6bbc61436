"""Enumeration and equivalence classification of algebra pairs (H, psi).

Two pairs label equivalent module categories exactly when some group element
g conjugates one subgroup onto the other and the combination
-xi + psi^g + big_omega(g), restricted to L, is a coboundary.  The classifier
enumerates all pairs (admissible subgroups times second-cohomology
representatives), partitions them with union-find under that test, and emits
a deterministic, re-verifiable report.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

from .cochains import (Cochain, cochain_from_json, coboundary, combine,
                       conjugate_cochain, restrict)
from .cohomology import h2_representatives, solve_coboundary, warm_degree2_solver
from .errors import (CategoryMismatch, InternalInvariantBroken, ParseError,
                     SizeLimitExceeded)
from .groups import (Subgroup, conjugate_subgroup, group_from_json,
                     group_to_json, subgroup_conjugacy_classes, subgroups)
from .pointed import AlgebraPair, PointedCategory, big_omega, validate_pair

__all__ = [
    "EquivalenceWitness",
    "ClassificationReport",
    "DEFAULT_SIZE_LIMIT",
    "admissible_subgroups",
    "enumerate_pairs",
    "criterion_cochain",
    "equivalent_pairs",
    "classify",
    "omega_fingerprint",
    "report_to_json",
    "report_from_json",
]

DEFAULT_SIZE_LIMIT = 16


class EquivalenceWitness:
    """An element g with a 1-cochain f certifying equivalence of two pairs:
    the conjugate of L by g is H and df = -xi + psi^g + big_omega(g) on L."""

    __slots__ = ("g", "coboundary_witness")

    def __init__(self, g: int, coboundary_witness: Cochain):
        self.g = g
        self.coboundary_witness = coboundary_witness

    def __repr__(self):
        return f"EquivalenceWitness(g={self.g})"


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx

    def groups(self) -> List[List[int]]:
        out = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return [sorted(v) for _, v in sorted(out.items())]


def admissible_subgroups(cat: PointedCategory) -> List[Tuple[Subgroup, Cochain]]:
    """Subgroups on which omega restricts to a coboundary, with a base witness."""
    out = []
    for H in subgroups(cat.group):
        psi0 = solve_coboundary(restrict(cat.omega, H))
        if psi0 is not None:
            out.append((H, psi0))
    return out


def enumerate_pairs(cat: PointedCategory) -> List[AlgebraPair]:
    """All pairs (H, psi0 + r) over admissible H and H^2 representatives r."""
    out = []
    for H, psi0 in admissible_subgroups(cat):
        for rep in h2_representatives(H.as_group()):
            out.append(validate_pair(cat, H, combine(psi0, rep, (1, 1))))
    return out


def criterion_cochain(a: AlgebraPair, b: AlgebraPair, g: int) -> Cochain:
    """-xi + psi^g + big_omega(g), restricted to b's subgroup L.

    Only meaningful when g conjugates L onto a's subgroup; the result is then
    a 2-cocycle on L whose triviality decides equivalence.
    """
    cat = a.category
    psi_conj = conjugate_cochain(a.psi, g)
    twist = restrict(big_omega(cat, g), b.H)
    return combine(combine(b.psi, psi_conj, (-1, 1)), twist, (1, 1))


def equivalent_pairs(a: AlgebraPair, b: AlgebraPair) -> Optional[EquivalenceWitness]:
    """Scan g in index order; return the first verified witness, or None."""
    if a.category != b.category:
        raise CategoryMismatch("pairs belong to different categories")
    G = a.category.group
    if a.H.order != b.H.order:
        return None
    target = a.H.members
    for g in G.elements():
        if conjugate_subgroup(G, b.H, g).members != target:
            continue
        witness = solve_coboundary(criterion_cochain(a, b, g))
        if witness is not None:
            return EquivalenceWitness(g, witness)
    return None


class ClassificationReport:
    """Partition of the enumerated pairs into equivalence classes.

    ``classes`` is a list of blocks; each block holds the canonical
    representative index, all member indices, the rank [G:H] shared by the
    class, and a verified witness from every non-representative member to the
    representative.
    """

    __slots__ = ("category", "pairs", "classes", "omega_source")

    def __init__(self, category, pairs, classes, omega_source):
        self.category = category
        self.pairs = pairs
        self.classes = classes
        self.omega_source = omega_source

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def verify(self):
        """Re-check every pair condition and every stored witness, bit-exactly."""
        for pair in self.pairs:
            validate_pair(self.category, pair.H, pair.psi)
        for block in self.classes:
            rep = self.pairs[block["representative"]]
            for member, w in block["witnesses"]:
                pair = self.pairs[member]
                if conjugate_subgroup(self.category.group, rep.H, w.g).members \
                        != pair.H.members:
                    raise InternalInvariantBroken("witness conjugation mismatch")
                crit = criterion_cochain(pair, rep, w.g)
                if coboundary(w.coboundary_witness) != crit:
                    raise InternalInvariantBroken("witness coboundary mismatch")


def _candidate_edges(pairs, class_of_members) -> List[Tuple[int, int]]:
    """Pairs of indices worth testing: subgroups conjugate (hence equal order)."""
    edges = []
    for i in range(len(pairs)):
        ci = class_of_members[pairs[i].H.members]
        for j in range(i + 1, len(pairs)):
            if class_of_members[pairs[j].H.members] == ci:
                edges.append((i, j))
    return edges


def classify(cat: PointedCategory, size_limit: int = DEFAULT_SIZE_LIMIT,
             jobs: int = 1, omega_source: str = "inline",
             progress=None) -> ClassificationReport:
    """Partition all pairs of the category under the equivalence test.

    ``jobs`` > 1 evaluates candidate comparisons in a thread pool; the
    resulting report is byte-identical regardless of parallelism because the
    partition is schedule-independent and witnesses are recomputed in
    canonical order afterwards.
    """
    G = cat.group
    if G.order > size_limit:
        raise SizeLimitExceeded(
            f"group order {G.order} exceeds the limit {size_limit}")

    say = progress or (lambda msg: None)
    say("enumerating pairs")
    pairs = enumerate_pairs(cat)

    class_of_members = {}
    for ci, block in enumerate(subgroup_conjugacy_classes(G)):
        for S in block:
            class_of_members[S.members] = ci

    edges = _candidate_edges(pairs, class_of_members)
    say(f"{len(pairs)} pairs, {len(edges)} candidate comparisons")

    uf = UnionFind(len(pairs))
    if jobs <= 1:
        for i, j in edges:
            if uf.find(i) == uf.find(j):
                continue
            if equivalent_pairs(pairs[i], pairs[j]) is not None:
                uf.union(i, j)
    else:
        # build all shared caches serially; the workers then only read
        for members in sorted({p.H.members for p in pairs}):
            warm_degree2_solver(Subgroup(G, members, _checked=True).as_group())
        for g in G.elements():
            big_omega(cat, g)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            k = 0
            while k < len(edges):
                batch = []
                while k < len(edges) and len(batch) < jobs:
                    i, j = edges[k]
                    k += 1
                    if uf.find(i) != uf.find(j):
                        batch.append((i, j))
                results = pool.map(
                    lambda e: equivalent_pairs(pairs[e[0]], pairs[e[1]]), batch)
                for (i, j), w in zip(batch, results):
                    if w is not None:
                        uf.union(i, j)

    say("building report")
    blocks = []
    for component in uf.groups():
        rep = min(component, key=lambda i: pairs[i].key())
        witnesses = []
        for member in component:
            if member == rep:
                continue
            w = equivalent_pairs(pairs[member], pairs[rep])
            if w is None:
                raise InternalInvariantBroken(
                    "connected pairs lost their direct witness")
            witnesses.append((member, w))
        blocks.append({
            "representative": rep,
            "members": component,
            "rank": pairs[rep].rank,
            "witnesses": witnesses,
        })
    blocks.sort(key=lambda blk: pairs[blk["representative"]].key())
    report = ClassificationReport(cat, pairs, blocks, omega_source)
    report.verify()
    return report


def omega_fingerprint(omega: Cochain) -> str:
    h = hashlib.sha256()
    h.update(repr((omega.group.table, omega.group.names)).encode())
    h.update(repr([(args, str(v)) for args, v in omega.items()]).encode())
    return h.hexdigest()


def _cochain_values_json(c: Cochain):
    return [{"args": list(args), "val": str(v)} for args, v in c.items()]


def report_to_json(report: ClassificationReport) -> dict:
    cat = report.category
    return {
        "group": group_to_json(cat.group),
        "omega": {"hash": omega_fingerprint(cat.omega),
                  "source": report.omega_source},
        "pairs": [{"H": list(p.H.members),
                   "psi": _cochain_values_json(p.psi)} for p in report.pairs],
        "classes": [{
            "representative": blk["representative"],
            "members": list(blk["members"]),
            "rank": blk["rank"],
            "witnesses": [{"from": member, "g": w.g,
                           "f": _cochain_values_json(w.coboundary_witness)}
                          for member, w in blk["witnesses"]],
        } for blk in report.classes],
        "class_count": len(report.classes),
        "note": ("the same class partition labels the module categories over "
                 "every dual category of this pointed category"),
    }


def _field(obj, key: str, kind: type, where: str):
    """obj[key], required to be a JSON value of the given kind."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"report JSON: {where} has no {key!r} field")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"report JSON: {where} field {key!r} must be "
                         f"{kind.__name__}, got {type(value).__name__}")
    return value


def _index(value, bound: int, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < bound:
        raise ParseError(f"report JSON: {where} {value!r} is not an index "
                         f"below {bound}")
    return value


def report_from_json(data: dict, cat: PointedCategory) -> ClassificationReport:
    """Rebuild a report against a category and re-verify it completely.

    A missing or mistyped field, or an index out of range, is a ParseError.
    """
    G = group_from_json(_field(data, "group", dict, "report"))
    if G != cat.group:
        raise InternalInvariantBroken("report group does not match the category")
    omega = _field(data, "omega", dict, "report")
    if _field(omega, "hash", str, "omega") != omega_fingerprint(cat.omega):
        raise InternalInvariantBroken("report omega hash does not match")
    source = omega.get("source", "inline")
    if not isinstance(source, str):
        raise ParseError("report JSON: omega field 'source' must be str")
    pairs = []
    for entry in _field(data, "pairs", list, "report"):
        members = [_index(m, G.order, "subgroup member")
                   for m in _field(entry, "H", list, "pair")]
        H = Subgroup(cat.group, members)
        psi = cochain_from_json({"degree": 2,
                                 "values": _field(entry, "psi", list, "pair")},
                                group=H.as_group())
        pairs.append(validate_pair(cat, H, psi))
    blocks = []
    for blk in _field(data, "classes", list, "report"):
        rep = _index(_field(blk, "representative", int, "class"), len(pairs),
                     "representative")
        members = [_index(m, len(pairs), "class member")
                   for m in _field(blk, "members", list, "class")]
        witnesses = []
        for w in _field(blk, "witnesses", list, "class"):
            member = _index(_field(w, "from", int, "witness"), len(pairs),
                            "witness source")
            g = _index(_field(w, "g", int, "witness"), G.order, "witness element")
            f = cochain_from_json({"degree": 1,
                                   "values": _field(w, "f", list, "witness")},
                                  group=pairs[rep].H.as_group())
            witnesses.append((member, EquivalenceWitness(g, f)))
        blocks.append({
            "representative": rep,
            "members": members,
            "rank": _field(blk, "rank", int, "class"),
            "witnesses": witnesses,
        })
    report = ClassificationReport(cat, pairs, blocks, source)
    report.verify()
    return report
