"""Enumeration and equivalence classification of algebra pairs (H, psi).

Two pairs label equivalent module categories exactly when some group element
g conjugates one subgroup onto the other and the combination
-xi + psi^g + big_omega(g), restricted to L, is a coboundary.  So the classes
are the orbits of G acting on pairs up to coboundaries.  The classifier
enumerates all pairs (admissible subgroups times second-cohomology
representatives), keys each by an exact signature of its class in H^2,
closes the orbits of G's generators over those keys, and emits a
deterministic, re-verifiable report.  Every check is a sparse integer
product on numerators over a common denominator.
"""

from __future__ import annotations

import hashlib
from math import lcm
from typing import List, NamedTuple, Optional, Tuple

from .cochains import (Cochain, _coboundary_numerators, _cocycle_on, _numerators_on, _of,
                       _value_texts, _values_json, cochain_from_json)
from .cohomology import _class_vectors, _h2_classes, _solve, numerators
from .errors import (CategoryMismatch, GroupMismatch, InternalInvariantBroken,
                     ParseError, SizeLimitExceeded)
from .groups import (Group, Subgroup, _choose_generators, _element, _table_peek,
                     conjugate_subgroup, generators, group_from_json, group_to_json,
                     subgroup_conjugacy_classes, subgroups)
from .pointed import AlgebraPair, PointedCategory, _twist, validate_pair

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


def admissible_subgroups(cat: PointedCategory) -> List[Tuple[Subgroup, Cochain]]:
    """Subgroups on which omega restricts to a coboundary, with a base witness.

    Each subgroup H, in the size order of subgroups(G), is refused unsolved if
    it contains a subgroup K that a solve refused.  That is sound: restriction
    from H to K commutes with d, so d(psi) = omega|_H would give
    d(psi|_K) = omega|_K.  The checked obstruction z of K, re-indexed along
    the inclusion K -> H, certifies H: z A_H = 0 on the rows of d^2 on H
    that it reaches, and z . omega|_H = z . omega|_K, nonzero in Q/Z.  Every
    other subgroup is solved, for its witness psi0; no "yes" is inferred.
    """
    out, refused, D = [], [], cat.den
    for H in subgroups(cat.group):
        if refused:  # never, for a trivial omega
            members = set(H.members)
            if any(K <= members for K in refused):
                continue
        psi0, _ = _solve(H.as_group(), 3, _numerators_on(cat.omega, H.members, D), D)
        if psi0 is not None:
            out.append((H, psi0))
        else:
            refused.append(frozenset(H.members))
    return out


class _Entry(NamedTuple):
    """The pairs over one admissible subgroup H as psi = psi0 + sum_k m_k r_k:
    ``psi0`` the solver's witness to d(psi0) = omega|_H, and ``gens`` the
    class generators (r_k, d_k) of H^2(H, Q/Z) as _h2_classes checks them, r_k
    numerators over |H|.  A parsed pair is its own entry, with no generators."""

    H: Subgroup
    psi0: Cochain
    gens: tuple


def _decomposed_pairs(cat: PointedCategory):
    """(D, [(pair, entry, m, psi)]) for every pair, over admissible H and the
    H^2 classes m in the order of _class_vectors, with psi = psi0 + sum_k m_k r_k
    as numerators over D, the lcm of omega's denominators, of the subgroups'
    orders and of every psi0's denominators.  The pair of the zero class
    holds psi0 itself."""
    admissible = admissible_subgroups(cat)
    D = lcm(cat.den, *(H.order for H, _ in admissible),
            *(psi0.den for _, psi0 in admissible))
    out = []
    for H, psi0 in admissible:
        view = H.as_group()
        entry = _Entry(H, psi0, _h2_classes(view).gens)
        base, s = numerators(psi0, D), D // view.order
        for m, vec in _class_vectors(view):
            if not any(m):  # the zero class: psi0 itself
                out.append((AlgebraPair(cat, H, psi0), entry, m, base))
                continue
            psi = [(a + s * r) % D for a, r in zip(base, vec)]
            out.append((AlgebraPair(cat, H, _of(view, 2, psi, D)), entry, m, psi))
    return D, out


def enumerate_pairs(cat: PointedCategory) -> List[AlgebraPair]:
    """All pairs (H, psi0 + r) over admissible H and H^2 representatives r,
    summed as integers.  Each is valid by linearity: the solver checks its
    witness d(psi0) = omega|_H on every row once per subgroup, and
    _h2_classes checks d(r_k) = 0 on the generator rows, which decides it,
    once per class generator r_k and table; classify keeps that
    decomposition for ClassificationReport.verify."""
    return [pair for pair, *_ in _decomposed_pairs(cat)[1]]


class _Move(NamedTuple):
    """How g acts on 2-cochains on a subgroup H: the image of x, on the rows
    of L = g^-1 H g, is x[perm[k]] + twist[k], with the twist big_omega(g)|_L
    as numerators over the category's den, or None where it vanishes.
    ``fixed`` says g moves nothing: L = H, perm is the identity, no twist."""

    L: Tuple[int, ...]
    perm: Tuple[int, ...]
    twist: Optional[Tuple[int, ...]]
    fixed: bool


def _criterion(move: _Move, den: int, psi, xi, D: int) -> List[int]:
    """-xi + psi^g + big_omega(g) on L, as numerators over D, a multiple of
    den, the category's denominator, with psi on H and xi on L given as
    numerators over D as well."""
    if move.twist is None:
        return [psi[k] - x for k, x in zip(move.perm, xi)]
    s = D // den
    return [psi[k] + s * t - x for k, t, x in zip(move.perm, move.twist, xi)]


def criterion_cochain(a: AlgebraPair, b: AlgebraPair, g: int) -> Cochain:
    """-xi + psi^g + big_omega(g), restricted to b's subgroup L, for an
    element g that conjugates L onto a's subgroup: a 2-cocycle on L whose
    triviality decides equivalence."""
    if a.category != b.category:
        raise CategoryMismatch("pairs belong to different categories")
    cat = a.category
    move = _move(cat, a.H, _element(cat.group, g))
    if b.H.parent != cat.group or move.L != b.H.members:
        raise GroupMismatch("g does not conjugate L onto H")
    D = lcm(cat.den, a.psi.den, b.psi.den)
    vec = _criterion(move, cat.den, numerators(a.psi, D), numerators(b.psi, D), D)
    return _of(b.H.as_group(), 2, vec, D)


def _candidates(cat: PointedCategory, H: Subgroup, psi, L: Group, xi, D: int):
    """(g, _criterion at g) for each g, in index order, carrying H onto the
    subgroup view L, where the memoized H^2 signature of L's table, if any,
    pairs the image of psi as xi (its cycles pair every coboundary to 0, so
    a g it rejects has no witness); psi and xi are numerators over D."""
    sig = _table_peek(L, "h2")
    want = None if sig is None else sig(xi, D)
    for g in cat.group.elements():
        move = _move(cat, H, g)
        if move.L != L.members:
            continue
        if sig is not None and sig.moved(psi, move.perm, move.twist, D // cat.den, D) != want:
            continue
        yield g, _criterion(move, cat.den, psi, xi, D)


def equivalent_pairs(a: AlgebraPair, b: AlgebraPair) -> Optional[EquivalenceWitness]:
    """The first g of _candidates whose criterion solves, with its witness, or
    None.  The signature is memoized by classify, enumerate_pairs, h2_order
    or h2_representatives; without it every g is solved and no H^2 computed."""
    if a.category != b.category:
        raise CategoryMismatch("pairs belong to different categories")
    cat = a.category
    if a.H.order != b.H.order:
        return None
    D, L = lcm(cat.den, a.psi.den, b.psi.den), b.H.as_group()
    for g, crit in _candidates(cat, a.H, numerators(a.psi, D), L, numerators(b.psi, D), D):
        witness, _ = _solve(L, 2, crit, D)
        if witness is not None:
            return EquivalenceWitness(g, witness)
    return None


class ClassificationReport:
    """Partition of the enumerated pairs into equivalence classes.

    ``classes`` is a list of blocks; each block holds the canonical
    representative index, all member indices, the rank [G:H] shared by the
    class, and a verified witness from every non-representative member to the
    representative.  ``parts`` gives each pair its decomposition (entry, m):
    psi = entry.psi0 + sum_k m_k r_k over the generators of the _Entry.
    """

    __slots__ = ("category", "pairs", "classes", "omega_source", "parts")

    def __init__(self, category, pairs, classes, omega_source, parts):
        self.category = category
        self.pairs = pairs
        self.classes = classes
        self.omega_source = omega_source
        self.parts = parts

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def verify(self):
        """Re-check every pair condition, that the classes partition the pairs
        with one witness from each non-representative member and the rank
        [G:H], and every stored witness, bit-exactly, by the matrix-free
        integer coboundary from the group table, not by the solver or the rows
        of d^1 that it memoizes and factors.

        Pairs are checked by linearity, through their decompositions
        (``parts``): d(psi0) = omega|_H on every row once per entry
        (validate_pair), d(r_k) = 0 mod |H| once per class generator and
        table on the rows whose first argument lies in a generating set chosen
        afresh from H's table, which decides it (``cochains._cocycle_on``),
        and each pair's psi against psi0 + sum_k m_k r_k
        by an exact comparison of numerators, unless the pair's psi is psi0
        itself and m = 0.  As d is linear, d(psi) = omega|_H follows exactly.
        A parsed report's pairs are their own entries, so each of them gets
        the full-row check.

        Each witness's criterion comes from a move built afresh from the group
        table and omega (_action), never from the category's move table, which
        the classification itself read: a corrupt table entry must not be
        confirmed by the check meant to catch it."""
        cat, pairs, parts = self.category, self.pairs, self.parts
        if len(parts) != len(pairs):
            raise InternalInvariantBroken("a pair has no decomposition")
        cocycles = set()
        for entry in {id(e): e for e, _ in parts}.values():
            view, M = entry.H.as_group(), entry.H.order
            validate_pair(cat, entry.H, entry.psi0)
            for r, _ in entry.gens:
                if (view.table, r) not in cocycles:
                    if not _cocycle_on(view, 2, r, M, _choose_generators(view)):
                        raise InternalInvariantBroken("a class generator is not a cocycle")
                    cocycles.add((view.table, r))
        for pair, (entry, m) in zip(pairs, parts):
            if (pair.H != entry.H or len(m) != len(entry.gens)
                    or any(not 0 <= mk < d for mk, (_, d) in zip(m, entry.gens))):
                raise InternalInvariantBroken("a pair does not match its decomposition")
            if pair.psi is entry.psi0 and not any(m):
                continue  # psi0 itself, checked above
            M = entry.H.order
            D = lcm(M, entry.psi0.den)
            psi = numerators(entry.psi0, D)
            for mk, (r, _) in zip(m, entry.gens):
                if mk:
                    c = D // M * mk
                    psi = [a + c * b for a, b in zip(psi, r)]
            if (pair.psi.group != entry.psi0.group or pair.psi.degree != 2
                    or D % pair.psi.den or numerators(pair.psi, D) != [a % D for a in psi]):
                raise InternalInvariantBroken("a pair is not psi0 + sum_k m_k r_k")
        members = [m for blk in self.classes for m in blk["members"]]
        if sorted(members) != list(range(len(pairs))):
            raise InternalInvariantBroken("the classes do not partition the pairs")
        for block in self.classes:
            i, rep = block["representative"], pairs[block["representative"]]
            if i not in block["members"]:
                raise InternalInvariantBroken("a representative is not a member")
            if sorted(m for m, _ in block["witnesses"]) != sorted(
                    m for m in block["members"] if m != i):
                raise InternalInvariantBroken("witnesses are not one per other member")
            if block["rank"] != rep.rank:
                raise InternalInvariantBroken("a class rank is not [G:H]")
            L = rep.H.as_group()
            for member, w in block["witnesses"]:
                pair, f = pairs[member], w.coboundary_witness
                if (conjugate_subgroup(cat.group, rep.H, w.g) != pair.H
                        or f.group != L or f.degree != 1):
                    raise InternalInvariantBroken("witness conjugation mismatch")
                D = lcm(cat.den, pair.psi.den, rep.psi.den, f.den)
                crit = _criterion(_action(cat, pair.H, w.g), cat.den,
                                  numerators(pair.psi, D), numerators(rep.psi, D), D)
                df = _coboundary_numerators(L, 1, numerators(f, D))
                if any((u - v) % D for u, v in zip(df, crit)):
                    raise InternalInvariantBroken("witness coboundary mismatch")


def _action(cat: PointedCategory, H: Subgroup, g: int) -> _Move:
    """How g acts on 2-cochains on H, built from the group table and omega
    (``_twist``).  The twist is None wherever big_omega(g) vanishes on L, so
    always for a trivial omega, where a g that centralizes H moves nothing."""
    G = cat.group
    if cat.den == 1 and all(G.conj(g, x) == x for x in H.members):
        return _Move(H.members, tuple(range((H.order - 1) ** 2)), None, True)
    L = conjugate_subgroup(G, H, G.inverse[g])
    Lm, pos, view = L.members, {h: k for k, h in enumerate(H.members)}, H.as_group()
    e, base = view.identity, view.order - 1
    # each element's place among the identity-free ones, as _tuple_index counts
    place = [k - (k > e) for k in (pos[G.conj(g, x)] for x in Lm)]
    ids = [k for k, x in enumerate(Lm) if x != G.identity]  # L's rows: pairs of these
    perm = tuple(place[x] * base + place[y] for x in ids for y in ids)
    twist = tuple(_twist(cat, g, Lm))
    fixed = Lm == H.members and not any(twist) and perm == tuple(range(len(perm)))
    return _Move(Lm, perm, twist if any(twist) else None, fixed)


def _move(cat: PointedCategory, H: Subgroup, g: int) -> _Move:
    """_action(cat, H, g), memoized in the category's move table under
    (H.members, g).  Every reader of moves shares its entries, except
    ClassificationReport.verify, which never reads them."""
    key = (H.members, g)
    move = cat._moves.get(key)
    if move is None:
        move = cat._moves[key] = _action(cat, H, g)
    return move


def _orbits(cat: PointedCategory, pairs, vecs, D: int):
    """The orbits of G on the pairs, as (representative, members), each
    closed under the moves (_move) of generators(G) until it holds every
    unplaced pair over H's conjugacy class of subgroups.  Pair i is keyed by
    (H.members, sig_H(vecs[i])), sig_H the signature of H's checked H^2
    (_h2_classes), vecs[i] its psi over D; the first pair not yet placed in
    (H.members, psi) order is the least of its orbit and represents it."""
    gens, sigs, keyed, left, orbits = generators(cat.group), {}, {}, {}, []
    block_of = {S.members: k for k, block in enumerate(subgroup_conjugacy_classes(cat.group))
                for S in block}
    for i, p in enumerate(pairs):
        sig = sigs[p.H.members] = _h2_classes(p.H.as_group())
        keyed.setdefault((p.H.members, sig(vecs[i], D)), []).append(i)
        left.setdefault(block_of[p.H.members], set()).add(i)
    for rep in sorted(range(len(pairs)), key=lambda i: (pairs[i].H.members, vecs[i])):
        H = pairs[rep].H
        todo = left[block_of[H.members]]  # unplaced pairs of H's block
        if rep not in todo:
            continue
        orbit = list(keyed[H.members, sigs[H.members](vecs[rep], D)])
        found = set(orbit)
        for i in orbit:  # grows as it is read
            for s in gens:
                if len(found) == len(todo):
                    break
                move = _move(cat, pairs[i].H, s)
                if move.fixed:
                    continue
                hits = keyed.get((move.L, sigs[move.L].moved(vecs[i], move.perm, move.twist,
                                                              D // cat.den, D)))
                if hits is None:
                    raise InternalInvariantBroken("an image matches no pair")
                orbit += [h for h in hits if h not in found]
                found.update(hits)
        if not found <= todo:
            raise InternalInvariantBroken("the orbits of two pairs overlap")
        todo -= found
        orbits.append((rep, sorted(found)))
    return orbits


def classify(cat: PointedCategory, size_limit: int = DEFAULT_SIZE_LIMIT,
             jobs: int = 1, omega_source: str = "inline",
             progress=None) -> ClassificationReport:
    """Partition all pairs of the category into equivalence classes.

    The classes are the orbits of G on the pairs, closed under generators(G)
    over exact H^2 signatures (_orbits) and sorted by representative, the
    least pair by (H.members, psi's numerators over one denominator, which
    order psi as its Q/Z values do), summed as psi0 + sum_k m_k r_k
    (_decomposed_pairs).  The pairs lie over the admissible subgroups, where
    omega|_H is a coboundary: one degree-3 solve decides each subgroup that
    contains no refused one, and a subgroup that does is refused unsolved, as
    the obstruction of the refused one, moved up the inclusion, certifies it
    (admissible_subgroups).  Each other member gets its witness from one solve
    at the first g of _candidates, where equivalent_pairs finds it; the
    report, which keeps each pair's decomposition, is verified.  ``jobs`` is
    accepted for compatibility and has no effect: the report is the same for
    any value.
    """
    G = cat.group
    if G.order > size_limit:
        raise SizeLimitExceeded(f"group order {G.order} exceeds the limit {size_limit}")
    say = progress or (lambda msg: None)
    say("enumerating pairs")
    D, decomposed = _decomposed_pairs(cat)
    pairs, vecs = [pair for pair, *_ in decomposed], [psi for *_, psi in decomposed]
    say(f"{len(pairs)} pairs on {len(subgroup_conjugacy_classes(G))} "
        "conjugacy classes of subgroups")
    blocks = []
    for rep, members in _orbits(cat, pairs, vecs, D):
        L, witnesses = pairs[rep].H.as_group(), []
        for m in sorted(set(members) - {rep}):
            g, crit = next(_candidates(cat, pairs[m].H, vecs[m], L, vecs[rep], D), (None, None))
            f = None if g is None else _solve(L, 2, crit, D)[0]
            if f is None:
                raise InternalInvariantBroken("a pair has no witness to its representative")
            witnesses.append((m, EquivalenceWitness(g, f)))
        blocks.append({"representative": rep, "members": members,
                       "rank": pairs[rep].rank, "witnesses": witnesses})
    report = ClassificationReport(cat, pairs, blocks, omega_source,
                                  [(entry, m) for _, entry, m, _ in decomposed])
    report.verify()
    return report


def omega_fingerprint(omega: Cochain) -> str:
    """sha256 of omega's table, names and repr([(args, str(v))]) over its
    nonzero values v in argument order (``cochains._value_texts``)."""
    h = hashlib.sha256()
    h.update(repr((omega.group.table, omega.group.names)).encode())
    h.update(repr(_value_texts(omega)).encode())
    return h.hexdigest()


def report_to_json(report: ClassificationReport) -> dict:
    cat = report.category
    return {
        "group": group_to_json(cat.group),
        "omega": {"hash": omega_fingerprint(cat.omega),
                  "source": report.omega_source},
        "pairs": [{"H": list(p.H.members),
                   "psi": _values_json(p.psi)} for p in report.pairs],
        "classes": [{
            "representative": blk["representative"],
            "members": list(blk["members"]),
            "rank": blk["rank"],
            "witnesses": [{"from": member, "g": w.g,
                           "f": _values_json(w.coboundary_witness)}
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

    A missing or mistyped field, an index out of range, or a pair's "H" that
    is not strictly ascending, as ``report_to_json`` writes it, is a
    ParseError; a pair that does not satisfy d(psi) = omega|_H fails in
    ``verify``.
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
        if members != sorted(set(members)):  # Subgroup would sort and dedup them
            raise ParseError(f"report JSON: pair H {members} is not strictly ascending")
        H = Subgroup(cat.group, members)
        psi = cochain_from_json({"degree": 2,
                                 "values": _field(entry, "psi", list, "pair")},
                                group=H.as_group())
        pairs.append(AlgebraPair(cat, H, psi))  # checked once, by verify()
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
        rank = _field(blk, "rank", int, "class")
        blocks.append({"representative": rep, "members": members, "rank": rank,
                       "witnesses": witnesses})
    if _field(data, "class_count", int, "report") != len(blocks):
        raise ParseError("report JSON: class_count does not match the classes")
    report = ClassificationReport(cat, pairs, blocks, source,
                                  [(_Entry(p.H, p.psi, ()), ()) for p in pairs])
    report.verify()
    return report
