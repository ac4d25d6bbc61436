"""Finite groups as explicit multiplication tables, with 0-based element indices.

Groups at the scale this package targets (order <= 24 or so) are cheapest to
handle as validated tables: every axiom is checked once at construction, and
all later work is pure index arithmetic.  Subgroups are canonical sorted
member tuples; a subgroup can be viewed as a group in its own right, with its
own 0-based indexing, via :meth:`Subgroup.as_group`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import BadDimensions, NotAGroup, NotAnAction, NotASubgroup, ParseError

__all__ = [
    "Group",
    "Subgroup",
    "from_table",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "semidirect_product",
    "builtin_group",
    "subgroups",
    "generators",
    "conjugate_subgroup",
    "subgroup_conjugacy_classes",
    "group_to_json",
    "group_from_json",
]


class Group:
    """A finite group given by its multiplication table.

    Immutable after construction.  ``table[i][j]`` is the index of the product
    of elements i and j.  ``parent``/``members`` are set only on subgroup
    views and record where the elements live inside the ambient group.
    """

    __slots__ = ("order", "table", "identity", "inverse", "names",
                 "parent", "members", "_cache")

    def __init__(self, order, table, identity, inverse, names,
                 parent=None, members=None):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Group objects are immutable")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, g: int, x: int) -> int:
        """g x g^{-1}."""
        t = self.table
        return t[t[g][x]][self.inverse[g]]

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a]
                   for a in range(self.order) for b in range(a))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def element_index(self, name: str) -> int:
        """Look up an element by display name (or by decimal index string)."""
        try:
            return self.names.index(name)
        except ValueError:
            pass
        if name.isdecimal() and int(name) < self.order:
            return int(name)
        raise ParseError(f"no element named {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return self.table == other.table and self.names == other.names

    def __hash__(self):
        return hash((self.table, self.names))

    def __repr__(self):
        return f"<Group of order {self.order}>"


class Subgroup:
    """A subgroup of ``parent``, stored as a sorted tuple of member indices.

    Canonical form: members strictly ascending, so two subgroups are equal
    exactly when their member tuples are.
    """

    __slots__ = ("parent", "members")

    def __init__(self, parent: Group, members: Iterable[int], _checked=False):
        mem = tuple(sorted(set(members)))
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", mem)
        if not _checked:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup objects are immutable")

    def _validate(self):
        G, mem = self.parent, self.members
        ms = set(mem)
        if not ms:
            raise NotASubgroup("empty member set")
        if any(x < 0 or x >= G.order for x in mem):
            raise NotASubgroup("member index out of range")
        if G.identity not in ms:
            raise NotASubgroup("identity missing")
        for a in mem:
            if G.inverse[a] not in ms:
                raise NotASubgroup(f"not closed under inversion at {a}")
            for b in mem:
                if G.table[a][b] not in ms:
                    raise NotASubgroup(f"not closed under product at ({a}, {b})")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"Subgroup({list(self.members)})"

    def as_group(self) -> Group:
        """This subgroup reindexed as a standalone group (0-based, cached)."""
        views = self.parent._cache.setdefault("views", {})
        got = views.get(self.members)
        if got is None:
            got = _subgroup_view(self.parent, self.members)
            views[self.members] = got
        return got


def _subgroup_view(G: Group, members: tuple) -> Group:
    pos = {p: i for i, p in enumerate(members)}
    n = len(members)
    table = tuple(tuple(pos[G.table[a][b]] for b in members) for a in members)
    inverse = tuple(pos[G.inverse[a]] for a in members)
    names = tuple(G.names[a] for a in members)
    return Group(n, table, pos[G.identity], inverse, names,
                 parent=G, members=members)


def from_table(order: int, table: Sequence[Sequence[int]],
               names: Optional[Sequence[str]] = None) -> Group:
    """Validate a multiplication table and return the Group it defines.

    Raises BadDimensions for structural problems and NotAGroup (carrying the
    offending triple or element) when an axiom fails.
    """
    if order <= 0:
        raise BadDimensions(f"order must be positive, got {order}")
    if len(table) != order:
        raise BadDimensions(f"table has {len(table)} rows, expected {order}")
    rows = []
    for i, row in enumerate(table):
        if len(row) != order:
            raise BadDimensions(f"table row {i} has length {len(row)}")
        r = tuple(int(x) for x in row)
        if any(x < 0 or x >= order for x in r):
            raise BadDimensions(f"table row {i} has an out-of-range entry")
        rows.append(r)
    tab = tuple(rows)

    if names is None:
        names = tuple(f"g{i}" for i in range(order))
    else:
        if len(names) != order:
            raise BadDimensions(f"{len(names)} names for order {order}")
        names = tuple(str(s) for s in names)
        if len(set(names)) != order:
            raise BadDimensions("element names are not pairwise distinct")

    identity = None
    for e in range(order):
        if all(tab[e][j] == j for j in range(order)) and \
           all(tab[i][e] == i for i in range(order)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity element")

    inverse = []
    for i in range(order):
        found = None
        for j in range(order):
            if tab[i][j] == identity and tab[j][i] == identity:
                found = j
                break
        if found is None:
            raise NotAGroup(f"element {i} has no two-sided inverse", witness=i)
        inverse.append(found)

    for i in range(order):
        for j in range(order):
            tij = tab[i][j]
            for k in range(order):
                if tab[tij][k] != tab[i][tab[j][k]]:
                    raise NotAGroup(
                        f"associativity fails at triple ({i}, {j}, {k})",
                        witness=(i, j, k))

    return Group(order, tab, identity, tuple(inverse), names)


def cyclic_group(n: int) -> Group:
    """Z_n with elements e, a, a^2, ..."""
    if n <= 0:
        raise BadDimensions("cyclic group order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    return from_table(n, table, names)


def dihedral_group(n: int) -> Group:
    """Dihedral group of order n (n even >= 2): rotations r^i, reflections r^i s."""
    if n < 2 or n % 2:
        raise BadDimensions("dihedral group order must be even and >= 2")
    m = n // 2

    def idx(i, j):  # rotation part i mod m, reflection bit j
        return i % m + m * j

    table = [[0] * n for _ in range(n)]
    for i1 in range(m):
        for j1 in range(2):
            for i2 in range(m):
                for j2 in range(2):
                    # (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + i2*(-1)^j1) s^(j1+j2)
                    i = i1 + (i2 if j1 == 0 else -i2)
                    table[idx(i1, j1)][idx(i2, j2)] = idx(i, (j1 + j2) % 2)
    names = []
    for j in range(2):
        for i in range(m):
            rot = "" if i == 0 else ("r" if i == 1 else f"r^{i}")
            if j == 0:
                names.append(rot or "e")
            else:
                names.append((rot + " s").strip())
    return from_table(n, table, names)


def direct_product(a: Group, b: Group) -> Group:
    """Direct product with elements packed as index(a)*|b| + index(b)."""
    return semidirect_product(a, b, lambda c, x: x)


def semidirect_product(n_group: Group, c_group: Group,
                       action: Callable[[int, int], int]) -> Group:
    """N x| C for C acting on N; (n, c)(n', c') = (n * (c |> n'), c c').

    ``action(c, n)`` gives c |> n.  Raises NotAnAction unless every c acts as
    an automorphism of N and the assignment is an action of C.
    """
    N, C = n_group, c_group
    act = [[action(c, x) for x in N.elements()] for c in C.elements()]
    for c in C.elements():
        row = act[c]
        if sorted(row) != list(N.elements()):
            raise NotAnAction(f"element {c} does not act bijectively")
        for x in N.elements():
            for y in N.elements():
                if row[N.table[x][y]] != N.table[row[x]][row[y]]:
                    raise NotAnAction(
                        f"element {c} does not act by an automorphism")
    for x in N.elements():
        if act[C.identity][x] != x:
            raise NotAnAction("identity of C does not act trivially")
        for c1 in C.elements():
            for c2 in C.elements():
                if act[C.table[c1][c2]][x] != act[c1][act[c2][x]]:
                    raise NotAnAction("action does not respect C multiplication")

    nc = C.order
    order = N.order * nc

    def idx(n, c):
        return n * nc + c

    table = [[0] * order for _ in range(order)]
    for n1 in N.elements():
        for c1 in C.elements():
            for n2 in N.elements():
                for c2 in C.elements():
                    prod_n = N.table[n1][act[c1][n2]]
                    table[idx(n1, c1)][idx(n2, c2)] = idx(prod_n, C.table[c1][c2])
    names = [f"({N.names[n]},{C.names[c]})"
             for n in N.elements() for c in C.elements()]
    return from_table(order, table, names)


def _element(G: Group, g) -> int:
    """g, required to be an element index of G: an int, not a bool, in
    range(G.order); anything else is a ParseError."""
    if isinstance(g, bool) or not isinstance(g, int) or not 0 <= g < G.order:
        raise ParseError(f"{g!r} is not an element index of a group of order {G.order}")
    return g


def _builtin(spec: str):
    """(order, constructor) for a builtin group spec string, nothing built."""
    spec = spec.strip().removeprefix("builtin:")
    kind, _, n = spec.partition(":")
    if kind in ("cyclic", "dihedral") and n.isdecimal():  # what int() reads
        try:  # up to sys.get_int_max_str_digits() digits
            order = int(n)
        except ValueError as exc:
            raise ParseError(f"group order in {kind}:N: {exc}") from exc
        return order, lambda: (cyclic_group if kind == "cyclic" else dihedral_group)(order)
    if spec == "kp":
        from .kac_paljutkin import kp_group
        return 8, kp_group
    raise ParseError(f"unknown builtin group spec {spec!r}")


def builtin_group(spec: str) -> Group:
    """Resolve a builtin group spec string: "cyclic:N", "dihedral:N", "kp"."""
    return _builtin(spec)[1]()


def _json_int(data, key: str, what: str) -> int:
    """data[key] of a JSON object, required to be a JSON integer: not a bool,
    float or string."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} JSON must be an object")
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} JSON {key!r} must be an integer, got {value!r}")
    return value


def _declared_order(ref) -> int:
    """The order that a builtin spec string or group JSON declares, read
    without building the group: N of cyclic:N or dihedral:N, 8 for kp."""
    return _builtin(ref)[0] if isinstance(ref, str) else _json_int(ref, "order", "group")


def _closure(G: Group, seed: Iterable[int]) -> tuple:
    """Smallest subgroup containing ``seed``, as a sorted member tuple: every
    element reached from the identity by right multiplication with seed
    elements (positive words suffice in a finite group)."""
    table, gens = G.table, set(seed)
    mem, todo = {G.identity}, [G.identity]
    while todo:
        row = table[todo.pop()]
        for s in gens:
            if row[s] not in mem:
                mem.add(row[s])
                todo.append(row[s])
    return tuple(sorted(mem))


def _table_memo(G: Group, key, make):
    """The entry ``key`` of G, a pure function of its multiplication table,
    computed by ``make()`` at most once per table of one ambient group.

    G's own ``_cache`` is read first.  On a miss, a subgroup view looks in the
    store that its parent keeps for its table, shared by every view of that
    parent with an equal table; any other group's store is its own
    ``_cache``.  The store lives and dies with the parent.
    """
    got = G._cache.get(key)
    if got is None:
        P = G.parent
        store = G._cache if P is None else \
            P._cache.setdefault("tables", {}).setdefault(G.table, {})
        got = store.get(key)
        if got is None:
            got = store[key] = make()
        G._cache[key] = got
    return got


def _table_peek(G: Group, key):
    """The entry ``key`` that ``_table_memo`` would read for G, or None;
    computes nothing and creates no entry."""
    store = {} if G.parent is None else G.parent._cache.get("tables", {}).get(G.table, {})
    return G._cache.get(key, store.get(key))


def _choose_generators(G: Group) -> tuple:
    """A generating set in index order, chosen deterministically from the
    table: elements are taken by descending element order, then by index,
    skipping any already in the closure of those taken.  Not memoized."""
    taken, closure = [], {G.identity}
    for g in sorted(G.elements(), key=lambda g: (-G.element_order(g), g)):
        if g not in closure:
            taken.append(g)
            closure = set(_closure(G, taken))
    return tuple(sorted(taken))


def generators(G: Group) -> tuple:
    """``_choose_generators(G)``, memoized per table (``_table_memo``).  The
    cocycle checks (``cochains._cocycle_on``) check that it generates G."""
    return _table_memo(G, "generators", lambda: _choose_generators(G))


def subgroups(G: Group) -> list:
    """All subgroups, by breadth-first extension of each subgroup H found,
    kept with a generating tuple, by one g of each right coset Hg other than
    H itself: <H, hg> = <H, g>.

    Ordered by size then lexicographic member tuple; complete and
    duplicate-free at this scale.
    """
    cached = G._cache.get("subgroups")
    if cached is not None:
        return list(cached)
    found = {(G.identity,): ()}  # members -> a generating tuple
    todo = [(G.identity,)]
    for mem in todo:  # breadth first: todo grows as it is read
        tried = set(mem)
        for g in G.elements():
            if g in tried:
                continue
            tried.update(G.table[h][g] for h in mem)
            gens = found[mem] + (g,)
            ext = _closure(G, gens)
            if ext not in found:
                found[ext] = gens
                todo.append(ext)
    ordered = sorted(found, key=lambda m: (len(m), m))
    result = [Subgroup(G, m, _checked=True) for m in ordered]
    G._cache["subgroups"] = tuple(result)
    return list(result)


def conjugate_subgroup(G: Group, L: Subgroup, g: int) -> Subgroup:
    """The subgroup {g x g^{-1} : x in L}, in canonical form."""
    if L.parent != G:
        raise NotASubgroup("subgroup belongs to a different group")
    return Subgroup(G, (G.conj(g, x) for x in L.members), _checked=True)


def subgroup_conjugacy_classes(G: Group) -> list:
    """Partition of subgroups(G) into conjugation orbits.

    Each orbit is grown from its least subgroup by conjugating with the
    elements of ``generators(G)`` alone until it is closed: they generate G,
    so their conjugations generate G's.  Blocks are sorted lists of
    Subgroups; the first entry of each block is the canonical representative
    (smallest member tuple).  Blocks are ordered by (subgroup size,
    representative members).
    """
    cached = G._cache.get("subgroup_classes")
    if cached is None:
        seen, blocks = set(), []
        conj = [[G.conj(s, x) for x in G.elements()] for s in generators(G)]
        for S in subgroups(G):  # by size, then members: blocks come out ordered
            if S.members not in seen:
                orbit = [S.members]
                seen.add(S.members)
                for m in orbit:  # grows as it is read; orbits are disjoint
                    for c in conj:
                        image = tuple(sorted(map(c.__getitem__, m)))
                        if image not in seen:
                            seen.add(image)
                            orbit.append(image)
                blocks.append(tuple(Subgroup(G, m, _checked=True) for m in sorted(orbit)))
        cached = G._cache["subgroup_classes"] = tuple(blocks)
    return [list(b) for b in cached]


def group_to_json(G: Group) -> dict:
    return {"order": G.order,
            "names": list(G.names),
            "table": [list(row) for row in G.table]}


def group_from_json(data) -> Group:
    """Parse the group JSON format: a table of rows of JSON integers (not
    bools, floats or strings) and optional names, a list of JSON strings."""
    order, table = _json_int(data, "order", "group"), data.get("table")
    if not isinstance(table, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in table):
        raise ParseError("group JSON table must be a list of rows of JSON integers")
    names = data.get("names")
    if "names" in data and not (isinstance(names, list) and all(type(s) is str for s in names)):
        raise ParseError("group JSON names must be a list of JSON strings")
    try:
        return from_table(order, table, names)
    except (BadDimensions, NotAGroup):
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"group JSON malformed: {exc}") from exc
