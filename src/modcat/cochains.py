"""Normalized n-cochains with values in Q/Z.

A cochain assigns a QZ value to every n-tuple of group elements and vanishes
whenever an argument is the identity.  Only nonzero values on identity-free
tuples are stored; lookups of anything else return zero, so the stored dict
is a canonical form and equality is structural.

The multiplicative conventions of twisted group algebras translate to
additive Q/Z throughout: a product of cochain values becomes a QZ sum, an
inverse becomes a negation.
"""

from __future__ import annotations

from itertools import product
from math import lcm
from typing import List, Mapping, Optional, Tuple

from .errors import DegreeMismatch, GroupMismatch, NotASubgroup, ParseError
from .groups import (Group, Subgroup, _json_int, builtin_group, generators,
                     group_from_json, group_to_json)
from .qz import QZ, ZERO, qz

__all__ = [
    "Cochain",
    "zero_cochain",
    "nonidentity_tuples",
    "coboundary",
    "combine",
    "restrict",
    "conjugate_cochain",
    "is_cocycle",
    "cyclic_3cocycle",
    "cochain_to_json",
    "cochain_from_json",
]


class Cochain:
    """A normalized n-cochain on a group, n >= 0.

    ``values`` maps identity-free index tuples to nonzero QZ values; every
    other tuple is implicitly zero.
    """

    __slots__ = ("group", "degree", "values")

    def __init__(self, group: Group, degree: int,
                 values: Optional[Mapping[tuple, QZ]] = None):
        if degree < 0:
            raise DegreeMismatch("cochain degree must be >= 0")
        clean = {}
        e = group.identity
        for args, v in (values or {}).items():
            args = tuple(args)
            if len(args) != degree:
                raise DegreeMismatch(
                    f"value tuple {args} has length {len(args)}, degree is {degree}")
            if any(a < 0 or a >= group.order for a in args):
                raise ParseError(f"argument tuple {args} out of range")
            if not isinstance(v, QZ):
                v = qz(v)
            if e in args:
                if v:
                    raise ParseError(
                        f"nonzero value at identity-containing tuple {args}")
                continue
            if v:
                clean[args] = v
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain objects are immutable")

    def value(self, args: tuple) -> QZ:
        return self.values.get(tuple(args), ZERO)

    def __call__(self, *args) -> QZ:
        return self.values.get(args, ZERO)

    def is_zero(self) -> bool:
        return not self.values

    def items(self):
        """Nonzero (args, value) pairs in lexicographic argument order."""
        return sorted(self.values.items())

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.degree == other.degree and self.group == other.group
                and self.values == other.values)

    def __hash__(self):
        return hash((self.degree, frozenset(self.values.items())))

    def __repr__(self):
        return f"<Cochain deg {self.degree} on order-{self.group.order} group, {len(self.values)} nonzero>"


def zero_cochain(group: Group, degree: int) -> Cochain:
    return Cochain(group, degree, {})


def nonidentity_tuples(group: Group, n: int):
    """All n-tuples of non-identity element indices, lexicographically."""
    elems = [x for x in group.elements() if x != group.identity]
    return product(elems, repeat=n)


def _tuple_index(group: Group, args: tuple) -> int:
    """Lexicographic index of an identity-free tuple among those of its length."""
    e, base, i = group.identity, group.order - 1, 0
    for a in args:
        i = i * base + a - (a > e)
    return i


def _index_tuple(group: Group, i: int, n: int) -> tuple:
    """The identity-free n-tuple at lexicographic index i, the inverse of
    ``_tuple_index``."""
    e, base, out = group.identity, group.order - 1, []
    for _ in range(n):
        i, a = divmod(i, base)
        out.append(a + (a >= e))
    return tuple(reversed(out))


def numerators(c: Cochain, D: int) -> List[int]:
    """c as integer numerators over D, a multiple of its denominators, on the
    identity-free tuples in lexicographic order (its coboundary's columns)."""
    vec = [0] * (c.group.order - 1) ** c.degree
    for t, v in c.values.items():
        vec[_tuple_index(c.group, t)] = v.num * (D // v.den)
    return vec


def _coboundary_numerators(group: Group, n: int, x, firsts=None) -> List[int]:
    """dx for numerators x of an n-cochain, laid out as by ``numerators``, as
    exact numerators at the (n+1)-tuples whose first argument lies in
    ``firsts`` (all by default), in lexicographic order.  No matrix is built:
    the values at every last argument of one prefix are computed together."""
    e, table, order = group.identity, group.table, group.order
    elems = [a for a in group.elements() if a != e]
    firsts = elems if firsts is None else firsts
    if n == 0 or not any(x):  # d vanishes on degree 0
        return [0] * (len(firsts) * len(elems) ** n)
    zero, rows, base = [0] * order, {}, order - 1
    for k, prefix in enumerate(product(elems, repeat=n - 1)):
        row = list(x[k * base:(k + 1) * base])
        if any(row):
            row.insert(e, 0)  # indexed by element
            rows[prefix] = row
    out = []
    for args in product(firsts, *[elems] * (n - 1)):
        acc, sign = rows.get(args[1:], zero), 1
        for i in range(n - 1):
            sign = -sign
            merged = args[:i] + (table[args[i]][args[i + 1]],) + args[i + 2:]
            acc = [a + sign * b for a, b in zip(acc, rows.get(merged, zero))]
        last = rows.get(args[:-1], zero)
        const = sign * last[args[-1]]  # (-1)^{n+1} f(args)
        vals = [a - sign * last[t] + const for a, t in zip(acc, table[args[-1]])]
        del vals[e]
        out += vals
    return out


def coboundary(f: Cochain) -> Cochain:
    """The degree n+1 coboundary, for the trivial action on coefficients.

    (df)(g_1, ..., g_{n+1}) = f(g_2, ..., g_{n+1})
                              + sum_i (-1)^i f(g_1, ..., g_i g_{i+1}, ..., g_{n+1})
                              + (-1)^{n+1} f(g_1, ..., g_n)

    Computed on integer numerators over a common denominator by the
    matrix-free ``_coboundary_numerators``.
    """
    G, n = f.group, f.degree
    D = lcm(*(v.den for v in f.values.values()))
    dx = _coboundary_numerators(G, n, numerators(f, D))
    return Cochain(G, n + 1, {t: QZ(v, D) for t, v in
                              zip(nonidentity_tuples(G, n + 1), dx) if v % D})


def combine(f: Cochain, g: Cochain, signs: Tuple[int, int]) -> Cochain:
    """Pointwise signs[0]*f + signs[1]*g."""
    if f.degree != g.degree:
        raise DegreeMismatch(f"degree {f.degree} vs {g.degree}")
    if f.group != g.group:
        raise GroupMismatch("cochains live on different groups")
    s0, s1 = signs
    out = {}
    for args in set(f.values) | set(g.values):
        v = s0 * f.values.get(args, ZERO) + s1 * g.values.get(args, ZERO)
        if v:
            out[args] = v
    return Cochain(f.group, f.degree, out)


def _numerators_on(c: Cochain, members, D: int) -> List[int]:
    """c restricted to the subgroup with these ascending members, as numerators
    over D, a multiple of its denominators, laid out as by ``numerators`` on its
    view: c's values read by index at the identity-free tuples, or zeros at once."""
    ids = [x for x in members if x != c.group.identity]
    if not c.values:
        return [0] * len(ids) ** c.degree
    return [0 if v is None else v.num * (D // v.den)
            for v in map(c.values.get, product(ids, repeat=c.degree))]


def restrict(f: Cochain, H: Subgroup) -> Cochain:
    """Restriction to a subgroup, reindexed to H's own element indices."""
    if H.parent != f.group:
        raise NotASubgroup("subgroup does not live in the cochain's group")
    view, D = H.as_group(), lcm(*(v.den for v in f.values.values()))
    return Cochain(view, f.degree, {t: QZ(v, D) for t, v in zip(
        nonidentity_tuples(view, f.degree), _numerators_on(f, H.members, D)) if v})


def _embedding(group: Group):
    """(parent, members) for a subgroup view; a full group embeds in itself."""
    if group.parent is None:
        return group, tuple(range(group.order))
    return group.parent, group.members


def conjugate_cochain(f: Cochain, g: int) -> Cochain:
    """The conjugate cochain on g^{-1} H g: args are conjugated by g, then f applied.

    For f on a subgroup H of G and any g in G, the result lives on the
    subgroup view of g^{-1} H g (on G itself when f does).
    """
    P, members = _embedding(f.group)
    ginv = P.inverse[g]
    if f.group.parent is None:
        target = f.group
        tpos = None
    else:
        tmembers = tuple(sorted(P.conj(ginv, h) for h in members))
        target = Subgroup(P, tmembers, _checked=True).as_group()
        tpos = {p: i for i, p in enumerate(tmembers)}
    out = {}
    for args, v in f.values.items():
        parent_args = (members[a] for a in args)
        moved = tuple(P.conj(ginv, h) for h in parent_args)
        out[moved if tpos is None else tuple(tpos[m] for m in moved)] = v
    return Cochain(target, f.degree, out)


def is_cocycle(f: Cochain) -> bool:
    """Whether df = 0, evaluated only at the tuples whose first argument is
    one of ``generators(G)``.  That decides it, by a lemma: a normalized
    k-cochain e (k >= 2) with de = 0 that vanishes whenever its first argument
    is a generator s is zero.  The cocycle identity at (s, b, x_3, ...) reads
    e(sb, x_3, ...) = e(b, x_3, ...) + (terms whose first argument is s), so
    e(x, ...) is unchanged when x is multiplied on the left by a generator;
    every x is a product of generators, so e(x, ...) = e(1, ...) = 0.  Here
    e = df, a cocycle because d d = 0.
    """
    if not f.values:  # the zero cochain needs no generating set
        return True
    D = lcm(*(v.den for v in f.values.values()))
    return not any(v % D for v in _coboundary_numerators(
        f.group, f.degree, numerators(f, D), generators(f.group)))


def cyclic_3cocycle(G: Group, q: int) -> Cochain:
    """The standard 3-cocycle on the builtin cyclic group of order n.

    Value q * i * floor((j+k)/n) / n at (a^i, a^j, a^k).  Requires the
    additive index law table[i][j] == (i+j) mod n; self-checked on creation.
    """
    n = G.order
    if any(G.table[i][j] != (i + j) % n for i in range(n) for j in range(n)):
        raise ParseError("cyclic 3-cocycle needs the builtin cyclic group layout")
    vals = {}
    for i, j, k in nonidentity_tuples(G, 3):
        vals[(i, j, k)] = QZ(q * i * ((j + k) // n), n)
    c = Cochain(G, 3, vals)
    if not is_cocycle(c):
        raise ParseError("cyclic 3-cocycle failed its self-check")
    return c


def cochain_to_json(f: Cochain, group_field=None) -> dict:
    """Serialize; ``group_field`` overrides the embedded group (e.g. a spec string)."""
    if group_field is None:
        group_field = group_to_json(f.group)
    return {
        "group": group_field,
        "degree": f.degree,
        "values": [{"args": list(args), "val": str(v)} for args, v in f.items()],
    }


def cochain_from_json(data, group: Optional[Group] = None,
                      expect_degree: Optional[int] = None) -> Cochain:
    """Parse the cochain JSON format.

    Omitted tuples are zero; identity-containing tuples must be absent or
    have value zero; values must be exact "p/q" strings (floats rejected) and
    arguments lists of integer indices.  ``group`` overrides the embedded
    group reference when supplied.  Malformed input is a ParseError.
    """
    if not isinstance(data, dict):
        raise ParseError("cochain JSON must be an object")
    if group is None:
        ref = data.get("group")
        if ref is None:
            raise ParseError("cochain JSON has no group and none was supplied")
        group = builtin_group(ref) if isinstance(ref, str) else group_from_json(ref)
    else:
        ref = data.get("group")
        if isinstance(ref, dict) and "order" in ref:
            if _json_int(ref, "order", "cochain group") != group.order:
                raise ParseError("cochain JSON group order does not match")
    degree = _json_int(data, "degree", "cochain")
    if expect_degree is not None and degree != expect_degree:
        raise DegreeMismatch(f"expected degree {expect_degree}, file has {degree}")
    entries = data.get("values", [])
    if not isinstance(entries, list):
        raise ParseError(f"cochain JSON values must be a list, got {entries!r}")
    vals = {}
    for entry in entries:
        if not isinstance(entry, dict) or "args" not in entry or "val" not in entry:
            raise ParseError(f"malformed value entry {entry!r}")
        args = entry["args"]
        if not (isinstance(args, list)
                and all(isinstance(a, int) and not isinstance(a, bool) for a in args)):
            raise ParseError(f"value entry args must be a list of indices, got {args!r}")
        args = tuple(args)
        if args in vals:
            raise ParseError(f"duplicate value entry for {args}")
        vals[args] = qz(entry["val"])
    return Cochain(group, degree, vals)
