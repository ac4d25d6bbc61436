"""Normalized n-cochains with values in Q/Z.

A cochain assigns a Q/Z value to every n-tuple of group elements and
vanishes whenever an argument is the identity.  It is stored as integer
numerators over one denominator, in a canonical form, so equality is
structural.  Q/Z values appear only where a cochain is built from a mapping
and where it is read or written; everything in between works on numerators.

The multiplicative conventions of twisted group algebras translate to
additive Q/Z throughout: a product of cochain values becomes a QZ sum, an
inverse becomes a negation.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from typing import List, Mapping, Optional, Tuple

from .errors import (DegreeMismatch, GroupMismatch, InternalInvariantBroken, NotASubgroup,
                     ParseError)
from .groups import (Group, Subgroup, _closure, _declared_order, _element, _json_int,
                     builtin_group, generators, group_from_json, group_to_json)
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

    ``nums[i]`` is the value at the identity-free n-tuple of index i
    (``_tuple_index``, lexicographic order) as a numerator over ``den``, in
    [0, den), and every other tuple is implicitly zero.  ``den`` is the lcm of
    the reduced denominators of the values, so only the zero cochain has den
    1.  The constructor takes a mapping from argument tuples to Q/Z values and
    checks every tuple; ``values``, ``items()``, ``value`` and calls read the
    numerators back as Q/Z values.
    """

    __slots__ = ("group", "degree", "den", "nums")

    def __init__(self, group: Group, degree: int,
                 values: Optional[Mapping[tuple, QZ]] = None):
        if degree < 0:
            raise DegreeMismatch("cochain degree must be >= 0")
        e, order, clean = group.identity, group.order, {}
        for args, v in (values or {}).items():
            if not isinstance(args, tuple):
                raise ParseError(f"argument key {args!r} is not a tuple")
            if len(args) != degree:
                raise DegreeMismatch(
                    f"value tuple {args} has length {len(args)}, degree is {degree}")
            if not all(isinstance(a, int) and not isinstance(a, bool) for a in args):
                raise ParseError(f"argument tuple {args} holds a non-integer")
            if any(a < 0 or a >= order for a in args):
                raise ParseError(f"argument tuple {args} out of range")
            v = qz(v)
            if e in args:
                if v:
                    raise ParseError(
                        f"nonzero value at identity-containing tuple {args}")
            elif v:
                clean[_tuple_index(group, args)] = v
        den, nums = lcm(*(v.den for v in clean.values())), [0] * (order - 1) ** degree
        for i, v in clean.items():
            nums[i] = v.num * (den // v.den)
        self._store(group, degree, den, nums)

    def _store(self, group: Group, degree: int, den: int, nums: List[int]) -> Cochain:
        for name, value in zip(self.__slots__, (group, degree, den, nums)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Cochain objects are immutable")

    def value(self, args: tuple) -> QZ:
        """The value at args, zero unless they are n identity-free elements."""
        args, e, order = tuple(args), self.group.identity, self.group.order
        if len(args) != self.degree or not all(
                isinstance(a, int) and 0 <= a < order and a != e for a in args):
            return ZERO
        return QZ(self.nums[_tuple_index(self.group, args)], self.den)

    def __call__(self, *args) -> QZ:
        return self.value(args)

    @property
    def values(self) -> dict:
        """The nonzero values, {identity-free tuple: QZ} in lexicographic
        order, built from the numerators on each read."""
        den = self.den
        return {t: QZ(v, den) for t, v in
                zip(nonidentity_tuples(self.group, self.degree), self.nums) if v}

    def is_zero(self) -> bool:
        return self.den == 1

    def items(self):
        """Nonzero (args, value) pairs in lexicographic argument order."""
        return list(self.values.items())

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.degree == other.degree and self.den == other.den
                and self.group == other.group and self.nums == other.nums)

    def __hash__(self):
        return hash((self.degree, self.den, tuple(self.nums)))

    def __repr__(self):
        nonzero = len(self.nums) - self.nums.count(0)
        return f"<Cochain deg {self.degree} on order-{self.group.order} group, {nonzero} nonzero>"


def _of(group: Group, degree: int, nums, D: int) -> Cochain:
    """The cochain with integer numerators ``nums`` over D, laid out by
    ``_tuple_index``, reduced mod D and then by the gcd of D and all of them
    into the canonical form.  The layout holds a value at every identity-free
    tuple and nowhere else, so no tuple is checked."""
    nums = [v % D for v in nums]
    g = gcd(D, *nums)
    if g > 1:
        nums = [v // g for v in nums]
    return Cochain.__new__(Cochain)._store(group, degree, D // g, nums)


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
    """c as integer numerators over D, a multiple of its denominator, laid out
    by ``_tuple_index`` (its coboundary's columns)."""
    if D % c.den:
        raise ValueError(f"{D} is not a multiple of the denominator {c.den}")
    s = D // c.den
    return [v * s for v in c.nums]


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

    Computed on f's numerators by the matrix-free ``_coboundary_numerators``.
    """
    return _of(f.group, f.degree + 1,
               _coboundary_numerators(f.group, f.degree, f.nums), f.den)


def combine(f: Cochain, g: Cochain, signs: Tuple[int, int]) -> Cochain:
    """Pointwise signs[0]*f + signs[1]*g."""
    if f.degree != g.degree:
        raise DegreeMismatch(f"degree {f.degree} vs {g.degree}")
    if f.group != g.group:
        raise GroupMismatch("cochains live on different groups")
    D = lcm(f.den, g.den)
    a, b = signs[0] * (D // f.den), signs[1] * (D // g.den)
    return _of(f.group, f.degree, [a * x + b * y for x, y in zip(f.nums, g.nums)], D)


def _numerators_on(c: Cochain, members, D: int) -> List[int]:
    """c restricted to the subgroup with these ascending members, as numerators
    over D, a multiple of its denominator, laid out as by ``_tuple_index`` on
    its view: c's numerators read by index, or zeros at once."""
    e, base = c.group.identity, c.group.order - 1
    places = [x - (x > e) for x in members if x != e]
    if c.den == 1:
        return [0] * len(places) ** c.degree
    idx = [0]
    for _ in range(c.degree):
        idx = [i * base + p for i in idx for p in places]
    s, nums = D // c.den, c.nums
    return [nums[i] * s for i in idx]


def restrict(f: Cochain, H: Subgroup) -> Cochain:
    """Restriction to a subgroup, reindexed to H's own element indices."""
    if H.parent != f.group:
        raise NotASubgroup("subgroup does not live in the cochain's group")
    return _of(H.as_group(), f.degree, _numerators_on(f, H.members, f.den), f.den)


def conjugate_cochain(f: Cochain, g: int) -> Cochain:
    """The conjugate cochain on g^{-1} H g: args are conjugated by g, then f applied.

    For f on a subgroup H of G and any g in G, the result lives on the
    subgroup view of g^{-1} H g (on G itself when f does).
    """
    H = f.group
    P, members = H.parent or H, H.members or range(H.order)
    moved = [P.conj(P.inverse[_element(P, g)], h) for h in members]
    tmembers = tuple(sorted(moved))
    target = H if H.parent is None else Subgroup(P, tmembers, _checked=True).as_group()
    pos = {p: i for i, p in enumerate(tmembers)}
    out = [0] * len(f.nums)
    for args, v in zip(nonidentity_tuples(H, f.degree), f.nums):
        if v:
            out[_tuple_index(target, tuple(pos[moved[a]] for a in args))] = v
    return _of(target, f.degree, out, f.den)


def _cocycle_on(group: Group, n: int, x, M: int, S) -> bool:
    """Whether dx = 0 mod M, for numerators x of an n-cochain laid out as by
    ``numerators``, read at the |S| (|G| - 1)^n rows whose first argument
    lies in S, once S is checked from the table to generate the group.  That
    decides it, by a lemma: a normalized k-cochain e (k >= 2) with de = 0
    that vanishes whenever its first argument is in S is zero.  The cocycle
    identity at (s, b, x_3, ...) reads e(sb, x_3, ...) = e(b, x_3, ...) +
    (terms whose first argument is s), so e(x, ...) is unchanged when x is
    multiplied on the left by an element of S; every x is a product of them,
    so e(x, ...) = e(1, ...) = 0.  Here e = dx mod M, a cocycle whatever x is.
    """
    if len(_closure(group, S)) != group.order:
        raise InternalInvariantBroken("the generator rows do not come from a generating set")
    return not any(v % M for v in _coboundary_numerators(group, n, x, S))


def is_cocycle(f: Cochain) -> bool:
    """Whether df = 0, decided on the rows whose first argument is one of
    ``generators(G)`` (``_cocycle_on``)."""
    if f.is_zero():  # the zero cochain needs no generating set
        return True
    return _cocycle_on(f.group, f.degree, f.nums, f.den, generators(f.group))


def cyclic_3cocycle(G: Group, q: int) -> Cochain:
    """The standard 3-cocycle on the builtin cyclic group of order n.

    Value q * i * floor((j+k)/n) / n at (a^i, a^j, a^k).  Requires the
    additive index law table[i][j] == (i+j) mod n; self-checked on creation.
    """
    n = G.order
    if any(G.table[i][j] != (i + j) % n for i in range(n) for j in range(n)):
        raise ParseError("cyclic 3-cocycle needs the builtin cyclic group layout")
    carry = [(j + k) // n for j in range(1, n) for k in range(1, n)]
    nums = []  # the identity is 0, so a^i sits at place i - 1
    for i in range(1, n):
        nums += [q * i * c for c in carry]
    c = _of(G, 3, nums, n)
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
        "values": _values_json(f),
    }


def _value_texts(c: Cochain) -> List[Tuple[tuple, str]]:
    """(args, str(v)) for each nonzero value v of c, in argument order, each v
    formatted as its QZ would be, "num/den" reduced, straight from the
    numerators: one gcd per distinct numerator, and no QZ is built."""
    den, text = c.den, {}
    for v in set(c.nums):
        g = gcd(v, den)
        text[v] = f"{v // g}/{den // g}"
    return [(args, text[v]) for args, v in zip(nonidentity_tuples(c.group, c.degree), c.nums)
            if v]


def _values_json(c: Cochain) -> List[dict]:
    """The "values" list of ``cochain_to_json``."""
    return [{"args": list(args), "val": text} for args, text in _value_texts(c)]


def cochain_from_json(data, group: Optional[Group] = None,
                      expect_degree: Optional[int] = None) -> Cochain:
    """Parse the cochain JSON format.

    Omitted tuples are zero; identity-containing tuples must be absent or
    have value zero; values must be exact "p/q" strings (floats rejected) and
    arguments lists of integer indices.  ``group`` overrides the embedded
    group reference when supplied, and that reference, if any, must then
    declare ``group``'s order.  Malformed input is a ParseError.
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
        if ref is not None and _declared_order(ref) != group.order:
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
