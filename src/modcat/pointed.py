"""Structure constants of a pointed category: the 3-cocycle and its twists.

A pointed category here is just a validated pair (finite group, normalized
3-cocycle omega).  Conjugation by a group element g twists omega; the
2-cochain big_omega(g) measures that twist and is the monoidal structure of
the adjoint action.  Algebra pairs (H, psi) with d(psi) = omega|_H label the
module categories the classifier works with.
"""

from __future__ import annotations

from math import lcm

from .cochains import (Cochain, _coboundary_numerators, _index_tuple, _numerators_on,
                       _of, is_cocycle, numerators)
from .errors import (CategoryMismatch, DegreeMismatch, InternalInvariantBroken,
                     NotCompatible)
from .groups import Group, Subgroup, _element, conjugate_subgroup

__all__ = [
    "PointedCategory",
    "AlgebraPair",
    "big_omega",
    "gamma_cochain",
    "validate_pair",
    "alpha_g",
]


class PointedCategory:
    """A finite group together with a normalized 3-cocycle on it, checked
    with ``is_cocycle`` on construction; ``den``, omega's denominator, also
    clears every twist big_omega(g).

    ``_moves`` is the G-action on 2-cochains over subgroups (see
    ``classify._move``), keyed by (H.members, g); it lives and dies with the
    category."""

    __slots__ = ("group", "omega", "den", "_moves")

    def __init__(self, group: Group, omega: Cochain):
        if omega.group != group or omega.degree != 3:
            raise DegreeMismatch("omega must be a 3-cochain on the given group")
        if not is_cocycle(omega):
            raise NotCompatible("omega is not a 3-cocycle")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "den", omega.den)
        object.__setattr__(self, "_moves", {})

    def __setattr__(self, name, value):
        raise AttributeError("PointedCategory objects are immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PointedCategory):
            return NotImplemented
        return self.group == other.group and self.omega == other.omega

    def __hash__(self):
        return hash((self.group, self.omega))

    def __repr__(self):
        return f"<PointedCategory on order-{self.group.order} group>"


class AlgebraPair:
    """A subgroup H with a 2-cochain psi on it satisfying d(psi) = omega|_H.

    Labels the twisted group algebra on H and its category of modules, whose
    rank is the index [G:H].  Construct through validate_pair.
    """

    __slots__ = ("category", "H", "psi")

    def __init__(self, category: PointedCategory, H: Subgroup, psi: Cochain):
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "psi", psi)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraPair objects are immutable")

    @property
    def rank(self) -> int:
        return self.category.group.order // self.H.order

    def __eq__(self, other):
        if not isinstance(other, AlgebraPair):
            return NotImplemented
        return (self.category == other.category and self.H == other.H
                and self.psi == other.psi)

    def __hash__(self):
        return hash((self.H.members, self.psi))

    def __repr__(self):
        return f"AlgebraPair(H={list(self.H.members)}, {len(self.psi.values)} psi entries)"


def _twist(cat: PointedCategory, g: int, members) -> list:
    """big_omega(g) at the identity-free pairs of these ascending members, in
    lexicographic order, as numerators over ``cat.den`` in [0, den): its
    formula on omega's numerators, read by index; zeros at once, reading
    none, for a zero omega or g = e."""
    G, den, nums = cat.group, cat.den, cat.omega.nums
    e, base = G.identity, G.order - 1
    ids = [x for x in members if x != e]
    if den == 1 or g == e:
        return [0] * len(ids) ** 2
    # places among the identity-free elements, as _tuple_index counts them
    places = [x - (x > e) for x in ids]
    moved = [y - (y > e) for y in (G.conj(g, x) for x in ids)]
    pg, out = g - (g > e), []
    for a, ca in zip(places, moved):
        # omega(ca, cb, g), omega(g, a, b) and omega(ca, g, b) start here
        r1, r2, r3 = ca * base * base + pg, (pg * base + a) * base, (ca * base + pg) * base
        out += [(nums[r1 + cb * base] + nums[r2 + b] - nums[r3 + b]) % den
                for b, cb in zip(places, moved)]
    return out


def big_omega(cat: PointedCategory, g: int) -> Cochain:
    """The 2-cochain measuring how conjugation by g twists omega.

    big_omega(g)(a, b) = omega(gag', gbg', g) + omega(g, a, b) - omega(gag', g, b)
    with g' = g^{-1}; its coboundary equals omega minus the conjugate of omega.
    Computed on all of G by ``_twist``.
    """
    return _of(cat.group, 2, _twist(cat, _element(cat.group, g), cat.group.elements()), cat.den)


def gamma_cochain(cat: PointedCategory, g1: int, g2: int) -> Cochain:
    """The 1-cochain comparing the twists of g1, g2 and their product.

    gamma(g1,g2)(g) = omega(g1, g2, g) + omega(^{g1g2}g, g1, g2)
                      - omega(g1, ^{g2}g, g2)
    """
    G, val = cat.group, cat.omega.value
    g12 = G.mul(_element(G, g1), _element(G, g2))
    return Cochain(G, 1, {(g,): val((g1, g2, g)) + val((G.conj(g12, g), g1, g2))
                          - val((g1, G.conj(g2, g), g2))
                          for g in G.elements() if g != G.identity})


def validate_pair(cat: PointedCategory, H: Subgroup, psi: Cochain) -> AlgebraPair:
    """Check d(psi) = omega|_H at every triple of H, on integer numerators over
    a common denominator (the matrix-free integer coboundary), and return the
    algebra pair.  Raises NotCompatible carrying the least failing triple of
    H-local indices."""
    if psi.degree != 2:
        raise DegreeMismatch("psi must have degree 2")
    view = H.as_group()
    if psi.group != view or H.parent != cat.group:
        raise NotCompatible("psi does not live on a subgroup view of the category")
    D = lcm(cat.den, psi.den)
    dpsi = [u % D for u in _coboundary_numerators(view, 2, numerators(psi, D))]
    omega = _numerators_on(cat.omega, H.members, D)  # in [0, D), like dpsi
    if dpsi != omega:
        t = _index_tuple(view, next(k for k, (u, w) in enumerate(zip(dpsi, omega))
                                    if u != w), 3)
        raise NotCompatible(f"d(psi) differs from the restricted 3-cocycle at {t}",
                            witness=t)
    return AlgebraPair(cat, H, psi)


def alpha_g(psi_pair: AlgebraPair, xi_pair: AlgebraPair, g: int) -> Cochain:
    """The 2-cocycle on H meet gLg^{-1} controlling the double coset of g.

    Full expression, with g' = g^{-1}, u(x) = omega(xg, ^{g'}x, ^{g'}(x^{-1})):

      alpha(x, y) = psi(x, y) - xi(^{g'}x, ^{g'}y)
                    + omega(x, y, g) + omega(x, yg, ^{g'}(y^{-1}))
                    - omega(xyg, ^{g'}(y^{-1}), ^{g'}(x^{-1}))
                    + u(y) - u(xy) + u(x)
                    + omega(^{g'}y, ^{g'}(y^{-1}), ^{g'}(x^{-1}))
                    - omega(^{g'}x, ^{g'}y, ^{g'}(y^{-1} x^{-1}))

    The result is checked to be a 2-cocycle on the intersection view.
    """
    if psi_pair.category != xi_pair.category:
        raise CategoryMismatch("algebra pairs live over different categories")
    cat = psi_pair.category
    G, val = cat.group, cat.omega.value
    ginv = G.inverse[_element(G, g)]
    H = psi_pair.H
    conj_L = conjugate_subgroup(G, xi_pair.H, g)
    inter = Subgroup(G, sorted(set(H.members) & set(conj_L.members)), _checked=True)

    hpos = {p: i for i, p in enumerate(H.members)}
    lpos = {p: i for i, p in enumerate(xi_pair.H.members)}
    psi_val = psi_pair.psi.value
    xi_val = xi_pair.psi.value

    def u(x):
        return val((G.mul(x, g), G.conj(ginv, x), G.conj(ginv, G.inverse[x])))

    out, mem = {}, inter.members
    pos = {p: i for i, p in enumerate(mem)}
    for x in mem:
        if x == G.identity:
            continue
        cx = G.conj(ginv, x)
        cx_inv = G.conj(ginv, G.inverse[x])
        for y in mem:
            if y == G.identity:
                continue
            cy = G.conj(ginv, y)
            cy_inv = G.conj(ginv, G.inverse[y])
            xy = G.mul(x, y)
            v = psi_val((hpos[x], hpos[y])) - xi_val((lpos[cx], lpos[cy]))
            v += val((x, y, g))
            v += val((x, G.mul(y, g), cy_inv))
            v -= val((G.mul(xy, g), cy_inv, cx_inv))
            v += u(y) - u(xy) + u(x)
            v += val((cy, cy_inv, cx_inv))
            v -= val((cx, cy, G.conj(ginv, G.inverse[xy])))
            out[(pos[x], pos[y])] = v
    result = Cochain(inter.as_group(), 2, out)
    if not is_cocycle(result):
        raise InternalInvariantBroken("alpha_g output is not a 2-cocycle")
    return result
