"""Structure constants of a pointed category: the 3-cocycle and its twists.

A pointed category here is just a validated pair (finite group, normalized
3-cocycle omega).  Conjugation by a group element g twists omega; the
2-cochain big_omega(g) measures that twist and is the monoidal structure of
the adjoint action.  Algebra pairs (H, psi) with d(psi) = omega|_H label the
module categories the classifier works with.
"""

from __future__ import annotations

from math import lcm

from .cochains import (Cochain, combine, conjugate_cochain, is_cocycle,
                       nonidentity_tuples, restrict)
from .cohomology import coboundary_matrix, integer_coboundary, numerators
from .errors import (CategoryMismatch, DegreeMismatch, InternalInvariantBroken,
                     NotCompatible)
from .groups import Group, Subgroup, conjugate_subgroup

__all__ = [
    "PointedCategory",
    "AlgebraPair",
    "big_omega",
    "gamma_cochain",
    "validate_pair",
    "conjugate_pair",
    "alpha_g",
]


class PointedCategory:
    """A finite group together with a normalized 3-cocycle on it, checked
    with ``is_cocycle`` on construction; ``den``, the lcm of omega's
    denominators, also clears every twist big_omega(g)."""

    __slots__ = ("group", "omega", "den", "_twists")

    def __init__(self, group: Group, omega: Cochain):
        if omega.group != group or omega.degree != 3:
            raise DegreeMismatch("omega must be a 3-cochain on the given group")
        if not is_cocycle(omega):
            raise NotCompatible("omega is not a 3-cocycle")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "den", lcm(*(v.den for v in omega.values.values())))
        object.__setattr__(self, "_twists", {})

    def __setattr__(self, name, value):
        raise AttributeError("PointedCategory objects are immutable")

    def __eq__(self, other):
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

    def key(self):
        """Canonical sort key: subgroup members, then psi value sequence."""
        return (self.H.members, self.psi.value_sequence())

    def __eq__(self, other):
        if not isinstance(other, AlgebraPair):
            return NotImplemented
        return (self.category == other.category and self.H == other.H
                and self.psi == other.psi)

    def __hash__(self):
        return hash((self.H.members, self.psi))

    def __repr__(self):
        return f"AlgebraPair(H={list(self.H.members)}, {len(self.psi.values)} psi entries)"


def big_omega(cat: PointedCategory, g: int) -> Cochain:
    """The 2-cochain measuring how conjugation by g twists omega.

    big_omega(g)(a, b) = omega(gag', gbg', g) + omega(g, a, b) - omega(gag', g, b)
    with g' = g^{-1}; its coboundary equals omega minus the conjugate of omega.
    Memoized per category and g.
    """
    got = cat._twists.get(g)
    if got is not None:
        return got
    G, om = cat.group, cat.omega
    val = om.value
    conj = G.conj
    out = {}
    for a, b in nonidentity_tuples(G, 2) if om.values else ():  # zero omega: zero twist
        ca, cb = conj(g, a), conj(g, b)
        v = val((ca, cb, g)) + val((g, a, b)) - val((ca, g, b))
        if v:
            out[(a, b)] = v
    res = Cochain(G, 2, out)
    cat._twists[g] = res
    return res


def gamma_cochain(cat: PointedCategory, g1: int, g2: int) -> Cochain:
    """The 1-cochain comparing the twists of g1, g2 and their product.

    gamma(g1,g2)(g) = omega(g1, g2, g) + omega(^{g1g2}g, g1, g2)
                      - omega(g1, ^{g2}g, g2)
    """
    G, om = cat.group, cat.omega
    val = om.value
    g12 = G.mul(g1, g2)
    out = {}
    for (g,) in nonidentity_tuples(G, 1):
        v = val((g1, g2, g)) + val((G.conj(g12, g), g1, g2)) \
            - val((g1, G.conj(g2, g), g2))
        if v:
            out[(g,)] = v
    return Cochain(G, 1, out)


def validate_pair(cat: PointedCategory, H: Subgroup, psi: Cochain) -> AlgebraPair:
    """Check d(psi) = omega|_H by one sparse integer product with H's degree-2
    coboundary matrix, on numerators over a common denominator, and return the
    algebra pair.  Raises NotCompatible carrying the least failing triple of
    H-local indices."""
    if psi.degree != 2:
        raise DegreeMismatch("psi must have degree 2")
    view = H.as_group()
    if psi.group != view:
        raise NotCompatible("psi does not live on the subgroup view")
    mat = coboundary_matrix(view, 2)
    D = lcm(cat.den, *(v.den for v in psi.values.values()))
    dpsi = integer_coboundary(mat, numerators(psi, D))
    for i, (u, w) in enumerate(zip(dpsi, numerators(restrict(cat.omega, H), D))):
        if (u - w) % D:
            raise NotCompatible(
                f"d(psi) differs from the restricted 3-cocycle at {mat.rows[i]}",
                witness=mat.rows[i])
    return AlgebraPair(cat, H, psi)


def conjugate_pair(pair: AlgebraPair, g: int) -> AlgebraPair:
    """The pair labeling the conjugated algebra: (gHg', psi twisted by g').

    The new cochain is the g'-conjugate of psi plus the restriction of
    big_omega(g') to gHg', with g' = g^{-1}.
    """
    cat = pair.category
    G = cat.group
    ginv = G.inverse[g]
    target = conjugate_subgroup(G, pair.H, g)
    moved = conjugate_cochain(pair.psi, ginv)
    twist = restrict(big_omega(cat, ginv), target)
    new_psi = combine(moved, twist, (1, 1))
    try:
        return validate_pair(cat, target, new_psi)
    except NotCompatible as exc:
        raise InternalInvariantBroken(
            f"conjugated pair failed validation: {exc}") from exc


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
    G, om = cat.group, cat.omega
    val = om.value
    ginv = G.inverse[g]
    H = psi_pair.H
    conj_L = conjugate_subgroup(G, xi_pair.H, g)
    inter = Subgroup(G, sorted(set(H.members) & set(conj_L.members)), _checked=True)

    hpos = {p: i for i, p in enumerate(H.members)}
    lpos = {p: i for i, p in enumerate(xi_pair.H.members)}
    psi_val = psi_pair.psi.value
    xi_val = xi_pair.psi.value

    def u(x):
        return val((G.mul(x, g), G.conj(ginv, x), G.conj(ginv, G.inverse[x])))

    out = {}
    mem = inter.members
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
            if v:
                out[(x, y)] = v

    view = inter.as_group()
    pos = {p: i for i, p in enumerate(inter.members)}
    local = {(pos[x], pos[y]): v for (x, y), v in out.items()}
    result = Cochain(view, 2, local)
    if not is_cocycle(result):
        raise InternalInvariantBroken("alpha_g output is not a 2-cocycle")
    return result
