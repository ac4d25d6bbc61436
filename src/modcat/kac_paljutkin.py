"""Built-in fixture: the order-8 pointed category behind the Kac-Paljutkin algebra.

The group is (Z2 x Z2) semidirect Z2, isomorphic to the dihedral group of
order 8.  Elements are triples (i, j, n) standing for z^i t^j x^n, packed as
index 4n + 2j + i; the generator x acts on the Klein factor by z -> z,
t -> zt.  The 3-cocycle is assembled from the bicrossed-product data tau and
sigma; the constructor verifies every stated property of the fixture rather
than trusting the transcription.
"""

from __future__ import annotations

from .cochains import Cochain, restrict
from .cohomology import h2_representatives, is_cohomologous
from .errors import InternalInvariantBroken
from .groups import Group, Subgroup, from_table
from .pointed import PointedCategory, big_omega
from .qz import QZ

__all__ = ["KPData", "kp_tau", "kp_sigma", "kp_group", "kp_omega", "kp_category"]


def kp_tau(n: int, i: int, j: int, i2: int, j2: int) -> QZ:
    """tau_{x^n}(z^i t^j, z^i' t^j'): a sign, nonzero exactly when n*j*i' is odd."""
    return QZ(n * j * i2, 2)


def kp_sigma(i: int, j: int, n: int, n2: int) -> QZ:
    """sigma_{z^i t^j}(x^n, x^n'): j * floor((n+n')/2) quarter turns."""
    return QZ(j * ((n + n2) - ((n + n2) % 2)) // 2, 4)


def _decode(idx: int):
    return idx & 1, (idx >> 1) & 1, (idx >> 2) & 1  # (i, j, n)


def _name(i, j, n):
    s = ("z" if i else "") + ("t" if j else "") + ("x" if n else "")
    return s or "e"


def kp_group() -> Group:
    """The order-8 group with index encoding 4n + 2j + i for z^i t^j x^n."""
    def mul(a, b):
        i1, j1, n1 = _decode(a)
        i2, j2, n2 = _decode(b)
        # (z^i1 t^j1 x^n1)(z^i2 t^j2 x^n2); x^n |> z^i t^j = z^(i + n j) t^j
        return (4 * ((n1 + n2) % 2) + 2 * ((j1 + j2) % 2)
                + (i1 + i2 + n1 * j2) % 2)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    names = [_name(*_decode(a)) for a in range(8)]
    return from_table(8, table, names)


def kp_omega(G: Group) -> Cochain:
    """The 3-cocycle combining tau and sigma over the semidirect coordinates."""
    vals = {}
    for a in range(8):
        i1, j1, n1 = _decode(a)
        for b in range(8):
            i2, j2, n2 = _decode(b)
            for c in range(8):
                if G.identity in (a, b, c):
                    continue
                i3, j3, n3 = _decode(c)
                acted_i3 = (i3 + n2 * j3) % 2
                v = kp_tau(n1, i2, j2, acted_i3, j3) + kp_sigma(i3, j3, n1, n2)
                if v:
                    vals[(a, b, c)] = v
    return Cochain(G, 3, vals)


class KPData:
    """The fixture bundle: category, the Klein subgroup L, the element x,
    and a representative of the nontrivial second cohomology class on L."""

    __slots__ = ("category", "L", "x", "xi_nontrivial")

    def __init__(self, category, L, x, xi_nontrivial):
        self.category = category
        self.L = L
        self.x = x
        self.xi_nontrivial = xi_nontrivial


def kp_category() -> KPData:
    """Build and self-validate the fixture.

    Checks: the group is nonabelian of order 8; omega is a normalized
    3-cocycle; omega restricts to zero on L; the conjugation twist of x
    restricted to L represents the nontrivial class of H^2(L).
    """
    G = kp_group()
    if G.order != 8 or G.is_abelian():
        raise InternalInvariantBroken("fixture group is not nonabelian of order 8")
    omega = kp_omega(G)
    cat = PointedCategory(G, omega)  # raises NotCompatible unless a 3-cocycle
    L = Subgroup(G, (0, 1, 2, 3))
    x = 4
    if not restrict(omega, L).is_zero():
        raise InternalInvariantBroken("omega does not restrict to zero on L")
    reps = h2_representatives(L.as_group())
    if len(reps) != 2:
        raise InternalInvariantBroken("H^2 of the Klein subgroup should have order 2")
    xi = reps[1]
    twist = restrict(big_omega(cat, x), L)
    if is_cohomologous(twist, xi) is None:
        raise InternalInvariantBroken("x-twist on L is not the nontrivial class")
    if is_cohomologous(twist, Cochain(L.as_group(), 2, {})) is not None:
        raise InternalInvariantBroken("x-twist on L is unexpectedly trivial")
    return KPData(cat, L, x, xi)
