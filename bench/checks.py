"""Output checks that do not trust the package.

Every check here works on plain data: a multiplication table (list of rows),
a 3-cocycle as a dict from identity-free triples of element indices to
``Fraction`` values, and the JSON the package emits.  Values are read as
fractions modulo 1 and all arithmetic is ``fractions.Fraction``; nothing
here calls the package's solver, coboundary or twist code.

Conventions (the package's, restated from first principles):

* (df)(a) = 0 for a 0-cochain; (df)(a, b) = f(b) - f(ab) + f(a);
  (df)(a, b, c) = f(b, c) - f(ab, c) + f(a, bc) - f(a, b).
* psi^g(x, y) = psi(g x g^-1, g y g^-1).
* Omega_g(a, b) = omega(g a g^-1, g b g^-1, g) + omega(g, a, b)
                  - omega(g a g^-1, g, b).
* (H, psi) and (L, xi) are equivalent via g when g L g^-1 = H and
  -xi + psi^g + Omega_g restricted to L is d of a 1-cochain on L.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ZERO = Fraction(0)


class CheckFailed(Exception):
    """An output of the package contradicts an independent check."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def frac(text) -> Fraction:
    """A JSON value "p/q" as a Fraction in [0, 1)."""
    return Fraction(str(text)) % 1


class Table:
    """A finite group given by its multiplication table, identity found here."""

    def __init__(self, rows):
        self.mul = [list(r) for r in rows]
        self.order = n = len(self.mul)
        self.e = next(x for x in range(n)
                      if all(self.mul[x][y] == y == self.mul[y][x] for y in range(n)))
        self.inv = [next(y for y in range(n) if self.mul[x][y] == self.e)
                    for x in range(n)]

    def conj(self, g, x):
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def power(self, x, k):
        out = self.e
        for _ in range(k):
            out = self.mul[out][x]
        return out

    def closure(self, gens):
        mem = {self.e, *gens}
        frontier = list(mem)
        while frontier:
            new = []
            for a in frontier:
                for b in list(mem):
                    for p in (self.mul[a][b], self.mul[b][a]):
                        if p not in mem:
                            mem.add(p)
                            new.append(p)
            frontier = new
        return frozenset(mem)

    def subgroups(self):
        """Every subgroup, by closing each known subgroup under one more element."""
        found = {frozenset([self.e])}
        frontier = list(found)
        while frontier:
            new = []
            for S in frontier:
                for g in range(self.order):
                    if g not in S:
                        T = self.closure(S | {g})
                        if T not in found:
                            found.add(T)
                            new.append(T)
            frontier = new
        return found

    def conjugate_set(self, g, S):
        return frozenset(self.conj(g, x) for x in S)


def twist(T: Table, omega, g):
    """Omega_g on all of G, as a dict over identity-free pairs."""
    w = omega.get
    out = {}
    for a in range(T.order):
        for b in range(T.order):
            if T.e in (a, b):
                continue
            ca, cb = T.conj(g, a), T.conj(g, b)
            v = (w((ca, cb, g), ZERO) + w((g, a, b), ZERO) - w((ca, g, b), ZERO)) % 1
            if v:
                out[(a, b)] = v
    return out


def d1(T: Table, f, members):
    """d of a 1-cochain (dict over 1-tuples), on the identity-free pairs of ``members``."""
    out = {}
    for x in members:
        for y in members:
            if T.e in (x, y):
                continue
            v = (f.get((y,), ZERO) - f.get((T.mul[x][y],), ZERO) + f.get((x,), ZERO)) % 1
            if v:
                out[(x, y)] = v
    return out


def d2(T: Table, f, members):
    """d of a 2-cochain (dict over ambient pairs), on the triples of ``members``."""
    get = f.get
    m = T.mul
    out = {}
    for a in members:
        for b in members:
            ab = m[a][b]
            for c in members:
                v = (get((b, c), ZERO) - get((ab, c), ZERO)
                     + get((a, m[b][c]), ZERO) - get((a, b), ZERO)) % 1
                if v:
                    out[(a, b, c)] = v
    return out


def restrict_triples(T: Table, omega, members):
    S = set(members)
    return {k: v % 1 for k, v in omega.items() if v % 1 and all(x in S for x in k)}


def check_twist_property(T: Table, omega):
    """Own Omega_g against its defining property d(Omega_g) = omega - omega^g."""
    everything = range(T.order)
    for g in everything:
        lhs = d2(T, twist(T, omega, g), everything)
        for a in everything:
            for b in everything:
                for c in everything:
                    if T.e in (a, b, c):
                        continue
                    rhs = (omega.get((a, b, c), ZERO)
                           - omega.get((T.conj(g, a), T.conj(g, b), T.conj(g, c)), ZERO)) % 1
                    require(lhs.get((a, b, c), ZERO) == rhs,
                            f"d(Omega_{g}) != omega - omega^g at {(a, b, c)}")


def ambient_cochain(members, values):
    """JSON cochain values with subgroup-local args, keyed by ambient elements."""
    return {tuple(members[i] for i in entry["args"]): frac(entry["val"])
            for entry in values if frac(entry["val"])}


def check_pair(T: Table, omega, members, psi):
    """d(psi) = omega restricted to H."""
    require(d2(T, psi, members) == restrict_triples(T, omega, members),
            f"d(psi) != omega|_H on H={list(members)}")


def criterion(T: Table, omega, psi, xi, L, g, twists=None):
    """-xi + psi^g + Omega_g on the pairs of L (dict over ambient pairs)."""
    tw = twists[g] if twists is not None else twist(T, omega, g)
    out = {}
    for x in L:
        for y in L:
            if T.e in (x, y):
                continue
            v = (-xi.get((x, y), ZERO) + psi.get((T.conj(g, x), T.conj(g, y)), ZERO)
                 + tw.get((x, y), ZERO)) % 1
            if v:
                out[(x, y)] = v
    return out


def check_witness(T: Table, omega, H, psi, L, xi, g, f, twists=None):
    """g L g^-1 = H and d(f) = -xi + psi^g + Omega_g on L (f over ambient L)."""
    require(T.conjugate_set(g, L) == frozenset(H),
            f"g={g} does not conjugate L={sorted(L)} onto H={sorted(H)}")
    require(d1(T, f, L) == criterion(T, omega, psi, xi, L, g, twists),
            f"witness g={g} fails the criterion on L={sorted(L)}")


def check_report(T: Table, omega, report):
    """Check a classification report (the package's JSON) from first principles.

    Returns (pairs, class_of) with pairs as (members, psi over ambient pairs)
    and class_of mapping pair index to class index, for the caller's counts.
    """
    require([list(r) for r in report["group"]["table"]] == T.mul,
            "report group table differs from the input")
    pairs = []
    for entry in report["pairs"]:
        members = tuple(entry["H"])
        psi = ambient_cochain(members, entry["psi"])
        check_pair(T, omega, members, psi)
        pairs.append((members, psi))
    require(len({(m, tuple(sorted(p.items()))) for m, p in pairs}) == len(pairs),
            "a pair is listed twice")

    twists = {g: twist(T, omega, g) for g in range(T.order)}
    class_of = {}
    for ci, blk in enumerate(report["classes"]):
        rep = blk["representative"]
        members = blk["members"]
        require(rep in members, "class representative is not a member")
        for m in members:
            require(m not in class_of, f"pair {m} lies in two classes")
            class_of[m] = ci
        L, xi = pairs[rep]
        require(blk["rank"] == T.order // len(L), "class rank is not [G:H]")
        seen = set()
        for w in blk["witnesses"]:
            m = w["from"]
            require(m in members and m != rep and m not in seen,
                    "witness for a pair outside its class")
            seen.add(m)
            H, psi = pairs[m]
            f = ambient_cochain(L, w["f"])
            check_witness(T, omega, H, psi, L, xi, w["g"], f, twists)
        require(seen == set(members) - {rep}, "a class member has no witness")
        rep_set = frozenset(L)
        for m in members:
            Hm = frozenset(pairs[m][0])
            require(any(T.conjugate_set(g, rep_set) == Hm for g in range(T.order)),
                    "class members lie over non-conjugate subgroups")
    require(sorted(class_of) == list(range(len(pairs))),
            "classes do not partition the pairs")
    require(report["class_count"] == len(report["classes"]), "class_count is wrong")
    return pairs, class_of


def invariant_factors(T: Table, S):
    """Invariant factors d_1 | d_2 | ... of an abelian subgroup S, via p-power counts."""
    n = len(S)
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    exps = {}
    for p in primes:
        # c_k = |{x : x^(p^k) = e}| = p^(sum_i min(e_i, k)), so c_k / c_(k-1)
        # is p to the number of exponents e_i >= k
        counts = [1]
        while counts[-1] < _p_part(n, p):
            k = len(counts)
            counts.append(sum(1 for x in S if T.power(x, p ** k) == T.e))
        at_least = [_log(counts[k] // counts[k - 1], p) for k in range(1, len(counts))] + [0]
        exps[p] = sorted((k for k in range(1, len(at_least))
                          for _ in range(at_least[k - 1] - at_least[k])), reverse=True)
    width = max((len(v) for v in exps.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, e in exps.items():
            if i < len(e):
                d *= p ** e[i]
        factors.append(d)
    return sorted(factors)


def _p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def _log(x, p):
    k = 0
    while x > 1:
        x //= p
        k += 1
    return k


def schur_multiplier_order(factors):
    """|H^2(Z_d1 x ... x Z_dk, Q/Z)| = prod over i < j of gcd(d_i, d_j)."""
    out = 1
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            out *= gcd(factors[i], factors[j])
    return out


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)
