"""The benchmark's workloads: seeded inputs, timed rounds and output checks.

Each workload is a fixed list of operations on ``modcat``'s public API,
repeated in whole rounds.  ``setup`` builds what a round needs and is timed
as set-up; ``run`` performs the round's operations and records when each
started and ended on the clock it is given; ``check`` verifies what the
rounds returned with the independent code in ``checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction
from math import gcd

import checks as ck


# ----------------------------------------------------------------------------
# inputs the benchmark builds itself

def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(n):
    """Order n: r^i s^j at index i + (n/2) j, (r^a s^b)(r^c s^d) = r^(a +- c) s^(b+d)."""
    m = n // 2

    def mul(x, y):
        a, b, c, d = x % m, x // m, y % m, y // m
        return (a + (c if b == 0 else -c)) % m + m * ((b + d) % 2)

    return [[mul(x, y) for y in range(n)] for x in range(n)]


def product_table(A, B):
    nb = len(B)
    n = len(A) * nb
    return [[A[x // nb][y // nb] * nb + B[x % nb][y % nb] for y in range(n)]
            for x in range(n)]


def cyclic_omega(n, q):
    """q i floor((j + k) / n) / n at (a^i, a^j, a^k): the class q of H^3(Z_n)."""
    out = {}
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                v = Fraction(q * i * ((j + k) // n), n) % 1
                if v:
                    out[(i, j, k)] = v
    return out


def sign_omega(n):
    """The nontrivial 3-cocycle of Z_2 pulled back along the reflection sign of D_n."""
    refl = range(n // 2, n)
    return {(a, b, c): Fraction(1, 2) for a in refl for b in refl for c in refl}


def kp_input(mc):
    """The paper's order-8 category, as table and omega values read from the fixture."""
    G = mc.kp_group()
    omega = {k: Fraction(v.num, v.den) for k, v in mc.kp_omega(G).values.items()}
    return [list(r) for r in G.table], omega


def make_category(mc, table, omega):
    G = mc.from_table(len(table), table)
    om = mc.Cochain(G, 3, {k: mc.QZ(v.numerator, v.denominator) for k, v in omega.items()})
    return mc.PointedCategory(G, om)


def qz_cochain(mc, view, degree, values, pos):
    """A package Cochain on a subgroup view from Fraction values over ambient args."""
    return mc.Cochain(view, degree, {tuple(pos[x] for x in k): mc.QZ(v.numerator, v.denominator)
                                     for k, v in values.items() if v})


def ambient_values(cochain, members):
    """A package Cochain's values as Fractions over ambient element indices."""
    return {tuple(members[a] for a in k): Fraction(v.num, v.den)
            for k, v in cochain.values.items()}


# ----------------------------------------------------------------------------
# count facts that do not depend on the program

def fact_all_subgroups(T, pairs, class_of):
    ck.require({frozenset(m) for m, _ in pairs} == T.subgroups(),
               "trivial omega: some subgroup has no pair")


def fact_abelian_trivial(T, pairs, class_of):
    fact_all_subgroups(T, pairs, class_of)
    want = sum(ck.schur_multiplier_order(ck.invariant_factors(T, S)) for S in T.subgroups())
    ck.require(len(pairs) == want == len(set(class_of.values())),
               f"abelian, trivial omega: {len(pairs)} pairs, "
               f"{len(set(class_of.values()))} classes, Schur multipliers sum to {want}")


def fact_cyclic(n, q):
    def fact(T, pairs, class_of):
        want = ck.divisor_count(gcd(n, q))
        ck.require(len(set(class_of.values())) == want,
                   f"cyclic:{n}:{q}: expected {want} classes")
    return fact


def fact_kp(T, pairs, class_of):
    ck.require((len(pairs), len(set(class_of.values()))) == (10, 6),
               "kp: expected 10 pairs in 6 classes")


def fact_sign(n):
    def fact(T, pairs, class_of):
        rotations = frozenset(range(n // 2))
        want = {S for S in T.subgroups() if S <= rotations}
        ck.require({frozenset(m) for m, _ in pairs} == want,
                   "sign-pulled-back omega: admissible subgroups are not the rotation subgroups")
    return fact


def trivial_specs():
    d8z2 = product_table(dihedral_table(8), cyclic_table(2))
    z4z4 = product_table(cyclic_table(4), cyclic_table(4))
    return [("D8xZ2", d8z2, {}, [fact_all_subgroups]),
            ("Z4xZ4", z4z4, {}, [fact_abelian_trivial]),
            ("dihedral:16", dihedral_table(16), {}, [fact_all_subgroups]),
            ("cyclic:16", cyclic_table(16), {}, [fact_abelian_trivial, fact_cyclic(16, 0)])]


def twisted_specs(mc):
    kp_table, kp_omega = kp_input(mc)
    return [("kp", kp_table, kp_omega, [fact_kp]),
            ("cyclic:12:2", cyclic_table(12), cyclic_omega(12, 2), [fact_cyclic(12, 2)]),
            ("dihedral:12 sign", dihedral_table(12), sign_omega(12), [fact_sign(12)])]


# ----------------------------------------------------------------------------
# workloads

class ClassifyWorkload:
    """Cold ``classify`` of fixed categories, each on freshly built groups."""

    fresh_setup_per_round = True
    setup_reps = 2  # set-up samples besides the one before each round

    def __init__(self, mc, seed, specs):
        self.mc = mc
        self.specs = list(specs)
        # the seed fixes only the order: relabelling the elements of a group
        # changes the cost of classifying it by up to 2x
        random.Random(seed).shuffle(self.specs)
        self.first = None
        self.same = True

    def setup(self):
        return [make_category(self.mc, table, omega) for _, table, omega, _ in self.specs]

    def run(self, cats, latencies, clock):
        out = []
        for cat in cats:
            t0 = clock()
            try:
                out.append(self.mc.classify(cat, jobs=1))
            except Exception:  # counted as a failed operation
                out.append(None)
            latencies.append((t0, clock()))
        return out

    def record(self, reports):
        texts = [None if r is None else json.dumps(self.mc.report_to_json(r), sort_keys=True)
                 for r in reports]
        if self.first is None:
            self.first = texts
        elif texts != self.first:
            self.same = False
        return sum(r is None for r in reports)

    def check(self):
        ck.require(self.same, "a later round's report differs from the first")
        for (_, table, omega, facts), text in zip(self.specs, self.first):
            if text is None:
                continue
            T = ck.Table(table)
            if omega:
                ck.check_twist_property(T, omega)
            pairs, class_of = ck.check_report(T, omega, json.loads(text))
            for fact in facts:
                fact(T, pairs, class_of)

    def extra_metrics(self):
        return {"cohomology.cache_bytes": 0}  # no disk cache


class QueryWorkload:
    """Warm ``equivalent_pairs`` queries on D8xZ2 with trivial omega."""

    fresh_setup_per_round = False
    setup_reps = 3
    min_ops = 1000

    def __init__(self, mc, seed):
        self.mc = mc
        self.seed = seed
        self.table = product_table(dihedral_table(8), cyclic_table(2))
        self.first = None
        self.same = True

    def setup(self):
        mc = self.mc
        cat = make_category(mc, self.table, {})
        report = mc.classify(cat, jobs=1)
        G = cat.group
        # classify leaves some degree-1 factorizations without V; one solve
        # per subgroup completes them, so queries never factor a matrix
        for H in mc.subgroups(G):
            view = H.as_group()
            if view.order > 1:
                f = mc.Cochain(view, 1, {(1,): mc.QZ(1, 3)})
                mc.solve_coboundary(mc.coboundary(f))
        self.state = cat, report, self._queries(cat, report)
        return self.state

    def _queries(self, cat, report):
        """For every pair a over a nontrivial subgroup: two queries against copies
        of the next and the previous pair in a's class (a itself in a class of
        one) and, where such pairs exist, two against copies of the next and the
        previous pair over a conjugate subgroup in another class, in index order
        with wrap-around.  A copy of pair (H, psi) is (L, xi) with L = g^-1 H g and
        xi = psi^g + Omega_g + df for random g and f; Omega_g vanishes here,
        as omega is trivial.

        Which pairs are compared is fixed, not drawn: the cost of an
        inequivalent query depends on the two classes (on the full group it
        ranges from 40 to 110 ms), so a drawn partner would let the seed move
        the tail latency.  The seed draws g, f and the order of the queries."""
        mc, T, rng = self.mc, ck.Table(self.table), random.Random(self.seed)
        G = cat.group
        pairs = [(p.H.members, ambient_values(p.psi, p.H.members)) for p in report.pairs]
        class_of = {m: ci for ci, blk in enumerate(report.classes) for m in blk["members"]}
        orbit = {}
        for H, _ in pairs:
            S = frozenset(H)
            if S not in orbit:
                conjugates = {T.conjugate_set(g, S) for g in range(T.order)}
                orbit.update((C, min(map(sorted, conjugates))) for C in conjugates)
        orbit_of = [orbit[frozenset(H)] for H, _ in pairs]
        queries = []
        for i, (H, _) in enumerate(pairs):
            if len(H) < 2:
                continue
            after = list(range(i + 1, len(pairs))) + list(range(i + 1))
            same = [j for j in after if class_of[j] == class_of[i]]
            other = [j for j in after if class_of[j] != class_of[i] and orbit_of[j] == orbit_of[i]]
            for j in [c[k] for c in (same, other) if c for k in (0, -1)]:
                K, psi = pairs[j]
                g = rng.randrange(T.order)
                L = sorted(T.conjugate_set(T.inv[g], K))
                f = {(x,): Fraction(rng.randrange(1, 12), 12) for x in L if x != T.e}
                df = ck.d1(T, f, L)
                xi = {}
                for x in L:
                    for y in L:
                        if T.e not in (x, y):
                            v = (psi.get((T.conj(g, x), T.conj(g, y)), ck.ZERO)
                                 + df.get((x, y), ck.ZERO)) % 1
                            if v:
                                xi[(x, y)] = v
                Lsub = mc.Subgroup(G, L)
                pos = {x: k for k, x in enumerate(L)}
                b = mc.validate_pair(cat, Lsub, qz_cochain(mc, Lsub.as_group(), 2, xi, pos))
                queries.append((report.pairs[i], b, class_of[i] == class_of[j], (H, L, xi, i)))
        rng.shuffle(queries)
        return queries

    def run(self, state, latencies, clock):
        equivalent_pairs = self.mc.equivalent_pairs
        out = []
        for a, b, _, _ in state[2]:
            t0 = clock()
            try:
                out.append(equivalent_pairs(a, b))
            except Exception:  # counted as a failed operation
                out.append(False)
            latencies.append((t0, clock()))
        return out

    def record(self, answers):
        summary = [w if w is None or w is False else
                   (w.g, tuple(sorted(w.coboundary_witness.values.items()))) for w in answers]
        if self.first is None:
            self.first = (answers, summary)
        elif summary != self.first[1]:
            self.same = False
        return sum(w is False for w in answers)

    def check(self):
        ck.require(self.same, "a later round answered differently from the first")
        cat, report, queries = self.state
        T = ck.Table(self.table)
        pairs, class_of = ck.check_report(T, {}, json.loads(json.dumps(
            self.mc.report_to_json(report))))
        fact_all_subgroups(T, pairs, class_of)
        kinds = set()
        for (a, b, expected, (H, L, xi, i)), w in zip(queries, self.first[0]):
            if w is False:
                continue
            ck.check_pair(T, {}, L, xi)
            ck.require((w is not None) == expected,
                       f"query on pair {i} over H={list(H)}: expected "
                       f"{'equivalent' if expected else 'inequivalent'}")
            kinds.add(expected)
            if w is not None:
                f = ambient_values(w.coboundary_witness, L)
                ck.check_witness(T, {}, H, pairs[i][1], L, xi, w.g, f)
        ck.require(kinds == {True, False}, "queries do not cover both answers")

    def extra_metrics(self):
        return {"cohomology.cache_bytes": 0}  # no disk cache


class CliWorkload:
    """``modcat`` commands through ``cli.main`` in-process, reading a filled disk cache."""

    fresh_setup_per_round = False
    # one set-up computes every factorization cold (about 12 s); a second
    # would double the run for a figure that ten runs already give a median of
    setup_reps = 1

    def __init__(self, mc, seed, workdir):
        self.mc = mc
        self.seed = seed
        self.workdir = workdir
        self.same = True
        self.snapshot = None

    def _commands(self):
        """(argv, exit code, check of the JSON output or None) for every command."""
        mc, rng = self.mc, random.Random(self.seed)
        targets = os.path.join(self.workdir, "targets")
        os.makedirs(targets, exist_ok=True)

        def target_file(name, data):
            path = os.path.join(targets, name)
            with open(path, "w") as fh:
                json.dump(data, fh)
            return "@" + path

        def values(d):
            return [{"args": list(k), "val": f"{v.numerator}/{v.denominator}"}
                    for k, v in sorted(d.items())]

        kp_table, kp_omega = kp_input(mc)
        Tkp = ck.Table(kp_table)
        T12 = ck.Table(mc.builtin_group("cyclic:12").table)
        T16 = ck.Table(mc.builtin_group("dihedral:16").table)
        om12 = cyclic_omega(12, 2)

        # a seeded 1-cochain on D16 and its coboundary (a degree-2 target)
        f16 = {(x,): Fraction(rng.randrange(16), 16) for x in range(1, 16)}
        cob2 = ck.d1(T16, f16, range(16))

        def solved(T, target):
            def check(out):
                w = {tuple(e["args"]): ck.frac(e["val"]) for e in out["witness"]}
                ck.require(ck.d1(T, w, range(T.order)) == target,
                           "solve witness: d(witness) != target")
            return check

        def equiv(T, omega, H, psi, L, xi):
            def check(out):
                ck.require(out["equivalent"], "equiv: expected equivalent")
                f = {(L[e["args"][0]],): ck.frac(e["val"]) for e in out["f"]}
                ck.check_witness(T, omega, H, psi, L, xi, out["g"], f)
            return check

        def report(T, omega, facts):
            def check(out):
                pairs, class_of = ck.check_report(T, omega, out)
                for fact in facts:
                    fact(T, pairs, class_of)
            return check

        def group_info_d16(out):
            subs = T16.subgroups()
            classes = {frozenset(T16.conjugate_set(g, S) for g in range(16)) for S in subs}
            ck.require((len(out["subgroups"]), len(out["conjugacy_classes"]))
                       == (len(subs), len(classes)),
                       "group-info dihedral:16: subgroup or conjugacy class count differs")

        def is_cocycle(out):
            ck.require(out["is_cocycle"] is True, "cocycle-check kp: expected a cocycle")

        def h2_count(count):
            def check(out):
                ck.require(out["count"] == count, f"h2: expected {count} classes")
            return check

        def h2_d16(out):
            ck.require(out["count"] == 2, "h2 dihedral:16: the Schur multiplier has order 2")
            for rep in out["representatives"]:
                psi = {tuple(e["args"]): ck.frac(e["val"]) for e in rep}
                ck.require(not ck.d2(T16, psi, range(16)), "h2 representative is not a cocycle")

        # a bilinear 2-cocycle of the nontrivial class of H^2(Z_2 x Z_2), in the
        # Klein four-group's indices e, u, v, uv: beta(x, y) = x_u y_v / 2
        klein_beta = {(1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2),
                      (3, 2): Fraction(1, 2), (3, 3): Fraction(1, 2)}
        beta = json.dumps({"values": values(klein_beta)})
        full_shift = json.dumps({"values": values(cob2)})
        return [
            (["classify", "--group", "kp", "--omega", "kp", "--format", "json"], 0,
             report(Tkp, kp_omega, [fact_kp])),
            (["classify", "--group", "cyclic:12", "--omega", "cyclic:12:2", "--format", "json"], 0,
             report(T12, om12, [fact_cyclic(12, 2)])),
            (["h2", "--group", "dihedral:16", "--format", "json"], 0, h2_d16),
            (["h2", "--group", "kp"], 0, None),
            # kp: the two H^2 classes on the Klein subgroup are merged by x
            (["equiv", "--group", "kp", "--omega", "kp", "--pair1", "H=[0,1,2,3];psi=zero",
              "--pair2", "H=[0,1,2,3];psi=" + beta, "--format", "json"], 0,
             equiv(Tkp, kp_omega, (0, 1, 2, 3), {}, (0, 1, 2, 3), klein_beta)),
            # trivial omega: N(V) fixes both classes of H^2(V) for V = {e, r^4, s, r^4 s}
            (["equiv", "--group", "dihedral:16", "--omega", "trivial",
              "--pair1", "H=[0,4,8,12];psi=zero", "--pair2", "H=[0,4,8,12];psi=" + beta,
              "--format", "json"], 1, None),
            (["equiv", "--group", "dihedral:16", "--omega", "trivial", "--pair1", "full:zero",
              "--pair2", "full:" + full_shift, "--format", "json"], 0,
             equiv(T16, {}, tuple(range(16)), {}, tuple(range(16)), cob2)),
            (["equiv", "--group", "cyclic:12", "--omega", "cyclic:12:2",
              "--pair1", "H=[0];psi=zero", "--pair2", "H=[0,6];psi=zero"], 1, None),
            # the class q = 2 of H^3(Z_12) is nonzero
            (["solve", "--target", target_file("omega12.json", {
                "group": "cyclic:12", "degree": 3, "values": values(om12)}), "--format", "json"],
             1, None),
            (["solve", "--target", target_file("cob2.json", {
                "group": "dihedral:16", "degree": 2, "values": values(cob2)}), "--format", "json"],
             0, solved(T16, cob2)),
            (["h2", "--group", "cyclic:12", "--format", "json"], 0, h2_count(1)),
            (["group-info", "--group", "dihedral:16", "--format", "json"], 0, group_info_d16),
            (["cocycle-check", "--group", "kp", "--cocycle", "kp", "--format", "json"], 0,
             is_cocycle),
        ]

    def _call(self, argv, cache):
        os.environ[self.mc.cohomology.CACHE_ENV] = cache
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.mc.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def setup(self):
        """Each command once on its own empty cache (the reference output), the
        caches merged into one, and one pass over the merged cache so that it
        holds every factorization the commands read."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.commands = self._commands()
        warm = os.path.join(self.workdir, "warm")
        os.makedirs(warm)
        self.cold = []
        for k, (argv, _, _) in enumerate(self.commands):
            cold = os.path.join(self.workdir, f"cold-{k}")
            os.makedirs(cold)
            self.cold.append(self._call(argv, cold))
            for name in os.listdir(cold):
                src, dst = os.path.join(cold, name), os.path.join(warm, name)
                if name.endswith(".json") and (
                        not os.path.exists(dst) or os.path.getsize(src) > os.path.getsize(dst)):
                    shutil.copyfile(src, dst)
            shutil.rmtree(cold)
        settle = [self._call(argv, warm) for argv, _, _ in self.commands]
        if settle != self.cold:
            self.same = False
        self.snapshot = self._listing(warm)
        self.warm = warm
        return warm

    @staticmethod
    def _listing(path):
        return sorted((e.name, e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(path))

    def run(self, warm, latencies, clock):
        out = []
        for argv, _, _ in self.commands:
            t0 = clock()
            try:
                out.append(self._call(argv, warm))
            except Exception:  # counted as a failed operation
                out.append(None)
            latencies.append((t0, clock()))
        return out

    def record(self, results):
        if any(r is not None and r != c for r, c in zip(results, self.cold)):
            self.same = False
        return sum(r is None for r in results)

    def check(self):
        ck.require(self.same, "a command's stdout from the cache differs from the cold run")
        ck.require(self._listing(self.warm) == self.snapshot,
                   "a measured round wrote to the filled cache")
        for (argv, code, check), (got_code, out) in zip(self.commands, self.cold):
            ck.require(got_code == code, f"{argv[0]}: exit {got_code}, expected {code}")
            if check is not None:
                check(json.loads(out))

    def extra_metrics(self):
        return {"cohomology.cache_bytes": sum(e.stat().st_size for e in os.scandir(self.warm))}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
