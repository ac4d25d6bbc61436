"""Command-line interface.

Commands: group-info, cocycle-check, solve, h2, omega-g, equiv, classify.
Reports go to stdout (text or byte-deterministic JSON); progress and
diagnostics go to stderr only.  Exit status: 0 success, 1 negative answer
(not a cocycle, nontrivial class, inequivalent pairs), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .classify import (DEFAULT_SIZE_LIMIT, classify, equivalent_pairs,
                       report_to_json)
from .cochains import (Cochain, cochain_from_json, cochain_to_json,
                       cyclic_3cocycle, is_cocycle, restrict, zero_cochain)
from .cohomology import _solve_cochain, h2_representatives
from .errors import DegreeMismatch, ModcatError, ParseError, SizeLimitExceeded
from .groups import (Group, Subgroup, _declared_order, _json_int, builtin_group,
                     group_from_json, group_to_json, subgroup_conjugacy_classes,
                     subgroups)
from .pointed import PointedCategory, big_omega, validate_pair
from .qz import root_of_unity_str

__all__ = ["main", "build_parser"]


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and overlong integers
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _group(ref, limit: int) -> Group:
    """The group that a builtin spec string or group JSON names, built only once
    the order it declares is within --size-limit, so no larger table is made."""
    order = _declared_order(ref)
    if order > limit:
        raise SizeLimitExceeded(f"group order {order} exceeds --size-limit {limit}")
    return builtin_group(ref) if isinstance(ref, str) else group_from_json(ref)


def load_group(spec: str, limit: int) -> Group:
    """The group of a --group spec, builtin or @file.json, within the limit."""
    return _group(_read_json_file(spec[1:]) if spec.startswith("@") else spec, limit)


def _ints(tokens, what: str):
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"{what} needs integers: {exc}") from exc


def load_omega(spec: str, group: Group) -> Cochain:
    if spec == "trivial":
        return zero_cochain(group, 3)
    if spec == "kp":
        from .kac_paljutkin import kp_group, kp_omega
        if group != kp_group():
            raise ParseError("omega 'kp' requires the builtin group 'kp'")
        return kp_omega(group)
    if spec.startswith("cyclic:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError("cyclic omega spec is cyclic:N:Q")
        n, q = _ints(parts[1:], "cyclic omega spec")
        if group.order != n:
            raise ParseError(f"cyclic omega is for order {n}, group has {group.order}")
        return cyclic_3cocycle(group, q)
    if spec.startswith("@"):
        return cochain_from_json(_read_json_file(spec[1:]), group=group,
                                 expect_degree=3)
    raise ParseError(f"unknown omega spec {spec!r}")


def load_category(spec: str, group: Group) -> PointedCategory:
    return PointedCategory(group, load_omega(spec, group))


def load_pair(spec: str, cat: PointedCategory):
    """Parse 'full:zero', 'full:@f', 'full:{json}', or 'H=[...];psi=...'."""
    group = cat.group
    if spec.startswith("full:"):
        H = Subgroup(group, range(group.order))
        psi_part = spec[len("full:"):]
    elif spec.startswith("H="):
        body, sep, psi_part = spec.partition(";psi=")
        if not sep:
            raise ParseError("pair spec needs ';psi=' after the member list")
        try:
            members = json.loads(body[len("H="):])
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad member list in pair spec: {exc}") from exc
        if not isinstance(members, list) or not all(type(m) is int for m in members):
            raise ParseError(f"pair spec members {members!r} are not a list of indices")
        H = Subgroup(group, members)
    else:
        raise ParseError(f"cannot parse pair spec {spec!r}")
    view = H.as_group()
    if psi_part == "zero":
        psi = zero_cochain(view, 2)
    elif psi_part.startswith("@"):
        psi = cochain_from_json(_read_json_file(psi_part[1:]), group=view,
                                expect_degree=2)
    elif psi_part.startswith("{"):
        try:
            data = json.loads(psi_part)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad inline psi JSON: {exc}") from exc
        data.setdefault("degree", 2)
        psi = cochain_from_json(data, group=view, expect_degree=2)
    else:
        raise ParseError(f"cannot parse psi part {psi_part!r}")
    return validate_pair(cat, H, psi)


def _cochain_lines(c: Cochain):
    return [f"  {tuple(c.group.names[a] for a in args)} -> {v}"
            for args, v in c.items()]


def cmd_group_info(args) -> int:
    G = load_group(args.group, args.size_limit)
    subs = subgroups(G)
    classes = subgroup_conjugacy_classes(G)
    index_of = {S.members: i for i, S in enumerate(subs)}
    if args.format == "json":
        _emit_json({
            "group": group_to_json(G),
            "abelian": G.is_abelian(),
            "subgroups": [{"members": list(S.members), "order": S.order}
                          for S in subs],
            "conjugacy_classes": [[index_of[S.members] for S in blk]
                                  for blk in classes],
        })
    else:
        print(f"order {G.order}, {'abelian' if G.is_abelian() else 'nonabelian'}")
        print(f"elements: {', '.join(G.names)}")
        print(f"{len(subs)} subgroups:")
        for i, S in enumerate(subs):
            names = ", ".join(G.names[a] for a in S.members)
            print(f"  [{i}] order {S.order}: {{{names}}}")
        print(f"{len(classes)} conjugacy classes of subgroups:")
        for blk in classes:
            print("  " + " ~ ".join(str(list(S.members)) for S in blk))
    return 0


def cmd_cocycle_check(args) -> int:
    if args.degree > 4:  # d of a 3-cochain; a cochain of degree k holds (|G| - 1)^k values
        raise DegreeMismatch(f"cocycle-check supports degrees up to 4, not {args.degree}")
    G = load_group(args.group, args.size_limit)
    if args.cocycle.startswith("@"):
        c = cochain_from_json(_read_json_file(args.cocycle[1:]), group=G,
                              expect_degree=args.degree)
    else:
        if args.degree != 3:
            raise ParseError("builtin cocycle specs are all degree 3")
        c = load_omega(args.cocycle, G)
    ok = is_cocycle(c)
    if args.format == "json":
        _emit_json({"degree": c.degree, "normalized": True, "is_cocycle": ok,
                    "nonzero_values": len(c.values)})
    else:
        print(f"degree {c.degree} cochain, {len(c.values)} nonzero values")
        print("normalized: yes (enforced at load)")
        print(f"cocycle: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def cmd_solve(args) -> int:
    if not args.target.startswith("@"):
        raise ParseError("--target must be @file.json")
    data = _read_json_file(args.target[1:])
    if not isinstance(data, dict):
        raise ParseError(f"{args.target[1:]} does not hold a target object")
    degree = _json_int(data, "degree", "cochain")
    if degree not in (2, 3):  # checked before the (|G| - 1)^degree values are allocated
        raise DegreeMismatch(f"solve supports target degrees 2 and 3, not {degree}")
    if args.group:
        group = load_group(args.group, args.size_limit)
    else:  # the target's own group; cochain_from_json says if it is missing
        own = data.get("group")
        group = None if own is None else _group(own, args.size_limit)
    target = cochain_from_json(data, group=group)
    witness, row = _solve_cochain(target)
    if witness is None:
        if args.format == "json":
            _emit_json({"solvable": False, "obstruction_row": row})
        else:
            print("nontrivial class")
            if args.verbose:
                print(f"obstruction at row {row}", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit_json({"solvable": True,
                    "witness": cochain_to_json(witness)["values"]})
    else:
        print("coboundary witness:")
        print("\n".join(_cochain_lines(witness)) or "  (zero cochain)")
    return 0


def cmd_h2(args) -> int:
    G = load_group(args.group, args.size_limit)
    reps = h2_representatives(G)
    if args.format == "json":
        _emit_json({"count": len(reps),
                    "representatives": [cochain_to_json(r)["values"]
                                        for r in reps]})
    else:
        print(f"H^2 has {len(reps)} classes")
        for k, r in enumerate(reps):
            print(f"representative {k}:")
            lines = _cochain_lines(r)
            print("\n".join(lines) if lines else "  (zero cochain)")
    return 0


def cmd_omega_g(args) -> int:
    G = load_group(args.group, args.size_limit)
    cat = load_category(args.omega, G)
    g = G.element_index(args.g)
    tw = big_omega(cat, g)
    if args.restrict is not None:
        members = _ints(args.restrict.split(","), "--restrict")
        tw = restrict(tw, Subgroup(G, members))
    if args.format == "json":
        _emit_json(cochain_to_json(tw))
    else:
        grp = tw.group
        print(f"conjugation twist of {G.names[g]} "
              f"on order-{grp.order} {'subgroup' if args.restrict is not None else 'group'}:")
        for a in grp.elements():
            row = []
            for b in grp.elements():
                row.append(root_of_unity_str(tw.value((a, b))))
            print("  " + " ".join(s.rjust(6) for s in row))
    return 0


def cmd_equiv(args) -> int:
    G = load_group(args.group, args.size_limit)
    cat = load_category(args.omega, G)
    a = load_pair(args.pair1, cat)
    b = load_pair(args.pair2, cat)
    w = equivalent_pairs(a, b)
    if w is None:
        if args.format == "json":
            _emit_json({"equivalent": False})
        else:
            print("inequivalent")
        return 1
    if args.format == "json":
        _emit_json({"equivalent": True, "g": w.g,
                    "f": cochain_to_json(w.coboundary_witness)["values"]})
    else:
        print(f"equivalent via g = {G.names[w.g]} (index {w.g})")
        print("coboundary witness:")
        print("\n".join(_cochain_lines(w.coboundary_witness)) or "  (zero cochain)")
    return 0


def cmd_classify(args) -> int:
    G = load_group(args.group, args.size_limit)
    cat = load_category(args.omega, G)
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    report = classify(cat, size_limit=args.size_limit, omega_source=args.omega,
                      progress=progress)
    if args.format == "json":
        _emit_json(report_to_json(report))
    else:
        print(f"{len(report.pairs)} pairs in {report.class_count} classes")
        for blk in report.classes:
            rep = report.pairs[blk["representative"]]
            names = ", ".join(G.names[a] for a in rep.H.members)
            print(f"class of (H={{{names}}}, {len(rep.psi.values)} psi entries): "
                  f"rank {blk['rank']}, members {blk['members']}")
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="modcat",
        description="Classify module categories over pointed fusion categories "
                    "by exact finite-group cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group_required=True):
        p.add_argument("--group", required=group_required,
                       help="builtin spec (cyclic:N, dihedral:N, kp) or @file.json")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--verbose", action="store_true",
                       help="progress/diagnostics on stderr")
        p.add_argument("--size-limit", type=int, default=DEFAULT_SIZE_LIMIT)

    p = sub.add_parser("group-info", help="order, subgroups, conjugacy classes")
    common(p)
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("cocycle-check", help="normalization and cocycle test")
    common(p)
    p.add_argument("--cocycle", required=True,
                   help="trivial | kp | cyclic:N:Q | @file.json")
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=cmd_cocycle_check)

    p = sub.add_parser("solve", help="find f with df = target, or report nontrivial")
    common(p, group_required=False)
    p.add_argument("--target", required=True, help="@file.json (degree 2 or 3)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("h2", help="second cohomology class representatives")
    common(p)
    p.set_defaults(func=cmd_h2)

    p = sub.add_parser("omega-g", help="conjugation twist table for one element")
    common(p)
    p.add_argument("--omega", required=True,
                   help="trivial | kp | cyclic:N:Q | @file.json")
    p.add_argument("--g", required=True, help="element name or index")
    p.add_argument("--restrict", help="comma-separated member indices")
    p.set_defaults(func=cmd_omega_g)

    p = sub.add_parser("equiv", help="test equivalence of two pairs (H, psi)")
    common(p)
    p.add_argument("--omega", required=True)
    p.add_argument("--pair1", required=True,
                   help="full:zero | full:@f | full:{json} | H=[..];psi=..")
    p.add_argument("--pair2", required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("classify", help="full classification report")
    common(p)
    p.add_argument("--omega", required=True)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
